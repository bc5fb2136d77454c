//! The shard-local port engine: the one per-event path both simulators run.
//!
//! A [`PortEngine`] owns everything that changes while frames cross the
//! fabric — the output ports, the dead/doomed port flags, the per-port
//! [`SimStats`], the event queue and the routing table it forwards with —
//! and executes [`Event`]s against the fabric's fixed wiring, which it
//! borrows as one [`Fabric`].  The single-thread [`crate::Simulator`] runs
//! one engine over every port; each worker of the
//! [`crate::ShardedSimulator`] runs one over the ports its switches own.
//!
//! What differs between the two drivers goes through the statically
//! dispatched [`Driver`] hook: where a switch arrival goes (straight onto the
//! engine's calendar, or into a window's staging area / an inter-shard
//! ring), how a delivery is keyed, and where a pooled buffer goes once the
//! frame is delivered or dropped.
//!
//! # Arrival order
//!
//! Every transmission completion emits an [`Arrival`]: the frame reaches a
//! switch after `propagation_delay + switch_latency`, or its destination
//! node after `propagation_delay`.  The engine does not schedule arrivals
//! as it emits them.  It collects every arrival of one instant and hands
//! them on at the end of that instant ([`PortEngine::end_instant`]) in
//! [`Arrival::key`] order: arrival time, the instant the producing
//! transmission completed, the instant it started, and the frame id.  The
//! key depends only on the frame and its hop, never on which engine
//! produced the arrival, so a sharded run that merges arrivals from several
//! shards orders them exactly as one engine does.

use std::sync::Arc;

use rt_frames::{EthernetFrame, FrameRef};
use rt_types::{
    ChannelId, DenseNextHop, Duration, HopLink, IdIndex, NodeId, SimTime, SwitchId, NO_INDEX,
};

use crate::event::{Event, EventQueue, SchedulerKind};
use crate::port::{OutputPort, TrafficClass};
use crate::sim::{Delivery, FrameId, SimConfig};
use crate::stats::SimStats;

/// Where a frame is headed, resolved once at injection time so the per-hop
/// forwarding decision never touches the MAC table again.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FrameDest {
    /// An attached end node: its dense node index and the dense index of
    /// its access switch.
    Node {
        /// Dense node index (downlink port is `2·node + 1`).
        node: u32,
        /// Dense index of the node's access switch.
        switch: u32,
    },
    /// The generic switch MAC: deliver to the managing switch's control
    /// plane (central placement) or to the first switch that receives the
    /// frame (distributed placement).
    ControlPlane,
    /// The per-switch control-plane MAC of one specific switch (dense
    /// index): forwarded over trunks and delivered to that switch's control
    /// plane — the transport of the distributed reservation protocol.
    Switch {
        /// Dense index of the addressed switch.
        switch: u32,
    },
    /// No attached node owns the MAC; dropped as unroutable at the first
    /// switch.
    Unknown,
}

/// Everything the simulator remembers about one injected frame.
#[derive(Debug, Clone)]
pub(crate) struct FrameRecord {
    /// The pooled buffer holding the frame's unpadded wire image; freed
    /// back to the arena at delivery or drop.
    pub(crate) buffer: FrameRef,
    pub(crate) class: TrafficClass,
    /// Absolute end-to-end deadline (simulated time) for RT frames.
    pub(crate) deadline: Option<SimTime>,
    /// RT channel for RT data frames.
    pub(crate) channel: Option<ChannelId>,
    /// `true` for link-state flood frames — control-class on the wire, but
    /// accounted as convergence overhead instead of reservation traffic.
    pub(crate) link_state: bool,
    /// The resolved destination (dense indices).
    pub(crate) dest: FrameDest,
    /// Where the frame entered the network (`NodeId::SWITCH` for frames
    /// originated by the switch control plane).
    pub(crate) source: NodeId,
    pub(crate) injected_at: SimTime,
    pub(crate) wire_bytes: usize,
}

impl FrameRecord {
    /// `true` if the frame is control-plane traffic: real-time class
    /// without a data channel (establishment, reservation and tear-down
    /// frames; RT data always carries its channel id).
    #[inline]
    pub(crate) fn is_control(&self) -> bool {
        self.class == TrafficClass::RealTime && self.channel.is_none()
    }
}

/// Per-channel wire state installed at admission time: the EDF deadline
/// budget of every link of the route, plus the per-switch forwarding
/// entries that pin the channel's frames to the admitted route (which on a
/// mesh need not be the next-hop table's shortest path).  Both tables are
/// tiny sorted vectors keyed by dense indices — a route has a handful of
/// hops, so lookups are a short binary search over one cache line.
#[derive(Debug, Default)]
pub(crate) struct ChannelWireState {
    /// `(port, budget)`: per-link EDF deadline budget (offset from
    /// injection time), sorted by dense port id.
    offsets: Vec<(u32, Duration)>,
    /// `(switch, port)`: at each switch of the route, the egress the
    /// channel's frames take, sorted by dense switch index.
    forwarding: Vec<(u32, u32)>,
}

impl ChannelWireState {
    pub(crate) fn set_offset(&mut self, port: u32, budget: Duration) {
        match self.offsets.binary_search_by_key(&port, |e| e.0) {
            Ok(i) => self.offsets[i].1 = budget,
            Err(i) => self.offsets.insert(i, (port, budget)),
        }
    }

    pub(crate) fn set_forwarding(&mut self, switch: u32, port: u32) {
        match self.forwarding.binary_search_by_key(&switch, |e| e.0) {
            Ok(i) => self.forwarding[i].1 = port,
            Err(i) => self.forwarding.insert(i, (switch, port)),
        }
    }

    #[inline]
    fn offset_for(&self, port: u32) -> Option<Duration> {
        self.offsets
            .binary_search_by_key(&port, |e| e.0)
            .ok()
            .map(|i| self.offsets[i].1)
    }

    #[inline]
    fn forwarding_port(&self, switch: u32) -> Option<u32> {
        self.forwarding
            .binary_search_by_key(&switch, |e| e.0)
            .ok()
            .map(|i| self.forwarding[i].1)
    }
}

/// The fabric's fixed wiring: dense node, port and trunk indices, the
/// channel wire state, the released-channel flags and the frame records.
/// Owned by the [`crate::Simulator`]; every [`PortEngine`] reads it through
/// a shared borrow, so a sharded run hands the same struct to all workers.
#[derive(Debug)]
pub(crate) struct Fabric {
    pub(crate) config: SimConfig,
    /// Raw node id → dense node index.
    pub(crate) node_index: IdIndex,
    /// Dense node index → dense index of the node's access switch.
    pub(crate) node_access: Vec<u32>,
    /// Dense `(from, to)` switch-index pair → trunk port id (`NO_INDEX`
    /// where no trunk exists); row-major `from · switch_count + to`.
    trunk_ports: Vec<u32>,
    switch_count: usize,
    /// Dense port id → the directed link it drives: uplink of node `i` at
    /// `2i`, its downlink at `2i + 1`, trunk ports after all access ports.
    pub(crate) port_links: Vec<HopLink>,
    /// Per-channel route state (deadline budgets + forwarding entries),
    /// indexed by raw channel id.
    pub(crate) channel_wire: Vec<Option<ChannelWireState>>,
    /// Channels whose wire state was torn down, indexed by raw channel id:
    /// their late frames are dropped at the first switch and counted.
    pub(crate) released_channels: Vec<bool>,
    pub(crate) frames: Vec<FrameRecord>,
    /// Dense index of the managing switch.
    pub(crate) manager_index: u32,
    /// `true` when every switch runs a channel manager: frames addressed to
    /// the generic switch MAC are consumed by the first switch that
    /// receives them.
    pub(crate) distributed_control: bool,
}

impl Fabric {
    /// Lay out the dense port space of `topology` under the switch indexing
    /// of `dense`.
    pub(crate) fn new(
        config: SimConfig,
        topology: &rt_types::Topology,
        dense: &DenseNextHop,
    ) -> Self {
        let switch_count = dense.switch_count();
        // `topology.nodes()` iterates in ascending id order, which is
        // exactly the IdIndex ordering.
        let node_index = IdIndex::new(topology.nodes().map(|n| n.get()));
        let mut node_access = Vec::with_capacity(node_index.len());
        let mut port_links = Vec::with_capacity(2 * node_index.len() + 2 * topology.trunk_count());
        for node in topology.nodes() {
            let access = topology
                .switch_of(node)
                .expect("nodes() yields attached nodes");
            node_access.push(
                dense
                    .index_of(access)
                    .expect("attachments reference known switches"),
            );
            port_links.push(HopLink::Uplink(node));
            port_links.push(HopLink::Downlink(node));
        }
        let mut trunk_ports = vec![NO_INDEX; switch_count * switch_count];
        for (a, b) in topology.trunks() {
            for (from, to) in [(a, b), (b, a)] {
                let f = dense.index_of(from).expect("trunk switch known") as usize;
                let t = dense.index_of(to).expect("trunk switch known") as usize;
                trunk_ports[f * switch_count + t] = port_links.len() as u32;
                port_links.push(HopLink::Trunk { from, to });
            }
        }
        let manager = topology.switches().next().expect("a fabric has a switch");
        Fabric {
            config,
            node_index,
            node_access,
            trunk_ports,
            switch_count,
            port_links,
            channel_wire: Vec::new(),
            released_channels: Vec::new(),
            frames: Vec::new(),
            manager_index: dense.index_of(manager).expect("manager is indexed"),
            distributed_control: topology.manager_placement()
                == rt_types::ManagerPlacement::Distributed,
        }
    }

    /// Dense node index of an event's node (events only reference nodes
    /// that passed injection validation).
    #[inline]
    pub(crate) fn node_idx(&self, node: NodeId) -> u32 {
        self.node_index
            .get(node.get())
            .expect("events only reference attached nodes")
    }

    /// The trunk port from dense switch `from` to dense switch `to`.
    #[inline]
    pub(crate) fn trunk_port(&self, from: u32, to: u32) -> Option<u32> {
        match self.trunk_ports[from as usize * self.switch_count + to as usize] {
            NO_INDEX => None,
            port => Some(port),
        }
    }

    /// Both directed ports of the trunk `a — b` that exist, appended to
    /// `out`.
    pub(crate) fn trunk_ports_of(
        &self,
        dense: &DenseNextHop,
        a: SwitchId,
        b: SwitchId,
        out: &mut Vec<u32>,
    ) {
        if let (Some(f), Some(t)) = (dense.index_of(a), dense.index_of(b)) {
            out.extend(self.trunk_port(f, t));
            out.extend(self.trunk_port(t, f));
        }
    }

    /// The installed wire state of a channel, if any (hot path).
    #[inline]
    fn channel_state(&self, channel: Option<ChannelId>) -> Option<&ChannelWireState> {
        self.channel_wire.get(channel?.get() as usize)?.as_ref()
    }

    /// `true` if the channel's wire state was torn down and not re-installed.
    #[inline]
    fn is_released(&self, channel: Option<ChannelId>) -> bool {
        channel.is_some_and(|c| {
            self.released_channels
                .get(c.get() as usize)
                .copied()
                .unwrap_or(false)
        })
    }

    #[inline]
    fn record(&self, frame: FrameId) -> &FrameRecord {
        &self.frames[frame.get() as usize]
    }

    #[inline]
    pub(crate) fn tx_time(&self, wire_bytes: usize) -> Duration {
        self.config.link_speed.transmission_time(wire_bytes)
    }

    /// The delay from a trunk or uplink transmission completing to the
    /// frame being eligible for forwarding at the receiving switch — also
    /// the sharded simulator's conservative-window lookahead.
    #[inline]
    pub(crate) fn lookahead(&self) -> Duration {
        self.config.propagation_delay + self.config.switch_latency
    }

    /// The EDF deadline a frame uses while queued at port `port`: the
    /// registered per-hop budget of its channel when one exists, the
    /// end-to-end stamp otherwise.
    #[inline]
    fn queue_deadline(&self, record: &FrameRecord, port: u32) -> Option<SimTime> {
        if let Some(offset) = self
            .channel_state(record.channel)
            .and_then(|state| state.offset_for(port))
        {
            return Some(record.injected_at + offset);
        }
        record.deadline
    }
}

/// Where an [`Arrival`] lands.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stop {
    /// A switch (dense index): the frame becomes eligible for forwarding.
    Switch(u32),
    /// The frame's destination node: it is delivered.
    Node(NodeId),
}

/// One frame reaching the far end of a link at `time`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) time: SimTime,
    pub(crate) frame: FrameId,
    pub(crate) stop: Stop,
}

/// The total order of same-instant arrivals (and of the sharded simulator's
/// delivery merge): see [`Arrival::key`].
pub(crate) type ArrivalKey = [u64; 4];

impl Arrival {
    /// The arrival-order rule: `[time, sent, tx_start, frame]`, where
    /// `sent` is the instant the producing transmission completed and
    /// `tx_start` the instant it began.  Arrivals handed on at the end of
    /// one instant are scheduled in this order, and the sharded simulator
    /// ingests staged arrivals and merges deliveries by the same key.
    pub(crate) fn key(&self, fab: &Fabric) -> ArrivalKey {
        let hop = match self.stop {
            Stop::Switch(_) => fab.lookahead(),
            Stop::Node(_) => fab.config.propagation_delay,
        };
        let time = self.time.as_nanos();
        let sent = time.saturating_sub(hop.as_nanos());
        let tx = fab.tx_time(fab.record(self.frame).wire_bytes).as_nanos();
        [time, sent, sent.saturating_sub(tx), self.frame.get()]
    }
}

/// What a driver supplies to the [`PortEngine`]: the three places where the
/// single-thread and the windowed simulator differ.
pub(crate) trait Driver {
    /// Where a switch arrival goes.  Returning it hands it back to the
    /// engine, which schedules it on its own calendar at once.
    fn switch_arrival(&mut self, arrival: Arrival) -> Option<Arrival>;

    /// Accept a delivery; `arrival` is the arrival that delivered it (its
    /// [`Arrival::key`] is the canonical delivery order).
    fn deliver(&mut self, fab: &Fabric, arrival: Arrival, delivery: Delivery);

    /// The pooled buffer's bytes, for decoding at delivery.
    fn bytes(&self, buffer: FrameRef) -> &[u8];

    /// Return a pooled buffer whose frame was delivered or dropped.
    fn free(&mut self, buffer: FrameRef);
}

/// One shard's mutable wire state and the per-event handlers over it.
#[derive(Debug)]
pub(crate) struct PortEngine {
    /// The routing table forwarding runs on; replaced after a fault.
    pub(crate) dense: Arc<DenseNextHop>,
    pub(crate) queue: EventQueue,
    /// Reusable scratch for the batched same-time event drain.
    pub(crate) batch: Vec<Event>,
    /// One output port per dense port id (a shard touches only its own).
    ports: Vec<OutputPort>,
    /// Ports whose link is currently failed.  Only trunk ports can die.
    dead: Vec<bool>,
    /// Ports that had a frame mid-serialisation when their link was cut:
    /// that frame is lost even if the link is repaired before the
    /// transmission-complete event fires.
    doomed: Vec<bool>,
    pub(crate) stats: SimStats,
    /// Arrivals emitted during the current instant, handed on by
    /// [`PortEngine::end_instant`].
    pub(crate) arrivals: Vec<Arrival>,
}

impl PortEngine {
    /// An idle engine over the whole dense port space of `fab`.
    pub(crate) fn new(fab: &Fabric, dense: Arc<DenseNextHop>, scheduler: SchedulerKind) -> Self {
        let port_count = fab.port_links.len();
        let ports = (0..port_count)
            .map(|_| match fab.config.be_queue_capacity {
                Some(cap) => OutputPort::with_be_capacity(cap),
                None => OutputPort::new(),
            })
            .collect();
        PortEngine {
            dense,
            queue: EventQueue::with_scheduler(scheduler),
            batch: Vec::new(),
            ports,
            dead: vec![false; port_count],
            doomed: vec![false; port_count],
            stats: SimStats::for_ports(fab.port_links.clone()),
            arrivals: Vec::new(),
        }
    }

    /// Schedule an event, folding the (release-build) past-time clamp count
    /// into the statistics.
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime, event: Event) {
        if self.queue.schedule(at, event) {
            self.stats.record_clamped();
        }
    }

    /// Schedule an arrival on this engine's calendar.
    pub(crate) fn schedule_arrival(&mut self, arrival: Arrival) {
        let frame = arrival.frame;
        let event = match arrival.stop {
            Stop::Switch(at) => Event::ArriveAtSwitch {
                switch: self.dense.switch_at(at),
                frame,
            },
            Stop::Node(node) => Event::ArriveAtNode { node, frame },
        };
        self.schedule(arrival.time, event);
    }

    /// Close the current instant: hand its arrivals on in [`Arrival::key`]
    /// order — node arrivals onto this engine's calendar, switch arrivals
    /// to the driver.
    pub(crate) fn end_instant<D: Driver>(&mut self, fab: &Fabric, driver: &mut D) {
        if self.arrivals.is_empty() {
            return;
        }
        if self.arrivals.len() > 1 {
            self.arrivals.sort_unstable_by_key(|a| a.key(fab));
        }
        let mut arrivals = std::mem::take(&mut self.arrivals);
        for arrival in arrivals.drain(..) {
            let local = match arrival.stop {
                Stop::Switch(_) => driver.switch_arrival(arrival),
                Stop::Node(_) => Some(arrival),
            };
            if let Some(arrival) = local {
                self.schedule_arrival(arrival);
            }
        }
        self.arrivals = arrivals;
    }

    #[inline]
    fn switch_idx(&self, switch: SwitchId) -> u32 {
        self.dense
            .index_of(switch)
            .expect("events only reference topology switches")
    }

    /// Cut the link of port `port` at `now`: mark it dead, doom a frame
    /// mid-serialisation (lost with the cable even across a repair), and
    /// drain + count its queues.
    pub(crate) fn kill_port<D: Driver>(
        &mut self,
        fab: &Fabric,
        driver: &mut D,
        port: u32,
        now: SimTime,
    ) {
        let p = port as usize;
        self.dead[p] = true;
        if self.ports[p].is_busy(now) {
            self.doomed[p] = true;
        }
        for lost in self.ports[p].drain() {
            self.stats.record_failed_link_drop();
            self.discard_frame(fab, driver, lost.frame);
        }
    }

    /// Splice port `port`'s link back.
    pub(crate) fn revive_port(&mut self, port: u32) {
        self.dead[port as usize] = false;
    }

    /// The output port a frame takes when it sits at dense switch `at` and
    /// must reach the dense destination node `dest_node` attached to dense
    /// switch `dest_switch`: the channel's installed route entry when one
    /// exists, otherwise the local downlink or the trunk port towards the
    /// next switch of the next-hop table.
    #[inline]
    fn egress_port(
        &self,
        fab: &Fabric,
        at: u32,
        dest_node: u32,
        dest_switch: u32,
        channel: Option<ChannelId>,
    ) -> Option<u32> {
        if let Some(port) = fab
            .channel_state(channel)
            .and_then(|state| state.forwarding_port(at))
        {
            return Some(port);
        }
        if dest_switch == at {
            return Some(2 * dest_node + 1);
        }
        let next = self.dense.next_hop_index(at, dest_switch)?;
        fab.trunk_port(at, next)
    }

    /// The trunk port from dense switch `at` towards dense switch `target`.
    #[inline]
    fn trunk_towards(&self, fab: &Fabric, at: u32, target: u32) -> Option<u32> {
        let next = self.dense.next_hop_index(at, target)?;
        fab.trunk_port(at, next)
    }

    /// Queue `frame` at `port` and start it if the port is idle; with no
    /// port the frame is dropped as unroutable.
    fn forward<D: Driver>(
        &mut self,
        fab: &Fabric,
        driver: &mut D,
        now: SimTime,
        frame: FrameId,
        port: Option<u32>,
    ) {
        match port {
            Some(port) => {
                self.enqueue_at_port(fab, driver, frame, port);
                self.try_start_tx(fab, now, port);
            }
            None => {
                self.stats.record_unroutable();
                self.discard_frame(fab, driver, frame);
            }
        }
    }

    /// Execute one event.  Fault events are the driver's: it mutates the
    /// topology and then calls [`PortEngine::kill_port`] /
    /// [`PortEngine::revive_port`].
    pub(crate) fn handle<D: Driver>(
        &mut self,
        fab: &Fabric,
        driver: &mut D,
        now: SimTime,
        event: Event,
    ) {
        match event {
            Event::EnqueueAtNode { node, frame } => {
                let port = 2 * fab.node_idx(node);
                self.forward(fab, driver, now, frame, Some(port));
            }
            Event::NodeTxComplete { node, frame } => {
                let node_idx = fab.node_idx(node);
                let port = 2 * node_idx;
                self.ports[port as usize].clear_busy();
                // Last bit leaves the node now; it arrives at the access
                // switch after the propagation delay, and becomes eligible
                // for forwarding after the switch processing latency.
                self.arrivals.push(Arrival {
                    time: now + fab.lookahead(),
                    frame,
                    stop: Stop::Switch(fab.node_access[node_idx as usize]),
                });
                self.try_start_tx(fab, now, port);
            }
            Event::ArriveAtSwitch { switch, frame } => {
                let at = self.switch_idx(switch);
                let record = fab.record(frame);
                let channel = record.channel;
                match record.dest {
                    FrameDest::ControlPlane => {
                        // Generic control-plane traffic.  Distributed
                        // placement: the first switch to see the frame runs
                        // a manager and consumes it.  Central placement:
                        // deliver at the managing switch, forward over
                        // trunks towards it from anywhere else.
                        if fab.distributed_control || at == fab.manager_index {
                            self.deliver_inner(fab, driver, frame, Stop::Switch(at), now);
                        } else {
                            let port = self.trunk_towards(fab, at, fab.manager_index);
                            self.forward(fab, driver, now, frame, port);
                        }
                    }
                    FrameDest::Switch { switch: target } => {
                        // Switch-to-switch control traffic (reservation
                        // frames): deliver at the addressed switch, forward
                        // over trunks towards it from anywhere else.
                        if at == target {
                            self.deliver_inner(fab, driver, frame, Stop::Switch(at), now);
                        } else {
                            let port = self.trunk_towards(fab, at, target);
                            self.forward(fab, driver, now, frame, port);
                        }
                    }
                    FrameDest::Node {
                        node: dest_node,
                        switch: dest_switch,
                    } => {
                        if fab.is_released(channel) {
                            // The channel was torn down: the switch has no
                            // state for it any more, so the frame is
                            // discarded, not delivered on a stale route.
                            self.stats.record_released_channel_drop();
                            self.discard_frame(fab, driver, frame);
                            return;
                        }
                        match self.egress_port(fab, at, dest_node, dest_switch, channel) {
                            Some(port) if self.dead[port as usize] => {
                                // A stale per-channel forwarding entry still
                                // points at the cut trunk; the frame is lost
                                // until the channel is re-routed.
                                self.stats.record_failed_link_drop();
                                self.discard_frame(fab, driver, frame);
                            }
                            port => self.forward(fab, driver, now, frame, port),
                        }
                    }
                    FrameDest::Unknown => self.forward(fab, driver, now, frame, None),
                }
            }
            Event::EnqueueAtSwitch { to, frame } => {
                // Control-plane origination at the managing switch.
                let to_idx = fab.node_idx(to);
                let dest_switch = fab.node_access[to_idx as usize];
                let port = self.egress_port(fab, fab.manager_index, to_idx, dest_switch, None);
                self.forward(fab, driver, now, frame, port);
            }
            Event::SwitchTxComplete { to, frame } => {
                let port = 2 * fab.node_idx(to) + 1;
                self.ports[port as usize].clear_busy();
                self.arrivals.push(Arrival {
                    time: now + fab.config.propagation_delay,
                    frame,
                    stop: Stop::Node(to),
                });
                self.try_start_tx(fab, now, port);
            }
            Event::TrunkTxComplete { from, to, frame } => {
                let to_idx = self.switch_idx(to);
                if let Some(port) = fab.trunk_port(self.switch_idx(from), to_idx) {
                    let p = port as usize;
                    self.ports[p].clear_busy();
                    if self.doomed[p] || self.dead[p] {
                        // The cable was cut while this frame was on it (or
                        // is still cut): the frame never arrives.  A dead
                        // port has empty queues (drained at failure time,
                        // enqueues blocked), but a *repaired* port may have
                        // picked up new frames while this doomed
                        // transmission still held it busy — restart it.
                        self.doomed[p] = false;
                        self.stats.record_failed_link_drop();
                        self.discard_frame(fab, driver, frame);
                    } else {
                        // Store-and-forward at the receiving switch, exactly
                        // as for a frame arriving over an uplink.
                        self.arrivals.push(Arrival {
                            time: now + fab.lookahead(),
                            frame,
                            stop: Stop::Switch(to_idx),
                        });
                    }
                    self.try_start_tx(fab, now, port);
                }
            }
            Event::ArriveAtNode { node, frame } => {
                self.deliver_inner(fab, driver, frame, Stop::Node(node), now);
            }
            Event::Fault(_) => unreachable!("faults are applied by the driver"),
        }
    }

    fn enqueue_at_port<D: Driver>(
        &mut self,
        fab: &Fabric,
        driver: &mut D,
        frame: FrameId,
        port: u32,
    ) {
        let record = fab.record(frame);
        let out = &mut self.ports[port as usize];
        match record.class {
            TrafficClass::RealTime => {
                // Control frames have no deadline; give them "now or
                // earlier" urgency by using time zero so they are never
                // queued behind data frames.
                let deadline = fab.queue_deadline(record, port);
                out.enqueue_rt(frame, deadline.unwrap_or(SimTime::ZERO));
            }
            TrafficClass::BestEffort => {
                if !out.enqueue_be(frame) {
                    self.stats.record_be_drop();
                    self.discard_frame(fab, driver, frame);
                }
            }
        }
    }

    fn try_start_tx(&mut self, fab: &Fabric, now: SimTime, port: u32) {
        let out = &mut self.ports[port as usize];
        if out.is_busy(now) || out.is_empty() {
            return;
        }
        let Some(queued) = out.dequeue_next() else {
            return;
        };
        let record = fab.record(queued.frame);
        let wire_bytes = record.wire_bytes;
        if record.link_state {
            self.stats.record_link_state_hop();
        } else if record.is_control() {
            self.stats.record_control_hop();
        }
        let tx = fab.tx_time(wire_bytes);
        let done = now + tx;
        self.ports[port as usize].set_busy_until(done);
        self.stats
            .record_transmission(port as usize, wire_bytes, tx);
        let frame = queued.frame;
        let event = match fab.port_links[port as usize] {
            HopLink::Uplink(node) => Event::NodeTxComplete { node, frame },
            HopLink::Downlink(node) => Event::SwitchTxComplete { to: node, frame },
            HopLink::Trunk { from, to } => Event::TrunkTxComplete { from, to, frame },
        };
        self.schedule(done, event);
    }

    /// Deliver a frame that arrived at `stop`: an end node, or a switch's
    /// control plane (receiver [`NodeId::SWITCH`], `switch` says which).
    fn deliver_inner<D: Driver>(
        &mut self,
        fab: &Fabric,
        driver: &mut D,
        frame: FrameId,
        stop: Stop,
        now: SimTime,
    ) {
        let record = fab.record(frame);
        match record.class {
            TrafficClass::RealTime => {
                self.stats.record_rt_delivery(
                    record.channel,
                    record.injected_at,
                    now,
                    record.deadline,
                );
            }
            TrafficClass::BestEffort => self.stats.record_be_delivery(),
        }
        // Decode the pooled unpadded wire image once, here, and return the
        // buffer.
        let eth = EthernetFrame::decode_unpadded(driver.bytes(record.buffer))
            .expect("pooled frames hold a valid unpadded wire image");
        driver.free(record.buffer);
        let (receiver, switch) = match stop {
            Stop::Node(node) => (node, None),
            Stop::Switch(at) => (NodeId::SWITCH, Some(self.dense.switch_at(at))),
        };
        let delivery = Delivery {
            frame,
            receiver,
            switch,
            source: record.source,
            eth,
            injected_at: record.injected_at,
            delivered_at: now,
            channel: record.channel,
            deadline: record.deadline,
            class: record.class,
        };
        let arrival = Arrival {
            time: now,
            frame,
            stop,
        };
        driver.deliver(fab, arrival, delivery);
    }

    /// A frame leaves the fabric without being delivered (unroutable, BE
    /// overflow, released channel, dead link): return its pooled buffer.
    /// Every drop site must call this exactly once — the arena-leak
    /// invariant (`arena_outstanding() == 0` once the fabric drains) is
    /// what the property suite checks.
    fn discard_frame<D: Driver>(&mut self, fab: &Fabric, driver: &mut D, frame: FrameId) {
        driver.free(fab.record(frame).buffer);
    }
}
