//! Sharded (parallel) fabric simulation: conservative PDES over worker
//! threads, pinned byte-for-byte against the single-thread [`Simulator`].
//!
//! # Model
//!
//! A **shard** owns a set of switches (assigned by a deterministic
//! [`rt_types::partition_switches`] partition) together with every output
//! port that *originates* at them: the uplink/downlink pair of each attached
//! node and the directed trunk ports leaving an owned switch.  Each shard
//! runs its own port engine (`engine::PortEngine`) — the same per-event path as the
//! single-thread simulator, on its own calendar [`crate::EventQueue`],
//! accumulating into its own [`SimStats`] and its own delivery list; the
//! coordinator folds everything back together at the end of the run.
//!
//! # Synchronisation
//!
//! The only cross-shard edge is a frame finishing transmission on an
//! inter-shard trunk: its `ArriveAtSwitch` fires a fixed **lookahead**
//! `L = propagation_delay + switch_latency` after the `TrunkTxComplete`.
//! The coordinator therefore runs classic conservative time windows: with
//! `V` the globally minimal pending time, every shard may safely execute
//! `[V, V + L)` — no event executed in the window can produce a cross-shard
//! arrival inside it.  Cross-shard arrivals travel as `(time, switch,
//! FrameId)` triples over lock-free SPSC rings (the arena store makes this
//! an index move, not a buffer copy); ring overflow spills through the
//! coordinator, so the rings bound memory, never correctness.
//!
//! # Determinism (oracle pinning)
//!
//! The single-thread run is the oracle: same deliveries, same bytes, same
//! counters, at every shard count.  Three mechanisms make the parallel run
//! reproduce it exactly:
//!
//! 1. **One arrival order.**  The engine orders the arrivals of an instant
//!    by its arrival key (`engine::Arrival::key`) — `(arrival_time, sent, tx_start, frame_id)`,
//!    where `sent` and `tx_start` are the instants the producing
//!    transmission completed and began.  The key is a function of the
//!    frame and its hop alone, so it does not depend on which shard emitted
//!    an arrival, nor on the order in which same-instant transmissions were
//!    started.  The single-thread simulator applies it at the end of every
//!    instant.  Here every switch arrival — local or cross-shard — is staged
//!    and ingested at window starts in the same order.  All switch arrivals
//!    at time `T` are emitted at `T − L`, and because the minimum frame
//!    transmission time covers `L` (checked at construction), every
//!    transmission completing at `T` was scheduled before the window
//!    holding `T` opened — it precedes the ingested arrivals here exactly
//!    as it precedes them on the single-thread calendar.
//! 2. **Ranked injections and faults.**  The preloaded event set (frame
//!    injections, scripted faults) is drained in global `(time, seq)` order
//!    and replayed with explicit ranks: workers interleave injections
//!    before same-time derived events exactly as the oracle's sequence
//!    numbers do, and a fault barrier executes injections ranked before the
//!    fault, then the fault, then resumes windows.
//! 3. **Canonical delivery merge.**  Per-shard delivery lists merge on the
//!    arrival key of the arrival that delivered each frame, which is the
//!    order the single-thread simulator handles those arrivals in — its
//!    `poll_deliveries` order, byte for byte.
//!
//! Faults synchronise on a barrier: the coordinator applies the topology
//! mutation and re-pulls the routing tables (exactly the single-thread
//! semantics), then every worker kills or revives the ports it owns, drains
//! dead queues into `failed_link_dropped`, and dooms frames caught
//! mid-serialisation — so a cut inter-shard trunk loses exactly the frames
//! the oracle loses, while frames whose transmission already completed
//! (ring entries in flight) arrive exactly as they do in the oracle.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use rt_frames::{EthernetFrame, FrameArena, FrameRef};
use rt_types::{
    effective_shards, partition_switches, ChannelId, DenseNextHop, Duration, HopLink, NodeId,
    Route, Router, RtError, RtResult, ShardStrategy, SimTime, SwitchId, Topology,
    MIN_FRAME_WIRE_BYTES,
};

use crate::engine::{Arrival, ArrivalKey, Driver, Fabric, PortEngine, Stop};
use crate::event::{Event, SchedulerKind};
use crate::sim::{
    Delivery, FaultPorts, FaultScript, FrameId, FrameInjection, LinkFault, SimConfig, Simulator,
};
use crate::stats::SimStats;

/// Capacity (entries) of each inter-shard ring; a power of two.  Overflow
/// is handled by spilling through the coordinator, so this only sizes the
/// fast path.
const RING_CAPACITY: usize = 1024;

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

/// A bounded lock-free single-producer single-consumer ring carrying switch
/// [`Arrival`]s as three parallel atomic lanes — time, dense switch index,
/// frame id (the workspace forbids `unsafe`, so the slots are atomics
/// rather than raw cells).
///
/// `head`/`tail` are monotonic counters; the producer publishes a slot with
/// a `Release` store of `tail` and the consumer observes it with an
/// `Acquire` load, so the relaxed lane stores happen-before the read side.
struct SpscRing {
    head: AtomicUsize,
    tail: AtomicUsize,
    times: Vec<AtomicU64>,
    switches: Vec<AtomicU64>,
    frames: Vec<AtomicU64>,
    mask: usize,
}

impl SpscRing {
    fn new(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        SpscRing {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            times: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            switches: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            frames: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            mask: capacity - 1,
        }
    }

    /// Producer side: `false` when the ring is full (the caller spills the
    /// arrival through the coordinator instead).
    fn push(&self, time: SimTime, switch: u32, frame: FrameId) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.times.len() {
            return false;
        }
        let i = tail & self.mask;
        self.times[i].store(time.as_nanos(), Ordering::Relaxed);
        self.switches[i].store(switch as u64, Ordering::Relaxed);
        self.frames[i].store(frame.get(), Ordering::Relaxed);
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: append every published arrival to `out`.
    fn drain_into(&self, out: &mut Vec<Arrival>) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let mut cursor = head;
        while cursor != tail {
            let i = cursor & self.mask;
            out.push(Arrival {
                time: SimTime::from_nanos(self.times[i].load(Ordering::Relaxed)),
                frame: FrameId::new(self.frames[i].load(Ordering::Relaxed)),
                stop: Stop::Switch(self.switches[i].load(Ordering::Relaxed) as u32),
            });
            cursor = cursor.wrapping_add(1);
        }
        self.head.store(tail, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Coordinator <-> worker protocol
// ---------------------------------------------------------------------------

/// One step of the barrier protocol, coordinator to worker.
enum Command {
    /// Execute every owned event with `time < end_excl` (exclusive), after
    /// ingesting `spilled` ring-overflow arrivals and draining the inbound
    /// rings.  `dense` is the routing table to forward with (refreshed
    /// after faults).
    Window {
        end_excl: SimTime,
        dense: Arc<DenseNextHop>,
        spilled: Vec<Arrival>,
    },
    /// A scripted fault fires at `at` with global sequence rank `rank`:
    /// execute injections at `at` ranked before it, then kill / revive the
    /// owned ports listed (port ids into the full dense port space).
    Fault {
        at: SimTime,
        rank: u64,
        ports: Arc<FaultPorts>,
    },
    /// The run is over; send the final report and exit.
    Finish,
}

/// Barrier acknowledgement, worker to coordinator.
struct Report {
    shard: u32,
    /// Earliest pending work this shard knows about: its injection list,
    /// its calendar, its staged arrivals, and everything it pushed onto
    /// outbound rings since the last report.  `u64::MAX` when idle.
    next_ns: u64,
    /// Ring-overflow arrivals, routed to their destination shard via the
    /// next `Window` command.
    spill: Vec<(u32, Arrival)>,
}

/// End-of-run hand-back from one worker.
struct WorkerFinal {
    stats: SimStats,
    deliveries: Vec<(ArrivalKey, Delivery)>,
    freed: Vec<FrameRef>,
    processed: u64,
    last_ns: u64,
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// The windowed driver's [`Driver`] hooks: switch arrivals are staged for
/// this shard's next window or handed to the owning shard's ring,
/// deliveries are keyed for the end-of-run merge, and buffers are parked
/// for the coordinator to free (the arena is shared read-only during the
/// run).
struct ShardLink<'a> {
    shard: u32,
    /// Dense switch index → owning shard.
    assignment: &'a [u32],
    arena: &'a FrameArena,
    /// Switch arrivals for this shard, ingested at window starts.
    staging: Vec<Arrival>,
    /// `outbox[c]`: ring we produce for shard `c`.
    outbox: Vec<Arc<SpscRing>>,
    spill: Vec<(u32, Arrival)>,
    outbound_min_ns: u64,
    deliveries: Vec<(ArrivalKey, Delivery)>,
    freed: Vec<FrameRef>,
}

impl Driver for ShardLink<'_> {
    fn switch_arrival(&mut self, arrival: Arrival) -> Option<Arrival> {
        let Stop::Switch(switch) = arrival.stop else {
            return Some(arrival);
        };
        let dest = self.assignment[switch as usize];
        if dest == self.shard {
            self.staging.push(arrival);
        } else {
            self.outbound_min_ns = self.outbound_min_ns.min(arrival.time.as_nanos());
            if !self.outbox[dest as usize].push(arrival.time, switch, arrival.frame) {
                self.spill.push((dest, arrival));
            }
        }
        None
    }

    fn deliver(&mut self, fab: &Fabric, arrival: Arrival, delivery: Delivery) {
        self.deliveries.push((arrival.key(fab), delivery));
    }

    fn bytes(&self, buffer: FrameRef) -> &[u8] {
        self.arena.bytes(buffer)
    }

    fn free(&mut self, buffer: FrameRef) {
        self.freed.push(buffer);
    }
}

/// One shard's execution state: a [`PortEngine`] over the full dense port
/// space (only owned ports are ever touched), its [`ShardLink`] hooks, and
/// the preloaded injections it owns.
struct Worker<'a> {
    fab: &'a Fabric,
    engine: PortEngine,
    link: ShardLink<'a>,
    /// Preloaded frame injections owned by this shard, in global
    /// `(time, rank)` order.
    injections: VecDeque<(SimTime, u64, Event)>,
    /// `inbox[p]`: ring produced by shard `p` for us.
    inbox: Vec<Arc<SpscRing>>,
    /// Reusable scratch for the arrivals due in the next window.
    due: Vec<Arrival>,
    last_ns: u64,
}

impl Worker<'_> {
    /// Pull every published inbound ring arrival into the staging area.
    fn drain_rings(&mut self) {
        for (producer, ring) in self.inbox.iter().enumerate() {
            if producer as u32 != self.link.shard {
                ring.drain_into(&mut self.link.staging);
            }
        }
    }

    /// Move every staged arrival due before `end_excl` onto the calendar,
    /// in the engine's arrival order.
    fn ingest_staged(&mut self, end_excl: SimTime) {
        let due = &mut self.due;
        self.link.staging.retain(|a| {
            if a.time < end_excl {
                due.push(*a);
                false
            } else {
                true
            }
        });
        due.sort_unstable_by_key(|a| a.key(self.fab));
        for arrival in due.drain(..) {
            self.engine.schedule_arrival(arrival);
        }
    }

    /// Execute every owned event strictly before `end_excl`, interleaving
    /// preloaded injections before same-time derived events (they carry
    /// lower oracle sequence numbers).
    fn run_window(&mut self, end_excl: SimTime, dense: Arc<DenseNextHop>, spilled: Vec<Arrival>) {
        self.engine.dense = dense;
        self.link.staging.extend(spilled);
        self.drain_rings();
        self.ingest_staged(end_excl);
        let end_incl = SimTime::from_nanos(end_excl.as_nanos().saturating_sub(1));
        loop {
            let next_injection = match self.injections.front() {
                Some(&(t, _, _)) if t < end_excl => Some(t),
                _ => None,
            };
            let next_calendar = self.engine.queue.peek_time().filter(|&t| t < end_excl);
            match (next_injection, next_calendar) {
                (None, None) => break,
                (Some(t), None) => self.run_injections(t, u64::MAX),
                (Some(t), Some(c)) if t <= c => self.run_injections(t, u64::MAX),
                _ => {
                    let mut batch = std::mem::take(&mut self.engine.batch);
                    if let Some(time) = self.engine.queue.pop_run_until(end_incl, &mut batch) {
                        self.last_ns = self.last_ns.max(time.as_nanos());
                        for event in batch.drain(..) {
                            self.engine.handle(self.fab, &mut self.link, time, event);
                        }
                    }
                    self.engine.batch = batch;
                    self.engine.end_instant(self.fab, &mut self.link);
                }
            }
        }
    }

    /// Execute every consecutive preloaded injection at exactly time `at`
    /// ranked at most `max_rank`.  Injections only start transmissions, so
    /// they emit no arrival and need no end of instant.
    fn run_injections(&mut self, at: SimTime, max_rank: u64) {
        self.last_ns = self.last_ns.max(at.as_nanos());
        while let Some(&(t, rank, _)) = self.injections.front() {
            if t != at || rank > max_rank {
                break;
            }
            let (_, _, event) = self.injections.pop_front().expect("front checked");
            self.engine.handle(self.fab, &mut self.link, at, event);
        }
    }

    /// Fault barrier: injections at `at` ranked before the fault fire
    /// first (the oracle pops them first), then this shard's owned ports
    /// die or revive through the engine, as in the single-thread run.
    fn fault_step(&mut self, at: SimTime, rank: u64, ports: &FaultPorts) {
        self.run_injections(at, rank);
        for &port in &ports.killed {
            if self.port_owner(port) == self.link.shard {
                self.engine.kill_port(self.fab, &mut self.link, port, at);
            }
        }
        for &port in &ports.revived {
            if self.port_owner(port) == self.link.shard {
                self.engine.revive_port(port);
            }
        }
        self.drain_rings();
    }

    /// Which shard owns (i.e. transmits on) dense port `port`.
    fn port_owner(&self, port: u32) -> u32 {
        let switch = match self.fab.port_links[port as usize] {
            HopLink::Uplink(node) | HopLink::Downlink(node) => {
                self.fab.node_access[self.fab.node_idx(node) as usize]
            }
            HopLink::Trunk { from, .. } => self
                .engine
                .dense
                .index_of(from)
                .expect("trunk ports reference topology switches"),
        };
        self.link.assignment[switch as usize]
    }

    /// Earliest pending work this shard knows about.
    fn next_pending_ns(&self) -> u64 {
        let mut next = u64::MAX;
        if let Some(&(t, _, _)) = self.injections.front() {
            next = next.min(t.as_nanos());
        }
        if let Some(t) = self.engine.queue.peek_time() {
            next = next.min(t.as_nanos());
        }
        for a in &self.link.staging {
            next = next.min(a.time.as_nanos());
        }
        next
    }

    fn make_report(&mut self) -> Report {
        let next_ns = self.next_pending_ns().min(self.link.outbound_min_ns);
        self.link.outbound_min_ns = u64::MAX;
        Report {
            shard: self.link.shard,
            next_ns,
            spill: std::mem::take(&mut self.link.spill),
        }
    }
}

/// Worker thread body: answer barrier commands until `Finish`, then hand
/// every accumulated result back.
fn worker_main(
    mut worker: Worker<'_>,
    commands: mpsc::Receiver<Command>,
    reports: mpsc::Sender<Report>,
    finals: mpsc::Sender<WorkerFinal>,
) {
    let _ = reports.send(worker.make_report());
    while let Ok(command) = commands.recv() {
        match command {
            Command::Window {
                end_excl,
                dense,
                spilled,
            } => worker.run_window(end_excl, dense, spilled),
            Command::Fault { at, rank, ports } => worker.fault_step(at, rank, &ports),
            Command::Finish => break,
        }
        let _ = reports.send(worker.make_report());
    }
    let _ = finals.send(WorkerFinal {
        stats: worker.engine.stats,
        deliveries: worker.link.deliveries,
        freed: worker.link.freed,
        processed: worker.engine.queue.processed(),
        last_ns: worker.last_ns,
    });
}

// ---------------------------------------------------------------------------
// ShardedSimulator
// ---------------------------------------------------------------------------

/// The sharded front-end of the fabric simulator.
///
/// Construction, injection and channel management all delegate to an inner
/// single-thread [`Simulator`]; [`ShardedSimulator::run_to_idle`] then
/// executes the preloaded event set across worker threads under the
/// conservative window protocol described in the [module docs](self), and
/// merges deliveries, statistics and arena buffers back so that every
/// observable — `poll_deliveries`, `stats().summary()`, per-channel and
/// per-link counters, `arena_outstanding()` — is byte-for-byte identical to
/// the single-thread run.
pub struct ShardedSimulator {
    inner: Simulator,
    shards: usize,
    strategy: ShardStrategy,
    /// Dense switch index -> owning shard.
    assignment: Vec<u32>,
    windows_executed: u64,
    extra_processed: u64,
    finished_at: SimTime,
}

impl ShardedSimulator {
    /// Build a sharded fabric over `topology` with (up to) `shards` worker
    /// shards and the default partition strategy.
    ///
    /// Fails when the configuration violates the conservative-window
    /// soundness condition: the minimum frame transmission time must cover
    /// the trunk lookahead `propagation_delay + switch_latency`, so that
    /// arrival ingestion order can reproduce the oracle's event sequence
    /// (see the module docs).
    pub fn new(config: SimConfig, topology: Topology, shards: usize) -> RtResult<Self> {
        Self::with_strategy(config, topology, shards, ShardStrategy::default())
    }

    /// [`ShardedSimulator::new`] with an explicit partition strategy.
    pub fn with_strategy(
        config: SimConfig,
        topology: Topology,
        shards: usize,
        strategy: ShardStrategy,
    ) -> RtResult<Self> {
        let inner = Simulator::with_topology(config, topology)?;
        Self::from_inner(inner, shards, strategy)
    }

    /// Build over an explicit [`Router`], as [`Simulator::with_router`].
    pub fn with_router(
        config: SimConfig,
        topology: Topology,
        router: Arc<dyn Router>,
        shards: usize,
    ) -> RtResult<Self> {
        let inner = Simulator::with_router(config, topology, router)?;
        Self::from_inner(inner, shards, ShardStrategy::default())
    }

    fn from_inner(inner: Simulator, shards: usize, strategy: ShardStrategy) -> RtResult<Self> {
        let lookahead = inner.fabric.lookahead();
        let min_tx = inner.transmission_time(MIN_FRAME_WIRE_BYTES);
        if min_tx < lookahead {
            return Err(RtError::Config(format!(
                "sharded simulation needs the minimum frame transmission time ({} ns) \
                 to cover the trunk lookahead ({} ns): conservative windows would \
                 otherwise reorder same-instant events relative to the single-thread \
                 oracle",
                min_tx.as_nanos(),
                lookahead.as_nanos(),
            )));
        }
        let partition = partition_switches(inner.topology(), shards, strategy);
        let shards = effective_shards(inner.topology().switch_count(), shards);
        let dense = &inner.engine.dense;
        let mut assignment = vec![0u32; dense.switch_count()];
        for (pos, switch) in inner.topology().switches().enumerate() {
            let idx = dense
                .index_of(switch)
                .expect("topology switches are dense-indexed");
            assignment[idx as usize] = partition[pos];
        }
        Ok(ShardedSimulator {
            inner,
            shards,
            strategy,
            assignment,
            windows_executed: 0,
            extra_processed: 0,
            finished_at: SimTime::ZERO,
        })
    }

    // --- delegated setup --------------------------------------------------

    /// See [`Simulator::inject`].
    pub fn inject(&mut self, node: NodeId, eth: EthernetFrame, at: SimTime) -> RtResult<FrameId> {
        self.inner.inject(node, eth, at)
    }

    /// See [`Simulator::inject_batch`].
    pub fn inject_batch(
        &mut self,
        batch: impl IntoIterator<Item = FrameInjection>,
    ) -> RtResult<Vec<FrameId>> {
        self.inner.inject_batch(batch)
    }

    /// See [`Simulator::schedule_fault`].
    pub fn schedule_fault(&mut self, at: SimTime, fault: LinkFault) -> RtResult<()> {
        self.inner.schedule_fault(at, fault)
    }

    /// See [`Simulator::schedule_faults`].
    pub fn schedule_faults(&mut self, script: &FaultScript) -> RtResult<()> {
        self.inner.schedule_faults(script)
    }

    /// See [`Simulator::set_channel_hop_schedule`].
    pub fn set_channel_hop_schedule(
        &mut self,
        channel: ChannelId,
        offsets: impl IntoIterator<Item = (HopLink, Duration)>,
    ) {
        self.inner.set_channel_hop_schedule(channel, offsets)
    }

    /// See [`Simulator::set_channel_route`].
    pub fn set_channel_route(&mut self, channel: ChannelId, route: &Route) {
        self.inner.set_channel_route(channel, route)
    }

    /// See [`Simulator::release_channel`].
    pub fn release_channel(&mut self, channel: ChannelId) {
        self.inner.release_channel(channel)
    }

    // --- observability ----------------------------------------------------

    /// Number of worker shards the run executes on (clamped to the switch
    /// count).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The partition strategy in use.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// The shard owning `switch`, if it is part of the topology.
    pub fn shard_of(&self, switch: SwitchId) -> Option<u32> {
        let idx = self.inner.engine.dense.index_of(switch)?;
        Some(self.assignment[idx as usize])
    }

    /// Conservative time windows executed so far (fault barriers not
    /// included).
    pub fn windows_executed(&self) -> u64 {
        self.windows_executed
    }

    /// See [`Simulator::events_processed`]: injections and faults count
    /// once (drained by the coordinator), derived events once in whichever
    /// shard executed them — the same total as the single-thread run.
    pub fn events_processed(&self) -> u64 {
        self.inner.events_processed() + self.extra_processed
    }

    /// See [`Simulator::now`].
    pub fn now(&self) -> SimTime {
        self.inner.now().max(self.finished_at)
    }

    /// See [`Simulator::config`].
    pub fn config(&self) -> &SimConfig {
        self.inner.config()
    }

    /// See [`Simulator::topology`].
    pub fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    /// See [`Simulator::manager_switch`].
    pub fn manager_switch(&self) -> SwitchId {
        self.inner.manager_switch()
    }

    /// See [`Simulator::stats`] (merged across shards after a run).
    pub fn stats(&self) -> &SimStats {
        self.inner.stats()
    }

    /// See [`Simulator::poll_deliveries`] (canonically merged across
    /// shards, in the oracle's order).
    pub fn poll_deliveries(&mut self) -> Vec<Delivery> {
        self.inner.poll_deliveries()
    }

    /// See [`Simulator::injected_count`].
    pub fn injected_count(&self) -> u64 {
        self.inner.injected_count()
    }

    /// See [`Simulator::arena_outstanding`].
    pub fn arena_outstanding(&self) -> usize {
        self.inner.arena_outstanding()
    }

    /// See [`Simulator::arena_stats`].
    pub fn arena_stats(&self) -> rt_frames::ArenaStats {
        self.inner.arena_stats()
    }

    // --- execution --------------------------------------------------------

    /// Run the preloaded event set to completion across the worker shards;
    /// returns the final simulated time.
    ///
    /// Panics if the pending set contains events a sharded run does not
    /// support (switch-originated injections via `inject_at_switch` /
    /// `inject_from_switch`); node injections and scripted faults — the
    /// full workload model of the property harness — are supported.
    pub fn run_to_idle(&mut self) -> SimTime {
        let shards = self.shards;

        // Drain the preloaded event set in global (time, seq) order,
        // splitting node injections per owning shard and faults into the
        // coordinator's script; the rank preserves the oracle's sequence
        // numbers across the split.
        let mut per_shard: Vec<VecDeque<(SimTime, u64, Event)>> =
            (0..shards).map(|_| VecDeque::new()).collect();
        let mut faults: VecDeque<(SimTime, u64, LinkFault)> = VecDeque::new();
        let mut rank = 0u64;
        while let Some((t, event)) = self.inner.engine.queue.pop() {
            match event {
                Event::EnqueueAtNode { node, .. } => {
                    let fab = &self.inner.fabric;
                    let access = fab.node_access[fab.node_idx(node) as usize];
                    let shard = self.assignment[access as usize];
                    per_shard[shard as usize].push_back((t, rank, event));
                }
                Event::Fault(fault) => faults.push_back((t, rank, fault)),
                other => panic!(
                    "sharded runs drive node-injected workloads and scripted faults only; \
                     found {other:?} in the pending event set"
                ),
            }
            rank += 1;
        }

        let lookahead_ns = self.inner.fabric.lookahead().as_nanos();
        let mut windows = 0u64;
        let mut extra_processed = 0u64;
        let mut last_ns = self.inner.now().as_nanos();
        let mut merged_deliveries: Vec<(ArrivalKey, Delivery)> = Vec::new();
        let mut merged_freed: Vec<FrameRef> = Vec::new();

        {
            // Split the inner simulator into the fabric and arena every
            // worker reads, and the routing and statistics state only the
            // coordinator touches.
            let Simulator {
                fabric,
                engine,
                arena,
                topology,
                router,
                pending_deliveries,
                ..
            } = &mut self.inner;
            let fabric: &Fabric = fabric;
            let arena: &FrameArena = arena;
            let assignment: &[u32] = &self.assignment;

            // rings[p][c]: produced by shard p, consumed by shard c.
            let rings: Vec<Vec<Arc<SpscRing>>> = (0..shards)
                .map(|_| {
                    (0..shards)
                        .map(|_| Arc::new(SpscRing::new(RING_CAPACITY)))
                        .collect()
                })
                .collect();

            let (report_tx, report_rx) = mpsc::channel::<Report>();
            let (final_tx, final_rx) = mpsc::channel::<WorkerFinal>();
            let mut command_txs = Vec::with_capacity(shards);

            std::thread::scope(|scope| {
                for shard in 0..shards {
                    let (command_tx, command_rx) = mpsc::channel::<Command>();
                    command_txs.push(command_tx);
                    let injections = std::mem::take(&mut per_shard[shard]);
                    let inbox: Vec<Arc<SpscRing>> =
                        (0..shards).map(|p| Arc::clone(&rings[p][shard])).collect();
                    let outbox: Vec<Arc<SpscRing>> =
                        (0..shards).map(|c| Arc::clone(&rings[shard][c])).collect();
                    let dense = Arc::clone(&engine.dense);
                    let reports = report_tx.clone();
                    let finals = final_tx.clone();
                    scope.spawn(move || {
                        let worker = Worker {
                            fab: fabric,
                            engine: PortEngine::new(fabric, dense, SchedulerKind::Calendar),
                            link: ShardLink {
                                shard: shard as u32,
                                assignment,
                                arena,
                                staging: Vec::new(),
                                outbox,
                                spill: Vec::new(),
                                outbound_min_ns: u64::MAX,
                                deliveries: Vec::new(),
                                freed: Vec::new(),
                            },
                            injections,
                            inbox,
                            due: Vec::new(),
                            last_ns: 0,
                        };
                        worker_main(worker, command_rx, reports, finals);
                    });
                }
                drop(report_tx);
                drop(final_tx);

                let mut next_ns = vec![u64::MAX; shards];
                let mut held: Vec<Vec<Arrival>> = vec![Vec::new(); shards];
                let gather = |next_ns: &mut [u64], held: &mut [Vec<Arrival>]| {
                    for _ in 0..shards {
                        let report = report_rx.recv().expect("worker thread alive");
                        next_ns[report.shard as usize] = report.next_ns;
                        for (dest, arrival) in report.spill {
                            held[dest as usize].push(arrival);
                        }
                    }
                };
                gather(&mut next_ns, &mut held);

                loop {
                    let mut t_work = next_ns.iter().copied().min().unwrap_or(u64::MAX);
                    for h in &held {
                        for arrival in h {
                            t_work = t_work.min(arrival.time.as_nanos());
                        }
                    }
                    let t_fault = faults
                        .front()
                        .map(|&(t, _, _)| t.as_nanos())
                        .unwrap_or(u64::MAX);
                    if t_work == u64::MAX && t_fault == u64::MAX {
                        break;
                    }
                    if t_fault <= t_work {
                        // Fault barrier: the coordinator mutates the
                        // topology and re-pulls routing (the single-thread
                        // semantics of fail_link / repair_link /
                        // fail_switch); the workers kill / revive the ports
                        // they own.  A scripted fault that does not apply
                        // is a script bug in debug builds and a no-op in
                        // release builds, as in the single-thread run.
                        let (at, fault_rank, fault) =
                            faults.pop_front().expect("fault time was finite");
                        last_ns = last_ns.max(at.as_nanos());
                        let result = fault.apply(topology, fabric, &engine.dense);
                        debug_assert!(result.is_ok(), "scripted {fault:?} failed: {result:?}");
                        let ports = Arc::new(result.unwrap_or_default());
                        engine.dense = router.dense_next_hop(topology);
                        for tx in &command_txs {
                            tx.send(Command::Fault {
                                at,
                                rank: fault_rank,
                                ports: Arc::clone(&ports),
                            })
                            .expect("worker thread alive");
                        }
                        gather(&mut next_ns, &mut held);
                    } else {
                        // Conservative window [t_work, t_work + L), cut
                        // short by the next fault.
                        let end_excl = t_work
                            .saturating_add(lookahead_ns)
                            .min(t_fault)
                            .max(t_work.saturating_add(1));
                        for (shard, tx) in command_txs.iter().enumerate() {
                            tx.send(Command::Window {
                                end_excl: SimTime::from_nanos(end_excl),
                                dense: Arc::clone(&engine.dense),
                                spilled: std::mem::take(&mut held[shard]),
                            })
                            .expect("worker thread alive");
                        }
                        gather(&mut next_ns, &mut held);
                        windows += 1;
                    }
                }
                for tx in &command_txs {
                    let _ = tx.send(Command::Finish);
                }
            });

            for _ in 0..shards {
                let done = final_rx.recv().expect("every worker sends a final report");
                engine.stats.merge_from(&done.stats);
                merged_deliveries.extend(done.deliveries);
                merged_freed.extend(done.freed);
                extra_processed += done.processed;
                last_ns = last_ns.max(done.last_ns);
            }
            merged_deliveries.sort_unstable_by_key(|a| a.0);
            pending_deliveries.extend(merged_deliveries.into_iter().map(|(_, d)| d));
        }

        for r in merged_freed {
            self.inner.arena.free(r);
        }
        self.windows_executed += windows;
        self.extra_processed += extra_processed;
        self.finished_at = self.finished_at.max(SimTime::from_nanos(last_ns));
        self.now()
    }
}
