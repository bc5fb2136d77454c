//! The three workloads and one round of each: set-up, churn, fail-over and
//! wire replay, with the correctness checks that gate every round.
//!
//! A round is a pure function of its seed: rounds that share a seed repeat
//! the same arrival sequence, so their trace hashes must agree and their
//! timings can be pooled.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use rt_core::manager::{ChannelManager, SwitchAction};
use rt_core::{
    AdmissionController, DistributedChannelManager, DpsKind, FabricChannelManager,
    MultiHopAdmission, MultiHopDps, RtChannelSpec, SwitchChannelManager, SystemState,
};
use rt_edf::{FeasibilityTester, PeriodicTask, TaskSet};
use rt_frames::codec::TeardownFrame;
use rt_frames::rt_response::ResponseVerdict;
use rt_frames::{Frame, RequestFrame, ResponseFrame};
use rt_netsim::{Delivery, ShardedSimulator, SimConfig, Simulator, TrafficSource};
use rt_traffic::rng::SeededRng;
use rt_traffic::{ChurnConfig, ChurnFrameSource, ChurnProcess, ChurnReport};
use rt_types::{
    ChannelId, ConnectionRequestId, Duration, HopLink, MacAddr, NextHopCacheStats, NodeId, Router,
    RtError, RtResult, ShortestPathRouter, SimTime, SwitchId, Topology,
};

use crate::trace::{span, TracedManager, TracedRouter};

/// Which fabric and manager a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// The paper's single-switch star, `SwitchChannelManager` + ADPS.
    Star,
    /// `fat_tree(16)`, central `FabricChannelManager` + ADPS.
    FatTree,
    /// `torus_nd([4,4,4,4], 4)`, `DistributedChannelManager` + ADPS.
    Torus,
}

/// One benchmark workload: its fabric, its churn load and the size of its
/// fail-over and wire phases.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Fabric and manager.
    pub fabric: Fabric,
    /// Mean holding time in arrivals (the offered concurrent channels).
    pub holding: f64,
    /// Warm-up arrivals (part of set-up).
    pub warmup: u64,
    /// Measured arrivals per round.
    pub measured: u64,
    /// Fault events per round: trunks (or, on the star, access links) cut
    /// and then repaired.
    pub faults: usize,
    /// Simulated time of one churn tick in the wire replay.
    pub wire_tick: Duration,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "star_paper",
        fabric: Fabric::Star,
        holding: 3_000.0,
        warmup: 6_000,
        measured: 30_000,
        faults: 64,
        wire_tick: Duration::from_micros(20),
    },
    Workload {
        name: "fat_tree_central",
        fabric: Fabric::FatTree,
        holding: 1_000.0,
        warmup: 2_000,
        measured: 16_000,
        faults: 48,
        wire_tick: Duration::from_micros(100),
    },
    Workload {
        name: "torus_distributed",
        fabric: Fabric::Torus,
        holding: 2_500.0,
        warmup: 2_500,
        measured: 2_000,
        faults: 16,
        wire_tick: Duration::from_micros(100),
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// Build the workload's fabric.
    pub fn topology(&self) -> RtResult<Topology> {
        match self.fabric {
            Fabric::Star => Ok(Topology::star(SwitchId::new(0), (0..64).map(NodeId::new))),
            Fabric::FatTree => Topology::fat_tree(16),
            Fabric::Torus => Topology::torus_nd(&[4, 4, 4, 4], 4),
        }
    }

    fn churn_config(&self, seed: u64) -> ChurnConfig {
        ChurnConfig::new(seed)
            .windows(self.warmup, self.measured)
            .load(1.0, self.holding)
            .without_trace()
            .with_windows()
    }
}

/// The manager under test, concrete so the untraced churn is
/// monomorphised exactly as a caller of the library would write it.
#[derive(Debug)]
pub enum Manager {
    /// Single-switch star.
    Star(SwitchChannelManager),
    /// Central multi-hop manager.
    Fabric(FabricChannelManager),
    /// Distributed two-phase manager.
    Distributed(DistributedChannelManager),
}

impl Manager {
    fn build(fabric: Fabric, topology: &Topology, router: Arc<dyn Router>) -> Manager {
        match fabric {
            Fabric::Star => Manager::Star(SwitchChannelManager::new(AdmissionController::new(
                SystemState::with_nodes(topology.nodes()),
                DpsKind::Asymmetric.build(),
            ))),
            Fabric::FatTree => Manager::Fabric(FabricChannelManager::new(
                MultiHopAdmission::with_router(topology.clone(), MultiHopDps::Asymmetric, router),
            )),
            Fabric::Torus => Manager::Distributed(DistributedChannelManager::new(
                topology.clone(),
                MultiHopDps::Asymmetric,
                router,
            )),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn ChannelManager {
        match self {
            Manager::Star(m) => m,
            Manager::Fabric(m) => m,
            Manager::Distributed(m) => m,
        }
    }

    /// Run `f` on the manager, through the recording decorator if `traced`.
    fn with<R>(
        &mut self,
        traced: bool,
        f: impl FnOnce(&mut dyn ChannelManager) -> RtResult<R>,
    ) -> RtResult<R> {
        if traced {
            f(&mut TracedManager::new(self.as_dyn()))
        } else {
            f(self.as_dyn())
        }
    }

    fn run_churn(&mut self, process: &ChurnProcess, traced: bool) -> RtResult<ChurnReport> {
        if traced {
            return process.run(&mut TracedManager::new(self.as_dyn()));
        }
        match self {
            Manager::Star(m) => process.run(m),
            Manager::Fabric(m) => process.run(m),
            Manager::Distributed(m) => process.run(m),
        }
    }

    /// The live per-link task sets: read from the admission state where
    /// the manager exposes it, rebuilt from the channel route views (route
    /// plus per-link deadline split) for the distributed manager.
    fn link_tasksets(&self) -> RtResult<Vec<TaskSet>> {
        match self {
            Manager::Star(m) => {
                let state = m.admission().state();
                Ok(state
                    .loaded_links()
                    .map(|(link, _)| state.link_taskset(link))
                    .collect())
            }
            Manager::Fabric(m) => {
                let admission = m.admission();
                Ok(admission
                    .loaded_links()
                    .map(|(link, _)| admission.link_taskset(link))
                    .collect())
            }
            Manager::Distributed(m) => {
                let mut sets = BTreeMap::new();
                for id in m.channel_ids() {
                    let Some(view) = m.channel_route(id) else {
                        continue;
                    };
                    for (link, &deadline) in view.path.iter().zip(&view.link_deadlines) {
                        let task =
                            PeriodicTask::new(view.spec.period, view.spec.capacity, deadline)?;
                        sets.entry(*link).or_insert_with(TaskSet::new).push(task);
                    }
                }
                Ok(sets.into_values().collect())
            }
        }
    }
}

/// What one fault phase measured.
#[derive(Debug, Default, Clone)]
pub struct FaultPhase {
    /// Per-event cut (or access-link loss) times, nanoseconds.
    pub cut_ns: Vec<u64>,
    /// Per-event repair times, nanoseconds.
    pub repair_ns: Vec<u64>,
    /// Link-state flood frames pumped, over all events.
    pub flood_frames: u64,
    /// Hash over every event's outcome (re-routed / dropped counts).
    pub outcome_hash: u64,
}

/// What one wire replay measured.
#[derive(Debug, Default, Clone)]
pub struct WirePhase {
    /// Frames the churn twin generated (and the loop injected).
    pub injected: u64,
    /// Frames delivered to their receivers.
    pub delivered: u64,
    /// Delivered frames that met their deadline.
    pub on_time: u64,
    /// Frames dropped anywhere in the fabric.
    pub dropped: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Most events pending right after an injection.
    pub peak_pending: usize,
    /// Worst end-to-end latency (simulated), nanoseconds.
    pub worst_latency_ns: u64,
    /// Hash over the delivery tuples (time, receiver, injected-at, channel).
    pub delivery_hash: u64,
    /// Frame arena high-water mark.
    pub arena_high_water: usize,
    /// Frame arena fresh (non-recycled) allocations.
    pub arena_fresh: u64,
    /// Host nanoseconds of each piece of the phase: the simulator build,
    /// then each injection window of the loop.  The pieces sum to the
    /// phase, and the same input always cuts the phase into the same
    /// pieces.
    pub piece_ns: Vec<u64>,
}

/// Everything one round measured.
#[derive(Debug)]
pub struct Round {
    /// Topology, manager and routing build plus the warm-up arrivals.
    pub setup_ns: u64,
    /// The churn report (measured latencies, hashes, windows).
    pub churn: ChurnReport,
    /// The fail-over phase.
    pub faults: FaultPhase,
    /// The wire phase.
    pub wire: WirePhase,
    /// Host nanoseconds of the whole round.
    pub total_ns: u64,
    /// Next-hop cache counters at the end of the round (zero on the star).
    pub cache: NextHopCacheStats,
    /// Per-link task sets at the end of the churn (traced rounds only).
    pub tasksets: Vec<TaskSet>,
}

/// FNV-1a fold of one word.
fn fold(hash: &mut u64, word: u64) {
    *hash ^= word;
    *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Simulated time the wire loop advances per injection window.
const WIRE_WINDOW: Duration = Duration::from_millis(1);

/// Fold one delivery tuple (time, receiver, injected-at, channel).
fn fold_delivery(hash: &mut u64, d: &Delivery) {
    fold(hash, d.delivered_at.as_nanos());
    fold(hash, u64::from(d.receiver.get()));
    fold(hash, d.injected_at.as_nanos());
    fold(hash, d.channel.map_or(0, |c| u64::from(c.get())));
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Run one round of `workload` on `seed`.  With `traced`, the manager and
/// router are wrapped in the recording decorators (the caller starts and
/// finishes the span recorder).
pub fn run_round(workload: &Workload, seed: u64, traced: bool) -> RtResult<Round> {
    let round_start = Instant::now();
    let (topology, mut manager, router) = {
        let _s = span("setup.build");
        let topology = workload.topology()?;
        let router: Arc<dyn Router> = Arc::new(ShortestPathRouter::new());
        let router: Arc<dyn Router> = if traced {
            Arc::new(TracedRouter::new(router))
        } else {
            router
        };
        let manager = Manager::build(workload.fabric, &topology, Arc::clone(&router));
        (topology, manager, router)
    };
    let build_ns = nanos(round_start);

    let process = ChurnProcess::new(workload.churn_config(seed), &topology)?;
    let churn_start = Instant::now();
    let churn = {
        let _s = span("traffic.churn");
        manager.run_churn(&process, traced)?
    };
    let churn_ns = nanos(churn_start);
    let window_ns = churn.measured_elapsed.as_nanos() as u64;
    let setup_ns = build_ns + churn_ns.saturating_sub(window_ns);

    let now = {
        let _s = span("phase.settle");
        manager.with(traced, |m| {
            let now = settle(m, SimTime::ZERO)?;
            m.audit_quiescent()?;
            Ok(now)
        })?
    };
    let tasksets = if traced {
        manager.link_tasksets()?
    } else {
        Vec::new()
    };

    let faults = {
        let _s = span("phase.failover");
        manager.with(traced, |m| {
            let faults = match workload.fabric {
                Fabric::Star => access_link_faults(m, &topology, workload.faults, seed, now)?,
                Fabric::FatTree | Fabric::Torus => {
                    trunk_faults(m, &topology, workload.faults, seed, now)?
                }
            };
            settle(m, now)?;
            m.audit_quiescent()?;
            Ok(faults)
        })?
    };

    let wire = {
        let _s = span("phase.wire");
        run_wire(&topology, Arc::clone(&router), &churn, workload.wire_tick)?
    };

    let cache = router
        .next_hop_cache()
        .map(|c| c.stats())
        .unwrap_or_default();
    Ok(Round {
        setup_ns,
        total_ns: nanos(round_start),
        churn,
        faults,
        wire,
        cache,
        tasksets,
    })
}

/// Run `manager`'s time-driven work until it has none left (leases swept,
/// coordinations aborted), pumping whatever control traffic that emits.
/// Returns the settled clock.
fn settle(manager: &mut dyn ChannelManager, mut now: SimTime) -> RtResult<SimTime> {
    let mut ticks = 0u32;
    while let Some(due) = manager.next_timeout() {
        ticks += 1;
        if ticks > 10_000 {
            return Err(RtError::ProtocolViolation(
                "manager keeps scheduling timeouts after settling".into(),
            ));
        }
        now = now.max(due);
        let outcome = manager.on_tick(now)?;
        pump_control(manager, outcome.emissions, now)?;
    }
    Ok(now)
}

/// Deliver switch-to-switch control frames until the fabric is quiet;
/// returns how many were delivered.
fn pump_control(
    manager: &mut dyn ChannelManager,
    initial: Vec<(SwitchId, SwitchAction)>,
    now: SimTime,
) -> RtResult<u64> {
    let mut queue = VecDeque::new();
    let push = |queue: &mut VecDeque<_>, actions: Vec<(SwitchId, SwitchAction)>| {
        for (_, action) in actions {
            if let SwitchAction::SendControl { to, frame } = action {
                queue.push_back((to, Frame::Reservation(frame)));
            }
        }
    };
    push(&mut queue, initial);
    let mut delivered = 0u64;
    while let Some((at, frame)) = queue.pop_front() {
        delivered += 1;
        let outcome = manager.handle_frame_at(at, NodeId::SWITCH, &frame, now)?;
        push(&mut queue, outcome.emissions);
    }
    Ok(delivered)
}

/// `count` distinct items of `items`, picked by a stream of `seed`.
fn seeded_pick<T: Copy>(items: &[T], count: usize, seed: u64) -> Vec<T> {
    let mut rng = SeededRng::new(seed).derive(0xfa17);
    let mut pool = items.to_vec();
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count && !pool.is_empty() {
        let i = rng.below(pool.len() as u64) as usize;
        picked.push(pool.swap_remove(i));
    }
    picked
}

/// The fabric fail-over phase: cut and then repair each trunk of a seeded
/// set of loaded trunks, each event timed from the handler call to a
/// converged flood.
fn trunk_faults(
    manager: &mut dyn ChannelManager,
    topology: &Topology,
    count: usize,
    seed: u64,
    now: SimTime,
) -> RtResult<FaultPhase> {
    // Only trunks that carry traffic: cutting an idle trunk re-routes
    // nothing and times an empty call.
    let loaded = |a, b| {
        manager.link_load(HopLink::Trunk { from: a, to: b })
            + manager.link_load(HopLink::Trunk { from: b, to: a })
            > 0
    };
    let trunks: Vec<(SwitchId, SwitchId)> =
        topology.trunks().filter(|&(a, b)| loaded(a, b)).collect();
    let mut phase = FaultPhase {
        outcome_hash: FNV_BASIS,
        ..FaultPhase::default()
    };
    for (a, b) in seeded_pick(&trunks, count, seed) {
        let started = Instant::now();
        let cut = manager.handle_link_failure(a, b)?;
        let flood = {
            let _s = span("failover.flood");
            let queued = manager.drain_control();
            pump_control(manager, queued, now)?
        };
        phase.cut_ns.push(nanos(started));
        phase.flood_frames += flood;
        fold(&mut phase.outcome_hash, cut.rerouted.len() as u64);
        fold(&mut phase.outcome_hash, cut.dropped.len() as u64);

        let started = Instant::now();
        let repair = manager.handle_link_repair(a, b)?;
        let flood = {
            let _s = span("failover.flood");
            let queued = manager.drain_control();
            pump_control(manager, queued, now)?
        };
        phase.repair_ns.push(nanos(started));
        phase.flood_frames += flood;
        fold(&mut phase.outcome_hash, repair.rerouted.len() as u64);
    }
    Ok(phase)
}

/// The star's fault phase.  A single-switch star has no trunks, so its
/// only link fault is the loss of a node's access link: every channel from
/// or to the node is torn down through the protocol, and on repair each is
/// requested again through the full handshake.
fn access_link_faults(
    manager: &mut dyn ChannelManager,
    topology: &Topology,
    count: usize,
    seed: u64,
    now: SimTime,
) -> RtResult<FaultPhase> {
    let nodes: Vec<NodeId> = topology.nodes().collect();
    let switch = SwitchId::new(0);
    let mut phase = FaultPhase {
        outcome_hash: FNV_BASIS,
        ..FaultPhase::default()
    };
    for (k, node) in seeded_pick(&nodes, count, seed).into_iter().enumerate() {
        let victims: Vec<(ChannelId, NodeId, NodeId, RtChannelSpec)> = manager
            .channel_ids()
            .into_iter()
            .filter_map(|id| manager.channel_route(id))
            .filter(|v| v.source == node || v.destination == node)
            .map(|v| (v.id, v.source, v.destination, v.spec))
            .collect();

        let started = Instant::now();
        for &(id, source, _, _) in &victims {
            let teardown = Frame::Teardown(TeardownFrame { rt_channel_id: id });
            manager.handle_frame_at(switch, source, &teardown, now)?;
        }
        phase.cut_ns.push(nanos(started));
        fold(&mut phase.outcome_hash, victims.len() as u64);

        let started = Instant::now();
        let mut readmitted = 0u64;
        for (i, &(_, source, destination, spec)) in victims.iter().enumerate() {
            let request_id = ConnectionRequestId::new(((k + i) & 0xff) as u8);
            if establish_star(manager, switch, source, destination, spec, request_id, now)? {
                readmitted += 1;
            }
        }
        phase.repair_ns.push(nanos(started));
        fold(&mut phase.outcome_hash, readmitted);
    }
    Ok(phase)
}

/// One establishment handshake on the star: request, the destination's
/// acceptance, the verdict.  Returns whether the channel was admitted.
fn establish_star(
    manager: &mut dyn ChannelManager,
    switch: SwitchId,
    source: NodeId,
    destination: NodeId,
    spec: RtChannelSpec,
    request_id: ConnectionRequestId,
    now: SimTime,
) -> RtResult<bool> {
    let request: RequestFrame = rt_core::protocol::ChannelRequest {
        source,
        destination,
        spec,
        request_id,
    }
    .to_frame();
    let outcome = manager.handle_frame_at(switch, source, &Frame::Request(request), now)?;
    for (_, action) in outcome.emissions {
        match action {
            SwitchAction::ForwardRequest { to, frame } => {
                let response = Frame::Response(ResponseFrame {
                    rt_channel_id: frame.rt_channel_id,
                    switch_mac: MacAddr::for_switch(),
                    verdict: ResponseVerdict::Accepted,
                    connection_request_id: frame.connection_request_id,
                });
                let answer = manager.handle_frame_at(switch, to, &response, now)?;
                return Ok(answer.emissions.iter().any(|(_, a)| {
                    matches!(a, SwitchAction::SendResponse { frame, .. }
                        if frame.verdict == ResponseVerdict::Accepted)
                }));
            }
            SwitchAction::SendResponse { .. } => return Ok(false),
            SwitchAction::SendControl { .. } => {}
        }
    }
    Err(RtError::ProtocolViolation(
        "star establishment ended without a verdict".into(),
    ))
}

/// Replay the churn's recorded windows on the wire, routed by the
/// workload's router, through the public simulator calls: `next_batch` →
/// `inject_batch` → `run_until` (or `run_to_idle` once the source is
/// exhausted) → `poll_deliveries`.  This is the loop
/// `Simulator::run_with_source` runs, with deliveries drained every window.
/// Checks frame conservation.
pub fn run_wire(
    topology: &Topology,
    router: Arc<dyn Router>,
    churn: &ChurnReport,
    tick: Duration,
) -> RtResult<WirePhase> {
    let mut started = Instant::now();
    let mut sim = Simulator::with_router(SimConfig::default(), topology.clone(), router)?;
    let mut source = ChurnFrameSource::new(churn, tick);
    let mut wire = WirePhase {
        delivery_hash: FNV_BASIS,
        ..WirePhase::default()
    };
    let mut horizon = sim.now() + WIRE_WINDOW;
    loop {
        let now = Instant::now();
        wire.piece_ns.push(now.duration_since(started).as_nanos() as u64);
        started = now;
        let batch = {
            let _s = span("traffic.next_batch");
            source.next_batch(horizon)
        };
        wire.injected += batch.len() as u64;
        {
            let _s = span("netsim.inject_batch");
            sim.inject_batch(batch)?;
        }
        wire.peak_pending = wire.peak_pending.max(sim.events_pending());
        let exhausted = source.is_exhausted();
        {
            let _s = span("netsim.run");
            if exhausted {
                sim.run_to_idle();
            } else {
                sim.run_until(horizon);
            }
        }
        let deliveries = {
            let _s = span("netsim.poll_deliveries");
            sim.poll_deliveries()
        };
        for d in &deliveries {
            wire.delivered += 1;
            if !d.missed_deadline() {
                wire.on_time += 1;
            }
            wire.worst_latency_ns = wire.worst_latency_ns.max(d.latency().as_nanos());
            fold_delivery(&mut wire.delivery_hash, d);
        }
        if exhausted {
            break;
        }
        horizon += WIRE_WINDOW;
    }
    wire.piece_ns.push(nanos(started));

    let stats = sim.stats();
    wire.dropped = stats.be_dropped
        + stats.unroutable_dropped
        + stats.failed_link_dropped
        + stats.released_channel_dropped;
    wire.events = sim.events_processed();
    let arena = sim.arena_stats();
    wire.arena_high_water = arena.high_water;
    wire.arena_fresh = arena.fresh_allocations;

    if sim.injected_count() != wire.injected
        || wire.injected != wire.delivered + wire.dropped
        || stats.rt_delivered != wire.delivered
    {
        return Err(RtError::ProtocolViolation(format!(
            "wire conservation broken: generated {}, simulator injected {}, delivered {} \
             (simulator counted {}), dropped {}",
            wire.injected,
            sim.injected_count(),
            wire.delivered,
            stats.rt_delivered,
            wire.dropped
        )));
    }
    if wire.delivered != wire.injected {
        return Err(RtError::ProtocolViolation(format!(
            "wire lost frames: {} generated, {} delivered",
            wire.injected, wire.delivered
        )));
    }
    if sim.arena_outstanding() != 0 {
        return Err(RtError::ProtocolViolation(format!(
            "{} frame buffers still outstanding after the replay",
            sim.arena_outstanding()
        )));
    }
    Ok(wire)
}

/// The same replay through `Simulator::run_with_source`, as the reference
/// the benchmark's own loop must match: delivery count and delivery hash.
pub fn reference_wire(
    topology: &Topology,
    churn: &ChurnReport,
    tick: Duration,
) -> RtResult<(u64, u64)> {
    let mut sim = Simulator::with_topology(SimConfig::default(), topology.clone())?;
    let mut source = ChurnFrameSource::new(churn, tick);
    sim.run_with_source(&mut source, WIRE_WINDOW)?;
    let deliveries = sim.poll_deliveries();
    let mut hash = FNV_BASIS;
    for d in &deliveries {
        fold_delivery(&mut hash, d);
    }
    Ok((deliveries.len() as u64, hash))
}

/// The normalized churn trace hash of the central twin of the torus
/// workload: the same arrival sequence through `FabricChannelManager`.
pub fn central_twin_hash(workload: &Workload, seed: u64) -> RtResult<u64> {
    let topology = workload.topology()?;
    let mut manager = FabricChannelManager::new(MultiHopAdmission::with_router(
        topology.clone(),
        MultiHopDps::Asymmetric,
        Arc::new(ShortestPathRouter::new()),
    ));
    let process = ChurnProcess::new(workload.churn_config(seed), &topology)?;
    Ok(process.run(&mut manager)?.normalized_trace_hash)
}

/// Time `FeasibilityTester::test_with_candidate` on live per-link task
/// sets (each set's last task stands in as the candidate).  Returns mean
/// nanoseconds per test.
pub fn edf_probe(tasksets: &[TaskSet]) -> f64 {
    let tester = FeasibilityTester::new();
    let loaded: Vec<&TaskSet> = tasksets.iter().filter(|s| !s.tasks().is_empty()).collect();
    if loaded.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut tests = 0u64;
    while tests == 0 || started.elapsed().as_millis() < 200 {
        for set in &loaded {
            let candidate = *set.tasks().last().expect("loaded sets are non-empty");
            std::hint::black_box(tester.test_with_candidate(set, &candidate));
            tests += 1;
        }
    }
    nanos(started) as f64 / tests as f64
}

/// What the two-shard comparison measured on the replay prefix.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardedRow {
    /// Single-thread host time over two-shard host time.
    pub speedup: f64,
    /// Conservative windows the sharded engine executed.
    pub windows: u64,
    /// Delivery tuples of the single-thread run with no equal tuple in
    /// the sharded run.
    pub mismatches: u64,
    /// Frames in the prefix.
    pub frames: u64,
}

/// Replay the churn frames injected before `prefix` (simulated) once on the
/// default single-thread simulator and once on the two-shard
/// `ShardedSimulator`, and compare their deliveries.
pub fn sharded_row(
    topology: &Topology,
    churn: &ChurnReport,
    tick: Duration,
    prefix: SimTime,
) -> RtResult<ShardedRow> {
    let injections = ChurnFrameSource::new(churn, tick).next_batch(prefix);
    let frames = injections.len() as u64;
    type Tuple = (u64, u32, u64, u16);
    let tuples = |deliveries: Vec<Delivery>| -> Vec<Tuple> {
        let mut t: Vec<Tuple> = deliveries
            .iter()
            .map(|d| {
                (
                    d.delivered_at.as_nanos(),
                    d.receiver.get(),
                    d.injected_at.as_nanos(),
                    d.channel.map_or(0, |c| c.get()),
                )
            })
            .collect();
        t.sort_unstable();
        t
    };

    let started = Instant::now();
    let mut single = Simulator::with_topology(SimConfig::default(), topology.clone())?;
    single.inject_batch(injections.clone())?;
    single.run_to_idle();
    let oracle = tuples(single.poll_deliveries());
    let single_ns = nanos(started);

    let started = Instant::now();
    let mut sharded = ShardedSimulator::new(SimConfig::default(), topology.clone(), 2)?;
    sharded.inject_batch(injections)?;
    sharded.run_to_idle();
    let got = tuples(sharded.poll_deliveries());
    let sharded_ns = nanos(started);

    // Multiset difference of two sorted tuple lists.
    let (mut i, mut j, mut mismatches) = (0, 0, 0u64);
    while i < oracle.len() {
        if j < got.len() && got[j] == oracle[i] {
            i += 1;
            j += 1;
        } else if j < got.len() && got[j] < oracle[i] {
            j += 1;
        } else {
            mismatches += 1;
            i += 1;
        }
    }
    Ok(ShardedRow {
        speedup: single_ns as f64 / sharded_ns.max(1) as f64,
        windows: sharded.windows_executed(),
        mismatches,
        frames,
    })
}
