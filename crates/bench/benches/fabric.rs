//! Micro-bench: fabric event throughput, heap vs. calendar scheduler, and
//! the sharded simulator's shard sweep.
//!
//! Four fabrics at two scales — the 16-node star / 4-switch tree / 4-switch
//! ring baselines of the earlier PRs, plus the 64-switch / 1024-node torus
//! (`FabricScenario::torus(8, 8, 8, 8)`) that is the point of the
//! calendar-queue scheduler.  Every fabric is driven on both schedulers
//! with the *identical* pre-generated workload.  The workload is injected
//! up front (`inject_batch`), so the pending-event population is
//! proportional to the frame count — exactly the regime where the heap's
//! O(log n) cache-hostile operations dominate and the calendar queue's O(1)
//! bucket operations pay off.  Every run must deliver every frame, so the
//! comparison can never drift semantically.
//!
//! Rows keep the bare fabric names the trajectory has always used
//! (`star/heap`, …); the torus shard sweep rides along under `+shards{N}`
//! fabric suffixes, each row carrying the conservative windows it ran.
//!
//! The run closes with the routing microbench: rebuild-after-cut latency
//! and resident routing bytes on the 1280-switch `fat_tree(32)`, one row
//! per mode (from-scratch, incremental, structural), cross-checked
//! entry-for-entry before any number is reported.
//!
//! The run always dumps its numbers as `BENCH_fabric.json` (via the in-repo
//! JSON encoder) so CI can archive the throughput trajectory per PR and
//! `bench_diff` can flag regressions; set `BENCH_FABRIC_JSON` to override
//! the path.

use std::time::Instant;

use rt_bench::report::{json_object, write_artifact, ToJson};
use rt_netsim::{SchedulerKind, ShardedSimulator, SimConfig, Simulator};
use rt_traffic::{FabricScenario, ScenarioFrameSource};
use rt_types::{Duration, NextHopCache, Topology};

/// Shard counts swept on the scaling fabric (the sharded simulator is
/// pointless on the millisecond-scale baselines).  `1` measures the pure
/// coordinator/windowing overhead against the single-thread calendar row.
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One fabric workload: a topology and a frame schedule.
struct Workload {
    name: &'static str,
    topology: Topology,
    nodes: u32,
    frames: u64,
    /// Injection spacing; small spacing at high frame counts is what keeps
    /// tens of thousands of events pending at once.
    spacing: Duration,
    source: ScenarioFrameSource,
}

impl Workload {
    fn new(
        name: &'static str,
        scenario: FabricScenario,
        frames: u64,
        spacing: Duration,
    ) -> Workload {
        Workload {
            name,
            topology: scenario.topology(),
            nodes: scenario.node_count(),
            frames,
            spacing,
            // Small payloads keep frame construction and delivery cloning
            // cheap, so the measurement weighs the event loop, not memcpy.
            source: ScenarioFrameSource::new(scenario, frames, spacing).payload_len(64),
        }
    }
}

fn workloads() -> Vec<Workload> {
    vec![
        // The historical baselines (star = 1 switch, tree = 4-switch line,
        // ring = the line closed), 16 nodes each.
        Workload::new(
            "star",
            FabricScenario::line(1, 8, 8),
            4_000,
            Duration::from_micros(2),
        ),
        Workload::new(
            "tree",
            FabricScenario::line(4, 2, 2),
            4_000,
            Duration::from_micros(2),
        ),
        Workload::new(
            "ring",
            FabricScenario::ring(4, 2, 2),
            4_000,
            Duration::from_micros(2),
        ),
        // The scaling fabric: 64 switches, 1024 nodes, 2M frames injected
        // up front -> a seven-figure pending-event population, which is
        // where the heap's O(log n) cache-hostile operations collapse (its
        // ~64 MB of heap array also evicts the simulator's working set)
        // while the calendar queue keeps its O(1) bucket operations.
        Workload::new(
            "torus_8x8_1024",
            FabricScenario::torus(8, 8, 8, 8),
            2_000_000,
            Duration::from_nanos(500),
        ),
    ]
}

struct DriveOutcome {
    events: u64,
    delivered: u64,
    elapsed_ns: u64,
    /// Conservative windows executed (sharded runs only).
    windows_executed: Option<u64>,
}

/// Run one workload on one scheduler: build the fabric, inject the whole
/// pre-generated batch, drain.  Only the simulation (not the frame
/// generation) is timed.
fn drive(workload: &Workload, scheduler: SchedulerKind) -> DriveOutcome {
    let config = SimConfig {
        scheduler,
        ..SimConfig::default()
    };
    let mut sim = Simulator::with_topology(config, workload.topology.clone())
        .expect("bench fabrics are valid");
    let batch = workload.source.clone().drain_all();
    let start = Instant::now();
    sim.inject_batch(batch).expect("bench injections are valid");
    sim.run_to_idle();
    let elapsed = start.elapsed();
    DriveOutcome {
        events: sim.events_processed(),
        delivered: sim.poll_deliveries().len() as u64,
        elapsed_ns: elapsed.as_nanos() as u64,
        windows_executed: None,
    }
}

/// [`drive`] on the sharded simulator: same pre-generated batch, calendar
/// scheduler, `shards` worker threads under the default (BFS-regions)
/// partition.
fn drive_sharded(workload: &Workload, shards: usize) -> DriveOutcome {
    let config = SimConfig {
        scheduler: SchedulerKind::Calendar,
        ..SimConfig::default()
    };
    let mut sim = ShardedSimulator::new(config, workload.topology.clone(), shards)
        .expect("bench fabrics satisfy the lookahead bound");
    let batch = workload.source.clone().drain_all();
    let start = Instant::now();
    sim.inject_batch(batch).expect("bench injections are valid");
    sim.run_to_idle();
    let elapsed = start.elapsed();
    DriveOutcome {
        events: sim.events_processed(),
        delivered: sim.poll_deliveries().len() as u64,
        elapsed_ns: elapsed.as_nanos() as u64,
        windows_executed: Some(sim.windows_executed()),
    }
}

/// One (fabric, scheduler) measurement, encoded with the in-repo encoder.
/// `fabric` carries the `+shards{N}` suffix for the sharded rows (see the
/// module docs), which also record their conservative windows.
struct ThroughputRow {
    fabric: String,
    scheduler: &'static str,
    nodes: u32,
    frames: u64,
    spacing_ns: u64,
    events: u64,
    elapsed_ns: u64,
    events_per_second: f64,
    events_per_frame: f64,
    windows_executed: Option<u64>,
}

impl ThroughputRow {
    fn new(
        fabric: String,
        scheduler: &'static str,
        workload: &Workload,
        run: &DriveOutcome,
    ) -> Self {
        ThroughputRow {
            fabric,
            scheduler,
            nodes: workload.nodes,
            frames: workload.frames,
            spacing_ns: workload.spacing.as_nanos(),
            events: run.events,
            elapsed_ns: run.elapsed_ns,
            events_per_second: run.events as f64 / (run.elapsed_ns as f64 / 1e9),
            events_per_frame: run.events as f64 / workload.frames as f64,
            windows_executed: run.windows_executed,
        }
    }
}

impl ToJson for ThroughputRow {
    fn to_json(&self) -> String {
        let mut fields = vec![
            ("fabric", self.fabric.to_json()),
            ("scheduler", self.scheduler.to_json()),
            ("nodes", self.nodes.to_json()),
            ("frames", self.frames.to_json()),
            ("spacing_ns", self.spacing_ns.to_json()),
            ("events", self.events.to_json()),
            ("elapsed_ns", self.elapsed_ns.to_json()),
            ("events_per_second", self.events_per_second.to_json()),
            ("events_per_frame", self.events_per_frame.to_json()),
        ];
        if let Some(windows) = self.windows_executed {
            fields.push(("windows_executed", windows.to_json()));
        }
        json_object(&fields)
    }
}

/// One routing-mode measurement on the datacenter fabric: how long it takes
/// to recover a servable routing state after a single trunk cut, and how
/// many bytes of routing state stay resident at steady state.
struct RoutingRow {
    fabric: &'static str,
    /// `full` (from-scratch per-destination BFS, the pre-incremental
    /// baseline), `incremental` (single-delta column repair from the
    /// previous table) or `structural` (closed-form next hops + sparse
    /// detour overlay).
    mode: &'static str,
    switches: u32,
    rebuild_ns: u64,
    table_bytes: u64,
}

impl ToJson for RoutingRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("fabric", self.fabric.to_json()),
            ("mode", self.mode.to_json()),
            ("switches", self.switches.to_json()),
            ("rebuild_ns", self.rebuild_ns.to_json()),
            ("table_bytes", self.table_bytes.to_json()),
        ])
    }
}

/// A heterogeneous artifact row: the throughput sweep and the routing
/// microbench share one `BENCH_fabric.json`, keyed apart by field presence
/// (`events_per_second` vs `rebuild_ns`).
enum Row {
    Throughput(ThroughputRow),
    Routing(RoutingRow),
}

impl ToJson for Row {
    fn to_json(&self) -> String {
        match self {
            Row::Throughput(r) => r.to_json(),
            Row::Routing(r) => r.to_json(),
        }
    }
}

/// The routing microbench: rebuild-after-cut latency and resident routing
/// bytes on `fat_tree(32)` (1280 switches), one row per mode.
///
/// All three modes are checked entry-for-entry identical on the degraded
/// fabric before any number is reported, so the speed-ups can never come
/// from answering a different routing question.  The in-binary asserts pin
/// the two claims the trajectory gates: the incremental repair beats the
/// from-scratch rebuild by >=10x, and structural steady-state routing
/// memory is O(V), orders of magnitude under the O(V^2) table.
fn routing_rows() -> Vec<Row> {
    const FABRIC: &str = "fat_tree_32";
    const RUNS: usize = 3;
    let healthy = Topology::fat_tree(32).expect("k=32 is a valid fat tree");
    let switches = healthy.switches().count() as u32;
    let (a, b) = healthy.trunks().next().expect("fat tree has trunks");
    let mut degraded = healthy.clone();
    degraded.fail_trunk(a, b).expect("trunk exists");

    // From-scratch baseline: a cold cache on the degraded fabric pays one
    // per-destination BFS sweep — exactly what every fingerprint flip cost
    // before the incremental path existed.
    let mut full_ns = u64::MAX;
    let mut full_bytes = 0u64;
    let mut full_dense = None;
    for _ in 0..RUNS {
        let cache = NextHopCache::new();
        let start = Instant::now();
        let dense = cache.get_dense(&degraded);
        full_ns = full_ns.min(start.elapsed().as_nanos() as u64);
        assert_eq!(cache.stats().full_rebuilds, 1);
        full_bytes = dense.resident_bytes() as u64;
        full_dense = Some(dense);
    }
    let full_dense = full_dense.expect("at least one run happened");

    // Incremental: prime the cache on the healthy fabric (untimed), then
    // time the single-cut repair.
    let mut incremental_ns = u64::MAX;
    let mut incremental_bytes = 0u64;
    for _ in 0..RUNS {
        let cache = NextHopCache::new();
        cache.get_dense(&healthy);
        let start = Instant::now();
        let dense = cache.get_dense(&degraded);
        incremental_ns = incremental_ns.min(start.elapsed().as_nanos() as u64);
        let stats = cache.stats();
        assert_eq!(stats.incremental_rebuilds, 1, "the cut is a single delta");
        assert_eq!(stats.full_rebuilds, 1, "only the healthy prime is full");
        incremental_bytes = dense.resident_bytes() as u64;
        for t in 0..switches {
            for s in 0..switches {
                assert_eq!(
                    dense.next_hop_index(s, t),
                    full_dense.next_hop_index(s, t),
                    "incremental repair must be byte-identical at ({s}, {t})"
                );
            }
        }
    }

    // Structural: closed-form next hops, no table at all while healthy; a
    // cut only costs the sparse detour overlay.
    let mut structural_ns = u64::MAX;
    let mut structural_bytes = 0u64;
    for _ in 0..RUNS {
        let cache = NextHopCache::structural();
        let dense = cache.get_dense(&healthy);
        structural_bytes = dense.resident_bytes() as u64;
        let start = Instant::now();
        let dense = cache.get_dense(&degraded);
        structural_ns = structural_ns.min(start.elapsed().as_nanos() as u64);
        let stats = cache.stats();
        assert_eq!(
            stats.full_rebuilds, 0,
            "structural mode never builds a table"
        );
        assert_eq!(stats.incremental_rebuilds, 0);
        for t in 0..switches {
            for s in 0..switches {
                assert_eq!(
                    dense.next_hop_index(s, t),
                    full_dense.next_hop_index(s, t),
                    "structural detour must be byte-identical at ({s}, {t})"
                );
            }
        }
    }

    assert!(
        full_ns >= 10 * incremental_ns,
        "incremental repair must beat the from-scratch rebuild >=10x \
         (full {full_ns} ns vs incremental {incremental_ns} ns)"
    );
    assert!(
        structural_bytes * 50 < full_bytes,
        "structural routing state must be O(V), far under the O(V^2) table \
         ({structural_bytes} B vs {full_bytes} B)"
    );

    println!("routing rebuild-after-cut on {FABRIC} ({switches} switches):");
    for (mode, ns, bytes) in [
        ("full", full_ns, full_bytes),
        ("incremental", incremental_ns, incremental_bytes),
        ("structural", structural_ns, structural_bytes),
    ] {
        println!(
            "{:<22} {:<12} rebuild {:>9.3} ms, resident {:>10} B ({:.1}x vs full rebuild)",
            FABRIC,
            mode,
            ns as f64 / 1e6,
            bytes,
            full_ns as f64 / ns as f64,
        );
    }
    println!();

    [
        ("full", full_ns, full_bytes),
        ("incremental", incremental_ns, incremental_bytes),
        ("structural", structural_ns, structural_bytes),
    ]
    .into_iter()
    .map(|(mode, rebuild_ns, table_bytes)| {
        Row::Routing(RoutingRow {
            fabric: FABRIC,
            mode,
            switches,
            rebuild_ns,
            table_bytes,
        })
    })
    .collect()
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    println!("fabric event throughput: heap vs calendar scheduler, shard sweep");
    println!("(workloads injected up front; identical frame sequences per fabric)\n");
    for workload in workloads() {
        // Keep the fastest of several runs (the usual micro-bench "least
        // disturbed run" summary); correctness is checked on every run.
        // The millisecond-scale fabrics get extra samples because they are
        // the ones shared-CI noise can swing past the bench_diff gate; the
        // multi-second torus is dominated by its own working set and stays
        // at two.
        let runs = if workload.frames > 100_000 { 2 } else { 5 };
        let best_of = |fabric: &str, drive: &dyn Fn() -> DriveOutcome| {
            let mut best: Option<DriveOutcome> = None;
            for _ in 0..runs {
                let outcome = drive();
                assert_eq!(
                    outcome.delivered, workload.frames,
                    "{fabric}: every injected frame must be delivered"
                );
                best = match best {
                    Some(b) if b.elapsed_ns <= outcome.elapsed_ns => Some(b),
                    _ => Some(outcome),
                };
            }
            best.expect("at least one run happened")
        };
        // heap, calendar.
        let mut per_second = [0.0f64; 2];
        for (i, scheduler) in [SchedulerKind::Heap, SchedulerKind::Calendar]
            .into_iter()
            .enumerate()
        {
            let outcome = best_of(workload.name, &|| drive(&workload, scheduler));
            let row = ThroughputRow::new(
                workload.name.to_string(),
                scheduler.name(),
                &workload,
                &outcome,
            );
            per_second[i] = row.events_per_second;
            println!(
                "{:<22} {:<8} {:>8} events in {:>7.1} ms -> {:>6.2} M events/s, {:>5.1} events/frame",
                workload.name,
                scheduler.name(),
                outcome.events,
                outcome.elapsed_ns as f64 / 1e6,
                row.events_per_second / 1e6,
                row.events_per_frame,
            );
            rows.push(Row::Throughput(row));
        }
        println!(
            "{:<22} calendar/heap speed-up: {:.2}x\n",
            workload.name,
            per_second[1] / per_second[0],
        );

        // The shard sweep: the conservative-windowed parallel simulator on
        // the scaling fabric, one row per shard count under a
        // `+shards{N}` fabric suffix (scheduler stays `calendar` — the
        // sharded path supports nothing else).  `bench_diff` gates the best
        // sharded row, so a regression in the parallel path fails CI even
        // when the single-thread rows hold.
        if workload.name == "torus_8x8_1024" {
            for shards in SHARD_SWEEP {
                let fabric = format!("{}+shards{}", workload.name, shards);
                let outcome = best_of(&fabric, &|| drive_sharded(&workload, shards));
                let row = ThroughputRow::new(fabric, "calendar", &workload, &outcome);
                println!(
                    "{:<22} {:<8} {:>8} events in {:>7.1} ms -> {:>6.2} M events/s, {:.2}x vs calendar, {} windows",
                    row.fabric,
                    "calendar",
                    outcome.events,
                    outcome.elapsed_ns as f64 / 1e6,
                    row.events_per_second / 1e6,
                    row.events_per_second / per_second[1],
                    outcome.windows_executed.unwrap_or(0),
                );
                rows.push(Row::Throughput(row));
            }
            println!();
        }
    }

    rows.extend(routing_rows());

    write_artifact("BENCH_FABRIC_JSON", "BENCH_fabric.json", &rows);
}
