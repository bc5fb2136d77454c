//! # rt-netsim
//!
//! A deterministic discrete-event simulator of the network architecture in
//! §18.1 of the paper: a single store-and-forward full-duplex switched
//! Ethernet switch in a star topology with end nodes attached, each output
//! port (in the end-node NICs and in the switch) holding a deadline-sorted
//! real-time queue and a FCFS best-effort queue (Figure 18.2).
//!
//! The simulator stands in for the physical 100 Mbit/s Ethernet testbed the
//! paper assumes: transmission times are derived from frame sizes and the
//! configured link speed, propagation delay and switch latency are constant
//! per-hop terms (the paper's `T_latency`), and all queueing decisions are
//! made exactly as the RT layer prescribes — EDF among real-time frames,
//! strict priority of real-time over best-effort, FCFS among best-effort
//! frames.
//!
//! Modules:
//! * [`event`] — the simulation clock and the pluggable event scheduler
//!   (binary-heap reference vs. calendar queue),
//! * [`port`] — the dual-queue (RT + best effort) output port model,
//! * `engine` (crate-private) — the per-event port engine both simulators
//!   run,
//! * [`sim`] — the single-thread simulator: topology wiring, injection,
//!   faults, frame delivery,
//! * [`shard`] — the sharded simulator: the same engine over conservative
//!   time windows on worker threads,
//! * [`stats`] — latency / deadline-miss / utilisation accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod event;
pub mod port;
pub mod shard;
pub mod sim;
pub mod stats;

pub use event::{
    CalendarScheduler, Event, EventQueue, EventScheduler, HeapScheduler, SchedulerKind,
};
pub use port::{OutputPort, QueuedFrame, TrafficClass};
pub use shard::ShardedSimulator;
pub use sim::{
    Delivery, FaultScript, FrameId, FrameInjection, LinkFault, SimConfig, Simulator, TrafficSource,
};
pub use stats::{ChannelStats, LinkStats, SimStats};
