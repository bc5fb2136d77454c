//! Outside-in tracing: an in-memory span recorder plus decorators over the
//! public `ChannelManager` and `Router` traits that time every call into
//! the layer and forward it unchanged.
//!
//! Spans carry a name, start, end, the span that was open when they began
//! (their parent) and the establishment attempt they belong to.  A layer's
//! self time is its span minus its direct children.  Nothing is recorded
//! unless [`start`] was called on this thread, and the decorators are only
//! installed for the traced run, so the untraced run pays nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use rt_core::manager::{
    ChannelManager, ChannelRoute, ControlOutcome, FailoverReport, ReleasedChannel, SwitchAction,
};
use rt_frames::{Frame, RequestFrame, ReservationOp, ResponseFrame};
use rt_types::{
    ChannelId, DenseNextHop, HopLink, NextHopCache, NextHopTable, NodeId, Route, Router, RtResult,
    SimTime, SwitchId, Topology,
};

use crate::alloc::allocations;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name (`layer.operation`).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder started.
    pub start: u64,
    /// End, in nanoseconds since the recorder started.
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root span.
    pub parent: u32,
    /// The establishment attempt the span belongs to (0 before the first).
    pub attempt: u64,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    attempt: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread (discarding any earlier record).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            attempt: 0,
        })
    });
}

/// Stop recording and take the spans recorded since [`start`].
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Mark the start of a new establishment attempt: later spans carry its id.
fn next_attempt() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.attempt += 1;
        }
    });
}

/// An open span; it ends when dropped.
pub struct SpanGuard {
    index: Option<u32>,
}

/// Open a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let index = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        rec.spans.push(Span {
            name,
            start: rec.epoch.elapsed().as_nanos() as u64,
            end: 0,
            parent,
            attempt: rec.attempt,
            allocs: allocations(),
        });
        rec.open.push(index);
        Some(index)
    });
    SpanGuard { index }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let end = rec.epoch.elapsed().as_nanos() as u64;
                let span = &mut rec.spans[index as usize];
                span.end = end;
                span.allocs = allocations().saturating_sub(span.allocs);
                rec.open.pop();
            }
        });
    }
}

/// Per-name totals over a span record.
#[derive(Debug, Default, Clone, Copy)]
pub struct Aggregate {
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the direct children's durations.
    pub self_ns: u64,
    /// Summed allocations (children included).
    pub allocs: u64,
}

impl Aggregate {
    /// Add `other`'s totals to these.
    pub fn merge(&mut self, other: &Aggregate) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.allocs += other.allocs;
    }

    /// Mean duration per call, 0 when the span never ran.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Fold a span record into totals keyed by (root span name, span name):
/// the root tells which phase of the round a call belongs to.
pub fn summarize(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Aggregate> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut root = vec![0u32; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if span.parent == NO_PARENT {
            root[i] = i as u32;
        } else {
            child_ns[span.parent as usize] += span.end - span.start;
            root[i] = root[span.parent as usize];
        }
    }
    let mut out: BTreeMap<(&'static str, &'static str), Aggregate> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let duration = span.end - span.start;
        out.entry((spans[root[i] as usize].name, span.name))
            .or_default()
            .merge(&Aggregate {
                calls: 1,
                total_ns: duration,
                self_ns: duration.saturating_sub(child_ns[i]),
                allocs: span.allocs,
            });
    }
    out
}

/// Write the span record as tab-separated rows, one span per line.
pub fn write_spans(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    writeln!(
        out,
        "index\tname\tstart_ns\tend_ns\tparent\tattempt\tallocs"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.start, s.end, s.attempt, s.allocs
        )?;
    }
    out.flush()
}

/// The span name of a control frame handled by a manager.
fn frame_span(frame: &Frame) -> &'static str {
    match frame {
        Frame::Request(_) => "core.request",
        Frame::Response(_) => "core.response",
        Frame::Teardown(_) => "core.teardown",
        Frame::Reservation(r) => match r.op {
            ReservationOp::Probe => "core.reservation.probe",
            ReservationOp::Reserve => "core.reservation.reserve",
            ReservationOp::Rollback => "core.reservation.rollback",
            ReservationOp::ReserveFailed => "core.reservation.reserve_failed",
            ReservationOp::Confirm => "core.reservation.confirm",
            ReservationOp::Release => "core.reservation.release",
            ReservationOp::LinkState => "core.reservation.link_state",
        },
        Frame::RtData(_) | Frame::BestEffort(_) => "core.other",
    }
}

/// A `ChannelManager` that times every call and forwards it, defaulted
/// methods included, to the wrapped manager.
pub struct TracedManager<'a> {
    inner: &'a mut dyn ChannelManager,
}

impl<'a> TracedManager<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn ChannelManager) -> Self {
        TracedManager { inner }
    }
}

impl fmt::Debug for TracedManager<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TracedManager").field(&self.inner).finish()
    }
}

impl ChannelManager for TracedManager<'_> {
    fn handle_request(&mut self, frame: &RequestFrame) -> RtResult<Vec<SwitchAction>> {
        next_attempt();
        let _s = span("core.request");
        self.inner.handle_request(frame)
    }

    fn handle_response(&mut self, frame: &ResponseFrame) -> RtResult<Vec<SwitchAction>> {
        let _s = span("core.response");
        self.inner.handle_response(frame)
    }

    fn handle_teardown(&mut self, channel: ChannelId) -> RtResult<ReleasedChannel> {
        let _s = span("core.teardown");
        self.inner.handle_teardown(channel)
    }

    fn channel_count(&self) -> usize {
        self.inner.channel_count()
    }

    fn pending_count(&self) -> usize {
        self.inner.pending_count()
    }

    fn channel_ids(&self) -> Vec<ChannelId> {
        self.inner.channel_ids()
    }

    fn channel_route(&self, id: ChannelId) -> Option<ChannelRoute> {
        self.inner.channel_route(id)
    }

    fn link_load(&self, link: HopLink) -> usize {
        self.inner.link_load(link)
    }

    fn schedules_hops(&self) -> bool {
        self.inner.schedules_hops()
    }

    fn handle_link_failure(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        let _s = span("core.failover");
        self.inner.handle_link_failure(from, to)
    }

    fn handle_link_repair(&mut self, from: SwitchId, to: SwitchId) -> RtResult<FailoverReport> {
        let _s = span("core.repair");
        self.inner.handle_link_repair(from, to)
    }

    fn handle_switch_failure(&mut self, switch: SwitchId) -> RtResult<FailoverReport> {
        let _s = span("core.switch_failure");
        self.inner.handle_switch_failure(switch)
    }

    fn handle_frame_at(
        &mut self,
        at: SwitchId,
        from: NodeId,
        frame: &Frame,
        now: SimTime,
    ) -> RtResult<ControlOutcome> {
        if matches!(frame, Frame::Request(_)) {
            next_attempt();
        }
        let _s = span(frame_span(frame));
        self.inner.handle_frame_at(at, from, frame, now)
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.inner.next_timeout()
    }

    fn on_tick(&mut self, now: SimTime) -> RtResult<ControlOutcome> {
        let _s = span("core.on_tick");
        self.inner.on_tick(now)
    }

    fn drain_control(&mut self) -> Vec<(SwitchId, SwitchAction)> {
        let _s = span("core.drain_control");
        self.inner.drain_control()
    }

    fn audit_quiescent(&self) -> RtResult<()> {
        self.inner.audit_quiescent()
    }
}

/// A `Router` that times route derivation and next-hop table builds and
/// forwards every call, defaulted ones included, to the wrapped router.
#[derive(Debug)]
pub struct TracedRouter {
    inner: Arc<dyn Router>,
}

impl TracedRouter {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Router>) -> Self {
        TracedRouter { inner }
    }
}

impl Router for TracedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn validate(&self, topology: &Topology) -> RtResult<()> {
        self.inner.validate(topology)
    }

    fn route(&self, topology: &Topology, source: NodeId, destination: NodeId) -> RtResult<Route> {
        let _s = span("types.route");
        self.inner.route(topology, source, destination)
    }

    fn next_hop_cache(&self) -> Option<&NextHopCache> {
        self.inner.next_hop_cache()
    }

    fn next_hop_table(&self, topology: &Topology) -> Arc<NextHopTable> {
        let _s = span("types.next_hop");
        self.inner.next_hop_table(topology)
    }

    fn dense_next_hop(&self, topology: &Topology) -> Arc<DenseNextHop> {
        let _s = span("types.next_hop");
        self.inner.dense_next_hop(topology)
    }

    fn routes(
        &self,
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
    ) -> RtResult<Vec<Route>> {
        let _s = span("types.route");
        self.inner.routes(topology, source, destination)
    }
}
