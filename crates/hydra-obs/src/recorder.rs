//! The [`Recorder`]: a clonable handle to a metrics registry.
//!
//! Every instrumentation point in the runtime holds a clone of one
//! `Recorder`; all clones feed the same registry. The handle is cheap to
//! clone (an `Arc`) and interior-mutable, so instrumented code does not
//! need `&mut` plumbing.
//!
//! # Determinism
//!
//! Nothing in here reads the wall clock. Span timestamps are the
//! simulation instants the caller passes in, span "durations" are modeled
//! work units supplied by the caller, and all iteration for snapshots runs
//! over `BTreeMap`s so two identical executions render byte-identical
//! reports.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use hydra_sim::time::SimTime;

use crate::histogram::Histogram;
use crate::snapshot::{
    CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, SpanSample, TraceEventSample,
};
use crate::timeline::{WindowLevelSample, WindowSample, WindowTrackSample};
use crate::trace::{FlightRecorder, TraceCtx};

/// Identifier of a recorded span, usable as a parent for child spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One completed span: a named step with a sim-time stamp and a modeled
/// amount of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Sequence number (record order).
    pub seq: u64,
    /// The parent span, for per-item child spans.
    pub parent: Option<SpanId>,
    /// Static span name, e.g. `"deploy.solve"`.
    pub name: &'static str,
    /// Instance label, e.g. a bind name or GUID.
    pub label: String,
    /// Simulation instant the step ran at.
    pub at: SimTime,
    /// Modeled work units attributed to the step. Simulation time does
    /// not advance inside the deployment pipeline, so spans carry work
    /// units instead of elapsed-time durations.
    pub work_units: u64,
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<(&'static str, String), u64>,
    gauges: BTreeMap<(&'static str, String), u64>,
    levels: BTreeMap<(&'static str, String), u64>,
    histograms: BTreeMap<(&'static str, String), Histogram>,
    spans: Vec<SpanRecord>,
    flight: FlightRecorder,
    windows: Vec<WindowSample>,
    window_base: BTreeMap<(&'static str, String), u64>,
}

/// A clonable handle to a shared metrics registry.
///
/// # Examples
///
/// ```
/// use hydra_obs::Recorder;
/// use hydra_sim::time::SimTime;
///
/// let rec = Recorder::new();
/// rec.counter_add("demo.events", "alpha", 2);
/// rec.observe("demo.size", "alpha", 100);
/// let root = rec.span("demo.step", "run-1", SimTime::ZERO, 10);
/// rec.child_span(root, "demo.substep", "item", SimTime::ZERO, 3);
/// let snap = rec.snapshot();
/// assert_eq!(snap.counter("demo.events", "alpha"), Some(2));
/// assert_eq!(snap.spans.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<Registry>>,
}

impl Recorder {
    /// A fresh recorder with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        f(&mut self.inner.lock().expect("recorder registry poisoned"))
    }

    /// Adds `delta` to the counter `name{label}`.
    pub fn counter_add(&self, name: &'static str, label: &str, delta: u64) {
        self.with(|r| {
            *r.counters.entry((name, label.to_owned())).or_insert(0) += delta;
        });
    }

    /// Increments the counter `name{label}` by one.
    pub fn counter_incr(&self, name: &'static str, label: &str) {
        self.counter_add(name, label, 1);
    }

    /// Raises the high-water gauge `name{label}` to `value` if larger.
    pub fn gauge_max(&self, name: &'static str, label: &str, value: u64) {
        self.with(|r| {
            let g = r.gauges.entry((name, label.to_owned())).or_insert(0);
            *g = (*g).max(value);
        });
    }

    /// Sets the instantaneous level track `name{label}` (queue depth,
    /// ring occupancy). Unlike [`Recorder::gauge_max`], levels move both
    /// ways; the [`Sampler`](crate::Sampler) reads them at each window's
    /// closing edge.
    pub fn level_set(&self, name: &'static str, label: &str, value: u64) {
        self.with(|r| {
            *r.levels.entry((name, label.to_owned())).or_insert(0) = value;
        });
    }

    /// Raises the level track `name{label}` by `delta`.
    pub fn level_add(&self, name: &'static str, label: &str, delta: u64) {
        self.with(|r| {
            *r.levels.entry((name, label.to_owned())).or_insert(0) += delta;
        });
    }

    /// Lowers the level track `name{label}` by `delta`, saturating at 0.
    pub fn level_sub(&self, name: &'static str, label: &str, delta: u64) {
        self.with(|r| {
            let l = r.levels.entry((name, label.to_owned())).or_insert(0);
            *l = l.saturating_sub(delta);
        });
    }

    /// Closes one telemetry window at sim instant `at`: records every
    /// counter's delta since the previous window plus the current value
    /// of every level track. Normally called by an installed
    /// [`Sampler`](crate::Sampler) tick, not by hand.
    pub fn sample_window(&self, at: SimTime) {
        self.with(|r| {
            let index = r.windows.len() as u64;
            let start_nanos = r.windows.last().map_or(0, |w| w.end_nanos);
            let mut counters = Vec::new();
            for (key, &value) in &r.counters {
                let base = r.window_base.get(key).copied().unwrap_or(0);
                if value != base {
                    counters.push(WindowTrackSample {
                        name: key.0,
                        label: key.1.clone(),
                        delta: value - base,
                        total: value,
                    });
                }
            }
            r.window_base = r.counters.clone();
            let levels = r
                .levels
                .iter()
                .map(|(&(name, ref label), &value)| WindowLevelSample {
                    name,
                    label: label.clone(),
                    value,
                })
                .collect();
            r.windows.push(WindowSample {
                index,
                start_nanos,
                end_nanos: at.as_nanos(),
                counters,
                levels,
            });
        });
    }

    /// Records one observation in the histogram `name{label}`.
    pub fn observe(&self, name: &'static str, label: &str, value: u64) {
        self.with(|r| {
            r.histograms
                .entry((name, label.to_owned()))
                .or_default()
                .record(value);
        });
    }

    /// Records a root span.
    pub fn span(
        &self,
        name: &'static str,
        label: impl Into<String>,
        at: SimTime,
        work_units: u64,
    ) -> SpanId {
        self.record_span(None, name, label.into(), at, work_units)
    }

    /// Records a span nested under `parent`.
    pub fn child_span(
        &self,
        parent: SpanId,
        name: &'static str,
        label: impl Into<String>,
        at: SimTime,
        work_units: u64,
    ) -> SpanId {
        self.record_span(Some(parent), name, label.into(), at, work_units)
    }

    fn record_span(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        label: String,
        at: SimTime,
        work_units: u64,
    ) -> SpanId {
        self.with(|r| {
            let seq = r.spans.len() as u64;
            r.spans.push(SpanRecord {
                seq,
                parent,
                name,
                label,
                at,
                work_units,
            });
            SpanId(seq)
        })
    }

    /// Adds `extra` work units to an already-recorded span (for stages
    /// whose cost is only known after their children ran).
    pub fn add_span_work(&self, id: SpanId, extra: u64) {
        self.with(|r| {
            if let Some(s) = r.spans.get_mut(id.0 as usize) {
                s.work_units += extra;
            }
        });
    }

    /// Resizes the flight-recorder ring (events evicted by a shrink count
    /// as dropped, so the loss stays visible).
    pub fn set_flight_capacity(&self, capacity: usize) {
        self.with(|r| r.flight.set_capacity(capacity));
    }

    /// The flight recorder's configured capacity.
    pub fn flight_capacity(&self) -> usize {
        self.with(|r| r.flight.capacity())
    }

    /// Starts a new causal trace with a root *send* event, returning the
    /// [`TraceCtx`] to stamp onto the in-flight message.
    pub fn trace_begin(
        &self,
        name: &'static str,
        label: &str,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) -> TraceCtx {
        self.with(|r| r.flight.begin(name, label.to_owned(), device, at, bytes))
    }

    /// Records an intermediate *hop* (provider queue, DMA descriptor ring,
    /// device firmware step) continuing `ctx`; returns the advanced
    /// context.
    pub fn trace_hop(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        label: &str,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) -> TraceCtx {
        self.with(|r| r.flight.hop(ctx, name, label.to_owned(), device, at, bytes))
    }

    /// Closes `ctx` with a *recv* event; returns the context positioned at
    /// the recv so post-receive device work can keep chaining.
    pub fn trace_recv(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        label: &str,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) -> TraceCtx {
        self.with(|r| {
            r.flight
                .recv(ctx, name, label.to_owned(), device, at, bytes)
        })
    }

    /// Closes `ctx` with a *drop* event (message lost or rejected).
    pub fn trace_drop(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        label: &str,
        device: u64,
        at: SimTime,
        bytes: u64,
    ) {
        self.with(|r| {
            r.flight
                .drop_event(ctx, name, label.to_owned(), device, at, bytes);
        });
    }

    /// Renders an ordering-stable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with(|r| MetricsSnapshot {
            counters: r
                .counters
                .iter()
                .map(|(&(name, ref label), &value)| CounterSample {
                    name,
                    label: label.clone(),
                    value,
                })
                .collect(),
            gauges: r
                .gauges
                .iter()
                .map(|(&(name, ref label), &value)| GaugeSample {
                    name,
                    label: label.clone(),
                    value,
                })
                .collect(),
            histograms: r
                .histograms
                .iter()
                .map(|(&(name, ref label), h)| HistogramSample {
                    name,
                    label: label.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    buckets: h.nonzero_buckets(),
                })
                .collect(),
            spans: r
                .spans
                .iter()
                .map(|s| SpanSample {
                    seq: s.seq,
                    parent: s.parent.map(|p| p.0),
                    name: s.name,
                    label: s.label.clone(),
                    at_nanos: s.at.as_nanos(),
                    work_units: s.work_units,
                })
                .collect(),
            events: r
                .flight
                .events()
                .map(|e| TraceEventSample {
                    id: e.id.0,
                    trace: e.trace.0,
                    parent: e.parent.map(|p| p.0),
                    kind: e.kind.as_str(),
                    name: e.name,
                    label: e.label.clone(),
                    device: e.device,
                    at_nanos: e.at.as_nanos(),
                    bytes: e.bytes,
                })
                .collect(),
            events_dropped: r.flight.dropped(),
            windows: r.windows.clone(),
            channels: Vec::new(),
        })
    }

    /// Clears the registry (e.g. between benchmark iterations). The
    /// flight recorder's configured capacity survives the reset.
    pub fn reset(&self) {
        self.with(|r| {
            let cap = r.flight.capacity();
            *r = Registry::default();
            r.flight.set_capacity(cap);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_registry() {
        let a = Recorder::new();
        let b = a.clone();
        a.counter_incr("c", "x");
        b.counter_incr("c", "x");
        assert_eq!(a.snapshot().counter("c", "x"), Some(2));
    }

    #[test]
    fn gauge_keeps_high_water() {
        let r = Recorder::new();
        r.gauge_max("g", "", 5);
        r.gauge_max("g", "", 3);
        r.gauge_max("g", "", 9);
        assert_eq!(r.snapshot().gauge("g", ""), Some(9));
    }

    #[test]
    fn spans_nest_and_accumulate_work() {
        let r = Recorder::new();
        let root = r.span("root", "", SimTime::ZERO, 0);
        let child = r.child_span(root, "child", "i0", SimTime::from_micros(5), 7);
        r.add_span_work(root, 7);
        let snap = r.snapshot();
        assert_eq!(snap.spans[0].work_units, 7);
        assert_eq!(snap.spans[1].parent, Some(root.0));
        assert_eq!(snap.spans[1].seq, child.0);
        assert_eq!(snap.spans[1].at_nanos, 5_000);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Recorder::new();
        r.counter_incr("c", "x");
        r.observe("h", "x", 1);
        r.span("s", "", SimTime::ZERO, 1);
        r.trace_begin("t", "", 0, SimTime::ZERO, 0);
        r.set_flight_capacity(7);
        r.reset();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty() && snap.spans.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(snap.events_dropped, 0);
        assert_eq!(r.flight_capacity(), 7, "capacity survives reset");
    }

    #[test]
    fn trace_chain_lands_in_snapshot() {
        let r = Recorder::new();
        let ctx = r.trace_begin("channel.send", "dma", 0, SimTime::ZERO, 64);
        let ctx = r.trace_hop(ctx, "provider.ring", "dma", 1, SimTime::from_micros(2), 64);
        r.trace_recv(ctx, "channel.recv", "dma", 1, SimTime::from_micros(4), 64);
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events[0].kind, "send");
        assert_eq!(snap.events[1].parent, Some(snap.events[0].id));
        assert_eq!(snap.events[2].parent, Some(snap.events[1].id));
        assert_eq!(snap.events[2].at_nanos, 4_000);
    }

    #[test]
    fn flight_overflow_is_visible_in_snapshot() {
        let r = Recorder::new();
        r.set_flight_capacity(2);
        for _ in 0..5 {
            r.trace_begin("e", "", 0, SimTime::ZERO, 0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events_dropped, 3);
    }
}
