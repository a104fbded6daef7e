//! Benchmark-side span tracer.
//!
//! Spans are opened and closed by the benchmark around each call it makes
//! into a HYDRA crate's public API; nothing inside the program is
//! instrumented. When the tracer is off every method returns at its first
//! branch, so untraced runs pay one predictable branch per boundary.
//!
//! Every closed span is folded into a per-name aggregate (calls, total
//! and self time, where self time is the span's duration minus the time
//! its child spans cover). The raw spans (name, start, end, parent) are
//! also kept in memory up to [`SPAN_LOG_CAP`] entries and written out when
//! the benchmark ends; aggregates always cover every span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the on-exit span log. Aggregates are exact past it.
pub const SPAN_LOG_CAP: usize = 200_000;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    /// Span name, `<layer>.<call>`.
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the log, if it was logged.
    parent: Option<u32>,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    log_idx: Option<u32>,
}

/// The tracer; see the module documentation.
pub struct Tracer {
    on: bool,
    t0: Instant,
    stack: Vec<Open>,
    agg: BTreeMap<&'static str, Agg>,
    log: Vec<SpanRec>,
    log_dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            stack: Vec::new(),
            agg: BTreeMap::new(),
            log: Vec::new(),
            log_dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let log_idx = if self.log.len() < SPAN_LOG_CAP {
            let parent = self.stack.last().and_then(|o| o.log_idx);
            self.log.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            Some((self.log.len() - 1) as u32)
        } else {
            self.log_dropped += 1;
            None
        };
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            log_idx,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: enter/exit pairs are unbalanced.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("tracer exit without enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(i) = open.log_idx {
            self.log[i as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let a = self.agg.entry(open.name).or_default();
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// The aggregate for one span name (zero when never closed).
    pub fn agg(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Summed self time of every span whose name starts with `prefix`.
    pub fn self_ns_under(&self, prefix: &str) -> u64 {
        self.agg
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, a)| a.self_ns)
            .sum()
    }

    /// The span log as JSON: `{"dropped": n, "spans": [[name, start_ns,
    /// end_ns, parent], ...]}` with `parent` an index into `spans` or
    /// `null`.
    pub fn log_json(&self) -> String {
        let mut out = String::with_capacity(self.log.len() * 48 + 64);
        let _ = write!(out, "{{\"dropped\": {}, \"spans\": [", self.log_dropped);
        for (i, s) in self.log.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "[\"{}\", {}, {}, {}]",
                s.name, s.start_ns, s.end_ns, parent
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.enter("a.b");
        t.exit();
        assert_eq!(t.agg("a.b"), Agg::default());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.enter("outer.x");
        t.span("inner.y", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let outer = t.agg("outer.x");
        let inner = t.agg("inner.y");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(t.log_json().contains("[\"inner.y\""));
    }
}
