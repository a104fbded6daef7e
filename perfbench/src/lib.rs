//! End-to-end and per-layer wall-clock benchmark for the HYDRA
//! reproduction. See `perfbench/README.md` for the metric catalog, the
//! workloads and why each exists.
//!
//! A run executes one workload in rounds of fixed-size work until its
//! time budget is spent (closed loop in host time), checks every round's
//! outputs, and reports run-wide throughput and percentiles over
//! operations, in host time scaled to reference machine speed. A traced run
//! first repeats the workload untraced, then runs the same number of
//! rounds again with benchmark-side spans around each call into a HYDRA
//! crate, so the per-layer numbers and the tracing overhead come from
//! identical work.

pub mod churn;
pub mod layers;
pub mod stats;
pub mod stream;
pub mod tivo;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use hydra_core::device::{DeviceDescriptor, DeviceRegistry};
use trace::Tracer;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["tivo_paper", "runtime_stream", "control_churn"];

/// Operation times kept per run for the percentiles.
pub const OP_SAMPLES: usize = 1 << 16;

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Rounds until this many host seconds have passed (at least one).
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(u64),
}

impl Budget {
    /// Whether another round should start, given rounds done so far and
    /// when the measured phase began.
    pub fn more(&self, rounds: u64, since: Instant) -> bool {
        match *self {
            Budget::Seconds(s) => rounds == 0 || since.elapsed().as_secs_f64() < s,
            Budget::Rounds(n) => rounds < n,
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host seconds of each set-up the run performed, at reference
    /// machine speed.
    pub setup_s: Vec<f64>,
    /// Units of work done in the timed part of all rounds.
    pub work: f64,
    /// Host microseconds per operation at reference machine speed: every
    /// operation up to [`OP_SAMPLES`], a uniform sample of them past
    /// that (see [`Measured::op`]).
    pub op_us: Vec<f64>,
    /// Operations timed.
    ops_seen: u64,
    /// State of the sampling generator.
    sample_state: u64,
    /// Host milliseconds of the timed (measured) part of each round.
    pub round_ms: Vec<f64>,
    /// The same, scaled to reference machine speed (see
    /// [`stats::probe_us`]).
    pub norm_round_ms: Vec<f64>,
    /// Every probe time the run measured (before rounds, calls and
    /// set-ups), µs.
    pub probe_us: Vec<f64>,
    /// Rounds run.
    pub rounds: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: rejected or dropped messages, messages
    /// over the latency limit, wrongly handled sets, wrong outputs.
    pub failed: u64,
    /// Correctness-check failures; empty means every output was right.
    pub errors: Vec<String>,
    /// Workload outcome metrics (host-time percentiles of secondary
    /// operations, sim-time latency, accuracy), by per-layer name.
    pub outcome: BTreeMap<&'static str, f64>,
    /// Deterministic per-round counts, by per-layer name (last round).
    pub counts: BTreeMap<&'static str, f64>,
    /// Deterministic digest of the first round's simulated-time fields,
    /// counts and accuracy, for the reproducibility sanity test.
    pub digest: String,
}

impl Measured {
    /// Runs the machine-speed probe before a round and returns the factor
    /// that scales this round's host times to reference machine speed.
    pub fn probe(&mut self) -> f64 {
        let p = stats::probe_us();
        self.probe_us.push(p);
        stats::PROBE_REF_US / p
    }

    /// Books one operation's time. Past [`OP_SAMPLES`] operations it
    /// keeps a uniform random sample (reservoir sampling with a fixed
    /// generator), so the run's memory does not grow with its length and
    /// `peak_rss_mb` measures the program, not the benchmark's records.
    pub fn op(&mut self, us: f64) {
        self.ops_seen += 1;
        if self.op_us.len() < OP_SAMPLES {
            if self.op_us.capacity() == 0 {
                self.op_us.reserve_exact(OP_SAMPLES);
            }
            self.op_us.push(us);
            return;
        }
        self.sample_state = self
            .sample_state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (self.sample_state >> 11) % self.ops_seen;
        if let Some(slot) = usize::try_from(j).ok().and_then(|j| self.op_us.get_mut(j)) {
            *slot = us;
        }
    }

    /// Books the timed part of a round, raw and scaled.
    pub fn timed_round(&mut self, raw_ms: f64, scale: f64) {
        self.round_ms.push(raw_ms);
        self.norm_round_ms.push(raw_ms * scale);
    }

    /// Records a correctness failure (keeps the first few messages).
    pub fn error(&mut self, msg: impl Into<String>) {
        if self.errors.len() < 16 {
            self.errors.push(msg.into());
        }
    }
}

/// The full simulated testbed: host, programmable NIC (device 1), smart
/// disk (device 2) and GPU (device 3).
pub fn testbed() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    reg.install(DeviceDescriptor::smart_disk());
    reg.install(DeviceDescriptor::gpu());
    reg
}

/// Runs one workload by name.
///
/// # Panics
///
/// Panics on an unknown workload name; `main` validates names first.
pub fn run_workload(name: &str, seed: u64, budget: Budget, tracer: &mut Tracer) -> Measured {
    match name {
        "tivo_paper" => tivo::run(seed, budget, tracer),
        "runtime_stream" => stream::run(seed, budget, tracer),
        "control_churn" => churn::run(seed, budget, tracer),
        other => panic!("unknown workload {other}"),
    }
}

/// One metric in the result line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured) -> BTreeMap<&'static str, Metric> {
    let mut out = BTreeMap::new();
    let mut put = |name, value: f64, unit| {
        out.insert(name, Metric { value, unit });
    };
    put("setup_s", stats::median(&m.setup_s), "s");
    // Total work over total timed host time rather than a median over
    // rounds: host speed on a shared machine switches between phases
    // lasting seconds, and a median over rounds snaps from one phase to
    // the other where the run-wide mean moves smoothly.
    let norm_s = m.norm_round_ms.iter().sum::<f64>() / 1e3;
    put("norm_work_per_s", m.work / norm_s, "1/s");
    put(
        "norm_op_us_p50",
        stats::percentile(&m.op_us, 50.0).unwrap_or(0.0),
        "us",
    );
    // p90, not p99: the highest percentile with at least ten samples
    // beyond it in every workload (`tivo_paper` times about 140 calls in
    // a 30 s run).
    put(
        "norm_op_us_p90",
        stats::percentile(&m.op_us, 90.0).unwrap_or(0.0),
        "us",
    );
    put("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB");
    out
}

/// The per-layer metrics of a traced run: `traced` is the traced phase,
/// `untraced` the untraced phase over the same number of rounds.
pub fn per_layer(
    traced: &Measured,
    untraced: &Measured,
    tracer: &Tracer,
) -> BTreeMap<&'static str, Metric> {
    let rounds = traced.rounds.max(1) as f64;
    let mut out: BTreeMap<&'static str, Metric> = layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, Metric { value: 0.0, unit }))
        .collect();
    let mut set = |name: &'static str, value: f64| {
        let m = out
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in layers::PER_LAYER"));
        m.value = if value.is_finite() { value } else { 0.0 };
    };
    for &(metric, span, field) in layers::SPAN_METRICS {
        let a = tracer.agg(span);
        let v = match field {
            layers::Field::Calls => a.calls as f64 / rounds,
            layers::Field::WallNs => a.total_ns as f64 / rounds,
            layers::Field::MsPerCall => a.total_ns as f64 / a.calls.max(1) as f64 / 1e6,
            layers::Field::UsPerCall => a.total_ns as f64 / a.calls.max(1) as f64 / 1e3,
        };
        set(metric, v);
    }
    for &(metric, prefixes) in layers::SELF_TIME {
        let ns: u64 = prefixes.iter().map(|p| tracer.self_ns_under(p)).sum();
        set(metric, ns as f64 / rounds / 1e6);
    }
    let sim = tracer.agg("sim.run");
    let events = traced.counts.get("sim.events").copied().unwrap_or(0.0);
    set("sim.self_ns", sim.self_ns as f64 / rounds);
    // Deploy minus the verify, layout and solve work it contains, each
    // re-run on the same input: what is left is link, load and
    // instantiate.
    let inner: u64 = ["verify.run", "layout.from_odfs", "ilp.solve"]
        .iter()
        .map(|s| tracer.agg(s).total_ns)
        .sum();
    set(
        "core.deploy.other_ns",
        tracer.agg("core.deploy").total_ns.saturating_sub(inner) as f64 / rounds,
    );
    if events > 0.0 {
        set("sim.ns_per_event", sim.total_ns as f64 / rounds / events);
    }
    for (&k, &v) in &traced.counts {
        set(k, v);
    }
    for (&k, &v) in &untraced.outcome {
        set(k, v);
    }
    // At reference speed, so a machine-speed phase change between the
    // two halves does not read as tracing cost.
    let t_traced = stats::median(&traced.norm_round_ms);
    let t_untraced = stats::median(&untraced.norm_round_ms);
    set("trace.overhead_ms", t_traced - t_untraced);
    set(
        "trace.overhead_pct",
        (t_traced - t_untraced) / t_untraced * 100.0,
    );
    set("host.probe_us", stats::median(&untraced.probe_us));
    set(
        "failed_ratio",
        untraced.failed as f64 / untraced.attempted.max(1) as f64,
    );
    out
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, Metric>,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
