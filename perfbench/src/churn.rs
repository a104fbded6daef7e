//! `control_churn`: the HYDRA control plane over a seeded corpus of ODF
//! sets given as XML text, with no data plane.
//!
//! Each set (3–12 Offcodes, Link/Pull/Gang/AsymGang imports, footprints,
//! `<traffic>` elements) goes through one lifecycle in a fresh runtime:
//! parse → register → `create_offcode` → `on_device_failure` (the device
//! hosting most of the set fails) → `teardown`. Every
//! [`BROKEN_EVERY`]-th set is deliberately broken so that pre-flight
//! verification must reject it with a designated `HVxxx` code. One round
//! is one pass over the corpus; the operation timed for `norm_op_us_*` is one
//! deploy (parse + register + create) of a valid set.
//!
//! The ILP runs two ways: a scratch solve at deploy and a warm-start
//! `repair` at recovery, so a change trading one for the other shows in
//! the deploy/recover split. The correctness checks re-run verify, the
//! layout build, the scratch solve, greedy and repair on the same input
//! outside the timed lifecycle; under tracing those calls carry the
//! per-layer spans.

use std::fmt::Write as _;
use std::time::Instant;

use bytes::Bytes;
use hydra_core::call::{Call, Value};
use hydra_core::device::DeviceId;
use hydra_core::error::RuntimeError;
use hydra_core::layout::{GraphDelta, LayoutGraph, Objective, Placement};
use hydra_core::offcode::{synthetic_object, Offcode, OffcodeCtx};
use hydra_core::runtime::{Runtime, RuntimeConfig};
use hydra_link::object::HofObject;
use hydra_odf::odf::{
    class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument, TrafficSpec,
};
use hydra_odf::xml;
use hydra_sim::rng::DetRng;
use hydra_sim::time::SimTime;

use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{testbed, Budget, Measured};

/// ODF sets in the corpus; one round deploys each once.
pub const CORPUS_SETS: usize = 256;

/// Every `BROKEN_EVERY`-th set is broken (a fixed 1/8 share).
pub const BROKEN_EVERY: usize = 8;

/// Corpus generations per run; the median is reported as set-up time.
const SETUPS: usize = 3;

/// Ways a set is broken, with the code verification must reject it by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Broken {
    /// Two Offcodes gang-import each other (HV010).
    GangCycle,
    /// A Pull edge between Offcodes with disjoint device classes (HV012).
    DisjointPull,
    /// Three 768 KiB Offcodes pinned to the 2 MiB NIC (HV020).
    Overcommit,
}

impl Broken {
    /// The diagnostic code that must reject the set.
    pub fn code(self) -> &'static str {
        match self {
            Broken::GangCycle => "HV010",
            Broken::DisjointPull => "HV012",
            Broken::Overcommit => "HV020",
        }
    }
}

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct OdfSet {
    /// The set as `<deployment>` XML text.
    pub xml: String,
    /// The documents the text was rendered from (parse oracle).
    pub docs: Vec<OdfDocument>,
    /// Per document: whether its Offcode supports snapshot migration.
    pub migratable: Vec<bool>,
    /// `Some` for a deliberately broken set.
    pub broken: Option<Broken>,
}

fn class(id: u32) -> DeviceClassSpec {
    DeviceClassSpec {
        id,
        name: format!("class-{id}"),
        bus: None,
        mac: None,
        vendor: None,
    }
}

const CLASSES: [u32; 3] = [class_ids::NETWORK, class_ids::STORAGE, class_ids::GPU];
const KINDS: [ConstraintKind; 4] = [
    ConstraintKind::Link,
    ConstraintKind::Pull,
    ConstraintKind::Gang,
    ConstraintKind::AsymGang,
];

fn import(to: usize, constraint: ConstraintKind) -> Import {
    Import {
        file: String::new(),
        bind_name: format!("oc.N{to}"),
        guid: Guid(to as u64 + 1),
        constraint,
        priority: 0,
    }
}

/// A well-formed set: every Offcode targets one shared class (so every
/// Pull has a common device) plus maybe another; a chain of imports from
/// the root reaches every Offcode; extra imports only point forward, so
/// the constraint graph is acyclic.
fn valid_set(rng: &mut DetRng, n: usize) -> Vec<OdfDocument> {
    let shared = CLASSES[rng.index(3)];
    let mut docs: Vec<OdfDocument> = (0..n)
        .map(|i| {
            let mut d = OdfDocument::new(format!("oc.N{i}"), Guid(i as u64 + 1))
                .with_target(class(shared))
                .with_footprint(rng.range_u64(8, 33) * 1024);
            let extra = CLASSES[rng.index(3)];
            if extra != shared && rng.chance(0.5) {
                d.targets.push(class(extra));
            }
            if rng.chance(0.6) {
                d = d.with_traffic(TrafficSpec {
                    rate_per_sec: rng.range_u64(100, 10_001),
                    burst: rng.range_u64(1, 9),
                    max_bytes: 64 << rng.index(11),
                });
            }
            d
        })
        .collect();
    for (i, d) in docs.iter_mut().take(n - 1).enumerate() {
        d.imports.push(import(i + 1, KINDS[rng.index(4)]));
    }
    for _ in 0..n / 2 {
        let a = rng.index(n);
        let b = rng.index(n);
        let (from, to) = (a.min(b), a.max(b));
        if from == to
            || docs[from]
                .imports
                .iter()
                .any(|x| x.guid == Guid(to as u64 + 1))
        {
            continue;
        }
        docs[from].imports.push(import(to, KINDS[rng.index(4)]));
    }
    docs
}

fn broken_set(rng: &mut DetRng, kind: Broken, n: usize) -> Vec<OdfDocument> {
    match kind {
        Broken::GangCycle => {
            let mut docs = valid_set(rng, n);
            docs[0].imports[0].constraint = ConstraintKind::Gang;
            docs[1].imports.push(import(0, ConstraintKind::Gang));
            docs
        }
        Broken::DisjointPull => {
            let mut docs = valid_set(rng, n);
            docs[0].targets = vec![class(class_ids::NETWORK)];
            docs[1].targets = vec![class(class_ids::GPU)];
            docs[0].imports[0].constraint = ConstraintKind::Pull;
            docs
        }
        Broken::Overcommit => {
            let mut docs = valid_set(rng, 3);
            for d in &mut docs {
                d.targets = vec![class(class_ids::NETWORK)];
                d.footprint = Some(768 * 1024);
            }
            docs
        }
    }
}

fn deployment_xml(docs: &[OdfDocument]) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?>\n<deployment>\n");
    for d in docs {
        out.push_str(&d.to_xml());
        out.push('\n');
    }
    out.push_str("</deployment>\n");
    out
}

/// The seeded corpus.
pub fn corpus(seed: u64) -> Vec<OdfSet> {
    let mut rng = DetRng::new(seed);
    (0..CORPUS_SETS)
        .map(|i| {
            let broken = (i % BROKEN_EVERY == BROKEN_EVERY - 1).then(|| {
                [Broken::GangCycle, Broken::DisjointPull, Broken::Overcommit]
                    [(i / BROKEN_EVERY) % 3]
            });
            // Set sizes cycle through 3..=12 rather than being drawn, so
            // every seed's corpus does the same amount of work.
            let n = 3 + i % 10;
            let docs = match broken {
                Some(kind) => broken_set(&mut rng, kind, n),
                None => valid_set(&mut rng, n),
            };
            let migratable = docs.iter().map(|_| rng.chance(0.5)).collect();
            OdfSet {
                xml: deployment_xml(&docs),
                docs,
                migratable,
                broken,
            }
        })
        .collect()
}

#[derive(Debug)]
struct SetOffcode {
    guid: Guid,
    name: String,
    object_bytes: usize,
    migratable: bool,
}

impl Offcode for SetOffcode {
    fn guid(&self) -> Guid {
        self.guid
    }
    fn bind_name(&self) -> &str {
        &self.name
    }
    fn object_file(&self) -> HofObject {
        synthetic_object(&self.name, self.object_bytes, 1024)
    }
    fn handle_call(&mut self, _ctx: &mut OffcodeCtx, _call: &Call) -> Result<Value, RuntimeError> {
        Ok(Value::Unit)
    }
    fn snapshot(&self) -> Option<Bytes> {
        self.migratable.then(|| Bytes::from_static(b"state"))
    }
}

/// Parses a `<deployment>` text into its documents.
fn parse_set(text: &str) -> Result<Vec<OdfDocument>, String> {
    let root = xml::parse(text).map_err(|e| e.to_string())?;
    root.children_named("offcode")
        .map(|el| OdfDocument::from_element(el).map_err(|e| e.to_string()))
        .collect()
}

/// The non-host device hosting most of the deployment (lowest id on a
/// tie); the NIC when nothing was offloaded.
fn busiest_device(rt: &Runtime) -> DeviceId {
    let mut per = [0usize; 4];
    for d in rt.deployments() {
        per[d.device.idx()] += 1;
    }
    (1..4)
        .max_by_key(|&k| (per[k], std::cmp::Reverse(k)))
        .map_or(DeviceId(1), |k| DeviceId(k as u32))
}

fn placement_of(rt: &Runtime, docs: &[OdfDocument]) -> Option<Placement> {
    docs.iter()
        .map(|d| rt.get_offcode(d.guid).and_then(|id| rt.device_of(id)))
        .collect::<Option<Vec<_>>>()
        .map(Placement)
}

/// Per-round counters of the layers the checks call.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    odf_bytes: u64,
    verify_rejected: u64,
    ilp_nodes: u64,
    ilp_pruned: u64,
    ilp_presolved: u64,
    repair_nodes: u64,
    repaired_nodes: u64,
    warm_start_hits: u64,
    host_fallbacks: u64,
    offloaded: u64,
}

/// Host nanoseconds of one lifecycle's timed segments.
#[derive(Debug, Default, Clone, Copy)]
struct Lifecycle {
    deploy_ns: u64,
    recover_ns: u64,
    teardown_ns: u64,
}

/// Runs one set's lifecycle and its checks. Returns the timed segments
/// and whether the set was valid (a broken set stops at its rejection),
/// or `Err` with what went wrong.
fn lifecycle(
    set: &OdfSet,
    tracer: &mut Tracer,
    c: &mut Counts,
) -> Result<(Lifecycle, bool), String> {
    let objective = Objective::MaximizeOffloading;
    let mut life = Lifecycle::default();

    // Timed: parse + register + create.
    let t = Instant::now();
    tracer.enter("odf.parse");
    let parsed = parse_set(&set.xml);
    tracer.exit();
    let docs = parsed.map_err(|e| format!("parse: {e}"))?;
    tracer.enter("core.register");
    let mut rt = Runtime::new(testbed(), RuntimeConfig::default());
    for (d, &migratable) in docs.iter().zip(&set.migratable) {
        let (guid, name) = (d.guid, d.bind_name.clone());
        let object_bytes = d.footprint.unwrap_or(8 * 1024) as usize;
        rt.register_offcode(d.clone(), move || {
            Box::new(SetOffcode {
                guid,
                name: name.clone(),
                object_bytes,
                migratable,
            })
        })
        .map_err(|e| format!("register: {e}"))?;
    }
    tracer.exit();
    let root = docs[0].guid;
    tracer.enter("core.deploy");
    let deployed = rt.create_offcode(root, SimTime::ZERO);
    tracer.exit();
    life.deploy_ns = t.elapsed().as_nanos() as u64;
    c.odf_bytes += set.xml.len() as u64;

    // Checks (untimed).
    if docs != set.docs {
        return Err("parsed documents differ from the generated ones".into());
    }
    let registry = testbed();
    let table = registry.verify_table();
    let report = tracer.span("verify.run", || {
        hydra_verify::verify(&hydra_verify::VerifyInput {
            odfs: &docs,
            devices: &table,
            demands: None,
            roots: Some(&[root]),
        })
    });
    if let Some(kind) = set.broken {
        c.verify_rejected += u64::from(report.has_errors());
        let fired = report.errors().any(|d| d.code.code() == kind.code());
        return match deployed {
            Err(RuntimeError::Verification(msg)) if msg.contains(kind.code()) && fired => {
                Ok((life, false))
            }
            Err(e) => Err(format!("broken set rejected without {}: {e}", kind.code())),
            Ok(_) => Err(format!("broken set ({}) deployed", kind.code())),
        };
    }
    deployed.map_err(|e| format!("valid set rejected: {e}"))?;
    if report.has_errors() {
        return Err("verify found errors in a valid set".into());
    }
    let graph = tracer
        .span("layout.from_odfs", || {
            LayoutGraph::from_odfs(&docs, &registry)
        })
        .map_err(|e| format!("layout: {e}"))?;
    let (ilp, stats) = tracer
        .span("ilp.solve", || graph.resolve_ilp_with_stats(&objective))
        .map_err(|e| format!("ilp: {e}"))?;
    c.ilp_nodes += stats.nodes;
    c.ilp_pruned += stats.pruned;
    c.ilp_presolved += u64::from(stats.presolved);
    c.offloaded += ilp.offloaded_count() as u64;
    let greedy = tracer.span("ilp.greedy", || graph.resolve_greedy(&objective));
    if ilp.offloaded_count() < greedy.offloaded_count() {
        return Err("ILP placement worse than greedy".into());
    }
    graph
        .check(&ilp)
        .map_err(|e| format!("ILP placement: {e}"))?;
    let deployed_at = placement_of(&rt, &docs).ok_or("an Offcode of the set is not deployed")?;
    graph
        .check(&deployed_at)
        .map_err(|e| format!("runtime placement: {e}"))?;
    if deployed_at.offloaded_count() != ilp.offloaded_count() {
        return Err("runtime placement objective differs from the ILP optimum".into());
    }
    let failed = busiest_device(&rt);

    // Timed: recovery.
    let t = Instant::now();
    tracer.enter("core.recover");
    let recovered = rt.on_device_failure(failed, SimTime::from_millis(1));
    tracer.exit();
    life.recover_ns = t.elapsed().as_nanos() as u64;
    let report = recovered.map_err(|e| format!("recovery: {e}"))?;
    c.host_fallbacks += report.host_fallbacks as u64;
    let mut masked = graph.clone();
    masked
        .mask_device(failed)
        .map_err(|e| format!("mask: {e}"))?;
    let scratch = tracer
        .span("ilp.solve_masked", || masked.resolve_ilp(&objective))
        .map_err(|e| format!("scratch re-solve: {e}"))?;
    let (repaired, rstats) = tracer
        .span("layout.repair", || {
            masked.repair(&ilp, &GraphDelta::MaskDevice(failed), &objective)
        })
        .map_err(|e| format!("repair: {e}"))?;
    c.repair_nodes += rstats.nodes;
    c.repaired_nodes += rstats.repaired_nodes;
    c.warm_start_hits += rstats.warm_start_hits;
    if repaired.offloaded_count() != scratch.offloaded_count() {
        return Err("repair objective differs from the scratch solve".into());
    }
    masked
        .check(&repaired)
        .map_err(|e| format!("repaired placement: {e}"))?;
    let after = placement_of(&rt, &docs).ok_or("an Offcode was lost in recovery")?;
    masked
        .check(&after)
        .map_err(|e| format!("recovered placement: {e}"))?;
    if !report.constraints_ok {
        return Err("recovery bent the layout constraints".into());
    }

    // Timed: teardown.
    let ids: Vec<_> = rt.deployments().iter().map(|d| d.id).collect();
    let t = Instant::now();
    tracer.enter("core.teardown");
    let all = ids.iter().all(|&id| rt.teardown(id));
    tracer.exit();
    life.teardown_ns = t.elapsed().as_nanos() as u64;
    if !all || !rt.deployments().is_empty() {
        return Err("teardown left instances behind".into());
    }
    let audit = rt.audit_connections();
    if !audit.is_empty() {
        return Err(format!("audit after teardown: {}", audit.join("; ")));
    }
    Ok((life, true))
}

/// Runs the workload; see the module documentation.
pub fn run(seed: u64, budget: Budget, tracer: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let mut sets = Vec::new();
    for _ in 0..SETUPS {
        let scale = m.probe();
        let t = Instant::now();
        sets = std::hint::black_box(corpus(seed));
        m.setup_s.push(t.elapsed().as_secs_f64() * scale);
    }
    let (mut deploy_us, mut recover_us) = (Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    let since = Instant::now();
    while budget.more(m.rounds, since) {
        let scale = m.probe();
        let mut c = Counts::default();
        let mut round_ns = 0u64;
        for (i, set) in sets.iter().enumerate() {
            m.attempted += 1;
            match lifecycle(set, tracer, &mut c) {
                Ok((life, valid)) => {
                    round_ns += life.deploy_ns + life.recover_ns + life.teardown_ns;
                    if valid {
                        m.op(life.deploy_ns as f64 / 1e3 * scale);
                        deploy_us.push(life.deploy_ns as f64 / 1e3);
                        recover_us.push(life.recover_ns as f64 / 1e3);
                    }
                }
                Err(e) => {
                    m.failed += 1;
                    m.error(format!("set {i}: {e}"));
                }
            }
        }
        m.rounds += 1;
        m.timed_round(round_ns as f64 / 1e6, scale);
        m.work += sets.len() as f64;
        let summary = summarize(seed, &c);
        match &first {
            None => first = Some(summary),
            Some(s) if *s != summary => {
                m.error(format!("round {} counts differ from round 1", m.rounds));
            }
            Some(_) => {}
        }
        let counts = &mut m.counts;
        counts.insert("odf.bytes", c.odf_bytes as f64);
        counts.insert("verify.rejected", c.verify_rejected as f64);
        counts.insert("ilp.nodes", c.ilp_nodes as f64);
        counts.insert("ilp.pruned", c.ilp_pruned as f64);
        counts.insert("ilp.presolved", c.ilp_presolved as f64);
        counts.insert("layout.repair.nodes", c.repair_nodes as f64);
        counts.insert("layout.repair.repaired_nodes", c.repaired_nodes as f64);
        counts.insert("layout.repair.warm_start_hits", c.warm_start_hits as f64);
        counts.insert("core.recover.host_fallbacks", c.host_fallbacks as f64);
    }
    let p = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
    m.outcome.insert("deploy_us_p50", p(&deploy_us, 50.0));
    m.outcome.insert("deploy_us_p99", p(&deploy_us, 99.0));
    m.outcome.insert("recover_us_p50", p(&recover_us, 50.0));
    m.outcome.insert("recover_us_p99", p(&recover_us, 99.0));
    m.digest = first.unwrap_or_default();
    m
}

fn summarize(seed: u64, c: &Counts) -> String {
    let mut s = format!("churn seed={seed} sets={CORPUS_SETS}");
    let _ = write!(
        s,
        " odf_bytes={} verify_rejected={} ilp_nodes={} ilp_pruned={} ilp_presolved={} \
         repair_nodes={} repaired_nodes={} warm_start_hits={} host_fallbacks={} offloaded={}",
        c.odf_bytes,
        c.verify_rejected,
        c.ilp_nodes,
        c.ilp_pruned,
        c.ilp_presolved,
        c.repair_nodes,
        c.repaired_nodes,
        c.warm_start_hits,
        c.host_fallbacks,
        c.offloaded
    );
    s
}
