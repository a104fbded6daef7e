//! `tivo_paper`: the TiVoPC paper suite through the entry points `repro`
//! uses — `fig9_tab2`, `fig10_tab3` and `tab4_client` — with the seed as
//! an argument.
//!
//! One round is one call of each entry point at [`DURATION_S`] simulated
//! seconds. Every call builds fresh worlds, so the modelled caches start
//! empty exactly as they do in `repro`; warm-up only warms the host.
//!
//! The traced run replays each entry point as the variant runs it is made
//! of (`run_server`/`run_client` with the same configs), so every variant
//! gets its own span, and checks that the replay renders byte-identically
//! to the entry point.

use std::fmt::Write as _;
use std::time::Instant;

use hydra_sim::time::SimDuration;
use hydra_tivo::client::{run_client, ClientConfig, ClientKind, ClientRun};
use hydra_tivo::experiments::{
    fig10_tab3, fig9_tab2, tab4_client, ClientResults, JitterResults, ServerSideResults,
    SuiteConfig,
};
use hydra_tivo::server::{run_server, ServerConfig, ServerKind, ServerRun};

use crate::stats::fnv64;
use crate::trace::Tracer;
use crate::{Budget, Measured};

/// Simulated seconds per streaming run.
pub const DURATION_S: u64 = 20;

/// Simulated seconds per streaming run during set-up (warm-up).
const WARMUP_DURATION_S: u64 = 1;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

/// Seed whose rendered tables are pinned by [`DIGEST_FILE`].
pub const DIGEST_SEED: u64 = 42;

/// The committed digest of the rendered tables at [`DIGEST_SEED`].
pub const DIGEST_FILE: &str = include_str!("../data/tivo_digest.txt");

/// The paper's reference values (see the file's header).
pub const REFERENCE_FILE: &str = include_str!("../data/paper_reference.csv");

/// Sampling window of the utilization and L2 series (the paper's 5 s).
const SAMPLE_WINDOW_S: f64 = 5.0;

/// One paper value.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Row id, e.g. `tab2.simple.median`.
    pub id: String,
    /// The paper's value.
    pub paper: f64,
    /// Whether calibration was tuned to this value (`tuned`) or not
    /// (`held-back`).
    pub tuned: bool,
}

/// Parses [`REFERENCE_FILE`].
///
/// # Panics
///
/// Panics on a malformed row: the file is part of the benchmark.
pub fn references() -> Vec<Reference> {
    REFERENCE_FILE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split(',').map(str::trim).collect();
            assert!(f.len() >= 3, "reference row needs id,paper,status: {l}");
            let tuned = match f[2] {
                "tuned" => true,
                "held-back" => false,
                s => panic!("reference status must be tuned or held-back, got {s}"),
            };
            Reference {
                id: f[0].to_owned(),
                paper: f[1].parse().expect("reference value is a number"),
                tuned,
            }
        })
        .collect()
}

/// The committed digest for [`DIGEST_SEED`].
///
/// # Panics
///
/// Panics when the data file lacks a `fnv64 <hex>` line.
pub fn committed_digest() -> u64 {
    let line = DIGEST_FILE
        .lines()
        .find_map(|l| l.trim().strip_prefix("fnv64 "))
        .expect("digest file has an fnv64 line");
    u64::from_str_radix(line.trim(), 16).expect("digest is hex")
}

/// One round's results.
pub struct Round {
    /// Figure 9 + Table 2.
    pub fig9: JitterResults,
    /// Figure 10 + Table 3.
    pub fig10: ServerSideResults,
    /// Table 4 + client L2.
    pub tab4: ClientResults,
}

impl Round {
    /// The three tables exactly as `repro` prints them.
    pub fn render(&self) -> String {
        format!("{}\n{}\n{}", self.fig9, self.fig10, self.tab4)
    }
}

fn suite(seed: u64, duration_s: u64) -> SuiteConfig {
    SuiteConfig {
        duration: SimDuration::from_secs(duration_s),
        seed,
    }
}

fn server_span(kind: ServerKind) -> &'static str {
    match kind {
        ServerKind::Idle => "tivo.server.idle",
        ServerKind::Simple => "tivo.server.simple",
        ServerKind::Sendfile => "tivo.server.sendfile",
        ServerKind::Offloaded => "tivo.server.offloaded",
    }
}

fn client_span(kind: ClientKind) -> &'static str {
    match kind {
        ClientKind::Idle => "tivo.client.idle",
        ClientKind::UserSpace => "tivo.client.userspace",
        ClientKind::Offloaded => "tivo.client.offloaded",
    }
}

fn servers(cfg: &SuiteConfig, kinds: &[ServerKind], tracer: &mut Tracer) -> Vec<ServerRun> {
    kinds
        .iter()
        .map(|&kind| {
            let mut c = ServerConfig::paper(kind, cfg.seed);
            c.duration = cfg.duration;
            tracer.span(server_span(kind), || run_server(c))
        })
        .collect()
}

fn clients(cfg: &SuiteConfig, tracer: &mut Tracer) -> Vec<ClientRun> {
    ClientKind::all()
        .into_iter()
        .map(|kind| {
            let mut c = ClientConfig::paper(kind, cfg.seed);
            c.duration = cfg.duration;
            tracer.span(client_span(kind), || run_client(c))
        })
        .collect()
}

/// Requested simulated seconds per call: fig9 runs 3 servers, fig10 4
/// servers, tab4 3 clients.
const RUNS_PER_CALL: [u64; 3] = [3, 4, 3];

/// Runs one round, timing each call in µs and probing machine speed just
/// before each call. Untraced it calls the entry points; traced it
/// replays them variant by variant under spans.
fn round(cfg: &SuiteConfig, tracer: &mut Tracer, m: &mut Measured) -> (Round, [f64; 3], [f64; 3]) {
    let mut us = [0.0; 3];
    let mut scale = [m.probe(), 0.0, 0.0];
    let t = Instant::now();
    let fig9 = if tracer.is_on() {
        tracer.enter("tivo.fig9_tab2");
        let runs = servers(
            cfg,
            &[
                ServerKind::Simple,
                ServerKind::Sendfile,
                ServerKind::Offloaded,
            ],
            tracer,
        );
        tracer.exit();
        JitterResults { runs }
    } else {
        fig9_tab2(cfg)
    };
    us[0] = t.elapsed().as_secs_f64() * 1e6;
    scale[1] = m.probe();
    let t = Instant::now();
    let fig10 = if tracer.is_on() {
        tracer.enter("tivo.fig10_tab3");
        let runs = servers(cfg, &ServerKind::all(), tracer);
        tracer.exit();
        ServerSideResults { runs }
    } else {
        fig10_tab3(cfg)
    };
    us[1] = t.elapsed().as_secs_f64() * 1e6;
    scale[2] = m.probe();
    let t = Instant::now();
    let tab4 = if tracer.is_on() {
        tracer.enter("tivo.tab4_client");
        let runs = clients(cfg, tracer);
        tracer.exit();
        ClientResults { runs }
    } else {
        tab4_client(cfg)
    };
    us[2] = t.elapsed().as_secs_f64() * 1e6;
    (Round { fig9, fig10, tab4 }, us, scale)
}

fn server(runs: &[ServerRun], kind: ServerKind) -> &ServerRun {
    runs.iter()
        .find(|r| r.kind == kind)
        .expect("every scenario runs")
}

fn client(runs: &[ClientRun], kind: ClientKind) -> &ClientRun {
    runs.iter()
        .find(|r| r.kind == kind)
        .expect("every scenario runs")
}

/// The measured value for a reference row id, if the id is known.
pub fn measured(r: &Round, id: &str) -> Option<f64> {
    let f: Vec<&str> = id.split('.').collect();
    let skind = |s: &str| match s {
        "idle" => Some(ServerKind::Idle),
        "simple" => Some(ServerKind::Simple),
        "sendfile" => Some(ServerKind::Sendfile),
        "offloaded" => Some(ServerKind::Offloaded),
        _ => None,
    };
    let ckind = |s: &str| match s {
        "idle" => Some(ClientKind::Idle),
        "userspace" => Some(ClientKind::UserSpace),
        "offloaded" => Some(ClientKind::Offloaded),
        _ => None,
    };
    let pct = |v: f64| v * 100.0;
    match f.as_slice() {
        ["tab2", k, stat] => {
            let s = server(&r.fig9.runs, skind(k)?).jitter_ms.summary();
            match *stat {
                "median" => Some(s.median),
                "mean" => Some(s.mean),
                "std" => Some(s.std_dev),
                _ => None,
            }
        }
        ["fig10", k] => Some(r.fig10.normalized_l2(skind(k)?)),
        ["clientl2", k] => Some(r.tab4.normalized_l2(ckind(k)?)),
        ["tab3", k, stat] => {
            let s = server(&r.fig10.runs, skind(k)?).cpu_util.summary();
            match *stat {
                "median" => Some(pct(s.median)),
                "mean" => Some(pct(s.mean)),
                _ => None,
            }
        }
        ["tab4", k, stat] => {
            let s = client(&r.tab4.runs, ckind(k)?).cpu_util.summary();
            match *stat {
                "median" => Some(pct(s.median)),
                "mean" => Some(pct(s.mean)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Mean |relative error| in percent over the reference rows that are
/// tuned (`tuned = true`) or held back (`tuned = false`).
pub fn paper_error_pct(r: &Round, refs: &[Reference], tuned: bool) -> f64 {
    let errs: Vec<f64> = refs
        .iter()
        .filter(|x| x.tuned == tuned)
        .map(|x| {
            let m = measured(r, &x.id).unwrap_or_else(|| panic!("unknown reference id {}", x.id));
            ((m - x.paper) / x.paper).abs() * 100.0
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// The paper's qualitative claims, as orderings that hold for any seed.
/// Returns the violated claims.
pub fn shape_violations(r: &Round) -> Vec<String> {
    let mut bad = Vec::new();
    let mut claim = |ok: bool, what: &str| {
        if !ok {
            bad.push(what.to_owned());
        }
    };
    let jit = |k| server(&r.fig9.runs, k).jitter_ms.summary();
    let (simple, sendfile, off) = (
        jit(ServerKind::Simple),
        jit(ServerKind::Sendfile),
        jit(ServerKind::Offloaded),
    );
    claim(
        simple.median > sendfile.median && sendfile.median > off.median,
        "tab2: median jitter simple > sendfile > offloaded",
    );
    claim(
        off.std_dev * 10.0 < simple.std_dev && off.std_dev * 10.0 < sendfile.std_dev,
        "tab2: offloaded jitter an order of magnitude tighter",
    );
    let util = |k| server(&r.fig10.runs, k).cpu_util.summary().mean;
    let idle = util(ServerKind::Idle);
    claim(
        util(ServerKind::Simple) > util(ServerKind::Sendfile) && util(ServerKind::Sendfile) > idle,
        "tab3: utilization simple > sendfile > idle",
    );
    claim(
        (util(ServerKind::Offloaded) - idle).abs() < 0.004,
        "tab3: offloaded utilization at idle",
    );
    let l2 = |k| r.fig10.normalized_l2(k);
    claim(
        l2(ServerKind::Simple) > l2(ServerKind::Sendfile) && l2(ServerKind::Simple) > 1.0,
        "fig10: simple L2 above sendfile and idle",
    );
    claim(
        (l2(ServerKind::Offloaded) - 1.0).abs() < 0.02,
        "fig10: offloaded L2 at idle",
    );
    let cutil = |k| client(&r.tab4.runs, k).cpu_util.summary().mean;
    let cidle = cutil(ClientKind::Idle);
    claim(
        cutil(ClientKind::UserSpace) > cidle + 0.02,
        "tab4: user-space client above idle",
    );
    claim(
        (cutil(ClientKind::Offloaded) - cidle).abs() < 0.004,
        "tab4: offloaded client at idle",
    );
    claim(
        r.tab4.normalized_l2(ClientKind::UserSpace) > 1.0
            && (r.tab4.normalized_l2(ClientKind::Offloaded) - 1.0).abs() < 0.02,
        "client L2: user-space above idle, offloaded at idle",
    );
    claim(
        r.fig9.runs.iter().all(|x| x.packets_delivered > 0),
        "fig9: every streaming server delivers packets",
    );
    bad
}

fn l2_misses(rate: &hydra_sim::stats::Samples) -> f64 {
    (rate.values().iter().sum::<f64>() * SAMPLE_WINDOW_S).round()
}

fn counts(r: &Round, m: &mut Measured) {
    for (name, kind) in [
        ("hw.l2.misses.server.idle", ServerKind::Idle),
        ("hw.l2.misses.server.simple", ServerKind::Simple),
        ("hw.l2.misses.server.sendfile", ServerKind::Sendfile),
        ("hw.l2.misses.server.offloaded", ServerKind::Offloaded),
    ] {
        m.counts
            .insert(name, l2_misses(&server(&r.fig10.runs, kind).l2_miss_rate));
    }
    for (name, kind) in [
        ("hw.l2.misses.client.idle", ClientKind::Idle),
        ("hw.l2.misses.client.userspace", ClientKind::UserSpace),
        ("hw.l2.misses.client.offloaded", ClientKind::Offloaded),
    ] {
        m.counts
            .insert(name, l2_misses(&client(&r.tab4.runs, kind).l2_miss_rate));
    }
    let packets: u64 = r
        .fig9
        .runs
        .iter()
        .chain(&r.fig10.runs)
        .map(|x| x.packets_delivered)
        .sum::<u64>()
        + r.tab4.runs.iter().map(|x| x.packets).sum::<u64>();
    m.counts.insert("tivo.packets_delivered", packets as f64);
}

/// Runs the workload; see the module documentation.
pub fn run(seed: u64, budget: Budget, tracer: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let mut refs = Vec::new();
    for _ in 0..SETUPS {
        let scale = m.probe();
        let t = Instant::now();
        refs = references();
        let warm = suite(seed, WARMUP_DURATION_S);
        std::hint::black_box(round(&warm, &mut Tracer::off(), &mut Measured::default()));
        m.setup_s.push(t.elapsed().as_secs_f64() * scale);
    }

    let cfg = suite(seed, DURATION_S);
    let requested_sim_s: [f64; 3] = RUNS_PER_CALL.map(|n| (n * DURATION_S) as f64);
    let mut first: Option<u64> = None;
    let since = Instant::now();
    while budget.more(m.rounds, since) {
        let (r, us, scale) = round(&cfg, tracer, &mut m);
        let r = std::hint::black_box(r);
        m.rounds += 1;
        m.attempted += 3;
        // One scale per round, the median of the three probes: a single
        // off probe reading must not move a call into the tail.
        let k = crate::stats::median(&scale);
        m.timed_round(us.iter().sum::<f64>() / 1e3, k);
        m.work += requested_sim_s.iter().sum::<f64>();
        for (u, s) in us.iter().zip(requested_sim_s) {
            m.op(u * k / s);
        }

        let digest = fnv64(r.render().as_bytes());
        match first {
            None => {
                first = Some(digest);
                check_first(seed, &r, digest, &refs, &mut m);
            }
            Some(d) if d != digest => {
                m.failed += 3;
                m.error(format!(
                    "round {} rendered differently from round 1 ({digest:016x} vs {d:016x})",
                    m.rounds
                ));
            }
            Some(_) => {}
        }
        counts(&r, &mut m);
    }
    m
}

fn check_first(seed: u64, r: &Round, digest: u64, refs: &[Reference], m: &mut Measured) {
    let bad = shape_violations(r);
    if seed == DIGEST_SEED && digest != committed_digest() {
        m.failed += 3;
        m.error(format!(
            "seed {DIGEST_SEED}: rendered tables digest {digest:016x} differs from the committed {:016x}",
            committed_digest()
        ));
    } else if !bad.is_empty() {
        m.failed += 3;
        for b in bad {
            m.error(format!("shape: {b}"));
        }
    }
    let held = paper_error_pct(r, refs, false);
    let tuned = paper_error_pct(r, refs, true);
    m.outcome.insert("paper_error_pct", held);
    m.outcome.insert("paper_error_tuned_pct", tuned);
    let mut d = format!("tivo seed={seed} duration_s={DURATION_S} tables={digest:016x}");
    let _ = write!(
        d,
        " paper_error_pct={held:?} paper_error_tuned_pct={tuned:?}"
    );
    counts(r, m);
    for (k, v) in &m.counts {
        let _ = write!(d, " {k}={v:?}");
    }
    m.digest = d;
}
