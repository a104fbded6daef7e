//! Integration: the paper's qualitative claims, asserted as invariants of
//! the full experiment harness. These are the "shape" checks of DESIGN.md
//! §4 — who wins, by roughly what factor, where crossovers fall.

use std::sync::OnceLock;

use hydra::sim::time::SimDuration;
use hydra::tivo::client::ClientKind;
use hydra::tivo::experiments::{
    fig1, fig10_tab3, fig9_tab2, ilp_vs_greedy, tab4_client, ClientResults, JitterResults,
    ServerSideResults, SuiteConfig,
};
use hydra::tivo::server::ServerKind;

/// The benchmark's pinned digest of the three paper tables rendered at
/// seed 42 and 20 simulated seconds per run.
const TABLES_DIGEST: &str = include_str!("../perfbench/data/tivo_digest.txt");

struct Suite {
    fig9: JitterResults,
    fig10: ServerSideResults,
    tab4: ClientResults,
}

/// The three paper-table entry points at seed 42 and 20 s, run once and
/// shared by every test below.
fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| {
        let cfg = SuiteConfig {
            duration: SimDuration::from_secs(20),
            seed: 42,
        };
        Suite {
            fig9: fig9_tab2(&cfg),
            fig10: fig10_tab3(&cfg),
            tab4: tab4_client(&cfg),
        }
    })
}

/// 64-bit FNV-1a, the digest the benchmark pins.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn paper_tables_match_the_pinned_digest() {
    let s = suite();
    let rendered = format!("{}\n{}\n{}", s.fig9, s.fig10, s.tab4);
    let pinned = TABLES_DIGEST
        .lines()
        .find_map(|l| l.trim().strip_prefix("fnv64 "))
        .expect("digest file has an fnv64 line");
    assert_eq!(
        format!("{:016x}", fnv64(rendered.as_bytes())),
        pinned.trim()
    );
}

#[test]
fn figure_1_shape() {
    let f = fig1();
    // Ratio decreasing with size; receive above transmit everywhere;
    // small packets saturate the CPU.
    for w in f.receive.windows(2) {
        assert!(w[1].ghz_per_gbps < w[0].ghz_per_gbps);
    }
    for (t, r) in f.transmit.iter().zip(&f.receive) {
        assert!(r.ghz_per_gbps > t.ghz_per_gbps);
    }
    assert_eq!(f.receive[0].cpu_utilization, 1.0);
    // At 1 kB (the TiVoPC packet size) the host burns on the order of a
    // GHz per Gbps on receive — the paper's motivation for offload.
    let kb = f
        .receive
        .iter()
        .find(|p| p.packet_bytes == 1024)
        .expect("1 kB point in sweep");
    assert!(kb.ghz_per_gbps > 0.5);
}

#[test]
fn table_2_and_figure_9_shape() {
    let r = &suite().fig9;
    let stat = |kind: ServerKind| {
        r.runs
            .iter()
            .find(|x| x.kind == kind)
            .expect("scenario present")
            .jitter_ms
            .summary()
    };
    let simple = stat(ServerKind::Simple);
    let sendfile = stat(ServerKind::Sendfile);
    let offloaded = stat(ServerKind::Offloaded);
    // Medians land in the paper's millisecond bins: ~7 / ~6 / 5.
    assert!((simple.median - 7.0).abs() < 0.7, "{}", simple.median);
    assert!((sendfile.median - 6.0).abs() < 0.7, "{}", sendfile.median);
    assert!(
        (offloaded.median - 5.0).abs() < 0.05,
        "{}",
        offloaded.median
    );
    // Offloaded jitter is an order of magnitude tighter.
    assert!(offloaded.std_dev * 10.0 < simple.std_dev);
    assert!(offloaded.std_dev * 10.0 < sendfile.std_dev);
    // Figure 9's CDF: virtually all offloaded gaps inside 4.9–5.1 ms.
    let h = r
        .runs
        .iter()
        .find(|x| x.kind == ServerKind::Offloaded)
        .expect("offloaded run")
        .jitter_ms
        .histogram(4.9, 5.1, 2);
    assert!(h.underflow() + h.overflow() < h.total() / 100);
}

#[test]
fn table_3_and_figure_10_shape() {
    let r = &suite().fig10;
    let util = |kind: ServerKind| {
        r.runs
            .iter()
            .find(|x| x.kind == kind)
            .expect("scenario present")
            .cpu_util
            .summary()
            .mean
    };
    let idle = util(ServerKind::Idle);
    // Ordering: simple > sendfile > offloaded == idle.
    assert!(util(ServerKind::Simple) > util(ServerKind::Sendfile));
    assert!(util(ServerKind::Sendfile) > idle + 0.01);
    assert!((util(ServerKind::Offloaded) - idle).abs() < 0.004);
    // Magnitudes near the paper's: idle ~2.9%, simple ~7.5%.
    assert!((idle - 0.029).abs() < 0.012, "idle {idle}");
    assert!((util(ServerKind::Simple) - 0.075).abs() < 0.02);
    // L2: simple a few percent above idle; offloaded at idle.
    let n_simple = r.normalized_l2(ServerKind::Simple);
    assert!((1.02..1.2).contains(&n_simple), "simple L2 {n_simple}");
    assert!((r.normalized_l2(ServerKind::Offloaded) - 1.0).abs() < 0.02);
    assert!(r.normalized_l2(ServerKind::Sendfile) < n_simple);
}

#[test]
fn table_4_shape() {
    let r = &suite().tab4;
    let util = |kind: ClientKind| {
        r.runs
            .iter()
            .find(|x| x.kind == kind)
            .expect("scenario present")
            .cpu_util
            .summary()
            .mean
    };
    let idle = util(ClientKind::Idle);
    assert!(util(ClientKind::UserSpace) > idle + 0.02);
    assert!((util(ClientKind::Offloaded) - idle).abs() < 0.004);
    // "the non-offloaded client generates 12% more misses"
    let n_user = r.normalized_l2(ClientKind::UserSpace);
    assert!((1.05..1.25).contains(&n_user), "user-space L2 {n_user}");
    assert!((r.normalized_l2(ClientKind::Offloaded) - 1.0).abs() < 0.02);
}

#[test]
fn section_5_shape() {
    let r = ilp_vs_greedy(42, 20);
    for c in &r.cases {
        assert!(c.ilp_value >= c.greedy_value - 1e-9, "ILP never worse");
    }
    assert!(
        r.improvement_fraction() > 0.1,
        "complex layouts where greedy is suboptimal must exist"
    );
}
