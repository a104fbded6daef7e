//! Integration: whole-system determinism. Two runs with the same seed
//! must agree bit for bit; different seeds must actually differ.

use hydra::sim::time::SimDuration;
use hydra::tivo::client::{run_client, ClientConfig, ClientKind, ClientRun};
use hydra::tivo::experiments::{fig10_tab3, fig9_tab2, tab4_client, SuiteConfig};
use hydra::tivo::server::{run_server, ServerConfig, ServerKind, ServerRun};

fn server_cfg(seed: u64) -> ServerConfig {
    let mut c = ServerConfig::paper(ServerKind::Simple, seed);
    c.duration = SimDuration::from_secs(8);
    c
}

#[test]
fn server_runs_replay_exactly() {
    let a = run_server(server_cfg(123));
    let b = run_server(server_cfg(123));
    assert_eq!(a.jitter_ms.values(), b.jitter_ms.values());
    assert_eq!(a.cpu_util.values(), b.cpu_util.values());
    assert_eq!(a.l2_miss_rate.values(), b.l2_miss_rate.values());
    assert_eq!(a.packets_delivered, b.packets_delivered);
}

#[test]
fn different_seeds_diverge() {
    let a = run_server(server_cfg(1));
    let b = run_server(server_cfg(2));
    assert_ne!(
        a.jitter_ms.values(),
        b.jitter_ms.values(),
        "seeds must matter"
    );
    // But the structure is stable: medians stay in the same millisecond.
    let (ma, mb) = (a.jitter_ms.summary().median, b.jitter_ms.summary().median);
    assert!((ma - mb).abs() < 1.0, "medians {ma} vs {mb}");
}

#[test]
fn client_runs_replay_exactly() {
    let mk = || {
        let mut c = ClientConfig::paper(ClientKind::Offloaded, 9);
        c.duration = SimDuration::from_secs(8);
        run_client(c)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.cpu_util.values(), b.cpu_util.values());
    assert_eq!(a.l2_miss_rate.values(), b.l2_miss_rate.values());
    assert_eq!(a.frames_decoded, b.frames_decoded);
    assert_eq!(a.bytes_stored, b.bytes_stored);
}

#[test]
fn rng_streams_are_stable_across_split_order() {
    use hydra::sim::rng::DetRng;
    let root = DetRng::new(77);
    // Children created in different orders see identical streams.
    let mut a1 = root.split(1);
    let mut b1 = root.split(2);
    let mut b2 = root.split(2);
    let mut a2 = root.split(1);
    for _ in 0..64 {
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_eq!(b1.next_u64(), b2.next_u64());
    }
}

fn assert_same_server_runs(got: &[ServerRun], kinds: &[ServerKind], suite: &SuiteConfig) {
    let got_kinds: Vec<_> = got.iter().map(|r| r.kind).collect();
    assert_eq!(got_kinds, kinds, "runs come back in table order");
    for run in got {
        let mut c = ServerConfig::paper(run.kind, suite.seed);
        c.duration = suite.duration;
        let want = run_server(c);
        let what = format!("seed {} {:?}", suite.seed, run.kind);
        assert_eq!(run.jitter_ms.values(), want.jitter_ms.values(), "{what}");
        assert_eq!(run.cpu_util.values(), want.cpu_util.values(), "{what}");
        assert_eq!(
            run.l2_miss_rate.values(),
            want.l2_miss_rate.values(),
            "{what}"
        );
        assert_eq!(run.packets_delivered, want.packets_delivered, "{what}");
    }
}

fn assert_same_client_runs(got: &[ClientRun], suite: &SuiteConfig) {
    let got_kinds: Vec<_> = got.iter().map(|r| r.kind).collect();
    assert_eq!(
        got_kinds,
        ClientKind::all(),
        "runs come back in table order"
    );
    for run in got {
        let mut c = ClientConfig::paper(run.kind, suite.seed);
        c.duration = suite.duration;
        let want = run_client(c);
        let what = format!("seed {} {:?}", suite.seed, run.kind);
        assert_eq!(run.packets, want.packets, "{what}");
        assert_eq!(run.frames_decoded, want.frames_decoded, "{what}");
        assert_eq!(run.bytes_stored, want.bytes_stored, "{what}");
        assert_eq!(run.bus_transactions, want.bus_transactions, "{what}");
        assert_eq!(run.cpu_util.values(), want.cpu_util.values(), "{what}");
        assert_eq!(
            run.l2_miss_rate.values(),
            want.l2_miss_rate.values(),
            "{what}"
        );
    }
}

/// The suite entry points run their variants concurrently; every run
/// they return must equal the same config run on its own.
#[test]
fn suite_entry_points_match_serial_runs() {
    for seed in [42, 7919] {
        let suite = SuiteConfig {
            duration: SimDuration::from_secs(2),
            seed,
        };
        assert_same_server_runs(
            &fig9_tab2(&suite).runs,
            &[
                ServerKind::Simple,
                ServerKind::Sendfile,
                ServerKind::Offloaded,
            ],
            &suite,
        );
        assert_same_server_runs(&fig10_tab3(&suite).runs, &ServerKind::all(), &suite);
        assert_same_client_runs(&tab4_client(&suite).runs, &suite);
    }
}
