//! CLI contract of the `repro` binary: selector listing, unknown-selector
//! failure, `bench` meaning `bench channel`, and the pure, deterministic
//! JSON of the `bench` and `stats` selectors, checked through their rows
//! of the artifact table (`tests/artifacts/mod.rs`).

mod artifacts;

use std::process::{Command, Output};

use artifacts::{assert_clean, assert_row, assert_rows, Golden, Row, ROW};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn help_lists_every_selector_including_bench() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for selector in ["fig1", "fig9", "metrics", "trace", "bench"] {
        assert!(text.contains(selector), "--help must list '{selector}'");
    }
    let benches: Vec<&str> = hydra_bench::BENCHES.iter().map(|(b, _)| *b).collect();
    assert!(
        text.contains(&format!("bench [{}]", benches.join("|"))),
        "--help lists every bench of the manifest"
    );
}

#[test]
fn unknown_selector_exits_nonzero_with_usage_on_stderr() {
    let out = repro(&["no-such-figure"]);
    assert!(!out.status.success(), "unknown selector must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown selector 'no-such-figure'"));
    assert!(err.contains("usage: repro"), "usage goes to stderr");
    assert!(out.stdout.is_empty(), "nothing on stdout on failure");
}

#[test]
fn bench_alone_emits_pure_deterministic_json() {
    let bare = Row {
        args: &["bench"],
        golden: Golden::File("BENCH_channel.json"),
        ..ROW
    };
    assert_clean(&bare.check_output().1);
}

#[test]
fn bench_channel_subselector_matches_bare_bench() {
    let bare = repro(&["bench"]);
    let explicit = repro(&["bench", "channel"]);
    assert!(explicit.status.success());
    assert_eq!(
        bare.stdout, explicit.stdout,
        "`bench` and `bench channel` are the same report"
    );
}

#[test]
fn bench_engine_emits_json_with_stable_sim_fields() {
    assert_row(&["bench", "engine"]);
}

#[test]
fn stats_emits_pure_deterministic_timeline_json() {
    assert_row(&["stats"]);
}

#[test]
fn stats_faulted_is_deterministic_and_differs_from_clean() {
    // The clean row requires the post-crash NIC window the faulted row
    // must lack.
    assert_rows(|r| r.args == ["stats"] || r.args == ["stats", "faulted"]);
}

#[test]
fn stats_trace_renders_perfetto_counter_tracks() {
    assert_rows(|r| r.args.first() == Some(&"stats") && r.args.last() == Some(&"trace"));
}

#[test]
fn unknown_stats_subselector_exits_nonzero_with_usage() {
    let out = repro(&["stats", "no-such-mode"]);
    assert!(!out.status.success(), "unknown stats selector must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown stats selector 'no-such-mode'"));
    assert!(err.contains("usage: repro"), "usage goes to stderr");
    assert!(out.stdout.is_empty(), "nothing on stdout on failure");
}

#[test]
fn help_lists_stats_selector() {
    let out = repro(&["--help"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("stats"), "--help must list 'stats'");
    assert!(text.contains("telemetry timeline"));
}

#[test]
fn unknown_bench_subselector_exits_nonzero_with_usage() {
    let out = repro(&["bench", "no-such-bench"]);
    assert!(!out.status.success(), "unknown bench selector must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown bench selector 'no-such-bench'"));
    assert!(err.contains("usage: repro"), "usage goes to stderr");
    assert!(out.stdout.is_empty(), "nothing on stdout on failure");
}
