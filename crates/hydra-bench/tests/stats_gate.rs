//! The telemetry timeline's gate: its clean and faulted rows of the
//! artifact table (`tests/artifacts/mod.rs`), `budgets/demo_stats.json`,
//! and the scenario-specific assertions: every window reports
//! utilization and every channel a cost profile.

mod artifacts;

use artifacts::{assert_budget, assert_rows, budget_passes};
use hydra_devices::{DEVICE_BUSY_NS, LINK_BUSY_NS};
use hydra_tivo::stats::run_stats_demo;

#[test]
fn stats_scenario_stays_within_committed_budget() {
    assert_budget("budgets/demo_stats.json", budget_passes);
}

#[test]
fn stats_report_is_byte_identical_across_runs() {
    assert_rows(|r| r.args == ["stats"] || r.args == ["stats", "faulted"]);
}

#[test]
fn every_window_reports_utilization_and_every_channel_a_profile() {
    let (snap, json) = run_stats_demo(None);
    assert_eq!(snap.windows.len(), 10, "ten 1 ms windows over 10 ms");
    for (i, w) in snap.windows.iter().enumerate() {
        assert_eq!(w.index as usize, i);
        if i > 0 {
            assert_eq!(
                w.start_nanos,
                snap.windows[i - 1].end_nanos,
                "windows are contiguous"
            );
        }
        assert!(
            w.utilization_permille(DEVICE_BUSY_NS, "host").unwrap_or(0) > 0,
            "window {i}: the periodic host load registers"
        );
    }
    // The wire-occupancy counter reconciles: window deltas never exceed
    // the end-of-run total (the remainder landed after the last tick).
    let summed: u64 = snap
        .windows
        .iter()
        .map(|w| w.delta(LINK_BUSY_NS, "device-2"))
        .sum();
    let total = snap.counter(LINK_BUSY_NS, "device-2").unwrap_or(0);
    assert!(summed <= total && total > 0, "{summed} <= {total}");
    // Both channels render a cost profile with at least one size bucket.
    assert!(json.contains("\"provider\": \"zero-copy-dma\""));
    assert!(json.contains("\"provider\": \"kernel-copy\""));
}
