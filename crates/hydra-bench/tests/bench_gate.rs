//! The channel bench's gate: its row of the artifact table
//! (`tests/artifacts/mod.rs`) against `BENCH_channel.json`, the budget
//! checks of `budgets/bench_channel.json`, and the scenario-specific
//! assertion that batching beats single messages.

mod artifacts;

use artifacts::{
    assert_budget, assert_row, budget_passes, each_line_trips_alone_past_its_tolerance,
    half_tolerance_drift_passes,
};
use hydra_bench::channel_bench::run_channel_bench;

const BUDGET: &str = "budgets/bench_channel.json";

#[test]
fn bench_results_stay_within_committed_baseline() {
    assert_budget(BUDGET, budget_passes);
}

#[test]
fn report_is_byte_identical_across_runs_and_matches_committed() {
    assert_row(&["bench", "channel"]);
}

#[test]
fn batched_throughput_beats_single_at_batch_eight_and_up() {
    let results = run_channel_bench();
    let single = results
        .iter()
        .find(|r| r.batch_size == 1)
        .expect("single scenario runs");
    for r in results.iter().filter(|r| r.batch_size >= 8) {
        assert!(
            r.throughput_bytes_per_sec > single.throughput_bytes_per_sec,
            "{} must beat single-message throughput ({} <= {})",
            r.name,
            r.throughput_bytes_per_sec,
            single.throughput_bytes_per_sec
        );
    }
}

#[test]
fn gate_fails_when_baseline_is_perturbed_beyond_tolerance() {
    assert_budget(BUDGET, each_line_trips_alone_past_its_tolerance);
}

#[test]
fn gate_tolerance_absorbs_small_drift() {
    assert_budget(BUDGET, half_tolerance_drift_passes);
}
