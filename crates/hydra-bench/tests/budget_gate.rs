//! The demo deployment's metrics-budget gate: the budget checks of the
//! artifact table (`tests/artifacts/mod.rs`) on
//! `budgets/demo_deployment.json`. Every snapshot is deterministic, so a
//! change that alters channel traffic, provider selection, solver effort
//! or loader work beyond the per-counter tolerances fails here.

mod artifacts;

use artifacts::{
    assert_budget, budget_passes, each_line_trips_alone_past_its_tolerance,
    half_tolerance_drift_passes, unknown_counter_fails,
};

const BUDGET: &str = "budgets/demo_deployment.json";

#[test]
fn demo_deployment_stays_within_committed_budget() {
    assert_budget(BUDGET, budget_passes);
}

#[test]
fn gate_fails_when_a_counter_drifts_beyond_tolerance() {
    assert_budget(BUDGET, each_line_trips_alone_past_its_tolerance);
}

#[test]
fn gate_tolerance_absorbs_small_drift() {
    assert_budget(BUDGET, half_tolerance_drift_passes);
}

#[test]
fn vanished_instrumentation_reads_as_zero_and_fails() {
    assert_budget(BUDGET, unknown_counter_fails);
}
