//! The engine bench's gate: its row of the artifact table
//! (`tests/artifacts/mod.rs`) against the sim fields of
//! `BENCH_engine.json`, the budget checks of `budgets/bench_engine.json`,
//! and the calendar-vs-heap speedup, gated as a ratio: the committed
//! report must show at least 2x, and a live run must never show the
//! calendar losing to the heap.
//!
//! The wall-clock fields are only meaningful when one bench runs at a
//! time, so every test runs its benches [`alone`]: the lock serializes
//! them across the test threads of this binary.

use std::sync::{Mutex, MutexGuard};

mod artifacts;

use artifacts::{
    assert_budget, assert_row, budget_passes, each_line_trips_alone_past_its_tolerance,
    half_tolerance_drift_passes,
};
use hydra_bench::engine_bench::EngineBench;
use hydra_bench::report::{read_u64, schema_version, SCHEMA_VERSION};

const BUDGET: &str = "budgets/bench_engine.json";
const COMMITTED_REPORT: &str = include_str!("../../../BENCH_engine.json");

/// Held for the length of one test's bench runs.
static BENCH_LOCK: Mutex<()> = Mutex::new(());

/// Keeps every other bench of this binary from running until dropped:
/// parallel runs share the cores and skew the wall ratios.
fn alone() -> MutexGuard<'static, ()> {
    // The lock guards no data, so a test that panicked holding it leaves
    // nothing to repair.
    BENCH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs the engine bench [`alone`].
fn run_engine_bench() -> EngineBench {
    let _alone = alone();
    hydra_bench::engine_bench::run_engine_bench()
}

#[test]
fn engine_results_stay_within_committed_baseline() {
    let _alone = alone();
    assert_budget(BUDGET, budget_passes);
}

#[test]
fn sim_fields_are_byte_identical_across_runs_and_match_committed() {
    let _alone = alone();
    assert_row(&["bench", "engine"]);
}

#[test]
fn committed_report_pins_the_headline_speedup() {
    // The acceptance bar lives in the committed artifact, not in a live
    // measurement: the checked-in release-build run must show the
    // calendar queue at >= 2x the heap's hold-model throughput.
    assert_eq!(schema_version(COMMITTED_REPORT), Some(SCHEMA_VERSION));
    let x100 = read_u64(COMMITTED_REPORT, "wall_calendar_vs_heap_x100")
        .expect("committed report carries the speedup ratio");
    assert!(
        x100 >= 200,
        "committed BENCH_engine.json must show >= 2x calendar-vs-heap ({x100} < 200)"
    );
}

#[test]
fn live_calendar_run_never_loses_to_the_heap() {
    // Lenient floor for live runs (debug builds, loaded CI machines):
    // both sides of the ratio are measured in the same process, so load
    // cancels — the calendar must at least match the heap.
    let bench = run_engine_bench();
    let x100 = bench.wall_speedup_x100();
    assert!(
        x100 >= 100,
        "calendar queue fell behind the binary heap ({x100} < 100)"
    );
}

#[test]
fn gate_fails_when_baseline_is_perturbed_beyond_tolerance() {
    let _alone = alone();
    assert_budget(BUDGET, each_line_trips_alone_past_its_tolerance);
}

#[test]
fn gate_tolerance_absorbs_small_drift() {
    let _alone = alone();
    assert_budget(BUDGET, half_tolerance_drift_passes);
}
