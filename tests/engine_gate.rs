//! The engine-core performance regression gate (tier 1).
//!
//! `budgets/bench_engine.json` is the committed baseline for the
//! scheduler hold model, the end-to-end churn simulation, and the demo
//! deployment's batched message loop; `BENCH_engine.json` at the
//! workspace root is the committed rendering of the report. The report
//! mixes deterministic sim fields with `wall_`-prefixed wall-clock
//! measurements, so the byte comparisons here (and in CI's
//! `engine-gate` job, which uses `grep -v '"wall_'`) strip exactly the
//! wall lines first. The calendar-vs-heap speedup is gated as a ratio:
//! the *committed* report must show at least 2x, and live runs must
//! never show the calendar losing to the heap.
//!
//! The wall-clock fields are only meaningful when one bench runs at a
//! time, so every test takes its runs through [`run_engine_bench`] here,
//! which serializes them across the test threads of this binary.

use std::sync::Mutex;

use hydra::obs::{check_budget, parse_budget};
use hydra_bench::engine_bench::{check_engine_bench, engine_snapshot, render_json, EngineBench};
use hydra_bench::report::{read_u64, schema_version, sim_fields, SCHEMA_VERSION};

const BASELINE: &str = include_str!("../budgets/bench_engine.json");
const COMMITTED_REPORT: &str = include_str!("../BENCH_engine.json");

/// Held for the length of one bench run.
static BENCH_LOCK: Mutex<()> = Mutex::new(());

/// Runs the engine bench with no other bench of this binary running
/// beside it: parallel runs share the cores and skew the wall ratios.
fn run_engine_bench() -> EngineBench {
    // The lock guards no data, so a test that panicked holding it leaves
    // nothing to repair.
    let _alone = BENCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    hydra_bench::engine_bench::run_engine_bench()
}

#[test]
fn engine_results_stay_within_committed_baseline() {
    let violations = check_engine_bench(&run_engine_bench(), BASELINE).expect("baseline parses");
    assert!(
        violations.is_empty(),
        "engine bench regressions:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn sim_fields_are_byte_identical_across_runs_and_match_committed() {
    let a = render_json(&run_engine_bench());
    let b = render_json(&run_engine_bench());
    assert_eq!(
        sim_fields(&a),
        sim_fields(&b),
        "sim fields are deterministic"
    );
    assert_eq!(
        sim_fields(&a),
        sim_fields(COMMITTED_REPORT),
        "BENCH_engine.json is stale — regenerate with \
         `cargo run --release -p hydra-bench --bin repro -- bench engine > BENCH_engine.json`"
    );
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
    // Perturb the baseline instead of the code: flip one bit of the
    // committed churn checksum with zero tolerance. The gate must report
    // exactly that line.
    let mut spec = parse_budget(BASELINE).expect("committed baseline parses");
    let line = spec
        .counters
        .iter_mut()
        .find(|c| c.name == "bench.checksum" && c.label.as_deref() == Some("churn_calendar"))
        .expect("baseline budgets the calendar checksum");
    line.expect ^= 1;
    line.tolerance = 0;
    let snap = engine_snapshot(&run_engine_bench());
    let violations = check_budget(&snap, &spec);
    assert_eq!(violations.len(), 1, "exactly the perturbed line fails");
    assert_eq!(violations[0].name, "bench.checksum");
    assert_eq!(violations[0].label.as_deref(), Some("churn_calendar"));
}

#[test]
fn gate_tolerance_absorbs_small_drift() {
    let mut spec = parse_budget(BASELINE).expect("committed baseline parses");
    for line in &mut spec.counters {
        line.expect += line.tolerance / 2;
    }
    let snap = engine_snapshot(&run_engine_bench());
    assert!(check_budget(&snap, &spec).is_empty());
}
