//! The provider-crossover sweep's gate: its row of the artifact table
//! (`tests/artifacts/mod.rs`) against `BENCH_crossover.json`, the budget
//! checks of `budgets/bench_crossover.json`, and the scenario-specific
//! assertions: where the crossover points sit in the committed report,
//! and that the adaptive channel never costs more than the worst static
//! provider.

mod artifacts;

use artifacts::{
    assert_budget, assert_row, budget_passes, each_line_trips_alone_past_its_tolerance,
    half_tolerance_drift_passes,
};
use hydra_bench::crossover_bench::{run_crossover_bench, SIZES};
use hydra_bench::report::{read_u64, schema_version, SCHEMA_VERSION};

const BUDGET: &str = "budgets/bench_crossover.json";
const COMMITTED_REPORT: &str = include_str!("../../../BENCH_crossover.json");

#[test]
fn crossover_results_stay_within_committed_baseline() {
    assert_budget(BUDGET, budget_passes);
}

#[test]
fn report_is_byte_identical_across_runs_and_matches_committed() {
    assert_row(&["bench", "crossover"]);
}

#[test]
fn committed_report_pins_the_crossover_structure() {
    assert_eq!(schema_version(COMMITTED_REPORT), Some(SCHEMA_VERSION));
    let pio_to_db = read_u64(COMMITTED_REPORT, "pio_to_doorbell_bytes")
        .expect("committed report carries the first crossover point");
    let db_to_dma = read_u64(COMMITTED_REPORT, "doorbell_to_dma_bytes")
        .expect("committed report carries the second crossover point");
    let smallest = SIZES[0] as u64;
    let largest = *SIZES.last().unwrap() as u64;
    assert!(
        pio_to_db > smallest,
        "PIO must win at least the smallest size ({pio_to_db} <= {smallest})"
    );
    assert!(
        db_to_dma > pio_to_db,
        "the doorbell-batched ring must own a middle band ({db_to_dma} <= {pio_to_db})"
    );
    assert!(
        db_to_dma < largest,
        "DMA must win before the largest size ({db_to_dma} >= {largest})"
    );
    // The repriced layout exercise gave the NIC slot to the bulk node.
    assert_eq!(read_u64(COMMITTED_REPORT, "bulk_device"), Some(1));
    assert_eq!(read_u64(COMMITTED_REPORT, "chatty_device"), Some(0));
}

#[test]
fn adaptive_channel_never_costs_more_than_the_worst_static_provider() {
    let rep = run_crossover_bench();
    for &size in SIZES {
        let adaptive = rep
            .results
            .iter()
            .find(|r| r.provider == "adaptive" && r.bytes_per_message == size)
            .expect("adaptive run per size");
        let worst = rep
            .results
            .iter()
            .filter(|r| r.provider != "adaptive" && r.bytes_per_message == size)
            .map(|r| r.elapsed_ns)
            .max()
            .expect("forced runs per size");
        assert!(
            adaptive.elapsed_ns <= worst,
            "{size} B: adaptive {} ns > worst static {worst} ns",
            adaptive.elapsed_ns
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
