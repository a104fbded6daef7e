//! The stale-report failsafe: every committed `BENCH_*.json` at the
//! workspace root is named by a row of the artifact table
//! (`tests/artifacts/mod.rs`), and every [`hydra_bench::BENCHES`] entry
//! has a `bench <name>` row with its report and budget committed. A
//! bench someone adds without wiring the selector, or a report left
//! behind after a bench is removed, fails here.

mod artifacts;

use artifacts::{assert_clean, assert_rows, benches_without_rows, orphan_reports};
use hydra_bench::{run_bench, BENCHES};

#[test]
fn every_committed_report_has_a_manifest_row() {
    assert_clean(&orphan_reports());
}

#[test]
fn every_manifest_row_has_its_artifacts_committed() {
    assert_clean(&benches_without_rows());
}

#[test]
fn every_manifest_row_dispatches_through_run_bench() {
    assert_rows(|r| {
        r.args.len() == 2 && r.args[0] == "bench" && BENCHES.iter().any(|(b, _)| *b == r.args[1])
    });
    assert_eq!(run_bench("nonexistent"), None);
}
