//! The golden-artifact harness: every row of the artifact table
//! (`tests/artifacts/mod.rs`) and every committed budget, checked the
//! same way in one loop.
//!
//! It also fails on a committed `BENCH_*.json` or `budgets/*.json` that
//! no row names, and on a [`hydra_bench::BENCHES`] entry with no row.
//! The fresh outputs land in `CARGO_TARGET_TMPDIR/golden/`.
//!
//! Rows run one after another in a single test, so the engine bench's
//! wall-clock fields never share the cores with another bench run.
//!
//! ```text
//! cargo test --release -p hydra-bench --test golden
//! ```

mod artifacts;

use std::fs;
use std::path::Path;

use artifacts::{
    benches_without_rows, every_budget_check, orphan_budgets, orphan_reports, Budget, ROWS,
};

#[test]
fn every_repro_artifact_matches_its_row() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    fs::create_dir_all(&out_dir).expect("golden output dir");
    let mut failures = Vec::new();
    for row in ROWS {
        let (fresh, row_failures) = row.check_output();
        let slug: String = row
            .args
            .join(" ")
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        fs::write(out_dir.join(format!("{slug}.json")), &fresh).expect("fresh output written");
        failures.extend(row_failures);
        if let Some(Budget(path, snapshot)) = row.budget {
            failures.extend(every_budget_check(path, &snapshot()));
        }
    }
    failures.extend(benches_without_rows());
    failures.extend(orphan_reports());
    failures.extend(orphan_budgets());

    assert!(
        failures.is_empty(),
        "{} golden failure(s); fresh outputs in {}:\n  {}",
        failures.len(),
        out_dir.display(),
        failures.join("\n  ")
    );
}
