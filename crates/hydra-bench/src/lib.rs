//! # hydra-bench — benchmark harness
//!
//! Two entry points:
//!
//! * the **`repro` binary** (`cargo run -p hydra-bench --bin repro`)
//!   regenerates every table and figure of the paper on the simulated
//!   testbed and prints them in paper format; `--full` runs the paper's
//!   10-minute durations;
//! * the **Criterion benches** (`cargo bench -p hydra-bench`) measure the
//!   harness itself — one bench per table/figure plus the ablations
//!   DESIGN.md calls out (channel buffering policy, loading strategy,
//!   ILP vs greedy).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod channel_bench;
pub mod crossover_bench;
pub mod engine_bench;
pub mod lint;
pub mod report;

use hydra_sim::time::SimDuration;
use hydra_tivo::experiments::SuiteConfig;

/// The bench manifest: every `repro -- bench <name>` selector paired
/// with the committed report it regenerates at the workspace root.
///
/// `repro --help` lists these names, and the golden-artifact harness
/// (`tests/golden.rs`) fails on an entry with no golden row.
pub const BENCHES: &[(&str, &str)] = &[
    ("channel", "BENCH_channel.json"),
    ("engine", "BENCH_engine.json"),
    ("crossover", "BENCH_crossover.json"),
];

/// Runs the named bench and renders its report JSON, or `None` for a
/// name outside [`BENCHES`]. The `repro` binary's `bench` sub-command
/// dispatches through here, so the manifest and the CLI cannot drift.
#[must_use]
pub fn run_bench(name: &str) -> Option<String> {
    bench_renderer(name).map(|render| render())
}

/// The function that runs the named bench and renders its report.
fn bench_renderer(name: &str) -> Option<fn() -> String> {
    match name {
        "channel" => Some(|| channel_bench::render_json(&channel_bench::run_channel_bench())),
        "engine" => Some(|| engine_bench::render_json(&engine_bench::run_engine_bench())),
        "crossover" => {
            Some(|| crossover_bench::render_json(&crossover_bench::run_crossover_bench()))
        }
        _ => None,
    }
}

/// A short-duration suite configuration for benches: 6 simulated seconds
/// — enough for the pipelines to reach steady state *and* to land at
/// least one 5-second utilization/L2 sample window.
pub fn bench_suite() -> SuiteConfig {
    SuiteConfig {
        duration: SimDuration::from_secs(6),
        seed: 42,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_suite_is_short() {
        assert_eq!(bench_suite().duration.as_millis(), 6_000);
    }

    #[test]
    // The BENCH_*.json convention is deliberately case-sensitive: the
    // golden harness's orphan check matches it the same way.
    #[allow(clippy::case_sensitive_file_extension_comparisons)]
    fn every_manifest_row_dispatches_and_unknown_names_do_not() {
        for (name, report_file) in BENCHES {
            assert!(
                report_file.starts_with("BENCH_") && report_file.ends_with(".json"),
                "{report_file}: committed reports follow the BENCH_*.json convention"
            );
            // Running the bench here would be slow; the golden harness
            // runs every `repro bench <name>` row.
            assert!(
                bench_renderer(name).is_some(),
                "{name}: run_bench() cannot dispatch a manifest row"
            );
        }
        assert_eq!(run_bench("no-such-bench"), None);
    }
}
