//! The benchmark's own sanity tests. Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use hydra_perfbench::trace::Tracer;
use hydra_perfbench::{end_to_end, layers, run_workload, Budget, Measured, WORKLOADS};

fn rounds(workload: &str, n: u64) -> Measured {
    run_workload(workload, 3, Budget::Rounds(n), &mut Tracer::off())
}

/// Simulated-time fields, counts and `paper_error_pct` repeat byte for
/// byte across two runs, traced or not.
#[test]
fn simulated_results_are_byte_identical_across_runs() {
    for w in WORKLOADS {
        let a = rounds(w, 1);
        let b = run_workload(w, 3, Budget::Rounds(1), &mut Tracer::on());
        assert!(a.errors.is_empty(), "{w}: {:?}", a.errors);
        assert!(!a.digest.is_empty(), "{w}: digest recorded");
        assert_eq!(a.digest, b.digest, "{w}: runs agree");
        assert_eq!(a.counts, b.counts, "{w}: counts agree");
        assert_eq!(a.attempted, b.attempted, "{w}: same work");
    }
    let a = rounds("tivo_paper", 1);
    assert!(a.digest.contains("paper_error_pct="));
}

/// Doubling the work roughly doubles the timed host time, so the
/// measured work was not optimized away.
#[test]
fn host_time_grows_linearly_with_work() {
    for (w, n) in [
        ("runtime_stream", 8),
        ("control_churn", 1),
        ("tivo_paper", 1),
    ] {
        let timed_ms = |k: u64| {
            (0..3)
                .map(|_| {
                    let m = rounds(w, k);
                    assert_eq!(m.rounds, k);
                    m.round_ms.iter().sum::<f64>()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let ratio = timed_ms(2 * n) / timed_ms(n);
        assert!(
            (1.4..2.8).contains(&ratio),
            "{w}: doubling work scaled host time by {ratio:.2}"
        );
    }
}

/// The result line carries exactly the metrics BENCHMARK.json declares.
#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names_in = |section: &str| -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = text[start..].find(']').map_or(text.len(), |e| start + e);
        text[start..end]
            .match_indices("\"name\": \"")
            .map(|(i, m)| {
                let rest = &text[start + i + m.len()..];
                rest[..rest.find('"').expect("closing quote")].to_owned()
            })
            .collect()
    };
    let mut e2e: Vec<String> = end_to_end(&rounds("control_churn", 1))
        .keys()
        .map(|k| (*k).to_owned())
        .collect();
    let mut declared = names_in("end_to_end");
    e2e.sort();
    declared.sort();
    assert_eq!(e2e, declared);
    let mut layer: Vec<String> = layers::PER_LAYER
        .iter()
        .map(|(n, _)| (*n).to_owned())
        .collect();
    let mut declared = names_in("per_layer");
    layer.sort();
    declared.sort();
    assert_eq!(layer, declared);
    let workloads = names_in("workloads");
    assert_eq!(workloads, WORKLOADS);
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hydra-perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

/// A traced run prints `available_parallelism`, the result line has
/// exactly the four keys, and bad arguments fail without a result.
#[test]
fn command_line_interface() {
    let out = bench(&[
        "--workload",
        "control_churn",
        "--seed",
        "5",
        "--seconds",
        "0.1",
        "--trace",
        "1",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].contains("\"available_parallelism\": "));
    let last = lines.last().expect("result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(last.contains("\"failed\": 0, \"metrics\": {"));
    assert!(last.contains("\"host.available_parallelism\": {\"value\": "));

    let out = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
