//! The benchmark command.
//!
//! ```text
//! perfbench --workload <tivo_paper|runtime_stream|control_churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics of an untraced run; with
//! `--trace 1` they are the per-layer metrics of a traced run, and the
//! span log is written to `perfbench/out/`.

use std::process::ExitCode;
use std::time::Instant;

use hydra_perfbench::trace::Tracer;
use hydra_perfbench::{
    end_to_end, per_layer, result_json, run_workload, Budget, Metric, WORKLOADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {parallelism}}}",
        args.workload, args.seed, args.seconds, u8::from(args.trace)
    );

    let started = Instant::now();
    let (measured, mut metrics, errors) = if args.trace {
        // Same work twice: untraced for the baseline, then traced.
        let untraced = run_workload(
            &args.workload,
            args.seed,
            Budget::Seconds(args.seconds / 2.0),
            &mut Tracer::off(),
        );
        let mut tracer = Tracer::on();
        let traced = run_workload(
            &args.workload,
            args.seed,
            Budget::Rounds(untraced.rounds),
            &mut tracer,
        );
        let mut errors = untraced.errors.clone();
        errors.extend(traced.errors.iter().cloned());
        if traced.digest != untraced.digest {
            errors.push("traced run's simulated results differ from the untraced run's".into());
        }
        let metrics = per_layer(&traced, &untraced, &tracer);
        if let Err(e) = write_span_log(&args, &tracer) {
            errors.push(format!("writing the span log: {e}"));
        }
        (untraced, metrics, errors)
    } else {
        let m = run_workload(
            &args.workload,
            args.seed,
            Budget::Seconds(args.seconds),
            &mut Tracer::off(),
        );
        let metrics = end_to_end(&m);
        let errors = m.errors.clone();
        (m, metrics, errors)
    };
    if args.trace {
        metrics.insert(
            "host.available_parallelism",
            Metric {
                value: parallelism as f64,
                unit: "count",
            },
        );
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    eprintln!(
        "perfbench: {} rounds in {:.2} s; {}",
        measured.rounds,
        started.elapsed().as_secs_f64(),
        measured.digest
    );
    println!(
        "{}",
        result_json(
            errors.is_empty(),
            measured.attempted,
            measured.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

fn write_span_log(args: &Args, tracer: &Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(path, tracer.log_json())
}
