//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p hydra-bench --bin repro            # 60 s runs
//! cargo run --release -p hydra-bench --bin repro -- --full  # 600 s (paper)
//! cargo run --release -p hydra-bench --bin repro -- fig9    # one experiment
//! cargo run --release -p hydra-bench --bin repro -- trace > trace.json
//! ```
//!
//! Run with `--help` (or an unknown selector) for the full selector
//! list. `trace` alone prints nothing but the Chrome trace-event JSON of
//! the demo deployment, ready to pipe into a file and load in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use std::env;
use std::process::ExitCode;

use hydra_bench::{certify, channel_bench, engine_bench, lint};
use hydra_sim::time::SimDuration;
use hydra_tivo::demo::demo_deployment;
use hydra_tivo::experiments::{
    fig1, fig10_tab3, fig9_tab2, ilp_vs_greedy, tab4_client, SuiteConfig,
};
use hydra_tivo::faults::{fault_demo_plan, run_fault_demo};
use hydra_tivo::onload::compare_designs;
use hydra_tivo::playback::{run_record_playback, PlaybackConfig};
use hydra_tivo::stats::{run_stats_demo, stats_demo_plan};
use hydra_tivo::storage::{build_corpus, run_search, SearchKind};
use hydra_tivo::toe::{run_bulk_receive, TcpPlacement};
use hydra_tivo::virtualization::vm_demux_comparison;

/// Every selector the binary understands, with its one-line description.
const SELECTORS: &[(&str, &str)] = &[
    ("fig1", "the GHz/Gbps TCP processing model (Figure 1)"),
    ("fig9", "server jitter CDFs + Table 2 (alias: tab2)"),
    ("tab2", "alias for fig9"),
    ("fig10", "server CPU/L2 utilization + Table 3 (alias: tab3)"),
    ("tab3", "alias for fig10"),
    ("tab4", "user-space vs offloaded client, incl. client L2"),
    ("ilp", "exact ILP layout vs greedy heuristic"),
    ("playback", "record + playback through the smart disk"),
    ("vmdemux", "§8 extension: VM packet demultiplexing"),
    ("onload", "§1.1 offload vs onload comparison"),
    ("toe", "§1.1 TOE vs host TCP bulk receive"),
    ("search", "§8 extension: disk-side content search"),
    ("metrics", "demo deployment's observability snapshot"),
    (
        "trace",
        "demo deployment's Chrome trace-event JSON (pipe into Perfetto)",
    ),
    ("bench", "benchmark report JSON (BENCH_*.json)"),
    (
        "lint",
        "static deployment verification (JSON on stdout, non-zero on errors)",
    ),
    (
        "certify",
        "certify [set|path...]: quantitative bound certification (JSON on stdout, non-zero on errors)",
    ),
    (
        "faults",
        "replay a fault schedule on the demo deployment (JSON on stdout)",
    ),
    (
        "stats",
        "stats [faulted] [trace]: windowed telemetry timeline + channel cost profiles (JSON on stdout)",
    ),
];

fn usage() -> String {
    let mut out = String::from(
        "usage: repro [--full] [selector...]\n\n\
         With no selector every experiment runs. Flags:\n\
         \x20 --full    paper-length 600 s runs (default 60 s)\n\
         \x20 --help    this text\n\nSelectors:\n",
    );
    for (name, what) in SELECTORS {
        if *name == "bench" {
            let benches: Vec<&str> = hydra_bench::BENCHES.iter().map(|(b, _)| *b).collect();
            out.push_str(&format!(
                "  {name:<9} bench [{}]: {what}\n",
                benches.join("|")
            ));
        } else {
            out.push_str(&format!("  {name:<9} {what}\n"));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let full = args.iter().any(|a| a == "--full");
    let cfg = if full {
        SuiteConfig::paper_full()
    } else {
        SuiteConfig::default()
    };
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    // `lint [path...]` is its own sub-command: everything after `lint` is
    // a deployment file, not a selector. Canonical JSON goes to stdout
    // (pipe into a .json artifact), human-readable findings to stderr,
    // and the exit code is non-zero iff any error-severity diagnostic
    // fired — the contract the golden-artifact harness checks.
    if selected.first() == Some(&"lint") {
        let results = lint::run_lint(&selected[1..]);
        eprint!("{}", lint::render_human(&results));
        println!("{}", lint::render_json(&results));
        return if lint::any_errors(&results) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    // `certify [set|path...]` mirrors `lint` for the quantitative
    // passes: everything after `certify` names a built-in set (`demo`,
    // `tivo`, `stats`) or a deployment file. Canonical JSON — report
    // plus bound certificate — goes to stdout, human-readable findings
    // and bounds to stderr, and the exit code is non-zero iff any
    // error-severity diagnostic fired — the contract the golden
    // harness checks.
    if selected.first() == Some(&"certify") {
        let results = certify::run_certify(&selected[1..]);
        eprint!("{}", certify::render_human(&results));
        println!("{}", certify::render_json(&results));
        return if certify::any_errors(&results) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    // `faults [schedule-path] [trace]` is likewise its own sub-command:
    // it replays a fault schedule (the committed NIC-crash plan by
    // default, or a `.faults` file) on the fault demo deployment and
    // prints the canonical recovery JSON — byte-identical across runs of
    // the same plan, which is exactly what the golden harness diffs.
    // With `trace` it prints the recovery flight-recorder export instead.
    if selected.first() == Some(&"faults") {
        let rest = &selected[1..];
        let want_trace = rest.contains(&"trace");
        let path = rest.iter().find(|a| **a != "trace");
        let plan = match path {
            Some(p) => match std::fs::read_to_string(p) {
                Ok(text) => match hydra_sim::fault::FaultPlan::parse(&text) {
                    Ok(plan) => plan,
                    Err(e) => {
                        eprintln!("repro: bad fault schedule {p}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                Err(e) => {
                    eprintln!("repro: cannot read {p}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => fault_demo_plan(),
        };
        let (rt, json) = run_fault_demo(&plan);
        if want_trace {
            println!("{}", rt.trace_export());
        } else {
            print!("{json}");
        }
        return ExitCode::SUCCESS;
    }

    // `stats [faulted] [trace]` is its own sub-command: it drives the
    // telemetry scenario (1 ms windows over a 10 ms mixed workload) and
    // prints the canonical timeline + cost-profile JSON — per-device
    // utilization per window, per-channel queue depths and size-bucketed
    // latency quantiles. Byte-identical across runs, which is exactly
    // what the golden harness diffs. `faulted` replays it under the
    // committed crash/stall plan; `trace` prints the scenario's Chrome
    // trace export instead — the one whose windowed tracks render as
    // Perfetto counter graphs.
    if selected.first() == Some(&"stats") {
        let rest = &selected[1..];
        let want_trace = rest.contains(&"trace");
        let faulted = rest.contains(&"faulted");
        if rest.iter().any(|a| *a != "trace" && *a != "faulted") {
            eprintln!("repro: unknown stats selector '{}'\n", rest.join(" "));
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
        let plan;
        let (snap, json) = if faulted {
            plan = stats_demo_plan();
            run_stats_demo(Some(&plan))
        } else {
            run_stats_demo(None)
        };
        if want_trace {
            println!("{}", hydra_obs::export::chrome_trace(&snap));
        } else {
            print!("{json}");
        }
        return ExitCode::SUCCESS;
    }

    // `bench [<name>]` is its own sub-command: the report JSON goes to
    // stdout with no banner, ready to redirect into the committed
    // `BENCH_<name>.json`. Dispatch goes through the
    // `hydra_bench::BENCHES` manifest, so every committed report has a
    // selector by construction. Plain `bench` keeps its historical
    // meaning (the channel report).
    if selected.first() == Some(&"bench") {
        let name = match &selected[1..] {
            [] => "channel",
            [one] => *one,
            _ => "",
        };
        return match hydra_bench::run_bench(name) {
            Some(json) => {
                print!("{json}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "repro: unknown bench selector '{}' (known: {})\n",
                    selected[1..].join(" "),
                    hydra_bench::BENCHES
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                eprint!("{}", usage());
                ExitCode::FAILURE
            }
        };
    }

    let known = |name: &str| SELECTORS.iter().any(|(s, _)| *s == name);
    if let Some(bad) = selected.iter().find(|s| !known(s)) {
        eprintln!("repro: unknown selector '{bad}'\n");
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    }
    let want = |name: &str| selected.is_empty() || selected.contains(&name);

    // `trace` alone emits pure JSON on stdout — no banner, no prose —
    // so the output pipes straight into a .json file for Perfetto.
    if selected == ["trace"] {
        println!("{}", demo_deployment().trace_export());
        return ExitCode::SUCCESS;
    }

    println!(
        "HYDRA reproduction — simulated testbed, {} s runs, seed {}",
        cfg.duration.as_secs_f64(),
        cfg.seed
    );
    println!("(paper: Weinsberg et al., ASPLOS 2008)\n");

    if want("fig1") {
        println!("{}", fig1());
        println!();
    }
    if want("fig9") || want("tab2") {
        println!("{}", fig9_tab2(&cfg));
        println!();
    }
    if want("fig10") || want("tab3") {
        println!("{}", fig10_tab3(&cfg));
        println!();
    }
    if want("tab4") {
        println!("{}", tab4_client(&cfg));
        println!();
    }
    if want("ilp") {
        println!("{}", ilp_vs_greedy(cfg.seed, 40));
        println!();
    }
    if want("playback") {
        let run = run_record_playback(PlaybackConfig::default())
            .expect("playback pipeline must round-trip");
        println!("Record + playback (TiVo feature, §1/§6.3)");
        println!(
            "  {} frames recorded to NAS ({} bytes), {} played back",
            25, run.bytes_recorded, run.frames_played
        );
        let s = run.playback_gaps_ms.summary();
        println!(
            "  playback pacing: median {:.2} ms, std {:.3} ms; worst PSNR {:.1} dB\n",
            s.median, s.std_dev, run.worst_psnr_db
        );
    }
    if want("vmdemux") {
        println!("§8 extension — VM packet demultiplexing (host bridge vs NIC Offcode)");
        for run in vm_demux_comparison(cfg.seed, SimDuration::from_secs(10)) {
            println!("  {run}");
        }
        println!();
    }
    if want("onload") {
        println!("§1.1 — offload vs onload (1 kB packets at 100k pps)");
        for p in compare_designs(1024, 100_000.0) {
            println!("  {p}");
        }
        println!();
    }
    if want("toe") {
        println!("§1.1 — TOE vs host TCP (200 kB bulk receive, 2% segment loss)");
        let data: Vec<u8> = (0..200_000usize).map(|i| (i % 249) as u8).collect();
        for placement in TcpPlacement::all() {
            let run = run_bulk_receive(placement, &data, 0.02, cfg.seed);
            assert_eq!(run.delivered, data, "TCP must deliver exactly");
            println!("  {run}");
        }
        println!();
    }
    if want("search") {
        println!("§8 extension — disk-side content search (512 kB corpus, 6 signatures)");
        let needle = b"\x7fVIRUS_SIGNATURE";
        let corpus = build_corpus(512 * 1024, needle, 6, cfg.seed);
        for kind in SearchKind::all() {
            println!("  {}", run_search(kind, &corpus, needle, cfg.seed));
        }
        println!();
    }
    if want("bench") {
        println!("Channel data path — single vs batched (sim time)");
        for r in channel_bench::run_channel_bench() {
            println!(
                "  {:<8} {} msgs x {} B: {} ns ({} B/s, {} ns/msg)",
                r.name,
                r.messages,
                channel_bench::MSG_BYTES,
                r.elapsed_ns,
                r.throughput_bytes_per_sec,
                r.ns_per_message
            );
        }
        println!();
        println!("Engine core — calendar queue vs binary heap (wall clock)");
        let eng = engine_bench::run_engine_bench();
        for h in &eng.hold {
            println!(
                "  {:<16} {} ops @ {} pending: {} events/s",
                h.name,
                h.ops,
                h.pending,
                h.wall_events_per_sec()
            );
        }
        println!(
            "  speedup x100: {} (demo batched path: {} ns/msg)",
            eng.wall_speedup_x100(),
            eng.demo.wall_ns_per_message()
        );
        println!();
    }
    if want("metrics") || want("trace") {
        let rt = demo_deployment();
        if want("metrics") {
            println!("Observability — deployment pipeline + channel metrics snapshot");
            println!("{}", rt.metrics_snapshot());
        }
        if want("trace") {
            println!("Causal trace — Chrome trace-event JSON (load in Perfetto):");
            println!("{}", rt.trace_export());
        }
    }
    ExitCode::SUCCESS
}
