//! The table of every artifact `repro` emits, and the checks every row
//! and every committed budget gets.
//!
//! A row's output check spawns the `repro` binary twice from the
//! workspace root and requires that:
//!
//! * the exit status is the one the row expects;
//! * both runs print the same bytes (after dropping `wall_` lines for a
//!   [`Golden::SimFields`] row);
//! * the output equals its committed file or the output of another row;
//! * it holds every required string and none of the forbidden ones.
//!
//! A row's committed budget is named after its file and passes against
//! a fresh snapshot; each line still passes with `expect` moved to its
//! tolerance and trips alone once moved past it; a half-tolerance shift
//! of every line still passes; and an unknown counter reads as 0 and
//! fails.
//!
//! `tests/golden.rs` runs every row and every budget check in one loop.
//! The gate tests beside it run the rows and checks of one artifact
//! each, so a failure names the artifact it belongs to.

// Each test binary uses the part of the table it gates.
#![allow(dead_code)]

use std::borrow::Cow;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use hydra_bench::report::{schema_version, sim_fields, SCHEMA_VERSION};
use hydra_bench::{channel_bench, crossover_bench, engine_bench, BENCHES};
use hydra_obs::budget::{check_budget, parse_budget, BudgetSpec, CounterBudget};
use hydra_obs::MetricsSnapshot;
use hydra_tivo::demo::demo_deployment;
use hydra_tivo::faults::{fault_demo_plan, run_fault_demo};
use hydra_tivo::stats::run_stats_demo;

/// What a row's output must equal.
pub enum Golden {
    /// Nothing beyond the double-run comparison.
    Fresh,
    /// The committed file, byte for byte.
    File(&'static str),
    /// The committed file, both sides without their `wall_` lines.
    SimFields(&'static str),
    /// The output of the row with these `repro` arguments.
    SameAs(&'static [&'static str]),
}

/// A committed budget file and the function that builds the snapshot it
/// is checked against.
#[derive(Clone, Copy)]
pub struct Budget(pub &'static str, pub fn() -> MetricsSnapshot);

/// One artifact `repro` emits.
pub struct Row {
    /// The `repro` arguments.
    pub args: &'static [&'static str],
    /// Whether `repro` must exit with success.
    pub success: bool,
    pub golden: Golden,
    pub budget: Option<Budget>,
    /// Strings the output must contain.
    pub contains: &'static [&'static str],
    /// Strings the output must not contain.
    pub lacks: &'static [&'static str],
}

/// The defaults rows override.
pub const ROW: Row = Row {
    args: &[],
    success: true,
    golden: Golden::Fresh,
    budget: None,
    contains: &[],
    lacks: &[],
};

const FAULT_SCHEDULE: &str = "fixtures/faults/nic_crash.faults";

/// The window after the stats scenario's 4 ms NIC crash still carries
/// NIC busy time in the clean run and none in the faulted run.
const NIC_BUSY_AFTER_CRASH: &str =
    "\"end_ns\": 5000000, \"utilization\": [{\"name\": \"device.busy_ns\", \"label\": \"device-1\"";
const NIC_TRACK_AFTER_CRASH: &str =
    "\"name\":\"device.busy_ns{device-1}\",\"ph\":\"C\",\"ts\":5000.000";

pub const ROWS: &[Row] = &[
    Row {
        args: &["bench", "channel"],
        golden: Golden::File("BENCH_channel.json"),
        budget: Some(Budget("budgets/bench_channel.json", || {
            channel_bench::bench_snapshot(&channel_bench::run_channel_bench())
        })),
        ..ROW
    },
    Row {
        args: &["bench", "engine"],
        golden: Golden::SimFields("BENCH_engine.json"),
        budget: Some(Budget("budgets/bench_engine.json", || {
            engine_bench::engine_snapshot(&engine_bench::run_engine_bench())
        })),
        contains: &["\"wall_elapsed_ns\""],
        ..ROW
    },
    Row {
        args: &["bench", "crossover"],
        golden: Golden::File("BENCH_crossover.json"),
        budget: Some(Budget("budgets/bench_crossover.json", || {
            crossover_bench::bench_snapshot(&crossover_bench::run_crossover_bench())
        })),
        contains: &[
            "\"pio_to_doorbell_bytes\": 256",
            "\"doorbell_to_dma_bytes\": 65536",
            "\"bulk_device\": 1",
        ],
        lacks: &["\"wall_"],
        ..ROW
    },
    Row {
        args: &["stats"],
        budget: Some(Budget("budgets/demo_stats.json", || run_stats_demo(None).0)),
        contains: &[
            "\"schema\": 1",
            "\"window_ns\": 1000000",
            "\"label\": \"device-1\"",
            "\"label\": \"host\"",
            "\"p50_ns\"",
            "\"p99_ns\"",
            "\"bucket_bytes\": 16384",
            NIC_BUSY_AFTER_CRASH,
        ],
        ..ROW
    },
    Row {
        args: &["stats", "faulted"],
        lacks: &[NIC_BUSY_AFTER_CRASH],
        ..ROW
    },
    Row {
        args: &["stats", "trace"],
        contains: &[
            "\"ph\":\"C\"",
            "device.busy_ns",
            "channel.queue_depth",
            NIC_TRACK_AFTER_CRASH,
        ],
        ..ROW
    },
    Row {
        args: &["stats", "faulted", "trace"],
        contains: &["\"ph\":\"C\""],
        lacks: &[NIC_TRACK_AFTER_CRASH],
        ..ROW
    },
    Row {
        args: &["lint"],
        contains: &["\"errors\":0"],
        ..ROW
    },
    Row {
        args: &["lint", "fixtures/gang_cycle.xml"],
        success: false,
        contains: &["\"code\":\"HV010\",\"severity\":\"error\""],
        ..ROW
    },
    Row {
        args: &["lint", "fixtures/disjoint_pull.xml"],
        success: false,
        contains: &["\"code\":\"HV012\",\"severity\":\"error\""],
        ..ROW
    },
    Row {
        args: &["lint", "fixtures/overcommit.xml"],
        success: false,
        contains: &["\"code\":\"HV020\",\"severity\":\"error\""],
        ..ROW
    },
    Row {
        args: &["certify"],
        contains: &[
            "\"certificate\"",
            "\"queue_bound\"",
            "\"latency_bound_ns\"",
            "\"permille\"",
            "\"chains\"",
        ],
        ..ROW
    },
    Row {
        args: &["certify", "fixtures/certify/queue_overflow.xml"],
        success: false,
        contains: &["\"code\":\"HV040\",\"severity\":\"error\""],
        ..ROW
    },
    Row {
        args: &["certify", "fixtures/certify/utilization_overrun.xml"],
        success: false,
        contains: &["\"code\":\"HV042\",\"severity\":\"error\""],
        ..ROW
    },
    Row {
        args: &["certify", "fixtures/certify/ring_write_race.xml"],
        success: false,
        contains: &["\"code\":\"HV050\",\"severity\":\"error\""],
        ..ROW
    },
    Row {
        args: &["faults", FAULT_SCHEDULE],
        contains: &["\"audit\": []", "\"constraints_ok\": true"],
        lacks: &["\"device\": \"lost\""],
        ..ROW
    },
    Row {
        args: &["faults"],
        golden: Golden::SameAs(&["faults", FAULT_SCHEDULE]),
        budget: Some(Budget("budgets/demo_recovery.json", || {
            run_fault_demo(&fault_demo_plan()).0.metrics_snapshot()
        })),
        ..ROW
    },
    Row {
        args: &["faults", FAULT_SCHEDULE, "trace"],
        contains: &["\"recover.migrate\""],
        ..ROW
    },
    Row {
        args: &["trace"],
        budget: Some(Budget("budgets/demo_deployment.json", || {
            demo_deployment().metrics_snapshot()
        })),
        contains: &[
            "\"traceEvents\"",
            "\"name\":\"channel.send\"",
            "\"name\":\"provider.hop\"",
            "\"name\":\"channel.recv\"",
        ],
        ..ROW
    },
];

impl Row {
    /// The committed file the output must equal, if any.
    pub fn committed(&self) -> Option<&'static str> {
        match self.golden {
            Golden::File(path) | Golden::SimFields(path) => Some(path),
            Golden::Fresh | Golden::SameAs(_) => None,
        }
    }

    /// The part of the output two runs must reproduce byte for byte.
    fn stable<'a>(&self, out: &'a str) -> Cow<'a, str> {
        match self.golden {
            Golden::SimFields(_) => sim_fields(out).into(),
            _ => out.into(),
        }
    }

    /// Runs `repro` twice with this row's arguments and returns the
    /// fresh output with every way it departs from the row.
    pub fn check_output(&self) -> (String, Vec<String>) {
        let name = self.args.join(" ");
        let mut failures = Vec::new();
        let (ok, fresh) = repro(self.args);
        if ok != self.success {
            failures.push(format!(
                "repro {name}: exit success {ok}, want {}",
                self.success
            ));
        }
        if !fresh.starts_with('{') {
            failures.push(format!("repro {name}: stdout is not pure JSON"));
        }
        let (_, again) = repro(self.args);
        if self.stable(&fresh) != self.stable(&again) {
            failures.push(format!(
                "repro {name}: two runs differ: {}",
                first_difference(&self.stable(&fresh), &self.stable(&again))
            ));
        }
        let expected = match self.golden {
            Golden::Fresh => None,
            Golden::File(path) | Golden::SimFields(path) => Some((path.to_owned(), read(path))),
            Golden::SameAs(args) => Some((format!("repro {}", args.join(" ")), repro(args).1)),
        };
        if let Some((what, expected)) = expected {
            if self.stable(&expected) != self.stable(&fresh) {
                failures.push(format!(
                    "repro {name}: differs from {what}: {}",
                    first_difference(&self.stable(&expected), &self.stable(&fresh))
                ));
            }
        }
        for s in self.contains {
            if !fresh.contains(s) {
                failures.push(format!("repro {name}: missing {s}"));
            }
        }
        for s in self.lacks {
            if fresh.contains(s) {
                failures.push(format!("repro {name}: must not contain {s}"));
            }
        }
        (fresh, failures)
    }
}

/// The row whose `repro` arguments are `args`.
pub fn row(args: &[&str]) -> &'static Row {
    ROWS.iter()
        .find(|r| r.args == args)
        .unwrap_or_else(|| panic!("no row for repro {}", args.join(" ")))
}

/// Panics with every failure, if there is any.
pub fn assert_clean(failures: &[String]) {
    assert!(
        failures.is_empty(),
        "{} failure(s):\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

/// Checks the output of every row `pick` selects, and that it selects
/// at least one.
pub fn assert_rows(pick: impl Fn(&Row) -> bool) {
    let picked: Vec<&Row> = ROWS.iter().filter(|r| pick(r)).collect();
    assert!(!picked.is_empty(), "no row picked");
    let failures: Vec<String> = picked.iter().flat_map(|r| r.check_output().1).collect();
    assert_clean(&failures);
}

/// Checks the output of the row whose `repro` arguments are `args`.
pub fn assert_row(args: &[&str]) {
    assert_rows(|r| r.args == args);
}

/// Runs one budget check against the budget committed at `path` and a
/// fresh snapshot.
pub fn assert_budget(path: &str, check: fn(&str, &MetricsSnapshot) -> Vec<String>) {
    let Budget(path, snapshot) = budget(path);
    assert_clean(&check(path, &snapshot()));
}

/// The budget committed at `path`, as a row names it.
pub fn budget(path: &str) -> Budget {
    ROWS.iter()
        .filter_map(|r| r.budget)
        .find(|b| b.0 == path)
        .unwrap_or_else(|| panic!("no row names budget {path}"))
}

pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &str) -> String {
    fs::read_to_string(workspace_root().join(path))
        .unwrap_or_else(|e| panic!("{path}: cannot read: {e}"))
}

/// Runs `repro` from the workspace root: (exit success, stdout).
fn repro(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("repro binary runs");
    let stdout = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    (out.status.success(), stdout)
}

/// The first line where `fresh` departs from `expected`.
fn first_difference(expected: &str, fresh: &str) -> String {
    let mut fresh_lines = fresh.lines();
    for (n, want) in expected.lines().enumerate() {
        match fresh_lines.next() {
            Some(got) if got == want => {}
            got => return format!("line {}: expected {want:?}, got {got:?}", n + 1),
        }
    }
    match fresh_lines.next() {
        Some(extra) => format!("extra line {extra:?}"),
        None => "trailing bytes differ".to_owned(),
    }
}

/// The value `line` reads from `snap`.
fn actual(snap: &MetricsSnapshot, line: &CounterBudget) -> u64 {
    match &line.label {
        Some(label) => snap.counter(&line.name, label).unwrap_or(0),
        None => snap.counter_total(&line.name),
    }
}

/// `spec` with line `i` moved to `distance` from the snapshot's `value`,
/// on the side its `expect` already sits (the other side if that one
/// would overflow).
fn moved(spec: &BudgetSpec, i: usize, value: u64, distance: u64) -> BudgetSpec {
    let mut spec = spec.clone();
    let line = &mut spec.counters[i];
    let (below, above) = (value.checked_sub(distance), value.checked_add(distance));
    line.expect = if line.expect < value {
        below.or(above)
    } else {
        above.or(below)
    }
    .expect("u64 has room on one side");
    spec
}

fn parse(path: &str) -> BudgetSpec {
    parse_budget(&read(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The budget at `path` is named after its file and passes.
pub fn budget_passes(path: &str, snap: &MetricsSnapshot) -> Vec<String> {
    let spec = parse(path);
    let mut failures = Vec::new();
    let stem = path
        .strip_prefix("budgets/")
        .and_then(|p| p.strip_suffix(".json"));
    if stem.map(|stem| stem.replace('_', "-")) != Some(spec.name.clone()) {
        failures.push(format!("{path}: budget is named {:?}", spec.name));
    }
    for v in check_budget(snap, &spec) {
        failures.push(format!("{path}: {v}"));
    }
    failures
}

/// Each line still passes with `expect` moved to its tolerance, away
/// from the snapshot's value, and trips alone once moved past it.
pub fn each_line_trips_alone_past_its_tolerance(path: &str, snap: &MetricsSnapshot) -> Vec<String> {
    let spec = parse(path);
    let mut failures = Vec::new();
    for (i, line) in spec.counters.iter().enumerate() {
        let value = actual(snap, line);
        let at_edge = check_budget(snap, &moved(&spec, i, value, line.tolerance));
        let past = check_budget(snap, &moved(&spec, i, value, line.tolerance + 1));
        let trips_only_this_line = matches!(
            past.as_slice(),
            [v] if v.name == line.name && v.label == line.label
        );
        if !at_edge.is_empty() || !trips_only_this_line {
            failures.push(format!(
                "{path}: {}{{{}}} must pass at its tolerance and trip alone past it, \
                 got {at_edge:?} and {past:?}",
                line.name,
                line.label.as_deref().unwrap_or("*"),
            ));
        }
    }
    failures
}

/// Shifting every line by half its tolerance still passes.
pub fn half_tolerance_drift_passes(path: &str, snap: &MetricsSnapshot) -> Vec<String> {
    let mut shifted = parse(path);
    for line in &mut shifted.counters {
        line.expect += line.tolerance / 2;
    }
    check_budget(snap, &shifted)
        .into_iter()
        .map(|v| format!("{path}: half-tolerance drift must pass: {v}"))
        .collect()
}

/// A counter the snapshot does not carry reads as 0 and fails.
pub fn unknown_counter_fails(path: &str, snap: &MetricsSnapshot) -> Vec<String> {
    let mut unknown = parse(path);
    unknown.counters.push(CounterBudget {
        name: "no.such.counter".into(),
        label: None,
        expect: 7,
        tolerance: 0,
    });
    let violations = check_budget(snap, &unknown);
    if matches!(violations.as_slice(), [v] if v.name == "no.such.counter" && v.actual == 0) {
        Vec::new()
    } else {
        vec![format!(
            "{path}: an unknown counter must read as 0 and fail, got {violations:?}"
        )]
    }
}

/// Every budget check, the perturbing ones only once the budget passes.
pub fn every_budget_check(path: &str, snap: &MetricsSnapshot) -> Vec<String> {
    let failures = budget_passes(path, snap);
    if !failures.is_empty() {
        return failures;
    }
    let checks: [fn(&str, &MetricsSnapshot) -> Vec<String>; 3] = [
        each_line_trips_alone_past_its_tolerance,
        half_tolerance_drift_passes,
        unknown_counter_fails,
    ];
    checks.iter().flat_map(|check| check(path, snap)).collect()
}

/// Committed files matching `prefix*.json` in `dir` that no row names.
#[allow(clippy::case_sensitive_file_extension_comparisons)]
fn orphans(dir: &str, prefix: &str, named: &[&str]) -> Vec<String> {
    let mut found: Vec<String> = fs::read_dir(workspace_root().join(dir))
        .unwrap_or_else(|e| panic!("{dir}: cannot list: {e}"))
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with(prefix) && n.ends_with(".json"))
        .map(|n| if dir == "." { n } else { format!("{dir}/{n}") })
        .filter(|path| !named.contains(&path.as_str()))
        .map(|path| format!("{path}: committed but no golden row names it"))
        .collect();
    found.sort();
    found
}

/// Root `BENCH_*.json` reports that no row names.
pub fn orphan_reports() -> Vec<String> {
    let reports: Vec<&str> = ROWS.iter().filter_map(Row::committed).collect();
    orphans(".", "BENCH_", &reports)
}

/// `budgets/*.json` files that no row names.
pub fn orphan_budgets() -> Vec<String> {
    let budgets: Vec<&str> = ROWS.iter().filter_map(|r| r.budget.map(|b| b.0)).collect();
    orphans("budgets", "", &budgets)
}

/// Every [`BENCHES`] entry has a `bench <name>` row naming its committed
/// report, in the shared schema, and its `budgets/bench_<name>.json`.
pub fn benches_without_rows() -> Vec<String> {
    let mut failures = Vec::new();
    for (name, file) in BENCHES {
        let budget = format!("budgets/bench_{name}.json");
        let has_row = ROWS.iter().any(|r| {
            r.args == ["bench", name]
                && r.committed() == Some(file)
                && r.budget.map(|b| b.0) == Some(budget.as_str())
        });
        if !has_row {
            failures.push(format!(
                "BENCHES row {name} has no golden row naming {file} and {budget}"
            ));
        } else if schema_version(&read(file)) != Some(SCHEMA_VERSION) {
            failures.push(format!("{file}: schema is not version {SCHEMA_VERSION}"));
        }
    }
    failures
}
