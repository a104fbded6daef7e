//! Source-level regression lint: no `HashMap<Guid, …>` on hot paths.
//!
//! GUID-keyed `HashMap`s hash a `u64` on every lookup and iterate in
//! nondeterministic order — both properties this codebase has had to
//! engineer out of the send/recv/dispatch paths (dense-id `Vec` tables
//! in the channel executive, `BTreeMap`s where ordered iteration leaks
//! into reports). This lint pins the status quo: the only permitted
//! `HashMap<Guid` uses are the runtime's *control-plane* tables (the
//! Offcode depot and the deployed-instance index, touched per
//! deployment, not per message) and the layout builder (runs once per
//! solve). Adding one anywhere else — in particular in `channel.rs`,
//! `call.rs`, or any per-message module — fails this test and should be
//! a dense index or `BTreeMap` instead.
//!
//! The same scan keeps two shared helpers from growing copies again: the
//! bare `class-{id}` device-class spec is `DeviceClassSpec::of`, and JSON
//! strings are escaped by `hydra_obs::json_str` (plus the one copy in
//! `hydra-verify`, which does not depend on `hydra-obs`).

use std::fs;
use std::path::{Path, PathBuf};

/// Files allowed to hold `HashMap<Guid` — control-plane only.
const ALLOWLIST: &[&str] = &[
    "crates/hydra-core/src/runtime.rs",
    "crates/hydra-core/src/layout.rs",
];

/// Files allowed to hold a JSON string escaper.
const ESCAPERS: &[&str] = &[
    "crates/hydra-obs/src/snapshot.rs",
    "crates/hydra-verify/src/diag.rs",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `dirs`, as `(path relative to the workspace
/// root with `/` separators, contents)`.
fn workspace_sources(dirs: &[&str]) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in dirs {
        rust_sources(&root.join(dir), &mut sources);
    }
    sources
        .into_iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .expect("source under workspace root")
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&path).expect("source file is readable");
            (rel, text)
        })
        .collect()
}

#[test]
fn shared_helpers_are_not_copied() {
    // Built at run time so this file does not match its own needles.
    let class_helper = ["fn class(id: u32)", " -> DeviceClassSpec"].concat();
    let escaper_arm = ["'\"' => out.push_str(", "\"\\\\\\\"\")"].concat();
    let sources = workspace_sources(&["crates", "tests"]);
    assert!(sources.len() > 50, "the source tree was scanned");

    let mut violations = Vec::new();
    for (rel, text) in &sources {
        for (i, line) in text.lines().enumerate() {
            let copy = if line.contains(&class_helper) {
                "a private class-{id} spec (use DeviceClassSpec::of)"
            } else if line.contains(&escaper_arm) && !ESCAPERS.contains(&rel.as_str()) {
                "a JSON string escaper (use hydra_obs::json_str)"
            } else {
                continue;
            };
            violations.push(format!("{rel}:{}: {copy}: {}", i + 1, line.trim()));
        }
    }
    assert!(
        violations.is_empty(),
        "copies of shared helpers:\n{}",
        violations.join("\n")
    );
    for rel in ESCAPERS {
        let (_, text) = sources
            .iter()
            .find(|(r, _)| r == rel)
            .expect("allowlisted escaper file exists");
        assert!(
            text.contains(&escaper_arm),
            "{rel} no longer escapes JSON strings — drop it from ESCAPERS"
        );
    }
}

#[test]
fn guid_keyed_hashmaps_stay_off_the_hot_paths() {
    let sources = workspace_sources(&["crates"]);
    assert!(sources.len() > 50, "the crate tree was scanned");

    let mut violations = Vec::new();
    for (rel, text) in &sources {
        for (i, line) in text.lines().enumerate() {
            if line.contains("HashMap<Guid") && !ALLOWLIST.contains(&rel.as_str()) {
                violations.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "GUID-keyed HashMaps on non-allowlisted paths (use a dense index \
         or BTreeMap, or extend the allowlist with a control-plane \
         justification):\n{}",
        violations.join("\n")
    );
}

#[test]
fn the_allowlist_is_not_stale() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in ALLOWLIST {
        let text = fs::read_to_string(root.join(rel)).expect("allowlisted file exists");
        assert!(
            text.contains("HashMap<Guid"),
            "{rel} no longer uses HashMap<Guid — drop it from the allowlist"
        );
    }
}
