//! The recovery solver-scaling gate (tier 1).
//!
//! Incremental repair exists so a single-device failure does not pay a
//! full from-scratch ILP. This gate pins that property on the committed
//! fault-demo scenario: on the demo's recovery graph, the repair search
//! explores strictly fewer branch-and-bound nodes than a from-scratch
//! exact solve of the same post-failure problem, while landing on an
//! objective-equal layout. The demo's recovery counters are also held
//! to `budgets/demo_recovery.json` (tolerance 0), so a change that
//! silently degrades repair into a full re-solve fails here, with the
//! budget checks of the artifact table (`tests/artifacts/mod.rs`).

mod artifacts;

use artifacts::{assert_budget, budget_passes, each_line_trips_alone_past_its_tolerance};
use hydra_core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra_core::layout::{GraphDelta, LayoutGraph, Objective};
use hydra_tivo::faults::fault_demo_odfs;

const BUDGET: &str = "budgets/demo_recovery.json";

fn demo_registry() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::smart_disk()); // dev2
    reg.install(DeviceDescriptor::gpu()); // dev3
    reg
}

/// The demo's recovery re-layout must search strictly less than a
/// from-scratch solve of the identical post-failure problem, at equal
/// objective value. The repair path proves its spliced candidate
/// optimal against the LP-relaxation bound, so the common single-device
/// failure pays zero branch-and-bound nodes.
#[test]
fn recovery_repair_searches_strictly_less_than_scratch() {
    let reg = demo_registry();
    let mut g = LayoutGraph::from_odfs(&fault_demo_odfs(), &reg).expect("demo graph builds");
    let obj = Objective::MaximizeOffloading;
    let prev = g.resolve_ilp(&obj).expect("pre-fault layout");
    g.mask_device(DeviceId(1)).expect("NIC maskable");

    let (repaired, repair_stats) = g
        .repair(&prev, &GraphDelta::MaskDevice(DeviceId(1)), &obj)
        .expect("repair succeeds");
    let (scratch, scratch_stats) = g
        .resolve_ilp_with_stats(&obj)
        .expect("scratch solve succeeds");

    assert_eq!(
        repaired.offloaded_count(),
        scratch.offloaded_count(),
        "repair must be objective-equal to scratch"
    );
    assert!(
        repair_stats.nodes < scratch_stats.nodes,
        "repair explored {} nodes, scratch {} — repair must search strictly less",
        repair_stats.nodes,
        scratch_stats.nodes
    );
    assert_eq!(
        repair_stats.repaired_nodes, 3,
        "the gang/pull pipeline is the dirty component; the archiver stays frozen"
    );
}

/// The demo's recovery counters stay on the committed baseline.
#[test]
fn recovery_counters_stay_within_committed_budget() {
    assert_budget(BUDGET, budget_passes);
}

/// The gate actually bites: perturbing any one baseline entry past its
/// tolerance produces exactly that one violation.
#[test]
fn perturbed_baseline_trips_exactly_one_violation() {
    assert_budget(BUDGET, each_line_trips_alone_past_its_tolerance);
}
