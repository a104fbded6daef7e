//! The quantitative-certification gate (tier 1).
//!
//! Two contracts:
//!
//! 1. the built-in declared-traffic sets (`demo`, `tivo`, `stats`)
//!    certify with zero errors, end-to-end chains and only stable rings;
//! 2. the **differential**: replaying each set's declared arrival
//!    curves against real channels never observes a p99 latency or
//!    peak queue depth above the certificate's static bounds, and the
//!    stats scenario's full telemetry — clean *and* under its
//!    committed fault plan — stays bracketed by the (overlay-widened)
//!    certificate: per-ring p99/depth and per-device busy permille.
//!
//! The `certify` rows of the artifact table (`tests/artifacts/mod.rs`)
//! check the canonical JSON report's determinism and that each
//! `fixtures/certify/*.xml` failure case fails with its designated code
//! (HV040 queue overflow, HV042 utilization overrun, HV050 ring-write
//! race).

mod artifacts;

use artifacts::{assert_row, assert_rows};
use hydra_bench::certify::{any_errors, run_certify};
use hydra_devices::DEVICE_BUSY_NS;
use hydra_obs::sustained_busy_permille;
use hydra_tivo::certify::{
    certify_service_table, certify_set, demo_certify_odfs, observe_declared, stats_observation,
    tivo_certify_odfs, Observation,
};
use hydra_tivo::stats::stats_demo_plan;
use hydra_verify::{Certification, CertifyInput, FaultOverlay, VerifyInput};

fn certify(name: &str, overlay: Option<&FaultOverlay>) -> Certification {
    let (odfs, _) = certify_set(name).expect("built-in set");
    let table = hydra_core::device::DeviceRegistry::testbed().verify_table();
    let services = certify_service_table();
    hydra_verify::certify(&CertifyInput {
        verify: VerifyInput {
            odfs: &odfs,
            devices: &table,
            demands: None,
            roots: None,
        },
        services: &services,
        overlay,
    })
}

/// Asserts every observed per-ring value sits inside the certificate.
fn assert_bracketed(name: &str, cert: &Certification, obs: &Observation) {
    assert!(!obs.channels.is_empty(), "{name}: the replay drove traffic");
    for ch in &obs.channels {
        let bound = cert
            .certificate
            .channel(&ch.ring)
            .unwrap_or_else(|| panic!("{name}: ring {} is certified", ch.ring));
        let latency = bound
            .latency_bound_ns
            .unwrap_or_else(|| panic!("{name}: ring {} is stable", ch.ring));
        assert!(
            ch.p99_ns <= latency,
            "{name}: {} observed p99 {} ns escapes bound {} ns",
            ch.ring,
            ch.p99_ns,
            latency
        );
        assert!(
            ch.peak_depth <= bound.queue_bound,
            "{name}: {} observed depth {} escapes bound {}",
            ch.ring,
            ch.peak_depth,
            bound.queue_bound
        );
    }
    for d in &cert.certificate.devices {
        let label = if d.index == 0 {
            "host".to_owned()
        } else {
            format!("device-{}", d.index)
        };
        let observed =
            sustained_busy_permille(&obs.snapshot, DEVICE_BUSY_NS, &label, obs.horizon_ns);
        assert!(
            observed <= d.permille,
            "{name}: {label} observed {observed} permille escapes bound {}",
            d.permille
        );
    }
}

#[test]
fn builtin_sets_certify_error_free() {
    let results = run_certify(&[]);
    assert_eq!(results.len(), 3);
    for r in &results {
        assert!(
            !r.certification.report.has_errors(),
            "{} must certify clean:\n{}",
            r.name,
            r.certification.report.render_human()
        );
        assert!(
            !r.certification.certificate.chains.is_empty(),
            "{} certifies end-to-end chains",
            r.name
        );
        assert!(
            r.certification
                .certificate
                .channels
                .iter()
                .all(|c| c.stable && c.latency_bound_ns.is_some()),
            "{} has only stable rings",
            r.name
        );
    }
    assert!(!any_errors(&results));
}

#[test]
fn certify_json_is_byte_stable() {
    assert_row(&["certify"]);
}

#[test]
fn committed_fixtures_fire_their_designated_codes() {
    assert_rows(|r| r.args.len() == 2 && r.args[1].starts_with("fixtures/certify/"));
}

#[test]
fn demo_and_tivo_replays_are_bracketed() {
    for (name, odfs) in [("demo", demo_certify_odfs()), ("tivo", tivo_certify_odfs())] {
        let cert = certify(name, None);
        assert!(!cert.report.has_errors(), "{name} certifies clean");
        let obs = observe_declared(&odfs);
        assert_bracketed(name, &cert, &obs);
    }
}

#[test]
fn stats_telemetry_is_bracketed_clean_and_faulted() {
    // Clean run against the un-widened certificate.
    let clean_cert = certify("stats", None);
    assert!(!clean_cert.report.has_errors());
    let clean_obs = stats_observation(None);
    assert_bracketed("stats/clean", &clean_cert, &clean_obs);

    // Faulted run against the overlay-widened certificate.
    let (_, overlay) = certify_set("stats").expect("built-in set");
    let overlay = overlay.expect("stats commits to a fault plan");
    let faulted_cert = certify("stats", Some(&overlay));
    assert!(!faulted_cert.report.has_errors());
    let plan = stats_demo_plan();
    let faulted_obs = stats_observation(Some(&plan));
    assert_bracketed("stats/faulted", &faulted_cert, &faulted_obs);

    // The overlay only ever widens: every faulted bound dominates its
    // clean counterpart.
    for (c, f) in clean_cert
        .certificate
        .channels
        .iter()
        .zip(&faulted_cert.certificate.channels)
    {
        assert!(
            f.latency_bound_ns >= c.latency_bound_ns,
            "{} widens",
            c.bind_name
        );
    }
    for (c, f) in clean_cert
        .certificate
        .devices
        .iter()
        .zip(&faulted_cert.certificate.devices)
    {
        assert!(f.permille >= c.permille, "{} widens", c.name);
    }
}
