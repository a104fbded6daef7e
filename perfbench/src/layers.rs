//! The per-layer metric catalog of the traced run.
//!
//! Every traced run prints every metric below, whatever the workload: a
//! layer the workload never calls reads 0, which is the prediction
//! README.md's layer table makes for it. Times and calls are per round
//! of the workload (rounds are fixed-size, so they compare across runs).

/// Which aggregate of a span a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Spans closed per round.
    Calls,
    /// Span time per round, ns.
    WallNs,
    /// Mean span duration, ms.
    MsPerCall,
    /// Mean span duration, µs.
    UsPerCall,
}

/// `(metric, span name, field)` for metrics read off span aggregates.
pub const SPAN_METRICS: &[(&str, &str, Field)] = &[
    ("tivo.fig9_tab2.wall_ms", "tivo.fig9_tab2", Field::MsPerCall),
    (
        "tivo.fig10_tab3.wall_ms",
        "tivo.fig10_tab3",
        Field::MsPerCall,
    ),
    (
        "tivo.tab4_client.wall_ms",
        "tivo.tab4_client",
        Field::MsPerCall,
    ),
    (
        "tivo.server.idle.wall_ms",
        "tivo.server.idle",
        Field::MsPerCall,
    ),
    (
        "tivo.server.simple.wall_ms",
        "tivo.server.simple",
        Field::MsPerCall,
    ),
    (
        "tivo.server.sendfile.wall_ms",
        "tivo.server.sendfile",
        Field::MsPerCall,
    ),
    (
        "tivo.server.offloaded.wall_ms",
        "tivo.server.offloaded",
        Field::MsPerCall,
    ),
    (
        "tivo.client.idle.wall_ms",
        "tivo.client.idle",
        Field::MsPerCall,
    ),
    (
        "tivo.client.userspace.wall_ms",
        "tivo.client.userspace",
        Field::MsPerCall,
    ),
    (
        "tivo.client.offloaded.wall_ms",
        "tivo.client.offloaded",
        Field::MsPerCall,
    ),
    ("core.channel.send.calls", "core.channel.send", Field::Calls),
    (
        "core.channel.send.wall_ns",
        "core.channel.send",
        Field::WallNs,
    ),
    (
        "core.channel.send_batch.calls",
        "core.channel.send_batch",
        Field::Calls,
    ),
    (
        "core.channel.send_batch.wall_ns",
        "core.channel.send_batch",
        Field::WallNs,
    ),
    (
        "core.channel.recv_batch.calls",
        "core.channel.recv_batch",
        Field::Calls,
    ),
    (
        "core.channel.recv_batch.wall_ns",
        "core.channel.recv_batch",
        Field::WallNs,
    ),
    ("devices.nic.rx.calls", "devices.nic.rx", Field::Calls),
    ("devices.nic.rx.wall_ns", "devices.nic.rx", Field::WallNs),
    (
        "devices.gpu.decode.calls",
        "devices.gpu.decode",
        Field::Calls,
    ),
    (
        "devices.gpu.decode.wall_ns",
        "devices.gpu.decode",
        Field::WallNs,
    ),
    (
        "devices.disk.write.calls",
        "devices.disk.write",
        Field::Calls,
    ),
    (
        "devices.disk.write.wall_ns",
        "devices.disk.write",
        Field::WallNs,
    ),
    ("devices.host.copy.calls", "devices.host.copy", Field::Calls),
    (
        "devices.host.copy.wall_ns",
        "devices.host.copy",
        Field::WallNs,
    ),
    (
        "obs.sample_window.wall_ns",
        "obs.sample_window",
        Field::WallNs,
    ),
    ("obs.snapshot.wall_us", "obs.snapshot", Field::UsPerCall),
    ("odf.parse.calls", "odf.parse", Field::Calls),
    ("odf.parse.wall_ns", "odf.parse", Field::WallNs),
    ("verify.calls", "verify.run", Field::Calls),
    ("verify.wall_ns", "verify.run", Field::WallNs),
    (
        "layout.from_odfs.wall_ns",
        "layout.from_odfs",
        Field::WallNs,
    ),
    ("ilp.solve.calls", "ilp.solve", Field::Calls),
    ("ilp.solve.wall_ns", "ilp.solve", Field::WallNs),
    ("layout.repair.calls", "layout.repair", Field::Calls),
    ("layout.repair.wall_ns", "layout.repair", Field::WallNs),
    ("core.register.wall_ns", "core.register", Field::WallNs),
    ("core.deploy.calls", "core.deploy", Field::Calls),
    ("core.deploy.wall_ns", "core.deploy", Field::WallNs),
    ("core.recover.calls", "core.recover", Field::Calls),
    ("core.recover.wall_ns", "core.recover", Field::WallNs),
    ("core.teardown.calls", "core.teardown", Field::Calls),
    ("core.teardown.wall_ns", "core.teardown", Field::WallNs),
];

/// `(metric, span-name prefixes)`: self time per layer, ms per round.
pub const SELF_TIME: &[(&str, &[&str])] = &[
    ("self_ms.tivo", &["tivo."]),
    ("self_ms.sim", &["sim."]),
    ("self_ms.core_channel", &["core.channel."]),
    ("self_ms.devices", &["devices."]),
    ("self_ms.obs", &["obs."]),
    ("self_ms.odf", &["odf."]),
    ("self_ms.verify", &["verify."]),
    ("self_ms.ilp", &["layout.", "ilp."]),
    (
        "self_ms.core_runtime",
        &[
            "core.register",
            "core.deploy",
            "core.recover",
            "core.teardown",
        ],
    ),
    ("self_ms.bench", &["bench."]),
];

/// Every per-layer metric with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    // hydra-tivo / hydra-hw
    ("tivo.fig9_tab2.wall_ms", "ms"),
    ("tivo.fig10_tab3.wall_ms", "ms"),
    ("tivo.tab4_client.wall_ms", "ms"),
    ("tivo.server.idle.wall_ms", "ms"),
    ("tivo.server.simple.wall_ms", "ms"),
    ("tivo.server.sendfile.wall_ms", "ms"),
    ("tivo.server.offloaded.wall_ms", "ms"),
    ("tivo.client.idle.wall_ms", "ms"),
    ("tivo.client.userspace.wall_ms", "ms"),
    ("tivo.client.offloaded.wall_ms", "ms"),
    ("hw.l2.misses.server.idle", "count"),
    ("hw.l2.misses.server.simple", "count"),
    ("hw.l2.misses.server.sendfile", "count"),
    ("hw.l2.misses.server.offloaded", "count"),
    ("hw.l2.misses.client.idle", "count"),
    ("hw.l2.misses.client.userspace", "count"),
    ("hw.l2.misses.client.offloaded", "count"),
    ("tivo.packets_delivered", "count"),
    // hydra-sim
    ("sim.events", "count"),
    ("sim.self_ns", "ns"),
    ("sim.ns_per_event", "ns"),
    // hydra-core channel
    ("core.channel.send.calls", "count"),
    ("core.channel.send.wall_ns", "ns"),
    ("core.channel.send_batch.calls", "count"),
    ("core.channel.send_batch.wall_ns", "ns"),
    ("core.channel.recv_batch.calls", "count"),
    ("core.channel.recv_batch.wall_ns", "ns"),
    ("core.channel.rejected", "count"),
    ("core.channel.dropped", "count"),
    ("core.channel.retries", "count"),
    ("core.channel.doorbells", "count"),
    ("core.channel.provider_switches", "count"),
    ("core.channel.backlog_max", "count"),
    // hydra-devices
    ("devices.nic.rx.calls", "count"),
    ("devices.nic.rx.wall_ns", "ns"),
    ("devices.gpu.decode.calls", "count"),
    ("devices.gpu.decode.wall_ns", "ns"),
    ("devices.disk.write.calls", "count"),
    ("devices.disk.write.wall_ns", "ns"),
    ("devices.host.copy.calls", "count"),
    ("devices.host.copy.wall_ns", "ns"),
    ("devices.nic.busy_permille", "permille"),
    ("devices.gpu.busy_permille", "permille"),
    ("devices.disk.busy_permille", "permille"),
    ("devices.host.busy_permille", "permille"),
    // hydra-obs
    ("obs.windows", "count"),
    ("obs.sample_window.wall_ns", "ns"),
    ("obs.snapshot.wall_us", "us"),
    // hydra-odf
    ("odf.parse.calls", "count"),
    ("odf.parse.wall_ns", "ns"),
    ("odf.bytes", "count"),
    // hydra-verify
    ("verify.calls", "count"),
    ("verify.wall_ns", "ns"),
    ("verify.rejected", "count"),
    // hydra-ilp / layout
    ("layout.from_odfs.wall_ns", "ns"),
    ("ilp.solve.calls", "count"),
    ("ilp.solve.wall_ns", "ns"),
    ("ilp.nodes", "count"),
    ("ilp.pruned", "count"),
    ("ilp.presolved", "count"),
    ("layout.repair.calls", "count"),
    ("layout.repair.wall_ns", "ns"),
    ("layout.repair.nodes", "count"),
    ("layout.repair.repaired_nodes", "count"),
    ("layout.repair.warm_start_hits", "count"),
    // hydra-core runtime / hydra-link
    ("core.register.wall_ns", "ns"),
    ("core.deploy.calls", "count"),
    ("core.deploy.wall_ns", "ns"),
    ("core.deploy.other_ns", "ns"),
    ("core.recover.calls", "count"),
    ("core.recover.wall_ns", "ns"),
    ("core.recover.host_fallbacks", "count"),
    ("core.teardown.calls", "count"),
    ("core.teardown.wall_ns", "ns"),
    // Self time per layer and tracing cost
    ("self_ms.tivo", "ms"),
    ("self_ms.sim", "ms"),
    ("self_ms.core_channel", "ms"),
    ("self_ms.devices", "ms"),
    ("self_ms.obs", "ms"),
    ("self_ms.odf", "ms"),
    ("self_ms.verify", "ms"),
    ("self_ms.ilp", "ms"),
    ("self_ms.core_runtime", "ms"),
    ("self_ms.bench", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    // Workload outcomes, from the untraced phase of the traced run
    ("deploy_us_p50", "us"),
    ("deploy_us_p99", "us"),
    ("recover_us_p50", "us"),
    ("recover_us_p99", "us"),
    ("sim_latency_us_p50", "us"),
    ("sim_latency_us_p99", "us"),
    ("paper_error_pct", "%"),
    ("paper_error_tuned_pct", "%"),
    ("failed_ratio", "ratio"),
    ("host.probe_us", "us"),
    ("host.available_parallelism", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalog_is_consistent() {
        let names: BTreeSet<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), PER_LAYER.len(), "names are unique");
        assert!(PER_LAYER.len() <= 128);
        for (n, _) in PER_LAYER {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for (m, _, _) in SPAN_METRICS {
            assert!(names.contains(m), "{m} catalogued");
        }
        for (m, _) in SELF_TIME {
            assert!(names.contains(m), "{m} catalogued");
        }
    }
}
