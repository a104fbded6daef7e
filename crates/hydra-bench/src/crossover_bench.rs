//! Deterministic provider-crossover benchmarks: PIO vs doorbell-batched
//! DMA vs synchronous DMA, plus the cost-adaptive channel.
//!
//! For every message size in [`SIZES`] the bench creates a fresh
//! Figure-3 channel on the tivo demo deployment's runtime, pinned to
//! each provider in [`PROVIDERS`] via
//! [`hydra_core::runtime::Runtime::create_channel_forced`], bursts
//! [`MESSAGES`] messages at `t = 0`, and records the sim-time at which
//! the last one delivers. The same burst then runs on a cost-adaptive
//! channel ([`hydra_core::runtime::Runtime::create_channel_adaptive`])
//! that auctions every size bucket online from its live
//! [`hydra_core::CostProfile`].
//!
//! Out of the forced runs fall the two crossover points the paper's §4
//! cost model predicts: the size where the doorbell-batched ring
//! overtakes programmed I/O, and the size where synchronous DMA's wire
//! rate overtakes the ring. Both are pinned (with a tolerance band) in
//! `budgets/bench_crossover.json`; the rendered [`render_json`] report
//! is the committed `BENCH_crossover.json`. All timing is simulated, so
//! the report has no `wall_` lines at all — CI byte-diffs the whole
//! thing.
//!
//! The final scenario feeds the same [`hydra_core::ChannelCost`] numbers
//! into the §5 layout objective via
//! [`hydra_core::layout::bus_price`]: repriced from live channel costs,
//! the ILP gives the device slot to the bulk streamer, not the chatty
//! control-plane Offcode.

use bytes::Bytes;
use hydra_core::channel::{AdaptivePolicy, ChannelConfig, ChannelProvider, ZeroCopyDmaProvider};
use hydra_core::device::DeviceId;
use hydra_core::layout::{bus_price, LayoutGraph, LayoutNode};
use hydra_core::providers::install_extras;
use hydra_core::Objective;
use hydra_obs::{MetricsSnapshot, Recorder};
use hydra_odf::Guid;
use hydra_sim::time::SimTime;
use hydra_tivo::demo::demo_deployment;

use crate::report::{self, num, text, Report};

/// Messages burst through the channel per scenario, all at `t = 0`.
pub const MESSAGES: usize = 48;

/// Message sizes swept, in bytes: one cacheline up to a jumbo payload.
pub const SIZES: &[usize] = &[64, 128, 256, 1024, 4096, 16_384, 65_536, 262_144];

/// The forced providers, in report order.
pub const PROVIDERS: &[&str] = &["pio", "doorbell-batch", "zero-copy-dma"];

/// One provider x size scenario (all sim-time, fully deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossoverResult {
    /// Scenario name (`pio_64`, `adaptive_4096`, ...).
    pub name: String,
    /// The requested provider, or `adaptive`.
    pub provider: String,
    /// Payload bytes per message.
    pub bytes_per_message: usize,
    /// Messages burst at `t = 0`.
    pub messages: usize,
    /// Sim-time of the last delivery.
    pub elapsed_ns: u64,
    /// `elapsed_ns / messages`.
    pub ns_per_message: u64,
    /// `bytes * 1e9 / elapsed_ns`, integer math.
    pub throughput_bytes_per_sec: u64,
    /// The provider the channel ended on (adaptive may switch).
    pub final_provider: String,
    /// Online provider switches performed (0 for forced channels).
    pub switches: u64,
}

/// The crossover points extracted from the forced sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossoverSummary {
    /// Winning forced provider per size, in [`SIZES`] order.
    pub winners: Vec<(usize, String)>,
    /// Smallest swept size where PIO stops winning (the doorbell-batched
    /// ring takes over). 0 if PIO never loses.
    pub pio_to_doorbell_bytes: u64,
    /// Smallest swept size where synchronous DMA wins outright. 0 if it
    /// never does.
    pub doorbell_to_dma_bytes: u64,
}

/// The §5 layout-repricing exercise: two Offcodes, one device slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepriceResult {
    /// Effective DMA throughput at the chatty size (the §5 price feed).
    pub chatty_price_bps: u64,
    /// Effective DMA throughput at the bulk size.
    pub bulk_price_bps: u64,
    /// Device the ILP gives the bulk streamer (expects the NIC, id 1).
    pub bulk_device: u64,
    /// Device the chatty node falls back to (expects the host, id 0).
    pub chatty_device: u64,
}

/// The full crossover report: every scenario plus the two summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossoverReport {
    /// Forced and adaptive scenarios, sweep order.
    pub results: Vec<CrossoverResult>,
    /// Crossover points from the forced sweeps.
    pub crossover: CrossoverSummary,
    /// The layout-repricing exercise.
    pub reprice: RepriceResult,
}

/// Runs the full sweep: every forced provider x size, then the adaptive
/// channel per size, then the crossover extraction and the layout
/// repricing exercise.
#[must_use]
pub fn run_crossover_bench() -> CrossoverReport {
    let mut results = Vec::new();
    for &size in SIZES {
        for &provider in PROVIDERS {
            results.push(run_scenario(Some(provider), size));
        }
        results.push(run_scenario(None, size));
    }
    let crossover = extract_crossover(&results);
    CrossoverReport {
        results,
        crossover,
        reprice: run_reprice(),
    }
}

fn run_scenario(forced: Option<&str>, size: usize) -> CrossoverResult {
    // Fresh demo runtime per scenario: same deployment CI already pins,
    // plus the two extra providers — registered after the deployment is
    // built, so none of its existing channels re-auction.
    let mut rt = demo_deployment();
    install_extras(rt.executive_mut());
    let config = ChannelConfig::figure3(DeviceId(1));
    let chan = match forced {
        Some(p) => rt
            .create_channel_forced(config, p)
            .expect("forced bench channel on the NIC"),
        None => rt
            .create_channel_adaptive(config, AdaptivePolicy::default())
            .expect("adaptive bench channel on the NIC"),
    };
    let ch = rt.executive_mut().get_mut(chan).expect("channel is live");
    let ep = ch.connect_endpoint().expect("fresh channel has room");
    let payload = Bytes::from(vec![0x5Au8; size]);

    let mut last = SimTime::ZERO;
    for _ in 0..MESSAGES {
        last = ch
            .send(SimTime::ZERO, payload.clone())
            .expect("burst fits the figure-3 ring");
    }
    let drained = ch.recv_batch(last, ep, usize::MAX).len();
    assert_eq!(drained, MESSAGES, "every message delivered and drained");

    let provider = forced.unwrap_or("adaptive");
    let elapsed_ns = last.as_nanos();
    let bytes = (MESSAGES * size) as u64;
    CrossoverResult {
        name: format!("{provider}_{size}"),
        provider: provider.to_owned(),
        bytes_per_message: size,
        messages: MESSAGES,
        elapsed_ns,
        ns_per_message: elapsed_ns / MESSAGES as u64,
        throughput_bytes_per_sec: (u128::from(bytes) * 1_000_000_000
            / u128::from(elapsed_ns.max(1))) as u64,
        final_provider: ch.provider_name().to_owned(),
        switches: ch.provider_switches(),
    }
}

/// The forced winner at one size (ties: first in [`PROVIDERS`] order,
/// which is the same deterministic first-wins rule the executive uses).
fn winner_at(results: &[CrossoverResult], size: usize) -> &CrossoverResult {
    results
        .iter()
        .filter(|r| r.bytes_per_message == size && r.provider != "adaptive")
        .min_by_key(|r| r.elapsed_ns)
        .expect("every size has forced runs")
}

fn extract_crossover(results: &[CrossoverResult]) -> CrossoverSummary {
    let winners: Vec<(usize, String)> = SIZES
        .iter()
        .map(|&s| (s, winner_at(results, s).provider.clone()))
        .collect();
    let pio_to_doorbell_bytes = winners
        .iter()
        .find(|(_, w)| w != "pio")
        .map_or(0, |&(s, _)| s as u64);
    let doorbell_to_dma_bytes = winners
        .iter()
        .find(|(_, w)| w == "zero-copy-dma")
        .map_or(0, |&(s, _)| s as u64);
    CrossoverSummary {
        winners,
        pio_to_doorbell_bytes,
        doorbell_to_dma_bytes,
    }
}

fn reprice_node(guid: u64, bind_name: &str) -> LayoutNode {
    LayoutNode {
        guid: Guid(guid),
        bind_name: bind_name.to_owned(),
        compat: vec![true, true],
        price: 1.0,
    }
}

fn run_reprice() -> RepriceResult {
    let cfg = ChannelConfig::figure3(DeviceId(1));
    let dma = ZeroCopyDmaProvider.cost(&cfg);
    let chatty_bytes = 128;
    let bulk_bytes = 65_536;

    // Two Offcodes compete for the one NIC slot; repriced from the live
    // channel cost model, the bulk streamer's effective bandwidth wins
    // it and the chatty node stays on the host.
    let mut g = LayoutGraph::new();
    let chatty = g.add_node(reprice_node(101, "bench.chatty"));
    let bulk = g.add_node(reprice_node(102, "bench.bulk"));
    g.reprice_from_cost(chatty, &dma, chatty_bytes);
    g.reprice_from_cost(bulk, &dma, bulk_bytes);
    let objective = Objective::MaximizeBusUsage {
        capacities: vec![f64::INFINITY, bus_price(&dma, bulk_bytes) + 1.0],
    };
    let placement = g.resolve_ilp(&objective).expect("two-node ILP solves");
    g.check(&placement).expect("placement is feasible");
    RepriceResult {
        chatty_price_bps: dma.effective_throughput(chatty_bytes),
        bulk_price_bps: dma.effective_throughput(bulk_bytes),
        bulk_device: u64::from(placement.device_of(bulk).0),
        chatty_device: u64::from(placement.device_of(chatty).0),
    }
}

/// Renders the report as the `BENCH_crossover.json` artifact through the
/// shared [`crate::report`] serializer. Every field is sim-time or
/// structural — no `wall_` lines, so CI byte-diffs the entire file.
#[must_use]
pub fn render_json(report: &CrossoverReport) -> String {
    let mut scenarios: Vec<Vec<report::Field>> = report
        .results
        .iter()
        .map(|r| {
            vec![
                text("name", &r.name),
                text("provider", &r.provider),
                num("bytes_per_message", r.bytes_per_message as u64),
                num("messages", r.messages as u64),
                num("elapsed_ns", r.elapsed_ns),
                num("ns_per_message", r.ns_per_message),
                num("throughput_bytes_per_sec", r.throughput_bytes_per_sec),
                text("final_provider", &r.final_provider),
                num("switches", r.switches),
            ]
        })
        .collect();
    for (size, winner) in &report.crossover.winners {
        scenarios.push(vec![
            text("name", &format!("winner_{size}")),
            num("bytes_per_message", *size as u64),
            text("winner", winner),
        ]);
    }
    scenarios.push(vec![
        text("name", "crossover"),
        num(
            "pio_to_doorbell_bytes",
            report.crossover.pio_to_doorbell_bytes,
        ),
        num(
            "doorbell_to_dma_bytes",
            report.crossover.doorbell_to_dma_bytes,
        ),
    ]);
    scenarios.push(vec![
        text("name", "layout_reprice"),
        num("chatty_price_bps", report.reprice.chatty_price_bps),
        num("bulk_price_bps", report.reprice.bulk_price_bps),
        num("bulk_device", report.reprice.bulk_device),
        num("chatty_device", report.reprice.chatty_device),
    ]);
    report::render(&Report {
        bench: "crossover",
        config: vec![
            num("messages", MESSAGES as u64),
            text(
                "sizes",
                &SIZES
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            text("providers", &PROVIDERS.join(",")),
        ],
        scenarios,
    })
}

/// Re-expresses the report as a [`MetricsSnapshot`] (scenario name as
/// the counter label) so the budget comparator can gate on it.
#[must_use]
pub fn bench_snapshot(report: &CrossoverReport) -> MetricsSnapshot {
    let rec = Recorder::new();
    for r in &report.results {
        rec.counter_add("bench.elapsed_ns", &r.name, r.elapsed_ns);
        if r.provider == "adaptive" {
            rec.counter_add("bench.switches", &r.name, r.switches);
        }
    }
    rec.counter_add(
        "bench.crossover_bytes",
        "pio_to_doorbell",
        report.crossover.pio_to_doorbell_bytes,
    );
    rec.counter_add(
        "bench.crossover_bytes",
        "doorbell_to_dma",
        report.crossover.doorbell_to_dma_bytes,
    );
    rec.counter_add("bench.reprice_device", "bulk", report.reprice.bulk_device);
    rec.counter_add(
        "bench.reprice_device",
        "chatty",
        report.reprice.chatty_device,
    );
    rec.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_deterministic() {
        let a = run_crossover_bench();
        let b = run_crossover_bench();
        assert_eq!(render_json(&a), render_json(&b));
    }

    #[test]
    fn crossover_has_the_predicted_shape() {
        let rep = run_crossover_bench();
        let smallest = SIZES[0];
        let largest = *SIZES.last().unwrap();
        assert_eq!(winner_at(&rep.results, smallest).provider, "pio");
        assert_eq!(winner_at(&rep.results, largest).provider, "zero-copy-dma");
        // The doorbell-batched ring owns a non-empty middle band.
        assert!(rep
            .crossover
            .winners
            .iter()
            .any(|(_, w)| w == "doorbell-batch"));
        assert!(rep.crossover.pio_to_doorbell_bytes > 0);
        assert!(
            rep.crossover.doorbell_to_dma_bytes > rep.crossover.pio_to_doorbell_bytes,
            "DMA takes over after the ring"
        );
    }

    #[test]
    fn adaptive_never_loses_to_the_worst_static_choice() {
        let rep = run_crossover_bench();
        for &size in SIZES {
            let adaptive = rep
                .results
                .iter()
                .find(|r| r.provider == "adaptive" && r.bytes_per_message == size)
                .unwrap();
            let worst = rep
                .results
                .iter()
                .filter(|r| r.provider != "adaptive" && r.bytes_per_message == size)
                .map(|r| r.elapsed_ns)
                .max()
                .unwrap();
            assert!(
                adaptive.elapsed_ns <= worst,
                "{size} B: adaptive {} > worst static {worst}",
                adaptive.elapsed_ns
            );
        }
    }

    #[test]
    fn adaptive_switches_toward_the_ring_at_mid_sizes() {
        let rep = run_crossover_bench();
        let mid = rep
            .results
            .iter()
            .find(|r| r.name == "adaptive_4096")
            .unwrap();
        assert_eq!(mid.final_provider, "doorbell-batch");
        assert!(mid.switches >= 1);
    }

    #[test]
    fn reprice_gives_the_device_slot_to_the_bulk_streamer() {
        let rep = run_reprice();
        assert_eq!(rep.bulk_device, 1);
        assert_eq!(rep.chatty_device, 0);
        assert!(rep.bulk_price_bps > rep.chatty_price_bps);
    }

    #[test]
    fn snapshot_carries_one_line_per_scenario() {
        let rep = run_crossover_bench();
        let snap = bench_snapshot(&rep);
        for r in &rep.results {
            assert_eq!(
                snap.counter("bench.elapsed_ns", &r.name),
                Some(r.elapsed_ns)
            );
        }
        assert!(snap
            .counter("bench.crossover_bytes", "pio_to_doorbell")
            .is_some());
    }
}
