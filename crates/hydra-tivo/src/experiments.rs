//! The experiment harness: one entry point per paper table and figure.
//!
//! Each function runs the corresponding experiment on the simulated
//! testbed and returns a result struct whose `Display` implementation
//! prints the same rows/series the paper reports. The `hydra-bench`
//! crate's `repro` binary drives these; EXPERIMENTS.md records a captured
//! run against the paper's numbers.

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use hydra_core::layout::{LayoutGraph, LayoutNode, NodeIdx, Objective};
use hydra_odf::odf::{ConstraintKind, Guid};
use hydra_sim::rng::DetRng;
use hydra_sim::stats::Histogram;
use hydra_sim::time::SimDuration;

use crate::client::{run_client, ClientConfig, ClientKind, ClientRun};
use crate::server::{run_server, ServerConfig, ServerKind, ServerRun};
use crate::tcpmodel::{GhzGbpsModel, GhzGbpsPoint, TcpDirection};

/// Global experiment knobs.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Simulated duration of each streaming run.
    pub duration: SimDuration,
    /// Seed for every run.
    pub seed: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            duration: SimDuration::from_secs(60),
            seed: 42,
        }
    }
}

impl SuiteConfig {
    /// The paper's full 10-minute runs.
    pub fn paper_full() -> Self {
        SuiteConfig {
            duration: SimDuration::from_secs(600),
            seed: 42,
        }
    }

    fn server(&self, kind: ServerKind) -> ServerConfig {
        ServerConfig {
            duration: self.duration,
            ..ServerConfig::paper(kind, self.seed)
        }
    }

    fn client(&self, kind: ClientKind) -> ClientConfig {
        ClientConfig {
            duration: self.duration,
            ..ClientConfig::paper(kind, self.seed)
        }
    }
}

/// Runs `run` on every config and returns the results in config order.
///
/// Each run builds and owns its own world and is deterministic on its
/// own, so the runs go to `min(available_parallelism, configs)` scoped
/// workers that take the next config off a shared index. One worker
/// runs them one after another.
fn run_variants<C: Sync, R: Send>(configs: &[C], run: impl Fn(&C) -> R + Sync) -> Vec<R> {
    let workers = thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(configs.len());
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = configs.iter().map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the index only hands out work; the
                        // results come back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(c) = configs.get(i) else { break done };
                        done.push((i, run(c)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)) {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every config ran"))
        .collect()
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

/// Figure 1: GHz/Gbps ratio vs. packet size, transmit and receive.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Transmit curve.
    pub transmit: Vec<GhzGbpsPoint>,
    /// Receive curve.
    pub receive: Vec<GhzGbpsPoint>,
}

/// Runs the Figure 1 sweep.
pub fn fig1() -> Fig1 {
    let m = GhzGbpsModel::paper_setup();
    Fig1 {
        transmit: m.sweep(TcpDirection::Transmit),
        receive: m.sweep(TcpDirection::Receive),
    }
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 1 — GHz/Gbps ratio (transmit | receive)")?;
        writeln!(
            f,
            "{:>10}  {:>12}  {:>12}  {:>10}  {:>10}",
            "pkt bytes", "tx GHz/Gbps", "rx GHz/Gbps", "tx util", "rx util"
        )?;
        for (t, r) in self.transmit.iter().zip(&self.receive) {
            writeln!(
                f,
                "{:>10}  {:>12.3}  {:>12.3}  {:>9.1}%  {:>9.1}%",
                t.packet_bytes,
                t.ghz_per_gbps,
                r.ghz_per_gbps,
                t.cpu_utilization * 100.0,
                r.cpu_utilization * 100.0
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Figure 9 + Table 2
// ---------------------------------------------------------------------

/// Figure 9 + Table 2: per-scenario jitter distributions and statistics.
#[derive(Debug, Clone)]
pub struct JitterResults {
    /// One run per streaming scenario (Simple, Sendfile, Offloaded).
    pub runs: Vec<ServerRun>,
}

/// Runs the jitter experiment for the three server variants.
pub fn fig9_tab2(cfg: &SuiteConfig) -> JitterResults {
    let configs = [
        ServerKind::Simple,
        ServerKind::Sendfile,
        ServerKind::Offloaded,
    ]
    .map(|kind| cfg.server(kind));
    JitterResults {
        runs: run_variants(&configs, |c| run_server(c.clone())),
    }
}

fn ascii_histogram(f: &mut fmt::Formatter<'_>, h: &Histogram) -> fmt::Result {
    let max = (0..h.bins())
        .map(|i| h.bin_count(i))
        .max()
        .unwrap_or(1)
        .max(1);
    for i in 0..h.bins() {
        let count = h.bin_count(i);
        if count == 0 && h.bin_lo(i) > 9.0 {
            continue;
        }
        let bar = "#".repeat((count * 48 / max) as usize);
        writeln!(f, "  {:>6.2} ms | {:<48} {}", h.bin_lo(i), bar, count)?;
    }
    if h.overflow() > 0 {
        writeln!(f, "  (+{} above range)", h.overflow())?;
    }
    Ok(())
}

impl fmt::Display for JitterResults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 9 — packet jitter histogram + CDF")?;
        for run in &self.runs {
            let h = run.jitter_ms.histogram(4.0, 10.0, 24);
            writeln!(
                f,
                "\n[{}] ({} packets)",
                run.kind.label(),
                run.packets_delivered
            )?;
            ascii_histogram(f, &h)?;
            let cdf = h.cdf();
            write!(f, "  CDF:")?;
            for (i, c) in cdf.iter().enumerate().step_by(4) {
                write!(f, " {:.1}ms={:.0}%", h.bin_lo(i), c * 100.0)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "\nTable 2 — client-side jitter statistics (ms)")?;
        writeln!(
            f,
            "{:<18} {:>8} {:>8} {:>8}",
            "Scenario", "Median", "Average", "Std Dev"
        )?;
        for run in &self.runs {
            let s = run.jitter_ms.summary();
            writeln!(
                f,
                "{:<18} {:>8.2} {:>8.2} {:>8.4}",
                run.kind.label(),
                s.median,
                s.mean,
                s.std_dev
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Figure 10 + Table 3
// ---------------------------------------------------------------------

/// Figure 10 + Table 3: server-side L2 slowdown and CPU utilization.
#[derive(Debug, Clone)]
pub struct ServerSideResults {
    /// Idle, Simple, Sendfile, Offloaded — in that order.
    pub runs: Vec<ServerRun>,
}

/// Runs the four server-side scenarios.
pub fn fig10_tab3(cfg: &SuiteConfig) -> ServerSideResults {
    let configs = ServerKind::all().map(|kind| cfg.server(kind));
    ServerSideResults {
        runs: run_variants(&configs, |c| run_server(c.clone())),
    }
}

impl ServerSideResults {
    /// The idle run (Figure 10's normalization baseline).
    pub fn idle(&self) -> &ServerRun {
        self.runs
            .iter()
            .find(|r| r.kind == ServerKind::Idle)
            .expect("idle scenario always included")
    }

    /// Normalized L2 miss rate for a scenario (1.0 = idle).
    pub fn normalized_l2(&self, kind: ServerKind) -> f64 {
        let idle = self.idle().l2_miss_rate.summary().mean;
        let run = self
            .runs
            .iter()
            .find(|r| r.kind == kind)
            .expect("all scenarios included");
        run.l2_miss_rate.summary().mean / idle
    }
}

impl fmt::Display for ServerSideResults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10 — L2 slowdown (server side, normalized to idle)"
        )?;
        for run in &self.runs {
            let n = self.normalized_l2(run.kind);
            let bar = "#".repeat(((n - 0.9).max(0.0) * 200.0) as usize);
            writeln!(f, "  {:<18} {:>6.3}x | {}", run.kind.label(), n, bar)?;
        }
        writeln!(f, "\nTable 3 — server-side CPU utilization")?;
        writeln!(
            f,
            "{:<18} {:>8} {:>8} {:>8}",
            "Scenario", "Median", "Average", "Std Dev"
        )?;
        for run in &self.runs {
            let s = run.cpu_util.summary();
            writeln!(
                f,
                "{:<18} {:>7.2}% {:>7.2}% {:>7.2}%",
                run.kind.label(),
                s.median * 100.0,
                s.mean * 100.0,
                s.std_dev * 100.0
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Table 4 + client L2
// ---------------------------------------------------------------------

/// Table 4 + the §6.4 client L2 paragraph.
#[derive(Debug, Clone)]
pub struct ClientResults {
    /// Idle, UserSpace, Offloaded — in that order.
    pub runs: Vec<ClientRun>,
}

/// Runs the three client-side scenarios.
pub fn tab4_client(cfg: &SuiteConfig) -> ClientResults {
    let configs = ClientKind::all().map(|kind| cfg.client(kind));
    ClientResults {
        runs: run_variants(&configs, |c| run_client(c.clone())),
    }
}

impl ClientResults {
    /// Normalized L2 miss rate for a scenario (1.0 = idle).
    pub fn normalized_l2(&self, kind: ClientKind) -> f64 {
        let idle = self
            .runs
            .iter()
            .find(|r| r.kind == ClientKind::Idle)
            .expect("idle included")
            .l2_miss_rate
            .summary()
            .mean;
        self.runs
            .iter()
            .find(|r| r.kind == kind)
            .expect("all kinds included")
            .l2_miss_rate
            .summary()
            .mean
            / idle
    }
}

impl fmt::Display for ClientResults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 4 — client-side CPU utilization")?;
        writeln!(
            f,
            "{:<18} {:>8} {:>8} {:>8}",
            "Scenario", "Median", "Average", "Std Dev"
        )?;
        for run in &self.runs {
            let s = run.cpu_util.summary();
            writeln!(
                f,
                "{:<18} {:>7.2}% {:>7.2}% {:>7.2}%",
                run.kind.label(),
                s.median * 100.0,
                s.mean * 100.0,
                s.std_dev * 100.0
            )?;
        }
        writeln!(f, "\nClient L2 misses, normalized to idle (§6.4 text)")?;
        for run in &self.runs {
            writeln!(
                f,
                "  {:<18} {:>6.3}x",
                run.kind.label(),
                self.normalized_l2(run.kind)
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// §5: ILP vs greedy layout optimization
// ---------------------------------------------------------------------

/// One random layout-optimization case.
#[derive(Debug, Clone, Copy)]
pub struct IlpCase {
    /// Offcodes in the graph.
    pub offcodes: usize,
    /// Devices (excluding host).
    pub devices: usize,
    /// Constraint edges.
    pub edges: usize,
    /// Greedy objective value.
    pub greedy_value: f64,
    /// Exact ILP objective value.
    pub ilp_value: f64,
    /// Branch-and-bound nodes explored.
    pub bnb_nodes: u64,
}

/// §5 evaluation: the exact ILP against the greedy heuristic over random
/// layout graphs.
#[derive(Debug, Clone)]
pub struct IlpResults {
    /// Every case evaluated.
    pub cases: Vec<IlpCase>,
}

impl IlpResults {
    /// Fraction of cases where the ILP strictly beats greedy.
    pub fn improvement_fraction(&self) -> f64 {
        let wins = self
            .cases
            .iter()
            .filter(|c| c.ilp_value > c.greedy_value + 1e-9)
            .count();
        wins as f64 / self.cases.len().max(1) as f64
    }

    /// Mean relative improvement of ILP over greedy, over the cases where
    /// greedy found a non-zero solution.
    pub fn mean_improvement(&self) -> f64 {
        let eligible: Vec<f64> = self
            .cases
            .iter()
            .filter(|c| c.greedy_value > 1e-9)
            .map(|c| c.ilp_value / c.greedy_value - 1.0)
            .collect();
        if eligible.is_empty() {
            0.0
        } else {
            eligible.iter().sum::<f64>() / eligible.len() as f64
        }
    }

    /// Cases where greedy offloaded nothing but the ILP found value.
    pub fn greedy_total_misses(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.greedy_value <= 1e-9 && c.ilp_value > 1e-9)
            .count()
    }
}

/// Builds one random layout graph.
pub fn random_layout(rng: &mut DetRng, offcodes: usize, devices: usize) -> LayoutGraph {
    let mut g = LayoutGraph::new();
    for i in 0..offcodes {
        let mut compat = vec![true];
        for _ in 0..devices {
            compat.push(rng.chance(0.55));
        }
        g.add_node(LayoutNode {
            guid: Guid(i as u64 + 1),
            bind_name: format!("oc{i}"),
            compat,
            price: 1.0 + rng.index(6) as f64,
        });
    }
    for _ in 0..offcodes {
        let a = rng.index(offcodes);
        let b = rng.index(offcodes);
        if a == b {
            continue;
        }
        let c = match rng.index(4) {
            0 => ConstraintKind::Link,
            1 => ConstraintKind::Pull,
            2 => ConstraintKind::Gang,
            _ => ConstraintKind::AsymGang,
        };
        g.add_edge(NodeIdx(a), NodeIdx(b), c);
    }
    g
}

/// Runs the ILP-vs-greedy comparison over `cases` random graphs.
pub fn ilp_vs_greedy(seed: u64, cases: usize) -> IlpResults {
    let mut rng = DetRng::new(seed);
    let mut out = Vec::with_capacity(cases);
    for _ in 0..cases {
        let offcodes = 4 + rng.index(6);
        let devices = 2 + rng.index(3);
        let g = random_layout(&mut rng, offcodes, devices);
        let capacities: Vec<f64> = (0..=devices).map(|_| 3.0 + rng.index(9) as f64).collect();
        let obj = Objective::MaximizeBusUsage { capacities };
        let greedy = g.resolve_greedy(&obj);
        let exact = g.resolve_ilp(&obj).expect("host fallback always feasible");
        out.push(IlpCase {
            offcodes,
            devices,
            edges: g.edges().len(),
            greedy_value: g.bus_value(&greedy),
            ilp_value: g.bus_value(&exact),
            bnb_nodes: 0, // filled by the bench when it re-solves with stats
        });
    }
    IlpResults { cases: out }
}

impl fmt::Display for IlpResults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§5 — exact ILP vs greedy layout ({} random graphs)",
            self.cases.len()
        )?;
        writeln!(
            f,
            "{:>4} {:>4} {:>4} {:>10} {:>10} {:>8}",
            "N", "K", "E", "greedy", "ILP", "gain"
        )?;
        for c in self.cases.iter().take(20) {
            let gain = if c.greedy_value > 1e-9 {
                format!("{:>6.1}%", (c.ilp_value / c.greedy_value - 1.0) * 100.0)
            } else if c.ilp_value > 1e-9 {
                "   +inf".to_owned()
            } else {
                "      -".to_owned()
            };
            writeln!(
                f,
                "{:>4} {:>4} {:>4} {:>10.1} {:>10.1} {:>8}",
                c.offcodes,
                c.devices,
                c.edges,
                c.greedy_value.max(0.0),
                c.ilp_value.max(0.0),
                gain
            )?;
        }
        if self.cases.len() > 20 {
            writeln!(f, "  … {} more cases", self.cases.len() - 20)?;
        }
        writeln!(
            f,
            "ILP strictly better in {:.0}% of cases; mean improvement {:.1}% \
             (plus {} cases where greedy offloaded nothing)",
            self.improvement_fraction() * 100.0,
            self.mean_improvement() * 100.0,
            self.greedy_total_misses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SuiteConfig {
        SuiteConfig {
            duration: SimDuration::from_secs(15),
            seed: 42,
        }
    }

    #[test]
    fn variants_come_back_in_config_order() {
        let configs: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = configs.iter().map(|i| i * i).collect();
        assert_eq!(run_variants(&configs, |&i| i * i), want);
        assert!(run_variants(&[] as &[u64], |&i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "variant 3 failed")]
    fn a_failing_variant_fails_the_call() {
        run_variants(&[1, 2, 3, 4], |&i| assert!(i != 3, "variant {i} failed"));
    }

    #[test]
    fn fig1_renders_and_orders() {
        let fig = fig1();
        let text = fig.to_string();
        assert!(text.contains("GHz/Gbps"));
        assert!(fig.receive[0].ghz_per_gbps > fig.transmit[0].ghz_per_gbps);
    }

    #[test]
    fn jitter_results_render() {
        let r = fig9_tab2(&quick());
        let text = r.to_string();
        assert!(text.contains("Table 2"));
        assert!(text.contains("Offloaded Server"));
        assert!(text.contains("CDF:"));
        assert_eq!(r.runs.len(), 3);
    }

    #[test]
    fn server_side_results_render_and_normalize() {
        let r = fig10_tab3(&quick());
        assert_eq!(r.runs.len(), 4);
        let n_idle = r.normalized_l2(ServerKind::Idle);
        assert!((n_idle - 1.0).abs() < 1e-9);
        assert!(r.normalized_l2(ServerKind::Simple) > 1.0);
        assert!(r.to_string().contains("Table 3"));
    }

    #[test]
    fn client_results_render_and_normalize() {
        let r = tab4_client(&quick());
        assert_eq!(r.runs.len(), 3);
        assert!(r.normalized_l2(ClientKind::UserSpace) > 1.0);
        assert!(r.to_string().contains("Table 4"));
    }

    #[test]
    fn ilp_vs_greedy_finds_improvements() {
        let r = ilp_vs_greedy(7, 25);
        assert_eq!(r.cases.len(), 25);
        // The ILP is never worse...
        for c in &r.cases {
            assert!(c.ilp_value >= c.greedy_value - 1e-9);
        }
        // ...and strictly better somewhere (the paper's motivation).
        assert!(r.improvement_fraction() > 0.0, "no case improved");
        assert!(r.to_string().contains("mean improvement"));
    }
}
