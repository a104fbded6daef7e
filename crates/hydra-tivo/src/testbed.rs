//! What the server and client experiments share about the §6.4 testbed:
//! the stream's pacing and the host's background load and sampling.
//!
//! Both worlds stream 1 kB chunks every 5 ms, run the host's 1 ms
//! background OS tick for the whole run, and sample host CPU utilization
//! and the L2 miss rate over 5 s windows (Tables 3–4, Figure 10).

use hydra_devices::host::HostModel;
use hydra_sim::stats::Samples;
use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::Sim;

/// Stream chunk size (paper: 1 kB).
pub(crate) const PACKET_BYTES: usize = 1024;

/// Stream pacing period (paper: 5 ms).
pub(crate) const PERIOD: SimDuration = SimDuration::from_millis(5);

/// Utilization/L2 sampling window (paper: 5 s).
const SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(5);

/// Host background-load tick.
const BACKGROUND_TICK: SimDuration = SimDuration::from_millis(1);

/// Per-window host CPU utilization and L2 miss rate, plus the state of
/// the last sample they are deltas against.
#[derive(Debug, Default)]
pub(crate) struct HostWindows {
    /// CPU utilization per window, as fractions.
    pub(crate) cpu_util: Samples,
    /// L2 misses per second per window.
    pub(crate) l2_rate: Samples,
    last_busy_secs: f64,
    last_misses: u64,
    last_sample_at: SimTime,
}

impl HostWindows {
    fn sample(&mut self, host: &HostModel, now: SimTime) {
        let span = now.duration_since(self.last_sample_at).as_secs_f64();
        if span <= 0.0 {
            return;
        }
        let busy = host.cpu.utilization(now) * now.as_secs_f64();
        self.cpu_util
            .record(((busy - self.last_busy_secs) / span).clamp(0.0, 1.0));
        let misses = host.mem.cache().stats().misses;
        self.l2_rate
            .record((misses - self.last_misses) as f64 / span);
        self.last_busy_secs = busy;
        self.last_misses = misses;
        self.last_sample_at = now;
    }
}

/// Registers the host's background tick (from time zero) and then the
/// window sampler (from the first window's end), both until `end`.
/// `parts` picks the host and its windows out of the world. The order
/// is part of the contract: same-instant events run in registration
/// order.
pub(crate) fn schedule_host<M: 'static, F>(sim: &mut Sim<M>, end: SimTime, parts: F)
where
    F: Fn(&mut M) -> (&mut HostModel, &mut HostWindows) + Copy + 'static,
{
    sim.every(SimTime::ZERO, BACKGROUND_TICK, move |sim| {
        let now = sim.now();
        parts(sim.model_mut()).0.background_tick(now);
        now < end
    });
    sim.every(SimTime::ZERO + SAMPLE_PERIOD, SAMPLE_PERIOD, move |sim| {
        let now = sim.now();
        let (host, windows) = parts(sim.model_mut());
        windows.sample(host, now);
        now < end
    });
}
