//! `runtime_stream`: a TiVo-style chain deployed through `Runtime` from
//! ODF text, then an open-loop message stream driven by a `hydra_sim::Sim`.
//!
//! One round builds a fresh world (set-up: runtime, parsed ODFs, deployed
//! chain, channels, device models), then streams for [`HORIZON_MS`]
//! simulated milliseconds. Every [`TICK_US`] a token-bucket burst of
//! seeded 64 B–64 KiB messages arrives, whatever the receiver is doing
//! (open loop in simulated time); one share goes over the default
//! zero-copy DMA channel as one batched send, the rest over a
//! cost-adaptive channel as single sends. The same tick drains what has
//! been delivered on both channels and pushes each message through NIC
//! receive, then GPU decode (≥ 16 KiB), a smart-disk block write
//! (≥ 1 KiB) or a host copy (smaller). The recorder is on and a 1 ms
//! telemetry window closes on every simulated millisecond.
//!
//! Host time is a closed loop: the next slice of simulated time runs when
//! the last one finished. The operation timed for `norm_op_us_*` is one
//! [`SLICE_MS`] slice of simulated stream.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use hydra_core::call::{Call, Value};
use hydra_core::channel::{AdaptivePolicy, BatchSendOutcome, ChannelConfig, ChannelId};
use hydra_core::error::RuntimeError;
use hydra_core::offcode::{Offcode, OffcodeCtx};
use hydra_core::providers::install_extras;
use hydra_core::runtime::{Runtime, RuntimeConfig};
use hydra_devices::disk::SmartDiskModel;
use hydra_devices::gpu::GpuModel;
use hydra_devices::host::HostModel;
use hydra_devices::nic::NicModel;
use hydra_devices::DEVICE_BUSY_NS;
use hydra_hw::mem::Region;
use hydra_media::codec::{CodecConfig, EncodedFrame, Encoder, GopConfig};
use hydra_media::frame::SyntheticVideo;
use hydra_net::nfs::{NasServer, NasTiming};
use hydra_odf::odf::{Guid, OdfDocument};
use hydra_sim::rng::DetRng;
use hydra_sim::time::{SimDuration, SimTime};
use hydra_sim::Sim;

use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{testbed, Budget, Measured};

/// Simulated milliseconds streamed per round.
pub const HORIZON_MS: u64 = 200;

/// Arrival period of the token-bucket schedule, µs of simulated time.
pub const TICK_US: u64 = 100;

/// Messages per tick on the batched DMA channel.
pub const DMA_BURST: usize = 5;

/// Messages per tick on the cost-adaptive channel (single sends).
pub const ADAPTIVE_BURST: usize = 5;

/// Simulated milliseconds per timed slice: the operation `norm_op_us_*` times.
pub const SLICE_MS: u64 = 5;

/// Latency limit: a message delivered later than this after its
/// scheduled send counts as failed.
pub const LATENCY_LIMIT_US: u64 = 2_000;

/// Message sizes; the PIO / doorbell-batch / DMA crossovers sit at
/// 256 B and 64 KiB.
const SIZES: [usize; 6] = [64, 256, 1024, 4096, 16 * 1024, 64 * 1024];

/// Share of each of [`SIZES`] in a lane's messages, in percent.
const SIZE_WEIGHTS: [u64; 6] = [30, 20, 20, 15, 10, 5];

/// Distinct payloads per size class.
const VARIANTS: usize = 16;

/// Disk blocks written cyclically, so the NAS file stays bounded.
const DISK_BLOCKS: u64 = 256;

/// The chain's ODFs, as the text a deployer would hand the runtime.
const CHAIN_ODFS: [&str; 3] = [
    r#"<offcode><package><bindname>tivo.Streamer</bindname><GUID>1</GUID><footprint>65536</footprint></package>
<sw-env><import><bindname>tivo.Decoder</bindname><GUID>2</GUID><reference type="Link"/></import>
<import><bindname>tivo.Archiver</bindname><GUID>3</GUID><reference type="Link"/></import></sw-env>
<targets><device-class id="1"><name>Network Device</name></device-class></targets>
<traffic rate="90000" burst="9" bytes="65536"/></offcode>"#,
    r#"<offcode><package><bindname>tivo.Decoder</bindname><GUID>2</GUID><footprint>65536</footprint></package>
<targets><device-class id="3"><name>GPU</name></device-class></targets></offcode>"#,
    r#"<offcode><package><bindname>tivo.Archiver</bindname><GUID>3</GUID><footprint>65536</footprint></package>
<targets><device-class id="2"><name>Storage</name></device-class></targets></offcode>"#,
];

#[derive(Debug)]
struct ChainOffcode {
    guid: Guid,
    name: String,
}

impl Offcode for ChainOffcode {
    fn guid(&self) -> Guid {
        self.guid
    }
    fn bind_name(&self) -> &str {
        &self.name
    }
    fn handle_call(&mut self, _ctx: &mut OffcodeCtx, _call: &Call) -> Result<Value, RuntimeError> {
        Ok(Value::Unit)
    }
}

/// A message in flight: which payload, when it was scheduled.
#[derive(Debug, Clone, Copy)]
struct Pending {
    payload: u32,
    scheduled: SimTime,
}

/// One stream lane: a channel, its receive endpoint, and the accepted
/// messages it still owes the receiver, in order.
struct Lane {
    chan: ChannelId,
    ep: usize,
    owed: VecDeque<Pending>,
}

/// Per-round seeded inputs, shared by every round of a run.
struct Inputs {
    payloads: Vec<Bytes>,
    /// Payload index of each message, in arrival order, per lane.
    schedule: [Vec<u32>; 2],
    frames: Vec<EncodedFrame>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = DetRng::new(seed);
        let mut payloads = Vec::with_capacity(SIZES.len() * VARIANTS);
        for &size in &SIZES {
            for _ in 0..VARIANTS {
                let mut v = vec![0u8; size];
                for chunk in v.chunks_mut(8) {
                    let w = rng.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&w[..chunk.len()]);
                }
                payloads.push(Bytes::from(v));
            }
        }
        let ticks = HORIZON_MS * 1000 / TICK_US;
        // Exactly SIZE_WEIGHTS[c] percent of each lane's messages are of
        // class c, in seeded order, so every seed offers the same bytes.
        let mut draw = |n: usize| -> Vec<u32> {
            let mut ids: Vec<u32> = SIZE_WEIGHTS
                .iter()
                .enumerate()
                .flat_map(|(class, &w)| (0..n * w as usize / 100).map(move |_| class))
                .map(|class| (class * VARIANTS) as u32)
                .collect();
            assert_eq!(ids.len(), n, "size weights sum to 100 and divide the lane");
            for id in &mut ids {
                *id += rng.index(VARIANTS) as u32;
            }
            rng.shuffle(&mut ids);
            ids
        };
        let schedule = [
            draw(ticks as usize * DMA_BURST),
            draw(ticks as usize * ADAPTIVE_BURST),
        ];
        let video = SyntheticVideo::new(64, 48);
        let raw: Vec<_> = (0..4).map(|i| video.frame(i)).collect();
        let frames = Encoder::new(CodecConfig {
            quantizer: 4,
            gop: GopConfig::ipp(),
        })
        .encode_sequence(&raw);
        Inputs {
            payloads,
            schedule,
            frames,
        }
    }
}

/// Everything the stream mutates from inside sim events.
struct Model {
    rt: Runtime,
    lanes: [Lane; 2],
    cursor: [usize; 2],
    inputs: Rc<Inputs>,
    nic: NicModel,
    gpu: GpuModel,
    disk: SmartDiskModel,
    host: HostModel,
    nas: NasServer,
    copy_src: Region,
    copy_dst: Region,
    blocks: u64,
    batch: Vec<Bytes>,
    outcome: BatchSendOutcome,
    tracer: Tracer,
    // Results.
    delivered: u64,
    rejected: u64,
    lost: u64,
    retries: u64,
    backlog_max: usize,
    latencies_ns: Vec<u64>,
    errors: Vec<String>,
}

fn build(inputs: Rc<Inputs>, tracer: Tracer) -> Model {
    let mut rt = Runtime::new(testbed(), RuntimeConfig::default());
    for text in CHAIN_ODFS {
        let odf = OdfDocument::parse(text).expect("chain ODF parses");
        let (guid, name) = (odf.guid, odf.bind_name.clone());
        rt.register_offcode(odf, move || {
            Box::new(ChainOffcode {
                guid,
                name: name.clone(),
            })
        })
        .expect("fresh depot");
    }
    let root = rt
        .create_offcode(Guid(1), SimTime::ZERO)
        .expect("chain deploys");
    let nic_dev = rt.device_of(root).expect("streamer deployed");
    let dma = rt
        .create_channel(ChannelConfig::figure3(nic_dev))
        .expect("default DMA channel");
    install_extras(rt.executive_mut());
    let ada = rt
        .create_channel_adaptive(ChannelConfig::figure3(nic_dev), AdaptivePolicy::default())
        .expect("cost-adaptive channel");
    let mut lane = |chan: ChannelId| Lane {
        chan,
        ep: rt
            .executive_mut()
            .get_mut(chan)
            .expect("channel is live")
            .connect_endpoint()
            .expect("fresh channel has room"),
        owed: VecDeque::new(),
    };
    let lanes = [lane(dma), lane(ada)];

    let rec = rt.recorder().clone();
    let mut host = HostModel::paper_host(7);
    host.set_recorder(rec.clone());
    let copy_src = host.space.alloc("stream-src", 64 * 1024);
    let copy_dst = host.space.alloc("stream-dst", 64 * 1024);
    let mut nic = NicModel::new_3c985b(11);
    nic.set_recorder(rec.clone(), 1);
    let mut disk = SmartDiskModel::new();
    disk.set_recorder(rec.clone(), 2);
    let mut gpu = GpuModel::new();
    gpu.set_recorder(rec, 3);
    let mut nas = NasServer::new(NasTiming::typical());
    disk.open(&mut nas, "/stream/archive.dat");
    Model {
        rt,
        lanes,
        cursor: [0, 0],
        inputs,
        nic,
        gpu,
        disk,
        host,
        nas,
        copy_src,
        copy_dst,
        blocks: 0,
        batch: Vec::with_capacity(DMA_BURST),
        outcome: BatchSendOutcome {
            delivered_at: Vec::new(),
            rejected: 0,
            dropped: 0,
            complete_at: SimTime::ZERO,
            retries: 0,
        },
        tracer,
        delivered: 0,
        rejected: 0,
        lost: 0,
        retries: 0,
        backlog_max: 0,
        latencies_ns: Vec::new(),
        errors: Vec::new(),
    }
}

impl Model {
    fn error(&mut self, msg: String) {
        if self.errors.len() < 16 {
            self.errors.push(msg);
        }
    }

    /// Drains what both lanes have delivered by `now` and pushes each
    /// message through the device datapath.
    fn receive(&mut self, now: SimTime) {
        self.tracer.enter("bench.receive");
        for l in 0..2 {
            let (chan, ep) = (self.lanes[l].chan, self.lanes[l].ep);
            self.tracer.enter("core.channel.recv_batch");
            let msgs = self
                .rt
                .executive_mut()
                .get_mut(chan)
                .expect("lane channel is live")
                .recv_batch(now, ep, usize::MAX);
            self.tracer.exit();
            for msg in msgs {
                let Some(p) = self.lanes[l].owed.pop_front() else {
                    self.error(format!(
                        "lane {l}: message delivered that was never accepted"
                    ));
                    continue;
                };
                let want = &self.inputs.payloads[p.payload as usize];
                let intact = msg.data.len() == want.len()
                    && (msg.data.as_ptr() == want.as_ptr() || msg.data[..] == want[..]);
                if !intact {
                    self.error(format!(
                        "lane {l}: delivery out of order or bytes changed (payload {})",
                        p.payload
                    ));
                }
                self.delivered += 1;
                self.latencies_ns.push(
                    msg.deliver_at
                        .as_nanos()
                        .saturating_sub(p.scheduled.as_nanos()),
                );
                let len = msg.data.len();
                let rx = self
                    .tracer
                    .span("devices.nic.rx", || self.nic.rx_frame(now, len));
                if rx.is_none() {
                    self.lost += 1;
                    continue;
                }
                if len >= 16 * 1024 {
                    let frame = &self.inputs.frames[p.payload as usize % self.inputs.frames.len()];
                    self.tracer
                        .span("devices.gpu.decode", || self.gpu.hw_decode(now, frame));
                } else if len >= 1024 {
                    let idx = self.blocks % DISK_BLOCKS;
                    let r = self.tracer.span("devices.disk.write", || {
                        self.disk.write_block(now, &mut self.nas, idx, msg.data)
                    });
                    if r.is_err() {
                        self.lost += 1;
                    }
                    self.blocks += 1;
                } else {
                    let (src, dst) = (self.copy_src, self.copy_dst);
                    self.tracer.span("devices.host.copy", || {
                        self.host.cpu_copy(now, src, dst, len)
                    });
                }
            }
        }
        self.tracer.exit();
    }

    /// Sends this tick's token-bucket burst on both lanes.
    fn generate(&mut self, now: SimTime) {
        self.tracer.enter("bench.generate");
        let inputs = Rc::clone(&self.inputs);
        // Lane 0: one batched send on the default DMA channel.
        let start = self.cursor[0];
        let ids = &inputs.schedule[0][start..start + DMA_BURST];
        self.cursor[0] += DMA_BURST;
        self.batch.clear();
        self.batch
            .extend(ids.iter().map(|&i| inputs.payloads[i as usize].clone()));
        let chan = self.lanes[0].chan;
        let ch = self
            .rt
            .executive_mut()
            .get_mut(chan)
            .expect("DMA lane is live");
        self.tracer.enter("core.channel.send_batch");
        ch.send_batch_into(now, &self.batch, &mut self.outcome);
        self.tracer.exit();
        let accepted = self.outcome.accepted();
        self.rejected += (DMA_BURST - accepted) as u64;
        self.retries += self.outcome.retries;
        self.lanes[0]
            .owed
            .extend(ids[..accepted].iter().map(|&payload| Pending {
                payload,
                scheduled: now,
            }));
        // Lane 1: single sends on the cost-adaptive channel.
        let start = self.cursor[1];
        self.cursor[1] += ADAPTIVE_BURST;
        let chan = self.lanes[1].chan;
        for &payload in &inputs.schedule[1][start..start + ADAPTIVE_BURST] {
            let data = inputs.payloads[payload as usize].clone();
            let ch = self
                .rt
                .executive_mut()
                .get_mut(chan)
                .expect("adaptive lane is live");
            self.tracer.enter("core.channel.send");
            let r = ch.send(now, data);
            self.tracer.exit();
            match r {
                Ok(_) => self.lanes[1].owed.push_back(Pending {
                    payload,
                    scheduled: now,
                }),
                Err(_) => self.rejected += 1,
            }
        }
        let exec = self.rt.executive();
        for l in &self.lanes {
            let b = exec.get(l.chan).expect("lane is live").backlog(l.ep);
            self.backlog_max = self.backlog_max.max(b);
        }
        self.tracer.exit();
    }

    fn owed(&self) -> usize {
        self.lanes.iter().map(|l| l.owed.len()).sum()
    }
}

fn horizon() -> SimTime {
    SimTime::from_millis(HORIZON_MS)
}

/// Installs the arrival/receive tick and the 1 ms telemetry window tick.
fn install(sim: &mut Sim<Model>) {
    let tick = SimDuration::from_micros(TICK_US);
    let until = horizon();
    sim.every(SimTime::ZERO + tick, tick, move |sim| {
        let now = sim.now();
        let m = sim.model_mut();
        m.receive(now);
        if now <= until {
            m.generate(now);
        }
        now < until || m.owed() > 0
    });
    // The body of `hydra_obs::Sampler::install`, with a span around it.
    let window = SimDuration::from_millis(1);
    let rec = sim.model().rt.recorder().clone();
    sim.every(SimTime::ZERO + window, window, move |sim| {
        let now = sim.now();
        let m = sim.model_mut();
        m.tracer
            .span("obs.sample_window", || rec.sample_window(now));
        now.saturating_add(window) <= until
    });
}

/// Sim-time results of one round, for the cross-round and cross-run
/// determinism checks.
struct RoundResult {
    summary: String,
    p50_us: f64,
    p99_us: f64,
}

/// Runs the workload; see the module documentation.
pub fn run(seed: u64, budget: Budget, tracer: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let inputs = Rc::new(Inputs::new(seed));
    let mut first: Option<String> = None;
    let since = Instant::now();
    while budget.more(m.rounds, since) {
        let scale = m.probe();
        let t = Instant::now();
        let mut sim = Sim::new(build(
            Rc::clone(&inputs),
            std::mem::replace(tracer, Tracer::off()),
        ));
        install(&mut sim);
        let setup = t.elapsed().as_secs_f64();
        m.setup_s.push(setup * scale);

        let mut round_ns = 0u64;
        let mut slice_end = SimTime::ZERO;
        while sim.events_pending() > 0 {
            slice_end = slice_end.saturating_add(SimDuration::from_millis(SLICE_MS));
            let t = Instant::now();
            sim.model_mut().tracer.enter("sim.run");
            sim.run_until(slice_end);
            sim.model_mut().tracer.exit();
            let ns = t.elapsed().as_nanos() as u64;
            round_ns += ns;
            m.op(ns as f64 / 1e3 * scale);
        }
        let events = sim.events_executed();
        let mut model = sim.into_model();
        let t = Instant::now();
        model.tracer.enter("obs.snapshot");
        let snap = model.rt.metrics_snapshot();
        model.tracer.exit();
        let snap_ns = t.elapsed().as_nanos() as u64;
        *tracer = std::mem::replace(&mut model.tracer, Tracer::off());

        m.rounds += 1;
        m.timed_round((round_ns + snap_ns) as f64 / 1e6, scale);
        m.work += model.delivered as f64;
        let r = check_round(&mut model, &snap, events, &mut m);
        match &first {
            None => {
                m.outcome.insert("sim_latency_us_p50", r.p50_us);
                m.outcome.insert("sim_latency_us_p99", r.p99_us);
                m.digest = r.summary.clone();
                first = Some(r.summary);
            }
            Some(s) if *s != r.summary => {
                m.error(format!(
                    "round {} differs from round 1 in simulated time",
                    m.rounds
                ));
            }
            Some(_) => {}
        }
    }
    m
}

/// Checks one round's outputs, books attempted/failed, fills counts.
fn check_round(
    model: &mut Model,
    snap: &hydra_obs::MetricsSnapshot,
    events: u64,
    m: &mut Measured,
) -> RoundResult {
    let scheduled = (model.cursor[0] + model.cursor[1]) as u64;
    let limit_ns = LATENCY_LIMIT_US * 1000;
    let late = model.latencies_ns.iter().filter(|&&l| l > limit_ns).count() as u64;
    m.attempted += scheduled;
    m.failed += model.rejected + model.lost + late;
    for e in std::mem::take(&mut model.errors) {
        m.error(e);
    }
    if model.owed() != 0 {
        m.error(format!(
            "{} accepted messages never delivered",
            model.owed()
        ));
    }
    if model.delivered + model.rejected != scheduled {
        m.error(format!(
            "{} scheduled but {} delivered + {} rejected",
            scheduled, model.delivered, model.rejected
        ));
    }
    let audit = model.rt.audit_connections();
    if !audit.is_empty() {
        m.error(format!("audit_connections: {}", audit.join("; ")));
    }

    let exec = model.rt.executive();
    let (mut dropped, mut doorbells, mut switches) = (0u64, 0u64, 0u64);
    for l in &model.lanes {
        let ch = exec.get(l.chan).expect("lane is live");
        dropped += ch.stats().dropped;
        doorbells += ch.cost_profile().doorbells();
        switches += ch.provider_switches();
    }
    let end_ns = snap.windows.last().map_or(1, |w| w.end_nanos).max(1);
    let busy = |label: &str| {
        snap.counter(DEVICE_BUSY_NS, label).unwrap_or(0) as f64 * 1000.0 / end_ns as f64
    };
    let c = &mut m.counts;
    c.insert("sim.events", events as f64);
    c.insert("core.channel.rejected", model.rejected as f64);
    c.insert("core.channel.dropped", dropped as f64);
    c.insert("core.channel.retries", model.retries as f64);
    c.insert("core.channel.doorbells", doorbells as f64);
    c.insert("core.channel.provider_switches", switches as f64);
    c.insert("core.channel.backlog_max", model.backlog_max as f64);
    c.insert("devices.nic.busy_permille", busy("device-1"));
    c.insert("devices.disk.busy_permille", busy("device-2"));
    c.insert("devices.gpu.busy_permille", busy("device-3"));
    c.insert("devices.host.busy_permille", busy("host"));
    c.insert("obs.windows", snap.windows.len() as f64);

    let lat_us: Vec<f64> = model.latencies_ns.iter().map(|&l| l as f64 / 1e3).collect();
    let p50_us = percentile(&lat_us, 50.0).unwrap_or(0.0);
    let p99_us = percentile(&lat_us, 99.0).unwrap_or(0.0);
    let mut summary = format!(
        "stream scheduled={scheduled} delivered={} rejected={} lost={} late={late} \
         latency_sum_ns={} sim_latency_us_p50={p50_us:?} sim_latency_us_p99={p99_us:?}",
        model.delivered,
        model.rejected,
        model.lost,
        model.latencies_ns.iter().sum::<u64>()
    );
    for (k, v) in &m.counts {
        let _ = write!(summary, " {k}={v:?}");
    }
    RoundResult {
        summary,
        p50_us,
        p99_us,
    }
}
