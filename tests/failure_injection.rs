//! Failure injection: the system must degrade cleanly, never corrupt
//! state or panic, under dropped packets, exhausted rings, corrupted
//! streams, stale handles, and resource-starved devices.

use bytes::Bytes;
use hydra::core::call::Call;
use hydra::core::channel::{ChannelConfig, ChannelError, Reliability};
use hydra::core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
use hydra::core::error::RuntimeError;
use hydra::core::offcode::{Offcode, OffcodeCtx};
use hydra::core::runtime::{Runtime, RuntimeConfig};
use hydra::media::codec::{CodecConfig, Decoder, Encoder, GopConfig};
use hydra::media::frame::SyntheticVideo;
use hydra::net::nfs::{FileHandle, NasServer, NfsError, NfsRequest, NfsResponse};
use hydra::odf::odf::{Guid, OdfDocument};
use hydra::sim::rng::DetRng;
use hydra::sim::time::SimTime;

#[derive(Debug)]
struct Flaky {
    fail_initialize: bool,
    fail_start: bool,
}

impl Offcode for Flaky {
    fn guid(&self) -> Guid {
        Guid(0xBAD)
    }
    fn bind_name(&self) -> &'static str {
        "test.Flaky"
    }
    fn initialize(&mut self, _ctx: &mut OffcodeCtx) -> Result<(), RuntimeError> {
        if self.fail_initialize {
            Err(RuntimeError::Rejected("init failed".into()))
        } else {
            Ok(())
        }
    }
    fn start(&mut self, _ctx: &mut OffcodeCtx) -> Result<(), RuntimeError> {
        if self.fail_start {
            Err(RuntimeError::Rejected("start failed".into()))
        } else {
            Ok(())
        }
    }
    fn handle_call(
        &mut self,
        _ctx: &mut OffcodeCtx,
        _call: &Call,
    ) -> Result<hydra::core::call::Value, RuntimeError> {
        Ok(hydra::core::call::Value::Unit)
    }
}

fn machine() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    reg
}

#[test]
fn failing_initialize_rolls_back_the_deployment() {
    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    rt.register_offcode(OdfDocument::new("test.Flaky", Guid(0xBAD)), || {
        Box::new(Flaky {
            fail_initialize: true,
            fail_start: false,
        })
    })
    .expect("registers");
    let baseline = rt.resources().len();
    let err = rt.create_offcode(Guid(0xBAD), SimTime::ZERO).unwrap_err();
    assert!(matches!(err, RuntimeError::Rejected(_)));
    assert!(rt.deployments().is_empty(), "nothing stays deployed");
    assert_eq!(rt.resources().len(), baseline, "resources rolled back");
    // The depot entry survives; a fixed factory could redeploy.
    assert_eq!(rt.lookup_bind_name("test.Flaky"), Some(Guid(0xBAD)));
}

#[test]
fn failing_start_also_rolls_back() {
    let mut rt = Runtime::new(machine(), RuntimeConfig::default());
    rt.register_offcode(OdfDocument::new("test.Flaky", Guid(0xBAD)), || {
        Box::new(Flaky {
            fail_initialize: false,
            fail_start: true,
        })
    })
    .expect("registers");
    assert!(rt.create_offcode(Guid(0xBAD), SimTime::ZERO).is_err());
    assert!(rt.deployments().is_empty());
}

#[test]
fn reliable_channel_backpressure_then_recovery() {
    let mut exec = hydra::core::channel::ChannelExecutive::with_default_providers();
    let mut cfg = ChannelConfig::figure3(DeviceId(1));
    cfg.capacity = 4;
    let id = exec.create_channel(cfg).expect("provider exists");
    let ch = exec.get_mut(id).expect("channel exists");
    let ep = ch.connect_endpoint().expect("endpoint");
    let mut last = SimTime::ZERO;
    for _ in 0..4 {
        last = ch
            .send(SimTime::ZERO, Bytes::from_static(b"m"))
            .expect("fits");
    }
    // Ring full: reliable channels refuse rather than drop.
    assert_eq!(
        ch.send(SimTime::ZERO, Bytes::from_static(b"m")),
        Err(ChannelError::WouldBlock)
    );
    assert_eq!(ch.stats().dropped, 0);
    // Drain one, retry succeeds — no message was lost.
    ch.recv(last, ep).expect("visible by then");
    ch.send(last, Bytes::from_static(b"m"))
        .expect("accepts again");
    assert_eq!(ch.stats().sent, 5);
}

#[test]
fn unreliable_channel_sheds_load_without_corruption() {
    let mut exec = hydra::core::channel::ChannelExecutive::with_default_providers();
    let mut cfg = ChannelConfig::figure3(DeviceId(1));
    cfg.capacity = 8;
    cfg.reliability = Reliability::Unreliable;
    let id = exec.create_channel(cfg).expect("provider exists");
    let ch = exec.get_mut(id).expect("channel exists");
    let ep = ch.connect_endpoint().expect("endpoint");
    for i in 0..100u8 {
        let _ = ch.send(SimTime::ZERO, Bytes::from(vec![i]));
    }
    assert_eq!(ch.stats().sent + ch.stats().dropped, 100);
    assert_eq!(ch.stats().dropped, 92);
    // Surviving messages are a prefix in order (head-of-ring semantics).
    let mut expected = 0u8;
    while let Some(m) = ch.recv(SimTime::from_secs(10), ep) {
        assert_eq!(m.data[0], expected);
        expected += 1;
    }
    assert_eq!(expected, 8);
}

#[test]
fn injected_ring_exhaustion_surfaces_as_trace_drops() {
    // Reliable ring full → rejection: no message lost (stats.dropped
    // stays 0) but the fault is visible as a terminated trace chain and
    // a bumped channel.rejected counter.
    let mut exec = hydra::core::channel::ChannelExecutive::with_default_providers();
    let mut cfg = ChannelConfig::figure3(DeviceId(1));
    cfg.capacity = 2;
    let id = exec.create_channel(cfg).expect("provider exists");
    let ch = exec.get_mut(id).expect("channel exists");
    ch.connect_endpoint().expect("endpoint");
    ch.send(SimTime::ZERO, Bytes::from_static(b"a")).unwrap();
    ch.send(SimTime::ZERO, Bytes::from_static(b"b")).unwrap();
    for _ in 0..3 {
        assert_eq!(
            ch.send(SimTime::ZERO, Bytes::from_static(b"x")),
            Err(ChannelError::WouldBlock)
        );
    }
    assert_eq!(ch.stats().dropped, 0, "reliable channels lose nothing");
    let snap = exec.recorder().snapshot();
    let drops = snap.events_kind("drop");
    assert_eq!(drops.len(), 3, "each rejection terminates its trace");
    assert!(drops.iter().all(|d| d.name == "channel.reject"));
    assert_eq!(
        snap.counter("channel.rejected", "zero-copy-dma"),
        Some(3),
        "rejections are counted per provider"
    );

    // Unreliable ring full → genuine loss: stats.dropped, the
    // channel.dropped counter, and a channel.drop trace event all agree.
    let mut cfg = ChannelConfig::figure3(DeviceId(1));
    cfg.capacity = 1;
    cfg.reliability = Reliability::Unreliable;
    let id = exec.create_channel(cfg).expect("provider exists");
    let ch = exec.get_mut(id).expect("channel exists");
    ch.connect_endpoint().expect("endpoint");
    ch.send(SimTime::ZERO, Bytes::from_static(b"a")).unwrap();
    ch.send(SimTime::ZERO, Bytes::from_static(b"lost")).unwrap();
    assert_eq!(ch.stats().dropped, 1);
    let snap = exec.recorder().snapshot();
    let lost: Vec<_> = snap
        .events_kind("drop")
        .into_iter()
        .filter(|d| d.name == "channel.drop")
        .collect();
    assert_eq!(lost.len(), 1);
    assert_eq!(lost[0].bytes, 4, "the lost payload's size is recorded");
    assert_eq!(snap.counter("channel.dropped", "zero-copy-dma"), Some(1));
}

#[test]
fn destroying_a_channel_terminates_in_flight_traces() {
    let mut exec = hydra::core::channel::ChannelExecutive::with_default_providers();
    let id = exec
        .create_channel(ChannelConfig::figure3(DeviceId(1)))
        .expect("provider exists");
    let ch = exec.get_mut(id).expect("channel exists");
    ch.connect_endpoint().expect("endpoint");
    ch.send(SimTime::ZERO, Bytes::from_static(b"pending"))
        .unwrap();
    assert!(exec.destroy(id));
    let snap = exec.recorder().snapshot();
    let drops = snap.events_kind("drop");
    assert_eq!(drops.len(), 1);
    assert_eq!(drops[0].name, "channel.destroyed");
    // Every minted trace terminates: no chain ends on a send/hop event.
    for send in snap.events_kind("send") {
        let chain = snap.trace_events(send.trace);
        let last = chain.last().expect("chain is non-empty");
        assert!(
            last.kind == "recv" || last.kind == "drop",
            "trace {} dangles on a {} event",
            send.trace,
            last.kind
        );
    }
}

#[test]
fn corrupted_bitstreams_error_but_never_panic() {
    let video = SyntheticVideo::new(32, 32);
    let frames: Vec<_> = (0..4).map(|i| video.frame(i)).collect();
    let stream = Encoder::new(CodecConfig {
        quantizer: 4,
        gop: GopConfig::ibbp(),
    })
    .encode_sequence(&frames);
    let mut rng = DetRng::new(99);
    for round in 0..200 {
        let mut frame = stream[rng.index(stream.len())].clone();
        let mut data = frame.data.to_vec();
        if data.is_empty() {
            continue;
        }
        match round % 3 {
            0 => {
                // Flip a byte.
                let at = rng.index(data.len());
                data[at] ^= 1 << rng.index(8);
            }
            1 => {
                // Truncate.
                data.truncate(rng.index(data.len()));
            }
            _ => {
                // Append garbage.
                data.push(rng.next_below(256) as u8);
            }
        }
        frame.data = Bytes::from(data);
        let mut dec = Decoder::new();
        // Feed the intact prefix first so references exist.
        for f in &stream {
            if f.display_index == frame.display_index && f.kind == frame.kind {
                break;
            }
            let _ = dec.push(f);
        }
        // The corrupted frame must fail cleanly or decode to *something*;
        // it must never panic or poison the decoder.
        let _ = dec.push(&frame);
        // Decoder still usable afterwards.
        let _ = dec.flush();
    }
}

#[test]
fn nas_recreate_invalidates_old_view_cleanly() {
    let mut nas = NasServer::default();
    let (r, _) = nas.handle(&NfsRequest::Create { path: "/f".into() });
    let NfsResponse::Handle(fh) = r else { panic!() };
    nas.handle(&NfsRequest::Write {
        fh,
        offset: 0,
        data: Bytes::from_static(b"old"),
    });
    // Recreate truncates but keeps the handle valid (NFS-lite semantics).
    let (r2, _) = nas.handle(&NfsRequest::Create { path: "/f".into() });
    assert_eq!(r2, NfsResponse::Handle(fh));
    let (read, _) = nas.handle(&NfsRequest::Read {
        fh,
        offset: 0,
        len: 16,
    });
    assert_eq!(read, NfsResponse::Data(Bytes::new()), "truncated");
    // A fabricated handle still errors.
    let (bad, _) = nas.handle(&NfsRequest::Read {
        fh: FileHandle(0xDEAD),
        offset: 0,
        len: 1,
    });
    assert_eq!(bad, NfsResponse::Error(NfsError::StaleHandle));
}

#[test]
fn switch_overload_drops_are_bounded_and_counted() {
    use hydra::net::link::LinkSpec;
    use hydra::net::packet::{MacAddr, Packet, Port, Protocol};
    use hydra::net::switch::{ForwardOutcome, Switch};
    let mut sw = Switch::new(LinkSpec::fast_ethernet(), 8);
    let a = sw.add_port(MacAddr(1));
    let _b = sw.add_port(MacAddr(2));
    let mut delivered = 0u32;
    for i in 0..100 {
        let pkt = Packet::new(
            MacAddr(1),
            Port(1),
            MacAddr(2),
            Port(2),
            Protocol::Udp,
            Bytes::from(vec![0u8; 1400]),
        )
        .with_seq(i);
        if matches!(
            sw.forward(SimTime::ZERO, a, &pkt),
            ForwardOutcome::Deliver { .. }
        ) {
            delivered += 1;
        }
    }
    assert_eq!(delivered, 8, "queue capacity bounds burst acceptance");
    assert_eq!(sw.stats().dropped, 92);
    assert_eq!(sw.stats().forwarded, 8);
}

// ---------------------------------------------------------------------------
// Fault-plan injection and automatic recovery (PR 5).

/// Two runs of the same committed fault schedule must be byte-identical:
/// same recovery JSON, same metrics snapshot, same trace export. The
/// golden-artifact harness diffs the same property across processes.
#[test]
fn fault_schedule_replay_is_deterministic() {
    use hydra::tivo::faults::{fault_demo_plan, run_fault_demo};
    let plan = fault_demo_plan();
    let (rt_a, json_a) = run_fault_demo(&plan);
    let (rt_b, json_b) = run_fault_demo(&plan);
    assert_eq!(json_a, json_b, "recovery reports diverge");
    assert_eq!(
        rt_a.metrics_snapshot().to_json(),
        rt_b.metrics_snapshot().to_json(),
        "metrics snapshots diverge"
    );
    assert_eq!(
        rt_a.trace_export(),
        rt_b.trace_export(),
        "trace exports diverge"
    );
    // The committed fixture is this plan's canonical rendering: parsing it
    // back must replay identically.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/fixtures/faults/nic_crash.faults"
    ))
    .expect("fixture exists");
    let parsed = hydra::sim::fault::FaultPlan::parse(&text).expect("fixture parses");
    assert_eq!(parsed, plan, "fixture drifted from fault_demo_plan()");
    let (_, json_c) = run_fault_demo(&parsed);
    assert_eq!(json_a, json_c);
}

mod fault_plans {
    use hydra::core::call::{Call, Value};
    use hydra::core::channel::{ChannelConfig, Transport};
    use hydra::core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
    use hydra::core::error::RuntimeError;
    use hydra::core::health::DeviceHealth;
    use hydra::core::offcode::{Offcode, OffcodeCtx};
    use hydra::core::runtime::{Runtime, RuntimeConfig};
    use hydra::odf::odf::{class_ids, DeviceClassSpec, Guid, OdfDocument};
    use hydra::sim::fault::{FaultKind, FaultPlan};
    use hydra::sim::time::{SimDuration, SimTime};

    fn nic_machine() -> DeviceRegistry {
        let mut reg = DeviceRegistry::new();
        reg.install(DeviceDescriptor::programmable_nic()); // dev1
        reg
    }

    /// A transient firmware stall must round-trip the health state
    /// machine: the device misses beats inside the stall window, goes
    /// Suspect, then resumes beating and is declared Healthy again with
    /// an observable `fault.device_recovered` — never Failed, and never
    /// a recovery re-layout. (Historically `beat` snapped Suspect back to
    /// Healthy without `poll` ever seeing the edge, so the recovery
    /// counter stayed at zero forever.)
    #[test]
    fn stall_then_recover_emits_recovery_not_failure() {
        let mut rt = Runtime::new(nic_machine(), RuntimeConfig::default());
        // Stall window [2ms, 3.5ms + jitter≤187us): the 2ms and 3ms beats
        // are lost, the 4ms beat lands.
        let plan = FaultPlan::new(7).with_event(
            SimTime::from_millis(2),
            1,
            FaultKind::Stall {
                duration: SimDuration::from_micros(1_500),
            },
        );
        rt.install_fault_plan(&plan);
        let beat = SimDuration::from_millis(1);
        for tick in 0..=5u64 {
            let now = SimTime::ZERO + beat * tick;
            let reports = rt.pulse(now).expect("pulses never fail here");
            assert!(reports.is_empty(), "a stall must not trigger recovery");
            if tick == 3 {
                assert_eq!(
                    rt.device_health(DeviceId(1)),
                    DeviceHealth::Suspect,
                    "two missed beats escalate to Suspect"
                );
            }
        }
        assert_eq!(
            rt.device_health(DeviceId(1)),
            DeviceHealth::Healthy,
            "the device recovers once the stall window passes"
        );
        let snap = rt.metrics_snapshot();
        assert_eq!(snap.counter_total("fault.heartbeat_missed"), 2);
        assert_eq!(snap.counter_total("fault.device_suspect"), 1);
        assert_eq!(snap.counter_total("fault.device_recovered"), 1);
        assert_eq!(snap.counter_total("fault.device_failed"), 0);
    }

    #[derive(Debug)]
    struct Plain;

    impl Offcode for Plain {
        fn guid(&self) -> Guid {
            Guid(0x11)
        }
        fn bind_name(&self) -> &'static str {
            "test.Plain"
        }
        fn handle_call(
            &mut self,
            _ctx: &mut OffcodeCtx,
            _call: &Call,
        ) -> Result<Value, RuntimeError> {
            Ok(Value::Unit)
        }
    }

    fn network_odf() -> OdfDocument {
        OdfDocument::new("test.Plain", Guid(0x11)).with_target(DeviceClassSpec {
            id: class_ids::NETWORK,
            name: "class-network".into(),
            bus: None,
            mac: None,
            vendor: None,
        })
    }

    /// Wedged descriptor-ring slots belong to the live ring: once every
    /// endpoint closes (teardown), the wedge must be swept with the ring,
    /// and a re-opened ring must start clean. (Historically the wedge
    /// count survived teardown, so `audit_connections` now asserts no
    /// channel carries wedged slots with zero open endpoints — the exact
    /// orphan this test would have produced.)
    #[test]
    fn wedged_slots_are_swept_on_teardown_and_reopen() {
        let mut rt = Runtime::new(nic_machine(), RuntimeConfig::default());
        rt.register_offcode(network_odf(), || Box::new(Plain))
            .expect("fresh depot");
        let id = rt
            .create_offcode(Guid(0x11), SimTime::ZERO)
            .expect("deploys");
        assert_eq!(rt.device_of(id), Some(DeviceId(1)), "lands on the NIC");
        let mut cfg = ChannelConfig::figure3(DeviceId(1));
        cfg.capacity = 8;
        // Multicast so the ring can be re-opened after teardown closes
        // the last endpoint (unicast channels accept exactly one, ever).
        cfg.transport = Transport::Multicast;
        let chan = rt.create_channel(cfg).expect("provider exists");
        rt.connect_offcode(chan, id).expect("same device");

        let plan = FaultPlan::new(3).with_event(
            SimTime::from_millis(1),
            1,
            FaultKind::RingExhaustion { slots: 3 },
        );
        rt.install_fault_plan(&plan);
        rt.pulse(SimTime::from_millis(1)).expect("no failures");
        // Both dev1 rings (the Offcode's OOB channel and the data
        // channel) picked up the wedge.
        let snap = rt.metrics_snapshot();
        assert_eq!(snap.counter_total("fault.ring_wedged"), 2);
        assert!(rt.audit_connections().is_empty(), "live wedges are fine");

        // Teardown closes the data channel's last endpoint; the wedge
        // must die with the ring or the audit flags an orphan.
        assert!(rt.teardown(id));
        assert!(
            rt.audit_connections().is_empty(),
            "no wedged slots may outlive their ring: {:?}",
            rt.audit_connections()
        );

        // Re-deploy and re-open the same channel: the fresh ring starts
        // clean, and the still-active injector re-wedges it on the next
        // pulse — which is correct, the fault never lifted.
        let id2 = rt
            .create_offcode(Guid(0x11), SimTime::from_millis(2))
            .expect("redeploys");
        rt.connect_offcode(chan, id2).expect("ring reopened");
        assert!(rt.audit_connections().is_empty());
        rt.pulse(SimTime::from_millis(2)).expect("no failures");
        let snap = rt.metrics_snapshot();
        assert_eq!(
            snap.counter_total("fault.ring_wedged"),
            4,
            "the reopened rings wedge again while the fault is active"
        );
        assert!(rt.audit_connections().is_empty());
    }
}

mod gang_recovery {
    use bytes::Bytes;
    use hydra::core::device::{DeviceDescriptor, DeviceId, DeviceRegistry};
    use hydra::core::error::RuntimeError;
    use hydra::core::offcode::{Offcode, OffcodeCtx};
    use hydra::core::runtime::{Runtime, RuntimeConfig};
    use hydra::odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument};
    use hydra::sim::time::SimTime;

    fn class(id: u32) -> DeviceClassSpec {
        DeviceClassSpec {
            id,
            name: format!("class-{id}"),
            bus: None,
            mac: None,
            vendor: None,
        }
    }

    #[derive(Debug)]
    struct Snap {
        guid: Guid,
        name: &'static str,
    }

    impl Offcode for Snap {
        fn guid(&self) -> Guid {
            self.guid
        }
        fn bind_name(&self) -> &str {
            self.name
        }
        fn handle_call(
            &mut self,
            _ctx: &mut OffcodeCtx,
            _call: &hydra::core::call::Call,
        ) -> Result<hydra::core::call::Value, RuntimeError> {
            Ok(hydra::core::call::Value::Unit)
        }
        fn snapshot(&self) -> Option<Bytes> {
            Some(Bytes::from_static(b"s"))
        }
        fn restore(&mut self, _state: Bytes) -> Result<(), RuntimeError> {
            Ok(())
        }
    }

    fn registry() -> DeviceRegistry {
        let mut reg = DeviceRegistry::new();
        reg.install(DeviceDescriptor::programmable_nic()); // dev1
        reg.install(DeviceDescriptor::gpu()); // dev2
        reg
    }

    fn deploy_pair(a_classes: &[u32]) -> Runtime {
        let mut rt = Runtime::new(registry(), RuntimeConfig::default());
        let mut a = OdfDocument::new("test.A", Guid(1)).with_import(Import {
            file: String::new(),
            bind_name: "test.B".into(),
            guid: Guid(2),
            constraint: ConstraintKind::Gang,
            priority: 0,
        });
        for c in a_classes {
            a = a.with_target(class(*c));
        }
        let b = OdfDocument::new("test.B", Guid(2)).with_target(class(class_ids::GPU));
        rt.register_offcode(a, || {
            Box::new(Snap {
                guid: Guid(1),
                name: "test.A",
            })
        })
        .expect("fresh depot");
        rt.register_offcode(b, || {
            Box::new(Snap {
                guid: Guid(2),
                name: "test.B",
            })
        })
        .expect("fresh depot");
        rt.create_offcode(Guid(1), SimTime::ZERO).expect("deploys");
        rt
    }

    /// Gang-constrained recovery, offload reachable: the Gang edge means
    /// "both offloaded, or neither" (layout eq. 3). When the NIC dies but
    /// the displaced Offcode can also run on the GPU, it follows its
    /// partner into offload instead of dragging the gang to the host.
    #[test]
    fn gang_partner_follows_to_surviving_device() {
        let mut rt = deploy_pair(&[class_ids::NETWORK, class_ids::GPU]);
        let a = rt.get_offcode(Guid(1)).expect("deployed");
        let b = rt.get_offcode(Guid(2)).expect("deployed");
        // Pin the interesting shape: a on the NIC, b offloaded on the GPU.
        if rt.device_of(a) != Some(DeviceId(1)) {
            rt.migrate(a, DeviceId(1), SimTime::from_millis(1))
                .expect("a fits on the NIC");
        }
        assert_eq!(rt.device_of(b), Some(DeviceId(2)), "b offloaded on GPU");
        let report = rt
            .on_device_failure(DeviceId(1), SimTime::from_millis(5))
            .expect("recovers");
        let a2 = rt.get_offcode(Guid(1)).expect("a survived");
        let b2 = rt.get_offcode(Guid(2)).expect("b survived");
        assert_eq!(
            rt.device_of(a2),
            Some(DeviceId(2)),
            "a follows its gang partner onto the surviving GPU"
        );
        assert_eq!(rt.device_of(b2), Some(DeviceId(2)), "b never moved");
        assert!(report.constraints_ok, "achieved layout satisfies the ODFs");
        assert_eq!(
            rt.metrics_snapshot().counter_total("recover.migrations"),
            report.displaced.len() as u64,
            "every displaced offcode is accounted as a migration"
        );
        assert_eq!(report.host_fallbacks, 0, "nobody degraded to the host");
    }

    /// Gang-constrained recovery, offload unreachable: a NETWORK-only
    /// Offcode can land nowhere but the host once the NIC dies, and the
    /// Gang edge drags its partner off the (healthy!) GPU down with it.
    #[test]
    fn gang_falls_back_to_host_together() {
        let mut rt = deploy_pair(&[class_ids::NETWORK]);
        let a = rt.get_offcode(Guid(1)).expect("deployed");
        let b = rt.get_offcode(Guid(2)).expect("deployed");
        let home = rt.device_of(a).expect("live");
        assert_eq!(home, DeviceId(1), "NETWORK-only a sits on the NIC");
        assert_eq!(rt.device_of(b), Some(DeviceId(2)), "b offloaded on GPU");
        let report = rt
            .on_device_failure(home, SimTime::from_millis(5))
            .expect("recovers");
        let a2 = rt.get_offcode(Guid(1)).expect("a survived");
        let b2 = rt.get_offcode(Guid(2)).expect("b survived");
        assert_eq!(rt.device_of(a2), Some(DeviceId::HOST));
        assert_eq!(
            rt.device_of(b2),
            Some(DeviceId::HOST),
            "the gang constraint drags b down with a"
        );
        assert!(report.constraints_ok);
        assert!(report.host_fallbacks >= 2);
        assert!(rt.audit_connections().is_empty());
    }
}
