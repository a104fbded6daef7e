//! The fault-injection demo: the observability pipeline under a NIC
//! crash.
//!
//! The scenario deploys the demo trio (streamer → decoder → display)
//! plus a stateful archiver on the smart disk, feeds every component a
//! known number of calls, then replays a committed [`FaultPlan`] that
//! fail-stops the NIC mid-run. The runtime's health monitor notices the
//! silence, declares the device Failed, and recovery re-lays-out the
//! application over the survivors: the streamer (NETWORK-only) falls
//! back to the host, the Gang constraint drags the decoder with it, the
//! Pull constraint drags the display, and the archiver stays put on the
//! disk. Every component is snapshot-able here, so all three moves are
//! live migrations and no call count is lost.
//!
//! [`run_fault_demo`] renders the outcome as canonical JSON; two runs of
//! the same plan produce byte-identical output (the golden-artifact
//! harness diffs two `repro -- faults` runs for exactly that).

use hydra_core::call::{Call, Value};
use hydra_core::device::{DeviceDescriptor, DeviceRegistry};
use hydra_core::error::RuntimeError;
use hydra_core::offcode::{Offcode, OffcodeCtx};
use hydra_core::runtime::{Runtime, RuntimeConfig};
use hydra_odf::odf::{class_ids, ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument};
use hydra_sim::fault::{FaultKind, FaultPlan};
use hydra_sim::time::{SimDuration, SimTime};

use bytes::Bytes;

/// A demo Offcode that counts its calls and can snapshot/restore the
/// count — the minimal "stateful component" a live migration must not
/// lose.
#[derive(Debug)]
struct StatefulDemoOffcode {
    guid: Guid,
    name: &'static str,
    count: u64,
}

impl Offcode for StatefulDemoOffcode {
    fn guid(&self) -> Guid {
        self.guid
    }
    fn bind_name(&self) -> &str {
        self.name
    }
    fn handle_call(&mut self, _ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError> {
        match call.operation.as_str() {
            "get" => Ok(Value::U64(self.count)),
            _ => {
                self.count += 1;
                Ok(Value::U64(self.count))
            }
        }
    }
    fn snapshot(&self) -> Option<Bytes> {
        Some(Bytes::copy_from_slice(&self.count.to_le_bytes()))
    }
    fn restore(&mut self, state: Bytes) -> Result<(), RuntimeError> {
        let raw: [u8; 8] = state
            .as_ref()
            .try_into()
            .map_err(|_| RuntimeError::Rejected("bad snapshot length".into()))?;
        self.count = u64::from_le_bytes(raw);
        Ok(())
    }
}

fn class(id: u32) -> DeviceClassSpec {
    DeviceClassSpec {
        id,
        name: format!("class-{id}"),
        bus: None,
        mac: None,
        vendor: None,
    }
}

/// The fault demo's four ODFs: the demo trio plus `tivo.Archiver` on the
/// smart disk (a survivor that must stay put through recovery).
pub fn fault_demo_odfs() -> Vec<OdfDocument> {
    let streamer = OdfDocument::new("tivo.Streamer", Guid(1))
        .with_target(class(class_ids::NETWORK))
        .with_import(Import {
            file: String::new(),
            bind_name: "tivo.Decoder".into(),
            guid: Guid(2),
            constraint: ConstraintKind::Gang,
            priority: 0,
        });
    let decoder = OdfDocument::new("tivo.Decoder", Guid(2))
        .with_target(class(class_ids::GPU))
        .with_import(Import {
            file: String::new(),
            bind_name: "tivo.Display".into(),
            guid: Guid(3),
            constraint: ConstraintKind::Pull,
            priority: 0,
        });
    let display = OdfDocument::new("tivo.Display", Guid(3)).with_target(class(class_ids::GPU));
    let archiver =
        OdfDocument::new("tivo.Archiver", Guid(4)).with_target(class(class_ids::STORAGE));
    vec![streamer, decoder, display, archiver]
}

/// The committed fault schedule: the NIC (device 1) fail-stops two
/// milliseconds into the run. `fixtures/faults/nic_crash.faults` is this
/// plan's canonical rendering.
pub fn fault_demo_plan() -> FaultPlan {
    FaultPlan::new(42).with_event(
        SimTime::ZERO + SimDuration::from_millis(2),
        1,
        FaultKind::Crash,
    )
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs the fault demo under `plan` and returns the runtime (recorder
/// populated, recovery complete) plus the canonical JSON report: the
/// schedule echo, per-pulse recovery reports, final placements, the
/// preserved call counts, the connection audit, and the `fault.*` /
/// `recover.*` counters. Byte-identical across runs of the same plan.
pub fn run_fault_demo(plan: &FaultPlan) -> (Runtime, String) {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic()); // dev1
    reg.install(DeviceDescriptor::smart_disk()); // dev2
    reg.install(DeviceDescriptor::gpu()); // dev3
    let mut rt = Runtime::new(reg, RuntimeConfig::default());

    for odf in fault_demo_odfs() {
        let guid = odf.guid;
        let name: &'static str = match guid {
            Guid(1) => "tivo.Streamer",
            Guid(2) => "tivo.Decoder",
            Guid(3) => "tivo.Display",
            _ => "tivo.Archiver",
        };
        rt.register_offcode(odf, move || {
            Box::new(StatefulDemoOffcode {
                guid,
                name,
                count: 0,
            })
        })
        .expect("fresh depot");
    }
    rt.create_offcode(Guid(1), SimTime::ZERO)
        .expect("demo trio deploys");
    rt.create_offcode(Guid(4), SimTime::ZERO)
        .expect("archiver deploys");

    // Give every component a distinct call count the migration must carry.
    for (guid, calls) in [(1u64, 3u64), (2, 5), (3, 7), (4, 11)] {
        let id = rt.get_offcode(Guid(guid)).expect("deployed");
        for _ in 0..calls {
            rt.invoke(id, &Call::new(Guid(guid), "frame"), SimTime::ZERO)
                .expect("call handled");
        }
    }

    rt.install_fault_plan(plan);

    // Drive health pulses on the heartbeat cadence past the failure
    // deadline, collecting every recovery report.
    let beat = SimDuration::from_millis(1);
    let mut reports = Vec::new();
    let mut report_times = Vec::new();
    for tick in 0..=10u64 {
        let now = SimTime::ZERO + beat * tick;
        for r in rt.pulse(now).expect("recovery succeeds") {
            reports.push(r);
            report_times.push(now);
        }
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"schedule\": \"{}\",\n", esc(&plan.render())));
    json.push_str("  \"recoveries\": [\n");
    for (i, (r, at)) in reports.iter().zip(&report_times).enumerate() {
        let displaced: Vec<String> = r
            .displaced
            .iter()
            .map(|n| format!("\"{}\"", esc(n)))
            .collect();
        let migrated: Vec<String> = r
            .migrated
            .iter()
            .map(|(g, d)| format!("{{\"guid\": {}, \"to\": \"{d}\"}}", g.0))
            .collect();
        let redeployed: Vec<String> = r.redeployed.iter().map(|g| g.0.to_string()).collect();
        json.push_str(&format!(
            "    {{\"at_ns\": {}, \"device\": \"{}\", \"displaced\": [{}], \"migrated\": [{}], \"host_fallbacks\": {}, \"redeployed\": [{}], \"constraints_ok\": {}}}{}\n",
            at.as_nanos(),
            r.device,
            displaced.join(", "),
            migrated.join(", "),
            r.host_fallbacks,
            redeployed.join(", "),
            r.constraints_ok,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");

    json.push_str("  \"placements\": [\n");
    for (i, guid) in [1u64, 2, 3, 4].iter().enumerate() {
        let (device, count) = match rt.get_offcode(Guid(*guid)) {
            Some(id) => {
                let device = rt.device_of(id).expect("live instance");
                let end = SimTime::ZERO + beat * 11;
                let count = match rt.invoke(id, &Call::new(Guid(*guid), "get"), end) {
                    Ok(Value::U64(n)) => n,
                    other => panic!("unexpected get result: {other:?}"),
                };
                (device.to_string(), count)
            }
            None => ("lost".to_owned(), 0),
        };
        json.push_str(&format!(
            "    {{\"guid\": {guid}, \"device\": \"{device}\", \"calls\": {count}}}{}\n",
            if i < 3 { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");

    let audit = rt.audit_connections();
    let problems: Vec<String> = audit.iter().map(|p| format!("\"{}\"", esc(p))).collect();
    json.push_str(&format!("  \"audit\": [{}],\n", problems.join(", ")));

    let snap = rt.metrics_snapshot();
    json.push_str("  \"counters\": {\n");
    let interesting = [
        "fault.heartbeat_missed",
        "fault.device_suspect",
        "fault.device_failed",
        "deploy.migrations",
        "recover.migrations",
        "recover.host_fallback",
        "recover.redeployed",
        "deploy.host_fallback",
    ];
    for (i, name) in interesting.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {}{}\n",
            snap.counter_total(name),
            if i + 1 < interesting.len() { "," } else { "" },
        ));
    }
    json.push_str("  }\n}\n");
    (rt, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::device::DeviceId;
    use hydra_core::health::DeviceHealth;

    #[test]
    fn nic_crash_recovers_with_state_intact() {
        let plan = fault_demo_plan();
        let (rt, json) = run_fault_demo(&plan);
        assert_eq!(rt.device_health(DeviceId(1)), DeviceHealth::Failed);
        // The gang/pull cascade pulls all three pipeline components to
        // the host; the archiver survives in place on the disk.
        for guid in [1u64, 2, 3] {
            let id = rt.get_offcode(Guid(guid)).expect("survived");
            assert_eq!(rt.device_of(id), Some(DeviceId::HOST), "guid {guid}");
        }
        let arch = rt.get_offcode(Guid(4)).expect("archiver survived");
        assert_eq!(rt.device_of(arch), Some(DeviceId(2)));
        // Call counts preserved across the migration (+1: the report's
        // own "get" probe does not count).
        assert!(json.contains("\"guid\": 1, \"device\": \"host\", \"calls\": 3"));
        assert!(json.contains("\"guid\": 2, \"device\": \"host\", \"calls\": 5"));
        assert!(json.contains("\"guid\": 3, \"device\": \"host\", \"calls\": 7"));
        assert!(json.contains("\"guid\": 4, \"device\": \"dev2\", \"calls\": 11"));
        assert!(json.contains("\"audit\": []"));
        // 3 displaced => 3 recovery migrations.
        let snap = rt.metrics_snapshot();
        assert_eq!(snap.counter_total("recover.migrations"), 3);
        assert_eq!(snap.counter_total("fault.device_failed"), 1);
    }

    #[test]
    fn fault_demo_is_byte_identical_across_runs() {
        let plan = fault_demo_plan();
        let (rt_a, json_a) = run_fault_demo(&plan);
        let (rt_b, json_b) = run_fault_demo(&plan);
        assert_eq!(json_a, json_b);
        assert_eq!(
            rt_a.metrics_snapshot().to_json(),
            rt_b.metrics_snapshot().to_json()
        );
        assert_eq!(rt_a.trace_export(), rt_b.trace_export());
    }
}
