//! Exporters over a frozen [`MetricsSnapshot`].
//!
//! The flight recorder's event chains are most useful on a timeline. This
//! module renders them in the **Chrome trace-event format** — the JSON
//! that `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly:
//!
//! - every trace event becomes a complete (`"ph":"X"`) slice whose `ts`
//!   is the event's **simulation time in microseconds** (exact integer
//!   arithmetic, rendered as `micros.frac`),
//! - the **device id is the "pid"** (0 = host), so each device gets its
//!   own process track and a cross-device request visibly migrates
//!   between tracks,
//! - the trace id is the "tid", giving each logical request its own row,
//! - flow events (`"ph":"s"/"t"/"f"`, id = trace id) stitch the slices of
//!   one trace into a connected arrow chain across devices.
//!
//! The output is byte-identical across identical runs: events are emitted
//! in record order, device metadata in sorted order, and every number is
//! produced by integer arithmetic.

use std::collections::BTreeSet;

use crate::snapshot::{json_str, MetricsSnapshot, TraceEventSample};

/// The Perfetto process a telemetry track attaches to: labels of the
/// form `device-N` map to that device's pid, everything else (including
/// `host`) to the host's pid 0 — so counter tracks land on the same
/// process rows as the device's trace slices.
fn track_pid(label: &str) -> u64 {
    label
        .strip_prefix("device-")
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn track_name(name: &str, label: &str) -> String {
    if label.is_empty() {
        name.to_owned()
    } else {
        format!("{name}{{{label}}}")
    }
}

/// Duration charged to a slice when the event is the last of its trace or
/// its successor shares the same instant (µs) — keeps zero-width slices
/// visible in the viewer.
const MIN_SLICE_NANOS: u64 = 1_000;

/// Nanoseconds rendered as fractional microseconds (`"12.345"`), the
/// trace-event `ts`/`dur` unit, via pure integer arithmetic.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn process_name(device: u64) -> String {
    if device == 0 {
        "host".to_owned()
    } else {
        format!("device-{device}")
    }
}

/// The slice duration for event `i`: up to the next event on the same
/// trace, floored at [`MIN_SLICE_NANOS`].
fn slice_dur(events: &[TraceEventSample], i: usize) -> u64 {
    let e = &events[i];
    events[i + 1..]
        .iter()
        .find(|n| n.trace == e.trace)
        .map_or(0, |n| n.at_nanos.saturating_sub(e.at_nanos))
        .max(MIN_SLICE_NANOS)
}

/// Renders the snapshot's flight-recorder events as Chrome trace-event
/// JSON (loadable in `chrome://tracing` or Perfetto).
///
/// # Examples
///
/// ```
/// use hydra_obs::{export::chrome_trace, Recorder};
/// use hydra_sim::time::SimTime;
///
/// let rec = Recorder::new();
/// let ctx = rec.trace_begin("channel.send", "dma", 0, SimTime::ZERO, 64);
/// let ctx = rec.trace_hop(ctx, "provider.ring", "dma", 1, SimTime::from_micros(3), 64);
/// rec.trace_recv(ctx, "channel.recv", "dma", 1, SimTime::from_micros(5), 64);
/// let json = chrome_trace(&rec.snapshot());
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"ph\":\"X\""));
/// ```
pub fn chrome_trace(snapshot: &MetricsSnapshot) -> String {
    let events = &snapshot.events;
    let mut out = String::with_capacity(256 + events.len() * 192);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    out.push_str(&format!(
        "\"events_dropped\":{},\"source\":\"hydra-obs flight recorder\"",
        snapshot.events_dropped
    ));
    out.push_str("},\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, first: &mut bool| -> String {
        let sep = if *first { "" } else { "," };
        *first = false;
        format!("{sep}{s}")
    };

    // Process-name metadata, one per device, sorted for stability. The
    // telemetry windows' counter tracks attach to device processes too,
    // so their pids also need naming.
    let mut devices: BTreeSet<u64> = events.iter().map(|e| e.device).collect();
    for w in &snapshot.windows {
        devices.extend(w.counters.iter().map(|t| track_pid(&t.label)));
        devices.extend(w.levels.iter().map(|l| track_pid(&l.label)));
    }
    let mut body = String::new();
    for d in devices {
        body.push_str(&push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{d},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
                json_str(&process_name(d))
            ),
            &mut first,
        ));
    }

    // Slices + flows, in record order. The first event of a trace opens
    // the flow ("s"), the last closes it ("f"), middles step ("t").
    for (i, e) in events.iter().enumerate() {
        let dur = slice_dur(events, i);
        let parent = match e.parent {
            Some(p) => p.to_string(),
            None => "null".to_owned(),
        };
        body.push_str(&push(
            format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"trace\":{},\"event\":{},\"parent\":{},\"label\":{},\"bytes\":{}}}}}",
                json_str(e.name),
                json_str(e.kind),
                micros(e.at_nanos),
                micros(dur),
                e.device,
                e.trace,
                e.trace,
                e.id,
                parent,
                json_str(&e.label),
                e.bytes
            ),
            &mut first,
        ));
        let is_root = e.parent.is_none()
            || !events
                .iter()
                .any(|o| o.trace == e.trace && Some(o.id) == e.parent);
        let has_child = events[i + 1..].iter().any(|o| o.parent == Some(e.id));
        let ph = if is_root && has_child {
            "s"
        } else if has_child {
            "t"
        } else if is_root {
            // A one-event trace needs no flow arrow.
            continue;
        } else {
            "f"
        };
        let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
        body.push_str(&push(
            format!(
                "{{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"{ph}\",\"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}{bp}}}",
                e.trace,
                micros(e.at_nanos),
                e.device,
                e.trace
            ),
            &mut first,
        ));
    }
    // Telemetry windows as Perfetto counter tracks ("ph":"C"): one
    // sample per window at its closing edge — counter deltas as rates,
    // levels as instantaneous values. Window order then (name, label)
    // order keeps the rendering byte-stable.
    for w in &snapshot.windows {
        let ts = micros(w.end_nanos);
        for t in &w.counters {
            body.push_str(&push(
                format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts},\"pid\":{},\"tid\":0,\"args\":{{\"value\":{}}}}}",
                    json_str(&track_name(t.name, &t.label)),
                    track_pid(&t.label),
                    t.delta
                ),
                &mut first,
            ));
        }
        for l in &w.levels {
            body.push_str(&push(
                format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts},\"pid\":{},\"tid\":0,\"args\":{{\"value\":{}}}}}",
                    json_str(&track_name(l.name, &l.label)),
                    track_pid(&l.label),
                    l.value
                ),
                &mut first,
            ));
        }
    }
    out.push_str(&body);
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use hydra_sim::time::SimTime;

    fn chain() -> MetricsSnapshot {
        let rec = Recorder::new();
        let ctx = rec.trace_begin("channel.send", "dma", 0, SimTime::ZERO, 64);
        let ctx = rec.trace_hop(ctx, "provider.ring", "dma", 1, SimTime::from_micros(3), 64);
        rec.trace_recv(ctx, "channel.recv", "dma", 1, SimTime::from_micros(5), 64);
        rec.snapshot()
    }

    #[test]
    fn empty_snapshot_is_valid_and_stable() {
        let json = chrome_trace(&MetricsSnapshot::default());
        assert_eq!(
            json,
            "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"events_dropped\":0,\
             \"source\":\"hydra-obs flight recorder\"},\"traceEvents\":[]}"
        );
    }

    #[test]
    fn chain_renders_slices_and_flows() {
        let json = chrome_trace(&chain());
        // Two device processes, named.
        assert!(json.contains("\"args\":{\"name\":\"host\"}"));
        assert!(json.contains("\"args\":{\"name\":\"device-1\"}"));
        // Three slices with sim-time µs timestamps.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"ts\":3.000"));
        assert!(json.contains("\"ts\":5.000"));
        // A full flow: start, step, finish.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"t\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
    }

    #[test]
    fn identical_chains_render_byte_identical_json() {
        assert_eq!(chrome_trace(&chain()), chrome_trace(&chain()));
    }

    #[test]
    fn slice_durations_span_to_next_event_on_trace() {
        let snap = chain();
        // send at 0 -> hop at 3µs: dur 3µs; hop -> recv: 2µs; recv: floor.
        let json = chrome_trace(&snap);
        assert!(json.contains("\"dur\":3.000"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"dur\":1.000"));
    }

    #[test]
    fn windows_render_as_perfetto_counter_tracks() {
        let rec = Recorder::new();
        rec.counter_add("device.busy_ns", "device-2", 400_000);
        rec.level_set("channel.queue_depth", "figure3", 3);
        rec.sample_window(SimTime::from_millis(1));
        let json = chrome_trace(&rec.snapshot());
        // The busy track attaches to device 2's process, which gets
        // named even though no trace slice ran there.
        assert!(json.contains("\"args\":{\"name\":\"device-2\"}"));
        assert!(json.contains(
            "{\"name\":\"device.busy_ns{device-2}\",\"ph\":\"C\",\"ts\":1000.000,\
             \"pid\":2,\"tid\":0,\"args\":{\"value\":400000}}"
        ));
        assert!(json.contains(
            "{\"name\":\"channel.queue_depth{figure3}\",\"ph\":\"C\",\"ts\":1000.000,\
             \"pid\":0,\"tid\":0,\"args\":{\"value\":3}}"
        ));
        assert_eq!(chrome_trace(&rec.snapshot()), json, "byte-stable");
    }

    #[test]
    fn truncated_trace_head_does_not_emit_flow_start_twice() {
        // Simulate a ring that lost the root: the surviving head is
        // treated as the flow start.
        let rec = Recorder::new();
        rec.set_flight_capacity(2);
        let ctx = rec.trace_begin("a", "", 0, SimTime::ZERO, 0);
        let ctx = rec.trace_hop(ctx, "b", "", 1, SimTime::from_micros(1), 0);
        rec.trace_recv(ctx, "c", "", 1, SimTime::from_micros(2), 0);
        let snap = rec.snapshot();
        assert_eq!(snap.events_dropped, 1);
        let json = chrome_trace(&snap);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        assert!(json.contains("\"events_dropped\":1"));
    }
}
