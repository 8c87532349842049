//! Export recorded events as chrome://tracing JSON (the "Trace Event
//! Format"), loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! The mapping: each node becomes a *process* (pid = node id) with two
//! *threads* — tid 0 is the engine (software events from [`ObsSink`]) and
//! tid 1 is the wire (the simulator's packet-lifecycle
//! [`myrinet_sim::trace::TraceEvent`]s for that node). Every recorded
//! event appears as an instant ("i") event; in addition, matched
//! `begin_message → end_message` and `handler_start → handler_end` pairs
//! are emitted as duration ("X") spans so message lifetimes are visible as
//! bars. Timestamps are virtual nanoseconds rendered as the format's
//! microseconds.
//!
//! Everything is written by hand — the format is simple enough that a JSON
//! serializer dependency would cost more than it saves.

use std::collections::HashMap;
use std::fmt::Write as _;

use myrinet_sim::trace::{TraceEvent, TraceKind};

use super::{ObsEvent, SpanKind, NO_PEER, NO_SERIAL, NO_U32};

/// Wire-side stage name for a simulator trace kind.
pub fn wire_stage_name(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::Inject => "inject",
        TraceKind::TailArrive => "tail_arrive",
        TraceKind::Delivered => "delivered",
    }
}

fn push_args(out: &mut String, ev: &ObsEvent) {
    out.push_str("\"args\":{");
    let mut first = true;
    let mut field = |out: &mut String, k: &str, v: u64| {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{k}\":{v}");
    };
    if ev.peer != NO_PEER {
        field(out, "peer", ev.peer as u64);
    }
    if ev.handler != NO_U32 {
        field(out, "handler", ev.handler as u64);
    }
    if ev.msg_seq != NO_U32 {
        field(out, "msg_seq", ev.msg_seq as u64);
    }
    if ev.seq != NO_U32 {
        field(out, "seq", ev.seq as u64);
    }
    if ev.serial != NO_SERIAL {
        field(out, "serial", ev.serial);
    }
    field(out, "bytes", ev.bytes as u64);
    out.push('}');
}

fn push_event(out: &mut String, name: &str, ph: char, ns: u64, pid: u64, tid: u64) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{}.{:03},\"pid\":{pid},\"tid\":{tid},",
        ns / 1_000,
        ns % 1_000
    );
}

/// Render engine events (from one or more [`ObsSink`]s, concatenated) plus
/// an optional simulator wire trace into one chrome-trace JSON document.
pub fn chrome_trace_json(engine: &[ObsEvent], wire: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(128 * (engine.len() + wire.len()) + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };

    // Process/thread naming metadata.
    let mut nodes: Vec<u64> = engine
        .iter()
        .map(|e| e.node as u64)
        .chain(wire.iter().map(|e| e.node.0 as u64))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in &nodes {
        for (tid, tname) in [(0u64, "engine"), (1, "wire")] {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{n},\"tid\":{tid},\
                 \"args\":{{\"name\":\"node {n} {tname}\"}}}}"
            );
        }
    }

    // Duration spans for matched begin/end pairs, keyed by message
    // identity. (msg_seq is per src→dst, so include both ends in the key.)
    let mut opens: HashMap<(SpanKind, u16, u16, u32), u64> = HashMap::new();
    for ev in engine {
        let open_kind = match ev.kind {
            SpanKind::EndMessage => Some((SpanKind::BeginMessage, "message")),
            SpanKind::HandlerEnd => Some((SpanKind::HandlerStart, "handler")),
            SpanKind::CollEnd => Some((SpanKind::CollStart, "collective")),
            _ => None,
        };
        match ev.kind {
            SpanKind::BeginMessage | SpanKind::HandlerStart | SpanKind::CollStart => {
                opens.insert((ev.kind, ev.node, ev.peer, ev.msg_seq), ev.t.as_ns());
            }
            _ => {}
        }
        if let Some((begin_kind, span_name)) = open_kind {
            if let Some(start) = opens.remove(&(begin_kind, ev.node, ev.peer, ev.msg_seq)) {
                let end = ev.t.as_ns().max(start);
                sep(&mut out);
                push_event(&mut out, span_name, 'X', start, ev.node as u64, 0);
                let _ = write!(
                    out,
                    "\"dur\":{}.{:03},",
                    (end - start) / 1_000,
                    (end - start) % 1_000
                );
                push_args(&mut out, ev);
                out.push('}');
            }
        }
        // Every event also lands as an instant so nothing is hidden.
        sep(&mut out);
        push_event(
            &mut out,
            ev.kind.name(),
            'i',
            ev.t.as_ns(),
            ev.node as u64,
            0,
        );
        out.push_str("\"s\":\"t\",");
        push_args(&mut out, ev);
        out.push('}');
    }

    for ev in wire {
        sep(&mut out);
        push_event(
            &mut out,
            wire_stage_name(ev.kind),
            'i',
            ev.t.as_ns(),
            ev.node.0 as u64,
            1,
        );
        let _ = write!(
            out,
            "\"s\":\"t\",\"args\":{{\"serial\":{},\"wire_bytes\":{}}}}}",
            ev.serial, ev.wire_bytes
        );
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::{parse, JsonValue};
    use fm_model::Nanos;
    use myrinet_sim::NodeId;

    fn ev(t: u64, node: u16, kind: SpanKind) -> ObsEvent {
        ObsEvent::new(Nanos(t), node, kind)
    }

    #[test]
    fn export_parses_and_pairs_spans() {
        let engine = vec![
            ev(1_000, 0, SpanKind::BeginMessage)
                .peer(1)
                .msg_seq(0)
                .bytes(256),
            ev(1_500, 0, SpanKind::PacketSend)
                .peer(1)
                .msg_seq(0)
                .serial_opt(Some(0)),
            ev(2_000, 0, SpanKind::EndMessage)
                .peer(1)
                .msg_seq(0)
                .bytes(256),
            ev(9_000, 1, SpanKind::HandlerStart)
                .peer(0)
                .msg_seq(0)
                .handler(1),
            ev(9_500, 1, SpanKind::HandlerEnd)
                .peer(0)
                .msg_seq(0)
                .handler(1),
        ];
        let wire = vec![TraceEvent {
            t: Nanos(1_700),
            node: NodeId(0),
            serial: 0,
            kind: TraceKind::Inject,
            wire_bytes: 280,
        }];
        let doc = parse(&chrome_trace_json(&engine, &wire)).expect("valid JSON");
        let evs = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        let names: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        // Two duration spans from the two matched pairs.
        assert!(names.contains(&"message"));
        assert!(names.contains(&"handler"));
        // Every instant stage present, including the wire-side one.
        for stage in ["begin_message", "packet_send", "end_message", "inject"] {
            assert!(names.contains(&stage), "missing {stage}");
        }
        // The message span carries its duration in microseconds.
        let msg = evs
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("message"))
            .unwrap();
        assert_eq!(msg.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert!((msg.get("dur").and_then(JsonValue::as_f64).unwrap() - 1.0).abs() < 1e-9);
        assert!((msg.get("ts").and_then(JsonValue::as_f64).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unmatched_begin_still_appears_as_instant() {
        let engine = vec![ev(10, 0, SpanKind::BeginMessage).peer(1).msg_seq(7)];
        let doc = parse(&chrome_trace_json(&engine, &[])).unwrap();
        let evs = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        assert!(evs
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("begin_message")));
        assert!(!evs
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("message")));
    }

    #[test]
    fn empty_input_is_still_valid_json() {
        let doc = parse(&chrome_trace_json(&[], &[])).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(JsonValue::as_arr)
                .unwrap()
                .len(),
            0
        );
    }
}
