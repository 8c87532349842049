//! Cross-layer trace ordering: engine observability events joined with
//! the simulator's wire-level packet trace by substrate serial.
//!
//! A seeded multinode run must produce a well-ordered span sequence for
//! every message — `begin_message → packet_send* → end_message` on the
//! sender, `inject → tail_arrive → delivered` on the wire, and
//! `packet_recv → handler_start → handler_end` on the receiver — and the
//! entire recorded history (engine and wire) must be bit-identical across
//! two runs with the same seed.

use std::cell::Cell;
use std::rc::Rc;

use fast_messages::fm::obs::NO_SERIAL;
use fast_messages::fm::packet::HandlerId;
use fast_messages::fm::{Fm2Engine, FmPacket, FmStream, ObsEvent, ObsSink, SimDevice, SpanKind};
use fast_messages::model::{MachineProfile, Nanos};
use fast_messages::sim::fault::FaultModel;
use fast_messages::sim::trace::{TraceEvent, TraceKind};
use fast_messages::sim::{NodeId, Simulation, StepOutcome, Topology};

const H: HandlerId = HandlerId(1);
const SENDERS: usize = 2;
const MSGS: usize = 6;
const SIZE: usize = 4000; // several packets per message on the FM2 MTU

/// Everything one traced run records: per-node engine events (index =
/// node id) plus the wire trace.
struct RunRecord {
    engine: Vec<Vec<ObsEvent>>,
    wire: Vec<TraceEvent>,
}

/// Run `SENDERS` nodes streaming `MSGS` messages each into node 0, all
/// engines feeding observability sinks, the simulator tracing the wire.
/// `fault` optionally drops packets (a faulty wire switches the
/// retransmission sublayer on, so the run still completes).
fn traced_run(fault: Option<FaultModel>) -> RunRecord {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim: Simulation<FmPacket> =
        Simulation::new(profile, Topology::single_crossbar(SENDERS + 1));
    sim.enable_trace(100_000);
    if let Some(f) = fault {
        sim.set_fault_model(f);
    }

    let sinks: Vec<ObsSink> = (0..=SENDERS).map(|_| ObsSink::new(100_000)).collect();

    let senders_done = Rc::new(Cell::new(0usize));
    // `s` is the node id (NodeId, payload byte), not just a sink index.
    #[allow(clippy::needless_range_loop)]
    for s in 1..=SENDERS {
        let fm = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(s))), profile);
        fm.attach_obs(sinks[s].clone());
        let senders_done = Rc::clone(&senders_done);
        let mut sent = 0usize;
        let mut counted = false;
        let data = vec![s as u8; SIZE];
        sim.set_program(
            NodeId(s),
            Box::new(move || {
                fm.extract_all(); // credits and acks in
                while sent < MSGS && fm.try_send_message(0, H, &[&data]).is_ok() {
                    sent += 1;
                }
                if sent == MSGS && fm.unacked_packets() == 0 {
                    if !counted {
                        counted = true;
                        senders_done.set(senders_done.get() + 1);
                    }
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    let fm_r = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), profile);
    fm_r.attach_obs(sinks[0].clone());
    let got = Rc::new(Cell::new(0usize));
    {
        let got = Rc::clone(&got);
        fm_r.set_handler(H, move |stream: FmStream, src| {
            let got = Rc::clone(&got);
            async move {
                let m = stream.receive_vec(stream.msg_len()).await;
                assert_eq!(m.len(), SIZE);
                assert!(m.iter().all(|&b| b == src as u8), "payload intact");
                got.set(got.get() + 1);
            }
        });
    }
    {
        let got = Rc::clone(&got);
        let fm_r = fm_r.clone();
        let senders_done = Rc::clone(&senders_done);
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                fm_r.extract_all();
                // Keep acking until every sender has confirmed delivery.
                // A timed poll (not Wait): "all senders done" is not a
                // host-visible event, so sleeping could park us forever.
                if got.get() >= SENDERS * MSGS && senders_done.get() == SENDERS {
                    return StepOutcome::Done;
                }
                fm_r.charge(Nanos::from_us(5));
                StepOutcome::Continue
            }),
        );
    }

    sim.run(Some(Nanos::from_ms(500)));
    assert!(sim.all_done(), "traced run wedged: {} delivered", got.get());
    RunRecord {
        engine: sinks.iter().map(|s| s.take_events()).collect(),
        wire: sim.trace().expect("tracing enabled").events().to_vec(),
    }
}

#[test]
fn spans_are_well_ordered_across_all_layers() {
    let rec = traced_run(None);

    // Sender side: per message, begin < every packet_send < end, and
    // timestamps never decrease within a sink.
    for s in 1..=SENDERS {
        let evs = &rec.engine[s];
        assert!(
            evs.windows(2).all(|w| w[0].t <= w[1].t),
            "node {s}: ring is chronological"
        );
        for m in 0..MSGS as u32 {
            let begin = evs
                .iter()
                .position(|e| e.kind == SpanKind::BeginMessage && e.msg_seq == m)
                .unwrap_or_else(|| panic!("node {s} msg {m}: no begin_message"));
            let end = evs
                .iter()
                .position(|e| e.kind == SpanKind::EndMessage && e.msg_seq == m)
                .unwrap_or_else(|| panic!("node {s} msg {m}: no end_message"));
            assert!(begin < end, "node {s} msg {m}: begin after end");
            let sends: Vec<usize> = evs
                .iter()
                .enumerate()
                .filter(|(_, e)| e.kind == SpanKind::PacketSend && e.msg_seq == m)
                .map(|(i, _)| i)
                .collect();
            assert!(
                sends.len() >= 2,
                "node {s} msg {m}: multi-packet message, got {} sends",
                sends.len()
            );
            assert!(
                sends.iter().all(|&i| begin < i && i < end),
                "node {s} msg {m}: packet sends outside begin/end"
            );
        }
    }

    // Wire side: every engine packet_send serial joins a complete
    // inject → tail_arrive → delivered lifecycle, in that time order.
    let mut joined = 0usize;
    for s in 1..=SENDERS {
        for ev in rec.engine[s]
            .iter()
            .filter(|e| e.kind == SpanKind::PacketSend)
        {
            assert_ne!(ev.serial, NO_SERIAL, "sim devices always know serials");
            let life: Vec<&TraceEvent> =
                rec.wire.iter().filter(|w| w.serial == ev.serial).collect();
            assert_eq!(
                life.len(),
                3,
                "serial {}: expected full 3-stage lifecycle",
                ev.serial
            );
            assert_eq!(life[0].kind, TraceKind::Inject);
            assert_eq!(life[1].kind, TraceKind::TailArrive);
            assert_eq!(life[2].kind, TraceKind::Delivered);
            assert!(life[0].t <= life[1].t && life[1].t <= life[2].t);
            assert!(
                ev.t <= life[0].t,
                "engine hands off before the NIC injects (serial {})",
                ev.serial
            );
            joined += 1;
        }
    }
    assert!(joined > 0, "join was vacuous");

    // Receiver side: per (sender, message), a packet_recv precedes
    // handler_start, which precedes handler_end; and each packet_recv's
    // serial was delivered on the wire before the host pulled it.
    let recv = &rec.engine[0];
    for s in 1..=SENDERS as u16 {
        for m in 0..MSGS as u32 {
            let first_recv = recv
                .iter()
                .position(|e| e.kind == SpanKind::PacketRecv && e.peer == s && e.msg_seq == m)
                .unwrap_or_else(|| panic!("no packet_recv from {s} msg {m}"));
            let start = recv
                .iter()
                .position(|e| e.kind == SpanKind::HandlerStart && e.peer == s && e.msg_seq == m)
                .unwrap_or_else(|| panic!("no handler_start from {s} msg {m}"));
            let end = recv
                .iter()
                .position(|e| e.kind == SpanKind::HandlerEnd && e.peer == s && e.msg_seq == m)
                .unwrap_or_else(|| panic!("no handler_end from {s} msg {m}"));
            assert!(
                first_recv < start && start < end,
                "recv {first_recv} < start {start} < end {end} violated for {s}/{m}"
            );
        }
    }
    for ev in recv.iter().filter(|e| e.kind == SpanKind::PacketRecv) {
        let delivered = rec
            .wire
            .iter()
            .find(|w| w.serial == ev.serial && w.kind == TraceKind::Delivered)
            .unwrap_or_else(|| panic!("serial {} never delivered", ev.serial));
        assert!(
            delivered.t <= ev.t,
            "host pulled serial {} before DMA completed",
            ev.serial
        );
    }
}

#[test]
fn traced_runs_are_deterministic_per_seed() {
    let fault = FaultModel::Drop { p: 0.03, seed: 11 };
    let a = traced_run(Some(fault.clone()));
    let b = traced_run(Some(fault));

    assert_eq!(a.wire, b.wire, "wire traces diverged across identical runs");
    for (node, (ea, eb)) in a.engine.iter().zip(b.engine.iter()).enumerate() {
        assert_eq!(ea, eb, "node {node}: engine events diverged");
    }
    // The lossy run exercised the reliability spans, so the timeline
    // shows the recovery machinery, not just the happy path.
    let all: Vec<SpanKind> = a.engine.iter().flatten().map(|e| e.kind).collect();
    assert!(
        all.contains(&SpanKind::Retransmit),
        "no retransmit recorded"
    );
    assert!(all.contains(&SpanKind::AckRecv), "no ack recorded");

    // A different seed gives a different (but still complete) history.
    let c = traced_run(Some(FaultModel::Drop { p: 0.03, seed: 12 }));
    assert_ne!(a.wire, c.wire, "different seeds, same drops? suspicious");
}
