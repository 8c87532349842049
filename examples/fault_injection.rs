//! Observability tour: fault injection, guarantee violations, and packet
//! tracing on the simulated cluster.
//!
//! FM relies on Myrinet's reliability (paper §3.1): it adds flow control
//! and buffer management but no retransmission. A wire that loses
//! packets is another matter, and the engine knows which it has: a
//! simulation with a fault model installed tells its hosts so, and the
//! engines over it retransmit. This example corrupts packets in flight
//! and shows that (a) the NIC's CRC catches every one, (b) the
//! retransmit sublayer re-sends each, so FM delivers every message
//! intact and reports no error, and (c) the packet trace pinpoints where
//! each packet spent its time. A second act re-runs the stream over a
//! silently-dropping wire, where no CRC sees the loss: the sublayer
//! repairs it all the same.
//!
//! Run with: `cargo run --release --example fault_injection`

use std::cell::Cell;
use std::rc::Rc;

use fast_messages::fm::obs::chrome::chrome_trace_json;
use fast_messages::fm::packet::HandlerId;
use fast_messages::fm::{Fm2Engine, FmPacket, FmStats, FmStream, ObsSink, SimDevice};
use fast_messages::model::{MachineProfile, Nanos};
use fast_messages::sim::fault::FaultModel;
use fast_messages::sim::trace::TraceKind;
use fast_messages::sim::{NodeId, Simulation, StepOutcome, Topology};

const H: HandlerId = HandlerId(1);
const MSGS: usize = 200;

/// Act 2 workload: the same 200-message stream over a wire that silently
/// *drops* 2% of packets (no CRC to catch these — the packet just never
/// arrives). Returns (delivered, errors reported, sender stats).
fn lossy_stream() -> (usize, usize, FmStats) {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(2));
    sim.set_fault_model(FaultModel::Drop { p: 0.02, seed: 7 });

    let fm_s = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), profile);
    let sender_done = Rc::new(Cell::new(false));
    let sender_stats = Rc::new(Cell::new(FmStats::default()));
    {
        let fm_s = fm_s.clone();
        let sender_done = Rc::clone(&sender_done);
        let sender_stats = Rc::clone(&sender_stats);
        let data = [7u8; 256];
        let mut sent = 0usize;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                fm_s.extract_all(); // acks in, retransmit timers serviced
                while sent < MSGS && fm_s.try_send_message(1, H, &[&data]).is_ok() {
                    sent += 1;
                }
                // "Done" means every packet was acknowledged.
                if sent == MSGS && fm_s.unacked_packets() == 0 {
                    sender_stats.set(fm_s.stats());
                    sender_done.set(true);
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    let fm_r = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), profile);
    let got = Rc::new(Cell::new(0usize));
    let errors = Rc::new(Cell::new(0usize));
    {
        let got = Rc::clone(&got);
        fm_r.set_handler(H, move |stream: FmStream, _| {
            let got = Rc::clone(&got);
            async move {
                let m = stream.receive_vec(stream.msg_len()).await;
                if m.len() == 256 && m.iter().all(|&b| b == 7) {
                    got.set(got.get() + 1);
                }
            }
        });
    }
    {
        let got = Rc::clone(&got);
        let errors = Rc::clone(&errors);
        let fm_r = fm_r.clone();
        let sender_done = Rc::clone(&sender_done);
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                fm_r.extract_all();
                errors.set(errors.get() + fm_r.take_errors().len());
                if got.get() >= MSGS && sender_done.get() {
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    sim.run(Some(Nanos::from_ms(500)));
    (got.get(), errors.get(), sender_stats.get())
}

fn main() {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(2));
    sim.set_fault_model(FaultModel::EveryNth(23));
    sim.enable_trace(50_000);

    // Sender: 200 single-packet messages. Both engines feed observability
    // sinks so the whole act can be replayed as a Perfetto timeline.
    let obs_s = ObsSink::new(16_384);
    let obs_r = ObsSink::new(16_384);
    let fm_s = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), profile);
    fm_s.attach_obs(obs_s.clone());
    let sender_done = Rc::new(Cell::new(false));
    {
        let fm_s = fm_s.clone();
        let sender_done = Rc::clone(&sender_done);
        let mut sent = 0usize;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                fm_s.extract_all(); // acks in, retransmit timers serviced
                while sent < MSGS
                    && fm_s
                        .try_send_message(1, H, &[&[sent as u8; 256][..]])
                        .is_ok()
                {
                    sent += 1;
                }
                // Done once every packet is acknowledged: a corrupted one
                // is re-sent until it arrives.
                if sent == MSGS && fm_s.unacked_packets() == 0 {
                    sender_done.set(true);
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    // Receiver: counts messages and collects any guarantee-violation
    // reports FM makes (none: every loss is repaired).
    let fm_r = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), profile);
    fm_r.attach_obs(obs_r.clone());
    let got = Rc::new(Cell::new(0usize));
    let errors = Rc::new(Cell::new(0usize));
    {
        let got = Rc::clone(&got);
        fm_r.set_handler(H, move |stream: FmStream, _| {
            let got = Rc::clone(&got);
            async move {
                let m = stream.receive_vec(stream.msg_len()).await;
                assert_eq!(m.len(), 256, "delivered messages are never truncated");
                got.set(got.get() + 1);
            }
        });
    }
    {
        let got = Rc::clone(&got);
        let errors = Rc::clone(&errors);
        let fm_r = fm_r.clone();
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                fm_r.extract_all();
                errors.set(errors.get() + fm_r.take_errors().len());
                // Keep acknowledging until the sender has heard every ack.
                if got.get() == MSGS && sender_done.get() {
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    sim.run(Some(Nanos::from_ms(200)));

    let drops = sim.crc_drops(NodeId(0)) + sim.crc_drops(NodeId(1));
    let resent = fm_s.stats().retransmissions;
    println!("sent            : {MSGS} messages (256 B each)");
    println!("delivered intact: {}", got.get());
    println!("CRC drops at NIC: {drops} (data and acks)");
    println!("re-sent packets : {resent}");
    println!("errors reported : {}", errors.get());
    assert_eq!(got.get(), MSGS, "every message delivered");
    assert!(drops > 0 && resent > 0, "corruption fired and was repaired");
    assert_eq!(errors.get(), 0, "a repaired loss is no violation");

    // Trace: reconstruct the pipeline timing of the first packet.
    let trace = sim.trace().expect("tracing enabled");
    let first = trace.packet(0);
    println!("\npacket 0 lifecycle:");
    for ev in &first {
        let stage = match ev.kind {
            TraceKind::Inject => "injected by src NIC",
            TraceKind::TailArrive => "tail at dst NIC   ",
            TraceKind::Delivered => "DMA'd to host     ",
        };
        println!(
            "  t={:>10}  {stage}  ({} wire bytes)",
            format!("{}", ev.t),
            ev.wire_bytes
        );
    }
    let wire_time = first[1].t - first[0].t;
    let dma_time = first[2].t - first[1].t;
    println!("  wire+switch: {wire_time}, NIC+DMA: {dma_time}");

    // Export the whole act as a chrome://tracing timeline: engine events
    // from both nodes' sinks plus the simulator's wire-level trace, joined
    // by packet serial. Load the file at https://ui.perfetto.dev.
    let mut engine_events = obs_s.take_events();
    engine_events.extend(obs_r.take_events());
    let json = chrome_trace_json(&engine_events, trace.events());
    let out_path = std::env::temp_dir().join("fm_fault_injection_trace.json");
    std::fs::write(&out_path, &json).expect("write trace file");
    println!(
        "\nchrome trace    : {} ({} engine events, {} wire events, {} bytes)",
        out_path.display(),
        engine_events.len(),
        trace.events().len(),
        json.len()
    );

    // Act 2 — the same stream over a silently-dropping wire: no CRC sees
    // these losses, and the retransmission sublayer repairs them anyway.
    println!("\n--- silent 2% packet drop ---");
    let (got_r, errs_r, stats_r) = lossy_stream();
    println!("retransmit     : {got_r}/{MSGS} delivered, {errs_r} errors reported");
    println!("  sender stats : {stats_r}");
    assert_eq!((got_r, errs_r), (MSGS, 0), "every loss repaired silently");
    assert!(stats_r.retransmissions > 0);
    println!("fault_injection: ok");
}
