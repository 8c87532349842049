//! Simulator determinism and failure injection across the stack.

use fast_messages::fm::packet::HandlerId;
use fast_messages::fm::{Fm2Engine, FmPacket, FmStream, SimDevice};
use fast_messages::model::{MachineProfile, Nanos};
use fast_messages::sim::fault::FaultModel;
use fast_messages::sim::{NodeId, Simulation, StepOutcome, Topology};
use std::cell::Cell;
use std::rc::Rc;

const H: HandlerId = HandlerId(1);

/// One parameterized run: stream `count` messages, return (finish time,
/// receiver message count, errors seen, packets the sender re-sent).
/// With a fault model installed the engines retransmit, and the sender
/// finishes only once every packet is acknowledged.
fn run_stream(fault: Option<FaultModel>, count: usize) -> (Nanos, usize, usize, u64) {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(2));
    if let Some(f) = fault {
        sim.set_fault_model(f);
    }

    let fm_s = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), profile);
    let data = vec![9u8; 700];
    let mut sent = 0usize;
    {
        let fm_s = fm_s.clone();
        sim.set_program(
            NodeId(0),
            Box::new(move || loop {
                if sent == count {
                    if fm_s.unacked_packets() > 0 {
                        fm_s.extract_all(); // acks in, retransmit timers serviced
                    }
                    if fm_s.unacked_packets() == 0 {
                        return StepOutcome::Done;
                    }
                    return StepOutcome::Wait;
                }
                if fm_s.try_send_message(1, H, &[&data]).is_ok() {
                    sent += 1;
                    continue;
                }
                fm_s.extract_all();
                if fm_s.try_send_message(1, H, &[&data]).is_ok() {
                    sent += 1;
                    continue;
                }
                return StepOutcome::Wait;
            }),
        );
    }

    let fm_r = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), profile);
    let got = Rc::new(Cell::new(0usize));
    let errs = Rc::new(Cell::new(0usize));
    {
        let got = Rc::clone(&got);
        fm_r.set_handler(H, move |stream: FmStream, _| {
            let got = Rc::clone(&got);
            async move {
                let m = stream.receive_vec(stream.msg_len()).await;
                // A delivered message must never be silently corrupt:
                // full and correct, or an engine error (checked below),
                // never garbage.
                if m.len() == 700 {
                    assert!(m.iter().all(|&b| b == 9));
                    got.set(got.get() + 1);
                }
            }
        });
    }
    {
        let got = Rc::clone(&got);
        let errs = Rc::clone(&errs);
        let fm_r = fm_r.clone();
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                fm_r.extract_all();
                errs.set(errs.get() + fm_r.take_errors().len());
                if got.get() >= count {
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    // Under faults the receiver may never reach `count`; bound the run.
    let end = sim.run(Some(Nanos::from_ms(500)));
    (end, got.get(), errs.get(), fm_s.stats().retransmissions)
}

#[test]
fn identical_runs_produce_identical_virtual_times() {
    let a = run_stream(None, 300);
    let b = run_stream(None, 300);
    assert_eq!(a, b, "discrete-event runs must be bit-identical");
    assert_eq!(a.1, 300);
    assert_eq!(a.2, 0, "no errors on a healthy network");
}

#[test]
fn seeded_fault_runs_are_also_deterministic() {
    let model = || FaultModel::BitError { p: 0.01, seed: 99 };
    let a = run_stream(Some(model()), 300);
    let b = run_stream(Some(model()), 300);
    assert_eq!(a, b, "fault injection must be reproducible per seed");
}

#[test]
fn packet_loss_is_detected_never_silent() {
    // Corrupt every 50th packet: the CRC drops it, and the engines, whose
    // simulation says its wire may lose packets, notice each loss and
    // re-send the packet — never corrupt data, never a silent gap.
    let (_, got, errs, resent) = run_stream(Some(FaultModel::EveryNth(50)), 300);
    assert_eq!(got, 300, "every message delivered intact");
    assert_eq!(errs, 0, "a repaired loss is not an error");
    assert!(resent > 0, "the losses were noticed and re-sent");
}

#[test]
fn fault_free_default_is_lossless() {
    let (_, got, errs, _) = run_stream(None, 500);
    assert_eq!(got, 500);
    assert_eq!(errs, 0);
}

#[test]
fn more_messages_take_longer_and_bandwidth_converges() {
    // Virtual-time sanity: 4x the messages ≈ 4x the time once streaming
    // dominates (the pipeline is in steady state).
    let (t1, n1, ..) = run_stream(None, 250);
    let (t4, n4, ..) = run_stream(None, 1000);
    assert_eq!((n1, n4), (250, 1000));
    let ratio = t4.as_ns() as f64 / t1.as_ns() as f64;
    assert!(
        (3.6..4.4).contains(&ratio),
        "steady-state scaling ratio = {ratio:.2}"
    );
}
