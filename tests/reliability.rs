//! End-to-end loss recovery in the simulator.
//!
//! `Reliability::Retransmit` must deliver **every** message intact — zero
//! engine errors — under random drops, periodic drops, duplication, and
//! reordering, for both FM engines, and the whole recovery must be
//! bit-deterministic per fault seed. `Reliability::TrustSubstrate` (the
//! paper's choice) is run as a contrast: under the same faults it loses
//! messages and reports errors instead of repairing them.

use fast_messages::fm::packet::HandlerId;
use fast_messages::fm::{
    Fm1Engine, Fm2Engine, FmPacket, FmStats, FmStream, Reliability, RetransmitConfig, SimDevice,
};
use fast_messages::model::{MachineProfile, Nanos};
use fast_messages::sim::fault::FaultModel;
use fast_messages::sim::{NodeId, Simulation, StepOutcome, Topology};
use std::cell::Cell;
use std::rc::Rc;

const H: HandlerId = HandlerId(1);
const SIZE: usize = 700;

fn retransmit() -> Reliability {
    Reliability::Retransmit(RetransmitConfig::default())
}

/// (virtual end time, messages delivered intact, engine errors,
/// retransmissions) — the full tuple doubles as the determinism
/// fingerprint.
type Outcome = (Nanos, usize, usize, u64);

/// [`stream_fm2`]'s outcome with every counter of both ranks: what the
/// count gates read.
#[derive(Debug, PartialEq, Eq)]
struct Counted {
    end: Nanos,
    /// Messages delivered intact.
    got: usize,
    /// Engine errors on the receiver.
    errs: usize,
    sender: FmStats,
    receiver: FmStats,
    /// The sender's smoothed RTT estimate toward the receiver at the end.
    srtt: Option<u64>,
    /// The sender's base retransmit timeout toward the receiver at the end.
    rto: Option<u64>,
}

impl Counted {
    /// Data packets the fabric swallowed: every data packet handed to the
    /// wire either arrived (delivered, or suppressed as a duplicate) or
    /// was dropped.
    fn data_dropped(&self) -> u64 {
        let (s, r) = (&self.sender, &self.receiver);
        (s.packets_sent + s.retransmissions) - (r.packets_received + r.duplicates_dropped)
    }
}

fn run_fm2(faults: Vec<FaultModel>, count: usize, reliability: Reliability) -> Outcome {
    let c = stream_fm2(faults, count, SIZE, reliability);
    (c.end, c.got, c.errs, c.sender.retransmissions)
}

/// Stream `count` messages of `size` bytes node 0 -> node 1 on FM 2.x
/// under `faults`.
///
/// The sender only finishes once every packet is acknowledged
/// (`unacked_packets() == 0`), so in Retransmit mode "sender done" means
/// "delivery confirmed"; the receiver keeps extracting (and acking) until
/// then, so the tail of the ack conversation is never stranded.
fn stream_fm2(
    faults: Vec<FaultModel>,
    count: usize,
    size: usize,
    reliability: Reliability,
) -> Counted {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(2));
    sim.set_fault_models(faults);

    let fm_s = Fm2Engine::with_reliability(
        SimDevice::new(sim.host_interface(NodeId(0))),
        profile,
        reliability.clone(),
    );
    let sender_done = Rc::new(Cell::new(false));
    let data = vec![7u8; size];
    let mut sent = 0usize;
    {
        let fm_s = fm_s.clone();
        let sender_done = Rc::clone(&sender_done);
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                fm_s.extract_all(); // acks in, retransmit timers serviced
                while sent < count && fm_s.try_send_message(1, H, &[&data]).is_ok() {
                    sent += 1;
                }
                if sent == count && fm_s.unacked_packets() == 0 {
                    sender_done.set(true);
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    let fm_r = Fm2Engine::with_reliability(
        SimDevice::new(sim.host_interface(NodeId(1))),
        profile,
        reliability,
    );
    let got = Rc::new(Cell::new(0usize));
    let errs = Rc::new(Cell::new(0usize));
    {
        let got = Rc::clone(&got);
        fm_r.set_handler(H, move |stream: FmStream, _| {
            let got = Rc::clone(&got);
            async move {
                let m = stream.receive_vec(stream.msg_len()).await;
                // Delivered means intact: full length, right contents.
                if m.len() == size && m.iter().all(|&b| b == 7) {
                    got.set(got.get() + 1);
                }
            }
        });
    }
    {
        let errs = Rc::clone(&errs);
        let fm_r = fm_r.clone();
        let sender_done = Rc::clone(&sender_done);
        let got = Rc::clone(&got);
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                fm_r.extract_all();
                errs.set(errs.get() + fm_r.take_errors().len());
                if got.get() >= count && sender_done.get() {
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    let end = sim.run(Some(Nanos::from_ms(2000)));
    Counted {
        end,
        got: got.get(),
        errs: errs.get(),
        sender: fm_s.stats(),
        receiver: fm_r.stats(),
        srtt: fm_s.srtt_ns(1),
        rto: fm_s.current_rto_ns(1),
    }
}

/// The FM 1.x flavour of [`run_fm2`] (same shape, eager-extract API).
fn run_fm1(faults: Vec<FaultModel>, count: usize, reliability: Reliability) -> Outcome {
    let profile = MachineProfile::sparc_fm1();
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(2));
    sim.set_fault_models(faults);

    let mut fm_s = Fm1Engine::with_reliability(
        SimDevice::new(sim.host_interface(NodeId(0))),
        profile,
        reliability.clone(),
    );
    let sender_done = Rc::new(Cell::new(false));
    let retrans = Rc::new(Cell::new(0u64));
    let data = vec![7u8; SIZE];
    let mut sent = 0usize;
    {
        let sender_done = Rc::clone(&sender_done);
        let retrans = Rc::clone(&retrans);
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                fm_s.extract();
                while sent < count && fm_s.try_send(1, H, &data).is_ok() {
                    sent += 1;
                }
                if sent == count && fm_s.unacked_packets() == 0 {
                    retrans.set(fm_s.stats().retransmissions);
                    sender_done.set(true);
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    let mut fm_r = Fm1Engine::with_reliability(
        SimDevice::new(sim.host_interface(NodeId(1))),
        profile,
        reliability,
    );
    let got = Rc::new(Cell::new(0usize));
    let errs = Rc::new(Cell::new(0usize));
    {
        let got = Rc::clone(&got);
        fm_r.set_handler(
            H,
            Box::new(move |_eng, _src, m| {
                if m.len() == SIZE && m.iter().all(|&b| b == 7) {
                    got.set(got.get() + 1);
                }
            }),
        );
    }
    {
        let errs = Rc::clone(&errs);
        let sender_done = Rc::clone(&sender_done);
        let got = Rc::clone(&got);
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                fm_r.extract();
                errs.set(errs.get() + fm_r.take_errors().len());
                if got.get() >= count && sender_done.get() {
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    let end = sim.run(Some(Nanos::from_ms(2000)));
    (end, got.get(), errs.get(), retrans.get())
}

/// Retransmit mode must fully recover: all messages intact, no errors,
/// and the faults really fired (retransmissions happened).
fn assert_recovers(label: &str, (_, got, errs, retrans): Outcome, count: usize) {
    assert_eq!(got, count, "{label}: every message delivered intact");
    assert_eq!(errs, 0, "{label}: loss is repaired, never reported");
    assert!(retrans > 0, "{label}: the faults must have forced re-sends");
}

#[test]
fn fm2_recovers_all_messages_under_random_drop() {
    let fault = vec![FaultModel::Drop { p: 0.01, seed: 42 }];
    assert_recovers("fm2/drop", run_fm2(fault, 300, retransmit()), 300);
}

#[test]
fn fm2_recovers_all_messages_under_periodic_drop() {
    // Strictly periodic loss is the worst case for any fixed-size resend
    // burst (it can phase-lock with the drop period); one packet per hole
    // and per timeout has no period to lock with.
    let fault = vec![FaultModel::DropEveryNth(50)];
    assert_recovers("fm2/nth", run_fm2(fault, 300, retransmit()), 300);
}

#[test]
fn fm1_recovers_all_messages_under_random_drop() {
    let fault = vec![FaultModel::Drop { p: 0.01, seed: 42 }];
    assert_recovers("fm1/drop", run_fm1(fault, 300, retransmit()), 300);
}

#[test]
fn fm1_recovers_all_messages_under_periodic_drop() {
    let fault = vec![FaultModel::DropEveryNth(50)];
    assert_recovers("fm1/nth", run_fm1(fault, 300, retransmit()), 300);
}

#[test]
fn fm2_recovers_under_composed_drop_duplicate_reorder() {
    let faults = vec![
        FaultModel::Drop { p: 0.01, seed: 1 },
        FaultModel::Duplicate { p: 0.02, seed: 2 },
        FaultModel::Reorder { p: 0.02, seed: 3 },
    ];
    let (_, got, errs, _) = run_fm2(faults, 300, retransmit());
    assert_eq!(got, 300);
    assert_eq!(errs, 0);
}

#[test]
fn fm1_recovers_under_composed_drop_duplicate_reorder() {
    let faults = vec![
        FaultModel::Drop { p: 0.01, seed: 1 },
        FaultModel::Duplicate { p: 0.02, seed: 2 },
        FaultModel::Reorder { p: 0.02, seed: 3 },
    ];
    let (_, got, errs, _) = run_fm1(faults, 300, retransmit());
    assert_eq!(got, 300);
    assert_eq!(errs, 0);
}

#[test]
fn recovery_is_deterministic_per_seed() {
    // The entire recovery — SACK holes, timeouts, ack traffic —
    // replays bit-identically (same virtual end time) for a given seed,
    // and a different seed takes a different path.
    let fault = |seed| vec![FaultModel::Drop { p: 0.02, seed }];
    let a = run_fm2(fault(7), 200, retransmit());
    let b = run_fm2(fault(7), 200, retransmit());
    assert_eq!(a, b, "identical seeds must replay identically");
    let c = run_fm2(fault(8), 200, retransmit());
    assert_ne!(a.0, c.0, "a different seed drops different packets");

    let d = run_fm1(fault(7), 200, retransmit());
    let e = run_fm1(fault(7), 200, retransmit());
    assert_eq!(d, e);
}

#[test]
fn trust_substrate_loses_what_retransmit_repairs() {
    // The same workload under the same periodic drop: the paper's
    // trust-the-substrate mode loses messages and reports errors;
    // Retransmit mode delivers everything silently.
    let fault = || vec![FaultModel::DropEveryNth(40)];
    let (_, got_t, errs_t, retrans_t) = run_fm2(fault(), 300, Reliability::TrustSubstrate);
    assert!(got_t < 300, "TrustSubstrate must lose messages ({got_t})");
    assert!(errs_t > 0, "and report the losses as errors");
    assert_eq!(retrans_t, 0, "and never retransmit");

    let (_, got_r, errs_r, retrans_r) = run_fm2(fault(), 300, retransmit());
    assert_eq!((got_r, errs_r), (300, 0));
    assert!(retrans_r > 0);
}

/// The stream the count gates run: 2 KB x 4096, the shape of the
/// benchmark's `udp_*` stream leg.
fn gate_stream(faults: Vec<FaultModel>, reliability: Reliability) -> Counted {
    stream_fm2(faults, 4096, 2048, reliability)
}

#[test]
fn the_default_config_estimates_its_timer() {
    // There is one retransmit profile and the default is it: a loss-free
    // stream samples the round trip, and the timer leaves its initial
    // 200 µs for the estimate.
    let c = stream_fm2(vec![], 300, SIZE, retransmit());
    assert_eq!((c.got, c.errs), (300, 0));
    assert!(c.srtt.is_some(), "no RTT sample was taken");
    assert_ne!(
        c.rto,
        Some(200_000),
        "the timer never left its initial value"
    );
}

#[test]
fn loss_free_stream_is_count_for_count_the_go_back_n_one() {
    // Every number of the first case was read off the go-back-N commit
    // (20286b2), which ran a window of 32, before the protocol changed:
    // when nothing is lost, selective repeat puts the same frames on the
    // wire at the same nanoseconds, so the virtual end time and every
    // counter of both ranks are that commit's. One counter is newer than
    // it: the 292 refused `try_send_message` calls were not counted then.
    let receiver = FmStats {
        messages_received: 4096,
        bytes_received: 8_388_608,
        packets_received: 8192,
        bytes_copied: 8_388_608,
        handlers_run: 4096,
        acks_sent: 8192,
        ..FmStats::default()
    };
    let window_32 = Reliability::Retransmit(RetransmitConfig { window: 32 });
    let c = gate_stream(vec![], window_32);
    assert_eq!((c.got, c.errs), (4096, 0));
    assert_eq!(c.end, Nanos(121_448_583));
    assert_eq!(
        c.sender,
        FmStats {
            messages_sent: 4096,
            bytes_sent: 8_388_608,
            packets_sent: 8192,
            credit_stalls: 292,
            pool_hits: 8160,
            pool_misses: 32,
            ..FmStats::default()
        }
    );
    assert_eq!(c.receiver, receiver);

    // The same stream under the default window (64), read off this code:
    // the same 8192 packets and 8192 acks (the simulator wakes the
    // receiver per packet, so every poll acknowledges one and the
    // half-window ack never has to fire), 64 frames in the sender's pool
    // instead of 32, fewer refused sends, and 0.48 % more virtual time —
    // the deeper window queues, it does not stream faster here.
    let c = gate_stream(vec![], retransmit());
    assert_eq!((c.got, c.errs), (4096, 0));
    assert_eq!(c.end, Nanos(122_032_002));
    assert_eq!(
        c.sender,
        FmStats {
            messages_sent: 4096,
            bytes_sent: 8_388_608,
            packets_sent: 8192,
            credit_stalls: 135,
            device_stalls: 1,
            pool_hits: 8128,
            pool_misses: 64,
            ..FmStats::default()
        }
    );
    assert_eq!(c.receiver, receiver);
}

#[test]
fn a_lost_packet_costs_one_packet() {
    // Seeded 1 % drop on every frame, acks included. The parent commit
    // (go-back-N) repaired the 96 data packets it lost on this seed with
    // 1008 re-sends, 86 timeouts and 912 packets thrown away at the
    // receiver, ending at 160.9 ms against 121.4 ms loss-free.
    const PARENT_TIMEOUTS: u64 = 86;
    let c = gate_stream(vec![FaultModel::Drop { p: 0.01, seed: 7 }], retransmit());
    assert_eq!((c.got, c.errs), (4096, 0));
    let dropped = c.data_dropped();
    let (s, r) = (&c.sender, &c.receiver);
    assert!(dropped >= 50, "the faults must have fired ({dropped} lost)");
    assert!(
        s.retransmissions <= 2 * dropped,
        "{} re-sends for {dropped} lost packets",
        s.retransmissions
    );
    assert!(
        5 * s.fast_retransmits >= 4 * s.retransmissions,
        "{} of {} re-sends ahead of the timer",
        s.fast_retransmits,
        s.retransmissions
    );
    assert!(
        r.duplicates_dropped <= s.retransmissions,
        "{} packets thrown away",
        r.duplicates_dropped
    );
    assert!(
        5 * s.retransmit_timeouts <= PARENT_TIMEOUTS,
        "{} timeouts",
        s.retransmit_timeouts
    );
    assert!(
        c.end < Nanos(130_000_000),
        "1 % loss cost {} over the loss-free 121.4 ms",
        c.end
    );
}
