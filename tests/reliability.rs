//! End-to-end loss recovery in the simulator.
//!
//! A simulation with a fault model installed tells its engines that
//! packets may be lost, so they retransmit: they must deliver **every**
//! message intact — zero engine errors — under random drops, periodic
//! drops, duplication, and reordering, for both FM engines, and the
//! whole recovery must be bit-deterministic per fault seed. A model that
//! drops nothing (`Drop { p: 0.0 }`) runs the same retransmit sublayer
//! over a loss-free wire: the count gates below compare over it.

use fast_messages::fm::packet::HandlerId;
use fast_messages::fm::{Fm1Engine, Fm2Engine, FmPacket, FmStats, FmStream, SimDevice};
use fast_messages::model::{MachineProfile, Nanos};
use fast_messages::sim::fault::FaultModel;
use fast_messages::sim::{NodeId, Simulation, StepOutcome, Topology};
use std::cell::Cell;
use std::rc::Rc;

const H: HandlerId = HandlerId(1);
const SIZE: usize = 700;

/// A fault model that drops nothing: the wire loses no packet, but the
/// engines over it retransmit.
fn loss_free() -> Vec<FaultModel> {
    vec![FaultModel::Drop { p: 0.0, seed: 0 }]
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

fn run_fm2(faults: Vec<FaultModel>, count: usize) -> Outcome {
    let c = stream_fm2(faults, count, SIZE, MachineProfile::ppro200_fm2());
    (c.end, c.got, c.errs, c.sender.retransmissions)
}

/// Stream `count` messages of `size` bytes node 0 -> node 1 on FM 2.x
/// under `faults` and `profile`, whose credit window is the retransmit
/// window.
///
/// The sender only finishes once every packet is acknowledged
/// (`unacked_packets() == 0`), so over a faulty wire "sender done" means
/// "delivery confirmed"; the receiver keeps extracting (and acking) until
/// then, so the tail of the ack conversation is never stranded.
fn stream_fm2(
    faults: Vec<FaultModel>,
    count: usize,
    size: usize,
    profile: MachineProfile,
) -> Counted {
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(2));
    sim.set_fault_models(faults);

    let fm_s = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), profile);
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

    let fm_r = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), profile);
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
fn run_fm1(faults: Vec<FaultModel>, count: usize) -> Outcome {
    let profile = MachineProfile::sparc_fm1();
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(2));
    sim.set_fault_models(faults);

    let mut fm_s = Fm1Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), profile);
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

    let mut fm_r = Fm1Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), profile);
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

/// Retransmission must fully recover: all messages intact, no errors,
/// and the faults really fired (retransmissions happened).
fn assert_recovers(label: &str, (_, got, errs, retrans): Outcome, count: usize) {
    assert_eq!(got, count, "{label}: every message delivered intact");
    assert_eq!(errs, 0, "{label}: loss is repaired, never reported");
    assert!(retrans > 0, "{label}: the faults must have forced re-sends");
}

#[test]
fn fm2_recovers_all_messages_under_random_drop() {
    let fault = vec![FaultModel::Drop { p: 0.01, seed: 42 }];
    assert_recovers("fm2/drop", run_fm2(fault, 300), 300);
}

#[test]
fn fm2_recovers_all_messages_under_periodic_drop() {
    // Strictly periodic loss is the worst case for any fixed-size resend
    // burst (it can phase-lock with the drop period); one packet per hole
    // and per timeout has no period to lock with.
    let fault = vec![FaultModel::DropEveryNth(50)];
    assert_recovers("fm2/nth", run_fm2(fault, 300), 300);
}

#[test]
fn fm1_recovers_all_messages_under_random_drop() {
    let fault = vec![FaultModel::Drop { p: 0.01, seed: 42 }];
    assert_recovers("fm1/drop", run_fm1(fault, 300), 300);
}

#[test]
fn fm1_recovers_all_messages_under_periodic_drop() {
    let fault = vec![FaultModel::DropEveryNth(50)];
    assert_recovers("fm1/nth", run_fm1(fault, 300), 300);
}

#[test]
fn fm2_recovers_under_composed_drop_duplicate_reorder() {
    let faults = vec![
        FaultModel::Drop { p: 0.01, seed: 1 },
        FaultModel::Duplicate { p: 0.02, seed: 2 },
        FaultModel::Reorder { p: 0.02, seed: 3 },
    ];
    let (_, got, errs, _) = run_fm2(faults, 300);
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
    let (_, got, errs, _) = run_fm1(faults, 300);
    assert_eq!(got, 300);
    assert_eq!(errs, 0);
}

#[test]
fn recovery_is_deterministic_per_seed() {
    // The entire recovery — SACK holes, timeouts, ack traffic —
    // replays bit-identically (same virtual end time) for a given seed,
    // and a different seed takes a different path.
    let fault = |seed| vec![FaultModel::Drop { p: 0.02, seed }];
    let a = run_fm2(fault(7), 200);
    let b = run_fm2(fault(7), 200);
    assert_eq!(a, b, "identical seeds must replay identically");
    let c = run_fm2(fault(8), 200);
    assert_ne!(a.0, c.0, "a different seed drops different packets");

    let d = run_fm1(fault(7), 200);
    let e = run_fm1(fault(7), 200);
    assert_eq!(d, e);
}

/// The stream the count gates run: 2 KB x 4096, the shape of the
/// benchmark's `udp_*` stream leg, in a retransmit window of `window`.
fn gate_stream(faults: Vec<FaultModel>, window: u32) -> Counted {
    let mut profile = MachineProfile::ppro200_fm2();
    profile.fm.credits_per_peer = window;
    stream_fm2(faults, 4096, 2048, profile)
}

#[test]
fn the_default_config_estimates_its_timer() {
    // There is one retransmit profile and the default is it: a loss-free
    // stream samples the round trip, and the timer leaves its initial
    // 200 µs for the estimate.
    let c = stream_fm2(loss_free(), 300, SIZE, MachineProfile::ppro200_fm2());
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
    // The window is the profile's credit window, set to 32 here.
    let receiver = FmStats {
        messages_received: 4096,
        bytes_received: 8_388_608,
        packets_received: 8192,
        bytes_copied: 8_388_608,
        handlers_run: 4096,
        acks_sent: 8192,
        ..FmStats::default()
    };
    let c = gate_stream(loss_free(), 32);
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

    // The same stream under every profile's window (64), read off this code:
    // the same 8192 packets and 8192 acks (the simulator wakes the
    // receiver per packet, so every poll acknowledges one and the
    // half-window ack never has to fire), 64 frames in the sender's pool
    // instead of 32, fewer refused sends, and 0.48 % more virtual time —
    // the deeper window queues, it does not stream faster here.
    let c = gate_stream(loss_free(), 64);
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
    let c = gate_stream(vec![FaultModel::Drop { p: 0.01, seed: 7 }], 64);
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

/// Drop ratio that forces timeouts often: data and acks alike.
fn heavy_loss() -> Vec<FaultModel> {
    vec![FaultModel::Drop { p: 0.3, seed: 11 }]
}

/// Timeouts the sender must have taken, ring empty, before its
/// multi-packet message: six halvings take a 64-packet window to 1.
const FORCED_TIMEOUTS: u64 = 6;

/// What [`fm1_whole_message_after_timeouts`] and its FM 2.x twin saw:
/// (the sender's timeouts before the big message, big messages
/// delivered intact).
type AfterTimeouts = (u64, usize);

/// The sender sends one-packet messages, one at a time, until the timer
/// has fired [`FORCED_TIMEOUTS`] times and nothing is unacked, then one
/// message of `big` bytes, and ends once that is acknowledged. Timeouts
/// halve the AIMD window below the big message, and with the ring empty
/// no ack is on its way to grow it again: the message must go anyway.
fn fm1_whole_message_after_timeouts(big: usize) -> AfterTimeouts {
    let profile = MachineProfile::sparc_fm1();
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(2));
    sim.set_fault_models(heavy_loss());

    let mut fm_s = Fm1Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), profile);
    let before = Rc::new(Cell::new(0u64));
    let (small, data) = ([1u8; 8], vec![7u8; big]);
    let mut big_sent = false;
    {
        let before = Rc::clone(&before);
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                fm_s.extract();
                let timeouts = fm_s.stats().retransmit_timeouts;
                if fm_s.unacked_packets() == 0 {
                    if big_sent {
                        return StepOutcome::Done;
                    }
                    if timeouts < FORCED_TIMEOUTS {
                        fm_s.try_send(1, H, &small)
                            .expect("an idle window takes a packet");
                    } else if fm_s.try_send(1, H, &data).is_ok() {
                        before.set(timeouts);
                        big_sent = true;
                    }
                }
                StepOutcome::Wait
            }),
        );
    }

    let mut fm_r = Fm1Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), profile);
    let got = Rc::new(Cell::new(0usize));
    {
        let got = Rc::clone(&got);
        fm_r.set_handler(
            H,
            Box::new(move |_eng, _src, m| {
                if m.len() == big && m.iter().all(|&b| b == 7) {
                    got.set(got.get() + 1);
                }
            }),
        );
    }
    sim.set_program(
        NodeId(1),
        Box::new(move || {
            fm_r.extract();
            StepOutcome::Wait
        }),
    );
    sim.run(Some(Nanos::from_ms(2000)));
    (before.get(), got.get())
}

/// [`fm1_whole_message_after_timeouts`] on FM 2.x, whose
/// `try_send_message` preflights the whole message the same way.
fn fm2_whole_message_after_timeouts(big: usize) -> AfterTimeouts {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(2));
    sim.set_fault_models(heavy_loss());

    let fm_s = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), profile);
    let before = Rc::new(Cell::new(0u64));
    let (small, data) = ([1u8; 8], vec![7u8; big]);
    let mut big_sent = false;
    {
        let before = Rc::clone(&before);
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                fm_s.extract_all();
                let timeouts = fm_s.stats().retransmit_timeouts;
                if fm_s.unacked_packets() == 0 {
                    if big_sent {
                        return StepOutcome::Done;
                    }
                    if timeouts < FORCED_TIMEOUTS {
                        fm_s.try_send_message(1, H, &[&small])
                            .expect("an idle window takes a packet");
                    } else if fm_s.try_send_message(1, H, &[&data]).is_ok() {
                        before.set(timeouts);
                        big_sent = true;
                    }
                }
                StepOutcome::Wait
            }),
        );
    }

    let fm_r = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), profile);
    let got = Rc::new(Cell::new(0usize));
    {
        let got = Rc::clone(&got);
        fm_r.set_handler(H, move |stream: FmStream, _| {
            let got = Rc::clone(&got);
            async move {
                let m = stream.receive_vec(stream.msg_len()).await;
                if m.len() == big && m.iter().all(|&b| b == 7) {
                    got.set(got.get() + 1);
                }
            }
        });
    }
    sim.set_program(
        NodeId(1),
        Box::new(move || {
            fm_r.extract_all();
            StepOutcome::Wait
        }),
    );
    sim.run(Some(Nanos::from_ms(2000)));
    (before.get(), got.get())
}

#[test]
fn fm1_sends_a_whole_message_after_timeouts_shrank_the_window() {
    // 300 B is three packets at sparc_fm1's 128-byte MTU.
    let (timeouts, got) = fm1_whole_message_after_timeouts(300);
    assert!(
        timeouts >= FORCED_TIMEOUTS,
        "only {timeouts} timeouts forced"
    );
    assert_eq!(got, 1, "the 3-packet message never went");
}

#[test]
fn fm2_sends_a_whole_message_after_timeouts_shrank_the_window() {
    // 3 KB is three packets at ppro200_fm2's 1 KB MTU.
    let (timeouts, got) = fm2_whole_message_after_timeouts(3 * 1024);
    assert!(
        timeouts >= FORCED_TIMEOUTS,
        "only {timeouts} timeouts forced"
    );
    assert_eq!(got, 1, "the 3-packet message never went");
}
