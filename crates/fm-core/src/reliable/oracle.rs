//! Differential oracle: the production ARQ against a stop-and-wait that
//! is too simple to be wrong.
//!
//! One seeded fault schedule — the fate of the n-th frame put on each
//! direction of a link: delivered, dropped, duplicated or delayed past
//! its successors — is driven through [`ReliableState`] (window, SACK
//! bitmap, hold table, timers, an AIMD window only the timer halves, an
//! ack every half window from inside a burst) and through [`StopAndWait`]
//! (one frame outstanding, resend on a fixed timer, accept only the
//! expected sequence number). Both must hand the application the same
//! stream: every message once, in order. Window policy decides when
//! frames go, never which stream arrives, so this file does not change
//! when it does. The schedules include the strictly periodic drop a
//! fixed-size resend burst can phase-lock with, and both protocols start
//! from sequence numbers that cross the `u32` wrap.

use std::collections::VecDeque;

use fm_model::rng::{env_cases, DetRng};

use super::*;
use crate::packet::{HandlerId, PacketFlags, PacketHeader};

/// The stop-and-wait timer: the production protocol's RTO before its
/// first RTT sample, so both start from the same timer.
const RTO: u64 = INITIAL_RTO_NS;
const TICK: u64 = RTO / 10;
/// Ticks a frame spends on the link.
const LATENCY: u64 = 3 * TICK;
const WINDOW: u32 = 8;

#[derive(Clone, Copy)]
enum Faults {
    /// Each frame independently: 10 % dropped, 5 % duplicated, 10 %
    /// delayed by up to a window's worth of ticks.
    Random,
    /// Every `n`-th frame dropped, nothing else: the same position of
    /// every fixed-size burst, forever.
    DropEveryNth(u64),
}

/// One direction of the link: applies the schedule to each frame as it
/// is put on, delivers frames in arrival order.
struct Link<F> {
    faults: Faults,
    rng: DetRng,
    frames_seen: u64,
    /// `(arrival time, frame)`, sorted by arrival; ties keep put order.
    in_flight: VecDeque<(u64, F)>,
}

impl<F: Clone> Link<F> {
    fn new(faults: Faults, seed: u64) -> Self {
        Link {
            faults,
            rng: DetRng::seed_from_u64(seed),
            frames_seen: 0,
            in_flight: VecDeque::new(),
        }
    }

    fn put(&mut self, frame: F, now: u64) {
        self.frames_seen += 1;
        let (copies, delay) = match self.faults {
            Faults::DropEveryNth(n) => (!self.frames_seen.is_multiple_of(n) as usize, 0),
            Faults::Random => match self.rng.below(100) {
                0..=9 => (0, 0),
                10..=14 => (2, 0),
                15..=24 => (1, TICK * (1 + self.rng.below(WINDOW as u64))),
                _ => (1, 0),
            },
        };
        let at = now + LATENCY + delay;
        let idx = self.in_flight.partition_point(|(t, _)| *t <= at);
        for _ in 0..copies {
            self.in_flight.insert(idx, (at, frame.clone()));
        }
    }

    fn due(&mut self, now: u64) -> Option<F> {
        let (at, _) = self.in_flight.front()?;
        (*at <= now).then(|| self.in_flight.pop_front().expect("front exists").1)
    }
}

/// The sender and the receiver of one ARQ, as the driver sees them.
trait Arq {
    type Data: Clone;
    type Ack: Clone;
    /// Put message `msg` on the link if the protocol has room for it.
    fn send(&mut self, msg: u32, now: u64, link: &mut Link<Self::Data>) -> bool;
    /// A data frame arrives; messages it completes go to `delivered`.
    fn on_data(&mut self, frame: Self::Data, delivered: &mut Vec<u32>);
    /// End of a receive poll: put the ack owed, if any, on the link.
    fn flush_ack(&mut self, now: u64, link: &mut Link<Self::Ack>);
    fn on_ack(&mut self, frame: Self::Ack, now: u64, link: &mut Link<Self::Data>);
    fn on_timer(&mut self, now: u64, link: &mut Link<Self::Data>);
    fn all_acked(&self) -> bool;
}

/// Stream messages `0..count` through `arq` under `faults`; the stream
/// the application saw.
fn run<A: Arq>(mut arq: A, faults: Faults, seed: u64, count: u32) -> Vec<u32> {
    let mut fwd = Link::new(faults, seed);
    let mut rev = Link::new(faults, !seed);
    let mut delivered = Vec::new();
    let (mut next, mut now) = (0u32, 0u64);
    while next < count || !arq.all_acked() {
        now += TICK;
        assert!(now < 1_000_000 * TICK, "seed {seed:#x}: no progress");
        while let Some(frame) = fwd.due(now) {
            arq.on_data(frame, &mut delivered);
        }
        arq.flush_ack(now, &mut rev);
        while let Some(frame) = rev.due(now) {
            arq.on_ack(frame, now, &mut fwd);
        }
        arq.on_timer(now, &mut fwd);
        while next < count && arq.send(next, now, &mut fwd) {
            next += 1;
        }
    }
    delivered
}

/// The oracle: one frame outstanding, a fixed timer, full-width sequence
/// numbers so nothing about it depends on the channel behaving.
struct StopAndWait {
    /// Sequence number of the next fresh frame.
    seq: u32,
    /// The frame awaiting its ack, and when to send it again.
    outstanding: Option<((u32, u32), u64)>,
    expected: u32,
    ack_due: bool,
}

impl Arq for StopAndWait {
    type Data = (u32, u32);
    type Ack = u32;

    fn send(&mut self, msg: u32, now: u64, link: &mut Link<(u32, u32)>) -> bool {
        if self.outstanding.is_some() {
            return false;
        }
        let frame = (self.seq, msg);
        link.put(frame, now);
        self.outstanding = Some((frame, now + RTO));
        true
    }

    fn on_data(&mut self, (seq, msg): (u32, u32), delivered: &mut Vec<u32>) {
        if seq == self.expected {
            delivered.push(msg);
            self.expected = self.expected.wrapping_add(1);
        }
        self.ack_due = true;
    }

    fn flush_ack(&mut self, now: u64, link: &mut Link<u32>) {
        if std::mem::take(&mut self.ack_due) {
            link.put(self.expected, now);
        }
    }

    fn on_ack(&mut self, ack: u32, _: u64, _: &mut Link<(u32, u32)>) {
        if ack == self.seq.wrapping_add(1) && self.outstanding.take().is_some() {
            self.seq = ack;
        }
    }

    fn on_timer(&mut self, now: u64, link: &mut Link<(u32, u32)>) {
        if let Some((frame, deadline)) = &mut self.outstanding {
            if *deadline <= now {
                link.put(*frame, now);
                *deadline = now + RTO;
            }
        }
    }

    fn all_acked(&self) -> bool {
        self.outstanding.is_none()
    }
}

/// The production protocol: node 0's `ReliableState` sends to node 1's,
/// driven the way `EngineCore` drives them, acks through the wire codec.
struct Production {
    s: ReliableState,
    r: ReliableState,
    stats: FmStats,
    next_seq: u32,
    /// Acks that left from inside the poll, half a window into a burst,
    /// in the order they left. The link sees them when the poll ends —
    /// the same tick, ahead of the poll's own ack — so the reverse
    /// direction carries the frames, in the order, the engine would put
    /// on it.
    mid_burst: Vec<(u32, u64)>,
}

impl Production {
    fn new(cfg: RetransmitConfig, start: u32) -> Self {
        Production {
            s: ReliableState::with_start_seq(2, cfg, start),
            r: ReliableState::with_start_seq(2, cfg, start),
            stats: FmStats::default(),
            next_seq: start,
            mid_burst: Vec::new(),
        }
    }
}

impl Arq for Production {
    type Data = FmPacket;
    type Ack = Vec<u8>;

    fn send(&mut self, msg: u32, now: u64, link: &mut Link<FmPacket>) -> bool {
        if !self.s.can_send(1, 1) {
            return false;
        }
        let pkt = FmPacket {
            header: PacketHeader {
                src: 0,
                dst: 1,
                handler: HandlerId(1),
                msg_seq: msg,
                pkt_seq: self.next_seq,
                msg_len: 4,
                flags: PacketFlags::FIRST | PacketFlags::LAST,
                credits: 0,
                ack: 0,
            },
            payload: msg.to_le_bytes().to_vec().into(),
        };
        self.next_seq = self.next_seq.wrapping_add(1);
        self.s.on_data_sent(1, &pkt, Nanos(now));
        link.put(pkt, now);
        true
    }

    fn on_data(&mut self, frame: FmPacket, delivered: &mut Vec<u32>) {
        let mut next = Some(frame);
        while let Some(pkt) = next {
            if self.r.accept(0, &pkt, &mut self.stats) == RecvDecision::Accept {
                delivered.push(u32::from_le_bytes(pkt.payload[..].try_into().unwrap()));
                // Half a window into the burst — a released run counts —
                // the ack leaves from inside the poll.
                if self.r.ack_overdue(0) {
                    self.mid_burst.extend(self.r.take_due_ack(0));
                }
            }
            next = self.r.take_released();
        }
    }

    fn flush_ack(&mut self, now: u64, link: &mut Link<Vec<u8>>) {
        let tail = self.r.take_due_ack(0);
        for (ack, sack) in self.mid_burst.drain(..).chain(tail) {
            let wire = FmPacket::ack_sack(1, 0, ack, sack).encode_wire().unwrap();
            link.put(wire, now);
        }
    }

    fn on_ack(&mut self, wire: Vec<u8>, now: u64, link: &mut Link<FmPacket>) {
        let pkt = FmPacket::decode_wire(&wire).unwrap();
        if self.s.on_ack(1, pkt.header.ack, pkt.sack(), Nanos(now)) {
            while let Some(hole) = self.s.next_hole(1, Nanos(now)) {
                link.put(hole, now);
            }
        }
    }

    fn on_timer(&mut self, now: u64, link: &mut Link<FmPacket>) {
        if self.s.timed_out(1, Nanos(now)) {
            if let Some(head) = self.s.on_timeout(1, Nanos(now), &mut self.stats) {
                link.put(head, now);
            }
        }
    }

    fn all_acked(&self) -> bool {
        self.s.unacked_packets() == 0
    }
}

/// Both protocols under the same schedule from the same start sequence:
/// the same stream, which is the one that was sent.
fn assert_same_stream(faults: Faults, seed: u64, start: u32, window: u32, count: u32) {
    let oracle = StopAndWait {
        seq: start,
        outstanding: None,
        expected: start,
        ack_due: false,
    };
    let expected = run(oracle, faults, seed, count);
    let production = Production::new(RetransmitConfig { window }, start);
    let got = run(production, faults, seed, count);
    assert_eq!(
        got, expected,
        "seed {seed:#x} start {start} window {window}"
    );
    assert_eq!(got, (0..count).collect::<Vec<_>>(), "seed {seed:#x}");
}

#[test]
fn prop_production_arq_delivers_what_stop_and_wait_delivers() {
    for case in 0..env_cases(64) {
        let seed = 0x0AC1_E000_u64 ^ case as u64;
        let mut rng = DetRng::seed_from_u64(seed);
        let start = match case % 3 {
            0 => 0,
            // Crosses the wrap inside the run, at a different point of
            // the window each time.
            1 => u32::MAX - rng.below(60) as u32,
            _ => rng.next_u64() as u32,
        };
        let faults = if case % 4 == 3 {
            Faults::DropEveryNth(2 + rng.below(3 * WINDOW as u64))
        } else {
            Faults::Random
        };
        assert_same_stream(faults, seed, start, WINDOW, 120);
    }
}

#[test]
fn the_default_window_delivers_what_stop_and_wait_delivers() {
    // The same schedules at the window everything outside this file runs
    // (64: whole bursts arrive in one poll and are acknowledged by
    // halves), long enough to turn it over several times, wrap included.
    let window = RetransmitConfig::default().window;
    for case in 0..env_cases(16) {
        let seed = 0x0DEF_A000_u64 ^ case as u64;
        let start = u32::MAX - (case as u32 * 37) % (3 * window);
        let faults = if case % 4 == 3 {
            Faults::DropEveryNth(window as u64 / 2 + case as u64)
        } else {
            Faults::Random
        };
        assert_same_stream(faults, seed, start, window, 500);
    }
}

#[test]
fn periodic_drops_cannot_phase_lock_with_the_window() {
    // A whole-ring resend advances a periodic drop counter by the ring
    // length every round and can lose the same position forever. One
    // packet per timeout and per hole has no such period: every drop
    // period around the window size (and its multiples) gets through,
    // from a start that crosses the wrap.
    for period in 2..=4 * WINDOW as u64 {
        let faults = Faults::DropEveryNth(period);
        assert_same_stream(faults, period, u32::MAX - 40, WINDOW, 200);
    }
}
