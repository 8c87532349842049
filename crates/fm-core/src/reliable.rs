//! The opt-in reliability sublayer: sliding-window go-back-N.
//!
//! The paper's FM deliberately does **not** retransmit — Myrinet's
//! bit-error rate is near zero and the hardware CRC catches what little
//! there is (§3.1), so FM's reliability guarantee *trusts the substrate*
//! and spends zero cycles on recovery. That is
//! [`Reliability::TrustSubstrate`], the default, and it is bit-identical
//! to the engines' historical behaviour.
//!
//! [`Reliability::Retransmit`] makes the same in-order-delivery guarantee
//! hold on lossy substrates. The design is classic go-back-N, shared by
//! both engines ([`crate::Fm1Engine`] and [`crate::Fm2Engine`]):
//!
//! * **Sender**, per destination: a ring of unacknowledged data-packet
//!   clones, bounded by a window (which *replaces* credit-based flow
//!   control — credits are not idempotent under duplication, while
//!   cumulative acks are; the window bounds receive-buffer usage exactly
//!   as credits did). A retransmit timer with exponential backoff re-sends
//!   the whole ring when the oldest packet goes unacknowledged too long.
//! * **Receiver**, per source: accepts exactly the next expected
//!   `pkt_seq`; anything older is a duplicate (dropped, but forces an ack
//!   so a sender stuck retransmitting learns quickly), anything newer is
//!   an out-of-order arrival or loss shadow (dropped; go-back-N re-sends
//!   it in order).
//! * **Acks** are cumulative (`ack` = next expected seq, i.e. everything
//!   below is delivered) and piggybacked on every outgoing packet; when
//!   traffic is one-sided, standalone [`crate::FmPacket::ack_only`]
//!   packets carry them.
//!
//! The header's `ack` field rides inside the fixed
//! [`crate::HEADER_WIRE_BYTES`] framing, so enabling the sublayer does not
//! change wire timing — only the extra packets (retransmissions, acks) do.

use std::collections::VecDeque;

use fm_model::Nanos;

use crate::packet::FmPacket;
use crate::stats::FmStats;

/// Duplicate cumulative acks (same value, ring non-empty) before the head
/// packet is fast-retransmitted without waiting for the timer. Dup acks
/// only arise from duplicate/out-of-order receipt, so they
/// are a genuine loss signal. Besides cutting recovery latency, the
/// one-packet resend is what breaks *periodic* loss: a whole-ring resend
/// advances a deterministic drop counter by the ring length every round
/// (identical phase each time — the same position can be swallowed
/// forever), while each head resend shifts the phase by one.
const DUP_ACKS_FOR_FAST_RETRANSMIT: u32 = 3;

/// Floor for [`RetransmitConfig::rto_ns`]. A nanosecond-scale RTO (far
/// below any round trip) turns every poll into a timeout: the sender
/// saturates the wire with duplicates of the head packet and goodput
/// collapses ~50x while still (very slowly) progressing. Clamping to a
/// microsecond keeps a degenerate config merely noisy instead of
/// pathological.
pub const MIN_RTO_NS: u64 = 1_000;

/// Serial-number comparison in the 32-bit sequence space (RFC 1982
/// flavour): `a` precedes `b` when the forward wrapping distance from `a`
/// to `b` is less than half the space. Sequence numbers are *serials*, not
/// integers — a long-lived connection wraps `u32` and plain `<` would then
/// declare fresh acks "ancient" and freeze the window forever. The window
/// (≤ 2³¹ by construction) keeps live sequences well inside the half-space
/// where this ordering is total.
#[inline]
pub(crate) fn seq_lt(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < (1 << 31)
}

/// How an engine guarantees reliable in-order delivery.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Reliability {
    /// Trust the substrate (the paper's choice): no retransmission, no
    /// acks, credit-based flow control. Loss is *detected* (sequence
    /// gaps surface as [`crate::FmError`]) but never repaired. Default.
    #[default]
    TrustSubstrate,
    /// Go-back-N retransmission: delivery survives packet drop,
    /// duplication, and reordering at the cost of ack traffic and
    /// sender-side buffering.
    Retransmit(RetransmitConfig),
}

/// Tuning knobs for [`Reliability::Retransmit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetransmitConfig {
    /// Max unacknowledged data packets per destination (the sliding
    /// window; also the sender-side buffering bound). Plays the role the
    /// credit window plays in TrustSubstrate mode.
    pub window: u32,
    /// Initial retransmit timeout in nanoseconds (of `NetDevice::now()`
    /// time — virtual in the simulator, wall-clock on real transports).
    /// Clamped up to [`MIN_RTO_NS`]: an RTO orders of magnitude below the
    /// round trip makes every poll a timeout and drowns the wire in
    /// duplicate re-sends.
    pub rto_ns: u64,
    /// Cap on exponential backoff: the effective timeout is
    /// `rto_ns << min(consecutive_timeouts, max_backoff_exp)`.
    pub max_backoff_exp: u32,
    /// Adapt to the measured network instead of trusting the constants:
    ///
    /// * the RTO is re-estimated from RTT samples (`srtt + 4·rttvar`,
    ///   the RFC 6298 shape, Karn-sampled so retransmitted packets never
    ///   pollute the estimate), clamped to `[rto_min_ns, rto_max_ns]`;
    ///   `rto_ns` remains the pre-sample initial value;
    /// * the effective send window per peer becomes AIMD — grows by one
    ///   packet per window of acks up to `window`, halves on a loss
    ///   signal (timeout or fast retransmit) — so a lossy or slow peer
    ///   sheds load instead of triggering retransmit storms.
    ///
    /// `false` (default) keeps the historical fixed-constant behaviour
    /// bit-identical; real datagram transports (fm-udp) enable it.
    pub adaptive: bool,
    /// Clamp floor for the adaptive RTO estimate (ignored when
    /// `adaptive` is off).
    pub rto_min_ns: u64,
    /// Clamp ceiling for the adaptive RTO estimate (ignored when
    /// `adaptive` is off).
    pub rto_max_ns: u64,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            window: 32,
            rto_ns: 200_000, // 200 µs: a few round trips on the modeled fabric
            max_backoff_exp: 6,
            adaptive: false,
            rto_min_ns: 50_000,        // 50 µs: several loopback round trips
            rto_max_ns: 1_000_000_000, // 1 s: a peer slower than this is Suspect anyway
        }
    }
}

impl RetransmitConfig {
    /// The adaptive profile real datagram transports start from:
    /// defaults with [`RetransmitConfig::adaptive`] on.
    pub fn adaptive() -> Self {
        RetransmitConfig {
            adaptive: true,
            ..RetransmitConfig::default()
        }
    }
}

/// What the receive filter decided about an incoming data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvDecision {
    /// The next expected packet: deliver it.
    Accept,
    /// Already delivered (seq below expected): drop, force an ack.
    Duplicate,
    /// Beyond the next expected seq (a loss shadow or reordering): drop;
    /// go-back-N will re-send it in order.
    OutOfOrder,
}

#[derive(Debug, Default)]
struct PeerSend {
    /// Unacked data packets in seq order (clones for retransmission).
    ring: VecDeque<FmPacket>,
    /// Everything with `pkt_seq <` this is acknowledged.
    cum_acked: u32,
    /// When the retransmit timer fires (armed while the ring is
    /// non-empty).
    deadline: Option<Nanos>,
    /// Consecutive timeouts without ack progress (backoff exponent).
    timeouts: u32,
    /// Consecutive duplicate cumulative acks since the last progress
    /// (fast-retransmit trigger).
    dup_acks: u32,
    /// Smoothed RTT estimate (adaptive mode; `None` until the first
    /// sample).
    srtt_ns: Option<u64>,
    /// RTT variance estimate (adaptive mode).
    rttvar_ns: u64,
    /// The one in-flight packet currently timed for an RTT sample:
    /// `(pkt_seq, sent_at)`. Karn's rule: cleared on any retransmission
    /// toward this peer, so a resent packet's ambiguous ack never feeds
    /// the estimator.
    probe: Option<(u32, Nanos)>,
    /// AIMD effective window in packets (adaptive mode; meaningful range
    /// `1.0 ..= cfg.window`).
    cwnd: f64,
    /// RTT sample taken by the most recent ack, for the engine's
    /// observability hook ([`ReliableState::take_rtt_sample`]).
    last_sample_ns: Option<u64>,
}

impl PeerSend {
    /// A peer-send slot with no history and a fully open AIMD window.
    fn fresh(cfg: &RetransmitConfig) -> PeerSend {
        PeerSend {
            cwnd: cfg.window as f64,
            ..PeerSend::default()
        }
    }
}

#[derive(Debug, Default)]
struct PeerRecv {
    /// Next expected `pkt_seq` from this peer — also the cumulative ack
    /// we owe them.
    expected: u32,
    /// An ack is owed that no outgoing packet has carried yet: a data
    /// packet was accepted since the last one, or a duplicate or
    /// out-of-order arrival asked for a repeat (the peer is, or soon will
    /// be, retransmitting).
    ack_due: bool,
}

/// Per-engine state of the retransmission protocol. Owned by an engine;
/// `None` in TrustSubstrate mode.
#[derive(Debug)]
pub(crate) struct ReliableState {
    cfg: RetransmitConfig,
    send: Vec<PeerSend>,
    recv: Vec<PeerRecv>,
}

impl ReliableState {
    pub(crate) fn new(num_nodes: usize, mut cfg: RetransmitConfig) -> Self {
        assert!(cfg.window >= 1, "a zero window can never send");
        cfg.rto_ns = cfg.rto_ns.max(MIN_RTO_NS);
        cfg.rto_min_ns = cfg.rto_min_ns.max(MIN_RTO_NS);
        cfg.rto_max_ns = cfg.rto_max_ns.max(cfg.rto_min_ns);
        ReliableState {
            cfg,
            send: (0..num_nodes).map(|_| PeerSend::fresh(&cfg)).collect(),
            recv: (0..num_nodes).map(|_| PeerRecv::default()).collect(),
        }
    }

    /// Data packets that can still go to `dst` before the window closes
    /// (the AIMD effective window in adaptive mode, the configured
    /// window otherwise).
    pub(crate) fn send_budget(&self, dst: usize) -> u32 {
        let ps = &self.send[dst];
        self.effective_window(ps)
            .saturating_sub(ps.ring.len() as u32)
    }

    fn effective_window(&self, ps: &PeerSend) -> u32 {
        if self.cfg.adaptive {
            (ps.cwnd as u32).clamp(1, self.cfg.window)
        } else {
            self.cfg.window
        }
    }

    /// The base (pre-backoff) retransmit timeout toward `ps`: the
    /// RTT-derived estimate in adaptive mode once a sample exists, the
    /// configured constant otherwise.
    fn rto_base(&self, ps: &PeerSend) -> u64 {
        if self.cfg.adaptive {
            if let Some(srtt) = ps.srtt_ns {
                return (srtt + 4 * ps.rttvar_ns).clamp(self.cfg.rto_min_ns, self.cfg.rto_max_ns);
            }
        }
        self.cfg.rto_ns
    }

    /// Can `extra` more data packets to `dst` fit in the window right now?
    pub(crate) fn can_send(&self, dst: usize, extra: u32) -> bool {
        extra <= self.send_budget(dst)
    }

    /// The cumulative ack to piggyback on a packet headed to `dst` (and
    /// mark the ack duty to that peer as discharged).
    pub(crate) fn piggyback_ack(&mut self, dst: usize) -> u32 {
        let pr = &mut self.recv[dst];
        pr.ack_due = false;
        pr.expected
    }

    /// Record a data packet handed to the device: retain it in the
    /// retransmit ring and arm the timer if idle. The clone is a header
    /// copy plus a payload refcount bump — the ring shares the packet's
    /// pooled frame, it does not deep-copy it.
    pub(crate) fn on_data_sent(&mut self, dst: usize, pkt: &FmPacket, now: Nanos) {
        let rto = self.rto_base(&self.send[dst]);
        let ps = &mut self.send[dst];
        if self.cfg.adaptive && ps.probe.is_none() {
            ps.probe = Some((pkt.header.pkt_seq, now));
        }
        ps.ring.push_back(pkt.clone());
        if ps.deadline.is_none() {
            ps.deadline = Some(now + Nanos(rto));
        }
    }

    /// Process a cumulative ack from `src` (who has received everything
    /// with `pkt_seq < ack` that we sent them).
    ///
    /// Returns `true` when enough duplicate acks have accumulated that the
    /// caller should fast-retransmit [`ReliableState::head_packet`] now
    /// instead of waiting for the timer.
    pub(crate) fn on_ack(&mut self, src: usize, ack: u32, now: Nanos) -> bool {
        let adaptive = self.cfg.adaptive;
        let window = self.cfg.window;
        let base_rto = self.rto_base(&self.send[src]);
        let ps = &mut self.send[src];
        if seq_lt(ack, ps.cum_acked) {
            return false; // ancient ack, reordered in transit
        }
        if ack == ps.cum_acked {
            // Duplicate: the peer is repeating "still waiting for seq
            // `ack`" — it saw something out of order.
            if ps.ring.is_empty() {
                return false; // nothing outstanding; just a quiet peer
            }
            ps.dup_acks += 1;
            if ps.dup_acks >= DUP_ACKS_FOR_FAST_RETRANSMIT {
                ps.dup_acks = 0;
                // Push the timer back: the fast resend is in flight, give
                // it a chance before the whole-ring timeout fires.
                ps.deadline = Some(now + Nanos(base_rto << ps.timeouts));
                if adaptive {
                    // A loss signal: halve the effective window; the
                    // resend also voids the RTT probe (Karn's rule).
                    ps.cwnd = (ps.cwnd / 2.0).max(1.0);
                    ps.probe = None;
                }
                return true;
            }
            return false;
        }
        ps.cum_acked = ack;
        let mut popped = 0u32;
        while ps
            .ring
            .front()
            .is_some_and(|p| seq_lt(p.header.pkt_seq, ack))
        {
            ps.ring.pop_front();
            popped += 1;
        }
        if adaptive {
            // RTT sample: the timed probe is acknowledged and was never
            // retransmitted (a timeout or fast retransmit would have
            // cleared it).
            if let Some((seq, sent)) = ps.probe {
                if seq_lt(seq, ack) {
                    let sample = now.0.saturating_sub(sent.0);
                    match ps.srtt_ns {
                        Some(srtt) => {
                            ps.rttvar_ns = (3 * ps.rttvar_ns + srtt.abs_diff(sample)) / 4;
                            ps.srtt_ns = Some((7 * srtt + sample) / 8);
                        }
                        None => {
                            ps.srtt_ns = Some(sample);
                            ps.rttvar_ns = sample / 2;
                        }
                    }
                    ps.probe = None;
                    ps.last_sample_ns = Some(sample);
                }
            }
            // Additive increase: one packet per window of acked packets.
            ps.cwnd = (ps.cwnd + popped as f64 / ps.cwnd.max(1.0)).min(window as f64);
        }
        // Ack progress: reset backoff and restart the timer for whatever
        // is still outstanding (under the *new* RTT estimate).
        ps.timeouts = 0;
        ps.dup_acks = 0;
        let rto = self.rto_base(&self.send[src]);
        let ps = &mut self.send[src];
        ps.deadline = if ps.ring.is_empty() {
            None
        } else {
            Some(now + Nanos(rto))
        };
        false
    }

    /// Run an incoming data packet from `src` through the in-order filter.
    pub(crate) fn accept(&mut self, src: usize, pkt_seq: u32, stats: &mut FmStats) -> RecvDecision {
        let pr = &mut self.recv[src];
        if pkt_seq == pr.expected {
            pr.expected = pr.expected.wrapping_add(1);
            pr.ack_due = true;
            RecvDecision::Accept
        } else if seq_lt(pkt_seq, pr.expected) {
            stats.duplicates_dropped += 1;
            pr.ack_due = true;
            RecvDecision::Duplicate
        } else {
            stats.duplicates_dropped += 1;
            // Re-ack what we do have so the sender can tighten its window
            // accounting while it times out and goes back.
            pr.ack_due = true;
            RecvDecision::OutOfOrder
        }
    }

    /// Re-arm the standalone-ack duty for `peer` (used when the device
    /// queue was full at flush time — retry on the next poll).
    pub(crate) fn mark_ack_due(&mut self, peer: usize) {
        self.recv[peer].ack_due = true;
    }

    /// Peers we owe a standalone ack (no outgoing packet piggybacked it
    /// first). Returns `(peer, ack)` pairs and discharges the duty.
    pub(crate) fn take_due_acks(&mut self) -> Vec<(usize, u32)> {
        let mut due = Vec::new();
        for (peer, pr) in self.recv.iter_mut().enumerate() {
            if std::mem::take(&mut pr.ack_due) {
                due.push((peer, pr.expected));
            }
        }
        due
    }

    /// Peers whose retransmit timer has expired at `now`. For each, the
    /// caller re-sends [`ReliableState::ring_packets`] and then calls
    /// [`ReliableState::on_timeout_handled`].
    pub(crate) fn due_retransmits(&self, now: Nanos) -> Vec<usize> {
        self.send
            .iter()
            .enumerate()
            .filter(|(_, ps)| ps.deadline.is_some_and(|d| d <= now))
            .map(|(peer, _)| peer)
            .collect()
    }

    /// The unacked packets to `dst`, oldest first, with their piggybacked
    /// ack refreshed to the current value (the stored copy's ack may be
    /// stale). Each "clone" copies the 24-byte header and bumps the
    /// payload refcount; no payload bytes move.
    pub(crate) fn ring_packets(&mut self, dst: usize) -> Vec<FmPacket> {
        let ack = self.recv[dst].expected;
        self.send[dst]
            .ring
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.header.ack = ack;
                p
            })
            .collect()
    }

    /// A clone of the oldest unacked packet to `dst` (ack refreshed), for
    /// duplicate-ack fast retransmission. The head is the only packet the
    /// peer's in-order filter can accept, so resending it alone suffices.
    pub(crate) fn head_packet(&mut self, dst: usize) -> Option<FmPacket> {
        let ack = self.recv[dst].expected;
        self.send[dst].ring.front().map(|p| {
            let mut p = p.clone();
            p.header.ack = ack;
            p
        })
    }

    /// Apply exponential backoff and re-arm the timer after a timeout on
    /// `dst` was handled (ring re-sent, fully or partially).
    pub(crate) fn on_timeout_handled(&mut self, dst: usize, now: Nanos, stats: &mut FmStats) {
        let base_rto = self.rto_base(&self.send[dst]);
        let adaptive = self.cfg.adaptive;
        let ps = &mut self.send[dst];
        stats.retransmit_timeouts += 1;
        ps.timeouts = (ps.timeouts + 1).min(self.cfg.max_backoff_exp);
        let rto = Nanos(base_rto << ps.timeouts);
        ps.deadline = Some(now + rto);
        if adaptive {
            // Loss signal: halve the window; the whole ring was resent,
            // so the probe's eventual ack is ambiguous (Karn's rule).
            ps.cwnd = (ps.cwnd / 2.0).max(1.0);
            ps.probe = None;
        }
    }

    /// The earliest armed retransmit deadline across all peers, for
    /// [`crate::device::NetDevice::request_wake`].
    pub(crate) fn next_deadline(&self) -> Option<Nanos> {
        self.send.iter().filter_map(|ps| ps.deadline).min()
    }

    /// Total unacknowledged data packets across all peers. Zero means
    /// every send has been confirmed delivered.
    pub(crate) fn unacked_packets(&self) -> usize {
        self.send.iter().map(|ps| ps.ring.len()).sum()
    }

    /// Forget everything about `peer` — both sequence spaces restart at
    /// zero, the retransmit ring is dropped, and the RTT/window
    /// estimators return to their initial state. Called when the peer
    /// restarts with a new incarnation epoch
    /// ([`crate::device::PeerEventKind::Rejoining`]): its old in-flight
    /// state would otherwise poison the new incarnation's sequence
    /// numbers.
    pub(crate) fn reset_peer(&mut self, peer: usize) {
        self.send[peer] = PeerSend::fresh(&self.cfg);
        self.recv[peer] = PeerRecv::default();
    }

    /// Stop retransmitting toward `peer` (declared down): drop the ring
    /// and disarm the timer, but keep both sequence spaces — if the same
    /// incarnation comes back (`Suspect`→`Up` without a restart), the
    /// protocol state is still coherent and go-back-N resumes from the
    /// cumulative ack.
    pub(crate) fn abandon_peer(&mut self, peer: usize) {
        let ps = &mut self.send[peer];
        ps.ring.clear();
        ps.deadline = None;
        ps.timeouts = 0;
        ps.dup_acks = 0;
        ps.probe = None;
    }

    /// The current base RTO toward `peer` (adaptive estimate once a
    /// sample exists; the configured constant otherwise).
    pub(crate) fn current_rto_ns(&self, peer: usize) -> u64 {
        self.rto_base(&self.send[peer])
    }

    /// The effective AIMD window toward `peer`, in packets.
    pub(crate) fn cwnd_packets(&self, peer: usize) -> u32 {
        self.effective_window(&self.send[peer])
    }

    /// Whether the adaptive estimators (RTT-derived RTO, AIMD window)
    /// are enabled.
    pub(crate) fn is_adaptive(&self) -> bool {
        self.cfg.adaptive
    }

    /// Take the RTT sample recorded by the most recent ack from `peer`,
    /// if one was taken (observability hook; consuming it keeps the
    /// engine from double-reporting).
    pub(crate) fn take_rtt_sample(&mut self, peer: usize) -> Option<u64> {
        self.send[peer].last_sample_ns.take()
    }

    /// The smoothed RTT estimate toward `peer` (adaptive mode; `None`
    /// before the first sample).
    pub(crate) fn srtt_ns(&self, peer: usize) -> Option<u64> {
        self.send[peer].srtt_ns
    }

    /// Test-only: a state whose send and receive sequence spaces start at
    /// `start` instead of 0, so wraparound behaviour can be exercised
    /// without sending 2³² packets first.
    #[cfg(test)]
    pub(crate) fn with_start_seq(num_nodes: usize, cfg: RetransmitConfig, start: u32) -> Self {
        let mut st = ReliableState::new(num_nodes, cfg);
        for ps in &mut st.send {
            ps.cum_acked = start;
        }
        for pr in &mut st.recv {
            pr.expected = start;
        }
        st
    }
}

#[cfg(test)]
mod prop_tests {
    //! Property battery for the window arithmetic: model-based random
    //! interleavings of send / deliver / drop / duplicate / reorder /
    //! ack / timeout events, cross-checked against a reference model —
    //! including across `u32` sequence wraparound. Deterministic
    //! ([`DetRng`], seed printed in every assertion); case count follows
    //! the `PROPTEST_CASES` environment variable (CI raises it to 1024).

    use super::*;
    use crate::packet::{HandlerId, PacketFlags, PacketHeader};
    use fm_model::rng::{env_cases, DetRng};

    const WINDOW: u32 = 8;

    fn cfg() -> RetransmitConfig {
        RetransmitConfig {
            window: WINDOW,
            rto_ns: 1_000,
            max_backoff_exp: 4,
            ..RetransmitConfig::default()
        }
    }

    fn data_pkt(seq: u32) -> FmPacket {
        FmPacket {
            header: PacketHeader {
                src: 0,
                dst: 1,
                handler: HandlerId(1),
                msg_seq: 0,
                pkt_seq: seq,
                msg_len: 4,
                flags: PacketFlags::FIRST | PacketFlags::LAST,
                credits: 0,
                ack: 0,
            },
            payload: vec![0; 4].into(),
        }
    }

    /// One sender (node 0) streaming to one receiver (node 1) over a
    /// hostile channel the test controls packet by packet, with a
    /// reference model (`next_seq` / `model_expected` / `last_ack`)
    /// checked at every event.
    struct World {
        s: ReliableState,
        r: ReliableState,
        stats: FmStats,
        wire: Vec<FmPacket>,
        acks: Vec<u32>,
        now: Nanos,
        next_seq: u32,
        model_expected: u32,
        last_ack: u32,
        case: usize,
    }

    impl World {
        fn new(start: u32, case: usize) -> World {
            World::new_with(cfg(), start, case)
        }

        fn new_with(c: RetransmitConfig, start: u32, case: usize) -> World {
            World {
                s: ReliableState::with_start_seq(2, c, start),
                r: ReliableState::with_start_seq(2, c, start),
                stats: FmStats::default(),
                wire: Vec::new(),
                acks: Vec::new(),
                now: Nanos(0),
                next_seq: start,
                model_expected: start,
                last_ack: start,
                case,
            }
        }

        fn try_send(&mut self) {
            if self.s.can_send(1, 1) {
                let pkt = data_pkt(self.next_seq);
                self.s.on_data_sent(1, &pkt, self.now);
                self.wire.push(pkt);
                self.next_seq = self.next_seq.wrapping_add(1);
            }
            assert!(
                self.s.unacked_packets() <= WINDOW as usize,
                "case {}: window exceeded",
                self.case
            );
        }

        /// Deliver the `idx`-th in-flight data packet and check the filter
        /// decision against the model.
        fn deliver(&mut self, idx: usize) {
            let pkt = self.wire.remove(idx);
            let seq = pkt.header.pkt_seq;
            let decision = self.r.accept(0, seq, &mut self.stats);
            match decision {
                RecvDecision::Accept => {
                    assert_eq!(
                        seq, self.model_expected,
                        "case {}: accepted out of order",
                        self.case
                    );
                    self.model_expected = self.model_expected.wrapping_add(1);
                }
                RecvDecision::Duplicate => assert!(
                    seq_lt(seq, self.model_expected),
                    "case {}: seq {seq} classified Duplicate but not below expected {}",
                    self.case,
                    self.model_expected
                ),
                RecvDecision::OutOfOrder => assert!(
                    !seq_lt(seq, self.model_expected) && seq != self.model_expected,
                    "case {}: seq {seq} classified OutOfOrder at expected {}",
                    self.case,
                    self.model_expected
                ),
            }
            self.collect_acks();
        }

        /// Move acks the receiver owes onto the ack channel, checking
        /// cumulative-ack monotonicity (in serial order).
        fn collect_acks(&mut self) {
            for (peer, ack) in self.r.take_due_acks() {
                assert_eq!(peer, 0);
                assert!(
                    !seq_lt(ack, self.last_ack),
                    "case {}: cumulative ack went backwards ({} after {})",
                    self.case,
                    ack,
                    self.last_ack
                );
                self.last_ack = ack;
                self.acks.push(ack);
            }
        }

        fn deliver_ack(&mut self, idx: usize) {
            let ack = self.acks.remove(idx);
            let before = self.s.send[1].cum_acked;
            let fast = self.s.on_ack(1, ack, self.now);
            let after = self.s.send[1].cum_acked;
            assert!(
                !seq_lt(after, before),
                "case {}: cum_acked went backwards",
                self.case
            );
            if fast {
                if let Some(head) = self.s.head_packet(1) {
                    self.wire.push(head);
                }
            }
        }

        fn fire_timeouts(&mut self) {
            for peer in self.s.due_retransmits(self.now) {
                let ring = self.s.ring_packets(peer);
                self.wire.extend(ring);
                self.s.on_timeout_handled(peer, self.now, &mut self.stats);
            }
        }

        /// Lossless-from-here-on: push everything through until the
        /// sender has nothing outstanding and the receiver accepted every
        /// sequence exactly once.
        fn drain(&mut self) {
            let mut guard = 0u32;
            while self.s.unacked_packets() > 0
                || self.model_expected != self.next_seq
                || !self.wire.is_empty()
                || !self.acks.is_empty()
            {
                guard += 1;
                assert!(guard < 100_000, "case {}: failed to drain", self.case);
                if !self.wire.is_empty() {
                    self.deliver(0);
                } else if !self.acks.is_empty() {
                    self.deliver_ack(0);
                } else if self.s.unacked_packets() > 0 {
                    self.now = self
                        .s
                        .next_deadline()
                        .expect("outstanding packets arm the timer")
                        .max(self.now);
                    self.fire_timeouts();
                } else {
                    self.try_send();
                }
            }
            assert_eq!(self.model_expected, self.next_seq, "case {}", self.case);
            assert_eq!(
                self.s.send[1].cum_acked, self.next_seq,
                "case {}: final cumulative ack",
                self.case
            );
            assert_eq!(self.r.recv[0].expected, self.next_seq, "case {}", self.case);
        }
    }

    /// Start points that matter: zero, mid-range, and straddling the u32
    /// wraparound boundary.
    fn start_seq(rng: &mut DetRng, case: usize) -> u32 {
        match case % 3 {
            0 => 0,
            1 => u32::MAX - rng.below(2 * WINDOW as u64 + 4) as u32,
            _ => rng.next_u64() as u32,
        }
    }

    #[test]
    fn prop_window_and_acks_hold_under_arbitrary_interleavings() {
        for case in 0..env_cases(64) {
            let mut rng = DetRng::seed_from_u64(0x5E9_0000_u64 ^ case as u64);
            let mut w = World::new(start_seq(&mut rng, case), case);
            for _ in 0..rng.range_usize(20, 200) {
                match rng.below(100) {
                    // Weighted op mix: mostly send/deliver, some hostility.
                    0..=34 => w.try_send(),
                    35..=64 => {
                        if !w.wire.is_empty() {
                            let idx = w.rng_index(&mut rng);
                            w.deliver(idx); // random index = reordering
                        }
                    }
                    65..=74 => {
                        if !w.wire.is_empty() {
                            let idx = w.rng_index(&mut rng);
                            w.wire.remove(idx); // drop
                        }
                    }
                    75..=84 => {
                        if !w.wire.is_empty() {
                            let idx = w.rng_index(&mut rng);
                            let copy = w.wire[idx].clone();
                            w.wire.push(copy); // duplicate
                        }
                    }
                    85..=94 => {
                        if !w.acks.is_empty() {
                            let idx = rng.range_usize(0, w.acks.len());
                            w.deliver_ack(idx);
                        }
                    }
                    _ => {
                        w.now += Nanos(rng.below(2_000));
                        w.fire_timeouts();
                    }
                }
            }
            w.drain();
        }
    }

    impl World {
        fn rng_index(&self, rng: &mut DetRng) -> usize {
            rng.range_usize(0, self.wire.len())
        }
    }

    #[test]
    fn prop_adaptive_mode_holds_under_arbitrary_interleavings() {
        // The same hostile-channel battery with the adaptive RTO and
        // AIMD window enabled: the estimators change *when* things are
        // resent and how many may be outstanding, never whether delivery
        // and ordering hold.
        let adaptive = RetransmitConfig {
            adaptive: true,
            rto_min_ns: 1_000,
            rto_max_ns: 100_000,
            ..cfg()
        };
        for case in 0..env_cases(64) {
            let mut rng = DetRng::seed_from_u64(0xADA_0000_u64 ^ case as u64);
            let mut w = World::new_with(adaptive, start_seq(&mut rng, case), case);
            for _ in 0..rng.range_usize(20, 200) {
                match rng.below(100) {
                    0..=34 => w.try_send(),
                    35..=64 => {
                        if !w.wire.is_empty() {
                            let idx = w.rng_index(&mut rng);
                            w.deliver(idx);
                        }
                    }
                    65..=74 => {
                        if !w.wire.is_empty() {
                            let idx = w.rng_index(&mut rng);
                            w.wire.remove(idx);
                        }
                    }
                    75..=84 => {
                        if !w.wire.is_empty() {
                            let idx = w.rng_index(&mut rng);
                            let copy = w.wire[idx].clone();
                            w.wire.push(copy);
                        }
                    }
                    85..=94 => {
                        if !w.acks.is_empty() {
                            let idx = rng.range_usize(0, w.acks.len());
                            w.deliver_ack(idx);
                        }
                    }
                    _ => {
                        w.now += Nanos(rng.below(2_000));
                        w.fire_timeouts();
                    }
                }
            }
            w.drain();
        }
    }

    #[test]
    fn prop_sequence_wraparound_in_order_delivery() {
        // Lossless in-order channel crossing the u32 boundary: every
        // packet accepted exactly once, in order, and the cumulative ack
        // follows across the wrap.
        for case in 0..env_cases(64) {
            let mut rng = DetRng::seed_from_u64(0xA11_0000_u64 ^ case as u64);
            let start = u32::MAX - rng.below(40) as u32;
            let count = rng.range_usize(50, 120);
            let mut w = World::new(start, case);
            for _ in 0..count {
                w.try_send();
                if rng.chance(0.7) && !w.wire.is_empty() {
                    w.deliver(0);
                }
                if rng.chance(0.7) && !w.acks.is_empty() {
                    w.deliver_ack(0);
                }
            }
            w.drain();
            assert!(
                seq_lt(u32::MAX - 45, w.next_seq) || w.next_seq < 200,
                "case {case}: did not cross the boundary (next_seq {})",
                w.next_seq
            );
        }
    }

    #[test]
    fn prop_duplicate_and_out_of_window_suppression() {
        // A channel that re-delivers every packet several times and mixes
        // in stale acks: each sequence must be accepted exactly once and
        // everything else suppressed.
        for case in 0..env_cases(64) {
            let mut rng = DetRng::seed_from_u64(0xD0B_0000_u64 ^ case as u64);
            let mut w = World::new(start_seq(&mut rng, case), case);
            let start = w.model_expected;
            for _ in 0..rng.range_usize(30, 120) {
                w.try_send();
                if !w.wire.is_empty() {
                    // Deliver the front packet up to 3 times.
                    for _ in 0..rng.range_usize(1, 4) {
                        if w.wire.is_empty() {
                            break;
                        }
                        let copy = w.wire[0].clone();
                        w.deliver(0);
                        let redeliver = rng.chance(0.6);
                        let straggle = rng.chance(0.3);
                        match (redeliver, straggle) {
                            (true, true) => {
                                w.wire.insert(0, copy.clone());
                                w.wire.push(copy); // late straggler
                            }
                            (true, false) => w.wire.insert(0, copy),
                            (false, true) => w.wire.push(copy), // late straggler
                            (false, false) => {}
                        }
                    }
                }
                if rng.chance(0.5) && !w.acks.is_empty() {
                    // Acks may arrive duplicated and reordered too.
                    let idx = rng.range_usize(0, w.acks.len());
                    let stale = w.acks[idx];
                    w.deliver_ack(idx);
                    if rng.chance(0.4) {
                        w.acks.push(stale);
                    }
                }
            }
            w.drain();
            let sent = w.next_seq.wrapping_sub(start);
            assert!(
                w.stats.duplicates_dropped > 0 || sent < 2,
                "case {case}: hostile channel produced no suppressions"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{HandlerId, PacketFlags, PacketHeader};

    #[test]
    fn seq_lt_is_a_serial_order() {
        assert!(seq_lt(0, 1));
        assert!(!seq_lt(1, 0));
        assert!(!seq_lt(5, 5));
        // Across the wrap: MAX precedes 0, 1, ... (forward distance small).
        assert!(seq_lt(u32::MAX, 0));
        assert!(seq_lt(u32::MAX - 3, 2));
        assert!(!seq_lt(2, u32::MAX - 3));
        // Half-space boundary.
        assert!(seq_lt(0, (1 << 31) - 1));
        assert!(!seq_lt(0, 1 << 31));
    }

    #[test]
    fn sub_microsecond_rto_is_clamped() {
        let st = ReliableState::new(
            2,
            RetransmitConfig {
                rto_ns: 1,
                ..RetransmitConfig::default()
            },
        );
        assert_eq!(st.cfg.rto_ns, MIN_RTO_NS);
        // At or above the floor the configured value is kept.
        let st = ReliableState::new(
            2,
            RetransmitConfig {
                rto_ns: MIN_RTO_NS + 5,
                ..RetransmitConfig::default()
            },
        );
        assert_eq!(st.cfg.rto_ns, MIN_RTO_NS + 5);
    }

    fn data_pkt(dst: u16, pkt_seq: u32) -> FmPacket {
        FmPacket {
            header: PacketHeader {
                src: 0,
                dst,
                handler: HandlerId(1),
                msg_seq: 0,
                pkt_seq,
                msg_len: 4,
                flags: PacketFlags::FIRST | PacketFlags::LAST,
                credits: 0,
                ack: 0,
            },
            payload: vec![0; 4].into(),
        }
    }

    fn state() -> ReliableState {
        ReliableState::new(
            2,
            RetransmitConfig {
                window: 4,
                rto_ns: 1000,
                max_backoff_exp: 3,
                ..RetransmitConfig::default()
            },
        )
    }

    #[test]
    fn window_bounds_outstanding_packets() {
        let mut r = state();
        for seq in 0..4 {
            assert!(r.can_send(1, 1));
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        assert!(!r.can_send(1, 1), "window full");
        assert_eq!(r.unacked_packets(), 4);
        r.on_ack(1, 2, Nanos(10));
        assert_eq!(r.unacked_packets(), 2);
        assert!(r.can_send(1, 2));
        assert!(!r.can_send(1, 3));
    }

    #[test]
    fn cumulative_acks_release_and_rearm() {
        let mut r = state();
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        r.on_data_sent(1, &data_pkt(1, 1), Nanos(5));
        assert_eq!(r.next_deadline(), Some(Nanos(1000)), "armed at first send");
        r.on_ack(1, 1, Nanos(500));
        assert_eq!(r.unacked_packets(), 1);
        assert_eq!(
            r.next_deadline(),
            Some(Nanos(1500)),
            "restarted on progress"
        );
        r.on_ack(1, 2, Nanos(800));
        assert_eq!(r.unacked_packets(), 0);
        assert_eq!(r.next_deadline(), None, "disarmed when ring empties");
        // Stale ack is ignored.
        r.on_ack(1, 1, Nanos(900));
        assert_eq!(r.unacked_packets(), 0);
    }

    #[test]
    fn receive_filter_accepts_in_order_only() {
        let mut r = state();
        let mut stats = FmStats::default();
        assert_eq!(r.accept(1, 0, &mut stats), RecvDecision::Accept);
        assert_eq!(r.accept(1, 1, &mut stats), RecvDecision::Accept);
        assert_eq!(r.accept(1, 1, &mut stats), RecvDecision::Duplicate);
        assert_eq!(r.accept(1, 5, &mut stats), RecvDecision::OutOfOrder);
        assert_eq!(r.accept(1, 2, &mut stats), RecvDecision::Accept);
        assert_eq!(stats.duplicates_dropped, 2);
    }

    #[test]
    fn ack_duty_piggyback_and_standalone() {
        let mut r = state();
        let mut stats = FmStats::default();
        r.accept(1, 0, &mut stats);
        // Piggybacking discharges the duty...
        assert_eq!(r.piggyback_ack(1), 1);
        assert!(r.take_due_acks().is_empty());
        // ...otherwise a standalone ack is due.
        r.accept(1, 1, &mut stats);
        assert_eq!(r.take_due_acks(), vec![(1, 2)]);
        assert!(r.take_due_acks().is_empty(), "duty discharged");
        // A duplicate forces an ack even with nothing newly accepted.
        r.accept(1, 0, &mut stats);
        assert_eq!(r.take_due_acks(), vec![(1, 2)]);
    }

    #[test]
    fn duplicate_acks_trigger_fast_retransmit() {
        let mut r = state();
        for seq in 0..3 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        assert!(!r.on_ack(1, 1, Nanos(10)), "progress, not a duplicate");
        assert!(!r.on_ack(1, 1, Nanos(20)), "first duplicate");
        assert!(!r.on_ack(1, 1, Nanos(30)), "second duplicate");
        assert!(r.on_ack(1, 1, Nanos(40)), "third duplicate fires");
        let head = r.head_packet(1).unwrap();
        assert_eq!(head.header.pkt_seq, 1, "the oldest unacked packet");
        // The trigger resets; progress also resets it.
        assert!(!r.on_ack(1, 1, Nanos(50)));
        assert!(!r.on_ack(1, 2, Nanos(60)), "progress");
        assert!(!r.on_ack(1, 2, Nanos(70)));
        assert!(!r.on_ack(1, 2, Nanos(80)));
        assert!(r.on_ack(1, 2, Nanos(90)), "re-armed after progress");
        // With nothing outstanding, duplicates are just a quiet peer.
        r.on_ack(1, 3, Nanos(100));
        assert_eq!(r.unacked_packets(), 0);
        for t in [110, 120, 130] {
            assert!(!r.on_ack(1, 3, Nanos(t)));
        }
        assert!(r.head_packet(1).is_none());
    }

    #[test]
    fn timeouts_back_off_exponentially_and_refresh_acks() {
        let mut r = state();
        let mut stats = FmStats::default();
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        // Receive something so the refreshed piggyback ack is non-zero.
        r.accept(1, 0, &mut stats);

        assert!(r.due_retransmits(Nanos(999)).is_empty());
        assert_eq!(r.due_retransmits(Nanos(1000)), vec![1]);
        let ring = r.ring_packets(1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring[0].header.ack, 1, "stale stored ack refreshed");
        r.on_timeout_handled(1, Nanos(1000), &mut stats);
        assert_eq!(stats.retransmit_timeouts, 1);
        assert_eq!(r.next_deadline(), Some(Nanos(1000 + 2000)), "rto doubled");
        r.on_timeout_handled(1, Nanos(3000), &mut stats);
        assert_eq!(r.next_deadline(), Some(Nanos(3000 + 4000)));
        // Backoff caps at max_backoff_exp.
        for _ in 0..10 {
            r.on_timeout_handled(1, Nanos(0), &mut stats);
        }
        assert_eq!(r.next_deadline(), Some(Nanos(1000 << 3)));
        // Progress resets the backoff.
        r.on_data_sent(1, &data_pkt(1, 1), Nanos(0));
        r.on_ack(1, 1, Nanos(50_000));
        assert_eq!(r.next_deadline(), Some(Nanos(51_000)), "plain rto again");
    }

    fn adaptive_state() -> ReliableState {
        ReliableState::new(
            2,
            RetransmitConfig {
                window: 8,
                rto_ns: 100_000,
                max_backoff_exp: 3,
                adaptive: true,
                rto_min_ns: 2_000,
                rto_max_ns: 400_000,
            },
        )
    }

    #[test]
    fn adaptive_rto_tracks_rtt_samples() {
        let mut r = adaptive_state();
        // No sample yet: the configured initial RTO applies.
        assert_eq!(r.current_rto_ns(1), 100_000);
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        assert_eq!(r.next_deadline(), Some(Nanos(100_000)));
        // Acked 10 µs later: srtt = 10 000, rttvar = 5 000 →
        // rto = 10 000 + 4·5 000 = 30 000.
        r.on_ack(1, 1, Nanos(10_000));
        assert_eq!(r.srtt_ns(1), Some(10_000));
        assert_eq!(r.current_rto_ns(1), 30_000);
        assert_eq!(r.take_rtt_sample(1), Some(10_000));
        assert_eq!(r.take_rtt_sample(1), None, "sample consumed");
        // The next send arms the estimated RTO, not the constant.
        r.on_data_sent(1, &data_pkt(1, 1), Nanos(20_000));
        assert_eq!(r.next_deadline(), Some(Nanos(50_000)));
        // A second, identical sample tightens the variance: srtt stays
        // 10 000, rttvar → 3 750, rto → 25 000.
        r.on_ack(1, 2, Nanos(30_000));
        assert_eq!(r.current_rto_ns(1), 25_000);
    }

    #[test]
    fn adaptive_rto_clamps_to_configured_bounds() {
        let mut r = adaptive_state();
        // A ~0 RTT sample clamps to the floor rather than melting down
        // into a timeout-per-poll storm.
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        r.on_ack(1, 1, Nanos(1));
        assert_eq!(r.current_rto_ns(1), 2_000);
        // An enormous sample clamps to the ceiling.
        r.on_data_sent(1, &data_pkt(1, 1), Nanos(10));
        r.on_ack(1, 2, Nanos(900_000_000));
        assert_eq!(r.current_rto_ns(1), 400_000);
    }

    #[test]
    fn karn_rule_discards_samples_after_retransmission() {
        let mut r = adaptive_state();
        let mut stats = FmStats::default();
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        // Timer fires; the ring is resent — the eventual ack for seq 0
        // is now ambiguous and must not feed the estimator.
        r.on_timeout_handled(1, Nanos(100_000), &mut stats);
        r.on_ack(1, 1, Nanos(150_000));
        assert_eq!(r.srtt_ns(1), None, "ambiguous ack not sampled");
        assert_eq!(r.take_rtt_sample(1), None);
        // The next never-retransmitted packet is sampled again.
        r.on_data_sent(1, &data_pkt(1, 1), Nanos(200_000));
        r.on_ack(1, 2, Nanos(203_000));
        assert_eq!(r.srtt_ns(1), Some(3_000));
    }

    #[test]
    fn aimd_window_halves_on_loss_and_regrows_on_acks() {
        let mut r = adaptive_state();
        let mut stats = FmStats::default();
        assert_eq!(r.cwnd_packets(1), 8, "starts fully open");
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        r.on_timeout_handled(1, Nanos(100_000), &mut stats);
        assert_eq!(r.cwnd_packets(1), 4, "halved on timeout");
        r.on_timeout_handled(1, Nanos(900_000), &mut stats);
        r.on_timeout_handled(1, Nanos(2_000_000), &mut stats);
        r.on_timeout_handled(1, Nanos(4_000_000), &mut stats);
        assert_eq!(r.cwnd_packets(1), 1, "never below one packet");
        assert_eq!(r.send_budget(1), 0, "one outstanding fills cwnd 1");
        // Acks regrow the window additively toward the configured cap.
        let mut seq = 1u32;
        let mut t = 5_000_000u64;
        while r.cwnd_packets(1) < 8 {
            let budget = r.send_budget(1);
            for _ in 0..budget {
                r.on_data_sent(1, &data_pkt(1, seq), Nanos(t));
                seq += 1;
            }
            t += 1_000;
            r.on_ack(1, seq, Nanos(t));
            assert!(seq < 10_000, "cwnd failed to regrow");
        }
        assert_eq!(r.cwnd_packets(1), 8, "capped at the configured window");
    }

    #[test]
    fn fast_retransmit_is_a_loss_signal_in_adaptive_mode() {
        let mut r = adaptive_state();
        for seq in 0..4 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        r.on_ack(1, 1, Nanos(10));
        for t in [20, 30] {
            assert!(!r.on_ack(1, 1, Nanos(t)));
        }
        assert!(r.on_ack(1, 1, Nanos(40)), "third duplicate fires");
        assert_eq!(r.cwnd_packets(1), 4, "halved from 8 on fast retransmit");
    }

    #[test]
    fn reset_peer_restarts_both_sequence_spaces() {
        let mut r = state();
        let mut stats = FmStats::default();
        for seq in 0..3 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        r.on_ack(1, 2, Nanos(10));
        r.accept(1, 0, &mut stats);
        r.accept(1, 1, &mut stats);
        r.reset_peer(1);
        assert_eq!(r.unacked_packets(), 0, "ring dropped");
        assert_eq!(r.next_deadline(), None, "timer disarmed");
        assert_eq!(r.send_budget(1), 4, "window fully open");
        // Both spaces restart at zero: seq 0 is the next expected packet
        // and the first send is unacked from zero again.
        assert_eq!(r.accept(1, 0, &mut stats), RecvDecision::Accept);
        assert_eq!(r.piggyback_ack(1), 1);
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(20));
        r.on_ack(1, 1, Nanos(30));
        assert_eq!(r.unacked_packets(), 0);
    }

    #[test]
    fn abandon_peer_stops_retransmits_but_keeps_sequences() {
        let mut r = state();
        let mut stats = FmStats::default();
        for seq in 0..2 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        r.accept(1, 0, &mut stats);
        r.abandon_peer(1);
        assert_eq!(r.unacked_packets(), 0);
        assert_eq!(r.next_deadline(), None);
        assert!(r.due_retransmits(Nanos(u64::MAX / 2)).is_empty());
        // Sequence spaces survive: the receive side still expects seq 1,
        // and the send side still considers seqs 0..2 used.
        assert_eq!(r.accept(1, 1, &mut stats), RecvDecision::Accept);
        assert_eq!(r.accept(1, 0, &mut stats), RecvDecision::Duplicate);
    }
}
