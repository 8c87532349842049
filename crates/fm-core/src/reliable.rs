//! The opt-in reliability sublayer: a sliding window with selective
//! repeat.
//!
//! The paper's FM deliberately does **not** retransmit — Myrinet's
//! bit-error rate is near zero and the hardware CRC catches what little
//! there is (§3.1), so FM's reliability guarantee *trusts the substrate*
//! and spends zero cycles on recovery. That is
//! [`Reliability::TrustSubstrate`], the default, and it is bit-identical
//! to the engines' historical behaviour.
//!
//! [`Reliability::Retransmit`] makes the same in-order-delivery guarantee
//! hold on lossy substrates, at the price of one packet per lost packet.
//! One protocol and one profile, shared by both engines
//! ([`crate::Fm1Engine`] and [`crate::Fm2Engine`]). Like the paper's
//! credit window, its one knob is how much may be in flight
//! ([`RetransmitConfig::window`]); the timers set themselves from the
//! measured round trip:
//!
//! * **Receiver**, per source: the next expected `pkt_seq` is delivered;
//!   anything older is a duplicate (dropped, but forces an ack so a
//!   sender stuck retransmitting learns quickly); anything newer that
//!   falls inside the window is **held** — the refcounted packet as it
//!   arrived, in a table of `window` slots built at construction, so
//!   holding neither copies nor allocates. When the expected packet
//!   arrives, the run held behind it is released in order before the
//!   device is asked for more: the faces above still see every packet
//!   exactly once and in order. A sender never has more than `window`
//!   packets unacknowledged, so nothing legitimate falls outside the
//!   table and it can never hold more than `window - 1` frames per peer.
//! * **Acks** are cumulative (`ack` = next expected seq, i.e. everything
//!   below is delivered) and piggybacked on every outgoing packet; when
//!   traffic is one-sided, standalone [`crate::FmPacket::ack_only`]
//!   packets carry them. While anything is held, the standalone ack also
//!   carries a **SACK bitmap** ([`crate::FmPacket::ack_sack`]): bit `i`
//!   says the receiver holds `ack + i`. The bitmap is the receiver's
//!   *state*, not an event: a later ack repeats everything an earlier one
//!   said, so one ack per poll is enough, a lost ack costs nothing the
//!   next does not repair, and nobody counts duplicates.
//! * **Ack cadence.** The cumulative ack is the sender's credit, and the
//!   paper returns credits lazily *so that* a sender never sees an empty
//!   window while its receiver keeps up. Two moments let a standalone ack
//!   go: the end of every poll that accepted, held or dropped something
//!   (burst tails, SACK state, duplicates), and — inside the poll, while
//!   a burst is still being consumed — every `window / 2` packets
//!   accepted since the last ack of either kind left
//!   (`ReliableState::ack_overdue`). Without the second, a receiver
//!   that drains a whole window in one poll acknowledges it once, after
//!   the last packet, and the sender sits behind a closed window for the
//!   whole drain: the two ends run in lock step and neither overlaps the
//!   other. With it the first half of a window is acknowledged while the
//!   second half is consumed, so the sender refills one half as the
//!   receiver drains the other. Half is derived, not configured: a
//!   quarter sends twice the ack frames for no more overlap (each costs a
//!   system call on a socket), a whole window is the lock step again.
//!   At the default window (64) that is an ack per 32 packets, what a
//!   window of 32 acknowledged once per drain sent: the same number of
//!   acks, leaving earlier.
//! * **Sender**, per destination: a ring of unacknowledged data-packet
//!   clones, bounded by a window (which *replaces* credit-based flow
//!   control — credits are not idempotent under duplication, while
//!   acks are; the window bounds receive-buffer usage exactly as credits
//!   did). A SACK marks ring entries delivered; every unmarked entry
//!   below the highest marked one is a hole and is re-sent at once, and
//!   at most once per round trip: it becomes eligible again only when the
//!   receiver reports a packet first sent *after* the re-send, which
//!   proves the re-send was lost too. The retransmit timer, with
//!   exponential backoff, re-sends the **oldest unacknowledged packet
//!   only** and forgets the marks (the next ack's bitmap restores them) —
//!   one timeout is one packet on the wire, whatever the window holds, so
//!   a periodic loss pattern has no fixed-size burst to phase-lock with.
//! * **Timer.** The RTO is estimated from RTT samples (`srtt + 4·rttvar`,
//!   the RFC 6298 shape, Karn-sampled so a re-sent packet's ambiguous ack
//!   never feeds the estimate) and clamped to 50 µs ..= 1 s; before the
//!   first sample it is 200 µs. Each consecutive expiry doubles it, six
//!   times at most.
//! * **Window policy.** The packets in flight per peer are bounded by an
//!   AIMD window: it grows by one packet per window of acks, up to
//!   `window`. A lost packet is repaired, not punished: a SACK hole is
//!   re-sent without touching the AIMD window, because the acks that
//!   exposed it prove the ack clock is running and the repair costs
//!   exactly the packet that was lost. Only the retransmit timer halves
//!   the window (floor one packet), once per expiry — silence for a whole
//!   RTO is the one sign the peer has stopped keeping up, and the
//!   exponential backoff already spaces expiries apart.
//!
//! The header's `ack` field rides inside the fixed
//! [`crate::HEADER_WIRE_BYTES`] framing and the bitmap rides in the two
//! header words an ack-only frame leaves zero, so enabling the sublayer
//! does not change wire timing — only the extra packets (retransmissions,
//! acks) do — and when nothing is lost the frames on the wire are the ones
//! a cumulative-ack-only protocol would send.

use std::collections::VecDeque;

use fm_model::Nanos;

use crate::packet::FmPacket;
use crate::stats::FmStats;

/// Sequence numbers one SACK bitmap covers, counted from the cumulative
/// ack. Held packets further ahead (only possible with a window above
/// this) are kept but not reported; the timer repairs what precedes them.
pub const SACK_BITS: u32 = 64;

/// The retransmit timeout before the first RTT sample (of
/// `NetDevice::now()` time — virtual in the simulator, wall-clock on real
/// transports): a few round trips on the modeled fabric.
const INITIAL_RTO_NS: u64 = 200_000;

/// Floor of the RTO estimate: several loopback round trips. An RTO far
/// below the round trip turns every poll into a timeout and drowns the
/// wire in duplicates of the head packet.
const RTO_MIN_NS: u64 = 50_000;

/// Ceiling of the RTO estimate: a peer slower than this is Suspect anyway.
const RTO_MAX_NS: u64 = 1_000_000_000;

/// Cap on exponential backoff: the armed timeout is
/// `rto << min(consecutive_timeouts, MAX_BACKOFF_EXP)`.
const MAX_BACKOFF_EXP: u32 = 6;

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
    /// Selective-repeat retransmission: delivery survives packet drop,
    /// duplication, and reordering at the cost of ack traffic,
    /// sender-side buffering and a bounded receive-side hold table.
    Retransmit(RetransmitConfig),
}

/// The one knob of [`Reliability::Retransmit`]: how much may be in
/// flight. The timers adapt to the measured network (module docs,
/// "Timer").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetransmitConfig {
    /// Max unacknowledged data packets per destination (the sliding
    /// window; also the sender-side buffering bound and the size of the
    /// receiver's hold table). Plays the role the credit window plays in
    /// TrustSubstrate mode, and defaults to the `credits_per_peer` of the
    /// FM 2.x profile it stands in for: 64, which is also two `fm-udp`
    /// datagram trains, so one train is in flight while the next is
    /// gathered (a window of exactly one train makes sender and receiver
    /// take turns), and exactly what one SACK bitmap covers.
    ///
    /// A receiver acknowledges every `window / 2` packets it accepts
    /// without waiting for its poll to end (see the module docs, "Ack
    /// cadence"), so a sender whose receiver keeps up always has half a
    /// window open. The window is also how deep a saturating sender
    /// queues: many ranks offering load as fast as it admits wait in
    /// proportion to it (32 → 64 roughly doubled the four-rank workload
    /// batteries' tail latency; ROADMAP item 1(i)).
    pub window: u32,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig { window: 64 }
    }
}

impl RetransmitConfig {
    /// The same value as [`RetransmitConfig::default`], kept under the
    /// name it had when a fixed-timer profile was the default: callers
    /// outside the workspace still use it.
    pub fn adaptive() -> Self {
        RetransmitConfig::default()
    }
}

/// What the receive filter decided about an incoming data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvDecision {
    /// The next expected packet: deliver it.
    Accept,
    /// Ahead of the next expected packet and inside the window: kept
    /// until the packets before it arrive, then released in order.
    Held,
    /// Nothing to keep: already delivered, already held, or beyond the
    /// window. Dropped and counted; forces an ack.
    Duplicate,
}

/// One retained data packet in a send ring.
#[derive(Debug)]
struct Unacked {
    /// The clone to re-send (a header copy and a payload refcount).
    pkt: FmPacket,
    /// A SACK said the receiver holds it: never re-sent, but still
    /// unacknowledged until the cumulative ack passes it.
    sacked: bool,
    /// Set when re-sent: the next fresh sequence number at that moment.
    /// A SACK hole is re-sent again only once the receiver reports a
    /// packet at or past this — something sent after the re-send arrived,
    /// so the re-send itself was lost.
    resent_before: Option<u32>,
}

impl Unacked {
    /// The clone to put on the wire again, its piggybacked ack refreshed
    /// to `ack` (the stored copy's may be stale): a 24-byte header copy
    /// and a payload refcount bump, no payload bytes move. `next_seq` is
    /// the sender's next fresh sequence number now.
    fn resend(&mut self, next_seq: u32, ack: u32) -> FmPacket {
        self.resent_before = Some(next_seq);
        let mut pkt = self.pkt.clone();
        pkt.header.ack = ack;
        pkt
    }
}

#[derive(Debug, Default)]
struct PeerSend {
    /// Unacked data packets in seq order (clones for retransmission).
    ring: VecDeque<Unacked>,
    /// Ring entries marked [`Unacked::sacked`].
    sacked: u32,
    /// Everything with `pkt_seq <` this is acknowledged.
    cum_acked: u32,
    /// One past the highest `pkt_seq` sent.
    next_seq: u32,
    /// When the retransmit timer fires (armed while the ring is
    /// non-empty).
    deadline: Option<Nanos>,
    /// Consecutive timeouts without ack progress (backoff exponent).
    timeouts: u32,
    /// Smoothed RTT estimate (`None` until the first sample).
    srtt_ns: Option<u64>,
    /// RTT variance estimate.
    rttvar_ns: u64,
    /// The one in-flight packet currently timed for an RTT sample:
    /// `(pkt_seq, sent_at)`. Karn's rule: cleared on any retransmission
    /// toward this peer, so a resent packet's ambiguous ack never feeds
    /// the estimator.
    probe: Option<(u32, Nanos)>,
    /// AIMD effective window in packets (meaningful range
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

    /// The base (pre-backoff) retransmit timeout toward this peer: the
    /// RTT-derived estimate once a sample exists, the initial RTO before.
    fn rto(&self) -> u64 {
        self.srtt_ns.map_or(INITIAL_RTO_NS, |srtt| {
            (srtt + 4 * self.rttvar_ns).clamp(RTO_MIN_NS, RTO_MAX_NS)
        })
    }

    /// A re-send toward this peer is going out: its ack is ambiguous
    /// (Karn's rule) and the timer gives it `rto` to land.
    fn on_resend(&mut self, now: Nanos, rto: u64) {
        self.probe = None;
        self.deadline = Some(now + Nanos(rto));
    }
}

#[derive(Debug)]
struct PeerRecv {
    /// Next expected `pkt_seq` from this peer — also the cumulative ack
    /// we owe them.
    expected: u32,
    /// `expected` as the last ack let go — standalone or piggybacked —
    /// reported it: what the peer may already know.
    acked: u32,
    /// An ack is owed that no outgoing packet has carried yet: a data
    /// packet was accepted or held since the last one, or a duplicate
    /// asked for a repeat (the peer is, or soon will be, retransmitting).
    ack_due: bool,
    /// Packets that arrived ahead of `expected`, at `pkt_seq % window`.
    held: Box<[Option<FmPacket>]>,
    /// Occupied `held` slots: zero on the loss-free path, which then
    /// never touches the table.
    holding: u32,
    /// Bit `i`: `expected + i` is held (the SACK bitmap as it goes on the
    /// wire). Bit 0 is set only while a held run is being released.
    sack: u64,
}

impl PeerRecv {
    fn fresh(cfg: &RetransmitConfig) -> PeerRecv {
        PeerRecv {
            expected: 0,
            acked: 0,
            ack_due: false,
            held: (0..cfg.window).map(|_| None).collect(),
            holding: 0,
            sack: 0,
        }
    }

    fn slot(&self, pkt_seq: u32) -> usize {
        pkt_seq as usize % self.held.len()
    }

    /// Let go of every held frame (the peer is gone or starting over).
    fn drop_held(&mut self) {
        self.held.fill(None);
        self.holding = 0;
        self.sack = 0;
    }
}

/// Per-engine state of the retransmission protocol. Owned by an engine;
/// `None` in TrustSubstrate mode.
#[derive(Debug)]
pub(crate) struct ReliableState {
    cfg: RetransmitConfig,
    send: Vec<PeerSend>,
    recv: Vec<PeerRecv>,
    /// The source whose expected packet was last accepted with the next
    /// one already held: [`ReliableState::take_released`] drains that run
    /// before the device is asked again, so at most one peer has a run
    /// pending.
    releasing: Option<usize>,
}

impl ReliableState {
    pub(crate) fn new(num_nodes: usize, cfg: RetransmitConfig) -> Self {
        assert!(cfg.window >= 1, "a zero window can never send");
        ReliableState {
            cfg,
            send: (0..num_nodes).map(|_| PeerSend::fresh(&cfg)).collect(),
            recv: (0..num_nodes).map(|_| PeerRecv::fresh(&cfg)).collect(),
            releasing: None,
        }
    }

    pub(crate) fn num_peers(&self) -> usize {
        self.send.len()
    }

    /// Data packets that can still go to `dst` before the window closes:
    /// the ring may not outgrow the configured window (the peer's hold
    /// table is that big), and the packets in flight — the ring less what
    /// the peer says it holds — may not outgrow the AIMD window.
    pub(crate) fn send_budget(&self, dst: usize) -> u32 {
        let ps = &self.send[dst];
        let ring = ps.ring.len() as u32;
        let room = self.cfg.window.saturating_sub(ring);
        room.min(self.effective_window(ps).saturating_sub(ring - ps.sacked))
    }

    fn effective_window(&self, ps: &PeerSend) -> u32 {
        (ps.cwnd as u32).clamp(1, self.cfg.window)
    }

    /// Can `extra` more data packets to `dst` fit in the window right now?
    pub(crate) fn can_send(&self, dst: usize, extra: u32) -> bool {
        extra <= self.send_budget(dst)
    }

    /// The cumulative ack to piggyback on a packet headed to `dst`. That
    /// discharges the ack duty to that peer — unless packets from it are
    /// held, which only a standalone ack's bitmap can say.
    pub(crate) fn piggyback_ack(&mut self, dst: usize) -> u32 {
        let pr = &mut self.recv[dst];
        if pr.sack == 0 {
            pr.ack_due = false;
        }
        pr.acked = pr.expected;
        pr.expected
    }

    /// Record a data packet handed to the device: retain it in the
    /// retransmit ring and arm the timer if idle. The clone is a header
    /// copy plus a payload refcount bump — the ring shares the packet's
    /// pooled frame, it does not deep-copy it.
    pub(crate) fn on_data_sent(&mut self, dst: usize, pkt: &FmPacket, now: Nanos) {
        let ps = &mut self.send[dst];
        if ps.probe.is_none() {
            ps.probe = Some((pkt.header.pkt_seq, now));
        }
        ps.next_seq = pkt.header.pkt_seq.wrapping_add(1);
        ps.ring.push_back(Unacked {
            pkt: pkt.clone(),
            sacked: false,
            resent_before: None,
        });
        if ps.deadline.is_none() {
            ps.deadline = Some(now + Nanos(ps.rto()));
        }
    }

    /// Process an ack from `src`: it has delivered everything with
    /// `pkt_seq < ack` that we sent it, and holds `ack + i` for every set
    /// bit `i` of `sack` (zero on piggybacked acks and whenever it holds
    /// nothing).
    ///
    /// Returns `true` when the peer is holding packets behind a gap, so
    /// the caller should re-send what [`ReliableState::next_hole`] yields
    /// now instead of waiting for the timer.
    pub(crate) fn on_ack(&mut self, src: usize, ack: u32, sack: u64, now: Nanos) -> bool {
        let window = self.cfg.window;
        let ps = &mut self.send[src];
        if seq_lt(ack, ps.cum_acked) {
            return false; // ancient ack, reordered in transit
        }
        if ack != ps.cum_acked {
            ps.cum_acked = ack;
            let mut popped = 0u32;
            while ps
                .ring
                .front()
                .is_some_and(|u| seq_lt(u.pkt.header.pkt_seq, ack))
            {
                let u = ps.ring.pop_front().expect("front was checked");
                ps.sacked -= u.sacked as u32;
                popped += 1;
            }
            // RTT sample: the timed probe is acknowledged and was never
            // retransmitted (any re-send toward this peer would have
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
            // Ack progress: reset backoff and restart the timer for
            // whatever is still outstanding (under the *new* RTT
            // estimate).
            ps.timeouts = 0;
            ps.deadline = if ps.ring.is_empty() {
                None
            } else {
                Some(now + Nanos(ps.rto()))
            };
        }
        // The bitmap is relative to `ack`, which is now `cum_acked`. An
        // older bitmap for the same `ack` is a subset of a newer one, and
        // an ack only ever adds marks, so ack reordering cannot unmark.
        let Some(front) = ps.ring.front().map(|u| u.pkt.header.pkt_seq) else {
            return false;
        };
        let mut bits = sack;
        while bits != 0 {
            let seq = ack.wrapping_add(bits.trailing_zeros());
            bits &= bits - 1;
            // A bit below the ring's front (or past its back) names
            // nothing retained: the index wraps out of range.
            if let Some(u) = ps.ring.get_mut(seq.wrapping_sub(front) as usize) {
                if !u.sacked {
                    u.sacked = true;
                    ps.sacked += 1;
                }
            }
        }
        ps.sacked > 0
    }

    /// The next hole toward `dst` to re-send: the oldest ring entry below
    /// the highest SACKed one that the peer does not hold and that has
    /// not been re-sent since (see [`Unacked::resent_before`]), as a clone
    /// with its piggybacked ack refreshed. Marks it re-sent; `None` when
    /// every hole has its re-send in flight.
    /// The AIMD window is left alone (module docs, "Window policy").
    pub(crate) fn next_hole(&mut self, dst: usize, now: Nanos) -> Option<FmPacket> {
        let ack = self.recv[dst].expected;
        let ps = &mut self.send[dst];
        let rto = ps.rto();
        let high = ps.ring.iter().rposition(|u| u.sacked)?;
        let high_seq = ps.ring[high].pkt.header.pkt_seq;
        let hole =
            ps.ring.iter_mut().take(high).find(|u| {
                !u.sacked && u.resent_before.is_none_or(|sent| !seq_lt(high_seq, sent))
            })?;
        let pkt = hole.resend(ps.next_seq, ack);
        // Push the timer back: the re-send is in flight, give it a chance
        // before the timeout fires on the same packet.
        ps.on_resend(now, rto << ps.timeouts);
        Some(pkt)
    }

    /// Run an incoming data packet from `src` through the in-order
    /// filter, keeping a clone (header copy, payload refcount) if it has
    /// to wait for the packets before it.
    pub(crate) fn accept(
        &mut self,
        src: usize,
        pkt: &FmPacket,
        stats: &mut FmStats,
    ) -> RecvDecision {
        let pr = &mut self.recv[src];
        let pkt_seq = pkt.header.pkt_seq;
        // Every arrival owes an ack: progress to report, a bitmap that
        // changed, or a peer that is retransmitting and needs telling.
        pr.ack_due = true;
        if pkt_seq == pr.expected {
            pr.expected = pr.expected.wrapping_add(1);
            pr.sack >>= 1;
            if pr.holding > 0 && pr.held[pr.slot(pr.expected)].is_some() {
                self.releasing = Some(src);
            }
            return RecvDecision::Accept;
        }
        let ahead = pkt_seq.wrapping_sub(pr.expected);
        let slot = pr.slot(pkt_seq);
        // Inside the window a slot names one sequence number, so an
        // occupied slot is this very packet, already held.
        if seq_lt(pkt_seq, pr.expected)
            || ahead as usize >= pr.held.len()
            || pr.held[slot].is_some()
        {
            stats.duplicates_dropped += 1;
            return RecvDecision::Duplicate;
        }
        pr.held[slot] = Some(pkt.clone());
        pr.holding += 1;
        if ahead < SACK_BITS {
            pr.sack |= 1 << ahead;
        }
        RecvDecision::Held
    }

    /// The held packet that has become the next expected one, if any:
    /// hand it to [`ReliableState::accept`] like a fresh arrival (it *is*
    /// the expected packet, so it is accepted and the run continues).
    #[inline]
    pub(crate) fn take_released(&mut self) -> Option<FmPacket> {
        let pr = &mut self.recv[self.releasing?];
        let pkt = pr.held[pr.slot(pr.expected)].take();
        debug_assert!(pkt.as_ref().is_none_or(|p| p.header.pkt_seq == pr.expected));
        match pkt {
            Some(_) => pr.holding -= 1,
            None => self.releasing = None,
        }
        pkt
    }

    /// Whether a standalone ack is owed to `peer`: ask before the device
    /// is asked for room, so a full queue leaves the duty standing for
    /// the next poll.
    pub(crate) fn ack_due(&self, peer: usize) -> bool {
        self.recv[peer].ack_due
    }

    /// Whether the ack owed to `peer` should leave now, mid-poll: half a
    /// window of packets has been accepted since the last ack it was let
    /// go, so the peer is about to run — or is running — into a window
    /// this side has long since emptied. (A window of one acknowledges
    /// every packet.)
    pub(crate) fn ack_overdue(&self, peer: usize) -> bool {
        let pr = &self.recv[peer];
        pr.expected.wrapping_sub(pr.acked) >= (self.cfg.window / 2).max(1)
    }

    /// The standalone ack owed to `peer` (no outgoing packet piggybacked
    /// it first), as `(ack, sack)`; discharges the duty.
    pub(crate) fn take_due_ack(&mut self, peer: usize) -> Option<(u32, u64)> {
        let pr = &mut self.recv[peer];
        if !std::mem::take(&mut pr.ack_due) {
            return None;
        }
        pr.acked = pr.expected;
        Some((pr.expected, pr.sack))
    }

    /// Whether `peer`'s retransmit timer has expired at `now`; the caller
    /// then re-sends what [`ReliableState::on_timeout`] yields.
    pub(crate) fn timed_out(&self, peer: usize, now: Nanos) -> bool {
        self.send[peer].deadline.is_some_and(|d| d <= now)
    }

    /// Handle an expired timer toward `dst`: back off exponentially,
    /// re-arm, halve the AIMD window (floor one packet; module docs,
    /// "Window policy"), and yield the oldest unacknowledged packet — that
    /// one only — to re-send.
    ///
    /// A timeout also forgets every SACK mark: silence may mean the peer
    /// let go of what it reported (it keeps nothing for a peer it
    /// declared down), and a mark that outlived the packet would never be
    /// repaired. The bitmap is state, so the next ack restores whatever
    /// still stands.
    pub(crate) fn on_timeout(
        &mut self,
        dst: usize,
        now: Nanos,
        stats: &mut FmStats,
    ) -> Option<FmPacket> {
        let ack = self.recv[dst].expected;
        let ps = &mut self.send[dst];
        stats.retransmit_timeouts += 1;
        ps.timeouts = (ps.timeouts + 1).min(MAX_BACKOFF_EXP);
        ps.on_resend(now, ps.rto() << ps.timeouts);
        ps.cwnd = (ps.cwnd / 2.0).max(1.0);
        for u in &mut ps.ring {
            u.sacked = false;
        }
        ps.sacked = 0;
        let next_seq = ps.next_seq;
        Some(ps.ring.front_mut()?.resend(next_seq, ack))
    }

    /// The earliest armed retransmit deadline across all peers, for
    /// [`crate::device::NetDevice::request_wake`].
    pub(crate) fn next_deadline(&self) -> Option<Nanos> {
        self.send.iter().filter_map(|ps| ps.deadline).min()
    }

    /// Total unacknowledged data packets across all peers — SACKed ones
    /// included: only the cumulative ack confirms delivery. Zero means
    /// every send has been confirmed delivered.
    pub(crate) fn unacked_packets(&self) -> usize {
        self.send.iter().map(|ps| ps.ring.len()).sum()
    }

    /// Forget everything about `peer` — both sequence spaces restart at
    /// zero, the retransmit ring and every held frame are dropped, and
    /// the RTT/window estimators return to their initial state. Called
    /// when the peer restarts with a new incarnation epoch
    /// ([`crate::device::PeerEventKind::Rejoining`]): its old in-flight
    /// state would otherwise poison the new incarnation's sequence
    /// numbers.
    pub(crate) fn reset_peer(&mut self, peer: usize) {
        self.send[peer] = PeerSend::fresh(&self.cfg);
        let pr = &mut self.recv[peer];
        pr.drop_held();
        pr.expected = 0;
        pr.acked = 0;
        pr.ack_due = false;
    }

    /// Stop retransmitting toward `peer` (declared down): drop the ring
    /// and every frame held from it and disarm the timer, but keep both
    /// sequence spaces — if the same incarnation comes back
    /// (`Suspect`→`Up` without a restart), the protocol state is still
    /// coherent and the window resumes from the cumulative ack.
    pub(crate) fn abandon_peer(&mut self, peer: usize) {
        let ps = &mut self.send[peer];
        ps.ring.clear();
        ps.sacked = 0;
        ps.deadline = None;
        ps.timeouts = 0;
        ps.probe = None;
        self.recv[peer].drop_held();
    }

    /// The current base RTO toward `peer` (the estimate once a sample
    /// exists; the initial RTO before).
    pub(crate) fn current_rto_ns(&self, peer: usize) -> u64 {
        self.send[peer].rto()
    }

    /// The effective AIMD window toward `peer`, in packets.
    pub(crate) fn cwnd_packets(&self, peer: usize) -> u32 {
        self.effective_window(&self.send[peer])
    }

    /// Take the RTT sample recorded by the most recent ack from `peer`,
    /// if one was taken (observability hook; consuming it keeps the
    /// engine from double-reporting).
    pub(crate) fn take_rtt_sample(&mut self, peer: usize) -> Option<u64> {
        self.send[peer].last_sample_ns.take()
    }

    /// The smoothed RTT estimate toward `peer` (`None` before the first
    /// sample).
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
            ps.next_seq = start;
        }
        for pr in &mut st.recv {
            pr.expected = start;
            pr.acked = start;
        }
        st
    }

    /// Test-only: frames held from all peers.
    #[cfg(test)]
    pub(crate) fn held_packets(&self) -> usize {
        self.recv
            .iter()
            .map(|pr| {
                let held = pr.held.iter().flatten().count();
                assert_eq!(held, pr.holding as usize);
                held
            })
            .sum()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod prop_tests {
    //! Property battery for the window arithmetic: model-based random
    //! interleavings of send / deliver / drop / duplicate / reorder /
    //! ack / timeout events, cross-checked against a reference model —
    //! including across `u32` sequence wraparound. Deterministic
    //! ([`DetRng`], seed printed in every assertion); case count follows
    //! the `PROPTEST_CASES` environment variable (CI raises it to 1024).

    use std::collections::BTreeSet;

    use super::*;
    use crate::buf::BufPool;
    use crate::packet::{HandlerId, PacketFlags, PacketHeader};
    use fm_model::rng::{env_cases, DetRng};

    const WINDOW: u32 = 8;

    /// Frames of the pool every data payload comes from: a frame that has
    /// not come back is pinned by a ring, a hold table or the wire.
    const POOL_FRAMES: usize = 64;

    /// One sender (node 0) streaming to one receiver (node 1) over a
    /// hostile channel the test controls packet by packet, with a
    /// reference model (`next_seq` / `model_expected` / `model_held` /
    /// `last_ack`) checked at every event.
    struct World {
        window: u32,
        s: ReliableState,
        r: ReliableState,
        stats: FmStats,
        pool: BufPool,
        wire: Vec<FmPacket>,
        acks: Vec<(u32, u64)>,
        now: Nanos,
        next_seq: u32,
        model_expected: u32,
        /// Sequence numbers the receiver must be holding: arrived ahead
        /// of `model_expected`, inside the window, not yet released.
        model_held: BTreeSet<u32>,
        last_ack: u32,
        case: usize,
    }

    impl World {
        fn new(start: u32, case: usize) -> World {
            World::with_window(WINDOW, start, case)
        }

        fn with_window(window: u32, start: u32, case: usize) -> World {
            let c = RetransmitConfig { window };
            World {
                window,
                s: ReliableState::with_start_seq(2, c, start),
                r: ReliableState::with_start_seq(2, c, start),
                stats: FmStats::default(),
                pool: BufPool::new(4, POOL_FRAMES),
                wire: Vec::new(),
                acks: Vec::new(),
                now: Nanos(0),
                next_seq: start,
                model_expected: start,
                model_held: BTreeSet::new(),
                last_ack: start,
                case,
            }
        }

        fn data_pkt(&self, seq: u32) -> FmPacket {
            let mut payload = self.pool.take();
            payload.extend_from_slice(&seq.to_le_bytes());
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
                payload,
            }
        }

        fn try_send(&mut self) {
            if self.s.can_send(1, 1) {
                let pkt = self.data_pkt(self.next_seq);
                self.s.on_data_sent(1, &pkt, self.now);
                self.wire.push(pkt);
                self.next_seq = self.next_seq.wrapping_add(1);
            }
            assert!(
                self.s.unacked_packets() <= self.window as usize,
                "case {}: window exceeded",
                self.case
            );
        }

        /// The filter accepted `seq`: it must be exactly the next one.
        fn model_accept(&mut self, seq: u32) {
            assert_eq!(
                seq, self.model_expected,
                "case {}: accepted out of order",
                self.case
            );
            self.model_expected = self.model_expected.wrapping_add(1);
        }

        /// Deliver the `idx`-th in-flight data packet and check the filter
        /// decision — and everything it releases — against the model.
        fn deliver(&mut self, idx: usize) {
            let pkt = self.wire.remove(idx);
            let seq = pkt.header.pkt_seq;
            let case = self.case;
            let dups_before = self.stats.duplicates_dropped;
            let ahead = seq.wrapping_sub(self.model_expected);
            let decision = self.r.accept(0, &pkt, &mut self.stats);
            match decision {
                RecvDecision::Accept => {
                    self.model_accept(seq);
                    // The run held behind it comes out now, in order,
                    // each packet exactly once.
                    while let Some(p) = self.r.take_released() {
                        let seq = p.header.pkt_seq;
                        assert_eq!(&p.payload[..], seq.to_le_bytes(), "case {case}");
                        assert!(
                            self.model_held.remove(&seq),
                            "case {case}: released seq {seq} was never held"
                        );
                        let again = self.r.accept(0, &p, &mut self.stats);
                        assert_eq!(again, RecvDecision::Accept, "case {case}");
                        self.model_accept(seq);
                    }
                }
                RecvDecision::Held => {
                    assert!(
                        seq_lt(self.model_expected, seq) && ahead < self.window,
                        "case {case}: seq {seq} held at expected {}",
                        self.model_expected
                    );
                    assert!(
                        self.model_held.insert(seq),
                        "case {case}: seq {seq} held twice"
                    );
                }
                RecvDecision::Duplicate => assert!(
                    seq_lt(seq, self.model_expected)
                        || self.model_held.contains(&seq)
                        || ahead >= self.window,
                    "case {case}: fresh seq {seq} dropped at expected {}",
                    self.model_expected
                ),
            }
            // Only what is thrown away counts as a duplicate.
            assert_eq!(
                self.stats.duplicates_dropped - dups_before,
                (decision == RecvDecision::Duplicate) as u64,
                "case {case}: {decision:?}"
            );
            assert!(self.model_held.len() < self.window as usize, "case {case}");
            assert_eq!(self.r.held_packets(), self.model_held.len(), "case {case}");
            assert!(
                !self.model_held.contains(&self.model_expected),
                "case {case}: a releasable packet was left held"
            );
            self.collect_acks();
        }

        /// Move the ack the receiver owes onto the ack channel, checking
        /// cumulative-ack monotonicity (in serial order) and that the
        /// bitmap is exactly the held set.
        fn collect_acks(&mut self) {
            assert!(self.r.take_due_ack(1).is_none());
            let Some((ack, sack)) = self.r.take_due_ack(0) else {
                return;
            };
            assert!(
                !seq_lt(ack, self.last_ack),
                "case {}: cumulative ack went backwards ({} after {})",
                self.case,
                ack,
                self.last_ack
            );
            assert_eq!(ack, self.model_expected, "case {}", self.case);
            for i in 0..SACK_BITS {
                assert_eq!(
                    sack >> i & 1 == 1,
                    self.model_held.contains(&ack.wrapping_add(i)),
                    "case {}: bitmap {sack:#x} bit {i} at ack {ack}",
                    self.case
                );
            }
            self.last_ack = ack;
            self.acks.push((ack, sack));
        }

        fn deliver_ack(&mut self, idx: usize) {
            let (ack, sack) = self.acks.remove(idx);
            let before = self.s.send[1].cum_acked;
            let holes = self.s.on_ack(1, ack, sack, self.now);
            let ps = &self.s.send[1];
            assert!(
                !seq_lt(ps.cum_acked, before),
                "case {}: cum_acked went backwards",
                self.case
            );
            assert_eq!(
                ps.sacked as usize,
                ps.ring.iter().filter(|u| u.sacked).count(),
                "case {}",
                self.case
            );
            if holes {
                while let Some(hole) = self.s.next_hole(1, self.now) {
                    self.resent(hole);
                }
            }
        }

        /// A re-send goes on the wire: it must be a retained packet the
        /// receiver has not been heard to hold.
        fn resent(&mut self, pkt: FmPacket) {
            let seq = pkt.header.pkt_seq;
            let entry = self.s.send[1]
                .ring
                .iter()
                .find(|u| u.pkt.header.pkt_seq == seq);
            assert!(
                entry.is_some_and(|u| !u.sacked),
                "case {}: re-sent seq {seq}, acknowledged or SACKed",
                self.case
            );
            self.wire.push(pkt);
        }

        fn fire_timeouts(&mut self) {
            if self.s.timed_out(1, self.now) {
                let unacked = self.s.unacked_packets();
                if let Some(head) = self.s.on_timeout(1, self.now, &mut self.stats) {
                    self.resent(head);
                }
                assert_eq!(self.s.unacked_packets(), unacked, "case {}", self.case);
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
            assert_eq!(self.s.unacked_packets(), 0, "case {}", self.case);
            assert_eq!(self.r.held_packets(), 0, "case {}", self.case);
            assert_eq!(
                self.pool.free_frames(),
                self.frames_made(),
                "case {}: a frame is still pinned after the drain",
                self.case
            );
        }

        /// Frames the pool has had to make so far (up to what its free
        /// list keeps): all of them are home when nothing pins any.
        fn frames_made(&self) -> usize {
            (self.pool.stats().misses as usize).min(POOL_FRAMES)
        }

        fn rng_index(&self, rng: &mut DetRng) -> usize {
            rng.range_usize(0, self.wire.len())
        }

        /// One step of the hostile channel: mostly send/deliver, some
        /// drops, duplicates, reordering (random delivery index), acks in
        /// any order, and time passing.
        fn random_step(&mut self, rng: &mut DetRng) {
            match rng.below(100) {
                0..=34 => self.try_send(),
                35..=64 => {
                    if !self.wire.is_empty() {
                        let idx = self.rng_index(rng);
                        self.deliver(idx); // random index = reordering
                    }
                }
                65..=74 => {
                    if !self.wire.is_empty() {
                        let idx = self.rng_index(rng);
                        self.wire.remove(idx); // drop
                    }
                }
                75..=84 => {
                    if !self.wire.is_empty() {
                        let idx = self.rng_index(rng);
                        let copy = self.wire[idx].clone();
                        self.wire.push(copy); // duplicate
                    }
                }
                85..=94 => {
                    if !self.acks.is_empty() {
                        let idx = rng.range_usize(0, self.acks.len());
                        self.deliver_ack(idx);
                    }
                }
                _ => {
                    self.now += Nanos(rng.below(2 * INITIAL_RTO_NS));
                    self.fire_timeouts();
                }
            }
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
                w.random_step(&mut rng);
            }
            w.drain();
        }
    }

    #[test]
    fn prop_adaptive_mode_holds_under_arbitrary_interleavings() {
        // The same hostile-channel battery at a window of two, where the
        // AIMD window's floor of one packet is half of it and every
        // accepted packet makes an ack overdue: the estimators change
        // *when* things are resent and how many may be outstanding, never
        // whether delivery and ordering hold.
        for case in 0..env_cases(64) {
            let mut rng = DetRng::seed_from_u64(0xADA_0000_u64 ^ case as u64);
            let mut w = World::with_window(2, start_seq(&mut rng, case), case);
            for _ in 0..rng.range_usize(20, 200) {
                w.random_step(&mut rng);
            }
            w.drain();
        }
    }

    #[test]
    fn prop_departed_peers_pin_no_frames() {
        // A peer that restarts (`reset_peer`) or is declared down
        // (`abandon_peer`) mid-conversation leaves nothing behind on
        // either side: every frame a ring or a hold table shared comes
        // back to the pool once the wire is empty too.
        for case in 0..env_cases(64) {
            let mut rng = DetRng::seed_from_u64(0xDE9_0000_u64 ^ case as u64);
            let mut w = World::new(start_seq(&mut rng, case), case);
            let mut held_something = false;
            for _ in 0..rng.range_usize(20, 200) {
                w.random_step(&mut rng);
                held_something |= w.r.held_packets() > 0;
            }
            if case % 2 == 0 {
                w.s.reset_peer(1);
                w.r.reset_peer(0);
                assert_eq!(w.r.recv[0].expected, 0, "case {case}");
            } else {
                let expected = w.r.recv[0].expected;
                w.s.abandon_peer(1);
                w.r.abandon_peer(0);
                assert_eq!(
                    w.r.recv[0].expected, expected,
                    "case {case}: sequences kept"
                );
            }
            assert_eq!(w.s.unacked_packets(), 0, "case {case}");
            assert_eq!(w.s.next_deadline(), None, "case {case}");
            assert_eq!(w.r.held_packets(), 0, "case {case}");
            assert!(w.r.take_released().is_none(), "case {case}");
            w.wire.clear();
            assert_eq!(
                w.pool.free_frames(),
                w.frames_made(),
                "case {case}: a departed peer still pins frames (held: {held_something})"
            );
        }
    }

    #[test]
    fn prop_a_receiver_that_lets_go_is_repaired_by_the_timer() {
        // The receiver alone gives up on its peer mid-conversation and
        // drops what it held (the sender's view of the membership may lag
        // or differ). Marks for packets that no longer exist must not
        // outlive the next timeout: delivery still completes, exactly
        // once and in order.
        for case in 0..env_cases(64) {
            let mut rng = DetRng::seed_from_u64(0x1E7_0000_u64 ^ case as u64);
            let mut w = World::new(start_seq(&mut rng, case), case);
            for _ in 0..rng.range_usize(20, 200) {
                w.random_step(&mut rng);
                if rng.chance(0.02) {
                    w.r.abandon_peer(0);
                    w.model_held.clear();
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
            assert_eq!(w.stats.duplicates_dropped, 0, "case {case}");
            assert_eq!(w.stats.retransmit_timeouts, 0, "case {case}");
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

    fn state(window: u32) -> ReliableState {
        ReliableState::new(2, RetransmitConfig { window })
    }

    /// Every hole `r` would re-send toward node 1 right now, by sequence
    /// number.
    fn holes(r: &mut ReliableState, now: u64) -> Vec<u32> {
        std::iter::from_fn(|| r.next_hole(1, Nanos(now)))
            .map(|p| p.header.pkt_seq)
            .collect()
    }

    #[test]
    fn window_bounds_outstanding_packets() {
        let mut r = state(4);
        for seq in 0..4 {
            assert!(r.can_send(1, 1));
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        assert!(!r.can_send(1, 1), "window full");
        assert_eq!(r.unacked_packets(), 4);
        r.on_ack(1, 2, 0, Nanos(10));
        assert_eq!(r.unacked_packets(), 2);
        assert!(r.can_send(1, 2));
        assert!(!r.can_send(1, 3));
        // A SACKed packet still fills its slot of the peer's hold table:
        // only the cumulative ack reopens the window.
        r.on_ack(1, 2, 0b10, Nanos(20));
        assert_eq!(r.unacked_packets(), 2, "SACKed is not acknowledged");
        assert!(!r.can_send(1, 3));
    }

    #[test]
    fn cumulative_acks_release_and_rearm() {
        let mut r = state(4);
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        r.on_data_sent(1, &data_pkt(1, 1), Nanos(5));
        assert_eq!(
            r.next_deadline(),
            Some(Nanos(INITIAL_RTO_NS)),
            "armed at first send, before any sample"
        );
        r.on_ack(1, 1, 0, Nanos(500));
        assert_eq!(r.unacked_packets(), 1);
        // The ack timed seq 0 at 500 ns: an estimate far below the floor.
        assert_eq!(
            r.next_deadline(),
            Some(Nanos(500 + RTO_MIN_NS)),
            "restarted on progress, under the estimate"
        );
        r.on_ack(1, 2, 0, Nanos(800));
        assert_eq!(r.unacked_packets(), 0);
        assert_eq!(r.next_deadline(), None, "disarmed when ring empties");
        // Stale ack is ignored.
        r.on_ack(1, 1, 0, Nanos(900));
        assert_eq!(r.unacked_packets(), 0);
    }

    #[test]
    fn receive_filter_accepts_in_order_only() {
        let mut r = state(4);
        let mut stats = FmStats::default();
        let mut accept = |r: &mut ReliableState, seq| r.accept(1, &data_pkt(1, seq), &mut stats);
        assert_eq!(accept(&mut r, 0), RecvDecision::Accept);
        assert!(r.take_released().is_none(), "nothing was waiting");
        // Seq 1 is lost; 2 and 3 arrive and wait for it.
        assert_eq!(accept(&mut r, 3), RecvDecision::Held);
        assert_eq!(accept(&mut r, 2), RecvDecision::Held);
        assert_eq!(accept(&mut r, 2), RecvDecision::Duplicate, "already held");
        assert_eq!(accept(&mut r, 0), RecvDecision::Duplicate, "delivered");
        assert_eq!(
            accept(&mut r, 5),
            RecvDecision::Duplicate,
            "past the window"
        );
        assert_eq!(r.held_packets(), 2);
        assert_eq!(r.take_due_ack(1), Some((1, 0b110)), "holds 1+1 and 1+2");
        assert!(r.take_released().is_none(), "seq 1 is still missing");
        // The repair arrives: the run behind it comes out in order.
        assert_eq!(accept(&mut r, 1), RecvDecision::Accept);
        for seq in [2, 3] {
            let p = r.take_released().expect("held run");
            assert_eq!(p.header.pkt_seq, seq);
            assert_eq!(r.accept(1, &p, &mut stats), RecvDecision::Accept);
        }
        assert!(r.take_released().is_none());
        assert_eq!(r.held_packets(), 0);
        assert_eq!(r.take_due_ack(1), Some((4, 0)), "a plain ack again");
        assert_eq!(stats.duplicates_dropped, 3, "held packets are not drops");
    }

    #[test]
    fn ack_duty_piggyback_and_standalone() {
        let mut r = state(4);
        let mut stats = FmStats::default();
        r.accept(1, &data_pkt(1, 0), &mut stats);
        // Piggybacking discharges the duty...
        assert_eq!(r.piggyback_ack(1), 1);
        assert_eq!(r.take_due_ack(1), None);
        // ...otherwise a standalone ack is due.
        r.accept(1, &data_pkt(1, 1), &mut stats);
        assert_eq!(r.take_due_ack(1), Some((2, 0)));
        assert_eq!(r.take_due_ack(1), None, "duty discharged");
        // A duplicate forces an ack even with nothing newly accepted.
        r.accept(1, &data_pkt(1, 0), &mut stats);
        assert_eq!(r.take_due_ack(1), Some((2, 0)));
        // While something is held a piggybacked ack cannot say so: the
        // standalone ack stays due.
        r.accept(1, &data_pkt(1, 3), &mut stats);
        assert_eq!(r.piggyback_ack(1), 2);
        assert_eq!(r.take_due_ack(1), Some((2, 0b10)));
    }

    /// Accept `n` in-order packets from node 1 starting at `*seq`, the
    /// way `EngineCore::admit` does: the ack leaves mid-burst whenever it
    /// is overdue. Returns the acks that left.
    fn accept_burst(r: &mut ReliableState, seq: &mut u32, n: u32) -> Vec<u32> {
        let mut stats = FmStats::default();
        let mut acks = Vec::new();
        for _ in 0..n {
            let decision = r.accept(1, &data_pkt(1, *seq), &mut stats);
            assert_eq!(decision, RecvDecision::Accept);
            *seq = seq.wrapping_add(1);
            if r.ack_overdue(1) {
                let (ack, sack) = r.take_due_ack(1).expect("an accept owes an ack");
                assert_eq!((ack, sack), (*seq, 0));
                acks.push(ack);
            }
        }
        acks
    }

    #[test]
    fn a_burst_is_acknowledged_every_half_window_and_at_its_tail() {
        let cfg = RetransmitConfig { window: 8 };
        // From zero, and from a start that crosses the u32 wrap mid-burst.
        for start in [0, u32::MAX - 9] {
            let mut r = ReliableState::with_start_seq(2, cfg, start);
            let mut seq = start;
            // No reverse traffic, nothing lost: 21 packets in one poll are
            // acknowledged at every fourth, never in between...
            let acks = accept_burst(&mut r, &mut seq, 21);
            let at = |n: u32| start.wrapping_add(n);
            assert_eq!(acks, [4, 8, 12, 16, 20].map(at), "start {start}");
            // ...and the end of the poll owes the tail, once.
            assert!(!r.ack_overdue(1));
            assert_eq!(r.take_due_ack(1), Some((at(21), 0)));
            assert_eq!(r.take_due_ack(1), None);
            // The tail ack restarted the count: the next one is four on.
            assert_eq!(accept_burst(&mut r, &mut seq, 7), [at(25)]);
            // So does a piggybacked ack: it told the peer the same thing.
            assert_eq!(r.piggyback_ack(1), at(28));
            assert_eq!(accept_burst(&mut r, &mut seq, 3), []);
            assert_eq!(accept_burst(&mut r, &mut seq, 1), [at(32)]);
        }
    }

    #[test]
    fn a_refused_mid_burst_ack_is_deferred_not_lost() {
        let mut r = state(8);
        let mut stats = FmStats::default();
        // The device has no room at the half-window mark: the caller asks
        // (`ack_due`, `ack_overdue`) and takes nothing.
        for seq in 0..4 {
            r.accept(1, &data_pkt(1, seq), &mut stats);
        }
        assert!(r.ack_due(1) && r.ack_overdue(1));
        // Every later packet asks again, and the ack that finally leaves
        // covers everything accepted meanwhile.
        for seq in 4..7 {
            r.accept(1, &data_pkt(1, seq), &mut stats);
            assert!(r.ack_due(1) && r.ack_overdue(1));
        }
        assert_eq!(r.take_due_ack(1), Some((7, 0)));
        assert!(!r.ack_due(1) && !r.ack_overdue(1));
        // A window of one has no half: every packet is acknowledged.
        let mut one = state(1);
        assert!(!one.ack_overdue(1), "nothing accepted yet");
        assert_eq!(accept_burst(&mut one, &mut 0, 3), [1, 2, 3]);
    }

    #[test]
    fn sack_holes_are_resent_once_per_round_trip() {
        let mut r = state(8);
        for seq in 0..6 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        assert!(!r.on_ack(1, 1, 0, Nanos(10)), "a plain ack exposes no hole");
        assert!(holes(&mut r, 10).is_empty());
        // The peer holds 2 and 4: 1 and 3 are holes, 5 is merely late.
        assert!(r.on_ack(1, 1, 0b1010, Nanos(20)));
        assert_eq!(holes(&mut r, 20), vec![1, 3]);
        // The 10 ns sample put the estimate at its floor.
        assert_eq!(
            r.next_deadline(),
            Some(Nanos(20 + RTO_MIN_NS)),
            "the re-sends get an RTO"
        );
        // The same news again, or more of it, re-sends nothing: the
        // repairs are still in flight.
        assert!(r.on_ack(1, 1, 0b11010, Nanos(30)));
        assert!(holes(&mut r, 30).is_empty());
        // Fresh packets go out after the re-sends...
        r.on_data_sent(1, &data_pkt(1, 6), Nanos(40));
        r.on_data_sent(1, &data_pkt(1, 7), Nanos(40));
        // ...the repair of 1 lands, and then one of them is reported
        // while 3 is still missing: the repair of 3 was lost too.
        assert!(r.on_ack(1, 3, 0b110, Nanos(50)));
        assert!(holes(&mut r, 50).is_empty(), "5 arrived, nothing newer did");
        assert!(r.on_ack(1, 3, 0b1110, Nanos(60)));
        assert_eq!(
            holes(&mut r, 60),
            vec![3],
            "6 was sent after the re-send of 3"
        );
        assert_eq!(r.unacked_packets(), 5);
        // SACKed packets are never re-sent, and the cumulative ack
        // sweeps them out.
        r.on_ack(1, 7, 0, Nanos(70));
        assert_eq!(r.unacked_packets(), 1);
        assert!(!r.on_ack(1, 7, 0, Nanos(80)));
    }

    #[test]
    fn timeouts_back_off_exponentially_and_refresh_acks() {
        let mut r = state(4);
        let mut stats = FmStats::default();
        for seq in 0..3 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        // Receive something so the refreshed piggyback ack is non-zero.
        r.accept(1, &data_pkt(1, 0), &mut stats);

        // No ack has come back, so no sample: the initial RTO applies.
        let rto = INITIAL_RTO_NS;
        assert!(!r.timed_out(1, Nanos(rto - 1)));
        assert!(r.timed_out(1, Nanos(rto)));
        assert!(!r.timed_out(0, Nanos(rto)), "nothing outstanding there");
        let head = r.on_timeout(1, Nanos(rto), &mut stats).unwrap();
        assert_eq!(head.header.pkt_seq, 0, "one packet, the oldest");
        assert_eq!(head.header.ack, 1, "stale stored ack refreshed");
        assert_eq!(stats.retransmit_timeouts, 1);
        assert_eq!(r.unacked_packets(), 3, "the rest of the ring stays put");
        assert_eq!(r.next_deadline(), Some(Nanos(rto + 2 * rto)), "rto doubled");
        // Silence voids what the peer reported: the marks go (the next
        // ack's bitmap restores what still stands) and with them their
        // discount on the packets in flight.
        assert!(r.on_ack(1, 0, 0b110, Nanos(2 * rto)));
        assert!(
            holes(&mut r, 2 * rto).is_empty(),
            "the head was just re-sent"
        );
        let head = r.on_timeout(1, Nanos(3 * rto), &mut stats).unwrap();
        assert_eq!(head.header.pkt_seq, 0, "still one packet, still the oldest");
        assert_eq!(r.send[1].sacked, 0);
        assert_eq!(r.next_deadline(), Some(Nanos(3 * rto + 4 * rto)));
        // Backoff caps at MAX_BACKOFF_EXP.
        for _ in 0..10 {
            r.on_timeout(1, Nanos(0), &mut stats);
        }
        assert_eq!(r.next_deadline(), Some(Nanos(rto << 6)));
        // Progress resets the backoff. The acknowledged head was re-sent,
        // so its ack is no sample (Karn): the initial RTO again.
        r.on_ack(1, 1, 0, Nanos(100 * rto));
        assert_eq!(r.next_deadline(), Some(Nanos(101 * rto)), "plain rto again");
    }

    #[test]
    fn adaptive_rto_tracks_rtt_samples() {
        let mut r = state(8);
        // No sample yet: the initial RTO applies.
        assert_eq!(r.current_rto_ns(1), INITIAL_RTO_NS);
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        assert_eq!(r.next_deadline(), Some(Nanos(INITIAL_RTO_NS)));
        // Acked 100 µs later: srtt = 100 000, rttvar = 50 000 →
        // rto = 100 000 + 4·50 000 = 300 000.
        r.on_ack(1, 1, 0, Nanos(100_000));
        assert_eq!(r.srtt_ns(1), Some(100_000));
        assert_eq!(r.current_rto_ns(1), 300_000);
        assert_eq!(r.take_rtt_sample(1), Some(100_000));
        assert_eq!(r.take_rtt_sample(1), None, "sample consumed");
        // The next send arms the estimated RTO, not the initial one.
        r.on_data_sent(1, &data_pkt(1, 1), Nanos(200_000));
        assert_eq!(r.next_deadline(), Some(Nanos(500_000)));
        // A second, identical sample tightens the variance: srtt stays
        // 100 000, rttvar → 37 500, rto → 250 000.
        r.on_ack(1, 2, 0, Nanos(300_000));
        assert_eq!(r.current_rto_ns(1), 250_000);
    }

    #[test]
    fn sub_microsecond_rto_is_clamped() {
        // A sub-microsecond round trip (a peer polled on the same core)
        // arms the floor, not a timeout per poll that would drown the
        // wire in duplicates of the head packet.
        let mut r = state(8);
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        r.on_ack(1, 1, 0, Nanos(500));
        assert_eq!(r.srtt_ns(1), Some(500));
        assert_eq!(r.current_rto_ns(1), RTO_MIN_NS);
        r.on_data_sent(1, &data_pkt(1, 1), Nanos(1_000));
        assert_eq!(r.next_deadline(), Some(Nanos(1_000 + RTO_MIN_NS)));
    }

    #[test]
    fn adaptive_rto_clamps_to_configured_bounds() {
        let mut r = state(8);
        // A ~0 RTT sample clamps to the floor rather than melting down
        // into a timeout-per-poll storm.
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        r.on_ack(1, 1, 0, Nanos(1));
        assert_eq!(r.current_rto_ns(1), RTO_MIN_NS);
        // An enormous sample clamps to the ceiling.
        r.on_data_sent(1, &data_pkt(1, 1), Nanos(10));
        r.on_ack(1, 2, 0, Nanos(10_000_000_000));
        assert_eq!(r.current_rto_ns(1), RTO_MAX_NS);
    }

    #[test]
    fn karn_rule_discards_samples_after_retransmission() {
        let mut r = state(8);
        let mut stats = FmStats::default();
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(0));
        // Timer fires; the head is resent — the eventual ack for seq 0
        // is now ambiguous and must not feed the estimator.
        r.on_timeout(1, Nanos(100_000), &mut stats);
        r.on_ack(1, 1, 0, Nanos(150_000));
        assert_eq!(r.srtt_ns(1), None, "ambiguous ack not sampled");
        assert_eq!(r.take_rtt_sample(1), None);
        // The next never-retransmitted packet is sampled again.
        r.on_data_sent(1, &data_pkt(1, 1), Nanos(200_000));
        r.on_ack(1, 2, 0, Nanos(203_000));
        assert_eq!(r.srtt_ns(1), Some(3_000));
        // A SACK-driven re-send voids the probe just the same.
        for seq in 2..5 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(300_000));
        }
        assert!(r.on_ack(1, 2, 0b100, Nanos(301_000)));
        assert_eq!(holes(&mut r, 301_000), vec![2, 3]);
        r.on_ack(1, 5, 0, Nanos(309_000));
        assert_eq!(r.srtt_ns(1), Some(3_000), "no sample from the episode");
    }

    #[test]
    fn aimd_window_halves_on_loss_and_regrows_on_acks() {
        let mut r = state(8);
        let mut stats = FmStats::default();
        assert_eq!(r.cwnd_packets(1), 8, "starts fully open");
        for seq in 0..4 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        r.on_timeout(1, Nanos(100_000), &mut stats);
        assert_eq!(r.cwnd_packets(1), 4, "halved by the expiry");
        // A SACK hole in the same flight is repaired, and moves nothing.
        assert!(r.on_ack(1, 0, 0b1000, Nanos(150_000)));
        assert_eq!(holes(&mut r, 150_000), vec![1, 2]);
        assert_eq!(r.cwnd_packets(1), 4, "a repair is not a loss signal");
        // Every expiry halves: there is no episode to wait out, the
        // backoff already spaces them a (doubling) RTO apart.
        r.on_timeout(1, Nanos(900_000), &mut stats);
        assert_eq!(r.cwnd_packets(1), 2, "the second expiry halves again");
        r.on_timeout(1, Nanos(2_000_000), &mut stats);
        assert_eq!(r.cwnd_packets(1), 1);
        r.on_timeout(1, Nanos(3_000_000), &mut stats);
        assert_eq!(r.cwnd_packets(1), 1, "never below one packet");
        assert_eq!(r.send_budget(1), 0, "four outstanding overfill cwnd 1");
        // Acks regrow the window additively, one packet per window of
        // acked packets: 1 → 2 → 2.5 → 2.9 → 3.24.
        for (ack, cwnd) in [(1, 2), (2, 2), (3, 2), (4, 3)] {
            r.on_ack(1, ack, 0, Nanos(3_100_000));
            assert_eq!(r.cwnd_packets(1), cwnd, "after ack {ack}");
        }
        // ...toward the configured cap.
        let mut seq = 4u32;
        let mut t = 6_000_000u64;
        while r.cwnd_packets(1) < 8 {
            let budget = r.send_budget(1);
            for _ in 0..budget {
                r.on_data_sent(1, &data_pkt(1, seq), Nanos(t));
                seq += 1;
            }
            t += 1_000;
            r.on_ack(1, seq, 0, Nanos(t));
            assert!(seq < 10_000, "cwnd failed to regrow");
        }
        assert_eq!(r.cwnd_packets(1), 8, "capped at the configured window");
    }

    #[test]
    fn a_sack_hole_is_repaired_without_moving_the_window() {
        let mut r = state(8);
        let mut stats = FmStats::default();
        for seq in 0..6 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        assert_eq!(r.send_budget(1), 2);
        // Seq 0 is lost, the peer holds 1..=5: 0 is re-sent, and the
        // window stays open.
        assert!(r.on_ack(1, 0, 0b111110, Nanos(10)));
        assert_eq!(holes(&mut r, 10), vec![0]);
        assert_eq!(r.cwnd_packets(1), 8, "a repaired hole is no loss signal");
        // SACKed packets are not in flight — only the hole is — but they
        // do fill the peer's table.
        assert_eq!(
            r.send_budget(1),
            2,
            "one in flight of eight; the peer's table has two free slots"
        );
        // The timer is what shrinks the window. It also forgets the marks,
        // so all six count as in flight until the next bitmap restores them.
        r.on_timeout(1, Nanos(200_000), &mut stats);
        assert_eq!(r.cwnd_packets(1), 4);
        assert_eq!(r.send_budget(1), 0, "six in flight of four");
        assert!(r.on_ack(1, 0, 0b111110, Nanos(200_010)));
        assert_eq!(r.send_budget(1), 2, "one in flight of four again");
    }

    /// A 2 → 1 stream of `count` packets at the default window,
    /// one round per microsecond: the sender fills its budget, each fresh
    /// packet is lost with probability 1 %, the receiver takes what
    /// arrived and answers with one ack, and the holes it exposes go out
    /// next round (re-sends are never lost). Before packet `stall_at`
    /// goes the link stalls for one RTO, once, so the timer fires.
    /// Returns the window after every round.
    fn sack_repaired_stream(count: u32, stall_at: u32) -> Vec<u32> {
        let cfg = RetransmitConfig::default();
        let (mut s, mut r) = (ReliableState::new(2, cfg), ReliableState::new(2, cfg));
        let mut stats = FmStats::default();
        let mut rng = fm_model::rng::DetRng::seed_from_u64(7);
        let (mut sent, mut lost, mut resent) = (0u32, 0u32, 0u32);
        let (mut wire, mut now, mut windows) = (Vec::new(), Nanos(0), Vec::new());
        let mut stalled = false;
        while sent < count || s.unacked_packets() > 0 {
            now += Nanos(1_000);
            assert!(!s.timed_out(1, now), "a timer expired at packet {sent}");
            for _ in 0..s.send_budget(1).min(count - sent) {
                let pkt = data_pkt(1, sent);
                s.on_data_sent(1, &pkt, now);
                sent += 1;
                // The tail is never lost: nothing after it could expose it.
                if sent + cfg.window < count && rng.chance(0.01) {
                    lost += 1;
                } else {
                    wire.push(pkt);
                }
            }
            if !stalled && sent >= stall_at {
                stalled = true;
                now = s.next_deadline().expect("packets are outstanding");
                let head = s.on_timeout(1, now, &mut stats).expect("a head to re-send");
                resent += 1;
                wire.push(head);
                windows.push(s.cwnd_packets(1));
            }
            for pkt in wire.drain(..) {
                let mut next = Some(pkt);
                while let Some(p) = next {
                    r.accept(0, &p, &mut stats);
                    next = r.take_released();
                }
            }
            if let Some((ack, sack)) = r.take_due_ack(0) {
                if s.on_ack(1, ack, sack, now) {
                    while let Some(hole) = s.next_hole(1, now) {
                        resent += 1;
                        wire.push(hole);
                    }
                }
            }
            windows.push(s.cwnd_packets(1));
        }
        assert!(lost > 50, "1 % of {count} packets, seed 7: {lost}");
        assert_eq!(
            resent,
            lost + stalled as u32,
            "one packet per lost packet, plus the timer's head"
        );
        assert_eq!(stats.retransmit_timeouts, stalled as u64);
        windows
    }

    #[test]
    fn random_loss_repaired_by_sack_keeps_the_window_open() {
        let window = RetransmitConfig::default().window;
        // No expiry: every round, whatever it lost, ends fully open.
        let windows = sack_repaired_stream(10_000, u32::MAX);
        assert!(windows.iter().all(|&w| w == window), "{windows:?}");
        // One expiry mid-run halves the window once; repairs after it
        // move nothing, and acks regrow it to the cap.
        let windows = sack_repaired_stream(10_000, 5_000);
        let halved = windows
            .iter()
            .position(|&w| w < window)
            .expect("the timer fired");
        assert_eq!(windows[halved], window / 2);
        assert!(windows[halved..].iter().all(|&w| w >= window / 2));
        assert!(
            windows[halved..].windows(2).all(|w| w[1] >= w[0]),
            "only regrowth"
        );
        assert_eq!(windows.last(), Some(&window), "regrown to the cap");
    }

    #[test]
    fn reset_peer_restarts_both_sequence_spaces() {
        let mut r = state(4);
        let mut stats = FmStats::default();
        for seq in 0..3 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        r.on_ack(1, 2, 0, Nanos(10));
        r.accept(1, &data_pkt(1, 0), &mut stats);
        r.accept(1, &data_pkt(1, 1), &mut stats);
        r.accept(1, &data_pkt(1, 3), &mut stats);
        assert_eq!(r.held_packets(), 1);
        r.reset_peer(1);
        assert_eq!(r.unacked_packets(), 0, "ring dropped");
        assert_eq!(r.held_packets(), 0, "held frames dropped");
        assert_eq!(r.next_deadline(), None, "timer disarmed");
        assert_eq!(r.send_budget(1), 4, "window fully open");
        // Both spaces restart at zero: seq 0 is the next expected packet
        // and the first send is unacked from zero again.
        assert_eq!(
            r.accept(1, &data_pkt(1, 0), &mut stats),
            RecvDecision::Accept
        );
        assert_eq!(r.piggyback_ack(1), 1);
        r.on_data_sent(1, &data_pkt(1, 0), Nanos(20));
        r.on_ack(1, 1, 0, Nanos(30));
        assert_eq!(r.unacked_packets(), 0);
    }

    #[test]
    fn abandon_peer_stops_retransmits_but_keeps_sequences() {
        let mut r = state(4);
        let mut stats = FmStats::default();
        for seq in 0..2 {
            r.on_data_sent(1, &data_pkt(1, seq), Nanos(0));
        }
        r.accept(1, &data_pkt(1, 0), &mut stats);
        r.accept(1, &data_pkt(1, 2), &mut stats);
        r.abandon_peer(1);
        assert_eq!(r.unacked_packets(), 0);
        assert_eq!(r.held_packets(), 0, "a downed peer pins no frames");
        assert_eq!(r.next_deadline(), None);
        assert!(!r.timed_out(1, Nanos(u64::MAX / 2)));
        // Sequence spaces survive: the receive side still expects seq 1,
        // and the send side still considers seqs 0..2 used.
        assert_eq!(
            r.accept(1, &data_pkt(1, 1), &mut stats),
            RecvDecision::Accept
        );
        assert!(r.take_released().is_none(), "seq 2 has to come again");
        assert_eq!(
            r.accept(1, &data_pkt(1, 0), &mut stats),
            RecvDecision::Duplicate
        );
    }
}
