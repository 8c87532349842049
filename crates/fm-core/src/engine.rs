//! The engine core: what FM 1.x and FM 2.x share below their API faces.
//!
//! The paper's claim is that FM 2.x keeps FM 1.x's guarantees — reliable,
//! in-order delivery with sender flow control — and changes only the
//! interface above them. [`EngineCore`] is those guarantees, implemented
//! once: packet emission, receive admission, the reliability poll,
//! explicit credit return, the per-peer half of the membership drain and
//! the accounting around synchronous handlers. [`crate::Fm1Engine`] (the
//! contiguous-buffer face) and [`crate::Fm2Engine`] (the stream face) own
//! only what their APIs add on top.
//!
//! The one thing that differs below the faces is what a packet *costs*
//! the host — the quantity Figs. 3–4 measure. Each face prices its
//! packets in a [`PacketCosts`] table handed over at construction; the
//! core charges from the table and never asks which face it serves.

use fm_model::time::ns_for_bytes;
use fm_model::{MachineProfile, Nanos};

use crate::buf::{BufPool, PacketBuf};
use crate::device::{NetDevice, PeerEvent, PeerEventKind};
use crate::error::FmError;
use crate::flow::CreditLedger;
use crate::obs::{ObsEvent, ObsSink, SpanKind};
use crate::packet::{FmPacket, HandlerId, PacketFlags, PacketHeader};
use crate::reliable::{RecvDecision, Reliability, ReliableState};
use crate::stats::FmStats;

/// Free-list depth of each engine's send-payload pool. Deep enough to
/// cover a full retransmit window of in-flight frames per peer on small
/// clusters; beyond it, bursts fall back to the allocator harmlessly.
const SEND_POOL_FRAMES: usize = 256;

/// Host cost of handing one packet to the NIC: a fixed part plus a
/// programmed-I/O part proportional to the bytes crossing the I/O bus
/// *at hand-off* (zero for a face that already paid per byte while
/// gathering).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendCost {
    pub(crate) fixed: Nanos,
    pub(crate) pio_ns_per_kb: u64,
}

impl SendCost {
    #[inline]
    fn of(&self, wire_bytes: u32) -> Nanos {
        self.fixed + ns_for_bytes(self.pio_ns_per_kb, wire_bytes as u64)
    }
}

/// What each per-packet action costs the host, as priced by the face.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PacketCosts {
    /// A data packet, fresh or retransmitted.
    pub(crate) data: SendCost,
    /// A standalone credit or ack frame.
    pub(crate) control: SendCost,
    /// Flow-control bookkeeping per arriving packet. `None` runs the
    /// engine without flow control (the Figure 3a stages below
    /// [`crate::fm1::Fm1Stage::FlowControl`]): nothing is charged, no
    /// credits are owed or returned, and the window never closes.
    pub(crate) flow_control: Option<Nanos>,
}

/// Why [`EngineCore::reserve`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stall {
    /// The NIC send queue lacks the slots.
    Device,
    /// The flow-control window (credits, or the retransmit window) is
    /// closed.
    Window,
}

/// What [`EngineCore::admit`] decided about an arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// A pure credit/ack frame, fully consumed.
    Control,
    /// A data packet the reliability sublayer kept from the face: a
    /// duplicate, suppressed; or one that arrived early and is held until
    /// the packets before it do ([`EngineCore::recv`] then yields it
    /// again, in its turn).
    Withheld,
    /// The next data packet to deliver. `gap` means packets before it
    /// were lost on a trusted substrate: the violation is already
    /// reported and the sequence resynchronized; what to salvage is the
    /// face's call.
    Data { gap: bool },
}

/// A handler table indexed by [`HandlerId`], with the take/restore
/// discipline synchronous handlers need: a handler is moved out while it
/// runs (so it may touch the engine, including re-registering itself)
/// and put back afterwards.
pub(crate) struct HandlerTable<T>(Vec<Option<T>>);

impl<T> HandlerTable<T> {
    pub(crate) fn new() -> Self {
        HandlerTable(Vec::new())
    }

    /// Register `h` under `id` (replacing any previous one).
    pub(crate) fn set(&mut self, id: HandlerId, h: T) {
        let idx = id.0 as usize;
        if self.0.len() <= idx {
            self.0.resize_with(idx + 1, || None);
        }
        self.0[idx] = Some(h);
    }

    pub(crate) fn get(&self, id: HandlerId) -> Option<&T> {
        self.0.get(id.0 as usize).and_then(Option::as_ref)
    }

    pub(crate) fn take(&mut self, id: HandlerId) -> Option<T> {
        self.0.get_mut(id.0 as usize).and_then(Option::take)
    }

    /// Put back a handler moved out by [`HandlerTable::take`], unless it
    /// registered a replacement for itself while it ran.
    pub(crate) fn restore(&mut self, id: HandlerId, h: T) {
        let slot = &mut self.0[id.0 as usize];
        if slot.is_none() {
            *slot = Some(h);
        }
    }
}

/// The state and protocol decisions common to both engine generations.
pub(crate) struct EngineCore<D: NetDevice> {
    pub(crate) device: D,
    /// NIC queue slots known to be free: the device's last
    /// [`NetDevice::send_space`] answer less every packet handed over
    /// since. The queue drains behind the engine's back but fills only
    /// through [`EngineCore::hand_off`], so this is a lower bound.
    room: usize,
    pub(crate) profile: MachineProfile,
    costs: PacketCosts,
    pub(crate) flow: CreditLedger,
    /// Next packet sequence number per destination.
    send_pkt_seq: Vec<u32>,
    /// Next message sequence number per destination.
    pub(crate) send_msg_seq: Vec<u32>,
    /// Expected next packet sequence number per source (TrustSubstrate
    /// mode; the reliable window keeps its own).
    recv_pkt_seq: Vec<u32>,
    /// Retransmission state (`Some` in [`Reliability::Retransmit`] mode,
    /// where it replaces the credit ledger entirely).
    pub(crate) reliable: Option<ReliableState>,
    /// MTU-sized frame pool: faces stage payload bytes directly into
    /// pooled frames, which then *become* packet payloads — steady-state
    /// sends never allocate.
    pub(crate) pool: BufPool,
    pub(crate) errors: Vec<FmError>,
    pub(crate) stats: FmStats,
    /// A handler is running: `FM_extract` must not be re-entered.
    pub(crate) in_extract: bool,
    /// Observability sink (`None` by default: recording is opt-in and a
    /// single branch per site when absent).
    pub(crate) obs: Option<ObsSink>,
    /// Peers currently declared down by the device's liveness engine.
    /// Upper layers poll this to abort instead of spinning on a dead
    /// peer.
    pub(crate) peer_down: Vec<bool>,
    /// `(dst, msg_seq)` of the message whose stall span is out: a sender
    /// polling until admitted traces its stall once, not once per poll.
    stall_traced: (usize, u32),
}

// The methods on the per-packet and per-poll paths carry `#[inline]`:
// they are generic, hence instantiated in the caller's crate, and the hint
// lets each face's send and extract paths compile down to one function.
// Without it a 16-byte loopback round trip measures about 3 % slower.
// `device_takes` and `hand_off` are left to the compiler's own judgement:
// hinted, the simulator pass of `sim_layering` measured 3–5 % slower and
// the shm workloads no different.
impl<D: NetDevice> EngineCore<D> {
    pub(crate) fn new(
        device: D,
        profile: MachineProfile,
        reliability: Reliability,
        costs: PacketCosts,
    ) -> Self {
        let n = device.num_nodes();
        let reliable = match reliability {
            Reliability::TrustSubstrate => None,
            Reliability::Retransmit(cfg) => Some(ReliableState::new(n, cfg)),
        };
        assert!(
            reliable.is_some() || !device.is_lossy(),
            "this device really drops/reorders packets; construct the engine \
             with Reliability::Retransmit (TrustSubstrate would break FM's \
             delivery guarantee)"
        );
        EngineCore {
            device,
            room: 0,
            profile,
            costs,
            flow: CreditLedger::new(n, profile.fm.credits_per_peer),
            send_pkt_seq: vec![0; n],
            send_msg_seq: vec![0; n],
            recv_pkt_seq: vec![0; n],
            reliable,
            pool: BufPool::new(profile.fm.mtu_payload, SEND_POOL_FRAMES),
            errors: Vec::new(),
            stats: FmStats::default(),
            in_extract: false,
            obs: None,
            peer_down: vec![false; n],
            stall_traced: (usize::MAX, 0),
        }
    }

    /// Record an event if a sink is attached. The closure receives the
    /// device clock and this node's id; it only runs when recording, so
    /// the disabled path is a single `is_some` branch. Recording never
    /// charges the device clock.
    #[inline]
    pub(crate) fn obs_emit(&self, make: impl FnOnce(Nanos, u16) -> ObsEvent) {
        if let Some(obs) = &self.obs {
            obs.record(make(self.device.now(), self.device.node_id() as u16));
        }
    }

    /// Engine counters (pool hit/miss counters folded in live).
    pub(crate) fn stats(&self) -> FmStats {
        let mut s = self.stats;
        let p = self.pool.stats();
        s.pool_hits = p.hits;
        s.pool_misses = p.misses;
        s
    }

    /// Account a host memcpy of `bytes`.
    pub(crate) fn charge_memcpy(&mut self, bytes: usize) {
        self.stats.bytes_copied += bytes as u64;
        let cost = self.profile.host.memcpy(bytes as u64);
        self.device.charge(cost);
    }

    pub(crate) fn report_error(&mut self, e: FmError) {
        self.stats.errors_reported += 1;
        self.errors.push(e);
    }

    /// Whether any peer is currently declared down (one slice scan, no
    /// allocation: blocking waits ask this on every poll).
    pub(crate) fn has_downed_peers(&self) -> bool {
        self.peer_down.contains(&true)
    }

    /// The peers currently declared down, in node order.
    pub(crate) fn downed_peers(&self) -> Vec<usize> {
        self.peer_down
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(i))
            .collect()
    }

    /// Data packets sent but not yet acknowledged (always 0 in
    /// TrustSubstrate mode).
    pub(crate) fn unacked_packets(&self) -> usize {
        self.reliable
            .as_ref()
            .map_or(0, ReliableState::unacked_packets)
    }

    // ------------------------------------------------------------------
    // Send side
    // ------------------------------------------------------------------

    /// The device itself, for callers outside the core (test harnesses
    /// pumping packets by hand). They may fill the NIC queue unseen, so
    /// the remembered room is forgotten.
    pub(crate) fn device_mut(&mut self) -> &mut D {
        self.room = 0;
        &mut self.device
    }

    /// Whether the NIC queue takes `packets` more packets. The device is
    /// asked only when what is remembered of its last answer cannot
    /// tell: by the [`NetDevice::send_space`] contract a remembered `k`
    /// still means the next `k` sends succeed, so a burst pays for one
    /// query, not one per packet, and decides exactly as if it had asked
    /// every time.
    fn device_takes(&mut self, packets: usize) -> bool {
        if self.room < packets {
            self.room = self.device.send_space();
        }
        self.room >= packets
    }

    /// Hand one packet to the NIC, charging `cost` for it. Room must
    /// have been seen ([`EngineCore::device_takes`]) or claimed
    /// ([`EngineCore::reserve`]) first.
    fn hand_off(&mut self, pkt: FmPacket, cost: SendCost) {
        self.device.charge(cost.of(pkt.wire_bytes()));
        self.device
            .try_send(pkt)
            .expect("room was seen before the hand-off");
        self.room = self.room.saturating_sub(1);
    }

    /// Whether `packets` data packets of message `msg_seq` (`msg_len`
    /// bytes) toward `dst` fit in the NIC queue and the flow-control
    /// window right now. Claims nothing; a refusal is counted as the
    /// stall it is, once per refused call — a sender that polls until
    /// admitted counts every poll — and traced once per message, at its
    /// first refusal, so a traced run is not a record of its own spinning.
    #[inline]
    pub(crate) fn room_for(
        &mut self,
        dst: usize,
        packets: u32,
        msg_seq: u32,
        msg_len: u32,
    ) -> Result<(), Stall> {
        let (stall, kind) = if !self.device_takes(packets as usize) {
            self.stats.device_stalls += 1;
            (Stall::Device, SpanKind::DeviceStall)
        } else {
            let open = match &self.reliable {
                // Retransmit mode: the sliding window is the flow control.
                Some(rel) => rel.can_send(dst, packets),
                None => self.costs.flow_control.is_none() || self.flow.available(dst) >= packets,
            };
            if open {
                return Ok(());
            }
            self.stats.credit_stalls += 1;
            (Stall::Window, SpanKind::CreditStall)
        };
        if self.obs.is_some() && self.stall_traced != (dst, msg_seq) {
            self.stall_traced = (dst, msg_seq);
            self.obs_emit(|t, me| {
                ObsEvent::new(t, me, kind)
                    .peer(dst as u16)
                    .msg_seq(msg_seq)
                    .bytes(msg_len)
            });
        }
        Err(stall)
    }

    /// Claim room for `packets` data packets of message `msg_seq`
    /// (`msg_len` bytes) toward `dst`, all or nothing; each must then be
    /// handed to [`EngineCore::emit_data`]. Refuses, counts and traces as
    /// [`EngineCore::room_for`] does.
    #[inline]
    pub(crate) fn reserve(
        &mut self,
        dst: usize,
        packets: u32,
        msg_seq: u32,
        msg_len: u32,
    ) -> Result<(), Stall> {
        self.room_for(dst, packets, msg_seq, msg_len)?;
        if self.reliable.is_none() && self.costs.flow_control.is_some() {
            let reserved = self.flow.try_reserve(dst, packets);
            debug_assert!(reserved, "room_for saw the credits");
        }
        Ok(())
    }

    /// Open a `len`-byte message to `dst`: allocates its sequence number
    /// (0 for self-sends, which bypass the NIC) and traces the begin.
    #[inline]
    pub(crate) fn begin_message(&mut self, dst: usize, handler: HandlerId, len: usize) -> u32 {
        let msg_seq = if dst == self.device.node_id() {
            0
        } else {
            let s = self.send_msg_seq[dst];
            self.send_msg_seq[dst] += 1;
            s
        };
        self.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::BeginMessage)
                .peer(dst as u16)
                .handler(handler.0)
                .msg_seq(msg_seq)
                .bytes(len as u32)
        });
        msg_seq
    }

    /// Account a message whose last packet has been handed off (or, for a
    /// self-send, queued locally).
    #[inline]
    pub(crate) fn end_message(&mut self, dst: usize, handler: HandlerId, msg_seq: u32, len: u32) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += len as u64;
        self.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::EndMessage)
                .peer(dst as u16)
                .handler(handler.0)
                .msg_seq(msg_seq)
                .bytes(len)
        });
    }

    /// Hand one data packet to the NIC: the next packet sequence number,
    /// owed credits or the cumulative ack piggybacked, a clone retained
    /// for retransmission, the face's cost charged. Room must have been
    /// claimed with [`EngineCore::reserve`].
    #[inline]
    pub(crate) fn emit_data(
        &mut self,
        dst: usize,
        handler: HandlerId,
        msg_seq: u32,
        msg_len: u32,
        flags: PacketFlags,
        payload: PacketBuf,
    ) {
        let credits = if self.reliable.is_some() {
            0
        } else {
            self.flow.take_owed(dst)
        };
        let ack = self.reliable.as_mut().map_or(0, |r| r.piggyback_ack(dst));
        let pkt_seq = self.send_pkt_seq[dst];
        self.send_pkt_seq[dst] += 1;
        let pkt = FmPacket {
            header: PacketHeader {
                src: self.device.node_id() as u16,
                dst: dst as u16,
                handler,
                msg_seq,
                pkt_seq,
                msg_len,
                flags,
                credits,
                ack,
            },
            payload,
        };
        // Only the retransmit timer wants to know when: a trusted
        // packet leaves without a clock read.
        if let Some(rel) = self.reliable.as_mut() {
            let now = self.device.now();
            rel.on_data_sent(dst, &pkt, now);
        }
        let payload_len = pkt.payload.len() as u32;
        self.hand_off(pkt, self.costs.data);
        self.stats.packets_sent += 1;
        self.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::PacketSend)
                .peer(dst as u16)
                .handler(handler.0)
                .msg_seq(msg_seq)
                .seq(pkt_seq)
                .serial_opt(self.device.last_sent_serial())
                .bytes(payload_len)
        });
    }

    /// Re-send a retained data packet (a SACK hole, or the head on a
    /// timeout).
    fn resend(&mut self, peer: usize, pkt: FmPacket) {
        let pkt_seq = pkt.header.pkt_seq;
        self.hand_off(pkt, self.costs.data);
        self.stats.retransmissions += 1;
        self.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::Retransmit)
                .peer(peer as u16)
                .seq(pkt_seq)
                .serial_opt(self.device.last_sent_serial())
        });
    }

    /// Trace the AIMD window toward `peer` after a timeout halved it.
    fn emit_cwnd(&self, rel: &ReliableState, peer: usize) {
        let cwnd = rel.cwnd_packets(peer);
        self.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::CwndChange)
                .peer(peer as u16)
                .seq(cwnd)
        });
    }

    /// Send the standalone ack owed to `peer`, if one is: the one place an
    /// ack-only frame leaves from. A full NIC queue keeps the duty — the
    /// next call retries.
    fn send_due_ack(&mut self, rel: &mut ReliableState, peer: usize) {
        if !rel.ack_due(peer) || !self.device_takes(1) {
            return;
        }
        let (ack, sack) = rel.take_due_ack(peer).expect("an ack is due");
        let me = self.device.node_id() as u16;
        let pkt = FmPacket::ack_sack(me, peer as u16, ack, sack);
        self.hand_off(pkt, self.costs.control);
        self.stats.acks_sent += 1;
        self.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::AckSend)
                .peer(peer as u16)
                .seq(ack)
                .serial_opt(self.device.last_sent_serial())
        });
    }

    /// Half a window into a burst that is still being consumed: the ack
    /// — the sender's credit — goes now, not when this poll ends, so the
    /// window never closes on a receiver that keeps up. Out of line: it
    /// runs once per half window, and inlined into `admit` it cost the
    /// trusted receive path 4–6 % on the simulator workloads.
    #[inline(never)]
    fn ack_mid_burst(&mut self, src: usize) {
        let mut rel = self.reliable.take().expect("retransmit mode");
        self.send_due_ack(&mut rel, src);
        self.reliable = Some(rel);
    }

    /// Retransmit-mode housekeeping: flush standalone acks, re-send the
    /// head packet of each timed-out peer, and arm the timer alarm. No-op
    /// in TrustSubstrate mode.
    #[inline]
    pub(crate) fn reliability_poll(&mut self) {
        let Some(mut rel) = self.reliable.take() else {
            return;
        };
        // Standalone acks for one-sided traffic (piggybacking already
        // discharged the duty wherever reverse data flowed, and a burst
        // acknowledged its first halves from inside `admit`): the tail,
        // the SACK state, the answer to a duplicate.
        for peer in 0..rel.num_peers() {
            self.send_due_ack(&mut rel, peer);
        }
        // A timeout costs one packet: the oldest unacknowledged,
        // whatever else the ring holds.
        let now = self.device.now();
        for peer in 0..rel.num_peers() {
            if !rel.timed_out(peer, now) {
                continue;
            }
            self.obs_emit(|t, me| {
                ObsEvent::new(t, me, SpanKind::RetransmitTimeout).peer(peer as u16)
            });
            if let Some(pkt) = rel.on_timeout(peer, now, &mut self.stats) {
                if self.device_takes(1) {
                    self.resend(peer, pkt); // else the next timeout retries
                }
            }
            self.emit_cwnd(&rel, peer);
        }
        // Make sure we get polled again even on a quiet network.
        if let Some(at) = rel.next_deadline() {
            self.device.request_wake(at);
        }
        self.reliable = Some(rel);
    }

    /// Return owed credits in explicit credit-only packets to every peer
    /// past the lazy-return threshold (no reverse data piggybacked them
    /// first).
    #[inline]
    pub(crate) fn return_explicit_credits(&mut self) {
        // Per-peer index scan (not a collected iterator): this runs on
        // every extract/progress, and the datapath must stay
        // allocation-free.
        for peer in 0..self.flow.num_peers() {
            if !self.flow.explicit_return_due(peer) {
                continue;
            }
            if !self.device_takes(1) {
                return; // retry next time
            }
            let credits = self.flow.take_owed(peer);
            if credits == 0 {
                continue;
            }
            let me = self.device.node_id() as u16;
            self.hand_off(
                FmPacket::credit_only(me, peer as u16, credits),
                self.costs.control,
            );
            self.stats.credit_packets_sent += 1;
        }
    }

    // ------------------------------------------------------------------
    // Receive side
    // ------------------------------------------------------------------

    /// Open an `FM_extract` poll admitting up to `budget` payload bytes.
    ///
    /// # Panics
    /// Panics if called from inside a handler (FM handlers must not
    /// recurse into extract).
    #[inline]
    pub(crate) fn begin_extract(&mut self, budget: usize) {
        assert!(
            !self.in_extract,
            "FM_extract may not be called from a handler"
        );
        self.device.charge(Nanos(self.profile.host.extract_poll_ns));
        self.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::ExtractPoll).bytes(budget.min(u32::MAX as usize) as u32)
        });
    }

    /// Apply the device's next pending membership transition to the
    /// shared per-peer state and return it, so the face can drop what
    /// *it* holds for that peer. Faces drain this before every
    /// [`EngineCore::recv`]: the device contract
    /// ([`NetDevice::poll_event`]) guarantees no data from a peer's new
    /// incarnation is returned by `try_recv` while its
    /// `Rejoining`/`Down` event is still queued, so resetting per-peer
    /// state here cannot race the new traffic.
    #[inline]
    pub(crate) fn poll_peer_event(&mut self) -> Option<PeerEvent> {
        let ev = self.device.poll_event()?;
        let peer = ev.peer;
        let kind = match ev.kind {
            PeerEventKind::Up => {
                self.peer_down[peer] = false;
                SpanKind::PeerUp
            }
            // Liveness in doubt, protocol state intact: the AIMD window
            // is already shedding load toward a silent peer; nothing
            // structural to do.
            PeerEventKind::Suspect => SpanKind::PeerSuspect,
            PeerEventKind::Down => {
                self.peer_down[peer] = true;
                // Stop the retransmit storm toward the corpse.
                if let Some(rel) = self.reliable.as_mut() {
                    rel.abandon_peer(peer);
                }
                SpanKind::PeerDown
            }
            PeerEventKind::Rejoining => {
                // The peer restarted: every sequence number and
                // retransmit clone from its old incarnation is invalid.
                // Both sides reset symmetrically (the restarted peer
                // starts from scratch by construction).
                self.peer_down[peer] = false;
                if let Some(rel) = self.reliable.as_mut() {
                    rel.reset_peer(peer);
                }
                self.send_pkt_seq[peer] = 0;
                self.send_msg_seq[peer] = 0;
                self.recv_pkt_seq[peer] = 0;
                self.stats.peer_resets += 1;
                SpanKind::PeerRejoin
            }
        };
        self.obs_emit(|t, me| {
            ObsEvent::new(t, me, kind)
                .peer(peer as u16)
                .seq(ev.epoch as u32)
        });
        Some(ev)
    }

    /// The next packet to run through [`EngineCore::admit`]: one the
    /// reliability sublayer held back whose turn has come, else the next
    /// off the NIC, charging the per-packet receive cost.
    #[inline]
    pub(crate) fn recv(&mut self) -> Option<FmPacket> {
        if let Some(rel) = self.reliable.as_mut() {
            // A released packet was charged for when it arrived.
            if let Some(pkt) = rel.take_released() {
                return Some(pkt);
            }
        }
        let pkt = self.device.try_recv()?;
        self.device
            .charge(Nanos(self.profile.host.per_packet_recv_ns));
        Some(pkt)
    }

    /// Run an arriving packet through flow control and the in-order
    /// guarantee: absorb its ack or credits, owe its sender a slot, and
    /// decide whether it is the next data packet to deliver.
    #[inline]
    pub(crate) fn admit(&mut self, pkt: &FmPacket) -> Admit {
        let h = &pkt.header;
        let src = h.src as usize;
        if let Some(cost) = self.costs.flow_control {
            self.device.charge(cost);
        }
        self.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::PacketRecv)
                .peer(src as u16)
                .handler(h.handler.0)
                .msg_seq(h.msg_seq)
                .seq(h.pkt_seq)
                .serial_opt(self.device.last_recv_serial())
                .bytes(pkt.payload.len() as u32)
        });
        if self.reliable.is_some() {
            // Retransmit mode: ack/window bookkeeping replaces the credit
            // bookkeeping (same charge).
            self.absorb_ack(src, h.ack, pkt.sack());
            if !pkt.is_data() {
                self.obs_emit(|t, me| {
                    ObsEvent::new(t, me, SpanKind::AckRecv)
                        .peer(src as u16)
                        .seq(h.ack)
                        .serial_opt(self.device.last_recv_serial())
                });
                return Admit::Control; // ACK_ONLY carries nothing else
            }
            // The in-order filter: duplicates are suppressed and early
            // arrivals held here, never surfaced as errors — selective
            // repeat fills the gap instead.
            let rel = self.reliable.as_mut().expect("checked above");
            return match rel.accept(src, pkt, &mut self.stats) {
                RecvDecision::Accept => {
                    self.stats.packets_received += 1;
                    if rel.ack_overdue(src) {
                        self.ack_mid_burst(src);
                    }
                    Admit::Data { gap: false }
                }
                RecvDecision::Held => Admit::Withheld,
                RecvDecision::Duplicate => {
                    self.obs_emit(|t, me| {
                        ObsEvent::new(t, me, SpanKind::DuplicateDrop)
                            .peer(src as u16)
                            .seq(h.pkt_seq)
                            .serial_opt(self.device.last_recv_serial())
                    });
                    Admit::Withheld
                }
            };
        }
        let credits = self.costs.flow_control.is_some();
        if credits && h.credits > 0 {
            self.flow.credit_returned(src, h.credits as u32);
        }
        if !pkt.is_data() {
            return Admit::Control;
        }
        if credits {
            self.flow.packet_drained(src);
        }
        // In-order guarantee check: on a trusted substrate a gap is a
        // violation to report, then resynchronize past.
        let expected = self.recv_pkt_seq[src];
        let gap = h.pkt_seq != expected;
        if gap {
            self.report_error(FmError::SequenceGap {
                src,
                expected,
                got: h.pkt_seq,
            });
        }
        self.recv_pkt_seq[src] = h.pkt_seq.wrapping_add(1);
        self.stats.packets_received += 1;
        Admit::Data { gap }
    }

    /// Process the ack carried by a packet from `src` — cumulative, plus
    /// the SACK bitmap of a standalone one — fast-retransmitting every
    /// hole the bitmap exposes that is not already being repaired.
    fn absorb_ack(&mut self, src: usize, ack: u32, sack: u64) {
        let now = self.device.now();
        let rel = self.reliable.as_mut().expect("retransmit mode");
        let holes = rel.on_ack(src, ack, sack, now);
        if let Some(sample) = rel.take_rtt_sample(src) {
            let rto_us = (rel.current_rto_ns(src) / 1_000).min(u32::MAX as u64);
            self.obs_emit(|t, me| {
                ObsEvent::new(t, me, SpanKind::RtoUpdate)
                    .peer(src as u16)
                    .seq(rto_us as u32)
                    .bytes((sample / 1_000).min(u32::MAX as u64) as u32)
            });
        }
        if !holes {
            return;
        }
        // Repairs leave the window alone: only a timeout moves it.
        while self.device_takes(1) {
            let rel = self.reliable.as_mut().expect("retransmit mode");
            let Some(pkt) = rel.next_hole(src, now) else {
                break;
            };
            self.stats.fast_retransmits += 1;
            self.resend(src, pkt);
        }
    }

    // ------------------------------------------------------------------
    // Handler accounting
    // ------------------------------------------------------------------

    /// Account the start of a message's handler: the dispatch cost, the
    /// run counter and the trace span.
    #[inline]
    pub(crate) fn handler_started(
        &mut self,
        src: usize,
        handler: HandlerId,
        msg_seq: u32,
        msg_len: u32,
    ) {
        self.device
            .charge(Nanos(self.profile.host.handler_dispatch_ns));
        self.stats.handlers_run += 1;
        self.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::HandlerStart)
                .peer(src as u16)
                .handler(handler.0)
                .msg_seq(msg_seq)
                .bytes(msg_len)
        });
    }

    /// Enter a synchronous handler call. The caller has moved the handler
    /// out of its [`HandlerTable`]; `first` marks the call that delivers
    /// the message's first packet (per-packet sinks are entered once per
    /// packet, whole-message handlers once with `first` and `last`).
    #[inline]
    pub(crate) fn sync_enter(
        &mut self,
        src: usize,
        handler: HandlerId,
        msg_seq: u32,
        msg_len: u32,
        first: bool,
    ) {
        if first {
            self.handler_started(src, handler, msg_seq, msg_len);
        }
        self.in_extract = true;
    }

    /// Leave a synchronous handler call; `last` marks the call that
    /// delivered the message's last packet, which completes the message.
    #[inline]
    pub(crate) fn sync_exit(
        &mut self,
        src: usize,
        handler: HandlerId,
        msg_seq: u32,
        msg_len: u32,
        last: bool,
    ) {
        self.in_extract = false;
        if last {
            self.stats.messages_received += 1;
            self.stats.bytes_received += msg_len as u64;
            self.obs_emit(|t, me| {
                ObsEvent::new(t, me, SpanKind::HandlerEnd)
                    .peer(src as u16)
                    .handler(handler.0)
                    .msg_seq(msg_seq)
                    .bytes(msg_len)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    //! What the core guarantees, checked through *both* faces: one script,
    //! run once over `Fm1Engine` and once over `Fm2Engine`.

    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;
    use std::rc::Rc;

    use super::*;
    use crate::device::DeviceFull;
    use crate::{Fm1Engine, Fm2Engine, FmStream};

    const H: HandlerId = HandlerId(1);

    /// A scripted liveness-tracking device: the test queues packets and
    /// membership events by hand and checks what the engine does with
    /// them.
    struct ChurnDevice {
        node: usize,
        inq: VecDeque<FmPacket>,
        out: Vec<FmPacket>,
        events: VecDeque<PeerEvent>,
        clock: Nanos,
    }

    impl ChurnDevice {
        fn new(node: usize) -> ChurnDevice {
            ChurnDevice {
                node,
                inq: VecDeque::new(),
                out: Vec::new(),
                events: VecDeque::new(),
                clock: Nanos::ZERO,
            }
        }
    }

    impl NetDevice for ChurnDevice {
        fn node_id(&self) -> usize {
            self.node
        }
        fn num_nodes(&self) -> usize {
            2
        }
        fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
            self.out.push(pkt);
            Ok(())
        }
        fn try_recv(&mut self) -> Option<FmPacket> {
            if !self.events.is_empty() {
                // Honour the poll_event contract: no data crosses while
                // a membership event is pending.
                return None;
            }
            self.inq.pop_front()
        }
        fn send_space(&self) -> usize {
            usize::MAX
        }
        fn now(&self) -> Nanos {
            self.clock
        }
        fn charge(&mut self, cost: Nanos) {
            self.clock += cost;
        }
        fn is_lossy(&self) -> bool {
            true
        }
        fn poll_event(&mut self) -> Option<PeerEvent> {
            self.events.pop_front()
        }
    }

    /// The slice of either engine's API the shared script drives.
    trait Face {
        /// A Retransmit-mode engine on node 1 whose handler `H` logs the
        /// first byte of each message it is given.
        fn new(log: Rc<RefCell<Vec<u8>>>) -> Self;
        fn dev<R>(&mut self, f: impl FnOnce(&mut ChurnDevice) -> R) -> R;
        fn extract(&mut self);
        fn progress(&mut self);
        fn send_byte(&mut self, dst: usize, val: u8);
        fn unacked(&self) -> usize;
        fn is_peer_down(&self, peer: usize) -> bool;
        fn downed_peers(&self) -> Vec<usize>;
        fn stats(&self) -> FmStats;
        fn take_errors(&mut self) -> Vec<FmError>;
    }

    fn retransmit() -> Reliability {
        Reliability::Retransmit(Default::default())
    }

    impl Face for Fm1Engine<ChurnDevice> {
        fn new(log: Rc<RefCell<Vec<u8>>>) -> Self {
            let profile = MachineProfile::sparc_fm1();
            let mut e = Fm1Engine::with_reliability(ChurnDevice::new(1), profile, retransmit());
            e.set_handler(H, Box::new(move |_, _, msg| log.borrow_mut().push(msg[0])));
            e
        }
        fn dev<R>(&mut self, f: impl FnOnce(&mut ChurnDevice) -> R) -> R {
            f(self.device_mut())
        }
        fn extract(&mut self) {
            Fm1Engine::extract(self);
        }
        fn progress(&mut self) {
            Fm1Engine::progress(self);
        }
        fn send_byte(&mut self, dst: usize, val: u8) {
            self.try_send(dst, H, &[val]).unwrap();
        }
        fn unacked(&self) -> usize {
            self.unacked_packets()
        }
        fn is_peer_down(&self, peer: usize) -> bool {
            Fm1Engine::is_peer_down(self, peer)
        }
        fn downed_peers(&self) -> Vec<usize> {
            Fm1Engine::downed_peers(self)
        }
        fn stats(&self) -> FmStats {
            Fm1Engine::stats(self)
        }
        fn take_errors(&mut self) -> Vec<FmError> {
            Fm1Engine::take_errors(self)
        }
    }

    impl Face for Fm2Engine<ChurnDevice> {
        fn new(log: Rc<RefCell<Vec<u8>>>) -> Self {
            let profile = MachineProfile::ppro200_fm2();
            let e = Fm2Engine::with_reliability(ChurnDevice::new(1), profile, retransmit());
            e.set_handler(H, move |stream: FmStream, _| {
                let log = Rc::clone(&log);
                async move {
                    let msg = stream.receive_vec(stream.msg_len()).await;
                    log.borrow_mut().push(msg[0]);
                }
            });
            e
        }
        fn dev<R>(&mut self, f: impl FnOnce(&mut ChurnDevice) -> R) -> R {
            self.with_device(f)
        }
        fn extract(&mut self) {
            self.extract_all();
        }
        fn progress(&mut self) {
            Fm2Engine::progress(self);
        }
        fn send_byte(&mut self, dst: usize, val: u8) {
            self.try_send_message(dst, H, &[&[val][..]]).unwrap();
        }
        fn unacked(&self) -> usize {
            self.unacked_packets()
        }
        fn is_peer_down(&self, peer: usize) -> bool {
            Fm2Engine::is_peer_down(self, peer)
        }
        fn downed_peers(&self) -> Vec<usize> {
            Fm2Engine::downed_peers(self)
        }
        fn stats(&self) -> FmStats {
            Fm2Engine::stats(self)
        }
        fn take_errors(&mut self) -> Vec<FmError> {
            Fm2Engine::take_errors(self)
        }
    }

    /// One packet from peer 0: `pkt_seq` of message `msg_seq`, a
    /// `msg_len`-byte message of which this packet carries `val`.
    fn data(pkt_seq: u32, msg_seq: u32, msg_len: u32, flags: PacketFlags, val: u8) -> FmPacket {
        FmPacket {
            header: PacketHeader {
                src: 0,
                dst: 1,
                handler: H,
                msg_seq,
                pkt_seq,
                msg_len,
                flags,
                credits: 0,
                ack: 0,
            },
            payload: vec![val].into(),
        }
    }

    fn event(kind: PeerEventKind) -> PeerEvent {
        PeerEvent {
            peer: 0,
            kind,
            epoch: 2,
        }
    }

    /// Rejoining resets the peer's sequence spaces, retransmit ring and
    /// half-received messages; Down stops retransmission and is
    /// queryable; Up clears it — and the engine keeps hearing the device
    /// throughout.
    fn peer_events_reset_per_peer_state<F: Face>(e: &mut F, seen: &RefCell<Vec<u8>>) {
        let whole = PacketFlags::FIRST | PacketFlags::LAST;

        // Old incarnation: seq 0 delivered, its duplicate suppressed, and
        // the first half of a two-packet message left open.
        e.dev(|d| d.inq.push_back(data(0, 0, 1, whole, 1)));
        e.extract();
        assert_eq!(*seen.borrow(), vec![1]);
        e.dev(|d| {
            d.inq.push_back(data(0, 0, 1, whole, 1));
            d.inq.push_back(data(1, 1, 2, PacketFlags::FIRST, 5));
        });
        e.extract();
        assert_eq!(*seen.borrow(), vec![1], "duplicate suppressed");

        // Send toward peer 0 so there is un-acked send state to reset.
        e.send_byte(0, 9);
        assert_eq!(e.unacked(), 1);

        // The peer restarts: Rejoining, then its new-incarnation seq 0.
        // Its seq 1 claims to finish a message 1 — which the old
        // incarnation opened and the new one never did.
        e.dev(|d| {
            d.events.push_back(event(PeerEventKind::Rejoining));
            d.inq.push_back(data(0, 0, 1, whole, 7));
            d.inq.push_back(data(1, 1, 2, PacketFlags::LAST, 6));
        });
        e.extract();
        assert_eq!(
            *seen.borrow(),
            vec![1, 7],
            "new-incarnation seq 0 accepted after the reset"
        );
        assert!(
            matches!(
                e.take_errors()[..],
                [FmError::OrphanPacket { src: 0, msg_seq: 1 }]
            ),
            "the old incarnation's half-message was dropped, not completed"
        );
        assert_eq!(e.stats().peer_resets, 1);
        assert_eq!(e.unacked(), 0, "old retransmit ring dropped");
        assert!(!e.is_peer_down(0));
        // The send sequence space restarted too: the next packet to the
        // rejoined peer carries seq 0 again.
        e.send_byte(0, 9);
        let last_seq = e.dev(|d| {
            let last = d.out.iter().rev().find(|p| p.is_data());
            last.expect("a data packet went out").header.pkt_seq
        });
        assert_eq!(last_seq, 0);

        // Down: surfaced through the query API and stops retransmission.
        e.dev(|d| d.events.push_back(event(PeerEventKind::Down)));
        e.progress();
        assert!(e.is_peer_down(0));
        assert_eq!(e.downed_peers(), vec![0]);
        assert_eq!(e.unacked(), 0, "ring abandoned on Down");

        // Up clears the flag.
        e.dev(|d| d.events.push_back(event(PeerEventKind::Up)));
        e.progress();
        assert!(!e.is_peer_down(0));
        assert!(e.take_errors().is_empty());
    }

    #[test]
    fn fm1_peer_events_reset_per_peer_state() {
        let seen: Rc<RefCell<Vec<u8>>> = Rc::default();
        let mut e = <Fm1Engine<ChurnDevice> as Face>::new(Rc::clone(&seen));
        peer_events_reset_per_peer_state(&mut e, &seen);
    }

    #[test]
    fn fm2_peer_events_reset_per_peer_state_and_fire_the_peer_handler() {
        let seen: Rc<RefCell<Vec<u8>>> = Rc::default();
        let mut e = <Fm2Engine<ChurnDevice> as Face>::new(Rc::clone(&seen));
        let log: Rc<RefCell<Vec<PeerEventKind>>> = Rc::default();
        {
            let l = Rc::clone(&log);
            e.set_peer_handler(move |ev| l.borrow_mut().push(ev.kind));
        }
        peer_events_reset_per_peer_state(&mut e, &seen);
        assert_eq!(e.pending_handlers(), 0, "no task outlived its peer");
        assert_eq!(
            *log.borrow(),
            vec![
                PeerEventKind::Rejoining,
                PeerEventKind::Down,
                PeerEventKind::Up
            ],
            "callback saw every transition, in order"
        );
    }

    /// The retransmit window slides while a burst is still being
    /// consumed: a receiver handed a whole window in one `extract`
    /// acknowledges the first half from inside it, so the sender can
    /// refill that half while the second is still being drained.
    #[test]
    fn a_burst_is_acknowledged_by_halves_from_inside_extract() {
        use crate::device::{LoopbackDevice, LoopbackPair};
        type Engine = Fm2Engine<LoopbackDevice>;

        let window = crate::RetransmitConfig::default().window as usize;
        let (a, b) = LoopbackPair::new(4 * window);
        let profile = MachineProfile::ppro200_fm2();
        let s = Fm2Engine::with_reliability(a, profile, retransmit());
        let r = Fm2Engine::with_reliability(b, profile, retransmit());
        let exchange = |s: &Engine, r: &Engine| {
            s.with_device(|a| r.with_device(|b| LoopbackPair::deliver(a, b)));
        };
        let send = |s: &Engine| s.try_send_message(1, H, &[&[7]]).is_ok();
        let fill_window = |s: &Engine| {
            for _ in 0..window {
                assert!(send(s));
            }
            assert!(!send(s), "the window is closed");
        };

        // Half way through its second window the receiver's handler plays
        // the wire: whatever the receiver has queued reaches the sender,
        // which polls once and tries to send.
        let seen = Rc::new(Cell::new(0));
        let reopened = Rc::new(Cell::new(false));
        {
            let (s, rx) = (s.clone(), r.clone());
            let (seen, reopened) = (Rc::clone(&seen), Rc::clone(&reopened));
            r.set_fast_handler(H, move |_, _| {
                seen.set(seen.get() + 1);
                if seen.get() == window + window / 2 {
                    exchange(&s, &rx);
                    s.extract_all();
                    assert_eq!(s.unacked_packets(), window / 2);
                    reopened.set(send(&s));
                }
            });
        }

        // One extract over a queued window leaves two acks behind, one per
        // half — the second is the tail's, so the poll's end adds none.
        fill_window(&s);
        exchange(&s, &r);
        r.extract_all();
        assert_eq!(seen.get(), window);
        assert_eq!(r.stats().acks_sent, 2);
        let queued = |r: &Engine| r.with_device(|b| b.out_remove_for_test(0));
        assert_eq!(queued(&r).header.ack as usize, window / 2);
        let tail = queued(&r);
        assert_eq!(tail.header.ack as usize, window);
        assert_eq!(r.with_device(|b| b.send_space()), 4 * window);
        r.with_device(|b| b.try_send(tail)).unwrap();
        exchange(&s, &r);
        s.extract_all();
        assert_eq!(s.unacked_packets(), 0);

        // Again, with the wire played from inside the receiver's extract:
        // the sender's window reopened before that extract returned.
        fill_window(&s);
        exchange(&s, &r);
        r.extract_all();
        assert!(reopened.get(), "the first half was acknowledged mid-burst");
        assert_eq!(r.stats().acks_sent, 4);
    }

    /// A bounded NIC queue that counts how it is used. The counters are
    /// shared with the test, which also plays the NIC draining the queue
    /// — reading them through the engine's device accessor would make
    /// the core forget the room it remembers.
    #[derive(Default)]
    struct Nic {
        capacity: usize,
        queued: Cell<usize>,
        sends: Cell<usize>,
        space_calls: Cell<usize>,
    }

    struct CountingDevice(Rc<Nic>);

    impl NetDevice for CountingDevice {
        fn node_id(&self) -> usize {
            0
        }
        fn num_nodes(&self) -> usize {
            2
        }
        fn try_send(&mut self, _: FmPacket) -> Result<(), DeviceFull> {
            let nic = &self.0;
            assert!(nic.queued.get() < nic.capacity, "try_send on a full queue");
            nic.queued.set(nic.queued.get() + 1);
            nic.sends.set(nic.sends.get() + 1);
            Ok(())
        }
        fn try_recv(&mut self) -> Option<FmPacket> {
            None
        }
        fn send_space(&self) -> usize {
            let nic = &self.0;
            nic.space_calls.set(nic.space_calls.get() + 1);
            nic.capacity - nic.queued.get()
        }
        fn now(&self) -> Nanos {
            Nanos::ZERO
        }
        fn charge(&mut self, _: Nanos) {}
    }

    /// A burst asks the device for room once, not once per packet, and
    /// remembering the answer never sends into a full queue as long as
    /// the queue only drains behind the engine's back. `send` offers one
    /// all-or-nothing message of 32 packets.
    fn a_burst_asks_the_device_for_room_once(nic: &Nic, mut send: impl FnMut() -> bool) {
        assert!(send(), "48 slots take 32 packets");
        assert_eq!(nic.sends.get(), 32);
        assert!(
            nic.space_calls.get() <= 2,
            "{} send_space() calls for one 32-packet message",
            nic.space_calls.get()
        );

        // 16 slots left and remembered: too few, so the device is asked
        // again, says the same, and nothing is sent.
        let asked = nic.space_calls.get();
        assert!(!send(), "16 slots do not take 32 packets");
        assert_eq!(nic.sends.get(), 32);
        assert_eq!(nic.space_calls.get(), asked + 1);

        // The NIC drains 20: the stale 16 still cannot tell, the fresh
        // answer (36) can, and 32 more packets fit without one more
        // question — or one send into a full queue (the device asserts).
        nic.queued.set(nic.queued.get() - 20);
        assert!(send(), "36 slots take 32 packets");
        assert_eq!(nic.sends.get(), 64);
        assert_eq!(nic.space_calls.get(), asked + 2);
        assert_eq!(nic.queued.get(), 44);
    }

    fn nic() -> Rc<Nic> {
        Rc::new(Nic {
            capacity: 48,
            ..Nic::default()
        })
    }

    #[test]
    fn fm1_burst_asks_the_device_for_room_once() {
        let nic = nic();
        let profile = MachineProfile::sparc_fm1();
        let mut e = Fm1Engine::new(CountingDevice(Rc::clone(&nic)), profile);
        let msg = vec![7u8; 32 * profile.fm.mtu_payload];
        a_burst_asks_the_device_for_room_once(&nic, || e.try_send(1, H, &msg).is_ok());
        assert_eq!(e.stats().device_stalls, 1);
    }

    #[test]
    fn fm2_burst_asks_the_device_for_room_once() {
        let nic = nic();
        let profile = MachineProfile::ppro200_fm2();
        let e = Fm2Engine::new(CountingDevice(Rc::clone(&nic)), profile);
        let msg = vec![7u8; 32 * profile.fm.mtu_payload];
        a_burst_asks_the_device_for_room_once(&nic, || e.try_send_message(1, H, &[&msg]).is_ok());
        assert_eq!(e.stats().device_stalls, 1, "the preflight counts");
    }

    /// The streamed form claims room one packet at a time and still asks
    /// once per run of packets: once to start, once to find the queue
    /// full, and once more for the refused re-offer `try_send_rest` makes
    /// of a piece cut short.
    #[test]
    fn fm2_stream_asks_the_device_for_room_once_per_run() {
        let nic = nic();
        let profile = MachineProfile::ppro200_fm2();
        let e = Fm2Engine::new(CountingDevice(Rc::clone(&nic)), profile);
        let msg = vec![7u8; 60 * profile.fm.mtu_payload];
        let mut ss = e.begin_message(1, msg.len(), H);
        assert!(e.try_send_rest(&mut ss, &[&msg]).is_err());
        assert_eq!((nic.sends.get(), nic.space_calls.get()), (48, 3));
        nic.queued.set(nic.queued.get() - 5);
        assert!(e.try_send_rest(&mut ss, &[&msg]).is_err());
        assert_eq!((nic.sends.get(), nic.space_calls.get()), (53, 6));
        assert_eq!(e.stats().device_stalls, 4);
    }
}
