//! The engine core: what FM 1.x and FM 2.x share below their API faces.
//!
//! The paper's claim is that FM 2.x keeps FM 1.x's guarantees — reliable,
//! in-order delivery with sender flow control — and changes only the
//! interface above them. [`EngineCore`] is those guarantees, implemented
//! once: packet emission, receive admission, the reliability poll,
//! explicit credit return, the per-peer half of the membership drain and
//! the accounting around handlers. [`crate::Fm1Engine`] (the
//! contiguous-buffer face) and [`crate::Fm2Engine`] (the stream face) own
//! only what their APIs add on top.
//!
//! FM keeps its guarantees per peer, and so does the core: everything it
//! knows about one peer — the link's facts, the sequence numbers of both
//! streams, the credits and, over a link that may lose packets, the
//! retransmit state — is that peer's [`Peer`] record. A peer that
//! restarts gets a fresh record, in one assignment.
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
use crate::flow::{CreditWindow, Credits};
use crate::obs::{ObsEvent, ObsSink, SpanKind};
use crate::packet::{FmPacket, HandlerId, PacketFlags, PacketHeader};
use crate::reliable::{PeerRel, RecvDecision};
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
/// discipline handlers need: a handler is moved out while it runs (so it
/// may touch the engine, including re-registering itself) and put back
/// afterwards.
pub(crate) struct HandlerTable<T>(Vec<Option<T>>);

impl<T> HandlerTable<T> {
    pub(crate) fn new() -> Self {
        HandlerTable(Vec::new())
    }

    /// Register `h` under `id`; returns the handler it replaces.
    pub(crate) fn set(&mut self, id: HandlerId, h: T) -> Option<T> {
        let idx = id.0 as usize;
        if self.0.len() <= idx {
            self.0.resize_with(idx + 1, || None);
        }
        self.0[idx].replace(h)
    }

    pub(crate) fn get(&self, id: HandlerId) -> Option<&T> {
        self.0.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Every registered handler.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten()
    }

    /// Every registered handler.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.0.iter_mut().flatten()
    }

    pub(crate) fn take(&mut self, id: HandlerId) -> Option<T> {
        self.0.get_mut(id.0 as usize).and_then(Option::take)
    }

    /// Put back a handler moved out by [`HandlerTable::take`], unless it
    /// registered a replacement for itself while it ran; then it is
    /// returned.
    pub(crate) fn restore(&mut self, id: HandlerId, h: T) -> Option<T> {
        let slot = &mut self.0[id.0 as usize];
        if slot.is_some() {
            return Some(h);
        }
        *slot = Some(h);
        None
    }
}

/// What the engine knows about one peer, in one place. A restarted peer
/// gets a fresh one ([`Peer::fresh`]).
pub(crate) struct Peer {
    pub(crate) link: Link,
    pub(crate) seq: Seqs,
    /// Toward a trusted peer, its flow control; unused toward a lossy one.
    pub(crate) credits: Credits,
    /// Retransmission state toward a peer whose link may lose packets
    /// (`None` toward a trusted one): there it replaces the credits.
    /// Boxed, so every record is 56 bytes and the scan of the credit
    /// return, which runs at the end of every extract, stays short.
    pub(crate) rel: Option<Box<PeerRel>>,
}

/// What the device has said about the link to one peer.
pub(crate) struct Link {
    /// The largest packet payload toward the peer: the profile's MTU, or
    /// what a [`PeerEventKind::Link`] fact says the link carries.
    pub(crate) mtu: usize,
    /// The peer's pid, if the device reported it on this host
    /// ([`PeerEventKind::SameHost`]).
    pub(crate) pid: Option<u32>,
    /// Declared down by the device's liveness engine. Upper layers poll
    /// this to abort instead of spinning on a dead peer.
    pub(crate) down: bool,
}

/// The sequence numbers between this node and one peer, one counter per
/// direction: the credit path and the retransmit path read the same ones.
#[derive(Default)]
pub(crate) struct Seqs {
    /// Next packet sequence number to send.
    pub(crate) send_pkt: u32,
    /// Next message sequence number to send.
    pub(crate) send_msg: u32,
    /// Next packet sequence number expected; over a lossy link also the
    /// cumulative ack owed.
    pub(crate) recv_pkt: u32,
}

impl Peer {
    /// A peer before any fact or traffic: on the profile's `mtu`, no pid,
    /// up, every sequence number 0, the whole credit window, and — if its
    /// link is `lossy` — retransmit state with nothing in flight.
    fn fresh(mtu: usize, window: CreditWindow, lossy: bool) -> Peer {
        Peer {
            link: Link {
                mtu,
                pid: None,
                down: false,
            },
            seq: Seqs::default(),
            credits: window.fresh(),
            rel: lossy.then(|| Box::new(PeerRel::fresh(window.window()))),
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
    /// The credit window, the same toward every peer (and the retransmit
    /// window toward a lossy one).
    credit_window: CreditWindow,
    /// Everything the engine knows about each peer, by node id.
    pub(crate) peers: Vec<Peer>,
    /// Whether any peer's link may lose packets. If none may, the
    /// reliability poll has nothing to do and reads no clock.
    lossy: bool,
    /// The lossy source whose expected packet was last accepted with the
    /// next one already held: [`EngineCore::recv`] drains that run before
    /// the device is asked again, so at most one peer has a run pending.
    releasing: Option<usize>,
    /// Frame pool sized to the largest MTU of any link ([`Self::mtu`]):
    /// faces stage payload bytes directly into pooled frames, which then
    /// *become* packet payloads — steady-state sends never allocate.
    pub(crate) pool: BufPool,
    pub(crate) errors: Vec<FmError>,
    pub(crate) stats: FmStats,
    /// A handler is running: `FM_extract` must not be re-entered.
    pub(crate) in_extract: bool,
    /// Observability sink (`None` by default: recording is opt-in and a
    /// single branch per site when absent).
    pub(crate) obs: Option<ObsSink>,
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
    /// A core that retransmits, in a window of `credits_per_peer`, to
    /// the peers whose links may lose packets, and trusts the rest.
    pub(crate) fn new(device: D, profile: MachineProfile, costs: PacketCosts) -> Self {
        let credit_window = CreditWindow::new(profile.fm.credits_per_peer);
        let mtu = profile.fm.mtu_payload;
        let peers: Vec<Peer> = (0..device.num_nodes())
            .map(|peer| Peer::fresh(mtu, credit_window, device.is_lossy_to(peer)))
            .collect();
        EngineCore {
            device,
            room: 0,
            profile,
            costs,
            credit_window,
            lossy: peers.iter().any(|p| p.rel.is_some()),
            peers,
            releasing: None,
            pool: BufPool::new(mtu, SEND_POOL_FRAMES),
            errors: Vec::new(),
            stats: FmStats::default(),
            in_extract: false,
            obs: None,
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

    /// Engine counters (pool hit/miss counters folded in live, on top
    /// of those of any pool a larger link MTU retired).
    pub(crate) fn stats(&self) -> FmStats {
        let mut s = self.stats;
        let p = self.pool.stats();
        s.pool_hits += p.hits;
        s.pool_misses += p.misses;
        s
    }

    /// The largest payload a packet to `dst` may carry: what its link
    /// takes, as the device reported it, else the profile's MTU.
    #[inline]
    pub(crate) fn mtu(&self, dst: usize) -> usize {
        self.peers[dst].link.mtu
    }

    /// Record that the link to `peer` carries packets of up to
    /// `max_payload` bytes, growing the send pool's frames to match —
    /// once, here, never per message. Frames of the retired pool still
    /// in flight are freed by their last reader.
    fn set_mtu(&mut self, peer: usize, max_payload: u32) {
        assert!(max_payload > 0, "a link that carries no payload byte");
        let mtu = max_payload as usize;
        self.peers[peer].link.mtu = mtu;
        if mtu > self.pool.frame_capacity() {
            let retired = std::mem::replace(&mut self.pool, BufPool::new(mtu, SEND_POOL_FRAMES));
            let p = retired.stats();
            self.stats.pool_hits += p.hits;
            self.stats.pool_misses += p.misses;
        }
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
        self.peers.iter().any(|p| p.link.down)
    }

    /// The peers currently declared down, in node order.
    pub(crate) fn downed_peers(&self) -> Vec<usize> {
        let down = self.peers.iter().enumerate();
        down.filter_map(|(i, p)| p.link.down.then_some(i)).collect()
    }

    /// Data packets sent to lossy peers but not yet acknowledged (always
    /// 0 toward trusted ones).
    pub(crate) fn unacked_packets(&self) -> usize {
        let rels = self.peers.iter().filter_map(|p| p.rel.as_deref());
        rels.map(PeerRel::unacked_packets).sum()
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

    /// Claim room for `packets` data packets of message `msg_seq`
    /// (`msg_len` bytes) toward `dst` in the NIC queue and the
    /// flow-control window, all or nothing; each must then be handed to
    /// [`EngineCore::emit_data`]. A refusal claims nothing and is counted
    /// as the stall it is, once per refused call — a sender that polls
    /// until admitted counts every poll — and traced once per message, at
    /// its first refusal, so a traced run is not a record of its own
    /// spinning.
    #[inline]
    pub(crate) fn reserve(
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
            let p = &mut self.peers[dst];
            let open = match &p.rel {
                // A lossy link: the sliding window is the flow control.
                Some(rel) => rel.can_send(packets),
                None => self.costs.flow_control.is_none() || p.credits.try_reserve(packets),
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

    /// Open a `len`-byte message to `dst`: allocates its sequence number
    /// (0 for self-sends, which bypass the NIC) and traces the begin.
    #[inline]
    pub(crate) fn begin_message(&mut self, dst: usize, handler: HandlerId, len: usize) -> u32 {
        let msg_seq = if dst == self.device.node_id() {
            0
        } else {
            let seq = &mut self.peers[dst].seq;
            let s = seq.send_msg;
            seq.send_msg += 1;
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
        let p = &mut self.peers[dst];
        let (credits, ack) = match &mut p.rel {
            Some(rel) => (0, rel.piggyback_ack(&p.seq)),
            None => (p.credits.take_owed(), 0),
        };
        let pkt_seq = p.seq.send_pkt;
        p.seq.send_pkt = pkt_seq.wrapping_add(1);
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
        if let Some(rel) = &mut p.rel {
            rel.on_data_sent(&pkt, self.device.now());
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

    /// Send the standalone ack owed to `peer`, if one is: the one place an
    /// ack-only frame leaves from. A full NIC queue keeps the duty — the
    /// next call retries. Out of line: besides the poll it runs from
    /// `admit`, once per half window of a burst, and inlined there it cost
    /// the trusted receive path 4–6 % on the simulator workloads.
    #[inline(never)]
    fn send_due_ack(&mut self, peer: usize) {
        let due = self.peers[peer].rel.as_ref().is_some_and(|r| r.ack_due());
        if !due || !self.device_takes(1) {
            return;
        }
        let p = &mut self.peers[peer];
        let rel = p.rel.as_mut().expect("an ack is due");
        let (ack, sack) = rel.take_due_ack(&p.seq).expect("an ack is due");
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

    /// Housekeeping toward lossy peers: flush standalone acks, re-send
    /// the head packet of each timed-out peer, and arm the timer alarm.
    /// A trusted peer never owes an ack nor arms a timer, so an engine
    /// with no lossy peer leaves at the first branch.
    #[inline]
    pub(crate) fn reliability_poll(&mut self) {
        if !self.lossy {
            return;
        }
        // Standalone acks for one-sided traffic (piggybacking already
        // discharged the duty wherever reverse data flowed, and a burst
        // acknowledged its first halves from inside `admit`): the tail,
        // the SACK state, the answer to a duplicate.
        for peer in 0..self.peers.len() {
            self.send_due_ack(peer);
        }
        // A timeout costs one packet: the oldest unacknowledged,
        // whatever else the ring holds.
        let now = self.device.now();
        for peer in 0..self.peers.len() {
            let p = &mut self.peers[peer];
            let Some(rel) = p.rel.as_mut().filter(|r| r.timed_out(now)) else {
                continue;
            };
            let pkt = rel.on_timeout(&p.seq, now, &mut self.stats);
            let cwnd = rel.cwnd_packets();
            self.obs_emit(|t, me| {
                ObsEvent::new(t, me, SpanKind::RetransmitTimeout).peer(peer as u16)
            });
            if let Some(pkt) = pkt {
                if self.device_takes(1) {
                    self.resend(peer, pkt); // else the next timeout retries
                }
            }
            // The AIMD window the timeout halved.
            self.obs_emit(|t, me| {
                ObsEvent::new(t, me, SpanKind::CwndChange)
                    .peer(peer as u16)
                    .seq(cwnd)
            });
        }
        // Make sure we get polled again even on a quiet network.
        let deadlines = self.peers.iter().filter_map(|p| p.rel.as_ref()?.deadline());
        if let Some(at) = deadlines.min() {
            self.device.request_wake(at);
        }
    }

    /// Return owed credits in explicit credit-only packets to every peer
    /// past the lazy-return threshold (no reverse data piggybacked them
    /// first).
    #[inline]
    pub(crate) fn return_explicit_credits(&mut self) {
        // Per-peer index scan (not a collected iterator): this runs on
        // every extract/progress, and the datapath must stay
        // allocation-free.
        let window = self.credit_window;
        for peer in 0..self.peers.len() {
            if !self.peers[peer].credits.explicit_return_due(window) {
                continue;
            }
            if !self.device_takes(1) {
                return; // retry next time
            }
            let credits = self.peers[peer].credits.take_owed();
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
            // Where the peer lives and what its link carries, not
            // whether it lives: recorded, not traced.
            PeerEventKind::SameHost { pid } => {
                self.peers[peer].link.pid = Some(pid);
                return Some(ev);
            }
            PeerEventKind::Link { max_payload } => {
                self.set_mtu(peer, max_payload);
                return Some(ev);
            }
            PeerEventKind::Up => {
                self.peers[peer].link.down = false;
                SpanKind::PeerUp
            }
            // Liveness in doubt, protocol state intact: the AIMD window
            // is already shedding load toward a silent peer; nothing
            // structural to do.
            PeerEventKind::Suspect => SpanKind::PeerSuspect,
            PeerEventKind::Down => {
                // The link's facts end with the peer; its sequence
                // numbers stay, in case the same incarnation comes back.
                let p = &mut self.peers[peer];
                p.link = Link {
                    mtu: self.profile.fm.mtu_payload,
                    pid: None,
                    down: true,
                };
                // Stop the retransmit storm toward the corpse.
                if let Some(rel) = &mut p.rel {
                    rel.abandon();
                }
                SpanKind::PeerDown
            }
            PeerEventKind::Rejoining => {
                // The peer restarted: everything known of its old
                // incarnation is invalid. Both sides start over
                // symmetrically (the restarted peer from scratch by
                // construction); only whether its link may lose packets
                // carries over.
                let lossy = self.peers[peer].rel.is_some();
                self.peers[peer] =
                    Peer::fresh(self.profile.fm.mtu_payload, self.credit_window, lossy);
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
        if let Some(src) = self.releasing {
            // A released packet was charged for when it arrived.
            let rel = self.peers[src].rel.as_mut();
            if let Some(pkt) = rel.and_then(|r| r.take_released()) {
                return Some(pkt);
            }
            self.releasing = None;
        }
        let pkt = self.device.try_recv()?;
        self.device
            .charge(Nanos(self.profile.host.per_packet_recv_ns));
        Some(pkt)
    }

    /// Take the credit and ack frames waiting on the device, each charged
    /// and absorbed as an extract would ([`EngineCore::recv`] and
    /// [`EngineCore::admit`]), up to the first data packet. That one is
    /// returned admitted, for the face to deliver before it next reads the
    /// device; `None` when the device ran dry first, or the reliability
    /// sublayer withheld the data packet.
    #[inline]
    pub(crate) fn absorb_control(&mut self) -> Option<FmPacket> {
        loop {
            let pkt = self.recv()?;
            match self.admit(&pkt) {
                Admit::Control => {}
                Admit::Data { .. } => return Some(pkt),
                Admit::Withheld => return None,
            }
        }
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
        if self.peers[src].rel.is_some() {
            // A lossy link: ack/window bookkeeping replaces the credit
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
            let p = &mut self.peers[src];
            let rel = p.rel.as_mut().expect("a lossy peer");
            return match rel.accept(&mut p.seq, pkt, &mut self.stats) {
                RecvDecision::Accept => {
                    if rel.holds_next() {
                        self.releasing = Some(src);
                    }
                    self.stats.packets_received += 1;
                    // Half a window into a burst that is still being
                    // consumed, the ack — the sender's credit — goes now,
                    // not when this poll ends, so the window never closes
                    // on a receiver that keeps up.
                    if rel.ack_overdue(&p.seq) {
                        self.send_due_ack(src);
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
        let p = &mut self.peers[src];
        if credits && h.credits > 0 {
            p.credits
                .credit_returned(h.credits as u32, self.credit_window);
        }
        if !pkt.is_data() {
            return Admit::Control;
        }
        if credits {
            p.credits.packet_drained(self.credit_window);
        }
        // In-order guarantee check: on a trusted substrate a gap is a
        // violation to report, then resynchronize past.
        let expected = p.seq.recv_pkt;
        p.seq.recv_pkt = h.pkt_seq.wrapping_add(1);
        let gap = h.pkt_seq != expected;
        if gap {
            self.report_error(FmError::SequenceGap {
                src,
                expected,
                got: h.pkt_seq,
            });
        }
        self.stats.packets_received += 1;
        Admit::Data { gap }
    }

    /// Process the ack carried by a packet from `src` — cumulative, plus
    /// the SACK bitmap of a standalone one — fast-retransmitting every
    /// hole the bitmap exposes that is not already being repaired.
    fn absorb_ack(&mut self, src: usize, ack: u32, sack: u64) {
        let now = self.device.now();
        let rel = self.peers[src].rel.as_mut().expect("a lossy peer");
        let holes = rel.on_ack(ack, sack, now);
        if let Some(sample) = rel.take_rtt_sample() {
            let rto_us = (rel.current_rto_ns() / 1_000).min(u32::MAX as u64);
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
            let p = &mut self.peers[src];
            let rel = p.rel.as_mut().expect("a lossy peer");
            let Some(pkt) = rel.next_hole(&p.seq, now) else {
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

    /// Account the end of a message its handler took call by call: the
    /// receive counters and the trace span.
    #[inline]
    pub(crate) fn message_ended(
        &mut self,
        src: usize,
        handler: HandlerId,
        msg_seq: u32,
        msg_len: u32,
    ) {
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

#[cfg(test)]
mod tests {
    //! What the core guarantees, checked through *both* faces: one script,
    //! run once over `Fm1Engine` and once over `Fm2Engine`.

    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;
    use std::rc::Rc;

    use super::*;
    use crate::device::{DeviceFull, LoopbackDevice, LoopbackPair};
    use crate::{Fm1Engine, Fm2Engine, FmStream};

    const H: HandlerId = HandlerId(1);

    /// A scripted liveness-tracking device: the test queues packets and
    /// membership events by hand and checks what the engine does with
    /// them.
    struct ChurnDevice {
        node: usize,
        lossy: bool,
        inq: VecDeque<FmPacket>,
        out: Vec<FmPacket>,
        events: VecDeque<PeerEvent>,
        clock: Nanos,
    }

    impl ChurnDevice {
        fn new(node: usize, lossy: bool) -> ChurnDevice {
            ChurnDevice {
                node,
                lossy,
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
            self.lossy
        }
        fn poll_event(&mut self) -> Option<PeerEvent> {
            self.events.pop_front()
        }
    }

    /// The slice of either engine's API the shared script drives.
    trait Face {
        /// An engine on node 1, over a link that may lose packets if
        /// `lossy`, whose handler `H` logs the first byte of each message
        /// it is given.
        fn new(log: Rc<RefCell<Vec<u8>>>, lossy: bool) -> Self;
        fn dev<R>(&mut self, f: impl FnOnce(&mut ChurnDevice) -> R) -> R;
        fn core<R>(&self, f: impl FnOnce(&EngineCore<ChurnDevice>) -> R) -> R;
        fn extract(&mut self);
        fn progress(&mut self);
        fn send_byte(&mut self, dst: usize, val: u8);
        fn unacked(&self) -> usize;
        fn is_peer_down(&self, peer: usize) -> bool;
        fn downed_peers(&self) -> Vec<usize>;
        fn stats(&self) -> FmStats;
        fn take_errors(&mut self) -> Vec<FmError>;
    }

    impl Face for Fm1Engine<ChurnDevice> {
        fn new(log: Rc<RefCell<Vec<u8>>>, lossy: bool) -> Self {
            let profile = MachineProfile::sparc_fm1();
            let mut e = Fm1Engine::new(ChurnDevice::new(1, lossy), profile);
            e.set_handler(H, Box::new(move |_, _, msg| log.borrow_mut().push(msg[0])));
            e
        }
        fn dev<R>(&mut self, f: impl FnOnce(&mut ChurnDevice) -> R) -> R {
            f(self.device_mut())
        }
        fn core<R>(&self, f: impl FnOnce(&EngineCore<ChurnDevice>) -> R) -> R {
            f(self.core_for_test())
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
        fn new(log: Rc<RefCell<Vec<u8>>>, lossy: bool) -> Self {
            let profile = MachineProfile::ppro200_fm2();
            let e = Fm2Engine::new(ChurnDevice::new(1, lossy), profile);
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
        fn core<R>(&self, f: impl FnOnce(&EngineCore<ChurnDevice>) -> R) -> R {
            self.with_core_for_test(f)
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

    /// The facts a device reports about a same-host peer 0: its pid and
    /// a link that takes `LINK`-byte packets.
    fn same_host_facts() -> [PeerEvent; 2] {
        let link = PeerEventKind::Link { max_payload: LINK };
        [link, PeerEventKind::SameHost { pid: 7 }].map(event)
    }

    /// The fields of peer 0's record that differ from a fresh record's: a
    /// link on the profile's MTU with no pid and up, every sequence number
    /// 0, the whole credit window with nothing owed, and retransmit state
    /// (if any) with nothing sent or held.
    fn stale_fields(c: &EngineCore<ChurnDevice>) -> Vec<&'static str> {
        let p = &c.peers[0];
        let rel_fresh = p
            .rel
            .as_ref()
            .is_none_or(|r| r.unacked_packets() + r.held_packets() == 0);
        let fields = [
            ("mtu", p.link.mtu == c.profile.fm.mtu_payload),
            ("pid", p.link.pid.is_none()),
            ("down", !p.link.down),
            ("send_pkt", p.seq.send_pkt == 0),
            ("send_msg", p.seq.send_msg == 0),
            ("recv_pkt", p.seq.recv_pkt == 0),
            (
                "credits",
                p.credits.available() == c.profile.fm.credits_per_peer,
            ),
            ("owed", p.credits.owed() == 0),
            ("rel", rel_fresh),
        ];
        fields.iter().filter(|f| !f.1).map(|f| f.0).collect()
    }

    /// Rejoining resets every field of the peer's record and drops its
    /// half-received messages; Down stops retransmission and is
    /// queryable; Up clears it — and the engine keeps hearing the device
    /// throughout.
    fn peer_events_reset_per_peer_state<F: Face>(e: &mut F, seen: &RefCell<Vec<u8>>) {
        let whole = PacketFlags::FIRST | PacketFlags::LAST;

        // Old incarnation: the link's facts, seq 0 delivered, its
        // duplicate suppressed, and the first half of a two-packet
        // message left open.
        e.dev(|d| {
            d.events.extend(same_host_facts());
            d.inq.push_back(data(0, 0, 1, whole, 1));
        });
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
        // Over a lossy link the credits go unused.
        let stale = ["mtu", "pid", "send_pkt", "send_msg", "recv_pkt", "rel"];
        assert_eq!(e.core(stale_fields), stale);

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
        // The new incarnation's seq 0 and seq 1 moved the receive count
        // on; nothing else was carried over.
        assert_eq!(e.core(stale_fields), ["recv_pkt"]);
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

    /// Over a trusted link too, `Rejoining` resets every field of the
    /// peer's record, credits included: before it the link's facts have
    /// arrived, this side has spent credits and owes some, and every
    /// sequence number has moved on. (A trusted link reports a duplicate
    /// as a `SequenceGap`, so this script has none.)
    fn rejoining_resets_a_trusted_peers_record<F: Face>(e: &mut F, seen: &RefCell<Vec<u8>>) {
        let whole = PacketFlags::FIRST | PacketFlags::LAST;
        e.dev(|d| {
            d.events.extend(same_host_facts());
            d.inq.push_back(data(0, 0, 1, whole, 1));
        });
        e.extract();
        // The send spends a credit and takes the one owed; the open
        // half-message owes another.
        e.send_byte(0, 9);
        e.dev(|d| d.inq.push_back(data(1, 1, 2, PacketFlags::FIRST, 5)));
        e.extract();
        let stale = [
            "mtu", "pid", "send_pkt", "send_msg", "recv_pkt", "credits", "owed",
        ];
        assert_eq!(e.core(stale_fields), stale);

        e.dev(|d| d.events.push_back(event(PeerEventKind::Rejoining)));
        e.progress();
        assert_eq!(e.core(stale_fields), Vec::<&str>::new());
        // The new incarnation's seq 0 is the expected packet.
        e.dev(|d| d.inq.push_back(data(0, 0, 1, whole, 7)));
        e.extract();
        assert_eq!(*seen.borrow(), vec![1, 7]);
        assert!(e.take_errors().is_empty());

        // A peer that went down and restarts comes back up.
        e.dev(|d| {
            d.events.push_back(event(PeerEventKind::Down));
            d.events.push_back(event(PeerEventKind::Rejoining));
        });
        e.progress();
        assert!(!e.is_peer_down(0));
        assert_eq!(e.core(stale_fields), Vec::<&str>::new());
        assert_eq!(e.stats().peer_resets, 2);
    }

    #[test]
    fn fm1_peer_events_reset_per_peer_state() {
        let seen: Rc<RefCell<Vec<u8>>> = Rc::default();
        let mut e = <Fm1Engine<ChurnDevice> as Face>::new(Rc::clone(&seen), true);
        peer_events_reset_per_peer_state(&mut e, &seen);

        let seen: Rc<RefCell<Vec<u8>>> = Rc::default();
        let mut e = <Fm1Engine<ChurnDevice> as Face>::new(Rc::clone(&seen), false);
        rejoining_resets_a_trusted_peers_record(&mut e, &seen);
    }

    #[test]
    fn fm2_peer_events_reset_per_peer_state_and_fire_the_peer_handler() {
        let seen: Rc<RefCell<Vec<u8>>> = Rc::default();
        let mut e = <Fm2Engine<ChurnDevice> as Face>::new(Rc::clone(&seen), true);
        let log: Rc<RefCell<Vec<PeerEventKind>>> = Rc::default();
        {
            let l = Rc::clone(&log);
            e.set_peer_handler(move |ev| l.borrow_mut().push(ev.kind));
        }
        peer_events_reset_per_peer_state(&mut e, &seen);
        assert_eq!(e.pending_handlers(), 0, "no task outlived its peer");
        let [link, same_host] = same_host_facts().map(|ev| ev.kind);
        assert_eq!(
            *log.borrow(),
            vec![
                link,
                same_host,
                PeerEventKind::Rejoining,
                PeerEventKind::Down,
                PeerEventKind::Up
            ],
            "callback saw every transition, in order"
        );

        let seen: Rc<RefCell<Vec<u8>>> = Rc::default();
        let mut e = <Fm2Engine<ChurnDevice> as Face>::new(Rc::clone(&seen), false);
        rejoining_resets_a_trusted_peers_record(&mut e, &seen);
        assert_eq!(e.pending_handlers(), 0, "no task outlived its peer");
    }

    /// The retransmit window slides while a burst is still being
    /// consumed: a receiver handed a whole window in one `extract`
    /// acknowledges the first half from inside it, so the sender can
    /// refill that half while the second is still being drained.
    #[test]
    fn a_burst_is_acknowledged_by_halves_from_inside_extract() {
        type Engine = Fm2Engine<LoopbackDevice>;

        let profile = MachineProfile::ppro200_fm2();
        let window = profile.fm.credits_per_peer as usize;
        let (a, b) = LoopbackPair::lossy(4 * window);
        let s = Fm2Engine::new(a, profile);
        let r = Fm2Engine::new(b, profile);
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
        /// Calls of `now()`: the clock reads of the engine above.
        now_calls: Cell<usize>,
        /// Packets waiting to be received.
        inbox: RefCell<VecDeque<FmPacket>>,
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
            self.0.inbox.borrow_mut().pop_front()
        }
        fn send_space(&self) -> usize {
            let nic = &self.0;
            nic.space_calls.set(nic.space_calls.get() + 1);
            nic.capacity - nic.queued.get()
        }
        fn now(&self) -> Nanos {
            self.0.now_calls.set(self.0.now_calls.get() + 1);
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
        // Asked once at construction: the send queue's idle-uplink mark.
        let built = nic.space_calls.get();
        let msg = vec![7u8; 60 * profile.fm.mtu_payload];
        let mut ss = e.begin_message(1, msg.len(), H);
        assert!(e.try_send_rest(&mut ss, &[&msg]).is_err());
        assert_eq!((nic.sends.get(), nic.space_calls.get() - built), (48, 3));
        nic.queued.set(nic.queued.get() - 5);
        assert!(e.try_send_rest(&mut ss, &[&msg]).is_err());
        assert_eq!((nic.sends.get(), nic.space_calls.get() - built), (53, 6));
        assert_eq!(e.stats().device_stalls, 4);
    }

    /// One step of [`a_trusted_engine_never_reads_the_clock`].
    enum Step {
        /// Send a one-byte message to node 1.
        Send,
        /// Extract everything that has arrived.
        Extract,
    }

    /// Over links that are all trusted, a packet leaves and arrives with
    /// no timestamp and the reliability poll leaves at its first branch:
    /// neither sends nor extracts read the clock. 48 one-packet messages
    /// arrive from node 1, enough to owe an explicit credit return, and 8
    /// go out.
    fn a_trusted_engine_never_reads_the_clock(nic: &Nic, mut step: impl FnMut(Step)) {
        let inbound = |i: u32| FmPacket {
            header: PacketHeader {
                src: 1,
                dst: 0,
                handler: H,
                msg_seq: i,
                pkt_seq: i,
                msg_len: 1,
                flags: PacketFlags::FIRST | PacketFlags::LAST,
                credits: 0,
                ack: 0,
            },
            payload: vec![i as u8].into(),
        };
        nic.now_calls.set(0);
        nic.inbox.borrow_mut().extend((0..40).map(inbound));
        step(Step::Extract);
        for _ in 0..8 {
            step(Step::Send);
        }
        nic.inbox.borrow_mut().extend((40..48).map(inbound));
        step(Step::Extract);
        assert_eq!(nic.sends.get(), 9, "a credit return and 8 messages");
        assert_eq!(nic.now_calls.get(), 0, "clock reads on a trusted datapath");
    }

    #[test]
    fn fm1_trusted_engine_never_reads_the_clock() {
        let nic = nic();
        let mut e = Fm1Engine::new(CountingDevice(Rc::clone(&nic)), MachineProfile::sparc_fm1());
        e.set_handler(H, Box::new(|_, _, _| {}));
        a_trusted_engine_never_reads_the_clock(&nic, |step| match step {
            Step::Send => e.try_send(1, H, &[7]).unwrap(),
            Step::Extract => {
                e.extract();
            }
        });
        assert_eq!(e.stats().messages_received, 48);
        assert_eq!(e.stats().credit_packets_sent, 1);
    }

    #[test]
    fn fm2_trusted_engine_never_reads_the_clock() {
        let nic = nic();
        let e = Fm2Engine::new(
            CountingDevice(Rc::clone(&nic)),
            MachineProfile::ppro200_fm2(),
        );
        e.set_fast_handler(H, |_, _| {});
        a_trusted_engine_never_reads_the_clock(&nic, |step| match step {
            Step::Send => e.try_send_message(1, H, &[&[7]]).unwrap(),
            Step::Extract => {
                e.extract_all();
            }
        });
        assert_eq!(e.stats().messages_received, 48);
        assert_eq!(e.stats().credit_packets_sent, 1);
    }

    // ------------------------------------------------------------------
    // Packet size follows the link
    // ------------------------------------------------------------------

    /// The packet payload fm-shm's default ring slot carries.
    const LINK: u32 = 4072;

    /// What a real link tells an engine about its peer `peer`'s packets.
    fn link(peer: usize) -> PeerEvent {
        PeerEvent {
            peer,
            kind: PeerEventKind::Link { max_payload: LINK },
            epoch: 0,
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Every message a receiver was handed, whole, in order.
    type Log = Rc<RefCell<Vec<Vec<u8>>>>;

    /// A FM 2.x sender (node 0) and a receiver (node 1) that logs every
    /// message it is handed.
    fn fm2_pair() -> (Fm2Engine<LoopbackDevice>, Fm2Engine<LoopbackDevice>, Log) {
        let (a, b) = LoopbackPair::new(256);
        let profile = MachineProfile::ppro200_fm2();
        let (s, r) = (Fm2Engine::new(a, profile), Fm2Engine::new(b, profile));
        let got: Log = Rc::default();
        let log = Rc::clone(&got);
        r.set_handler(H, move |stream: FmStream, _| {
            let log = Rc::clone(&log);
            async move {
                let msg = stream.receive_vec(stream.msg_len()).await;
                log.borrow_mut().push(msg);
            }
        });
        (s, r, got)
    }

    /// Tell `e` what its device reports and let it drain the event.
    fn fm2_told(e: &Fm2Engine<LoopbackDevice>, ev: PeerEvent) {
        e.with_device(|d| d.report(ev));
        e.progress();
    }

    fn fm2_deliver(s: &Fm2Engine<LoopbackDevice>, r: &Fm2Engine<LoopbackDevice>) {
        s.with_device(|a| r.with_device(|b| LoopbackPair::deliver(a, b)));
        r.extract_all();
        s.extract_all();
    }

    /// Data packets `send` puts on the wire.
    fn fm2_packets(e: &Fm2Engine<LoopbackDevice>, send: impl FnOnce()) -> u64 {
        let before = e.stats().packets_sent;
        send();
        e.stats().packets_sent - before
    }

    /// A 2 KB message and one with MPI-FM's 24-byte header on it are one
    /// packet each to a peer whose link takes 4072 bytes, by either send
    /// form, and two and three to a peer with no such fact; the receiver,
    /// which was told nothing, takes both sizes.
    #[test]
    fn fm2_a_message_leaves_in_packets_of_its_links_size() {
        let (s, r, got) = fm2_pair();
        let mtu = s.profile().fm.mtu_payload;
        let (two_k, with_hdr) = (pattern(2048), pattern(2072));
        let whole = |m: &[u8]| fm2_packets(&s, || s.try_send_message(1, H, &[m]).unwrap());
        let streamed = |m: &[u8]| {
            fm2_packets(&s, || {
                let mut ss = s.begin_message(1, m.len(), H);
                let (hdr, body) = m.split_at(24);
                s.try_send_rest(&mut ss, &[hdr, body]).unwrap();
            })
        };
        assert_eq!(whole(&two_k), 2048u64.div_ceil(mtu as u64), "no fact yet");
        assert_eq!(streamed(&with_hdr), 3, "no fact yet");
        fm2_told(&s, link(1));
        assert_eq!(whole(&two_k), 1);
        assert_eq!(whole(&with_hdr), 1);
        assert_eq!(streamed(&with_hdr), 1);
        let at_link = pattern(LINK as usize);
        assert_eq!(streamed(&at_link), 1, "a full link MTU is one packet");
        assert_eq!(whole(&pattern(LINK as usize + 1)), 2);
        fm2_deliver(&s, &r);
        let sent = [&two_k, &with_hdr, &two_k, &with_hdr, &with_hdr, &at_link];
        assert_eq!(got.borrow()[..6], sent.map(|m| m.clone()));
        assert_eq!(got.borrow()[6], pattern(LINK as usize + 1));
        assert!(r.take_errors().is_empty());
    }

    /// The link's size is fixed for a message when it opens: one opened
    /// before the fact finishes in profile-MTU packets and arrives
    /// intact, and the next one takes the link's size.
    #[test]
    fn fm2_a_message_opened_before_the_fact_finishes_at_the_profile_mtu() {
        let (s, r, got) = fm2_pair();
        let msg = pattern(2072);
        let (head, tail) = msg.split_at(100);
        let early = fm2_packets(&s, || {
            let mut ss = s.begin_message(1, msg.len(), H);
            assert_eq!(s.try_send_piece(&mut ss, head), Ok(head.len()));
            fm2_told(&s, link(1));
            s.try_send_rest(&mut ss, &[head, tail]).unwrap();
        });
        assert_eq!(early, 3, "1024 + 1024 + 24");
        let late = fm2_packets(&s, || s.try_send_message(1, H, &[&msg]).unwrap());
        assert_eq!(late, 1);
        fm2_deliver(&s, &r);
        assert_eq!(*got.borrow(), vec![msg.clone(), msg]);
    }

    /// `Down` and `Rejoining` end the fact, and with it the link's size:
    /// the peer is back on the profile MTU until the device says again.
    #[test]
    fn fm2_down_and_rejoining_return_the_peer_to_the_profile_mtu() {
        let (s, _r, _) = fm2_pair();
        let msg = pattern(2048);
        let send = || fm2_packets(&s, || s.try_send_message(1, H, &[&msg]).unwrap());
        let event = |kind| PeerEvent {
            peer: 1,
            kind,
            epoch: 0,
        };
        fm2_told(&s, link(1));
        assert_eq!(send(), 1);
        fm2_told(&s, event(PeerEventKind::Down));
        assert_eq!(send(), 2, "down");
        fm2_told(&s, event(PeerEventKind::Up));
        assert_eq!(send(), 2, "up again, but no link size yet");
        fm2_told(&s, event(PeerEventKind::SameHost { pid: 1 }));
        fm2_told(&s, link(1));
        assert_eq!(send(), 1);
        fm2_told(&s, event(PeerEventKind::Rejoining));
        assert_eq!(send(), 2, "a new incarnation");
        assert_eq!(s.same_host_pid(1), None);
    }

    /// Where a peer lives and what its link carries are two facts: a
    /// `SameHost` alone leaves the packet size at the profile's MTU, and
    /// a `Link` alone makes no peer's memory readable.
    #[test]
    fn fm2_same_host_and_link_size_are_separate_facts() {
        let (s, _r, _) = fm2_pair();
        let msg = pattern(2048);
        let send = || fm2_packets(&s, || s.try_send_message(1, H, &[&msg]).unwrap());
        fm2_told(
            &s,
            PeerEvent {
                peer: 1,
                kind: PeerEventKind::SameHost { pid: 7 },
                epoch: 0,
            },
        );
        assert_eq!(s.same_host_pid(1), Some(7));
        assert_eq!(send(), 2, "a same-host peer at the profile MTU");
        let (s, _r, _) = fm2_pair();
        fm2_told(&s, link(1));
        assert_eq!(
            s.same_host_pid(1),
            None,
            "a link size says nothing of place"
        );
        assert_eq!(
            fm2_packets(&s, || s.try_send_message(1, H, &[&msg]).unwrap()),
            1
        );
    }

    /// FM 1.x's `FM_send` follows the same rule: with the fact, a 2 KB
    /// message and a 2072-byte one are one packet each, where its own
    /// 128-byte profile MTU would cut them in 16 and 17; `Down` ends it.
    #[test]
    fn fm1_a_message_leaves_in_packets_of_its_links_size() {
        let (a, b) = LoopbackPair::new(256);
        let profile = MachineProfile::sparc_fm1();
        let mut s = Fm1Engine::new(a, profile);
        let mut r = Fm1Engine::new(b, profile);
        let got: Log = Rc::default();
        let log = Rc::clone(&got);
        r.set_handler(
            H,
            Box::new(move |_, _, msg| log.borrow_mut().push(msg.to_vec())),
        );
        let send = |s: &mut Fm1Engine<LoopbackDevice>, m: &[u8]| {
            let before = s.stats().packets_sent;
            s.try_send(1, H, m).unwrap();
            s.stats().packets_sent - before
        };
        let (two_k, with_hdr) = (pattern(2048), pattern(2072));
        assert_eq!(send(&mut s, &two_k), 16, "no fact yet");
        s.device_mut().report(link(1));
        s.progress();
        assert_eq!(send(&mut s, &two_k), 1);
        assert_eq!(send(&mut s, &with_hdr), 1);
        LoopbackPair::deliver(s.device_mut(), r.device_mut());
        r.extract();
        assert_eq!(*got.borrow(), vec![two_k.clone(), two_k, with_hdr.clone()]);
        s.device_mut().report(PeerEvent {
            peer: 1,
            kind: PeerEventKind::Down,
            epoch: 0,
        });
        s.progress();
        assert_eq!(send(&mut s, &with_hdr), 17, "down");
    }
}
