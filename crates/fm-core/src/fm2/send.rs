//! The FM 2.x send side: `FM_begin_message` / `FM_send_piece` /
//! `FM_end_message`, the two gather conveniences built on them, and the
//! engine's queue of the sends FM cannot admit yet.
//!
//! A send waits in that queue when it comes from a handler
//! ([`Fm2Engine::send_from_handler`], which always queues: handlers
//! cannot block on credits) or when FM refuses it whole
//! ([`Fm2Engine::send_or_queue`], which sends at once when it can). The
//! queue is one FIFO per destination with an arrival stamp on every
//! entry; a pass serves the heads oldest first, and stops at a stalled
//! head while the NIC still holds packets (DESIGN.md §5, decision 7). A
//! send that has to queue first takes the credits already waiting on the
//! device, so a burst of sends refills the window its peer reopened.
//! Layers above keep no send queue of their own: MPI-FM 2.x's sends and
//! CTSs wait here beside the handler replies of `shmem` and sockets, and
//! so does everything the one-sided port sends — puts, gets, DATA and
//! FINs. A one-sided entry is chunked (one message per chunk, each under
//! the entry's header), its body may be a window of a registered region
//! that the port lends when FM admits the bytes ([`Lender`]), and when
//! it reaches the head the port decides whether it leaves as one PULL
//! header instead, and whether it then waits there for its answer.
//!
//! [`Fm2Engine::try_send_rest`] is the one resume loop in the tree: this
//! queue's pass parks a [`SendStream`] and calls it again with the same
//! piece list; no caller keeps a byte or piece cursor of its own.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use fm_model::Nanos;

use crate::buf::PacketBuf;
use crate::device::NetDevice;
use crate::engine::{EngineCore, Stall};
use crate::error::WouldBlock;
use crate::obs::{ObsEvent, SpanKind};
use crate::packet::{HandlerId, PacketFlags};

use super::engine::Fm2Engine;
use super::sendstream::SendStream;

/// Header bytes a queued entry keeps inline: MPI-FM's header and
/// `shmem`'s op are 24 bytes, a one-sided op header 40.
pub const INLINE_HEAD: usize = 40;

/// A message handed to the engine whole: a short header and an owned
/// body, sent as the two pieces of one gather message — no assembly
/// copy. If it has to wait in the send queue, the header is copied
/// inline and the body moved, so queuing allocates nothing the caller
/// did not hand over.
pub struct Message<'a> {
    head: &'a [u8],
    body: Option<Vec<u8>>,
}

impl<'a> Message<'a> {
    /// `head` ⧺ `body`; `None` for a message that is its header alone,
    /// which offers FM one piece (a body is offered even when empty).
    ///
    /// # Panics
    /// Panics if `head` is longer than [`INLINE_HEAD`].
    #[inline]
    pub fn new(head: &'a [u8], body: Option<Vec<u8>>) -> Self {
        assert!(head.len() <= INLINE_HEAD, "header too long to hold inline");
        Message { head, body }
    }
}

/// A body alone, as a handler's reply usually is.
impl From<Vec<u8>> for Message<'_> {
    fn from(body: Vec<u8>) -> Self {
        Message::new(&[], Some(body))
    }
}

/// Run `f` over a message's pieces: the header, then the body if any.
fn with_pieces<R>(head: &[u8], body: &Option<Vec<u8>>, f: impl FnOnce(&[&[u8]]) -> R) -> R {
    match body {
        Some(body) => f(&[head, body]),
        None => f(&[head]),
    }
}

/// Set by the engine once a message given to
/// [`Fm2Engine::send_or_queue`] is wholly handed to FM; shared with
/// whoever waits on that (MPI-FM's send requests).
pub type SentFlag = Rc<Cell<bool>>;

/// What a queued entry sends after its header.
pub(crate) enum Body {
    /// Bytes the entry owns: a layer's message body, or a put's copy.
    Owned(Vec<u8>),
    /// `len` bytes at `offset` of the lender's registered region `slot`,
    /// pinned while the entry holds them and read when FM admits them.
    Window {
        slot: u32,
        offset: usize,
        len: usize,
    },
}

impl Body {
    pub(crate) fn len(&self) -> usize {
        match self {
            Body::Owned(v) => v.len(),
            Body::Window { len, .. } => *len,
        }
    }
}

/// The engine's one-sided port as its send queue sees it: it lends the
/// bytes of [`Body::Window`] entries, and it decides, when an entry
/// longer than its chunk reaches the head of a same-host peer's FIFO,
/// whether the entry leaves as one PULL header that the peer answers
/// with a FIN. The pulled entry stays with the queue until that FIN:
/// the first pull to a peer, the probe, waits at the head — a stalled
/// head like a closed credit window, so that a declined probe still
/// goes as packets ahead of everything behind it — and any later one
/// is set aside. A pass calls these with the queue borrowed; only
/// `reset`, called with it free, touches the queue.
pub(crate) trait Lender {
    /// Run `f` over the `len` bytes at `offset` of the pinned region `slot`.
    fn lend(&self, slot: u32, offset: usize, len: usize, f: &mut Resume) -> Result<(), WouldBlock>;
    /// An entry's window went out whole: unpin the region `slot`.
    fn release(&self, slot: u32);
    /// The PULL `e` leaves as toward same-host `dst`, and whether it is
    /// the probe; `None` if `dst` cannot read this process.
    fn pull(&self, dst: usize, e: &Queued) -> Option<([u8; INLINE_HEAD], bool)>;
    /// `peer` went down or restarted, and the queue is about to drop
    /// what waits for it: take back the lender's own entries and end
    /// its ops to `peer`.
    fn reset(&self, peer: usize);
}

/// What [`Lender::lend`] runs over a window: the resumed send of one
/// chunk message.
pub(crate) type Resume<'a> = dyn FnMut(&[u8]) -> Result<(), WouldBlock> + 'a;

/// A send FM could not admit yet, behind the earlier ones to its peer
/// in the engine's queue: one FIFO per destination. FM's delivery order
/// is per (source, destination) pair, so a send stalled on one peer's
/// credit window holds back only the later sends *to that peer*, and
/// another peer's open window can soak up the uplink time the stall
/// would otherwise waste. Queued sends *stream*: each attempt resumes the
/// open message with `try_send_rest`, which pushes as many packets as
/// credits allow, so a message of any size (even larger than the credit
/// window) completes.
pub(crate) struct Queued {
    /// Arrival order over all peers: a pass visits heads oldest first.
    stamp: u64,
    pub(crate) handler: HandlerId,
    head: [u8; INLINE_HEAD],
    head_len: u8,
    pub(crate) body: Body,
    /// Body bytes per message: the entry is `body.len() / chunk`
    /// messages rounded up, one at least, each its header ⧺ the next
    /// slice of the body. A layer's [`Message`] is one.
    chunk: usize,
    /// Body bytes in messages wholly handed to FM.
    at: usize,
    pub(crate) sent: Option<SentFlag>,
    /// The open message once sending has started; it alone knows how
    /// far the message got.
    started: Option<SendStream>,
    /// A probe whose PULL is out: the head stalls until its answer.
    waiting: bool,
    /// An answer to the peer (a one-sided FIN), queued ahead of a
    /// waiting probe.
    answer: bool,
}

impl Queued {
    /// `head` ⧺ `body`, in messages of `chunk` body bytes each; `sent`
    /// is set once the entry is wholly handed over.
    #[inline]
    pub(crate) fn new(
        handler: HandlerId,
        head: &[u8],
        body: Body,
        chunk: usize,
        sent: Option<SentFlag>,
    ) -> Self {
        let mut inline = [0u8; INLINE_HEAD];
        inline[..head.len()].copy_from_slice(head);
        Queued {
            stamp: 0,
            handler,
            head: inline,
            head_len: head.len() as u8,
            body,
            chunk,
            at: 0,
            sent,
            started: None,
            waiting: false,
            answer: false,
        }
    }

    pub(crate) fn head(&self) -> &[u8] {
        &self.head[..self.head_len as usize]
    }
}

/// The engine's sends FM could not admit yet: one FIFO of [`Queued`]
/// per destination. It sits in a cell of its own so that a pass keeps it
/// borrowed while it calls FM.
pub(crate) struct SendQueue {
    pub(super) fifos: Vec<VecDeque<Queued>>,
    /// Entries over all FIFOs: a pass over an empty queue is one check.
    len: usize,
    next_stamp: u64,
    /// Pulled entries other than the probes, set aside since their PULL
    /// left until its FIN: (destination, entry).
    pub(crate) pulled: Vec<(usize, Queued)>,
    /// The engine's one-sided port, once it has one.
    pub(crate) lender: Option<Weak<dyn Lender>>,
    /// Test probes: heads a pass looked at (the complexity pin), and
    /// whether passes run the arrival-order scan this scheduler replaced
    /// (the reference model).
    #[cfg(test)]
    pub(super) visits: u64,
    #[cfg(test)]
    pub(super) arrival_scan: bool,
}

impl SendQueue {
    pub(super) fn new(num_nodes: usize) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(SendQueue {
            fifos: (0..num_nodes).map(|_| VecDeque::new()).collect(),
            len: 0,
            next_stamp: 0,
            pulled: Vec::new(),
            lender: None,
            #[cfg(test)]
            visits: 0,
            #[cfg(test)]
            arrival_scan: false,
        }))
    }

    /// Queue `e` for `dst` behind what waits there.
    #[inline]
    pub(crate) fn push(&mut self, dst: usize, mut e: Queued) {
        (e.stamp, self.next_stamp) = (self.next_stamp, self.next_stamp + 1);
        self.len += 1;
        self.fifos[dst].push_back(e);
    }

    /// Queue `e`, an answer to `dst` (a one-sided FIN), behind what waits
    /// there — but just ahead of a waiting probe: the probe waits for the
    /// peer's answer, and the peer's own probe may be waiting for this one.
    pub(crate) fn push_answer(&mut self, dst: usize, e: Queued) {
        let probe = self.probe_at(dst);
        self.push(dst, Queued { answer: true, ..e });
        if let Some(at) = probe {
            let e = self.fifos[dst].pop_back().expect("pushed above");
            self.fifos[dst].insert(at, e);
        }
    }

    /// Where `dst`'s waiting probe is: behind the answers queued ahead
    /// of it, and nothing else.
    fn probe_at(&self, dst: usize) -> Option<usize> {
        let fifo = &self.fifos[dst];
        let at = fifo.iter().position(|e| !e.answer);
        at.filter(|&i| fifo[i].waiting)
    }

    /// Take out the pulled entry to `dst` that `is` picks: the probe
    /// waiting at the head, or one set aside.
    pub(crate) fn take_pulled(
        &mut self,
        dst: usize,
        is: impl Fn(&Queued) -> bool,
    ) -> Option<Queued> {
        if let Some(i) = self.probe_at(dst).filter(|&i| is(&self.fifos[dst][i])) {
            self.len -= 1;
            return self.fifos[dst].remove(i);
        }
        let i = (self.pulled.iter()).position(|(p, e)| *p == dst && is(e))?;
        Some(self.pulled.swap_remove(i).1)
    }

    /// Put the pulled entry `e` back at the head of `dst`'s FIFO, to go
    /// again as packets.
    pub(crate) fn push_front(&mut self, dst: usize, e: Queued) {
        self.len += 1;
        self.fifos[dst].push_front(Queued {
            waiting: false,
            ..e
        });
    }

    /// The head of `dst`'s FIFO is done with: take it out.
    fn pop(&mut self, dst: usize) -> Queued {
        self.len -= 1;
        self.fifos[dst].pop_front().expect("a queued head")
    }

    /// Drop the entries for `dst`, pulled ones included, that `drop`
    /// picks.
    pub(crate) fn purge(&mut self, dst: usize, mut drop: impl FnMut(&Queued) -> bool) {
        let fifo = &mut self.fifos[dst];
        let before = fifo.len();
        fifo.retain(|e| !drop(e));
        self.len -= before - fifo.len();
        self.pulled.retain(|(p, e)| *p != dst || !drop(e));
    }

    /// Whether nothing waits to be sent to any peer.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<D: NetDevice> Fm2Engine<D> {
    /// `FM_begin_message`: open a `len`-byte message to `dst`, to be
    /// handled there by `handler`.
    pub fn begin_message(&self, dst: usize, len: usize, handler: HandlerId) -> SendStream {
        let mut inner = self.inner.borrow_mut();
        let core = &mut inner.core;
        core.device.charge(Nanos(core.profile.host.send_call_ns));
        let local = dst == core.device.node_id();
        let msg_seq = core.begin_message(dst, handler, len);
        SendStream {
            dst,
            handler,
            msg_seq,
            msg_len: len as u32,
            accepted: 0,
            mtu: core.mtu(dst),
            // Local sends stage the whole message in one exact-size
            // frame; network sends fill pool frames lazily, one link MTU
            // each, in `try_send_piece`.
            pending: if local {
                PacketBuf::with_capacity(len)
            } else {
                PacketBuf::empty()
            },
            first_flushed: false,
            ended: false,
            local,
            claimed: 0,
        }
    }

    /// `FM_send_piece`: append `data` to the open message. Pieces can be
    /// any size; packetization is transparent.
    ///
    /// Non-blocking: returns the number of bytes accepted, which may be
    /// less than `data.len()` (or `Err(WouldBlock)` if zero) when
    /// flow-control credits or NIC space run out mid-message. Already-
    /// accepted bytes stay accepted; retry with the rest after the next
    /// `extract`.
    ///
    /// # Panics
    /// Panics if the message was already ended or `data` exceeds the
    /// declared message length.
    pub fn try_send_piece(&self, ss: &mut SendStream, data: &[u8]) -> Result<usize, WouldBlock> {
        assert!(!ss.ended, "FM_send_piece after FM_end_message");
        assert!(
            ss.accepted + data.len() <= ss.msg_len as usize,
            "piece overflows the declared message length ({} + {} > {})",
            ss.accepted,
            data.len(),
            ss.msg_len
        );
        // One borrow for the whole piece; frames come straight from the
        // core's pool (a clone of the handle is two atomic RMWs a call).
        let mut inner = self.inner.borrow_mut();
        let core = &mut inner.core;
        core.device.charge(Nanos(core.profile.host.piece_call_ns));
        if ss.local {
            ss.pending.extend_from_slice(data);
            ss.accepted += data.len();
            core.obs_emit(|t, me| {
                ObsEvent::new(t, me, SpanKind::SendPiece)
                    .peer(me)
                    .handler(ss.handler.0)
                    .msg_seq(ss.msg_seq)
                    .bytes(data.len() as u32)
            });
            return Ok(data.len());
        }
        let mtu = ss.mtu;
        let mut offset = 0;
        while offset < data.len() {
            if ss.pending.len() == mtu && !Self::flush_packet(core, ss, false) {
                break;
            }
            if ss.pending.is_detached() {
                // First piece of a fresh packet: stage it inline when it
                // is small, else in a recycled frame (flushing hands the
                // previous one to the packet wholesale).
                let len = mtu.min(ss.msg_len as usize - ss.accepted);
                ss.pending = PacketBuf::for_len(&core.pool, len);
            }
            let space = mtu - ss.pending.len();
            let take = space.min(data.len() - offset);
            ss.pending.extend_from_slice(&data[offset..offset + take]);
            // Gather: the piece is PIO'd straight into the NIC packet
            // staging — per-byte I/O bus cost, but no host memcpy.
            core.device.charge(fm_model::time::ns_for_bytes(
                core.profile.iobus.pio_ns_per_kb,
                take as u64,
            ));
            offset += take;
            ss.accepted += take;
        }
        if offset == 0 && !data.is_empty() {
            return Err(WouldBlock);
        }
        core.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::SendPiece)
                .peer(ss.dst as u16)
                .handler(ss.handler.0)
                .msg_seq(ss.msg_seq)
                .bytes(offset as u32)
        });
        Ok(offset)
    }

    /// `FM_end_message`: close the message, flushing its final packet.
    ///
    /// Non-blocking: [`WouldBlock`] means the final packet could not be
    /// flushed yet — retry after progress.
    ///
    /// # Panics
    /// Panics if fewer bytes were supplied than declared at
    /// `begin_message` (FM 2.x declares the size up front).
    pub fn try_end_message(&self, ss: &mut SendStream) -> Result<(), WouldBlock> {
        if ss.ended {
            return Ok(());
        }
        assert_eq!(
            ss.accepted, ss.msg_len as usize,
            "FM_end_message before supplying the declared {} bytes",
            ss.msg_len
        );
        let mut inner = self.inner.borrow_mut();
        if !ss.local && !Self::flush_packet(&mut inner.core, ss, true) {
            return Err(WouldBlock);
        }
        if ss.local {
            let payload = std::mem::take(&mut ss.pending);
            inner.local.push_back((ss.handler, payload));
        }
        inner
            .core
            .end_message(ss.dst, ss.handler, ss.msg_seq, ss.msg_len);
        ss.ended = true;
        Ok(())
    }

    /// Flush the staged packet (possibly empty, for END) to the device.
    /// Returns false when out of credits or NIC space.
    fn flush_packet(core: &mut EngineCore<D>, ss: &mut SendStream, last: bool) -> bool {
        let claim = if ss.claimed > 0 {
            ss.claimed -= 1;
            Ok(())
        } else {
            core.reserve(ss.dst, 1, ss.msg_seq, ss.msg_len)
        };
        match claim {
            Ok(()) => {}
            Err(Stall::Device) => {
                // The NIC queue is full but we still hold data for it: ask to
                // be polled again after roughly one packet's wire time, when a
                // slot has drained. Without this, an event-driven host (the
                // simulator) refills the queue only when a packet happens to
                // arrive — and the uplink runs dry between credit returns.
                let now = core.device.now();
                let drain = core
                    .profile
                    .link
                    .serialize(core.profile.fm.mtu_payload as u64);
                core.device.request_wake(now + drain);
                return false;
            }
            Err(Stall::Window) => return false,
        }
        let mut flags = PacketFlags::EMPTY;
        if !ss.first_flushed {
            flags = flags | PacketFlags::FIRST;
        }
        if last {
            flags = flags | PacketFlags::LAST;
        }
        let payload = std::mem::take(&mut ss.pending);
        core.pool.lend(&payload);
        core.emit_data(ss.dst, ss.handler, ss.msg_seq, ss.msg_len, flags, payload);
        ss.first_flushed = true;
        true
    }

    /// Convenience gather-send: the whole message from `pieces`, all or
    /// nothing. Fails with [`WouldBlock`] (sending nothing) unless credits
    /// and NIC space for the entire message are available up front, and
    /// then claims them all at once, as FM 1.x's `FM_send` does; each
    /// refused call counts one `credit_stalls` or `device_stalls`, exactly
    /// as a refused `FM_send_piece` does — a caller that polls until
    /// admitted counts every poll; the stall span is traced once per
    /// message.
    pub fn try_send_message(
        &self,
        dst: usize,
        handler: HandlerId,
        pieces: &[&[u8]],
    ) -> Result<(), WouldBlock> {
        let total: usize = pieces.iter().map(|p| p.len()).sum();
        let mut claimed = 0;
        {
            let mut inner = self.inner.borrow_mut();
            let core = &mut inner.core;
            if dst != core.device.node_id() {
                claimed = total.div_ceil(core.mtu(dst)).max(1) as u32;
                let msg_seq = core.peers[dst].seq.send_msg;
                core.reserve(dst, claimed, msg_seq, total as u32)
                    .map_err(|_| WouldBlock)?;
            }
        }
        let mut ss = self.begin_message(dst, total, handler);
        ss.claimed = claimed;
        for p in pieces {
            let sent = self
                .try_send_piece(&mut ss, p)
                .expect("preflighted capacity");
            debug_assert_eq!(sent, p.len(), "preflighted capacity");
        }
        self.try_end_message(&mut ss).expect("preflighted capacity");
        Ok(())
    }

    /// Queue a message from inside a handler (handlers cannot block on
    /// credits): behind what waits for `dst`, flushed by the pass at the
    /// end of `extract` and by `progress`.
    pub fn send_from_handler<'a>(&self, dst: usize, id: HandlerId, msg: impl Into<Message<'a>>) {
        self.queue(dst, id, msg.into(), None);
    }

    /// Queue `msg` whole behind what waits for `dst`: the header inline,
    /// the body moved.
    #[inline]
    fn queue(&self, dst: usize, handler: HandlerId, msg: Message<'_>, sent: Option<SentFlag>) {
        let body = Body::Owned(msg.body.unwrap_or_default());
        let e = Queued::new(handler, msg.head, body, usize::MAX, sent);
        self.sendq.borrow_mut().push(dst, e);
    }

    /// Send `msg` to `dst` now if nothing waits for `dst` and FM admits
    /// the whole message; otherwise queue it behind what waits, take the
    /// credits already waiting on the device, and run a pass at once, so
    /// that a message wider than the credit window gets its first window
    /// onto the wire here — an event-driven caller (the simulator) would
    /// otherwise park a send nothing wakes up to flush — and a burst of
    /// sends keeps the window its peer has already reopened full.
    /// `sent` is set once the message is wholly handed to FM, now or by a
    /// later pass; a send queued for a peer that goes down or restarts is
    /// dropped and never sets it.
    pub fn send_or_queue<'a>(
        &self,
        dst: usize,
        handler: HandlerId,
        msg: impl Into<Message<'a>>,
        sent: Option<SentFlag>,
    ) {
        let msg = msg.into();
        if self.sendq.borrow().fifos[dst].is_empty() {
            let send = |p: &[&[u8]]| self.try_send_message(dst, handler, p);
            if with_pieces(msg.head, &msg.body, send).is_ok() {
                sent.inspect(|s| s.set(true));
                return;
            }
        }
        self.queue(dst, handler, msg, sent);
        self.take_waiting_credits();
        self.pass();
    }

    /// Take the credit and ack frames already on the device, charged as
    /// an extract charges them, up to the first data packet, which stays
    /// admitted for the next extract to deliver (DESIGN.md §5, decision
    /// 7). Membership is drained first, as an extract does before each
    /// packet. Not from a handler, and not while a packet is kept.
    fn take_waiting_credits(&self) {
        {
            let inner = self.inner.borrow();
            if inner.core.in_extract || inner.kept.is_some() {
                return;
            }
        }
        self.drain_peer_events();
        let mut inner = self.inner.borrow_mut();
        inner.kept = inner.core.absorb_control();
    }

    /// One pass over the queue: serve the heads oldest first. A head that
    /// goes out whole uncovers its successor, which takes its place in
    /// the order; a head that stalls keeps its place for the next pass
    /// (never reordered: the oldest send keeps uplink priority across
    /// passes) and takes its peer out of this one. The pass ends when
    /// every head has had its attempt — the visiting order of one scan
    /// over all queued sends in arrival order that skips the sends behind
    /// a stalled one, at the cost of the sends actually attempted.
    /// Returns whether the queue is empty after.
    fn pass(&self) -> bool {
        let mut q = self.sendq.borrow_mut();
        if q.is_empty() {
            return true;
        }
        let q = &mut *q;
        #[cfg(test)]
        if q.arrival_scan {
            self.pass_by_arrival_scan(q);
            return q.is_empty();
        }
        // Every head stamped below the cursor stalled earlier in this
        // pass; a successor is stamped above its predecessor, except an
        // answer queued ahead of a waiting probe (which the pass then
        // reaches on its next run).
        let mut cursor = 0;
        while let Some((stamp, dst)) = (q.fifos.iter().enumerate())
            .filter_map(|(dst, f)| Some((f.front()?.stamp, dst)))
            .filter(|&(stamp, _)| stamp >= cursor)
            .min()
        {
            cursor = stamp + 1;
            #[cfg(test)]
            {
                q.visits += 1;
            }
            if self.push_head(q, dst) {
                continue;
            }
            // The head stalled on its peer's *credit window*, on the NIC
            // queue, or waits for its probe's answer. While the NIC queue
            // sits idle, a later send to a peer with an open window soaks
            // up the uplink time the stall would otherwise waste. But if
            // the NIC still has queued packets the pass stops at the
            // stall: the uplink isn't idle, and letting later sends
            // interleave would only delay the head's completion (which
            // downstream dependency chains — ring collectives — are
            // waiting on).
            if !self.nic_idle() {
                break;
            }
        }
        q.is_empty()
    }

    /// The scheduler this one replaced, kept as the model the tests hold
    /// it to: one scan over *all* queued sends in arrival order, skipping
    /// each send whose peer stalled earlier in the pass.
    #[cfg(test)]
    fn pass_by_arrival_scan(&self, q: &mut SendQueue) {
        let mut order: Vec<(u64, usize)> = (q.fifos.iter().enumerate())
            .flat_map(|(dst, f)| f.iter().map(move |e| (e.stamp, dst)))
            .collect();
        order.sort_unstable();
        let mut blocked = vec![false; q.fifos.len()];
        for (stamp, dst) in order {
            q.visits += 1;
            if blocked[dst] {
                continue;
            }
            assert_eq!(q.fifos[dst].front().map(|e| e.stamp), Some(stamp));
            if self.push_head(q, dst) {
                continue;
            }
            blocked[dst] = true;
            if !self.nic_idle() {
                break;
            }
        }
    }

    /// Whether the NIC queue has drained completely (`send_space` back at
    /// its high-water mark): the uplink is idle.
    fn nic_idle(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        let space = inner.core.device.send_space();
        inner.nic_capacity = inner.nic_capacity.max(space);
        space == inner.nic_capacity
    }

    /// Push as much of the head of `dst`'s FIFO into FM as it admits,
    /// parking the partial stream in place. True when the head left the
    /// FIFO: handed to FM whole (its flag set), or, pulled, set aside;
    /// false when it stalled or waits for its probe's answer.
    fn push_head(&self, q: &mut SendQueue, dst: usize) -> bool {
        // Only the lender's entries have windows or chunks.
        let lender = || {
            q.lender
                .as_ref()
                .and_then(Weak::upgrade)
                .expect("the lender")
        };
        let e = q.fifos[dst].front_mut().expect("a queued head");
        let len = e.body.len();
        if e.waiting {
            return false;
        }
        if e.at == 0 && e.started.is_none() && len > e.chunk && self.same_host_pid(dst).is_some() {
            if let Some((request, probe)) = lender().pull(dst, e) {
                if self.try_send_message(dst, e.handler, &[&request]).is_err() {
                    return false;
                }
                e.waiting = probe;
                if !probe {
                    let e = q.pop(dst);
                    q.pulled.push((dst, e));
                }
                return !probe;
            }
        }
        // One message per chunk, at least one: a header-only entry is one.
        loop {
            let (at, handler) = (e.at, e.handler);
            let clen = e.chunk.min(len - at);
            let head = &e.head[..e.head_len as usize];
            let ss = (e.started)
                .get_or_insert_with(|| self.begin_message(dst, head.len() + clen, handler));
            let sent = match &e.body {
                Body::Owned(v) => self.try_send_rest(ss, &[head, &v[at..at + clen]]),
                Body::Window { slot, offset, .. } => {
                    let send = &mut |w: &[u8]| self.try_send_rest(ss, &[head, w]);
                    lender().lend(*slot, offset + at, clen, send)
                }
            };
            if sent.is_err() {
                return false;
            }
            e.started = None;
            e.at += clen;
            if e.at == len {
                break;
            }
        }
        e.sent.as_ref().inspect(|s| s.set(true));
        if let Body::Window { slot, .. } = e.body {
            lender().release(slot);
        }
        q.pop(dst);
        true
    }

    /// Resumable gather-send: push the part of `pieces` that `ss` has not
    /// yet accepted, as far as credits and NIC space admit, and end the
    /// message once all of it went. `Ok` means the message is closed;
    /// [`WouldBlock`] means call again, with the *same* piece list, after
    /// the next `extract`.
    ///
    /// The caller keeps no cursor: `pieces` is the whole message every
    /// time (`ss.msg_len()` bytes in total) and the first
    /// `ss.bytes_accepted()` bytes of it are skipped. The `FM_send_piece`
    /// calls made are those of the straightforward loop
    /// `while off < p.len() { off += try_send_piece(ss, &p[off..])? }`
    /// over each piece: a piece cut short by a full window is offered
    /// once more (and refused) before the stall is reported, and a
    /// finished or empty piece is never offered at all. Allocates nothing.
    pub fn try_send_rest<P: AsRef<[u8]>>(
        &self,
        ss: &mut SendStream,
        pieces: &[P],
    ) -> Result<(), WouldBlock> {
        let mut skip = ss.accepted;
        for p in pieces {
            let p = p.as_ref();
            let mut off = skip.min(p.len());
            skip -= off;
            while off < p.len() {
                off += self.try_send_piece(ss, &p[off..])?;
            }
        }
        self.try_end_message(ss)
    }

    /// Return owed explicit credits, then run a pass over the queued
    /// sends (handler-initiated or refused by FM). Returns true when
    /// nothing remains queued.
    ///
    /// Queued sends *stream*: each pass pushes as many packets of every
    /// head it reaches as credits allow, so even a message larger than
    /// the whole credit window completes across calls. FIFO per peer.
    /// The credits go first: MPI-FM's sends are timed in
    /// `BENCH_sim.json` as attempted after `extract` returned them
    /// (DESIGN.md §5, decision 7).
    pub fn progress(&self) -> bool {
        self.drain_peer_events();
        self.inner.borrow_mut().core.return_explicit_credits();
        let empty = self.pass();
        self.inner.borrow_mut().core.reliability_poll();
        empty
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use fm_model::rng::{env_cases, DetRng};
    use fm_model::MachineProfile;

    use super::*;
    use crate::device::{DeviceFull, LoopbackDevice, LoopbackPair};
    use crate::fm2::FmStream;
    use crate::packet::FmPacket;

    const H: HandlerId = HandlerId(1);

    fn pair() -> (Fm2Engine<LoopbackDevice>, Fm2Engine<LoopbackDevice>) {
        // NIC queue above the credit window: stalls are credit stalls.
        let (a, b) = LoopbackPair::new(256);
        let p = MachineProfile::ppro200_fm2();
        (Fm2Engine::new(a, p), Fm2Engine::new(b, p))
    }

    fn exchange(s: &Fm2Engine<LoopbackDevice>, r: &Fm2Engine<LoopbackDevice>) {
        for _ in 0..2 {
            s.with_device(|a| r.with_device(|b| LoopbackPair::deliver(a, b)));
            r.extract_all();
            s.extract_all();
        }
    }

    #[test]
    fn try_send_rest_resumes_a_message_wider_than_the_window() {
        let (s, r) = pair();
        let got: Rc<RefCell<Vec<u8>>> = Rc::default();
        let g = Rc::clone(&got);
        r.set_handler(H, move |stream: FmStream, _| {
            let g = Rc::clone(&g);
            async move { *g.borrow_mut() = stream.receive_vec(stream.msg_len()).await }
        });
        let p = s.profile();
        let (window, mtu) = (p.fm.credits_per_peer as usize, p.fm.mtu_payload);
        let body: Vec<u8> = (0..(window + 4) * mtu).map(|i| (i % 251) as u8).collect();
        let pieces = [&[7u8; 24][..], &[], &body, &[], &[9u8; 3]];
        let total = pieces.iter().map(|p| p.len()).sum();

        let mut ss = s.begin_message(1, total, H);
        assert_eq!(s.try_send_rest(&mut ss, &pieces), Err(WouldBlock));
        // One window of packets left, the next one is staged in the stream.
        assert_eq!(s.stats().packets_sent as usize, window);
        assert_eq!(ss.bytes_accepted(), (window + 1) * mtu);
        while s.try_send_rest(&mut ss, &pieces).is_err() {
            exchange(&s, &r);
        }
        assert!(ss.is_ended());
        exchange(&s, &r);
        assert_eq!(*got.borrow(), pieces.concat());
        assert_eq!(s.stats().packets_sent as usize, total.div_ceil(mtu));
        assert_eq!(s.stats().messages_sent, 1);
    }

    #[test]
    fn a_stalled_call_offers_one_piece_and_a_supplied_list_none() {
        let (s, _r) = pair();
        let p = s.profile();
        let (window, mtu) = (p.fm.credits_per_peer as usize, p.fm.mtu_payload);
        let piece_call = p.host.piece_call_ns;
        let cost = |f: &dyn Fn()| {
            let before = s.now();
            f();
            (s.now() - before).0
        };

        // Cut short inside the second piece: the resumed call skips the
        // first piece and the accepted part of the second, and makes the
        // one offer FM refuses.
        let pieces = [vec![1u8; 100], vec![2u8; (window + 2) * mtu]];
        let ss = RefCell::new(s.begin_message(1, 100 + (window + 2) * mtu, H));
        assert!(s.try_send_rest(&mut ss.borrow_mut(), &pieces).is_err());
        let stalled = cost(&|| assert!(s.try_send_rest(&mut ss.borrow_mut(), &pieces).is_err()));
        assert_eq!(stalled, piece_call);

        // Every byte supplied, only the closing packet refused: no piece
        // is offered, an empty remainder least of all.
        let small = RefCell::new(s.begin_message(1, 8, H));
        assert!(s
            .try_send_rest(&mut small.borrow_mut(), &[[3u8; 8]])
            .is_err());
        assert_eq!(small.borrow().bytes_remaining(), 0);
        let supplied = cost(&|| {
            assert!(s
                .try_send_rest(&mut small.borrow_mut(), &[[3u8; 8]])
                .is_err());
        });
        assert_eq!(supplied, 0);
    }

    // ---- the send queue ----

    /// This node's NIC toward four peers, as the send queue sees it: a
    /// bounded queue the test drains by hand, and a log of what was
    /// emitted in what order. Peers exist only as credit returns.
    struct Fanout {
        capacity: usize,
        /// Destinations of the packets still queued in the NIC.
        queue: VecDeque<u16>,
        /// Packets the NIC delivered, per peer, not yet credited back.
        delivered: Vec<u16>,
        /// Every data packet handed to the NIC: (dst, msg_seq, pkt_seq).
        emitted: Vec<(u16, u32, u32)>,
        inq: VecDeque<FmPacket>,
    }

    const PEERS: usize = 4;

    impl NetDevice for Fanout {
        fn node_id(&self) -> usize {
            0
        }
        fn num_nodes(&self) -> usize {
            PEERS + 1
        }
        fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
            if self.queue.len() == self.capacity {
                return Err(DeviceFull);
            }
            let h = pkt.header;
            self.queue.push_back(h.dst);
            self.emitted.push((h.dst, h.msg_seq, h.pkt_seq));
            Ok(())
        }
        fn try_recv(&mut self) -> Option<FmPacket> {
            self.inq.pop_front()
        }
        fn send_space(&self) -> usize {
            self.capacity - self.queue.len()
        }
        fn now(&self) -> Nanos {
            Nanos::ZERO
        }
        fn charge(&mut self, _cost: Nanos) {}
    }

    impl Fanout {
        /// The NIC puts up to `k` queued packets on the wire.
        fn drain(&mut self, k: usize) {
            for _ in 0..k.min(self.queue.len()) {
                let dst = self.queue.pop_front().expect("counted");
                self.delivered[dst as usize] += 1;
            }
        }

        /// `peer` returns `k` of the credits it holds for delivered packets.
        fn credit(&mut self, peer: usize, k: u16) {
            if k > 0 {
                self.delivered[peer] -= k;
                self.inq.push_back(FmPacket::credit_only(peer as u16, 0, k));
            }
        }
    }

    fn fanout(arrival_scan: bool) -> Fm2Engine<Fanout> {
        let dev = Fanout {
            capacity: 16,
            queue: VecDeque::new(),
            delivered: vec![0; PEERS + 1],
            emitted: Vec::new(),
            inq: VecDeque::new(),
        };
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        fm.sendq.borrow_mut().arrival_scan = arrival_scan;
        fm
    }

    fn visits(fm: &Fm2Engine<Fanout>) -> u64 {
        fm.sendq.borrow().visits
    }

    /// A layer's message: a 24-byte header and a body of `size` bytes.
    fn layered(size: usize) -> Message<'static> {
        Message::new(&[0; 24], Some(vec![7u8; size]))
    }

    /// Replay one seeded schedule of sends (some from handlers), NIC
    /// drains, credit returns and turns of the engine; returns
    /// everything emitted, in order.
    fn replay(seed: u64, arrival_scan: bool) -> Vec<(u16, u32, u32)> {
        // A few 16 KiB messages overrun a 64-packet window mid-message.
        const SIZES: [usize; 6] = [0, 8, 900, 3_000, 9_000, 16 * 1024];
        let mut rng = DetRng::seed_from_u64(seed);
        let fm = fanout(arrival_scan);
        let mut sent = Vec::new();
        let mut packets = 0;
        for _ in 0..rng.range_usize(20, 120) {
            let peer = rng.range_usize(1, PEERS + 1);
            match rng.below(100) {
                0..=44 => {
                    let size = SIZES[rng.below(SIZES.len() as u64) as usize];
                    packets += (24 + size).div_ceil(1024);
                    let flag = SentFlag::default();
                    if rng.below(4) == 0 {
                        fm.send_from_handler(peer, H, layered(size));
                        sent.push(None);
                    } else {
                        fm.send_or_queue(peer, H, layered(size), Some(flag.clone()));
                        sent.push(Some(flag));
                    }
                }
                45..=64 => {
                    let k = rng.range_usize(1, 17);
                    fm.with_device(|d| d.drain(k));
                }
                65..=84 => fm.with_device(|d| {
                    let k = rng.below(d.delivered[peer] as u64 + 1) as u16;
                    d.credit(peer, k);
                }),
                _ => {
                    fm.progress();
                    fm.extract_all();
                }
            }
        }
        // Let everything through: the whole schedule must complete.
        for _ in 0..10_000 {
            fm.with_device(|d| {
                d.drain(usize::MAX);
                for peer in 1..=PEERS {
                    d.credit(peer, d.delivered[peer]);
                }
            });
            fm.extract_all();
            if fm.progress() {
                break;
            }
        }
        assert!(fm.progress(), "seed {seed}: wedged");
        assert!(sent.iter().flatten().all(|s| s.get()), "seed {seed}");
        let emitted = fm.with_device(|d| std::mem::take(&mut d.emitted));
        assert_eq!(emitted.len(), packets, "seed {seed}: every packet, once");
        emitted
    }

    #[test]
    fn the_queue_emits_what_the_arrival_order_scan_emitted() {
        for case in 0..env_cases(200) as u64 {
            let seed = 0x5EED_1000 + case;
            let (got, want) = (replay(seed, false), replay(seed, true));
            assert_eq!(got, want, "seed {seed}: emission order diverged");
            // Pairwise FIFO: each peer sees its packets in sequence.
            for peer in 1..=PEERS as u16 {
                let seqs: Vec<u32> = (got.iter().filter(|e| e.0 == peer)).map(|e| e.2).collect();
                assert!(seqs.iter().copied().eq(0..seqs.len() as u32), "seed {seed}");
            }
        }
    }

    #[test]
    fn a_send_onto_a_stalled_peer_visits_one_head() {
        // Nobody returns credits: after the first window every send
        // queues behind a stalled head, and neither it nor a pass may
        // walk what is queued.
        let fm = fanout(false);
        for i in 0..4096u32 {
            let before = visits(&fm);
            fm.send_or_queue(1, H, layered(8), None);
            assert!(visits(&fm) - before <= 1, "send {i}");
            fm.with_device(|d| d.drain(usize::MAX));
            let before = visits(&fm);
            fm.progress();
            assert!(visits(&fm) - before <= 1, "pass {i}");
        }
        assert_eq!(fm.sendq.borrow().fifos[1].len(), 4096 - 64);
        // The scan it replaced looked at everything queued, every pass.
        let scan = fanout(true);
        for _ in 0..4096 {
            scan.send_or_queue(1, H, layered(8), None);
            scan.with_device(|d| d.drain(usize::MAX));
        }
        assert!(visits(&scan) > 4096 * 1024);
    }

    #[test]
    fn a_closed_window_holds_back_only_the_replies_to_its_own_peer() {
        let fm = fanout(false);
        // Peer 1's window closes and the NIC drains: the uplink is idle.
        for _ in 0..64 {
            fm.send_or_queue(1, H, layered(8), None);
            fm.with_device(|d| d.drain(usize::MAX));
        }
        // Two replies from a handler, the first to the stalled peer.
        fm.send_from_handler(1, H, vec![1u8; 8]);
        fm.send_from_handler(2, H, vec![2u8; 8]);
        assert!(!fm.progress(), "peer 1's reply waits for credits");
        let last = fm.with_device(|d| *d.emitted.last().expect("sent"));
        assert_eq!(last, (2, 0, 0), "peer 2's reply went past it");
        // Credits back: peer 1's reply follows.
        fm.with_device(|d| d.credit(1, 1));
        fm.extract_all();
        assert!(fm.progress());
        let last = fm.with_device(|d| *d.emitted.last().expect("sent"));
        assert_eq!(last, (1, 64, 64));
    }

    #[test]
    fn a_queued_send_keeps_the_data_packet_behind_the_credits_for_extract() {
        let (s, r) = pair();
        let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        let g = Rc::clone(&got);
        s.set_fast_handler(H, move |_, payload| g.borrow_mut().push(payload.to_vec()));
        let window = s.profile().fm.credits_per_peer as usize;
        let deliver = || s.with_device(|a| r.with_device(|b| LoopbackPair::deliver(a, b)));
        let fill = |n: usize| {
            for _ in 0..n {
                s.send_or_queue(1, H, layered(8), None);
            }
        };
        // Node 0's window closes with one send queued. Node 1 takes the
        // window, returns its credits, and sends a message back: node 0's
        // device holds a credit frame, then a data packet.
        fill(window + 1);
        deliver();
        r.extract_all();
        r.send_or_queue(0, H, vec![1u8; 8], None);
        deliver();
        // A send queued behind the stalled head takes the credits and
        // stops at the data packet, which waits admitted for the extract.
        fill(1);
        assert_eq!(s.stats().packets_sent as usize, window + 2);
        assert_eq!(s.stats().packets_received, 1);
        assert!(got.borrow().is_empty(), "no handler runs in a send");
        s.extract_all();
        assert_eq!(*got.borrow(), [vec![1u8; 8]]);

        // A kept packet from a peer that restarts is dropped with the
        // rest of what the peer sent.
        fill(window - 2 + 1);
        r.send_or_queue(0, H, vec![2u8; 8], None);
        deliver();
        fill(1);
        assert_eq!(s.stats().packets_received, 2, "kept");
        s.with_device(|d| {
            d.report(crate::PeerEvent {
                peer: 1,
                kind: crate::PeerEventKind::Rejoining,
                epoch: 1,
            })
        });
        s.extract_all();
        assert_eq!(got.borrow().len(), 1, "the restarted peer's packet");
        assert!(s.take_errors().is_empty());
    }

    #[test]
    fn queuing_takes_the_body_and_the_header_inline() {
        // A header-only message offers FM one piece, a header and an
        // empty body two, exactly as the caller's piece lists would.
        let (s, _r) = pair();
        let piece_call = s.profile().host.piece_call_ns;
        let cost = |msg: Message| {
            let before = s.now();
            s.send_or_queue(1, H, msg, None);
            (s.now() - before).0
        };
        let header_only = cost(Message::new(&[1u8; INLINE_HEAD], None));
        let with_empty_body = cost(Message::new(&[1u8; INLINE_HEAD], Some(Vec::new())));
        assert_eq!(with_empty_body - header_only, piece_call);
        let body = vec![5u8; 100];
        let at = body.as_ptr();
        s.send_from_handler(1, H, body);
        let sendq = s.sendq.borrow();
        let queued = sendq.fifos[1].back().expect("queued");
        assert_eq!(queued.head_len, 0);
        let Body::Owned(kept) = &queued.body else {
            panic!("a message's body is its own");
        };
        assert_eq!(kept.as_ptr(), at, "not copied");
    }
}
