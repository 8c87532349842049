//! The FM 2.x engine: streaming sends, budgeted extract, and the handler
//! task executor.
//!
//! The engine is a shared handle (`Clone`) so that handler tasks can send
//! messages and layered libraries can keep a reference inside their own
//! state. Interior mutability discipline: no `RefCell` borrow of the
//! engine is held while a handler future is polled, so handlers may freely
//! call engine methods (except `extract` — handlers must not recurse into
//! the extract loop).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Waker};

use fm_model::{MachineProfile, Nanos};

use crate::buf::PacketBuf;
use crate::device::{NetDevice, PeerEvent, PeerEventKind};
use crate::engine::{Admit, EngineCore, HandlerTable, PacketCosts, SendCost, Stall};
use crate::error::{FmError, WouldBlock};
use crate::obs::{ObsEvent, ObsSink, SpanKind};
use crate::packet::{FmPacket, HandlerId, PacketFlags};
use crate::reliable::Reliability;
use crate::stats::FmStats;

use super::sendstream::SendStream;
use super::stream::FmStream;

/// A registered FM 2.x handler: called with the message stream and the
/// sender when a message's first packet arrives; the returned future is
/// the handler's logical thread.
pub type Fm2HandlerFn = Rc<dyn Fn(FmStream, usize) -> Pin<Box<dyn Future<Output = ()>>>>;

/// A synchronous fast-path handler (see [`Fm2Engine::set_fast_handler`]):
/// called with the sender and a zero-copy view of a single-packet
/// message's payload. The view borrows the arrival frame — it is valid
/// only for the duration of the call.
pub type Fm2FastHandlerFn = Box<dyn FnMut(usize, &[u8])>;

/// Per-packet metadata passed to a sink handler (see
/// [`Fm2Engine::set_sink_handler`]).
#[derive(Debug, Clone, Copy)]
pub struct SinkMeta {
    /// The message's sequence number from its sender toward this node
    /// (0 for NIC-bypassing self-sends, which arrive whole).
    pub msg_seq: u32,
    /// Total declared length of the message this packet belongs to.
    pub msg_len: u32,
    /// This call delivers the message's first packet.
    pub first: bool,
    /// This call delivers the message's last packet.
    pub last: bool,
}

/// A synchronous per-packet **sink** handler (see
/// [`Fm2Engine::set_sink_handler`]): called once per arriving packet of a
/// message — any size — with the sender, per-packet metadata, and a
/// zero-copy view of the packet's payload inside the arrival frame. The
/// view is valid only for the duration of the call.
pub type SinkHandlerFn = Box<dyn FnMut(usize, SinkMeta, &[u8])>;

/// A handler-initiated send, possibly mid-flight: deferred sends stream
/// through a [`SendStream`] so that messages of *any* size (including
/// larger than the credit window) make incremental progress — FIFO, so
/// deferred sends never overtake each other.
struct DeferredSend {
    dst: usize,
    handler: HandlerId,
    pieces: Vec<Vec<u8>>,
    /// Open stream once sending has started (piece index, offset within
    /// that piece).
    started: Option<(SendStream, usize, usize)>,
}

/// One in-flight incoming message: its stream state and (while the handler
/// is still running) its suspended future.
struct Task {
    /// The message's sequence number from its sender: the task's key
    /// among that sender's open messages.
    msg_seq: u32,
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    /// The engine's handle on the message stream (the handler holds
    /// clones).
    stream: FmStream,
    /// Which handler runs this message (observability).
    handler: HandlerId,
    /// Times the future has been polled — poll 0 is the handler start,
    /// later polls are resumptions after an `FM_receive` suspension.
    polls: u32,
}

/// The stream face's state over the shared [`EngineCore`].
struct Inner<D: NetDevice> {
    core: EngineCore<D>,
    handlers: HandlerTable<Fm2HandlerFn>,
    /// Synchronous fast-path handlers. Ids without one fall through to
    /// the async handler table.
    fast_handlers: HandlerTable<Fm2FastHandlerFn>,
    /// Synchronous per-packet sink handlers. A registered sink takes
    /// precedence over both other tables for its id and consumes every
    /// packet of every message — the one-sided rendezvous datapath,
    /// where multi-packet payloads must land without staging buffers or
    /// task allocation.
    sink_handlers: HandlerTable<SinkHandlerFn>,
    /// In-flight incoming messages by source, found by `msg_seq` with a
    /// linear scan: a source has one message open in the common case,
    /// and interleaved messages stay few.
    tasks: Vec<Vec<Task>>,
    /// Stream cells of retired tasks, re-armed for the next message so
    /// that a handler task in steady state allocates only its future.
    /// Never longer than the most tasks that were open at once.
    idle_streams: Vec<FmStream>,
    deferred: VecDeque<DeferredSend>,
    local: VecDeque<(HandlerId, PacketBuf)>,
    /// Distinguishes concurrently-pending local (self-send) handler tasks;
    /// local tasks count `msg_seq` down from `u32::MAX` under this node's
    /// own source slot, which cannot collide with network messages (self
    /// never sends to itself over the wire).
    local_task_counter: u32,
    /// Application callback for membership transitions
    /// (`FM_set_peer_handler`); invoked outside any engine borrow, so it
    /// may call engine methods.
    peer_handler: Option<Rc<dyn Fn(PeerEvent)>>,
}

/// What a packet costs the host under FM 2.x. Payload bytes are PIO'd
/// into the NIC frame as each piece is gathered
/// ([`Fm2Engine::try_send_piece`]), so hand-off pays only the PIO setup;
/// credit and ack frames skip the flow-control bookkeeping that data
/// packets (retransmissions included) pay.
fn packet_costs(profile: &MachineProfile) -> PacketCosts {
    let control = Nanos(profile.host.per_packet_send_ns) + Nanos(profile.iobus.pio_setup_ns);
    let flow_control = Nanos(profile.host.flow_control_ns);
    let at_handoff = |fixed| SendCost {
        fixed,
        pio_ns_per_kb: 0,
    };
    PacketCosts {
        data: at_handoff(control + flow_control),
        control: at_handoff(control),
        flow_control: Some(flow_control),
    }
}

/// The FM 2.x engine for one node. Clone freely — all clones are the same
/// engine.
pub struct Fm2Engine<D: NetDevice> {
    inner: Rc<RefCell<Inner<D>>>,
}

impl<D: NetDevice> Clone for Fm2Engine<D> {
    fn clone(&self) -> Self {
        Fm2Engine {
            inner: Rc::clone(&self.inner),
        }
    }
}

/// A weak engine reference for capture inside handler closures.
///
/// Handlers are stored *inside* the engine, so a handler closure that
/// captured a strong [`Fm2Engine`] clone would form an `Rc` cycle
/// (engine → handler table → closure → engine) and the engine — its
/// device included — would never drop. On real transports that is worse
/// than a memory leak: the device's drop hook flushes its tail of queued
/// datagrams, so a leaked engine strands final acks and FINs in the
/// queue and wedges the peer. Layers must capture one of these instead;
/// it exposes exactly the engine surface a handler may touch.
///
/// Handlers only run while the engine is polled from `FM_extract`, so
/// the engine is always alive when these methods execute.
pub struct Fm2Handle<D: NetDevice> {
    inner: std::rc::Weak<RefCell<Inner<D>>>,
}

impl<D: NetDevice> Clone for Fm2Handle<D> {
    fn clone(&self) -> Self {
        Fm2Handle {
            inner: std::rc::Weak::clone(&self.inner),
        }
    }
}

impl<D: NetDevice> Fm2Handle<D> {
    /// The live engine. Panics if the engine was dropped, which cannot
    /// happen from inside a running handler.
    fn engine(&self) -> Fm2Engine<D> {
        Fm2Engine {
            inner: self
                .inner
                .upgrade()
                .expect("handler outlived its Fm2Engine"),
        }
    }

    /// See [`Fm2Engine::node_id`].
    pub fn node_id(&self) -> usize {
        self.engine().node_id()
    }

    /// See [`Fm2Engine::num_nodes`].
    pub fn num_nodes(&self) -> usize {
        self.engine().num_nodes()
    }

    /// See [`Fm2Engine::now`].
    pub fn now(&self) -> Nanos {
        self.engine().now()
    }

    /// See [`Fm2Engine::charge`].
    pub fn charge(&self, cost: Nanos) {
        self.engine().charge(cost);
    }

    /// See [`Fm2Engine::charge_memcpy`].
    pub fn charge_memcpy(&self, bytes: usize) {
        self.engine().charge_memcpy(bytes);
    }

    /// See [`Fm2Engine::send_from_handler`].
    pub fn send_from_handler(&self, dst: usize, handler: HandlerId, data: Vec<u8>) {
        self.engine().send_from_handler(dst, handler, data);
    }

    /// See [`Fm2Engine::send_pieces_from_handler`].
    pub fn send_pieces_from_handler(&self, dst: usize, handler: HandlerId, pieces: Vec<Vec<u8>>) {
        self.engine().send_pieces_from_handler(dst, handler, pieces);
    }
}

impl<D: NetDevice> Fm2Engine<D> {
    /// An FM 2.x engine over `device`, charging costs per `profile`.
    pub fn new(device: D, profile: MachineProfile) -> Self {
        Self::with_reliability(device, profile, Reliability::TrustSubstrate)
    }

    /// An engine with an explicit reliability mode. With
    /// [`Reliability::TrustSubstrate`] this is identical to
    /// [`Fm2Engine::new`]; with [`Reliability::Retransmit`] the sliding
    /// window replaces credit-based flow control and delivery survives a
    /// lossy substrate. Both ends of a connection must use the same mode.
    pub fn with_reliability(device: D, profile: MachineProfile, reliability: Reliability) -> Self {
        let costs = packet_costs(&profile);
        let tasks = (0..device.num_nodes()).map(|_| Vec::new()).collect();
        Fm2Engine {
            inner: Rc::new(RefCell::new(Inner {
                core: EngineCore::new(device, profile, reliability, costs),
                handlers: HandlerTable::new(),
                fast_handlers: HandlerTable::new(),
                sink_handlers: HandlerTable::new(),
                tasks,
                idle_streams: Vec::new(),
                deferred: VecDeque::new(),
                local: VecDeque::new(),
                local_task_counter: 0,
                peer_handler: None,
            })),
        }
    }

    /// Attach an observability sink: every send, extract, handler and
    /// reliability action is recorded into it as an [`ObsEvent`] from now
    /// on. Recording never charges the device clock, so attaching a sink
    /// does not perturb virtual-time measurements.
    pub fn attach_obs(&self, sink: ObsSink) {
        self.inner.borrow_mut().core.obs = Some(sink);
    }

    /// A handle to the attached observability sink, if any.
    pub fn obs(&self) -> Option<ObsSink> {
        self.inner.borrow().core.obs.clone()
    }

    /// Record a layered-library event into the attached sink (no-op
    /// without one). The closure receives the device clock and node id,
    /// like the engine's own record sites; recording never charges the
    /// device clock. Used by MPI-FM to mark collective phases so they
    /// join the engine's spans in chrome traces.
    pub fn obs_record(&self, make: impl FnOnce(Nanos, u16) -> ObsEvent) {
        self.inner.borrow().core.obs_emit(make);
    }

    /// This node's id.
    pub fn node_id(&self) -> usize {
        self.inner.borrow().core.device.node_id()
    }

    /// A weak handle safe to capture inside handler closures (a strong
    /// clone there would cycle and leak the engine — see [`Fm2Handle`]).
    pub fn handle(&self) -> Fm2Handle<D> {
        Fm2Handle {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Number of nodes in the network.
    pub fn num_nodes(&self) -> usize {
        self.inner.borrow().core.device.num_nodes()
    }

    /// Current time (virtual on the simulator).
    pub fn now(&self) -> Nanos {
        self.inner.borrow().core.device.now()
    }

    /// Engine counters (pool hit/miss counters folded in live).
    pub fn stats(&self) -> FmStats {
        self.inner.borrow().core.stats()
    }

    /// The machine profile in force.
    pub fn profile(&self) -> MachineProfile {
        self.inner.borrow().core.profile
    }

    /// Run `f` with direct access to the underlying device (test harnesses
    /// and transports that need to pump packets by hand). Do not call
    /// engine methods from inside `f`.
    pub fn with_device<R>(&self, f: impl FnOnce(&mut D) -> R) -> R {
        f(&mut self.inner.borrow_mut().core.device)
    }

    /// Guarantee-violation reports accumulated by `extract` (empties the
    /// log).
    pub fn take_errors(&self) -> Vec<FmError> {
        std::mem::take(&mut self.inner.borrow_mut().core.errors)
    }

    /// `FM_set_peer_handler`: register a callback for membership
    /// transitions reported by the device (peers going
    /// up/suspect/down/rejoining — see [`PeerEventKind`]). The callback
    /// runs during `extract`/`progress`, *after* the engine has already
    /// applied the transition's protocol consequences (state reset on
    /// rejoin, retransmit abandonment on down), and outside any engine
    /// borrow, so it may call engine methods (not `extract`). Devices
    /// with static membership never produce events. Replaces any
    /// previous callback.
    pub fn set_peer_handler<F: Fn(PeerEvent) + 'static>(&self, f: F) {
        self.inner.borrow_mut().peer_handler = Some(Rc::new(f));
    }

    /// Whether `peer` is currently declared down by the device's
    /// liveness engine (false for devices with static membership).
    /// Layered blocking loops (MPI collectives) consult this to abort
    /// instead of waiting forever on a dead peer; a later `Up` or
    /// `Rejoining` transition clears it.
    pub fn is_peer_down(&self, peer: usize) -> bool {
        self.inner.borrow().core.peer_down[peer]
    }

    /// Whether *any* peer is currently declared down — an allocation-free
    /// check suitable for per-progress polling (unlike
    /// [`downed_peers`](Self::downed_peers), which collects).
    pub fn has_downed_peers(&self) -> bool {
        self.inner.borrow().core.has_downed_peers()
    }

    /// The peers currently declared down, in node order (empty for
    /// devices with static membership).
    pub fn downed_peers(&self) -> Vec<usize> {
        self.inner.borrow().core.downed_peers()
    }

    /// Account arbitrary host cost (for layered libraries).
    pub fn charge(&self, cost: Nanos) {
        self.inner.borrow_mut().core.device.charge(cost);
    }

    /// Account a host memcpy of `bytes` (for layered libraries; counted in
    /// [`FmStats::bytes_copied`]).
    pub fn charge_memcpy(&self, bytes: usize) {
        self.inner.borrow_mut().core.charge_memcpy(bytes);
    }

    /// Register an async handler under `id` (replacing any previous one).
    ///
    /// ```ignore
    /// fm.set_handler(HandlerId(1), |stream, src| async move {
    ///     let mut hdr = [0u8; 8];
    ///     stream.receive(&mut hdr).await;      // may suspend
    ///     let body = stream.receive_vec(stream.remaining()).await;
    ///     /* ... */
    /// });
    /// ```
    pub fn set_handler<F, Fut>(&self, id: HandlerId, f: F)
    where
        F: Fn(FmStream, usize) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let wrapped: Fm2HandlerFn = Rc::new(move |s, src| Box::pin(f(s, src)));
        self.inner.borrow_mut().handlers.set(id, wrapped);
    }

    /// Register a synchronous **fast-path** handler under `id`.
    ///
    /// A fast handler fires for *single-packet* messages (FIRST|LAST in
    /// one frame) directly from the extract loop: no stream state, no
    /// future allocation, no task bookkeeping — the handler sees a
    /// zero-copy view of the payload inside the arrival frame. Messages
    /// larger than one packet to the same id fall back to the async
    /// handler registered with [`set_handler`](Self::set_handler) (or
    /// are reported as unknown-handler if there is none).
    ///
    /// The payload view is valid **only for the duration of the call**:
    /// the frame is recycled into the receive pool when the handler
    /// returns, so a handler that needs the bytes later must copy them.
    /// Handlers may call engine send methods (`send_from_handler` etc.)
    /// but not `extract`.
    pub fn set_fast_handler<F>(&self, id: HandlerId, f: F)
    where
        F: FnMut(usize, &[u8]) + 'static,
    {
        self.inner.borrow_mut().fast_handlers.set(id, Box::new(f));
    }

    /// Register a synchronous per-packet **sink** handler under `id`.
    ///
    /// A sink fires once per arriving packet of a message — messages of
    /// *any* size, unlike [`set_fast_handler`](Self::set_fast_handler) —
    /// directly from the extract loop: no stream state, no future, no
    /// task bookkeeping, no per-message allocation. Each call sees a
    /// zero-copy view of one packet's payload inside the arrival frame,
    /// plus [`SinkMeta`] (message sequence, declared length, first/last
    /// flags) so the sink can scatter the bytes to their final
    /// destination itself. This is the one-sided rendezvous receive
    /// path: DATA segments land straight in a registered region with no
    /// staging copy.
    ///
    /// A registered sink takes precedence over fast and async handlers
    /// for its id. The payload view is valid **only for the duration of
    /// the call**; sinks may call engine send methods but not `extract`.
    pub fn set_sink_handler<F>(&self, id: HandlerId, f: F)
    where
        F: FnMut(usize, SinkMeta, &[u8]) + 'static,
    {
        self.inner.borrow_mut().sink_handlers.set(id, Box::new(f));
    }

    // ------------------------------------------------------------------
    // Send side: FM_begin_message / FM_send_piece / FM_end_message
    // ------------------------------------------------------------------

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
            // Local sends stage the whole message in one exact-size
            // frame; network sends fill MTU-sized pool frames lazily in
            // `try_send_piece`.
            pending: if local {
                PacketBuf::with_capacity(len)
            } else {
                PacketBuf::empty()
            },
            first_flushed: false,
            ended: false,
            local,
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
        {
            let mut inner = self.inner.borrow_mut();
            let c = Nanos(inner.core.profile.host.piece_call_ns);
            inner.core.device.charge(c);
        }
        if ss.local {
            ss.pending.extend_from_slice(data);
            ss.accepted += data.len();
            self.inner.borrow().core.obs_emit(|t, me| {
                ObsEvent::new(t, me, SpanKind::SendPiece)
                    .peer(me)
                    .handler(ss.handler.0)
                    .msg_seq(ss.msg_seq)
                    .bytes(data.len() as u32)
            });
            return Ok(data.len());
        }
        let (mtu, pool) = {
            let inner = self.inner.borrow();
            (inner.core.profile.fm.mtu_payload, inner.core.pool.clone())
        };
        let mut offset = 0;
        while offset < data.len() {
            if ss.pending.len() == mtu && !self.flush_packet(ss, false) {
                break;
            }
            if ss.pending.is_detached() {
                // First piece of a fresh packet: grab a recycled frame to
                // gather into (flushing hands the previous frame to the
                // packet wholesale).
                ss.pending = pool.take();
            }
            let space = mtu - ss.pending.len();
            let take = space.min(data.len() - offset);
            ss.pending.extend_from_slice(&data[offset..offset + take]);
            // Gather: the piece is PIO'd straight into the NIC packet
            // staging — per-byte I/O bus cost, but no host memcpy.
            {
                let mut inner = self.inner.borrow_mut();
                let c = fm_model::time::ns_for_bytes(
                    inner.core.profile.iobus.pio_ns_per_kb,
                    take as u64,
                );
                inner.core.device.charge(c);
            }
            offset += take;
            ss.accepted += take;
        }
        if offset == 0 && !data.is_empty() {
            return Err(WouldBlock);
        }
        self.inner.borrow().core.obs_emit(|t, me| {
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
        if !ss.local && !self.flush_packet(ss, true) {
            return Err(WouldBlock);
        }
        let mut inner = self.inner.borrow_mut();
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
    fn flush_packet(&self, ss: &mut SendStream, last: bool) -> bool {
        let mut inner = self.inner.borrow_mut();
        let core = &mut inner.core;
        match core.reserve(ss.dst, 1, ss.msg_seq, ss.msg_len) {
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
        core.emit_data(ss.dst, ss.handler, ss.msg_seq, ss.msg_len, flags, payload);
        ss.first_flushed = true;
        true
    }

    /// Convenience gather-send: the whole message from `pieces`, all or
    /// nothing. Fails with [`WouldBlock`] (sending nothing) unless credits
    /// and NIC space for the entire message are available up front.
    pub fn try_send_message(
        &self,
        dst: usize,
        handler: HandlerId,
        pieces: &[&[u8]],
    ) -> Result<(), WouldBlock> {
        let total: usize = pieces.iter().map(|p| p.len()).sum();
        {
            let inner = self.inner.borrow();
            let core = &inner.core;
            if dst != core.device.node_id() {
                let packets = total.div_ceil(core.profile.fm.mtu_payload).max(1);
                core.room_for(dst, packets as u32).map_err(|_| WouldBlock)?;
            }
        }
        let mut ss = self.begin_message(dst, total, handler);
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
    /// credits). Flushed by `extract`/`progress` as capacity allows.
    pub fn send_from_handler(&self, dst: usize, handler: HandlerId, data: Vec<u8>) {
        self.send_pieces_from_handler(dst, handler, vec![data]);
    }

    /// Gather variant of [`Fm2Engine::send_from_handler`]: the pieces are
    /// sent as one message without an assembly copy (used e.g. by MPI's
    /// rendezvous data path, where the payload must not be copied).
    pub fn send_pieces_from_handler(&self, dst: usize, handler: HandlerId, pieces: Vec<Vec<u8>>) {
        self.inner.borrow_mut().deferred.push_back(DeferredSend {
            dst,
            handler,
            pieces,
            started: None,
        });
    }

    /// Flush deferred handler-initiated sends and owed explicit credits.
    /// Returns true when nothing remains deferred.
    ///
    /// Deferred sends *stream*: each call pushes as many packets of the
    /// front message as credits allow, so even a message larger than the
    /// whole credit window completes across calls. Strictly FIFO.
    pub fn progress(&self) -> bool {
        self.drain_peer_events();
        loop {
            let front = self.inner.borrow_mut().deferred.pop_front();
            let Some(mut d) = front else { break };
            let (mut ss, mut pi, mut off) = match d.started.take() {
                Some(s) => s,
                None => {
                    let total: usize = d.pieces.iter().map(Vec::len).sum();
                    (self.begin_message(d.dst, total, d.handler), 0, 0)
                }
            };
            // Stream the remaining pieces.
            let mut blocked = false;
            while pi < d.pieces.len() {
                let piece = &d.pieces[pi];
                if off == piece.len() {
                    pi += 1;
                    off = 0;
                    continue;
                }
                match self.try_send_piece(&mut ss, &piece[off..]) {
                    Ok(n) => off += n,
                    Err(WouldBlock) => {
                        blocked = true;
                        break;
                    }
                }
                if off < piece.len() {
                    blocked = true;
                    break;
                }
            }
            if !blocked && self.try_end_message(&mut ss).is_ok() {
                continue; // fully sent; next deferred message
            }
            // Park the partial stream at the front (FIFO order preserved).
            d.started = Some((ss, pi, off));
            self.inner.borrow_mut().deferred.push_front(d);
            break;
        }
        let mut inner = self.inner.borrow_mut();
        inner.core.return_explicit_credits();
        inner.core.reliability_poll();
        inner.deferred.is_empty()
    }

    /// Apply pending membership transitions, then run the application's
    /// peer callback for each: the core resets the shared per-peer
    /// protocol state, this face aborts the handler tasks fed by, and
    /// the deferred sends held for, a peer that died or restarted.
    fn drain_peer_events(&self) {
        let (events, handler) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let mut events: Vec<PeerEvent> = Vec::new();
            while let Some(ev) = inner.core.poll_peer_event() {
                if matches!(ev.kind, PeerEventKind::Down | PeerEventKind::Rejoining) {
                    inner.tasks[ev.peer].clear();
                    inner.deferred.retain(|d| d.dst != ev.peer);
                }
                events.push(ev);
            }
            if events.is_empty() {
                return;
            }
            (events, inner.peer_handler.clone())
        };
        if let Some(h) = handler {
            for ev in events {
                h(ev);
            }
        }
    }

    /// The reliability sublayer's smoothed RTT estimate toward `peer`,
    /// in nanoseconds (`None` in TrustSubstrate mode, with adaptation
    /// off, or before the first sample).
    pub fn srtt_ns(&self, peer: usize) -> Option<u64> {
        self.inner
            .borrow()
            .core
            .reliable
            .as_ref()
            .and_then(|r| r.srtt_ns(peer))
    }

    /// The reliability sublayer's current base retransmit timeout toward
    /// `peer`, in nanoseconds (`None` in TrustSubstrate mode).
    pub fn current_rto_ns(&self, peer: usize) -> Option<u64> {
        self.inner
            .borrow()
            .core
            .reliable
            .as_ref()
            .map(|r| r.current_rto_ns(peer))
    }

    /// Data packets sent but not yet acknowledged (always 0 in
    /// TrustSubstrate mode). Zero means every send is confirmed delivered.
    pub fn unacked_packets(&self) -> usize {
        self.inner.borrow().core.unacked_packets()
    }

    // ------------------------------------------------------------------
    // Receive side: FM_extract(budget)
    // ------------------------------------------------------------------

    /// `FM_extract(bytes)`: process up to `budget` payload bytes of
    /// incoming packets (rounded up to a packet boundary — the paper's
    /// receiver flow control), running/resuming handlers as data arrives.
    /// Returns the number of payload bytes processed.
    ///
    /// The budget is accounted in *handler-delivered payload bytes*:
    /// wire-frame headers, pure ack/credit frames, suppressed duplicates
    /// and orphan-dropped packets consume none of it, so a budget of `N`
    /// never feeds handlers more than `N` payload bytes plus one packet
    /// of boundary slack (one whole message for NIC-bypassing self-sends,
    /// which are never packetized).
    ///
    /// # Panics
    /// Panics if called from inside a handler.
    pub fn extract(&self, budget: usize) -> usize {
        self.inner.borrow_mut().core.begin_extract(budget);
        let mut processed = 0usize;

        // Self-addressed messages first (they bypass the NIC).
        while processed < budget {
            let next = self.inner.borrow_mut().local.pop_front();
            let Some((handler, payload)) = next else {
                break;
            };
            processed += payload.len();
            self.deliver_local(handler, payload);
        }

        while processed < budget {
            // Membership first: a queued Rejoining/Down event must reset
            // per-peer state before any packet that follows it is let
            // through (the device gates new-incarnation data behind its
            // event).
            self.drain_peer_events();
            let pkt = {
                let mut inner = self.inner.borrow_mut();
                let Some(pkt) = inner.core.recv() else { break };
                match inner.core.admit(&pkt) {
                    // After a gap the stream face still feeds the packet
                    // in: a message that lost packets is reported as
                    // orphans where it no longer joins an open stream.
                    Admit::Data { .. } => pkt,
                    Admit::Control | Admit::Drop => continue,
                }
            };
            // The budget counts handler-delivered payload bytes: a packet
            // that joins no stream (an orphan) is dropped with an error
            // and must not consume the receiver's intake allowance.
            processed += self.ingest_data_packet(pkt);
        }

        self.progress();
        processed
    }

    /// Process everything pending (an unbounded `FM_extract()`).
    pub fn extract_all(&self) -> usize {
        self.extract(usize::MAX)
    }

    /// Incoming messages whose handlers are still pending (suspended in
    /// `FM_receive` or waiting for more packets).
    pub fn pending_handlers(&self) -> usize {
        self.inner.borrow().tasks.iter().map(Vec::len).sum()
    }

    /// Run the synchronous handler registered in `table` under `handler`
    /// for one packet (or one whole self-send) described by `meta`.
    /// Returns false when the table has none. The handler is moved out
    /// of its table and called with the engine unborrowed, so it may
    /// send (not extract).
    fn run_sync<T>(
        &self,
        table: impl Fn(&mut Inner<D>) -> &mut HandlerTable<T>,
        src: usize,
        handler: HandlerId,
        meta: SinkMeta,
        call: impl FnOnce(&mut T),
    ) -> bool {
        let mut f = {
            let mut inner = self.inner.borrow_mut();
            let Some(f) = table(&mut *inner).take(handler) else {
                return false;
            };
            inner
                .core
                .sync_enter(src, handler, meta.msg_seq, meta.msg_len, meta.first);
            f
        };
        call(&mut f);
        let mut inner = self.inner.borrow_mut();
        inner
            .core
            .sync_exit(src, handler, meta.msg_seq, meta.msg_len, meta.last);
        table(&mut *inner).restore(handler, f);
        true
    }

    fn deliver_local(&self, handler: HandlerId, payload: PacketBuf) {
        let me = self.node_id();
        let len = payload.len() as u32;
        // Sink handlers consume self-sends synchronously too: the whole
        // message arrives in one call (self-sends are never packetized),
        // so `first` and `last` are both set and `msg_seq` is 0.
        let meta = SinkMeta {
            msg_seq: 0,
            msg_len: len,
            first: true,
            last: true,
        };
        if self.run_sync(
            |i| &mut i.sink_handlers,
            me,
            handler,
            meta,
            |f| f(me, meta, &payload),
        ) {
            return;
        }
        let msg_seq = {
            let mut inner = self.inner.borrow_mut();
            let c = inner.local_task_counter;
            inner.local_task_counter = inner.local_task_counter.wrapping_add(1);
            u32::MAX - c
        };
        let idx = self.spawn_task(me, msg_seq, handler, len);
        // Local messages are complete on arrival; if the handler
        // finishes, poll_task retires the task at once.
        self.inner.borrow().tasks[me][idx]
            .stream
            .push_segment(payload, true);
        self.poll_task(me, idx);
    }

    /// Feed one accepted data packet into the handler layer. Returns the
    /// number of payload bytes actually delivered toward a handler stream
    /// (0 when the packet is an orphan and is dropped), so `extract` can
    /// account its budget in handler-delivered bytes rather than wire
    /// frames.
    fn ingest_data_packet(&self, pkt: FmPacket) -> usize {
        let src = pkt.header.src as usize;
        let handler = pkt.header.handler;
        let first = pkt.header.flags.contains(PacketFlags::FIRST);
        let last = pkt.header.flags.contains(PacketFlags::LAST);
        let meta = SinkMeta {
            msg_seq: pkt.header.msg_seq,
            msg_len: pkt.header.msg_len,
            first,
            last,
        };

        // Sink path: a registered per-packet sink consumes every packet
        // of the message synchronously — no stream, no task, no future,
        // no allocation — so multi-packet payloads (the one-sided
        // rendezvous DATA path) land without staging. The payload view
        // borrows the arrival frame and is valid only for the call.
        if self.run_sync(
            |i| &mut i.sink_handlers,
            src,
            handler,
            meta,
            |f| f(src, meta, &pkt.payload),
        ) {
            return pkt.payload.len();
        }

        // Fast path: a complete single-packet message whose handler is
        // registered synchronously dispatches right here — no stream, no
        // task, no future, no allocation. The handler reads the payload
        // in place (a view of the arrival frame).
        if first
            && last
            && self.run_sync(
                |i| &mut i.fast_handlers,
                src,
                handler,
                meta,
                |f| f(src, &pkt.payload),
            )
        {
            return meta.msg_len as usize;
        }

        // Resolve the task once: the packet joins its stream and resumes
        // its handler through the same slot. An orphan packet delivers
        // nothing and therefore consumes no extract budget.
        let msg_seq = pkt.header.msg_seq;
        let idx = if first {
            self.spawn_task(src, msg_seq, handler, pkt.header.msg_len)
        } else {
            let mut inner = self.inner.borrow_mut();
            match inner.tasks[src].iter().position(|t| t.msg_seq == msg_seq) {
                Some(idx) => idx,
                None => {
                    inner
                        .core
                        .report_error(FmError::OrphanPacket { src, msg_seq });
                    return 0;
                }
            }
        };
        let n = pkt.payload.len();
        self.inner.borrow().tasks[src][idx]
            .stream
            .push_segment(pkt.payload, last);
        self.poll_task(src, idx);
        n
    }

    /// Open the task of message `msg_seq` from `src` — stream cells off
    /// the idle list when there are any, the handler's future started but
    /// not yet polled — and return its slot among `src`'s tasks.
    fn spawn_task(&self, src: usize, msg_seq: u32, handler: HandlerId, msg_len: u32) -> usize {
        let (handler_fn, stream) = {
            let mut inner = self.inner.borrow_mut();
            inner.core.handler_started(src, handler, msg_seq, msg_len);
            let stream = inner.idle_streams.pop().unwrap_or_else(|| {
                let host = &inner.core.profile.host;
                FmStream::new(host.memcpy_ns_per_kb, host.piece_call_ns)
            });
            (inner.handlers.get(handler).cloned(), stream)
        };
        stream.arm(src, msg_len);
        // The engine is not borrowed here: the handler's constructor may
        // call engine methods.
        let future = handler_fn.map(|f| f(stream.clone(), src));
        let mut inner = self.inner.borrow_mut();
        if future.is_none() {
            // A task without a handler: its bytes drain into the void.
            inner
                .core
                .report_error(FmError::UnknownHandler { handler: handler.0 });
        }
        let task = Task {
            msg_seq,
            future,
            stream,
            handler,
            polls: 0,
        };
        let open = &mut inner.tasks[src];
        // A FIRST packet for a sequence number still open replaces the
        // stale task (only a sender that lost its state repeats one).
        let (idx, stale) = match open.iter().position(|t| t.msg_seq == msg_seq) {
            Some(idx) => (idx, Some(std::mem::replace(&mut open[idx], task))),
            None => {
                open.push(task);
                (open.len() - 1, None)
            }
        };
        // A handler's future is dropped like it is polled: with the
        // engine unborrowed.
        drop(inner);
        drop(stale);
        idx
    }

    /// Poll the task in slot `idx` of `src`'s open messages (if its
    /// handler is still running), apply its accumulated charges, and
    /// retire it if complete.
    fn poll_task(&self, src: usize, idx: usize) {
        let (msg_seq, taken) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let task = &mut inner.tasks[src][idx];
            let (msg_seq, handler, polls) = (task.msg_seq, task.handler, task.polls);
            let fut = task.future.take().map(|f| (f, task.stream.clone()));
            if fut.is_some() {
                task.polls += 1;
                // Poll 0 was already recorded as HandlerStart by
                // spawn_task; later polls mean new bytes resumed a
                // suspended handler.
                if polls > 0 {
                    inner.core.obs_emit(|t, me| {
                        ObsEvent::new(t, me, SpanKind::HandlerResume)
                            .peer(src as u16)
                            .handler(handler.0)
                            .msg_seq(msg_seq)
                    });
                }
                inner.core.in_extract = true;
            }
            (msg_seq, fut.map(|f| (f, handler)))
        };
        if let Some(((mut future, stream), handler)) = taken {
            let waker = Waker::noop();
            let mut cx = Context::from_waker(waker);
            // The engine is not borrowed here: the handler may call engine
            // methods while it runs.
            let ready = future.as_mut().poll(&mut cx).is_ready();
            let (pending, copied) = stream.take_charges();
            let mut inner = self.inner.borrow_mut();
            inner.core.in_extract = false;
            inner.core.device.charge(pending);
            inner.core.stats.bytes_copied += copied;
            let kind = if ready {
                SpanKind::HandlerEnd
            } else {
                SpanKind::HandlerSuspend
            };
            inner.core.obs_emit(|t, me| {
                ObsEvent::new(t, me, kind)
                    .peer(src as u16)
                    .handler(handler.0)
                    .msg_seq(msg_seq)
            });
            if !ready {
                // The slot is still this task's unless the handler made
                // the engine drop the peer's tasks while it ran.
                if let Some(task) = inner.tasks[src].get_mut(idx) {
                    if task.msg_seq == msg_seq {
                        task.future = Some(future);
                    }
                }
            }
        }
        // Retire the task if the message has fully arrived and the
        // handler is done (or there was none).
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let complete = inner.tasks[src]
            .get(idx)
            .is_some_and(|t| t.msg_seq == msg_seq && t.future.is_none() && t.stream.ended());
        if complete {
            let task = inner.tasks[src].swap_remove(idx);
            inner.core.stats.messages_received += 1;
            inner.core.stats.bytes_received += task.stream.msg_len() as u64;
            if task.stream.is_sole_handle() {
                inner.idle_streams.push(task.stream);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{LoopbackDevice, LoopbackPair};

    const H: HandlerId = HandlerId(1);

    fn profile() -> MachineProfile {
        MachineProfile::ppro200_fm2() // MTU 1024
    }

    fn pair() -> (
        Fm2Engine<LoopbackDevice>,
        Fm2Engine<LoopbackDevice>,
        DevicePump,
    ) {
        // Device capacity strictly above the credit window so tests
        // observe credit exhaustion, not queue exhaustion.
        let (a, b) = LoopbackPair::new(256);
        let ea = Fm2Engine::new(a, profile());
        let eb = Fm2Engine::new(b, profile());
        let pump = DevicePump {
            a: Rc::clone(&ea.inner),
            b: Rc::clone(&eb.inner),
        };
        (ea, eb, pump)
    }

    /// Moves packets between the two loopback devices (tests control
    /// delivery granularity explicitly).
    struct DevicePump {
        a: Rc<RefCell<Inner<LoopbackDevice>>>,
        b: Rc<RefCell<Inner<LoopbackDevice>>>,
    }

    impl DevicePump {
        fn deliver(&self) -> usize {
            LoopbackPair::deliver(
                &mut self.a.borrow_mut().core.device,
                &mut self.b.borrow_mut().core.device,
            )
        }
        fn deliver_one(&self) -> usize {
            LoopbackPair::deliver_one(
                &mut self.a.borrow_mut().core.device,
                &mut self.b.borrow_mut().core.device,
            )
        }
    }

    /// Handler that records (src, full message bytes) into a shared log,
    /// reading the stream in `read_chunk`-sized receives.
    type MsgLog = Rc<RefCell<Vec<(usize, Vec<u8>)>>>;

    fn recording_handler(
        e: &Fm2Engine<LoopbackDevice>,
        id: HandlerId,
        read_chunk: usize,
    ) -> MsgLog {
        let log: MsgLog = Rc::default();
        let l = Rc::clone(&log);
        e.set_handler(id, move |stream: FmStream, src| {
            let l = Rc::clone(&l);
            async move {
                let mut msg = Vec::new();
                loop {
                    let mut buf = vec![0u8; read_chunk];
                    let n = stream.receive(&mut buf).await;
                    msg.extend_from_slice(&buf[..n]);
                    if n < read_chunk {
                        break;
                    }
                    if msg.len() >= stream.msg_len() {
                        break;
                    }
                }
                l.borrow_mut().push((src, msg));
            }
        });
        log
    }

    #[test]
    fn gather_send_scatter_receive_round_trip() {
        let (s, r, pump) = pair();
        let log = recording_handler(&r, H, 7); // deliberately odd read size
                                               // Gather from three differently-sized pieces.
        let header = [1u8, 2, 3, 4];
        let body: Vec<u8> = (0..100).collect();
        let trailer = [9u8; 5];
        s.try_send_message(1, H, &[&header, &body, &trailer])
            .unwrap();
        pump.deliver();
        r.extract_all();
        let expect: Vec<u8> = header
            .iter()
            .chain(body.iter())
            .chain(trailer.iter())
            .copied()
            .collect();
        assert_eq!(*log.borrow(), vec![(0, expect)]);
        assert_eq!(s.stats().messages_sent, 1);
        assert_eq!(r.stats().messages_received, 1);
        assert_eq!(r.stats().bytes_received, 109);
    }

    #[test]
    fn piecewise_send_with_begin_piece_end() {
        let (s, r, pump) = pair();
        let log = recording_handler(&r, H, 64);
        let mut ss = s.begin_message(1, 10, H);
        assert_eq!(s.try_send_piece(&mut ss, &[0, 1, 2]).unwrap(), 3);
        assert_eq!(s.try_send_piece(&mut ss, &[3, 4, 5, 6, 7, 8]).unwrap(), 6);
        assert_eq!(s.try_send_piece(&mut ss, &[9]).unwrap(), 1);
        s.try_end_message(&mut ss).unwrap();
        assert!(ss.is_ended());
        pump.deliver();
        r.extract_all();
        assert_eq!(log.borrow()[0].1, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn multi_packet_message_streams() {
        let (s, r, pump) = pair();
        let log = recording_handler(&r, H, 500);
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 256) as u8).collect();
        s.try_send_message(1, H, &[&data]).unwrap();
        assert_eq!(s.stats().packets_sent, 3, "3000 B / 1024 B MTU");
        pump.deliver();
        r.extract_all();
        assert_eq!(log.borrow()[0].1, data);
    }

    #[test]
    fn handler_starts_on_first_packet_layer_interleaving() {
        // The defining FM 2.x behaviour: with only the first packet
        // delivered, the handler must already have run far enough to read
        // the header.
        let (s, r, pump) = pair();
        let header_seen: Rc<RefCell<Option<Vec<u8>>>> = Rc::default();
        let hs = Rc::clone(&header_seen);
        let done: Rc<RefCell<bool>> = Rc::default();
        let d = Rc::clone(&done);
        r.set_handler(H, move |stream: FmStream, _src| {
            let hs = Rc::clone(&hs);
            let d = Rc::clone(&d);
            async move {
                let mut hdr = [0u8; 8];
                stream.receive(&mut hdr).await;
                *hs.borrow_mut() = Some(hdr.to_vec());
                // Now consume the payload.
                let rest = stream.receive_vec(stream.msg_len() - 8).await;
                assert_eq!(rest.len(), stream.msg_len() - 8);
                *d.borrow_mut() = true;
            }
        });
        let data = vec![42u8; 2500]; // 3 packets
        s.try_send_message(1, H, &[&data]).unwrap();

        pump.deliver_one(); // only packet 1 (1024 B)
        r.extract_all();
        assert_eq!(
            header_seen.borrow().as_deref(),
            Some(&[42u8; 8][..]),
            "header read from the first packet alone"
        );
        assert!(!*done.borrow(), "payload not complete yet");
        assert_eq!(r.pending_handlers(), 1, "handler suspended in FM_receive");

        pump.deliver();
        r.extract_all();
        assert!(*done.borrow());
        assert_eq!(r.pending_handlers(), 0);
    }

    #[test]
    fn interleaved_messages_multithread_handlers() {
        // Two concurrent send streams to the same receiver: their packets
        // interleave on the wire, and both handlers must reassemble their
        // own bytes.
        let (s, r, pump) = pair();
        let log = recording_handler(&r, H, 4096);
        let m1 = vec![1u8; 2048]; // 2 packets
        let m2 = vec![2u8; 2048];
        let mut s1 = s.begin_message(1, 2048, H);
        let mut s2 = s.begin_message(1, 2048, H);
        // Interleave piece submission.
        assert_eq!(s.try_send_piece(&mut s1, &m1[..1024]).unwrap(), 1024);
        assert_eq!(s.try_send_piece(&mut s2, &m2[..1024]).unwrap(), 1024);
        assert_eq!(s.try_send_piece(&mut s1, &m1[1024..]).unwrap(), 1024);
        assert_eq!(s.try_send_piece(&mut s2, &m2[1024..]).unwrap(), 1024);
        s.try_end_message(&mut s1).unwrap();
        s.try_end_message(&mut s2).unwrap();
        pump.deliver();
        r.extract_all();
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        assert!(log.iter().any(|(_, m)| *m == m1));
        assert!(log.iter().any(|(_, m)| *m == m2));
    }

    #[test]
    fn extract_budget_paces_the_receiver() {
        let (s, r, pump) = pair();
        let _log = recording_handler(&r, H, 4096);
        let data = vec![7u8; 4096]; // 4 packets
        s.try_send_message(1, H, &[&data]).unwrap();
        pump.deliver();
        // Budget of 1 byte still processes one whole packet (rounded to a
        // packet boundary).
        let n = r.extract(1);
        assert_eq!(n, 1024);
        assert_eq!(r.stats().packets_received, 1);
        // Budget of 2048 processes exactly two more.
        let n = r.extract(2048);
        assert_eq!(n, 2048);
        assert_eq!(r.stats().packets_received, 3);
        // The rest.
        r.extract_all();
        assert_eq!(r.stats().packets_received, 4);
        assert_eq!(r.stats().messages_received, 1);
    }

    #[test]
    fn credits_exhaust_and_recover() {
        let (s, r, pump) = pair();
        let _log = recording_handler(&r, H, 64);
        let window = profile().fm.credits_per_peer;
        for _ in 0..window {
            s.try_send_message(1, H, &[&[1u8][..]]).unwrap();
        }
        assert_eq!(s.try_send_message(1, H, &[&[1u8][..]]), Err(WouldBlock));
        pump.deliver();
        r.extract_all();
        assert!(r.stats().credit_packets_sent > 0);
        pump.deliver();
        s.extract_all(); // absorb credit-only packets
        s.try_send_message(1, H, &[&[1u8][..]]).unwrap();
    }

    #[test]
    fn send_piece_reports_partial_progress_on_credit_exhaustion() {
        let (s, _r, _pump) = pair();
        let window = profile().fm.credits_per_peer as usize;
        let mtu = profile().fm.mtu_payload;
        // A message larger than the whole credit window.
        let huge = vec![0u8; (window + 4) * mtu];
        let mut ss = s.begin_message(1, huge.len(), H);
        let accepted = s.try_send_piece(&mut ss, &huge).unwrap();
        // It accepted every byte it could stage: `window` packets flushed
        // plus one MTU still buffered in the stream.
        assert_eq!(accepted, window * mtu + mtu);
        assert_eq!(s.stats().packets_sent as usize, window);
        // No more can go: zero progress now reports WouldBlock.
        assert_eq!(
            s.try_send_piece(&mut ss, &huge[accepted..]),
            Err(WouldBlock)
        );
        assert!(s.stats().credit_stalls > 0);
    }

    #[test]
    fn early_handler_return_discards_rest_of_message() {
        // A handler that reads only the header; the unread payload must be
        // discarded without corrupting the next message.
        let (s, r, pump) = pair();
        let headers: Rc<RefCell<Vec<u8>>> = Rc::default();
        let hs = Rc::clone(&headers);
        r.set_handler(H, move |stream: FmStream, _| {
            let hs = Rc::clone(&hs);
            async move {
                let mut h = [0u8; 1];
                stream.receive(&mut h).await;
                hs.borrow_mut().push(h[0]);
                // return without consuming the rest
            }
        });
        let big = vec![11u8; 3000];
        s.try_send_message(1, H, &[&big]).unwrap();
        s.try_send_message(1, H, &[&[22u8; 10][..]]).unwrap();
        pump.deliver();
        r.extract_all();
        assert_eq!(*headers.borrow(), vec![11, 22]);
        assert_eq!(r.stats().messages_received, 2);
        assert_eq!(r.pending_handlers(), 0, "no leaked tasks");
    }

    #[test]
    fn skip_consumes_stream_without_copy() {
        let (s, r, pump) = pair();
        let tail: Rc<RefCell<Vec<u8>>> = Rc::default();
        let t = Rc::clone(&tail);
        r.set_handler(H, move |stream: FmStream, _| {
            let t = Rc::clone(&t);
            async move {
                stream.skip(2000).await;
                let rest = stream.receive_vec(stream.msg_len() - 2000).await;
                *t.borrow_mut() = rest;
            }
        });
        let mut data = vec![0u8; 2000];
        data.extend_from_slice(&[5, 6, 7]);
        s.try_send_message(1, H, &[&data]).unwrap();
        pump.deliver();
        let before = r.stats().bytes_copied;
        r.extract_all();
        assert_eq!(*tail.borrow(), vec![5, 6, 7]);
        assert_eq!(
            r.stats().bytes_copied - before,
            3,
            "only the received tail is copied"
        );
    }

    #[test]
    fn handler_reply_ping_pong() {
        let (a, b, pump) = pair();
        let pong = recording_handler(&a, HandlerId(2), 64);
        b.set_handler(H, {
            let b = b.clone();
            move |stream: FmStream, src| {
                let b = b.clone();
                async move {
                    let msg = stream.receive_vec(stream.msg_len()).await;
                    let reply: Vec<u8> = msg.iter().map(|x| x + 1).collect();
                    b.send_from_handler(src, HandlerId(2), reply);
                }
            }
        });
        a.try_send_message(1, H, &[&[1u8, 2, 3][..]]).unwrap();
        pump.deliver();
        b.extract_all(); // handler queues reply; progress flushes it
        pump.deliver();
        a.extract_all();
        assert_eq!(*pong.borrow(), vec![(1, vec![2, 3, 4])]);
    }

    #[test]
    fn self_send_delivers_locally() {
        let (a, _b, _pump) = pair();
        let log = recording_handler(&a, H, 64);
        a.try_send_message(0, H, &[&[1u8, 2][..], &[3u8][..]])
            .unwrap();
        a.extract_all();
        assert_eq!(*log.borrow(), vec![(0, vec![1, 2, 3])]);
        assert_eq!(a.stats().packets_sent, 0, "no wire traffic");
        assert_eq!(a.stats().messages_received, 1);
    }

    #[test]
    fn empty_message_runs_handler() {
        let (s, r, pump) = pair();
        let log = recording_handler(&r, H, 8);
        let mut ss = s.begin_message(1, 0, H);
        s.try_end_message(&mut ss).unwrap();
        pump.deliver();
        r.extract_all();
        assert_eq!(*log.borrow(), vec![(0, vec![])]);
    }

    #[test]
    fn unknown_handler_becomes_sink_with_error() {
        let (s, r, pump) = pair();
        s.try_send_message(1, HandlerId(9), &[&[1u8; 2000][..]])
            .unwrap();
        s.try_send_message(1, H, &[&[5u8][..]]).unwrap();
        let log = recording_handler(&r, H, 8);
        pump.deliver();
        r.extract_all();
        let errs = r.take_errors();
        assert!(matches!(errs[0], FmError::UnknownHandler { handler: 9 }));
        // The following message is unaffected.
        assert_eq!(*log.borrow(), vec![(0, vec![5])]);
        assert_eq!(r.pending_handlers(), 0);
    }

    #[test]
    #[should_panic(expected = "before supplying the declared")]
    fn end_message_with_missing_bytes_panics() {
        let (s, _r, _pump) = pair();
        let mut ss = s.begin_message(1, 10, H);
        s.try_send_piece(&mut ss, &[1, 2, 3]).unwrap();
        let _ = s.try_end_message(&mut ss);
    }

    #[test]
    #[should_panic(expected = "overflows the declared message length")]
    fn piece_overflow_panics() {
        let (s, _r, _pump) = pair();
        let mut ss = s.begin_message(1, 2, H);
        let _ = s.try_send_piece(&mut ss, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "may not be called from a handler")]
    fn extract_from_handler_panics() {
        let (s, r, pump) = pair();
        r.set_handler(H, {
            let r = r.clone();
            move |_stream: FmStream, _| {
                let r = r.clone();
                async move {
                    r.extract_all();
                }
            }
        });
        s.try_send_message(1, H, &[&[1u8][..]]).unwrap();
        pump.deliver();
        r.extract_all();
    }

    #[test]
    fn sequence_gap_reported_for_lost_packet() {
        let (s, r, pump) = pair();
        let log = recording_handler(&r, H, 64);
        s.try_send_message(1, H, &[&[1u8][..]]).unwrap();
        s.try_send_message(1, H, &[&[2u8][..]]).unwrap();
        // Drop the first message's packet in flight.
        {
            let mut inner = s.inner.borrow_mut();
            let _ = inner.core.device.out_remove_for_test(0);
        }
        pump.deliver();
        r.extract_all();
        let errs = r.take_errors();
        assert!(matches!(
            errs[0],
            FmError::SequenceGap {
                src: 0,
                expected: 0,
                got: 1
            }
        ));
        assert_eq!(*log.borrow(), vec![(0, vec![2])], "later message survives");
    }

    #[test]
    fn many_messages_in_order() {
        let (s, r, pump) = pair();
        let log = recording_handler(&r, H, 64);
        let mut sent = 0u32;
        while sent < 100 {
            if s.try_send_message(1, H, &[&sent.to_le_bytes()[..]])
                .is_err()
            {
                pump.deliver();
                r.extract_all();
                pump.deliver();
                s.extract_all();
                continue;
            }
            sent += 1;
        }
        pump.deliver();
        r.extract_all();
        let got: Vec<u32> = log
            .borrow()
            .iter()
            .map(|(_, m)| u32::from_le_bytes(m[..4].try_into().unwrap()))
            .collect();
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn open_messages_of_one_source_retire_in_any_order() {
        // Three messages open at once from one source; the middle one
        // ends first, then the first, then the last: each packet must
        // find its own task whatever the others' slots did meanwhile.
        let (s, r, pump) = pair();
        let log = recording_handler(&r, H, 4096);
        let msgs: Vec<Vec<u8>> = (1..=3u8).map(|b| vec![b; 3000]).collect();
        let mut open: Vec<SendStream> = msgs.iter().map(|_| s.begin_message(1, 3000, H)).collect();
        for (ss, m) in open.iter_mut().zip(&msgs) {
            // Past one MTU, so that the FIRST packet leaves now.
            assert_eq!(s.try_send_piece(ss, &m[..2000]).unwrap(), 2000);
        }
        pump.deliver();
        r.extract_all();
        assert_eq!(r.pending_handlers(), 3);
        for i in [1, 0, 2] {
            assert_eq!(
                s.try_send_piece(&mut open[i], &msgs[i][2000..]).unwrap(),
                1000
            );
            s.try_end_message(&mut open[i]).unwrap();
            pump.deliver();
            r.extract_all();
        }
        assert_eq!(r.pending_handlers(), 0);
        let got: Vec<Vec<u8>> = log.borrow().iter().map(|(_, m)| m.clone()).collect();
        assert_eq!(got, vec![msgs[1].clone(), msgs[0].clone(), msgs[2].clone()]);
        assert!(r.take_errors().is_empty());
    }

    #[test]
    fn retired_tasks_lend_their_stream_cells_to_the_next_message() {
        // One message open at a time: one set of stream cells serves them
        // all (the free list never grows past the open-task high water).
        let (s, r, pump) = pair();
        let log = recording_handler(&r, H, 4096);
        for i in 0..50u8 {
            s.try_send_message(1, H, &[&vec![i; 3000]]).unwrap();
            pump.deliver();
            r.extract_all();
            pump.deliver();
            s.extract_all();
            assert_eq!(r.inner.borrow().idle_streams.len(), 1, "message {i}");
        }
        assert_eq!(log.borrow().len(), 50);
        assert!(log
            .borrow()
            .iter()
            .enumerate()
            .all(|(i, (_, m))| *m == vec![i as u8; 3000]));
    }

    #[test]
    fn a_stream_handle_the_handler_kept_is_never_rearmed() {
        // `FmStream` is `Clone`: a handler may stash its handle. Cells
        // with a handle still out must not become another message's.
        let (s, r, pump) = pair();
        let kept: Rc<RefCell<Vec<FmStream>>> = Rc::default();
        let k = Rc::clone(&kept);
        r.set_handler(H, move |stream: FmStream, _| {
            k.borrow_mut().push(stream.clone());
            async move {
                stream.skip(stream.msg_len()).await;
            }
        });
        for len in [10usize, 20] {
            s.try_send_message(1, H, &[&vec![0u8; len]]).unwrap();
            pump.deliver();
            r.extract_all();
        }
        assert_eq!(r.pending_handlers(), 0);
        assert!(r.inner.borrow().idle_streams.is_empty());
        let lens: Vec<usize> = kept.borrow().iter().map(FmStream::msg_len).collect();
        assert_eq!(
            lens,
            vec![10, 20],
            "each handle still views its own message"
        );
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::device::{LoopbackDevice, LoopbackPair};

    const H: HandlerId = HandlerId(1);

    fn pair() -> (Fm2Engine<LoopbackDevice>, Fm2Engine<LoopbackDevice>) {
        let (a, b) = LoopbackPair::new(256);
        let p = MachineProfile::ppro200_fm2();
        (Fm2Engine::new(a, p), Fm2Engine::new(b, p))
    }

    fn deliver(a: &Fm2Engine<LoopbackDevice>, b: &Fm2Engine<LoopbackDevice>) {
        a.with_device(|da| b.with_device(|db| LoopbackPair::deliver(da, db)));
    }

    #[test]
    fn dropped_first_packet_is_reported_as_orphan() {
        // TrustSubstrate mode: losing the FIRST packet of a multi-packet
        // message leaves the rest with no open stream — a sequence gap at
        // the next packet, then orphan reports for the in-sequence tail.
        let (s, r) = pair();
        let hits: Rc<RefCell<u32>> = Rc::default();
        {
            let h = Rc::clone(&hits);
            r.set_handler(H, move |stream: FmStream, _| {
                let h = Rc::clone(&h);
                async move {
                    stream.skip(stream.msg_len()).await;
                    *h.borrow_mut() += 1;
                }
            });
        }
        let mtu = s.profile().fm.mtu_payload;
        let big = vec![9u8; 3 * mtu];
        s.try_send_message(1, H, &[&big]).unwrap();
        s.with_device(|d| {
            let _ = d.out_remove_for_test(0); // lose FIRST in flight
        });
        deliver(&s, &r);
        r.extract_all();
        let errs = r.take_errors();
        assert!(errs
            .iter()
            .any(|e| matches!(e, FmError::SequenceGap { src: 0, .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, FmError::OrphanPacket { src: 0, .. })));
        assert_eq!(r.stats().errors_reported, errs.len() as u64);
        assert_eq!(*hits.borrow(), 0, "no partial delivery");
    }

    #[test]
    fn handler_replacement_takes_effect_for_new_messages() {
        let (s, r) = pair();
        let hits_a: Rc<RefCell<u32>> = Rc::default();
        let hits_b: Rc<RefCell<u32>> = Rc::default();
        {
            let h = Rc::clone(&hits_a);
            r.set_handler(H, move |stream: FmStream, _| {
                let h = Rc::clone(&h);
                async move {
                    stream.skip(stream.msg_len()).await;
                    *h.borrow_mut() += 1;
                }
            });
        }
        s.try_send_message(1, H, &[&[1u8][..]]).unwrap();
        deliver(&s, &r);
        r.extract_all();
        // Replace the handler; subsequent messages go to the new one.
        {
            let h = Rc::clone(&hits_b);
            r.set_handler(H, move |stream: FmStream, _| {
                let h = Rc::clone(&h);
                async move {
                    stream.skip(stream.msg_len()).await;
                    *h.borrow_mut() += 1;
                }
            });
        }
        s.try_send_message(1, H, &[&[2u8][..]]).unwrap();
        deliver(&s, &r);
        r.extract_all();
        assert_eq!((*hits_a.borrow(), *hits_b.borrow()), (1, 1));
    }

    #[test]
    fn extract_budget_applies_to_local_messages_too() {
        let (a, _b) = pair();
        let count: Rc<RefCell<u32>> = Rc::default();
        {
            let c = Rc::clone(&count);
            a.set_handler(H, move |stream: FmStream, _| {
                let c = Rc::clone(&c);
                async move {
                    stream.skip(stream.msg_len()).await;
                    *c.borrow_mut() += 1;
                }
            });
        }
        for _ in 0..4 {
            a.try_send_message(0, H, &[&[9u8; 100][..]]).unwrap();
        }
        // A 100-byte budget admits exactly one local message per call.
        assert_eq!(a.extract(100), 100);
        assert_eq!(*count.borrow(), 1);
        a.extract(100);
        assert_eq!(*count.borrow(), 2);
        a.extract_all();
        assert_eq!(*count.borrow(), 4);
    }

    #[test]
    fn send_stream_accessors_track_progress() {
        let (s, _r) = pair();
        let mut ss = s.begin_message(1, 2000, H);
        assert_eq!(ss.dst(), 1);
        assert_eq!(ss.msg_len(), 2000);
        assert_eq!(ss.bytes_remaining(), 2000);
        s.try_send_piece(&mut ss, &[0u8; 700]).unwrap();
        assert_eq!(ss.bytes_accepted(), 700);
        assert_eq!(ss.bytes_remaining(), 1300);
        assert!(!ss.is_ended());
        s.try_send_piece(&mut ss, &[0u8; 1300]).unwrap();
        s.try_end_message(&mut ss).unwrap();
        assert!(ss.is_ended());
        // Ending twice is a no-op.
        s.try_end_message(&mut ss).unwrap();
    }

    #[test]
    fn stats_track_wire_and_message_counts() {
        let (s, r) = pair();
        recording(&r);
        s.try_send_message(1, H, &[&[1u8; 2500][..]]).unwrap(); // 3 packets
        s.try_send_message(1, H, &[&[2u8; 10][..]]).unwrap(); // 1 packet
        deliver(&s, &r);
        r.extract_all();
        let ss = s.stats();
        assert_eq!(ss.messages_sent, 2);
        assert_eq!(ss.packets_sent, 4);
        assert_eq!(ss.bytes_sent, 2510);
        let rs = r.stats();
        assert_eq!(rs.messages_received, 2);
        assert_eq!(rs.packets_received, 4);
        assert_eq!(rs.bytes_received, 2510);
        assert_eq!(rs.handlers_run, 2);
    }

    /// Install a skip-everything handler for stats tests.
    fn recording(e: &Fm2Engine<LoopbackDevice>) {
        e.set_handler(H, |stream: FmStream, _| async move {
            stream.skip(stream.msg_len()).await;
        });
    }

    #[test]
    fn obs_records_streaming_lifecycle_with_suspension() {
        use crate::obs::{ObsSink, SpanKind};
        let (s, r) = pair();
        assert!(s.obs().is_none(), "no sink by default");
        let sink_s = ObsSink::new(1024);
        let sink_r = ObsSink::new(1024);
        s.attach_obs(sink_s.clone());
        r.attach_obs(sink_r.clone());
        let done: Rc<RefCell<bool>> = Rc::default();
        {
            let d = Rc::clone(&done);
            r.set_handler(H, move |stream: FmStream, _| {
                let d = Rc::clone(&d);
                async move {
                    stream.skip(stream.msg_len()).await;
                    *d.borrow_mut() = true;
                }
            });
        }
        let mtu = s.profile().fm.mtu_payload;
        let data = vec![3u8; 2 * mtu + 10]; // 3 packets
        s.try_send_message(1, H, &[&data]).unwrap();
        // Deliver one packet at a time so the handler suspends mid-message.
        while s.with_device(|da| r.with_device(|db| LoopbackPair::deliver_one(da, db))) > 0 {
            r.extract_all();
        }
        assert!(*done.borrow());
        let sk: Vec<SpanKind> = sink_s.events().iter().map(|e| e.kind).collect();
        assert!(sk.contains(&SpanKind::BeginMessage));
        assert!(sk.contains(&SpanKind::SendPiece));
        assert_eq!(sk.iter().filter(|k| **k == SpanKind::PacketSend).count(), 3);
        assert!(sk.contains(&SpanKind::EndMessage));
        let rk: Vec<SpanKind> = sink_r.events().iter().map(|e| e.kind).collect();
        assert!(rk.contains(&SpanKind::HandlerStart));
        assert!(rk.contains(&SpanKind::HandlerSuspend), "handler waited");
        assert!(rk.contains(&SpanKind::HandlerResume), "and was resumed");
        assert!(rk.contains(&SpanKind::HandlerEnd));
        // Start → (suspend → resume)* → end, in that order.
        let start = rk
            .iter()
            .position(|k| *k == SpanKind::HandlerStart)
            .unwrap();
        let end = rk.iter().rposition(|k| *k == SpanKind::HandlerEnd).unwrap();
        let suspend = rk
            .iter()
            .position(|k| *k == SpanKind::HandlerSuspend)
            .unwrap();
        let resume = rk
            .iter()
            .position(|k| *k == SpanKind::HandlerResume)
            .unwrap();
        assert!(start < suspend && suspend < resume && resume < end);
    }

    #[test]
    fn retransmit_window_bounds_streaming_sends() {
        use crate::reliable::{Reliability, RetransmitConfig};
        let (a, b) = LoopbackPair::new(256);
        let p = MachineProfile::ppro200_fm2();
        let cfg = RetransmitConfig {
            window: 4,
            ..RetransmitConfig::default()
        };
        let s = Fm2Engine::with_reliability(a, p, Reliability::Retransmit(cfg));
        let r = Fm2Engine::with_reliability(b, p, Reliability::Retransmit(cfg));
        recording(&r);
        // A message bigger than the whole window streams through it.
        let mtu = p.fm.mtu_payload;
        let big = vec![7u8; 6 * mtu];
        let mut ss = s.begin_message(1, big.len(), H);
        let first = s.try_send_piece(&mut ss, &big).unwrap();
        assert!(first < big.len(), "window must close mid-message");
        assert!(s.stats().credit_stalls > 0);
        let mut sent = first;
        while sent < big.len() || s.try_end_message(&mut ss).is_err() {
            deliver(&s, &r);
            r.extract_all();
            deliver(&r, &s);
            s.extract_all();
            if sent < big.len() {
                sent += s.try_send_piece(&mut ss, &big[sent..]).unwrap_or(0);
            }
        }
        deliver(&s, &r);
        r.extract_all();
        assert_eq!(r.stats().messages_received, 1);
        assert_eq!(r.stats().bytes_received, big.len() as u64);
    }
}
