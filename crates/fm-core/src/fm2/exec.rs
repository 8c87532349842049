//! The FM 2.x receive side: the handler tables, budgeted `FM_extract`,
//! and the executor that runs each incoming message's handler as a
//! logical thread — started on the first packet, suspended at
//! `FM_receive` and resumed as later packets arrive.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Waker};

use crate::buf::PacketBuf;
use crate::device::NetDevice;
use crate::engine::Admit;
use crate::error::FmError;
use crate::obs::{ObsEvent, SpanKind};
use crate::packet::{FmPacket, HandlerId, PacketFlags};

use super::engine::Fm2Engine;
use super::stream::FmStream;

/// A registered FM 2.x handler: called with the message stream and the
/// sender when a message's first packet arrives; the returned future is
/// the handler's logical thread.
pub type Fm2HandlerFn = Rc<dyn Fn(FmStream, usize) -> Pin<Box<dyn Future<Output = ()>>>>;

/// A synchronous fast-path handler (see [`Fm2Engine::set_fast_handler`]):
/// called with the sender and a zero-copy view of a whole message's
/// payload. The view borrows the arrival frame — it is valid only for the
/// duration of the call.
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

/// A synchronous per-packet **sink** (see [`Fm2Engine::set_packet_sink`]).
pub trait PacketSink {
    /// One arriving packet of a message — any size — from `src`, with
    /// its metadata and a zero-copy view of its payload inside the
    /// arrival frame. The view is valid only for the duration of the call.
    fn packet(&mut self, src: usize, meta: SinkMeta, payload: &[u8]);

    /// `peer` went down or restarted: no more packets of the messages it
    /// had part-way in will come, so whatever the sink keeps for them is
    /// dead. Called from the engine's membership drain, before any packet
    /// that follows the transition; it must not call the engine.
    fn peer_reset(&mut self, _peer: usize) {}
}

/// A closure is a sink that ignores resets.
impl<F: FnMut(usize, SinkMeta, &[u8])> PacketSink for F {
    fn packet(&mut self, src: usize, meta: SinkMeta, payload: &[u8]) {
        self(src, meta, payload)
    }
}

/// A registered per-packet sink.
pub type SinkHandlerFn = Box<dyn PacketSink>;

/// An entry of the synchronous handler table: called from the extract
/// loop on a zero-copy view of the arrival frame — no stream, no task,
/// no future, no allocation.
pub(super) enum SyncHandler {
    /// Sees a message only when one call delivers all of it (a
    /// single-packet message or a self-send); a longer one to the same id
    /// falls through to the async table
    /// ([`Fm2Engine::set_fast_handler`]).
    Whole(Fm2FastHandlerFn),
    /// Sees every packet of every message
    /// ([`Fm2Engine::set_sink_handler`]).
    PerPacket(SinkHandlerFn),
}

/// One in-flight incoming message: its stream state and (while the handler
/// is still running) its suspended future.
pub(super) struct Task {
    /// The message's sequence number from its sender: the task's key
    /// among that sender's open messages.
    pub(super) msg_seq: u32,
    pub(super) future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    /// The engine's handle on the message stream (the handler holds
    /// clones).
    pub(super) stream: FmStream,
    /// Which handler runs this message (observability).
    pub(super) handler: HandlerId,
    /// Times the future has been polled — poll 0 is the handler start,
    /// later polls are resumptions after an `FM_receive` suspension.
    pub(super) polls: u32,
}

impl<D: NetDevice> Fm2Engine<D> {
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

    /// Register a synchronous **whole-message** handler under `id`
    /// (replacing any synchronous handler already there).
    ///
    /// It fires for messages that one call can deliver whole —
    /// *single-packet* messages (FIRST|LAST in one frame) and self-sends
    /// — directly from the extract loop: no stream state, no future
    /// allocation, no task bookkeeping — the handler sees a zero-copy
    /// view of the payload inside the arrival frame. Messages larger than
    /// one packet to the same id fall back to the async handler
    /// registered with [`set_handler`](Self::set_handler) (or are
    /// reported as unknown-handler if there is none).
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
        let entry = SyncHandler::Whole(Box::new(f));
        self.inner.borrow_mut().sync_handlers.set(id, entry);
    }

    /// Register a synchronous per-packet **sink** handler under `id`
    /// (replacing any synchronous handler already there): a closure
    /// [`PacketSink`] (see [`set_packet_sink`](Self::set_packet_sink)).
    pub fn set_sink_handler<F>(&self, id: HandlerId, f: F)
    where
        F: FnMut(usize, SinkMeta, &[u8]) + 'static,
    {
        self.set_packet_sink(id, f);
    }

    /// Register a synchronous per-packet **sink** under `id`
    /// (replacing any synchronous handler already there).
    ///
    /// A sink fires once per arriving packet of a message — messages of
    /// *any* size, unlike [`set_fast_handler`](Self::set_fast_handler) —
    /// directly from the extract loop: no stream state, no future, no
    /// task bookkeeping, no per-message allocation. Each call sees a
    /// zero-copy view of one packet's payload inside the arrival frame,
    /// plus [`SinkMeta`] (message sequence, declared length, first/last
    /// flags) so the sink can scatter the bytes to their final
    /// destination itself. This is the one-sided receive path: put and
    /// DATA segments land straight in a registered region with no
    /// staging copy, and MPI-FM 2.x's messages in their matched receives.
    /// A sink that keeps messages part-way in is told when their sender
    /// goes down or restarts ([`PacketSink::peer_reset`]).
    ///
    /// A sink consumes everything addressed to its id; an async handler
    /// under the same id never runs. The payload view is valid **only
    /// for the duration of the call**; sinks may call engine send methods
    /// but not `extract`.
    pub fn set_packet_sink<S: PacketSink + 'static>(&self, id: HandlerId, sink: S) {
        let entry = SyncHandler::PerPacket(Box::new(sink));
        self.inner.borrow_mut().sync_handlers.set(id, entry);
    }

    /// Whether anything — async or synchronous — is registered under
    /// `id`. A layer that owns fixed ids checks this before installing
    /// itself, since registration replaces silently.
    pub fn has_handler(&self, id: HandlerId) -> bool {
        let inner = self.inner.borrow();
        inner.handlers.get(id).is_some() || inner.sync_handlers.get(id).is_some()
    }

    /// `FM_extract(bytes)`: process up to `budget` payload bytes of
    /// incoming packets (rounded up to a packet boundary — the paper's
    /// receiver flow control), running/resuming handlers as data arrives.
    /// Returns the number of payload bytes processed.
    ///
    /// The budget is accounted in *handler-delivered payload bytes*:
    /// wire-frame headers, pure ack/credit frames, suppressed duplicates
    /// and orphan-dropped packets consume none of it, so a budget of `N`
    /// never feeds handlers more than `N` payload bytes plus one packet
    /// of boundary slack. That packet is as large as its link's MTU — up
    /// to a ring slot's payload from a same-host peer — and for a
    /// NIC-bypassing self-send, which is never packetized, it is the
    /// whole message.
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
                // A packet a queued send admitted goes first: the device
                // holds only what arrived after it.
                if let Some(pkt) = inner.kept.take() {
                    pkt
                } else {
                    let Some(pkt) = inner.core.recv() else { break };
                    match inner.core.admit(&pkt) {
                        // After a gap the stream face still feeds the
                        // packet in: a message that lost packets is
                        // reported as orphans where it no longer joins an
                        // open stream.
                        Admit::Data { .. } => pkt,
                        Admit::Control | Admit::Withheld => continue,
                    }
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

    /// Hand one packet (or one whole self-send) described by `meta` to
    /// the synchronous handler registered under `handler`. Returns false
    /// when there is none that takes it — no entry, or a whole-message
    /// one and `payload` is only part of its message. The handler is
    /// moved out of the table and called with the engine unborrowed, so
    /// it may send (not extract).
    fn run_sync(&self, src: usize, handler: HandlerId, meta: SinkMeta, payload: &[u8]) -> bool {
        let mut f = {
            let mut inner = self.inner.borrow_mut();
            let whole = meta.first && meta.last;
            match inner.sync_handlers.get(handler) {
                Some(SyncHandler::PerPacket(_)) => {}
                Some(SyncHandler::Whole(_)) if whole => {}
                _ => return false,
            }
            let f = inner.sync_handlers.take(handler).expect("matched above");
            inner
                .core
                .sync_enter(src, handler, meta.msg_seq, meta.msg_len, meta.first);
            f
        };
        match &mut f {
            SyncHandler::Whole(f) => f(src, payload),
            SyncHandler::PerPacket(f) => f.packet(src, meta, payload),
        }
        let mut inner = self.inner.borrow_mut();
        inner
            .core
            .sync_exit(src, handler, meta.msg_seq, meta.msg_len, meta.last);
        inner.sync_handlers.restore(handler, f);
        true
    }

    fn deliver_local(&self, handler: HandlerId, payload: PacketBuf) {
        let me = self.node_id();
        let len = payload.len() as u32;
        // A self-send is never packetized: the whole message arrives in
        // one call, so `first` and `last` are both set and `msg_seq` is 0.
        let meta = SinkMeta {
            msg_seq: 0,
            msg_len: len,
            first: true,
            last: true,
        };
        if self.run_sync(me, handler, meta, &payload) {
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

        // Synchronous path: a per-packet sink consumes every packet of
        // its messages right here, a whole-message handler every complete
        // single-packet one — no stream, no task, no future, no
        // allocation. The handler reads the payload in place (a view of
        // the arrival frame, valid only for the call).
        if self.run_sync(src, handler, meta, &pkt.payload) {
            return pkt.payload.len();
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
