//! The FM 2.x receive side: the handler table, budgeted `FM_extract`,
//! and the one dispatch that hands each arriving packet — or whole
//! self-send — to the handler registered under its id. Every kind of
//! handler is an entry of the one table: a per-packet sink, a
//! whole-message handler, and an async handler, whose executor
//! ([`super::tasks`]) runs each message as a logical thread.

use std::future::Future;

use crate::buf::PacketBuf;
use crate::device::NetDevice;
use crate::engine::Admit;
use crate::error::FmError;
use crate::packet::{HandlerId, PacketFlags};

use super::engine::Fm2Engine;
use super::stream::FmStream;
use super::tasks::AsyncHandler;

/// Per-packet metadata passed to a sink (see
/// [`Fm2Engine::set_packet_sink`]).
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

/// An entry of the handler table, as the dispatch calls it: every
/// registration — a sink, a whole-message handler, an async handler —
/// takes a message packet by packet. The engine is passed in unborrowed,
/// so a handler may call it (send, not extract).
pub(super) trait Handler<D: NetDevice> {
    /// One packet of a message from `src` (a self-send is one packet,
    /// `first` and `last`), its frame handed over: a handler that keeps
    /// the bytes past the call keeps the frame, with no copy.
    fn take(&mut self, fm: &Fm2Engine<D>, src: usize, meta: SinkMeta, payload: PacketBuf) -> Took;

    /// `peer` went down or restarted (see [`PacketSink::peer_reset`]).
    fn peer_reset(&mut self, _peer: usize) {}

    /// Messages whose handler has started and not finished.
    fn pending(&self) -> usize {
        0
    }
}

/// What a handler made of one packet; the dispatch accounts for it.
pub(super) enum Took {
    /// A packet of a message the handler takes call by call: the
    /// message ends with its last packet.
    Packet,
    /// A packet a handler task streamed in; the task ends its message.
    Task,
    /// A later packet that joins no message the handler has open.
    Orphan,
    /// A message the handler does not take.
    Refused,
}

impl<D: NetDevice, S: PacketSink> Handler<D> for S {
    fn take(&mut self, _: &Fm2Engine<D>, src: usize, meta: SinkMeta, payload: PacketBuf) -> Took {
        self.packet(src, meta, &payload);
        Took::Packet
    }

    fn peer_reset(&mut self, peer: usize) {
        PacketSink::peer_reset(self, peer);
    }
}

/// A whole-message handler ([`Fm2Engine::set_fast_handler`]): it takes
/// a message that one call delivers whole, and refuses a longer one.
struct Whole<F>(F);

impl<D: NetDevice, F: FnMut(usize, &[u8])> Handler<D> for Whole<F> {
    fn take(&mut self, _: &Fm2Engine<D>, src: usize, meta: SinkMeta, payload: PacketBuf) -> Took {
        if !(meta.first && meta.last) {
            return Took::Refused;
        }
        (self.0)(src, &payload);
        Took::Packet
    }
}

impl<D: NetDevice> Fm2Engine<D> {
    /// Register an async handler under `id`, replacing whatever handler
    /// is registered there.
    ///
    /// ```ignore
    /// fm.set_handler(HandlerId(1), |stream, src| async move {
    ///     let mut hdr = [0u8; 8];
    ///     stream.receive(&mut hdr).await;      // may suspend
    ///     let body = stream.receive_vec(stream.remaining()).await;
    ///     /* ... */
    /// });
    /// ```
    ///
    /// The handler starts on a message's first packet and suspends in
    /// `FM_receive` until the bytes it asks for arrive. It is a table
    /// entry like a sink: its open messages end with their sender's
    /// reset, and registering over it drops them.
    pub fn set_handler<F, Fut>(&self, id: HandlerId, f: F)
    where
        F: Fn(FmStream, usize) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let (nodes, host) = (self.num_nodes(), self.profile().host);
        self.register(id, AsyncHandler::new(id, nodes, host, f));
    }

    /// Register a synchronous **whole-message** handler under `id`,
    /// replacing whatever handler is registered there.
    ///
    /// It fires for messages that one call can deliver whole —
    /// *single-packet* messages (FIRST|LAST in one frame) and self-sends
    /// — directly from the extract loop: no stream state, no future
    /// allocation, no task bookkeeping — the handler sees a zero-copy
    /// view of the payload inside the arrival frame. A message larger
    /// than one packet to its id is reported as
    /// [`FmError::UnknownHandler`] and dropped.
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
        self.register(id, Whole(f));
    }

    /// Register a synchronous per-packet **sink** under `id`, replacing
    /// whatever handler is registered there. A closure
    /// `move |src, meta: SinkMeta, payload: &[u8]| ..` is a sink (its
    /// argument types written out, so that it takes any payload borrow).
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
    /// The payload view is valid **only for the duration of the call**;
    /// sinks may call engine send methods but not `extract`.
    pub fn set_packet_sink<S: PacketSink + 'static>(&self, id: HandlerId, sink: S) {
        self.register(id, sink);
    }

    /// Put `h` in the handler table under `id`. The entry it replaces
    /// (an async handler's open messages with it) is dropped with the
    /// engine unborrowed, as a handler runs.
    fn register(&self, id: HandlerId, h: impl Handler<D> + 'static) {
        let replaced = self.inner.borrow_mut().handlers.set(id, Box::new(h));
        drop(replaced);
    }

    /// Whether a handler of any kind is registered under `id`. A layer
    /// that owns fixed ids checks this before installing itself, since
    /// registration replaces silently.
    pub fn has_handler(&self, id: HandlerId) -> bool {
        self.inner.borrow().handlers.get(id).is_some()
    }

    /// `FM_extract(bytes)`: process up to `budget` payload bytes of
    /// incoming packets (rounded up to a packet boundary — the paper's
    /// receiver flow control), running/resuming handlers as data arrives.
    /// Returns the number of payload bytes processed.
    ///
    /// The budget is accounted in *handler-delivered payload bytes*:
    /// wire-frame headers, pure ack/credit frames, suppressed duplicates,
    /// orphan-dropped packets and messages no handler takes consume none
    /// of it, so a budget of `N` never feeds handlers more than `N`
    /// payload bytes plus one packet of boundary slack. That packet is as
    /// large as its link's MTU — up to a ring slot's payload from a
    /// same-host peer — and for a NIC-bypassing self-send, which is never
    /// packetized, it is the whole message.
    ///
    /// # Panics
    /// Panics if called from inside a handler.
    pub fn extract(&self, budget: usize) -> usize {
        self.inner.borrow_mut().core.begin_extract(budget);
        let mut processed = 0usize;

        // Self-addressed messages first (they bypass the NIC). One is
        // never packetized: it arrives whole, as one packet of sequence 0.
        while processed < budget {
            let next = self.inner.borrow_mut().local.pop_front();
            let Some((handler, payload)) = next else {
                break;
            };
            let meta = SinkMeta {
                msg_seq: 0,
                msg_len: payload.len() as u32,
                first: true,
                last: true,
            };
            processed += self.dispatch(self.node_id(), handler, meta, payload);
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
            let h = &pkt.header;
            let meta = SinkMeta {
                msg_seq: h.msg_seq,
                msg_len: h.msg_len,
                first: h.flags.contains(PacketFlags::FIRST),
                last: h.flags.contains(PacketFlags::LAST),
            };
            processed += self.dispatch(h.src as usize, h.handler, meta, pkt.payload);
        }

        self.progress();
        processed
    }

    /// Process everything pending (an unbounded `FM_extract()`).
    pub fn extract_all(&self) -> usize {
        self.extract(usize::MAX)
    }

    /// The one dispatch: hand one packet (or one whole self-send) to the
    /// handler registered under `id`, and return the payload bytes it
    /// took, which is what `extract`'s budget counts. A message's first
    /// packet pays the table lookup and starts the handler span, hit or
    /// miss. The handler is moved out of the table and called with the
    /// engine unborrowed, so it may send (not extract); a sink's message
    /// ends with its last packet, a task's when the task retires.
    fn dispatch(&self, src: usize, id: HandlerId, meta: SinkMeta, payload: PacketBuf) -> usize {
        let len = payload.len();
        let mut entry = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            if meta.first {
                let core = &mut inner.core;
                core.handler_started(src, id, meta.msg_seq, meta.msg_len);
            }
            let entry = inner.handlers.take(id);
            inner.core.in_extract = entry.is_some();
            entry
        };
        let took = match &mut entry {
            Some(h) => h.take(self, src, meta, payload),
            None => Took::Refused,
        };
        let mut inner = self.inner.borrow_mut();
        inner.core.in_extract = false;
        let replaced = entry.and_then(|h| inner.handlers.restore(id, h));
        let core = &mut inner.core;
        let taken = match took {
            Took::Packet if meta.last => {
                core.message_ended(src, id, meta.msg_seq, meta.msg_len);
                len
            }
            Took::Packet | Took::Task => len,
            Took::Orphan => {
                let msg_seq = meta.msg_seq;
                core.report_error(FmError::OrphanPacket { src, msg_seq });
                0
            }
            Took::Refused => {
                if meta.first {
                    core.report_error(FmError::UnknownHandler { handler: id.0 });
                }
                0
            }
        };
        // A handler that registered a replacement for itself while it
        // ran is dropped unborrowed.
        drop(inner);
        drop(replaced);
        taken
    }
}
