//! The async handler executor: the table entry behind
//! [`Fm2Engine::set_handler`]. It runs each incoming message's handler as
//! a logical thread — started on the first packet, suspended at
//! `FM_receive` and resumed as later packets arrive — and owns the tasks
//! of the messages still open, so a peer reset reaches them through
//! [`Handler::peer_reset`] like any sink's state.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Waker};

use fm_model::profile::HostCosts;

use crate::buf::PacketBuf;
use crate::device::NetDevice;
use crate::obs::{ObsEvent, SpanKind};
use crate::packet::HandlerId;

use super::engine::Fm2Engine;
use super::exec::{Handler, SinkMeta, Took};
use super::stream::FmStream;

/// Starts a message's handler: called with the message stream and the
/// sender on its first packet; the returned future is the handler's
/// logical thread.
type StartFn = Box<dyn Fn(FmStream, usize) -> Pin<Box<dyn Future<Output = ()>>>>;

/// One in-flight incoming message: its stream state and (while the handler
/// is still running) its suspended future.
struct Task {
    /// The message's sequence number from its sender: the task's key
    /// among that sender's open messages.
    msg_seq: u32,
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    /// The executor's handle on the message stream (the handler holds
    /// clones).
    stream: FmStream,
    /// Times the future has been polled — poll 0 is the handler start,
    /// later polls are resumptions after an `FM_receive` suspension.
    polls: u32,
}

/// One registered async handler and the messages it has open.
pub(super) struct AsyncHandler {
    /// The id it is registered under (observability).
    id: HandlerId,
    start: StartFn,
    /// Open messages by source, found by `msg_seq` with a linear scan: a
    /// source has one message open in the common case, and interleaved
    /// messages stay few. A self-send is `msg_seq` 0 under this node's
    /// own slot (it never reaches the wire, so nothing else is there).
    tasks: Vec<Vec<Task>>,
    /// Stream cells of retired tasks, re-armed for the next message so
    /// that a handler task in steady state allocates only its future.
    /// Never longer than the most tasks that were open at once.
    pub(super) idle_streams: Vec<FmStream>,
    /// The receive-side costs of new stream cells.
    host: HostCosts,
}

impl AsyncHandler {
    /// `f` registered under `id` on an engine of `nodes` nodes, whose
    /// receives cost what `host` says.
    pub(super) fn new<F, Fut>(id: HandlerId, nodes: usize, host: HostCosts, f: F) -> Self
    where
        F: Fn(FmStream, usize) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        AsyncHandler {
            id,
            start: Box::new(move |s, src| Box::pin(f(s, src))),
            tasks: (0..nodes).map(|_| Vec::new()).collect(),
            idle_streams: Vec::new(),
            host,
        }
    }

    /// Open the task of the message `meta` starts from `src` — stream
    /// cells off the idle list when there are any, the handler's future
    /// started but not yet polled — and return its slot among `src`'s
    /// tasks: `stale`, the slot of a task still open under the same
    /// sequence number, which it replaces (only a sender that lost its
    /// state repeats one), or a new one.
    fn spawn(&mut self, src: usize, meta: SinkMeta, stale: Option<usize>) -> usize {
        let stream = self
            .idle_streams
            .pop()
            .unwrap_or_else(|| FmStream::new(self.host.memcpy_ns_per_kb, self.host.piece_call_ns));
        stream.arm(src, meta.msg_len);
        let task = Task {
            msg_seq: meta.msg_seq,
            future: Some((self.start)(stream.clone(), src)),
            stream,
            polls: 0,
        };
        let open = &mut self.tasks[src];
        if let Some(idx) = stale {
            open[idx] = task;
            return idx;
        }
        open.push(task);
        open.len() - 1
    }

    /// Poll the task in slot `idx` of `src`'s open messages (if its
    /// handler is still running), apply its accumulated charges to `fm`,
    /// and retire it if complete.
    fn poll<D: NetDevice>(&mut self, fm: &Fm2Engine<D>, src: usize, idx: usize) {
        let id = self.id;
        let task = &mut self.tasks[src][idx];
        let msg_seq = task.msg_seq;
        let span = |t, me, kind| {
            ObsEvent::new(t, me, kind)
                .peer(src as u16)
                .handler(id.0)
                .msg_seq(msg_seq)
        };
        if let Some(mut future) = task.future.take() {
            // Poll 0 was recorded as HandlerStart by the dispatch; later
            // polls mean new bytes resumed a suspended handler.
            if task.polls > 0 {
                let resume = |t, me| span(t, me, SpanKind::HandlerResume);
                fm.inner.borrow().core.obs_emit(resume);
            }
            task.polls += 1;
            let mut cx = Context::from_waker(Waker::noop());
            let ready = future.as_mut().poll(&mut cx).is_ready();
            let (pending, copied) = task.stream.take_charges();
            let mut inner = fm.inner.borrow_mut();
            inner.core.device.charge(pending);
            inner.core.stats.bytes_copied += copied;
            let kind = if ready {
                SpanKind::HandlerEnd
            } else {
                SpanKind::HandlerSuspend
            };
            inner.core.obs_emit(|t, me| span(t, me, kind));
            if !ready {
                task.future = Some(future);
            }
        }
        // Retire the task once the message has fully arrived and the
        // handler is done.
        if task.future.is_none() && task.stream.ended() {
            let task = self.tasks[src].swap_remove(idx);
            let mut inner = fm.inner.borrow_mut();
            inner.core.stats.messages_received += 1;
            inner.core.stats.bytes_received += task.stream.msg_len() as u64;
            if task.stream.is_sole_handle() {
                self.idle_streams.push(task.stream);
            }
        }
    }
}

impl<D: NetDevice> Handler<D> for AsyncHandler {
    /// A first packet starts a task; a later one joins its message's
    /// task, or is an orphan when none is open. The packet's frame joins
    /// the stream as it is (no copy), and the handler runs until it
    /// needs bytes that have not arrived.
    fn take(&mut self, fm: &Fm2Engine<D>, src: usize, meta: SinkMeta, payload: PacketBuf) -> Took {
        let open = self.tasks[src]
            .iter()
            .position(|t| t.msg_seq == meta.msg_seq);
        let idx = match (meta.first, open) {
            (true, stale) => self.spawn(src, meta, stale),
            (false, Some(idx)) => idx,
            (false, None) => return Took::Orphan,
        };
        self.tasks[src][idx].stream.push_segment(payload, meta.last);
        self.poll(fm, src, idx);
        Took::Task
    }

    /// The peer's half-received messages never complete: their handlers
    /// are dropped.
    fn peer_reset(&mut self, peer: usize) {
        self.tasks[peer].clear();
    }

    fn pending(&self) -> usize {
        self.tasks.iter().map(Vec::len).sum()
    }
}
