//! Tracing owned by the benchmark: a per-thread span recorder, a
//! [`TracedDevice`] wrapper that sits under the engines, and a counting
//! allocator.
//!
//! The program under test is not instrumented. Spans are opened around
//! the benchmark's own calls into public functions ([`begin`]/[`end`]),
//! and around every `try_send`/`try_recv` the engine makes into the
//! wrapped device, so a layer's self time is its span minus the child
//! spans that closed inside it. Untraced runs execute the same code with
//! the recorder detached: [`begin`] then costs one thread-local load,
//! which is what makes `trace.overhead_share` a real difference.
//!
//! Every span is aggregated per [`Kind`] (count, total, self time). One
//! operation in [`KEEP_ONE_IN`] is also kept in full — start, end,
//! parent, operation id — and written as a Chrome trace at exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

use fm_core::device::{DeviceFull, NetDevice, PeerEvent};
use fm_core::packet::FmPacket;
use fm_model::Nanos;

/// Operations whose spans are kept in full: one in this many.
pub const KEEP_ONE_IN: u64 = 64;

/// Full spans kept per thread at most, so the Chrome trace stays a few
/// megabytes however long the run is.
const FULL_SPAN_CAP: usize = 16_384;

/// What a span measures. The names are the Chrome-trace event names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// `try_send_message` that was admitted.
    FmSend,
    /// `try_send_message` refused with `WouldBlock`.
    FmSendBlocked,
    /// `extract` that delivered payload bytes.
    FmExtract,
    /// `extract` that found nothing.
    FmExtractIdle,
    /// `Fm2Engine::progress`.
    FmProgress,
    /// Device `try_send` that was accepted.
    DevSend,
    /// Device `try_send` refused with `DeviceFull`.
    DevSendFull,
    /// Device `try_recv` that returned a packet.
    DevRecv,
    /// Device `try_recv` that returned nothing.
    DevRecvIdle,
    /// The benchmark's own handler body (payload check, reply).
    Handler,
    /// `Mpi::isend` / `Mpi::send`.
    MpiSend,
    /// `Mpi::irecv` / `Mpi::recv` / `Mpi::wait_recv`.
    MpiRecv,
    /// `Mpi::progress`.
    MpiProgress,
    /// `Shmem::put`.
    ShmemPut,
    /// `Shmem::get`.
    ShmemGet,
    /// `Shmem::quiet`.
    ShmemQuiet,
    /// `Onesided::put` / `put_from` / `get`.
    OsIssue,
    /// `Onesided::progress`.
    OsProgress,
}

const KINDS: usize = Kind::OsProgress as usize + 1;

const KIND_NAMES: [&str; KINDS] = [
    "fm.send",
    "fm.send_blocked",
    "fm.extract",
    "fm.extract_idle",
    "fm.progress",
    "dev.send",
    "dev.send_full",
    "dev.recv",
    "dev.recv_idle",
    "bench.handler",
    "mpi.send",
    "mpi.recv",
    "mpi.progress",
    "shmem.put",
    "shmem.get",
    "shmem.quiet",
    "onesided.issue",
    "onesided.progress",
];

/// Per-kind totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus the child spans inside them, ns.
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per span, ns (0 when no span closed).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }

    /// Mean duration per span, ns (0 when no span closed).
    pub fn mean_total_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One span kept in full.
#[derive(Debug, Clone, Copy)]
pub struct FullSpan {
    /// What it measured.
    pub kind: Kind,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Operation id set by the workload ([`set_op`]).
    pub op: u64,
    /// Index (into this thread's list) of the span that was open when
    /// this one began, if that one is kept too.
    pub parent: Option<u32>,
}

struct Open {
    started: Instant,
    child_ns: u64,
    /// Slot reserved in `spans` for this span when it is kept.
    slot: Option<u32>,
}

/// What one thread recorded.
pub struct Recorder {
    /// Rank the thread played (the Chrome trace `tid`).
    pub rank: usize,
    epoch: Instant,
    agg: [Agg; KINDS],
    open: Vec<Open>,
    spans: Vec<FullSpan>,
    op: u64,
    keep: bool,
}

impl Recorder {
    /// Totals for one kind.
    pub fn agg(&self, kind: Kind) -> Agg {
        self.agg[kind as usize]
    }

    /// The spans kept in full, in closing order of their slots.
    pub fn spans(&self) -> &[FullSpan] {
        &self.spans
    }
}

thread_local! {
    static ATTACHED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// Per-thread allocator calls. `try_with` in the allocator: it also
    /// runs during thread teardown, after this slot is gone.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Start recording on this thread. `epoch` is shared by both ranks so
/// their spans line up in the Chrome trace.
pub fn attach(rank: usize, epoch: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank,
            epoch,
            agg: [Agg::default(); KINDS],
            open: Vec::with_capacity(8),
            spans: Vec::with_capacity(FULL_SPAN_CAP),
            op: 0,
            keep: false,
        })
    });
    ATTACHED.with(|a| a.set(true));
}

/// Stop recording on this thread and hand back what was recorded.
pub fn detach() -> Option<Recorder> {
    ATTACHED.with(|a| a.set(false));
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Whether a recorder is attached to this thread.
#[inline]
pub fn attached() -> bool {
    ATTACHED.with(|a| a.get())
}

/// Name the operation the following spans belong to.
#[inline]
pub fn set_op(op: u64) {
    if attached() {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.op = op;
                rec.keep = op % KEEP_ONE_IN == 0 && rec.spans.len() < FULL_SPAN_CAP;
            }
        });
    }
}

/// Token for an open span; `None` when no recorder is attached.
pub struct SpanToken(Option<()>);

/// Open a span. The kind is given at [`end`], because it often depends
/// on what the call returned.
#[inline]
pub fn begin() -> SpanToken {
    if !attached() {
        return SpanToken(None);
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let slot = if rec.keep && rec.spans.len() < FULL_SPAN_CAP {
                let parent = rec.open.iter().rev().find_map(|o| o.slot);
                rec.spans.push(FullSpan {
                    kind: Kind::FmSend,
                    start_ns: 0,
                    dur_ns: 0,
                    op: rec.op,
                    parent,
                });
                Some(rec.spans.len() as u32 - 1)
            } else {
                None
            };
            rec.open.push(Open {
                started: Instant::now(),
                child_ns: 0,
                slot,
            });
        }
    });
    SpanToken(Some(()))
}

/// Close the span opened by the matching [`begin`].
#[inline]
pub fn end(token: SpanToken, kind: Kind) {
    if token.0.is_none() {
        return;
    }
    let now = Instant::now();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let Some(open) = rec.open.pop() else { return };
            let dur = now.duration_since(open.started).as_nanos() as u64;
            let a = &mut rec.agg[kind as usize];
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(open.child_ns);
            if let Some(parent) = rec.open.last_mut() {
                parent.child_ns += dur;
            }
            if let Some(slot) = open.slot {
                let s = &mut rec.spans[slot as usize];
                s.kind = kind;
                s.start_ns = open.started.duration_since(rec.epoch).as_nanos() as u64;
                s.dur_ns = dur;
            }
        }
    });
}

/// Run `f` inside a span of `kind`.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let t = begin();
    let r = f();
    end(t, kind);
    r
}

/// Totals for `kind` over several threads' recorders.
pub fn sum_agg(recorders: &[Recorder], kind: Kind) -> Agg {
    let mut sum = Agg::default();
    for a in recorders.iter().map(|r| r.agg(kind)) {
        sum.count += a.count;
        sum.total_ns += a.total_ns;
        sum.self_ns += a.self_ns;
    }
    sum
}

/// The recorders of a run as a Chrome trace (`chrome://tracing`,
/// Perfetto): one complete event per kept span, `tid` = rank.
pub fn chrome_trace(recorders: &[Recorder]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for rec in recorders {
        for (i, s) in rec.spans.iter().enumerate() {
            if s.dur_ns == 0 && s.start_ns == 0 {
                continue; // reserved but never closed (run cut short)
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                KIND_NAMES[s.kind as usize],
                rec.rank,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
                i,
                parent
            );
        }
    }
    out.push_str("\n]\n");
    out
}

/// Counts of what crossed a [`TracedDevice`], kept while a recorder is
/// attached.
#[derive(Debug, Clone, Copy)]
pub struct DevCounts {
    /// Packets accepted by `try_send`.
    pub sent: u64,
    /// Payload bytes in those packets.
    pub sent_payload_bytes: u64,
    /// Accepted packets that carry message data (not pure ack/credit).
    pub sent_data: u64,
    /// Payload bytes sent per handler id, for ids below 256.
    pub payload_by_handler: [u64; 256],
    /// Packets returned by `try_recv`.
    pub received: u64,
}

impl Default for DevCounts {
    fn default() -> Self {
        DevCounts {
            sent: 0,
            sent_payload_bytes: 0,
            sent_data: 0,
            payload_by_handler: [0; 256],
            received: 0,
        }
    }
}

/// A [`NetDevice`] that forwards every call to `D` and, while a recorder
/// is attached to the thread, records a child span and a count for each
/// `try_send` and `try_recv`.
pub struct TracedDevice<D> {
    inner: D,
    counts: Box<DevCounts>,
}

impl<D> TracedDevice<D> {
    /// Wrap `inner`.
    pub fn new(inner: D) -> Self {
        TracedDevice {
            inner,
            counts: Box::default(),
        }
    }

    /// The wrapped device (its own counters live there).
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// What crossed the wrapper while a recorder was attached.
    pub fn counts(&self) -> DevCounts {
        *self.counts
    }
}

impl<D: NetDevice> NetDevice for TracedDevice<D> {
    fn node_id(&self) -> usize {
        self.inner.node_id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        if !attached() {
            return self.inner.try_send(pkt);
        }
        let bytes = pkt.payload.len() as u64;
        let handler = pkt.header.handler.0 as usize;
        let data = pkt.is_data();
        let t = begin();
        let r = self.inner.try_send(pkt);
        end(
            t,
            if r.is_ok() {
                Kind::DevSend
            } else {
                Kind::DevSendFull
            },
        );
        if r.is_ok() {
            let c = &mut self.counts;
            c.sent += 1;
            c.sent_payload_bytes += bytes;
            c.sent_data += u64::from(data);
            if let Some(slot) = c.payload_by_handler.get_mut(handler) {
                *slot += bytes;
            }
        }
        r
    }

    fn try_recv(&mut self) -> Option<FmPacket> {
        if !attached() {
            return self.inner.try_recv();
        }
        let t = begin();
        let r = self.inner.try_recv();
        end(
            t,
            if r.is_some() {
                Kind::DevRecv
            } else {
                Kind::DevRecvIdle
            },
        );
        self.counts.received += u64::from(r.is_some());
        r
    }

    fn send_space(&self) -> usize {
        self.inner.send_space()
    }

    fn now(&self) -> Nanos {
        self.inner.now()
    }

    fn charge(&mut self, cost: Nanos) {
        self.inner.charge(cost)
    }

    fn request_wake(&mut self, at: Nanos) {
        self.inner.request_wake(at)
    }

    fn is_lossy(&self) -> bool {
        self.inner.is_lossy()
    }

    fn last_sent_serial(&self) -> Option<u64> {
        self.inner.last_sent_serial()
    }

    fn last_recv_serial(&self) -> Option<u64> {
        self.inner.last_recv_serial()
    }

    fn poll_event(&mut self) -> Option<PeerEvent> {
        self.inner.poll_event()
    }
}

/// Counts every allocation and reallocation made by the calling thread
/// (frees do not matter: the question is what the steady state takes
/// *from* the allocator).
pub struct CountingAlloc;

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the only addition is a thread-local counter bump, which does
// not allocate (`const` thread-local of a `Cell<u64>`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls made by the calling thread so far.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_are_linked() {
        attach(0, Instant::now());
        set_op(0); // kept in full
        let outer = begin();
        let inner = begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        end(inner, Kind::DevSend);
        end(outer, Kind::FmSend);
        let rec = detach().expect("attached above");
        let (o, i) = (rec.agg(Kind::FmSend), rec.agg(Kind::DevSend));
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.total_ns >= 2_000_000);
        assert!(o.total_ns >= i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        let json = chrome_trace(&[rec]);
        assert!(json.contains("\"name\":\"dev.send\""));
        assert!(json.trim_start().starts_with('[') && json.trim_end().ends_with(']'));
    }

    #[test]
    fn detached_spans_record_nothing() {
        assert!(!attached());
        let t = begin();
        end(t, Kind::FmSend);
        assert!(detach().is_none());
    }

    #[test]
    fn allocations_are_counted_per_thread() {
        let before = thread_allocations();
        let v = std::hint::black_box(vec![1u8; 4096]);
        assert!(thread_allocations() > before);
        drop(v);
    }
}
