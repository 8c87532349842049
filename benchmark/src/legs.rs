//! The two FM 2.x load shapes every transport is driven with: a 16-byte
//! ping-pong and a windowed one-way stream, generic over the device.
//!
//! Both are closed loops on two threads. Rank 0 leads: it runs segments
//! of a fixed operation count until the leg's time is up, then publishes
//! how many operations it issued; rank 1 follows until it has seen that
//! many. Every wait carries a deadline — operations outstanding when it
//! passes are counted as failed and the leg ends.
//!
//! The ping-pong takes the general FM 2.x receive path (async handler,
//! `FM_receive`, reply from the handler); the small-message stream takes
//! the single-packet fast path. Between them both paths are gated.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fm_core::device::NetDevice;
use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, FmStream};

use crate::fabric::Sync2;
use crate::payload::{Pattern, HEADER_BYTES};
use crate::stats::{LatencyLeg, ThroughputLeg};
use crate::trace::{self, Kind};

const PING: HandlerId = HandlerId(1);
const PONG: HandlerId = HandlerId(2);
const STREAM_FAST: HandlerId = HandlerId(3);
const STREAM_ASYNC: HandlerId = HandlerId(4);

/// Empty polls in a row before a waiting rank starts yielding its core.
/// A ping-pong reply arrives within a few dozen polls, so the measured
/// path never pays a `sched_yield`; a long wait does not hog the core.
const SPINS_BEFORE_YIELD: u32 = 64;

/// Ping-pong message size, bytes: the payload header alone.
pub const PINGPONG_BYTES: usize = HEADER_BYTES;

/// Deadline for a leg meant to run `secs`.
pub fn deadline_for(secs: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(secs * 3.0 + 20.0)
}

/// One rank's end of the FM-level legs on one engine. Keeps the running
/// operation numbers (the receivers check order across legs) and the
/// tally of operations attempted and failed.
pub struct FmLegs<'a, D: NetDevice + 'static> {
    /// The engine the legs run on.
    pub fm: &'a Fm2Engine<D>,
    /// This thread's rank (0 leads, 1 follows).
    pub rank: usize,
    sync: &'a Sync2,
    pat: &'a Arc<Pattern>,
    pingpong_ops: u64,
    stream_ops: u64,
    /// Operations this rank issued (rank 0) or saw (rank 1) so far.
    pub attempted: u64,
    /// Operations that timed out or failed the payload check here.
    pub failed: u64,
    /// Allocator calls this thread made inside the last stream leg,
    /// between its opening and closing rendezvous: the datapath's, and
    /// nothing of set-up.
    pub stream_allocs: u64,
}

/// `try_send_message` until admitted, draining the network while
/// blocked. `false` when `deadline` passed first.
pub fn fm_send<D: NetDevice>(
    fm: &Fm2Engine<D>,
    dst: usize,
    handler: HandlerId,
    pieces: &[&[u8]],
    deadline: Instant,
) -> bool {
    let mut spins = 0u32;
    loop {
        let t = trace::begin();
        let r = fm.try_send_message(dst, handler, pieces);
        trace::end(
            t,
            if r.is_ok() {
                Kind::FmSend
            } else {
                Kind::FmSendBlocked
            },
        );
        if r.is_ok() {
            return true;
        }
        fm_extract(fm);
        spins += 1;
        if spins >= SPINS_BEFORE_YIELD {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }
}

/// One unbounded `extract`, as a span.
pub fn fm_extract<D: NetDevice>(fm: &Fm2Engine<D>) -> usize {
    let t = trace::begin();
    let n = fm.extract_all();
    trace::end(
        t,
        if n > 0 {
            Kind::FmExtract
        } else {
            Kind::FmExtractIdle
        },
    );
    n
}

/// Extract and progress until `done()`; `false` when `deadline` passed
/// first.
pub fn fm_wait<D: NetDevice>(
    fm: &Fm2Engine<D>,
    deadline: Instant,
    mut done: impl FnMut() -> bool,
) -> bool {
    let mut spins = 0u32;
    while !done() {
        if fm_extract(fm) > 0 {
            spins = 0;
            continue;
        }
        trace::span(Kind::FmProgress, || fm.progress());
        spins += 1;
        if spins >= SPINS_BEFORE_YIELD {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }
    true
}

/// Rendezvous with the other rank while keeping this rank's engine
/// turning (acks and credits the peer may still be waiting for).
pub fn fm_rendezvous<D: NetDevice>(fm: &Fm2Engine<D>, sync: &Sync2, deadline: Instant) -> bool {
    // Drain first: whatever the peer needs from us to finish its leg.
    let quiet = Instant::now();
    while fm.unacked_packets() > 0 && quiet.elapsed() < Duration::from_secs(2) {
        fm.extract_all();
        fm.progress();
    }
    sync.rendezvous_with(deadline, || {
        fm.extract_all();
        fm.progress();
    })
}

impl<'a, D: NetDevice + 'static> FmLegs<'a, D> {
    /// Legs on `fm` for `rank`, synchronised through `sync`, with
    /// payloads from `pat`.
    pub fn new(fm: &'a Fm2Engine<D>, rank: usize, sync: &'a Sync2, pat: &'a Arc<Pattern>) -> Self {
        FmLegs {
            fm,
            rank,
            sync,
            pat,
            pingpong_ops: 0,
            stream_ops: 0,
            attempted: 0,
            failed: 0,
            stream_allocs: 0,
        }
    }

    /// The 16-byte ping-pong leg: segments of `seg_ops` rounds until
    /// `secs` have passed (at least one). Returns rank 0's round-trip
    /// samples (ns; rank 1 returns an empty leg).
    pub fn pingpong(&mut self, secs: f64, seg_ops: usize, keep_all: bool) -> LatencyLeg {
        let (fm, sync, pat, first_op) = (self.fm, self.sync, self.pat, self.pingpong_ops);
        let deadline = deadline_for(secs);
        let seen: Rc<Cell<u64>> = Rc::default();
        let bad: Rc<Cell<u64>> = Rc::default();
        let mut leg = LatencyLeg::new(keep_all);

        // Both ranks receive 16-byte messages through the async handler;
        // rank 1 replies from inside it.
        let (my_id, reply_to) = if self.rank == 0 {
            (PONG, None)
        } else {
            (PING, Some(PONG))
        };
        {
            let (seen, bad, pat) = (Rc::clone(&seen), Rc::clone(&bad), Arc::clone(pat));
            let handle = fm.handle();
            fm.set_handler(my_id, move |stream: FmStream, src| {
                let (seen, bad, pat, handle) = (
                    Rc::clone(&seen),
                    Rc::clone(&bad),
                    Arc::clone(&pat),
                    handle.clone(),
                );
                async move {
                    let mut msg = [0u8; PINGPONG_BYTES];
                    let got = stream.receive(&mut msg).await;
                    let t = trace::begin();
                    if !pat.check(first_op + seen.get(), &msg[..got]) || stream.remaining() > 0 {
                        bad.set(bad.get() + 1);
                    }
                    if let Some(id) = reply_to {
                        handle.send_from_handler(src, id, msg.to_vec());
                    }
                    seen.set(seen.get() + 1);
                    trace::end(t, Kind::Handler);
                }
            });
        }

        if !fm_rendezvous(fm, sync, deadline) {
            self.failed += 1;
            return leg;
        }
        let ops = if self.rank == 0 {
            let started = Instant::now();
            let mut seg: Vec<u32> = Vec::with_capacity(seg_ops);
            let mut op = 0u64;
            'leg: loop {
                seg.clear();
                for _ in 0..seg_ops {
                    trace::set_op(first_op + op);
                    let hdr = pat.header(first_op + op, PINGPONG_BYTES);
                    let t0 = Instant::now();
                    if !fm_send(fm, 1, PING, &[&hdr], deadline)
                        || !fm_wait(fm, deadline, || seen.get() == op + 1)
                    {
                        self.failed += 1;
                        break 'leg;
                    }
                    seg.push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                    op += 1;
                }
                leg.push_segment(&mut seg);
                if started.elapsed().as_secs_f64() >= secs {
                    break;
                }
            }
            sync.finish(op);
            op
        } else {
            if !fm_wait(fm, deadline, || sync.final_count() == Some(seen.get())) {
                self.failed += 1;
            }
            seen.get()
        };
        self.pingpong_ops += ops;
        self.attempted += ops;
        self.failed += bad.get();
        if !fm_rendezvous(fm, sync, deadline) {
            self.failed += 1;
        }
        leg
    }

    /// The one-way stream leg: rank 0 sends `size`-byte messages as fast
    /// as flow control admits them, in segments of `seg_ops` until `secs`
    /// have passed (at least one); rank 1 checks each and times every
    /// `seg_ops` deliveries. Returns rank 1's segment times (rank 0
    /// returns an empty leg). One engine streams one size.
    pub fn stream(&mut self, size: usize, secs: f64, seg_ops: u64) -> ThroughputLeg {
        let (fm, sync, pat, first_op) = (self.fm, self.sync, self.pat, self.stream_ops);
        let deadline = deadline_for(secs);
        let mut leg = ThroughputLeg::new(seg_ops, seg_ops * size as u64);
        // Single-packet messages take the fast path a tuned user would
        // register for them; anything wider needs the stream handler.
        let single_packet = size <= fm.profile().fm.mtu_payload;
        let id = if single_packet {
            STREAM_FAST
        } else {
            STREAM_ASYNC
        };

        let ops = if self.rank == 0 {
            if !fm_rendezvous(fm, sync, deadline) {
                self.failed += 1;
                return leg;
            }
            let started = Instant::now();
            let allocs_before = trace::thread_allocations();
            let mut op = 0u64;
            'leg: loop {
                for _ in 0..seg_ops {
                    trace::set_op(first_op + op);
                    let hdr = pat.header(first_op + op, size);
                    let body = pat.body(first_op + op, size);
                    if !fm_send(fm, 1, id, &[&hdr, body], deadline) {
                        self.failed += 1;
                        break 'leg;
                    }
                    op += 1;
                }
                if started.elapsed().as_secs_f64() >= secs {
                    break;
                }
            }
            sync.finish(op);
            // Confirmed delivery: under Retransmit the leg is not over
            // until every packet is acknowledged.
            if !fm_wait(fm, deadline, || fm.unacked_packets() == 0) {
                self.failed += 1;
            }
            self.stream_allocs = trace::thread_allocations() - allocs_before;
            op
        } else {
            let got: Rc<Cell<u64>> = Rc::default();
            let bad: Rc<Cell<u64>> = Rc::default();
            let marks: Rc<RefCell<Vec<Instant>>> = Rc::new(RefCell::new(Vec::with_capacity(4096)));
            let on_message = {
                let (got, bad, marks, pat) = (
                    Rc::clone(&got),
                    Rc::clone(&bad),
                    Rc::clone(&marks),
                    Arc::clone(pat),
                );
                move |msg: &[u8]| {
                    let t = trace::begin();
                    if !pat.check(first_op + got.get(), msg) {
                        bad.set(bad.get() + 1);
                    }
                    got.set(got.get() + 1);
                    if got.get() % seg_ops == 0 {
                        marks.borrow_mut().push(Instant::now());
                    }
                    trace::end(t, Kind::Handler);
                }
            };
            if single_packet {
                fm.set_fast_handler(id, move |_src, payload| on_message(payload));
            } else {
                let scratch = Rc::new(Cell::new(vec![0u8; size]));
                let on_message = Rc::new(on_message);
                fm.set_handler(id, move |stream: FmStream, _src| {
                    let (scratch, on_message) = (Rc::clone(&scratch), Rc::clone(&on_message));
                    async move {
                        // One message at a time per source, so the
                        // scratch buffer is home whenever a handler
                        // starts; were it not, the empty stand-in grows.
                        let mut buf = scratch.take();
                        buf.resize(size, 0);
                        let got = stream.receive(&mut buf[..]).await;
                        if stream.remaining() > 0 {
                            on_message(&[]); // longer than sent: fails the check
                        } else {
                            on_message(&buf[..got]);
                        }
                        scratch.set(buf);
                    }
                });
            }
            if !fm_rendezvous(fm, sync, deadline) {
                self.failed += 1;
                return leg;
            }
            marks.borrow_mut().push(Instant::now());
            let allocs_before = trace::thread_allocations();
            let done = fm_wait(fm, deadline, || sync.final_count() == Some(got.get()));
            self.stream_allocs = trace::thread_allocations() - allocs_before;
            self.failed += bad.get() + u64::from(!done);
            leg.seg_ns = marks
                .borrow()
                .windows(2)
                .map(|w| w[1].duration_since(w[0]).as_nanos() as f64)
                .collect();
            got.get()
        };
        self.stream_ops += ops;
        self.attempted += ops;
        if !fm_rendezvous(fm, sync, deadline) {
            self.failed += 1;
        }
        leg
    }
}
