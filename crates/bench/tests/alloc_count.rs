//! Allocation audit for the zero-copy datapath: once the buffer pools
//! are warm, a steady-state FM 2.x send/extract stream must perform
//! **zero heap allocations per message** — over the simulated Myrinet,
//! over real mapped shm rings and over loopback UDP sockets.
//!
//! A counting `#[global_allocator]` wraps the system allocator; each
//! probe is two rank programs over a [`Fabric`] (sender
//! `try_send_message`, receiver fast-path handler, …) that snapshot the
//! counter after a warm-up phase, and the tests assert the measured
//! phase allocated nothing. Everything in the loop is included: engine
//! staging, the simulated NIC/DMA event machinery or the mapped ring,
//! and delivery.
//!
//! The counter is **per-thread**: every measured datapath here runs
//! entirely on one thread — [`Sim`]'s event loop, [`ShmOneThread`],
//! which round-robins the same rank programs over a real segment pair,
//! and the receiving rank's own thread over [`Udp`] — and a
//! process-global count would race with the test harness's own threads
//! (libtest's output formatting lands at nondeterministic points and was
//! observed polluting the window by a couple of allocations).
//!
//! The `Shmem` rows are the exception: a large same-host put or get is
//! one copy into or out of the target's mapped heap, made on the
//! initiator's thread, so the count covers that thread while the target
//! waits on a thread of its own.
//!
//! The MPI rows count differently: MPI-FM's posted receive path is not
//! allocation-free by contract (a request cell, the handler's future and
//! the payload it returns are per message), so they pin the *receiver's*
//! allocations per message as a ceiling — what is left once the engine
//! recycles its task cells.
//!
//! The warm-up phase exists because pools start empty (first takes
//! miss), queues grow to their steady capacity, and the simulator's
//! event heap sizes itself — all legitimate one-time costs the paper's
//! per-message figures exclude.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fm_bench::fabric::{blocking, Fabric, Program, Programs, Shm, Sim, Step, Udp};
use fm_core::packet::HandlerId;
use fm_core::{Onesided, OnesidedConfig, OsStatus, RegionHandle};
use fm_model::MachineProfile;
use fm_shm::{shm_cluster, ShmConfig, ShmDevice};
use mpi_fm::{Mpi, Mpi2, RecvReq, SendReq};
use myrinet_sim::fault::FaultModel;
use shmem_fm::Shmem;

/// Counts every allocation and reallocation (frees are irrelevant: the
/// claim is that the steady state takes nothing *from* the allocator).
struct CountingAlloc;

static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

thread_local! {
    /// Per-thread allocation count. `try_with` in the hot path: the
    /// allocator also runs during thread teardown after TLS destruction,
    /// where those allocations are uncountable and irrelevant.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static IN_TRACE: Cell<bool> = const { Cell::new(false) };
}

fn maybe_trace(layout: Layout) {
    if !TRACE.load(Ordering::Relaxed) {
        return;
    }
    IN_TRACE.with(|g| {
        if g.get() {
            return;
        }
        g.set(true);
        static SHOWN: AtomicU64 = AtomicU64::new(0);
        if SHOWN.fetch_add(1, Ordering::Relaxed) < 8 {
            let bt = std::backtrace::Backtrace::force_capture();
            eprintln!("=== alloc {} bytes ===\n{bt}", layout.size());
        }
        g.set(false);
    });
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        maybe_trace(layout);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        maybe_trace(layout);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        maybe_trace(layout);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// This thread's allocation count. Snapshots and deltas are only
/// meaningful on the thread that runs the measured datapath — which is
/// the point: other threads' allocations can't pollute the window.
fn allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

const BENCH_HANDLER: HandlerId = HandlerId(1);

/// The [`Shm`] fabric with every rank's program round-robined on the
/// calling thread instead of handed to a thread each, so both ranks'
/// datapaths (encode-in-place into the ring, doorbell, pooled copy-out,
/// decode, delivery, credit return) are inside the per-thread counted
/// window — as they are on [`Sim`], whose event loop is one thread.
struct ShmOneThread(Shm);

impl Fabric for ShmOneThread {
    type Dev = ShmDevice;

    fn profile(&self) -> MachineProfile {
        self.0.profile()
    }

    fn run<R: Send + 'static>(&self, n: usize, make: impl Programs<ShmDevice, R>) -> Vec<R> {
        let mut devs = shm_cluster(n, self.0.config("alloc")).expect("open shm ranks");
        for dev in &mut devs {
            dev.join(Duration::from_secs(5)).expect("shm join");
        }
        let engines = devs.into_iter().map(|dev| self.engine(dev));
        let mut programs: Vec<Program<R>> =
            engines.enumerate().map(|(i, fm)| make(i, fm)).collect();
        let mut reports: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        while reports.iter().any(Option::is_none) {
            assert!(Instant::now() < deadline, "one-thread shm run wedged");
            for (program, report) in programs.iter_mut().zip(&mut reports) {
                if report.is_none() {
                    if let Step::Done(r) = program() {
                        *report = Some(r);
                    }
                }
            }
        }
        reports.into_iter().flatten().collect()
    }
}

/// Note the allocation count once `reached` warm-up, and switch the
/// allocation backtraces on for what follows if `ALLOC_TRACE` is set.
fn snapshot_at_warm(at_warm: &mut Option<u64>, reached: bool) {
    if reached && at_warm.is_none() {
        *at_warm = Some(allocations());
        if std::env::var_os("ALLOC_TRACE").is_some() {
            TRACE.store(true, Ordering::Relaxed);
        }
    }
}

/// Streams `warmup + measured` single-packet messages rank 0 → rank 1 of
/// `fabric` (sender `try_send_message`, receiver fast-path handler) and
/// returns the allocation-counter delta across the measured phase.
///
/// With a non-zero `pause`, the first half of the warm-up sends each
/// message on its own (the sender polls after every send, so each leaves
/// as a datagram of its own), and at a quarter of the warm-up the
/// receiver stops polling for `pause`: the sender fills its window while
/// it sleeps, and the receiver then finds the most datagrams a window can
/// leave waiting. A pool that grows with that backlog has grown to it
/// before the count starts.
fn stream_alloc_delta<F: Fabric>(
    fabric: &F,
    size: usize,
    warmup: usize,
    measured: usize,
    pause: Duration,
) -> u64 {
    let count = warmup + measured;
    let out = fabric.run(2, |rank, fm| -> Program<u64> {
        if rank == 0 {
            let data = vec![0xC5u8; size];
            let mut sent = 0usize;
            return Box::new(move || loop {
                if sent == 0 {
                    // The engine learns what its device knows about the
                    // peer — on shm, that it shares this host over a link
                    // of slot-sized packets — when it turns.
                    fm.extract_all();
                }
                if sent == count {
                    // Done only once every packet is acknowledged: a lost
                    // tail has nothing behind it to expose it as a hole,
                    // and only this side's timer can repair it.
                    fm.extract_all();
                    if fm.unacked_packets() == 0 {
                        return Step::Done(0);
                    }
                    return Step::Idle;
                }
                if fm.try_send_message(1, BENCH_HANDLER, &[&data]).is_ok() {
                    sent += 1;
                    if !pause.is_zero() && sent < warmup / 2 {
                        fm.extract_all(); // out on its own
                    }
                    continue;
                }
                fm.extract_all(); // absorb returned credits
                if fm.try_send_message(1, BENCH_HANDLER, &[&data]).is_ok() {
                    sent += 1;
                    continue;
                }
                return Step::Idle;
            });
        }
        // The fast-path handler: synchronous, borrowed payload view, no
        // task allocation — FM_receive's hot shape for small messages.
        let got = Rc::new(Cell::new(0usize));
        let seen = Rc::clone(&got);
        fm.set_fast_handler(BENCH_HANDLER, move |_src, payload: &[u8]| {
            assert_eq!(payload.len(), size);
            seen.set(seen.get() + 1);
        });
        let mut at_warm = None;
        let mut paused = pause.is_zero();
        Box::new(move || {
            if !paused && got.get() >= warmup / 4 {
                paused = true;
                std::thread::sleep(pause);
            }
            fm.extract_all();
            snapshot_at_warm(&mut at_warm, got.get() >= warmup);
            if got.get() < count {
                return Step::Idle;
            }
            Step::Done(allocations() - at_warm.expect("warm-up snapshot"))
        })
    });
    out[1]
}

/// Pipelined one-sided puts kept in flight by the alloc probes.
const OS_WINDOW: usize = 4;

/// Slot 0, epoch 0 on a fresh table (both ends register their whole
/// arena first thing).
fn arena_handle() -> RegionHandle {
    RegionHandle { index: 0, epoch: 0 }
}

/// Streams `warmup + measured` zero-copy `put_from` transfers of `size`
/// bytes rank 0 → rank 1 of `fabric` and returns the initiator's
/// allocation delta across the measured phase, the receiver engine's
/// total copied bytes (staging-copy evidence: rendezvous placement is the
/// *only* copy, so the total must equal the payload exactly) and the
/// payload bytes.
fn onesided_alloc_delta<F: Fabric>(
    fabric: &F,
    size: usize,
    warmup: usize,
    measured: usize,
) -> (u64, u64, u64) {
    let count = warmup + measured;
    let arena = size * OS_WINDOW;
    let payload = (size * count) as u64;
    let out = fabric.run(2, |rank, fm| -> Program<u64> {
        let cfg = OnesidedConfig {
            arena_bytes: arena,
            ..OnesidedConfig::default()
        };
        let mut os = Onesided::new(&fm, cfg);
        os.register(0, arena).expect("arena");
        if rank == 1 {
            // The target runs no handler of its own: it is done once every
            // byte has been placed and its last FIN is on the wire.
            return Box::new(move || {
                fm.extract_all();
                let flushed = os.progress();
                let copied = fm.stats().bytes_copied;
                if copied < payload || !flushed {
                    return Step::Idle;
                }
                Step::Done(copied)
            });
        }
        let port = os.port();
        port.write_local(arena_handle(), 0, &vec![0xC5u8; arena])
            .expect("fill source");
        let (mut issued, mut done) = (0usize, 0usize);
        let mut at_warm = None;
        Box::new(move || {
            fm.extract_all();
            os.progress();
            while let Some(c) = port.poll_completion() {
                assert_eq!(c.status, OsStatus::Ok, "alloc-probe put failed");
                done += 1;
            }
            while issued < count && issued - done < OS_WINDOW {
                let off = (issued % OS_WINDOW) * size;
                port.put_from(1, arena_handle(), off as u64, arena_handle(), off, size)
                    .expect("alloc-probe put_from");
                issued += 1;
            }
            // Issued work must hit the wire before parking — a parked
            // rank wakes on *new* activity only.
            fm.progress();
            snapshot_at_warm(&mut at_warm, done >= warmup);
            if done < count {
                return Step::Idle;
            }
            Step::Done(allocations() - at_warm.expect("warm-up snapshot"))
        })
    });
    (out[0], out[1], payload)
}

/// Streams `warmup + measured` `get`s of `size` bytes by rank 0 out of
/// rank 1's arena of `fabric`, and returns the allocation delta across
/// the measured phase (both ranks: every fabric here runs them on one
/// thread), the reader's copied bytes and the bytes it read out of its
/// peer's memory, against the payload.
fn onesided_get_alloc_delta<F: Fabric>(
    fabric: &F,
    size: usize,
    warmup: usize,
    measured: usize,
) -> (u64, u64, u64, u64) {
    let count = warmup + measured;
    let arena = size * OS_WINDOW;
    let payload = (size * count) as u64;
    let out = fabric.run(2, |rank, fm| -> Program<(u64, u64, u64)> {
        let cfg = OnesidedConfig {
            arena_bytes: arena,
            ..OnesidedConfig::default()
        };
        let mut os = Onesided::new(&fm, cfg);
        os.register(0, arena).expect("arena");
        let port = os.port();
        if rank == 1 {
            // The window every get reads. It serves until the reader's
            // last act, a one-byte put over its first byte, has landed.
            port.write_local(arena_handle(), 0, &vec![0xC5u8; arena])
                .expect("fill source");
            return Box::new(move || {
                fm.extract_all();
                let flushed = os.progress();
                let mut flag = [0u8];
                port.read_local(arena_handle(), 0, &mut flag)
                    .expect("flag read");
                if flag[0] != 0xFF || !flushed {
                    return Step::Idle;
                }
                Step::Done((0, 0, 0))
            });
        }
        let (mut issued, mut done) = (0usize, 0usize);
        let (mut at_warm, mut result) = (None, None);
        Box::new(move || {
            fm.extract_all();
            os.progress();
            while let Some(c) = port.poll_completion() {
                assert_eq!(c.status, OsStatus::Ok, "alloc-probe get failed");
                done += 1;
            }
            while issued < count && issued - done < OS_WINDOW {
                let off = (issued % OS_WINDOW) * size;
                port.get(1, arena_handle(), off as u64, arena_handle(), off, size)
                    .expect("alloc-probe get");
                issued += 1;
            }
            snapshot_at_warm(&mut at_warm, done >= warmup);
            if done == count && result.is_none() {
                let allocs = allocations() - at_warm.expect("warm-up snapshot");
                result = Some((allocs, fm.stats().bytes_copied, port.pulled_bytes()));
                port.put(1, arena_handle(), 0, &[0xFF]);
            }
            // Issued work must hit the wire before parking.
            fm.progress();
            match result {
                Some(r) if done > count => Step::Done(r),
                _ => Step::Idle,
            }
        })
    });
    let (allocs, copied, pulled) = out[0];
    (allocs, copied, pulled, payload)
}

/// MPI stream message size and tag, receives kept posted ahead of the
/// sender, and the receiver's allocations one posted eager message is
/// allowed: the request cell (`irecv`) and the payload buffer handed to
/// the caller. MPI's wire handler is a per-packet sink that lands the
/// payload in that buffer: no handler future, no task, no stream cells,
/// and its table of messages part-way in keeps its room from one message
/// to the next (with a boxed handler future this count read 3, and
/// before the engine recycled its stream cells, 6).
const MPI_BYTES: usize = 2048;
const MPI_TAG: u32 = 9;
const MPI_POSTED_AHEAD: usize = 8;
const MPI_RECV_ALLOCS_PER_MSG: u64 = 2;

/// Receiver-side allocations, and the messages they were counted over
/// (those after the first turn that ended past `warmup`), of an `Mpi2`
/// 2 KB stream rank 0 → rank 1 of `fabric` with pre-posted receives.
fn mpi_recv_allocs<F: Fabric>(fabric: &F, warmup: usize, measured: usize) -> (u64, u64) {
    let count = warmup + measured;
    let out = fabric.run(2, |rank, fm| -> Program<(u64, u64)> {
        if rank == 0 {
            let mut mpi = Mpi2::new(fm);
            let mut reqs = VecDeque::new();
            let mut sent = 0usize;
            return Box::new(move || {
                mpi.progress();
                while reqs.front().is_some_and(SendReq::is_done) {
                    reqs.pop_front();
                }
                // A bounded send backlog, like the receiver's posted window.
                while sent < count && reqs.len() < MPI_POSTED_AHEAD {
                    reqs.push_back(mpi.isend(1, MPI_TAG, vec![0xC5u8; MPI_BYTES]));
                    sent += 1;
                }
                if sent == count && reqs.is_empty() {
                    return Step::Done((0, 0));
                }
                Step::Idle
            });
        }
        // The receiver counts every allocation made inside its own turn
        // (`irecv`, `progress`, taking the payload) and nothing else — the
        // sender and the transport underneath run on the same thread.
        let mut mpi = Mpi2::new(fm);
        let mut posted = VecDeque::with_capacity(MPI_POSTED_AHEAD);
        let (mut to_post, mut got, mut allocs) = (count, 0usize, 0u64);
        let mut at_warm = None;
        Box::new(move || {
            let before = allocations();
            // Top the posted receives up, progress, and consume what
            // completed (in order: one source, one tag).
            while to_post > 0 && posted.len() < MPI_POSTED_AHEAD {
                posted.push_back(mpi.irecv(Some(0), Some(MPI_TAG), MPI_BYTES));
                to_post -= 1;
            }
            mpi.progress();
            while posted.front().is_some_and(RecvReq::is_done) {
                let data = posted.pop_front().and_then(|req| req.take()).expect("done");
                assert_eq!(data.len(), MPI_BYTES);
                assert!(data.iter().all(|&b| b == 0xC5));
                got += 1;
            }
            allocs += allocations() - before;
            if got >= warmup && at_warm.is_none() {
                at_warm = Some((allocs, got));
            }
            if got < count {
                return Step::Idle;
            }
            let (warm_allocs, warm_got) = at_warm.expect("warm-up snapshot");
            Step::Done((allocs - warm_allocs, (count - warm_got) as u64))
        })
    });
    out[1]
}

fn sim() -> Sim {
    Sim::new(MachineProfile::ppro200_fm2())
}

#[test]
fn mpi2_posted_stream_receiver_allocates_only_request_and_payload() {
    for (transport, (allocs, msgs)) in [
        ("sim", mpi_recv_allocs(&sim(), 256, 512)),
        (
            "shm",
            mpi_recv_allocs(&ShmOneThread(Shm::SHALLOW), 256, 512),
        ),
    ] {
        assert!(
            msgs >= 256,
            "{transport}: warm-up overran the measured phase"
        );
        assert!(
            allocs <= MPI_RECV_ALLOCS_PER_MSG * msgs,
            "{transport}: the receiver allocated {allocs} times over {msgs} posted 2 KB \
             messages ({:.2} per message, ceiling {MPI_RECV_ALLOCS_PER_MSG})",
            allocs as f64 / msgs as f64
        );
    }
}

#[test]
fn steady_state_fm2_stream_allocates_nothing() {
    // 64-byte messages: single-packet, fast-handler path. 256 warm-up
    // messages fill the send pool, the device queues, and the event
    // heap; the following 512 messages must then run entirely on
    // recycled frames.
    let delta = stream_alloc_delta(&sim(), 64, 256, 512, Duration::ZERO);
    assert_eq!(
        delta,
        0,
        "steady-state datapath allocated {delta} times over 512 messages \
         ({} per message)",
        delta as f64 / 512.0
    );
}

#[test]
fn steady_state_retransmit_stream_allocates_nothing() {
    // The same stream over a wire with a fault model installed, which the
    // engines retransmit over: the ring of retained clones, the
    // per-poll ack flush, the timer scan and the RTT estimator take
    // nothing from the allocator — and neither does recovery. Under
    // seeded 1 % drop the receiver parks early packets in its hold table
    // (sized at construction), acks carry bitmaps, holes and heads are
    // re-sent from the ring: all of it on frames and slots that already
    // exist. The warm-up is longer than the trusted stream's: the
    // simulator's event heap and send-ready list size themselves to the
    // widest burst one step ever sends, and under loss that is the burst
    // after a repaired hole reopens the whole window — a few episodes in.
    for (wire, p) in [("loss-free", 0.0), ("1 % drop", 0.01)] {
        let fabric = sim().faulty(vec![FaultModel::Drop { p, seed: 7 }]);
        let delta = stream_alloc_delta(&fabric, 64, 2048, 2048, Duration::ZERO);
        assert_eq!(
            delta,
            0,
            "{wire}: the reliable datapath allocated {delta} times over 2048 messages \
             ({} per message)",
            delta as f64 / 2048.0
        );
    }
}

#[test]
fn steady_state_shm_stream_allocates_nothing() {
    // The same zero-allocation claim, proven over the shared-memory
    // transport: once the send pool, the receive `BufPool`, and the
    // self-sizing queues are warm, a message's life — staged, encoded
    // in place into the mapped ring, copied out into a recycled pool
    // frame, decoded, delivered — takes nothing from the allocator.
    //
    // A same-host peer's packets are as large as its ring slot: a 2 KB
    // message, and one of exactly the link's payload, is one packet, so
    // the whole-message fast handler sees it — were it cut at the
    // profile's 1024-byte MTU, the handler would never fire and the run
    // would wedge. The send pool grows its frames to the link's size
    // once, when the engine hears of the link, so those sizes allocate
    // nothing either. CI's `bench-smoke` job runs this test
    // (`alloc_count --release`).
    let link = (ShmConfig::default().slot_payload - fm_core::HEADER_WIRE_BYTES) as usize;
    for size in [64, 2048, link] {
        let delta = stream_alloc_delta(&ShmOneThread(Shm::SHALLOW), size, 256, 512, Duration::ZERO);
        assert_eq!(
            delta,
            0,
            "steady-state shm datapath allocated {delta} times over 512 {size}-byte \
             messages ({} per message)",
            delta as f64 / 512.0
        );
    }
}

#[test]
fn steady_state_udp_stream_allocates_nothing() {
    // The same claim over real loopback sockets, reliability and all:
    // frames encoded in place and packed into trains, datagrams received
    // straight into pooled frames, the retransmit ring's clones and the
    // acks recycle what the warm-up made. Each rank turns on its own
    // thread, and the count is the receiver's thread.
    //
    // fm-udp reports a 3048-byte link on admission, so a 2 KB message and
    // one of exactly the link's payload are one packet each, which the
    // whole-message fast handler needs: cut at the profile's 1024-byte
    // MTU, the handler would never fire and the run would wedge. The
    // heartbeat hellos that cross every 20 ms are encoded and decoded in
    // retained buffers, so they take nothing either.
    //
    // The device receives each datagram into a pooled frame, and the pool
    // grows to the most datagrams ever waiting at once. A receiver that
    // kept up through the whole warm-up grows it in the measured phase,
    // the first time the scheduler makes it late (4 frames, 9
    // allocations, in about 1 run in 10 without the warm-up below). So
    // the warm-up leaves the receiver a window of datagrams, each one
    // message, to find at once, and the pool grows to that there. CI's
    // `alloc_count --release` steps run this test with the others.
    let link = (3072 - fm_core::HEADER_WIRE_BYTES) as usize;
    for size in [64, 2048, link] {
        let pause = Duration::from_millis(5);
        let delta = stream_alloc_delta(&Udp::default(), size, 2048, 2048, pause);
        assert_eq!(
            delta,
            0,
            "steady-state UDP datapath allocated {delta} times over 2048 {size}-byte \
             messages ({} per message)",
            delta as f64 / 2048.0
        );
    }
}

#[test]
fn steady_state_large_put_allocates_nothing_sim() {
    // 64 KiB zero-copy puts (chunk messages landing packet by packet
    // straight in the registered region; the landing tables are sized
    // at construction). 16 warm-up transfers fill the op tables, job
    // queues, and engine pools; the next 32 must take nothing from the
    // allocator — and the receiver's only copy must be the placement
    // itself (no staging).
    let (delta, copied, payload) = onesided_alloc_delta(&sim(), 64 * 1024, 16, 32);
    assert_eq!(
        delta,
        0,
        "steady-state one-sided datapath allocated {delta} times over 32 puts \
         ({} per put)",
        delta as f64 / 32.0
    );
    assert_eq!(
        copied, payload,
        "receiver copied {copied} bytes for {payload} payload bytes — \
         a staging copy survived on the put path"
    );
}

#[test]
fn steady_state_large_put_allocates_nothing_shm() {
    // The same ≥64 KiB zero-allocation, zero-staging claim over the
    // real mapped-ring transport.
    let (delta, copied, payload) =
        onesided_alloc_delta(&ShmOneThread(Shm::DEEP), 64 * 1024, 16, 32);
    assert_eq!(
        delta,
        0,
        "steady-state shm one-sided datapath allocated {delta} times over \
         32 puts ({} per put)",
        delta as f64 / 32.0
    );
    assert_eq!(
        copied, payload,
        "shm receiver copied {copied} bytes for {payload} payload bytes — \
         a staging copy survived on the put path"
    );
}

/// What a [`shmem_alloc_delta`] run counted: the initiator thread's
/// allocations over the measured rounds, the bytes each side's engine
/// copied over all rounds, and the payload bytes.
struct ShmemCount {
    allocs: u64,
    initiator_copied: u64,
    target_copied: u64,
    payload: u64,
}

/// Runs `warmup + measured` rounds of `op` on rank 0 of the two-thread
/// [`Shm`] fabric, each moving `round_bytes` between rank 0 and rank 1's
/// heap, and counts them ([`ShmemCount`]). `op` gets send buffers of
/// `bufs` bytes, made before the warm-up. The target only waits for the
/// initiator's last act, an eight-byte flag put (a message, which it
/// copies; not counted here).
fn shmem_alloc_delta(
    warmup: usize,
    measured: usize,
    round_bytes: usize,
    bufs: &'static [usize],
    op: fn(&Shmem<fm_shm::ShmDevice>, &[Vec<u8>]),
) -> ShmemCount {
    const KIB: usize = 1024;
    const FLAG: usize = 320 * KIB;
    const READY: usize = FLAG + 8;
    const HEAP: usize = READY + 8;
    let out = Shm::DEEP.run(2, |rank, fm| -> Program<(u64, u64)> {
        blocking(move || {
            let sh = Shmem::new(fm.clone(), HEAP);
            // The barrier attaches each PE's heap to the other.
            sh.barrier_all();
            if rank == 1 {
                // Count from here, and only then let the initiator start,
                // so nothing it sends is served before the count began.
                let before = fm.stats().bytes_copied;
                sh.put(0, READY, &1i64.to_le_bytes());
                sh.quiet();
                sh.wait_until_i64(FLAG, |v| v == 1);
                return (0, fm.stats().bytes_copied - before - 8);
            }
            sh.wait_until_i64(READY, |v| v == 1);
            let bufs: Vec<Vec<u8>> = bufs.iter().map(|&len| vec![0xC5u8; len]).collect();
            let before = fm.stats().bytes_copied;
            (0..warmup).for_each(|_| op(&sh, &bufs));
            let mut at_warm = None;
            snapshot_at_warm(&mut at_warm, true);
            (0..measured).for_each(|_| op(&sh, &bufs));
            let allocs = allocations() - at_warm.expect("warm-up snapshot");
            let copied = fm.stats().bytes_copied - before;
            sh.put(1, FLAG, &1i64.to_le_bytes());
            sh.quiet();
            (allocs, copied)
        })
    });
    ShmemCount {
        allocs: out[0].0,
        initiator_copied: out[0].1,
        target_copied: out[1].1,
        payload: ((warmup + measured) * round_bytes) as u64,
    }
}

#[test]
fn steady_state_large_put_allocates_nothing_shmem() {
    // `Shmem::put` at 64 KiB and 256 KiB to a same-host PE: one copy
    // into the target's mapped heap, made by the initiator, which
    // allocates nothing once warm; the target copies nothing. Named to
    // fall under CI's zero-copy put gate filter
    // (`steady_state_large_put_allocates_nothing`).
    const SIZES: [usize; 2] = [64 * 1024, 256 * 1024];
    let c = shmem_alloc_delta(16, 32, SIZES.iter().sum(), &SIZES, |sh, bufs| {
        sh.put(1, 0, &bufs[0]);
        sh.put(1, SIZES[0], &bufs[1]);
    });
    assert_eq!(
        c.allocs,
        0,
        "steady-state shmem puts allocated {} times over 64 puts ({} per put)",
        c.allocs,
        c.allocs as f64 / 64.0
    );
    assert_eq!(
        c.initiator_copied, c.payload,
        "shmem initiator copied {} bytes for {} payload bytes",
        c.initiator_copied, c.payload
    );
    assert_eq!(c.target_copied, 0, "the target copied put bytes");
}

#[test]
fn steady_state_large_get_allocates_nothing_but_its_result_shmem() {
    // `Shmem::get` of 64 KiB from a same-host PE: one copy out of the
    // target's mapped heap into the buffer `get` returns — its one
    // allocation, by the API's contract — and no message.
    const GETS: u64 = 32;
    let c = shmem_alloc_delta(16, GETS as usize, 64 * 1024, &[], |sh, _| {
        std::hint::black_box(sh.get(1, 0, 64 * 1024));
    });
    assert_eq!(
        c.allocs, GETS,
        "steady-state shmem gets allocated {} times over {GETS} gets",
        c.allocs
    );
    assert_eq!(
        c.initiator_copied, c.payload,
        "shmem initiator copied {} bytes for {} payload bytes",
        c.initiator_copied, c.payload
    );
    assert_eq!(c.target_copied, 0, "the target copied get bytes");
}

#[test]
fn steady_state_large_get_allocates_nothing() {
    // 64 KiB gets: on the simulator the reply streams as DATA chunks into
    // the reader's credit; over the mapped ring the target answers with
    // one PULL header and the reader copies the window out of its peer.
    // Either way a get takes nothing from the allocator once warm, and
    // the reader's one copy is the placement.
    for (transport, (delta, copied, pulled, payload), pulls) in [
        (
            "sim",
            onesided_get_alloc_delta(&sim(), 64 * 1024, 16, 32),
            false,
        ),
        (
            "shm",
            onesided_get_alloc_delta(&ShmOneThread(Shm::DEEP), 64 * 1024, 16, 32),
            true,
        ),
    ] {
        assert_eq!(
            delta,
            0,
            "{transport}: steady-state gets allocated {delta} times over 32 gets \
             ({} per get)",
            delta as f64 / 32.0
        );
        assert_eq!(
            copied, payload,
            "{transport}: the reader copied {copied} bytes for {payload} payload bytes"
        );
        let want = if pulls { payload } else { 0 };
        assert_eq!(pulled, want, "{transport}: bytes read out of the peer");
    }
}

#[test]
fn warmup_allocations_are_bounded_not_linear() {
    // Sanity check on the methodology: the warm-up itself must allocate
    // (pools start empty) but far less than once per message once the
    // message count dwarfs the pool size — i.e. the counter works and
    // the pool actually recycles across the whole run.
    let before = allocations();
    let delta_after_warm = stream_alloc_delta(&sim(), 64, 64, 1024, Duration::ZERO);
    let total = allocations() - before;
    // 64 messages is a *short* warm-up: a queue or heap may still take
    // its last doubling inside the measured phase, but only a handful of
    // times — nothing per-message.
    assert!(
        delta_after_warm < 16,
        "{delta_after_warm} allocations over 1024 messages after a short warm-up"
    );
    assert!(
        total < 1024,
        "{total} allocations for a 1088-message run — the pool is not recycling"
    );
}
