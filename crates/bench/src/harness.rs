//! The two-rank measurement shapes — a ping-pong and a one-way stream —
//! written once over any [`Fabric`], plus the probes that only exist in
//! virtual time: FM 1.x stages, the two MPI-FM bindings, and the
//! layered/paced ablations on the simulated Myrinet cluster.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fm_core::packet::HandlerId;
use fm_core::stats::FmStats;
use fm_core::{
    Fm1Engine, Fm2Engine, FmStream, LogHistogram, NetDevice, ObsSink, Reliability, SimDevice,
};
use fm_model::halfpower::BandwidthPoint;
use fm_model::{Bandwidth, MachineProfile, Nanos};
use mpi_fm::{Mpi, Mpi1, Mpi2, RecvReq, SendReq};
use myrinet_sim::fault::FaultModel;

use crate::fabric::{Fabric, Program, Sim, Step};

pub use fm_core::fm1::Fm1Stage;

/// Handler carrying the measured traffic (pings, stream messages).
const PING: HandlerId = HandlerId(1);
/// Handler carrying ping-pong replies.
const PONG: HandlerId = HandlerId(2);

/// Pick a message count that keeps total transfer around a few MB —
/// enough to amortize ramp-up at every size without exploding event
/// counts.
pub fn stream_count(msg_size: usize) -> usize {
    ((4 << 20) / msg_size.max(1)).clamp(64, 4096)
}

/// One fully-measured transfer: total payload bytes over the time (on the
/// fabric's clock) the receiver took to see all of it.
#[derive(Debug, Clone, Copy)]
pub struct StreamResult {
    /// Payload bytes moved.
    pub bytes: u64,
    /// Time at which the receiver completed, from the start of the run.
    pub elapsed: Nanos,
    /// Messages that took the unexpected (extra-copy) MPI path, when
    /// applicable.
    pub unexpected: u64,
    /// Engine-level memcpy bytes at the receiver.
    pub recv_copied: u64,
}

impl StreamResult {
    /// Delivered bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::from_transfer(self.bytes, self.elapsed)
    }

    /// As a curve point at `size`.
    pub fn point(&self, size: usize) -> BandwidthPoint {
        BandwidthPoint {
            bytes: size as u64,
            bandwidth: self.bandwidth(),
        }
    }
}

/// A latency measurement with its full per-round distribution: `mean` is
/// the classic aggregate (total time over `2 * rounds`), `one_way_ns` the
/// histogram of individual one-way round samples, so tail behaviour
/// (p99 vs p50) is visible instead of averaged away.
#[derive(Debug, Clone)]
pub struct LatencyDist {
    /// Aggregate one-way latency (identical to the plain latency probes).
    pub mean: Nanos,
    /// Per-round one-way latencies, in nanoseconds.
    pub one_way_ns: LogHistogram,
}

/// A stream measurement plus the distribution of per-message delivered
/// bandwidth (KB/s per message, from inter-completion gaps at the
/// receiver) — the aggregate hides pipeline warm-up and stalls; the
/// histogram shows them.
#[derive(Debug, Clone)]
pub struct StreamDist {
    /// The aggregate result (identical to the plain stream probes).
    pub result: StreamResult,
    /// Per-message bandwidth samples in KB/s.
    pub per_message_kbps: LogHistogram,
}

// ---------------------------------------------------------------------
// The two-rank shapes, over any fabric and either FM generation
// ---------------------------------------------------------------------

/// How a handler takes a message in.
#[derive(Clone, Copy)]
enum Intake {
    /// Discard it without touching the payload.
    Skip,
    /// Read its first bytes (four at most), discard the rest.
    Lead,
    /// Consume it into a scratch buffer (the minimal realistic receive:
    /// one `FM_receive` per message).
    Copy,
    /// Consume it and send it back on the given handler.
    Echo(HandlerId),
}

/// The slice of an FM engine the raw shapes need: FM 1.x (contiguous
/// buffers, synchronous handlers) and FM 2.x (streams, `async` handlers)
/// run the same programs and differ only in what each call costs.
trait RawFm: 'static {
    /// `FM_extract`, unbounded; payload bytes processed.
    fn poll(&mut self) -> usize;
    /// One whole message, or false when credits or queue space refuse it.
    fn try_send(&mut self, dst: usize, handler: HandlerId, data: &[u8]) -> bool;
    /// Flush handler-initiated sends; true when none remain deferred.
    fn flushed(&mut self) -> bool;
    fn clock(&self) -> Nanos;
    fn unacked(&self) -> usize;
    fn copied(&self) -> u64;
    /// Install `handler`: take each message in as `intake` says, then
    /// call `seen(now_ns, message_len, lead)`, `lead` being the message's
    /// first bytes (four at most) where the intake read them.
    fn on_message(
        &mut self,
        handler: HandlerId,
        intake: Intake,
        seen: impl FnMut(u64, usize, &[u8]) + 'static,
    );
}

impl<D: NetDevice + 'static> RawFm for Fm2Engine<D> {
    fn poll(&mut self) -> usize {
        self.extract_all()
    }
    fn try_send(&mut self, dst: usize, handler: HandlerId, data: &[u8]) -> bool {
        self.try_send_message(dst, handler, &[data]).is_ok()
    }
    fn flushed(&mut self) -> bool {
        self.progress()
    }
    fn clock(&self) -> Nanos {
        self.now()
    }
    fn unacked(&self) -> usize {
        self.unacked_packets()
    }
    fn copied(&self) -> u64 {
        self.stats().bytes_copied
    }
    fn on_message(
        &mut self,
        handler: HandlerId,
        intake: Intake,
        seen: impl FnMut(u64, usize, &[u8]) + 'static,
    ) {
        let seen = Rc::new(RefCell::new(seen));
        // Weak: a strong clone held by the engine's own handler table would
        // keep engine and device alive forever (no socket flush, no unlink).
        let fm = self.handle();
        self.set_handler(handler, move |stream: FmStream, src| {
            let (seen, fm) = (Rc::clone(&seen), fm.clone());
            async move {
                let len = stream.msg_len();
                let (mut lead, mut read) = ([0u8; 4], 0);
                match intake {
                    Intake::Skip => assert_eq!(stream.skip(len).await, len),
                    Intake::Lead => {
                        read = stream.receive(&mut lead[..len.min(4)]).await;
                        stream.skip(stream.remaining()).await;
                    }
                    Intake::Copy => assert_eq!(stream.receive_vec(len).await.len(), len),
                    Intake::Echo(reply) => {
                        let msg = stream.receive_vec(len).await;
                        read = len.min(4);
                        lead[..read].copy_from_slice(&msg[..read]);
                        fm.send_from_handler(src, reply, msg);
                    }
                }
                (seen.borrow_mut())(fm.now().as_ns(), len, &lead[..read]);
            }
        });
    }
}

impl<D: NetDevice + 'static> RawFm for Fm1Engine<D> {
    fn poll(&mut self) -> usize {
        self.extract()
    }
    fn try_send(&mut self, dst: usize, handler: HandlerId, data: &[u8]) -> bool {
        Fm1Engine::try_send(self, dst, handler, data).is_ok()
    }
    fn flushed(&mut self) -> bool {
        self.progress()
    }
    fn clock(&self) -> Nanos {
        self.now()
    }
    fn unacked(&self) -> usize {
        self.unacked_packets()
    }
    fn copied(&self) -> u64 {
        self.stats().bytes_copied
    }
    fn on_message(
        &mut self,
        handler: HandlerId,
        intake: Intake,
        mut seen: impl FnMut(u64, usize, &[u8]) + 'static,
    ) {
        // The handler is handed the contiguous message: nothing to consume.
        self.set_handler(
            handler,
            Box::new(move |eng, src, msg| {
                if let Intake::Echo(reply) = intake {
                    eng.send_from_handler(src, reply, msg.to_vec());
                }
                seen(eng.now().as_ns(), msg.len(), &msg[..msg.len().min(4)]);
            }),
        );
    }
}

/// One-way latency over `fabric`: rank 0 plays `warmup` untimed round
/// trips (pools fill and queues reach steady capacity first, the framing
/// of the paper's latency figures; virtual time has nothing to warm),
/// then `rounds` timed ones, each a sample of half the round trip. The
/// pong is discarded untouched (reading it would be timed with the round).
pub fn latency_dist<F: Fabric>(
    fabric: &F,
    size: usize,
    rounds: usize,
    warmup: usize,
) -> LatencyDist {
    let mut out = fabric.run(2, |rank, fm| {
        ping_pong(rank, fm, size, rounds, warmup, Intake::Skip)
    });
    out.swap_remove(0).expect("rank 0 reports the distribution")
}

/// Rank `rank` of [`latency_dist`]'s FM 2.x ping-pong, for a caller that
/// is one rank of a run (a process of the multi-process launcher). Rank 0
/// reads each pong's round number, so a pong delivered twice or out of
/// order fails the run as a ping does on every fabric.
pub fn ping_pong_program<D: NetDevice + 'static>(
    rank: usize,
    fm: Fm2Engine<D>,
    size: usize,
    rounds: usize,
) -> Program<Option<LatencyDist>> {
    ping_pong(rank, fm, size, rounds, 0, Intake::Lead)
}

/// Rank 0 pings and takes each pong in as `pong` says, rank 1 echoes
/// (done once every reply has left the deferred queue). Every ping leads
/// with its round number and the handlers hold each arrival whose lead
/// they read to the count so far: a duplicated or reordered delivery
/// panics instead of ending the run a round early.
fn ping_pong<E: RawFm>(
    rank: usize,
    mut fm: E,
    size: usize,
    rounds: usize,
    warmup: usize,
    pong: Intake,
) -> Program<Option<LatencyDist>> {
    let numbered = |round: usize| (round as u32).to_le_bytes();
    let count: Rc<Cell<usize>> = Rc::default();
    let seen = Rc::clone(&count);
    let bump = move |_, _, lead: &[u8]| {
        let round = seen.get();
        assert_eq!(lead, &numbered(round)[..lead.len()], "round {round}");
        seen.set(round + 1);
    };
    if rank == 1 {
        fm.on_message(PING, Intake::Echo(PONG), bump);
        return Box::new(move || {
            let moved = fm.poll() > 0;
            if count.get() >= warmup + rounds && fm.flushed() {
                return Step::Done(None);
            }
            Step::pending(moved)
        });
    }
    fm.on_message(PONG, pong, bump);
    let mut data = vec![7u8; size];
    let mut hist = LogHistogram::new();
    let (mut sent, mut pongs) = (0usize, 0usize);
    let mut round_start = 0u64;
    let mut started = fm.clock();
    Box::new(move || {
        let moved = fm.poll() > 0;
        if count.get() > pongs {
            // The pong for the outstanding ping just arrived.
            pongs = count.get();
            if pongs > warmup {
                hist.record((fm.clock().as_ns() - round_start) / 2);
            } else if pongs == warmup {
                started = fm.clock();
            }
        }
        if pongs >= warmup + rounds {
            return Step::Done(Some(LatencyDist {
                mean: (fm.clock() - started) / (2 * rounds as u64),
                one_way_ns: hist.clone(),
            }));
        }
        // Send the next ping only after the previous pong.
        let lead = size.min(4);
        data[..lead].copy_from_slice(&numbered(sent)[..lead]);
        let t0 = fm.clock().as_ns();
        if sent == pongs && fm.try_send(1, PING, &data) {
            sent += 1;
            round_start = t0; // round includes the send itself
        }
        Step::pending(moved)
    })
}

/// Stream `count` `size`-byte messages rank 0 → rank 1 over `fabric`.
/// Bandwidth is payload over the receiver's clock; over a lossy fabric
/// the sender additionally stays until every packet is *acknowledged*, so
/// a finished run means confirmed delivery, retransmissions included.
pub fn stream_dist<F: Fabric>(fabric: &F, size: usize, count: usize) -> StreamDist {
    let mut out = fabric.run(2, |rank, fm| stream(rank, fm, size, count));
    out.swap_remove(1).expect("rank 1 reports the distribution")
}

/// Rank 0 sends, rank 1 consumes and measures.
fn stream<E: RawFm>(
    rank: usize,
    mut fm: E,
    size: usize,
    count: usize,
) -> Program<Option<StreamDist>> {
    if rank == 0 {
        let data = vec![0xCDu8; size];
        let mut sent = 0usize;
        return Box::new(move || {
            // The canonical sender step, `try → extract → try → park`:
            // see `myrinet_sim::StepOutcome::Wait` on why the second try,
            // after the drain absorbed returned credits, is not optional.
            let before = sent;
            while sent < count {
                if !fm.try_send(1, PING, &data) {
                    fm.poll();
                    if !fm.try_send(1, PING, &data) {
                        return Step::pending(sent > before);
                    }
                }
                sent += 1;
            }
            if fm.unacked() == 0 {
                return Step::Done(None);
            }
            Step::pending(fm.poll() > 0) // acks in, retransmit timers serviced
        });
    }
    let got: Rc<Cell<usize>> = Rc::default();
    let per_msg = Rc::new(RefCell::new(LogHistogram::new()));
    let started = fm.clock();
    {
        let (got, per_msg) = (Rc::clone(&got), Rc::clone(&per_msg));
        let mut last_done = started.as_ns();
        fm.on_message(PING, Intake::Copy, move |t, len, _| {
            assert_eq!(len, size);
            // Per-message delivered bandwidth (KB/s) from the gap since
            // the previous completion (the first gap, from the start,
            // folds the pipeline ramp into the distribution's tail).
            let gap = t - std::mem::replace(&mut last_done, t);
            if let Some(kbps) = (size as u64 * 1_000_000).checked_div(gap) {
                per_msg.borrow_mut().record(kbps);
            }
            got.set(got.get() + 1);
        });
    }
    Box::new(move || {
        recv_step(&mut fm, &got, (size, count), started, |result| StreamDist {
            result,
            per_message_kbps: per_msg.borrow().clone(),
        })
    })
}

/// The receiver step of every stream shape: drain, and once the handlers
/// have counted `count` messages in `got`, report the transfer as
/// `report` shapes it.
fn recv_step<E: RawFm, R>(
    fm: &mut E,
    got: &Cell<usize>,
    (size, count): (usize, usize),
    started: Nanos,
    report: impl FnOnce(StreamResult) -> R,
) -> Step<Option<R>> {
    let moved = fm.poll() > 0;
    if got.get() < count {
        return Step::pending(moved);
    }
    Step::Done(Some(report(StreamResult {
        bytes: (size * count) as u64,
        elapsed: fm.clock() - started,
        unexpected: 0,
        recv_copied: fm.copied(),
    })))
}

// ---------------------------------------------------------------------
// The shapes on the simulator, one instantiation per FM generation
// ---------------------------------------------------------------------

/// Stream `count` `size`-byte messages node 0 → node 1 over FM 2.x in
/// virtual time.
pub fn fm2_stream(profile: MachineProfile, size: usize, count: usize) -> StreamResult {
    fm2_stream_dist(profile, size, count, None).result
}

/// [`fm2_stream`] with the per-message bandwidth distribution and optional
/// observability sinks on the (sender, receiver) engines. Recording never
/// charges virtual time: the result is identical with or without sinks.
pub fn fm2_stream_dist(
    profile: MachineProfile,
    size: usize,
    count: usize,
    obs: Option<(ObsSink, ObsSink)>,
) -> StreamDist {
    stream_dist(&Sim::new(profile).observed(obs), size, count)
}

/// One-way latency over FM 2.x: half the average ping-pong round trip.
pub fn fm2_latency(profile: MachineProfile, size: usize, rounds: usize) -> Nanos {
    fm2_latency_dist(profile, size, rounds, None).mean
}

/// [`fm2_latency`] with the per-round distribution and optional
/// observability sinks on the (pinger, echoer) engines.
pub fn fm2_latency_dist(
    profile: MachineProfile,
    size: usize,
    rounds: usize,
    obs: Option<(ObsSink, ObsSink)>,
) -> LatencyDist {
    latency_dist(&Sim::new(profile).observed(obs), size, rounds, 0)
}

/// An FM 1.x engine at `stage` for `rank` of `sim`, sink attached.
fn fm1_engine(sim: &Sim, rank: usize, dev: SimDevice, stage: Fm1Stage) -> Fm1Engine<SimDevice> {
    let mut fm = Fm1Engine::with_stage(dev, sim.profile(), stage);
    if let Some(sink) = sim.sink(rank) {
        fm.attach_obs(sink);
    }
    fm
}

/// Stream `count` `size`-byte messages node 0 → node 1 over FM 1.x at
/// `stage`. The handler touches nothing (raw FM bandwidth — the paper's
/// Figure 3/5 tests measure the messaging layer itself).
pub fn fm1_stream(
    profile: MachineProfile,
    stage: Fm1Stage,
    size: usize,
    count: usize,
) -> StreamResult {
    fm1_stream_obs(profile, stage, size, count, None)
}

/// [`fm1_stream`] with optional observability sinks attached to the
/// (sender, receiver) engines.
pub fn fm1_stream_obs(
    profile: MachineProfile,
    stage: Fm1Stage,
    size: usize,
    count: usize,
    obs: Option<(ObsSink, ObsSink)>,
) -> StreamResult {
    let sim = Sim::new(profile).observed(obs);
    let out = sim.run_devices(2, |rank, dev| {
        stream(rank, fm1_engine(&sim, rank, dev, stage), size, count)
    });
    let mut out = sim.finished("FM1 stream", out);
    out.swap_remove(1)
        .expect("rank 1 reports the transfer")
        .result
}

/// One-way latency over FM 1.x: half the average ping-pong round trip.
pub fn fm1_latency(profile: MachineProfile, size: usize, rounds: usize) -> Nanos {
    fm1_latency_dist(profile, size, rounds, None).mean
}

/// [`fm1_latency`] with the per-round distribution and optional
/// observability sinks on the (pinger, echoer) engines.
pub fn fm1_latency_dist(
    profile: MachineProfile,
    size: usize,
    rounds: usize,
    obs: Option<(ObsSink, ObsSink)>,
) -> LatencyDist {
    let sim = Sim::new(profile).observed(obs);
    let out = sim.run_devices(2, |rank, dev| {
        let fm = fm1_engine(&sim, rank, dev, Fm1Stage::Full);
        ping_pong(rank, fm, size, rounds, 0, Intake::Skip)
    });
    let mut out = sim.finished("FM1 ping-pong", out);
    out.swap_remove(0).expect("rank 0 reports the distribution")
}

/// [`fm2_stream`] with an explicit reliability mode and fault models on
/// the wire. Nothing quiesces a simulated rank, so the receiver itself
/// keeps acking until the sender has confirmed delivery (once traffic
/// stops it may simply stay parked — the sender's report is the
/// completion signal). Returns the stream result plus the sender's and
/// the receiver's final [`FmStats`] for overhead accounting:
/// retransmissions live on the sender, ack traffic on the receiver.
pub fn fm2_reliable_stream(
    profile: MachineProfile,
    size: usize,
    count: usize,
    reliability: Reliability,
    faults: Vec<FaultModel>,
) -> (StreamResult, FmStats, FmStats) {
    let sim = Sim::new(profile).unreliable(reliability, faults);
    let sender_done = Rc::new(Cell::new(false));
    let got: Rc<Cell<usize>> = Rc::default();
    let received = Rc::new(Cell::new((Nanos::ZERO, FmStats::default())));
    let mut out = sim.run_devices(2, |rank, dev| {
        let fm = sim.engine(dev);
        let sender_done = Rc::clone(&sender_done);
        if rank == 0 {
            let data = vec![0xCDu8; size];
            let mut sent = 0usize;
            return Box::new(move || {
                fm.extract_all(); // acks in, retransmit timers serviced
                while sent < count && fm.try_send_message(1, PING, &[&data]).is_ok() {
                    sent += 1;
                }
                if sent < count || fm.unacked_packets() > 0 {
                    return Step::Idle;
                }
                sender_done.set(true);
                Step::Done(fm.stats())
            });
        }
        let mut fm = fm;
        let seen = Rc::clone(&got);
        fm.on_message(PING, Intake::Copy, move |_, len, _| {
            assert_eq!(len, size);
            seen.set(seen.get() + 1);
        });
        let (got, received) = (Rc::clone(&got), Rc::clone(&received));
        Box::new(move || {
            fm.extract_all();
            let done_at = match received.get().0 {
                Nanos::ZERO if got.get() >= count => fm.now(),
                at => at,
            };
            received.set((done_at, fm.stats()));
            if got.get() >= count && sender_done.get() {
                return Step::Done(fm.stats());
            }
            Step::Idle
        })
    });
    let wedged = || panic!("FM2 reliable stream wedged: {}/{count}", got.get());
    let sender = out.swap_remove(0).unwrap_or_else(wedged);
    let (elapsed, receiver) = received.get();
    let result = StreamResult {
        bytes: (size * count) as u64,
        elapsed,
        unexpected: 0,
        recv_copied: receiver.bytes_copied,
    };
    (result, sender, receiver)
}

// ---------------------------------------------------------------------
// MPI-FM, both bindings (simulator only)
// ---------------------------------------------------------------------

/// Which MPI binding to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiBinding {
    /// Over FM 1.x (assembly + bounce + delivery copies).
    OverFm1,
    /// Over FM 2.x (gather/scatter + interleaving + pacing).
    OverFm2,
}

/// What the probes read off a binding beyond the [`Mpi`] trait.
trait MpiStats: Mpi + 'static {
    /// A receiver's report now that its last message is in: virtual time,
    /// unexpected-path count, engine-level copied bytes.
    fn received(&self, bytes: usize) -> StreamResult;
}

impl MpiStats for Mpi1<SimDevice> {
    fn received(&self, bytes: usize) -> StreamResult {
        StreamResult {
            bytes: bytes as u64,
            elapsed: self.now(),
            unexpected: self.unexpected_total(),
            recv_copied: self.fm_stats().bytes_copied,
        }
    }
}

impl MpiStats for Mpi2<SimDevice> {
    fn received(&self, bytes: usize) -> StreamResult {
        StreamResult {
            bytes: bytes as u64,
            elapsed: self.fm().now(),
            unexpected: self.unexpected_total(),
            recv_copied: self.fm().stats().bytes_copied,
        }
    }
}

/// The sender of every MPI stream probe: issue all `count` sends on the
/// first poll, then drive progress until each has completed and
/// `flushed` agrees nothing is left behind.
fn mpi_send_all<M: Mpi + 'static, R: 'static>(
    mut mpi: M,
    size: usize,
    count: usize,
    mut flushed: impl FnMut(&mut M) -> bool + 'static,
) -> Program<Option<R>> {
    let mut reqs: Option<Vec<SendReq>> = None;
    Box::new(move || {
        let reqs = reqs.get_or_insert_with(|| {
            (0..count)
                .map(|_| mpi.isend(1, 0, vec![0xEEu8; size]))
                .collect()
        });
        mpi.progress();
        if reqs.iter().all(SendReq::is_done) && flushed(&mut mpi) {
            return Step::Done(None);
        }
        Step::Idle
    })
}

/// Stream `count` `size`-byte MPI messages rank 0 → rank 1 with all
/// receives pre-posted (the standard MPI bandwidth test shape).
pub fn mpi_stream(
    binding: MpiBinding,
    profile: MachineProfile,
    size: usize,
    count: usize,
) -> StreamResult {
    match binding {
        MpiBinding::OverFm1 => {
            let mk = |dev| Mpi1::new(Fm1Engine::new(dev, profile));
            run_mpi_stream(profile, mk, size, count)
        }
        MpiBinding::OverFm2 => {
            let mk = |dev| Mpi2::new(Fm2Engine::new(dev, profile));
            run_mpi_stream(profile, mk, size, count)
        }
    }
}

fn run_mpi_stream<M: MpiStats>(
    profile: MachineProfile,
    mk: impl Fn(SimDevice) -> M,
    size: usize,
    count: usize,
) -> StreamResult {
    let sim = Sim::new(profile);
    let out = sim.run_devices(2, |rank, dev| {
        let mut mpi = mk(dev);
        if rank == 0 {
            return mpi_send_all(mpi, size, count, |_| true);
        }
        let mut reqs: Option<Vec<RecvReq>> = None;
        Box::new(move || {
            let reqs = reqs.get_or_insert_with(|| {
                (0..count)
                    .map(|_| mpi.irecv(Some(0), Some(0), size))
                    .collect()
            });
            mpi.progress();
            if !reqs.iter().all(RecvReq::is_done) {
                return Step::Idle;
            }
            Step::Done(Some(mpi.received(size * count)))
        })
    });
    let mut out = sim.finished("MPI stream", out);
    out.swap_remove(1).expect("rank 1 reports the transfer")
}

/// MPI one-way latency (pre-posted receives, ping-pong).
pub fn mpi_latency(
    binding: MpiBinding,
    profile: MachineProfile,
    size: usize,
    rounds: usize,
) -> Nanos {
    match binding {
        MpiBinding::OverFm1 => {
            let mk = |dev| Mpi1::new(Fm1Engine::new(dev, profile));
            run_mpi_pingpong(profile, mk, size, rounds)
        }
        MpiBinding::OverFm2 => {
            let mk = |dev| Mpi2::new(Fm2Engine::new(dev, profile));
            run_mpi_pingpong(profile, mk, size, rounds)
        }
    }
}

fn run_mpi_pingpong<M: MpiStats>(
    profile: MachineProfile,
    mk: impl Fn(SimDevice) -> M,
    size: usize,
    rounds: usize,
) -> Nanos {
    let sim = Sim::new(profile);
    let out = sim.run_devices(2, |rank, dev| {
        let mut mpi = mk(dev);
        // Rank 0 sends tag 1 and awaits tag 2; rank 1 mirrors it.
        let (peer, awaited) = (1 - rank, 2 - rank as u32);
        let mut round = 0usize;
        let mut pending: Option<RecvReq> = None;
        Box::new(move || loop {
            mpi.progress();
            match &pending {
                None if round == rounds => return Step::Done(mpi.received(0).elapsed),
                None => {
                    if rank == 0 {
                        mpi.isend(peer, 1, vec![1u8; size]);
                    }
                    pending = Some(mpi.irecv(Some(peer), Some(awaited), size));
                }
                Some(req) if req.is_done() => {
                    let data = req.take().expect("done");
                    if rank == 1 {
                        mpi.isend(peer, 2, data);
                    }
                    pending = None;
                    round += 1;
                }
                Some(_) => return Step::Idle,
            }
        })
    });
    sim.finished("MPI ping-pong", out)[0] / (2 * rounds as u64)
}

// ---------------------------------------------------------------------
// Ablation harnesses: one design element varied at a time, everything
// else (including the machine profile) held fixed.
// ---------------------------------------------------------------------

/// A thin layered protocol over FM 2.x (24-byte header + payload), with
/// the two paper-identified copy sites switchable:
///
/// * `send_assemble` — instead of gathering header+payload as two pieces,
///   assemble them into one buffer first (an FM 1.x-interface send, costed
///   as a host memcpy).
/// * `recv_staged` — instead of reading the header and landing the payload
///   directly in its destination, receive the whole message into a staging
///   buffer and then copy it out (an FM 1.x-interface receive).
pub fn fm2_layered_stream(
    profile: MachineProfile,
    size: usize,
    count: usize,
    send_assemble: bool,
    recv_staged: bool,
) -> StreamResult {
    const HDR: usize = 24;
    let mut out = Sim::new(profile).run(2, |rank, fm| {
        if rank == 0 {
            let header = [0x11u8; HDR];
            let payload = vec![0x22u8; size];
            let mut sent = 0usize;
            return Box::new(move || {
                let attempt = || {
                    if send_assemble {
                        // FM 1.x-style: build one contiguous buffer first.
                        let mut buf = Vec::with_capacity(HDR + size);
                        buf.extend_from_slice(&header);
                        buf.extend_from_slice(&payload);
                        fm.charge_memcpy(buf.len());
                        fm.try_send_message(1, PING, &[&buf]).is_ok()
                    } else {
                        // FM 2.x gather: two pieces, no copy.
                        fm.try_send_message(1, PING, &[&header, &payload]).is_ok()
                    }
                };
                while sent < count {
                    // Absorb returned credits, then retry once before
                    // parking (parking right after draining the credits
                    // would be a lost wake-up).
                    if !attempt() {
                        fm.extract_all();
                        if !attempt() {
                            return Step::Idle;
                        }
                    }
                    sent += 1;
                }
                Step::Done(None)
            });
        }
        let got: Rc<Cell<usize>> = Rc::default();
        {
            let got = Rc::clone(&got);
            let fm_h = fm.handle();
            fm.set_handler(PING, move |stream: FmStream, _src| {
                let got = Rc::clone(&got);
                let fm = fm_h.clone();
                async move {
                    let mut hdr = [0u8; HDR];
                    stream.receive(&mut hdr).await;
                    let len = stream.msg_len() - HDR;
                    let mut user = vec![0u8; len];
                    if recv_staged {
                        // Staging-buffer receive, then delivery copy.
                        let staged = stream.receive_vec(len).await;
                        user.copy_from_slice(&staged);
                        fm.charge_memcpy(len);
                    } else {
                        // Layer interleaving: straight into the final buffer.
                        let n = stream.receive(&mut user).await;
                        debug_assert_eq!(n, len);
                    }
                    std::hint::black_box(&user);
                    got.set(got.get() + 1);
                }
            });
        }
        let mut fm = fm;
        Box::new(move || recv_step(&mut fm, &got, (size, count), Nanos::ZERO, |r| r))
    });
    out.swap_remove(1).expect("rank 1 reports the transfer")
}

/// Single-message end-to-end completion time for the layered protocol of
/// [`fm2_layered_stream`]: from send start until the payload sits in its
/// final buffer. Isolates the pipelining benefit of handler interleaving —
/// the staged variant pays the delivery copy *after* the last packet.
pub fn fm2_layered_single_latency(
    profile: MachineProfile,
    size: usize,
    recv_staged: bool,
) -> Nanos {
    // A 1-message stream measures exactly the completion time.
    fm2_layered_stream(profile, size, 1, false, recv_staged).elapsed
}

/// Two MPI-FM 2.x ranks on the simulator: rank 0 streams `count` sends
/// (staying until `flushed`), rank 1 runs `receiver`.
fn mpi2_stream_into(
    profile: MachineProfile,
    (size, count): (usize, usize),
    tune: impl Fn(&mut Mpi2<SimDevice>),
    flushed: impl Fn(&mut Mpi2<SimDevice>) -> bool + Clone + 'static,
    receiver: impl Fn(Mpi2<SimDevice>) -> Program<Option<StreamResult>>,
) -> StreamResult {
    let sim = Sim::new(profile);
    let out = sim.run_devices(2, |rank, dev| {
        let mut mpi = Mpi2::new(sim.engine(dev));
        tune(&mut mpi);
        match rank {
            0 => mpi_send_all(mpi, size, count, flushed.clone()),
            _ => receiver(mpi),
        }
    });
    let mut out = sim.finished("MPI-FM 2.x stream", out);
    out.swap_remove(1).expect("rank 1 reports the transfer")
}

/// MPI-FM 2.x stream where the receiver posts only one receive at a time
/// (a conservative consumer) and paces `FM_extract` with `budget` bytes
/// per progress call (`None` = unpaced). Shows receiver flow control
/// preventing unexpected-queue copies and buffer-pool pressure.
pub fn mpi2_paced_stream(
    profile: MachineProfile,
    size: usize,
    count: usize,
    budget: Option<usize>,
) -> StreamResult {
    // The receiver models a *busy application*: it computes for 25 µs
    // between communication polls and keeps only one receive posted at a
    // time. Without pacing, each poll's unbounded extract presents every
    // queued message at once and all but the posted one take the bounce
    // path; with a small budget, intake tracks posting and FM's flow
    // control holds the rest in the network.
    let receiver = move |mut mpi: Mpi2<SimDevice>| -> Program<Option<StreamResult>> {
        if let Some(b) = budget {
            mpi.set_extract_budget(b);
        }
        let mut received = 0usize;
        let mut pending: Option<RecvReq> = None;
        Box::new(move || {
            mpi.fm().charge(Nanos::from_us(25)); // application compute phase
            mpi.progress(); // one communication poll
            loop {
                if pending.is_none() && received < count {
                    pending = Some(mpi.irecv(Some(0), Some(0), size));
                }
                match &pending {
                    Some(req) if req.is_done() => {
                        req.take();
                        pending = None;
                        received += 1;
                    }
                    _ => break,
                }
            }
            if received >= count {
                return Step::Done(Some(mpi.received(size * count)));
            }
            // Packets may deliberately remain pending (pacing), so ask for
            // a timed continue, never an event wait.
            Step::Again
        })
    };
    mpi2_stream_into(profile, (size, count), |_| {}, |_| true, receiver)
}

/// One *unexpected* MPI-FM 2.x message: sent before any receive is
/// posted; the receiver posts its receive only after noticing the arrival
/// (the worst case for eager, the motivating case for rendezvous).
/// `eager_threshold = None` keeps the 1998 eager-only behaviour;
/// `Some(t)` turns on RTS/CTS above `t` bytes.
pub fn mpi_unexpected_latency(
    profile: MachineProfile,
    size: usize,
    eager_threshold: Option<usize>,
) -> StreamResult {
    let tune = |mpi: &mut Mpi2<SimDevice>| {
        if let Some(t) = eager_threshold {
            mpi.set_eager_threshold(t);
        }
    };
    let receiver = move |mut mpi: Mpi2<SimDevice>| -> Program<Option<StreamResult>> {
        let mut posted: Option<RecvReq> = None;
        Box::new(move || {
            mpi.progress();
            if posted.is_none() && mpi.unexpected_total() > 0 {
                // The application now learns of the message (e.g. via a
                // probe) and posts its receive.
                posted = Some(mpi.irecv(Some(0), Some(0), size));
            }
            match &posted {
                Some(req) if req.is_done() => {
                    req.take();
                    Step::Done(Some(mpi.received(size)))
                }
                _ => Step::Idle,
            }
        })
    };
    // The sender stays alive until FM's deferred queue has drained too: the
    // rendezvous payload travels through it after the CTS.
    let flushed = |mpi: &mut Mpi2<SimDevice>| mpi.fm().progress();
    mpi2_stream_into(profile, (size, 1), tune, flushed, receiver)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fm1_stream_reaches_paper_scale_bandwidth() {
        let r = fm1_stream(MachineProfile::sparc_fm1(), Fm1Stage::Full, 512, 200);
        let bw = r.bandwidth().as_mbps();
        assert!((10.0..25.0).contains(&bw), "FM1 @512B = {bw:.2} MB/s");
    }

    #[test]
    fn fm2_stream_reaches_paper_scale_bandwidth() {
        let r = fm2_stream(MachineProfile::ppro200_fm2(), 2048, 200);
        let bw = r.bandwidth().as_mbps();
        assert!((55.0..90.0).contains(&bw), "FM2 @2KB = {bw:.2} MB/s");
    }

    #[test]
    fn latencies_are_in_paper_range() {
        let l1 = fm1_latency(MachineProfile::sparc_fm1(), 16, 50);
        assert!((8_000..22_000).contains(&l1.as_ns()), "FM1 latency = {l1}");
        let l2 = fm2_latency(MachineProfile::ppro200_fm2(), 16, 50);
        assert!((7_000..16_000).contains(&l2.as_ns()), "FM2 latency = {l2}");
    }

    #[test]
    fn latency_distributions_record_every_round_and_match_the_mean() {
        let profile = MachineProfile::ppro200_fm2();
        let d = fm2_latency_dist(profile, 16, 50, None);
        assert_eq!(d.one_way_ns.count(), 50, "one sample per round");
        assert_eq!(d.mean, fm2_latency(profile, 16, 50), "wrapper is the mean");
        // The median sits within the histogram's factor-of-two bucket
        // resolution of the mean, and the tail is ordered.
        let p50 = d.one_way_ns.p50();
        assert!(
            p50 >= d.mean.as_ns() / 2 && p50 <= d.mean.as_ns() * 2,
            "p50 = {p50}, mean = {}",
            d.mean
        );
        assert!(d.one_way_ns.p99() >= p50);

        let d1 = fm1_latency_dist(MachineProfile::sparc_fm1(), 16, 50, None);
        assert_eq!(d1.one_way_ns.count(), 50);
        assert_eq!(d1.mean, fm1_latency(MachineProfile::sparc_fm1(), 16, 50));
    }

    /// A wire that duplicates under engines that trust it hands the FM API
    /// the same message twice: the round numbers catch it, on the pong
    /// side too when the pong's lead is read (the launcher's form).
    #[test]
    #[should_panic(expected = "round")]
    fn a_message_delivered_twice_fails_the_ping_pong() {
        let dup = FaultModel::Duplicate { p: 0.2, seed: 3 };
        let sim = Sim::new(MachineProfile::ppro200_fm2())
            .unreliable(Reliability::TrustSubstrate, vec![dup]);
        sim.run(2, |rank, fm| ping_pong_program(rank, fm, 16, 50));
    }

    #[test]
    fn stream_dist_collects_per_message_bandwidth() {
        let d = fm2_stream_dist(MachineProfile::ppro200_fm2(), 2048, 200, None);
        let h = &d.per_message_kbps;
        assert!(
            h.count() >= 100,
            "most messages yield a sample, got {}",
            h.count()
        );
        // The per-message median agrees with the aggregate bandwidth to
        // within the log-bucket resolution (plus ramp-up skew).
        let agg_kbps = d.result.bandwidth().as_mbps() * 1000.0;
        let p50 = h.p50() as f64;
        assert!(
            p50 > agg_kbps / 4.0 && p50 < agg_kbps * 4.0,
            "p50 = {p50} KB/s vs aggregate {agg_kbps} KB/s"
        );
    }

    #[test]
    fn mpi_streams_run_and_order_correctly() {
        let m1 = mpi_stream(MpiBinding::OverFm1, MachineProfile::sparc_fm1(), 1024, 64);
        let f1 = fm1_stream(MachineProfile::sparc_fm1(), Fm1Stage::Full, 1024, 64);
        assert!(
            m1.bandwidth() < f1.bandwidth(),
            "layering cannot speed things up"
        );
        let m2 = mpi_stream(MpiBinding::OverFm2, MachineProfile::ppro200_fm2(), 1024, 64);
        let f2 = fm2_stream(MachineProfile::ppro200_fm2(), 1024, 64);
        assert!(m2.bandwidth() < f2.bandwidth());
        // And the headline claim: MPI efficiency is far better over FM2.
        let eff1 = m1.bandwidth().as_mbps() / f1.bandwidth().as_mbps();
        let eff2 = m2.bandwidth().as_mbps() / f2.bandwidth().as_mbps();
        assert!(eff2 > eff1 + 0.2, "eff1={eff1:.2} eff2={eff2:.2}");
    }

    /// The full-length 2 KB streams once wedged on a lost wake-up; they
    /// must finish, and with the bandwidth the figures quote.
    #[test]
    fn full_length_2k_mpi_streams_do_not_wedge() {
        let n = stream_count(2048);
        let r2 = mpi_stream(MpiBinding::OverFm2, MachineProfile::ppro200_fm2(), 2048, n);
        let r1 = mpi_stream(MpiBinding::OverFm1, MachineProfile::sparc_fm1(), 2048, n);
        assert_eq!((r1.bytes, r2.bytes), ((2048 * n) as u64, (2048 * n) as u64));
        assert!(
            r2.bandwidth().as_mbps() > 40.0,
            "MPI-FM2 {}",
            r2.bandwidth()
        );
        assert!(r1.bandwidth().as_mbps() > 1.0, "MPI-FM1 {}", r1.bandwidth());
    }
}
