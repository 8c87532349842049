//! `mpi_shm_mix`: `mpi-fm` (`Mpi2`) over `fm-shm` — a 16-byte MPI
//! ping-pong; a seeded mix of 256 messages from 16 B to 256 KiB with
//! shuffled tags, half the receives pre-posted and half posted late
//! (unexpected queue, extra copy); a 2 KB MPI stream with pre-posted
//! receives; a barrier and a 16-byte allreduce after every round.
//!
//! `mpi-fm::matching` and the eager/rendezvous choice do the work here
//! and none in the other workloads. The program chooses the protocol:
//! the benchmark never touches `set_eager_threshold`.
//!
//! The mix is the same multiset of sizes in every segment; the seed
//! shuffles order, tags and which receives are late, so goodput is
//! comparable across segments and seeds.

use std::sync::Arc;
use std::time::Instant;

use fm_core::device::NetDevice;
use fm_core::Fm2Engine;
use fm_model::rng::DetRng;
use fm_model::MachineProfile;
use mpi_fm::{Mpi, Mpi2, ReduceOp};

use crate::fabric::{run_sessions, shm_pair, Sync2};
use crate::legs::{deadline_for, FmLegs};
use crate::payload::{Pattern, HEADER_BYTES};
use crate::report::RunResult;
use crate::rungs;
use crate::stats::{median, LatencyLeg, ThroughputLeg};
use crate::trace::{self, DevCounts, Kind, Recorder, TracedDevice};
use crate::workloads::fm_pair::TRACED_LEG_SHARE;
use crate::workloads::{session_seconds, sessions, Round, RoundPlan};
use crate::{peak_rss_mb, Opts};

/// Messages in one segment of the mix, and in one group (the receiver
/// pre-posts half a group, says go, then posts the other half late).
const MIX_OPS: usize = 256;
const GROUP: usize = 16;
const MIX_MIN: f64 = 16.0;
const MIX_MAX: f64 = 262_144.0;

/// Ping-pong rounds and stream messages per segment; stream size.
const PP_ROUNDS: usize = 1024;
const STREAM_MSGS: usize = 2048;
const STREAM_BYTES: usize = 2048;
/// Ping-pong rounds and stream messages of the set-up priming (plus one
/// group of the mix).
const PRIME_ROUNDS: usize = 64;
const PRIME_MSGS: usize = 128;

const TAG_PING: u32 = 1;
const TAG_PONG: u32 = 2;
const TAG_GO: u32 = 3;
const TAG_READY: u32 = 4;
const TAG_STREAM: u32 = 5;
const TAG_MIX_BASE: u32 = 1000;

/// MPI-FM's handler ids on the wire, for the eager share (public
/// constants of `mpi-fm` and `fm-core::onesided`).
const MPI_HANDLER: usize = mpi_fm::mpi2::MPI_HANDLER.0 as usize;
const OS_HANDLERS: [usize; 2] = [
    fm_core::onesided::ONESIDED_HANDLER.0 as usize,
    fm_core::onesided::OS_EAGER_HANDLER.0 as usize,
];

/// The fixed multiset of mix sizes: log-spaced from 16 B to 256 KiB.
fn mix_sizes() -> [usize; MIX_OPS] {
    let mut s = [0usize; MIX_OPS];
    for (k, size) in s.iter_mut().enumerate() {
        let t = k as f64 / (MIX_OPS - 1) as f64;
        *size = (MIX_MIN * (MIX_MAX / MIX_MIN).powf(t)).round() as usize;
    }
    s
}

/// One segment's schedule: per position the size, the tag and whether
/// its receive is posted late. A pure function of `(seed, segment)` and
/// the number of groups; the multiset of sizes depends on the number of
/// groups alone (an even subsample of the full mix), so the work never
/// depends on the seed.
struct MixSchedule {
    size: Vec<usize>,
    tag: Vec<u32>,
    late: Vec<bool>,
}

fn mix_schedule(seed: u64, segment: u64, groups: usize) -> MixSchedule {
    let mut rng = DetRng::seed_from_u64(seed ^ segment.wrapping_mul(0xA24B_AED4_963E_E407));
    let (all, ops) = (mix_sizes(), groups * GROUP);
    let stride = MIX_OPS / ops;
    let mut size: Vec<usize> = (0..ops).map(|k| all[k * stride + stride / 2]).collect();
    rng.shuffle(&mut size);
    let mut tag: Vec<u32> = (0..ops as u32).map(|t| TAG_MIX_BASE + t).collect();
    rng.shuffle(&mut tag);
    let mut late = Vec::with_capacity(ops);
    for _ in 0..groups {
        let mut g = [false; GROUP];
        g[..GROUP / 2].fill(true);
        rng.shuffle(&mut g);
        late.extend_from_slice(&g);
    }
    MixSchedule { size, tag, late }
}

struct Rank<'a, D: NetDevice + 'static> {
    mpi: Mpi2<D>,
    rank: usize,
    pat: &'a Pattern,
    seed: u64,
    attempted: u64,
    failed: u64,
    pp_op: u64,
    mix_segment: u64,
    stream_op: u64,
    coll_round: u64,
    deadline: Instant,
}

impl<D: NetDevice + 'static> Rank<'_, D> {
    fn peer(&self) -> usize {
        1 - self.rank
    }

    fn send(&mut self, tag: u32, data: Vec<u8>) {
        let peer = self.peer();
        trace::span(Kind::MpiSend, || self.mpi.send(peer, tag, data));
    }

    fn recv(&mut self, tag: u32, max: usize) -> Vec<u8> {
        let peer = self.peer();
        let (data, st) = trace::span(Kind::MpiRecv, || self.mpi.recv(Some(peer), Some(tag), max));
        if (st.src, st.tag, st.len) != (peer, tag, data.len()) {
            self.failed += 1;
        }
        data
    }

    /// One segment of the 16-byte ping-pong; rank 0 times each round.
    fn pingpong_segment(&mut self, leg: &mut LatencyLeg, rounds: usize) {
        let mut seg = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let op = self.pp_op;
            trace::set_op(op);
            if self.rank == 0 {
                let t0 = Instant::now();
                self.send(TAG_PING, self.pat.header(op, HEADER_BYTES).to_vec());
                let back = self.recv(TAG_PONG, HEADER_BYTES);
                seg.push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                self.failed += u64::from(!self.pat.check(op, &back));
            } else {
                let msg = self.recv(TAG_PING, HEADER_BYTES);
                self.failed += u64::from(!self.pat.check(op, &msg));
                self.send(TAG_PONG, msg);
            }
            self.pp_op += 1;
        }
        self.attempted += rounds as u64;
        if self.rank == 0 {
            leg.push_segment(&mut seg);
        }
    }

    /// One segment of the mix (its first `groups` groups: all of them
    /// when measuring, one when priming); rank 1 times it from its first
    /// go to its last delivery.
    fn mix_segment(&mut self, leg: &mut ThroughputLeg, groups: usize) {
        let sched = mix_schedule(self.seed, self.mix_segment, groups);
        let op_base = self.mix_segment * MIX_OPS as u64;
        self.mix_segment += 1;
        self.attempted += (groups * GROUP) as u64;
        if self.rank == 0 {
            // `isend` takes the buffer by value: build them before the
            // receiver starts its clock.
            let mut msgs: Vec<Option<Vec<u8>>> = (0..groups * GROUP)
                .map(|i| Some(self.pat.message(op_base + i as u64, sched.size[i])))
                .collect();
            self.send(TAG_READY, vec![0u8; 1]);
            let mut reqs = Vec::with_capacity(groups * GROUP);
            for g in 0..groups {
                self.recv(TAG_GO, 1);
                for (i, msg) in msgs.iter_mut().enumerate().skip(g * GROUP).take(GROUP) {
                    trace::set_op(op_base + i as u64);
                    let data = msg.take().expect("each message is sent once");
                    let t = trace::begin();
                    reqs.push(self.mpi.isend(1, sched.tag[i], data));
                    trace::end(t, Kind::MpiSend);
                }
            }
            for r in &reqs {
                self.mpi.wait_send(r);
            }
            return;
        }
        self.recv(TAG_READY, 1);
        let t0 = Instant::now();
        for g in 0..groups {
            let ops = g * GROUP..(g + 1) * GROUP;
            let unexpected_before = self.mpi.unexpected_total();
            let posted: Vec<_> = ops
                .clone()
                .filter(|&i| !sched.late[i])
                .map(|i| {
                    let t = trace::begin();
                    let r = self.mpi.irecv(Some(0), Some(sched.tag[i]), sched.size[i]);
                    trace::end(t, Kind::MpiRecv);
                    (i, r)
                })
                .collect();
            self.send(TAG_GO, vec![0u8; 1]);
            for (i, req) in posted {
                trace::set_op(op_base + i as u64);
                let (data, _) = trace::span(Kind::MpiRecv, || self.mpi.wait_recv(&req));
                self.failed += u64::from(!self.pat.check(op_base + i as u64, &data));
            }
            // The late half: let them land in the unexpected queue
            // first, then post their receives.
            let late = (GROUP / 2) as u64;
            let mut polls = 0u32;
            while self.mpi.unexpected_total() < unexpected_before + late {
                trace::span(Kind::MpiProgress, || self.mpi.progress());
                polls += 1;
                if polls % 4096 == 0 && Instant::now() >= self.deadline {
                    self.failed += late;
                    return;
                }
            }
            for i in ops.filter(|&i| sched.late[i]) {
                trace::set_op(op_base + i as u64);
                let data = self.recv(sched.tag[i], sched.size[i]);
                self.failed += u64::from(!self.pat.check(op_base + i as u64, &data));
            }
        }
        leg.seg_ns.push(t0.elapsed().as_nanos() as f64);
    }

    /// One segment of `count` 2 KB stream messages with every receive
    /// pre-posted; rank 1 times it.
    fn stream_segment(&mut self, leg: &mut ThroughputLeg, count: usize) {
        let base = self.stream_op;
        self.stream_op += count as u64;
        self.attempted += count as u64;
        if self.rank == 0 {
            let msgs: Vec<Vec<u8>> = (0..count as u64)
                .map(|i| self.pat.message(base + i, STREAM_BYTES))
                .collect();
            self.send(TAG_READY, vec![0u8; 1]);
            self.recv(TAG_GO, 1);
            let mut reqs = Vec::with_capacity(count);
            for (i, m) in msgs.into_iter().enumerate() {
                trace::set_op(base + i as u64);
                let t = trace::begin();
                reqs.push(self.mpi.isend(1, TAG_STREAM, m));
                trace::end(t, Kind::MpiSend);
            }
            for r in &reqs {
                self.mpi.wait_send(r);
            }
            return;
        }
        self.recv(TAG_READY, 1);
        let reqs: Vec<_> = (0..count)
            .map(|_| self.mpi.irecv(Some(0), Some(TAG_STREAM), STREAM_BYTES))
            .collect();
        let t0 = Instant::now();
        self.send(TAG_GO, vec![0u8; 1]);
        for (i, req) in reqs.iter().enumerate() {
            trace::set_op(base + i as u64);
            let (data, _) = trace::span(Kind::MpiRecv, || self.mpi.wait_recv(req));
            self.failed += u64::from(!self.pat.check(base + i as u64, &data));
        }
        leg.seg_ns.push(t0.elapsed().as_nanos() as f64);
    }

    /// Barrier, then a 16-byte allreduce that also carries rank 0's
    /// decision about the next round. Returns that decision.
    fn collectives(&mut self, next: Round) -> Round {
        self.mpi.barrier();
        let round = self.coll_round;
        self.coll_round += 1;
        let mut contrib = [0u8; 16];
        contrib[..8].copy_from_slice(&(round + self.rank as u64).to_le_bytes());
        let mine = if self.rank == 0 { next as u64 } else { 0 };
        contrib[8..].copy_from_slice(&mine.to_le_bytes());
        let sum = self.mpi.allreduce(&contrib, ReduceOp::SumU64);
        self.attempted += 2;
        let first = u64::from_le_bytes(sum[..8].try_into().expect("8 bytes"));
        let decided = u64::from_le_bytes(sum[8..16].try_into().expect("8 bytes"));
        if sum.len() != 16 || first != 2 * round + 1 || decided > Round::Measure as u64 {
            self.failed += 1;
            return Round::Stop;
        }
        Round::from_wire(decided)
    }
}

/// Repeat `f` then the collectives until rank 0's clock says `secs` have
/// passed (the allreduce carries the decision to rank 1).
fn repeat_for<D: NetDevice + 'static>(
    r: &mut Rank<'_, D>,
    secs: f64,
    f: &mut dyn FnMut(&mut Rank<'_, D>),
) {
    let started = Instant::now();
    loop {
        f(r);
        let more = started.elapsed().as_secs_f64() < secs;
        let next = if more { Round::Measure } else { Round::Stop };
        if r.collectives(next) == Round::Stop {
            break;
        }
    }
}

fn mix_leg() -> ThroughputLeg {
    ThroughputLeg::new(MIX_OPS as u64, mix_sizes().iter().sum::<usize>() as u64)
}

fn stream_leg() -> ThroughputLeg {
    ThroughputLeg::new(STREAM_MSGS as u64, (STREAM_MSGS * STREAM_BYTES) as u64)
}

#[derive(Default)]
struct RankOut {
    setup_s: f64,
    attempted: u64,
    failed: u64,
    pp: LatencyLeg,
    mix: ThroughputLeg,
    stream: ThroughputLeg,
    // Traced extras.
    fm_pp: LatencyLeg,
    fm_stream: ThroughputLeg,
    barrier_us: f64,
    allreduce_us: f64,
    unexpected: u64,
    unexpected_high_water: usize,
    mix_msgs: u64,
    recorder: Option<Recorder>,
    dev_counts: Option<DevCounts>,
}

#[allow(clippy::too_many_arguments)]
fn session(
    rank: usize,
    dev: TracedDevice<fm_shm::ShmDevice>,
    began: Instant,
    opts: &Opts,
    pat: &Arc<Pattern>,
    sync: &Sync2,
    seconds: Option<f64>,
    epoch: Instant,
) -> RankOut {
    let mut out = RankOut::default();
    let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
    let mut r = Rank {
        mpi: Mpi2::new(fm.clone()),
        rank,
        pat,
        seed: opts.seed,
        attempted: 0,
        failed: 0,
        pp_op: 0,
        mix_segment: 0,
        stream_op: 0,
        coll_round: 0,
        deadline: deadline_for(opts.seconds),
    };
    // Prime every path once, briefly; then set-up counts as done.
    let (mut pp, mut mix, mut stream) = (LatencyLeg::new(false), mix_leg(), stream_leg());
    r.pingpong_segment(&mut pp, PRIME_ROUNDS);
    r.mix_segment(&mut mix, 1);
    r.stream_segment(&mut stream, PRIME_MSGS);
    r.collectives(Round::Warm);
    out.setup_s = began.elapsed().as_secs_f64();

    if let (Some(seconds), false) = (seconds, opts.traced) {
        out.pp = LatencyLeg::new(false);
        out.mix = mix_leg();
        out.stream = stream_leg();
        let mut warm = (LatencyLeg::new(false), mix_leg(), stream_leg());
        let mut plan = RoundPlan::new(seconds);
        let mut round = Round::Warm;
        while round != Round::Stop {
            let (p, m, s) = if round == Round::Measure {
                (&mut out.pp, &mut out.mix, &mut out.stream)
            } else {
                (&mut warm.0, &mut warm.1, &mut warm.2)
            };
            r.pingpong_segment(p, PP_ROUNDS);
            r.mix_segment(m, MIX_OPS / GROUP);
            r.stream_segment(s, STREAM_MSGS);
            round = r.collectives(plan.next(r.failed > 0));
        }
    } else if let Some(seconds) = seconds {
        // Traced: one leg at a time. Rank 0's clock decides how long;
        // the allreduce tells rank 1.
        let leg_secs = seconds * TRACED_LEG_SHARE / 7.0;
        let timed =
            |r: &mut Rank<'_, _>, f: &mut dyn FnMut(&mut Rank<'_, _>)| repeat_for(r, leg_secs, f);
        out.pp = LatencyLeg::new(true);
        out.mix = mix_leg();
        out.stream = stream_leg();
        timed(&mut r, &mut |r| r.pingpong_segment(&mut out.pp, PP_ROUNDS));
        let (unexp_before, segs_before) = (r.mpi.unexpected_total(), r.mix_segment);
        timed(&mut r, &mut |r| {
            r.mix_segment(&mut out.mix, MIX_OPS / GROUP)
        });
        out.unexpected = r.mpi.unexpected_total() - unexp_before;
        out.mix_msgs = (r.mix_segment - segs_before) * MIX_OPS as u64;
        out.unexpected_high_water = r.mpi.unexpected_high_water();
        timed(&mut r, &mut |r| {
            r.stream_segment(&mut out.stream, STREAM_MSGS)
        });
        // Collectives on their own.
        let t0 = Instant::now();
        for _ in 0..2048 {
            r.mpi.barrier();
        }
        out.barrier_us = t0.elapsed().as_secs_f64() * 1e6 / 2048.0;
        let t0 = Instant::now();
        for _ in 0..2048 {
            r.mpi.allreduce(&[0u8; 16], ReduceOp::SumU64);
        }
        out.allreduce_us = t0.elapsed().as_secs_f64() * 1e6 / 2048.0;
        // The FM-level legs on the same engines, same process: the
        // denominators of the Fig. 6 ratio and of the ping-pong ratio.
        let mut legs = FmLegs::new(&fm, rank, sync, pat);
        out.fm_pp = legs.pingpong(leg_secs, PP_ROUNDS, false);
        legs.stream(STREAM_BYTES, 0.0, 2048);
        out.fm_stream = legs.stream(STREAM_BYTES, leg_secs, 2048);
        r.attempted += legs.attempted;
        r.failed += legs.failed;
        // The same MPI legs with the recorder attached.
        trace::attach(rank, epoch);
        let mut scratch = (LatencyLeg::new(false), mix_leg(), stream_leg());
        timed(&mut r, &mut |r| {
            r.pingpong_segment(&mut scratch.0, PP_ROUNDS);
            r.mix_segment(&mut scratch.1, MIX_OPS / GROUP);
            r.stream_segment(&mut scratch.2, STREAM_MSGS);
        });
        out.recorder = trace::detach();
        out.dev_counts = Some(fm.with_device(|d| d.counts()));
    }
    out.attempted = r.attempted;
    out.failed = r.failed + fm.take_errors().len() as u64;
    out
}

/// Run the workload.
pub fn run(opts: &Opts) -> RunResult {
    let pat = Arc::new(Pattern::new(opts.seed, MIX_MAX as usize));
    let sync = Sync2::new();
    let epoch = Instant::now();
    let all = run_sessions(
        sessions(opts),
        |_| shm_pair("mpi_shm_mix"),
        |rank, n, dev, began| {
            let seconds = session_seconds(opts, n);
            session(rank, dev, began, opts, &pat, &sync, seconds, epoch)
        },
    );
    let mut r = RunResult::default();
    let setups: Vec<f64> = all
        .iter()
        .map(|ranks| ranks.iter().map(|o| o.setup_s).fold(0.0, f64::max))
        .collect();
    for ranks in &all {
        r.count(ranks[0].attempted, ranks.iter().map(|o| o.failed).sum());
    }
    // Rank 0 timed the ping-pong, rank 1 the streams. Segments of every
    // measuring session go into one pool; the traced extras are the
    // last session's.
    let mut all = all.into_iter();
    let mut last = all.next_back().expect("at least one session");
    let mut r1 = last.pop().expect("rank 1");
    let mut r0 = last.pop().expect("rank 0");
    for mut earlier in all {
        let e1 = earlier.pop().expect("rank 1");
        let e0 = earlier.pop().expect("rank 0");
        r0.pp.merge(e0.pp);
        r1.mix.seg_ns.extend(e1.mix.seg_ns);
        r1.stream.seg_ns.extend(e1.stream.seg_ns);
    }
    if !opts.traced {
        r.set("setup_s", median(&setups), setups.len() as u64);
        r.set("oneway_p50_us", r0.pp.p50_ns() / 2e3, r0.pp.samples);
        r.set("msg_rate_kps", r1.stream.ops_per_ms(), r1.stream.ops());
        r.set("goodput_mbps", r1.mix.mbps(), r1.mix.ops());
        r.set("peak_rss_mb", peak_rss_mb(), 1);
        return r;
    }

    let recorders: Vec<Recorder> = [r0.recorder.take(), r1.recorder.take()]
        .into_iter()
        .flatten()
        .collect();
    crate::write_chrome_trace("mpi_shm_mix", opts.seed, &recorders, &mut r);
    let send = trace::sum_agg(&recorders, Kind::MpiSend);
    r.set("mpi-fm.send_self_ns", send.mean_self_ns(), send.count);
    let recv = trace::sum_agg(&recorders, Kind::MpiRecv);
    r.set("mpi-fm.recv_self_ns", recv.mean_self_ns(), recv.count);
    r.set_device_spans(&recorders, "fm-shm.dev_send_ns", "fm-shm.dev_recv_ns");
    r.set(
        "mpi-fm.unexpected_share",
        r1.unexpected as f64 / r1.mix_msgs.max(1) as f64,
        r1.mix_msgs,
    );
    r.set(
        "mpi-fm.unexpected_high_water",
        r1.unexpected_high_water as f64,
        1,
    );
    // By payload bytes on the wire while the recorder was attached:
    // what travelled under MPI's own handler (eager) against what
    // travelled under the one-sided handlers (rendezvous DATA).
    let by = |ids: &[usize]| {
        [&r0.dev_counts, &r1.dev_counts]
            .into_iter()
            .flatten()
            .map(|c| ids.iter().map(|&h| c.payload_by_handler[h]).sum::<u64>())
            .sum::<u64>() as f64
    };
    let (eager, rndv) = (by(&[MPI_HANDLER]), by(&OS_HANDLERS));
    r.set(
        "mpi-fm.eager_share",
        eager / (eager + rndv).max(1.0),
        (eager + rndv) as u64,
    );
    r.set(
        "mpi-fm.pingpong_over_fm_16b",
        r0.pp.p50_ns() / r0.fm_pp.p50_ns().max(1.0),
        r0.pp.samples,
    );
    r.set("mpi-fm.barrier_n2_us", r0.barrier_us, 2048);
    r.set("mpi-fm.allreduce_n2_16b_us", r0.allreduce_us, 2048);
    r.set(
        "fm-core.fm2.shm_stream_2k_mbps",
        r1.fm_stream.mbps(),
        r1.fm_stream.ops(),
    );
    r.set(
        "mpi-fm.iface_efficiency_2k",
        r1.stream.mbps() / r1.fm_stream.mbps().max(1e-9),
        r1.stream.ops(),
    );
    r.set_tails(&r0.pp, 2e3);
    r.set_fail_share();
    r.set(
        "fm-shm.setup_ms",
        median(&setups) * 1e3,
        setups.len() as u64,
    );
    r.notes.push(format!(
        "mix goodput {:.0} MB/s, MPI 2 KB stream {:.0} MB/s, FM 2 KB stream {:.0} MB/s",
        r1.mix.mbps(),
        r1.stream.mbps(),
        r1.fm_stream.mbps(),
    ));

    let rung_secs = opts.seconds * (1.0 - TRACED_LEG_SHARE) / 2.0;
    rungs::memcpy_baseline(&mut r, rung_secs);
    r.set(
        "fm-shm.ring_stream_2k_mbps",
        rungs::ring_stream_2k_mbps(rung_secs),
        1,
    );
    r
}
