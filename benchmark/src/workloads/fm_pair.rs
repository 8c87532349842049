//! The shape `shm_small`, `udp_clean` and `udp_lossy` share: an FM 2.x
//! engine per rank over some device pair, a 16-byte ping-pong leg, then a
//! one-way stream leg. The three differ in the device, the reliability
//! mode and the stream's message size — nothing else.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use fm_core::device::NetDevice;
use fm_core::{Fm2Engine, FmStats, Reliability};
use fm_model::MachineProfile;

use crate::fabric::{run_sessions, Join, Sync2};
use crate::legs::{deadline_for, FmLegs};
use crate::payload::Pattern;
use crate::report::RunResult;
use crate::stats::{median, LatencyLeg, ThroughputLeg};
use crate::trace::{self, DevCounts, Kind, Recorder, TracedDevice};
use crate::workloads::{session_seconds, sessions, Round, RoundPlan, WARMUP_SHARE};
use crate::{peak_rss_mb, Opts};

/// Rounds and messages the set-up primes the path with (pools fill,
/// queues reach capacity, pages fault in) before it counts as done.
const PRIME_ROUNDS: usize = 256;
const PRIME_MSGS: u64 = 1024;

/// Share of a traced run's time spent in the workload's own legs; the
/// rest goes to the rung ladder.
pub const TRACED_LEG_SHARE: f64 = 0.4;

/// How one FM pair workload differs from the others.
#[derive(Debug, Clone)]
pub struct FmPairCfg {
    /// Engine reliability mode.
    pub reliability: Reliability,
    /// Stream message size, bytes.
    pub stream_bytes: usize,
    /// Ping-pong rounds per segment.
    pub pp_seg_ops: usize,
    /// Stream messages per segment.
    pub stream_seg_ops: u64,
}

/// Device counters the per-layer metrics need, whatever the device.
#[derive(Debug, Clone, Copy, Default)]
pub struct DevSnap {
    /// Frames (datagrams, ring slots) handed to the substrate.
    pub frames_sent: u64,
    /// Wire bytes handed to the substrate (0 when the device does not
    /// count them).
    pub wire_bytes_sent: u64,
    /// Sends the substrate refused because its queue was full.
    pub full_rejections: u64,
    /// Sends deferred by the kernel (`EWOULDBLOCK`).
    pub send_retries: u64,
    /// Standalone acks dropped in favour of a fresher one.
    pub acks_coalesced: u64,
    /// Multi-frame datagrams sent.
    pub trains_sent: u64,
}

impl DevSnap {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &DevSnap) -> DevSnap {
        DevSnap {
            frames_sent: self.frames_sent - earlier.frames_sent,
            wire_bytes_sent: self.wire_bytes_sent - earlier.wire_bytes_sent,
            full_rejections: self.full_rejections - earlier.full_rejections,
            send_retries: self.send_retries - earlier.send_retries,
            acks_coalesced: self.acks_coalesced - earlier.acks_coalesced,
            trains_sent: self.trains_sent - earlier.trains_sent,
        }
    }
}

/// What one rank brings back.
#[derive(Default)]
struct RankOut {
    began: Option<Instant>,
    measured: bool,
    ready: Option<Instant>,
    opened: Option<Instant>,
    attempted: u64,
    failed: u64,
    pp: LatencyLeg,
    pp_traced: LatencyLeg,
    stream: ThroughputLeg,
    stream_stats: FmStats,
    stream_dev: DevSnap,
    stream_allocs: u64,
    recorder: Option<Recorder>,
    dev_counts: Option<DevCounts>,
    srtt_ns: Option<u64>,
    rto_ns: Option<u64>,
}

/// Everything the FM pair legs measured, both ranks merged.
#[derive(Default)]
pub struct FmPairOutcome {
    /// Set-up time of each session, seconds.
    pub setup_s: Vec<f64>,
    /// Device open + join part of each session, ms.
    pub open_ms: Vec<f64>,
    /// Operations attempted (rank 0's view).
    pub attempted: u64,
    /// Operations failed on either rank.
    pub failed: u64,
    /// Ping-pong round trips, recorder detached.
    pub pp: LatencyLeg,
    /// Ping-pong round trips, recorder attached (traced runs).
    pub pp_traced: LatencyLeg,
    /// Stream segments, recorder detached.
    pub stream: ThroughputLeg,
    /// Engine counters over the detached stream leg, per rank.
    pub stream_stats: Vec<FmStats>,
    /// Device counters over the detached stream leg, per rank.
    pub stream_dev: Vec<DevSnap>,
    /// Allocator calls on both rank threads over the detached stream leg.
    pub stream_allocs: u64,
    /// Span recorders of the traced legs, per rank.
    pub recorders: Vec<Recorder>,
    /// What crossed each rank's traced device while attached.
    pub dev_counts: Vec<DevCounts>,
    /// Smoothed RTT toward the peer after the legs (rank 0), ns.
    pub srtt_ns: Option<u64>,
    /// Retransmit timeout toward the peer after the legs (rank 0), ns.
    pub rto_ns: Option<u64>,
}

/// The end-to-end metrics of an FM pair workload.
pub fn end_to_end(o: &FmPairOutcome, r: &mut RunResult) {
    r.set("setup_s", median(&o.setup_s), o.setup_s.len() as u64);
    r.set("oneway_p50_us", o.pp.p50_ns() / 2e3, o.pp.samples);
    r.set("msg_rate_kps", o.stream.ops_per_ms(), o.stream.ops());
    r.set("goodput_mbps", o.stream.mbps(), o.stream.ops());
    r.set("peak_rss_mb", peak_rss_mb(), 1);
}

/// The per-layer metrics any FM pair workload can fill from its own
/// legs: engine counters and self times, tails, tracing overhead.
pub fn fm_pair_layers(o: &FmPairOutcome, r: &mut RunResult) {
    let st = &o.stream_stats;
    let msgs = sum(st, |s| s.messages_sent).max(1.0);
    let n = msgs as u64;
    let per_kmsg = |x: f64| x * 1e3 / msgs;
    r.set(
        "fm-core.fm2.packets_per_msg",
        sum(st, |s| s.packets_sent) / msgs,
        n,
    );
    r.set(
        "fm-core.fm2.bytes_copied_per_payload_byte",
        sum(st, |s| s.bytes_copied) / sum(st, |s| s.bytes_received).max(1.0),
        n,
    );
    r.set(
        "fm-core.fm2.credit_stalls_per_kmsg",
        per_kmsg(sum(st, |s| s.credit_stalls)),
        n,
    );
    r.set(
        "fm-core.fm2.device_stalls_per_kmsg",
        per_kmsg(sum(st, |s| s.device_stalls)),
        n,
    );
    r.set(
        "fm-core.fm2.credit_packets_per_kmsg",
        per_kmsg(sum(st, |s| s.credit_packets_sent)),
        n,
    );
    let takes = sum(st, |s| s.pool_hits + s.pool_misses).max(1.0);
    r.set(
        "fm-core.buf.pool_miss_share",
        sum(st, |s| s.pool_misses) / takes,
        takes as u64,
    );
    r.set(
        "fm-core.buf.allocs_per_msg",
        o.stream_allocs as f64 / msgs,
        n,
    );
    // Self time: an API span minus the device and handler spans that
    // closed inside it.
    let send = trace::sum_agg(&o.recorders, Kind::FmSend);
    r.set("fm-core.fm2.send_self_ns", send.mean_self_ns(), send.count);
    let extract = trace::sum_agg(&o.recorders, Kind::FmExtract);
    r.set(
        "fm-core.fm2.extract_self_ns",
        extract.mean_self_ns(),
        extract.count,
    );
    r.set_tails(&o.pp, 2e3);
    r.set(
        "trace.overhead_share",
        o.pp_traced.p50_ns() / o.pp.p50_ns().max(1.0) - 1.0,
        o.pp_traced.samples,
    );
    r.set_fail_share();
}

/// Sum of `field` over both ranks' counters in `stats`.
pub fn sum(stats: &[FmStats], field: impl Fn(&FmStats) -> u64) -> f64 {
    stats.iter().map(field).sum::<u64>() as f64
}

struct Session<'a, S> {
    cfg: FmPairCfg,
    opts: Opts,
    pat: &'a Arc<Pattern>,
    sync: &'a Sync2,
    /// How long to run the legs for after priming (`None`: set-up only).
    seconds: Option<f64>,
    epoch: Instant,
    snap: &'a S,
}

fn session<D, S>(rank: usize, dev: TracedDevice<D>, s: &Session<'_, S>) -> RankOut
where
    D: NetDevice + 'static,
    S: Fn(&D) -> DevSnap,
{
    let mut out = RankOut {
        opened: Some(Instant::now()),
        ..RankOut::default()
    };
    let fm = Fm2Engine::with_reliability(
        dev,
        MachineProfile::ppro200_fm2(),
        s.cfg.reliability.clone(),
    );
    let size = s.cfg.stream_bytes;
    let (pp_seg, st_seg) = (s.cfg.pp_seg_ops, s.cfg.stream_seg_ops);
    let mut legs = FmLegs::new(&fm, rank, s.sync, s.pat);

    legs.pingpong(0.0, PRIME_ROUNDS, false);
    legs.stream(size, 0.0, PRIME_MSGS);
    out.ready = Some(Instant::now());
    if let Some(seconds) = s.seconds {
        out.measured = true;
        if s.opts.traced {
            traced_legs(&mut legs, s, &mut out);
        } else {
            untraced_legs(&mut legs, seconds, size, pp_seg, st_seg, s.sync, &mut out);
        }
    }
    out.attempted = legs.attempted;
    out.failed = legs.failed + fm.take_errors().len() as u64;
    out
}

/// Untraced: alternate one ping-pong segment and one stream segment for
/// the whole session, so both legs sample the same stretch of machine
/// weather; the first tenth is warm-up.
fn untraced_legs<D: NetDevice + 'static>(
    legs: &mut FmLegs<'_, D>,
    seconds: f64,
    size: usize,
    pp_seg: usize,
    st_seg: u64,
    sync: &Sync2,
    out: &mut RankOut,
) {
    out.pp = LatencyLeg::new(false);
    out.stream = ThroughputLeg::new(st_seg, st_seg * size as u64);
    let mut plan = RoundPlan::new(seconds);
    let mut round = Round::Warm;
    while round != Round::Stop {
        let pp = legs.pingpong(0.0, pp_seg, false);
        let st = legs.stream(size, 0.0, st_seg);
        if round == Round::Measure {
            out.pp.merge(pp);
            out.stream.seg_ns.extend(st.seg_ns);
        }
        if legs.rank == 0 {
            sync.round
                .store(plan.next(legs.failed > 0) as u64, Ordering::SeqCst);
        }
        round = if sync.rendezvous(deadline_for(0.0)) {
            Round::from_wire(sync.round.load(Ordering::SeqCst))
        } else {
            Round::Stop
        };
    }
}

/// Traced: the legs one after the other, so counters and spans belong to
/// one shape of traffic each — detached first (counters, tails, the
/// baseline for the overhead), then with the recorder attached.
fn traced_legs<D, S>(legs: &mut FmLegs<'_, TracedDevice<D>>, s: &Session<'_, S>, out: &mut RankOut)
where
    D: NetDevice + 'static,
    S: Fn(&D) -> DevSnap,
{
    let (fm, rank) = (legs.fm, legs.rank);
    let size = s.cfg.stream_bytes;
    let (pp_seg, st_seg) = (s.cfg.pp_seg_ops, s.cfg.stream_seg_ops);
    let pp_secs = s.opts.seconds * TRACED_LEG_SHARE * 0.3;
    let st_secs = s.opts.seconds * TRACED_LEG_SHARE * 0.25;

    legs.pingpong(pp_secs * WARMUP_SHARE, pp_seg, false);
    out.pp = legs.pingpong(pp_secs, pp_seg, true);

    legs.stream(size, st_secs * WARMUP_SHARE, st_seg);
    let before = fm.stats();
    let dev_before = fm.with_device(|d| (s.snap)(d.inner()));
    out.stream = legs.stream(size, st_secs, st_seg);
    out.stream_allocs = legs.stream_allocs;
    out.stream_stats = fm.stats().delta(&before);
    out.stream_dev = fm.with_device(|d| (s.snap)(d.inner())).since(&dev_before);

    trace::attach(rank, s.epoch);
    out.pp_traced = legs.pingpong(pp_secs, pp_seg, false);
    legs.stream(size, s.opts.seconds * TRACED_LEG_SHARE * 0.15, st_seg);
    out.recorder = trace::detach();
    out.dev_counts = Some(fm.with_device(|d| d.counts()));
    out.srtt_ns = fm.srtt_ns(1 - rank);
    out.rto_ns = fm.current_rto_ns(1 - rank);
}

/// Set the pair up once per session on one pair of rank threads (timing
/// each) and run the legs in every session that measures. `open` builds
/// a session's device pair; `snap` reads the device's own counters.
pub fn run_fm_pair<D, O, S>(opts: &Opts, cfg: FmPairCfg, open: O, snap: S) -> FmPairOutcome
where
    D: NetDevice + Join + Send + 'static,
    O: Fn(usize) -> std::io::Result<Vec<D>> + Sync,
    S: Fn(&D) -> DevSnap + Sync,
{
    let pat = Arc::new(Pattern::new(opts.seed, cfg.stream_bytes));
    let sync = Sync2::new();
    let epoch = Instant::now();
    let mut outcome = FmPairOutcome {
        stream: ThroughputLeg::new(
            cfg.stream_seg_ops,
            cfg.stream_seg_ops * cfg.stream_bytes as u64,
        ),
        ..FmPairOutcome::default()
    };
    let all = run_sessions(sessions(opts), open, |rank, session, dev, began| {
        let s = Session {
            cfg: cfg.clone(),
            opts: *opts,
            pat: &pat,
            sync: &sync,
            seconds: session_seconds(opts, session),
            epoch,
            snap: &snap,
        };
        let mut out = self::session(rank, dev, &s);
        out.began = Some(began);
        out
    });
    for mut outs in all {
        let since_began = |o: &RankOut, t: Option<Instant>| {
            t.zip(o.began)
                .map_or(0.0, |(t, b)| t.duration_since(b).as_secs_f64())
        };
        let setup = outs.iter().map(|o| since_began(o, o.ready));
        outcome.setup_s.push(setup.fold(0.0, f64::max));
        let open = outs.iter().map(|o| since_began(o, o.opened));
        outcome.open_ms.push(open.fold(0.0, f64::max) * 1e3);
        outcome.attempted += outs[0].attempted;
        outcome.failed += outs.iter().map(|o| o.failed).sum::<u64>();
        if outs[0].measured {
            // Segments of every measuring session go into one pool;
            // counters and spans come from the one traced session.
            outcome.stream_stats = outs.iter().map(|o| o.stream_stats).collect();
            outcome.stream_dev = outs.iter().map(|o| o.stream_dev).collect();
            outcome.stream_allocs = outs.iter().map(|o| o.stream_allocs).sum();
            outcome.dev_counts = outs.iter().filter_map(|o| o.dev_counts).collect();
            outcome.srtt_ns = outs[0].srtt_ns;
            outcome.rto_ns = outs[0].rto_ns;
            outcome.recorders = outs.iter_mut().filter_map(|o| o.recorder.take()).collect();
            let r1 = outs.pop().expect("rank 1");
            let r0 = outs.pop().expect("rank 0");
            outcome.pp.merge(r0.pp);
            outcome.pp_traced = r0.pp_traced;
            outcome.stream.seg_ns.extend(r1.stream.seg_ns);
        }
    }
    outcome
}
