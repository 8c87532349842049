//! `shm_bulk`: `shmem-fm` over `fm-shm` — a seeded schedule of 64 KiB
//! and 256 KiB puts (rendezvous sizes), 64 KiB gets, and a small
//! put-and-quiet round trip for latency.
//!
//! Per-byte cost: `fm-core::onesided`, the ring copy-in/copy-out and the
//! buffer pool dominate; per-message cost is amortised away. Gets run
//! beside puts so that a put-only win that costs the read path shows.
//!
//! Rank 0 initiates everything; rank 1 only turns its engine, as a
//! one-sided target does. Every batch of puts is checked by rank 1
//! against the seeded pattern before its slots are reused; every get is
//! checked by rank 0. The checks sit outside the timed windows.

use std::sync::Arc;
use std::time::Instant;

use fm_core::device::NetDevice;
use fm_core::Fm2Engine;
use fm_model::rng::DetRng;
use fm_model::MachineProfile;
use shmem_fm::Shmem;

use crate::fabric::{run_sessions, shm_pair};
use crate::payload::{Pattern, HEADER_BYTES};
use crate::report::RunResult;
use crate::rungs;
use crate::stats::{median, LatencyLeg, ThroughputLeg};
use crate::trace::{self, Kind, Recorder, TracedDevice};
use crate::workloads::fm_pair::TRACED_LEG_SHARE;
use crate::workloads::{session_seconds, sessions, Round, RoundPlan};
use crate::{peak_rss_mb, Opts};

const KIB: usize = 1024;
/// Put slots: 16 of 256 KiB each, reused batch after batch.
const SLOTS: usize = 16;
const SLOT_BYTES: usize = 256 * KIB;
/// Get source area: 16 messages of 64 KiB, written once at set-up.
const GET_BYTES: usize = 64 * KIB;
const GET_AREA: usize = SLOTS * SLOT_BYTES;
/// Scratch for the small put of the latency leg.
const SCRATCH: usize = GET_AREA + SLOTS * GET_BYTES;
/// Command record rank 0 puts to rank 1 (`seq`, `kind`, `arg`), and the
/// reply record rank 1 puts back (`seq`, `ok`).
const COMMAND: usize = SCRATCH + 64;
const REPLY: usize = COMMAND + 64;
const HEAP_BYTES: usize = REPLY + 64;

/// Operation ids of the get-area messages (disjoint from put ids).
const GET_OP_BASE: u64 = 1 << 40;

/// Sizes of one batch of puts, before the seeded shuffle: twelve 64 KiB
/// and four 256 KiB.
const BATCH_SIZES: [usize; SLOTS] = {
    let mut s = [64 * KIB; SLOTS];
    let mut i = 12;
    while i < SLOTS {
        s[i] = 256 * KIB;
        i += 1;
    }
    s
};
const BATCH_BYTES: u64 = (12 * 64 * KIB + 4 * 256 * KIB) as u64;

/// Batches per put segment, gets per get segment, small puts per
/// latency segment.
const BATCHES_PER_SEG: u64 = 4;
const GETS_PER_SEG: u64 = 32;
const SMALL_PER_SEG: usize = 512;
/// Small puts and gets of the set-up priming (plus one batch of puts).
const PRIME_SMALL: usize = 64;
const PRIME_GETS: u64 = 4;

const CMD_VERIFY_BATCH: u64 = 1;
const CMD_VERIFY_SCRATCH: u64 = 2;
const CMD_STOP: u64 = 3;

fn u64_at(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
}

/// Which puts a leg issues.
#[derive(Clone, Copy, PartialEq)]
enum PutMix {
    /// The seeded 64 KiB / 256 KiB batch.
    Mixed,
    /// Sixteen puts of one size (traced runs, per-size rates).
    Only(usize),
}

struct Initiator<'a, D: NetDevice + 'static> {
    sh: &'a Shmem<D>,
    pat: &'a Pattern,
    /// Shuffles the put batches; the target replays it draw for draw.
    rng: DetRng,
    /// Picks get slots; the initiator's alone.
    get_rng: DetRng,
    /// One send buffer per slot, filled before each batch is timed.
    bufs: Vec<Vec<u8>>,
    cmd_seq: u64,
    next_put_op: u64,
    next_small_op: u64,
    attempted: u64,
    failed: u64,
    deadline: Instant,
}

impl<D: NetDevice + 'static> Initiator<'_, D> {
    /// Send a command to the target and wait for its verdict.
    fn command(&mut self, kind: u64, arg: u64) -> bool {
        self.cmd_seq += 1;
        let mut rec = [0u8; 24];
        rec[0..8].copy_from_slice(&self.cmd_seq.to_le_bytes());
        rec[8..16].copy_from_slice(&kind.to_le_bytes());
        rec[16..24].copy_from_slice(&arg.to_le_bytes());
        self.sh.put(1, COMMAND, &rec);
        self.sh.quiet();
        let mut polls = 0u32;
        loop {
            self.sh.progress();
            let reply = self.sh.local_read(REPLY, 16);
            if u64_at(&reply, 0) == self.cmd_seq {
                return u64_at(&reply, 1) == 1;
            }
            polls += 1;
            if polls % 1024 == 0 && Instant::now() >= self.deadline {
                return false;
            }
        }
    }

    /// One segment of the latency leg: small put + quiet, timed per
    /// round; the last one is checked by the target.
    fn small_segment(&mut self, leg: &mut LatencyLeg, rounds: usize) {
        let mut seg = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let op = self.next_small_op;
            trace::set_op(op);
            let msg = self.pat.header(op, HEADER_BYTES);
            let t0 = Instant::now();
            trace::span(Kind::ShmemPut, || self.sh.put(1, SCRATCH, &msg));
            trace::span(Kind::ShmemQuiet, || self.sh.quiet());
            seg.push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
            self.next_small_op += 1;
        }
        self.attempted += rounds as u64;
        if !self.command(CMD_VERIFY_SCRATCH, self.next_small_op - 1) {
            self.failed += 1;
        }
        leg.push_segment(&mut seg);
    }

    /// One segment of puts: `batches` batches, each timed from its first
    /// put to `quiet`, then checked by the target.
    fn put_segment(&mut self, mix: PutMix, leg: &mut ThroughputLeg, batches: u64) {
        let mut timed_ns = 0u64;
        for _ in 0..batches {
            let mut sizes = match mix {
                PutMix::Mixed => BATCH_SIZES,
                PutMix::Only(size) => [size; SLOTS],
            };
            self.rng.shuffle(&mut sizes);
            let base = self.next_put_op;
            // `Shmem::put` takes one buffer: assemble header and body
            // before the clock starts.
            for (slot, &size) in sizes.iter().enumerate() {
                self.pat
                    .fill(base + slot as u64, &mut self.bufs[slot][..size]);
            }
            let t0 = Instant::now();
            for (slot, &size) in sizes.iter().enumerate() {
                trace::set_op(base + slot as u64);
                let msg = &self.bufs[slot][..size];
                trace::span(Kind::ShmemPut, || self.sh.put(1, slot * SLOT_BYTES, msg));
            }
            trace::span(Kind::ShmemQuiet, || self.sh.quiet());
            timed_ns += t0.elapsed().as_nanos() as u64;
            self.next_put_op += SLOTS as u64;
            self.attempted += SLOTS as u64;
            // The target needs the sizes to check the slots: they follow
            // from the same seeded shuffle, replayed there.
            if !self.command(CMD_VERIFY_BATCH, base) {
                self.failed += SLOTS as u64;
            }
            self.failed += self.sh.take_put_failures().len() as u64;
        }
        leg.seg_ns.push(timed_ns as f64);
    }

    /// One segment of `gets` blocking 64 KiB gets, each timed, each
    /// checked here.
    fn get_segment(&mut self, leg: &mut ThroughputLeg, gets: u64) {
        let mut timed_ns = 0u64;
        for i in 0..gets {
            let slot = self.get_rng.below(SLOTS as u64) as usize;
            trace::set_op(GET_OP_BASE + i);
            let t0 = Instant::now();
            let data = trace::span(Kind::ShmemGet, || {
                self.sh.get(1, GET_AREA + slot * GET_BYTES, GET_BYTES)
            });
            timed_ns += t0.elapsed().as_nanos() as u64;
            self.attempted += 1;
            if !self.pat.check(GET_OP_BASE + slot as u64, &data) {
                self.failed += 1;
            }
        }
        leg.seg_ns.push(timed_ns as f64);
    }
}

/// The target: turn the engine, obey commands until told to stop.
/// Returns checks failed.
fn target<D: NetDevice + 'static>(
    sh: &Shmem<D>,
    pat: &Pattern,
    seed: u64,
    mixes: &[PutMix],
    deadline: Instant,
) -> u64 {
    // Replays the initiator's shuffles: same seed, same draw order.
    let mut rng = DetRng::seed_from_u64(seed);
    let mut mix_cursor = 0usize;
    let mut seen = 0u64;
    let mut failed = 0u64;
    let mut polls = 0u32;
    loop {
        sh.progress();
        polls += 1;
        if polls % 8 != 0 {
            continue;
        }
        if polls % 8192 == 0 && Instant::now() >= deadline {
            return failed + 1;
        }
        let cmd = sh.local_read(COMMAND, 24);
        if u64_at(&cmd, 0) == seen {
            continue;
        }
        seen = u64_at(&cmd, 0);
        let arg = u64_at(&cmd, 2);
        let ok = match u64_at(&cmd, 1) {
            CMD_VERIFY_BATCH => {
                let mut sizes = match mixes[mix_cursor.min(mixes.len() - 1)] {
                    PutMix::Mixed => BATCH_SIZES,
                    PutMix::Only(size) => [size; SLOTS],
                };
                rng.shuffle(&mut sizes);
                sizes.iter().enumerate().all(|(slot, &size)| {
                    pat.check(arg + slot as u64, &sh.local_read(slot * SLOT_BYTES, size))
                })
            }
            CMD_VERIFY_SCRATCH => pat.check(arg, &sh.local_read(SCRATCH, HEADER_BYTES)),
            CMD_STOP => {
                // `arg` > 0: a mix boundary, not the end.
                if arg > 0 {
                    mix_cursor += 1;
                    true
                } else {
                    reply(sh, seen, true);
                    return failed;
                }
            }
            _ => false,
        };
        failed += u64::from(!ok);
        reply(sh, seen, ok);
    }
}

fn reply<D: NetDevice + 'static>(sh: &Shmem<D>, seq: u64, ok: bool) {
    let mut rec = [0u8; 16];
    rec[0..8].copy_from_slice(&seq.to_le_bytes());
    rec[8..16].copy_from_slice(&u64::from(ok).to_le_bytes());
    sh.put(0, REPLY, &rec);
    sh.quiet();
}

#[derive(Default)]
struct RankOut {
    setup_s: f64,
    attempted: u64,
    failed: u64,
    small: LatencyLeg,
    puts: ThroughputLeg,
    gets: ThroughputLeg,
    puts_64k: ThroughputLeg,
    puts_256k: ThroughputLeg,
    recorder: Option<Recorder>,
}

fn put_leg(bytes_per_batch: u64) -> ThroughputLeg {
    ThroughputLeg::new(
        BATCHES_PER_SEG * SLOTS as u64,
        BATCHES_PER_SEG * bytes_per_batch,
    )
}

fn get_leg() -> ThroughputLeg {
    ThroughputLeg::new(GETS_PER_SEG, GETS_PER_SEG * GET_BYTES as u64)
}

fn session(
    rank: usize,
    dev: TracedDevice<fm_shm::ShmDevice>,
    began: Instant,
    opts: &Opts,
    pat: &Pattern,
    seconds: Option<f64>,
    epoch: Instant,
) -> RankOut {
    let mut out = RankOut::default();
    let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
    let sh = Shmem::new(fm.clone(), HEAP_BYTES);
    let deadline = crate::legs::deadline_for(opts.seconds);
    // The traced run walks through three put mixes; the target replays
    // them in the same order.
    let mixes: &[PutMix] = if seconds.is_some() && opts.traced {
        &[
            PutMix::Mixed,
            PutMix::Only(64 * KIB),
            PutMix::Only(256 * KIB),
            PutMix::Mixed,
        ]
    } else {
        &[PutMix::Mixed]
    };
    if rank == 1 {
        for slot in 0..SLOTS {
            sh.local_write(
                GET_AREA + slot * GET_BYTES,
                &pat.message(GET_OP_BASE + slot as u64, GET_BYTES),
            );
        }
        sh.barrier_all();
        out.setup_s = began.elapsed().as_secs_f64();
        out.failed = target(&sh, pat, opts.seed, mixes, deadline);
        out.failed += fm.take_errors().len() as u64;
        return out;
    }

    sh.barrier_all();
    let mut ini = Initiator {
        sh: &sh,
        pat,
        rng: DetRng::seed_from_u64(opts.seed),
        get_rng: DetRng::seed_from_u64(opts.seed ^ 0x6765_7473),
        bufs: vec![vec![0u8; SLOT_BYTES]; SLOTS],
        cmd_seq: 0,
        next_put_op: 0,
        next_small_op: 0,
        attempted: 0,
        failed: 0,
        deadline,
    };
    // Prime: every path once, so rendezvous state, pools and the
    // scratch registration cache are warm when set-up counts as done.
    let (mut small, mut puts, mut gets) = (LatencyLeg::new(false), put_leg(BATCH_BYTES), get_leg());
    ini.small_segment(&mut small, PRIME_SMALL);
    ini.put_segment(PutMix::Mixed, &mut puts, 1);
    ini.get_segment(&mut gets, PRIME_GETS);
    out.setup_s = began.elapsed().as_secs_f64();

    if let (Some(seconds), false) = (seconds, opts.traced) {
        // One segment of each leg in turn for the whole session; the
        // first tenth is warm-up.
        out.small = LatencyLeg::new(false);
        out.puts = put_leg(BATCH_BYTES);
        out.gets = get_leg();
        let mut warm = (LatencyLeg::new(false), put_leg(BATCH_BYTES), get_leg());
        let mut plan = RoundPlan::new(seconds);
        let mut round = Round::Warm;
        while round != Round::Stop {
            let (s, p, g) = if round == Round::Measure {
                (&mut out.small, &mut out.puts, &mut out.gets)
            } else {
                (&mut warm.0, &mut warm.1, &mut warm.2)
            };
            ini.small_segment(s, SMALL_PER_SEG);
            ini.put_segment(PutMix::Mixed, p, BATCHES_PER_SEG);
            ini.get_segment(g, GETS_PER_SEG);
            round = plan.next(ini.failed > 0);
        }
    } else if let Some(seconds) = seconds {
        // Traced: each leg on its own, detached then attached.
        let leg_secs = seconds * TRACED_LEG_SHARE / 6.0;
        let timed = |f: &mut dyn FnMut()| {
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < leg_secs {
                f();
            }
        };
        out.small = LatencyLeg::new(true);
        out.puts = put_leg(BATCH_BYTES);
        out.gets = get_leg();
        out.puts_64k = put_leg((SLOTS * 64 * KIB) as u64);
        out.puts_256k = put_leg((SLOTS * 256 * KIB) as u64);
        timed(&mut || ini.small_segment(&mut out.small, SMALL_PER_SEG));
        timed(&mut || ini.put_segment(PutMix::Mixed, &mut out.puts, BATCHES_PER_SEG));
        timed(&mut || ini.get_segment(&mut out.gets, GETS_PER_SEG));
        ini.command(CMD_STOP, 1);
        timed(&mut || ini.put_segment(PutMix::Only(64 * KIB), &mut out.puts_64k, BATCHES_PER_SEG));
        ini.command(CMD_STOP, 1);
        timed(&mut || {
            ini.put_segment(PutMix::Only(256 * KIB), &mut out.puts_256k, BATCHES_PER_SEG)
        });
        ini.command(CMD_STOP, 1);
        trace::attach(rank, epoch);
        let mut scratch = (LatencyLeg::new(false), put_leg(BATCH_BYTES), get_leg());
        timed(&mut || {
            ini.small_segment(&mut scratch.0, SMALL_PER_SEG);
            ini.put_segment(PutMix::Mixed, &mut scratch.1, BATCHES_PER_SEG);
            ini.get_segment(&mut scratch.2, GETS_PER_SEG);
        });
        out.recorder = trace::detach();
    }
    if !ini.command(CMD_STOP, 0) {
        ini.failed += 1;
    }
    out.attempted = ini.attempted;
    out.failed = ini.failed + fm.take_errors().len() as u64;
    out
}

/// Run the workload.
pub fn run(opts: &Opts) -> RunResult {
    let pat = Arc::new(Pattern::new(opts.seed, SLOT_BYTES));
    let epoch = Instant::now();
    let all = run_sessions(
        sessions(opts),
        |_| shm_pair("shm_bulk"),
        |rank, n, dev, began| {
            session(
                rank,
                dev,
                began,
                opts,
                &pat,
                session_seconds(opts, n),
                epoch,
            )
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
    // Rank 0 initiated everything. Segments of every measuring session
    // go into one pool; the traced extras are the last session's.
    let mut rank0: Vec<RankOut> = all
        .into_iter()
        .map(|mut ranks| ranks.swap_remove(0))
        .collect();
    let mut o = rank0.pop().expect("at least one session");
    for earlier in rank0 {
        o.small.merge(earlier.small);
        o.puts.seg_ns.extend(earlier.puts.seg_ns);
        o.gets.seg_ns.extend(earlier.gets.seg_ns);
    }
    if !opts.traced {
        r.set("setup_s", median(&setups), setups.len() as u64);
        r.set("oneway_p50_us", o.small.p50_ns() / 2e3, o.small.samples);
        r.set("msg_rate_kps", o.gets.ops_per_ms(), o.gets.ops());
        r.set("goodput_mbps", o.puts.mbps(), o.puts.ops());
        r.set("peak_rss_mb", peak_rss_mb(), 1);
        return r;
    }

    r.set("shmem-fm.put_64k_mbps", o.puts_64k.mbps(), o.puts_64k.ops());
    r.set(
        "shmem-fm.put_256k_mbps",
        o.puts_256k.mbps(),
        o.puts_256k.ops(),
    );
    r.set("shmem-fm.get_64k_mbps", o.gets.mbps(), o.gets.ops());
    r.set_tails(&o.small, 2e3);
    r.set_fail_share();
    r.set(
        "fm-shm.setup_ms",
        median(&setups) * 1e3,
        setups.len() as u64,
    );
    if let Some(rec) = &o.recorder {
        let quiet = rec.agg(Kind::ShmemQuiet);
        let get = rec.agg(Kind::ShmemGet);
        r.notes.push(format!(
            "spans (traced legs): shmem.put mean {:.0} ns x{}, shmem.quiet mean {:.0} ns x{}, shmem.get mean {:.0} ns x{}, dev.send mean {:.0} ns, dev.recv mean {:.0} ns",
            rec.agg(Kind::ShmemPut).mean_total_ns(),
            rec.agg(Kind::ShmemPut).count,
            quiet.mean_total_ns(),
            quiet.count,
            get.mean_total_ns(),
            get.count,
            rec.agg(Kind::DevSend).mean_total_ns(),
            rec.agg(Kind::DevRecv).mean_total_ns(),
        ));
    }
    r.set_device_spans(
        o.recorder.as_slice(),
        "fm-shm.dev_send_ns",
        "fm-shm.dev_recv_ns",
    );
    crate::write_chrome_trace("shm_bulk", opts.seed, o.recorder.as_slice(), &mut r);

    // Rungs: the machine's copy rate, the bare ring, bare one-sided
    // puts and gets under shmem, and sockets beside an FM stream.
    let rung_secs = opts.seconds * (1.0 - TRACED_LEG_SHARE) / 8.0;
    rungs::memcpy_baseline(&mut r, rung_secs);
    let memcpy_64k = r.get("raw.memcpy_64k_mbps").unwrap_or(0.0);
    r.set(
        "fm-shm.ring_stream_2k_mbps",
        rungs::ring_stream_2k_mbps(rung_secs),
        1,
    );
    let os = rungs::onesided_rungs(
        || shm_pair("rung-os").expect("open shm pair"),
        &pat,
        rung_secs,
    );
    r.count(0, os.failed);
    r.set("fm-core.onesided.put_64k_mbps", os.put_64k_mbps, 1);
    r.set("fm-core.onesided.put_256k_mbps", os.put_256k_mbps, 1);
    r.set("fm-core.onesided.get_64k_mbps", os.get_64k_mbps, 1);
    r.set(
        "fm-core.onesided.copied_per_payload_byte",
        os.copied_per_payload_byte,
        1,
    );
    r.set(
        "fm-core.onesided.ctrl_msgs_per_put",
        os.ctrl_msgs_per_put,
        1,
    );
    r.set("fm-core.onesided.progress_self_ns", os.progress_self_ns, 1);
    r.set(
        "fm-shm.full_rejections_per_kmsg",
        os.full_rejections_per_kmsg,
        1,
    );
    r.set(
        "fm-shm.wire_bytes_per_payload_byte",
        os.wire_bytes_per_payload_byte,
        1,
    );
    r.set("fm-core.buf.pool_miss_share", os.pool_miss_share, 1);
    r.set(
        "shmem-fm.put_over_onesided",
        o.puts_64k.mbps() / os.put_64k_mbps.max(1e-9),
        1,
    );
    r.set(
        "shmem-fm.get_over_onesided",
        o.gets.mbps() / os.get_64k_mbps.max(1e-9),
        1,
    );
    let sock = rungs::sockets_rung(
        || shm_pair("rung-sock").expect("open shm pair"),
        &pat,
        rung_secs,
    );
    r.count(0, sock.failed);
    r.set("sockets-fm.stream_64k_over_fm", sock.over_fm, 1);
    r.set(
        "sockets-fm.buffered_high_water",
        sock.buffered_high_water as f64,
        1,
    );
    r.notes.push(format!(
        "shmem mixed puts {:.0} MB/s = {:.2} of raw 64 KiB memcpy {memcpy_64k:.0} MB/s",
        o.puts.mbps(),
        o.puts.mbps() / memcpy_64k.max(1e-9),
    ));
    r
}
