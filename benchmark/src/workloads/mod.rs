//! The six workloads. Each takes the run's [`Opts`] and returns a
//! [`RunResult`]: every end-to-end metric when untraced, the per-layer
//! metrics its traffic exercises when traced.

pub mod fm_pair;
pub mod mpi_shm_mix;
pub mod shm_bulk;
pub mod shm_small;
pub mod sim_layering;
pub mod udp;

use std::time::Instant;

use crate::report::RunResult;
use crate::Opts;

/// Untimed warm-up before measurement, as a share of the run's time.
pub const WARMUP_SHARE: f64 = 0.1;

/// Seconds of measurement one session of an untraced run gets. A run is
/// spread over many sessions — the device pair opened, joined and primed
/// afresh each time — for two reasons. Where a session's segment pages
/// and heap blocks happen to land moves the 16 B stream rate by a
/// quarter from one session to the next (measured here: 6.7-11.3 ms per
/// 16 Ki messages inside one process); measuring in one session makes
/// that luck the run's result, measuring in forty averages it inside the
/// run. And every session is one more `setup_s` sample.
const SESSION_SECONDS: f64 = 0.36;

/// Sessions a run of `opts.seconds` is spread over: odd, at least 3
/// (15 s: 43).
pub fn sessions(opts: &Opts) -> usize {
    ((opts.seconds / SESSION_SECONDS).ceil() as usize).max(3) | 1
}

/// How long session `session` measures for, or `None` when it only sets
/// up. Untraced: every session an equal share of the run. Traced: the
/// last session runs the whole traced plan, the others give set-up
/// samples.
pub fn session_seconds(opts: &Opts, session: usize) -> Option<f64> {
    let n = sessions(opts);
    if !opts.traced {
        Some(opts.seconds / n as f64)
    } else {
        (session + 1 == n).then_some(opts.seconds)
    }
}

/// What the next round of interleaved segments is for. The leading rank
/// decides and tells the other, so both file the round the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Round {
    /// No further round.
    Stop = 0,
    /// Run it, discard the samples.
    Warm = 1,
    /// Run it, keep the samples.
    Measure = 2,
}

impl Round {
    /// The round a wire value stands for (anything unknown stops).
    pub fn from_wire(v: u64) -> Round {
        match v {
            1 => Round::Warm,
            2 => Round::Measure,
            _ => Round::Stop,
        }
    }
}

/// The leading rank's clock for an untraced run: warm-up rounds for the
/// first tenth of `seconds`, then measured rounds until `seconds` more
/// have passed — and at least one measured round however short the run.
pub struct RoundPlan {
    started: Instant,
    seconds: f64,
    measured: u64,
}

impl RoundPlan {
    /// A plan starting now.
    pub fn new(seconds: f64) -> Self {
        RoundPlan {
            started: Instant::now(),
            seconds,
            measured: 0,
        }
    }

    /// What the next round is; `failed` ends the run early.
    pub fn next(&mut self, failed: bool) -> Round {
        let t = self.started.elapsed().as_secs_f64();
        if failed || (self.measured > 0 && t >= self.seconds * (1.0 + WARMUP_SHARE)) {
            Round::Stop
        } else if t >= self.seconds * WARMUP_SHARE {
            self.measured += 1;
            Round::Measure
        } else {
            Round::Warm
        }
    }
}

/// Run workload `name`; `None` when there is no such workload.
pub fn run(name: &str, opts: &Opts) -> Option<RunResult> {
    Some(match name {
        "shm_small" => shm_small::run(opts),
        "shm_bulk" => shm_bulk::run(opts),
        "mpi_shm_mix" => mpi_shm_mix::run(opts),
        "sim_layering" => sim_layering::run(opts),
        "udp_clean" => udp::run(opts, false),
        "udp_lossy" => udp::run(opts, true),
        _ => return None,
    })
}
