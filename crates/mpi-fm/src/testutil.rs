//! Cross-transport collective conformance script.
//!
//! One script, three transports: the in-process threaded pair, the
//! deterministic myrinet simulator, and the multi-process UDP cluster
//! all execute the *same* sequence of collectives with the *same*
//! per-rank inputs, and their digests must match the pure-model
//! [`expected_outputs`] bit for bit. Keeping the script here — inside
//! `mpi-fm`, used by every transport's test — is what stops the sim and
//! UDP conformance batteries from drifting apart.
//!
//! All floating-point contributions are integer-valued, so every
//! summation order (binomial tree, ring, naive left fold in the
//! expected model) produces the exact same bits; determinism checks
//! compare full digest strings.

use crate::api::{drive, Mpi, ReduceOp};
use crate::sched::Sched;

/// Payload length of the small broadcasts.
pub const SMALL_BCAST_LEN: usize = 97;
/// Payload length of the large (pipelined-path) steps: 256 KiB.
pub const LARGE_LEN: usize = 256 * 1024;
/// Elements in the large allreduce (`LARGE_LEN / 8` f64s).
pub const LARGE_ELEMS: usize = LARGE_LEN / 8;

/// Deterministic byte pattern used for broadcast payloads.
pub fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (((i as u64).wrapping_mul(7).wrapping_add(13)) as u8) ^ salt)
        .collect()
}

/// FNV-1a, the digest used in script outputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn f64s(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn u64s(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

// Per-rank contributions: pure functions of (rank, size), integer-valued
// so reduction order can't perturb bits.

fn sumf64_contrib(rank: usize) -> Vec<u8> {
    f64s(&[(rank + 1) as f64, (rank * rank + 3) as f64])
}

fn sumu64_contrib(rank: usize) -> Vec<u8> {
    u64s(&[(rank as u64) * 2 + 1, 1u64 << (rank as u64 % 60)])
}

fn maxf64_contrib(rank: usize) -> Vec<u8> {
    f64s(&[(rank as f64) * 3.0 - 5.0, -(rank as f64)])
}

fn gather_contrib(rank: usize) -> Vec<u8> {
    vec![rank as u8; rank + 1]
}

fn scatter_chunks(size: usize) -> Vec<Vec<u8>> {
    (0..size).map(|j| vec![(j * 17 + 3) as u8; 4 + j]).collect()
}

fn large_sumf64_contrib(rank: usize) -> Vec<u8> {
    f64s(
        &(0..LARGE_ELEMS)
            .map(|j| ((j % 91 + 1) * (rank + 1)) as f64)
            .collect::<Vec<f64>>(),
    )
}

/// Number of script steps for the given flavor.
pub fn script_len(large: bool) -> usize {
    if large {
        12
    } else {
        9
    }
}

/// What every rank must output for every script step — the pure model
/// the transports are checked against.
pub fn expected_outputs(rank: usize, size: usize, large: bool) -> Vec<String> {
    let mut out = Vec::new();
    out.push("barrier ok".into());
    out.push(format!(
        "bcast r0 {:016x}",
        fnv64(&pattern(SMALL_BCAST_LEN, 0))
    ));
    // SumF64: naive fold equals any order (integer-valued).
    let s1: f64 = (0..size).map(|r| (r + 1) as f64).sum();
    let s2: f64 = (0..size).map(|r| (r * r + 3) as f64).sum();
    out.push(format!("allreduce_sumf64 {:016x}", fnv64(&f64s(&[s1, s2]))));
    let u1: u64 = (0..size).fold(0u64, |a, r| a.wrapping_add((r as u64) * 2 + 1));
    let u2: u64 = (0..size).fold(0u64, |a, r| a.wrapping_add(1u64 << (r as u64 % 60)));
    out.push(format!("allreduce_sumu64 {:016x}", fnv64(&u64s(&[u1, u2]))));
    let last = size - 1;
    out.push(format!(
        "bcast r{last} {:016x}",
        fnv64(&pattern(SMALL_BCAST_LEN, last as u8))
    ));
    if rank == 0 {
        let mut all = Vec::new();
        for r in 0..size {
            let b = gather_contrib(r);
            all.extend_from_slice(&(b.len() as u32).to_le_bytes());
            all.extend_from_slice(&b);
        }
        out.push(format!("gather {:016x}", fnv64(&all)));
    } else {
        out.push("gather -".into());
    }
    out.push(format!(
        "scatter {:016x}",
        fnv64(&scatter_chunks(size)[rank])
    ));
    let m1 = (0..size)
        .map(|r| (r as f64) * 3.0 - 5.0)
        .fold(f64::MIN, f64::max);
    let m2 = (0..size).map(|r| -(r as f64)).fold(f64::MIN, f64::max);
    out.push(format!("allreduce_maxf64 {:016x}", fnv64(&f64s(&[m1, m2]))));
    out.push("barrier ok".into());
    if large {
        out.push(format!(
            "bcast_large {:016x}",
            fnv64(&pattern(LARGE_LEN, 0xA5))
        ));
        let rank_sum: usize = (0..size).map(|r| r + 1).sum();
        let big: Vec<f64> = (0..LARGE_ELEMS)
            .map(|j| ((j % 91 + 1) * rank_sum) as f64)
            .collect();
        out.push(format!("allreduce_large {:016x}", fnv64(&f64s(&big))));
        out.push("barrier ok".into());
    }
    out
}

/// Poll-driven executor of the conformance script.
///
/// Blocking transports call [`run_blocking`](Self::run_blocking);
/// discrete-event simulations call [`poll`](Self::poll) from their step
/// functions until it returns `true`, then read
/// [`outputs`](Self::outputs).
pub struct ScriptRunner {
    large: bool,
    /// The step in flight and the label its output line starts with.
    active: Option<(Sched, String)>,
    out: Vec<String>,
}

impl ScriptRunner {
    /// A runner for the small script, plus the 256 KiB pipelined steps
    /// when `large` is set.
    pub fn new(large: bool) -> Self {
        ScriptRunner {
            large,
            active: None,
            out: Vec::new(),
        }
    }

    /// Outputs produced so far (complete once `poll` returned `true`).
    pub fn outputs(&self) -> &[String] {
        &self.out
    }

    /// Consume the runner, returning all outputs.
    pub fn into_outputs(self) -> Vec<String> {
        self.out
    }

    /// Advance the script; `true` once every step has completed.
    pub fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M) -> bool {
        loop {
            let step = self.out.len();
            let Some((sched, label)) = &mut self.active else {
                if step >= script_len(self.large) {
                    return true;
                }
                self.active = Some(Self::start(mpi, step));
                continue;
            };
            if !sched.poll(mpi) {
                return false;
            }
            let line = match label.as_str() {
                "barrier" => "barrier ok".into(),
                "gather" => match sched.take_parts() {
                    parts if parts.is_empty() => "gather -".into(),
                    parts => {
                        let mut all = Vec::new();
                        for b in &parts {
                            all.extend_from_slice(&(b.len() as u32).to_le_bytes());
                            all.extend_from_slice(b);
                        }
                        format!("gather {:016x}", fnv64(&all))
                    }
                },
                _ => format!("{label} {:016x}", fnv64(&sched.take_result())),
            };
            self.out.push(line);
            self.active = None;
        }
    }

    /// The schedule of script step `step` and its label.
    fn start<M: Mpi + ?Sized>(mpi: &mut M, step: usize) -> (Sched, String) {
        let (rank, size) = (mpi.rank(), mpi.size());
        let last = size - 1;
        let allreduce = |mpi: &mut M, contrib: Vec<u8>, op, label: &str| {
            (Sched::allreduce(mpi, &contrib, op), label.to_string())
        };
        match step {
            0 | 8 | 11 => (Sched::barrier(mpi), "barrier".into()),
            1 => {
                let data = (rank == 0).then(|| pattern(SMALL_BCAST_LEN, 0));
                (
                    Sched::bcast(mpi, 0, data, SMALL_BCAST_LEN),
                    "bcast r0".into(),
                )
            }
            2 => allreduce(
                mpi,
                sumf64_contrib(rank),
                ReduceOp::SumF64,
                "allreduce_sumf64",
            ),
            3 => allreduce(
                mpi,
                sumu64_contrib(rank),
                ReduceOp::SumU64,
                "allreduce_sumu64",
            ),
            4 => {
                let data = (rank == last).then(|| pattern(SMALL_BCAST_LEN, last as u8));
                let bcast = Sched::bcast(mpi, last, data, SMALL_BCAST_LEN);
                (bcast, format!("bcast r{last}"))
            }
            5 => (
                Sched::gather(mpi, 0, gather_contrib(rank), size),
                "gather".into(),
            ),
            6 => {
                let chunks = (rank == last).then(|| scatter_chunks(size));
                (
                    Sched::scatter(mpi, last, chunks, 4 + size),
                    "scatter".into(),
                )
            }
            7 => allreduce(
                mpi,
                maxf64_contrib(rank),
                ReduceOp::MaxF64,
                "allreduce_maxf64",
            ),
            9 => {
                let data = (rank == 0).then(|| pattern(LARGE_LEN, 0xA5));
                (Sched::bcast(mpi, 0, data, LARGE_LEN), "bcast_large".into())
            }
            10 => allreduce(
                mpi,
                large_sumf64_contrib(rank),
                ReduceOp::SumF64,
                "allreduce_large",
            ),
            _ => unreachable!("script step {step}"),
        }
    }

    /// Run the whole script with blocking `poll`+`progress` spinning
    /// (threaded and UDP transports), under the wait of the blocking
    /// collectives, which a lost peer or a panicked rank ends; returns
    /// the outputs.
    pub fn run_blocking<M: Mpi>(mpi: &mut M, large: bool) -> Vec<String> {
        let mut runner = ScriptRunner::new(large);
        drive(mpi, "conformance script", |m| runner.poll(m));
        runner.into_outputs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_outputs_have_one_line_per_step() {
        for size in 1..6 {
            for rank in 0..size {
                assert_eq!(expected_outputs(rank, size, false).len(), script_len(false));
                assert_eq!(expected_outputs(rank, size, true).len(), script_len(true));
            }
        }
    }

    #[test]
    fn ranks_agree_except_gather_and_scatter() {
        let a = expected_outputs(0, 4, true);
        let b = expected_outputs(2, 4, true);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            // Step 5 is gather (root-only result), step 6 scatter
            // (per-rank chunk); everything else is identical everywhere.
            if i == 5 || i == 6 {
                assert_ne!(x, y, "step {i}");
            } else {
                assert_eq!(x, y, "step {i}");
            }
        }
    }
}
