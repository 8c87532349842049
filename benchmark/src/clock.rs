//! A software cycle reference for single-threaded, CPU-bound timings.
//!
//! On this class of machine each core's clock flips between its base and
//! its turbo frequency about once a second (measured here: 3.3 and
//! 4.0 GHz, each core on its own), so the same single-threaded work takes
//! a fifth longer or shorter from one stretch of a run to the next, and a
//! run's median lands wherever the flips happened to fall. A chain of
//! dependent integer multiplies takes a fixed number of core cycles per
//! step whatever else the machine is doing, so timing a known number of
//! steps against the wall clock reads the core's clock as it is right
//! now. A wall time multiplied by that reading is a cycle count; divided
//! by a fixed reference it reads as time again, but no longer depends on
//! which frequency the core happened to be at.
//!
//! Used by `sim_layering` only: one thread of pure computation, where
//! time really is cycles over clock. The two-thread workloads wait on
//! cache-line transfers and the kernel, which follow neither core's
//! clock; scaling them was tried and did not steady them, so they report
//! wall time as it is.

use std::hint::black_box;
use std::time::Instant;

/// Steps per probe: about 65 k cycles, some 20 us.
const STEPS: u64 = 16_384;

/// Steps per nanosecond at which normalised times are quoted: a 2 GHz
/// core on which a multiply takes three cycles and an xor one.
const REFERENCE_STEPS_PER_NS: f64 = 0.5;

/// `STEPS` dependent multiply-xor steps. The xor operand is opaque to
/// the compiler, so the chain cannot be folded into a closed form; each
/// step needs the previous one's result, so it cannot be overlapped.
fn chain() -> u64 {
    let salt = black_box(0x2545_F491_4F6C_DD1D_u64);
    let mut x = black_box(1u64);
    for _ in 0..STEPS {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    }
    black_box(x)
}

/// The calling core's speed right now, in chain steps per nanosecond:
/// the fastest of three probes (an interrupt can only slow a probe down).
pub fn steps_per_ns() -> f64 {
    let best_ns = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            chain();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    STEPS as f64 / best_ns.max(1.0)
}

/// Factor that turns a wall time measured between two speed readings
/// into the time the same cycles take at the reference speed.
pub fn to_reference(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / REFERENCE_STEPS_PER_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_a_plausible_speed_and_repeats() {
        let (a, b) = (steps_per_ns(), steps_per_ns());
        // 0.4-7 GHz at four cycles a step.
        assert!((0.1..1.75).contains(&a), "{a} steps/ns");
        assert!((a / b - 1.0).abs() < 0.5, "{a} then {b}");
        assert!((to_reference(0.5, 0.5) - 1.0).abs() < 1e-12);
    }
}
