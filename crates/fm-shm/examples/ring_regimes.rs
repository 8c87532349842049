//! What one frame costs a bare [`RawRing`] pair in the three regimes a
//! producer and a consumer on two cores can be in:
//!
//! * **free-running** — neither side does anything but push and pop;
//! * **producer paced** — the producer works between pushes, so the
//!   consumer is always caught up and polling an empty slot (the regime
//!   of every sender-bound leg: a ping-pong, a stream whose receiver
//!   keeps up);
//! * **consumer paced** — the consumer works between pops, so the ring
//!   stays full and the producer waits for slots.
//!
//! For the paced regimes the pace (the same spin loop timed alone) is
//! subtracted: what is left is what the ring adds to the paced side.
//!
//! ```bash
//! cargo run --release -p fm-shm --example ring_regimes
//! ```
//!

use std::time::{Duration, Instant};

use fm_shm::ring::RawRing;
use fm_shm::{SegGeometry, Segment, ShmConfig};

/// Frames per timed run.
const FRAMES: u64 = 200_000;
/// Spin-loop hints a paced side burns per frame.
const PACE_SPINS: u32 = 8;
/// Timed runs per row, taken in rounds over all rows so that every row
/// samples the same stretches of machine weather; the median is printed.
const TRIALS: usize = 25;

#[derive(Clone, Copy, PartialEq)]
enum Regime {
    FreeRunning,
    ProducerPaced,
    ConsumerPaced,
}

fn pace() {
    for _ in 0..PACE_SPINS {
        std::hint::spin_loop();
    }
}

/// Nanoseconds per frame to move `FRAMES` frames of `len` bytes through
/// one ring in `regime`, the consumer's clock.
fn run(tx: &RawRing, rx: &RawRing, len: usize, regime: Regime) -> f64 {
    let src = vec![0xA5u8; len];
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..FRAMES {
                let push = || {
                    tx.try_push(|slot| {
                        slot[..len].copy_from_slice(&src);
                        Some(len)
                    })
                };
                while push().is_none() {
                    std::hint::spin_loop();
                }
                if regime == Regime::ProducerPaced {
                    pace();
                }
            }
        });
        let mut dst = vec![0u8; len];
        let started = Instant::now();
        for _ in 0..FRAMES {
            while rx.try_pop(|f| dst.copy_from_slice(f)).is_none() {
                std::hint::spin_loop();
            }
            if regime == Regime::ConsumerPaced {
                pace();
            }
        }
        std::hint::black_box(&dst);
        started.elapsed().as_nanos() as f64 / FRAMES as f64
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() -> std::io::Result<()> {
    let cfg = ShmConfig::default();
    let geom = SegGeometry {
        slots: cfg.slots,
        payload: cfg.slot_payload,
    };
    let lo = Segment::create(&cfg.dir, &cfg.run_id, 0, 1, geom, 1)?;
    let hi = Segment::attach(&cfg.dir, &cfg.run_id, 0, 1, geom, Duration::from_secs(5))?;
    let pace_ns = median(
        (0..TRIALS)
            .map(|_| {
                let started = Instant::now();
                (0..FRAMES).for_each(|_| pace());
                started.elapsed().as_nanos() as f64 / FRAMES as f64
            })
            .collect(),
    );
    println!(
        "ring_regimes: {} slots x {} B, {FRAMES} frames a run, median of {TRIALS}, \
         {} cpus, pace {pace_ns:.0} ns",
        geom.slots,
        geom.payload,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    const REGIMES: [(&str, Regime); 3] = [
        ("free-running", Regime::FreeRunning),
        ("producer paced", Regime::ProducerPaced),
        ("consumer paced", Regime::ConsumerPaced),
    ];
    let rows: Vec<(usize, &str, Regime)> = [40usize, 1064]
        .iter()
        .flat_map(|&len| REGIMES.map(|(name, regime)| (len, name, regime)))
        .collect();
    let mut samples = vec![Vec::with_capacity(TRIALS); rows.len()];
    for _ in 0..TRIALS {
        for (row, &(len, _, regime)) in rows.iter().enumerate() {
            samples[row].push(run(&lo.tx, &hi.rx, len, regime));
        }
    }
    println!(
        "{:>8} {:>16} {:>14} {:>14}",
        "frame B", "regime", "ns/frame", "ring's share"
    );
    for (&(len, name, regime), ns) in rows.iter().zip(samples) {
        let ns = median(ns);
        let share = if regime == Regime::FreeRunning {
            ns
        } else {
            ns - pace_ns
        };
        println!("{len:>8} {name:>16} {ns:>14.1} {share:>14.1}");
    }
    Ok(())
}
