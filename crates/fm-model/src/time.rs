//! Virtual time and bandwidth arithmetic.
//!
//! All simulated time in the workspace is integer nanoseconds. Integer time
//! keeps the discrete-event simulation exactly deterministic (no FP rounding
//! drift between runs or platforms) and nanoseconds are fine-grained enough
//! to resolve single-word PIO writes (~tens of ns on 1998 I/O buses).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) virtual time, in nanoseconds.
///
/// `Nanos` is used both as an instant (time since simulation start) and as a
/// duration; the arithmetic is the same and the simulator never needs wall
/// anchoring.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero time.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Construct from (possibly fractional) microseconds, rounding to ns.
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        Nanos((us * 1_000.0).round() as u64)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This time expressed in microseconds (lossy).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time expressed in seconds (lossy).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: durations never go negative.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.min(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A transfer rate.
///
/// Stored as bytes per second; the paper quotes MB/s (decimal megabytes,
/// 10^6 bytes, as was conventional for network numbers in 1998), so the
/// constructors and accessors use that convention.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth { bytes_per_sec: 0.0 };

    /// From decimal megabytes per second (the paper's unit).
    #[inline]
    pub fn from_mbps(mb_per_sec: f64) -> Self {
        Bandwidth {
            bytes_per_sec: mb_per_sec * 1.0e6,
        }
    }

    /// From megabits per second (network-link unit, e.g. "100 Mbit/s").
    #[inline]
    pub fn from_mbit_per_sec(mbit: f64) -> Self {
        Bandwidth {
            bytes_per_sec: mbit * 1.0e6 / 8.0,
        }
    }

    /// From raw bytes per second.
    #[inline]
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        Bandwidth { bytes_per_sec: bps }
    }

    /// Bandwidth achieved by moving `bytes` in `elapsed` time.
    ///
    /// Returns [`Bandwidth::ZERO`] for zero elapsed time.
    #[inline]
    pub fn from_transfer(bytes: u64, elapsed: Nanos) -> Self {
        if elapsed == Nanos::ZERO {
            Bandwidth::ZERO
        } else {
            Bandwidth {
                bytes_per_sec: bytes as f64 / elapsed.as_secs_f64(),
            }
        }
    }

    /// In decimal megabytes per second.
    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.bytes_per_sec / 1.0e6
    }

    /// Time to move `bytes` at this rate, rounded up to whole nanoseconds.
    ///
    /// # Panics
    /// Panics if the bandwidth is zero (a transfer at zero rate never
    /// completes; callers must special-case that).
    #[inline]
    pub fn time_for(self, bytes: u64) -> Nanos {
        assert!(
            self.bytes_per_sec > 0.0,
            "time_for on zero bandwidth never completes"
        );
        let secs = bytes as f64 / self.bytes_per_sec;
        Nanos((secs * 1.0e9).ceil() as u64)
    }

    /// Per-byte transfer cost in (possibly fractional) nanoseconds.
    #[inline]
    pub fn ns_per_byte(self) -> f64 {
        assert!(self.bytes_per_sec > 0.0);
        1.0e9 / self.bytes_per_sec
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} MB/s", self.as_mbps())
    }
}

/// Integer cost of transferring `bytes` at a rate expressed as nanoseconds
/// per kilobyte.
///
/// The simulator stores per-byte rates as ns-per-KB integers so that event
/// timestamps stay exactly reproducible; this helper does the rounding in
/// one place (round-to-nearest, minimum of 0).
#[inline]
pub fn ns_for_bytes(ns_per_kb: u64, bytes: u64) -> Nanos {
    // Round to nearest to keep long transfers accurate.
    Nanos((ns_per_kb * bytes + 512) / 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_us(3), Nanos::from_ns(3_000));
        assert_eq!(Nanos::from_ms(2), Nanos::from_ns(2_000_000));
        assert_eq!(Nanos::from_us_f64(1.5), Nanos::from_ns(1_500));
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_ns(100);
        let b = Nanos::from_ns(40);
        assert_eq!(a + b, Nanos::from_ns(140));
        assert_eq!(a - b, Nanos::from_ns(60));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a * 3, Nanos::from_ns(300));
        assert_eq!(a / 4, Nanos::from_ns(25));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn nanos_sum_and_display() {
        let total: Nanos = [Nanos::from_ns(1), Nanos::from_ns(2)].into_iter().sum();
        assert_eq!(total, Nanos::from_ns(3));
        assert_eq!(format!("{}", Nanos::from_ns(5)), "5ns");
        assert_eq!(format!("{}", Nanos::from_us(5)), "5.000us");
        assert_eq!(format!("{}", Nanos::from_ms(5)), "5.000ms");
    }

    #[test]
    fn bandwidth_round_trip() {
        let bw = Bandwidth::from_mbps(17.6);
        assert!((bw.as_mbps() - 17.6).abs() < 1e-9);
        // 17.6 MB/s is 56.8 ns per byte.
        assert!((bw.ns_per_byte() - 56.818).abs() < 0.01);
    }

    #[test]
    fn bandwidth_from_transfer() {
        // 1000 bytes in 1 us = 1000 MB/s.
        let bw = Bandwidth::from_transfer(1000, Nanos::from_us(1));
        assert!((bw.as_mbps() - 1000.0).abs() < 1e-6);
        assert_eq!(Bandwidth::from_transfer(1000, Nanos::ZERO).as_mbps(), 0.0);
    }

    #[test]
    fn bandwidth_time_for_rounds_up() {
        let bw = Bandwidth::from_mbps(1.0); // 1000 ns per byte
        assert_eq!(bw.time_for(3), Nanos::from_ns(3_000));
        let odd = Bandwidth::from_bytes_per_sec(3.0e9); // 1/3 ns per byte
        assert_eq!(odd.time_for(1), Nanos::from_ns(1)); // ceil
    }

    #[test]
    fn mbit_conversion() {
        let bw = Bandwidth::from_mbit_per_sec(100.0);
        assert!((bw.as_mbps() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn ns_for_bytes_rounds_to_nearest() {
        // 1024 ns per KB == 1 ns per byte exactly.
        assert_eq!(ns_for_bytes(1024, 100), Nanos::from_ns(100));
        // 512 ns per KB == 0.5 ns per byte: 3 bytes -> 1.5 -> rounds to 2.
        assert_eq!(ns_for_bytes(512, 3), Nanos::from_ns(2));
        assert_eq!(ns_for_bytes(512, 0), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn time_for_zero_bandwidth_panics() {
        let _ = Bandwidth::ZERO.time_for(1);
    }
}
