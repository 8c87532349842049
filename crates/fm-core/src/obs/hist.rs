//! Fixed log-bucket histograms — percentile summaries with no allocation
//! per sample and no external dependencies.
//!
//! A [`LogHistogram`] keeps one counter per power-of-two bucket (65 of
//! them cover the whole `u64` range), plus the exact observed min/max so
//! percentile answers are clamped to values that actually occurred.
//! Percentiles interpolate linearly *within* the winning bucket (after
//! intersecting its bounds with the observed min/max), so quantiles stay
//! distinguishable even when most samples share one log₂ bucket — the
//! price is an error bounded by how non-uniform samples are inside a
//! bucket, still constant-space, which is what a per-packet hot path can
//! afford.

/// A log₂-bucketed histogram of `u64` samples (latencies in ns, bandwidth
/// samples in KB/s, sizes in bytes, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// `counts[i]` holds samples in `[2^(i-1), 2^i)`; `counts[0]` holds 0.
    counts: [u64; 65],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: [0; 65],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at percentile `p` (0–100), found by nearest rank and then
    /// interpolated linearly inside the winning bucket: the bucket's bounds
    /// are first intersected with the observed min/max, and the rank's
    /// position among the bucket's samples picks a point on that span.
    /// Assumes samples spread evenly within a bucket — exact for uniform
    /// in-bucket data, and never off by more than the (clamped) bucket
    /// width otherwise. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the requested percentile, 1-based (nearest-rank method).
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                // Intersect the bucket with what was actually observed so
                // a sparsely filled edge bucket doesn't stretch the answer.
                let lo = lower.clamp(self.min, self.max);
                let hi = upper.clamp(self.min, self.max);
                // `k`-th of the bucket's `c` samples (1-based).
                let k = rank - cum;
                let step = ((hi - lo) as f64 * k as f64 / c as f64) as u64;
                return lo.saturating_add(step).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Median (see [`LogHistogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 99th percentile (see [`LogHistogram::percentile`]).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile (see [`LogHistogram::percentile`]).
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Exact arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.total).unwrap_or(0)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Histograms keyed by message-size class (log₂ of the size, so 1 KB and
/// 1.5 KB messages share a class) — e.g. per-size bandwidth samples.
#[derive(Debug, Clone, Default)]
pub struct SizeHistograms {
    hists: std::collections::BTreeMap<u32, LogHistogram>,
}

impl SizeHistograms {
    /// An empty set.
    pub fn new() -> SizeHistograms {
        SizeHistograms::default()
    }

    /// The size class of a message of `bytes` bytes: `ceil(log2(bytes))`.
    pub fn class_of(bytes: u64) -> u32 {
        bytes.max(1).next_power_of_two().trailing_zeros()
    }

    /// Human label for a class ("≤512B", "≤8KB", ...).
    pub fn class_label(class: u32) -> String {
        let bytes = 1u64 << class;
        if bytes < 1024 {
            format!("≤{bytes}B")
        } else if bytes < 1024 * 1024 {
            format!("≤{}KB", bytes / 1024)
        } else {
            format!("≤{}MB", bytes / (1024 * 1024))
        }
    }

    /// Record `v` for a message of `bytes` bytes.
    pub fn record(&mut self, bytes: u64, v: u64) {
        self.hists
            .entry(Self::class_of(bytes))
            .or_default()
            .record(v);
    }

    /// Fold a whole histogram of samples for `bytes`-byte messages into
    /// that size's class (e.g. one stream run's per-message samples).
    pub fn merge_class(&mut self, bytes: u64, h: &LogHistogram) {
        self.hists
            .entry(Self::class_of(bytes))
            .or_default()
            .merge(h);
    }

    /// Iterate `(class, histogram)` in ascending size order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &LogHistogram)> {
        self.hists.iter().map(|(k, h)| (*k, h))
    }

    /// True when no samples were recorded at all.
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LogHistogram::new();
        h.record(1234);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 1234);
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = LogHistogram::new();
        for v in [1u64, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
            for _ in 0..10 {
                h.record(v);
            }
        }
        let mut last = 0;
        for p in 0..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= last, "p{p}: {v} < {last}");
            assert!(v >= h.min() && v <= h.max());
            last = v;
        }
        // p50 lands within a factor of two of the true median (1000).
        assert!((512..=2047).contains(&h.p50()), "p50 = {}", h.p50());
    }

    #[test]
    fn p99_tracks_the_tail() {
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        assert!(h.p50() <= 127);
        assert!(h.p99() <= 127, "99 of 100 samples are 100");
        assert_eq!(h.percentile(100.0), 1_000_000);
    }

    #[test]
    fn interpolated_quantiles_bound_relative_error() {
        // Uniform 1..=10_000: in-bucket interpolation should land within a
        // few percent of the exact nearest-rank answer at every quantile,
        // including deep tails where all the mass shares one log₂ bucket.
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for p in [10.0f64, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9] {
            let exact = (p / 100.0 * 10_000.0).ceil().max(1.0) as u64;
            let got = h.percentile(p);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(
                err <= 0.02,
                "p{p}: got {got}, exact {exact}, rel err {err:.4}"
            );
        }
        // The headline symptom this fixes: p50 and p99 of a same-bucket
        // distribution must not collapse to one value.
        let mut tight = LogHistogram::new();
        for v in 600..=1000u64 {
            tight.record(v);
        }
        assert!(tight.p50() < tight.p99(), "quantiles saturated");
        assert!(tight.p99() < tight.p999() || tight.p999() <= 1000);
    }

    #[test]
    fn p999_tracks_the_far_tail() {
        let mut h = LogHistogram::new();
        for _ in 0..1999 {
            h.record(100);
        }
        h.record(1_000_000);
        assert!(h.p99() <= 127, "1999 of 2000 samples are 100");
        assert!(h.p999() <= 127, "rank 1998 of 2000 is still 100");
        assert_eq!(h.percentile(100.0), 1_000_000);
        for _ in 0..3 {
            h.record(1_000_000);
        }
        // 4 of 2003 big → rank ⌈0.999·2003⌉ = 2001 lands in the big bucket.
        assert!(h.p999() >= 100_000, "p999 = {}", h.p999());
    }

    #[test]
    fn zero_and_extreme_samples_are_handled() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), u64::MAX);
    }

    #[test]
    fn merge_combines_counts_and_bounds() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for _ in 0..50 {
            a.record(10);
            b.record(10_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 10_000);
        assert!(a.p50() < 10_000 && a.p99() >= 8_192);
    }

    #[test]
    fn size_classes_group_by_log2() {
        assert_eq!(SizeHistograms::class_of(1), 0);
        assert_eq!(SizeHistograms::class_of(512), 9);
        assert_eq!(SizeHistograms::class_of(513), 10);
        assert_eq!(SizeHistograms::class_of(1024), 10);
        let mut s = SizeHistograms::new();
        s.record(600, 42);
        s.record(1000, 43);
        s.record(64, 44);
        let classes: Vec<u32> = s.iter().map(|(c, _)| c).collect();
        assert_eq!(classes, vec![6, 10]);
        assert_eq!(s.iter().find(|(c, _)| *c == 10).unwrap().1.count(), 2);
        assert_eq!(SizeHistograms::class_label(9), "≤512B");
        assert_eq!(SizeHistograms::class_label(13), "≤8KB");
        assert_eq!(SizeHistograms::class_label(21), "≤2MB");
    }
}
