//! The fixed statistics every metric is reduced with.
//!
//! A leg is cut into segments of a fixed operation count. Latency
//! percentiles are taken inside each segment from the raw per-operation
//! samples, throughput is taken per segment, and the reported value is
//! the **median over segments**: a scheduler stall on this time-shared
//! box spoils the segment it lands in, not the result.

/// `q`-quantile (0..=1) of an ascending slice by the nearest-rank rule.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-operation latency samples of one leg, reduced segment by segment.
#[derive(Debug, Default, Clone)]
pub struct LatencyLeg {
    /// Per-segment median, ns.
    pub seg_p50_ns: Vec<f64>,
    /// Samples taken in all.
    pub samples: u64,
    /// Every sample, kept only when asked for (traced runs: whole-leg
    /// tail percentiles).
    pub all_ns: Option<Vec<u32>>,
}

impl LatencyLeg {
    /// A leg that also keeps every sample when `keep_all`.
    pub fn new(keep_all: bool) -> Self {
        LatencyLeg {
            all_ns: keep_all.then(Vec::new),
            ..LatencyLeg::default()
        }
    }

    /// Fold one finished segment in. Sorts `segment` in place.
    pub fn push_segment(&mut self, segment: &mut [u32]) {
        if segment.is_empty() {
            return;
        }
        if let Some(all) = self.all_ns.as_mut() {
            all.extend_from_slice(segment);
        }
        segment.sort_unstable();
        self.seg_p50_ns
            .push(f64::from(quantile_sorted(segment, 0.50)));
        self.samples += segment.len() as u64;
    }

    /// Append another leg's segments (and its kept samples, if any).
    pub fn merge(&mut self, other: LatencyLeg) {
        self.seg_p50_ns.extend(other.seg_p50_ns);
        self.samples += other.samples;
        match (self.all_ns.as_mut(), other.all_ns) {
            (Some(all), Some(more)) => all.extend(more),
            (None, more) => self.all_ns = more,
            (Some(_), None) => {}
        }
    }

    /// Median over segments of the per-segment median, ns.
    pub fn p50_ns(&self) -> f64 {
        median(&self.seg_p50_ns)
    }

    /// Whole-leg quantiles over every kept sample, ns, one per entry of
    /// `qs` (zeros when samples were not kept).
    pub fn whole_leg_quantiles_ns(&self, qs: &[f64]) -> Vec<f64> {
        match &self.all_ns {
            Some(all) if !all.is_empty() => {
                let mut v = all.clone();
                v.sort_unstable();
                qs.iter()
                    .map(|&q| f64::from(quantile_sorted(&v, q)))
                    .collect()
            }
            _ => vec![0.0; qs.len()],
        }
    }
}

/// Per-segment durations of a throughput leg: every segment moved the
/// same `ops_per_segment` operations and `bytes_per_segment` bytes.
#[derive(Debug, Default, Clone)]
pub struct ThroughputLeg {
    /// Wall time of each segment, ns.
    pub seg_ns: Vec<f64>,
    /// Operations per segment.
    pub ops_per_segment: u64,
    /// Verified payload bytes per segment.
    pub bytes_per_segment: u64,
}

impl ThroughputLeg {
    /// An empty leg whose segments each move `ops` operations and
    /// `bytes` verified payload bytes.
    pub fn new(ops: u64, bytes: u64) -> Self {
        ThroughputLeg {
            seg_ns: Vec::new(),
            ops_per_segment: ops,
            bytes_per_segment: bytes,
        }
    }

    /// Median segment rate, operations per millisecond.
    pub fn ops_per_ms(&self) -> f64 {
        let ns = median(&self.seg_ns);
        if ns == 0.0 {
            0.0
        } else {
            self.ops_per_segment as f64 * 1e6 / ns
        }
    }

    /// Median segment goodput, payload MB (10^6 bytes) per second.
    pub fn mbps(&self) -> f64 {
        let ns = median(&self.seg_ns);
        if ns == 0.0 {
            0.0
        } else {
            self.bytes_per_segment as f64 * 1e3 / ns
        }
    }

    /// Operations completed in all.
    pub fn ops(&self) -> u64 {
        self.ops_per_segment * self.seg_ns.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.5), 7);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn one_stalled_segment_does_not_move_the_result() {
        let mut leg = LatencyLeg::new(true);
        for seg in 0..5u32 {
            let mut s: Vec<u32> = (0..1000).map(|i| 1000 + i % 10).collect();
            if seg == 2 {
                s.iter_mut().take(600).for_each(|x| *x = 1_000_000);
            }
            leg.push_segment(&mut s);
        }
        assert!(leg.p50_ns() < 1100.0);
        assert!(leg.whole_leg_quantiles_ns(&[0.90])[0] > 100_000.0);
        assert_eq!(leg.samples, 5000);
    }

    #[test]
    fn throughput_uses_the_median_segment() {
        let mut leg = ThroughputLeg::new(1000, 2_048_000);
        leg.seg_ns = vec![1e6, 1e6, 9e6];
        assert_eq!(leg.ops_per_ms(), 1000.0);
        assert_eq!(leg.mbps(), 2048.0);
        assert_eq!(leg.ops(), 3000);
    }
}
