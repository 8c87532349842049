//! Plain-text report formatting for the figure benches.
//!
//! Every figure bench prints (a) the same series the paper plots, as an
//! aligned table, and (b) a summary line comparing the measured endpoints
//! to the paper's numbers, so `cargo bench` output doubles as the
//! EXPERIMENTS.md evidence.

use fm_core::obs::{LogHistogram, SizeHistograms};
use fm_model::halfpower::{half_power_point, peak, BandwidthPoint};
use fm_model::Nanos;

/// Print a figure banner.
pub fn banner(fig: &str, caption: &str) {
    println!();
    println!("=== {fig} — {caption} ===");
}

/// Print a bandwidth-vs-size table with one or more named series.
pub fn bandwidth_table(sizes: &[usize], series: &[(&str, &[BandwidthPoint])]) {
    print!("{:>10}", "size(B)");
    for (name, _) in series {
        print!("{name:>16}");
    }
    println!();
    for (i, sz) in sizes.iter().enumerate() {
        print!("{sz:>10}");
        for (_, pts) in series {
            assert_eq!(pts[i].bytes as usize, *sz, "series misaligned");
            print!("{:>13.2} MB/s", pts[i].bandwidth.as_mbps() / 1.0);
        }
        println!();
    }
}

/// Print an efficiency (%) table for a layered/substrate pair.
pub fn efficiency_table(layered: &[BandwidthPoint], substrate: &[BandwidthPoint]) {
    println!("{:>10}{:>14}", "size(B)", "efficiency");
    for (l, s) in layered.iter().zip(substrate) {
        let eff = if s.bandwidth.as_mbps() > 0.0 {
            l.bandwidth.as_mbps() / s.bandwidth.as_mbps() * 100.0
        } else {
            0.0
        };
        println!("{:>10}{:>13.1}%", l.bytes, eff);
    }
}

/// Summarize a curve: peak bandwidth and N½.
pub fn curve_summary(name: &str, pts: &[BandwidthPoint]) {
    let pk = peak(pts);
    match half_power_point(pts) {
        Some(n12) => println!("{name}: peak {:.2} MB/s, N1/2 = {:.0} B", pk.as_mbps(), n12),
        None => println!(
            "{name}: peak {:.2} MB/s, N1/2 beyond measured range",
            pk.as_mbps()
        ),
    }
}

/// Print a paper-vs-measured comparison line.
pub fn compare(metric: &str, paper: &str, measured: String) {
    println!("  {metric:<38} paper: {paper:<18} measured: {measured}");
}

/// Print a latency table with mean / p50 / p99 / p999 columns, one row
/// per `(name, mean, per-round one-way histogram)` series. Percentiles
/// are sub-bucket interpolated within [`LogHistogram`]'s log2 buckets,
/// which is enough to tell a tight distribution from a heavy tail.
pub fn latency_table(rows: &[(&str, Nanos, &LogHistogram)]) {
    println!(
        "{:>24} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "series", "mean", "p50", "p99", "p999", "rounds"
    );
    for (name, mean, hist) in rows {
        println!(
            "{:>24} {:>8.2}us {:>8.2}us {:>8.2}us {:>8.2}us {:>8}",
            name,
            mean.as_ns() as f64 / 1000.0,
            hist.p50() as f64 / 1000.0,
            hist.p99() as f64 / 1000.0,
            hist.p999() as f64 / 1000.0,
            hist.count()
        );
    }
}

/// Print a per-message-size bandwidth distribution table: one row per
/// size class, with p50/p99 of the per-message delivered bandwidth
/// (KB/s samples, printed as MB/s).
pub fn size_bandwidth_table(hists: &SizeHistograms) {
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>12}",
        "size", "msgs", "p50(MB/s)", "p99(MB/s)", "p999(MB/s)"
    );
    for (class, hist) in hists.iter() {
        println!(
            "{:>10} {:>8} {:>12.2} {:>12.2} {:>12.2}",
            SizeHistograms::class_label(class),
            hist.count(),
            hist.p50() as f64 / 1000.0,
            hist.p99() as f64 / 1000.0,
            hist.p999() as f64 / 1000.0
        );
    }
}

/// Machine-readable calibration results for one transport — what
/// `calibrate --json` writes to `BENCH_<transport>.json`. Rendered by
/// hand (the workspace takes no serialization dependency) and kept flat
/// enough that a shell script can grep it.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Which substrate the numbers come from (`"sim"` or `"udp"`).
    pub transport: String,
    /// Headline scalars, e.g. `("fm2_peak_bandwidth_mbps", 77.1)`.
    pub headline: Vec<(String, f64)>,
    /// Latency rows: name, mean, and the per-round one-way histogram.
    pub latency: Vec<(String, Nanos, LogHistogram)>,
    /// Per-size rows: message size, aggregate delivered bandwidth, and
    /// the per-message bandwidth histogram (KB/s samples).
    pub size_classes: Vec<(usize, f64, LogHistogram)>,
}

impl BenchReport {
    /// Append one headline scalar.
    pub fn push(&mut self, key: impl Into<String>, value: f64) {
        self.headline.push((key.into(), value));
    }

    /// Render as a JSON document. Numbers are emitted finite (a NaN or
    /// infinity would poison the whole file for strict parsers); any
    /// non-finite value is reported as `null`.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.3}")
            } else {
                "null".to_string()
            }
        }
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"transport\": \"{}\",\n", self.transport));
        s.push_str("  \"headline\": {");
        for (i, (k, v)) in self.headline.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{k}\": {}", num(*v)));
        }
        s.push_str("\n  },\n  \"latency\": [");
        for (i, (name, mean, hist)) in self.latency.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"name\": \"{name}\", \"mean_ns\": {}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"p999_ns\": {}, \"rounds\": {}}}",
                mean.as_ns(),
                hist.p50(),
                hist.p99(),
                hist.p999(),
                hist.count()
            ));
        }
        s.push_str("\n  ],\n  \"size_classes\": [");
        for (i, (size, mbps, hist)) in self.size_classes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"size_bytes\": {size}, \"bandwidth_mbps\": {}, \
                 \"per_message_kbps_p50\": {}, \"per_message_kbps_p99\": {}, \
                 \"per_message_kbps_p999\": {}, \"messages\": {}}}",
                num(*mbps),
                hist.p50(),
                hist.p99(),
                hist.p999(),
                hist.count()
            ));
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_model::Bandwidth;

    fn pt(bytes: u64, mbps: f64) -> BandwidthPoint {
        BandwidthPoint {
            bytes,
            bandwidth: Bandwidth::from_mbps(mbps),
        }
    }

    #[test]
    fn tables_do_not_panic_and_align() {
        let sizes = [16usize, 32];
        let a = [pt(16, 1.0), pt(32, 2.0)];
        let b = [pt(16, 0.5), pt(32, 1.5)];
        banner("Figure T", "test");
        bandwidth_table(&sizes, &[("one", &a), ("two", &b)]);
        efficiency_table(&b, &a);
        curve_summary("one", &a);
        compare("peak", "2 MB/s", "2.0 MB/s".into());

        let mut h = LogHistogram::new();
        h.record(10_000);
        h.record(12_000);
        latency_table(&[("fm2 16B", Nanos(11_000), &h)]);
        let mut s = SizeHistograms::new();
        s.record(2048, 70_000);
        size_bandwidth_table(&s);
    }

    #[test]
    #[should_panic(expected = "series misaligned")]
    fn misaligned_series_panics() {
        let sizes = [16usize];
        let a = [pt(32, 1.0)];
        bandwidth_table(&sizes, &[("bad", &a)]);
    }

    #[test]
    fn bench_report_renders_valid_json() {
        use fm_core::obs::json::parse;
        let mut h = LogHistogram::new();
        h.record(10_000);
        h.record(50_000);
        let report = BenchReport {
            transport: "udp".into(),
            headline: vec![
                ("peak_bandwidth_mbps".into(), 93.5),
                ("broken_metric".into(), f64::NAN),
            ],
            latency: vec![("fm2 16B one-way".into(), Nanos(18_000), h.clone())],
            size_classes: vec![(1024, 88.25, h)],
        };
        let doc = parse(&report.to_json()).expect("valid JSON");
        assert_eq!(doc.get("transport").unwrap().as_str(), Some("udp"));
        let headline = doc.get("headline").unwrap();
        assert_eq!(
            headline.get("peak_bandwidth_mbps").unwrap().as_f64(),
            Some(93.5)
        );
        // Non-finite values must degrade to null, not break the file.
        assert_eq!(
            headline.get("broken_metric"),
            Some(&fm_core::obs::json::JsonValue::Null)
        );
        let sizes = doc.get("size_classes").unwrap().as_arr().unwrap();
        assert_eq!(sizes.len(), 1);
        assert_eq!(sizes[0].get("size_bytes").unwrap().as_f64(), Some(1024.0));
        assert!(sizes[0].get("bandwidth_mbps").unwrap().as_f64().unwrap() > 0.0);
        let lat = doc.get("latency").unwrap().as_arr().unwrap();
        assert_eq!(lat[0].get("mean_ns").unwrap().as_f64(), Some(18_000.0));
        assert!(lat[0].get("p99_ns").unwrap().as_f64().unwrap() > 0.0);
        let p99 = lat[0].get("p99_ns").unwrap().as_f64().unwrap();
        let p999 = lat[0].get("p999_ns").unwrap().as_f64().unwrap();
        assert!(p999 >= p99, "p999 below p99");
        assert!(
            sizes[0]
                .get("per_message_kbps_p999")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }
}
