//! What a run produces and how it is printed: one JSON line on stdout
//! (the driver's contract), a table on stderr (for people).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::LatencyLeg;
use crate::trace::{sum_agg, Kind, Recorder};

/// One measured value and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the metric's declared unit.
    pub value: f64,
    /// Samples (operations, segments or sessions) behind the value.
    pub samples: u64,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations lost, timed out, errored or failing the payload check.
    pub failed: u64,
    /// Metric values by declared name.
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Lines for the stderr report (ledger check and the like).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Record `name` = `value` from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not declared in spec.rs"
        );
        self.metrics.insert(name, Measured { value, samples });
    }

    /// Fold another leg's counts in.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record the whole-leg tail of a traced latency leg; `unit_ns` is
    /// how many sample nanoseconds make one reported microsecond (2000
    /// for round trips reported one-way).
    pub fn set_tails(&mut self, leg: &LatencyLeg, unit_ns: f64) {
        let tails = leg.whole_leg_quantiles_ns(&[0.99, 0.999]);
        self.set("tail.oneway_p99_us", tails[0] / unit_ns, leg.samples);
        self.set("tail.oneway_p999_us", tails[1] / unit_ns, leg.samples);
    }

    /// Record `fail_share` from the counts so far.
    pub fn set_fail_share(&mut self) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("fail_share", share, self.attempted);
    }

    /// Record the mean device `try_send`/`try_recv` span under the two
    /// given names (the device layer differs by workload).
    pub fn set_device_spans(
        &mut self,
        recorders: &[Recorder],
        send: &'static str,
        recv: &'static str,
    ) {
        for (name, kind) in [(send, Kind::DevSend), (recv, Kind::DevRecv)] {
            let a = sum_agg(recorders, kind);
            self.set(name, a.mean_total_ns(), a.count);
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Whether every operation succeeded and every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric set this run must print: every end-to-end metric for
    /// an untraced run, every per-layer metric for a traced one.
    pub fn declared(traced: bool) -> &'static [MetricSpec] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The driver's result line. Untraced: a missing end-to-end metric is
    /// a bug and panics. Traced: a per-layer metric this workload does
    /// not exercise reads 0.
    pub fn json_line(&self, traced: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, spec) in Self::declared(traced).iter().enumerate() {
            let value = match self.metrics.get(spec.name) {
                Some(m) => m.value,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", spec.name),
            };
            assert!(value.is_finite(), "metric {} is not finite", spec.name);
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name, value, spec.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The table for people.
    pub fn table(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut s = format!(
            "== {workload} seed={seed} {} attempted={} failed={} fail_share={:.3e} ==\n",
            if traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for spec in Self::declared(traced) {
            if let Some(m) = self.metrics.get(spec.name) {
                let _ = writeln!(
                    s,
                    "  {:<44} {:>16.4} {:<9} n={}",
                    spec.name, m.value, spec.unit, m.samples
                );
            }
        }
        // The result line prints every declared metric; the ones this
        // workload's traffic never reaches read 0 there. Name them, so
        // a 0 that was measured can be told from one that was not.
        let absent: Vec<&str> = Self::declared(traced)
            .iter()
            .map(|m| m.name)
            .filter(|n| !self.metrics.contains_key(n))
            .collect();
        if !absent.is_empty() {
            let _ = writeln!(
                s,
                "  not measured on this workload (0 in the result line): {}",
                absent.join(", ")
            );
        }
        for n in &self.notes {
            let _ = writeln!(s, "  {n}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = RunResult::default();
        r.count(10, 0);
        for m in END_TO_END {
            r.set(m.name, 1.5, 3);
        }
        let line = r.json_line(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        for m in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                m.name, m.unit
            )));
        }
        assert!(!line.contains('\n'));
    }

    #[test]
    fn traced_line_zero_fills_layers_not_exercised() {
        let mut r = RunResult::default();
        r.count(1, 1);
        r.set("raw.memcpy_2k_mbps", 9000.0, 1);
        let line = r.json_line(true);
        assert!(line.contains("\"correct\": false"));
        assert!(line.contains("\"raw.memcpy_2k_mbps\": {\"value\": 9000, "));
        assert!(line.contains("\"fm-udp.join_ms\": {\"value\": 0, "));
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
