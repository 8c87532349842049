//! The FM benchmark: six 2-rank workloads over the real transports and
//! the simulator, five end-to-end metrics, and a per-layer ledger measured
//! entirely from outside the program (spans around public calls, a traced
//! device under the engines, a rung ladder, public counters, a counting
//! allocator). `README.md` has the glossary and the interaction table.

#![warn(missing_docs)]

pub mod clock;
pub mod fabric;
pub mod legs;
pub mod payload;
pub mod report;
pub mod rungs;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Every allocation of the benchmark process is counted per thread, so a
/// traced run can say what the datapath takes from the allocator.
#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed for payload patterns, schedules and injected loss.
    pub seed: u64,
    /// Seconds the run measures for (warm-up and set-up come on top).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one
    /// (end-to-end metrics).
    pub traced: bool,
}

/// `VmHWM` of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb * 1024.0 / 1e6
}

/// Write `recorders` as a Chrome trace under `benchmark/out/` and note
/// the path in `result`. A failure to write is reported, not fatal: the
/// metrics do not depend on the file.
pub fn write_chrome_trace(
    workload: &str,
    seed: u64,
    recorders: &[trace::Recorder],
    result: &mut report::RunResult,
) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(recorders)));
    let spans: usize = recorders.iter().map(|r| r.spans().len()).sum();
    result.notes.push(match written {
        Ok(()) => format!("chrome trace: {} ({spans} spans)", path.display()),
        Err(e) => format!("chrome trace not written to {}: {e}", path.display()),
    });
}
