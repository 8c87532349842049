//! Real multi-process clusters over the shm and routed transports,
//! driven through the `fm-udp-cluster` binary exactly as a user would
//! run it — the cross-process proof that the mapped-segment rings and
//! the locality-split composite carry the same workloads the UDP
//! transport does.

use std::process::Command;
use std::sync::RwLock;

use fm_core::stats::Counters;
use fm_core::FmStats;
use fm_route::RouteStats;
use fm_shm::ShmStats;
use fm_udp::UdpStats;

/// Every cluster of this file makes segments in /dev/shm; the cleanup
/// check counts them there, so it runs alone (the write side) while the
/// other tests share the read side.
static SHM_DIR: RwLock<()> = RwLock::new(());

fn run_cluster(args: &[&str]) -> String {
    let _dir = SHM_DIR.read().unwrap_or_else(|e| e.into_inner());
    launch(args)
}

fn launch(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fm-udp-cluster"))
        .args(args)
        .output()
        .expect("launch fm-udp-cluster");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "fm-udp-cluster {args:?} failed\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );
    stdout
}

/// Extract `key=value` as u64 from a node's STATS line.
fn stat(stats_line: &str, key: &str) -> u64 {
    stats_line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {stats_line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {key}= in {stats_line:?}"))
}

/// The names of a counter set, in declaration order.
fn names(c: impl Counters) -> Vec<&'static str> {
    c.fields().map(|(name, _)| name).collect()
}

/// Every engine counter is on the line, and every counter of each
/// device set under its prefix, zeros included: a report prints the
/// sets, not a hand-picked few.
fn carries_every_counter(stats_line: &str, devices: &[(&str, Vec<&str>)]) {
    for name in names(FmStats::default()) {
        stat(stats_line, name);
    }
    for (prefix, names) in devices {
        for name in names {
            stat(stats_line, &format!("{prefix}{name}"));
        }
    }
}

fn stats_lines(output: &str) -> Vec<&str> {
    output.lines().filter(|l| l.contains("STATS ")).collect()
}

#[test]
fn shm_two_process_ping_pong() {
    let out = run_cluster(&[
        "spawn",
        "--nodes",
        "2",
        "--rounds",
        "2000",
        "--msg-size",
        "256",
        "--transport",
        "shm",
    ]);
    assert!(out.contains("OK nodes=2 rounds=2000"), "{out}");
    let lines = stats_lines(&out);
    assert_eq!(lines.len(), 2, "one STATS line per node:\n{out}");
    for l in &lines {
        assert_eq!(
            stat(l, "shm.corrupt_frames"),
            0,
            "torn frame through the rings: {l}"
        );
        assert_eq!(stat(l, "errors"), 0);
        assert!(stat(l, "shm.frames_sent") >= 2000, "ping or pong per round");
        carries_every_counter(l, &[("shm.", names(ShmStats::default()))]);
    }
}

#[test]
fn shm_four_process_allreduce() {
    let out = run_cluster(&[
        "spawn",
        "--nodes",
        "4",
        "--rounds",
        "50",
        "--msg-size",
        "64",
        "--workload",
        "allreduce",
        "--transport",
        "shm",
    ]);
    // The workload validates every element of every round's result
    // internally; OK means all four processes agreed.
    assert!(out.contains("OK nodes=4 rounds=50"), "{out}");
    for l in stats_lines(&out) {
        assert_eq!(stat(l, "shm.corrupt_frames"), 0);
        assert_eq!(stat(l, "errors"), 0);
    }
}

#[test]
fn routed_four_process_mixed_locality_allreduce() {
    // Two simulated hosts of two ranks each: same-host frames must ride
    // shm, cross-host frames UDP, and the hierarchy-aware allreduce
    // must still produce the exact sums the workload checks.
    let out = run_cluster(&[
        "spawn",
        "--nodes",
        "4",
        "--rounds",
        "50",
        "--msg-size",
        "64",
        "--workload",
        "allreduce",
        "--transport",
        "routed",
        "--hosts",
        "0,0,1,1",
    ]);
    assert!(out.contains("OK nodes=4 rounds=50"), "{out}");
    let lines = stats_lines(&out);
    assert_eq!(lines.len(), 4, "one STATS line per node:\n{out}");
    for l in &lines {
        assert_eq!(stat(l, "errors"), 0);
        // Under the two-level schedule every rank at least gathers and
        // releases within its host over shm...
        assert!(stat(l, "route.local_sent") > 0, "no shm traffic: {l}");
    }
    // ...but only the host leaders cross the wire — that concentration
    // is exactly the hierarchy's win. Non-leader members (ranks 1 and 3)
    // must send zero cross-host frames.
    let remote: Vec<u64> = lines.iter().map(|l| stat(l, "route.remote_sent")).collect();
    let find = |n: u64| {
        lines
            .iter()
            .position(|l| stat(l, "node") == n)
            .expect("node STATS present")
    };
    assert!(
        remote[find(0)] > 0,
        "leader 0 never crossed hosts: {lines:?}"
    );
    assert!(
        remote[find(2)] > 0,
        "leader 2 never crossed hosts: {lines:?}"
    );
    assert_eq!(remote[find(1)], 0, "member 1 leaked cross-host traffic");
    assert_eq!(remote[find(3)], 0, "member 3 leaked cross-host traffic");
}

#[test]
fn routed_ring_with_default_half_and_half_hosts() {
    // No --hosts: ranks 0,1 land on host 0 and ranks 2,3 on host 1. The
    // ring 0→1→2→3→0 then has two local hops (0→1, 2→3) and two remote
    // hops (1→2, 3→0), so every node sends on exactly one fabric and the
    // cluster as a whole uses both.
    let out = run_cluster(&[
        "spawn",
        "--nodes",
        "4",
        "--rounds",
        "300",
        "--transport",
        "routed",
    ]);
    assert!(out.contains("OK nodes=4 rounds=300"), "{out}");
    let lines = stats_lines(&out);
    let devices = [
        ("route.", names(RouteStats::default())),
        ("shm.", names(ShmStats::default())),
        ("udp.", names(UdpStats::default())),
    ];
    for l in &lines {
        carries_every_counter(l, &devices);
    }
    let local: u64 = lines.iter().map(|l| stat(l, "route.local_sent")).sum();
    let remote: u64 = lines.iter().map(|l| stat(l, "route.remote_sent")).sum();
    assert!(local >= 600, "two local ring legs of 300: {local}");
    assert!(remote >= 600, "two remote ring legs of 300: {remote}");
}

#[test]
fn shm_segments_are_cleaned_up_after_the_run() {
    // Stale-segment hygiene at the binary level: after a graceful run no
    // fm-shm files with this run's (parent-chosen) id remain in the
    // segment directory.
    let _dir = SHM_DIR.write().unwrap_or_else(|e| e.into_inner());
    let before: usize = segment_count();
    let out = launch(&[
        "spawn",
        "--nodes",
        "3",
        "--rounds",
        "100",
        "--transport",
        "shm",
    ]);
    assert!(out.contains("OK nodes=3 rounds=100"), "{out}");
    // Children unlink on drop (last one out per pair); give the final
    // exits a beat before counting.
    std::thread::sleep(std::time::Duration::from_millis(200));
    assert!(
        segment_count() <= before,
        "graceful run leaked fm-shm segments"
    );
}

fn segment_count() -> usize {
    std::fs::read_dir("/dev/shm")
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| {
                    e.file_name()
                        .to_string_lossy()
                        .starts_with("fm-shm-cluster-")
                })
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn shm_two_process_shmem_puts_and_gets_through_the_mapped_heap() {
    // Each process puts 64 KiB and 256 KiB into the other's heap and
    // gets the 64 KiB back; both check every byte (the workload panics
    // on a mismatch). Where the kernel lets a process take a sibling's
    // descriptor (no Yama, or ptrace_scope 0), each heap is mapped across
    // the processes and the three ops send no FM message at all; under a
    // stricter policy they travel as packets.
    let out = run_cluster(&[
        "spawn",
        "--nodes",
        "2",
        "--workload",
        "shmem",
        "--transport",
        "shm",
    ]);
    assert!(out.contains("OK nodes=2"), "{out}");
    let bulk: Vec<u64> = out
        .lines()
        .filter(|l| l.contains("SHMEM "))
        .map(|l| stat(l, "bulk_msgs"))
        .collect();
    assert_eq!(bulk.len(), 2, "one SHMEM line per node:\n{out}");
    let scope = std::fs::read_to_string("/proc/sys/kernel/yama/ptrace_scope");
    if scope.map_or(true, |s| s.trim() == "0") {
        assert_eq!(bulk, [0, 0], "the heaps were not mapped across processes");
    }
}
