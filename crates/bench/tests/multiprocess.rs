//! Real multi-process clusters over loopback UDP, driven through the
//! `fm-udp-cluster` binary exactly as a user would run it.
//!
//! The acceptance bar from the transport design: a two-process ping-pong
//! completes 10,000 round trips with zero message loss at the FM API
//! while 1% of outbound datagrams are being dropped under it — and the
//! stats prove the retransmission machinery (not luck) paid for it.

use std::process::Command;

fn run_cluster(args: &[&str]) -> String {
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

fn stats_lines(output: &str) -> Vec<&str> {
    output
        .lines()
        .filter(|l| l.contains("STATS "))
        .collect::<Vec<_>>()
}

#[test]
fn two_processes_10k_roundtrips_with_1pct_drop() {
    let out = run_cluster(&[
        "spawn",
        "--nodes",
        "2",
        "--rounds",
        "10000",
        "--msg-size",
        "256",
        "--drop",
        "0.01",
        "--seed",
        "42",
    ]);
    assert!(out.contains("OK nodes=2 rounds=10000"), "{out}");
    let lines = stats_lines(&out);
    assert_eq!(lines.len(), 2, "one STATS line per node:\n{out}");
    let total_drops: u64 = lines.iter().map(|l| stat(l, "drops_injected")).sum();
    let total_retx: u64 = lines.iter().map(|l| stat(l, "retransmits")).sum();
    // ~1% of ≥20k data frames: the injector really fired...
    assert!(
        total_drops >= 50,
        "only {total_drops} drops injected:\n{out}"
    );
    // ...and the sublayer really recovered (every dropped data frame
    // forces one retransmission, a dropped standalone ack none; zero
    // errors + OK already proved delivery).
    assert!(
        total_retx >= total_drops / 2,
        "retransmits={total_retx} vs drops={total_drops}:\n{out}"
    );
    for l in &lines {
        assert_eq!(stat(l, "errors"), 0, "{l}");
    }
}

#[test]
fn four_process_ring_with_drop_injection() {
    let out = run_cluster(&[
        "spawn",
        "--nodes",
        "4",
        "--rounds",
        "1000",
        "--msg-size",
        "128",
        "--drop",
        "0.01",
        "--seed",
        "7",
    ]);
    assert!(out.contains("OK nodes=4 rounds=1000"), "{out}");
    let lines = stats_lines(&out);
    assert_eq!(lines.len(), 4, "one STATS line per node:\n{out}");
    // The ring workload asserts in-order arrival inside each node (any
    // out-of-order or lost message panics the child, failing the run);
    // here we check the loss machinery was genuinely exercised.
    let total_drops: u64 = lines.iter().map(|l| stat(l, "drops_injected")).sum();
    let total_retx: u64 = lines.iter().map(|l| stat(l, "retransmits")).sum();
    assert!(total_drops > 0, "no drops injected:\n{out}");
    assert!(total_retx > 0, "no retransmissions recorded:\n{out}");
    for l in &lines {
        assert_eq!(stat(l, "errors"), 0, "{l}");
    }
}

#[test]
fn lossless_two_process_run_needs_no_retransmissions() {
    let out = run_cluster(&["spawn", "--nodes", "2", "--rounds", "500"]);
    assert!(out.contains("OK nodes=2 rounds=500"), "{out}");
    for l in stats_lines(&out) {
        assert_eq!(stat(l, "drops_injected"), 0, "{l}");
        assert_eq!(stat(l, "errors"), 0, "{l}");
    }
}

#[test]
fn churn_kill_and_restart_completes_with_zero_survivor_loss() {
    let out = run_cluster(&[
        "spawn",
        "--nodes",
        "3",
        "--rounds",
        "500",
        "--workload",
        "churn",
        "--churn-kill",
        "2",
        "--churn-at-ms",
        "120",
        "--churn-restart-ms",
        "120",
    ]);
    assert!(out.contains("OK nodes=3 rounds=500"), "{out}");
    assert!(out.contains("CHURN killed node=2"), "{out}");
    assert!(out.contains("CHURN restarted node=2"), "{out}");
    // The killed incarnation's exit is expected and reaped as such.
    assert!(
        out.contains("EXIT node=2 code=signal expected_kill=true"),
        "{out}"
    );
    // Both survivors watched the victim's epoch bump arrive.
    assert!(out.contains("PEER_REJOIN node=0 peer=2"), "{out}");
    assert!(out.contains("PEER_REJOIN node=1 peer=2"), "{out}");
    // Three STATS lines: two survivors plus the restarted incarnation
    // (the killed incarnation never got to print one). Survivors applied
    // exactly one engine-level peer reset; nobody reported errors.
    let lines = stats_lines(&out);
    assert_eq!(lines.len(), 3, "{out}");
    let rejoins: u64 = lines.iter().map(|l| stat(l, "rejoins")).sum();
    assert!(
        rejoins >= 2,
        "both survivors should record a rejoin:\n{out}"
    );
    for l in &lines {
        assert_eq!(stat(l, "errors"), 0, "{l}");
    }
}

#[test]
fn churn_kill_without_restart_lets_survivors_finish() {
    let out = run_cluster(&[
        "spawn",
        "--nodes",
        "3",
        "--rounds",
        "400",
        "--workload",
        "churn",
        "--churn-kill",
        "2",
        "--churn-at-ms",
        "120",
        "--churn-no-restart",
    ]);
    assert!(out.contains("OK nodes=3 rounds=400"), "{out}");
    // Survivors detected the loss through the suspicion pipeline and the
    // peer handler surfaced it...
    assert!(out.contains("PEER_DOWN node=0 peer=2"), "{out}");
    assert!(out.contains("PEER_DOWN node=1 peer=2"), "{out}");
    // ...and still drained their mutual streams in full (the workload
    // asserts zero FM-level loss between steady peers before exiting 0).
    let lines = stats_lines(&out);
    assert_eq!(lines.len(), 2, "only the survivors report:\n{out}");
    for l in &lines {
        assert!(stat(l, "downs") >= 1, "{l}");
        assert_eq!(stat(l, "errors"), 0, "{l}");
    }
}

/// The S6 regression: a child dying mid-run must fail the spawn loudly
/// and promptly — reaped via `EXIT` lines and a nonzero parent exit —
/// instead of wedging the parent on survivors that spin forever.
#[test]
fn dead_child_fails_the_spawn_instead_of_hanging() {
    let out = Command::new(env!("CARGO_BIN_EXE_fm-udp-cluster"))
        .args([
            "spawn",
            "--nodes",
            "3",
            "--rounds",
            "100000",
            "--workload",
            "barrier",
            "--churn-kill",
            "1",
            "--churn-at-ms",
            "150",
            "--churn-no-restart",
        ])
        .output()
        .expect("launch fm-udp-cluster");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "a killed barrier rank must fail the run:\n{stdout}"
    );
    // The survivors aborted themselves on the Down verdict (no grace
    // kill needed), and every incarnation was reaped with its status.
    assert!(
        stdout.contains("EXIT node=1 code=signal expected_kill=true"),
        "{stdout}"
    );
    assert!(stdout.contains("EXIT node=0"), "{stdout}");
    assert!(stdout.contains("EXIT node=2"), "{stdout}");
    assert!(!stdout.contains("OK nodes="), "{stdout}");
}
