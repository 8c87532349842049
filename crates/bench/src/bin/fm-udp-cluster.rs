//! `fm-udp-cluster`: run an FM workload across real OS processes over UDP.
//!
//! Two subcommands:
//!
//! * `spawn --nodes N [...]` — fork `N` copies of this binary as `node`
//!   children on loopback. Each child binds an ephemeral port and prints
//!   `ADDR <addr>`; the parent collects all addresses and writes one
//!   `PEERS a0 a1 ...` line to every child's stdin. No port is ever
//!   chosen before the kernel grants it, so spawns cannot race.
//! * `node --node-id I --peers a0,a1,... [...]` — join an existing
//!   cluster directly (e.g. two terminals on two machines; every node
//!   must pass the same `--peers` order and `--epoch`). Without
//!   `--peers` the child runs the stdin handshake above.
//!
//! The default workload is ping-pong for 2 nodes (node 0 drives
//! `--rounds` round trips; node 1 echoes) and a ring for more (every
//! node sends `--rounds` messages to its successor and validates the
//! stream from its predecessor); `--workload uniform|hotspot|incast|
//! shuffle` drives a seeded shape. These are `fm-bench`'s harness
//! programs — the ones `calibrate` times in-process — with this process
//! as one rank. `--workload barrier` and `--workload allreduce` instead
//! run MPI-FM collectives over the same engine: `--rounds` barriers, or
//! `--rounds` sum-allreduces of `--msg-size` bytes with every rank
//! validating the result. The engine is the one the matching
//! `fm_bench::fabric` builds — over UDP that means
//! `Reliability::Retransmit`, so the run completes with zero message
//! loss at the FM API even under `--drop`-injected datagram loss; the
//! `STATS` lines show the retransmission machinery paying for it.
//!
//! `--transport` picks the fabric under the same workloads:
//!
//! * `udp` (default) — every pair talks UDP, exactly as above.
//! * `shm` — every pair talks through `fm-shm` mapped segments; the
//!   processes must share a host. The device is lossless, so the engine
//!   runs `TrustSubstrate` (no retransmission sublayer). The UDP socket
//!   is still bound for the spawn handshake, then dropped.
//! * `routed` — a `fm-route` composite: `--hosts 0,0,1,1` (default:
//!   first half / second half) assigns ranks to simulated hosts;
//!   same-host pairs ride shared memory, cross-host pairs ride UDP, and
//!   the collective workloads run the hierarchy-aware (leader-per-host)
//!   schedules over that placement.
//!
//! Churn (`--workload churn`, `--churn-kill`) stays UDP-only: shm
//! segments are per-run and have no rejoin protocol.

use std::io::{BufRead, BufReader, Write as _};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use fm_bench::fabric::{drive, Fabric, Routed, Shm, Udp};
use fm_bench::ping_pong_program;
use fm_bench::workload::{traffic_program, RankProgress, RankReport};
use fm_core::blocking::{fm2_send, quiesce};
use fm_core::obs::chrome::chrome_trace_json;
use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, ObsSink};
use fm_model::workload::{Shape, WorkloadSpec};
use fm_route::{HostMap, RoutedDevice};
use fm_shm::{ShmConfig, ShmDevice};
use fm_udp::{UdpConfig, UdpDevice};

/// Handler carrying the churn workload's numbered streams.
const PING: HandlerId = HandlerId(1);

#[derive(Debug, Clone)]
struct Opts {
    nodes: usize,
    node_id: usize,
    rounds: u32,
    msg_size: usize,
    drop: f64,
    seed: u64,
    epoch: u64,
    bind: String,
    peers: Option<Vec<SocketAddr>>,
    trace: Option<String>,
    join_timeout_s: u64,
    workload: Workload,
    transport: Transport,
    /// `--transport routed` placement: host id per rank. `None` defaults
    /// to first half on host 0, second half on host 1.
    hosts: Option<Vec<usize>>,
    /// This process is a restarted incarnation rejoining a live run
    /// (set by the parent's churn restart; relaxes end-of-run checks
    /// that assume the node saw the whole stream).
    rejoin: bool,
    /// `spawn` only: SIGKILL this node id mid-run.
    churn_kill: Option<usize>,
    /// `spawn` only: when to kill, ms after the peer map goes out.
    churn_at_ms: u64,
    /// `spawn` only: delay from kill to restart (ignored with
    /// `--churn-no-restart`).
    churn_restart_ms: u64,
    /// `spawn` only: kill without restarting — survivors must detect the
    /// loss and finish (or abort loudly) on their own.
    churn_no_restart: bool,
}

/// Which fabric carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    /// UDP between every pair (the original binary).
    Udp,
    /// `fm-shm` mapped segments between every pair (one host).
    Shm,
    /// `fm-route`: shm within a simulated host, UDP across.
    Routed,
}

impl Transport {
    fn flag(self) -> &'static str {
        match self {
            Transport::Udp => "udp",
            Transport::Shm => "shm",
            Transport::Routed => "routed",
        }
    }
}

/// What the cluster actually runs after the join barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Ping-pong for 2 nodes, ring for more (the original FM workloads).
    Auto,
    /// `--rounds` MPI-FM dissemination barriers.
    Barrier,
    /// `--rounds` MPI-FM sum-allreduces of `--msg-size` bytes.
    Allreduce,
    /// Churn-tolerant all-to-all: paced numbered streams to every live
    /// peer, per-incarnation order validated, peers allowed to die and
    /// rejoin mid-run.
    Churn,
    /// A seeded adversarial traffic shape from [`fm_model::workload`]:
    /// `--rounds` messages per sending rank, destinations derived from
    /// `--seed`, per-channel arrival order validated against the replayed
    /// schedule, one-way latency tails printed per node (loopback only —
    /// stamps assume a shared CLOCK_REALTIME).
    Shape(Shape),
}

impl Workload {
    fn flag(self) -> &'static str {
        match self {
            Workload::Auto => "auto",
            Workload::Barrier => "barrier",
            Workload::Allreduce => "allreduce",
            Workload::Churn => "churn",
            Workload::Shape(s) => s.name(),
        }
    }
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            nodes: 2,
            node_id: 0,
            rounds: 1_000,
            msg_size: 256,
            drop: 0.0,
            seed: 0x5EED,
            epoch: 0,
            bind: "127.0.0.1:0".to_string(),
            peers: None,
            trace: None,
            join_timeout_s: 10,
            workload: Workload::Auto,
            transport: Transport::Udp,
            hosts: None,
            rejoin: false,
            churn_kill: None,
            churn_at_ms: 300,
            churn_restart_ms: 200,
            churn_no_restart: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         fm-udp-cluster spawn --nodes N [--rounds R] [--msg-size B] [--drop P] \
         [--seed S] [--workload auto|barrier|allreduce|churn|uniform|hotspot|\
         incast|shuffle] [--transport udp|shm|routed] [--hosts h0,h1,...] \
         [--trace DIR] \
         [--churn-kill I] [--churn-at-ms T] [--churn-restart-ms T] \
         [--churn-no-restart]\n  \
         fm-udp-cluster node --node-id I --nodes N [--peers a0,a1,...] \
         [--bind ADDR] [--epoch E] [--rounds R] [--msg-size B] [--drop P] \
         [--seed S] [--workload auto|barrier|allreduce|churn|uniform|hotspot|\
         incast|shuffle] [--transport udp|shm|routed] [--hosts h0,h1,...] \
         [--trace DIR] \
         [--rejoin]\n\n\
         spawn forks N `node` children on loopback and wires them up; `node` \
         with --peers joins a manually-assembled cluster (all nodes must agree \
         on the peer order; each picks its own --epoch incarnation). \
         --churn-kill SIGKILLs node I at --churn-at-ms and (unless \
         --churn-no-restart) restarts it --churn-restart-ms later under a \
         bumped epoch; use with --workload churn for a run that tolerates it \
         (UDP transport only). --transport shm runs every pair over fm-shm \
         mapped segments; routed splits ranks over simulated --hosts (default \
         half and half), shm within a host and UDP across."
    );
    std::process::exit(2)
}

fn parse(args: &[String]) -> (String, Opts) {
    let Some(cmd) = args.first() else { usage() };
    let mut o = Opts::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage()).clone();
        match flag.as_str() {
            "--nodes" => o.nodes = val().parse().unwrap_or_else(|_| usage()),
            "--node-id" => o.node_id = val().parse().unwrap_or_else(|_| usage()),
            "--rounds" => o.rounds = val().parse().unwrap_or_else(|_| usage()),
            "--msg-size" => o.msg_size = val().parse().unwrap_or_else(|_| usage()),
            "--drop" => o.drop = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = val().parse().unwrap_or_else(|_| usage()),
            "--epoch" => o.epoch = val().parse().unwrap_or_else(|_| usage()),
            "--bind" => o.bind = val(),
            "--join-timeout" => o.join_timeout_s = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => o.trace = Some(val()),
            "--workload" => {
                o.workload = match val().as_str() {
                    "auto" => Workload::Auto,
                    "barrier" => Workload::Barrier,
                    "allreduce" => Workload::Allreduce,
                    "churn" => Workload::Churn,
                    other => match Shape::parse(other) {
                        Some(s) => Workload::Shape(s),
                        None => usage(),
                    },
                }
            }
            "--transport" => {
                o.transport = match val().as_str() {
                    "udp" => Transport::Udp,
                    "shm" => Transport::Shm,
                    "routed" => Transport::Routed,
                    _ => usage(),
                }
            }
            "--hosts" => {
                o.hosts = Some(match HostMap::parse(&val()) {
                    Ok(m) => m.hosts().to_vec(),
                    Err(e) => {
                        eprintln!("--hosts: {e}");
                        usage()
                    }
                })
            }
            "--rejoin" => o.rejoin = true,
            "--churn-kill" => o.churn_kill = Some(val().parse().unwrap_or_else(|_| usage())),
            "--churn-at-ms" => o.churn_at_ms = val().parse().unwrap_or_else(|_| usage()),
            "--churn-restart-ms" => o.churn_restart_ms = val().parse().unwrap_or_else(|_| usage()),
            "--churn-no-restart" => o.churn_no_restart = true,
            "--peers" => {
                o.peers = Some(
                    val()
                        .split(',')
                        .map(|a| a.parse().unwrap_or_else(|_| usage()))
                        .collect(),
                )
            }
            _ => usage(),
        }
    }
    if o.msg_size < 4 {
        o.msg_size = 4; // room for the churn workload's round counter
    }
    if o.transport != Transport::Udp && (o.workload == Workload::Churn || o.churn_kill.is_some()) {
        eprintln!("churn requires --transport udp: shm segments are per-run, no rejoin protocol");
        usage()
    }
    if let Some(h) = &o.hosts {
        if h.len() != o.nodes {
            eprintln!("--hosts lists {} ranks but --nodes is {}", h.len(), o.nodes);
            usage()
        }
    }
    (cmd.clone(), o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = parse(&args);
    match cmd.as_str() {
        "spawn" => spawn_cluster(&opts),
        "node" => run_node(&opts),
        _ => usage(),
    }
}

/// How long the other children get to finish (or abort on their own
/// failure detectors) after one child fails unexpectedly, before the
/// parent kills the stragglers. Generous: it spans a join timeout plus a
/// full suspicion cycle.
const FAILURE_GRACE: Duration = Duration::from_secs(15);

/// Build one `node` child command with the shared run parameters.
fn node_command(exe: &std::path::Path, opts: &Opts, node_id: usize, epoch: u64) -> Command {
    let mut c = Command::new(exe);
    c.arg("node")
        .args(["--node-id", &node_id.to_string()])
        .args(["--nodes", &opts.nodes.to_string()])
        .args(["--rounds", &opts.rounds.to_string()])
        .args(["--msg-size", &opts.msg_size.to_string()])
        .args(["--drop", &opts.drop.to_string()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--epoch", &epoch.to_string()])
        .args(["--join-timeout", &opts.join_timeout_s.to_string()])
        .args(["--workload", opts.workload.flag()])
        .args(["--transport", opts.transport.flag()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    if let Some(h) = &opts.hosts {
        let list: Vec<String> = h.iter().map(usize::to_string).collect();
        c.args(["--hosts", &list.join(",")]);
    }
    if let Some(dir) = &opts.trace {
        c.args(["--trace", dir]);
    }
    c
}

/// Fork `--nodes` children of this same binary, collect their `ADDR`
/// lines, hand every child the full peer map, then relay their output,
/// orchestrate any requested churn, and reap. A child that dies —
/// killed on purpose or crashed — is reaped promptly via `try_wait`,
/// its exit surfaced as an `EXIT` line; after an unexpected failure the
/// survivors get [`FAILURE_GRACE`] to finish or abort before the parent
/// kills them, so a wedged cluster can never hang the spawn.
fn spawn_cluster(opts: &Opts) {
    if let Some(victim) = opts.churn_kill {
        assert!(victim < opts.nodes, "--churn-kill {victim} out of range");
    }
    let exe = std::env::current_exe().expect("own executable path");
    let epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos() as u64;
    let mut children: Vec<Option<std::process::Child>> = (0..opts.nodes)
        .map(|i| {
            Some(
                node_command(&exe, opts, i, epoch)
                    .spawn()
                    .expect("spawn node child"),
            )
        })
        .collect();
    // Per child slot: which node id it runs (restarts append new slots).
    let mut labels: Vec<usize> = (0..opts.nodes).collect();
    let mut expected_kill: Vec<bool> = vec![false; opts.nodes];
    let mut exits: Vec<Option<std::process::ExitStatus>> = vec![None; opts.nodes];

    // Phase 1: each child prints exactly one ADDR line first.
    let mut readers: Vec<_> = children
        .iter_mut()
        .map(|c| BufReader::new(c.as_mut().unwrap().stdout.take().expect("piped stdout")))
        .collect();
    let mut addrs = Vec::with_capacity(opts.nodes);
    for (i, r) in readers.iter_mut().enumerate() {
        let mut line = String::new();
        r.read_line(&mut line).expect("read child ADDR line");
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .unwrap_or_else(|| panic!("node {i}: expected 'ADDR <addr>', got {line:?}"));
        addrs.push(addr.to_string());
    }

    // Phase 2: everyone gets the same positional peer map on stdin.
    let peers_line = format!("PEERS {}\n", addrs.join(" "));
    for c in &mut children {
        c.as_mut()
            .unwrap()
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(peers_line.as_bytes())
            .expect("write peer map to child");
    }
    let run_started = Instant::now();

    // Relay child output live (one pump thread per child).
    let pump = |node: usize, r: BufReader<std::process::ChildStdout>| {
        std::thread::spawn(move || {
            for line in r.lines() {
                let line = line.unwrap_or_default();
                println!("[node {node}] {line}");
            }
        })
    };
    let mut pumps: Vec<_> = readers
        .into_iter()
        .enumerate()
        .map(|(i, r)| pump(i, r))
        .collect();

    // Monitor loop: reap exits as they happen, run the churn schedule,
    // and after an unexpected failure kill the stragglers once the
    // grace period lapses.
    let mut kill_due = opts
        .churn_kill
        .map(|_| run_started + Duration::from_millis(opts.churn_at_ms));
    let mut restart_due: Option<Instant> = None;
    let mut failure_since: Option<Instant> = None;
    let mut grace_killed = false;
    loop {
        let now = Instant::now();
        for slot in 0..children.len() {
            let Some(c) = children[slot].as_mut() else {
                continue;
            };
            if let Some(status) = c.try_wait().expect("poll child status") {
                children[slot] = None;
                exits[slot] = Some(status);
                let node = labels[slot];
                println!(
                    "EXIT node={node} code={} expected_kill={}",
                    status.code().map_or("signal".into(), |c| c.to_string()),
                    expected_kill[slot],
                );
                if !status.success() && !expected_kill[slot] && failure_since.is_none() {
                    eprintln!(
                        "node {node} exited with {status}; allowing survivors \
                         {FAILURE_GRACE:?} to finish before killing them"
                    );
                    failure_since = Some(now);
                }
            }
        }
        if children.iter().all(Option::is_none) && restart_due.is_none() {
            break;
        }
        if kill_due.is_some_and(|t| now >= t) {
            kill_due = None;
            let victim = opts.churn_kill.unwrap();
            if let Some(c) = children[victim].as_mut() {
                expected_kill[victim] = true;
                c.kill().expect("kill churn victim");
                println!(
                    "CHURN killed node={victim} at_ms={}",
                    run_started.elapsed().as_millis()
                );
                if !opts.churn_no_restart {
                    restart_due = Some(now + Duration::from_millis(opts.churn_restart_ms));
                }
            }
        }
        if restart_due.is_some_and(|t| now >= t) {
            restart_due = None;
            let victim = opts.churn_kill.unwrap();
            // Make sure the old incarnation is reaped (its port freed)
            // before the new one rebinds the same address.
            if let Some(mut c) = children[victim].take() {
                exits[victim] = Some(c.wait().expect("reap churn victim"));
            }
            let mut cmd = node_command(&exe, opts, victim, epoch + 1);
            cmd.args(["--peers", &addrs.join(",")]).arg("--rejoin");
            cmd.stdin(Stdio::null());
            let mut child = cmd.spawn().expect("respawn churn victim");
            let r = BufReader::new(child.stdout.take().expect("piped stdout"));
            pumps.push(pump(victim, r));
            children.push(Some(child));
            labels.push(victim);
            expected_kill.push(false);
            exits.push(None);
            println!(
                "CHURN restarted node={victim} at_ms={} epoch_bump=1",
                run_started.elapsed().as_millis()
            );
        }
        if !grace_killed && failure_since.is_some_and(|t| now - t >= FAILURE_GRACE) {
            grace_killed = true;
            for (slot, c) in children.iter_mut().enumerate() {
                if let Some(c) = c.as_mut() {
                    eprintln!("killing straggler node {}", labels[slot]);
                    c.kill().expect("kill straggler");
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for p in pumps {
        p.join().expect("output pump");
    }

    let mut failed = grace_killed;
    for (slot, status) in exits.iter().enumerate() {
        let status = status.expect("every child reaped");
        if !status.success() && !expected_kill[slot] {
            eprintln!("node {} exited with {status}", labels[slot]);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK nodes={} rounds={}", opts.nodes, opts.rounds);
}

/// Run one node over the selected transport: resolve the peer map, join
/// the fabric, run the workload, linger until everything has drained,
/// print `STATS`.
fn run_node(opts: &Opts) {
    match opts.transport {
        Transport::Udp => run_node_udp(opts),
        Transport::Shm => run_node_shm(opts),
        Transport::Routed => run_node_routed(opts),
    }
}

/// stdin handshake: bind ephemeral, announce `ADDR`, wait for the
/// positional `PEERS` map.
fn stdin_handshake(opts: &Opts) -> (std::net::UdpSocket, Vec<SocketAddr>) {
    let socket = std::net::UdpSocket::bind(&opts.bind).expect("bind node socket");
    let me = socket.local_addr().expect("local addr");
    println!("ADDR {me}");
    // Line-buffered stdout would sit on this forever:
    std::io::stdout().flush().expect("flush ADDR");
    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .expect("read PEERS line");
    let peers: Vec<SocketAddr> = line
        .trim()
        .strip_prefix("PEERS ")
        .expect("expected 'PEERS a0 a1 ...' on stdin")
        .split_whitespace()
        .map(|a| a.parse().expect("peer socket address"))
        .collect();
    assert_eq!(peers.len(), opts.nodes, "peer map size vs --nodes");
    assert_eq!(peers[opts.node_id], me, "own slot in the peer map");
    (socket, peers)
}

/// Build the UDP half: `--peers` joins directly, otherwise the stdin
/// handshake supplies the map.
fn udp_device(opts: &Opts) -> UdpDevice {
    match &opts.peers {
        Some(peers) => {
            UdpDevice::bind(opts.node_id, peers.clone(), udp_cfg(opts)).expect("bind node socket")
        }
        None => {
            let (socket, peers) = stdin_handshake(opts);
            UdpDevice::from_socket(socket, opts.node_id, peers, udp_cfg(opts))
                .expect("wrap node socket")
        }
    }
}

/// Attach tracing, arm the mid-workload failure tripwire, run the
/// workload, linger, and write the trace out. Returns the workload's
/// wall time. Shared by every transport.
fn drive_workload<D: fm_core::NetDevice + 'static>(
    fm: &Fm2Engine<D>,
    opts: &Opts,
    hosts: Option<&[usize]>,
) -> Duration {
    let sink = opts.trace.as_ref().map(|_| {
        let s = ObsSink::new(1 << 16);
        fm.attach_obs(s.clone());
        s
    });

    // Every workload surfaces membership transitions; the non-churn ones
    // additionally treat a peer dying *mid-workload* as fatal — better an
    // immediate loud abort than a wedged spin the parent has to reap.
    // Once the workload is done the flag drops, so a peer that merely
    // finished first and left cleanly cannot fail us during linger.
    let workload_active = std::rc::Rc::new(std::cell::Cell::new(true));
    if opts.workload != Workload::Churn {
        let active = std::rc::Rc::clone(&workload_active);
        let me = opts.node_id;
        fm.set_peer_handler(move |ev| match ev.kind {
            fm_core::PeerEventKind::Down => {
                println!("PEER_DOWN node={me} peer={} epoch={}", ev.peer, ev.epoch);
                if active.get() {
                    panic!("node {me}: peer {} died mid-workload", ev.peer);
                }
            }
            fm_core::PeerEventKind::Rejoining => {
                println!("PEER_REJOIN node={me} peer={} epoch={}", ev.peer, ev.epoch);
            }
            _ => {}
        });
    }

    let (me, rounds) = (opts.node_id, opts.rounds as usize);
    let started = Instant::now();
    match opts.workload {
        // Node 0 drives `rounds` round trips, node 1 echoes: the harness's
        // latency shape, with both sides asserting each message's round
        // number (a duplicated or reordered delivery panics, a lost one
        // wedges the count).
        Workload::Auto if opts.nodes == 2 => {
            drive(ping_pong_program(me, fm.clone(), opts.msg_size, rounds));
        }
        // Every node streams `rounds` numbered messages to its ring
        // successor and validates the numbered stream from its predecessor.
        Workload::Auto => {
            let n = opts.nodes;
            let ring: Vec<_> = (0..n).map(|r| vec![(r + 1) % n; rounds]).collect();
            traffic(fm, opts, &ring);
        }
        Workload::Barrier => barrier_workload(fm, opts, hosts),
        Workload::Allreduce => allreduce_workload(fm, opts, hosts),
        Workload::Churn => churn_workload(fm, opts),
        Workload::Shape(shape) => shape_workload(fm, opts, shape),
    }
    let elapsed = started.elapsed();
    workload_active.set(false);

    // A peer still waiting on our last ack (or a retransmit) is not
    // abandoned; capped, so a vanished peer cannot wedge shutdown.
    quiesce(fm);

    if let Some(sink) = sink {
        let dir = opts.trace.as_deref().unwrap();
        std::fs::create_dir_all(dir).expect("create trace dir");
        let path = format!("{dir}/trace-node{}.json", opts.node_id);
        std::fs::write(&path, chrome_trace_json(&sink.events(), &[])).expect("write trace");
        println!("TRACE {path}");
    }
    elapsed
}

/// Per-operation microseconds for the workloads where node 0's wall
/// time divides cleanly by `--rounds` (ping-pong round trips, barrier
/// and allreduce operations); NaN elsewhere.
fn per_op_us(opts: &Opts, elapsed: Duration) -> f64 {
    if opts.node_id == 0
        && (opts.workload == Workload::Barrier
            || opts.workload == Workload::Allreduce
            || (opts.workload == Workload::Auto && opts.nodes == 2))
    {
        elapsed.as_secs_f64() * 1e6 / opts.rounds.max(1) as f64
    } else {
        f64::NAN
    }
}

fn run_node_udp(opts: &Opts) {
    let mut device = udp_device(opts);
    device
        .join(Duration::from_secs(opts.join_timeout_s))
        .expect("join barrier");

    // The UDP fabric's engine: adaptive reliability over a real network
    // (RTT-sampled RTO; SACK holes re-sent at once, and an AIMD send
    // window that only a retransmit timeout halves).
    let fm = Udp::default().engine(device);
    let elapsed = drive_workload(&fm, opts, None);

    let st = fm.stats();
    let udp = fm.with_device(|d| d.stats());
    let errors = fm.take_errors();
    // RTT/RTO toward the ring successor, as a representative peer.
    let probe_peer = (opts.node_id + 1) % opts.nodes;
    println!(
        "STATS node={} rounds={} elapsed_ms={:.1} rtt_us={:.2} \
         retransmits={} timeouts={} acks={} dups={} \
         frames_sent={} frames_recv={} drops_injected={} \
         suspects={} downs={} rejoins={} stale={} peer_resets={} \
         srtt_us={:.1} rto_us={:.1} errors={}",
        opts.node_id,
        opts.rounds,
        elapsed.as_secs_f64() * 1e3,
        // Per-round-trip for ping-pong; per-operation for collectives.
        per_op_us(opts, elapsed),
        st.retransmissions,
        st.retransmit_timeouts,
        st.acks_sent,
        st.duplicates_dropped,
        udp.frames_sent,
        udp.frames_received,
        udp.drops_injected,
        udp.suspects,
        udp.downs,
        udp.rejoins,
        udp.stale_rejected,
        st.peer_resets,
        fm.srtt_ns(probe_peer).map_or(f64::NAN, |n| n as f64 / 1e3),
        fm.current_rto_ns(probe_peer)
            .map_or(f64::NAN, |n| n as f64 / 1e3),
        errors.len(),
    );
    // Part on the record: a goodbye burst turns our absence from a
    // suspicion timeout into an immediate, explicit Down at the peers.
    fm.with_device(|d| d.leave());
    assert!(errors.is_empty(), "engine reported errors: {errors:?}");
}

fn run_node_shm(opts: &Opts) {
    // The spawn handshake doubles as the start barrier even though shm
    // needs no addresses; manual `node --peers` invocations skip it.
    if opts.peers.is_none() {
        let _ = stdin_handshake(opts);
    }
    let local_peers: Vec<usize> = (0..opts.nodes).filter(|&p| p != opts.node_id).collect();
    let cfg = ShmConfig {
        slots: SHM.slots,
        ..shm_cfg(opts)
    };
    let mut device =
        ShmDevice::open(opts.node_id, opts.nodes, &local_peers, cfg).expect("open shm segments");
    device
        .join(Duration::from_secs(opts.join_timeout_s))
        .expect("shm join barrier");

    // The shm fabric's engine: the rings are lossless and in-order, so
    // FM's guarantees come straight from the substrate.
    let fm = SHM.engine(device);
    let elapsed = drive_workload(&fm, opts, None);

    let sh = fm.with_device(|d| d.stats());
    let errors = fm.take_errors();
    println!(
        "STATS node={} rounds={} elapsed_ms={:.1} op_us={:.2} \
         frames_sent={} bytes_sent={} frames_recv={} bytes_recv={} \
         full_rejections={} corrupt={} errors={}",
        opts.node_id,
        opts.rounds,
        elapsed.as_secs_f64() * 1e3,
        per_op_us(opts, elapsed),
        sh.frames_sent,
        sh.bytes_sent,
        sh.frames_recv,
        sh.bytes_recv,
        sh.full_rejections,
        sh.corrupt_frames,
        errors.len(),
    );
    assert!(errors.is_empty(), "engine reported errors: {errors:?}");
}

fn run_node_routed(opts: &Opts) {
    // Default placement: first half of the ranks on host 0, second half
    // on host 1 — the canonical mixed-locality shape.
    let hosts: Vec<usize> = opts.hosts.clone().unwrap_or_else(|| {
        (0..opts.nodes)
            .map(|r| usize::from(r >= opts.nodes / 2))
            .collect()
    });
    let map = HostMap::new(hosts.clone());

    // UDP half first (it also provides the composite's clock), then the
    // shm half toward co-located ranks only. Join order is uniform
    // across ranks, so neither barrier can deadlock the other.
    let mut udp = udp_device(opts);
    udp.join(Duration::from_secs(opts.join_timeout_s))
        .expect("udp join barrier");
    let local_peers = map.local_peers(opts.node_id);
    let mut shm = ShmDevice::open(opts.node_id, opts.nodes, &local_peers, shm_cfg(opts))
        .expect("open shm segments");
    shm.join(Duration::from_secs(opts.join_timeout_s))
        .expect("shm join barrier");
    let device = RoutedDevice::new(shm, udp, map);

    // The routed fabric's engine: the cross-host half is lossy UDP, so it
    // keeps the adaptive retransmission sublayer.
    let fm = Routed {
        hosts: hosts.clone(),
    }
    .engine(device);
    // The placement feeds the hierarchy-aware collectives: barrier and
    // allreduce run leader-per-host schedules over this exact map.
    let elapsed = drive_workload(&fm, opts, Some(&hosts));

    let st = fm.stats();
    let (route, sh, udp) = fm.with_device(|d| {
        let r = d.stats();
        let s = d.local_mut().stats();
        let u = d.remote_mut().stats();
        (r, s, u)
    });
    let errors = fm.take_errors();
    println!(
        "STATS node={} rounds={} elapsed_ms={:.1} op_us={:.2} \
         local_sent={} remote_sent={} local_recv={} remote_recv={} \
         shm_frames_sent={} udp_frames_sent={} retransmits={} timeouts={} \
         errors={}",
        opts.node_id,
        opts.rounds,
        elapsed.as_secs_f64() * 1e3,
        per_op_us(opts, elapsed),
        route.local_sent,
        route.remote_sent,
        route.local_recv,
        route.remote_recv,
        sh.frames_sent,
        udp.frames_sent,
        st.retransmissions,
        st.retransmit_timeouts,
        errors.len(),
    );
    fm.with_device(|d| d.remote_mut().leave());
    assert!(errors.is_empty(), "engine reported errors: {errors:?}");
}

fn udp_cfg(opts: &Opts) -> UdpConfig {
    UdpConfig {
        epoch: opts.epoch,
        drop_outbound: opts.drop,
        drop_seed: opts.seed,
        ..UdpConfig::default()
    }
}

/// `--transport shm`'s fabric: ring depth and the credit window matched
/// to it.
const SHM: Shm = Shm::SHALLOW;

fn shm_cfg(opts: &Opts) -> ShmConfig {
    ShmConfig {
        // Every child of one spawn shares the parent's epoch stamp, so
        // segment names agree within the run and differ across runs.
        run_id: format!("cluster-{:x}", opts.epoch),
        attach_timeout: Duration::from_secs(opts.join_timeout_s),
        ..ShmConfig::default()
    }
}

/// `--rounds` dissemination barriers through the MPI-FM layer. Any
/// lost or duplicated barrier message would either wedge the run (the
/// join timeout catches it) or let a rank escape a round early, which
/// the next round's tag mismatch would surface.
fn barrier_workload<D: fm_core::NetDevice + 'static>(
    fm: &Fm2Engine<D>,
    opts: &Opts,
    hosts: Option<&[usize]>,
) {
    use mpi_fm::Mpi;
    let mut mpi = mpi_fm::Mpi2::new(fm.clone());
    mpi.set_coll_hosts(hosts.map(<[usize]>::to_vec));
    for _ in 0..opts.rounds {
        mpi.barrier();
    }
}

/// `--rounds` sum-allreduces of `--msg-size` bytes; every rank checks
/// the full result vector every round, so a single corrupted or stale
/// element anywhere in the cluster fails the run.
fn allreduce_workload<D: fm_core::NetDevice + 'static>(
    fm: &Fm2Engine<D>,
    opts: &Opts,
    hosts: Option<&[usize]>,
) {
    use mpi_fm::{Mpi, ReduceOp};
    let mut mpi = mpi_fm::Mpi2::new(fm.clone());
    mpi.set_coll_hosts(hosts.map(<[usize]>::to_vec));
    let elems = (opts.msg_size / 8).max(1);
    let n = opts.nodes;
    for round in 0..opts.rounds as usize {
        let contrib: Vec<u8> = (0..elems)
            .map(|j| ((j % 5 + 1) * (opts.node_id + 1) + round % 3) as f64)
            .flat_map(f64::to_le_bytes)
            .collect();
        let out = mpi.allreduce(&contrib, ReduceOp::SumF64);
        for (j, c) in out.chunks_exact(8).enumerate() {
            let want: f64 = (0..n)
                .map(|r| ((j % 5 + 1) * (r + 1) + round % 3) as f64)
                .sum();
            let got = f64::from_le_bytes(c.try_into().expect("8-byte element"));
            assert_eq!(got, want, "allreduce round {round} elem {j}");
        }
    }
}

/// Churn-tolerant all-to-all: every node streams `rounds` numbered
/// messages to every peer it currently believes alive, paced ~1ms per
/// round so a kill lands mid-stream. Receivers validate the stream
/// *per incarnation*: within one incarnation of a peer the round
/// numbers must be exactly contiguous (the reliability sublayer's
/// zero-loss, in-order guarantee), and a `Rejoining` event resets the baseline —
/// the restarted sender legitimately starts over from round 0.
/// Steady peers (never down, never rejoined, seen by a node that was
/// itself present from the start) must deliver their *entire* stream:
/// zero FM-level loss among survivors, by assertion.
fn churn_workload<D: fm_core::NetDevice + 'static>(fm: &Fm2Engine<D>, opts: &Opts) {
    use fm_core::PeerEventKind;
    use std::cell::RefCell;
    use std::rc::Rc;
    let n = opts.nodes;
    let me = opts.node_id;
    let rounds = opts.rounds;
    // expected[p]: the next round number we demand from p's current
    // incarnation (None = no baseline yet — first message sets it, since
    // a node that joined late tunes in mid-stream).
    let expected: Rc<RefCell<Vec<Option<u32>>>> = Rc::new(RefCell::new(vec![None; n]));
    let down: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(vec![false; n]));
    let churned: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(vec![false; n]));
    {
        let expected = Rc::clone(&expected);
        let down = Rc::clone(&down);
        let churned = Rc::clone(&churned);
        fm.set_peer_handler(move |ev| match ev.kind {
            PeerEventKind::Down => {
                down.borrow_mut()[ev.peer] = true;
                churned.borrow_mut()[ev.peer] = true;
                println!("PEER_DOWN node={me} peer={} epoch={}", ev.peer, ev.epoch);
            }
            PeerEventKind::Rejoining => {
                down.borrow_mut()[ev.peer] = false;
                churned.borrow_mut()[ev.peer] = true;
                expected.borrow_mut()[ev.peer] = None;
                println!("PEER_REJOIN node={me} peer={} epoch={}", ev.peer, ev.epoch);
            }
            _ => {}
        });
    }
    {
        let expected = Rc::clone(&expected);
        fm.set_handler(PING, move |stream, src| {
            let expected = Rc::clone(&expected);
            async move {
                let mut hdr = [0u8; 4];
                stream.receive(&mut hdr).await;
                stream.skip(stream.remaining()).await;
                let round = u32::from_le_bytes(hdr);
                let mut exp = expected.borrow_mut();
                if let Some(want) = exp[src] {
                    assert_eq!(round, want, "stream from {src} broke in-incarnation order");
                }
                exp[src] = Some(round + 1);
            }
        });
    }
    let body = vec![me as u8; opts.msg_size - 4];
    for round in 0..rounds {
        for p in (0..n).filter(|&p| p != me) {
            if down.borrow()[p] {
                continue; // terminal for that incarnation; skip the corpse
            }
            fm2_send(fm, p, PING, &[&round.to_le_bytes(), &body]);
        }
        let pace = Instant::now();
        while pace.elapsed() < Duration::from_millis(1) {
            fm.extract_all();
            fm.progress();
        }
    }
    // Run to completion: every peer has either delivered its final round
    // (under whatever incarnation it currently runs) or gone down. The
    // deadline turns a wedge into a diagnosable failure instead of a
    // hang for the parent to reap.
    let deadline = Instant::now() + Duration::from_secs(opts.join_timeout_s.max(20));
    loop {
        let done = (0..n)
            .filter(|&p| p != me)
            .all(|p| down.borrow()[p] || expected.borrow()[p] == Some(rounds));
        if done {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "node {me}: churn drain timed out; expected={:?} down={:?}",
            expected.borrow(),
            down.borrow()
        );
        fm.extract_all();
        fm.progress();
        std::thread::yield_now();
    }
    if !opts.rejoin {
        for p in (0..n).filter(|&p| p != me) {
            if !churned.borrow()[p] {
                assert_eq!(
                    expected.borrow()[p],
                    Some(rounds),
                    "lost FM-level messages from steady peer {p}"
                );
            }
        }
    }
}

/// This node's rank of a scheduled traffic pattern (`schedules[r]` is rank
/// `r`'s destinations in send order), as the harness's program: every
/// rank replays every schedule, so per-channel arrival order is checked
/// against the replay and the rank knows how many messages it is owed.
/// Stamps carry `CLOCK_REALTIME` nanoseconds, comparable across processes
/// on one host.
fn traffic<D: fm_core::NetDevice + 'static>(
    fm: &Fm2Engine<D>,
    opts: &Opts,
    schedules: &[Vec<usize>],
) -> RankReport {
    // A process sees its own rank only: it leaves once everything owed
    // here has arrived and everything it sent is acknowledged; the linger
    // keeps it answering peers that are not there yet.
    let mine_done = |mine: RankProgress| mine.delivered >= mine.expected && mine.unacked == 0;
    let (me, size, clock) = (opts.node_id, opts.msg_size, std::rc::Rc::new(realtime_ns));
    let program = traffic_program(me, fm.clone(), schedules, size, None, clock, mine_done);
    drive(program)
}

/// Drive one seeded adversarial shape from [`fm_model::workload`] across
/// the cluster and print this node's one-way latency tail as a `WORKLOAD`
/// line.
fn shape_workload<D: fm_core::NetDevice + 'static>(fm: &Fm2Engine<D>, opts: &Opts, shape: Shape) {
    let rounds = opts.rounds as usize;
    let spec = WorkloadSpec::new(shape, opts.nodes, rounds, opts.msg_size, opts.seed);
    let schedules: Vec<_> = (0..opts.nodes).map(|r| spec.schedule(r)).collect();
    let report = traffic(fm, opts, &schedules);
    let h = &report.latency_ns;
    println!(
        "WORKLOAD node={} shape={} sent={} delivered={} p50_ns={} p99_ns={} p999_ns={}",
        opts.node_id,
        shape.name(),
        report.sent,
        h.count(),
        h.p50(),
        h.p99(),
        h.p999(),
    );
}

/// `CLOCK_REALTIME` now, in nanoseconds since the Unix epoch.
fn realtime_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos() as u64
}
