//! Cross-transport one-sided conformance: the same put/get script,
//! bit-identical everywhere.
//!
//! Every rank runs an identical poll-driven script against the
//! `fm_core::onesided` port: six content puts from one byte to ten chunks
//! (the ten-chunk put is issued *first*, and completions must come back
//! in exactly the order the puts were issued), three refused puts
//! (out-of-bounds in one packet, dangling handle, out-of-bounds over two
//! chunks), two gets that read back
//! what the rank just put, and landing verification of everything the
//! upstream neighbor wrote into this rank's arena. Each rank renders its
//! observations as a deterministic `Vec<String>`, and the battery
//! requires rank-for-rank equality across every [`Fabric`] — the virtual
//! simulator, the in-process threaded mesh, loopback UDP (with the
//! retransmit sublayer), `fm-shm` mapped rings, and the routed shm + UDP
//! composite — plus equality with the script's computed expectation.
//! Transports may change how bytes travel, never what a one-sided op
//! does — and how they travel is pinned too: on the same-host fabrics
//! the ops longer than a chunk are read out of the peer's memory, on
//! the simulator and UDP they stream as packets.

use std::collections::HashMap;

use fm_bench::fabric::{Fabric, Routed, Shm, Sim, Step, Threads, Udp};
use fm_core::{NetDevice, Onesided, OnesidedConfig, OsPort, OsStatus, OsToken, RegionHandle};
use fm_model::MachineProfile;

const N: usize = 4;

/// Arena layout: done flags in the first `N` bytes, then one 40 KiB
/// landing slot per content put starting at `PUT_BASE`. Each rank only
/// receives content puts from its upstream neighbor `(rank - 1) % N`,
/// so the slots never need a per-source dimension.
const ARENA: usize = 256 * 1024;
const PUT_BASE: usize = 4096;
const SLOT: usize = 40 * 1024;

/// Content put sizes: one byte, one packet, around half a chunk, two
/// whole chunks, and ten chunks ending in a runt (40000 bytes over
/// 4096-byte segments).
const SIZES: [usize; 6] = [1, 1024, 2048, 2049, 8192, 40000];

fn slot_off(k: usize) -> usize {
    PUT_BASE + k * SLOT
}

fn script_cfg() -> OnesidedConfig {
    OnesidedConfig {
        arena_bytes: ARENA,
        chunk_bytes: 4096,
    }
}

/// Slot 0, epoch 0 on a fresh table: every rank registers its whole
/// arena first thing, so peers can name it without a handshake.
fn arena_handle() -> RegionHandle {
    RegionHandle { index: 0, epoch: 0 }
}

/// Deterministic nonzero fill for the put from `src`, slot `k`.
fn pattern_byte(src: usize, k: usize, i: usize) -> u8 {
    ((src * 31 + k * 7 + i) % 251 + 1) as u8
}

fn pattern(src: usize, k: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| pattern_byte(src, k, i)).collect()
}

/// FNV-1a 64-bit, for content fingerprints in the rank outputs.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

const PUT_LABELS: [&str; 6] = ["put_k0", "put_k1", "put_k2", "put_k3", "put_k4", "put_k5"];
const FAIL_LABELS: [&str; 3] = ["fail_oob_small", "fail_badhandle", "fail_oob_large"];

/// The per-rank script, written as a poll-driven state machine so it is
/// a rank program of any fabric. One `step` does
/// all work currently possible; after it returns, nothing more can
/// happen until new packets arrive (which is exactly the simulator's
/// `Wait` wake-up contract).
struct OsScript {
    rank: usize,
    port: OsPort,
    out: Vec<String>,
    labels: HashMap<OsToken, &'static str>,
    status: HashMap<&'static str, OsStatus>,
    issue_order: Vec<&'static str>,
    completion_order: Vec<&'static str>,
    puts_issued: bool,
    gets: Option<[(OsToken, RegionHandle); 2]>,
    get_crc: [Option<u64>; 2],
    recv_crc: [Option<u64>; 6],
    done_flags_sent: bool,
    finished: bool,
}

impl OsScript {
    fn new(rank: usize, os: &Onesided<impl NetDevice>) -> Self {
        let port = os.port();
        let h = port.register(0, ARENA).expect("arena registration");
        assert_eq!(h, arena_handle());
        let mut out = Vec::new();
        // The refusals are part of the conformance surface: a second
        // window over already-registered bytes and a window past the
        // arena end must both be rejected, identically everywhere.
        out.push(match port.register(PUT_BASE, 64) {
            Err(e) => format!("reg_overlap:{e:?}"),
            Ok(h) => format!("reg_overlap:accepted {h:?}"),
        });
        out.push(match port.register(ARENA - 10, 100) {
            Err(e) => format!("reg_oob:{e:?}"),
            Ok(h) => format!("reg_oob:accepted {h:?}"),
        });
        OsScript {
            rank,
            port,
            out,
            labels: HashMap::new(),
            status: HashMap::new(),
            issue_order: Vec::new(),
            completion_order: Vec::new(),
            puts_issued: false,
            gets: None,
            get_crc: [None; 2],
            recv_crc: [None; 6],
            done_flags_sent: false,
            finished: false,
        }
    }

    fn dst(&self) -> usize {
        (self.rank + 1) % N
    }

    fn src(&self) -> usize {
        (self.rank + N - 1) % N
    }

    /// Drain completions and run every state transition that has become
    /// possible. Caller must turn the engine (`fm.progress()`) afterwards
    /// so anything issued here hits the wire before the driver sleeps.
    fn step(&mut self) {
        if self.finished {
            return;
        }
        while let Some(c) = self.port.poll_completion() {
            let label = *self.labels.get(&c.token).expect("completion for known op");
            match label {
                "get_k2" | "get_k5" => {
                    assert_eq!(c.status, OsStatus::Ok, "{label} failed");
                    let slot = if label == "get_k2" { 0 } else { 1 };
                    let (_, local_h) = self.gets.expect("gets issued")[slot];
                    let len = if slot == 0 { SIZES[2] } else { SIZES[5] };
                    let mut buf = vec![0u8; len];
                    self.port
                        .read_local(local_h, 0, &mut buf)
                        .expect("get buffer read");
                    self.get_crc[slot] = Some(fnv(&buf));
                }
                "done" => {}
                _ => {
                    self.status.insert(label, c.status);
                    self.completion_order.push(label);
                }
            }
        }

        if !self.puts_issued {
            self.issue_puts();
            self.puts_issued = true;
        }
        if self.gets.is_none() && self.status.len() == PUT_LABELS.len() + FAIL_LABELS.len() {
            self.issue_gets();
        }
        self.poll_landings();
        if !self.done_flags_sent
            && self.get_crc.iter().all(Option::is_some)
            && self.recv_crc.iter().all(Option::is_some)
        {
            // One flag byte to every peer; peers may exit before these
            // complete, so the completions are deliberately not awaited
            // (the post-script drain settles transport-level acks).
            for peer in (0..N).filter(|&p| p != self.rank) {
                let t = self
                    .port
                    .put(peer, arena_handle(), self.rank as u64, &[0xFF]);
                self.labels.insert(t, "done");
            }
            self.done_flags_sent = true;
        }
        if self.done_flags_sent && self.all_flags_seen() {
            self.finish();
        }
    }

    fn issue_put(&mut self, label: &'static str, h: RegionHandle, off: usize, data: &[u8]) {
        let t = self.port.put(self.dst(), h, off as u64, data);
        self.labels.insert(t, label);
        self.issue_order.push(label);
    }

    fn issue_puts(&mut self) {
        // The ten-chunk put goes first; nothing issued behind it may
        // complete before it.
        for k in [5usize, 0, 1, 2, 3, 4] {
            let data = pattern(self.rank, k, SIZES[k]);
            self.issue_put(PUT_LABELS[k], arena_handle(), slot_off(k), &data);
        }
        // Refused ops: past the region end in one packet and over two
        // chunks, and a slot that was never registered.
        self.issue_put(FAIL_LABELS[0], arena_handle(), ARENA - 50, &[0xAA; 100]);
        let bad = RegionHandle {
            index: 99,
            epoch: 0,
        };
        self.issue_put(FAIL_LABELS[1], bad, 0, &[0xBB; 16]);
        self.issue_put(FAIL_LABELS[2], arena_handle(), ARENA - 50, &[0xCC; 5000]);
    }

    /// Read back, over the wire, what this rank just put into the
    /// neighbor's arena: one half-chunk get and one multi-chunk get.
    fn issue_gets(&mut self) {
        let dst = self.dst();
        let mut gets = [(OsToken(0), arena_handle()); 2];
        for (slot, k) in [(0usize, 2usize), (1, 5)] {
            let local_h = self
                .port
                .register_owned(vec![0u8; SIZES[k]])
                .expect("get buffer");
            let t = self
                .port
                .get(
                    dst,
                    arena_handle(),
                    slot_off(k) as u64,
                    local_h,
                    0,
                    SIZES[k],
                )
                .expect("issue get");
            self.labels
                .insert(t, if slot == 0 { "get_k2" } else { "get_k5" });
            gets[slot] = (t, local_h);
        }
        self.gets = Some(gets);
    }

    /// Detect upstream landings by polling each slot's *last* byte
    /// (a put's chunks stream in order, so the last byte lands last),
    /// then fingerprint the whole slot.
    fn poll_landings(&mut self) {
        let src = self.src();
        for (k, &len) in SIZES.iter().enumerate() {
            if self.recv_crc[k].is_some() {
                continue;
            }
            let mut last = [0u8; 1];
            self.port
                .read_local(arena_handle(), slot_off(k) + len - 1, &mut last)
                .expect("landing probe");
            if last[0] == pattern_byte(src, k, len - 1) {
                let mut buf = vec![0u8; len];
                self.port
                    .read_local(arena_handle(), slot_off(k), &mut buf)
                    .expect("landing read");
                self.recv_crc[k] = Some(fnv(&buf));
            }
        }
    }

    fn all_flags_seen(&self) -> bool {
        let mut flags = [0u8; N];
        self.port
            .read_local(arena_handle(), 0, &mut flags)
            .expect("flag read");
        (0..N).filter(|&p| p != self.rank).all(|p| flags[p] == 0xFF)
    }

    /// Assemble the deterministic output in fixed label order; the
    /// ordering fact every transport must agree on — completions toward
    /// one target arrive in issue order — is recorded as a line.
    fn finish(&mut self) {
        for label in PUT_LABELS.iter().chain(FAIL_LABELS.iter()) {
            let s = self.status.get(label).expect("all puts completed");
            self.out.push(format!("{label}:{s:?}"));
        }
        self.out.push(format!(
            "fifo:{}",
            self.completion_order == self.issue_order
        ));
        self.out
            .push(format!("get_k2:{:016x}", self.get_crc[0].unwrap()));
        self.out
            .push(format!("get_k5:{:016x}", self.get_crc[1].unwrap()));
        for (k, crc) in self.recv_crc.iter().enumerate() {
            self.out.push(format!("recv_k{k}:{:016x}", crc.unwrap()));
        }
        // The refused puts aimed at the arena tail; their refusal must
        // have left those bytes untouched. Checked only now, when the
        // upstream neighbor's whole script is known to have completed.
        let mut tail = [0u8; 50];
        self.port
            .read_local(arena_handle(), ARENA - 50, &mut tail)
            .expect("tail read");
        self.out
            .push(format!("tail_clean:{}", tail.iter().all(|&b| b == 0)));
        self.finished = true;
    }
}

/// What every transport must produce for `rank`, computed from first
/// principles (so four transports agreeing on a wrong answer still
/// fails).
fn expected_outputs(rank: usize) -> Vec<String> {
    let src = (rank + N - 1) % N;
    let mut out = vec!["reg_overlap:Overlap".into(), "reg_oob:OutOfBounds".into()];
    for label in PUT_LABELS {
        out.push(format!("{label}:Ok"));
    }
    out.push("fail_oob_small:OutOfBounds".into());
    out.push("fail_badhandle:BadHandle".into());
    out.push("fail_oob_large:OutOfBounds".into());
    out.push("fifo:true".into());
    out.push(format!("get_k2:{:016x}", fnv(&pattern(rank, 2, SIZES[2]))));
    out.push(format!("get_k5:{:016x}", fnv(&pattern(rank, 5, SIZES[5]))));
    for (k, &len) in SIZES.iter().enumerate() {
        out.push(format!("recv_k{k}:{:016x}", fnv(&pattern(src, k, len))));
    }
    out.push("tail_clean:true".into());
    out
}

/// The bytes `rank` must have read out of a peer's memory: how the
/// script's ops longer than a chunk travelled. Fabrics may differ here
/// and nowhere else.
type Pulled = fn(usize) -> u64;

/// The content puts longer than a chunk that a rank receives (the
/// refused one never reads), and its get longer than a chunk.
fn long_puts() -> u64 {
    let chunk = script_cfg().chunk_bytes;
    SIZES.iter().filter(|&&len| len > chunk).sum::<usize>() as u64
}

fn long_get() -> u64 {
    SIZES[5] as u64
}

/// Simulator and UDP: every byte streams as packets.
fn none(_: usize) -> u64 {
    0
}

/// Every rank's neighbors share its host: each reads its upstream
/// neighbor's long puts and its own long get out of the peer.
fn all_local(_: usize) -> u64 {
    long_puts() + long_get()
}

/// Run the script on every rank of `fabric` as a poll-step program and
/// require every rank's computed expectation, with no engine error, and
/// the bytes it must have `pulled`. A rank is done once its script has
/// finished *and* everything the one-sided layer queued (the done flags,
/// acks for the neighbor's puts) is on the wire — `at_end` then looks at
/// its device; the fabric keeps it serviced until the wire is quiet, so
/// peers still mid-script get their acks and retransmissions.
fn outputs<F: Fabric>(
    transport: &str,
    fabric: &F,
    pulled: Pulled,
    at_end: fn(usize, &mut F::Dev),
) -> Vec<Vec<String>> {
    let results = fabric.run(N, |rank, fm| {
        let mut os = Onesided::new(&fm, script_cfg());
        let mut script = OsScript::new(rank, &os);
        Box::new(move || {
            let moved = fm.extract_all() > 0;
            os.progress();
            script.step();
            // Anything the step issued must hit the wire before the rank
            // parks — a parked rank wakes on *new* activity only.
            fm.progress();
            let flushed = os.progress();
            if !(script.finished && flushed) {
                return Step::pending(moved);
            }
            assert!(fm.take_errors().is_empty(), "rank {rank} engine errors");
            assert_eq!(os.pull_declines(), 0, "rank {rank}: a pull was declined");
            fm.with_device(|dev| at_end(rank, dev));
            Step::Done((script.out.clone(), os.pulled_bytes()))
        })
    });
    let mut outs = Vec::new();
    for (rank, (got, read)) in results.into_iter().enumerate() {
        let want = expected_outputs(rank);
        assert_eq!(got, want, "{transport} rank {rank} diverged");
        assert_eq!(read, pulled(rank), "{transport} rank {rank}: bytes pulled");
        outs.push(got);
    }
    outs
}

fn sim() -> Sim {
    Sim::new(MachineProfile::ppro200_fm2())
}

// Same-host fabrics pull (the ranks are threads of this process, which
// may always read itself); the simulator and UDP never do. A fabric that
// silently changed path fails here, on the byte count.

#[test]
fn sim_matches_expectation() {
    outputs("sim", &sim(), none, |_, _| ());
}

#[test]
fn threaded_matches_expectation() {
    outputs("threaded", &Threads, all_local, |_, _| ());
}

#[test]
fn udp_matches_expectation() {
    outputs("udp", &Udp::default(), none, |_, _| ());
}

#[test]
fn shm_matches_expectation() {
    outputs("shm", &Shm::DEEP, all_local, |_, _| ());
}

#[test]
fn all_transports_bit_identical() {
    // The decisive check: rank-for-rank equality of the raw outputs
    // across all five substrates, not merely each one matching the
    // expectation (pins transport-independence directly, including any
    // formatting the per-transport asserts might normalize away).
    let reference = outputs("sim", &sim(), none, |_, _| ());
    let same = |transport: &str, got| assert_eq!(reference, got, "sim vs {transport} diverged");
    same(
        "threaded",
        outputs("threaded", &Threads, all_local, |_, _| ()),
    );
    same("udp", outputs("udp", &Udp::default(), none, |_, _| ()));
    same("shm", outputs("shm", &Shm::DEEP, all_local, |_, _| ()));
    // Two hosts of two ranks: each rank's downstream neighbor and the
    // peers it flags are split between its own host and the other, so
    // every rank must have used both halves of the routed device — and
    // each pulls only from its same-host neighbor: ranks 1 and 3 the
    // puts from upstream, ranks 0 and 2 their gets from downstream.
    let routed = outputs(
        "routed",
        &Routed::blocks(2, 2),
        |rank| match rank % 2 {
            1 => long_puts(),
            _ => long_get(),
        },
        |rank, dev| {
            let route = dev.stats();
            assert!(route.local_sent > 0, "rank {rank} sent nothing over shm");
            assert!(route.remote_sent > 0, "rank {rank} sent nothing over UDP");
        },
    );
    same("routed", routed);
}
