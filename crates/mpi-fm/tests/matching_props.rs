//! Property battery over MPI matching: random posting orders, wildcard
//! patterns, message interleavings, payload sizes on both sides of the
//! eager/rendezvous boundary, and extract pacing, asserting the envelope
//! invariants that every MPI implementation must keep:
//!
//! * **No lost or duplicated envelopes** — the delivered multiset of
//!   `(source, tag, sequence, payload)` equals the sent multiset
//!   exactly.
//! * **FIFO per (source, tag)** — among the receives that matched
//!   messages of one `(source, tag)` class, posting order equals
//!   sequence order (MPI's non-overtaking rule).
//! * **Pattern soundness** — a receive only ever completes with a
//!   message its `(source?, tag?)` pattern matches.
//!
//! Seeded and deterministic (`PROPTEST_CASES` scales the battery, as in
//! the other property suites). Each case picks one wildcard *mode* under
//! which completion is guaranteed by counting (fully specific patterns,
//! fully wildcard, source-wildcard-per-tag, or tag-wildcard-per-source);
//! arbitrary mixes of wildcards can starve a specific receive by
//! construction, which is an application error, not a matching bug.

use std::collections::HashMap;

use fm_core::device::{LoopbackDevice, LoopbackPair};
use fm_core::onesided::CHUNK_BYTES;
use fm_core::Fm2Engine;
use fm_model::rng::{env_cases, DetRng};
use fm_model::MachineProfile;
use mpi_fm::{Mpi, Mpi2, RecvReq};

fn pair() -> (Mpi2<LoopbackDevice>, Mpi2<LoopbackDevice>) {
    let (a, b) = LoopbackPair::new(64);
    let p = MachineProfile::ppro200_fm2();
    (
        Mpi2::new(Fm2Engine::new(a, p)),
        Mpi2::new(Fm2Engine::new(b, p)),
    )
}

fn pump(a: &mut Mpi2<LoopbackDevice>, b: &mut Mpi2<LoopbackDevice>) {
    for _ in 0..4 {
        a.progress();
        b.progress();
        let fa = a.fm().clone();
        let fb = b.fm().clone();
        fa.with_device(|da| fb.with_device(|db| LoopbackPair::deliver(da, db)));
    }
    a.progress();
    b.progress();
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    /// Every receive fully specifies `(source, tag)`.
    Specific,
    /// Every receive is `(ANY_SOURCE, ANY_TAG)`.
    Wildcard,
    /// Source wildcard, tag pinned.
    AnySource,
    /// Tag wildcard, source pinned.
    AnyTag,
}

struct SentMsg {
    src: usize,
    tag: u32,
    seq: u8,
    payload: Vec<u8>,
}

const MAX_LEN: usize = 2 * CHUNK_BYTES;

fn run_case(rng: &mut DetRng) {
    let (mut s, mut r) = pair();

    // Sometimes big payloads straddle the one-sided chunk, so a remote
    // send of one is a rendezvous; sometimes the receiver paces — matching
    // must be invariant to both.
    let big = if rng.chance(0.3) {
        CHUNK_BYTES - 4000..CHUNK_BYTES + 4000
    } else {
        1000..6000
    };
    if rng.chance(0.3) {
        r.set_extract_budget(rng.range_usize(256, 4096));
    }

    let num_tags = rng.range_usize(1, 4) as u32;
    let num_msgs = rng.range_usize(1, 16);
    let mode = match rng.below(4) {
        0 => Mode::Specific,
        1 => Mode::Wildcard,
        2 => Mode::AnySource,
        _ => Mode::AnyTag,
    };

    // Generate messages; sequence numbers count per (source, tag) class.
    // Source 0 is the remote sender, source 1 the receiver's self-sends.
    let mut seqs: HashMap<(usize, u32), u8> = HashMap::new();
    let msgs: Vec<SentMsg> = (0..num_msgs)
        .map(|_| {
            let src = if rng.chance(0.3) { 1 } else { 0 };
            let tag = rng.below(num_tags as u64) as u32;
            let seq = {
                let c = seqs.entry((src, tag)).or_insert(0);
                let v = *c;
                *c += 1;
                v
            };
            let extra = if rng.chance(0.1) {
                rng.range_usize(big.start, big.end) // multi-packet, maybe rendezvous
            } else {
                rng.range_usize(0, 64)
            };
            let mut payload = vec![src as u8, tag as u8, seq];
            payload.extend_from_slice(&rng.bytes(extra));
            SentMsg {
                src,
                tag,
                seq,
                payload,
            }
        })
        .collect();

    // One receive pattern per message, then shuffle the posting order.
    let mut patterns: Vec<(Option<usize>, Option<u32>)> = msgs
        .iter()
        .map(|m| match mode {
            Mode::Specific => (Some(m.src), Some(m.tag)),
            Mode::Wildcard => (None, None),
            Mode::AnySource => (None, Some(m.tag)),
            Mode::AnyTag => (Some(m.src), None),
        })
        .collect();
    rng.shuffle(&mut patterns);

    // Interleave posts, sends, and pumps in a random schedule. Sends
    // stay in generation order (that is what defines the sequence
    // numbers); posts may land before, between, or after them.
    #[derive(Clone, Copy)]
    enum Op {
        Post(usize),
        Send(usize),
    }
    let mut schedule: Vec<Op> = Vec::new();
    {
        let mut p = 0;
        let mut m = 0;
        while p < patterns.len() || m < msgs.len() {
            let pick_post = m >= msgs.len() || (p < patterns.len() && rng.chance(0.5));
            if pick_post {
                schedule.push(Op::Post(p));
                p += 1;
            } else {
                schedule.push(Op::Send(m));
                m += 1;
            }
        }
    }

    type Pattern = (Option<usize>, Option<u32>);
    let mut recvs: Vec<(Pattern, RecvReq)> = Vec::new();
    for op in schedule {
        match op {
            Op::Post(i) => {
                let (src, tag) = patterns[i];
                let req = r.irecv(src, tag, MAX_LEN);
                recvs.push(((src, tag), req));
            }
            Op::Send(i) => {
                let m = &msgs[i];
                if m.src == 0 {
                    s.isend(1, m.tag, m.payload.clone());
                } else {
                    r.isend(1, m.tag, m.payload.clone());
                }
            }
        }
        if rng.chance(0.3) {
            pump(&mut s, &mut r);
        }
    }

    // Drive to quiescence.
    let mut spins = 0;
    while !recvs.iter().all(|(_, req)| req.is_done()) {
        pump(&mut s, &mut r);
        spins += 1;
        assert!(
            spins < 500,
            "matching wedged: mode {mode:?}, {} of {} receives incomplete",
            recvs.iter().filter(|(_, req)| !req.is_done()).count(),
            recvs.len()
        );
    }

    // Pattern soundness + FIFO per (source, tag) in posting order.
    let mut delivered: HashMap<(usize, u32, u8), Vec<u8>> = HashMap::new();
    let mut last_seq: HashMap<(usize, u32), u8> = HashMap::new();
    for ((want_src, want_tag), req) in &recvs {
        let status = req.status().expect("done");
        let data = req.take().expect("done");
        assert!(data.len() >= 3, "identifying prefix intact");
        let (src, tag, seq) = (data[0] as usize, data[1] as u32, data[2]);
        assert_eq!((status.src, status.tag), (src, tag), "status envelope");
        assert_eq!(status.len, data.len(), "status length");
        if let Some(ws) = want_src {
            assert_eq!(*ws, src, "source pattern violated");
        }
        if let Some(wt) = want_tag {
            assert_eq!(*wt, tag, "tag pattern violated");
        }
        if let Some(prev) = last_seq.get(&(src, tag)) {
            assert!(
                seq > *prev,
                "FIFO violated for (src {src}, tag {tag}): seq {seq} after {prev}"
            );
        }
        last_seq.insert((src, tag), seq);
        let dup = delivered.insert((src, tag, seq), data);
        assert!(
            dup.is_none(),
            "duplicate envelope (src {src}, tag {tag}, seq {seq})"
        );
    }

    // No lost envelopes, no corruption.
    assert_eq!(delivered.len(), msgs.len(), "every message delivered once");
    for m in &msgs {
        let got = delivered.get(&(m.src, m.tag, m.seq)).unwrap_or_else(|| {
            panic!(
                "lost envelope (src {}, tag {}, seq {})",
                m.src, m.tag, m.seq
            )
        });
        assert_eq!(*got, m.payload, "payload intact");
    }

    // The FM layer reported no errors on either side.
    assert!(s.fm().take_errors().is_empty(), "sender FM errors");
    assert!(r.fm().take_errors().is_empty(), "receiver FM errors");
}

#[test]
fn matching_invariants_hold_under_random_orders() {
    let cases = env_cases(256);
    for case in 0..cases {
        let mut rng =
            DetRng::seed_from_u64(0x5EED_0A7C ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        run_case(&mut rng);
    }
}
