//! Seeded property tests for the SPSC ring and segment protocols: the
//! invariants a shared-memory transport lives or dies by. Scale the
//! case count with `PROPTEST_CASES`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use fm_model::rng::{env_cases, DetRng};
use fm_shm::ring::{stamp, RawRing};
use fm_shm::{SegGeometry, Segment};

/// One cache line of ring storage: rings want a 64-byte aligned base.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Line([u32; 16]);

/// A heap-backed ring whose storage outlives the view.
struct OwnedRing {
    _buf: Vec<Line>,
    ring: RawRing,
}

/// A ring whose two cursors both start at `start` (the layout puts
/// `head` in the first word of line 0 and `tail` in the first of line 1).
fn owned_from(start: u32, slots: u32, payload: u32) -> OwnedRing {
    let bytes = RawRing::bytes_for(slots, payload);
    let mut buf = vec![Line([0; 16]); bytes.div_ceil(64)];
    buf[0].0[0] = start;
    buf[1].0[0] = start;
    let ring = unsafe { RawRing::at(buf.as_mut_ptr() as *mut u8, slots, payload) };
    OwnedRing { _buf: buf, ring }
}

fn owned(slots: u32, payload: u32) -> OwnedRing {
    owned_from(0, slots, payload)
}

fn push(ring: &RawRing, body: &[u8]) -> bool {
    ring.try_push(|slot| {
        slot[..body.len()].copy_from_slice(body);
        Some(body.len())
    })
    .is_some()
}

fn test_dir() -> std::path::PathBuf {
    std::env::temp_dir()
}

fn unique_run(tag: &str) -> String {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!(
        "prop-{tag}{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    )
}

/// Random interleavings of pushes and pops never lose, duplicate, or
/// reorder a frame, and full/empty boundary answers always match a
/// model queue — including across many times the ring's capacity, so
/// the cursors wrap the slot index repeatedly. The model also keeps the
/// consumer's open batch: slots it has retired but not yet handed back,
/// which the producer must not see as free (`head_batch()`; returned
/// when the batch fills or a pop finds the ring empty).
#[test]
fn prop_ring_matches_model_queue_across_wraparound() {
    let cases = env_cases(40);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x51_C0FFEE ^ case as u64);
        let slots = [1u32, 2, 4, 8, 16][rng.range_usize(0, 5)];
        let r = owned(slots, 32);
        let batch = r.ring.head_batch() as usize;
        let mut model: std::collections::VecDeque<Vec<u8>> = Default::default();
        let mut held = 0usize;
        let mut next_id: u64 = 0;
        // Enough operations to lap the ring many times over.
        for _ in 0..(slots as usize * 40) {
            let free = slots as usize - model.len() - held;
            assert_eq!(r.ring.free(), free, "free slots short by the open batch");
            if rng.chance(0.55) {
                let body = {
                    let extra = rng.range_usize(0, 24);
                    let mut b = next_id.to_le_bytes().to_vec();
                    b.extend_from_slice(&rng.bytes(extra));
                    b
                };
                let pushed = push(&r.ring, &body);
                if free == 0 {
                    assert!(!pushed, "full ring must reject");
                } else {
                    assert!(pushed, "non-full ring must accept");
                    model.push_back(body);
                    next_id += 1;
                }
            } else {
                let got = r.ring.try_pop(|f| f.to_vec());
                match model.pop_front() {
                    Some(expect) => {
                        assert_eq!(got.as_deref(), Some(&expect[..]), "FIFO order, exact bytes");
                        held = (held + 1) % batch;
                    }
                    None => {
                        assert!(got.is_none(), "empty ring must report empty");
                        held = 0;
                    }
                }
            }
        }
    }
}

/// The stamp encoding as a pure function: never zero (so a zero-filled
/// slot is empty whatever cursor the consumer is at) and never the stamp
/// the same slot carried a lap earlier — exhaustively either side of the
/// `u32` wrap, then on a million seeded cursors at every legal ring size.
#[test]
fn prop_stamp_is_never_zero_and_never_the_previous_laps() {
    let check = |c: u32, slots: u32| {
        assert_ne!(stamp(c), 0, "cursor {c:#x}");
        assert_ne!(
            stamp(c),
            stamp(c.wrapping_sub(slots)),
            "cursor {c:#x}, {slots} slots"
        );
    };
    for slots in [1u32, 4, 64] {
        for back in 0..=4 * slots {
            check(u32::MAX - back, slots);
            check(back, slots);
        }
    }
    let mut rng = DetRng::seed_from_u64(0x57A3B);
    for _ in 0..1_000_000 {
        let slots = 1u32 << rng.below(31); // 1 ..= 2^30, the most `at` takes
        check(rng.next_u64() as u32, slots);
    }
}

/// A fresh, zero-filled ring is empty wherever its cursors start — also
/// at the one cursor whose stamp would be zero were it the cursor plus
/// one — and the first frame pushed is the first frame popped. Then two
/// full laps, so every slot is read once holding nothing and once
/// holding the stamp of the lap before.
#[test]
fn a_zero_filled_ring_is_empty_at_every_cursor_around_the_wrap() {
    for slots in [1u32, 4, 64] {
        let starts = (0..=2 * slots).flat_map(|d| [u32::MAX - d, d]);
        for start in starts {
            let r = owned_from(start, slots, 16);
            let ring = &r.ring;
            assert!(ring.try_pop(|_| ()).is_none(), "fresh ring at {start:#x}");
            let mut next = 0u32;
            for lap in 0..2 {
                for i in 0..slots {
                    assert!(push(ring, &(lap * slots + i).to_le_bytes()));
                }
                assert!(!push(ring, &[0; 4]), "full at {start:#x}");
                for _ in 0..slots {
                    let got = ring.try_pop(|f| u32::from_le_bytes(f.try_into().unwrap()));
                    assert_eq!(got, Some(next), "start {start:#x}, {slots} slots");
                    next += 1;
                }
                assert!(ring.try_pop(|_| ()).is_none(), "drained at {start:#x}");
            }
        }
    }
}

/// Spin briefly, then give the core away: a ring's two threads may share
/// one, with each other or with the threads of the tests running beside
/// them, and a side that spins on burns its time slice while the side it
/// waits for is not running. Briefly means a few polls: on a shared core
/// every hand-off pays all the spins before its yield, and an unoptimised
/// poll is slow.
fn snooze(spins: &mut u32) {
    *spins += 1;
    if spins.is_multiple_of(8) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// Who, if anyone, dawdles in [`stress_ring`].
#[derive(Clone, Copy, PartialEq)]
enum Paced {
    /// Both sides run flat out; which one waits is the scheduler's call.
    Neither,
    /// The consumer is always caught up and polls a slot that is still
    /// empty: every frame is found by its stamp the moment it lands.
    Producer,
    /// The ring stays full: every push waits for `head`.
    Consumer,
}

/// The stamps and the cached `head` under two real threads, across the
/// `u32` wrap of both cursors: a million frames of seeded varying length
/// through a 4-slot ring whose cursors start just below `u32::MAX` (then
/// a shorter run through 16 slots, where `head` is stored a batch of 4
/// at a time), then the two regimes a free-running pair may never settle
/// in — the producer paced, so the consumer always waits on an empty
/// slot, and the consumer paced, so the producer always waits on a full
/// ring. Every frame is checked for sequence and content, and `free()`
/// never over-reports: after the producer reads `free() == n` its next
/// `n` pushes are all accepted. An unoptimised build runs a tenth of the
/// frames (still past the wrap); the orderings that matter are the ones
/// the optimiser is free to exploit, so `--release` runs them all.
#[test]
fn stress_cached_cursors_across_the_u32_wrap() {
    let scale = if cfg!(debug_assertions) { 10 } else { 1 };
    stress_ring(4, 1_000_000 / scale, Paced::Neither);
    stress_ring(16, 250_000 / scale, Paced::Neither);
    for slots in [4, 16] {
        stress_ring(slots, 40_000 / scale, Paced::Producer);
        stress_ring(slots, 40_000 / scale, Paced::Consumer);
    }
}

fn stress_ring(slots: u32, frames: u64, paced: Paced) {
    const PAYLOAD: usize = 64;
    fn body(seq: u64, rng: &mut DetRng, out: &mut [u8; PAYLOAD]) -> usize {
        /// 0, 1, 2, …: byte `i` of a body is `31 * seq + i`, a slice of it
        /// (copied, which an unoptimised build does far faster than a loop).
        const RAMP: [u8; 256 + PAYLOAD] = {
            let mut r = [0; 256 + PAYLOAD];
            let mut i = 0;
            while i < r.len() {
                r[i] = i as u8;
                i += 1;
            }
            r
        };
        let len = rng.range_usize(8, PAYLOAD + 1);
        out[..8].copy_from_slice(&seq.to_le_bytes());
        let from = (seq as u8).wrapping_mul(31) as usize;
        out[8..len].copy_from_slice(&RAMP[from..from + len - 8]);
        len
    }
    /// Long enough for the other side to finish a frame and come back.
    fn dawdle() {
        for _ in 0..32 {
            std::hint::spin_loop();
        }
    }
    /// Raised by a side that dies on an assertion, so the other fails too
    /// instead of spinning on a ring nobody serves.
    struct Flag<'a>(&'a AtomicBool);
    impl Drop for Flag<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::Relaxed);
            }
        }
    }
    let failed = AtomicBool::new(false);
    let started = std::time::Instant::now();
    let wait = |spins: &mut u32| {
        if spins.is_multiple_of(64) {
            assert!(!failed.load(Ordering::Relaxed), "the other side failed");
            assert!(started.elapsed() < Duration::from_secs(120), "ring wedged");
        }
        snooze(spins);
    };
    // The wrap is 1000 frames away: every run crosses it.
    let r = owned_from(u32::MAX - 1000, slots, PAYLOAD as u32);
    let ring = &r.ring;
    std::thread::scope(|s| {
        s.spawn(|| {
            let _flag = Flag(&failed);
            let mut rng = DetRng::seed_from_u64(0x57E55);
            let mut buf = [0u8; PAYLOAD];
            let (mut promised, mut spins) = (0usize, 0u32);
            for seq in 0..frames {
                let len = body(seq, &mut rng, &mut buf);
                if promised == 0 && seq.is_multiple_of(3) {
                    promised = ring.free();
                }
                while !push(ring, &buf[..len]) {
                    assert_eq!(promised, 0, "free() over-reported at frame {seq}");
                    wait(&mut spins);
                }
                promised = promised.saturating_sub(1);
                if paced == Paced::Producer {
                    dawdle();
                }
            }
        });
        let _flag = Flag(&failed);
        let mut rng = DetRng::seed_from_u64(0x57E55);
        let mut want = [0u8; PAYLOAD];
        let mut spins = 0u32;
        for seq in 0..frames {
            let len = body(seq, &mut rng, &mut want);
            while ring
                .try_pop(|f| assert_eq!(f, &want[..len], "frame {seq}"))
                .is_none()
            {
                wait(&mut spins);
            }
            if paced == Paced::Consumer {
                dawdle();
            }
        }
        assert!(
            ring.try_pop(|_| ()).is_none(),
            "nothing past the last frame"
        );
    });
}

/// Doorbell ordering across real threads: the consumer must never
/// observe a published slot whose bytes aren't fully visible. Each
/// frame carries a sequence number and a checksum of its body; any
/// reordering of the producer's plain stores past its release doorbell
/// would surface as a torn checksum or a sequence gap.
#[test]
fn prop_doorbell_publishes_complete_frames_across_threads() {
    let frames_per_case = 4_000u64;
    let cases = env_cases(6);
    for case in 0..cases {
        let r = owned(8, 64);
        let ring = &r.ring;
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut rng = DetRng::seed_from_u64(0xD00_8E11 ^ case as u64);
                let (mut seq, mut spins) = (0u64, 0u32);
                while seq < frames_per_case {
                    let len = rng.range_usize(9, 56);
                    let mut body = vec![0u8; len];
                    body[..8].copy_from_slice(&seq.to_le_bytes());
                    for b in body[8..].iter_mut() {
                        *b = rng.next_u64() as u8;
                    }
                    let sum = body[..len - 1].iter().fold(0u8, |a, &b| a.wrapping_add(b));
                    body[len - 1] = sum;
                    if push(ring, &body) {
                        seq += 1;
                    } else {
                        snooze(&mut spins);
                    }
                }
                stop.store(true, Ordering::Release);
            });
            let (mut expect, mut spins) = (0u64, 0u32);
            while expect < frames_per_case {
                let done = stop.load(Ordering::Acquire);
                match ring.try_pop(|f| f.to_vec()) {
                    Some(f) => {
                        assert!(f.len() >= 9, "frame shorter than its own framing");
                        let seq = u64::from_le_bytes(f[..8].try_into().unwrap());
                        assert_eq!(seq, expect, "sequence gap: doorbell out of order");
                        let sum = f[..f.len() - 1].iter().fold(0u8, |a, &b| a.wrapping_add(b));
                        assert_eq!(sum, f[f.len() - 1], "torn frame published");
                        expect += 1;
                    }
                    // `done` was read before the pop: every frame had
                    // been published by then, so empty means lost.
                    None if done => panic!("producer done but frames missing"),
                    None => snooze(&mut spins),
                }
            }
        });
    }
}

/// Torn startup under random timing: the attacher launches first with a
/// seeded head start, the creator arrives after a seeded delay, and the
/// pair must always converge to a working channel (or the attacher must
/// time out cleanly — never crash, never read junk).
#[test]
fn prop_torn_startup_always_converges() {
    let cases = env_cases(12);
    let geom = SegGeometry {
        slots: 8,
        payload: 128,
    };
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x70_4211 ^ case as u64);
        let run = unique_run("torn");
        let dir = test_dir();
        let creator_delay = Duration::from_micros(rng.below(3_000));
        let attacher = {
            let (run, dir) = (run.clone(), dir.clone());
            std::thread::spawn(move || {
                Segment::attach(&dir, &run, 0, 1, geom, Duration::from_secs(10))
            })
        };
        std::thread::sleep(creator_delay);
        let lo = Segment::create(&dir, &run, 0, 1, geom, case as u64).expect("create");
        let hi = attacher.join().unwrap().expect("attach converges");
        // The channel works in both directions immediately.
        lo.tx.try_push(|s| {
            s[0] = case as u8;
            Some(1usize)
        });
        assert_eq!(hi.rx.try_pop(|f| f[0]), Some(case as u8));
        hi.tx.try_push(|s| {
            s[0] = !(case as u8);
            Some(1usize)
        });
        assert_eq!(lo.rx.try_pop(|f| f[0]), Some(!(case as u8)));
    }
}

/// Full FM stack smoke over the shared-memory device: two engines
/// exchange handler-dispatched multi-packet messages through a real
/// mapped segment, trusting it (the shm device is lossless, so FM's
/// guarantee comes straight from the rings).
#[test]
fn fm2_engines_roundtrip_over_shared_memory() {
    use std::cell::RefCell;
    use std::rc::Rc;

    use fm_core::blocking::{fm2_send, fm2_wait_until};
    use fm_core::packet::HandlerId;
    use fm_core::{Fm2Engine, FmStream};
    use fm_model::MachineProfile;
    use fm_shm::{ShmCluster, ShmConfig};

    const MSG: HandlerId = HandlerId(3);
    let cfg = ShmConfig {
        run_id: unique_run("fm2"),
        dir: test_dir(),
        ..ShmConfig::default()
    };
    let out = ShmCluster::run(2, cfg, |i, dev| {
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        let got: Rc<RefCell<Vec<u8>>> = Rc::default();
        {
            let got = Rc::clone(&got);
            fm.set_handler(MSG, move |stream: FmStream, _src| {
                let got = Rc::clone(&got);
                async move {
                    let msg = stream.receive_vec(stream.msg_len()).await;
                    *got.borrow_mut() = msg;
                }
            });
        }
        let peer = 1 - i;
        let msg = vec![i as u8; 3_000]; // multi-packet: exercises MTU framing
        fm2_send(&fm, peer, MSG, &[&msg]);
        fm2_wait_until(&fm, || !got.borrow().is_empty());
        let out = got.borrow().clone();
        out
    });
    assert_eq!(out[0], vec![1u8; 3_000]);
    assert_eq!(out[1], vec![0u8; 3_000]);
}
