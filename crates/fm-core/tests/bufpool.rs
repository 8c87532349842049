//! Integration battery for the pooled packet-buffer layer (`fm_core::buf`).
//!
//! The pool's contract is what makes the zero-copy datapath safe: frames
//! recycle only when the *last* owner drops, views pin their frame, and a
//! recycled frame comes back writable and empty. These tests exercise the
//! contract through the public API only, the way the engines and
//! transports use it. Property-style cases are seeded and sized by
//! `PROPTEST_CASES` (see `fm_model::rng::env_cases`).

use fm_core::{BufPool, PacketBuf};
use fm_model::rng::{env_cases, DetRng};

#[test]
fn take_returns_empty_writable_frames_at_full_capacity() {
    let pool = BufPool::new(256, 8);
    let mut b = pool.take();
    assert_eq!(b.len(), 0, "fresh frame starts as an empty window");
    assert_eq!(b.capacity(), 256);
    assert!(!b.is_detached());
    assert!(b.is_unique());
    b.extend_from_slice(&[0xAB; 100]);
    assert_eq!(&b[..], &[0xAB; 100][..]);
}

#[test]
fn recycled_frames_are_reused_not_reallocated() {
    let pool = BufPool::new(128, 4);
    // Warm-up: one frame through the pool.
    drop(pool.take());
    assert_eq!(pool.free_frames(), 1);
    for _ in 0..100 {
        let mut b = pool.take();
        b.extend_from_slice(b"payload");
        drop(b);
    }
    let s = pool.stats();
    assert_eq!(s.misses, 1, "only the warm-up frame was allocated");
    assert_eq!(s.hits, 100, "every later take hit the free list");
    assert_eq!(pool.free_frames(), 1, "the same frame kept cycling");
}

#[test]
fn recycled_frames_come_back_as_empty_windows() {
    let pool = BufPool::new(64, 4);
    let mut b = pool.take();
    b.extend_from_slice(&[0xFF; 64]);
    drop(b);
    let again = pool.take();
    // The frame's old bytes may still be there (never re-zeroed — that
    // would be a hidden memset per packet), but the *window* must be
    // empty: stale bytes are unreachable through the API.
    assert_eq!(again.len(), 0, "recycled frame must not expose old bytes");
}

#[test]
fn a_live_view_keeps_the_frame_out_of_the_pool() {
    let pool = BufPool::new(64, 4);
    let mut b = pool.take();
    b.extend_from_slice(b"hello world");
    let view = b.slice(6, 5);
    assert_eq!(&view[..], b"world");

    // Dropping the original owner must NOT recycle: the view still reads
    // the frame's bytes.
    drop(b);
    assert_eq!(pool.free_frames(), 0, "view keeps the frame checked out");
    assert_eq!(&view[..], b"world", "view survives the owner");

    // Only the last owner's drop recycles.
    drop(view);
    assert_eq!(pool.free_frames(), 1, "last drop returns the frame");
}

#[test]
fn shared_frames_refuse_writes_until_unique_again() {
    let pool = BufPool::new(64, 4);
    let mut b = pool.take();
    b.extend_from_slice(b"abc");
    let view = b.slice(0, 3);
    assert!(!b.is_unique());
    assert!(
        b.frame_mut().is_none(),
        "shared frame must not hand out &mut"
    );
    drop(view);
    assert!(b.is_unique());
    assert!(b.frame_mut().is_some(), "unique again: writes allowed");
}

#[test]
fn max_free_caps_the_free_list() {
    let pool = BufPool::new(32, 2);
    let a = pool.take();
    let b = pool.take();
    let c = pool.take();
    drop(a);
    drop(b);
    drop(c);
    assert_eq!(
        pool.free_frames(),
        2,
        "third frame falls to the allocator, list stays bounded"
    );
}

#[test]
fn homeless_buffers_never_enter_a_pool() {
    let pool = BufPool::new(32, 4);
    drop(PacketBuf::from(vec![1u8, 2, 3]));
    drop(PacketBuf::with_capacity(16));
    assert_eq!(pool.free_frames(), 0, "only pool-born frames recycle");
    // `mem::take` leaves a detached shell; the moved-out buffer still
    // carries the frame home on its final drop.
    let mut b = pool.take();
    let taken = std::mem::take(&mut b);
    assert!(b.is_detached());
    drop(b);
    assert_eq!(pool.free_frames(), 0, "detached shell recycles nothing");
    drop(taken);
    assert_eq!(pool.free_frames(), 1, "the moved-out owner recycles");
}

#[test]
fn frames_outlive_their_pool() {
    // A transport can drop its pool while the engine still holds packet
    // views into pooled frames; those buffers must stay readable and
    // simply fall to the allocator on their final drop.
    let pool = BufPool::new(64, 4);
    let mut b = pool.take();
    b.extend_from_slice(b"orphan");
    drop(pool);
    assert_eq!(&b[..], b"orphan");
    drop(b); // must not panic or leak into a dead pool
}

#[test]
fn prop_views_always_read_what_the_owner_wrote() {
    let cases = env_cases(256);
    let pool = BufPool::new(512, 8);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0xB0F_0000 ^ case as u64);
        let len = rng.range_usize(1, 512);
        let bytes = rng.bytes(len);
        let mut b = pool.take();
        b.extend_from_slice(&bytes);
        // A random sub-window.
        let off = rng.range_usize(0, len);
        let wlen = rng.range_usize(0, len - off + 1);
        let view = b.slice(off, wlen);
        assert_eq!(&view[..], &bytes[off..off + wlen], "case {case}");
        // Clones are views of the whole window.
        let clone = b.clone();
        assert_eq!(clone, b, "case {case}: clone sees identical bytes");
        drop(b);
        drop(clone);
        assert_eq!(&view[..], &bytes[off..off + wlen], "case {case}: view pins");
    }
}

#[test]
fn prop_interleaved_take_drop_never_grows_past_live_set() {
    // Steady-state shape: whatever the interleaving of takes and drops,
    // the pool allocates at most max(live frames) times in total.
    let cases = env_cases(64);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x5AB_0000 ^ (case as u64) << 4);
        let pool = BufPool::new(128, 64);
        let mut live: Vec<PacketBuf> = Vec::new();
        let mut peak = 0usize;
        for _ in 0..200 {
            if live.is_empty() || rng.below(2) == 0 {
                let mut b = pool.take();
                b.extend_from_slice(&[0x5A; 16]);
                live.push(b);
                peak = peak.max(live.len());
            } else {
                let idx = rng.range_usize(0, live.len());
                live.swap_remove(idx);
            }
        }
        let misses = pool.stats().misses;
        assert!(
            misses as usize <= peak,
            "case {case}: {misses} allocations for a peak of {peak} live frames"
        );
    }
}

// ---- the lend path (`BufPool::lend`): frames refilled in place ----

/// Fill a frame from `pool` with `bytes`, lend it, and return the view a
/// downstream layer would hold (the filler's own handle is dropped).
fn fill_and_lend(pool: &BufPool, bytes: &[u8]) -> PacketBuf {
    let mut b = pool.take();
    b.extend_from_slice(bytes);
    pool.lend(&b);
    b.slice(0, bytes.len())
}

#[test]
fn lent_frames_come_back_oldest_first() {
    let pool = BufPool::new(32, 8);
    let views: Vec<PacketBuf> = (0..4u8).map(|i| fill_and_lend(&pool, &[i; 4])).collect();
    let frames: Vec<*const u8> = views.iter().map(|v| v.as_ptr()).collect();
    let made = pool.stats().misses;
    drop(views);
    assert_eq!(pool.free_frames(), 0, "lent frames wait on the FIFO");
    for (i, &frame) in frames.iter().enumerate() {
        let b = pool.take();
        assert!(
            b.is_empty() && b.is_unique(),
            "handed back empty and writable"
        );
        assert_eq!(b.as_ptr(), frame, "take {i} is the frame lent {i}th");
    }
    assert_eq!(pool.stats().misses, made, "nothing new was allocated");
}

#[test]
fn a_lent_frame_with_a_live_view_is_skipped_not_rewritten() {
    let pool = BufPool::new(32, 8);
    let held = fill_and_lend(&pool, b"still being read");
    let younger = fill_and_lend(&pool, b"done with");
    let done_with = younger.as_ptr();
    drop(younger);
    // The oldest lent frame is still read: the take passes over it to
    // the younger one nobody reads, and allocates nothing.
    let made = pool.stats().misses;
    let mut b = pool.take();
    assert_eq!(b.as_ptr(), done_with);
    assert_eq!(pool.stats().misses, made);
    b.extend_from_slice(&[0xEE; 32]);
    assert_eq!(&held[..], b"still being read");
    // Overtaken, the held frame left the FIFO: its last reader's drop
    // recycles it the old way.
    drop(held);
    assert_eq!(pool.free_frames(), 1);
}

#[test]
fn a_frame_read_forever_costs_one_frame_not_a_growing_pool() {
    let pool = BufPool::new(32, 4);
    let held = fill_and_lend(&pool, b"held for the whole test");
    // Every later frame is lent and released at once, behind `held`.
    for i in 0..100 {
        drop(fill_and_lend(&pool, &[i as u8; 8]));
    }
    assert_eq!(&held[..], b"held for the whole test");
    assert_eq!(pool.stats().misses, 2, "the held frame and one that cycles");
    assert_eq!(pool.free_frames(), 0);
}

#[test]
fn a_full_fifo_lets_its_oldest_frame_go() {
    const MAX_FREE: usize = 4;
    let pool = BufPool::new(32, MAX_FREE);
    // More frames in flight at once than the FIFO has places.
    let views: Vec<PacketBuf> = (0..2 * MAX_FREE as u8)
        .map(|i| fill_and_lend(&pool, &[i; 8]))
        .collect();
    for (i, view) in views.iter().enumerate() {
        assert_eq!(&view[..], &[i as u8; 8]);
    }
    // The first MAX_FREE fell off the FIFO and recycle by their last
    // drop; the rest wait on the FIFO for the next takes.
    drop(views);
    assert_eq!(pool.free_frames(), MAX_FREE);
    let made = pool.stats().misses;
    let again: Vec<PacketBuf> = (0..2 * MAX_FREE).map(|_| pool.take()).collect();
    assert_eq!(pool.stats().misses, made, "all eight came back");
    drop(again);
    assert_eq!(pool.free_frames(), MAX_FREE, "free list stays at its cap");
}

#[test]
fn lent_frames_outlive_the_pool_handle() {
    let pool = BufPool::new(64, 4);
    let view = fill_and_lend(&pool, b"orphan");
    drop(pool);
    assert_eq!(&view[..], b"orphan");
    drop(view); // must not panic or reach for a dead pool
}

/// A frame that crosses threads: filled and lent on one, read and
/// dropped on another, and the first thread gets it back.
#[test]
fn a_frame_dropped_on_another_thread_is_reused_by_its_filler() {
    let pool = BufPool::new(64, 4);
    let (to_reader, inbox) = std::sync::mpsc::channel::<PacketBuf>();
    let (done, dropped) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for (i, view) in inbox.iter().enumerate() {
                assert_eq!(&view[..], &[i as u8; 16]);
                drop(view);
                done.send(()).expect("filler waits for this");
            }
        });
        let mut frames = std::collections::BTreeSet::new();
        for i in 0..100u8 {
            let view = fill_and_lend(&pool, &[i; 16]);
            frames.insert(view.as_ptr() as usize);
            to_reader.send(view).expect("reader is up");
            dropped.recv().expect("reader dropped the view");
        }
        drop(to_reader);
        assert_eq!(frames.len(), 1, "one frame went back and forth");
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.free_frames(), 0, "and never through the free list");
    });
}

/// `prop_views_always_read_what_the_owner_wrote` over the lend path:
/// whatever the order readers let go in, a view reads what its filler
/// wrote until it is dropped — no take ever refills a frame somebody
/// still reads — and the pool makes no more frames than were ever live
/// at once: it never allocates while it can reach a frame nobody reads.
#[test]
fn prop_lent_views_always_read_what_the_owner_wrote() {
    const MAX_FREE: usize = 64; // above the peak: no frame is freed for real
    let cases = env_cases(64);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x1E4D_0000 ^ case as u64);
        let pool = BufPool::new(128, MAX_FREE);
        let mut live: Vec<(PacketBuf, Vec<u8>)> = Vec::new();
        let mut peak = 0usize;
        for _ in 0..400 {
            if live.is_empty() || rng.below(2) == 0 {
                let len = rng.range_usize(1, 129);
                let bytes = rng.bytes(len);
                let mut b = pool.take();
                assert!(b.is_empty() && b.is_unique(), "case {case}");
                b.extend_from_slice(&bytes);
                if rng.below(4) != 0 {
                    pool.lend(&b); // most frames are lent, some are not
                }
                let off = rng.range_usize(0, len);
                live.push((b.slice(off, len - off), bytes[off..].to_vec()));
                peak = peak.max(live.len());
            } else {
                // Oldest-first mostly, as readers do; sometimes any.
                let idx = if rng.below(4) != 0 {
                    0
                } else {
                    rng.range_usize(0, live.len())
                };
                live.remove(idx);
            }
            for (view, wrote) in &live {
                assert_eq!(&view[..], &wrote[..], "case {case}: a live view changed");
            }
        }
        let made = pool.stats().misses as usize;
        assert!(
            made <= peak,
            "case {case}: {made} frames made for a peak of {peak} live"
        );
    }
}

// ---- the three representations against a `Vec<u8>` model ----

/// What the model knows about one live buffer: its bytes, and for a
/// pool frame which frame it is and where its window starts.
struct Modeled {
    buf: PacketBuf,
    bytes: Vec<u8>,
    capacity: usize,
    /// `Some((frame id, window offset))` for a pool frame; inline and
    /// detached buffers own no frame (an inline window starts at 0).
    frame: Option<(u64, usize)>,
}

/// The pool as the model sees it: the ids of the frames its lent FIFO
/// holds a reference to, oldest first.
struct ModelPool {
    pool: BufPool,
    max_free: usize,
    lent: std::collections::VecDeque<u64>,
    next_frame: u64,
}

impl ModelPool {
    /// References to `frame`: the live buffers on it, and the FIFO's.
    fn refs(&self, live: &[Modeled], frame: u64) -> usize {
        let views = live.iter().filter(|m| m.frame.map(|f| f.0) == Some(frame));
        views.count() + usize::from(self.lent.contains(&frame))
    }

    fn unique(&self, live: &[Modeled], m: &Modeled) -> bool {
        m.frame.is_none_or(|(frame, _)| self.refs(live, frame) == 1)
    }

    /// `BufPool::take`: the oldest lent frame nobody reads comes back
    /// (the lent frames before it leave the FIFO), else some other frame.
    fn take(&mut self, live: &[Modeled]) -> Modeled {
        let buf = self.pool.take();
        self.adopt(live, buf)
    }

    /// The model's side of a frame `buf` just taken from the pool.
    fn adopt(&mut self, live: &[Modeled], buf: PacketBuf) -> Modeled {
        if let Some(at) = self.lent.iter().position(|&f| self.refs(live, f) == 1) {
            self.lent.drain(..=at);
        }
        self.next_frame += 1;
        Modeled {
            buf,
            bytes: Vec::new(),
            capacity: self.pool.frame_capacity(),
            frame: Some((self.next_frame, 0)),
        }
    }

    /// `PacketBuf::for_len`: empty, inline, or a frame as from
    /// [`take`](Self::take).
    fn for_len(&mut self, live: &[Modeled], len: usize) -> Modeled {
        let buf = PacketBuf::for_len(&self.pool, len);
        if len > fm_core::buf::INLINE {
            return self.adopt(live, buf);
        }
        Modeled {
            buf,
            bytes: Vec::new(),
            capacity: if len == 0 { 0 } else { fm_core::buf::INLINE },
            frame: None,
        }
    }

    /// `BufPool::lend`: a frame only its lender holds joins the FIFO,
    /// pushing its oldest entry out when full.
    fn lend(&mut self, live: &[Modeled], m: &Modeled) {
        self.pool.lend(&m.buf);
        let Some((frame, _)) = m.frame else { return };
        if self.refs(live, frame) != 1 {
            return;
        }
        if self.lent.len() >= self.max_free {
            self.lent.pop_front();
        }
        self.lent.push_back(frame);
    }
}

/// Seeded sequences of every operation a packet buffer has — `for_len`
/// either side of the inline bound, `extend_from_slice`, `slice`,
/// `clone`, `frame_mut` + `set_window`, `clear`, `lend`/`take` and drop
/// — checked after each step against a `Vec<u8>` per live buffer:
/// contents, `len`, `capacity`, `is_unique`, `is_detached`.
#[test]
fn prop_every_representation_matches_a_vec_model() {
    use fm_core::buf::INLINE;
    const FRAME: usize = 2 * INLINE + 4;
    let cases = env_cases(128);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x1411_0000 ^ case as u64);
        let max_free = [1, 3, 64][rng.range_usize(0, 3)];
        let mut p = ModelPool {
            pool: BufPool::new(FRAME, max_free),
            max_free,
            lent: Default::default(),
            next_frame: 0,
        };
        let mut live: Vec<Modeled> = Vec::new();
        for step in 0..200 {
            let at = |rng: &mut DetRng, live: &[Modeled]| rng.range_usize(0, live.len());
            match rng.below(9) {
                _ if live.is_empty() => {
                    // Mostly right at the bound: 21..=24 bytes.
                    let len = match rng.below(3) {
                        0 => rng.range_usize(0, FRAME + 1),
                        _ => rng.range_usize(INLINE - 1, INLINE + 3),
                    };
                    let mut m = p.for_len(&live, len);
                    let bytes = rng.bytes(len);
                    m.buf.extend_from_slice(&bytes);
                    m.bytes = bytes;
                    live.push(m);
                }
                _ if live.len() > 12 => {
                    let i = at(&mut rng, &live);
                    live.swap_remove(i);
                }
                0 | 1 => {
                    let len = rng.range_usize(INLINE - 2, INLINE + 3);
                    let mut m = p.for_len(&live, len);
                    let n = rng.range_usize(0, len + 1);
                    let bytes = rng.bytes(n);
                    m.buf.extend_from_slice(&bytes);
                    m.bytes = bytes;
                    live.push(m);
                }
                2 => {
                    // Append to a writable buffer where the bytes fit.
                    let i = at(&mut rng, &live);
                    let m = &live[i];
                    let end = m.frame.map_or(0, |f| f.1) + m.bytes.len();
                    if m.buf.is_detached() || !p.unique(&live, m) || end == m.capacity {
                        continue;
                    }
                    let n = rng.range_usize(1, m.capacity - end + 1);
                    let more = rng.bytes(n);
                    let m = &mut live[i];
                    m.buf.extend_from_slice(&more);
                    m.bytes.extend_from_slice(&more);
                }
                3 => {
                    let m = &live[at(&mut rng, &live)];
                    let off = rng.range_usize(0, m.bytes.len() + 1);
                    let len = rng.range_usize(0, m.bytes.len() - off + 1);
                    let view = Modeled {
                        buf: m.buf.slice(off, len),
                        bytes: m.bytes[off..off + len].to_vec(),
                        capacity: m.capacity,
                        frame: m.frame.map(|(f, start)| (f, start + off)),
                    };
                    live.push(view);
                }
                4 => {
                    let m = &live[at(&mut rng, &live)];
                    let copy = Modeled {
                        buf: m.buf.clone(),
                        bytes: m.bytes.clone(),
                        capacity: m.capacity,
                        frame: m.frame,
                    };
                    live.push(copy);
                }
                5 => {
                    // A recv-style fill: write part of the frame, then
                    // publish a window of it.
                    let i = at(&mut rng, &live);
                    let unique = p.unique(&live, &live[i]);
                    let m = &mut live[i];
                    let Some(frame) = m.buf.frame_mut() else {
                        let why = "frame_mut refused";
                        assert!(
                            m.buf.is_detached() || !unique,
                            "case {case} step {step}: {why}"
                        );
                        continue;
                    };
                    assert!(
                        unique,
                        "case {case} step {step}: a shared frame is writable"
                    );
                    assert_eq!(frame.len(), m.capacity, "case {case} step {step}");
                    let start = m.frame.map_or(0, |f| f.1);
                    assert_eq!(&frame[start..start + m.bytes.len()], &m.bytes[..]);
                    let from = rng.range_usize(0, frame.len() + 1);
                    let n = rng.range_usize(0, frame.len() - from + 1);
                    let fill = rng.bytes(n);
                    frame[from..from + fill.len()].copy_from_slice(&fill);
                    let whole = frame.to_vec();
                    let off = rng.range_usize(0, whole.len() + 1);
                    let len = rng.range_usize(0, whole.len() - off + 1);
                    m.buf.set_window(off, len);
                    m.bytes = whole[off..off + len].to_vec();
                    if let Some((_, start)) = &mut m.frame {
                        *start = off;
                    }
                }
                6 => {
                    let i = at(&mut rng, &live);
                    if !p.unique(&live, &live[i]) {
                        continue; // a reader still holds a view: clear panics
                    }
                    let m = &mut live[i];
                    m.buf.clear();
                    m.bytes.clear();
                    if let Some((_, start)) = &mut m.frame {
                        *start = 0;
                    }
                }
                7 => {
                    let i = at(&mut rng, &live);
                    p.lend(&live, &live[i]);
                    if rng.below(2) == 0 {
                        let m = p.take(&live);
                        assert!(
                            m.buf.is_empty() && m.buf.is_unique(),
                            "case {case} step {step}"
                        );
                        live.push(m);
                    }
                }
                _ => {
                    let i = at(&mut rng, &live);
                    live.swap_remove(i);
                }
            }
            for (n, m) in live.iter().enumerate() {
                let at = format!("case {case} step {step} buffer {n}");
                assert_eq!(&m.buf[..], &m.bytes[..], "{at}: contents");
                assert_eq!(m.buf.len(), m.bytes.len(), "{at}: len");
                assert_eq!(m.buf.capacity(), m.capacity, "{at}: capacity");
                assert_eq!(m.buf.is_unique(), p.unique(&live, m), "{at}: is_unique");
                assert_eq!(m.buf.is_detached(), m.capacity == 0, "{at}: is_detached");
            }
        }
    }
}
