//! Pooled, refcounted packet buffers — the zero-copy datapath's spine.
//!
//! The paper's layering-efficiency argument (§3–4) is about *not copying
//! at interfaces*: gather on send, scatter on receive, no staging
//! buffers. The first prerequisite is that a packet's bytes live in
//! exactly one place while every layer — engine, retransmit ring,
//! device queue — holds a *view* of them. [`PacketBuf`] is that view: a
//! cheap-to-clone window `(offset, len)` into a slab frame, refcounted
//! so the retransmission sublayer can retain a packet without deep
//! copies and the receive path can hand handlers a slice of the very
//! buffer the device filled.
//!
//! The second prerequisite is that steady-state traffic performs no
//! heap allocation at all. [`BufPool`] provides it: frames are recycled
//! through a free list *including their `Arc` spine*, so after warm-up
//! a send/extract cycle touches the allocator zero times (the
//! `bench/tests/alloc_count.rs` harness pins this).
//!
//! Everything here is safe Rust (`fm-core` is `#![forbid(unsafe_code)]`):
//! unique ownership is detected with [`Arc::get_mut`], which doubles as
//! the write gate — a frame is writable only while exactly one reference
//! points at it.
//!
//! A small packet needs none of this. A payload of at most [`INLINE`]
//! (22) bytes rides inside the `PacketBuf` itself: cloning it copies the
//! bytes, and it never touches a pool, an `Arc` or an atomic. The bound
//! is what fits beside the enum's tag in the 24 bytes a frame window
//! takes anyway, so `PacketBuf` — and every `FmPacket` the engines and
//! the simulator move by value — stays the size it was.
//!
//! Ownership protocol (see DESIGN.md §11 for the full story):
//!
//! * **Size**: whoever stages a packet of known length asks
//!   [`PacketBuf::for_len`], which keeps it inline when it fits and
//!   takes a pool frame otherwise. Everything below is about frames.
//! * **Allocate**: whoever produces bytes takes a frame from its pool
//!   ([`BufPool::take`]) and fills it while uniquely owned.
//! * **Share**: downstream layers clone the `PacketBuf` (refcount bump)
//!   or re-window it ([`PacketBuf::slice`]); nobody copies payload.
//! * **Lend**: a filler that hands the frame on says so first
//!   ([`BufPool::lend`]): its pool handle keeps a reference, in a FIFO,
//!   and the next `take` that finds the oldest lent frame unshared again
//!   hands that very frame back, empty — no lock, no trip through the
//!   free list. A lent frame is read-only from then on: the pool's
//!   reference closes the write gate until it is the only one left.
//! * **Recycle**: the *last* `PacketBuf` dropped returns a frame the pool
//!   holds no reference to (never lent, or read for so long that a
//!   younger frame overtook it on the FIFO) to its home pool's free list.
//!   Frames outlive their pool gracefully (they fall back to the global
//!   allocator if the pool is gone).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// One slab frame: a fixed-size byte buffer plus a backpointer to the
/// pool that recycles it. The `Vec` is sized once at allocation and
/// never grows or shrinks afterwards, so reuse never re-touches the
/// allocator.
#[derive(Debug)]
struct SlotInner {
    /// Frame storage, always at full capacity (`data.len()` is the
    /// frame size; the live window lives in `PacketBuf`, not here).
    data: Vec<u8>,
    /// The pool to return to on final drop. A dangling `Weak` (pool
    /// dropped, or a "homeless" buffer made from a plain `Vec`) means
    /// the frame is simply freed.
    home: Weak<PoolShared>,
}

/// State shared by a [`BufPool`] and every frame it has handed out.
#[derive(Debug)]
struct PoolShared {
    /// Recycled frames ready for reuse, `Arc` spine and all.
    free: Mutex<Vec<Arc<SlotInner>>>,
    /// Size of every frame this pool produces.
    frame_capacity: usize,
    /// Free-list cap: frames returning beyond this are dropped for real
    /// so a burst cannot pin memory forever.
    max_free: usize,
}

#[cfg(test)]
thread_local! {
    /// Free-list lock acquisitions made by this thread.
    static FREE_LIST_LOCKS: Cell<u64> = const { Cell::new(0) };
}

impl PoolShared {
    fn free_list(&self) -> MutexGuard<'_, Vec<Arc<SlotInner>>> {
        #[cfg(test)]
        FREE_LIST_LOCKS.with(|n| n.set(n.get() + 1));
        self.free.lock().expect("buf pool poisoned")
    }
}

/// A slab-backed frame pool.
///
/// [`take`] returns an empty, uniquely-owned [`PacketBuf`] backed by a
/// `frame_capacity`-byte frame — the oldest frame [`lend`] was told about
/// that nobody reads any more, else one recycled from the free list,
/// else a freshly allocated one. Dropping the last `PacketBuf` of a frame
/// that is not on the lent FIFO returns it to the free list without
/// touching the allocator.
///
/// The pool belongs to the one filler that takes from it (it is `Send`,
/// not `Sync`); the frames it hands out go wherever their readers are.
///
/// [`take`]: BufPool::take
/// [`lend`]: BufPool::lend
#[derive(Debug)]
pub struct BufPool {
    shared: Arc<PoolShared>,
    /// Frames handed downstream and still referenced here, oldest first;
    /// at most `max_free` of them.
    lent: RefCell<VecDeque<Arc<SlotInner>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

/// Running counters for one pool: how often `take()` reused a frame
/// (`hits`) versus allocated one (`misses`). Steady-state traffic
/// should be all hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Frames served by refilling a lent frame or from the free list.
    pub hits: u64,
    /// Frames that required a fresh allocation.
    pub misses: u64,
}

impl BufPool {
    /// A pool of `frame_capacity`-byte frames keeping at most `max_free`
    /// recycled frames around, and a reference to at most as many lent
    /// ones. The free list is sized for all of them here: a burst that
    /// returns more frames at once than any before it recycles them
    /// without touching the allocator. The lent FIFO grows, during
    /// warm-up, to one frame more than the readers downstream keep in
    /// flight — a handful, however large the pool.
    ///
    /// # Panics
    /// If `frame_capacity` is 4 GiB or more (a window is two `u32`s).
    pub fn new(frame_capacity: usize, max_free: usize) -> Self {
        u32::try_from(frame_capacity).expect("a frame under 4 GiB");
        BufPool {
            shared: Arc::new(PoolShared {
                free: Mutex::new(Vec::with_capacity(max_free)),
                frame_capacity,
                max_free,
            }),
            lent: RefCell::new(VecDeque::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The size of every frame this pool produces.
    pub fn frame_capacity(&self) -> usize {
        self.shared.frame_capacity
    }

    /// Take an empty frame: `len() == 0`, writable, `capacity()` equal
    /// to [`frame_capacity`](Self::frame_capacity). Reuses the oldest
    /// lent frame its readers are done with, else a recycled frame, and
    /// allocates only when every frame the pool can reach is still read.
    pub fn take(&self) -> PacketBuf {
        let reused = self
            .take_back_lent()
            .or_else(|| self.shared.free_list().pop());
        let slot = match reused {
            Some(slot) => {
                self.hits.set(self.hits.get() + 1);
                slot
            }
            None => {
                self.misses.set(self.misses.get() + 1);
                Arc::new(SlotInner {
                    data: vec![0u8; self.shared.frame_capacity],
                    home: Arc::downgrade(&self.shared),
                })
            }
        };
        PacketBuf::over(slot)
    }

    /// The oldest lent frame this handle's reference is the only one left
    /// to. Readers finish in the order frames were lent, so that is
    /// almost always the frame at the front and the search ends on its
    /// first look. Frames lent *before* the one found are still read:
    /// overtaken once, they would hold the queue up on every take, so
    /// they leave it here and recycle when their last reader drops.
    fn take_back_lent(&self) -> Option<Arc<SlotInner>> {
        let mut lent = self.lent.borrow_mut();
        // A count of one cannot rise again: nobody else has a reference
        // to clone from. (The writes that follow go through
        // `Arc::get_mut`, which synchronises with the readers' drops.)
        let free = lent.iter().position(|slot| Arc::strong_count(slot) == 1)?;
        lent.drain(..free)
            .for_each(|overtaken| drop(PacketBuf::over(overtaken)));
        lent.pop_front()
    }

    /// Say that `buf`, taken from this pool and filled, is about to be
    /// shared downstream: the pool keeps a reference, and [`take`] hands
    /// the frame out again once every reader has dropped its view. Call
    /// it while `buf` is still the frame's only owner; a frame that is
    /// already shared or from elsewhere, and an inline or detached
    /// buffer, are left alone. From here on the frame is read-only.
    ///
    /// The FIFO is bounded: when it is full its oldest frame — `max_free`
    /// others were lent after it and every one is still read — goes back
    /// to being recycled by its last owner's drop.
    ///
    /// [`take`]: BufPool::take
    pub fn lend(&self, buf: &PacketBuf) {
        let Repr::Frame { slot, .. } = &buf.repr else {
            return;
        };
        let ours = std::ptr::eq(slot.home.as_ptr(), Arc::as_ptr(&self.shared));
        if !ours || Arc::strong_count(slot) != 1 {
            return;
        }
        let mut lent = self.lent.borrow_mut();
        if lent.len() >= self.shared.max_free {
            // (Nothing to let go of: a pool that keeps nothing.)
            let Some(oldest) = lent.pop_front() else {
                return;
            };
            // An ordinary owner from here on: recycled if it is the
            // last, a plain reference drop if a reader remains.
            drop(PacketBuf::over(oldest));
        }
        lent.push_back(Arc::clone(slot));
    }

    /// Number of recycled frames currently waiting on the free list
    /// (lent frames are not among them).
    pub fn free_frames(&self) -> usize {
        self.shared.free_list().len()
    }

    /// Hit/miss counters since the pool was created.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }
}

/// Payloads of at most this many bytes are held inline in their
/// [`PacketBuf`], not in a pool frame: 22 is what fits beside the enum's
/// tag and a length byte in the 24 bytes a frame window takes anyway.
pub const INLINE: usize = 22;

/// A packet's bytes: a refcounted window into a slab frame (or into a
/// plain `Vec` for pool-less compatibility), or, for a payload of at
/// most [`INLINE`] bytes, the bytes themselves.
///
/// `PacketBuf` is what `FmPacket::payload` is made of. It dereferences
/// to `&[u8]`, clones by bumping a refcount (an inline buffer copies its
/// few bytes instead), and re-windows with [`slice`](Self::slice) — none
/// of which copy a frame's payload bytes. Writing
/// ([`extend_from_slice`](Self::extend_from_slice),
/// [`frame_mut`](Self::frame_mut)) is only possible while the frame has
/// exactly one owner, which is how safe Rust guarantees readers never
/// observe a frame being refilled. An inline buffer is always its own
/// only owner.
///
/// Dropping the last owner recycles the frame to its home [`BufPool`].
#[derive(Debug, Default)]
pub struct PacketBuf {
    repr: Repr,
}

/// The three things a [`PacketBuf`] can be. 24 bytes, like the
/// `(Option<Arc>, usize, usize)` window it replaced: the inline array
/// stops where the tag and the length byte leave off. The per-packet
/// methods that match on it are `#[inline]`: the layers above call them
/// from other crates, which cannot inline them without the hint (no
/// build here uses LTO).
#[derive(Debug, Default)]
enum Repr {
    /// The canonical empty buffer (credit/ack-only packets): zero bytes,
    /// zero allocation.
    #[default]
    Detached,
    /// A small payload held by value: `bytes[..len]` is live.
    Inline { len: u8, bytes: [u8; INLINE] },
    /// A window `[off, off + len)` into a refcounted frame.
    Frame {
        slot: Arc<SlotInner>,
        off: u32,
        len: u32,
    },
}

const _: () = assert!(std::mem::size_of::<PacketBuf>() == 24);

impl PacketBuf {
    /// The empty buffer: no frame, no allocation, `len() == 0`.
    pub fn empty() -> Self {
        PacketBuf::default()
    }

    /// An empty inline buffer with room for [`INLINE`] bytes.
    fn inline() -> Self {
        PacketBuf {
            repr: Repr::Inline {
                len: 0,
                bytes: [0; INLINE],
            },
        }
    }

    /// An empty window at the start of `slot`.
    fn over(slot: Arc<SlotInner>) -> Self {
        PacketBuf {
            repr: Repr::Frame {
                slot,
                off: 0,
                len: 0,
            },
        }
    }

    /// An empty, writable buffer to stage a packet of `len` bytes in:
    /// the empty buffer for `len == 0`, an inline one up to [`INLINE`]
    /// bytes, else a frame from `pool` ([`BufPool::take`]). The one
    /// place that decides whether a packet takes a pool frame.
    #[inline]
    pub fn for_len(pool: &BufPool, len: usize) -> Self {
        match len {
            0 => PacketBuf::empty(),
            1..=INLINE => PacketBuf::inline(),
            _ => pool.take(),
        }
    }

    /// A writable buffer with room for `capacity` bytes, starting empty:
    /// inline up to [`INLINE`] bytes, else a "homeless" frame (no pool
    /// to recycle to) of exactly that size. For one-off frames whose
    /// size is known up front — e.g. staging a self-addressed message.
    ///
    /// # Panics
    /// If `capacity` is 4 GiB or more.
    pub fn with_capacity(capacity: usize) -> Self {
        match capacity {
            0 => PacketBuf::empty(),
            1..=INLINE => PacketBuf::inline(),
            _ => {
                u32::try_from(capacity).expect("a frame under 4 GiB");
                PacketBuf::over(Arc::new(SlotInner {
                    data: vec![0u8; capacity],
                    home: Weak::new(),
                }))
            }
        }
    }

    /// Bytes visible through this window.
    #[inline]
    pub fn len(&self) -> usize {
        match self.repr {
            Repr::Detached => 0,
            Repr::Inline { len, .. } => len as usize,
            Repr::Frame { len, .. } => len as usize,
        }
    }

    /// True when the window is zero bytes long.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total frame size behind this buffer: [`INLINE`] for an inline
    /// buffer, 0 for the empty one.
    pub fn capacity(&self) -> usize {
        match &self.repr {
            Repr::Detached => 0,
            Repr::Inline { .. } => INLINE,
            Repr::Frame { slot, .. } => slot.data.len(),
        }
    }

    /// True when no bytes are attached at all (the
    /// [`empty`](Self::empty) buffer, or a buffer consumed by
    /// `std::mem::take`).
    pub fn is_detached(&self) -> bool {
        matches!(self.repr, Repr::Detached)
    }

    /// True while this is the frame's only owner — the state in which
    /// the write methods succeed. Always true of an inline buffer.
    pub fn is_unique(&self) -> bool {
        match &self.repr {
            Repr::Frame { slot, .. } => Arc::strong_count(slot) == 1,
            _ => true,
        }
    }

    /// A sub-window: `off`/`len` relative to this window. Zero-copy on a
    /// frame; an inline buffer copies the few bytes it keeps.
    ///
    /// # Panics
    /// If `off + len` exceeds [`len()`](Self::len).
    pub fn slice(&self, off: usize, len: usize) -> PacketBuf {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len()),
            "slice({off}, {len}) out of bounds of {}-byte buffer",
            self.len()
        );
        let repr = match &self.repr {
            Repr::Detached => Repr::Detached,
            Repr::Inline { bytes: from, .. } => {
                let mut bytes = [0; INLINE];
                bytes[..len].copy_from_slice(&from[off..off + len]);
                Repr::Inline {
                    len: len as u8,
                    bytes,
                }
            }
            Repr::Frame {
                slot, off: start, ..
            } => Repr::Frame {
                slot: Arc::clone(slot),
                off: start + off as u32,
                len: len as u32,
            },
        };
        PacketBuf { repr }
    }

    /// Append bytes at the end of the window (gather-send staging).
    ///
    /// # Panics
    /// If the frame is shared (refcount > 1), if the window does not end
    /// at the write position (`off + len` must be where unwritten frame
    /// space begins), or if the bytes do not fit in the frame. Callers
    /// check capacity beforehand — the engines bound staging by the MTU.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let past_capacity = "extend_from_slice past frame capacity";
        match &mut self.repr {
            Repr::Detached => panic!("extend_from_slice on a detached PacketBuf"),
            Repr::Inline { len, bytes: data } => {
                let start = *len as usize;
                let end = start + bytes.len();
                assert!(end <= INLINE, "{past_capacity}");
                data[start..end].copy_from_slice(bytes);
                *len = end as u8;
            }
            Repr::Frame { slot, off, len } => {
                let inner = Arc::get_mut(slot).expect("extend_from_slice on a shared PacketBuf");
                let start = (*off + *len) as usize;
                let end = start
                    .checked_add(bytes.len())
                    .filter(|&e| e <= inner.data.len())
                    .expect(past_capacity);
                inner.data[start..end].copy_from_slice(bytes);
                *len += bytes.len() as u32;
            }
        }
    }

    /// Mutable access to the *whole* frame (for `recv`-style fills),
    /// or `None` if the frame is shared or detached. Pair with
    /// [`set_window`](Self::set_window) to publish how many bytes are
    /// now live.
    pub fn frame_mut(&mut self) -> Option<&mut [u8]> {
        match &mut self.repr {
            Repr::Detached => None,
            Repr::Inline { bytes, .. } => Some(bytes),
            Repr::Frame { slot, .. } => Arc::get_mut(slot).map(|inner| inner.data.as_mut_slice()),
        }
    }

    /// Re-window onto `frame[off .. off + len]` (absolute frame
    /// coordinates, unlike [`slice`](Self::slice)). An inline buffer
    /// moves those bytes to its start.
    ///
    /// # Panics
    /// If the range exceeds the frame.
    pub fn set_window(&mut self, off: usize, len: usize) {
        let cap = self.capacity();
        assert!(
            off.checked_add(len).is_some_and(|end| end <= cap),
            "set_window({off}, {len}) out of bounds of {cap}-byte frame"
        );
        match &mut self.repr {
            Repr::Detached => {}
            Repr::Inline { len: live, bytes } => {
                bytes.copy_within(off..off + len, 0);
                *live = len as u8;
            }
            Repr::Frame {
                off: start,
                len: live,
                ..
            } => {
                *start = off as u32;
                *live = len as u32;
            }
        }
    }

    /// Reset to an empty window at the start of the frame, keeping the
    /// frame attached for refilling.
    ///
    /// # Panics
    /// If the frame is shared — a reader still holds a view.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Detached => {}
            Repr::Inline { len, .. } => *len = 0,
            Repr::Frame { slot, off, len } => {
                assert!(
                    Arc::strong_count(slot) == 1,
                    "clear() on a shared PacketBuf"
                );
                (*off, *len) = (0, 0);
            }
        }
    }
}

impl Drop for PacketBuf {
    /// Final-owner drop recycles the frame — `Arc` spine included — to
    /// its home pool's free list, capped at the pool's `max_free`.
    /// Shared drops (a view remains, or the pool's lent FIFO holds the
    /// frame for [`BufPool::take`] to find) and homeless frames just
    /// decrement / free as usual; inline and empty buffers own nothing.
    /// (If two clones race on the "am I last?" check, at worst the frame
    /// goes to the allocator instead of the free list — safe, merely a
    /// missed recycle.)
    #[inline]
    fn drop(&mut self) {
        let Repr::Frame { slot, .. } = &self.repr else {
            return;
        };
        if Arc::strong_count(slot) != 1 {
            return; // Another owner remains; it will recycle.
        }
        if let Some(pool) = slot.home.upgrade() {
            let mut free = pool.free_list();
            if free.len() < pool.max_free {
                if let Repr::Frame { slot, .. } = std::mem::take(&mut self.repr) {
                    free.push(slot);
                }
            }
        }
    }
}

impl Clone for PacketBuf {
    /// Refcount bump plus a copied `(off, len)` window — no frame bytes
    /// move. An inline buffer is copied whole.
    #[inline]
    fn clone(&self) -> Self {
        let repr = match &self.repr {
            Repr::Detached => Repr::Detached,
            &Repr::Inline { len, bytes } => Repr::Inline { len, bytes },
            Repr::Frame { slot, off, len } => Repr::Frame {
                slot: Arc::clone(slot),
                off: *off,
                len: *len,
            },
        };
        PacketBuf { repr }
    }
}

impl std::ops::Deref for PacketBuf {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.repr {
            Repr::Detached => &[],
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Frame { slot, off, len } => &slot.data[*off as usize..(*off + *len) as usize],
        }
    }
}

impl AsRef<[u8]> for PacketBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for PacketBuf {
    /// Wrap a plain `Vec` as a "homeless" buffer (no pool to recycle
    /// to). The compatibility path for tests and cold paths; hot paths
    /// use [`PacketBuf::for_len`].
    ///
    /// # Panics
    /// If `data` is 4 GiB or longer (no wire frame comes near).
    fn from(data: Vec<u8>) -> Self {
        if data.is_empty() {
            return PacketBuf::empty();
        }
        let len = u32::try_from(data.len()).expect("a PacketBuf frame under 4 GiB");
        PacketBuf {
            repr: Repr::Frame {
                slot: Arc::new(SlotInner {
                    data,
                    home: Weak::new(),
                }),
                off: 0,
                len,
            },
        }
    }
}

impl From<&[u8]> for PacketBuf {
    fn from(bytes: &[u8]) -> Self {
        PacketBuf::from(bytes.to_vec())
    }
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for PacketBuf {}

impl PartialEq<[u8]> for PacketBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for PacketBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<Vec<u8>> for PacketBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<PacketBuf> for Vec<u8> {
    fn eq(&self, other: &PacketBuf) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PacketBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_is_truly_empty() {
        let b = PacketBuf::empty();
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert!(b.is_detached());
        assert_eq!(&b[..], &[] as &[u8]);
        assert_eq!(b.capacity(), 0);
    }

    #[test]
    fn take_fill_read_roundtrip() {
        let pool = BufPool::new(64, 8);
        let mut b = pool.take();
        assert_eq!(b.len(), 0);
        assert_eq!(b.capacity(), 64);
        b.extend_from_slice(b"hello");
        b.extend_from_slice(b" world");
        assert_eq!(&b[..], b"hello world");
        assert_eq!(b, b"hello world".to_vec());
    }

    #[test]
    fn recycling_reuses_the_frame_without_reallocating() {
        let pool = BufPool::new(32, 4);
        let mut b = pool.take();
        b.extend_from_slice(&[1, 2, 3]);
        drop(b);
        assert_eq!(pool.free_frames(), 1);
        let b2 = pool.take();
        assert_eq!(b2.len(), 0, "recycled frame comes back empty");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn clone_keeps_frame_alive_and_blocks_writes() {
        let pool = BufPool::new(16, 4);
        let mut b = pool.take();
        b.extend_from_slice(&[9, 8, 7]);
        let view = b.slice(1, 2);
        assert!(!b.is_unique());
        assert!(b.frame_mut().is_none(), "shared frame is read-only");
        drop(b);
        assert_eq!(pool.free_frames(), 0, "view still pins the frame");
        assert_eq!(&view[..], &[8, 7]);
        drop(view);
        assert_eq!(pool.free_frames(), 1, "last owner recycles");
    }

    #[test]
    fn max_free_caps_the_free_list() {
        let pool = BufPool::new(8, 2);
        let bufs: Vec<_> = (0..5).map(|_| pool.take()).collect();
        drop(bufs);
        assert_eq!(pool.free_frames(), 2);
    }

    #[test]
    fn homeless_buffers_survive_without_a_pool() {
        let b = PacketBuf::from(vec![4, 5, 6]);
        assert_eq!(b, vec![4, 5, 6]);
        let v = b.slice(1, 2);
        drop(b);
        assert_eq!(&v[..], &[5, 6]);
    }

    #[test]
    fn frames_outlive_their_pool() {
        let pool = BufPool::new(8, 2);
        let mut b = pool.take();
        b.extend_from_slice(&[1]);
        drop(pool);
        assert_eq!(&b[..], &[1]);
        drop(b); // Pool gone: frame falls back to the allocator. No panic.
    }

    fn free_list_locks() -> u64 {
        FREE_LIST_LOCKS.with(Cell::get)
    }

    /// Count, don't time: the cycle a fill site runs per packet — take,
    /// fill, lend, share one view, let go of both — never reaches the
    /// free list once the first frame is out, and allocates nothing.
    /// (Without the lent FIFO every cycle locks the free list twice: the
    /// take's pop and the last drop's push — 2 N for N frames.)
    #[test]
    fn a_lent_frame_cycles_without_the_free_list_lock() {
        const N: u64 = 10_000;
        let pool = BufPool::new(64, 8);
        let cycle = |i: u64| {
            let mut b = pool.take();
            b.extend_from_slice(&i.to_le_bytes());
            pool.lend(&b);
            let view = b.slice(0, 8);
            drop(b);
            assert_eq!(view, i.to_le_bytes());
        };
        cycle(0); // warm-up: the one frame is made and lent
        let (locks, before) = (free_list_locks(), pool.stats());
        (1..=N).for_each(cycle);
        assert_eq!(free_list_locks() - locks, 0, "free-list lock acquisitions");
        let after = pool.stats();
        assert_eq!(after.misses - before.misses, 0, "fresh allocations");
        assert_eq!(after.hits - before.hits, N);
        assert_eq!(pool.lent.borrow().len(), 1, "one frame kept cycling");
    }

    #[test]
    fn an_unlent_frame_still_goes_round_the_free_list() {
        let pool = BufPool::new(64, 8);
        drop(pool.take());
        let locks = free_list_locks();
        drop(pool.take());
        assert_eq!(free_list_locks() - locks, 2, "one pop, one push");
    }

    #[test]
    fn lend_leaves_foreign_shared_and_detached_buffers_alone() {
        let (pool, other) = (BufPool::new(16, 4), BufPool::new(16, 4));
        pool.lend(&PacketBuf::empty());
        pool.lend(&PacketBuf::from(vec![1, 2, 3]));
        let foreign = other.take();
        pool.lend(&foreign);
        let mut shared = pool.take();
        shared.extend_from_slice(&[7]);
        let view = shared.clone();
        pool.lend(&shared);
        assert!(pool.lent.borrow().is_empty());
        drop((view, foreign));
        // Lending twice keeps one reference, not two.
        pool.lend(&shared);
        pool.lend(&shared);
        assert_eq!(pool.lent.borrow().len(), 1);
        assert!(shared.frame_mut().is_none(), "a lent frame is read-only");
    }

    #[test]
    fn lent_frames_outlive_the_pool_handle_and_are_freed() {
        let pool = BufPool::new(16, 4);
        let mut b = pool.take();
        b.extend_from_slice(&[5; 16]);
        pool.lend(&b);
        let done_with = pool.take();
        pool.lend(&done_with);
        let probes = [&b, &done_with].map(|f| match &f.repr {
            Repr::Frame { slot, .. } => Arc::downgrade(slot),
            _ => unreachable!("a taken buffer is a frame"),
        });
        drop(done_with);
        drop(pool); // frees the frame nobody reads, lets go of the other
        assert!(probes[1].upgrade().is_none(), "unread lent frame leaked");
        assert_eq!(&b[..], &[5; 16]);
        drop(b);
        assert!(probes[0].upgrade().is_none(), "orphaned lent frame leaked");
    }

    #[test]
    fn frame_mut_and_set_window_fill_like_recv() {
        let pool = BufPool::new(16, 2);
        let mut b = pool.take();
        let frame = b.frame_mut().expect("unique frame is writable");
        frame[..4].copy_from_slice(&[0xAA, 0xBB, 0xCC, 0xDD]);
        b.set_window(1, 2);
        assert_eq!(&b[..], &[0xBB, 0xCC]);
    }
}
