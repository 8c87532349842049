//! The lock-free SPSC frame ring that lives inside a mapped segment.
//!
//! One ring moves frames in one direction between exactly two parties:
//! a single producer and a single consumer, typically in different
//! processes. Layout, from the ring's base offset inside the segment:
//!
//! ```text
//! +0    head: u32      consumer cursor (free-running, wraps mod 2^32)
//! +64   tail: u32      producer cursor — the producer's own bookkeeping
//! +128  slot[0]        len: u32, stamp: u32, frame bytes...
//! +128+stride  slot[1] ...     stride = 8 + payload, rounded up to 64
//! ```
//!
//! `head` and `tail` sit on their own cache lines, and every slot starts
//! on a line of its own (the base is 64-byte aligned, the stride a
//! multiple of 64), so a producer filling one slot and a consumer
//! draining its neighbour never share a line. Both cursors free-run
//! (occupancy is `tail - head` in wrapping arithmetic), so full (`==
//! slots`) and empty (`== 0`) are never ambiguous and no slot is
//! sacrificed.
//!
//! # One line per frame
//!
//! A frame is published **inside its own slot**: the slot header's second
//! word is a *stamp* naming the cursor value the slot now holds
//! ([`stamp`]). The consumer polls the stamp of the one slot it is
//! waiting for and never looks at `tail`, so an arriving frame costs it
//! one coherence miss — the slot's first line, which carries the stamp,
//! the length and the first 56 frame bytes together — not a miss on the
//! producer's cursor line followed by a second one on the slot. `tail`
//! is a word only the producer touches; it lives in the mapping so that
//! a handle built over a ring already in use ([`RawRing::at`]) starts
//! from the right cursor.
//!
//! The stamp of cursor `c` is `c` with its top bit set. It is never zero,
//! so a slot of a fresh, zero-filled ring reads "empty" at every cursor
//! value, the `u32` wrap included; and two cursors share a stamp only
//! when they are a multiple of 2^31 apart, so what a slot holds from the
//! lap before (`c - slots`) never passes for the frame the consumer
//! expects (`slots` is at most 2^30).
//!
//! # What each side may touch
//!
//! * **Producer**: `tail` (loads and stores), the slot at `tail` (stores
//!   only), and loads of `head` — from the shared line only when its
//!   remembered copy says the ring is full.
//! * **Consumer**: `head` (loads and stores), the slot at its private
//!   read cursor (loads only). Nothing else: in particular never `tail`.
//!
//! The `head` line is the only word both sides touch, and each side keeps
//! — in its own `RawRing` handle, never in the mapping — what makes those
//! touches rare. The producer remembers the last `head` it loaded. The
//! consumer counts what it has retired in a private cursor and stores
//! that to `head` once per [`RawRing::head_batch`] frames — and always
//! before it reports empty, so a full producer is never left waiting on a
//! batch the consumer has stopped adding to. The batch is why `head` is
//! still a cursor and not a per-slot "consumed" mark: handing slots back
//! costs the consumer one store per quarter ring and the producer one
//! miss per quarter ring, where a mark in the slot would make the
//! consumer write every line it has just read.
//!
//! `head` never moves backwards, so a stale copy only ever *under*-states
//! what the consumer has retired: [`RawRing::free`] is a lower bound.
//!
//! # Ordering protocol — the entire correctness argument
//!
//! * **Producer**: write the frame bytes and the slot's `len` with plain
//!   stores, then publish with a `Release` store of `stamp(tail)` to the
//!   slot's stamp word. The stamp *is* the doorbell: everything written
//!   to the slot before it is visible to whoever acquires it. Then store
//!   `tail + 1` (`Relaxed` — nobody else reads it).
//! * **Consumer**: `Acquire`-load the stamp of the slot at its private
//!   cursor `c`. Exactly `stamp(c)` means the frame for cursor `c` is
//!   complete and fully visible; anything else — zero, or the stamp of an
//!   earlier lap — means the producer has not got here yet, and the
//!   consumer reads nothing more of the slot. The slot cannot hold a
//!   *later* lap's stamp: the producer may not write it again until
//!   `head` has passed `c`. Read the frame out, then retire it — alone or
//!   a batch at once — with a `Release` store of the private cursor to
//!   `head`.
//! * **Producer again**: its `Acquire` load of `head` is the license to
//!   overwrite every slot below the value loaded, since the consumer's
//!   reads of all of them precede that `Release` store. A remembered
//!   value licenses exactly the slots it licensed when it was loaded.
//!   Overwriting starts with plain stores to a slot whose stamp still
//!   names the lap before; the consumer, now waiting for this lap's
//!   stamp, reads only the stamp word until it appears.
//!
//! No CAS, no fetch-add, no spinning with the lock held. A frame crosses
//! on the one line it is written to; the `head` line crosses once per
//! quarter ring.

use std::sync::atomic::{AtomicU32, Ordering};

/// Bytes reserved for the two cursor cache lines at the ring's base.
pub const RING_CTRL_BYTES: usize = 128;

/// Per-slot record header: `len: u32` and the publication `stamp: u32`,
/// so frame bytes start 8-byte aligned.
pub const SLOT_HDR_BYTES: usize = 8;

/// Offset of the stamp word inside the slot header.
const SLOT_STAMP_OFF: usize = 4;

/// Cache line size the layout is padded to.
const LINE: usize = 64;

/// Most slots a ring may have: adjacent laps of one slot must differ in
/// the 31 cursor bits a [`stamp`] keeps.
const MAX_SLOTS: u32 = 1 << 30;

/// Distance between slot starts: header plus payload, rounded up so
/// that no two slots share a cache line.
fn slot_stride(payload_capacity: u32) -> usize {
    (SLOT_HDR_BYTES + payload_capacity as usize).next_multiple_of(LINE)
}

/// What the slot holding the frame of cursor `cursor` is stamped with:
/// the cursor with its top bit set. Never zero (a zero-filled slot is
/// empty at every cursor), and equal for two cursors only when they are
/// a multiple of 2^31 apart (never for adjacent laps of one slot).
pub const fn stamp(cursor: u32) -> u32 {
    cursor | 0x8000_0000
}

/// A raw view of one SPSC ring inside a shared mapping. Both endpoints
/// construct a `RawRing` over the same bytes; the role (producer or
/// consumer) is a usage convention enforced by the segment layer, which
/// hands each peer the `tx`/`rx` pair with the roles straight.
#[derive(Debug)]
pub struct RawRing {
    head: *const AtomicU32,
    tail: *const AtomicU32,
    slots_base: *mut u8,
    slots: u32,
    stride: u32,
    payload_capacity: u32,
    // This handle's private cursors (see "What each side may touch"
    // above). They are atomics only so that the handle stays `Sync` and
    // its methods `&self`: each is touched by one role alone, always
    // `Relaxed`.
    /// Producer: the last `head` loaded from the shared line.
    seen_head: AtomicU32,
    /// Consumer: the next slot to read; `head` trails it by less than
    /// [`RawRing::head_batch`].
    next_pop: AtomicU32,
    /// Loads this handle has made of the `head` line as the producer —
    /// the only line of the other side's that either role ever loads.
    #[cfg(test)]
    peer_line_loads: std::sync::atomic::AtomicU64,
}

// SAFETY: the raw pointers target a shared mapping whose lifetime is
// owned by the Segment holding this ring; the SPSC protocol provides the
// synchronization. Moving the handle across threads is safe, and so is
// sharing it: every access to the mapping goes through the
// acquire/release protocol of the module docs, under the same
// single-producer/single-consumer convention that `at` already demands
// across processes, and the private cursors are atomics.
unsafe impl Send for RawRing {}
unsafe impl Sync for RawRing {}

impl RawRing {
    /// Total bytes a ring with this geometry occupies (a multiple of 64,
    /// so rings laid end to end keep their alignment).
    pub fn bytes_for(slots: u32, payload_capacity: u32) -> usize {
        RING_CTRL_BYTES + slots as usize * slot_stride(payload_capacity)
    }

    /// Build a view over `base`, which must point at `bytes_for(slots,
    /// payload_capacity)` bytes of shared, zero-initialized-at-creation
    /// memory, 64-byte aligned. The handle's private cursors start from
    /// whatever the shared ones hold, so attaching to a ring that is
    /// already in use is fine.
    ///
    /// # Safety
    /// `base` must stay valid (the mapping must outlive the ring view),
    /// and across all processes at most one endpoint may produce and one
    /// consume.
    pub unsafe fn at(base: *mut u8, slots: u32, payload_capacity: u32) -> RawRing {
        assert!(slots.is_power_of_two(), "slot count must be a power of two");
        assert!(slots <= MAX_SLOTS, "slot count must be at most 2^30");
        assert_eq!(
            base as usize % LINE,
            0,
            "ring base (and so slot 0) must be 64-byte aligned"
        );
        let stride = u32::try_from(slot_stride(payload_capacity)).expect("slot stride fits u32");
        let head = base as *const AtomicU32;
        // SAFETY: the caller vouches for `bytes_for(..)` valid bytes at
        // `base`, aligned as just asserted; `head` is their first word.
        let start = unsafe { &*head }.load(Ordering::Acquire);
        RawRing {
            head,
            // SAFETY: both offsets lie inside the control lines that
            // `bytes_for` counts in.
            tail: unsafe { base.add(LINE) } as *const AtomicU32,
            slots_base: unsafe { base.add(RING_CTRL_BYTES) },
            slots,
            stride,
            payload_capacity,
            seen_head: AtomicU32::new(start),
            next_pop: AtomicU32::new(start),
            #[cfg(test)]
            peer_line_loads: Default::default(),
        }
    }

    fn head(&self) -> &AtomicU32 {
        // SAFETY: `at`'s caller keeps the mapping valid for the handle's
        // life; the word is only ever accessed atomically.
        unsafe { &*self.head }
    }

    fn tail(&self) -> &AtomicU32 {
        // SAFETY: as for `head`.
        unsafe { &*self.tail }
    }

    fn slot(&self, cursor: u32) -> *mut u8 {
        let idx = (cursor & (self.slots - 1)) as usize;
        // SAFETY: `idx < slots`, and `bytes_for` counts `slots` strides
        // from `slots_base`.
        unsafe { self.slots_base.add(idx * self.stride as usize) }
    }

    /// The stamp word of the slot at `slot`.
    fn slot_stamp(&self, slot: *mut u8) -> &AtomicU32 {
        // SAFETY: `slot` came from `Self::slot`, so the header's second
        // word is inside the mapping and 4-byte aligned (slots start on
        // cache lines); both sides access it only atomically.
        unsafe { &*(slot.add(SLOT_STAMP_OFF) as *const AtomicU32) }
    }

    /// Frame bytes one slot can carry.
    pub fn payload_capacity(&self) -> usize {
        self.payload_capacity as usize
    }

    /// How many retired frames the consumer lets pile up before it
    /// stores `head`: a quarter of the ring, so a producer that ran into
    /// a full ring gets slots back in runs while three quarters of the
    /// ring stay in flight.
    pub fn head_batch(&self) -> u32 {
        (self.slots / 4).max(1)
    }

    /// Producer: re-read the shared `head` into the private copy.
    fn refresh_head(&self) -> u32 {
        #[cfg(test)]
        self.peer_line_loads.fetch_add(1, Ordering::Relaxed);
        let h = self.head().load(Ordering::Acquire);
        self.seen_head.store(h, Ordering::Relaxed);
        h
    }

    /// Slots free for the producer, for the producer to call: always
    /// reads the shared `head`, so the next `free()` pushes succeed
    /// without touching that line again. A lower bound — the consumer
    /// may be retiring concurrently, and may hold up to `head_batch() -
    /// 1` retired slots it has not yet stored.
    pub fn free(&self) -> usize {
        let t = self.tail().load(Ordering::Relaxed);
        let h = self.refresh_head();
        (self.slots - t.wrapping_sub(h)) as usize
    }

    /// Producer: reserve the next slot, let `write` fill it, publish.
    ///
    /// `write` gets the slot's payload region and returns the frame
    /// length actually written, or `None` to abandon the reservation
    /// (nothing is published). Returns `None` when the ring is full,
    /// `Some(result_of_write)` otherwise.
    pub fn try_push<T>(&self, write: impl FnOnce(&mut [u8]) -> Option<T>) -> Option<Option<T>>
    where
        T: FrameLen,
    {
        let t = self.tail().load(Ordering::Relaxed);
        if t.wrapping_sub(self.seen_head.load(Ordering::Relaxed)) == self.slots
            && t.wrapping_sub(self.refresh_head()) == self.slots
        {
            return None; // full
        }
        let slot = self.slot(t);
        // SAFETY: the payload region of a slot inside the mapping; the
        // `head` value checked above licenses the producer to write it,
        // and the consumer reads none of it before this lap's stamp.
        let payload = unsafe {
            std::slice::from_raw_parts_mut(slot.add(SLOT_HDR_BYTES), self.payload_capacity())
        };
        let out = write(payload);
        if let Some(v) = &out {
            let len = v.frame_len() as u32;
            debug_assert!(len as usize <= self.payload_capacity());
            // SAFETY: the slot's first word, licensed as the payload is.
            unsafe {
                (slot as *mut u32).write(len);
            }
            // The doorbell, on the frame's own line: everything above
            // becomes visible with this one release store.
            self.slot_stamp(slot).store(stamp(t), Ordering::Release);
            self.tail().store(t.wrapping_add(1), Ordering::Relaxed);
        }
        Some(out)
    }

    /// Consumer: read the oldest frame out through `read`, retire the
    /// slot. Returns `None` when the ring is empty — by which time every
    /// slot retired so far has been handed back to the producer.
    pub fn try_pop<T>(&self, read: impl FnOnce(&[u8]) -> T) -> Option<T> {
        let h = self.next_pop.load(Ordering::Relaxed);
        let slot = self.slot(h);
        if self.slot_stamp(slot).load(Ordering::Acquire) != stamp(h) {
            // Empty. Nothing more will join the open batch: hand it back.
            if self.head().load(Ordering::Relaxed) != h {
                self.head().store(h, Ordering::Release);
            }
            return None;
        }
        // SAFETY: this lap's stamp was acquired, so `len` and the frame
        // bytes the producer wrote before it are visible, and the
        // producer leaves the slot alone until `head` passes `h`.
        let len = unsafe { (slot as *const u32).read() } as usize;
        debug_assert!(len <= self.payload_capacity(), "corrupt slot length");
        // SAFETY: as above; clamped, so that even a length the producer
        // never wrote stays inside the slot.
        let len = len.min(self.payload_capacity());
        let frame = unsafe { std::slice::from_raw_parts(slot.add(SLOT_HDR_BYTES), len) };
        let out = read(frame);
        let h = h.wrapping_add(1);
        self.next_pop.store(h, Ordering::Relaxed);
        // License the producer to overwrite the batch, once it is worth
        // a store the producer's next look at `head` will miss on.
        if h.wrapping_sub(self.head().load(Ordering::Relaxed)) >= self.head_batch() {
            self.head().store(h, Ordering::Release);
        }
        Some(out)
    }
}

/// Types [`RawRing::try_push`] can publish: anything that knows the
/// frame length it wrote.
pub trait FrameLen {
    /// Bytes of frame written into the slot.
    fn frame_len(&self) -> usize;
}

impl FrameLen for usize {
    fn frame_len(&self) -> usize {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cache line of ring storage.
    #[derive(Clone, Copy)]
    #[repr(align(64))]
    struct Line(#[allow(dead_code)] [u8; LINE]);

    /// An owned, heap-backed ring for protocol tests (the segment layer
    /// provides the mmap-backed version).
    struct OwnedRing {
        /// Keeps the storage the ring points into alive.
        _buf: Vec<Line>,
        ring: RawRing,
    }

    fn owned(slots: u32, payload: u32) -> OwnedRing {
        let bytes = RawRing::bytes_for(slots, payload);
        let mut buf = vec![Line([0; LINE]); bytes.div_ceil(LINE)];
        let ring = unsafe { RawRing::at(buf.as_mut_ptr() as *mut u8, slots, payload) };
        OwnedRing { _buf: buf, ring }
    }

    #[test]
    fn push_pop_roundtrip() {
        let r = owned(4, 64);
        let pushed = r.ring.try_push(|slot| {
            slot[..5].copy_from_slice(b"hello");
            Some(5usize)
        });
        assert!(matches!(pushed, Some(Some(5))));
        let got = r.ring.try_pop(|frame| frame.to_vec()).expect("one frame");
        assert_eq!(got, b"hello");
        assert!(r.ring.try_pop(|_| ()).is_none(), "drained");
    }

    #[test]
    fn full_ring_rejects_without_overwrite() {
        let r = owned(2, 16);
        for i in 0..2u8 {
            let ok = r.ring.try_push(|slot| {
                slot[0] = i;
                Some(1usize)
            });
            assert!(matches!(ok, Some(Some(1))));
        }
        assert!(r.ring.try_push(|_| Some(1usize)).is_none(), "full");
        assert_eq!(r.ring.free(), 0);
        // The queued frames are intact, in order.
        assert_eq!(r.ring.try_pop(|f| f[0]), Some(0));
        assert_eq!(r.ring.try_pop(|f| f[0]), Some(1));
    }

    #[test]
    fn abandoned_reservation_publishes_nothing() {
        let r = owned(4, 16);
        let out = r.ring.try_push(|_slot| Option::<usize>::None);
        assert!(matches!(out, Some(None)), "reservation made, not published");
        assert!(r.ring.try_pop(|_| ()).is_none());
        assert_eq!(r.ring.free(), 4);
    }

    #[test]
    fn slots_start_on_their_own_cache_lines() {
        // 8 + 4096 = 4104 would put slot 1's `len` in slot 0's last line.
        let r = owned(4, 4096);
        assert_eq!(RawRing::bytes_for(4, 4096), RING_CTRL_BYTES + 4 * 4160);
        for cursor in 0..4 {
            assert_eq!(r.ring.slot(cursor) as usize % LINE, 0);
        }
        assert_eq!(r.ring.payload_capacity(), 4096);
    }

    /// A consumer that pops fewer frames than the batch and then finds
    /// the ring empty must have stored `head`: a full producer is never
    /// left waiting on a batch the consumer has stopped adding to.
    #[test]
    fn seeing_empty_publishes_an_open_batch() {
        let r = owned(16, 16);
        let head = || r.ring.head().load(Ordering::Relaxed);
        let batch = r.ring.head_batch();
        assert_eq!(batch, 4);
        let fill = |n: u32| {
            for _ in 0..n {
                assert!(r.ring.try_push(|_| Some(1usize)).is_some());
            }
        };
        fill(16);
        assert!(r.ring.try_push(|_| Some(1usize)).is_none(), "full");

        // Inside a batch nothing is stored, so the producer still sees
        // a full ring: `free()` is a lower bound, not a count.
        for _ in 0..batch - 1 {
            assert!(r.ring.try_pop(|_| ()).is_some());
        }
        assert_eq!(head(), 0);
        assert_eq!(r.ring.free(), 0);
        // The pop that fills the batch stores it.
        assert!(r.ring.try_pop(|_| ()).is_some());
        assert_eq!(head(), batch);
        assert_eq!(r.ring.free(), 4);

        // Twelve frames left: three whole batches, each stored as it
        // fills. Then two more frames open a batch that never fills —
        // the pop that reports empty hands it back.
        for _ in 0..12 {
            assert!(r.ring.try_pop(|_| ()).is_some());
        }
        assert_eq!(head(), 16);
        fill(2);
        assert!(r.ring.try_pop(|_| ()).is_some());
        assert!(r.ring.try_pop(|_| ()).is_some());
        assert_eq!(head(), 16, "short batch still open");
        assert_eq!(r.ring.free(), 14);
        assert!(r.ring.try_pop(|_| ()).is_none(), "empty");
        assert_eq!(head(), 18, "stored before reporting empty");
        assert_eq!(r.ring.free(), 16);
    }

    #[test]
    fn a_handle_built_over_a_ring_in_use_starts_from_its_cursors() {
        let a = owned(4, 16);
        for i in 0..3u8 {
            a.ring.try_push(|slot| {
                slot[0] = i;
                Some(1usize)
            });
        }
        // A batch of one: this pop is stored at once.
        assert_eq!(a.ring.try_pop(|f| f[0]), Some(0));
        // SAFETY: the same storage, geometry and thread as `a`.
        let late = unsafe { RawRing::at(a.ring.head as *mut u8, 4, 16) };
        assert_eq!(late.free(), 2);
        assert_eq!(late.try_pop(|f| f[0]), Some(1));
        assert_eq!(late.try_pop(|f| f[0]), Some(2));
        assert!(late.try_pop(|_| ()).is_none());
    }

    /// Count, don't time: with the consumer keeping up (push one, pop
    /// one), the consumer never loads a line the producer writes other
    /// than the slot it is waiting for, and the producer loads `head`
    /// once per batch the consumer hands back. Two handles over one
    /// ring, as the two ends of a segment hold. (A consumer that went by
    /// `tail` would find its remembered copy saying "empty" before every
    /// pop here: N loads of the producer's cursor line for N frames.)
    #[test]
    fn a_frame_crosses_without_a_load_of_the_other_sides_cursor() {
        const N: u64 = 10_000;
        let storage = owned(64, 64);
        let producer = &storage.ring;
        // SAFETY: the same storage and geometry; one test thread plays
        // the two roles in turn.
        let consumer = unsafe { RawRing::at(producer.head as *mut u8, 64, 64) };
        let loads = |r: &RawRing| r.peer_line_loads.load(Ordering::Relaxed);
        for i in 0..N {
            let pushed = producer.try_push(|slot| {
                slot[..8].copy_from_slice(&i.to_le_bytes());
                Some(8usize)
            });
            assert!(matches!(pushed, Some(Some(8))));
            let got = consumer.try_pop(|f| u64::from_le_bytes(f.try_into().unwrap()));
            assert_eq!(got, Some(i));
        }
        assert_eq!(loads(&consumer), 0, "the consumer never reads `tail`");
        let batches = N / u64::from(producer.head_batch());
        assert!(
            loads(producer) <= batches + 1,
            "{} loads of `head` for {N} frames, {batches} batches",
            loads(producer)
        );
    }
}
