//! The symmetric heap and one-sided operations.
//!
//! Every node allocates a heap of identical size; remote operations name
//! plain byte offsets into the target's heap. The heap *is* the
//! [`fm_core::onesided`] arena, registered whole at startup, so every
//! node holds the same [`RegionHandle`] for every peer's heap. Between
//! PEs of one host it is shared memory ([`fm_shm::heap`]; DESIGN.md §16,
//! "The mapped heap"), announced in one op on [`SHMEM_HANDLER`] and
//! attached by the end of the first [`Shmem::barrier_all`]: a put or get
//! longer than one chunk to such a PE is one copy into or out of its
//! heap, made by the caller, with no message. An op aimed at the caller's
//! own PE acts on its heap directly and is complete on return. Everything
//! else is a message the target applies inside its own `FM_extract` —
//! puts and gets through the one-sided landing path, with no staging
//! copy, and `accumulate`, `fetch_add` and the barrier
//! Active-Messages-style on this crate's own handler, which is what makes
//! them atomic. This type alone decides which ops are local: a layer
//! above it (Global Arrays) names a PE and an offset for every element,
//! its own included.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use fm_core::blocking::{Backoff, Step, WEDGE_LIMIT};
use fm_core::device::NetDevice;
use fm_core::onesided::CHUNK_BYTES;
use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, FmStream, Message, Onesided, OsPort, OsStatus, OsToken, RegionHandle};
use fm_shm::heap;
use fm_sys::SharedMem;

use crate::wire::{Op, OP_BYTES};

/// FM handler id used by Shmem-FM (accumulate/fetch-add/barrier; bulk
/// put/get use `fm_core::onesided`'s handlers).
pub const SHMEM_HANDLER: HandlerId = HandlerId(120);

struct ShState {
    next_req: u32,
    /// Fetch-add replies by request; `None` when the target refused.
    fadd_replies: HashMap<u32, Option<i64>>,
    /// Accumulate acknowledgements received (vs. issued, for `quiet`).
    acc_acks: u64,
    /// Barrier notifications seen: (epoch, round, src).
    barrier_seen: HashSet<(u64, u32, usize)>,
    /// Heap ids heard, and per PE its heap if that could be attached.
    heard: usize,
    heaps: Vec<Option<Heap>>,
    /// Ops refused (e.g. out of the target heap's bounds), by token.
    refused: Vec<(Option<OsToken>, OsStatus)>,
}

type Heap = Arc<SharedMem>;

/// One node's shmem context.
pub struct Shmem<D: NetDevice> {
    fm: Fm2Engine<D>,
    os: RefCell<Onesided<D>>,
    port: OsPort,
    heap_h: RegionHandle,
    /// The heap itself, which the port's arena is.
    heap: Heap,
    /// This PE's id: ops aimed at it act on `heap` directly.
    me: usize,
    state: Rc<RefCell<ShState>>,
    accs_issued: Cell<u64>,
    barrier_epoch: Cell<u64>,
    /// PEs this heap's id was sent to, each of which sends its own.
    local: usize,
}

impl<D: NetDevice + 'static> Shmem<D> {
    /// Create a shmem context with a `heap_bytes` symmetric heap and
    /// install the FM handlers. Every node must use the same size, so
    /// the whole-heap registration yields the *same* region handle on
    /// every node — the symmetry SHMEM addressing relies on. The engine
    /// is turned once, to learn which peers to announce the heap to.
    pub fn new(fm: Fm2Engine<D>, heap_bytes: usize) -> Self {
        fm.progress();
        let local: Vec<(usize, u32)> = (0..fm.num_nodes())
            .filter_map(|p| Some((p, fm.same_host_pid(p)?)))
            .collect();
        let (own, id) = heap::publish(heap_bytes, local.iter().map(|&(_, pid)| pid));
        let os = Onesided::with_arena(&fm, Arc::clone(&own));
        let port = os.port();
        let heap_h = os.register(0, heap_bytes).expect("whole-heap registration");
        let state = Rc::new(RefCell::new(ShState {
            next_req: 0,
            fadd_replies: HashMap::new(),
            acc_acks: 0,
            barrier_seen: HashSet::new(),
            heard: 0,
            heaps: vec![None; fm.num_nodes()],
            refused: Vec::new(),
        }));
        let st = Rc::clone(&state);
        let (fm_h, hheap) = (fm.handle(), Arc::clone(&own));
        fm.set_handler(SHMEM_HANDLER, move |stream: FmStream, src| {
            let st = Rc::clone(&st);
            let fm = fm_h.clone();
            let heap = Arc::clone(&hheap);
            async move {
                let mut hdr = [0u8; OP_BYTES];
                stream.receive(&mut hdr).await;
                match Op::decode(&hdr) {
                    Op::AccAck { refused } => {
                        let mut st = st.borrow_mut();
                        st.acc_acks += 1;
                        if refused {
                            st.refused.push((None, OsStatus::OutOfBounds));
                        }
                    }
                    Op::AccF64 { offset } => {
                        let len = stream.msg_len().saturating_sub(OP_BYTES);
                        let contrib = stream.receive_vec(len).await;
                        let refused = !add_f64(&heap, offset, &contrib);
                        // Accumulates are acked like puts so `quiet`
                        // covers them; a refusal rides on the ack.
                        let ack = Op::AccAck { refused }.encode();
                        fm.send_from_handler(src, SHMEM_HANDLER, Message::new(&ack, None));
                    }
                    Op::Fadd { req, offset, delta } => {
                        let old = fetch_add(&heap, offset, delta);
                        let reply = Op::FaddReply { req, old }.encode();
                        fm.send_from_handler(src, SHMEM_HANDLER, Message::new(&reply, None));
                    }
                    Op::FaddReply { req, old } => {
                        st.borrow_mut().fadd_replies.insert(req, old);
                    }
                    Op::Barrier { epoch, round } => {
                        st.borrow_mut().barrier_seen.insert((epoch, round, src));
                    }
                    Op::Heap(id) => {
                        let pid = fm.same_host_pid(src);
                        let mut st = st.borrow_mut();
                        st.heard += 1;
                        st.heaps[src] = pid.and_then(|pid| heap::attach(pid, id, heap_bytes).ok());
                    }
                }
            }
        });
        let sh = Shmem {
            me: fm.node_id(),
            fm,
            os: RefCell::new(os),
            port,
            heap_h,
            heap: own,
            state,
            accs_issued: Cell::new(0),
            barrier_epoch: Cell::new(0),
            local: local.len(),
        };
        for (p, _) in local {
            sh.send_op(p, &Op::Heap(id).encode(), &[]);
        }
        sh
    }

    /// The underlying FM engine.
    pub fn fm(&self) -> &Fm2Engine<D> {
        &self.fm
    }

    /// This node's id.
    pub fn my_pe(&self) -> usize {
        self.me
    }

    /// Number of nodes.
    pub fn n_pes(&self) -> usize {
        self.fm.num_nodes()
    }

    /// Heap size in bytes.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Read local heap bytes. Panics outside the heap.
    pub fn local_read(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.heap.read(offset, &mut out);
        out
    }

    /// Write local heap bytes. Panics outside the heap.
    pub fn local_write(&self, offset: usize, data: &[u8]) {
        self.heap.write(offset, data);
    }

    /// Drive communication. Returns whether it moved anything (FM handed
    /// a handler any bytes).
    pub fn progress(&self) -> bool {
        let moved = self.fm.extract_all() > 0;
        self.os.borrow_mut().progress();
        self.drain_completions();
        moved
    }

    fn drain_completions(&self) {
        while let Some(c) = self.port.poll_completion() {
            if c.status != OsStatus::Ok {
                self.refuse(Some(c.token), c.status);
            }
        }
    }

    /// Every blocking op of this layer: poll `ready` until it yields a
    /// value through [`Backoff::wait`], whose progress step is
    /// [`Shmem::progress`]. Panics with the "peer gone?" diagnosis when
    /// the wait stays fruitless for the whole wedge limit of [`Backoff`]
    /// (low under this crate's own unit tests, which never block on a
    /// live peer and pin that exit).
    fn wait_for<T>(&self, what: &'static str, mut ready: impl FnMut() -> Option<T>) -> T {
        Backoff::with_limit(what, if cfg!(test) { 10_000 } else { WEDGE_LIMIT })
            .wait(|| Step::or_progress(ready(), || self.progress()))
    }

    fn refuse(&self, token: Option<OsToken>, status: OsStatus) {
        self.state.borrow_mut().refused.push((token, status));
    }

    fn send_op(&self, dst: usize, hdr: &[u8], payload: &[u8]) {
        self.wait_for("shmem send", || {
            self.fm
                .try_send_message(dst, SHMEM_HANDLER, &[hdr, payload])
                .ok()
        })
    }

    /// `dst`'s heap for a copy of `len` bytes at `offset` made here: this
    /// PE's own at once, a peer's once this PE's message-path ops to it
    /// are done; `None` where the bytes travel as messages: one chunk or
    /// less, or no heap attached (another host, a failed attach, `Down`).
    fn direct(&self, dst: usize, offset: usize, len: usize) -> Option<Result<Heap, OsStatus>> {
        let heap = if dst == self.me {
            Arc::clone(&self.heap)
        } else {
            if len <= CHUNK_BYTES {
                return None;
            }
            self.fm.same_host_pid(dst)?;
            let heap = self.state.borrow().heaps.get(dst)?.clone()?;
            self.wait_for("shmem put order", || {
                (self.port.pending_ops_to(dst) == 0 && self.accs_quiet()).then_some(())
            });
            heap
        };
        let fits = inside(&self.heap, offset as u64, len);
        Some(fits.then_some(heap).ok_or(OsStatus::OutOfBounds))
    }

    /// One-sided put: write `data` into `dst`'s heap at `offset`. The
    /// caller may reuse `data` on return. To this PE, and to a PE whose
    /// heap this one has mapped (module docs) when longer than one chunk,
    /// a put is copied into that heap here and now. Otherwise `data` is
    /// copied at once and lands in the remote heap packet by packet;
    /// completion (remotely visible) is guaranteed only after
    /// [`Shmem::quiet`].
    pub fn put(&self, dst: usize, offset: usize, data: &[u8]) {
        match self.direct(dst, offset, data.len()) {
            Some(Ok(heap)) => {
                heap.write(offset, data);
                self.fm.charge_memcpy(data.len());
            }
            Some(Err(status)) => self.refuse(None, status),
            None => {
                self.port.put(dst, self.heap_h, offset as u64, data);
            }
        }
    }

    /// Statuses of puts and accumulates refused by their target (bad
    /// offset, stale heap handle, peer down) since the last call, this PE
    /// included. An op that fails remotely still counts as complete for
    /// [`Shmem::quiet`] — SHMEM has no reply channel for puts, so
    /// refusals surface here.
    pub fn take_put_failures(&self) -> Vec<OsStatus> {
        let refused = std::mem::take(&mut self.state.borrow_mut().refused);
        refused.into_iter().map(|(_, status)| status).collect()
    }

    /// Block until every put and accumulate issued by this node has
    /// been applied (or refused — see [`Shmem::take_put_failures`]) at
    /// its target. Completions are drained first, so every refusal in by
    /// then is in the failures too.
    pub fn quiet(&self) {
        self.wait_for("shmem quiet", || {
            self.drain_completions();
            (self.port.pending_ops() == 0 && self.accs_quiet()).then_some(())
        });
        // Orders this PE's copies into mapped heaps before later stores;
        // the target acquires them with the next ring packet's stamp.
        fence(Ordering::Release);
    }

    fn accs_quiet(&self) -> bool {
        self.state.borrow().acc_acks >= self.accs_issued.get()
    }

    /// One-sided get: read `len` bytes from `dst`'s heap at `offset`
    /// (blocking). The reply lands straight in the result buffer, no
    /// bounce copy: through the one-sided layer's sink, or, from this PE
    /// or longer than a chunk from a PE whose heap this one has mapped,
    /// copied out of that heap here, with no message at all.
    pub fn get(&self, dst: usize, offset: usize, len: usize) -> Vec<u8> {
        if len == 0 {
            return Vec::new();
        }
        if let Some(heap) = self.direct(dst, offset, len) {
            let heap = heap.unwrap_or_else(|status| panic!("get refused by target: {status:?}"));
            let mut out = vec![0u8; len];
            heap.read(offset, &mut out);
            self.fm.charge_memcpy(len);
            return out;
        }
        let scratch = self
            .port
            .register_owned(vec![0u8; len])
            .expect("scratch registration");
        let token = self
            .port
            .get(dst, self.heap_h, offset as u64, scratch, 0, len)
            .expect("scratch window valid");
        // The scratch is pinned until the get has completed, either way.
        let out = self.wait_for("shmem get", || self.port.deregister_owned(scratch).ok());
        self.drain_completions();
        let st = self.state.borrow();
        if let Some((_, status)) = st.refused.iter().find(|r| r.0 == Some(token)) {
            panic!("get refused by target: {status:?}");
        }
        out
    }

    /// One-sided elementwise f64 accumulate into `dst`'s heap. Covered by
    /// [`Shmem::quiet`] like a put; into this PE's heap it is applied here.
    /// Outside the target's heap it is refused as a put is
    /// ([`Shmem::take_put_failures`]).
    pub fn accumulate_f64(&self, dst: usize, offset: usize, contrib: &[f64]) {
        let bytes: Vec<u8> = contrib.iter().flat_map(|x| x.to_le_bytes()).collect();
        if dst == self.me {
            if !add_f64(&self.heap, offset as u64, &bytes) {
                self.refuse(None, OsStatus::OutOfBounds);
            }
            return;
        }
        self.accs_issued.set(self.accs_issued.get() + 1);
        self.send_op(
            dst,
            &Op::AccF64 {
                offset: offset as u64,
            }
            .encode(),
            &bytes,
        );
    }

    /// Atomic fetch-add on the i64 at `dst`'s heap `offset` (blocking;
    /// atomicity holds because the target applies it in its single-
    /// threaded handler; aimed at this PE, it is applied here, where no
    /// handler can run in between).
    ///
    /// # Panics
    /// Panics if the target refuses it (outside its heap), as
    /// [`Shmem::get`] does.
    pub fn fetch_add_i64(&self, dst: usize, offset: usize, delta: i64) -> i64 {
        let offset = offset as u64;
        let old = if dst == self.me {
            fetch_add(&self.heap, offset, delta)
        } else {
            let req = {
                let mut s = self.state.borrow_mut();
                s.next_req += 1;
                s.next_req
            };
            self.send_op(dst, &Op::Fadd { req, offset, delta }.encode(), &[]);
            self.wait_for("shmem fetch_add", || {
                self.state.borrow_mut().fadd_replies.remove(&req)
            })
        };
        old.unwrap_or_else(|| panic!("fetch_add refused by target: {:?}", OsStatus::OutOfBounds))
    }

    /// Block until the i64 at *local* heap `offset` satisfies `pred`
    /// (classic `shmem_wait_until`): the standard point-to-point
    /// synchronization where a peer puts data, calls [`Shmem::quiet`],
    /// then puts a flag the waiter spins on. Progress is driven while
    /// waiting, so the peer's puts land.
    pub fn wait_until_i64(&self, offset: usize, pred: impl Fn(i64) -> bool) -> i64 {
        self.wait_for("shmem wait_until", || {
            let v = i64::from_le_bytes(self.local_read(offset, 8).try_into().expect("8 bytes"));
            pred(v).then_some(v)
        })
    }

    /// Dissemination barrier across all PEs (blocking).
    pub fn barrier_all(&self) {
        let n = self.n_pes();
        if n <= 1 {
            return;
        }
        let epoch = self.barrier_epoch.get();
        self.barrier_epoch.set(epoch + 1);
        let me = self.my_pe();
        let mut dist = 1usize;
        let mut round = 0u32;
        while dist < n {
            let dst = (me + dist) % n;
            let src = (me + n - dist) % n;
            self.send_op(dst, &Op::Barrier { epoch, round }.encode(), &[]);
            self.wait_for("shmem barrier", || {
                let seen = self
                    .state
                    .borrow_mut()
                    .barrier_seen
                    .remove(&(epoch, round, src));
                seen.then_some(())
            });
            dist *= 2;
            round += 1;
        }
        // Every same-host PE sent its heap's id before entering this
        // barrier: wait for any still on the way.
        self.wait_for("shmem heap handshake", || {
            (self.state.borrow().heard >= self.local).then_some(())
        });
    }
}

/// `len` bytes at `offset` lie inside `heap`: what a target checks
/// before it applies an op a peer named.
fn inside(heap: &SharedMem, offset: u64, len: usize) -> bool {
    offset
        .checked_add(len as u64)
        .is_some_and(|end| end <= heap.len() as u64)
}

/// Add the f64s of `contrib` into `heap` at `offset`, element by element;
/// false, adding nothing, unless they are whole f64s inside the heap.
fn add_f64(heap: &SharedMem, offset: u64, contrib: &[u8]) -> bool {
    if !contrib.len().is_multiple_of(8) || !inside(heap, offset, contrib.len()) {
        return false;
    }
    let offset = offset as usize;
    let mut cur = vec![0u8; contrib.len()];
    heap.read(offset, &mut cur);
    for (c, slot) in contrib.chunks_exact(8).zip(cur.chunks_exact_mut(8)) {
        let a = f64::from_le_bytes(slot[..8].try_into().unwrap());
        let b = f64::from_le_bytes(c.try_into().unwrap());
        slot.copy_from_slice(&(a + b).to_le_bytes());
    }
    heap.write(offset, &cur);
    true
}

/// Add `delta` to the i64 in `heap` at `offset`; the value before, or
/// `None`, adding nothing, outside the heap.
fn fetch_add(heap: &SharedMem, offset: u64, delta: i64) -> Option<i64> {
    if !inside(heap, offset, 8) {
        return None;
    }
    let offset = offset as usize;
    let mut cur = [0u8; 8];
    heap.read(offset, &mut cur);
    let old = i64::from_le_bytes(cur);
    heap.write(offset, &old.wrapping_add(delta).to_le_bytes());
    Some(old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::device::{LoopbackDevice, LoopbackPair};
    use fm_model::MachineProfile;

    fn pair(heap: usize) -> (Shmem<LoopbackDevice>, Shmem<LoopbackDevice>) {
        let (a, b) = LoopbackPair::new(256);
        let p = MachineProfile::ppro200_fm2();
        (
            Shmem::new(Fm2Engine::new(a, p), heap),
            Shmem::new(Fm2Engine::new(b, p), heap),
        )
    }

    fn pump(a: &Shmem<LoopbackDevice>, b: &Shmem<LoopbackDevice>) {
        for _ in 0..12 {
            a.progress();
            b.progress();
            a.fm()
                .with_device(|da| b.fm().with_device(|db| LoopbackPair::deliver(da, db)));
        }
        a.progress();
        b.progress();
    }

    #[test]
    fn put_lands_in_remote_heap() {
        let (a, b) = pair(4096);
        a.put(1, 100, &[1, 2, 3, 4]);
        pump(&a, &b);
        assert_eq!(b.local_read(100, 4), vec![1, 2, 3, 4]);
        // The completion came back: quiet() returns immediately.
        assert_eq!(a.port.pending_ops(), 0);
        a.quiet();
    }

    #[test]
    fn local_read_write_round_trip() {
        let (a, _b) = pair(4096);
        a.local_write(8, &[9, 9]);
        assert_eq!(a.local_read(8, 2), vec![9, 9]);
        assert_eq!(a.heap_len(), 4096);
        assert_eq!(a.my_pe(), 0);
        assert_eq!(a.n_pes(), 2);
    }

    #[test]
    fn accumulate_adds_elementwise() {
        let (a, b) = pair(4096);
        b.local_write(0, &1.5f64.to_le_bytes());
        a.accumulate_f64(1, 0, &[2.25]);
        pump(&a, &b);
        let v = f64::from_le_bytes(b.local_read(0, 8).try_into().unwrap());
        assert_eq!(v, 3.75);
        // A second accumulate stacks.
        a.accumulate_f64(1, 0, &[0.25]);
        pump(&a, &b);
        let v = f64::from_le_bytes(b.local_read(0, 8).try_into().unwrap());
        assert_eq!(v, 4.0);
    }

    #[test]
    fn multi_packet_put_is_intact() {
        let (a, b) = pair(4096);
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 256) as u8).collect();
        a.put(1, 512, &data);
        pump(&a, &b);
        assert_eq!(b.local_read(512, 3000), data);
    }

    #[test]
    fn put_beyond_heap_is_refused_with_reported_error() {
        let (a, b) = pair(4096);
        a.put(1, 4090, &[0u8; 16]);
        pump(&a, &b);
        a.quiet();
        // The put completed (quiet returned) but was refused at the
        // target with a reported error instead of corrupting memory.
        assert_eq!(a.take_put_failures(), vec![OsStatus::OutOfBounds]);
        assert_eq!(b.local_read(4090, 6), vec![0u8; 6]);
    }

    #[test]
    fn multi_chunk_put_lands_intact() {
        // Bigger heap so a put of several chunks fits.
        let (a, b) = pair(128 * 1024);
        let data: Vec<u8> = (0..80_000u32).map(|i| (i % 251) as u8).collect();
        a.put(1, 4096, &data);
        pump(&a, &b);
        a.quiet();
        assert_eq!(b.local_read(4096, data.len()), data);
        assert!(a.take_put_failures().is_empty());
    }

    #[test]
    fn ops_on_this_pe_send_nothing_and_are_visible_at_once() {
        let (a, b) = pair(4096);
        let sent = a.fm().stats().messages_sent;
        a.put(0, 8, &[7, 7]);
        assert_eq!(a.local_read(8, 2), vec![7, 7]);
        assert_eq!(a.get(0, 8, 2), vec![7, 7]);
        a.local_write(64, &1.5f64.to_le_bytes());
        a.accumulate_f64(0, 64, &[2.25]);
        assert_eq!(a.local_read(64, 8), 3.75f64.to_le_bytes());
        a.local_write(128, &40i64.to_le_bytes());
        assert_eq!(a.fetch_add_i64(0, 128, 2), 40);
        assert_eq!(a.local_read(128, 8), 42i64.to_le_bytes());
        a.quiet();
        assert_eq!(a.fm().stats().messages_sent, sent, "a message left");
        // Out of bounds it is refused as a peer's put is.
        a.put(0, 4090, &[0u8; 16]);
        a.put(1, 4090, &[0u8; 16]);
        pump(&a, &b);
        a.quiet();
        let refused = vec![OsStatus::OutOfBounds; 2];
        assert_eq!(a.take_put_failures(), refused);
        assert_eq!(a.local_read(4090, 6), vec![0u8; 6]);
    }

    #[test]
    fn a_peers_accumulate_of_no_whole_f64s_is_refused() {
        // Only a peer's own bytes can say 5: `accumulate_f64` sends f64s.
        let (a, b) = pair(4096);
        a.accs_issued.set(1);
        let hdr = Op::AccF64 { offset: 0 }.encode();
        a.fm()
            .try_send_message(1, SHMEM_HANDLER, &[&hdr, &[1u8; 5]])
            .expect("room for one message");
        pump(&a, &b);
        a.quiet();
        assert_eq!(a.take_put_failures(), vec![OsStatus::OutOfBounds]);
        assert_eq!(b.local_read(0, 8), vec![0u8; 8]);
    }

    #[test]
    fn a_wait_that_moves_on_every_poll_outlasts_the_wedge_limit() {
        // Three times the 10,000-poll limit, every poll landing an
        // accumulate the peer sent: a busy wait is not a wedged one.
        let (a, b) = pair(4096);
        let mut polls = 0;
        a.wait_for("busy test wait", || {
            b.accumulate_f64(0, 0, &[1.0]);
            b.progress();
            a.fm()
                .with_device(|da| b.fm().with_device(|db| LoopbackPair::deliver(da, db)));
            polls += 1;
            (polls == 30_000).then_some(())
        });
    }

    #[test]
    #[should_panic(expected = "blocking shmem quiet polled")]
    fn a_wait_no_peer_will_satisfy_panics_with_the_diagnosis() {
        // The put leaves, nobody carries it to the peer, no completion
        // ever returns: the wedge limit is `quiet`'s only exit.
        let (a, _b) = pair(4096);
        a.put(1, 0, &[1u8; 8]);
        a.quiet();
    }
}
