//! The symmetric heap and one-sided operations.
//!
//! Every node allocates a heap of identical size; remote operations name
//! plain byte offsets into the target's heap. Bulk data movement (`put`,
//! `get`) is re-based on [`fm_core::onesided`]: the heap *is* the
//! one-sided arena, registered whole at startup, so every node holds the
//! same [`RegionHandle`] for every peer's heap and puts/gets ride its
//! landing path (every transfer streams straight into the heap through
//! the sink handler, with no staging copy). The remaining
//! read-modify-write ops (`accumulate`, `fetch_add`) and the barrier stay
//! Active-Messages-style on this crate's own FM handler — the target
//! applies them during its `FM_extract`, which is what makes them atomic.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use fm_core::blocking::Backoff;
use fm_core::device::NetDevice;
use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, FmStream, Onesided, OnesidedConfig, OsPort, OsStatus, RegionHandle};

use crate::wire::{Op, OP_BYTES};

/// FM handler id used by Shmem-FM (accumulate/fetch-add/barrier; bulk
/// put/get use `fm_core::onesided`'s handlers).
pub const SHMEM_HANDLER: HandlerId = HandlerId(120);

struct ShState {
    next_req: u32,
    fadd_replies: HashMap<u32, i64>,
    /// Accumulate acknowledgements received (vs. issued, for `quiet`).
    acc_acks: u64,
    /// Barrier notifications seen: (epoch, round, src).
    barrier_seen: HashSet<(u64, u32, usize)>,
}

/// One node's shmem context.
pub struct Shmem<D: NetDevice> {
    fm: Fm2Engine<D>,
    os: RefCell<Onesided<D>>,
    port: OsPort,
    heap_h: RegionHandle,
    heap_bytes: usize,
    state: Rc<RefCell<ShState>>,
    accs_issued: Cell<u64>,
    puts_issued: Cell<u64>,
    puts_done: Cell<u64>,
    /// Statuses of puts that failed at the target (e.g. out of the
    /// remote heap's bounds) instead of landing.
    put_failures: RefCell<Vec<OsStatus>>,
    /// Get/typed-op completion statuses awaiting pickup, by token.
    tracked: RefCell<HashMap<u32, Option<OsStatus>>>,
    barrier_epoch: Cell<u64>,
}

impl<D: NetDevice + 'static> Shmem<D> {
    /// Create a shmem context with a `heap_bytes` symmetric heap and
    /// install the FM handlers. Every node must use the same size, so
    /// the whole-heap registration yields the *same* region handle on
    /// every node — the symmetry SHMEM addressing relies on.
    pub fn new(fm: Fm2Engine<D>, heap_bytes: usize) -> Self {
        let os = Onesided::new(
            &fm,
            OnesidedConfig {
                arena_bytes: heap_bytes,
                ..OnesidedConfig::default()
            },
        );
        let port = os.port();
        let heap_h = os.register(0, heap_bytes).expect("whole-heap registration");
        let state = Rc::new(RefCell::new(ShState {
            next_req: 0,
            fadd_replies: HashMap::new(),
            acc_acks: 0,
            barrier_seen: HashSet::new(),
        }));
        let st = Rc::clone(&state);
        let fm_h = fm.handle();
        let hport = port.clone();
        fm.set_handler(SHMEM_HANDLER, move |stream: FmStream, src| {
            let st = Rc::clone(&st);
            let fm = fm_h.clone();
            let port = hport.clone();
            async move {
                let mut hdr = [0u8; OP_BYTES];
                stream.receive(&mut hdr).await;
                match Op::decode(&hdr) {
                    Op::PutAck => {
                        st.borrow_mut().acc_acks += 1;
                    }
                    Op::AccF64 { offset } => {
                        let len = stream.msg_len() - OP_BYTES;
                        assert_eq!(len % 8, 0, "accumulate operates on f64s");
                        let contrib = stream.receive_vec(len).await;
                        let o = offset as usize;
                        let mut cur = vec![0u8; len];
                        port.read_local(heap_h, o, &mut cur)
                            .expect("acc out of heap bounds");
                        for (c, slot) in contrib.chunks_exact(8).zip(cur.chunks_exact_mut(8)) {
                            let a = f64::from_le_bytes(slot[..8].try_into().unwrap());
                            let b = f64::from_le_bytes(c.try_into().unwrap());
                            slot.copy_from_slice(&(a + b).to_le_bytes());
                        }
                        port.write_local(heap_h, o, &cur).expect("checked above");
                        // Accumulates are acked like puts so `quiet`
                        // covers them.
                        fm.send_from_handler(src, SHMEM_HANDLER, Op::PutAck.encode().to_vec());
                    }
                    Op::Fadd { req, offset, delta } => {
                        let o = offset as usize;
                        let mut cur = [0u8; 8];
                        port.read_local(heap_h, o, &mut cur)
                            .expect("fadd out of heap bounds");
                        let old = i64::from_le_bytes(cur);
                        port.write_local(heap_h, o, &old.wrapping_add(delta).to_le_bytes())
                            .expect("checked above");
                        fm.send_from_handler(
                            src,
                            SHMEM_HANDLER,
                            Op::FaddReply { req, old }.encode().to_vec(),
                        );
                    }
                    Op::FaddReply { req, old } => {
                        st.borrow_mut().fadd_replies.insert(req, old);
                    }
                    Op::Barrier { epoch, round } => {
                        st.borrow_mut().barrier_seen.insert((epoch, round, src));
                    }
                }
            }
        });
        Shmem {
            fm,
            os: RefCell::new(os),
            port,
            heap_h,
            heap_bytes,
            state,
            accs_issued: Cell::new(0),
            puts_issued: Cell::new(0),
            puts_done: Cell::new(0),
            put_failures: RefCell::new(Vec::new()),
            tracked: RefCell::new(HashMap::new()),
            barrier_epoch: Cell::new(0),
        }
    }

    /// The underlying FM engine.
    pub fn fm(&self) -> &Fm2Engine<D> {
        &self.fm
    }

    /// The symmetric heap's region handle (identical on every node).
    pub fn heap_handle(&self) -> RegionHandle {
        self.heap_h
    }

    /// This node's id.
    pub fn my_pe(&self) -> usize {
        self.fm.node_id()
    }

    /// Number of nodes.
    pub fn n_pes(&self) -> usize {
        self.fm.num_nodes()
    }

    /// Heap size in bytes.
    pub fn heap_len(&self) -> usize {
        self.heap_bytes
    }

    /// Read local heap bytes.
    pub fn local_read(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        if len > 0 {
            self.port
                .read_local(self.heap_h, offset, &mut out)
                .expect("local read out of heap bounds");
        }
        out
    }

    /// Write local heap bytes.
    pub fn local_write(&self, offset: usize, data: &[u8]) {
        if !data.is_empty() {
            self.port
                .write_local(self.heap_h, offset, data)
                .expect("local write out of heap bounds");
        }
    }

    /// Drive communication.
    pub fn progress(&self) {
        self.fm.extract_all();
        self.os.borrow_mut().progress();
        self.drain_completions();
    }

    fn drain_completions(&self) {
        while let Some(c) = self.port.poll_completion() {
            let mut tracked = self.tracked.borrow_mut();
            if let Some(slot) = tracked.get_mut(&c.token.0) {
                *slot = Some(c.status);
            } else {
                drop(tracked);
                self.puts_done.set(self.puts_done.get() + 1);
                if c.status != OsStatus::Ok {
                    self.put_failures.borrow_mut().push(c.status);
                }
            }
        }
    }

    /// The one blocking wait: poll `ready` until it yields a value,
    /// driving communication between polls. Panics with the "peer gone?"
    /// diagnosis when the wait stays fruitless for the whole wedge limit
    /// of [`Backoff`] (low under this crate's own unit tests, which never
    /// block on a live peer and pin that exit).
    fn wait_for<T>(&self, what: &'static str, mut ready: impl FnMut() -> Option<T>) -> T {
        let mut backoff = if cfg!(test) {
            Backoff::with_limit(what, 10_000)
        } else {
            Backoff::new(what)
        };
        loop {
            if let Some(v) = ready() {
                return v;
            }
            self.progress();
            backoff.snooze();
        }
    }

    /// Block until the tracked op `token` completes, returning its
    /// status.
    fn wait_tracked(&self, token: u32) -> OsStatus {
        self.wait_for("shmem op", || {
            let done = self.tracked.borrow().get(&token).cloned();
            let status = done.flatten()?;
            self.tracked.borrow_mut().remove(&token);
            Some(status)
        })
    }

    fn send_op(&self, dst: usize, hdr: &[u8], payload: &[u8]) {
        self.wait_for("shmem send", || {
            self.fm
                .try_send_message(dst, SHMEM_HANDLER, &[hdr, payload])
                .ok()
        })
    }

    /// One-sided put: write `data` into `dst`'s heap at `offset`.
    /// Completion (remotely visible) is guaranteed only after
    /// [`Shmem::quiet`]. The bytes land in the remote heap packet by
    /// packet, with no staging copy at any size.
    pub fn put(&self, dst: usize, offset: usize, data: &[u8]) {
        self.puts_issued.set(self.puts_issued.get() + 1);
        self.port.put(dst, self.heap_h, offset as u64, data);
    }

    /// Statuses of puts refused by their target (bad offset, stale
    /// heap handle, peer down) since the last call. A put that fails
    /// remotely still counts as complete for [`Shmem::quiet`] — SHMEM
    /// has no reply channel for puts, so refusals surface here.
    pub fn take_put_failures(&self) -> Vec<OsStatus> {
        std::mem::take(&mut self.put_failures.borrow_mut())
    }

    /// Block until every put and accumulate issued by this node has
    /// been applied (or refused — see [`Shmem::take_put_failures`]) at
    /// its target.
    pub fn quiet(&self) {
        self.wait_for("shmem quiet", || {
            let puts_quiet = self.puts_done.get() >= self.puts_issued.get();
            let accs_quiet = self.state.borrow().acc_acks >= self.accs_issued.get();
            (puts_quiet && accs_quiet).then_some(())
        })
    }

    /// One-sided get: read `len` bytes from `dst`'s heap at `offset`
    /// (blocking). The reply streams straight into the result buffer
    /// through the one-sided layer's sink — no bounce copy.
    pub fn get(&self, dst: usize, offset: usize, len: usize) -> Vec<u8> {
        if len == 0 {
            return Vec::new();
        }
        let scratch = self
            .port
            .register_owned(vec![0u8; len])
            .expect("scratch registration");
        let token = self
            .port
            .get(dst, self.heap_h, offset as u64, scratch, 0, len)
            .expect("scratch window valid");
        self.tracked.borrow_mut().insert(token.0, None);
        let status = self.wait_tracked(token.0);
        assert_eq!(status, OsStatus::Ok, "get refused by target: {status:?}");
        self.port
            .deregister_owned(scratch)
            .expect("scratch unpinned after completion")
    }

    /// One-sided elementwise f64 accumulate into `dst`'s heap. Covered by
    /// [`Shmem::quiet`] like a put.
    pub fn accumulate_f64(&self, dst: usize, offset: usize, contrib: &[f64]) {
        let bytes: Vec<u8> = contrib.iter().flat_map(|x| x.to_le_bytes()).collect();
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
    /// threaded handler).
    pub fn fetch_add_i64(&self, dst: usize, offset: usize, delta: i64) -> i64 {
        let req = {
            let mut s = self.state.borrow_mut();
            s.next_req += 1;
            s.next_req
        };
        self.send_op(
            dst,
            &Op::Fadd {
                req,
                offset: offset as u64,
                delta,
            }
            .encode(),
            &[],
        );
        self.wait_for("shmem fetch_add", || {
            self.state.borrow_mut().fadd_replies.remove(&req)
        })
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::device::{LoopbackDevice, LoopbackPair};
    use fm_model::MachineProfile;

    fn pair() -> (Shmem<LoopbackDevice>, Shmem<LoopbackDevice>) {
        let (a, b) = LoopbackPair::new(256);
        let p = MachineProfile::ppro200_fm2();
        (
            Shmem::new(Fm2Engine::new(a, p), 4096),
            Shmem::new(Fm2Engine::new(b, p), 4096),
        )
    }

    fn pump(a: &Shmem<LoopbackDevice>, b: &Shmem<LoopbackDevice>) {
        for _ in 0..12 {
            a.progress();
            b.progress();
            let fa = a.fm().clone();
            let fb = b.fm().clone();
            fa.with_device(|da| fb.with_device(|db| LoopbackPair::deliver(da, db)));
        }
        a.progress();
        b.progress();
    }

    #[test]
    fn put_lands_in_remote_heap() {
        let (a, b) = pair();
        a.put(1, 100, &[1, 2, 3, 4]);
        pump(&a, &b);
        assert_eq!(b.local_read(100, 4), vec![1, 2, 3, 4]);
        // The completion came back: quiet() returns immediately.
        assert_eq!(a.puts_done.get(), 1);
        a.quiet();
    }

    #[test]
    fn local_read_write_round_trip() {
        let (a, _b) = pair();
        a.local_write(8, &[9, 9]);
        assert_eq!(a.local_read(8, 2), vec![9, 9]);
        assert_eq!(a.heap_len(), 4096);
        assert_eq!(a.my_pe(), 0);
        assert_eq!(a.n_pes(), 2);
    }

    #[test]
    fn accumulate_adds_elementwise() {
        let (a, b) = pair();
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
        let (a, b) = pair();
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 256) as u8).collect();
        a.put(1, 512, &data);
        pump(&a, &b);
        assert_eq!(b.local_read(512, 3000), data);
    }

    #[test]
    fn put_beyond_heap_is_refused_with_reported_error() {
        let (a, b) = pair();
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
        let (a, b) = pair();
        // Bigger heap so a put of several chunks fits.
        let (a, b) = {
            drop((a, b));
            let (da, db) = LoopbackPair::new(256);
            let p = MachineProfile::ppro200_fm2();
            (
                Shmem::new(Fm2Engine::new(da, p), 128 * 1024),
                Shmem::new(Fm2Engine::new(db, p), 128 * 1024),
            )
        };
        let data: Vec<u8> = (0..80_000u32).map(|i| (i % 251) as u8).collect();
        a.put(1, 4096, &data);
        pump(&a, &b);
        a.quiet();
        assert_eq!(b.local_read(4096, data.len()), data);
        assert!(a.take_put_failures().is_empty());
    }

    #[test]
    #[should_panic(expected = "blocking shmem quiet polled")]
    fn a_wait_no_peer_will_satisfy_panics_with_the_diagnosis() {
        // The put leaves, nobody carries it to the peer, no completion
        // ever returns: the wedge limit is `quiet`'s only exit.
        let (a, _b) = pair();
        a.put(1, 0, &[1u8; 8]);
        a.quiet();
    }
}
