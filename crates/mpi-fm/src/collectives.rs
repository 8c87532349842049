//! The collective operations, each a function that builds a [`Sched`].
//!
//! A builder appends one flat algorithm on a group — a [`Communicator`]
//! — to a schedule, reading and writing the buffer slots it is handed;
//! the two-level schedules of [`crate::hier`] are the same builders
//! appended on sub-groups. The public constructors (`Sched::barrier`,
//! `Sched::bcast`, …) allocate the sequence number and are the **one
//! place the schedule is picked**, from values every rank agrees on: the
//! payload bound against the pipeline threshold and, for barrier, bcast
//! and allreduce, the host map ([`Mpi::coll_hosts`]) — spanning two or
//! more hosts, it selects the two-level plan. Blocking wrappers,
//! poll-driven probes and simulated programs all construct through them,
//! so they all take the same schedule, and one executor
//! ([`Sched::poll`]) runs every one of them over the threaded, UDP and
//! simulated transports alike.
//!
//! Two flat algorithm families, chosen by [`Communicator::use_pipeline`]:
//!
//! * **Small payloads** — binomial trees (⌈log₂ n⌉ rounds) for
//!   bcast/reduce, a dissemination pattern for barrier. Latency-bound:
//!   minimize rounds.
//! * **Large payloads** — pipelines. Bcast becomes a segmented chain
//!   (the root's uplink carries ≈B instead of (n−1)·B);
//!   reduce/allreduce become ring reduce-scatter followed by a chunk
//!   gather or ring allgather. Bandwidth-bound: every link carries ≈B/n
//!   per round and the FM 2.x stream engine pipelines fragments under
//!   the chunks.
//!
//! Floating-point determinism: reduction operands are combined in an
//! order fixed by the tree/ring *structure* (ascending binomial masks;
//! a chunk's partial travels the ring visiting ranks in a fixed order),
//! never by message arrival timing — so results are bit-identical
//! across transports, seeds, and runs.

use crate::api::{Mpi, ReduceOp};
use crate::comm::CollPhase::{End, Round, Start};
use crate::comm::{elem_chunk_bounds, Communicator, PIPELINE_SEGMENT};
use crate::hier;
use crate::sched::{Act, Sched, Slot, NOW};
use crate::wire::CollKind;

/// Broadcast algorithm choice (normally made by
/// [`Communicator::use_pipeline`]; explicit for benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Binomial tree: ⌈log₂ n⌉ store-and-forward hops.
    Binomial,
    /// Naive flat tree: the root sends the whole buffer to every rank
    /// (the baseline the pipelined path is measured against).
    Flat,
    /// Segmented chain pipeline: the buffer streams down the chain
    /// root → v1 → … → v(n−1) in [`PIPELINE_SEGMENT`](crate::PIPELINE_SEGMENT)-sized
    /// messages, each rank forwarding a segment the moment it lands.
    /// Every host touches each byte at most twice (receive + forward)
    /// and the root exactly once — the binding cost on a machine whose
    /// bottleneck is host PIO, where the flat loop charges the root
    /// (n−1)·B.
    Pipelined,
}

/// Dissemination barrier: ⌈log₂ n⌉ rounds; in round k each rank sends to
/// `rank + 2^k` and hears from `rank - 2^k`, once round k − 1 is done.
pub(crate) fn barrier(s: &mut Sched, c: &Communicator) {
    let (kind, n, none) = (CollKind::Barrier, c.size, s.slot(Vec::new()));
    s.mark(Start, kind, c.round(0), None, NOW);
    let (mut dist, mut round, mut prev) = (1, 0, NOW);
    while dist < n {
        let tag = c.tag(kind, s.seq, round);
        let send = s.send(c, (c.rank + dist) % n, tag, none, prev);
        s.recv(c, (c.rank + n - dist) % n, tag, 0, none);
        s.mark(Round, kind, c.round(round), None, NOW);
        (dist, round, prev) = (dist * 2, round + 1, send..send + 2);
    }
    s.mark(End, kind, c.round(round.saturating_sub(1)), None, prev);
}

/// Broadcast `buf` from group rank `root` (where it holds the data;
/// elsewhere it receives them).
pub(crate) fn bcast(
    s: &mut Sched,
    c: &Communicator,
    root: usize,
    buf: Slot,
    max_len: usize,
    algo: BcastAlgo,
) {
    let (kind, round0, me) = (CollKind::Bcast, c.round(0), c.rank);
    let tag = c.tag(kind, s.seq, 0);
    s.mark(Start, kind, round0, (me == root).then_some(buf), NOW);
    let first = s.steps.len();
    if algo == BcastAlgo::Pipelined && c.size > 1 {
        // The chain runs in virtual-rank order (root = vrank 0); the
        // segment count derives from max_len, which every rank agrees on,
        // so trailing segments travel empty when the data are shorter.
        // Matching is FIFO per (source, tag), so one tag serves every
        // segment: arrival order is segment order.
        let (seg, vr) = (PIPELINE_SEGMENT, c.vrank(root));
        let mut parts: Vec<Vec<u8>> = s.slots[buf].chunks(seg).map(<[u8]>::to_vec).collect();
        parts.resize(max_len.div_ceil(seg).max(1), Vec::new());
        let segs: Vec<Slot> = parts.into_iter().map(|p| s.slot(p)).collect();
        let (prev, next) = (
            c.from_vrank(vr + c.size - 1, root),
            c.from_vrank(vr + 1, root),
        );
        for (k, &part) in segs.iter().enumerate().filter(|_| vr > 0) {
            s.recv(c, prev, tag, seg.min(max_len - k * seg), part);
        }
        for (k, &part) in segs.iter().enumerate() {
            // A segment goes on once it is here: at once at the root.
            let got = first + k..first + k + usize::from(vr > 0);
            if vr + 1 < c.size {
                s.send(c, next, tag, part, got.clone());
            }
            if vr > 0 {
                s.mark(Round, kind, c.round(k as u32), Some(part), got);
            }
        }
        if vr > 0 {
            s.push(Act::Concat(buf, segs), NOW);
        }
    } else {
        if me != root {
            let parent = match algo {
                BcastAlgo::Binomial => c.binomial_parent(root).expect("non-root has a parent"),
                _ => root,
            };
            s.recv(c, parent, tag, max_len, buf);
            s.mark(Round, kind, round0, Some(buf), first..first + 1);
        }
        // Biggest subtree first, as in classic binomial bcast, each child
        // once the one before holds the whole buffer, so that it forwards
        // while this rank serves the next; the flat tree's root sends to
        // everyone at once, nobody else sends.
        let children: Vec<usize> = match algo {
            BcastAlgo::Flat if me == root => (0..c.size).filter(|&r| r != root).collect(),
            BcastAlgo::Flat => Vec::new(),
            _ => c.binomial_children(root).into_iter().rev().collect(),
        };
        let mut prev = NOW;
        for child in children {
            let send = s.send(c, child, tag, buf, prev.clone());
            if algo == BcastAlgo::Binomial {
                prev = send..send + 1;
            }
        }
    }
    let sent = first..s.steps.len();
    s.mark(End, kind, round0, Some(buf), sent);
}

/// True when a reduction of `len` bytes on `c` takes the ring: above
/// the pipeline threshold, with at least one element per rank to scatter.
fn ring_reduces(c: &Communicator, len: usize) -> bool {
    c.use_pipeline(len) && len / 8 >= c.size
}

/// Binomial reduction of `acc` to group rank `root`: each rank folds its
/// children's partials in ascending-mask order — fixed, so f64 results
/// are deterministic — and sends the sum to its parent.
fn tree_reduce(s: &mut Sched, c: &Communicator, root: usize, acc: Slot, op: ReduceOp) {
    let (kind, round0, len) = (CollKind::Reduce, c.round(0), s.slots[acc].len());
    let tag = c.tag(kind, s.seq, 0);
    s.mark(Start, kind, round0, Some(acc), NOW);
    let (first, mut parts) = (s.steps.len(), Vec::new());
    for child in c.binomial_children(root) {
        let part = s.slot(Vec::new());
        s.recv(c, child, tag, len, part);
        parts.push(part);
    }
    let recvs = first..s.steps.len();
    for from in parts {
        s.push(Act::Fold(acc, from, op), recvs.clone());
    }
    s.mark(Round, kind, round0, Some(acc), NOW);
    match c.binomial_parent(root) {
        None => s.mark(End, kind, round0, Some(acc), NOW),
        Some(parent) => {
            let up = s.send(c, parent, tag, acc, NOW);
            s.mark(End, kind, round0, None, up..up + 1)
        }
    };
}

/// Ring reduce-scatter of `acc`: n−1 rounds; in round r each rank sends
/// its partial of chunk `(rank − r) mod n` right and folds the partial of
/// chunk `(rank − r − 1) mod n` arriving from the left into its own
/// (commutative operators, so the traveling partial absorbs
/// contributions in ring order whichever operand is "left"). Returns the
/// chunk slots; rank `i` ends holding reduced chunk `(i + 1) mod n`.
fn reduce_scatter(s: &mut Sched, c: &Communicator, acc: Slot, op: ReduceOp) -> Vec<Slot> {
    let (n, me, len) = (c.size, c.rank, s.slots[acc].len());
    let chunks: Vec<Slot> = (0..n)
        .map(|i| {
            let (a, b) = elem_chunk_bounds(len, n, i);
            let part = s.slots[acc][a..b].to_vec();
            s.slot(part)
        })
        .collect();
    for r in 0..n - 1 {
        let (out, into) = (chunks[(me + n - r) % n], chunks[(me + 2 * n - r - 1) % n]);
        let (tag, part) = (c.tag(CollKind::Reduce, s.seq, r as u32), s.slot(Vec::new()));
        let send = s.send(c, c.right(), tag, out, NOW);
        s.recv(c, c.left(), tag, s.slots[into].len(), part);
        s.mark(Round, CollKind::Reduce, c.round(r as u32), None, NOW);
        s.push(Act::Fold(into, part, op), send..send + 2);
    }
    chunks
}

/// Reduce `acc` to group rank `root`, leaving the result there.
fn reduce(s: &mut Sched, c: &Communicator, root: usize, acc: Slot, op: ReduceOp) {
    if !ring_reduces(c, s.slots[acc].len()) {
        return tree_reduce(s, c, root, acc, op);
    }
    s.mark(Start, CollKind::Reduce, c.round(0), Some(acc), NOW);
    let chunks = reduce_scatter(s, c, acc, op);
    let (n, bound) = (c.size, s.slots[chunks[0]].len());
    let parts = gather(s, c, root, chunks[(c.rank + 1) % n], bound);
    if !parts.is_empty() {
        // Rank r holds chunk r + 1: rank order → chunk order.
        let parts = (0..n).map(|i| parts[(i + n - 1) % n]).collect();
        s.push(Act::Concat(acc, parts), NOW);
    }
    s.mark(End, CollKind::Reduce, c.round(0), None, NOW);
}

/// Ring allreduce of `acc`: reduce-scatter, then n−1 allgather rounds
/// (on the ring rebased past the reduce-scatter's rounds) in which each
/// rank forwards the chunk it got last; `acc` ends holding every chunk.
fn ring_allreduce(s: &mut Sched, c: &Communicator, acc: Slot, op: ReduceOp) {
    let (n, kind) = (c.size, CollKind::Reduce);
    s.mark(Start, kind, c.round(0), Some(acc), NOW);
    let chunks = reduce_scatter(s, c, acc, op);
    let (ag, start) = (c.rebased(n as u32), (c.rank + 1) % n);
    let bound = s.slots[chunks[0]].len();
    let mut prev = NOW;
    for r in 0..n - 1 {
        let tag = ag.tag(kind, s.seq, r as u32);
        let send = s.send(c, c.right(), tag, chunks[(start + n - r) % n], prev);
        s.recv(c, c.left(), tag, bound, chunks[(start + 2 * n - r - 1) % n]);
        s.mark(Round, kind, ag.round(r as u32), None, NOW);
        prev = send..send + 2;
    }
    s.push(Act::Concat(acc, chunks), prev);
    s.mark(End, kind, c.round(0), Some(acc), NOW);
}

/// Gather every rank's `own` at group rank `root`; returns the parts
/// there in group rank order (`own` among them), none elsewhere.
pub(crate) fn gather(
    s: &mut Sched,
    c: &Communicator,
    root: usize,
    own: Slot,
    bound: usize,
) -> Vec<Slot> {
    let (kind, round0) = (CollKind::Gather, c.round(0));
    let tag = c.tag(kind, s.seq, 0);
    s.mark(Start, kind, round0, Some(own), NOW);
    let first = s.steps.len();
    let mut parts = Vec::new();
    if c.rank == root {
        for r in 0..c.size {
            let part = if r == root { own } else { s.slot(Vec::new()) };
            if r != root {
                s.recv(c, r, tag, bound, part);
            }
            parts.push(part);
        }
    } else {
        s.send(c, root, tag, own, NOW);
    }
    s.mark(End, kind, round0, None, first..s.steps.len());
    parts
}

impl Sched {
    /// The world group of `mpi` and an empty schedule under its next
    /// collective sequence number.
    fn world<M: Mpi + ?Sized>(mpi: &mut M) -> (Communicator, Sched) {
        (Communicator::world(mpi), Sched::new(mpi.next_coll_seq()))
    }

    /// A barrier: dissemination — or, across hosts, ⌈log₂ H⌉ rounds
    /// among the host leaders between a local fan-in and a local release.
    pub fn barrier<M: Mpi + ?Sized>(mpi: &mut M) -> Sched {
        let (world, mut s) = Sched::world(mpi);
        let none = s.slot(Vec::new());
        let plan = |h| hier::reduce_plan(&mut s, &world, h, none, None, 0);
        if !mpi.coll_hosts().is_some_and(plan) {
            barrier(&mut s, &world);
        }
        s
    }

    /// A broadcast from `root`, the schedule chosen from `max_len` (which
    /// must be identical on every rank — it is what keeps the ranks'
    /// choices in agreement; `data.len() <= max_len` at the root) and the
    /// host map: the segmented chain at or above the pipeline threshold,
    /// below it the two-level plan when the map spans hosts and the
    /// binomial tree otherwise. The root passes `Some(data)`, everyone
    /// else `None`.
    pub fn bcast<M: Mpi + ?Sized>(
        mpi: &mut M,
        root: usize,
        data: Option<Vec<u8>>,
        max_len: usize,
    ) -> Sched {
        let (world, mut s) = Sched::world(mpi);
        let buf = s.bcast_buf(&world, root, data, max_len);
        if world.use_pipeline(max_len) {
            bcast(&mut s, &world, root, buf, max_len, BcastAlgo::Pipelined);
        } else if !mpi
            .coll_hosts()
            .is_some_and(|h| hier::bcast_plan(&mut s, &world, h, root, buf, max_len))
        {
            bcast(&mut s, &world, root, buf, max_len, BcastAlgo::Binomial);
        }
        s
    }

    /// A broadcast with an explicit flat algorithm (must match on all
    /// ranks).
    pub fn bcast_with<M: Mpi + ?Sized>(
        mpi: &mut M,
        root: usize,
        data: Option<Vec<u8>>,
        max_len: usize,
        algo: BcastAlgo,
    ) -> Sched {
        let (world, mut s) = Sched::world(mpi);
        let buf = s.bcast_buf(&world, root, data, max_len);
        bcast(&mut s, &world, root, buf, max_len, algo);
        s
    }

    /// The broadcast buffer, made the result: the root's data, empty
    /// elsewhere until received.
    fn bcast_buf(
        &mut self,
        c: &Communicator,
        root: usize,
        data: Option<Vec<u8>>,
        max_len: usize,
    ) -> Slot {
        let data = (c.rank == root).then(|| data.expect("root must supply the broadcast data"));
        assert!(
            data.as_ref().is_none_or(|d| d.len() <= max_len),
            "root data exceeds max_len"
        );
        let buf = self.slot(data.unwrap_or_default());
        self.result = vec![buf];
        buf
    }

    /// A reduction of every rank's `contrib` (the same length everywhere,
    /// which picks the binomial tree or, above the pipeline threshold,
    /// ring reduce-scatter + chunk gather) to `root`, the result there.
    pub fn reduce<M: Mpi + ?Sized>(
        mpi: &mut M,
        root: usize,
        contrib: &[u8],
        op: ReduceOp,
    ) -> Sched {
        let (world, mut s) = Sched::world(mpi);
        let acc = s.slot(contrib.to_vec());
        reduce(&mut s, &world, root, acc, op);
        if world.rank == root {
            s.result = vec![acc];
        }
        s
    }

    /// An allreduce: every rank ends with the reduction of all
    /// contributions (`contrib.len()` identical everywhere). Small
    /// payloads run binomial reduce-to-0 + binomial bcast — or, across
    /// hosts, the two-level fold of [`crate::hier`]; large payloads the
    /// ring (reduce-scatter + allgather, 2(n−1) rounds, each link
    /// carrying ≈`len/n` per round).
    pub fn allreduce<M: Mpi + ?Sized>(mpi: &mut M, contrib: &[u8], op: ReduceOp) -> Sched {
        let (world, mut s) = Sched::world(mpi);
        let (acc, len) = (s.slot(contrib.to_vec()), contrib.len());
        let mut out = acc;
        if ring_reduces(&world, len) {
            ring_allreduce(&mut s, &world, acc, op);
        } else if world.use_pipeline(len)
            || !mpi
                .coll_hosts()
                .is_some_and(|h| hier::reduce_plan(&mut s, &world, h, acc, Some(op), len))
        {
            tree_reduce(&mut s, &world, 0, acc, op);
            if world.rank != 0 {
                out = s.slot(Vec::new());
            }
            bcast(&mut s, &world, 0, out, len, BcastAlgo::Binomial);
        }
        s.result = vec![out];
        s
    }

    /// A gather of every rank's `data` at `root`, in rank order there.
    pub fn gather<M: Mpi + ?Sized>(
        mpi: &mut M,
        root: usize,
        data: Vec<u8>,
        max_len: usize,
    ) -> Sched {
        let (world, mut s) = Sched::world(mpi);
        let own = s.slot(data);
        s.result = gather(&mut s, &world, root, own, max_len);
        s
    }

    /// A scatter of the root's per-rank `chunks` (`Some` there, one per
    /// rank); each rank ends with its chunk.
    pub fn scatter<M: Mpi + ?Sized>(
        mpi: &mut M,
        root: usize,
        chunks: Option<Vec<Vec<u8>>>,
        max_len: usize,
    ) -> Sched {
        let (c, mut s) = Sched::world(mpi);
        let (kind, tag) = (CollKind::Scatter, c.tag(CollKind::Scatter, s.seq, 0));
        s.mark(Start, kind, 0, None, NOW);
        let first = s.steps.len();
        let mine = if c.rank == root {
            let chunks = chunks.expect("root must supply the chunks");
            assert_eq!(chunks.len(), c.size, "one chunk per rank");
            let slots: Vec<Slot> = chunks.into_iter().map(|d| s.slot(d)).collect();
            for (r, &chunk) in slots.iter().enumerate().filter(|&(r, _)| r != root) {
                s.send(&c, r, tag, chunk, NOW);
            }
            slots[root]
        } else {
            let mine = s.slot(Vec::new());
            s.recv(&c, root, tag, max_len, mine);
            mine
        };
        s.mark(End, kind, 0, Some(mine), first..s.steps.len());
        s.result = vec![mine];
        s
    }

    /// A personalized all-to-all: `data[r]` goes to rank `r`; the result
    /// parts are the buffers received from every rank, in rank order.
    pub fn alltoall<M: Mpi + ?Sized>(mpi: &mut M, data: Vec<Vec<u8>>, max_len: usize) -> Sched {
        let (c, mut s) = Sched::world(mpi);
        assert_eq!(data.len(), c.size, "one buffer per rank");
        let (kind, tag) = (CollKind::Alltoall, c.tag(CollKind::Alltoall, s.seq, 0));
        s.mark(Start, kind, 0, None, NOW);
        let first = s.steps.len();
        let out: Vec<Slot> = data.into_iter().map(|d| s.slot(d)).collect();
        s.result = out.clone();
        for r in (0..c.size).filter(|&r| r != c.rank) {
            let part = s.slot(Vec::new());
            s.recv(&c, r, tag, max_len, part);
            s.result[r] = part;
        }
        for r in (0..c.size).filter(|&r| r != c.rank) {
            s.send(&c, r, tag, out[r], NOW);
        }
        s.mark(End, kind, 0, None, first..s.steps.len());
        s
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::{HashMap, VecDeque};
    use std::rc::Rc;

    use super::*;
    use crate::types::{RecvReq, SendReq, Status};
    use crate::PIPELINE_THRESHOLD;

    /// Messages sent and receives posted, FIFO per (source, destination,
    /// tag): the k-th send of a key pairs with its k-th receive.
    #[derive(Default)]
    struct Wire {
        sent: HashMap<(usize, usize, u32), VecDeque<Vec<u8>>>,
        posted: HashMap<(usize, usize, u32), VecDeque<(RecvReq, usize)>>,
    }

    impl Wire {
        fn pair(&mut self, key: (usize, usize, u32)) {
            let sent = self.sent.entry(key).or_default();
            let posted = self.posted.entry(key).or_default();
            while !sent.is_empty() && !posted.is_empty() {
                let (data, (req, bound)) = (sent.pop_front().unwrap(), posted.pop_front().unwrap());
                assert!(
                    data.len() <= bound,
                    "{key:x?}: {} B over a {bound} B bound",
                    data.len()
                );
                let mut b = req.inner.borrow_mut();
                b.status = Some(Status {
                    src: key.0,
                    tag: key.2,
                    len: data.len(),
                });
                b.data = Some(data);
            }
        }
    }

    /// One rank on a [`Wire`]: a send is done at once, a receive once the
    /// send it pairs with is there.
    struct Rank {
        rank: usize,
        size: usize,
        hosts: Option<Vec<usize>>,
        seq: u32,
        wire: Rc<RefCell<Wire>>,
    }

    impl Mpi for Rank {
        fn rank(&self) -> usize {
            self.rank
        }
        fn size(&self) -> usize {
            self.size
        }
        fn isend(&mut self, dst: usize, tag: u32, data: Vec<u8>) -> SendReq {
            let key = (self.rank, dst, tag);
            let mut wire = self.wire.borrow_mut();
            wire.sent.entry(key).or_default().push_back(data);
            wire.pair(key);
            SendReq::new(true)
        }
        fn irecv(&mut self, src: Option<usize>, tag: Option<u32>, max_len: usize) -> RecvReq {
            let key = (
                src.expect("named source"),
                self.rank,
                tag.expect("named tag"),
            );
            let (req, mut wire) = (RecvReq::new(), self.wire.borrow_mut());
            wire.posted
                .entry(key)
                .or_default()
                .push_back((req.clone(), max_len));
            wire.pair(key);
            req
        }
        fn progress(&mut self) -> bool {
            false
        }
        fn next_coll_seq(&mut self) -> u32 {
            self.seq += 1;
            self.seq
        }
        fn coll_hosts(&self) -> Option<&[usize]> {
            self.hosts.as_deref()
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Coll {
        Barrier,
        /// The constructor's own choice, or an explicit algorithm.
        Bcast(Option<BcastAlgo>),
        Reduce,
        Allreduce,
        Gather,
        Scatter,
        Alltoall,
    }

    /// Rank `r`'s `len`-byte reduction operand: `r + 1` in every element.
    fn operand(r: usize, len: usize) -> Vec<u8> {
        (r as u64 + 1).to_le_bytes().repeat(len / 8)
    }

    /// Build `coll` on every rank of an `n`-rank wire under `hosts`, run
    /// the schedules until none can go on, and check that every one
    /// finished, that every send paired with exactly one receive (and so
    /// no receive is left), and what each rank holds.
    fn agree(n: usize, hosts: Option<&[usize]>, coll: Coll, root: usize, len: usize) {
        let wire: Rc<RefCell<Wire>> = Rc::default();
        let mut ranks: Vec<Rank> = (0..n)
            .map(|rank| {
                let (hosts, wire) = (hosts.map(<[usize]>::to_vec), Rc::clone(&wire));
                Rank {
                    rank,
                    size: n,
                    hosts,
                    seq: 0,
                    wire,
                }
            })
            .collect();
        let data = |r: usize| vec![r as u8; len];
        let mut scheds: Vec<Sched> = ranks
            .iter_mut()
            .map(|m| {
                let me = m.rank;
                let root_data = (me == root).then(|| data(root));
                match coll {
                    Coll::Barrier => Sched::barrier(m),
                    Coll::Bcast(None) => Sched::bcast(m, root, root_data, len),
                    Coll::Bcast(Some(algo)) => Sched::bcast_with(m, root, root_data, len, algo),
                    Coll::Reduce => Sched::reduce(m, root, &operand(me, len), ReduceOp::SumU64),
                    Coll::Allreduce => Sched::allreduce(m, &operand(me, len), ReduceOp::SumU64),
                    Coll::Gather => Sched::gather(m, root, data(me), len),
                    Coll::Scatter => {
                        let chunks = (me == root).then(|| (0..n).map(data).collect());
                        Sched::scatter(m, root, chunks, len)
                    }
                    Coll::Alltoall => {
                        Sched::alltoall(m, (0..n).map(|r| data(me * n + r)).collect(), len)
                    }
                }
            })
            .collect();
        // A pass that finishes nothing issues a step, or nothing ever will.
        let case = format!("{coll:?} n={n} root={root} len={len} hosts={hosts:?}");
        let steps: usize = scheds.iter().map(|s| s.steps.len()).sum();
        let mut passes = 0;
        while !ranks
            .iter_mut()
            .zip(&mut scheds)
            .fold(true, |all, (m, s)| s.poll(m) && all)
        {
            passes += 1;
            assert!(
                passes <= steps,
                "{case}: a schedule waits for what no rank sends"
            );
        }
        let w = wire.borrow();
        assert!(
            w.sent.values().all(VecDeque::is_empty),
            "{case}: a send no rank receives"
        );
        assert!(
            w.posted.values().all(VecDeque::is_empty),
            "{case}: a receive no rank sends"
        );
        let sum = operand(n * (n + 1) / 2 - 1, len);
        for (me, s) in scheds.iter_mut().enumerate() {
            let parts: Vec<Vec<u8>> = match coll {
                Coll::Barrier => Vec::new(),
                Coll::Bcast(_) => vec![data(root)],
                Coll::Reduce | Coll::Gather if me != root => Vec::new(),
                Coll::Reduce | Coll::Allreduce => vec![sum.clone()],
                Coll::Gather => (0..n).map(data).collect(),
                Coll::Scatter => vec![data(me)],
                Coll::Alltoall => (0..n).map(|r| data(r * n + me)).collect(),
            };
            assert_eq!(s.take_parts(), parts, "{case}: what rank {me} holds");
        }
    }

    #[test]
    fn every_send_pairs_with_one_receive_in_every_schedule() {
        let maps: [&[usize]; 3] = [
            &[0, 0, 0, 0, 1, 1, 1, 1],
            &[0, 1, 2, 1, 1, 2],
            &[7, 3, 7, 3],
        ];
        let algos = [BcastAlgo::Binomial, BcastAlgo::Flat, BcastAlgo::Pipelined];
        let mut colls: Vec<Coll> = algos.map(|a| Coll::Bcast(Some(a))).to_vec();
        colls.extend([Coll::Bcast(None), Coll::Reduce, Coll::Gather, Coll::Scatter]);
        for n in 1..=9 {
            let map = maps.iter().copied().find(|m| m.len() == n);
            for hosts in [None].into_iter().chain(map.map(Some)) {
                // Small payloads, and pipelined ones: three segments of a
                // chain, a ring of at least one element per rank.
                for len in [24, PIPELINE_THRESHOLD + 24] {
                    for coll in [Coll::Barrier, Coll::Allreduce, Coll::Alltoall] {
                        agree(n, hosts, coll, 0, len);
                    }
                    for root in 0..n {
                        for &coll in &colls {
                            agree(n, hosts, coll, root, len);
                        }
                    }
                }
            }
        }
    }
}
