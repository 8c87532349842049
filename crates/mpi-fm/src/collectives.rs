//! Poll-driven collective operations over the [`Mpi`] point-to-point
//! surface.
//!
//! Every collective here is a small state machine: construct it (which
//! may post the first sends and receives), then call `poll` until it
//! returns `true`, driving [`Mpi::progress`] between polls. The blocking
//! trait methods on [`Mpi`] are just `poll`+`progress` spin loops;
//! discrete-event simulations drive `poll` from their step functions
//! instead, which is what lets the *same* algorithms run over the
//! threaded, UDP, and simulated transports.
//!
//! Each machine has two constructors. `on` runs the flat algorithm on a
//! group — a [`Communicator`] and a sequence number the caller owns — and
//! is what the machines compose each other from. `new` is what callers
//! use: it allocates the sequence number and is the **one place the
//! schedule is picked**, from values every rank agrees on: the payload
//! bound against the pipeline threshold and, for barrier, bcast and
//! allreduce, the host map ([`Mpi::coll_hosts`]) — spanning two or more
//! hosts, it selects the two-level composition of [`crate::hier`].
//! Blocking wrappers, poll-driven probes and simulated programs all
//! construct through `new`, so they all take the same schedule.
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

use fm_core::buf::{BufPool, PacketBuf};

use crate::api::{Mpi, ReduceOp};
use crate::comm::{elem_chunk_bounds, CollPhase, Communicator, PIPELINE_SEGMENT};
use crate::hier::{self, Composed};
use crate::types::{RecvReq, SendReq};
use crate::wire::CollKind;

// ---------------------------------------------------------------- barrier

/// Dissemination barrier: ⌈log₂ n⌉ rounds, each rank sends to
/// `rank + 2^k` and hears from `rank - 2^k`. Across hosts, two-level:
/// ⌈log₂ H⌉ rounds among the host leaders between a local fan-in and a
/// local release.
pub struct BarrierOp {
    comm: Communicator,
    seq: u32,
    dist: usize,
    round: u32,
    pending: Option<(SendReq, RecvReq)>,
    /// Across hosts, the plan that runs in place of the rounds above.
    composed: Option<Box<Composed>>,
}

impl BarrierOp {
    /// Start a barrier (allocates the collective sequence number).
    pub fn new<M: Mpi + ?Sized>(mpi: &mut M) -> Self {
        let comm = Communicator::world(mpi);
        let seq = mpi.next_coll_seq();
        let plan = mpi
            .coll_hosts()
            .and_then(|h| hier::reduce_plan(&comm, h, None));
        match plan {
            None => Self::on(mpi, &comm, seq),
            Some(plan) => Self::rounds(comm, seq, Some(Composed::new(seq, plan, Vec::new(), 0))),
        }
    }

    fn rounds(comm: Communicator, seq: u32, composed: Option<Box<Composed>>) -> Self {
        BarrierOp {
            comm,
            seq,
            dist: 1,
            round: 0,
            pending: None,
            composed,
        }
    }

    /// Start the dissemination rounds of collective `seq` on `comm`.
    pub(crate) fn on<M: Mpi + ?Sized>(mpi: &mut M, comm: &Communicator, seq: u32) -> Self {
        mpi.obs_coll(CollPhase::Start, CollKind::Barrier, seq, comm.round(0), 0);
        if comm.size <= 1 {
            mpi.obs_coll(CollPhase::End, CollKind::Barrier, seq, comm.round(0), 0);
        }
        Self::rounds(comm.clone(), seq, None)
    }

    /// Advance; `true` when every rank has passed the barrier point.
    pub fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M) -> bool {
        if let Some(composed) = &mut self.composed {
            return composed.poll(mpi);
        }
        let (comm, kind) = (&self.comm, CollKind::Barrier);
        loop {
            match &self.pending {
                None if self.dist >= comm.size => return true,
                None => {
                    let tag = comm.tag(kind, self.seq, self.round);
                    let dst = (comm.rank + self.dist) % comm.size;
                    let src = (comm.rank + comm.size - self.dist) % comm.size;
                    let s = comm.isend(mpi, dst, tag, Vec::new());
                    let r = comm.irecv(mpi, src, tag, 0);
                    mpi.obs_coll(CollPhase::Round, kind, self.seq, comm.round(self.round), 0);
                    self.pending = Some((s, r));
                }
                Some((s, r)) => {
                    if !(s.is_done() && r.is_done()) {
                        return false;
                    }
                    self.pending = None;
                    self.dist *= 2;
                    if self.dist >= comm.size {
                        mpi.obs_coll(CollPhase::End, kind, self.seq, comm.round(self.round), 0);
                    }
                    self.round += 1;
                }
            }
        }
    }
}

// ------------------------------------------------------- ring sub-machines

/// Ring allgather: n−1 rounds; in round r each rank sends chunk
/// `(start − r) mod n` to its right neighbor and receives chunk
/// `(start − r − 1) mod n` from the left. After the last round every
/// rank holds every chunk.
struct RingAllgather {
    seq: u32,
    /// The ring, rebased so its rounds don't collide with the
    /// reduce-scatter's under the same sequence number.
    comm: Communicator,
    /// Chunk index this rank owns entering round 0.
    start: usize,
    /// Per-chunk receive bound.
    bound: usize,
    round: usize,
    pair: Option<(SendReq, RecvReq)>,
    chunks: Vec<Option<Vec<u8>>>,
}

impl RingAllgather {
    fn new(
        seq: u32,
        comm: Communicator,
        start: usize,
        bound: usize,
        chunks: Vec<Option<Vec<u8>>>,
    ) -> Self {
        RingAllgather {
            seq,
            comm,
            start,
            bound,
            round: 0,
            pair: None,
            chunks,
        }
    }

    fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M) -> bool {
        let (comm, n) = (&self.comm, self.comm.size);
        loop {
            if self.round >= n - 1 {
                return true;
            }
            match &self.pair {
                None => {
                    let send_idx = (self.start + n - self.round % n) % n;
                    let round = self.round as u32;
                    let tag = comm.tag(CollKind::Reduce, self.seq, round);
                    let data = self.chunks[send_idx]
                        .clone()
                        .expect("ring allgather owns the chunk it forwards");
                    let s = comm.isend(mpi, comm.right(), tag, data);
                    let r = comm.irecv(mpi, comm.left(), tag, self.bound);
                    mpi.obs_coll(
                        CollPhase::Round,
                        CollKind::Reduce,
                        self.seq,
                        comm.round(round),
                        0,
                    );
                    self.pair = Some((s, r));
                }
                Some((s, r)) => {
                    if !(s.is_done() && r.is_done()) {
                        return false;
                    }
                    let (_, r) = self.pair.take().expect("pair present");
                    let recv_idx = (self.start + 2 * n - self.round - 1) % n;
                    self.chunks[recv_idx] = Some(r.take().expect("done"));
                    self.round += 1;
                }
            }
        }
    }

    /// All chunks, concatenated in index order.
    fn assemble(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        for c in &mut self.chunks {
            out.extend_from_slice(c.as_ref().expect("allgather complete"));
        }
        out
    }
}

/// Ring reduce-scatter: n−1 rounds; in round r each rank sends its
/// partial of chunk `(rank − r) mod n` right and folds the incoming
/// partial of chunk `(rank − r − 1) mod n` into its own contribution.
/// Afterwards rank `i` holds the fully reduced chunk `(i + 1) mod n`.
///
/// Per-chunk accumulators live in pooled [`PacketBuf`] frames
/// (reduction scratch), so soak loops recycle frames instead of
/// reallocating each round.
struct RingReduceScatter {
    seq: u32,
    op: ReduceOp,
    acc: Vec<PacketBuf>,
    lens: Vec<usize>,
    round: usize,
    pair: Option<(SendReq, RecvReq)>,
    /// Keeps recycled frames alive across collectives on this instance.
    _pool: BufPool,
}

impl RingReduceScatter {
    fn new(seq: u32, contrib: &[u8], op: ReduceOp, n: usize) -> Self {
        let max_chunk = elem_chunk_bounds(contrib.len(), n, 0).1;
        let pool = BufPool::new(max_chunk.max(8), n + 1);
        let mut acc = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(n);
        for i in 0..n {
            let (s, e) = elem_chunk_bounds(contrib.len(), n, i);
            let mut frame = pool.take();
            frame.extend_from_slice(&contrib[s..e]);
            acc.push(frame);
            lens.push(e - s);
        }
        RingReduceScatter {
            seq,
            op,
            acc,
            lens,
            round: 0,
            pair: None,
            _pool: pool,
        }
    }

    fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M, comm: &Communicator) -> bool {
        let n = comm.size;
        loop {
            if self.round >= n - 1 {
                return true;
            }
            match &self.pair {
                None => {
                    let send_idx = (comm.rank + n - self.round % n) % n;
                    let recv_idx = (comm.rank + 2 * n - self.round - 1) % n;
                    let tag = comm.tag(CollKind::Reduce, self.seq, self.round as u32);
                    let s = comm.isend(mpi, comm.right(), tag, self.acc[send_idx].to_vec());
                    let r = comm.irecv(mpi, comm.left(), tag, self.lens[recv_idx]);
                    mpi.obs_coll(
                        CollPhase::Round,
                        CollKind::Reduce,
                        self.seq,
                        self.round as u32,
                        0,
                    );
                    self.pair = Some((s, r));
                }
                Some((s, r)) => {
                    if !(s.is_done() && r.is_done()) {
                        return false;
                    }
                    let (_, r) = self.pair.take().expect("pair present");
                    let recv_idx = (comm.rank + 2 * n - self.round - 1) % n;
                    let incoming = r.take().expect("done");
                    assert_eq!(incoming.len(), self.lens[recv_idx], "chunk length");
                    let len = self.lens[recv_idx];
                    let frame = self.acc[recv_idx]
                        .frame_mut()
                        .expect("accumulator frames are uniquely owned");
                    // acc = acc (op) incoming: commutative operators, so
                    // the traveling partial absorbs contributions in ring
                    // order regardless of which operand is "left".
                    self.op.apply(&mut frame[..len], &incoming);
                    self.round += 1;
                }
            }
        }
    }

    /// Chunk index this rank owns once reduce-scatter completes.
    fn owned_idx(&self, comm: &Communicator) -> usize {
        (comm.rank + 1) % comm.size
    }

    fn owned_chunk(&self, comm: &Communicator) -> Vec<u8> {
        self.acc[self.owned_idx(comm)].to_vec()
    }

    /// Length of the longest chunk: the receive bound of a later phase.
    fn max_chunk(&self) -> usize {
        self.lens.iter().copied().max().unwrap_or(0)
    }
}

// ---------------------------------------------------------------- bcast

/// Number of chain segments for a `max_len`-byte pipelined broadcast —
/// at least one, so zero-length broadcasts still traverse the chain.
fn pipe_segments(max_len: usize, seg: usize) -> usize {
    max_len.div_ceil(seg).max(1)
}

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

enum BcastState {
    /// Non-root tree algorithms: waiting for the (whole) buffer.
    TreeRecv {
        recv: RecvReq,
        algo: BcastAlgo,
    },
    /// Forwarding to tree children (empty for leaves / flat non-roots;
    /// also the pipelined root, whose "children" are the per-segment
    /// sends down the chain).
    TreeSend {
        buf: Vec<u8>,
        sends: Vec<SendReq>,
    },
    /// Pipelined non-root: segments arrive in order from the chain
    /// predecessor; each is forwarded to the successor as it lands.
    PipeChain {
        recvs: Vec<RecvReq>,
        sends: Vec<SendReq>,
        segs: Vec<Vec<u8>>,
    },
    /// Across hosts: root → its host's leader, leader → leaders,
    /// leaders → their hosts.
    Composed(Box<Composed>),
    Finished(Vec<u8>),
    Taken,
}

/// Broadcast from `root`; every rank ends with the same buffer.
pub struct BcastOp {
    comm: Communicator,
    root: usize,
    seq: u32,
    max_len: usize,
    state: BcastState,
}

impl BcastOp {
    /// Start a broadcast, choosing the schedule from `max_len` (which
    /// must be identical on every rank — it is what keeps the ranks'
    /// choices in agreement; `data.len() <= max_len` at the root) and
    /// the host map: the segmented chain at or above the pipeline
    /// threshold, below it the two-level composition when the map spans
    /// hosts and the binomial tree otherwise. The root passes
    /// `Some(data)`, everyone else `None`.
    pub fn new<M: Mpi + ?Sized>(
        mpi: &mut M,
        root: usize,
        data: Option<Vec<u8>>,
        max_len: usize,
    ) -> Self {
        let comm = Communicator::world(mpi);
        let seq = mpi.next_coll_seq();
        if comm.use_pipeline(max_len) {
            return Self::on(mpi, &comm, seq, root, data, max_len, BcastAlgo::Pipelined);
        }
        let Some(plan) = mpi
            .coll_hosts()
            .and_then(|h| hier::bcast_plan(&comm, h, root))
        else {
            return Self::on(mpi, &comm, seq, root, data, max_len, BcastAlgo::Binomial);
        };
        let data = data.unwrap_or_default();
        BcastOp {
            comm,
            root,
            seq,
            max_len,
            state: BcastState::Composed(Composed::new(seq, plan, data, max_len)),
        }
    }

    /// Start a broadcast with an explicit flat algorithm (must match on
    /// all ranks).
    pub fn with_algo<M: Mpi + ?Sized>(
        mpi: &mut M,
        root: usize,
        data: Option<Vec<u8>>,
        max_len: usize,
        algo: BcastAlgo,
    ) -> Self {
        let comm = Communicator::world(mpi);
        let seq = mpi.next_coll_seq();
        Self::on(mpi, &comm, seq, root, data, max_len, algo)
    }

    /// Start broadcast `seq` from group rank `root` on `comm`.
    pub(crate) fn on<M: Mpi + ?Sized>(
        mpi: &mut M,
        comm: &Communicator,
        seq: u32,
        root: usize,
        data: Option<Vec<u8>>,
        max_len: usize,
        algo: BcastAlgo,
    ) -> Self {
        let is_root = comm.rank == root;
        if is_root {
            let d = data.as_ref().expect("root must supply the broadcast data");
            assert!(d.len() <= max_len, "root data exceeds max_len");
        }
        let bytes = data.as_ref().map_or(0, Vec::len);
        mpi.obs_coll(CollPhase::Start, CollKind::Bcast, seq, comm.round(0), bytes);
        let tag = comm.tag(CollKind::Bcast, seq, 0);
        let state = if comm.size <= 1 {
            BcastState::Finished(data.unwrap_or_default())
        } else {
            match algo {
                BcastAlgo::Binomial | BcastAlgo::Flat if is_root => {
                    Self::tree_send(mpi, comm, root, seq, algo, data.expect("root data"))
                }
                BcastAlgo::Binomial | BcastAlgo::Flat => {
                    let parent = match algo {
                        BcastAlgo::Flat => root,
                        _ => comm.binomial_parent(root).expect("non-root has a parent"),
                    };
                    let recv = comm.irecv(mpi, parent, tag, max_len);
                    BcastState::TreeRecv { recv, algo }
                }
                BcastAlgo::Pipelined => {
                    // The chain is laid out in virtual-rank order (root =
                    // vrank 0); the segment schedule derives from max_len,
                    // which every rank agrees on, so the per-segment
                    // message counts match even when the actual payload is
                    // shorter (trailing segments travel empty).
                    let seg = PIPELINE_SEGMENT;
                    let nsegs = pipe_segments(max_len, seg);
                    if is_root {
                        let buf = data.expect("root data");
                        let next = comm.from_vrank(1, root);
                        let sends = (0..nsegs)
                            .map(|k| {
                                let s = (k * seg).min(buf.len());
                                let e = ((k + 1) * seg).min(buf.len());
                                comm.isend(mpi, next, tag, buf[s..e].to_vec())
                            })
                            .collect();
                        BcastState::TreeSend { buf, sends }
                    } else {
                        let vr = comm.vrank(root);
                        let prev = comm.from_vrank(vr - 1, root);
                        // Matching is FIFO per (source, tag), so one tag
                        // serves every segment: arrival order is segment
                        // order.
                        let recvs = (0..nsegs)
                            .map(|k| {
                                let bound = seg.min(max_len - k * seg);
                                comm.irecv(mpi, prev, tag, bound)
                            })
                            .collect();
                        BcastState::PipeChain {
                            recvs,
                            sends: Vec::new(),
                            segs: Vec::new(),
                        }
                    }
                }
            }
        };
        BcastOp {
            comm: comm.clone(),
            root,
            seq,
            max_len,
            state,
        }
    }

    /// Forward `buf` down the tree of `algo`: to the binomial children,
    /// biggest subtree first as in classic binomial bcast; in the flat
    /// tree from the root to everyone, and from nobody else.
    fn tree_send<M: Mpi + ?Sized>(
        mpi: &mut M,
        comm: &Communicator,
        root: usize,
        seq: u32,
        algo: BcastAlgo,
        buf: Vec<u8>,
    ) -> BcastState {
        let tag = comm.tag(CollKind::Bcast, seq, 0);
        let children: Vec<usize> = match algo {
            BcastAlgo::Flat if comm.rank != root => Vec::new(),
            BcastAlgo::Flat => (0..comm.size).filter(|&r| r != root).collect(),
            _ => comm.binomial_children(root).into_iter().rev().collect(),
        };
        let send = |c| comm.isend(mpi, c, tag, buf.clone());
        let sends = children.into_iter().map(send).collect();
        BcastState::TreeSend { buf, sends }
    }

    /// Advance; `true` once this rank holds the full buffer and its
    /// forwarding duties are done.
    pub fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M) -> bool {
        let (kind, round0) = (CollKind::Bcast, self.comm.round(0));
        loop {
            match &mut self.state {
                BcastState::TreeRecv { recv, algo } => {
                    if !recv.is_done() {
                        return false;
                    }
                    let buf = recv.take().expect("done");
                    mpi.obs_coll(CollPhase::Round, kind, self.seq, round0, buf.len());
                    let (comm, algo) = (&self.comm, *algo);
                    self.state = Self::tree_send(mpi, comm, self.root, self.seq, algo, buf);
                }
                BcastState::TreeSend { buf, sends } => {
                    if !sends.iter().all(SendReq::is_done) {
                        return false;
                    }
                    let buf = std::mem::take(buf);
                    mpi.obs_coll(CollPhase::End, kind, self.seq, round0, buf.len());
                    self.state = BcastState::Finished(buf);
                }
                BcastState::PipeChain { recvs, sends, segs } => {
                    let vr = self.comm.vrank(self.root);
                    let next =
                        (vr + 1 < self.comm.size).then(|| self.comm.from_vrank(vr + 1, self.root));
                    let tag = self.comm.tag(kind, self.seq, 0);
                    while segs.len() < recvs.len() {
                        let k = segs.len();
                        if !recvs[k].is_done() {
                            break;
                        }
                        let data = recvs[k].take().expect("done");
                        if let Some(dst) = next {
                            sends.push(self.comm.isend(mpi, dst, tag, data.clone()));
                        }
                        mpi.obs_coll(CollPhase::Round, kind, self.seq, k as u32, data.len());
                        segs.push(data);
                    }
                    if segs.len() < recvs.len() || !sends.iter().all(SendReq::is_done) {
                        return false;
                    }
                    let mut buf = Vec::with_capacity(self.max_len);
                    for s in segs.iter() {
                        buf.extend_from_slice(s);
                    }
                    mpi.obs_coll(CollPhase::End, kind, self.seq, round0, buf.len());
                    self.state = BcastState::Finished(buf);
                }
                BcastState::Composed(composed) => {
                    if !composed.poll(mpi) {
                        return false;
                    }
                    self.state = BcastState::Finished(composed.take_value());
                }
                BcastState::Finished(_) => return true,
                BcastState::Taken => panic!("poll after take_result"),
            }
        }
    }

    /// The broadcast buffer; call once after `poll` returns `true`.
    pub fn take_result(&mut self) -> Vec<u8> {
        match std::mem::replace(&mut self.state, BcastState::Taken) {
            BcastState::Finished(b) => b,
            _ => panic!("broadcast not complete"),
        }
    }
}

// ------------------------------------------------------- reduce to root

/// Reduction algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceAlgo {
    /// Binomial tree: children's contributions fold upward in ascending
    /// mask order.
    Binomial,
    /// Ring reduce-scatter, then the owned chunks converge on the root.
    Ring,
}

/// True when a reduction of `len` bytes on `comm` takes the ring: above
/// the pipeline threshold, with at least one element per rank to scatter.
fn ring_reduces(comm: &Communicator, len: usize) -> bool {
    comm.use_pipeline(len) && len / 8 >= comm.size
}

enum ReduceState {
    /// Binomial: waiting for all children (ascending-mask order).
    Gather {
        recvs: Vec<RecvReq>,
        acc: Vec<u8>,
    },
    SendUp(SendReq),
    RingRs(RingReduceScatter),
    RingGather(GatherOp),
    FinishedRoot(Vec<u8>),
    FinishedNonRoot,
    Taken,
}

/// Reduce every rank's contribution to `root`.
pub struct ReduceToRootOp {
    comm: Communicator,
    root: usize,
    seq: u32,
    rop: ReduceOp,
    state: ReduceState,
}

impl ReduceToRootOp {
    /// Start a reduction, choosing the algorithm from `contrib.len()`
    /// (identical on every rank by contract).
    pub fn new<M: Mpi + ?Sized>(mpi: &mut M, root: usize, contrib: &[u8], rop: ReduceOp) -> Self {
        let algo = if ring_reduces(&Communicator::world(mpi), contrib.len()) {
            ReduceAlgo::Ring
        } else {
            ReduceAlgo::Binomial
        };
        Self::with_algo(mpi, root, contrib, rop, algo)
    }

    /// Start a reduction with an explicit algorithm (must match on all
    /// ranks).
    pub fn with_algo<M: Mpi + ?Sized>(
        mpi: &mut M,
        root: usize,
        contrib: &[u8],
        rop: ReduceOp,
        algo: ReduceAlgo,
    ) -> Self {
        let comm = Communicator::world(mpi);
        let seq = mpi.next_coll_seq();
        Self::on(mpi, &comm, seq, root, contrib, rop, algo)
    }

    /// Start reduction `seq` to group rank `root` on `comm`.
    pub(crate) fn on<M: Mpi + ?Sized>(
        mpi: &mut M,
        comm: &Communicator,
        seq: u32,
        root: usize,
        contrib: &[u8],
        rop: ReduceOp,
        algo: ReduceAlgo,
    ) -> Self {
        mpi.obs_coll(CollPhase::Start, CollKind::Reduce, seq, 0, contrib.len());
        let state = if comm.size <= 1 {
            ReduceState::FinishedRoot(contrib.to_vec())
        } else {
            match algo {
                ReduceAlgo::Binomial => {
                    let tag = comm.tag(CollKind::Reduce, seq, 0);
                    let recvs = comm
                        .binomial_children(root)
                        .into_iter()
                        .map(|c| comm.irecv(mpi, c, tag, contrib.len()))
                        .collect();
                    ReduceState::Gather {
                        recvs,
                        acc: contrib.to_vec(),
                    }
                }
                ReduceAlgo::Ring => {
                    ReduceState::RingRs(RingReduceScatter::new(seq, contrib, rop, comm.size))
                }
            }
        };
        ReduceToRootOp {
            comm: comm.clone(),
            root,
            seq,
            rop,
            state,
        }
    }

    /// Advance; `true` once this rank's part is complete.
    pub fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M) -> bool {
        loop {
            match &mut self.state {
                ReduceState::Gather { recvs, acc } => {
                    if !recvs.iter().all(RecvReq::is_done) {
                        return false;
                    }
                    // Ascending-mask order — fixed, so f64 results are
                    // deterministic.
                    for r in recvs.iter() {
                        let data = r.take().expect("done");
                        self.rop.apply(acc, &data);
                    }
                    let acc = std::mem::take(acc);
                    mpi.obs_coll(CollPhase::Round, CollKind::Reduce, self.seq, 0, acc.len());
                    self.state = match self.comm.binomial_parent(self.root) {
                        None => {
                            mpi.obs_coll(CollPhase::End, CollKind::Reduce, self.seq, 0, acc.len());
                            ReduceState::FinishedRoot(acc)
                        }
                        Some(parent) => {
                            let tag = self.comm.tag(CollKind::Reduce, self.seq, 0);
                            ReduceState::SendUp(self.comm.isend(mpi, parent, tag, acc))
                        }
                    };
                }
                ReduceState::SendUp(s) => {
                    if !s.is_done() {
                        return false;
                    }
                    mpi.obs_coll(CollPhase::End, CollKind::Reduce, self.seq, 0, 0);
                    self.state = ReduceState::FinishedNonRoot;
                }
                ReduceState::RingRs(rs) => {
                    if !rs.poll(mpi, &self.comm) {
                        return false;
                    }
                    // Rank i now owns reduced chunk (i + 1) mod n: gather
                    // them at the root.
                    let owned = rs.owned_chunk(&self.comm);
                    let bound = rs.max_chunk();
                    self.state = ReduceState::RingGather(GatherOp::on(
                        mpi, &self.comm, self.seq, self.root, owned, bound,
                    ));
                }
                ReduceState::RingGather(g) => {
                    if !g.poll(mpi) {
                        return false;
                    }
                    self.state = match g.take_result() {
                        None => ReduceState::FinishedNonRoot,
                        Some(mut chunks) => {
                            chunks.rotate_right(1); // rank order → chunk order
                            ReduceState::FinishedRoot(chunks.concat())
                        }
                    };
                    mpi.obs_coll(CollPhase::End, CollKind::Reduce, self.seq, 0, 0);
                }
                ReduceState::FinishedRoot(_) | ReduceState::FinishedNonRoot => return true,
                ReduceState::Taken => panic!("poll after take_result"),
            }
        }
    }

    /// `Some(result)` at the root, `None` elsewhere; call once after
    /// `poll` returns `true`.
    pub fn take_result(&mut self) -> Option<Vec<u8>> {
        match std::mem::replace(&mut self.state, ReduceState::Taken) {
            ReduceState::FinishedRoot(b) => Some(b),
            ReduceState::FinishedNonRoot => None,
            _ => panic!("reduce not complete"),
        }
    }
}

// ---------------------------------------------------------------- allreduce

enum AllreduceState {
    SmallReduce(ReduceToRootOp),
    SmallBcast(BcastOp),
    LargeRs(RingReduceScatter),
    LargeAg(RingAllgather),
    /// Across hosts: fold within each host, fold the hosts' partials at
    /// the first leader, and fan the result back out the same way.
    Composed(Box<Composed>),
    Finished(Vec<u8>),
    Taken,
}

/// Allreduce: every rank ends with the reduction of all contributions.
///
/// Small payloads compose binomial reduce-to-0 + binomial bcast — or,
/// across hosts, the two-level fold of [`crate::hier`]; large payloads
/// run the classic ring (reduce-scatter + allgather, 2(n−1) rounds,
/// each link carrying ≈`len/n` per round).
pub struct AllreduceOp {
    comm: Communicator,
    seq: u32,
    len: usize,
    state: AllreduceState,
}

impl AllreduceOp {
    /// Start an allreduce (`contrib.len()` identical on every rank, so
    /// every rank picks the same schedule from it and the host map).
    pub fn new<M: Mpi + ?Sized>(mpi: &mut M, contrib: &[u8], rop: ReduceOp) -> Self {
        let comm = Communicator::world(mpi);
        let seq = mpi.next_coll_seq();
        let len = contrib.len();
        let plan = if comm.use_pipeline(len) {
            None
        } else {
            mpi.coll_hosts()
                .and_then(|h| hier::reduce_plan(&comm, h, Some(rop)))
        };
        let state = if let Some(plan) = plan {
            AllreduceState::Composed(Composed::new(seq, plan, contrib.to_vec(), len))
        } else if comm.size <= 1 {
            AllreduceState::Finished(contrib.to_vec())
        } else if ring_reduces(&comm, len) {
            mpi.obs_coll(CollPhase::Start, CollKind::Reduce, seq, 0, len);
            AllreduceState::LargeRs(RingReduceScatter::new(seq, contrib, rop, comm.size))
        } else {
            let algo = ReduceAlgo::Binomial;
            AllreduceState::SmallReduce(ReduceToRootOp::on(mpi, &comm, seq, 0, contrib, rop, algo))
        };
        AllreduceOp {
            comm,
            seq,
            len,
            state,
        }
    }

    /// Advance; `true` once the reduced buffer is available here.
    pub fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M) -> bool {
        loop {
            match &mut self.state {
                AllreduceState::SmallReduce(r) => {
                    if !r.poll(mpi) {
                        return false;
                    }
                    let (result, algo) = (r.take_result(), BcastAlgo::Binomial);
                    self.state = AllreduceState::SmallBcast(BcastOp::on(
                        mpi, &self.comm, self.seq, 0, result, self.len, algo,
                    ));
                }
                AllreduceState::SmallBcast(b) => {
                    if !b.poll(mpi) {
                        return false;
                    }
                    self.state = AllreduceState::Finished(b.take_result());
                }
                AllreduceState::LargeRs(rs) => {
                    if !rs.poll(mpi, &self.comm) {
                        return false;
                    }
                    let n = self.comm.size;
                    let start = rs.owned_idx(&self.comm);
                    let bound = rs.max_chunk();
                    let mut chunks: Vec<Option<Vec<u8>>> = vec![None; n];
                    chunks[start] = Some(rs.owned_chunk(&self.comm));
                    self.state = AllreduceState::LargeAg(RingAllgather::new(
                        self.seq,
                        self.comm.rebased(n as u32),
                        start,
                        bound,
                        chunks,
                    ));
                }
                AllreduceState::LargeAg(ag) => {
                    if !ag.poll(mpi) {
                        return false;
                    }
                    let out = ag.assemble();
                    mpi.obs_coll(CollPhase::End, CollKind::Reduce, self.seq, 0, out.len());
                    self.state = AllreduceState::Finished(out);
                }
                AllreduceState::Composed(composed) => {
                    if !composed.poll(mpi) {
                        return false;
                    }
                    self.state = AllreduceState::Finished(composed.take_value());
                }
                AllreduceState::Finished(_) => return true,
                AllreduceState::Taken => panic!("poll after take_result"),
            }
        }
    }

    /// The reduced buffer; call once after `poll` returns `true`.
    pub fn take_result(&mut self) -> Vec<u8> {
        match std::mem::replace(&mut self.state, AllreduceState::Taken) {
            AllreduceState::Finished(b) => b,
            _ => panic!("allreduce not complete"),
        }
    }
}

// ---------------------------------------------------------------- gather

enum GatherState {
    Root {
        recvs: Vec<Option<RecvReq>>,
        own: Vec<u8>,
    },
    Leaf(SendReq),
    FinishedRoot(Vec<Vec<u8>>),
    FinishedNonRoot,
    Taken,
}

/// Gather every rank's buffer at `root` (rank order).
pub struct GatherOp {
    seq: u32,
    round: u32,
    state: GatherState,
}

impl GatherOp {
    /// Start a gather; every rank contributes `data`.
    pub fn new<M: Mpi + ?Sized>(mpi: &mut M, root: usize, data: Vec<u8>, max_len: usize) -> Self {
        let comm = Communicator::world(mpi);
        let seq = mpi.next_coll_seq();
        Self::on(mpi, &comm, seq, root, data, max_len)
    }

    /// Start gather `seq` at group rank `root` on `comm`.
    pub(crate) fn on<M: Mpi + ?Sized>(
        mpi: &mut M,
        comm: &Communicator,
        seq: u32,
        root: usize,
        data: Vec<u8>,
        max_len: usize,
    ) -> Self {
        let round = comm.round(0);
        mpi.obs_coll(CollPhase::Start, CollKind::Gather, seq, round, data.len());
        let tag = comm.tag(CollKind::Gather, seq, 0);
        let state = if comm.rank == root {
            let recvs = (0..comm.size)
                .map(|r| (r != root).then(|| comm.irecv(mpi, r, tag, max_len)))
                .collect();
            GatherState::Root { recvs, own: data }
        } else {
            GatherState::Leaf(comm.isend(mpi, root, tag, data))
        };
        GatherOp { seq, round, state }
    }

    /// Advance; `true` once this rank's part is complete.
    pub fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M) -> bool {
        let finished = match &mut self.state {
            GatherState::Root { recvs, own } => {
                if !recvs.iter().flatten().all(RecvReq::is_done) {
                    return false;
                }
                let part = |r: &Option<RecvReq>| match r {
                    None => std::mem::take(own),
                    Some(r) => r.take().expect("done"),
                };
                GatherState::FinishedRoot(recvs.iter().map(part).collect())
            }
            GatherState::Leaf(s) if s.is_done() => GatherState::FinishedNonRoot,
            GatherState::Leaf(_) => return false,
            GatherState::FinishedRoot(_) | GatherState::FinishedNonRoot => return true,
            GatherState::Taken => panic!("poll after take_result"),
        };
        mpi.obs_coll(CollPhase::End, CollKind::Gather, self.seq, self.round, 0);
        self.state = finished;
        true
    }

    /// `Some(buffers)` at the root (rank order), `None` elsewhere.
    pub fn take_result(&mut self) -> Option<Vec<Vec<u8>>> {
        match std::mem::replace(&mut self.state, GatherState::Taken) {
            GatherState::FinishedRoot(v) => Some(v),
            GatherState::FinishedNonRoot => None,
            _ => panic!("gather not complete"),
        }
    }
}

// ---------------------------------------------------------------- scatter

enum ScatterState {
    Root { sends: Vec<SendReq>, own: Vec<u8> },
    Leaf(RecvReq),
    Finished(Vec<u8>),
    Taken,
}

/// Scatter the root's per-rank chunks; each rank ends with its chunk.
pub struct ScatterOp {
    seq: u32,
    state: ScatterState,
}

impl ScatterOp {
    /// Start a scatter; the root passes `Some(chunks)` (one per rank).
    pub fn new<M: Mpi + ?Sized>(
        mpi: &mut M,
        root: usize,
        chunks: Option<Vec<Vec<u8>>>,
        max_len: usize,
    ) -> Self {
        let comm = Communicator::world(mpi);
        let seq = mpi.next_coll_seq();
        mpi.obs_coll(CollPhase::Start, CollKind::Scatter, seq, 0, 0);
        let tag = comm.tag(CollKind::Scatter, seq, 0);
        let state = if comm.rank == root {
            let chunks = chunks.expect("root must supply the chunks");
            assert_eq!(chunks.len(), comm.size, "one chunk per rank");
            let mut own = Vec::new();
            let mut sends = Vec::new();
            for (r, c) in chunks.into_iter().enumerate() {
                if r == root {
                    own = c;
                } else {
                    sends.push(comm.isend(mpi, r, tag, c));
                }
            }
            ScatterState::Root { sends, own }
        } else {
            ScatterState::Leaf(comm.irecv(mpi, root, tag, max_len))
        };
        ScatterOp { seq, state }
    }

    /// Advance; `true` once this rank holds its chunk (root: once all
    /// chunks are handed off).
    pub fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M) -> bool {
        let chunk = match &mut self.state {
            ScatterState::Root { sends, own } if sends.iter().all(SendReq::is_done) => {
                std::mem::take(own)
            }
            ScatterState::Leaf(r) if r.is_done() => r.take().expect("done"),
            ScatterState::Root { .. } | ScatterState::Leaf(_) => return false,
            ScatterState::Finished(_) => return true,
            ScatterState::Taken => panic!("poll after take_result"),
        };
        mpi.obs_coll(CollPhase::End, CollKind::Scatter, self.seq, 0, chunk.len());
        self.state = ScatterState::Finished(chunk);
        true
    }

    /// This rank's chunk; call once after `poll` returns `true`.
    pub fn take_result(&mut self) -> Vec<u8> {
        match std::mem::replace(&mut self.state, ScatterState::Taken) {
            ScatterState::Finished(c) => c,
            _ => panic!("scatter not complete"),
        }
    }
}
