//! The common MPI surface: non-blocking point-to-point (required methods)
//! plus blocking operations and collectives (default methods).
//!
//! Collectives are built purely on `isend`/`irecv`/`progress`, so they
//! run identically over the FM 1.x and FM 2.x bindings — which is the
//! point: the paper's efficiency gap is in the *binding*, not in MPI's
//! algorithms. The algorithms themselves live in [`crate::collectives`]
//! as poll-driven state machines (binomial trees and dissemination for
//! small payloads, pipelined chunk rings for large ones, two-level
//! compositions across hosts — each machine's constructor picks); the
//! default methods here are blocking `poll`+`progress` spin loops over
//! those machines and decide nothing.
//!
//! The blocking operations (and therefore these collective methods) spin
//! on `progress`; use them on the threaded and UDP transports.
//! Discrete-event simulations drive the non-blocking API — and the
//! collective `poll` machines directly — from their step functions
//! instead.

use fm_core::blocking::Backoff;

use crate::collectives::{AllreduceOp, BarrierOp, BcastOp, GatherOp, ReduceToRootOp, ScatterOp};
use crate::comm::CollPhase;
use crate::types::{RecvReq, SendReq, Status};
use crate::wire::{coll_tag, CollKind};

/// Reduction operators for [`Mpi::reduce`] / [`Mpi::allreduce`].
///
/// Operands are byte buffers interpreted as little-endian arrays of the
/// operator's element type; both sides must have equal length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise f64 sum.
    SumF64,
    /// Elementwise u64 sum (wrapping).
    SumU64,
    /// Elementwise f64 max.
    MaxF64,
    /// Elementwise f64 min.
    MinF64,
}

impl ReduceOp {
    /// `acc <- acc (op) other`.
    pub fn apply(self, acc: &mut [u8], other: &[u8]) {
        assert_eq!(acc.len(), other.len(), "reduce operands must match");
        assert_eq!(acc.len() % 8, 0, "reduce operates on 8-byte elements");
        for i in (0..acc.len()).step_by(8) {
            let a = &mut acc[i..i + 8];
            let b = &other[i..i + 8];
            match self {
                ReduceOp::SumF64 | ReduceOp::MaxF64 | ReduceOp::MinF64 => {
                    let x = f64::from_le_bytes(a.try_into().unwrap());
                    let y = f64::from_le_bytes(b.try_into().unwrap());
                    let r = match self {
                        ReduceOp::SumF64 => x + y,
                        ReduceOp::MaxF64 => x.max(y),
                        ReduceOp::MinF64 => x.min(y),
                        ReduceOp::SumU64 => unreachable!(),
                    };
                    a.copy_from_slice(&r.to_le_bytes());
                }
                ReduceOp::SumU64 => {
                    let x = u64::from_le_bytes(a.try_into().unwrap());
                    let y = u64::from_le_bytes(b.try_into().unwrap());
                    a.copy_from_slice(&x.wrapping_add(y).to_le_bytes());
                }
            }
        }
    }
}

/// The MPI subset implemented by both FM bindings.
pub trait Mpi {
    /// Largest tag available to applications; higher values are reserved
    /// for collectives.
    const MAX_USER_TAG: u32 = 0x7FFF_FFFF;

    /// This process's rank in COMM_WORLD.
    fn rank(&self) -> usize;
    /// Number of ranks in COMM_WORLD.
    fn size(&self) -> usize;
    /// Non-blocking eager send. The buffer is owned by the request until
    /// accepted by FM; completion means "handed to FM" (delivery is then
    /// guaranteed by FM's flow control).
    fn isend(&mut self, dst: usize, tag: u32, data: Vec<u8>) -> SendReq;
    /// Non-blocking receive: matches on `(src, tag)` with `None` as
    /// wildcard; `max_len` bounds the accepted message size.
    fn irecv(&mut self, src: Option<usize>, tag: Option<u32>, max_len: usize) -> RecvReq;
    /// Drive communication: flush deferred sends, extract from FM, run
    /// handlers.
    fn progress(&mut self);
    /// Per-instance counter distinguishing successive collectives.
    fn next_coll_seq(&mut self) -> u32;

    /// The host each rank lives on (`hosts[r]` = host id of rank `r`),
    /// when the transport knows the placement — e.g. a routed device
    /// composing shared memory within hosts and a network across them.
    /// Three constructors read it — [`BarrierOp::new`], [`BcastOp::new`]
    /// and [`AllreduceOp::new`] — and nothing else does: when the map
    /// covers every rank with at least two distinct hosts, they run the
    /// two-level schedules of [`crate::hier`] (bcast and allreduce only
    /// below the pipeline threshold; large payloads keep the flat ring
    /// and chain, whose bandwidth a hierarchy cannot beat). So blocking
    /// callers, poll-driven callers and simulated programs all take the
    /// same schedule. `with_algo` constructors stay flat, as do reduce,
    /// gather, scatter and alltoall. Every
    /// rank must return the same map (it is part of the distributed
    /// algorithm-choice agreement). Default: `None` — flat schedules.
    fn coll_hosts(&self) -> Option<&[usize]> {
        None
    }

    /// A peer rank the transport's failure detector has confirmed lost
    /// (`Down` — terminal for that incarnation), if any. The blocking
    /// wrappers and collective drivers poll this between progress steps
    /// and abort (panic) rather than spin forever on a dead peer; an
    /// operation that can already complete from buffered data does so
    /// first. The default is `None`: bindings over substrates with static
    /// membership (simulators, the threaded transport) never lose peers;
    /// both FM bindings override it with their engine's `Down` verdicts.
    fn lost_peer(&self) -> Option<usize> {
        None
    }

    /// Tracing hook: a collective phase event on this rank. Transports
    /// with an observability sink (the FM 2.x binding) record these as
    /// `coll_start`/`coll_round`/`coll_end` span events; the default is
    /// a no-op.
    fn obs_coll(
        &mut self,
        _phase: CollPhase,
        _kind: CollKind,
        _seq: u32,
        _round: u32,
        _bytes: usize,
    ) {
    }

    // ---- blocking wrappers (threaded transport) ----

    /// Block until `req` completes. Aborts (panics) if the transport
    /// reports a peer lost while the request is still pending — over a
    /// churn-capable transport a dead peer would otherwise mean an
    /// infinite spin.
    fn wait_send(&mut self, req: &SendReq) {
        drive(self, "wait_send", |_| req.is_done());
    }

    /// Block until `req` completes; returns the payload and status.
    /// Aborts (panics) on confirmed peer loss, like [`Mpi::wait_send`].
    fn wait_recv(&mut self, req: &RecvReq) -> (Vec<u8>, Status) {
        drive(self, "wait_recv", |_| req.is_done());
        let status = req.status().expect("completed");
        (req.take().expect("completed"), status)
    }

    /// Blocking send.
    fn send(&mut self, dst: usize, tag: u32, data: Vec<u8>) {
        let r = self.isend(dst, tag, data);
        self.wait_send(&r);
    }

    /// Blocking receive.
    fn recv(&mut self, src: Option<usize>, tag: Option<u32>, max_len: usize) -> (Vec<u8>, Status) {
        let r = self.irecv(src, tag, max_len);
        self.wait_recv(&r)
    }

    // ---- collectives (blocking drivers over crate::collectives) ----

    /// Barrier: dissemination, ⌈log₂ n⌉ rounds — or, across hosts
    /// ([`Mpi::coll_hosts`]), ⌈log₂ H⌉ cross-host rounds between a local
    /// gather and release. See [`BarrierOp`].
    fn barrier(&mut self)
    where
        Self: Sized,
    {
        let mut op = BarrierOp::new(self);
        drive(self, "collective", |mpi| op.poll(mpi));
    }

    /// Broadcast. The root passes `Some(data)`; everyone else passes
    /// `None` and a `max_len` bound (`max_len` must be identical on all
    /// ranks — it selects the algorithm: binomial tree, or two-level
    /// across hosts, below the pipeline threshold; segmented chain
    /// pipeline above). Returns the data on every rank.
    fn bcast(&mut self, root: usize, data: Option<Vec<u8>>, max_len: usize) -> Vec<u8>
    where
        Self: Sized,
    {
        let mut op = BcastOp::new(self, root, data, max_len);
        drive(self, "collective", |mpi| op.poll(mpi));
        op.take_result()
    }

    /// Reduce to the root (`Some(result)` there, `None` elsewhere).
    /// `contrib` must be the same length on every rank; the length
    /// selects the algorithm (binomial tree, or ring reduce-scatter +
    /// chunk gather above the pipeline threshold).
    fn reduce(&mut self, root: usize, contrib: &[u8], op: ReduceOp) -> Option<Vec<u8>>
    where
        Self: Sized,
    {
        let mut r = ReduceToRootOp::new(self, root, contrib, op);
        drive(self, "collective", |mpi| r.poll(mpi));
        r.take_result()
    }

    /// Allreduce; every rank gets the result. Small payloads compose
    /// binomial reduce + bcast (two-level across hosts), large ones run
    /// the bandwidth-optimal ring (reduce-scatter + allgather).
    fn allreduce(&mut self, contrib: &[u8], op: ReduceOp) -> Vec<u8>
    where
        Self: Sized,
    {
        let mut a = AllreduceOp::new(self, contrib, op);
        drive(self, "collective", |mpi| a.poll(mpi));
        a.take_result()
    }

    /// Gather every rank's buffer at the root (rank order). Returns
    /// `Some(vec_of_buffers)` at the root, `None` elsewhere.
    fn gather(&mut self, root: usize, data: Vec<u8>, max_len: usize) -> Option<Vec<Vec<u8>>>
    where
        Self: Sized,
    {
        let mut g = GatherOp::new(self, root, data, max_len);
        drive(self, "collective", |mpi| g.poll(mpi));
        g.take_result()
    }

    /// Scatter the root's per-rank chunks; returns this rank's chunk.
    fn scatter(&mut self, root: usize, chunks: Option<Vec<Vec<u8>>>, max_len: usize) -> Vec<u8>
    where
        Self: Sized,
    {
        let mut s = ScatterOp::new(self, root, chunks, max_len);
        drive(self, "collective", |mpi| s.poll(mpi));
        s.take_result()
    }

    /// Personalized all-to-all: `data[r]` goes to rank `r`; returns the
    /// buffers received from every rank (rank order).
    fn alltoall(&mut self, data: Vec<Vec<u8>>, max_len: usize) -> Vec<Vec<u8>> {
        let (rank, size) = (self.rank(), self.size());
        assert_eq!(data.len(), size, "one buffer per rank");
        let seq = self.next_coll_seq();
        let tag = coll_tag(CollKind::Alltoall, seq, 0);
        let mut recvs: Vec<Option<RecvReq>> = (0..size)
            .map(|r| {
                if r == rank {
                    None
                } else {
                    Some(self.irecv(Some(r), Some(tag), max_len))
                }
            })
            .collect();
        let mut mine = Vec::new();
        let mut pending = Vec::new();
        for (r, d) in data.into_iter().enumerate() {
            if r == rank {
                mine = d;
            } else {
                pending.push(self.isend(r, tag, d));
            }
        }
        let mut out = Vec::with_capacity(size);
        for (r, req) in recvs.iter_mut().enumerate() {
            match req.take() {
                None => {
                    let _ = r;
                    out.push(std::mem::take(&mut mine));
                }
                Some(req) => out.push(self.wait_recv(&req).0),
            }
        }
        for s in &pending {
            self.wait_send(s);
        }
        out
    }
}

/// The one blocking driver: poll a request or a collective state machine
/// to completion, driving `progress` between polls. Exits by panic on a
/// confirmed peer loss, or when the wait stays fruitless for the whole
/// wedge limit of [`Backoff`] (low under this crate's own unit tests,
/// which never block on a live peer and pin that exit).
fn drive<M: Mpi + ?Sized>(mpi: &mut M, during: &'static str, mut poll: impl FnMut(&mut M) -> bool) {
    let mut backoff = if cfg!(test) {
        Backoff::with_limit(during, 10_000)
    } else {
        Backoff::new(during)
    };
    while !poll(mpi) {
        abort_if_peer_lost(mpi, during);
        mpi.progress();
        backoff.snooze();
    }
}

/// Abort the rank when the transport has confirmed a peer `Down` while a
/// blocking operation is still incomplete. MPI has no standard recovery
/// for a lost COMM_WORLD member mid-operation; a loud panic (which
/// [`crate::api`]'s callers see as `MPI_Abort`-like behaviour) beats the
/// alternative, an eternal progress spin waiting on a dead rank. Checked
/// *after* the completion test, so operations that can finish from data
/// already delivered still finish.
fn abort_if_peer_lost<M: Mpi + ?Sized>(mpi: &M, during: &str) {
    if let Some(peer) = mpi.lost_peer() {
        panic!(
            "MPI abort: peer rank {peer} is down (lost during {during}; this is rank {} of {})",
            mpi.rank(),
            mpi.size()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64s(v: &[f64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn reduce_ops_elementwise() {
        let mut acc = f64s(&[1.0, 5.0]);
        ReduceOp::SumF64.apply(&mut acc, &f64s(&[2.0, -1.0]));
        assert_eq!(acc, f64s(&[3.0, 4.0]));
        ReduceOp::MaxF64.apply(&mut acc, &f64s(&[10.0, 0.0]));
        assert_eq!(acc, f64s(&[10.0, 4.0]));
        ReduceOp::MinF64.apply(&mut acc, &f64s(&[-1.0, 100.0]));
        assert_eq!(acc, f64s(&[-1.0, 4.0]));

        let mut u = 7u64.to_le_bytes().to_vec();
        ReduceOp::SumU64.apply(&mut u, &u64::MAX.to_le_bytes());
        assert_eq!(u, 6u64.to_le_bytes(), "wrapping");
    }

    #[test]
    #[should_panic(expected = "operands must match")]
    fn reduce_length_mismatch_panics() {
        ReduceOp::SumF64.apply(&mut [0u8; 8], &[0u8; 16]);
    }

    /// A transport stub whose failure detector has already condemned
    /// rank 1. Sends complete instantly (eager semantics), receives
    /// never do — exactly the shape of a blocking operation stuck on a
    /// dead peer.
    struct DeadPeerMpi {
        lost: Option<usize>,
        seq: u32,
    }

    impl Mpi for DeadPeerMpi {
        fn rank(&self) -> usize {
            0
        }
        fn size(&self) -> usize {
            2
        }
        fn isend(&mut self, _dst: usize, _tag: u32, _data: Vec<u8>) -> SendReq {
            SendReq::new(true)
        }
        fn irecv(&mut self, _src: Option<usize>, _tag: Option<u32>, _max_len: usize) -> RecvReq {
            RecvReq::new()
        }
        fn progress(&mut self) {}
        fn next_coll_seq(&mut self) -> u32 {
            self.seq += 1;
            self.seq
        }
        fn lost_peer(&self) -> Option<usize> {
            self.lost
        }
    }

    #[test]
    #[should_panic(expected = "MPI abort: peer rank 1 is down")]
    fn blocking_collective_aborts_on_confirmed_peer_loss() {
        let mut mpi = DeadPeerMpi {
            lost: Some(1),
            seq: 0,
        };
        mpi.barrier(); // would spin forever waiting on rank 1's round
    }

    #[test]
    #[should_panic(expected = "lost during wait_recv")]
    fn wait_recv_aborts_on_confirmed_peer_loss() {
        let mut mpi = DeadPeerMpi {
            lost: Some(1),
            seq: 0,
        };
        let req = mpi.irecv(Some(1), Some(7), 64);
        mpi.wait_recv(&req);
    }

    #[test]
    #[should_panic(expected = "blocking wait_recv polled")]
    fn a_wait_no_peer_will_satisfy_panics_with_the_diagnosis() {
        // No failure detector verdict and no message: the wedge limit is
        // the wait's only exit.
        let mut mpi = DeadPeerMpi { lost: None, seq: 0 };
        let req = mpi.irecv(Some(1), Some(7), 64);
        mpi.wait_recv(&req);
    }

    #[test]
    fn completed_requests_finish_before_the_loss_check() {
        // The abort check runs after the completion test: work that can
        // finish from already-delivered data still finishes, even with a
        // peer down.
        let mut mpi = DeadPeerMpi {
            lost: Some(1),
            seq: 0,
        };
        let req = mpi.isend(1, 7, vec![1, 2, 3]);
        mpi.wait_send(&req); // done at issue — must not panic
    }
}
