//! Communicator: a group of ranks, its topology, and collective
//! algorithm selection.
//!
//! The collectives in [`crate::collectives`] are assembled from two tree
//! shapes (a binomial tree rooted anywhere, and a unidirectional ring)
//! plus a contiguous chunking scheme. This module owns that geometry —
//! virtual-rank arithmetic, parent/child enumeration, neighbor lookup,
//! chunk bounds — and the size-threshold policy choosing between the
//! small-payload tree algorithms and the large-payload pipelined paths
//! (segmented chain for bcast, ring reduce-scatter / ring allgather for
//! reductions).
//!
//! A [`Communicator`] is a *group*: all geometry is in group ranks, and
//! the group is the one place a group rank becomes a world rank
//! ([`Communicator::isend`] / [`Communicator::irecv`]) and a round
//! becomes a tag ([`Communicator::tag`]). The world group has no member
//! table and allocates nothing; a sub-group ([`Communicator::group`])
//! carries one plus a tag round base, which is how several flat
//! collectives run under one sequence number without their tags
//! meeting — the two-level schedules in [`crate::hier`] are exactly
//! that.
//!
//! Every rank must make the *same* algorithm choice for the same
//! collective or the tag schedules disagree and the operation wedges, so
//! selection keys off values that are identical everywhere by contract
//! (the receive bound for bcast, the contribution length for reductions),
//! never off root-only knowledge.

use std::rc::Rc;

use crate::api::Mpi;
use crate::types::{RecvReq, SendReq};
use crate::wire::{coll_tag, CollKind};

/// Payloads of at least this many bytes take the pipelined-chunk path
/// (segmented chain for bcast, ring reduce-scatter for reductions);
/// smaller ones use binomial trees. Well above the MTU, so small
/// collectives stay single-message. The same on every rank by
/// construction: it is part of the distributed algorithm-choice
/// agreement.
pub const PIPELINE_THRESHOLD: usize = 32 * 1024;

/// Segment size for the chain-pipelined broadcast. Small enough that
/// several segments are in flight across the chain (and each fits
/// comfortably inside the per-peer credit window), large enough that
/// per-message overheads stay negligible. It is the one-sided chunk, the
/// largest message MPI-FM 2.x sends eagerly, so no segment waits for a
/// rendezvous.
pub const PIPELINE_SEGMENT: usize = fm_core::onesided::CHUNK_BYTES;

/// Which obs span a collective is reporting (mapped by transports onto
/// their tracing sink; see [`crate::Mpi::obs_coll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollPhase {
    /// The operation began on this rank.
    Start,
    /// One communication round/phase finished posting.
    Round,
    /// The operation completed on this rank.
    End,
}

/// One collective's group: who is my parent, who are my children, who
/// are my ring neighbors — in group ranks — and how those map onto the
/// world.
#[derive(Debug, Clone)]
pub struct Communicator {
    /// This process's rank in the group.
    pub rank: usize,
    /// Number of ranks in the group.
    pub size: usize,
    /// Group rank → world rank; `None` is the world group (identity).
    members: Option<Rc<[usize]>>,
    /// Added to every round this group tags.
    round_base: u32,
}

impl Communicator {
    /// The world group, from a rank/size pair.
    pub fn new(rank: usize, size: usize) -> Self {
        assert!(rank < size, "rank {rank} out of range for size {size}");
        Communicator {
            rank,
            size,
            members: None,
            round_base: 0,
        }
    }

    /// The world group of `mpi`.
    pub fn world<M: Mpi + ?Sized>(mpi: &M) -> Self {
        Communicator::new(mpi.rank(), mpi.size())
    }

    /// The sub-group of this (world) group holding the world ranks
    /// `members`, in that order, tagging its rounds from `round_base`;
    /// `None` when this rank is not one of them.
    pub fn group(&self, members: &[usize], round_base: u32) -> Option<Communicator> {
        let rank = members.iter().position(|&r| r == self.rank)?;
        Some(Communicator {
            rank,
            size: members.len(),
            members: Some(members.into()),
            round_base,
        })
    }

    /// The same group tagging its rounds from `round_base` instead.
    pub fn rebased(&self, round_base: u32) -> Communicator {
        Communicator {
            round_base,
            ..self.clone()
        }
    }

    /// The world rank of group rank `r`.
    fn world_rank(&self, r: usize) -> usize {
        self.members.as_ref().map_or(r, |m| m[r])
    }

    /// Round `r` of this group in the collective's round space.
    pub fn round(&self, r: u32) -> u32 {
        self.round_base + r
    }

    /// The tag of round `r` of collective (`kind`, `seq`) on this group.
    pub fn tag(&self, kind: CollKind, seq: u32, r: u32) -> u32 {
        coll_tag(kind, seq, self.round(r))
    }

    /// Send to group rank `dst`.
    pub fn isend<M: Mpi + ?Sized>(
        &self,
        mpi: &mut M,
        dst: usize,
        tag: u32,
        data: Vec<u8>,
    ) -> SendReq {
        mpi.isend(self.world_rank(dst), tag, data)
    }

    /// Receive from group rank `src`.
    pub fn irecv<M: Mpi + ?Sized>(
        &self,
        mpi: &mut M,
        src: usize,
        tag: u32,
        max_len: usize,
    ) -> RecvReq {
        mpi.irecv(Some(self.world_rank(src)), Some(tag), max_len)
    }

    /// Virtual rank with `root` renumbered to 0 (binomial trees are
    /// defined in virtual-rank space so any root works).
    pub fn vrank(&self, root: usize) -> usize {
        (self.rank + self.size - root) % self.size
    }

    /// Group rank for a virtual rank under `root`.
    pub fn from_vrank(&self, vr: usize, root: usize) -> usize {
        (vr + root) % self.size
    }

    /// Lowest set bit of this rank's virtual rank — the span of its
    /// binomial subtree. For the root the full power-of-two ceiling.
    fn binomial_lsb(&self, root: usize) -> usize {
        let vr = self.vrank(root);
        if vr == 0 {
            self.size.next_power_of_two()
        } else {
            vr & vr.wrapping_neg()
        }
    }

    /// Binomial parent (group rank), `None` at the root.
    pub fn binomial_parent(&self, root: usize) -> Option<usize> {
        let vr = self.vrank(root);
        if vr == 0 {
            return None;
        }
        let lsb = vr & vr.wrapping_neg();
        Some(self.from_vrank(vr - lsb, root))
    }

    /// Binomial children (group ranks) in ascending-mask order — the
    /// fixed order reductions apply operands in, which is what makes
    /// floating-point results deterministic. Broadcast walks the same
    /// list in reverse (biggest subtree first).
    pub fn binomial_children(&self, root: usize) -> Vec<usize> {
        let vr = self.vrank(root);
        let lsb = self.binomial_lsb(root);
        let mut out = Vec::new();
        let mut m = 1usize;
        while m < lsb {
            let child_vr = vr + m;
            if child_vr < self.size {
                out.push(self.from_vrank(child_vr, root));
            }
            m <<= 1;
        }
        out
    }

    /// Ring successor (where this rank sends).
    pub fn right(&self) -> usize {
        (self.rank + 1) % self.size
    }

    /// Ring predecessor (where this rank receives from).
    pub fn left(&self) -> usize {
        (self.rank + self.size - 1) % self.size
    }

    /// True when a payload of `bytes` should take the pipelined-chunk
    /// path. Single-rank and two-rank rings degenerate (a 2-ring is just
    /// the direct exchange), so pipelining needs at least 2 ranks.
    pub fn use_pipeline(&self, bytes: usize) -> bool {
        self.size > 1 && bytes >= PIPELINE_THRESHOLD
    }
}

/// Byte bounds `[start, end)` of part `i` of `total` bytes split into
/// `parts` contiguous chunks, the first `total % parts` chunks one byte
/// longer. Chunks are empty once `i` exceeds the data.
pub fn chunk_bounds(total: usize, parts: usize, i: usize) -> (usize, usize) {
    assert!(i < parts, "chunk {i} of {parts}");
    let base = total / parts;
    let extra = total % parts;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    (start, start + len)
}

/// Like [`chunk_bounds`] but aligned to 8-byte reduction elements:
/// `total` must be a multiple of 8 and every chunk boundary lands on an
/// element boundary, so [`crate::ReduceOp::apply`] accepts each chunk.
pub fn elem_chunk_bounds(total: usize, parts: usize, i: usize) -> (usize, usize) {
    assert_eq!(total % 8, 0, "reductions operate on 8-byte elements");
    let (s, e) = chunk_bounds(total / 8, parts, i);
    (s * 8, e * 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(rank: usize, size: usize) -> Communicator {
        Communicator::new(rank, size)
    }

    #[test]
    fn binomial_tree_is_consistent_for_any_root() {
        for size in 1..10 {
            for root in 0..size {
                // Every non-root appears exactly once as somebody's child,
                // and each child's parent pointer agrees.
                let mut seen = vec![0usize; size];
                for r in 0..size {
                    for c in comm(r, size).binomial_children(root) {
                        seen[c] += 1;
                        assert_eq!(comm(c, size).binomial_parent(root), Some(r));
                    }
                }
                assert_eq!(comm(root, size).binomial_parent(root), None);
                for (r, &count) in seen.iter().enumerate() {
                    assert_eq!(
                        count,
                        usize::from(r != root),
                        "rank {r} size {size} root {root}"
                    );
                }
            }
        }
    }

    #[test]
    fn children_ascend_and_bcast_order_descends() {
        let c = comm(0, 8).binomial_children(0);
        assert_eq!(c, vec![1, 2, 4]);
        let rev: Vec<usize> = c.into_iter().rev().collect();
        assert_eq!(rev, vec![4, 2, 1]);
    }

    #[test]
    fn ring_neighbors_wrap() {
        let c = comm(0, 4);
        assert_eq!((c.right(), c.left()), (1, 3));
        let c = comm(3, 4);
        assert_eq!((c.right(), c.left()), (0, 2));
    }

    #[test]
    fn chunk_bounds_cover_exactly_once() {
        for total in [0usize, 1, 7, 8, 100, 1024] {
            for parts in 1..9 {
                let mut covered = 0;
                for i in 0..parts {
                    let (s, e) = chunk_bounds(total, parts, i);
                    assert_eq!(s, covered, "chunks must be contiguous");
                    assert!(e >= s);
                    covered = e;
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn elem_chunks_stay_element_aligned() {
        for parts in 1..7 {
            for i in 0..parts {
                let (s, e) = elem_chunk_bounds(40, parts, i);
                assert_eq!(s % 8, 0);
                assert_eq!(e % 8, 0);
            }
        }
    }

    #[test]
    fn pipeline_threshold_selects() {
        let c = comm(0, 4);
        assert!(!c.use_pipeline(16));
        assert!(c.use_pipeline(256 * 1024));
        let solo = comm(0, 1);
        assert!(!solo.use_pipeline(256 * 1024));
    }
}
