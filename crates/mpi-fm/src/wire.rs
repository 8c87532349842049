//! The MPI-FM wire header.
//!
//! The paper (§5) notes that "the minimum length of the header added by
//! the MPI code is 24 bytes (6 words)" — more than the 4–5 words that
//! Active-Messages-style short-message primitives optimize for, which is
//! one reason specialized short-transfer primitives missed real workloads.
//! We use exactly that 24-byte, 6-word header.

/// The 6-word MPI-FM header prepended to every point-to-point message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpiHeader {
    /// Sending rank.
    pub src_rank: u32,
    /// Message tag.
    pub tag: u32,
    /// Communicator id (only `COMM_WORLD = 0` is implemented; carried for
    /// wire fidelity).
    pub comm: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// Protocol kind (eager data for now; reserved for rendezvous).
    pub kind: u32,
    /// Per-sender message sequence (diagnostics).
    pub seq: u32,
}

/// Size of the encoded header: 6 words = 24 bytes.
pub const MPI_HEADER_BYTES: usize = 24;

/// The world communicator id.
pub const COMM_WORLD: u32 = 0;

/// Eager-protocol kind: header + payload in one FM message.
pub const KIND_EAGER: u32 = 1;

/// Rendezvous request-to-send: header only; `len` announces the payload,
/// `seq` identifies the parked send. The receiver answers with CTS once a
/// matching receive exists, so the payload travels exactly once and lands
/// directly in the user buffer — even when it arrived "unexpected".
pub const KIND_RTS: u32 = 2;

/// Rendezvous clear-to-send: header only, echoing the RTS `seq`. On the
/// FM 2.x path `len` carries the granted `fm_core::onesided` transfer id;
/// the payload itself then travels as one-sided DATA segments straight
/// into the buffer the receiver registered (no MPI-level payload kind).
pub const KIND_CTS: u32 = 3;

/// Continuation fragment of a segmented eager message (MPI-FM 1.x path:
/// FM 1.x admits whole messages atomically, so MPI messages beyond the
/// credit window are split into FM-sized segments and reassembled —
/// exactly what MPICH did above the real FM). `seq` binds fragments to
/// their first segment; `len` is this fragment's payload length.
pub const KIND_FRAG: u32 = 5;

/// Collective kinds, used to partition the reserved collective tag space
/// (tags with the high bit set, above [`crate::Mpi::MAX_USER_TAG`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// Dissemination barrier.
    Barrier = 1,
    /// Broadcast from a root.
    Bcast = 2,
    /// Reduction to a root (also the first phase of allreduce).
    Reduce = 3,
    /// Gather to a root.
    Gather = 4,
    /// Scatter from a root.
    Scatter = 5,
    /// Personalized all-to-all exchange.
    Alltoall = 6,
}

/// Build a collective tag: high bit set (never collides with user tags,
/// which must stay below [`crate::Mpi::MAX_USER_TAG`]), plus kind, per-call
/// sequence (12 bits), and round/chunk index (12 bits).
pub fn coll_tag(kind: CollKind, seq: u32, round: u32) -> u32 {
    0x8000_0000 | ((kind as u32) << 24) | ((seq & 0xFFF) << 12) | (round & 0xFFF)
}

impl MpiHeader {
    /// Encode to the 24-byte wire form.
    pub fn encode(&self) -> [u8; MPI_HEADER_BYTES] {
        let mut out = [0u8; MPI_HEADER_BYTES];
        for (i, w) in [
            self.src_rank,
            self.tag,
            self.comm,
            self.len,
            self.kind,
            self.seq,
        ]
        .into_iter()
        .enumerate()
        {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decode from the wire form; `None` if `bytes` is shorter than
    /// [`MPI_HEADER_BYTES`].
    pub fn decode(bytes: &[u8]) -> Option<MpiHeader> {
        let bytes = bytes.get(..MPI_HEADER_BYTES)?;
        let w = |i: usize| u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
        Some(MpiHeader {
            src_rank: w(0),
            tag: w(1),
            comm: w(2),
            len: w(3),
            kind: w(4),
            seq: w(5),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_six_words() {
        assert_eq!(MPI_HEADER_BYTES, 24);
    }

    #[test]
    fn encode_decode_round_trip() {
        let h = MpiHeader {
            src_rank: 3,
            tag: 0xBEEF,
            comm: COMM_WORLD,
            len: 4096,
            kind: KIND_EAGER,
            seq: 12345,
        };
        assert_eq!(MpiHeader::decode(&h.encode()), Some(h));
    }

    #[test]
    fn decode_rejects_short_input() {
        assert_eq!(MpiHeader::decode(&[0u8; 10]), None);
        assert_eq!(MpiHeader::decode(&[0u8; MPI_HEADER_BYTES - 1]), None);
    }

    #[test]
    fn coll_tags_have_high_bit_and_distinct_kinds() {
        let a = coll_tag(CollKind::Barrier, 1, 0);
        let b = coll_tag(CollKind::Bcast, 1, 0);
        assert_ne!(a, b);
        assert!(a & 0x8000_0000 != 0);
        // Rounds and seqs distinguish too.
        assert_ne!(
            coll_tag(CollKind::Barrier, 1, 0),
            coll_tag(CollKind::Barrier, 1, 1)
        );
        assert_ne!(
            coll_tag(CollKind::Barrier, 1, 0),
            coll_tag(CollKind::Barrier, 2, 0)
        );
    }
}
