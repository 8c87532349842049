//! Shmem-FM wire messages.
//!
//! Fixed-size little-endian headers, payload (when any) as a second gather
//! piece.

use fm_shm::heap::HeapId;

/// Shmem operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Acknowledge one accumulate (drives `quiet`); `refused` when the
    /// target did not apply it (not whole f64s inside its heap).
    AccAck {
        /// The target refused the accumulate.
        refused: bool,
    },
    /// Elementwise f64 add of the payload into the target heap at
    /// `offset` (one-sided accumulate).
    AccF64 {
        /// Target heap offset.
        offset: u64,
    },
    /// Atomic fetch-add of `delta` to the i64 at `offset`; target replies
    /// with the old value.
    Fadd {
        /// Requester-chosen id to match the reply.
        req: u32,
        /// Target heap offset (8-byte aligned).
        offset: u64,
        /// Addend.
        delta: i64,
    },
    /// Reply to a [`Op::Fadd`].
    FaddReply {
        /// The request id being answered.
        req: u32,
        /// Value before the add; `None` when the target refused it
        /// (outside its heap).
        old: Option<i64>,
    },
    /// Barrier notification for dissemination round `round` of epoch
    /// `epoch`.
    Barrier {
        /// Barrier epoch (per-node counter; all nodes advance together).
        epoch: u64,
        /// Dissemination round within the epoch.
        round: u32,
    },
    /// The sender's heap, for a PE on its host to attach.
    Heap(HeapId),
}

/// Encoded header size (fixed for simplicity; small next to any payload).
pub const OP_BYTES: usize = 24;

impl Op {
    /// Encode into a fixed 24-byte header.
    pub fn encode(&self) -> [u8; OP_BYTES] {
        let mut b = [0u8; OP_BYTES];
        match *self {
            Op::AccAck { refused } => {
                b[0] = 2;
                b[1] = refused as u8;
            }
            Op::AccF64 { offset } => {
                b[0] = 5;
                b[8..16].copy_from_slice(&offset.to_le_bytes());
            }
            Op::Fadd { req, offset, delta } => {
                b[0] = 6;
                b[4..8].copy_from_slice(&req.to_le_bytes());
                b[8..16].copy_from_slice(&offset.to_le_bytes());
                b[16..24].copy_from_slice(&delta.to_le_bytes());
            }
            Op::FaddReply { req, old } => {
                b[0] = 7;
                b[1] = old.is_none() as u8;
                b[4..8].copy_from_slice(&req.to_le_bytes());
                b[8..16].copy_from_slice(&old.unwrap_or(0).to_le_bytes());
            }
            Op::Barrier { epoch, round } => {
                b[0] = 8;
                b[4..8].copy_from_slice(&round.to_le_bytes());
                b[8..16].copy_from_slice(&epoch.to_le_bytes());
            }
            Op::Heap(id) => {
                b[0] = 9;
                b[4..8].copy_from_slice(&id.fd.to_le_bytes());
                b[8..16].copy_from_slice(&id.dev.to_le_bytes());
                b[16..24].copy_from_slice(&id.ino.to_le_bytes());
            }
        }
        b
    }

    /// Decode a 24-byte header.
    ///
    /// # Panics
    /// Panics on an unknown kind byte or short input.
    pub fn decode(b: &[u8]) -> Op {
        assert!(b.len() >= OP_BYTES, "truncated shmem header");
        let u32_at = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        let i64_at = |i: usize| i64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        match b[0] {
            2 => Op::AccAck { refused: b[1] != 0 },
            5 => Op::AccF64 { offset: u64_at(8) },
            6 => Op::Fadd {
                req: u32_at(4),
                offset: u64_at(8),
                delta: i64_at(16),
            },
            7 => Op::FaddReply {
                req: u32_at(4),
                old: (b[1] == 0).then(|| i64_at(8)),
            },
            8 => Op::Barrier {
                epoch: u64_at(8),
                round: u32_at(4),
            },
            9 => Op::Heap(HeapId {
                fd: u32_at(4) as i32,
                dev: u64_at(8),
                ino: u64_at(16),
            }),
            k => panic!("unknown shmem op kind {k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ops_round_trip() {
        let ops = [
            Op::AccAck { refused: false },
            Op::AccAck { refused: true },
            Op::AccF64 { offset: 16 },
            Op::Fadd {
                req: 2,
                offset: 0,
                delta: -5,
            },
            Op::FaddReply {
                req: 2,
                old: Some(41),
            },
            Op::FaddReply { req: 3, old: None },
            Op::Barrier { epoch: 9, round: 3 },
            Op::Heap(HeapId {
                fd: -1,
                dev: 7,
                ino: u64::MAX,
            }),
        ];
        for op in ops {
            assert_eq!(Op::decode(&op.encode()), op, "{op:?}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown shmem op kind")]
    fn unknown_kind_panics() {
        let mut b = [0u8; OP_BYTES];
        b[0] = 42;
        let _ = Op::decode(&b);
    }
}
