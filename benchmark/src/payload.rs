//! Seeded payloads and their check.
//!
//! Every message is a 16-byte header `(seed tag, operation index, total
//! length, checksum)` followed by a slice of one seeded pattern buffer,
//! at an offset that depends on the seed and the operation index. The
//! sender gathers header and slice without copying; the receiver compares
//! the bytes it got against the same slice, so a check is a header
//! comparison plus one `memcmp` — cheap enough to run on every message
//! of a 1 GB/s stream, and exact (not a digest).

use fm_model::rng::DetRng;

/// Bytes of header at the front of every message.
pub const HEADER_BYTES: usize = 16;

/// Bytes of seeded pattern a body slice is cut from.
const PATTERN_BYTES: usize = 1 << 20;

fn mix(mut x: u64) -> u64 {
    // SplitMix64 finaliser.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeded inputs of one run.
pub struct Pattern {
    seed: u64,
    bytes: Vec<u8>,
}

impl Pattern {
    /// Pattern for `seed`, able to serve bodies up to `max_body` bytes.
    pub fn new(seed: u64, max_body: usize) -> Self {
        let mut rng = DetRng::seed_from_u64(seed ^ 0xFA57_4D65_7373_6167);
        Pattern {
            seed,
            bytes: rng.bytes(PATTERN_BYTES + max_body),
        }
    }

    fn offset(&self, op: u64) -> usize {
        (mix(self.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize % PATTERN_BYTES) & !7
    }

    /// Header of operation `op` whose whole message is `len` bytes.
    pub fn header(&self, op: u64, len: usize) -> [u8; HEADER_BYTES] {
        assert!(len >= HEADER_BYTES, "message shorter than its header");
        let tag = mix(self.seed) as u32;
        let check = mix(self.seed ^ mix(op) ^ (len as u64).rotate_left(32)) as u32;
        let mut h = [0u8; HEADER_BYTES];
        h[0..4].copy_from_slice(&tag.to_le_bytes());
        h[4..8].copy_from_slice(&(op as u32).to_le_bytes());
        h[8..12].copy_from_slice(&(len as u32).to_le_bytes());
        h[12..16].copy_from_slice(&check.to_le_bytes());
        h
    }

    /// Body of operation `op` for a message of `len` bytes in all.
    pub fn body(&self, op: u64, len: usize) -> &[u8] {
        let off = self.offset(op);
        &self.bytes[off..off + (len - HEADER_BYTES)]
    }

    /// Whether `msg` is exactly the message of operation `op`.
    pub fn check(&self, op: u64, msg: &[u8]) -> bool {
        msg.len() >= HEADER_BYTES
            && msg[..HEADER_BYTES] == self.header(op, msg.len())
            && msg[HEADER_BYTES..] == *self.body(op, msg.len())
    }

    /// The whole message of operation `op`, assembled (for APIs that
    /// take one buffer).
    pub fn message(&self, op: u64, len: usize) -> Vec<u8> {
        let mut m = vec![0u8; len];
        self.fill(op, &mut m);
        m
    }

    /// Write the message of operation `op` into `out` (whose length is
    /// the message length).
    pub fn fill(&self, op: u64, out: &mut [u8]) {
        let len = out.len();
        out[..HEADER_BYTES].copy_from_slice(&self.header(op, len));
        out[HEADER_BYTES..].copy_from_slice(self.body(op, len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (a, b, c) = (
            Pattern::new(7, 4096),
            Pattern::new(7, 4096),
            Pattern::new(8, 4096),
        );
        assert_eq!(a.message(3, 2048), b.message(3, 2048));
        assert_ne!(a.message(3, 2048), c.message(3, 2048));
        assert_ne!(a.message(3, 2048), a.message(4, 2048));
    }

    #[test]
    fn check_accepts_the_message_and_nothing_else() {
        let p = Pattern::new(42, 65_536);
        for len in [16, 17, 2048, 65_536] {
            let m = p.message(9, len);
            assert!(p.check(9, &m));
            assert!(!p.check(10, &m), "wrong order must fail");
            assert!(
                !p.check(9, &m[..len - 1]) || len == 16,
                "truncation must fail"
            );
        }
    }

    #[test]
    fn a_corrupted_payload_fails_the_check() {
        let p = Pattern::new(1, 4096);
        let mut m = p.message(0, 2048);
        m[1000] ^= 1;
        assert!(!p.check(0, &m));
        let mut m = p.message(0, 16);
        m[5] ^= 0x80; // operation index
        assert!(!p.check(0, &m));
    }
}
