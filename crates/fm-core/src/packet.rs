//! The FM wire packet.
//!
//! FM packetizes every message into MTU-bounded packets. The header carries
//! what the receive path needs to reassemble byte streams, dispatch
//! handlers, enforce in-order delivery, and return flow-control credits
//! without extra wire traffic (piggybacking).
//!
//! [`PacketHeader::encode`]/[`PacketHeader::decode`] define the concrete
//! 24-byte wire form of the header ([`HEADER_WIRE_BYTES`]) — the in-memory
//! struct is wider than the wire, so two fields are narrowed on encode
//! (handler to 16 bits, credits to 12 bits packed beside the 4 flag bits)
//! and the codec is fallible in both directions: headers that do not fit
//! and buffers that do not parse come back as
//! [`FmError::MalformedHeader`], never a panic.

use crate::buf::PacketBuf;
use crate::error::FmError;

/// Identifies a registered message handler on the receiving node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerId(pub u32);

/// Wire bytes occupied by the FM header plus Myrinet routing/CRC framing.
/// (FM's real header was ~4 words; routing bytes and CRC add the rest.)
pub const HEADER_WIRE_BYTES: u32 = 24;

/// Hard ceiling on one encoded FM wire packet (header + payload), shared
/// by the codec and every real transport that frames packets into
/// datagrams. Sized so a `fm-udp` transport frame (16-byte preamble +
/// packet) fits in the widest UDP payload an IPv4 datagram can carry
/// (65,535 − 20 IP − 8 UDP = 65,507 bytes): anything larger cannot cross
/// a real socket in one datagram, so [`FmPacket::encode_wire`] *rejects*
/// it instead of letting the socket layer silently truncate. Engines
/// never get close (their MTUs are 128–1024 bytes); the constant exists
/// to make the boundary explicit and testable.
pub const MAX_WIRE_FRAME: usize = 65_507 - 16;

/// Widest payload a single wire packet may carry under
/// [`MAX_WIRE_FRAME`].
pub const MAX_FRAME_PAYLOAD: usize = MAX_WIRE_FRAME - HEADER_WIRE_BYTES as usize;

/// Tiny local stand-in for the `bitflags` crate (not on the approved
/// dependency list) — just the operations the engine needs.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $( $(#[$fmeta:meta])* const $flag:ident = $val:expr; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name(pub $ty);
        impl $name {
            $( $(#[$fmeta])* pub const $flag: $name = $name($val); )*
            /// No flags set.
            pub const EMPTY: $name = $name(0);
            /// True if every flag in `other` is set in `self`.
            #[inline]
            pub fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }
            /// Union of two flag sets.
            #[inline]
            pub fn union(self, other: $name) -> $name {
                $name(self.0 | other.0)
            }
        }
        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { self.union(rhs) }
        }
    };
}

bitflags_lite! {
    /// Packet flags.
    pub struct PacketFlags: u8 {
        /// First packet of a message (header carries handler + length).
        const FIRST = 1;
        /// Last packet of a message.
        const LAST = 2;
        /// Carries no message data: exists only to return credits.
        const CREDIT_ONLY = 4;
        /// Carries no message data: exists only to carry a cumulative
        /// acknowledgement and, in the header words a message would use,
        /// a SACK bitmap (reliability sublayer, one-sided traffic).
        const ACK_ONLY = 8;
    }
}

/// The FM packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    /// Sending node.
    pub src: u16,
    /// Destination node.
    pub dst: u16,
    /// Handler to run at the destination (meaningful on FIRST packets).
    pub handler: HandlerId,
    /// Per-(src,dst) message sequence number; identifies which message a
    /// packet belongs to when packets of several messages interleave
    /// (FM 2.x streaming).
    pub msg_seq: u32,
    /// Per-(src,dst) packet sequence number; the receiver checks these for
    /// gaps — this is the in-order/reliability guarantee made observable.
    pub pkt_seq: u32,
    /// Total message payload length in bytes (meaningful on FIRST packets;
    /// FM 2.x's `FM_begin_message` takes the size up front).
    pub msg_len: u32,
    /// Packet flags.
    pub flags: PacketFlags,
    /// Piggybacked flow-control credits being returned to `dst`.
    pub credits: u16,
    /// Piggybacked cumulative acknowledgement: the sender of this packet
    /// has received every data packet from `dst` with `pkt_seq < ack`.
    /// Only meaningful in `Reliability::Retransmit` mode; 0 otherwise.
    /// Like `credits`, it rides inside [`HEADER_WIRE_BYTES`] — wire size
    /// and therefore timing are unchanged.
    pub ack: u32,
}

/// Union of all defined flag bits — anything outside is reserved and
/// rejected by [`PacketHeader::decode`].
const FLAGS_MASK: u8 = 0xF;
/// Widest credit count the 12-bit wire field can carry.
const MAX_WIRE_CREDITS: u16 = (1 << 12) - 1;

impl PacketHeader {
    /// Byte offsets within the 24-byte encoding (little-endian fields):
    /// `src:2 dst:2 handler:2 flags₄·credits₁₂:2 msg_seq:4 pkt_seq:4
    /// msg_len:4 ack:4`.
    const ENCODED_LEN: usize = HEADER_WIRE_BYTES as usize;

    /// Encode into the canonical 24-byte wire form.
    ///
    /// Fails (rather than truncating) when a field exceeds its wire width:
    /// handler ids above `u16::MAX` or credit counts above 4095. Both are
    /// far outside anything the engines produce — the check exists so the
    /// codec is total, not because the limits bind in practice.
    pub fn encode(&self) -> Result<[u8; HEADER_WIRE_BYTES as usize], FmError> {
        if self.handler.0 > u16::MAX as u32 {
            return Err(FmError::MalformedHeader {
                reason: "handler id exceeds 16-bit wire field",
            });
        }
        if self.credits > MAX_WIRE_CREDITS {
            return Err(FmError::MalformedHeader {
                reason: "credit count exceeds 12-bit wire field",
            });
        }
        if self.flags.0 & !FLAGS_MASK != 0 {
            return Err(FmError::MalformedHeader {
                reason: "reserved flag bits set",
            });
        }
        Self::validate_flags(self.flags)?;
        let mut out = [0u8; Self::ENCODED_LEN];
        out[0..2].copy_from_slice(&self.src.to_le_bytes());
        out[2..4].copy_from_slice(&self.dst.to_le_bytes());
        out[4..6].copy_from_slice(&(self.handler.0 as u16).to_le_bytes());
        let packed = ((self.flags.0 as u16) << 12) | self.credits;
        out[6..8].copy_from_slice(&packed.to_le_bytes());
        out[8..12].copy_from_slice(&self.msg_seq.to_le_bytes());
        out[12..16].copy_from_slice(&self.pkt_seq.to_le_bytes());
        out[16..20].copy_from_slice(&self.msg_len.to_le_bytes());
        out[20..24].copy_from_slice(&self.ack.to_le_bytes());
        Ok(out)
    }

    /// Decode a header from the first 24 bytes of `buf`.
    ///
    /// Rejects truncated buffers and structurally impossible flag
    /// combinations (a packet cannot be both credit-only and ack-only, and
    /// a service packet carries no data-framing flags) as
    /// [`FmError::MalformedHeader`]. Any accepted buffer re-encodes to the
    /// same 24 bytes (the encoding is canonical).
    pub fn decode(buf: &[u8]) -> Result<PacketHeader, FmError> {
        let Some(b) = buf.get(..Self::ENCODED_LEN) else {
            return Err(FmError::MalformedHeader {
                reason: "truncated: fewer than 24 header bytes",
            });
        };
        let le16 = |i: usize| u16::from_le_bytes([b[i], b[i + 1]]);
        let le32 = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let packed = le16(6);
        let flags = PacketFlags((packed >> 12) as u8);
        Self::validate_flags(flags)?;
        Ok(PacketHeader {
            src: le16(0),
            dst: le16(2),
            handler: HandlerId(le16(4) as u32),
            msg_seq: le32(8),
            pkt_seq: le32(12),
            msg_len: le32(16),
            flags,
            credits: packed & MAX_WIRE_CREDITS,
            ack: le32(20),
        })
    }

    fn validate_flags(flags: PacketFlags) -> Result<(), FmError> {
        let service =
            flags.contains(PacketFlags::CREDIT_ONLY) || flags.contains(PacketFlags::ACK_ONLY);
        if flags.contains(PacketFlags::CREDIT_ONLY) && flags.contains(PacketFlags::ACK_ONLY) {
            return Err(FmError::MalformedHeader {
                reason: "packet cannot be both credit-only and ack-only",
            });
        }
        if service && (flags.contains(PacketFlags::FIRST) || flags.contains(PacketFlags::LAST)) {
            return Err(FmError::MalformedHeader {
                reason: "service packet carries data-framing flags",
            });
        }
        Ok(())
    }
}

/// A full FM packet: header plus payload bytes.
///
/// The payload is a [`PacketBuf`]: a refcounted window into a pooled
/// frame (or a plain `Vec` for cold paths). Cloning a packet copies the
/// 24-byte header and bumps a refcount — payload bytes never move —
/// which is what makes the retransmission ring and multi-layer handoff
/// copy-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FmPacket {
    /// The header.
    pub header: PacketHeader,
    /// Message payload carried by this packet (empty for CREDIT_ONLY).
    pub payload: PacketBuf,
}

impl FmPacket {
    /// Bytes this packet occupies on the wire.
    pub fn wire_bytes(&self) -> u32 {
        HEADER_WIRE_BYTES + self.payload.len() as u32
    }

    /// A credit-only packet returning `credits` from `src` to `dst`.
    pub fn credit_only(src: u16, dst: u16, credits: u16) -> FmPacket {
        FmPacket {
            header: PacketHeader {
                src,
                dst,
                handler: HandlerId(0),
                msg_seq: 0,
                pkt_seq: 0, // credit packets sit outside the data sequence
                msg_len: 0,
                flags: PacketFlags::CREDIT_ONLY,
                credits,
                ack: 0,
            },
            payload: PacketBuf::empty(),
        }
    }

    /// An ack-only packet carrying the cumulative acknowledgement `ack`
    /// from `src` to `dst` (reliability sublayer; sent when there is no
    /// reverse data traffic to piggyback on).
    pub fn ack_only(src: u16, dst: u16, ack: u32) -> FmPacket {
        FmPacket::ack_sack(src, dst, ack, 0)
    }

    /// An ack-only packet that also says which packets past the
    /// cumulative ack the sender of this frame already holds: bit `i` of
    /// `sack` stands for `pkt_seq == ack + i` (selective acknowledgement;
    /// zero means a plain cumulative ack). The bitmap rides in the two
    /// header words an ack-only frame has no other use for — `msg_seq`
    /// the low half, `msg_len` the high half — so the frame is no longer
    /// than a plain ack.
    pub fn ack_sack(src: u16, dst: u16, ack: u32, sack: u64) -> FmPacket {
        FmPacket {
            header: PacketHeader {
                src,
                dst,
                handler: HandlerId(0),
                msg_seq: sack as u32,
                pkt_seq: 0, // ack packets sit outside the data sequence
                msg_len: (sack >> 32) as u32,
                flags: PacketFlags::ACK_ONLY,
                credits: 0,
                ack,
            },
            payload: PacketBuf::empty(),
        }
    }

    /// The SACK bitmap this packet carries (see
    /// [`ack_sack`](Self::ack_sack)). Only an ack-only frame has one: on
    /// anything else those header words describe a message and the answer
    /// is zero, whatever they hold.
    pub fn sack(&self) -> u64 {
        if self.header.flags.contains(PacketFlags::ACK_ONLY) {
            self.header.msg_seq as u64 | (self.header.msg_len as u64) << 32
        } else {
            0
        }
    }

    /// Encode the full packet (header + payload) into its canonical wire
    /// frame, the form real transports put on a socket.
    ///
    /// Fails — like [`PacketHeader::encode`], rather than truncating —
    /// when the packet would exceed [`MAX_WIRE_FRAME`] and therefore
    /// could not cross a UDP socket in one datagram.
    pub fn encode_wire(&self) -> Result<Vec<u8>, FmError> {
        let mut out = vec![0u8; HEADER_WIRE_BYTES as usize + self.payload.len()];
        let n = self.encode_into(&mut out)?;
        debug_assert_eq!(n, out.len());
        Ok(out)
    }

    /// Encode the full packet **in place**: header and payload are
    /// written directly into the front of `out` (a pool frame on the hot
    /// path) and the encoded length is returned. No intermediate
    /// allocation — this is the gather-send half of the zero-copy
    /// datapath.
    ///
    /// Fails when the packet would exceed [`MAX_WIRE_FRAME`] (same
    /// refusal as [`encode_wire`](Self::encode_wire)) or when `out` is
    /// too small to hold the frame.
    pub fn encode_into(&self, out: &mut [u8]) -> Result<usize, FmError> {
        if self.payload.len() > MAX_FRAME_PAYLOAD {
            return Err(FmError::MalformedHeader {
                reason: "packet exceeds MAX_WIRE_FRAME",
            });
        }
        let total = HEADER_WIRE_BYTES as usize + self.payload.len();
        let Some(dst) = out.get_mut(..total) else {
            return Err(FmError::MalformedHeader {
                reason: "output buffer smaller than encoded frame",
            });
        };
        dst[..HEADER_WIRE_BYTES as usize].copy_from_slice(&self.header.encode()?);
        dst[HEADER_WIRE_BYTES as usize..].copy_from_slice(&self.payload);
        Ok(total)
    }

    /// Decode a full packet from a wire frame produced by
    /// [`FmPacket::encode_wire`]: the first 24 bytes are the header,
    /// everything after is the payload. Rejects frames longer than
    /// [`MAX_WIRE_FRAME`] (they cannot have come from `encode_wire`) and
    /// anything the header codec rejects.
    ///
    /// This form copies the payload out of `buf`. Receive paths that
    /// already hold the frame in a [`PacketBuf`] should use
    /// [`decode_from_buf`](Self::decode_from_buf), which does not.
    pub fn decode_wire(buf: &[u8]) -> Result<FmPacket, FmError> {
        if buf.len() > MAX_WIRE_FRAME {
            return Err(FmError::MalformedHeader {
                reason: "frame exceeds MAX_WIRE_FRAME",
            });
        }
        let header = PacketHeader::decode(buf)?;
        Ok(FmPacket {
            header,
            payload: PacketBuf::from(buf[HEADER_WIRE_BYTES as usize..].to_vec()),
        })
    }

    /// Decode a full packet **zero-copy** from a frame already living in
    /// a [`PacketBuf`] (the buffer a transport's receive loop filled):
    /// the returned packet's payload is a refcounted sub-window of
    /// `frame`, so no payload byte moves. Same rejections as
    /// [`decode_wire`](Self::decode_wire).
    pub fn decode_from_buf(frame: &PacketBuf) -> Result<FmPacket, FmError> {
        if frame.len() > MAX_WIRE_FRAME {
            return Err(FmError::MalformedHeader {
                reason: "frame exceeds MAX_WIRE_FRAME",
            });
        }
        let header = PacketHeader::decode(frame)?;
        Ok(FmPacket {
            header,
            payload: frame.slice(
                HEADER_WIRE_BYTES as usize,
                frame.len() - HEADER_WIRE_BYTES as usize,
            ),
        })
    }

    /// True if this packet carries message data (i.e. participates in the
    /// data packet sequence).
    pub fn is_data(&self) -> bool {
        !self.header.flags.contains(PacketFlags::CREDIT_ONLY)
            && !self.header.flags.contains(PacketFlags::ACK_ONLY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_behave() {
        let f = PacketFlags::FIRST | PacketFlags::LAST;
        assert!(f.contains(PacketFlags::FIRST));
        assert!(f.contains(PacketFlags::LAST));
        assert!(!f.contains(PacketFlags::CREDIT_ONLY));
        assert!(PacketFlags::EMPTY.contains(PacketFlags::EMPTY));
        assert!(!PacketFlags::EMPTY.contains(PacketFlags::FIRST));
    }

    #[test]
    fn wire_bytes_includes_header() {
        let p = FmPacket {
            header: PacketHeader {
                src: 0,
                dst: 1,
                handler: HandlerId(3),
                msg_seq: 0,
                pkt_seq: 0,
                msg_len: 100,
                flags: PacketFlags::FIRST,
                credits: 0,
                ack: 0,
            },
            payload: vec![0u8; 100].into(),
        };
        assert_eq!(p.wire_bytes(), 124);
        assert!(p.is_data());
    }

    #[test]
    fn credit_only_packets() {
        let p = FmPacket::credit_only(2, 5, 7);
        assert_eq!(p.header.src, 2);
        assert_eq!(p.header.dst, 5);
        assert_eq!(p.header.credits, 7);
        assert!(p.header.flags.contains(PacketFlags::CREDIT_ONLY));
        assert!(!p.is_data());
        assert_eq!(p.wire_bytes(), HEADER_WIRE_BYTES);
    }

    #[test]
    fn header_roundtrips_through_wire_form() {
        let h = PacketHeader {
            src: 3,
            dst: 917,
            handler: HandlerId(65_535),
            msg_seq: 0xDEAD_BEEF,
            pkt_seq: 7,
            msg_len: 1 << 20,
            flags: PacketFlags::FIRST | PacketFlags::LAST,
            credits: 4095,
            ack: u32::MAX,
        };
        let wire = h.encode().unwrap();
        assert_eq!(wire.len(), HEADER_WIRE_BYTES as usize);
        assert_eq!(PacketHeader::decode(&wire).unwrap(), h);
        // Extra trailing bytes (the payload) do not confuse decode.
        let mut framed = wire.to_vec();
        framed.extend_from_slice(b"payload");
        assert_eq!(PacketHeader::decode(&framed).unwrap(), h);
    }

    #[test]
    fn oversized_fields_fail_to_encode() {
        let mut h = FmPacket::credit_only(0, 1, 5).header;
        h.handler = HandlerId(1 << 16);
        assert!(matches!(
            h.encode(),
            Err(crate::FmError::MalformedHeader { .. })
        ));
        let mut h = FmPacket::credit_only(0, 1, 5).header;
        h.credits = 4096;
        assert!(matches!(
            h.encode(),
            Err(crate::FmError::MalformedHeader { .. })
        ));
    }

    #[test]
    fn truncated_and_contradictory_headers_are_rejected() {
        let wire = FmPacket::ack_only(0, 1, 9).header.encode().unwrap();
        for len in 0..wire.len() {
            assert!(
                PacketHeader::decode(&wire[..len]).is_err(),
                "accepted {len}-byte prefix"
            );
        }
        // credit-only + ack-only is impossible on the wire.
        let mut bad = wire;
        bad[7] |= 0xC0; // both service bits in the flags nibble
        assert!(PacketHeader::decode(&bad).is_err());
    }

    #[test]
    fn wire_frame_roundtrips_and_rejects_oversize() {
        let p = FmPacket {
            header: PacketHeader {
                src: 1,
                dst: 2,
                handler: HandlerId(9),
                msg_seq: 3,
                pkt_seq: 4,
                msg_len: 5,
                flags: PacketFlags::FIRST,
                credits: 0,
                ack: 0,
            },
            payload: b"frame me".to_vec().into(),
        };
        let wire = p.encode_wire().unwrap();
        assert_eq!(wire.len(), p.wire_bytes() as usize);
        assert_eq!(FmPacket::decode_wire(&wire).unwrap(), p);

        // Exactly at the boundary: fine.
        let mut max = p.clone();
        max.payload = vec![0xAA; MAX_FRAME_PAYLOAD].into();
        let wire = max.encode_wire().unwrap();
        assert_eq!(wire.len(), MAX_WIRE_FRAME);
        assert_eq!(FmPacket::decode_wire(&wire).unwrap(), max);

        // One byte over: rejected, never truncated.
        let mut over = p.clone();
        over.payload = vec![0xAA; MAX_FRAME_PAYLOAD + 1].into();
        assert!(matches!(
            over.encode_wire(),
            Err(crate::FmError::MalformedHeader { .. })
        ));
        let mut long = wire;
        long.push(0);
        assert!(matches!(
            FmPacket::decode_wire(&long),
            Err(crate::FmError::MalformedHeader { .. })
        ));
    }

    #[test]
    fn ack_only_packets() {
        let p = FmPacket::ack_only(3, 4, 17);
        assert_eq!(p.header.src, 3);
        assert_eq!(p.header.dst, 4);
        assert_eq!(p.header.ack, 17);
        assert!(p.header.flags.contains(PacketFlags::ACK_ONLY));
        assert!(!p.is_data());
        assert_eq!(p.wire_bytes(), HEADER_WIRE_BYTES);
        assert_eq!(p.sack(), 0, "a plain cumulative ack");
    }

    #[test]
    fn sack_bitmap_rides_in_an_ack_only_frame_and_nowhere_else() {
        let sack = 0x8000_0001_4000_0006u64;
        let p = FmPacket::ack_sack(3, 4, 17, sack);
        assert_eq!(p.header.ack, 17);
        assert_eq!(p.sack(), sack);
        assert_eq!(p.wire_bytes(), HEADER_WIRE_BYTES, "no longer than an ack");
        let back = FmPacket::decode_wire(&p.encode_wire().unwrap()).unwrap();
        assert_eq!(back.sack(), sack);
        // The same two words on a data or credit frame are not a bitmap.
        let mut data = back.clone();
        data.header.flags = PacketFlags::FIRST | PacketFlags::LAST;
        assert_eq!(data.sack(), 0);
        let mut credit = back;
        credit.header.flags = PacketFlags::CREDIT_ONLY;
        assert_eq!(credit.sack(), 0);
    }
}
