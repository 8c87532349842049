//! Property-test battery for the 24-byte wire header codec.
//!
//! The codec is the one place where a byte-level mistake silently
//! corrupts every message, so it gets the full treatment: seeded random
//! round-trips over the whole legal field space, canonical re-encoding,
//! and a negative battery covering each documented rejection reason.
//! Case count follows `PROPTEST_CASES` (see `fm_model::rng::env_cases`).

use fm_core::error::FmError;
use fm_core::packet::{
    FmPacket, HandlerId, PacketFlags, PacketHeader, HEADER_WIRE_BYTES, MAX_FRAME_PAYLOAD,
    MAX_WIRE_FRAME,
};
use fm_model::rng::{env_cases, DetRng};

/// Every flag combination the validator accepts.
fn legal_flag_sets() -> Vec<PacketFlags> {
    vec![
        PacketFlags::EMPTY,
        PacketFlags::FIRST,
        PacketFlags::LAST,
        PacketFlags::FIRST | PacketFlags::LAST,
        PacketFlags::CREDIT_ONLY,
        PacketFlags::ACK_ONLY,
    ]
}

fn random_header(rng: &mut DetRng) -> PacketHeader {
    let flags = legal_flag_sets()[rng.range_usize(0, legal_flag_sets().len())];
    PacketHeader {
        src: rng.next_u64() as u16,
        dst: rng.next_u64() as u16,
        handler: HandlerId(rng.below(u16::MAX as u64 + 1) as u32),
        msg_seq: rng.next_u64() as u32,
        pkt_seq: rng.next_u64() as u32,
        msg_len: rng.next_u64() as u32,
        flags,
        credits: rng.below(1 << 12) as u16,
        ack: rng.next_u64() as u32,
    }
}

#[test]
fn prop_roundtrip_preserves_every_field() {
    let cases = env_cases(512);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0xC0DE_C000 ^ case as u64);
        let h = random_header(&mut rng);
        let wire = h.encode().expect("legal header encodes");
        assert_eq!(wire.len(), HEADER_WIRE_BYTES as usize);
        let back = PacketHeader::decode(&wire).expect("own encoding decodes");
        assert_eq!(back, h, "case {case}: round-trip must be lossless");
    }
}

#[test]
fn prop_encoding_is_canonical() {
    // Any buffer that decodes successfully re-encodes to the same bytes:
    // there are no two wire forms for one header.
    let cases = env_cases(512);
    let mut accepted = 0u32;
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0xCA_0000 ^ ((case as u64) << 8));
        let buf = rng.bytes(HEADER_WIRE_BYTES as usize);
        if let Ok(h) = PacketHeader::decode(&buf) {
            accepted += 1;
            let re = h.encode().expect("decoded header re-encodes");
            assert_eq!(re.as_slice(), buf.as_slice(), "case {case}: not canonical");
        }
    }
    // Random flag nibbles are legal often enough that silence here would
    // mean the property never actually ran.
    assert!(accepted > 0, "no random buffer decoded — property vacuous");
}

#[test]
fn prop_decode_never_panics_on_arbitrary_bytes() {
    let cases = env_cases(512);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0xF077_0000_u64 ^ case as u64);
        let len = rng.range_usize(0, 64);
        let buf = rng.bytes(len);
        let _ = PacketHeader::decode(&buf); // must return, not panic
    }
}

#[test]
fn truncated_buffers_are_rejected_at_every_length() {
    let h = PacketHeader {
        src: 0,
        dst: 1,
        handler: HandlerId(1),
        msg_seq: 0,
        pkt_seq: 0,
        msg_len: 16,
        flags: PacketFlags::FIRST | PacketFlags::LAST,
        credits: 0,
        ack: 0,
    };
    let wire = h.encode().unwrap();
    for len in 0..wire.len() {
        match PacketHeader::decode(&wire[..len]) {
            Err(FmError::MalformedHeader { .. }) => {}
            other => panic!("len {len}: expected MalformedHeader, got {other:?}"),
        }
    }
    // Extra trailing bytes are fine — the header is a prefix.
    let mut long = wire.to_vec();
    long.extend_from_slice(&[0xEE; 8]);
    assert_eq!(PacketHeader::decode(&long).unwrap(), h);
}

#[test]
fn contradictory_flag_combinations_are_rejected() {
    let base = PacketHeader {
        src: 0,
        dst: 1,
        handler: HandlerId(1),
        msg_seq: 0,
        pkt_seq: 0,
        msg_len: 0,
        flags: PacketFlags::EMPTY,
        credits: 0,
        ack: 0,
    };
    for bad in [
        PacketFlags::CREDIT_ONLY | PacketFlags::ACK_ONLY,
        PacketFlags::CREDIT_ONLY | PacketFlags::FIRST,
        PacketFlags::ACK_ONLY | PacketFlags::LAST,
        PacketFlags::CREDIT_ONLY | PacketFlags::FIRST | PacketFlags::LAST,
    ] {
        let h = PacketHeader { flags: bad, ..base };
        assert!(
            matches!(h.encode(), Err(FmError::MalformedHeader { .. })),
            "flags {bad:?} must not encode"
        );
        // The same combination arriving off the wire is rejected too.
        let mut wire = PacketHeader {
            flags: PacketFlags::EMPTY,
            ..base
        }
        .encode()
        .unwrap();
        wire[7] = (wire[7] & 0x0F) | (bad.0 << 4); // flags ride the top nibble
        assert!(
            matches!(
                PacketHeader::decode(&wire),
                Err(FmError::MalformedHeader { .. })
            ),
            "flags {bad:?} must not decode"
        );
    }
}

#[test]
fn prop_sack_bitmaps_roundtrip_in_ack_only_frames_and_nowhere_else() {
    // An ack-only frame carries a 64-bit SACK bitmap in the two header
    // words a message would use. The property: every bitmap survives the
    // wire in a frame no longer than a plain ack; and on any other kind
    // of frame those words are never read as a bitmap — whatever bytes
    // arrive, a data or credit frame acknowledges selectively nothing.
    let cases = env_cases(512);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x5AC_0000_u64 ^ case as u64);
        // Sparse, dense and edge bitmaps all occur.
        let sack = match case % 4 {
            0 => rng.next_u64(),
            1 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
            2 => 1 << rng.below(64),
            _ => [0, 1, 1 << 63, u64::MAX][rng.range_usize(0, 4)],
        };
        let (src, dst, ack) = (
            rng.next_u64() as u16,
            rng.next_u64() as u16,
            rng.next_u64() as u32,
        );
        let pkt = FmPacket::ack_sack(src, dst, ack, sack);
        let wire = pkt.encode_wire().expect("an ack frame encodes");
        assert_eq!(wire.len(), HEADER_WIRE_BYTES as usize, "case {case}");
        let back = FmPacket::decode_wire(&wire).expect("own encoding decodes");
        assert_eq!(back, pkt, "case {case}");
        assert_eq!(back.sack(), sack, "case {case}: bitmap {sack:#x}");
        assert_eq!((back.header.ack, back.is_data()), (ack, false));
        if sack == 0 {
            assert_eq!(pkt, FmPacket::ack_only(src, dst, ack), "case {case}");
        }

        // The same 24 bytes with any other legal flag nibble: the words
        // are a message's sequence number and length again.
        for flags in legal_flag_sets() {
            let mut other = wire.clone();
            other[7] = (other[7] & 0x0F) | (flags.0 << 4);
            let decoded = FmPacket::decode_wire(&other).expect("legal flags decode");
            let is_ack = flags == PacketFlags::ACK_ONLY;
            assert_eq!(
                decoded.sack(),
                if is_ack { sack } else { 0 },
                "case {case}: flags {flags:?} carried a bitmap"
            );
        }
    }
}

#[test]
fn prop_wire_frames_roundtrip_and_oversize_is_an_error_not_a_truncation() {
    // The full-packet codec shares one size ceiling (MAX_WIRE_FRAME) with
    // every real transport. The property: any payload length up to the
    // ceiling round-trips byte-exactly; anything past it is *refused* on
    // both paths — an oversize packet never encodes into a frame, and an
    // oversize frame never decodes into a packet. Silent truncation on
    // either side would surface as corrupt message reassembly far away.
    let cases = env_cases(256);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0xF8A3_0000 ^ case as u64);
        let flags = legal_flag_sets()[rng.range_usize(0, legal_flag_sets().len())];
        let header = PacketHeader {
            src: rng.next_u64() as u16,
            dst: rng.next_u64() as u16,
            handler: HandlerId(rng.below(u16::MAX as u64 + 1) as u32),
            msg_seq: rng.next_u64() as u32,
            pkt_seq: rng.next_u64() as u32,
            msg_len: rng.next_u64() as u32,
            flags,
            credits: rng.below(1 << 12) as u16,
            ack: rng.next_u64() as u32,
        };
        // Bias toward the interesting region: mostly small, sometimes
        // within a few bytes of the ceiling on either side.
        let len = match rng.range_usize(0, 4) {
            0..=1 => rng.range_usize(0, 4 * 1024),
            2 => rng.range_usize(MAX_FRAME_PAYLOAD - 3, MAX_FRAME_PAYLOAD + 1),
            _ => rng.range_usize(MAX_FRAME_PAYLOAD + 1, MAX_FRAME_PAYLOAD + 512),
        };
        let pkt = FmPacket {
            header,
            payload: rng.bytes(len).into(),
        };
        if len <= MAX_FRAME_PAYLOAD {
            let wire = pkt.encode_wire().expect("legal frame encodes");
            assert!(wire.len() <= MAX_WIRE_FRAME);
            assert_eq!(wire.len(), HEADER_WIRE_BYTES as usize + len);
            let back = FmPacket::decode_wire(&wire).expect("own encoding decodes");
            assert_eq!(back, pkt, "case {case}: frame round-trip must be lossless");
        } else {
            assert!(
                matches!(pkt.encode_wire(), Err(FmError::MalformedHeader { .. })),
                "case {case}: payload {len} over the ceiling must refuse to encode"
            );
            // And a frame of that size arriving anyway is rejected whole.
            let mut wire = pkt.header.encode().expect("header alone is legal").to_vec();
            wire.extend_from_slice(&pkt.payload);
            assert!(
                matches!(
                    FmPacket::decode_wire(&wire),
                    Err(FmError::MalformedHeader { .. })
                ),
                "case {case}: oversize frame must refuse to decode"
            );
        }
    }
}

#[test]
fn prop_in_place_encoder_matches_the_allocating_encoder() {
    // `encode_into` is the hot-path twin of `encode_wire`: same packet,
    // same bytes, written into a caller-owned frame instead of a fresh
    // Vec. Any divergence would mean the pooled and unpooled paths speak
    // different dialects on the wire. `decode_from_buf` must then hand
    // back the packet with a zero-copy payload view into that frame.
    use fm_core::PacketBuf;
    let cases = env_cases(256);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x17_F1A7 ^ ((case as u64) << 16));
        let header = random_header(&mut rng);
        let len = rng.range_usize(0, 4 * 1024);
        let pkt = FmPacket {
            header,
            payload: rng.bytes(len).into(),
        };
        let alloc = pkt.encode_wire().expect("legal frame encodes");
        let mut frame = vec![0xA5u8; MAX_WIRE_FRAME];
        let n = pkt.encode_into(&mut frame).expect("same packet encodes");
        assert_eq!(n, alloc.len(), "case {case}: same encoded length");
        assert_eq!(&frame[..n], &alloc[..], "case {case}: same encoded bytes");
        assert_eq!(
            &frame[n..],
            &vec![0xA5u8; MAX_WIRE_FRAME - n][..],
            "case {case}: bytes past the frame untouched"
        );
        // Zero-copy decode out of a PacketBuf frame.
        let buf = PacketBuf::from(&frame[..n]);
        let back = FmPacket::decode_from_buf(&buf).expect("own encoding decodes");
        assert_eq!(back, pkt, "case {case}: in-place round trip lossless");
    }
}

#[test]
fn prop_encode_into_refuses_short_output_without_writing() {
    // A frame one byte too small must be refused whole — a partial write
    // into a pooled frame would leak stale bytes onto the wire when the
    // caller trusts the reported length.
    let cases = env_cases(128);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x5407_0000 ^ case as u64);
        let header = random_header(&mut rng);
        let len = rng.range_usize(0, 256);
        let pkt = FmPacket {
            header,
            payload: rng.bytes(len).into(),
        };
        let total = HEADER_WIRE_BYTES as usize + len;
        let short = rng.range_usize(0, total);
        let mut out = vec![0xEEu8; short];
        assert!(
            matches!(
                pkt.encode_into(&mut out),
                Err(FmError::MalformedHeader { .. })
            ),
            "case {case}: {short}-byte output for a {total}-byte frame"
        );
        assert_eq!(out, vec![0xEEu8; short], "case {case}: output untouched");
    }
}

#[test]
fn encode_into_refuses_oversize_packets_like_encode_wire() {
    let mut rng = DetRng::seed_from_u64(0x0E4_517E);
    let pkt = FmPacket {
        header: PacketHeader {
            src: 0,
            dst: 1,
            handler: HandlerId(1),
            msg_seq: 0,
            pkt_seq: 0,
            msg_len: 0,
            flags: PacketFlags::FIRST | PacketFlags::LAST,
            credits: 0,
            ack: 0,
        },
        payload: rng.bytes(MAX_FRAME_PAYLOAD + 1).into(),
    };
    let mut out = vec![0u8; MAX_WIRE_FRAME + 512];
    assert!(
        matches!(
            pkt.encode_into(&mut out),
            Err(FmError::MalformedHeader { .. })
        ),
        "oversize payload must be refused even with room to spare"
    );
}

#[test]
fn out_of_range_fields_fail_to_encode() {
    let base = PacketHeader {
        src: 2,
        dst: 3,
        handler: HandlerId(7),
        msg_seq: 1,
        pkt_seq: 2,
        msg_len: 3,
        flags: PacketFlags::FIRST,
        credits: 0,
        ack: 0,
    };
    let wide_handler = PacketHeader {
        handler: HandlerId(u16::MAX as u32 + 1),
        ..base
    };
    assert!(matches!(
        wide_handler.encode(),
        Err(FmError::MalformedHeader { .. })
    ));
    let wide_credits = PacketHeader {
        credits: 1 << 12,
        ..base
    };
    assert!(matches!(
        wide_credits.encode(),
        Err(FmError::MalformedHeader { .. })
    ));
    let reserved_flags = PacketHeader {
        flags: PacketFlags(0x10),
        ..base
    };
    assert!(matches!(
        reserved_flags.encode(),
        Err(FmError::MalformedHeader { .. })
    ));
}
