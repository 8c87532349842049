//! What fm-udp does with datagrams: it sends every frame the engine
//! hands it, and it survives any datagram it is sent.
//!
//! The device reads an FM header for its `src`/`dst` alone; acks, SACK
//! bitmaps and credits are FM's business above the seam, so frames of
//! each kind queued to one peer all cross, in queue order. The decoder
//! fuzz feeds the wire decoders random bytes and bit, byte and length
//! mutations of valid data, train, hello and goodbye frames (seeded;
//! `PROPTEST_CASES` sets the number of cases, 1024 inputs each), and a
//! live pair takes a spray of such datagrams without losing or bending a
//! packet of its own.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use fm_core::device::NetDevice;
use fm_core::packet::{HandlerId, PacketFlags, PacketHeader};
use fm_core::{FmPacket, PacketBuf};
use fm_model::rng::{env_cases, DetRng};
use fm_udp::wire::{self, FrameKind, PREAMBLE_BYTES};
use fm_udp::{loopback_cluster, UdpConfig, UdpDevice};

fn data(src: u16, dst: u16, seq: u32, payload: Vec<u8>) -> FmPacket {
    FmPacket {
        header: PacketHeader {
            src,
            dst,
            handler: HandlerId(0),
            msg_seq: seq,
            pkt_seq: seq,
            msg_len: payload.len() as u32,
            flags: PacketFlags::FIRST | PacketFlags::LAST,
            credits: 0,
            ack: 0,
        },
        payload: payload.into(),
    }
}

/// A standalone ack, a fresher one with a SACK bitmap, a credit and a
/// data packet, queued to one peer in one poll: all four frames cross,
/// in queue order.
#[test]
fn every_queued_frame_crosses_in_queue_order() {
    let mut devs = loopback_cluster(2, UdpConfig::default()).unwrap();
    let mut b = devs.pop().unwrap();
    let mut a = devs.pop().unwrap();
    a.try_send(FmPacket::ack_only(0, 1, 5)).unwrap();
    a.try_send(FmPacket::ack_sack(0, 1, 6, 0b100)).unwrap();
    a.try_send(FmPacket::credit_only(0, 1, 3)).unwrap();
    a.try_send(data(0, 1, 0, vec![7])).unwrap();
    let _ = a.try_recv(); // flush the batch
    assert_eq!(a.stats().frames_sent, 4, "no frame was dropped");
    assert_eq!(a.stats().acks_coalesced, 0);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut got = Vec::new();
    while got.len() < 4 {
        assert!(Instant::now() < deadline, "4 frames within 5s");
        got.extend(b.try_recv());
    }
    assert_eq!((got[0].header.ack, got[0].sack()), (5, 0));
    assert_eq!((got[1].header.ack, got[1].sack()), (6, 0b100));
    assert_eq!(got[2].header.credits, 3);
    assert_eq!(got[3].payload, vec![7]);
}

/// A random packet of one of the four kinds the engines send.
fn random_packet(rng: &mut DetRng, src: u16, dst: u16) -> FmPacket {
    match rng.below(4) {
        0 => FmPacket::ack_only(src, dst, rng.next_u64() as u32),
        1 => FmPacket::ack_sack(src, dst, rng.next_u64() as u32, rng.next_u64()),
        2 => FmPacket::credit_only(src, dst, rng.below(4096) as u16),
        _ => {
            let len = rng.range_usize(0, 48);
            data(src, dst, rng.next_u64() as u32, rng.bytes(len))
        }
    }
}

/// A valid frame of a kind `rng` picks, as a device would send it.
fn valid_frame(rng: &mut DetRng, src: u16, dst: u16) -> Vec<u8> {
    let epoch = rng.below(3);
    match rng.below(4) {
        0 => wire::encode_data_frame(&random_packet(rng, src, dst), src, epoch).unwrap(),
        1 => {
            let mut out = Vec::new();
            wire::begin_train(&mut out, src, epoch);
            for _ in 0..rng.range_usize(1, 5) {
                let body = random_packet(rng, src, dst).encode_wire().unwrap();
                wire::push_train_record(&mut out, &body);
            }
            out
        }
        2 => {
            let view: Vec<Option<u64>> = (0..rng.range_usize(1, 9))
                .map(|_| rng.chance(0.7).then(|| rng.below(3)))
                .collect();
            let mut out = Vec::new();
            wire::encode_hello(&mut out, src, epoch, &view);
            out
        }
        _ => wire::encode_goodbye(src, epoch),
    }
}

/// One to three bit flips, byte overwrites, truncations or extensions.
fn mutate(rng: &mut DetRng, frame: &mut Vec<u8>) {
    for _ in 0..rng.range_usize(1, 4) {
        let at = rng.below(frame.len() as u64) as usize;
        match rng.below(4) {
            0 if !frame.is_empty() => frame[at] ^= 1 << rng.below(8),
            1 if !frame.is_empty() => frame[at] = rng.next_u64() as u8,
            2 => frame.truncate(at),
            _ => {
                let tail = rng.range_usize(1, 9);
                frame.extend(rng.bytes(tail));
            }
        }
    }
}

/// Run every decoder over `bytes`, whatever its preamble says, and
/// return the frame's kind if the decoder for that kind accepted it.
fn decode_all(bytes: &[u8], view: &mut Vec<Option<u64>>) -> Option<FrameKind> {
    let frame = PacketBuf::from(bytes);
    let kind = wire::decode_preamble(&frame).map(|p| p.kind);
    let data = wire::decode_data_frame_buf(&frame).is_ok();
    let mut train = true;
    let mut off = PREAMBLE_BYTES;
    while let Some(rec) = wire::next_train_record(&frame, off) {
        let Ok((start, len)) = rec else {
            train = false;
            break;
        };
        off = start + len;
        train &= FmPacket::decode_from_buf(&frame.slice(start, len)).is_ok();
    }
    let body = frame.get(PREAMBLE_BYTES..).unwrap_or(&[]);
    let hello = wire::decode_hello_body(body, view).is_ok();
    let kind = kind.ok()?;
    let accepted = match kind {
        FrameKind::Data => data,
        FrameKind::Train => train && off > PREAMBLE_BYTES,
        FrameKind::Hello => hello,
        FrameKind::Goodbye => true,
    };
    accepted.then_some(kind)
}

/// No input panics a decoder, every unmutated frame decodes as its own
/// kind, and mutated frames reach past the preamble into every body
/// decoder (uniform random bytes alone never pass the magic).
#[test]
fn the_wire_decoders_survive_random_and_mutated_frames() {
    let mut view = Vec::new();
    let mut mutated_accepted = Vec::new();
    let cases = env_cases(64);
    for case in 0..cases as u64 {
        let mut rng = DetRng::seed_from_u64(0xF022 ^ case.wrapping_mul(0x9E37_79B9));
        for _ in 0..1024 {
            let (src, dst) = (rng.below(8) as u16, rng.below(8) as u16);
            match rng.below(8) {
                0 => {
                    let len = rng.range_usize(0, 160);
                    decode_all(&rng.bytes(len), &mut view);
                }
                1 => {
                    let frame = valid_frame(&mut rng, src, dst);
                    let want = wire::decode_preamble(&frame).unwrap().kind;
                    let got = decode_all(&frame, &mut view);
                    assert_eq!(got, Some(want), "a valid frame decodes: {frame:?}");
                }
                _ => {
                    let mut frame = valid_frame(&mut rng, src, dst);
                    mutate(&mut rng, &mut frame);
                    mutated_accepted.extend(decode_all(&frame, &mut view));
                }
            }
        }
    }
    // Dozens a case of each kind (thousands at the default count).
    for kind in [
        FrameKind::Data,
        FrameKind::Train,
        FrameKind::Hello,
        FrameKind::Goodbye,
    ] {
        let n = mutated_accepted.iter().filter(|&&k| k == kind).count();
        assert!(n > cases, "{n} mutated {kind:?} frames decoded");
    }
}

/// A live pair takes a spray of fuzzed datagrams, from a stranger's
/// socket (rejected at the address check) and from a member's address
/// with no device behind it (past it, into the decoders and membership):
/// every packet of the pair's own stream still arrives, intact and in
/// order, and the device counts what it refused.
#[test]
fn a_spray_of_fuzzed_datagrams_leaves_a_pairs_own_stream_intact() {
    let sockets: Vec<UdpSocket> = (0..3)
        .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<_> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
    let [a, b, member] = <[UdpSocket; 3]>::try_from(sockets).unwrap();
    let dev = |s, node| UdpDevice::from_socket(s, node, peers.clone(), UdpConfig::default());
    let (mut a, mut b) = (dev(a, 0).unwrap(), dev(b, 1).unwrap());
    let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut rng = DetRng::seed_from_u64(0x5924);
    const N: u32 = 200;
    let sent = |k: u32| data(1, 0, k, (0..1 + k % 40).map(|i| (k + i) as u8).collect());
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut got = Vec::new();
    for k in 0.. {
        if k < N {
            b.try_send(sent(k)).unwrap();
            for _ in 0..10 {
                let mut frame = valid_frame(&mut rng, 2, 0);
                mutate(&mut rng, &mut frame);
                let from = if rng.chance(0.5) { &member } else { &stranger };
                from.send_to(&frame, a.local_addr()).unwrap();
            }
        } else if got.len() == N as usize || Instant::now() > deadline {
            break;
        }
        let _ = b.try_recv();
        // Read until the socket is dry (no retransmission under a raw
        // device), taking the membership turns the spray causes: they
        // gate `try_recv`.
        loop {
            while a.poll_event().is_some() {}
            let Some(p) = a.try_recv() else { break };
            got.extend((p.header.src == 1).then_some(p));
        }
    }
    let want: Vec<FmPacket> = (0..N).map(sent).collect();
    assert_eq!(got, want, "the pair's own stream, whole and in order");
    let s = a.stats();
    assert!(s.frames_rejected >= 1000, "most of 2000 refused: {s:?}");
    // And the member's datagrams did reach the deep paths: some of its
    // hellos and packets decoded and were taken.
    assert!(
        s.hellos_received > 0 && s.frames_received > N as u64,
        "{s:?}"
    );
}
