//! The fm-udp datagram frame: a fixed preamble in front of the canonical
//! FM wire packet.
//!
//! Every datagram starts with a 16-byte preamble —
//!
//! ```text
//! magic:4  version:1  kind:1  src_node:2  epoch:8     (little-endian)
//! ```
//!
//! — followed by a kind-specific body:
//!
//! * [`FrameKind::Data`] — the canonical FM wire packet
//!   ([`FmPacket::encode_wire`]: 24-byte header + payload), exactly the
//!   codec pinned by `fm-core/tests/header_codec.rs`. Nothing is
//!   re-encoded per transport; the UDP frame is the simulator's wire
//!   bytes with an envelope.
//! * [`FrameKind::Hello`] — the sender's membership view: a
//!   length-prefixed bitmap of the peers it has heard from this
//!   incarnation, plus the incarnation epoch it last heard from each of
//!   them. Hellos serve as join beacons, straggler replies, *and* the
//!   ongoing liveness heartbeat once the run is underway.
//! * [`FrameKind::Train`] — several FM wire packets to the same peer in
//!   one datagram: a sequence of `len:2 (LE)` + wire-packet records.
//!   Small-message streams are syscall-bound on a real socket, and a
//!   train amortizes one `sendto`/`recvfrom` pair over the whole run of
//!   frames the out-queue had ready for that destination.
//! * [`FrameKind::Goodbye`] — a graceful-leave announcement (preamble
//!   only). Receivers take the sender straight to `Down` without waiting
//!   out the suspicion timeout.
//!
//! The `epoch` stamps the **sender's own incarnation**: a restarted
//! process announces itself with a new epoch, and datagrams from its
//! previous life (still buffered in a socket, or from a stale process on
//! a reused port) carry the old epoch and are rejected instead of
//! corrupting sequence state. Which epoch is current for a peer is the
//! receiving device's membership state, not a preamble-level constant —
//! [`decode_preamble`] validates the envelope and *returns* the epoch
//! for the device to judge. `src_node` is checked against the static
//! peer map — a frame must come from the address the map binds that
//! node to.
//!
//! Size discipline: [`MAX_DATAGRAM`] = [`PREAMBLE_BYTES`] +
//! [`fm_core::MAX_WIRE_FRAME`] is exactly the widest UDP payload an IPv4
//! datagram can carry (65,507 bytes), so any packet the shared codec
//! accepts fits in one datagram and anything larger was already rejected
//! by [`FmPacket::encode_wire`] — never truncated on the socket.

use fm_core::{FmError, FmPacket, PacketBuf, MAX_WIRE_FRAME};

/// Frame magic: `"FMU2"` little-endian.
pub const MAGIC: u32 = 0x3255_4D46;

/// Wire-format version; bumped on any preamble or body change.
/// v3: per-sender incarnation epochs, length-prefixed hello bitmap
/// (clusters beyond 64 nodes), per-peer epochs in the hello body, and
/// the `Goodbye` frame kind.
pub const VERSION: u8 = 3;

/// Widest cluster a hello body will name. Far below what the datagram
/// ceiling admits (a 4096-node body is ~33 KB); a bound this side of
/// absurd keeps a corrupt count from driving a huge allocation.
pub const MAX_CLUSTER: usize = 4096;

/// Bytes of preamble in front of every frame body.
pub const PREAMBLE_BYTES: usize = 16;

/// Bytes of per-record header inside a [`FrameKind::Train`] body (the
/// record's body length as a little-endian u16).
pub const TRAIN_RECORD_HEADER: usize = 2;

/// Widest datagram fm-udp ever sends or accepts. Equals the IPv4 UDP
/// payload ceiling, by construction of [`fm_core::MAX_WIRE_FRAME`].
pub const MAX_DATAGRAM: usize = PREAMBLE_BYTES + MAX_WIRE_FRAME;

// The shared codec constant and this preamble must keep summing to the
// IPv4 UDP payload ceiling; if either changes, this fails to compile.
const _: () = assert!(MAX_DATAGRAM == 65_507);

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An FM wire packet (header + payload).
    Data,
    /// A membership beacon (join barrier + liveness heartbeat) carrying
    /// the sender's seen-bitmap and per-peer epochs.
    Hello,
    /// Several FM wire packets as length-prefixed records.
    Train,
    /// A graceful-leave announcement; body is empty.
    Goodbye,
}

/// A decoded preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preamble {
    /// Frame kind.
    pub kind: FrameKind,
    /// Sending node id.
    pub src_node: u16,
    /// Cluster incarnation stamp.
    pub epoch: u64,
}

/// Write the 16-byte preamble into the front of `out`.
///
/// # Panics
/// If `out` is shorter than [`PREAMBLE_BYTES`].
fn write_preamble(out: &mut [u8], kind: FrameKind, src_node: u16, epoch: u64) {
    out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    out[4] = VERSION;
    out[5] = match kind {
        FrameKind::Data => 0,
        FrameKind::Hello => 1,
        FrameKind::Train => 2,
        FrameKind::Goodbye => 3,
    };
    out[6..8].copy_from_slice(&src_node.to_le_bytes());
    out[8..16].copy_from_slice(&epoch.to_le_bytes());
}

fn put_preamble(out: &mut Vec<u8>, kind: FrameKind, src_node: u16, epoch: u64) {
    let start = out.len();
    out.resize(start + PREAMBLE_BYTES, 0);
    write_preamble(&mut out[start..], kind, src_node, epoch);
}

/// Decode and validate a preamble. Epoch is **returned, not judged**:
/// whether the frame's incarnation is current for its sender is
/// per-peer membership state that only the device holds. `&'static str`
/// errors name the rejection reason for the stats counter.
pub fn decode_preamble(buf: &[u8]) -> Result<Preamble, &'static str> {
    let Some(b) = buf.get(..PREAMBLE_BYTES) else {
        return Err("short frame: fewer than 16 preamble bytes");
    };
    if u32::from_le_bytes([b[0], b[1], b[2], b[3]]) != MAGIC {
        return Err("bad magic");
    }
    if b[4] != VERSION {
        return Err("version mismatch");
    }
    let kind = match b[5] {
        0 => FrameKind::Data,
        1 => FrameKind::Hello,
        2 => FrameKind::Train,
        3 => FrameKind::Goodbye,
        _ => return Err("unknown frame kind"),
    };
    let src_node = u16::from_le_bytes([b[6], b[7]]);
    let epoch = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
    Ok(Preamble {
        kind,
        src_node,
        epoch,
    })
}

/// Encode a data frame: preamble + canonical FM wire packet. Fails (never
/// truncates) when the packet exceeds [`fm_core::MAX_WIRE_FRAME`].
pub fn encode_data_frame(pkt: &FmPacket, src_node: u16, epoch: u64) -> Result<Vec<u8>, FmError> {
    let wire = pkt.encode_wire()?;
    let mut out = Vec::with_capacity(PREAMBLE_BYTES + wire.len());
    put_preamble(&mut out, FrameKind::Data, src_node, epoch);
    out.extend_from_slice(&wire);
    Ok(out)
}

/// Encode a data frame **in place** into a pooled frame: preamble and
/// canonical FM wire packet are written directly into `frame`'s storage
/// and the window is set to the encoded length — no intermediate `Vec`.
/// This is the send half of the zero-copy datapath at the UDP boundary.
///
/// Same refusal as [`encode_data_frame`] for oversize packets. Also
/// fails when `frame` is too small ([`fm_core::BufPool`] frames sized at
/// [`MAX_DATAGRAM`] always fit by construction).
///
/// # Panics
/// If `frame` is shared or detached — encoding needs the frame writable.
pub fn encode_data_frame_into(
    pkt: &FmPacket,
    src_node: u16,
    epoch: u64,
    frame: &mut PacketBuf,
) -> Result<usize, FmError> {
    let buf = frame
        .frame_mut()
        .expect("encode_data_frame_into needs a uniquely-owned frame");
    if buf.len() < PREAMBLE_BYTES {
        return Err(FmError::MalformedHeader {
            reason: "output frame smaller than the preamble",
        });
    }
    let n = pkt.encode_into(&mut buf[PREAMBLE_BYTES..])?;
    write_preamble(buf, FrameKind::Data, src_node, epoch);
    let total = PREAMBLE_BYTES + n;
    frame.set_window(0, total);
    Ok(total)
}

/// Decode the body of a [`FrameKind::Data`] frame (everything after the
/// preamble) through the shared packet codec.
pub fn decode_data_body(body: &[u8]) -> Result<FmPacket, FmError> {
    FmPacket::decode_wire(body)
}

/// Decode a whole data frame **zero-copy** from the [`PacketBuf`] the
/// receive loop filled: the returned packet's payload is a refcounted
/// sub-window of `frame` — no payload byte moves. The caller has already
/// validated the preamble with [`decode_preamble`].
pub fn decode_data_frame_buf(frame: &PacketBuf) -> Result<FmPacket, FmError> {
    if frame.len() < PREAMBLE_BYTES {
        return Err(FmError::MalformedHeader {
            reason: "short frame: fewer than 16 preamble bytes",
        });
    }
    let body = frame.slice(PREAMBLE_BYTES, frame.len() - PREAMBLE_BYTES);
    FmPacket::decode_from_buf(&body)
}

/// Start a [`FrameKind::Train`] datagram in `out` (appends the preamble;
/// the caller clears and reuses the buffer across flushes, so a steady
/// stream of trains costs no allocation).
pub fn begin_train(out: &mut Vec<u8>, src_node: u16, epoch: u64) {
    put_preamble(out, FrameKind::Train, src_node, epoch);
}

/// Append one wire-packet record (`len:2` + body) to a train under
/// construction. `body` is a frame's bytes *after* its own preamble.
///
/// # Panics
/// If `body` exceeds what the u16 length prefix can carry —
/// [`fm_core::MAX_WIRE_FRAME`] is below that by construction, so hitting
/// this is a codec bug, not an operational condition.
pub fn push_train_record(out: &mut Vec<u8>, body: &[u8]) {
    let len = u16::try_from(body.len()).expect("train record exceeds u16 length prefix");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(body);
}

/// Bounds of the train record starting at byte `off` of the datagram:
/// `Some(Ok((body_start, body_len)))`, `None` exactly at the end, or an
/// error naming the corruption (after which the walk cannot resync).
pub fn next_train_record(buf: &[u8], off: usize) -> Option<Result<(usize, usize), &'static str>> {
    if off >= buf.len() {
        return None;
    }
    let Some(hdr) = buf.get(off..off + TRAIN_RECORD_HEADER) else {
        return Some(Err("truncated train record header"));
    };
    let len = u16::from_le_bytes([hdr[0], hdr[1]]) as usize;
    let start = off + TRAIN_RECORD_HEADER;
    if start + len > buf.len() {
        return Some(Err("train record overruns the datagram"));
    }
    Some(Ok((start, len)))
}

/// Encode a hello frame carrying the sender's membership view:
/// `peer_epochs[i]` is `Some(e)` when the sender has heard from node `i`
/// this incarnation, most recently at incarnation epoch `e` (the
/// sender's own slot carries its own epoch).
///
/// Body layout, little-endian throughout:
///
/// ```text
/// count:2 | bitmap: ceil(count/8) bytes | epoch:8 per set bit, ascending
/// ```
///
/// The length-prefixed bitmap is what lifts the former 64-node
/// `seen_mask: u64` cluster cap; epochs ride only for seen peers, so a
/// sparse view stays small.
///
/// The frame replaces whatever `out` held, in its existing capacity: a
/// device that keeps one buffer beacons its heartbeats without touching
/// the allocator.
///
/// # Panics
/// If `peer_epochs` names more than [`MAX_CLUSTER`] nodes — the device
/// constructor refuses such peer maps long before a hello is built.
pub fn encode_hello(out: &mut Vec<u8>, src_node: u16, epoch: u64, peer_epochs: &[Option<u64>]) {
    let count = peer_epochs.len();
    assert!(count <= MAX_CLUSTER, "peer map exceeds MAX_CLUSTER");
    let bitmap_bytes = count.div_ceil(8);
    out.clear();
    put_preamble(out, FrameKind::Hello, src_node, epoch);
    out.extend_from_slice(&(count as u16).to_le_bytes());
    let bitmap_at = out.len();
    out.resize(bitmap_at + bitmap_bytes, 0);
    for (i, e) in peer_epochs.iter().enumerate() {
        if let Some(e) = e {
            out[bitmap_at + i / 8] |= 1 << (i % 8);
            out.extend_from_slice(&e.to_le_bytes());
        }
    }
}

/// Decode the body of a [`FrameKind::Hello`] frame back into the
/// sender's per-peer view, written over `view` in its existing capacity:
/// `None` = unseen, `Some(epoch)` = seen at that incarnation. On an error
/// `view` is left as it was.
pub fn decode_hello_body(body: &[u8], view: &mut Vec<Option<u64>>) -> Result<(), &'static str> {
    let Some(c) = body.get(..2) else {
        return Err("short hello body");
    };
    let count = u16::from_le_bytes([c[0], c[1]]) as usize;
    if count > MAX_CLUSTER {
        return Err("hello names an absurd cluster");
    }
    let bitmap_bytes = count.div_ceil(8);
    let Some(bitmap) = body.get(2..2 + bitmap_bytes) else {
        return Err("hello bitmap truncated");
    };
    let seen = bitmap
        .iter()
        .map(|b| b.count_ones() as usize)
        .sum::<usize>();
    // Ghost bits past `count` would desynchronize the epoch walk.
    if bitmap
        .last()
        .is_some_and(|&b| !count.is_multiple_of(8) && b >> (count % 8) != 0)
    {
        return Err("hello bitmap sets bits past its count");
    }
    let epochs = &body[2 + bitmap_bytes..];
    if epochs.len() != 8 * seen {
        return Err("hello epoch list does not match its bitmap");
    }
    view.clear();
    view.resize(count, None);
    let mut at = 0;
    for (i, slot) in view.iter_mut().enumerate() {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            let e: [u8; 8] = epochs[at..at + 8].try_into().expect("length checked");
            *slot = Some(u64::from_le_bytes(e));
            at += 8;
        }
    }
    Ok(())
}

/// Encode a [`FrameKind::Goodbye`] frame (preamble only): the sender is
/// leaving this incarnation gracefully.
pub fn encode_goodbye(src_node: u16, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(PREAMBLE_BYTES);
    put_preamble(&mut out, FrameKind::Goodbye, src_node, epoch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::packet::{HandlerId, PacketFlags, PacketHeader};

    fn pkt() -> FmPacket {
        FmPacket {
            header: PacketHeader {
                src: 0,
                dst: 1,
                handler: HandlerId(3),
                msg_seq: 5,
                pkt_seq: 6,
                msg_len: 4,
                flags: PacketFlags::FIRST | PacketFlags::LAST,
                credits: 0,
                ack: 9,
            },
            payload: b"ping".to_vec().into(),
        }
    }

    #[test]
    fn data_frame_roundtrips() {
        let p = pkt();
        let frame = encode_data_frame(&p, 0, 0xE90C).unwrap();
        let pre = decode_preamble(&frame).unwrap();
        assert_eq!(pre.kind, FrameKind::Data);
        assert_eq!(pre.src_node, 0);
        assert_eq!(pre.epoch, 0xE90C);
        let back = decode_data_body(&frame[PREAMBLE_BYTES..]).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn pooled_data_frame_roundtrips_zero_copy() {
        let pool = fm_core::BufPool::new(MAX_DATAGRAM, 4);
        let p = pkt();
        let mut frame = pool.take();
        let n = encode_data_frame_into(&p, 0, 0xE90C, &mut frame).unwrap();
        assert_eq!(n, frame.len());
        // Byte-identical to the allocating encoder.
        assert_eq!(&frame[..], &encode_data_frame(&p, 0, 0xE90C).unwrap()[..]);
        let pre = decode_preamble(&frame).unwrap();
        assert_eq!(pre.kind, FrameKind::Data);
        let back = decode_data_frame_buf(&frame).unwrap();
        assert_eq!(back, p);
        // The decoded payload is a view into the frame, not a copy: it
        // pins the frame so the pool cannot recycle it yet.
        drop(frame);
        assert_eq!(pool.free_frames(), 0, "payload view still pins the frame");
        drop(back);
        assert_eq!(pool.free_frames(), 1, "last owner recycles");
    }

    #[test]
    fn pooled_encode_refuses_oversize_and_short_frames() {
        let pool = fm_core::BufPool::new(MAX_DATAGRAM, 4);
        let mut p = pkt();
        p.payload = vec![0; fm_core::MAX_FRAME_PAYLOAD + 1].into();
        let mut frame = pool.take();
        assert!(encode_data_frame_into(&p, 0, 0, &mut frame).is_err());
        // A frame too small for even the preamble is refused, not panicked.
        let tiny = fm_core::BufPool::new(8, 1);
        let mut small = tiny.take();
        assert!(encode_data_frame_into(&pkt(), 0, 0, &mut small).is_err());
    }

    #[test]
    fn train_roundtrips_several_packets_zero_copy() {
        let pool = fm_core::BufPool::new(MAX_DATAGRAM, 4);
        let mut train = Vec::new();
        begin_train(&mut train, 0, 0xE90C);
        let mut pkts = Vec::new();
        for i in 0..3u32 {
            let mut p = pkt();
            p.header.pkt_seq = i;
            push_train_record(&mut train, &p.encode_wire().unwrap());
            pkts.push(p);
        }
        // Receive side: the datagram lands in one pooled frame, each
        // record decodes as a view into it.
        let mut frame = pool.take();
        frame.extend_from_slice(&train);
        let pre = decode_preamble(&frame).unwrap();
        assert_eq!(pre.kind, FrameKind::Train);
        let mut off = PREAMBLE_BYTES;
        let mut got = Vec::new();
        while let Some(rec) = next_train_record(&frame, off) {
            let (start, len) = rec.unwrap();
            off = start + len;
            got.push(FmPacket::decode_from_buf(&frame.slice(start, len)).unwrap());
        }
        assert_eq!(got, pkts);
        drop(frame);
        assert_eq!(pool.free_frames(), 0, "record views pin the datagram frame");
        drop(got);
        assert_eq!(pool.free_frames(), 1);
    }

    #[test]
    fn corrupt_trains_fail_without_panicking() {
        let mut train = Vec::new();
        begin_train(&mut train, 0, 1);
        push_train_record(&mut train, &pkt().encode_wire().unwrap());
        // A record whose length overruns the datagram.
        let mut overrun = train.clone();
        let at = overrun.len();
        overrun.extend_from_slice(&500u16.to_le_bytes());
        overrun.extend_from_slice(&[0; 4]);
        let first = next_train_record(&overrun, PREAMBLE_BYTES)
            .unwrap()
            .unwrap();
        assert!(next_train_record(&overrun, at).unwrap().is_err());
        assert_eq!(first.0, PREAMBLE_BYTES + TRAIN_RECORD_HEADER);
        // A lone trailing byte cannot even hold a record header.
        let mut ragged = train;
        ragged.push(0xFF);
        let first = next_train_record(&ragged, PREAMBLE_BYTES).unwrap().unwrap();
        assert!(next_train_record(&ragged, first.0 + first.1)
            .unwrap()
            .is_err());
    }

    fn hello(src_node: u16, epoch: u64, view: &[Option<u64>]) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_hello(&mut frame, src_node, epoch, view);
        frame
    }

    fn decode_hello(body: &[u8]) -> Result<Vec<Option<u64>>, &'static str> {
        let mut view = Vec::new();
        decode_hello_body(body, &mut view).map(|()| view)
    }

    #[test]
    fn hello_frame_roundtrips() {
        let view = vec![Some(11), None, Some(13), Some(7)];
        let frame = hello(3, 7, &view);
        let pre = decode_preamble(&frame).unwrap();
        assert_eq!(pre.kind, FrameKind::Hello);
        assert_eq!(pre.src_node, 3);
        assert_eq!(pre.epoch, 7);
        assert_eq!(decode_hello(&frame[PREAMBLE_BYTES..]), Ok(view));
    }

    #[test]
    fn hello_bitmap_scales_past_64_nodes() {
        // Regression for the former `seen_mask: u64` cluster cap: a
        // 321-node view survives the wire, sparse slots and all.
        let view: Vec<Option<u64>> = (0..321)
            .map(|i| (i % 3 != 1).then_some(0x1000 + i as u64))
            .collect();
        let frame = hello(320, 0x1140, &view);
        assert!(frame.len() < MAX_DATAGRAM);
        assert_eq!(decode_hello(&frame[PREAMBLE_BYTES..]), Ok(view));
        // An all-unseen view of the widest legal cluster also fits.
        let empty = vec![None; MAX_CLUSTER];
        let frame = hello(0, 1, &empty);
        assert_eq!(decode_hello(&frame[PREAMBLE_BYTES..]), Ok(empty));
    }

    #[test]
    fn corrupt_hello_bodies_are_rejected() {
        let view = vec![Some(5), None, Some(9)];
        let frame = hello(0, 5, &view);
        let body = &frame[PREAMBLE_BYTES..];
        assert!(decode_hello(&body[..1]).is_err(), "short count");
        assert!(decode_hello(&body[..2]).is_err(), "bitmap truncated");
        assert!(
            decode_hello(&body[..body.len() - 1]).is_err(),
            "epoch list truncated"
        );
        let mut absurd = body.to_vec();
        absurd[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode_hello(&absurd).is_err(), "absurd count");
        let mut ghost = body.to_vec();
        ghost[2] |= 1 << 7; // bit past count=3
        assert!(decode_hello(&ghost).is_err(), "ghost bit past count");
    }

    #[test]
    fn goodbye_frames_roundtrip() {
        let frame = encode_goodbye(2, 0xBEEF);
        assert_eq!(frame.len(), PREAMBLE_BYTES);
        let pre = decode_preamble(&frame).unwrap();
        assert_eq!(pre.kind, FrameKind::Goodbye);
        assert_eq!(pre.src_node, 2);
        assert_eq!(pre.epoch, 0xBEEF);
    }

    #[test]
    fn garbage_preambles_are_rejected_but_epochs_pass_through() {
        let frame = hello(0, 1, &[Some(1)]);
        // Epoch is returned for the device to judge, not rejected here.
        assert_eq!(decode_preamble(&frame).unwrap().epoch, 1);
        assert!(decode_preamble(&frame[..10]).is_err(), "truncated");
        let mut bad = frame.clone();
        bad[0] ^= 0xFF;
        assert!(decode_preamble(&bad).is_err(), "bad magic");
        let mut wrong_ver = frame.clone();
        wrong_ver[4] = VERSION + 1;
        assert!(decode_preamble(&wrong_ver).is_err(), "future version");
        let mut old_ver = frame.clone();
        old_ver[4] = 2;
        assert!(
            decode_preamble(&old_ver).is_err(),
            "v2 peers are incompatible (hello body + epoch semantics changed)"
        );
        let mut wrong_kind = frame;
        wrong_kind[5] = 9;
        assert!(decode_preamble(&wrong_kind).is_err(), "unknown kind");
    }

    #[test]
    fn oversize_packets_never_encode_into_frames() {
        let mut p = pkt();
        p.payload = vec![0; fm_core::MAX_FRAME_PAYLOAD + 1].into();
        assert!(encode_data_frame(&p, 0, 0).is_err());
        // At the exact boundary the frame is exactly MAX_DATAGRAM.
        p.payload = vec![0; fm_core::MAX_FRAME_PAYLOAD].into();
        let frame = encode_data_frame(&p, 0, 0).unwrap();
        assert_eq!(frame.len(), MAX_DATAGRAM);
    }
}
