//! Regression pin for `FM_extract` byte-budget accounting.
//!
//! The budget counts **handler-delivered payload bytes** — never wire
//! frames. Pure ack/credit frames, suppressed duplicates, and
//! orphan-dropped packets must consume none of it, and a budget of `N`
//! never feeds handlers more than `N` payload bytes plus one packet of
//! boundary slack.

use std::cell::Cell;
use std::rc::Rc;

use fm_core::device::{LoopbackDevice, LoopbackPair, NetDevice};
use fm_core::packet::{FmPacket, HandlerId, PacketFlags, PacketHeader};
use fm_core::{Fm2Engine, FmError, FmStream};
use fm_model::MachineProfile;

const H: HandlerId = HandlerId(1);

fn engines() -> (Fm2Engine<LoopbackDevice>, Fm2Engine<LoopbackDevice>) {
    let (a, b) = LoopbackPair::new(64);
    let p = MachineProfile::ppro200_fm2();
    (Fm2Engine::new(a, p), Fm2Engine::new(b, p))
}

fn deliver(s: &Fm2Engine<LoopbackDevice>, r: &Fm2Engine<LoopbackDevice>) {
    s.with_device(|da| r.with_device(|db| LoopbackPair::deliver(da, db)));
}

/// Count full messages (and their bytes) delivered to the handler.
fn counting_handler(fm: &Fm2Engine<LoopbackDevice>) -> (Rc<Cell<usize>>, Rc<Cell<usize>>) {
    let msgs = Rc::new(Cell::new(0usize));
    let bytes = Rc::new(Cell::new(0usize));
    let (m, b) = (Rc::clone(&msgs), Rc::clone(&bytes));
    fm.set_handler(H, move |stream: FmStream, _src| {
        let (m, b) = (Rc::clone(&m), Rc::clone(&b));
        async move {
            let data = stream.receive_vec(stream.msg_len()).await;
            m.set(m.get() + 1);
            b.set(b.get() + data.len());
        }
    });
    (msgs, bytes)
}

#[test]
fn budget_paces_payload_bytes_with_one_packet_slack() {
    const MSGS: usize = 20;
    const SIZE: usize = 4096; // 4 packets on the 1024 B FM 2.x MTU
    const BUDGET: usize = 1500;
    let mtu = MachineProfile::ppro200_fm2().fm.mtu_payload;

    let (s, r) = engines();
    let (msgs, _bytes) = counting_handler(&r);
    let data = vec![0x42u8; SIZE];

    let mut sent = 0usize;
    let mut sum = 0usize;
    let mut spins = 0;
    while msgs.get() < MSGS {
        while sent < MSGS && s.try_send_message(1, H, &[&data]).is_ok() {
            sent += 1;
        }
        s.extract_all(); // credit returns
        deliver(&s, &r);
        let n = r.extract(BUDGET);
        // The pacing pin: one extract call never exceeds the budget by
        // more than the packet that crossed the boundary.
        assert!(n <= BUDGET + mtu, "extract returned {n} on budget {BUDGET}");
        sum += n;
        deliver(&s, &r);
        spins += 1;
        assert!(
            spins < 10_000,
            "budgeted drain wedged at {} msgs",
            msgs.get()
        );
    }

    // Budget accounting is exact payload bytes: headers, credit-only
    // frames, and protocol overhead never inflate the count.
    assert_eq!(sum, MSGS * SIZE, "sum of extract returns");
    assert!(r.take_errors().is_empty());
}

#[test]
fn ack_only_frames_drain_without_consuming_budget() {
    let (a, b) = LoopbackPair::lossy(64);
    let p = MachineProfile::ppro200_fm2();
    let s = Fm2Engine::new(a, p);
    let r = Fm2Engine::new(b, p);
    let (msgs, _) = counting_handler(&r);

    const N: usize = 5;
    for _ in 0..N {
        s.try_send_message(1, H, &[&[0x17u8; 512][..]])
            .expect("5 x 512 B fits the credit window");
    }
    deliver(&s, &r);
    r.extract_all(); // delivers data, emits acks
    assert_eq!(msgs.get(), N);
    deliver(&s, &r);

    // The sender's queue now holds only ACK frames. A budget of 1 must
    // still drain every one of them (they cost no budget) and report
    // zero handler-delivered bytes.
    assert!(s.unacked_packets() > 0, "acks should be pending");
    let n = s.extract(1);
    assert_eq!(n, 0, "ack frames must not count as delivered payload");
    assert_eq!(s.unacked_packets(), 0, "a tiny budget still drains acks");
}

/// Hand-craft a frame; `pkt_seq` must stay consecutive per source for
/// the in-order check, everything else is the test's to corrupt.
fn frame(msg_seq: u32, pkt_seq: u32, flags: PacketFlags, payload: Vec<u8>) -> FmPacket {
    FmPacket {
        header: PacketHeader {
            src: 0,
            dst: 1,
            handler: H,
            msg_seq,
            pkt_seq,
            msg_len: payload.len() as u32,
            flags,
            credits: 0,
            ack: 0,
        },
        payload: payload.into(),
    }
}

#[test]
fn orphan_packets_consume_no_budget() {
    const GOOD: usize = 10;
    const GOOD_SIZE: usize = 300;
    const ORPHAN_SIZE: usize = 1000;

    // Raw device on the sending side: the frames below never came from
    // an engine, so half of them can be orphans (no FIRST ever arrives
    // for their msg_seq — the receiver has no stream to append to).
    let (mut raw, b) = LoopbackPair::new(64);
    let r = Fm2Engine::new(b, MachineProfile::ppro200_fm2());
    let (msgs, bytes) = counting_handler(&r);

    let mut pkt_seq = 0u32;
    for i in 0..GOOD as u32 {
        raw.try_send(frame(
            i,
            pkt_seq,
            PacketFlags::FIRST | PacketFlags::LAST,
            vec![i as u8; GOOD_SIZE],
        ))
        .expect("queue valid frame");
        pkt_seq += 1;
        raw.try_send(frame(
            1000 + i,
            pkt_seq,
            PacketFlags::LAST,
            vec![0xEE; ORPHAN_SIZE],
        ))
        .expect("queue orphan frame");
        pkt_seq += 1;
    }
    r.with_device(|db| LoopbackPair::deliver(&mut raw, db));

    // Budget 1: each call must deliver exactly one 300-byte message
    // (one packet of slack past the budget) no matter how many orphan
    // frames it stepped over for free. If orphans consumed budget the
    // call would return 0 (stopped on the orphan) or 1000 (counted it).
    for call in 0..GOOD {
        let n = r.extract(1);
        assert_eq!(n, GOOD_SIZE, "extract call {call}");
    }
    assert_eq!(msgs.get(), GOOD);
    assert_eq!(bytes.get(), GOOD * GOOD_SIZE);

    // The trailing orphan is still queued (the last budgeted call
    // stopped at its good message): a final generous extract steps over
    // it and still finds no payload to deliver.
    assert_eq!(r.extract(usize::MAX), 0);

    // Every orphan was reported, not silently swallowed.
    let orphans = r
        .take_errors()
        .into_iter()
        .filter(|e| matches!(e, FmError::OrphanPacket { .. }))
        .count();
    assert_eq!(orphans, GOOD, "one error per orphan frame");
}
