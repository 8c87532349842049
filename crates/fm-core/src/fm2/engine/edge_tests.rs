//! Edge cases of the engine face: loss, handler replacement, budgets,
//! counters and the observability record, each across send and extract.

use super::*;
use crate::device::{LoopbackDevice, LoopbackPair};

const H: HandlerId = HandlerId(1);

fn pair() -> (Fm2Engine<LoopbackDevice>, Fm2Engine<LoopbackDevice>) {
    let (a, b) = LoopbackPair::new(256);
    let p = MachineProfile::ppro200_fm2();
    (Fm2Engine::new(a, p), Fm2Engine::new(b, p))
}

fn deliver(a: &Fm2Engine<LoopbackDevice>, b: &Fm2Engine<LoopbackDevice>) {
    a.with_device(|da| b.with_device(|db| LoopbackPair::deliver(da, db)));
}

#[test]
fn dropped_first_packet_is_reported_as_orphan() {
    // TrustSubstrate mode: losing the FIRST packet of a multi-packet
    // message leaves the rest with no open stream — a sequence gap at
    // the next packet, then orphan reports for the in-sequence tail.
    let (s, r) = pair();
    let hits: Rc<RefCell<u32>> = Rc::default();
    {
        let h = Rc::clone(&hits);
        r.set_handler(H, move |stream: FmStream, _| {
            let h = Rc::clone(&h);
            async move {
                stream.skip(stream.msg_len()).await;
                *h.borrow_mut() += 1;
            }
        });
    }
    let mtu = s.profile().fm.mtu_payload;
    let big = vec![9u8; 3 * mtu];
    s.try_send_message(1, H, &[&big]).unwrap();
    s.with_device(|d| {
        let _ = d.out_remove_for_test(0); // lose FIRST in flight
    });
    deliver(&s, &r);
    r.extract_all();
    let errs = r.take_errors();
    assert!(errs
        .iter()
        .any(|e| matches!(e, FmError::SequenceGap { src: 0, .. })));
    assert!(errs
        .iter()
        .any(|e| matches!(e, FmError::OrphanPacket { src: 0, .. })));
    assert_eq!(r.stats().errors_reported, errs.len() as u64);
    assert_eq!(*hits.borrow(), 0, "no partial delivery");
}

#[test]
fn handler_replacement_takes_effect_for_new_messages() {
    let (s, r) = pair();
    let hits_a: Rc<RefCell<u32>> = Rc::default();
    let hits_b: Rc<RefCell<u32>> = Rc::default();
    {
        let h = Rc::clone(&hits_a);
        r.set_handler(H, move |stream: FmStream, _| {
            let h = Rc::clone(&h);
            async move {
                stream.skip(stream.msg_len()).await;
                *h.borrow_mut() += 1;
            }
        });
    }
    s.try_send_message(1, H, &[&[1u8][..]]).unwrap();
    deliver(&s, &r);
    r.extract_all();
    // Replace the handler; subsequent messages go to the new one.
    {
        let h = Rc::clone(&hits_b);
        r.set_handler(H, move |stream: FmStream, _| {
            let h = Rc::clone(&h);
            async move {
                stream.skip(stream.msg_len()).await;
                *h.borrow_mut() += 1;
            }
        });
    }
    s.try_send_message(1, H, &[&[2u8][..]]).unwrap();
    deliver(&s, &r);
    r.extract_all();
    assert_eq!((*hits_a.borrow(), *hits_b.borrow()), (1, 1));
}

#[test]
fn extract_budget_applies_to_local_messages_too() {
    let (a, _b) = pair();
    let count: Rc<RefCell<u32>> = Rc::default();
    {
        let c = Rc::clone(&count);
        a.set_handler(H, move |stream: FmStream, _| {
            let c = Rc::clone(&c);
            async move {
                stream.skip(stream.msg_len()).await;
                *c.borrow_mut() += 1;
            }
        });
    }
    for _ in 0..4 {
        a.try_send_message(0, H, &[&[9u8; 100][..]]).unwrap();
    }
    // A 100-byte budget admits exactly one local message per call.
    assert_eq!(a.extract(100), 100);
    assert_eq!(*count.borrow(), 1);
    a.extract(100);
    assert_eq!(*count.borrow(), 2);
    a.extract_all();
    assert_eq!(*count.borrow(), 4);
}

#[test]
fn send_stream_accessors_track_progress() {
    let (s, _r) = pair();
    let mut ss = s.begin_message(1, 2000, H);
    assert_eq!(ss.dst(), 1);
    assert_eq!(ss.msg_len(), 2000);
    assert_eq!(ss.bytes_remaining(), 2000);
    s.try_send_piece(&mut ss, &[0u8; 700]).unwrap();
    assert_eq!(ss.bytes_accepted(), 700);
    assert_eq!(ss.bytes_remaining(), 1300);
    assert!(!ss.is_ended());
    s.try_send_piece(&mut ss, &[0u8; 1300]).unwrap();
    s.try_end_message(&mut ss).unwrap();
    assert!(ss.is_ended());
    // Ending twice is a no-op.
    s.try_end_message(&mut ss).unwrap();
}

#[test]
fn stats_track_wire_and_message_counts() {
    let (s, r) = pair();
    recording(&r);
    s.try_send_message(1, H, &[&[1u8; 2500][..]]).unwrap(); // 3 packets
    s.try_send_message(1, H, &[&[2u8; 10][..]]).unwrap(); // 1 packet
    deliver(&s, &r);
    r.extract_all();
    let ss = s.stats();
    assert_eq!(ss.messages_sent, 2);
    assert_eq!(ss.packets_sent, 4);
    assert_eq!(ss.bytes_sent, 2510);
    let rs = r.stats();
    assert_eq!(rs.messages_received, 2);
    assert_eq!(rs.packets_received, 4);
    assert_eq!(rs.bytes_received, 2510);
    assert_eq!(rs.handlers_run, 2);
}

/// Install a skip-everything handler for stats tests.
fn recording(e: &Fm2Engine<LoopbackDevice>) {
    e.set_handler(H, |stream: FmStream, _| async move {
        stream.skip(stream.msg_len()).await;
    });
}

#[test]
fn obs_records_streaming_lifecycle_with_suspension() {
    use crate::obs::{ObsSink, SpanKind};
    let (s, r) = pair();
    assert!(s.obs().is_none(), "no sink by default");
    let sink_s = ObsSink::new(1024);
    let sink_r = ObsSink::new(1024);
    s.attach_obs(sink_s.clone());
    r.attach_obs(sink_r.clone());
    let done: Rc<RefCell<bool>> = Rc::default();
    {
        let d = Rc::clone(&done);
        r.set_handler(H, move |stream: FmStream, _| {
            let d = Rc::clone(&d);
            async move {
                stream.skip(stream.msg_len()).await;
                *d.borrow_mut() = true;
            }
        });
    }
    let mtu = s.profile().fm.mtu_payload;
    let data = vec![3u8; 2 * mtu + 10]; // 3 packets
    s.try_send_message(1, H, &[&data]).unwrap();
    // Deliver one packet at a time so the handler suspends mid-message.
    while s.with_device(|da| r.with_device(|db| LoopbackPair::deliver_one(da, db))) > 0 {
        r.extract_all();
    }
    assert!(*done.borrow());
    let sk: Vec<SpanKind> = sink_s.events().iter().map(|e| e.kind).collect();
    assert!(sk.contains(&SpanKind::BeginMessage));
    assert!(sk.contains(&SpanKind::SendPiece));
    assert_eq!(sk.iter().filter(|k| **k == SpanKind::PacketSend).count(), 3);
    assert!(sk.contains(&SpanKind::EndMessage));
    let rk: Vec<SpanKind> = sink_r.events().iter().map(|e| e.kind).collect();
    assert!(rk.contains(&SpanKind::HandlerStart));
    assert!(rk.contains(&SpanKind::HandlerSuspend), "handler waited");
    assert!(rk.contains(&SpanKind::HandlerResume), "and was resumed");
    assert!(rk.contains(&SpanKind::HandlerEnd));
    // Start → (suspend → resume)* → end, in that order.
    let start = rk
        .iter()
        .position(|k| *k == SpanKind::HandlerStart)
        .unwrap();
    let end = rk.iter().rposition(|k| *k == SpanKind::HandlerEnd).unwrap();
    let suspend = rk
        .iter()
        .position(|k| *k == SpanKind::HandlerSuspend)
        .unwrap();
    let resume = rk
        .iter()
        .position(|k| *k == SpanKind::HandlerResume)
        .unwrap();
    assert!(start < suspend && suspend < resume && resume < end);
}

#[test]
fn retransmit_window_bounds_streaming_sends() {
    use crate::reliable::{Reliability, RetransmitConfig};
    let (a, b) = LoopbackPair::new(256);
    let p = MachineProfile::ppro200_fm2();
    let cfg = RetransmitConfig { window: 4 };
    let s = Fm2Engine::with_reliability(a, p, Reliability::Retransmit(cfg));
    let r = Fm2Engine::with_reliability(b, p, Reliability::Retransmit(cfg));
    recording(&r);
    // A message bigger than the whole window streams through it.
    let mtu = p.fm.mtu_payload;
    let big = vec![7u8; 6 * mtu];
    let mut ss = s.begin_message(1, big.len(), H);
    let first = s.try_send_piece(&mut ss, &big).unwrap();
    assert!(first < big.len(), "window must close mid-message");
    assert!(s.stats().credit_stalls > 0);
    let mut sent = first;
    while sent < big.len() || s.try_end_message(&mut ss).is_err() {
        deliver(&s, &r);
        r.extract_all();
        deliver(&r, &s);
        s.extract_all();
        if sent < big.len() {
            sent += s.try_send_piece(&mut ss, &big[sent..]).unwrap_or(0);
        }
    }
    deliver(&s, &r);
    r.extract_all();
    assert_eq!(r.stats().messages_received, 1);
    assert_eq!(r.stats().bytes_received, big.len() as u64);
}
