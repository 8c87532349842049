//! The engine driven end to end: every case sends through `send.rs`,
//! delivers by hand and extracts through `exec.rs`, so these stay with
//! the type both halves hang off. Tests of one half alone sit beside it.

use super::*;
use crate::buf::PacketBuf;
use crate::device::{LoopbackDevice, LoopbackPair};
use crate::error::WouldBlock;
use crate::fm2::exec::{Handler, Took};
use crate::fm2::tasks::AsyncHandler;
use crate::fm2::{FmStream, PacketSink, SendStream, SinkMeta};

impl<D: NetDevice> Fm2Engine<D> {
    /// Test-only: the engine core, for a test that checks its per-peer
    /// records.
    pub(crate) fn with_core_for_test<R>(&self, f: impl FnOnce(&EngineCore<D>) -> R) -> R {
        f(&self.inner.borrow().core)
    }
}

const H: HandlerId = HandlerId(1);

fn profile() -> MachineProfile {
    MachineProfile::ppro200_fm2() // MTU 1024
}

fn pair() -> (
    Fm2Engine<LoopbackDevice>,
    Fm2Engine<LoopbackDevice>,
    DevicePump,
) {
    // Device capacity strictly above the credit window so tests
    // observe credit exhaustion, not queue exhaustion.
    let (a, b) = LoopbackPair::new(256);
    let ea = Fm2Engine::new(a, profile());
    let eb = Fm2Engine::new(b, profile());
    let pump = DevicePump {
        a: Rc::clone(&ea.inner),
        b: Rc::clone(&eb.inner),
    };
    (ea, eb, pump)
}

/// Moves packets between the two loopback devices (tests control
/// delivery granularity explicitly).
struct DevicePump {
    a: Rc<RefCell<Inner<LoopbackDevice>>>,
    b: Rc<RefCell<Inner<LoopbackDevice>>>,
}

impl DevicePump {
    fn deliver(&self) -> usize {
        LoopbackPair::deliver(
            &mut self.a.borrow_mut().core.device,
            &mut self.b.borrow_mut().core.device,
        )
    }
    fn deliver_one(&self) -> usize {
        LoopbackPair::deliver_one(
            &mut self.a.borrow_mut().core.device,
            &mut self.b.borrow_mut().core.device,
        )
    }
}

/// Handler that records (src, full message bytes) into a shared log,
/// reading the stream in `read_chunk`-sized receives.
type MsgLog = Rc<RefCell<Vec<(usize, Vec<u8>)>>>;

fn recording_handler(e: &Fm2Engine<LoopbackDevice>, id: HandlerId, read_chunk: usize) -> MsgLog {
    let log: MsgLog = Rc::default();
    let l = Rc::clone(&log);
    e.set_handler(id, move |stream: FmStream, src| {
        let l = Rc::clone(&l);
        async move {
            let mut msg = Vec::new();
            loop {
                let mut buf = vec![0u8; read_chunk];
                let n = stream.receive(&mut buf).await;
                msg.extend_from_slice(&buf[..n]);
                if n < read_chunk {
                    break;
                }
                if msg.len() >= stream.msg_len() {
                    break;
                }
            }
            l.borrow_mut().push((src, msg));
        }
    });
    log
}

#[test]
fn gather_send_scatter_receive_round_trip() {
    let (s, r, pump) = pair();
    let log = recording_handler(&r, H, 7); // deliberately odd read size
                                           // Gather from three differently-sized pieces.
    let header = [1u8, 2, 3, 4];
    let body: Vec<u8> = (0..100).collect();
    let trailer = [9u8; 5];
    s.try_send_message(1, H, &[&header, &body, &trailer])
        .unwrap();
    pump.deliver();
    r.extract_all();
    let expect: Vec<u8> = header
        .iter()
        .chain(body.iter())
        .chain(trailer.iter())
        .copied()
        .collect();
    assert_eq!(*log.borrow(), vec![(0, expect)]);
    assert_eq!(s.stats().messages_sent, 1);
    assert_eq!(r.stats().messages_received, 1);
    assert_eq!(r.stats().bytes_received, 109);
}

#[test]
fn piecewise_send_with_begin_piece_end() {
    let (s, r, pump) = pair();
    let log = recording_handler(&r, H, 64);
    let mut ss = s.begin_message(1, 10, H);
    assert_eq!(s.try_send_piece(&mut ss, &[0, 1, 2]).unwrap(), 3);
    assert_eq!(s.try_send_piece(&mut ss, &[3, 4, 5, 6, 7, 8]).unwrap(), 6);
    assert_eq!(s.try_send_piece(&mut ss, &[9]).unwrap(), 1);
    s.try_end_message(&mut ss).unwrap();
    assert!(ss.is_ended());
    pump.deliver();
    r.extract_all();
    assert_eq!(log.borrow()[0].1, (0..10).collect::<Vec<u8>>());
}

#[test]
fn multi_packet_message_streams() {
    let (s, r, pump) = pair();
    let log = recording_handler(&r, H, 500);
    let data: Vec<u8> = (0..3000u32).map(|i| (i % 256) as u8).collect();
    s.try_send_message(1, H, &[&data]).unwrap();
    assert_eq!(s.stats().packets_sent, 3, "3000 B / 1024 B MTU");
    pump.deliver();
    r.extract_all();
    assert_eq!(log.borrow()[0].1, data);
}

#[test]
fn handler_starts_on_first_packet_layer_interleaving() {
    // The defining FM 2.x behaviour: with only the first packet
    // delivered, the handler must already have run far enough to read
    // the header.
    let (s, r, pump) = pair();
    let header_seen: Rc<RefCell<Option<Vec<u8>>>> = Rc::default();
    let hs = Rc::clone(&header_seen);
    let done: Rc<RefCell<bool>> = Rc::default();
    let d = Rc::clone(&done);
    r.set_handler(H, move |stream: FmStream, _src| {
        let hs = Rc::clone(&hs);
        let d = Rc::clone(&d);
        async move {
            let mut hdr = [0u8; 8];
            stream.receive(&mut hdr).await;
            *hs.borrow_mut() = Some(hdr.to_vec());
            // Now consume the payload.
            let rest = stream.receive_vec(stream.msg_len() - 8).await;
            assert_eq!(rest.len(), stream.msg_len() - 8);
            *d.borrow_mut() = true;
        }
    });
    let data = vec![42u8; 2500]; // 3 packets
    s.try_send_message(1, H, &[&data]).unwrap();

    pump.deliver_one(); // only packet 1 (1024 B)
    r.extract_all();
    assert_eq!(
        header_seen.borrow().as_deref(),
        Some(&[42u8; 8][..]),
        "header read from the first packet alone"
    );
    assert!(!*done.borrow(), "payload not complete yet");
    assert_eq!(r.pending_handlers(), 1, "handler suspended in FM_receive");

    pump.deliver();
    r.extract_all();
    assert!(*done.borrow());
    assert_eq!(r.pending_handlers(), 0);
}

#[test]
fn interleaved_messages_multithread_handlers() {
    // Two concurrent send streams to the same receiver: their packets
    // interleave on the wire, and both handlers must reassemble their
    // own bytes.
    let (s, r, pump) = pair();
    let log = recording_handler(&r, H, 4096);
    let m1 = vec![1u8; 2048]; // 2 packets
    let m2 = vec![2u8; 2048];
    let mut s1 = s.begin_message(1, 2048, H);
    let mut s2 = s.begin_message(1, 2048, H);
    // Interleave piece submission.
    assert_eq!(s.try_send_piece(&mut s1, &m1[..1024]).unwrap(), 1024);
    assert_eq!(s.try_send_piece(&mut s2, &m2[..1024]).unwrap(), 1024);
    assert_eq!(s.try_send_piece(&mut s1, &m1[1024..]).unwrap(), 1024);
    assert_eq!(s.try_send_piece(&mut s2, &m2[1024..]).unwrap(), 1024);
    s.try_end_message(&mut s1).unwrap();
    s.try_end_message(&mut s2).unwrap();
    pump.deliver();
    r.extract_all();
    let log = log.borrow();
    assert_eq!(log.len(), 2);
    assert!(log.iter().any(|(_, m)| *m == m1));
    assert!(log.iter().any(|(_, m)| *m == m2));
}

#[test]
fn extract_budget_paces_the_receiver() {
    let (s, r, pump) = pair();
    let _log = recording_handler(&r, H, 4096);
    let data = vec![7u8; 4096]; // 4 packets
    s.try_send_message(1, H, &[&data]).unwrap();
    pump.deliver();
    // Budget of 1 byte still processes one whole packet (rounded to a
    // packet boundary).
    let n = r.extract(1);
    assert_eq!(n, 1024);
    assert_eq!(r.stats().packets_received, 1);
    // Budget of 2048 processes exactly two more.
    let n = r.extract(2048);
    assert_eq!(n, 2048);
    assert_eq!(r.stats().packets_received, 3);
    // The rest.
    r.extract_all();
    assert_eq!(r.stats().packets_received, 4);
    assert_eq!(r.stats().messages_received, 1);
}

#[test]
fn credits_exhaust_and_recover() {
    let (s, r, pump) = pair();
    let _log = recording_handler(&r, H, 64);
    let window = profile().fm.credits_per_peer;
    for _ in 0..window {
        s.try_send_message(1, H, &[&[1u8][..]]).unwrap();
    }
    assert_eq!(s.try_send_message(1, H, &[&[1u8][..]]), Err(WouldBlock));
    pump.deliver();
    r.extract_all();
    assert!(r.stats().credit_packets_sent > 0);
    pump.deliver();
    s.extract_all(); // absorb credit-only packets
    s.try_send_message(1, H, &[&[1u8][..]]).unwrap();
}

#[test]
fn send_piece_reports_partial_progress_on_credit_exhaustion() {
    let (s, _r, _pump) = pair();
    let window = profile().fm.credits_per_peer as usize;
    let mtu = profile().fm.mtu_payload;
    // A message larger than the whole credit window.
    let huge = vec![0u8; (window + 4) * mtu];
    let mut ss = s.begin_message(1, huge.len(), H);
    let accepted = s.try_send_piece(&mut ss, &huge).unwrap();
    // It accepted every byte it could stage: `window` packets flushed
    // plus one MTU still buffered in the stream.
    assert_eq!(accepted, window * mtu + mtu);
    assert_eq!(s.stats().packets_sent as usize, window);
    // No more can go: zero progress now reports WouldBlock.
    assert_eq!(
        s.try_send_piece(&mut ss, &huge[accepted..]),
        Err(WouldBlock)
    );
    assert!(s.stats().credit_stalls > 0);
}

#[test]
fn early_handler_return_discards_rest_of_message() {
    // A handler that reads only the header; the unread payload must be
    // discarded without corrupting the next message.
    let (s, r, pump) = pair();
    let headers: Rc<RefCell<Vec<u8>>> = Rc::default();
    let hs = Rc::clone(&headers);
    r.set_handler(H, move |stream: FmStream, _| {
        let hs = Rc::clone(&hs);
        async move {
            let mut h = [0u8; 1];
            stream.receive(&mut h).await;
            hs.borrow_mut().push(h[0]);
            // return without consuming the rest
        }
    });
    let big = vec![11u8; 3000];
    s.try_send_message(1, H, &[&big]).unwrap();
    s.try_send_message(1, H, &[&[22u8; 10][..]]).unwrap();
    pump.deliver();
    r.extract_all();
    assert_eq!(*headers.borrow(), vec![11, 22]);
    assert_eq!(r.stats().messages_received, 2);
    assert_eq!(r.pending_handlers(), 0, "no leaked tasks");
}

#[test]
fn skip_consumes_stream_without_copy() {
    let (s, r, pump) = pair();
    let tail: Rc<RefCell<Vec<u8>>> = Rc::default();
    let t = Rc::clone(&tail);
    r.set_handler(H, move |stream: FmStream, _| {
        let t = Rc::clone(&t);
        async move {
            stream.skip(2000).await;
            let rest = stream.receive_vec(stream.msg_len() - 2000).await;
            *t.borrow_mut() = rest;
        }
    });
    let mut data = vec![0u8; 2000];
    data.extend_from_slice(&[5, 6, 7]);
    s.try_send_message(1, H, &[&data]).unwrap();
    pump.deliver();
    let before = r.stats().bytes_copied;
    r.extract_all();
    assert_eq!(*tail.borrow(), vec![5, 6, 7]);
    assert_eq!(
        r.stats().bytes_copied - before,
        3,
        "only the received tail is copied"
    );
}

#[test]
fn handler_reply_ping_pong() {
    let (a, b, pump) = pair();
    let pong = recording_handler(&a, HandlerId(2), 64);
    b.set_handler(H, {
        let b = b.clone();
        move |stream: FmStream, src| {
            let b = b.clone();
            async move {
                let msg = stream.receive_vec(stream.msg_len()).await;
                let reply: Vec<u8> = msg.iter().map(|x| x + 1).collect();
                b.send_from_handler(src, HandlerId(2), reply);
            }
        }
    });
    a.try_send_message(1, H, &[&[1u8, 2, 3][..]]).unwrap();
    pump.deliver();
    b.extract_all(); // handler queues reply; progress flushes it
    pump.deliver();
    a.extract_all();
    assert_eq!(*pong.borrow(), vec![(1, vec![2, 3, 4])]);
}

#[test]
fn self_send_delivers_locally() {
    let (a, _b, _pump) = pair();
    let log = recording_handler(&a, H, 64);
    a.try_send_message(0, H, &[&[1u8, 2][..], &[3u8][..]])
        .unwrap();
    a.extract_all();
    assert_eq!(*log.borrow(), vec![(0, vec![1, 2, 3])]);
    assert_eq!(a.stats().packets_sent, 0, "no wire traffic");
    assert_eq!(a.stats().messages_received, 1);
}

#[test]
fn empty_message_runs_handler() {
    let (s, r, pump) = pair();
    let log = recording_handler(&r, H, 8);
    let mut ss = s.begin_message(1, 0, H);
    s.try_end_message(&mut ss).unwrap();
    pump.deliver();
    r.extract_all();
    assert_eq!(*log.borrow(), vec![(0, vec![])]);
}

#[test]
fn unknown_handler_becomes_sink_with_error() {
    let (s, r, pump) = pair();
    s.try_send_message(1, HandlerId(9), &[&[1u8; 2000][..]])
        .unwrap();
    s.try_send_message(1, H, &[&[5u8][..]]).unwrap();
    let log = recording_handler(&r, H, 8);
    pump.deliver();
    r.extract_all();
    let errs = r.take_errors();
    assert!(matches!(errs[0], FmError::UnknownHandler { handler: 9 }));
    // The following message is unaffected.
    assert_eq!(*log.borrow(), vec![(0, vec![5])]);
    assert_eq!(r.pending_handlers(), 0);
}

#[test]
#[should_panic(expected = "before supplying the declared")]
fn end_message_with_missing_bytes_panics() {
    let (s, _r, _pump) = pair();
    let mut ss = s.begin_message(1, 10, H);
    s.try_send_piece(&mut ss, &[1, 2, 3]).unwrap();
    let _ = s.try_end_message(&mut ss);
}

#[test]
#[should_panic(expected = "overflows the declared message length")]
fn piece_overflow_panics() {
    let (s, _r, _pump) = pair();
    let mut ss = s.begin_message(1, 2, H);
    let _ = s.try_send_piece(&mut ss, &[1, 2, 3]);
}

#[test]
#[should_panic(expected = "may not be called from a handler")]
fn extract_from_handler_panics() {
    let (s, r, pump) = pair();
    r.set_handler(H, {
        let r = r.clone();
        move |_stream: FmStream, _| {
            let r = r.clone();
            async move {
                r.extract_all();
            }
        }
    });
    s.try_send_message(1, H, &[&[1u8][..]]).unwrap();
    pump.deliver();
    r.extract_all();
}

#[test]
fn sequence_gap_reported_for_lost_packet() {
    let (s, r, pump) = pair();
    let log = recording_handler(&r, H, 64);
    s.try_send_message(1, H, &[&[1u8][..]]).unwrap();
    s.try_send_message(1, H, &[&[2u8][..]]).unwrap();
    // Drop the first message's packet in flight.
    {
        let mut inner = s.inner.borrow_mut();
        let _ = inner.core.device.out_remove_for_test(0);
    }
    pump.deliver();
    r.extract_all();
    let errs = r.take_errors();
    assert!(matches!(
        errs[0],
        FmError::SequenceGap {
            src: 0,
            expected: 0,
            got: 1
        }
    ));
    assert_eq!(*log.borrow(), vec![(0, vec![2])], "later message survives");
}

#[test]
fn many_messages_in_order() {
    let (s, r, pump) = pair();
    let log = recording_handler(&r, H, 64);
    let mut sent = 0u32;
    while sent < 100 {
        if s.try_send_message(1, H, &[&sent.to_le_bytes()[..]])
            .is_err()
        {
            pump.deliver();
            r.extract_all();
            pump.deliver();
            s.extract_all();
            continue;
        }
        sent += 1;
    }
    pump.deliver();
    r.extract_all();
    let got: Vec<u32> = log
        .borrow()
        .iter()
        .map(|(_, m)| u32::from_le_bytes(m[..4].try_into().unwrap()))
        .collect();
    assert_eq!(got, (0..100).collect::<Vec<u32>>());
}

#[test]
fn open_messages_of_one_source_retire_in_any_order() {
    // Three messages open at once from one source; the middle one
    // ends first, then the first, then the last: each packet must
    // find its own task whatever the others' slots did meanwhile.
    let (s, r, pump) = pair();
    let log = recording_handler(&r, H, 4096);
    let msgs: Vec<Vec<u8>> = (1..=3u8).map(|b| vec![b; 3000]).collect();
    let mut open: Vec<SendStream> = msgs.iter().map(|_| s.begin_message(1, 3000, H)).collect();
    for (ss, m) in open.iter_mut().zip(&msgs) {
        // Past one MTU, so that the FIRST packet leaves now.
        assert_eq!(s.try_send_piece(ss, &m[..2000]).unwrap(), 2000);
    }
    pump.deliver();
    r.extract_all();
    assert_eq!(r.pending_handlers(), 3);
    for i in [1, 0, 2] {
        assert_eq!(
            s.try_send_piece(&mut open[i], &msgs[i][2000..]).unwrap(),
            1000
        );
        s.try_end_message(&mut open[i]).unwrap();
        pump.deliver();
        r.extract_all();
    }
    assert_eq!(r.pending_handlers(), 0);
    let got: Vec<Vec<u8>> = log.borrow().iter().map(|(_, m)| m.clone()).collect();
    assert_eq!(got, vec![msgs[1].clone(), msgs[0].clone(), msgs[2].clone()]);
    assert!(r.take_errors().is_empty());
}

/// Hand `exec` — an async handler outside any table — one `bytes`-long
/// message from node 0 in 1024-byte packets, as the dispatch would.
fn feed(exec: &mut AsyncHandler, fm: &Fm2Engine<LoopbackDevice>, msg_seq: u32, bytes: &[u8]) {
    let packets: Vec<&[u8]> = bytes.chunks(1024).collect();
    for (i, p) in packets.iter().enumerate() {
        let meta = SinkMeta {
            msg_seq,
            msg_len: bytes.len() as u32,
            first: i == 0,
            last: i + 1 == packets.len(),
        };
        assert!(matches!(
            exec.take(fm, 0, meta, PacketBuf::from(*p)),
            Took::Task
        ));
    }
}

#[test]
fn retired_tasks_lend_their_stream_cells_to_the_next_message() {
    // One message open at a time: one set of stream cells serves them
    // all (the free list never grows past the open-task high water).
    let (_, r, _) = pair();
    let log: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    let l = Rc::clone(&log);
    let mut exec = AsyncHandler::new(H, 2, profile().host, move |stream: FmStream, _| {
        let l = Rc::clone(&l);
        async move {
            let msg = stream.receive_vec(stream.msg_len()).await;
            l.borrow_mut().push(msg);
        }
    });
    for i in 0..50u8 {
        feed(&mut exec, &r, i.into(), &vec![i; 3000]);
        assert_eq!(exec.idle_streams.len(), 1, "message {i}");
    }
    assert_eq!(Handler::<LoopbackDevice>::pending(&exec), 0);
    assert_eq!(log.borrow().len(), 50);
    assert!(log
        .borrow()
        .iter()
        .enumerate()
        .all(|(i, m)| *m == vec![i as u8; 3000]));
}

#[test]
fn a_stream_handle_the_handler_kept_is_never_rearmed() {
    // `FmStream` is `Clone`: a handler may stash its handle. Cells
    // with a handle still out must not become another message's.
    let (_, r, _) = pair();
    let kept: Rc<RefCell<Vec<FmStream>>> = Rc::default();
    let k = Rc::clone(&kept);
    let mut exec = AsyncHandler::new(H, 2, profile().host, move |stream: FmStream, _| {
        k.borrow_mut().push(stream.clone());
        async move {
            stream.skip(stream.msg_len()).await;
        }
    });
    for (seq, len) in [10usize, 20].into_iter().enumerate() {
        feed(&mut exec, &r, seq as u32, &vec![0u8; len]);
    }
    assert_eq!(Handler::<LoopbackDevice>::pending(&exec), 0);
    assert!(exec.idle_streams.is_empty());
    let lens: Vec<usize> = kept.borrow().iter().map(FmStream::msg_len).collect();
    assert_eq!(
        lens,
        vec![10, 20],
        "each handle still views its own message"
    );
}

/// A whole-message handler logging (src, payload) per call.
fn whole_handler(e: &Fm2Engine<LoopbackDevice>, id: HandlerId) -> MsgLog {
    let log: MsgLog = Rc::default();
    let l = Rc::clone(&log);
    e.set_fast_handler(id, move |src, payload| {
        l.borrow_mut().push((src, payload.to_vec()))
    });
    log
}

/// One per-packet call as its sink saw it: (src, first, last, msg_len,
/// payload bytes).
type PacketLog = Rc<RefCell<Vec<(usize, bool, bool, u32, usize)>>>;

fn packet_handler(e: &Fm2Engine<LoopbackDevice>, id: HandlerId) -> PacketLog {
    let log: PacketLog = Rc::default();
    let l = Rc::clone(&log);
    e.set_packet_sink(id, move |src, meta: SinkMeta, payload: &[u8]| {
        l.borrow_mut()
            .push((src, meta.first, meta.last, meta.msg_len, payload.len()));
    });
    log
}

#[test]
fn whole_message_handler_takes_single_packet_messages_and_self_sends() {
    let (s, r, pump) = pair();
    let seen = whole_handler(&r, H);
    s.try_send_message(1, H, &[&[1u8, 2, 3][..]]).unwrap();
    pump.deliver();
    r.extract_all();
    // A self-send arrives whole too, and through the same table.
    r.try_send_message(1, H, &[&[4u8][..], &[5u8][..]]).unwrap();
    r.extract_all();
    assert_eq!(*seen.borrow(), vec![(0, vec![1, 2, 3]), (1, vec![4, 5])]);
    assert!(r.take_errors().is_empty());
    assert_eq!(r.pending_handlers(), 0, "no task was spawned");
    assert_eq!(r.stats().messages_received, 2);
    assert_eq!(r.stats().bytes_received, 5);
}

#[test]
fn multi_packet_message_to_a_whole_message_handler_is_an_unknown_handler() {
    let (s, r, pump) = pair();
    let slow = recording_handler(&r, H, 512);
    // A later registration replaces an earlier one of any kind.
    let fast = whole_handler(&r, H);
    let big: Vec<u8> = (0..2500).map(|i| i as u8).collect(); // three packets
    s.try_send_message(1, H, &[&big]).unwrap();
    s.try_send_message(1, H, &[&[7u8][..]]).unwrap();
    pump.deliver();
    let taken = r.extract_all();
    assert_eq!(*fast.borrow(), vec![(0, vec![7])]);
    assert!(
        slow.borrow().is_empty(),
        "the replaced async handler never runs"
    );
    assert!(
        matches!(
            r.take_errors()[..],
            [FmError::UnknownHandler { handler: 1 }]
        ),
        "reported once for the message, not once per packet"
    );
    assert_eq!(taken, 1, "the dropped message takes none of the budget");
    assert_eq!(r.stats().messages_received, 1);
}

#[test]
fn per_packet_handler_sees_first_and_last() {
    let (s, r, pump) = pair();
    // A later registration replaces an earlier one of any kind: the
    // async handler never runs.
    let shadowed = recording_handler(&r, H, 512);
    let seen = packet_handler(&r, H);
    s.try_send_message(1, H, &[&[0u8; 2500][..]]).unwrap();
    pump.deliver();
    r.extract_all();
    r.try_send_message(1, H, &[&[0u8; 3000][..]]).unwrap();
    r.extract_all();
    assert_eq!(
        *seen.borrow(),
        vec![
            (0, true, false, 2500, 1024),
            (0, false, false, 2500, 1024),
            (0, false, true, 2500, 452),
            // Self-sends are never packetized: one call, first and last.
            (1, true, true, 3000, 3000),
        ]
    );
    assert!(shadowed.borrow().is_empty());
    assert_eq!(r.stats().messages_received, 2);
    assert_eq!(r.pending_handlers(), 0);
    // And the other way round: an async handler replaces the sink.
    let after = recording_handler(&r, H, 512);
    s.try_send_message(1, H, &[&[9u8; 2500][..]]).unwrap();
    pump.deliver();
    r.extract_all();
    assert_eq!(*after.borrow(), vec![(0, vec![9u8; 2500])]);
    assert_eq!(seen.borrow().len(), 4, "the replaced sink saw nothing more");
}

#[test]
fn a_restarting_peer_ends_an_async_handlers_task_and_a_sinks_landing() {
    /// A sink that keeps one landing per open message, as MPI-FM 2.x's
    /// does, and drops a peer's on its reset.
    struct Landings(Rc<RefCell<Vec<(usize, u32)>>>);
    impl PacketSink for Landings {
        fn packet(&mut self, src: usize, meta: SinkMeta, _: &[u8]) {
            let mut open = self.0.borrow_mut();
            if meta.first {
                open.push((src, meta.msg_seq));
            }
            if meta.last {
                open.retain(|&l| l != (src, meta.msg_seq));
            }
        }
        fn peer_reset(&mut self, peer: usize) {
            self.0.borrow_mut().retain(|&(src, _)| src != peer);
        }
    }
    let (s, r, pump) = pair();
    let log = recording_handler(&r, H, 512);
    let landings: Rc<RefCell<Vec<(usize, u32)>>> = Rc::default();
    r.set_packet_sink(HandlerId(2), Landings(Rc::clone(&landings)));
    // Each message's first packet leaves (past one MTU), the rest stays.
    for id in [H, HandlerId(2)] {
        let mut ss = s.begin_message(1, 3000, id);
        assert_eq!(s.try_send_piece(&mut ss, &[1u8; 2000]).unwrap(), 2000);
    }
    pump.deliver();
    r.extract_all();
    assert_eq!(
        r.pending_handlers(),
        1,
        "the async handler waits in FM_receive"
    );
    assert_eq!(landings.borrow().len(), 1, "the sink keeps its landing");
    // Node 0 restarts: one reset reaches both through the same call.
    let rejoin = PeerEvent {
        peer: 0,
        kind: PeerEventKind::Rejoining,
        epoch: 1,
    };
    r.with_device(|d| d.report(rejoin));
    r.extract_all();
    assert_eq!(r.pending_handlers(), 0, "the task ended");
    assert!(landings.borrow().is_empty(), "the landing ended");
    assert!(log.borrow().is_empty(), "neither message completed");
    assert!(r.take_errors().is_empty());
}

#[test]
fn a_reset_reported_while_a_handler_runs_reaches_it_once_it_returns() {
    // The handler itself turns the engine while a restart of its sender
    // is reported: it is out of the table then, so the reset must wait
    // for it rather than pass it by.
    let (s, r, pump) = pair();
    let fm = r.clone();
    r.set_handler(H, move |stream: FmStream, src| {
        let rejoin = PeerEvent {
            peer: src,
            kind: PeerEventKind::Rejoining,
            epoch: 1,
        };
        fm.with_device(|d| d.report(rejoin));
        fm.progress();
        async move {
            stream.skip(stream.msg_len()).await;
        }
    });
    let mut ss = s.begin_message(1, 3000, H);
    assert_eq!(s.try_send_piece(&mut ss, &[1u8; 2000]).unwrap(), 2000);
    pump.deliver();
    r.extract_all();
    assert_eq!(r.pending_handlers(), 0, "the task ended with its sender");
    assert_eq!(r.stats().peer_resets, 1);
}

#[test]
fn a_second_synchronous_registration_replaces_the_first() {
    let (s, r, pump) = pair();
    assert!(!r.has_handler(H));
    let whole = whole_handler(&r, H);
    assert!(r.has_handler(H));
    let packets = packet_handler(&r, H);
    let send_one = |byte: u8| {
        s.try_send_message(1, H, &[&[byte][..]]).unwrap();
        pump.deliver();
        r.extract_all();
    };
    send_one(1);
    assert!(whole.borrow().is_empty());
    assert_eq!(packets.borrow().len(), 1);
    let whole = whole_handler(&r, H);
    send_one(2);
    assert_eq!(*whole.borrow(), vec![(0, vec![2])]);
    assert_eq!(packets.borrow().len(), 1);
    // `has_handler` sees the async table and both synchronous kinds.
    recording_handler(&r, HandlerId(2), 8);
    packet_handler(&r, HandlerId(3));
    assert!(r.has_handler(HandlerId(2)) && r.has_handler(HandlerId(3)));
    assert!(!r.has_handler(HandlerId(4)));
}
