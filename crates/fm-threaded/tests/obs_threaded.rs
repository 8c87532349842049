//! Observability on real OS threads: each node attaches its own sink
//! (sinks are engine-local, like the engines themselves), records its
//! half of the exchange, and hands the events back across the join —
//! `ObsEvent` is plain `Copy` data, so the ring contents travel freely
//! even though the sink itself never crosses a thread boundary.

use fm_core::blocking::{fm2_send, fm2_wait_until};
use fm_core::obs::NO_SERIAL;
use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, FmStream, ObsEvent, ObsSink, SpanKind};
use fm_model::MachineProfile;
use fm_threaded::ThreadedCluster;

const H: HandlerId = HandlerId(1);
const MSGS: usize = 50;
const SIZE: usize = 100;

#[test]
fn each_thread_records_its_own_timeline() {
    let results: Vec<Vec<ObsEvent>> = ThreadedCluster::run(2, |i, dev| {
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        let sink = ObsSink::new(64 * 1024);
        fm.attach_obs(sink.clone());
        if i == 0 {
            let data = vec![0xA5u8; SIZE];
            for _ in 0..MSGS {
                fm2_send(&fm, 1, H, &[&data]);
            }
            // Drain returning credits so the receiver's window reopens.
            fm.extract_all();
        } else {
            let got = std::rc::Rc::new(std::cell::Cell::new(0usize));
            let g = std::rc::Rc::clone(&got);
            fm.set_handler(H, move |stream: FmStream, _src| {
                let g = std::rc::Rc::clone(&g);
                async move {
                    let m = stream.receive_vec(stream.msg_len()).await;
                    assert_eq!(m.len(), SIZE);
                    g.set(g.get() + 1);
                }
            });
            fm2_wait_until(&fm, move || got.get() == MSGS);
        }
        sink.take_events()
    });

    let sender = &results[0];
    let receiver = &results[1];

    // Each node stamped its own id and kept its ring chronological.
    assert!(sender.iter().all(|e| e.node == 0));
    assert!(receiver.iter().all(|e| e.node == 1));
    for evs in [sender, receiver] {
        assert!(evs.windows(2).all(|w| w[0].t <= w[1].t));
    }

    // Sender: a full begin → send → end lifecycle per message.
    let count = |evs: &[ObsEvent], k: SpanKind| evs.iter().filter(|e| e.kind == k).count();
    assert_eq!(count(sender, SpanKind::BeginMessage), MSGS);
    assert_eq!(count(sender, SpanKind::EndMessage), MSGS);
    assert!(count(sender, SpanKind::PacketSend) >= MSGS);

    // Receiver: every message arrived and ran its handler to completion.
    assert!(count(receiver, SpanKind::PacketRecv) >= MSGS);
    assert_eq!(count(receiver, SpanKind::HandlerStart), MSGS);
    assert_eq!(count(receiver, SpanKind::HandlerEnd), MSGS);

    // The threaded transport has no substrate serials — every packet
    // event honestly says so instead of inventing one.
    for e in sender.iter().chain(receiver.iter()) {
        if matches!(e.kind, SpanKind::PacketSend | SpanKind::PacketRecv) {
            assert_eq!(e.serial, NO_SERIAL);
        }
    }
}
