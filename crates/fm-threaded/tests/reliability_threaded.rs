//! The reliability sublayer on real OS threads.
//!
//! The in-process rings never lose packets, so loss is injected with a
//! wrapper device that silently discards every nth outgoing packet and
//! says it may. The engines retransmit over it and must still deliver
//! every message intact — driven purely by wall-clock retransmit timeouts
//! (`ThreadedDevice::now`), since there is no simulator to schedule wake
//! alarms.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fm_core::blocking::{fm1_send, fm2_send, fm2_wait_until, Backoff};
use fm_core::device::{DeviceFull, NetDevice};
use fm_core::packet::HandlerId;
use fm_core::{Fm1Engine, Fm2Engine, FmPacket, FmStream};
use fm_model::{MachineProfile, Nanos};
use fm_threaded::{ThreadedCluster, ThreadedDevice};

const H: HandlerId = HandlerId(1);

/// A [`NetDevice`] that deterministically discards every `drop_every`-th
/// outgoing packet (acks included — the protocol must survive both).
struct LossyDevice {
    inner: ThreadedDevice,
    drop_every: u64,
    sent: u64,
}

impl LossyDevice {
    fn new(inner: ThreadedDevice, drop_every: u64) -> Self {
        assert!(drop_every >= 2);
        LossyDevice {
            inner,
            drop_every,
            sent: 0,
        }
    }
}

impl NetDevice for LossyDevice {
    fn node_id(&self) -> usize {
        self.inner.node_id()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        self.sent += 1;
        if self.sent.is_multiple_of(self.drop_every) {
            // Swallow the packet: the engine believes it was sent.
            return Ok(());
        }
        self.inner.try_send(pkt)
    }
    fn try_recv(&mut self) -> Option<FmPacket> {
        self.inner.try_recv()
    }
    fn send_space(&self) -> usize {
        self.inner.send_space()
    }
    fn now(&self) -> Nanos {
        self.inner.now()
    }
    fn charge(&mut self, cost: Nanos) {
        self.inner.charge(cost);
    }
    fn is_lossy(&self) -> bool {
        true
    }
}

#[test]
fn fm2_recovers_all_messages_over_a_lossy_device() {
    const MSGS: u32 = 300;
    let sender_confirmed = Arc::new(AtomicBool::new(false));
    let results = ThreadedCluster::run(2, {
        let sender_confirmed = Arc::clone(&sender_confirmed);
        move |i, dev| {
            // Different drop periods per direction, so data and ack losses
            // de-correlate.
            let dev = LossyDevice::new(dev, if i == 0 { 5 } else { 7 });
            let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
            if i == 0 {
                for seq in 0..MSGS {
                    let body = vec![seq as u8; 100];
                    fm2_send(&fm, 1, H, &[&seq.to_le_bytes(), &body]);
                }
                // Every message counts as delivered only once acked.
                let fm2 = fm.clone();
                fm2_wait_until(&fm, move || fm2.unacked_packets() == 0);
                sender_confirmed.store(true, Ordering::SeqCst);
                let stats = fm.stats();
                assert!(
                    stats.retransmissions > 0,
                    "losses must have forced re-sends"
                );
                Vec::new()
            } else {
                let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::<u32>::new()));
                let g = std::rc::Rc::clone(&got);
                fm.set_handler(H, move |stream: FmStream, _src| {
                    let g = std::rc::Rc::clone(&g);
                    async move {
                        let mut hdr = [0u8; 4];
                        stream.receive(&mut hdr).await;
                        let seq = u32::from_le_bytes(hdr);
                        let body = stream.receive_vec(stream.msg_len() - 4).await;
                        assert_eq!(body, vec![seq as u8; 100], "no silent corruption");
                        g.borrow_mut().push(seq);
                    }
                });
                // Keep draining (and acking) until the sender has seen every
                // ack — returning earlier would strand the final ack.
                fm2_wait_until(&fm, {
                    let got = std::rc::Rc::clone(&got);
                    let sender_confirmed = Arc::clone(&sender_confirmed);
                    move || {
                        got.borrow().len() == MSGS as usize
                            && sender_confirmed.load(Ordering::SeqCst)
                    }
                });
                assert!(
                    fm.take_errors().is_empty(),
                    "loss is repaired, not reported"
                );
                let v = got.borrow().clone();
                v
            }
        }
    });
    assert_eq!(
        results[1],
        (0..MSGS).collect::<Vec<u32>>(),
        "every message delivered exactly once, in order"
    );
}

#[test]
fn fm1_recovers_all_messages_over_a_lossy_device() {
    const MSGS: usize = 200;
    let sender_confirmed = Arc::new(AtomicBool::new(false));
    let results = ThreadedCluster::run(2, {
        let sender_confirmed = Arc::clone(&sender_confirmed);
        move |i, dev| {
            let dev = LossyDevice::new(dev, if i == 0 { 4 } else { 9 });
            let mut fm = Fm1Engine::new(dev, MachineProfile::sparc_fm1());
            if i == 0 {
                for seq in 0..MSGS {
                    fm1_send(&mut fm, 1, H, &vec![seq as u8; 300]);
                }
                let mut backoff = Backoff::new("the last acks");
                while fm.unacked_packets() > 0 {
                    fm.extract();
                    backoff.snooze();
                }
                sender_confirmed.store(true, Ordering::SeqCst);
                assert!(fm.stats().retransmissions > 0);
                0
            } else {
                let count = std::rc::Rc::new(std::cell::Cell::new(0usize));
                let c = std::rc::Rc::clone(&count);
                fm.set_handler(
                    H,
                    Box::new(move |_eng, _src, data| {
                        assert_eq!(data.len(), 300, "no partial deliveries");
                        c.set(c.get() + 1);
                    }),
                );
                let mut backoff = Backoff::new("every message and the sender's last ack");
                while count.get() < MSGS || !sender_confirmed.load(Ordering::SeqCst) {
                    fm.extract();
                    backoff.snooze();
                }
                assert!(
                    fm.take_errors().is_empty(),
                    "loss is repaired, not reported"
                );
                count.get()
            }
        }
    });
    assert_eq!(results[1], MSGS);
}
