//! The reliability sublayer on real OS threads.
//!
//! The in-process rings never lose packets, so loss is injected with a
//! wrapper device that silently discards every nth outgoing packet and
//! says it may. The engines retransmit over it and must still deliver
//! every message intact — driven purely by wall-clock retransmit timeouts
//! (`ThreadedDevice::now`), since there is no simulator to schedule wake
//! alarms.
//!
//! A rank whose wait lasts [`REPORT_AFTER`] prints its engine's state
//! once and keeps waiting, so a stalled run says where it stands.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fm_core::blocking::{fm1_send, fm2_send, fm2_wait_until, Backoff, Step};
use fm_core::device::{DeviceFull, NetDevice};
use fm_core::packet::HandlerId;
use fm_core::{Fm1Engine, Fm2Engine, FmPacket, FmStream};
use fm_model::{MachineProfile, Nanos};
use fm_threaded::{ThreadedCluster, ThreadedDevice};

const H: HandlerId = HandlerId(1);

/// How long a wait lasts before its rank prints its engine's state.
const REPORT_AFTER: Duration = Duration::from_secs(20);

/// One wait's report: [`Watch::tick`] prints `state` once the wait has
/// lasted [`REPORT_AFTER`], only the first time, and ends nothing.
struct Watch {
    what: &'static str,
    start: Instant,
    reported: bool,
}

impl Watch {
    fn new(what: &'static str) -> Self {
        Watch {
            what,
            start: Instant::now(),
            reported: false,
        }
    }

    fn tick(&mut self, state: impl FnOnce() -> String) {
        if !self.reported && self.start.elapsed() >= REPORT_AFTER {
            self.reported = true;
            eprintln!(
                "{} still waiting after {REPORT_AFTER:?}: {}",
                self.what,
                state()
            );
        }
    }
}

/// `fm2_wait_until` with a [`Watch`] that prints the engine's unacked
/// packets, `FmStats`, and smoothed RTT and retransmit timeout toward the
/// other rank.
fn fm2_wait<D: NetDevice>(fm: &Fm2Engine<D>, what: &'static str, mut done: impl FnMut() -> bool) {
    let peer = 1 - fm.node_id();
    let mut watch = Watch::new(what);
    fm2_wait_until(fm, || {
        done() || {
            watch.tick(|| {
                format!(
                    "unacked_packets {}, srtt_ns {:?}, current_rto_ns {:?}, {:?}",
                    fm.unacked_packets(),
                    fm.srtt_ns(peer),
                    fm.current_rto_ns(peer),
                    fm.stats()
                )
            });
            false
        }
    });
}

/// `fm1_wait_until`'s wait with a [`Watch`] that prints the engine's
/// unacked packets and `FmStats`; `done` reads the engine.
fn fm1_wait<D: NetDevice>(
    fm: &mut Fm1Engine<D>,
    what: &'static str,
    mut done: impl FnMut(&Fm1Engine<D>) -> bool,
) {
    let mut watch = Watch::new(what);
    Backoff::new(what).wait(|| {
        watch.tick(|| format!("unacked_packets {}, {:?}", fm.unacked_packets(), fm.stats()));
        Step::or_progress(done(fm).then_some(()), || fm.extract() > 0)
    });
}

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
                fm2_wait(&fm, "FM 2.x sender, the last acks", || {
                    fm.unacked_packets() == 0
                });
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
                fm2_wait(
                    &fm,
                    "FM 2.x receiver, every message and the sender's last ack",
                    {
                        let got = std::rc::Rc::clone(&got);
                        let sender_confirmed = Arc::clone(&sender_confirmed);
                        move || {
                            got.borrow().len() == MSGS as usize
                                && sender_confirmed.load(Ordering::SeqCst)
                        }
                    },
                );
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
                fm1_wait(&mut fm, "FM 1.x sender, the last acks", |fm| {
                    fm.unacked_packets() == 0
                });
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
                fm1_wait(
                    &mut fm,
                    "FM 1.x receiver, every message and the sender's last ack",
                    |_| count.get() >= MSGS && sender_confirmed.load(Ordering::SeqCst),
                );
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
