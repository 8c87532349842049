//! A routed rank retransmits only where packets can be lost.
//!
//! Rank 0 of hosts `0,0,1` reaches rank 1 over a lossless local leg and
//! rank 2 over a lossy remote one, behind one [`RoutedDevice`]. Its
//! engine asks the device about each peer once, so it trusts rank 1 the
//! way FM trusts Myrinet — credits, no acks, nothing held for
//! retransmission — and runs the retransmit sublayer toward rank 2 only,
//! which still repairs a packet that leg loses.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use fm_core::device::{DeviceFull, NetDevice};
use fm_core::packet::{FmPacket, HandlerId, PacketFlags};
use fm_core::Fm2Engine;
use fm_model::{MachineProfile, Nanos};
use fm_route::{HostMap, RoutedDevice};

const H: HandlerId = HandlerId(1);

/// One end of a hand-pumped link, as node `node` of a three-rank run.
struct End {
    node: usize,
    lossy: bool,
    out: VecDeque<FmPacket>,
    inq: VecDeque<FmPacket>,
    clock: Nanos,
}

impl End {
    fn new(node: usize, lossy: bool) -> End {
        End {
            node,
            lossy,
            out: VecDeque::new(),
            inq: VecDeque::new(),
            clock: Nanos::ZERO,
        }
    }
}

impl NetDevice for End {
    fn node_id(&self) -> usize {
        self.node
    }
    fn num_nodes(&self) -> usize {
        3
    }
    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        self.out.push_back(pkt);
        Ok(())
    }
    fn try_recv(&mut self) -> Option<FmPacket> {
        self.inq.pop_front()
    }
    fn send_space(&self) -> usize {
        1024
    }
    fn now(&self) -> Nanos {
        self.clock
    }
    fn charge(&mut self, cost: Nanos) {
        self.clock += cost;
    }
    fn is_lossy(&self) -> bool {
        self.lossy
    }
}

/// Move everything queued on the link between `a` and `b`, both ways,
/// and return the flags of every frame that crossed.
fn cross(a: &mut End, b: &mut End) -> Vec<PacketFlags> {
    let flags = a.out.iter().chain(&b.out).map(|p| p.header.flags).collect();
    a.inq.extend(b.out.drain(..));
    b.inq.extend(a.out.drain(..));
    flags
}

type Routed = Fm2Engine<RoutedDevice<End, End>>;

/// Every one-byte message `fm` is handed, in order.
fn logged(fm: &Fm2Engine<End>) -> Rc<RefCell<Vec<u8>>> {
    let log: Rc<RefCell<Vec<u8>>> = Rc::default();
    let l = Rc::clone(&log);
    fm.set_fast_handler(H, move |_, msg| l.borrow_mut().push(msg[0]));
    log
}

#[test]
fn a_routed_rank_trusts_its_same_host_peer_and_repairs_the_other() {
    const LOCAL: u8 = 48;
    const REMOTE: u8 = 8;
    let profile = MachineProfile::ppro200_fm2();
    let map = HostMap::parse("0,0,1").unwrap();
    let r0: Routed = Fm2Engine::new(
        RoutedDevice::new(End::new(0, false), End::new(0, true), map),
        profile,
    );
    let r1 = Fm2Engine::new(End::new(1, false), profile);
    let r2 = Fm2Engine::new(End::new(2, true), profile);
    let (got1, got2) = (logged(&r1), logged(&r2));

    // Messages to the same-host peer, none of them extracted yet: a
    // trusted link holds nothing back for an ack.
    for i in 0..LOCAL {
        r0.try_send_message(1, H, &[&[i]]).unwrap();
        assert_eq!(r0.unacked_packets(), 0, "message {i} to a trusted peer");
    }
    // Messages across the network wait for theirs, and the lossy leg
    // loses the third.
    for i in 0..REMOTE {
        r0.try_send_message(2, H, &[&[i]]).unwrap();
    }
    assert_eq!(r0.unacked_packets(), REMOTE as usize);
    r0.with_device(|d| d.remote_mut().out.remove(2))
        .expect("a third packet on the lossy leg");

    let (mut local, mut remote) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        local.extend(r0.with_device(|d| r1.with_device(|e| cross(d.local_mut(), e))));
        remote.extend(r0.with_device(|d| r2.with_device(|e| cross(d.remote_mut(), e))));
        r1.extract_all();
        r2.extract_all();
        r0.extract_all();
    }

    assert_eq!(*got1.borrow(), (0..LOCAL).collect::<Vec<_>>());
    assert_eq!(*got2.borrow(), (0..REMOTE).collect::<Vec<_>>());
    assert_eq!(r0.unacked_packets(), 0, "every remote send acknowledged");
    assert_eq!(r0.stats().retransmissions, 1, "one loss, one re-send");
    let acks = |flags: &[PacketFlags]| {
        let ack_only = |f: &&PacketFlags| f.contains(PacketFlags::ACK_ONLY);
        flags.iter().filter(ack_only).count()
    };
    assert_eq!(acks(&local), 0, "an ack crossed the lossless leg");
    assert!(acks(&remote) > 0, "the lossy leg is acknowledged");
    assert_eq!(r1.stats().acks_sent, 0);
    for fm in [&r1, &r2] {
        assert!(fm.take_errors().is_empty());
    }
    assert!(r0.take_errors().is_empty());
}
