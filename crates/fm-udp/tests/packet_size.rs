//! The packet size of a real UDP link, counted.
//!
//! `UdpDevice` reports a `PeerEventKind::Link` fact of 3048 bytes (a
//! 3 KiB wire frame less the packet header) each time it admits a peer,
//! and the engine cuts messages to that peer at that size instead of the
//! profile's MTU. These tests count `FmStats::packets_sent` on a joined
//! loopback pair: 2 KB on either engine generation and a full 3048 bytes
//! are one packet, one byte more is two, and a peer that restarted is
//! back on the profile MTU until its new incarnation's `Link` arrives.
//! The kernel-drop reads check that packets of this size leave the
//! receive buffer room: a 2 KB stream and a 256 KiB put stream lose no
//! datagram at the socket.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use fm_core::blocking::{fm1_send, fm1_wait_until, fm2_send, fm2_wait_until, quiesce};
use fm_core::device::{DeviceFull, NetDevice, PeerEvent, PeerEventKind};
use fm_core::{
    Fm1Engine, Fm2Engine, FmPacket, FmStream, HandlerId, Onesided, OnesidedConfig, OsStatus,
    RegionHandle,
};
use fm_model::{MachineProfile, Nanos};
use fm_udp::{loopback_cluster, restart_node, UdpCluster, UdpConfig, UdpDevice};

const H: HandlerId = HandlerId(9);

/// What a `Link` fact from fm-udp announces.
const LINK: usize = 3048;

fn fm2<D: NetDevice>(dev: D) -> Fm2Engine<D> {
    Fm2Engine::new(dev, MachineProfile::ppro200_fm2())
}

fn pattern(k: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((k * 7 + i) % 251) as u8).collect()
}

/// Data packets `fm` puts on the wire to send `msg` to node 1.
fn fm2_packets<D: NetDevice>(fm: &Fm2Engine<D>, msg: &[u8]) -> u64 {
    let before = fm.stats().packets_sent;
    fm2_send(fm, 1, H, &[msg]);
    fm.stats().packets_sent - before
}

/// Receive `n` messages on `fm`, in order, then settle the link.
fn fm2_receive<D: NetDevice>(fm: &Fm2Engine<D>, n: usize) -> Vec<Vec<u8>> {
    let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    let log = Rc::clone(&got);
    fm.set_handler(H, move |stream: FmStream, _| {
        let log = Rc::clone(&log);
        async move {
            let msg = stream.receive_vec(stream.msg_len()).await;
            log.borrow_mut().push(msg);
        }
    });
    fm2_wait_until(fm, || got.borrow().len() == n);
    quiesce(fm);
    let msgs = got.borrow().clone();
    msgs
}

#[test]
fn a_joined_peer_gets_page_sized_packets_fm2() {
    let sizes = [2048, LINK, LINK + 1, 16];
    let out = UdpCluster::run(2, UdpConfig::default(), move |rank, dev| {
        let fm = fm2(dev);
        if rank == 1 {
            let got = fm2_receive(&fm, sizes.len());
            let want: Vec<_> = sizes
                .iter()
                .enumerate()
                .map(|(k, &n)| pattern(k, n))
                .collect();
            assert_eq!(got, want);
            return vec![];
        }
        fm.extract_all(); // the engine drains join's Up and Link
        let counts = sizes
            .iter()
            .enumerate()
            .map(|(k, &n)| fm2_packets(&fm, &pattern(k, n)))
            .collect();
        quiesce(&fm);
        counts
    });
    assert_eq!(out[0], vec![1, 1, 2, 1], "2 KB, 3048 B, 3049 B, 16 B");
}

#[test]
fn a_joined_peer_gets_page_sized_packets_fm1() {
    let profile = MachineProfile::sparc_fm1();
    let two_k = pattern(0, 2048);
    let out = UdpCluster::run(2, UdpConfig::default(), move |rank, dev| {
        let mut fm = Fm1Engine::new(dev, profile);
        if rank == 1 {
            let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
            let log = Rc::clone(&got);
            fm.set_handler(
                H,
                Box::new(move |_, _, msg| log.borrow_mut().push(msg.to_vec())),
            );
            fm1_wait_until(&mut fm, || got.borrow().len() == 1);
            assert_eq!(got.borrow()[0], two_k);
            // Stay until the sender has its ack.
            let settle = Instant::now();
            while settle.elapsed() < Duration::from_millis(100) {
                fm.extract();
            }
            return 0;
        }
        fm.progress(); // the engine drains join's Up and Link
        let before = fm.stats().packets_sent;
        fm1_send(&mut fm, 1, H, &two_k);
        let sent = fm.stats().packets_sent - before;
        while fm.unacked_packets() > 0 {
            fm.extract();
            fm.progress();
        }
        sent
    });
    assert_eq!(2048usize.div_ceil(profile.fm.mtu_payload), 16);
    assert_eq!(out[0], 1, "one packet where the profile MTU cuts 16");
}

/// A `UdpDevice` that keeps back the first `Link` fact to follow a
/// `Rejoining` until the test lets it through, so the engine can be
/// caught between a peer's new incarnation and its link size.
struct HoldLink {
    dev: UdpDevice,
    rejoined: bool,
    held: Option<PeerEvent>,
    release: bool,
}

impl NetDevice for HoldLink {
    fn node_id(&self) -> usize {
        self.dev.node_id()
    }
    fn num_nodes(&self) -> usize {
        self.dev.num_nodes()
    }
    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        self.dev.try_send(pkt)
    }
    fn try_recv(&mut self) -> Option<FmPacket> {
        self.dev.try_recv()
    }
    fn send_space(&self) -> usize {
        self.dev.send_space()
    }
    fn now(&self) -> Nanos {
        self.dev.now()
    }
    fn charge(&mut self, cost: Nanos) {
        self.dev.charge(cost)
    }
    fn is_lossy(&self) -> bool {
        self.dev.is_lossy()
    }
    fn poll_event(&mut self) -> Option<PeerEvent> {
        if self.release && self.held.is_some() {
            return self.held.take();
        }
        let ev = self.dev.poll_event()?;
        match ev.kind {
            PeerEventKind::Rejoining => self.rejoined = true,
            PeerEventKind::Link { .. } if self.rejoined && !self.release => {
                self.held = Some(ev);
                return self.dev.poll_event();
            }
            _ => {}
        }
        Some(ev)
    }
}

#[test]
fn a_restarted_peer_is_on_the_profile_mtu_until_its_link_arrives() {
    let cfg = UdpConfig::default();
    let mut devs = loopback_cluster(2, cfg.clone()).expect("bind");
    let first = devs.pop().expect("node 1");
    let survivor = devs.pop().expect("node 0");
    let peers = survivor.peers().to_vec();
    let msg = pattern(3, 2048);
    let restarted = {
        let msg = msg.clone();
        std::thread::spawn(move || {
            let mut dev = first;
            dev.join(Duration::from_secs(10)).expect("first join");
            drop(dev); // dies without a goodbye
            let mut dev = restart_node(1, peers, 1, cfg).expect("rebind");
            dev.join(Duration::from_secs(10)).expect("rejoin");
            let fm = fm2(dev);
            assert_eq!(fm2_receive(&fm, 2), vec![msg.clone(), msg]);
        })
    };
    let mut dev = survivor;
    dev.join(Duration::from_secs(10)).expect("survivor join");
    let fm = fm2(HoldLink {
        dev,
        rejoined: false,
        held: None,
        release: false,
    });
    // Serve the new incarnation's join until its Link is the one held.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !fm.with_device(|d| d.held.is_some()) {
        assert!(Instant::now() < deadline, "no Link after the Rejoining");
        fm.extract_all();
        std::thread::yield_now();
    }
    assert_eq!(fm.stats().peer_resets, 1);
    let profile_packets = msg.len().div_ceil(fm.profile().fm.mtu_payload) as u64;
    assert_eq!(profile_packets, 2);
    assert_eq!(fm2_packets(&fm, &msg), profile_packets, "no Link yet");
    fm.with_device(|d| d.release = true);
    fm.extract_all();
    assert_eq!(fm2_packets(&fm, &msg), 1, "the new incarnation's Link");
    quiesce(&fm);
    restarted.join().expect("restarted node");
}

/// The kernel drops no datagram of a 2 KB stream at one packet per
/// message, on either side of it.
#[test]
fn a_2k_stream_at_the_link_size_loses_nothing_at_the_socket() {
    const MSGS: usize = 20_000;
    let out = UdpCluster::run(2, UdpConfig::default(), |rank, dev| {
        let fm = fm2(dev);
        if rank == 1 {
            let got = Rc::new(std::cell::Cell::new(0usize));
            let n = Rc::clone(&got);
            fm.set_handler(H, move |stream: FmStream, _| {
                let n = Rc::clone(&n);
                async move {
                    let msg = stream.receive_vec(stream.msg_len()).await;
                    assert_eq!(msg.len(), 2048);
                    n.set(n.get() + 1);
                }
            });
            fm2_wait_until(&fm, || got.get() == MSGS);
            quiesce(&fm);
        } else {
            fm.extract_all();
            let msg = pattern(1, 2048);
            let before = fm.stats().packets_sent;
            for _ in 0..MSGS {
                fm2_send(&fm, 1, H, &[&msg]);
            }
            assert_eq!(fm.stats().packets_sent - before, MSGS as u64);
            quiesce(&fm);
        }
        fm.with_device(|d| d.kernel_drops())
    });
    assert_eq!(
        out,
        vec![Some(0), Some(0)],
        "kernel drops, sender and receiver"
    );
}

/// Nor of a stream of 256 KiB puts, each 16 one-sided chunks of five
/// 3048-byte packets and a runt: a full window of them fits the socket's
/// receive buffer.
#[test]
fn a_256k_put_stream_loses_nothing_at_the_socket() {
    const PUT: usize = 256 * 1024;
    const PUTS: usize = 32;
    let cfg = OnesidedConfig {
        arena_bytes: PUT,
        ..OnesidedConfig::default()
    };
    let arena = RegionHandle { index: 0, epoch: 0 };
    let out = UdpCluster::run(2, UdpConfig::default(), move |rank, dev| {
        let fm = fm2(dev);
        let mut os = Onesided::new(&fm, cfg);
        let port = os.port();
        port.register(0, PUT).expect("arena");
        if rank == 1 {
            // The last put ends in a flag byte the target waits on.
            let mut flag = [0u8; 1];
            fm2_wait_until(&fm, || {
                let flushed = os.progress();
                port.read_local(arena, PUT - 1, &mut flag).expect("flag");
                flushed && flag[0] == 0xFF
            });
            quiesce(&fm);
        } else {
            fm.extract_all();
            let mut body = pattern(2, PUT);
            for k in 0..PUTS {
                body[PUT - 1] = if k + 1 == PUTS { 0xFF } else { 0 };
                port.put(1, arena, 0, &body);
            }
            let mut done = 0;
            fm2_wait_until(&fm, || {
                os.progress();
                while let Some(c) = port.poll_completion() {
                    assert_eq!(c.status, OsStatus::Ok);
                    done += 1;
                }
                done == PUTS
            });
            quiesce(&fm);
        }
        fm.with_device(|d| d.kernel_drops())
    });
    assert_eq!(
        out,
        vec![Some(0), Some(0)],
        "kernel drops, initiator and target"
    );
}
