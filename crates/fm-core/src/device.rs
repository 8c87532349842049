//! The network device abstraction and its simulator adapter.
//!
//! The FM engines are written against [`NetDevice`]: a non-blocking,
//! bounded-queue NIC interface plus a clock and a cost sink. It has two
//! kinds of implementation:
//!
//! * [`SimDevice`] (here) — adapts a `myrinet_sim::HostInterface` so the
//!   engine runs in virtual time inside the discrete-event simulator;
//!   `charge` advances the node's virtual clock.
//! * the real transports — `fm_shm::ShmDevice` (mapped rings, also under
//!   `fm_threaded::ThreadedDevice` between threads), `fm_udp::UdpDevice`
//!   and `fm_route::RoutedDevice` over them; `charge` is a no-op and
//!   `now` reads a wall clock.
//!
//! [`LoopbackDevice`] is a test double: a deterministic in-process pair of
//! queues with no timing model, used by unit tests that only care about
//! protocol behaviour.

use fm_model::Nanos;
use myrinet_sim::{HostInterface, NodeId, SimPacket};

use crate::packet::FmPacket;

/// Error: the device send queue is full (retry after progress).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFull;

/// Membership transition reported by a device that tracks peer liveness
/// (fm-udp's heartbeat engine), or a fact about where a peer lives or
/// what its link carries.
/// Substrates with static membership on a wire never produce these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEventKind {
    /// The peer runs on this host as process `pid` (fm-shm reports it
    /// once per linked peer; a rank in this process reports this
    /// process's pid). Not a liveness change: it tells a one-sided port
    /// whose memory it may read instead of streaming packets, and it
    /// holds until the peer's `Down` or `Rejoining`.
    SameHost {
        /// The peer's process id.
        pid: u32,
    },
    /// Packets to the peer may carry up to `max_payload` payload bytes:
    /// the engine cuts messages to it at this size instead of the
    /// profile's MTU, until the peer's `Down` or `Rejoining`. Every real
    /// link reports it — fm-shm a ring slot less the packet header (4072
    /// by default), fm-udp a 3 KiB wire frame less the header (3048, so a
    /// window of them fits a socket's default receive buffer) — and the
    /// simulator never does, so it keeps timing the profile's packets.
    Link {
        /// The largest packet payload the link to the peer carries.
        max_payload: u32,
    },
    /// The peer is (back) in full contact: heartbeats flowing, same
    /// incarnation as before (or the first one we ever saw).
    Up,
    /// Heartbeats have gone quiet past the suspicion timeout; the peer
    /// may be dead, partitioned, or merely stalled. Traffic to it should
    /// be deprioritized but state is kept.
    Suspect,
    /// The peer exceeded the down timeout (or said goodbye). In-flight
    /// state toward it is abandoned; upper layers must not wait on it.
    Down,
    /// The peer came back with a *newer incarnation epoch* (it
    /// restarted). All per-peer protocol state — sequence numbers,
    /// retransmit rings, partial messages — from the old incarnation is
    /// invalid and must be reset before any of its new-epoch data is
    /// processed.
    Rejoining,
}

/// One membership transition, delivered by [`NetDevice::poll_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerEvent {
    /// Which peer changed state.
    pub peer: usize,
    /// The new state.
    pub kind: PeerEventKind,
    /// The peer's incarnation epoch as of this transition (0 when the
    /// substrate does not track epochs).
    pub epoch: u64,
}

/// A non-blocking NIC interface plus clock and cost sink.
pub trait NetDevice {
    /// This node's id (dense, 0-based).
    fn node_id(&self) -> usize;
    /// Number of nodes reachable through this device.
    fn num_nodes(&self) -> usize;
    /// Hand a packet to the NIC. Fails (without consuming the packet's
    /// slot) when the bounded send queue is full.
    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull>;
    /// Pull the next fully-received packet, if any.
    fn try_recv(&mut self) -> Option<FmPacket>;
    /// Free slots in the NIC send queue: an answer of `k` or more means
    /// the next `k` [`NetDevice::try_send`] calls succeed, whatever their
    /// destinations. The queue may drain between calls but fills only
    /// through `try_send`, so the engine remembers the answer, counts its
    /// own sends off it and asks again only when that runs out — once
    /// per burst, not once per packet.
    fn send_space(&self) -> usize;
    /// Current time (virtual on the simulator, wall on real transports).
    fn now(&self) -> Nanos;
    /// Account host compute cost (virtual time; no-op on real transports,
    /// where the cost is the real CPU time actually spent).
    fn charge(&mut self, cost: Nanos);
    /// Ask the substrate to re-poll the engine's owner at (or after) time
    /// `at` even if nothing arrives — a timer alarm. The reliability
    /// sublayer uses this so retransmit timeouts fire on an otherwise
    /// quiet network. Default: no-op (real transports are polled by
    /// spinning callers; the simulator overrides it to schedule a wake
    /// event).
    fn request_wake(&mut self, at: Nanos) {
        let _ = at;
    }
    /// True when some link of this substrate can genuinely drop,
    /// duplicate, or reorder packets; [`NetDevice::is_lossy_to`] answers
    /// it for every peer unless told better. Default: `false`.
    fn is_lossy(&self) -> bool {
        false
    }
    /// True when the link to `peer` can genuinely drop, duplicate, or
    /// reorder packets: the engine then runs the retransmit sublayer
    /// ([`crate::reliable`]) toward that peer and trusts every other
    /// link, as FM trusts Myrinet. Asked once per peer when the engine
    /// is built; both ends of a link must answer alike. Default:
    /// [`NetDevice::is_lossy`].
    fn is_lossy_to(&self, peer: usize) -> bool {
        let _ = peer;
        self.is_lossy()
    }
    /// Substrate serial of the packet accepted by the most recent
    /// successful [`NetDevice::try_send`], when the substrate stamps one
    /// (the simulator does; serials join engine observability events with
    /// the packet-lifecycle trace). Default: `None` — substrates without
    /// serials need no code.
    fn last_sent_serial(&self) -> Option<u64> {
        None
    }
    /// Substrate serial of the packet returned by the most recent
    /// [`NetDevice::try_recv`], when known. Default: `None`.
    fn last_recv_serial(&self) -> Option<u64> {
        None
    }
    /// Pull the next pending membership transition, if the substrate
    /// tracks peer liveness. The engine drains these *before* receiving
    /// data: a liveness-tracking device guarantees that no data packet
    /// from a peer's new incarnation is returned by
    /// [`NetDevice::try_recv`] while a [`PeerEventKind::Rejoining`] or
    /// [`PeerEventKind::Down`] event for that peer is still queued here —
    /// that ordering is what lets the engine reset per-peer sequence
    /// state without racing the new traffic. A device reports a
    /// [`PeerEventKind::SameHost`] or [`PeerEventKind::Link`] fact
    /// before it returns any packet from that peer, or never. Default:
    /// `None` (static membership).
    fn poll_event(&mut self) -> Option<PeerEvent> {
        None
    }
}

/// [`NetDevice`] over the discrete-event simulator.
pub struct SimDevice {
    iface: HostInterface<FmPacket>,
}

impl SimDevice {
    /// Wrap a simulator host interface.
    pub fn new(iface: HostInterface<FmPacket>) -> Self {
        SimDevice { iface }
    }
}

impl NetDevice for SimDevice {
    fn node_id(&self) -> usize {
        self.iface.node_id().0
    }

    fn num_nodes(&self) -> usize {
        self.iface.num_nodes()
    }

    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        let wire = pkt.wire_bytes();
        let sp = SimPacket::new(
            NodeId(pkt.header.src as usize),
            NodeId(pkt.header.dst as usize),
            wire,
            pkt,
        );
        self.iface.try_send(sp).map_err(|_| DeviceFull)
    }

    fn try_recv(&mut self) -> Option<FmPacket> {
        self.iface.try_recv().map(|sp| sp.payload)
    }

    fn send_space(&self) -> usize {
        self.iface.send_space()
    }

    fn now(&self) -> Nanos {
        self.iface.now()
    }

    fn charge(&mut self, cost: Nanos) {
        self.iface.charge(cost);
    }

    fn request_wake(&mut self, at: Nanos) {
        self.iface.request_wake(at);
    }

    /// Lossy exactly when the simulation has a fault model installed.
    fn is_lossy(&self) -> bool {
        self.iface.faulty()
    }

    fn last_sent_serial(&self) -> Option<u64> {
        self.iface.last_sent_serial()
    }

    fn last_recv_serial(&self) -> Option<u64> {
        self.iface.last_recv_serial()
    }
}

/// A deterministic in-process two-node network with unbounded-ish queues
/// and no timing model. For protocol unit tests only.
pub struct LoopbackDevice {
    node: usize,
    /// Outgoing packets (drained into the peer by [`LoopbackPair::deliver`]).
    out: std::collections::VecDeque<FmPacket>,
    /// Incoming packets.
    inq: std::collections::VecDeque<FmPacket>,
    /// Events queued by [`LoopbackDevice::report`].
    events: std::collections::VecDeque<PeerEvent>,
    capacity: usize,
    clock: Nanos,
    /// What [`NetDevice::is_lossy`] answers.
    lossy: bool,
}

/// A pair of [`LoopbackDevice`] endpoints with manual packet delivery —
/// tests decide exactly when packets move, which makes interleavings easy
/// to construct.
pub struct LoopbackPair;

impl LoopbackPair {
    /// Two connected endpoints with `capacity`-bounded send queues, over
    /// a link that never loses a packet the test does not take.
    #[allow(clippy::new_ret_no_self)] // a factory for the pair, by design
    pub fn new(capacity: usize) -> (LoopbackDevice, LoopbackDevice) {
        let end = |node| LoopbackDevice {
            node,
            out: Default::default(),
            inq: Default::default(),
            events: Default::default(),
            capacity,
            clock: Nanos::ZERO,
            lossy: false,
        };
        (end(0), end(1))
    }

    /// Two endpoints as [`LoopbackPair::new`] makes them, over a link
    /// that says it may lose packets: engines over it retransmit, and
    /// the test plays the loss.
    pub fn lossy(capacity: usize) -> (LoopbackDevice, LoopbackDevice) {
        let (mut a, mut b) = Self::new(capacity);
        (a.lossy, b.lossy) = (true, true);
        (a, b)
    }

    /// Move every queued packet from `a`'s out-queue to `b`'s in-queue and
    /// vice versa. Returns the number of packets moved.
    pub fn deliver(a: &mut LoopbackDevice, b: &mut LoopbackDevice) -> usize {
        let mut n = 0;
        while let Some(p) = a.out.pop_front() {
            b.inq.push_back(p);
            n += 1;
        }
        while let Some(p) = b.out.pop_front() {
            a.inq.push_back(p);
            n += 1;
        }
        n
    }

    /// Move at most one packet in each direction (for fine-grained
    /// interleaving tests). Returns the number of packets moved.
    pub fn deliver_one(a: &mut LoopbackDevice, b: &mut LoopbackDevice) -> usize {
        let mut n = 0;
        if let Some(p) = a.out.pop_front() {
            b.inq.push_back(p);
            n += 1;
        }
        if let Some(p) = b.out.pop_front() {
            a.inq.push_back(p);
            n += 1;
        }
        n
    }
}

impl LoopbackDevice {
    /// Queue `ev` for [`NetDevice::poll_event`], as a device that tracks
    /// membership or locality would: a test plays the substrate telling
    /// the engine that its peer went down, or shares this host over a
    /// link of some packet size.
    pub fn report(&mut self, ev: PeerEvent) {
        self.events.push_back(ev);
    }
}

#[cfg(test)]
impl LoopbackDevice {
    /// Remove the `idx`-th queued outgoing packet — lets protocol tests
    /// simulate a loss below FM and check that the guarantees notice.
    pub(crate) fn out_remove_for_test(&mut self, idx: usize) -> FmPacket {
        self.out.remove(idx).expect("packet index in range")
    }
}

impl NetDevice for LoopbackDevice {
    fn node_id(&self) -> usize {
        self.node
    }

    fn num_nodes(&self) -> usize {
        2
    }

    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        if self.out.len() >= self.capacity {
            return Err(DeviceFull);
        }
        self.out.push_back(pkt);
        Ok(())
    }

    fn try_recv(&mut self) -> Option<FmPacket> {
        self.inq.pop_front()
    }

    fn send_space(&self) -> usize {
        self.capacity - self.out.len()
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

    fn poll_event(&mut self) -> Option<PeerEvent> {
        self.events.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{HandlerId, PacketFlags, PacketHeader};

    fn pkt(src: u16, dst: u16, n: u8) -> FmPacket {
        FmPacket {
            header: PacketHeader {
                src,
                dst,
                handler: HandlerId(0),
                msg_seq: 0,
                pkt_seq: n as u32,
                msg_len: 1,
                flags: PacketFlags::FIRST | PacketFlags::LAST,
                credits: 0,
                ack: 0,
            },
            payload: vec![n].into(),
        }
    }

    #[test]
    fn loopback_moves_packets_both_ways() {
        let (mut a, mut b) = LoopbackPair::new(8);
        assert_eq!(a.node_id(), 0);
        assert_eq!(b.node_id(), 1);
        assert_eq!(a.num_nodes(), 2);
        a.try_send(pkt(0, 1, 1)).unwrap();
        b.try_send(pkt(1, 0, 2)).unwrap();
        assert_eq!(LoopbackPair::deliver(&mut a, &mut b), 2);
        assert_eq!(b.try_recv().unwrap().payload, vec![1]);
        assert_eq!(a.try_recv().unwrap().payload, vec![2]);
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn loopback_respects_capacity() {
        let (mut a, mut b) = LoopbackPair::new(2);
        a.try_send(pkt(0, 1, 1)).unwrap();
        a.try_send(pkt(0, 1, 2)).unwrap();
        assert_eq!(a.send_space(), 0);
        assert_eq!(a.try_send(pkt(0, 1, 3)), Err(DeviceFull));
        LoopbackPair::deliver(&mut a, &mut b);
        assert_eq!(a.send_space(), 2);
        a.try_send(pkt(0, 1, 3)).unwrap();
    }

    #[test]
    fn loopback_deliver_one_is_fine_grained() {
        let (mut a, mut b) = LoopbackPair::new(8);
        a.try_send(pkt(0, 1, 1)).unwrap();
        a.try_send(pkt(0, 1, 2)).unwrap();
        assert_eq!(LoopbackPair::deliver_one(&mut a, &mut b), 1);
        assert_eq!(b.try_recv().unwrap().payload, vec![1]);
        assert!(b.try_recv().is_none());
        assert_eq!(LoopbackPair::deliver_one(&mut a, &mut b), 1);
        assert_eq!(b.try_recv().unwrap().payload, vec![2]);
    }

    #[test]
    fn loopback_charge_advances_clock() {
        let (mut a, _) = LoopbackPair::new(1);
        assert_eq!(a.now(), Nanos::ZERO);
        a.charge(Nanos(500));
        assert_eq!(a.now(), Nanos(500));
    }
}
