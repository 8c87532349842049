//! The host-side interface of a simulated node.
//!
//! A [`HostInterface`] is a shared handle (the simulator holds one end, the
//! host program — typically a Fast Messages engine — holds the other). It
//! exposes exactly what a user-level messaging layer sees on real hardware:
//!
//! * a **bounded NIC send queue** it can push packets into (the analogue of
//!   PIO-ing a packet descriptor into LANai memory),
//! * a **receive region** of packets the NIC has DMA'd to the host,
//! * the **current virtual time**, and a way to **charge** host compute
//!   cost to it.
//!
//! Time accounting: a host program runs during a wake event at simulation
//! time `t`. Every software action it performs charges nanoseconds to an
//! accumulator; an action performed after `c` accumulated nanoseconds
//! takes effect at `t + c` (e.g. a packet pushed then becomes visible to
//! the NIC at `t + c`). This models a serial host CPU without needing an
//! instruction-level simulation.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use fm_model::Nanos;

use crate::packet::SimPacket;
use crate::sim::NodeId;

/// Error returned when the NIC send queue is full; the caller must retry
/// after the NIC drains (back-pressure, not loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendQueueFull;

/// Per-node traffic counters, visible to programs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Packets pushed to the NIC send queue.
    pub packets_sent: u64,
    /// Wire bytes pushed to the NIC send queue.
    pub wire_bytes_sent: u64,
    /// Packets the host popped from the receive region.
    pub packets_received: u64,
    /// Wire bytes the host popped from the receive region.
    pub wire_bytes_received: u64,
}

pub(crate) struct HostIfInner<P> {
    pub(crate) node: NodeId,
    pub(crate) num_nodes: usize,
    /// Simulation time at the start of the current wake.
    pub(crate) wake_time: Nanos,
    /// Compute cost accumulated during the current wake.
    pub(crate) charged: Nanos,
    /// Host → NIC queue: packets with the virtual time at which the host
    /// finished producing them.
    pub(crate) send_queue: VecDeque<(Nanos, SimPacket<P>)>,
    pub(crate) send_capacity: usize,
    /// Ready times of packets pushed during the current wake; the simulator
    /// drains this after the step to schedule NIC pulls.
    pub(crate) new_send_ready: Vec<Nanos>,
    /// NIC → host receive region (packets fully DMA'd).
    pub(crate) recv_queue: VecDeque<SimPacket<P>>,
    /// Packets the host drained during the current wake (frees NIC receive
    /// region slots afterwards).
    pub(crate) drained: usize,
    /// Set by the simulator when something host-visible happened while the
    /// program was waiting.
    pub(crate) activity: bool,
    /// Earliest virtual time the program asked to be woken at regardless of
    /// network activity (timer alarm); consumed by the simulator after each
    /// step.
    pub(crate) wake_request: Option<Nanos>,
    pub(crate) stats: NodeStats,
    /// The fabric has a fault model installed.
    pub(crate) faulty: bool,
    /// Packet serial counter shared by every interface of one simulation;
    /// a serial is stamped onto each packet as it enters the send queue, so
    /// upper layers can correlate their own records with the simulator's
    /// packet-lifecycle trace.
    pub(crate) serials: Rc<Cell<u64>>,
    /// Serial stamped by the most recent successful [`HostInterface::try_send`].
    pub(crate) last_sent_serial: Option<u64>,
    /// Serial of the packet returned by the most recent
    /// [`HostInterface::try_recv`].
    pub(crate) last_recv_serial: Option<u64>,
}

/// Shared host-side handle to one simulated node. Cheap to clone.
pub struct HostInterface<P> {
    pub(crate) inner: Rc<RefCell<HostIfInner<P>>>,
}

impl<P> Clone for HostInterface<P> {
    fn clone(&self) -> Self {
        HostInterface {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<P> HostInterface<P> {
    pub(crate) fn new(
        node: NodeId,
        num_nodes: usize,
        send_capacity: usize,
        serials: Rc<Cell<u64>>,
    ) -> Self {
        HostInterface {
            inner: Rc::new(RefCell::new(HostIfInner {
                node,
                num_nodes,
                wake_time: Nanos::ZERO,
                charged: Nanos::ZERO,
                send_queue: VecDeque::new(),
                send_capacity,
                new_send_ready: Vec::new(),
                recv_queue: VecDeque::new(),
                drained: 0,
                activity: false,
                wake_request: None,
                stats: NodeStats::default(),
                faulty: false,
                serials,
                last_sent_serial: None,
                last_recv_serial: None,
            })),
        }
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// Number of nodes in the fabric.
    pub fn num_nodes(&self) -> usize {
        self.inner.borrow().num_nodes
    }

    /// Whether the simulation has a fault model installed, whatever its
    /// rates: packets to and from this node may then be lost.
    pub fn faulty(&self) -> bool {
        self.inner.borrow().faulty
    }

    /// Current virtual time as seen by the program: wake time plus compute
    /// cost charged so far in this step.
    pub fn now(&self) -> Nanos {
        let b = self.inner.borrow();
        b.wake_time + b.charged
    }

    /// Charge host compute cost (advances the program's notion of time and
    /// delays the effect of subsequent actions).
    pub fn charge(&self, cost: Nanos) {
        self.inner.borrow_mut().charged += cost;
    }

    /// Push a packet to the NIC send queue. The packet becomes visible to
    /// the NIC at the current (charged) virtual time.
    ///
    /// The caller is expected to have already charged the host-side cost of
    /// producing the packet (API overhead + PIO) — the interface itself adds
    /// nothing.
    pub fn try_send(&self, mut pkt: SimPacket<P>) -> Result<(), SendQueueFull> {
        let mut b = self.inner.borrow_mut();
        if b.send_queue.len() >= b.send_capacity {
            return Err(SendQueueFull);
        }
        // Stamp the simulation-wide packet serial here — at the moment the
        // host hands the packet over — so the sender can read it back
        // ([`HostInterface::last_sent_serial`]) and correlate its own
        // records with the lifecycle trace.
        pkt.serial = b.serials.get();
        b.serials.set(pkt.serial + 1);
        b.last_sent_serial = Some(pkt.serial);
        let ready = b.wake_time + b.charged;
        b.stats.packets_sent += 1;
        b.stats.wire_bytes_sent += pkt.wire_bytes as u64;
        b.send_queue.push_back((ready, pkt));
        b.new_send_ready.push(ready);
        Ok(())
    }

    /// Serial stamped on the packet accepted by the most recent successful
    /// [`HostInterface::try_send`], if any. Serials are unique across the
    /// whole simulation and match [`crate::trace::TraceEvent::serial`].
    pub fn last_sent_serial(&self) -> Option<u64> {
        self.inner.borrow().last_sent_serial
    }

    /// Serial of the packet returned by the most recent
    /// [`HostInterface::try_recv`], if any.
    pub fn last_recv_serial(&self) -> Option<u64> {
        self.inner.borrow().last_recv_serial
    }

    /// Free slots in the NIC send queue.
    pub fn send_space(&self) -> usize {
        let b = self.inner.borrow();
        b.send_capacity - b.send_queue.len()
    }

    /// Pop the next packet from the receive region, if any.
    pub fn try_recv(&self) -> Option<SimPacket<P>> {
        let mut b = self.inner.borrow_mut();
        let pkt = b.recv_queue.pop_front()?;
        b.last_recv_serial = Some(pkt.serial);
        b.drained += 1;
        b.stats.packets_received += 1;
        b.stats.wire_bytes_received += pkt.wire_bytes as u64;
        Some(pkt)
    }

    /// Number of packets currently visible in the receive region.
    pub fn recv_pending(&self) -> usize {
        self.inner.borrow().recv_queue.len()
    }

    /// Ask the simulator to wake this node's program at (or after) virtual
    /// time `at`, even if no network activity happens first. Multiple
    /// requests within one step keep the earliest. Timeout-driven layers
    /// (e.g. retransmission) use this so a program can [`StepOutcome::Wait`]
    /// without sleeping through its own retransmit deadline.
    pub fn request_wake(&self, at: Nanos) {
        let mut b = self.inner.borrow_mut();
        b.wake_request = Some(b.wake_request.map_or(at, |cur| cur.min(at)));
    }

    /// Traffic counters.
    pub fn stats(&self) -> NodeStats {
        self.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iface() -> HostInterface<u32> {
        HostInterface::new(NodeId(0), 2, 2, Rc::new(Cell::new(0)))
    }

    #[test]
    fn send_respects_capacity() {
        let h = iface();
        assert_eq!(h.send_space(), 2);
        h.try_send(SimPacket::new(NodeId(0), NodeId(1), 10, 1))
            .unwrap();
        h.try_send(SimPacket::new(NodeId(0), NodeId(1), 10, 2))
            .unwrap();
        assert_eq!(h.send_space(), 0);
        assert_eq!(
            h.try_send(SimPacket::new(NodeId(0), NodeId(1), 10, 3)),
            Err(SendQueueFull)
        );
        assert_eq!(h.stats().packets_sent, 2);
        assert_eq!(h.stats().wire_bytes_sent, 20);
    }

    #[test]
    fn charged_time_stamps_sends() {
        let h = iface();
        h.inner.borrow_mut().wake_time = Nanos(100);
        h.charge(Nanos(50));
        assert_eq!(h.now(), Nanos(150));
        h.try_send(SimPacket::new(NodeId(0), NodeId(1), 10, 1))
            .unwrap();
        let b = h.inner.borrow();
        assert_eq!(b.send_queue[0].0, Nanos(150));
        assert_eq!(b.new_send_ready, vec![Nanos(150)]);
    }

    #[test]
    fn recv_counts_drained() {
        let h = iface();
        h.inner
            .borrow_mut()
            .recv_queue
            .push_back(SimPacket::new(NodeId(1), NodeId(0), 10, 7));
        assert_eq!(h.recv_pending(), 1);
        let p = h.try_recv().unwrap();
        assert_eq!(p.payload, 7);
        assert_eq!(h.inner.borrow().drained, 1);
        assert_eq!(h.try_recv(), None);
        assert_eq!(h.stats().packets_received, 1);
    }

    #[test]
    fn serials_stamped_at_send_and_shared() {
        let counter = Rc::new(Cell::new(0));
        let a: HostInterface<u32> = HostInterface::new(NodeId(0), 2, 4, Rc::clone(&counter));
        let b: HostInterface<u32> = HostInterface::new(NodeId(1), 2, 4, Rc::clone(&counter));
        assert_eq!(a.last_sent_serial(), None);
        a.try_send(SimPacket::new(NodeId(0), NodeId(1), 10, 1))
            .unwrap();
        assert_eq!(a.last_sent_serial(), Some(0));
        b.try_send(SimPacket::new(NodeId(1), NodeId(0), 10, 2))
            .unwrap();
        assert_eq!(b.last_sent_serial(), Some(1), "counter is simulation-wide");
        a.try_send(SimPacket::new(NodeId(0), NodeId(1), 10, 3))
            .unwrap();
        assert_eq!(a.last_sent_serial(), Some(2));
        assert_eq!(a.inner.borrow().send_queue[0].1.serial, 0);
        assert_eq!(a.inner.borrow().send_queue[1].1.serial, 2);

        let mut pkt = SimPacket::new(NodeId(1), NodeId(0), 10, 9);
        pkt.serial = 42;
        a.inner.borrow_mut().recv_queue.push_back(pkt);
        assert_eq!(a.last_recv_serial(), None);
        a.try_recv().unwrap();
        assert_eq!(a.last_recv_serial(), Some(42));
    }

    #[test]
    fn clone_shares_state() {
        let h = iface();
        let h2 = h.clone();
        h.charge(Nanos(5));
        assert_eq!(h2.now(), Nanos(5));
        assert_eq!(h2.node_id(), NodeId(0));
        assert_eq!(h2.num_nodes(), 2);
    }
}
