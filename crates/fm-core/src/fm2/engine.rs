//! The FM 2.x engine type: one shared handle over the [`EngineCore`],
//! its constructors, accessors and membership drain. The send verbs are
//! in [`super::send`], the handler table and `FM_extract` in
//! [`super::exec`], the async handler executor in [`super::tasks`].
//!
//! The engine is a shared handle (`Clone`) so that handler tasks can send
//! messages and layered libraries can keep a reference inside their own
//! state. Interior mutability discipline: no `RefCell` borrow of the
//! engine is held while a handler future is polled, so handlers may freely
//! call engine methods (except `extract` — handlers must not recurse into
//! the extract loop).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use fm_model::{MachineProfile, Nanos};

use crate::buf::PacketBuf;
use crate::device::{NetDevice, PeerEvent, PeerEventKind};
use crate::engine::{EngineCore, HandlerTable, PacketCosts, SendCost};
use crate::error::FmError;
use crate::obs::{ObsEvent, ObsSink};
use crate::packet::{FmPacket, HandlerId};
use crate::stats::FmStats;

use super::exec::Handler;
use super::send::{Message, SendQueue};

/// The stream face's state over the shared [`EngineCore`].
pub(super) struct Inner<D: NetDevice> {
    pub(super) core: EngineCore<D>,
    /// Every registered handler, whatever its kind: a per-packet sink, a
    /// whole-message handler, an async handler and its open messages.
    pub(super) handlers: HandlerTable<Box<dyn Handler<D>>>,
    /// High-water `send_space` observation = the NIC queue's capacity
    /// (it is empty at construction). `send_space == nic_capacity` means
    /// the uplink is idle.
    pub(super) nic_capacity: usize,
    pub(super) local: VecDeque<(HandlerId, PacketBuf)>,
    /// A data packet already admitted off the device by a send that took
    /// the credits waiting ahead of it ([`Fm2Engine::send_or_queue`]):
    /// the next extract delivers it before it reads the device.
    pub(super) kept: Option<FmPacket>,
    /// Application callback for membership transitions
    /// (`FM_set_peer_handler`); invoked outside any engine borrow, so it
    /// may call engine methods.
    pub(super) peer_handler: Option<Rc<dyn Fn(PeerEvent)>>,
}

/// What a packet costs the host under FM 2.x. Payload bytes are PIO'd
/// into the NIC frame as each piece is gathered
/// ([`Fm2Engine::try_send_piece`]), so hand-off pays only the PIO setup;
/// credit and ack frames skip the flow-control bookkeeping that data
/// packets (retransmissions included) pay.
fn packet_costs(profile: &MachineProfile) -> PacketCosts {
    let control = Nanos(profile.host.per_packet_send_ns) + Nanos(profile.iobus.pio_setup_ns);
    let flow_control = Nanos(profile.host.flow_control_ns);
    let at_handoff = |fixed| SendCost {
        fixed,
        pio_ns_per_kb: 0,
    };
    PacketCosts {
        data: at_handoff(control + flow_control),
        control: at_handoff(control),
        flow_control: Some(flow_control),
    }
}

/// The FM 2.x engine for one node. Clone freely — all clones are the same
/// engine.
pub struct Fm2Engine<D: NetDevice> {
    pub(super) inner: Rc<RefCell<Inner<D>>>,
    /// Sends FM could not admit yet, one FIFO per destination (`send.rs`),
    /// in a cell of its own: a pass keeps it borrowed while it calls FM.
    pub(crate) sendq: Rc<RefCell<SendQueue>>,
}

impl<D: NetDevice> Clone for Fm2Engine<D> {
    fn clone(&self) -> Self {
        let (inner, sendq) = (Rc::clone(&self.inner), Rc::clone(&self.sendq));
        Fm2Engine { inner, sendq }
    }
}

/// A weak engine reference for capture inside handler closures.
///
/// Handlers are stored *inside* the engine, so a handler closure that
/// captured a strong [`Fm2Engine`] clone would form an `Rc` cycle
/// (engine → handler table → closure → engine) and the engine — its
/// device included — would never drop. On real transports that is worse
/// than a memory leak: the device's drop hook flushes its tail of queued
/// datagrams, so a leaked engine strands final acks and FINs in the
/// queue and wedges the peer. Layers must capture one of these instead;
/// it exposes exactly the engine surface a handler may touch.
///
/// Handlers only run while the engine is polled from `FM_extract`, so
/// the engine is always alive when these methods execute.
pub struct Fm2Handle<D: NetDevice> {
    inner: Weak<RefCell<Inner<D>>>,
    sendq: Weak<RefCell<SendQueue>>,
}

impl<D: NetDevice> Clone for Fm2Handle<D> {
    fn clone(&self) -> Self {
        let (inner, sendq) = (Weak::clone(&self.inner), Weak::clone(&self.sendq));
        Fm2Handle { inner, sendq }
    }
}

impl<D: NetDevice> Fm2Handle<D> {
    /// The live engine. Panics if the engine was dropped, which cannot
    /// happen from inside a running handler.
    fn engine(&self) -> Fm2Engine<D> {
        let gone = "handler outlived its Fm2Engine";
        let inner = self.inner.upgrade().expect(gone);
        let sendq = self.sendq.upgrade().expect(gone);
        Fm2Engine { inner, sendq }
    }

    /// See [`Fm2Engine::node_id`].
    pub fn node_id(&self) -> usize {
        self.engine().node_id()
    }

    /// See [`Fm2Engine::num_nodes`].
    pub fn num_nodes(&self) -> usize {
        self.engine().num_nodes()
    }

    /// See [`Fm2Engine::now`].
    pub fn now(&self) -> Nanos {
        self.engine().now()
    }

    /// See [`Fm2Engine::charge`].
    pub fn charge(&self, cost: Nanos) {
        self.engine().charge(cost);
    }

    /// See [`Fm2Engine::charge_memcpy`].
    pub fn charge_memcpy(&self, bytes: usize) {
        self.engine().charge_memcpy(bytes);
    }

    /// See [`Fm2Engine::same_host_pid`].
    pub fn same_host_pid(&self, peer: usize) -> Option<u32> {
        self.engine().same_host_pid(peer)
    }

    /// See [`Fm2Engine::send_from_handler`].
    pub fn send_from_handler<'a>(&self, dst: usize, id: HandlerId, msg: impl Into<Message<'a>>) {
        self.engine().send_from_handler(dst, id, msg);
    }

    /// Add `e` to the log [`Fm2Engine::take_errors`] empties and count
    /// it in [`FmStats::errors_reported`]: how a layer above FM reports
    /// a peer's message its handler dropped
    /// ([`FmError::MalformedMessage`]).
    pub fn report_error(&self, e: FmError) {
        self.engine().inner.borrow_mut().core.report_error(e);
    }
}

impl<D: NetDevice> Fm2Engine<D> {
    /// An FM 2.x engine over `device`, charging costs per `profile`.
    /// It retransmits where a link may lose packets ([`NetDevice::is_lossy_to`]).
    pub fn new(device: D, profile: MachineProfile) -> Self {
        let costs = packet_costs(&profile);
        Fm2Engine {
            sendq: SendQueue::new(device.num_nodes()),
            inner: Rc::new(RefCell::new(Inner {
                // The NIC queue is empty at construction: its free space
                // is its capacity, the send queue's uplink-idle mark.
                nic_capacity: device.send_space(),
                core: EngineCore::new(device, profile, costs),
                handlers: HandlerTable::new(),
                local: VecDeque::new(),
                kept: None,
                peer_handler: None,
            })),
        }
    }

    /// Attach an observability sink: every send, extract, handler and
    /// reliability action is recorded into it as an [`ObsEvent`] from now
    /// on. Recording never charges the device clock, so attaching a sink
    /// does not perturb virtual-time measurements.
    pub fn attach_obs(&self, sink: ObsSink) {
        self.inner.borrow_mut().core.obs = Some(sink);
    }

    /// A handle to the attached observability sink, if any.
    pub fn obs(&self) -> Option<ObsSink> {
        self.inner.borrow().core.obs.clone()
    }

    /// Record a layered-library event into the attached sink (no-op
    /// without one). The closure receives the device clock and node id,
    /// like the engine's own record sites; recording never charges the
    /// device clock. Used by MPI-FM to mark collective phases so they
    /// join the engine's spans in chrome traces.
    pub fn obs_record(&self, make: impl FnOnce(Nanos, u16) -> ObsEvent) {
        self.inner.borrow().core.obs_emit(make);
    }

    /// This node's id.
    pub fn node_id(&self) -> usize {
        self.inner.borrow().core.device.node_id()
    }

    /// A weak handle safe to capture inside handler closures (a strong
    /// clone there would cycle and leak the engine — see [`Fm2Handle`]).
    pub fn handle(&self) -> Fm2Handle<D> {
        let (inner, sendq) = (Rc::downgrade(&self.inner), Rc::downgrade(&self.sendq));
        Fm2Handle { inner, sendq }
    }

    /// Number of nodes in the network.
    pub fn num_nodes(&self) -> usize {
        self.inner.borrow().core.device.num_nodes()
    }

    /// Current time (virtual on the simulator).
    pub fn now(&self) -> Nanos {
        self.inner.borrow().core.device.now()
    }

    /// Engine counters (pool hit/miss counters folded in live).
    pub fn stats(&self) -> FmStats {
        self.inner.borrow().core.stats()
    }

    /// The machine profile in force.
    pub fn profile(&self) -> MachineProfile {
        self.inner.borrow().core.profile
    }

    /// Run `f` with direct access to the underlying device (test harnesses
    /// and transports that need to pump packets by hand). Do not call
    /// engine methods from inside `f`.
    pub fn with_device<R>(&self, f: impl FnOnce(&mut D) -> R) -> R {
        f(self.inner.borrow_mut().core.device_mut())
    }

    /// Guarantee-violation reports accumulated by `extract` (empties the
    /// log).
    pub fn take_errors(&self) -> Vec<FmError> {
        std::mem::take(&mut self.inner.borrow_mut().core.errors)
    }

    /// `FM_set_peer_handler`: register a callback for membership
    /// transitions reported by the device (peers going
    /// up/suspect/down/rejoining, and same-host facts — see
    /// [`PeerEventKind`]). The callback runs during `extract`,
    /// `progress` or a `send_or_queue` that queues, *after* the engine
    /// has already applied the transition's protocol consequences (state
    /// reset on rejoin, retransmit abandonment on down), and outside any
    /// engine borrow, so it may call engine methods (not `extract`).
    /// Devices with static membership never produce events. Replaces any
    /// previous callback.
    pub fn set_peer_handler<F: Fn(PeerEvent) + 'static>(&self, f: F) {
        self.inner.borrow_mut().peer_handler = Some(Rc::new(f));
    }

    /// Whether `peer` is currently declared down by the device's
    /// liveness engine (false for devices with static membership).
    /// Layered blocking loops (MPI collectives) consult this to abort
    /// instead of waiting forever on a dead peer; a later `Up` or
    /// `Rejoining` transition clears it.
    pub fn is_peer_down(&self, peer: usize) -> bool {
        self.inner.borrow().core.peers[peer].link.down
    }

    /// The process id of `peer` if the device reported it on this host
    /// ([`PeerEventKind::SameHost`]) and it has not gone `Down` or
    /// `Rejoining` since; `None` on the simulator, on UDP, and for
    /// cross-host peers.
    pub fn same_host_pid(&self, peer: usize) -> Option<u32> {
        let inner = self.inner.borrow();
        inner.core.peers.get(peer).and_then(|p| p.link.pid)
    }

    /// Whether *any* peer is currently declared down — an allocation-free
    /// check suitable for per-progress polling (unlike
    /// [`downed_peers`](Self::downed_peers), which collects).
    pub fn has_downed_peers(&self) -> bool {
        self.inner.borrow().core.has_downed_peers()
    }

    /// The peers currently declared down, in node order (empty for
    /// devices with static membership).
    pub fn downed_peers(&self) -> Vec<usize> {
        self.inner.borrow().core.downed_peers()
    }

    /// Account arbitrary host cost (for layered libraries).
    pub fn charge(&self, cost: Nanos) {
        self.inner.borrow_mut().core.device.charge(cost);
    }

    /// Account a host memcpy of `bytes` (for layered libraries; counted in
    /// [`FmStats::bytes_copied`]).
    pub fn charge_memcpy(&self, bytes: usize) {
        self.inner.borrow_mut().core.charge_memcpy(bytes);
    }

    /// Apply pending membership transitions, then run the application's
    /// peer callback for each: the core resets the shared per-peer
    /// protocol state, this face drops the kept packet from, tells every
    /// handler about (an async one ends its tasks, a sink its landings),
    /// and drops the queued sends held for, a peer that died or restarted
    /// — the one-sided port first taking back its own and ending its ops.
    /// Not while a handler runs: it is out of the table then and would
    /// miss its reset, so the events wait for the extract loop's next
    /// drain, which comes before any further packet.
    pub(super) fn drain_peer_events(&self) {
        let (events, handler) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            if inner.core.in_extract {
                return;
            }
            let mut events: Vec<PeerEvent> = Vec::new();
            while let Some(ev) = inner.core.poll_peer_event() {
                if matches!(ev.kind, PeerEventKind::Down | PeerEventKind::Rejoining) {
                    inner.kept.take_if(|p| p.header.src as usize == ev.peer);
                    for h in inner.handlers.iter_mut() {
                        h.peer_reset(ev.peer);
                    }
                }
                events.push(ev);
            }
            if events.is_empty() {
                return;
            }
            (events, inner.peer_handler.clone())
        };
        for ev in &events {
            if matches!(ev.kind, PeerEventKind::Down | PeerEventKind::Rejoining) {
                let lender = self.sendq.borrow().lender.as_ref().and_then(Weak::upgrade);
                lender.inspect(|l| l.reset(ev.peer));
                // A started stream's sequence numbers belong to the
                // peer's old incarnation.
                self.sendq.borrow_mut().purge(ev.peer, |_| true);
            }
        }
        if let Some(h) = handler {
            for ev in events {
                h(ev);
            }
        }
    }

    /// The reliability sublayer's smoothed RTT estimate toward `peer`,
    /// in nanoseconds (`None` over a trusted link or before the first
    /// sample).
    pub fn srtt_ns(&self, peer: usize) -> Option<u64> {
        let inner = self.inner.borrow();
        inner.core.peers[peer].rel.as_ref()?.srtt_ns()
    }

    /// The reliability sublayer's current base retransmit timeout toward
    /// `peer`, in nanoseconds: the RTT-derived estimate, or the initial
    /// 200 µs before the first sample (`None` over a trusted link).
    pub fn current_rto_ns(&self, peer: usize) -> Option<u64> {
        let inner = self.inner.borrow();
        Some(inner.core.peers[peer].rel.as_ref()?.current_rto_ns())
    }

    /// Data packets sent but not yet acknowledged (always 0 in
    /// trusted links). Zero means every send is confirmed delivered.
    pub fn unacked_packets(&self) -> usize {
        self.inner.borrow().core.unacked_packets()
    }

    /// Incoming messages whose handlers are still pending (suspended in
    /// `FM_receive` or waiting for more packets).
    pub fn pending_handlers(&self) -> usize {
        let inner = self.inner.borrow();
        inner.handlers.iter().map(|h| h.pending()).sum()
    }
}

#[cfg(test)]
mod edge_tests;
#[cfg(test)]
mod tests;
