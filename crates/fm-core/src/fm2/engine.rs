//! The FM 2.x engine type: one shared handle over the [`EngineCore`],
//! its constructors, accessors and membership drain. The send verbs are
//! in [`super::send`], `FM_extract` and the handler task executor in
//! [`super::exec`].
//!
//! The engine is a shared handle (`Clone`) so that handler tasks can send
//! messages and layered libraries can keep a reference inside their own
//! state. Interior mutability discipline: no `RefCell` borrow of the
//! engine is held while a handler future is polled, so handlers may freely
//! call engine methods (except `extract` — handlers must not recurse into
//! the extract loop).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use fm_model::{MachineProfile, Nanos};

use crate::buf::PacketBuf;
use crate::device::{NetDevice, PeerEvent, PeerEventKind};
use crate::engine::{EngineCore, HandlerTable, PacketCosts, SendCost};
use crate::error::FmError;
use crate::obs::{ObsEvent, ObsSink};
use crate::packet::HandlerId;
use crate::reliable::Reliability;
use crate::stats::FmStats;

use super::exec::{Fm2HandlerFn, SyncHandler, Task};
use super::send::DeferredSend;
use super::stream::FmStream;

/// The stream face's state over the shared [`EngineCore`].
pub(super) struct Inner<D: NetDevice> {
    pub(super) core: EngineCore<D>,
    pub(super) handlers: HandlerTable<Fm2HandlerFn>,
    /// Synchronous handlers, consulted before the async table: a
    /// per-packet sink takes every packet addressed to its id (the
    /// one-sided datapath, where payloads land without staging buffers or
    /// task allocation), a whole-message handler the messages one call
    /// can deliver; what it does not take falls through to `handlers`.
    pub(super) sync_handlers: HandlerTable<SyncHandler>,
    /// In-flight incoming messages by source, found by `msg_seq` with a
    /// linear scan: a source has one message open in the common case,
    /// and interleaved messages stay few.
    pub(super) tasks: Vec<Vec<Task>>,
    /// Stream cells of retired tasks, re-armed for the next message so
    /// that a handler task in steady state allocates only its future.
    /// Never longer than the most tasks that were open at once.
    pub(super) idle_streams: Vec<FmStream>,
    pub(super) deferred: VecDeque<DeferredSend>,
    pub(super) local: VecDeque<(HandlerId, PacketBuf)>,
    /// Distinguishes concurrently-pending local (self-send) handler tasks;
    /// local tasks count `msg_seq` down from `u32::MAX` under this node's
    /// own source slot, which cannot collide with network messages (self
    /// never sends to itself over the wire).
    pub(super) local_task_counter: u32,
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
}

impl<D: NetDevice> Clone for Fm2Engine<D> {
    fn clone(&self) -> Self {
        Fm2Engine {
            inner: Rc::clone(&self.inner),
        }
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
    inner: std::rc::Weak<RefCell<Inner<D>>>,
}

impl<D: NetDevice> Clone for Fm2Handle<D> {
    fn clone(&self) -> Self {
        Fm2Handle {
            inner: std::rc::Weak::clone(&self.inner),
        }
    }
}

impl<D: NetDevice> Fm2Handle<D> {
    /// The live engine. Panics if the engine was dropped, which cannot
    /// happen from inside a running handler.
    fn engine(&self) -> Fm2Engine<D> {
        Fm2Engine {
            inner: self
                .inner
                .upgrade()
                .expect("handler outlived its Fm2Engine"),
        }
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

    /// See [`Fm2Engine::send_from_handler`].
    pub fn send_from_handler(&self, dst: usize, handler: HandlerId, data: Vec<u8>) {
        self.engine().send_from_handler(dst, handler, data);
    }

    /// See [`Fm2Engine::send_pieces_from_handler`].
    pub fn send_pieces_from_handler(&self, dst: usize, handler: HandlerId, pieces: Vec<Vec<u8>>) {
        self.engine().send_pieces_from_handler(dst, handler, pieces);
    }
}

impl<D: NetDevice> Fm2Engine<D> {
    /// An FM 2.x engine over `device`, charging costs per `profile`.
    pub fn new(device: D, profile: MachineProfile) -> Self {
        Self::with_reliability(device, profile, Reliability::TrustSubstrate)
    }

    /// An engine with an explicit reliability mode. With
    /// [`Reliability::TrustSubstrate`] this is identical to
    /// [`Fm2Engine::new`]; with [`Reliability::Retransmit`] the sliding
    /// window replaces credit-based flow control and delivery survives a
    /// lossy substrate. Both ends of a connection must use the same mode.
    pub fn with_reliability(device: D, profile: MachineProfile, reliability: Reliability) -> Self {
        let costs = packet_costs(&profile);
        let tasks = (0..device.num_nodes()).map(|_| Vec::new()).collect();
        Fm2Engine {
            inner: Rc::new(RefCell::new(Inner {
                core: EngineCore::new(device, profile, reliability, costs),
                handlers: HandlerTable::new(),
                sync_handlers: HandlerTable::new(),
                tasks,
                idle_streams: Vec::new(),
                deferred: VecDeque::new(),
                local: VecDeque::new(),
                local_task_counter: 0,
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
        Fm2Handle {
            inner: Rc::downgrade(&self.inner),
        }
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
    /// up/suspect/down/rejoining — see [`PeerEventKind`]). The callback
    /// runs during `extract`/`progress`, *after* the engine has already
    /// applied the transition's protocol consequences (state reset on
    /// rejoin, retransmit abandonment on down), and outside any engine
    /// borrow, so it may call engine methods (not `extract`). Devices
    /// with static membership never produce events. Replaces any
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
        self.inner.borrow().core.peer_down[peer]
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
    /// protocol state, this face aborts the handler tasks fed by, and
    /// the deferred sends held for, a peer that died or restarted.
    pub(super) fn drain_peer_events(&self) {
        let (events, handler) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let mut events: Vec<PeerEvent> = Vec::new();
            while let Some(ev) = inner.core.poll_peer_event() {
                if matches!(ev.kind, PeerEventKind::Down | PeerEventKind::Rejoining) {
                    inner.tasks[ev.peer].clear();
                    inner.deferred.retain(|d| d.dst != ev.peer);
                }
                events.push(ev);
            }
            if events.is_empty() {
                return;
            }
            (events, inner.peer_handler.clone())
        };
        if let Some(h) = handler {
            for ev in events {
                h(ev);
            }
        }
    }

    /// The reliability sublayer's smoothed RTT estimate toward `peer`,
    /// in nanoseconds (`None` in TrustSubstrate mode or before the first
    /// sample).
    pub fn srtt_ns(&self, peer: usize) -> Option<u64> {
        self.inner
            .borrow()
            .core
            .reliable
            .as_ref()
            .and_then(|r| r.srtt_ns(peer))
    }

    /// The reliability sublayer's current base retransmit timeout toward
    /// `peer`, in nanoseconds: the RTT-derived estimate, or the initial
    /// 200 µs before the first sample (`None` in TrustSubstrate mode).
    pub fn current_rto_ns(&self, peer: usize) -> Option<u64> {
        self.inner
            .borrow()
            .core
            .reliable
            .as_ref()
            .map(|r| r.current_rto_ns(peer))
    }

    /// Data packets sent but not yet acknowledged (always 0 in
    /// TrustSubstrate mode). Zero means every send is confirmed delivered.
    pub fn unacked_packets(&self) -> usize {
        self.inner.borrow().core.unacked_packets()
    }

    /// Incoming messages whose handlers are still pending (suspended in
    /// `FM_receive` or waiting for more packets).
    pub fn pending_handlers(&self) -> usize {
        self.inner.borrow().tasks.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod edge_tests;
#[cfg(test)]
mod tests;
