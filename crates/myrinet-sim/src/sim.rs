//! The simulation: nodes, the event loop, and host program scheduling.
//!
//! A [`Simulation`] owns the fabric ([`crate::topology::Topology`]), one
//! NIC per node ([`crate::nic`]), and one *host program* per node. Host
//! programs are the "CPU side": they run inside wake events, interact with
//! the network only through their [`HostInterface`], and charge every
//! software action to virtual time. The event loop moves packets:
//!
//! ```text
//! host program ──try_send──▶ NIC send queue ──firmware──▶ fabric transit
//!        ▲                                                      │
//!   HostWake ◀── DMA complete ◀── receive firmware ◀── tail arrival
//! ```
//!
//! Scheduling contract for programs (the [`HostProgram`] trait):
//! * return [`StepOutcome::Continue`] to be woken again as soon as the
//!   charged compute time has elapsed (a busy loop in virtual time);
//! * return [`StepOutcome::Wait`] to sleep until something host-visible
//!   happens (a packet arrives, or NIC send-queue space frees up);
//! * return [`StepOutcome::Done`] when finished. The simulation ends when
//!   every program is done or the event queue runs dry.

use fm_model::{MachineProfile, Nanos};

use crate::event::EventQueue;
use crate::fault::{FaultAction, FaultInjector, FaultModel};
use crate::hostif::{HostInterface, NodeStats};
use crate::nic::Nic;
use crate::packet::SimPacket;
use crate::topology::Topology;
use crate::trace::{Trace, TraceEvent, TraceKind};

/// Identifies a host in the fabric (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a host program wants after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Wake again once charged compute time has elapsed.
    Continue,
    /// Sleep until host-visible activity (packet arrival or send-queue
    /// space).
    ///
    /// Contract: return `Wait` only after consuming everything visible —
    /// the wake-up fires on *new* activity, so sleeping with packets still
    /// pending in the receive region deadlocks once traffic stops. A
    /// program that wants to pace itself while data is pending should
    /// charge the pause and return [`StepOutcome::Continue`] instead.
    ///
    /// Corollary for senders: if a blocked send is retried by first
    /// draining incoming packets (which is what returns flow-control
    /// credits), the send must be retried *again after the drain* before
    /// returning `Wait` — the classic lost-wake-up otherwise: the credits
    /// were consumed as activity, and no new activity will ever arrive.
    /// The canonical step is: `try → (fail) → extract → try → (fail) →
    /// Wait`.
    Wait,
    /// Program finished; never wake again.
    Done,
}

/// A host program: the software running on one simulated node.
pub trait HostProgram {
    /// Run one bounded slice of work. See the module docs for the
    /// scheduling contract.
    fn step(&mut self) -> StepOutcome;
}

impl<F: FnMut() -> StepOutcome> HostProgram for F {
    fn step(&mut self) -> StepOutcome {
        self()
    }
}

enum Event<P> {
    HostWake(NodeId),
    NicSendPull(NodeId),
    NicRecvArrive(NodeId, SimPacket<P>),
    DmaComplete(NodeId, SimPacket<P>),
}

struct NodeSlot<P> {
    iface: HostInterface<P>,
    program: Option<Box<dyn HostProgram>>,
    nic: Nic<P>,
    waiting: bool,
    wake_scheduled: bool,
    busy_until: Nanos,
    /// A wake that fired inside the previous step's charge window was
    /// re-queued for this time (all such early wakes coalesce into one).
    deferred_wake: Option<Nanos>,
    done: bool,
}

/// The discrete-event simulation of one cluster.
pub struct Simulation<P> {
    profile: MachineProfile,
    topo: Topology,
    nodes: Vec<NodeSlot<P>>,
    events: EventQueue<Event<P>>,
    clock: Nanos,
    fault: FaultInjector,
    fault_drops: u64,
    fault_dups: u64,
    fault_reorders: u64,
    started: bool,
    done_count: usize,
    trace: Option<Trace>,
    /// Reusable buffer the per-wake send-ready list is swapped into, so
    /// draining it never strips a node's retained `Vec` capacity (one
    /// packet send per wake must not cost an allocation).
    send_ready_scratch: Vec<Nanos>,
}

/// Extra in-fabric delay applied to reordered packets: long enough that
/// packets injected just after them overtake (several serialization times).
const REORDER_DELAY_NS: u64 = 20_000;

impl<P: Clone> Simulation<P> {
    /// A simulation of `topology` under `profile`'s costs, fault-free.
    pub fn new(profile: MachineProfile, topology: Topology) -> Self {
        let mut sim = Simulation {
            profile,
            topo: topology,
            nodes: Vec::new(),
            events: EventQueue::new(),
            clock: Nanos::ZERO,
            fault: FaultInjector::new(FaultModel::None),
            fault_drops: 0,
            fault_dups: 0,
            fault_reorders: 0,
            started: false,
            done_count: 0,
            trace: None,
            send_ready_scratch: Vec::new(),
        };
        // One serial counter for the whole fabric: packets are stamped as
        // hosts push them (see `HostInterface::try_send`), so trace serials
        // are globally unique and visible to the sending layer.
        let serials = std::rc::Rc::new(std::cell::Cell::new(0u64));
        for i in 0..sim.topo.nodes() {
            sim.nodes.push(NodeSlot {
                iface: HostInterface::new(
                    NodeId(i),
                    sim.topo.nodes(),
                    profile.nic.send_queue_packets,
                    std::rc::Rc::clone(&serials),
                ),
                program: None,
                nic: Nic::new(profile.nic.recv_queue_packets),
                waiting: false,
                wake_scheduled: false,
                busy_until: Nanos::ZERO,
                deferred_wake: None,
                done: false,
            });
        }
        sim
    }

    /// Install a fault model (default: none). Panics while a host
    /// interface is out: it has told its host whether packets may be
    /// lost ([`HostInterface::faulty`]).
    pub fn set_fault_model(&mut self, model: FaultModel) {
        self.set_fault_models(vec![model]);
    }

    /// Install several fault models at once; they are consulted in order
    /// and the first that fires on a packet decides its fate. Panics as
    /// [`Simulation::set_fault_model`] does.
    pub fn set_fault_models(&mut self, models: Vec<FaultModel>) {
        let faulty = models.iter().any(|m| !matches!(m, FaultModel::None));
        for slot in &self.nodes {
            let out = std::rc::Rc::strong_count(&slot.iface.inner) > 1;
            assert!(
                !out,
                "install fault models before handing out a host interface"
            );
            slot.iface.inner.borrow_mut().faulty = faulty;
        }
        self.fault = FaultInjector::compose(models);
    }

    /// Record packet-lifecycle events (at most `capacity` of them).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    fn record(&mut self, t: Nanos, node: NodeId, serial: u64, kind: TraceKind, wire: u32) {
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent {
                t,
                node,
                serial,
                kind,
                wire_bytes: wire,
            });
        }
    }

    /// The machine profile in force.
    pub fn profile(&self) -> &MachineProfile {
        &self.profile
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The host interface for `node` — clone it into engines and programs.
    pub fn host_interface(&self, node: NodeId) -> HostInterface<P> {
        self.nodes[node.0].iface.clone()
    }

    /// Install `program` on `node`. Must be called for every node before
    /// [`Simulation::run`].
    pub fn set_program(&mut self, node: NodeId, program: Box<dyn HostProgram>) {
        self.nodes[node.0].program = Some(program);
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.clock
    }

    /// Traffic counters for `node`.
    pub fn stats(&self, node: NodeId) -> NodeStats {
        self.nodes[node.0].iface.stats()
    }

    /// Packets dropped by `node`'s NIC CRC check (fault injection only).
    pub fn crc_drops(&self, node: NodeId) -> u64 {
        self.nodes[node.0].nic.crc_drops
    }

    /// Packets silently dropped in the fabric by fault injection
    /// ([`FaultModel::Drop`] / [`FaultModel::DropEveryNth`]).
    pub fn fault_drops(&self) -> u64 {
        self.fault_drops
    }

    /// Packets duplicated in flight by fault injection.
    pub fn fault_dups(&self) -> u64 {
        self.fault_dups
    }

    /// Packets delayed out of order by fault injection.
    pub fn fault_reorders(&self) -> u64 {
        self.fault_reorders
    }

    /// Fabric occupancy data (link utilization, per-link packet counts).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// True when every program has returned [`StepOutcome::Done`].
    pub fn all_done(&self) -> bool {
        self.done_count == self.nodes.len()
    }

    /// Run until every program is done, the event queue is empty, or the
    /// (optional) time limit is exceeded. Returns the final virtual time.
    ///
    /// # Panics
    /// Panics if some node has no program installed.
    pub fn run(&mut self, limit: Option<Nanos>) -> Nanos {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                assert!(
                    self.nodes[i].program.is_some(),
                    "node {i} has no program installed"
                );
                self.nodes[i].wake_scheduled = true;
                self.events
                    .schedule(Nanos::ZERO, Event::HostWake(NodeId(i)));
            }
        }
        while let Some(t) = self.events.peek_time() {
            if let Some(lim) = limit {
                if t > lim {
                    self.clock = lim;
                    return self.clock;
                }
            }
            let (t, ev) = self.events.pop().expect("peeked");
            self.clock = t;
            self.dispatch(t, ev);
            if self.all_done() {
                break;
            }
        }
        self.clock
    }

    fn dispatch(&mut self, t: Nanos, ev: Event<P>) {
        match ev {
            Event::HostWake(n) => self.host_wake(t, n),
            Event::NicSendPull(n) => self.nic_send_pull(t, n),
            Event::NicRecvArrive(n, pkt) => self.nic_recv_arrive(t, n, pkt),
            Event::DmaComplete(n, pkt) => self.dma_complete(t, n, pkt),
        }
    }

    fn host_wake(&mut self, t: Nanos, n: NodeId) {
        if self.nodes[n.0].done {
            return;
        }
        // Host compute time is conserved: a wake landing inside the
        // previous step's charge window (scheduled before that charge was
        // known — e.g. a stale alarm) must not re-enter the program while
        // it is still "executing" already-charged work, or one host gets
        // to overlap its own CPU with itself and the machine model's
        // per-byte costs stop binding. Defer to the end of the busy
        // window; all early wakes coalesce into a single deferred event.
        let busy_until = self.nodes[n.0].busy_until;
        if t < busy_until {
            if self.nodes[n.0].deferred_wake != Some(busy_until) {
                self.nodes[n.0].deferred_wake = Some(busy_until);
                self.events.schedule(busy_until, Event::HostWake(n));
            }
            return;
        }
        if self.nodes[n.0].deferred_wake.is_some_and(|at| at <= t) {
            self.nodes[n.0].deferred_wake = None;
        }
        self.nodes[n.0].wake_scheduled = false;
        self.nodes[n.0].waiting = false;
        {
            let iface = &self.nodes[n.0].iface;
            let mut b = iface.inner.borrow_mut();
            b.wake_time = t;
            b.charged = Nanos::ZERO;
            b.activity = false;
            b.drained = 0;
            b.new_send_ready.clear();
        }
        // Take the program out so it can borrow its HostInterface freely
        // while we are not borrowing the node slot.
        let mut program = self.nodes[n.0].program.take().expect("program installed");
        let outcome = program.step();
        self.nodes[n.0].program = Some(program);

        // Swap — don't take — the send-ready list: taking would strip the
        // node's retained capacity and put an allocation on every
        // packet-sending wake. The two buffers circulate instead.
        let mut new_ready = std::mem::take(&mut self.send_ready_scratch);
        let (charged, drained, activity, wake_request) = {
            let mut b = self.nodes[n.0].iface.inner.borrow_mut();
            std::mem::swap(&mut new_ready, &mut b.new_send_ready);
            (b.charged, b.drained, b.activity, b.wake_request.take())
        };
        self.nodes[n.0].busy_until = t + charged;

        for ready in new_ready.drain(..) {
            self.schedule_send_pull(n, ready);
        }
        self.send_ready_scratch = new_ready;
        if drained > 0 {
            self.free_recv_slots(n, drained, t + charged);
        }

        match outcome {
            StepOutcome::Continue => {
                // Guarantee forward progress in virtual time even for a
                // zero-cost step.
                let next = t + charged.max(Nanos(1));
                self.nodes[n.0].wake_scheduled = true;
                self.events.schedule(next, Event::HostWake(n));
            }
            StepOutcome::Wait => {
                if activity {
                    // Something arrived while the program was stepping
                    // (e.g. unparked by its own drain); don't sleep through
                    // it.
                    let next = t + charged.max(Nanos(1));
                    self.nodes[n.0].wake_scheduled = true;
                    self.events.schedule(next, Event::HostWake(n));
                } else {
                    self.nodes[n.0].waiting = true;
                }
            }
            StepOutcome::Done => {
                self.nodes[n.0].done = true;
                self.done_count += 1;
            }
        }

        // Timer alarm (used by timeout-driven layers like retransmission):
        // the program asked to be woken at a specific virtual time even if
        // no network activity happens first. Scheduled *without* setting
        // `wake_scheduled`, so earlier activity can still wake the program
        // sooner; the alarm then fires as a harmless spurious wake.
        if let Some(at) = wake_request {
            if !self.nodes[n.0].done && !self.nodes[n.0].wake_scheduled {
                let at = at.max(t + charged.max(Nanos(1)));
                self.events.schedule(at, Event::HostWake(n));
            }
        }
    }

    fn schedule_send_pull(&mut self, n: NodeId, ready: Nanos) {
        let at = ready.max(self.nodes[n.0].nic.send_free_at);
        match self.nodes[n.0].nic.send_pull_pending {
            Some(p) if p <= at => {} // an earlier pull will find this entry
            _ => {
                self.nodes[n.0].nic.send_pull_pending = Some(at);
                self.events.schedule(at, Event::NicSendPull(n));
            }
        }
    }

    fn nic_send_pull(&mut self, t: Nanos, n: NodeId) {
        if self.nodes[n.0].nic.send_pull_pending == Some(t) {
            self.nodes[n.0].nic.send_pull_pending = None;
        }
        // Process at most one packet per pull event: the firmware handles
        // packets one at a time, and the pull rescheduled below paces the
        // rest.
        let front_ready = {
            let b = self.nodes[n.0].iface.inner.borrow();
            b.send_queue.front().map(|(r, _)| *r)
        };
        let Some(ready) = front_ready else { return };
        let start = ready.max(self.nodes[n.0].nic.send_free_at);
        if start > t {
            self.schedule_send_pull(n, start);
            return;
        }
        let mut pkt = {
            let mut b = self.nodes[n.0].iface.inner.borrow_mut();
            b.send_queue.pop_front().expect("front checked").1
        };
        let injected = t + Nanos(self.profile.nic.send_packet_ns);
        self.nodes[n.0].nic.send_free_at = injected;
        let action = self.fault.next_action();
        if action == FaultAction::Corrupt {
            pkt.corrupted = true;
        }
        self.record(injected, n, pkt.serial, TraceKind::Inject, pkt.wire_bytes);
        match action {
            FaultAction::Drop => {
                // The packet vanished in the fabric: it consumed send-side
                // firmware time but never arrives anywhere, and (unlike a
                // CRC drop) the receiver sees nothing at all.
                self.fault_drops += 1;
            }
            FaultAction::Duplicate => {
                self.fault_dups += 1;
                let copy = pkt.clone();
                let tail = self.topo.transit(
                    pkt.src,
                    pkt.dst,
                    injected,
                    pkt.wire_bytes,
                    &self.profile.link,
                );
                self.events
                    .schedule(tail, Event::NicRecvArrive(pkt.dst, pkt));
                // The second copy transits right behind the first; running
                // it through the topology again serializes it after the
                // original on the same links.
                let tail2 = self.topo.transit(
                    copy.src,
                    copy.dst,
                    injected,
                    copy.wire_bytes,
                    &self.profile.link,
                );
                self.events
                    .schedule(tail2, Event::NicRecvArrive(copy.dst, copy));
            }
            FaultAction::Reorder => {
                self.fault_reorders += 1;
                let tail = self.topo.transit(
                    pkt.src,
                    pkt.dst,
                    injected,
                    pkt.wire_bytes,
                    &self.profile.link,
                ) + Nanos(REORDER_DELAY_NS);
                self.events
                    .schedule(tail, Event::NicRecvArrive(pkt.dst, pkt));
            }
            FaultAction::Deliver | FaultAction::Corrupt => {
                let tail = self.topo.transit(
                    pkt.src,
                    pkt.dst,
                    injected,
                    pkt.wire_bytes,
                    &self.profile.link,
                );
                self.events
                    .schedule(tail, Event::NicRecvArrive(pkt.dst, pkt));
            }
        }
        // The firmware is busy until `injected`; pick up the next entry
        // then.
        if self.nodes[n.0]
            .iface
            .inner
            .borrow()
            .send_queue
            .front()
            .is_some()
        {
            self.schedule_send_pull(n, injected);
        }
        // Send-queue space freed: host-visible activity.
        self.notify_activity(t, n);
    }

    fn nic_recv_arrive(&mut self, t: Nanos, n: NodeId, pkt: SimPacket<P>) {
        self.record(t, n, pkt.serial, TraceKind::TailArrive, pkt.wire_bytes);
        if pkt.corrupted {
            // CRC check catches it; the packet consumes firmware time but
            // is never delivered.
            let nic = &mut self.nodes[n.0].nic;
            nic.crc_drops += 1;
            nic.recv_free_at = t.max(nic.recv_free_at) + Nanos(self.profile.nic.recv_packet_ns);
            return;
        }
        if !self.nodes[n.0].nic.recv_slot_available() {
            // Back-pressure: park, never drop.
            self.nodes[n.0].nic.parked.push_back(pkt);
            return;
        }
        let done = {
            let nic = &mut self.nodes[n.0].nic;
            nic.recv_region_used += 1;
            let start = t.max(nic.recv_free_at);
            let done = start
                + Nanos(self.profile.nic.recv_packet_ns)
                + self.profile.iobus.dma(pkt.wire_bytes as u64);
            nic.recv_free_at = done;
            done
        };
        self.events.schedule(done, Event::DmaComplete(n, pkt));
    }

    fn dma_complete(&mut self, t: Nanos, n: NodeId, pkt: SimPacket<P>) {
        self.record(t, n, pkt.serial, TraceKind::Delivered, pkt.wire_bytes);
        self.nodes[n.0]
            .iface
            .inner
            .borrow_mut()
            .recv_queue
            .push_back(pkt);
        self.notify_activity(t, n);
    }

    fn free_recv_slots(&mut self, n: NodeId, count: usize, at: Nanos) {
        let recv_packet_ns = self.profile.nic.recv_packet_ns;
        let dma = self.profile.iobus;
        let mut scheduled = Vec::new();
        {
            let nic = &mut self.nodes[n.0].nic;
            nic.recv_region_used = nic.recv_region_used.saturating_sub(count);
            // Unpark back-pressured packets in arrival order, claiming a
            // slot and scheduling the DMA for each while space remains.
            while nic.recv_slot_available() {
                let Some(pkt) = nic.parked.pop_front() else {
                    break;
                };
                nic.recv_region_used += 1;
                let start = at.max(nic.recv_free_at);
                let done = start + Nanos(recv_packet_ns) + dma.dma(pkt.wire_bytes as u64);
                nic.recv_free_at = done;
                scheduled.push((done, pkt));
            }
        }
        for (done, pkt) in scheduled {
            self.events.schedule(done, Event::DmaComplete(n, pkt));
        }
    }

    fn notify_activity(&mut self, t: Nanos, n: NodeId) {
        self.nodes[n.0].iface.inner.borrow_mut().activity = true;
        if self.nodes[n.0].waiting && !self.nodes[n.0].done && !self.nodes[n.0].wake_scheduled {
            self.nodes[n.0].waiting = false;
            self.nodes[n.0].wake_scheduled = true;
            let at = t.max(self.nodes[n.0].busy_until);
            self.events.schedule(at, Event::HostWake(n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultModel;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn two_node_sim() -> Simulation<u64> {
        Simulation::new(MachineProfile::ppro200_fm2(), Topology::single_crossbar(2))
    }

    /// Sender pushes `count` packets (charging `cost_per_pkt` each),
    /// receiver drains until it has seen `count`, recording arrival times.
    fn run_transfer(
        count: u64,
        wire_bytes: u32,
        cost_per_pkt: u64,
        fault: Option<FaultModel>,
        expect: u64,
    ) -> (Simulation<u64>, Rc<RefCell<Vec<Nanos>>>) {
        let mut sim = two_node_sim();
        if let Some(f) = fault {
            sim.set_fault_model(f);
        }
        let s = sim.host_interface(NodeId(0));
        let r = sim.host_interface(NodeId(1));
        let arrivals: Rc<RefCell<Vec<Nanos>>> = Rc::default();

        let mut next = 0u64;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                while next < count {
                    s.charge(Nanos(cost_per_pkt));
                    let pkt = SimPacket::new(NodeId(0), NodeId(1), wire_bytes, next);
                    if s.try_send(pkt).is_err() {
                        return StepOutcome::Wait;
                    }
                    next += 1;
                }
                StepOutcome::Done
            }),
        );

        let arr = Rc::clone(&arrivals);
        let mut got = 0u64;
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                while let Some(pkt) = r.try_recv() {
                    assert_eq!(pkt.payload, got, "in-order delivery");
                    got += 1;
                    arr.borrow_mut().push(r.now());
                }
                if got >= expect {
                    StepOutcome::Done
                } else {
                    StepOutcome::Wait
                }
            }),
        );
        sim.run(Some(Nanos::from_ms(100)));
        (sim, arrivals)
    }

    #[test]
    fn single_packet_end_to_end() {
        let (sim, arrivals) = run_transfer(1, 128, 500, None, 1);
        assert!(sim.all_done());
        let arr = arrivals.borrow();
        assert_eq!(arr.len(), 1);
        // Sanity on the latency budget: host 500 + NIC 450 + transit
        // (~1.4us for 128B) + recv 450 + DMA (~1.7us) — low microseconds.
        assert!(arr[0] > Nanos::from_ns(2_000), "arrival {:?}", arr[0]);
        assert!(arr[0] < Nanos::from_us(20), "arrival {:?}", arr[0]);
    }

    #[test]
    fn packets_arrive_in_order_and_all() {
        let (sim, arrivals) = run_transfer(200, 256, 300, None, 200);
        assert!(sim.all_done());
        assert_eq!(arrivals.borrow().len(), 200);
        assert_eq!(sim.stats(NodeId(1)).packets_received, 200);
        let arr = arrivals.borrow();
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn steady_state_rate_is_bottleneck_stage() {
        // With a cheap host (300 ns/pkt) and 1024+ wire bytes, the
        // bottleneck is the DMA stage (~400 + 1024B@9846ns/KB ≈ 10.2us) vs
        // link serialization (6.4us): inter-arrival should track the DMA.
        let (_, arrivals) = run_transfer(50, 1024, 300, None, 50);
        let arr = arrivals.borrow();
        let gaps: Vec<u64> = arr.windows(2).map(|w| (w[1] - w[0]).as_ns()).collect();
        let steady = &gaps[gaps.len() / 2..];
        let avg = steady.iter().sum::<u64>() as f64 / steady.len() as f64;
        assert!(
            (9_000.0..12_500.0).contains(&avg),
            "steady-state inter-arrival {avg} ns"
        );
    }

    #[test]
    fn send_queue_backpressure_blocks_then_resumes() {
        // Host cost 0 floods the 16-deep send queue instantly; the program
        // must be woken again as slots free and still deliver everything.
        let (sim, arrivals) = run_transfer(100, 512, 0, None, 100);
        assert!(sim.all_done());
        assert_eq!(arrivals.borrow().len(), 100);
    }

    #[test]
    fn receive_region_backpressure_never_drops() {
        // Receiver drains one packet per wake and charges heavily, so the
        // 32-slot receive region fills and packets park; all must still
        // arrive, in order.
        let mut sim = two_node_sim();
        let s = sim.host_interface(NodeId(0));
        let r = sim.host_interface(NodeId(1));
        let count = 200u64;

        let mut next = 0u64;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                while next < count {
                    if s.try_send(SimPacket::new(NodeId(0), NodeId(1), 64, next))
                        .is_err()
                    {
                        return StepOutcome::Wait;
                    }
                    next += 1;
                }
                StepOutcome::Done
            }),
        );
        let mut got = 0u64;
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                if let Some(pkt) = r.try_recv() {
                    assert_eq!(pkt.payload, got);
                    got += 1;
                    r.charge(Nanos::from_us(50)); // slow consumer
                    if got >= count {
                        return StepOutcome::Done;
                    }
                    // Data may still be pending: pace via Continue, not
                    // Wait (see the StepOutcome::Wait contract).
                    return StepOutcome::Continue;
                }
                StepOutcome::Wait
            }),
        );
        sim.run(Some(Nanos::from_ms(1000)));
        assert!(sim.all_done(), "slow receiver must still get everything");
        assert_eq!(sim.stats(NodeId(1)).packets_received, count);
    }

    #[test]
    fn corrupted_packets_are_dropped_by_crc() {
        // Corrupt every 10th of 100 packets; expect exactly 90 delivered.
        // The receiver can't wait for 100, so expect 90.
        let (sim, arrivals) = {
            let mut sim = two_node_sim();
            sim.set_fault_model(FaultModel::EveryNth(10));
            let s = sim.host_interface(NodeId(0));
            let r = sim.host_interface(NodeId(1));
            let arrivals: Rc<RefCell<Vec<Nanos>>> = Rc::default();
            let mut next = 0u64;
            sim.set_program(
                NodeId(0),
                Box::new(move || {
                    while next < 100 {
                        s.charge(Nanos(200));
                        if s.try_send(SimPacket::new(NodeId(0), NodeId(1), 64, next))
                            .is_err()
                        {
                            return StepOutcome::Wait;
                        }
                        next += 1;
                    }
                    StepOutcome::Done
                }),
            );
            let arr = Rc::clone(&arrivals);
            let mut got = 0u64;
            sim.set_program(
                NodeId(1),
                Box::new(move || {
                    while r.try_recv().is_some() {
                        got += 1;
                        arr.borrow_mut().push(r.now());
                    }
                    if got >= 90 {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Wait
                    }
                }),
            );
            sim.run(Some(Nanos::from_ms(100)));
            (sim, arrivals)
        };
        assert_eq!(arrivals.borrow().len(), 90);
        assert_eq!(sim.crc_drops(NodeId(1)), 10);
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let (sim_a, arr_a) = run_transfer(64, 300, 250, None, 64);
        let (sim_b, arr_b) = run_transfer(64, 300, 250, None, 64);
        assert_eq!(*arr_a.borrow(), *arr_b.borrow());
        assert_eq!(sim_a.now(), sim_b.now());
        assert_eq!(sim_a.stats(NodeId(1)), sim_b.stats(NodeId(1)));
    }

    #[test]
    fn run_respects_time_limit() {
        let mut sim = two_node_sim();
        let ifaces: Vec<_> = (0..2).map(|i| sim.host_interface(NodeId(i))).collect();
        for (i, iface) in ifaces.into_iter().enumerate() {
            sim.set_program(
                NodeId(i),
                Box::new(move || {
                    iface.charge(Nanos::from_us(1));
                    StepOutcome::Continue // busy forever
                }),
            );
        }
        let end = sim.run(Some(Nanos::from_us(100)));
        assert!(end <= Nanos::from_us(100));
        assert!(!sim.all_done());
    }

    #[test]
    #[should_panic(expected = "no program installed")]
    fn run_without_programs_panics() {
        let mut sim = two_node_sim();
        sim.run(None);
    }

    #[test]
    fn waiting_forever_terminates_with_empty_queue() {
        let mut sim = two_node_sim();
        for i in 0..2 {
            sim.set_program(NodeId(i), Box::new(move || StepOutcome::Wait));
        }
        // Both nodes wait on activity that never comes; the queue drains
        // after the two initial wakes and run() returns.
        let end = sim.run(None);
        assert_eq!(end, Nanos::ZERO);
        assert!(!sim.all_done());
    }

    #[test]
    fn bidirectional_traffic_works() {
        let mut sim = two_node_sim();
        let a = sim.host_interface(NodeId(0));
        let b = sim.host_interface(NodeId(1));
        // Each node sends 50 packets to the other and expects 50 back.
        for (iface, me, peer) in [(a, 0usize, 1usize), (b, 1, 0)] {
            let mut sent = 0u64;
            let mut got = 0u64;
            sim.set_program(
                NodeId(me),
                Box::new(move || {
                    while sent < 50 {
                        iface.charge(Nanos(300));
                        let pkt = SimPacket::new(NodeId(me), NodeId(peer), 128, sent);
                        if iface.try_send(pkt).is_err() {
                            return StepOutcome::Wait;
                        }
                        sent += 1;
                    }
                    while iface.try_recv().is_some() {
                        got += 1;
                    }
                    if got >= 50 {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Wait
                    }
                }),
            );
        }
        sim.run(Some(Nanos::from_ms(100)));
        assert!(sim.all_done());
        assert_eq!(sim.stats(NodeId(0)).packets_received, 50);
        assert_eq!(sim.stats(NodeId(1)).packets_received, 50);
    }

    #[test]
    fn dropped_packets_never_arrive_and_are_counted() {
        let mut sim = two_node_sim();
        sim.set_fault_model(FaultModel::DropEveryNth(10));
        let s = sim.host_interface(NodeId(0));
        let r = sim.host_interface(NodeId(1));
        let mut next = 0u64;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                while next < 100 {
                    s.charge(Nanos(200));
                    if s.try_send(SimPacket::new(NodeId(0), NodeId(1), 64, next))
                        .is_err()
                    {
                        return StepOutcome::Wait;
                    }
                    next += 1;
                }
                StepOutcome::Done
            }),
        );
        let mut got = 0u64;
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                while r.try_recv().is_some() {
                    got += 1;
                }
                if got >= 90 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Wait
                }
            }),
        );
        sim.run(Some(Nanos::from_ms(100)));
        assert!(sim.all_done());
        assert_eq!(sim.stats(NodeId(1)).packets_received, 90);
        assert_eq!(sim.fault_drops(), 10);
        assert_eq!(sim.crc_drops(NodeId(1)), 0, "drops are not CRC events");
    }

    #[test]
    fn duplicated_packets_arrive_twice() {
        let mut sim = two_node_sim();
        sim.set_fault_model(FaultModel::Duplicate { p: 1.0, seed: 1 });
        let s = sim.host_interface(NodeId(0));
        let r = sim.host_interface(NodeId(1));
        let mut next = 0u64;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                while next < 10 {
                    s.charge(Nanos(300));
                    if s.try_send(SimPacket::new(NodeId(0), NodeId(1), 64, next))
                        .is_err()
                    {
                        return StepOutcome::Wait;
                    }
                    next += 1;
                }
                StepOutcome::Done
            }),
        );
        let mut got = 0u64;
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                while r.try_recv().is_some() {
                    got += 1;
                }
                if got >= 20 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Wait
                }
            }),
        );
        sim.run(Some(Nanos::from_ms(100)));
        assert!(sim.all_done());
        assert_eq!(sim.stats(NodeId(1)).packets_received, 20);
        assert_eq!(sim.fault_dups(), 10);
    }

    #[test]
    fn reordered_packets_all_arrive_but_out_of_order() {
        let mut sim = two_node_sim();
        sim.set_fault_model(FaultModel::Reorder { p: 0.2, seed: 3 });
        let s = sim.host_interface(NodeId(0));
        let r = sim.host_interface(NodeId(1));
        let count = 100u64;
        let mut next = 0u64;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                while next < count {
                    s.charge(Nanos(300));
                    if s.try_send(SimPacket::new(NodeId(0), NodeId(1), 64, next))
                        .is_err()
                    {
                        return StepOutcome::Wait;
                    }
                    next += 1;
                }
                StepOutcome::Done
            }),
        );
        let order: Rc<RefCell<Vec<u64>>> = Rc::default();
        let seen = Rc::clone(&order);
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                while let Some(pkt) = r.try_recv() {
                    seen.borrow_mut().push(pkt.payload);
                }
                if seen.borrow().len() >= count as usize {
                    StepOutcome::Done
                } else {
                    StepOutcome::Wait
                }
            }),
        );
        sim.run(Some(Nanos::from_ms(100)));
        assert!(sim.all_done(), "reordering must not lose packets");
        assert!(sim.fault_reorders() > 0);
        let order = order.borrow();
        assert_eq!(order.len(), count as usize);
        assert!(
            order.windows(2).any(|w| w[0] > w[1]),
            "some packet must actually be overtaken"
        );
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..count).collect::<Vec<u64>>());
    }

    #[test]
    fn requested_wake_fires_without_activity() {
        let mut sim = two_node_sim();
        let iface = sim.host_interface(NodeId(0));
        let woken: Rc<RefCell<Vec<Nanos>>> = Rc::default();
        let log = Rc::clone(&woken);
        let mut steps = 0;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                log.borrow_mut().push(iface.now());
                steps += 1;
                if steps == 1 {
                    // No traffic anywhere: only the alarm can wake us.
                    iface.request_wake(Nanos::from_us(50));
                    StepOutcome::Wait
                } else {
                    StepOutcome::Done
                }
            }),
        );
        sim.set_program(NodeId(1), Box::new(move || StepOutcome::Done));
        let end = sim.run(None);
        assert!(sim.all_done());
        assert_eq!(woken.borrow().len(), 2);
        assert_eq!(woken.borrow()[1], Nanos::from_us(50));
        assert_eq!(end, Nanos::from_us(50));
    }

    /// Any installed model makes the fabric faulty, one that drops
    /// nothing included; a perfect-network model does not.
    #[test]
    fn a_fault_model_makes_every_interface_faulty() {
        let faulty = |models: Vec<FaultModel>| {
            let mut sim = two_node_sim();
            sim.set_fault_models(models);
            (0..2)
                .map(|i| sim.host_interface(NodeId(i)).faulty())
                .collect::<Vec<_>>()
        };
        assert_eq!(faulty(vec![]), [false, false]);
        assert_eq!(faulty(vec![FaultModel::None]), [false, false]);
        assert_eq!(
            faulty(vec![FaultModel::Drop { p: 0.0, seed: 1 }]),
            [true, true]
        );
        assert_eq!(faulty(vec![FaultModel::EveryNth(9)]), [true, true]);
    }

    /// A host told that nothing is lost is never told otherwise.
    #[test]
    #[should_panic(expected = "before handing out a host interface")]
    fn a_fault_model_cannot_follow_a_handed_out_interface() {
        let mut sim = two_node_sim();
        let _iface = sim.host_interface(NodeId(1));
        sim.set_fault_model(FaultModel::Drop { p: 0.0, seed: 1 });
    }
}
