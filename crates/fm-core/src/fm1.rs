//! Fast Messages 1.x — the first-generation API (paper §3, Table 1).
//!
//! ```text
//! FM_send_4(dest, handler, i0, i1, i2, i3)   -> Fm1Engine::try_send4
//! FM_send(dest, handler, buf, size)          -> Fm1Engine::try_send
//! FM_extract()                               -> Fm1Engine::extract
//! ```
//!
//! Semantics reproduced from the paper:
//!
//! * Messages are **contiguous buffers**; each carries a handler id, and
//!   the handler runs at the receiver when the *entire* message has
//!   arrived. Multi-packet messages are assembled into a staging buffer
//!   first — this staging copy is precisely the receive-side cost that
//!   FM 2.x's layer interleaving later eliminates (§4.1).
//! * Reliable, in-order delivery via credit-based sender flow control over
//!   a lossless network (§3.1).
//! * `FM_extract` is the only place receive processing happens (decoupled
//!   scheduling): senders make progress without it, receivers control when
//!   handlers run — but FM 1.x offers **no control over how much** is
//!   extracted; `extract` drains everything pending, which is the missing
//!   receiver flow control that FM 2.x adds.
//!
//! The engine is generic over [`NetDevice`] and charges every software
//! action to the device clock using its [`MachineProfile`] (on real
//! transports `charge` is a no-op and the cost is real CPU time).
//!
//! [`Fm1Stage`] reproduces the incremental-cost experiment of Figure 3a:
//! link management only, plus I/O-bus management, plus flow control, plus
//! full buffer management.

use std::collections::VecDeque;

use fm_model::{MachineProfile, Nanos};

use crate::buf::PacketBuf;
use crate::device::{NetDevice, PeerEventKind};
use crate::engine::{Admit, EngineCore, HandlerTable, PacketCosts, SendCost};
use crate::error::{FmError, WouldBlock};
use crate::obs::ObsSink;
use crate::packet::{HandlerId, PacketFlags};
use crate::stats::FmStats;

/// An FM 1.x message handler.
///
/// Runs inside [`Fm1Engine::extract`] once its whole message has arrived.
/// It receives the engine (so it can reply via
/// [`Fm1Engine::send_from_handler`] or account costs), the source node,
/// and the complete contiguous message.
pub type Fm1Handler<D> = Box<dyn FnMut(&mut Fm1Engine<D>, usize, &[u8])>;

/// Cumulative implementation stages for the Figure 3a overhead breakdown.
///
/// The paper measured "the simplest code needed to operate the link DMAs,
/// then with a few more lines to move data across the I/O bus, and finally
/// with the flow management code added" — each stage here enables the
/// corresponding cost/behaviour on top of the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fm1Stage {
    /// Only link/NIC management: packets move, but host-side I/O bus and
    /// flow-control costs are not charged and credits are not enforced.
    LinkOnly,
    /// Plus programmed-I/O transfer of packets across the I/O bus.
    IoBus,
    /// Plus credit-based flow control (bookkeeping and window stalls).
    FlowControl,
    /// Plus receive-side buffer management (staging assembly copies):
    /// the complete FM 1.x.
    Full,
}

impl Fm1Stage {
    /// What a packet costs the host at this stage. FM 1.x stores every
    /// packet — data, credit or ack alike — into NIC memory whole at
    /// hand-off, so all are priced by wire size.
    fn packet_costs(self, profile: &MachineProfile) -> PacketCosts {
        let io_bus = self >= Fm1Stage::IoBus;
        let flow_control = self >= Fm1Stage::FlowControl;
        let mut send = SendCost {
            fixed: Nanos(profile.host.per_packet_send_ns),
            pio_ns_per_kb: 0,
        };
        if io_bus {
            send.fixed += Nanos(profile.iobus.pio_setup_ns);
            send.pio_ns_per_kb = profile.iobus.pio_ns_per_kb;
        }
        if flow_control {
            send.fixed += Nanos(profile.host.flow_control_ns);
        }
        PacketCosts {
            data: send,
            control: send,
            flow_control: flow_control.then_some(Nanos(profile.host.flow_control_ns)),
        }
    }

    fn buffer_mgmt(self) -> bool {
        self >= Fm1Stage::Full
    }
}

/// In-progress multi-packet message from one source.
struct Assembly {
    handler: HandlerId,
    msg_seq: u32,
    msg_len: u32,
    buf: Vec<u8>,
}

/// The FM 1.x engine for one node: the contiguous-buffer face over the
/// shared [`EngineCore`].
pub struct Fm1Engine<D: NetDevice> {
    core: EngineCore<D>,
    stage: Fm1Stage,
    handlers: HandlerTable<Fm1Handler<D>>,
    /// One in-progress assembly per source (FM 1.x sends are atomic per
    /// (src,dst) pair, so one suffices).
    assembly: Vec<Option<Assembly>>,
    /// Handler-initiated sends waiting for credits/space.
    deferred: VecDeque<(usize, HandlerId, Vec<u8>)>,
    /// Self-addressed messages (delivered on the next `extract`).
    local: VecDeque<(HandlerId, PacketBuf)>,
}

impl<D: NetDevice> Fm1Engine<D> {
    /// A full FM 1.x engine (all stages enabled), retransmitting where a
    /// link may lose packets ([`NetDevice::is_lossy_to`]).
    pub fn new(device: D, profile: MachineProfile) -> Self {
        Self::with_stage(device, profile, Fm1Stage::Full)
    }

    /// An engine at a particular implementation stage (Figure 3a).
    pub fn with_stage(device: D, profile: MachineProfile, stage: Fm1Stage) -> Self {
        let n = device.num_nodes();
        let costs = stage.packet_costs(&profile);
        Fm1Engine {
            core: EngineCore::new(device, profile, costs),
            stage,
            handlers: HandlerTable::new(),
            assembly: (0..n).map(|_| None).collect(),
            deferred: VecDeque::new(),
            local: VecDeque::new(),
        }
    }

    /// Attach an observability sink: every send, extract, handler and
    /// reliability action is recorded into it as an
    /// [`ObsEvent`](crate::obs::ObsEvent) from now on. Recording never
    /// charges the device clock, so attaching a sink does not perturb
    /// virtual-time measurements.
    pub fn attach_obs(&mut self, sink: ObsSink) {
        self.core.obs = Some(sink);
    }

    /// The attached observability sink, if any.
    pub fn obs(&self) -> Option<&ObsSink> {
        self.core.obs.as_ref()
    }

    /// This node's id.
    pub fn node_id(&self) -> usize {
        self.core.device.node_id()
    }

    /// Number of nodes in the network.
    pub fn num_nodes(&self) -> usize {
        self.core.device.num_nodes()
    }

    /// Current time (virtual on the simulator).
    pub fn now(&self) -> Nanos {
        self.core.device.now()
    }

    /// Engine counters (pool hit/miss counters folded in live).
    pub fn stats(&self) -> FmStats {
        self.core.stats()
    }

    /// The machine profile in force.
    pub fn profile(&self) -> &MachineProfile {
        &self.core.profile
    }

    /// Direct access to the underlying device (test harnesses and
    /// transports that need to pump packets by hand).
    pub fn device_mut(&mut self) -> &mut D {
        self.core.device_mut()
    }

    /// Register `handler` under `id` (replacing any previous one).
    pub fn set_handler(&mut self, id: HandlerId, handler: Fm1Handler<D>) {
        self.handlers.set(id, handler);
    }

    /// Account arbitrary host cost (used by layered libraries for their own
    /// processing).
    pub fn charge(&mut self, cost: Nanos) {
        self.core.device.charge(cost);
    }

    /// Account a host memcpy of `bytes` (used by layered libraries — e.g.
    /// MPI-FM's assembly and delivery copies; also counted in
    /// [`FmStats::bytes_copied`]).
    pub fn charge_memcpy(&mut self, bytes: usize) {
        self.core.charge_memcpy(bytes);
    }

    /// Guarantee-violation reports accumulated by `extract` (empties the
    /// log).
    pub fn take_errors(&mut self) -> Vec<FmError> {
        std::mem::take(&mut self.core.errors)
    }

    /// Whether `peer` is currently declared down by the device's
    /// liveness engine (false for devices with static membership); a
    /// later `Up` or `Rejoining` transition clears it. See
    /// [`crate::Fm2Engine::is_peer_down`].
    pub fn is_peer_down(&self, peer: usize) -> bool {
        self.core.peers[peer].link.down
    }

    /// Whether *any* peer is currently declared down — the
    /// allocation-free check for per-poll use. See
    /// [`crate::Fm2Engine::has_downed_peers`].
    pub fn has_downed_peers(&self) -> bool {
        self.core.has_downed_peers()
    }

    /// The peers currently declared down, in node order (empty for
    /// devices with static membership).
    pub fn downed_peers(&self) -> Vec<usize> {
        self.core.downed_peers()
    }

    /// `FM_send`: send `data` to `dst`, invoking `handler` there.
    ///
    /// Non-blocking: returns [`WouldBlock`] (without sending anything) when
    /// flow-control credits or NIC queue space are insufficient for the
    /// whole message; retry after the next `extract`. FM 1.x hands whole
    /// messages to the NIC atomically.
    pub fn try_send(
        &mut self,
        dst: usize,
        handler: HandlerId,
        data: &[u8],
    ) -> Result<(), WouldBlock> {
        let core = &mut self.core;
        core.device.charge(Nanos(core.profile.host.send_call_ns));
        let len = data.len() as u32;
        if dst == core.device.node_id() {
            // Self-sends bypass the NIC entirely (no credits, no packets
            // on the wire) and are delivered at the next extract.
            let msg_seq = core.begin_message(dst, handler, data.len());
            self.local.push_back((handler, data.to_vec().into()));
            core.end_message(dst, handler, msg_seq, len);
            return Ok(());
        }
        let mtu = core.mtu(dst);
        let total = data.len().div_ceil(mtu).max(1);
        core.reserve(dst, total as u32, core.peers[dst].seq.send_msg, len)
            .map_err(|_| WouldBlock)?;
        let msg_seq = core.begin_message(dst, handler, data.len());
        for (i, chunk) in chunks_or_empty(data, mtu).enumerate() {
            let mut flags = PacketFlags::EMPTY;
            if i == 0 {
                flags = flags | PacketFlags::FIRST;
            }
            if i + 1 == total {
                flags = flags | PacketFlags::LAST;
            }
            let mut payload = PacketBuf::for_len(&core.pool, chunk.len());
            payload.extend_from_slice(chunk);
            core.pool.lend(&payload);
            core.emit_data(dst, handler, msg_seq, len, flags, payload);
        }
        core.end_message(dst, handler, msg_seq, len);
        Ok(())
    }

    /// `FM_send_4`: the four-word fast path.
    pub fn try_send4(
        &mut self,
        dst: usize,
        handler: HandlerId,
        words: [u32; 4],
    ) -> Result<(), WouldBlock> {
        let mut buf = [0u8; 16];
        for (i, w) in words.iter().enumerate() {
            buf[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.try_send(dst, handler, &buf)
    }

    /// Queue a message from inside a handler. Handler-initiated sends are
    /// buffered by FM and flushed by `extract`/`progress` as credits allow
    /// (a handler cannot block).
    pub fn send_from_handler(&mut self, dst: usize, handler: HandlerId, data: Vec<u8>) {
        self.deferred.push_back((dst, handler, data));
    }

    /// Flush deferred handler-initiated sends and owed explicit credits.
    /// Returns true if everything deferred has been flushed.
    pub fn progress(&mut self) -> bool {
        self.drain_peer_events();
        while let Some((dst, handler, data)) = self.deferred.pop_front() {
            if self.try_send(dst, handler, &data).is_err() {
                self.deferred.push_front((dst, handler, data));
                break;
            }
        }
        self.core.return_explicit_credits();
        self.core.reliability_poll();
        self.deferred.is_empty()
    }

    /// Apply pending membership transitions: the core resets the shared
    /// per-peer protocol state, this face drops the contiguous buffers it
    /// was filling from, and the sends it was holding for, a peer that
    /// died or restarted.
    fn drain_peer_events(&mut self) {
        while let Some(ev) = self.core.poll_peer_event() {
            if matches!(ev.kind, PeerEventKind::Down | PeerEventKind::Rejoining) {
                self.assembly[ev.peer] = None;
                self.deferred.retain(|(dst, ..)| *dst != ev.peer);
            }
        }
    }

    /// Data packets sent but not yet acknowledged (always 0 in
    /// trusted links). Zero means every send is confirmed delivered.
    pub fn unacked_packets(&self) -> usize {
        self.core.unacked_packets()
    }

    /// `FM_extract`: process **all** pending incoming packets, running the
    /// handler of each completed message. Returns the number of messages
    /// handled.
    ///
    /// FM 1.x gives the receiver no control over the amount extracted —
    /// that limitation (paper §3.2) is what FM 2.x's byte budget fixes.
    ///
    /// # Panics
    /// Panics if called from inside a handler (FM handlers must not
    /// recurse into extract).
    pub fn extract(&mut self) -> usize {
        self.core.begin_extract(usize::MAX);
        let me = self.core.device.node_id();
        let mut handled = 0;

        // Self-addressed messages first.
        while let Some((handler, payload)) = self.local.pop_front() {
            handled += self.dispatch_complete(me, handler, 0, payload);
        }

        loop {
            // Membership first: a queued Rejoining/Down event must reset
            // per-peer state before any packet that follows it is let
            // through (the device gates new-incarnation data behind its
            // event).
            self.drain_peer_events();
            let Some(pkt) = self.core.recv() else { break };
            let src = pkt.header.src as usize;
            let first = pkt.header.flags.contains(PacketFlags::FIRST);
            let last = pkt.header.flags.contains(PacketFlags::LAST);
            match self.core.admit(&pkt) {
                Admit::Control | Admit::Withheld => continue,
                Admit::Data { gap: false } => {}
                Admit::Data { gap: true } => {
                    // A contiguous buffer with a hole is worthless:
                    // abandon any partial assembly, and mid-message data
                    // can't be trusted without its start.
                    self.assembly[src] = None;
                    if !first {
                        continue;
                    }
                }
            }

            if first && last {
                // Single-packet message: deliver in place, no staging copy.
                handled += self.dispatch_complete(
                    src,
                    pkt.header.handler,
                    pkt.header.msg_seq,
                    pkt.payload,
                );
                continue;
            }
            if first {
                self.assembly[src] = Some(Assembly {
                    handler: pkt.header.handler,
                    msg_seq: pkt.header.msg_seq,
                    msg_len: pkt.header.msg_len,
                    buf: Vec::with_capacity(pkt.header.msg_len as usize),
                });
            }
            let Some(asm) = self.assembly[src].as_mut() else {
                self.core.report_error(FmError::OrphanPacket {
                    src,
                    msg_seq: pkt.header.msg_seq,
                });
                continue;
            };
            // Staging assembly: the FM 1.x receive-side copy.
            asm.buf.extend_from_slice(&pkt.payload);
            if self.stage.buffer_mgmt() {
                self.core.charge_memcpy(pkt.payload.len());
            }
            if last {
                let asm = self.assembly[src].take().expect("just appended");
                debug_assert_eq!(asm.buf.len(), asm.msg_len as usize);
                handled += self.dispatch_complete(src, asm.handler, asm.msg_seq, asm.buf.into());
            }
        }

        // Flush deferred handler sends and owed credits.
        self.progress();
        handled
    }

    fn dispatch_complete(
        &mut self,
        src: usize,
        handler: HandlerId,
        msg_seq: u32,
        data: PacketBuf,
    ) -> usize {
        let Some(mut h) = self.handlers.take(handler) else {
            // The table lookup is the dispatch cost; a miss still pays it.
            let dispatch = Nanos(self.core.profile.host.handler_dispatch_ns);
            self.core.device.charge(dispatch);
            self.core
                .report_error(FmError::UnknownHandler { handler: handler.0 });
            return 0;
        };
        let len = data.len() as u32;
        self.core.handler_started(src, handler, msg_seq, len);
        self.core.in_extract = true;
        h(self, src, &data);
        self.core.in_extract = false;
        self.core.message_ended(src, handler, msg_seq, len);
        self.handlers.restore(handler, h);
        1
    }
}

/// Chunk `data` by `mtu`, yielding one empty chunk for empty data (every
/// message is at least one packet).
fn chunks_or_empty(data: &[u8], mtu: usize) -> impl Iterator<Item = &[u8]> {
    let empty: &[u8] = &[];
    let use_empty = data.is_empty();
    data.chunks(mtu)
        .chain(std::iter::once(empty).filter(move |_| use_empty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{LoopbackDevice, LoopbackPair};
    use crate::packet::FmPacket;
    use std::cell::RefCell;
    use std::rc::Rc;

    const H: HandlerId = HandlerId(1);

    fn profile() -> MachineProfile {
        MachineProfile::sparc_fm1()
    }

    fn pair() -> (Fm1Engine<LoopbackDevice>, Fm1Engine<LoopbackDevice>) {
        // Device capacity strictly above the credit window so credit
        // exhaustion, not queue exhaustion, is what tests observe.
        let (a, b) = LoopbackPair::new(256);
        (Fm1Engine::new(a, profile()), Fm1Engine::new(b, profile()))
    }

    type MsgLog = Rc<RefCell<Vec<(usize, Vec<u8>)>>>;

    /// Install a handler that appends (src, message bytes) to a shared log.
    fn recording_handler(e: &mut Fm1Engine<LoopbackDevice>, id: HandlerId) -> MsgLog {
        let log: MsgLog = Rc::default();
        let l = Rc::clone(&log);
        e.set_handler(
            id,
            Box::new(move |_, src, data| l.borrow_mut().push((src, data.to_vec()))),
        );
        log
    }

    fn deliver(a: &mut Fm1Engine<LoopbackDevice>, b: &mut Fm1Engine<LoopbackDevice>) {
        LoopbackPair::deliver(&mut a.core.device, &mut b.core.device);
    }

    #[test]
    fn small_message_round_trip() {
        let (mut s, mut r) = pair();
        let log = recording_handler(&mut r, H);
        s.try_send(1, H, b"hello").unwrap();
        deliver(&mut s, &mut r);
        assert_eq!(r.extract(), 1);
        assert_eq!(*log.borrow(), vec![(0, b"hello".to_vec())]);
        assert_eq!(s.stats().messages_sent, 1);
        assert_eq!(r.stats().messages_received, 1);
        assert_eq!(r.stats().bytes_received, 5);
    }

    #[test]
    fn multi_packet_message_is_assembled() {
        let (mut s, mut r) = pair();
        let log = recording_handler(&mut r, H);
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        s.try_send(1, H, &data).unwrap();
        assert_eq!(s.stats().packets_sent, 8, "1000 B / 128 B MTU");
        deliver(&mut s, &mut r);
        assert_eq!(r.extract(), 1);
        assert_eq!(log.borrow()[0].1, data);
        // Staging copy happened (multi-packet).
        assert_eq!(r.stats().bytes_copied, 1000);
    }

    #[test]
    fn single_packet_message_has_no_staging_copy() {
        let (mut s, mut r) = pair();
        let _log = recording_handler(&mut r, H);
        s.try_send(1, H, &[7u8; 100]).unwrap();
        deliver(&mut s, &mut r);
        r.extract();
        assert_eq!(r.stats().bytes_copied, 0, "delivered in place");
    }

    #[test]
    fn send4_fast_path() {
        let (mut s, mut r) = pair();
        let log = recording_handler(&mut r, H);
        s.try_send4(1, H, [1, 2, 3, 0xDEADBEEF]).unwrap();
        deliver(&mut s, &mut r);
        r.extract();
        let data = &log.borrow()[0].1;
        assert_eq!(data.len(), 16);
        assert_eq!(
            u32::from_le_bytes(data[12..16].try_into().unwrap()),
            0xDEADBEEF
        );
    }

    #[test]
    fn empty_message_still_invokes_handler() {
        let (mut s, mut r) = pair();
        let log = recording_handler(&mut r, H);
        s.try_send(1, H, &[]).unwrap();
        deliver(&mut s, &mut r);
        assert_eq!(r.extract(), 1);
        assert_eq!(*log.borrow(), vec![(0, vec![])]);
    }

    #[test]
    fn messages_arrive_in_order() {
        let (mut s, mut r) = pair();
        let log = recording_handler(&mut r, H);
        for i in 0..10u8 {
            s.try_send(1, H, &[i]).unwrap();
        }
        deliver(&mut s, &mut r);
        assert_eq!(r.extract(), 10);
        let got: Vec<u8> = log.borrow().iter().map(|(_, d)| d[0]).collect();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn piggybacked_credits_on_bidirectional_traffic() {
        let (mut a, mut b) = pair();
        let _la = recording_handler(&mut a, H);
        let _lb = recording_handler(&mut b, H);
        // a -> b, b drains, then b -> a data packet carries the credit.
        a.try_send(1, H, b"x").unwrap();
        deliver(&mut a, &mut b);
        b.extract();
        assert_eq!(b.flow_owed_for_test(0), 1);
        b.try_send(0, H, b"y").unwrap();
        assert_eq!(b.flow_owed_for_test(0), 0, "credit piggybacked");
        deliver(&mut b, &mut a);
        a.extract();
        assert_eq!(a.flow_available_for_test(1), profile().fm.credits_per_peer);
    }

    #[test]
    fn device_full_reports_wouldblock() {
        let (a, b) = LoopbackPair::new(2);
        let mut s = Fm1Engine::new(a, profile());
        let mut r = Fm1Engine::new(b, profile());
        let _log = recording_handler(&mut r, H);
        // 3 packets needed, only 2 slots.
        let data = vec![0u8; 300];
        assert_eq!(s.try_send(1, H, &data), Err(WouldBlock));
        assert_eq!(s.stats().device_stalls, 1);
        assert_eq!(s.stats().packets_sent, 0, "nothing partially sent");
    }

    #[test]
    fn sequence_gap_is_detected_and_reported() {
        let (mut s, mut r) = pair();
        let log = recording_handler(&mut r, H);
        s.try_send(1, H, &[1]).unwrap();
        s.try_send(1, H, &[2]).unwrap();
        s.try_send(1, H, &[3]).unwrap();
        // Drop the middle packet in flight.
        let dropped = s.device_out_remove_for_test(1);
        assert_eq!(dropped.payload, vec![2]);
        deliver(&mut s, &mut r);
        let handled = r.extract();
        assert_eq!(handled, 2, "messages 1 and 3 still delivered");
        let errs = r.take_errors();
        assert_eq!(errs.len(), 1);
        assert!(matches!(
            errs[0],
            FmError::SequenceGap {
                src: 0,
                expected: 1,
                got: 2
            }
        ));
        assert!(r.take_errors().is_empty(), "errors drained");
        assert_eq!(log.borrow().len(), 2);
    }

    #[test]
    fn dropped_first_packet_orphans_rest_of_message() {
        let (mut s, mut r) = pair();
        let log = recording_handler(&mut r, H);
        let data = vec![9u8; 300]; // 3 packets
        s.try_send(1, H, &data).unwrap();
        let _ = s.device_out_remove_for_test(0); // drop FIRST
        deliver(&mut s, &mut r);
        assert_eq!(r.extract(), 0);
        let errs = r.take_errors();
        // The gap is detected at the middle packet (skipped after resync,
        // non-FIRST), and the LAST packet — in sequence again but with no
        // open assembly — is reported as an orphan.
        assert!(errs
            .iter()
            .any(|e| matches!(e, FmError::SequenceGap { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, FmError::OrphanPacket { src: 0, .. })));
        assert_eq!(r.stats().errors_reported, errs.len() as u64);
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn handler_can_reply_ping_pong() {
        let (mut a, mut b) = pair();
        let pong_log = recording_handler(&mut a, HandlerId(2));
        // b's handler replies with the payload incremented.
        b.set_handler(
            H,
            Box::new(|eng, src, data| {
                let reply: Vec<u8> = data.iter().map(|x| x + 1).collect();
                eng.send_from_handler(src, HandlerId(2), reply);
            }),
        );
        a.try_send(1, H, &[10, 20]).unwrap();
        deliver(&mut a, &mut b);
        b.extract(); // runs handler, queues reply; progress flushes it
        deliver(&mut b, &mut a);
        a.extract();
        assert_eq!(*pong_log.borrow(), vec![(1, vec![11, 21])]);
    }

    #[test]
    #[should_panic(expected = "may not be called from a handler")]
    fn extract_from_handler_panics() {
        let (mut s, mut r) = pair();
        r.set_handler(
            H,
            Box::new(|eng, _, _| {
                eng.extract();
            }),
        );
        s.try_send(1, H, &[1]).unwrap();
        deliver(&mut s, &mut r);
        r.extract();
    }

    #[test]
    fn unknown_handler_is_reported() {
        let (mut s, mut r) = pair();
        s.try_send(1, HandlerId(42), &[1]).unwrap();
        deliver(&mut s, &mut r);
        assert_eq!(r.extract(), 0);
        let errs = r.take_errors();
        assert!(matches!(errs[0], FmError::UnknownHandler { handler: 42 }));
    }

    #[test]
    fn self_send_is_delivered_locally() {
        let (mut a, _b) = pair();
        let log = recording_handler(&mut a, H);
        a.try_send(0, H, b"me").unwrap();
        assert_eq!(a.extract(), 1);
        assert_eq!(*log.borrow(), vec![(0, b"me".to_vec())]);
        assert_eq!(a.stats().packets_sent, 0, "no wire traffic");
    }

    #[test]
    fn stages_gate_costs() {
        // The same transfer charges strictly more virtual time at each
        // cumulative stage.
        let mut elapsed = Vec::new();
        for stage in [
            Fm1Stage::LinkOnly,
            Fm1Stage::IoBus,
            Fm1Stage::FlowControl,
            Fm1Stage::Full,
        ] {
            let (a, b) = LoopbackPair::new(64);
            let mut s = Fm1Engine::with_stage(a, profile(), stage);
            let mut r = Fm1Engine::with_stage(b, profile(), stage);
            let _log = recording_handler(&mut r, H);
            let data = vec![0u8; 512];
            s.try_send(1, H, &data).unwrap();
            LoopbackPair::deliver(&mut s.core.device, &mut r.core.device);
            r.extract();
            elapsed.push(s.now() + r.now());
        }
        assert!(
            elapsed.windows(2).all(|w| w[0] < w[1]),
            "stage costs must be cumulative: {elapsed:?}"
        );
    }

    #[test]
    fn link_only_stage_ignores_credits() {
        let (a, b) = LoopbackPair::new(1024);
        let mut s = Fm1Engine::with_stage(a, profile(), Fm1Stage::LinkOnly);
        let _r = Fm1Engine::with_stage(b, profile(), Fm1Stage::LinkOnly);
        let window = profile().fm.credits_per_peer;
        for i in 0..window * 2 {
            assert!(s.try_send(1, H, &[i as u8]).is_ok());
        }
        assert_eq!(s.stats().credit_stalls, 0);
    }

    #[test]
    fn retransmit_recovers_a_dropped_packet() {
        let (a, b) = LoopbackPair::lossy(256);
        let mut s = Fm1Engine::new(a, profile());
        let mut r = Fm1Engine::new(b, profile());
        let log = recording_handler(&mut r, H);
        for i in 1..=3u8 {
            s.try_send(1, H, &[i]).unwrap();
        }
        // Lose the middle packet below FM.
        let dropped = s.device_out_remove_for_test(1);
        assert_eq!(dropped.payload, vec![2]);
        deliver(&mut s, &mut r);
        assert_eq!(r.extract(), 1, "only message 1 deliverable in order");
        assert!(r.take_errors().is_empty(), "loss is repaired, not reported");
        assert_eq!(
            r.stats().duplicates_dropped,
            0,
            "message 3 is held, not dropped"
        );
        // The ack says: everything below packet 1, and packet 2 is here.
        // That exposes the hole, and the hole alone is re-sent.
        deliver(&mut r, &mut s);
        s.extract();
        assert_eq!(s.unacked_packets(), 2, "a SACKed packet is still unacked");
        assert_eq!(s.stats().fast_retransmits, 1);
        assert_eq!(s.stats().retransmissions, 1, "one lost packet, one re-send");
        assert_eq!(s.stats().retransmit_timeouts, 0, "ahead of the RTO");
        deliver(&mut s, &mut r);
        assert_eq!(r.extract(), 2, "message 2 repaired, message 3 released");
        deliver(&mut r, &mut s);
        s.extract();
        assert_eq!(s.unacked_packets(), 0, "everything confirmed delivered");
        let got: Vec<u8> = log.borrow().iter().map(|(_, d)| d[0]).collect();
        assert_eq!(got, vec![1, 2, 3]);
        assert!(s.take_errors().is_empty() && r.take_errors().is_empty());
        assert!(
            r.stats().acks_sent > 0,
            "one-sided traffic acked standalone"
        );
        assert_eq!(s.stats().errors_reported + r.stats().errors_reported, 0);

        // A lost tail has nothing behind it to expose it: that is the
        // timer's job, and a timeout costs one packet — the oldest
        // unacknowledged — whatever else the ring holds.
        for i in 4..=6u8 {
            s.try_send(1, H, &[i]).unwrap();
        }
        for _ in 0..3 {
            let _ = s.device_out_remove_for_test(0);
        }
        s.charge(Nanos(300_000));
        s.progress();
        assert_eq!(s.stats().retransmit_timeouts, 1);
        assert_eq!(s.stats().retransmissions, 2, "only the head was re-sent");
        deliver(&mut s, &mut r);
        assert_eq!(r.extract(), 1, "message 4 recovered");
        assert_eq!(r.stats().duplicates_dropped, 0);
    }

    #[test]
    fn retransmit_window_gates_sends_without_credits() {
        let (a, b) = LoopbackPair::lossy(256);
        let mut p = profile();
        p.fm.credits_per_peer = 4;
        let mut s = Fm1Engine::new(a, p);
        let mut r = Fm1Engine::new(b, p);
        let _log = recording_handler(&mut r, H);
        for i in 0..4u8 {
            s.try_send(1, H, &[i]).unwrap();
        }
        assert_eq!(s.try_send(1, H, &[9]), Err(WouldBlock), "window closed");
        assert_eq!(s.stats().credit_stalls, 1);
        deliver(&mut s, &mut r);
        r.extract();
        deliver(&mut r, &mut s); // acks reopen the window
        s.extract();
        assert!(s.try_send(1, H, &[9]).is_ok());
        assert_eq!(
            s.stats().credit_packets_sent + r.stats().credit_packets_sent,
            0,
            "a lossy link sends no credit packets"
        );
    }

    #[test]
    fn obs_records_send_and_receive_lifecycle() {
        use crate::obs::{ObsSink, SpanKind};
        let (mut s, mut r) = pair();
        let _log = recording_handler(&mut r, H);
        let sink_s = ObsSink::new(1024);
        let sink_r = ObsSink::new(1024);
        s.attach_obs(sink_s.clone());
        r.attach_obs(sink_r.clone());
        s.try_send(1, H, &vec![5u8; 300]).unwrap(); // 3 packets
        deliver(&mut s, &mut r);
        r.extract();
        let sk: Vec<SpanKind> = sink_s.events().iter().map(|e| e.kind).collect();
        assert!(sk.contains(&SpanKind::BeginMessage));
        assert_eq!(sk.iter().filter(|k| **k == SpanKind::PacketSend).count(), 3);
        assert!(sk.contains(&SpanKind::EndMessage));
        let rk: Vec<SpanKind> = sink_r.events().iter().map(|e| e.kind).collect();
        assert!(rk.contains(&SpanKind::ExtractPoll));
        assert_eq!(rk.iter().filter(|k| **k == SpanKind::PacketRecv).count(), 3);
        assert!(rk.contains(&SpanKind::HandlerStart));
        assert!(rk.contains(&SpanKind::HandlerEnd));
        // Begin precedes every packet send, which precede the end.
        let begin = sk
            .iter()
            .position(|k| *k == SpanKind::BeginMessage)
            .unwrap();
        let end = sk.iter().position(|k| *k == SpanKind::EndMessage).unwrap();
        for (i, k) in sk.iter().enumerate() {
            if *k == SpanKind::PacketSend {
                assert!(begin < i && i < end);
            }
        }
    }

    #[test]
    fn obs_records_stalls_and_is_absent_by_default() {
        use crate::obs::{ObsSink, SpanKind};
        let (mut s, r) = pair();
        assert!(s.obs().is_none() && r.obs().is_none());
        let sink = ObsSink::new(64);
        s.attach_obs(sink.clone());
        let window = profile().fm.credits_per_peer;
        for i in 0..window {
            s.try_send(1, H, &[i as u8]).unwrap();
        }
        // A sender polling until admitted counts every refusal and
        // traces the message's stall once.
        for _ in 0..3 {
            assert_eq!(s.try_send(1, H, &[99]), Err(WouldBlock));
        }
        assert_eq!(s.stats().credit_stalls, 3);
        let stalls = sink.events();
        let stalls = stalls
            .iter()
            .filter(|e| e.kind == SpanKind::CreditStall && e.peer == 1);
        assert_eq!(stalls.count(), 1);
    }

    // --- test-only accessors ---
    impl<D: NetDevice> Fm1Engine<D> {
        pub(crate) fn core_for_test(&self) -> &EngineCore<D> {
            &self.core
        }
    }

    impl Fm1Engine<LoopbackDevice> {
        fn flow_owed_for_test(&self, peer: usize) -> u32 {
            self.core.peers[peer].credits.owed()
        }
        fn flow_available_for_test(&self, peer: usize) -> u32 {
            self.core.peers[peer].credits.available()
        }
        fn device_out_remove_for_test(&mut self, idx: usize) -> FmPacket {
            self.core.device.out_remove_for_test(idx)
        }
    }
}
