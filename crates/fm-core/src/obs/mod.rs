//! Stack-wide observability: an opt-in, lock-cheap event ring.
//!
//! The paper's argument is an accounting exercise — *where did the
//! bandwidth go* as a message crosses the FM layer boundary. The engines'
//! [`crate::stats::FmStats`] counters answer that only in aggregate; this
//! module records the individual steps. Every interesting engine action
//! (send API calls, packet pushes, extract polls, handler scheduling,
//! credit stalls, reliability traffic) can be recorded as a timestamped
//! [`ObsEvent`] into a bounded ring ([`ObsSink`]).
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** Engines hold an `Option<ObsSink>`; the
//!    default is `None` and every record site is a single branch. Nothing
//!    here ever calls `NetDevice::charge`, so even an *attached* sink has
//!    zero effect on virtual-time measurements — recording is outside the
//!    modeled machine, like a logic analyzer on the bus.
//! 2. **Correlatable.** Packet-level events carry the substrate serial
//!    (`myrinet_sim` stamps one per packet at `try_send` and exposes it via
//!    `last_sent_serial`), so an engine-side `PacketSend` joins exactly
//!    with the simulator's `Inject → TailArrive → Delivered` lifecycle
//!    records for the same wire packet.
//! 3. **No dependencies.** Histograms are fixed log-buckets
//!    ([`LogHistogram`]), the exporter ([`chrome`]) writes the
//!    chrome://tracing JSON format by hand, and [`json`] is a tiny parser
//!    used by tests to validate the export.

pub mod chrome;
pub mod hist;
pub mod json;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use fm_model::Nanos;

pub use hist::{LogHistogram, SizeHistograms};

/// Sentinel for "no substrate serial known" (e.g. loopback devices).
pub const NO_SERIAL: u64 = u64::MAX;
/// Sentinel for "no peer" (events about the node itself, e.g. a poll).
pub const NO_PEER: u16 = u16::MAX;
/// Sentinel for "no value" in the `u32` fields (`handler`, `msg_seq`,
/// `seq`).
pub const NO_U32: u32 = u32::MAX;

/// What happened. One variant per observable lifecycle stage of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// `FM_begin_message` / `FM_send` accepted a new outgoing message.
    BeginMessage,
    /// `FM_send_piece` appended gather bytes to an open message.
    SendPiece,
    /// `FM_end_message` closed an outgoing message (all bytes staged).
    EndMessage,
    /// A data packet was handed to the device (serial correlates with the
    /// simulator trace).
    PacketSend,
    /// A send could not proceed for lack of flow-control credits (or
    /// reliability window space).
    CreditStall,
    /// A send could not proceed because the device send queue was full.
    DeviceStall,
    /// An `FM_extract` poll began (for FM 2.x, `bytes` carries the byte
    /// budget requested).
    ExtractPoll,
    /// A packet was pulled from the device (serial correlates with the
    /// simulator trace).
    PacketRecv,
    /// A handler was invoked for a newly arrived message.
    HandlerStart,
    /// An FM 2.x handler suspended in `FM_receive` waiting for more bytes.
    HandlerSuspend,
    /// A suspended FM 2.x handler was resumed by newly extracted bytes.
    HandlerResume,
    /// A handler ran to completion (message fully consumed).
    HandlerEnd,
    /// The reliability sublayer sent a standalone cumulative ack.
    AckSend,
    /// A cumulative ack was received and advanced the send window.
    AckRecv,
    /// The reliability sublayer retransmitted a data packet.
    Retransmit,
    /// A retransmit timer fired (RTO expired; backoff applied).
    RetransmitTimeout,
    /// The receive path suppressed a duplicate or out-of-window packet.
    DuplicateDrop,
    /// A collective operation started on this rank (`handler` carries the
    /// collective kind, `msg_seq` the per-rank collective sequence,
    /// `bytes` the payload size).
    CollStart,
    /// A collective advanced one communication round/phase (`seq` carries
    /// the round index).
    CollRound,
    /// A collective operation completed on this rank.
    CollEnd,
    /// A peer entered (or returned to) full contact (`peer` carries the
    /// node, `seq` the low 32 bits of its incarnation epoch).
    PeerUp,
    /// A peer's heartbeats went quiet past the suspicion timeout.
    PeerSuspect,
    /// A peer was declared down (down timeout exceeded, or goodbye).
    PeerDown,
    /// A peer returned with a newer incarnation epoch; its per-peer
    /// protocol state was reset.
    PeerRejoin,
    /// An RTT sample re-estimated the retransmit timeout (`seq` carries
    /// the new RTO in microseconds, `bytes` the RTT sample in
    /// microseconds).
    RtoUpdate,
    /// The per-peer AIMD send window was halved by a retransmit-timer
    /// expiry — the only event that shrinks it; a SACK-repaired hole
    /// leaves it alone (`seq` carries the new window in packets).
    CwndChange,
}

impl SpanKind {
    /// Every kind, in lifecycle order (useful for coverage checks).
    pub const ALL: [SpanKind; 26] = [
        SpanKind::BeginMessage,
        SpanKind::SendPiece,
        SpanKind::EndMessage,
        SpanKind::PacketSend,
        SpanKind::CreditStall,
        SpanKind::DeviceStall,
        SpanKind::ExtractPoll,
        SpanKind::PacketRecv,
        SpanKind::HandlerStart,
        SpanKind::HandlerSuspend,
        SpanKind::HandlerResume,
        SpanKind::HandlerEnd,
        SpanKind::AckSend,
        SpanKind::AckRecv,
        SpanKind::Retransmit,
        SpanKind::RetransmitTimeout,
        SpanKind::DuplicateDrop,
        SpanKind::CollStart,
        SpanKind::CollRound,
        SpanKind::CollEnd,
        SpanKind::PeerUp,
        SpanKind::PeerSuspect,
        SpanKind::PeerDown,
        SpanKind::PeerRejoin,
        SpanKind::RtoUpdate,
        SpanKind::CwndChange,
    ];

    /// Stable snake_case name (used by the chrome-trace exporter and
    /// tests).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::BeginMessage => "begin_message",
            SpanKind::SendPiece => "send_piece",
            SpanKind::EndMessage => "end_message",
            SpanKind::PacketSend => "packet_send",
            SpanKind::CreditStall => "credit_stall",
            SpanKind::DeviceStall => "device_stall",
            SpanKind::ExtractPoll => "extract_poll",
            SpanKind::PacketRecv => "packet_recv",
            SpanKind::HandlerStart => "handler_start",
            SpanKind::HandlerSuspend => "handler_suspend",
            SpanKind::HandlerResume => "handler_resume",
            SpanKind::HandlerEnd => "handler_end",
            SpanKind::AckSend => "ack_send",
            SpanKind::AckRecv => "ack_recv",
            SpanKind::Retransmit => "retransmit",
            SpanKind::RetransmitTimeout => "retransmit_timeout",
            SpanKind::DuplicateDrop => "duplicate_drop",
            SpanKind::CollStart => "coll_start",
            SpanKind::CollRound => "coll_round",
            SpanKind::CollEnd => "coll_end",
            SpanKind::PeerUp => "peer_up",
            SpanKind::PeerSuspect => "peer_suspect",
            SpanKind::PeerDown => "peer_down",
            SpanKind::PeerRejoin => "peer_rejoin",
            SpanKind::RtoUpdate => "rto_update",
            SpanKind::CwndChange => "cwnd_change",
        }
    }
}

/// One recorded engine event. Fields that do not apply to a given
/// [`SpanKind`] hold the sentinel values ([`NO_PEER`], [`NO_U32`],
/// [`NO_SERIAL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// When (device clock — virtual time under the simulator).
    pub t: Nanos,
    /// Recording node.
    pub node: u16,
    /// The other end of the exchange, or [`NO_PEER`].
    pub peer: u16,
    /// Handler involved, or [`NO_U32`].
    pub handler: u32,
    /// Message sequence number (per src→dst pair), or [`NO_U32`].
    pub msg_seq: u32,
    /// Packet sequence or ack value, or [`NO_U32`].
    pub seq: u32,
    /// Substrate packet serial (joins with `myrinet_sim::trace`), or
    /// [`NO_SERIAL`].
    pub serial: u64,
    /// What happened.
    pub kind: SpanKind,
    /// Payload/message bytes involved (0 when not applicable).
    pub bytes: u32,
}

impl ObsEvent {
    /// An event with every optional field set to its sentinel.
    pub fn new(t: Nanos, node: u16, kind: SpanKind) -> ObsEvent {
        ObsEvent {
            t,
            node,
            peer: NO_PEER,
            handler: NO_U32,
            msg_seq: NO_U32,
            seq: NO_U32,
            serial: NO_SERIAL,
            kind,
            bytes: 0,
        }
    }

    /// Set the peer node.
    pub fn peer(mut self, peer: u16) -> ObsEvent {
        self.peer = peer;
        self
    }

    /// Set the handler id.
    pub fn handler(mut self, handler: u32) -> ObsEvent {
        self.handler = handler;
        self
    }

    /// Set the message sequence number.
    pub fn msg_seq(mut self, msg_seq: u32) -> ObsEvent {
        self.msg_seq = msg_seq;
        self
    }

    /// Set the packet-sequence/ack field.
    pub fn seq(mut self, seq: u32) -> ObsEvent {
        self.seq = seq;
        self
    }

    /// Set the substrate serial from a device's `last_*_serial()` answer.
    pub fn serial_opt(mut self, serial: Option<u64>) -> ObsEvent {
        self.serial = serial.unwrap_or(NO_SERIAL);
        self
    }

    /// Set the byte count.
    pub fn bytes(mut self, bytes: u32) -> ObsEvent {
        self.bytes = bytes;
        self
    }
}

struct EventRing {
    buf: VecDeque<ObsEvent>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

/// A shared, clonable handle to one bounded event ring.
///
/// Clone it into as many engines as should feed the same ring (typically
/// one sink per node). When the ring is full the *oldest* events are
/// dropped — recent history is what a timeline viewer wants — and the drop
/// count is kept so truncation is never silent.
#[derive(Clone)]
pub struct ObsSink {
    inner: Rc<RefCell<EventRing>>,
}

impl ObsSink {
    /// A sink holding at most `capacity` events, enabled.
    pub fn new(capacity: usize) -> ObsSink {
        ObsSink {
            inner: Rc::new(RefCell::new(EventRing {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                capacity: capacity.max(1),
                dropped: 0,
                enabled: true,
            })),
        }
    }

    /// Record one event (dropping the oldest if the ring is full). A
    /// disabled sink records nothing.
    pub fn record(&self, ev: ObsEvent) {
        let mut r = self.inner.borrow_mut();
        if !r.enabled {
            return;
        }
        if r.buf.len() >= r.capacity {
            r.buf.pop_front();
            r.dropped += 1;
        }
        r.buf.push_back(ev);
    }

    /// Turn recording on or off (the ring contents are kept either way).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.borrow_mut().enabled = enabled;
    }

    /// Whether the sink currently records.
    pub fn is_enabled(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// A copy of the recorded events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.inner.borrow().buf.iter().copied().collect()
    }

    /// Drain the recorded events, oldest first.
    pub fn take_events(&self) -> Vec<ObsEvent> {
        self.inner.borrow_mut().buf.drain(..).collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.borrow().buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let sink = ObsSink::new(3);
        for i in 0..5u16 {
            sink.record(ObsEvent::new(Nanos(i as u64), i, SpanKind::ExtractPoll));
        }
        let evs = sink.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(evs[0].node, 2, "oldest events evicted first");
        assert_eq!(evs[2].node, 4);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = ObsSink::new(8);
        sink.record(ObsEvent::new(Nanos(1), 0, SpanKind::BeginMessage));
        sink.set_enabled(false);
        assert!(!sink.is_enabled());
        sink.record(ObsEvent::new(Nanos(2), 0, SpanKind::EndMessage));
        assert_eq!(sink.len(), 1, "events while disabled are discarded");
        sink.set_enabled(true);
        sink.record(ObsEvent::new(Nanos(3), 0, SpanKind::EndMessage));
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn clones_share_the_ring() {
        let a = ObsSink::new(8);
        let b = a.clone();
        b.record(ObsEvent::new(Nanos(0), 7, SpanKind::PacketSend));
        assert_eq!(a.len(), 1);
        assert_eq!(a.take_events()[0].node, 7);
        assert!(b.is_empty());
    }

    #[test]
    fn builder_sets_fields_and_sentinels() {
        let ev = ObsEvent::new(Nanos(5), 1, SpanKind::PacketSend)
            .peer(2)
            .handler(9)
            .msg_seq(3)
            .seq(11)
            .serial_opt(Some(42))
            .bytes(256);
        assert_eq!(
            (ev.peer, ev.handler, ev.msg_seq, ev.seq, ev.serial, ev.bytes),
            (2, 9, 3, 11, 42, 256)
        );
        let bare = ObsEvent::new(Nanos(0), 0, SpanKind::ExtractPoll).serial_opt(None);
        assert_eq!(bare.peer, NO_PEER);
        assert_eq!(bare.handler, NO_U32);
        assert_eq!(bare.serial, NO_SERIAL);
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SpanKind::ALL.len());
    }
}
