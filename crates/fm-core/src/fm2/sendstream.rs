//! The send-side stream handle (`FM_begin_message` … `FM_end_message`).

use crate::buf::PacketBuf;
use crate::packet::HandlerId;

/// An open outgoing message. Created by
/// [`super::Fm2Engine::begin_message`], fed by
/// [`super::Fm2Engine::try_send_piece`], finished by
/// [`super::Fm2Engine::try_end_message`].
///
/// The engine packetizes transparently: pieces accumulate in a staging
/// frame as large as the packets of the destination's link (its MTU,
/// fixed when the message opens) and full packets are flushed to the NIC
/// as credits allow.
/// Several `SendStream`s (to the same or different destinations) may be
/// open at once — their packets interleave on the wire and the receiver's
/// handler multithreading sorts them back out.
pub struct SendStream {
    pub(crate) dst: usize,
    pub(crate) handler: HandlerId,
    pub(crate) msg_seq: u32,
    pub(crate) msg_len: u32,
    /// Payload bytes accepted so far (buffered or flushed).
    pub(crate) accepted: usize,
    /// The largest payload of each packet: the destination link's MTU as
    /// the engine knew it at `begin_message`. A message opened before the
    /// device reported a larger link finishes at the size it began with.
    pub(crate) mtu: usize,
    /// Partial packet being filled (length < `mtu`): a pooled frame that
    /// pieces are written straight into (gather — no staging copy) and
    /// that *becomes* the packet payload on flush, no allocation in
    /// between. Detached after a flush; the engine re-takes a frame from
    /// its pool lazily on the next piece.
    pub(crate) pending: PacketBuf,
    /// True once the FIRST packet has been flushed.
    pub(crate) first_flushed: bool,
    /// True once END has been flushed; no further pieces allowed.
    pub(crate) ended: bool,
    /// For self-addressed messages: accumulate and deliver locally at END.
    pub(crate) local: bool,
    /// Packets still covered by the whole-message claim of
    /// [`crate::Fm2Engine::try_send_message`]: each is flushed without a
    /// claim of its own.
    pub(crate) claimed: u32,
}

impl SendStream {
    /// Destination node.
    pub fn dst(&self) -> usize {
        self.dst
    }

    /// Declared total message length.
    pub fn msg_len(&self) -> usize {
        self.msg_len as usize
    }

    /// Payload bytes accepted so far across all pieces.
    pub fn bytes_accepted(&self) -> usize {
        self.accepted
    }

    /// Bytes still to be supplied before `try_end_message`.
    pub fn bytes_remaining(&self) -> usize {
        self.msg_len as usize - self.accepted
    }

    /// True once the message has been fully sent.
    pub fn is_ended(&self) -> bool {
        self.ended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_track_progress() {
        let s = SendStream {
            dst: 3,
            handler: HandlerId(1),
            msg_seq: 0,
            msg_len: 100,
            accepted: 40,
            mtu: 1024,
            pending: PacketBuf::empty(),
            first_flushed: false,
            ended: false,
            local: false,
            claimed: 0,
        };
        assert_eq!(s.dst(), 3);
        assert_eq!(s.msg_len(), 100);
        assert_eq!(s.bytes_accepted(), 40);
        assert_eq!(s.bytes_remaining(), 60);
        assert!(!s.is_ended());
    }
}
