//! Error types shared by both FM generations.

use std::fmt;

/// The operation cannot make progress right now (out of flow-control
/// credits or NIC send-queue space). Retry after making progress — on the
/// simulator, after yielding to the event loop; on the threaded transport,
/// the blocking wrappers spin for you.
///
/// This is back-pressure, never data loss: FM "uses flow control to ensure
/// that no message is sent unless it can be reliably delivered" (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WouldBlock;

impl fmt::Display for WouldBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "operation would block (flow control back-pressure)")
    }
}

impl std::error::Error for WouldBlock {}

/// A violated FM guarantee, surfaced by `extract`.
///
/// On a healthy (lossless) network these never occur; they exist so that
/// fault-injection tests can verify FM *notices* when its substrate
/// assumptions are broken (e.g. a CRC-dropped packet creating a sequence
/// gap) rather than silently delivering corrupt data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmError {
    /// A gap in the per-(src,dst) data packet sequence: expected `expected`
    /// from `src` but saw `got`. Indicates a lost packet below FM.
    SequenceGap {
        /// Sending node.
        src: usize,
        /// Expected packet sequence number.
        expected: u32,
        /// Observed packet sequence number.
        got: u32,
    },
    /// A packet referenced a handler id that was never registered.
    UnknownHandler {
        /// The unregistered handler id.
        handler: u32,
    },
    /// A non-FIRST packet arrived for a message the receiver has no stream
    /// state for (its FIRST packet was lost).
    OrphanPacket {
        /// Sending node.
        src: usize,
        /// Message sequence number with no open stream.
        msg_seq: u32,
    },
    /// A wire header could not be decoded (truncated buffer, reserved flag
    /// bits, contradictory flags) or a header's fields do not fit the wire
    /// encoding. Malformed input is rejected, never panicked on.
    MalformedHeader {
        /// What was wrong, in words.
        reason: &'static str,
    },
    /// A layer above FM could not decode a message a peer sent to one of
    /// its handlers (an unknown kind byte, a header too short) and
    /// dropped it instead of acting on it.
    MalformedMessage {
        /// Sending node.
        src: usize,
        /// The handler the message was sent to.
        handler: u32,
    },
}

impl fmt::Display for FmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FmError::SequenceGap { src, expected, got } => write!(
                f,
                "in-order guarantee violated: expected pkt_seq {expected} from node {src}, got {got}"
            ),
            FmError::UnknownHandler { handler } => {
                write!(f, "no handler registered for id {handler}")
            }
            FmError::OrphanPacket { src, msg_seq } => write!(
                f,
                "packet for unknown message {msg_seq} from node {src} (FIRST packet missing)"
            ),
            FmError::MalformedHeader { reason } => {
                write!(f, "malformed packet header: {reason}")
            }
            FmError::MalformedMessage { src, handler } => write!(
                f,
                "malformed message from node {src} to handler {handler}, dropped"
            ),
        }
    }
}

impl std::error::Error for FmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_usefully() {
        let e = FmError::SequenceGap {
            src: 3,
            expected: 10,
            got: 12,
        };
        let s = e.to_string();
        assert!(s.contains("expected pkt_seq 10"));
        assert!(s.contains("node 3"));
        assert!(s.contains("got 12"));
        assert!(FmError::UnknownHandler { handler: 9 }
            .to_string()
            .contains("id 9"));
        assert!(FmError::OrphanPacket { src: 1, msg_seq: 4 }
            .to_string()
            .contains("message 4"));
        assert!(WouldBlock.to_string().contains("would block"));
        assert!(FmError::MalformedHeader {
            reason: "truncated"
        }
        .to_string()
        .contains("truncated"));
        let dropped = FmError::MalformedMessage { src: 2, handler: 7 }.to_string();
        assert!(dropped.contains("node 2") && dropped.contains("handler 7"));
    }
}
