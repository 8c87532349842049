//! Engine counters.
//!
//! These make the paper's copy-accounting story *observable*: the ablation
//! benches and the layering tests read `bytes_copied` and `credit_stalls`
//! to show where FM 1.x-style interfaces lose performance and FM 2.x-style
//! interfaces don't.

/// Counters kept by both FM engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FmStats {
    /// Messages fully sent (END/LAST flushed to the device).
    pub messages_sent: u64,
    /// Message payload bytes sent.
    pub bytes_sent: u64,
    /// Messages fully received (handler ran / completed).
    pub messages_received: u64,
    /// Message payload bytes received.
    pub bytes_received: u64,
    /// Data packets pushed to the device.
    pub packets_sent: u64,
    /// Data packets drained from the device.
    pub packets_received: u64,
    /// Credit-only packets sent.
    pub credit_packets_sent: u64,
    /// Host memcpy bytes performed by the engine (staging assembly,
    /// `FM_receive` copies, …). The layering-efficiency story in one
    /// number.
    pub bytes_copied: u64,
    /// Times a send could not proceed for lack of credits.
    pub credit_stalls: u64,
    /// Times a send could not proceed because the NIC queue was full.
    pub device_stalls: u64,
    /// Handler invocations (FM 1.x) or handler task spawns (FM 2.x).
    pub handlers_run: u64,
    /// Data packets re-sent by the reliability sublayer (SACK holes and
    /// timed-out heads: one re-send is one packet).
    pub retransmissions: u64,
    /// Standalone ACK_ONLY packets sent (piggybacked acks are free).
    pub acks_sent: u64,
    /// Received data packets discarded as duplicates — already delivered
    /// or already held — or out-of-window (reliability sublayer's
    /// in-order filter). A packet held for later release is not one.
    pub duplicates_dropped: u64,
    /// Retransmit timer expirations (each re-sends one packet, the
    /// oldest unacknowledged).
    pub retransmit_timeouts: u64,
    /// Resends of holes a SACK bitmap exposed, ahead of the timer (fast
    /// retransmit; a subset of `retransmissions`).
    pub fast_retransmits: u64,
    /// Per-peer protocol-state resets after a peer restarted with a new
    /// incarnation epoch (`PeerEventKind::Rejoining`).
    pub peer_resets: u64,
    /// Protocol errors surfaced to the application (`FmError`s queued).
    pub errors_reported: u64,
    /// Packet-buffer pool takes served from the free list (recycled
    /// frames — the zero-alloc steady state made visible).
    pub pool_hits: u64,
    /// Packet-buffer pool takes that had to allocate a fresh frame
    /// (warm-up, or bursts deeper than the free list).
    pub pool_misses: u64,
}

impl FmStats {
    /// Every `(label, value)` pair, in declaration order.
    fn fields(&self) -> [(&'static str, u64); 20] {
        [
            ("messages_sent", self.messages_sent),
            ("bytes_sent", self.bytes_sent),
            ("messages_received", self.messages_received),
            ("bytes_received", self.bytes_received),
            ("packets_sent", self.packets_sent),
            ("packets_received", self.packets_received),
            ("credit_packets_sent", self.credit_packets_sent),
            ("bytes_copied", self.bytes_copied),
            ("credit_stalls", self.credit_stalls),
            ("device_stalls", self.device_stalls),
            ("handlers_run", self.handlers_run),
            ("retransmissions", self.retransmissions),
            ("acks_sent", self.acks_sent),
            ("duplicates_dropped", self.duplicates_dropped),
            ("retransmit_timeouts", self.retransmit_timeouts),
            ("fast_retransmits", self.fast_retransmits),
            ("peer_resets", self.peer_resets),
            ("errors_reported", self.errors_reported),
            ("pool_hits", self.pool_hits),
            ("pool_misses", self.pool_misses),
        ]
    }

    /// Field-wise difference `self - earlier` (saturating), for reporting
    /// what happened between two snapshots.
    pub fn delta(&self, earlier: &FmStats) -> FmStats {
        FmStats {
            messages_sent: self.messages_sent.saturating_sub(earlier.messages_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            messages_received: self
                .messages_received
                .saturating_sub(earlier.messages_received),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            packets_sent: self.packets_sent.saturating_sub(earlier.packets_sent),
            packets_received: self
                .packets_received
                .saturating_sub(earlier.packets_received),
            credit_packets_sent: self
                .credit_packets_sent
                .saturating_sub(earlier.credit_packets_sent),
            bytes_copied: self.bytes_copied.saturating_sub(earlier.bytes_copied),
            credit_stalls: self.credit_stalls.saturating_sub(earlier.credit_stalls),
            device_stalls: self.device_stalls.saturating_sub(earlier.device_stalls),
            handlers_run: self.handlers_run.saturating_sub(earlier.handlers_run),
            retransmissions: self.retransmissions.saturating_sub(earlier.retransmissions),
            acks_sent: self.acks_sent.saturating_sub(earlier.acks_sent),
            duplicates_dropped: self
                .duplicates_dropped
                .saturating_sub(earlier.duplicates_dropped),
            retransmit_timeouts: self
                .retransmit_timeouts
                .saturating_sub(earlier.retransmit_timeouts),
            fast_retransmits: self
                .fast_retransmits
                .saturating_sub(earlier.fast_retransmits),
            peer_resets: self.peer_resets.saturating_sub(earlier.peer_resets),
            errors_reported: self.errors_reported.saturating_sub(earlier.errors_reported),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
        }
    }
}

impl std::fmt::Display for FmStats {
    /// One `label=value` pair per non-zero counter, space-separated (all
    /// zeros formats as `"(all zero)"`). Benches and examples print this
    /// instead of hand-formatting each field.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut any = false;
        for (label, value) in self.fields() {
            if value != 0 {
                if any {
                    write!(f, " ")?;
                }
                write!(f, "{label}={value}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "(all zero)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = FmStats::default();
        assert_eq!(s.messages_sent, 0);
        assert_eq!(s.bytes_copied, 0);
        assert_eq!(s, FmStats::default());
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let early = FmStats {
            packets_sent: 10,
            retransmissions: 2,
            ..FmStats::default()
        };
        let late = FmStats {
            packets_sent: 25,
            retransmissions: 5,
            acks_sent: 3,
            ..FmStats::default()
        };
        let d = late.delta(&early);
        assert_eq!(d.packets_sent, 15);
        assert_eq!(d.retransmissions, 3);
        assert_eq!(d.acks_sent, 3);
        assert_eq!(d.messages_sent, 0);
    }

    #[test]
    fn display_shows_only_nonzero() {
        let s = FmStats {
            messages_sent: 2,
            duplicates_dropped: 1,
            ..FmStats::default()
        };
        assert_eq!(s.to_string(), "messages_sent=2 duplicates_dropped=1");
        assert_eq!(FmStats::default().to_string(), "(all zero)");
    }
}
