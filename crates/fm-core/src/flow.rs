//! Credit-based sender flow control.
//!
//! FM's reliability story (paper §3.1): Myrinet's hardware is lossless and
//! in-order, so FM only has to guarantee that the *receiving host* never
//! overflows — which it does by giving each sender a window of credits per
//! receiver, one credit per guaranteed packet slot in the receiver's pinned
//! receive region. A sender that is out of credits blocks (back-pressure);
//! nothing is ever dropped or retransmitted.
//!
//! Credits return to the sender when the receiver *drains* packets in
//! `FM_extract`: piggybacked on data packets flowing the other way when
//! possible, otherwise in explicit credit-only packets once enough
//! accumulate (half a window — the classic lazy credit return that bounds
//! both sender stall time and credit traffic).

/// Per-node flow-control ledger.
#[derive(Debug, Clone)]
pub struct CreditLedger {
    /// Credits this node may spend sending to each peer.
    send_credits: Vec<u32>,
    /// Credits this node owes each peer (packets drained but not yet
    /// acknowledged back).
    owed: Vec<u32>,
    /// Window size (initial credits per peer).
    window: u32,
    /// Threshold above which an explicit credit-only packet is warranted.
    explicit_threshold: u32,
}

impl CreditLedger {
    /// A ledger for `num_nodes` peers with `window` credits each.
    ///
    /// # Panics
    /// Panics if `window` is zero (a zero window can never send).
    pub fn new(num_nodes: usize, window: u32) -> Self {
        assert!(window > 0, "flow-control window must be positive");
        CreditLedger {
            send_credits: vec![window; num_nodes],
            owed: vec![0; num_nodes],
            window,
            explicit_threshold: (window / 2).max(1),
        }
    }

    /// The configured window.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Credits available for sending to `dst`.
    pub fn available(&self, dst: usize) -> u32 {
        self.send_credits[dst]
    }

    /// Try to reserve `n` credits toward `dst`. All-or-nothing.
    pub fn try_reserve(&mut self, dst: usize, n: u32) -> bool {
        if self.send_credits[dst] >= n {
            self.send_credits[dst] -= n;
            true
        } else {
            false
        }
    }

    /// Credits returned by `src` (piggybacked or explicit).
    ///
    /// # Panics
    /// Panics if the return would exceed the window — that would mean the
    /// peer acknowledged packets we never sent, i.e. protocol corruption.
    pub fn credit_returned(&mut self, src: usize, n: u32) {
        self.send_credits[src] += n;
        assert!(
            self.send_credits[src] <= self.window,
            "credit overflow from node {src}: {} > window {}",
            self.send_credits[src],
            self.window
        );
    }

    /// Record that one packet from `src` was drained from the receive
    /// region (we now owe `src` a credit).
    pub fn packet_drained(&mut self, src: usize) {
        self.owed[src] += 1;
        debug_assert!(self.owed[src] <= self.window);
    }

    /// Take all credits owed to `dst` for piggybacking on an outgoing
    /// packet (clamped to what a u16 header field can carry).
    pub fn take_owed(&mut self, dst: usize) -> u16 {
        let n = self.owed[dst].min(u16::MAX as u32);
        self.owed[dst] -= n;
        n as u16
    }

    /// Whether `peer`'s owed credits have crossed the explicit-return
    /// threshold (a credit-only packet is warranted). A per-peer
    /// predicate rather than an iterator so the engine can interleave
    /// the scan with mutation — no allocation on the datapath.
    pub fn explicit_return_due(&self, peer: usize) -> bool {
        self.owed[peer] >= self.explicit_threshold
    }

    /// Number of peers this ledger tracks.
    pub fn num_peers(&self) -> usize {
        self.owed.len()
    }

    /// Credits currently owed to `peer` (visible for tests/stats).
    pub fn owed(&self, peer: usize) -> u32 {
        self.owed[peer]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_is_all_or_nothing() {
        let mut l = CreditLedger::new(2, 4);
        assert_eq!(l.available(1), 4);
        assert!(l.try_reserve(1, 3));
        assert_eq!(l.available(1), 1);
        assert!(!l.try_reserve(1, 2), "only 1 left");
        assert_eq!(l.available(1), 1, "failed reserve must not consume");
        assert!(l.try_reserve(1, 1));
        assert_eq!(l.available(1), 0);
    }

    #[test]
    fn credits_round_trip() {
        let mut l = CreditLedger::new(2, 4);
        assert!(l.try_reserve(1, 4));
        l.credit_returned(1, 4);
        assert_eq!(l.available(1), 4);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn over_return_is_detected() {
        let mut l = CreditLedger::new(2, 4);
        l.credit_returned(1, 1);
    }

    #[test]
    fn owed_accumulates_and_takes() {
        let mut l = CreditLedger::new(3, 8);
        for _ in 0..5 {
            l.packet_drained(2);
        }
        assert_eq!(l.owed(2), 5);
        assert_eq!(l.take_owed(2), 5);
        assert_eq!(l.owed(2), 0);
        assert_eq!(l.take_owed(2), 0);
    }

    #[test]
    fn explicit_threshold_is_half_window() {
        let mut l = CreditLedger::new(2, 8);
        for _ in 0..3 {
            l.packet_drained(0);
        }
        assert!(!l.explicit_return_due(0));
        l.packet_drained(0);
        assert!(l.explicit_return_due(0));
        assert!(!l.explicit_return_due(1), "peers are scanned one by one");
    }

    #[test]
    fn window_one_still_works() {
        let mut l = CreditLedger::new(2, 1);
        assert!(l.try_reserve(1, 1));
        assert!(!l.try_reserve(1, 1));
        l.packet_drained(1);
        assert!(l.explicit_return_due(1));
        assert_eq!(l.take_owed(1), 1);
        l.credit_returned(1, 1);
        assert!(l.try_reserve(1, 1));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = CreditLedger::new(2, 0);
    }

    #[test]
    fn peers_are_independent() {
        let mut l = CreditLedger::new(3, 2);
        assert!(l.try_reserve(1, 2));
        assert_eq!(l.available(2), 2, "peer 2 unaffected");
        assert!(l.try_reserve(2, 1));
    }
}
