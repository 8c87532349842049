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
//!
//! A peer's [`Credits`] — what this node may still send it, what it owes
//! it — are one field of that peer's record in the engine, reset with the
//! rest of the record when the peer restarts. The window and the return
//! threshold are the same for every peer and kept once, in the engine's
//! [`CreditWindow`].

/// The credit window, kept once per engine: the credits every peer
/// starts with, and how many owed credits warrant an explicit return.
#[derive(Debug, Clone, Copy)]
pub struct CreditWindow {
    window: u32,
    /// Owed credits at which a credit-only packet is warranted.
    explicit_threshold: u32,
}

impl CreditWindow {
    /// A window of `window` credits per peer.
    ///
    /// # Panics
    /// Panics if `window` is zero (a zero window can never send).
    pub fn new(window: u32) -> Self {
        assert!(window > 0, "flow-control window must be positive");
        CreditWindow {
            window,
            explicit_threshold: (window / 2).max(1),
        }
    }

    /// The configured window.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// One peer's credits before any traffic: the whole window to spend,
    /// nothing owed.
    pub fn fresh(&self) -> Credits {
        Credits {
            available: self.window,
            owed: 0,
        }
    }
}

/// One peer's credits: what this node may still send it, and what it
/// owes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Credits {
    /// Credits this node may spend sending to the peer.
    available: u32,
    /// Credits this node owes the peer (packets drained but not yet
    /// acknowledged back).
    owed: u32,
}

impl Credits {
    /// Credits available for sending to the peer.
    pub fn available(&self) -> u32 {
        self.available
    }

    /// Try to reserve `n` credits. All-or-nothing.
    pub fn try_reserve(&mut self, n: u32) -> bool {
        if self.available >= n {
            self.available -= n;
            true
        } else {
            false
        }
    }

    /// Credits the peer returned (piggybacked or explicit).
    ///
    /// # Panics
    /// Panics if the return would exceed the window — that would mean the
    /// peer acknowledged packets we never sent, i.e. protocol corruption.
    pub fn credit_returned(&mut self, n: u32, w: CreditWindow) {
        self.available += n;
        assert!(
            self.available <= w.window,
            "credit overflow: {} > window {}",
            self.available,
            w.window
        );
    }

    /// Record that one packet from the peer was drained from the receive
    /// region (we now owe it a credit).
    pub fn packet_drained(&mut self, w: CreditWindow) {
        self.owed += 1;
        debug_assert!(self.owed <= w.window);
    }

    /// Take all credits owed to the peer for an outgoing packet (clamped
    /// to what a u16 header field can carry).
    pub fn take_owed(&mut self) -> u16 {
        let n = self.owed.min(u16::MAX as u32);
        self.owed -= n;
        n as u16
    }

    /// Whether the owed credits have crossed the explicit-return
    /// threshold (a credit-only packet is warranted).
    pub fn explicit_return_due(&self, w: CreditWindow) -> bool {
        self.owed >= w.explicit_threshold
    }

    /// Credits currently owed to the peer (visible for tests/stats).
    pub fn owed(&self) -> u32 {
        self.owed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_is_all_or_nothing() {
        let mut c = CreditWindow::new(4).fresh();
        assert_eq!(c.available(), 4);
        assert!(c.try_reserve(3));
        assert_eq!(c.available(), 1);
        assert!(!c.try_reserve(2), "only 1 left");
        assert_eq!(c.available(), 1, "failed reserve must not consume");
        assert!(c.try_reserve(1));
        assert_eq!(c.available(), 0);
    }

    #[test]
    fn credits_round_trip() {
        let w = CreditWindow::new(4);
        let mut c = w.fresh();
        assert!(c.try_reserve(4));
        c.credit_returned(4, w);
        assert_eq!(c.available(), 4);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn over_return_is_detected() {
        let w = CreditWindow::new(4);
        w.fresh().credit_returned(1, w);
    }

    #[test]
    fn owed_accumulates_and_takes() {
        let w = CreditWindow::new(8);
        let mut c = w.fresh();
        for _ in 0..5 {
            c.packet_drained(w);
        }
        assert_eq!(c.owed(), 5);
        assert_eq!(c.take_owed(), 5);
        assert_eq!(c.owed(), 0);
        assert_eq!(c.take_owed(), 0);
    }

    #[test]
    fn explicit_threshold_is_half_window() {
        let w = CreditWindow::new(8);
        let (mut c, other) = (w.fresh(), w.fresh());
        for _ in 0..3 {
            c.packet_drained(w);
        }
        assert!(!c.explicit_return_due(w));
        c.packet_drained(w);
        assert!(c.explicit_return_due(w));
        assert!(
            !other.explicit_return_due(w),
            "peers are scanned one by one"
        );
    }

    #[test]
    fn window_one_still_works() {
        let w = CreditWindow::new(1);
        let mut c = w.fresh();
        assert!(c.try_reserve(1));
        assert!(!c.try_reserve(1));
        c.packet_drained(w);
        assert!(c.explicit_return_due(w));
        assert_eq!(c.take_owed(), 1);
        c.credit_returned(1, w);
        assert!(c.try_reserve(1));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = CreditWindow::new(0);
    }

    #[test]
    fn peers_are_independent() {
        let w = CreditWindow::new(2);
        let (mut one, mut two) = (w.fresh(), w.fresh());
        assert!(one.try_reserve(2));
        assert_eq!(two.available(), 2, "peer 2 unaffected");
        assert!(two.try_reserve(1));
        two.packet_drained(w);
        assert_eq!((one.available(), one.owed()), (0, 0), "peer 1 unaffected");
    }
}
