//! Model-based randomized tests of the flow-control ledger: a reference
//! model tracks what the credit state must be; the ledger must agree
//! after any operation sequence. Cases are drawn from the workspace's
//! seeded [`DetRng`] so every failure is reproducible.

use fm_core::flow::CreditLedger;
use fm_model::rng::DetRng;

#[derive(Debug, Clone)]
enum Op {
    /// Try to reserve n credits toward peer 0.
    Reserve(u32),
    /// Peer drains k of our packets and returns the owed credits.
    DrainAndReturn(u32),
}

fn random_op(rng: &mut DetRng) -> Op {
    let n = 1 + rng.below(19) as u32;
    if rng.chance(0.5) {
        Op::Reserve(n)
    } else {
        Op::DrainAndReturn(n)
    }
}

#[test]
fn ledger_matches_reference_model() {
    let mut rng = DetRng::seed_from_u64(0xF10A);
    for case in 0..256 {
        let window = 1 + rng.below(63) as u32;
        let ops: Vec<Op> = (0..rng.range_usize(1, 100))
            .map(|_| random_op(&mut rng))
            .collect();

        let mut ledger = CreditLedger::new(2, window);
        // Reference: credits available to us, packets in flight toward
        // the peer (drained but unacked bookkeeping happens atomically in
        // DrainAndReturn here).
        let mut avail = window;
        let mut in_flight = 0u32;

        for op in ops {
            match op {
                Op::Reserve(n) => {
                    let expect_ok = avail >= n;
                    let got_ok = ledger.try_reserve(0, n);
                    assert_eq!(got_ok, expect_ok, "case {case}");
                    if expect_ok {
                        avail -= n;
                        in_flight += n;
                    }
                }
                Op::DrainAndReturn(k) => {
                    // The peer can only drain what was actually sent.
                    let k = k.min(in_flight);
                    if k == 0 {
                        continue;
                    }
                    // Peer-side bookkeeping (drain k packets, owe k
                    // credits, return them all) collapses to one return.
                    ledger.credit_returned(0, k);
                    in_flight -= k;
                    avail += k;
                }
            }
            // Invariants after every step.
            assert_eq!(ledger.available(0), avail, "case {case}");
            assert!(avail <= window, "case {case}");
            assert!(
                avail + in_flight == window,
                "case {case}: credits are conserved"
            );
        }
    }
}

/// Owed-credit accounting: drains accumulate, take_owed empties, and the
/// explicit-return threshold fires at half the window.
#[test]
fn owed_accounting() {
    let mut rng = DetRng::seed_from_u64(0xF10B);
    for case in 0..256 {
        let window = 2 + rng.below(62) as u32;
        let drains = (rng.below(200) as u32).min(window); // can't owe more than the window
        let mut ledger = CreditLedger::new(2, window);
        for _ in 0..drains {
            ledger.packet_drained(1);
        }
        assert_eq!(ledger.owed(1), drains, "case {case}");
        let threshold = (window / 2).max(1);
        let flagged = ledger.explicit_return_due(1);
        assert_eq!(flagged, drains >= threshold, "case {case}");
        assert_eq!(u32::from(ledger.take_owed(1)), drains, "case {case}");
        assert_eq!(ledger.owed(1), 0, "case {case}");
        assert!(
            (0..ledger.num_peers()).all(|p| !ledger.explicit_return_due(p)),
            "case {case}"
        );
    }
}
