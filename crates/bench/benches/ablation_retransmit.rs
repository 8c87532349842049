//! Ablation — cost of the retransmission sublayer.
//!
//! FM's defining layering bet is that the substrate is reliable, so the
//! messaging layer can skip timers, acks, and retransmit buffers
//! entirely. This ablation prices that bet: the same FM 2.x stream runs
//! over a bare simulated wire, which the engines trust (the paper's
//! mode), and over one with a fault model installed that drops nothing
//! (`Drop { p: 0.0 }`), which makes them retransmit (selective repeat:
//! cumulative acks plus a SACK bitmap); then again under 1% random packet
//! drop. On a clean wire the
//! sublayer's price is ack traffic and window bookkeeping, never re-sends
//! — the 64-packet retransmit window replaces a credit allotment of the
//! same size, so clean-wire bandwidth stays within a few percent (95.3 %
//! of the trusted stream measured; the floor asserted below is 90 %).
//! Under loss it must still deliver everything, and a lost packet costs
//! one packet: at 1 % drop the stream measures 5 re-sends, all of them
//! SACK repairs ahead of the timer (0 timeouts), nothing thrown away at
//! the receiver, and 98.8 % of the clean-wire bandwidth.

use fm_bench::{banner, compare, fm2_reliable_stream};
use fm_model::MachineProfile;
use myrinet_sim::fault::FaultModel;

fn main() {
    banner(
        "Ablation",
        "retransmission sublayer: trusted vs faulty wires, healthy and 1%-drop",
    );
    let p = MachineProfile::ppro200_fm2();
    let size = 1024usize;
    let count = 512usize;
    let drop = |p| vec![FaultModel::Drop { p, seed: 42 }];

    let (trust, trust_tx, trust_rx) = fm2_reliable_stream(p, size, count, vec![]);
    let (clean, clean_tx, clean_rx) = fm2_reliable_stream(p, size, count, drop(0.0));
    let (lossy, lossy_tx, lossy_rx) = fm2_reliable_stream(p, size, count, drop(0.01));

    println!(
        "{:>22} {:>12} {:>10} {:>12} {:>10} {:>10}",
        "", "BW (MB/s)", "acks", "retransmits", "timeouts", "dups"
    );
    for (name, r, tx, rx) in [
        ("trust / clean wire", &trust, &trust_tx, &trust_rx),
        ("retransmit / clean", &clean, &clean_tx, &clean_rx),
        ("retransmit / 1% drop", &lossy, &lossy_tx, &lossy_rx),
    ] {
        println!(
            "{:>22} {:>12.2} {:>10} {:>12} {:>10} {:>10}",
            name,
            r.bandwidth().as_mbps(),
            rx.acks_sent,
            tx.retransmissions,
            tx.retransmit_timeouts,
            rx.duplicates_dropped
        );
    }
    println!();

    let clean_frac = clean.bandwidth().as_mbps() / trust.bandwidth().as_mbps();
    let lossy_frac = lossy.bandwidth().as_mbps() / clean.bandwidth().as_mbps();
    compare(
        "retransmit vs trust, clean wire",
        "comparable (window replaces credits)",
        format!("{:.1}% of the trusted bandwidth", 100.0 * clean_frac),
    );
    compare(
        "re-sends on a clean wire",
        "none",
        format!("{}", clean_tx.retransmissions),
    );
    compare(
        "recovery under 1% drop",
        "all messages, one re-send per lost packet",
        format!(
            "{count}/{count} delivered, {} retransmissions, {:.1}% of clean bandwidth",
            lossy_tx.retransmissions,
            100.0 * lossy_frac
        ),
    );

    // The sublayer's price on a healthy wire is acks and bookkeeping,
    // never re-sends; under loss it recovers without collapsing.
    assert_eq!(clean_tx.retransmissions, 0);
    assert!(
        clean_frac >= 0.9,
        "retransmission cost more than a tenth of the clean-wire bandwidth ({clean_frac:.2})"
    );
    assert!(lossy_tx.retransmissions > 0);
    assert!(
        lossy_rx.duplicates_dropped <= lossy_tx.retransmissions,
        "re-sends must be needed, not thrown away"
    );
    assert!(
        lossy_frac > 0.8,
        "1% drop should cost about 1% ({lossy_frac:.2} of clean bandwidth)"
    );
    // A trusted stream must not secretly use the machinery.
    assert_eq!(trust_tx.retransmissions + trust_rx.acks_sent, 0);
}
