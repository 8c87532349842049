//! Ablation — eager vs rendezvous for large *unexpected* messages.
//!
//! The 1998 MPI-FM was eager-only: an unexpected message lands in a bounce
//! buffer (one copy) and is copied again at delivery. MPI-FM 2.x sends a
//! message longer than one one-sided chunk ([`CHUNK_BYTES`]) by
//! rendezvous instead: the payload is parked at the sender until a
//! receive exists, so it travels once and lands directly in the user
//! buffer — at the price of an RTS/CTS round trip. The size decides, so
//! the sweep crosses the chunk and asserts the receiver's copies on each
//! side: about twice the payload at or below it (eager), about the
//! payload above it (rendezvous).

use fm_bench::{banner, compare, mpi_unexpected_latency};
use fm_core::onesided::CHUNK_BYTES;
use fm_model::MachineProfile;

const SIZES: [usize; 7] = [
    1024,
    4096,
    8192,
    CHUNK_BYTES,
    CHUNK_BYTES + 1,
    2 * CHUNK_BYTES,
    4 * CHUNK_BYTES,
];

fn main() {
    banner(
        "Ablation",
        "large unexpected messages: eager (2 copies) up to one chunk, rendezvous (RTS/CTS, 1 copy) above",
    );
    let p = MachineProfile::ppro200_fm2();
    println!(
        "{:>10} {:>11} {:>16} {:>16} {:>14}",
        "size(B)", "protocol", "completion", "copies(B)", "copies/byte"
    );
    let mut at_switch = Vec::new();
    for &s in &SIZES {
        let r = mpi_unexpected_latency(p, s);
        let eager = s <= CHUNK_BYTES;
        let per_byte = r.recv_copied as f64 / s as f64;
        println!(
            "{:>10} {:>11} {:>16} {:>16} {:>14.3}",
            s,
            if eager { "eager" } else { "rendezvous" },
            format!("{}", r.elapsed),
            r.recv_copied,
            per_byte
        );
        let want = if eager { 2.0 } else { 1.0 };
        assert!(
            (per_byte - want).abs() < 0.05,
            "{s} B unexpected: {per_byte:.3} copies per payload byte, want {want}"
        );
        if s == CHUNK_BYTES || s == CHUNK_BYTES + 1 {
            at_switch.push(r.elapsed);
        }
    }
    println!();
    compare(
        "copy elimination",
        "one bounce copy per message",
        "eager copies ~= 2x payload, rendezvous ~= payload".to_string(),
    );
    compare(
        "completion across the switch",
        "rendezvous wins once copy time > RTS/CTS round trip",
        format!(
            "{} B eager {} -> {} B rendezvous {}",
            CHUNK_BYTES,
            at_switch[0],
            CHUNK_BYTES + 1,
            at_switch[1]
        ),
    );
}
