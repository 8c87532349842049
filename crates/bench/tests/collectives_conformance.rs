//! Cross-transport conformance: the shared collective script over the
//! wall-clock fabrics that can lose a packet or route it two ways.
//!
//! `mpi_fm::testutil::ScriptRunner` is the *same* script the simulator
//! and the threaded cluster run (`tests/collectives_faults.rs`,
//! `mpi-fm/tests/collectives_threaded.rs`). Here it is one rank program
//! of any [`Fabric`]: pure loopback UDP, loopback UDP with seeded
//! datagram loss, and a 4-rank cluster split across two simulated hosts
//! (`[0,0,1,1]`: same-host frames ride `fm-shm` mapped rings, cross-host
//! frames ride real UDP datagrams). Every output must match the pure
//! model bit for bit — pipelined 256 KiB bcast and ring allreduce
//! included. Loss and locality-aware routing may change *how* and *where*
//! bytes travel, never *what* the collectives compute.

use fm_bench::fabric::{Fabric, Routed, Step, Udp};
use fm_core::Fm2Engine;
use mpi_fm::testutil::{expected_outputs, ScriptRunner};
use mpi_fm::{Mpi, Mpi2};

const N: usize = 4;

/// Run the `large` or small flavour of the script on every rank of
/// `fabric` as a poll-step program, under the rank → host map `hosts` if
/// one is given. The fabric keeps each finished rank serviced until the
/// wire is quiet, so a peer whose last packet (or our ack to it) was
/// dropped still finds us alive. Each rank reports its outputs, how many
/// engine errors surfaced, and what `inspect` reads off its engine.
fn run_script<F: Fabric, T: Send + 'static>(
    fabric: &F,
    large: bool,
    hosts: Option<&[usize]>,
    inspect: fn(&Fm2Engine<F::Dev>) -> T,
) -> Vec<(Vec<String>, usize, T)> {
    fabric.run(N, |_, fm| {
        let mut mpi = Mpi2::new(fm);
        mpi.set_coll_hosts(hosts.map(<[usize]>::to_vec));
        let mut runner = ScriptRunner::new(large);
        Box::new(move || {
            mpi.progress();
            if !runner.poll(&mut mpi) {
                return Step::Idle;
            }
            let errors = mpi.fm().take_errors().len();
            Step::Done((runner.outputs().to_vec(), errors, inspect(mpi.fm())))
        })
    })
}

#[test]
fn conformance_script_matches_model_over_mixed_placement() {
    for large in [false, true] {
        let routed = Routed::blocks(2, 2);
        let results = run_script(&routed, large, None, |fm| fm.with_device(|dev| dev.stats()));
        for (rank, (got, errors, route)) in results.iter().enumerate() {
            assert_eq!(*got, expected_outputs(rank, N, large), "rank {rank}");
            assert_eq!(*errors, 0, "rank {rank} engine errors");
            // The script's flat schedules talk to both neighbors and both
            // strangers, so every rank must genuinely have used both
            // fabrics — proof the match wasn't all-UDP in disguise.
            assert!(route.local_sent > 0, "rank {rank} sent nothing over shm");
            assert!(route.remote_sent > 0, "rank {rank} sent nothing over UDP");
        }
    }
}

#[test]
fn conformance_script_is_identical_to_pure_udp() {
    // The decisive bit-identity check: run the script once on the
    // mixed-placement routed transport and once on pure loopback UDP,
    // and require rank-for-rank equality (both already equal the model;
    // this pins transport-independence directly, including any
    // formatting of the outputs the model comparison might normalize).
    let routed = run_script(&Routed::blocks(2, 2), false, None, |_| ());
    let pure = run_script(&Udp::default(), false, None, |_| ());
    assert!(routed.iter().all(|(_, errors, ())| *errors == 0));
    assert_eq!(routed, pure, "routed and pure-udp script outputs diverged");
}

#[test]
fn polled_script_under_a_host_map_matches_model_and_pure_udp() {
    // The script is poll-driven: it builds `BarrierOp::new`,
    // `BcastOp::new`, `AllreduceOp::new` itself, so with the placement
    // declared its barriers, small bcasts and allreduces take the
    // two-level schedules. What they compute must not move.
    let routed = Routed::blocks(2, 2);
    let placed = run_script(&routed, false, Some(&routed.hosts), |_| ());
    let pure = run_script(&Udp::default(), false, None, |_| ());
    for (rank, (got, errors, ())) in placed.iter().enumerate() {
        assert_eq!(*got, expected_outputs(rank, N, false), "rank {rank}");
        assert_eq!(*errors, 0, "rank {rank} engine errors");
    }
    assert_eq!(placed, pure, "two-level and flat script outputs diverged");
}

#[test]
fn conformance_script_matches_model_over_lossy_udp() {
    let lossy = Udp::lossy(0.01, 0xBEEF);
    let results = run_script(&lossy, true, None, |fm| fm.stats().retransmissions);
    let mut total_retx = 0;
    for (rank, (got, errors, retx)) in results.iter().enumerate() {
        assert_eq!(*got, expected_outputs(rank, N, true), "rank {rank}");
        assert_eq!(*errors, 0, "rank {rank} engine errors");
        total_retx += retx;
    }
    // 1 % drop over a 256 KiB-heavy script virtually guarantees the
    // reliability layer actually worked for its living.
    assert!(
        total_retx > 0,
        "expected injected loss to force retransmits"
    );
}

#[test]
fn small_conformance_script_agrees_across_two_seeds() {
    // The small flavor twice with different loss patterns: the results
    // must be identical (collective outcomes are loss-independent).
    let run = |seed: u64| run_script(&Udp::lossy(0.02, seed), false, None, |_| ());
    let a = run(0xA11CE);
    let b = run(0xB0B);
    assert_eq!(a, b, "collective results must not depend on loss pattern");
    for (rank, (got, errors, ())) in a.iter().enumerate() {
        assert_eq!(*got, expected_outputs(rank, N, false), "rank {rank}");
        assert_eq!(*errors, 0, "rank {rank} engine errors");
    }
}
