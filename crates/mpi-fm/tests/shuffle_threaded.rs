//! The epoch-barrier partitioned shuffle over real OS threads.
//!
//! Four ranks on a `ThreadedCluster` run [`mpi_fm::run_shuffle`]; the
//! runner itself asserts per-key ordering and epoch completeness, so the
//! test's job is the cross-rank accounting: every produced record was
//! received by exactly one owner, and every rank closed every epoch.

use std::time::Duration;

use fm_core::Fm2Engine;
use fm_model::MachineProfile;
use fm_threaded::ThreadedCluster;
use mpi_fm::{run_shuffle, Mpi2, ShuffleSpec};

#[test]
fn shuffle_completes_over_threads() {
    let spec = ShuffleSpec {
        ranks: 4,
        keys: 256,
        records_per_epoch: 400,
        epochs: 5,
        payload: 32,
        seed: 0x5AFE,
    };
    let reports = ThreadedCluster::run(spec.ranks, |_, dev| {
        let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
        run_shuffle(&mut mpi, spec)
    });
    let sent: u64 = reports.iter().map(|r| r.records_sent).sum();
    let received: u64 = reports.iter().map(|r| r.records_received).sum();
    assert_eq!(sent, spec.total_records());
    assert_eq!(received, spec.total_records(), "records vanished or forked");
    for (rank, r) in reports.iter().enumerate() {
        assert_eq!(r.epochs_completed, spec.epochs, "rank {rank}");
        assert!(r.channels_checked > 0, "rank {rank} checked no channels");
    }
}

#[test]
fn shuffle_reports_are_deterministic_per_seed() {
    let spec = ShuffleSpec {
        ranks: 3,
        keys: 32,
        records_per_epoch: 100,
        epochs: 3,
        payload: 24,
        seed: 42,
    };
    let run = || {
        ThreadedCluster::run(spec.ranks, |_, dev| {
            let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
            run_shuffle(&mut mpi, spec)
        })
    };
    // Thread interleaving varies; the *reports* (routing totals, epoch
    // counts, channel counts) are pure functions of the seed and must not.
    assert_eq!(run(), run());
}

/// A rank that panics ends its peers' shuffles: the run fails at once
/// instead of leaving them spinning.
#[test]
fn a_panicking_rank_ends_its_peers_shuffles() {
    let spec = ShuffleSpec {
        ranks: 3,
        keys: 32,
        records_per_epoch: 100,
        epochs: 3,
        payload: 24,
        seed: 7,
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let run = std::panic::catch_unwind(|| {
            ThreadedCluster::run(spec.ranks, |i, dev| {
                assert_ne!(i, 0, "rank 0 fails");
                let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
                run_shuffle(&mut mpi, spec)
            })
        });
        tx.send(run.is_err()).expect("the test is listening");
    });
    let failed = rx.recv_timeout(Duration::from_secs(10));
    assert_eq!(failed, Ok(true), "the run must fail within 10 s");
}
