//! Mixed-locality conformance: the shared collective script over the
//! routed composite transport.
//!
//! `mpi_fm::testutil::ScriptRunner` is the *same* script the simulator,
//! the threaded cluster, and pure loopback UDP run. Here a 4-rank
//! cluster is split across two simulated hosts (`[0,0,1,1]`): same-host
//! frames ride `fm-shm` mapped rings, cross-host frames ride real UDP
//! datagrams, and every output must still match the pure model bit for
//! bit. Locality-aware routing may change *where* bytes travel, never
//! *what* the collectives compute.

use fm_bench::fabric::{Fabric, Routed, Step, Udp};
use mpi_fm::testutil::{expected_outputs, ScriptRunner};
use mpi_fm::{Mpi, Mpi2};

const N: usize = 4;

/// Run the script on every rank of `fabric` as a poll-step program,
/// under the rank → host map `hosts` if one is given. The
/// fabric keeps each finished rank serviced until the wire is quiet, so a
/// peer whose last cross-host packet (or our ack to it) was dropped still
/// finds us alive. Each rank reports its outputs, how many engine errors
/// surfaced, and what `inspect` reads off its device.
fn run_script<F: Fabric, T: Send + 'static>(
    fabric: &F,
    hosts: Option<&[usize]>,
    inspect: fn(&mut F::Dev) -> T,
) -> Vec<(Vec<String>, usize, T)> {
    fabric.run(N, |_, fm| {
        let mut mpi = Mpi2::new(fm);
        mpi.set_coll_hosts(hosts.map(<[usize]>::to_vec));
        let mut runner = ScriptRunner::new(false);
        Box::new(move || {
            mpi.progress();
            if !runner.poll(&mut mpi) {
                return Step::Idle;
            }
            let errors = mpi.fm().take_errors().len();
            let seen = mpi.fm().with_device(inspect);
            Step::Done((runner.outputs().to_vec(), errors, seen))
        })
    })
}

#[test]
fn conformance_script_matches_model_over_mixed_placement() {
    let results = run_script(&Routed::blocks(2, 2), None, |dev| dev.stats());
    for (rank, (got, errors, route)) in results.iter().enumerate() {
        assert_eq!(*got, expected_outputs(rank, N, false), "rank {rank}");
        assert_eq!(*errors, 0, "rank {rank} engine errors");
        // The script's flat schedules talk to both neighbors and both
        // strangers, so every rank must genuinely have used both
        // fabrics — proof the match wasn't all-UDP in disguise.
        assert!(route.local_sent > 0, "rank {rank} sent nothing over shm");
        assert!(route.remote_sent > 0, "rank {rank} sent nothing over UDP");
    }
}

#[test]
fn conformance_script_is_identical_to_pure_udp() {
    // The decisive bit-identity check: run the script once on the
    // mixed-placement routed transport and once on pure loopback UDP,
    // and require rank-for-rank equality (both already equal the model;
    // this pins transport-independence directly, including any
    // formatting of the outputs the model comparison might normalize).
    let routed = run_script(&Routed::blocks(2, 2), None, |_| ());
    let pure = run_script(&Udp::default(), None, |_| ());
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
    let placed = run_script(&routed, Some(&routed.hosts), |_| ());
    let pure = run_script(&Udp::default(), None, |_| ());
    for (rank, (got, errors, ())) in placed.iter().enumerate() {
        assert_eq!(*got, expected_outputs(rank, N, false), "rank {rank}");
        assert_eq!(*errors, 0, "rank {rank} engine errors");
    }
    assert_eq!(placed, pure, "two-level and flat script outputs diverged");
}
