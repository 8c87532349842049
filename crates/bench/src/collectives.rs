//! Collective-communication latency: one per-rank program over any
//! [`Fabric`].
//!
//! Each rank polls MPI-FM 2.x's collective schedules (`Sched::barrier`,
//! `Sched::allreduce`, `Sched::bcast_with`) from its step program: in lockstep virtual time on the simulator, where the numbers
//! are properties of the modeled hardware and the tree/ring schedules,
//! and in real microseconds on the wall-clock fabrics.

use fm_core::{Fm2Engine, NetDevice};
use fm_model::{MachineProfile, Nanos};
use mpi_fm::{BcastAlgo, Mpi, Mpi2, ReduceOp, Sched};

use crate::fabric::{Fabric, Program, Sim, Step};

/// Which collective a probe repeats.
#[derive(Debug, Clone, Copy)]
pub enum Coll {
    /// A dissemination barrier.
    Barrier,
    /// A sum-allreduce of this many bytes of `f64`s (a multiple of 8).
    Allreduce(usize),
    /// A broadcast of this many bytes from rank 0 with an explicit
    /// algorithm, each followed by a barrier (it keeps iterations from
    /// overlapping; its cost is common to every algorithm being compared).
    Bcast(usize, BcastAlgo),
}

/// Iteration `iter`'s collectives on this rank, to run in order.
fn start<D: NetDevice + 'static>(coll: Coll, mpi: &mut Mpi2<D>, iter: usize) -> Vec<Sched> {
    let rank = mpi.rank();
    match coll {
        Coll::Barrier => vec![Sched::barrier(mpi)],
        Coll::Allreduce(bytes) => {
            assert_eq!(bytes % 8, 0, "f64 reduction payload");
            let contrib: Vec<u8> = (0..bytes / 8)
                .map(|j| ((j % 9 + 1) * (rank + 1) + iter % 3) as f64)
                .flat_map(f64::to_le_bytes)
                .collect();
            vec![Sched::allreduce(mpi, &contrib, ReduceOp::SumF64)]
        }
        Coll::Bcast(bytes, algo) => {
            let data = (rank == 0).then(|| vec![(iter % 251) as u8; bytes]);
            let bcast = Sched::bcast_with(mpi, 0, data, bytes, algo);
            vec![bcast, Sched::barrier(mpi)]
        }
    }
}

/// One rank of the shape: `warmup` untimed collectives (one is enough to
/// give wall-clock ranks a synchronized start), then `iters` timed ones
/// back to back. `hosts` selects the locality-aware two-level schedules
/// for that placement; `None` runs the placement-blind flat ones.
/// Reports this rank's time for the timed part.
fn coll_program<D: NetDevice + 'static>(
    fm: Fm2Engine<D>,
    coll: Coll,
    (warmup, iters): (usize, usize),
    hosts: Option<Vec<usize>>,
) -> Program<Nanos> {
    let mut mpi = Mpi2::new(fm);
    mpi.set_coll_hosts(hosts);
    let mut iter = 0usize;
    let mut current: Vec<Sched> = Vec::new();
    let mut started = mpi.fm().now();
    Box::new(move || {
        mpi.progress();
        let before = iter;
        loop {
            match current.first_mut() {
                None if iter == warmup + iters => return Step::Done(mpi.fm().now() - started),
                None => current = start(coll, &mut mpi, iter),
                Some(sched) => {
                    if !sched.poll(&mut mpi) {
                        return Step::pending(iter > before);
                    }
                    current.remove(0);
                    if current.is_empty() {
                        iter += 1;
                        if iter == warmup {
                            started = mpi.fm().now();
                        }
                    }
                }
            }
        }
    })
}

/// Wall-clock mean microseconds per `coll` on `n` ranks of `fabric`, as
/// rank 0 sees it after a synchronizing warm-up collective.
pub fn coll_latency_us<F: Fabric>(
    fabric: &F,
    n: usize,
    iters: usize,
    coll: Coll,
    hosts: Option<Vec<usize>>,
) -> f64 {
    let out = fabric.run(n, |_, fm| coll_program(fm, coll, (1, iters), hosts.clone()));
    out[0].as_ns() as f64 / 1e3 / iters.max(1) as f64
}

/// Mean virtual time per `coll` over `iters` back-to-back repetitions on
/// `n` simulated nodes: the time all nodes have finished, over `iters`.
pub fn sim_coll_latency(profile: MachineProfile, n: usize, iters: usize, coll: Coll) -> Nanos {
    let sim = Sim::new(profile);
    sim.run(n, |_, fm| coll_program(fm, coll, (0, iters), None));
    Nanos(sim.end().as_ns() / iters as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Routed, Shm, Threads, Udp};

    const PPRO: fn() -> MachineProfile = MachineProfile::ppro200_fm2;

    /// Barriers and small allreduces return sane microseconds on `fabric`.
    fn sane_us<F: Fabric>(fabric: &F, n: usize, hosts: Option<Vec<usize>>) {
        for coll in [Coll::Barrier, Coll::Allreduce(16)] {
            let us = coll_latency_us(fabric, n, 16, coll, hosts.clone());
            assert!(us > 0.0 && us < 1e6, "{coll:?}: {us} us");
        }
    }

    #[test]
    fn wall_clock_fabrics_time_collectives() {
        sane_us(&Threads, 4, None);
        sane_us(&Shm::SHALLOW, 4, None);
        sane_us(&Udp::default(), 4, None);
    }

    #[test]
    fn routed_fabric_times_flat_and_hierarchical_schedules() {
        // Keep the in-test cluster small: 2 hosts x 2 ranks. Both run on
        // the *same* routed transport — only the schedule differs — so
        // the comparison isolates the schedule, not the fabric.
        let routed = Routed::blocks(2, 2);
        sane_us(&routed, 4, None);
        sane_us(&routed, 4, Some(routed.hosts.clone()));
    }

    /// Cross-host frames each rank of `routed` sent over 16 `coll`s,
    /// driven the way every probe is: poll steps, not blocking calls.
    fn remote_frames(routed: &Routed, coll: Coll, hosts: Option<Vec<usize>>) -> Vec<u64> {
        routed.run(routed.hosts.len(), |_, fm| {
            let mut program = coll_program(fm.clone(), coll, (1, 16), hosts.clone());
            Box::new(move || match program() {
                Step::Done(_) => Step::Done(fm.with_device(|dev| dev.stats().remote_sent)),
                Step::Idle => Step::Idle,
                Step::Busy => Step::Busy,
                Step::Again => Step::Again,
            })
        })
    }

    #[test]
    fn a_host_map_keeps_every_non_leader_off_the_wire() {
        // The deterministic half of the routed rows: which ranks cross
        // hosts is a property of the schedule, whatever the clock says.
        for per_host in [2, 4] {
            let routed = Routed::blocks(2, per_host);
            for coll in [Coll::Barrier, Coll::Allreduce(16)] {
                let sent = remote_frames(&routed, coll, Some(routed.hosts.clone()));
                for (rank, &frames) in sent.iter().enumerate() {
                    let leads = rank % per_host == 0;
                    assert_eq!(
                        frames > 0,
                        leads,
                        "{coll:?} 2x{per_host} rank {rank}: {sent:?}"
                    );
                }
            }
            // Placement-blind, the dissemination rounds cross hosts from
            // ranks that lead nothing.
            let flat = remote_frames(&routed, Coll::Barrier, None);
            let members = (0..flat.len()).filter(|r| r % per_host != 0);
            assert!(members.map(|r| flat[r]).any(|f| f > 0), "{flat:?}");
        }
    }

    #[test]
    fn barrier_latency_grows_with_log_node_count() {
        let l2 = sim_coll_latency(PPRO(), 2, 8, Coll::Barrier);
        let l8 = sim_coll_latency(PPRO(), 8, 8, Coll::Barrier);
        assert!(l2.as_ns() > 0);
        // 8 nodes = 3 dissemination rounds vs 1: more, but sublinear.
        assert!(l8 > l2, "{l8} vs {l2}");
        assert!(l8.as_ns() < 8 * l2.as_ns(), "{l8} vs {l2}");
    }

    #[test]
    fn small_allreduce_is_microseconds_scale() {
        let l = sim_coll_latency(PPRO(), 4, 8, Coll::Allreduce(16));
        // Sanity band: a 16 B allreduce is a handful of small-message
        // latencies (~17 us each in the model), far under a millisecond.
        assert!(l.as_ns() > 10_000, "{l}");
        assert!(l.as_ns() < 1_000_000, "{l}");
    }

    #[test]
    fn pipelined_bcast_beats_flat_by_1_5x_at_256k() {
        // The acceptance bar: the chain-pipelined broadcast must beat the
        // naive root-sends-to-all broadcast by >= 1.5x at 256 KiB on 4
        // nodes. (The binomial tree sits between the two.)
        const LEN: usize = 256 * 1024;
        let flat = sim_coll_latency(PPRO(), 4, 3, Coll::Bcast(LEN, BcastAlgo::Flat));
        let pipe = sim_coll_latency(PPRO(), 4, 3, Coll::Bcast(LEN, BcastAlgo::Pipelined));
        let speedup = flat.as_ns() as f64 / pipe.as_ns() as f64;
        assert!(
            speedup >= 1.5,
            "pipelined bcast speedup {speedup:.2}x (flat {flat}, pipelined {pipe})"
        );
    }

    #[test]
    fn binomial_bcast_serves_one_child_at_a_time() {
        // The root hands its biggest subtree the whole buffer first, and
        // that child forwards it while the root serves the next: at 256
        // KiB on 4 nodes the tree takes at most 3/4 of the flat time.
        // Sending to both children at once interleaves them on the
        // root's uplink, and the first child forwards only after two
        // message times (0.91 of flat).
        const LEN: usize = 256 * 1024;
        let flat = sim_coll_latency(PPRO(), 4, 3, Coll::Bcast(LEN, BcastAlgo::Flat));
        let tree = sim_coll_latency(PPRO(), 4, 3, Coll::Bcast(LEN, BcastAlgo::Binomial));
        assert!(
            tree.as_ns() * 4 <= flat.as_ns() * 3,
            "binomial bcast {tree} against flat {flat}"
        );
    }
}
