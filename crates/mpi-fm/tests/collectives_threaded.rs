//! Collectives over real OS threads, on both MPI bindings.

use fm_core::{Fm1Engine, Fm2Engine};
use fm_model::MachineProfile;
use fm_threaded::ThreadedCluster;
use mpi_fm::{Mpi, Mpi1, Mpi2, ReduceOp};

fn f64s(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn to_f64s(v: &[u8]) -> Vec<f64> {
    v.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Run the full collective exercise on any Mpi implementation.
fn exercise(mpi: &mut impl Mpi) -> Vec<String> {
    let (rank, size) = (mpi.rank(), mpi.size());
    let mut report = Vec::new();

    // Barrier storm: must not wedge.
    for _ in 0..5 {
        mpi.barrier();
    }
    report.push("barrier ok".to_string());

    // Broadcast from every root.
    for root in 0..size {
        let data = if rank == root {
            Some(vec![root as u8; 97])
        } else {
            None
        };
        let got = mpi.bcast(root, data, 97);
        assert_eq!(got, vec![root as u8; 97], "bcast root {root}");
    }
    report.push("bcast ok".to_string());

    // Allreduce: sum of ranks and max of (rank squared).
    let sum = mpi.allreduce(
        &f64s(&[rank as f64, (rank * rank) as f64]),
        ReduceOp::SumF64,
    );
    let expect_sum: f64 = (0..size).map(|r| r as f64).sum();
    let expect_sq: f64 = (0..size).map(|r| (r * r) as f64).sum();
    assert_eq!(to_f64s(&sum), vec![expect_sum, expect_sq]);
    let mx = mpi.allreduce(&f64s(&[rank as f64]), ReduceOp::MaxF64);
    assert_eq!(to_f64s(&mx), vec![(size - 1) as f64]);
    report.push("allreduce ok".to_string());

    // Gather at rank 0.
    let g = mpi.gather(0, vec![rank as u8; rank + 1], 64);
    if rank == 0 {
        let g = g.expect("root gets the gather");
        for (r, buf) in g.iter().enumerate() {
            assert_eq!(*buf, vec![r as u8; r + 1]);
        }
    }
    report.push("gather ok".to_string());

    // Scatter from last rank.
    let root = size - 1;
    let chunks = if rank == root {
        Some((0..size).map(|r| vec![(r * 3) as u8; 5]).collect())
    } else {
        None
    };
    let mine = mpi.scatter(root, chunks, 64);
    assert_eq!(mine, vec![(rank * 3) as u8; 5]);
    report.push("scatter ok".to_string());

    // All-to-all.
    let out: Vec<Vec<u8>> = (0..size)
        .map(|dst| vec![(rank * 16 + dst) as u8; 9])
        .collect();
    let got = mpi.alltoall(out, 64);
    for (src, buf) in got.iter().enumerate() {
        assert_eq!(*buf, vec![(src * 16 + rank) as u8; 9], "from rank {src}");
    }
    report.push("alltoall ok".to_string());

    mpi.barrier();
    report
}

#[test]
fn collectives_over_mpi2_four_ranks() {
    let reports = ThreadedCluster::run(4, |_, dev| {
        let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
        exercise(&mut mpi)
    });
    for r in reports {
        assert_eq!(r.len(), 6);
    }
}

#[test]
fn collectives_over_mpi1_three_ranks() {
    let reports = ThreadedCluster::run(3, |_, dev| {
        let mut mpi = Mpi1::new(Fm1Engine::new(dev, MachineProfile::sparc_fm1()));
        exercise(&mut mpi)
    });
    for r in reports {
        assert_eq!(r.len(), 6);
    }
}

#[test]
fn collectives_on_single_rank_are_trivial() {
    let _ = ThreadedCluster::run(1, |_, dev| {
        let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
        mpi.barrier();
        let b = mpi.bcast(0, Some(vec![1, 2, 3]), 3);
        assert_eq!(b, vec![1, 2, 3]);
        let s = mpi.allreduce(&7f64.to_le_bytes(), ReduceOp::SumF64);
        assert_eq!(f64::from_le_bytes(s.try_into().unwrap()), 7.0);
        let g = mpi.gather(0, vec![9], 8).unwrap();
        assert_eq!(g, vec![vec![9]]);
        let a = mpi.alltoall(vec![vec![5]], 8);
        assert_eq!(a, vec![vec![5]]);
    });
}

#[test]
fn conformance_script_matches_model_on_threads() {
    // The shared cross-transport script (large flavor: exercises the
    // pipelined bcast and ring allreduce paths) must reproduce the pure
    // model bit for bit on the threaded transport.
    let outputs = ThreadedCluster::run(4, |_, dev| {
        let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
        mpi_fm::testutil::ScriptRunner::run_blocking(&mut mpi, true)
    });
    for (rank, got) in outputs.iter().enumerate() {
        let want = mpi_fm::testutil::expected_outputs(rank, 4, true);
        assert_eq!(*got, want, "rank {rank}");
    }
}

#[test]
fn explicit_bcast_algorithms_agree() {
    use mpi_fm::{BcastAlgo, Sched};
    const LEN: usize = 96 * 1024;
    for algo in [BcastAlgo::Binomial, BcastAlgo::Flat, BcastAlgo::Pipelined] {
        let outputs = ThreadedCluster::run(4, move |rank, dev| {
            let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
            let data: Vec<u8> = (0..LEN).map(|i| (i * 31 + 7) as u8).collect();
            let op = Sched::bcast_with(&mut mpi, 0, (rank == 0).then(|| data.clone()), LEN, algo);
            assert_eq!(op.wait(&mut mpi).take_result(), data, "algo {algo:?}");
            mpi.barrier();
            true
        });
        assert_eq!(outputs, vec![true; 4]);
    }
}

#[test]
fn large_reduce_to_root_uses_ring_and_is_exact() {
    const ELEMS: usize = 16 * 1024; // 128 KiB: above the pipeline threshold
    let outputs = ThreadedCluster::run(4, |rank, dev| {
        let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
        let contrib = f64s(
            &(0..ELEMS)
                .map(|j| ((j % 17) * (rank + 2)) as f64)
                .collect::<Vec<f64>>(),
        );
        let out = mpi.reduce(2, &contrib, ReduceOp::SumF64);
        mpi.barrier();
        (rank, out)
    });
    let rank_sum: usize = (0..4).map(|r| r + 2).sum();
    for (rank, out) in outputs {
        match out {
            Some(v) => {
                assert_eq!(rank, 2);
                let got = to_f64s(&v);
                for (j, x) in got.iter().enumerate() {
                    assert_eq!(*x, ((j % 17) * rank_sum) as f64, "elem {j}");
                }
            }
            None => assert_ne!(rank, 2),
        }
    }
}

#[test]
fn point_to_point_ping_pong_both_bindings() {
    const ROUNDS: usize = 50;
    // Mpi2
    let out = ThreadedCluster::run(2, |rank, dev| {
        let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
        let peer = 1 - rank;
        let mut count = 0;
        for i in 0..ROUNDS {
            if rank == 0 {
                mpi.send(peer, 1, vec![i as u8; 32]);
                let (data, st) = mpi.recv(Some(peer), Some(2), 64);
                assert_eq!(st.len, 32);
                assert_eq!(data, vec![i as u8 + 1; 32]);
            } else {
                let (data, _) = mpi.recv(Some(peer), Some(1), 64);
                let reply: Vec<u8> = data.iter().map(|x| x + 1).collect();
                mpi.send(peer, 2, reply);
            }
            count += 1;
        }
        count
    });
    assert_eq!(out, vec![ROUNDS, ROUNDS]);
}
