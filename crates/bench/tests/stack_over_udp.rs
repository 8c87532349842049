//! The layers above FM — MPI-FM, Sockets-FM, Shmem, the epoch-barrier
//! shuffle — running over real UDP datagrams with injected loss.
//!
//! Every upper layer in the workspace is generic over
//! [`fm_core::NetDevice`]; none of them was written with UDP in mind.
//! These tests are the layering payoff: the same collective, socket,
//! and one-sided-memory code that runs in the simulator and over
//! in-process rings runs unchanged over a lossy kernel transport.
//! Each body is a blocking application run as a one-step rank program of
//! the lossy UDP [`Fabric`], whose engines retransmit.

use fm_bench::fabric::{blocking, Fabric, Udp};
use fm_bench::workload::shuffle_over;
use fm_core::{Fm1Engine, Reliability, RetransmitConfig};
use fm_model::MachineProfile;
use fm_udp::UdpCluster;
use mpi_fm::{Mpi, Mpi1, Mpi2, ReduceOp, ShuffleSpec};
use shmem_fm::Shmem;
use sockets_fm::SocketStack;

/// Mild injected loss: enough that a multi-collective run virtually
/// always retransmits, small enough to stay fast.
fn lossy() -> Udp {
    Udp::lossy(0.005, 0xDECAF)
}

#[test]
fn mpi2_collectives_over_lossy_udp() {
    let reports = lossy().run(3, |_, fm| {
        blocking(move || {
            let mut mpi = Mpi2::new(fm);
            for _ in 0..3 {
                mpi.barrier();
            }
            for root in 0..mpi.size() {
                let data = (mpi.rank() == root).then(|| vec![root as u8; 200]);
                let got = mpi.bcast(root, data, 200);
                assert_eq!(got, vec![root as u8; 200]);
            }
            let sum = mpi.allreduce(&(mpi.rank() as f64).to_le_bytes(), ReduceOp::SumF64);
            assert_eq!(f64::from_le_bytes(sum.try_into().unwrap()), 3.0);
            let retx = mpi.fm().stats().retransmissions;
            mpi.barrier();
            retx
        })
    });
    assert_eq!(reports.len(), 3);
}

#[test]
fn mpi1_ping_pong_over_lossy_udp() {
    const ROUNDS: usize = 30;
    // A fabric's ranks run FM 2.x; FM 1.x over UDP exists only here, so
    // this one is written against the UDP cluster directly.
    let out = UdpCluster::run(2, lossy().0, |rank, dev| {
        let fm = Fm1Engine::with_reliability(
            dev,
            MachineProfile::sparc_fm1(),
            Reliability::Retransmit(RetransmitConfig::default()),
        );
        let mut mpi = Mpi1::new(fm);
        let peer = 1 - rank;
        for i in 0..ROUNDS {
            if rank == 0 {
                mpi.send(peer, 1, vec![i as u8; 48]);
                let (data, _) = mpi.recv(Some(peer), Some(2), 64);
                assert_eq!(data, vec![i as u8 ^ 0xFF; 48]);
            } else {
                let (data, _) = mpi.recv(Some(peer), Some(1), 64);
                mpi.send(peer, 2, data.iter().map(|b| b ^ 0xFF).collect());
            }
        }
        ROUNDS
    });
    assert_eq!(out, vec![ROUNDS, ROUNDS]);
}

#[test]
fn socket_echo_over_lossy_udp() {
    const MSG: &[u8] = b"streams over messages over datagrams";
    let out = lossy().run(2, |node, fm| {
        blocking(move || {
            let s = SocketStack::new(fm);
            if node == 0 {
                s.listen(80);
                let c = s.accept(80);
                let mut buf = [0u8; 256];
                let mut echoed = 0usize;
                loop {
                    let n = s.recv(c, &mut buf);
                    if n == 0 {
                        break;
                    }
                    s.send(c, &buf[..n]);
                    echoed += n;
                }
                s.close(c);
                echoed
            } else {
                let c = s.connect(0, 80);
                s.send(c, MSG);
                let mut buf = vec![0u8; MSG.len()];
                let mut got = 0;
                while got < MSG.len() {
                    got += s.recv(c, &mut buf[got..]);
                }
                assert_eq!(&buf, MSG);
                s.close(c);
                got
            }
        })
    });
    assert_eq!(out, vec![MSG.len(), MSG.len()]);
}

#[test]
fn shmem_put_get_over_lossy_udp() {
    let out = lossy().run(2, |pe, fm| {
        blocking(move || {
            let sh = Shmem::new(fm, 4096);
            if pe == 0 {
                sh.put(1, 128, b"one-sided over udp");
                sh.quiet();
                let back = sh.get(1, 128, 18);
                sh.barrier_all();
                back
            } else {
                sh.barrier_all();
                sh.local_read(128, 18)
            }
        })
    });
    assert_eq!(out[0], b"one-sided over udp");
    assert_eq!(out[1], b"one-sided over udp");
}

#[test]
fn shuffle_survives_one_percent_udp_drop() {
    let spec = ShuffleSpec {
        ranks: 4,
        keys: 512,
        records_per_epoch: 600,
        epochs: 5,
        payload: 32,
        seed: 0xD80B,
    };
    // The reliability sublayer must repair every wire loss, records and
    // barriers alike; `shuffle_over` asserts the conservation law.
    let (received, retx) = shuffle_over(&Udp::lossy(0.01, 0x5EED), spec);
    assert_eq!(received, spec.total_records());
    assert!(retx > 0, "1% drop must force retransmissions");
}
