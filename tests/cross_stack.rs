//! Cross-crate integration: the same layered stacks running over both
//! transports, and both FM generations delivering identical payloads.

use std::cell::RefCell;
use std::rc::Rc;

use fast_messages::fm::device::LoopbackPair;
use fast_messages::fm::packet::HandlerId;
use fast_messages::fm::{Fm1Engine, Fm2Engine, FmPacket, FmStream, SimDevice};
use fast_messages::model::{MachineProfile, Nanos};
use fast_messages::mpi::{Mpi, Mpi1, Mpi2};
use fast_messages::sim::{NodeId, Simulation, StepOutcome, Topology};
use fast_messages::threaded::ThreadedCluster;

const H: HandlerId = HandlerId(1);

/// The message set every variant must deliver: assorted sizes crossing
/// packet boundaries for both generations' MTUs.
fn corpus() -> Vec<Vec<u8>> {
    [0usize, 1, 16, 127, 128, 129, 1000, 1024, 1025, 4096, 8000]
        .iter()
        .enumerate()
        .map(|(i, &n)| (0..n).map(|j| (i * 31 + j) as u8).collect())
        .collect()
}

/// FM 1.x and FM 2.x over loopback deliver the identical corpus.
#[test]
fn fm1_and_fm2_deliver_identical_corpora() {
    let corpus = corpus();

    // FM 1.x
    let (da, db) = LoopbackPair::new(512);
    let mut s1 = Fm1Engine::new(da, MachineProfile::sparc_fm1());
    let mut r1 = Fm1Engine::new(db, MachineProfile::sparc_fm1());
    let got1: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    {
        let g = Rc::clone(&got1);
        r1.set_handler(
            H,
            Box::new(move |_e, _s, m| g.borrow_mut().push(m.to_vec())),
        );
    }
    for msg in &corpus {
        while s1.try_send(1, H, msg).is_err() {
            LoopbackPair::deliver(s1.device_mut(), r1.device_mut());
            r1.extract();
            LoopbackPair::deliver(s1.device_mut(), r1.device_mut());
            s1.extract();
        }
    }
    for _ in 0..8 {
        LoopbackPair::deliver(s1.device_mut(), r1.device_mut());
        r1.extract();
        LoopbackPair::deliver(s1.device_mut(), r1.device_mut());
        s1.extract();
    }

    // FM 2.x
    let (da, db) = LoopbackPair::new(512);
    let s2 = Fm2Engine::new(da, MachineProfile::ppro200_fm2());
    let r2 = Fm2Engine::new(db, MachineProfile::ppro200_fm2());
    let got2: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    {
        let g = Rc::clone(&got2);
        r2.set_handler(H, move |stream: FmStream, _| {
            let g = Rc::clone(&g);
            async move {
                let m = stream.receive_vec(stream.msg_len()).await;
                g.borrow_mut().push(m);
            }
        });
    }
    for msg in &corpus {
        while s2.try_send_message(1, H, &[msg]).is_err() {
            s2.with_device(|ds| r2.with_device(|dr| LoopbackPair::deliver(ds, dr)));
            r2.extract_all();
            r2.with_device(|dr| s2.with_device(|ds| LoopbackPair::deliver(ds, dr)));
            s2.extract_all();
        }
    }
    for _ in 0..8 {
        s2.with_device(|ds| r2.with_device(|dr| LoopbackPair::deliver(ds, dr)));
        r2.extract_all();
        r2.with_device(|dr| s2.with_device(|ds| LoopbackPair::deliver(ds, dr)));
        s2.extract_all();
    }

    assert_eq!(*got1.borrow(), corpus, "FM 1.x corpus intact");
    assert_eq!(*got2.borrow(), corpus, "FM 2.x corpus intact");
}

/// The same MPI program runs over the simulator and over real threads and
/// delivers the same payloads.
#[test]
fn mpi_semantics_hold_on_both_transports() {
    let corpus = corpus();

    // --- Simulator ---
    let profile = MachineProfile::ppro200_fm2();
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(2));
    let mut mpi_s = Mpi2::new(Fm2Engine::new(
        SimDevice::new(sim.host_interface(NodeId(0))),
        profile,
    ));
    let mut mpi_r = Mpi2::new(Fm2Engine::new(
        SimDevice::new(sim.host_interface(NodeId(1))),
        profile,
    ));
    {
        let corpus = corpus.clone();
        let mut reqs = Vec::new();
        let mut issued = false;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                if !issued {
                    issued = true;
                    for (i, m) in corpus.iter().enumerate() {
                        reqs.push(mpi_s.isend(1, i as u32, m.clone()));
                    }
                }
                mpi_s.progress();
                if reqs.iter().all(|r| r.is_done()) {
                    StepOutcome::Done
                } else {
                    StepOutcome::Wait
                }
            }),
        );
    }
    let sim_result: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    {
        let out = Rc::clone(&sim_result);
        let corpus = corpus.clone();
        let mut reqs = Vec::new();
        let mut posted = false;
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                if !posted {
                    posted = true;
                    for (i, m) in corpus.iter().enumerate() {
                        reqs.push(mpi_r.irecv(Some(0), Some(i as u32), m.len()));
                    }
                }
                mpi_r.progress();
                if reqs.iter().all(|r| r.is_done()) {
                    *out.borrow_mut() = reqs.iter().map(|r| r.take().unwrap()).collect();
                    StepOutcome::Done
                } else {
                    StepOutcome::Wait
                }
            }),
        );
    }
    sim.run(Some(Nanos::from_ms(5_000)));
    assert!(sim.all_done(), "sim MPI corpus transfer wedged");
    assert_eq!(*sim_result.borrow(), corpus, "sim transport corpus intact");

    // --- Threads ---
    let corpus2 = corpus.clone();
    let results = ThreadedCluster::run(2, move |rank, dev| {
        let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
        if rank == 0 {
            for (i, m) in corpus2.iter().enumerate() {
                mpi.send(1, i as u32, m.clone());
            }
            Vec::new()
        } else {
            (0..corpus2.len())
                .map(|i| mpi.recv(Some(0), Some(i as u32), 1 << 16).0)
                .collect()
        }
    });
    assert_eq!(results[1], corpus, "threaded transport corpus intact");
}

/// MPI-FM 1.x and MPI-FM 2.x interoperate with the same test program and
/// give identical results (semantics parity between bindings).
#[test]
fn both_mpi_bindings_have_equal_semantics() {
    fn run<M: Mpi + 'static>(
        mk: impl Fn(usize, fast_messages::threaded::ThreadedDevice) -> M + Send + Sync,
    ) -> Vec<Vec<u8>> {
        let out = ThreadedCluster::run(2, move |rank, dev| {
            let mut mpi = mk(rank, dev);
            if rank == 0 {
                // Mixed traffic: tags out of order, wildcard receives.
                mpi.send(1, 5, vec![5; 50]);
                mpi.send(1, 3, vec![3; 30]);
                mpi.send(1, 9, vec![9; 90]);
                let (echo, _) = mpi.recv(Some(1), Some(0), 256);
                vec![echo]
            } else {
                let (a, sa) = mpi.recv(Some(0), Some(3), 256);
                let (b, _) = mpi.recv(Some(0), None, 256); // wildcard: arrival order
                let (c, _) = mpi.recv(Some(0), None, 256);
                assert_eq!(sa.tag, 3);
                let mut echo = a;
                echo.extend_from_slice(&b);
                echo.extend_from_slice(&c);
                mpi.send(0, 0, echo.clone());
                vec![echo]
            }
        });
        out.into_iter().flatten().collect()
    }

    let v1 = run(|_rank, dev| Mpi1::new(Fm1Engine::new(dev, MachineProfile::sparc_fm1())));
    let v2 = run(|_rank, dev| Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2())));
    assert_eq!(v1, v2, "bindings must agree");
    // Tag 3 first (explicit), then 5 and 9 in arrival order.
    let expect: Vec<u8> = [vec![3u8; 30], vec![5; 50], vec![9; 90]].concat();
    assert_eq!(v1[0], expect);
}

/// A workload that exercises every layer at once: MPI and raw FM traffic
/// share one engine without interfering (handler demultiplexing).
#[test]
fn mpi_and_raw_fm_share_an_engine() {
    let out = ThreadedCluster::run(2, |rank, dev| {
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        // Raw FM side channel on its own handler.
        let side: Rc<RefCell<Vec<u8>>> = Rc::default();
        {
            let side = Rc::clone(&side);
            fm.set_handler(HandlerId(50), move |stream: FmStream, _| {
                let side = Rc::clone(&side);
                async move {
                    let m = stream.receive_vec(stream.msg_len()).await;
                    side.borrow_mut().extend_from_slice(&m);
                }
            });
        }
        let mut mpi = Mpi2::new(fm.clone());
        if rank == 0 {
            fast_messages::fm::blocking::fm2_send(&fm, 1, HandlerId(50), &[b"side"]);
            mpi.send(1, 1, b"main".to_vec());
            let (ack, _) = mpi.recv(Some(1), Some(2), 16);
            String::from_utf8(ack).unwrap()
        } else {
            let (m, _) = mpi.recv(Some(0), Some(1), 16);
            fast_messages::fm::blocking::fm2_wait_until(&fm, || side.borrow().len() == 4);
            let combined = format!(
                "{}+{}",
                String::from_utf8_lossy(&m),
                String::from_utf8_lossy(&side.borrow())
            );
            mpi.send(0, 2, combined.clone().into_bytes());
            combined
        }
    });
    assert_eq!(out[0], "main+side");
    assert_eq!(out[1], "main+side");
}

/// MPI-FM and Shmem-FM each bring a one-sided port, and a port owns fixed
/// handler ids: stacking both on one engine used to hand the second every
/// packet of the first (rendezvous payloads vanished). It is refused at
/// construction instead.
#[test]
#[should_panic(expected = "already has a one-sided port (ids 140 and 141)")]
fn shmem_after_mpi2_on_one_engine_is_refused() {
    let (dev, _peer) = LoopbackPair::new(8);
    let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
    let _mpi = Mpi2::new(fm.clone());
    let _sh = fast_messages::shmem::Shmem::new(fm, 4096);
}
