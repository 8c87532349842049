//! Collectives under injected packet loss, in deterministic virtual time.
//!
//! A 4-node simulated cluster with a seeded 1–2 % drop fault, whose
//! engines therefore retransmit, runs the shared cross-transport collective
//! script (testutil::ScriptRunner) and a 1 000-iteration barrier +
//! 16-byte-allreduce soak. Every collective must complete with exactly
//! the model-predicted result, zero engine errors (no message loss), and
//! the whole run must be bit-deterministic per fault seed while the
//! *results* are identical across different seeds.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fast_messages::fm::{Fm2Engine, FmPacket, NetDevice, SimDevice};
use fast_messages::model::{MachineProfile, Nanos};
use fast_messages::mpi::{Mpi, Mpi2, ReduceOp};
use fast_messages::sim::fault::FaultModel;
use fast_messages::sim::{NodeId, Simulation, StepOutcome, Topology};
use mpi_fm::testutil::{expected_outputs, ScriptRunner};
use mpi_fm::Sched;

/// Build an n-node lossy sim plus one engine per node (each retransmits:
/// the wire has a fault model).
///
/// Returns the sim and the engines; callers wrap each engine in an
/// `Mpi2` for their program. The engine list is shared (engines are
/// cheap clones of an Rc'd core) so exit conditions can inspect every
/// node's unacked window.
fn lossy_cluster(
    n: usize,
    drop_p: f64,
    seed: u64,
) -> (Simulation<FmPacket>, Vec<Fm2Engine<SimDevice>>) {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(n));
    sim.set_fault_models(vec![FaultModel::Drop { p: drop_p, seed }]);
    let engines: Vec<_> = (0..n)
        .map(|i| Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(i))), profile))
        .collect();
    (sim, engines)
}

/// Run the shared collective script on a lossy n-node sim.
///
/// Exit protocol: a node that finishes its script keeps extracting and
/// acking (StepOutcome::Wait) until *every* node is done and *every*
/// engine's retransmit window has drained — otherwise a dropped final
/// ack would strand a peer's loss recovery.
fn run_script_lossy(
    n: usize,
    drop_p: f64,
    seed: u64,
    large: bool,
) -> (Nanos, Vec<Vec<String>>, usize) {
    let (mut sim, engines) = lossy_cluster(n, drop_p, seed);
    let all_engines = Rc::new(engines.clone());
    let script_done = Rc::new(RefCell::new(vec![false; n]));
    let outs: Vec<Rc<RefCell<Vec<String>>>> = (0..n).map(|_| Rc::default()).collect();
    let errs = Rc::new(Cell::new(0usize));

    for (me, engine) in engines.into_iter().enumerate() {
        let mut mpi = Mpi2::new(engine);
        let mut runner = ScriptRunner::new(large);
        let all_engines = Rc::clone(&all_engines);
        let script_done = Rc::clone(&script_done);
        let out = Rc::clone(&outs[me]);
        let errs = Rc::clone(&errs);
        sim.set_program(
            NodeId(me),
            Box::new(move || {
                mpi.progress();
                errs.set(errs.get() + mpi.fm().take_errors().len());
                if !script_done.borrow()[me] && runner.poll(&mut mpi) {
                    script_done.borrow_mut()[me] = true;
                    *out.borrow_mut() = runner.outputs().to_vec();
                }
                let me_done = script_done.borrow()[me];
                let everyone_done = script_done.borrow().iter().all(|&d| d);
                if everyone_done && all_engines.iter().all(|e| e.unacked_packets() == 0) {
                    StepOutcome::Done
                } else {
                    if me_done {
                        // This node's own work is finished: no packet need
                        // ever arrive to wake it again, yet the exit
                        // condition polls *other* nodes' retransmit windows.
                        // Heartbeat so the drain check re-runs (a real
                        // process would poll).
                        mpi.fm().with_device(|d| {
                            let at = d.now() + Nanos::from_us(50);
                            d.request_wake(at);
                        });
                    }
                    StepOutcome::Wait
                }
            }),
        );
    }

    let end = sim.run(Some(Nanos::from_ms(60_000)));
    assert!(
        sim.all_done(),
        "lossy collective script wedged (seed {seed})"
    );
    let outputs = outs.iter().map(|o| o.borrow().clone()).collect();
    (end, outputs, errs.get())
}

#[test]
fn collective_script_survives_one_percent_loss() {
    // The full script — including the 256 KiB pipelined bcast and ring
    // allreduce — over 1 % random drop: bit-exact results, zero errors.
    let (_, outputs, errs) = run_script_lossy(4, 0.01, 0xC0FFEE, true);
    for (rank, got) in outputs.iter().enumerate() {
        assert_eq!(*got, expected_outputs(rank, 4, true), "rank {rank}");
    }
    assert_eq!(errs, 0, "message loss leaked past the reliability layer");
}

#[test]
fn lossy_runs_are_deterministic_per_seed_and_agree_across_seeds() {
    // Same seed twice: identical virtual end time and outputs (full
    // bit-determinism). Different seed: different loss pattern, but the
    // collective *results* must not change.
    let (end_a, outs_a, errs_a) = run_script_lossy(4, 0.02, 11, false);
    let (end_b, outs_b, errs_b) = run_script_lossy(4, 0.02, 11, false);
    assert_eq!(end_a, end_b, "virtual time diverged for identical seeds");
    assert_eq!(outs_a, outs_b, "outputs diverged for identical seeds");
    assert_eq!((errs_a, errs_b), (0, 0));

    let (end_c, outs_c, errs_c) = run_script_lossy(4, 0.02, 1234, false);
    assert_ne!(end_a, end_c, "different drop seeds should reshape timing");
    assert_eq!(outs_a, outs_c, "results must be seed-independent");
    assert_eq!(errs_c, 0);
}

#[test]
fn barrier_allreduce_soak_1k_iterations_under_loss() {
    // 1 000 iterations of barrier + 16-byte allreduce (two f64 sums) on
    // four nodes at 2 % drop: every iteration's result exact, no loss.
    const N: usize = 4;
    const ITERS: usize = 1_000;

    enum Phase {
        Idle,
        Barrier(Sched),
        Allreduce(Sched),
    }

    fn contrib(rank: usize, iter: usize) -> Vec<u8> {
        let a = ((rank + 1) * (iter % 13 + 1)) as f64;
        let b = (rank * rank + iter % 7) as f64;
        [a, b].iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn expected(n: usize, iter: usize) -> [f64; 2] {
        let a = (0..n).map(|r| ((r + 1) * (iter % 13 + 1)) as f64).sum();
        let b = (0..n).map(|r| (r * r + iter % 7) as f64).sum();
        [a, b]
    }

    let (mut sim, engines) = lossy_cluster(N, 0.02, 77);
    let all_engines = Rc::new(engines.clone());
    let done_flags = Rc::new(RefCell::new(vec![false; N]));
    let completed: Vec<Rc<Cell<usize>>> = (0..N).map(|_| Rc::default()).collect();
    let errs = Rc::new(Cell::new(0usize));

    for (me, engine) in engines.into_iter().enumerate() {
        let mut mpi = Mpi2::new(engine);
        let mut phase = Phase::Idle;
        let mut iter = 0usize;
        let all_engines = Rc::clone(&all_engines);
        let done_flags = Rc::clone(&done_flags);
        let count = Rc::clone(&completed[me]);
        let errs = Rc::clone(&errs);
        sim.set_program(
            NodeId(me),
            Box::new(move || {
                mpi.progress();
                errs.set(errs.get() + mpi.fm().take_errors().len());
                loop {
                    match &mut phase {
                        Phase::Idle => {
                            if iter == ITERS {
                                done_flags.borrow_mut()[me] = true;
                                break;
                            }
                            phase = Phase::Barrier(Sched::barrier(&mut mpi));
                        }
                        Phase::Barrier(op) => {
                            if !op.poll(&mut mpi) {
                                break;
                            }
                            phase = Phase::Allreduce(Sched::allreduce(
                                &mut mpi,
                                &contrib(me, iter),
                                ReduceOp::SumF64,
                            ));
                        }
                        Phase::Allreduce(op) => {
                            if !op.poll(&mut mpi) {
                                break;
                            }
                            let got = op.take_result();
                            let want = expected(N, iter);
                            for (j, c) in got.chunks_exact(8).enumerate() {
                                let x = f64::from_le_bytes(c.try_into().unwrap());
                                assert_eq!(x, want[j], "iter {iter} elem {j} on rank {me}");
                            }
                            count.set(count.get() + 1);
                            iter += 1;
                            phase = Phase::Idle;
                        }
                    }
                }
                let me_done = done_flags.borrow()[me];
                let everyone = done_flags.borrow().iter().all(|&d| d);
                if everyone && all_engines.iter().all(|e| e.unacked_packets() == 0) {
                    StepOutcome::Done
                } else {
                    if me_done {
                        // Heartbeat while waiting on other nodes' windows
                        // to drain (see run_script_lossy).
                        mpi.fm().with_device(|d| {
                            let at = d.now() + Nanos::from_us(50);
                            d.request_wake(at);
                        });
                    }
                    StepOutcome::Wait
                }
            }),
        );
    }

    sim.run(Some(Nanos::from_ms(120_000)));
    assert!(sim.all_done(), "soak wedged");
    for (me, c) in completed.iter().enumerate() {
        assert_eq!(c.get(), ITERS, "rank {me} iterations");
    }
    assert_eq!(errs.get(), 0, "message loss under soak");
}
