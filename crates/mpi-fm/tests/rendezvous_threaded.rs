//! MPI-FM 2.x's rendezvous on a same-host fabric: the granted DATA is
//! read out of the sender's memory, not streamed.
//!
//! One two-rank script moves 64 KiB and 256 KiB messages, both longer
//! than one one-sided chunk and so rendezvous, each once with the receive
//! posted before the RTS arrives and once with the RTS stored as
//! unexpected first. The receiver checks every byte and acknowledges
//! each message; the sender counts the packets it sent between `isend`
//! and that acknowledgement. On the threaded mesh the receiver pulls the
//! payload (`fm_core::onesided`'s same-host pull), so the sender sends a
//! few header packets per message; on the simulator, which never pulls,
//! the same script streams the payload packet by packet.

use std::cell::RefCell;
use std::rc::Rc;

use fm_core::blocking::Backoff;
use fm_core::{Fm2Engine, FmStats, NetDevice, SimDevice};
use fm_model::{MachineProfile, Nanos};
use fm_threaded::ThreadedCluster;
use mpi_fm::{Mpi, Mpi2, RecvReq, SendReq};
use myrinet_sim::{NodeId, Simulation, StepOutcome, Topology};

const KIB: usize = 1024;
const TAG_DATA: u32 = 1;
const TAG_READY: u32 = 2;
const TAG_ACK: u32 = 3;

/// Each message: its size, and whether the receive is posted before the
/// RTS arrives (else the RTS waits in the unexpected queue).
const MESSAGES: [(usize, bool); 4] = [
    (64 * KIB, true),
    (64 * KIB, false),
    (256 * KIB, true),
    (256 * KIB, false),
];

fn payload(k: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 7 + k * 13) % 251) as u8).collect()
}

/// One rank of the script, as a poll step: rank 0 sends, rank 1
/// receives. `step` returns true once the rank is done.
#[derive(Default)]
struct Script {
    rank: usize,
    /// The message being moved.
    k: usize,
    /// Sender: the receiver's "posted" notice, awaited.
    ready: Option<RecvReq>,
    /// Sender: the receiver's acknowledgement, and the stats at `isend`.
    ack: Option<(RecvReq, FmStats)>,
    /// Sender: packets sent per message, `isend` to acknowledgement.
    packets: Vec<u64>,
    /// Receiver: the posted receive.
    data: Option<RecvReq>,
    /// Receiver: unexpected arrivals seen so far.
    unexpected: u64,
    /// Receiver: its acknowledgements, all on the wire before it is done.
    acks: Vec<SendReq>,
}

impl Script {
    fn new(rank: usize) -> Self {
        Script {
            rank,
            ..Script::default()
        }
    }

    fn step<D: NetDevice + 'static>(&mut self, mpi: &mut Mpi2<D>) -> bool {
        mpi.progress();
        let done = match self.rank {
            0 => self.send(mpi),
            _ => self.receive(mpi),
        };
        mpi.progress();
        done
    }

    fn send<D: NetDevice + 'static>(&mut self, mpi: &mut Mpi2<D>) -> bool {
        while let Some(&(len, posted)) = MESSAGES.get(self.k) {
            if let Some((ack, before)) = &self.ack {
                if !ack.is_done() {
                    return false;
                }
                self.packets
                    .push(mpi.fm().stats().delta(before).packets_sent);
                self.ack = None;
                self.k += 1;
                continue;
            }
            if posted {
                let ready = self
                    .ready
                    .get_or_insert_with(|| mpi.irecv(Some(1), Some(TAG_READY), 1));
                if !ready.is_done() {
                    return false;
                }
                self.ready = None;
            }
            let before = mpi.fm().stats();
            let ack = mpi.irecv(Some(1), Some(TAG_ACK), 1);
            mpi.isend(1, TAG_DATA, payload(self.k, len));
            self.ack = Some((ack, before));
        }
        true
    }

    fn receive<D: NetDevice + 'static>(&mut self, mpi: &mut Mpi2<D>) -> bool {
        while let Some(&(len, posted)) = MESSAGES.get(self.k) {
            let Some(data) = &self.data else {
                if posted {
                    self.data = Some(mpi.irecv(Some(0), Some(TAG_DATA), len));
                    self.acks.push(mpi.isend(0, TAG_READY, vec![1]));
                } else if mpi.unexpected_total() > self.unexpected {
                    // The RTS is queued: the receive matches it at once.
                    self.unexpected = mpi.unexpected_total();
                    self.data = Some(mpi.irecv(Some(0), Some(TAG_DATA), len));
                } else {
                    return false;
                }
                continue;
            };
            if !data.is_done() {
                return false;
            }
            let got = self.data.take().and_then(|req| req.take()).expect("done");
            assert!(
                got == payload(self.k, len),
                "message {} ({len} B, posted: {posted}) diverged",
                self.k
            );
            self.acks.push(mpi.isend(0, TAG_ACK, vec![1]));
            self.k += 1;
        }
        self.acks.iter().all(SendReq::is_done)
    }
}

/// The sender's packets per message on the threaded mesh.
fn threaded() -> Vec<u64> {
    let profile = MachineProfile::ppro200_fm2();
    let mut out = ThreadedCluster::run(2, |rank, dev| {
        let mut mpi = Mpi2::new(Fm2Engine::new(dev, profile));
        let mut script = Script::new(rank);
        let mut backoff = Backoff::new("rendezvous script");
        while !script.step(&mut mpi) {
            backoff.snooze();
        }
        script.packets
    });
    out.swap_remove(0)
}

/// The sender's packets per message on the simulator.
fn simulated() -> Vec<u64> {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim = Simulation::new(profile, Topology::single_crossbar(2));
    let packets = Rc::new(RefCell::new(None));
    for rank in 0..2 {
        let fm = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(rank))), profile);
        let mut mpi = Mpi2::new(fm);
        let mut script = Script::new(rank);
        let out = Rc::clone(&packets);
        sim.set_program(
            NodeId(rank),
            Box::new(move || {
                if !script.step(&mut mpi) {
                    return StepOutcome::Wait;
                }
                if rank == 0 {
                    *out.borrow_mut() = Some(std::mem::take(&mut script.packets));
                }
                StepOutcome::Done
            }),
        );
    }
    sim.run(Some(Nanos(10_000_000_000)));
    let packets = packets.take();
    packets.expect("the simulated sender finished")
}

#[test]
fn rendezvous_is_pulled_on_a_same_host_fabric_and_streams_on_the_simulator() {
    let mtu = MachineProfile::ppro200_fm2().fm.mtu_payload;
    let (pulled, streamed) = (threaded(), simulated());
    for (k, &(len, posted)) in MESSAGES.iter().enumerate() {
        let what = format!("message {k} ({len} B, posted: {posted})");
        assert!(
            pulled[k] <= 8,
            "threads: {what} cost the sender {} packets, not a few headers",
            pulled[k]
        );
        assert!(
            streamed[k] as usize >= len / mtu,
            "sim: {what} cost the sender {} packets, fewer than one per MTU",
            streamed[k]
        );
    }
}

#[test]
fn a_sender_that_returns_after_its_blocking_send_leaves_the_payload_whole() {
    // A rendezvous send completes only once the one-sided layer holds
    // none of its payload — streamed onto the wire, or read by the
    // receiver and answered — so the sender may return, freeing its
    // engine and every buffer, as soon as its blocking send does.
    for len in [64 * KIB, 256 * KIB] {
        let delivered = ThreadedCluster::run(2, move |rank, dev| {
            let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
            if rank == 0 {
                mpi.send(1, TAG_DATA, payload(0, len));
                return true;
            }
            let (got, _) = mpi.recv(Some(0), Some(TAG_DATA), len);
            got == payload(0, len)
        });
        assert!(delivered[1], "{len} B arrived corrupted");
    }
}
