//! Workload-driven soak probe: adversarial traffic shapes from
//! [`fm_model::workload`] driven over any [`Fabric`], with one-way
//! latency distributions (p50/p99/p999) as the result.
//!
//! Over [`Sim`] with a lossy wire it runs in deterministic virtual time —
//! same spec + same seed ⇒ bit-identical histograms, which the seed-sweep
//! determinism tests pin; over [`crate::fabric::Udp`] it is n OS threads,
//! real loopback sockets, seeded datagram loss and wall-clock nanoseconds.
//!
//! Every message carries a [`STAMP_BYTES`]-byte header (send timestamp +
//! per-sender sequence) so the receiving handler measures one-way latency
//! without any out-of-band channel. A run completes only when every rank
//! has sent its schedule, every expected message was delivered and every
//! retransmit window has drained, so a run that completes proves zero
//! FM-level loss by construction — `lost` in the result is the
//! cross-check.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};

use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, FmStream, LogHistogram, NetDevice};
use fm_model::workload::{decode_stamp, encode_stamp, PauseSpec, WorkloadSpec, STAMP_BYTES};
use fm_model::{MachineProfile, Nanos};
use mpi_fm::{run_shuffle, Mpi2, ShuffleSpec};
use myrinet_sim::fault::FaultModel;

use crate::fabric::{blocking, retransmit, Fabric, Program, Sim, Step};

/// Handler id carrying workload traffic.
const WORK: HandlerId = HandlerId(41);

/// The measured outcome of one workload run on one transport.
#[derive(Debug, Clone)]
pub struct WorkloadDist {
    /// The spec that was driven.
    pub spec: WorkloadSpec,
    /// One-way latency samples (ns), merged across every receiver.
    pub latency_ns: LogHistogram,
    /// End-to-end run time: from the first rank's program being built to
    /// the last rank's final poll, on the fabric's cross-rank clock.
    pub elapsed: Nanos,
    /// Messages delivered to handlers, summed over ranks.
    pub delivered: u64,
    /// Expected minus delivered — nonzero means FM-level loss.
    pub lost: u64,
    /// Reliability-sublayer resends, summed over ranks (loss happened on
    /// the wire and was repaired below the FM interface).
    pub retransmissions: u64,
}

/// What a rank that has sent its whole schedule knows about itself; the
/// `all_done` rule of [`traffic_program`] decides from it whether the
/// rank may leave.
pub struct RankProgress {
    /// Messages delivered to this rank's handler so far.
    pub delivered: u64,
    /// Messages every schedule, replayed, directs at this rank.
    pub expected: u64,
    /// Packets this rank sent that are not yet acknowledged.
    pub unacked: usize,
}

/// One rank's share of the result.
pub struct RankReport {
    /// One sample per message delivered here.
    pub latency_ns: LogHistogram,
    /// Messages this rank sent.
    pub sent: usize,
    /// Reliability-sublayer resends by this rank.
    pub retransmissions: u64,
    first_poll: u64,
    last_poll: u64,
}

/// What a rank's handler keeps: the latency samples and, per source, how
/// far into that source's replayed schedule its arrivals have got.
struct Inbox {
    latency_ns: LogHistogram,
    cursor: Vec<usize>,
}

/// Rank `me` of a scheduled traffic pattern: `schedules[r]` lists rank
/// `r`'s destinations in send order, every message `payload` bytes.
///
/// The rank sends what the window admits, drains what arrived, parks
/// otherwise; messages are stamped on `clock` (which must be comparable
/// across ranks) when the poll that sent them began. Every rank can replay
/// every schedule, so the handler checks each arrival against the send
/// index its channel owes next — FM's per-channel FIFO, asserted — and
/// the rank knows how many messages it is owed in all. A paused rank
/// stops driving its engine entirely (no extracts, no acks, no
/// heartbeats) until its resume time — the honest straggler, exactly what
/// a stalled process looks like to its peers. Once its schedule is sent
/// the rank asks `all_done` on every poll whether it may leave.
pub fn traffic_program<D: NetDevice + 'static>(
    me: usize,
    fm: Fm2Engine<D>,
    schedules: &[Vec<usize>],
    payload: usize,
    pause: Option<PauseSpec>,
    clock: Rc<dyn Fn() -> u64>,
    mut all_done: impl FnMut(RankProgress) -> bool + 'static,
) -> Program<RankReport> {
    // Ground truth per channel: the send indices each peer aims at us,
    // in its send order.
    let aimed_here = |sched: &Vec<usize>| -> Vec<u32> {
        let here = sched.iter().enumerate().filter(|&(_, &dst)| dst == me);
        here.map(|(i, _)| i as u32).collect()
    };
    let owed: Vec<Vec<u32>> = schedules.iter().map(aimed_here).collect();
    let expected = owed.iter().map(|seqs| seqs.len() as u64).sum();
    let inbox = Rc::new(RefCell::new(Inbox {
        latency_ns: LogHistogram::new(),
        cursor: vec![0; schedules.len()],
    }));
    {
        let (inbox, clock, owed) = (Rc::clone(&inbox), Rc::clone(&clock), Rc::new(owed));
        fm.set_handler(WORK, move |stream: FmStream, src| {
            let (inbox, clock, owed) = (Rc::clone(&inbox), Rc::clone(&clock), Rc::clone(&owed));
            async move {
                let msg = stream.receive_vec(stream.msg_len()).await;
                let (t, seq) = decode_stamp(&msg);
                let mut inbox = inbox.borrow_mut();
                let next = owed[src].get(inbox.cursor[src]);
                assert_eq!(next, Some(&seq), "channel {src}->{me} broke schedule order");
                inbox.cursor[src] += 1;
                inbox.latency_ns.record(clock().saturating_sub(t).max(1));
            }
        });
    }
    let sched = schedules[me].clone();
    let pause = pause.filter(|p| p.rank == me);
    let mut pause_until: Option<u64> = None;
    let mut pause_taken = false;
    let mut sent = 0usize;
    let mut payload = vec![0u8; payload.max(STAMP_BYTES)];
    let first_poll = clock();
    let wake_at = |fm: &Fm2Engine<D>, at: Nanos| fm.with_device(|d| d.request_wake(at));
    Box::new(move || {
        let now = clock();
        if let Some(resume) = pause_until {
            if now < resume {
                // Mid-pause: do not touch the engine — a straggler
                // neither extracts nor acks. Just re-arm the alarm.
                wake_at(&fm, Nanos(resume));
                return Step::Idle;
            }
            pause_until = None;
        }
        let moved = fm.extract_all() > 0;
        while sent < sched.len() {
            if let Some(p) = pause.filter(|p| !pause_taken && sent == p.after_msgs) {
                pause_taken = true;
                let resume = now + p.dur_ns;
                pause_until = Some(resume);
                wake_at(&fm, Nanos(resume));
                return Step::Idle;
            }
            encode_stamp(&mut payload, now, sent as u32);
            if fm.try_send_message(sched[sent], WORK, &[&payload]).is_err() {
                // Window full: an ack or credit return will wake us.
                return Step::pending(moved);
            }
            sent += 1;
        }
        let progress = RankProgress {
            delivered: inbox.borrow().latency_ns.count(),
            expected,
            unacked: fm.unacked_packets(),
        };
        if !all_done(progress) {
            // Own schedule done, but the exit rule may poll other ranks'
            // state: heartbeat so the check re-runs.
            wake_at(&fm, fm.now() + Nanos::from_us(50));
            return Step::pending(moved);
        }
        Step::Done(RankReport {
            latency_ns: inbox.borrow().latency_ns.clone(),
            sent,
            retransmissions: fm.stats().retransmissions,
            first_poll,
            last_poll: now,
        })
    })
}

/// What the ranks of one in-process run can see of each other: there the
/// exit rule is global (nothing keeps a finished simulated rank acking),
/// and ranks of a thread fabric share nothing else.
struct Progress {
    senders_done: AtomicUsize,
    delivered: Vec<AtomicU64>,
    unacked: Vec<AtomicUsize>,
}

/// Drive `spec` over `spec.ranks` ranks of `fabric`, every rank running
/// its schedule concurrently as a [`traffic_program`]. A run completes
/// only when every rank has sent its schedule, every expected message was
/// delivered and every retransmit window has drained.
pub fn workload_dist<F: Fabric>(fabric: &F, spec: &WorkloadSpec) -> WorkloadDist {
    let n = spec.ranks;
    let total = spec.total_msgs();
    let shared = std::sync::Arc::new(Progress {
        senders_done: AtomicUsize::new(0),
        delivered: (0..n).map(|_| AtomicU64::new(0)).collect(),
        unacked: (0..n).map(|_| AtomicUsize::new(0)).collect(),
    });
    let spec = *spec;
    let schedules: Vec<Vec<usize>> = (0..n).map(|rank| spec.schedule(rank)).collect();
    let out = fabric.run(n, |me, fm| {
        let clock = F::clock(&fm);
        let shared = shared.clone();
        let mut announced = false;
        let everyone_done = move |mine: RankProgress| {
            if !std::mem::replace(&mut announced, true) {
                shared.senders_done.fetch_add(1, SeqCst);
            }
            shared.delivered[me].store(mine.delivered, SeqCst);
            shared.unacked[me].store(mine.unacked, SeqCst);
            shared.senders_done.load(SeqCst) == n
                && shared.delivered.iter().map(|d| d.load(SeqCst)).sum::<u64>() >= total
                && shared.unacked.iter().all(|u| u.load(SeqCst) == 0)
        };
        let (payload, pause) = (spec.payload, spec.pause);
        traffic_program(me, fm, &schedules, payload, pause, clock, everyone_done)
    });
    let mut latency_ns = LogHistogram::new();
    for r in &out {
        latency_ns.merge(&r.latency_ns);
    }
    let delivered = latency_ns.count();
    let first = out.iter().map(|r| r.first_poll).min().unwrap_or(0);
    let last = out.iter().map(|r| r.last_poll).max().unwrap_or(0);
    WorkloadDist {
        spec,
        latency_ns,
        elapsed: Nanos(last - first),
        delivered,
        lost: total - delivered,
        retransmissions: out.iter().map(|r| r.retransmissions).sum(),
    }
}

/// The epoch-barrier partitioned shuffle (`mpi_fm::run_shuffle`, the
/// streaming-dataflow scenario) on `spec.ranks` ranks of a thread fabric.
/// The runner asserts per-key ordering and epoch completeness inline;
/// this adds the cross-rank conservation law — every record sent is
/// received, no engine error. Returns (records received,
/// retransmissions), both summed over ranks.
pub fn shuffle_over<F: Fabric>(fabric: &F, spec: ShuffleSpec) -> (u64, u64) {
    // The runner blocks: a one-step program. The fabric keeps each
    // finished rank serviced, so a peer whose final barrier (or our ack
    // to it) was dropped still finds us alive.
    let reports = fabric.run(spec.ranks, |_, fm| {
        blocking(move || {
            let mut mpi = Mpi2::new(fm);
            let report = run_shuffle(&mut mpi, spec);
            let retx = mpi.fm().stats().retransmissions;
            let errors = mpi.fm().take_errors().len();
            (report, retx, errors)
        })
    });
    let sent: u64 = reports.iter().map(|(r, _, _)| r.records_sent).sum();
    let received: u64 = reports.iter().map(|(r, _, _)| r.records_received).sum();
    let errors: usize = reports.iter().map(|(_, _, e)| e).sum();
    assert_eq!(sent, spec.total_records(), "shuffle under-produced");
    assert_eq!(received, spec.total_records(), "shuffle FM-level loss");
    assert_eq!(errors, 0, "shuffle surfaced engine errors");
    for (rank, (r, _, _)) in reports.iter().enumerate() {
        assert_eq!(r.epochs_completed, spec.epochs, "rank {rank} epochs");
    }
    (received, reports.iter().map(|(_, retx, _)| retx).sum())
}

/// Drive `spec` over an n-node simulated cluster with `drop_p` seeded
/// packet loss and adaptive retransmission, in deterministic virtual time.
pub fn sim_workload_dist(spec: &WorkloadSpec, drop_p: f64) -> WorkloadDist {
    let drop = FaultModel::Drop {
        p: drop_p,
        seed: spec.seed,
    };
    let faults = if drop_p > 0.0 { vec![drop] } else { vec![] };
    let sim = Sim::new(MachineProfile::ppro200_fm2()).unreliable(retransmit(), faults);
    workload_dist(&sim, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_model::workload::{PauseSpec, Shape};

    #[test]
    fn sim_uniform_delivers_everything_under_loss() {
        let spec = WorkloadSpec::new(Shape::Uniform, 4, 200, 64, 0xBEEF);
        let d = sim_workload_dist(&spec, 0.01);
        assert_eq!(d.lost, 0);
        assert_eq!(d.delivered, 800);
        assert!(d.retransmissions > 0, "1% drop must force retransmits");
        assert_eq!(d.latency_ns.count(), 800);
        assert!(d.latency_ns.p50() <= d.latency_ns.p99());
        assert!(d.latency_ns.p99() <= d.latency_ns.p999());
    }

    #[test]
    fn sim_incast_collapses_per_message_throughput() {
        // The fan-in bottleneck: uniform spreads 1200 messages over four
        // receivers, incast funnels 900 through one. Per-message service
        // time at the bottleneck must be visibly worse.
        let uni = sim_workload_dist(&WorkloadSpec::new(Shape::Uniform, 4, 300, 64, 7), 0.0);
        let inc = sim_workload_dist(&WorkloadSpec::new(Shape::Incast, 4, 300, 64, 7), 0.0);
        assert_eq!((uni.lost, inc.lost), (0, 0));
        let uni_per_msg = uni.elapsed.as_ns() as f64 / uni.delivered as f64;
        let inc_per_msg = inc.elapsed.as_ns() as f64 / inc.delivered as f64;
        assert!(
            inc_per_msg > uni_per_msg,
            "incast {inc_per_msg:.0} ns/msg should exceed uniform {uni_per_msg:.0} ns/msg"
        );
        // And the tail must be real: p999 strictly resolvable above p50.
        assert!(inc.latency_ns.p50() < inc.latency_ns.p999());
    }

    #[test]
    fn sim_pause_stalls_and_still_completes() {
        let mut spec = WorkloadSpec::new(Shape::Uniform, 3, 150, 64, 99);
        spec.pause = Some(PauseSpec {
            rank: 1,
            after_msgs: 50,
            dur_ns: 5_000_000, // 5 virtual ms
        });
        let paused = sim_workload_dist(&spec, 0.005);
        assert_eq!(paused.lost, 0);
        let mut nopause = spec;
        nopause.pause = None;
        let clean = sim_workload_dist(&nopause, 0.005);
        assert!(
            paused.elapsed > clean.elapsed,
            "a straggler must lengthen the run ({} vs {})",
            paused.elapsed.as_ns(),
            clean.elapsed.as_ns()
        );
    }
}
