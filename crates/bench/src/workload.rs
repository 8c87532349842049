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
use fm_core::{FmStream, LogHistogram, NetDevice};
use fm_model::workload::{decode_stamp, encode_stamp, WorkloadSpec, STAMP_BYTES};
use fm_model::{MachineProfile, Nanos};
use myrinet_sim::fault::FaultModel;

use crate::fabric::{adaptive, Fabric, Sim, Step};

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

/// What the ranks of one run can see of each other: the exit condition
/// is global, and ranks of a thread fabric share nothing else.
struct Progress {
    senders_done: AtomicUsize,
    delivered: AtomicU64,
    unacked: Vec<AtomicUsize>,
}

/// One rank's share of the result.
struct RankReport {
    /// One sample per message delivered here.
    latency_ns: LogHistogram,
    retransmissions: u64,
    first_poll: u64,
    last_poll: u64,
}

/// Drive `spec` over `spec.ranks` ranks of `fabric`.
///
/// Every rank runs its schedule concurrently: send what the window
/// admits, drain what arrived, park otherwise; messages are stamped with
/// the time the poll that sent them began. A paused rank stops driving
/// its engine entirely (no extracts, no acks, no heartbeats) until its
/// resume time — the honest straggler, exactly what a stalled process
/// looks like to its peers.
pub fn workload_dist<F: Fabric>(fabric: &F, spec: &WorkloadSpec) -> WorkloadDist {
    let n = spec.ranks;
    let total = spec.total_msgs();
    let shared = Progress {
        senders_done: AtomicUsize::new(0),
        delivered: AtomicU64::new(0),
        unacked: (0..n).map(|_| AtomicUsize::new(0)).collect(),
    };
    let shared = std::sync::Arc::new(shared);
    let spec = *spec;
    let out = fabric.run(n, |me, fm| {
        let clock = F::clock(&fm);
        let hist = Rc::new(RefCell::new(LogHistogram::new()));
        {
            let (hist, clock, shared) = (Rc::clone(&hist), Rc::clone(&clock), shared.clone());
            fm.set_handler(WORK, move |stream: FmStream, _src| {
                let (hist, clock, shared) = (Rc::clone(&hist), Rc::clone(&clock), shared.clone());
                async move {
                    let msg = stream.receive_vec(stream.msg_len()).await;
                    let (t, _seq) = decode_stamp(&msg);
                    hist.borrow_mut().record(clock().saturating_sub(t).max(1));
                    shared.delivered.fetch_add(1, SeqCst);
                }
            });
        }
        let sched = spec.schedule(me);
        let pause = spec.pause.filter(|p| p.rank == me);
        let mut pause_until: Option<u64> = None;
        let mut pause_taken = false;
        let (mut sent, mut sent_all) = (0usize, false);
        let mut payload = vec![0u8; spec.payload.max(STAMP_BYTES)];
        let first_poll = clock();
        let shared = shared.clone();
        let wake_at = move |fm: &fm_core::Fm2Engine<F::Dev>, at: Nanos| {
            fm.with_device(|d| d.request_wake(at));
        };
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
            if !std::mem::replace(&mut sent_all, true) {
                shared.senders_done.fetch_add(1, SeqCst);
            }
            shared.unacked[me].store(fm.unacked_packets(), SeqCst);
            let everyone = shared.senders_done.load(SeqCst) == n
                && shared.delivered.load(SeqCst) >= total
                && shared.unacked.iter().all(|u| u.load(SeqCst) == 0);
            if !everyone {
                // Own schedule done, but the exit condition polls other
                // ranks' state: heartbeat so the check re-runs.
                wake_at(&fm, fm.now() + Nanos::from_us(50));
                return Step::pending(moved);
            }
            Step::Done(RankReport {
                latency_ns: hist.borrow().clone(),
                retransmissions: fm.stats().retransmissions,
                first_poll,
                last_poll: now,
            })
        })
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

/// Drive `spec` over an n-node simulated cluster with `drop_p` seeded
/// packet loss and adaptive retransmission, in deterministic virtual time.
pub fn sim_workload_dist(spec: &WorkloadSpec, drop_p: f64) -> WorkloadDist {
    let drop = FaultModel::Drop {
        p: drop_p,
        seed: spec.seed,
    };
    let faults = if drop_p > 0.0 { vec![drop] } else { vec![] };
    let sim = Sim::new(MachineProfile::ppro200_fm2()).unreliable(adaptive(), faults);
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
