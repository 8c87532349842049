//! Two ranks on two threads: device pairs, the rendezvous between the
//! rank threads, and the hygiene around them (unique shm run ids,
//! segment cleanup on every exit path, a watchdog that turns a hang into
//! a failure).
//!
//! Devices are built with the defaults a user gets. The only fields set
//! are the ones the issue allows: the shm `run_id`, and the UDP
//! `drop_outbound`/`drop_seed`.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use fm_route::{HostMap, RoutedDevice};
use fm_shm::{segment_name, shm_cluster, ShmConfig, ShmDevice};
use fm_threaded::ThreadedDevice;
use fm_udp::{loopback_cluster, UdpConfig, UdpDevice};

use crate::trace::TracedDevice;

/// How long a device join barrier may take.
pub const JOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Segment files this process created and has not yet seen unlinked.
static SEGMENTS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Distinguishes the clusters one process opens.
static CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// A default config for the 0-1 rank pair with a run id of its own,
/// whose segment file is registered for cleanup on abnormal exits.
pub fn registered_shm_config(tag: &str) -> ShmConfig {
    let n = CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed);
    let cfg = ShmConfig {
        run_id: format!("fmbench{}-{tag}-{n}", std::process::id()),
        ..ShmConfig::default()
    };
    SEGMENTS
        .lock()
        .expect("segment registry poisoned by a panicking thread")
        .push(cfg.dir.join(segment_name(&cfg.run_id, 0, 1)));
    cfg
}

/// Two shared-memory devices with default geometry; `tag` names the
/// workload in the segment file name.
pub fn shm_pair(tag: &str) -> io::Result<Vec<ShmDevice>> {
    shm_cluster(2, registered_shm_config(tag))
}

/// Two loopback UDP devices bound to `127.0.0.1:0`, with seeded
/// outbound loss `drop` (0 for none).
pub fn udp_pair(drop: f64, seed: u64) -> io::Result<Vec<UdpDevice>> {
    loopback_cluster(
        2,
        UdpConfig {
            drop_outbound: drop,
            drop_seed: seed,
            ..UdpConfig::default()
        },
    )
}

/// Two routed devices with both ranks on one host: every frame takes the
/// shm member, the UDP member is bound but idle.
pub fn routed_pair(tag: &str) -> io::Result<Vec<RoutedDevice<ShmDevice, UdpDevice>>> {
    let shm = shm_pair(tag)?;
    let udp = udp_pair(0.0, 0)?;
    Ok(shm
        .into_iter()
        .zip(udp)
        .map(|(s, u)| RoutedDevice::new(s, u, HostMap::all_on_one_host(2)))
        .collect())
}

/// Unlink every segment file this process registered. Graceful runs have
/// already unlinked theirs (last one out does it); this is for panics
/// and deadlines.
pub fn cleanup_segments() {
    if let Ok(mut segs) = SEGMENTS.lock() {
        for p in segs.drain(..) {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Segment files of this process still present in `/dev/shm`.
pub fn leftover_segments() -> Vec<PathBuf> {
    let prefix = format!("fmbench{}-", std::process::id());
    let Ok(dir) = std::fs::read_dir(ShmConfig::default().dir) else {
        return Vec::new();
    };
    dir.flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(&prefix))
        .map(|e| e.path())
        .collect()
}

/// Install the panic hook (segments are unlinked, the message is
/// printed, and the process ends with code 101 — the peer rank would
/// otherwise spin on a thread that is gone) and start a watchdog that
/// ends the process with code 3 if the run outlives `limit` — a hang
/// inside a blocking API call of the program becomes a failed run, not a
/// stuck one.
pub fn install_guards(limit: Duration) {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        cleanup_segments();
        default_hook(info);
        std::process::exit(101);
    }));
    thread::Builder::new()
        .name("fm-bench-watchdog".into())
        .spawn(move || {
            thread::sleep(limit);
            cleanup_segments();
            eprintln!(
                "fm-benchmark: run exceeded {limit:?}; operations outstanding count as failed"
            );
            std::process::exit(3);
        })
        .expect("spawn watchdog");
}

/// What the two rank threads of one leg share besides the transport
/// under test: a rendezvous, a stop flag, and the operation count the
/// leader settled on.
pub struct Sync2 {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Set by the leading rank when its leg is over.
    pub stop: AtomicBool,
    /// Operations the leading rank issued in the leg (valid once `stop`).
    pub count: AtomicU64,
    /// Leader's decision about the next round of legs, published before
    /// a rendezvous (the workload defines the values).
    pub round: AtomicU64,
}

impl Default for Sync2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sync2 {
    /// Fresh state for two ranks.
    pub fn new() -> Self {
        Sync2 {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            count: AtomicU64::new(0),
            round: AtomicU64::new(0),
        }
    }

    /// Wait until both ranks are here, or `deadline` passes (then
    /// `false`). The second arrival also clears `stop`/`count`, so a
    /// rendezvous opens a fresh leg.
    pub fn rendezvous(&self, deadline: Instant) -> bool {
        self.rendezvous_with(deadline, thread::yield_now)
    }

    /// [`Sync2::rendezvous`], calling `poll` while waiting — a rank whose
    /// engine must keep turning (acks, credits) for the peer to get here.
    pub fn rendezvous_with(&self, deadline: Instant, mut poll: impl FnMut()) -> bool {
        let gen = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) == 1 {
            self.arrived.store(0, Ordering::SeqCst);
            self.stop.store(false, Ordering::SeqCst);
            self.count.store(0, Ordering::SeqCst);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            return true;
        }
        while self.generation.load(Ordering::SeqCst) == gen {
            if Instant::now() >= deadline {
                return false;
            }
            poll();
        }
        true
    }

    /// Leader: publish the leg's operation count and raise `stop`.
    pub fn finish(&self, count: u64) {
        self.count.store(count, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Follower: the leader's final count, once it has stopped.
    pub fn final_count(&self) -> Option<u64> {
        self.stop
            .load(Ordering::SeqCst)
            .then(|| self.count.load(Ordering::SeqCst))
    }
}

/// A device whose cluster must be joined from its own rank thread before
/// traffic flows.
pub trait Join {
    /// Complete the join barrier with the peer.
    fn join_cluster(&mut self) -> io::Result<()>;
}

impl Join for ShmDevice {
    fn join_cluster(&mut self) -> io::Result<()> {
        self.join(JOIN_TIMEOUT)
    }
}

impl Join for UdpDevice {
    fn join_cluster(&mut self) -> io::Result<()> {
        self.join(JOIN_TIMEOUT)
    }
}

impl Join for RoutedDevice<ShmDevice, UdpDevice> {
    fn join_cluster(&mut self) -> io::Result<()> {
        // Same order on both ranks: no cross-fabric deadlock.
        self.remote_mut().join(JOIN_TIMEOUT)?;
        self.local_mut().join(JOIN_TIMEOUT)
    }
}

impl Join for ThreadedDevice {
    fn join_cluster(&mut self) -> io::Result<()> {
        Ok(()) // channels are connected at construction
    }
}

/// Two rank threads that stay up for `sessions` sessions of
/// open-the-pair-then-`body`. Each session, rank 0 builds both devices
/// with `open` (the cluster constructor a two-rank program would call)
/// and hands rank 1 its own; each rank joins from its own thread and
/// runs `body` on the device wrapped in a [`TracedDevice`]. Nothing in a
/// session waits for a thread to be spawned or woken — on a virtual
/// machine that wait is the host's scheduling latency, not the program's
/// set-up cost. `body` gets the instant its session began (both ranks
/// released together). Results come back as `[session][rank]`.
pub fn run_sessions<D, R, O, B>(sessions: usize, open: O, body: B) -> Vec<Vec<R>>
where
    D: Join + Send,
    R: Send,
    O: Fn(usize) -> io::Result<Vec<D>> + Sync,
    B: Fn(usize, usize, TracedDevice<D>, Instant) -> R + Sync,
{
    let gate = Sync2::new();
    let handoff: Mutex<Option<D>> = Mutex::new(None);
    let poisoned = "device hand-off poisoned by a panicking thread";
    let per_rank = run_pair(vec![(), ()], |rank, ()| {
        (0..sessions)
            .map(|session| {
                let deadline = Instant::now() + JOIN_TIMEOUT;
                assert!(
                    gate.rendezvous(deadline),
                    "peer rank never reached session {session}"
                );
                let began = Instant::now();
                let mut dev = if rank == 0 {
                    let mut pair = open(session).expect("open the device pair");
                    assert_eq!(pair.len(), 2, "the benchmark is 2 ranks");
                    *handoff.lock().expect(poisoned) = pair.pop();
                    pair.pop().expect("rank 0's device")
                } else {
                    loop {
                        if let Some(dev) = handoff.lock().expect(poisoned).take() {
                            break dev;
                        }
                        assert!(Instant::now() < deadline, "rank 0 never opened the pair");
                        std::hint::spin_loop();
                    }
                };
                dev.join_cluster().expect("join barrier");
                body(rank, session, TracedDevice::new(dev), began)
            })
            .collect::<Vec<R>>()
    });
    let mut ranks = per_rank.into_iter();
    let (r0, r1) = (ranks.next().expect("rank 0"), ranks.next().expect("rank 1"));
    r0.into_iter().zip(r1).map(|(a, b)| vec![a, b]).collect()
}

/// One session on devices already built: `f(rank, device)` on two
/// threads, results in rank order (the rungs and tests).
pub fn run_ranks<D, R, F>(devices: Vec<D>, f: F) -> Vec<R>
where
    D: Join + Send,
    R: Send,
    F: Fn(usize, TracedDevice<D>) -> R + Sync,
{
    let devices = Mutex::new(Some(devices));
    run_sessions(
        1,
        |_| {
            let taken = devices.lock().expect("device pair poisoned").take();
            Ok(taken.expect("one session opens once"))
        },
        |rank, _, dev, _| f(rank, dev),
    )
    .pop()
    .expect("one session")
}

/// Run `f(rank, device)` for the two devices on two named threads and
/// return both results in rank order. A panic in either thread
/// propagates after both have ended.
pub fn run_pair<D, R, F>(devices: Vec<D>, f: F) -> Vec<R>
where
    D: Send,
    R: Send,
    F: Fn(usize, D) -> R + Sync,
{
    assert_eq!(devices.len(), 2, "the benchmark is 2 ranks");
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = devices
            .into_iter()
            .enumerate()
            .map(|(rank, dev)| {
                thread::Builder::new()
                    .name(format!("fm-bench-rank-{rank}"))
                    .spawn_scoped(scope, move || f(rank, dev))
                    .expect("spawn rank thread")
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_meets_and_times_out() {
        let s = Sync2::new();
        let far = Instant::now() + Duration::from_secs(5);
        thread::scope(|scope| {
            let h = scope.spawn(|| s.rendezvous(far));
            assert!(s.rendezvous(far));
            assert!(h.join().unwrap());
        });
        // Alone, the deadline ends the wait.
        assert!(!s.rendezvous(Instant::now() + Duration::from_millis(5)));
    }

    #[test]
    fn shm_pairs_get_distinct_run_ids_and_leave_nothing() {
        let a = shm_pair("t").unwrap();
        let b = shm_pair("t").unwrap();
        assert_ne!(a[0].run_id(), b[0].run_id());
        drop((a, b));
        assert!(leftover_segments().is_empty());
    }
}
