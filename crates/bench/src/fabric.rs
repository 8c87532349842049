//! One harness under every measurement: a [`Fabric`] opens N joined
//! ranks of one substrate, says which engine configuration that substrate
//! takes, and drives one poll-step [`Program`] per rank to completion.
//!
//! A probe is written once, as the per-rank programs of its shape, timed
//! by [`fm_core::NetDevice::now`] — virtual on the simulator, a monotonic
//! wall clock elsewhere. Programs are *poll steps* because that is the one
//! form both worlds can run: [`Sim`] installs them as node programs of the
//! event loop (a blocking call there never returns — virtual time only
//! advances between steps), the thread fabrics call the same step in
//! [`Backoff::wait`]. `mpi_fm::testutil::ScriptRunner` has the same split
//! (`poll` / `run_blocking`).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use fm_core::blocking::{self, quiesce, run_ranks, Backoff};
use fm_core::{Fm2Engine, NetDevice, ObsSink, SimDevice};
use fm_model::{MachineProfile, Nanos};
use fm_route::{HostMap, RoutedDevice};
use fm_shm::{ShmCluster, ShmConfig, ShmDevice};
use fm_threaded::{ThreadedCluster, ThreadedDevice};
use fm_udp::{loopback_cluster, UdpCluster, UdpConfig, UdpDevice, DEFAULT_JOIN_TIMEOUT};
use myrinet_sim::fault::FaultModel;
use myrinet_sim::{NodeId, Simulation, StepOutcome, Topology};

/// What one poll of a rank's program reports.
pub enum Step<R> {
    /// Nothing more to do until the network moves: park (simulator) or
    /// back off (threads).
    Idle,
    /// This poll moved something but finishing needs the network again:
    /// the simulator parks as for `Idle` (arrivals re-wake the rank), a
    /// thread polls again at once instead of backing off.
    Busy,
    /// More is pending regardless of the network (a paced consumer that
    /// leaves packets queued): run again once the charged compute time
    /// has elapsed. [`StepOutcome::Continue`] on the simulator.
    Again,
    /// The rank is finished and reports `R`.
    Done(R),
}

impl<R> Step<R> {
    /// Not finished yet: [`Step::Busy`] if this poll `moved` anything.
    pub fn pending(moved: bool) -> Self {
        if moved {
            Step::Busy
        } else {
            Step::Idle
        }
    }
}

/// One rank's program: polled until it reports [`Step::Done`].
pub type Program<R> = Box<dyn FnMut() -> Step<R>>;

/// A probe as a fabric sees it: `(rank, engine) -> that rank's program`.
pub trait Programs<D: NetDevice, R>: Fn(usize, Fm2Engine<D>) -> Program<R> + Sync {}
impl<D: NetDevice, R, T: Fn(usize, Fm2Engine<D>) -> Program<R> + Sync> Programs<D, R> for T {}

/// A substrate the probes can run on.
pub trait Fabric {
    /// The device each rank's engine sits on.
    type Dev: NetDevice + 'static;

    /// Machine profile for the engines; carries the credit window (and
    /// with it the retransmit window toward peers a lossy link reaches).
    fn profile(&self) -> MachineProfile {
        MachineProfile::ppro200_fm2()
    }

    /// The engine a rank of this fabric runs: it trusts a lossless link
    /// (FM on Myrinet) and retransmits over one that really drops.
    fn engine(&self, dev: Self::Dev) -> Fm2Engine<Self::Dev> {
        Fm2Engine::new(dev, self.profile())
    }

    /// Nanoseconds on a clock all ranks of one run share, for stamps that
    /// cross ranks. Device clocks will not do on the wall-clock fabrics —
    /// each starts when its device opened — so those read one
    /// process-wide monotonic clock.
    fn clock(_fm: &Fm2Engine<Self::Dev>) -> Rc<dyn Fn() -> u64> {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        Rc::new(|| EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64)
    }

    /// Open `n` joined ranks, build rank `i`'s engine and its program
    /// `make(i, engine)`, drive every program to [`Step::Done`], quiesce,
    /// tear down. Reports come back in rank order; a rank that cannot
    /// finish is a wedge and panics.
    fn run<R: Send + 'static>(&self, n: usize, make: impl Programs<Self::Dev, R>) -> Vec<R>;

    /// Called on each thread rank's engine once it has quiesced, before
    /// its device is dropped. Default: nothing.
    fn settled(&self, _fm: &Fm2Engine<Self::Dev>) {}
}

/// Poll `program` to completion through [`Backoff::wait`]: how every
/// rank that owns a thread runs — the thread fabrics' ranks below, and
/// the one rank a process of the multi-process launcher is.
pub fn drive<R>(mut program: Program<R>) -> R {
    Backoff::new("rank program").wait(|| match program() {
        Step::Done(r) => blocking::Step::Done(r),
        Step::Busy | Step::Again => blocking::Step::Moved,
        Step::Idle => blocking::Step::Idle,
    })
}

/// A blocking body (MPI's `barrier()`, a socket `recv`) as a one-step
/// program. Thread fabrics only: on [`Sim`] a blocking call never
/// returns.
pub fn blocking<R: 'static>(body: impl FnOnce() -> R + 'static) -> Program<R> {
    let mut body = Some(body);
    Box::new(move || Step::Done(body.take().expect("polled after Done")()))
}

/// One rank of a thread fabric: [`drive`] its program, then [`quiesce`]
/// before the device is dropped. No run may leave an engine error behind,
/// the linger included (a program that wants to count them takes them
/// first).
fn drive_rank<F: Fabric, R>(f: &F, rank: usize, dev: F::Dev, make: &impl Programs<F::Dev, R>) -> R {
    let fm = f.engine(dev);
    let report = drive(make(rank, fm.clone()));
    quiesce(&fm);
    f.settled(&fm);
    let errors = fm.take_errors();
    assert!(errors.is_empty(), "rank {rank} engine errors: {errors:?}");
    report
}

/// A segment run id no other cluster of this process shares: `cargo
/// test` runs probes concurrently, so a process-wide counter
/// disambiguates beyond the pid.
pub fn unique_run_id(tag: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("{tag}{}-{n}", std::process::id())
}

/// Virtual-time guard for simulated runs — generous; a wedged run dies
/// loudly instead of spinning the event loop forever.
const SIM_LIMIT: Nanos = Nanos(600_000_000_000);

/// The simulated Myrinet cluster: a single crossbar in deterministic
/// virtual time. Same configuration, same numbers, to the nanosecond.
pub struct Sim {
    profile: MachineProfile,
    faults: Vec<FaultModel>,
    obs: Option<(ObsSink, ObsSink)>,
    end: Cell<Nanos>,
}

impl Sim {
    /// A healthy wire under `profile`; engines trust it.
    pub fn new(profile: MachineProfile) -> Self {
        Sim {
            profile,
            faults: Vec::new(),
            obs: None,
            end: Cell::new(Nanos::ZERO),
        }
    }

    /// A wire that injects `faults`. With any fault model installed,
    /// `Drop { p: 0.0 }` included, the engines retransmit.
    pub fn faulty(mut self, faults: Vec<FaultModel>) -> Self {
        self.faults = faults;
        self
    }

    /// Attach observability sinks to the engines of ranks (0, 1).
    /// Recording never charges virtual time.
    pub fn observed(mut self, obs: Option<(ObsSink, ObsSink)>) -> Self {
        self.obs = obs;
        self
    }

    /// The sink for `rank`, if sinks are attached and it is 0 or 1.
    pub fn sink(&self, rank: usize) -> Option<ObsSink> {
        let (a, b) = self.obs.as_ref()?;
        [a, b].get(rank).map(|&s| s.clone())
    }

    /// Virtual time at which the last run stopped.
    pub fn end(&self) -> Nanos {
        self.end.get()
    }

    /// The device-level run, for programs over anything but a plain FM 2.x
    /// engine (FM 1.x, the MPI bindings). A rank that never finished
    /// reports `None`: a node parked on a flag is only re-woken by
    /// arrivals, so a probe whose last rank waits on another's verdict
    /// judges completion by the ranks it needs.
    pub fn run_devices<R: 'static>(
        &self,
        n: usize,
        make: impl Fn(usize, SimDevice) -> Program<R>,
    ) -> Vec<Option<R>> {
        let mut sim = Simulation::new(self.profile, Topology::single_crossbar(n));
        if !self.faults.is_empty() {
            sim.set_fault_models(self.faults.clone());
        }
        let reports: Vec<Rc<RefCell<Option<R>>>> = (0..n).map(|_| Rc::default()).collect();
        for (i, report) in reports.iter().enumerate() {
            let mut step = make(i, SimDevice::new(sim.host_interface(NodeId(i))));
            let report = Rc::clone(report);
            sim.set_program(
                NodeId(i),
                Box::new(move || match step() {
                    Step::Idle | Step::Busy => StepOutcome::Wait,
                    Step::Again => StepOutcome::Continue,
                    Step::Done(r) => {
                        *report.borrow_mut() = Some(r);
                        StepOutcome::Done
                    }
                }),
            );
        }
        self.end.set(sim.run(Some(SIM_LIMIT)));
        reports.iter().map(|r| r.borrow_mut().take()).collect()
    }

    /// Every rank's report, or a panic naming the first one that never
    /// finished `what`.
    pub fn finished<R>(&self, what: &str, reports: Vec<Option<R>>) -> Vec<R> {
        let parked = |i| panic!("{what} wedged: rank {i} parked at t={}", self.end());
        let done = |(i, r): (usize, Option<R>)| r.unwrap_or_else(|| parked(i));
        reports.into_iter().enumerate().map(done).collect()
    }
}

impl Fabric for Sim {
    type Dev = SimDevice;

    fn profile(&self) -> MachineProfile {
        self.profile
    }

    fn engine(&self, dev: SimDevice) -> Fm2Engine<SimDevice> {
        let sink = self.sink(dev.node_id());
        let fm = Fm2Engine::new(dev, self.profile);
        if let Some(sink) = sink {
            fm.attach_obs(sink);
        }
        fm
    }

    fn clock(fm: &Fm2Engine<SimDevice>) -> Rc<dyn Fn() -> u64> {
        let fm = fm.clone();
        Rc::new(move || fm.now().as_ns())
    }

    fn run<R: Send + 'static>(&self, n: usize, make: impl Programs<SimDevice, R>) -> Vec<R> {
        let reports = self.run_devices(n, |i, dev| make(i, self.engine(dev)));
        self.finished("simulated probe", reports)
    }
}

/// OS threads over `fm-threaded`: the shm rings in anonymous memory, with
/// no segment file, run id or join. Lossless.
pub struct Threads;

impl Fabric for Threads {
    type Dev = ThreadedDevice;

    fn run<R: Send + 'static>(&self, n: usize, make: impl Programs<Self::Dev, R>) -> Vec<R> {
        ThreadedCluster::run(n, |i, dev| drive_rank(self, i, dev, &make))
    }
}

/// OS threads over real loopback UDP sockets. The kernel really drops
/// datagrams (and the config can inject more), so engines retransmit.
#[derive(Default)]
pub struct Udp(pub UdpConfig);

impl Udp {
    /// Loopback UDP that additionally drops `drop_outbound` of every
    /// rank's datagrams, seeded.
    pub fn lossy(drop_outbound: f64, drop_seed: u64) -> Self {
        Udp(UdpConfig {
            drop_outbound,
            drop_seed,
            ..UdpConfig::default()
        })
    }

    /// Datagrams the kernel dropped at a full receive buffer, summed over
    /// every socket a run of this fabric closed in this process
    /// ([`UdpDevice::kernel_drops`]). Injected loss is not among them.
    pub fn kernel_drops() -> u64 {
        UDP_KERNEL_DROPS.load(Ordering::Relaxed)
    }
}

static UDP_KERNEL_DROPS: AtomicU64 = AtomicU64::new(0);

impl Fabric for Udp {
    type Dev = UdpDevice;

    fn run<R: Send + 'static>(&self, n: usize, make: impl Programs<Self::Dev, R>) -> Vec<R> {
        UdpCluster::run(n, self.0.clone(), |i, dev| drive_rank(self, i, dev, &make))
    }

    fn settled(&self, fm: &Fm2Engine<UdpDevice>) {
        let drops = fm.with_device(|d| d.kernel_drops()).unwrap_or(0);
        UDP_KERNEL_DROPS.fetch_add(drops, Ordering::Relaxed);
    }
}

/// OS threads over `fm-shm`'s mapped SPSC rings, `slots` deep per
/// direction, with the engine's credit window matched to the ring.
/// Lossless: engines trust it, exactly the trust FM places in Myrinet.
pub struct Shm {
    /// Ring depth and credit window.
    pub slots: u32,
}

impl Shm {
    /// Ring depth for round-trip probes: their messages are never
    /// windowed, and the small mapped footprint keeps the path
    /// cache-friendly.
    pub const SHALLOW: Shm = Shm { slots: 64 };

    /// Ring depth for streaming probes. FM's window bounds the receiver's
    /// pinned region; for a mapped ring the natural bound is the ring
    /// itself, and a deep window matters on a time-shared machine: when
    /// sender and receiver share a core, each scheduler swap drains at
    /// most one window, so the window size sets how many bytes every
    /// context switch amortizes over.
    pub const DEEP: Shm = Shm { slots: 512 };

    /// Segment geometry matching [`Fabric::profile`]'s credit window,
    /// under a run id starting with `tag`.
    pub fn config(&self, tag: &str) -> ShmConfig {
        ShmConfig {
            run_id: unique_run_id(tag),
            slots: self.slots,
            ..ShmConfig::default()
        }
    }
}

impl Fabric for Shm {
    type Dev = ShmDevice;

    fn profile(&self) -> MachineProfile {
        let mut profile = MachineProfile::ppro200_fm2();
        profile.fm.credits_per_peer = self.slots;
        profile
    }

    fn run<R: Send + 'static>(&self, n: usize, make: impl Programs<Self::Dev, R>) -> Vec<R> {
        ShmCluster::run(n, self.config("bench"), |i, dev| {
            drive_rank(self, i, dev, &make)
        })
    }
}

/// A "cluster of clusters" inside one process: rank `i` lives on
/// simulated host `hosts[i]`; same-host frames ride `fm-shm` rings,
/// cross-host frames ride loopback UDP, behind one [`RoutedDevice`].
/// Real multi-host runs swap the loopback sockets for the wire; the
/// routing is identical. The UDP half is lossy, so engines retransmit to
/// the ranks on other hosts and trust their same-host ones.
pub struct Routed {
    /// Host of each rank; the run's `n` must equal its length.
    pub hosts: Vec<usize>,
}

impl Routed {
    /// The canonical mixed-locality layout: `ranks_per_host` ranks on
    /// each of `num_hosts` hosts, ranks dense per host (0..k on host 0, …).
    pub fn blocks(num_hosts: usize, ranks_per_host: usize) -> Self {
        let hosts = (0..num_hosts * ranks_per_host).map(|r| r / ranks_per_host);
        Routed {
            hosts: hosts.collect(),
        }
    }
}

impl Fabric for Routed {
    type Dev = RoutedDevice<ShmDevice, UdpDevice>;

    fn run<R: Send + 'static>(&self, n: usize, make: impl Programs<Self::Dev, R>) -> Vec<R> {
        assert_eq!(n, self.hosts.len(), "one host per rank");
        let map = HostMap::new(self.hosts.clone());
        let cfg = Shm::SHALLOW.config("routed");
        // UDP sockets all bind before any device is built; shm devices
        // open sequentially in ascending rank order (attach-downward
        // makes that deadlock-free).
        let udp = loopback_cluster(n, UdpConfig::default()).expect("bind loopback cluster");
        let open = |(rank, udp)| {
            let shm = ShmDevice::open(rank, n, &map.local_peers(rank), cfg.clone());
            (shm.expect("open shm links"), udp)
        };
        let devices: Vec<(ShmDevice, UdpDevice)> = udp.into_iter().enumerate().map(open).collect();
        run_ranks("fm-routed-node", devices, |i, (mut shm, mut udp)| {
            // Same order on every rank: no cross-fabric deadlock.
            udp.join(DEFAULT_JOIN_TIMEOUT).expect("udp join barrier");
            shm.join(DEFAULT_JOIN_TIMEOUT).expect("shm join barrier");
            drive_rank(self, i, RoutedDevice::new(shm, udp, map.clone()), &make)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{latency_dist, stream_dist};

    /// The two-rank shapes over any fabric: every round yields a sample,
    /// every byte arrives, and FM 2.x copies each exactly once.
    fn smoke<F: Fabric>(fabric: &F) {
        let d = latency_dist(fabric, 16, 64, 4);
        assert_eq!(d.one_way_ns.count(), 64, "one sample per timed round");
        assert!(
            d.mean.as_ns() > 0 && d.mean.as_ns() < 10_000_000,
            "{}",
            d.mean
        );
        assert!(d.one_way_ns.p99() >= d.one_way_ns.p50());

        let s = stream_dist(fabric, 2048, 256);
        assert_eq!(s.result.bytes, 2048 * 256);
        assert_eq!(s.result.recv_copied, 2048 * 256, "one delivery copy");
        assert!(s.result.bandwidth().as_mbps() > 0.0, "nonzero bandwidth");
        assert!(s.per_message_kbps.count() >= 128);
    }

    #[test]
    fn every_fabric_runs_the_two_rank_shapes() {
        smoke(&Sim::new(MachineProfile::ppro200_fm2()));
        smoke(&Threads);
        smoke(&Udp::default());
        smoke(&Shm::SHALLOW);
        smoke(&Shm::DEEP);
        smoke(&Routed { hosts: vec![0, 0] });
        smoke(&Routed { hosts: vec![0, 1] });
    }

    #[test]
    fn lossy_udp_still_delivers_every_byte() {
        let s = stream_dist(&Udp::lossy(0.02, 7), 512, 100);
        assert_eq!(s.result.bytes, 512 * 100);
        assert!(s.result.bandwidth().as_mbps() > 0.0);
    }
}
