//! [`ShmDevice`]: the intra-host shared-memory [`NetDevice`].
//!
//! One segment (a pair of SPSC rings, see [`crate::seg`]) per co-located
//! peer; the lower rank of each pair creates, the higher attaches.
//! Sends encode **in place** into the peer ring's reserved slot with
//! [`FmPacket::encode_into`] — no intermediate buffer, no allocation.
//! Receives copy the frame out of the mapped slot into a recycled
//! [`BufPool`] frame and decode with [`FmPacket::decode_from_buf`], so
//! the payload the engine sees is a refcounted view of the pooled frame
//! and the mapped slot is retired immediately — a slow handler can hold
//! its payload view indefinitely without wedging the producer, and the
//! steady-state receive path performs zero allocations. Each frame is
//! lent ([`BufPool::lend`]) as it is filled: once the engine has dropped
//! its view, the next receive refills that very frame in place, with no
//! trip round the pool's free list. A frame that does not decode is
//! counted ([`ShmStats::corrupt_frames`]) and skipped; the receive goes
//! on to whatever is queued behind it.
//!
//! The device is lossless ([`NetDevice::is_lossy`] is `false`): rings
//! never drop, duplicate, or reorder, so engines may run
//! `Reliability::TrustSubstrate` over it — the FM guarantee comes
//! straight from the substrate, as on Myrinet.
//!
//! Peer liveness: a peer that leaves gracefully raises its gone-flag; a
//! peer that crashes leaves a dead pid in the segment header. Both are
//! detected by a periodic (200 ms) sweep in [`NetDevice::poll_event`] and
//! surfaced as [`PeerEventKind::Down`], so the engine's churn handling
//! works unchanged over shared memory. The engine polls once per packet
//! it extracts, so the poll reads its clock on every 32nd call only.

use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fm_core::buf::BufPool;
use fm_core::device::{DeviceFull, NetDevice, PeerEvent, PeerEventKind};
use fm_core::packet::FmPacket;
use fm_model::Nanos;

use crate::seg::{pid_alive, SegGeometry, Segment};

/// Interval between [`NetDevice::poll_event`]'s sweeps for dead or
/// departed peers.
const DEATH_CHECK_INTERVAL: Duration = Duration::from_millis(200);

/// [`NetDevice::poll_event`] is reached once per extracted packet, and a
/// clock read costs as much as the rest of it: the interval is checked
/// on the first poll and then on every this-many-th, so a departure is
/// reported within `DEATH_CHECK_INTERVAL` plus this many polls.
const POLLS_PER_CLOCK_READ: u32 = 32;

/// Configuration for [`ShmDevice::open`].
#[derive(Debug, Clone)]
pub struct ShmConfig {
    /// Names the run: all ranks of one cluster must share it, and it
    /// must differ between concurrent clusters. [`ShmConfig::default`]
    /// derives a process-unique id; clusters spanning processes must set
    /// it explicitly (the `fm-udp-cluster` binary passes one down).
    pub run_id: String,
    /// Directory holding the segment files. `/dev/shm` (tmpfs) by
    /// default: mapped pages there never touch a disk.
    pub dir: PathBuf,
    /// Ring depth per direction, power of two.
    pub slots: u32,
    /// Frame capacity per ring slot. Must hold the largest wire frame
    /// the engine emits (header + MTU payload); the default takes any
    /// frame the workspace profiles produce.
    pub slot_payload: u32,
    /// How long `open` waits for a lower-rank peer to create a segment
    /// (and [`ShmDevice::join`] for higher-rank peers to attach).
    pub attach_timeout: Duration,
    /// Minimum age before `open`'s crash-leftover sweep
    /// ([`crate::reclaim_stale_older_than`]) will touch a segment file
    /// in `dir`. Must exceed any concurrent cluster's create-to-publish
    /// gap (microseconds in practice); the generous default also keeps
    /// the sweep away from freshly crashed runs that an operator might
    /// still want to inspect.
    pub stale_grace: Duration,
}

impl Default for ShmConfig {
    fn default() -> Self {
        ShmConfig {
            run_id: unique_run_id(),
            dir: PathBuf::from("/dev/shm"),
            slots: 64,
            slot_payload: 4096,
            attach_timeout: Duration::from_secs(10),
            stale_grace: Duration::from_secs(60),
        }
    }
}

/// A run id no other process (and no earlier run of this process) is
/// using: pid + monotonic counter + wall-clock nanos.
fn unique_run_id() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!(
        "{}-{}-{:x}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed),
        nanos
    )
}

/// Running counters, exposed via [`ShmDevice::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShmStats {
    /// Frames pushed into peer rings.
    pub frames_sent: u64,
    /// Wire bytes pushed into peer rings.
    pub bytes_sent: u64,
    /// Frames popped from peer rings.
    pub frames_recv: u64,
    /// Wire bytes popped from peer rings.
    pub bytes_recv: u64,
    /// Sends rejected because the destination ring was full.
    pub full_rejections: u64,
    /// Frames dropped because they failed to decode (indicates
    /// corruption or a protocol bug; should stay 0).
    pub corrupt_frames: u64,
}

/// One peer link: the mapped segment plus cached state.
#[derive(Debug)]
struct Link {
    seg: Segment,
    peer: usize,
    /// Down event already emitted for this peer.
    down: bool,
}

/// The shared-memory [`NetDevice`]. See the module docs for the
/// datapath and liveness story.
#[derive(Debug)]
pub struct ShmDevice {
    node: usize,
    num_nodes: usize,
    /// Indexed by peer rank; `None` for self and non-co-located peers.
    links: Vec<Option<Link>>,
    pool: BufPool,
    started: Instant,
    stats: ShmStats,
    /// Round-robin receive cursor over peers, for fairness under load.
    rr: usize,
    events: VecDeque<PeerEvent>,
    last_death_check: Instant,
    /// Polls left before `last_death_check` is compared with the clock
    /// again ([`POLLS_PER_CLOCK_READ`]).
    polls_to_clock_read: u32,
    cfg: ShmConfig,
}

impl ShmDevice {
    /// Open the device for rank `node` of an `num_nodes`-rank run, with
    /// segments to every rank in `local_peers` (the co-located subset;
    /// pass all other ranks for a pure-shm cluster). Creates segments
    /// toward higher-rank local peers immediately, then attaches to
    /// lower-rank peers' segments (waiting out torn startup up to
    /// `cfg.attach_timeout` each).
    pub fn open(
        node: usize,
        num_nodes: usize,
        local_peers: &[usize],
        cfg: ShmConfig,
    ) -> io::Result<ShmDevice> {
        assert!(node < num_nodes, "node id out of range");
        assert!(
            cfg.slot_payload as usize >= frame_capacity_floor(),
            "slot_payload {} cannot hold a maximum wire frame",
            cfg.slot_payload
        );
        let geom = SegGeometry {
            slots: cfg.slots,
            payload: cfg.slot_payload,
        };
        // Best-effort crash-leftover sweep: segments whose owners are
        // all dead and whose files have aged past the grace get
        // unlinked here, so a crashed run's tmpfs footprint is
        // reclaimed by the next cluster that opens — no operator step.
        // Errors are ignored: `dir` may hold files we can't stat, and
        // the sweep is a courtesy, not a correctness requirement
        // (`Segment::create` separately reclaims a same-name leftover).
        let _ = crate::seg::reclaim_stale_older_than(&cfg.dir, cfg.stale_grace);
        let epoch = 1; // segments are per-run; no rejoin incarnations
        let mut links: Vec<Option<Link>> = (0..num_nodes).map(|_| None).collect();
        // Phase 1: create every segment this rank owns (lower rank of
        // the pair), so no peer waits on our attach loop below.
        for &p in local_peers {
            assert!(p < num_nodes && p != node, "bad local peer {p}");
            if node < p {
                let seg = Segment::create(&cfg.dir, &cfg.run_id, node, p, geom, epoch)?;
                links[p] = Some(Link {
                    seg,
                    peer: p,
                    down: false,
                });
            }
        }
        // Phase 2: attach to the segments lower-rank peers own.
        for &p in local_peers {
            if p < node {
                let seg =
                    Segment::attach(&cfg.dir, &cfg.run_id, p, node, geom, cfg.attach_timeout)?;
                links[p] = Some(Link {
                    seg,
                    peer: p,
                    down: false,
                });
            }
        }
        let pool = BufPool::new(cfg.slot_payload as usize, (cfg.slots as usize) * 2);
        let now = Instant::now();
        Ok(ShmDevice {
            node,
            num_nodes,
            links,
            pool,
            started: now,
            stats: ShmStats::default(),
            rr: 0,
            events: VecDeque::new(),
            last_death_check: now,
            polls_to_clock_read: 0,
            cfg,
        })
    }

    /// Barrier half: wait until every created segment has its attacher
    /// registered (attached segments are complete at `open` already).
    /// After `join` returns, all rings are live in both directions.
    pub fn join(&mut self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        for link in self.links.iter().flatten() {
            while link.seg.peer_pid() == 0 {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("peer {} never attached", link.peer),
                    ));
                }
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    /// Counters so far.
    pub fn stats(&self) -> ShmStats {
        self.stats
    }

    /// The run id actually in use (relevant when the default generated
    /// one must be handed to other processes).
    pub fn run_id(&self) -> &str {
        &self.cfg.run_id
    }

    /// Ranks this device holds a live segment to.
    pub fn local_peers(&self) -> Vec<usize> {
        self.links
            .iter()
            .enumerate()
            .filter_map(|(p, l)| l.as_ref().map(|_| p))
            .collect()
    }

    fn sweep_liveness(&mut self) {
        for link in self.links.iter_mut().flatten() {
            if link.down {
                continue;
            }
            let pid = link.seg.peer_pid();
            // pid 0 = peer still joining; not a death.
            let dead = link.seg.peer_gone() || (pid != 0 && !pid_alive(pid));
            if dead {
                link.down = true;
                self.events.push_back(PeerEvent {
                    peer: link.peer,
                    kind: PeerEventKind::Down,
                    epoch: link.seg.epoch(),
                });
            }
        }
    }
}

/// Smallest slot payload that can carry any frame the engines emit: the
/// full wire form of a packet at the largest profile MTU in the
/// workspace, with headroom for future profiles (a page).
fn frame_capacity_floor() -> usize {
    4096.min(fm_core::packet::MAX_WIRE_FRAME)
}

impl NetDevice for ShmDevice {
    fn node_id(&self) -> usize {
        self.node
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        let dst = pkt.header.dst as usize;
        assert!(
            dst != self.node,
            "engines deliver self-sends locally, not via the device"
        );
        let link = self.links[dst]
            .as_ref()
            .unwrap_or_else(|| panic!("no shm segment to peer {dst} (not co-located)"));
        match link.seg.tx.try_push(|slot| pkt.encode_into(slot).ok()) {
            None => {
                self.stats.full_rejections += 1;
                Err(DeviceFull)
            }
            Some(None) => {
                // encode_into refused: the packet exceeds the slot. The
                // floor assertion in `open` makes this a codec bug, not
                // an operational condition — mirror the simulator and
                // fail loudly.
                panic!("packet to peer {dst} exceeds shm slot capacity");
            }
            Some(Some(n)) => {
                self.stats.frames_sent += 1;
                self.stats.bytes_sent += n as u64;
                Ok(())
            }
        }
    }

    fn try_recv(&mut self) -> Option<FmPacket> {
        // Round-robin over peer rings so one chatty peer cannot starve
        // the rest.
        for i in 0..self.num_nodes {
            let idx = (self.rr + i) % self.num_nodes;
            let Some(link) = &self.links[idx] else {
                continue;
            };
            let pool = &self.pool;
            let pop = || {
                link.seg.rx.try_pop(|frame| {
                    let mut buf = pool.take();
                    buf.extend_from_slice(frame);
                    pool.lend(&buf);
                    buf
                })
            };
            while let Some(frame) = pop() {
                match FmPacket::decode_from_buf(&frame) {
                    Ok(pkt) => {
                        // Resume fairness scanning *after* this peer
                        // next time.
                        self.rr = (idx + 1) % self.num_nodes;
                        self.stats.frames_recv += 1;
                        self.stats.bytes_recv += frame.len() as u64;
                        return Some(pkt);
                    }
                    // Should be impossible over an intact ring: count it
                    // and look at what is queued behind it.
                    Err(_) => self.stats.corrupt_frames += 1,
                }
            }
        }
        None
    }

    fn send_space(&self) -> usize {
        // All-or-nothing admission: the engine may assume that when
        // send_space() >= k, the next k sends to *any* destinations
        // succeed — so report the worst case over every live sink.
        // A dead peer's ring stops draining; excluding it keeps the
        // engine from wedging on a guarantee nobody needs anymore.
        let live = self.links.iter().flatten().filter(|link| !link.down);
        live.map(|link| link.seg.tx.free())
            .min()
            .unwrap_or(self.cfg.slots as usize)
    }

    fn now(&self) -> Nanos {
        Nanos(self.started.elapsed().as_nanos() as u64)
    }

    fn charge(&mut self, _cost: Nanos) {
        // Real transport: the cost is the CPU time actually spent.
    }

    fn is_lossy(&self) -> bool {
        false // rings never drop, duplicate, or reorder
    }

    fn poll_event(&mut self) -> Option<PeerEvent> {
        if let Some(e) = self.events.pop_front() {
            return Some(e);
        }
        if self.polls_to_clock_read == 0 {
            self.polls_to_clock_read = POLLS_PER_CLOCK_READ;
            if self.last_death_check.elapsed() >= DEATH_CHECK_INTERVAL {
                self.last_death_check = Instant::now();
                self.sweep_liveness();
            }
        }
        self.polls_to_clock_read -= 1;
        self.events.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::packet::{HandlerId, PacketFlags, PacketHeader};

    fn cfg(run: &str) -> ShmConfig {
        ShmConfig {
            run_id: format!("dev{}-{run}", std::process::id()),
            dir: std::env::temp_dir(),
            ..ShmConfig::default()
        }
    }

    fn pkt(src: u16, dst: u16, body: &[u8]) -> FmPacket {
        FmPacket {
            header: PacketHeader {
                src,
                dst,
                handler: HandlerId(7),
                msg_seq: 1,
                pkt_seq: 0,
                msg_len: body.len() as u32,
                flags: PacketFlags::FIRST | PacketFlags::LAST,
                credits: 0,
                ack: 0,
            },
            payload: body.to_vec().into(),
        }
    }

    fn pair(run: &str) -> (ShmDevice, ShmDevice) {
        let c = cfg(run);
        let c2 = c.clone();
        let t = std::thread::spawn(move || ShmDevice::open(1, 2, &[0], c2).expect("open hi"));
        let mut a = ShmDevice::open(0, 2, &[1], c).expect("open lo");
        let mut b = t.join().unwrap();
        a.join(Duration::from_secs(5)).expect("join lo");
        b.join(Duration::from_secs(5)).expect("join hi");
        (a, b)
    }

    #[test]
    fn packets_cross_the_segment_intact() {
        let (mut a, mut b) = pair("x");
        a.try_send(pkt(0, 1, b"over shared memory")).unwrap();
        let got = loop {
            if let Some(p) = b.try_recv() {
                break p;
            }
        };
        assert_eq!(&got.payload[..], b"over shared memory");
        assert_eq!(got.header.handler, HandlerId(7));
        assert_eq!(a.stats().frames_sent, 1);
        assert_eq!(b.stats().frames_recv, 1);
    }

    /// A frame that does not decode is counted and skipped, and the same
    /// call goes on to what is queued behind it.
    #[test]
    fn a_corrupt_frame_does_not_hide_the_frames_behind_it() {
        let (mut a, mut b) = pair("junk");
        let ring = &a.links[1].as_ref().expect("link to 1").seg.tx;
        let pushed = ring.try_push(|slot| {
            slot[..3].copy_from_slice(b"\xFF\xFF\xFF"); // shorter than any header
            Some(3usize)
        });
        assert!(matches!(pushed, Some(Some(3))));
        a.try_send(pkt(0, 1, b"behind the garbage")).unwrap();
        let got = b.try_recv().expect("the valid frame, from the same call");
        assert_eq!(&got.payload[..], b"behind the garbage");
        assert_eq!(b.stats().corrupt_frames, 1);
        assert_eq!(b.stats().frames_recv, 1);
        assert!(b.try_recv().is_none());
    }

    #[test]
    #[should_panic(expected = "engines deliver self-sends locally")]
    fn self_sends_never_reach_the_device() {
        let (mut a, _b) = pair("self");
        let _ = a.try_send(pkt(0, 0, b"me"));
    }

    #[test]
    fn send_space_honours_all_or_nothing() {
        let (mut a, _b) = pair("space");
        let space = a.send_space();
        assert!(space > 0);
        // Consume the advertised space entirely; every send must succeed.
        for i in 0..space.min(64) {
            a.try_send(pkt(0, 1, &[i as u8])).unwrap();
        }
        if a.send_space() == 0 {
            assert_eq!(a.try_send(pkt(0, 1, b"no")), Err(DeviceFull));
            assert!(a.stats().full_rejections > 0);
        }
    }

    #[test]
    fn graceful_peer_departure_surfaces_as_down() {
        let c = cfg("down");
        let c2 = c.clone();
        let t = std::thread::spawn(move || ShmDevice::open(1, 2, &[0], c2).expect("open hi"));
        let mut a = ShmDevice::open(0, 2, &[1], c).expect("open lo");
        let b = t.join().unwrap();
        a.join(Duration::from_secs(5)).expect("join");
        drop(b); // peer leaves gracefully: raises its gone-flag
        a.last_death_check = Instant::now() - Duration::from_secs(1);
        let e = a.poll_event().expect("a Down event");
        assert_eq!(e.peer, 1);
        assert_eq!(e.kind, PeerEventKind::Down);
        assert!(a.poll_event().is_none(), "reported once");
    }

    #[test]
    fn departure_is_seen_within_the_interval_plus_the_poll_bound() {
        let (mut a, b) = pair("bound");
        // Polled while the peer is alive: the clock-read countdown is
        // somewhere in mid-run when the peer goes.
        for _ in 0..POLLS_PER_CLOCK_READ / 2 {
            assert!(a.poll_event().is_none());
        }
        drop(b);
        std::thread::sleep(DEATH_CHECK_INTERVAL);
        let polls = (1..=POLLS_PER_CLOCK_READ)
            .find(|_| {
                a.poll_event()
                    .is_some_and(|e| e.kind == PeerEventKind::Down)
            })
            .expect("a Down event inside the documented bound");
        assert!(polls > 1, "the countdown, not the first poll, found it");
        assert!(a.poll_event().is_none(), "reported once");
    }

    #[test]
    fn clock_is_monotonic_and_advancing() {
        let (a, _b) = pair("clk");
        let t0 = a.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(a.now() > t0);
    }

    #[test]
    fn open_sweeps_crash_leftovers_past_the_grace() {
        // A dedicated directory so the zero-grace sweep can't race
        // other tests' mid-creation segments in the shared temp dir.
        let dir = std::env::temp_dir().join(format!("fm-shm-sweeptest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A torn leftover from a "crashed" run: too short to ever have
        // been initialized, stale by definition at any age.
        let leftover = dir.join("fm-shm-deadrun-p0x1");
        std::fs::write(&leftover, [0u8; 64]).expect("forge leftover");
        let c = ShmConfig {
            run_id: format!("sweep{}", std::process::id()),
            dir: dir.clone(),
            stale_grace: Duration::ZERO,
            ..ShmConfig::default()
        };
        // Open sequentially: with a zero grace, a concurrent open's
        // sweep could catch the other side's segment mid-creation —
        // exactly the race the nonzero default grace exists to prevent.
        let c2 = c.clone();
        let a = ShmDevice::open(0, 2, &[1], c).expect("open lo");
        let b = ShmDevice::open(1, 2, &[0], c2).expect("open hi");
        assert!(!leftover.exists(), "open reclaimed the crash leftover");
        drop(a);
        drop(b);
        let _ = std::fs::remove_dir(&dir); // empty again after graceful drops
    }
}
