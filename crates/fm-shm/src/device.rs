//! [`ShmDevice`]: the intra-host shared-memory [`NetDevice`].
//!
//! One segment (a pair of SPSC rings, see [`crate::seg`]) per co-located
//! peer; the lower rank of each pair creates, the higher attaches.
//! Sends encode **in place** into the peer ring's reserved slot with
//! [`FmPacket::encode_into`] — no intermediate buffer, no allocation.
//! Receives decode the header straight from the mapped slot
//! ([`FmPacket::decode_with`]) and copy out the payload alone: a payload
//! of at most [`fm_core::buf::INLINE`] bytes rides inline in its
//! [`PacketBuf`] (no pool frame, no refcount), a larger one goes into a
//! recycled [`BufPool`] frame, and a credit frame takes neither. The
//! mapped slot is retired immediately — a slow handler can hold its
//! payload view indefinitely without wedging the producer, and the
//! steady-state receive path performs zero allocations. Each frame is
//! lent ([`BufPool::lend`]) as it is filled: once the engine has dropped
//! its view, the next receive refills that very frame in place, with no
//! trip round the pool's free list. A frame that does not decode is
//! counted ([`ShmStats::corrupt_frames`]) and skipped; the receive goes
//! on to whatever is queued behind it.
//!
//! The device is lossless ([`NetDevice::is_lossy`] is `false`): rings
//! never drop, duplicate, or reorder, so engines trust every peer over
//! it — the FM guarantee comes straight from the substrate, as on
//! Myrinet.
//!
//! Peer liveness: a peer that leaves gracefully raises its gone-flag; a
//! peer that crashes leaves a dead pid in the segment header. Both are
//! detected by a periodic (200 ms) sweep in [`NetDevice::poll_event`] and
//! surfaced as [`PeerEventKind::Down`], so the engine's churn handling
//! works unchanged over shared memory. The engine polls once per packet
//! it extracts, so the poll reads its clock on every 32nd call only.
//!
//! Locality: every linked peer's pid is reported once, as
//! [`PeerEventKind::SameHost`], as soon as the segment header names it —
//! at construction for attached and in-process links, at
//! [`ShmDevice::join`] for created ones. That fact is what lets a
//! one-sided port read a large put or get straight out of the peer's
//! memory instead of streaming it through the ring. A
//! [`PeerEventKind::Link`] fact follows it, giving the packet size the
//! peer's ring takes.

use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fm_core::buf::{BufPool, PacketBuf};
use fm_core::device::{DeviceFull, NetDevice, PeerEvent, PeerEventKind};
use fm_core::packet::FmPacket;
use fm_core::FmError;
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

/// Minimum age before `open`'s crash-leftover sweep
/// ([`crate::reclaim_stale_older_than`]) will touch a segment file. It
/// must exceed any concurrent cluster's create-to-publish gap
/// (microseconds in practice); the generous margin also keeps the sweep
/// away from freshly crashed runs that an operator might still want to
/// inspect.
const STALE_GRACE: Duration = Duration::from_secs(60);

/// Default frame capacity per ring slot: takes any frame the workspace
/// profiles produce.
const SLOT_PAYLOAD: u32 = 4096;

/// Incarnation stamp of every segment: segments are per-run, with no
/// rejoin incarnations.
const SEG_EPOCH: u64 = 1;

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
    /// Frame capacity per ring slot, at least a page. It also sets the
    /// link's packet size: each peer is reported with a
    /// [`PeerEventKind::Link`] fact whose `max_payload` is a slot less
    /// the 24-byte packet header (4072 by default; fm-udp's packets carry
    /// 3048, and a 2 KB message is one packet on either), capped at
    /// [`fm_core::packet::MAX_FRAME_PAYLOAD`], and the engine cuts its
    /// messages to that peer at that size instead of the profile's MTU.
    pub slot_payload: u32,
    /// How long `open` waits for a lower-rank peer to create a segment
    /// (and [`ShmDevice::join`] for higher-rank peers to attach).
    pub attach_timeout: Duration,
}

impl Default for ShmConfig {
    fn default() -> Self {
        ShmConfig {
            run_id: unique_run_id(),
            dir: PathBuf::from("/dev/shm"),
            slots: 64,
            slot_payload: SLOT_PAYLOAD,
            attach_timeout: Duration::from_secs(10),
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
    /// SameHost and Link events already emitted for this peer.
    announced: bool,
}

impl Link {
    fn new(seg: Segment, peer: usize) -> Link {
        Link {
            seg,
            peer,
            down: false,
            announced: false,
        }
    }
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
        let _ = crate::seg::reclaim_stale_older_than(&cfg.dir, STALE_GRACE);
        let mut links: Vec<Option<Link>> = (0..num_nodes).map(|_| None).collect();
        // Phase 1: create every segment this rank owns (lower rank of
        // the pair), so no peer waits on our attach loop below.
        for &p in local_peers {
            assert!(p < num_nodes && p != node, "bad local peer {p}");
            if node < p {
                let seg = Segment::create(&cfg.dir, &cfg.run_id, node, p, geom, SEG_EPOCH)?;
                links[p] = Some(Link::new(seg, p));
            }
        }
        // Phase 2: attach to the segments lower-rank peers own.
        for &p in local_peers {
            if p < node {
                let seg =
                    Segment::attach(&cfg.dir, &cfg.run_id, p, node, geom, cfg.attach_timeout)?;
                links[p] = Some(Link::new(seg, p));
            }
        }
        Ok(ShmDevice::with_links(node, links, cfg))
    }

    /// An all-pairs mesh of `num_nodes` devices whose ranks are threads of
    /// this process: the rings [`ShmDevice::open`] maps, `slots` deep, each
    /// pair's over one anonymous mapping ([`Segment::pair`]). Nothing is
    /// named, so there is no run id, no join, and no file to sweep or
    /// unlink. A rank that drops its device raises its gone-flags all the
    /// same, and the others report it [`PeerEventKind::Down`].
    pub fn in_process_mesh(num_nodes: usize, slots: u32) -> io::Result<Vec<ShmDevice>> {
        let cfg = ShmConfig {
            run_id: String::new(),
            dir: PathBuf::new(),
            slots,
            slot_payload: SLOT_PAYLOAD,
            attach_timeout: Duration::ZERO,
        };
        let geom = SegGeometry {
            slots,
            payload: SLOT_PAYLOAD,
        };
        let mut links: Vec<Vec<Option<Link>>> = (0..num_nodes)
            .map(|_| (0..num_nodes).map(|_| None).collect())
            .collect();
        #[allow(clippy::needless_range_loop)] // lo and hi index links crosswise
        for lo in 0..num_nodes {
            for hi in lo + 1..num_nodes {
                let (lo_end, hi_end) = Segment::pair(lo, hi, geom, SEG_EPOCH)?;
                links[lo][hi] = Some(Link::new(lo_end, hi));
                links[hi][lo] = Some(Link::new(hi_end, lo));
            }
        }
        let devices = links.into_iter().enumerate();
        Ok(devices
            .map(|(node, links)| ShmDevice::with_links(node, links, cfg.clone()))
            .collect())
    }

    /// The device of rank `node`, given its links indexed by peer rank.
    fn with_links(node: usize, links: Vec<Option<Link>>, cfg: ShmConfig) -> ShmDevice {
        let now = Instant::now();
        let mut dev = ShmDevice {
            node,
            num_nodes: links.len(),
            links,
            pool: BufPool::new(cfg.slot_payload as usize, (cfg.slots as usize) * 2),
            started: now,
            stats: ShmStats::default(),
            rr: 0,
            events: VecDeque::new(),
            last_death_check: now,
            polls_to_clock_read: 0,
            cfg,
        };
        dev.announce_same_host();
        dev
    }

    /// Barrier half: wait until every created segment has its attacher
    /// registered (attached segments are complete at `open` already).
    /// After `join` returns, all rings are live in both directions, and
    /// every peer's pid is queued as a [`PeerEventKind::SameHost`] fact.
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
        self.announce_same_host();
        Ok(())
    }

    /// Queue a [`PeerEventKind::SameHost`] fact, once, for every peer
    /// whose pid the segment header names, and beside it a
    /// [`PeerEventKind::Link`] fact with the largest packet payload the
    /// peer's ring takes ([`link_payload`]). The engine drains events
    /// before it receives, so both reach it ahead of any packet from
    /// that peer.
    fn announce_same_host(&mut self) {
        for link in self.links.iter_mut().flatten() {
            let pid = link.seg.peer_pid();
            if pid != 0 && !link.announced {
                link.announced = true;
                let max_payload = link_payload(link.seg.tx.payload_capacity());
                for kind in [
                    PeerEventKind::SameHost { pid },
                    PeerEventKind::Link { max_payload },
                ] {
                    self.events.push_back(PeerEvent {
                        peer: link.peer,
                        kind,
                        epoch: link.seg.epoch(),
                    });
                }
            }
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ShmStats {
        self.stats
    }

    /// The run id actually in use (relevant when the default generated
    /// one must be handed to other processes); empty for a device of
    /// [`ShmDevice::in_process_mesh`], which names nothing.
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

/// Smallest slot payload a link may have: a page, which holds the full
/// wire form of a packet at the largest profile MTU in the workspace with
/// headroom. The slot must take such a packet because the engine cuts at
/// the profile MTU until it drains the link's
/// [`PeerEventKind::Link`] fact, and a message opened before then
/// finishes at that size; from then on it cuts at [`link_payload`], which
/// fits the slot by construction.
fn frame_capacity_floor() -> usize {
    4096.min(fm_core::packet::MAX_WIRE_FRAME)
}

/// The largest packet payload a ring of `slot_payload`-byte slots carries:
/// a slot less the packet header, and never more than one wire frame
/// holds, however large the slot.
fn link_payload(slot_payload: usize) -> u32 {
    let header = fm_core::packet::HEADER_WIRE_BYTES as usize;
    (slot_payload - header).min(fm_core::packet::MAX_FRAME_PAYLOAD) as u32
}

/// Decode the packet in a ring slot: the header straight from the slot,
/// and a copy of the payload alone — inline when it is small, else in a
/// frame of `pool`, lent as it goes; a credit frame takes nothing.
fn decode_slot(frame: &[u8], pool: &BufPool) -> Result<FmPacket, FmError> {
    FmPacket::decode_with(frame, |body| {
        let mut payload = PacketBuf::for_len(pool, body.len());
        payload.extend_from_slice(body);
        pool.lend(&payload);
        payload
    })
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
        let (rr, n) = (self.rr, self.num_nodes);
        for idx in (rr..n).chain(0..rr) {
            let Some(link) = &self.links[idx] else {
                continue;
            };
            let pool = &self.pool;
            let pop = || link.seg.rx.try_pop(|frame| decode_slot(frame, pool));
            while let Some(decoded) = pop() {
                match decoded {
                    Ok(pkt) => {
                        // Resume fairness scanning *after* this peer
                        // next time.
                        self.rr = if idx + 1 == n { 0 } else { idx + 1 };
                        self.stats.frames_recv += 1;
                        self.stats.bytes_recv += pkt.wire_bytes() as u64;
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

    /// The facts queued so far, as (peer, pid, max_payload): each peer's
    /// `SameHost` with the `Link` that follows it.
    fn same_host_facts(dev: &mut ShmDevice) -> Vec<(usize, u32, u32)> {
        let mut facts = Vec::new();
        while let Some(PeerEvent {
            peer,
            kind: PeerEventKind::SameHost { pid },
            ..
        }) = dev.events.front().copied()
        {
            dev.events.pop_front();
            let link = dev.events.pop_front().expect("a Link after each SameHost");
            let PeerEventKind::Link { max_payload } = link.kind else {
                panic!("expected a Link fact, got {link:?}");
            };
            assert_eq!(link.peer, peer);
            facts.push((peer, pid, max_payload));
        }
        facts
    }

    /// The packet payload a default slot carries: a slot less the header.
    const LINK: u32 = SLOT_PAYLOAD - fm_core::packet::HEADER_WIRE_BYTES;

    /// A joined pair, its same-host facts taken.
    fn pair(run: &str) -> (ShmDevice, ShmDevice) {
        let (mut a, mut b) = joined(cfg(run));
        same_host_facts(&mut a);
        same_host_facts(&mut b);
        (a, b)
    }

    /// A joined pair on `c`, its same-host facts still queued.
    fn joined(c: ShmConfig) -> (ShmDevice, ShmDevice) {
        let c2 = c.clone();
        let t = std::thread::spawn(move || ShmDevice::open(1, 2, &[0], c2).expect("open hi"));
        let mut a = ShmDevice::open(0, 2, &[1], c).expect("open lo");
        let mut b = t.join().unwrap();
        a.join(Duration::from_secs(5)).expect("join lo");
        b.join(Duration::from_secs(5)).expect("join hi");
        (a, b)
    }

    #[test]
    fn every_linked_peer_is_announced_once_with_its_pid() {
        let me = std::process::id();
        assert_eq!(LINK, 4072);
        // Attached links know the creator at open; created ones at join.
        let c = cfg("facts");
        let mut lo = ShmDevice::open(0, 2, &[1], c.clone()).expect("open lo");
        let mut hi = ShmDevice::open(1, 2, &[0], c).expect("open hi");
        assert_eq!(same_host_facts(&mut lo), vec![], "nobody attached yet");
        assert_eq!(same_host_facts(&mut hi), vec![(0, me, LINK)]);
        lo.join(Duration::from_secs(5)).expect("join lo");
        hi.join(Duration::from_secs(5)).expect("join hi");
        assert_eq!(same_host_facts(&mut lo), vec![(1, me, LINK)]);
        assert_eq!(same_host_facts(&mut hi), vec![], "announced once");
        // In-process links name this process, at construction.
        let mut mesh = ShmDevice::in_process_mesh(3, 8).expect("mesh");
        let facts = vec![(0, me, LINK), (2, me, LINK)];
        assert_eq!(same_host_facts(&mut mesh[1]), facts);
        assert!(mesh[1].poll_event().is_none());
    }

    /// A packet of exactly the payload the fact announces crosses the
    /// ring whole.
    #[test]
    fn a_packet_of_the_announced_size_crosses_the_ring() {
        let (mut a, mut b) = pair("fit");
        let body: Vec<u8> = (0..LINK).map(|i| (i % 251) as u8).collect();
        a.try_send(pkt(0, 1, &body)).unwrap();
        let got = loop {
            if let Some(p) = b.try_recv() {
                break p;
            }
        };
        assert_eq!(&got.payload[..], &body[..]);
        assert_eq!(a.stats().bytes_sent, SLOT_PAYLOAD as u64);
    }

    /// One byte past the announced payload is a packet the engine never
    /// makes: the device fails loudly instead of truncating it.
    #[test]
    #[should_panic(expected = "exceeds shm slot capacity")]
    fn one_byte_past_the_announced_size_does_not_fit() {
        let (mut a, _b) = pair("overfit");
        let _ = a.try_send(pkt(0, 1, &vec![1u8; LINK as usize + 1]));
    }

    /// A slot wider than any wire frame announces what one frame holds,
    /// not the slot: the cap is what keeps packets decodable.
    #[test]
    fn a_slot_wider_than_a_wire_frame_announces_the_frame_payload() {
        let (mut lo, mut hi) = joined(ShmConfig {
            slots: 2,
            slot_payload: (fm_core::packet::MAX_WIRE_FRAME + 4096) as u32,
            ..cfg("wide")
        });
        let me = std::process::id();
        let cap = fm_core::packet::MAX_FRAME_PAYLOAD as u32;
        assert_eq!(same_host_facts(&mut lo), vec![(1, me, cap)]);
        assert_eq!(same_host_facts(&mut hi), vec![(0, me, cap)]);
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
        assert_eq!(same_host_facts(&mut a), vec![(1, std::process::id(), LINK)]);
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
        a.last_death_check -= DEATH_CHECK_INTERVAL; // as if it had slept
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
        // Torn leftovers from "crashed" runs: too short to ever have been
        // initialized, stale by definition. One has aged past the grace;
        // the other could still be a live cluster's segment mid-creation.
        let leftover = dir.join("fm-shm-deadrun-p0x1");
        let young = dir.join("fm-shm-newrun-p0x1");
        std::fs::write(&leftover, [0u8; 64]).expect("forge leftover");
        std::fs::write(&young, [0u8; 64]).expect("forge young leftover");
        let then = std::time::SystemTime::now() - STALE_GRACE - Duration::from_secs(1);
        std::fs::File::options()
            .write(true)
            .open(&leftover)
            .and_then(|f| f.set_modified(then))
            .expect("age leftover");
        let c = ShmConfig {
            run_id: format!("sweep{}", std::process::id()),
            dir: dir.clone(),
            ..ShmConfig::default()
        };
        let c2 = c.clone();
        let a = ShmDevice::open(0, 2, &[1], c).expect("open lo");
        let b = ShmDevice::open(1, 2, &[0], c2).expect("open hi");
        assert!(!leftover.exists(), "open reclaimed the crash leftover");
        assert!(young.exists(), "a file inside the grace is left alone");
        drop(a);
        drop(b);
        std::fs::remove_file(&young).expect("remove young leftover");
        let _ = std::fs::remove_dir(&dir); // empty again after graceful drops
    }

    /// Pool frames taken on each side, `[rank 0, rank 1]` — by the
    /// rank's engine and by its device — while rank 0 streams `n`
    /// `size`-byte FM 2.x messages to rank 1 over an in-process pair,
    /// after a warm-up of as many; and the data packets rank 0 sent.
    fn frames_taken(size: usize, n: u64) -> ([u64; 2], u64) {
        use fm_core::Fm2Engine;
        use std::{cell::Cell, rc::Rc};
        const H: HandlerId = HandlerId(9);
        let profile = fm_model::MachineProfile::ppro200_fm2();
        let mesh = ShmDevice::in_process_mesh(2, 64).expect("in-process pair");
        let fms: Vec<_> = mesh
            .into_iter()
            .map(|dev| Fm2Engine::new(dev, profile))
            .collect();
        let got = Rc::new(Cell::new(0u64));
        let seen = Rc::clone(&got);
        fms[1].set_fast_handler(H, move |_, body| {
            assert_eq!(body, vec![0x5A; size]);
            seen.set(seen.get() + 1);
        });
        // Turned once, each engine cuts at the ring's packet size.
        for fm in &fms {
            fm.extract_all();
        }
        let body = vec![0x5A; size];
        let stream = || {
            let (until, mut sent) = (got.get() + n, 0);
            while got.get() < until {
                if sent < n && fms[0].try_send_message(1, H, &[&body]).is_ok() {
                    sent += 1;
                }
                fms[1].extract_all();
                fms[0].extract_all();
            }
        };
        let taken = |fm: &Fm2Engine<ShmDevice>| {
            let (engine, device) = (fm.stats(), fm.with_device(|d| d.pool.stats()));
            engine.pool_hits + engine.pool_misses + device.hits + device.misses
        };
        let packets = || fms[0].stats().packets_sent;
        stream();
        let before = (fms.iter().map(taken).collect::<Vec<_>>(), packets());
        stream();
        let frames = [0, 1].map(|r| taken(&fms[r]) - before.0[r]);
        (frames, packets() - before.1)
    }

    /// Count, don't time: a 16 B message rides inline from the sender's
    /// staging to the receiver's handler and takes no pool frame on
    /// either rank, and a 2 KB one — one packet at the ring's size —
    /// still takes exactly one a side, which pins where the bound sits.
    #[test]
    fn a_small_message_takes_no_pool_frame_and_a_large_one_one_a_side() {
        const N: u64 = 2_000;
        assert_eq!(frames_taken(16, N), ([0, 0], N), "16 B");
        assert_eq!(frames_taken(fm_core::buf::INLINE, N), ([0, 0], N), "22 B");
        assert_eq!(
            frames_taken(fm_core::buf::INLINE + 1, N),
            ([N, N], N),
            "23 B"
        );
        assert_eq!(frames_taken(2048, N), ([N, N], N), "2 KB");
    }
}
