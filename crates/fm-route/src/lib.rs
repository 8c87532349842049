//! Locality-aware routing: one [`NetDevice`] composed of two.
//!
//! A cluster rarely lives on one interconnect. Ranks sharing a host
//! should talk through shared memory (`fm-shm`: sub-microsecond, no
//! kernel); ranks on different hosts need a real network (`fm-udp`).
//! [`RoutedDevice`] composes one device of each kind behind the single
//! [`NetDevice`] seam the engines are written against, selecting the
//! transport per destination from a [`HostMap`] — so the engine, the
//! MPI layer, and the application never learn that two fabrics exist.
//!
//! The composition rules fall out of the `NetDevice` contract:
//!
//! * **Send** routes by the destination's host: same host → local
//!   transport, different host → remote.
//! * **Receive** drains both, local first (it is the cheaper poll and
//!   the lower-latency path; alternation keeps the remote side from
//!   starving under local load) — or only the local one, when the map
//!   keeps every rank on this host and the remote member carries nobody.
//! * **`send_space`** is the minimum over both transports — the
//!   all-or-nothing admission guarantee must hold for *any* mix of
//!   next destinations.
//! * **`now`** reads the remote device's clock exclusively, so every
//!   timestamp the engine sees is from one monotonic source.
//! * **`is_lossy_to`** asks the member that carries the peer, by the
//!   [`HostMap`]: a routed rank trusts its shared-memory peers exactly
//!   as a pure shm rank does (no acks, no window, no retransmit timer)
//!   and retransmits only across the network. `is_lossy` is whether
//!   any peer's link is lossy: false when the map keeps every rank on
//!   one host, whatever the idle remote member could lose.
//! * **`poll_event`** filters by locality: membership transitions for
//!   same-host peers are believed only from the local transport, and
//!   cross-host peers only from the remote — each fabric is the
//!   authority for the peers actually reached through it, and a peer
//!   can never produce duplicate or contradictory events through the
//!   fabric that doesn't carry its data. Facts pass the same way: only
//!   a peer reached through shared memory is ever one whose memory the
//!   engine may read, and each peer's packet size is the one its own
//!   link reported (by default 4072 bytes over shm, 3048 over UDP).
//!
//! The [`HostMap`] is also what makes collectives hierarchy-aware:
//! `mpi-fm` consumes the same rank→host assignment to run two-level
//! (leader-per-host) barrier/bcast/allreduce schedules that cross the
//! wire once per host instead of once per rank.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fm_core::device::{DeviceFull, NetDevice, PeerEvent};
use fm_core::packet::FmPacket;
use fm_model::Nanos;

/// Rank → host assignment for one run.
///
/// Hosts are dense small integers; ranks on the same host are expected
/// to reach each other through the local transport. The textual form
/// (accepted by [`HostMap::parse`]) is one host id per rank, comma
/// separated: `"0,0,1,1"` puts ranks 0–1 on host 0 and ranks 2–3 on
/// host 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMap {
    hosts: Vec<usize>,
}

impl HostMap {
    /// A map assigning `hosts[rank]` to each rank.
    pub fn new(hosts: Vec<usize>) -> HostMap {
        assert!(!hosts.is_empty(), "host map cannot be empty");
        HostMap { hosts }
    }

    /// Parse the `"0,0,1,1"` form. Errors on empty input or a
    /// non-numeric entry.
    pub fn parse(s: &str) -> Result<HostMap, String> {
        let hosts = s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad host id {t:?} in host map {s:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if hosts.is_empty() {
            return Err("empty host map".into());
        }
        Ok(HostMap::new(hosts))
    }

    /// Every rank on one host (the degenerate single-fabric map).
    pub fn all_on_one_host(n: usize) -> HostMap {
        HostMap::new(vec![0; n])
    }

    /// Number of ranks mapped.
    pub fn num_ranks(&self) -> usize {
        self.hosts.len()
    }

    /// The host rank `r` lives on.
    pub fn host_of(&self, r: usize) -> usize {
        self.hosts[r]
    }

    /// Whether two ranks share a host.
    pub fn same_host(&self, a: usize, b: usize) -> bool {
        self.hosts[a] == self.hosts[b]
    }

    /// Ranks co-located with `r`, excluding `r` itself — exactly the
    /// peer list `fm_shm::ShmDevice::open` wants.
    pub fn local_peers(&self, r: usize) -> Vec<usize> {
        (0..self.hosts.len())
            .filter(|&p| p != r && self.hosts[p] == self.hosts[r])
            .collect()
    }

    /// Number of distinct hosts.
    pub fn num_hosts(&self) -> usize {
        let mut seen: Vec<usize> = self.hosts.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// The raw rank → host table.
    pub fn hosts(&self) -> &[usize] {
        &self.hosts
    }
}

fm_core::counters! {
    /// Traffic split between the two transports, via
    /// [`RoutedDevice::stats`].
    pub struct RouteStats {
        /// Packets admitted onto the local (intra-host) transport.
        pub local_sent: u64,
        /// Packets admitted onto the remote (cross-host) transport.
        pub remote_sent: u64,
        /// Packets received from the local transport.
        pub local_recv: u64,
        /// Packets received from the remote transport.
        pub remote_recv: u64,
    }
}

/// Two transports behind one [`NetDevice`]; see the module docs for the
/// composition rules.
#[derive(Debug)]
pub struct RoutedDevice<L, R> {
    local: L,
    remote: R,
    map: HostMap,
    node: usize,
    stats: RouteStats,
    /// Receive alternation: poll local first on even turns.
    flip: bool,
    /// Whether the map puts any rank on another host: if not, the remote
    /// member's receive path is never polled.
    any_remote: bool,
}

impl<L: NetDevice, R: NetDevice> RoutedDevice<L, R> {
    /// Compose `local` (carries same-host traffic) and `remote`
    /// (carries cross-host traffic) under `map`. Both members must
    /// agree on this node's id; the map's rank count defines the
    /// composite's [`NetDevice::num_nodes`].
    pub fn new(local: L, remote: R, map: HostMap) -> RoutedDevice<L, R> {
        let node = remote.node_id();
        assert_eq!(
            local.node_id(),
            node,
            "local and remote transports disagree on this node's id"
        );
        assert!(node < map.num_ranks(), "node id outside the host map");
        let any_remote = (0..map.num_ranks()).any(|r| !map.same_host(node, r));
        RoutedDevice {
            local,
            remote,
            map,
            node,
            stats: RouteStats::default(),
            flip: false,
            any_remote,
        }
    }

    /// Traffic split so far.
    pub fn stats(&self) -> RouteStats {
        self.stats
    }

    /// The local (intra-host) member, for transport-specific calls.
    pub fn local_mut(&mut self) -> &mut L {
        &mut self.local
    }

    /// The remote (cross-host) member, for transport-specific calls
    /// (e.g. `UdpDevice::leave` on graceful shutdown).
    pub fn remote_mut(&mut self) -> &mut R {
        &mut self.remote
    }

    fn is_local(&self, peer: usize) -> bool {
        self.map.same_host(self.node, peer)
    }
}

impl<L: NetDevice, R: NetDevice> NetDevice for RoutedDevice<L, R> {
    fn node_id(&self) -> usize {
        self.node
    }

    fn num_nodes(&self) -> usize {
        self.map.num_ranks()
    }

    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        let dst = pkt.header.dst as usize;
        if self.is_local(dst) {
            self.local.try_send(pkt)?;
            self.stats.local_sent += 1;
        } else {
            self.remote.try_send(pkt)?;
            self.stats.remote_sent += 1;
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Option<FmPacket> {
        if !self.any_remote {
            let got = self.local.try_recv();
            self.stats.local_recv += got.is_some() as u64;
            return got;
        }
        // Alternate which member is polled first so neither fabric
        // starves the other under sustained load.
        self.flip = !self.flip;
        let (first_local, second_local) = (self.flip, !self.flip);
        for local in [first_local, second_local] {
            let got = if local {
                self.local.try_recv()
            } else {
                self.remote.try_recv()
            };
            if let Some(pkt) = got {
                if local {
                    self.stats.local_recv += 1;
                } else {
                    self.stats.remote_recv += 1;
                }
                return Some(pkt);
            }
        }
        None
    }

    fn send_space(&self) -> usize {
        // All-or-nothing over any destination mix: the worst case is
        // every next send landing on the tighter member.
        self.local.send_space().min(self.remote.send_space())
    }

    fn now(&self) -> Nanos {
        // One clock for every timestamp the engine sees.
        self.remote.now()
    }

    fn charge(&mut self, cost: Nanos) {
        self.remote.charge(cost);
    }

    fn request_wake(&mut self, at: Nanos) {
        self.remote.request_wake(at);
    }

    fn is_lossy(&self) -> bool {
        (0..self.num_nodes()).any(|peer| self.is_lossy_to(peer))
    }

    fn is_lossy_to(&self, peer: usize) -> bool {
        if self.is_local(peer) {
            self.local.is_lossy_to(peer)
        } else {
            self.remote.is_lossy_to(peer)
        }
    }

    fn poll_event(&mut self) -> Option<PeerEvent> {
        // Each fabric is authoritative only for the peers it carries;
        // anything else it claims about membership is dropped, so one
        // peer can never surface duplicate transitions through the
        // fabric that doesn't reach it.
        loop {
            match self.local.poll_event() {
                Some(e) if self.is_local(e.peer) => return Some(e),
                Some(_) => continue,
                None => break,
            }
        }
        loop {
            match self.remote.poll_event() {
                Some(e) if !self.is_local(e.peer) => return Some(e),
                Some(_) => continue,
                None => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::device::{LoopbackDevice, LoopbackPair};
    use fm_core::packet::{HandlerId, PacketFlags, PacketHeader};

    #[test]
    fn stats_delta_subtracts_fieldwise_and_display_shows_only_nonzero() {
        let early = RouteStats {
            local_sent: 1,
            remote_recv: 2,
            ..RouteStats::default()
        };
        let late = RouteStats {
            local_sent: 4,
            remote_recv: 2,
            ..RouteStats::default()
        };
        assert_eq!(late.delta(&early).to_string(), "local_sent=3");
        assert_eq!(early.delta(&late).to_string(), "(all zero)");
    }

    fn pkt(src: u16, dst: u16, n: u8) -> FmPacket {
        FmPacket {
            header: PacketHeader {
                src,
                dst,
                handler: HandlerId(0),
                msg_seq: 0,
                pkt_seq: n as u32,
                msg_len: 1,
                flags: PacketFlags::FIRST | PacketFlags::LAST,
                credits: 0,
                ack: 0,
            },
            payload: vec![n].into(),
        }
    }

    #[test]
    fn host_map_parses_and_answers_locality() {
        let m = HostMap::parse("0,0,1,1").unwrap();
        assert_eq!(m.num_ranks(), 4);
        assert_eq!(m.num_hosts(), 2);
        assert!(m.same_host(0, 1));
        assert!(!m.same_host(1, 2));
        assert_eq!(m.local_peers(2), vec![3]);
        assert_eq!(m.host_of(3), 1);
        assert!(HostMap::parse("").is_err());
        assert!(HostMap::parse("0,x").is_err());
    }

    #[test]
    fn sends_split_by_destination_host() {
        // LoopbackPair gives node ids 0 and 1; the loopback "network"
        // stands in for both fabrics, the map decides which carries
        // what. Node 0's view of a 2-rank run split across 2 hosts:
        let (local, _lkeep) = LoopbackPair::new(8);
        let (remote, _rkeep) = LoopbackPair::new(8);
        let mut d: RoutedDevice<LoopbackDevice, LoopbackDevice> =
            RoutedDevice::new(local, remote, HostMap::new(vec![0, 1]));
        // dst 0 = self = same host → local; dst 1 = other host → remote.
        d.try_send(pkt(0, 0, 1)).unwrap();
        d.try_send(pkt(0, 1, 2)).unwrap();
        assert_eq!(d.stats().local_sent, 1);
        assert_eq!(d.stats().remote_sent, 1);
    }

    #[test]
    fn recv_drains_both_members() {
        let (local, mut lpeer) = LoopbackPair::new(8);
        let (remote, mut rpeer) = LoopbackPair::new(8);
        let mut d = RoutedDevice::new(local, remote, HostMap::new(vec![0, 1]));
        lpeer.try_send(pkt(1, 0, 10)).unwrap();
        rpeer.try_send(pkt(1, 0, 20)).unwrap();
        LoopbackPair::deliver(d.local_mut(), &mut lpeer);
        LoopbackPair::deliver(d.remote_mut(), &mut rpeer);
        let mut got = vec![
            d.try_recv().expect("one").payload[0],
            d.try_recv().expect("two").payload[0],
        ];
        got.sort_unstable();
        assert_eq!(got, vec![10, 20]);
        assert!(d.try_recv().is_none());
        assert_eq!(d.stats().local_recv, 1);
        assert_eq!(d.stats().remote_recv, 1);
    }

    /// A member that counts the polls of its receive path.
    struct Counting(LoopbackDevice, usize);

    impl NetDevice for Counting {
        fn node_id(&self) -> usize {
            self.0.node_id()
        }
        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }
        fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
            self.0.try_send(pkt)
        }
        fn try_recv(&mut self) -> Option<FmPacket> {
            self.1 += 1;
            self.0.try_recv()
        }
        fn send_space(&self) -> usize {
            self.0.send_space()
        }
        fn now(&self) -> Nanos {
            self.0.now()
        }
        fn charge(&mut self, cost: Nanos) {
            self.0.charge(cost)
        }
        fn poll_event(&mut self) -> Option<PeerEvent> {
            self.0.poll_event()
        }
    }

    #[test]
    fn an_idle_remote_member_is_never_polled_when_every_rank_is_local() {
        const POLLS: usize = 1000;
        let (local, mut lpeer) = LoopbackPair::new(8);
        let (remote, _r) = LoopbackPair::new(8);
        let mut d = RoutedDevice::new(local, Counting(remote, 0), HostMap::all_on_one_host(2));
        lpeer.try_send(pkt(1, 0, 7)).unwrap();
        LoopbackPair::deliver(d.local_mut(), &mut lpeer);
        assert_eq!(d.try_recv().expect("the local packet").payload[0], 7);
        for _ in 0..POLLS {
            assert!(d.try_recv().is_none());
        }
        assert_eq!(d.remote_mut().1, 0, "polls of the idle remote member");
        assert_eq!(d.stats().local_recv, 1);
        // Split over two hosts, the same polls reach the remote member.
        let (local, _l) = LoopbackPair::new(8);
        let (remote, _r) = LoopbackPair::new(8);
        let mut d = RoutedDevice::new(local, Counting(remote, 0), HostMap::new(vec![0, 1]));
        for _ in 0..POLLS {
            assert!(d.try_recv().is_none());
        }
        assert_eq!(d.remote_mut().1, POLLS);
    }

    #[test]
    fn send_space_is_the_min_of_both() {
        let (local, _l) = LoopbackPair::new(3);
        let (remote, _r) = LoopbackPair::new(8);
        let mut d = RoutedDevice::new(local, remote, HostMap::new(vec![0, 1]));
        assert_eq!(d.send_space(), 3);
        d.try_send(pkt(0, 0, 1)).unwrap(); // local member
        assert_eq!(d.send_space(), 2, "tighter member bounds the promise");
    }

    /// Each peer is as lossy as the member that carries it: over a
    /// lossless local leg and a lossy remote one, rank 0 of hosts
    /// `0,0,1,1` trusts itself and rank 1 and may lose packets to ranks 2
    /// and 3. With every rank on one host no peer is lossy, so neither
    /// is the device.
    #[test]
    fn a_peer_is_as_lossy_as_the_leg_that_carries_it() {
        let routed = |map| {
            let (local, _l) = LoopbackPair::new(4);
            let (remote, _r) = LoopbackPair::lossy(4);
            RoutedDevice::new(local, remote, map)
        };
        let d = routed(HostMap::parse("0,0,1,1").unwrap());
        let lossy: Vec<bool> = (0..4).map(|p| d.is_lossy_to(p)).collect();
        assert_eq!(lossy, [false, false, true, true]);
        assert!(d.is_lossy());
        assert!(!routed(HostMap::all_on_one_host(2)).is_lossy());
    }

    #[test]
    fn events_filtered_by_locality() {
        use fm_core::device::PeerEventKind;
        let ev = |peer| PeerEvent {
            peer,
            kind: PeerEventKind::Down,
            epoch: 0,
        };
        let here = |peer| PeerEvent {
            peer,
            kind: PeerEventKind::SameHost { pid: 4242 },
            epoch: 0,
        };
        let link = |peer| PeerEvent {
            peer,
            kind: PeerEventKind::Link { max_payload: 4072 },
            epoch: 0,
        };
        // 4 ranks, hosts 0,0,1,1; this is rank 0. Local transport
        // reports both a same-host peer (1, believed) and a cross-host
        // peer (2, dropped); remote reports 3 (believed) and 1
        // (dropped). Facts follow the same rule: from the local leg
        // about a local peer both pass; the remote leg's link size for
        // its own peer 3 passes, but it cannot make a peer readable by
        // claiming it is here, nor size a link it does not carry.
        let (mut l0, _l1) = LoopbackPair::new(4);
        let (mut r0, _r1) = LoopbackPair::new(4);
        [ev(2), link(2), here(1), link(1), ev(1)]
            .into_iter()
            .for_each(|e| l0.report(e));
        [here(1), link(1), ev(1), ev(3), link(3)]
            .into_iter()
            .for_each(|e| r0.report(e));
        let mut d = RoutedDevice::new(l0, r0, HostMap::parse("0,0,1,1").unwrap());
        assert_eq!(d.poll_event(), Some(here(1)), "local leg, local peer");
        assert_eq!(d.poll_event(), Some(link(1)), "local leg sizes rank 1");
        assert_eq!(d.poll_event(), Some(ev(1)), "local authority for rank 1");
        assert_eq!(d.poll_event(), Some(ev(3)), "remote authority for rank 3");
        assert_eq!(d.poll_event(), Some(link(3)), "remote leg sizes rank 3");
        assert_eq!(d.poll_event(), None, "cross-claims dropped");
    }

    /// A routed rank cuts each message at the size of the link it leaves
    /// on: a 2 KB message is one packet to its same-host peer, whose
    /// local leg reported a 4072-byte link, and one to a peer on another
    /// host whose remote leg reported a 3048-byte one, as fm-udp does on
    /// admission. To a remote peer with no such fact it keeps the
    /// profile's 1024-byte MTU and is two.
    #[test]
    fn packets_follow_the_link_they_leave_on() {
        use fm_core::device::PeerEventKind;
        use fm_core::Fm2Engine;
        use fm_model::MachineProfile;

        let fact = |peer, kind| PeerEvent {
            peer,
            kind,
            epoch: 0,
        };
        let link = |max_payload| PeerEventKind::Link { max_payload };
        // 4 ranks, hosts 0,0,1,1; this is rank 0.
        let (mut local, _l1) = LoopbackPair::new(8);
        let (mut remote, _r1) = LoopbackPair::new(8);
        local.report(fact(1, PeerEventKind::SameHost { pid: 4242 }));
        local.report(fact(1, link(4072)));
        remote.report(fact(2, link(3048)));
        let d = RoutedDevice::new(local, remote, HostMap::parse("0,0,1,1").unwrap());
        let profile = MachineProfile::ppro200_fm2();
        let fm = Fm2Engine::new(d, profile);
        fm.progress(); // the engine drains the facts
        let msg = vec![5u8; 2048];
        for dst in 1..4 {
            fm.try_send_message(dst, HandlerId(1), &[&msg]).unwrap();
        }
        let split = fm.with_device(|d| d.stats());
        assert_eq!(split.local_sent, 1, "one 4072-byte-link packet");
        let profile_packets = msg.len().div_ceil(profile.fm.mtu_payload) as u64;
        assert_eq!(profile_packets, 2);
        assert_eq!(split.remote_sent, 1 + profile_packets);
        assert_eq!(fm.same_host_pid(1), Some(4242));
        assert_eq!(
            fm.same_host_pid(2),
            None,
            "a link size says nothing of place"
        );
    }
}
