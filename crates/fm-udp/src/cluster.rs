//! Assembling clusters of [`UdpDevice`]s.
//!
//! Two shapes:
//!
//! * [`loopback_cluster`] — bind every node's socket in this process
//!   *first* (ephemeral `127.0.0.1:0` ports, so nothing can race for
//!   them), then build a device per node. The devices can be moved onto
//!   threads; this is how the in-crate tests get a real-socket cluster
//!   without spawning processes.
//! * [`UdpCluster::run`] — the `ThreadedCluster::run` shape (fm-threaded)
//!   over loopback UDP: one OS thread per node, each running the
//!   join barrier and then the node program. The transport between the
//!   threads is real datagrams through the kernel, lossy and all.
//!
//! Genuine multi-*process* clusters are driven by the `fm-udp-cluster`
//! binary (in `fm-bench`, the top of the stack: it also launches the shm
//! and routed transports), which distributes the peer map over child
//! stdin instead.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

use fm_core::blocking::run_ranks;

use crate::device::{UdpConfig, UdpDevice};

/// Default join-barrier timeout used by [`UdpCluster::run`].
pub const DEFAULT_JOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Bind `n` ephemeral loopback sockets and wrap each as a node device.
/// Every socket is bound before any device is built, so the peer map is
/// complete and race-free by construction. Per-node drop seeds are
/// decorrelated from `cfg.drop_seed` inside the device.
pub fn loopback_cluster(n: usize, cfg: UdpConfig) -> io::Result<Vec<UdpDevice>> {
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    let peers = sockets
        .iter()
        .map(|s| s.local_addr())
        .collect::<io::Result<Vec<_>>>()?;
    sockets
        .into_iter()
        .enumerate()
        .map(|(i, s)| UdpDevice::from_socket(s, i, peers.clone(), cfg.clone()))
        .collect()
}

/// Rebuild one node's device against a **running** cluster: bind the
/// node's fixed address from the existing peer map and stamp a fresh
/// incarnation epoch. This is the restart half of churn tolerance — the
/// returned device's [`UdpDevice::join`] completes against the live
/// survivors (who take the epoch bump as
/// [`fm_core::device::PeerEventKind::Rejoining`]) without stopping them.
///
/// `epoch` must differ from every epoch this node id has used before on
/// this peer map: survivors hold the old incarnation terminally `Down`,
/// and only a bump readmits. UDP sockets have no TIME_WAIT, so rebinding
/// the old address immediately after the previous process died is fine.
pub fn restart_node(
    node_id: usize,
    peers: Vec<std::net::SocketAddr>,
    epoch: u64,
    cfg: UdpConfig,
) -> io::Result<UdpDevice> {
    UdpDevice::bind(node_id, peers, UdpConfig { epoch, ..cfg })
}

/// Runs N node programs on N OS threads connected by loopback UDP.
pub struct UdpCluster;

impl UdpCluster {
    /// Spawn `num_nodes` threads; thread `i` runs `f(i, device_i)` after
    /// the cluster-wide join barrier completes. Returns every node's
    /// result, in node order. Panics in a node thread propagate.
    ///
    /// The engine for a node must be constructed *inside* `f` (engines
    /// are deliberately single-threaded; only the device crosses the
    /// spawn). UDP really drops datagrams, and the engine, asking the
    /// device, retransmits to every peer.
    pub fn run<F, R>(num_nodes: usize, cfg: UdpConfig, f: F) -> Vec<R>
    where
        F: Fn(usize, UdpDevice) -> R + Send + Sync,
        R: Send,
    {
        let devices = loopback_cluster(num_nodes, cfg).expect("bind loopback cluster");
        run_ranks("fm-udp-node", devices, |i, mut dev| {
            dev.join(DEFAULT_JOIN_TIMEOUT).expect("join barrier");
            f(i, dev)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::device::NetDevice;

    #[test]
    fn loopback_cluster_numbers_its_devices_by_rank() {
        UdpCluster::run(3, UdpConfig::default(), |i, dev| {
            assert_eq!(dev.node_id(), i);
            assert_eq!(dev.num_nodes(), 3);
        });
    }

    #[test]
    fn threads_exchange_datagrams_through_the_kernel() {
        use fm_core::packet::{FmPacket, HandlerId, PacketFlags, PacketHeader};
        let out = UdpCluster::run(2, UdpConfig::default(), |i, mut dev| {
            let peer = 1 - i;
            let pkt = FmPacket {
                header: PacketHeader {
                    src: i as u16,
                    dst: peer as u16,
                    handler: HandlerId(0),
                    msg_seq: 0,
                    pkt_seq: 0,
                    msg_len: 1,
                    flags: PacketFlags::FIRST | PacketFlags::LAST,
                    credits: 0,
                    ack: 0,
                },
                payload: vec![i as u8].into(),
            };
            dev.try_send(pkt).unwrap();
            loop {
                if let Some(p) = dev.try_recv() {
                    return p.payload[0];
                }
                std::thread::yield_now();
            }
        });
        assert_eq!(out, vec![1, 0]);
    }
}
