//! Assembling clusters of [`ShmDevice`]s.
//!
//! [`shm_cluster`] builds the all-pairs segment mesh inside one process
//! (devices can then be moved onto threads); [`ShmCluster::run`] is the
//! `UdpCluster::run` shape over shared memory: one OS thread per node,
//! each running the join barrier and then the node program. Genuine
//! multi-*process* clusters are driven by `fm-bench`'s `fm-udp-cluster`
//! binary with `--transport shm`, which shares the run id over child argv
//! instead.

use std::io;
use std::time::Duration;

use fm_core::blocking::run_ranks;

use crate::device::{ShmConfig, ShmDevice};

/// Default join-barrier timeout used by [`ShmCluster::run`].
pub const DEFAULT_JOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Build an `n`-rank all-pairs shared-memory cluster in this process.
/// Opening sequentially in ascending rank order is deadlock-free
/// because [`ShmDevice::open`] only *attaches* downward: rank `i`
/// attaches to segments owned (created) by ranks below `i`, all of
/// which have already run by the time `i` opens.
pub fn shm_cluster(n: usize, cfg: ShmConfig) -> io::Result<Vec<ShmDevice>> {
    let mut devices = Vec::with_capacity(n);
    for node in 0..n {
        let peers: Vec<usize> = (0..n).filter(|&p| p != node).collect();
        devices.push(ShmDevice::open(node, n, &peers, cfg.clone())?);
    }
    Ok(devices)
}

/// Runs N node programs on N OS threads connected by shared memory.
pub struct ShmCluster;

impl ShmCluster {
    /// Spawn `num_nodes` threads; thread `i` runs `f(i, device_i)` after
    /// the cluster-wide join barrier completes. Returns every node's
    /// result, in node order. Panics in a node thread propagate.
    ///
    /// The engine must be constructed *inside* `f` (engines are
    /// single-threaded; only the device crosses the spawn). Shared
    /// memory is lossless, so the engine trusts every peer — the
    /// substrate really does guarantee delivery, exactly as FM assumes
    /// of Myrinet.
    pub fn run<F, R>(num_nodes: usize, cfg: ShmConfig, f: F) -> Vec<R>
    where
        F: Fn(usize, ShmDevice) -> R + Send + Sync,
        R: Send,
    {
        let devices = shm_cluster(num_nodes, cfg).expect("open shm cluster");
        run_ranks("fm-shm-node", devices, |i, mut dev| {
            dev.join(DEFAULT_JOIN_TIMEOUT).expect("join barrier");
            f(i, dev)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::device::NetDevice;

    fn cfg(tag: &str) -> ShmConfig {
        ShmConfig {
            run_id: format!("clu{}-{tag}", std::process::id()),
            dir: std::env::temp_dir(),
            ..ShmConfig::default()
        }
    }

    #[test]
    fn shm_cluster_numbers_its_devices_by_rank() {
        ShmCluster::run(3, cfg("ord"), |i, dev| {
            assert_eq!(dev.node_id(), i);
            assert_eq!(dev.num_nodes(), 3);
        });
    }

    #[test]
    fn threads_exchange_frames_through_the_rings() {
        use fm_core::packet::{FmPacket, HandlerId, PacketFlags, PacketHeader};
        let out = ShmCluster::run(2, cfg("xch"), |i, mut dev| {
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

    #[test]
    fn segments_are_unlinked_after_a_graceful_run() {
        let c = cfg("cln");
        let dir = c.dir.clone();
        let run = c.run_id.clone();
        ShmCluster::run(3, c, |_i, dev| drop(dev));
        for lo in 0..3usize {
            for hi in (lo + 1)..3 {
                let path = dir.join(crate::seg::segment_name(&run, lo, hi));
                assert!(!path.exists(), "segment {lo}x{hi} left behind");
            }
        }
    }
}
