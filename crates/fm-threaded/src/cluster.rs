//! Spawning a cluster of node threads.

use fm_core::blocking::run_ranks;

use crate::net::ThreadedDevice;

/// Runs N node programs on N OS threads connected by a threaded mesh.
pub struct ThreadedCluster;

impl ThreadedCluster {
    /// Default per-link channel capacity, sized comfortably above the FM
    /// credit windows so the transport never binds tighter than FM's own
    /// flow control.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Spawn `num_nodes` threads; thread `i` runs `f(i, device_i)`.
    /// Returns every node's result, in node order. Panics in a node thread
    /// propagate.
    ///
    /// The engine for a node must be constructed *inside* `f` (engines are
    /// deliberately single-threaded; only the device crosses the spawn).
    pub fn run<F, R>(num_nodes: usize, f: F) -> Vec<R>
    where
        F: Fn(usize, ThreadedDevice) -> R + Send + Sync,
        R: Send,
    {
        Self::run_with_capacity(num_nodes, Self::DEFAULT_CAPACITY, f)
    }

    /// [`ThreadedCluster::run`] with an explicit per-link capacity.
    pub fn run_with_capacity<F, R>(num_nodes: usize, capacity: usize, f: F) -> Vec<R>
    where
        F: Fn(usize, ThreadedDevice) -> R + Send + Sync,
        R: Send,
    {
        run_ranks("fm-node", ThreadedDevice::mesh(num_nodes, capacity), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::device::NetDevice;

    #[test]
    fn mesh_numbers_its_devices_by_rank() {
        ThreadedCluster::run(4, |i, dev| {
            assert_eq!(dev.node_id(), i);
            assert_eq!(dev.num_nodes(), 4);
        });
    }

    #[test]
    fn threads_actually_exchange_packets() {
        use fm_core::packet::{FmPacket, HandlerId, PacketFlags, PacketHeader};
        let out = ThreadedCluster::run(2, |i, mut dev| {
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
