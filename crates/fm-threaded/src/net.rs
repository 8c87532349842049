//! The threaded network: the shared-memory rings, between threads.
//!
//! Topologically a full mesh: every rank pair has its own segment of two
//! SPSC rings, the production `fm-shm` ring over an anonymous mapping
//! ([`ShmDevice::in_process_mesh`]). Per-pair rings make `send_space`
//! race-free (only the owning node pushes to its outgoing rings), which
//! the FM engines rely on for all-or-nothing message admission. Bounded
//! capacity is the back-pressure: a full ring means `try_send` fails and
//! the engine retries after progress, exactly like a full NIC queue —
//! nothing is dropped. A node whose thread has returned raises its
//! gone-flags, and the survivors report it [`PeerEventKind::Down`].
//!
//! [`PeerEventKind::Down`]: fm_core::device::PeerEventKind::Down

use fm_core::device::{DeviceFull, NetDevice, PeerEvent};
use fm_core::FmPacket;
use fm_model::Nanos;
use fm_shm::ShmDevice;

/// [`NetDevice`] over in-process shared-memory rings; one per node
/// thread.
#[derive(Debug)]
pub struct ThreadedDevice(ShmDevice);

impl ThreadedDevice {
    /// Build a fully-connected mesh of `num_nodes` devices with per-link
    /// `capacity` packets (a power of two: the ring's slot count).
    pub fn mesh(num_nodes: usize, capacity: usize) -> Vec<ThreadedDevice> {
        assert!(num_nodes >= 1 && capacity >= 1);
        let slots = u32::try_from(capacity).expect("per-link capacity fits u32");
        ShmDevice::in_process_mesh(num_nodes, slots)
            .expect("map the in-process rings")
            .into_iter()
            .map(ThreadedDevice)
            .collect()
    }
}

impl NetDevice for ThreadedDevice {
    #[inline]
    fn node_id(&self) -> usize {
        self.0.node_id()
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }

    #[inline]
    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        self.0.try_send(pkt)
    }

    #[inline]
    fn try_recv(&mut self) -> Option<FmPacket> {
        self.0.try_recv()
    }

    #[inline]
    fn send_space(&self) -> usize {
        self.0.send_space()
    }

    #[inline]
    fn now(&self) -> Nanos {
        self.0.now()
    }

    #[inline]
    fn charge(&mut self, cost: Nanos) {
        self.0.charge(cost)
    }

    #[inline]
    fn is_lossy(&self) -> bool {
        self.0.is_lossy()
    }

    #[inline]
    fn is_lossy_to(&self, peer: usize) -> bool {
        self.0.is_lossy_to(peer)
    }

    #[inline]
    fn poll_event(&mut self) -> Option<PeerEvent> {
        self.0.poll_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::packet::{HandlerId, PacketFlags, PacketHeader};

    fn pkt(src: usize, dst: usize, tag: u8) -> FmPacket {
        FmPacket {
            header: PacketHeader {
                src: src as u16,
                dst: dst as u16,
                handler: HandlerId(0),
                msg_seq: 0,
                pkt_seq: 0,
                msg_len: 1,
                flags: PacketFlags::FIRST | PacketFlags::LAST,
                credits: 0,
                ack: 0,
            },
            payload: vec![tag].into(),
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // s and d are both indices
    fn mesh_connects_all_pairs() {
        let mut devs = ThreadedDevice::mesh(3, 4);
        for s in 0..3 {
            for d in 0..3 {
                if s == d {
                    continue;
                }
                let p = pkt(s, d, (s * 3 + d) as u8);
                devs[s].try_send(p).unwrap();
            }
        }
        #[allow(clippy::needless_range_loop)] // s above is also an index
        for d in 0..3 {
            let mut got = Vec::new();
            while let Some(p) = devs[d].try_recv() {
                got.push(p.payload[0]);
            }
            assert_eq!(got.len(), 2, "node {d} hears from both peers");
        }
    }

    #[test]
    fn capacity_limits_and_space_reports() {
        let mut devs = ThreadedDevice::mesh(2, 2);
        assert_eq!(devs[0].send_space(), 2);
        devs[0].try_send(pkt(0, 1, 1)).unwrap();
        assert_eq!(devs[0].send_space(), 1);
        devs[0].try_send(pkt(0, 1, 2)).unwrap();
        assert_eq!(devs[0].send_space(), 0);
        assert_eq!(devs[0].try_send(pkt(0, 1, 3)), Err(DeviceFull));
        // Draining restores space.
        assert!(devs[1].try_recv().is_some());
        assert_eq!(devs[0].send_space(), 1);
    }

    #[test]
    fn per_pair_order_is_fifo() {
        let mut devs = ThreadedDevice::mesh(2, 16);
        for i in 0..10 {
            devs[0].try_send(pkt(0, 1, i)).unwrap();
        }
        let mut got = Vec::new();
        while let Some(p) = devs[1].try_recv() {
            got.push(p.payload[0]);
        }
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn round_robin_receive_is_fair() {
        let mut devs = ThreadedDevice::mesh(3, 16);
        // Node 1 and node 2 each queue 3 packets to node 0.
        for i in 0..3 {
            devs[1].try_send(pkt(1, 0, 10 + i)).unwrap();
            devs[2].try_send(pkt(2, 0, 20 + i)).unwrap();
        }
        let mut sources = Vec::new();
        while let Some(p) = devs[0].try_recv() {
            sources.push(p.header.src);
        }
        assert_eq!(sources.len(), 6);
        // Alternating sources, not all of one then all of the other.
        assert_ne!(&sources[..3], &[1, 1, 1]);
        assert_ne!(&sources[..3], &[2, 2, 2]);
    }

    #[test]
    fn clock_advances() {
        let devs = ThreadedDevice::mesh(1, 1);
        let t0 = devs[0].now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(devs[0].now() > t0);
    }
}
