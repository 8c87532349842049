//! Machine profiles: the per-component cost constants that stand in for the
//! paper's hardware.
//!
//! The paper's two testbeds are:
//!
//! * **FM 1.x** — SparcStation hosts on an SBus I/O bus, Myrinet
//!   (1.28 Gbit/s links, LANai NIC). Measured endpoints: 14 µs one-way
//!   latency, 17.6 MB/s peak bandwidth, N½ = 54 bytes.
//! * **FM 2.x** — 200 MHz Pentium Pro hosts on 32-bit/33 MHz PCI, Myrinet.
//!   Measured endpoints: 11 µs latency, 77 MB/s peak, N½ < 256 bytes.
//!
//! Every cost in a profile is an *explicit, named* constant so the simulator
//! charges time for the same reasons the real systems spent it: programmed
//! I/O across the I/O bus on the send path, DMA on the receive path, LANai
//! firmware per-packet work, link serialization, host memcpys and per-call
//! software overheads. The constants are calibrated (see `EXPERIMENTS.md`)
//! so that the resulting curves match the paper's endpoints; the *structure*
//! (which stage pays which cost) follows the paper's Section 3–4 narrative.
//!
//! Per-byte rates are stored as integer **nanoseconds per kilobyte** so all
//! event arithmetic stays in integers (see [`crate::time::ns_for_bytes`]).

use crate::time::{ns_for_bytes, Nanos};

/// Host CPU software costs (per-call fixed overheads and memcpy rate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostCosts {
    /// Streaming memcpy cost, ns per KB. Charged for every host-level copy:
    /// FM 1.x staging assembly, MPI-FM bounce/delivery copies, handler
    /// copies in FM 2.x `FM_receive`.
    pub memcpy_ns_per_kb: u64,
    /// Fixed cost of one send-side API call (`FM_send` / `FM_begin_message`):
    /// argument checks, flow-control ledger lookup, header construction.
    pub send_call_ns: u64,
    /// Fixed per-packet send-side cost (descriptor build, credit decrement).
    pub per_packet_send_ns: u64,
    /// Fixed cost of one `FM_send_piece` / `FM_receive` call (FM 2.x only).
    pub piece_call_ns: u64,
    /// Cost of an `FM_extract` poll that finds no pending packets.
    pub extract_poll_ns: u64,
    /// Fixed per-packet receive-side processing inside `FM_extract`
    /// (descriptor read, stream lookup).
    pub per_packet_recv_ns: u64,
    /// Cost of dispatching (or resuming) a message handler.
    pub handler_dispatch_ns: u64,
    /// Per-packet flow-control bookkeeping (credit ledger update on send,
    /// owed-credit accounting on drain). Small by design — the paper's
    /// point is that well-designed flow control overlaps with other work —
    /// but not free, which is what Figure 3a's third curve shows.
    pub flow_control_ns: u64,
}

impl HostCosts {
    /// Time for a host memcpy of `bytes`.
    #[inline]
    pub fn memcpy(&self, bytes: u64) -> Nanos {
        ns_for_bytes(self.memcpy_ns_per_kb, bytes)
    }
}

/// I/O bus costs. The send path is programmed I/O (the host CPU stores the
/// packet into NIC memory word by word — this is why the send-side per-byte
/// cost lands on the *host* stage of the pipeline); the receive path is DMA
/// driven by the NIC into the pinned host receive region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoBusCosts {
    /// Streaming PIO rate, ns per KB (host → NIC).
    pub pio_ns_per_kb: u64,
    /// Fixed PIO cost per packet (address setup, trailing flush).
    pub pio_setup_ns: u64,
    /// DMA engine setup cost per transfer (NIC → host).
    pub dma_setup_ns: u64,
    /// Streaming DMA rate, ns per KB (NIC → host).
    pub dma_ns_per_kb: u64,
}

impl IoBusCosts {
    /// Time for the host to PIO a packet of `bytes` into NIC memory.
    #[inline]
    pub fn pio(&self, bytes: u64) -> Nanos {
        Nanos(self.pio_setup_ns) + ns_for_bytes(self.pio_ns_per_kb, bytes)
    }

    /// Time for the NIC to DMA `bytes` into host memory.
    #[inline]
    pub fn dma(&self, bytes: u64) -> Nanos {
        Nanos(self.dma_setup_ns) + ns_for_bytes(self.dma_ns_per_kb, bytes)
    }
}

/// LANai-style NIC firmware costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NicCosts {
    /// Firmware work per outgoing packet (queue pop, route prepend, link
    /// DMA kick-off).
    pub send_packet_ns: u64,
    /// Firmware work per incoming packet (CRC status check, receive-region
    /// slot selection, host DMA kick-off).
    pub recv_packet_ns: u64,
    /// Outgoing NIC queue depth, in packets. Bounds how far the host can
    /// run ahead of the wire (models LANai send-buffer memory).
    pub send_queue_packets: usize,
    /// Incoming NIC queue depth, in packets, before back-pressure reaches
    /// the link (models LANai receive-buffer memory).
    pub recv_queue_packets: usize,
}

/// Link and switch parameters (Myrinet-like).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkCosts {
    /// Serialization rate, ns per KB. Myrinet 1.28 Gbit/s = 160 MB/s
    /// = 6.25 ns/byte = 6400 ns/KB.
    pub ns_per_kb: u64,
    /// Wire propagation latency per link hop.
    pub wire_latency_ns: u64,
    /// Cut-through routing latency per switch hop.
    pub switch_latency_ns: u64,
    /// Per-link slack buffer in bytes: Myrinet's link-level back-pressure
    /// (STOP/GO) lets this many bytes be in flight while the receiver is
    /// stalled without loss.
    pub slack_bytes: usize,
}

impl LinkCosts {
    /// Serialization time for `bytes` on the wire.
    #[inline]
    pub fn serialize(&self, bytes: u64) -> Nanos {
        ns_for_bytes(self.ns_per_kb, bytes)
    }
}

/// Fast Messages protocol parameters (packetization and flow control).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FmParams {
    /// Maximum payload bytes per packet.
    pub mtu_payload: usize,
    /// Credit window per sender→receiver pair, in packets. Each credit is a
    /// guaranteed slot in the receiver's pinned host receive region; this is
    /// FM's sender flow control. Toward a peer whose link may lose packets
    /// it is the retransmit window instead: 64 in every profile, which is
    /// two `fm-udp` datagram trains (one in flight while the next is
    /// gathered) and exactly what one SACK bitmap covers. It is also how
    /// deep a saturating sender queues: 32 → 64 roughly doubled the
    /// four-rank workload batteries' tail latency.
    pub credits_per_peer: u32,
}

/// A complete machine profile: one 1998 testbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineProfile {
    /// Human-readable name, e.g. `"sparc20-sbus-myrinet (FM 1.x)"`.
    pub name: &'static str,
    /// Host CPU costs.
    pub host: HostCosts,
    /// I/O bus costs.
    pub iobus: IoBusCosts,
    /// NIC firmware costs.
    pub nic: NicCosts,
    /// Link/switch costs.
    pub link: LinkCosts,
    /// FM protocol parameters.
    pub fm: FmParams,
}

impl MachineProfile {
    /// Number of packets needed for a `bytes`-byte message.
    /// A zero-byte message still takes one (header-only) packet.
    #[inline]
    pub fn packets_for(&self, bytes: usize) -> usize {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.fm.mtu_payload)
        }
    }

    /// The FM 1.x testbed: SparcStation / SBus / Myrinet.
    ///
    /// Calibration targets: 14 µs latency, 17.6 MB/s peak, N½ = 54 B.
    /// The bandwidth bottleneck is the send-side SBus PIO (~19 MB/s
    /// streaming); SBus-era uncached host memcpy is ~20 MB/s, which is what
    /// makes the MPI-FM 1.x copy penalty so severe (Fig. 4).
    pub fn sparc_fm1() -> Self {
        MachineProfile {
            name: "sparc20-sbus-myrinet (FM 1.x)",
            host: HostCosts {
                memcpy_ns_per_kb: 51_200, // 20 MB/s
                send_call_ns: 1_800,
                per_packet_send_ns: 500,
                piece_call_ns: 400, // unused by FM 1.x proper
                extract_poll_ns: 300,
                per_packet_recv_ns: 900,
                handler_dispatch_ns: 700,
                flow_control_ns: 180,
            },
            iobus: IoBusCosts {
                pio_ns_per_kb: 41_000, // ~25 MB/s streaming PIO
                pio_setup_ns: 350,
                dma_setup_ns: 900,
                dma_ns_per_kb: 25_600, // 40 MB/s SBus DMA
            },
            nic: NicCosts {
                send_packet_ns: 1_900,
                recv_packet_ns: 1_900,
                // Must cover a full credit window: FM 1.x hands whole
                // messages to the NIC atomically, so the send queue must
                // admit the largest message (the LANai had 128-256 KB of
                // SRAM; 32 slots of 152 wire bytes is well within it).
                send_queue_packets: 64,
                recv_queue_packets: 128,
            },
            link: LinkCosts {
                ns_per_kb: 6_400, // 160 MB/s Myrinet
                wire_latency_ns: 400,
                switch_latency_ns: 350,
                slack_bytes: 512,
            },
            fm: FmParams {
                mtu_payload: 128,
                // Must comfortably cover the largest message FM 1.x admits
                // atomically (2 KB payload + headers = 17 packets), or the
                // window itself becomes the bandwidth limit at 2 KB.
                credits_per_peer: 64,
            },
        }
    }

    /// The FM 2.x testbed: 200 MHz Pentium Pro / PCI / Myrinet.
    ///
    /// Calibration targets: 11 µs latency, 77 MB/s peak, N½ < 256 B.
    /// The bottleneck is PCI programmed I/O with write-combining
    /// (~80 MB/s); host memcpy is ~180 MB/s, so a copy is no longer
    /// catastrophic — but at 77 MB/s of network, each avoided copy is still
    /// worth ~30 % (Fig. 6 vs Fig. 4).
    pub fn ppro200_fm2() -> Self {
        MachineProfile {
            name: "ppro200-pci-myrinet (FM 2.x)",
            host: HostCosts {
                memcpy_ns_per_kb: 5_689, // 180 MB/s
                send_call_ns: 1_500,
                per_packet_send_ns: 180,
                piece_call_ns: 250,
                extract_poll_ns: 300,
                per_packet_recv_ns: 700,
                handler_dispatch_ns: 600,
                flow_control_ns: 100,
            },
            iobus: IoBusCosts {
                pio_ns_per_kb: 12_288, // ~83 MB/s write-combining PIO
                pio_setup_ns: 500,
                dma_setup_ns: 900,
                dma_ns_per_kb: 9_846, // 104 MB/s PCI DMA
            },
            nic: NicCosts {
                send_packet_ns: 1_200,
                recv_packet_ns: 1_200,
                send_queue_packets: 64,
                recv_queue_packets: 128,
            },
            link: LinkCosts {
                ns_per_kb: 6_400, // 160 MB/s Myrinet
                wire_latency_ns: 500,
                switch_latency_ns: 500,
                slack_bytes: 1_024,
            },
            fm: FmParams {
                mtu_payload: 1_024,
                // Covers the largest message admitted atomically by the
                // convenience gather-send (32 KB + headers = 33 packets).
                credits_per_peer: 64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_for_rounds_up() {
        let p = MachineProfile::sparc_fm1();
        assert_eq!(p.fm.mtu_payload, 128);
        assert_eq!(p.packets_for(0), 1);
        assert_eq!(p.packets_for(1), 1);
        assert_eq!(p.packets_for(128), 1);
        assert_eq!(p.packets_for(129), 2);
        assert_eq!(p.packets_for(1024), 8);
    }

    #[test]
    fn sbus_pio_is_fm1_bottleneck() {
        // The FM 1.x peak of 17.6 MB/s must come from the send-side PIO
        // stage: one MTU packet at the PIO stage should take about
        // MTU / 17.6 MB/s once fixed costs are included.
        let p = MachineProfile::sparc_fm1();
        let per_pkt = p.iobus.pio(p.fm.mtu_payload as u64)
            + Nanos(p.host.per_packet_send_ns + p.host.flow_control_ns);
        let mbps = p.fm.mtu_payload as f64 / per_pkt.as_ns() as f64 * 1e3;
        // Headers add ~19% wire overhead on 128 B packets, pulling the
        // delivered payload rate down to the measured 16-18 MB/s.
        assert!(
            (15.0..23.0).contains(&mbps),
            "FM1 pipeline stage = {mbps} MB/s"
        );
    }

    #[test]
    fn pci_pio_is_fm2_bottleneck() {
        let p = MachineProfile::ppro200_fm2();
        let per_pkt = p.iobus.pio(p.fm.mtu_payload as u64) + Nanos(p.host.per_packet_send_ns);
        let mbps = p.fm.mtu_payload as f64 / per_pkt.as_ns() as f64 * 1e3;
        assert!(
            (68.0..88.0).contains(&mbps),
            "FM2 pipeline stage = {mbps} MB/s"
        );
    }

    #[test]
    fn memcpy_costs_reflect_architectures() {
        let sparc = MachineProfile::sparc_fm1();
        let ppro = MachineProfile::ppro200_fm2();
        // The x86 migration made copies ~9x cheaper; this ratio is what
        // separates Figure 4's collapse from Figure 6's mild penalty.
        let ratio = sparc.host.memcpy_ns_per_kb as f64 / ppro.host.memcpy_ns_per_kb as f64;
        assert!(ratio > 5.0 && ratio < 15.0, "memcpy ratio = {ratio}");
    }

    #[test]
    fn helper_costs_are_monotonic_in_bytes() {
        let p = MachineProfile::ppro200_fm2();
        assert!(p.iobus.pio(2048) > p.iobus.pio(1024));
        assert!(p.iobus.dma(2048) > p.iobus.dma(1024));
        assert!(p.link.serialize(2048) > p.link.serialize(1024));
        assert!(p.host.memcpy(2048) > p.host.memcpy(1024));
    }

    #[test]
    fn zero_byte_transfers_cost_only_setup() {
        let p = MachineProfile::ppro200_fm2();
        assert_eq!(p.iobus.pio(0), Nanos(p.iobus.pio_setup_ns));
        assert_eq!(p.iobus.dma(0), Nanos(p.iobus.dma_setup_ns));
        assert_eq!(p.link.serialize(0), Nanos::ZERO);
    }
}
