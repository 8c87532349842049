//! A real cross-process UDP transport under the Fast Messages stack.
//!
//! Everything above the [`fm_core::NetDevice`] seam — both FM engines,
//! the reliability sublayer, MPI-FM, Sockets-FM, Shmem — was written
//! against an interface, and this crate is the proof: [`UdpDevice`]
//! implements that interface over a plain non-blocking
//! [`std::net::UdpSocket`], so the same engine code that runs in the
//! discrete-event simulator moves real datagrams between real processes.
//!
//! The paper's layering argument carries over directly, with the kernel
//! socket standing in for the Myrinet LANai:
//!
//! * **Framing** ([`wire`]) — each datagram is a 16-byte preamble (magic,
//!   version, frame kind, source node, cluster epoch) followed by the
//!   canonical FM wire packet, the exact codec pinned by
//!   `fm-core/tests/header_codec.rs`. Oversize packets fail to encode
//!   (never truncate); the widest legal frame is exactly the IPv4 UDP
//!   payload ceiling.
//! * **Membership** ([`UdpDevice::join`]) — a static peer map
//!   (node id → socket address) plus a hello-beacon barrier that
//!   tolerates datagram loss during startup. Hellos keep flowing as
//!   liveness heartbeats once the run is underway: silent peers turn
//!   `Suspect` then `Down` (terminal for their incarnation epoch), a
//!   restarted process rejoins under a bumped epoch, and each
//!   transition surfaces to the engine — and from there to the
//!   application's peer handler — via
//!   [`fm_core::NetDevice::poll_event`].
//! * **Reliability** — UDP genuinely drops, duplicates, and reorders, so
//!   [`UdpDevice`] reports [`fm_core::NetDevice::is_lossy`] and the
//!   engine constructors insist on [`fm_core::Reliability::Retransmit`];
//!   FM's delivery guarantee is then earned by the selective-repeat
//!   sublayer, not assumed of the substrate.
//! * **Timing** — [`fm_core::NetDevice::now`] reads a monotonic wall
//!   clock, so retransmit timeouts, histograms, and chrome traces
//!   measure real elapsed nanoseconds.
//!
//! In-process smoke clusters come from [`loopback_cluster`] /
//! [`UdpCluster`]; genuine multi-process runs from `fm-bench`'s
//! `fm-udp-cluster` binary (`spawn` forks N children on loopback; `node`
//! joins an existing cluster from `--peers`). Seeded fault injection —
//! [`UdpConfig::drop_outbound`], [`UdpConfig::dup_outbound`],
//! [`UdpConfig::reorder_outbound`] — exercises the retransmission and
//! dedup machinery at chosen rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod device;
pub mod wire;

pub use cluster::{loopback_cluster, restart_node, UdpCluster, DEFAULT_JOIN_TIMEOUT};
pub use device::{PeerHealth, UdpConfig, UdpDevice, UdpStats};
