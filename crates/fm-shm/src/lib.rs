//! An intra-host shared-memory transport under the Fast Messages stack.
//!
//! On one machine, the fastest network is no network: co-located
//! processes exchange FM packets through memory-mapped lock-free SPSC
//! ring pairs in `/dev/shm`, with a release-stored stamp in the frame's
//! own slot instead of an interrupt and the canonical FM wire codec as
//! the frame format.
//! [`ShmDevice`] implements [`fm_core::NetDevice`], so every layer
//! written against that seam — both FM engines, the reliability
//! sublayer, MPI-FM, Sockets-FM, Shmem — runs over shared memory
//! unchanged.
//!
//! The paper's layering argument maps onto the segment the way it maps
//! onto the Myrinet LANai:
//!
//! * **Frames** ([`ring`]) — each direction of a rank pair is one SPSC
//!   ring of fixed slots. The producer writes the frame in place
//!   ([`fm_core::packet::FmPacket::encode_into`] straight into the
//!   mapped slot — the gather-send half of the zero-copy datapath) and
//!   publishes with a single release store of a stamp into the slot's
//!   header: the doorbell rides the frame's own cache line. The consumer
//!   polls the stamp of the slot it is waiting for, decodes the header
//!   in place, copies the payload alone out — inline in the
//!   [`fm_core::PacketBuf`] when it is at most
//!   [`fm_core::buf::INLINE`] bytes, else into a recycled
//!   [`fm_core::BufPool`] frame
//!   ([`fm_core::packet::FmPacket::decode_with`]) — and retires the
//!   slot — handing slots back a quarter ring at a time through the one
//!   cursor both sides touch. No locks, no syscalls, one cache line
//!   crossing per small frame, 0 allocations per message in steady
//!   state.
//! * **Segments** ([`seg`]) — one file per co-located rank pair, created
//!   `O_EXCL` by the lower rank and attached by the higher with a
//!   bounded spin on the ready flag (torn startup is a first-class
//!   case). Headers carry pids and gone-flags: graceful leavers do
//!   last-one-out unlink, crashed owners are detected by `/proc` probes
//!   and their segments reclaimed ([`seg::reclaim_stale`]).
//! * **Reliability** — rings never drop, duplicate, or reorder, so the
//!   device is lossless and engines trust every peer over it (no acks,
//!   no retransmit timer), exactly the trust FM places in Myrinet.
//! * **Membership** — peer death (crash or graceful exit) surfaces as
//!   [`fm_core::device::PeerEventKind::Down`] through
//!   [`fm_core::NetDevice::poll_event`], so churn handling above the
//!   seam works unchanged.
//!
//! In-process clusters come from [`shm_cluster`] / [`ShmCluster`] over
//! named segments, or from [`ShmDevice::in_process_mesh`] over anonymous
//! mappings that name no file (the mesh `fm-threaded` runs); genuine
//! multi-process runs from `fm-bench`'s `fm-udp-cluster` binary
//! with `--transport shm`. For mixed intra-/inter-host runs, `fm-route`
//! composes this device with `fm-udp` behind one `NetDevice`.
//!
//! Besides packets, the crate holds the registry through which
//! `shmem-fm`'s PEs on one host reach each other's symmetric heaps
//! ([`heap`]): shared by reference in one process, and across processes
//! a `memfd` taken through the owner's pidfd.
//!
//! Naming note: this crate is the shared-memory *transport* (a device
//! below the FM engines); the `shmem-fm` crate is the SHMEM *API* (a
//! put/get layer above them). `shmem-fm` re-exports this crate as
//! `shmem_fm::transport` for discoverability.
//!
//! Besides `fm-sys` (the raw syscalls), this is the one workspace crate
//! that needs `unsafe`: `mmap`/`munmap` are issued through
//! `fm_sys::syscall6` (the workspace takes no external crates), and the
//! rings are raw views over the mapped bytes. The unsafety is confined to
//! [`mem`], [`ring`] and [`seg`]'s header words; everything above handles
//! only safe handles.

#![warn(missing_docs)]

pub mod cluster;
pub mod device;
pub mod heap;
pub mod mem;
pub mod ring;
pub mod seg;

pub use cluster::{shm_cluster, ShmCluster, DEFAULT_JOIN_TIMEOUT};
pub use device::{ShmConfig, ShmDevice, ShmStats};
pub use seg::{reclaim_stale, reclaim_stale_older_than, segment_name, SegGeometry, Segment};
