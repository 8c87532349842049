//! Real OS-thread transport for Fast Messages.
//!
//! The simulator proves the *performance* claims in virtual time; this
//! crate proves the *library* is a real messaging layer: each node is an
//! OS thread, packets move through bounded in-process channels (back-
//! pressure, never loss), and the same FM engines, MPI, sockets, and shmem
//! code run unmodified on top (they are generic over
//! [`fm_core::NetDevice`]).
//!
//! * [`ThreadedDevice`] — the `NetDevice` implementation: one bounded SPSC
//!   channel per (src, dst) pair, so capacity checks are race-free.
//! * [`ThreadedCluster`] — spawns N node threads, hands each its device,
//!   and joins the results.
//!
//! The blocking calls examples want (`fm2_send`, `fm2_wait_until`, …) are
//! [`fm_core::blocking`], shared by every real transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod cluster;
pub mod net;

pub use cluster::ThreadedCluster;
pub use net::ThreadedDevice;
