//! Shared measurement harness for the figure-reproduction benches.
//!
//! Every paper figure is regenerated by a bench target under `benches/`;
//! the heavy lifting — opening a cluster, running a bandwidth stream or a
//! ping-pong, summarizing curves — lives here so the bench binaries stay
//! declarative.
//!
//! Every substrate is a [`fabric::Fabric`]: the simulated Myrinet
//! ([`Sim`], *virtual* time — the numbers are properties of the modeled
//! 1998 hardware, not of the machine running the bench) and the
//! wall-clock ones ([`Threads`], [`Udp`], [`Shm`], [`Routed`]) that
//! calibrate what the stack costs on the machine actually running it.
//! Each probe shape is written once over that trait. This is also the
//! top-of-stack crate — it depends on every layer — so the all-transport
//! launcher `fm-udp-cluster` lives here, next to `calibrate` and `soak`.

#![forbid(unsafe_code)]

pub mod collectives;
pub mod fabric;
pub mod harness;
pub mod onesided;
pub mod report;
pub mod udp;
pub mod workload;

pub use collectives::{coll_latency_us, sim_coll_latency, Coll};
pub use fabric::{Fabric, Routed, Shm, Sim, Threads, Udp};
pub use harness::*;
pub use onesided::put_stream;
pub use report::*;
pub use udp::{udp_churn_dist, ChurnDist};
pub use workload::{sim_workload_dist, traffic_program, workload_dist, WorkloadDist};
