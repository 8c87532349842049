//! MPI-FM: an MPI subset layered on Fast Messages, reproducing the paper's
//! layering experiment (Figures 4 and 6).
//!
//! Two bindings of the *same* MPI semantics:
//!
//! * [`mpi1::Mpi1`] — over FM 1.x. The paper's problem case: the
//!   contiguous-buffer API forces a send-side **assembly copy** (header +
//!   payload into one buffer) and, because the receiver cannot direct
//!   incoming data, every message is **buffered in an MPI bounce pool and
//!   copied again** to the user — even when a matching receive was already
//!   posted. On a Sparc-class memcpy this collapses delivered bandwidth to
//!   ~20–35 % of FM's (Fig. 4).
//! * [`mpi2::Mpi2`] — over FM 2.x. Gather/scatter sends header and payload
//!   as separate pieces (**no assembly copy**); the receive handler reads
//!   the header, matches a posted receive *while the message is still
//!   arriving* (layer interleaving), and lands the payload directly in the
//!   receive buffer (**one copy**, the unavoidable receive-region → user
//!   transfer). Unexpected messages pay one extra bounce copy, as in any
//!   MPI. Delivered bandwidth: 70–90 % of FM's (Fig. 6).
//!
//! Both implement the [`Mpi`] trait: non-blocking `isend`/`irecv` with a
//! progress engine (usable from the discrete-event simulator), plus
//! blocking operations and collectives (barrier, bcast, reduce, allreduce,
//! gather, alltoall) as default methods for threaded use.
//!
//! # Example: nonblocking point-to-point over the FM 2.x binding
//!
//! ```
//! use fm_core::device::LoopbackPair;
//! use fm_core::Fm2Engine;
//! use fm_model::MachineProfile;
//! use mpi_fm::{Mpi, Mpi2};
//!
//! let (da, db) = LoopbackPair::new(64);
//! let mut rank0 = Mpi2::new(Fm2Engine::new(da, MachineProfile::ppro200_fm2()));
//! let mut rank1 = Mpi2::new(Fm2Engine::new(db, MachineProfile::ppro200_fm2()));
//!
//! let req = rank1.irecv(Some(0), Some(42), 64);        // post the receive
//! rank0.isend(1, 42, b"hello mpi".to_vec());           // eager gather-send
//!
//! // Pump the loopback device and drive both progress engines (real
//! // transports and the simulator do this as part of their run loops).
//! rank0.progress();
//! let (f0, f1) = (rank0.fm().clone(), rank1.fm().clone());
//! f0.with_device(|a| f1.with_device(|b| LoopbackPair::deliver(a, b)));
//! rank1.progress();
//!
//! let status = req.status().expect("matched and delivered");
//! assert_eq!((status.src, status.tag, status.len), (0, 42, 9));
//! assert_eq!(req.take().unwrap(), b"hello mpi");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod collectives;
pub mod comm;
pub mod hier;
pub mod matching;
pub mod mpi1;
pub mod mpi2;
pub mod shuffle;
pub mod testutil;
pub mod types;
pub mod wire;

pub use api::{Mpi, ReduceOp};
pub use collectives::{
    AllreduceOp, BarrierOp, BcastAlgo, BcastOp, GatherOp, ReduceAlgo, ReduceToRootOp, ScatterOp,
};
pub use comm::{CollPhase, Communicator, PIPELINE_SEGMENT, PIPELINE_THRESHOLD};
pub use mpi1::Mpi1;
pub use mpi2::Mpi2;
pub use shuffle::{run_shuffle, ShuffleReport, ShuffleRunner, ShuffleSpec};
pub use types::{RecvReq, SendReq, Status, ANY_SOURCE, ANY_TAG};
pub use wire::{coll_tag, CollKind};
