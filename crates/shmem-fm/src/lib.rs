//! Shmem-FM: one-sided put/get and a small Global Arrays layer over Fast
//! Messages 2.x.
//!
//! The paper (§4.2) lists "Shmem Put/Get and Global Arrays (both global
//! address space interfaces)" among the APIs implemented on FM 2.x to
//! demonstrate its layering capabilities. This crate is that pair:
//!
//! * [`shmem::Shmem`] — a symmetric heap per node with one-sided `put`,
//!   `get`, elementwise f64 `accumulate`, an atomic `fetch-add`, `quiet`
//!   (put completion), and `barrier_all`. One-sidedness falls straight
//!   out of FM's handler model: the target's handler performs the memory
//!   operation; the target application never posts anything. It is the
//!   one place that decides what is local: an op aimed at the caller's
//!   own PE acts on its heap directly, with no FM message.
//! * [`ga::GlobalArray`] — block-distributed dense f64 arrays on top of
//!   shmem: `get`/`put`/`acc` over arbitrary index ranges, crossing
//!   ownership boundaries transparently, and [`ga::GlobalArray2D`], the
//!   same layout over `rows × cols` elements in blocks of whole rows,
//!   with section ops taking `(row_lo, row_hi, col_lo, col_hi)`. The
//!   layer is layout only: it calls `Shmem` for every element.
//!
//! # Naming: `shmem-fm` vs `fm-shm`
//!
//! Two similarly named crates, two unrelated layers — easy to confuse:
//!
//! * **`shmem-fm`** (this crate) is an *API above* FM: the SHMEM
//!   one-sided programming interface, runnable over any [`fm_core`]
//!   device — loopback, threaded, UDP, or shared memory.
//! * **`fm-shm`** is a *transport below* FM: an intra-host
//!   [`fm_core::NetDevice`] built on memory-mapped SPSC rings in
//!   `/dev/shm`, carrying FM packets between co-located processes.
//!
//! So "SHMEM over shared memory" is the stack `shmem-fm` →
//! `fm_core::Fm2Engine` → `fm-shm`. For convenience the transport is
//! re-exported here as [`transport`] (`shmem_fm::transport`), so code
//! assembling that stack needs only this crate in scope.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ga;
pub mod shmem;
pub mod wire;

pub use fm_shm as transport;

pub use ga::{GlobalArray, GlobalArray2D};
pub use shmem::Shmem;
