//! Illinois Fast Messages (FM) — the messaging layer of the paper
//! *Efficient Layering for High Speed Communication: Fast Messages 2.x*
//! (Lauria, Pakin, Chien; HPDC'98), reimplemented in Rust over a pluggable
//! network device.
//!
//! Two generations, as in the paper:
//!
//! * [`fm1`] — the FM 1.x API (Table 1): `FM_send`, `FM_send_4`,
//!   `FM_extract`. Messages are contiguous buffers; a multi-packet message
//!   is assembled in a staging buffer before its handler runs. Guarantees:
//!   reliable delivery, in-order delivery, sender flow control, decoupled
//!   communication scheduling.
//! * [`fm2`] — the FM 2.x API (Table 2): `FM_begin_message` /
//!   `FM_send_piece` / `FM_end_message` on the send side, `FM_receive`
//!   inside handlers, and a byte budget on `FM_extract`. Messages are byte
//!   streams: **gather/scatter** without assembly copies, **layer
//!   interleaving** (a handler starts on the first packet and can suspend
//!   in `FM_receive` — transparent handler multithreading), and **receiver
//!   flow control**.
//!
//! Both engines run over any [`device::NetDevice`]: the discrete-event
//! Myrinet simulator (virtual-time figures) via [`device::SimDevice`], or
//! the real OS-thread transport in the `fm-threaded` crate.
//!
//! # Example: the FM 2.x stream API end to end
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use fm_core::device::LoopbackPair;
//! use fm_core::packet::HandlerId;
//! use fm_core::{Fm2Engine, FmStream};
//! use fm_model::MachineProfile;
//!
//! let (da, db) = LoopbackPair::new(64);
//! let sender = Fm2Engine::new(da, MachineProfile::ppro200_fm2());
//! let receiver = Fm2Engine::new(db, MachineProfile::ppro200_fm2());
//!
//! // The receiving handler reads a 4-byte header, then scatters the
//! // payload wherever it likes — suspending at each receive if the data
//! // has not arrived yet (transparent handler multithreading).
//! let seen: Rc<RefCell<Option<(u32, Vec<u8>)>>> = Rc::default();
//! let s = Rc::clone(&seen);
//! receiver.set_handler(HandlerId(7), move |stream: FmStream, _src| {
//!     let s = Rc::clone(&s);
//!     async move {
//!         let mut hdr = [0u8; 4];
//!         stream.receive(&mut hdr).await;
//!         let body = stream.receive_vec(stream.remaining()).await;
//!         *s.borrow_mut() = Some((u32::from_le_bytes(hdr), body));
//!     }
//! });
//!
//! // Gather-send: header and payload as separate pieces — no assembly
//! // copy.
//! sender
//!     .try_send_message(1, HandlerId(7), &[&9u32.to_le_bytes(), b"payload"])
//!     .unwrap();
//!
//! // Move packets (the loopback device is hand-pumped; real transports
//! // do this for you) and extract with a byte budget (receiver flow
//! // control; usize::MAX = unpaced).
//! sender.with_device(|a| receiver.with_device(|b| LoopbackPair::deliver(a, b)));
//! receiver.extract(usize::MAX);
//!
//! assert_eq!(
//!     seen.borrow().clone(),
//!     Some((9, b"payload".to_vec()))
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod buf;
pub mod device;
mod engine;
pub mod error;
pub mod flow;
pub mod fm1;
pub mod fm2;
pub mod obs;
pub mod onesided;
pub mod packet;
pub mod reliable;
pub mod stats;

pub use buf::{BufPool, PacketBuf, PoolStats};
pub use device::{NetDevice, PeerEvent, PeerEventKind, SimDevice};
pub use error::{FmError, WouldBlock};
pub use fm1::Fm1Engine;
pub use fm2::{Fm2Engine, Fm2Handle, FmStream, SinkMeta};
pub use obs::{LogHistogram, ObsEvent, ObsSink, SpanKind};
pub use onesided::{
    Onesided, OnesidedConfig, OsCompletion, OsError, OsPort, OsStatus, OsToken, RegionHandle,
};
pub use packet::{
    FmPacket, HandlerId, PacketHeader, HEADER_WIRE_BYTES, MAX_FRAME_PAYLOAD, MAX_WIRE_FRAME,
};
pub use reliable::{Reliability, RetransmitConfig};
pub use stats::FmStats;
