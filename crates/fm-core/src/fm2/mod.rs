//! Fast Messages 2.x — the second-generation API (paper §4, Table 2).
//!
//! ```text
//! FM_begin_message(dest, size, handler)  -> Fm2Engine::begin_message
//! FM_send_piece(stream, buf, bytes)      -> Fm2Engine::try_send_piece
//! FM_end_message(stream)                 -> Fm2Engine::try_end_message
//! FM_receive(stream, buf, bytes)         -> FmStream::receive(buf).await
//! FM_extract(bytes)                      -> Fm2Engine::extract(budget)
//!   (not in Table 2)                     -> Fm2Engine::try_send_rest
//! ```
//!
//! `try_send_rest(stream, pieces)` is not in the paper's table. The
//! paper's `FM_send_piece` blocks until the piece is taken; here it is
//! non-blocking and may take part of one, so every layer that sends a
//! gather message wider than the credit window has to resume it. That
//! resume — skip what the stream already accepted, push the rest, end the
//! message — is this verb, so that no layer above keeps a cursor of its
//! own or knows that a message has packets.
//!
//! What changed from FM 1.x, and why (paper §3.2, §4.1):
//!
//! * **Gather/scatter** — a message is a *byte stream*, composed from any
//!   number of arbitrarily-sized pieces on the send side and decomposed
//!   into any number of arbitrarily-sized reads on the receive side. The
//!   piece boundaries need not match. Header attachment/removal (the bread
//!   and butter of protocol layering) no longer costs a copy.
//! * **Layer interleaving / transparent handler multithreading** — a
//!   handler starts as soon as the *first* packet of its message arrives
//!   and is suspended/resumed transparently at `FM_receive` boundaries as
//!   later packets stream in. In this implementation a handler is an
//!   `async` function and `FM_receive` is an await point; the engine polls
//!   the handler exactly when new bytes (or the end of its message)
//!   arrive. This is what lets a layered library read a header, look up
//!   the destination buffer, and have the payload land directly in it.
//! * **Receiver flow control** — `FM_extract` takes a byte budget
//!   (rounded up to a packet boundary), so the receiving layer controls
//!   how much data it is presented at a time and its buffer pools stop
//!   overrunning.
//!
//! One file per concern: [`Fm2Engine`] itself (type, constructors,
//! accessors, membership drain) in `engine.rs`, the send verbs and the
//! queue of the sends FM cannot admit yet in `send.rs`, the one handler
//! table, its one dispatch and `FM_extract` in `exec.rs`, and the async
//! handler — a table entry like any sink, whose executor runs each
//! message's future — in `tasks.rs`.

mod engine;
mod exec;
mod send;
mod sendstream;
mod stream;
mod tasks;

pub use engine::{Fm2Engine, Fm2Handle};
pub use exec::{PacketSink, SinkMeta};
pub(crate) use send::{Body, Lender, Queued, Resume, SendQueue};
pub use send::{Message, SentFlag, INLINE_HEAD};
pub use sendstream::SendStream;
pub use stream::FmStream;
