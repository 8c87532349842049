//! The receive-side stream: `FM_receive` as an await point.
//!
//! An [`FmStream`] is the handler's view of one in-flight message. Bytes
//! arrive packet by packet (appended by the engine during `FM_extract`);
//! the handler consumes them in arbitrarily-sized [`FmStream::receive`]
//! calls that suspend when not enough data has arrived yet. This is the
//! paper's "clean sequential view of message reception" — the handler is
//! written as if the whole message were already there, and the engine's
//! scheduling (packetization, interleaving with other messages) is
//! invisible to it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use fm_model::Nanos;

use crate::buf::PacketBuf;

/// Shared cost sink between a stream and its engine: receive-side copies
/// charge here during a handler poll, and the engine drains it into the
/// device clock afterwards (the engine cannot be borrowed during the poll).
struct ChargeCell {
    pending: Nanos,
    bytes_copied: u64,
    memcpy_ns_per_kb: u64,
    piece_call_ns: u64,
}

impl ChargeCell {
    /// Account `n` bytes copied out of the stream by one handler poll.
    fn copied(&mut self, n: usize) {
        if n > 0 {
            self.bytes_copied += n as u64;
            self.pending += fm_model::time::ns_for_bytes(self.memcpy_ns_per_kb, n as u64);
        }
    }
}

/// Receive-side state of one message.
struct StreamState {
    src: usize,
    msg_len: u32,
    /// Arrived, unconsumed payload segments (one per packet): refcounted
    /// views into the very frames the device delivered — scatter happens
    /// on the single handler-to-user copy in `consume`, never here.
    segments: VecDeque<PacketBuf>,
    /// Consumed prefix of the front segment.
    front_offset: usize,
    /// Total payload bytes arrived.
    received: usize,
    /// Total payload bytes consumed by `receive`/`skip`.
    consumed: usize,
    /// True once the LAST packet has arrived.
    ended: bool,
}

impl StreamState {
    /// Bytes available to consume right now.
    fn available(&self) -> usize {
        self.received - self.consumed
    }

    /// Consume up to `n` available bytes, handing each contiguous run to
    /// `sink` in stream order; returns the count consumed.
    fn consume(&mut self, n: usize, mut sink: impl FnMut(&[u8])) -> usize {
        let mut taken = 0;
        while taken < n {
            let Some(front) = self.segments.front() else {
                break;
            };
            let avail = &front[self.front_offset..];
            let take = avail.len().min(n - taken);
            sink(&avail[..take]);
            taken += take;
            self.front_offset += take;
            if self.front_offset == front.len() {
                self.segments.pop_front();
                self.front_offset = 0;
            }
        }
        self.consumed += taken;
        taken
    }
}

/// A handler's read handle on one in-flight message (the paper's
/// `FM_stream`).
///
/// Cheap to clone; all clones view the same message.
#[derive(Clone)]
pub struct FmStream {
    state: Rc<RefCell<StreamState>>,
    charge: Rc<RefCell<ChargeCell>>,
}

impl FmStream {
    /// The cells of a message stream, idle until [`FmStream::arm`]ed;
    /// receive-side copies charge at the given rates.
    pub(crate) fn new(memcpy_ns_per_kb: u64, piece_call_ns: u64) -> Self {
        FmStream {
            state: Rc::new(RefCell::new(StreamState {
                src: 0,
                msg_len: 0,
                segments: VecDeque::new(),
                front_offset: 0,
                received: 0,
                consumed: 0,
                ended: false,
            })),
            charge: Rc::new(RefCell::new(ChargeCell {
                pending: Nanos::ZERO,
                bytes_copied: 0,
                memcpy_ns_per_kb,
                piece_call_ns,
            })),
        }
    }

    /// Make these cells the stream of a `msg_len`-byte message from
    /// `src`, nothing arrived yet. Re-arming retired cells keeps their
    /// allocations, the segment deque's included.
    pub(crate) fn arm(&self, src: usize, msg_len: u32) {
        let mut st = self.state.borrow_mut();
        st.src = src;
        st.msg_len = msg_len;
        st.segments.clear();
        st.front_offset = 0;
        st.received = 0;
        st.consumed = 0;
        st.ended = false;
        let mut c = self.charge.borrow_mut();
        c.pending = Nanos::ZERO;
        c.bytes_copied = 0;
    }

    /// True when no clone of this handle is left anywhere (the handler's
    /// future is gone and it stashed none): the cells may be re-armed
    /// for another message.
    pub(crate) fn is_sole_handle(&self) -> bool {
        Rc::strong_count(&self.state) == 1 && Rc::strong_count(&self.charge) == 1
    }

    /// One more packet of the message has arrived (engine side): its
    /// payload joins the stream; `last` ends the message.
    pub(crate) fn push_segment(&self, payload: PacketBuf, last: bool) {
        let mut st = self.state.borrow_mut();
        st.received += payload.len();
        if !payload.is_empty() {
            st.segments.push_back(payload);
        }
        st.ended |= last;
    }

    /// True once the LAST packet has arrived.
    pub(crate) fn ended(&self) -> bool {
        self.state.borrow().ended
    }

    /// Drain what the handler's receives charged during one poll: host
    /// time and bytes copied (the engine cannot be borrowed while the
    /// handler runs, so they collect here).
    pub(crate) fn take_charges(&self) -> (Nanos, u64) {
        let mut c = self.charge.borrow_mut();
        (
            std::mem::replace(&mut c.pending, Nanos::ZERO),
            std::mem::replace(&mut c.bytes_copied, 0),
        )
    }

    /// The sending node.
    pub fn src(&self) -> usize {
        self.state.borrow().src
    }

    /// Total message payload length (from `FM_begin_message`'s size).
    pub fn msg_len(&self) -> usize {
        self.state.borrow().msg_len as usize
    }

    /// Bytes available to `receive` without suspending.
    pub fn available(&self) -> usize {
        self.state.borrow().available()
    }

    /// Bytes of the message not yet consumed (based on the declared
    /// length).
    pub fn remaining(&self) -> usize {
        let s = self.state.borrow();
        s.msg_len as usize - s.consumed
    }

    /// `FM_receive`: fill `buf` from the message byte stream, suspending
    /// until enough data arrives. Resolves to the number of bytes written —
    /// `buf.len()` unless the message ended first (short read).
    ///
    /// Each resumption that copies bytes charges the host memcpy cost; the
    /// call itself charges the fixed `FM_receive` overhead once.
    pub fn receive<'a>(&'a self, buf: &'a mut [u8]) -> Receive<'a> {
        Receive {
            stream: self,
            buf,
            filled: 0,
            charged_call: false,
        }
    }

    /// Consume and discard `n` bytes of the stream (no copy, no memcpy
    /// charge), suspending until they have arrived. Resolves to the number
    /// discarded (short if the message ended first).
    pub fn skip(&self, n: usize) -> Skip<'_> {
        Skip {
            stream: self,
            want: n,
            dropped: 0,
            charged_call: false,
        }
    }

    /// `FM_receive` into a growable buffer: append the next `n` bytes of
    /// the message byte stream to `out`, suspending until they have
    /// arrived. Resolves to the number of bytes appended — `n` unless the
    /// message ended first. Charges exactly what [`FmStream::receive`]
    /// charges, and copies each byte once, with no zero-fill first: the
    /// buffer is reserved up front (bounded by what the message has left)
    /// and grows from the arrived segments.
    pub fn receive_into<'a>(&'a self, out: &'a mut Vec<u8>, n: usize) -> ReceiveInto<'a> {
        ReceiveInto {
            stream: self,
            out,
            want: n,
            filled: 0,
            charged_call: false,
        }
    }

    /// Convenience: receive exactly `n` bytes into a fresh buffer.
    /// Truncated if the message ends early.
    pub async fn receive_vec(&self, n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        self.receive_into(&mut buf, n).await;
        buf
    }

    /// The fixed `FM_receive` overhead, once per call.
    fn charge_call(&self, charged: &mut bool) {
        if !*charged {
            *charged = true;
            let mut c = self.charge.borrow_mut();
            let ns = c.piece_call_ns;
            c.pending += Nanos(ns);
        }
    }
}

/// Future returned by [`FmStream::receive`].
pub struct Receive<'a> {
    stream: &'a FmStream,
    buf: &'a mut [u8],
    filled: usize,
    charged_call: bool,
}

impl Future for Receive<'_> {
    type Output = usize;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<usize> {
        let this = self.get_mut();
        this.stream.charge_call(&mut this.charged_call);
        let mut st = this.stream.state.borrow_mut();
        let mut at = this.filled;
        let buf = &mut *this.buf;
        let n = st.consume(buf.len() - at, |run| {
            buf[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        });
        this.stream.charge.borrow_mut().copied(n);
        this.filled += n;
        if this.filled == this.buf.len() || (st.ended && st.available() == 0) {
            Poll::Ready(this.filled)
        } else {
            Poll::Pending
        }
    }
}

/// Future returned by [`FmStream::receive_into`].
pub struct ReceiveInto<'a> {
    stream: &'a FmStream,
    out: &'a mut Vec<u8>,
    want: usize,
    filled: usize,
    charged_call: bool,
}

impl Future for ReceiveInto<'_> {
    type Output = usize;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<usize> {
        let this = self.get_mut();
        let mut st = this.stream.state.borrow_mut();
        if !this.charged_call {
            // The wire names `want`; the message bounds what is reserved.
            let left = (st.msg_len as usize).saturating_sub(st.consumed);
            this.out.reserve_exact(this.want.min(left));
        }
        this.stream.charge_call(&mut this.charged_call);
        let out = &mut *this.out;
        let n = st.consume(this.want - this.filled, |run| out.extend_from_slice(run));
        this.stream.charge.borrow_mut().copied(n);
        this.filled += n;
        if this.filled == this.want || (st.ended && st.available() == 0) {
            Poll::Ready(this.filled)
        } else {
            Poll::Pending
        }
    }
}

/// Future returned by [`FmStream::skip`].
pub struct Skip<'a> {
    stream: &'a FmStream,
    want: usize,
    dropped: usize,
    charged_call: bool,
}

impl Future for Skip<'_> {
    type Output = usize;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<usize> {
        let this = self.get_mut();
        this.stream.charge_call(&mut this.charged_call);
        let mut st = this.stream.state.borrow_mut();
        this.dropped += st.consume(this.want - this.dropped, |_| {});
        if this.dropped == this.want || (st.ended && st.available() == 0) {
            Poll::Ready(this.dropped)
        } else {
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Waker;

    fn make_stream(src: usize, len: u32) -> FmStream {
        let s = FmStream::new(1024, 100); // 1 ns/B memcpy, 100 ns/call
        s.arm(src, len);
        s
    }

    fn push(s: &FmStream, bytes: &[u8]) {
        let mut st = s.state.borrow_mut();
        st.received += bytes.len();
        st.segments.push_back(bytes.to_vec().into());
    }

    fn end(s: &FmStream) {
        s.state.borrow_mut().ended = true;
    }

    fn poll<F: Future>(fut: &mut Pin<Box<F>>) -> Poll<F::Output> {
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        fut.as_mut().poll(&mut cx)
    }

    #[test]
    fn receive_suspends_until_data_arrives() {
        let s = make_stream(3, 8);
        let mut buf = [0u8; 4];
        {
            let mut fut = Box::pin(s.receive(&mut buf));
            assert_eq!(poll(&mut fut), Poll::Pending);
            push(&s, &[1, 2]);
            assert_eq!(poll(&mut fut), Poll::Pending, "only 2 of 4");
            push(&s, &[3, 4, 5]);
            assert_eq!(poll(&mut fut), Poll::Ready(4));
        }
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(s.available(), 1, "byte 5 still queued");
    }

    #[test]
    fn receive_crosses_packet_boundaries_transparently() {
        let s = make_stream(0, 10);
        for chunk in [&[0u8, 1][..], &[2, 3, 4][..], &[5][..], &[6, 7, 8, 9][..]] {
            push(&s, chunk);
        }
        end(&s);
        let mut buf = [0u8; 10];
        let mut fut = Box::pin(s.receive(&mut buf));
        assert_eq!(poll(&mut fut), Poll::Ready(10));
        drop(fut);
        assert_eq!(buf, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn short_read_at_message_end() {
        let s = make_stream(0, 3);
        push(&s, &[1, 2, 3]);
        end(&s);
        let mut buf = [0u8; 8];
        let mut fut = Box::pin(s.receive(&mut buf));
        assert_eq!(poll(&mut fut), Poll::Ready(3));
    }

    #[test]
    fn zero_length_receive_is_immediate() {
        let s = make_stream(0, 5);
        let mut buf = [0u8; 0];
        let mut fut = Box::pin(s.receive(&mut buf));
        assert_eq!(poll(&mut fut), Poll::Ready(0));
    }

    #[test]
    fn skip_discards_without_copy_charge() {
        let s = make_stream(0, 6);
        push(&s, &[1, 2, 3, 4]);
        let mut fut = Box::pin(s.skip(5));
        assert_eq!(poll(&mut fut), Poll::Pending);
        push(&s, &[5, 6]);
        assert_eq!(poll(&mut fut), Poll::Ready(5));
        drop(fut);
        assert_eq!(s.available(), 1);
        let c = s.charge.borrow();
        assert_eq!(c.bytes_copied, 0, "skip copies nothing");
        assert_eq!(c.pending, Nanos(100), "only the fixed call cost");
    }

    #[test]
    fn charges_accumulate_per_copy() {
        let s = make_stream(0, 4);
        push(&s, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        let mut fut = Box::pin(s.receive(&mut buf));
        assert_eq!(poll(&mut fut), Poll::Ready(4));
        drop(fut);
        let c = s.charge.borrow();
        assert_eq!(c.bytes_copied, 4);
        // 100 ns call + 4 B at 1 ns/B.
        assert_eq!(c.pending, Nanos(104));
    }

    #[test]
    fn sequential_receives_see_the_stream_in_order() {
        let s = make_stream(0, 6);
        push(&s, &[10, 11, 12, 13, 14, 15]);
        end(&s);
        let mut a = [0u8; 2];
        let mut b = [0u8; 4];
        assert_eq!(poll(&mut Box::pin(s.receive(&mut a))), Poll::Ready(2));
        assert_eq!(poll(&mut Box::pin(s.receive(&mut b))), Poll::Ready(4));
        assert_eq!(a, [10, 11]);
        assert_eq!(b, [12, 13, 14, 15]);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn receive_vec_truncates_on_early_end() {
        let s = make_stream(0, 2);
        push(&s, &[1, 2]);
        end(&s);
        let mut fut = Box::pin(s.receive_vec(10));
        match poll(&mut fut) {
            Poll::Ready(v) => assert_eq!(v, vec![1, 2]),
            Poll::Pending => panic!("ended stream must resolve"),
        }
    }

    #[test]
    fn receive_into_appends_what_receive_would_copy_at_the_same_charge() {
        // Same arrival pattern through both calls: same bytes, same
        // suspensions, same charges; `receive_into` appends after what
        // the buffer already held and never zero-fills.
        let a = make_stream(0, 9);
        let b = make_stream(0, 9);
        let mut fixed = [0u8; 7];
        let mut grown = vec![0xEE];
        {
            let mut fa = Box::pin(a.receive(&mut fixed));
            let mut fb = Box::pin(b.receive_into(&mut grown, 7));
            assert_eq!(poll(&mut fa), Poll::Pending);
            assert_eq!(poll(&mut fb), Poll::Pending);
            for chunk in [&[1u8, 2, 3][..], &[4, 5][..], &[6, 7, 8, 9][..]] {
                push(&a, chunk);
                push(&b, chunk);
                assert_eq!(poll(&mut fa), poll(&mut fb));
            }
        }
        assert_eq!(fixed, [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(grown, [0xEE, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(a.available(), 2);
        assert_eq!(b.available(), 2);
        assert_eq!(a.take_charges(), b.take_charges());
    }

    #[test]
    fn receive_into_reserves_no_more_than_the_message_has_left() {
        // The length asked for may come off the wire; the declared
        // message length bounds what is reserved for it.
        let s = make_stream(0, 4);
        push(&s, &[1, 2, 3, 4]);
        end(&s);
        let mut out = Vec::new();
        let mut fut = Box::pin(s.receive_into(&mut out, usize::MAX));
        assert_eq!(poll(&mut fut), Poll::Ready(4));
        drop(fut);
        assert_eq!(out, [1, 2, 3, 4]);
        assert!(out.capacity() < 64);
    }

    #[test]
    fn rearmed_cells_forget_the_previous_message() {
        let s = make_stream(1, 8);
        push(&s, &[1, 2, 3, 4, 5, 6, 7, 8]);
        end(&s);
        let mut buf = [0u8; 3];
        assert_eq!(poll(&mut Box::pin(s.receive(&mut buf))), Poll::Ready(3));
        s.arm(2, 5);
        assert_eq!(
            (s.src(), s.msg_len(), s.available(), s.remaining()),
            (2, 5, 0, 5)
        );
        assert!(!s.ended());
        assert_eq!(s.take_charges(), (Nanos::ZERO, 0));
        assert_eq!(poll(&mut Box::pin(s.receive(&mut buf))), Poll::Pending);
    }

    #[test]
    fn accessors() {
        let s = make_stream(7, 100);
        assert_eq!(s.src(), 7);
        assert_eq!(s.msg_len(), 100);
        assert_eq!(s.remaining(), 100);
        assert_eq!(s.available(), 0);
        push(&s, &[0; 30]);
        assert_eq!(s.available(), 30);
    }
}
