//! The FM 2.x send side: `FM_begin_message` / `FM_send_piece` /
//! `FM_end_message`, the two gather conveniences built on them, and the
//! deferred queue of handler-initiated sends.
//!
//! [`Fm2Engine::try_send_rest`] is the one resume loop in the tree: the
//! deferred-queue flush below, MPI-FM's pending heads and the one-sided
//! chunk pump all park a [`SendStream`] and call it again with the same
//! piece list — none of them keeps a byte or piece cursor of its own.

use fm_model::Nanos;

use crate::buf::PacketBuf;
use crate::device::NetDevice;
use crate::engine::{EngineCore, Stall};
use crate::error::WouldBlock;
use crate::obs::{ObsEvent, SpanKind};
use crate::packet::{HandlerId, PacketFlags};

use super::engine::Fm2Engine;
use super::sendstream::SendStream;

/// A handler-initiated send, possibly mid-flight: deferred sends stream
/// through a [`SendStream`] so that messages of *any* size (including
/// larger than the credit window) make incremental progress — FIFO, so
/// deferred sends never overtake each other.
pub(super) struct DeferredSend {
    pub(super) dst: usize,
    handler: HandlerId,
    pieces: Vec<Vec<u8>>,
    /// The open stream once sending has started; it alone knows how far
    /// the message got.
    started: Option<SendStream>,
}

impl<D: NetDevice> Fm2Engine<D> {
    /// `FM_begin_message`: open a `len`-byte message to `dst`, to be
    /// handled there by `handler`.
    pub fn begin_message(&self, dst: usize, len: usize, handler: HandlerId) -> SendStream {
        let mut inner = self.inner.borrow_mut();
        let core = &mut inner.core;
        core.device.charge(Nanos(core.profile.host.send_call_ns));
        let local = dst == core.device.node_id();
        let msg_seq = core.begin_message(dst, handler, len);
        SendStream {
            dst,
            handler,
            msg_seq,
            msg_len: len as u32,
            accepted: 0,
            mtu: core.mtu(dst),
            // Local sends stage the whole message in one exact-size
            // frame; network sends fill pool frames lazily, one link MTU
            // each, in `try_send_piece`.
            pending: if local {
                PacketBuf::with_capacity(len)
            } else {
                PacketBuf::empty()
            },
            first_flushed: false,
            ended: false,
            local,
        }
    }

    /// `FM_send_piece`: append `data` to the open message. Pieces can be
    /// any size; packetization is transparent.
    ///
    /// Non-blocking: returns the number of bytes accepted, which may be
    /// less than `data.len()` (or `Err(WouldBlock)` if zero) when
    /// flow-control credits or NIC space run out mid-message. Already-
    /// accepted bytes stay accepted; retry with the rest after the next
    /// `extract`.
    ///
    /// # Panics
    /// Panics if the message was already ended or `data` exceeds the
    /// declared message length.
    pub fn try_send_piece(&self, ss: &mut SendStream, data: &[u8]) -> Result<usize, WouldBlock> {
        assert!(!ss.ended, "FM_send_piece after FM_end_message");
        assert!(
            ss.accepted + data.len() <= ss.msg_len as usize,
            "piece overflows the declared message length ({} + {} > {})",
            ss.accepted,
            data.len(),
            ss.msg_len
        );
        // One borrow for the whole piece; frames come straight from the
        // core's pool (a clone of the handle is two atomic RMWs a call).
        let mut inner = self.inner.borrow_mut();
        let core = &mut inner.core;
        core.device.charge(Nanos(core.profile.host.piece_call_ns));
        if ss.local {
            ss.pending.extend_from_slice(data);
            ss.accepted += data.len();
            core.obs_emit(|t, me| {
                ObsEvent::new(t, me, SpanKind::SendPiece)
                    .peer(me)
                    .handler(ss.handler.0)
                    .msg_seq(ss.msg_seq)
                    .bytes(data.len() as u32)
            });
            return Ok(data.len());
        }
        let mtu = ss.mtu;
        let mut offset = 0;
        while offset < data.len() {
            if ss.pending.len() == mtu && !Self::flush_packet(core, ss, false) {
                break;
            }
            if ss.pending.is_detached() {
                // First piece of a fresh packet: grab a recycled frame to
                // gather into (flushing hands the previous frame to the
                // packet wholesale).
                ss.pending = core.pool.take();
            }
            let space = mtu - ss.pending.len();
            let take = space.min(data.len() - offset);
            ss.pending.extend_from_slice(&data[offset..offset + take]);
            // Gather: the piece is PIO'd straight into the NIC packet
            // staging — per-byte I/O bus cost, but no host memcpy.
            core.device.charge(fm_model::time::ns_for_bytes(
                core.profile.iobus.pio_ns_per_kb,
                take as u64,
            ));
            offset += take;
            ss.accepted += take;
        }
        if offset == 0 && !data.is_empty() {
            return Err(WouldBlock);
        }
        core.obs_emit(|t, me| {
            ObsEvent::new(t, me, SpanKind::SendPiece)
                .peer(ss.dst as u16)
                .handler(ss.handler.0)
                .msg_seq(ss.msg_seq)
                .bytes(offset as u32)
        });
        Ok(offset)
    }

    /// `FM_end_message`: close the message, flushing its final packet.
    ///
    /// Non-blocking: [`WouldBlock`] means the final packet could not be
    /// flushed yet — retry after progress.
    ///
    /// # Panics
    /// Panics if fewer bytes were supplied than declared at
    /// `begin_message` (FM 2.x declares the size up front).
    pub fn try_end_message(&self, ss: &mut SendStream) -> Result<(), WouldBlock> {
        if ss.ended {
            return Ok(());
        }
        assert_eq!(
            ss.accepted, ss.msg_len as usize,
            "FM_end_message before supplying the declared {} bytes",
            ss.msg_len
        );
        let mut inner = self.inner.borrow_mut();
        if !ss.local && !Self::flush_packet(&mut inner.core, ss, true) {
            return Err(WouldBlock);
        }
        if ss.local {
            let payload = std::mem::take(&mut ss.pending);
            inner.local.push_back((ss.handler, payload));
        }
        inner
            .core
            .end_message(ss.dst, ss.handler, ss.msg_seq, ss.msg_len);
        ss.ended = true;
        Ok(())
    }

    /// Flush the staged packet (possibly empty, for END) to the device.
    /// Returns false when out of credits or NIC space.
    fn flush_packet(core: &mut EngineCore<D>, ss: &mut SendStream, last: bool) -> bool {
        match core.reserve(ss.dst, 1, ss.msg_seq, ss.msg_len) {
            Ok(()) => {}
            Err(Stall::Device) => {
                // The NIC queue is full but we still hold data for it: ask to
                // be polled again after roughly one packet's wire time, when a
                // slot has drained. Without this, an event-driven host (the
                // simulator) refills the queue only when a packet happens to
                // arrive — and the uplink runs dry between credit returns.
                let now = core.device.now();
                let drain = core
                    .profile
                    .link
                    .serialize(core.profile.fm.mtu_payload as u64);
                core.device.request_wake(now + drain);
                return false;
            }
            Err(Stall::Window) => return false,
        }
        let mut flags = PacketFlags::EMPTY;
        if !ss.first_flushed {
            flags = flags | PacketFlags::FIRST;
        }
        if last {
            flags = flags | PacketFlags::LAST;
        }
        let payload = std::mem::take(&mut ss.pending);
        core.pool.lend(&payload);
        core.emit_data(ss.dst, ss.handler, ss.msg_seq, ss.msg_len, flags, payload);
        ss.first_flushed = true;
        true
    }

    /// Convenience gather-send: the whole message from `pieces`, all or
    /// nothing. Fails with [`WouldBlock`] (sending nothing) unless credits
    /// and NIC space for the entire message are available up front; each
    /// refused call counts one `credit_stalls` or `device_stalls`, exactly
    /// as a refused `FM_send_piece` does — a caller that polls until
    /// admitted counts every poll; the stall span is traced once per
    /// message.
    pub fn try_send_message(
        &self,
        dst: usize,
        handler: HandlerId,
        pieces: &[&[u8]],
    ) -> Result<(), WouldBlock> {
        let total: usize = pieces.iter().map(|p| p.len()).sum();
        {
            let mut inner = self.inner.borrow_mut();
            let core = &mut inner.core;
            if dst != core.device.node_id() {
                let packets = total.div_ceil(core.mtu(dst)).max(1);
                let msg_seq = core.send_msg_seq[dst];
                core.room_for(dst, packets as u32, msg_seq, total as u32)
                    .map_err(|_| WouldBlock)?;
            }
        }
        let mut ss = self.begin_message(dst, total, handler);
        for p in pieces {
            let sent = self
                .try_send_piece(&mut ss, p)
                .expect("preflighted capacity");
            debug_assert_eq!(sent, p.len(), "preflighted capacity");
        }
        self.try_end_message(&mut ss).expect("preflighted capacity");
        Ok(())
    }

    /// Queue a message from inside a handler (handlers cannot block on
    /// credits). Flushed by `extract`/`progress` as capacity allows.
    pub fn send_from_handler(&self, dst: usize, handler: HandlerId, data: Vec<u8>) {
        self.send_pieces_from_handler(dst, handler, vec![data]);
    }

    /// Gather variant of [`Fm2Engine::send_from_handler`]: the pieces are
    /// sent as one message without an assembly copy (used e.g. by MPI's
    /// rendezvous data path, where the payload must not be copied).
    pub fn send_pieces_from_handler(&self, dst: usize, handler: HandlerId, pieces: Vec<Vec<u8>>) {
        self.inner.borrow_mut().deferred.push_back(DeferredSend {
            dst,
            handler,
            pieces,
            started: None,
        });
    }

    /// Resumable gather-send: push the part of `pieces` that `ss` has not
    /// yet accepted, as far as credits and NIC space admit, and end the
    /// message once all of it went. `Ok` means the message is closed;
    /// [`WouldBlock`] means call again, with the *same* piece list, after
    /// the next `extract`.
    ///
    /// The caller keeps no cursor: `pieces` is the whole message every
    /// time (`ss.msg_len()` bytes in total) and the first
    /// `ss.bytes_accepted()` bytes of it are skipped. The `FM_send_piece`
    /// calls made are those of the straightforward loop
    /// `while off < p.len() { off += try_send_piece(ss, &p[off..])? }`
    /// over each piece: a piece cut short by a full window is offered
    /// once more (and refused) before the stall is reported, and a
    /// finished or empty piece is never offered at all. Allocates nothing.
    pub fn try_send_rest<P: AsRef<[u8]>>(
        &self,
        ss: &mut SendStream,
        pieces: &[P],
    ) -> Result<(), WouldBlock> {
        let mut skip = ss.accepted;
        for p in pieces {
            let p = p.as_ref();
            let mut off = skip.min(p.len());
            skip -= off;
            while off < p.len() {
                off += self.try_send_piece(ss, &p[off..])?;
            }
        }
        self.try_end_message(ss)
    }

    /// Flush deferred handler-initiated sends and owed explicit credits.
    /// Returns true when nothing remains deferred.
    ///
    /// Deferred sends *stream*: each call pushes as many packets of the
    /// front message as credits allow, so even a message larger than the
    /// whole credit window completes across calls. Strictly FIFO.
    pub fn progress(&self) -> bool {
        self.drain_peer_events();
        loop {
            let front = self.inner.borrow_mut().deferred.pop_front();
            let Some(mut d) = front else { break };
            let ss = d.started.get_or_insert_with(|| {
                let total = d.pieces.iter().map(Vec::len).sum();
                self.begin_message(d.dst, total, d.handler)
            });
            if self.try_send_rest(ss, &d.pieces).is_ok() {
                continue; // fully sent; next deferred message
            }
            // Park the partial stream at the front (FIFO order preserved).
            self.inner.borrow_mut().deferred.push_front(d);
            break;
        }
        let mut inner = self.inner.borrow_mut();
        inner.core.return_explicit_credits();
        inner.core.reliability_poll();
        inner.deferred.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use fm_model::MachineProfile;

    use super::*;
    use crate::device::{LoopbackDevice, LoopbackPair};
    use crate::fm2::FmStream;

    const H: HandlerId = HandlerId(1);

    fn pair() -> (Fm2Engine<LoopbackDevice>, Fm2Engine<LoopbackDevice>) {
        // NIC queue above the credit window: stalls are credit stalls.
        let (a, b) = LoopbackPair::new(256);
        let p = MachineProfile::ppro200_fm2();
        (Fm2Engine::new(a, p), Fm2Engine::new(b, p))
    }

    fn exchange(s: &Fm2Engine<LoopbackDevice>, r: &Fm2Engine<LoopbackDevice>) {
        for _ in 0..2 {
            s.with_device(|a| r.with_device(|b| LoopbackPair::deliver(a, b)));
            r.extract_all();
            s.extract_all();
        }
    }

    #[test]
    fn try_send_rest_resumes_a_message_wider_than_the_window() {
        let (s, r) = pair();
        let got: Rc<RefCell<Vec<u8>>> = Rc::default();
        let g = Rc::clone(&got);
        r.set_handler(H, move |stream: FmStream, _| {
            let g = Rc::clone(&g);
            async move { *g.borrow_mut() = stream.receive_vec(stream.msg_len()).await }
        });
        let p = s.profile();
        let (window, mtu) = (p.fm.credits_per_peer as usize, p.fm.mtu_payload);
        let body: Vec<u8> = (0..(window + 4) * mtu).map(|i| (i % 251) as u8).collect();
        let pieces = [&[7u8; 24][..], &[], &body, &[], &[9u8; 3]];
        let total = pieces.iter().map(|p| p.len()).sum();

        let mut ss = s.begin_message(1, total, H);
        assert_eq!(s.try_send_rest(&mut ss, &pieces), Err(WouldBlock));
        // One window of packets left, the next one is staged in the stream.
        assert_eq!(s.stats().packets_sent as usize, window);
        assert_eq!(ss.bytes_accepted(), (window + 1) * mtu);
        while s.try_send_rest(&mut ss, &pieces).is_err() {
            exchange(&s, &r);
        }
        assert!(ss.is_ended());
        exchange(&s, &r);
        assert_eq!(*got.borrow(), pieces.concat());
        assert_eq!(s.stats().packets_sent as usize, total.div_ceil(mtu));
        assert_eq!(s.stats().messages_sent, 1);
    }

    #[test]
    fn a_stalled_call_offers_one_piece_and_a_supplied_list_none() {
        let (s, _r) = pair();
        let p = s.profile();
        let (window, mtu) = (p.fm.credits_per_peer as usize, p.fm.mtu_payload);
        let piece_call = p.host.piece_call_ns;
        let cost = |f: &dyn Fn()| {
            let before = s.now();
            f();
            (s.now() - before).0
        };

        // Cut short inside the second piece: the resumed call skips the
        // first piece and the accepted part of the second, and makes the
        // one offer FM refuses.
        let pieces = [vec![1u8; 100], vec![2u8; (window + 2) * mtu]];
        let ss = RefCell::new(s.begin_message(1, 100 + (window + 2) * mtu, H));
        assert!(s.try_send_rest(&mut ss.borrow_mut(), &pieces).is_err());
        let stalled = cost(&|| assert!(s.try_send_rest(&mut ss.borrow_mut(), &pieces).is_err()));
        assert_eq!(stalled, piece_call);

        // Every byte supplied, only the closing packet refused: no piece
        // is offered, an empty remainder least of all.
        let small = RefCell::new(s.begin_message(1, 8, H));
        assert!(s
            .try_send_rest(&mut small.borrow_mut(), &[[3u8; 8]])
            .is_err());
        assert_eq!(small.borrow().bytes_remaining(), 0);
        let supplied = cost(&|| {
            assert!(s
                .try_send_rest(&mut small.borrow_mut(), &[[3u8; 8]])
                .is_err());
        });
        assert_eq!(supplied, 0);
    }
}
