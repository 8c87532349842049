//! MPI over FM 2.x — the paper's solution (§4, Figure 6).
//!
//! The three FM 2.x features, used exactly as the paper prescribes:
//!
//! * **Gather/scatter**: `isend` passes the 24-byte MPI header and the
//!   payload as two pieces of one message — no assembly copy.
//! * **Layer interleaving**: the receive handler reads the header from
//!   the message's first packet, matches the posted-receive queue *while
//!   the rest of the message is still arriving*, and lands the payload
//!   directly in the receive buffer — one copy, the receive-region → user
//!   transfer. This is the paper's §4.1 handler (header → match → land),
//!   written as a two-state per-packet handler instead of a suspended
//!   task: an FM sink ([`fm_core::PacketSink`]) called once per packet,
//!   with a small landing table of the eager messages part-way in, keyed
//!   by (source, FM message sequence). A message has no state before its
//!   first packet, which carries the header; an eager one longer than
//!   that packet is then *landing*, and each later packet's bytes are
//!   appended to its receive buffer (or its bounce buffer) until the last
//!   completes it. No future, task, stream cell or reference count is made
//!   per message, and the sink charges exactly what the handler's two
//!   `FM_receive` calls did: the call cost twice, the header's copy, and
//!   each packet's payload copy rounded on its own. A sender that goes
//!   down or restarts loses its landings, and the receives they matched
//!   never complete, as a dropped handler task's did.
//! * **Receiver flow control**: `progress` extracts with a configurable
//!   byte budget, so MPI can pace the network to its posted receives
//!   instead of being flooded into unexpected-queue copies.
//!
//! *Eagerly* unexpected messages still pay a bounce copy plus a delivery
//! copy — the price of not posting receives, in any MPI. A message longer
//! than one one-sided chunk ([`CHUNK_BYTES`], 16 KiB) takes the
//! **rendezvous protocol** instead (RTS/CTS, an extension beyond the
//! eager-only 1998 MPI-FM): the payload is parked at the sender until a
//! receive exists, so even an unexpected large message travels once and
//! lands directly in the user buffer — read out of the sender's memory
//! on a same-host link, streamed everywhere else. The size decides; there
//! is no knob.
//!
//! MPI keeps no send queue of its own. FM already provides sender flow
//! control, and a send it cannot admit yet waits in the engine's queue
//! (`Fm2Engine::send_or_queue`: one FIFO per destination, which is
//! exactly MPI's pairwise non-overtaking rule); a send request's flag is
//! the one that queue sets when the message is wholly handed to FM. The
//! CTS a receive handler sends waits in the same queue.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use fm_core::device::NetDevice;
use fm_core::onesided::CHUNK_BYTES;
use fm_core::packet::HandlerId;
use fm_core::{
    Fm2Engine, Fm2Handle, Message, ObsEvent, Onesided, OnesidedConfig, OsPort, PacketSink,
    RegionHandle, SinkMeta, SpanKind,
};
use fm_model::Nanos;

use crate::api::Mpi;
use crate::comm::CollPhase;
use crate::matching::{MatchQueues, Posted, UnexpectedBody};
use crate::types::{RecvReq, SendReq};
use crate::wire::{
    CollKind, MpiHeader, COMM_WORLD, KIND_CTS, KIND_EAGER, KIND_RTS, MPI_HEADER_BYTES,
};

/// FM handler id used by MPI-FM point-to-point traffic.
pub const MPI_HANDLER: HandlerId = HandlerId(100);

/// Per-message MPI software cost on the send side, in nanoseconds.
///
/// MPI-FM 2.0 is the *tuned* second-generation layer: send-side work is a
/// header build plus a queue append (paper §4.2 reports 70 % interface
/// efficiency even at 16 bytes, which bounds this cost tightly).
const MPI2_SEND_SW_NS: u64 = 1_000;

/// Per-message MPI software cost on the receive side (matching + request
/// completion), in nanoseconds.
const MPI2_RECV_SW_NS: u64 = 1_500;

/// Rendezvous bookkeeping shared between the engine handler (which sees
/// CTS/RTS/DATA arrive) and the `Mpi2` front half (which parks sends and
/// registers receives).
#[derive(Default)]
struct RndvState {
    /// Parked sends awaiting CTS: seq -> (dst, payload, request). At
    /// CTS the payload goes to the one-sided layer, which sets the
    /// request's flag once it holds none of it, so a sender that waits
    /// for its sends and then exits leaves no bytes behind to stream or
    /// be read.
    parked: HashMap<u32, (usize, Vec<u8>, SendReq)>,
    /// Receives whose buffer is granted to the one-sided layer and is
    /// being filled by streaming DATA segments: (src_rank, seq).
    granted: HashMap<(usize, u32), GrantedRecv>,
}

/// A rendezvous receive in flight: the destination buffer is registered
/// with `fm_core::onesided` and granted to the sender, whose DATA
/// segments stream straight into it through the sink handler — no
/// staging copy, and the payload never touches the MPI handler again.
struct GrantedRecv {
    h: RegionHandle,
    xfer: u32,
    tag: u32,
    posted: Posted,
}

/// MPI over FM 2.x.
pub struct Mpi2<D: NetDevice> {
    fm: Fm2Engine<D>,
    /// One-sided port carrying rendezvous payloads: receive buffers
    /// are registered and granted to the sender, DATA streams into them
    /// with no staging copy. Its sends wait in the engine's queue.
    os: OsPort,
    queues: Rc<RefCell<MatchQueues>>,
    rndv: Rc<RefCell<RndvState>>,
    /// Byte budget passed to `FM_extract` on each progress call (receiver
    /// flow control; `usize::MAX` = unpaced).
    extract_budget: usize,
    /// Rank → host placement for hierarchy-aware collectives (must match
    /// across ranks); `None` keeps the flat schedules.
    coll_hosts: Option<Vec<usize>>,
    send_seq: u32,
    coll_seq: u32,
}

impl<D: NetDevice + 'static> Mpi2<D> {
    /// Wrap an FM 2.x engine. Installs the MPI message handler.
    pub fn new(fm: Fm2Engine<D>) -> Self {
        let queues: Rc<RefCell<MatchQueues>> = Rc::default();
        let rndv: Rc<RefCell<RndvState>> = Rc::default();
        // Rendezvous payloads ride the one-sided layer (no arena: MPI
        // registers each receive buffer individually as it is granted).
        let os = Onesided::new(
            &fm,
            OnesidedConfig {
                arena_bytes: 0,
                ..OnesidedConfig::default()
            },
        )
        .port();
        let sink = WireSink {
            fm: fm.handle(),
            port: os.clone(),
            queues: Rc::clone(&queues),
            rndv: Rc::clone(&rndv),
            landings: Vec::new(),
            receive_call_ns: fm.profile().host.piece_call_ns,
        };
        fm.set_packet_sink(MPI_HANDLER, sink);
        Mpi2 {
            fm,
            os,
            queues,
            rndv,
            extract_budget: usize::MAX,
            coll_hosts: None,
            send_seq: 0,
            coll_seq: 0,
        }
    }

    /// Declare the rank → host placement so small-payload collectives
    /// use the two-level (leader-per-host) schedules in [`crate::hier`].
    /// `hosts[r]` is the host id of rank `r`; the map must cover every
    /// rank, be identical on every rank, and span at least two hosts to
    /// take effect. `None` restores the flat schedules.
    pub fn set_coll_hosts(&mut self, hosts: Option<Vec<usize>>) {
        if let Some(h) = &hosts {
            assert_eq!(h.len(), self.size(), "host map must cover every rank");
        }
        self.coll_hosts = hosts;
    }

    /// The underlying FM engine (stats, errors, clock).
    pub fn fm(&self) -> &Fm2Engine<D> {
        &self.fm
    }

    /// Set the `FM_extract` byte budget used by `progress` (receiver flow
    /// control). `usize::MAX` disables pacing.
    pub fn set_extract_budget(&mut self, bytes: usize) {
        self.extract_budget = bytes.max(1);
    }

    /// Messages that arrived before their receive was posted.
    pub fn unexpected_total(&self) -> u64 {
        self.queues.borrow().unexpected_total
    }

    /// High-water mark of the unexpected (bounce) queue.
    pub fn unexpected_high_water(&self) -> usize {
        self.queues.borrow().unexpected_high_water
    }

    /// Complete rendezvous receives whose granted one-sided transfer has
    /// fully landed: reclaim the registered buffer and hand it to the
    /// matched receive — it already holds the payload, so completion is
    /// copy-free.
    fn poll_granted(&mut self) {
        if self.rndv.borrow().granted.is_empty() {
            return;
        }
        let port = &self.os;
        let done: Vec<(usize, u32)> = self
            .rndv
            .borrow()
            .granted
            .iter()
            .filter(|(&(src, _), g)| port.take_grant_complete(src, g.xfer))
            .map(|(&k, _)| k)
            .collect();
        for key in done {
            let g = self.rndv.borrow_mut().granted.remove(&key).expect("polled");
            let buf = port.deregister_owned(g.h).expect("granted buffer");
            MatchQueues::complete(&g.posted, key.0, g.tag, buf);
        }
    }
}

/// An eager message whose packets are still arriving: the receive its
/// header matched, or none (the bytes go to a bounce buffer), and the
/// payload so far.
struct Landing {
    src: usize,
    msg_seq: u32,
    tag: u32,
    posted: Option<Posted>,
    buf: Vec<u8>,
}

/// MPI's wire handler: the two-state per-packet handler of the module
/// docs. A message's first packet carries the header, which is matched
/// there — an eager message against the posted receives (or a bounce
/// buffer), an RTS granted or stored, a CTS releasing its parked
/// payload; an eager message longer than that packet is then *landing*
/// until its last packet completes it.
struct WireSink<D: NetDevice> {
    fm: Fm2Handle<D>,
    port: OsPort,
    queues: Rc<RefCell<MatchQueues>>,
    rndv: Rc<RefCell<RndvState>>,
    /// Eager messages part-way in, found by (source, `msg_seq`): a source
    /// has at most a few open at once.
    landings: Vec<Landing>,
    /// The fixed cost of one `FM_receive` call.
    receive_call_ns: u64,
}

impl<D: NetDevice> PacketSink for WireSink<D> {
    fn packet(&mut self, src: usize, meta: SinkMeta, payload: &[u8]) {
        if meta.first {
            let Some(mut landing) = self.header(src, meta, payload) else {
                return;
            };
            land(&self.fm, &mut landing.buf, &payload[MPI_HEADER_BYTES..]);
            if meta.last {
                self.finish(landing);
            } else {
                self.landings.push(landing);
            }
            return;
        }
        let open = |l: &Landing| l.src == src && l.msg_seq == meta.msg_seq;
        // A message whose sender restarted was dropped with its landing.
        let Some(at) = self.landings.iter().position(open) else {
            return;
        };
        land(&self.fm, &mut self.landings[at].buf, payload);
        if meta.last {
            let landing = self.landings.swap_remove(at);
            self.finish(landing);
        }
    }

    fn peer_reset(&mut self, peer: usize) {
        // The receive a half-landed message matched never completes, as
        // when its handler task was dropped.
        self.landings.retain(|l| l.src != peer);
    }
}

impl<D: NetDevice> WireSink<D> {
    /// A message's first packet: read the header and act on it. Returns
    /// the landing of an eager message, whose payload follows the header.
    fn header(&mut self, src: usize, meta: SinkMeta, payload: &[u8]) -> Option<Landing> {
        let hdr = MpiHeader::decode(payload);
        debug_assert_eq!(hdr.src_rank as usize, src, "ranks are FM node ids");
        // The header's `FM_receive`, the payload's if there is one, and
        // MPI-level receive processing (matching, queue upkeep).
        let calls = if hdr.kind == KIND_EAGER { 2 } else { 1 };
        let fm = &self.fm;
        fm.charge(Nanos(calls * self.receive_call_ns + MPI2_RECV_SW_NS));
        fm.charge_memcpy(MPI_HEADER_BYTES);
        let arrival = || self.queues.borrow_mut().match_arrival(src, hdr.tag);
        match hdr.kind {
            KIND_EAGER => {
                // Posted: the payload lands directly in the receive buffer
                // — the one unavoidable copy. Unexpected at header time:
                // bounce-buffer it. The wire names the length; the FM
                // message bounds what is reserved.
                let left = (meta.msg_len as usize).saturating_sub(MPI_HEADER_BYTES);
                return Some(Landing {
                    src,
                    msg_seq: meta.msg_seq,
                    tag: hdr.tag,
                    posted: arrival(),
                    buf: Vec::with_capacity(left.min(hdr.len as usize)),
                });
            }
            KIND_RTS => match arrival() {
                // Rendezvous announcement: header only; match now, pull
                // the payload only once a receive exists.
                Some(posted) => {
                    assert!(
                        hdr.len as usize <= posted.max_len,
                        "MPI truncation: {}-byte rendezvous for a {}-byte receive",
                        hdr.len,
                        posted.max_len
                    );
                    let (port, rndv) = (&self.port, &self.rndv);
                    let (key, len) = ((src, hdr.seq), hdr.len as usize);
                    grant(fm, port, rndv, key, len, hdr.tag, posted);
                }
                None => self.queues.borrow_mut().store_unexpected_body(
                    src,
                    hdr.tag,
                    UnexpectedBody::Rts {
                        seq: hdr.seq,
                        len: hdr.len as usize,
                    },
                ),
            },
            KIND_CTS => {
                // Our parked payload may now travel down the granted
                // one-sided transfer (xfer id rides in the CTS `len`
                // field); the DATA segments stream straight into the
                // buffer the receiver registered.
                let parked = self.rndv.borrow_mut().parked.remove(&hdr.seq);
                if let Some((dst, data, req)) = parked {
                    self.port.send_granted(dst, hdr.len, data, Some(req.sent));
                }
            }
            k => panic!("unknown MPI wire kind {k}"),
        }
        None
    }

    /// An eager message has wholly arrived: complete its receive, or
    /// queue it as unexpected.
    fn finish(&mut self, l: Landing) {
        let Landing {
            src,
            tag,
            posted,
            buf,
            ..
        } = l;
        if let Some(posted) = posted {
            MatchQueues::complete(&posted, src, tag, buf);
            return;
        }
        // A matching receive may have been posted while the payload
        // streamed in — re-check before queueing, or the two would
        // deadlock past each other.
        let late = self.queues.borrow_mut().match_arrival(src, tag);
        match late {
            Some(posted) => {
                let user = buf.clone();
                self.fm.charge_memcpy(user.len());
                MatchQueues::complete(&posted, src, tag, user);
            }
            None => self.queues.borrow_mut().store_unexpected(src, tag, buf),
        }
    }
}

/// Append one packet's payload bytes to a landing message: one copy,
/// charged on its own.
fn land<D: NetDevice>(fm: &Fm2Handle<D>, buf: &mut Vec<u8>, bytes: &[u8]) {
    if !bytes.is_empty() {
        buf.extend_from_slice(bytes);
        fm.charge_memcpy(bytes.len());
    }
}

/// Answer the RTS `(src, seq)` now that `posted` matches it: register a
/// buffer sized for the payload, grant it to the sender — DATA will
/// stream into it with no staging copy — note the grant for
/// [`Mpi2::poll_granted`], and release the sender with a CTS.
fn grant<D: NetDevice>(
    fm: &Fm2Handle<D>,
    port: &OsPort,
    rndv: &RefCell<RndvState>,
    (src, seq): (usize, u32),
    len: usize,
    tag: u32,
    posted: Posted,
) {
    let h = port.register_owned(vec![0u8; len]).expect("slots free");
    let xfer = port.grant_from(src, h, 0, len).expect("fresh handle");
    let granted = GrantedRecv {
        h,
        xfer,
        tag,
        posted,
    };
    rndv.borrow_mut().granted.insert((src, seq), granted);
    // A header-only CTS, queued as a handler send (tiny, flushed on the
    // next progress). The granted one-sided transfer id rides in the
    // otherwise-unused `len` field — the sender hands it to
    // `OsPort::send_granted`.
    let cts = MpiHeader {
        src_rank: fm.node_id() as u32,
        tag: 0,
        comm: COMM_WORLD,
        len: xfer,
        kind: KIND_CTS,
        seq,
    }
    .encode();
    fm.send_from_handler(src, MPI_HANDLER, Message::new(&cts, None));
}

impl<D: NetDevice + 'static> Mpi for Mpi2<D> {
    fn rank(&self) -> usize {
        self.fm.node_id()
    }

    fn lost_peer(&self) -> Option<usize> {
        // FM 2.x surfaces the device failure detector's terminal `Down`
        // verdicts; the first downed peer (node order) is reason enough
        // to abort a blocking operation. Rejoins clear the flag, so a
        // peer mid-restart only aborts us if the detector had already
        // declared it dead. Asked on every poll of every blocking wait:
        // collect only when there is something to collect.
        if !self.fm.has_downed_peers() {
            return None;
        }
        self.fm.downed_peers().into_iter().next()
    }

    fn size(&self) -> usize {
        self.fm.num_nodes()
    }

    fn isend(&mut self, dst: usize, tag: u32, data: Vec<u8>) -> SendReq {
        // MPI-level send processing.
        self.fm.charge(Nanos(MPI2_SEND_SW_NS));
        // A message longer than one one-sided chunk is a rendezvous: the
        // one-sided layer lands it once, in the user buffer, however late
        // the receive. Self-sends always go eager (the local queue has no
        // flow-control pressure for rendezvous to relieve).
        let rendezvous = data.len() > CHUNK_BYTES && dst != self.rank();
        let seq = self.send_seq;
        self.send_seq = seq.wrapping_add(1);
        let hdr = MpiHeader {
            src_rank: self.rank() as u32,
            tag,
            comm: COMM_WORLD,
            len: data.len() as u32,
            kind: if rendezvous { KIND_RTS } else { KIND_EAGER },
            seq,
        }
        .encode();
        // FM's send queue keeps MPI's non-overtaking order, which is
        // pairwise: a send behind a stalled one *to the same peer* waits
        // its turn, other peers' sends do not.
        let req = SendReq::new(false);
        let (msg, sent) = if rendezvous {
            // Announce with a header-only RTS and park the payload until
            // the CTS hands it to the one-sided layer.
            (self.rndv.borrow_mut().parked).insert(seq, (dst, data, req.clone()));
            (Message::new(&hdr, None), None)
        } else {
            // Gather: header and payload as two pieces — no assembly copy.
            (Message::new(&hdr, Some(data)), Some(Rc::clone(&req.sent)))
        };
        self.fm.send_or_queue(dst, MPI_HANDLER, msg, sent);
        req
    }

    fn irecv(&mut self, src: Option<usize>, tag: Option<u32>, max_len: usize) -> RecvReq {
        let (req, unexpected) = self.queues.borrow_mut().post_or_match(src, tag, max_len);
        if let Some(u) = unexpected {
            match u.body {
                UnexpectedBody::Data(bounce) => {
                    // Delivery copy for the eager unexpected path:
                    // bounce -> user.
                    let user = bounce.clone();
                    self.fm.charge_memcpy(user.len());
                    MatchQueues::fill_slot(&req.inner, u.src, u.tag, user);
                }
                UnexpectedBody::Rts { seq, len } => {
                    // The payload is still at the sender: register and
                    // grant a buffer for the incoming one-sided DATA and
                    // release the sender with a CTS. No bounce copy, ever.
                    let posted = Posted {
                        src: Some(u.src),
                        tag: Some(u.tag),
                        max_len,
                        slot: Rc::clone(&req.inner),
                    };
                    let fm = self.fm.handle();
                    grant(&fm, &self.os, &self.rndv, (u.src, seq), len, u.tag, posted);
                    // Flush the CTS now — irecv runs outside extract, so
                    // nothing else would run a pass over FM's send queue
                    // before the caller sleeps.
                    self.fm.progress();
                }
            }
        }
        req
    }

    fn progress(&mut self) {
        // A pass over FM's send queue before the extract, and one at its
        // end: a stalled send is offered to FM twice per progress (each
        // refused offer is charged, and `BENCH_sim.json` encodes two).
        self.fm.progress();
        self.fm.extract(self.extract_budget);
        self.poll_granted();
    }

    fn next_coll_seq(&mut self) -> u32 {
        self.coll_seq = self.coll_seq.wrapping_add(1);
        self.coll_seq
    }

    fn coll_hosts(&self) -> Option<&[usize]> {
        self.coll_hosts.as_deref()
    }

    fn obs_coll(&mut self, phase: CollPhase, kind: CollKind, seq: u32, round: u32, bytes: usize) {
        let span = match phase {
            CollPhase::Start => SpanKind::CollStart,
            CollPhase::Round => SpanKind::CollRound,
            CollPhase::End => SpanKind::CollEnd,
        };
        self.fm.obs_record(|t, me| {
            ObsEvent::new(t, me, span)
                .handler(kind as u32)
                .msg_seq(seq)
                .seq(round)
                .bytes(bytes as u32)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    use fm_core::device::{DeviceFull, LoopbackDevice, LoopbackPair};
    use fm_core::onesided::ONESIDED_HANDLER;
    use fm_core::packet::{FmPacket, PacketFlags};
    use fm_core::{PeerEvent, PeerEventKind};
    use fm_model::rng::DetRng;
    use fm_model::MachineProfile;

    fn pair() -> (Mpi2<LoopbackDevice>, Mpi2<LoopbackDevice>) {
        let (a, b) = LoopbackPair::new(64);
        let p = MachineProfile::ppro200_fm2();
        (
            Mpi2::new(Fm2Engine::new(a, p)),
            Mpi2::new(Fm2Engine::new(b, p)),
        )
    }

    fn pump(a: &mut Mpi2<LoopbackDevice>, b: &mut Mpi2<LoopbackDevice>) {
        for _ in 0..4 {
            a.progress();
            b.progress();
            let fa = a.fm.clone();
            let fb = b.fm.clone();
            fa.with_device(|da| fb.with_device(|db| LoopbackPair::deliver(da, db)));
        }
        a.progress();
        b.progress();
    }

    #[test]
    fn posted_receive_is_single_copy() {
        let (mut s, mut r) = pair();
        let req = r.irecv(Some(0), Some(5), 8192);
        let payload = vec![3u8; 5000]; // multi-packet
        s.isend(1, 5, payload.clone());
        pump(&mut s, &mut r);
        assert!(req.is_done());
        assert_eq!(req.take(), Some(payload));
        // Send side: gather — zero MPI-level memcpy.
        assert_eq!(s.fm().stats().bytes_copied, 0);
        // Receive side: header copy + one payload copy, nothing else.
        assert_eq!(
            r.fm().stats().bytes_copied,
            (MPI_HEADER_BYTES + 5000) as u64
        );
        assert_eq!(r.unexpected_total(), 0);
    }

    #[test]
    fn unexpected_path_costs_two_copies() {
        let (mut s, mut r) = pair();
        s.isend(1, 9, vec![7u8; 1000]);
        pump(&mut s, &mut r);
        assert_eq!(r.unexpected_total(), 1);
        let after_bounce = r.fm().stats().bytes_copied;
        assert_eq!(after_bounce, (MPI_HEADER_BYTES + 1000) as u64);
        let req = r.irecv(None, None, 4096);
        assert!(req.is_done());
        assert_eq!(req.take(), Some(vec![7u8; 1000]));
        assert_eq!(
            r.fm().stats().bytes_copied,
            after_bounce + 1000,
            "delivery copy on top of the bounce copy"
        );
    }

    #[test]
    fn receive_posted_mid_message_still_matches() {
        // Layer interleaving: deliver only the first packet, post the
        // receive — matching happens at header time, so when the rest
        // arrives it lands in the posted buffer.
        let (mut s, mut r) = pair();
        let payload = vec![8u8; 3000]; // 3 packets on 1024 MTU
        s.isend(1, 4, payload.clone());
        s.progress();
        // One packet only.
        let fa = s.fm.clone();
        let fb = r.fm.clone();
        fa.with_device(|da| fb.with_device(|db| LoopbackPair::deliver_one(da, db)));
        r.progress();
        // The handler saw no posted receive at header time, so it is
        // bouncing the payload. Post the receive while the message is
        // still in flight: the handler's completion re-check must match
        // it (no deadlock, no lost message).
        let req = r.irecv(Some(0), Some(4), 8192);
        assert!(!req.is_done(), "message still in flight");
        pump(&mut s, &mut r);
        assert!(req.is_done());
        assert_eq!(req.take(), Some(payload));
    }

    #[test]
    fn pacing_limits_per_progress_intake() {
        let (mut s, mut r) = pair();
        r.set_extract_budget(1024); // one packet per progress call
        for i in 0..4 {
            s.isend(1, i, vec![i as u8; 100]);
        }
        s.progress();
        let fa = s.fm.clone();
        let fb = r.fm.clone();
        fa.with_device(|da| fb.with_device(|db| LoopbackPair::deliver(da, db)));
        r.progress();
        // 100+24 = 124-byte packets; budget 1024 admits at most... the
        // budget is checked before each packet, so several small packets
        // fit. Verify the budget bounds intake rather than admitting all.
        let got_first = r.fm().stats().packets_received;
        assert!(got_first >= 1);
        r.progress();
        r.progress();
        assert_eq!(r.fm().stats().packets_received, 4, "rest arrives later");
        assert_eq!(r.unexpected_total(), 4);
    }

    #[test]
    fn many_interleaved_tags_and_sources() {
        let (mut a, mut b) = pair();
        let mut reqs = Vec::new();
        for tag in 0..20 {
            reqs.push(b.irecv(Some(0), Some(tag), 256));
        }
        // Send in reverse tag order: matching is by tag, not arrival.
        for tag in (0..20u32).rev() {
            a.isend(1, tag, vec![tag as u8; 50]);
        }
        pump(&mut a, &mut b);
        for (tag, req) in reqs.iter().enumerate() {
            assert_eq!(req.take(), Some(vec![tag as u8; 50]), "tag {tag}");
        }
    }

    #[test]
    fn deferred_sends_flush_under_flow_control() {
        let (mut s, mut r) = pair();
        let window = MachineProfile::ppro200_fm2().fm.credits_per_peer;
        let mut reqs = Vec::new();
        for i in 0..window * 2 {
            reqs.push(s.isend(1, 7, vec![i as u8]));
        }
        assert!(reqs.iter().any(|r| !r.is_done()));
        for _ in 0..30 {
            pump(&mut s, &mut r);
        }
        assert!(reqs.iter().all(|r| r.is_done()));
        for i in 0..window * 2 {
            let req = r.irecv(Some(0), Some(7), 64);
            assert_eq!(req.take(), Some(vec![i as u8]), "order preserved");
        }
    }

    #[test]
    fn self_send_works() {
        let (mut a, _b) = pair();
        let req = a.irecv(Some(0), Some(1), 64);
        a.isend(0, 1, vec![42]);
        a.progress();
        assert_eq!(req.take(), Some(vec![42]));
    }

    #[test]
    fn zero_length_message() {
        let (mut s, mut r) = pair();
        let req = r.irecv(Some(0), Some(1), 0);
        s.isend(1, 1, Vec::new());
        pump(&mut s, &mut r);
        let st = req.status().expect("completed");
        assert_eq!(st.len, 0);
        assert_eq!(req.take(), Some(Vec::new()));
    }

    // ---- the landing table ----

    /// One node of an in-process three-node network: what it sends waits
    /// in `out` until the test moves it.
    #[derive(Default)]
    struct Node3 {
        node: usize,
        out: VecDeque<FmPacket>,
        inq: VecDeque<FmPacket>,
    }

    impl NetDevice for Node3 {
        fn node_id(&self) -> usize {
            self.node
        }
        fn num_nodes(&self) -> usize {
            3
        }
        fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
            self.out.push_back(pkt);
            Ok(())
        }
        fn try_recv(&mut self) -> Option<FmPacket> {
            self.inq.pop_front()
        }
        fn send_space(&self) -> usize {
            256 - self.out.len()
        }
        fn now(&self) -> Nanos {
            Nanos::ZERO
        }
        fn charge(&mut self, _cost: Nanos) {}
    }

    /// Move at most one packet out of `from`; true if one moved.
    fn hop(nodes: &[Mpi2<Node3>], from: usize) -> bool {
        let Some(pkt) = nodes[from].fm.with_device(|d| d.out.pop_front()) else {
            return false;
        };
        let to = pkt.header.dst as usize;
        nodes[to].fm.with_device(|d| d.inq.push_back(pkt));
        true
    }

    #[test]
    fn two_sources_interleaved_packet_by_packet_land_in_per_source_order() {
        let p = MachineProfile::ppro200_fm2();
        assert_eq!(p.fm.mtu_payload, 1024, "3000 B is three packets");
        let dev = |node| Node3 {
            node,
            ..Node3::default()
        };
        let mut nodes: Vec<Mpi2<Node3>> = (0..3)
            .map(|node| Mpi2::new(Fm2Engine::new(dev(node), p)))
            .collect();
        let msg = |src: usize, k: usize| -> Vec<u8> {
            (0..3000)
                .map(|i| (i * 7 + src * 101 + k * 13) as u8)
                .collect()
        };
        // The first two messages of each source find their receives
        // posted, the third lands in a bounce buffer beside the other
        // source's.
        let posted: Vec<Vec<RecvReq>> = (0..2)
            .map(|src| {
                (0..2)
                    .map(|_| nodes[2].irecv(Some(src), Some(4), 4096))
                    .collect()
            })
            .collect();
        for (src, node) in nodes[..2].iter_mut().enumerate() {
            for k in 0..3 {
                node.isend(2, 4, msg(src, k));
            }
        }
        // Node 2 sees one packet of source 0, then one of source 1, ...
        let mut moved = true;
        while moved {
            moved = false;
            for src in 0..2 {
                moved |= hop(&nodes, src);
                nodes[2].progress();
            }
            while hop(&nodes, 2) {}
            for node in &mut nodes[..2] {
                node.progress();
            }
        }
        assert_eq!(nodes[2].fm().stats().packets_received, 18);
        assert_eq!(nodes[2].unexpected_total(), 2);
        for (src, reqs) in posted.iter().enumerate() {
            for (k, req) in reqs.iter().enumerate() {
                assert_eq!(req.take(), Some(msg(src, k)), "source {src}, message {k}");
            }
            let late = nodes[2].irecv(Some(src), Some(4), 4096);
            assert_eq!(late.take(), Some(msg(src, 2)), "source {src}, message 2");
        }
        assert!(nodes[2].fm.take_errors().is_empty());
    }

    #[test]
    fn a_source_that_restarts_mid_message_leaves_no_landing() {
        let (mut s, mut r) = pair();
        let reqs: Vec<RecvReq> = (0..3).map(|_| r.irecv(Some(0), Some(6), 4096)).collect();
        s.isend(1, 6, vec![1u8; 100]);
        s.isend(1, 6, vec![2u8; 3000]); // three packets
        s.progress();
        // The first message and the second one's first packet.
        for _ in 0..2 {
            let (fs, fr) = (s.fm.clone(), r.fm.clone());
            fs.with_device(|a| fr.with_device(|b| LoopbackPair::deliver_one(a, b)));
        }
        r.progress();
        assert_eq!(reqs[0].take(), Some(vec![1u8; 100]));
        assert!(!reqs[1].is_done(), "the second message is landing");

        // The sender restarts: its old incarnation's packets never come,
        // the new one numbers its messages from 0 again.
        drop(s);
        let (a, _) = LoopbackPair::new(64);
        let mut s = Mpi2::new(Fm2Engine::new(a, MachineProfile::ppro200_fm2()));
        let (mut old, _) = LoopbackPair::new(64);
        r.fm.with_device(|d| {
            LoopbackPair::deliver(&mut old, d);
            d.report(PeerEvent {
                peer: 0,
                kind: PeerEventKind::Rejoining,
                epoch: 1,
            })
        });
        s.isend(1, 6, vec![3u8; 3000]);
        pump(&mut s, &mut r);
        assert_eq!(
            reqs[2].take(),
            Some(vec![3u8; 3000]),
            "the next posted receive"
        );
        // The half-landed receive is dropped with its landing: it never
        // completes, and nothing but its requester holds it.
        assert!(!reqs[1].is_done());
        assert_eq!(
            Rc::strong_count(&reqs[1].inner),
            1,
            "a landing was left behind"
        );
        assert_eq!(r.unexpected_total(), 0);
    }

    #[test]
    fn zero_byte_messages_and_self_sends_land_whole() {
        let (mut s, mut r) = pair();
        let hdr = MPI_HEADER_BYTES as u64;
        // Zero bytes, posted then unexpected: the header is all it copies.
        let req = r.irecv(Some(0), Some(1), 0);
        s.isend(1, 1, Vec::new());
        s.isend(1, 2, Vec::new());
        pump(&mut s, &mut r);
        assert_eq!(req.take(), Some(Vec::new()));
        assert_eq!(r.unexpected_total(), 1);
        assert_eq!(r.irecv(Some(0), Some(2), 0).take(), Some(Vec::new()));
        assert_eq!(r.fm().stats().bytes_copied, 2 * hdr);
        // A self-send of three packets' worth arrives whole: one copy
        // posted, two unexpected.
        let big: Vec<u8> = (0..3000u32).map(|i| i as u8).collect();
        let req = s.irecv(Some(0), Some(3), 4096);
        s.isend(0, 3, big.clone());
        s.progress();
        assert_eq!(req.take(), Some(big.clone()));
        assert_eq!(s.fm().stats().bytes_copied, hdr + 3000);
        s.isend(0, 4, big.clone());
        s.progress();
        assert_eq!(s.unexpected_total(), 1);
        assert_eq!(s.irecv(Some(0), Some(4), 4096).take(), Some(big));
        assert_eq!(s.fm().stats().bytes_copied, 2 * (hdr + 3000) + 3000);
    }

    // ---- rendezvous protocol ----

    /// Rank 0's end of a `LoopbackPair` that logs `(handler, length)` of
    /// every message it sends.
    struct Tap {
        dev: LoopbackDevice,
        sent: Vec<(HandlerId, u32)>,
    }

    impl NetDevice for Tap {
        fn node_id(&self) -> usize {
            self.dev.node_id()
        }
        fn num_nodes(&self) -> usize {
            self.dev.num_nodes()
        }
        fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
            let h = pkt.header;
            self.dev.try_send(pkt)?;
            if h.flags.contains(PacketFlags::FIRST) {
                self.sent.push((h.handler, h.msg_len));
            }
            Ok(())
        }
        fn try_recv(&mut self) -> Option<FmPacket> {
            self.dev.try_recv()
        }
        fn send_space(&self) -> usize {
            self.dev.send_space()
        }
        fn now(&self) -> Nanos {
            self.dev.now()
        }
        fn charge(&mut self, cost: Nanos) {
            self.dev.charge(cost)
        }
    }

    #[test]
    fn a_message_longer_than_one_chunk_is_a_rendezvous() {
        let (a, b) = LoopbackPair::new(64);
        let p = MachineProfile::ppro200_fm2();
        let tap = Tap {
            dev: a,
            sent: Vec::new(),
        };
        let mut s = Mpi2::new(Fm2Engine::new(tap, p));
        let mut r = Mpi2::new(Fm2Engine::new(b, p));
        let exchange = |s: &mut Mpi2<Tap>, r: &mut Mpi2<LoopbackDevice>| {
            for _ in 0..8 {
                s.progress();
                r.progress();
                let (fs, fr) = (s.fm.clone(), r.fm.clone());
                fs.with_device(|t| fr.with_device(|d| LoopbackPair::deliver(&mut t.dev, d)));
            }
            s.fm.with_device(|t| std::mem::take(&mut t.sent))
        };
        let mpi = |len: usize| (MPI_HEADER_BYTES + len) as u32;

        // One chunk: one eager MPI message, header and payload together.
        let req = r.irecv(Some(0), Some(1), CHUNK_BYTES);
        assert!(s.isend(1, 1, vec![1; CHUNK_BYTES]).is_done(), "eager");
        let sent = exchange(&mut s, &mut r);
        assert_eq!(sent, [(MPI_HANDLER, mpi(CHUNK_BYTES))]);
        assert_eq!(req.take(), Some(vec![1; CHUNK_BYTES]));

        // One byte more: a header-only RTS; after the CTS the payload
        // crosses as granted one-sided DATA, a chunk per message.
        let big = CHUNK_BYTES + 1;
        let req = r.irecv(Some(0), Some(2), big);
        let sreq = s.isend(1, 2, vec![2; big]);
        assert!(!sreq.is_done(), "a rendezvous send waits for its CTS");
        let sent = exchange(&mut s, &mut r);
        assert_eq!(sent[0], (MPI_HANDLER, mpi(0)), "the RTS");
        assert!(
            sent[1..].iter().all(|&(h, _)| h == ONESIDED_HANDLER),
            "{sent:?}"
        );
        assert_eq!(sent.len(), 3, "two DATA chunks: {sent:?}");
        assert!(sreq.is_done());
        assert_eq!(req.take(), Some(vec![2; big]));

        // A self-send of the same size stays eager: nothing on the wire.
        let req = s.irecv(Some(0), Some(3), big);
        assert!(
            s.isend(0, 3, vec![3; big]).is_done(),
            "self-sends are eager"
        );
        assert_eq!(exchange(&mut s, &mut r), []);
        assert_eq!(req.take(), Some(vec![3; big]));
    }

    #[test]
    fn rendezvous_round_trip_posted_first() {
        let (mut s, mut r) = pair();
        let payload = vec![0xA5u8; CHUNK_BYTES + 5000];
        let req = r.irecv(Some(0), Some(7), 2 * CHUNK_BYTES);
        let sreq = s.isend(1, 7, payload.clone());
        assert!(!sreq.is_done(), "rendezvous sends wait for CTS");
        pump(&mut s, &mut r);
        assert!(sreq.is_done(), "CTS released the payload");
        assert!(req.is_done());
        assert_eq!(req.take(), Some(payload));
    }

    #[test]
    fn rendezvous_unexpected_skips_bounce_copy() {
        let (mut s, mut r) = pair();
        let payload = vec![0x5Au8; CHUNK_BYTES + 4000];
        // Send before any receive is posted: only the 24-byte RTS travels.
        s.isend(1, 7, payload.clone());
        pump(&mut s, &mut r);
        let copied_before = r.fm().stats().bytes_copied;
        assert!(
            copied_before < 100,
            "no payload moved yet ({copied_before} B copied)"
        );
        // Posting the receive triggers CTS; the payload then lands
        // directly in the user buffer — exactly one payload copy.
        let req = r.irecv(Some(0), Some(7), 2 * CHUNK_BYTES);
        pump(&mut s, &mut r);
        assert_eq!(req.take(), Some(payload));
        let copied_after = r.fm().stats().bytes_copied;
        let len = (CHUNK_BYTES + 4000) as u64;
        assert!(
            copied_after - copied_before >= len && copied_after - copied_before < len + 100,
            "one payload copy, not two (delta = {})",
            copied_after - copied_before
        );
    }

    #[test]
    fn small_messages_stay_eager_under_threshold() {
        let (mut s, mut r) = pair();
        let sreq = s.isend(1, 1, vec![1u8; CHUNK_BYTES]); // one chunk: eager
        assert!(sreq.is_done(), "eager sends complete immediately");
        let req = r.irecv(Some(0), Some(1), CHUNK_BYTES);
        pump(&mut s, &mut r);
        assert_eq!(req.take(), Some(vec![1u8; CHUNK_BYTES]));
    }

    #[test]
    fn mixed_eager_and_rendezvous_same_tag_do_not_overtake() {
        let (mut s, mut r) = pair();
        // Alternate small (eager) and large (rendezvous) under one tag.
        let msgs: Vec<Vec<u8>> = (0..6)
            .map(|i| {
                let n = if i % 2 == 0 { 64 } else { CHUNK_BYTES + 2000 };
                vec![i as u8; n]
            })
            .collect();
        for m in &msgs {
            s.isend(1, 3, m.clone());
        }
        pump(&mut s, &mut r);
        for expect in &msgs {
            let req = r.irecv(Some(0), Some(3), 2 * CHUNK_BYTES);
            pump(&mut s, &mut r);
            assert_eq!(req.take().as_ref(), Some(expect), "matching order holds");
        }
    }

    #[test]
    fn many_concurrent_rendezvous_transfers() {
        let (mut s, mut r) = pair();
        let payloads: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; CHUNK_BYTES + 3000]).collect();
        let reqs: Vec<_> = (0..8)
            .map(|i| r.irecv(Some(0), Some(i as u32), 2 * CHUNK_BYTES))
            .collect();
        let sreqs: Vec<_> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| s.isend(1, i as u32, p.clone()))
            .collect();
        for _ in 0..8 {
            pump(&mut s, &mut r);
        }
        assert!(sreqs.iter().all(|q| q.is_done()));
        for (i, req) in reqs.iter().enumerate() {
            assert_eq!(req.take(), Some(payloads[i].clone()), "transfer {i}");
        }
    }

    #[test]
    fn oversized_message_streams_through_the_window() {
        // 100 KB = ~98 packets, far beyond the 64-credit window: a
        // rendezvous, whose granted DATA chunks must stream through the
        // window across many progress calls.
        let (mut s, mut r) = pair();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let req = r.irecv(Some(0), Some(1), 128 * 1024);
        let sreq = s.isend(1, 1, payload.clone());
        for _ in 0..64 {
            pump(&mut s, &mut r);
        }
        assert!(sreq.is_done(), "oversized send must complete");
        assert_eq!(req.take(), Some(payload));
    }

    #[test]
    fn small_send_cannot_overtake_stalled_large_send() {
        let (mut s, mut r) = pair();
        // Four one-chunk messages (17 packets each) overrun the 64-credit
        // window: the fourth stalls mid-message, and a small one queued
        // behind it must wait its turn.
        let bigs: Vec<Vec<u8>> = (1..=4).map(|i| vec![i; CHUNK_BYTES]).collect();
        let small = vec![9u8; 8];
        let sent: Vec<SendReq> = (bigs.iter().chain([&small]))
            .map(|m| s.isend(1, 5, m.clone()))
            .collect();
        assert!(!sent[3].is_done() && !sent[4].is_done(), "stalled");
        for _ in 0..128 {
            pump(&mut s, &mut r);
        }
        // Same tag: matching order must be send order.
        for (k, m) in bigs.iter().chain([&small]).enumerate() {
            let req = r.irecv(Some(0), Some(5), CHUNK_BYTES);
            pump(&mut s, &mut r);
            assert_eq!(req.take().as_ref(), Some(m), "message {k} in send order");
        }
    }

    // ---- send scheduler (FM's send queue, seen through MPI) ----

    /// This rank's NIC toward four peers, as the scheduler sees it: a
    /// bounded queue the test drains by hand, and a log of what was
    /// emitted in what order. Peers exist only as credit returns.
    struct Fanout {
        capacity: usize,
        /// Destinations of the packets still queued in the NIC.
        queue: VecDeque<u16>,
        /// Packets the NIC delivered, per peer, not yet credited back.
        delivered: Vec<u16>,
        /// Every data packet handed to the NIC: (dst, msg_seq, pkt_seq).
        emitted: Vec<(u16, u32, u32)>,
        inq: VecDeque<FmPacket>,
    }

    const PEERS: usize = 4;

    impl NetDevice for Fanout {
        fn node_id(&self) -> usize {
            0
        }
        fn num_nodes(&self) -> usize {
            PEERS + 1
        }
        fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
            if self.queue.len() == self.capacity {
                return Err(DeviceFull);
            }
            let h = pkt.header;
            self.queue.push_back(h.dst);
            self.emitted.push((h.dst, h.msg_seq, h.pkt_seq));
            Ok(())
        }
        fn try_recv(&mut self) -> Option<FmPacket> {
            self.inq.pop_front()
        }
        fn send_space(&self) -> usize {
            self.capacity - self.queue.len()
        }
        fn now(&self) -> Nanos {
            Nanos::ZERO
        }
        fn charge(&mut self, _cost: Nanos) {}
    }

    impl Fanout {
        /// The NIC puts up to `k` queued packets on the wire.
        fn drain(&mut self, k: usize) {
            for _ in 0..k.min(self.queue.len()) {
                let dst = self.queue.pop_front().expect("counted");
                self.delivered[dst as usize] += 1;
            }
        }

        /// `peer` returns `k` of the credits it holds for delivered packets.
        fn credit(&mut self, peer: usize, k: u16) {
            if k > 0 {
                self.delivered[peer] -= k;
                self.inq.push_back(FmPacket::credit_only(peer as u16, 0, k));
            }
        }
    }

    fn fanout() -> Mpi2<Fanout> {
        let dev = Fanout {
            capacity: 16,
            queue: VecDeque::new(),
            delivered: vec![0; PEERS + 1],
            emitted: Vec::new(),
            inq: VecDeque::new(),
        };
        Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()))
    }

    /// Replay one seeded schedule of sends, NIC drains, credit returns
    /// and progress calls; returns everything emitted, in order.
    fn replay(seed: u64) -> Vec<(u16, u32, u32)> {
        // Eager sizes only (`Fanout` never answers an RTS): a few one-chunk
        // messages overrun a 64-packet window mid-message.
        const SIZES: [usize; 6] = [0, 8, 900, 3_000, 9_000, CHUNK_BYTES];
        let mut rng = DetRng::seed_from_u64(seed);
        let mut mpi = fanout();
        let mut reqs = Vec::new();
        let mut packets = 0;
        for _ in 0..rng.range_usize(20, 120) {
            let peer = rng.range_usize(1, PEERS + 1);
            match rng.below(100) {
                0..=44 => {
                    let size = SIZES[rng.below(SIZES.len() as u64) as usize];
                    packets += (MPI_HEADER_BYTES + size).div_ceil(1024);
                    reqs.push(mpi.isend(peer, 7, vec![peer as u8; size]));
                }
                45..=64 => {
                    let k = rng.range_usize(1, 17);
                    mpi.fm.with_device(|d| d.drain(k));
                }
                65..=84 => mpi.fm.with_device(|d| {
                    let k = rng.below(d.delivered[peer] as u64 + 1) as u16;
                    d.credit(peer, k);
                }),
                _ => mpi.progress(),
            }
        }
        // Let everything through: the whole schedule must complete.
        for _ in 0..10_000 {
            if reqs.iter().all(|r| r.is_done()) {
                break;
            }
            mpi.fm.with_device(|d| {
                d.drain(usize::MAX);
                for peer in 1..=PEERS {
                    d.credit(peer, d.delivered[peer]);
                }
            });
            mpi.progress();
        }
        assert!(reqs.iter().all(|r| r.is_done()), "seed {seed}: wedged");
        let emitted = mpi.fm.with_device(|d| std::mem::take(&mut d.emitted));
        assert_eq!(emitted.len(), packets, "seed {seed}: every packet, once");
        emitted
    }

    /// FNV-1a over the emissions of the seeded replays `0x5EED_0000 +
    /// 0..200`, each prefixed by its length. MPI-FM 2.x's own scheduler
    /// lived in this file once, where these replays held it to the
    /// arrival-order scan it replaced; the scheduler has since moved into
    /// FM's send queue unchanged, and the scan with it
    /// (`fm_core::fm2::send`'s tests, which keep comparing the two live).
    /// The value was `0xff10_2a74_a4c7_aa8b` while only `extract` and
    /// `progress` took returned credits; it moved when a queued send
    /// began to take those already waiting, which puts a queued head on
    /// the wire at the `isend` instead of at the next `progress`.
    const ARRIVAL_SCAN_EMISSIONS: u64 = 0xd4fb_a421_e493_a69b;

    #[test]
    fn scheduler_emits_what_the_arrival_order_scan_emitted() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        for case in 0..200u64 {
            let seed = 0x5EED_0000 + case;
            let got = replay(seed);
            fold(&(got.len() as u64).to_le_bytes());
            for &(d, m, p) in &got {
                fold(&[&d.to_le_bytes()[..], &m.to_le_bytes(), &p.to_le_bytes()].concat());
            }
            // Pairwise FIFO: each peer sees its packets in sequence.
            for peer in 1..=PEERS as u16 {
                let seqs: Vec<u32> = (got.iter().filter(|e| e.0 == peer)).map(|e| e.2).collect();
                assert!(seqs.iter().copied().eq(0..seqs.len() as u32), "seed {seed}");
            }
        }
        assert_eq!(h, ARRIVAL_SCAN_EMISSIONS, "emission order diverged");
    }

    /// Refused attempts so far: every stalled head a pass offers FM
    /// counts one credit or device stall.
    fn refusals(mpi: &Mpi2<Fanout>) -> u64 {
        let st = mpi.fm.stats();
        st.credit_stalls + st.device_stalls
    }

    #[test]
    fn a_send_onto_a_stalled_peer_costs_one_visit() {
        // Nobody returns credits: after the first window every `isend`
        // queues behind a stalled head, and neither it nor a progress
        // call may walk what is queued.
        let mut mpi = fanout();
        let window = mpi.fm.profile().fm.credits_per_peer as usize;
        let mut reqs = Vec::new();
        for i in 0..4096 {
            let before = refusals(&mpi);
            reqs.push(mpi.isend(1, 7, vec![0u8; 8]));
            // The send that finds the window closed is refused twice: as
            // a whole message, then as the head of its queue.
            let want = match i {
                i if i < window => 0,
                i if i == window => 2,
                _ => 1,
            };
            assert_eq!(refusals(&mpi) - before, want, "isend {i}");
            mpi.fm.with_device(|d| d.drain(usize::MAX));
            let before = refusals(&mpi);
            mpi.progress();
            // One pass before `extract`, one at its end.
            let want = if i < window { 0 } else { 2 };
            assert_eq!(refusals(&mpi) - before, want, "progress {i}");
        }
        let waiting = reqs.iter().filter(|r| !r.is_done()).count();
        assert_eq!(waiting, 4096 - window, "one credit window left");
    }

    #[test]
    fn a_queued_send_takes_the_credits_already_waiting() {
        // Peer 1's window closes with one send queued; the NIC drains and
        // the peer hands back four credits. The next `isend` queues behind
        // the stalled head, takes the credits off the device and puts both
        // sends on the wire, with no `progress` or `extract` in between.
        let mut mpi = fanout();
        let window = mpi.fm.profile().fm.credits_per_peer as usize;
        let mut reqs: Vec<SendReq> = (0..=window)
            .map(|_| {
                let req = mpi.isend(1, 7, vec![0u8; 8]);
                mpi.fm.with_device(|d| d.drain(usize::MAX));
                req
            })
            .collect();
        assert!(!reqs[window].is_done(), "the window is closed");
        mpi.fm.with_device(|d| d.credit(1, 4));
        reqs.push(mpi.isend(1, 7, vec![0u8; 8]));
        assert!(reqs.iter().all(SendReq::is_done));
        let emitted = mpi.fm.with_device(|d| d.emitted.len());
        assert_eq!(emitted, window + 2);
    }

    #[test]
    fn an_idle_uplink_serves_the_next_peer_and_a_busy_one_waits() {
        let mut mpi = fanout();
        // Four one-chunk messages, 68 packets toward peer 1: its window
        // (64) closes in the middle of the fourth.
        let bigs: Vec<SendReq> = (0..4)
            .map(|_| mpi.isend(1, 7, vec![1u8; CHUNK_BYTES]))
            .collect();
        let big = &bigs[3];
        let small = mpi.isend(2, 7, vec![2u8; 8]);
        // The NIC (16 slots) is still busy with peer 1's packets: the
        // pass stopped at the stall, peer 2 waits although its window
        // is open.
        assert!(!big.is_done() && !small.is_done());
        for _ in 0..4 {
            mpi.fm.with_device(|d| d.drain(usize::MAX));
            mpi.progress();
        }
        // Window exhausted, NIC drained: the uplink is idle and peer 2's
        // send goes out past the stalled head.
        assert!(!big.is_done());
        assert!(small.is_done());
        let last = mpi.fm.with_device(|d| *d.emitted.last().expect("sent"));
        assert_eq!((last.0, last.2), (2, 0));
    }

    #[test]
    fn a_send_queued_for_a_peer_that_goes_down_never_completes() {
        // FM drops what waits for a downed peer; the request keeps
        // reporting not done, as it did while MPI queued it itself (no
        // credits come back from a dead peer), and `lost_peer` is what
        // ends a wait on it.
        let (mut s, _r) = pair();
        let window = s.fm.profile().fm.credits_per_peer as usize;
        let reqs: Vec<SendReq> = (0..window + 8)
            .map(|i| s.isend(1, 7, vec![i as u8; 8]))
            .collect();
        let (sent, queued) = reqs.split_at(window);
        assert!(sent.iter().all(SendReq::is_done));
        assert!(queued.iter().all(|q| !q.is_done()));
        let down = PeerEvent {
            peer: 1,
            kind: PeerEventKind::Down,
            epoch: 0,
        };
        s.fm.with_device(|d| d.report(down));
        for _ in 0..8 {
            s.progress();
        }
        assert_eq!(s.lost_peer(), Some(1));
        assert!(queued.iter().all(|q| !q.is_done()));
    }

    #[test]
    fn handler_deferred_sends_stream_oversized_replies() {
        // The FM-level send queue must also stream: a rendezvous payload
        // larger than the credit window travels as granted one-sided
        // DATA behind a queued CTS.
        let (mut s, mut r) = pair();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
        let req = r.irecv(Some(0), Some(2), 128 * 1024);
        let sreq = s.isend(1, 2, payload.clone()); // rendezvous path
        for _ in 0..64 {
            pump(&mut s, &mut r);
        }
        assert!(sreq.is_done());
        assert_eq!(req.take(), Some(payload));
    }

    #[test]
    fn rendezvous_posted_mid_flight_via_late_rts_match() {
        // RTS arrives, goes unexpected; receive posted later matches the
        // parked RTS and pulls the payload.
        let (mut s, mut r) = pair();
        let payload = vec![7u8; CHUNK_BYTES + 1500];
        s.isend(1, 9, payload.clone());
        pump(&mut s, &mut r);
        assert_eq!(r.unexpected_total(), 1, "the RTS itself went unexpected");
        let req = r.irecv(None, None, 2 * CHUNK_BYTES);
        assert!(!req.is_done(), "payload still at the sender");
        pump(&mut s, &mut r);
        assert_eq!(req.take(), Some(payload));
    }
}
