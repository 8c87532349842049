//! MPI over FM 2.x — the paper's solution (§4, Figure 6).
//!
//! The three FM 2.x features, used exactly as the paper prescribes:
//!
//! * **Gather/scatter**: `isend` passes the 24-byte MPI header and the
//!   payload as two pieces of one message — no assembly copy.
//! * **Layer interleaving**: the receive handler reads the header with its
//!   first `FM_receive`, matches the posted-receive queue *while the rest
//!   of the message is still arriving*, and lands the payload directly in
//!   the receive buffer with its second `FM_receive` — one copy, the
//!   receive-region → user transfer. (This handler is the paper's §4.1
//!   example code, almost line for line.)
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

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use fm_core::device::NetDevice;
use fm_core::onesided::CHUNK_BYTES;
use fm_core::packet::HandlerId;
use fm_core::{
    Fm2Engine, Fm2Handle, FmStream, ObsEvent, Onesided, OnesidedConfig, OsPort, RegionHandle,
    SpanKind,
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
    /// Parked sends awaiting CTS: seq -> (dst, payload, request).
    parked: HashMap<u32, (usize, Vec<u8>, SendReq)>,
    /// Sends whose payload went to the one-sided layer at CTS: complete
    /// once that layer holds no payload, so a sender that waits for its
    /// sends and then exits leaves no bytes behind to stream or be read.
    handed: Vec<SendReq>,
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

/// A send FM could not yet fully admit, queued behind the earlier sends
/// to the same peer. Pending sends *stream*: each flush resumes the open
/// message with `try_send_rest`, which pushes as many packets as credits
/// allow, so a message of any size (even larger than the credit window)
/// completes.
struct PendingSend {
    /// Arrival order over all peers: the scheduler visits heads oldest
    /// first.
    stamp: u64,
    hdr: [u8; MPI_HEADER_BYTES],
    data: Vec<u8>,
    /// Request to complete when fully handed to FM (`None` for RTS
    /// headers, whose request completes once their payload is out).
    req: Option<SendReq>,
    /// The open message (header ⧺ data) once sending has started.
    started: Option<fm_core::fm2::SendStream>,
}

/// MPI over FM 2.x.
pub struct Mpi2<D: NetDevice> {
    fm: Fm2Engine<D>,
    /// One-sided layer carrying rendezvous payloads: receive buffers
    /// are registered and granted to the sender, DATA streams into them
    /// with no staging copy.
    os: Onesided<D>,
    queues: Rc<RefCell<MatchQueues>>,
    rndv: Rc<RefCell<RndvState>>,
    /// Stalled sends, one FIFO per destination: MPI's non-overtaking
    /// guarantee is pairwise, so a send stalled on one peer's credit
    /// window blocks only the later sends *to that peer*, and another
    /// peer's open window can soak up the uplink time the stall would
    /// otherwise waste. A non-empty queue makes `isend` queue behind it.
    pending: Vec<VecDeque<PendingSend>>,
    /// Arrival stamp of the next queued send.
    next_stamp: u64,
    /// Test probes: queued sends a pass looked at (the complexity pin),
    /// and whether passes run the arrival-order scan this scheduler
    /// replaced (the reference model).
    #[cfg(test)]
    visits: u64,
    #[cfg(test)]
    arrival_scan: bool,
    /// High-water `send_space` observation = the NIC queue's capacity
    /// (it is empty at construction). `send_space == nic_capacity` means
    /// the uplink is idle.
    nic_capacity: usize,
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
        );
        let os_port = os.port();
        let q = Rc::clone(&queues);
        let rv = Rc::clone(&rndv);
        let fm_for_handler = fm.handle();
        fm.set_handler(MPI_HANDLER, move |stream: FmStream, src_node| {
            let q = Rc::clone(&q);
            let rndv = Rc::clone(&rv);
            let fm = fm_for_handler.clone();
            let port = os_port.clone();
            async move {
                // "get the header" — first FM_receive; may suspend if even
                // the header hasn't fully arrived.
                let mut hdrb = [0u8; MPI_HEADER_BYTES];
                let n = stream.receive(&mut hdrb).await;
                debug_assert_eq!(n, MPI_HEADER_BYTES);
                let hdr = MpiHeader::decode(&hdrb);
                let src_rank = hdr.src_rank as usize;
                debug_assert_eq!(src_rank, src_node, "ranks are FM node ids");
                // MPI-level receive processing (matching, queue upkeep).
                fm.charge(Nanos(MPI2_RECV_SW_NS));
                match hdr.kind {
                    KIND_EAGER => {
                        let matched = q.borrow_mut().match_arrival(src_rank, hdr.tag);
                        match matched {
                            Some(posted) => {
                                // Posted: the payload lands directly in the
                                // receive buffer — the one unavoidable copy.
                                let mut buf = Vec::new();
                                let got = stream.receive_into(&mut buf, hdr.len as usize).await;
                                debug_assert_eq!(got, hdr.len as usize);
                                MatchQueues::complete(&posted, src_rank, hdr.tag, buf);
                            }
                            None => {
                                // Unexpected at header time: bounce-buffer it.
                                let data = stream.receive_vec(hdr.len as usize).await;
                                // A matching receive may have been posted
                                // while the payload streamed in — re-check
                                // before queueing, or the two would
                                // deadlock past each other.
                                let late = q.borrow_mut().match_arrival(src_rank, hdr.tag);
                                match late {
                                    Some(posted) => {
                                        let user = data.clone();
                                        fm.charge_memcpy(user.len());
                                        MatchQueues::complete(&posted, src_rank, hdr.tag, user);
                                    }
                                    None => {
                                        q.borrow_mut().store_unexpected(src_rank, hdr.tag, data)
                                    }
                                }
                            }
                        }
                    }
                    KIND_RTS => {
                        // Rendezvous announcement: header only; match now,
                        // pull the payload only once a receive exists.
                        let matched = q.borrow_mut().match_arrival(src_rank, hdr.tag);
                        match matched {
                            Some(posted) => {
                                assert!(
                                    hdr.len as usize <= posted.max_len,
                                    "MPI truncation: {}-byte rendezvous for a {}-byte receive",
                                    hdr.len,
                                    posted.max_len
                                );
                                let len = hdr.len as usize;
                                grant(&fm, &port, &rndv, (src_rank, hdr.seq), len, hdr.tag, posted);
                            }
                            None => q.borrow_mut().store_unexpected_body(
                                src_rank,
                                hdr.tag,
                                UnexpectedBody::Rts {
                                    seq: hdr.seq,
                                    len: hdr.len as usize,
                                },
                            ),
                        }
                    }
                    KIND_CTS => {
                        // Our parked payload may now travel down the granted
                        // one-sided transfer (xfer id rides in the CTS `len`
                        // field); the DATA segments stream straight into the
                        // buffer the receiver registered.
                        let mut rv = rndv.borrow_mut();
                        if let Some((dst, data, req)) = rv.parked.remove(&hdr.seq) {
                            port.send_granted(dst, hdr.len, data);
                            rv.handed.push(req);
                        }
                    }
                    k => panic!("unknown MPI wire kind {k}"),
                }
            }
        });
        let n = fm.num_nodes();
        // The NIC queue is empty at construction, so free space == its
        // capacity (the baseline for the uplink-idle test in
        // `try_flush_pending`).
        let nic_capacity = fm.with_device(|d| d.send_space());
        Mpi2 {
            fm,
            os,
            queues,
            rndv,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            next_stamp: 0,
            #[cfg(test)]
            visits: 0,
            #[cfg(test)]
            arrival_scan: false,
            nic_capacity,
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

    /// Queue a send behind any already pending to the same peer
    /// (pairwise ordering!).
    fn enqueue_send(
        &mut self,
        dst: usize,
        hdr: [u8; MPI_HEADER_BYTES],
        data: Vec<u8>,
        req: Option<SendReq>,
    ) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.pending[dst].push_back(PendingSend {
            stamp,
            hdr,
            data,
            req,
            started: None,
        });
    }

    /// One scheduler pass: serve the queue heads oldest first. A head
    /// that goes out whole uncovers its successor, which takes its place
    /// in the order; a head that stalls keeps its place for the next pass
    /// (never reordered: the oldest send keeps uplink priority across
    /// passes) and takes its peer out of this one. The pass ends when
    /// every head has had its attempt — the visiting order of one scan
    /// over all queued sends in arrival order that skips the sends behind
    /// a stalled one, at the cost of the sends actually attempted.
    fn try_flush_pending(&mut self) {
        #[cfg(test)]
        if self.arrival_scan {
            return self.flush_pending_by_arrival_scan();
        }
        // Every head stamped below the cursor stalled earlier in this
        // pass; a successor is always stamped above its predecessor.
        let mut cursor = 0;
        while let Some((stamp, dst)) = self
            .pending
            .iter()
            .enumerate()
            .filter_map(|(dst, q)| Some((q.front()?.stamp, dst)))
            .filter(|&(stamp, _)| stamp >= cursor)
            .min()
        {
            cursor = stamp + 1;
            #[cfg(test)]
            {
                self.visits += 1;
            }
            if self.push_head(dst) {
                self.pending[dst].pop_front();
                continue;
            }
            // The head stalled on its peer's *credit window* or on the
            // NIC queue. While the NIC queue sits idle, a later send to a
            // peer with an open window soaks up the uplink time the stall
            // would otherwise waste. But if the NIC still has queued
            // packets the pass stops at the stall: the uplink isn't idle,
            // and letting later sends interleave would only delay the
            // head's completion (which downstream dependency chains —
            // ring collectives — are waiting on).
            if !self.nic_idle() {
                break;
            }
        }
    }

    /// The scheduler this one replaced, kept as the model the tests hold
    /// it to: one scan over *all* queued sends in arrival order, skipping
    /// each send whose peer stalled earlier in the pass.
    #[cfg(test)]
    fn flush_pending_by_arrival_scan(&mut self) {
        let mut order: Vec<(u64, usize)> = (self.pending.iter().enumerate())
            .flat_map(|(dst, q)| q.iter().map(move |p| (p.stamp, dst)))
            .collect();
        order.sort_unstable();
        let mut blocked = vec![false; self.pending.len()];
        for (stamp, dst) in order {
            self.visits += 1;
            if blocked[dst] {
                continue;
            }
            assert_eq!(self.pending[dst].front().map(|p| p.stamp), Some(stamp));
            if self.push_head(dst) {
                self.pending[dst].pop_front();
                continue;
            }
            blocked[dst] = true;
            if !self.nic_idle() {
                break;
            }
        }
    }

    /// Whether the NIC queue has drained completely (`send_space` back at
    /// its high-water mark): the uplink is idle.
    fn nic_idle(&mut self) -> bool {
        let space = self.fm.with_device(|d| d.send_space());
        self.nic_capacity = self.nic_capacity.max(space);
        space == self.nic_capacity
    }

    /// Push as much of `dst`'s queue head into FM as it admits, parking
    /// the partial stream in place. True when the whole message is handed
    /// over (its request completed), false when it stalled.
    fn push_head(&mut self, dst: usize) -> bool {
        let p = self.pending[dst].front_mut().expect("a queued head");
        let fm = &self.fm;
        let ss = p.started.get_or_insert_with(|| {
            fm.begin_message(dst, MPI_HEADER_BYTES + p.data.len(), MPI_HANDLER)
        });
        if fm.try_send_rest(ss, &[&p.hdr[..], &p.data]).is_err() {
            return false;
        }
        if let Some(req) = p.req.take() {
            req.inner.borrow_mut().done = true;
        }
        true
    }

    /// Complete rendezvous receives whose granted one-sided transfer has
    /// fully landed: reclaim the registered buffer and hand it to the
    /// matched receive — it already holds the payload, so completion is
    /// copy-free.
    fn poll_granted(&mut self) {
        if self.rndv.borrow().granted.is_empty() {
            return;
        }
        let port = self.os.port();
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
    send_cts(fm, src, seq, xfer);
}

/// Send a header-only CTS back to the rendezvous sender (deferred through
/// FM's handler-send queue; tiny, flushed on the next progress). The
/// granted one-sided transfer id rides in the otherwise-unused `len`
/// field — the sender hands it to `OsPort::send_granted`.
fn send_cts<D: NetDevice>(fm: &Fm2Handle<D>, to_node: usize, seq: u32, xfer: u32) {
    let cts = MpiHeader {
        src_rank: fm.node_id() as u32,
        tag: 0,
        comm: COMM_WORLD,
        len: xfer,
        kind: KIND_CTS,
        seq,
    }
    .encode();
    fm.send_from_handler(to_node, MPI_HANDLER, cts.to_vec());
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
        if rendezvous {
            // Announce with a header-only RTS and park the payload until
            // the CTS hands it to the one-sided layer.
            let req = SendReq::new(false);
            (self.rndv.borrow_mut().parked).insert(seq, (dst, data, req.clone()));
            if !self.pending[dst].is_empty()
                || self.fm.try_send_message(dst, MPI_HANDLER, &[&hdr]).is_err()
            {
                self.enqueue_send(dst, hdr, Vec::new(), None);
                self.try_flush_pending();
            }
            return req;
        }
        // Sends behind a stalled send *to the same peer* must queue
        // behind it, or a small message could squeeze past a large one
        // and break MPI's non-overtaking matching order (which is
        // pairwise — other peers' queues don't gate this one).
        if !self.pending[dst].is_empty() {
            let req = SendReq::new(false);
            self.enqueue_send(dst, hdr, data, Some(req.clone()));
            self.try_flush_pending();
            return req;
        }
        // Gather: header and payload as two pieces — no assembly copy.
        // (try_send_message is all-or-nothing and bounded by the credit
        // window; oversized or blocked messages fall back to the
        // streaming pending queue.)
        match self.fm.try_send_message(dst, MPI_HANDLER, &[&hdr, &data]) {
            Ok(()) => SendReq::new(true),
            Err(_) => {
                let req = SendReq::new(false);
                self.enqueue_send(dst, hdr, data, Some(req.clone()));
                // Start streaming *now*: a message wider than the credit
                // window must get its first window of packets onto the
                // wire here, or an event-driven caller (the simulator)
                // parks a send nothing will ever wake up to flush —
                // credit returns only flow once some packets do.
                self.try_flush_pending();
                req
            }
        }
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
                    // nothing else would drain the deferred queue before
                    // the caller sleeps.
                    self.fm.progress();
                }
            }
        }
        req
    }

    fn progress(&mut self) {
        self.try_flush_pending();
        self.fm.extract(self.extract_budget);
        if self.os.progress() {
            // The one-sided layer holds no payload: every rendezvous
            // payload it was handed is on the wire or read.
            for req in self.rndv.borrow_mut().handed.drain(..) {
                req.inner.borrow_mut().done = true;
            }
        }
        self.poll_granted();
        self.try_flush_pending();
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
    use fm_core::device::{DeviceFull, LoopbackDevice, LoopbackPair};
    use fm_core::onesided::ONESIDED_HANDLER;
    use fm_core::packet::{FmPacket, PacketFlags};
    use fm_model::rng::{env_cases, DetRng};
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

    // ---- send scheduler ----

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

    fn fanout(arrival_scan: bool) -> Mpi2<Fanout> {
        let dev = Fanout {
            capacity: 16,
            queue: VecDeque::new(),
            delivered: vec![0; PEERS + 1],
            emitted: Vec::new(),
            inq: VecDeque::new(),
        };
        let mut mpi = Mpi2::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
        mpi.arrival_scan = arrival_scan;
        mpi
    }

    /// Replay one seeded schedule of sends, NIC drains, credit returns
    /// and progress calls; returns everything emitted, in order.
    fn replay(seed: u64, arrival_scan: bool) -> Vec<(u16, u32, u32)> {
        // Eager sizes only (`Fanout` never answers an RTS): a few one-chunk
        // messages overrun a 64-packet window mid-message.
        const SIZES: [usize; 6] = [0, 8, 900, 3_000, 9_000, CHUNK_BYTES];
        let mut rng = DetRng::seed_from_u64(seed);
        let mut mpi = fanout(arrival_scan);
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

    #[test]
    fn scheduler_emits_what_the_arrival_order_scan_emitted() {
        for case in 0..env_cases(200) as u64 {
            let seed = 0x5EED_0000 + case;
            let (got, want) = (replay(seed, false), replay(seed, true));
            assert_eq!(got, want, "seed {seed}: emission order diverged");
            // Pairwise FIFO: each peer sees its packets in sequence.
            for peer in 1..=PEERS as u16 {
                let seqs: Vec<u32> = (got.iter().filter(|e| e.0 == peer)).map(|e| e.2).collect();
                assert!(seqs.iter().copied().eq(0..seqs.len() as u32), "seed {seed}");
            }
        }
    }

    #[test]
    fn a_send_onto_a_stalled_peer_costs_one_visit() {
        // Nobody returns credits: after the first window every `isend`
        // queues behind a stalled head, and neither it nor a progress
        // call may walk what is queued.
        let mut mpi = fanout(false);
        for i in 0..4096u32 {
            let before = mpi.visits;
            mpi.isend(1, 7, vec![0u8; 8]);
            assert!(mpi.visits - before <= 2, "isend {i}");
            mpi.fm.with_device(|d| d.drain(usize::MAX));
            let before = mpi.visits;
            mpi.progress();
            assert!(mpi.visits - before <= 2, "progress {i}");
        }
        assert_eq!(mpi.pending[1].len(), 4096 - 64, "one credit window left");
        // The scan it replaced looked at everything queued, every pass.
        let mut scan = fanout(true);
        for _ in 0..4096 {
            scan.isend(1, 7, vec![0u8; 8]);
            scan.fm.with_device(|d| d.drain(usize::MAX));
        }
        assert!(scan.visits > 4096 * 1024);
    }

    #[test]
    fn an_idle_uplink_serves_the_next_peer_and_a_busy_one_waits() {
        let mut mpi = fanout(false);
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
    fn handler_deferred_sends_stream_oversized_replies() {
        // The FM-level deferred queue must also stream: a rendezvous
        // payload larger than the credit window travels via
        // send_pieces_from_handler.
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
