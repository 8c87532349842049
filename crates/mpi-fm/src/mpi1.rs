//! MPI over FM 1.x — the paper's problem case (§3.2, Figure 4).
//!
//! Where the copies happen (all of them real `memcpy`s in this
//! implementation, charged to the machine profile):
//!
//! * **Send**: FM 1.x accepts one contiguous buffer, so the 24-byte MPI
//!   header and the payload are *assembled* into a fresh buffer — copy #1.
//! * **Receive**: FM 1.x assembles multi-packet messages in its staging
//!   buffer (copy #2, inside FM) and presents the whole message to the
//!   handler at a moment chosen by `FM_extract`, not by MPI. Because MPI
//!   cannot redirect data that is already being presented, the handler
//!   copies every message into an MPI bounce buffer (copy #3) — *even when
//!   a matching receive is already posted* — and delivery to the user
//!   buffer is yet another copy (copy #4).
//!
//! On the Sparc profile's ~20 MB/s memcpy, this is exactly the collapse
//! Figure 4 shows.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use fm_core::device::NetDevice;
use fm_core::packet::HandlerId;
use fm_core::Fm1Engine;
use fm_model::Nanos;

use crate::api::Mpi;
use crate::matching::MatchQueues;
use crate::types::{RecvReq, SendReq};
use crate::wire::{MpiHeader, COMM_WORLD, KIND_EAGER, MPI_HEADER_BYTES};

/// FM handler id used by MPI-FM point-to-point traffic.
pub const MPI_HANDLER: HandlerId = HandlerId(100);

/// Per-message MPI software cost, as a multiple of the profile's
/// `send_call_ns`, charged on each side.
///
/// The *initial* MPI-FM port (what Figure 4 measures) carried heavy
/// per-message protocol processing — request allocation, unoptimized
/// matching, layered function calls — on a Sparc-class CPU; the paper's
/// companion JPDC article documents multi-microsecond per-message costs.
/// Three `FM_send`-call-equivalents per side (~5.4 µs on the Sparc
/// profile) reproduces the measured small-message efficiency.
const MPI1_SW_MULT: u64 = 3;

/// Largest MPI payload carried in one FM 1.x message. FM 1.x hands whole
/// messages to the NIC atomically, so they must fit the credit window;
/// longer MPI messages are segmented and reassembled (as MPICH did above
/// the real FM) — see [`crate::wire::KIND_FRAG`].
pub const MPI1_SEG_PAYLOAD: usize = 4096;

/// In-progress reassembly of a segmented message from one source.
struct Reassembly {
    tag: u32,
    total: usize,
    buf: Vec<u8>,
}

/// MPI over FM 1.x.
pub struct Mpi1<D: NetDevice> {
    fm: Fm1Engine<D>,
    queues: Rc<RefCell<MatchQueues>>,
    reassembly: Rc<RefCell<HashMap<(usize, u32), Reassembly>>>,
    /// Assembled FM messages (segments) not yet admitted by flow control.
    /// FIFO: later sends must not overtake (MPI matching order).
    pending: VecDeque<(usize, Vec<u8>, Option<SendReq>)>,
    send_seq: u32,
    coll_seq: u32,
}

impl<D: NetDevice> Mpi1<D> {
    /// Wrap an FM 1.x engine. Installs the MPI message handler.
    pub fn new(mut fm: Fm1Engine<D>) -> Self {
        let queues: Rc<RefCell<MatchQueues>> = Rc::default();
        let reassembly: Rc<RefCell<HashMap<(usize, u32), Reassembly>>> = Rc::default();
        let q = Rc::clone(&queues);
        let ra = Rc::clone(&reassembly);
        fm.set_handler(
            MPI_HANDLER,
            Box::new(move |eng, _src_node, data| {
                let hdr = MpiHeader::decode(data);
                let payload = &data[MPI_HEADER_BYTES..];
                let src_rank = hdr.src_rank as usize;
                // MPI-level receive processing (matching, queue upkeep).
                eng.charge(Nanos(MPI1_SW_MULT * eng.profile().host.send_call_ns));
                match hdr.kind {
                    KIND_EAGER => {
                        // Copy #3: FM presents the data now, ready or not,
                        // so MPI buffers it. (The paper: "the presentation
                        // of the data before the application was prepared
                        // to accept induced additional layers of buffering
                        // and data copies".)
                        let bounce = payload.to_vec();
                        eng.charge_memcpy(bounce.len());
                        if (hdr.len as usize) > payload.len() {
                            // First segment of a long message: reassemble.
                            ra.borrow_mut().insert(
                                (src_rank, hdr.seq),
                                Reassembly {
                                    tag: hdr.tag,
                                    total: hdr.len as usize,
                                    buf: bounce,
                                },
                            );
                        } else {
                            deliver_complete(eng, &q, src_rank, hdr.tag, bounce);
                        }
                    }
                    crate::wire::KIND_FRAG => {
                        let complete = {
                            let mut ra = ra.borrow_mut();
                            let entry = ra
                                .get_mut(&(src_rank, hdr.seq))
                                .expect("FRAG without its first segment (FM order violated?)");
                            entry.buf.extend_from_slice(payload);
                            eng.charge_memcpy(payload.len());
                            if entry.buf.len() >= entry.total {
                                debug_assert_eq!(entry.buf.len(), entry.total);
                                ra.remove(&(src_rank, hdr.seq))
                            } else {
                                None
                            }
                        };
                        if let Some(r) = complete {
                            deliver_complete(eng, &q, src_rank, r.tag, r.buf);
                        }
                    }
                    k => panic!("MPI-FM 1.x is eager-only; unexpected wire kind {k}"),
                }
            }),
        );
        Mpi1 {
            fm,
            queues,
            reassembly,
            pending: VecDeque::new(),
            send_seq: 0,
            coll_seq: 0,
        }
    }

    /// The underlying FM engine (stats, errors, clock).
    pub fn fm(&mut self) -> &mut Fm1Engine<D> {
        &mut self.fm
    }

    /// FM engine counters (read-only).
    pub fn fm_stats(&self) -> fm_core::FmStats {
        self.fm.stats()
    }

    /// Current time (virtual on the simulator).
    pub fn now(&self) -> Nanos {
        self.fm.now()
    }

    /// Messages that arrived before their receive was posted.
    pub fn unexpected_total(&self) -> u64 {
        self.queues.borrow().unexpected_total
    }

    /// High-water mark of the unexpected (bounce) queue.
    pub fn unexpected_high_water(&self) -> usize {
        self.queues.borrow().unexpected_high_water
    }

    /// Segmented messages currently mid-reassembly (diagnostics; 0 when
    /// the network is quiescent).
    pub fn reassembly_in_progress(&self) -> usize {
        self.reassembly.borrow().len()
    }

    fn try_flush_pending(&mut self) {
        while let Some((dst, buf, req)) = self.pending.pop_front() {
            match self.fm.try_send(dst, MPI_HANDLER, &buf) {
                Ok(()) => {
                    if let Some(req) = req {
                        req.inner.borrow_mut().done = true;
                    }
                }
                Err(_) => {
                    self.pending.push_front((dst, buf, req));
                    break;
                }
            }
        }
    }
}

/// Match a fully-arrived message against the posted queue (delivery copy)
/// or park it unexpected.
fn deliver_complete<D: NetDevice>(
    eng: &mut Fm1Engine<D>,
    q: &Rc<RefCell<MatchQueues>>,
    src_rank: usize,
    tag: u32,
    bounce: Vec<u8>,
) {
    let mut queues = q.borrow_mut();
    match queues.match_arrival(src_rank, tag) {
        Some(posted) => {
            // Copy #4: bounce buffer -> user buffer.
            let user = bounce.clone();
            eng.charge_memcpy(user.len());
            MatchQueues::complete(&posted, src_rank, tag, user);
        }
        None => queues.store_unexpected(src_rank, tag, bounce),
    }
}

impl<D: NetDevice> Mpi for Mpi1<D> {
    fn rank(&self) -> usize {
        self.fm.node_id()
    }

    fn size(&self) -> usize {
        self.fm.num_nodes()
    }

    fn lost_peer(&self) -> Option<usize> {
        // Same contract as the FM 2.x binding: the first peer (node
        // order) the device's failure detector has declared `Down`.
        // Asked on every poll of every blocking wait: collect only when
        // there is something to collect.
        if !self.fm.has_downed_peers() {
            return None;
        }
        self.fm.downed_peers().into_iter().next()
    }

    fn isend(&mut self, dst: usize, tag: u32, data: Vec<u8>) -> SendReq {
        let seq = self.send_seq;
        self.send_seq = self.send_seq.wrapping_add(1);
        // MPI-level send processing.
        let sw = Nanos(MPI1_SW_MULT * self.fm.profile().host.send_call_ns);
        self.fm.charge(sw);

        // Copy #1: assemble header + payload into contiguous buffers,
        // because FM_send takes exactly one buffer. Long messages become
        // several FM messages (first segment EAGER with the total length,
        // continuations FRAG), each individually within FM's admission
        // window.
        let mut segments: Vec<Vec<u8>> = Vec::new();
        let first_len = data.len().min(MPI1_SEG_PAYLOAD);
        let hdr = MpiHeader {
            src_rank: self.rank() as u32,
            tag,
            comm: COMM_WORLD,
            len: data.len() as u32,
            kind: KIND_EAGER,
            seq,
        };
        let mut buf = Vec::with_capacity(MPI_HEADER_BYTES + first_len);
        buf.extend_from_slice(&hdr.encode());
        buf.extend_from_slice(&data[..first_len]);
        segments.push(buf);
        let mut off = first_len;
        while off < data.len() {
            let n = (data.len() - off).min(MPI1_SEG_PAYLOAD);
            let fhdr = MpiHeader {
                src_rank: self.rank() as u32,
                tag,
                comm: COMM_WORLD,
                len: n as u32,
                kind: crate::wire::KIND_FRAG,
                seq,
            };
            let mut fbuf = Vec::with_capacity(MPI_HEADER_BYTES + n);
            fbuf.extend_from_slice(&fhdr.encode());
            fbuf.extend_from_slice(&data[off..off + n]);
            segments.push(fbuf);
            off += n;
        }
        self.fm
            .charge_memcpy(MPI_HEADER_BYTES * segments.len() + data.len());
        drop(data);

        // The request completes when the LAST segment is handed to FM;
        // FIFO flushing makes that imply all earlier ones went too.
        let req = SendReq::new(false);
        let last = segments.len() - 1;
        let mut iter = segments.into_iter().enumerate();
        // Fast path only while nothing is already queued (ordering).
        if self.pending.is_empty() {
            for (i, seg) in iter.by_ref() {
                if self.fm.try_send(dst, MPI_HANDLER, &seg).is_ok() {
                    if i == last {
                        req.inner.borrow_mut().done = true;
                    }
                    continue;
                }
                let r = if i == last { Some(req.clone()) } else { None };
                self.pending.push_back((dst, seg, r));
                break;
            }
        }
        for (i, seg) in iter {
            let r = if i == last { Some(req.clone()) } else { None };
            self.pending.push_back((dst, seg, r));
        }
        req
    }

    fn irecv(&mut self, src: Option<usize>, tag: Option<u32>, max_len: usize) -> RecvReq {
        let (req, unexpected) = self.queues.borrow_mut().post_or_match(src, tag, max_len);
        if let Some(u) = unexpected {
            // Copy #4 for the unexpected path: bounce -> user. (MPI-FM 1.x
            // is eager-only, so the body is always data.)
            let (src, tag) = (u.src, u.tag);
            let bounce = u.body.into_data();
            let user = bounce.clone(); // the real delivery copy
            self.fm.charge_memcpy(user.len());
            MatchQueues::fill_slot(&req.inner, src, tag, user);
        }
        req
    }

    fn progress(&mut self) {
        self.try_flush_pending();
        self.fm.extract();
        self.try_flush_pending();
    }

    fn next_coll_seq(&mut self) -> u32 {
        self.coll_seq = self.coll_seq.wrapping_add(1);
        self.coll_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::device::{LoopbackDevice, LoopbackPair};
    use fm_model::MachineProfile;

    fn pair() -> (Mpi1<LoopbackDevice>, Mpi1<LoopbackDevice>) {
        let (a, b) = LoopbackPair::new(64);
        let p = MachineProfile::sparc_fm1();
        (
            Mpi1::new(Fm1Engine::new(a, p)),
            Mpi1::new(Fm1Engine::new(b, p)),
        )
    }

    fn pump(a: &mut Mpi1<LoopbackDevice>, b: &mut Mpi1<LoopbackDevice>) {
        for _ in 0..4 {
            a.progress();
            b.progress();
            // Split borrows: both engines are distinct objects.
            let (fa, fb) = (&mut a.fm, &mut b.fm);
            LoopbackPair::deliver(fa.device_mut(), fb.device_mut());
        }
        a.progress();
        b.progress();
    }

    #[test]
    fn posted_receive_gets_message() {
        let (mut s, mut r) = pair();
        let req = r.irecv(Some(0), Some(5), 1024);
        let sreq = s.isend(1, 5, vec![1, 2, 3]);
        assert!(sreq.is_done(), "eager send completes immediately");
        pump(&mut s, &mut r);
        assert!(req.is_done());
        let st = req.status().unwrap();
        assert_eq!((st.src, st.tag, st.len), (0, 5, 3));
        assert_eq!(req.take(), Some(vec![1, 2, 3]));
        assert_eq!(r.unexpected_total(), 0);
    }

    #[test]
    fn unexpected_message_waits_for_receive() {
        let (mut s, mut r) = pair();
        s.isend(1, 9, vec![7; 10]);
        pump(&mut s, &mut r);
        assert_eq!(r.unexpected_total(), 1);
        let req = r.irecv(None, None, 64);
        assert!(req.is_done(), "matched from the unexpected queue");
        assert_eq!(req.take(), Some(vec![7; 10]));
    }

    #[test]
    fn copies_are_counted_posted_path() {
        // MPI1 must perform: assembly (hdr+payload), bounce, user — three
        // MPI-level copies — plus FM staging for multi-packet messages.
        let (mut s, mut r) = pair();
        let req = r.irecv(Some(0), Some(1), 4096);
        let payload = vec![9u8; 1000]; // multi-packet on the 128 B MTU
        s.isend(1, 1, payload);
        pump(&mut s, &mut r);
        assert!(req.is_done());
        let sent_copy = s.fm().stats().bytes_copied;
        assert_eq!(sent_copy, 1024, "assembly copy = header + payload");
        let recv_copy = r.fm().stats().bytes_copied;
        // FM staging (1024 wire payload incl. MPI hdr) + bounce (1000) +
        // user (1000).
        assert_eq!(recv_copy, 1024 + 1000 + 1000);
    }

    #[test]
    fn tag_and_source_selectivity() {
        let (mut s, mut r) = pair();
        let req_a = r.irecv(Some(0), Some(1), 64);
        let req_b = r.irecv(Some(0), Some(2), 64);
        s.isend(1, 2, vec![2]);
        s.isend(1, 1, vec![1]);
        pump(&mut s, &mut r);
        assert_eq!(req_a.take(), Some(vec![1]));
        assert_eq!(req_b.take(), Some(vec![2]));
    }

    #[test]
    fn same_tag_messages_do_not_overtake() {
        let (mut s, mut r) = pair();
        for i in 0..10u8 {
            s.isend(1, 3, vec![i]);
        }
        pump(&mut s, &mut r);
        for i in 0..10u8 {
            let req = r.irecv(Some(0), Some(3), 64);
            assert_eq!(req.take(), Some(vec![i]), "arrival order preserved");
        }
    }

    #[test]
    fn flow_control_defers_sends_until_progress() {
        let (mut s, mut r) = pair();
        // Exhaust the credit window with one-packet messages.
        let window = MachineProfile::sparc_fm1().fm.credits_per_peer;
        let mut reqs = Vec::new();
        for i in 0..window + 10 {
            reqs.push(s.isend(1, 4, vec![i as u8]));
        }
        assert!(reqs.iter().any(|r| !r.is_done()), "some sends deferred");
        for _ in 0..30 {
            pump(&mut s, &mut r);
        }
        assert!(reqs.iter().all(|r| r.is_done()), "all flushed eventually");
        let mut got = Vec::new();
        for _ in 0..window + 10 {
            let req = r.irecv(Some(0), Some(4), 64);
            got.push(req.take().unwrap()[0]);
        }
        assert_eq!(got, (0..window as u8 + 10).collect::<Vec<u8>>());
    }

    #[test]
    fn self_send_works() {
        let (mut a, _b) = pair();
        let req = a.irecv(Some(0), Some(1), 64);
        a.isend(0, 1, vec![42]);
        a.progress();
        assert_eq!(req.take(), Some(vec![42]));
    }
}

#[cfg(test)]
mod segmentation_tests {
    use super::*;
    use crate::api::Mpi;
    use fm_core::device::{LoopbackDevice, LoopbackPair};
    use fm_model::MachineProfile;

    fn pair() -> (Mpi1<LoopbackDevice>, Mpi1<LoopbackDevice>) {
        let (a, b) = LoopbackPair::new(512);
        let p = MachineProfile::sparc_fm1();
        (
            Mpi1::new(Fm1Engine::new(a, p)),
            Mpi1::new(Fm1Engine::new(b, p)),
        )
    }

    fn pump(a: &mut Mpi1<LoopbackDevice>, b: &mut Mpi1<LoopbackDevice>) {
        for _ in 0..6 {
            a.progress();
            b.progress();
            let (fa, fb) = (&mut a.fm, &mut b.fm);
            LoopbackPair::deliver(fa.device_mut(), fb.device_mut());
        }
        a.progress();
        b.progress();
    }

    #[test]
    fn long_message_is_segmented_and_reassembled() {
        // 20 KB: 5 segments of <= 4 KB over FM 1.x's 128 B packets.
        let (mut s, mut r) = pair();
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 253) as u8).collect();
        let req = r.irecv(Some(0), Some(4), 32 * 1024);
        let sreq = s.isend(1, 4, payload.clone());
        for _ in 0..64 {
            pump(&mut s, &mut r);
        }
        assert!(sreq.is_done(), "segmented send completes");
        assert_eq!(req.take(), Some(payload));
        assert_eq!(r.reassembly_in_progress(), 0, "no leaked reassembly state");
    }

    #[test]
    fn segmented_messages_do_not_reorder_with_small_ones() {
        let (mut s, mut r) = pair();
        let big = vec![1u8; 12_000];
        let small = vec![2u8; 10];
        s.isend(1, 6, big.clone());
        s.isend(1, 6, small.clone());
        for _ in 0..64 {
            pump(&mut s, &mut r);
        }
        let r1 = r.irecv(Some(0), Some(6), 32 * 1024);
        let r2 = r.irecv(Some(0), Some(6), 32 * 1024);
        pump(&mut s, &mut r);
        assert_eq!(r1.take(), Some(big), "big sent first, matches first");
        assert_eq!(r2.take(), Some(small));
    }

    #[test]
    fn segmented_unexpected_message_still_delivers() {
        let (mut s, mut r) = pair();
        let payload = vec![9u8; 9_000];
        s.isend(1, 8, payload.clone());
        for _ in 0..64 {
            pump(&mut s, &mut r);
        }
        assert_eq!(r.unexpected_total(), 1, "reassembled then parked once");
        let req = r.irecv(None, None, 16 * 1024);
        assert_eq!(req.take(), Some(payload));
    }

    #[test]
    fn boundary_sizes_round_trip() {
        let (mut s, mut r) = pair();
        for n in [
            MPI1_SEG_PAYLOAD - 1,
            MPI1_SEG_PAYLOAD,
            MPI1_SEG_PAYLOAD + 1,
            2 * MPI1_SEG_PAYLOAD,
        ] {
            let payload = vec![(n % 251) as u8; n];
            let req = r.irecv(Some(0), Some(1), 4 * MPI1_SEG_PAYLOAD);
            s.isend(1, 1, payload.clone());
            for _ in 0..32 {
                pump(&mut s, &mut r);
            }
            assert_eq!(req.take(), Some(payload), "size {n}");
        }
    }
}
