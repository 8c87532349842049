//! One-sided `FM_put` / `FM_get` over registered regions (ROADMAP
//! item 3; DESIGN.md §16).
//!
//! The paper's complaint about FM 1.x is that a contiguous-buffer receive
//! "forces staging buffers and delivery copies"; a one-sided op names its
//! destination up front, so every byte can land where it belongs as its
//! packet arrives. Following the RDMA-write channel of
//! MPICH2-over-InfiniBand (see PAPERS.md), this module has:
//!
//! * a **registered receive-buffer table** — [`OsPort::register`] /
//!   [`OsPort::deregister`] hand out epoch-stamped [`RegionHandle`]s
//!   over windows of a node-local arena (bounds- and overlap-checked)
//!   or over caller-owned buffers;
//! * **one-sided primitives** — [`OsPort::put`] / [`OsPort::put_from`]
//!   / [`OsPort::get`] address a *remote* region by handle + offset and
//!   complete with an [`OsCompletion`] token;
//! * **four packet ops**. PUT carries the region handle + offset + length
//!   and the bytes themselves: the target registered the region
//!   beforehand, so there is nothing to ask. GET names a remote window
//!   and a transfer credit the reply streams into as DATA; DATA is also
//!   what a layered library streams into a credit it was granted out of
//!   band ([`OsPort::grant_from`] / [`OsPort::send_granted`] — MPI-FM's
//!   rendezvous, where the buffer is *not* known in advance). FIN
//!   reports a put's (or a refused get's) outcome to its initiator, and
//!   a pull's to the payload's owner;
//! * **one landing path**: PUT and DATA both arrive through a per-packet
//!   *sink* handler that writes each packet's bytes straight into the
//!   registered destination — one delivery copy, no staging, at every
//!   size;
//! * **a same-host pull**: to a peer its engine knows runs on this host
//!   ([`Fm2Engine::same_host_pid`]), a payload longer than one chunk — a
//!   put's, a get's DATA reply, or DATA into a granted credit — moves no
//!   bytes through FM at all. It leaves as one PULL header naming where
//!   the bytes are; the side that owns the destination reads them out
//!   of the other's memory in one kernel copy (`process_vm_readv`,
//!   checked against the peer's pidfd; `peer_mem.rs`) and answers FIN.
//!   A peer that cannot read this process declines once, and from then
//!   on every payload to it travels as packets;
//! * **an arena peers may share**: a [`fm_sys::SharedMem`], reached only
//!   through ranged copies. A port built [`Onesided::with_arena`] over
//!   one its same-host peers copy into and out of themselves (`shmem-fm`'s
//!   symmetric heap) never pulls: a peer that could not map the arena
//!   could not read this process either.
//!
//! The port keeps no send queue: every put, get, DATA and FIN it sends
//! is an entry in the engine's per-peer send queue (`fm2/send.rs`),
//! beside every other layer's sends. A payload's entry is chunked, one
//! gather message per chunk (op header ⧺ a slice of the source), and a
//! [`OsPort::put_from`]'s or a get reply's body is a pinned region
//! window the port lends when FM admits it. When an entry longer than a
//! chunk reaches the head of a same-host peer's FIFO, the port decides
//! whether it leaves as a PULL, and the first pull to a peer, the probe,
//! waits there for its answer. The protocol core ([`OsCore`] behind
//! [`OsPort`]) takes packets in the port's two sinks; a packet that asks
//! for a pull returns the read it wants, and the sink makes it at once,
//! in FM order, and reports how it went.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::{Rc, Weak};
use std::sync::Arc;

use fm_sys::SharedMem;

use crate::device::NetDevice;
use crate::error::WouldBlock;
use crate::fm2::{
    Body, Fm2Engine, Lender, Queued, Resume, SendQueue, SentFlag, SinkMeta, INLINE_HEAD,
};
use crate::packet::HandlerId;

mod peer_mem;

use peer_mem::PeerMem;

/// Handler id carrying FINs and granted DATA segments. Installed as a
/// per-packet sink.
pub const ONESIDED_HANDLER: HandlerId = HandlerId(140);
/// Handler id carrying puts (header + payload, one message per chunk)
/// and gets (a header alone). Installed as a per-packet sink into the
/// same landing path.
pub const OS_EAGER_HANDLER: HandlerId = HandlerId(141);

/// Bytes of the on-wire op header. Smaller than every profile's MTU, so
/// the header always lands whole in the first packet of its message, and
/// as long as the header a send-queue entry keeps inline.
pub const OP_HDR_BYTES: usize = INLINE_HEAD;

const OP_PUT: u32 = 1;
const OP_DATA: u32 = 4;
const OP_FIN: u32 = 5;
const OP_GET: u32 = 6;
/// A PUT or DATA job as its header alone, the length in `e` and the
/// source's address in `f`: the receiver reads the bytes (same-host
/// pull). It travels on its job's handler, which names its lane.
const OP_PULL: u32 = 7;

/// The size above which a payload is large, everywhere in the stack: a
/// one-sided job longer than this is pulled from a same-host peer (the
/// default [`OnesidedConfig::chunk_bytes`]), an MPI-FM 2.x message
/// longer than this is a rendezvous, and a pipelined collective's
/// segment is this long, so it stays eager.
pub const CHUNK_BYTES: usize = 16 * 1024;

/// Tuning knobs for a one-sided port.
#[derive(Debug, Clone, Copy)]
pub struct OnesidedConfig {
    /// Bytes of node-local arena backing [`OsPort::register`] windows.
    pub arena_bytes: usize,
    /// Payload bytes per PUT / DATA segment (each chunk is one FM
    /// message).
    pub chunk_bytes: usize,
}

impl Default for OnesidedConfig {
    fn default() -> Self {
        OnesidedConfig {
            arena_bytes: 1 << 20,
            chunk_bytes: CHUNK_BYTES,
        }
    }
}

// ----------------------------------------------------------------------
// Wire header
// ----------------------------------------------------------------------

/// The 40-byte op header prefixed to every one-sided message. Field
/// meaning depends on `op`; unused fields are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpHeader {
    op: u32,
    a: u32,
    b: u32,
    c: u32,
    d: u64,
    e: u64,
    f: u64,
}

impl OpHeader {
    fn zero(op: u32) -> Self {
        OpHeader {
            op,
            a: 0,
            b: 0,
            c: 0,
            d: 0,
            e: 0,
            f: 0,
        }
    }

    fn encode(&self) -> [u8; OP_HDR_BYTES] {
        let mut out = [0u8; OP_HDR_BYTES];
        out[0..4].copy_from_slice(&self.op.to_le_bytes());
        out[4..8].copy_from_slice(&self.a.to_le_bytes());
        out[8..12].copy_from_slice(&self.b.to_le_bytes());
        out[12..16].copy_from_slice(&self.c.to_le_bytes());
        out[16..24].copy_from_slice(&self.d.to_le_bytes());
        out[24..32].copy_from_slice(&self.e.to_le_bytes());
        out[32..40].copy_from_slice(&self.f.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < OP_HDR_BYTES {
            return None;
        }
        let u32_at = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().unwrap());
        Some(OpHeader {
            op: u32_at(0),
            a: u32_at(4),
            b: u32_at(8),
            c: u32_at(12),
            d: u64_at(16),
            e: u64_at(24),
            f: u64_at(32),
        })
    }
}

// ----------------------------------------------------------------------
// Public result types
// ----------------------------------------------------------------------

/// Opaque handle to a registered receive region. Handles are
/// epoch-stamped: reusing one after `deregister` is refused with
/// [`OsStatus::Deregistered`], never silently aliased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionHandle {
    /// Slot index in the owner's region table.
    pub index: u32,
    /// Epoch stamp; bumped every time the slot is freed.
    pub epoch: u32,
}

/// Completion token returned by [`OsPort::put`] / [`OsPort::get`];
/// matched against [`OsCompletion::token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OsToken(pub u32);

/// Remote outcome of a one-sided op, reported in its FIN / completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsStatus {
    /// The transfer landed (or was sourced) in full.
    Ok,
    /// The region handle's slot index does not exist at the target.
    BadHandle,
    /// Offset + length exceed the registered region's bounds.
    OutOfBounds,
    /// The handle's epoch is stale: the region was deregistered.
    Deregistered,
    /// The peer died mid-transfer; the op was aborted locally.
    PeerDown,
    /// The FIN of a pull its reader declined. It travels only on the
    /// wire: the declined payload goes again as packets, and no op
    /// completes with it.
    Declined,
}

impl OsStatus {
    fn to_wire(self) -> u32 {
        match self {
            OsStatus::Ok => 0,
            OsStatus::BadHandle => 1,
            OsStatus::OutOfBounds => 2,
            OsStatus::Deregistered => 3,
            OsStatus::PeerDown => 4,
            OsStatus::Declined => u32::MAX,
        }
    }

    /// `None` for a code no status has.
    fn from_wire(v: u32) -> Option<Self> {
        match v {
            0 => Some(OsStatus::Ok),
            1 => Some(OsStatus::BadHandle),
            2 => Some(OsStatus::OutOfBounds),
            3 => Some(OsStatus::Deregistered),
            4 => Some(OsStatus::PeerDown),
            u32::MAX => Some(OsStatus::Declined),
            _ => None,
        }
    }
}

/// Error from a *local* region-table operation, reported immediately
/// (unlike [`OsStatus`], which travels back in a FIN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// Slot index out of range.
    BadHandle,
    /// Window exceeds the arena, region bounds, or is empty.
    OutOfBounds,
    /// Stale epoch: the region was deregistered.
    Deregistered,
    /// The requested arena window overlaps an existing registration.
    Overlap,
    /// The region is pinned by an in-flight transfer and cannot be
    /// deregistered yet — handles never dangle.
    RegionBusy,
}

/// Local notification that a one-sided op finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsCompletion {
    /// Token the op was issued under.
    pub token: OsToken,
    /// Remote (or abort) outcome.
    pub status: OsStatus,
}

// ----------------------------------------------------------------------
// Region table
// ----------------------------------------------------------------------

enum RegionKind {
    /// Window into the node-local arena (overlap-checked).
    Arena { offset: usize, len: usize },
    /// Caller-owned buffer adopted wholesale (overlap-exempt).
    Owned(Vec<u8>),
}

struct Slot {
    epoch: u32,
    kind: Option<RegionKind>,
    pins: u32,
}

struct RegionTable {
    arena: Arc<SharedMem>,
    slots: Vec<Slot>,
    free: Vec<usize>,
}

impl RegionTable {
    fn new(arena: Arc<SharedMem>) -> Self {
        RegionTable {
            arena,
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc_slot(&mut self, kind: RegionKind) -> RegionHandle {
        if let Some(i) = self.free.pop() {
            let s = &mut self.slots[i];
            debug_assert!(s.kind.is_none() && s.pins == 0);
            s.kind = Some(kind);
            RegionHandle {
                index: i as u32,
                epoch: s.epoch,
            }
        } else {
            self.slots.push(Slot {
                epoch: 0,
                kind: Some(kind),
                pins: 0,
            });
            RegionHandle {
                index: (self.slots.len() - 1) as u32,
                epoch: 0,
            }
        }
    }

    fn register(&mut self, offset: usize, len: usize) -> Result<RegionHandle, OsError> {
        if len == 0
            || offset
                .checked_add(len)
                .is_none_or(|end| end > self.arena.len())
        {
            return Err(OsError::OutOfBounds);
        }
        for s in &self.slots {
            if let Some(RegionKind::Arena { offset: o, len: l }) = &s.kind {
                if offset < o + l && *o < offset + len {
                    return Err(OsError::Overlap);
                }
            }
        }
        Ok(self.alloc_slot(RegionKind::Arena { offset, len }))
    }

    fn register_owned(&mut self, buf: Vec<u8>) -> Result<RegionHandle, OsError> {
        if buf.is_empty() {
            return Err(OsError::OutOfBounds);
        }
        Ok(self.alloc_slot(RegionKind::Owned(buf)))
    }

    /// Validate a handle + window without touching data. `OsStatus`
    /// form, for wire-originated accesses.
    fn check(&self, index: u32, epoch: u32, offset: u64, len: u64) -> OsStatus {
        let Some(s) = self.slots.get(index as usize) else {
            return OsStatus::BadHandle;
        };
        if s.epoch != epoch || s.kind.is_none() {
            return OsStatus::Deregistered;
        }
        let rlen = self.region_len(index) as u64;
        if len == 0 || offset.checked_add(len).is_none_or(|end| end > rlen) {
            return OsStatus::OutOfBounds;
        }
        OsStatus::Ok
    }

    /// Like [`check`](Self::check) but reporting a local [`OsError`].
    fn check_local(&self, h: RegionHandle, offset: usize, len: usize) -> Result<(), OsError> {
        match self.check(h.index, h.epoch, offset as u64, len as u64) {
            OsStatus::Ok => Ok(()),
            OsStatus::BadHandle => Err(OsError::BadHandle),
            OsStatus::OutOfBounds => Err(OsError::OutOfBounds),
            _ => Err(OsError::Deregistered),
        }
    }

    fn region_len(&self, index: u32) -> usize {
        match &self.slots[index as usize].kind {
            Some(RegionKind::Arena { len, .. }) => *len,
            Some(RegionKind::Owned(v)) => v.len(),
            None => 0,
        }
    }

    fn deregister(&mut self, h: RegionHandle) -> Result<RegionKind, OsError> {
        let Some(s) = self.slots.get_mut(h.index as usize) else {
            return Err(OsError::BadHandle);
        };
        if s.epoch != h.epoch || s.kind.is_none() {
            return Err(OsError::Deregistered);
        }
        if s.pins > 0 {
            return Err(OsError::RegionBusy);
        }
        let kind = s.kind.take().expect("checked above");
        s.epoch = s.epoch.wrapping_add(1);
        self.free.push(h.index as usize);
        Ok(kind)
    }

    fn pin(&mut self, index: u32) {
        self.slots[index as usize].pins += 1;
    }

    fn unpin(&mut self, index: u32) {
        let s = &mut self.slots[index as usize];
        debug_assert!(s.pins > 0, "unbalanced unpin");
        s.pins = s.pins.saturating_sub(1);
    }

    /// Copy `data` into the region at `offset`. Bounds must have been
    /// validated (the region is pinned, so it cannot have moved).
    fn write(&mut self, index: u32, offset: usize, data: &[u8]) {
        self.with_window_mut(index, offset, data.len(), |w| w.copy_from_slice(data));
    }

    fn read(&self, index: u32, offset: usize, out: &mut [u8]) {
        self.with_window(index, offset, out.len(), |w| out.copy_from_slice(w));
    }

    /// Lend `f` the `len` bytes of the region at `offset` to fill: the
    /// window alone, as peers may copy into the rest of the arena.
    fn with_window_mut<R>(
        &mut self,
        index: u32,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        match self.slots[index as usize].kind.as_mut() {
            Some(RegionKind::Arena { offset: base, .. }) => {
                self.arena.with_range_mut(*base + offset, len, f)
            }
            Some(RegionKind::Owned(v)) => f(&mut v[offset..offset + len]),
            None => panic!("window of freed region"),
        }
    }

    /// Lend `f` the `len` bytes of the region starting at `offset`.
    fn with_window<R>(
        &self,
        index: u32,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        match self.slots[index as usize].kind.as_ref() {
            Some(RegionKind::Arena { offset: base, .. }) => {
                self.arena.with_range(base + offset, len, f)
            }
            Some(RegionKind::Owned(v)) => f(&v[offset..offset + len]),
            None => panic!("window of freed region"),
        }
    }
}

// ----------------------------------------------------------------------
// Protocol core
// ----------------------------------------------------------------------

/// An outstanding initiator-side op. A put is completed by its target's
/// FIN; a get locally, when the credit `reply` names has filled — by
/// DATA packets or by one read.
struct OpState {
    dst: usize,
    reply: Option<GrantKey>,
}

/// Whether a peer the engine knows runs on this host may read this
/// process: how a payload longer than a chunk travels there.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PullPath {
    /// No pull read yet: the next one is the probe, which waits at the
    /// head of the peer's queue for its answer, so a declined probe goes
    /// again as packets ahead of everything issued after it, and puts
    /// still land in issue order.
    Untried,
    /// The peer has read a payload: pull.
    Open,
    /// The peer could not read this process: packets, for the port's
    /// life.
    Closed,
}

/// A read [`OsCore::on_packet`] asks its sink to make: `len` bytes of
/// `peer`'s memory (process `pid`) at `addr`, into this node's region
/// slot `slot` at `offset` — a window `check` has passed, or a live
/// credit's. The sink makes it before any other packet is handled and
/// reports the outcome to [`OsCore::pulled`], which answers the job
/// `(lane, id)` with its FIN.
struct Pull {
    peer: usize,
    pid: u32,
    addr: u64,
    slot: u32,
    offset: usize,
    len: usize,
    lane: Lane,
    id: u32,
}

/// Which id space an id is from: a landing entry's, a payload job's, and
/// the job a FIN answers (`c` on the wire, as numbered here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Lane {
    /// An op token of the sending peer: its puts, and the FIN of any op.
    Op = 0,
    /// A transfer credit the receiving node granted: DATA, and the FIN
    /// of a pulled DATA job.
    Xfer = 1,
}

impl Lane {
    /// The handler a lane's payload travels on, pulled or not.
    fn handler(self) -> HandlerId {
        match self {
            Lane::Op => OS_EAGER_HANDLER,
            Lane::Xfer => ONESIDED_HANDLER,
        }
    }
}

/// What names a landing entry: (sending peer, id space, id).
type GrantKey = (usize, Lane, u32);

/// Where a filled grant reports to.
#[derive(Clone, Copy)]
enum GrantOrigin {
    /// Put target: send FIN(token, status) back to the initiator.
    PutFin { token: u32, status: OsStatus },
    /// Get initiator: complete the local op.
    GetLocal { token: u32 },
    /// Externally granted ([`OsPort::grant_from`]): surface through
    /// [`OsPort::take_grant_complete`].
    External,
}

/// Bytes expected into a region window: the pinned region's slot and
/// the offset in it where they go, or `None` for a put the target
/// refused — its bytes are counted and dropped, so a refused put touches
/// nothing and still ends in one FIN.
struct Grant {
    window: Option<(u32, usize)>,
    len: usize,
    cursor: usize,
    origin: GrantOrigin,
}

/// The protocol state machine. The port's sinks feed it packets
/// ([`OsCore::on_packet`]); what it sends it queues in the engine's send
/// queue, which asks it ([`Lender`]) for window bytes and pull decisions.
struct OsCore {
    cfg: OnesidedConfig,
    regions: RegionTable,
    /// Outstanding initiator-side ops, keyed by token.
    ops: HashMap<u32, OpState>,
    /// Open landing entries: puts part-way in and transfer credits.
    grants: HashMap<GrantKey, Grant>,
    /// In-progress multi-packet messages: (src, msg_seq) → their entry.
    rx: HashMap<(usize, u32), GrantKey>,
    /// The engine's send queue, where everything this port sends waits.
    sendq: Rc<RefCell<SendQueue>>,
    completions: VecDeque<OsCompletion>,
    completed_grants: HashSet<(usize, u32)>,
    /// Bytes the sink copied for the packet in hand, charged to the
    /// engine's memcpy cost model once the sink lets go of the core.
    pending_copy_bytes: u64,
    /// Malformed or unmatchable packets dropped by the protocol.
    protocol_drops: u64,
    next_token: u32,
    next_xfer: Vec<u32>,
    /// Per peer: whether it may read this process.
    pull_path: Vec<PullPath>,
    /// Bytes this node read out of peers' memory.
    pulled_bytes: u64,
    /// This node's payloads whose pull was declined and went as packets.
    pull_declines: u64,
    /// Whether the engine holds a peer `Down`: an op issued to it ends
    /// at once, with nothing queued.
    down: Box<dyn Fn(usize) -> bool>,
}

impl OsCore {
    /// A core over `arena` that sends through `sendq`, every peer's pull
    /// path starting at `path`; `down` says which peers the engine holds
    /// `Down`.
    fn new(
        num_nodes: usize,
        cfg: OnesidedConfig,
        arena: Arc<SharedMem>,
        path: PullPath,
        sendq: Rc<RefCell<SendQueue>>,
        down: Box<dyn Fn(usize) -> bool>,
    ) -> Self {
        OsCore {
            cfg,
            regions: RegionTable::new(arena),
            ops: HashMap::new(),
            grants: HashMap::new(),
            rx: HashMap::new(),
            sendq,
            completions: VecDeque::new(),
            completed_grants: HashSet::new(),
            pending_copy_bytes: 0,
            protocol_drops: 0,
            next_token: 0,
            next_xfer: vec![0; num_nodes.max(1)],
            pull_path: vec![path; num_nodes],
            pulled_bytes: 0,
            pull_declines: 0,
            down,
        }
    }

    fn alloc_token(&mut self) -> u32 {
        loop {
            let t = self.next_token;
            self.next_token = self.next_token.wrapping_add(1);
            if !self.ops.contains_key(&t) {
                return t;
            }
        }
    }

    fn alloc_xfer(&mut self, peer: usize) -> u32 {
        if peer >= self.next_xfer.len() {
            self.next_xfer.resize(peer + 1, 0);
        }
        loop {
            let x = self.next_xfer[peer];
            self.next_xfer[peer] = self.next_xfer[peer].wrapping_add(1);
            if !self.grants.contains_key(&(peer, Lane::Xfer, x)) {
                return x;
            }
        }
    }

    fn complete(&mut self, token: u32, status: OsStatus) {
        self.completions.push_back(OsCompletion {
            token: OsToken(token),
            status,
        });
    }

    /// Queue FIN(id, status) toward `dst`, answering its `lane` job `id`.
    fn fin(&mut self, dst: usize, lane: Lane, id: u32, status: OsStatus) {
        let fin = OpHeader {
            a: id,
            b: status.to_wire(),
            c: lane as u32,
            ..OpHeader::zero(OP_FIN)
        };
        let e = Queued::new(
            ONESIDED_HANDLER,
            &fin.encode(),
            Body::Owned(Vec::new()),
            0,
            None,
        );
        self.sendq.borrow_mut().push_answer(dst, e);
    }

    /// `peer`'s FIN for our pulled payload `(lane, id)`, which waits in
    /// the engine's queue. Declined: `peer` reads nothing more of ours,
    /// and the payload goes again as packets, ahead of everything still
    /// queued for it. Otherwise `peer` read it (`Ok`, which opens the
    /// path) or refused its window, and it is done with. False if no
    /// pulled payload of ours is `(lane, id)`.
    fn pull_answered(&mut self, peer: usize, lane: Lane, id: u32, verdict: OsStatus) -> bool {
        // The payload's id is `a` of its op header: a put's token, or the
        // credit DATA fills.
        let is = |e: &Queued| {
            e.handler == lane.handler() && OpHeader::decode(e.head()).is_some_and(|h| h.a == id)
        };
        let mut q = self.sendq.borrow_mut();
        let Some(e) = q.take_pulled(peer, is) else {
            return false;
        };
        if verdict == OsStatus::Declined {
            q.push_front(peer, e);
            self.pull_path[peer] = PullPath::Closed;
            self.pull_declines += 1;
            return true;
        }
        drop(q);
        if verdict == OsStatus::Ok {
            self.pull_path[peer] = PullPath::Open;
        }
        self.release(&e);
        e.sent.inspect(|s| s.set(true));
        true
    }

    /// Unpin what a queue entry's body pins.
    fn release(&mut self, e: &Queued) {
        if let Body::Window { slot, .. } = e.body {
            self.regions.unpin(slot);
        }
    }

    /// Pin `h` and open a transfer credit for `len` bytes from `peer`
    /// into it at `offset`; returns the credit's xfer id.
    fn open_xfer(
        &mut self,
        peer: usize,
        h: RegionHandle,
        offset: usize,
        len: usize,
        origin: GrantOrigin,
    ) -> Result<u32, OsError> {
        self.regions.check_local(h, offset, len)?;
        self.regions.pin(h.index);
        let xfer = self.alloc_xfer(peer);
        self.grants.insert(
            (peer, Lane::Xfer, xfer),
            Grant {
                window: Some((h.index, offset)),
                len,
                cursor: 0,
                origin,
            },
        );
        Ok(xfer)
    }

    /// Queue `body` for `dst` on `lane`'s handler, each chunk a message
    /// under `hdr` (a get's header goes alone).
    fn push(&mut self, dst: usize, lane: Lane, hdr: OpHeader, body: Body, sent: Option<SentFlag>) {
        let chunk = self.cfg.chunk_bytes.max(1);
        let e = Queued::new(lane.handler(), &hdr.encode(), body, chunk, sent);
        self.sendq.borrow_mut().push(dst, e);
    }

    /// Queue `body` as DATA into `dst`'s credit `xfer`.
    fn send_data(&mut self, dst: usize, xfer: u32, body: Body, sent: Option<SentFlag>) {
        let hdr = OpHeader {
            a: xfer,
            ..OpHeader::zero(OP_DATA)
        };
        self.push(dst, Lane::Xfer, hdr, body, sent);
    }

    // -- initiator-side API ------------------------------------------

    fn put_bytes(&mut self, dst: usize, h: RegionHandle, offset: u64, body: Body) -> OsToken {
        let token = self.alloc_token();
        let len = body.len();
        if len == 0 {
            self.complete(token, OsStatus::Ok);
            return OsToken(token);
        }
        if (self.down)(dst) {
            if let Body::Window { slot, .. } = body {
                self.regions.unpin(slot);
            }
            self.complete(token, OsStatus::PeerDown);
            return OsToken(token);
        }
        self.ops.insert(token, OpState { dst, reply: None });
        let hdr = OpHeader {
            op: OP_PUT,
            a: token,
            b: h.index,
            c: h.epoch,
            d: offset,
            e: len as u64,
            f: 0,
        };
        self.push(dst, Lane::Op, hdr, body, None);
        OsToken(token)
    }

    // -- same-host pulls (send queue side) ------------------------------

    /// The header a pulled entry leaves as: its own, naming its length
    /// and where its body is for the receiver to read.
    fn pull_request(&self, e: &Queued) -> [u8; OP_HDR_BYTES] {
        let src = match &e.body {
            Body::Owned(v) => v.as_ptr() as u64,
            Body::Window { slot, offset, len } => {
                (self.regions).with_window(*slot, *offset, *len, |w| w.as_ptr() as u64)
            }
        };
        let own = OpHeader::decode(e.head()).expect("a queued op's header is whole");
        let pull = OpHeader {
            op: OP_PULL,
            e: e.body.len() as u64,
            f: src,
            ..own
        };
        pull.encode()
    }

    /// The sink made `pull`'s read; `ok` if every byte came. A credit
    /// read in full completes as if its DATA had landed.
    fn pulled(&mut self, pull: Pull, ok: bool) {
        let status = match ok {
            true => {
                self.pulled_bytes += pull.len as u64;
                self.pending_copy_bytes += pull.len as u64;
                if pull.lane == Lane::Xfer {
                    self.grant_filled((pull.peer, Lane::Xfer, pull.id));
                }
                OsStatus::Ok
            }
            false => OsStatus::Declined,
        };
        self.fin(pull.peer, pull.lane, pull.id, status);
    }

    // -- packet ingestion (sink handler) -----------------------------

    /// Take one packet from `src` that came on `lane`'s handler.
    /// `same_host` answers whether the engine knows `src` runs on this
    /// host, and as which pid; it is asked only by a PULL, and a read it
    /// allows comes back for the sink to make.
    fn on_packet(
        &mut self,
        src: usize,
        lane: Lane,
        meta: SinkMeta,
        payload: &[u8],
        same_host: impl FnOnce() -> Option<u32>,
    ) -> Option<Pull> {
        if !meta.first {
            let rxk = (src, meta.msg_seq);
            let Some(&key) = self.rx.get(&rxk) else {
                self.protocol_drops += 1;
                return None;
            };
            self.write_grant(key, payload);
            if meta.last {
                self.rx.remove(&rxk);
            }
            return None;
        }
        let Some(hdr) = OpHeader::decode(payload) else {
            self.protocol_drops += 1;
            return None;
        };
        let body = &payload[OP_HDR_BYTES..];
        let key = match hdr.op {
            OP_FIN => {
                self.on_fin(src, hdr);
                return None;
            }
            OP_GET => {
                self.on_get(src, hdr);
                return None;
            }
            OP_PULL => return self.on_pull(src, lane, hdr, same_host),
            OP_DATA => (src, Lane::Xfer, hdr.a),
            OP_PUT => self.on_put(src, hdr, body)?,
            _ => {
                self.protocol_drops += 1;
                return None;
            }
        };
        self.write_grant(key, body);
        if !meta.last {
            self.rx.insert((src, meta.msg_seq), key);
        }
        None
    }

    /// A pulled job's request, `hdr.a` its id in `lane`. A put's window
    /// that fails `check` is refused as a put's would be, and DATA for
    /// anything but a live credit that nothing has filled is dropped; a
    /// window that passes is read — if `src` is known to share this host
    /// — or declined, and the job comes again as packets. Either way
    /// the request ends in one FIN.
    fn on_pull(
        &mut self,
        src: usize,
        lane: Lane,
        hdr: OpHeader,
        same_host: impl FnOnce() -> Option<u32>,
    ) -> Option<Pull> {
        let id = hdr.a;
        let window = match lane {
            Lane::Op => match self.regions.check(hdr.b, hdr.c, hdr.d, hdr.e) {
                OsStatus::Ok => Ok((hdr.b, hdr.d as usize)),
                refused => Err(refused),
            },
            Lane::Xfer => {
                let credit = self.grants.get(&(src, Lane::Xfer, id));
                let fresh = credit.filter(|g| g.cursor == 0 && g.len as u64 == hdr.e);
                let window = fresh.and_then(|g| g.window);
                self.protocol_drops += window.is_none() as u64;
                window.ok_or(OsStatus::BadHandle)
            }
        };
        let (slot, offset) = match window {
            Ok(window) => window,
            Err(status) => {
                self.fin(src, lane, id, status);
                return None;
            }
        };
        let Some(pid) = same_host() else {
            self.fin(src, lane, id, OsStatus::Declined);
            return None;
        };
        Some(Pull {
            peer: src,
            pid,
            addr: hdr.f,
            slot,
            offset,
            len: hdr.e as usize,
            lane,
            id,
        })
    }

    /// The first packet of one of a put's chunk messages, `body` its
    /// bytes after the header. Returns the landing entry the message
    /// feeds — opened here, region checked and pinned, when the chunk is
    /// the put's first — or `None` when `body` is the whole put: that
    /// lands (or is refused) and answers FIN without entering the table.
    fn on_put(&mut self, src: usize, hdr: OpHeader, body: &[u8]) -> Option<GrantKey> {
        if body.len() as u64 == hdr.e {
            let status = self.regions.check(hdr.b, hdr.c, hdr.d, hdr.e);
            if status == OsStatus::Ok {
                self.regions.write(hdr.b, hdr.d as usize, body);
                self.pending_copy_bytes += body.len() as u64;
            }
            self.fin(src, Lane::Op, hdr.a, status);
            return None;
        }
        let key = (src, Lane::Op, hdr.a);
        if self.grants.contains_key(&key) {
            return Some(key);
        }
        let status = self.regions.check(hdr.b, hdr.c, hdr.d, hdr.e);
        let ok = status == OsStatus::Ok;
        if ok {
            self.regions.pin(hdr.b);
        }
        self.grants.insert(
            key,
            Grant {
                window: ok.then_some((hdr.b, hdr.d as usize)),
                len: hdr.e as usize,
                cursor: 0,
                origin: GrantOrigin::PutFin {
                    token: hdr.a,
                    status,
                },
            },
        );
        Some(key)
    }

    /// A FIN from `src` answering its `c` lane's job `a` with status `b`.
    /// One that cannot be that job's answer is dropped, and the job
    /// stays outstanding.
    fn on_fin(&mut self, src: usize, hdr: OpHeader) {
        let answered = match hdr.c {
            0 => self.on_op_fin(hdr.a, hdr.b),
            1 => self.on_data_fin(src, hdr.a, hdr.b),
            _ => false,
        };
        if !answered {
            self.protocol_drops += 1;
        }
    }

    /// The FIN of our op `token`. A put's carries its verdict, or
    /// declines a pulled put's read; a get's only refuses the get, whose
    /// `Ok` comes from its bytes landing.
    fn on_op_fin(&mut self, token: u32, status: u32) -> bool {
        let Some(op) = self.ops.get_mut(&token) else {
            return true; // the op was aborted: a late FIN
        };
        let dst = op.dst;
        let Some(verdict) = OsStatus::from_wire(status) else {
            return false;
        };
        if verdict == OsStatus::Declined {
            return self.pull_answered(dst, Lane::Op, token, verdict);
        }
        if verdict == OsStatus::Ok && op.reply.is_some() {
            return false;
        }
        let op = self.ops.remove(&token).expect("found above");
        // A put that went as packets was not pulled: nothing to answer.
        self.pull_answered(dst, Lane::Op, token, verdict);
        if let Some(credit) = op.reply {
            self.drop_grant(credit);
        }
        self.complete(token, verdict);
        true
    }

    /// The FIN of our DATA into `peer`'s credit `xfer`, which `peer` was
    /// asked to read.
    fn on_data_fin(&mut self, peer: usize, xfer: u32, status: u32) -> bool {
        let Some(verdict) = OsStatus::from_wire(status) else {
            return false;
        };
        self.pull_answered(peer, Lane::Xfer, xfer, verdict)
    }

    fn on_get(&mut self, src: usize, hdr: OpHeader) {
        let status = self.regions.check(hdr.b, hdr.c, hdr.d, hdr.e);
        if status != OsStatus::Ok {
            self.fin(src, Lane::Op, hdr.a, status);
            return;
        }
        self.regions.pin(hdr.b);
        let from = Body::Window {
            slot: hdr.b,
            offset: hdr.d as usize,
            len: hdr.e as usize,
        };
        self.send_data(src, hdr.f as u32, from, None);
    }

    /// Close a landing entry — filled or abandoned — releasing its pin.
    fn drop_grant(&mut self, key: GrantKey) {
        if let Some((slot, _)) = self.grants.remove(&key).and_then(|g| g.window) {
            self.regions.unpin(slot);
        }
    }

    /// Close the landing entry `key`, which has all its bytes — by
    /// packets or by one read — and report to where it came from.
    fn grant_filled(&mut self, key: GrantKey) {
        let Some(origin) = self.grants.get(&key).map(|g| g.origin) else {
            return;
        };
        self.drop_grant(key);
        match origin {
            GrantOrigin::PutFin { token, status } => self.fin(key.0, Lane::Op, token, status),
            GrantOrigin::GetLocal { token } => {
                self.ops.remove(&token);
                self.complete(token, OsStatus::Ok);
            }
            GrantOrigin::External => {
                self.completed_grants.insert((key.0, key.2));
            }
        }
    }

    fn write_grant(&mut self, key: GrantKey, data: &[u8]) {
        let Some(g) = self.grants.get_mut(&key) else {
            self.protocol_drops += 1;
            return;
        };
        if g.cursor + data.len() > g.len {
            self.protocol_drops += 1;
            return;
        }
        let at = g.window.map(|(slot, offset)| (slot, offset + g.cursor));
        g.cursor += data.len();
        let done = g.cursor == g.len;
        if let Some((slot, at)) = at {
            self.regions.write(slot, at, data);
            self.pending_copy_bytes += data.len() as u64;
        }
        if done {
            self.grant_filled(key);
        }
    }

    // -- peer failure -------------------------------------------------

    /// Abort everything addressed to (or fed by) downed peers: ops
    /// complete with [`OsStatus::PeerDown`] instead of hanging, and this
    /// port's entries still queued for them — a probe among them, which
    /// will never be answered — leave the engine's queue unsent.
    fn abort_peers(&mut self, downed: &[usize]) {
        let dead = |p: usize| downed.contains(&p);
        let aborted: Vec<(u32, OpState)> = self.ops.extract_if(|_, op| dead(op.dst)).collect();
        for (token, op) in aborted {
            if let Some(credit) = op.reply {
                self.drop_grant(credit);
            }
            self.complete(token, OsStatus::PeerDown);
        }
        let gone: Vec<GrantKey> = self.grants.keys().filter(|k| dead(k.0)).copied().collect();
        for key in gone {
            self.drop_grant(key);
        }
        self.rx.retain(|(p, _), _| !dead(*p));
        let sendq = Rc::clone(&self.sendq);
        let mut q = sendq.borrow_mut();
        for &p in downed {
            q.purge(p, |e| {
                let ours = [ONESIDED_HANDLER, OS_EAGER_HANDLER].contains(&e.handler);
                if ours {
                    self.release(e);
                }
                ours
            });
        }
    }
}

/// What the engine's send queue asks of this port.
impl Lender for RefCell<OsCore> {
    fn lend(&self, slot: u32, offset: usize, len: usize, f: &mut Resume) -> Result<(), WouldBlock> {
        self.borrow().regions.with_window(slot, offset, len, f)
    }

    fn release(&self, slot: u32) {
        self.borrow_mut().regions.unpin(slot);
    }

    fn pull(&self, dst: usize, e: &Queued) -> Option<([u8; OP_HDR_BYTES], bool)> {
        let core = self.borrow();
        match core.pull_path[dst] {
            PullPath::Closed => None,
            path => Some((core.pull_request(e), path == PullPath::Untried)),
        }
    }

    fn reset(&self, peer: usize) {
        self.borrow_mut().abort_peers(&[peer]);
    }
}

// ----------------------------------------------------------------------
// OsPort: the shared state handle
// ----------------------------------------------------------------------

/// Clonable handle to a node's one-sided state (region table, ops,
/// grants). All registration and transfer-initiation APIs live here;
/// what they send waits in the engine's send queue for its next pass.
#[derive(Clone)]
pub struct OsPort {
    core: Rc<RefCell<OsCore>>,
}

impl OsPort {
    /// `FM_register`: expose the arena window `[offset, offset+len)`
    /// for remote puts/gets. Refused if out of arena bounds or
    /// overlapping an existing registration.
    pub fn register(&self, offset: usize, len: usize) -> Result<RegionHandle, OsError> {
        self.core.borrow_mut().regions.register(offset, len)
    }

    /// Register a caller-owned buffer as a receive region (used by
    /// layered libraries landing data in their own allocations).
    pub fn register_owned(&self, buf: Vec<u8>) -> Result<RegionHandle, OsError> {
        self.core.borrow_mut().regions.register_owned(buf)
    }

    /// `FM_deregister`: retire a region handle. Refused with
    /// [`OsError::RegionBusy`] while any transfer is pinned on it, so
    /// handles never dangle; the slot's epoch is bumped so stale
    /// handles are detected, not aliased.
    pub fn deregister(&self, h: RegionHandle) -> Result<(), OsError> {
        self.core.borrow_mut().regions.deregister(h).map(|_| ())
    }

    /// Deregister an [`register_owned`](Self::register_owned) region
    /// and recover its buffer.
    pub fn deregister_owned(&self, h: RegionHandle) -> Result<Vec<u8>, OsError> {
        let mut core = self.core.borrow_mut();
        // Refuse (without freeing) if this is an arena region.
        let slot = core.regions.slots.get(h.index as usize);
        if slot
            .is_some_and(|s| s.epoch == h.epoch && matches!(s.kind, Some(RegionKind::Arena { .. })))
        {
            return Err(OsError::BadHandle);
        }
        match core.regions.deregister(h)? {
            RegionKind::Owned(v) => Ok(v),
            RegionKind::Arena { .. } => unreachable!("filtered above"),
        }
    }

    /// Copy into a local registered region (local store).
    pub fn write_local(&self, h: RegionHandle, offset: usize, data: &[u8]) -> Result<(), OsError> {
        let mut core = self.core.borrow_mut();
        core.regions.check_local(h, offset, data.len())?;
        core.regions.write(h.index, offset, data);
        Ok(())
    }

    /// Copy out of a local registered region (local load).
    pub fn read_local(
        &self,
        h: RegionHandle,
        offset: usize,
        out: &mut [u8],
    ) -> Result<(), OsError> {
        let core = self.core.borrow();
        core.regions.check_local(h, offset, out.len())?;
        core.regions.read(h.index, offset, out);
        Ok(())
    }

    /// `FM_put`: copy `data` into the remote region `h` at `offset`.
    /// The payload is captured immediately (the caller's buffer is free
    /// on return) and queued in the engine, whose next pass sends it;
    /// completion arrives as an [`OsCompletion`], and completions of puts
    /// toward one target arrive in issue order.
    pub fn put(&self, dst: usize, h: RegionHandle, offset: u64, data: &[u8]) -> OsToken {
        let body = Body::Owned(data.to_vec());
        self.core.borrow_mut().put_bytes(dst, h, offset, body)
    }

    /// Zero-copy `FM_put`: source the payload from a *local* registered
    /// region instead of copying it. The source region is pinned until
    /// the transfer leaves the node — or, when a same-host target reads
    /// it, until its FIN; steady-state this path allocates nothing.
    pub fn put_from(
        &self,
        dst: usize,
        dst_h: RegionHandle,
        dst_off: u64,
        src_h: RegionHandle,
        src_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        let mut core = self.core.borrow_mut();
        if len > 0 {
            core.regions.check_local(src_h, src_off, len)?;
            core.regions.pin(src_h.index);
        }
        let body = Body::Window {
            slot: src_h.index,
            offset: src_off,
            len,
        };
        Ok(core.put_bytes(dst, dst_h, dst_off, body))
    }

    /// `FM_get`: fetch `len` bytes of remote region `remote_h` at
    /// `remote_off` into the local region `local_h` at `local_off` (the
    /// reply streams into the local region through the sink with no
    /// staging copy).
    pub fn get(
        &self,
        dst: usize,
        remote_h: RegionHandle,
        remote_off: u64,
        local_h: RegionHandle,
        local_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        let mut core = self.core.borrow_mut();
        let token = core.alloc_token();
        if len == 0 {
            core.complete(token, OsStatus::Ok);
            return Ok(OsToken(token));
        }
        if (core.down)(dst) {
            core.regions.check_local(local_h, local_off, len)?;
            core.complete(token, OsStatus::PeerDown);
            return Ok(OsToken(token));
        }
        let origin = GrantOrigin::GetLocal { token };
        let xfer = core.open_xfer(dst, local_h, local_off, len, origin)?;
        let reply = Some((dst, Lane::Xfer, xfer));
        core.ops.insert(token, OpState { dst, reply });
        let hdr = OpHeader {
            op: OP_GET,
            a: token,
            b: remote_h.index,
            c: remote_h.epoch,
            d: remote_off,
            e: len as u64,
            f: xfer as u64,
        };
        // Queued behind the puts to `dst`: a get of a window this port
        // is still putting to must leave after them, or it reads the
        // bytes from before them.
        core.push(dst, Lane::Op, hdr, Body::Owned(Vec::new()), None);
        Ok(OsToken(token))
    }

    /// Grant `src_peer` a transfer credit into local region `h` at
    /// `offset` (out-of-band rendezvous for layered libraries: the
    /// returned xfer id travels in the library's own CTS). Completion
    /// is observed with [`take_grant_complete`](Self::take_grant_complete).
    pub fn grant_from(
        &self,
        src_peer: usize,
        h: RegionHandle,
        offset: usize,
        len: usize,
    ) -> Result<u32, OsError> {
        self.core
            .borrow_mut()
            .open_xfer(src_peer, h, offset, len, GrantOrigin::External)
    }

    /// Stream `data` into a transfer credit previously granted by `dst`
    /// (the counterpart of [`grant_from`](Self::grant_from)); a same-host
    /// `dst` reads it instead, as it reads a put. `sent` is set once this
    /// port holds none of `data`: handed to FM whole, or read by `dst` —
    /// never, if `dst` goes down or restarts first.
    pub fn send_granted(&self, dst: usize, xfer: u32, data: Vec<u8>, sent: Option<SentFlag>) {
        if data.is_empty() {
            sent.inspect(|s| s.set(true));
            return;
        }
        (self.core.borrow_mut()).send_data(dst, xfer, Body::Owned(data), sent);
    }

    /// True once the grant `xfer` from `peer` has been filled; consumes
    /// the completion record.
    pub fn take_grant_complete(&self, peer: usize, xfer: u32) -> bool {
        self.core
            .borrow_mut()
            .completed_grants
            .remove(&(peer, xfer))
    }

    /// Pop the next completion notification, if any.
    pub fn poll_completion(&self) -> Option<OsCompletion> {
        self.core.borrow_mut().completions.pop_front()
    }

    /// Outstanding initiator-side ops (puts/gets not yet completed).
    pub fn pending_ops(&self) -> usize {
        self.core.borrow().ops.len()
    }

    /// Outstanding initiator-side ops addressed to `dst`.
    pub fn pending_ops_to(&self, dst: usize) -> usize {
        let core = self.core.borrow();
        core.ops.values().filter(|op| op.dst == dst).count()
    }

    /// Malformed or unmatchable protocol packets dropped so far.
    pub fn protocol_drops(&self) -> u64 {
        self.core.borrow().protocol_drops
    }

    /// Bytes this port read straight out of same-host peers' memory:
    /// the puts it was the target of, the replies to the gets it issued
    /// and the DATA into credits it granted, where they took the pull
    /// path (module docs).
    pub fn pulled_bytes(&self) -> u64 {
        self.core.borrow().pulled_bytes
    }

    /// Payloads this port sent whose pull was declined — the peer could
    /// not read this process — and that went again as packets. After
    /// the first, every payload to that peer travels as packets for the
    /// port's life.
    pub fn pull_declines(&self) -> u64 {
        self.core.borrow().pull_declines
    }
}

// ----------------------------------------------------------------------
// The port on an FM 2.x engine
// ----------------------------------------------------------------------

/// One-sided port over an [`Fm2Engine`]: put and DATA chunks are
/// gather-sent straight out of the source region (no send staging copy)
/// and land in the destination region through a per-packet sink handler
/// (no receive staging copy) — one delivery copy end to end, zero
/// allocations per message in steady state.
pub struct Onesided<D: NetDevice> {
    fm: Fm2Engine<D>,
    port: OsPort,
}

/// The registration and transfer verbs are [`OsPort`]'s: `os.put(..)`,
/// `os.register(..)`, `os.poll_completion()` go through this.
impl<D: NetDevice> std::ops::Deref for Onesided<D> {
    type Target = OsPort;

    fn deref(&self) -> &OsPort {
        &self.port
    }
}

impl<D: NetDevice + 'static> Onesided<D> {
    /// Attach a one-sided port to `fm` over a fresh arena of
    /// `cfg.arena_bytes` only this process reaches, installing its two
    /// per-packet sinks (control + DATA, and puts).
    ///
    /// # Panics
    /// Panics if the engine already carries a one-sided port: a second
    /// one would take over handler ids 140 and 141 and with them every
    /// packet addressed to the first.
    pub fn new(fm: &Fm2Engine<D>, cfg: OnesidedConfig) -> Self {
        let arena = Arc::new(SharedMem::zeroed(cfg.arena_bytes));
        Self::build(fm, cfg, arena, PullPath::Untried)
    }

    /// Attach a one-sided port over `arena`, which this node's same-host
    /// peers copy into and out of themselves: it never pulls (module
    /// docs). Chunks are [`CHUNK_BYTES`] long. Panics as `new` does.
    pub fn with_arena(fm: &Fm2Engine<D>, arena: Arc<SharedMem>) -> Self {
        let cfg = OnesidedConfig {
            arena_bytes: arena.len(),
            ..OnesidedConfig::default()
        };
        Self::build(fm, cfg, arena, PullPath::Closed)
    }

    fn build(
        fm: &Fm2Engine<D>,
        cfg: OnesidedConfig,
        arena: Arc<SharedMem>,
        path: PullPath,
    ) -> Self {
        for id in [ONESIDED_HANDLER, OS_EAGER_HANDLER] {
            assert!(
                !fm.has_handler(id),
                "handler id {} is taken: this engine already has a one-sided port (ids {} and \
                 {}) and a second would steal its packets; share the first through \
                 `Onesided::port`",
                id.0,
                ONESIDED_HANDLER.0,
                OS_EAGER_HANDLER.0
            );
        }
        let sendq = Rc::clone(&fm.sendq);
        let engine = fm.handle();
        let down = Box::new(move |peer| engine.is_peer_down(peer));
        let core = OsCore::new(fm.num_nodes(), cfg, arena, path, sendq, down);
        let core = Rc::new(RefCell::new(core));
        let lender: Weak<dyn Lender> = Rc::downgrade(&core) as Weak<RefCell<OsCore>>;
        fm.sendq.borrow_mut().lender = Some(lender);
        let mem = Rc::new(RefCell::new(PeerMem::default()));
        for lane in [Lane::Xfer, Lane::Op] {
            let (c, mem, engine) = (Rc::clone(&core), Rc::clone(&mem), fm.handle());
            fm.set_packet_sink(lane.handler(), move |src, meta, payload: &[u8]| {
                let mut core = c.borrow_mut();
                let same_host = || engine.same_host_pid(src);
                // A pull is made here, before the next packet: it lands
                // exactly where its chunks would have.
                if let Some(pull) = core.on_packet(src, lane, meta, payload, same_host) {
                    let read = |into: &mut [u8]| {
                        mem.borrow_mut().read(pull.peer, pull.pid, pull.addr, into)
                    };
                    let ok = core
                        .regions
                        .with_window_mut(pull.slot, pull.offset, pull.len, read);
                    core.pulled(pull, ok);
                }
                let copied = std::mem::take(&mut core.pending_copy_bytes);
                drop(core);
                if copied > 0 {
                    engine.charge_memcpy(copied as usize);
                }
            });
        }
        Onesided {
            fm: fm.clone(),
            port: OsPort { core },
        }
    }
}

impl<D: NetDevice> Onesided<D> {
    /// The shared state handle (registration + transfer APIs). Clone it
    /// freely; the `Onesided` and all clones see the same tables.
    pub fn port(&self) -> OsPort {
        self.port.clone()
    }

    /// End every op to a peer that is down, as its `Down` did (ops
    /// issued to it since complete with [`OsStatus::PeerDown`] too).
    /// Returns `true` when nothing waits in the engine's send queue and
    /// no peer is still to read a DATA payload of this port's
    /// (completions queue for [`OsPort::poll_completion`]). The queued
    /// work moves in the engine's pass, at the end of every `extract`
    /// and in [`Fm2Engine::progress`]: a caller that must see what it
    /// just issued on the wire before it sleeps runs one of those.
    pub fn progress(&mut self) -> bool {
        if self.fm.has_downed_peers() {
            let downed = self.fm.downed_peers();
            self.port.core.borrow_mut().abort_peers(&downed);
        }
        let q = self.port.core.borrow().sendq.clone();
        let q = q.borrow();
        q.is_empty() && q.pulled.is_empty()
    }
}

// ----------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{LoopbackDevice, LoopbackPair, PeerEvent, PeerEventKind};
    use fm_model::MachineProfile;

    const ARENA: usize = 1 << 16;

    fn cfg() -> OnesidedConfig {
        OnesidedConfig {
            arena_bytes: ARENA,
            chunk_bytes: 4 * 1024,
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    struct Pair {
        a: Onesided<LoopbackDevice>,
        b: Onesided<LoopbackDevice>,
    }

    impl Pair {
        fn new() -> Self {
            let (da, db) = LoopbackPair::new(256);
            let fa = Fm2Engine::new(da, MachineProfile::ppro200_fm2());
            let fb = Fm2Engine::new(db, MachineProfile::ppro200_fm2());
            Pair {
                a: Onesided::new(&fa, cfg()),
                b: Onesided::new(&fb, cfg()),
            }
        }

        fn pump_once(&mut self) {
            self.a.progress();
            self.b.progress();
            self.a
                .fm
                .with_device(|x| self.b.fm.with_device(|y| LoopbackPair::deliver(x, y)));
            self.a.fm.extract_all();
            self.b.fm.extract_all();
        }

        fn pump_until(&mut self, mut done: impl FnMut(&mut Self) -> bool) {
            for _ in 0..10_000 {
                self.pump_once();
                if done(self) {
                    return;
                }
            }
            panic!("pump_until: no progress after 10k rounds");
        }

        fn wait_completion(&mut self, on: char, token: OsToken) -> OsStatus {
            let mut got = None;
            self.pump_until(|p| {
                let port = if on == 'a' { p.a.port() } else { p.b.port() };
                while let Some(c) = port.poll_completion() {
                    if c.token == token {
                        got = Some(c.status);
                    }
                }
                got.is_some()
            });
            got.expect("completion observed")
        }
    }

    #[test]
    fn an_op_issued_to_a_peer_held_down_ends_at_once_and_sends_nothing() {
        let p = Pair::new();
        let remote = p.b.register(0, 4096).unwrap();
        let local = p.a.register(0, 4096).unwrap();
        let down = PeerEvent {
            peer: 1,
            kind: PeerEventKind::Down,
            epoch: 0,
        };
        p.a.fm.with_device(|d| d.report(down));
        p.a.fm.progress();
        assert!(p.a.fm.is_peer_down(1));
        let put = p.a.put(1, remote, 0, &pattern(8 * 1024, 1));
        let get = p.a.get(1, remote, 0, local, 0, 64).unwrap();
        assert_eq!(p.a.pending_ops(), 0, "nothing waits on a peer held down");
        p.a.fm.progress();
        p.a.fm.extract_all();
        let stats = p.a.fm.stats();
        assert_eq!(stats.packets_sent + stats.credit_packets_sent, 0);
        let moved =
            p.a.fm
                .with_device(|x| p.b.fm.with_device(|y| LoopbackPair::deliver(x, y)));
        assert_eq!(moved, 0, "a packet left for a peer held down");
        let done: Vec<_> = std::iter::from_fn(|| p.a.poll_completion()).collect();
        let want = [(put, OsStatus::PeerDown), (get, OsStatus::PeerDown)];
        assert_eq!(
            done.iter().map(|c| (c.token, c.status)).collect::<Vec<_>>(),
            want
        );
    }

    #[test]
    #[should_panic(expected = "handler id 140 is taken")]
    fn a_second_port_on_one_engine_is_refused() {
        let (da, _db) = LoopbackPair::new(8);
        let fm = Fm2Engine::new(da, MachineProfile::ppro200_fm2());
        let _first = Onesided::new(&fm, cfg());
        let _second = Onesided::new(&fm, cfg());
    }

    #[test]
    fn register_rejects_out_of_bounds_and_overlap() {
        let p = Pair::new();
        let port = p.a.port();
        assert_eq!(port.register(0, 0), Err(OsError::OutOfBounds));
        assert_eq!(port.register(ARENA - 8, 16), Err(OsError::OutOfBounds));
        let h = port.register(1024, 512).unwrap();
        assert_eq!(port.register(1024, 512), Err(OsError::Overlap));
        assert_eq!(port.register(1535, 8), Err(OsError::Overlap));
        assert_eq!(port.register(512, 600), Err(OsError::Overlap));
        // Adjacent windows are fine.
        let h2 = port.register(1536, 64).unwrap();
        port.deregister(h).unwrap();
        port.deregister(h2).unwrap();
        // Freed window can be re-registered; the reused slot carries a
        // bumped epoch, so the old handle is detectably stale.
        let h3 = port.register(1024, 512).unwrap();
        assert!(h3.index == h.index || h3.index == h2.index);
        assert_ne!((h3.index, h3.epoch), (h.index, h.epoch));
        assert_eq!(port.deregister(h), Err(OsError::Deregistered));
        port.deregister(h3).unwrap();
    }

    #[test]
    fn eager_put_roundtrip() {
        let mut p = Pair::new();
        let dst = p.b.register(0, 4096).unwrap();
        let data = pattern(1000, 7);
        let tok = p.a.put(1, dst, 100, &data);
        assert_eq!(p.wait_completion('a', tok), OsStatus::Ok);
        let mut out = vec![0u8; 1000];
        p.b.port().read_local(dst, 100, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn multi_chunk_put_roundtrip() {
        let mut p = Pair::new();
        let dst = p.b.register(0, 40 * 1024).unwrap();
        let data = pattern(20 * 1024 + 13, 3); // five whole chunks and a runt
        let tok = p.a.put(1, dst, 512, &data);
        assert_eq!(p.wait_completion('a', tok), OsStatus::Ok);
        let mut out = vec![0u8; data.len()];
        p.b.port().read_local(dst, 512, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn put_from_registered_source() {
        let mut p = Pair::new();
        let dst = p.b.register(0, 32 * 1024).unwrap();
        let src = p.a.register(0, 32 * 1024).unwrap();
        let data = pattern(9 * 1024, 5);
        p.a.port().write_local(src, 256, &data).unwrap();
        let tok = p.a.put_from(1, dst, 0, src, 256, data.len()).unwrap();
        assert_eq!(p.wait_completion('a', tok), OsStatus::Ok);
        let mut out = vec![0u8; data.len()];
        p.b.port().read_local(dst, 0, &mut out).unwrap();
        assert_eq!(out, data);
        // Source was unpinned once streamed: deregister succeeds.
        p.a.deregister(src).unwrap();
    }

    #[test]
    fn get_roundtrip() {
        let mut p = Pair::new();
        let remote = p.b.register(0, 32 * 1024).unwrap();
        let local = p.a.register(0, 32 * 1024).unwrap();
        let data = pattern(10 * 1024, 9);
        p.b.port().write_local(remote, 64, &data).unwrap();
        let tok = p.a.get(1, remote, 64, local, 128, data.len()).unwrap();
        assert_eq!(p.wait_completion('a', tok), OsStatus::Ok);
        let mut out = vec![0u8; data.len()];
        p.a.port().read_local(local, 128, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn a_get_issued_after_a_put_reads_the_put() {
        let mut p = Pair::new();
        let remote = p.b.register(0, 60 * 1024).unwrap();
        let local = p.a.register(0, 60 * 1024).unwrap();
        // Fourteen chunks and a runt, more than one credit window, then a
        // get of the same window, both issued before anything moved.
        let data = pattern(56 * 1024 + 13, 17);
        let put = p.a.put(1, remote, 0, &data);
        let get = p.a.get(1, remote, 0, local, 0, data.len()).unwrap();
        let mut seen = Vec::new();
        p.pump_until(|p| {
            seen.extend(p.a.poll_completion());
            seen.len() == 2
        });
        seen.sort_by_key(|c| c.token.0);
        let ok = |token| OsCompletion {
            token,
            status: OsStatus::Ok,
        };
        assert_eq!(seen, [ok(put), ok(get)]);
        let mut out = vec![0u8; data.len()];
        p.a.port().read_local(local, 0, &mut out).unwrap();
        assert!(out == data, "the get read the window from before the put");
    }

    #[test]
    fn error_completions_report_remote_failures() {
        let mut p = Pair::new();
        let real = p.b.register(0, 1024).unwrap();
        // Bad slot index.
        let bogus = RegionHandle {
            index: 99,
            epoch: 0,
        };
        let t1 = p.a.put(1, bogus, 0, &pattern(100, 1));
        assert_eq!(p.wait_completion('a', t1), OsStatus::BadHandle);
        // Out of bounds (one packet, and several chunks to discard).
        let t2 = p.a.put(1, real, 1000, &pattern(100, 2));
        assert_eq!(p.wait_completion('a', t2), OsStatus::OutOfBounds);
        let t3 = p.a.put(1, real, 0, &pattern(8 * 1024, 3));
        assert_eq!(p.wait_completion('a', t3), OsStatus::OutOfBounds);
        let t3 = p.a.put(1, real, u64::MAX - 10, &pattern(8 * 1024, 3));
        assert_eq!(p.wait_completion('a', t3), OsStatus::OutOfBounds);
        // Use after deregister.
        p.b.deregister(real).unwrap();
        let t4 = p.a.put(1, real, 0, &pattern(100, 4));
        assert_eq!(p.wait_completion('a', t4), OsStatus::Deregistered);
        // Get against a deregistered region errors too (FIN path).
        let local = p.a.register(0, 1024).unwrap();
        let t5 = p.a.get(1, real, 0, local, 0, 64).unwrap();
        assert_eq!(p.wait_completion('a', t5), OsStatus::Deregistered);
        p.a.deregister(local).unwrap();
    }

    #[test]
    fn a_fin_that_cannot_answer_its_op_is_dropped() {
        let mut p = Pair::new();
        let remote = p.b.register(0, 4096).unwrap();
        let local = p.a.register(0, 4096).unwrap();
        let data = pattern(64, 3);
        p.b.port().write_local(remote, 0, &data).unwrap();
        // Neither op has left `a`; the FINs `b` injects name them anyway:
        // an Ok for a get whose bytes never came, a decline for a put
        // that was never pulled, and a status no FIN has.
        let get = p.a.get(1, remote, 0, local, 0, data.len()).unwrap();
        let put = p.a.put(1, remote, 1024, &data);
        let fin = |token: OsToken, status: u32| {
            OpHeader {
                a: token.0,
                b: status,
                ..OpHeader::zero(OP_FIN)
            }
            .encode()
        };
        let declined = OsStatus::Declined.to_wire();
        let forged = [fin(get, 0), fin(get, 99), fin(put, declined), fin(put, 99)];
        for f in &forged {
            p.b.fm.try_send_message(0, ONESIDED_HANDLER, &[f]).unwrap();
        }
        p.a.fm
            .with_device(|x| p.b.fm.with_device(|y| LoopbackPair::deliver(x, y)));
        p.a.fm.extract_all();
        assert_eq!(p.a.protocol_drops(), forged.len() as u64);
        assert_eq!(p.a.pending_ops(), 2, "a forged FIN completed an op");
        assert_eq!(p.a.poll_completion(), None);
        // The real answers still complete both.
        let mut seen = Vec::new();
        p.pump_until(|p| {
            seen.extend(p.a.poll_completion());
            seen.len() == 2
        });
        seen.sort_by_key(|c| c.token.0);
        let ok = |token| OsCompletion {
            token,
            status: OsStatus::Ok,
        };
        assert_eq!(seen, [ok(get), ok(put)]);
        let mut out = vec![0u8; data.len()];
        p.a.port().read_local(local, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn deregister_refused_while_pinned_then_allowed() {
        let mut p = Pair::new();
        let dst = p.b.register(0, 32 * 1024).unwrap();
        let src = p.a.register(0, 32 * 1024).unwrap();
        let data = pattern(12 * 1024, 11);
        p.a.port().write_local(src, 0, &data).unwrap();
        let tok = p.a.put_from(1, dst, 0, src, 0, data.len()).unwrap();
        // The source is pinned until the put has left the node.
        assert_eq!(p.a.deregister(src), Err(OsError::RegionBusy));
        assert_eq!(p.wait_completion('a', tok), OsStatus::Ok);
        p.a.deregister(src).unwrap();
        p.b.deregister(dst).unwrap();
    }

    #[test]
    fn completions_arrive_in_issue_order() {
        let mut p = Pair::new();
        let dst = p.b.register(0, 64 * 1024).unwrap();
        // A multi-chunk put, a refused one and two single-packet ones:
        // one FIFO of puts out, one FIFO of FINs back — no overtaking.
        let big = pattern(24 * 1024, 21);
        let small = pattern(256, 22);
        let issued = [
            (p.a.put(1, dst, 0, &big), OsStatus::Ok),
            (p.a.put(1, dst, 60 * 1024, &big), OsStatus::OutOfBounds),
            (p.a.put(1, dst, 32 * 1024, &small), OsStatus::Ok),
            (p.a.put(1, dst, 64 * 1024, &[1]), OsStatus::OutOfBounds),
        ];
        let mut seen = Vec::new();
        p.pump_until(|p| {
            while let Some(c) = p.a.port().poll_completion() {
                seen.push((c.token, c.status));
            }
            seen.len() == issued.len()
        });
        assert_eq!(seen, issued);
        let mut out = vec![0u8; big.len()];
        p.b.port().read_local(dst, 0, &mut out).unwrap();
        assert_eq!(out, big);
        let mut out = vec![0u8; small.len()];
        p.b.port().read_local(dst, 32 * 1024, &mut out).unwrap();
        assert_eq!(out, small);
    }

    #[test]
    fn self_put_and_get() {
        let mut p = Pair::new();
        let region = p.a.register(0, 32 * 1024).unwrap();
        let small = pattern(512, 31);
        let t1 = p.a.put(0, region, 0, &small);
        assert_eq!(p.wait_completion('a', t1), OsStatus::Ok);
        let big = pattern(12 * 1024, 32);
        let t2 = p.a.put(0, region, 1024, &big);
        assert_eq!(p.wait_completion('a', t2), OsStatus::Ok);
        let mut out = vec![0u8; big.len()];
        p.a.port().read_local(region, 1024, &mut out).unwrap();
        assert_eq!(out, big);
        let scratch = p.a.register_owned(vec![0u8; 512]).unwrap();
        let t3 = p.a.get(0, region, 0, scratch, 0, 512).unwrap();
        assert_eq!(p.wait_completion('a', t3), OsStatus::Ok);
        let out = p.a.deregister_owned(scratch).unwrap();
        assert_eq!(out, small);
    }

    #[test]
    fn grant_from_and_send_granted() {
        let mut p = Pair::new();
        // b grants a a transfer into an owned buffer (the mpi-fm
        // rendezvous shape: the xfer id travels out of band).
        let buf = p.b.register_owned(vec![0u8; 8 * 1024]).unwrap();
        let xfer = p.b.port().grant_from(0, buf, 0, 8 * 1024).unwrap();
        let data = pattern(8 * 1024, 41);
        p.a.port().send_granted(1, xfer, data.clone(), None);
        p.pump_until(|p| p.b.port().take_grant_complete(0, xfer));
        let out = p.b.deregister_owned(buf).unwrap();
        assert_eq!(out, data);
    }
}
