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
//! * **four wire ops**. PUT carries the region handle + offset + length
//!   and the bytes themselves: the target registered the region
//!   beforehand, so there is nothing to ask. GET names a remote window
//!   and a transfer credit the reply streams into as DATA; DATA is also
//!   what a layered library streams into a credit it was granted out of
//!   band ([`OsPort::grant_from`] / [`OsPort::send_granted`] — MPI-FM's
//!   rendezvous, where the buffer is *not* known in advance). FIN
//!   reports a put's (or a refused get's) outcome to its initiator;
//! * **one landing path**: PUT and DATA both arrive through a per-packet
//!   *sink* handler that writes each packet's bytes straight into the
//!   registered destination — one delivery copy, no staging, at every
//!   size.
//!
//! The protocol core ([`OsCore`] behind [`OsPort`]) is sans-IO: it
//! consumes packets and emits control frames / send jobs without
//! touching an engine; [`Onesided`] drives it over [`Fm2Engine`]: each
//! chunk of a job is one gather message (op header ⧺ a slice of the
//! source) that [`Fm2Engine::try_send_rest`] resumes until it is out, so
//! the driver's only position is the number of whole chunks sent.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use crate::device::NetDevice;
use crate::fm2::{Fm2Engine, SendStream, SinkMeta};
use crate::packet::HandlerId;

/// Handler id carrying one-sided control traffic (GET/FIN) and granted
/// DATA segments. Installed as a per-packet sink.
pub const ONESIDED_HANDLER: HandlerId = HandlerId(140);
/// Handler id carrying puts (header + payload, one message per chunk).
/// Installed as a per-packet sink into the same landing path.
pub const OS_EAGER_HANDLER: HandlerId = HandlerId(141);

/// Bytes of the on-wire op header. Smaller than every profile's MTU, so
/// the header always lands whole in the first packet of its message.
pub const OP_HDR_BYTES: usize = 40;

const OP_PUT: u32 = 1;
const OP_DATA: u32 = 4;
const OP_FIN: u32 = 5;
const OP_GET: u32 = 6;

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
            chunk_bytes: 16 * 1024,
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
}

impl OsStatus {
    fn to_wire(self) -> u32 {
        match self {
            OsStatus::Ok => 0,
            OsStatus::BadHandle => 1,
            OsStatus::OutOfBounds => 2,
            OsStatus::Deregistered => 3,
            OsStatus::PeerDown => 4,
        }
    }

    fn from_wire(v: u32) -> Self {
        match v {
            1 => OsStatus::BadHandle,
            2 => OsStatus::OutOfBounds,
            3 => OsStatus::Deregistered,
            4 => OsStatus::PeerDown,
            _ => OsStatus::Ok,
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
    arena: Vec<u8>,
    slots: Vec<Slot>,
    free: Vec<usize>,
}

impl RegionTable {
    fn new(arena_bytes: usize) -> Self {
        RegionTable {
            arena: vec![0u8; arena_bytes],
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
        match self.slots[index as usize].kind.as_mut() {
            Some(RegionKind::Arena { offset: base, .. }) => {
                let at = *base + offset;
                self.arena[at..at + data.len()].copy_from_slice(data);
            }
            Some(RegionKind::Owned(v)) => {
                v[offset..offset + data.len()].copy_from_slice(data);
            }
            None => debug_assert!(false, "write to freed region"),
        }
    }

    fn read(&self, index: u32, offset: usize, out: &mut [u8]) {
        out.copy_from_slice(self.slice(index, offset, out.len()));
    }

    /// Borrow `len` bytes of the region starting at `offset`.
    fn slice(&self, index: u32, offset: usize, len: usize) -> &[u8] {
        match self.slots[index as usize].kind.as_ref() {
            Some(RegionKind::Arena { offset: base, .. }) => {
                &self.arena[base + offset..base + offset + len]
            }
            Some(RegionKind::Owned(v)) => &v[offset..offset + len],
            None => panic!("slice of freed region"),
        }
    }
}

// ----------------------------------------------------------------------
// Sans-IO protocol core
// ----------------------------------------------------------------------

/// Source bytes for an outbound job: parked copy or pinned region.
enum JobSrc {
    Owned(Vec<u8>),
    Region { index: u32, offset: usize },
}

/// A payload to stream: chunk-sized FM messages to `handler`, every one
/// under `hdr` — a put's own header (token, handle, offset, length) or
/// DATA tagged with the transfer credit its receiver granted.
struct SendJob {
    dst: usize,
    handler: HandlerId,
    hdr: [u8; OP_HDR_BYTES],
    src: JobSrc,
    len: usize,
    cursor: usize,
}

/// An outstanding initiator-side op. A put is completed by its target's
/// FIN; a get locally, when the credit `reply` names has filled.
struct OpState {
    dst: usize,
    reply: Option<GrantKey>,
}

/// Which id space a landing entry's id is from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Lane {
    /// The token the sending peer issued its put under.
    Put,
    /// A transfer credit this node granted the sending peer.
    Xfer,
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

/// The engine-agnostic protocol state machine. Drivers feed it packets
/// ([`OsCore::on_packet`]) and drain its outbox / job queue.
struct OsCore {
    cfg: OnesidedConfig,
    regions: RegionTable,
    /// Outstanding initiator-side ops, keyed by token.
    ops: HashMap<u32, OpState>,
    /// Open landing entries: puts part-way in and transfer credits.
    grants: HashMap<GrantKey, Grant>,
    /// In-progress multi-packet messages: (src, msg_seq) → their entry.
    rx: HashMap<(usize, u32), GrantKey>,
    /// Control frames awaiting a credit slot on the wire.
    outbox: VecDeque<(usize, OpHeader)>,
    /// Payload jobs awaiting streaming by the driver.
    jobs: VecDeque<SendJob>,
    completions: VecDeque<OsCompletion>,
    completed_grants: HashSet<(usize, u32)>,
    /// Bytes copied by sink handlers, to be charged to the engine's
    /// memcpy cost model by the driver.
    pending_copy_bytes: u64,
    /// Malformed or unmatchable packets dropped by the protocol.
    protocol_drops: u64,
    next_token: u32,
    next_xfer: Vec<u32>,
}

impl OsCore {
    fn new(num_nodes: usize, cfg: OnesidedConfig) -> Self {
        OsCore {
            cfg,
            regions: RegionTable::new(cfg.arena_bytes),
            ops: HashMap::new(),
            grants: HashMap::new(),
            rx: HashMap::new(),
            outbox: VecDeque::new(),
            jobs: VecDeque::new(),
            completions: VecDeque::new(),
            completed_grants: HashSet::new(),
            pending_copy_bytes: 0,
            protocol_drops: 0,
            next_token: 0,
            next_xfer: vec![0; num_nodes.max(1)],
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

    /// Queue FIN(token, status) toward `dst`.
    fn fin(&mut self, dst: usize, token: u32, status: OsStatus) {
        self.outbox.push_back((
            dst,
            OpHeader {
                a: token,
                b: status.to_wire(),
                ..OpHeader::zero(OP_FIN)
            },
        ));
    }

    fn finish_job_src(&mut self, src: &JobSrc) {
        if let JobSrc::Region { index, .. } = src {
            self.regions.unpin(*index);
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

    /// Queue `len` bytes of `src` as DATA into `dst`'s credit `xfer`.
    fn send_data(&mut self, dst: usize, xfer: u32, src: JobSrc, len: usize) {
        self.jobs.push_back(SendJob {
            dst,
            handler: ONESIDED_HANDLER,
            hdr: OpHeader {
                a: xfer,
                ..OpHeader::zero(OP_DATA)
            }
            .encode(),
            src,
            len,
            cursor: 0,
        });
    }

    // -- initiator-side API ------------------------------------------

    fn put_bytes(
        &mut self,
        dst: usize,
        h: RegionHandle,
        offset: u64,
        src: JobSrc,
        len: usize,
    ) -> OsToken {
        let token = self.alloc_token();
        if len == 0 {
            self.finish_job_src(&src);
            self.complete(token, OsStatus::Ok);
            return OsToken(token);
        }
        self.ops.insert(token, OpState { dst, reply: None });
        self.jobs.push_back(SendJob {
            dst,
            handler: OS_EAGER_HANDLER,
            hdr: OpHeader {
                op: OP_PUT,
                a: token,
                b: h.index,
                c: h.epoch,
                d: offset,
                e: len as u64,
                f: 0,
            }
            .encode(),
            src,
            len,
            cursor: 0,
        });
        OsToken(token)
    }

    fn put_from(
        &mut self,
        dst: usize,
        dst_h: RegionHandle,
        dst_off: u64,
        src_h: RegionHandle,
        src_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        if len > 0 {
            self.regions.check_local(src_h, src_off, len)?;
            self.regions.pin(src_h.index);
        }
        Ok(self.put_bytes(
            dst,
            dst_h,
            dst_off,
            JobSrc::Region {
                index: src_h.index,
                offset: src_off,
            },
            len,
        ))
    }

    fn get(
        &mut self,
        dst: usize,
        remote_h: RegionHandle,
        remote_off: u64,
        local_h: RegionHandle,
        local_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        let token = self.alloc_token();
        if len == 0 {
            self.complete(token, OsStatus::Ok);
            return Ok(OsToken(token));
        }
        let origin = GrantOrigin::GetLocal { token };
        let xfer = self.open_xfer(dst, local_h, local_off, len, origin)?;
        let reply = Some((dst, Lane::Xfer, xfer));
        self.ops.insert(token, OpState { dst, reply });
        self.outbox.push_back((
            dst,
            OpHeader {
                op: OP_GET,
                a: token,
                b: remote_h.index,
                c: remote_h.epoch,
                d: remote_off,
                e: len as u64,
                f: xfer as u64,
            },
        ));
        Ok(OsToken(token))
    }

    // -- packet ingestion (sink handler) -----------------------------

    fn on_packet(&mut self, src: usize, meta: SinkMeta, payload: &[u8]) {
        if !meta.first {
            let rxk = (src, meta.msg_seq);
            let Some(&key) = self.rx.get(&rxk) else {
                self.protocol_drops += 1;
                return;
            };
            self.write_grant(key, payload);
            if meta.last {
                self.rx.remove(&rxk);
            }
            return;
        }
        let Some(hdr) = OpHeader::decode(payload) else {
            self.protocol_drops += 1;
            return;
        };
        let body = &payload[OP_HDR_BYTES..];
        let key = match hdr.op {
            OP_FIN => return self.on_fin(hdr),
            OP_GET => return self.on_get(src, hdr),
            OP_DATA => (src, Lane::Xfer, hdr.a),
            OP_PUT => match self.on_put(src, hdr, body) {
                Some(key) => key,
                None => return,
            },
            _ => {
                self.protocol_drops += 1;
                return;
            }
        };
        self.write_grant(key, body);
        if !meta.last {
            self.rx.insert((src, meta.msg_seq), key);
        }
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
            self.fin(src, hdr.a, status);
            return None;
        }
        let key = (src, Lane::Put, hdr.a);
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

    fn on_fin(&mut self, hdr: OpHeader) {
        let token = hdr.a;
        let status = OsStatus::from_wire(hdr.b);
        let Some(op) = self.ops.remove(&token) else {
            return; // duplicate / stale FIN
        };
        if let Some(credit) = op.reply {
            // Gets only receive FINs on error: tear the credit down.
            self.drop_grant(credit);
        }
        self.complete(token, status);
    }

    fn on_get(&mut self, src: usize, hdr: OpHeader) {
        let status = self.regions.check(hdr.b, hdr.c, hdr.d, hdr.e);
        if status != OsStatus::Ok {
            self.fin(src, hdr.a, status);
            return;
        }
        self.regions.pin(hdr.b);
        let from = JobSrc::Region {
            index: hdr.b,
            offset: hdr.d as usize,
        };
        self.send_data(src, hdr.f as u32, from, hdr.e as usize);
    }

    /// Close a landing entry — filled or abandoned — releasing its pin.
    fn drop_grant(&mut self, key: GrantKey) {
        if let Some((slot, _)) = self.grants.remove(&key).and_then(|g| g.window) {
            self.regions.unpin(slot);
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
        let origin = g.origin;
        if let Some((slot, at)) = at {
            self.regions.write(slot, at, data);
            self.pending_copy_bytes += data.len() as u64;
        }
        if done {
            self.drop_grant(key);
            match origin {
                GrantOrigin::PutFin { token, status } => self.fin(key.0, token, status),
                GrantOrigin::GetLocal { token } => {
                    self.ops.remove(&token);
                    self.complete(token, OsStatus::Ok);
                }
                GrantOrigin::External => {
                    self.completed_grants.insert((key.0, key.2));
                }
            }
        }
    }

    // -- peer failure -------------------------------------------------

    /// Abort everything addressed to (or fed by) downed peers: ops
    /// complete with [`OsStatus::PeerDown`] instead of hanging.
    fn abort_peers(&mut self, downed: &[usize]) {
        let dead = |p: usize| downed.contains(&p);
        let tokens: Vec<u32> = self
            .ops
            .iter()
            .filter(|(_, op)| dead(op.dst))
            .map(|(&t, _)| t)
            .collect();
        for t in tokens {
            let op = self.ops.remove(&t).expect("collected above");
            if let Some(credit) = op.reply {
                self.drop_grant(credit);
            }
            self.complete(t, OsStatus::PeerDown);
        }
        let gone: Vec<GrantKey> = self.grants.keys().filter(|k| dead(k.0)).copied().collect();
        for key in gone {
            self.drop_grant(key);
        }
        self.rx.retain(|(p, _), _| !dead(*p));
        self.outbox.retain(|(d, _)| !dead(*d));
        let mut keep = VecDeque::with_capacity(self.jobs.len());
        while let Some(job) = self.jobs.pop_front() {
            if dead(job.dst) {
                self.finish_job_src(&job.src);
            } else {
                keep.push_back(job);
            }
        }
        self.jobs = keep;
    }
}

// ----------------------------------------------------------------------
// OsPort: the shared state handle
// ----------------------------------------------------------------------

/// Clonable handle to a node's one-sided state (region table, ops,
/// grants). All registration and transfer-initiation APIs live here;
/// engine driver ([`Onesided`]) moves its queued work onto the wire.
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
        {
            let slot = core
                .regions
                .slots
                .get(h.index as usize)
                .ok_or(OsError::BadHandle)?;
            if slot.epoch == h.epoch && matches!(slot.kind, Some(RegionKind::Arena { .. })) {
                return Err(OsError::BadHandle);
            }
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
    /// on return); completion arrives as an [`OsCompletion`], and
    /// completions of puts toward one target arrive in issue order.
    pub fn put(&self, dst: usize, h: RegionHandle, offset: u64, data: &[u8]) -> OsToken {
        let src = JobSrc::Owned(data.to_vec());
        self.core
            .borrow_mut()
            .put_bytes(dst, h, offset, src, data.len())
    }

    /// Zero-copy `FM_put`: source the payload from a *local* registered
    /// region instead of copying it. The source region is pinned until
    /// the transfer leaves the node; steady-state this path allocates
    /// nothing.
    pub fn put_from(
        &self,
        dst: usize,
        dst_h: RegionHandle,
        dst_off: u64,
        src_h: RegionHandle,
        src_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        self.core
            .borrow_mut()
            .put_from(dst, dst_h, dst_off, src_h, src_off, len)
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
        self.core
            .borrow_mut()
            .get(dst, remote_h, remote_off, local_h, local_off, len)
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
    /// (the counterpart of [`grant_from`](Self::grant_from)).
    pub fn send_granted(&self, dst: usize, xfer: u32, data: Vec<u8>) {
        if !data.is_empty() {
            let len = data.len();
            self.core
                .borrow_mut()
                .send_data(dst, xfer, JobSrc::Owned(data), len);
        }
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

    /// Malformed or unmatchable protocol packets dropped so far.
    pub fn protocol_drops(&self) -> u64 {
        self.core.borrow().protocol_drops
    }
}

// ----------------------------------------------------------------------
// FM 2.x driver
// ----------------------------------------------------------------------

/// The job being streamed: one FM message per chunk, every chunk under
/// the job's op header. An open message is resumed with
/// [`Fm2Engine::try_send_rest`]; `job.cursor` counts only whole chunks.
struct ActiveSend {
    job: SendJob,
    open: Option<SendStream>,
}

/// One-sided port over an [`Fm2Engine`]: put and DATA chunks are
/// gather-sent straight out of the source region (no send staging copy)
/// and land in the destination region through a per-packet sink handler
/// (no receive staging copy) — one delivery copy end to end, zero
/// allocations per message in steady state.
pub struct Onesided<D: NetDevice> {
    fm: Fm2Engine<D>,
    port: OsPort,
    active: Option<ActiveSend>,
}

/// The registration and transfer verbs are [`OsPort`]'s: `os.put(..)`,
/// `os.register(..)`, `os.poll_completion()` go through this.
impl<D: NetDevice> std::ops::Deref for Onesided<D> {
    type Target = OsPort;

    fn deref(&self) -> &OsPort {
        &self.port
    }
}

impl<D: NetDevice> Onesided<D> {
    /// Attach a one-sided port to `fm`, installing its two per-packet
    /// sinks (control + DATA, and puts).
    ///
    /// # Panics
    /// Panics if the engine already carries a one-sided port: a second
    /// one would take over handler ids 140 and 141 and with them every
    /// packet addressed to the first.
    pub fn new(fm: &Fm2Engine<D>, cfg: OnesidedConfig) -> Self {
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
        let core = Rc::new(RefCell::new(OsCore::new(fm.num_nodes(), cfg)));
        for id in [ONESIDED_HANDLER, OS_EAGER_HANDLER] {
            let c = Rc::clone(&core);
            fm.set_sink_handler(id, move |src, meta, payload| {
                c.borrow_mut().on_packet(src, meta, payload);
            });
        }
        Onesided {
            fm: fm.clone(),
            port: OsPort { core },
            active: None,
        }
    }

    /// The shared state handle (registration + transfer APIs). Clone it
    /// freely; the driver and all clones see the same tables.
    pub fn port(&self) -> OsPort {
        self.port.clone()
    }

    /// Move queued protocol work onto the wire: charge sink copies to
    /// the cost model, abort ops to downed peers, flush control frames
    /// and stream put/DATA jobs as credits allow. Returns `true` when
    /// nothing remains queued (completions queue for
    /// [`OsPort::poll_completion`]).
    /// Call from the transport's pump loop alongside `extract`.
    pub fn progress(&mut self) -> bool {
        self.fm.progress();
        let copied = std::mem::take(&mut self.port.core.borrow_mut().pending_copy_bytes);
        if copied > 0 {
            self.fm.charge_memcpy(copied as usize);
        }
        if self.fm.has_downed_peers() {
            let downed = self.fm.downed_peers();
            if let Some(act) = self.active.take() {
                if downed.contains(&act.job.dst) {
                    self.port.core.borrow_mut().finish_job_src(&act.job.src);
                } else {
                    self.active = Some(act);
                }
            }
            self.port.core.borrow_mut().abort_peers(&downed);
        }
        let mut blocked = false;
        loop {
            let next = self.port.core.borrow_mut().outbox.pop_front();
            let Some((dst, hdr)) = next else { break };
            if self
                .fm
                .try_send_message(dst, ONESIDED_HANDLER, &[&hdr.encode()])
                .is_err()
            {
                self.port.core.borrow_mut().outbox.push_front((dst, hdr));
                blocked = true;
                break;
            }
        }
        while !blocked {
            if self.active.is_none() {
                let Some(job) = self.port.core.borrow_mut().jobs.pop_front() else {
                    break;
                };
                self.active = Some(ActiveSend { job, open: None });
            }
            if self.pump_active() {
                let act = self.active.take().expect("pump_active had an active job");
                self.port.core.borrow_mut().finish_job_src(&act.job.src);
            } else {
                blocked = true;
            }
        }
        let core = self.port.core.borrow();
        !blocked && core.outbox.is_empty() && core.jobs.is_empty() && self.active.is_none()
    }

    /// Stream the active job as far as credits allow. Returns `true`
    /// when the job is fully on the wire.
    fn pump_active(&mut self) -> bool {
        let act = self.active.as_mut().expect("caller checked");
        let fm = &self.fm;
        let core = self.port.core.borrow();
        let chunk_max = core.cfg.chunk_bytes.max(1);
        while act.job.cursor < act.job.len {
            let at = act.job.cursor;
            let clen = chunk_max.min(act.job.len - at);
            let chunk: &[u8] = match &act.job.src {
                JobSrc::Owned(v) => &v[at..at + clen],
                JobSrc::Region { index, offset } => core.regions.slice(*index, offset + at, clen),
            };
            let ss = act.open.get_or_insert_with(|| {
                fm.begin_message(act.job.dst, OP_HDR_BYTES + clen, act.job.handler)
            });
            if fm.try_send_rest(ss, &[&act.job.hdr[..], chunk]).is_err() {
                return false;
            }
            act.open = None;
            act.job.cursor += clen;
        }
        true
    }
}

// ----------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{LoopbackDevice, LoopbackPair};
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
        // one FIFO of jobs out, one FIFO of FINs back — no overtaking.
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
        p.a.port().send_granted(1, xfer, data.clone());
        p.pump_until(|p| p.b.port().take_grant_complete(0, xfer));
        let out = p.b.deregister_owned(buf).unwrap();
        assert_eq!(out, data);
    }
}
