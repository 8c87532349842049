//! Property battery for the one-sided registration table and put path.
//!
//! The region table is the safety core of `fm_core::onesided`: every
//! remote byte lands through it, so a bounds or aliasing mistake is
//! silent remote memory corruption. Seeded batteries pin its
//! contract (case count follows `PROPTEST_CASES`, see
//! `fm_model::rng::env_cases`):
//!
//! 1. random register/deregister interleavings never hand out two live
//!    handles over the same arena byte, and every refusal carries the
//!    documented error;
//! 2. puts against out-of-bounds windows, deregistered handles, and
//!    never-registered slots are refused with the right status *at the
//!    initiator*, and refused puts leave target memory untouched;
//! 3. a region pinned by an in-flight transfer cannot be deregistered
//!    (`RegionBusy`), so handles never dangle — and once the transfer
//!    drains, deregistration succeeds and the stale handle is dead;
//! 4. over mixes of one-byte to multi-chunk puts with refusals
//!    interleaved, the completions of each (initiator, target) pair
//!    arrive in the order the puts were issued;
//! 5. a refused multi-chunk put — whose bytes all still arrive — writes
//!    nothing, trips no protocol drop, and holds no pin afterwards.
//!
//! The same-host pull path (a put, or a get's reply, longer than a
//! chunk, read out of the peer's memory by the side that owns the
//! destination) runs between two engines of this process whose devices
//! report each other on this host, so every read is of this process's
//! own memory:
//!
//! 6. a refused pulled put reads nothing, touches nothing, and ends in
//!    exactly one FIN with the refusal's status;
//! 7. a window served to a pulled get is pinned — `deregister` says
//!    `RegionBusy` — until the reader's FIN, or until the reader goes
//!    down;
//! 8. a peer that cannot be read (its fact names a pid no process can
//!    have) costs one declined pull each way, and every put and get
//!    still lands bit-exact, over packets;
//! 9. a port over an arena its same-host peers map themselves
//!    (`Onesided::with_arena`) pulls nothing and streams every payload.
//!
//! And the wire itself:
//!
//! 10. seeded random and mutated op-header messages fed into a live
//!     port's two sinks panic nothing, write nothing outside the one
//!     registered window, and each malformed one counts in
//!     `protocol_drops` — exactly those, by a model of the header.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use fm_core::device::{DeviceFull, LoopbackDevice, LoopbackPair};
use fm_core::onesided::{ONESIDED_HANDLER, OP_HDR_BYTES, OS_EAGER_HANDLER};
use fm_core::{
    Fm2Engine, FmPacket, NetDevice, Onesided, OnesidedConfig, OsCompletion, OsError, OsPort,
    OsStatus, OsToken, PeerEvent, PeerEventKind, RegionHandle, SimDevice,
};
use fm_model::rng::{env_cases, DetRng};
use fm_model::{MachineProfile, Nanos};
use fm_sys::SharedMem;
use myrinet_sim::{NodeId, Simulation, StepOutcome, Topology};

const SIM_LIMIT: Nanos = Nanos(30_000_000_000);

#[test]
fn prop_register_interleavings_never_alias() {
    const ARENA: usize = 4096;
    let cases = env_cases(192);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x0E51_DE00 ^ case as u64);
        // The network is never run: registration, local reads/writes
        // and deregistration are all node-local operations.
        let port = Cluster::new(2, ARENA, 1024).port(0);
        // Model: every live region remembers the distinct fill byte it
        // wrote at registration time. If any two registrations aliased
        // the same arena byte, the later fill would clobber the earlier
        // one and the sweep below would catch it.
        let mut live: Vec<(RegionHandle, usize, usize, u8)> = Vec::new();
        let mut owned: Vec<(RegionHandle, usize, u8)> = Vec::new();
        let mut dead: Vec<RegionHandle> = Vec::new();
        let mut next_fill = 1u8;
        let mut fill = || {
            let f = next_fill;
            next_fill = if next_fill == u8::MAX {
                1
            } else {
                next_fill + 1
            };
            f
        };
        for op in 0..rng.range_usize(12, 48) {
            match rng.below(6) {
                0..=2 => {
                    // Register a random window: sometimes legal,
                    // sometimes empty, out of bounds, or overlapping.
                    let offset = rng.range_usize(0, ARENA + 64);
                    let len = rng.range_usize(0, 192);
                    let oob = len == 0 || offset + len > ARENA;
                    let overlaps = live
                        .iter()
                        .any(|&(_, o, l, _)| offset < o + l && o < offset + len);
                    match port.register(offset, len) {
                        Ok(h) => {
                            assert!(
                                !oob && !overlaps,
                                "case {case} op {op}: accepted bad window {offset}+{len}"
                            );
                            let f = fill();
                            port.write_local(h, 0, &vec![f; len]).expect("fresh region");
                            live.push((h, offset, len, f));
                        }
                        Err(e) if oob => assert_eq!(e, OsError::OutOfBounds, "case {case}"),
                        Err(e) => {
                            assert!(overlaps, "case {case} op {op}: spurious refusal {e:?}");
                            assert_eq!(e, OsError::Overlap, "case {case}");
                        }
                    }
                }
                3 => {
                    // Adopt an owned buffer (overlap-exempt by design).
                    let len = rng.range_usize(1, 96);
                    let f = fill();
                    let h = port.register_owned(vec![f; len]).expect("owned buffer");
                    owned.push((h, len, f));
                }
                4 => {
                    // Retire a random live region; its handle must be
                    // dead from this moment on.
                    if live.is_empty() && owned.is_empty() {
                        continue;
                    }
                    if !live.is_empty() && (owned.is_empty() || rng.chance(0.5)) {
                        let (h, ..) = live.swap_remove(rng.range_usize(0, live.len()));
                        port.deregister(h).expect("idle region deregisters");
                        dead.push(h);
                    } else {
                        let (h, len, f) = owned.swap_remove(rng.range_usize(0, owned.len()));
                        let buf = port.deregister_owned(h).expect("idle owned deregisters");
                        assert_eq!(buf, vec![f; len], "case {case}: owned buffer corrupted");
                        dead.push(h);
                    }
                }
                _ => {
                    // Poke a dead handle: refused, never aliased — even
                    // if the slot was recycled for a newer region.
                    if dead.is_empty() {
                        continue;
                    }
                    let h = dead[rng.range_usize(0, dead.len())];
                    let e = port.write_local(h, 0, &[0xEE]).expect_err("stale handle");
                    assert_eq!(e, OsError::Deregistered, "case {case}");
                    let e = port.deregister(h).expect_err("stale handle");
                    assert_eq!(e, OsError::Deregistered, "case {case}");
                }
            }
            // Invariant sweep: every live region still holds exactly
            // its own fill.
            for &(h, _, len, f) in &live {
                let mut buf = vec![0u8; len];
                port.read_local(h, 0, &mut buf).expect("live region reads");
                assert!(
                    buf.iter().all(|&b| b == f),
                    "case {case} op {op}: arena region aliased (fill {f})"
                );
            }
            for &(h, len, f) in &owned {
                let mut buf = vec![0u8; len];
                port.read_local(h, 0, &mut buf).expect("owned region reads");
                assert!(
                    buf.iter().all(|&b| b == f),
                    "case {case} op {op}: owned region aliased (fill {f})"
                );
            }
        }
    }
}

/// One scripted put, with its expected fate.
struct PlannedPut {
    dst: usize,
    h: RegionHandle,
    offset: u64,
    data: Vec<u8>,
    expect: OsStatus,
}

/// A simulated cluster with a one-sided port on every node.
struct Cluster {
    sim: Simulation<FmPacket>,
    nodes: Vec<(Fm2Engine<SimDevice>, Onesided<SimDevice>)>,
}

impl Cluster {
    fn new(n: usize, arena_bytes: usize, chunk_bytes: usize) -> Self {
        let profile = MachineProfile::ppro200_fm2();
        let sim = Simulation::new(profile, Topology::single_crossbar(n));
        let cfg = OnesidedConfig {
            arena_bytes,
            chunk_bytes,
        };
        let nodes = (0..n)
            .map(|i| {
                let fm = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(i))), profile);
                let os = Onesided::new(&fm, cfg);
                (fm, os)
            })
            .collect();
        Cluster { sim, nodes }
    }

    fn port(&self, node: usize) -> OsPort {
        self.nodes[node].1.port()
    }

    /// Issue `plans[i]` from node `i`, in order, and run the cluster
    /// until every put has completed with the status its plan expects.
    /// Returns, per node, the indices into its plan in the order their
    /// completions arrived.
    fn run_puts(mut self, case: usize, plans: &[Vec<PlannedPut>]) -> Vec<Vec<usize>> {
        let orders: Vec<Rc<RefCell<Vec<usize>>>> = plans.iter().map(|_| Rc::default()).collect();
        for (i, (fm, mut os)) in self.nodes.drain(..).enumerate() {
            let port = os.port();
            let expected: Vec<(OsToken, OsStatus)> = plans[i]
                .iter()
                .map(|p| (port.put(p.dst, p.h, p.offset, &p.data), p.expect))
                .collect();
            let order = Rc::clone(&orders[i]);
            self.sim.set_program(
                NodeId(i),
                Box::new(move || {
                    fm.extract_all();
                    os.progress();
                    while let Some(c) = port.poll_completion() {
                        let at = expected
                            .iter()
                            .position(|(t, _)| *t == c.token)
                            .expect("known token");
                        assert_eq!(c.status, expected[at].1, "case {case}: wrong status");
                        order.borrow_mut().push(at);
                    }
                    os.progress();
                    // Keep serving the others' puts: a parked node wakes
                    // on arrivals, and the run ends when the wire is quiet.
                    StepOutcome::Wait
                }),
            );
        }
        self.sim.run(Some(SIM_LIMIT));
        let orders: Vec<Vec<usize>> = orders.iter().map(|o| o.borrow().clone()).collect();
        for (order, plan) in orders.iter().zip(plans) {
            assert_eq!(order.len(), plan.len(), "case {case}: puts hung");
        }
        orders
    }
}

/// What node 0's puts aim at on node 1 (whose port is `port`) in the
/// refusal batteries: a live window over the first half of the arena
/// and a deregistered one over the second — so OutOfBounds, Deregistered
/// and BadHandle each have something concrete to be refused by.
struct Target {
    port: OsPort,
    live: RegionHandle,
    live_len: usize,
    dead: RegionHandle,
}

impl Target {
    fn new(port: OsPort, arena: usize) -> Self {
        let live = port.register(0, arena / 2).expect("target window");
        let dead = port.register(arena / 2, arena / 2).expect("doomed window");
        port.deregister(dead).expect("retire doomed window");
        Target {
            port,
            live,
            live_len: arena / 2,
            dead,
        }
    }

    fn accepted(&self, offset: usize, data: Vec<u8>) -> PlannedPut {
        PlannedPut {
            dst: 1,
            h: self.live,
            offset: offset as u64,
            data,
            expect: OsStatus::Ok,
        }
    }

    /// The `i`-th put of a plan, one the target must refuse — how is
    /// drawn from `rng`.
    fn refused(&self, rng: &mut DetRng, i: usize, data: Vec<u8>) -> PlannedPut {
        let bogus = RegionHandle {
            index: 40 + i as u32,
            epoch: 0,
        };
        let (h, offset, expect) = match rng.below(3) {
            0 => (
                self.live,
                self.live_len - data.len() / 2,
                OsStatus::OutOfBounds,
            ),
            1 => (self.dead, 0, OsStatus::Deregistered),
            _ => (bogus, 0, OsStatus::BadHandle),
        };
        PlannedPut {
            dst: 1,
            h,
            offset: offset as u64,
            data,
            expect,
        }
    }

    fn live_bytes(&self) -> Vec<u8> {
        let mut got = vec![0u8; self.live_len];
        self.port
            .read_local(self.live, 0, &mut got)
            .expect("target window readable");
        got
    }
}

#[test]
fn prop_refused_puts_report_errors_and_touch_nothing() {
    const ARENA: usize = 8192;
    const SLOT: usize = 512;
    let cases = env_cases(48);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0xBAD_B075 ^ ((case as u64) << 4));
        // A small chunk so random sizes run from one packet to several
        // chunks without megabytes of traffic.
        let cluster = Cluster::new(2, ARENA, 128);
        let target = Target::new(cluster.port(1), ARENA);

        // Plan the initiator's puts: successful ones land in disjoint
        // 512-byte slots; refused ones probe each failure mode.
        let mut slots: Vec<usize> = (0..target.live_len / SLOT).collect();
        rng.shuffle(&mut slots);
        let mut plan: Vec<PlannedPut> = Vec::new();
        let mut image = vec![0u8; target.live_len];
        for i in 0..rng.range_usize(6, 14) {
            let fill = (i % 250 + 1) as u8;
            let len = rng.range_usize(1, SLOT + 1);
            if rng.below(4) == 0 && !slots.is_empty() {
                let at = slots.pop().expect("nonempty") * SLOT;
                image[at..at + len].fill(fill);
                plan.push(target.accepted(at, vec![fill; len]));
            } else {
                plan.push(target.refused(&mut rng, i, vec![fill; len]));
            }
        }
        cluster.run_puts(case, &[plan, Vec::new()]);

        // The target image: accepted puts landed exactly, refused puts
        // left every other byte zero.
        assert_eq!(target.live_bytes(), image, "case {case}: memory diverged");
    }
}

#[test]
fn prop_completions_arrive_in_issue_order() {
    const N: usize = 3;
    const ARENA: usize = 16 * 1024;
    const CHUNK: usize = 512;
    let cases = env_cases(32);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0xF1F0_0DE2 ^ ((case as u64) << 8));
        let cluster = Cluster::new(N, ARENA, CHUNK);
        // Every node registers its whole arena first thing: slot 0,
        // epoch 0 everywhere.
        let arena = RegionHandle { index: 0, epoch: 0 };
        for node in 0..N {
            assert_eq!(cluster.port(node).register(0, ARENA), Ok(arena));
        }
        // Each node puts at both of the others: one byte, one packet, a
        // few chunks with a runt — three in ten of them out of bounds.
        let mut put = |me: usize, i: usize| {
            let len = match rng.below(3) {
                0 => 1,
                1 => rng.range_usize(2, CHUNK),
                _ => rng.range_usize(CHUNK + 1, 6 * CHUNK),
            };
            let (offset, expect) = match rng.chance(0.3) {
                true => (ARENA - len / 2, OsStatus::OutOfBounds),
                false => (0, OsStatus::Ok),
            };
            PlannedPut {
                dst: (me + 1 + rng.range_usize(0, N - 1)) % N,
                h: arena,
                offset: offset as u64,
                data: vec![(i % 250 + 1) as u8; len],
                expect,
            }
        };
        let plans: Vec<Vec<PlannedPut>> = (0..N)
            .map(|me| (0..8 + 4 * me).map(|i| put(me, i)).collect())
            .collect();
        let orders = cluster.run_puts(case, &plans);
        for (me, (order, plan)) in orders.iter().zip(&plans).enumerate() {
            for dst in (0..N).filter(|&d| d != me) {
                let toward = |at: &usize| plan[*at].dst == dst;
                let seen: Vec<usize> = order.iter().copied().filter(toward).collect();
                let issued: Vec<usize> = (0..plan.len()).filter(toward).collect();
                assert_eq!(seen, issued, "case {case}: {me} -> {dst} out of order");
            }
        }
    }
}

#[test]
fn prop_refused_multi_chunk_put_touches_nothing_and_releases_its_pin() {
    const ARENA: usize = 8192;
    const CHUNK: usize = 256;
    let cases = env_cases(32);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x0DD5_CA4D ^ ((case as u64) << 4));
        let cluster = Cluster::new(2, ARENA, CHUNK);
        let target = Target::new(cluster.port(1), ARENA);
        // The window is not zero to begin with: a refused byte that
        // landed anywhere would show.
        let image: Vec<u8> = (0..target.live_len).map(|i| (i % 199) as u8 + 1).collect();
        target
            .port
            .write_local(target.live, 0, &image)
            .expect("prefill");

        // Refused puts of two to eight chunks — every byte of each still
        // arrives and must be counted and dropped — with an accepted
        // rewrite of the prefill after each, so a refusal that left a
        // landing entry behind would corrupt or stall what follows.
        let mut plan = Vec::new();
        for i in 0..rng.range_usize(3, 9) {
            let len = rng.range_usize(CHUNK + 1, 8 * CHUNK);
            plan.push(target.refused(&mut rng, i, vec![0xEE; len]));
            let at = rng.range_usize(0, target.live_len - 4 * CHUNK);
            let len = rng.range_usize(1, 4 * CHUNK);
            plan.push(target.accepted(at, image[at..at + len].to_vec()));
        }
        cluster.run_puts(case, &[plan, Vec::new()]);

        assert_eq!(target.live_bytes(), image, "case {case}: a refusal wrote");
        assert_eq!(target.port.protocol_drops(), 0, "case {case}");
        let released = target.port.deregister(target.live);
        assert_eq!(released, Ok(()), "case {case}: a refusal kept its pin");
    }
}

#[test]
fn prop_pinned_region_cannot_be_deregistered() {
    let cases = env_cases(24);
    // Across the battery at least one attempt must catch the region
    // mid-transfer; per case the transfer can be too fast to observe.
    let busy_seen = Rc::new(Cell::new(0u64));
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0x0917_11ED ^ case as u64);
        let len = rng.range_usize(8 * 1024, 24 * 1024);
        let profile = MachineProfile::ppro200_fm2();
        let mut sim = Simulation::new(profile, Topology::single_crossbar(2));
        let cfg = OnesidedConfig {
            arena_bytes: 32 * 1024,
            chunk_bytes: 1024,
        };

        let put_done = Rc::new(Cell::new(false));
        {
            let fm = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), profile);
            let mut os = Onesided::new(&fm, cfg);
            let port = os.port();
            let token = port.put(1, RegionHandle { index: 0, epoch: 0 }, 0, &vec![0x5A; len]);
            let put_done = Rc::clone(&put_done);
            sim.set_program(
                NodeId(0),
                Box::new(move || {
                    fm.extract_all();
                    os.progress();
                    if let Some(c) = port.poll_completion() {
                        assert_eq!(c.token, token);
                        assert_eq!(c.status, OsStatus::Ok, "case {case}: put failed");
                        put_done.set(true);
                        return StepOutcome::Done;
                    }
                    os.progress();
                    StepOutcome::Wait
                }),
            );
        }

        let dereg_ok = Rc::new(Cell::new(false));
        {
            let fm = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), profile);
            let mut os = Onesided::new(&fm, cfg);
            let port = os.port();
            let h = port.register(0, len).expect("target region");
            let dereg_ok = Rc::clone(&dereg_ok);
            let busy_seen = Rc::clone(&busy_seen);
            sim.set_program(
                NodeId(1),
                Box::new(move || {
                    fm.extract_all();
                    os.progress();
                    let mut probe = [0u8; 1];
                    port.read_local(h, 0, &mut probe).expect("live probe");
                    if probe[0] == 0 {
                        // Transfer not started: leave the region alone
                        // (deregistering now would legitimately succeed
                        // and the put would be refused).
                        return StepOutcome::Wait;
                    }
                    let mut last = [0u8; 1];
                    port.read_local(h, len - 1, &mut last).expect("live probe");
                    match port.deregister(h) {
                        Ok(()) => {
                            // Success implies no pins: the transfer must
                            // have fully landed first — never dangle.
                            assert_eq!(last[0], 0x5A, "case {case}: deregistered mid-transfer");
                            let e = port.write_local(h, 0, &[0]).expect_err("stale handle");
                            assert_eq!(e, OsError::Deregistered, "case {case}");
                            // The slot is reusable immediately, under a
                            // fresh epoch.
                            let h2 = port.register(0, len).expect("slot recycles");
                            assert_eq!(h2.index, h.index, "case {case}");
                            assert_ne!(h2.epoch, h.epoch, "case {case}");
                            dereg_ok.set(true);
                            return StepOutcome::Done;
                        }
                        Err(e) => {
                            assert_eq!(e, OsError::RegionBusy, "case {case}: wrong refusal");
                            assert_ne!(last[0], 0x5A, "case {case}: busy after transfer drained");
                            busy_seen.set(busy_seen.get() + 1);
                        }
                    }
                    StepOutcome::Wait
                }),
            );
        }
        sim.run(Some(SIM_LIMIT));
        assert!(put_done.get(), "case {case}: put never completed");
        assert!(dereg_ok.get(), "case {case}: deregister never succeeded");
    }
    assert!(
        busy_seen.get() > 0,
        "battery never observed RegionBusy mid-transfer"
    );
}

// ----------------------------------------------------------------------
// The same-host pull path
// ----------------------------------------------------------------------

fn event(peer: usize, kind: PeerEventKind) -> PeerEvent {
    PeerEvent {
        peer,
        kind,
        epoch: 0,
    }
}

/// Two engines of this process, each told the other runs as `pid`, over
/// a link that carries the packets fm-shm's default ring slot does.
/// Packets move only when the test says so.
struct PullPair {
    fm: [Fm2Engine<LoopbackDevice>; 2],
    os: [Onesided<LoopbackDevice>; 2],
    /// Node 0's completions, in the order they arrived.
    completed: Vec<OsToken>,
}

impl PullPair {
    fn new(pid: u32, arena_bytes: usize, chunk_bytes: usize) -> Self {
        let cfg = OnesidedConfig {
            arena_bytes,
            chunk_bytes,
        };
        Self::over(pid, |_, fm| Onesided::new(fm, cfg))
    }

    /// The pair with each node's port built by `port(node, engine)`.
    fn over(
        pid: u32,
        port: impl Fn(usize, &Fm2Engine<LoopbackDevice>) -> Onesided<LoopbackDevice>,
    ) -> Self {
        let (a, b) = LoopbackPair::new(1024);
        let fm = [a, b].map(|mut dev| {
            let peer = 1 - dev.node_id();
            dev.report(event(peer, PeerEventKind::SameHost { pid }));
            dev.report(event(peer, PeerEventKind::Link { max_payload: 4072 }));
            Fm2Engine::new(dev, MachineProfile::ppro200_fm2())
        });
        let os = [0, 1].map(|node| port(node, &fm[node]));
        PullPair {
            fm,
            os,
            completed: Vec::new(),
        }
    }

    fn port(&self, node: usize) -> OsPort {
        self.os[node].port()
    }

    /// Move every queued packet across, both ways.
    fn deliver(&self) {
        let [a, b] = &self.fm;
        a.with_device(|x| b.with_device(|y| LoopbackPair::deliver(x, y)));
    }

    /// `node` takes what has arrived and puts what it queued on the wire.
    fn turn(&mut self, node: usize) {
        self.fm[node].extract_all();
        self.os[node].progress();
    }

    /// Pump both nodes until node 0 has seen a completion for every one
    /// of `tokens` and has nothing outstanding, then a while longer, so
    /// a second completion for any op would show. Returns what each
    /// token completed with.
    fn complete(&mut self, tokens: &[OsToken]) -> HashMap<OsToken, Vec<OsStatus>> {
        let mut seen: HashMap<OsToken, Vec<OsStatus>> = HashMap::new();
        let mut settle = None;
        for round in 0..10_000 {
            self.turn(0);
            self.turn(1);
            self.deliver();
            while let Some(c) = self.os[0].poll_completion() {
                seen.entry(c.token).or_default().push(c.status);
                self.completed.push(c.token);
            }
            let done = tokens.iter().all(|t| seen.contains_key(t)) && self.os[0].pending_ops() == 0;
            match settle {
                None if done => settle = Some(round + 8),
                Some(end) if round == end => return seen,
                _ => {}
            }
        }
        panic!("pull pair: ops never completed");
    }
}

#[test]
fn prop_refused_pulled_put_touches_nothing_and_ends_in_one_fin() {
    const ARENA: usize = 64 * 1024;
    const CHUNK: usize = 1024;
    for case in 0..env_cases(32) {
        let mut rng = DetRng::seed_from_u64(0x9011_ED00 ^ ((case as u64) << 4));
        let mut pair = PullPair::new(std::process::id(), ARENA, CHUNK);
        let target = Target::new(pair.port(1), ARENA);
        let image: Vec<u8> = (0..target.live_len).map(|i| (i % 197) as u8 + 1).collect();
        target
            .port
            .write_local(target.live, 0, &image)
            .expect("prefill");

        // Refused pulls, each followed by an accepted one that rewrites
        // part of the prefill with itself: a refusal that read anything,
        // or left a pin or a landing entry behind, shows in the image,
        // the FIN count or the deregistration below.
        let mut plan = Vec::new();
        let mut accepted_bytes = 0;
        for i in 0..rng.range_usize(3, 9) {
            let len = rng.range_usize(CHUNK + 1, 8 * CHUNK);
            plan.push(target.refused(&mut rng, i, vec![0xEE; len]));
            let len = rng.range_usize(CHUNK + 1, 4 * CHUNK);
            let at = rng.range_usize(0, target.live_len - len);
            plan.push(target.accepted(at, image[at..at + len].to_vec()));
            accepted_bytes += len as u64;
        }
        let initiator = pair.port(0);
        let issued: Vec<(OsToken, OsStatus)> = plan
            .iter()
            .map(|p| (initiator.put(p.dst, p.h, p.offset, &p.data), p.expect))
            .collect();
        let tokens: Vec<OsToken> = issued.iter().map(|&(t, _)| t).collect();
        let seen = pair.complete(&tokens);

        for (t, want) in &issued {
            assert_eq!(
                seen[t],
                vec![*want],
                "case {case}: one FIN, with its status"
            );
        }
        assert_eq!(target.live_bytes(), image, "case {case}: a refusal wrote");
        assert_eq!(
            target.port.pulled_bytes(),
            accepted_bytes,
            "case {case}: the accepted puts, and only they, were read"
        );
        assert_eq!(initiator.pull_declines(), 0, "case {case}");
        assert_eq!(target.port.protocol_drops(), 0, "case {case}");
        let released = target.port.deregister(target.live);
        assert_eq!(released, Ok(()), "case {case}: a refusal kept its pin");
    }
}

#[test]
fn prop_a_window_served_to_a_pulled_get_is_pinned_until_the_fin_or_down() {
    const ARENA: usize = 64 * 1024;
    const CHUNK: usize = 1024;
    for case in 0..env_cases(32) {
        let mut rng = DetRng::seed_from_u64(0x1E47_0000 ^ ((case as u64) << 4));
        let mut pair = PullPair::new(std::process::id(), ARENA, CHUNK);
        let (initiator, target) = (pair.port(0), pair.port(1));
        let len = rng.range_usize(CHUNK + 1, 16 * CHUNK);
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + case) as u8).collect();
        let window = match rng.chance(0.5) {
            true => target.register_owned(data.clone()).expect("owned window"),
            false => {
                let h = target
                    .register(rng.range_usize(0, ARENA - len), len)
                    .expect("arena window");
                target.write_local(h, 0, &data).expect("fill window");
                h
            }
        };
        let local = initiator.register(0, len).expect("local window");
        let token = initiator.get(1, window, 0, local, 0, len).expect("get");

        // The GET goes out; the target pins the window and answers with
        // a PULL naming its address.
        pair.turn(0);
        pair.deliver();
        pair.turn(1);
        let busy = Err(OsError::RegionBusy);
        assert_eq!(
            target.deregister(window),
            busy,
            "case {case}: served window freed"
        );
        if rng.chance(0.5) {
            // The initiator reads the window and completes at once; the
            // window stays pinned until its FIN arrives.
            pair.deliver();
            pair.turn(0);
            let done = initiator
                .poll_completion()
                .expect("the read completed the get");
            assert_eq!(
                (done.token, done.status),
                (token, OsStatus::Ok),
                "case {case}"
            );
            let mut got = vec![0u8; len];
            initiator.read_local(local, 0, &mut got).expect("read back");
            assert_eq!(got, data, "case {case}: the pull read the wrong bytes");
            assert_eq!(initiator.pulled_bytes(), len as u64, "case {case}");
            assert_eq!(
                target.deregister(window),
                busy,
                "case {case}: freed before the FIN"
            );
            pair.deliver();
            pair.turn(1);
        } else {
            // The initiator goes down before it reads.
            pair.fm[1].with_device(|d| d.report(event(0, PeerEventKind::Down)));
            pair.turn(1);
        }
        assert_eq!(
            target.deregister(window),
            Ok(()),
            "case {case}: the pin outlived it"
        );
        assert_eq!(target.protocol_drops(), 0, "case {case}");
    }
}

#[test]
fn a_pulled_put_from_keeps_its_source_pinned_until_the_fin() {
    let mut pair = PullPair::new(std::process::id(), 64 * 1024, 1024);
    let (initiator, target) = (pair.port(0), pair.port(1));
    let src = initiator.register(0, 8 * 1024).expect("source");
    let dst = target.register(0, 8 * 1024).expect("destination");
    let data: Vec<u8> = (0..8 * 1024).map(|i| (i % 241) as u8).collect();
    initiator.write_local(src, 0, &data).expect("fill source");
    let token = initiator
        .put_from(1, dst, 0, src, 0, data.len())
        .expect("put_from");
    // The request leaves as one header; the target reads, then FINs.
    pair.turn(0);
    assert_eq!(initiator.deregister(src), Err(OsError::RegionBusy));
    pair.deliver();
    pair.turn(1);
    assert_eq!(target.pulled_bytes(), data.len() as u64);
    assert_eq!(
        initiator.deregister(src),
        Err(OsError::RegionBusy),
        "pinned until the FIN"
    );
    pair.deliver();
    pair.turn(0);
    let done = initiator
        .poll_completion()
        .expect("the FIN completed the put");
    assert_eq!((done.token, done.status), (token, OsStatus::Ok));
    initiator
        .deregister(src)
        .expect("the FIN unpinned the source");
    let mut got = vec![0u8; data.len()];
    target.read_local(dst, 0, &mut got).expect("read back");
    assert_eq!(got, data);
}

/// One past the largest pid the kernel hands out: no process has it, so
/// the open of its memory fails, as it does for a peer the ptrace policy
/// hides.
fn unreadable_pid() -> u32 {
    let pid_max: u32 = std::fs::read_to_string("/proc/sys/kernel/pid_max")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1 << 22);
    pid_max + 1
}

#[test]
fn an_unreadable_peer_declines_once_and_everything_lands_over_packets() {
    const KIB: usize = 1024;
    let ours = |seed: usize, len: usize| -> Vec<u8> {
        (0..len).map(|i| ((i * 13 + seed) % 251) as u8).collect()
    };
    for gets_first in [false, true] {
        let mut pair = PullPair::new(
            unreadable_pid(),
            1 << 20,
            OnesidedConfig::default().chunk_bytes,
        );
        let (initiator, target) = (pair.port(0), pair.port(1));
        let [mine, theirs] = [&initiator, &target].map(|p| p.register(0, 1 << 20).expect("arena"));
        let remote = ours(7, 320 * KIB);
        target
            .write_local(theirs, 512 * KIB, &remote)
            .expect("fill");
        // The last put is short and lands inside the 256 KiB one's window,
        // issued right after it: the window must end up holding its bytes.
        let puts = [
            (0, ours(1, 64 * KIB)),
            (64 * KIB, ours(2, 256 * KIB)),
            (100 * KIB + 3, ours(3, 2 * KIB)),
        ];
        let gets = [(512 * KIB, 64 * KIB), (576 * KIB, 256 * KIB)];
        let mut tokens = Vec::new();
        let mut put_tokens = Vec::new();
        for phase in [gets_first, !gets_first] {
            if phase {
                for &(at, len) in &gets {
                    tokens.push(
                        initiator
                            .get(1, theirs, at as u64, mine, at, len)
                            .expect("get"),
                    );
                }
            } else {
                for (at, data) in &puts {
                    put_tokens.push(initiator.put(1, theirs, *at as u64, data));
                }
                tokens.extend(&put_tokens);
            }
        }
        let seen = pair.complete(&tokens);
        for t in &tokens {
            assert_eq!(seen[t], vec![OsStatus::Ok], "gets first: {gets_first}");
        }
        let mut image = vec![0u8; 320 * KIB];
        for (at, data) in &puts {
            image[*at..*at + data.len()].copy_from_slice(data);
        }
        let mut got = vec![0u8; image.len()];
        target.read_local(theirs, 0, &mut got).expect("read back");
        assert!(got == image, "gets first: {gets_first}: the puts diverged");
        let put_order: Vec<OsToken> = (pair.completed.iter())
            .filter(|t| put_tokens.contains(t))
            .copied()
            .collect();
        assert_eq!(put_order, put_tokens, "gets first: {gets_first}");
        let mut got = vec![0u8; remote.len()];
        initiator
            .read_local(mine, 512 * KIB, &mut got)
            .expect("read back");
        assert!(got == remote, "gets first: {gets_first}: gets diverged");
        // Each side owns a payload the other cannot read: the puts, and
        // the gets' replies.
        for port in [&initiator, &target] {
            assert_eq!(port.pulled_bytes(), 0, "gets first: {gets_first}");
            assert_eq!(port.protocol_drops(), 0, "gets first: {gets_first}");
            assert!(port.pull_declines() >= 1, "gets first: {gets_first}");
        }
    }
}

#[test]
fn a_port_over_a_shared_arena_streams_every_payload() {
    // Two engines of this process that know each other on this host, as
    // in-process PEs do, each over an arena its peer could map: nothing
    // is pulled either way, and every put and get lands over packets.
    const KIB: usize = 1024;
    let arenas = [0, 1].map(|_| Arc::new(SharedMem::memfd(1 << 20).expect("memfd arena")));
    let mut pair = PullPair::over(std::process::id(), |node, fm| {
        Onesided::with_arena(fm, Arc::clone(&arenas[node]))
    });
    let (initiator, target) = (pair.port(0), pair.port(1));
    let [mine, theirs] = [&initiator, &target].map(|p| p.register(0, 1 << 20).expect("arena"));
    let remote: Vec<u8> = (0..64 * KIB).map(|i| (i % 241) as u8).collect();
    target
        .write_local(theirs, 512 * KIB, &remote)
        .expect("fill");
    let puts = [(0, 64 * KIB), (64 * KIB, 256 * KIB)].map(|(at, len)| {
        let data: Vec<u8> = (0..len).map(|i| ((i * 7 + at) % 251) as u8).collect();
        (at, data)
    });
    let mut tokens: Vec<OsToken> = puts
        .iter()
        .map(|(at, data)| initiator.put(1, theirs, *at as u64, data))
        .collect();
    tokens.push(
        initiator
            .get(1, theirs, 512 * KIB as u64, mine, 0, remote.len())
            .expect("get"),
    );
    let seen = pair.complete(&tokens);
    for t in &tokens {
        assert_eq!(seen[t], vec![OsStatus::Ok]);
    }
    for (at, data) in &puts {
        let mut got = vec![0u8; data.len()];
        arenas[1].read(*at, &mut got);
        assert!(got == *data, "put at {at} diverged");
    }
    let mut got = vec![0u8; remote.len()];
    arenas[0].read(0, &mut got);
    assert!(got == remote, "the get diverged");
    for port in [&initiator, &target] {
        assert_eq!(port.pulled_bytes(), 0);
        assert_eq!(port.pull_declines(), 0);
        assert_eq!(port.protocol_drops(), 0);
    }
}

// ----------------------------------------------------------------------
// One queue per peer
// ----------------------------------------------------------------------

/// One node of [`Mesh`]: a packet is in its destination's inbox the
/// moment it is sent, and the NIC never holds one back.
struct MeshDevice {
    node: usize,
    inboxes: Rc<RefCell<Vec<VecDeque<FmPacket>>>>,
    events: VecDeque<PeerEvent>,
}

impl NetDevice for MeshDevice {
    fn node_id(&self) -> usize {
        self.node
    }
    fn num_nodes(&self) -> usize {
        self.inboxes.borrow().len()
    }
    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        self.inboxes.borrow_mut()[pkt.header.dst as usize].push_back(pkt);
        Ok(())
    }
    fn try_recv(&mut self) -> Option<FmPacket> {
        self.inboxes.borrow_mut()[self.node].pop_front()
    }
    fn send_space(&self) -> usize {
        1 << 20
    }
    fn now(&self) -> Nanos {
        Nanos::ZERO
    }
    fn charge(&mut self, _cost: Nanos) {}
    fn poll_event(&mut self) -> Option<PeerEvent> {
        self.events.pop_front()
    }
}

/// `n` engines of this process on one switch, each with a port over a
/// 1 MiB arena registered whole (so `ARENA` names it on every node). A
/// node the test never turns takes in nothing and returns no credit:
/// the window toward it closes, and a pull probe to it is never
/// answered.
struct Mesh {
    fm: Vec<Fm2Engine<MeshDevice>>,
    os: Vec<Onesided<MeshDevice>>,
}

const ARENA: RegionHandle = RegionHandle { index: 0, epoch: 0 };

impl Mesh {
    /// With `same_host`, every node is told the others run on its host,
    /// as this process.
    fn new(n: usize, same_host: bool) -> Self {
        let inboxes = Rc::new(RefCell::new(vec![VecDeque::new(); n]));
        let cfg = OnesidedConfig {
            arena_bytes: 1 << 20,
            ..OnesidedConfig::default()
        };
        let pid = std::process::id();
        let fm: Vec<_> = (0..n)
            .map(|node| {
                let events = (0..n)
                    .filter(|&peer| same_host && peer != node)
                    .map(|peer| event(peer, PeerEventKind::SameHost { pid }))
                    .collect();
                let inboxes = Rc::clone(&inboxes);
                let dev = MeshDevice {
                    node,
                    inboxes,
                    events,
                };
                Fm2Engine::new(dev, MachineProfile::ppro200_fm2())
            })
            .collect();
        let os: Vec<_> = fm.iter().map(|fm| Onesided::new(fm, cfg)).collect();
        for port in &os {
            assert_eq!(port.register(0, 1 << 20), Ok(ARENA));
        }
        Mesh { fm, os }
    }

    /// Turn `nodes` until node 0 has a completion for every one of
    /// `tokens`; returns node 0's completions in arrival order.
    fn complete(&mut self, nodes: &[usize], tokens: &[OsToken]) -> Vec<OsCompletion> {
        let mut seen = Vec::new();
        for _ in 0..1_000 {
            for &node in nodes {
                self.fm[node].extract_all();
                self.os[node].progress();
            }
            seen.extend(std::iter::from_fn(|| self.os[0].poll_completion()));
            if tokens.iter().all(|t| seen.iter().any(|c| c.token == *t)) {
                return seen;
            }
        }
        panic!("held back: {seen:?} of {tokens:?}");
    }
}

/// Node 0 puts to node 2, then gets the bytes back, while `stalled` —
/// its ops to node 1, which never turns — cannot finish: both complete
/// `Ok`, the get reads the put, and every one of `stalled` stays
/// outstanding.
fn node_2_is_not_held_back(mesh: &mut Mesh, stalled: &[OsToken]) {
    let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 239) as u8 + 1).collect();
    let port = mesh.os[0].port();
    let put = port.put(2, ARENA, 0, &data);
    let get = (port.get(2, ARENA, 0, ARENA, 512 * 1024, data.len())).expect("get");
    let seen = mesh.complete(&[0, 2], &[put, get]);
    let ok = |token| OsCompletion {
        token,
        status: OsStatus::Ok,
    };
    assert_eq!(seen, [ok(put), ok(get)]);
    let mut got = vec![0u8; data.len()];
    port.read_local(ARENA, 512 * 1024, &mut got)
        .expect("read back");
    assert!(got == data, "the get did not read the put");
    assert_eq!(port.pending_ops_to(1), stalled.len(), "of {stalled:?}");
}

#[test]
fn a_closed_credit_window_to_one_peer_holds_back_no_other_peer() {
    // 256 KiB is four times node 0's credit window toward node 1.
    let mut mesh = Mesh::new(3, false);
    let stalled = mesh.os[0].put(1, ARENA, 0, &vec![1u8; 256 * 1024]);
    node_2_is_not_held_back(&mut mesh, &[stalled]);
}

#[test]
fn a_pull_probe_in_flight_to_one_peer_holds_back_no_other_peer() {
    // The first put longer than a chunk to node 1 leaves as a PULL, the
    // probe, and waits for an answer node 1 never sends; a short put to
    // node 1 waits behind it. Node 2 reads node 0's payloads (this
    // process) as they come.
    let mut mesh = Mesh::new(3, true);
    let probe = mesh.os[0].put(1, ARENA, 0, &vec![1u8; 64 * 1024]);
    let behind = mesh.os[0].put(1, ARENA, 0, &[2u8; 100]);
    node_2_is_not_held_back(&mut mesh, &[probe, behind]);
    // Both of node 2's payloads were read, each by the side it was for.
    assert_eq!(mesh.os[2].pulled_bytes(), 64 * 1024);
    assert_eq!(mesh.os[0].pulled_bytes(), 64 * 1024);
}

#[test]
fn a_put_from_dropped_for_a_downed_peer_releases_its_source() {
    // Node 1 never turns: a put wider than the credit window stalls, and
    // a put_from queues behind it with its source pinned.
    let (a, b) = LoopbackPair::new(256);
    let fm = [a, b].map(|dev| Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
    let mut os = Onesided::new(&fm[0], OnesidedConfig::default());
    let _target = Onesided::new(&fm[1], OnesidedConfig::default());
    let src = os.register(0, 64 * 1024).expect("source");
    let wide = os.put(1, ARENA, 0, &vec![1u8; 256 * 1024]);
    let from = (os.put_from(1, ARENA, 0, src, 0, 64 * 1024)).expect("put_from");
    fm[0].extract_all();
    os.progress();
    assert_eq!(os.deregister(src), Err(OsError::RegionBusy));
    // Node 1 goes down: both ops end, and the source is free again.
    fm[0].with_device(|d| d.report(event(1, PeerEventKind::Down)));
    fm[0].extract_all();
    os.progress();
    let down = |token| OsCompletion {
        token,
        status: OsStatus::PeerDown,
    };
    let mut seen: Vec<_> = std::iter::from_fn(|| os.poll_completion()).collect();
    seen.sort_by_key(|c| c.token.0);
    assert_eq!(seen, [down(wide), down(from)]);
    assert_eq!(
        os.deregister(src),
        Ok(()),
        "the dropped put_from kept its pin"
    );
}

// ----------------------------------------------------------------------
// The op header, fuzzed
// ----------------------------------------------------------------------

/// The wire op codes (`onesided.rs`): PUT, DATA, FIN, GET, PULL.
const PUT: u32 = 1;
const DATA: u32 = 4;
const FIN: u32 = 5;
const GET: u32 = 6;
const PULL: u32 = 7;

/// The 40-byte op header: `op`, `a`, `b`, `c` as u32, `d`, `e`, `f` as
/// u64, little-endian.
fn op_header(op: u32, abc: [u32; 3], def: [u64; 3]) -> Vec<u8> {
    let mut h = op.to_le_bytes().to_vec();
    abc.iter().for_each(|v| h.extend(v.to_le_bytes()));
    def.iter().for_each(|v| h.extend(v.to_le_bytes()));
    h
}

fn u32_at(h: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(h[i..i + 4].try_into().unwrap())
}

fn u64_at(h: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(h[i..i + 8].try_into().unwrap())
}

/// What the target does with one single-packet message `msg` (header ⧺
/// body) arriving on the put sink (`op_lane`) or the control one, as far
/// as drops go: the puts it has open, by token, are `(length, landed)`.
/// True when the message is malformed — the port must count a drop.
fn malformed(msg: &[u8], op_lane: bool, open_puts: &mut HashMap<u32, (u64, u64)>) -> bool {
    if msg.len() < OP_HDR_BYTES {
        return true;
    }
    let (body, e) = (msg.len() - OP_HDR_BYTES, u64_at(msg, 24));
    match u32_at(msg, 0) {
        // The target has issued no op: a FIN on the op lane answers one
        // that was aborted (late, not malformed); it has pulled nothing,
        // so one on the DATA lane answers nothing.
        FIN => u32_at(msg, 12) != 0,
        GET => false,
        // It granted no credit: DATA, or a pulled DATA request, names none.
        DATA => true,
        PULL => !op_lane,
        PUT if body as u64 == e => false,
        PUT => {
            let (len, landed) = open_puts.entry(u32_at(msg, 4)).or_insert((e, 0));
            if *landed + body as u64 > *len {
                return true;
            }
            *landed += body as u64;
            if *landed == *len {
                open_puts.remove(&u32_at(msg, 4));
            }
            false
        }
        _ => true,
    }
}

#[test]
fn the_op_header_survives_random_and_mutated_messages() {
    const ARENA: usize = 16 * 1024;
    const WINDOW: (usize, usize) = (4096, 8192);
    let cases = env_cases(48);
    for case in 0..cases {
        let mut rng = DetRng::seed_from_u64(0xF022_0000 ^ case as u64);
        let (a, b) = LoopbackPair::new(256);
        let fuzzer = Fm2Engine::new(a, MachineProfile::ppro200_fm2());
        let fb = Fm2Engine::new(b, MachineProfile::ppro200_fm2());
        let cfg = OnesidedConfig {
            arena_bytes: ARENA,
            chunk_bytes: 4096,
        };
        let mut target = Onesided::new(&fb, cfg);
        let w = target.register(WINDOW.0, WINDOW.1).unwrap();
        let mut open_puts = HashMap::new();
        let mut drops = 0;
        for i in 0..64 {
            let body: Vec<u8> = (0..rng.below(200)).map(|_| rng.below(256) as u8).collect();
            let blen = body.len() as u64;
            // Fields near the window's edges, or anything at all.
            let mut pick_u32 = |near: u32| match rng.below(3) {
                0 => near,
                1 => rng.below(4) as u32,
                _ => rng.next_u64() as u32,
            };
            let (index, epoch, token) = (pick_u32(w.index), pick_u32(w.epoch), pick_u32(0));
            let off = match rng.below(4) {
                0 => rng.below(WINDOW.1 as u64 + 64),
                1 => WINDOW.1 as u64 - blen,
                2 => u64::MAX - rng.below(64),
                _ => rng.next_u64(),
            };
            let len = match rng.below(4) {
                0 | 1 => blen,
                2 => blen + rng.below(300),
                _ => rng.next_u64(),
            };
            let op = [PUT, DATA, FIN, GET, PULL, 0, 2, 8][rng.below(8) as usize];
            let lane = rng.below(4) as u32;
            let fields = match op {
                FIN => [token, rng.below(6) as u32, lane],
                _ => [token, index, epoch],
            };
            let mut hdr = op_header(op, fields, [off, len, rng.next_u64()]);
            // Mutate: flip bytes, or cut the header short.
            match rng.below(4) {
                0 => {
                    for _ in 0..rng.range_usize(1, 5) {
                        let at = rng.below(OP_HDR_BYTES as u64) as usize;
                        hdr[at] ^= 1 << rng.below(8);
                    }
                }
                1 => hdr.truncate(rng.below(OP_HDR_BYTES as u64) as usize),
                _ => {}
            }
            let msg: Vec<u8> = if hdr.len() < OP_HDR_BYTES {
                hdr
            } else {
                [hdr, body].concat()
            };
            let op_lane = rng.below(2) == 0;
            let handler = if op_lane {
                OS_EAGER_HANDLER
            } else {
                ONESIDED_HANDLER
            };
            drops += malformed(&msg, op_lane, &mut open_puts) as u64;
            let mut sent = false;
            for _ in 0..64 {
                sent = fuzzer.try_send_message(1, handler, &[&msg]).is_ok();
                if sent {
                    break;
                }
                turn(&fuzzer, &fb, &mut target);
            }
            assert!(sent, "case {case} message {i}: the window never reopened");
            turn(&fuzzer, &fb, &mut target);
            let got = target.protocol_drops();
            assert_eq!(got, drops, "case {case} message {i}: {msg:02x?}");
        }
        // Nothing outside the registered window was written.
        for (at, len) in [
            (0, WINDOW.0),
            (WINDOW.0 + WINDOW.1, ARENA - WINDOW.0 - WINDOW.1),
        ] {
            let h = target.register(at, len).unwrap();
            let mut out = vec![0xAAu8; len];
            target.read_local(h, 0, &mut out).unwrap();
            assert!(out.iter().all(|&x| x == 0), "case {case}: wrote at {at}..");
        }
    }
}

/// Move the fuzzer's messages to the target, let it act on them and
/// answer, and take its answers back (the fuzzer has no one-sided port:
/// they drain into the void).
fn turn(
    fuzzer: &Fm2Engine<LoopbackDevice>,
    fb: &Fm2Engine<LoopbackDevice>,
    os: &mut Onesided<LoopbackDevice>,
) {
    for _ in 0..2 {
        fuzzer.with_device(|x| fb.with_device(|y| LoopbackPair::deliver(x, y)));
        fb.extract_all();
        os.progress();
        fuzzer.with_device(|x| fb.with_device(|y| LoopbackPair::deliver(x, y)));
        fuzzer.extract_all();
        fuzzer.take_errors();
    }
}
