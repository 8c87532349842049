//! Property battery for the one-sided registration table and put path.
//!
//! The region table is the safety core of `fm_core::onesided`: every
//! remote byte lands through it, so a bounds or aliasing mistake is
//! silent remote memory corruption. Five seeded batteries pin its
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

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fm_core::{
    Fm2Engine, FmPacket, Onesided, OnesidedConfig, OsError, OsPort, OsStatus, OsToken,
    RegionHandle, SimDevice,
};
use fm_model::rng::{env_cases, DetRng};
use fm_model::{MachineProfile, Nanos};
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

/// What node 0's puts aim at on node 1 in the refusal batteries: a live
/// window over the first half of the arena and a deregistered one over
/// the second — so OutOfBounds, Deregistered and BadHandle each have
/// something concrete to be refused by.
struct Target {
    port: OsPort,
    live: RegionHandle,
    live_len: usize,
    dead: RegionHandle,
}

impl Target {
    fn new(cluster: &Cluster, arena: usize) -> Self {
        let port = cluster.port(1);
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
        let target = Target::new(&cluster, ARENA);

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
        let target = Target::new(&cluster, ARENA);
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
