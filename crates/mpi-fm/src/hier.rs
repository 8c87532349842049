//! Hierarchy-aware collectives: two-level schedules *appended* from the
//! flat builders of [`crate::collectives`] running on sub-groups.
//!
//! When ranks are spread across hosts — shared memory within a host,
//! a network between hosts — the flat schedules waste the asymmetry: a
//! dissemination barrier crosses the wire on almost every round, and a
//! binomial allreduce ships every rank's contribution across hosts
//! individually. The two-level shape fixes the accounting: combine
//! *within* each host first over the cheap fabric, cross the expensive
//! fabric once per host, then fan back out locally.
//!
//! A host map ([`crate::Mpi::coll_hosts`]) yields two groups
//! ([`host_groups`]): the ranks of my host, led by its lowest rank, and
//! the leaders of all hosts in ascending host id. A *plan* appends, to
//! one [`Sched`] under the collective's one sequence number, the group
//! schedules this rank takes part in — each a flat gather, dissemination
//! barrier or flat broadcast, each group tagging from its own round base
//! — all reading and writing one value slot. The executor runs a
//! schedule's steps in list order, so each group schedule starts once
//! the one before has ended:
//!
//! * **barrier** — gather on my host → barrier among the leaders
//!   (⌈log₂ H⌉ cross-host rounds) → flat bcast on my host.
//! * **allreduce** — gather-and-fold on my host → gather-and-fold among
//!   the leaders at the first, flat bcast back → flat bcast on my host.
//!   Two cross-host messages per host.
//! * **bcast** — flat bcast on {root, root's leader} when they differ →
//!   flat bcast among the leaders from the root's → flat bcast on each
//!   host, the root left out. The buffer crosses hosts once per host.
//!
//! Reduction fold order is fixed by *structure* (ascending rank within
//! a host, ascending host at the leader level), never by arrival
//! timing, so results are deterministic run-to-run. Note the order
//! differs from the flat binomial fold, so `f64` sums can differ from
//! the flat path in the last ulp — exactly as MPI permits between
//! algorithms; integer operations are bitwise identical.
//!
//! Who takes these schedules is decided elsewhere: `Sched::barrier`,
//! `Sched::bcast` and `Sched::allreduce` ask for a plan, and get none
//! unless the map covers every rank and spans at least two hosts.

use crate::api::ReduceOp;
use crate::collectives::{barrier, bcast, gather, BcastAlgo};
use crate::comm::Communicator;
use crate::sched::{Act, Sched, Slot, NOW};

/// Round base of the fan-in on a host (and of a broadcast's hop from a
/// non-leader root to its leader).
const R_LOCAL: u32 = 0x100;
/// Round base of the leaders' exchange.
const R_LEADER: u32 = 0x200;
/// Round base of the leaders' broadcast-back in allreduce.
const R_LEADER_BC: u32 = 0x280;
/// Round base of the release on a host.
const R_RELEASE: u32 = 0x300;

/// The two groups of a host map (`hosts[r]` = host id of rank `r`), as
/// world ranks: the ranks of `rank`'s host in ascending order — so its
/// leader, the host's lowest rank, comes first — and the leaders of all
/// hosts in ascending host id. Every rank must derive them from the
/// *same* map or the schedules disagree and the operation wedges.
pub fn host_groups(rank: usize, hosts: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let on_host = |h: usize| (0..hosts.len()).filter(move |&r| hosts[r] == h);
    let mut host_ids = hosts.to_vec();
    host_ids.sort_unstable();
    host_ids.dedup();
    let leader = |&h| on_host(h).next().expect("every host id has a rank");
    (
        on_host(hosts[rank]).collect(),
        host_ids.iter().map(leader).collect(),
    )
}

/// This rank's host and leader groups, when `hosts` makes a two-level
/// schedule worthwhile: it must cover every rank and span at least two
/// hosts (on one host the flat schedules are strictly better).
fn two_level(world: &Communicator, hosts: &[usize]) -> Option<(Vec<usize>, Vec<usize>)> {
    if hosts.len() != world.size {
        return None;
    }
    let (local, leaders) = host_groups(world.rank, hosts);
    (leaders.len() >= 2).then_some((local, leaders))
}

/// Gather `value` at the group's first rank, which with an operator folds
/// the parts into it in ascending group rank.
fn fold_in(s: &mut Sched, g: &Communicator, value: Slot, rop: Option<ReduceOp>, max_len: usize) {
    let parts = gather(s, g, 0, value, max_len);
    if let Some(op) = rop {
        for &from in parts.iter().skip(1) {
            s.push(Act::Fold(value, from, op), NOW);
        }
    }
}

/// Append this rank's part of the two-level allreduce of `value` under
/// `hosts` — or, with no operator and so nothing to fold, of the
/// two-level barrier: up my host, across the leaders, down my host.
/// `false`, appending nothing, when `hosts` plans no two levels.
pub(crate) fn reduce_plan(
    s: &mut Sched,
    world: &Communicator,
    hosts: &[usize],
    value: Slot,
    rop: Option<ReduceOp>,
    max_len: usize,
) -> bool {
    let Some((local, leaders)) = two_level(world, hosts) else {
        return false;
    };
    let local = world.group(&local, R_LOCAL).expect("a rank is on its host");
    fold_in(s, &local, value, rop, max_len);
    match (world.group(&leaders, R_LEADER), rop) {
        (None, _) => {}
        (Some(l), None) => barrier(s, &l),
        (Some(l), Some(_)) => {
            fold_in(s, &l, value, rop, max_len);
            bcast(
                s,
                &l.rebased(R_LEADER_BC),
                0,
                value,
                max_len,
                BcastAlgo::Flat,
            );
        }
    }
    bcast(
        s,
        &local.rebased(R_RELEASE),
        0,
        value,
        max_len,
        BcastAlgo::Flat,
    );
    true
}

/// Append this rank's part of the two-level broadcast of `value` from
/// world rank `root` under `hosts`; `false`, appending nothing, when
/// `hosts` plans no two levels.
pub(crate) fn bcast_plan(
    s: &mut Sched,
    world: &Communicator,
    hosts: &[usize],
    root: usize,
    value: Slot,
    max_len: usize,
) -> bool {
    let Some((local, leaders)) = two_level(world, hosts) else {
        return false;
    };
    let root_leader = leaders.iter().position(|&l| hosts[l] == hosts[root]);
    let root_leader = root_leader.expect("the root's host has a leader");
    let hop = [root, leaders[root_leader]];
    // The root already holds the buffer: it may lead its host's release
    // but never receives it.
    let release: Vec<usize> = local
        .iter()
        .copied()
        .filter(|&r| r != root || r == local[0])
        .collect();
    let hop = (hop[0] != hop[1])
        .then(|| world.group(&hop, R_LOCAL))
        .flatten();
    let leaders = world.group(&leaders, R_LEADER);
    for (g, from) in [
        (hop, 0),
        (leaders, root_leader),
        (world.group(&release, R_RELEASE), 0),
    ] {
        if let Some(g) = g {
            bcast(s, &g, from, value, max_len, BcastAlgo::Flat);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use fm_core::obs::{ObsSink, SpanKind};
    use fm_core::{Fm2Engine, SimDevice};
    use fm_model::{MachineProfile, Nanos};
    use myrinet_sim::{NodeId, Simulation, StepOutcome, Topology};

    use super::*;
    use crate::api::Mpi;
    use crate::wire::MPI_HEADER_BYTES;
    use crate::Mpi2;

    type Node = Mpi2<SimDevice>;
    /// A collective in flight: its result once complete.
    type Poll = Box<dyn FnMut(&mut Node) -> Option<Vec<u8>>>;

    #[test]
    fn groups_put_leaders_first_and_order_them_by_host_id() {
        // Ranks 0,1 on host 0; 2,3 on host 1; 4 on host 2.
        let hosts = [0, 0, 1, 1, 2];
        assert_eq!(host_groups(0, &hosts), (vec![0, 1], vec![0, 2, 4]));
        assert_eq!(host_groups(3, &hosts), (vec![2, 3], vec![0, 2, 4]));
        assert_eq!(host_groups(4, &hosts).0, vec![4]);
        // Host ids need be neither dense nor ordered by rank: host 3 is
        // led by rank 1, host 7 by rank 0.
        assert_eq!(host_groups(2, &[7, 3, 7, 3]), (vec![0, 2], vec![1, 0]));
        // One host, or a map that misses a rank, plans nothing.
        let (world, mut s) = (Communicator::new(2, 4), Sched::new(0));
        let v = s.slot(Vec::new());
        assert!(!reduce_plan(&mut s, &world, &[0, 0, 0, 0], v, None, 0));
        assert!(!bcast_plan(&mut s, &world, &[0, 1, 0], 0, v, 0));
        assert!(s.steps.is_empty());
        assert!(reduce_plan(&mut s, &world, &[0, 1, 0, 1], v, None, 0));
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Barrier,
        Bcast(usize),
        Allreduce,
    }

    const BCAST_LEN: usize = 97;

    /// Two non-integer `f64`s, so fold order shows in the bits.
    fn contrib(rank: usize) -> Vec<u8> {
        let v = [0.1 * (rank + 1) as f64, 1.0 / (rank + 3) as f64];
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    /// Start `op` through the public constructors — the poll-driven path.
    fn start(op: Op, m: &mut Node) -> Poll {
        match op {
            Op::Barrier => {
                let mut b = Sched::barrier(m);
                Box::new(move |m| b.poll(m).then(Vec::new))
            }
            Op::Bcast(root) => {
                let data = (m.rank() == root).then(|| vec![root as u8; BCAST_LEN]);
                let mut b = Sched::bcast(m, root, data, BCAST_LEN);
                Box::new(move |m| b.poll(m).then(|| b.take_result()))
            }
            Op::Allreduce => {
                let mut a = Sched::allreduce(m, &contrib(m.rank()), ReduceOp::SumF64);
                Box::new(move |m| a.poll(m).then(|| a.take_result()))
            }
        }
    }

    /// One collective on one rank: its sends in order as `(dst, len)`,
    /// read off the engine's trace, and its result.
    type Trace = (Vec<(usize, usize)>, Vec<u8>);

    /// Run `ops` back to back on `ppro200_fm2` nodes placed by `hosts`:
    /// the virtual time the last rank finished, and every rank's traces.
    fn simulate(hosts: &[usize], ops: &[Op]) -> (u64, Vec<Vec<Trace>>) {
        let profile = MachineProfile::ppro200_fm2();
        let mut sim = Simulation::new(profile, Topology::single_crossbar(hosts.len()));
        let traces: Vec<Rc<RefCell<Vec<Trace>>>> = hosts.iter().map(|_| Rc::default()).collect();
        for (i, out) in traces.iter().enumerate() {
            let fm = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(i))), profile);
            let sink = ObsSink::new(1024);
            fm.attach_obs(sink.clone());
            let mut m = Mpi2::new(fm);
            m.set_coll_hosts(Some(hosts.to_vec()));
            let (ops, out) = (ops.to_vec(), Rc::clone(out));
            let mut current = None;
            // One progress per wake, as every simulated probe steps.
            let step = move || {
                m.progress();
                while out.borrow().len() < ops.len() {
                    let next = ops[out.borrow().len()];
                    let poll = current.get_or_insert_with(|| start(next, &mut m));
                    let Some(result) = poll(&mut m) else {
                        return StepOutcome::Wait;
                    };
                    let sends = sink.take_events().into_iter().filter_map(|e| {
                        let len = (e.bytes as usize).wrapping_sub(MPI_HEADER_BYTES);
                        (e.kind == SpanKind::BeginMessage).then_some((e.peer as usize, len))
                    });
                    out.borrow_mut().push((sends.collect(), result));
                    current = None;
                }
                StepOutcome::Done
            };
            sim.set_program(NodeId(i), Box::new(step));
        }
        let end = sim.run(Some(Nanos(1_000_000_000))).as_ns();
        (end, traces.iter().map(|t| t.take()).collect())
    }

    /// The sends of `rank` in `op`, written from the geometry: a member
    /// sends up to its leader; a leader sends across the leaders, then
    /// down to its members.
    fn model(op: Op, rank: usize, hosts: &[usize]) -> Vec<(usize, usize)> {
        let (local, leaders) = host_groups(rank, hosts);
        let (leader, h) = (local[0], leaders.len());
        let li = leaders.iter().position(|&l| l == leader).unwrap();
        let except = |group: &[usize], skip: usize| -> Vec<usize> {
            let keep = |r: &usize| *r != rank && *r != skip;
            group.iter().copied().filter(keep).collect()
        };
        let (up, across, down, len) = match op {
            Op::Barrier => {
                let rounds = (0..h.next_power_of_two().trailing_zeros()).map(|k| 1 << k);
                let across = rounds.map(|d| leaders[(li + d) % h]).collect();
                (true, across, except(&local, rank), 0)
            }
            Op::Allreduce if li == 0 => (true, except(&leaders, rank), except(&local, rank), 16),
            Op::Allreduce => (true, vec![leaders[0]], except(&local, rank), 16),
            Op::Bcast(root) => {
                let mut across = except(&leaders, rank);
                across.retain(|_| leader == host_groups(root, hosts).0[0]);
                (rank == root, across, except(&local, root), BCAST_LEN)
            }
        };
        if rank != leader {
            return vec![(leader, len); usize::from(up)];
        }
        across.into_iter().chain(down).map(|d| (d, len)).collect()
    }

    /// Left fold of `parts` under f64 sum.
    fn fold(parts: impl Iterator<Item = Vec<u8>>) -> Vec<u8> {
        let sum = |mut acc: Vec<u8>, part: Vec<u8>| {
            ReduceOp::SumF64.apply(&mut acc, &part);
            acc
        };
        parts.reduce(sum).expect("no group is empty")
    }

    #[test]
    fn every_rank_sends_exactly_what_the_geometry_says() {
        let maps: [&[usize]; 3] = [
            &[0, 0, 0, 0, 1, 1, 1, 1],
            &[0, 1, 2, 1, 1, 2],
            &[7, 3, 7, 3],
        ];
        for hosts in maps {
            let mut ops = vec![Op::Barrier, Op::Allreduce];
            ops.extend((0..hosts.len()).map(Op::Bcast));
            // Ascending rank within a host, then ascending host.
            let on_host = |&l: &usize| fold(host_groups(l, hosts).0.into_iter().map(contrib));
            let sum = fold(host_groups(0, hosts).1.iter().map(on_host));
            let (_, traces) = simulate(hosts, &ops);
            for (rank, trace) in traces.iter().enumerate() {
                for (&op, (sent, result)) in ops.iter().zip(trace) {
                    assert_eq!(
                        *sent,
                        model(op, rank, hosts),
                        "{op:?} rank {rank} of {hosts:?}"
                    );
                    match op {
                        Op::Barrier => {}
                        Op::Allreduce => assert_eq!(*result, sum, "fold bits at rank {rank}"),
                        Op::Bcast(root) => assert_eq!(*result, vec![root as u8; BCAST_LEN]),
                    }
                }
            }
        }
    }

    #[test]
    fn composition_costs_the_virtual_time_the_three_phase_machines_did() {
        // Recorded at the last commit that had hand-written three-phase
        // machines, driving them directly: 8 back-to-back operations on 8
        // nodes as 2 hosts x 4 (bcast: 97 B from each root in turn).
        let hosts = [0, 0, 0, 0, 1, 1, 1, 1];
        let bcasts: Vec<Op> = (0..8).map(Op::Bcast).collect();
        assert_eq!(simulate(&hosts, &[Op::Barrier; 8]).0, 392_333);
        assert_eq!(simulate(&hosts, &[Op::Allreduce; 8]).0, 520_286);
        assert_eq!(simulate(&hosts, &bcasts).0, 314_504);
    }
}
