//! Hierarchy-aware collectives: two-level schedules *composed* from the
//! flat machines of [`crate::collectives`] running on sub-groups.
//!
//! When ranks are spread across hosts — shared memory within a host,
//! a network between hosts — the flat schedules waste the asymmetry: a
//! dissemination barrier crosses the wire on almost every round, and a
//! binomial allreduce ships every rank's contribution across hosts
//! individually. The two-level shape fixes the accounting: combine
//! *within* each host first over the cheap fabric, cross the expensive
//! fabric once per host, then fan back out locally.
//!
//! Nothing here sends a message. A host map ([`crate::Mpi::coll_hosts`])
//! yields two groups ([`host_groups`]): the ranks of my host, led by its
//! lowest rank, and the leaders of all hosts in ascending host id. A
//! *plan* lists the `Step`s — each a flat gather, dissemination barrier
//! or flat broadcast on a group — this rank takes part in, and
//! `Composed` runs them in order under the collective's one sequence
//! number, each group tagging from its own round base:
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
//! Who takes these schedules is decided elsewhere: the `new`
//! constructors of `BarrierOp`, `BcastOp` and `AllreduceOp` ask for a
//! plan, and get `None` unless the map covers every rank and spans at
//! least two hosts.

use crate::api::{Mpi, ReduceOp};
use crate::collectives::{BarrierOp, BcastAlgo, BcastOp, GatherOp};
use crate::comm::Communicator;

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

/// One step of a composed schedule: a flat machine on a group.
pub(crate) enum Step {
    /// Fan-in to the group's first rank, which with an operator folds
    /// the contributions in ascending group rank.
    Gather(Communicator, Option<ReduceOp>),
    /// Dissemination rounds.
    Barrier(Communicator),
    /// Flat broadcast from this group rank.
    Bcast(Communicator, usize),
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

/// This rank's steps of the two-level allreduce under `hosts` — or, with
/// no operator and so nothing to fold, of the two-level barrier: up my
/// host, across the leaders, down my host.
pub(crate) fn reduce_plan(
    world: &Communicator,
    hosts: &[usize],
    rop: Option<ReduceOp>,
) -> Option<Vec<Step>> {
    let (local, leaders) = two_level(world, hosts)?;
    let local = world.group(&local, R_LOCAL)?;
    let mut plan = vec![Step::Gather(local.clone(), rop)];
    match (world.group(&leaders, R_LEADER), rop) {
        (None, _) => {}
        (Some(l), None) => plan.push(Step::Barrier(l)),
        (Some(l), Some(_)) => {
            let back = l.rebased(R_LEADER_BC);
            plan.extend([Step::Gather(l, rop), Step::Bcast(back, 0)]);
        }
    }
    plan.push(Step::Bcast(local.rebased(R_RELEASE), 0));
    Some(plan)
}

/// This rank's steps of the two-level broadcast from world rank `root`
/// under `hosts`.
pub(crate) fn bcast_plan(world: &Communicator, hosts: &[usize], root: usize) -> Option<Vec<Step>> {
    let (local, leaders) = two_level(world, hosts)?;
    let root_leader = leaders.iter().position(|&l| hosts[l] == hosts[root])?;
    let hop = [root, leaders[root_leader]];
    // The root already holds the buffer: it may lead its host's release
    // but never receives it.
    let release: Vec<usize> = local
        .iter()
        .copied()
        .filter(|&r| r != root || r == local[0])
        .collect();
    let mut plan = Vec::new();
    let mut bcast = |group: Option<Communicator>, from| {
        plan.extend(group.map(|g| Step::Bcast(g, from)));
    };
    if hop[0] != hop[1] {
        bcast(world.group(&hop, R_LOCAL), 0);
    }
    bcast(world.group(&leaders, R_LEADER), root_leader);
    bcast(world.group(&release, R_RELEASE), 0);
    Some(plan)
}

enum Running {
    Gather(GatherOp, Option<ReduceOp>),
    Barrier(BarrierOp),
    Bcast(BcastOp),
}

/// A plan in progress: the steps run one after another, each handed the
/// value the one before left here (a gather's fold, a broadcast's
/// buffer), all under one sequence number.
pub(crate) struct Composed {
    seq: u32,
    max_len: usize,
    value: Vec<u8>,
    steps: std::vec::IntoIter<Step>,
    running: Option<Running>,
}

impl Composed {
    /// Run `plan` as collective `seq`, starting from this rank's
    /// `value`; no step's message exceeds `max_len`.
    pub(crate) fn new(seq: u32, plan: Vec<Step>, value: Vec<u8>, max_len: usize) -> Box<Self> {
        Box::new(Composed {
            seq,
            max_len,
            value,
            steps: plan.into_iter(),
            running: None,
        })
    }

    /// Advance; `true` once this rank's last step is complete.
    pub(crate) fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M) -> bool {
        loop {
            match &mut self.running {
                None => {
                    let Some(step) = self.steps.next() else {
                        return true;
                    };
                    let (seq, max_len) = (self.seq, self.max_len);
                    let value = std::mem::take(&mut self.value);
                    self.running = Some(match step {
                        Step::Gather(g, fold) => {
                            Running::Gather(GatherOp::on(mpi, &g, seq, 0, value, max_len), fold)
                        }
                        Step::Barrier(g) => Running::Barrier(BarrierOp::on(mpi, &g, seq)),
                        Step::Bcast(g, root) => {
                            let data = (g.rank == root).then_some(value);
                            let algo = BcastAlgo::Flat;
                            Running::Bcast(BcastOp::on(mpi, &g, seq, root, data, max_len, algo))
                        }
                    });
                    continue;
                }
                Some(Running::Gather(op, fold)) => {
                    if !op.poll(mpi) {
                        return false;
                    }
                    if let (Some(parts), Some(rop)) = (op.take_result(), fold) {
                        let mut parts = parts.into_iter();
                        self.value = parts.next().expect("the root's own part");
                        parts.for_each(|p| rop.apply(&mut self.value, &p));
                    }
                }
                Some(Running::Barrier(op)) => {
                    if !op.poll(mpi) {
                        return false;
                    }
                }
                Some(Running::Bcast(op)) => {
                    if !op.poll(mpi) {
                        return false;
                    }
                    self.value = op.take_result();
                }
            }
            self.running = None;
        }
    }

    /// The value the last step left (the reduction, the buffer).
    pub(crate) fn take_value(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.value)
    }
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
    use crate::collectives::AllreduceOp;
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
        let world = Communicator::new(2, 4);
        assert!(reduce_plan(&world, &[0, 0, 0, 0], None).is_none());
        assert!(bcast_plan(&world, &[0, 1, 0], 0).is_none());
        assert!(reduce_plan(&world, &[0, 1, 0, 1], None).is_some());
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
                let mut b = BarrierOp::new(m);
                Box::new(move |m| b.poll(m).then(Vec::new))
            }
            Op::Bcast(root) => {
                let data = (m.rank() == root).then(|| vec![root as u8; BCAST_LEN]);
                let mut b = BcastOp::new(m, root, data, BCAST_LEN);
                Box::new(move |m| b.poll(m).then(|| b.take_result()))
            }
            Op::Allreduce => {
                let mut a = AllreduceOp::new(m, &contrib(m.rank()), ReduceOp::SumF64);
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
