//! The one collective executor.
//!
//! Every collective of [`crate::collectives`] is built as a [`Sched`]: an
//! ordered list of steps — send a buffer slot, post a receive into a slot
//! with a bound, fold or concatenate slots, or report a
//! [`Mpi::obs_coll`] mark — each naming the earlier steps it waits for.
//! [`Sched::poll`] issues the steps in list order and stops at the first
//! one that is still waiting, so a step is never issued before every step
//! listed ahead of it, and a schedule built from two parts runs the
//! second once the first has ended: a two-level collective is the group
//! schedules appended one after another ([`crate::hier`]).
//!
//! Sends and receives carry world ranks and finished tags: the builders
//! turn group ranks and rounds into them through the [`Communicator`]
//! as they build, so what runs is plain data that a test can read
//! without a transport.

use std::ops::Range;

use crate::api::{drive, Mpi, ReduceOp};
use crate::comm::{CollPhase, Communicator};
use crate::types::{RecvReq, SendReq};
use crate::wire::CollKind;

/// A buffer of a schedule, by index.
pub(crate) type Slot = usize;

/// No step to wait for.
pub(crate) const NOW: Range<usize> = 0..0;

/// What one step does.
pub(crate) enum Act {
    /// `Send(to, tag, slot)`: send a copy of `slot` to world rank `to`.
    Send(usize, u32, Slot),
    /// `Recv(from, tag, bound, slot)`: receive at most `bound` bytes from
    /// world rank `from` into `slot`.
    Recv(usize, u32, usize, Slot),
    /// `Fold(acc, from, op)`: `acc = acc (op) from`.
    Fold(Slot, Slot, ReduceOp),
    /// `Concat(into, parts)`: `into` becomes the parts, concatenated.
    Concat(Slot, Vec<Slot>),
    /// `Mark(phase, kind, round, bytes)`: report a collective phase,
    /// `bytes` the length of that slot (0 without one).
    Mark(CollPhase, CollKind, u32, Option<Slot>),
}

/// How far a step has got.
enum Req {
    /// Not issued yet.
    Waiting,
    /// Finished: a mark, fold or concatenation at once, a receive once its
    /// payload is in its slot.
    Done,
    Send(SendReq),
    Recv(RecvReq),
}

/// One step: what it does, the steps it waits for, how far it has got.
pub(crate) struct Step {
    act: Act,
    after: Range<usize>,
    req: Req,
}

/// A collective on this rank: its steps, its buffers and how far it has
/// run. Build one with a constructor of [`crate::collectives`], then call
/// [`poll`](Self::poll) until it returns `true`, driving
/// [`Mpi::progress`] between polls; the blocking [`Mpi`] collectives are
/// exactly that loop ([`wait`](Self::wait)).
pub struct Sched {
    pub(crate) seq: u32,
    pub(crate) steps: Vec<Step>,
    /// The first step not issued yet.
    next: usize,
    pub(crate) slots: Vec<Vec<u8>>,
    /// The slots this rank's result is read from, in rank order where
    /// there are several.
    pub(crate) result: Vec<Slot>,
}

impl Sched {
    /// An empty schedule for collective `seq`, with room for the steps
    /// of a small one (a blocking barrier or 16 B allreduce builds one a
    /// call, so regrowing would be most of its allocations).
    pub(crate) fn new(seq: u32) -> Self {
        let (steps, next) = (Vec::with_capacity(8), 0);
        let (slots, result) = Default::default();
        Sched {
            seq,
            steps,
            next,
            slots,
            result,
        }
    }

    /// A new slot holding `data`.
    #[inline]
    pub(crate) fn slot(&mut self, data: Vec<u8>) -> Slot {
        self.slots.push(data);
        self.slots.len() - 1
    }

    /// Append `act`, issued once the steps `after` are done; its index.
    #[inline]
    pub(crate) fn push(&mut self, act: Act, after: Range<usize>) -> usize {
        let req = Req::Waiting;
        self.steps.push(Step { act, after, req });
        self.steps.len() - 1
    }

    /// Append a send of `slot` to group rank `to` of `c`, once `after`
    /// are done.
    #[inline]
    pub(crate) fn send(
        &mut self,
        c: &Communicator,
        to: usize,
        tag: u32,
        slot: Slot,
        after: Range<usize>,
    ) -> usize {
        self.push(Act::Send(c.world_rank(to), tag, slot), after)
    }

    /// Append a receive from group rank `from` of `c` into `slot`.
    #[inline]
    pub(crate) fn recv(
        &mut self,
        c: &Communicator,
        from: usize,
        tag: u32,
        bound: usize,
        slot: Slot,
    ) {
        self.push(Act::Recv(c.world_rank(from), tag, bound, slot), NOW);
    }

    /// Append a mark of `phase` reporting the length of `bytes`, once
    /// `after` are done.
    #[inline]
    pub(crate) fn mark(
        &mut self,
        phase: CollPhase,
        kind: CollKind,
        round: u32,
        bytes: Option<Slot>,
        after: Range<usize>,
    ) -> usize {
        self.push(Act::Mark(phase, kind, round, bytes), after)
    }

    /// Issue every step whose turn has come; `true` once all are issued,
    /// which the builders make mean that this rank's part is complete.
    pub fn poll<M: Mpi + ?Sized>(&mut self, mpi: &mut M) -> bool {
        while let Some(step) = self.steps.get(self.next) {
            if !step.after.clone().all(|d| self.done(d)) {
                return false;
            }
            let (step, slots) = (&mut self.steps[self.next], &mut self.slots);
            step.req = match &step.act {
                Act::Send(to, tag, s) => Req::Send(mpi.isend(*to, *tag, slots[*s].clone())),
                Act::Recv(from, tag, bound, _) => {
                    Req::Recv(mpi.irecv(Some(*from), Some(*tag), *bound))
                }
                Act::Fold(acc, from, op) => {
                    let from = std::mem::take(&mut slots[*from]);
                    op.apply(&mut slots[*acc], &from);
                    Req::Done
                }
                Act::Concat(into, parts) => {
                    let mut all = Vec::new();
                    parts.iter().for_each(|&p| all.extend_from_slice(&slots[p]));
                    slots[*into] = all;
                    Req::Done
                }
                Act::Mark(phase, kind, round, bytes) => {
                    let len = bytes.map_or(0, |s| slots[s].len());
                    mpi.obs_coll(*phase, *kind, self.seq, *round, len);
                    Req::Done
                }
            };
            self.next += 1;
        }
        true
    }

    /// Whether issued step `i` has finished; a finished receive moves its
    /// payload into its slot.
    fn done(&mut self, i: usize) -> bool {
        let step = &mut self.steps[i];
        match (&step.req, &step.act) {
            (Req::Done, _) => true,
            (Req::Send(s), _) => s.is_done(),
            (Req::Recv(r), &Act::Recv(.., slot)) if r.is_done() => {
                self.slots[slot] = r.take().expect("a finished receive holds its payload");
                step.req = Req::Done;
                true
            }
            _ => false,
        }
    }

    /// Run to completion, spinning on [`Mpi::progress`].
    pub fn wait<M: Mpi + ?Sized>(mut self, mpi: &mut M) -> Self {
        drive(mpi, "collective", |m| self.poll(m));
        self
    }

    /// The result buffer (a broadcast's data, a reduction, this rank's
    /// scatter chunk); empty where this rank keeps none. Call once after
    /// `poll` returned `true`.
    pub fn take_result(&mut self) -> Vec<u8> {
        self.take_parts().into_iter().next().unwrap_or_default()
    }

    /// The result parts in rank order (a gather at its root, an
    /// all-to-all); none where this rank keeps none.
    pub fn take_parts(&mut self) -> Vec<Vec<u8>> {
        let slots = &mut self.slots;
        self.result
            .iter()
            .map(|&s| std::mem::take(&mut slots[s]))
            .collect()
    }
}
