//! `sim_layering`: FM 1.x, MPI-FM 1.x, FM 2.x and MPI-FM 2.x on
//! `myrinet-sim` — 16-byte ping-pong and 2 KB stream each, the paper's
//! Figures 4 and 6 — on one thread.
//!
//! The same engines with no scheduler, no kernel and no second core, and
//! the only workload that runs `fm1`.
//!
//! Virtual time is exact to the nanosecond, so it cannot be an end-to-end
//! metric here: the driver refuses a time that reads the same on every
//! run. It is printed per layer (`sim.*`) and gates `correct` instead, two
//! ways: every reference pass of a run must agree with the first bit for
//! bit, and no virtual time may be worse than the value [`RECORDED`] when
//! the benchmark was defined by more than [`VIRTUAL_BOUND`] (the issue's
//! 0.1 % bound on the simulated figures, one-sided: an improvement
//! passes). What the end-to-end metrics report is the **host time** the
//! engines and the simulator take per simulated message, quoted at a
//! fixed reference clock (see [`crate::clock`]): this is one thread of
//! pure computation, and the core's clock flips by a fifth about once a
//! second. `myrinet-sim.host_ns_per_sim_msg` is the same time as the wall
//! clock read it.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use fm_core::packet::HandlerId;
use fm_core::{Fm1Engine, Fm2Engine, FmPacket, FmStream, SimDevice};
use fm_model::{MachineProfile, Nanos};
use mpi_fm::{Mpi, Mpi1, Mpi2, RecvReq};
use myrinet_sim::{NodeId, Simulation, StepOutcome, Topology};

use crate::payload::{Pattern, HEADER_BYTES};
use crate::report::RunResult;
use crate::stats::{median, LatencyLeg, ThroughputLeg};
use crate::workloads::{sessions, Round, RoundPlan};
use crate::{clock, peak_rss_mb, Opts};

const PING: HandlerId = HandlerId(1);
const PONG: HandlerId = HandlerId(2);
const STREAM_BYTES: usize = 2048;
/// Virtual-time guard: a wedged simulation ends here, not never.
const SIM_LIMIT: Nanos = Nanos(120_000_000_000);

/// Rounds and messages of the reference pass (the virtual numbers).
const REF_ROUNDS: u64 = 100;
const REF_MSGS: u64 = 2048;
/// Rounds and messages of one host-time sample, and samples per
/// segment.
const SAMPLE_ROUNDS: u64 = 64;
const SAMPLE_MSGS: u64 = 256;
const SAMPLES_PER_SEG: usize = 64;

type Sim = Simulation<FmPacket>;
type Failures = Rc<Cell<u64>>;

fn two_nodes(profile: MachineProfile) -> Sim {
    Simulation::new(profile, Topology::single_crossbar(2))
}

fn fm2_pair(sim: &Sim, p: MachineProfile) -> (Fm2Engine<SimDevice>, Fm2Engine<SimDevice>) {
    (
        Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), p),
        Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), p),
    )
}

fn fm1_pair(sim: &Sim, p: MachineProfile) -> (Fm1Engine<SimDevice>, Fm1Engine<SimDevice>) {
    (
        Fm1Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), p),
        Fm1Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), p),
    )
}

fn finish(mut sim: Sim, done_at: &Cell<Nanos>, bad: &Failures, what: &str) -> Nanos {
    sim.run(Some(SIM_LIMIT));
    if !sim.all_done() {
        eprintln!("fm-benchmark: simulated {what} wedged at {}", sim.now());
        bad.set(bad.get() + 1);
    }
    done_at.get()
}

/// Virtual time for `rounds` FM 2.x 16-byte round trips.
fn fm2_pingpong(pat: &Rc<Pattern>, rounds: u64, bad: &Failures) -> Nanos {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim = two_nodes(profile);
    let (fm0, fm1) = fm2_pair(&sim, profile);
    let pongs = Rc::new(Cell::new(0u64));
    let echoed = Rc::new(Cell::new(0u64));
    for (fm, seen, reply) in [(&fm0, &pongs, None), (&fm1, &echoed, Some(PONG))] {
        let (seen, bad, pat, handle) =
            (Rc::clone(seen), Rc::clone(bad), Rc::clone(pat), fm.handle());
        let id = if reply.is_some() { PING } else { PONG };
        fm.set_handler(id, move |stream: FmStream, src| {
            let (seen, bad, pat, handle) = (
                Rc::clone(&seen),
                Rc::clone(&bad),
                Rc::clone(&pat),
                handle.clone(),
            );
            async move {
                let mut msg = [0u8; HEADER_BYTES];
                let got = stream.receive(&mut msg).await;
                if !pat.check(seen.get(), &msg[..got]) {
                    bad.set(bad.get() + 1);
                }
                if let Some(id) = reply {
                    handle.send_from_handler(src, id, msg.to_vec());
                }
                seen.set(seen.get() + 1);
            }
        });
    }
    let done_at = Rc::new(Cell::new(Nanos::ZERO));
    {
        let (pongs, done_at, pat) = (Rc::clone(&pongs), Rc::clone(&done_at), Rc::clone(pat));
        let mut sent = 0u64;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                fm0.extract_all();
                if pongs.get() >= rounds {
                    done_at.set(fm0.now());
                    return StepOutcome::Done;
                }
                if sent == pongs.get()
                    && fm0
                        .try_send_message(1, PING, &[&pat.header(sent, HEADER_BYTES)])
                        .is_ok()
                {
                    sent += 1;
                }
                StepOutcome::Wait
            }),
        );
    }
    sim.set_program(
        NodeId(1),
        Box::new(move || {
            fm1.extract_all();
            if echoed.get() >= rounds && fm1.progress() {
                return StepOutcome::Done;
            }
            StepOutcome::Wait
        }),
    );
    finish(sim, &done_at, bad, "FM 2.x ping-pong")
}

/// Virtual time for `rounds` FM 1.x 16-byte round trips.
fn fm1_pingpong(pat: &Rc<Pattern>, rounds: u64, bad: &Failures) -> Nanos {
    let profile = MachineProfile::sparc_fm1();
    let mut sim = two_nodes(profile);
    let (mut fm0, mut fm1) = fm1_pair(&sim, profile);
    let pongs = Rc::new(Cell::new(0u64));
    let echoed = Rc::new(Cell::new(0u64));
    {
        let (pongs, bad, pat) = (Rc::clone(&pongs), Rc::clone(bad), Rc::clone(pat));
        fm0.set_handler(
            PONG,
            Box::new(move |_eng, _src, msg| {
                if !pat.check(pongs.get(), msg) {
                    bad.set(bad.get() + 1);
                }
                pongs.set(pongs.get() + 1);
            }),
        );
    }
    {
        let (echoed, bad, pat) = (Rc::clone(&echoed), Rc::clone(bad), Rc::clone(pat));
        fm1.set_handler(
            PING,
            Box::new(move |eng, src, msg| {
                if !pat.check(echoed.get(), msg) {
                    bad.set(bad.get() + 1);
                }
                eng.send_from_handler(src, PONG, msg.to_vec());
                echoed.set(echoed.get() + 1);
            }),
        );
    }
    let done_at = Rc::new(Cell::new(Nanos::ZERO));
    {
        let (pongs, done_at, pat) = (Rc::clone(&pongs), Rc::clone(&done_at), Rc::clone(pat));
        let mut sent = 0u64;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                fm0.extract();
                if pongs.get() >= rounds {
                    done_at.set(fm0.now());
                    return StepOutcome::Done;
                }
                if sent == pongs.get()
                    && fm0
                        .try_send(1, PING, &pat.header(sent, HEADER_BYTES))
                        .is_ok()
                {
                    sent += 1;
                }
                StepOutcome::Wait
            }),
        );
    }
    sim.set_program(
        NodeId(1),
        Box::new(move || {
            fm1.extract();
            if echoed.get() >= rounds && fm1.progress() {
                return StepOutcome::Done;
            }
            StepOutcome::Wait
        }),
    );
    finish(sim, &done_at, bad, "FM 1.x ping-pong")
}

/// Virtual time for `count` FM 2.x 2 KB messages, sender to receiver.
fn fm2_stream(pat: &Rc<Pattern>, count: u64, bad: &Failures) -> Nanos {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim = two_nodes(profile);
    let (fm_s, fm_r) = fm2_pair(&sim, profile);
    let got = Rc::new(Cell::new(0u64));
    {
        let (got, bad, pat) = (Rc::clone(&got), Rc::clone(bad), Rc::clone(pat));
        let scratch = Rc::new(Cell::new(vec![0u8; STREAM_BYTES]));
        fm_r.set_handler(PING, move |stream: FmStream, _src| {
            let (got, bad, pat, scratch) = (
                Rc::clone(&got),
                Rc::clone(&bad),
                Rc::clone(&pat),
                Rc::clone(&scratch),
            );
            async move {
                let mut buf = scratch.take();
                buf.resize(STREAM_BYTES, 0);
                let n = stream.receive(&mut buf[..]).await;
                if !pat.check(got.get(), &buf[..n]) {
                    bad.set(bad.get() + 1);
                }
                got.set(got.get() + 1);
                scratch.set(buf);
            }
        });
    }
    {
        let pat = Rc::clone(pat);
        let mut sent = 0u64;
        sim.set_program(
            NodeId(0),
            Box::new(move || loop {
                if sent == count {
                    return StepOutcome::Done;
                }
                let hdr = pat.header(sent, STREAM_BYTES);
                let pieces: [&[u8]; 2] = [&hdr, pat.body(sent, STREAM_BYTES)];
                if fm_s.try_send_message(1, PING, &pieces).is_ok() {
                    sent += 1;
                    continue;
                }
                fm_s.extract_all(); // absorb returned credits
                if fm_s.try_send_message(1, PING, &pieces).is_ok() {
                    sent += 1;
                    continue;
                }
                return StepOutcome::Wait;
            }),
        );
    }
    let done_at = Rc::new(Cell::new(Nanos::ZERO));
    {
        let done_at = Rc::clone(&done_at);
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                fm_r.extract_all();
                if got.get() >= count {
                    done_at.set(fm_r.now());
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }
    finish(sim, &done_at, bad, "FM 2.x stream")
}

/// Virtual time for `count` FM 1.x 2 KB messages, sender to receiver.
fn fm1_stream(pat: &Rc<Pattern>, count: u64, bad: &Failures) -> Nanos {
    let profile = MachineProfile::sparc_fm1();
    let mut sim = two_nodes(profile);
    let (mut fm_s, mut fm_r) = fm1_pair(&sim, profile);
    let got = Rc::new(Cell::new(0u64));
    {
        let (got, bad, pat) = (Rc::clone(&got), Rc::clone(bad), Rc::clone(pat));
        fm_r.set_handler(
            PING,
            Box::new(move |_eng, _src, msg| {
                if !pat.check(got.get(), msg) {
                    bad.set(bad.get() + 1);
                }
                got.set(got.get() + 1);
            }),
        );
    }
    {
        let pat = Rc::clone(pat);
        let mut sent = 0u64;
        // FM 1.x takes one contiguous buffer: this assembly is the
        // sender's, as in the paper's FM 1.x bandwidth test.
        let mut msg = vec![0u8; STREAM_BYTES];
        sim.set_program(
            NodeId(0),
            Box::new(move || loop {
                if sent == count {
                    return StepOutcome::Done;
                }
                pat.fill(sent, &mut msg);
                if fm_s.try_send(1, PING, &msg).is_ok() {
                    sent += 1;
                    continue;
                }
                fm_s.extract();
                if fm_s.try_send(1, PING, &msg).is_ok() {
                    sent += 1;
                    continue;
                }
                return StepOutcome::Wait;
            }),
        );
    }
    let done_at = Rc::new(Cell::new(Nanos::ZERO));
    {
        let done_at = Rc::clone(&done_at);
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                fm_r.extract();
                if got.get() >= count {
                    done_at.set(fm_r.now());
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }
    finish(sim, &done_at, bad, "FM 1.x stream")
}

/// The clock of an MPI binding (the trait has none).
trait Clock {
    fn clock(&mut self) -> Nanos;
}

impl Clock for Mpi1<SimDevice> {
    fn clock(&mut self) -> Nanos {
        self.now()
    }
}

impl Clock for Mpi2<SimDevice> {
    fn clock(&mut self) -> Nanos {
        self.fm().now()
    }
}

/// Virtual time for `rounds` MPI 16-byte round trips over either
/// binding.
fn mpi_pingpong<M: Mpi + Clock + 'static>(
    mut sim: Sim,
    mut a: M,
    mut b: M,
    pat: &Rc<Pattern>,
    rounds: u64,
    bad: &Failures,
) -> Nanos {
    let done_at = Rc::new(Cell::new(Nanos::ZERO));
    {
        let (done_at, pat, bad) = (Rc::clone(&done_at), Rc::clone(pat), Rc::clone(bad));
        let mut round = 0u64;
        let mut pending: Option<RecvReq> = None;
        sim.set_program(
            NodeId(0),
            Box::new(move || loop {
                a.progress();
                match &pending {
                    None => {
                        if round == rounds {
                            done_at.set(a.clock());
                            return StepOutcome::Done;
                        }
                        a.isend(1, 1, pat.header(round, HEADER_BYTES).to_vec());
                        pending = Some(a.irecv(Some(1), Some(2), HEADER_BYTES));
                    }
                    Some(req) if req.is_done() => {
                        let back = req.take().expect("done");
                        if !pat.check(round, &back) {
                            bad.set(bad.get() + 1);
                        }
                        pending = None;
                        round += 1;
                    }
                    Some(_) => return StepOutcome::Wait,
                }
            }),
        );
    }
    {
        let mut round = 0u64;
        let mut pending: Option<RecvReq> = None;
        sim.set_program(
            NodeId(1),
            Box::new(move || loop {
                b.progress();
                match &pending {
                    None => {
                        if round == rounds {
                            return StepOutcome::Done;
                        }
                        pending = Some(b.irecv(Some(0), Some(1), HEADER_BYTES));
                    }
                    Some(req) if req.is_done() => {
                        b.isend(0, 2, req.take().expect("done"));
                        pending = None;
                        round += 1;
                    }
                    Some(_) => return StepOutcome::Wait,
                }
            }),
        );
    }
    finish(sim, &done_at, bad, "MPI ping-pong")
}

/// Virtual time for `count` MPI 2 KB messages with every receive
/// pre-posted (the standard MPI bandwidth shape).
fn mpi_stream<M: Mpi + Clock + 'static>(
    mut sim: Sim,
    mut s: M,
    mut r: M,
    pat: &Rc<Pattern>,
    count: u64,
    bad: &Failures,
) -> Nanos {
    {
        let pat = Rc::clone(pat);
        let mut reqs = Vec::new();
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                if reqs.is_empty() {
                    reqs = (0..count)
                        .map(|i| s.isend(1, 0, pat.message(i, STREAM_BYTES)))
                        .collect();
                }
                s.progress();
                if reqs.iter().all(|q| q.is_done()) {
                    StepOutcome::Done
                } else {
                    StepOutcome::Wait
                }
            }),
        );
    }
    let done_at = Rc::new(Cell::new(Nanos::ZERO));
    {
        let (done_at, pat, bad) = (Rc::clone(&done_at), Rc::clone(pat), Rc::clone(bad));
        let mut reqs: Vec<RecvReq> = Vec::new();
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                if reqs.is_empty() {
                    reqs = (0..count)
                        .map(|_| r.irecv(Some(0), Some(0), STREAM_BYTES))
                        .collect();
                }
                r.progress();
                if !reqs.iter().all(|q| q.is_done()) {
                    return StepOutcome::Wait;
                }
                done_at.set(r.clock());
                for (i, q) in reqs.iter().enumerate() {
                    if !q.take().is_some_and(|m| pat.check(i as u64, &m)) {
                        bad.set(bad.get() + 1);
                    }
                }
                StepOutcome::Done
            }),
        );
    }
    finish(sim, &done_at, bad, "MPI stream")
}

fn mpi1_pair(sim: &Sim) -> (Mpi1<SimDevice>, Mpi1<SimDevice>) {
    let (a, b) = fm1_pair(sim, MachineProfile::sparc_fm1());
    (Mpi1::new(a), Mpi1::new(b))
}

fn mpi2_pair(sim: &Sim) -> (Mpi2<SimDevice>, Mpi2<SimDevice>) {
    let (a, b) = fm2_pair(sim, MachineProfile::ppro200_fm2());
    (Mpi2::new(a), Mpi2::new(b))
}

fn mpi1_pingpong(pat: &Rc<Pattern>, rounds: u64, bad: &Failures) -> Nanos {
    let sim = two_nodes(MachineProfile::sparc_fm1());
    let (a, b) = mpi1_pair(&sim);
    mpi_pingpong(sim, a, b, pat, rounds, bad)
}

fn mpi2_pingpong(pat: &Rc<Pattern>, rounds: u64, bad: &Failures) -> Nanos {
    let sim = two_nodes(MachineProfile::ppro200_fm2());
    let (a, b) = mpi2_pair(&sim);
    mpi_pingpong(sim, a, b, pat, rounds, bad)
}

fn mpi1_stream(pat: &Rc<Pattern>, count: u64, bad: &Failures) -> Nanos {
    let sim = two_nodes(MachineProfile::sparc_fm1());
    let (a, b) = mpi1_pair(&sim);
    mpi_stream(sim, a, b, pat, count, bad)
}

fn mpi2_stream(pat: &Rc<Pattern>, count: u64, bad: &Failures) -> Nanos {
    let sim = two_nodes(MachineProfile::ppro200_fm2());
    let (a, b) = mpi2_pair(&sim);
    mpi_stream(sim, a, b, pat, count, bad)
}

/// The eight virtual-time results: one-way ns per round trip leg, and
/// total ns per stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// `[fm1, mpi1, fm2, mpi2]` mean one-way 16-byte time, virtual ns.
    pub oneway_ns: [u64; 4],
    /// `[fm1, mpi1, fm2, mpi2]` virtual ns to stream `REF_MSGS` 2 KB
    /// messages.
    pub stream_ns: [u64; 4],
}

impl Reference {
    fn stream_mbps(&self, i: usize) -> f64 {
        (REF_MSGS * STREAM_BYTES as u64) as f64 * 1e3 / self.stream_ns[i].max(1) as f64
    }
}

/// One pass over all eight scenarios.
pub fn reference(pat: &Rc<Pattern>, bad: &Failures) -> Reference {
    let half = |total: Nanos| total.as_ns() / (2 * REF_ROUNDS);
    Reference {
        oneway_ns: [
            half(fm1_pingpong(pat, REF_ROUNDS, bad)),
            half(mpi1_pingpong(pat, REF_ROUNDS, bad)),
            half(fm2_pingpong(pat, REF_ROUNDS, bad)),
            half(mpi2_pingpong(pat, REF_ROUNDS, bad)),
        ],
        stream_ns: [
            fm1_stream(pat, REF_MSGS, bad).as_ns(),
            mpi1_stream(pat, REF_MSGS, bad).as_ns(),
            fm2_stream(pat, REF_MSGS, bad).as_ns(),
            mpi2_stream(pat, REF_MSGS, bad).as_ns(),
        ],
    }
}

/// What the simulator charges one 16-byte FM 2.x message end to end,
/// added up from the machine profile: the benchmark's own reading of the
/// cost model, compared with the simulated one-way time in the ledger.
fn charged_oneway_ns(p: &MachineProfile) -> Vec<(&'static str, u64)> {
    let wire = u64::from(fm_core::HEADER_WIRE_BYTES) + HEADER_BYTES as u64;
    vec![
        ("send call", p.host.send_call_ns + p.host.piece_call_ns),
        (
            "send packet",
            p.host.per_packet_send_ns + p.host.flow_control_ns,
        ),
        ("pio", p.iobus.pio(wire).as_ns()),
        ("nic send", p.nic.send_packet_ns),
        (
            "link",
            p.link.serialize(wire).as_ns() + p.link.wire_latency_ns + p.link.switch_latency_ns,
        ),
        ("nic recv", p.nic.recv_packet_ns),
        ("dma", p.iobus.dma(wire).as_ns()),
        (
            "extract",
            p.host.extract_poll_ns + p.host.per_packet_recv_ns + p.host.flow_control_ns,
        ),
        (
            "handler",
            p.host.handler_dispatch_ns
                + p.host.piece_call_ns
                + p.host.memcpy(HEADER_BYTES as u64).as_ns(),
        ),
    ]
}

/// The reference pass as it read when the benchmark was defined.
pub const RECORDED: Reference = Reference {
    oneway_ns: [13_613, 29_874, 10_197, 14_148],
    stream_ns: [249_499_010, 917_476_513, 57_827_824, 62_697_353],
};

/// Share by which a virtual time may exceed its recorded value before
/// the run counts as incorrect.
pub const VIRTUAL_BOUND: f64 = 0.001;

impl Reference {
    /// The virtual times of `self` that are worse than `recorded` by
    /// more than [`VIRTUAL_BOUND`], as `(what, now, recorded)`.
    pub fn worse_than(&self, recorded: &Reference) -> Vec<(String, u64, u64)> {
        let names = ["fm1", "mpi1", "fm2", "mpi2"];
        let pairs = self
            .oneway_ns
            .iter()
            .zip(recorded.oneway_ns)
            .zip(names.map(|n| format!("{n} 16 B one-way")))
            .chain(
                self.stream_ns
                    .iter()
                    .zip(recorded.stream_ns)
                    .zip(names.map(|n| format!("{n} 2 KB stream"))),
            );
        pairs
            .filter(|((&now, was), _)| now as f64 > *was as f64 * (1.0 + VIRTUAL_BOUND))
            .map(|((&now, was), what)| (what, now, was))
            .collect()
    }
}

/// Run the workload.
pub fn run(opts: &Opts) -> RunResult {
    let pat = Rc::new(Pattern::new(opts.seed, STREAM_BYTES));
    let bad: Failures = Rc::default();
    let mut r = RunResult::default();

    // Shaped like the two-thread workloads: a run is so many sessions,
    // each a set-up and then a stretch of measurement. Set-up here is
    // the reference pass — build all eight simulated pairs from scratch
    // and run each scenario once — which is also the exact part.
    let mut setups = Vec::new();
    let mut first: Option<Reference> = None;
    let mut lat = LatencyLeg::new(opts.traced);
    let mut lat_wall = LatencyLeg::new(false);
    let mut stream = ThroughputLeg::new(SAMPLE_MSGS, SAMPLE_MSGS * STREAM_BYTES as u64);
    let mut seg = Vec::with_capacity(SAMPLES_PER_SEG);
    let session_secs = opts.seconds / sessions(opts) as f64;
    for _ in 0..sessions(opts) {
        let speed = clock::steps_per_ns();
        let t0 = Instant::now();
        let pass = reference(&pat, &bad);
        let secs = t0.elapsed().as_secs_f64();
        setups.push(secs * clock::to_reference(speed, clock::steps_per_ns()));
        r.count(4 * REF_ROUNDS + 4 * REF_MSGS, 0);
        match first {
            None => {
                for (what, now, was) in pass.worse_than(&RECORDED) {
                    r.count(0, 1);
                    r.notes.push(format!(
                        "virtual time regressed: {what} {now} sim_ns, recorded {was} sim_ns"
                    ));
                }
                first = Some(pass);
            }
            Some(f) if f != pass => {
                r.count(0, 1);
                r.notes
                    .push(format!("virtual time not reproducible: {f:?} vs {pass:?}"));
            }
            Some(_) => {}
        }

        // Host time per simulated message; a traced run differs only in
        // what it prints, so every session measures.
        let mut plan = RoundPlan::new(session_secs);
        let mut round = Round::Warm;
        while round != Round::Stop {
            seg.clear();
            let speed_before = clock::steps_per_ns();
            for _ in 0..SAMPLES_PER_SEG {
                let t0 = Instant::now();
                fm2_pingpong(&pat, SAMPLE_ROUNDS, &bad);
                seg.push((t0.elapsed().as_nanos() as u64 / (2 * SAMPLE_ROUNDS)) as u32);
            }
            let speed_mid = clock::steps_per_ns();
            let t0 = Instant::now();
            mpi2_stream(&pat, SAMPLE_MSGS, &bad);
            let stream_ns = t0.elapsed().as_nanos() as f64;
            if round == Round::Measure {
                lat_wall.push_segment(&mut seg.clone());
                let scale = clock::to_reference(speed_before, speed_mid);
                seg.iter_mut()
                    .for_each(|s| *s = (f64::from(*s) * scale).round() as u32);
                lat.push_segment(&mut seg);
                let scale = clock::to_reference(speed_mid, clock::steps_per_ns());
                stream.seg_ns.push(stream_ns * scale);
            }
            r.count(SAMPLES_PER_SEG as u64 * SAMPLE_ROUNDS + SAMPLE_MSGS, 0);
            round = plan.next(false);
        }
    }
    r.count(0, bad.get());
    let first = first.expect("at least one session");

    if !opts.traced {
        r.set("setup_s", median(&setups), setups.len() as u64);
        r.set("oneway_p50_us", lat.p50_ns() / 1e3, lat.samples);
        r.set("msg_rate_kps", stream.ops_per_ms(), stream.ops());
        r.set("goodput_mbps", stream.mbps(), stream.ops());
        r.set("peak_rss_mb", peak_rss_mb(), 1);
        return r;
    }

    let names = ["fm1", "mpi1", "fm2", "mpi2"];
    let oneway = [
        "sim.fm1_oneway_16b",
        "sim.mpi1_oneway_16b",
        "sim.fm2_oneway_16b",
        "sim.mpi2_oneway_16b",
    ];
    let streams = [
        "sim.fm1_stream_2k",
        "sim.mpi1_stream_2k",
        "sim.fm2_stream_2k",
        "sim.mpi2_stream_2k",
    ];
    for i in 0..4 {
        r.set(oneway[i], first.oneway_ns[i] as f64, REF_ROUNDS);
        r.set(streams[i], first.stream_mbps(i), REF_MSGS);
        r.notes.push(format!(
            "{:<5} 16 B one-way {:>6} sim_ns   2 KB stream {:>7.3} sim_MB/s",
            names[i],
            first.oneway_ns[i],
            first.stream_mbps(i)
        ));
    }
    r.set(
        "mpi-fm.sim_eff_fm1_2k",
        first.stream_mbps(1) / first.stream_mbps(0),
        REF_MSGS,
    );
    r.set(
        "mpi-fm.sim_eff_fm2_2k",
        first.stream_mbps(3) / first.stream_mbps(2),
        REF_MSGS,
    );
    r.set(
        "myrinet-sim.host_ns_per_sim_msg",
        lat_wall.p50_ns(),
        lat_wall.samples,
    );
    r.set_tails(&lat, 1e3);
    r.set_fail_share();
    // Ledger on the simulator: the charged costs must add up to the
    // simulated one-way time within 10 %.
    let parts = charged_oneway_ns(&MachineProfile::ppro200_fm2());
    let charged: u64 = parts.iter().map(|p| p.1).sum();
    let ledger = charged as f64 / first.oneway_ns[2].max(1) as f64;
    r.set("ledger.rungs_over_p50", ledger, parts.len() as u64);
    r.notes.push(format!(
        "ledger sim FM 2.x 16 B one-way: {} = {charged} sim_ns vs simulated {} sim_ns ({})",
        parts
            .iter()
            .map(|(n, v)| format!("{n} {v}"))
            .collect::<Vec<_>>()
            .join(" + "),
        first.oneway_ns[2],
        if (ledger - 1.0).abs() <= 0.10 {
            "ok"
        } else {
            "LAYER MISSING"
        },
    ));
    r
}
