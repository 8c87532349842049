//! Blocking convenience wrappers over the non-blocking engine API.
//!
//! The engines are non-blocking by design (the simulator needs `try_*` +
//! yield). On real transports (`fm-threaded` OS threads, `fm-udp`
//! processes), blocking is just spin-with-progress: retry the operation,
//! draining the network in between so flow-control credits — and, in
//! [`crate::Reliability::Retransmit`] mode, acks and retransmit timers —
//! keep circulating (this mirrors what the real FM library did inside
//! `FM_send`: poll the NIC while waiting for credits, or risk deadlock).
//!
//! Generic over any [`NetDevice`], which is why this lives in `fm-core`
//! rather than in one transport crate. Never call these on a simulator
//! device: virtual time only advances when the caller yields to the event
//! loop, so a spin here would hang forever.
//!
//! [`run_ranks`] is the one rank spawner of the workspace: every
//! in-process cluster runner (`ThreadedCluster`, `UdpCluster`,
//! `ShmCluster`, the routed fabric of `fm-bench`) opens its devices its
//! own way and hands them here. [`quiesce`] is what each of those ranks
//! does between finishing and dropping its device.

use std::time::{Duration, Instant};

use crate::device::NetDevice;
use crate::packet::HandlerId;
use crate::{Fm1Engine, Fm2Engine, WouldBlock};

/// Upper bound on fruitless polls before declaring the cluster wedged —
/// generous, but turns a genuine deadlock into a diagnosis instead of a
/// hang. (This crate's own unit tests never block on a live peer; they
/// run with a low limit so the exit itself can be tested.)
const SPIN_LIMIT: u64 = if cfg!(test) { 10_000 } else { 500_000_000 };

/// Fruitless polls spent spinning before the first `yield_now`: about
/// 20 µs of polling, which covers a peer that is running on another core
/// and is far under a scheduler time slice, so an oversubscribed box
/// still hands the core over almost at once.
const SPINS_BEFORE_YIELD: u64 = 64;

/// The one wait primitive of every blocking call above the engines:
/// poll, and after each fruitless poll call [`Backoff::snooze`]. The
/// first [`SPINS_BEFORE_YIELD`] fruitless polls spin (a syscall per poll
/// costs more than the poll), later ones yield the core, and a wait that
/// stays fruitless for the whole limit panics with a diagnosis — no
/// blocking wait is without an exit.
pub struct Backoff {
    what: &'static str,
    limit: u64,
    fruitless: u64,
}

impl Backoff {
    /// A wait described as `what` in the wedge diagnosis.
    pub fn new(what: &'static str) -> Self {
        Self::with_limit(what, SPIN_LIMIT)
    }

    /// [`Backoff::new`] with a caller-chosen wedge limit, so that a layered
    /// crate's unit tests can pin its waits' exit without polling 500
    /// million times.
    pub fn with_limit(what: &'static str, limit: u64) -> Self {
        Backoff {
            what,
            limit,
            fruitless: 0,
        }
    }

    /// The last poll made progress: start over from spinning.
    pub fn reset(&mut self) {
        self.fruitless = 0;
    }

    /// The last poll was fruitless: spin or yield before the next one.
    ///
    /// # Panics
    /// Panics once the wait has been fruitless `limit` polls in a row.
    pub fn snooze(&mut self) {
        self.fruitless += 1;
        assert!(
            self.fruitless < self.limit,
            "blocking {} polled {} times without progress — peer gone?",
            self.what,
            self.limit
        );
        if self.fruitless <= SPINS_BEFORE_YIELD {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Run one rank per device: rank `i` runs `f(i, devices[i])` on its own
/// scoped thread named `{name}-{i}`. Returns every rank's result in rank
/// order; a panic in any rank propagates once the others have been joined.
///
/// Engines are single-threaded by design, so only the device crosses the
/// spawn and `f` builds the engine inside the thread.
pub fn run_ranks<D, F, R>(name: &str, devices: Vec<D>, f: F) -> Vec<R>
where
    D: Send,
    F: Fn(usize, D) -> R + Sync,
    R: Send,
{
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .into_iter()
            .enumerate()
            .map(|(i, dev)| {
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn_scoped(scope, move || f(i, dev))
                    .expect("spawn node thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    })
}

/// How long the wire must stay silent before a finished rank leaves.
const QUIET: Duration = Duration::from_millis(100);
/// A vanished peer must not wedge teardown.
const QUIESCE_CAP: Duration = Duration::from_secs(5);

/// Keep a finished rank's engine serviced until every packet it sent is
/// acknowledged (trivially so under `TrustSubstrate`) and nothing has
/// arrived for [`QUIET`]: a peer still waiting on our last ack, or about
/// to retransmit, is not abandoned mid-conversation. Capped.
pub fn quiesce<D: NetDevice>(fm: &Fm2Engine<D>) {
    let cap = Instant::now() + QUIESCE_CAP;
    let mut quiet_since = Instant::now();
    while Instant::now() < cap {
        if fm.extract_all() > 0 {
            quiet_since = Instant::now();
        }
        if fm.unacked_packets() == 0 && quiet_since.elapsed() >= QUIET {
            return;
        }
        std::thread::yield_now();
    }
}

/// Blocking `FM_send` on FM 1.x: retries until credits and queue space
/// admit the whole message.
pub fn fm1_send<D: NetDevice>(fm: &mut Fm1Engine<D>, dst: usize, handler: HandlerId, data: &[u8]) {
    let mut backoff = Backoff::new("FM_send");
    loop {
        match fm.try_send(dst, handler, data) {
            Ok(()) => return,
            Err(WouldBlock) => {
                // Drain incoming traffic: that is what returns credits.
                fm.extract();
                backoff.snooze();
            }
        }
    }
}

/// Blocking gather-send on FM 2.x.
pub fn fm2_send<D: NetDevice>(fm: &Fm2Engine<D>, dst: usize, handler: HandlerId, pieces: &[&[u8]]) {
    let mut backoff = Backoff::new("FM_send_piece");
    loop {
        match fm.try_send_message(dst, handler, pieces) {
            Ok(()) => return,
            Err(WouldBlock) => {
                fm.extract_all();
                backoff.snooze();
            }
        }
    }
}

/// Extract (unbounded) until `done()` turns true; yields between polls.
pub fn fm2_wait_until<D: NetDevice>(fm: &Fm2Engine<D>, mut done: impl FnMut() -> bool) {
    let mut backoff = Backoff::new("FM_extract wait");
    while !done() {
        if fm.extract_all() == 0 {
            fm.progress();
            backoff.snooze();
        } else {
            backoff.reset();
        }
    }
}

/// FM 1.x flavour of [`fm2_wait_until`].
pub fn fm1_wait_until<D: NetDevice>(fm: &mut Fm1Engine<D>, mut done: impl FnMut() -> bool) {
    let mut backoff = Backoff::new("FM_extract wait");
    while !done() {
        if fm.extract() == 0 {
            fm.progress();
            backoff.snooze();
        } else {
            backoff.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::LoopbackPair;
    use fm_model::MachineProfile;

    #[test]
    fn progress_restarts_the_count() {
        let mut b = Backoff::with_limit("test wait", 100);
        for _ in 0..10 {
            for _ in 0..99 {
                b.snooze();
            }
            b.reset();
        }
    }

    #[test]
    fn ranks_get_their_own_device_and_results_come_back_in_rank_order() {
        let out = run_ranks("test-rank", vec![10usize, 20, 30, 40], |i, dev| {
            let name = std::thread::current().name().map(str::to_owned);
            assert_eq!(name.as_deref(), Some(format!("test-rank-{i}").as_str()));
            // Later ranks finish first: order must come from the rank, not
            // from completion.
            std::thread::sleep(std::time::Duration::from_millis(4 * (4 - i as u64)));
            (i, dev)
        });
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
    }

    #[test]
    #[should_panic(expected = "node thread panicked")]
    fn a_panicking_rank_propagates() {
        run_ranks("test-rank", vec![(), ()], |i, ()| assert_ne!(i, 1, "boom"));
    }

    #[test]
    #[should_panic(expected = "blocking FM_extract wait polled")]
    fn a_wait_nothing_will_satisfy_panics_with_the_diagnosis() {
        let (a, _b) = LoopbackPair::new(8);
        let fm = Fm2Engine::new(a, MachineProfile::ppro200_fm2());
        fm2_wait_until(&fm, || false); // the peer never sends
    }
}
