//! Blocking convenience wrappers over the non-blocking engine API, and
//! the one wait every blocking call of the stack is.
//!
//! The engines are non-blocking by design (the simulator needs `try_*` +
//! yield). On real transports (threads or processes over `fm-shm` rings
//! or `fm-udp` sockets), blocking is just spin-with-progress: retry the
//! operation, draining the network in between so flow-control credits —
//! and, toward peers over a lossy link, acks and retransmit timers —
//! keep circulating (this mirrors what the real FM library did
//! inside `FM_send`: poll the NIC while waiting for credits, or risk
//! deadlock).
//!
//! That loop is written once, as [`Backoff::wait`]: it asks the caller's
//! poll whether the wait is over, and the poll, when it is not, runs one
//! progress step and says whether that step moved anything ([`Step`]).
//! A step that moved starts the backoff over; a fruitless one snoozes.
//! Every blocking call above the engines is a call of it — the FM
//! wrappers below, MPI-FM's blocking requests and collectives, Socket-FM,
//! Shmem, the shuffle and the bench harness's rank driver — so they share
//! one exit rule.
//!
//! Generic over any [`NetDevice`], which is why this lives in `fm-core`
//! rather than in one transport crate. Never call these on a simulator
//! device: virtual time only advances when the caller yields to the event
//! loop, so a spin here would hang forever.
//!
//! [`run_ranks`] is the one rank spawner of the workspace: every
//! in-process cluster runner (`ThreadedCluster` over anonymous shm rings,
//! `ShmCluster` over named ones, `UdpCluster`, the routed fabric of
//! `fm-bench`) opens its devices its own way and hands them here.
//! [`quiesce`] is what each of those ranks does between finishing and
//! dropping its device. A rank that panics sets its run's abort flag as
//! it unwinds, and every [`Backoff::wait`] of the other ranks then panics
//! at its next idle poll: a dead rank fails its run instead of leaving
//! its peers spinning.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::device::NetDevice;
use crate::packet::HandlerId;
use crate::{Fm1Engine, Fm2Engine};

/// Upper bound on fruitless polls in a row before a wait declares the
/// cluster wedged ([`Backoff::new`]) — generous, but turns a genuine
/// deadlock into a diagnosis instead of a hang.
pub const WEDGE_LIMIT: u64 = 500_000_000;

/// [`WEDGE_LIMIT`], but low under this crate's own unit tests, which
/// never block on a live peer, so that the exit itself can be tested.
/// A layered crate does the same with [`Backoff::with_limit`].
const SPIN_LIMIT: u64 = if cfg!(test) { 10_000 } else { WEDGE_LIMIT };

/// Fruitless polls spent spinning before the first `yield_now`: about
/// 20 µs of polling, which covers a peer that is running on another core
/// and is far under a scheduler time slice, so an oversubscribed box
/// still hands the core over almost at once.
const SPINS_BEFORE_YIELD: u64 = 64;

thread_local! {
    /// On a rank thread of [`run_ranks`]: the abort flag of its run.
    static ABORT: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
}

/// What one poll of a [`Backoff::wait`] found.
#[derive(Debug)]
pub enum Step<T> {
    /// The wait is over, with this value.
    Done(T),
    /// Not yet, but the progress step moved something: poll again at
    /// once.
    Moved,
    /// Not yet, and nothing moved: back off before the next poll.
    Idle,
}

impl<T> Step<T> {
    /// The poll of most waits: `ready`'s value if it has one; otherwise
    /// run `progress`, which says whether it moved anything.
    pub fn or_progress(ready: Option<T>, progress: impl FnOnce() -> bool) -> Self {
        match ready {
            Some(v) => Step::Done(v),
            None if progress() => Step::Moved,
            None => Step::Idle,
        }
    }
}

/// The one wait of every blocking call above the engines, and its exit
/// rule. [`Backoff::wait`] polls until done; each fruitless poll is
/// followed by a snooze, and a poll that moved anything starts the count
/// over. The first 64 fruitless polls in a row spin (a syscall per poll
/// costs more than the poll), later ones yield the core, and a wait that
/// stays fruitless for the whole limit, or outlives a peer rank of
/// [`run_ranks`] that panicked, panics with a diagnosis — no blocking
/// wait is without an exit.
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

    /// Poll until `poll` reports [`Step::Done`], and return its value.
    /// `poll` checks readiness first and runs its progress step only when
    /// not ready ([`Step::or_progress`]).
    ///
    /// # Panics
    /// Panics, naming the wait, once `limit` polls in a row were
    /// [`Step::Idle`], or once another rank of this thread's [`run_ranks`]
    /// has panicked.
    pub fn wait<T>(mut self, mut poll: impl FnMut() -> Step<T>) -> T {
        loop {
            match poll() {
                Step::Done(v) => return v,
                Step::Moved => self.fruitless = 0,
                Step::Idle => self.snooze(),
            }
        }
    }

    /// A fruitless poll: spin or yield before the next one.
    fn snooze(&mut self) {
        let aborted = ABORT.with(|a| {
            a.borrow()
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
        });
        assert!(
            !aborted,
            "peer rank panicked: blocking {} abandoned",
            self.what
        );
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

/// Sets its run's abort flag when its rank thread unwinds.
struct AbortOnUnwind(Arc<AtomicBool>);

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Run one rank per device: rank `i` runs `f(i, devices[i])` on its own
/// scoped thread named `{name}-{i}`. Returns every rank's result in rank
/// order; a panic in any rank ends the other ranks' [`Backoff`] waits and
/// propagates once they have been joined.
///
/// Engines are single-threaded by design, so only the device crosses the
/// spawn and `f` builds the engine inside the thread.
pub fn run_ranks<D, F, R>(name: &str, devices: Vec<D>, f: F) -> Vec<R>
where
    D: Send,
    F: Fn(usize, D) -> R + Sync,
    R: Send,
{
    let (f, abort) = (&f, Arc::new(AtomicBool::new(false)));
    std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .into_iter()
            .enumerate()
            .map(|(i, dev)| {
                let abort = Arc::clone(&abort);
                let rank = move || {
                    ABORT.with(|a| *a.borrow_mut() = Some(Arc::clone(&abort)));
                    let _guard = AbortOnUnwind(abort);
                    f(i, dev)
                };
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn_scoped(scope, rank)
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
/// acknowledged (trivially so over trusted links) and nothing has
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

// The FM waits' progress step is one extract: it drains incoming
// traffic, which is what returns credits and acks, and ends with the
// engine's own `progress` (deferred sends, owed credits, timers). It
// moved something when it handed a handler anything.

/// Blocking `FM_send` on FM 1.x: retries until credits and queue space
/// admit the whole message.
pub fn fm1_send<D: NetDevice>(fm: &mut Fm1Engine<D>, dst: usize, handler: HandlerId, data: &[u8]) {
    Backoff::new("FM_send")
        .wait(|| Step::or_progress(fm.try_send(dst, handler, data).ok(), || fm.extract() > 0));
}

/// Blocking gather-send on FM 2.x.
pub fn fm2_send<D: NetDevice>(fm: &Fm2Engine<D>, dst: usize, handler: HandlerId, pieces: &[&[u8]]) {
    Backoff::new("FM_send_piece").wait(|| {
        let sent = fm.try_send_message(dst, handler, pieces).ok();
        Step::or_progress(sent, || fm.extract_all() > 0)
    });
}

/// Extract (unbounded) until `done()` turns true.
pub fn fm2_wait_until<D: NetDevice>(fm: &Fm2Engine<D>, mut done: impl FnMut() -> bool) {
    Backoff::new("FM_extract wait")
        .wait(|| Step::or_progress(done().then_some(()), || fm.extract_all() > 0));
}

/// FM 1.x flavour of [`fm2_wait_until`].
pub fn fm1_wait_until<D: NetDevice>(fm: &mut Fm1Engine<D>, mut done: impl FnMut() -> bool) {
    Backoff::new("FM_extract wait")
        .wait(|| Step::or_progress(done().then_some(()), || fm.extract() > 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::LoopbackPair;
    use fm_model::MachineProfile;

    #[test]
    fn progress_restarts_the_count() {
        // 99 idle polls, then one that moved, ten times over: never 100
        // idle in a row.
        let mut polls = 0u32;
        let got = Backoff::with_limit("test wait", 100).wait(|| {
            polls += 1;
            match polls {
                1000.. => Step::Done(polls),
                _ if polls.is_multiple_of(100) => Step::Moved,
                _ => Step::Idle,
            }
        });
        assert_eq!(got, 1000);
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
