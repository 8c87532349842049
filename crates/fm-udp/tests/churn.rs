//! Churn at the *engine* level: a full `Fm2Engine` stack over real UDP
//! sockets, with one node killed mid-run (its process state simply
//! dropped — no goodbye, exactly like SIGKILL) and, in the first test,
//! restarted under a bumped incarnation epoch.
//!
//! What must hold, per the membership contract:
//!
//! * survivors detect the silence and see `Down` for the victim's
//!   incarnation within the suspicion timeout, via the app-visible peer
//!   handler (`FM_set_peer_handler` in the paper's vocabulary);
//! * a restarted victim rejoins under a new epoch: survivors see
//!   `Rejoining` then `Up`, reset per-peer protocol state
//!   (`peer_resets`), and accept the fresh stream from round 0;
//! * traffic *between survivors* is never disturbed: every message is
//!   delivered exactly once, in order — zero FM-level loss.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use fm_core::blocking::{fm2_send, fm2_wait_until};
use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, PeerEventKind, Reliability, RetransmitConfig};
use fm_model::MachineProfile;
use fm_udp::{restart_node, UdpConfig, UdpDevice};

const DATA: HandlerId = HandlerId(7);
const JOIN: Duration = Duration::from_secs(10);
const DEADLINE: Duration = Duration::from_secs(30);

/// Aggressive liveness settings so the tests run in hundreds of ms.
fn churn_cfg() -> UdpConfig {
    UdpConfig {
        heartbeat_interval: Duration::from_millis(5),
        suspect_after: Duration::from_millis(40),
        down_after: Duration::from_millis(120),
        ..UdpConfig::default()
    }
}

fn engine(dev: UdpDevice) -> Fm2Engine<UdpDevice> {
    Fm2Engine::with_reliability(
        dev,
        MachineProfile::ppro200_fm2(),
        Reliability::Retransmit(RetransmitConfig::default()),
    )
}

/// Bind the cluster by hand (instead of `loopback_cluster`) so the peer
/// map sticks around for `restart_node`.
fn bind_cluster(n: usize) -> (Vec<UdpDevice>, Vec<std::net::SocketAddr>) {
    let sockets: Vec<std::net::UdpSocket> = (0..n)
        .map(|_| std::net::UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<_> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
    let devs = sockets
        .into_iter()
        .enumerate()
        .map(|(i, s)| UdpDevice::from_socket(s, i, peers.clone(), churn_cfg()).unwrap())
        .collect();
    (devs, peers)
}

/// Everything one survivor observed, for the main thread to judge.
struct SurvivorReport {
    /// Peer-handler transitions for the victim node, in order.
    victim_events: Vec<PeerEventKind>,
    /// The victim's streams, one vec of rounds per incarnation.
    victim_streams: Vec<Vec<u32>>,
    /// Rounds received from the fellow survivor.
    fellow_rounds: u32,
    /// Engine-side count of peer state resets (rejoins applied).
    peer_resets: u64,
    /// When the `Down` event for the victim was observed.
    down_seen_at: Option<Instant>,
}

/// Run one survivor: join, stream `rounds` paced messages to the fellow
/// survivor while validating the inbound streams from both the fellow
/// and the (dying, maybe rejoining) victim, then progress until `done`
/// says this node has seen everything the test demands.
fn run_survivor(
    mut dev: UdpDevice,
    fellow: usize,
    victim: usize,
    rounds: u32,
    done: impl Fn(&SurvivorReportCell) -> bool,
) -> SurvivorReport {
    dev.join(JOIN).expect("survivor join barrier");
    let fm = engine(dev);

    let cell = SurvivorReportCell::new_with_initial_stream();
    {
        let events = Rc::clone(&cell.victim_events);
        let streams = Rc::clone(&cell.victim_streams);
        let down_at = Rc::clone(&cell.down_seen_at);
        fm.set_peer_handler(move |ev| {
            if ev.peer != victim {
                return;
            }
            events.borrow_mut().push(ev.kind);
            match ev.kind {
                PeerEventKind::Down => {
                    down_at.borrow_mut().get_or_insert_with(Instant::now);
                }
                PeerEventKind::Rejoining => streams.borrow_mut().push(Vec::new()),
                _ => {}
            }
        });
    }
    {
        let streams = Rc::clone(&cell.victim_streams);
        let fellow_rounds = Rc::clone(&cell.fellow_rounds);
        fm.set_handler(DATA, move |stream, src| {
            let streams = Rc::clone(&streams);
            let fellow_rounds = Rc::clone(&fellow_rounds);
            async move {
                let mut hdr = [0u8; 4];
                stream.receive(&mut hdr).await;
                stream.skip(stream.remaining()).await;
                let round = u32::from_le_bytes(hdr);
                if src == victim {
                    streams.borrow_mut().last_mut().unwrap().push(round);
                } else {
                    let mut got = fellow_rounds.borrow_mut();
                    assert_eq!(round, *got, "survivor-to-survivor stream broke order");
                    *got += 1;
                }
            }
        });
    }

    // Paced stream to the fellow survivor, spanning the kill window.
    for round in 0..rounds {
        fm2_send(&fm, fellow, DATA, &[&round.to_le_bytes()]);
        let pace = Instant::now();
        while pace.elapsed() < Duration::from_millis(1) {
            fm.extract_all();
            fm.progress();
        }
    }
    // Keep the detector and retransmit machinery running until the
    // test-specific condition holds.
    let deadline = Instant::now() + DEADLINE;
    while !done(&cell) {
        assert!(
            Instant::now() < deadline,
            "survivor wait timed out: events={:?} streams={:?} fellow={}",
            cell.victim_events.borrow(),
            cell.victim_streams.borrow(),
            cell.fellow_rounds.borrow(),
        );
        fm.extract_all();
        fm.progress();
        thread::yield_now();
    }
    let report = SurvivorReport {
        victim_events: cell.victim_events.borrow().clone(),
        victim_streams: cell.victim_streams.borrow().clone(),
        fellow_rounds: *cell.fellow_rounds.borrow(),
        peer_resets: fm.stats().peer_resets,
        down_seen_at: *cell.down_seen_at.borrow(),
    };
    report
}

/// Shared mutable state between the survivor's handlers and its wait
/// condition (single-threaded within the node, hence `Rc<RefCell>`).
#[derive(Default)]
struct SurvivorReportCell {
    victim_events: Rc<RefCell<Vec<PeerEventKind>>>,
    victim_streams: Rc<RefCell<Vec<Vec<u32>>>>,
    fellow_rounds: Rc<RefCell<u32>>,
    down_seen_at: Rc<RefCell<Option<Instant>>>,
}

impl SurvivorReportCell {
    fn new_with_initial_stream() -> Self {
        let c = Self::default();
        c.victim_streams.borrow_mut().push(Vec::new());
        c
    }
}

const VICTIM_ROUNDS: u32 = 40;
const SURVIVOR_ROUNDS: u32 = 250;

fn contiguous(stream: &[u32], len: u32) -> bool {
    stream.len() == len as usize && stream.iter().enumerate().all(|(i, &r)| r == i as u32)
}

#[test]
fn killed_node_goes_down_then_rejoins_with_zero_survivor_loss() {
    let (mut devs, peers) = bind_cluster(3);
    let victim_dev = devs.pop().unwrap();
    let survivors: Vec<_> = devs
        .drain(..)
        .enumerate()
        .map(|(i, dev)| {
            let done = move |c: &SurvivorReportCell| {
                let ev = c.victim_events.borrow();
                let streams = c.victim_streams.borrow();
                ev.contains(&PeerEventKind::Rejoining)
                    && streams.len() == 2
                    && contiguous(&streams[0], VICTIM_ROUNDS)
                    && contiguous(&streams[1], VICTIM_ROUNDS)
                    && *c.fellow_rounds.borrow() == SURVIVOR_ROUNDS
            };
            thread::spawn(move || run_survivor(dev, 1 - i, 2, SURVIVOR_ROUNDS, done))
        })
        .collect();

    // Incarnation one: deliver a full stream to both survivors, then die
    // without a word. Incarnation two: come back under a bumped epoch
    // and deliver a fresh stream from round 0.
    let victim = thread::spawn(move || {
        let mut dev = victim_dev;
        dev.join(JOIN).expect("victim join barrier");
        let fm = engine(dev);
        for round in 0..VICTIM_ROUNDS {
            for p in 0..2 {
                fm2_send(&fm, p, DATA, &[&round.to_le_bytes()]);
            }
        }
        fm2_wait_until(&fm, || fm.unacked_packets() == 0);
        drop(fm); // SIGKILL-equivalent: socket closes, no goodbye

        // Let the survivors' detectors reach the terminal Down verdict
        // before the new incarnation shows up (down_after is 120ms).
        thread::sleep(Duration::from_millis(400));
        let mut dev = restart_node(2, peers, 1, churn_cfg()).expect("rebind victim address");
        dev.join(JOIN).expect("rejoin against live survivors");
        let fm = engine(dev);
        for round in 0..VICTIM_ROUNDS {
            for p in 0..2 {
                fm2_send(&fm, p, DATA, &[&round.to_le_bytes()]);
            }
        }
        fm2_wait_until(&fm, || fm.unacked_packets() == 0);
    });
    victim.join().expect("victim thread");
    for s in survivors {
        let report = s.join().expect("survivor thread");
        // Down must precede Rejoining: the old incarnation was declared
        // dead, not silently superseded.
        let down_at = report
            .victim_events
            .iter()
            .position(|k| *k == PeerEventKind::Down)
            .expect("victim went Down");
        let rejoin_at = report
            .victim_events
            .iter()
            .position(|k| *k == PeerEventKind::Rejoining)
            .expect("victim rejoined");
        assert!(down_at < rejoin_at, "events: {:?}", report.victim_events);
        assert_eq!(
            report.victim_events[rejoin_at + 1],
            PeerEventKind::Up,
            "Rejoining must be followed by Up: {:?}",
            report.victim_events
        );
        // Both incarnations delivered complete, in-order streams, and
        // the engine reset sequence state exactly once.
        assert_eq!(report.victim_streams.len(), 2);
        assert_eq!(report.peer_resets, 1);
        // Zero FM-level loss among survivors.
        assert_eq!(report.fellow_rounds, SURVIVOR_ROUNDS);
    }
}

#[test]
fn paused_peer_is_suspected_not_downed_and_srtt_recovers() {
    // A straggler, not a corpse: node 1 stops driving its engine for
    // 100ms — longer than suspect_after (40ms), well short of down_after
    // (400ms here). The detector must raise Suspect and then clear it
    // with Up, never Down; the paced stream must arrive complete and in
    // order; and the adaptive RTO estimator must come back to a loopback-
    // scale srtt instead of absorbing the outage (Karn's rule discards
    // retransmitted samples, fresh post-resume acks re-converge it).
    const ROUNDS: u32 = 250;
    const PAUSE_AT: u32 = 50;
    let pause = Duration::from_millis(100);
    let cfg = UdpConfig {
        heartbeat_interval: Duration::from_millis(5),
        suspect_after: Duration::from_millis(40),
        down_after: Duration::from_millis(400),
        ..UdpConfig::default()
    };
    let sockets: Vec<std::net::UdpSocket> = (0..2)
        .map(|_| std::net::UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<_> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
    let mut devs: Vec<_> = sockets
        .into_iter()
        .enumerate()
        .map(|(i, s)| UdpDevice::from_socket(s, i, peers.clone(), cfg.clone()).unwrap())
        .collect();
    let straggler_dev = devs.pop().unwrap();
    let sender_dev = devs.pop().unwrap();

    const ECHO: HandlerId = HandlerId(8);
    let straggler = thread::spawn(move || {
        let mut dev = straggler_dev;
        dev.join(JOIN).expect("straggler join");
        let fm = engine(dev);
        let echoed = Rc::new(RefCell::new(0u32));
        {
            let echoed = Rc::clone(&echoed);
            let fm_h = fm.clone();
            fm.set_handler(DATA, move |stream, src| {
                let echoed = Rc::clone(&echoed);
                let fm = fm_h.clone();
                async move {
                    let mut hdr = [0u8; 4];
                    stream.receive(&mut hdr).await;
                    stream.skip(stream.remaining()).await;
                    let round = u32::from_le_bytes(hdr);
                    let mut g = echoed.borrow_mut();
                    assert_eq!(round, *g, "stream order broke across the pause");
                    *g += 1;
                    fm.send_from_handler(src, ECHO, hdr.to_vec());
                }
            });
        }
        fm2_wait_until(&fm, || *echoed.borrow() >= PAUSE_AT);
        thread::sleep(pause); // the straggle: no extracts, no acks, no heartbeats
        fm2_wait_until(&fm, || *echoed.borrow() >= ROUNDS);
        // Drain the ack tail so the sender's window empties.
        let cap = Instant::now() + Duration::from_secs(5);
        while fm.unacked_packets() > 0 && Instant::now() < cap {
            fm.extract_all();
            fm.progress();
            thread::yield_now();
        }
        let total = *echoed.borrow();
        total
    });

    let mut dev = sender_dev;
    dev.join(JOIN).expect("sender join");
    let fm = engine(dev);
    let events: Rc<RefCell<Vec<PeerEventKind>>> = Rc::default();
    {
        let events = Rc::clone(&events);
        fm.set_peer_handler(move |ev| {
            if ev.peer == 1 {
                events.borrow_mut().push(ev.kind);
            }
        });
    }
    let echoes = Rc::new(RefCell::new(0u32));
    {
        let echoes = Rc::clone(&echoes);
        fm.set_handler(ECHO, move |stream, _src| {
            let echoes = Rc::clone(&echoes);
            async move {
                stream.skip(stream.remaining()).await;
                *echoes.borrow_mut() += 1;
            }
        });
    }
    let mut baseline_srtt = None;
    for round in 0..ROUNDS {
        fm2_send(&fm, 1, DATA, &[&round.to_le_bytes()]);
        fm2_wait_until(&fm, || *echoes.borrow() > round);
        if round == PAUSE_AT - 1 {
            // Warmed-up estimate just before the peer goes quiet (echo
            // replies piggyback acks, so the probe samples cleanly).
            baseline_srtt = fm.srtt_ns(1);
        }
    }
    fm2_wait_until(&fm, || fm.unacked_packets() == 0);
    let received = straggler.join().expect("straggler thread");
    assert_eq!(received, ROUNDS, "stream incomplete across the pause");

    let ev = events.borrow().clone();
    assert!(
        !ev.contains(&PeerEventKind::Down),
        "paused peer wrongly declared Down: {ev:?}"
    );
    let suspect = ev
        .iter()
        .position(|k| *k == PeerEventKind::Suspect)
        .expect("a 100ms silence must raise Suspect");
    assert!(
        ev[suspect + 1..].contains(&PeerEventKind::Up),
        "Suspect never cleared back to Up: {ev:?}"
    );
    // The estimator recovered: srtt is back at loopback scale (the pause
    // was 100ms — an srtt that absorbed it would sit near 10^8 ns), and
    // the backed-off RTO has collapsed below the pause length again.
    let baseline = baseline_srtt.expect("srtt warmed up before the pause");
    let final_srtt = fm.srtt_ns(1).expect("srtt still tracked");
    let final_rto = fm.current_rto_ns(1).expect("rto still tracked");
    assert!(
        final_srtt < 10_000_000,
        "srtt did not recover: {final_srtt} ns (baseline {baseline} ns)"
    );
    assert!(
        final_rto < pause.as_nanos() as u64,
        "RTO still backed off: {final_rto} ns"
    );
}

#[test]
fn killed_node_without_restart_goes_down_within_the_suspicion_timeout() {
    let (mut devs, _peers) = bind_cluster(3);
    let victim_dev = devs.pop().unwrap();
    let (killed_tx, killed_rx) = mpsc::channel::<Instant>();

    let survivors: Vec<_> = devs
        .drain(..)
        .enumerate()
        .map(|(i, dev)| {
            let done = move |c: &SurvivorReportCell| {
                c.victim_events.borrow().contains(&PeerEventKind::Down)
                    && contiguous(&c.victim_streams.borrow()[0], VICTIM_ROUNDS)
                    && *c.fellow_rounds.borrow() == SURVIVOR_ROUNDS
            };
            thread::spawn(move || run_survivor(dev, 1 - i, 2, SURVIVOR_ROUNDS, done))
        })
        .collect();

    let victim = thread::spawn(move || {
        let mut dev = victim_dev;
        dev.join(JOIN).expect("victim join barrier");
        let fm = engine(dev);
        for round in 0..VICTIM_ROUNDS {
            for p in 0..2 {
                fm2_send(&fm, p, DATA, &[&round.to_le_bytes()]);
            }
        }
        fm2_wait_until(&fm, || fm.unacked_packets() == 0);
        drop(fm);
        killed_tx.send(Instant::now()).unwrap();
    });
    victim.join().expect("victim thread");
    let killed_at = killed_rx.recv().unwrap();

    for s in survivors {
        let report = s.join().expect("survivor thread");
        // The callback fired with the terminal verdict...
        assert!(report.victim_events.contains(&PeerEventKind::Down));
        assert!(!report.victim_events.contains(&PeerEventKind::Rejoining));
        // ...promptly: within the configured suspicion pipeline
        // (suspect_after + down_after = 160ms) plus generous scheduler
        // slack, not an eventual timeout minutes later.
        let latency = report
            .down_seen_at
            .expect("down timestamp")
            .saturating_duration_since(killed_at);
        assert!(
            latency < Duration::from_secs(5),
            "down detection took {latency:?}"
        );
        // The victim's only incarnation delivered in full before dying,
        // and the survivor-to-survivor stream is intact.
        assert_eq!(report.victim_streams.len(), 1);
        assert_eq!(report.fellow_rounds, SURVIVOR_ROUNDS);
        assert_eq!(report.peer_resets, 0);
    }
}
