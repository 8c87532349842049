//! The one measurement only UDP has: how fast the membership layer
//! readmits a restarted node. It kills and restarts a rank mid-run, which
//! no [`crate::fabric::Fabric`] does — a fabric's ranks live exactly as
//! long as the run — so it assembles its own two sockets; the engines are
//! the UDP fabric's.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fm_core::blocking::fm2_send;
use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, FmStream, LogHistogram, PeerEventKind};
use fm_udp::{loopback_cluster, restart_node, UdpConfig, UdpDevice};

use crate::fabric::{Fabric, Udp};

const PING: HandlerId = HandlerId(1);

/// Result of the churn probe: how fast the membership layer readmits a
/// restarted node.
pub struct ChurnDist {
    /// Kill/restart cycles measured.
    pub cycles: usize,
    /// Wall-clock from `restart_node` to the restarted engine's first
    /// FM-level delivery (join barrier + rejoin propagation + the
    /// survivor resuming its stream), one sample per cycle, in ns.
    pub recovery_ns: LogHistogram,
    /// Down verdicts the survivor's detector issued.
    pub downs: u64,
    /// Epoch-bump rejoins the survivor admitted.
    pub rejoins: u64,
}

/// Kill/restart churn probe over real loopback UDP: node 1 dies without
/// a goodbye and comes back under a bumped epoch, `cycles` times, while
/// node 0 keeps a paced stream running whenever it believes node 1 is
/// alive. Measures recovery wall-clock per cycle; aggressive liveness
/// timeouts (5/40/120 ms) keep the probe in wall-clock seconds.
pub fn udp_churn_dist(cycles: usize) -> ChurnDist {
    let cfg = UdpConfig {
        heartbeat_interval: Duration::from_millis(5),
        suspect_after: Duration::from_millis(40),
        down_after: Duration::from_millis(120),
        ..UdpConfig::default()
    };
    let mut devices = loopback_cluster(2, cfg.clone()).expect("bind probe sockets");
    let peers = devices[0].peers().to_vec();
    let (mut first_life, mut dev) = (devices.pop().unwrap(), devices.pop().unwrap());

    let stop = Arc::new(AtomicBool::new(false));
    let survivor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            dev.join(Duration::from_secs(10)).expect("probe join");
            let fm: Fm2Engine<UdpDevice> = Udp::default().engine(dev);
            let down: Rc<Cell<bool>> = Rc::default();
            {
                let down = Rc::clone(&down);
                fm.set_peer_handler(move |ev| match ev.kind {
                    PeerEventKind::Down => down.set(true),
                    PeerEventKind::Rejoining | PeerEventKind::Up => down.set(false),
                    PeerEventKind::Suspect => {}
                });
            }
            let payload = [0x5Au8; 64];
            while !stop.load(Ordering::Relaxed) {
                if !down.get() {
                    fm2_send(&fm, 1, PING, &[&payload]);
                }
                let pace = Instant::now();
                while pace.elapsed() < Duration::from_micros(200) {
                    fm.extract_all();
                }
            }
            fm.with_device(|d| d.stats())
        })
    };

    // A victim incarnation: join (or rejoin), receive one message to
    // prove the stream reached this life, and die without a word.
    let incarnation = |dev: UdpDevice| {
        let fm = Udp::default().engine(dev);
        let got: Rc<Cell<usize>> = Rc::default();
        {
            let got = Rc::clone(&got);
            fm.set_handler(PING, move |stream: FmStream, _| {
                let got = Rc::clone(&got);
                async move {
                    stream.skip(stream.msg_len()).await;
                    got.set(got.get() + 1);
                }
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.get() == 0 {
            assert!(
                Instant::now() < deadline,
                "churn probe: stream never resumed"
            );
            fm.extract_all();
        }
    };

    first_life
        .join(Duration::from_secs(10))
        .expect("probe join");
    incarnation(first_life); // then the engine (and socket) drops

    let mut recovery_ns = LogHistogram::new();
    for cycle in 0..cycles {
        // Let the survivor's detector reach the terminal Down verdict.
        std::thread::sleep(Duration::from_millis(250));
        let t0 = Instant::now();
        let mut dev =
            restart_node(1, peers.clone(), cycle as u64 + 1, cfg.clone()).expect("rebind victim");
        dev.join(Duration::from_secs(10)).expect("probe rejoin");
        incarnation(dev);
        recovery_ns.record(t0.elapsed().as_nanos() as u64);
    }
    stop.store(true, Ordering::Relaxed);
    let udp = survivor.join().expect("survivor thread");
    ChurnDist {
        cycles,
        recovery_ns,
        downs: udp.downs,
        rejoins: udp.rejoins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_churn_probe_measures_recovery() {
        let d = udp_churn_dist(2);
        assert_eq!(d.recovery_ns.count(), 2, "one sample per cycle");
        assert!(d.recovery_ns.p50() > 0);
        assert!(d.rejoins >= 2, "every restart admitted: {}", d.rejoins);
        assert!(d.downs >= 1, "the detector fired at least once");
    }
}
