//! One-sided transfers under real fault injection: seeded datagram loss
//! and a target that dies mid-put.
//!
//! A put is a stream of chunk messages answered by one single-datagram
//! FIN, a get a single-datagram request answered by a DATA stream; under
//! injected loss *any* of those datagrams can vanish and the
//! retransmission sublayer must recover all of them — the initiator's
//! completions stay `Ok` and every landed byte must read back exactly.
//! The loss schedule is seeded, so a failure replays byte-for-byte.
//!
//! The churn half of the contract: a target that goes silent
//! mid-transfer (its thread simply drops the device — no goodbye,
//! exactly like SIGKILL) must surface as an `OsStatus::PeerDown`
//! completion at the initiator, never as a hang.

use std::time::{Duration, Instant};

use fm_core::blocking::quiesce;
use fm_core::{
    Fm2Engine, Onesided, OnesidedConfig, OsStatus, RegionHandle, Reliability, RetransmitConfig,
};
use fm_model::MachineProfile;
use fm_udp::{UdpCluster, UdpConfig, UdpDevice};

const ARENA: usize = 512 * 1024;
const PUT_BASE: usize = 4096;
const SLOT: usize = 40 * 1024;

/// Mixed put sizes: single packets, one whole chunk and its neighbors,
/// and multi-chunk streams ending in a runt (chunks of 4096).
const SIZES: [usize; 10] = [1024, 4096, 40000, 2048, 16000, 1, 2049, 40000, 8192, 33000];

fn os_cfg() -> OnesidedConfig {
    OnesidedConfig {
        arena_bytes: ARENA,
        chunk_bytes: 4096,
    }
}

fn arena_handle() -> RegionHandle {
    RegionHandle { index: 0, epoch: 0 }
}

fn pattern(k: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((k * 13 + i) % 251 + 1) as u8).collect()
}

fn engine(dev: UdpDevice) -> Fm2Engine<UdpDevice> {
    Fm2Engine::with_reliability(
        dev,
        MachineProfile::ppro200_fm2(),
        Reliability::Retransmit(RetransmitConfig::default()),
    )
}

/// Pump the engine and the one-sided layer until `done(flushed)` holds
/// (`flushed`: nothing the layer queued is still off the wire). A wedge is
/// a failure naming `what`, never a hang.
fn pump_until(
    fm: &Fm2Engine<UdpDevice>,
    os: &mut Onesided<UdpDevice>,
    what: &str,
    mut done: impl FnMut(bool) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        fm.extract_all();
        let flushed = os.progress();
        if done(flushed) {
            return;
        }
        let pending = os.pending_ops();
        assert!(
            Instant::now() < deadline,
            "{what} wedged: pending={pending}"
        );
        std::thread::yield_now();
    }
}

/// Pump until `n` more operations have completed, every one `Ok`.
fn complete_ok(fm: &Fm2Engine<UdpDevice>, os: &mut Onesided<UdpDevice>, what: &str, n: usize) {
    let port = os.port();
    let mut done = 0usize;
    pump_until(fm, os, what, |_| {
        while let Some(c) = port.poll_completion() {
            assert_eq!(c.status, OsStatus::Ok, "{what} failed under loss");
            done += 1;
        }
        done == n
    });
}

#[test]
fn puts_and_gets_survive_seeded_datagram_loss_without_corruption() {
    let cfg = UdpConfig {
        drop_outbound: 0.01,
        drop_seed: 0x5EED05, // replayable: the loss schedule is fixed
        ..UdpConfig::default()
    };
    UdpCluster::run(2, cfg, move |rank, dev| {
        let fm = engine(dev);
        let mut os = Onesided::new(&fm, os_cfg());
        let port = os.port();
        port.register(0, ARENA).expect("arena");
        if rank == 1 {
            // Target: pump until the initiator plants the done byte and
            // the reply to it is on the wire.
            pump_until(&fm, &mut os, "lossy target", |flushed| {
                let mut flag = [0u8; 1];
                port.read_local(arena_handle(), 0, &mut flag)
                    .expect("flag probe");
                flushed && flag[0] == 0xFF
            });
            quiesce(&fm);
            assert!(fm.take_errors().is_empty(), "target engine errors");
            return;
        }

        // Initiator: one put per slot, then read every slot back over
        // the wire and require bit-exact contents.
        for (k, &len) in SIZES.iter().enumerate() {
            let off = (PUT_BASE + k * SLOT) as u64;
            port.put(1, arena_handle(), off, &pattern(k, len));
        }
        complete_ok(&fm, &mut os, "lossy puts", SIZES.len());

        let gets: Vec<_> = SIZES
            .iter()
            .enumerate()
            .map(|(k, &len)| {
                let local = port.register_owned(vec![0u8; len]).expect("get buffer");
                let off = (PUT_BASE + k * SLOT) as u64;
                port.get(1, arena_handle(), off, local, 0, len)
                    .expect("issue get");
                local
            })
            .collect();
        complete_ok(&fm, &mut os, "lossy gets", gets.len());
        for (k, local) in gets.into_iter().enumerate() {
            let back = port.deregister_owned(local).expect("get buffer back");
            assert_eq!(
                back,
                pattern(k, SIZES[k]),
                "slot {k} corrupted under 1% loss"
            );
        }

        // Release the target, then settle the link.
        port.put(1, arena_handle(), 0, &[0xFF]);
        complete_ok(&fm, &mut os, "done flag", 1);
        quiesce(&fm);
        assert!(fm.take_errors().is_empty(), "initiator engine errors");
    });
}

#[test]
fn target_death_mid_put_completes_with_peer_down() {
    // Aggressive liveness so the Down verdict lands in hundreds of ms.
    let cfg = UdpConfig {
        heartbeat_interval: Duration::from_millis(5),
        suspect_after: Duration::from_millis(40),
        down_after: Duration::from_millis(120),
        ..UdpConfig::default()
    };
    let outcomes = UdpCluster::run(2, cfg, |rank, dev| {
        let fm = engine(dev);
        let mut os = Onesided::new(&fm, os_cfg());
        let port = os.port();
        port.register(0, ARENA).expect("arena");
        if rank == 1 {
            // The victim: land the first bytes of the put (the
            // transfer is provably mid-flight), then die without a
            // goodbye — returning drops the engine and the socket.
            pump_until(&fm, &mut os, "victim waiting for the put", |_| {
                let mut first = [0u8; 1];
                port.read_local(arena_handle(), PUT_BASE, &mut first)
                    .expect("first-byte probe");
                first[0] != 0
            });
            return None;
        }

        // The initiator: one long put (50 chunks), which must complete
        // with PeerDown once the target goes silent.
        let token = port.put(1, arena_handle(), PUT_BASE as u64, &pattern(0, 200 * 1024));
        let mut status = None;
        pump_until(&fm, &mut os, "put to dead target", |_| {
            status = port.poll_completion().map(|c| {
                assert_eq!(c.token, token);
                c.status
            });
            status.is_some()
        });
        status
    });
    assert_eq!(
        outcomes[0],
        Some(OsStatus::PeerDown),
        "initiator must observe the target's death, not an Ok or a hang"
    );
    assert_eq!(outcomes[1], None);
}
