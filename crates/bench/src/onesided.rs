//! One-sided put bandwidth: one probe over any [`Fabric`].
//!
//! The probe streams `count` `size`-byte `FM_put`s from rank 0 into a
//! registered arena region on rank 1, keeping a small pipeline of
//! transfers outstanding, and measures initiator-observed bandwidth
//! (first put issued → last FIN received) together with the bytes the
//! target engine copied: a put lands through the per-packet sink, so
//! that count equals the payload at every size. `calibrate` sweeps the
//! sizes on every substrate and commits the `*_put_*` headlines the CI
//! gate watches.

use fm_core::{Fm2Engine, NetDevice, Onesided, OnesidedConfig, OsPort, OsStatus, RegionHandle};
use fm_model::Nanos;

use crate::fabric::{Fabric, Program, Step};
use crate::harness::StreamResult;

/// Outstanding puts kept in flight: the FIN of one put travels back
/// behind the bytes of the next.
const WINDOW: usize = 8;

/// Probe geometry: a `WINDOW`-slot rotation of put destinations plus one
/// sentinel byte the initiator puts last to tell the target the stream is
/// over (the probe is one-sided — no target-side message handler ever
/// runs, and on the simulator only an arrival re-wakes a parked rank).
#[derive(Clone, Copy)]
struct Geometry {
    arena: usize,
    sentinel_off: usize,
}

fn geometry(size: usize) -> Geometry {
    let slots = size.max(1) * WINDOW;
    Geometry {
        arena: slots + 64,
        sentinel_off: slots,
    }
}

/// The whole-arena region both ends register first thing; slot 0,
/// epoch 0 on a fresh table, so the initiator can name the target's
/// region without an out-of-band handshake.
const ARENA: RegionHandle = RegionHandle { index: 0, epoch: 0 };

/// Drain completions, then refill the pipeline.
fn pump(port: &OsPort, size: usize, count: usize, issued: &mut usize, done: &mut usize) {
    while let Some(c) = port.poll_completion() {
        assert_eq!(c.status, OsStatus::Ok, "bench put failed: {:?}", c.status);
        *done += 1;
    }
    while *issued < count && *issued - *done < WINDOW {
        let off = (*issued % WINDOW) * size;
        port.put_from(1, ARENA, off as u64, ARENA, off, size)
            .expect("bench put_from");
        *issued += 1;
    }
}

/// Stream `count` puts of `size` bytes rank 0 → rank 1 over `fabric`;
/// bandwidth is payload bytes over the time (on rank 0's clock) at which
/// the initiator saw the last FIN, and `recv_copied` the bytes the target
/// engine copied for them (one delivery copy: the payload).
pub fn put_stream<F: Fabric>(fabric: &F, size: usize, count: usize) -> StreamResult {
    let geo = geometry(size);
    let cfg = OnesidedConfig {
        arena_bytes: geo.arena,
        // Wide segments: the per-chunk message overhead amortizes and
        // the probe reads the landing path, not the chunking.
        chunk_bytes: 64 * 1024,
    };
    let out = fabric.run(2, |rank, fm| {
        let os = Onesided::new(&fm, cfg);
        os.register(0, geo.arena).expect("arena");
        match rank {
            0 => initiator(fm, os, size, count, geo),
            _ => target(fm, os, geo),
        }
    });
    StreamResult {
        bytes: (size * count) as u64,
        elapsed: Nanos(out[0]),
        unexpected: 0,
        recv_copied: out[1] - 1, // less the sentinel byte
    }
}

/// Pipeline the puts, note the elapsed nanoseconds when the last one
/// completes, then plant the sentinel and wait for its FIN.
fn initiator<D: NetDevice + 'static>(
    fm: Fm2Engine<D>,
    mut os: Onesided<D>,
    size: usize,
    count: usize,
    geo: Geometry,
) -> Program<u64> {
    let port = os.port();
    let pattern: Vec<u8> = (0..geo.arena).map(|i| (i % 251) as u8).collect();
    port.write_local(ARENA, 0, &pattern).expect("fill source");
    let started = fm.now();
    let (mut issued, mut done) = (0usize, 0usize);
    let mut elapsed: Option<u64> = None;
    Box::new(move || {
        let moved = fm.extract_all() > 0;
        os.progress();
        if let Some(ns) = elapsed {
            return match port.poll_completion() {
                Some(_) => Step::Done(ns),
                None => Step::pending(moved),
            };
        }
        pump(&port, size, count, &mut issued, &mut done);
        // Newly issued jobs must hit the wire before parking — a parked
        // rank wakes on *new* activity only.
        os.progress();
        if done == count {
            elapsed = Some((fm.now() - started).as_ns());
            port.put(1, ARENA, geo.sentinel_off as u64, &[0xFF]);
            os.progress();
        }
        Step::pending(moved)
    })
}

/// Pump until the sentinel byte lands, then report engine-level copied
/// bytes.
fn target<D: NetDevice + 'static>(
    fm: Fm2Engine<D>,
    mut os: Onesided<D>,
    geo: Geometry,
) -> Program<u64> {
    let port = os.port();
    Box::new(move || {
        let moved = fm.extract_all() > 0;
        os.progress();
        let mut sentinel = [0u8; 1];
        port.read_local(ARENA, geo.sentinel_off, &mut sentinel)
            .expect("sentinel read");
        if sentinel[0] != 0xFF {
            return Step::pending(moved);
        }
        Step::Done(fm.stats().bytes_copied)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Routed, Shm, Sim, Threads, Udp};
    use fm_model::MachineProfile;

    /// The probe moves every byte over `fabric` and the target copies
    /// each once.
    fn moves_every_byte<F: Fabric>(fabric: &F) {
        let r = put_stream(fabric, 8 * 1024, 16);
        assert_eq!(r.bytes, 8 * 1024 * 16);
        assert!(r.elapsed.as_ns() > 0);
        assert!(r.bandwidth().as_mbps() > 0.0);
        assert_eq!(r.recv_copied, r.bytes);
    }

    #[test]
    fn put_probe_moves_every_byte_on_every_fabric() {
        moves_every_byte(&Sim::new(MachineProfile::ppro200_fm2()));
        moves_every_byte(&Threads);
        moves_every_byte(&Shm::DEEP);
        moves_every_byte(&Udp::default());
        moves_every_byte(&Routed { hosts: vec![0, 1] });
    }

    #[test]
    fn sim_target_copies_exactly_the_payload() {
        let sim = Sim::new(MachineProfile::ppro200_fm2());
        for (size, count) in [(1 << 10, 128), (64 << 10, 64), (256 << 10, 16)] {
            let r = put_stream(&sim, size, count);
            // One delivery copy per byte — no staging at any size.
            assert_eq!(r.recv_copied, r.bytes, "{size} B puts");
        }
    }
}
