//! The rung ladder: the same two-thread ping-pong or stream measured
//! with one more layer per rung, so a layer's self cost is its rung
//! minus the rung below.
//!
//! ```text
//! latency (16 B):  RawRing -> ShmDevice -> Fm2Engine/Trust -> +Retransmit -> RoutedDevice
//!                  UdpSocket -> UdpDevice -> Fm2Engine/Retransmit
//! bandwidth:       memcpy -> RawRing 2 KB -> Fm2Engine 2 KB -> Mpi2 2 KB
//!                  Onesided put/get -> Shmem put/get;  Fm2Engine 64 KiB -> SocketStack
//! ```
//!
//! Rungs are per-layer diagnostics, not gated: each runs for a fraction
//! of a second and reports the median over its segments.

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fm_core::device::{LoopbackPair, NetDevice};
use fm_core::packet::{FmPacket, HandlerId, PacketFlags, PacketHeader};
use fm_core::{BufPool, Fm1Engine, Fm2Engine, Reliability};
use fm_model::MachineProfile;
use fm_shm::{SegGeometry, Segment};

use crate::fabric::{registered_shm_config, run_pair, run_ranks, Join, Sync2};
use crate::legs::{deadline_for, FmLegs};
use crate::payload::Pattern;
use crate::report::RunResult;
use crate::stats::{LatencyLeg, ThroughputLeg};

/// Operations per segment of a latency rung.
const RUNG_SEG_OPS: usize = 4096;

/// Bytes cycled through by the memcpy baseline: larger than any cache
/// here, so the figure is a memory-to-memory copy rate like a ring's.
const MEMCPY_ARENA: usize = 32 << 20;

/// Copy rate of `size`-byte `memcpy`s walking a 32 MiB arena, MB/s.
pub fn memcpy_mbps(size: usize, secs: f64) -> f64 {
    let src = vec![0x5Au8; MEMCPY_ARENA];
    let mut dst = vec![0u8; MEMCPY_ARENA];
    let per_pass = MEMCPY_ARENA / size;
    let mut leg = ThroughputLeg::new(per_pass as u64, (per_pass * size) as u64);
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        for i in 0..per_pass {
            let o = i * size;
            dst[o..o + size].copy_from_slice(std::hint::black_box(&src[o..o + size]));
        }
        std::hint::black_box(&mut dst);
        leg.seg_ns.push(t0.elapsed().as_nanos() as f64);
        if started.elapsed().as_secs_f64() >= secs {
            return leg.mbps();
        }
    }
}

/// Record the machine's copy rate at the two sizes the ladders quote.
pub fn memcpy_baseline(r: &mut RunResult, secs: f64) {
    r.set("raw.memcpy_2k_mbps", memcpy_mbps(2048, secs / 2.0), 1);
    r.set("raw.memcpy_64k_mbps", memcpy_mbps(65_536, secs / 2.0), 1);
}

/// Run a raw (below-FM) ping-pong on two threads: `ping` does one round
/// trip on rank 0 (returning `false` to abandon the rung), `pong` serves
/// one poll on rank 1. Returns rank 0's round-trip leg.
fn raw_pingpong<A: Send, B: Send>(
    ends: (A, B),
    secs: f64,
    ping: impl Fn(&mut A, Instant) -> bool + Sync,
    pong: impl Fn(&mut B) + Sync,
) -> LatencyLeg {
    let stop = AtomicBool::new(false);
    let (mut a, mut b) = ends;
    std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                pong(&mut b);
            }
        });
        let deadline = deadline_for(secs);
        let mut leg = LatencyLeg::new(false);
        let mut seg = Vec::with_capacity(RUNG_SEG_OPS);
        let started = Instant::now();
        // One untimed segment first: page faults, pools, branch history.
        let mut warm = true;
        'rung: loop {
            seg.clear();
            for _ in 0..RUNG_SEG_OPS {
                let t0 = Instant::now();
                if !ping(&mut a, deadline) {
                    break 'rung;
                }
                seg.push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
            }
            if !warm {
                leg.push_segment(&mut seg);
            }
            warm = false;
            if started.elapsed().as_secs_f64() >= secs && !leg.seg_p50_ns.is_empty() {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        echo.join().expect("echo thread");
        leg
    })
}

/// A rank pair's mapped segment with default ring geometry, outside any
/// device: the bare `RawRing`s.
fn bare_rings(tag: &str) -> (Segment, Segment) {
    let cfg = registered_shm_config(tag);
    let geom = SegGeometry {
        slots: cfg.slots,
        payload: cfg.slot_payload,
    };
    let lo = Segment::create(&cfg.dir, &cfg.run_id, 0, 1, geom, 1).expect("create ring segment");
    let hi = Segment::attach(&cfg.dir, &cfg.run_id, 0, 1, geom, cfg.attach_timeout)
        .expect("attach ring segment");
    (lo, hi)
}

/// One-way time of a 16-byte frame through a bare `RawRing` pair, ns
/// (half the median round trip).
pub fn ring_pushpop_ns(secs: f64) -> f64 {
    let frame = [0xA5u8; 16];
    let push = |seg: &Segment| {
        while seg
            .tx
            .try_push(|slot| {
                slot[..16].copy_from_slice(&frame);
                Some(16usize)
            })
            .is_none()
        {}
    };
    let leg = raw_pingpong(
        bare_rings("ringpp"),
        secs,
        |seg, deadline| {
            push(seg);
            let mut spins = 0u32;
            while seg.rx.try_pop(|f| f.len()).is_none() {
                spins += 1;
                if spins % 4096 == 0 && Instant::now() >= deadline {
                    return false;
                }
            }
            true
        },
        |seg| {
            if seg.rx.try_pop(|f| f.len()).is_some() {
                push(seg);
            }
        },
    );
    leg.p50_ns() / 2.0
}

/// Goodput of 2 KB frames streamed one way through a bare `RawRing`,
/// MB/s (producer copies in, consumer copies out — what a device does).
pub fn ring_stream_2k_mbps(secs: f64) -> f64 {
    const SIZE: usize = 2048;
    const SEG: u64 = 8192;
    let (lo, hi) = bare_rings("ringst");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let src = vec![0x3Cu8; SIZE];
            while !stop.load(Ordering::Relaxed) {
                lo.tx.try_push(|slot| {
                    slot[..SIZE].copy_from_slice(&src);
                    Some(SIZE)
                });
            }
        });
        let mut dst = vec![0u8; SIZE];
        let mut leg = ThroughputLeg::new(SEG, SEG * SIZE as u64);
        let started = Instant::now();
        let deadline = deadline_for(secs);
        'rung: loop {
            let t0 = Instant::now();
            let mut got = 0u64;
            let mut spins = 0u32;
            while got < SEG {
                if hi.rx.try_pop(|f| dst.copy_from_slice(f)).is_some() {
                    got += 1;
                } else {
                    spins += 1;
                    if spins % 65_536 == 0 && Instant::now() >= deadline {
                        break 'rung;
                    }
                }
            }
            leg.seg_ns.push(t0.elapsed().as_nanos() as f64);
            if started.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        producer.join().expect("producer thread");
        std::hint::black_box(&dst);
        leg.mbps()
    })
}

fn raw_packet(pool: &BufPool, src: usize, dst: usize, seq: u32) -> FmPacket {
    let mut payload = pool.take();
    payload.extend_from_slice(&[0xA5u8; 16]);
    FmPacket {
        header: PacketHeader {
            src: src as u16,
            dst: dst as u16,
            handler: HandlerId(1),
            msg_seq: seq,
            pkt_seq: seq,
            msg_len: 16,
            flags: PacketFlags::FIRST | PacketFlags::LAST,
            credits: 0,
            ack: 0,
        },
        payload,
    }
}

/// One-way time of a 16-byte packet through a bare [`NetDevice`] pair
/// (no engine), ns. A round that sees no reply within 50 ms is re-sent,
/// which a lossy device may need once in a blue moon.
pub fn dev_oneway_16b_ns<D: NetDevice + Join + Send>(devices: Vec<D>, secs: f64) -> f64 {
    struct End<D> {
        dev: D,
        pool: BufPool,
        seq: u32,
    }
    let mut ends: Vec<End<D>> = run_pair(devices, |_, mut dev| {
        dev.join_cluster().expect("join barrier");
        End {
            dev,
            pool: BufPool::new(64, 8),
            seq: 0,
        }
    });
    let b = ends.pop().expect("two ends");
    let a = ends.pop().expect("two ends");
    let leg = raw_pingpong(
        (a, b),
        secs,
        |e, deadline| loop {
            e.seq = e.seq.wrapping_add(1);
            while e.dev.try_send(raw_packet(&e.pool, 0, 1, e.seq)).is_err() {}
            let resend = Instant::now() + Duration::from_millis(50);
            let mut spins = 0u32;
            loop {
                if e.dev.try_recv().is_some() {
                    return true;
                }
                spins += 1;
                if spins % 1024 == 0 {
                    let now = Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    if now >= resend {
                        break;
                    }
                }
            }
        },
        |e| {
            if e.dev.try_recv().is_some() {
                e.seq = e.seq.wrapping_add(1);
                while e.dev.try_send(raw_packet(&e.pool, 1, 0, e.seq)).is_err() {}
            }
        },
    );
    leg.p50_ns() / 2.0
}

/// One-way time of 16 bytes through a bare loopback `UdpSocket` pair, ns.
pub fn udp_socket_oneway_ns(secs: f64) -> f64 {
    let bind = || {
        let s = UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket");
        s.set_nonblocking(true).expect("nonblocking socket");
        s
    };
    let (a, b) = (bind(), bind());
    a.connect(b.local_addr().expect("local addr"))
        .expect("connect a->b");
    b.connect(a.local_addr().expect("local addr"))
        .expect("connect b->a");
    let msg = [0xA5u8; 16];
    let leg = raw_pingpong(
        (a, b),
        secs,
        |s, deadline| {
            let mut buf = [0u8; 64];
            loop {
                let _ = s.send(&msg);
                let resend = Instant::now() + Duration::from_millis(50);
                let mut spins = 0u32;
                loop {
                    if s.recv(&mut buf).is_ok() {
                        return true;
                    }
                    spins += 1;
                    if spins % 256 == 0 {
                        let now = Instant::now();
                        if now >= deadline {
                            return false;
                        }
                        if now >= resend {
                            break;
                        }
                    }
                }
            }
        },
        |s| {
            let mut buf = [0u8; 64];
            if s.recv(&mut buf).is_ok() {
                let _ = s.send(&msg);
            }
        },
    );
    leg.p50_ns() / 2.0
}

/// What an engine-level rung measured.
#[derive(Debug, Clone, Default)]
pub struct EngineRung<P> {
    /// One-way 16-byte time, ns (half the median round trip).
    pub oneway_ns: f64,
    /// Operations that failed (a rung with failures is not a number).
    pub failed: u64,
    /// What `probe` read off rank 0's device after the leg.
    pub probed: P,
}

/// The 16-byte FM 2.x ping-pong leg over `devices` with `reliability`;
/// `probe` reads the device's own counters once the leg is over.
pub fn fm_pingpong_rung<D, P>(
    devices: Vec<D>,
    reliability: Reliability,
    pat: &Arc<Pattern>,
    secs: f64,
    probe: impl Fn(&D) -> P + Sync,
) -> EngineRung<P>
where
    D: NetDevice + Join + Send + 'static,
    P: Send,
{
    let sync = Sync2::new();
    let mut out = run_ranks(devices, |rank, dev| {
        let fm =
            Fm2Engine::with_reliability(dev, MachineProfile::ppro200_fm2(), reliability.clone());
        let mut legs = FmLegs::new(&fm, rank, &sync, pat);
        legs.pingpong(0.0, RUNG_SEG_OPS, false);
        let leg = legs.pingpong(secs, RUNG_SEG_OPS, false);
        (leg, legs.failed, fm.with_device(|d| probe(d.inner())))
    });
    let failed = out.iter().map(|o| o.1).sum();
    let (leg, _, probed) = out.swap_remove(0);
    EngineRung {
        oneway_ns: leg.p50_ns() / 2.0,
        failed,
        probed,
    }
}

/// What a stream rung measured.
#[derive(Debug, Clone, Default)]
pub struct StreamRung {
    /// Receiver-side median segment goodput, MB/s.
    pub mbps: f64,
    /// Operations that failed.
    pub failed: u64,
}

/// The FM 2.x one-way stream leg of `size`-byte messages over `devices`.
pub fn fm_stream_rung<D: NetDevice + Join + Send + 'static>(
    devices: Vec<D>,
    reliability: Reliability,
    pat: &Arc<Pattern>,
    size: usize,
    seg_ops: u64,
    secs: f64,
) -> StreamRung {
    let sync = Sync2::new();
    let out = run_ranks(devices, |rank, dev| {
        let fm =
            Fm2Engine::with_reliability(dev, MachineProfile::ppro200_fm2(), reliability.clone());
        let mut legs = FmLegs::new(&fm, rank, &sync, pat);
        legs.stream(size, 0.0, seg_ops);
        let leg = legs.stream(size, secs, seg_ops);
        (leg, legs.failed)
    });
    StreamRung {
        mbps: out[1].0.mbps(),
        failed: out.iter().map(|o| o.1).sum(),
    }
}

/// Host time per 16-byte message through two FM 2.x engines joined by a
/// hand-pumped [`LoopbackPair`] on one thread — the engine with no
/// substrate and no second core — plus packets per message. ns.
pub fn fm2_loopback_16b_ns(secs: f64) -> f64 {
    let (da, db) = LoopbackPair::new(64);
    let profile = MachineProfile::ppro200_fm2();
    let (a, b) = (Fm2Engine::new(da, profile), Fm2Engine::new(db, profile));
    let got = std::rc::Rc::new(std::cell::Cell::new(0u64));
    {
        let got = std::rc::Rc::clone(&got);
        b.set_fast_handler(HandlerId(1), move |_src, p| {
            got.set(got.get() + p.len() as u64);
        });
    }
    let msg = [0xA5u8; 16];
    single_thread_rung(secs, || {
        a.try_send_message(1, HandlerId(1), &[&msg])
            .expect("loopback window never fills at depth 1");
        a.with_device(|da| b.with_device(|db| LoopbackPair::deliver(da, db)));
        b.extract_all();
        // Return credits so the window stays open.
        a.with_device(|da| b.with_device(|db| LoopbackPair::deliver(da, db)));
        a.extract_all();
    })
}

/// [`fm2_loopback_16b_ns`] for FM 1.x, plus its receive-side copies per
/// payload byte (the staging copy Figs. 3-4 charge): `(ns, copies)`.
pub fn fm1_loopback_16b(secs: f64) -> (f64, f64) {
    let (da, db) = LoopbackPair::new(64);
    let profile = MachineProfile::sparc_fm1();
    let (mut a, mut b) = (Fm1Engine::new(da, profile), Fm1Engine::new(db, profile));
    b.set_handler(
        HandlerId(1),
        Box::new(|_eng, _src, msg| {
            std::hint::black_box(msg.len());
        }),
    );
    let msg = [0xA5u8; 16];
    let ns = single_thread_rung(secs, || {
        a.try_send(1, HandlerId(1), &msg)
            .expect("loopback window never fills at depth 1");
        LoopbackPair::deliver(a.device_mut(), b.device_mut());
        b.extract();
        LoopbackPair::deliver(a.device_mut(), b.device_mut());
        a.extract();
    });
    // The staging copy shows on multi-packet messages: 2 KB is 16
    // packets at the FM 1.x MTU.
    let before = b.stats();
    let big = vec![0x5Au8; 2048];
    for _ in 0..64 {
        a.try_send(1, HandlerId(1), &big)
            .expect("2 KB fits the FM 1.x credit window");
        LoopbackPair::deliver(a.device_mut(), b.device_mut());
        b.extract();
        LoopbackPair::deliver(a.device_mut(), b.device_mut());
        a.extract();
    }
    let d = b.stats().delta(&before);
    let copies = d.bytes_copied as f64 / d.bytes_received.max(1) as f64;
    (ns, copies)
}

/// Median over segments of the mean time of `op`, ns.
fn single_thread_rung(secs: f64, mut op: impl FnMut()) -> f64 {
    let mut seg_ns = Vec::new();
    let started = Instant::now();
    for _ in 0..RUNG_SEG_OPS {
        op(); // warm
    }
    loop {
        let t0 = Instant::now();
        for _ in 0..RUNG_SEG_OPS {
            op();
        }
        seg_ns.push(t0.elapsed().as_nanos() as f64 / RUNG_SEG_OPS as f64);
        if started.elapsed().as_secs_f64() >= secs {
            return crate::stats::median(&seg_ns);
        }
    }
}

/// Time to encode one `size`-byte FM data packet into a UDP datagram
/// frame and decode it back, ns (the per-frame codec work on the UDP
/// path, both directions together).
pub fn wire_codec_ns(pat: &Arc<Pattern>, size: usize, secs: f64) -> f64 {
    let pool = BufPool::new(fm_udp::wire::MAX_DATAGRAM, 4);
    let mtu = MachineProfile::ppro200_fm2().fm.mtu_payload;
    let chunk = size.min(mtu);
    let mut payload = pool.take();
    payload.extend_from_slice(&pat.body(0, size + crate::payload::HEADER_BYTES)[..chunk]);
    let pkt = FmPacket {
        header: PacketHeader {
            src: 0,
            dst: 1,
            handler: HandlerId(1),
            msg_seq: 0,
            pkt_seq: 0,
            msg_len: size as u32,
            flags: PacketFlags::FIRST,
            credits: 0,
            ack: 0,
        },
        payload,
    };
    // A `size`-byte message is this many MTU packets.
    let packets = size.div_ceil(mtu) as f64;
    let per_packet = single_thread_rung(secs, || {
        let mut frame = pool.take();
        fm_udp::wire::encode_data_frame_into(&pkt, 0, 0, &mut frame).expect("frame fits");
        let back = fm_udp::wire::decode_data_frame_buf(&frame).expect("own frame decodes");
        std::hint::black_box(back.payload.len());
    });
    per_packet * packets
}

/// What the bare `fm_core::onesided` rungs measured over a device pair.
#[derive(Debug, Clone, Default)]
pub struct OnesidedRungs {
    /// 64 KiB puts, sixteen in flight then drained, MB/s.
    pub put_64k_mbps: f64,
    /// 256 KiB puts, MB/s.
    pub put_256k_mbps: f64,
    /// 64 KiB gets, one at a time, MB/s.
    pub get_64k_mbps: f64,
    /// Engine memcpy bytes on both ranks per payload byte put.
    pub copied_per_payload_byte: f64,
    /// FM messages per put that carry no payload chunk (RTS, CTS, FIN).
    pub ctrl_msgs_per_put: f64,
    /// Mean self time of `Onesided::progress` on the initiator, ns.
    pub progress_self_ns: f64,
    /// Ring-full rejections per thousand FM messages.
    pub full_rejections_per_kmsg: f64,
    /// Ring bytes per payload byte.
    pub wire_bytes_per_payload_byte: f64,
    /// Share of buffer-pool takes that allocated.
    pub pool_miss_share: f64,
    /// Operations that did not complete `Ok`.
    pub failed: u64,
    /// Puts in the 64 KiB leg (the denominator of the ratios above).
    put_64k_count: f64,
}

/// Bare one-sided puts and gets over shared memory, shaped like the
/// `shm_bulk` legs (batch of sixteen, then drain) so the shmem layer's
/// cost is the difference.
pub fn onesided_rungs(
    make: impl Fn() -> Vec<fm_shm::ShmDevice>,
    pat: &Arc<Pattern>,
    secs: f64,
) -> OnesidedRungs {
    use crate::trace::{self, Kind};
    use fm_core::{Onesided, OnesidedConfig, OsStatus, RegionHandle};
    const SLOTS: usize = 16;
    const SLOT: usize = 256 * 1024;
    const ARENA: usize = SLOTS * SLOT;
    let sync = Sync2::new();
    let arena = RegionHandle { index: 0, epoch: 0 };
    let out = run_ranks(make(), |rank, dev| {
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        let cfg = OnesidedConfig {
            arena_bytes: ARENA,
            ..OnesidedConfig::default()
        };
        let mut os = Onesided::new(&fm, cfg);
        let h = os.register(0, ARENA).expect("whole-arena registration");
        assert_eq!(h, arena, "first registration on a fresh table");
        let deadline = deadline_for(secs);
        assert!(sync.rendezvous(deadline), "peer never arrived");
        if rank == 1 {
            // Turn the engine until told to stop; note the counters at
            // the end of the 64 KiB put leg (the initiator bumps `count`).
            let mut polls = 0u32;
            let mut put64 = None;
            while !sync.stop.load(Ordering::SeqCst) {
                fm.extract_all();
                os.progress();
                if put64.is_none() && sync.count.load(Ordering::SeqCst) == 1 {
                    put64 = Some(fm.stats());
                }
                polls += 1;
                if polls % 65_536 == 0 && Instant::now() >= deadline {
                    break;
                }
            }
            return (
                OnesidedRungs::default(),
                put64.unwrap_or_else(|| fm.stats()),
            );
        }
        let mut r = OnesidedRungs::default();
        let drain = |os: &mut Onesided<_>, want: usize, failed: &mut u64| {
            let mut done = 0;
            let mut polls = 0u32;
            while done < want {
                fm.extract_all();
                let t = trace::begin();
                os.progress();
                trace::end(t, Kind::OsProgress);
                while let Some(c) = os.poll_completion() {
                    done += 1;
                    *failed += u64::from(c.status != OsStatus::Ok);
                }
                polls += 1;
                if polls % 65_536 == 0 && Instant::now() >= deadline {
                    *failed += (want - done) as u64;
                    return;
                }
            }
        };
        let leg_secs = secs / 3.5;
        let put_leg = |os: &mut Onesided<_>, size: usize, failed: &mut u64| {
            let msg = pat.message(0, size);
            let mut leg = ThroughputLeg::new(SLOTS as u64, (SLOTS * size) as u64);
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < leg_secs {
                let t0 = Instant::now();
                for slot in 0..SLOTS {
                    let t = trace::begin();
                    os.put(1, arena, (slot * SLOT) as u64, &msg);
                    trace::end(t, Kind::OsIssue);
                }
                drain(os, SLOTS, failed);
                leg.seg_ns.push(t0.elapsed().as_nanos() as f64);
            }
            leg
        };
        let before = fm.stats();
        let dev_before = fm.with_device(|d| d.inner().stats());
        let p64 = put_leg(&mut os, 64 * 1024, &mut r.failed);
        sync.count.store(1, Ordering::SeqCst);
        let after = fm.stats().delta(&before);
        let dev_after = fm.with_device(|d| d.inner().stats());
        let p256 = put_leg(&mut os, 256 * 1024, &mut r.failed);
        let mut gets = ThroughputLeg::new(1, 64 * 1024);
        let started = Instant::now();
        let mut slot = 0usize;
        while started.elapsed().as_secs_f64() < leg_secs {
            slot = (slot + 1) % SLOTS;
            let t0 = Instant::now();
            os.get(
                1,
                arena,
                (slot * SLOT) as u64,
                arena,
                slot * SLOT,
                64 * 1024,
            )
            .expect("window inside the arena");
            drain(&mut os, 1, &mut r.failed);
            gets.seg_ns.push(t0.elapsed().as_nanos() as f64);
        }
        // A short attached pass for the progress self time.
        trace::attach(0, Instant::now());
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < leg_secs / 2.0 {
            for slot in 0..SLOTS {
                os.put(1, arena, (slot * SLOT) as u64, &pat.message(0, 64 * 1024));
            }
            drain(&mut os, SLOTS, &mut r.failed);
        }
        if let Some(rec) = trace::detach() {
            r.progress_self_ns = rec.agg(Kind::OsProgress).mean_self_ns();
        }
        sync.stop.store(true, Ordering::SeqCst);
        r.put_64k_mbps = p64.mbps();
        r.put_256k_mbps = p256.mbps();
        r.get_64k_mbps = gets.mbps();
        // Ratios over the 64 KiB put leg: the initiator's share here, the
        // target's (CTS, FIN, the landing copy) added below.
        let puts = p64.ops().max(1) as f64;
        let payload = puts * 64.0 * 1024.0;
        let chunks = (64 * 1024usize).div_ceil(cfg.chunk_bytes) as f64;
        r.ctrl_msgs_per_put = after.messages_sent as f64 / puts - chunks;
        r.copied_per_payload_byte = after.bytes_copied as f64 / payload;
        r.put_64k_count = puts;
        r.full_rejections_per_kmsg =
            (dev_after.full_rejections - dev_before.full_rejections) as f64 * 1e3
                / after.messages_sent.max(1) as f64;
        r.wire_bytes_per_payload_byte =
            (dev_after.bytes_sent - dev_before.bytes_sent) as f64 / payload;
        let takes = (after.pool_hits + after.pool_misses).max(1) as f64;
        r.pool_miss_share = after.pool_misses as f64 / takes;
        (r, after)
    });
    let mut rungs = out[0].0.clone();
    let target = &out[1].1;
    let puts = rungs.put_64k_count.max(1.0);
    rungs.ctrl_msgs_per_put += target.messages_sent as f64 / puts;
    rungs.copied_per_payload_byte += target.bytes_copied as f64 / (puts * 64.0 * 1024.0);
    rungs
}

/// What the sockets rung measured.
#[derive(Debug, Clone, Default)]
pub struct SocketsRung {
    /// Sockets stream goodput (64 KiB writes) over the goodput of an
    /// FM 2.x stream of the 8 KiB segments sockets sends underneath.
    pub over_fm: f64,
    /// Peak bytes buffered in the receiving stack.
    pub buffered_high_water: usize,
    /// Operations that failed.
    pub failed: u64,
}

/// A one-way byte stream through `SocketStack`, beside an FM 2.x stream
/// of the same segment size over the same kind of device pair.
pub fn sockets_rung(
    make: impl Fn() -> Vec<fm_shm::ShmDevice>,
    pat: &Arc<Pattern>,
    secs: f64,
) -> SocketsRung {
    use sockets_fm::stack::{SocketStack, SEGMENT_BYTES};
    const PORT: u16 = 7;
    const WRITE: usize = 64 * 1024;
    let fm_side = fm_stream_rung(
        make(),
        Reliability::TrustSubstrate,
        pat,
        SEGMENT_BYTES,
        1024,
        secs / 2.0,
    );
    let sync = Sync2::new();
    let out = run_ranks(make(), |rank, dev| {
        let stack = SocketStack::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()));
        let deadline = deadline_for(secs);
        if rank == 1 {
            stack.listen(PORT);
            assert!(sync.rendezvous(deadline), "peer never arrived");
            let sock = stack.accept(PORT);
            let mut buf = vec![0u8; WRITE];
            let expect = pat.message(0, WRITE);
            let mut leg = ThroughputLeg::new(64, 64 * WRITE as u64);
            let (mut got, mut mark, mut bad) = (0u64, Instant::now(), 0u64);
            loop {
                let n = stack.recv(sock, &mut buf);
                if n == 0 {
                    break; // clean EOF: the sender closed
                }
                // The stream repeats one 64 KiB message; a read may
                // straddle the seam.
                let at = (got % WRITE as u64) as usize;
                let head = n.min(WRITE - at);
                bad += u64::from(
                    buf[..head] != expect[at..at + head] || buf[head..n] != expect[..n - head],
                );
                let before = got / leg.bytes_per_segment;
                got += n as u64;
                if got / leg.bytes_per_segment != before {
                    let now = Instant::now();
                    leg.seg_ns.push(now.duration_since(mark).as_nanos() as f64);
                    mark = now;
                }
            }
            (leg.mbps(), stack.buffered_high_water(), bad)
        } else {
            assert!(sync.rendezvous(deadline), "peer never arrived");
            let sock = stack.connect(1, PORT);
            let msg = pat.message(0, WRITE);
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < secs / 2.0 {
                stack.send(sock, &msg);
            }
            stack.close(sock);
            // Keep the engine turning until the receiver has drained.
            let quiet = Instant::now();
            while quiet.elapsed().as_secs_f64() < 0.05 {
                stack.progress();
            }
            (0.0, 0, 0)
        }
    });
    SocketsRung {
        over_fm: out[1].0 / fm_side.mbps.max(1e-9),
        buffered_high_water: out[1].1,
        failed: fm_side.failed + out[1].2,
    }
}
