//! Shmem and Global Arrays over real OS threads.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::{Arc, Barrier};

use fm_core::device::DeviceFull;
use fm_core::{Fm2Engine, FmPacket, NetDevice, OsStatus, PeerEvent, PeerEventKind};
use fm_model::{MachineProfile, Nanos};
use fm_threaded::{ThreadedCluster, ThreadedDevice};
use shmem_fm::{GlobalArray, Shmem};

fn make(dev: fm_threaded::ThreadedDevice, heap: usize) -> Shmem<fm_threaded::ThreadedDevice> {
    Shmem::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()), heap)
}

#[test]
fn put_get_quiet_across_threads() {
    let out = ThreadedCluster::run(2, |pe, dev| {
        let sh = make(dev, 4096);
        if pe == 0 {
            sh.put(1, 64, b"remote write");
            sh.quiet();
            // Read it back one-sidedly — the target never cooperates
            // beyond its handler.
            let back = sh.get(1, 64, 12);
            sh.barrier_all();
            back
        } else {
            // Just serve traffic until the barrier.
            sh.barrier_all();
            sh.local_read(64, 12)
        }
    });
    assert_eq!(out[0], b"remote write");
    assert_eq!(out[1], b"remote write");
}

#[test]
fn fetch_add_serializes_across_pes() {
    const PES: usize = 4;
    const INCS: usize = 50;
    let out = ThreadedCluster::run(PES, |pe, dev| {
        let sh = make(dev, 1024);
        sh.barrier_all();
        // Everyone hammers the counter at PE 0, offset 0.
        let mut olds = Vec::new();
        for _ in 0..INCS {
            olds.push(sh.fetch_add_i64(0, 0, 1));
        }
        sh.barrier_all();
        let total = if pe == 0 {
            i64::from_le_bytes(sh.local_read(0, 8).try_into().unwrap())
        } else {
            -1
        };
        sh.barrier_all();
        (olds, total)
    });
    assert_eq!(out[0].1, (PES * INCS) as i64, "every increment counted");
    // Fetch-add returns unique pre-values: all olds distinct.
    let mut all: Vec<i64> = out.iter().flat_map(|(o, _)| o.iter().copied()).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), PES * INCS, "atomicity: no duplicated old value");
}

#[test]
fn barrier_actually_synchronizes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let flag = Arc::new(AtomicUsize::new(0));
    let f2 = Arc::clone(&flag);
    ThreadedCluster::run(3, move |pe, dev| {
        let sh = make(dev, 256);
        if pe == 1 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            f2.fetch_add(1, Ordering::SeqCst);
        }
        sh.barrier_all();
        // After the barrier everyone must observe pe 1's write.
        assert_eq!(f2.load(Ordering::SeqCst), 1, "barrier leaked pe {pe}");
    });
}

#[test]
fn global_array_distributed_ops() {
    const PES: usize = 4;
    const N: usize = 100;
    let out = ThreadedCluster::run(PES, |pe, dev| {
        let sh = make(dev, 8192);
        let ga = GlobalArray::new(N, 0, PES);
        sh.barrier_all();
        // PE 0 initializes the whole array to its index values.
        if pe == 0 {
            let init: Vec<f64> = (0..N).map(|i| i as f64).collect();
            ga.put(&sh, 0, &init);
            sh.quiet();
        }
        sh.barrier_all();
        // Every PE accumulates +1 into a shared middle strip.
        ga.acc(&sh, 40, &[1.0; 20]);
        sh.quiet();
        sh.barrier_all();
        // Everyone reads everything.
        let all = ga.get(&sh, 0, N);
        sh.barrier_all();
        all
    });
    for (pe, all) in out.iter().enumerate() {
        for (i, v) in all.iter().enumerate() {
            let expect = i as f64
                + if (40..60).contains(&i) {
                    PES as f64
                } else {
                    0.0
                };
            assert_eq!(*v, expect, "pe {pe} element {i}");
        }
    }
}

#[test]
fn cross_owner_ranges_work() {
    const PES: usize = 3;
    let out = ThreadedCluster::run(PES, |pe, dev| {
        let sh = make(dev, 4096);
        let ga = GlobalArray::new(30, 0, PES); // chunk 10
        sh.barrier_all();
        if pe == 2 {
            // A put spanning all three owners.
            let vals: Vec<f64> = (0..30).map(|i| (i * 2) as f64).collect();
            ga.put(&sh, 0, &vals);
            sh.quiet();
        }
        sh.barrier_all();
        // A get spanning owner boundaries [5, 25).
        let mid = ga.get(&sh, 5, 25);
        sh.barrier_all();
        mid
    });
    let expect: Vec<f64> = (5..25).map(|i| (i * 2) as f64).collect();
    for all in out {
        assert_eq!(all, expect);
    }
}

#[test]
fn global_array_2d_sections_across_pes() {
    const PES: usize = 3;
    const ROWS: usize = 9;
    const COLS: usize = 8;
    let out = ThreadedCluster::run(PES, |pe, dev| {
        let sh = make(dev, 8192);
        let ga = shmem_fm::GlobalArray2D::new(ROWS, COLS, 0, PES);
        sh.barrier_all();
        // PE 0 writes the whole matrix: a[r][c] = r*10 + c.
        if pe == 0 {
            let all: Vec<f64> = (0..ROWS * COLS)
                .map(|i| ((i / COLS) * 10 + i % COLS) as f64)
                .collect();
            ga.put_section(&sh, 0, ROWS, 0, COLS, &all);
            sh.quiet();
        }
        sh.barrier_all();
        // Every PE accumulates +1 into an interior block spanning owners.
        ga.acc_section(&sh, 2, 7, 3, 6, &[1.0; 5 * 3]);
        sh.quiet();
        sh.barrier_all();
        // Everyone reads a section crossing all three owners.
        let sect = ga.get_section(&sh, 1, 8, 2, 7);
        sh.barrier_all();
        sect
    });
    // Expected: base value + PES inside the accumulated block.
    let expect: Vec<f64> = (1..8)
        .flat_map(|r| {
            (2..7).map(move |c| {
                let base = (r * 10 + c) as f64;
                let acc = if (2..7).contains(&r) && (3..6).contains(&c) {
                    PES as f64
                } else {
                    0.0
                };
                base + acc
            })
        })
        .collect();
    for (pe, sect) in out.iter().enumerate() {
        assert_eq!(sect, &expect, "pe {pe}");
    }
}

#[test]
fn global_array_2d_sections_on_own_and_peer_rows() {
    // Rows 0-3 live on PE 0, 4-7 on PE 1, 8-9 on PE 2. Each PE writes a
    // band of three rows that starts on its own rows or a peer's, all
    // PEs accumulate into one block across the three owners, and every
    // PE reads the whole array and a narrow column.
    const PES: usize = 3;
    const ROWS: usize = 10;
    const COLS: usize = 5;
    let band = |pe: usize| (3 * pe, 3 * pe + 3);
    let out = ThreadedCluster::run(PES, move |pe, dev| {
        let sh = make(dev, 4096);
        let ga = shmem_fm::GlobalArray2D::new(ROWS, COLS, 64, PES);
        sh.barrier_all();
        let (lo, hi) = band(pe);
        let vals: Vec<f64> = (lo * COLS..hi * COLS)
            .map(|i| (1000 * pe + i) as f64)
            .collect();
        ga.put_section(&sh, lo, hi, 0, COLS, &vals);
        sh.quiet();
        sh.barrier_all();
        let inc = vec![(pe + 1) as f64; 7 * 3];
        ga.acc_section(&sh, 2, 9, 1, 4, &inc);
        sh.quiet();
        sh.barrier_all();
        let all = ga.get_section(&sh, 0, ROWS, 0, COLS);
        let column = ga.get_section(&sh, 3, 7, 2, 3);
        sh.barrier_all();
        (all, column)
    });
    let model = |r: usize, c: usize| -> f64 {
        let put = (0..PES)
            .find(|&pe| (band(pe).0..band(pe).1).contains(&r))
            .map_or(0.0, |pe| (1000 * pe + r * COLS + c) as f64);
        let acc = if (2..9).contains(&r) && (1..4).contains(&c) {
            6.0
        } else {
            0.0
        };
        put + acc
    };
    let all: Vec<f64> = (0..ROWS * COLS)
        .map(|i| model(i / COLS, i % COLS))
        .collect();
    let column: Vec<f64> = (3..7).map(|r| model(r, 2)).collect();
    for (pe, got) in out.iter().enumerate() {
        assert_eq!(got, &(all.clone(), column.clone()), "pe {pe}");
    }
}

#[test]
fn a_peers_out_of_heap_accumulate_and_fetch_add_are_refused_not_fatal() {
    // An accumulate and a fetch-add aimed past the end of PE 1's heap:
    // PE 1 refuses both and keeps serving; PE 0 sees the accumulate in
    // its failures, as a put's refusal, and the fetch-add panic, as a
    // get's. An op inside the heap still lands after them.
    let out = ThreadedCluster::run(2, |pe, dev| {
        let sh = make(dev, 4096);
        sh.barrier_all();
        let mut seen = (Vec::new(), String::new());
        if pe == 0 {
            sh.accumulate_f64(1, 4090, &[1.0]);
            sh.quiet();
            seen.0 = sh.take_put_failures();
            let fadd = std::panic::catch_unwind(AssertUnwindSafe(|| sh.fetch_add_i64(1, 4090, 1)));
            let msg = fadd.expect_err("an out-of-heap fetch-add returned");
            seen.1 = msg.downcast_ref::<String>().cloned().unwrap_or_default();
            sh.accumulate_f64(1, 8, &[2.5]);
            sh.quiet();
        }
        sh.barrier_all();
        let value = f64::from_le_bytes(sh.local_read(8, 8).try_into().unwrap());
        (seen, value)
    });
    let ((failures, fadd), _) = &out[0];
    assert_eq!(failures, &vec![OsStatus::OutOfBounds]);
    assert!(fadd.contains("refused by target"), "{fadd}");
    assert_eq!(out[1].1, 2.5, "the target kept serving");
}

#[test]
fn wait_until_flag_synchronizes_data() {
    // The canonical one-sided handoff: producer puts data, quiets, then
    // puts a flag; the consumer spins on the flag and must then see the
    // complete data (quiet-before-flag gives the ordering).
    const DATA_OFF: usize = 64;
    const FLAG_OFF: usize = 0;
    let out = ThreadedCluster::run(2, |pe, dev| {
        let sh = make(dev, 4096);
        if pe == 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            sh.put(1, DATA_OFF, &[0xABu8; 512]);
            sh.quiet(); // data is remotely complete...
            sh.put(1, FLAG_OFF, &1i64.to_le_bytes()); // ...then raise the flag
            sh.quiet();
            sh.barrier_all();
            Vec::new()
        } else {
            let v = sh.wait_until_i64(FLAG_OFF, |v| v == 1);
            assert_eq!(v, 1);
            let data = sh.local_read(DATA_OFF, 512);
            sh.barrier_all();
            data
        }
    });
    assert_eq!(out[1], vec![0xABu8; 512], "flag implies data visibility");
}

#[test]
fn shmem_runs_over_the_shared_memory_transport() {
    // "SHMEM over shared memory": the one-sided API stacked on the
    // intra-host fm-shm transport via the `shmem_fm::transport`
    // re-export — two processes' worth of state in two threads, with
    // real mapped segments carrying the FM packets.
    use shmem_fm::transport::{ShmCluster, ShmConfig};
    let cfg = ShmConfig {
        run_id: format!("shmem-api-{}", std::process::id()),
        dir: std::env::temp_dir(),
        ..ShmConfig::default()
    };
    let out = ShmCluster::run(2, cfg, |pe, dev| {
        let sh = Shmem::new(Fm2Engine::new(dev, MachineProfile::ppro200_fm2()), 4096);
        if pe == 0 {
            sh.put(1, 32, b"over the rings");
            sh.quiet();
            let back = sh.get(1, 32, 14);
            sh.barrier_all();
            back
        } else {
            sh.barrier_all();
            sh.local_read(32, 14)
        }
    });
    assert_eq!(out[0], b"over the rings");
    assert_eq!(out[1], b"over the rings");
}

#[test]
fn a_large_put_leaves_its_buffer_free_on_return() {
    // On the threaded ring every peer is on this host, so a put longer
    // than a chunk is copied into the target's mapped heap before `put`
    // returns: a buffer overwritten right after, before `quiet`, must
    // not show at the target.
    const SIZES: [usize; 2] = [64 * KIB, 256 * KIB];
    let payload = |i: usize, len: usize| -> Vec<u8> {
        (0..len).map(|j| ((j * 7 + i * 13) % 251) as u8).collect()
    };
    let heap: usize = SIZES.iter().sum();
    let out = ThreadedCluster::run(2, move |pe, dev| {
        let sh = make(dev, heap);
        sh.barrier_all();
        if pe == 0 {
            let mut at = 0;
            for (i, len) in SIZES.into_iter().enumerate() {
                let mut buf = payload(i, len);
                sh.put(1, at, &buf);
                buf.fill(0xEE);
                at += len;
            }
            sh.quiet();
        }
        sh.barrier_all();
        (sh.take_put_failures(), sh.local_read(0, heap))
    });
    let want: Vec<u8> = SIZES
        .into_iter()
        .enumerate()
        .flat_map(|(i, len)| payload(i, len))
        .collect();
    assert_eq!(out[0].0, []);
    assert!(
        out[1].1 == want,
        "the target holds bytes written after put returned"
    );
}

const KIB: usize = 1024;

fn pattern(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((j * 7 + seed * 31) % 251) as u8)
        .collect()
}

#[test]
fn a_large_put_lands_after_the_small_puts_issued_before_it() {
    // The small put is a message still queued when the large one, to
    // the same bytes, is copied into the mapped heap: the copy waits it
    // out, so the large put's bytes are the ones left.
    let big = pattern(64 * KIB, 1);
    let want = big.clone();
    let out = ThreadedCluster::run(2, move |pe, dev| {
        let sh = make(dev, 128 * KIB);
        sh.barrier_all();
        if pe == 0 {
            sh.put(1, 0, &[0xAA; 64]);
            sh.put(1, 0, &big);
            sh.quiet();
        }
        sh.barrier_all();
        sh.local_read(0, 64 * KIB)
    });
    assert!(out[1] == want, "the earlier small put landed last");
}

#[test]
fn a_get_after_a_large_put_sees_it_and_neither_sends_a_message() {
    let big = pattern(64 * KIB, 2);
    let out = ThreadedCluster::run(2, move |pe, dev| {
        let sh = make(dev, 128 * KIB);
        sh.barrier_all();
        let mut seen = None;
        if pe == 0 {
            let before = sh.fm().stats().messages_sent;
            sh.put(1, 4 * KIB, &big);
            let large = sh.get(1, 4 * KIB, big.len());
            let sent = sh.fm().stats().messages_sent - before;
            // A get of a chunk or less is a message, and sees it too.
            let small = sh.get(1, 4 * KIB + 100, 64);
            seen = Some((sent, large == big, small == big[100..164]));
        }
        sh.barrier_all();
        seen
    });
    assert_eq!(
        out[0],
        Some((0, true, true)),
        "(messages, large get, small get)"
    );
}

#[test]
fn every_heap_is_attached_by_the_first_barrier() {
    // Four PEs: right after the first barrier each puts into and gets
    // from every other PE's heap without a message, whichever PEs it
    // heard from during the barrier itself.
    const PES: usize = 4;
    let out = ThreadedCluster::run(PES, |pe, dev| {
        let sh = make(dev, PES * 32 * KIB);
        sh.barrier_all();
        let before = sh.fm().stats().messages_sent;
        let mine = pattern(32 * KIB, pe);
        let mut back = true;
        for dst in (0..PES).filter(|&d| d != pe) {
            sh.put(dst, pe * 32 * KIB, &mine);
            back &= sh.get(dst, pe * 32 * KIB, mine.len()) == mine;
        }
        let sent = sh.fm().stats().messages_sent - before;
        sh.barrier_all();
        (sent, back)
    });
    assert_eq!(
        out,
        vec![(0, true); PES],
        "(messages, gets read back) per PE"
    );
}

#[test]
fn a_heap_outlives_its_owner_while_a_peer_still_copies_into_it() {
    // Once PE 0 has left the barrier, which attaches PE 1's heap, PE 1
    // drops its whole context — heap, engine, device. PE 0 has not turned
    // since, so it still knows PE 1 on this host, and its put and get go
    // through the heap, which its own reference keeps alive.
    let (attached, gone) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let out = ThreadedCluster::run(2, move |pe, dev| {
        let sh = make(dev, 128 * KIB);
        sh.barrier_all();
        attached.wait();
        if pe == 1 {
            drop(sh);
            gone.wait();
            return true;
        }
        gone.wait();
        let data = pattern(64 * KIB, 3);
        let before = sh.fm().stats().messages_sent;
        sh.put(1, 0, &data);
        let back = sh.get(1, 0, data.len());
        sh.fm().stats().messages_sent == before && back == data
    });
    assert!(
        out[0],
        "the put and get did not go through the kept mapping"
    );
}

#[test]
fn a_put_to_a_down_same_host_peer_reports_peer_down_and_writes_nothing() {
    // PE 0's device reports PE 1 `Down` on cue, while PE 1 lives on to
    // look at its heap.
    let put_made = Arc::new(Barrier::new(2));
    let out = ThreadedCluster::run(2, move |pe, dev| {
        let cue = Rc::new(Cell::new(false));
        let cued = Rc::clone(&cue);
        let down = PeerEvent {
            peer: 1 - pe,
            kind: PeerEventKind::Down,
            epoch: 0,
        };
        let dev = Doctored(dev, move |ev: Option<PeerEvent>| {
            ev.or_else(|| cued.take().then_some(down))
        });
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        let sh = Shmem::new(fm.clone(), 128 * KIB);
        sh.barrier_all();
        if pe == 0 {
            cue.set(true);
            while !fm.is_peer_down(1) {
                sh.progress();
            }
            sh.put(1, 0, &pattern(64 * KIB, 4));
            sh.quiet();
            put_made.wait();
            return sh.take_put_failures();
        }
        put_made.wait();
        assert!(
            sh.local_read(0, 64 * KIB).iter().all(|&b| b == 0),
            "a put to a peer declared down wrote"
        );
        Vec::new()
    });
    assert_eq!(out[0], [OsStatus::PeerDown]);
}

/// A threaded endpoint whose peer events pass through `.1` first.
struct Doctored<F>(ThreadedDevice, F);

impl<F: FnMut(Option<PeerEvent>) -> Option<PeerEvent>> NetDevice for Doctored<F> {
    fn node_id(&self) -> usize {
        self.0.node_id()
    }
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }
    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        self.0.try_send(pkt)
    }
    fn try_recv(&mut self) -> Option<FmPacket> {
        self.0.try_recv()
    }
    fn send_space(&self) -> usize {
        self.0.send_space()
    }
    fn now(&self) -> Nanos {
        self.0.now()
    }
    fn charge(&mut self, cost: Nanos) {
        self.0.charge(cost)
    }
    fn is_lossy(&self) -> bool {
        self.0.is_lossy()
    }
    fn poll_event(&mut self) -> Option<PeerEvent> {
        (self.1)(self.0.poll_event())
    }
}

/// Names every same-host peer by a pid one past the largest the kernel
/// hands out, so no heap of theirs can be attached and none of their
/// memory read — as between sibling processes under Yama
/// `ptrace_scope=1`.
fn unreadable(mut ev: Option<PeerEvent>) -> Option<PeerEvent> {
    if let Some(PeerEvent {
        kind: PeerEventKind::SameHost { pid },
        ..
    }) = ev.as_mut()
    {
        let pid_max: u32 = std::fs::read_to_string("/proc/sys/kernel/pid_max")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(1 << 22);
        *pid = pid_max + 1;
    }
    ev
}

#[test]
fn a_large_put_the_target_cannot_read_lands_over_packets() {
    // The target's heap cannot be attached, and a port over a shared
    // heap never pulls: each large put goes as four 16 KiB chunks, from
    // the first.
    let payload =
        |i: usize| -> Vec<u8> { (0..64 * KIB).map(|j| ((j + i * 31) % 253) as u8).collect() };
    let out = ThreadedCluster::run(2, move |pe, dev| {
        let sh = Shmem::new(
            Fm2Engine::new(Doctored(dev, unreadable), MachineProfile::ppro200_fm2()),
            128 * KIB,
        );
        sh.barrier_all();
        let mut sent = Vec::new();
        if pe == 0 {
            for i in 0..2 {
                let before = sh.fm().stats().messages_sent;
                sh.put(1, i * 64 * KIB, &payload(i));
                sh.quiet();
                sent.push(sh.fm().stats().messages_sent - before);
            }
        }
        sh.barrier_all();
        (sent, sh.take_put_failures(), sh.local_read(0, 128 * KIB))
    });
    assert_eq!(out[0].0, [4, 4], "messages each put sent");
    assert_eq!(out[0].1, [], "a put was refused");
    let want: Vec<u8> = (0..2).flat_map(payload).collect();
    assert!(out[1].2 == want, "a put over packets did not land intact");
}
