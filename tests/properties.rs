//! Randomized property tests of the stack's core invariants.
//!
//! These check the properties the paper's design depends on, under inputs
//! a human would not think to write:
//!
//! * FM 2.x streams: *any* gather decomposition on the send side and
//!   *any* scatter decomposition on the receive side reproduce the exact
//!   byte stream — piece boundaries, packet boundaries, and read sizes
//!   are all invisible (the gather/scatter contract).
//! * FM 1.x: any message sequence arrives intact and in order.
//! * MPI: tag matching delivers every message to the receive that names
//!   it, regardless of posting order.
//! * Socket-FM: any write chunking and read chunking preserve the byte
//!   stream (the Berkeley sockets contract).
//!
//! Inputs are drawn from the workspace's seeded [`DetRng`] (fixed seeds,
//! many cases per test), so every failure is reproducible by case index.

use std::cell::RefCell;
use std::rc::Rc;

use fast_messages::fm::device::{DeviceFull, LoopbackDevice, LoopbackPair, NetDevice};
use fast_messages::fm::fm2::SendStream;
use fast_messages::fm::packet::{FmPacket, HandlerId, PacketFlags};
use fast_messages::fm::{Fm1Engine, Fm2Engine, FmStream};
use fast_messages::model::rng::DetRng;
use fast_messages::model::{MachineProfile, Nanos};
use fast_messages::mpi::{Mpi, Mpi2};
use fast_messages::sockets::SocketStack;

const H: HandlerId = HandlerId(1);

/// A loopback endpoint that logs every frame the engine hands it:
/// FIRST flag, LAST flag, payload bytes.
struct Tap {
    dev: LoopbackDevice,
    sent: Vec<(bool, bool, usize)>,
}

impl NetDevice for Tap {
    fn node_id(&self) -> usize {
        self.dev.node_id()
    }
    fn num_nodes(&self) -> usize {
        self.dev.num_nodes()
    }
    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        let (flags, len) = (pkt.header.flags, pkt.payload.len());
        self.dev.try_send(pkt)?;
        let (first, last) = (PacketFlags::FIRST, PacketFlags::LAST);
        self.sent
            .push((flags.contains(first), flags.contains(last), len));
        Ok(())
    }
    fn try_recv(&mut self) -> Option<FmPacket> {
        self.dev.try_recv()
    }
    fn send_space(&self) -> usize {
        self.dev.send_space()
    }
    fn now(&self) -> Nanos {
        self.dev.now()
    }
    fn charge(&mut self, cost: Nanos) {
        self.dev.charge(cost)
    }
}

/// Everything one way of sending a piece list leaves behind.
struct GatherRun {
    got: Vec<u8>,
    frames: Vec<(bool, bool, usize)>,
    packets_sent: u64,
    sender_now: Nanos,
}

/// Open a message of `pieces` on a fresh loopback pair whose receiver
/// scatters it into `read_sizes`-byte reads, let `send` push it (calling
/// the pump it is given wherever FM refuses), and report the outcome.
fn run_gather(
    pieces: &[Vec<u8>],
    read_sizes: &[usize],
    send: impl Fn(&Fm2Engine<Tap>, &mut SendStream, &dyn Fn()),
) -> GatherRun {
    let (da, db) = LoopbackPair::new(512);
    let tap = |dev| Tap {
        dev,
        sent: Vec::new(),
    };
    let s = Fm2Engine::new(tap(da), MachineProfile::ppro200_fm2());
    let r = Fm2Engine::new(tap(db), MachineProfile::ppro200_fm2());

    let got: Rc<RefCell<Vec<u8>>> = Rc::default();
    {
        let got = Rc::clone(&got);
        let read_sizes = read_sizes.to_vec();
        r.set_handler(H, move |stream: FmStream, _| {
            let got = Rc::clone(&got);
            let read_sizes = read_sizes.clone();
            async move {
                let mut out = Vec::new();
                let mut i = 0;
                // Cycle through the read sizes until the stream ends.
                loop {
                    let want = read_sizes[i % read_sizes.len()];
                    i += 1;
                    let mut buf = vec![0u8; want];
                    let n = stream.receive(&mut buf).await;
                    out.extend_from_slice(&buf[..n]);
                    if n < want {
                        break;
                    }
                    if out.len() >= stream.msg_len() {
                        break;
                    }
                }
                *got.borrow_mut() = out;
            }
        });
    }

    let pump = || {
        for _ in 0..6 {
            s.extract_all();
            r.extract_all();
            s.with_device(|a| r.with_device(|b| LoopbackPair::deliver(&mut a.dev, &mut b.dev)));
        }
        s.extract_all();
        r.extract_all();
    };
    let total: usize = pieces.iter().map(Vec::len).sum();
    let mut ss = s.begin_message(1, total, H);
    send(&s, &mut ss, &pump);
    pump();

    let got = got.take();
    GatherRun {
        got,
        frames: s.with_device(|d| std::mem::take(&mut d.sent)),
        packets_sent: s.stats().packets_sent,
        sender_now: s.now(),
    }
}

/// Gather/scatter round trip: the receiver's reads see exactly the
/// concatenation of the sender's pieces, for arbitrary piece sizes and
/// arbitrary read sizes — and `try_send_rest`, handed the same list, is
/// the hand-rolled begin/piece/end loop to the packet and the nanosecond.
#[test]
fn fm2_gather_scatter_preserves_byte_stream() {
    let mut rng = DetRng::seed_from_u64(0xF2_57_12);
    let profile = MachineProfile::ppro200_fm2();
    let window_bytes = profile.fm.credits_per_peer as usize * profile.fm.mtu_payload;
    let (mut with_empty, mut past_window) = (0, 0);
    for case in 0..64 {
        // Every fourth list is long enough to outrun the credit window.
        let scale = if case % 4 == 3 { 64 } else { 1 };
        let pieces: Vec<Vec<u8>> = (0..rng.range_usize(1, 8))
            .map(|_| {
                let len = match rng.below(5) {
                    0 => 0,
                    _ => rng.range_usize(0, 600) * scale,
                };
                rng.bytes(len)
            })
            .collect();
        let read_sizes: Vec<usize> = (0..rng.range_usize(1, 12))
            .map(|_| rng.range_usize(1, 700))
            .collect();
        let expected: Vec<u8> = pieces.iter().flatten().copied().collect();
        with_empty += pieces.iter().any(Vec::is_empty) as u32;
        past_window += (expected.len() > window_bytes) as u32;

        // Send with the exact piece decomposition.
        let reference = run_gather(&pieces, &read_sizes, |s, ss, pump| {
            for p in &pieces {
                let mut off = 0;
                while off < p.len() {
                    match s.try_send_piece(ss, &p[off..]) {
                        Ok(n) => off += n,
                        Err(_) => pump(),
                    }
                }
            }
            while s.try_end_message(ss).is_err() {
                pump();
            }
        });
        assert_eq!(reference.got, expected, "case {case}");

        // The same list through the resumable verb, pumped where it stalls.
        let helper = run_gather(&pieces, &read_sizes, |s, ss, pump| {
            while s.try_send_rest(ss, &pieces).is_err() {
                pump();
            }
        });
        assert!(helper.got == reference.got, "case {case}: bytes");
        assert_eq!(helper.frames, reference.frames, "case {case}");
        assert_eq!(helper.packets_sent, reference.packets_sent, "case {case}");
        assert_eq!(helper.sender_now, reference.sender_now, "case {case}");
    }
    assert!(
        with_empty >= 16 && past_window >= 4,
        "the cases lost their edge"
    );
}

/// FM 1.x: arbitrary message sequences arrive intact, in order.
#[test]
fn fm1_message_sequence_in_order() {
    let mut rng = DetRng::seed_from_u64(0xF1_0D_E2);
    for case in 0..64 {
        let msgs: Vec<Vec<u8>> = (0..rng.range_usize(1, 20))
            .map(|_| {
                let len = rng.range_usize(0, 1200);
                rng.bytes(len)
            })
            .collect();

        let (da, db) = LoopbackPair::new(512);
        let mut s = Fm1Engine::new(da, MachineProfile::sparc_fm1());
        let mut r = Fm1Engine::new(db, MachineProfile::sparc_fm1());
        let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        {
            let g = Rc::clone(&got);
            r.set_handler(
                H,
                Box::new(move |_e, _s, m| g.borrow_mut().push(m.to_vec())),
            );
        }
        for m in &msgs {
            while s.try_send(1, H, m).is_err() {
                LoopbackPair::deliver(s.device_mut(), r.device_mut());
                r.extract();
                LoopbackPair::deliver(s.device_mut(), r.device_mut());
                s.extract();
            }
        }
        for _ in 0..6 {
            LoopbackPair::deliver(s.device_mut(), r.device_mut());
            r.extract();
            LoopbackPair::deliver(s.device_mut(), r.device_mut());
            s.extract();
        }
        assert_eq!(&*got.borrow(), &msgs, "case {case}");
    }
}

/// MPI tag matching: for any assignment of tags to messages and any
/// posting order, each receive obtains the payload sent under its tag
/// (tags unique per case).
#[test]
fn mpi_matching_by_tag_is_total() {
    let mut rng = DetRng::seed_from_u64(0x3A6);
    for case in 0..64 {
        let sizes: Vec<usize> = (0..rng.range_usize(1, 10))
            .map(|_| rng.range_usize(1, 500))
            .collect();
        let post_before = rng.chance(0.5);

        let (da, db) = LoopbackPair::new(512);
        let mut s = Mpi2::new(Fm2Engine::new(da, MachineProfile::ppro200_fm2()));
        let mut r = Mpi2::new(Fm2Engine::new(db, MachineProfile::ppro200_fm2()));

        let n = sizes.len();
        // A random posting order per case.
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);

        let pump = |s: &mut Mpi2<LoopbackDevice>, r: &mut Mpi2<LoopbackDevice>| {
            for _ in 0..6 {
                s.progress();
                r.progress();
                let fs = s.fm().clone();
                let fr = r.fm().clone();
                fs.with_device(|ds| fr.with_device(|dr| LoopbackPair::deliver(ds, dr)));
            }
            s.progress();
            r.progress();
        };

        let mut reqs: Vec<Option<fast_messages::mpi::RecvReq>> = (0..n).map(|_| None).collect();
        if post_before {
            for &i in &order {
                reqs[i] = Some(r.irecv(Some(0), Some(i as u32), 512));
            }
        }
        for (i, &sz) in sizes.iter().enumerate() {
            s.isend(1, i as u32, vec![i as u8; sz]);
        }
        pump(&mut s, &mut r);
        if !post_before {
            for &i in &order {
                reqs[i] = Some(r.irecv(Some(0), Some(i as u32), 512));
            }
        }
        pump(&mut s, &mut r);

        for (i, req) in reqs.iter().enumerate() {
            let req = req.as_ref().unwrap();
            assert!(req.is_done(), "case {case}: recv {i} incomplete");
            assert_eq!(req.take().unwrap(), vec![i as u8; sizes[i]], "case {case}");
        }
    }
}

/// Socket byte streams survive arbitrary write and read chunking.
#[test]
fn socket_stream_is_chunking_invariant() {
    let mut rng = DetRng::seed_from_u64(0x50C6E7);
    for case in 0..24 {
        let data = {
            let len = rng.range_usize(1, 20_000);
            rng.bytes(len)
        };
        let write_chunk = rng.range_usize(1, 4096);
        let read_chunk = rng.range_usize(1, 4096);

        let (da, db) = LoopbackPair::new(512);
        let a = SocketStack::new(Fm2Engine::new(da, MachineProfile::ppro200_fm2()));
        let b = SocketStack::new(Fm2Engine::new(db, MachineProfile::ppro200_fm2()));
        let pump = |a: &SocketStack<LoopbackDevice>, b: &SocketStack<LoopbackDevice>| {
            for _ in 0..6 {
                a.progress();
                b.progress();
                let fa = a.fm().clone();
                let fb = b.fm().clone();
                fa.with_device(|x| fb.with_device(|y| LoopbackPair::deliver(x, y)));
            }
            a.progress();
            b.progress();
        };

        b.listen(1);
        let ca = a.connect_start(1, 1);
        pump(&a, &b);
        let cb = b.try_accept(1).expect("accepted");
        pump(&a, &b);

        let mut off = 0;
        let mut out = Vec::new();
        let mut buf = vec![0u8; read_chunk];
        while out.len() < data.len() {
            if off < data.len() {
                let end = (off + write_chunk).min(data.len());
                off += a.try_send(ca, &data[off..end]);
            }
            pump(&a, &b);
            while let Some(n) = b.try_recv(cb, &mut buf) {
                if n == 0 {
                    break;
                }
                out.extend_from_slice(&buf[..n]);
                pump(&a, &b);
            }
        }
        assert_eq!(out, data, "case {case}");
    }
}
