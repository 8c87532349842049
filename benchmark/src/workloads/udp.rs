//! `udp_clean` and `udp_lossy`: FM 2.x with adaptive `Retransmit` over
//! loopback `fm-udp` — a 16-byte ping-pong leg and a 2 KB stream leg,
//! without and with seeded 1 % outbound loss.
//!
//! Clean: the kernel path, the wire codec, trains and ack coalescing
//! dominate; the reliable window stays on its fast path (acks, no
//! resends), so this is the bypass for loss-recovery changes and the
//! mechanism for syscall-batching ones. Lossy: identical shape, but
//! `fm-core::reliable` (RTO, go-back-N, AIMD) decides the result.

use std::sync::Arc;

use fm_core::{Reliability, RetransmitConfig};
use fm_udp::UdpDevice;

use crate::fabric::udp_pair;
use crate::payload::Pattern;
use crate::report::RunResult;
use crate::rungs;
use crate::stats::median;
use crate::workloads::fm_pair::{
    end_to_end, fm_pair_layers, run_fm_pair, sum, DevSnap, FmPairCfg, FmPairOutcome,
    TRACED_LEG_SHARE,
};
use crate::Opts;

/// Injected outbound loss of `udp_lossy`.
const LOSS: f64 = 0.01;

/// Stream message size, bytes.
const STREAM_BYTES: usize = 2048;

fn cfg() -> FmPairCfg {
    FmPairCfg {
        reliability: Reliability::Retransmit(RetransmitConfig::adaptive()),
        stream_bytes: STREAM_BYTES,
        pp_seg_ops: 1024,
        stream_seg_ops: 4096,
    }
}

fn udp_snap(d: &UdpDevice) -> DevSnap {
    let s = d.stats();
    DevSnap {
        frames_sent: s.frames_sent,
        send_retries: s.send_retries,
        acks_coalesced: s.acks_coalesced,
        trains_sent: s.trains_sent,
        ..DevSnap::default()
    }
}

/// Run `udp_clean` (`lossy` false) or `udp_lossy` (true).
pub fn run(opts: &Opts, lossy: bool) -> RunResult {
    let drop = if lossy { LOSS } else { 0.0 };
    let o = run_fm_pair(
        opts,
        cfg(),
        |session| udp_pair(drop, opts.seed.wrapping_add(session as u64)),
        udp_snap,
    );
    let mut r = RunResult::default();
    r.count(o.attempted, o.failed);
    if opts.traced {
        crate::write_chrome_trace(
            if lossy { "udp_lossy" } else { "udp_clean" },
            opts.seed,
            &o.recorders,
            &mut r,
        );
        traced_metrics(opts, &o, &mut r);
    } else {
        end_to_end(&o, &mut r);
    }
    r
}

fn traced_metrics(opts: &Opts, o: &FmPairOutcome, r: &mut RunResult) {
    fm_pair_layers(o, r);
    r.set_device_spans(&o.recorders, "fm-udp.dev_send_ns", "fm-udp.dev_recv_ns");
    r.set("fm-udp.join_ms", median(&o.open_ms), o.open_ms.len() as u64);

    // Device and reliability counters over the detached stream leg.
    let st = &o.stream_stats;
    let msgs = sum(st, |s| s.messages_sent).max(1.0);
    let kmsg = msgs / 1e3;
    let n = msgs as u64;
    let dev = |f: fn(&DevSnap) -> u64| o.stream_dev.iter().map(f).sum::<u64>() as f64;
    let frames = dev(|d| d.frames_sent).max(1.0);
    let trains = dev(|d| d.trains_sent);
    r.set("fm-udp.frames_per_msg", frames / msgs, n);
    // How many frames a train carried is not visible from outside the
    // device; how often one formed is.
    r.set(
        "fm-udp.trains_per_kframe",
        trains * 1e3 / frames,
        frames as u64,
    );
    let acks = sum(st, |s| s.acks_sent);
    r.set(
        "fm-udp.acks_coalesced_share",
        dev(|d| d.acks_coalesced) / acks.max(1.0),
        acks as u64,
    );
    r.set(
        "fm-udp.send_retries_per_kframe",
        dev(|d| d.send_retries) * 1e3 / frames,
        frames as u64,
    );
    let retx = sum(st, |s| s.retransmissions);
    let data_sent = sum(st, |s| s.packets_sent) + retx;
    r.set("fm-core.reliable.retx_per_kmsg", retx / kmsg, n);
    r.set(
        "fm-core.reliable.rto_per_kmsg",
        sum(st, |s| s.retransmit_timeouts) / kmsg,
        n,
    );
    r.set(
        "fm-core.reliable.fast_retx_share",
        sum(st, |s| s.fast_retransmits) / retx.max(1.0),
        retx as u64,
    );
    r.set(
        "fm-core.reliable.dup_dropped_per_kmsg",
        sum(st, |s| s.duplicates_dropped) / kmsg,
        n,
    );
    r.set(
        "fm-core.reliable.useful_tx_share",
        sum(st, |s| s.packets_received) / data_sent.max(1.0),
        data_sent as u64,
    );
    r.set("fm-core.reliable.acks_per_kmsg", acks / kmsg, n);
    r.set(
        "fm-core.reliable.srtt_us",
        o.srtt_ns.unwrap_or(0) as f64 / 1e3,
        1,
    );
    r.set(
        "fm-core.reliable.rto_us",
        o.rto_ns.unwrap_or(0) as f64 / 1e3,
        1,
    );

    // The UDP ladder: bare socket -> device -> engine (the detached leg).
    let rung_secs = opts.seconds * (1.0 - TRACED_LEG_SHARE) / 5.0;
    rungs::memcpy_baseline(r, rung_secs);
    let socket = rungs::udp_socket_oneway_ns(rung_secs);
    let device = rungs::dev_oneway_16b_ns(udp_pair(0.0, 0).expect("bind udp pair"), rung_secs);
    let pat = Arc::new(Pattern::new(opts.seed, STREAM_BYTES));
    let engine = rungs::fm_pingpong_rung(
        udp_pair(0.0, 0).expect("bind udp pair"),
        Reliability::Retransmit(RetransmitConfig::adaptive()),
        &pat,
        rung_secs,
        |_| (),
    );
    r.count(0, engine.failed);
    let engine = engine.oneway_ns;
    let p50 = o.pp.p50_ns() / 2.0;
    r.set("fm-udp.raw_socket_oneway_us", socket / 1e3, 1);
    r.set("fm-udp.dev_oneway_16b_us", device / 1e3, 1);
    r.set(
        "fm-udp.wire_codec_2k_ns",
        rungs::wire_codec_ns(&pat, STREAM_BYTES, rung_secs),
        1,
    );
    let selfs = [socket, device - socket, engine - device];
    let ledger = selfs.iter().map(|x| x.max(0.0)).sum::<f64>() / p50.max(1.0);
    r.set("ledger.rungs_over_p50", ledger, 3);
    r.notes.push(format!(
        "ledger udp 16 B one-way (reported, not gated): socket {socket:.0} ns + device {:.0} ns + fm2/retransmit {:.0} ns = {:.0} ns vs untraced p50 {p50:.0} ns",
        device - socket,
        engine - device,
        selfs.iter().sum::<f64>(),
    ));
}
