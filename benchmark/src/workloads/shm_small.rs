//! `shm_small`: FM 2.x (`TrustSubstrate`) over `fm-shm` — a 16-byte
//! ping-pong leg, then a 16-byte windowed stream leg.
//!
//! Per-message cost only: `fm-core::fm2` packetising, credits and handler
//! dispatch and the `fm-shm` ring push/pop do all the work; copies and
//! reliability do none. The traced run adds the shm latency ladder
//! (bare ring -> device -> engine -> +Retransmit -> routed) and the
//! single-thread engine rungs.

use std::sync::Arc;

use fm_core::{Reliability, RetransmitConfig};
use fm_shm::ShmDevice;
use fm_threaded::ThreadedDevice;

use crate::fabric::{routed_pair, shm_pair};
use crate::payload::Pattern;
use crate::report::RunResult;
use crate::rungs;
use crate::stats::median;
use crate::workloads::fm_pair::{
    end_to_end, fm_pair_layers, run_fm_pair, sum, DevSnap, FmPairCfg, FmPairOutcome,
    TRACED_LEG_SHARE,
};
use crate::Opts;

fn cfg() -> FmPairCfg {
    FmPairCfg {
        reliability: Reliability::TrustSubstrate,
        stream_bytes: 16,
        pp_seg_ops: 4096,
        stream_seg_ops: 16_384,
    }
}

fn shm_snap(d: &ShmDevice) -> DevSnap {
    let s = d.stats();
    DevSnap {
        frames_sent: s.frames_sent,
        wire_bytes_sent: s.bytes_sent,
        full_rejections: s.full_rejections,
        ..DevSnap::default()
    }
}

/// Run the workload.
pub fn run(opts: &Opts) -> RunResult {
    let o = run_fm_pair(opts, cfg(), |_| shm_pair("shm_small"), shm_snap);
    let mut r = RunResult::default();
    r.count(o.attempted, o.failed);
    if opts.traced {
        crate::write_chrome_trace("shm_small", opts.seed, &o.recorders, &mut r);
        traced_metrics(opts, &o, &mut r);
    } else {
        end_to_end(&o, &mut r);
    }
    r
}

fn traced_metrics(opts: &Opts, o: &FmPairOutcome, r: &mut RunResult) {
    fm_pair_layers(o, r);
    r.set_device_spans(&o.recorders, "fm-shm.dev_send_ns", "fm-shm.dev_recv_ns");
    r.set(
        "fm-shm.setup_ms",
        median(&o.open_ms),
        o.open_ms.len() as u64,
    );
    shm_device_counters(o, r);

    // The ladder. Each rung gets an equal slice of what the legs left.
    let rung_secs = opts.seconds * (1.0 - TRACED_LEG_SHARE) / 10.0;
    let pat = Arc::new(Pattern::new(opts.seed, 16));
    rungs::memcpy_baseline(r, rung_secs);
    let ring = rungs::ring_pushpop_ns(rung_secs);
    let dev = rungs::dev_oneway_16b_ns(shm_pair("rung-dev").expect("open shm pair"), rung_secs);
    let trust = rungs::fm_pingpong_rung(
        shm_pair("rung-trust").expect("open shm pair"),
        Reliability::TrustSubstrate,
        &pat,
        rung_secs,
        |_| (),
    );
    let p50 = o.pp.p50_ns() / 2.0;
    let retx = rungs::fm_pingpong_rung(
        shm_pair("rung-retx").expect("open shm pair"),
        Reliability::Retransmit(RetransmitConfig::adaptive()),
        &pat,
        rung_secs,
        |_| (),
    );
    let routed = rungs::fm_pingpong_rung(
        routed_pair("rung-routed").expect("open routed pair"),
        Reliability::Retransmit(RetransmitConfig::adaptive()),
        &pat,
        rung_secs,
        |d| d.stats(),
    );
    let threaded = rungs::fm_pingpong_rung(
        ThreadedDevice::mesh(2, 128),
        Reliability::TrustSubstrate,
        &pat,
        rung_secs,
        |_| (),
    );
    r.count(
        0,
        trust.failed + retx.failed + routed.failed + threaded.failed,
    );
    let trust = trust.oneway_ns;
    r.set("fm-shm.ring_pushpop_ns", ring, 1);
    r.set("fm-shm.dev_oneway_16b_ns", dev, 1);
    r.set("fm-core.fm2.shm_oneway_16b_ns", trust, o.pp.samples);
    r.set("fm-core.reliable.added_16b_ns", retx.oneway_ns - trust, 1);
    r.set(
        "fm-route.added_16b_ns",
        routed.oneway_ns - retx.oneway_ns,
        1,
    );
    let routes = routed.probed;
    let routed_sent = routes.local_sent + routes.remote_sent;
    r.set(
        "fm-route.local_share",
        routes.local_sent as f64 / routed_sent.max(1) as f64,
        routed_sent,
    );
    r.set("fm-threaded.pingpong_16b_ns", threaded.oneway_ns, 1);
    r.set(
        "fm-core.fm2.loopback_16b_ns",
        rungs::fm2_loopback_16b_ns(rung_secs),
        1,
    );
    let (fm1_ns, fm1_copies) = rungs::fm1_loopback_16b(rung_secs);
    r.set("fm-core.fm1.loopback_16b_ns", fm1_ns, 1);
    r.set("fm-core.fm1.bytes_copied_per_payload_byte", fm1_copies, 1);

    // Ledger: the rungs were each measured on their own pair of threads,
    // at their own moment; their self costs must still add up to the
    // workload's untraced one-way time, or a layer is missing from the
    // ladder (or the machine changed speed between rungs).
    let selfs = [ring, dev - ring, trust - dev];
    let ledger = selfs.iter().map(|x| x.max(0.0)).sum::<f64>() / p50.max(1.0);
    r.set("ledger.rungs_over_p50", ledger, 3);
    r.notes.push(format!(
        "ledger shm 16 B one-way: ring {ring:.0} ns + device {:.0} ns + fm2 {:.0} ns = {:.0} ns vs untraced p50 {p50:.0} ns ({})",
        dev - ring,
        trust - dev,
        selfs.iter().sum::<f64>(),
        if (ledger - 1.0).abs() <= 0.25 { "ok" } else { "LAYER MISSING" },
    ));
}

/// `fm-shm` counter ratios over the stream leg.
fn shm_device_counters(o: &FmPairOutcome, r: &mut RunResult) {
    let msgs = sum(&o.stream_stats, |s| s.messages_sent).max(1.0);
    let payload = sum(&o.stream_stats, |s| s.bytes_sent).max(1.0);
    let rejections: u64 = o.stream_dev.iter().map(|d| d.full_rejections).sum();
    let wire: u64 = o.stream_dev.iter().map(|d| d.wire_bytes_sent).sum();
    r.set(
        "fm-shm.full_rejections_per_kmsg",
        rejections as f64 * 1e3 / msgs,
        msgs as u64,
    );
    r.set(
        "fm-shm.wire_bytes_per_payload_byte",
        wire as f64 / payload,
        msgs as u64,
    );
}
