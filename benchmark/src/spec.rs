//! The names the runner prints under: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics, in the order of
//! `BENCHMARK.json` at the repository root. That file is the declaration
//! (it alone carries each workload's `why` and each metric's direction);
//! a test keeps these tables equal to it, and the runner refuses to
//! print a metric that is not listed here.

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is a regression (per-layer: 0, unused).
    pub bound: f64,
}

/// Seconds one run measures for (`--seconds` the driver passes).
pub const RUN_SECONDS: u32 = 15;

/// The six workloads.
pub const WORKLOADS: &[&str] = &[
    "shm_small",
    "shm_bulk",
    "udp_clean",
    "udp_lossy",
    "mpi_shm_mix",
    "sim_layering",
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, bound }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.10),
    e2e("oneway_p50_us", "us", 0.25),
    e2e("msg_rate_kps", "1/ms", 0.25),
    e2e("goodput_mbps", "MB/s", 0.25),
];

const fn layer(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, 0.0)
}

/// Per-layer metrics, printed by every traced run. A metric reads 0 on a
/// workload whose traffic does not pass through that layer (see the
/// table in README.md for which workload measures which).
pub const PER_LAYER: &[MetricSpec] = &[
    // Machine baseline, measured in the same run.
    layer("raw.memcpy_2k_mbps", "MB/s"),
    layer("raw.memcpy_64k_mbps", "MB/s"),
    // fm-shm
    layer("fm-shm.ring_pushpop_ns", "ns"),
    layer("fm-shm.dev_oneway_16b_ns", "ns"),
    layer("fm-shm.dev_send_ns", "ns"),
    layer("fm-shm.dev_recv_ns", "ns"),
    layer("fm-shm.ring_stream_2k_mbps", "MB/s"),
    layer("fm-shm.full_rejections_per_kmsg", "1/kmsg"),
    layer("fm-shm.wire_bytes_per_payload_byte", "ratio"),
    layer("fm-shm.setup_ms", "ms"),
    // fm-udp
    layer("fm-udp.join_ms", "ms"),
    layer("fm-udp.raw_socket_oneway_us", "us"),
    layer("fm-udp.dev_oneway_16b_us", "us"),
    layer("fm-udp.dev_send_ns", "ns"),
    layer("fm-udp.dev_recv_ns", "ns"),
    layer("fm-udp.wire_codec_2k_ns", "ns"),
    layer("fm-udp.frames_per_msg", "ratio"),
    layer("fm-udp.trains_per_kframe", "1/kframe"),
    layer("fm-udp.acks_coalesced_share", "share"),
    layer("fm-udp.send_retries_per_kframe", "1/kframe"),
    // fm-core::fm2
    layer("fm-core.fm2.send_self_ns", "ns"),
    layer("fm-core.fm2.extract_self_ns", "ns"),
    layer("fm-core.fm2.loopback_16b_ns", "ns"),
    layer("fm-core.fm2.shm_oneway_16b_ns", "ns"),
    layer("fm-core.fm2.packets_per_msg", "ratio"),
    layer("fm-core.fm2.bytes_copied_per_payload_byte", "ratio"),
    layer("fm-core.fm2.shm_stream_2k_mbps", "MB/s"),
    layer("fm-core.fm2.credit_stalls_per_kmsg", "1/kmsg"),
    layer("fm-core.fm2.device_stalls_per_kmsg", "1/kmsg"),
    layer("fm-core.fm2.credit_packets_per_kmsg", "1/kmsg"),
    // fm-core::fm1
    layer("fm-core.fm1.loopback_16b_ns", "ns"),
    layer("fm-core.fm1.bytes_copied_per_payload_byte", "ratio"),
    // fm-core::buf
    layer("fm-core.buf.pool_miss_share", "share"),
    layer("fm-core.buf.allocs_per_msg", "ratio"),
    // fm-core::reliable
    layer("fm-core.reliable.retx_per_kmsg", "1/kmsg"),
    layer("fm-core.reliable.rto_per_kmsg", "1/kmsg"),
    layer("fm-core.reliable.fast_retx_share", "share"),
    layer("fm-core.reliable.dup_dropped_per_kmsg", "1/kmsg"),
    layer("fm-core.reliable.useful_tx_share", "share"),
    layer("fm-core.reliable.srtt_us", "us"),
    layer("fm-core.reliable.rto_us", "us"),
    layer("fm-core.reliable.acks_per_kmsg", "1/kmsg"),
    layer("fm-core.reliable.added_16b_ns", "ns"),
    // fm-route
    layer("fm-route.added_16b_ns", "ns"),
    layer("fm-route.local_share", "share"),
    // fm-core::onesided
    layer("fm-core.onesided.put_64k_mbps", "MB/s"),
    layer("fm-core.onesided.put_256k_mbps", "MB/s"),
    layer("fm-core.onesided.get_64k_mbps", "MB/s"),
    layer("fm-core.onesided.copied_per_payload_byte", "ratio"),
    layer("fm-core.onesided.ctrl_msgs_per_put", "ratio"),
    layer("fm-core.onesided.progress_self_ns", "ns"),
    // shmem-fm
    layer("shmem-fm.put_64k_mbps", "MB/s"),
    layer("shmem-fm.put_256k_mbps", "MB/s"),
    layer("shmem-fm.get_64k_mbps", "MB/s"),
    layer("shmem-fm.put_over_onesided", "ratio"),
    layer("shmem-fm.get_over_onesided", "ratio"),
    // mpi-fm
    layer("mpi-fm.send_self_ns", "ns"),
    layer("mpi-fm.recv_self_ns", "ns"),
    layer("mpi-fm.unexpected_share", "share"),
    layer("mpi-fm.unexpected_high_water", "count"),
    layer("mpi-fm.eager_share", "share"),
    layer("mpi-fm.pingpong_over_fm_16b", "ratio"),
    layer("mpi-fm.barrier_n2_us", "us"),
    layer("mpi-fm.allreduce_n2_16b_us", "us"),
    layer("mpi-fm.iface_efficiency_2k", "ratio"),
    layer("mpi-fm.sim_eff_fm1_2k", "ratio"),
    layer("mpi-fm.sim_eff_fm2_2k", "ratio"),
    // myrinet-sim: virtual time, exact
    layer("sim.fm1_oneway_16b", "sim_ns"),
    layer("sim.mpi1_oneway_16b", "sim_ns"),
    layer("sim.fm2_oneway_16b", "sim_ns"),
    layer("sim.mpi2_oneway_16b", "sim_ns"),
    layer("sim.fm1_stream_2k", "sim_MB/s"),
    layer("sim.mpi1_stream_2k", "sim_MB/s"),
    layer("sim.fm2_stream_2k", "sim_MB/s"),
    layer("sim.mpi2_stream_2k", "sim_MB/s"),
    layer("myrinet-sim.host_ns_per_sim_msg", "ns"),
    // Rung-only layers
    layer("sockets-fm.stream_64k_over_fm", "ratio"),
    layer("sockets-fm.buffered_high_water", "bytes"),
    layer("fm-threaded.pingpong_16b_ns", "ns"),
    // Diagnostics
    layer("tail.oneway_p99_us", "us"),
    layer("tail.oneway_p999_us", "us"),
    layer("trace.overhead_share", "share"),
    layer("ledger.rungs_over_p50", "ratio"),
    layer("fail_share", "share"),
];
