//! Names and units of every metric the benchmark prints. `BENCHMARK.json`
//! lists the same names with their direction and bound; the smoke test
//! fails when the two drift apart.

/// End-to-end metrics, reported by every workload on the untraced pass.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("complete_s_p50", "s"),
    ("complete_s_tail", "s"),
    ("work_per_s", "1/s"),
    ("sent_per_useful", "ratio"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (layer = crate name), reported on the traced pass.
/// A layer that does no work on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("fountain.encode_s", "s"),
    ("fountain.decode_s", "s"),
    ("fountain.decode_fed", "count"),
    ("fountain.decode_useful_share", "ratio"),
    ("util.pool_reuse_share", "ratio"),
    ("sketch.build_s", "s"),
    ("sketch.keys", "count"),
    ("summary.build_s", "s"),
    ("summary.bytes", "bytes"),
    ("summary.id", "id"),
    ("core.workingset_build_s", "s"),
    ("core.pump_s", "s"),
    ("core.sessions", "count"),
    ("core.rejected_sessions", "count"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("wire.control_bytes", "bytes"),
    ("wire.control_share", "ratio"),
    ("wire.bytes_per_frame", "bytes"),
    ("node.fetch_s", "s"),
    ("node.socket_read_s", "s"),
    ("node.socket_write_s", "s"),
    ("node.socket_reads", "count"),
    ("node.socket_writes", "count"),
    ("node.spawn_s", "s"),
    ("node.barrier_s", "s"),
    ("node.go_s", "s"),
    ("node.rounds", "count"),
    ("node.sessions", "count"),
    ("node.fresh_per_frame", "ratio"),
    ("node.retries", "count"),
    ("node.stall_escalations", "count"),
    ("node.degraded_sessions", "count"),
    ("node.predict_match_share", "ratio"),
    ("overlay.run_s", "s"),
    ("overlay.events", "count"),
    ("overlay.packets", "count"),
    ("overlay.ticks", "count"),
    ("overlay.ns_per_event", "ns"),
    ("overlay.scenario_build_s", "s"),
    ("overlay.transfer_s.random", "s"),
    ("overlay.transfer_s.random_bf", "s"),
    ("overlay.transfer_s.recode", "s"),
    ("overlay.transfer_s.recode_bf", "s"),
    ("overlay.transfer_s.recode_mw", "s"),
    ("overlay.shard_generate_s", "s"),
    ("overlay.shard_merge_s", "s"),
    ("overlay.shard_commit_s", "s"),
    ("overlay.shard_barrier_share", "ratio"),
    ("overlay.shard_windows", "count"),
    ("swarm.build_s", "s"),
    ("swarm.membership_events", "count"),
    ("swarm.reconnects", "count"),
    ("swarm.wire_bytes", "bytes"),
    ("swarm.complete_share", "ratio"),
    ("obs.trace_records", "count"),
    ("obs.trace_dropped", "count"),
];

/// The benchmark's own tracing cost per workload: traced-pass median
/// operation time ÷ untraced − 1. It needs both passes, so the suite
/// computes it; a single `--trace 1` run cannot.
pub const SPAN_OVERHEAD: (&str, &str) = ("obs.span_overhead_share", "ratio");
