//! The benchmark's metric names, units and directions — the same lists
//! `BENCHMARK.json` declares (a self-test keeps the two in step).

use std::collections::BTreeMap;

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("latency_gm_ms", "ms", "lower"),
    ("ttfp_gm_ms", "ms", "lower"),
    ("out_fps", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

pub const PER_LAYER: &[MetricDef] = &[
    ("spec.parse_us", "us", "lower"),
    ("core.bind_us", "us", "lower"),
    ("core.dde_us", "us", "lower"),
    ("core.dde_rewrites", "count", "higher"),
    ("core.prepare_us", "us", "lower"),
    ("core.identity_us", "us", "lower"),
    ("core.execute_ms", "ms", "lower"),
    ("plan.optimize_us", "us", "lower"),
    ("plan.segments", "count", "lower"),
    ("plan.smart_cuts", "count", "higher"),
    ("plan.copied_frame_share", "share", "higher"),
    ("plan.video_digest_us", "us", "lower"),
    ("plan.fingerprint_us", "us", "lower"),
    ("data.sql_bind_us", "us", "lower"),
    ("exec.frames_decoded", "count", "lower"),
    ("exec.frames_encoded", "count", "lower"),
    ("exec.packets_copied", "count", "higher"),
    ("exec.bytes_decoded", "bytes", "lower"),
    ("exec.seeks", "count", "lower"),
    ("exec.decode_amplification", "ratio", "lower"),
    ("exec.gop_cache_hit_share", "share", "higher"),
    ("exec.splits", "count", "higher"),
    ("exec.steals", "count", "higher"),
    ("exec.stage_decode_busy_ms", "ms", "lower"),
    ("exec.stage_compose_busy_ms", "ms", "lower"),
    ("exec.stage_encode_busy_ms", "ms", "lower"),
    ("exec.speedup_vs_1t", "ratio", "higher"),
    ("exec.streaming_total_ms", "ms", "lower"),
    ("exec.ttfp_share", "share", "lower"),
    ("exec.cache.result_hit_share", "share", "higher"),
    ("exec.cache.segment_hit_share", "share", "higher"),
    ("exec.cache.mem_hit_share", "share", "higher"),
    ("exec.cache.shared_segment_hits", "count", "higher"),
    ("exec.cache.evictions", "count", "lower"),
    ("exec.cache.bytes_reused_share", "share", "higher"),
    ("exec.cache.load_result_us", "us", "lower"),
    ("exec.cache.load_segment_us", "us", "lower"),
    ("exec.cache.store_segment_us", "us", "lower"),
    ("codec.decode_us_per_frame", "us", "lower"),
    ("codec.encode_us_per_frame", "us", "lower"),
    ("codec.bytes_per_frame", "bytes", "lower"),
    ("frame.blur_us_per_frame", "us", "lower"),
    ("frame.grid4_us_per_frame", "us", "lower"),
    ("frame.boxes_us_per_frame", "us", "lower"),
    ("container.copy_us_per_packet", "us", "lower"),
    ("container.read_svc_mb_per_s", "MB/s", "higher"),
    ("container.write_svc_mb_per_s", "MB/s", "higher"),
    ("container.live_append_us", "us", "lower"),
    ("container.wire_roundtrip_us_per_mb", "us/MB", "lower"),
    ("serve.roundtrip_floor_us", "us", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.queue_wait_share", "share", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.inflight_hits", "count", "higher"),
    ("serve.append_ack_ms", "ms", "lower"),
    ("serve.sub.delta_byte_share", "share", "lower"),
    ("serve.sub.renders_per_append", "ratio", "lower"),
    ("serve.latency_p95_ms", "ms", "lower"),
    ("serve.ttfp_p95_ms", "ms", "lower"),
    ("harness.samples_min", "count", "higher"),
    ("harness.lateness_p95_ms", "ms", "lower"),
    ("harness.trace_overhead_share", "share", "lower"),
    ("harness.closure_share", "share", "higher"),
    ("harness.fail_share", "share", "lower"),
    ("harness.cpu_ms_per_frame", "ms", "lower"),
];

/// Per-layer values of one run. A metric a workload has no work for
/// (serving counters on a batch workload) reads 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "undeclared layer metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for every metric of `defs`.
pub fn metrics_json(defs: &[MetricDef], value_of: impl Fn(&str) -> f64) -> serde_json::Value {
    serde_json::Value::Object(
        defs.iter()
            .map(|(name, unit, _)| {
                (
                    (*name).to_string(),
                    serde_json::json!({"value": value_of(name), "unit": unit}),
                )
            })
            .collect(),
    )
}
