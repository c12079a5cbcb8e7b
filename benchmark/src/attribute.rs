//! Turns a traced window into per-layer metrics. Times and counts are
//! means per traced operation, so they do not depend on how many cycles
//! a run fitted; shares are ratios of sums.

use crate::layers::Layers;
use crate::record::{Facts, Window};
use crate::stats::{mean, percentile, ratio};
use crate::wire::number;

/// Mean of `f` over the facts that have one (`f` returns `None` for an
/// operation the quantity does not apply to).
fn mean_of(window: &Window, f: impl Fn(&Facts) -> Option<f64>) -> f64 {
    mean(&window.facts().filter_map(|(_, x)| f(x)).collect::<Vec<_>>())
}

fn sum_of(window: &Window, f: impl Fn(&Facts) -> f64) -> f64 {
    window.facts().map(|(_, x)| f(x)).sum()
}

/// Everything derivable from the operations' own facts.
pub fn from_facts(window: &Window, out: &mut Layers) {
    let ran = |x: &Facts, v: f64| (x.prepare_us > 0.0).then_some(v);
    out.set(
        "spec.parse_us",
        mean_of(window, |x| (x.parse_us > 0.0).then_some(x.parse_us)),
    );
    out.set("core.prepare_us", mean_of(window, |x| ran(x, x.prepare_us)));
    out.set("core.bind_us", mean_of(window, |x| ran(x, x.bind_us)));
    out.set("core.dde_us", mean_of(window, |x| ran(x, x.dde_us)));
    out.set(
        "plan.optimize_us",
        mean_of(window, |x| ran(x, x.optimize_us)),
    );
    out.set(
        "core.identity_us",
        mean_of(window, |x| {
            ran(x, x.prepare_us - x.bind_us - x.dde_us - x.optimize_us)
        }),
    );
    out.set("core.execute_ms", mean_of(window, |x| ran(x, x.execute_ms)));
    for (i, name) in [
        "exec.stage_decode_busy_ms",
        "exec.stage_compose_busy_ms",
        "exec.stage_encode_busy_ms",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, mean_of(window, |x| ran(x, x.stage_ms[i])));
    }

    let planned =
        |f: fn(&v2v_plan::PlanStats) -> u64| move |x: &Facts| x.plan.as_ref().map(|p| f(p) as f64);
    out.set(
        "plan.segments",
        mean_of(window, planned(|p| p.render_segments + p.copy_segments)),
    );
    out.set(
        "plan.smart_cuts",
        mean_of(window, planned(|p| p.smart_cuts)),
    );
    let copied = sum_of(window, |x| x.plan.map_or(0.0, |p| p.frames_copied as f64));
    let rendered = sum_of(window, |x| x.plan.map_or(0.0, |p| p.frames_rendered as f64));
    out.set("plan.copied_frame_share", ratio(copied, copied + rendered));
    out.set(
        "core.dde_rewrites",
        mean_of(window, |x| x.plan.map(|_| x.dde_rewrites as f64)),
    );

    let counted =
        |f: fn(&v2v_exec::ExecStats) -> u64| move |x: &Facts| x.exec.as_ref().map(|e| f(e) as f64);
    let total = |f: fn(&v2v_exec::ExecStats) -> u64| {
        sum_of(window, |x| x.exec.as_ref().map_or(0.0, |e| f(e) as f64))
    };
    out.set(
        "exec.frames_decoded",
        mean_of(window, counted(|e| e.frames_decoded)),
    );
    out.set(
        "exec.frames_encoded",
        mean_of(window, counted(|e| e.frames_encoded)),
    );
    out.set(
        "exec.packets_copied",
        mean_of(window, counted(|e| e.packets_copied)),
    );
    out.set(
        "exec.bytes_decoded",
        mean_of(window, counted(|e| e.bytes_decoded)),
    );
    out.set("exec.seeks", mean_of(window, counted(|e| e.seeks)));
    out.set("exec.splits", mean_of(window, counted(|e| e.splits)));
    out.set("exec.steals", mean_of(window, counted(|e| e.steals)));
    // Every rendered frame is encoded once, so encodes count renders.
    out.set(
        "exec.decode_amplification",
        ratio(total(|e| e.frames_decoded), total(|e| e.frames_encoded)),
    );
    let hits = total(|e| e.gop_cache_hits);
    out.set(
        "exec.gop_cache_hit_share",
        ratio(hits, hits + total(|e| e.gop_cache_misses)),
    );

    let streamed: Vec<(f64, f64)> = window
        .facts()
        .filter(|(_, x)| x.streaming_total_ms > 0.0)
        .map(|(op, x)| (op.ttfp_ms.unwrap_or(0.0), x.streaming_total_ms))
        .collect();
    out.set(
        "exec.streaming_total_ms",
        mean(&streamed.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    out.set(
        "exec.ttfp_share",
        ratio(
            streamed.iter().map(|s| s.0).sum(),
            streamed.iter().map(|s| s.1).sum(),
        ),
    );

    // Reuse tiers, as shares of the operations that could have hit them.
    let queries = window.facts().filter(|(_, x)| x.exec.is_some()).count() as f64;
    let result_hits = total(|e| e.cache.result_hits);
    let segment_hit_ops = window
        .facts()
        .filter(|(_, x)| {
            x.exec
                .is_some_and(|e| e.cache.result_hits == 0 && e.cache.segment_hits > 0)
        })
        .count() as f64;
    out.set("exec.cache.result_hit_share", ratio(result_hits, queries));
    out.set(
        "exec.cache.segment_hit_share",
        ratio(segment_hit_ops, queries),
    );
    out.set(
        "exec.cache.mem_hit_share",
        ratio(
            total(|e| e.cache.mem_hits),
            result_hits + total(|e| e.cache.segment_hits),
        ),
    );
    out.set(
        "exec.cache.shared_segment_hits",
        mean_of(window, counted(|e| e.cache.shared_segment_hits)),
    );
    let served_bytes = sum_of(window, |x| x.exec.map_or(0.0, |_| x.body_bytes as f64));
    out.set(
        "exec.cache.bytes_reused_share",
        ratio(total(|e| e.cache.bytes_reused), served_bytes),
    );

    let waits = sum_of(window, |x| x.queue_wait_ms);
    let waited_latency: f64 = window
        .facts()
        .filter(|(_, x)| x.exec.is_some() && x.body_bytes > 0)
        .filter_map(|(op, _)| op.latency_ms)
        .sum();
    out.set(
        "serve.queue_wait_ms",
        mean_of(window, |x| {
            (x.exec.is_some() && x.body_bytes > 0).then_some(x.queue_wait_ms)
        }),
    );
    out.set("serve.queue_wait_share", ratio(waits, waited_latency));
    out.set(
        "serve.append_ack_ms",
        mean_of(window, |x| {
            (x.append_ack_ms > 0.0).then_some(x.append_ack_ms)
        }),
    );
    out.set(
        "serve.sub.delta_byte_share",
        ratio(
            sum_of(window, |x| {
                if x.full_bytes > 0 {
                    x.body_bytes as f64
                } else {
                    0.0
                }
            }),
            sum_of(window, |x| x.full_bytes as f64),
        ),
    );

    out.set("harness.samples_min", window.samples_min() as f64);
    out.set("harness.cpu_ms_per_frame", window.cpu_ms_per_frame());
    out.set(
        "harness.fail_share",
        ratio(window.failed() as f64, window.attempted() as f64),
    );
    out.set(
        "harness.trace_overhead_share",
        ratio(
            window.latency_gm_ms(Some(true)),
            window.latency_gm_ms(Some(false)),
        ) - 1.0,
    );
}

/// Daemon-side counters: the difference between two `GET /status`
/// documents taken around the window.
pub fn from_status(window: &Window, status: &[serde_json::Value; 2], out: &mut Layers) {
    let moved = |path: &[&str]| number(&status[1], path) - number(&status[0], path);
    out.set("exec.cache.evictions", moved(&["cache", "evictions"]));
    out.set("serve.rejected", moved(&["jobs_rejected"]));
    out.set("serve.inflight_hits", moved(&["sharing", "inflight_hits"]));
    // Both halves of an installment count as an append in the daemon.
    out.set(
        "serve.sub.renders_per_append",
        ratio(
            moved(&["subscriptions", "renders"]),
            moved(&["subscriptions", "appends"]) / 2.0,
        ),
    );
    out.set("serve.latency_p95_ms", window.latency_p95_ms());
    out.set("serve.ttfp_p95_ms", window.ttfp_p95_ms());
}

pub fn lateness(lateness_ms: &[f64], out: &mut Layers) {
    out.set("harness.lateness_p95_ms", percentile(lateness_ms, 95.0));
}

/// How much of the measured latency the parts account for: measured
/// parse / prepare / queue / transport spans plus counts × probe unit
/// costs for the execution itself, over the traced operations that
/// report counts. Call after the probes have run.
pub fn closure(window: &Window, threads: usize, served: bool, out: &mut Layers) {
    let compose_us = (out.get("frame.blur_us_per_frame")
        + out.get("frame.grid4_us_per_frame")
        + out.get("frame.boxes_us_per_frame"))
        / 3.0;
    let (decode_us, encode_us, copy_us) = (
        out.get("codec.decode_us_per_frame"),
        out.get("codec.encode_us_per_frame"),
        out.get("container.copy_us_per_packet"),
    );
    // A served query pays a round trip and, in the daemon's `prepare`,
    // the source digest the batch path measures inside `core.prepare`.
    let per_request_us = if served {
        out.get("serve.roundtrip_floor_us") + out.get("plan.video_digest_us")
    } else {
        0.0
    };
    let (mut explained, mut measured) = (0.0, 0.0);
    for (op, x) in window.facts() {
        let (Some(e), Some(latency)) = (x.exec, op.latency_ms) else {
            continue;
        };
        let hit = e.cache.result_hits > 0;
        let work_us = e.frames_decoded as f64 * decode_us
            + e.frames_encoded as f64 * (encode_us + compose_us)
            + e.packets_copied as f64 * copy_us
            + if hit {
                out.get("exec.cache.load_result_us")
            } else {
                0.0
            };
        explained += (x.parse_us + x.prepare_us + per_request_us + work_us / threads as f64) / 1e3
            + x.queue_wait_ms;
        measured += latency;
    }
    out.set("harness.closure_share", ratio(explained, measured));
}
