//! Ordered streaming delivery: begin playback before synthesis ends.
//!
//! The paper's interactivity story (§I): "Through database-style
//! optimizations described in this paper and on-demand streaming, V2V
//! enables a VDBMS to execute such a query and to begin playback within
//! seconds." Streaming is a delivery choice, not a second executor:
//! [`execute_streaming_with`] is the executor's one driver with a
//! packet sink attached, so packets are delivered *in presentation
//! order as soon as they are ready*, while later segments are still
//! being rendered in parallel.
//!
//! Segments are independent (each starts its own GOP), so the scheduler
//! renders them concurrently and its ordered-delivery stage releases
//! each segment's packets once all earlier output has been delivered. A
//! plan whose first segment is a stream copy starts playback after a
//! refcount bump — the measured `time_to_first_packet` in
//! [`StreamingStats`] is how the interactive claim is quantified in the
//! benches.

use crate::catalog::Catalog;
use crate::executor::{drive, ExecOptions, ExecStats};
use crate::fault::SegmentFault;
use crate::trace::ExecTrace;
use crate::ExecError;
use std::time::{Duration, Instant};
use v2v_codec::Packet;
use v2v_container::VideoStream;
use v2v_plan::PhysicalPlan;

/// Latency profile of a streaming run.
#[derive(Clone, Debug, Default)]
pub struct StreamingStats {
    /// Plan-independent preparation time (cache and writer construction)
    /// spent before the executor started dispatching work. Kept separate
    /// so `time_to_first_packet` isolates the paper's interactivity
    /// claim.
    pub setup: Duration,
    /// Wall time from executor start until the first packet reached the
    /// sink (excludes `setup`).
    pub time_to_first_packet: Duration,
    /// Wall time from executor start until the last packet reached the
    /// sink (excludes `setup`).
    pub total: Duration,
    /// Aggregated execution costs.
    pub exec: ExecStats,
    /// Structured error report: one entry per segment that failed and was
    /// recovered, skipped, or substituted under the run's error policy.
    pub errors: Vec<SegmentFault>,
    /// The per-segment trace `exec` and `errors` are taken from — the
    /// same artifact a batch run returns.
    pub trace: ExecTrace,
}

/// Executes a plan, delivering packets to `sink` in presentation order
/// as segments complete. Returns the assembled stream (identical to the
/// batch executor's output) plus latency stats.
///
/// This is the batch executor's driver with a sink attached, so a
/// streaming run honors the same [`ExecOptions`] and reports the same
/// [`ExecStats`] as a batch run of the same plan. Worker parallelism
/// uses the scheduler's scoped threads; ordered delivery runs on the
/// calling thread, so `sink` needs no synchronization. Packets reach
/// `sink` already re-stamped onto the output presentation grid, so the
/// sink-visible bytes are identical however the scheduler ordered the
/// work.
pub fn execute_streaming_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    mut sink: impl FnMut(&Packet),
) -> Result<(VideoStream, StreamingStats), ExecError> {
    let started = Instant::now();
    let (out, mut trace, exec_started, first_packet) = drive(plan, catalog, opts, Some(&mut sink))?;
    let total = exec_started.elapsed();
    trace.wall_ns = total.as_nanos() as u64;
    let stats = StreamingStats {
        setup: exec_started - started,
        time_to_first_packet: first_packet.map_or(Duration::ZERO, |at| at - exec_started),
        total,
        exec: trace.totals,
        errors: trace.errors.clone(),
        trace,
    };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, ExecOptions};
    use v2v_codec::CodecParams;
    use v2v_container::StreamWriter;
    use v2v_frame::{marker, Frame, FrameType};
    use v2v_plan::{lower_spec, optimize, OptimizerConfig};
    use v2v_spec::builder::blur;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::{r, Rational};

    fn marked_stream(n: usize, gop: u32) -> VideoStream {
        marked_stream_of(FrameType::gray8(64, 32), n, gop)
    }

    fn marked_stream_of(ty: FrameType, n: usize, gop: u32) -> VideoStream {
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            marker::embed(&mut f, i as u32);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    fn setup() -> (Catalog, v2v_spec::Spec) {
        setup_of(FrameType::gray8(64, 32))
    }

    fn setup_of(ty: FrameType) -> (Catalog, v2v_spec::Spec) {
        let mut catalog = Catalog::new();
        catalog.add_video("src", marked_stream_of(ty, 300, 30));
        let output = OutputSettings {
            frame_ty: ty,
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        };
        let spec = SpecBuilder::new(output)
            .video("src", "src.svc")
            .append_clip("src", r(1, 1), Rational::from_int(2))
            .append_filtered("src", r(4, 1), Rational::from_int(4), |e| blur(e, 1.0))
            .build();
        (catalog, spec)
    }

    #[test]
    fn streaming_output_matches_batch() {
        let (catalog, spec) = setup();
        let logical = lower_spec(&spec).unwrap();
        let plan = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let mut sink_count = 0usize;
        let (streamed, stats) =
            execute_streaming_with(&plan, &catalog, &ExecOptions::default(), |_| {
                sink_count += 1
            })
            .unwrap();
        let (batch, _, _) = execute(&plan, &catalog, &ExecOptions::default()).unwrap();
        assert_eq!(sink_count, streamed.len());
        assert_eq!(streamed.len(), batch.len());
        let (fa, _) = streamed.decode_range(0, streamed.len()).unwrap();
        let (fb, _) = batch.decode_range(0, batch.len()).unwrap();
        assert_eq!(fa, fb);
        assert!(stats.time_to_first_packet <= stats.total);
    }

    #[test]
    fn sink_receives_packets_in_presentation_order() {
        let (catalog, spec) = setup();
        let logical = lower_spec(&spec).unwrap();
        let plan = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let mut keyframes_seen = 0;
        let mut count = 0usize;
        execute_streaming_with(&plan, &catalog, &ExecOptions::default(), |p| {
            if count == 0 {
                assert!(p.keyframe, "stream must open with a keyframe");
            }
            if p.keyframe {
                keyframes_seen += 1;
            }
            count += 1;
        })
        .unwrap();
        assert_eq!(count, 180);
        assert!(keyframes_seen >= plan.segments.len());
    }

    #[test]
    fn copy_first_plans_start_fast() {
        // A plan whose first segment is a copy should deliver its first
        // packet long before the blur-heavy tail finishes. Frames big
        // enough that the tail takes tens of milliseconds: the margin
        // must dwarf one scheduler timeslice lost to a sibling test.
        let (catalog, spec) = setup_of(FrameType::gray8(256, 128));
        let logical = lower_spec(&spec).unwrap();
        let plan = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert!(plan.segments[0].plan.is_copy(), "test premise");
        // Pinned worker counts, not the host's: copies are dispatched
        // ahead of every render at any pool width.
        for num_threads in [1, 2, 4, 8] {
            let opts = ExecOptions {
                num_threads,
                ..Default::default()
            };
            let (_, stats) = execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
            assert!(
                stats.time_to_first_packet < stats.total / 2,
                "{num_threads} threads: ttfp {:?} vs total {:?}",
                stats.time_to_first_packet,
                stats.total
            );
        }
    }

    #[test]
    fn streaming_and_batch_report_identical_gop_cache_counts() {
        // Regression: streaming used to build a default-size cache no
        // matter what the caller configured, so batch and streaming runs
        // of the same plan under the same options reported different
        // hit/miss counts. A single-segment render keeps cursor order
        // deterministic so the counts are exactly comparable.
        use v2v_spec::builder::grid4;
        use v2v_spec::RenderExpr;
        let mut catalog = Catalog::new();
        catalog.add_video("src", marked_stream(120, 30));
        let output = OutputSettings {
            frame_ty: FrameType::gray8(64, 32),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        };
        let spec = SpecBuilder::new(output)
            .video("src", "src.svc")
            .append_with(r(1, 1), |_| {
                grid4(
                    RenderExpr::video("src"),
                    RenderExpr::video_shifted("src", r(1, 30)),
                    RenderExpr::video_shifted("src", r(2, 30)),
                    RenderExpr::video_shifted("src", r(3, 30)),
                )
            })
            .build();
        let logical = lower_spec(&spec).unwrap();
        let plan = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig {
                shard_min_frames: u64::MAX, // one render segment
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plan.segments.len(), 1, "test premise: single segment");
        for cache_frames in [0usize, 512, 4096] {
            let opts = ExecOptions {
                gop_cache_frames: cache_frames,
                parallel: false,
                ..Default::default()
            };
            let (_, batch_stats, _) = execute(&plan, &catalog, &opts).unwrap();
            let (_, streaming_stats) =
                execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
            assert_eq!(
                batch_stats.gop_cache_hits, streaming_stats.exec.gop_cache_hits,
                "hits diverge at cache_frames={cache_frames}"
            );
            assert_eq!(
                batch_stats.gop_cache_misses, streaming_stats.exec.gop_cache_misses,
                "misses diverge at cache_frames={cache_frames}"
            );
            assert_eq!(batch_stats, streaming_stats.exec, "full stats diverge");
        }
    }

    #[test]
    fn worker_errors_propagate() {
        let (catalog, spec) = setup();
        let logical = lower_spec(&spec).unwrap();
        let mut plan = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        // Corrupt a segment to reference a missing video.
        if let v2v_plan::SegPlan::StreamCopy { video, .. } = &mut plan.segments[0].plan {
            *video = "ghost".into();
        }
        assert!(execute_streaming_with(&plan, &catalog, &ExecOptions::default(), |_| {}).is_err());
    }
}
