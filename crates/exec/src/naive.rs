//! The naive (unoptimized) reference executor.
//!
//! Interprets the unoptimized logical plan exactly as its operator tree
//! reads (Fig. 2 top): every `Clip` decodes its source range and encodes
//! an intermediate stream; every `Filter` decodes its input
//! intermediates, applies one transformation, and encodes again; the
//! final `Concat` splices the compatible intermediates packet-wise (the
//! ffmpeg concat-demuxer behaviour). Single-threaded. This is the
//! "unoptimized plan" arm of the paper's Figs. 3–4.

use crate::apply::apply_program;
use crate::catalog::Catalog;
use crate::cursor::SourceCursor;
use crate::executor::ExecStats;
use crate::ExecError;
use std::time::{Duration, Instant};
use v2v_codec::CodecParams;
use v2v_container::{StreamWriter, VideoStream};
use v2v_frame::ops::conform;
use v2v_plan::{LogicalNode, LogicalPlan, LogicalSegment};
use v2v_time::Rational;

/// Executes the unoptimized logical plan, materializing an encoded
/// intermediate at every operator.
pub fn execute_naive(
    plan: &LogicalPlan,
    catalog: &Catalog,
) -> Result<(VideoStream, ExecStats, Duration), ExecError> {
    let started = Instant::now();
    let mut stats = ExecStats::default();
    let out_params = CodecParams {
        frame_ty: plan.output.frame_ty,
        gop_size: plan.output.gop_size,
        quantizer: plan.output.quantizer,
        preset: Default::default(),
    };

    // Materialize every top-level segment, then concat. Concat splices
    // compatible encoded intermediates without re-encoding (the ffmpeg
    // concat-demuxer behaviour) — intermediates are always produced at
    // `out_params`, so this always applies.
    let mut writer = StreamWriter::new(out_params, Rational::ZERO, plan.frame_dur);
    for seg in &plan.segments {
        let intermediate = materialize(plan, seg, &seg.node, catalog, out_params, &mut stats)?;
        writer.push_copied(intermediate.packets())?;
        stats.packets_copied += intermediate.len() as u64;
        stats.bytes_copied += intermediate.byte_size();
        stats.segments += 1;
    }
    let out = writer.finish()?;
    Ok((out, stats, started.elapsed()))
}

/// Materializes one operator's output as an encoded intermediate stream.
fn materialize(
    plan: &LogicalPlan,
    seg: &LogicalSegment,
    node: &LogicalNode,
    catalog: &Catalog,
    out_params: CodecParams,
    stats: &mut ExecStats,
) -> Result<VideoStream, ExecError> {
    match node {
        LogicalNode::Clip { video, time } => {
            let stream = catalog
                .video(video)
                .ok_or_else(|| ExecError::UnknownVideo(video.clone()))?;
            let mut cursor = SourceCursor::new(stream, video.clone());
            let mut w = StreamWriter::new(out_params, Rational::ZERO, plan.frame_dur);
            for i in 0..seg.count {
                let t = plan.instant_of(seg.out_start + i);
                let src_t = time.apply(t);
                let idx = stream
                    .index_of(src_t)
                    .ok_or_else(|| ExecError::MissingFrame {
                        video: video.clone(),
                        at: src_t,
                    })? as u64;
                let frame = cursor.frame_at(idx)?;
                w.push_frame(&conform(&frame, out_params.frame_ty))?;
                stats.frames_encoded += 1;
            }
            stats.frames_decoded += cursor.frames_decoded;
            w.finish().map_err(ExecError::from)
        }
        LogicalNode::Filter { program, inputs } => {
            // Materialize each input operator fully, then decode them in
            // lockstep and apply this single transformation.
            let materialized: Vec<VideoStream> = inputs
                .iter()
                .map(|n| materialize(plan, seg, n, catalog, out_params, stats))
                .collect::<Result<_, _>>()?;
            let mut cursors: Vec<SourceCursor<'_>> = materialized
                .iter()
                .map(|s| SourceCursor::new(s, "intermediate"))
                .collect();
            let mut w = StreamWriter::new(out_params, Rational::ZERO, plan.frame_dur);
            let mut frames = Vec::with_capacity(cursors.len());
            for i in 0..seg.count {
                let t = plan.instant_of(seg.out_start + i);
                frames.clear();
                for c in &mut cursors {
                    frames.push(c.frame_at(i)?);
                }
                let out = apply_program(program, t, &frames, catalog.arrays(), catalog)?;
                w.push_frame(&conform(&out, out_params.frame_ty))?;
                stats.frames_encoded += 1;
            }
            stats.frames_decoded += cursors.iter().map(|c| c.frames_decoded).sum::<u64>();
            w.finish().map_err(ExecError::from)
        }
        LogicalNode::Concat { segments } => {
            // Nested splice: materialize children and concatenate the
            // compatible encoded intermediates packet-wise.
            let mut w = StreamWriter::new(out_params, Rational::ZERO, plan.frame_dur);
            for child in segments {
                let s = materialize(plan, child, &child.node, catalog, out_params, stats)?;
                w.push_copied(s.packets())?;
                stats.packets_copied += s.len() as u64;
                stats.bytes_copied += s.byte_size();
            }
            w.finish().map_err(ExecError::from)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, ExecOptions};
    use v2v_frame::{marker, Frame, FrameType};
    use v2v_plan::{lower_spec, optimize, OptimizerConfig};
    use v2v_spec::builder::{blur, grid4};
    use v2v_spec::{OutputSettings, RenderExpr, SpecBuilder};
    use v2v_time::r;

    fn marked_stream(n: usize, gop: u32) -> VideoStream {
        let ty = FrameType::gray8(64, 32);
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            marker::embed(&mut f, i as u32);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    fn output() -> OutputSettings {
        OutputSettings {
            frame_ty: FrameType::gray8(64, 32),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        }
    }

    /// Naive and optimized execution must agree frame-for-frame at q=0.
    fn assert_equivalent(spec: &v2v_spec::Spec, catalog: &Catalog) -> (ExecStats, ExecStats) {
        let logical = lower_spec(spec).unwrap();
        let (naive_out, naive_stats, _) = execute_naive(&logical, catalog).unwrap();
        let phys = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let (opt_out, opt_stats, _) = execute(&phys, catalog, &ExecOptions::default()).unwrap();
        assert_eq!(naive_out.len(), opt_out.len());
        let (fa, _) = naive_out.decode_range(0, naive_out.len()).unwrap();
        let (fb, _) = opt_out.decode_range(0, opt_out.len()).unwrap();
        for (i, (a, b)) in fa.iter().zip(&fb).enumerate() {
            // Markers must agree exactly; pixels must agree exactly at
            // q=0 when both paths render, and markers survive copies.
            assert_eq!(
                marker::read(a),
                marker::read(b),
                "frame {i} shows different source frames"
            );
            assert_eq!(a, b, "frame {i} raster differs");
        }
        (naive_stats, opt_stats)
    }

    #[test]
    fn filtered_clip_naive_does_double_work() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(90, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(2, 1), |e| blur(e, 0.8))
            .build();
        let (naive, opt) = assert_equivalent(&spec, &catalog);
        // Naive: clip encode + filter encode = 2 encodes per frame (the
        // final concat splices by copy); optimized renders once.
        assert_eq!(naive.frames_encoded, 120);
        assert_eq!(opt.frames_encoded, 60);
        assert!(naive.frames_decoded > opt.frames_decoded);
    }

    #[test]
    fn grid_equivalence() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_with(r(1, 1), |_| {
                grid4(
                    RenderExpr::video("a"),
                    RenderExpr::video_shifted("a", r(1, 1)),
                    RenderExpr::video_shifted("a", r(2, 1)),
                    RenderExpr::video_shifted("a", r(3, 1)),
                )
            })
            .build();
        // Markers land in the top-left cell (input 0); grid scales the
        // cell, so markers are unreadable — compare raster only.
        let logical = lower_spec(&spec).unwrap();
        let (naive_out, _, _) = execute_naive(&logical, &catalog).unwrap();
        let phys = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let (opt_out, _, _) = execute(&phys, &catalog, &ExecOptions::default()).unwrap();
        let (fa, _) = naive_out.decode_range(0, naive_out.len()).unwrap();
        let (fb, _) = opt_out.decode_range(0, opt_out.len()).unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn pure_clip_naive_still_reencodes() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .build();
        let (naive, opt) = assert_equivalent(&spec, &catalog);
        assert_eq!(naive.frames_encoded, 60, "the clip still re-encodes");
        assert_eq!(opt.frames_encoded, 0, "optimized is a pure copy");
        assert_eq!(opt.packets_copied, 60);
    }

    #[test]
    fn splice_equivalence() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(150, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(0, 1), r(1, 1))
            .append_clip("a", r(2, 1), r(1, 1))
            .append_clip("a", r(4, 1), r(1, 1))
            .build();
        let (naive, opt) = assert_equivalent(&spec, &catalog);
        assert_eq!(naive.frames_encoded, 90, "every clip re-encodes");
        assert_eq!(opt.frames_encoded, 0);
    }
}
