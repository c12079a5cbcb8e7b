//! The heuristic rewrite optimizer (paper §III-D).

use crate::logical::{LogicalNode, LogicalPlan, LogicalSegment};
use crate::meta::PlanContext;
use crate::physical::{PhysicalPlan, PlanStats, SegPlan, Segment};
use crate::program::{FrameProgram, InputClip, ProgArg};
use crate::trace::PlanTrace;
use crate::PlanError;
use v2v_codec::CodecParams;
use v2v_spec::TransformOp;

/// Which rewrite opportunities the optimizer may take.
///
/// Clip-into-filter fusion and operator merging are structural to
/// physicalization (turning them off means running the unoptimized
/// logical plan — see the naive executor); the copy-class optimizations
/// and sharding are toggleable for ablation.
#[derive(Clone, Copy, Debug)]
pub struct OptimizerConfig {
    /// Allow keyframe-aligned pure clips to become stream copies.
    pub stream_copy: bool,
    /// Allow unaligned pure clips to be smart-cut (head re-encode +
    /// copied remainder). The paper's smart cut also re-encodes the
    /// final partial GOP, because H.264 B-frames can reference future
    /// frames; SVC has no B-frames, so the tail is copied.
    pub smart_cut: bool,
    /// Split long render segments into shards for parallel execution and
    /// per-shard reuse: one shard per source GOP of the first input, or
    /// one per two output GOPs when that input has no source grid to cut
    /// on.
    pub shard: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            stream_copy: true,
            smart_cut: true,
            shard: true,
        }
    }
}

impl OptimizerConfig {
    /// Everything off: physicalization (fusion + merging) only.
    pub fn fusion_only() -> OptimizerConfig {
        OptimizerConfig {
            stream_copy: false,
            smart_cut: false,
            shard: false,
        }
    }
}

/// Optimizes a logical plan into a physical plan, discarding the
/// rewrite trace. See [`optimize_traced`] for the traced variant.
pub fn optimize(
    plan: &LogicalPlan,
    ctx: &PlanContext,
    config: &OptimizerConfig,
) -> Result<PhysicalPlan, PlanError> {
    optimize_traced(plan, ctx, config).map(|(phys, _)| phys)
}

/// Optimizes a logical plan into a physical plan, recording one
/// [`RewriteEvent`](crate::trace::RewriteEvent) per rewrite application
/// (rule name, operator site, before/after node counts) into the
/// returned [`PlanTrace`].
pub fn optimize_traced(
    plan: &LogicalPlan,
    ctx: &PlanContext,
    config: &OptimizerConfig,
) -> Result<(PhysicalPlan, PlanTrace), PlanError> {
    let mut stats = PlanStats::default();
    let mut trace = PlanTrace {
        logical_nodes: plan.op_count() as u64,
        ..Default::default()
    };

    // Pass 1: flatten nested concats into the top-level segment list.
    let mut segments = Vec::new();
    for seg in &plan.segments {
        flatten(seg, &mut segments, &mut trace);
    }
    segments.sort_by_key(|s| s.out_start);

    // Pass 2: simplify each node (merge filters, elide identities).
    for seg in &mut segments {
        let out_start = seg.out_start;
        seg.node = simplify(
            std::mem::replace(&mut seg.node, LogicalNode::Concat { segments: vec![] }),
            out_start,
            &mut stats,
            &mut trace,
        );
    }

    // Resolve output stream parameters: pure splice plans keep the
    // (common) source parameters so copies can serve the whole output.
    let out_params = resolve_out_params(plan, &segments, ctx);

    // Pass 3: physicalize with stream-copy / smart-cut decisions.
    let mut phys: Vec<Segment> = Vec::new();
    for seg in &segments {
        physicalize(
            seg, plan, ctx, config, out_params, &mut phys, &mut stats, &mut trace,
        )?;
    }

    // Pass 4: temporal sharding of long renders.
    if config.shard {
        phys = shard(
            phys,
            plan,
            ctx,
            out_params.gop_size as u64,
            &mut stats,
            &mut trace,
        );
    }

    for s in &phys {
        match &s.plan {
            SegPlan::Render { .. } => {
                stats.frames_rendered += s.count;
            }
            SegPlan::StreamCopy { .. } => {
                stats.frames_copied += s.count;
            }
        }
    }
    stats.render_segments = phys.iter().filter(|s| !s.plan.is_copy()).count() as u64;
    stats.copy_segments = phys.iter().filter(|s| s.plan.is_copy()).count() as u64;

    trace.physical_segments = phys.len() as u64;
    let out = PhysicalPlan {
        segments: phys,
        out_params,
        frame_dur: plan.frame_dur,
        domain_start: plan.domain_start,
        n_frames: plan.n_frames,
        stats,
    };
    debug_assert_eq!(out.validate(), Ok(()));
    Ok((out, trace))
}

fn flatten(seg: &LogicalSegment, out: &mut Vec<LogicalSegment>, trace: &mut PlanTrace) {
    match &seg.node {
        LogicalNode::Concat { segments } => {
            trace.record(
                "concat_flatten",
                seg.out_start,
                format!("{} nested segment(s) hoisted", segments.len()),
                1 + segments.len() as u64,
                segments.len() as u64,
            );
            for s in segments {
                flatten(s, out, trace);
            }
        }
        _ => out.push(seg.clone()),
    }
}

/// Bottom-up simplification: operator merging and identity elision.
fn simplify(
    node: LogicalNode,
    out_start: u64,
    stats: &mut PlanStats,
    trace: &mut PlanTrace,
) -> LogicalNode {
    match node {
        LogicalNode::Clip { .. } => node,
        LogicalNode::Concat { segments } => LogicalNode::Concat {
            segments: segments
                .into_iter()
                .map(|s| {
                    let s_start = s.out_start;
                    LogicalSegment {
                        node: simplify(s.node, s_start, stats, trace),
                        ..s
                    }
                })
                .collect(),
        },
        LogicalNode::Filter { program, inputs } => {
            let inputs: Vec<LogicalNode> = inputs
                .into_iter()
                .map(|n| simplify(n, out_start, stats, trace))
                .collect();
            // Identity elision.
            let program = elide_identity_ops(program, out_start, stats, trace);
            if program.is_identity_of_input() && inputs.len() == 1 {
                stats.elided_identities += 1;
                trace.record("elide_identity", out_start, "identity filter removed", 2, 1);
                return inputs.into_iter().next().expect("one input");
            }
            // Operator merging: inline any input that is itself a filter.
            let (program, inputs) = merge_filter_inputs(program, inputs, out_start, stats, trace);
            LogicalNode::Filter { program, inputs }
        }
    }
}

/// Removes `Identity` applications inside a program.
fn elide_identity_ops(
    p: FrameProgram,
    out_start: u64,
    stats: &mut PlanStats,
    trace: &mut PlanTrace,
) -> FrameProgram {
    match p {
        FrameProgram::Input(_) => p,
        FrameProgram::Op { op, args } => {
            let args: Vec<ProgArg> = args
                .into_iter()
                .map(|a| match a {
                    ProgArg::Frame(f) => {
                        ProgArg::Frame(elide_identity_ops(f, out_start, stats, trace))
                    }
                    d => d,
                })
                .collect();
            if op == TransformOp::Identity {
                if let Some(ProgArg::Frame(f)) = args.into_iter().next() {
                    stats.elided_identities += 1;
                    trace.record(
                        "elide_identity",
                        out_start,
                        "identity op removed from program",
                        2,
                        1,
                    );
                    return f;
                }
                unreachable!("identity always has one frame arg");
            }
            FrameProgram::Op { op, args }
        }
    }
}

/// Splices filter inputs that are themselves filters into the parent
/// program (operator merging — one fused pass instead of an encode/decode
/// pair per call).
fn merge_filter_inputs(
    mut program: FrameProgram,
    mut inputs: Vec<LogicalNode>,
    out_start: u64,
    stats: &mut PlanStats,
    trace: &mut PlanTrace,
) -> (FrameProgram, Vec<LogicalNode>) {
    loop {
        let Some(j) = inputs
            .iter()
            .position(|n| matches!(n, LogicalNode::Filter { .. }))
        else {
            return (program, inputs);
        };
        let LogicalNode::Filter {
            program: inner,
            inputs: inner_inputs,
        } = inputs.remove(j)
        else {
            unreachable!("position() found a filter");
        };
        let inner_len = inner_inputs.len();
        let inner_desc = inner.describe();
        // New input list: [..j) ++ inner ++ [j..).
        let tail: Vec<LogicalNode> = inputs.split_off(j);
        inputs.extend(inner_inputs);
        inputs.extend(tail);
        // Rewire: slot j becomes the inner program (its slots shifted to
        // start at j); slots after j shift by inner_len - 1.
        let replacement = inner.shift_inputs(j);
        program = program.substitute(j, &replacement, &|n| {
            if n > j {
                n + inner_len - 1
            } else {
                n
            }
        });
        stats.merged_filters += 1;
        trace.record(
            "merge_filters",
            out_start,
            format!("inlined {inner_desc} into slot {j}"),
            2,
            1,
        );
    }
}

/// Output parameters: a plan whose every segment is a pure clip of
/// sources sharing identical codec parameters (and the output frame rate)
/// inherits those parameters; anything else re-encodes at the spec's
/// output settings.
fn resolve_out_params(
    plan: &LogicalPlan,
    segments: &[LogicalSegment],
    ctx: &PlanContext,
) -> CodecParams {
    let spec_params = crate::logical::codec_params(&plan.output);
    let mut common: Option<CodecParams> = None;
    for seg in segments {
        let LogicalNode::Clip { video, time } = &seg.node else {
            return spec_params;
        };
        if !time.is_shift() {
            return spec_params; // retimed clips always re-encode
        }
        let Some(source) = ctx.source(video) else {
            return spec_params;
        };
        if source.frame_dur() != plan.frame_dur {
            return spec_params;
        }
        match common {
            None => common = Some(*source.params()),
            Some(p) if p.compatible_with(source.params()) => {}
            Some(_) => return spec_params,
        }
    }
    common.unwrap_or(spec_params)
}

#[allow(clippy::too_many_arguments)]
fn physicalize(
    seg: &LogicalSegment,
    plan: &LogicalPlan,
    ctx: &PlanContext,
    config: &OptimizerConfig,
    out_params: CodecParams,
    out: &mut Vec<Segment>,
    stats: &mut PlanStats,
    trace: &mut PlanTrace,
) -> Result<(), PlanError> {
    match &seg.node {
        LogicalNode::Concat { .. } => unreachable!("concats flattened in pass 1"),
        LogicalNode::Filter { program, inputs } => {
            let mut clips = Vec::with_capacity(inputs.len());
            for i in inputs {
                match i {
                    LogicalNode::Clip { video, time } => {
                        if ctx.source(video).is_none() {
                            return Err(PlanError::UnknownVideo(video.clone()));
                        }
                        clips.push(InputClip::new(video.clone(), *time));
                    }
                    other => unreachable!("merging left a non-clip input: {other:?}"),
                }
            }
            out.push(Segment {
                out_start: seg.out_start,
                count: seg.count,
                plan: SegPlan::Render {
                    program: program.clone(),
                    inputs: clips,
                },
            });
            Ok(())
        }
        LogicalNode::Clip { video, time } => {
            let source = ctx
                .source(video)
                .ok_or_else(|| PlanError::UnknownVideo(video.clone()))?;
            let clip = InputClip::new(video.clone(), *time);
            let render = |from: u64, n: u64| Segment {
                out_start: from,
                count: n,
                plan: SegPlan::Render {
                    program: FrameProgram::Input(0),
                    inputs: vec![clip.clone()],
                },
            };
            // Copy legality: identical params, same frame rate, shift-only
            // time map landing on the source grid.
            let copyable = config.stream_copy
                && source.params().compatible_with(&out_params)
                && source.frame_dur() == plan.frame_dur
                && time.is_shift();
            if !copyable {
                out.push(render(seg.out_start, seg.count));
                return Ok(());
            }
            let t0 = plan.instant_of(seg.out_start);
            let Some(src_from) = source.range().index_of(time.apply(t0)) else {
                return Err(PlanError::MissingFrame {
                    video: video.clone(),
                    at: time.apply(t0),
                });
            };
            let src_to = src_from + seg.count;
            if src_to > source.len() as u64 {
                return Err(PlanError::MissingFrame {
                    video: video.clone(),
                    at: time.apply(plan.instant_of(seg.out_start + seg.count - 1)),
                });
            }
            if source.keyframe_at_or_before(src_from as usize) == Some(src_from as usize) {
                trace.record(
                    "stream_copy",
                    seg.out_start,
                    format!("{video} #{src_from}..#{src_to} keyframe-aligned"),
                    1,
                    1,
                );
                out.push(Segment {
                    out_start: seg.out_start,
                    count: seg.count,
                    plan: SegPlan::StreamCopy {
                        video: video.clone(),
                        src_from,
                        src_to,
                    },
                });
                return Ok(());
            }
            // Smart cut: re-encode up to the first interior keyframe,
            // stream-copy the rest. If the clipped range contains no
            // keyframe (the paper's Q1-on-ToS case), fall back to a full
            // re-encode.
            if config.smart_cut {
                let interior = source
                    .next_keyframe_at_or_after(src_from as usize + 1)
                    .map(|kf| kf as u64)
                    .filter(|&kf| kf < src_to);
                if let Some(kf) = interior {
                    let head = kf - src_from;
                    out.push(render(seg.out_start, head));
                    out.push(Segment {
                        out_start: seg.out_start + head,
                        count: src_to - kf,
                        plan: SegPlan::StreamCopy {
                            video: video.clone(),
                            src_from: kf,
                            src_to,
                        },
                    });
                    stats.smart_cuts += 1;
                    trace.record(
                        "smart_cut",
                        seg.out_start,
                        format!(
                            "{video} #{src_from}..#{src_to}: re-encode {head}-frame head, \
                             copy #{kf}..#{src_to}"
                        ),
                        1,
                        2,
                    );
                    return Ok(());
                }
            }
            out.push(render(seg.out_start, seg.count));
            Ok(())
        }
    }
}

/// Minimum render-segment length (frames) worth sharding; the
/// effective floor is at least two output GOPs.
const SHARD_MIN_FRAMES: u64 = 64;

/// Shard length, in output GOPs, for renders whose first input gives no
/// source keyframes to cut on.
const FALLBACK_SHARD_GOPS: u64 = 2;

/// Splits long render segments into shards the engine can encode in
/// parallel, cache and reuse one by one, and splices the results.
fn shard(
    segments: Vec<Segment>,
    plan: &LogicalPlan,
    ctx: &PlanContext,
    gop: u64,
    stats: &mut PlanStats,
    trace: &mut PlanTrace,
) -> Vec<Segment> {
    let gop = gop.max(1);
    let chunk = gop * FALLBACK_SHARD_GOPS;
    let mut out = Vec::with_capacity(segments.len());
    for seg in segments {
        match &seg.plan {
            SegPlan::StreamCopy { .. } => out.push(seg),
            SegPlan::Render { program, inputs } => {
                if seg.count < SHARD_MIN_FRAMES.max(2 * gop) {
                    out.push(seg);
                    continue;
                }
                // Cut at the first input's source keyframes, so each
                // shard's decoder enters at a keyframe and two windows
                // over the same source GOPs carve the same shards (same
                // segment keys) wherever each window starts. Non-shift or
                // grid-mismatched inputs fall back to uniform chunking.
                let cuts = keyframe_cuts(&seg, inputs, plan, ctx, gop)
                    .unwrap_or_else(|| (1..seg.count / chunk).map(|k| k * chunk).collect());
                if cuts.is_empty() {
                    out.push(seg);
                    continue;
                }
                trace.record(
                    "shard",
                    seg.out_start,
                    format!(
                        "{}-frame render split into {} shard(s)",
                        seg.count,
                        cuts.len() + 1
                    ),
                    1,
                    cuts.len() as u64 + 1,
                );
                let mut prev = 0u64;
                for cut in cuts.iter().copied().chain([seg.count]) {
                    out.push(Segment {
                        out_start: seg.out_start + prev,
                        count: cut - prev,
                        plan: SegPlan::Render {
                            program: program.clone(),
                            inputs: inputs.clone(),
                        },
                    });
                    if prev > 0 {
                        stats.shards += 1;
                    }
                    prev = cut;
                }
            }
        }
    }
    out
}

/// Shard starts inside the segment, as output-frame offsets: the first
/// input's source keyframes, each at least `gop` output frames past the
/// previous one picked. Picking runs from the source's first keyframe, so
/// the set is a property of the source alone; with source GOPs of at
/// least an output GOP every interior keyframe is a cut, and shorter
/// source GOPs are grouped instead of becoming sub-GOP shards. `None`
/// when the input's grid does not line up with the output (fall back to
/// uniform chunking).
fn keyframe_cuts(
    seg: &Segment,
    inputs: &[InputClip],
    plan: &LogicalPlan,
    ctx: &PlanContext,
    gop: u64,
) -> Option<Vec<u64>> {
    let clip = inputs.first()?;
    if !clip.time.is_shift() {
        return None;
    }
    let source = ctx.source(&clip.video)?;
    if source.frame_dur() != plan.frame_dur {
        return None;
    }
    let t0 = plan.instant_of(seg.out_start);
    let src_from = source.index_of(clip.time.apply(t0))? as u64;
    let src_to = src_from + seg.count;
    let mut cuts = Vec::new();
    let mut last: Option<u64> = None;
    for k in source.keyframe_indices().iter().map(|&k| k as u64) {
        if k >= src_to {
            break;
        }
        if last.map_or(true, |l| k - l >= gop) {
            last = Some(k);
            if k > src_from {
                cuts.push(k - src_from);
            }
        }
    }
    Some(cuts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::lower_spec;
    use crate::meta::tests::source;
    use v2v_frame::FrameType;
    use v2v_spec::builder::{blur, grid4, zoom};
    use v2v_spec::{OutputSettings, RenderExpr, SpecBuilder};
    use v2v_time::{r, AffineTimeMap, Rational};

    fn output() -> OutputSettings {
        OutputSettings {
            frame_ty: FrameType::yuv420p(64, 64),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 2,
        }
    }

    /// Source `a` matching the output params (copy-compatible) with a
    /// keyframe every `gop` frames.
    fn ctx(count: u64, gop: u64) -> PlanContext {
        let params = CodecParams::new(FrameType::yuv420p(64, 64), 30, 2);
        PlanContext::new().with_source("a", source(params, count, gop, 0))
    }

    #[test]
    fn keyframe_aligned_clip_becomes_pure_copy() {
        // Clip starting at source frame 30 (a keyframe with gop 30).
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        let phys = optimize(&plan, &ctx(300, 30), &OptimizerConfig::default()).unwrap();
        assert_eq!(phys.segments.len(), 1);
        assert!(matches!(
            phys.segments[0].plan,
            SegPlan::StreamCopy {
                src_from: 30,
                src_to: 90,
                ..
            }
        ));
        assert_eq!(phys.stats.frames_copied, 60);
        assert_eq!(phys.stats.smart_cuts, 0);
    }

    #[test]
    fn unaligned_clip_smart_cuts() {
        // Clip starting at frame 15, mid-GOP; first keyframe inside is 30.
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 2), r(2, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        let phys = optimize(&plan, &ctx(300, 30), &OptimizerConfig::default()).unwrap();
        assert_eq!(phys.stats.smart_cuts, 1);
        assert_eq!(phys.segments.len(), 2);
        assert!(matches!(phys.segments[0].plan, SegPlan::Render { .. }));
        assert_eq!(phys.segments[0].count, 15, "head re-encodes to keyframe 30");
        assert!(matches!(
            phys.segments[1].plan,
            SegPlan::StreamCopy {
                src_from: 30,
                src_to: 75,
                ..
            }
        ));
    }

    #[test]
    fn no_interior_keyframe_means_no_smart_cut() {
        // The paper's Q1-on-ToS observation: sparse keyframes, clip fits
        // inside one GOP → optimized == full re-encode.
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 2), r(2, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        // Keyframes every 240 frames: none inside [15, 75).
        let phys = optimize(&plan, &ctx(300, 240), &OptimizerConfig::default()).unwrap();
        assert_eq!(phys.stats.smart_cuts, 0);
        assert_eq!(phys.stats.frames_copied, 0);
    }

    #[test]
    fn filter_chain_merges_into_one_render() {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(1, 1), |e| blur(zoom(e, 2.0), 1.0))
            .build();
        let plan = lower_spec(&spec).unwrap();
        let phys = optimize(&plan, &ctx(300, 30), &OptimizerConfig::default()).unwrap();
        assert!(phys.stats.merged_filters >= 1);
        let renders: Vec<_> = phys.segments.iter().filter(|s| !s.plan.is_copy()).collect();
        assert!(!renders.is_empty());
        for s in renders {
            if let SegPlan::Render { program, inputs } = &s.plan {
                assert_eq!(program.op_count(), 2, "both ops fused in one program");
                assert_eq!(inputs.len(), 1);
            }
        }
    }

    #[test]
    fn grid_of_filters_merges_all() {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_with(r(1, 1), |_| {
                grid4(
                    RenderExpr::video("a"),
                    blur(RenderExpr::video_shifted("a", r(2, 1)), 1.0),
                    zoom(RenderExpr::video_shifted("a", r(4, 1)), 2.0),
                    RenderExpr::video_shifted("a", r(6, 1)),
                )
            })
            .build();
        let plan = lower_spec(&spec).unwrap();
        let phys = optimize(&plan, &ctx(300, 30), &OptimizerConfig::fusion_only()).unwrap();
        assert_eq!(phys.segments.len(), 1);
        if let SegPlan::Render { program, inputs } = &phys.segments[0].plan {
            assert_eq!(inputs.len(), 4);
            assert_eq!(program.op_count(), 3); // grid + blur + zoom
            assert_eq!(program.input_count(), 4);
        } else {
            panic!("expected render");
        }
    }

    #[test]
    fn pure_clip_inherits_source_resolution() {
        // A pure clip keeps the source's stream parameters so the copy
        // class applies even when they differ from the spec's output
        // settings (the paper's Q6-on-KABR outputs are source-bitrate
        // sized for exactly this reason).
        let params = CodecParams::new(FrameType::yuv420p(128, 128), 30, 2);
        let ctx = PlanContext::new().with_source("a", source(params, 300, 30, 0));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        let phys = optimize(&plan, &ctx, &OptimizerConfig::default()).unwrap();
        assert_eq!(phys.stats.frames_copied, 60);
        assert_eq!(phys.out_params.frame_ty, FrameType::yuv420p(128, 128));
    }

    #[test]
    fn mixed_source_params_force_reencode() {
        // Splicing two sources with different codec params: the output
        // must re-encode at the spec's settings and nothing can copy.
        let mk = |w: u32| {
            source(
                CodecParams::new(FrameType::yuv420p(w, w), 30, 2),
                300,
                30,
                0,
            )
        };
        let ctx = PlanContext::new()
            .with_source("a", mk(128))
            .with_source("b", mk(96));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .video("b", "b.svc")
            .append_clip("a", r(1, 1), r(1, 1))
            .append_clip("b", r(1, 1), r(1, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        let phys = optimize(&plan, &ctx, &OptimizerConfig::default()).unwrap();
        assert_eq!(phys.stats.frames_copied, 0);
        assert_eq!(phys.out_params.frame_ty, FrameType::yuv420p(64, 64));
    }

    #[test]
    fn pure_splice_inherits_source_params() {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(0, 1), r(1, 1))
            .append_clip("a", r(5, 1), r(1, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        let c = ctx(600, 30);
        let phys = optimize(&plan, &c, &OptimizerConfig::default()).unwrap();
        assert_eq!(phys.out_params, *c.source("a").unwrap().params());
    }

    #[test]
    fn stream_copy_disabled_renders_everything() {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        let cfg = OptimizerConfig {
            stream_copy: false,
            ..Default::default()
        };
        let phys = optimize(&plan, &ctx(300, 30), &cfg).unwrap();
        assert_eq!(phys.stats.frames_copied, 0);
        assert!(phys.stats.frames_rendered == 60);
    }

    #[test]
    fn sharding_splits_long_renders() {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(8, 1), |e| blur(e, 1.0))
            .build();
        let plan = lower_spec(&spec).unwrap();
        let phys = optimize(&plan, &ctx(300, 30), &OptimizerConfig::default()).unwrap();
        assert!(
            phys.segments.len() > 1,
            "240 frames shard at 60-frame chunks"
        );
        assert!(phys.stats.shards >= 3);
        assert_eq!(phys.validate(), Ok(()));
        // All shards share the program.
        let counts: u64 = phys.segments.iter().map(|s| s.count).sum();
        assert_eq!(counts, 240);
    }

    /// Render-segment keys of a `secs`-second blur of `a` from `start`.
    fn blur_window_keys(ctx: &PlanContext, start: Rational, secs: i64) -> Vec<(u64, u64)> {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", start, r(secs, 1), |e| blur(e, 1.0))
            .build();
        let plan = lower_spec(&spec).unwrap();
        let phys = optimize(&plan, ctx, &OptimizerConfig::default()).unwrap();
        let mut digests = crate::SourceDigests::default();
        digests
            .videos
            .insert("a".into(), crate::VideoDigest::of(ctx.source("a").unwrap()));
        let keys = crate::segment_keys(&phys, &digests);
        phys.segments
            .iter()
            .zip(keys)
            .map(|(s, k)| (s.count, k.expect("blur segments are keyed")))
            .collect()
    }

    #[test]
    fn sliding_windows_share_their_full_gop_shards() {
        // 1 s source GOPs; the 90-frame window is above the 64-frame
        // floor, so every source GOP inside it is a shard of its own.
        let c = ctx(300, 30);
        let a = blur_window_keys(&c, r(1, 1), 3);
        let b = blur_window_keys(&c, r(2, 1), 3);
        assert_eq!(a.iter().map(|s| s.0).collect::<Vec<_>>(), [30, 30, 30]);
        assert_eq!(a[1..], b[..2], "one GOP later, two shards are shared");
        assert_ne!(a[0].1, b[2].1);

        // Offset by 5 frames: partial head and tail GOPs, and the two
        // full GOPs between them keep their keys.
        let c5 = blur_window_keys(&c, r(35, 30), 3);
        let d5 = blur_window_keys(&c, r(40, 30), 3);
        assert_eq!(c5.iter().map(|s| s.0).collect::<Vec<_>>(), [25, 30, 30, 5]);
        assert_eq!(d5.iter().map(|s| s.0).collect::<Vec<_>>(), [20, 30, 30, 10]);
        assert_eq!(c5[1..3], d5[1..3]);
        assert_eq!(
            c5[1..3],
            a[1..],
            "full-GOP shards match the aligned window's"
        );
    }

    #[test]
    fn short_source_gops_group_into_output_gop_shards() {
        // 10-frame source GOPs under 30-frame output GOPs: shards start
        // at the source keyframes picked every 30 frames from the
        // source's start, not at every keyframe.
        let c = ctx(300, 10);
        let shards = blur_window_keys(&c, r(1, 2), 4);
        assert_eq!(
            shards.iter().map(|s| s.0).collect::<Vec<_>>(),
            [15, 30, 30, 30, 15]
        );
    }

    #[test]
    fn uniform_fallback_chunks_two_output_gops() {
        // A retimed input has no source keyframes to cut on: renders
        // below four output GOPs stay whole, longer ones cut every 60.
        let retimed = |secs: i64| {
            let spec = SpecBuilder::new(output())
                .video("a", "a.svc")
                .append_with(r(secs, 1), |out_start| {
                    blur(
                        RenderExpr::FrameRef {
                            video: "a".into(),
                            time: AffineTimeMap::new(r(2, 1), -out_start * r(2, 1)),
                        },
                        1.0,
                    )
                })
                .build();
            let plan = lower_spec(&spec).unwrap();
            let phys = optimize(&plan, &ctx(600, 30), &OptimizerConfig::default()).unwrap();
            phys.segments.iter().map(|s| s.count).collect::<Vec<_>>()
        };
        assert_eq!(retimed(3), [90]);
        assert_eq!(retimed(5), [60, 90]);
    }

    #[test]
    fn unknown_video_fails() {
        let spec = SpecBuilder::new(output())
            .video("ghost", "g.svc")
            .append_clip("ghost", r(0, 1), r(1, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        assert!(matches!(
            optimize(&plan, &PlanContext::new(), &OptimizerConfig::default()),
            Err(PlanError::UnknownVideo(_))
        ));
    }

    #[test]
    fn clip_past_source_end_fails() {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(9, 1), r(2, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        assert!(matches!(
            optimize(&plan, &ctx(300, 30), &OptimizerConfig::default()),
            Err(PlanError::MissingFrame { .. })
        ));
    }
}
