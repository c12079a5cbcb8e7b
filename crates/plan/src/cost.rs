//! The plan's one price.
//!
//! The V2V optimizer is heuristic (paper §III-D): no plan is chosen by
//! cost. [`segment_cost`] orders work instead — the scheduler dispatches
//! segments longest-first by it and a coordinator derives a remote
//! dispatch deadline from it — and `decode_cost`, its decode term,
//! picks the storage variant a render reads
//! ([`crate::variant::select_variants`]). The price mirrors the
//! execution engine's actual cost structure:
//!
//! * rendering a frame costs one decode per input + the program's
//!   per-frame ops + one encode, all scaled by pixel count;
//! * decoding a read also decodes the GOP roll-in from the keyframe at
//!   or before it, and pays per compressed byte;
//! * a stream copy costs a per-packet constant (refcount bump + index
//!   entry) — orders of magnitude below raster work.
//!
//! Units are arbitrary; one unit ≈ one 8-bit sample touched once.

use crate::meta::PlanContext;
use crate::physical::{PhysicalPlan, SegPlan, Segment};
use crate::variant::clip_read_range;
use v2v_container::VideoStream;
use v2v_frame::FrameType;

/// Cost per pixel to decode one frame.
const DECODE_PER_PIXEL: f64 = 1.0;
/// Cost per compressed byte decoded (discriminates storage variants
/// whose pixel geometry and roll-in tie).
const DECODE_PER_BYTE: f64 = 0.1;
/// Cost per pixel per program operator application.
const OP_PER_PIXEL: f64 = 2.0;
/// Cost per pixel to encode one frame.
const ENCODE_PER_PIXEL: f64 = 1.5;
/// Cost per copied packet.
const COPY_PER_PACKET: f64 = 50.0;

/// The price of one segment of `plan`. A render pays each input's
/// decode price over the source frames it reads (priced at the
/// original, over the sources `ctx` knows), then transform and encode
/// at the output geometry. An input whose source `ctx` does not know
/// is priced at the output geometry with no roll-in and no byte term;
/// one whose read falls off its source's frame grid, as `count` frames
/// with no roll-in.
pub fn segment_cost(plan: &PhysicalPlan, seg: &Segment, ctx: &PlanContext) -> f64 {
    let n = seg.count as f64;
    let (program, inputs) = match &seg.plan {
        SegPlan::StreamCopy { .. } => return n * COPY_PER_PACKET,
        SegPlan::Render { program, inputs } => (program, inputs),
    };
    let out_px = pixels(plan.out_params.frame_ty);
    let decode: f64 = inputs
        .iter()
        .map(|clip| {
            let Some(stream) = ctx.source(&clip.video) else {
                return n * out_px * DECODE_PER_PIXEL;
            };
            let (lo_t, hi_t) = clip_read_range(plan, clip, seg.out_start, seg.count);
            let grid = stream.range();
            match (grid.index_of(lo_t), grid.index_of(hi_t)) {
                (Some(lo), Some(hi)) => decode_cost(stream, stream.len() as u64, lo, hi),
                _ => n * pixels(stream.params().frame_ty) * DECODE_PER_PIXEL,
            }
        })
        .sum();
    let transform = n * out_px * program.op_count().max(1) as f64 * OP_PER_PIXEL;
    let encode = n * out_px * ENCODE_PER_PIXEL;
    decode + transform + encode
}

/// The price of decoding frames `[lo, hi]` of `stream`, whose first
/// `covered` frames are the ones it serves: frames decoded (roll-in to
/// the keyframe at or before `lo`, then the span) times per-frame pixel
/// and byte terms.
pub(crate) fn decode_cost(stream: &VideoStream, covered: u64, lo: u64, hi: u64) -> f64 {
    let frames = (hi - lo + 1 + rollin(stream, lo)) as f64;
    let px = pixels(stream.params().frame_ty);
    let bytes_per_frame = stream.byte_size() as f64 / covered.max(1) as f64;
    frames * (px * DECODE_PER_PIXEL + bytes_per_frame * DECODE_PER_BYTE)
}

fn pixels(ty: FrameType) -> f64 {
    f64::from(ty.width) * f64::from(ty.height)
}

/// Frames a decoder entering `stream` at frame `idx` decodes before it:
/// the roll-in from the keyframe at or before `idx`.
pub(crate) fn rollin(stream: &VideoStream, idx: u64) -> u64 {
    idx - stream.keyframe_at_or_before(idx as usize).unwrap_or(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::lower_spec;
    use crate::meta::tests::source;
    use crate::optimizer::{optimize, OptimizerConfig};
    use v2v_codec::CodecParams;
    use v2v_spec::builder::{blur, grid4};
    use v2v_spec::{OutputSettings, RenderExpr, SpecBuilder};
    use v2v_time::{r, Rational};

    fn output() -> OutputSettings {
        OutputSettings {
            frame_ty: FrameType::yuv420p(64, 64),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 2,
        }
    }

    /// A 300-frame 64×64 source `a` with a keyframe every `gop` frames
    /// and `payload` bytes per packet.
    fn ctx(gop: u64, payload: usize) -> PlanContext {
        let params = CodecParams::new(FrameType::yuv420p(64, 64), 30, 2);
        PlanContext::new().with_source("a", source(params, 300, gop, payload))
    }

    fn setup(gop: u64) -> (crate::logical::LogicalPlan, PlanContext) {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 2), Rational::from_int(4))
            .append_filtered("a", r(6, 1), Rational::from_int(2), |e| blur(e, 1.0))
            .build();
        (lower_spec(&spec).unwrap(), ctx(gop, 0))
    }

    /// Summed price of the copy segments and of the render segments.
    fn prices(plan: &PhysicalPlan, ctx: &PlanContext) -> (f64, f64) {
        let (mut copy, mut render) = (0.0, 0.0);
        for seg in &plan.segments {
            let c = segment_cost(plan, seg, ctx);
            if seg.plan.is_copy() {
                copy += c;
            } else {
                render += c;
            }
        }
        (copy, render)
    }

    #[test]
    fn optimization_reduces_estimated_cost() {
        let (logical, ctx) = setup(30);
        let full = optimize(&logical, &ctx, &OptimizerConfig::default()).unwrap();
        let none = optimize(&logical, &ctx, &OptimizerConfig::fusion_only()).unwrap();
        let (full_copy, full_render) = prices(&full, &ctx);
        let (none_copy, none_render) = prices(&none, &ctx);
        assert!(
            full_copy + full_render < none_copy + none_render,
            "optimized {full_copy} + {full_render} must beat fusion-only {none_render}"
        );
        assert!(full_copy > 0.0);
        assert_eq!(none_copy, 0.0);
    }

    #[test]
    fn copies_are_orders_of_magnitude_cheaper() {
        let (logical, ctx) = setup(30);
        let plan = optimize(&logical, &ctx, &OptimizerConfig::default()).unwrap();
        let (copy, render) = prices(&plan, &ctx);
        // Copy units per copied frame vs render units per rendered frame.
        let per_copy = copy / plan.stats.frames_copied.max(1) as f64;
        let per_render = render / plan.stats.frames_rendered.max(1) as f64;
        assert!(per_render > 50.0 * per_copy, "{per_render} vs {per_copy}");
    }

    #[test]
    fn rollin_penalizes_mid_gop_entry() {
        // Same plan; sparser keyframes → more roll-in decode cost.
        let (logical, dense_ctx) = setup(30);
        let dense = optimize(&logical, &dense_ctx, &OptimizerConfig::fusion_only()).unwrap();
        let (logical2, sparse_ctx) = setup(150);
        let sparse = optimize(&logical2, &sparse_ctx, &OptimizerConfig::fusion_only()).unwrap();
        let d = prices(&dense, &dense_ctx).1;
        let s = prices(&sparse, &sparse_ctx).1;
        assert!(s > d, "{s} vs {d}");
    }

    /// A render's price is the sum of its inputs' decode prices over the
    /// frames each reads, plus transform and encode at the output
    /// geometry.
    #[test]
    fn render_price_is_its_inputs_decode_plus_transform_and_encode() {
        let ctx = ctx(30, 700);
        // Four reads of one second from t = 2 s, each a frame later.
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_with(Rational::from_int(1), |_| {
                grid4(
                    RenderExpr::video_shifted("a", r(2, 1)),
                    RenderExpr::video_shifted("a", r(61, 30)),
                    RenderExpr::video_shifted("a", r(62, 30)),
                    RenderExpr::video_shifted("a", r(63, 30)),
                )
            })
            .build();
        let config = OptimizerConfig {
            shard: false,
            ..OptimizerConfig::default()
        };
        let plan = optimize(&lower_spec(&spec).unwrap(), &ctx, &config).unwrap();
        let [seg] = plan.segments.as_slice() else {
            panic!("test premise: one render segment");
        };
        let SegPlan::Render { program, inputs } = &seg.plan else {
            panic!("test premise: a render");
        };
        assert_eq!((seg.count, inputs.len(), program.op_count()), (30, 4, 1));
        let a = ctx.source("a").unwrap();
        let decode: f64 = (0..4).map(|k| decode_cost(a, 300, 60 + k, 89 + k)).sum();
        let px = 64.0 * 64.0;
        let expected = decode + 30.0 * px * 2.0 + 30.0 * px * 1.5;
        assert_eq!(segment_cost(&plan, seg, &ctx), expected);
        // Each read enters at or past keyframe 60: its roll-in, its 30
        // frames, and 700 bytes per frame.
        assert_eq!(decode_cost(a, 300, 61, 90), 31.0 * (px + 70.0));
    }
}
