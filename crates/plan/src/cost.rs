//! Plan cost estimation.
//!
//! The V2V optimizer is heuristic (paper §III-D), but a cost estimate is
//! still useful: `explain` can show *why* a plan is expected to win, and
//! tests can assert that optimization monotonically reduces estimated
//! cost. The model mirrors the execution engine's actual cost structure:
//!
//! * rendering a frame costs one decode + the program's per-frame ops +
//!   one encode, all scaled by pixel count;
//! * a cold render segment additionally decodes the GOP roll-in from the
//!   preceding source keyframe;
//! * a stream copy costs a per-packet constant (refcount bump + index
//!   entry) — orders of magnitude below raster work.

use crate::meta::PlanContext;
use crate::physical::{PhysicalPlan, SegPlan, Segment};
use serde::{Deserialize, Serialize};

/// Relative cost weights (arbitrary units; defaults calibrated so one
/// unit ≈ one 8-bit sample touched once).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost per pixel to decode one frame.
    pub decode_per_pixel: f64,
    /// Cost per pixel to encode one frame.
    pub encode_per_pixel: f64,
    /// Cost per pixel per program operator application.
    pub op_per_pixel: f64,
    /// Cost per copied packet.
    pub copy_per_packet: f64,
    /// Cost per compressed byte decoded (discriminates storage
    /// variants whose pixel geometry and roll-in tie; see
    /// [`crate::variant::select_variants`]).
    #[serde(default = "default_decode_per_byte")]
    pub decode_per_byte: f64,
}

fn default_decode_per_byte() -> f64 {
    0.1
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            decode_per_pixel: 1.0,
            encode_per_pixel: 1.5,
            op_per_pixel: 2.0,
            copy_per_packet: 50.0,
            decode_per_byte: default_decode_per_byte(),
        }
    }
}

/// An estimated plan cost, decomposed by source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Decode work (includes GOP roll-in), in model units.
    pub decode: f64,
    /// Per-frame transformation work.
    pub transform: f64,
    /// Encode work.
    pub encode: f64,
    /// Stream-copy work.
    pub copy: f64,
}

impl CostEstimate {
    /// Total estimated cost.
    pub fn total(&self) -> f64 {
        self.decode + self.transform + self.encode + self.copy
    }
}

impl CostModel {
    /// Estimates the cost of one segment of `plan`. An input whose
    /// source `ctx` does not know is priced at the output geometry with
    /// no roll-in — with an empty context this is the scheduler's
    /// dispatch cost (`v2v_exec::segment_cost`).
    pub fn segment(&self, plan: &PhysicalPlan, seg: &Segment, ctx: &PlanContext) -> CostEstimate {
        let n = seg.count as f64;
        let mut est = CostEstimate::default();
        let (program, inputs) = match &seg.plan {
            SegPlan::StreamCopy { .. } => {
                est.copy = n * self.copy_per_packet;
                return est;
            }
            SegPlan::Render { program, inputs } => (program, inputs),
        };
        let out_ty = plan.out_params.frame_ty;
        let out_pixels = f64::from(out_ty.width) * f64::from(out_ty.height);
        // Decode each input across the segment plus its roll-in from
        // the previous keyframe.
        for clip in inputs {
            let (pixels, rollin) = match ctx.source(&clip.video) {
                Some(meta) => {
                    let px = f64::from(meta.params.frame_ty.width)
                        * f64::from(meta.params.frame_ty.height);
                    let rollin = clip
                        .time
                        .is_shift()
                        .then(|| {
                            let t0 = plan.instant_of(seg.out_start);
                            meta.index_of(clip.time.apply(t0)).map(|idx| {
                                let kf = meta
                                    .keyframes
                                    .iter()
                                    .copied()
                                    .take_while(|&k| k <= idx)
                                    .last()
                                    .unwrap_or(0);
                                (idx - kf) as f64
                            })
                        })
                        .flatten()
                        .unwrap_or(0.0);
                    (px, rollin)
                }
                None => (out_pixels, 0.0),
            };
            est.decode += (n + rollin) * pixels * self.decode_per_pixel;
        }
        est.transform = n * out_pixels * program.op_count().max(1) as f64 * self.op_per_pixel;
        est.encode = n * out_pixels * self.encode_per_pixel;
        est
    }
}

/// Estimates the execution cost of a physical plan: the sum of its
/// segments' costs.
pub fn estimate(plan: &PhysicalPlan, ctx: &PlanContext, model: &CostModel) -> CostEstimate {
    let mut est = CostEstimate::default();
    for seg in &plan.segments {
        let s = model.segment(plan, seg, ctx);
        est.decode += s.decode;
        est.transform += s.transform;
        est.encode += s.encode;
        est.copy += s.copy;
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::lower_spec;
    use crate::meta::SourceMeta;
    use crate::optimizer::{optimize, OptimizerConfig};
    use v2v_codec::CodecParams;
    use v2v_frame::FrameType;
    use v2v_spec::builder::blur;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::{r, Rational};

    fn setup(gop: u64) -> (crate::logical::LogicalPlan, PlanContext) {
        let output = OutputSettings {
            frame_ty: FrameType::yuv420p(64, 64),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 2,
        };
        let spec = SpecBuilder::new(output)
            .video("a", "a.svc")
            .append_clip("a", r(1, 2), Rational::from_int(4))
            .append_filtered("a", r(6, 1), Rational::from_int(2), |e| blur(e, 1.0))
            .build();
        let meta = SourceMeta {
            params: CodecParams::new(FrameType::yuv420p(64, 64), 30, 2),
            start: Rational::ZERO,
            frame_dur: r(1, 30),
            count: 300,
            keyframes: (0..300).step_by(gop as usize).collect(),
        };
        (
            lower_spec(&spec).unwrap(),
            PlanContext::new().with_source("a", meta),
        )
    }

    #[test]
    fn optimization_reduces_estimated_cost() {
        let (logical, ctx) = setup(30);
        let model = CostModel::default();
        let full = optimize(&logical, &ctx, &OptimizerConfig::default()).unwrap();
        let none = optimize(&logical, &ctx, &OptimizerConfig::fusion_only()).unwrap();
        let c_full = estimate(&full, &ctx, &model);
        let c_none = estimate(&none, &ctx, &model);
        assert!(
            c_full.total() < c_none.total(),
            "optimized {c_full:?} must beat fusion-only {c_none:?}"
        );
        assert!(c_full.copy > 0.0);
        assert_eq!(c_none.copy, 0.0);
    }

    #[test]
    fn copies_are_orders_of_magnitude_cheaper() {
        let (logical, ctx) = setup(30);
        let model = CostModel::default();
        let plan = optimize(&logical, &ctx, &OptimizerConfig::default()).unwrap();
        let est = estimate(&plan, &ctx, &model);
        // Copy units per copied frame vs render units per rendered frame.
        let per_copy = est.copy / plan.stats.frames_copied.max(1) as f64;
        let per_render =
            (est.decode + est.transform + est.encode) / plan.stats.frames_rendered.max(1) as f64;
        assert!(per_render > 50.0 * per_copy, "{per_render} vs {per_copy}");
    }

    #[test]
    fn rollin_penalizes_mid_gop_entry() {
        // Same plan; sparser keyframes → more roll-in decode cost.
        let model = CostModel::default();
        let (logical, dense_ctx) = setup(30);
        let dense = optimize(&logical, &dense_ctx, &OptimizerConfig::fusion_only()).unwrap();
        let (logical2, sparse_ctx) = setup(150);
        let sparse = optimize(&logical2, &sparse_ctx, &OptimizerConfig::fusion_only()).unwrap();
        let d = estimate(&dense, &dense_ctx, &model);
        let s = estimate(&sparse, &sparse_ctx, &model);
        assert!(s.decode > d.decode, "{} vs {}", s.decode, d.decode);
    }
}
