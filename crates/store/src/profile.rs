//! Access-pattern profiling: classify a physical plan's source reads.
//!
//! The compactor needs to know *how* each source is being read, not
//! just how often. Three rates matter for variant choice:
//!
//! * **smart-cut** — short mid-GOP render heads (the expensive shape on
//!   long-GOP sources; a dense variant makes them cheap);
//! * **scan** — long sequential decodes (an archival variant shrinks
//!   the bytes pulled through the decoder);
//! * **preview** — reads whose output geometry is smaller than the
//!   source (a proxy variant skips the decode-then-downscale).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use v2v_plan::{PhysicalPlan, PlanContext, SegPlan};

/// Observed read counts for one source, by access shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessProfile {
    /// Short mid-GOP render-head reads.
    pub smart_cut: u64,
    /// Long sequential decode reads.
    pub scan: u64,
    /// Reads rendered at a smaller output geometry than the source.
    pub preview: u64,
}

impl AccessProfile {
    /// Element-wise accumulate.
    pub fn add(&mut self, other: AccessProfile) {
        self.smart_cut += other.smart_cut;
        self.scan += other.scan;
        self.preview += other.preview;
    }

    /// Total classified reads.
    pub fn total(&self) -> u64 {
        self.smart_cut + self.scan + self.preview
    }
}

/// Classifies each render input read in `plan` against the source GOP
/// cadence in `ctx`. Stream-copy segments decode nothing and are not
/// counted. One read may count as both preview and smart-cut/scan —
/// the axes are independent (geometry vs seek shape).
pub fn profile_plan(plan: &PhysicalPlan, ctx: &PlanContext) -> BTreeMap<String, AccessProfile> {
    let mut out: BTreeMap<String, AccessProfile> = BTreeMap::new();
    let out_px =
        u64::from(plan.out_params.frame_ty.width) * u64::from(plan.out_params.frame_ty.height);
    for seg in &plan.segments {
        let SegPlan::Render { inputs, .. } = &seg.plan else {
            continue;
        };
        for clip in inputs {
            let Some(source) = ctx.source(&clip.video) else {
                continue;
            };
            let profile = out.entry(clip.video.clone()).or_default();
            let params = source.params();
            let src_px = u64::from(params.frame_ty.width) * u64::from(params.frame_ty.height);
            if out_px < src_px {
                profile.preview += 1;
            }
            let gop = u64::from(params.gop_size.max(1));
            // A mid-GOP read shorter than one source GOP is the
            // smart-cut head shape; anything longer is a scan.
            if seg.count <= gop {
                let start_idx = source.index_of(clip.time.apply(plan.instant_of(seg.out_start)));
                match start_idx {
                    Some(i) if source.keyframe_at_or_before(i) != Some(i) => profile.smart_cut += 1,
                    _ => profile.scan += 1,
                }
            } else {
                profile.scan += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use v2v_codec::{CodecParams, Packet};
    use v2v_container::VideoStream;
    use v2v_frame::FrameType;
    use v2v_plan::{lower_spec, optimize, OptimizerConfig};
    use v2v_spec::builder::grayscale;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::{r, Rational};

    /// `src`: `count` frames, a keyframe every `gop`, empty payloads
    /// (profiling reads container facts only).
    fn ctx(count: u64, gop: u64) -> PlanContext {
        let params = CodecParams::new(FrameType::yuv420p(64, 64), gop as u32, 0);
        let packets = (0..count)
            .map(|k| Packet::new(r(k as i64, 30), k % gop == 0, Default::default()))
            .collect();
        let stream = VideoStream::new(params, Rational::ZERO, r(1, 30), packets).unwrap();
        PlanContext::new().with_source("src", Arc::new(stream))
    }

    fn plan(ctx: &PlanContext, from: i64, secs: i64, out_side: u32) -> PhysicalPlan {
        let output = OutputSettings {
            frame_ty: FrameType::yuv420p(out_side, out_side),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        };
        let spec = SpecBuilder::new(output)
            .video("src", "src.svc")
            .append_filtered("src", r(from, 1), r(secs, 1), grayscale)
            .build();
        let logical = lower_spec(&spec).unwrap();
        let config = OptimizerConfig {
            shard: false,
            ..OptimizerConfig::default()
        };
        optimize(&logical, ctx, &config).unwrap()
    }

    #[test]
    fn midgop_head_counts_as_smart_cut() {
        let ctx = ctx(600, 300);
        // Half a second starting at t=3s: mid-GOP, shorter than a GOP.
        let p = plan(&ctx, 3, 1, 64);
        let profiles = profile_plan(&p, &ctx);
        assert!(profiles["src"].smart_cut >= 1, "{:?}", profiles);
        assert_eq!(profiles["src"].preview, 0);
    }

    #[test]
    fn long_read_counts_as_scan() {
        let ctx = ctx(600, 30);
        let p = plan(&ctx, 0, 10, 64);
        let profiles = profile_plan(&p, &ctx);
        assert!(profiles["src"].scan >= 1, "{:?}", profiles);
        assert_eq!(profiles["src"].smart_cut, 0);
    }

    #[test]
    fn small_output_counts_as_preview() {
        let ctx = ctx(600, 30);
        let p = plan(&ctx, 0, 2, 32);
        let profiles = profile_plan(&p, &ctx);
        assert!(profiles["src"].preview >= 1, "{:?}", profiles);
    }
}
