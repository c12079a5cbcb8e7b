//! Physical storage variants (multi-variant source store, VSS-style).
//!
//! A catalog source may be stored in several physical **variants**: the
//! original bitstream plus re-encodes that trade bytes for seek cost —
//! a keyframe-dense re-encode (cheap smart cuts), a long-GOP archival
//! re-encode (small, cheap sequential scans), and a reduced-resolution
//! proxy (preview traffic). Pixel-identical variants decode
//! frame-for-frame identical to the original, so the planner may serve
//! any *render* read from whichever variant is cheapest; stream-copy
//! segments always splice original packets, and plan fingerprints and
//! cache keys never observe the variant choice.
//!
//! [`VariantFacts`] are the container-level facts the costing consults
//! (keyframe index, byte size, covered prefix); [`select_variants`] is
//! the post-optimization pass that retargets each render input clip at
//! the cheapest decode-sufficient variant.

use crate::cost::CostModel;
use crate::meta::PlanContext;
use crate::physical::{PhysicalPlan, SegPlan};
use crate::program::InputClip;
use serde::{Deserialize, Serialize};
use v2v_codec::CodecParams;
use v2v_time::Rational;

/// Which physical variant of a source a clip reads from.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(rename_all = "snake_case")]
pub enum VariantKind {
    /// The original bitstream as ingested.
    #[default]
    Original,
    /// Keyframe-dense re-encode: short GOPs, cheap smart cuts.
    Dense,
    /// Long-GOP archival re-encode: small, cheap sequential scans.
    Archive,
    /// Reduced-resolution proxy: decode-sufficient only when the
    /// query's output geometry equals the proxy geometry.
    Proxy,
}

impl VariantKind {
    /// All variant kinds, original first.
    pub const ALL: [VariantKind; 4] = [
        VariantKind::Original,
        VariantKind::Dense,
        VariantKind::Archive,
        VariantKind::Proxy,
    ];

    /// Stable lowercase name (manifest keys, CLI arguments, metrics).
    pub fn name(self) -> &'static str {
        match self {
            VariantKind::Original => "original",
            VariantKind::Dense => "dense",
            VariantKind::Archive => "archive",
            VariantKind::Proxy => "proxy",
        }
    }

    /// Parses [`Self::name`] output back into a kind.
    pub fn parse(s: &str) -> Option<VariantKind> {
        VariantKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// `true` for [`VariantKind::Original`] (serde skip helper).
    pub fn is_original(&self) -> bool {
        *self == VariantKind::Original
    }
}

impl std::fmt::Display for VariantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Container-level facts about one materialized variant of a source.
///
/// The byte size and keyframe index come from the variant's own
/// bitstream; `covered_frames` bounds the original frame indices the
/// variant can serve (a variant transcoded from a live source covers
/// only the prefix committed at transcode time).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VariantFacts {
    /// Which variant these facts describe.
    pub kind: VariantKind,
    /// The variant's codec parameters.
    pub params: CodecParams,
    /// Sorted keyframe frame-indices within the variant bitstream.
    pub keyframes: Vec<u64>,
    /// Total compressed byte size of the variant bitstream.
    pub byte_size: u64,
    /// Number of leading original frames the variant covers. Reads at
    /// or past this index must fall back to another variant.
    pub covered_frames: u64,
}

impl VariantFacts {
    /// Frames decoded to reach `idx`: the roll-in from the nearest
    /// keyframe at or before `idx`, plus the frame itself.
    pub fn decode_span(&self, idx: u64) -> u64 {
        let i = self.keyframes.partition_point(|&k| k <= idx);
        let kf = if i == 0 { 0 } else { self.keyframes[i - 1] };
        idx - kf + 1
    }

    /// Mean compressed bytes per frame.
    pub fn bytes_per_frame(&self) -> f64 {
        self.byte_size as f64 / self.covered_frames.max(1) as f64
    }
}

/// How the planner chooses variants for render inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum VariantPolicy {
    /// Pick the cheapest decode-sufficient variant per clip (no-op when
    /// the context carries no variant facts).
    #[default]
    Auto,
    /// Always read the original.
    Disabled,
    /// Force one kind wherever it is decode-sufficient and covering;
    /// fall back to the original elsewhere.
    Force(VariantKind),
}

impl VariantPolicy {
    /// Parses `auto`, `off`, or a [`VariantKind::name`].
    pub fn parse(s: &str) -> Option<VariantPolicy> {
        match s {
            "auto" => Some(VariantPolicy::Auto),
            "off" | "disabled" => Some(VariantPolicy::Disabled),
            other => VariantKind::parse(other).map(VariantPolicy::Force),
        }
    }
}

/// Source instants `(lo_t, hi_t)` a clip reads for a segment of `count`
/// output frames starting at plan instant `out_start`: the clip's time
/// map at the segment's first and last output instants, in order. The
/// map is affine, so every instant the clip reads lies between the two;
/// callers map them to frame indices on the grid of the stream they
/// read (the planner's [`SourceMeta`], the executor's resolved stream).
///
/// [`SourceMeta`]: crate::meta::SourceMeta
pub fn clip_read_range(
    plan: &PhysicalPlan,
    clip: &InputClip,
    out_start: u64,
    count: u64,
) -> (Rational, Rational) {
    let a = clip.time.apply(plan.instant_of(out_start));
    let b = clip
        .time
        .apply(plan.instant_of(out_start + count.max(1) - 1));
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Estimated decode cost of serving `[lo, hi]` from one variant:
/// frames decoded (roll-in to the keyframe before `lo`, then the span)
/// times per-frame pixel and byte terms.
fn variant_cost(facts: &VariantFacts, lo: u64, hi: u64, model: &CostModel) -> f64 {
    let rollin = facts.decode_span(lo) - 1;
    let frames = (hi - lo + 1 + rollin) as f64;
    let px = f64::from(facts.params.frame_ty.width) * f64::from(facts.params.frame_ty.height);
    frames * (px * model.decode_per_pixel + facts.bytes_per_frame() * model.decode_per_byte)
}

/// `true` if reading `[lo, hi]` from this variant yields byte-identical
/// query output: the variant must cover the range and be either
/// pixel-identical to the original or already conformed to the plan's
/// output geometry (so the render path's conform is the identity).
fn decode_sufficient(
    facts: &VariantFacts,
    source_ty: &CodecParams,
    out_params: &CodecParams,
    hi: u64,
) -> bool {
    facts.covered_frames > hi
        && (facts.params.frame_ty == source_ty.frame_ty
            || facts.params.frame_ty == out_params.frame_ty)
}

/// Retargets render input clips at the cheapest decode-sufficient
/// variant per segment. Runs after optimization; stream-copy segments
/// are never touched (they splice original packets). Returns the number
/// of clips retargeted away from the original.
pub fn select_variants(
    plan: &mut PhysicalPlan,
    ctx: &PlanContext,
    model: &CostModel,
    policy: VariantPolicy,
) -> u64 {
    if matches!(policy, VariantPolicy::Disabled) || ctx.variants.is_empty() {
        return 0;
    }
    let mut retargeted = 0;
    // Borrow dance: read ranges need `&plan` while clips need `&mut`.
    let instants: Vec<(u64, u64)> = plan
        .segments
        .iter()
        .map(|s| (s.out_start, s.count))
        .collect();
    let shell = plan.clone();
    for (seg, &(out_start, count)) in plan.segments.iter_mut().zip(&instants) {
        let SegPlan::Render { inputs, .. } = &mut seg.plan else {
            continue;
        };
        for clip in inputs.iter_mut() {
            clip.variant = VariantKind::Original;
            let Some(facts_list) = ctx.variants.get(&clip.video) else {
                continue;
            };
            let Some(meta) = ctx.source(&clip.video) else {
                continue;
            };
            let (lo_t, hi_t) = clip_read_range(&shell, clip, out_start, count);
            let (Some(lo), Some(hi)) = (meta.index_of(lo_t), meta.index_of(hi_t)) else {
                continue;
            };
            let eligible =
                |f: &VariantFacts| decode_sufficient(f, &meta.params, &shell.out_params, hi);
            match policy {
                VariantPolicy::Disabled => {}
                VariantPolicy::Force(kind) => {
                    if kind != VariantKind::Original
                        && facts_list.iter().any(|f| f.kind == kind && eligible(f))
                    {
                        clip.variant = kind;
                        retargeted += 1;
                    }
                }
                VariantPolicy::Auto => {
                    let original = original_facts(facts_list, meta);
                    let mut best_kind = VariantKind::Original;
                    let mut best_cost = variant_cost(&original, lo, hi, model);
                    for f in facts_list.iter().filter(|f| !f.kind.is_original()) {
                        if !eligible(f) {
                            continue;
                        }
                        let c = variant_cost(f, lo, hi, model);
                        if c < best_cost {
                            best_cost = c;
                            best_kind = f.kind;
                        }
                    }
                    if best_kind != VariantKind::Original {
                        clip.variant = best_kind;
                        retargeted += 1;
                    }
                }
            }
        }
    }
    retargeted
}

/// Facts for the original bitstream: from the context's variant table
/// when recorded there, otherwise synthesized from [`SourceMeta`]
/// (byte size unknown → zero, which only weakens the byte term).
///
/// [`SourceMeta`]: crate::meta::SourceMeta
fn original_facts(facts_list: &[VariantFacts], meta: &crate::meta::SourceMeta) -> VariantFacts {
    facts_list
        .iter()
        .find(|f| f.kind.is_original())
        .cloned()
        .unwrap_or_else(|| VariantFacts {
            kind: VariantKind::Original,
            params: meta.params,
            keyframes: meta.keyframes.clone(),
            byte_size: 0,
            covered_frames: meta.count,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::lower_spec;
    use crate::meta::SourceMeta;
    use crate::optimizer::{optimize, OptimizerConfig};
    use v2v_frame::FrameType;
    use v2v_spec::builder::grayscale;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::{r, Rational};

    fn facts(kind: VariantKind, gop: u64, count: u64, byte_size: u64) -> VariantFacts {
        facts_ty(kind, gop, count, byte_size, FrameType::yuv420p(64, 64))
    }

    fn facts_ty(
        kind: VariantKind,
        gop: u64,
        count: u64,
        byte_size: u64,
        ty: FrameType,
    ) -> VariantFacts {
        VariantFacts {
            kind,
            params: CodecParams::new(ty, gop as u32, 0),
            keyframes: (0..count).step_by(gop as usize).collect(),
            byte_size,
            covered_frames: count,
        }
    }

    fn ctx(count: u64, gop: u64) -> PlanContext {
        PlanContext::new().with_source(
            "src",
            SourceMeta {
                params: CodecParams::new(FrameType::yuv420p(64, 64), gop as u32, 0),
                start: Rational::ZERO,
                frame_dur: r(1, 30),
                count,
                keyframes: (0..count).step_by(gop as usize).collect(),
            },
        )
    }

    /// A forced-render (grayscale) clip of `[from, to)` seconds of
    /// `src`, unsharded so each shape is one segment.
    fn render_plan(ctx: &PlanContext, from: i64, to: i64) -> PhysicalPlan {
        let output = OutputSettings {
            frame_ty: FrameType::yuv420p(64, 64),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        };
        let spec = SpecBuilder::new(output)
            .video("src", "src.svc")
            .append_filtered("src", r(from, 1), r(to - from, 1), grayscale)
            .build();
        let logical = lower_spec(&spec).unwrap();
        let config = OptimizerConfig {
            shard: false,
            ..OptimizerConfig::default()
        };
        optimize(&logical, ctx, &config).unwrap()
    }

    #[test]
    fn auto_prefers_dense_for_short_midgop_reads() {
        // 10 s @ 30 fps, GOP 300: a 1 s read starting at t=3 s rolls in
        // ~90 frames on the original but ~2 on the dense variant.
        let ctx = ctx(300, 300).with_variants(
            "src",
            vec![
                facts(VariantKind::Original, 300, 300, 300_000),
                facts(VariantKind::Dense, 4, 300, 900_000),
            ],
        );
        let mut plan = render_plan(&ctx, 3, 4);
        let n = select_variants(&mut plan, &ctx, &CostModel::default(), VariantPolicy::Auto);
        assert!(n >= 1, "expected at least one retarget, got {n}");
        for seg in &plan.segments {
            if let SegPlan::Render { inputs, .. } = &seg.plan {
                assert!(inputs.iter().all(|c| c.variant == VariantKind::Dense));
            }
        }
    }

    #[test]
    fn auto_prefers_archive_for_full_scans() {
        // Full-range scan from frame 0: roll-in is zero everywhere, so
        // the smaller archival bitstream wins on the byte term.
        let ctx = ctx(300, 30).with_variants(
            "src",
            vec![
                facts(VariantKind::Original, 30, 300, 600_000),
                facts(VariantKind::Archive, 300, 300, 200_000),
            ],
        );
        let mut plan = render_plan(&ctx, 0, 10);
        let n = select_variants(&mut plan, &ctx, &CostModel::default(), VariantPolicy::Auto);
        assert!(n >= 1);
        for seg in &plan.segments {
            if let SegPlan::Render { inputs, .. } = &seg.plan {
                assert!(inputs.iter().all(|c| c.variant == VariantKind::Archive));
            }
        }
    }

    #[test]
    fn coverage_gates_selection() {
        // Dense variant covers only the first 60 frames; a read past
        // that must stay on the original.
        let mut dense = facts(VariantKind::Dense, 4, 300, 900_000);
        dense.covered_frames = 60;
        let ctx = ctx(300, 300).with_variants(
            "src",
            vec![facts(VariantKind::Original, 300, 300, 300_000), dense],
        );
        let mut plan = render_plan(&ctx, 3, 4);
        let n = select_variants(&mut plan, &ctx, &CostModel::default(), VariantPolicy::Auto);
        assert_eq!(n, 0);
        let n = select_variants(
            &mut plan,
            &ctx,
            &CostModel::default(),
            VariantPolicy::Force(VariantKind::Dense),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn proxy_requires_output_geometry_match() {
        let proxy = facts_ty(
            VariantKind::Proxy,
            4,
            300,
            100_000,
            FrameType::yuv420p(32, 32),
        );
        let ctx = ctx(300, 300).with_variants(
            "src",
            vec![facts(VariantKind::Original, 300, 300, 300_000), proxy],
        );
        // Output geometry is the source's 64x64 → proxy ineligible.
        let mut plan = render_plan(&ctx, 3, 4);
        let n = select_variants(
            &mut plan,
            &ctx,
            &CostModel::default(),
            VariantPolicy::Force(VariantKind::Proxy),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn disabled_is_a_noop_and_force_falls_back() {
        let ctx = ctx(300, 300).with_variants(
            "src",
            vec![
                facts(VariantKind::Original, 300, 300, 300_000),
                facts(VariantKind::Dense, 4, 300, 900_000),
            ],
        );
        let mut plan = render_plan(&ctx, 3, 4);
        assert_eq!(
            select_variants(
                &mut plan,
                &ctx,
                &CostModel::default(),
                VariantPolicy::Disabled
            ),
            0
        );
        // Forcing a kind that was never materialized keeps the original.
        assert_eq!(
            select_variants(
                &mut plan,
                &ctx,
                &CostModel::default(),
                VariantPolicy::Force(VariantKind::Archive),
            ),
            0
        );
    }

    #[test]
    fn kind_and_policy_roundtrip() {
        for k in VariantKind::ALL {
            assert_eq!(VariantKind::parse(k.name()), Some(k));
        }
        assert_eq!(VariantPolicy::parse("auto"), Some(VariantPolicy::Auto));
        assert_eq!(VariantPolicy::parse("off"), Some(VariantPolicy::Disabled));
        assert_eq!(
            VariantPolicy::parse("dense"),
            Some(VariantPolicy::Force(VariantKind::Dense))
        );
        assert_eq!(VariantPolicy::parse("bogus"), None);
    }

    #[test]
    fn decode_span_rollin() {
        let f = facts(VariantKind::Original, 30, 300, 0);
        assert_eq!(f.decode_span(0), 1);
        assert_eq!(f.decode_span(29), 30);
        assert_eq!(f.decode_span(30), 1);
        assert_eq!(f.decode_span(95), 6);
    }
}
