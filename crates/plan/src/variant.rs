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
//! A [`VariantSource`] is an attached variant's own stream plus the
//! original prefix it covers; each candidate is priced from its own
//! stream by the plan's one decode price ([`crate::cost`]). [`select_variants`] is the
//! post-optimization pass that retargets each render input clip at the
//! cheapest decode-sufficient variant.

use crate::cost::decode_cost;
use crate::meta::PlanContext;
use crate::physical::{PhysicalPlan, SegPlan};
use crate::program::InputClip;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use v2v_container::VideoStream;
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

/// One attached physical variant of a catalog source.
///
/// The stream shares the original's frame grid (start, frame duration)
/// and decodes frame-for-frame identical to it over the covered prefix.
#[derive(Clone, Debug)]
pub struct VariantSource {
    /// The variant bitstream.
    pub stream: Arc<VideoStream>,
    /// Leading original frame indices this variant can serve. A live
    /// source may have grown past this since the transcode; reads at or
    /// beyond it must fall back to the original.
    pub covered_frames: u64,
}

/// How the planner chooses variants for render inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum VariantPolicy {
    /// Pick the cheapest decode-sufficient variant per clip (no-op when
    /// no variant is attached to the context).
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
/// read (the catalog source for the planner, the resolved variant for
/// the executor).
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

/// Retargets render input clips at the cheapest decode-sufficient
/// variant per segment. Runs after optimization; stream-copy segments
/// are never touched (they splice original packets). Returns the number
/// of clips retargeted away from the original.
pub fn select_variants(plan: &mut PhysicalPlan, ctx: &PlanContext, policy: VariantPolicy) -> u64 {
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
            let (Some(variants), Some(source)) =
                (ctx.variants.get(&clip.video), ctx.source(&clip.video))
            else {
                continue;
            };
            let (lo_t, hi_t) = clip_read_range(&shell, clip, out_start, count);
            let grid = source.range();
            let (Some(lo), Some(hi)) = (grid.index_of(lo_t), grid.index_of(hi_t)) else {
                continue;
            };
            // A variant serves its covered prefix, clamped to its own
            // length. One covering more frames than the original has is
            // stale (the source was replaced since the transcode) and
            // never serves. Reading `[lo, hi]` from a variant yields
            // byte-identical output when it covers the range and is
            // either pixel-identical to the original or already
            // conformed to the plan's output geometry (so the render
            // path's conform is the identity).
            let covered = |v: &VariantSource| v.covered_frames.min(v.stream.len() as u64);
            let mut eligible = variants.iter().filter(|(kind, v)| {
                let ty = v.stream.params().frame_ty;
                !kind.is_original()
                    && v.covered_frames <= source.len() as u64
                    && covered(v) > hi
                    && (ty == source.params().frame_ty || ty == shell.out_params.frame_ty)
            });
            match policy {
                VariantPolicy::Disabled => {}
                VariantPolicy::Force(kind) => {
                    if eligible.any(|(&k, _)| k == kind) {
                        clip.variant = kind;
                        retargeted += 1;
                    }
                }
                VariantPolicy::Auto => {
                    let mut best_kind = VariantKind::Original;
                    let mut best_cost = decode_cost(source, source.len() as u64, lo, hi);
                    for (&kind, v) in eligible {
                        let c = decode_cost(&v.stream, covered(v), lo, hi);
                        if c < best_cost {
                            best_cost = c;
                            best_kind = kind;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::rollin;
    use crate::logical::lower_spec;
    use crate::meta::tests::source;
    use crate::optimizer::{optimize, OptimizerConfig};
    use v2v_codec::CodecParams;
    use v2v_frame::FrameType;
    use v2v_spec::builder::grayscale;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::r;

    /// A variant of `count` frames with a keyframe every `gop` frames
    /// and `payload` bytes per packet, covering all of them.
    fn variant(gop: u64, count: u64, payload: usize) -> VariantSource {
        variant_ty(gop, count, payload, FrameType::yuv420p(64, 64))
    }

    fn variant_ty(gop: u64, count: u64, payload: usize, ty: FrameType) -> VariantSource {
        VariantSource {
            stream: source(CodecParams::new(ty, gop as u32, 0), count, gop, payload),
            covered_frames: count,
        }
    }

    /// The original `src`: `count` frames, a keyframe every `gop`,
    /// `payload` bytes per packet.
    fn ctx(count: u64, gop: u64, payload: usize) -> PlanContext {
        let params = CodecParams::new(FrameType::yuv420p(64, 64), gop as u32, 0);
        PlanContext::new().with_source("src", source(params, count, gop, payload))
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

    fn all_clips_read(plan: &PhysicalPlan, kind: VariantKind) -> bool {
        plan.segments.iter().all(|seg| match &seg.plan {
            SegPlan::Render { inputs, .. } => inputs.iter().all(|c| c.variant == kind),
            SegPlan::StreamCopy { .. } => true,
        })
    }

    #[test]
    fn auto_prefers_dense_for_short_midgop_reads() {
        // 10 s @ 30 fps, GOP 300: a 1 s read starting at t=3 s rolls in
        // ~90 frames on the original but ~2 on the dense variant.
        let ctx =
            ctx(300, 300, 1000).with_variant("src", VariantKind::Dense, variant(4, 300, 3000));
        let mut plan = render_plan(&ctx, 3, 4);
        let n = select_variants(&mut plan, &ctx, VariantPolicy::Auto);
        assert!(n >= 1, "expected at least one retarget, got {n}");
        assert!(all_clips_read(&plan, VariantKind::Dense));
    }

    #[test]
    fn auto_prefers_archive_for_full_scans() {
        // Full-range scan from frame 0: roll-in is zero everywhere, so
        // the smaller archival bitstream wins on the byte term.
        let ctx =
            ctx(300, 30, 2000).with_variant("src", VariantKind::Archive, variant(300, 300, 667));
        let mut plan = render_plan(&ctx, 0, 10);
        let n = select_variants(&mut plan, &ctx, VariantPolicy::Auto);
        assert!(n >= 1);
        assert!(all_clips_read(&plan, VariantKind::Archive));
    }

    #[test]
    fn coverage_gates_selection() {
        // Dense variant covers only the first 60 frames; a read past
        // that must stay on the original.
        let mut dense = variant(4, 300, 3000);
        dense.covered_frames = 60;
        let ctx = ctx(300, 300, 1000).with_variant("src", VariantKind::Dense, dense);
        let mut plan = render_plan(&ctx, 3, 4);
        let n = select_variants(&mut plan, &ctx, VariantPolicy::Auto);
        assert_eq!(n, 0);
        let n = select_variants(&mut plan, &ctx, VariantPolicy::Force(VariantKind::Dense));
        assert_eq!(n, 0);
    }

    #[test]
    fn a_variant_covering_more_than_the_original_is_never_chosen() {
        // The source was replaced by a shorter one since the transcode:
        // the 400-frame dense variant claims frames the 300-frame
        // original lacks, so it is stale even where its prefix would
        // cover the read.
        let policies = [
            VariantPolicy::Auto,
            VariantPolicy::Force(VariantKind::Dense),
        ];
        let stale =
            ctx(300, 300, 1000).with_variant("src", VariantKind::Dense, variant(4, 400, 3000));
        for policy in policies {
            let mut plan = render_plan(&stale, 3, 4);
            assert_eq!(select_variants(&mut plan, &stale, policy), 0);
            assert!(all_clips_read(&plan, VariantKind::Original));
        }
        // Control: the same variant covering no more than the original
        // is chosen under both policies.
        let mut fresh = variant(4, 400, 3000);
        fresh.covered_frames = 300;
        let fresh = ctx(300, 300, 1000).with_variant("src", VariantKind::Dense, fresh);
        for policy in policies {
            let mut plan = render_plan(&fresh, 3, 4);
            assert!(select_variants(&mut plan, &fresh, policy) >= 1);
            assert!(all_clips_read(&plan, VariantKind::Dense));
        }
    }

    #[test]
    fn proxy_requires_output_geometry_match() {
        let proxy = variant_ty(4, 300, 333, FrameType::yuv420p(32, 32));
        let ctx = ctx(300, 300, 1000).with_variant("src", VariantKind::Proxy, proxy);
        // Output geometry is the source's 64x64 → proxy ineligible.
        let mut plan = render_plan(&ctx, 3, 4);
        let n = select_variants(&mut plan, &ctx, VariantPolicy::Force(VariantKind::Proxy));
        assert_eq!(n, 0);
    }

    #[test]
    fn disabled_is_a_noop_and_force_falls_back() {
        let ctx =
            ctx(300, 300, 1000).with_variant("src", VariantKind::Dense, variant(4, 300, 3000));
        let mut plan = render_plan(&ctx, 3, 4);
        assert_eq!(select_variants(&mut plan, &ctx, VariantPolicy::Disabled), 0);
        // Forcing a kind that was never materialized keeps the original.
        assert_eq!(
            select_variants(&mut plan, &ctx, VariantPolicy::Force(VariantKind::Archive),),
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
        // Frames decoded to reach a frame: the roll-in from its
        // keyframe, plus the frame itself.
        let s = variant(30, 300, 0).stream;
        let span = |idx: u64| rollin(&s, idx) + 1;
        assert_eq!(span(0), 1);
        assert_eq!(span(29), 30);
        assert_eq!(span(30), 1);
        assert_eq!(span(95), 6);
    }
}
