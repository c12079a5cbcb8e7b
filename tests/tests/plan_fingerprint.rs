//! Properties of the canonical plan fingerprint (`v2v_plan::fingerprint`):
//!
//! * **invariant** under how the optimizer happened to carve the plan —
//!   sharding on/off, render segments re-cut at any output-GOP multiple,
//!   rule application order (the
//!   smart-cut head split vs. whole-clip copy decisions permute segment
//!   boundaries, not semantics);
//! * **sensitive** to anything that changes the output bytes — clip
//!   ranges, programs, output parameters, and the *content* of the
//!   source streams (a name does not pin bytes).

use proptest::prelude::*;
use v2v_exec::Catalog;
use v2v_integration_tests::{marked_output, marked_stream};
use v2v_plan::{
    lower_spec, optimize, plan_fingerprint, OptimizerConfig, PhysicalPlan, SegPlan, Segment,
    SourceDigests, VideoDigest,
};
use v2v_spec::builder::blur;
use v2v_spec::{Spec, SpecBuilder};
use v2v_time::{r, Rational};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(240, 30));
    c
}

fn digests(catalog: &Catalog) -> SourceDigests {
    let mut d = SourceDigests::default();
    d.videos.insert(
        "src".into(),
        VideoDigest::of(catalog.video("src").expect("bound")),
    );
    d
}

/// A mixed spec: a copyable clip, a rendered filter (long enough to
/// shard), and a second clip — exercises copy, render, and merge paths.
fn mixed_spec() -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(1, 1), Rational::from_int(2))
        .append_filtered("src", r(0, 1), Rational::from_int(4), |e| blur(e, 1.0))
        .append_clip("src", r(5, 1), Rational::from_int(1))
        .build()
}

fn plan_with(spec: &Spec, catalog: &Catalog, cfg: &OptimizerConfig) -> PhysicalPlan {
    let logical = lower_spec(spec).expect("lower");
    optimize(&logical, catalog.plan_context(), cfg).expect("optimize")
}

fn fingerprint_with(spec: &Spec, catalog: &Catalog, cfg: &OptimizerConfig) -> u64 {
    plan_fingerprint(&plan_with(spec, catalog, cfg), &digests(catalog))
}

/// Re-cuts every render segment of `plan` every `k` output GOPs from its
/// start: a carving the optimizer is free to choose, since each piece
/// restarts the encoder on an output-GOP boundary.
fn recut(mut plan: PhysicalPlan, k: u64) -> PhysicalPlan {
    let step = k * u64::from(plan.out_params.gop_size);
    plan.segments = plan
        .segments
        .into_iter()
        .flat_map(|seg| match seg.plan {
            SegPlan::StreamCopy { .. } => vec![seg],
            SegPlan::Render { .. } => (0..seg.count)
                .step_by(step as usize)
                .map(|off| Segment {
                    out_start: seg.out_start + off,
                    count: step.min(seg.count - off),
                    plan: seg.plan.clone(),
                })
                .collect(),
        })
        .collect();
    assert_eq!(plan.validate(), Ok(()));
    plan
}

/// The fingerprint of `spec` planned under `cfg`, re-cut every `k`
/// output GOPs.
fn recut_fingerprint(spec: &Spec, catalog: &Catalog, cfg: &OptimizerConfig, k: u64) -> u64 {
    plan_fingerprint(&recut(plan_with(spec, catalog, cfg), k), &digests(catalog))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// However the optimizer shards (or refuses to shard) render
    /// segments, and however they are then re-cut at output-GOP
    /// multiples, the canonical fingerprint is the one the default
    /// configuration produces.
    #[test]
    fn fingerprint_invariant_under_rewrite_carving(
        shard in any::<bool>(),
        recut_gops in 1u64..8,
    ) {
        let catalog = catalog();
        let spec = mixed_spec();
        let baseline = fingerprint_with(&spec, &catalog, &OptimizerConfig::default());
        let cfg = OptimizerConfig {
            shard,
            ..OptimizerConfig::default()
        };
        prop_assert_eq!(recut_fingerprint(&spec, &catalog, &cfg, recut_gops), baseline);
    }

    /// Clip-range changes (different output semantics) always move the
    /// fingerprint, however the render segments are carved.
    #[test]
    fn fingerprint_tracks_spec_semantics(
        recut_gops in 1u64..8,
        start_frames in 0i64..60,
    ) {
        let catalog = catalog();
        let cfg = OptimizerConfig::default();
        let base = mixed_spec();
        let shifted = SpecBuilder::new(marked_output())
            .video("src", "src.svc")
            .append_clip("src", r(1, 1), Rational::from_int(2))
            .append_filtered(
                "src",
                r(start_frames + 1, 30),
                Rational::from_int(4),
                |e| blur(e, 1.0),
            )
            .append_clip("src", r(5, 1), Rational::from_int(1))
            .build();
        prop_assert_ne!(
            recut_fingerprint(&base, &catalog, &cfg, recut_gops),
            recut_fingerprint(&shifted, &catalog, &cfg, recut_gops)
        );
    }
}

/// Re-encoding the source in place (same name, same frame count,
/// different pixels) must change the fingerprint: keys are content-
/// addressed, not name-addressed.
#[test]
fn fingerprint_tracks_source_bytes() {
    let spec = mixed_spec();
    let catalog_a = catalog();

    // Same shape, different content: markers offset by 1000.
    let ty = v2v_frame::FrameType::gray8(64, 32);
    let params = v2v_codec::CodecParams::new(ty, 30, 0);
    let mut w = v2v_container::StreamWriter::new(params, Rational::ZERO, r(1, 30));
    for i in 0..240 {
        let mut f = v2v_frame::Frame::black(ty);
        v2v_frame::marker::embed(&mut f, 1000 + i as u32);
        w.push_frame(&f).unwrap();
    }
    let mut catalog_b = Catalog::new();
    catalog_b.add_video("src", w.finish().unwrap());

    let cfg = OptimizerConfig::default();
    assert_ne!(
        fingerprint_with(&spec, &catalog_a, &cfg),
        fingerprint_with(&spec, &catalog_b, &cfg)
    );
}

/// The fingerprint must also differ from an unrelated query's (sanity:
/// canonicalization does not collapse distinct plans).
#[test]
fn distinct_queries_have_distinct_fingerprints() {
    let catalog = catalog();
    let cfg = OptimizerConfig::default();
    let other = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), Rational::from_int(3), |e| blur(e, 2.0))
        .build();
    assert_ne!(
        fingerprint_with(&mixed_spec(), &catalog, &cfg),
        fingerprint_with(&other, &catalog, &cfg)
    );
}
