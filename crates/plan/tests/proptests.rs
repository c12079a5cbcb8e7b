//! Property-based tests for lowering and optimization: random specs must
//! lower to plans that cover the domain exactly, and optimization must
//! preserve coverage while only ever *reducing* the frames that need
//! rendering.

use proptest::prelude::*;
use std::sync::Arc;
use v2v_codec::{CodecParams, Packet};
use v2v_container::VideoStream;
use v2v_frame::FrameType;
use v2v_plan::{
    explain_logical, explain_physical, lower_spec, optimize, OptimizerConfig, PlanContext,
};
use v2v_spec::builder::{blur, grid4, zoom};
use v2v_spec::{OutputSettings, RenderExpr, SpecBuilder};
use v2v_time::{r, Rational};

const SRC_FRAMES: u64 = 400;

fn output() -> OutputSettings {
    OutputSettings {
        frame_ty: FrameType::yuv420p(64, 64),
        frame_dur: r(1, 30),
        gop_size: 30,
        quantizer: 2,
    }
}

/// `src`: a keyframe every `gop` frames, empty payloads (the planner
/// never decodes).
fn context(gop: u64) -> PlanContext {
    let params = CodecParams::new(FrameType::yuv420p(64, 64), gop as u32, 2);
    let packets = (0..SRC_FRAMES)
        .map(|k| Packet::new(r(k as i64, 30), k % gop == 0, Default::default()))
        .collect();
    let stream = VideoStream::new(params, Rational::ZERO, r(1, 30), packets).unwrap();
    PlanContext::new().with_source("src", Arc::new(stream))
}

#[derive(Clone, Debug)]
enum Seg {
    Clip(u8, u8),
    Blur(u8, u8),
    Zoom(u8, u8),
    Grid(u8, u8),
}

fn seg_strategy() -> impl Strategy<Value = Seg> {
    // Starts up to frame 120, lengths up to 90 frames: four grid cells at
    // +0/+60/+120/+180 stay within the 400-frame source.
    prop_oneof![
        (0u8..120, 2u8..90).prop_map(|(s, l)| Seg::Clip(s, l)),
        (0u8..120, 2u8..90).prop_map(|(s, l)| Seg::Blur(s, l)),
        (0u8..120, 2u8..90).prop_map(|(s, l)| Seg::Zoom(s, l)),
        (0u8..120, 2u8..90).prop_map(|(s, l)| Seg::Grid(s, l)),
    ]
}

fn build(segs: &[Seg]) -> v2v_spec::Spec {
    let mut b = SpecBuilder::new(output()).video("src", "src.svc");
    for seg in segs {
        match *seg {
            Seg::Clip(s, l) => {
                b = b.append_clip("src", r(s as i64, 30), r(l as i64, 30));
            }
            Seg::Blur(s, l) => {
                b = b.append_filtered("src", r(s as i64, 30), r(l as i64, 30), |e| blur(e, 1.0));
            }
            Seg::Zoom(s, l) => {
                b = b.append_filtered("src", r(s as i64, 30), r(l as i64, 30), |e| {
                    zoom(blur(e, 0.5), 1.5)
                });
            }
            Seg::Grid(s, l) => {
                let start = s as i64;
                b = b.append_with(r(l as i64, 30), move |out_start| {
                    let cell = |off: i64| RenderExpr::FrameRef {
                        video: "src".into(),
                        time: v2v_time::AffineTimeMap::shift(r(start + off, 30) - out_start),
                    };
                    grid4(cell(0), cell(60), cell(120), cell(180))
                });
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lowering_covers_domain(segs in prop::collection::vec(seg_strategy(), 1..5)) {
        let spec = build(&segs);
        let plan = lower_spec(&spec).unwrap();
        prop_assert_eq!(plan.n_frames, spec.time_domain.count());
        // Segments tile the output contiguously.
        let mut expect = 0;
        for s in &plan.segments {
            prop_assert_eq!(s.out_start, expect);
            prop_assert!(s.count > 0);
            expect += s.count;
        }
        prop_assert_eq!(expect, plan.n_frames);
    }

    #[test]
    fn optimized_plans_are_valid(
        segs in prop::collection::vec(seg_strategy(), 1..5),
        gop in prop_oneof![Just(10u64), Just(30), Just(240)],
        stream_copy in any::<bool>(),
        smart_cut in any::<bool>(),
        shard in any::<bool>(),
    ) {
        let spec = build(&segs);
        let plan = lower_spec(&spec).unwrap();
        let ctx = context(gop);
        let config = OptimizerConfig {
            stream_copy,
            smart_cut,
            shard,
        };
        let phys = optimize(&plan, &ctx, &config).unwrap();
        prop_assert_eq!(phys.validate(), Ok(()));
        prop_assert_eq!(
            phys.stats.frames_rendered + phys.stats.frames_copied,
            phys.n_frames
        );
        if !stream_copy {
            prop_assert_eq!(phys.stats.frames_copied, 0);
        }
        // Explain never panics and mentions every copy.
        let text = explain_physical(&phys);
        prop_assert_eq!(
            text.matches("◆").count() as u64,
            phys.stats.copy_segments
        );
        let _ = explain_logical(&plan);
    }

    #[test]
    fn more_optimizations_never_render_more(
        segs in prop::collection::vec(seg_strategy(), 1..5),
        gop in prop_oneof![Just(10u64), Just(30)],
    ) {
        let spec = build(&segs);
        let plan = lower_spec(&spec).unwrap();
        let ctx = context(gop);
        let full = optimize(&plan, &ctx, &OptimizerConfig::default()).unwrap();
        let no_cut = optimize(
            &plan,
            &ctx,
            &OptimizerConfig { smart_cut: false, ..Default::default() },
        )
        .unwrap();
        let none = optimize(&plan, &ctx, &OptimizerConfig::fusion_only()).unwrap();
        prop_assert!(full.stats.frames_rendered <= no_cut.stats.frames_rendered);
        prop_assert!(no_cut.stats.frames_rendered <= none.stats.frames_rendered);
        prop_assert_eq!(none.stats.frames_rendered, none.n_frames);
    }
}
