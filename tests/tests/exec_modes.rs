//! Byte-identity across every execution mode.
//!
//! The scheduler may reorder and pipeline work at runtime, but the
//! output container must stay *byte-identical* to the serial
//! executor's — per-GOP encode lanes start on output-GOP boundaries and
//! packets are re-stamped onto the presentation grid, so no arm is
//! allowed to change a single payload byte. This suite pins that
//! invariant over the full `{batch, streaming} × {serial, pipelined} ×
//! {1, 2, 8 threads}` matrix on adversarial plan shapes:
//!
//! * 1-frame render segments (shorter than any GOP window),
//! * many small segments (segment count ≫ worker count),
//! * a single giant render segment (a lone unsharded segment composed
//!   and encoded at `fanout` = the whole pool),
//!
//! plus a proptest arm over randomly shaped specs.

use proptest::prelude::*;
use v2v_container::VideoStream;
use v2v_exec::{execute, execute_streaming_with, Catalog, ExecOptions};
use v2v_integration_tests::{marked_output, marked_stream};
use v2v_plan::{lower_spec, optimize, OptimizerConfig, PhysicalPlan};
use v2v_spec::builder::blur;
use v2v_spec::{Spec, SpecBuilder};
use v2v_time::r;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(300, 30));
    c
}

fn plan_of(spec: &Spec, catalog: &Catalog, cfg: &OptimizerConfig) -> PhysicalPlan {
    let logical = lower_spec(spec).unwrap();
    optimize(&logical, catalog.plan_context(), cfg).unwrap()
}

/// The adversarial plan shapes, as `(name, plan)`.
fn adversarial_plans(catalog: &Catalog) -> Vec<(&'static str, PhysicalPlan)> {
    // Ten 1-frame mid-GOP clips: every segment renders exactly one
    // frame.
    let mut one_frame = SpecBuilder::new(marked_output()).video("src", "src.svc");
    for i in 0..10 {
        one_frame = one_frame.append_clip("src", r(7 + 13 * i, 30), r(1, 30));
    }
    // Mixed copy/render plan with many segments (default sharding keeps
    // render segments small, so segment count ≫ a small worker pool).
    let many_small = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(1, 1), r(2, 1))
        .append_filtered("src", r(0, 1), r(4, 1), |e| blur(e, 1.0))
        .append_clip("src", r(1, 2), r(3, 2))
        .build();
    // One giant render segment: disable static sharding so the whole
    // 8-second blur is a single segment; under 8 threads it runs at
    // fanout 8 and must still match the serial bytes.
    let giant = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(1, 1), r(8, 1), |e| blur(e, 1.0))
        .build();
    vec![
        (
            "one_frame_segments",
            plan_of(&one_frame.build(), catalog, &OptimizerConfig::default()),
        ),
        (
            "many_small_segments",
            plan_of(&many_small, catalog, &OptimizerConfig::default()),
        ),
        (
            "single_giant_render",
            plan_of(
                &giant,
                catalog,
                &OptimizerConfig {
                    shard: false,
                    ..Default::default()
                },
            ),
        ),
    ]
}

/// The executor arms: every scheduler feature toggled separately.
fn arms() -> Vec<(&'static str, ExecOptions)> {
    vec![
        (
            "serial",
            ExecOptions {
                parallel: false,
                ..Default::default()
            },
        ),
        ("pipelined", ExecOptions::default()),
    ]
}

fn assert_same_stream(label: &str, baseline: &VideoStream, got: &VideoStream) {
    assert_eq!(
        baseline.packets(),
        got.packets(),
        "{label}: packet stream diverged from the serial baseline"
    );
}

#[test]
fn all_modes_are_byte_identical() {
    let catalog = catalog();
    for (plan_name, plan) in adversarial_plans(&catalog) {
        let (baseline, _, _) = execute(
            &plan,
            &catalog,
            &ExecOptions {
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        for (arm_name, base_opts) in arms() {
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions {
                    num_threads: threads,
                    ..base_opts.clone()
                };
                let label = format!("{plan_name}/{arm_name}/threads={threads}");
                let (batch, _, _) = execute(&plan, &catalog, &opts).unwrap();
                assert_same_stream(&format!("batch/{label}"), &baseline, &batch);

                let mut sunk: Vec<v2v_codec::Packet> = Vec::new();
                let (streamed, _) =
                    execute_streaming_with(&plan, &catalog, &opts, |p| sunk.push(p.clone()))
                        .unwrap();
                assert_same_stream(&format!("streaming/{label}"), &baseline, &streamed);
                // The sink saw the same packets, already on the
                // presentation grid, in presentation order.
                assert_eq!(
                    baseline.packets(),
                    &sunk[..],
                    "streaming sink/{label}: sink packets diverged"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random clip/blur mixes: scheduler arms agree with serial bytes.
    #[test]
    fn random_specs_are_mode_independent(
        segs in prop::collection::vec((0u8..200, 1u8..70, any::<bool>()), 1..5),
        threads in 1usize..5,
    ) {
        let catalog = catalog();
        let mut b = SpecBuilder::new(marked_output()).video("src", "src.svc");
        for (start, len, filtered) in &segs {
            let start = r(*start as i64, 30);
            let len = r(*len as i64, 30);
            // Keep clips inside the 10 s source.
            if (start + len) > r(300, 30) {
                continue;
            }
            b = if *filtered {
                b.append_filtered("src", start, len, |e| blur(e, 0.8))
            } else {
                b.append_clip("src", start, len)
            };
        }
        let spec = b.build();
        if spec.time_domain.is_empty() {
            return Ok(());
        }
        let plan = plan_of(&spec, &catalog, &OptimizerConfig::default());
        let (baseline, _, _) = execute(&plan, &catalog, &ExecOptions {
            parallel: false,
            ..Default::default()
        }).unwrap();
        let opts = ExecOptions { num_threads: threads, ..Default::default() };
        let (batch, _, _) = execute(&plan, &catalog, &opts).unwrap();
        prop_assert_eq!(baseline.packets(), batch.packets());
        let (streamed, _) = execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
        prop_assert_eq!(baseline.packets(), streamed.packets());
    }
}

/// A 20 s source with 8 s GOPs: keyframes at frames 0, 240 and 480, so
/// a render's roll-in and its read reach sit deep inside a GOP.
fn long_gop_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(600, 240));
    c
}

/// Read shapes whose GOP prefixes differ from whole GOPs.
fn long_gop_plans(catalog: &Catalog) -> Vec<(&'static str, PhysicalPlan)> {
    use v2v_spec::builder::grid4;
    use v2v_spec::RenderExpr;
    use v2v_time::{AffineTimeMap, TimeRange, TimeSet};
    // Four grid cells reading GOP 0 at four phases.
    let grid = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_with(r(2, 1), |_| {
            grid4(
                RenderExpr::video("src"),
                RenderExpr::video_shifted("src", r(37, 30)),
                RenderExpr::video_shifted("src", r(3, 1)),
                RenderExpr::video_shifted("src", r(1, 2)),
            )
        })
        .build();
    // 7 s → 9 s reads across the keyframe at 8 s.
    let crossing = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(7, 1), r(2, 1), |e| blur(e, 1.0))
        .build();
    // vid[2·t] over [3 s, 5 s): every other frame of 6 s → 10 s, so the
    // last read of GOP 0 is one frame short of its end.
    let retimed = Spec {
        time_domain: TimeSet::from_range(TimeRange::new(r(3, 1), r(5, 1), r(1, 30))),
        render: RenderExpr::FrameRef {
            video: "src".into(),
            time: AffineTimeMap::retime(r(2, 1)),
        },
        videos: [("src".to_string(), "src.svc".to_string())].into(),
        data_arrays: Default::default(),
        output: marked_output(),
    };
    vec![
        (
            "grid_in_one_gop",
            plan_of(&grid, catalog, &OptimizerConfig::default()),
        ),
        (
            "range_across_keyframe",
            plan_of(&crossing, catalog, &OptimizerConfig::default()),
        ),
        (
            "retime_2",
            plan_of(&retimed, catalog, &OptimizerConfig::default()),
        ),
    ]
}

#[test]
fn long_gop_shapes_are_byte_identical_with_the_gop_cache_on_and_off() {
    let catalog = long_gop_catalog();
    for (plan_name, plan) in long_gop_plans(&catalog) {
        let (baseline, _, _) = execute(
            &plan,
            &catalog,
            &ExecOptions {
                parallel: false,
                gop_cache_frames: 0,
                ..Default::default()
            },
        )
        .unwrap();
        for gop_cache_frames in [4096, 0] {
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions {
                    num_threads: threads,
                    gop_cache_frames,
                    ..Default::default()
                };
                let label = format!("{plan_name}/cache={gop_cache_frames}/threads={threads}");
                let (batch, _, _) = execute(&plan, &catalog, &opts).unwrap();
                assert_same_stream(&format!("batch/{label}"), &baseline, &batch);
                let (streamed, _) = execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
                assert_same_stream(&format!("streaming/{label}"), &baseline, &streamed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random clip/blur windows on the long-GOP source: the GOP cache
    /// changes no byte and never decodes more than private rolling.
    #[test]
    fn gop_cache_never_decodes_more_than_private_rolling(
        segs in prop::collection::vec((0u16..560, 1u8..90, any::<bool>()), 1..4),
        threads in 1usize..5,
    ) {
        let catalog = long_gop_catalog();
        let mut b = SpecBuilder::new(marked_output()).video("src", "src.svc");
        for (start, len, filtered) in &segs {
            let start = r(i64::from(*start), 30);
            let len = r(i64::from(*len), 30);
            if (start + len) > r(600, 30) {
                continue;
            }
            b = if *filtered {
                b.append_filtered("src", start, len, |e| blur(e, 0.8))
            } else {
                b.append_clip("src", start, len)
            };
        }
        let spec = b.build();
        if spec.time_domain.is_empty() {
            return Ok(());
        }
        let plan = plan_of(&spec, &catalog, &OptimizerConfig::default());
        let run = |gop_cache_frames| {
            let opts = ExecOptions { num_threads: threads, gop_cache_frames, ..Default::default() };
            execute(&plan, &catalog, &opts).unwrap()
        };
        let ((on, on_stats, _), (off, off_stats, _)) = (run(4096), run(0));
        prop_assert_eq!(on.content_digest(), off.content_digest());
        prop_assert!(
            on_stats.frames_decoded <= off_stats.frames_decoded,
            "cache on decoded {} frames, off {}",
            on_stats.frames_decoded,
            off_stats.frames_decoded
        );
    }
}
