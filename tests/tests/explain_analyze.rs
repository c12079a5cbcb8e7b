//! `EXPLAIN ANALYZE` ground truth: the measured per-operator metrics
//! must equal what the plan provably does.
//!
//! The spec is built so every operator's cost is knowable by hand:
//! a keyframe-aligned 1 s clip (30 copied packets, zero raster work)
//! spliced with a 1 s blurred clip over exactly one source GOP
//! (30 decoded, 30 encoded frames). Serial execution keeps the counts
//! deterministic.

use v2v_core::{EngineConfig, V2vEngine};
use v2v_exec::Catalog;
use v2v_integration_tests::{marked_output, marked_stream};
use v2v_spec::builder::blur;
use v2v_spec::SpecBuilder;
use v2v_time::{r, Rational};

fn engine() -> V2vEngine {
    let mut catalog = Catalog::new();
    catalog.add_video("src", marked_stream(120, 30));
    let mut config = EngineConfig::default();
    config.exec.parallel = false;
    V2vEngine::new(catalog).with_config(config)
}

#[test]
fn analyze_counts_equal_ground_truth() {
    let mut engine = engine();
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        // Frames 30..60 of the source: starts on a keyframe → pure copy.
        .append_clip("src", r(1, 1), Rational::from_int(1))
        // Frames 60..90 blurred: exactly the GOP at keyframe 60.
        .append_filtered("src", r(2, 1), Rational::from_int(1), |e| blur(e, 1.0))
        .build();
    let report = engine.explain_analyze(&spec).unwrap();

    assert_eq!(report.output_frames, 60);
    assert_eq!(report.exec.segments.len(), 2, "{:#?}", report.exec.segments);

    let copy = &report.exec.segments[0];
    assert_eq!(copy.kind, "stream_copy");
    assert_eq!(copy.out_start, 0);
    assert_eq!(copy.frames, 30);
    assert_eq!(copy.stats.packets_copied, 30);
    assert_eq!(copy.stats.frames_decoded, 0);
    assert_eq!(copy.stats.frames_encoded, 0);
    assert!(copy.stats.bytes_copied > 0);

    let render = &report.exec.segments[1];
    assert_eq!(render.kind, "render");
    assert_eq!(render.out_start, 30);
    assert_eq!(render.frames, 30);
    assert_eq!(render.stats.packets_copied, 0);
    assert_eq!(
        render.stats.frames_decoded, 30,
        "the blur reads exactly one 30-frame GOP"
    );
    assert_eq!(render.stats.frames_encoded, 30);
    assert_eq!(render.stats.seeks, 1, "one keyframe entry at frame 60");
    assert!(render.stats.bytes_decoded > 0);
    assert!(render.stats.bytes_encoded > 0);

    // Totals are exactly the segment sums (plus once-per-run cache
    // accounting: the single GOP decode is the only cache miss).
    let t = report.stats();
    assert_eq!(t.segments, 2);
    assert_eq!(t.frames_decoded, 30);
    assert_eq!(t.frames_encoded, 30);
    assert_eq!(t.packets_copied, 30);
    assert_eq!(t.gop_cache_misses, 1);
    assert_eq!(t.gop_cache_hits, 0);

    // The planning side of the report agrees with what executed.
    assert_eq!(report.explain.trace.fired("stream_copy"), 1);
    assert_eq!(report.explain.plan_stats.frames_copied, 30);
    assert_eq!(report.explain.plan_stats.frames_rendered, 30);

    // And the run-level counts match a plain `run` of the same spec.
    let mut engine2 = engine_clone();
    let run = engine2.run(&spec).unwrap();
    assert_eq!(run.stats, t);
}

fn engine_clone() -> V2vEngine {
    engine()
}

#[test]
fn analyze_matches_trace_artifact() {
    // `explain_analyze` and `run_traced` must tell the same story.
    let mut a = engine();
    let mut b = engine();
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(1, 2), Rational::from_int(2))
        .build();
    let analyze = a.explain_analyze(&spec).unwrap();
    let (_, trace) = b.run_traced(&spec).unwrap();
    assert_eq!(analyze.exec.totals, trace.exec.totals);
    assert_eq!(
        analyze.explain.trace.rules_fired(),
        trace.rewrites.rules_fired()
    );
}
