//! The fault-injection matrix: degraded-mode execution under
//! deterministic faults.
//!
//! `ExecOptions::fault` injects I/O errors, corrupt packets, and
//! truncated reads at exact (video, source-frame) coordinates, so the
//! same fault fires identically whatever the scheduler does. This suite
//! pins the degraded-mode contract across `{serial, pipelined} ×
//! {batch, streaming}`:
//!
//! * zero-fault runs with a non-default policy stay byte-identical to
//!   the clean serial baseline (the fault layer is free when unused);
//! * a transient fault plus retry budget recovers to byte-identical
//!   output, reported as a `recovered` entry;
//! * a persistent fault under `Abort` fails the run;
//! * under `SkipSegment` the run completes minus the faulted frames,
//!   with a structured error report naming the hole;
//! * under `SubstituteBlack` the run completes at full length with
//!   black frames in the hole.
//!
//! The unit of recovery is the segment: a persistent fault degrades
//! exactly the faulted segment's frames, whatever the worker count.

use std::sync::Arc;
use v2v_container::VideoStream;
use v2v_exec::{
    execute, execute_streaming_with, execute_traced, Catalog, ErrorPolicy, ExecOptions,
    FaultInjector, FaultKind, SegmentFault,
};
use v2v_frame::{marker, Frame, FrameType};
use v2v_integration_tests::{marked_output, marked_stream};
use v2v_plan::{lower_spec, optimize, OptimizerConfig, PhysicalPlan};
use v2v_spec::builder::blur;
use v2v_spec::SpecBuilder;
use v2v_time::r;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(300, 30));
    c
}

/// copy(1s..3s) + blur(4s..6s) + copy(7s..8s): the middle render
/// segment decodes source frames 120..180, where faults are aimed.
fn plan(catalog: &Catalog) -> PhysicalPlan {
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(1, 1), r(2, 1))
        .append_filtered("src", r(4, 1), r(2, 1), |e| blur(e, 1.0))
        .append_clip("src", r(7, 1), r(1, 1))
        .build();
    let logical = lower_spec(&spec).unwrap();
    optimize(
        &logical,
        &catalog.plan_context(),
        &OptimizerConfig {
            // One render segment so fault extent is predictable.
            shard_min_frames: u64::MAX,
            ..Default::default()
        },
    )
    .unwrap()
}

/// A fault aimed at a source frame only the blur segment decodes.
const FAULTED_SOURCE_FRAME: u64 = 130;
/// The blur segment's place in the output.
const RENDER_OUT_START: usize = 60;
const RENDER_FRAMES: usize = 60;
const TOTAL_FRAMES: usize = 150;

/// The scheduler arms named by the acceptance matrix.
fn arms() -> Vec<(&'static str, ExecOptions)> {
    vec![
        (
            "serial",
            ExecOptions {
                parallel: false,
                ..Default::default()
            },
        ),
        (
            "pipelined",
            ExecOptions {
                num_threads: 4,
                ..Default::default()
            },
        ),
    ]
}

fn baseline(plan: &PhysicalPlan, catalog: &Catalog) -> VideoStream {
    let (out, _, _) = execute(
        plan,
        catalog,
        &ExecOptions {
            parallel: false,
            ..Default::default()
        },
    )
    .unwrap();
    out
}

#[test]
fn zero_fault_runs_with_policies_stay_byte_identical() {
    let catalog = catalog();
    let plan = plan(&catalog);
    let clean = baseline(&plan, &catalog);
    for policy in [ErrorPolicy::SkipSegment, ErrorPolicy::SubstituteBlack] {
        for (arm, base) in arms() {
            // An injector with no rules: the hook is armed but silent.
            let opts = ExecOptions {
                fault: Some(Arc::new(FaultInjector::new())),
                on_error: policy,
                max_retries: 3,
                ..base
            };
            let label = format!("{policy:?}/{arm}");
            let (batch, trace, _) = execute_traced(&plan, &catalog, &opts).unwrap();
            assert_eq!(clean.packets(), batch.packets(), "batch/{label}");
            assert!(trace.errors.is_empty(), "batch/{label}: spurious faults");
            assert_eq!(trace.totals.faults_injected, 0, "batch/{label}");

            let (streamed, stats) = execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
            assert_eq!(clean.packets(), streamed.packets(), "streaming/{label}");
            assert!(
                stats.errors.is_empty(),
                "streaming/{label}: spurious faults"
            );
        }
    }
}

#[test]
fn transient_fault_recovers_byte_identical_everywhere() {
    let catalog = catalog();
    let plan = plan(&catalog);
    let clean = baseline(&plan, &catalog);
    for kind in [
        FaultKind::Io,
        FaultKind::CorruptPacket,
        FaultKind::TruncatedRead,
    ] {
        for (arm, base) in arms() {
            // Fires once, then the retry succeeds — under every policy
            // the result must be the clean bytes, because recovery beat
            // the policy to it.
            let injector = FaultInjector::new().fail_times("src", FAULTED_SOURCE_FRAME, kind, 1);
            let opts = ExecOptions {
                fault: Some(Arc::new(injector)),
                on_error: ErrorPolicy::SkipSegment,
                max_retries: 3,
                ..base
            };
            let label = format!("{kind:?}/{arm}");
            let (out, trace, _) = execute_traced(&plan, &catalog, &opts).unwrap();
            assert_eq!(clean.packets(), out.packets(), "batch/{label}");
            assert_eq!(trace.totals.faults_injected, 1, "batch/{label}");
            assert!(
                trace.totals.retries >= 1,
                "batch/{label}: {:?}",
                trace.totals
            );
            let recovered: Vec<&SegmentFault> = trace
                .errors
                .iter()
                .filter(|f| f.action.name() == "recovered")
                .collect();
            assert_eq!(recovered.len(), 1, "batch/{label}: {:?}", trace.errors);
            assert_eq!(trace.totals.parts_skipped, 0, "batch/{label}");

            let injector = FaultInjector::new().fail_times("src", FAULTED_SOURCE_FRAME, kind, 1);
            let opts = ExecOptions {
                fault: Some(Arc::new(injector)),
                ..opts
            };
            let (streamed, stats) = execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
            assert_eq!(clean.packets(), streamed.packets(), "streaming/{label}");
            assert_eq!(stats.exec.faults_injected, 1, "streaming/{label}");
            assert_eq!(stats.errors.len(), 1, "streaming/{label}");
        }
    }
}

#[test]
fn persistent_fault_under_abort_fails_the_run() {
    let catalog = catalog();
    let plan = plan(&catalog);
    for (arm, base) in arms() {
        let injector = FaultInjector::new().fail("src", FAULTED_SOURCE_FRAME, FaultKind::Io);
        let opts = ExecOptions {
            fault: Some(Arc::new(injector)),
            on_error: ErrorPolicy::Abort,
            max_retries: 2,
            ..base
        };
        assert!(execute(&plan, &catalog, &opts).is_err(), "batch/{arm}");
        let injector = FaultInjector::new().fail("src", FAULTED_SOURCE_FRAME, FaultKind::Io);
        let opts = ExecOptions {
            fault: Some(Arc::new(injector)),
            ..opts
        };
        assert!(
            execute_streaming_with(&plan, &catalog, &opts, |_| {}).is_err(),
            "streaming/{arm}"
        );
    }
}

/// Shared checks on a skip-policy error report.
fn assert_skip_report(errors: &[SegmentFault], label: &str) {
    assert!(!errors.is_empty(), "{label}: no error report");
    for f in errors {
        assert_eq!(f.action.name(), "skipped", "{label}: {f:?}");
        assert_eq!(f.kind, "io", "{label}: {f:?}");
        assert!(f.retries >= 1, "{label}: {f:?}");
        assert!(!f.error.is_empty(), "{label}: {f:?}");
    }
}

#[test]
fn skip_segment_completes_with_a_reported_hole() {
    let catalog = catalog();
    let plan = plan(&catalog);
    let clean = baseline(&plan, &catalog);
    for (arm, base) in arms() {
        let mk = || FaultInjector::new().fail("src", FAULTED_SOURCE_FRAME, FaultKind::Io);
        let opts = ExecOptions {
            fault: Some(Arc::new(mk())),
            on_error: ErrorPolicy::SkipSegment,
            max_retries: 1,
            ..base
        };
        let (out, trace, _) = execute_traced(&plan, &catalog, &opts).unwrap();
        // The run completed; the hole is exactly the render segment.
        assert_eq!(clean.len(), TOTAL_FRAMES);
        assert_eq!(out.len(), TOTAL_FRAMES - RENDER_FRAMES, "batch/{arm}");
        assert_eq!(trace.totals.parts_skipped, 1, "batch/{arm}");
        assert_skip_report(&trace.errors, &format!("batch/{arm}"));
        // The surviving copy segments are intact: first and last output
        // frames still carry their source markers.
        let (frames, _) = out.decode_range(0, 1).unwrap();
        assert_eq!(marker::read(&frames[0]), Some(30), "batch/{arm}");

        let opts = ExecOptions {
            fault: Some(Arc::new(mk())),
            ..opts
        };
        let mut sunk = 0usize;
        let (streamed, stats) =
            execute_streaming_with(&plan, &catalog, &opts, |_| sunk += 1).unwrap();
        assert_eq!(streamed.len(), sunk, "streaming/{arm}: sink diverged");
        assert!(streamed.len() < clean.len(), "streaming/{arm}");
        assert_skip_report(&stats.errors, &format!("streaming/{arm}"));
    }
}

#[test]
fn substitute_black_completes_at_full_length() {
    let catalog = catalog();
    let plan = plan(&catalog);
    let clean = baseline(&plan, &catalog);
    let black = Frame::black(FrameType::gray8(64, 32));
    for (arm, base) in arms() {
        let mk = || FaultInjector::new().fail("src", FAULTED_SOURCE_FRAME, FaultKind::Io);
        let opts = ExecOptions {
            fault: Some(Arc::new(mk())),
            on_error: ErrorPolicy::SubstituteBlack,
            max_retries: 1,
            ..base
        };
        let (out, trace, _) = execute_traced(&plan, &catalog, &opts).unwrap();
        assert_eq!(
            out.len(),
            clean.len(),
            "batch/{arm}: output not hole-filled"
        );
        assert!(trace.totals.parts_substituted >= 1, "batch/{arm}");
        assert!(
            trace.totals.frames_substituted >= 1
                && trace.totals.frames_substituted <= RENDER_FRAMES as u64,
            "batch/{arm}: {:?}",
            trace.totals
        );
        for f in &trace.errors {
            assert_eq!(f.action.name(), "substituted_black", "batch/{arm}: {f:?}");
        }
        // The copy segments are untouched; inside the render segment the
        // substituted frames are pure black (the faulted source marker
        // can no longer appear).
        let (frames, _) = out.decode_range(0, out.len()).unwrap();
        assert_eq!(marker::read(&frames[0]), Some(30), "batch/{arm}");
        assert_eq!(
            marker::read(&frames[TOTAL_FRAMES - 1]),
            Some(239),
            "batch/{arm}"
        );
        let substituted = frames[RENDER_OUT_START..RENDER_OUT_START + RENDER_FRAMES]
            .iter()
            .filter(|f| **f == black)
            .count() as u64;
        assert!(
            substituted >= trace.totals.frames_substituted,
            "batch/{arm}: {substituted} black frames vs {:?}",
            trace.totals
        );

        let opts = ExecOptions {
            fault: Some(Arc::new(mk())),
            ..opts
        };
        let (streamed, stats) = execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
        assert_eq!(streamed.len(), clean.len(), "streaming/{arm}");
        assert!(stats.exec.parts_substituted >= 1, "streaming/{arm}");
        assert!(!stats.errors.is_empty(), "streaming/{arm}");
    }
}

#[test]
fn degraded_extent_is_the_whole_segment_at_any_thread_count() {
    let catalog = catalog();
    let plan = plan(&catalog);
    for threads in [1usize, 4, 8] {
        let injector = FaultInjector::new().fail("src", FAULTED_SOURCE_FRAME, FaultKind::Io);
        let opts = ExecOptions {
            fault: Some(Arc::new(injector)),
            on_error: ErrorPolicy::SubstituteBlack,
            max_retries: 1,
            num_threads: threads,
            ..Default::default()
        };
        let (_, trace, _) = execute_traced(&plan, &catalog, &opts).unwrap();
        let extents: Vec<(u64, u64)> = trace
            .errors
            .iter()
            .map(|f| (f.abs_start, f.frames))
            .collect();
        assert_eq!(
            extents,
            [(RENDER_OUT_START as u64, RENDER_FRAMES as u64)],
            "threads={threads}"
        );
        assert_eq!(trace.totals.frames_substituted, RENDER_FRAMES as u64);
    }
}

#[test]
fn fault_report_round_trips_through_the_engine() {
    // End-to-end: the engine surfaces the structured report on
    // RunReport.errors, the exec.faults.* counters land in the trace
    // metrics, and the artifact survives JSON.
    use v2v_core::{EngineConfig, V2vEngine};
    let catalog = catalog();
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(1, 1), r(2, 1))
        .append_filtered("src", r(4, 1), r(2, 1), |e| blur(e, 1.0))
        .append_clip("src", r(7, 1), r(1, 1))
        .build();
    let injector = FaultInjector::new().fail("src", FAULTED_SOURCE_FRAME, FaultKind::Io);
    let config = EngineConfig {
        exec: ExecOptions {
            fault: Some(Arc::new(injector)),
            on_error: ErrorPolicy::SubstituteBlack,
            max_retries: 1,
            parallel: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut engine = V2vEngine::new(catalog).with_config(config);
    let (report, trace) = engine.run_traced(&spec).unwrap();
    assert!(!report.errors.is_empty(), "RunReport.errors empty");
    assert_eq!(report.errors, trace.exec.errors);
    assert!(trace.metrics.counter("exec.faults.injected") >= 1);
    assert!(trace.metrics.counter("exec.faults.parts_substituted") >= 1);
    assert_eq!(
        trace.metrics.counter("exec.faults.frames_substituted"),
        report.stats.frames_substituted
    );
    let back = v2v_core::RunTrace::from_json(&trace.to_json()).unwrap();
    assert_eq!(back, trace);
}

/// A 4 s → 6 s blur of a 10 s source whose first GOP is 240 frames: the
/// run reads source frames 120..=179, so frame 179 is the read reach of
/// GOP 0 and frames 180..=239 are never decoded.
fn long_gop_plan() -> (Catalog, PhysicalPlan) {
    let mut catalog = Catalog::new();
    catalog.add_video("src", marked_stream(300, 240));
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(4, 1), r(2, 1), |e| blur(e, 1.0))
        .build();
    let plan = optimize(
        &lower_spec(&spec).unwrap(),
        &catalog.plan_context(),
        &OptimizerConfig::default(),
    )
    .unwrap();
    (catalog, plan)
}

const LONG_GOP_REACH: u64 = 179;

#[test]
fn faults_fire_only_on_frames_the_query_reads() {
    let (catalog, plan) = long_gop_plan();
    let clean = baseline(&plan, &catalog);
    for threads in [1usize, 2, 8] {
        let run = |injector: FaultInjector| {
            let opts = ExecOptions {
                fault: Some(Arc::new(injector)),
                on_error: ErrorPolicy::SkipSegment,
                max_retries: 3,
                num_threads: threads,
                ..Default::default()
            };
            execute_traced(&plan, &catalog, &opts).unwrap()
        };
        // Past the reach: the rule never fires, the bytes are clean.
        let (out, trace, _) =
            run(FaultInjector::new().fail("src", LONG_GOP_REACH + 1, FaultKind::Io));
        assert_eq!(clean.packets(), out.packets(), "threads={threads}");
        assert_eq!(trace.totals.faults_injected, 0, "threads={threads}");
        assert!(
            trace.errors.is_empty(),
            "threads={threads}: {:?}",
            trace.errors
        );

        // Inside the read span: fires once, the retry recovers.
        let (out, trace, _) =
            run(FaultInjector::new().fail_times("src", FAULTED_SOURCE_FRAME, FaultKind::Io, 1));
        assert_eq!(clean.packets(), out.packets(), "threads={threads}");
        assert_eq!(trace.totals.faults_injected, 1, "threads={threads}");
        let actions: Vec<&str> = trace.errors.iter().map(|f| f.action.name()).collect();
        assert_eq!(actions, ["recovered"], "threads={threads}");
    }
}
