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
//!   black frames in the hole;
//! * a fault on a frame two decode lanes share fires once per attempt,
//!   exactly as on one worker, and a compose error mid-segment is
//!   returned at any width — under a watchdog, so a hang fails;
//! * a streaming render hands its first output GOP to the sink before
//!   the segment ends, sinks it once across a retry under `Abort`, and
//!   sinks nothing early under the policies that replace a segment.
//!
//! The unit of recovery is the segment: a persistent fault degrades
//! exactly the faulted segment's frames, whatever the worker count.

use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;
use v2v_codec::Packet;
use v2v_container::VideoStream;
use v2v_data::Value;
use v2v_exec::{
    execute, execute_streaming_with, Catalog, ErrorPolicy, ExecOptions, FaultInjector, FaultKind,
    SegmentFault,
};
use v2v_frame::{marker, Frame, FrameType};
use v2v_integration_tests::{marked_output, marked_stream};
use v2v_plan::{lower_spec, optimize, OptimizerConfig, PhysicalPlan};
use v2v_spec::builder::{blur, grid4};
use v2v_spec::{Arg, ArgKind, RenderExpr, SpecBuilder, TransformOp};
use v2v_time::{r, Rational};

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
        catalog.plan_context(),
        &OptimizerConfig {
            // One render segment so fault extent is predictable.
            shard: false,
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
            let (batch, trace, _) = execute(&plan, &catalog, &opts).unwrap();
            assert_eq!(clean.packets(), batch.packets(), "batch/{label}");
            assert!(trace.errors.is_empty(), "batch/{label}: spurious faults");
            assert_eq!(trace.totals.faults_injected, 0, "batch/{label}");

            let (streamed, streaming, _) =
                execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
            assert_eq!(clean.packets(), streamed.packets(), "streaming/{label}");
            assert!(
                streaming.errors.is_empty(),
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
            let (out, trace, _) = execute(&plan, &catalog, &opts).unwrap();
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
            let (streamed, streaming, _) =
                execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
            assert_eq!(clean.packets(), streamed.packets(), "streaming/{label}");
            assert_eq!(streaming.totals.faults_injected, 1, "streaming/{label}");
            assert_eq!(streaming.errors.len(), 1, "streaming/{label}");
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
        let (out, trace, _) = execute(&plan, &catalog, &opts).unwrap();
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
        let (streamed, streaming, _) =
            execute_streaming_with(&plan, &catalog, &opts, |_| sunk += 1).unwrap();
        assert_eq!(streamed.len(), sunk, "streaming/{arm}: sink diverged");
        assert!(streamed.len() < clean.len(), "streaming/{arm}");
        assert_skip_report(&streaming.errors, &format!("streaming/{arm}"));
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
        let (out, trace, _) = execute(&plan, &catalog, &opts).unwrap();
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
        let (streamed, streaming, _) =
            execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
        assert_eq!(streamed.len(), clean.len(), "streaming/{arm}");
        assert!(streaming.totals.parts_substituted >= 1, "streaming/{arm}");
        assert!(!streaming.errors.is_empty(), "streaming/{arm}");
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
        let (_, trace, _) = execute(&plan, &catalog, &opts).unwrap();
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
    assert!(trace.exec.totals.faults_injected >= 1);
    assert!(trace.exec.totals.parts_substituted >= 1);
    assert_eq!(
        trace.exec.totals.frames_substituted,
        report.stats.frames_substituted
    );
    let back = v2v_core::RunTrace::from_json(&trace.to_json()).unwrap();
    assert_eq!(back, trace);
}

/// A degraded segment's `kind` is the name the unified error taxonomy
/// gives the same failure: a bounding box over an array holding a
/// number fails with `BadArgument`, an `invalid_request`.
#[test]
fn a_skipped_segment_reports_the_unified_error_kind() {
    let mut catalog = catalog();
    let mut boxes = v2v_data::DataArray::new();
    for i in 0..60 {
        boxes.insert(r(i, 30), Value::Int(7));
    }
    catalog.add_array("bb", boxes);
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .data_array("bb", "catalog")
        .append_filtered("src", r(4, 1), r(2, 1), |e| {
            v2v_spec::builder::bounding_box(e, "bb")
        })
        .build();
    let plan = optimize(
        &lower_spec(&spec).unwrap(),
        catalog.plan_context(),
        &OptimizerConfig::default(),
    )
    .unwrap();
    for (arm, base) in arms() {
        let err = execute(&plan, &catalog, &base).expect_err(arm);
        assert!(
            matches!(err, v2v_exec::ExecError::BadArgument { .. }),
            "{arm}: {err}"
        );
        let unified = v2v_core::V2vError::from(err).kind().name();
        let opts = ExecOptions {
            on_error: ErrorPolicy::SkipSegment,
            ..base
        };
        let (_, trace, _) = execute(&plan, &catalog, &opts).unwrap();
        assert!(!trace.errors.is_empty(), "{arm}: no error report");
        for f in &trace.errors {
            assert_eq!(f.kind, unified, "{arm}: {f:?}");
        }
    }
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
        catalog.plan_context(),
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
            execute(&plan, &catalog, &opts).unwrap()
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

/// A `secs`-second 2×2 grid over one 300-frame source whose cells share
/// GOPs: from `base` seconds on, cells 0 and 1 read a frame apart (from
/// 4 s, both touch frame 130), cells 2 and 3 one and two seconds later.
/// One unsharded segment, so on more than one worker each cell decodes
/// on its own lane and the lanes grow the same GOP prefixes.
fn shared_gop_grid(
    catalog: &Catalog,
    base: i64,
    secs: i64,
    top: impl Fn(RenderExpr) -> RenderExpr,
) -> PhysicalPlan {
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_with(r(secs, 1), |_| {
            top(grid4(
                RenderExpr::video_shifted("src", r(base, 1)),
                RenderExpr::video_shifted("src", r(base * 30 + 1, 30)),
                RenderExpr::video_shifted("src", r(base + 1, 1)),
                RenderExpr::video_shifted("src", r(base + 2, 1)),
            ))
        })
        .build();
    let config = OptimizerConfig {
        shard: false,
        ..Default::default()
    };
    let plan = optimize(&lower_spec(&spec).unwrap(), catalog.plan_context(), &config).unwrap();
    assert_eq!(plan.segments.len(), 1, "test premise: one render segment");
    plan
}

/// Runs `f` on a thread of its own and fails the test unless it returns
/// within two minutes: a hung render fails here instead of stalling CI.
fn watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|e| panic!("{label}: the run hung or panicked ({e})"))
}

/// What a run shows of a fault: the output bytes or the error, the
/// error report, and the faults the injector fired.
type FaultOutcome = (Result<Vec<Packet>, String>, Vec<SegmentFault>, u64);

#[test]
fn a_fault_on_a_frame_two_lanes_read_fires_as_on_one_worker() {
    let catalog = Arc::new(catalog());
    let plan = Arc::new(shared_gop_grid(&catalog, 4, 2, |e| e));
    type Rule = fn() -> FaultInjector;
    let rules: [(&str, Rule); 2] = [
        ("fail", || {
            FaultInjector::new().fail("src", FAULTED_SOURCE_FRAME, FaultKind::Io)
        }),
        ("fail_times_1", || {
            FaultInjector::new().fail_times("src", FAULTED_SOURCE_FRAME, FaultKind::Io, 1)
        }),
    ];
    for (rule_name, rule) in rules {
        for policy in [
            ErrorPolicy::Abort,
            ErrorPolicy::SkipSegment,
            ErrorPolicy::SubstituteBlack,
        ] {
            let run = |threads: usize| -> FaultOutcome {
                let label = format!("{rule_name}/{policy:?}/threads={threads}");
                let (catalog, plan) = (Arc::clone(&catalog), Arc::clone(&plan));
                watchdog(&label, move || {
                    let injector = Arc::new(rule());
                    let opts = ExecOptions {
                        fault: Some(Arc::clone(&injector)),
                        on_error: policy,
                        max_retries: 2,
                        num_threads: threads,
                        ..Default::default()
                    };
                    match execute(&plan, &catalog, &opts) {
                        Ok((out, trace, _)) => {
                            assert_eq!(trace.totals.faults_injected, injector.injections());
                            (
                                Ok(out.packets().to_vec()),
                                trace.errors,
                                injector.injections(),
                            )
                        }
                        Err(e) => (Err(e.to_string()), Vec::new(), injector.injections()),
                    }
                })
            };
            let reference = run(1);
            let fired = if rule_name == "fail" { 3 } else { 1 };
            assert_eq!(
                reference.2, fired,
                "{rule_name}/{policy:?}: one touch per attempt"
            );
            for threads in [2, 8] {
                let label = format!("{rule_name}/{policy:?}/threads={threads}");
                let got = run(threads);
                assert_eq!(got.0, reference.0, "{label}: bytes or error");
                assert_eq!(got.1, reference.1, "{label}: error report");
                assert_eq!(got.2, reference.2, "{label}: faults injected");
            }
        }
    }
}

const FAILING_UDF: u16 = 77;

/// Passes its frame through for the first output second, then fails.
fn fails_after_one_second(t: Rational, frames: &[Frame], _: &[Value]) -> Result<Frame, String> {
    if t < r(1, 1) {
        Ok(frames[0].clone())
    } else {
        Err("kernel gave up".into())
    }
}

/// Six seconds, so the decode side runs far enough ahead to fill its
/// channels once the workers stop: a producer left blocked on a full
/// channel would hang the run.
#[test]
fn a_compose_error_mid_segment_is_returned_at_any_thread_count() {
    let mut catalog = catalog();
    catalog.register_udf(
        FAILING_UDF,
        "fails_after_one_second",
        vec![ArgKind::Frame],
        Arc::new(fails_after_one_second),
    );
    let udf = |e| RenderExpr::transform(TransformOp::Udf(FAILING_UDF), vec![Arg::Frame(e)]);
    let single = {
        let spec = SpecBuilder::new(marked_output())
            .video("src", "src.svc")
            .append_filtered("src", r(0, 1), r(6, 1), udf)
            .build();
        let config = OptimizerConfig {
            shard: false,
            ..Default::default()
        };
        optimize(&lower_spec(&spec).unwrap(), catalog.plan_context(), &config).unwrap()
    };
    let plans = [
        ("grid", Arc::new(shared_gop_grid(&catalog, 0, 6, udf))),
        ("single", Arc::new(single)),
    ];
    let catalog = Arc::new(catalog);
    for ((shape, plan), threads) in plans.iter().flat_map(|p| [1usize, 2, 8].map(|t| (p, t))) {
        for policy in [ErrorPolicy::Abort, ErrorPolicy::SubstituteBlack] {
            let label = format!("{shape}/{policy:?}/threads={threads}");
            let (catalog, plan) = (Arc::clone(&catalog), Arc::clone(plan));
            let result = watchdog(&label, move || {
                let opts = ExecOptions {
                    on_error: policy,
                    num_threads: threads,
                    ..Default::default()
                };
                execute(&plan, &catalog, &opts).map(|(out, trace, _)| (out.len(), trace.errors))
            });
            match policy {
                ErrorPolicy::Abort => {
                    let err = result.expect_err(&label).to_string();
                    assert!(err.contains("kernel gave up"), "{label}: {err}");
                }
                _ => {
                    let (len, errors) = result.unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(len, 180, "{label}: hole filled");
                    assert_eq!(errors.len(), 1, "{label}: {errors:?}");
                    assert!(errors[0].error.contains("kernel gave up"), "{label}");
                }
            }
        }
    }
}

/// A 2 s blur of the source from 4 s: one segment of two 30-frame output
/// GOPs. Output GOP 0 reads source frames 120..150 and GOP 1 150..180,
/// each its own source GOP.
fn two_gop_plan(catalog: &Catalog) -> PhysicalPlan {
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(4, 1), r(2, 1), |e| blur(e, 1.0))
        .build();
    let config = OptimizerConfig {
        shard: false,
        ..Default::default()
    };
    let plan = optimize(&lower_spec(&spec).unwrap(), catalog.plan_context(), &config).unwrap();
    assert_eq!(plan.segments.len(), 1, "test premise: one render segment");
    plan
}

/// A source frame only output GOP 1 of [`two_gop_plan`] reads.
const GOP_1_SOURCE_FRAME: u64 = 160;

#[test]
fn an_early_gop_is_sunk_once_and_only_where_the_segment_cannot_be_replaced() {
    let catalog = catalog();
    let plan = two_gop_plan(&catalog);
    let clean = baseline(&plan, &catalog);
    for threads in [2usize, 8] {
        let run = |injector: FaultInjector, policy: ErrorPolicy| {
            let opts = ExecOptions {
                fault: Some(Arc::new(injector)),
                on_error: policy,
                num_threads: threads,
                ..Default::default()
            };
            let mut sunk = Vec::new();
            let (out, trace, _) =
                execute_streaming_with(&plan, &catalog, &opts, |p| sunk.push(p.clone())).unwrap();
            (out, trace, sunk)
        };
        // A transient fault in GOP 1: the retry re-sends GOP 0, which the
        // sink must not see twice.
        let transient =
            FaultInjector::new().fail_times("src", GOP_1_SOURCE_FRAME, FaultKind::Io, 1);
        let (out, trace, sunk) = run(transient, ErrorPolicy::Abort);
        assert_eq!(trace.totals.retries, 1, "threads={threads}");
        assert_eq!(clean.packets(), out.packets(), "threads={threads}");
        assert_eq!(clean.packets(), &sunk[..], "threads={threads}: sink");

        // A persistent fault in GOP 1: the whole segment is replaced, so
        // an early GOP 0 would have leaked into the sink.
        for policy in [ErrorPolicy::SkipSegment, ErrorPolicy::SubstituteBlack] {
            let label = format!("{policy:?}/threads={threads}");
            let persistent = FaultInjector::new().fail("src", GOP_1_SOURCE_FRAME, FaultKind::Io);
            let (out, trace, sunk) = run(persistent, policy);
            assert_eq!(trace.errors.len(), 1, "{label}");
            assert_eq!(out.packets(), &sunk[..], "{label}: sink");
        }
    }
}

const GATE_UDF: u16 = 78;

/// Raised by the sink on its first packet; waited on by [`GATE_UDF`].
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    /// Waits up to `limit` for the gate to open; `false` if it did not.
    fn wait(&self, limit: Duration) -> bool {
        let open = self.open.lock().unwrap();
        let (open, _) = self
            .opened
            .wait_timeout_while(open, limit, |open| !*open)
            .unwrap();
        *open
    }
}

/// A 2 s pass-through of the source through [`GATE_UDF`]: one segment of
/// two 30-frame output GOPs. Each frame of output GOP 1 waits up to
/// `limit` for `gate`, then fails if `fail()` says so, and otherwise
/// fails unless the gate opened.
fn gated_two_gop_render(
    gate: &Arc<Gate>,
    limit: Duration,
    fail: impl Fn() -> bool + Send + Sync + 'static,
) -> (Catalog, PhysicalPlan) {
    let mut catalog = catalog();
    let gate = Arc::clone(gate);
    catalog.register_udf(
        GATE_UDF,
        "gate_after_first_gop",
        vec![ArgKind::Frame],
        Arc::new(move |t: Rational, frames: &[Frame], _: &[Value]| {
            if t >= r(1, 1) {
                let opened = gate.wait(limit);
                if fail() {
                    return Err("GOP 1 failed".to_string());
                }
                if !opened {
                    return Err("GOP 0 never reached the sink".to_string());
                }
            }
            Ok(frames[0].clone())
        }),
    );
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), r(2, 1), |e| {
            RenderExpr::transform(TransformOp::Udf(GATE_UDF), vec![Arg::Frame(e)])
        })
        .build();
    let config = OptimizerConfig {
        shard: false,
        ..Default::default()
    };
    let plan = optimize(&lower_spec(&spec).unwrap(), catalog.plan_context(), &config).unwrap();
    assert_eq!(plan.segments.len(), 1, "test premise: one render segment");
    (catalog, plan)
}

/// Streams `plan`, opening `gate` on the first packet; returns the
/// output's packets and the sink's, or the error.
fn stream_gated(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
    gate: &Gate,
) -> Result<(Vec<Packet>, Vec<Packet>), String> {
    let mut sunk = Vec::new();
    execute_streaming_with(plan, catalog, opts, |p| {
        gate.open();
        sunk.push(p.clone());
    })
    .map(|(out, _, _)| (out.packets().to_vec(), sunk))
    .map_err(|e| e.to_string())
}

/// A two-GOP render whose frames from output GOP 1 on cannot be composed
/// until the sink has a packet: it completes only if GOP 0 reaches the
/// sink while its segment is still rendering. Pinned worker counts: one
/// worker delivers whole segments.
#[test]
fn gop_zero_reaches_the_sink_before_its_segment_ends() {
    for threads in [2usize, 4, 8] {
        let label = format!("threads={threads}");
        let result = watchdog(&label, move || {
            let gate = Arc::new(Gate::default());
            let (catalog, plan) = gated_two_gop_render(&gate, Duration::from_secs(10), || false);
            let opts = ExecOptions {
                num_threads: threads,
                max_retries: 0,
                ..Default::default()
            };
            stream_gated(&catalog, &plan, &opts, &gate)
        });
        let (out, sunk) = result.unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(out.len(), 60, "{label}");
        assert_eq!(out, sunk, "{label}: sink");
    }
}

/// GOP 1 fails only once GOP 0 has reached the sink (or, where no GOP
/// goes out early, after a second), so an early GOP 0 is certain: under
/// `Abort` the retry re-sends it and the sink must not see it twice;
/// under the policies that replace the segment it must never have gone
/// out.
#[test]
fn a_failure_after_gop_zero_was_sunk_neither_repeats_nor_leaks_it() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let clean = {
        let gate = Arc::new(Gate::default());
        gate.open();
        let (catalog, plan) = gated_two_gop_render(&gate, Duration::ZERO, || false);
        baseline(&plan, &catalog)
    };
    for threads in [2usize, 8] {
        for policy in [
            ErrorPolicy::Abort,
            ErrorPolicy::SkipSegment,
            ErrorPolicy::SubstituteBlack,
        ] {
            let label = format!("{policy:?}/threads={threads}");
            let (run_label, clean) = (label.clone(), clean.packets().to_vec());
            watchdog(&label, move || {
                let label = run_label;
                let gate = Arc::new(Gate::default());
                let (catalog, plan) = if policy == ErrorPolicy::Abort {
                    // Fails once, after GOP 0 went out; the retry recovers.
                    let failed = AtomicBool::new(false);
                    gated_two_gop_render(&gate, Duration::from_secs(10), move || {
                        !failed.swap(true, Ordering::SeqCst)
                    })
                } else {
                    gated_two_gop_render(&gate, Duration::from_secs(1), || true)
                };
                let opts = ExecOptions {
                    on_error: policy,
                    num_threads: threads,
                    max_retries: u32::from(policy == ErrorPolicy::Abort),
                    ..Default::default()
                };
                let (out, sunk) = stream_gated(&catalog, &plan, &opts, &gate)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                if policy == ErrorPolicy::Abort {
                    assert_eq!(out, clean, "{label}");
                }
                assert_eq!(out, sunk, "{label}: sink");
            });
        }
    }
}
