//! The optimized physical-plan executor.
//!
//! Segments have no dependencies on each other (each render segment
//! starts its own GOP; copies are self-contained), so the engine
//! evaluates them in parallel and splices the resulting packet runs in
//! output order — "we use the dependency graph to execute operators in
//! parallel as an additional optimization at runtime" (§IV-A). The
//! parallelism itself lives in [`crate::scheduler`]: segments are
//! dispatched longest-first by estimated cost, and each render segment
//! internally pipelines decode-ahead, parallel compose, and per-GOP
//! encoding.

use crate::catalog::Catalog;
use crate::fault::{ErrorPolicy, FaultInjector};
use crate::gop_cache::GopCache;
use crate::scheduler::{execute_scheduled, PartOutput};
use crate::trace::{ExecTrace, SegmentTrace};
use crate::ExecError;
use std::sync::Arc;
use std::time::{Duration, Instant};
use v2v_codec::Packet;
use v2v_container::{StreamWriter, VideoStream};
use v2v_plan::PhysicalPlan;
use v2v_time::Rational;

/// Execution options.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Evaluate segments in parallel (the runtime half of the paper's
    /// optimization story). Disable for the ablation benches; when
    /// `false` the engine runs strictly sequentially, ignoring
    /// `num_threads` and `pipeline_depth`.
    pub parallel: bool,
    /// Capacity of the shared decoded-GOP cache, in frames. Segments
    /// reading the same source ranges (grid cells, splice neighbours)
    /// decode each GOP prefix once — keyframe to the run's last read of
    /// that GOP — and share it. `0` disables the cache.
    ///
    /// The capacity must hold the prefixes a run's concurrent inputs
    /// have in flight, or LRU eviction defeats reuse; a prefix is at
    /// most one whole GOP (240 frames for a 10 s GOP at 24 fps).
    pub gop_cache_frames: usize,
    /// Worker threads for the scheduler. `0` means auto: the
    /// `V2V_NUM_THREADS` environment variable if set, else the machine's
    /// available parallelism. Each engine gets its own scoped pool, so
    /// two engines in one process never fight over a global pool.
    pub num_threads: usize,
    /// Decode-ahead depth of the intra-segment pipeline, in output GOPs:
    /// the prefetch stage may run this many GOPs ahead of the encoder,
    /// and up to this many output GOPs are composed/encoded per parallel
    /// batch. `0` disables pipelining (render segments run the classic
    /// sequential decode → compose → encode loop).
    pub pipeline_depth: usize,
    /// Deterministic fault injection hook: every cursor consults the
    /// injector before decoding a source packet. `None` (the default)
    /// costs one branch per decode; runs without an injector are
    /// byte-identical to builds without the hook.
    pub fault: Option<Arc<FaultInjector>>,
    /// Degraded-mode policy: what the scheduler does with a segment that
    /// still fails after `max_retries` retries. The default aborts the
    /// run, which is the historical behavior.
    pub on_error: ErrorPolicy,
    /// Bounded per-segment retries before `on_error` applies. A retry
    /// re-runs the whole segment, so a transient fault recovers
    /// byte-identically.
    pub max_retries: u32,
    /// Persistent segment-cache context for this run: the shared
    /// [`RenderCache`](crate::RenderCache) plus the plan's per-segment
    /// keys. `None` (the default) disables fragment reuse; runs without
    /// it are byte-identical to builds without the hook. Ignored while
    /// a fault injector is active — injected faults must never leak
    /// into (or be masked by) persistent state.
    pub segment_cache: Option<Arc<crate::render_cache::SegmentCacheCtx>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallel: true,
            gop_cache_frames: 4096,
            num_threads: 0,
            pipeline_depth: 2,
            fault: None,
            on_error: ErrorPolicy::default(),
            max_retries: 1,
            segment_cache: None,
        }
    }
}

impl ExecOptions {
    /// The worker count the scheduler will actually use: 1 when
    /// `parallel` is off, else `num_threads`, else `V2V_NUM_THREADS`,
    /// else the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if !self.parallel {
            return 1;
        }
        if self.num_threads > 0 {
            return self.num_threads;
        }
        if let Ok(v) = std::env::var("V2V_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Cost accounting for one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExecStats {
    /// Source/intermediate packets decoded.
    pub frames_decoded: u64,
    /// Frames pushed through an encoder.
    pub frames_encoded: u64,
    /// Packets spliced by stream copy.
    pub packets_copied: u64,
    /// Compressed bytes spliced by stream copy.
    pub bytes_copied: u64,
    /// Compressed bytes fed to decoders (the storage-read currency).
    pub bytes_decoded: u64,
    /// Compressed bytes produced by encoders.
    pub bytes_encoded: u64,
    /// Decoder keyframe entries (initial positioning and re-seeks).
    pub seeks: u64,
    /// Segments executed.
    pub segments: u64,
    /// GOP lookups served from the shared decoded-GOP cache. Attributed
    /// per cursor (exactly one cursor books each lookup), so per-segment
    /// values are deterministic under parallel execution.
    pub gop_cache_hits: u64,
    /// GOP lookups that had to decode.
    pub gop_cache_misses: u64,
    /// Always 0 (runtime splitting is gone); kept for the pinned
    /// `x-v2v-stats` key set and the repo benchmark.
    #[serde(default)]
    pub splits: u64,
    /// Always 0, kept for the same readers as `splits`.
    #[serde(default)]
    pub steals: u64,
    /// Faults the injector fired during the run (run-level; zero
    /// without an injector).
    #[serde(default)]
    pub faults_injected: u64,
    /// Part retries the scheduler spent recovering from failures.
    #[serde(default)]
    pub retries: u64,
    /// Failed parts dropped from the output under
    /// [`ErrorPolicy::SkipSegment`].
    #[serde(default)]
    pub parts_skipped: u64,
    /// Failed parts replaced by encoded black under
    /// [`ErrorPolicy::SubstituteBlack`].
    #[serde(default)]
    pub parts_substituted: u64,
    /// Output frames filled with encoded black.
    #[serde(default)]
    pub frames_substituted: u64,
    /// Persistent render-cache activity (zero when no cache is wired).
    #[serde(default)]
    pub cache: crate::render_cache::CacheStats,
}

impl ExecStats {
    /// Field-wise accumulation: counters add. Used by both the batch and
    /// streaming executors so the two cannot drift.
    pub fn merge(mut self, other: ExecStats) -> ExecStats {
        self.frames_decoded += other.frames_decoded;
        self.frames_encoded += other.frames_encoded;
        self.packets_copied += other.packets_copied;
        self.bytes_copied += other.bytes_copied;
        self.bytes_decoded += other.bytes_decoded;
        self.bytes_encoded += other.bytes_encoded;
        self.seeks += other.seeks;
        self.segments += other.segments;
        self.gop_cache_hits += other.gop_cache_hits;
        self.gop_cache_misses += other.gop_cache_misses;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.parts_skipped += other.parts_skipped;
        self.parts_substituted += other.parts_substituted;
        self.frames_substituted += other.frames_substituted;
        self.cache = self.cache.merge(other.cache);
        self
    }
}

/// Executes a physical plan against a catalog.
///
/// Returns the output stream, the accumulated stats, and the wall time.
/// Thin wrapper over [`execute_traced`] for callers that do not need the
/// per-segment trace.
pub fn execute(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> Result<(VideoStream, ExecStats, Duration), ExecError> {
    let (out, trace, wall) = execute_traced(plan, catalog, opts)?;
    Ok((out, trace.totals, wall))
}

/// Executes a physical plan, profiling every segment.
///
/// Returns the output stream, the [`ExecTrace`] (per-segment stats and
/// wall times plus run totals), and the end-to-end wall time.
pub fn execute_traced(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> Result<(VideoStream, ExecTrace, Duration), ExecError> {
    let started = Instant::now();
    let (out, mut trace, _, _) = drive(plan, catalog, opts, None)?;
    let wall = started.elapsed();
    trace.wall_ns = wall.as_nanos() as u64;
    Ok((out, trace, wall))
}

/// The one executor driver behind [`execute_traced`] and
/// [`execute_streaming_with`](crate::execute_streaming_with): builds the
/// run's decoded-GOP cache and output writer, splices every segment the
/// scheduler delivers (in presentation order) into the writer and the
/// trace, and books the run-level totals.
///
/// With a `sink`, each packet is also handed to it re-stamped onto the
/// output presentation grid, before its segment is spliced; without one no
/// packet is re-stamped. Returns the stream, the trace (`wall_ns` left
/// to the caller's clock), the instant dispatch began, and the instant
/// the first packet reached the sink.
pub(crate) fn drive(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    mut sink: Option<&mut dyn FnMut(&Packet)>,
) -> Result<(VideoStream, ExecTrace, Instant, Option<Instant>), ExecError> {
    let cache = GopCache::new(opts.gop_cache_frames);
    let mut writer = StreamWriter::new(plan.out_params, Rational::ZERO, plan.frame_dur);
    let mut trace = ExecTrace::default();
    let exec_started = Instant::now();
    let mut first_packet = None;
    let mut deliver = |part: PartOutput| -> Result<(), ExecError> {
        if let Some(sink) = sink.as_mut() {
            let base = writer.len() as i64;
            for (k, p) in part.packets.iter().enumerate() {
                first_packet.get_or_insert_with(Instant::now);
                sink(&p.retimed(plan.frame_dur * Rational::from_int(base + k as i64)));
            }
        }
        writer.push_copied(&part.packets)?;
        if let Some(fault) = &part.fault {
            trace.errors.push(fault.clone());
        }
        let seg = &plan.segments[part.seg_index];
        trace.segments.push(SegmentTrace {
            index: part.seg_index as u64,
            kind: seg.plan.kind_name().to_string(),
            out_start: seg.out_start,
            frames: seg.count,
            stats: part.stats,
            wall_ns: part.wall_ns,
            parts: 1,
            stage: part.stage,
        });
        Ok(())
    };
    let shared_cache = opts
        .segment_cache
        .as_deref()
        .and_then(|sc| sc.cache.as_deref());
    let evictions_before = shared_cache.map_or(0, |c| c.evictions());
    execute_scheduled(plan, catalog, opts, &cache, &mut deliver)?;
    for seg in &trace.segments {
        trace.totals = trace.totals.merge(seg.stats);
    }
    if let Some(c) = shared_cache {
        // Evictions are a property of the shared cache, not any one
        // segment; attribute the delta this run caused to the run totals.
        trace.totals.cache.evictions += c.evictions().saturating_sub(evictions_before);
    }
    if let Some(injector) = &opts.fault {
        // Run-level, from the injector itself: a fault that killed its
        // segment never reaches the per-segment stats roll-up.
        trace.totals.faults_injected = injector.injections();
    }
    Ok((writer.finish()?, trace, exec_started, first_packet))
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::CodecParams;
    use v2v_frame::{marker, Frame, FrameType};
    use v2v_plan::{lower_spec, optimize, OptimizerConfig, SegPlan, Segment};
    use v2v_spec::builder::blur;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::r;

    /// A lossless test stream whose frames carry index markers.
    fn marked_stream(n: usize, gop: u32) -> VideoStream {
        let ty = FrameType::gray8(64, 32);
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            marker::embed(&mut f, i as u32);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    fn output() -> OutputSettings {
        OutputSettings {
            frame_ty: FrameType::gray8(64, 32),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        }
    }

    fn run(
        spec: &v2v_spec::Spec,
        catalog: &Catalog,
        cfg: &OptimizerConfig,
    ) -> (VideoStream, ExecStats) {
        let logical = lower_spec(spec).unwrap();
        let phys = optimize(&logical, &catalog.plan_context(), cfg).unwrap();
        let (out, stats, _) = execute(&phys, catalog, &ExecOptions::default()).unwrap();
        (out, stats)
    }

    #[test]
    fn clip_is_frame_exact_via_copy() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        // Clip [30/30, 90/30): starts on keyframe 30 → pure copy.
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .build();
        let (out, stats) = run(&spec, &catalog, &OptimizerConfig::default());
        assert_eq!(out.len(), 60);
        assert_eq!(stats.packets_copied, 60);
        assert_eq!(stats.frames_encoded, 0);
        let (frames, _) = out.decode_range(0, 60).unwrap();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(marker::read(f), Some(30 + i as u32), "frame {i}");
        }
    }

    #[test]
    fn smart_cut_is_frame_exact() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        // Clip starting mid-GOP at frame 15.
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 2), r(2, 1))
            .build();
        let (out, stats) = run(&spec, &catalog, &OptimizerConfig::default());
        assert_eq!(out.len(), 60);
        assert!(stats.packets_copied >= 45, "middle copied");
        assert_eq!(stats.frames_encoded, 15, "head re-encoded");
        let (frames, _) = out.decode_range(0, 60).unwrap();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(marker::read(f), Some(15 + i as u32), "frame {i}");
        }
    }

    #[test]
    fn optimized_equals_unsharded_render() {
        // A filtered clip rendered with and without sharding/parallelism
        // must produce identical frames (q=0).
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(150, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(4, 1), |e| blur(e, 1.0))
            .build();
        let (sharded, s1) = run(&spec, &catalog, &OptimizerConfig::default());
        let (plain, s2) = run(&spec, &catalog, &OptimizerConfig::fusion_only());
        assert!(s1.segments > s2.segments, "sharding must split segments");
        let (fa, _) = sharded.decode_range(0, sharded.len()).unwrap();
        let (fb, _) = plain.decode_range(0, plain.len()).unwrap();
        assert_eq!(fa.len(), fb.len());
        for (i, (a, b)) in fa.iter().zip(&fb).enumerate() {
            assert_eq!(a, b, "frame {i} differs between sharded and plain");
        }
    }

    #[test]
    fn splice_of_two_sources() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(60, 30));
        catalog.add_video("b", marked_stream(60, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .video("b", "b.svc")
            .append_clip("a", r(0, 1), r(1, 1))
            .append_clip("b", r(1, 1), r(1, 1))
            .build();
        let (out, _) = run(&spec, &catalog, &OptimizerConfig::default());
        assert_eq!(out.len(), 60);
        let (frames, _) = out.decode_range(0, 60).unwrap();
        assert_eq!(marker::read(&frames[0]), Some(0));
        assert_eq!(marker::read(&frames[29]), Some(29));
        assert_eq!(marker::read(&frames[30]), Some(30)); // b's frame 30
        assert_eq!(marker::read(&frames[59]), Some(59));
    }

    #[test]
    fn missing_video_errors() {
        let catalog = Catalog::new();
        let plan = PhysicalPlan {
            segments: vec![Segment {
                out_start: 0,
                count: 1,
                plan: SegPlan::StreamCopy {
                    video: "ghost".into(),
                    src_from: 0,
                    src_to: 1,
                },
            }],
            out_params: CodecParams::new(FrameType::gray8(64, 32), 30, 0),
            frame_dur: r(1, 30),
            domain_start: Rational::ZERO,
            n_frames: 1,
            stats: Default::default(),
        };
        assert!(matches!(
            execute(&plan, &catalog, &ExecOptions::default()),
            Err(ExecError::UnknownVideo(_))
        ));
    }

    #[test]
    fn grid_query_shares_gops_through_cache() {
        // A 2×2 grid of four time-shifted views of one source: the four
        // cursors read overlapping GOPs, so all but the first lookup of
        // each GOP must come from the shared cache.
        use v2v_spec::builder::grid4;
        use v2v_spec::RenderExpr;
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_with(r(1, 1), |_| {
                grid4(
                    RenderExpr::video("a"),
                    RenderExpr::video_shifted("a", r(1, 30)),
                    RenderExpr::video_shifted("a", r(2, 30)),
                    RenderExpr::video_shifted("a", r(3, 30)),
                )
            })
            .build();
        let logical = lower_spec(&spec).unwrap();
        let phys = optimize(
            &logical,
            &catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let (out, stats, _) = execute(&phys, &catalog, &ExecOptions::default()).unwrap();
        assert_eq!(out.len(), 30);
        assert!(
            stats.gop_cache_hits > 0,
            "grid inputs must share decoded GOPs: {stats:?}"
        );

        // Disabling the cache must not change the output.
        let (out_nc, stats_nc, _) = execute(
            &phys,
            &catalog,
            &ExecOptions {
                gop_cache_frames: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(stats_nc.gop_cache_hits, 0);
        assert_eq!(stats_nc.gop_cache_misses, 0);
        let (fa, _) = out.decode_range(0, out.len()).unwrap();
        let (fb, _) = out_nc.decode_range(0, out_nc.len()).unwrap();
        assert_eq!(fa, fb, "cache on/off must be byte-identical");
    }

    #[test]
    fn mid_gop_render_decodes_roll_in_plus_span() {
        // A 2 s blur starting 12 frames into a 240-frame GOP reads source
        // frames 12..=71: the keyframe roll-in plus the span is all that
        // is decoded, with the GOP cache on or off, at any thread count.
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(480, 240));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", r(12, 30), r(2, 1), |e| blur(e, 1.0))
            .build();
        let logical = lower_spec(&spec).unwrap();
        let phys = optimize(
            &logical,
            &catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert_eq!(phys.segments.len(), 1, "test premise: one render segment");
        let mut outputs = Vec::new();
        for (gop_cache_frames, num_threads) in [(4096, 1), (4096, 2), (0, 2)] {
            let opts = ExecOptions {
                gop_cache_frames,
                num_threads,
                ..Default::default()
            };
            let (out, stats, _) = execute(&phys, &catalog, &opts).unwrap();
            assert_eq!(stats.frames_decoded, 12 + 60, "{opts:?}");
            outputs.push(out);
        }
        assert!(outputs.windows(2).all(|w| w[0].packets() == w[1].packets()));
    }

    /// `segment_cost` is the planner's per-segment estimate now; this
    /// pins it, bit for bit, to the formula the scheduler used to carry.
    #[test]
    fn segment_cost_equals_the_formula_it_replaced() {
        use v2v_spec::builder::grid4;
        use v2v_spec::RenderExpr;
        let old = |plan: &PhysicalPlan, seg: &Segment| {
            let model = v2v_plan::CostModel::default();
            let ty = plan.out_params.frame_ty;
            let px = f64::from(ty.width) * f64::from(ty.height);
            match &seg.plan {
                SegPlan::StreamCopy { .. } => seg.count as f64 * model.copy_per_packet,
                SegPlan::Render { program, inputs } => {
                    seg.count as f64
                        * (px
                            * (inputs.len() as f64 * model.decode_per_pixel
                                + program.op_count().max(1) as f64 * model.op_per_pixel
                                + model.encode_per_pixel))
                }
            }
        };
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(1, 1))
            .append_filtered("a", r(0, 1), r(1, 1), |e| blur(e, 1.0))
            .append_with(r(1, 2), |_| {
                grid4(
                    RenderExpr::video("a"),
                    RenderExpr::video_shifted("a", r(1, 30)),
                    RenderExpr::video_shifted("a", r(2, 30)),
                    RenderExpr::video_shifted("a", r(3, 30)),
                )
            })
            .build();
        let plan = optimize(
            &lower_spec(&spec).unwrap(),
            &catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let mut input_counts = Vec::new();
        for seg in &plan.segments {
            let cost = crate::segment_cost(&plan, seg);
            assert_eq!(cost.to_bits(), old(&plan, seg).to_bits());
            input_counts.push(match &seg.plan {
                SegPlan::StreamCopy { .. } => 0,
                SegPlan::Render { inputs, .. } => inputs.len(),
            });
        }
        input_counts.sort_unstable();
        input_counts.dedup();
        assert_eq!(
            input_counts,
            [0, 1, 4],
            "a copy, a 1-input and a 4-input render"
        );
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(150, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(4, 1), |e| blur(e, 0.8))
            .build();
        let logical = lower_spec(&spec).unwrap();
        let phys = optimize(
            &logical,
            &catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let (par, _, _) = execute(
            &phys,
            &catalog,
            &ExecOptions {
                parallel: true,
                ..Default::default()
            },
        )
        .unwrap();
        let (ser, _, _) = execute(
            &phys,
            &catalog,
            &ExecOptions {
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        let (fa, _) = par.decode_range(0, par.len()).unwrap();
        let (fb, _) = ser.decode_range(0, ser.len()).unwrap();
        assert_eq!(fa, fb);
    }
}
