//! The optimized physical-plan executor.
//!
//! Segments have no dependencies on each other (each render segment
//! starts its own GOP; copies are self-contained), so the engine
//! evaluates them in parallel and splices the resulting packet runs in
//! output order — "we use the dependency graph to execute operators in
//! parallel as an additional optimization at runtime" (§IV-A). The
//! parallelism itself lives in [`crate::scheduler`]: segments are
//! dispatched longest-first by estimated cost, and with more than one
//! worker each render segment internally overlaps decode (one lane per
//! input), parallel compose, and in-order per-GOP encoding.
//!
//! Streaming is a delivery choice, not a second executor. The paper's
//! interactivity story (§I): "Through database-style optimizations
//! described in this paper and on-demand streaming, V2V enables a VDBMS
//! to execute such a query and to begin playback within seconds."
//! [`execute_streaming_with`] is the one driver with a packet sink
//! attached: packets reach the sink in presentation order as soon as
//! they are ready, one output GOP at a time, while the rest of the
//! output is still rendering. The measured `time_to_first_packet` in
//! [`StreamingStats`] is how the claim is quantified (the repo
//! benchmark's `exec.ttfp_share`).

use crate::catalog::Catalog;
use crate::fault::{ErrorPolicy, FaultInjector, SegmentFault};
use crate::gop_cache::GopCache;
use crate::scheduler::{execute_scheduled, Delivery};
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
    /// optimization story). `false` is another spelling of
    /// `num_threads: 1` — one worker, every render through the
    /// sequential reference loop — and overrides `num_threads`. It stays
    /// because the repo benchmark's reference arm
    /// (`benchmark/src/oracle.rs`) sets it.
    pub parallel: bool,
    /// Capacity of the shared decoded-GOP cache, in frames. Segments and
    /// decode lanes reading the same source ranges (grid cells, splice
    /// neighbours) share one prefix per GOP, grown on demand from the
    /// keyframe to the last frame any of them reads, so each frame is
    /// decoded once. `0` disables the cache.
    ///
    /// Each prefix is charged its whole GOP (240 frames for a 10 s GOP
    /// at 24 fps) when it is created, so the capacity is a bound. It
    /// must hold the prefixes a run's concurrent inputs have in flight,
    /// or LRU eviction defeats reuse.
    pub gop_cache_frames: usize,
    /// Worker threads for the scheduler. `0` means auto: the
    /// `V2V_NUM_THREADS` environment variable if set, else the machine's
    /// available parallelism. The count alone picks the render loop: one
    /// worker runs the sequential reference loop, more run the
    /// pipeline, which overlaps decode with compose and encode (one
    /// decode lane per input, a pool of workers composing and encoding
    /// frames as they arrive, two output GOPs in flight). A streaming run
    /// on the pipeline hands each output GOP to its sink once encoded
    /// (under [`ErrorPolicy::Abort`]); one worker delivers whole
    /// segments. Each run spawns its own scoped threads, so two engines
    /// in one process never fight over a global pool.
    pub num_threads: usize,
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
    /// Segment retries the scheduler spent recovering from failures.
    #[serde(default)]
    pub retries: u64,
    /// Failed segments dropped from the output under
    /// [`ErrorPolicy::SkipSegment`] (the serialized name is pinned by
    /// `x-v2v-stats` and the benchmark).
    #[serde(default)]
    pub parts_skipped: u64,
    /// Failed segments replaced by encoded black under
    /// [`ErrorPolicy::SubstituteBlack`] (serialized name pinned likewise).
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

/// Latency profile of a streaming run.
#[derive(Clone, Debug, Default)]
pub struct StreamingStats {
    /// Wall time from executor start until the first packet reached the
    /// sink.
    pub time_to_first_packet: Duration,
    /// Wall time from executor start until the last packet reached the
    /// sink.
    pub total: Duration,
    /// Aggregated execution costs.
    pub exec: ExecStats,
    /// Structured error report: one entry per segment that failed and was
    /// recovered, skipped, or substituted under the run's error policy.
    pub errors: Vec<SegmentFault>,
    /// The per-segment trace `exec` and `errors` are taken from — the
    /// same artifact a batch run returns.
    pub trace: ExecTrace,
}

/// Executes a plan, delivering packets to `sink` in presentation order,
/// one output GOP at a time: each as soon as it is encoded and every
/// earlier frame has been delivered. Returns the assembled stream
/// (identical to the batch executor's output) plus latency stats.
///
/// This is the batch executor's driver with a sink attached, so a
/// streaming run honors the same [`ExecOptions`] and reports the same
/// [`ExecStats`] as a batch run of the same plan. Worker parallelism
/// uses the scheduler's scoped threads; ordered delivery runs on the
/// calling thread, so `sink` needs no synchronization. Packets reach
/// `sink` already re-stamped onto the output presentation grid, so the
/// sink-visible bytes are identical however the scheduler ordered the
/// work. A render's GOPs go out before the render ends only on more
/// than one worker and under [`ErrorPolicy::Abort`]: under the other
/// policies a later failure replaces the whole segment, so its packets
/// wait for the segment to finish. An aborted run leaves whatever was
/// already sunk.
pub fn execute_streaming_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    mut sink: impl FnMut(&Packet),
) -> Result<(VideoStream, StreamingStats), ExecError> {
    let (out, mut trace, exec_started, first_packet) = drive(plan, catalog, opts, Some(&mut sink))?;
    let total = exec_started.elapsed();
    trace.wall_ns = total.as_nanos() as u64;
    let stats = StreamingStats {
        time_to_first_packet: first_packet.map_or(Duration::ZERO, |at| at - exec_started),
        total,
        exec: trace.totals,
        errors: trace.errors.clone(),
        trace,
    };
    Ok((out, stats))
}

/// The driver's sink bookkeeping: every output frame before `at` has
/// been handed to the sink, in order, exactly once.
#[derive(Debug, Default)]
struct Playhead {
    at: u64,
}

impl Playhead {
    /// An output GOP starting at output frame `start`, encoded while its
    /// segment still renders: sunk if the playhead is at its first
    /// frame. Any other GOP is behind the playhead (a retry re-sending
    /// GOP 0) or ahead of it, and goes out with its segment.
    fn gop(&mut self, start: u64, packets: &[Packet], emit: &mut impl FnMut(u64, &Packet)) {
        if start == self.at {
            self.segment(start, packets, emit);
        }
    }

    /// Packets for output frames `start..`: sinks those past the playhead
    /// and moves it to their end unless it is already further. It never
    /// moves back, or a later segment's GOPs, sunk before this segment
    /// completed, would be sunk twice. Segments complete in output order,
    /// so the playhead has reached `start`.
    fn segment(&mut self, start: u64, packets: &[Packet], emit: &mut impl FnMut(u64, &Packet)) {
        debug_assert!(start <= self.at, "nothing is sunk past a gap");
        for (at, p) in (start..).zip(packets) {
            if at >= self.at {
                emit(at, p);
            }
        }
        self.at = self.at.max(start + packets.len() as u64);
    }
}

/// The one executor driver behind [`execute_traced`] and
/// [`execute_streaming_with`]: builds the run's decoded-GOP cache and
/// output writer, splices every segment the scheduler delivers (in
/// presentation order) into the writer and the trace, and books the
/// run-level totals.
///
/// With a `sink`, every packet is also handed to it once, in order,
/// re-stamped onto the output presentation grid: an output GOP the
/// scheduler delivers early as soon as the [`Playhead`] is at it, the
/// rest of a segment before the segment is spliced. Without one no
/// packet is re-stamped and the scheduler sends no GOPs. Returns the
/// stream, the trace (`wall_ns` left to the caller's clock), the instant
/// dispatch began, and the instant the first packet reached the sink.
pub(crate) fn drive(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    sink: Option<&mut dyn FnMut(&Packet)>,
) -> Result<(VideoStream, ExecTrace, Instant, Option<Instant>), ExecError> {
    let cache = GopCache::new(opts.gop_cache_frames);
    let mut writer = StreamWriter::new(plan.out_params, Rational::ZERO, plan.frame_dur);
    let mut trace = ExecTrace::default();
    let exec_started = Instant::now();
    let mut first_packet = None;
    let streaming = sink.is_some();
    let mut emit = sink.map(|sink| {
        let first_packet = &mut first_packet;
        move |at: u64, p: &Packet| {
            first_packet.get_or_insert_with(Instant::now);
            sink(&p.retimed(plan.frame_dur * Rational::from_int(at as i64)));
        }
    });
    let mut playhead = Playhead::default();
    let mut deliver = |delivery: Delivery| -> Result<(), ExecError> {
        let out = match delivery {
            Delivery::Gop { start, packets } => {
                if let Some(emit) = emit.as_mut() {
                    playhead.gop(start, &packets, emit);
                }
                return Ok(());
            }
            Delivery::Segment(out) => *out,
        };
        if let Some(emit) = emit.as_mut() {
            playhead.segment(writer.len() as u64, &out.packets, emit);
        }
        writer.push_copied(&out.packets)?;
        if let Some(fault) = &out.fault {
            trace.errors.push(fault.clone());
        }
        let seg = &plan.segments[out.seg_index];
        trace.segments.push(SegmentTrace {
            index: out.seg_index as u64,
            kind: seg.plan.kind_name().to_string(),
            out_start: seg.out_start,
            frames: seg.count,
            stats: out.stats,
            wall_ns: out.wall_ns,
            stage: out.stage,
        });
        Ok(())
    };
    let shared_cache = opts
        .segment_cache
        .as_deref()
        .and_then(|sc| sc.cache.as_deref());
    let evictions_before = shared_cache.map_or(0, |c| c.evictions());
    execute_scheduled(plan, catalog, opts, &cache, streaming, &mut deliver)?;
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
        marked_stream_of(FrameType::gray8(64, 32), n, gop)
    }

    fn marked_stream_of(ty: FrameType, n: usize, gop: u32) -> VideoStream {
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            marker::embed(&mut f, i as u32);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    /// copy(1 s..3 s) + blur(4 s..8 s) over a marked 300-frame source.
    fn setup() -> (Catalog, v2v_spec::Spec) {
        setup_of(FrameType::gray8(64, 32))
    }

    fn setup_of(ty: FrameType) -> (Catalog, v2v_spec::Spec) {
        let mut catalog = Catalog::new();
        catalog.add_video("src", marked_stream_of(ty, 300, 30));
        let output = OutputSettings {
            frame_ty: ty,
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        };
        let spec = SpecBuilder::new(output)
            .video("src", "src.svc")
            .append_clip("src", r(1, 1), Rational::from_int(2))
            .append_filtered("src", r(4, 1), Rational::from_int(4), |e| blur(e, 1.0))
            .build();
        (catalog, spec)
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
        let phys = optimize(&logical, catalog.plan_context(), cfg).unwrap();
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
            catalog.plan_context(),
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
            catalog.plan_context(),
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

    /// With no source facts, `segment_cost` is, bit for bit, the
    /// formula the scheduler used to carry.
    #[test]
    fn segment_cost_equals_the_formula_it_replaced() {
        use v2v_spec::builder::grid4;
        use v2v_spec::RenderExpr;
        let old = |plan: &PhysicalPlan, seg: &Segment| {
            let ty = plan.out_params.frame_ty;
            let px = f64::from(ty.width) * f64::from(ty.height);
            match &seg.plan {
                SegPlan::StreamCopy { .. } => seg.count as f64 * 50.0,
                SegPlan::Render { program, inputs } => {
                    seg.count as f64
                        * (px
                            * (inputs.len() as f64 * 1.0
                                + program.op_count().max(1) as f64 * 2.0
                                + 1.5))
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
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let mut input_counts = Vec::new();
        for seg in &plan.segments {
            let cost = v2v_plan::segment_cost(&plan, seg, &v2v_plan::PlanContext::new());
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

    /// Over the catalog's context the dispatch cost prices decode
    /// roll-in: a render entering its source mid-GOP costs its roll-in
    /// frames' decode, pixels and bytes, more than one entering at the
    /// keyframe.
    #[test]
    fn segment_cost_prices_roll_in_over_the_catalog() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        let ctx = catalog.plan_context();
        let cost_at = |from: i64| {
            let spec = SpecBuilder::new(output())
                .video("a", "a.svc")
                .append_filtered("a", r(from, 30), r(1, 1), |e| blur(e, 1.0))
                .build();
            let plan = optimize(
                &lower_spec(&spec).unwrap(),
                ctx,
                &OptimizerConfig::default(),
            )
            .unwrap();
            assert_eq!(plan.segments.len(), 1);
            v2v_plan::segment_cost(&plan, &plan.segments[0], ctx)
        };
        let a = ctx.source("a").unwrap();
        let bytes_per_frame = a.byte_size() as f64 / a.len() as f64;
        let expected = 10.0 * (64.0 * 32.0 + bytes_per_frame * 0.1);
        // Equal up to the rounding of the two sums.
        let diff = cost_at(40) - cost_at(30);
        assert!(
            (diff - expected).abs() <= expected * 1e-12,
            "roll-in from keyframe 30: {diff} vs {expected}"
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
            catalog.plan_context(),
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

    /// One event the scheduler can hand the driver, as (first output
    /// frame, frames): an output GOP encoded early, or a finished segment.
    enum Event {
        Gop(u64, u64),
        Done(u64, u64),
    }

    /// Two 60-frame segments of two 30-frame output GOPs each: every
    /// script must sink each output frame exactly once and in order, and
    /// the sink must have reached the given frame after each event.
    #[test]
    fn playhead_sinks_every_frame_once_in_order() {
        use Event::{Done, Gop};
        let scripts: [(&str, Vec<(Event, usize)>); 6] = [
            (
                "whole segments only",
                vec![(Done(0, 60), 60), (Done(60, 60), 120)],
            ),
            (
                "a segment completes after one of its GOPs went out",
                vec![(Gop(0, 30), 30), (Done(0, 60), 60), (Done(60, 60), 120)],
            ),
            (
                // A playhead moved back to segment 0's end here would
                // sink frames 60..90 twice.
                "segment 1's GOP before segment 0 completes",
                vec![
                    (Gop(0, 30), 30),
                    (Gop(30, 30), 60),
                    (Gop(60, 30), 90),
                    (Done(0, 60), 90),
                    (Gop(90, 30), 120),
                    (Done(60, 60), 120),
                ],
            ),
            (
                "segment 1's GOP after segment 0 completes",
                vec![
                    (Gop(0, 30), 30),
                    (Done(0, 60), 60),
                    (Gop(60, 30), 90),
                    (Done(60, 60), 120),
                ],
            ),
            (
                "a retry re-sends GOP 0",
                vec![
                    (Gop(0, 30), 30),
                    (Gop(0, 30), 30),
                    (Gop(30, 30), 60),
                    (Gop(0, 30), 60),
                    (Done(0, 60), 60),
                    (Done(60, 60), 120),
                ],
            ),
            (
                "GOPs not yet at the playhead go out with their segment",
                vec![
                    (Gop(30, 30), 0),
                    (Gop(90, 30), 0),
                    (Gop(0, 30), 30),
                    (Done(0, 60), 60),
                    (Gop(60, 30), 90),
                    (Done(60, 60), 120),
                ],
            ),
        ];
        // Each scripted packet carries its own output frame as its pts.
        let packets = |start: u64, n: u64| -> Vec<Packet> {
            (start..start + n)
                .map(|f| Packet::new(Rational::from_int(f as i64), false, Vec::new().into()))
                .collect()
        };
        for (name, events) in scripts {
            let mut seen = Vec::new();
            let mut playhead = Playhead::default();
            for (k, (event, reached)) in events.iter().enumerate() {
                let mut emit = |at: u64, p: &Packet| {
                    assert_eq!(
                        p.pts,
                        Rational::from_int(at as i64),
                        "{name}: sunk at its frame"
                    );
                    seen.push(at);
                };
                match *event {
                    Gop(start, n) => playhead.gop(start, &packets(start, n), &mut emit),
                    Done(start, n) => playhead.segment(start, &packets(start, n), &mut emit),
                }
                assert_eq!(seen.len(), *reached, "{name}: event {k}");
            }
            assert_eq!(seen, (0..120).collect::<Vec<_>>(), "{name}");
        }
    }

    #[test]
    fn streaming_output_matches_batch() {
        let (catalog, spec) = setup();
        let logical = lower_spec(&spec).unwrap();
        let plan = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let mut sink_count = 0usize;
        let (streamed, stats) =
            execute_streaming_with(&plan, &catalog, &ExecOptions::default(), |_| {
                sink_count += 1
            })
            .unwrap();
        let (batch, _, _) = execute(&plan, &catalog, &ExecOptions::default()).unwrap();
        assert_eq!(sink_count, streamed.len());
        assert_eq!(streamed.len(), batch.len());
        let (fa, _) = streamed.decode_range(0, streamed.len()).unwrap();
        let (fb, _) = batch.decode_range(0, batch.len()).unwrap();
        assert_eq!(fa, fb);
        assert!(stats.time_to_first_packet <= stats.total);
    }

    #[test]
    fn sink_receives_packets_in_presentation_order() {
        let (catalog, spec) = setup();
        let logical = lower_spec(&spec).unwrap();
        let plan = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let mut keyframes_seen = 0;
        let mut count = 0usize;
        execute_streaming_with(&plan, &catalog, &ExecOptions::default(), |p| {
            if count == 0 {
                assert!(p.keyframe, "stream must open with a keyframe");
            }
            if p.keyframe {
                keyframes_seen += 1;
            }
            count += 1;
        })
        .unwrap();
        assert_eq!(count, 180);
        assert!(keyframes_seen >= plan.segments.len());
    }

    #[test]
    fn copy_first_plans_start_fast() {
        // A plan whose first segment is a copy should deliver its first
        // packet long before the blur-heavy tail finishes. Frames big
        // enough that the tail takes tens of milliseconds: the margin
        // must dwarf one scheduler timeslice lost to a sibling test.
        let (catalog, spec) = setup_of(FrameType::gray8(256, 128));
        let logical = lower_spec(&spec).unwrap();
        let plan = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert!(plan.segments[0].plan.is_copy(), "test premise");
        // Pinned worker counts, not the host's: copies are dispatched
        // ahead of every render at any pool width.
        for num_threads in [1, 2, 4, 8] {
            let opts = ExecOptions {
                num_threads,
                ..Default::default()
            };
            let (_, stats) = execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
            assert!(
                stats.time_to_first_packet < stats.total / 2,
                "{num_threads} threads: ttfp {:?} vs total {:?}",
                stats.time_to_first_packet,
                stats.total
            );
        }
    }

    #[test]
    fn streaming_and_batch_report_identical_gop_cache_counts() {
        // Regression: streaming used to build a default-size cache no
        // matter what the caller configured, so batch and streaming runs
        // of the same plan under the same options reported different
        // hit/miss counts. A single-segment render keeps cursor order
        // deterministic so the counts are exactly comparable.
        use v2v_spec::builder::grid4;
        use v2v_spec::RenderExpr;
        let mut catalog = Catalog::new();
        catalog.add_video("src", marked_stream(120, 30));
        let output = OutputSettings {
            frame_ty: FrameType::gray8(64, 32),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        };
        let spec = SpecBuilder::new(output)
            .video("src", "src.svc")
            .append_with(r(1, 1), |_| {
                grid4(
                    RenderExpr::video("src"),
                    RenderExpr::video_shifted("src", r(1, 30)),
                    RenderExpr::video_shifted("src", r(2, 30)),
                    RenderExpr::video_shifted("src", r(3, 30)),
                )
            })
            .build();
        let logical = lower_spec(&spec).unwrap();
        let plan = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig {
                shard: false, // one render segment
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plan.segments.len(), 1, "test premise: single segment");
        for cache_frames in [0usize, 512, 4096] {
            let opts = ExecOptions {
                gop_cache_frames: cache_frames,
                parallel: false,
                ..Default::default()
            };
            let (_, batch_stats, _) = execute(&plan, &catalog, &opts).unwrap();
            let (_, streaming_stats) =
                execute_streaming_with(&plan, &catalog, &opts, |_| {}).unwrap();
            assert_eq!(
                batch_stats.gop_cache_hits, streaming_stats.exec.gop_cache_hits,
                "hits diverge at cache_frames={cache_frames}"
            );
            assert_eq!(
                batch_stats.gop_cache_misses, streaming_stats.exec.gop_cache_misses,
                "misses diverge at cache_frames={cache_frames}"
            );
            assert_eq!(batch_stats, streaming_stats.exec, "full stats diverge");
        }
    }

    #[test]
    fn worker_errors_propagate() {
        let (catalog, spec) = setup();
        let logical = lower_spec(&spec).unwrap();
        let mut plan = optimize(
            &logical,
            catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        // Corrupt a segment to reference a missing video.
        if let v2v_plan::SegPlan::StreamCopy { video, .. } = &mut plan.segments[0].plan {
            *video = "ghost".into();
        }
        assert!(execute_streaming_with(&plan, &catalog, &ExecOptions::default(), |_| {}).is_err());
    }
}
