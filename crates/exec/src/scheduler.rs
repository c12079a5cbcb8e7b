//! Cost-based segment scheduling.
//!
//! The paper's runtime story (§IV-A) is to "use the dependency graph to
//! execute operators in parallel"; this module is the engine behind
//! the executor's parallelism. One physical-plan segment is the unit of
//! dispatch, reuse, storage, recovery and tracing — the planner's
//! temporal sharding (§IV) is the only mechanism that cuts a long
//! render into parallel pieces. On top of plain segment-at-a-time
//! fan-out the scheduler adds:
//!
//! 1. **Cost-ordered dispatch.** Each segment's cost is the plan's one
//!    price ([`v2v_plan::segment_cost`]: copy ≈ packets, render ≈
//!    frames decoded + frames × program width) and work is handed out
//!    longest-processing-time-first, the classic makespan heuristic:
//!    expensive renders start first so they never become the lonely
//!    tail of the run.
//! 2. **Intra-segment pipelining** (the `pipeline` module). With more
//!    than one worker, a render segment overlaps its stages. Each input
//!    decodes on its own lane through a [`SourceCursor`] and the shared
//!    GOP cache's on-demand prefixes (one lane for a single input; for
//!    several, one thread
//!    per input plus one that meets their frames in input order), into
//!    bounded channels two output GOPs deep. A pool of workers takes
//!    the decoded frames as they arrive and composes them; the worker
//!    that makes an output GOP's next frame ready encodes it, in order,
//!    with that GOP's fresh [`Encoder`] (output GOPs are independent
//!    under the codec: a fresh encoder at a GOP boundary reproduces
//!    identical bytes). The pool's width is `SegmentCtx::fanout`: a
//!    lone running render composes and encodes with every worker's
//!    share. One worker runs the sequential decode → compose → encode
//!    loop, the reference arm of every identity test.
//!
//! Segments are emitted to a `deliver` callback **in presentation
//! order** (a reorder buffer holds early finishers), so the executor's
//! driver can splice directly into a [`StreamWriter`]. When the run has
//! a sink and aborts on error, the pipelined render also hands each
//! output GOP to `deliver` the moment its last frame is encoded, ahead
//! of its segment, so the driver can sink it at once.
//!
//! [`StreamWriter`]: v2v_container::StreamWriter

use crate::apply::apply_program;
use crate::catalog::Catalog;
use crate::cursor::SourceCursor;
use crate::executor::{ExecOptions, ExecStats};
use crate::fault::{ErrorPolicy, FaultAction, FaultInjector, SegmentFault};
use crate::gop_cache::GopCache;
use crate::kind::exec_kind;
use crate::render_cache::SegmentCacheCtx;
use crate::tiers::render_segment;
use crate::trace::StageTimes;
use crate::ExecError;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use v2v_codec::{Encoder, Packet};
use v2v_container::VideoStream;
use v2v_frame::ops::{conform, conform_shared};
use v2v_frame::{Frame, FrameType};
use v2v_plan::{
    segment_cost, FrameProgram, InputClip, PhysicalPlan, PlanContext, SegPlan, Segment,
};
use v2v_time::Rational;

/// The output packets of one segment, as produced by a worker.
#[derive(Debug)]
pub(crate) struct SegmentOutput {
    /// Index of the segment in the physical plan.
    pub seg_index: usize,
    /// The segment's packets, keyframe-first (none when skipped).
    pub packets: Vec<Packet>,
    /// Cost counters.
    pub stats: ExecStats,
    /// Busy time per pipeline stage.
    pub stage: StageTimes,
    /// Segment wall time in nanoseconds.
    pub wall_ns: u64,
    /// Set when this segment failed and was recovered, skipped, or
    /// substituted under the run's [`ErrorPolicy`].
    pub fault: Option<SegmentFault>,
}

/// What the scheduler hands the executor's driver.
#[derive(Debug)]
pub(crate) enum Delivery {
    /// One output GOP of a segment still rendering, in any order: its
    /// first absolute output frame and its packets, with segment-relative
    /// timestamps like a finished segment's. Its segment is delivered
    /// whole later all the same.
    Gop { start: u64, packets: Vec<Packet> },
    /// A finished segment, in presentation order.
    Segment(Box<SegmentOutput>),
}

/// The channel the workers report on: output GOPs, finished segments,
/// and the error that ends the run.
type Events = mpsc::Sender<Result<Delivery, ExecError>>;

impl SegmentOutput {
    /// The clean output of `ctx`'s segment: no stage times, no fault.
    pub(crate) fn new(
        ctx: &SegmentCtx<'_>,
        packets: Vec<Packet>,
        stats: ExecStats,
    ) -> SegmentOutput {
        SegmentOutput {
            seg_index: ctx.seg_index,
            packets,
            stats,
            stage: StageTimes::default(),
            wall_ns: 0,
            fault: None,
        }
    }
}

/// Dispatch state shared by the workers and the driver.
struct SchedState {
    /// Pending segment indices in [`dispatch_order`]. Nothing is added
    /// mid-run.
    queue: VecDeque<usize>,
    running: usize,
    /// Set by the driver when it stops listening and by a worker whose
    /// segment failed: nobody pops another task.
    shutdown: bool,
}

fn lock(sched: &Mutex<SchedState>) -> MutexGuard<'_, SchedState> {
    sched.lock().expect("scheduler state poisoned")
}

/// The facts of one run, derived once in [`execute_scheduled`].
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'a> {
    pub(crate) plan: &'a PhysicalPlan,
    pub(crate) catalog: &'a Catalog,
    cache: &'a GopCache,
    opts: &'a ExecOptions,
    /// The fault injector, when one is configured and non-empty.
    fault: Option<&'a FaultInjector>,
    /// Persistent segment cache for this run (`None` disables reuse).
    /// Always `None` while a fault injector is active: a cache hit would
    /// mask the injection the test asked for.
    pub(crate) seg_cache: Option<&'a SegmentCacheCtx>,
    /// The run's worker count: one runs every render through the
    /// sequential loop, more through the decode-ahead pipeline.
    pub(crate) workers: usize,
    /// Whether output GOPs are delivered as they are encoded: only when
    /// the run has a sink and aborts on error. Under the other policies a
    /// later failure replaces the whole segment, so no sink may have
    /// seen any of it.
    early_gops: bool,
}

/// Everything a worker needs to execute one segment.
pub(crate) struct SegmentCtx<'a> {
    pub(crate) run: RunCtx<'a>,
    pub(crate) seg: &'a Segment,
    pub(crate) seg_index: usize,
    /// Threads this segment's compose and encode stages may use.
    pub(crate) fanout: usize,
    /// Where the pipelined render sends each output GOP once encoded
    /// (`None`: the segment is delivered whole only).
    pub(crate) gops: Option<&'a Events>,
}

impl<'a> RunCtx<'a> {
    fn segment(self, seg_index: usize, fanout: usize) -> SegmentCtx<'a> {
        SegmentCtx {
            run: self,
            seg: &self.plan.segments[seg_index],
            seg_index,
            fanout,
            gops: None,
        }
    }
}

/// Executes every segment of `plan`, invoking `deliver` with each one
/// in presentation order. With one effective worker this is a plain
/// in-order loop over the sequential render; otherwise a cost-ordered
/// worker pool with intra-segment pipelining, which with `sink` set (the
/// caller streams) and [`ErrorPolicy::Abort`] also delivers each output
/// GOP as soon as it is encoded.
pub(crate) fn execute_scheduled(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    cache: &GopCache,
    sink: bool,
    deliver: &mut dyn FnMut(Delivery) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let workers = opts.effective_threads();
    let fault = opts.fault.as_deref().filter(|f| !f.is_empty());
    let run = RunCtx {
        plan,
        catalog,
        cache,
        opts,
        fault,
        seg_cache: opts.segment_cache.as_deref().filter(|_| fault.is_none()),
        workers,
        early_gops: sink && opts.on_error == ErrorPolicy::Abort,
    };
    if workers <= 1 {
        for i in 0..plan.segments.len() {
            let out = run_segment_recovering(&run.segment(i, 1))?;
            deliver(Delivery::Segment(Box::new(out)))?;
        }
        return Ok(());
    }

    let sched = Mutex::new(SchedState {
        queue: dispatch_order(plan, catalog.plan_context()).into(),
        running: 0,
        shutdown: false,
    });
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let sched = &sched;
            scope.spawn(move || worker_loop(run, sched, &tx));
        }
        drop(tx);
        drive(&rx, deliver, plan, &sched)
    })
}

/// The order segments are handed to workers: longest-processing-time
/// first by [`segment_cost`], ties to the earliest segment (better for
/// streaming delivery). Stream copies go before every render: they cost
/// microseconds, so taking them first moves no makespan, and a copy at
/// the head of the output is delivered at once instead of after the
/// longest render. Empty segments are left out.
fn dispatch_order(plan: &PhysicalPlan, ctx: &PlanContext) -> Vec<usize> {
    let mut ranked: Vec<(bool, f64, usize)> = plan
        .segments
        .iter()
        .enumerate()
        .filter(|(_, seg)| seg.count > 0)
        .map(|(i, seg)| {
            let render = !seg.plan.is_copy();
            let cost = if render {
                segment_cost(plan, seg, ctx)
            } else {
                0.0
            };
            (render, cost, i)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(&b.2)));
    ranked.into_iter().map(|(_, _, i)| i).collect()
}

/// The ordered-delivery driver: passes output GOPs straight on, buffers
/// early-finishing segments and releases them to `deliver` strictly by
/// absolute output position.
fn drive(
    rx: &mpsc::Receiver<Result<Delivery, ExecError>>,
    deliver: &mut dyn FnMut(Delivery) -> Result<(), ExecError>,
    plan: &PhysicalPlan,
    sched: &Mutex<SchedState>,
) -> Result<(), ExecError> {
    let total: u64 = plan.segments.iter().map(|s| s.count).sum();
    let mut buffered: BTreeMap<u64, Box<SegmentOutput>> = BTreeMap::new();
    let mut next_abs = 0u64;
    let result = (|| {
        while next_abs < total {
            let out = match rx
                .recv()
                .expect("scheduler workers deliver every segment or an error")?
            {
                Delivery::Segment(out) => out,
                gop => {
                    deliver(gop)?;
                    continue;
                }
            };
            buffered.insert(plan.segments[out.seg_index].out_start, out);
            while let Some(ready) = buffered.remove(&next_abs) {
                next_abs += plan.segments[ready.seg_index].count;
                deliver(Delivery::Segment(ready))?;
            }
        }
        Ok(())
    })();
    // Stop the workers, whether the run finished or failed.
    lock(sched).shutdown = true;
    result
}

fn worker_loop(run: RunCtx<'_>, sched: &Mutex<SchedState>, tx: &Events) {
    loop {
        let (seg_index, running_now) = {
            let mut st = lock(sched);
            if st.shutdown {
                return;
            }
            // The queue only shrinks: an empty one means this worker is
            // done.
            let Some(i) = st.queue.pop_front() else {
                return;
            };
            st.running += 1;
            (i, st.running)
        };
        // A lone running segment composes with the whole pool's width;
        // with many in flight each keeps roughly its fair share.
        let ctx = SegmentCtx {
            gops: run.early_gops.then_some(tx),
            ..run.segment(seg_index, (run.workers / running_now.max(1)).max(1))
        };
        let res = run_segment_recovering(&ctx);
        let failed = res.is_err();
        {
            let mut st = lock(sched);
            st.running -= 1;
            st.shutdown |= failed;
        }
        // A send failure only means the driver already bailed.
        let _ = tx.send(res.map(|out| Delivery::Segment(Box::new(out))));
        if failed {
            return;
        }
    }
}

/// Executes one segment: a stream copy, or [`render_segment`].
fn run_segment(ctx: &SegmentCtx<'_>) -> Result<SegmentOutput, ExecError> {
    let started = Instant::now();
    let mut out = match &ctx.seg.plan {
        SegPlan::StreamCopy {
            video,
            src_from,
            src_to,
        } => {
            let stream = ctx
                .run
                .catalog
                .video(video)
                .ok_or_else(|| ExecError::UnknownVideo(video.clone()))?;
            let packets =
                stream.copy_packet_range(*src_from as usize, *src_to as usize, Rational::ZERO)?;
            let stats = ExecStats {
                packets_copied: packets.len() as u64,
                bytes_copied: packets.iter().map(|p| p.size() as u64).sum(),
                segments: 1,
                ..Default::default()
            };
            SegmentOutput::new(ctx, packets, stats)
        }
        SegPlan::Render { program, inputs } => render_segment(ctx, program, inputs)?,
    };
    out.wall_ns = started.elapsed().as_nanos() as u64;
    Ok(out)
}

/// [`run_segment`] under the run's [`ErrorPolicy`]: a failure goes to
/// [`recover_segment`].
fn run_segment_recovering(ctx: &SegmentCtx<'_>) -> Result<SegmentOutput, ExecError> {
    run_segment(ctx).or_else(|err| recover_segment(ctx, err))
}

/// Applies the run's [`ErrorPolicy`] to a failed segment: bounded
/// retries first (a transient fault recovers byte-identically, since
/// the retry re-runs the whole segment), then skip or substitute.
/// Under [`ErrorPolicy::Abort`] (or when even the black-frame fallback
/// fails) the last error propagates.
fn recover_segment(ctx: &SegmentCtx<'_>, err: ExecError) -> Result<SegmentOutput, ExecError> {
    let frames = ctx.seg.count;
    let fault = |action: FaultAction, retries: u64, err: &ExecError| SegmentFault {
        seg_index: ctx.seg_index as u64,
        abs_start: ctx.seg.out_start,
        frames,
        action,
        retries,
        error: err.to_string(),
        kind: exec_kind(err).name().to_string(),
    };
    let mut retries = 0u64;
    let mut last_err = err;
    while retries < u64::from(ctx.run.opts.max_retries) {
        retries += 1;
        match run_segment(ctx) {
            Ok(mut out) => {
                out.stats.retries = retries;
                out.fault = Some(fault(FaultAction::Recovered, retries, &last_err));
                return Ok(out);
            }
            Err(e) => last_err = e,
        }
    }
    let mut stats = ExecStats {
        segments: 1,
        retries,
        ..Default::default()
    };
    let (action, packets) = match ctx.run.opts.on_error {
        ErrorPolicy::Abort => return Err(last_err),
        ErrorPolicy::SkipSegment => {
            stats.parts_skipped = 1;
            (FaultAction::Skipped, Vec::new())
        }
        ErrorPolicy::SubstituteBlack => {
            let packets = encode_black(ctx)?;
            stats.parts_substituted = 1;
            stats.frames_substituted = frames;
            stats.frames_encoded = frames;
            stats.bytes_encoded = packets.iter().map(|p| p.size() as u64).sum();
            (FaultAction::SubstitutedBlack, packets)
        }
    };
    Ok(SegmentOutput {
        fault: Some(fault(action, retries, &last_err)),
        ..SegmentOutput::new(ctx, packets, stats)
    })
}

/// Encodes the segment as black frames on the output grid, one fresh
/// encoder per output GOP so the keyframe cadence matches a clean run.
fn encode_black(ctx: &SegmentCtx<'_>) -> Result<Vec<Packet>, ExecError> {
    let plan = ctx.run.plan;
    let gop = u64::from(plan.out_params.gop_size.max(1));
    let black = Frame::black(plan.out_params.frame_ty);
    let mut encoder = Encoder::new(plan.out_params);
    (0..ctx.seg.count)
        .map(|j| {
            if j > 0 && j % gop == 0 {
                encoder = Encoder::new(plan.out_params);
            }
            let pts = plan.frame_dur * Rational::from_int(j as i64);
            Ok(encoder.encode(&black, pts)?)
        })
        .collect()
}

/// The stream a render input decodes from, and its cache identity.
///
/// A clip retargeted at a storage variant decodes from the variant
/// bitstream under a distinct cache identity (`name#kind`), so cached
/// GOPs never mix bitstreams. The variant choice is advisory: when the
/// variant is not attached here (a worker without the store, a variant
/// dropped since planning), the cursor falls back to the original —
/// decode-sufficient variants are pixel-identical, so output bytes do
/// not depend on which stream actually serves the read.
fn resolve_input<'a>(
    catalog: &'a Catalog,
    clip: &InputClip,
) -> Result<(&'a VideoStream, String), ExecError> {
    let variant = if clip.variant.is_original() {
        None
    } else {
        catalog.variant(&clip.video, clip.variant)
    };
    match variant {
        Some(v) => Ok((&v.stream, format!("{}#{}", clip.video, clip.variant))),
        None => match catalog.video(&clip.video) {
            Some(s) => Ok((s, clip.video.clone())),
            None => Err(ExecError::UnknownVideo(clip.video.clone())),
        },
    }
}

/// A forward cursor over `clip`'s stream ([`resolve_input`]), carrying
/// the stream's cache identity, the shared GOP cache and the run's fault
/// injector.
pub(crate) fn open_cursor<'a>(
    ctx: &SegmentCtx<'a>,
    clip: &InputClip,
) -> Result<SourceCursor<'a>, ExecError> {
    let (stream, ident) = resolve_input(ctx.run.catalog, clip)?;
    let mut cursor = SourceCursor::new(stream, ident).with_cache(ctx.run.cache);
    if let Some(fault) = ctx.run.fault {
        cursor = cursor.with_fault(fault);
    }
    Ok(cursor)
}

/// One cursor per input slot.
fn build_cursors<'a>(
    ctx: &SegmentCtx<'a>,
    inputs: &'a [InputClip],
) -> Result<Vec<(SourceCursor<'a>, &'a InputClip)>, ExecError> {
    inputs
        .iter()
        .map(|clip| Ok((open_cursor(ctx, clip)?, clip)))
        .collect()
}

/// Reads `clip`'s source frame for output instant `t`.
pub(crate) fn read_input(
    cursor: &mut SourceCursor<'_>,
    clip: &InputClip,
    t: Rational,
) -> Result<Arc<Frame>, ExecError> {
    let src_t = clip.time.apply(t);
    let idx = cursor
        .stream()
        .index_of(src_t)
        .ok_or_else(|| ExecError::MissingFrame {
            video: clip.video.clone(),
            at: src_t,
        })?;
    cursor.frame_at(idx as u64)
}

/// Reads each input's frame for output instant `t`, conformed to the
/// output frame type.
fn gather_inputs(
    cursors: &mut [(SourceCursor<'_>, &InputClip)],
    t: Rational,
    out_ty: FrameType,
) -> Result<Vec<Arc<Frame>>, ExecError> {
    cursors
        .iter_mut()
        .map(|(cursor, clip)| Ok(conform_shared(&read_input(cursor, clip, t)?, out_ty)))
        .collect()
}

pub(crate) fn collect_cursor_stats(cursor: &SourceCursor<'_>, stats: &mut ExecStats) {
    stats.frames_decoded += cursor.frames_decoded;
    stats.bytes_decoded += cursor.bytes_decoded;
    stats.seeks += cursor.seeks;
    stats.gop_cache_hits += cursor.gop_cache_hits;
    stats.gop_cache_misses += cursor.gop_cache_misses;
}

pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The classic decode → compose → encode loop over the segment.
pub(crate) fn run_render_sequential(
    ctx: &SegmentCtx<'_>,
    program: &FrameProgram,
    inputs: &[InputClip],
) -> Result<SegmentOutput, ExecError> {
    let plan = ctx.run.plan;
    let out_ty = plan.out_params.frame_ty;
    let mut cursors = build_cursors(ctx, inputs)?;
    let mut encoder = Encoder::new(plan.out_params);
    let mut stats = ExecStats::default();
    let mut stage = StageTimes::default();
    let mut packets = Vec::with_capacity(ctx.seg.count as usize);
    for j in 0..ctx.seg.count {
        let t0 = Instant::now();
        let t = plan.instant_of(ctx.seg.out_start + j);
        let frames = gather_inputs(&mut cursors, t, out_ty)?;
        let t1 = Instant::now();
        let catalog = ctx.run.catalog;
        let out = apply_program(program, t, &frames, catalog.arrays(), catalog)?;
        let out = conform(out, out_ty);
        let t2 = Instant::now();
        let pts = plan.frame_dur * Rational::from_int(j as i64);
        let pkt = encoder.encode(&out, pts)?;
        stage.decode_ns += (t1 - t0).as_nanos() as u64;
        stage.compose_ns += (t2 - t1).as_nanos() as u64;
        stage.encode_ns += elapsed_ns(t2);
        stats.frames_encoded += 1;
        stats.bytes_encoded += pkt.size() as u64;
        packets.push(pkt);
    }
    for (cursor, _) in &cursors {
        collect_cursor_stats(cursor, &mut stats);
    }
    stats.segments = 1;
    Ok(SegmentOutput {
        stage,
        ..SegmentOutput::new(ctx, packets, stats)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::executor::execute;
    use v2v_codec::CodecParams;
    use v2v_container::StreamWriter;
    use v2v_frame::marker;
    use v2v_plan::{lower_spec, optimize, OptimizerConfig};
    use v2v_spec::builder::blur;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::r;

    thread_local! {
        /// Render-path threads this thread has spawned: decode lanes,
        /// the thread that meets several lanes' frames, and pool workers.
        static SPAWNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    pub(crate) fn count_spawn() {
        SPAWNS.with(|n| n.set(n.get() + 1));
    }

    /// Runs `f` and returns its value with the render-path threads it
    /// spawned from this thread.
    fn spawns_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let before = SPAWNS.with(std::cell::Cell::get);
        let out = f();
        (out, SPAWNS.with(std::cell::Cell::get) - before)
    }

    /// One unsharded `secs`-second render segment (30-frame output GOPs)
    /// over a marked 60-frame source.
    pub(crate) fn setup(secs: i64) -> (Catalog, PhysicalPlan) {
        setup_with(|b| b.append_filtered("src", r(0, 1), r(secs, 1), |e| blur(e, 1.0)))
    }

    /// The unsharded plan of the spec `body` appends over that source.
    fn setup_with(body: impl FnOnce(SpecBuilder) -> SpecBuilder) -> (Catalog, PhysicalPlan) {
        let (catalog, plan) = plan_with(body);
        assert_eq!(plan.segments.len(), 1, "test premise: single segment");
        (catalog, plan)
    }

    /// The unsharded plan of `body` over a marked 60-frame source with
    /// 30-frame GOPs.
    fn plan_with(body: impl FnOnce(SpecBuilder) -> SpecBuilder) -> (Catalog, PhysicalPlan) {
        let ty = FrameType::gray8(64, 32);
        let mut w = StreamWriter::new(CodecParams::new(ty, 30, 0), Rational::ZERO, r(1, 30));
        for i in 0..60 {
            let mut f = Frame::black(ty);
            marker::embed(&mut f, i);
            w.push_frame(&f).unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.add_video("src", w.finish().unwrap());
        let output = OutputSettings {
            frame_ty: ty,
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        };
        let spec = body(SpecBuilder::new(output).video("src", "src.svc")).build();
        let config = OptimizerConfig {
            shard: false,
            ..Default::default()
        };
        let plan = optimize(&lower_spec(&spec).unwrap(), catalog.plan_context(), &config).unwrap();
        (catalog, plan)
    }

    /// Copies go first in segment order, then renders longest first,
    /// equal prices in segment order.
    #[test]
    fn dispatch_order_is_copies_then_longest_render_first() {
        use v2v_spec::builder::grid4;
        use v2v_spec::RenderExpr;
        let (catalog, plan) = plan_with(|b| {
            b.append_filtered("src", r(0, 1), r(1, 1), |e| blur(e, 1.0))
                .append_clip("src", r(0, 1), r(1, 1))
                .append_with(r(1, 1), |start| {
                    let at = |k: i64| RenderExpr::video_shifted("src", r(k, 30) - start);
                    grid4(at(0), at(1), at(2), at(3))
                })
                .append_filtered("src", r(1, 1), r(1, 1), |e| blur(e, 1.0))
                .append_clip("src", r(1, 1), r(1, 1))
        });
        let ctx = catalog.plan_context();
        let copies: Vec<bool> = plan.segments.iter().map(|s| s.plan.is_copy()).collect();
        assert_eq!(copies, [false, true, false, false, true], "test premise");
        let price = |i: usize| segment_cost(&plan, &plan.segments[i], ctx);
        assert!(price(2) > price(0), "test premise: the grid costs most");
        assert_eq!(price(0), price(3), "test premise: the blurs tie");
        assert_eq!(dispatch_order(&plan, ctx), [1, 4, 2, 0, 3]);
    }

    /// The render threads of one segment, by worker count: none at one
    /// worker (the sequential loop runs on the caller); at `fanout`
    /// workers the decode lane plus `fanout − 1` pool workers for one
    /// input, and one more lane per input for a 4-input grid. Every arm
    /// writes the sequential loop's bytes.
    #[test]
    fn render_threads_are_one_lane_per_input_plus_the_pool() {
        let (catalog, single) = setup(2);
        // Four cells over the source's two GOPs, two of them a frame
        // apart: the lanes share prefixes.
        let (_, grid) = setup_with(|b| {
            use v2v_spec::builder::grid4;
            use v2v_spec::RenderExpr;
            b.append_with(r(1, 1), |_| {
                grid4(
                    RenderExpr::video("src"),
                    RenderExpr::video_shifted("src", r(1, 30)),
                    RenderExpr::video_shifted("src", r(1, 2)),
                    RenderExpr::video_shifted("src", r(1, 1)),
                )
            })
        });
        for (plan, lanes) in [(&single, 0), (&grid, 4)] {
            let serial = ExecOptions {
                num_threads: 1,
                ..Default::default()
            };
            let ((reference, _, _), spawns) =
                spawns_during(|| execute(plan, &catalog, &serial).unwrap());
            assert_eq!(spawns, 0, "one worker renders on the caller");
            // What `worker_loop` hands the only running segment.
            for fanout in [2, 3] {
                let opts = ExecOptions {
                    num_threads: fanout,
                    ..Default::default()
                };
                let cache = GopCache::new(opts.gop_cache_frames);
                let run = RunCtx {
                    plan,
                    catalog: &catalog,
                    cache: &cache,
                    opts: &opts,
                    fault: None,
                    seg_cache: None,
                    workers: fanout,
                    early_gops: false,
                };
                let (out, spawns) = spawns_during(|| run_segment(&run.segment(0, fanout)).unwrap());
                assert_eq!(spawns, 1 + (fanout - 1) + lanes, "{lanes} lanes, {fanout}");
                assert_eq!(out.packets, reference.packets(), "{lanes} lanes, {fanout}");
                assert_eq!(out.stats.frames_encoded, plan.segments[0].count);
            }
        }
    }
}
