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
//! 1. **Cost-ordered dispatch.** Each segment's cost is the planner's
//!    own per-segment estimate ([`v2v_plan::CostModel::segment`]: copy ≈
//!    packets, render ≈ frames × program width) and work is
//!    handed out longest-processing-time-first, the classic makespan
//!    heuristic: expensive renders start first so they never become the
//!    lonely tail of the run.
//! 2. **Intra-segment pipelining.** With more than one worker, a render
//!    segment overlaps its stages. Each input decodes on its own lane
//!    through a [`SourceCursor`] and the shared GOP cache's on-demand
//!    prefixes (one lane for a single input; for several, one thread
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
use crate::fault::{error_kind, ErrorPolicy, FaultAction, FaultInjector, SegmentFault};
use crate::flight::Claim;
use crate::gop_cache::GopCache;
use crate::render_cache::{CacheStats, EntryKey, Origin, SegmentCacheCtx};
use crate::trace::StageTimes;
use crate::ExecError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use v2v_codec::{Encoder, Packet};
use v2v_container::{Fragment, VideoStream};
use v2v_frame::ops::{conform, conform_shared};
use v2v_frame::{Frame, FrameType};
use v2v_plan::{CostModel, FrameProgram, InputClip, PhysicalPlan, PlanContext, SegPlan, Segment};
use v2v_time::Rational;

/// Output GOPs the pipelined render keeps in flight: the depth of each
/// decode channel, and the cap on frames taken for compose but not yet
/// encoded.
const PIPELINE_GOPS: u64 = 2;

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
    fn new(ctx: &SegmentCtx<'_>, packets: Vec<Packet>, stats: ExecStats) -> SegmentOutput {
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

/// A schedulable unit: one segment of the plan.
struct Task {
    seg_index: usize,
    /// Estimated cost in [`CostModel`] units.
    cost: f64,
    /// `true` once the task has been pushed back because its fragment
    /// key was in flight on another run — deferred at most once so the
    /// queue always drains.
    deferred: bool,
}

/// Dispatch state shared by the workers and the driver.
struct SchedState {
    /// Pending tasks sorted by ascending cost (pop from the back = LPT).
    /// Nothing is added mid-run; the one-time deferral re-inserts a
    /// popped task at the front.
    queue: Vec<Task>,
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
struct RunCtx<'a> {
    plan: &'a PhysicalPlan,
    catalog: &'a Catalog,
    cache: &'a GopCache,
    opts: &'a ExecOptions,
    /// The fault injector, when one is configured and non-empty.
    fault: Option<&'a FaultInjector>,
    /// Persistent segment cache for this run (`None` disables reuse).
    /// Always `None` while a fault injector is active: a cache hit would
    /// mask the injection the test asked for.
    seg_cache: Option<&'a SegmentCacheCtx>,
    /// The run's worker count: one runs every render through the
    /// sequential loop, more through the decode-ahead pipeline.
    workers: usize,
    /// Whether output GOPs are delivered as they are encoded: only when
    /// the run has a sink and aborts on error. Under the other policies a
    /// later failure replaces the whole segment, so no sink may have
    /// seen any of it.
    early_gops: bool,
}

/// Everything a worker needs to execute one segment.
struct SegmentCtx<'a> {
    run: RunCtx<'a>,
    seg: &'a Segment,
    seg_index: usize,
    /// Threads this segment's compose and encode stages may use.
    fanout: usize,
    /// Where the pipelined render sends each output GOP once encoded
    /// (`None`: the segment is delivered whole only).
    gops: Option<&'a Events>,
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

/// Estimates a segment's execution cost in [`CostModel`] units: the
/// planner's per-segment estimate with no source metadata (every input
/// priced at the output geometry, no roll-in).
pub fn segment_cost(plan: &PhysicalPlan, seg: &Segment) -> f64 {
    CostModel::default()
        .segment(plan, seg, &PlanContext::new())
        .total()
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

    let mut tasks: Vec<Task> = plan
        .segments
        .iter()
        .enumerate()
        .filter(|(_, seg)| seg.count > 0)
        .map(|(i, seg)| Task {
            seg_index: i,
            cost: segment_cost(plan, seg),
            deferred: false,
        })
        .collect();
    // Ascending cost, ties broken so the back of the queue (popped
    // first) is the earliest segment — better for streaming delivery.
    // Stream copies sort behind every render: they cost microseconds, so
    // popping them first moves no makespan, and a copy at the head of
    // the output is delivered at once instead of after the longest
    // render.
    let rank = |t: &Task| {
        let copy = plan.segments[t.seg_index].plan.is_copy();
        (copy, if copy { 0.0 } else { t.cost })
    };
    tasks.sort_by(|a, b| {
        let ((copy_a, cost_a), (copy_b, cost_b)) = (rank(a), rank(b));
        copy_a
            .cmp(&copy_b)
            .then(cost_a.total_cmp(&cost_b))
            .then(b.seg_index.cmp(&a.seg_index))
    });
    let sched = Mutex::new(SchedState {
        queue: tasks,
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
    let flight = run
        .seg_cache
        .and_then(|sc| sc.flight.as_deref().map(|f| (sc, f)));
    loop {
        let (task, running_now) = {
            let mut st = lock(sched);
            loop {
                if st.shutdown {
                    return;
                }
                // The queue only shrinks: an empty one means this
                // worker is done.
                let Some(t) = st.queue.pop() else { return };
                // Overlap-aware dispatch: a segment whose key is being
                // rendered by another run right now would only block on
                // its flight — push it behind the other pending work
                // (once) and take something that makes progress. By the
                // time it is re-popped the other run has usually
                // published.
                if let Some((sc, flight)) = flight {
                    if !t.deferred && !st.queue.is_empty() {
                        if let Some(key) = sc.key(t.seg_index) {
                            if flight.is_inflight(&key) {
                                let mut t = t;
                                t.deferred = true;
                                st.queue.insert(0, t);
                                continue;
                            }
                        }
                    }
                }
                st.running += 1;
                break (t, st.running);
            }
        };
        // A lone running segment composes with the whole pool's width;
        // with many in flight each keeps roughly its fair share.
        let ctx = SegmentCtx {
            gops: run.early_gops.then_some(tx),
            ..run.segment(task.seg_index, (run.workers / running_now.max(1)).max(1))
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

/// True when a fragment can stand in for this whole segment: identical
/// frame count, grid, and codec parameters. Content-addressed keys make
/// a mismatch nearly impossible; the check keeps a hash collision or a
/// foreign cache directory from corrupting output.
fn fragment_matches(ctx: &SegmentCtx<'_>, frag: &Fragment) -> bool {
    frag.len() as u64 == ctx.seg.count
        && frag.frame_dur() == ctx.run.plan.frame_dur
        && frag.params().compatible_with(&ctx.run.plan.out_params)
}

/// Renders one segment, reusing a fragment when the segment is keyed.
/// This is the one place the reuse order is spelled: **in-flight →
/// memory → disk → remote → render**, then **store → publish**.
///
/// The flight is claimed *before* the tiers are consulted and an owner
/// stores *before* it publishes, so a concurrent duplicate either joins
/// the flight or finds the entry on disk — a segment is never rendered
/// twice, under any interleaving. A run without a flight (one-shot
/// `v2v run`) is simply an owner nobody waits on.
fn render_segment(
    ctx: &SegmentCtx<'_>,
    program: &FrameProgram,
    inputs: &[InputClip],
) -> Result<SegmentOutput, ExecError> {
    // A fresh render: pipelined, or the sequential loop on one worker.
    let fresh = || {
        if ctx.run.workers > 1 {
            run_render_pipelined(ctx, program, inputs)
        } else {
            run_render_sequential(ctx, program, inputs)
        }
    };
    let keyed = ctx
        .run
        .seg_cache
        .and_then(|sc| Some((sc, sc.key(ctx.seg_index)?)));
    let Some((sc, key)) = keyed else {
        return fresh();
    };
    // The segment's output when its packets come from a reused fragment.
    let reused = |frag: &Fragment, origin: Origin| {
        let stats = ExecStats {
            segments: 1,
            cache: CacheStats::for_hit(EntryKey::Segment(key), origin, frag.byte_size()),
            ..Default::default()
        };
        SegmentOutput::new(ctx, frag.packets().to_vec(), stats)
    };
    let guard = match sc.flight.as_deref().map(|flight| flight.claim(key)) {
        Some(Claim::Shared(Some(frag))) if fragment_matches(ctx, &frag) => {
            return Ok(reused(&frag, Origin::Flight));
        }
        // Owner failed, or (vanishingly unlikely) published a fragment
        // that does not fit this plan: render locally.
        Some(Claim::Shared(_)) => return fresh(),
        Some(Claim::Owner(guard)) => Some(guard),
        None => None,
    };
    let fits = |found: &(Arc<Fragment>, Origin)| fragment_matches(ctx, &found.0);
    let tiers = || sc.cache.as_deref()?.load_segment_tiered(key);
    // The transport verifies the digest; `fits` shape-checks the
    // fragment against the plan. Any failure falls back to rendering.
    let remote = || {
        let cost = segment_cost(ctx.run.plan, ctx.seg);
        let frag = sc
            .remote
            .as_deref()?
            .render_remote(ctx.seg_index, key, cost)?;
        Some((Arc::new(frag), Origin::Remote))
    };
    let (out, frag, store) = match tiers().filter(fits).or_else(|| remote().filter(fits)) {
        // A remote fragment is persisted so the coordinator's own tiers
        // warm up for the next query.
        Some((frag, origin)) => (reused(&frag, origin), Some(frag), origin == Origin::Remote),
        None => {
            let out = fresh()?;
            let (params, dur) = (ctx.run.plan.out_params, ctx.run.plan.frame_dur);
            let frag = Fragment::new(params, dur, out.packets.clone()).ok();
            (out, frag.map(Arc::new), true)
        }
    };
    // A `None` here is an unfragmentable render (shouldn't happen for a
    // clean one): the guard drops and waiters fall back.
    if let Some(frag) = frag {
        if let Some(cache) = sc.cache.as_deref().filter(|_| store) {
            // A failed store (disk full, permissions) only costs the
            // next run a re-render; never fail the query for it.
            let _ = cache.store_segment(key, &frag);
        }
        if let Some(guard) = guard {
            guard.publish(frag);
        }
    }
    Ok(out)
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
        kind: error_kind(err).to_string(),
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
fn open_cursor<'a>(ctx: &SegmentCtx<'a>, clip: &InputClip) -> Result<SourceCursor<'a>, ExecError> {
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
fn read_input(
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

fn collect_cursor_stats(cursor: &SourceCursor<'_>, stats: &mut ExecStats) {
    stats.frames_decoded += cursor.frames_decoded;
    stats.bytes_decoded += cursor.bytes_decoded;
    stats.seeks += cursor.seeks;
    stats.gop_cache_hits += cursor.gop_cache_hits;
    stats.gop_cache_misses += cursor.gop_cache_misses;
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The classic decode → compose → encode loop over the segment.
fn run_render_sequential(
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

/// One decoded output instant: segment-relative frame index, instant,
/// and each input's frame in input order.
type DecodedFrame = (u64, Rational, Vec<Arc<Frame>>);

/// The stop and error state of one pipelined render attempt, shared by
/// its decode lanes and its workers.
struct Flow {
    /// Raised with the first error. Every stage polls it, and the
    /// cursors refuse to decode once it is up.
    stop: AtomicBool,
    first: Mutex<Option<ExecError>>,
    /// Frames workers have taken and not yet encoded.
    taken: Mutex<u64>,
    room: Condvar,
}

/// The pipeline's shared locks guard an error slot, a counter and the
/// work channel, each valid after every step, and its wake-ups run while
/// threads unwind; a poisoned lock is recovered rather than turned into
/// a second panic.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Flow {
    fn new() -> Flow {
        Flow {
            stop: AtomicBool::new(false),
            first: Mutex::new(None),
            taken: Mutex::new(0),
            room: Condvar::new(),
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Records `err` unless an earlier error was recorded, and stops
    /// every stage.
    fn fail(&self, err: ExecError) {
        relock(&self.first).get_or_insert(err);
        self.raise();
    }

    fn raise(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Notified under the lock, so a worker between its check of the
        // flag and its wait cannot miss the wake-up.
        let _taken = relock(&self.taken);
        self.room.notify_all();
    }

    /// Waits until fewer than `cap` frames are taken and takes one;
    /// `false` once stopped.
    fn take(&self, cap: u64) -> bool {
        let mut taken = relock(&self.taken);
        while *taken >= cap && !self.stopped() {
            taken = self
                .room
                .wait(taken)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if self.stopped() {
            return false;
        }
        *taken += 1;
        true
    }

    fn give_back(&self) {
        *relock(&self.taken) -= 1;
        self.room.notify_one();
    }
}

/// Raises the flow's stop flag when its thread unwinds, so no stage
/// waits on a thread that died.
struct StopOnPanic<'a>(&'a Flow);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.raise();
        }
    }
}

/// One output GOP's encode state. Composed frames wait here until every
/// earlier frame of the GOP is encoded.
struct GopSlot {
    /// Segment-relative index of the next frame to encode.
    next: u64,
    /// One past the GOP's last frame.
    end: u64,
    ready: BTreeMap<u64, Frame>,
    /// The GOP's fresh encoder: taken out by the worker encoding the
    /// ready frames, and dropped after the GOP's last frame.
    encoder: Option<Encoder>,
    packets: Vec<Packet>,
}

fn slot_lock(slot: &Mutex<GopSlot>) -> MutexGuard<'_, GopSlot> {
    slot.lock().expect("output GOP slot poisoned")
}

/// Decodes one input for every output instant of the segment and hands
/// each frame, conformed to the output type, to `send` (`false` once its
/// receiver is gone). Returns the lane's cursor counters and its decode
/// busy time: decoder calls and conforms, never waits on a prefix
/// another lane is growing.
fn run_lane(
    ctx: &SegmentCtx<'_>,
    clip: &InputClip,
    flow: &Flow,
    mut send: impl FnMut(u64, Rational, Arc<Frame>) -> bool,
) -> (ExecStats, u64) {
    let _guard = StopOnPanic(flow);
    let (plan, out_ty) = (ctx.run.plan, ctx.run.plan.out_params.frame_ty);
    let mut cursor = match open_cursor(ctx, clip) {
        Ok(cursor) => cursor.with_halt(&flow.stop),
        Err(e) => {
            flow.fail(e);
            return Default::default();
        }
    };
    let mut conform_ns = 0;
    for j in 0..ctx.seg.count {
        if flow.stopped() {
            break;
        }
        let t = plan.instant_of(ctx.seg.out_start + j);
        let frame = match read_input(&mut cursor, clip, t) {
            Ok(frame) => frame,
            Err(e) => {
                // A refusal is not an error of its own: whoever raised
                // the flag records theirs.
                if !cursor.halted() {
                    flow.fail(e);
                }
                break;
            }
        };
        let started = Instant::now();
        let frame = conform_shared(&frame, out_ty);
        conform_ns += elapsed_ns(started);
        if !send(j, t, frame) {
            break;
        }
    }
    let mut stats = ExecStats::default();
    collect_cursor_stats(&cursor, &mut stats);
    (stats, cursor.decode_ns + conform_ns)
}

/// One pool worker: takes decoded frames as they arrive, composes each,
/// and encodes whatever its frame made ready. Returns its compose and
/// encode busy time.
fn run_worker(
    ctx: &SegmentCtx<'_>,
    program: &FrameProgram,
    flow: &Flow,
    rx: &Mutex<Option<mpsc::Receiver<DecodedFrame>>>,
    gops: &[Mutex<GopSlot>],
) -> StageTimes {
    let _guard = StopOnPanic(flow);
    let (plan, catalog) = (ctx.run.plan, ctx.run.catalog);
    let gop = u64::from(plan.out_params.gop_size.max(1));
    let mut stage = StageTimes::default();
    while flow.take(PIPELINE_GOPS * gop) {
        let item = relock(rx).as_ref().and_then(|rx| rx.recv().ok());
        let Some((j, t, frames)) = item else {
            flow.give_back();
            break;
        };
        let started = Instant::now();
        let composed = apply_program(program, t, &frames, catalog.arrays(), catalog)
            .map(|f| conform(f, plan.out_params.frame_ty));
        stage.compose_ns += elapsed_ns(started);
        drop(frames);
        let slot = &gops[(j / gop) as usize];
        if let Err(e) = composed.and_then(|f| encode_ready(ctx, flow, slot, j, f, &mut stage)) {
            flow.fail(e);
            break;
        }
    }
    if flow.stopped() {
        // Nobody drains the channel any more: drop it, so a producer
        // blocked on a full channel wakes and stops too.
        relock(rx).take();
    }
    stage
}

/// Files composed frame `j` in its output GOP's slot. Unless another
/// worker is already draining the slot, encodes every frame that is now
/// next in line, with the GOP's own encoder, outside the slot lock. The
/// worker that encodes a GOP's last frame sends the GOP on to the driver
/// when the segment streams its GOPs.
fn encode_ready(
    ctx: &SegmentCtx<'_>,
    flow: &Flow,
    slot: &Mutex<GopSlot>,
    j: u64,
    frame: Frame,
    stage: &mut StageTimes,
) -> Result<(), ExecError> {
    let plan = ctx.run.plan;
    let mut s = slot_lock(slot);
    s.ready.insert(j, frame);
    // No encoder: another worker is encoding this GOP and will find `j`.
    let Some(mut encoder) = s.encoder.take() else {
        return Ok(());
    };
    loop {
        let next = s.next;
        let Some(frame) = s.ready.remove(&next) else {
            break;
        };
        drop(s);
        let started = Instant::now();
        let pkt = encoder.encode(&frame, plan.frame_dur * Rational::from_int(next as i64));
        stage.encode_ns += elapsed_ns(started);
        flow.give_back();
        let pkt = pkt?;
        s = slot_lock(slot);
        s.next += 1;
        s.packets.push(pkt);
    }
    if s.next < s.end {
        s.encoder = Some(encoder);
    } else if let Some(gops) = ctx.gops {
        let start = ctx.seg.out_start + s.end - s.packets.len() as u64;
        let packets = s.packets.clone();
        drop(s);
        // A send failure only means the driver already bailed.
        let _ = gops.send(Ok(Delivery::Gop { start, packets }));
    }
    Ok(())
}

/// The pipelined render. Decode lanes ([`run_lane`]) feed a channel
/// [`PIPELINE_GOPS`] output GOPs deep; `fanout` workers ([`run_worker`]:
/// this thread plus `fanout − 1` spawned ones) compose the frames as
/// they arrive and encode each output GOP in order with a fresh encoder.
/// A single input decodes on one lane thread. Several decode on one
/// thread each, into channels of their own, and a further thread meets
/// their frames in input order. The first error of any stage stops
/// every stage and is returned. Stage times are summed over threads, so
/// they are busy time at any width.
fn run_render_pipelined(
    ctx: &SegmentCtx<'_>,
    program: &FrameProgram,
    inputs: &[InputClip],
) -> Result<SegmentOutput, ExecError> {
    let plan = ctx.run.plan;
    let gop = u64::from(plan.out_params.gop_size.max(1));
    let window = (PIPELINE_GOPS * gop) as usize;
    let end = ctx.seg.count;
    let flow = &Flow::new();
    let gops: Vec<Mutex<GopSlot>> = (0..end.div_ceil(gop))
        .map(|g| {
            Mutex::new(GopSlot {
                next: g * gop,
                end: end.min((g + 1) * gop),
                ready: BTreeMap::new(),
                encoder: Some(Encoder::new(plan.out_params)),
                packets: Vec::new(),
            })
        })
        .collect();
    let (work_tx, work_rx) = mpsc::sync_channel::<DecodedFrame>(window);
    let work_rx = &Mutex::new(Some(work_rx));

    let (lanes, stage) = std::thread::scope(|scope| {
        let mut lanes = Vec::with_capacity(inputs.len());
        #[cfg(test)]
        tests::count_spawn();
        if let [clip] = inputs {
            lanes.push(scope.spawn(move || {
                run_lane(ctx, clip, flow, |j, t, frame| {
                    work_tx.send((j, t, vec![frame])).is_ok()
                })
            }));
        } else {
            let mut lane_rxs = Vec::with_capacity(inputs.len());
            for clip in inputs {
                let (tx, rx) = mpsc::sync_channel(window);
                lane_rxs.push(rx);
                #[cfg(test)]
                tests::count_spawn();
                lanes.push(scope.spawn(move || {
                    run_lane(ctx, clip, flow, |_, _, frame| tx.send(frame).is_ok())
                }));
            }
            scope.spawn(move || {
                let _guard = StopOnPanic(flow);
                for j in 0..end {
                    let frames = lane_rxs.iter().map(mpsc::Receiver::recv).collect();
                    let Ok(frames) = frames else { break };
                    let t = plan.instant_of(ctx.seg.out_start + j);
                    if flow.stopped() || work_tx.send((j, t, frames)).is_err() {
                        break;
                    }
                }
            });
        }
        let workers: Vec<_> = (1..ctx.fanout.max(1))
            .map(|_| {
                #[cfg(test)]
                tests::count_spawn();
                scope.spawn(|| run_worker(ctx, program, flow, work_rx, &gops))
            })
            .collect();
        let mut stage = run_worker(ctx, program, flow, work_rx, &gops);
        for worker in workers {
            stage = stage.merge(join(worker));
        }
        (lanes.into_iter().map(join).collect::<Vec<_>>(), stage)
    });

    if let Some(err) = relock(&flow.first).take() {
        return Err(err);
    }
    let mut stats = ExecStats::default();
    let mut stage = stage;
    for (lane_stats, decode_ns) in lanes {
        stats = stats.merge(lane_stats);
        stage.decode_ns += decode_ns;
    }
    let mut packets = Vec::with_capacity(end as usize);
    for slot in gops {
        let slot = slot.into_inner().expect("output GOP slot poisoned");
        packets.extend(slot.packets);
    }
    assert_eq!(
        packets.len() as u64,
        end,
        "a clean render encodes every frame"
    );
    stats.frames_encoded = end;
    stats.bytes_encoded = packets.iter().map(|p| p.size() as u64).sum();
    stats.segments = 1;
    Ok(SegmentOutput {
        stage,
        ..SegmentOutput::new(ctx, packets, stats)
    })
}

/// Joins a render thread, re-raising its panic.
fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute;
    use crate::flight::FragmentFlight;
    use crate::remote::RemoteRenderer;
    use crate::render_cache::RenderCache;
    use v2v_codec::CodecParams;
    use v2v_container::{StreamWriter, VideoStream};
    use v2v_frame::marker;
    use v2v_plan::{lower_spec, optimize, OptimizerConfig};
    use v2v_spec::builder::blur;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::r;

    const KEY: u64 = 0x5e6;

    thread_local! {
        /// Render-path threads this thread has spawned: decode lanes,
        /// the thread that meets several lanes' frames, and pool workers.
        static SPAWNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    pub(super) fn count_spawn() {
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
    fn setup(secs: i64) -> (Catalog, PhysicalPlan) {
        setup_with(|b| b.append_filtered("src", r(0, 1), r(secs, 1), |e| blur(e, 1.0)))
    }

    /// The unsharded plan of the spec `body` appends over that source.
    fn setup_with(body: impl FnOnce(SpecBuilder) -> SpecBuilder) -> (Catalog, PhysicalPlan) {
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
            shard_min_frames: u64::MAX,
            ..Default::default()
        };
        let plan = optimize(&lower_spec(&spec).unwrap(), catalog.plan_context(), &config).unwrap();
        assert_eq!(plan.segments.len(), 1, "test premise: single segment");
        (catalog, plan)
    }

    #[derive(Debug)]
    struct Canned(Fragment);

    impl RemoteRenderer for Canned {
        fn render_remote(&self, _seg: usize, key: u64, _cost: f64) -> Option<Fragment> {
            (key == KEY).then(|| self.0.clone())
        }
    }

    fn temp_cache(tag: &str) -> Arc<RenderCache> {
        let dir = std::env::temp_dir().join(format!("v2v_sched_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(RenderCache::open(dir, 0).unwrap().with_mem_tier(1 << 20))
    }

    fn run(
        catalog: &Catalog,
        plan: &PhysicalPlan,
        sc: SegmentCacheCtx,
    ) -> (VideoStream, CacheStats) {
        let opts = ExecOptions {
            segment_cache: Some(Arc::new(sc)),
            ..Default::default()
        };
        let (out, stats, _) = execute(plan, catalog, &opts).unwrap();
        (out, stats.cache)
    }

    /// Drives the one lookup chain through every origin and checks the
    /// attribution each has always reported.
    #[test]
    fn every_origin_attributes_as_before_and_yields_the_same_bytes() {
        let (catalog, plan) = setup(1);
        let ctx = |cache: Option<&Arc<RenderCache>>| SegmentCacheCtx {
            cache: cache.cloned(),
            keys: vec![Some(KEY)],
            ..Default::default()
        };
        let cache = temp_cache("tiers");

        // Fresh, one-shot (no flight): nothing reused, and the segment
        // is stored exactly once, by `render_segment` — an owner nobody
        // waits on. The disk run below reads that entry back.
        let (fresh, stats) = run(&catalog, &plan, ctx(Some(&cache)));
        assert_eq!(stats, CacheStats::default());
        assert_eq!(cache.entries(), 1);
        let bytes = fresh.byte_size();
        let same = |out: &VideoStream| assert_eq!(out.content_digest(), fresh.content_digest());

        // Disk (the fresh run's miss was the first access, so this
        // second one promotes), then memory.
        let disk = CacheStats {
            segment_hits: 1,
            bytes_reused: bytes,
            ..Default::default()
        };
        for want in [
            disk,
            CacheStats {
                mem_hits: 1,
                ..disk
            },
        ] {
            let (out, stats) = run(&catalog, &plan, ctx(Some(&cache)));
            assert_eq!(stats, want);
            same(&out);
        }

        // Flight: another run owns the key and publishes while we wait.
        let flight = Arc::new(FragmentFlight::new());
        let frag = Arc::new(cache.load_segment(KEY).unwrap());
        let (out, stats) = std::thread::scope(|scope| {
            let Claim::Owner(guard) = flight.claim(KEY) else {
                panic!("unclaimed key");
            };
            let sc = SegmentCacheCtx {
                flight: Some(Arc::clone(&flight)),
                ..ctx(None)
            };
            let waiter = scope.spawn(|| run(&catalog, &plan, sc));
            while flight.waiting() == 0 {
                std::thread::yield_now();
            }
            guard.publish(Arc::clone(&frag));
            waiter.join().unwrap()
        });
        let shared = CacheStats {
            shared_segment_hits: 1,
            bytes_reused: bytes,
            ..Default::default()
        };
        assert_eq!(stats, shared);
        same(&out);

        // Remote: every local tier misses, the hook answers, and the
        // fragment is stored before it is published.
        let cold = temp_cache("remote");
        let sc = SegmentCacheCtx {
            flight: Some(Arc::clone(&flight)),
            remote: Some(Arc::new(Canned((*frag).clone()))),
            ..ctx(Some(&cold))
        };
        let (out, stats) = run(&catalog, &plan, sc);
        let remote = CacheStats {
            remote_segments: 1,
            bytes_reused: bytes,
            ..Default::default()
        };
        assert_eq!(stats, remote);
        same(&out);
        assert_eq!((cold.entries(), flight.published()), (1, 2));

        // Fresh again, this time as a flight owner: stored, published.
        let cold = temp_cache("owner");
        let sc = SegmentCacheCtx {
            flight: Some(Arc::clone(&flight)),
            ..ctx(Some(&cold))
        };
        let (out, stats) = run(&catalog, &plan, sc);
        assert_eq!(stats, CacheStats::default());
        same(&out);
        assert_eq!((cold.entries(), flight.published()), (1, 3));
        assert_eq!((flight.inflight(), flight.shared()), (0, 1));
        for c in [cache, cold] {
            let _ = std::fs::remove_dir_all(c.dir());
        }
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
