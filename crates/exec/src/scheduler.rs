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
//!    segment runs a decode-ahead prefetch thread that pulls source
//!    frames through [`SourceCursor`] / the shared GOP cache into a
//!    bounded channel two output GOPs deep; each two-GOP batch is
//!    composed in parallel, and its independent output GOPs are encoded
//!    concurrently, their packet runs spliced in order (output GOPs are
//!    independent under the codec: a fresh [`Encoder`] at a GOP
//!    boundary reproduces identical bytes). The fan-out width is
//!    `SegmentCtx::fanout`: a lone running render composes and encodes
//!    with every worker's share. One worker runs the sequential
//!    decode → compose → encode loop, the reference arm of every
//!    identity test.
//!
//! Segments are emitted to a `deliver` callback **in presentation
//! order** (a reorder buffer holds early finishers), so the executor's
//! driver can splice directly into a [`StreamWriter`] and sink packets
//! as soon as the head of the output is ready.
//!
//! [`StreamWriter`]: v2v_container::StreamWriter

use crate::apply::apply_program;
use crate::catalog::Catalog;
use crate::cursor::{GopReach, SourceCursor};
use crate::executor::{ExecOptions, ExecStats};
use crate::fault::{error_kind, ErrorPolicy, FaultAction, FaultInjector, SegmentFault};
use crate::flight::Claim;
use crate::gop_cache::GopCache;
use crate::render_cache::{CacheStats, EntryKey, Origin, SegmentCacheCtx};
use crate::trace::StageTimes;
use crate::ExecError;
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use v2v_codec::{Encoder, Packet};
use v2v_container::{Fragment, VideoStream};
use v2v_frame::ops::{conform, conform_shared};
use v2v_frame::{Frame, FrameType};
use v2v_plan::{
    clip_read_range, CostModel, FrameProgram, InputClip, PhysicalPlan, PlanContext, SegPlan,
    Segment,
};
use v2v_time::Rational;

/// Output GOPs the decode-ahead pipeline keeps in flight: the prefetch
/// channel's depth and the size of each compose + encode batch.
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

/// The last source frame a run reads from each GOP, per cursor identity
/// (the GOP cache's key, `(identity, keyframe)`, split in two).
type ReadReach = HashMap<String, GopReach>;

/// The facts of one run, derived once in [`execute_scheduled`].
#[derive(Clone, Copy)]
struct RunCtx<'a> {
    plan: &'a PhysicalPlan,
    catalog: &'a Catalog,
    cache: &'a GopCache,
    /// Where a GOP-cache miss stops decoding ([`read_reach`]).
    reach: &'a ReadReach,
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
}

/// Everything a worker needs to execute one segment.
struct SegmentCtx<'a> {
    run: RunCtx<'a>,
    seg: &'a Segment,
    seg_index: usize,
    /// Threads this segment's compose and encode stages may use.
    fanout: usize,
}

impl<'a> RunCtx<'a> {
    fn segment(self, seg_index: usize, fanout: usize) -> SegmentCtx<'a> {
        SegmentCtx {
            run: self,
            seg: &self.plan.segments[seg_index],
            seg_index,
            fanout,
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
/// worker pool with intra-segment pipelining.
pub(crate) fn execute_scheduled(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    cache: &GopCache,
    deliver: &mut dyn FnMut(SegmentOutput) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let workers = opts.effective_threads();
    let fault = opts.fault.as_deref().filter(|f| !f.is_empty());
    let reach = read_reach(plan, catalog);
    let run = RunCtx {
        plan,
        catalog,
        cache,
        reach: &reach,
        opts,
        fault,
        seg_cache: opts.segment_cache.as_deref().filter(|_| fault.is_none()),
        workers,
    };
    if workers <= 1 {
        for i in 0..plan.segments.len() {
            deliver(run_segment_recovering(&run.segment(i, 1))?)?;
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
    let (tx, rx) = mpsc::channel::<Result<SegmentOutput, ExecError>>();
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

/// The ordered-delivery driver: buffers early-finishing segments and
/// releases them to `deliver` strictly by absolute output position.
fn drive(
    rx: &mpsc::Receiver<Result<SegmentOutput, ExecError>>,
    deliver: &mut dyn FnMut(SegmentOutput) -> Result<(), ExecError>,
    plan: &PhysicalPlan,
    sched: &Mutex<SchedState>,
) -> Result<(), ExecError> {
    let total: u64 = plan.segments.iter().map(|s| s.count).sum();
    let mut buffered: BTreeMap<u64, SegmentOutput> = BTreeMap::new();
    let mut next_abs = 0u64;
    let result = (|| {
        while next_abs < total {
            let out = rx
                .recv()
                .expect("scheduler workers deliver every segment or an error")?;
            buffered.insert(plan.segments[out.seg_index].out_start, out);
            while let Some(ready) = buffered.remove(&next_abs) {
                next_abs += plan.segments[ready.seg_index].count;
                deliver(ready)?;
            }
        }
        Ok(())
    })();
    // Stop the workers, whether the run finished or failed.
    lock(sched).shutdown = true;
    result
}

fn worker_loop(
    run: RunCtx<'_>,
    sched: &Mutex<SchedState>,
    tx: &mpsc::Sender<Result<SegmentOutput, ExecError>>,
) {
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
        let ctx = run.segment(task.seg_index, (run.workers / running_now.max(1)).max(1));
        let res = run_segment_recovering(&ctx);
        let failed = res.is_err();
        {
            let mut st = lock(sched);
            st.running -= 1;
            st.shutdown |= failed;
        }
        // A send failure only means the driver already bailed.
        let _ = tx.send(res);
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
    let gop = u64::from(ctx.run.plan.out_params.gop_size.max(1));
    let black = Frame::black(ctx.run.plan.out_params.frame_ty);
    let to = ctx.seg.count;
    let mut packets = Vec::with_capacity(to as usize);
    let mut wj = 0;
    while wj < to {
        let n = gop.min(to - wj) as usize;
        let frames: Vec<Frame> = (0..n).map(|_| black.clone()).collect();
        let (run, _) = encode_window(ctx, wj, &frames)?;
        packets.extend(run);
        wj += n as u64;
    }
    Ok(packets)
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

/// The run's read reach: for every GOP a render input touches, keyed by
/// the input's cache identity and the GOP's keyframe, the last frame any
/// segment reads from it. Each input's read range is the planner's own
/// ([`clip_read_range`]) mapped onto the stream [`resolve_input`] picks;
/// a GOP the range passes through reaches its end. An end that does not
/// map onto the stream widens the range to the stream's edge, so a
/// reach may overshoot a read but never fall short of one.
fn read_reach(plan: &PhysicalPlan, catalog: &Catalog) -> ReadReach {
    let mut reach = ReadReach::new();
    for seg in &plan.segments {
        let SegPlan::Render { inputs, .. } = &seg.plan else {
            continue;
        };
        for clip in inputs {
            // An unresolvable input fails its segment before any read.
            let Ok((stream, ident)) = resolve_input(catalog, clip) else {
                continue;
            };
            let (lo_t, hi_t) = clip_read_range(plan, clip, seg.out_start, seg.count);
            let lo = stream.index_of(lo_t).unwrap_or(0);
            let hi = stream
                .index_of(hi_t)
                .unwrap_or(stream.len().saturating_sub(1));
            let gops = reach.entry(ident).or_default();
            let mut kf = stream.keyframe_at_or_before(lo);
            while let Some(k) = kf.filter(|&k| k <= hi) {
                let next = stream.next_keyframe_at_or_after(k + 1);
                let last = next.map_or(hi, |n| hi.min(n - 1)) as u64;
                let slot = gops.entry(k as u64).or_insert(last);
                *slot = (*slot).max(last);
                kf = next;
            }
        }
    }
    reach
}

/// One forward cursor per input slot ([`resolve_input`]), each carrying
/// its stream's cache identity, the shared GOP cache and the run's read
/// reach for that identity.
fn build_cursors<'a>(
    ctx: &SegmentCtx<'a>,
    inputs: &'a [InputClip],
) -> Result<Vec<(SourceCursor<'a>, &'a InputClip)>, ExecError> {
    inputs
        .iter()
        .map(|clip| {
            let (stream, ident) = resolve_input(ctx.run.catalog, clip)?;
            let reach = ctx.run.reach.get(&ident);
            let mut cursor = SourceCursor::new(stream, ident)
                .with_cache(ctx.run.cache)
                .with_reach(reach);
            if let Some(fault) = ctx.run.fault {
                cursor = cursor.with_fault(fault);
            }
            Ok((cursor, clip))
        })
        .collect()
}

/// Reads each input's frame for output instant `t`, conformed to the
/// output frame type.
fn gather_inputs(
    cursors: &mut [(SourceCursor<'_>, &InputClip)],
    t: Rational,
    out_ty: FrameType,
) -> Result<Vec<Arc<Frame>>, ExecError> {
    let mut frames = Vec::with_capacity(cursors.len());
    for (cursor, clip) in cursors {
        let src_t = clip.time.apply(t);
        let idx = cursor
            .stream()
            .index_of(src_t)
            .ok_or_else(|| ExecError::MissingFrame {
                video: clip.video.clone(),
                at: src_t,
            })?;
        let frame = cursor.frame_at(idx as u64)?;
        frames.push(conform_shared(&frame, out_ty));
    }
    Ok(frames)
}

fn collect_cursor_stats(cursors: &[(SourceCursor<'_>, &InputClip)], stats: &mut ExecStats) {
    for (c, _) in cursors {
        stats.frames_decoded += c.frames_decoded;
        stats.bytes_decoded += c.bytes_decoded;
        stats.seeks += c.seeks;
        stats.gop_cache_hits += c.gop_cache_hits;
        stats.gop_cache_misses += c.gop_cache_misses;
    }
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
    collect_cursor_stats(&cursors, &mut stats);
    stats.segments = 1;
    Ok(SegmentOutput {
        stage,
        ..SegmentOutput::new(ctx, packets, stats)
    })
}

/// Maps `f` over `items` on up to `width` threads, in order, and sums
/// the time spent in `f` — busy time, whatever the width. Chunks are
/// `len.div_ceil(width)` items; the first runs on the calling thread,
/// each other on a scoped thread of its own.
fn par_map<T: Sync, R: Send>(
    width: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> (Vec<R>, u64) {
    let run = &|chunk: &[T]| {
        let started = Instant::now();
        let out: Vec<R> = chunk.iter().map(&f).collect();
        (out, elapsed_ns(started))
    };
    let mut chunks = items.chunks(items.len().div_ceil(width.max(1)).max(1));
    let first = chunks.next().unwrap_or_default();
    std::thread::scope(|scope| {
        let rest: Vec<_> = chunks
            .map(|chunk| {
                #[cfg(test)]
                tests::count_spawn();
                scope.spawn(move || run(chunk))
            })
            .collect();
        let (mut out, mut busy_ns) = run(first);
        for handle in rest {
            let (chunk_out, ns) = handle.join().expect("par_map worker panicked");
            out.extend(chunk_out);
            busy_ns += ns;
        }
        (out, busy_ns)
    })
}

/// The pipelined render: a prefetch thread decodes ahead through the
/// cursors into a channel [`PIPELINE_GOPS`] output GOPs deep while this
/// thread composes each batch of that many GOPs in parallel and encodes
/// its output GOPs concurrently. Compose and encode times are summed over
/// [`par_map`]'s threads, so they are busy time at any fan-out.
fn run_render_pipelined(
    ctx: &SegmentCtx<'_>,
    program: &FrameProgram,
    inputs: &[InputClip],
) -> Result<SegmentOutput, ExecError> {
    let (plan, catalog) = (ctx.run.plan, ctx.run.catalog);
    let gop = u64::from(plan.out_params.gop_size.max(1));
    let window = PIPELINE_GOPS * gop;
    let out_ty = plan.out_params.frame_ty;
    let end = ctx.seg.count;
    let (tx, rx) = mpsc::sync_channel::<(u64, Rational, Vec<Arc<Frame>>)>(window as usize);

    std::thread::scope(|scope| {
        #[cfg(test)]
        tests::count_spawn();
        let prefetch = scope.spawn(move || -> Result<(ExecStats, u64), ExecError> {
            let mut cursors = build_cursors(ctx, inputs)?;
            let mut decode_ns = 0u64;
            for j in 0..end {
                let t0 = Instant::now();
                let t = plan.instant_of(ctx.seg.out_start + j);
                let frames = gather_inputs(&mut cursors, t, out_ty)?;
                decode_ns += elapsed_ns(t0);
                if tx.send((j, t, frames)).is_err() {
                    break; // consumer bailed on an error
                }
            }
            let mut stats = ExecStats::default();
            collect_cursor_stats(&cursors, &mut stats);
            Ok((stats, decode_ns))
        });

        // Consume: batches of up to `window` frames, composed in
        // parallel, then encoded one GOP per lane. `Err(None)` marks a
        // starved channel (the prefetcher died; its join has the cause).
        let consumed = (|| -> Result<_, Option<ExecError>> {
            let mut packets = Vec::with_capacity(end as usize);
            let mut stats = ExecStats::default();
            let mut stage = StageTimes::default();
            let mut j = 0;
            while j < end {
                let batch_end = end.min(j + window);
                let mut batch: Vec<(u64, Rational, Vec<Arc<Frame>>)> =
                    Vec::with_capacity((batch_end - j) as usize);
                while j + (batch.len() as u64) < batch_end {
                    let item = rx.recv().map_err(|_| None)?;
                    debug_assert_eq!(item.0, j + batch.len() as u64, "frames arrive in order");
                    batch.push(item);
                }
                let (composed, busy_ns) = par_map(ctx.fanout, &batch, |(_, t, frames)| {
                    apply_program(program, *t, frames, catalog.arrays(), catalog)
                        .map(|f| conform(f, out_ty))
                });
                stage.compose_ns += busy_ns;
                let composed: Result<Vec<Frame>, _> = composed.into_iter().collect();
                let composed = composed.map_err(Some)?;
                // Output GOPs are codec-independent: encode them in
                // parallel with fresh encoders, splice runs in order.
                let windows: Vec<(u64, &[Frame])> = composed
                    .chunks(gop as usize)
                    .enumerate()
                    .map(|(w, frames)| (j + (w as u64) * gop, frames))
                    .collect();
                let (runs, busy_ns) = par_map(ctx.fanout, &windows, |(wj, frames)| {
                    encode_window(ctx, *wj, frames)
                });
                stage.encode_ns += busy_ns;
                for run in runs {
                    let (run, bytes) = run.map_err(Some)?;
                    stats.frames_encoded += run.len() as u64;
                    stats.bytes_encoded += bytes;
                    packets.extend(run);
                }
                j = batch_end;
            }
            Ok((packets, stats, stage))
        })();
        drop(rx); // unblock a prefetcher stuck on a full channel
        let prefetched = prefetch.join().expect("prefetch thread panicked");

        match (consumed, prefetched) {
            (Ok((packets, mut stats, mut stage)), Ok((dec_stats, decode_ns))) => {
                stats = stats.merge(dec_stats);
                stats.segments = 1;
                stage.decode_ns += decode_ns;
                Ok(SegmentOutput {
                    stage,
                    ..SegmentOutput::new(ctx, packets, stats)
                })
            }
            (_, Err(e)) => Err(e),
            (Err(Some(e)), Ok(_)) => Err(e),
            (Err(None), Ok(_)) => unreachable!("prefetch finished but the pipeline starved"),
        }
    })
}

/// Encodes one output GOP with a fresh encoder. `wj` is the window's
/// segment-relative first frame (a GOP multiple, so the fresh encoder's
/// keyframe cadence matches the sequential loop exactly).
fn encode_window(
    ctx: &SegmentCtx<'_>,
    wj: u64,
    frames: &[Frame],
) -> Result<(Vec<Packet>, u64), ExecError> {
    let mut encoder = Encoder::new(ctx.run.plan.out_params);
    let mut packets = Vec::with_capacity(frames.len());
    let mut bytes = 0u64;
    for (k, frame) in frames.iter().enumerate() {
        let pts = ctx.run.plan.frame_dur * Rational::from_int((wj + k as u64) as i64);
        let pkt = encoder.encode(frame, pts)?;
        bytes += pkt.size() as u64;
        packets.push(pkt);
    }
    Ok((packets, bytes))
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
        /// Render-path threads this thread has spawned: the prefetch
        /// thread and every `par_map` chunk past the first.
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
        let spec = SpecBuilder::new(output)
            .video("src", "src.svc")
            .append_filtered("src", r(0, 1), r(secs, 1), |e| blur(e, 1.0))
            .build();
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

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<u64> = (0..1000).collect();
        for width in [1, 2, 3, 7, 1000, 5000] {
            let (out, _) = par_map(width, &items, |x| x * 2);
            assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>(), "{width}");
        }
    }

    #[test]
    fn par_map_runs_one_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        let on_caller = |_: &u8| std::thread::current().id() == caller;
        for (width, items) in [(1, vec![0u8; 5]), (4, vec![0]), (4, vec![])] {
            let ((out, _), spawns) = spawns_during(|| par_map(width, &items, on_caller));
            assert!(out.iter().all(|&here| here), "{width}/{}", items.len());
            assert_eq!(spawns, 0, "{width}/{}", items.len());
        }
        // Wider than the item count: one item per chunk, the first here.
        let ((out, _), spawns) = spawns_during(|| par_map(8, &[0u8; 5], on_caller));
        assert_eq!(out, [true, false, false, false, false]);
        assert_eq!(spawns, 4);
        // Chunks of `len.div_ceil(width)`: 5 items at width 2 are 3 + 2.
        let ((out, _), spawns) = spawns_during(|| par_map(2, &[0u8; 5], on_caller));
        assert_eq!(out, [true, true, true, false, false]);
        assert_eq!(spawns, 1);
    }

    /// A lone two-GOP render at two workers spawns the prefetch thread
    /// plus one compose chunk and one encode chunk; one worker spawns
    /// nothing, and both write the same bytes.
    #[test]
    fn a_lone_two_gop_render_spawns_three_render_threads() {
        let (catalog, plan) = setup(2);
        let serial = ExecOptions {
            num_threads: 1,
            ..Default::default()
        };
        let ((reference, _, _), spawns) =
            spawns_during(|| execute(&plan, &catalog, &serial).unwrap());
        assert_eq!(spawns, 0, "one worker renders on the caller");

        // What `worker_loop` hands the only running segment at 2 workers.
        let opts = ExecOptions {
            num_threads: 2,
            ..Default::default()
        };
        let cache = GopCache::new(opts.gop_cache_frames);
        let reach = read_reach(&plan, &catalog);
        let run = RunCtx {
            plan: &plan,
            catalog: &catalog,
            cache: &cache,
            reach: &reach,
            opts: &opts,
            fault: None,
            seg_cache: None,
            workers: 2,
        };
        let (out, spawns) = spawns_during(|| run_segment(&run.segment(0, 2)).unwrap());
        assert_eq!(spawns, 3, "prefetch + 1 compose chunk + 1 encode chunk");
        assert_eq!(out.packets, reference.packets());
        assert_eq!(out.stats.frames_encoded, 60);
    }
}
