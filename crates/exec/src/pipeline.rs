//! The pipelined render of one segment: decode lanes feed a pool of
//! workers that compose each frame as it arrives and encode every output
//! GOP in order with a fresh encoder. The scheduler runs it for a render
//! segment whenever the segment has more than one worker.

use crate::apply::apply_program;
use crate::executor::ExecStats;
use crate::scheduler::{
    collect_cursor_stats, elapsed_ns, open_cursor, read_input, Delivery, SegmentCtx, SegmentOutput,
};
use crate::trace::StageTimes;
use crate::ExecError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use v2v_codec::{Encoder, Packet};
use v2v_frame::ops::{conform, conform_shared};
use v2v_frame::Frame;
use v2v_plan::{FrameProgram, InputClip};
use v2v_time::Rational;

/// Output GOPs the pipelined render keeps in flight: the depth of each
/// decode channel, and the cap on frames taken for compose but not yet
/// encoded.
const PIPELINE_GOPS: u64 = 2;

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
pub(crate) fn run_render_pipelined(
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
        crate::scheduler::tests::count_spawn();
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
                crate::scheduler::tests::count_spawn();
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
                crate::scheduler::tests::count_spawn();
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
