//! `live-append`: writes beside reads. An open-loop appender grows a live
//! KABR-sim source over HTTP while one `/subscribe` connection holds a
//! bounding-box overlay of the whole source and a tail query reads the
//! newest seconds back.

use crate::inputs::{self, Part, Source};
use crate::openloop::{lateness_ms, Schedule};
use crate::record::{Facts, Op, Window};
use crate::trace::Tracer;
use crate::{digest, oracle, sys, wire, RunConfig};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use v2v_data::Database;
use v2v_exec::{Catalog, RenderCache};
use v2v_serve::http::client::{self, StreamingResponse};
use v2v_serve::sub::{read_delta, DeltaApplier};
use v2v_serve::{ServeConfig, ServerHandle, V2vServer};
use v2v_spec::Spec;
use v2v_time::{r, Rational};

pub const CLASSES: &[&str] = &["delta", "tail-query"];
/// Seconds of source committed before the first append.
pub const COMMITTED_SECS: i64 = 10;
/// Installments (1 s of video plus its detection rows) sent per second:
/// the source grows in real time. Every refresh and every query digests
/// the whole source, so a faster feed would outgrow what two cores can
/// digest inside one period, and the open loop would never drain.
pub const APPENDS_PER_SEC: f64 = 1.0;
/// Seconds the tail query blurs, counted back from the newest frame. One
/// follows every append, half a period after the append was due: by then
/// that append's refresh is over, and the query is over before the next
/// append, so the two classes are not timed on top of each other.
const TAIL_SECS: i64 = 3;
/// Installments appended one at a time during warm-up.
const WARM_APPENDS: usize = 2;

struct Installment {
    /// `POST /append-data/<name>` body: this second's detection rows.
    rows: Vec<u8>,
    /// `POST /append/<name>` body: this second's GOP as sealed `.svc`.
    video: Vec<u8>,
    /// `POST /query` body: blur over the last `TAIL_SECS` once applied.
    tail: Vec<u8>,
    /// Source frames once this installment is in.
    frames_after: usize,
}

/// One delta record as the subscriber saw it.
struct Delta {
    first_byte: Instant,
    applied: Instant,
    /// Frames of the cumulative output after applying it.
    frames: usize,
    delta_frames: u64,
    delta_bytes: u64,
    /// Digest of the cumulative output.
    digest: u64,
}

struct Subscription {
    response: StreamingResponse,
    applier: DeltaApplier,
    running: digest::Running,
}

impl Subscription {
    /// Waits up to `patience` for the next record's first byte, then
    /// reads and applies the record. `None` on timeout or a closed or
    /// malformed stream.
    fn next(&mut self, patience: Duration) -> Option<Delta> {
        let socket = self.response.reader.get_ref();
        socket.set_read_timeout(Some(patience)).ok()?;
        if self.response.reader.fill_buf().ok()?.is_empty() {
            return None;
        }
        let first_byte = Instant::now();
        // The record has begun; a stall inside it is a failure, not idleness.
        self.response
            .reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(30)))
            .ok()?;
        let (header, svc) = read_delta(&mut self.response.reader).ok()??;
        let cumulative = self.applier.apply(&header, &svc).ok()?;
        let digest = self.running.splice(header.from_frame as usize, cumulative);
        Some(Delta {
            first_byte,
            applied: Instant::now(),
            frames: cumulative.len(),
            delta_frames: header.frames,
            delta_bytes: svc.len() as u64,
            digest,
        })
    }
}

pub struct Live {
    pub source: Source,
    /// The whole eventual source, for the probes.
    pub catalog: Catalog,
    pub database: Database,
    /// Stops the daemon and joins its threads when dropped.
    _server: ServerHandle,
    pub addr: SocketAddr,
    _work: sys::WorkDir,
    installments: Vec<Installment>,
    /// Next installment to append (warm-up takes the first few).
    next: usize,
    subscription: Subscription,
    spec: Spec,
    /// Reference `(digest, output bytes)` of the subscription per source
    /// length, rendered outside the window.
    references: BTreeMap<usize, (u64, u64)>,
    pub config: ServeConfig,
    pub disk_budget: u64,
    pub mem_budget: u64,
    /// How late each installment of the last window was sent.
    pub lateness_ms: Vec<f64>,
    /// `GET /status` just before and just after the last window.
    pub status: [serde_json::Value; 2],
}

impl Live {
    pub fn setup(cfg: &RunConfig) -> Live {
        let planned = (cfg.seconds * APPENDS_PER_SEC).ceil() as usize + WARM_APPENDS + 2;
        let source = inputs::kabr(cfg.seed, cfg.scale, COMMITTED_SECS + planned as i64);
        let fps = source.spec.fps as usize;
        let committed = COMMITTED_SECS as usize * fps;
        let name = source.name;

        let installments: Vec<Installment> = (0..planned)
            .map(|i| {
                let (a, b) = (committed + i * fps, committed + (i + 1) * fps);
                let packets = source
                    .stream
                    .copy_packet_range(a, b, source.at_frame(a))
                    .expect("installments start on a keyframe");
                let gop = v2v_container::VideoStream::new(
                    *source.stream.params(),
                    source.at_frame(a),
                    source.stream.frame_dur(),
                    packets,
                )
                .expect("one GOP is a valid stream");
                // The tagged `Value` encoding round-trips exactly, so the
                // daemon's array equals the reference's entry for entry.
                let rows: Vec<serde_json::Value> = source
                    .dets
                    .slice(source.at_frame(a), source.at_frame(b))
                    .iter()
                    .map(|(t, v)| serde_json::json!({"t": t, "value": v}))
                    .collect();
                Installment {
                    rows: serde_json::to_vec(&rows).expect("rows serialize"),
                    video: v2v_container::svc_to_bytes(&gop).expect("GOP seals"),
                    tail: tail_spec(&source, b).to_json().into_bytes(),
                    frames_after: b,
                }
            })
            .collect();

        // The subscribed query asks for the whole eventual source; the
        // daemon clamps each refresh to what the source can serve yet.
        let spec = source.timeline(&[Part::Boxes(Rational::ZERO, r(source.spec.duration_s, 1))]);

        let mut live_catalog = Catalog::new();
        live_catalog.add_video(name, source.prefix(committed));
        live_catalog.add_array(source.dets_name, source.dets_prefix(committed));

        // Same daemon as `serve-reuse`. Every refresh stores a whole result
        // the size of the source so far; the disk budget holds about four
        // of the largest, so older lengths are evicted as the source grows.
        let disk_budget = 4 * source.stream.byte_size();
        let mem_budget = disk_budget / 4;
        let work = sys::WorkDir::new("live-append").expect("work dir");
        let cache = RenderCache::open(work.path().join("cache"), disk_budget)
            .expect("cache dir")
            .with_mem_tier(mem_budget);
        let mut config = ServeConfig::default();
        config.engine.render_cache = Some(Arc::new(cache));
        let database = inputs::database(&[&source]);
        let server = V2vServer::new(live_catalog)
            .with_database(database.clone())
            .with_config(config.clone())
            .start("127.0.0.1:0")
            .expect("daemon binds a loopback port");
        let addr = server.addr();

        let response = client::open_stream(addr, "POST", "/subscribe", spec.to_json().as_bytes())
            .expect("subscribe connects");
        assert_eq!(response.status, 200, "subscribe must be accepted");
        let mut live = Live {
            catalog: inputs::catalog(&[&source]),
            source,
            database,
            _server: server,
            addr,
            _work: work,
            installments,
            next: 0,
            subscription: Subscription {
                response,
                applier: DeltaApplier::new(),
                running: digest::Running::new(),
            },
            spec,
            references: BTreeMap::new(),
            config,
            disk_budget,
            mem_budget,
            lateness_ms: Vec::new(),
            status: Default::default(),
        };

        // Warm-up: the first full render, then a few appends one by one,
        // each checked before the next.
        let first = live.subscription.next(Duration::from_secs(60));
        assert!(
            first.is_some_and(|d| live.matches_reference(&d)),
            "initial delta missing or mismatched"
        );
        for _ in 0..WARM_APPENDS {
            let inst = &live.installments[live.next];
            assert!(
                append(addr, name, live.source.dets_name, inst).is_some(),
                "warm-up append refused"
            );
            let delta = live.subscription.next(Duration::from_secs(60));
            assert!(
                delta.is_some_and(|d| d.frames == live.installments[live.next].frames_after
                    && live.matches_reference(&d)),
                "warm-up delta missing or mismatched"
            );
            live.next += 1;
        }
        live
    }

    /// Renders the subscription's reference at each of `lengths` (source
    /// frames) not rendered yet: a cold serial render over that prefix.
    fn render_references(&mut self, lengths: &[usize]) {
        let missing: Vec<usize> = lengths
            .iter()
            .copied()
            .filter(|l| !self.references.contains_key(l))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let rendered = oracle::spread(&missing, |&frames| {
            let mut catalog = Catalog::new();
            catalog.add_video(self.source.name, self.source.prefix(frames));
            catalog.add_array(self.source.dets_name, self.source.dets_prefix(frames));
            let mut clamped = self.spec.clone();
            clamped.time_domain = v2v_spec::servable_domain(&self.spec, &catalog.source_infos());
            let r = oracle::reference(&catalog, &self.database, &clamped);
            (r.digest, r.bytes)
        });
        self.references.extend(missing.into_iter().zip(rendered));
    }

    fn matches_reference(&mut self, delta: &Delta) -> bool {
        self.render_references(&[delta.frames]);
        self.references[&delta.frames].0 == delta.digest
    }

    /// Open loop: installment `i` is due at `i / APPENDS_PER_SEC` whatever
    /// happened to the ones before it. Three connections' worth of
    /// threads: the appender (which must never wait on a render), the
    /// tail querier it hands each due time to, and the
    /// subscriber reading deltas.
    pub fn measure(&mut self, cfg: &RunConfig, tracer: Option<&mut Tracer>) -> Window {
        self.status[0] = wire::status(self.addr);
        let epoch = Instant::now();
        let cpu0 = sys::cpu_seconds();
        let tracing = tracer.is_some();
        let schedule = Schedule::new(epoch, APPENDS_PER_SEC);
        let count = if cfg.one_cycle {
            2
        } else {
            ((cfg.seconds * APPENDS_PER_SEC).ceil() as usize)
                .min(self.installments.len() - self.next)
        };
        let batch = &self.installments[self.next..self.next + count];
        let (addr, name, dets) = (self.addr, self.source.name, self.source.dets_name);
        let target = AtomicUsize::new(0);
        let subscription = &mut self.subscription;
        let (tail_tx, tail_rx) = mpsc::channel::<(usize, Instant)>();

        struct Sent {
            due: Instant,
            started: Instant,
            acked: Option<(Instant, Instant)>,
        }
        let (sent, tails, deltas) = std::thread::scope(|s| {
            let appender = s.spawn(|| {
                let tail_tx = tail_tx;
                let mut sent = Vec::with_capacity(batch.len());
                for (i, inst) in batch.iter().enumerate() {
                    let (due, started) = schedule.wait(i);
                    let acked = append(addr, name, dets, inst);
                    sent.push(Sent {
                        due,
                        started,
                        acked,
                    });
                    let _ = tail_tx.send((i, due + schedule.period() / 2));
                }
                if let Some(last) = batch.last() {
                    target.store(last.frames_after, Ordering::SeqCst);
                }
                sent
            });
            let querier = s.spawn(|| {
                let mut tracer = Tracer::new(epoch);
                let mut tails = Vec::new();
                for (i, due) in tail_rx {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    let traced = (tracing && i.is_multiple_of(2)).then_some(&mut tracer);
                    let (op, got) =
                        wire::query(addr, (1, CLASSES[1]), &batch[i].tail, due, None, traced);
                    tails.push((i, op, got));
                }
                (tails, tracer)
            });
            let reader = s.spawn(|| {
                let mut deltas: Vec<Delta> = Vec::new();
                // Keep reading until the last installment is in the output,
                // giving up when nothing arrives for a long while.
                let mut idle = Duration::ZERO;
                loop {
                    let goal = target.load(Ordering::SeqCst);
                    if goal != 0 && deltas.last().is_some_and(|d| d.frames >= goal) {
                        break;
                    }
                    match subscription.next(Duration::from_millis(100)) {
                        Some(delta) => {
                            idle = Duration::ZERO;
                            deltas.push(delta);
                        }
                        None => {
                            idle += Duration::from_millis(100);
                            if idle > Duration::from_secs(20) {
                                break;
                            }
                        }
                    }
                }
                deltas
            });
            (
                appender.join().expect("appender thread"),
                querier.join().expect("tail-query thread"),
                reader.join().expect("subscriber thread"),
            )
        });
        let wall_s = epoch.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_seconds() - cpu0;
        self.status[1] = wire::status(self.addr);
        self.next += count;

        // Outside the window: settle every operation against references.
        let (tails, tail_tracer) = tails;
        self.render_references(&deltas.iter().map(|d| d.frames).collect::<Vec<_>>());
        let mut spans = Tracer::new(epoch);
        let mut ops = Vec::new();
        let mut claimed = vec![false; deltas.len()];
        for (i, s) in sent.iter().enumerate() {
            let frames_after = self.installments[self.next - count + i].frames_after;
            // The delta that brought this installment into the output; a
            // busy daemon may fold several appends into one refresh.
            let hit = deltas.iter().position(|d| d.frames >= frames_after);
            let traced = tracing && i.is_multiple_of(2);
            let mut op = Op::default();
            if let Some(d) = hit {
                let delta = &deltas[d];
                let (want, full_bytes) = self.references[&delta.frames];
                op.latency_ms = Some((delta.applied - s.due).as_secs_f64() * 1e3);
                op.ttfp_ms = Some((delta.first_byte - s.due).as_secs_f64() * 1e3);
                op.ok = s.acked.is_some() && want == delta.digest;
                // Frames and bytes count once, for the first installment
                // the delta carried.
                let first_claim = !std::mem::replace(&mut claimed[d], true);
                op.frames = if first_claim { delta.delta_frames } else { 0 };
                if traced {
                    let id = spans.spans.len() as u32;
                    let root = spans.add(
                        id,
                        None,
                        CLASSES[0],
                        spans.us(s.due),
                        spans.us(delta.applied),
                    );
                    if let Some((rows_acked, video_acked)) = s.acked {
                        spans.add(
                            id,
                            Some(root),
                            "harness.late",
                            spans.us(s.due),
                            spans.us(s.started),
                        );
                        spans.add(
                            id,
                            Some(root),
                            "serve.append_data",
                            spans.us(s.started),
                            spans.us(rows_acked),
                        );
                        spans.add(
                            id,
                            Some(root),
                            "serve.append",
                            spans.us(rows_acked),
                            spans.us(video_acked),
                        );
                        spans.add(
                            id,
                            Some(root),
                            "serve.refresh",
                            spans.us(video_acked),
                            spans.us(delta.first_byte),
                        );
                    }
                    spans.add(
                        id,
                        Some(root),
                        "serve.delta_body",
                        spans.us(delta.first_byte),
                        spans.us(delta.applied),
                    );
                    op.facts = Some(Box::new(Facts {
                        append_ack_ms: s
                            .acked
                            .map_or(0.0, |(_, done)| (done - s.started).as_secs_f64() * 1e3),
                        body_bytes: if first_claim { delta.delta_bytes } else { 0 },
                        full_bytes: if first_claim { full_bytes } else { 0 },
                        ..Facts::default()
                    }));
                }
            }
            ops.push(op);
        }
        let tail_refs = oracle::spread(&tails, |(i, _, _)| {
            let frames = self.installments[self.next - count + i].frames_after;
            let mut catalog = Catalog::new();
            catalog.add_video(name, self.source.prefix(frames));
            let want =
                oracle::reference(&catalog, &self.database, &tail_spec(&self.source, frames));
            (want.digest, want.frames)
        });
        for ((_, mut op, got), want) in tails.into_iter().zip(tail_refs) {
            op.ok = got == Some(want);
            ops.push(op);
        }
        spans.merge(tail_tracer);
        if let Some(t) = tracer {
            t.merge(spans);
        }
        self.lateness_ms = sent.iter().map(|s| lateness_ms(s.due, s.started)).collect();
        Window {
            classes: CLASSES,
            ops,
            wall_s,
            cpu_s,
            repeats: false,
        }
    }

    /// The tail query at the committed length, for the probes.
    pub fn probe_spec(&self) -> Spec {
        tail_spec(
            &self.source,
            COMMITTED_SECS as usize * self.source.spec.fps as usize,
        )
    }
}

/// Blur over the last `TAIL_SECS` of a source that is `frames` long.
fn tail_spec(source: &Source, frames: usize) -> Spec {
    let from = source.at_frame(frames) - r(TAIL_SECS, 1);
    source.timeline(&[Part::Blur(from, r(TAIL_SECS, 1))])
}

/// Posts one installment, detection rows first: a refresh is triggered
/// by the video growing, and it must find that second's rows in place.
/// Returns when each of the two posts was acknowledged.
fn append(
    addr: SocketAddr,
    video: &str,
    array: &str,
    inst: &Installment,
) -> Option<(Instant, Instant)> {
    let rows = wire::request(addr, "POST", &format!("/append-data/{array}"), &inst.rows).ok()?;
    let grown = wire::request(addr, "POST", &format!("/append/{video}"), &inst.video).ok()?;
    (rows.status == 200 && grown.status == 200).then_some((rows.done, grown.done))
}
