//! Unit-cost probes: each calls one layer directly, on the workload's own
//! data, after the measured window of a traced run. They give the
//! per-layer costs the outside-in spans cannot see.

use crate::inputs::{Part, Source};
use crate::layers::Layers;
use crate::stats::{median, ratio};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use v2v_container::{Fragment, LiveWriter, StreamWriter, VideoStream};
use v2v_core::{EngineConfig, V2vEngine};
use v2v_data::Database;
use v2v_exec::{apply::NoImages, apply_program, Catalog, ExecOptions, RenderCache};
use v2v_frame::Frame;
use v2v_plan::{SegPlan, SourceDigests, VideoDigest};
use v2v_serve::http::client;
use v2v_spec::Spec;
use v2v_time::{r, Rational};

/// Microseconds one call of `f` takes: the median of `reps` calls.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(
        &(0..reps)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<_>>(),
    )
}

pub struct Probe<'a> {
    pub source: &'a Source,
    pub catalog: &'a Catalog,
    pub database: &'a Database,
    /// A render of the workload, for the thread-scaling probe.
    pub spec: &'a Spec,
    pub work: &'a Path,
    /// The workload's daemon, when it has one.
    pub addr: Option<SocketAddr>,
}

impl Probe<'_> {
    pub fn run(&self, out: &mut Layers) {
        self.plan(out);
        self.data(out);
        let gop = self.first_gop();
        let frames = self.codec(&gop, out);
        self.frame(&frames, out);
        self.container(&gop, out);
        self.cache(&gop, out);
        self.serve(out);
        self.thread_scaling(out);
    }

    fn engine(&self, exec: ExecOptions) -> V2vEngine {
        V2vEngine::new(self.catalog.clone())
            .with_database(self.database.clone())
            .with_config(EngineConfig {
                exec,
                ..EngineConfig::default()
            })
    }

    /// The source's first GOP as a stream of its own.
    fn first_gop(&self) -> VideoStream {
        let gop = (self.source.spec.gop_frames() as usize).min(self.source.stream.len());
        self.source.prefix(gop)
    }

    fn plan(&self, out: &mut Layers) {
        let stream = &self.source.stream;
        out.set(
            "plan.video_digest_us",
            time_us(3, || VideoDigest::of(stream)),
        );
        let mut engine = self.engine(ExecOptions::default());
        engine.bind(self.spec).expect("probe spec binds");
        let (specialized, _) = engine.specialize(self.spec);
        let (plan, _) = engine.plan(&specialized).expect("probe spec plans");
        let mut digests = SourceDigests::default();
        digests
            .videos
            .insert(self.source.name.into(), VideoDigest::of(stream));
        out.set(
            "plan.fingerprint_us",
            time_us(9, || {
                (
                    v2v_plan::plan_fingerprint(&plan, &digests),
                    v2v_plan::segment_keys(&plan, &digests),
                )
            }),
        );
    }

    fn data(&self, out: &mut Layers) {
        let sql = format!(
            "SELECT timestamp, frame_objects FROM video_objects \
             WHERE video = '{}' AND model = 'yolov5m'",
            self.source.name
        );
        let hi = r(self.source.spec.duration_s.min(30), 1);
        out.set(
            "data.sql_bind_us",
            time_us(5, || {
                let q = v2v_data::Query::parse(&sql).expect("probe sql parses");
                v2v_data::materialize_bounded(&q, self.database, "timestamp", Rational::ZERO, hi)
                    .expect("probe sql runs")
            }),
        );
    }

    /// Single-thread decode and encode of one source GOP.
    fn codec(&self, gop: &VideoStream, out: &mut Layers) -> Vec<Arc<Frame>> {
        let n = gop.len() as f64;
        out.set(
            "codec.decode_us_per_frame",
            time_us(3, || gop.decode_range(0, gop.len())) / n,
        );
        let (frames, _) = gop.decode_range(0, gop.len()).expect("source GOP decodes");
        out.set(
            "codec.encode_us_per_frame",
            time_us(3, || {
                let mut w = StreamWriter::new(*gop.params(), gop.start(), gop.frame_dur());
                for f in &frames {
                    w.push_frame(f).expect("decoded frames re-encode");
                }
                w.finish()
            }) / n,
        );
        out.set(
            "codec.bytes_per_frame",
            ratio(
                self.source.stream.byte_size() as f64,
                self.source.stream.len() as f64,
            ),
        );
        frames.into_iter().map(Arc::new).collect()
    }

    /// Per-frame cost of each transform, through `apply_program` with the
    /// program the planner builds for that query shape.
    fn frame(&self, frames: &[Arc<Frame>], out: &mut Layers) {
        let src = self.source;
        let n = frames.len().min(src.spec.fps as usize);
        let secs = src.at_frame(n);
        // Detections are looked up by the instant a program is evaluated
        // at; evaluate the overlay where the track first has a box.
        let boxed = src
            .dets
            .iter()
            .find(|(_, v)| v.as_boxes().is_some_and(|b| !b.is_empty()))
            .map_or(Rational::ZERO, |(t, _)| t);
        let shapes = [
            (
                "frame.blur_us_per_frame",
                Part::Blur(Rational::ZERO, secs),
                Rational::ZERO,
            ),
            (
                "frame.grid4_us_per_frame",
                Part::Grid([Rational::ZERO; 4], secs),
                Rational::ZERO,
            ),
            (
                "frame.boxes_us_per_frame",
                Part::Boxes(Rational::ZERO, secs),
                boxed,
            ),
        ];
        let engine = self.engine(ExecOptions::default());
        for (name, part, from) in shapes {
            let spec = src.timeline(&[part]);
            // Planned without the data-dependent rewrite, so the overlay
            // stays one render program over the whole second.
            let (plan, _) = engine.plan(&spec).expect("probe shape plans");
            let Some((program, slots)) = plan.segments.iter().find_map(|s| match &s.plan {
                SegPlan::Render { program, inputs } => Some((program, inputs.len())),
                SegPlan::StreamCopy { .. } => None,
            }) else {
                continue;
            };
            let us = time_us(3, || {
                for (i, f) in frames.iter().take(n).enumerate() {
                    let inputs = vec![f.clone(); slots];
                    let t = from + src.at_frame(i);
                    apply_program(program, t, &inputs, self.catalog.arrays(), &NoImages)
                        .expect("probe program applies");
                }
            });
            out.set(name, us / n as f64);
        }
    }

    fn container(&self, gop: &VideoStream, out: &mut Layers) {
        let stream = &self.source.stream;
        let n = stream.len();
        out.set(
            "container.copy_us_per_packet",
            time_us(5, || stream.copy_packet_range(0, n, stream.start())) / n as f64,
        );
        let mb = stream.byte_size() as f64 / 1e6;
        let path = self.work.join("probe.svc");
        let write_us = time_us(3, || v2v_container::write_svc(stream, &path));
        let read_us = time_us(3, || v2v_container::read_svc(&path));
        out.set("container.write_svc_mb_per_s", ratio(mb * 1e6, write_us));
        out.set("container.read_svc_mb_per_s", ratio(mb * 1e6, read_us));
        let _ = std::fs::remove_file(&path);

        let live = self.work.join("probe-live.svc");
        let mut writer = LiveWriter::create(&live, *gop.params(), gop.start(), gop.frame_dur())
            .expect("live container is creatable");
        out.set(
            "container.live_append_us",
            time_us(5, || writer.append_stream(gop).expect("GOP appends")),
        );
        drop(writer);
        let _ = std::fs::remove_file(&live);

        let frag = Fragment::from_stream(gop);
        let wire_us = time_us(5, || {
            let wire = v2v_container::fragment_to_wire(7, &frag).expect("fragment frames");
            v2v_container::fragment_from_wire(&wire, 7).expect("fragment round-trips")
        });
        out.set(
            "container.wire_roundtrip_us_per_mb",
            ratio(wire_us, frag.byte_size() as f64 / 1e6),
        );
    }

    /// Disk-tier unit costs on a one-GOP fragment (no memory tier, so
    /// every load reads and verifies the file).
    fn cache(&self, gop: &VideoStream, out: &mut Layers) {
        let dir = self.work.join("probe-cache");
        let cache = RenderCache::open(&dir, 1 << 30).expect("probe cache opens");
        let frag = Fragment::from_stream(gop);
        let mut key = 0u64;
        out.set(
            "exec.cache.store_segment_us",
            time_us(5, || {
                key += 1;
                cache.store_segment(key, &frag).expect("segment stores")
            }),
        );
        out.set(
            "exec.cache.load_segment_us",
            time_us(5, || cache.load_segment(1)),
        );
        cache.store_result(1, gop).expect("result stores");
        out.set(
            "exec.cache.load_result_us",
            time_us(5, || cache.load_result(1)),
        );
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn serve(&self, out: &mut Layers) {
        if let Some(addr) = self.addr {
            out.set(
                "serve.roundtrip_floor_us",
                time_us(21, || client::request(addr, "GET", "/status", b"")),
            );
        }
    }

    /// The same render at one worker thread over the default count.
    fn thread_scaling(&self, out: &mut Layers) {
        let timed = |threads: usize| {
            let mut engine = self.engine(ExecOptions {
                num_threads: threads,
                ..ExecOptions::default()
            });
            time_us(3, || {
                engine
                    .run_streaming(self.spec, |_| {})
                    .expect("probe spec runs")
            })
        };
        let one = timed(1);
        let default = timed(0);
        out.set("exec.speedup_vs_1t", ratio(one, default));
    }
}
