//! Inputs made from the seed: the two simulated sources and the query
//! shapes the workloads are built from.

use crate::gen::Rng;
use std::sync::Arc;
use v2v_container::VideoStream;
use v2v_data::{DataArray, Database, Value};
use v2v_datasets::{
    detections, detections_table, generate, kabr_sim, tos_sim, DatasetSpec, DetectionProfile, Scale,
};
use v2v_exec::Catalog;
use v2v_frame::{BoxCoord, FrameType};
use v2v_spec::builder::{blur, bounding_box, grid4};
use v2v_spec::{OutputSettings, RenderExpr, Spec, SpecBuilder};
use v2v_time::{AffineTimeMap, Rational};

/// Array name the `sql:` shapes bind under. It must not be in the
/// catalog beforehand: names already bound win over locators.
pub const DETS_SQL: &str = "dets_sql";

/// One stretch of a query's output, as `(source start, seconds)`.
#[derive(Clone, Copy, Debug)]
pub enum Part {
    /// The source untouched: stream copy wherever keyframes allow.
    Clip(Rational, Rational),
    /// Gaussian blur.
    Blur(Rational, Rational),
    /// 2×2 grid of four clips.
    Grid([Rational; 4], Rational),
    /// Bounding boxes from the catalog's detection array.
    Boxes(Rational, Rational),
    /// The same join with the detections bound through a `sql:` locator.
    BoxesSql(Rational, Rational),
}

/// One generated source: encoded stream plus its detection track.
pub struct Source {
    /// Catalog name (`tos` / `kabr`).
    pub name: &'static str,
    /// Catalog name of the detection array bound beside it.
    pub dets_name: &'static str,
    pub spec: DatasetSpec,
    pub stream: Arc<VideoStream>,
    pub dets: DataArray,
}

/// The footage of both sources is the dataset's own for every seed; the
/// seed picks the detection tracks here and, in the workloads, where the
/// queries land and in what order. Footage drawn from the seed moves the
/// encoded size (ToS-sim 23–27 MB per 20 s; KABR-sim, one texture drawn
/// from the content seed, 32–46 KB a frame), and every `run` digests the
/// whole source: a tenth to a third more time in every operation, which
/// a seed must not decide.
fn seeded(footage: &DatasetSpec, seed: u64) -> DatasetSpec {
    let mut spec = footage.clone();
    spec.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    spec
}

/// ToS-like: 24 fps, 10 s GOPs, scene cuts, detections on nearly every
/// frame.
pub fn tos(seed: u64, scale: Scale, secs: i64) -> Source {
    let footage = tos_sim(scale, secs);
    let stream = Arc::new(generate(&footage));
    source(
        "tos",
        "tos_dets",
        seeded(&footage, seed),
        stream,
        DetectionProfile::tos(),
        "actor",
    )
}

/// KABR-like: 30 fps, 1 s GOPs, slow pan, occasional detections.
pub fn kabr(seed: u64, scale: Scale, secs: i64) -> Source {
    let footage = kabr_sim(scale, secs);
    let stream = Arc::new(generate(&footage));
    source(
        "kabr",
        "kabr_dets",
        seeded(&footage, seed),
        stream,
        DetectionProfile::kabr(),
        "zebra",
    )
}

fn source(
    name: &'static str,
    dets_name: &'static str,
    spec: DatasetSpec,
    stream: Arc<VideoStream>,
    profile: DetectionProfile,
    label: &str,
) -> Source {
    let dets = detections(&spec, profile, label);
    Source {
        name,
        dets_name,
        spec,
        stream,
        dets,
    }
}

impl Source {
    /// Output on the source's own grid, so plain clips can stream-copy.
    pub fn output(&self) -> OutputSettings {
        OutputSettings {
            frame_ty: FrameType::yuv420p(self.spec.width, self.spec.height),
            frame_dur: self.spec.frame_dur(),
            gop_size: self.spec.fps as u32,
            quantizer: self.spec.quantizer,
        }
    }

    /// A query whose output is `parts` laid end to end, each part one or
    /// more plan segments of its own. Queries that share a part share
    /// that part's cached fragments.
    pub fn timeline(&self, parts: &[Part]) -> Spec {
        let name = self.name;
        let frame =
            |b: SpecBuilder, start: Rational, secs: Rational, f: fn(RenderExpr) -> RenderExpr| {
                b.append_filtered(name, start, secs, f)
            };
        let mut b = SpecBuilder::new(self.output()).video(name, format!("{name}.svc"));
        for part in parts {
            b = match *part {
                Part::Clip(start, secs) => b.append_clip(name, start, secs),
                Part::Blur(start, secs) => frame(b, start, secs, |e| blur(e, 1.2)),
                Part::Grid(starts, secs) => b.append_with(secs, move |out_start| {
                    let cell = |s: Rational| RenderExpr::FrameRef {
                        video: name.into(),
                        time: AffineTimeMap::shift(s - out_start),
                    };
                    grid4(
                        cell(starts[0]),
                        cell(starts[1]),
                        cell(starts[2]),
                        cell(starts[3]),
                    )
                }),
                Part::Boxes(start, secs) => {
                    let dets = self.dets_name;
                    b.data_array(dets, "catalog")
                        .append_filtered(name, start, secs, move |e| bounding_box(e, dets))
                }
                Part::BoxesSql(start, secs) => b
                    .data_array(
                        DETS_SQL,
                        format!(
                            "sql:SELECT timestamp, frame_objects FROM video_objects \
                             WHERE video = '{name}' AND model = 'yolov5m'"
                        ),
                    )
                    .append_filtered(name, start, secs, |e| bounding_box(e, DETS_SQL)),
            };
        }
        b.build()
    }

    /// The first `frames` frames as a stream of their own.
    pub fn prefix(&self, frames: usize) -> VideoStream {
        let s = &self.stream;
        let packets = s
            .copy_packet_range(0, frames, s.start())
            .expect("prefix ends on a GOP boundary");
        VideoStream::new(*s.params(), s.start(), s.frame_dur(), packets)
            .expect("a prefix of a valid stream is valid")
    }

    /// Detections at instants before frame `frames`.
    pub fn dets_prefix(&self, frames: usize) -> DataArray {
        self.dets.slice(Rational::ZERO, self.at_frame(frames))
    }

    /// Instant of frame `k`.
    pub fn at_frame(&self, k: usize) -> Rational {
        self.spec.frame_dur() * Rational::from_int(k as i64)
    }
}

/// A detector's output with sightings exactly where the caller puts
/// them: an entry for every frame of `spec`, holding one seeded box on
/// the `len` frames from each of `starts` and no box anywhere else.
pub fn episodes(spec: &DatasetSpec, starts: &[usize], len: usize, rng: &mut Rng) -> DataArray {
    let mut track = DataArray::new();
    for frame in 0..spec.n_frames() as usize {
        let sighted = starts.iter().any(|s| (*s..*s + len).contains(&frame));
        let boxes = if sighted {
            let mut at = |lo: f64| (lo + 0.5 * rng.unit()) as f32;
            vec![BoxCoord::new(at(0.1), at(0.1), at(0.08), at(0.08), "zebra")]
        } else {
            Vec::new()
        };
        track.insert(
            spec.frame_dur() * Rational::from_int(frame as i64),
            Value::Boxes(boxes),
        );
    }
    track
}

/// A catalog holding each source beside its detections.
pub fn catalog(sources: &[&Source]) -> Catalog {
    let mut c = Catalog::new();
    for s in sources {
        c.add_video_arc(s.name, s.stream.clone());
        c.add_array(s.dets_name, s.dets.clone());
    }
    c
}

/// The paper's `video_objects` table holding every source's track.
pub fn database(sources: &[&Source]) -> Database {
    let entries: Vec<(&str, &DataArray)> = sources.iter().map(|s| (s.name, &s.dets)).collect();
    let mut db = Database::new();
    db.add_table(detections_table(&entries));
    db
}
