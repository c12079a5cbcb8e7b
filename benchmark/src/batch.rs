//! `batch-render` and `batch-copy`: one caller driving an in-process
//! `V2vEngine` with production defaults and no cache. Every cycle runs
//! each class once through `run` (latency) and once through
//! `run_streaming` (time to first packet).

use crate::gen::Rng;
use crate::inputs::{self, Part, Source, DETS_SQL};
use crate::record::{Facts, Op, Window};
use crate::trace::Tracer;
use crate::{digest, oracle, sys, RunConfig};
use std::time::Instant;
use v2v_core::V2vEngine;
use v2v_data::Database;
use v2v_spec::Spec;
use v2v_time::{r, Rational};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// ToS-sim: every class decodes, composes and encodes.
    Render,
    /// KABR-sim: every class is mostly stream copy.
    Copy,
}

const RENDER_CLASSES: &[&str] = &[
    "blur2",
    "grid1",
    "boxes2-dense",
    "midgop-clip2",
    "head-tail",
];
const COPY_CLASSES: &[&str] = &[
    "clip5",
    "clip30",
    "splice4x10",
    "boxes30-sparse",
    "boxes30-sql",
];

/// Seconds of ToS-sim footage: two 10 s GOPs.
pub const TOS_SECS: i64 = 20;
/// Seconds of KABR-sim footage: sixty 1 s GOPs.
pub const KABR_SECS: i64 = 60;

struct Query {
    json: String,
    reference: oracle::Reference,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Arm {
    Run,
    Stream,
}

pub struct Batch {
    kind: Kind,
    pub source: Source,
    pub database: Database,
    engine: V2vEngine,
    queries: Vec<Query>,
    /// The cycle: every `(class, arm)` pair once, in seeded order.
    order: Vec<(usize, Arm)>,
}

/// The render classes on ToS-sim. The seed picks the GOPs (and, in
/// `inputs`, footage and detections); where a clip starts inside its GOP
/// is fixed per class, so the decode roll-in — and with it the work and
/// the moment the first packet can leave — is the same for every seed.
fn render_specs(src: &Source, rng: &mut Rng) -> Vec<Spec> {
    let gops = (src.spec.duration_s / 10) as u64;
    let at = |gop: u64, phase: Rational| r(10 * gop as i64, 1) + phase;
    let at_any = |rng: &mut Rng, phase: Rational| at(rng.below(gops), phase);
    let a = rng.below(gops);
    let b = (a + 1 + rng.below(gops - 1)) % gops;
    let grid = [(a, 1), (a, 4), (b, 1), (b, 4)].map(|(gop, phase)| at(gop, r(phase, 1)));
    let parts = [
        vec![Part::Blur(at_any(rng, r(1, 1)), r(2, 1))],
        vec![Part::Grid(grid, r(1, 1))],
        vec![Part::Boxes(at_any(rng, r(2, 1)), r(2, 1))],
        // Starts and ends inside one 10 s GOP: no keyframe in range, so
        // nothing can be copied (the paper's Q1-on-ToS case).
        vec![Part::Clip(at_any(rng, r(5, 2)), r(2, 1))],
        // A cheap head (a third of a second of plain clip, re-encoded
        // because ToS has no keyframe there), then an expensive tail.
        vec![
            Part::Clip(at_any(rng, r(1, 4)), r(1, 3)),
            Part::Blur(at_any(rng, r(1, 1)), r(2, 1)),
        ],
    ];
    parts.iter().map(|p| src.timeline(p)).collect()
}

/// The copy classes on KABR-sim. Clips start late in a GOP so each
/// takes a smart cut: a short re-encoded head, then copied GOPs.
///
/// The join classes get a detection track laid out here instead of the
/// dataset's random episodes: the output opens on two quiet seconds (so
/// it starts with copied GOPs) and holds two sightings of 45 frames,
/// each inside two GOPs. The seed moves the window, the sightings and
/// the boxes; the shape — which decides both the render
/// work and when the first packet can leave — stays put. A blind draw
/// from a sparse track lands on no episode or on three, and the classes
/// would measure the draw instead of the system.
fn copy_specs(src: &mut Source, rng: &mut Rng) -> Vec<Spec> {
    let secs = src.spec.duration_s as u64;
    let fps = src.spec.fps as usize;
    let mid = |rng: &mut Rng, len: u64| r(5 * rng.below(secs - len) as i64 + 4, 5);
    let clip5 = vec![Part::Clip(mid(rng, 5), r(5, 1))];
    let clip30 = vec![Part::Clip(mid(rng, 30), r(30, 1))];
    let splice: Vec<Part> = (0..4).map(|_| Part::Clip(mid(rng, 10), r(10, 1))).collect();
    // A query looks detections up by output time, so the sightings are
    // placed on the output's clock, not the source window's.
    let first = 2 + rng.below(10) as usize;
    let second = first + 5 + rng.below(10) as usize;
    src.dets = inputs::episodes(&src.spec, &[first * fps + 5, second * fps + 5], 45, rng);
    let window = r(rng.below(secs - 30) as i64, 1);
    let parts = [
        clip5,
        clip30,
        splice,
        vec![Part::Boxes(window, r(30, 1))],
        vec![Part::BoxesSql(window, r(30, 1))],
    ];
    parts.iter().map(|p| src.timeline(p)).collect()
}

impl Batch {
    /// Generates the source, builds the engine, renders the references
    /// and warms every class up once — all of it counted in `setup_s`.
    pub fn setup(kind: Kind, cfg: &RunConfig) -> Batch {
        let mut rng = Rng::fork(cfg.seed, 0xBA7C);
        let (source, specs) = match kind {
            Kind::Render => {
                let s = inputs::tos(cfg.seed, cfg.scale, TOS_SECS);
                let specs = render_specs(&s, &mut rng);
                (s, specs)
            }
            Kind::Copy => {
                let mut s = inputs::kabr(cfg.seed, cfg.scale, KABR_SECS);
                let specs = copy_specs(&mut s, &mut rng);
                (s, specs)
            }
        };
        let catalog = inputs::catalog(&[&source]);
        let database = inputs::database(&[&source]);
        let queries = specs
            .iter()
            .zip(oracle::references(&catalog, &database, &specs))
            .map(|(spec, reference)| Query {
                json: spec.to_json(),
                reference,
            })
            .collect::<Vec<_>>();
        let mut order: Vec<(usize, Arm)> = (0..queries.len())
            .flat_map(|q| [(q, Arm::Run), (q, Arm::Stream)])
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut batch = Batch {
            kind,
            source,
            database: database.clone(),
            engine: V2vEngine::new(catalog).with_database(database),
            queries,
            order,
        };
        for q in 0..batch.queries.len() {
            let warm = batch.exec(q, Arm::Run, None);
            assert!(warm.ok, "warm-up of class {q} failed or mismatched");
        }
        batch
    }

    pub fn classes(&self) -> &'static [&'static str] {
        match self.kind {
            Kind::Render => RENDER_CLASSES,
            Kind::Copy => COPY_CLASSES,
        }
    }

    /// The first class's query: the heaviest render of `batch-render`,
    /// the plainest clip of `batch-copy`. Probes run on it.
    pub fn probe_spec(&self) -> Spec {
        Spec::from_json(&self.queries[0].json).expect("own spec parses")
    }

    /// Cycles the classes for `cfg.seconds`. With a tracer, every other
    /// cycle runs decomposed into spans; the rest run exactly as the
    /// untraced benchmark does, which is what the overhead compares.
    pub fn measure(&mut self, cfg: &RunConfig, mut tracer: Option<&mut Tracer>) -> Window {
        let mut ops = Vec::new();
        let cpu0 = sys::cpu_seconds();
        let started = Instant::now();
        let mut cycle = 0usize;
        'window: loop {
            for (q, arm) in self.order.clone() {
                if started.elapsed().as_secs_f64() >= cfg.seconds {
                    break 'window;
                }
                let traced = if cycle.is_multiple_of(2) {
                    tracer.as_deref_mut()
                } else {
                    None
                };
                ops.push(self.exec(q, arm, traced));
            }
            cycle += 1;
            if cfg.one_cycle {
                break;
            }
        }
        Window {
            classes: self.classes(),
            ops,
            wall_s: started.elapsed().as_secs_f64(),
            cpu_s: sys::cpu_seconds() - cpu0,
            repeats: true,
        }
    }

    fn exec(&mut self, q: usize, arm: Arm, tracer: Option<&mut Tracer>) -> Op {
        // A `sql:` array bound by an earlier run stays in the engine's
        // catalog and would win over the locator; drop it so every
        // operation binds through SQL, as a fresh `v2v run` would.
        self.engine.catalog_mut().arrays_mut().remove(DETS_SQL);
        let mut op = match (arm, tracer) {
            (Arm::Run, None) => self.run_plain(q),
            (Arm::Run, Some(t)) => self.run_traced(q, t),
            (Arm::Stream, t) => self.run_streaming(q, t),
        };
        op.class = q;
        op
    }

    fn run_plain(&mut self, q: usize) -> Op {
        let query = &self.queries[q];
        let started = Instant::now();
        let result = Spec::from_json(&query.json)
            .map_err(|e| e.to_string())
            .and_then(|spec| self.engine.run(&spec).map_err(|e| e.to_string()));
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        let (ok, frames) = match &result {
            Ok(report) => (
                digest::of(&report.output) == query.reference.digest,
                report.output.len() as u64,
            ),
            Err(_) => (false, 0),
        };
        Op {
            latency_ms: Some(latency_ms),
            busy_ms: latency_ms,
            frames,
            ok,
            ..Op::default()
        }
    }

    /// `run`, taken apart at its public seams: parse, `prepare`,
    /// `run_prepared`. Bind / specialize / plan durations and the stage
    /// busy times come from the `RunTrace` the engine already returns.
    fn run_traced(&mut self, q: usize, tracer: &mut Tracer) -> Op {
        let query = &self.queries[q];
        let op_id = tracer.spans.len() as u32;
        let t0 = Instant::now();
        let spec = Spec::from_json(&query.json).expect("own spec parses");
        let t1 = Instant::now();
        let prepared = self.engine.prepare(&spec);
        let t2 = Instant::now();
        let result = prepared.and_then(|p| self.engine.run_prepared(p));
        let t3 = Instant::now();
        let root = tracer.add(op_id, None, self.classes()[q], tracer.us(t0), tracer.us(t3));
        tracer.add(
            op_id,
            Some(root),
            "spec.parse",
            tracer.us(t0),
            tracer.us(t1),
        );
        let prepare = tracer.add(
            op_id,
            Some(root),
            "core.prepare",
            tracer.us(t1),
            tracer.us(t2),
        );
        tracer.add(
            op_id,
            Some(root),
            "core.execute",
            tracer.us(t2),
            tracer.us(t3),
        );
        let mut facts = Facts {
            parse_us: (t1 - t0).as_secs_f64() * 1e6,
            prepare_us: (t2 - t1).as_secs_f64() * 1e6,
            execute_ms: (t3 - t2).as_secs_f64() * 1e3,
            ..Facts::default()
        };
        let (ok, frames) = match &result {
            Ok((report, trace)) => {
                let base = tracer.us(t1);
                for s in &trace.spans {
                    let (start, dur) = (s.start_ns as f64 / 1e3, s.dur_ns as f64 / 1e3);
                    let name = match s.name.as_str() {
                        "bind" => {
                            facts.bind_us = dur;
                            "core.bind"
                        }
                        "specialize" => {
                            facts.dde_us = dur;
                            "core.dde"
                        }
                        "plan" => {
                            facts.optimize_us = dur;
                            "plan.optimize"
                        }
                        "exec.stage.decode" => {
                            facts.stage_ms[0] = dur / 1e3;
                            continue;
                        }
                        "exec.stage.compose" => {
                            facts.stage_ms[1] = dur / 1e3;
                            continue;
                        }
                        "exec.stage.encode" => {
                            facts.stage_ms[2] = dur / 1e3;
                            continue;
                        }
                        _ => continue,
                    };
                    tracer.add(op_id, Some(prepare), name, base + start, base + start + dur);
                }
                // What `prepare` did besides bind, specialize and plan:
                // the plan's cache identity (source digests, fingerprint,
                // segment keys).
                let planned = facts.bind_us + facts.dde_us + facts.optimize_us;
                tracer.add(
                    op_id,
                    Some(prepare),
                    "core.identity",
                    base + planned,
                    tracer.us(t2),
                );
                facts.exec = Some(report.stats);
                facts.plan = Some(report.plan_stats);
                facts.dde_rewrites = report.dde_rewrites as u64;
                (
                    digest::of(&report.output) == query.reference.digest,
                    report.output.len() as u64,
                )
            }
            Err(_) => (false, 0),
        };
        let latency_ms = (t3 - t0).as_secs_f64() * 1e3;
        Op {
            latency_ms: Some(latency_ms),
            busy_ms: latency_ms,
            frames,
            ok,
            facts: Some(Box::new(facts)),
            ..Op::default()
        }
    }

    fn run_streaming(&mut self, q: usize, tracer: Option<&mut Tracer>) -> Op {
        let query = &self.queries[q];
        let t0 = Instant::now();
        let spec = Spec::from_json(&query.json).expect("own spec parses");
        let t1 = Instant::now();
        let mut first: Option<Instant> = None;
        let result = self.engine.run_streaming(&spec, |_| {
            first.get_or_insert_with(Instant::now);
        });
        let t2 = Instant::now();
        let (ok, frames) = match &result {
            Ok((report, _)) => (
                digest::of(&report.output) == query.reference.digest,
                report.output.len() as u64,
            ),
            Err(_) => (false, 0),
        };
        let mut op = Op {
            ttfp_ms: first.map(|f| (f - t0).as_secs_f64() * 1e3),
            busy_ms: (t2 - t0).as_secs_f64() * 1e3,
            frames,
            ok: ok && first.is_some(),
            ..Op::default()
        };
        if let (Some(tracer), Ok((report, streaming))) = (tracer, &result) {
            let op_id = tracer.spans.len() as u32;
            let root = tracer.add(op_id, None, self.classes()[q], tracer.us(t0), tracer.us(t2));
            tracer.add(
                op_id,
                Some(root),
                "spec.parse",
                tracer.us(t0),
                tracer.us(t1),
            );
            let run = tracer.add(
                op_id,
                Some(root),
                "core.run_streaming",
                tracer.us(t1),
                tracer.us(t2),
            );
            if let Some(f) = first {
                tracer.add(
                    op_id,
                    Some(run),
                    "exec.first_packet",
                    tracer.us(t1),
                    tracer.us(f),
                );
            }
            op.facts = Some(Box::new(Facts {
                parse_us: (t1 - t0).as_secs_f64() * 1e6,
                streaming_total_ms: streaming.total.as_secs_f64() * 1e3,
                exec: Some(report.stats),
                plan: Some(report.plan_stats),
                dde_rewrites: report.dde_rewrites as u64,
                ..Facts::default()
            }));
        }
        op
    }
}
