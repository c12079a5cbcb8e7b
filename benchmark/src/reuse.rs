//! `serve-reuse`: an in-process `V2vServer` on a loopback socket with a
//! render cache, driven by closed-loop clients whose requests repeat
//! (whole-result hits), overlap (segment hits, in-flight sharing) and,
//! one time in ten, ask for a window nobody has seen (miss, store,
//! eviction).

use crate::gen::{request_list, Pick, Rng};
use crate::inputs::{self, Part, Source};
use crate::record::{Op, Window};
use crate::trace::Tracer;
use crate::{oracle, sys, wire, RunConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use v2v_data::Database;
use v2v_exec::{Catalog, RenderCache};
use v2v_serve::{ServeConfig, ServerHandle, V2vServer};
use v2v_spec::Spec;
use v2v_time::{r, Rational};

pub const CLASSES: &[&str] = &["copy", "blur", "grid", "join"];
const TEMPLATES: usize = 32;
/// Requests in one client's list; a client that reaches the end starts
/// over, so the references to render after the window stay bounded.
const LIST_LEN: usize = 600;
const FRESH_SHARE: f64 = 0.1;
pub const KABR_SECS: i64 = 10;
pub const TOS_SECS: i64 = 10;
/// Cache bytes the template set takes (results plus the rendered
/// fragments they are spliced from) per byte of template output.
const CACHE_BYTES_PER_OUTPUT_BYTE: f64 = 1.6;

struct Request {
    class: usize,
    spec: Spec,
    /// The spec as the request body.
    body: Vec<u8>,
    /// Fresh windows get their reference after the window, so rendering
    /// it never competes with the daemon.
    reference: Option<(u64, usize)>,
}

pub struct Reuse {
    pub kabr: Source,
    pub tos: Source,
    pub catalog: Catalog,
    pub database: Database,
    /// Stops the daemon and joins its threads when dropped.
    _server: ServerHandle,
    pub addr: SocketAddr,
    _work: sys::WorkDir,
    templates: Vec<Request>,
    fresh: BTreeMap<usize, Request>,
    /// One request list per closed-loop client.
    lists: Vec<Vec<Pick>>,
    pub disk_budget: u64,
    pub mem_budget: u64,
    pub config: ServeConfig,
    /// `GET /status` just before and just after the last window.
    pub status: [serde_json::Value; 2],
}

/// Piece `j` of a chain: template `t` of the chain is pieces `t` and
/// `t + 1`, so neighbouring templates share half their segments. Pieces
/// are short — a third of a second where every frame is rendered — so
/// that rendering the whole template set twice fits in set-up.
fn piece(src: &Source, class: usize, j: i64, shift: i64) -> Part {
    let fps = src.spec.fps;
    let long_gops = src.spec.gop_frames() as i64 > fps;
    let third = r(fps / 3, fps);
    // ToS pieces sit a little later in its one 10 s GOP each time.
    let gop = Rational::ZERO;
    let base = if long_gops {
        gop + r(j + 1, 4) + r(shift, fps)
    } else {
        r(j + shift, 1)
    };
    match (class, long_gops) {
        // ToS clips must start on a keyframe to copy; length tells them apart.
        (0, true) => Part::Clip(gop, r(1, 1) + r(j, 4)),
        // KABR clips start late in a GOP: a short smart-cut head each.
        (0, false) => Part::Clip(base + r(9, 10), r(1, 1)),
        (1, _) => Part::Blur(base + third, third),
        (2, true) => Part::Grid([0, 1, 2, 3].map(|c| base + r(c, 2)), third),
        (2, false) => Part::Grid([0, 1, 2, 3].map(|c| base + r(c, 1)), third),
        // Dense detections render every frame, sparse ones few.
        (_, true) => Part::Boxes(base, r(1, 2)),
        (_, false) => Part::Boxes(base, r(1, 1)),
    }
}

/// Never-seen stretch `m` of a class: off the templates' grid and a
/// frame longer than a template piece, so it equals none of them.
fn fresh_part(src: &Source, class: usize, m: i64) -> Part {
    let fps = src.spec.fps;
    let long_gops = src.spec.gop_frames() as i64 > fps;
    let start = r(3 + 7 * m, fps);
    let short = r(fps / 3 + 1, fps);
    let long = r(if long_gops { fps / 2 } else { fps } + 1, fps);
    match (class, long_gops) {
        (0, true) => Part::Clip(Rational::ZERO, long + r(m, fps)),
        (0, false) => Part::Clip(start, long),
        (1, _) => Part::Blur(start, short),
        (2, _) => Part::Grid([0, 1, 2, 3].map(|c| start + r(c, 1)), short),
        _ => Part::Boxes(start, long),
    }
}

impl Request {
    fn new(class: usize, spec: Spec, reference: Option<(u64, usize)>) -> Request {
        Request {
            class,
            body: spec.to_json().into_bytes(),
            spec,
            reference,
        }
    }
}

impl Reuse {
    pub fn setup(cfg: &RunConfig) -> Reuse {
        let kabr = inputs::kabr(cfg.seed, cfg.scale, KABR_SECS);
        let tos = inputs::tos(cfg.seed, cfg.scale, TOS_SECS);
        let catalog = inputs::catalog(&[&kabr, &tos]);
        let database = inputs::database(&[&kabr, &tos]);
        let mut rng = Rng::fork(cfg.seed, 0x5E7);
        let shifts = [rng.below(3) as i64, rng.below(12) as i64];
        let sims = [&kabr, &tos];

        // Popularity rank → (class, sim, chain position): the four
        // classes and both sims take turns down the ranking, so each
        // class sees the same popularity mass.
        let specs: Vec<Spec> = (0..TEMPLATES)
            .map(|rank| {
                let (class, sim, t) = (rank % 4, (rank / 4) % 2, (rank / 8) as i64);
                let src = sims[sim];
                src.timeline(&[
                    piece(src, class, t, shifts[sim]),
                    piece(src, class, t + 1, shifts[sim]),
                ])
            })
            .collect();
        let references = oracle::references(&catalog, &database, &specs);
        let output_bytes: u64 = references.iter().map(|r| r.bytes).sum();
        let templates: Vec<Request> = specs
            .into_iter()
            .zip(&references)
            .enumerate()
            .map(|(rank, (spec, r))| Request::new(rank % 4, spec, Some((r.digest, r.frames))))
            .collect();

        let clients = sys::nproc().clamp(1, 2);
        let lists: Vec<Vec<Pick>> = (0..clients)
            .map(|c| request_list(cfg.seed, c, clients, LIST_LEN, TEMPLATES, FRESH_SHARE))
            .collect();
        let fresh = lists
            .iter()
            .flatten()
            .filter_map(|p| match p {
                Pick::Fresh(k) => Some(*k),
                Pick::Template(_) => None,
            })
            .map(|k| {
                let (class, sim, m) = (k % 4, (k / 4) % 2, (k / 8) as i64);
                // Half of it is a template piece, so its segments are
                // partly cached; the other half nobody has asked for.
                let spec = sims[sim].timeline(&[
                    piece(
                        sims[sim],
                        class,
                        m % (TEMPLATES as i64 / 8 + 1),
                        shifts[sim],
                    ),
                    fresh_part(sims[sim], class, m),
                ]);
                (k, Request::new(class, spec, None))
            })
            .collect();

        // Disk holds the whole template set, memory about a quarter of it;
        // fresh windows then have to push something out.
        let disk_budget = (output_bytes as f64 * CACHE_BYTES_PER_OUTPUT_BYTE) as u64;
        let mem_budget = disk_budget / 4;
        let work = sys::WorkDir::new("serve-reuse").expect("work dir");
        let cache = RenderCache::open(work.path().join("cache"), disk_budget)
            .expect("cache dir")
            .with_mem_tier(mem_budget);
        let mut config = ServeConfig::default();
        config.engine.render_cache = Some(Arc::new(cache));
        let server = V2vServer::new(catalog.clone())
            .with_database(database.clone())
            .with_config(config.clone())
            .start("127.0.0.1:0")
            .expect("daemon binds a loopback port");
        let addr = server.addr();

        let reuse = Reuse {
            kabr,
            tos,
            catalog,
            database,
            _server: server,
            addr,
            _work: work,
            templates,
            fresh,
            lists,
            disk_budget,
            mem_budget,
            config,
            status: Default::default(),
        };
        // Warm-up: every template once, split across the clients.
        let warm: Vec<Op> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..reuse.clients())
                .map(|c| {
                    let reuse = &reuse;
                    s.spawn(move || {
                        (c..TEMPLATES)
                            .step_by(reuse.clients())
                            .map(|rank| reuse.send(&reuse.templates[rank], None).0)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("warm-up client"))
                .collect()
        });
        assert!(
            warm.iter().all(|o| o.ok),
            "warm-up request failed or mismatched"
        );
        reuse
    }

    pub fn clients(&self) -> usize {
        self.lists.len()
    }

    fn send(&self, req: &Request, tracer: Option<&mut Tracer>) -> (Op, Option<(u64, usize)>) {
        wire::query(
            self.addr,
            (req.class, CLASSES[req.class]),
            &req.body,
            Instant::now(),
            req.reference,
            tracer,
        )
    }

    /// Closed loop: each client sends its next request when the previous
    /// reply has been read and checked.
    pub fn measure(&mut self, cfg: &RunConfig, tracer: Option<&mut Tracer>) -> Window {
        self.status[0] = wire::status(self.addr);
        let epoch = Instant::now();
        let cpu0 = sys::cpu_seconds();
        let tracing = tracer.is_some();
        let this = &*self;
        type ClientOut = (Vec<Op>, Vec<(usize, usize, (u64, usize))>, Tracer);
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = this
                .lists
                .iter()
                .map(|list| {
                    s.spawn(move || {
                        let mut ops = Vec::new();
                        let mut unverified = Vec::new();
                        let mut tracer = Tracer::new(epoch);
                        for (i, pick) in list.iter().cycle().enumerate() {
                            if epoch.elapsed().as_secs_f64() >= cfg.seconds
                                || (cfg.one_cycle && i >= 2 * TEMPLATES)
                            {
                                break;
                            }
                            let traced = (tracing && i % 2 == 0).then_some(&mut tracer);
                            let (req, fresh) = match pick {
                                Pick::Template(rank) => (&this.templates[*rank], None),
                                Pick::Fresh(k) => (&this.fresh[k], Some(*k)),
                            };
                            let (op, got) = this.send(req, traced);
                            if let (Some(k), Some(got)) = (fresh, got) {
                                unverified.push((ops.len(), k, got));
                            }
                            ops.push(op);
                        }
                        (ops, unverified, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = epoch.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_seconds() - cpu0;
        self.status[1] = wire::status(self.addr);

        // Outside the window: render the reference of every fresh window
        // that was served and settle those operations.
        let unsettled: Vec<usize> = outs
            .iter()
            .flat_map(|(_, unverified, _)| unverified.iter().map(|(_, k, _)| *k))
            .filter(|k| self.fresh[k].reference.is_none())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let settled = oracle::spread(&unsettled, |k| {
            let r = oracle::reference(&self.catalog, &self.database, &self.fresh[k].spec);
            (r.digest, r.frames)
        });
        for (k, reference) in unsettled.iter().zip(settled) {
            self.fresh
                .get_mut(k)
                .expect("fresh window is pre-generated")
                .reference = Some(reference);
        }
        let mut ops = Vec::new();
        let mut merged = Tracer::new(epoch);
        for (client_ops, unverified, client_tracer) in outs {
            let base = ops.len();
            ops.extend(client_ops);
            for (i, k, got) in unverified {
                let want = self.fresh[&k].reference.expect("settled above");
                ops[base + i].ok = got == want;
            }
            merged.merge(client_tracer);
        }
        if let Some(t) = tracer {
            t.merge(merged);
        }
        Window {
            classes: CLASSES,
            ops,
            wall_s,
            cpu_s,
            repeats: false,
        }
    }

    /// A blur template on KABR-sim, for the probes.
    pub fn probe_spec(&self) -> Spec {
        self.kabr.timeline(&[piece(&self.kabr, 1, 0, 0)])
    }
}
