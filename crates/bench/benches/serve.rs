//! Serving bench: closed-loop latency and throughput of the `v2v-serve`
//! daemon at 1 / 4 / 8 concurrent clients, cold cache vs warm cache,
//! plus the scale-out, subscribe and variant-store arms.
//!
//! The in-process server (real sockets, real HTTP, real admission
//! control — only the process boundary is elided) is driven by
//! closed-loop clients: each issues its next request the moment the
//! previous response lands, so measured latency includes queueing
//! behind `max_concurrent` admission.
//!
//! * **cold** — every request is a distinct query (unique source range)
//!   against an initially empty render cache: each one pays the full
//!   render. The per-client latency growth from 1 → 8 clients is the
//!   admission-control queueing the paper's serving section predicts.
//! * **warm** — every request repeats one pre-rendered query: each is
//!   an all-segment cache hit (zero decode, zero encode), so the ratio
//!   cold/warm mean latency is the cache's synthesis-skipping payoff.
//!
//! Every warm response is asserted byte-identical to the warm-up
//! render.
//! `--quick` (CI smoke) shrinks the workload.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use v2v_bench::{print_header, secs};
use v2v_exec::{Catalog, RenderCache};
use v2v_serve::http::client;
use v2v_serve::{ServeConfig, ServeRole, StoreServeConfig, V2vServer};
use v2v_spec::builder::blur;
use v2v_spec::{OutputSettings, Spec, SpecBuilder};
use v2v_time::{r, Rational};

const CLIENT_COUNTS: [usize; 3] = [1, 4, 8];

fn marked_output() -> OutputSettings {
    OutputSettings {
        frame_ty: v2v_frame::FrameType::gray8(64, 32),
        frame_dur: r(1, 30),
        gop_size: 30,
        quantizer: 0,
    }
}

fn source_stream(frames: usize) -> v2v_container::VideoStream {
    let ty = v2v_frame::FrameType::gray8(64, 32);
    let params = v2v_codec::CodecParams::new(ty, 30, 0);
    let mut w = v2v_container::StreamWriter::new(params, v2v_time::Rational::ZERO, r(1, 30));
    for i in 0..frames {
        let mut f = v2v_frame::Frame::black(ty);
        v2v_frame::marker::embed(&mut f, i as u32);
        w.push_frame(&f).expect("push frame");
    }
    w.finish().expect("finish stream")
}

/// A distinct render-heavy query per `seq`: a blur over a unique
/// source window, so no two cold requests share a cache entry.
fn distinct_spec(seq: usize, dur_frames: i64) -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered(
            "src",
            r(seq as i64, 30),
            Rational::new(dur_frames, 30),
            |e| blur(e, 1.0),
        )
        .build()
}

/// How many one-second clips each scale-out query concatenates.
const CLUSTER_CLIPS: i64 = 2;

/// The scale-out arms render a larger frame (16× the pixels of the
/// cold/warm source), so per-request planning and HTTP overhead —
/// which dispatch cannot spread — stays small next to the render work
/// it does spread.
fn big_output() -> OutputSettings {
    OutputSettings {
        frame_ty: v2v_frame::FrameType::gray8(128, 128),
        frame_dur: r(1, 30),
        gop_size: 30,
        quantizer: 0,
    }
}

fn big_source_stream(frames: usize) -> v2v_container::VideoStream {
    let ty = v2v_frame::FrameType::gray8(128, 128);
    let params = v2v_codec::CodecParams::new(ty, 30, 0);
    let mut w = v2v_container::StreamWriter::new(params, v2v_time::Rational::ZERO, r(1, 30));
    for i in 0..frames {
        let mut f = v2v_frame::Frame::black(ty);
        v2v_frame::marker::embed(&mut f, i as u32);
        w.push_frame(&f).expect("push frame");
    }
    w.finish().expect("finish stream")
}

/// A query on a global one-second clip grid over the big source:
/// `CLUSTER_CLIPS` consecutive clips starting at `first_clip`, each
/// blurred.
fn clip_spec(first_clip: i64) -> Spec {
    let mut b = SpecBuilder::new(big_output()).video("big", "big.svc");
    for clip in first_clip..first_clip + CLUSTER_CLIPS {
        b = b.append_filtered("big", r(clip, 1), r(1, 1), |e| blur(e, 1.0));
    }
    b.build()
}

struct PhaseResult {
    wall: Duration,
    latencies: Vec<Duration>,
}

/// Closed loop: `clients` threads, `per_client` requests each, next
/// request issued as soon as the previous response arrives.
fn drive(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    spec_for: impl Fn(usize, usize) -> Arc<Vec<u8>> + Send + Sync + Clone + 'static,
    expect_body: Option<&Arc<Vec<u8>>>,
) -> PhaseResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let expect = expect_body.map(Arc::clone);
            let spec_for = spec_for.clone();
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let body = spec_for(c, i);
                    let t = Instant::now();
                    let resp = client::post_query(addr, &body).expect("request");
                    lat.push(t.elapsed());
                    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                    if let Some(expect) = &expect {
                        assert_eq!(&resp.body, expect.as_ref(), "warm bytes diverged");
                    }
                }
                lat
            })
        })
        .collect();
    let mut latencies = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    PhaseResult {
        wall: started.elapsed(),
        latencies,
    }
}

/// Barrier-released closed loop: every round, all `clients` threads
/// post simultaneously so a fresh (uncached) query actually arrives as
/// a concurrent burst. Returns the latencies plus every response body
/// as `[client][round]` for cross-arm byte-identity checks.
fn drive_rounds(
    addr: std::net::SocketAddr,
    clients: usize,
    rounds: usize,
    spec_for: impl Fn(usize, usize) -> Arc<Vec<u8>> + Send + Sync + Clone + 'static,
) -> (PhaseResult, Vec<Vec<Vec<u8>>>) {
    let barrier = Arc::new(Barrier::new(clients));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let spec_for = spec_for.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(rounds);
                let mut bodies = Vec::with_capacity(rounds);
                for round in 0..rounds {
                    let body = spec_for(c, round);
                    barrier.wait();
                    let t = Instant::now();
                    let resp = client::post_query(addr, &body).expect("request");
                    lat.push(t.elapsed());
                    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                    bodies.push(resp.body);
                }
                (lat, bodies)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut all_bodies = Vec::new();
    for h in handles {
        let (lat, bodies) = h.join().expect("client thread");
        latencies.extend(lat);
        all_bodies.push(bodies);
    }
    (
        PhaseResult {
            wall: started.elapsed(),
            latencies,
        },
        all_bodies,
    )
}

fn mean(lat: &[Duration]) -> Duration {
    lat.iter().sum::<Duration>() / lat.len().max(1) as u32
}

fn max(lat: &[Duration]) -> Duration {
    lat.iter().max().copied().unwrap_or(Duration::ZERO)
}

struct Row {
    phase: &'static str,
    arm: &'static str,
    clients: usize,
    requests: usize,
    mean: Duration,
    max: Duration,
    wall: Duration,
}

fn print_row(row: &Row) {
    let rps = row.requests as f64 / row.wall.as_secs_f64().max(1e-9);
    println!(
        "{:<8} {:<8} {:>8} {:>9} {:>12} {:>12} {:>12.1}",
        row.phase,
        row.arm,
        row.clients,
        row.requests,
        secs(row.mean),
        secs(row.max),
        rps
    );
}

fn status_counter(addr: std::net::SocketAddr, path: &[&str]) -> u64 {
    let resp = client::request(addr, "GET", "/status", b"").expect("status");
    let v: serde_json::Value = serde_json::from_slice(&resp.body).expect("status json");
    path.iter()
        .try_fold(&v, |node, key| node.get(key))
        .and_then(|x| x.as_u64())
        .unwrap_or(0)
}

struct SubscribeStep {
    delta_bytes: usize,
    full_bytes: usize,
    delta_latency: Duration,
    cold_latency: Duration,
}

struct SubscribeResult {
    steps: usize,
    mean_delta_latency: Duration,
    mean_cold_latency: Duration,
    latency_speedup: f64,
    delta_bytes: u64,
    full_bytes: u64,
}

/// One subscription against a growing live source: delta 0 plus one
/// delta per appended installment, each checked byte-identical to a
/// cold one-shot run at the same source length.
fn run_subscribe_phase(quick: bool) -> SubscribeResult {
    use v2v_serve::sub::{read_delta, DeltaApplier, DELTA_CONTENT_TYPE};

    let initial = if quick { 120 } else { 300 };
    let step_frames = if quick { 30 } else { 60 };
    let steps = if quick { 2 } else { 5 };
    let total = initial + steps * step_frames;

    let history = source_stream(total);
    let prefix = |n: usize| {
        let packets = history.copy_packet_range(0, n, history.start()).unwrap();
        v2v_container::VideoStream::new(
            *history.params(),
            history.start(),
            history.frame_dur(),
            packets,
        )
        .unwrap()
    };
    let installment = |a: usize, b: usize| {
        let at = history.start() + history.frame_dur() * Rational::from_int(a as i64);
        let packets = history.copy_packet_range(a, b, at).unwrap();
        let tail =
            v2v_container::VideoStream::new(*history.params(), at, history.frame_dur(), packets)
                .unwrap();
        v2v_container::svc_to_bytes(&tail).unwrap()
    };

    // The subscribed query asks for the full eventual domain; the
    // daemon clamps each refresh to what the source can serve yet.
    let spec = SpecBuilder::new(marked_output())
        .video("live", "live.svc")
        .append_filtered("live", r(0, 1), Rational::new(total as i64, 30), |e| {
            blur(e, 1.0)
        })
        .build();

    // Ground truth and cold baseline: a fresh engine, no cache, full
    // render at the given source length.
    let cold_run = |frames: usize| -> (Vec<u8>, Duration) {
        let mut catalog = Catalog::new();
        catalog.add_video("live", prefix(frames));
        let mut engine = v2v_core::V2vEngine::new(catalog);
        engine.bind(&spec).expect("bind");
        let mut clamped = spec.clone();
        clamped.time_domain = v2v_spec::servable_domain(&spec, &engine.catalog().source_infos());
        let t = Instant::now();
        let report = engine.run(&clamped).expect("cold run");
        let took = t.elapsed();
        (
            v2v_container::svc_to_bytes(&report.output).expect("seal cold run"),
            took,
        )
    };

    let cache_dir =
        std::env::temp_dir().join(format!("v2v_bench_subscribe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut config = ServeConfig::default();
    config.engine.render_cache = Some(Arc::new(
        RenderCache::open(&cache_dir, 1 << 30)
            .expect("cache dir")
            .with_mem_tier(64 << 20),
    ));
    let mut catalog = Catalog::new();
    catalog.add_video("live", prefix(initial));
    let mut handle = V2vServer::new(catalog)
        .with_config(config)
        .start("127.0.0.1:0")
        .expect("bind");
    let addr = handle.addr();

    let mut resp = client::open_stream(addr, "POST", "/subscribe", spec.to_json().as_bytes())
        .expect("subscribe");
    assert_eq!(resp.status, 200, "subscribe must be accepted");
    assert_eq!(resp.header_value("content-type"), Some(DELTA_CONTENT_TYPE));
    resp.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");

    let mut applier = DeltaApplier::new();
    let (h0, svc0) = read_delta(&mut resp.reader)
        .expect("delta read")
        .expect("first delta");
    let cum = applier.apply(&h0, &svc0).expect("apply delta 0");
    assert_eq!(cum.len(), initial);
    let (expect, _) = cold_run(initial);
    assert_eq!(
        v2v_container::svc_to_bytes(cum).expect("seal"),
        expect,
        "delta 0 must equal a cold run at the initial length"
    );

    let mut rows = Vec::new();
    for s in 0..steps {
        let a = initial + s * step_frames;
        let b = a + step_frames;
        let body = installment(a, b);
        let t = Instant::now();
        let append = client::request(addr, "POST", "/append/live", &body).expect("append");
        assert_eq!(
            append.status,
            200,
            "{}",
            String::from_utf8_lossy(&append.body)
        );
        let (h, svc) = read_delta(&mut resp.reader)
            .expect("delta read")
            .expect("growth delta");
        let delta_latency = t.elapsed();
        let cum = applier.apply(&h, &svc).expect("apply delta");
        assert_eq!(cum.len(), b, "cumulative length tracks the source");
        let cum_bytes = v2v_container::svc_to_bytes(cum).expect("seal");
        let (cold_bytes, cold_latency) = cold_run(b);
        assert_eq!(
            cum_bytes, cold_bytes,
            "cumulative after installment {s} must equal a cold run at {b} frames"
        );
        rows.push(SubscribeStep {
            delta_bytes: svc.len(),
            full_bytes: cold_bytes.len(),
            delta_latency,
            cold_latency,
        });
    }

    drop(resp);
    handle.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mean_delta_latency = mean(&rows.iter().map(|r| r.delta_latency).collect::<Vec<_>>());
    let mean_cold_latency = mean(&rows.iter().map(|r| r.cold_latency).collect::<Vec<_>>());
    SubscribeResult {
        steps,
        mean_delta_latency,
        mean_cold_latency,
        latency_speedup: mean_cold_latency.as_secs_f64()
            / mean_delta_latency.as_secs_f64().max(1e-9),
        delta_bytes: rows.iter().map(|r| r.delta_bytes as u64).sum(),
        full_bytes: rows.iter().map(|r| r.full_bytes as u64).sum(),
    }
}

/// Total counter value from the daemon's `/metrics` snapshot.
fn metrics_counter(addr: std::net::SocketAddr, name: &str) -> u64 {
    let resp = client::request(addr, "GET", "/metrics", b"").expect("metrics");
    let snap: v2v_obs::MetricsSnapshot = serde_json::from_slice(&resp.body).expect("metrics json");
    snap.counter(name)
}

/// A long-GOP archival-shaped source: one keyframe every `gop` frames,
/// so a mid-GOP read pays up to `gop - 1` frames of lead-in decode.
fn long_gop_stream(frames: usize, gop: u32) -> v2v_container::VideoStream {
    let ty = v2v_frame::FrameType::gray8(64, 32);
    let params = v2v_codec::CodecParams::new(ty, gop, 0);
    let mut w = v2v_container::StreamWriter::new(params, v2v_time::Rational::ZERO, r(1, 30));
    for i in 0..frames {
        let mut f = v2v_frame::Frame::black(ty);
        v2v_frame::marker::embed(&mut f, i as u32);
        w.push_frame(&f).expect("push frame");
    }
    w.finish().expect("finish stream")
}

/// A smart-cut-shaped query deep inside the long GOP: a one-second
/// filtered window starting at `first_frame`, far from any original
/// keyframe, so the decode lead-in dominates the render.
fn store_spec(first_frame: i64) -> Spec {
    SpecBuilder::new(marked_output())
        .video("longgop", "longgop.svc")
        .append_filtered("longgop", r(first_frame, 30), r(1, 1), |e| blur(e, 1.0))
        .build()
}

struct StoreArm {
    arm: &'static str,
    requests: usize,
    mean: Duration,
    max: Duration,
    wall: Duration,
    frames_decoded: u64,
    bytes_decoded: u64,
}

/// Variant-store arms: the same smart-cut-heavy workload against the
/// same long-GOP source, first on a storeless daemon (every mid-GOP
/// read decodes from the GOP's original keyframe), then on a daemon
/// whose store has a keyframe-dense variant materialized. Responses
/// are asserted byte-identical across arms — the variant must change
/// only the decode work, never the bytes.
fn run_store_phase(quick: bool) -> Vec<StoreArm> {
    const STORE_CLIENTS: usize = 4;
    let rounds = if quick { 2 } else { 8 };
    let frames = 900;
    let gop = 300;

    let mut catalog = Catalog::new();
    catalog.add_video("longgop", long_gop_stream(frames, gop));

    let mut arms = Vec::new();
    let mut baseline: Option<Vec<Vec<Vec<u8>>>> = None;
    for (arm, dense) in [("original", false), ("dense", true)] {
        let store_root =
            std::env::temp_dir().join(format!("v2v_bench_store_{}_{arm}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_root);
        let mut config = ServeConfig {
            max_concurrent: 4,
            queue_depth: 64,
            ..Default::default()
        };
        if dense {
            config.store = Some(StoreServeConfig::at(&store_root));
        }
        let mut handle = V2vServer::new(catalog.clone())
            .with_config(config)
            .start("127.0.0.1:0")
            .expect("bind");
        let addr = handle.addr();
        if dense {
            let resp = client::request(addr, "POST", "/store/materialize/longgop/dense", b"")
                .expect("materialize");
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        }
        // Distinct mid-GOP windows, all inside the first GOP: starts
        // 60.. keep every request at least 60 frames past the original
        // keyframe while never crossing into GOP 2.
        let spec_for = move |c: usize, round: usize| {
            let first = 60 + (c * rounds + round) as i64 * 6;
            Arc::new(store_spec(first).to_json().into_bytes())
        };
        let (result, bodies) = drive_rounds(addr, STORE_CLIENTS, rounds, spec_for);
        match &baseline {
            None => baseline = Some(bodies),
            Some(expect) => assert_eq!(
                expect, &bodies,
                "variant-served responses must be byte-identical to the storeless run"
            ),
        }
        let (_, failed, _) = handle.job_counts();
        assert_eq!(failed, 0, "no request may fail");
        let frames_decoded = metrics_counter(addr, "exec.frames_decoded");
        let bytes_decoded = metrics_counter(addr, "exec.bytes_decoded");
        handle.stop();
        let _ = std::fs::remove_dir_all(&store_root);
        arms.push(StoreArm {
            arm,
            requests: STORE_CLIENTS * rounds,
            mean: mean(&result.latencies),
            max: max(&result.latencies),
            wall: result.wall,
            frames_decoded,
            bytes_decoded,
        });
    }
    assert!(
        arms[1].bytes_decoded < arms[0].bytes_decoded,
        "dense variant must cut bytes decoded ({} !< {})",
        arms[1].bytes_decoded,
        arms[0].bytes_decoded
    );
    assert!(
        arms[1].frames_decoded < arms[0].frames_decoded,
        "dense variant must cut frames decoded ({} !< {})",
        arms[1].frames_decoded,
        arms[0].frames_decoded
    );
    arms
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("V2V_BENCH_SCALE").is_ok_and(|s| s == "test");
    let per_client = if quick { 2 } else { 8 };
    let dur_frames: i64 = if quick { 30 } else { 60 };
    let source_frames = 1200;
    let big_source_frames = 3600;

    print_header(
        "Serving",
        "closed-loop latency/throughput: cold vs warm cache, scale-out, subscribe, store",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!();
    println!("detected cores: {cores}; {per_client} request(s) per client per phase");

    let mut catalog = Catalog::new();
    catalog.add_video("src", source_stream(source_frames));
    catalog.add_video("big", big_source_stream(big_source_frames));

    let cache_dir = std::env::temp_dir().join(format!("v2v_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut config = ServeConfig {
        max_concurrent: 4,
        queue_depth: 64,
        ..Default::default()
    };
    config.engine.render_cache = Some(Arc::new(
        RenderCache::open(&cache_dir, 1 << 30)
            .expect("cache dir")
            .with_mem_tier(64 << 20),
    ));
    let mut handle = V2vServer::new(catalog.clone())
        .with_config(config)
        .start("127.0.0.1:0")
        .expect("bind");
    let addr = handle.addr();

    // Warm exactly one query; its bytes are the warm phase's expected
    // response.
    let warm_spec = Arc::new(distinct_spec(900, dur_frames).to_json().into_bytes());
    let warm_resp = client::post_query(addr, &warm_spec).expect("warm-up");
    assert_eq!(warm_resp.status, 200);
    let warm_body = Arc::new(warm_resp.body);

    println!();
    println!(
        "{:<8} {:<8} {:>8} {:>9} {:>12} {:>12} {:>12}",
        "phase", "arm", "clients", "requests", "mean lat", "max lat", "req/s"
    );
    let mut rows: Vec<Row> = Vec::new();
    // Distinct cold queries across all arms: client c of arm a gets the
    // window starting at frame (arm_base + c*per_client + i).
    let mut arm_base = 0usize;
    for clients in CLIENT_COUNTS {
        let base = arm_base;
        arm_base += clients * per_client;
        assert!(
            arm_base + dur_frames as usize <= 900,
            "cold windows must stay distinct from the warm query"
        );
        for (phase, result) in [
            (
                "cold",
                drive(
                    addr,
                    clients,
                    per_client,
                    move |c, i| {
                        Arc::new(
                            distinct_spec(base + c * per_client + i, dur_frames)
                                .to_json()
                                .into_bytes(),
                        )
                    },
                    None,
                ),
            ),
            ("warm", {
                let warm_spec = Arc::clone(&warm_spec);
                drive(
                    addr,
                    clients,
                    per_client,
                    move |_, _| Arc::clone(&warm_spec),
                    Some(&warm_body),
                )
            }),
        ] {
            let row = Row {
                phase,
                arm: "cache",
                clients,
                requests: clients * per_client,
                mean: mean(&result.latencies),
                max: max(&result.latencies),
                wall: result.wall,
            };
            print_row(&row);
            rows.push(row);
        }
    }

    let mean_of = |rows: &[Row], phase: &str, arm: &str, clients: usize| {
        rows.iter()
            .find(|r| r.phase == phase && r.arm == arm && r.clients == clients)
            .expect("row measured")
            .mean
            .as_secs_f64()
    };
    let (done, failed, rejected) = handle.job_counts();
    println!("daemon counters: {done} done, {failed} failed, {rejected} rejected");
    assert_eq!(failed, 0, "no request may fail");
    handle.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);

    // --- scale-out arms ----------------------------------------------
    // Cold bursts against a coordinator with 0/1/2/4
    // workers. Every request is distinct (nothing cached anywhere), so
    // each keyed segment is dispatched over the ring. On a single-vCPU
    // host the workers share one core with the coordinator, so the
    // honest scaling signal is the dispatch distribution, not
    // wall-clock speedup — both are printed.
    const CLUSTER_CLIENTS: usize = 4;
    let rounds = per_client;
    let mut cluster_rows: Vec<(usize, u64, u64)> = Vec::new();
    let mut cluster_baseline: Option<Vec<Vec<Vec<u8>>>> = None;
    for (arm, n_workers) in [("w0", 0usize), ("w1", 1), ("w2", 2), ("w4", 4)] {
        let workers: Vec<_> = (0..n_workers)
            .map(|_| {
                let config = ServeConfig {
                    max_concurrent: 4,
                    queue_depth: 64,
                    role: ServeRole::Worker,
                    ..Default::default()
                };
                V2vServer::new(catalog.clone())
                    .with_config(config)
                    .start("127.0.0.1:0")
                    .expect("worker bind")
            })
            .collect();
        let mut config = ServeConfig {
            max_concurrent: 4,
            queue_depth: 64,
            workers: workers.iter().map(|w| w.addr().to_string()).collect(),
            ..Default::default()
        };
        config.engine.exec.num_threads = 4;
        let mut handle = V2vServer::new(catalog.clone())
            .with_config(config)
            .start("127.0.0.1:0")
            .expect("coordinator bind");
        let addr = handle.addr();
        let spec_for = move |c: usize, round: usize| {
            let first = ((round * CLUSTER_CLIENTS + c) * CLUSTER_CLIPS as usize) as i64;
            Arc::new(clip_spec(first).to_json().into_bytes())
        };
        let (result, bodies) = drive_rounds(addr, CLUSTER_CLIENTS, rounds, spec_for);
        match &cluster_baseline {
            None => cluster_baseline = Some(bodies),
            Some(expect) => assert_eq!(
                expect, &bodies,
                "multi-worker responses must be byte-identical to the local run"
            ),
        }
        let dispatched = status_counter(addr, &["pool", "dispatched"]);
        let re_dispatched = status_counter(addr, &["pool", "re_dispatched"]);
        let (_, failed, _) = handle.job_counts();
        assert_eq!(failed, 0, "no request may fail");
        handle.stop();
        drop(workers);
        cluster_rows.push((n_workers, dispatched, re_dispatched));
        let row = Row {
            phase: "cluster",
            arm,
            clients: CLUSTER_CLIENTS,
            requests: CLUSTER_CLIENTS * rounds,
            mean: mean(&result.latencies),
            max: max(&result.latencies),
            wall: result.wall,
        };
        print_row(&row);
        rows.push(row);
    }
    for (n_workers, dispatched, re_dispatched) in &cluster_rows {
        println!(
            "cluster workers={n_workers}: {dispatched} segment dispatches, {re_dispatched} re-dispatches"
        );
    }

    // --- subscribe arm -----------------------------------------------
    // Live growth: one subscription receives incremental deltas as the
    // source is appended in installments; the baseline is a cold
    // one-shot run of the same query at each intermediate length. Two
    // signals: per-installment latency (append posted → delta fully
    // read, which includes the watcher wake-up and the dirty-tail
    // render) vs the cold re-render, and delta bytes on the wire vs
    // the full result the cold run would re-ship. Every cumulative
    // client stream is asserted byte-identical to its cold run.
    let sub = run_subscribe_phase(quick);
    println!(
        "subscribe: {} installment(s), mean delta latency {}, mean cold re-run {} ({:.1}x), \
         delta bytes {} of full {} ({:.1}% of a re-ship)",
        sub.steps,
        secs(sub.mean_delta_latency),
        secs(sub.mean_cold_latency),
        sub.latency_speedup,
        sub.delta_bytes,
        sub.full_bytes,
        100.0 * sub.delta_bytes as f64 / sub.full_bytes.max(1) as f64,
    );

    // --- variant-store arms ------------------------------------------
    // Smart-cut-heavy mid-GOP reads on a long-GOP source, storeless vs
    // dense-variant-backed; byte-identity asserted, decode-work delta
    // is the signal.
    let store_arms = run_store_phase(quick);
    for a in &store_arms {
        let row = Row {
            phase: "store",
            arm: a.arm,
            clients: 4,
            requests: a.requests,
            mean: a.mean,
            max: a.max,
            wall: a.wall,
        };
        print_row(&row);
    }
    println!(
        "store: dense variant decoded {} bytes / {} frames vs {} bytes / {} frames storeless \
         ({:.1}% of the bytes)",
        store_arms[1].bytes_decoded,
        store_arms[1].frames_decoded,
        store_arms[0].bytes_decoded,
        store_arms[0].frames_decoded,
        100.0 * store_arms[1].bytes_decoded as f64 / store_arms[0].bytes_decoded.max(1) as f64,
    );

    let hit_speedup =
        mean_of(&rows, "cold", "cache", 1) / mean_of(&rows, "warm", "cache", 1).max(1e-9);
    println!();
    println!("single-client cache-hit speedup (cold mean / warm mean): {hit_speedup:.1}x");
}
