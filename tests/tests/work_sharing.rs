//! Acceptance tests for multi-query work sharing: daemon-level
//! single-flight coalescing of identical requests, engine-level
//! exactly-once rendering of overlapping segments across concurrent
//! queries, and byte-identity of every shared response against
//! unshared direct runs.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use v2v_container::svc_to_bytes;
use v2v_core::{EngineConfig, V2vEngine};
use v2v_exec::{Catalog, FragmentFlight, RenderCache};
use v2v_integration_tests::{marked_output, marked_stream, temp_dir};
use v2v_serve::http::client;
use v2v_serve::{ServeConfig, V2vServer};
use v2v_spec::builder::blur;
use v2v_spec::{OutputSettings, Spec, SpecBuilder};
use v2v_time::{r, Rational};

/// A big-frame stream: renders over it are slow enough (hundreds of
/// milliseconds) to hold the daemon's single admission slot while the
/// test orchestrates the coalescing cohort behind it.
fn big_stream(frames: usize) -> v2v_container::VideoStream {
    let ty = v2v_frame::FrameType::gray8(128, 128);
    let params = v2v_codec::CodecParams::new(ty, 30, 0);
    let mut w = v2v_container::StreamWriter::new(params, Rational::ZERO, r(1, 30));
    for i in 0..frames {
        let mut f = v2v_frame::Frame::black(ty);
        v2v_frame::marker::embed(&mut f, i as u32);
        w.push_frame(&f).unwrap();
    }
    w.finish().unwrap()
}

fn big_output() -> OutputSettings {
    OutputSettings {
        frame_ty: v2v_frame::FrameType::gray8(128, 128),
        frame_dur: r(1, 30),
        gop_size: 30,
        quantizer: 0,
    }
}

fn daemon_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(300, 30));
    c.add_video("big", big_stream(600));
    c
}

/// The slow blocker: a 20 s blur over the big source.
fn blocker_spec() -> Spec {
    SpecBuilder::new(big_output())
        .video("big", "big.svc")
        .append_filtered("big", r(0, 1), Rational::from_int(20), |e| blur(e, 1.0))
        .build()
}

/// The coalescing target: a quick 1 s blur over the small source.
fn target_spec() -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), Rational::from_int(1), |e| blur(e, 1.0))
        .build()
}

fn status(addr: std::net::SocketAddr) -> serde_json::Value {
    let resp = client::request(addr, "GET", "/status", b"").expect("status");
    serde_json::from_slice(&resp.body).expect("status json")
}

fn status_u64(v: &serde_json::Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |node, key| node.get(key))
        .and_then(|x| x.as_u64())
        .unwrap_or_else(|| panic!("status missing {path:?}: {v:?}"))
}

/// Polls `/status` until `pred` holds (10 s timeout).
fn wait_for(
    addr: std::net::SocketAddr,
    what: &str,
    pred: impl Fn(&serde_json::Value) -> bool,
) -> serde_json::Value {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let v = status(addr);
        if pred(&v) {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last status: {v}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// K identical requests against a busy single-slot daemon: exactly one
/// of them renders; the rest coalesce into the in-flight render and
/// receive byte-identical responses marked with `inflight_hits`.
#[test]
fn identical_inflight_requests_render_exactly_once() {
    const FOLLOWERS: usize = 3;
    let config = ServeConfig {
        max_concurrent: 1,
        queue_depth: 16,
        ..Default::default()
    };
    let mut handle = V2vServer::new(daemon_catalog())
        .with_config(config)
        .start("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();

    // Ground truth: an unshared direct run of the target query.
    let mut direct = V2vEngine::new(daemon_catalog());
    let expect = svc_to_bytes(&direct.run(&target_spec()).expect("direct run").output).unwrap();

    // Occupy the only admission slot with the slow blocker, then post
    // the identical cohort. The cohort's leader registers its plan
    // fingerprint *before* queueing at the gate, so every duplicate
    // coalesces while the blocker still renders — none of this is
    // timing-sensitive as long as the blocker outlives the (ms-scale)
    // cohort setup, and the explicit waits below pin each step.
    let blocker = {
        let spec = blocker_spec().to_json();
        std::thread::spawn(move || client::post_query(addr, spec.as_bytes()).unwrap())
    };
    wait_for(addr, "blocker admitted", |v| {
        status_u64(v, &["active"]) == 1
    });

    let cohort: Vec<_> = (0..=FOLLOWERS)
        .map(|_| {
            let spec = target_spec().to_json();
            std::thread::spawn(move || client::post_query(addr, spec.as_bytes()).unwrap())
        })
        .collect();
    // All duplicates parked on the leader's flight: the coalescing is
    // now a fact, not a race.
    wait_for(addr, "cohort coalesced", |v| {
        status_u64(v, &["sharing", "waiting"]) == FOLLOWERS as u64
    });

    let mut leaders = 0;
    let mut followers = 0;
    for h in cohort {
        let resp = h.join().unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(resp.body, expect, "shared response must match direct run");
        let stats: serde_json::Value =
            serde_json::from_str(resp.header_value("x-v2v-stats").unwrap()).unwrap();
        let inflight_hits = status_u64(&stats, &["cache", "inflight_hits"]);
        let encoded = status_u64(&stats, &["frames_encoded"]);
        if inflight_hits == 0 {
            leaders += 1;
            assert_eq!(encoded, 30, "the one leader renders the full result");
        } else {
            followers += 1;
            assert_eq!(inflight_hits, 1);
            assert_eq!(encoded, 0, "followers must not render");
        }
    }
    assert_eq!((leaders, followers), (1, FOLLOWERS));
    assert_eq!(blocker.join().unwrap().status, 200);

    let v = status(addr);
    assert_eq!(
        status_u64(&v, &["sharing", "inflight_hits"]),
        FOLLOWERS as u64
    );
    assert_eq!(
        status_u64(&v, &["sharing", "inflight"]),
        0,
        "flights drained"
    );
    let (done, failed, rejected) = handle.job_counts();
    assert_eq!(
        (done, failed, rejected),
        (2 + FOLLOWERS as u64, 0, 0),
        "every coalesced request counts as completed"
    );
    handle.stop();
}

/// Clip `i` (one second, GOP-aligned) of the small source, blurred.
fn clip_query(clips: &[i64]) -> Spec {
    let mut b = SpecBuilder::new(marked_output()).video("src", "src.svc");
    for &clip in clips {
        b = b.append_filtered("src", r(clip, 1), r(1, 1), |e| blur(e, 1.0));
    }
    b.build()
}

fn shared_engine(
    cache: &Arc<RenderCache>,
    flight: &Arc<FragmentFlight>,
    threads: usize,
) -> V2vEngine {
    let mut config = EngineConfig {
        render_cache: Some(Arc::clone(cache)),
        work_share: Some(Arc::clone(flight)),
        ..EngineConfig::default()
    };
    config.exec.num_threads = threads;
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(300, 30));
    V2vEngine::new(c).with_config(config)
}

fn direct_bytes(spec: &Spec) -> Vec<u8> {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(300, 30));
    let report = V2vEngine::new(c).run(spec).expect("direct run");
    svc_to_bytes(&report.output).unwrap()
}

/// Two overlapping queries run concurrently against a shared cache and
/// fragment flight, across executor thread counts: each unique segment
/// is rendered exactly once (summed `frames_encoded` equals the unique
/// frame count), and both outputs are byte-identical to unshared
/// direct runs.
#[test]
fn overlapping_queries_render_shared_segments_once() {
    // A covers clips {0,1}, B covers {1,2}: 3 unique one-second clips.
    let spec_a = clip_query(&[0, 1]);
    let spec_b = clip_query(&[1, 2]);
    let expect_a = direct_bytes(&spec_a);
    let expect_b = direct_bytes(&spec_b);

    for threads in [1usize, 2, 8] {
        let dir = temp_dir(&format!("overlap_{threads}"));
        let cache = Arc::new(RenderCache::open(&dir, 1 << 30).unwrap());
        let flight = Arc::new(FragmentFlight::new());
        let barrier = Arc::new(Barrier::new(2));
        let run = |spec: Spec| {
            let cache = Arc::clone(&cache);
            let flight = Arc::clone(&flight);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut engine = shared_engine(&cache, &flight, threads);
                barrier.wait();
                engine.run(&spec).expect("shared run")
            })
        };
        let (ha, hb) = (run(spec_a.clone()), run(spec_b.clone()));
        let (ra, rb) = (ha.join().unwrap(), hb.join().unwrap());

        assert_eq!(
            svc_to_bytes(&ra.output).unwrap(),
            expect_a,
            "threads={threads}: A must match its direct run"
        );
        assert_eq!(
            svc_to_bytes(&rb.output).unwrap(),
            expect_b,
            "threads={threads}: B must match its direct run"
        );
        // 3 unique clips × 30 frames: any duplicated render would push
        // the combined encode count past 90.
        assert_eq!(
            ra.stats.frames_encoded + rb.stats.frames_encoded,
            90,
            "threads={threads}: each shared segment renders exactly once"
        );
        let reuse = ra.stats.cache.shared_segment_hits
            + rb.stats.cache.shared_segment_hits
            + ra.stats.cache.segment_hits
            + rb.stats.cache.segment_hits;
        assert!(
            reuse >= 1,
            "threads={threads}: the common clip must be reused via some tier"
        );
        assert_eq!(flight.inflight(), 0, "threads={threads}: flights drained");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Eight engines race the *same* two-segment query over a shared cache
/// and flight: across all eight runs each segment is rendered exactly
/// once, whichever engine happens to own it, and every output is
/// byte-identical.
#[test]
fn identical_engine_runs_share_exactly_one_render() {
    const ENGINES: usize = 8;
    let spec = clip_query(&[4, 5]);
    let expect = direct_bytes(&spec);

    let dir = temp_dir("contend");
    let cache = Arc::new(RenderCache::open(&dir, 1 << 30).unwrap());
    let flight = Arc::new(FragmentFlight::new());
    let barrier = Arc::new(Barrier::new(ENGINES));
    let handles: Vec<_> = (0..ENGINES)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let flight = Arc::clone(&flight);
            let barrier = Arc::clone(&barrier);
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut engine = shared_engine(&cache, &flight, 2);
                barrier.wait();
                engine.run(&spec).expect("contended run")
            })
        })
        .collect();

    let mut total_encoded = 0;
    for h in handles {
        let report = h.join().unwrap();
        assert_eq!(svc_to_bytes(&report.output).unwrap(), expect);
        total_encoded += report.stats.frames_encoded;
    }
    // 2 unique clips × 30 frames, rendered once across all 8 runs; the
    // other seven runs were fed by the flight or by segment hits in the
    // disk tier.
    assert_eq!(total_encoded, 60, "work done exactly once across engines");
    assert_eq!(flight.inflight(), 0, "flights drained");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The single-flight *error* fan-out audit: a leader that fails after
/// followers attach must hand every follower the taxonomy-mapped
/// status — here a mid-render corrupt packet becomes 422
/// `corrupt_data` for the whole cohort, never a generic 500.
#[test]
fn leader_render_error_fans_out_with_its_taxonomy_status() {
    const FOLLOWERS: usize = 4;
    let config = ServeConfig {
        max_concurrent: 1,
        queue_depth: 16,
        ..Default::default()
    };
    // Packet 10 of "src" carries an invalid packet-kind byte: planning
    // and fingerprinting succeed (they only hash bytes), so the cohort
    // coalesces normally — but the leader's decode of frame 10 fails
    // with CorruptData only after it is admitted, i.e. after the
    // followers are already parked on its flight. (A FaultInjector
    // cannot stage this: arming one deliberately disables plan
    // fingerprints, and with them the single-flight tier under test.)
    let catalog = {
        let mut c = Catalog::new();
        let s = marked_stream(300, 30);
        let mut packets = s.packets().to_vec();
        let mut data = packets[10].data.to_vec();
        data[0] = 0xFF;
        packets[10].data = bytes::Bytes::from(data);
        c.add_video(
            "src",
            v2v_container::VideoStream::new(*s.params(), s.start(), s.frame_dur(), packets)
                .unwrap(),
        );
        c.add_video("big", big_stream(600));
        c
    };
    let mut handle = V2vServer::new(catalog)
        .with_config(config)
        .start("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();

    // Occupy the only admission slot (the blocker reads "big", which
    // the injector ignores), then post the doomed identical cohort.
    let blocker = {
        let spec = blocker_spec().to_json();
        std::thread::spawn(move || client::post_query(addr, spec.as_bytes()).unwrap())
    };
    wait_for(addr, "blocker admitted", |v| {
        status_u64(v, &["active"]) == 1
    });

    let cohort: Vec<_> = (0..=FOLLOWERS)
        .map(|_| {
            let spec = target_spec().to_json();
            std::thread::spawn(move || client::post_query(addr, spec.as_bytes()).unwrap())
        })
        .collect();
    wait_for(addr, "cohort coalesced", |v| {
        status_u64(v, &["sharing", "waiting"]) == FOLLOWERS as u64
    });

    for h in cohort {
        let resp = h.join().unwrap();
        assert_eq!(
            resp.status,
            422,
            "every cohort member gets the mapped status: {}",
            String::from_utf8_lossy(&resp.body)
        );
        let body: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(
            body.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str()),
            Some("corrupt_data"),
            "kind must survive the fan-out: {body}"
        );
    }
    assert_eq!(blocker.join().unwrap().status, 200, "blocker unaffected");

    let v = status(addr);
    assert_eq!(
        status_u64(&v, &["sharing", "inflight_hits"]),
        FOLLOWERS as u64,
        "the error was shared, not re-rendered: {v}"
    );
    assert_eq!(status_u64(&v, &["sharing", "inflight"]), 0, "drained: {v}");
    let (done, failed, _) = handle.job_counts();
    assert_eq!(done, 1, "only the blocker succeeded");
    assert_eq!(failed, 1 + FOLLOWERS as u64, "whole cohort counted failed");
    handle.stop();
}
