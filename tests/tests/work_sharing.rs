//! Acceptance tests for multi-query work sharing: identical daemon
//! requests served by their segments (one render per cohort, whatever
//! the interleaving), engine-level exactly-once rendering of
//! overlapping segments across concurrent queries, and byte-identity of
//! every shared response against unshared direct runs.

use std::sync::{Arc, Barrier};
use v2v_container::svc_to_bytes;
use v2v_core::{EngineConfig, V2vEngine};
use v2v_exec::{Catalog, FragmentFlight, RenderCache};
use v2v_integration_tests::{marked_output, marked_stream, temp_dir};
use v2v_serve::http::client;
use v2v_serve::{ServeConfig, V2vServer};
use v2v_spec::builder::blur;
use v2v_spec::{Spec, SpecBuilder};
use v2v_time::{r, Rational};

/// Cohort size: identical requests posted at once.
const COHORT: usize = 4;

/// The cohort's query: a quick 1 s blur over the small source (one
/// keyed 30-frame render segment).
fn target_spec() -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), Rational::from_int(1), |e| blur(e, 1.0))
        .build()
}

/// Posts `COHORT` copies of `spec` at once (released together by a
/// barrier) and returns every response.
fn post_cohort(addr: std::net::SocketAddr, spec: &Spec) -> Vec<v2v_serve::http::Response> {
    let barrier = Arc::new(Barrier::new(COHORT));
    let handles: Vec<_> = (0..COHORT)
        .map(|_| {
            let (spec, barrier) = (spec.to_json(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                client::post_query(addr, spec.as_bytes()).unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// K identical requests against a daemon with a render cache, at one
/// and two admission slots: each request is its own run, and its keyed
/// segment meets the others' in the daemon-wide fragment flight or the
/// cache, so across the cohort the segment renders exactly once under
/// any interleaving, and every body is byte-identical to a direct run.
#[test]
fn identical_inflight_requests_render_exactly_once() {
    let expect = direct_bytes(&target_spec());
    for max_concurrent in [1usize, 2] {
        let dir = temp_dir(&format!("cohort_{max_concurrent}"));
        let mut config = ServeConfig {
            max_concurrent,
            queue_depth: 16,
            ..Default::default()
        };
        config.engine.render_cache = Some(Arc::new(RenderCache::open(&dir, 1 << 30).unwrap()));
        let mut handle = V2vServer::new(source_catalog())
            .with_config(config)
            .start("127.0.0.1:0")
            .unwrap();

        let mut encoded = 0;
        for resp in post_cohort(handle.addr(), &target_spec()) {
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            assert_eq!(resp.body, expect, "every body must match the direct run");
            let stats: v2v_exec::ExecStats =
                serde_json::from_str(resp.header_value("x-v2v-stats").unwrap()).unwrap();
            encoded += stats.frames_encoded;
        }
        assert_eq!(
            encoded, 30,
            "max_concurrent={max_concurrent}: one render per cohort"
        );
        assert_eq!(handle.job_counts(), (COHORT as u64, 0, 0));
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
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
    V2vEngine::new(source_catalog()).with_config(config)
}

fn source_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(300, 30));
    c
}

fn direct_bytes(spec: &Spec) -> Vec<u8> {
    let report = V2vEngine::new(source_catalog())
        .run(spec)
        .expect("direct run");
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

/// A cohort whose render fails: packet 10 of "src" carries an invalid
/// packet-kind byte, so planning succeeds (it only hashes bytes) and
/// each run's decode of frame 10 fails with `CorruptData` after
/// admission. A failed owner leaves nothing in the flight or the cache,
/// so every member renders, fails and gets the taxonomy-mapped 422
/// `corrupt_data`, never a generic 500.
#[test]
fn corrupt_packet_cohort_each_gets_its_taxonomy_status() {
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
        c
    };
    let config = ServeConfig {
        max_concurrent: 1,
        queue_depth: 16,
        ..Default::default()
    };
    let mut handle = V2vServer::new(catalog)
        .with_config(config)
        .start("127.0.0.1:0")
        .unwrap();

    for resp in post_cohort(handle.addr(), &target_spec()) {
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
            "kind must survive: {body}"
        );
    }
    assert_eq!(handle.job_counts(), (0, COHORT as u64, 0));
    handle.stop();
}
