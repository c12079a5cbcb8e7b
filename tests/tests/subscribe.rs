//! End-to-end acceptance for live sources and `POST /subscribe`:
//! append-aware catalogs, incremental delta pushes, byte-identity of
//! the cumulative client stream against cold one-shot runs, and the
//! dirty-only re-render property observed through cache counters.

use std::time::{Duration, Instant};
use v2v_container::svc_to_bytes;
use v2v_core::V2vEngine;
use v2v_exec::{Catalog, RenderCache};
use v2v_integration_tests::{marked_output, marked_stream, temp_dir};
use v2v_serve::http::client;
use v2v_serve::sub::{read_delta, DeltaApplier, DELTA_CONTENT_TYPE};
use v2v_serve::{ServeConfig, V2vServer};
use v2v_spec::builder::blur;
use v2v_spec::{Spec, SpecBuilder};
use v2v_time::r;

/// The whole history: 150 frames (5 s), appended in two installments.
const FULL_FRAMES: usize = 150;
const INITIAL_FRAMES: usize = 120;

fn full_stream() -> v2v_container::VideoStream {
    marked_stream(FULL_FRAMES, 30)
}

/// The first `n` frames of the history as a sealed stream.
fn prefix(n: usize) -> v2v_container::VideoStream {
    let s = full_stream();
    let packets = s.copy_packet_range(0, n, s.start()).unwrap();
    v2v_container::VideoStream::new(*s.params(), s.start(), s.frame_dur(), packets).unwrap()
}

/// The appended installment: frames `from..to`, stamped at their
/// absolute instants so it continues the catalog grid.
fn installment(from: usize, to: usize) -> Vec<u8> {
    let s = full_stream();
    let at = s.start() + s.frame_dur() * v2v_time::Rational::from_int(from as i64);
    let packets = s.copy_packet_range(from, to, at).unwrap();
    let tail = v2v_container::VideoStream::new(*s.params(), at, s.frame_dur(), packets).unwrap();
    svc_to_bytes(&tail).unwrap()
}

fn catalog_with(frames: usize) -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", prefix(frames));
    c
}

/// The subscribed query: a blur over far more domain than is available
/// yet. The daemon clamps each refresh to the servable prefix.
fn growth_spec() -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), r(10, 1), |e| blur(e, 1.0))
        .build()
}

/// Ground truth at a given source length: clamp the spec exactly as
/// the daemon does, then run it cold on a fresh engine.
fn direct_bytes(frames: usize) -> Vec<u8> {
    let spec = growth_spec();
    let mut engine = V2vEngine::new(catalog_with(frames));
    engine.bind(&spec).expect("bind");
    let mut clamped = spec.clone();
    clamped.time_domain = v2v_spec::servable_domain(&spec, &engine.catalog().source_infos());
    let report = engine.run(&clamped).expect("direct run");
    svc_to_bytes(&report.output).unwrap()
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
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The tentpole acceptance: subscribe, append, and after every delta
/// the reassembled client stream is byte-identical to a cold one-shot
/// run at the same source length — while the daemon's second refresh
/// re-renders only the dirty tail (prefix shards come from the render
/// cache) and ships only the changed suffix on the wire.
#[test]
fn subscription_deltas_reproduce_cold_runs_and_rerender_only_the_tail() {
    let dir = temp_dir("deltas");
    let mut config = ServeConfig::default();
    config.engine.render_cache = Some(std::sync::Arc::new(
        RenderCache::open(&dir, 1 << 30).unwrap(),
    ));
    let mut handle = V2vServer::new(catalog_with(INITIAL_FRAMES))
        .with_config(config)
        .start("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();

    let mut resp = client::open_stream(
        addr,
        "POST",
        "/subscribe",
        growth_spec().to_json().as_bytes(),
    )
    .expect("subscribe");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header_value("content-type"), Some(DELTA_CONTENT_TYPE));
    resp.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Delta 0: the full servable prefix.
    let mut applier = DeltaApplier::new();
    let (h0, svc0) = read_delta(&mut resp.reader).unwrap().expect("first delta");
    assert_eq!(h0.seq, 0);
    assert_eq!(h0.from_frame, 0);
    let cum = applier.apply(&h0, &svc0).unwrap();
    assert_eq!(cum.len(), INITIAL_FRAMES);
    assert_eq!(
        svc_to_bytes(cum).unwrap(),
        direct_bytes(INITIAL_FRAMES),
        "cumulative after delta 0 must equal a cold run at 120 frames"
    );
    wait_for(addr, "subscription active", |v| {
        status_u64(v, &["subscriptions", "active"]) == 1
    });

    // Append the next installment; the daemon must push only the tail.
    let tail = installment(INITIAL_FRAMES, FULL_FRAMES);
    let append = client::request(addr, "POST", "/append/src", &tail).unwrap();
    assert_eq!(
        append.status,
        200,
        "{}",
        String::from_utf8_lossy(&append.body)
    );

    let (h1, svc1) = read_delta(&mut resp.reader).unwrap().expect("growth delta");
    assert_eq!(h1.seq, 1);
    assert_eq!(
        h1.from_frame, INITIAL_FRAMES as u64,
        "append lands on a GOP boundary: the delta splices exactly at the old length"
    );
    assert_eq!(h1.frames as usize, FULL_FRAMES - INITIAL_FRAMES);
    let cum = applier.apply(&h1, &svc1).unwrap();
    assert_eq!(cum.len(), FULL_FRAMES);
    assert_eq!(
        svc_to_bytes(cum).unwrap(),
        direct_bytes(FULL_FRAMES),
        "cumulative after delta 1 must equal a cold run at 150 frames"
    );

    // Dirty-only: the refresh went through the render cache, so the
    // prefix shards were reused and only the appended range rendered.
    let metrics = client::request(addr, "GET", "/metrics", b"").unwrap();
    let metrics: serde_json::Value = serde_json::from_slice(&metrics.body).unwrap();
    let segment_hits = metrics
        .get("metrics")
        .and_then(|m| m.get("exec.cache.segment_hits"))
        .and_then(|c| c.get("Counter"))
        .and_then(|c| c.as_u64())
        .unwrap_or(0);
    assert!(
        segment_hits >= 1,
        "the second refresh must reuse cached prefix segments: {metrics}"
    );

    let v = status(addr);
    assert_eq!(status_u64(&v, &["subscriptions", "deltas"]), 2, "{v}");
    assert_eq!(status_u64(&v, &["subscriptions", "renders"]), 2, "{v}");
    assert_eq!(status_u64(&v, &["subscriptions", "appends"]), 1, "{v}");
    assert_eq!(
        status_u64(&v, &["subscriptions", "frames_pushed"]),
        FULL_FRAMES as u64,
        "only the changed suffix rides the wire: {v}"
    );
    assert!(status_u64(&v, &["subscriptions", "catalog_version"]) >= 1);

    // Disconnect; the watcher notices on its next poll and retires the
    // subscription.
    drop(resp);
    wait_for(addr, "subscription retired", |v| {
        status_u64(v, &["subscriptions", "active"]) == 0
    });
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends that do not continue the catalog grid are rejected whole —
/// the catalog and version stay untouched.
#[test]
fn malformed_appends_are_rejected_atomically() {
    let mut handle = V2vServer::new(catalog_with(INITIAL_FRAMES))
        .start("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();

    // Not a container at all.
    let resp = client::request(addr, "POST", "/append/src", b"junk").unwrap();
    assert_eq!(resp.status, 422);

    // A valid stream that restarts at t=0 instead of continuing.
    let overlapping = svc_to_bytes(&prefix(30)).unwrap();
    let resp = client::request(addr, "POST", "/append/src", &overlapping).unwrap();
    assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));

    // An empty name routes nowhere useful.
    let resp = client::request(addr, "POST", "/append/", b"").unwrap();
    assert_eq!(resp.status, 400);

    let v = status(addr);
    assert_eq!(
        status_u64(&v, &["subscriptions", "catalog_version"]),
        0,
        "rejected appends must not bump the version: {v}"
    );

    // A well-formed continuation is accepted and bumps the version.
    let resp = client::request(
        addr,
        "POST",
        "/append/src",
        &installment(INITIAL_FRAMES, FULL_FRAMES),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let v = status(addr);
    assert_eq!(status_u64(&v, &["subscriptions", "catalog_version"]), 1);
    handle.stop();
}

/// `/append-data/<name>` grows a detection array and bumps the catalog
/// version so data-driven subscriptions re-evaluate.
#[test]
fn append_data_grows_arrays_and_bumps_the_version() {
    let mut handle = V2vServer::new(catalog_with(INITIAL_FRAMES))
        .start("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();

    let body = br#"[{"t": 1, "value": 3}, {"t": [3, 2], "value": "car"}]"#;
    let resp = client::request(addr, "POST", "/append-data/dets", body).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let info: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
    assert_eq!(info.get("appended").and_then(|x| x.as_u64()), Some(2));
    assert_eq!(info.get("entries").and_then(|x| x.as_u64()), Some(2));

    // Malformed instants are rejected whole.
    let resp = client::request(
        addr,
        "POST",
        "/append-data/dets",
        br#"[{"t": "noon", "value": 1}]"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400);

    let v = status(addr);
    assert_eq!(status_u64(&v, &["subscriptions", "catalog_version"]), 1);
    handle.stop();
}

/// A spec over a source the daemon cannot bind is refused with a
/// proper error response before the stream ever starts.
#[test]
fn subscribe_rejects_unbindable_specs_up_front() {
    let mut handle = V2vServer::new(catalog_with(INITIAL_FRAMES))
        .start("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();

    let spec = SpecBuilder::new(marked_output())
        .video("ghost", "/nonexistent/ghost.svc")
        .append_clip("ghost", r(0, 1), r(1, 1))
        .build();
    let resp = client::request(addr, "POST", "/subscribe", spec.to_json().as_bytes()).unwrap();
    assert_ne!(resp.status, 200, "unbindable spec must be refused");

    let resp = client::request(addr, "POST", "/subscribe", b"not json").unwrap();
    assert_eq!(resp.status, 400);
    handle.stop();
}
