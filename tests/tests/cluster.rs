//! Scale-out acceptance tests: a coordinator dispatching segments to
//! worker daemons must produce output byte-identical to a
//! single-process run — across worker counts, under worker death with
//! re-dispatch, and under corrupt fragments on the wire (rejected and
//! re-rendered, never spliced).

use std::net::TcpListener;
use v2v_container::{fragment_to_wire, svc_to_bytes};
use v2v_core::V2vEngine;
use v2v_exec::Catalog;
use v2v_integration_tests::{marked_output, marked_stream};
use v2v_serve::cluster::WorkerPool;
use v2v_serve::http::{client, read_request, write_response, Response};
use v2v_serve::{ServeConfig, ServeRole, V2vServer};
use v2v_spec::builder::blur;
use v2v_spec::Spec;

/// Every daemon in these tests builds the same in-memory catalog, so
/// content digests (and therefore segment keys) agree across
/// processes exactly as they would over a shared object store.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(300, 30));
    c
}

/// One-second GOP-aligned blurred clips of the shared source; each
/// clip becomes one keyed `Render` segment.
fn clip_query(clips: &[i64]) -> Spec {
    let mut b = v2v_spec::SpecBuilder::new(marked_output()).video("src", "src.svc");
    for &clip in clips {
        b = b.append_filtered("src", v2v_time::r(clip, 1), v2v_time::r(1, 1), |e| {
            blur(e, 1.0)
        });
    }
    b.build()
}

/// Ground truth: a plain single-process engine run.
fn direct_bytes(spec: &Spec) -> Vec<u8> {
    let report = V2vEngine::new(catalog()).run(spec).expect("direct run");
    svc_to_bytes(&report.output).unwrap()
}

fn start_worker() -> v2v_serve::ServerHandle {
    let config = ServeConfig {
        role: ServeRole::Worker,
        ..ServeConfig::default()
    };
    V2vServer::new(catalog())
        .with_config(config)
        .start("127.0.0.1:0")
        .expect("worker start")
}

fn start_coordinator(workers: Vec<String>) -> v2v_serve::ServerHandle {
    let mut config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    // One effective core would serialize the scheduler's dispatch loop;
    // four workers per render keep remote dispatches concurrent.
    config.engine.exec.num_threads = 4;
    V2vServer::new(catalog())
        .with_config(config)
        .start("127.0.0.1:0")
        .expect("coordinator start")
}

fn status(addr: std::net::SocketAddr) -> serde_json::Value {
    let resp = client::request(addr, "GET", "/status", b"").expect("status");
    serde_json::from_slice(&resp.body).expect("status json")
}

fn pool_u64(v: &serde_json::Value, field: &str) -> u64 {
    v.get("pool")
        .and_then(|p| p.get(field))
        .and_then(|x| x.as_u64())
        .unwrap_or_else(|| panic!("status missing pool.{field}: {v}"))
}

/// The byte-identity matrix: {0 (local), 1, 2, 4 workers} ×
/// {Q1 aligned clip, Q3 splice, overlapping pair}. Every response must
/// equal the single-process reference bytes, and with workers present
/// the pool counters must prove segments actually went remote.
#[test]
fn multi_worker_output_is_byte_identical() {
    let specs = [
        clip_query(&[0]),    // Q1: one aligned keyed segment
        clip_query(&[0, 2]), // Q3: splice of two segments
        clip_query(&[0, 1]), // overlap pair, first
        clip_query(&[1, 2]), // overlap pair, second (shares clip 1)
    ];
    let expects: Vec<Vec<u8>> = specs.iter().map(direct_bytes).collect();

    for n_workers in [0usize, 1, 2, 4] {
        let workers: Vec<_> = (0..n_workers).map(|_| start_worker()).collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        let coord = start_coordinator(addrs);
        let mut remote_segments = 0u64;
        for (spec, expect) in specs.iter().zip(&expects) {
            let resp = client::post_query(coord.addr(), spec.to_json().as_bytes()).unwrap();
            assert_eq!(
                resp.status,
                200,
                "workers={n_workers}: {}",
                String::from_utf8_lossy(&resp.body)
            );
            assert_eq!(
                resp.body, *expect,
                "workers={n_workers}: response must be byte-identical to a local run"
            );
            let stats: serde_json::Value =
                serde_json::from_str(resp.header_value("x-v2v-stats").unwrap()).unwrap();
            remote_segments += stats
                .get("cache")
                .and_then(|c| c.get("remote_segments"))
                .and_then(|x| x.as_u64())
                .unwrap_or(0);
        }
        let v = status(coord.addr());
        if n_workers == 0 {
            assert!(v.get("pool").map_or(true, |p| p.is_null()), "no pool: {v}");
            assert_eq!(remote_segments, 0);
        } else {
            assert_eq!(pool_u64(&v, "workers"), n_workers as u64);
            assert_eq!(pool_u64(&v, "alive"), n_workers as u64);
            assert!(
                pool_u64(&v, "dispatched") >= 1,
                "segments must go remote: {v}"
            );
            assert!(pool_u64(&v, "fragment_bytes_in") > 0, "{v}");
            assert!(pool_u64(&v, "fragment_bytes_out") > 0, "{v}");
            assert!(
                remote_segments >= 1,
                "x-v2v-stats must attribute remote segments"
            );
        }
    }
}

/// A worker that dies mid-render: its listener accepts the connection
/// and immediately closes it. Segments homed on it must re-dispatch to
/// the next worker on the ring and the output must stay byte-identical.
#[test]
fn killed_worker_redispatches_to_ring_successor() {
    let live = start_worker();
    let spec = clip_query(&[0, 1]);
    let expect = direct_bytes(&spec);
    let run = V2vEngine::new(catalog()).prepare(&spec).expect("prepare");
    let keys: Vec<u64> = run.segment_keys().iter().map(|k| k.unwrap()).collect();

    // Re-bind the dead listener until its (ephemeral-port-derived) ring
    // position makes it the home worker for at least one of the spec's
    // segments — then a re-dispatch is guaranteed, not probabilistic.
    let mut found = None;
    let mut rejected = Vec::new(); // hold ports so each bind is distinct
    for _ in 0..64 {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = l.local_addr().unwrap();
        let pool = WorkerPool::new(&[a.to_string(), live.addr().to_string()]).unwrap();
        if keys.iter().any(|&k| pool.candidates(k).first() == Some(&0)) {
            found = Some((l, a));
            break;
        }
        rejected.push(l);
    }
    drop(rejected);
    let (dead_listener, dead_addr) = found.expect("a port whose ring homes a segment");
    std::thread::spawn(move || {
        for conn in dead_listener.incoming() {
            drop(conn); // connection torn down mid-request
        }
    });
    let addrs = vec![dead_addr.to_string(), live.addr().to_string()];

    let coord = start_coordinator(addrs);
    let resp = client::post_query(coord.addr(), spec.to_json().as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(
        resp.body, expect,
        "re-dispatched run must stay byte-identical"
    );

    let v = status(coord.addr());
    assert!(
        pool_u64(&v, "re_dispatched") >= 1,
        "dead worker's segments must re-dispatch: {v}"
    );
    assert_eq!(pool_u64(&v, "alive"), 1, "dead worker marked down: {v}");
}

/// A worker that corrupts fragments on the wire: it renders correctly,
/// then flips one payload bit before responding. The coordinator must
/// reject the fragment (checksum mismatch), never splice it, and fall
/// back to rendering locally — output byte-identical throughout.
#[test]
fn corrupt_wire_fragment_is_rejected_and_rerendered() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let evil_addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            let mut reader = std::io::BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            });
            let Ok(req) = read_request(&mut reader) else {
                continue;
            };
            let body: serde_json::Value = serde_json::from_slice(&req.body).unwrap();
            let spec = Spec::from_json(&body.get("spec").unwrap().to_string()).unwrap();
            let seg_index = body.get("seg_index").and_then(|x| x.as_u64()).unwrap() as usize;
            let key =
                u64::from_str_radix(body.get("key").and_then(|x| x.as_str()).unwrap(), 16).unwrap();
            // Render the genuine fragment, then corrupt one payload bit
            // — a plausible wire/storage flip the digest must catch.
            let mut engine = V2vEngine::new(catalog());
            let run = engine.prepare(&spec).unwrap();
            let (frag, _) = engine.render_segment_fragment(&run, seg_index).unwrap();
            let mut bytes = fragment_to_wire(key, &frag).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            let mut writer = stream;
            let _ = write_response(
                &mut writer,
                &Response::new(200, "application/octet-stream", bytes),
            );
        }
    });

    let spec = clip_query(&[0, 1]);
    let expect = direct_bytes(&spec);
    let coord = start_coordinator(vec![evil_addr.to_string()]);
    let resp = client::post_query(coord.addr(), spec.to_json().as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(
        resp.body, expect,
        "corrupt fragments must be re-rendered, not spliced"
    );

    let v = status(coord.addr());
    assert!(pool_u64(&v, "dispatched") >= 2, "{v}");
    // Every remote response was rejected, so no remote segments were
    // attributed and the local fallback did the rendering.
    let stats: serde_json::Value =
        serde_json::from_str(resp.header_value("x-v2v-stats").unwrap()).unwrap();
    assert_eq!(
        stats
            .get("cache")
            .and_then(|c| c.get("remote_segments"))
            .and_then(|x| x.as_u64()),
        Some(0),
        "rejected fragments must not count as remote"
    );
}

/// A worker that dies and *comes back*: the coordinator marks it dead
/// on the first failed dispatch, then the cheap periodic `/status`
/// re-probe — piggybacked on the next dispatch, no dedicated threads —
/// flips it alive again and later queries resume homing segments onto
/// its ring range.
#[test]
fn restarted_worker_is_revived_and_resumes_its_ring_range() {
    let live = start_worker();
    let spec = clip_query(&[0, 1]);
    let expect = direct_bytes(&spec);
    let run = V2vEngine::new(catalog()).prepare(&spec).expect("prepare");
    let keys: Vec<u64> = run.segment_keys().iter().map(|k| k.unwrap()).collect();

    // Pick a port whose ring position homes at least one segment, then
    // release it: until the worker "restarts" there, connections to it
    // are refused and the coordinator must mark it dead.
    let mut found = None;
    let mut rejected = Vec::new(); // hold ports so each bind is distinct
    for _ in 0..64 {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = l.local_addr().unwrap();
        let pool = WorkerPool::new(&[a.to_string(), live.addr().to_string()]).unwrap();
        if keys.iter().any(|&k| pool.candidates(k).first() == Some(&0)) {
            found = Some((l, a));
            break;
        }
        rejected.push(l);
    }
    drop(rejected);
    let (listener, flaky_addr) = found.expect("a port whose ring homes a segment");
    drop(listener); // the worker is down

    let coord = start_coordinator(vec![flaky_addr.to_string(), live.addr().to_string()]);
    let resp = client::post_query(coord.addr(), spec.to_json().as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.body, expect, "re-dispatched run stays byte-identical");
    let v = status(coord.addr());
    assert_eq!(pool_u64(&v, "alive"), 1, "down worker marked dead: {v}");

    // Restart the worker at its old address — same ring identity. (If
    // another test grabbed the freed port in the gap there is nothing
    // left to assert; that is a port collision, not a recovery bug.)
    let config = ServeConfig {
        role: ServeRole::Worker,
        ..ServeConfig::default()
    };
    let Ok(revived) = V2vServer::new(catalog())
        .with_config(config)
        .start(&flaky_addr.to_string())
    else {
        return;
    };
    assert_eq!(revived.addr(), flaky_addr);

    // Let the re-probe rate limit lapse, then query again: the probe
    // piggybacked on the dispatch must flip the worker alive and its
    // ring range must render on it again.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let resp = client::post_query(coord.addr(), spec.to_json().as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.body, expect, "output identical after revival");

    let v = status(coord.addr());
    assert_eq!(pool_u64(&v, "alive"), 2, "revived worker rejoins: {v}");
    assert!(pool_u64(&v, "probes") >= 1, "re-probe must have run: {v}");

    // The revived worker renders its homed segments itself. The query
    // above may have raced the in-flight probe (its segments dispatch
    // concurrently and can reroute before the revival lands), so the
    // proof query runs *after* `alive == 2` is confirmed — with a few
    // retries in case a loaded host trips a dispatch deadline and
    // re-marks the worker dead for a beat.
    let mut rendered = 0;
    for _ in 0..10 {
        let resp = client::post_query(coord.addr(), spec.to_json().as_bytes()).unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(resp.body, expect, "output identical after revival");
        let m = client::request(revived.addr(), "GET", "/metrics", b"").unwrap();
        let m: serde_json::Value = serde_json::from_slice(&m.body).unwrap();
        rendered = m
            .get("metrics")
            .and_then(|x| x.get("serve.segments_rendered"))
            .and_then(|x| x.get("Counter"))
            .and_then(|x| x.as_u64())
            .unwrap_or(0);
        if rendered >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
    }
    assert!(rendered >= 1, "revived worker must render again");
}

/// Workers are slim by contract: `POST /query` is not served, but
/// `/status` reports the role and `/render-segment` works.
#[test]
fn worker_role_rejects_top_level_queries() {
    let worker = start_worker();
    let resp = client::post_query(worker.addr(), clip_query(&[0]).to_json().as_bytes()).unwrap();
    assert_eq!(resp.status, 404, "workers do not serve /query");
    let v = status(worker.addr());
    assert_eq!(v.get("role").and_then(|x| x.as_str()), Some("worker"));
}

/// A worker with no reuse tier at all (`work_sharing: false`, no render
/// cache) still serves a dispatched segment: its `prepare` computes the
/// plan's segment keys regardless, and `/render-segment` checks the
/// dispatched key against them before rendering.
#[test]
fn worker_without_reuse_tiers_serves_dispatched_segments() {
    let config = ServeConfig {
        role: ServeRole::Worker,
        work_sharing: false,
        ..ServeConfig::default()
    };
    assert!(config.engine.render_cache.is_none());
    let worker = V2vServer::new(catalog())
        .with_config(config)
        .start("127.0.0.1:0")
        .expect("worker start");
    let coord = start_coordinator(vec![worker.addr().to_string()]);
    let spec = clip_query(&[0, 2]);
    let resp = client::post_query(coord.addr(), spec.to_json().as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.body, direct_bytes(&spec));
    let stats: serde_json::Value =
        serde_json::from_str(resp.header_value("x-v2v-stats").unwrap()).unwrap();
    let remote = stats
        .get("cache")
        .and_then(|c| c.get("remote_segments"))
        .and_then(|x| x.as_u64());
    assert_eq!(
        remote,
        Some(2),
        "both keyed segments rendered on the worker"
    );
    let v = status(coord.addr());
    assert_eq!(pool_u64(&v, "alive"), 1, "the worker never failed: {v}");
}
