//! End-to-end smoke test for the `v2v serve` daemon: spawn the release
//! binary, hammer it with a concurrent client matrix (repeat /
//! overlapping / distinct queries), and check that every response is
//! byte-identical to a direct `v2v run` of the same spec and that the
//! persistent render cache serves repeats without decoding.

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use v2v_integration_tests::{marked_output, marked_stream};
use v2v_serve::http::client;
use v2v_spec::builder::blur;
use v2v_spec::{Spec, SpecBuilder};
use v2v_time::{r, Rational};

/// The `v2v` binary of this tree: Cargo builds it before running these
/// tests.
const V2V: &str = env!("CARGO_BIN_EXE_v2v");

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("v2v_serve_tests_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Kills the daemon when the test ends, pass or fail. Holds the
/// daemon's stdout pipe open for its whole lifetime: dropping the read
/// end would turn the daemon's next `println!` into a fatal EPIPE.
struct Daemon {
    child: Child,
    _stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `v2v serve` on an ephemeral port and parses the bound address
/// from its first stdout line.
fn start_daemon(cache_dir: &std::path::Path) -> (Daemon, SocketAddr) {
    let mut child = Command::new(V2V)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--max-concurrent",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn v2v serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                if let Some(rest) = line.strip_prefix("listening on ") {
                    break rest.trim().parse::<SocketAddr>().expect("bound address");
                }
            }
            _ => {
                let mut err = String::new();
                if let Some(mut e) = child.stderr.take() {
                    use std::io::Read;
                    let _ = e.read_to_string(&mut err);
                }
                panic!("daemon exited before binding: {err}");
            }
        }
    };
    let daemon = Daemon {
        child,
        _stdout: reader,
    };
    (daemon, addr)
}

/// Per-test source file: the two tests run concurrently in one
/// process, and sharing a fixture would let one test truncate the file
/// while the other's daemon reads it.
fn write_fixture(dir: &std::path::Path, tag: &str) -> PathBuf {
    let video_path = dir.join(format!("serve_src_{tag}.svc"));
    v2v_container::write_svc(&marked_stream(300, 30), &video_path).unwrap();
    video_path
}

/// Render-heavy query: 4 s blur plus a copied clip.
fn spec_repeat(video: &std::path::Path) -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", video.to_string_lossy())
        .append_filtered("src", r(0, 1), Rational::from_int(4), |e| blur(e, 1.0))
        .append_clip("src", r(6, 1), Rational::from_int(1))
        .build()
}

/// Shares the blur segment with [`spec_repeat`] at a shifted position.
fn spec_overlap(video: &std::path::Path) -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", video.to_string_lossy())
        .append_clip("src", r(8, 1), Rational::from_int(1))
        .append_filtered("src", r(0, 1), Rational::from_int(4), |e| blur(e, 1.0))
        .build()
}

/// No overlap with the others: pure stream copy.
fn spec_distinct(video: &std::path::Path) -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", video.to_string_lossy())
        .append_clip("src", r(2, 1), Rational::from_int(2))
        .build()
}

/// `v2v run` the spec directly and return the output `.svc` bytes.
fn direct_run(dir: &std::path::Path, tag: &str, spec: &Spec) -> Vec<u8> {
    let spec_path = dir.join(format!("direct_{tag}.json"));
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let out_path = dir.join(format!("direct_{tag}.svc"));
    let output = Command::new(V2V)
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn v2v run");
    assert!(
        output.status.success(),
        "direct run {tag} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read(&out_path).unwrap()
}

fn stats_field(resp: &v2v_serve::http::Response, path: &[&str]) -> u64 {
    let raw = resp.header_value("x-v2v-stats").expect("stats header");
    let mut v: serde_json::Value = serde_json::from_str(raw).expect("stats JSON");
    for key in path {
        v = v.get(key).cloned().unwrap_or_else(|| {
            panic!("stats field {path:?} missing in {raw}");
        });
    }
    v.as_u64().expect("numeric stats field")
}

#[test]
fn daemon_matches_direct_runs_and_serves_repeats_from_cache() {
    let dir = workdir();
    let video = write_fixture(&dir, "matrix");
    let cache_dir = dir.join("cache");
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Ground truth: direct `v2v run` outputs for each query shape.
    let specs = [
        ("repeat", spec_repeat(&video)),
        ("overlap", spec_overlap(&video)),
        ("distinct", spec_distinct(&video)),
    ];
    let truth: Vec<Arc<Vec<u8>>> = specs
        .iter()
        .map(|(tag, spec)| Arc::new(direct_run(&dir, tag, spec)))
        .collect();

    let (_daemon, addr) = start_daemon(&cache_dir);

    // Warm-up: one cold render of the repeat query populates its
    // segment fragments.
    let warmup = client::post_query(addr, spec_repeat(&video).to_json().as_bytes()).unwrap();
    assert_eq!(
        warmup.status,
        200,
        "{}",
        String::from_utf8_lossy(&warmup.body)
    );
    assert_eq!(warmup.body, *truth[0]);
    assert_eq!(stats_field(&warmup, &["cache", "segment_hits"]), 0);

    // Concurrent client matrix: two repeats, one overlapping, one
    // distinct, all in flight together against max_concurrent=2.
    let jobs: Vec<(usize, Arc<Vec<u8>>)> = vec![
        (0, Arc::new(specs[0].1.to_json().into_bytes())),
        (0, Arc::new(specs[0].1.to_json().into_bytes())),
        (1, Arc::new(specs[1].1.to_json().into_bytes())),
        (2, Arc::new(specs[2].1.to_json().into_bytes())),
    ];
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|(which, body)| {
            std::thread::spawn(move || (which, client::post_query(addr, &body).unwrap()))
        })
        .collect();
    let mut overlap_resp = None;
    for h in handles {
        let (which, resp) = h.join().expect("client thread");
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(
            resp.body, *truth[which],
            "served bytes must match direct `v2v run` for spec {which}"
        );
        if which == 1 {
            overlap_resp = Some(resp);
        }
    }

    // The overlapping query spliced the warm blur segments.
    let overlap_resp = overlap_resp.expect("overlap response");
    assert!(
        stats_field(&overlap_resp, &["cache", "segment_hits"]) > 0,
        "overlapping query must reuse cached segments"
    );

    // A repeat of the warmed query is a zero-decode all-segment hit.
    let repeat = client::post_query(addr, spec_repeat(&video).to_json().as_bytes()).unwrap();
    assert_eq!(repeat.status, 200);
    assert_eq!(repeat.body, *truth[0]);
    assert!(stats_field(&repeat, &["cache", "segment_hits"]) >= 1);
    assert_eq!(stats_field(&repeat, &["frames_decoded"]), 0);
    assert_eq!(stats_field(&repeat, &["bytes_decoded"]), 0);
    assert_eq!(stats_field(&repeat, &["frames_encoded"]), 0);

    // Control-plane endpoints answer on the same listener.
    let status = client::request(addr, "GET", "/status", b"").unwrap();
    assert_eq!(status.status, 200);
    let v: serde_json::Value = serde_json::from_slice(&status.body).unwrap();
    assert!(
        v.get("jobs_done").and_then(|x| x.as_u64()).unwrap_or(0) >= 6,
        "{}",
        String::from_utf8_lossy(&status.body)
    );

    let metrics = client::request(addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8_lossy(&metrics.body);
    assert!(text.contains("exec.cache.segment_hits"), "{text}");

    // The daemon read the fixture once, when the first query bound it:
    // with the file gone, a repeat is still served, byte-identical to
    // the direct run.
    std::fs::remove_file(&video).unwrap();
    let after = client::post_query(addr, spec_repeat(&video).to_json().as_bytes()).unwrap();
    assert_eq!(
        after.status,
        200,
        "{}",
        String::from_utf8_lossy(&after.body)
    );
    assert_eq!(after.body, *truth[0]);
}

#[test]
fn daemon_reports_errors_without_dying() {
    let dir = workdir();
    let video = write_fixture(&dir, "errors");
    let cache_dir = dir.join("cache_err");
    let (_daemon, addr) = start_daemon(&cache_dir);

    // Malformed spec: 400 with a structured error body.
    let bad = client::post_query(addr, b"{not json").unwrap();
    assert_eq!(bad.status, 400);
    let v: serde_json::Value = serde_json::from_slice(&bad.body).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("invalid_request")
    );

    // Spec referencing a missing source: 404, daemon stays up.
    let missing = SpecBuilder::new(marked_output())
        .video("src", "/nonexistent/nope.svc")
        .append_clip("src", r(0, 1), Rational::from_int(1))
        .build();
    let resp = client::post_query(addr, missing.to_json().as_bytes()).unwrap();
    assert_eq!(resp.status, 404, "{}", String::from_utf8_lossy(&resp.body));

    // And a good query still works afterwards.
    let ok = client::post_query(addr, spec_distinct(&video).to_json().as_bytes()).unwrap();
    assert_eq!(ok.status, 200, "{}", String::from_utf8_lossy(&ok.body));
}
