//! End-to-end CLI tests: drive the `v2v` binary over on-disk artifacts.

use std::io::BufRead;
use std::io::BufReader;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use v2v_integration_tests::{marked_output, marked_stream};
use v2v_spec::builder::blur;
use v2v_spec::SpecBuilder;
use v2v_time::{r, Rational};

/// The `v2v` binary of this tree: Cargo builds it before running these
/// tests.
const V2V: &str = env!("CARGO_BIN_EXE_v2v");

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join("v2v_cli_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes a video + a spec referencing it by absolute path; returns the
/// spec path and expected frame count.
fn fixture(tag: &str) -> (PathBuf, usize) {
    let dir = workdir();
    let video_path = dir.join(format!("{tag}_src.svc"));
    v2v_container::write_svc(&marked_stream(120, 30), &video_path).unwrap();
    let spec = SpecBuilder::new(marked_output())
        .video("src", video_path.to_string_lossy())
        .append_clip("src", r(1, 1), Rational::from_int(2))
        .build();
    let spec_path = dir.join(format!("{tag}_spec.json"));
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    (spec_path, 60)
}

#[test]
fn cli_run_and_info() {
    let (spec_path, frames) = fixture("run");
    let out_path = workdir().join("run_out.svc");
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
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains(&format!("{frames} frames")), "{stdout}");

    let result = v2v_container::read_svc(&out_path).unwrap();
    assert_eq!(result.len(), frames);

    let info = Command::new(V2V)
        .args(["info", out_path.to_str().unwrap()])
        .output()
        .expect("spawn v2v info");
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("frames     : 60"), "{text}");
}

#[test]
fn cli_explain_and_check() {
    let (spec_path, _) = fixture("explain");
    let explain = Command::new(V2V)
        .args(["explain", spec_path.to_str().unwrap()])
        .output()
        .expect("spawn v2v explain");
    assert!(explain.status.success());
    let text = String::from_utf8_lossy(&explain.stdout);
    assert!(text.contains("unoptimized logical plan"), "{text}");
    assert!(
        text.contains("StreamCopy") || text.contains("Render"),
        "{text}"
    );

    let check = Command::new(V2V)
        .args(["check", spec_path.to_str().unwrap()])
        .output()
        .expect("spawn v2v check");
    assert!(check.status.success());
    assert!(String::from_utf8_lossy(&check.stdout).contains("spec OK"));
}

#[test]
fn cli_rejects_bad_input() {
    let bad = Command::new(V2V)
        .args(["run", "/nonexistent/spec.json"])
        .output()
        .expect("spawn v2v run");
    assert!(!bad.status.success());

    let nonsense = Command::new(V2V)
        .args(["frobnicate"])
        .output()
        .expect("spawn v2v");
    assert!(!nonsense.status.success());
}

#[test]
fn cli_run_with_sql_database() {
    let dir = workdir();
    let video_path = dir.join("db_src.svc");
    v2v_container::write_svc(&marked_stream(120, 30), &video_path).unwrap();

    // Detection table: boxes only in the first half-second.
    let rows: Vec<serde_json::Value> = (0..60)
        .map(|i| {
            let boxes = if i < 15 {
                serde_json::json!([{"x": 0.3, "y": 0.6, "w": 0.2, "h": 0.2, "label": "zebra"}])
            } else {
                serde_json::json!([])
            };
            serde_json::json!(["cam", "yolov5m", [i, 30], boxes])
        })
        .collect();
    let db = serde_json::json!({
        "tables": [{
            "name": "video_objects",
            "columns": ["video", "model", "timestamp", "frame_objects"],
            "rows": rows,
        }]
    });
    let db_path = dir.join("tables.json");
    std::fs::write(&db_path, serde_json::to_string(&db).unwrap()).unwrap();

    let spec = SpecBuilder::new(marked_output())
        .video("src", video_path.to_string_lossy())
        .data_array(
            "dets",
            "sql:SELECT timestamp, frame_objects FROM video_objects WHERE video = 'cam'",
        )
        .append_filtered("src", r(0, 1), Rational::from_int(2), |e| {
            v2v_spec::builder::bounding_box(e, "dets")
        })
        .build();
    let spec_path = dir.join("db_spec.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();

    let out_path = dir.join("db_out.svc");
    let output = Command::new(V2V)
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "--db",
            db_path.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn v2v run --db");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("dde rewrites 1"), "{stdout}");
    let result = v2v_container::read_svc(&out_path).unwrap();
    assert_eq!(result.len(), 60);

    // Without --db, the sql: locator cannot bind.
    let no_db = Command::new(V2V)
        .args(["run", spec_path.to_str().unwrap()])
        .output()
        .expect("spawn v2v run");
    assert!(!no_db.status.success());
}

#[test]
fn cli_inspect_reports_gop_layout() {
    let dir = workdir();
    let video_path = dir.join("inspect_src.svc");
    v2v_container::write_svc(&marked_stream(120, 30), &video_path).unwrap();
    let output = Command::new(V2V)
        .args(["inspect", video_path.to_str().unwrap()])
        .output()
        .expect("spawn v2v inspect");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("frames     : 120"), "{text}");
    assert!(text.contains("gops       : 4"), "{text}");
    assert!(text.contains("min 30 / mean 30.0 / max 30"), "{text}");
    assert!(text.contains("sealed     : yes"), "{text}");
}

/// Offline store lifecycle through the binary: materialize, ls, then a
/// `run --store --variant dense` that is byte-identical to a storeless
/// run of the same spec.
#[test]
fn cli_store_materialize_ls_drop_and_run_with_variants() {
    let dir = workdir();
    let store_dir = dir.join("cli_store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let video_path = dir.join("store_src.svc");
    // Long-GOP source: the shape dense variants exist for.
    v2v_container::write_svc(&marked_stream(300, 300), &video_path).unwrap();

    let mat = Command::new(V2V)
        .args([
            "store",
            "materialize",
            "src",
            video_path.to_str().unwrap(),
            "dense",
            "--store",
            store_dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn v2v store materialize");
    assert!(
        mat.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&mat.stderr)
    );
    assert!(String::from_utf8_lossy(&mat.stdout).contains("materialized src@dense"));

    let ls = Command::new(V2V)
        .args(["store", "ls", "--store", store_dir.to_str().unwrap()])
        .output()
        .expect("spawn v2v store ls");
    assert!(ls.status.success());
    let text = String::from_utf8_lossy(&ls.stdout);
    assert!(text.contains("dense"), "{text}");
    assert!(text.contains("300 frames"), "{text}");

    // A mid-GOP filtered spec over the source.
    let spec = SpecBuilder::new(marked_output())
        .video("src", video_path.to_string_lossy())
        .append_filtered("src", r(3, 1), r(1, 1), |e| v2v_spec::builder::blur(e, 1.0))
        .build();
    let spec_path = dir.join("store_spec.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();

    let plain_out = dir.join("store_plain.svc");
    let plain = Command::new(V2V)
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "-o",
            plain_out.to_str().unwrap(),
        ])
        .output()
        .expect("spawn v2v run");
    assert!(plain.status.success());

    let variant_out = dir.join("store_variant.svc");
    let with_store = Command::new(V2V)
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "-o",
            variant_out.to_str().unwrap(),
            "--store",
            store_dir.to_str().unwrap(),
            "--variant",
            "dense",
        ])
        .output()
        .expect("spawn v2v run --store");
    assert!(
        with_store.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&with_store.stderr)
    );
    assert!(
        String::from_utf8_lossy(&with_store.stdout).contains("attached 1 variant(s)"),
        "{}",
        String::from_utf8_lossy(&with_store.stdout)
    );
    assert_eq!(
        std::fs::read(&plain_out).unwrap(),
        std::fs::read(&variant_out).unwrap(),
        "variant-served run must be byte-identical"
    );

    let drop = Command::new(V2V)
        .args([
            "store",
            "drop",
            "src",
            "dense",
            "--store",
            store_dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn v2v store drop");
    assert!(drop.status.success());
    assert!(String::from_utf8_lossy(&drop.stdout).contains("dropped src@dense"));
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn cli_frame_export() {
    let dir = workdir();
    let video_path = dir.join("frame_src.svc");
    v2v_container::write_svc(&marked_stream(60, 30), &video_path).unwrap();
    let still = dir.join("still.ppm");
    let output = Command::new(V2V)
        .args([
            "frame",
            video_path.to_str().unwrap(),
            "7/30",
            "-o",
            still.to_str().unwrap(),
        ])
        .output()
        .expect("spawn v2v frame");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let img = v2v_frame::ppm::read_ppm(&still).unwrap();
    assert_eq!((img.width(), img.height()), (64, 32));
    // The exported still shows source frame 7.
    assert_eq!(v2v_frame::marker::read(&img.to_yuv420p()), Some(7));
    // Off-grid timestamps error.
    let bad = Command::new(V2V)
        .args(["frame", video_path.to_str().unwrap(), "1/7"])
        .output()
        .expect("spawn v2v frame");
    assert!(!bad.status.success());
}

/// The exit-code table of the CLI's module doc: each failure exits by
/// its `ErrorKind`, and `--json` names the same kind and code on stderr.
/// The last table row is a daemon's refusal, classified from its error
/// body; the row after the table is a subscription the daemon ends with
/// a failure record.
#[test]
fn cli_exit_codes_follow_the_error_kind() {
    let dir = workdir();
    let (spec_path, _) = fixture("exit_codes");
    let spec_text = std::fs::read_to_string(&spec_path).unwrap();
    let mut spec = v2v_spec::Spec::from_json(&spec_text).unwrap();
    let write = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path.to_str().unwrap().to_string()
    };
    let malformed = write("exit_malformed.json", b"{\"not\": \"a spec\"");
    let garbage = write("exit_garbage.svc", b"SVC1 these bytes are not a container");
    spec.videos.insert(
        "src".into(),
        dir.join("exit_ghost.svc").to_string_lossy().into(),
    );
    let missing_video = write("exit_missing_video.json", spec.to_json().as_bytes());
    let mut spec = v2v_spec::Spec::from_json(&spec_text).unwrap();
    spec.output.gop_size = 0;
    let zero_gop = write("exit_zero_gop.json", spec.to_json().as_bytes());
    let source = dir.join("exit_codes_src.svc");
    let source = source.to_str().unwrap();
    let store = dir.join("exit_codes_store");
    let store = store.to_str().unwrap();

    // A daemon holding 2 s of `src`; a 1 s stream stamped at 0 does not
    // continue it. Its first frame past the committed source fails to
    // read, so a subscription's refresh after growth fails.
    let mut catalog = v2v_exec::Catalog::new();
    catalog.add_video("src", marked_stream(60, 30));
    let mut config = v2v_serve::ServeConfig::default();
    let fault = v2v_exec::FaultInjector::new().fail("src", 60, v2v_exec::FaultKind::Io);
    config.engine.exec.fault = Some(std::sync::Arc::new(fault));
    let daemon = v2v_serve::V2vServer::new(catalog)
        .with_config(config)
        .start("127.0.0.1:0")
        .unwrap();
    let addr = daemon.addr().to_string();
    let restart = dir.join("exit_restart.svc");
    v2v_container::write_svc(&marked_stream(30, 30), &restart).unwrap();
    let restart = restart.to_str().unwrap();

    let spec = spec_path.to_str().unwrap();
    let cases: [(&[&str], &str, i32); 8] = [
        (&["run", "/nonexistent/spec.json"], "io", 4),
        (&["run", &malformed], "invalid_request", 6),
        (&["run", &missing_video], "not_found", 5),
        (&["run", &zero_gop], "plan", 7),
        (&["info", &garbage], "corrupt_data", 3),
        (&["run", spec, "--threads", "x"], "invalid_request", 6),
        (
            &[
                "store",
                "materialize",
                "../x",
                source,
                "dense",
                "--store",
                store,
            ],
            "invalid_request",
            6,
        ),
        (
            &["append", "--to", &addr, "src", restart],
            "corrupt_data",
            3,
        ),
    ];
    let check = |args: &[&str], out: std::process::Output, kind: &str, code: i32| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        let report: serde_json::Value = serde_json::from_str(stderr.trim()).expect("json error");
        let field = |name: &str| report.get("error").and_then(|e| e.get(name)).cloned();
        assert_eq!(field("kind"), Some(kind.into()), "{args:?}: {stderr}");
        assert_eq!(field("exit_code"), Some(code.into()), "{args:?}: {stderr}");
    };
    for (args, kind, code) in cases {
        let out = Command::new(V2V)
            .args(args)
            .arg("--json")
            .output()
            .expect("spawn v2v");
        check(args, out, kind, code);
    }

    // A subscription whose refresh fails after its first delta exits by
    // the failure record's kind, not as a clean end.
    let blur_spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), r(10, 1), |e| blur(e, 1.0))
        .build();
    let blur_spec = write("exit_subscribe.json", blur_spec.to_json().as_bytes());
    let args = ["subscribe", "--to", &addr, &blur_spec, "--json"];
    let mut child = Command::new(V2V)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn v2v subscribe");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    while !line.starts_with("delta 0") {
        line.clear();
        assert_ne!(stdout.read_line(&mut line).unwrap(), 0, "no first delta");
    }
    let full = marked_stream(90, 30);
    let at = full.start() + full.frame_dur() * Rational::from_int(60);
    let tail = full.copy_packet_range(60, 90, at).unwrap();
    let tail = v2v_container::VideoStream::new(*full.params(), at, full.frame_dur(), tail).unwrap();
    let tail = v2v_container::svc_to_bytes(&tail).unwrap();
    let addr = daemon.addr();
    let append = v2v_serve::http::client::request(addr, "POST", "/append/src", &tail).unwrap();
    assert_eq!(append.status, 200);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("v2v subscribe did not exit after the failed refresh");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    check(&args, child.wait_with_output().unwrap(), "io", 4);
    let _ = std::fs::remove_dir_all(dir.join("exit_codes_store"));
}
