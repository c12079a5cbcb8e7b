//! CI metrics-snapshot job: golden-trace checks over example queries.
//!
//! Drives the built `v2v` binary over four deterministic example queries
//! (Q1–Q4: aligned clip, mid-GOP clip, splice, filtered render) with
//! `--trace`, reduces each trace artifact to its *stable* subset —
//! schema version, rewrites fired, per-operator frames
//! decoded/copied/encoded, per-segment GOP-cache hits/misses — and
//! diffs it against committed goldens under `crates/cli/tests/golden/`. Wall
//! times, spans, part counts, and byte counts are excluded: they are
//! machine- or codec-tuning-dependent.
//!
//! The runs use the *parallel* scheduler deliberately: the shared GOP
//! cache decodes each GOP exactly once and attributes every hit/miss to
//! exactly one cursor, so per-segment counts are schedule-independent
//! for these queries (their segments read disjoint GOP sets). This job
//! is what pins that invariant; it used to require `--serial`.
//!
//! Regenerate goldens after an intentional optimizer/executor change:
//!
//! ```text
//! V2V_UPDATE_GOLDENS=1 cargo test --release -p v2v-cli --test metrics_snapshot
//! ```
//!
//! When `V2V_TRACE_OUT_DIR` is set, full trace artifacts are copied
//! there (CI uploads them as workflow artifacts).

use std::path::PathBuf;
use std::process::Command;
use v2v_integration_tests::{marked_output, marked_stream};
use v2v_spec::builder::blur;
use v2v_spec::{Spec, SpecBuilder};
use v2v_time::{r, Rational};

/// The `v2v` binary of this tree: Cargo builds it before running these
/// tests.
const V2V: &str = env!("CARGO_BIN_EXE_v2v");

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join("v2v_metrics_snapshot");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The example queries: `(name, spec)` against one 300-frame gop-30
/// marked source. Each exercises a different rewrite mix.
fn example_queries(video_path: &str) -> Vec<(&'static str, Spec)> {
    let src = |b: SpecBuilder| b.video("src", video_path);
    vec![
        // Q1: keyframe-aligned clip → pure stream copy.
        (
            "q1_aligned_clip",
            src(SpecBuilder::new(marked_output()))
                .append_clip("src", r(1, 1), Rational::from_int(2))
                .build(),
        ),
        // Q2: mid-GOP clip → smart cut (re-encoded head, copied rest).
        (
            "q2_smart_cut",
            src(SpecBuilder::new(marked_output()))
                .append_clip("src", r(1, 2), Rational::from_int(2))
                .build(),
        ),
        // Q3: splice of two aligned clips → concat flatten + two copies.
        (
            "q3_splice",
            src(SpecBuilder::new(marked_output()))
                .append_clip("src", r(1, 1), Rational::from_int(1))
                .append_clip("src", r(3, 1), Rational::from_int(1))
                .build(),
        ),
        // Q4: filtered clip → fused render, temporally sharded.
        (
            "q4_filtered",
            src(SpecBuilder::new(marked_output()))
                .append_filtered("src", r(0, 1), Rational::from_int(4), |e| blur(e, 1.0))
                .build(),
        ),
    ]
}

/// Field lookup that panics with the path on a malformed trace.
fn g<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.get(key)
        .unwrap_or_else(|| panic!("trace missing field '{key}'"))
}

/// Reduces a full `RunTrace` JSON document to the machine-independent
/// subset the goldens pin.
fn stable_subset(trace: &serde_json::Value) -> serde_json::Value {
    let rewrites = g(g(trace, "rewrites"), "events")
        .as_array()
        .expect("events array")
        .iter()
        .map(|e| {
            serde_json::json!({
                "rule": g(e, "rule"),
                "out_start": g(e, "out_start"),
                "nodes_before": g(e, "nodes_before"),
                "nodes_after": g(e, "nodes_after"),
            })
        })
        .collect::<Vec<_>>();
    let seg_subset = |s: &serde_json::Value| {
        let stats = g(s, "stats");
        serde_json::json!({
            "kind": g(s, "kind"),
            "out_start": g(s, "out_start"),
            "frames": g(s, "frames"),
            "frames_decoded": g(stats, "frames_decoded"),
            "frames_encoded": g(stats, "frames_encoded"),
            "packets_copied": g(stats, "packets_copied"),
            "seeks": g(stats, "seeks"),
            "gop_cache_hits": g(stats, "gop_cache_hits"),
            "gop_cache_misses": g(stats, "gop_cache_misses"),
        })
    };
    let segments = g(g(trace, "exec"), "segments")
        .as_array()
        .expect("segments array")
        .iter()
        .map(seg_subset)
        .collect::<Vec<_>>();
    let totals = g(g(trace, "exec"), "totals");
    let cache = g(totals, "cache");
    serde_json::json!({
        "schema_version": g(trace, "schema_version"),
        "dde_rewrites": g(trace, "dde_rewrites"),
        "rewrites": rewrites,
        "plan_stats": g(trace, "plan_stats"),
        "segments": segments,
        "totals": {
            "frames_decoded": g(totals, "frames_decoded"),
            "frames_encoded": g(totals, "frames_encoded"),
            "packets_copied": g(totals, "packets_copied"),
            "seeks": g(totals, "seeks"),
            "segments": g(totals, "segments"),
            "gop_cache_hits": g(totals, "gop_cache_hits"),
            "gop_cache_misses": g(totals, "gop_cache_misses"),
            // The render-cache counter block: these runs are uncached,
            // so the goldens pin the fields (schema) at zero rather
            // than measured reuse.
            "cache": {
                "result_hits": g(cache, "result_hits"),
                "segment_hits": g(cache, "segment_hits"),
                "shared_segment_hits": g(cache, "shared_segment_hits"),
                "mem_hits": g(cache, "mem_hits"),
                "evictions": g(cache, "evictions"),
            },
        },
    })
}

#[test]
fn traces_match_committed_goldens() {
    let update = std::env::var("V2V_UPDATE_GOLDENS").is_ok();
    let artifact_dir = std::env::var("V2V_TRACE_OUT_DIR").ok().map(PathBuf::from);
    if let Some(dir) = &artifact_dir {
        std::fs::create_dir_all(dir).expect("artifact dir");
    }

    let dir = workdir();
    let video_path = dir.join("src.svc");
    v2v_container::write_svc(&marked_stream(300, 30), &video_path).unwrap();

    let mut failures = Vec::new();
    for (name, spec) in example_queries(&video_path.to_string_lossy()) {
        let spec_path = dir.join(format!("{name}.json"));
        std::fs::write(&spec_path, spec.to_json()).unwrap();
        let out_path = dir.join(format!("{name}.svc"));
        let trace_path = dir.join(format!("{name}.trace.json"));
        let output = Command::new(V2V)
            .args([
                "run",
                spec_path.to_str().unwrap(),
                "-o",
                out_path.to_str().unwrap(),
                "--trace",
                trace_path.to_str().unwrap(),
            ])
            .output()
            .expect("spawn v2v run --trace");
        assert!(
            output.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&output.stderr)
        );

        let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
        if let Some(adir) = &artifact_dir {
            std::fs::copy(&trace_path, adir.join(format!("{name}.trace.json"))).unwrap();
        }
        let trace: serde_json::Value = serde_json::from_str(&trace_text).expect("trace parses");
        let subset = stable_subset(&trace);
        let subset_pretty = serde_json::to_string_pretty(&subset).unwrap();

        let golden_path = golden_dir().join(format!("{name}.trace.json"));
        if update {
            std::fs::write(&golden_path, format!("{subset_pretty}\n")).unwrap();
            eprintln!("updated {}", golden_path.display());
            continue;
        }
        let golden_text = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden {} ({e}); regenerate with V2V_UPDATE_GOLDENS=1",
                golden_path.display()
            )
        });
        let golden: serde_json::Value = serde_json::from_str(&golden_text).expect("golden parses");
        if subset != golden {
            failures.push(format!(
                "{name}: trace drifted from golden {}\n--- measured ---\n{subset_pretty}\n--- golden ---\n{}",
                golden_path.display(),
                serde_json::to_string_pretty(&golden).unwrap()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn golden_rewrites_cover_the_rule_set() {
    // Sanity on the committed goldens themselves (no binary needed):
    // together the four example queries must exercise the core rewrite
    // rules, or the snapshot job is pinning a trivial trace.
    let mut fired = std::collections::BTreeSet::new();
    let mut missing = Vec::new();
    for name in [
        "q1_aligned_clip",
        "q2_smart_cut",
        "q3_splice",
        "q4_filtered",
    ] {
        let path = golden_dir().join(format!("{name}.trace.json"));
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let v: serde_json::Value = serde_json::from_str(&text).expect("golden parses");
                for e in g(&v, "rewrites").as_array().expect("rewrites array") {
                    fired.insert(g(e, "rule").as_str().expect("rule string").to_string());
                }
            }
            Err(_) => missing.push(path.display().to_string()),
        }
    }
    assert!(
        missing.is_empty(),
        "goldens not committed: {missing:?} (run with V2V_UPDATE_GOLDENS=1)"
    );
    for rule in ["stream_copy", "smart_cut", "shard"] {
        assert!(
            fired.contains(rule),
            "no golden exercises '{rule}': {fired:?}"
        );
    }
}
