//! Engine-level acceptance tests for the persistent render cache: a
//! repeated query is a zero-decode whole-result hit, an overlapping
//! query splices shared segments, corrupt entries are evicted and
//! transparently re-rendered, and the byte budget is enforced with
//! run-visible evictions.

use std::sync::Arc;
use v2v_container::svc_to_bytes;
use v2v_core::{EngineConfig, V2vEngine};
use v2v_exec::{Catalog, RenderCache};
use v2v_integration_tests::{marked_output, marked_stream, temp_dir};
use v2v_spec::builder::blur;
use v2v_spec::{Spec, SpecBuilder};
use v2v_time::{r, Rational};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(300, 30));
    c
}

fn engine_with_cache(cache: &Arc<RenderCache>) -> V2vEngine {
    let config = EngineConfig {
        render_cache: Some(Arc::clone(cache)),
        ..EngineConfig::default()
    };
    V2vEngine::new(catalog()).with_config(config)
}

/// A render-heavy query: a 4 s blur (sharded across GOPs) plus a
/// stream-copied clip.
fn filtered_spec() -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), Rational::from_int(4), |e| blur(e, 1.0))
        .append_clip("src", r(6, 1), Rational::from_int(1))
        .build()
}

/// Overlaps [`filtered_spec`]: the same blur segment, but shifted to a
/// different output position behind a new leading clip. Distinct plan
/// fingerprint, shared segment keys.
fn overlapping_spec() -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(8, 1), Rational::from_int(1))
        .append_filtered("src", r(0, 1), Rational::from_int(4), |e| blur(e, 1.0))
        .build()
}

#[test]
fn repeat_query_is_a_zero_decode_result_hit() {
    let dir = temp_dir("repeat");
    let cache = Arc::new(RenderCache::open(&dir, 1 << 30).unwrap());
    let mut engine = engine_with_cache(&cache);
    let spec = filtered_spec();

    let cold = engine.run(&spec).expect("cold run");
    assert_eq!(cold.stats.cache.result_hits, 0);
    assert!(cold.stats.bytes_decoded > 0, "cold run must decode");

    let warm = engine.run(&spec).expect("warm run");
    assert_eq!(warm.stats.cache.result_hits, 1);
    assert_eq!(warm.stats.bytes_decoded, 0, "repeat must not decode");
    assert_eq!(warm.stats.frames_encoded, 0, "repeat must not encode");
    assert!(warm.stats.cache.bytes_reused > 0);
    assert_eq!(
        svc_to_bytes(&warm.output).unwrap(),
        svc_to_bytes(&cold.output).unwrap(),
        "cached result must be byte-identical"
    );

    // The entry survives a reopen (simulated process restart).
    drop(engine);
    drop(cache);
    let cache = Arc::new(RenderCache::open(&dir, 1 << 30).unwrap());
    let mut engine = engine_with_cache(&cache);
    let reopened = engine.run(&spec).expect("run after reopen");
    assert_eq!(reopened.stats.cache.result_hits, 1);
    assert_eq!(reopened.stats.bytes_decoded, 0);
    assert_eq!(
        svc_to_bytes(&reopened.output).unwrap(),
        svc_to_bytes(&cold.output).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_query_splices_shared_segments() {
    let dir = temp_dir("overlap");
    let cache = Arc::new(RenderCache::open(&dir, 1 << 30).unwrap());
    let mut engine = engine_with_cache(&cache);

    // Warm the segment cache with the first query.
    engine.run(&filtered_spec()).expect("first query");

    // The overlapping query has a different fingerprint (no result
    // hit) but shares the rendered blur segments.
    let warm = engine.run(&overlapping_spec()).expect("overlapping query");
    assert_eq!(warm.stats.cache.result_hits, 0);
    assert!(
        warm.stats.cache.segment_hits > 0,
        "shared segments must come from the cache: {:?}",
        warm.stats.cache
    );
    assert!(warm.stats.cache.bytes_reused > 0);

    // Reuse must not change a single byte: compare against a cacheless
    // engine running the same query.
    let cold = V2vEngine::new(catalog())
        .run(&overlapping_spec())
        .expect("cacheless run");
    assert_eq!(
        svc_to_bytes(&warm.output).unwrap(),
        svc_to_bytes(&cold.output).unwrap(),
        "spliced output must be byte-identical to a fresh render"
    );
    assert!(
        warm.stats.bytes_decoded < cold.stats.bytes_decoded,
        "reuse must shrink decode work ({} vs {})",
        warm.stats.bytes_decoded,
        cold.stats.bytes_decoded
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_result_entry_is_evicted_and_rerendered() {
    let dir = temp_dir("corrupt");
    let cache = Arc::new(RenderCache::open(&dir, 1 << 30).unwrap());
    let mut engine = engine_with_cache(&cache);
    let spec = filtered_spec();

    let cold = engine.run(&spec).expect("cold run");
    let baseline = svc_to_bytes(&cold.output).unwrap();

    // Flip a byte in the stored whole-result entry's packet table.
    let result_file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("res-"))
        })
        .expect("whole-result entry on disk");
    let mut bytes = std::fs::read(&result_file).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&result_file, &bytes).unwrap();

    // The corrupt entry must be evicted and the query transparently
    // re-rendered, byte-identical to the original.
    let evictions_before = cache.evictions();
    let rerun = engine.run(&spec).expect("run over corrupt entry");
    assert_eq!(rerun.stats.cache.result_hits, 0, "corrupt entry must miss");
    assert!(
        cache.evictions() > evictions_before,
        "corrupt entry evicted"
    );
    assert_eq!(svc_to_bytes(&rerun.output).unwrap(), baseline);
    // The re-render re-stored the slot: the file on disk is no longer
    // the corrupted bytes.
    assert_ne!(
        std::fs::read(&result_file).unwrap(),
        bytes,
        "entry replaced"
    );

    // The re-render repopulated the slot: the next run hits again.
    let warm = engine.run(&spec).expect("run after repair");
    assert_eq!(warm.stats.cache.result_hits, 1);
    assert_eq!(svc_to_bytes(&warm.output).unwrap(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byte_budget_forces_run_visible_evictions() {
    // Size the budget from a dry run so it holds one query's entries
    // with a little headroom but not two queries' worth.
    let probe_dir = temp_dir("budget_probe");
    let probe = Arc::new(RenderCache::open(&probe_dir, 1 << 30).unwrap());
    engine_with_cache(&probe).run(&filtered_spec()).unwrap();
    let one_query = probe.bytes_held();
    assert!(one_query > 0);
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_dir);

    let dir = temp_dir("budget");
    let budget = one_query + one_query / 2;
    let cache = Arc::new(RenderCache::open(&dir, budget).unwrap());
    let mut engine = engine_with_cache(&cache);
    engine.run(&filtered_spec()).expect("first query");

    // A second, distinct render-heavy query overflows the budget; its
    // stores evict the first query's entries mid-run.
    let second = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(4, 1), Rational::from_int(4), |e| blur(e, 2.0))
        .build();
    let report = engine.run(&second).expect("second query");
    assert!(
        report.stats.cache.evictions > 0,
        "budget pressure must surface as run-visible evictions: {:?}",
        report.stats.cache
    );
    assert!(cache.bytes_held() <= budget, "budget invariant holds");
    let _ = std::fs::remove_dir_all(&dir);
}
