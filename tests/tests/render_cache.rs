//! Engine-level acceptance tests for the persistent render cache: a
//! repeated query is a zero-decode all-segment hit, an overlapping
//! query splices shared segments, corrupt entries are evicted and
//! transparently re-rendered, a directory holding whole-result entries
//! from an older build still answers, and the byte budget is enforced
//! with run-visible evictions.

use std::sync::Arc;
use v2v_container::{svc_to_bytes, Fragment, VideoStream};
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

/// The number of keyed render segments in `spec`'s plan: what a
/// repeat must splice from the cache.
fn keyed_segments(engine: &mut V2vEngine, spec: &Spec) -> u64 {
    let prepared = engine.prepare(spec).expect("prepare");
    prepared.segment_keys().iter().flatten().count() as u64
}

/// The canonical plan fingerprint of `spec` over [`catalog`]: the key
/// an older build stored a whole result under.
fn fingerprint(spec: &Spec) -> u64 {
    let catalog = catalog();
    let logical = v2v_plan::lower_spec(spec).expect("lower");
    let cfg = v2v_plan::OptimizerConfig::default();
    let plan = v2v_plan::optimize(&logical, catalog.plan_context(), &cfg).expect("optimize");
    let mut digests = v2v_plan::SourceDigests::default();
    let src = catalog.video("src").expect("bound");
    digests
        .videos
        .insert("src".into(), v2v_plan::VideoDigest::of(src));
    v2v_plan::plan_fingerprint(&plan, &digests)
}

/// The cache's entry files whose names start with `prefix`.
fn entry_files(dir: &std::path::Path, prefix: &str) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn repeat_query_is_an_all_segment_hit() {
    let dir = temp_dir("repeat");
    let cache = Arc::new(RenderCache::open(&dir, 1 << 30).unwrap());
    let mut engine = engine_with_cache(&cache);
    let spec = filtered_spec();
    let keyed = keyed_segments(&mut engine, &spec);
    assert!(keyed > 1, "the blur shards into several keyed segments");

    let cold = engine.run(&spec).expect("cold run");
    assert_eq!(cold.stats.cache.segment_hits, 0);
    assert!(cold.stats.bytes_decoded > 0, "cold run must decode");
    assert!(
        entry_files(&dir, "res-").is_empty(),
        "no whole result stored"
    );

    let warm = engine.run(&spec).expect("warm run");
    assert_eq!(warm.stats.cache.segment_hits, keyed);
    assert_eq!(warm.stats.frames_decoded, 0, "repeat must not decode");
    assert_eq!(warm.stats.bytes_decoded, 0, "repeat must not decode");
    assert_eq!(warm.stats.frames_encoded, 0, "repeat must not encode");
    assert!(warm.stats.cache.bytes_reused > 0);
    assert_eq!(
        svc_to_bytes(&warm.output).unwrap(),
        svc_to_bytes(&cold.output).unwrap(),
        "cached result must be byte-identical"
    );

    // The entries survive a reopen (simulated process restart).
    drop(engine);
    drop(cache);
    let cache = Arc::new(RenderCache::open(&dir, 1 << 30).unwrap());
    let mut engine = engine_with_cache(&cache);
    let reopened = engine.run(&spec).expect("run after reopen");
    assert_eq!(reopened.stats.cache.segment_hits, keyed);
    assert_eq!(reopened.stats.frames_decoded, 0);
    assert_eq!(reopened.stats.bytes_decoded, 0);
    assert_eq!(reopened.stats.frames_encoded, 0);
    assert_eq!(
        svc_to_bytes(&reopened.output).unwrap(),
        svc_to_bytes(&cold.output).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory an older build wrote holds a whole-result (`res-`) entry
/// beside the query's segment entries. It still answers the query from
/// its segments, and the never-touched `res-` entry is the first LRU
/// victim once the budget forces an eviction.
#[test]
fn a_directory_with_a_whole_result_entry_still_answers() {
    let dir = temp_dir("old_dir");
    let spec = filtered_spec();
    let truth = svc_to_bytes(&V2vEngine::new(catalog()).run(&spec).unwrap().output).unwrap();
    let held = {
        let cache = Arc::new(RenderCache::open(&dir, 1 << 30).unwrap());
        let mut engine = engine_with_cache(&cache);
        let cold = engine.run(&spec).expect("cold run stores the segments");
        cache
            .store_result(fingerprint(&spec), &cold.output)
            .unwrap();
        cache.bytes_held()
    };
    let res = entry_files(&dir, "res-");
    let segs = entry_files(&dir, "seg-");
    assert_eq!(res.len(), 1);
    assert!(!segs.is_empty());

    // Everything fits exactly: open indexes the `res-` entry too.
    let cache = Arc::new(RenderCache::open(&dir, held).unwrap());
    assert_eq!(cache.entries(), segs.len() + 1);
    let mut engine = engine_with_cache(&cache);
    let keyed = keyed_segments(&mut engine, &spec);
    let run = engine.run(&spec).expect("run over the old directory");
    assert_eq!(run.stats.cache.segment_hits, keyed);
    assert_eq!(run.stats.cache.result_hits, 0);
    assert_eq!(run.stats.frames_decoded, 0);
    assert_eq!(run.stats.frames_encoded, 0);
    assert_eq!(svc_to_bytes(&run.output).unwrap(), truth);

    // One new entry smaller than the whole result forces exactly one
    // eviction: the `res-` entry, which nothing touched since open.
    let extra = Fragment::from_stream(&marked_stream(30, 30));
    cache.store_segment(0x5eed, &extra).unwrap();
    assert_eq!(cache.evictions(), 1);
    assert!(!res[0].exists(), "the whole-result entry goes first");
    assert!(segs.iter().all(|p| p.exists()), "every segment stays");
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
fn corrupt_segment_entry_is_evicted_and_rerendered() {
    let dir = temp_dir("corrupt");
    let cache = Arc::new(RenderCache::open(&dir, 1 << 30).unwrap());
    let mut engine = engine_with_cache(&cache);
    let spec = filtered_spec();
    let keyed = keyed_segments(&mut engine, &spec);

    let cold = engine.run(&spec).expect("cold run");
    let baseline = svc_to_bytes(&cold.output).unwrap();

    // Flip a byte in one stored segment entry's packet table.
    let segment_file = entry_files(&dir, "seg-")
        .into_iter()
        .next()
        .expect("segment entry on disk");
    let mut bytes = std::fs::read(&segment_file).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&segment_file, &bytes).unwrap();

    // The corrupt entry must be evicted and its segment transparently
    // re-rendered, byte-identical to the original.
    let evictions_before = cache.evictions();
    let rerun = engine.run(&spec).expect("run over corrupt entry");
    assert_eq!(
        rerun.stats.cache.segment_hits,
        keyed - 1,
        "corrupt entry must miss"
    );
    assert!(rerun.stats.frames_encoded > 0, "the missed segment renders");
    assert!(
        cache.evictions() > evictions_before,
        "corrupt entry evicted"
    );
    assert_eq!(svc_to_bytes(&rerun.output).unwrap(), baseline);
    // The re-render re-stored the slot: the file on disk is no longer
    // the corrupted bytes.
    assert_ne!(
        std::fs::read(&segment_file).unwrap(),
        bytes,
        "entry replaced"
    );

    // The re-render repopulated the slot: the next run hits every
    // segment again.
    let warm = engine.run(&spec).expect("run after repair");
    assert_eq!(warm.stats.cache.segment_hits, keyed);
    assert_eq!(warm.stats.frames_encoded, 0);
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

/// A sliding tail window over a live source: once the source grows by
/// one whole GOP, the window's shards are the source's GOPs, so the two
/// it shares with the previous tail query come from the cache and only
/// the newest GOP is encoded.
#[test]
fn sliding_tail_window_reuses_its_full_gop_shards() {
    let history = marked_stream(300, 30);
    let span = |from: usize, to: usize| {
        let at = history.start() + history.frame_dur() * Rational::from_int(from as i64);
        let packets = history.copy_packet_range(from, to, at).unwrap();
        VideoStream::new(*history.params(), at, history.frame_dur(), packets).unwrap()
    };
    // Blur over the last 3 s of a source `frames` long.
    let tail_spec = |frames: usize| {
        SpecBuilder::new(marked_output())
            .video("src", "src.svc")
            .append_filtered("src", r(frames as i64 - 90, 30), r(3, 1), |e| blur(e, 1.0))
            .build()
    };
    let with_source = |stream: VideoStream| {
        let mut c = Catalog::new();
        c.add_video("src", stream);
        c
    };

    let dir = temp_dir("sliding-tail");
    let config = EngineConfig {
        render_cache: Some(Arc::new(RenderCache::open(&dir, 1 << 30).unwrap())),
        ..EngineConfig::default()
    };
    let mut engine = V2vEngine::new(with_source(span(0, 240))).with_config(config);
    let first = engine.run(&tail_spec(240)).expect("first tail query");
    assert_eq!(first.stats.cache.segment_hits, 0);
    assert_eq!(first.stats.frames_encoded, 90);

    // Append one GOP the way `/append` splices it onto the bound stream.
    let old = Arc::clone(engine.catalog().video("src").expect("bound"));
    let grown = VideoStream::concat(&[old.as_ref(), &span(240, 270)]).unwrap();
    engine.catalog_mut().add_video("src", grown);
    let second = engine.run(&tail_spec(270)).expect("second tail query");
    assert_eq!(second.stats.cache.segment_hits, 2);
    assert_eq!(second.stats.frames_encoded, 30);

    let cold = V2vEngine::new(with_source(span(0, 270)))
        .run(&tail_spec(270))
        .expect("cache-less run");
    assert_eq!(
        svc_to_bytes(&second.output).unwrap(),
        svc_to_bytes(&cold.output).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
