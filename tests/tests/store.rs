//! Adaptive physical storage acceptance: pixel-identical variants
//! decode frame-for-frame identical to their originals, the planner's
//! variant choice never changes a single output byte across smart-cut,
//! scan, splice, and preview query shapes, dense variants provably cut
//! decode work on smart-cut-heavy queries, live appends after a
//! materialization stay byte-identical through `/subscribe`, and the
//! daemon's compactor evicts over-budget variants.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use v2v_container::{svc_to_bytes, VideoStream};
use v2v_core::{EngineConfig, V2vEngine};
use v2v_exec::{Catalog, ExecStats};
use v2v_frame::{marker, Frame, FrameType};
use v2v_integration_tests::{marked_output, marked_stream, temp_dir};
use v2v_plan::{VariantKind, VariantPolicy};
use v2v_serve::http::client;
use v2v_serve::sub::{read_delta, DeltaApplier};
use v2v_serve::{ServeConfig, StoreServeConfig, V2vServer};
use v2v_spec::builder::blur;
use v2v_spec::{OutputSettings, Spec, SpecBuilder};
use v2v_store::{transcode, TranscodeSpec};
use v2v_time::{r, Rational};

/// A long-GOP source: 300 frames, one keyframe. The worst case for
/// mid-GOP reads and the best case for sequential scans.
const LONG_GOP_FRAMES: usize = 300;
const LONG_GOP: u32 = 300;

/// Catalog holding the long-GOP source with dense and archive variants
/// attached (transcoded in memory — the store's disk path is covered by
/// its own tests and the serve suite).
fn catalog_with_variants() -> Catalog {
    let original = marked_stream(LONG_GOP_FRAMES, LONG_GOP);
    let mut c = Catalog::new();
    for kind in [VariantKind::Dense, VariantKind::Archive] {
        let variant = transcode(&original, TranscodeSpec::for_kind(kind)).unwrap();
        let covered = variant.len() as u64;
        c.add_variant("src", kind, Arc::new(variant), covered);
    }
    c.add_video("src", original);
    c
}

fn run_with(catalog: &Catalog, spec: &Spec, policy: VariantPolicy) -> (Vec<u8>, ExecStats) {
    let config = EngineConfig {
        variants: policy,
        ..EngineConfig::default()
    };
    let mut engine = V2vEngine::new(catalog.clone()).with_config(config);
    let report = engine.run(spec).expect("run");
    (svc_to_bytes(&report.output).unwrap(), report.stats)
}

/// A 1-second filtered read starting mid-GOP: the smart-cut shape.
fn smart_cut_spec() -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(3, 1), r(1, 1), |e| blur(e, 1.0))
        .build()
}

/// The whole source through a filter: the scan shape.
fn scan_spec() -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), r(10, 1), |e| blur(e, 1.0))
        .build()
}

/// A mid-GOP copy splice: render head, copied tail.
fn splice_spec() -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(3, 1), Rational::from_int(2))
        .build()
}

#[test]
fn forced_variants_are_byte_identical_across_query_shapes() {
    let catalog = catalog_with_variants();
    for (name, spec) in [
        ("smart_cut", smart_cut_spec()),
        ("scan", scan_spec()),
        ("splice", splice_spec()),
    ] {
        let (baseline, _) = run_with(&catalog, &spec, VariantPolicy::Disabled);
        for policy in [
            VariantPolicy::Auto,
            VariantPolicy::Force(VariantKind::Dense),
            VariantPolicy::Force(VariantKind::Archive),
        ] {
            let (bytes, _) = run_with(&catalog, &spec, policy);
            assert_eq!(
                bytes, baseline,
                "{name} under {policy:?} must be byte-identical to the variant-free run"
            );
        }
    }
}

#[test]
fn dense_variant_cuts_decode_work_on_smart_cuts() {
    let catalog = catalog_with_variants();
    let spec = smart_cut_spec();
    let (baseline_bytes, baseline) = run_with(&catalog, &spec, VariantPolicy::Disabled);
    let (dense_bytes, dense) = run_with(&catalog, &spec, VariantPolicy::Force(VariantKind::Dense));
    assert_eq!(dense_bytes, baseline_bytes);
    // Original: roll in from the single keyframe at 0 (90 frames of
    // roll-in for a 30-frame read). Dense: keyframes every ~37 frames.
    assert!(
        dense.frames_decoded < baseline.frames_decoded,
        "dense {} vs original {}",
        dense.frames_decoded,
        baseline.frames_decoded
    );
    assert!(
        dense.bytes_decoded < baseline.bytes_decoded,
        "dense {} vs original {}",
        dense.bytes_decoded,
        baseline.bytes_decoded
    );
    // And the cost model agrees without forcing.
    let (auto_bytes, auto) = run_with(&catalog, &spec, VariantPolicy::Auto);
    assert_eq!(auto_bytes, baseline_bytes);
    assert_eq!(auto.frames_decoded, dense.frames_decoded);
}

#[test]
fn proxy_serves_preview_queries_byte_identically() {
    let original = marked_stream(120, 30);
    let proxy = transcode(&original, TranscodeSpec::for_kind(VariantKind::Proxy)).unwrap();
    assert_eq!(proxy.params().frame_ty, FrameType::gray8(32, 16));
    let covered = proxy.len() as u64;
    let mut catalog = Catalog::new();
    catalog.add_variant("src", VariantKind::Proxy, Arc::new(proxy), covered);
    catalog.add_video("src", original);

    // A preview query: output at the proxy's geometry.
    let output = OutputSettings {
        frame_ty: FrameType::gray8(32, 16),
        frame_dur: r(1, 30),
        gop_size: 30,
        quantizer: 0,
    };
    let spec = SpecBuilder::new(output)
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), r(2, 1), |e| blur(e, 1.0))
        .build();
    let (baseline, base_stats) = run_with(&catalog, &spec, VariantPolicy::Disabled);
    let (bytes, stats) = run_with(&catalog, &spec, VariantPolicy::Force(VariantKind::Proxy));
    assert_eq!(
        bytes, baseline,
        "proxy-served preview must be byte-identical"
    );
    assert!(
        stats.bytes_decoded < base_stats.bytes_decoded,
        "proxy {} vs original {}",
        stats.bytes_decoded,
        base_stats.bytes_decoded
    );

    // At full output geometry the proxy is NOT decode-sufficient and
    // must never be chosen, even when forced.
    let full = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), r(2, 1), |e| blur(e, 1.0))
        .build();
    let (base_full, _) = run_with(&catalog, &full, VariantPolicy::Disabled);
    let (forced_full, _) = run_with(&catalog, &full, VariantPolicy::Force(VariantKind::Proxy));
    assert_eq!(forced_full, base_full);
}

/// A stream whose frames carry markers plus seeded pseudo-random
/// content, so transcode equivalence is exercised on non-trivial
/// bitstreams, not just black frames.
fn noisy_stream(n: usize, gop: u32, seed: u64) -> VideoStream {
    let ty = FrameType::gray8(64, 32);
    let params = v2v_codec::CodecParams::new(ty, gop, 0);
    let mut w = v2v_container::StreamWriter::new(params, Rational::ZERO, r(1, 30));
    let mut state = seed | 1;
    for i in 0..n {
        let mut f = Frame::black(ty);
        for p in f.planes_mut() {
            for b in p.data_mut() {
                // xorshift64: cheap deterministic noise.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = (state >> 24) as u8;
            }
        }
        marker::embed(&mut f, i as u32);
        w.push_frame(&f).unwrap();
    }
    w.finish().unwrap()
}

fn frames_of(s: &VideoStream) -> Vec<Vec<u8>> {
    let (frames, _) = s.decode_range(0, s.len()).unwrap();
    frames
        .iter()
        .map(|f| {
            f.planes()
                .iter()
                .flat_map(|p| p.data().iter().copied())
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pixel-identical variants decode frame-for-frame identical to the
    /// original, for arbitrary content and GOP cadences.
    #[test]
    fn prop_pixel_identical_variants_decode_identically(
        n in 8usize..48,
        gop in 2u32..16,
        seed in any::<u64>(),
    ) {
        let original = noisy_stream(n, gop, seed);
        let truth = frames_of(&original);
        for kind in [VariantKind::Dense, VariantKind::Archive] {
            let variant = transcode(&original, TranscodeSpec::for_kind(kind)).unwrap();
            prop_assert_eq!(variant.len(), original.len());
            prop_assert_eq!(
                &frames_of(&variant),
                &truth,
                "{} must decode identically",
                kind.name()
            );
        }
    }
}

/// The live history for the append regression: 150 frames delivered as
/// a 120-frame prefix plus one appended installment.
fn live_prefix(n: usize) -> VideoStream {
    let s = marked_stream(150, 30);
    let packets = s.copy_packet_range(0, n, s.start()).unwrap();
    VideoStream::new(*s.params(), s.start(), s.frame_dur(), packets).unwrap()
}

fn installment(from: usize, to: usize) -> Vec<u8> {
    let s = marked_stream(150, 30);
    let at = s.start() + s.frame_dur() * Rational::from_int(from as i64);
    let packets = s.copy_packet_range(from, to, at).unwrap();
    let tail = VideoStream::new(*s.params(), at, s.frame_dur(), packets).unwrap();
    svc_to_bytes(&tail).unwrap()
}

fn growth_spec() -> Spec {
    SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), r(10, 1), |e| blur(e, 1.0))
        .build()
}

/// Ground truth at a given source length, with no store anywhere.
fn direct_bytes(frames: usize) -> Vec<u8> {
    let spec = growth_spec();
    let mut c = Catalog::new();
    c.add_video("src", live_prefix(frames));
    let mut engine = V2vEngine::new(c);
    engine.bind(&spec).expect("bind");
    let mut clamped = spec.clone();
    clamped.time_domain = v2v_spec::servable_domain(&spec, &engine.catalog().source_infos());
    let report = engine.run(&clamped).expect("direct run");
    svc_to_bytes(&report.output).unwrap()
}

/// The live-source regression: a variant materialized over the
/// committed prefix must keep `/subscribe` byte-identical across later
/// appends — the variant covers the old prefix, the original serves the
/// appended tail.
#[test]
fn append_after_materialize_keeps_subscribe_byte_identical() {
    let dir = temp_dir("append");
    let mut catalog = Catalog::new();
    catalog.add_video("src", live_prefix(120));
    let config = ServeConfig {
        store: Some(StoreServeConfig::at(&dir)),
        ..ServeConfig::default()
    };
    let mut handle = V2vServer::new(catalog)
        .with_config(config)
        .start("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();

    // Materialize dense over the 120-frame committed prefix.
    let resp = client::request(addr, "POST", "/store/materialize/src/dense", b"").unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
    assert_eq!(v.get("covered_frames").and_then(|x| x.as_u64()), Some(120));

    let mut resp = client::open_stream(
        addr,
        "POST",
        "/subscribe",
        growth_spec().to_json().as_bytes(),
    )
    .expect("subscribe");
    assert_eq!(resp.status, 200);
    resp.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let mut applier = DeltaApplier::new();
    let (h0, svc0) = read_delta(&mut resp.reader).unwrap().expect("first delta");
    let cum = applier.apply(&h0, &svc0).unwrap();
    assert_eq!(cum.len(), 120);
    assert_eq!(
        svc_to_bytes(cum).unwrap(),
        direct_bytes(120),
        "prefix render over the dense variant must match a storeless cold run"
    );

    // Append the tail the variant does not cover.
    let append = client::request(addr, "POST", "/append/src", &installment(120, 150)).unwrap();
    assert_eq!(
        append.status,
        200,
        "{}",
        String::from_utf8_lossy(&append.body)
    );

    let (h1, svc1) = read_delta(&mut resp.reader).unwrap().expect("second delta");
    let cum = applier.apply(&h1, &svc1).unwrap();
    assert_eq!(cum.len(), 150);
    assert_eq!(
        svc_to_bytes(cum).unwrap(),
        direct_bytes(150),
        "post-append delta must stay byte-identical: variant covers the old prefix only"
    );

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Budget enforcement end to end: a demanded-but-over-budget variant is
/// evicted by the compaction pass.
#[test]
fn compaction_evicts_over_budget_variants() {
    let dir = temp_dir("budget");
    let mut catalog = Catalog::new();
    catalog.add_video("src", marked_stream(LONG_GOP_FRAMES, LONG_GOP));
    let config = ServeConfig {
        store: Some(StoreServeConfig {
            root: dir.clone(),
            budget_bytes: 1, // nothing fits
            compact_interval: Duration::ZERO,
        }),
        ..ServeConfig::default()
    };
    let handle = V2vServer::new(catalog)
        .with_config(config)
        .start("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();

    // Create smart-cut demand so the drop is the budget's doing, not
    // the wanted-filter's.
    let spec = smart_cut_spec();
    let q = client::post_query(addr, spec.to_json().as_bytes()).unwrap();
    assert_eq!(q.status, 200, "{}", String::from_utf8_lossy(&q.body));

    let resp = client::request(addr, "POST", "/store/materialize/src/dense", b"").unwrap();
    assert_eq!(resp.status, 200);
    let resp = client::request(addr, "POST", "/store/compact", b"").unwrap();
    assert_eq!(resp.status, 200);
    let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
    let actions = v
        .get("actions")
        .and_then(|a| a.as_array())
        .cloned()
        .unwrap();
    assert!(
        actions.iter().any(|a| {
            a.get("kind").and_then(|k| k.as_str()) == Some("dense")
                && a.get("op").and_then(|o| o.as_str()) == Some("drop")
        }),
        "over-budget dense variant must be evicted: {v}"
    );

    let ls = client::request(addr, "GET", "/store", b"").unwrap();
    let v: serde_json::Value = serde_json::from_slice(&ls.body).unwrap();
    assert_eq!(v.get("managed_bytes").and_then(|x| x.as_u64()), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
