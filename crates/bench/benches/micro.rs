//! Criterion micro-benchmarks for the substrate layers: rational/time-set
//! algebra, codec throughput, planning latency, and the data-dependent
//! rewriter. These back the "optimizer overhead is negligible next to
//! raster work" claim with numbers.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use v2v_codec::{Decoder, Encoder};
use v2v_datasets::{detections, kabr_sim, render_frame, DetectionProfile, Scale};
use v2v_exec::Catalog;
use v2v_frame::FrameType;
use v2v_plan::{lower_spec, optimize, OptimizerConfig};
use v2v_spec::builder::{blur, bounding_box};
use v2v_spec::SpecBuilder;
use v2v_time::{r, Rational, TimeRange, TimeSet};

fn bench_rational(c: &mut Criterion) {
    let mut g = c.benchmark_group("rational");
    g.bench_function("add", |b| {
        let x = r(30000, 1001);
        let y = r(1, 24);
        b.iter(|| black_box(black_box(x) + black_box(y)));
    });
    g.bench_function("cmp", |b| {
        let x = r(30000, 1001);
        let y = r(2997, 100);
        b.iter(|| black_box(black_box(x).cmp(&black_box(y))));
    });
    g.finish();
}

fn bench_timeset(c: &mut Criterion) {
    let mut g = c.benchmark_group("timeset");
    let a = TimeSet::from_range(TimeRange::new(r(0, 1), r(600, 1), r(1, 30)));
    let b = TimeSet::from_range(TimeRange::new(r(100, 1), r(400, 1), r(1, 30)));
    g.bench_function("intersect_18k", |bch| {
        bch.iter(|| black_box(black_box(&a).intersect(black_box(&b))));
    });
    g.bench_function("difference_18k", |bch| {
        bch.iter(|| black_box(black_box(&a).difference(black_box(&b))));
    });
    g.bench_function("subset_18k", |bch| {
        bch.iter(|| black_box(black_box(&b).is_subset_of(black_box(&a))));
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let spec = kabr_sim(Scale::Bench, 2);
    let params = spec.codec_params();
    let frames: Vec<_> = (0..16).map(|i| render_frame(&spec, i)).collect();
    let pixels = (spec.width * spec.height) as u64 * frames.len() as u64;

    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Elements(pixels));
    g.bench_function("encode_320x180_gop", |b| {
        b.iter_batched(
            || Encoder::new(params),
            |mut enc| {
                for (i, f) in frames.iter().enumerate() {
                    black_box(enc.encode(f, Rational::new(i as i64, 30)).unwrap());
                }
            },
            BatchSize::SmallInput,
        );
    });
    let packets: Vec<_> = {
        let mut enc = Encoder::new(params);
        frames
            .iter()
            .enumerate()
            .map(|(i, f)| enc.encode(f, Rational::new(i as i64, 30)).unwrap())
            .collect()
    };
    g.bench_function("decode_320x180_gop", |b| {
        b.iter_batched(
            || Decoder::new(params),
            |mut dec| {
                for p in &packets {
                    black_box(dec.decode(p).unwrap());
                }
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_kernel(c: &mut Criterion) {
    use v2v_codec::bitstream::Reader;
    use v2v_codec::{inter, intra, Preset};
    use v2v_frame::Plane;

    // Luma planes of two adjacent synthetic frames: `intra` codes the
    // current plane standalone, `inter` codes it against the previous
    // reconstruction (here: the previous source plane — fidelity is
    // irrelevant to throughput).
    let spec = kabr_sim(Scale::Bench, 2);
    let plane = render_frame(&spec, 8).plane(0).clone();
    let reference = render_frame(&spec, 7).plane(0).clone();
    let pixels = (plane.width() * plane.height()) as u64;
    let qstep = 2;

    let mut g = c.benchmark_group("kernel");
    g.throughput(Throughput::Elements(pixels));
    g.bench_function("intra_encode_320x180", |b| {
        let mut out = Vec::new();
        let mut recon = Plane::new(plane.width(), plane.height());
        b.iter(|| {
            out.clear();
            intra::encode_plane_into(
                black_box(&plane),
                qstep,
                Preset::Medium,
                &mut out,
                &mut recon,
            );
            black_box(out.len());
        });
    });
    let mut intra_payload = Vec::new();
    intra::encode_plane(&plane, qstep, Preset::Medium, &mut intra_payload);
    g.bench_function("intra_decode_320x180", |b| {
        let mut recon = Plane::new(plane.width(), plane.height());
        b.iter(|| {
            let mut rd = Reader::new(black_box(&intra_payload));
            intra::decode_plane_into(&mut rd, qstep, Preset::Medium, &mut recon).unwrap();
            black_box(recon.data()[0]);
        });
    });
    g.bench_function("inter_encode_320x180", |b| {
        let mut out = Vec::new();
        let mut recon = Plane::new(plane.width(), plane.height());
        b.iter(|| {
            out.clear();
            inter::encode_plane_into(
                black_box(&plane),
                black_box(&reference),
                qstep,
                Preset::Medium,
                &mut out,
                &mut recon,
            );
            black_box(out.len());
        });
    });
    let mut inter_payload = Vec::new();
    inter::encode_plane(
        &plane,
        &reference,
        qstep,
        Preset::Medium,
        &mut inter_payload,
    );
    g.bench_function("inter_decode_320x180", |b| {
        let mut recon = Plane::new(plane.width(), plane.height());
        b.iter(|| {
            let mut rd = Reader::new(black_box(&inter_payload));
            inter::decode_plane_into(&mut rd, black_box(&reference), qstep, &mut recon).unwrap();
            black_box(recon.data()[0]);
        });
    });
    g.finish();
}

fn bench_gop_cache(c: &mut Criterion) {
    use v2v_exec::{GopCache, SourceCursor};

    // Sequential scan of a 2 s stream: the cold path decodes every
    // packet; the warm path serves every frame as a refcount bump out of
    // GOP prefixes a first scan grew to their ends in the shared cache
    // (the steady state of grid queries where several cells read the
    // same source).
    let stream = v2v_datasets::generate(&kabr_sim(Scale::Bench, 2));
    let n = stream.len() as u64;

    let mut g = c.benchmark_group("gop_cache");
    g.throughput(Throughput::Elements(n));
    g.bench_function("cold_decode_2s", |b| {
        b.iter(|| {
            let mut cur = SourceCursor::new(&stream, "src");
            for i in 0..n {
                black_box(cur.frame_at(i).unwrap());
            }
        });
    });
    let cache = GopCache::new(4096);
    {
        let mut warm = SourceCursor::new(&stream, "src").with_cache(&cache);
        for i in 0..n {
            warm.frame_at(i).unwrap();
        }
    }
    g.bench_function("warm_cache_2s", |b| {
        b.iter(|| {
            let mut cur = SourceCursor::new(&stream, "src").with_cache(&cache);
            for i in 0..n {
                black_box(cur.frame_at(i).unwrap());
            }
        });
    });
    g.finish();
}

fn bench_planning(c: &mut Criterion) {
    // Planning latency on a 60 s annotated query: the paper's claim is
    // that optimization is cheap next to execution.
    let spec_ds = kabr_sim(Scale::Test, 70);
    let stream = v2v_datasets::generate(&kabr_sim(Scale::Test, 70));
    let dets = detections(&spec_ds, DetectionProfile::kabr(), "zebra");
    let mut catalog = Catalog::new();
    catalog.add_video("src", stream);
    catalog.add_array("dets", dets.clone());
    let output = v2v_spec::OutputSettings {
        frame_ty: FrameType::yuv420p(128, 72),
        frame_dur: r(1, 30),
        gop_size: 30,
        quantizer: 2,
    };
    let spec = SpecBuilder::new(output)
        .video("src", "src.svc")
        .data_array("dets", "catalog")
        .append_filtered("src", r(1, 1), r(60, 1), |e| {
            blur(bounding_box(e, "dets"), 1.0)
        })
        .build();
    let ctx = catalog.plan_context();

    let mut g = c.benchmark_group("planning");
    g.bench_function("lower_60s_spec", |b| {
        b.iter(|| black_box(lower_spec(black_box(&spec)).unwrap()));
    });
    let logical = lower_spec(&spec).unwrap();
    g.bench_function("optimize_60s_plan", |b| {
        b.iter(|| {
            black_box(
                optimize(
                    black_box(&logical),
                    black_box(ctx),
                    &OptimizerConfig::default(),
                )
                .unwrap(),
            )
        });
    });
    g.bench_function("dde_rewrite_60s_spec", |b| {
        let arrays = catalog.arrays().clone();
        b.iter(|| black_box(v2v_core::rewrite_spec(black_box(&spec), black_box(&arrays))));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_rational, bench_timeset, bench_codec, bench_kernel, bench_gop_cache, bench_planning
}
criterion_main!(benches);
