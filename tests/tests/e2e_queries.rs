//! End-to-end equivalence: for every benchmark query shape, the optimized
//! V2V pipeline and the naive unoptimized executor must produce
//! frame-identical output on lossless sources — verified through the
//! embedded frame markers (the paper's frame-exactness methodology).

use v2v_core::{EngineConfig, V2vEngine};
use v2v_exec::Catalog;
use v2v_integration_tests::{marked_output, marked_stream, markers_of};
use v2v_spec::builder::{blur, bounding_box, grid4};
use v2v_spec::{RenderExpr, Spec, SpecBuilder};
use v2v_time::{r, Rational};

fn engine() -> V2vEngine {
    let mut catalog = Catalog::new();
    catalog.add_video("src", marked_stream(300, 30));
    V2vEngine::new(catalog)
}

fn assert_arms_agree(spec: &Spec, engine: &mut V2vEngine) -> (u64, u64) {
    let opt = engine.run(spec).expect("optimized");
    let unopt = engine.run_unoptimized(spec).expect("unoptimized");
    assert_eq!(opt.output.len(), unopt.output.len());
    let (fa, _) = opt.output.decode_range(0, opt.output.len()).unwrap();
    let (fb, _) = unopt.output.decode_range(0, unopt.output.len()).unwrap();
    for (i, (a, b)) in fa.iter().zip(&fb).enumerate() {
        assert_eq!(a, b, "frame {i} differs between arms");
    }
    (opt.stats.packets_copied, unopt.stats.frames_encoded)
}

#[test]
fn q1_clip() {
    let mut e = engine();
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(3, 2), Rational::from_int(3))
        .build();
    let (copied, _) = assert_arms_agree(&spec, &mut e);
    assert!(copied > 0, "mid-GOP clip should smart-cut");
    // Frame-exactness: output frame k shows source frame 45 + k.
    let report = e.run(&spec).unwrap();
    for (k, m) in markers_of(&report.output).into_iter().enumerate() {
        assert_eq!(m, Some(45 + k as u32), "output frame {k}");
    }
}

#[test]
fn q2_splice() {
    let mut e = engine();
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(0, 1), Rational::from_int(2))
        .append_clip("src", r(4, 1), Rational::from_int(2))
        .append_clip("src", r(8, 1), Rational::from_int(1))
        .append_clip("src", r(2, 1), Rational::from_int(2))
        .build();
    assert_arms_agree(&spec, &mut e);
    let report = e.run(&spec).unwrap();
    let markers = markers_of(&report.output);
    assert_eq!(markers[0], Some(0));
    assert_eq!(markers[60], Some(120)); // second segment starts at src 4s
    assert_eq!(markers[120], Some(240));
    assert_eq!(markers[150], Some(60));
    assert_eq!(markers.len(), 210);
}

#[test]
fn q3_grid() {
    let mut e = engine();
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_with(Rational::from_int(2), |_| {
            grid4(
                RenderExpr::video("src"),
                RenderExpr::video_shifted("src", r(2, 1)),
                RenderExpr::video_shifted("src", r(4, 1)),
                RenderExpr::video_shifted("src", r(6, 1)),
            )
        })
        .build();
    assert_arms_agree(&spec, &mut e);
}

#[test]
fn q4_blur() {
    let mut e = engine();
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(1, 1), Rational::from_int(2), |f| blur(f, 1.0))
        .build();
    assert_arms_agree(&spec, &mut e);
}

#[test]
fn q5_bounding_boxes_with_sparse_data() {
    let mut e = engine();
    let mut bb = v2v_data::DataArray::new();
    // Boxes only during the second second of the clip.
    for i in 30..60 {
        bb.insert(
            r(i, 30),
            v2v_data::Value::Boxes(vec![v2v_frame::BoxCoord::new(0.2, 0.2, 0.3, 0.3, "z")]),
        );
    }
    e.catalog_mut().add_array("bb", bb);
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .data_array("bb", "catalog")
        .append_filtered("src", r(0, 1), Rational::from_int(3), |f| {
            bounding_box(f, "bb")
        })
        .build();
    let (copied, _) = assert_arms_agree(&spec, &mut e);
    assert!(copied > 0, "dde must copy the box-free spans");
}

#[test]
fn smart_cut_equals_full_reencode_frames() {
    // The optimized smart-cut output and a forced full re-encode must
    // show identical frames at q=0.
    let mut e = engine();
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(5, 6), Rational::from_int(4)) // frame 25, mid-GOP
        .build();
    let opt = e.run(&spec).unwrap();
    let mut config = EngineConfig::default();
    config.optimizer.stream_copy = false;
    config.optimizer.smart_cut = false;
    let mut e2 = V2vEngine::new(e.catalog().clone()).with_config(config);
    let reencode = e2.run(&spec).unwrap();
    assert_eq!(markers_of(&opt.output), markers_of(&reencode.output));
    let (fa, _) = opt.output.decode_range(0, opt.output.len()).unwrap();
    let (fb, _) = reencode
        .output
        .decode_range(0, reencode.output.len())
        .unwrap();
    assert_eq!(fa, fb);
}

#[test]
fn dde_interleaved_condition_stays_exact() {
    // A per-frame alternating IfThenElse: dde produces many single-frame
    // segments; the output must still be frame-exact and equal to the
    // dde-off run.
    let mut e = engine();
    let mut flags = v2v_data::DataArray::new();
    for i in 0..60 {
        flags.insert(r(i, 30), v2v_data::Value::Int(i % 3));
    }
    e.catalog_mut().add_array("k", flags);
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .data_array("k", "catalog")
        .append_with(Rational::from_int(2), |_| {
            v2v_spec::builder::if_then_else(
                v2v_spec::DataExpr::lt(
                    v2v_spec::DataExpr::array("k"),
                    v2v_spec::DataExpr::constant(1i64),
                ),
                RenderExpr::video("src"),
                RenderExpr::video_shifted("src", r(5, 1)),
            )
        })
        .build();
    let on = e.run(&spec).unwrap();
    let config = EngineConfig {
        data_rewrites: false,
        ..Default::default()
    };
    let mut e_off = V2vEngine::new(e.catalog().clone()).with_config(config);
    let off = e_off.run(&spec).unwrap();
    let markers_on = markers_of(&on.output);
    assert_eq!(markers_on, markers_of(&off.output));
    // Frame k shows src k when k % 3 == 0, else src k + 150.
    for (k, m) in markers_on.into_iter().enumerate() {
        let expect = if k % 3 == 0 { k as u32 } else { k as u32 + 150 };
        assert_eq!(m, Some(expect), "frame {k}");
    }
}

#[test]
fn retimed_clip_double_speed() {
    // vid[2·t]: a 2-second output consuming 4 seconds of source.
    let mut e = engine();
    let domain =
        v2v_time::TimeSet::from_range(v2v_time::TimeRange::new(r(0, 1), r(2, 1), r(1, 30)));
    let spec = Spec {
        time_domain: domain,
        render: RenderExpr::FrameRef {
            video: "src".into(),
            time: v2v_time::AffineTimeMap::retime(r(2, 1)),
        },
        videos: [("src".to_string(), "src.svc".to_string())].into(),
        data_arrays: Default::default(),
        output: marked_output(),
    };
    assert_arms_agree(&spec, &mut e);
    let report = e.run(&spec).unwrap();
    let markers = markers_of(&report.output);
    assert_eq!(markers[0], Some(0));
    assert_eq!(markers[1], Some(2));
    assert_eq!(markers[59], Some(118));
}

#[test]
fn reverse_playback() {
    // vid[-t + c]: reversed playback through a negative-scale time map.
    let mut e = engine();
    let domain =
        v2v_time::TimeSet::from_range(v2v_time::TimeRange::new(r(0, 1), r(2, 1), r(1, 30)));
    let spec = Spec {
        time_domain: domain,
        render: RenderExpr::FrameRef {
            video: "src".into(),
            time: v2v_time::AffineTimeMap::new(r(-1, 1), r(59, 30)),
        },
        videos: [("src".to_string(), "src.svc".to_string())].into(),
        data_arrays: Default::default(),
        output: marked_output(),
    };
    assert_arms_agree(&spec, &mut e);
    let report = e.run(&spec).unwrap();
    let markers = markers_of(&report.output);
    assert_eq!(markers[0], Some(59));
    assert_eq!(markers[1], Some(58));
    assert_eq!(markers[59], Some(0));
}
