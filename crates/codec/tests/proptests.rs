//! Property-based tests for the SVC codec: exactness at `quantizer = 0`,
//! bounded error otherwise, over random content and stream shapes.

use proptest::prelude::*;
use v2v_codec::{CodecParams, Decoder, Encoder, Preset};
use v2v_frame::{Frame, FrameType, PixelFormat};
use v2v_time::Rational;

/// Random frame content driven by a seed vector.
fn build_frame(ty: FrameType, seed: u64, noise: &[u8]) -> Frame {
    let mut f = Frame::black(ty);
    for pi in 0..ty.format.plane_count() {
        let p = f.plane_mut(pi);
        let w = p.width();
        for y in 0..p.height() {
            for x in 0..w {
                let base = ((x as u64 * 7 + y as u64 * 13 + seed * 29) % 256) as u8;
                let n = noise[(x + y * w) % noise.len()];
                p.put(x, y, base.wrapping_add(n / 4));
            }
        }
    }
    f
}

fn frame_ty_strategy() -> impl Strategy<Value = FrameType> {
    (8u32..40, 8u32..40, 0usize..3).prop_map(|(w, h, fmt)| {
        // Even dims keep yuv420p chroma simple in comparisons.
        let (w, h) = (w & !1, h & !1);
        let (w, h) = (w.max(8), h.max(8));
        match fmt {
            0 => FrameType::yuv420p(w, h),
            1 => FrameType::rgb24(w, h),
            _ => FrameType::gray8(w, h),
        }
    })
}

fn preset_strategy() -> impl Strategy<Value = Preset> {
    prop_oneof![Just(Preset::Ultrafast), Just(Preset::Medium)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lossless_round_trip(
        ty in frame_ty_strategy(),
        gop in 1u32..6,
        preset in preset_strategy(),
        noise in prop::collection::vec(any::<u8>(), 16..64),
        n_frames in 1usize..8,
    ) {
        let mut params = CodecParams::new(ty, gop, 0);
        params.preset = preset;
        let mut enc = Encoder::new(params);
        let mut dec = Decoder::new(params);
        for i in 0..n_frames {
            let f = build_frame(ty, i as u64, &noise);
            let pts = Rational::new(i as i64, 30);
            let p = enc.encode(&f, pts).unwrap();
            let g = dec.decode(&p).unwrap();
            prop_assert_eq!(g, f);
        }
    }

    #[test]
    fn lossy_error_bounded(
        ty in frame_ty_strategy(),
        gop in 1u32..6,
        q in 1u8..8,
        preset in preset_strategy(),
        noise in prop::collection::vec(any::<u8>(), 16..64),
        n_frames in 1usize..6,
    ) {
        let mut params = CodecParams::new(ty, gop, q);
        params.preset = preset;
        let bound = params.qstep();
        let mut enc = Encoder::new(params);
        let mut dec = Decoder::new(params);
        for i in 0..n_frames {
            let f = build_frame(ty, i as u64, &noise);
            let pts = Rational::new(i as i64, 30);
            let p = enc.encode(&f, pts).unwrap();
            let g = dec.decode(&p).unwrap();
            for (pa, pb) in f.planes().iter().zip(g.planes()) {
                for (a, b) in pa.data().iter().zip(pb.data()) {
                    prop_assert!(
                        i32::from(a.abs_diff(*b)) <= bound,
                        "error {} beyond bound {}", a.abs_diff(*b), bound
                    );
                }
            }
        }
    }

    #[test]
    fn keyframe_flags_follow_gop(
        gop in 1u32..8,
        n_frames in 1usize..20,
    ) {
        let ty = FrameType::gray8(16, 16);
        let params = CodecParams::new(ty, gop, 0);
        let mut enc = Encoder::new(params);
        let noise = vec![0u8; 16];
        for i in 0..n_frames {
            let f = build_frame(ty, i as u64, &noise);
            let p = enc.encode(&f, Rational::new(i as i64, 30)).unwrap();
            // `% == 0` rather than `is_multiple_of`: the workspace MSRV is 1.75.
            prop_assert_eq!(p.keyframe, (i as u64) % u64::from(gop) == 0);
        }
    }

    /// Output GOPs are independent: a fresh encoder started at each GOP
    /// boundary emits exactly the packets (bytes, flags and pts) of one
    /// encoder run straight through. Parallel per-GOP encoding relies on
    /// this to splice byte-identical output.
    #[test]
    fn fresh_encoders_at_gop_boundaries_match_one_straight_through(
        ty in frame_ty_strategy(),
        gop in 1u32..6,
        q in 0u8..8,
        preset in preset_strategy(),
        noise in prop::collection::vec(any::<u8>(), 16..64),
        gops in 1usize..4,
        tail in 0u32..6,
    ) {
        let mut params = CodecParams::new(ty, gop, q);
        params.preset = preset;
        // Up to three GOPs, the last possibly partial.
        let n = (gops - 1) * gop as usize + (tail % gop) as usize + 1;
        let frames: Vec<Frame> = (0..n).map(|i| build_frame(ty, i as u64, &noise)).collect();
        let pts = |i: usize| Rational::new(i as i64, 30);
        let mut straight = Encoder::new(params);
        let whole: Vec<_> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| straight.encode(f, pts(i)).unwrap())
            .collect();
        let mut spliced = Vec::with_capacity(n);
        for (w, window) in frames.chunks(gop as usize).enumerate() {
            let mut fresh = Encoder::new(params);
            for (k, f) in window.iter().enumerate() {
                spliced.push(fresh.encode(f, pts(w * gop as usize + k)).unwrap());
            }
        }
        prop_assert_eq!(whole, spliced);
    }

    #[test]
    fn corrupt_packets_never_panic(
        data in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let ty = FrameType::yuv420p(16, 16);
        let params = CodecParams::new(ty, 4, 0);
        let mut dec = Decoder::new(params);
        let keyframe = data.first().copied() == Some(0x49);
        let pkt = v2v_codec::Packet::new(
            Rational::ZERO,
            keyframe,
            bytes::Bytes::from(data),
        );
        // Any outcome but a panic is acceptable.
        let _ = dec.decode(&pkt);
    }
}

#[test]
fn formats_cover_all_pixel_layouts() {
    // Sanity net: the strategy above can produce each format.
    let tys = [
        FrameType::yuv420p(8, 8),
        FrameType::rgb24(8, 8),
        FrameType::gray8(8, 8),
    ];
    let formats: Vec<PixelFormat> = tys.iter().map(|t| t.format).collect();
    assert_eq!(formats.len(), 3);
}
