//! Geometry kernels: resize, crop, zoom.

use super::round_u8;
use crate::format::{FrameType, PixelFormat};
use crate::frame::{Frame, Plane};

/// Resizes a frame to `out_w × out_h` with bilinear sampling, per plane.
///
/// `Rgb24` planes interleave three samples per pixel and resample per
/// channel; every format runs the same table-driven loop: one column
/// table `(x0, x1, dx)` in sample units per plane, one `(y0, y1, dy)` per
/// output row, then `p00·(1−dx)·(1−dy) + p10·dx·(1−dy) + p01·(1−dx)·dy +
/// p11·dx·dy` per sample.
pub fn resize_bilinear(src: &Frame, out_w: u32, out_h: u32) -> Frame {
    #[cfg(test)]
    if super::per_pixel_oracles() {
        return tests::resize_bilinear_per_pixel(src, out_w, out_h);
    }
    if (src.width(), src.height()) == (out_w as usize, out_h as usize) {
        return src.clone();
    }
    let ty = src.ty().with_size(out_w, out_h);
    let ch = if ty.format == PixelFormat::Rgb24 {
        3
    } else {
        1
    };
    let planes = src
        .planes()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (pw, ph) = ty.format.plane_dims(i, out_w as usize, out_h as usize);
            resize_plane(p, ch, pw, ph)
        })
        .collect();
    Frame::from_planes(ty, planes).expect("resize produced consistent planes")
}

/// The source position of output pixel `x` along an axis scaled by `s`:
/// the two clamped neighbours and the fraction towards the second.
#[inline]
fn bilinear_taps(x: usize, s: f32, len: usize) -> (usize, usize, f32) {
    let fx = (x as f32 + 0.5) * s - 0.5;
    let x0 = fx.floor() as isize;
    let dx = fx - x0 as f32;
    let last = len as isize - 1;
    (
        x0.clamp(0, last) as usize,
        (x0 + 1).clamp(0, last) as usize,
        dx,
    )
}

/// Bilinear resample of one plane holding `ch` interleaved channels to
/// `pw × ph` samples.
fn resize_plane(p: &Plane, ch: usize, pw: usize, ph: usize) -> Plane {
    let mut out = Plane::new(pw, ph);
    let (in_px, out_px) = (p.width() / ch, pw / ch);
    let sx = in_px as f32 / out_px as f32;
    let sy = p.height() as f32 / ph as f32;
    let cols: Vec<(usize, usize, f32)> = (0..out_px)
        .flat_map(|x| {
            let (x0, x1, dx) = bilinear_taps(x, sx, in_px);
            (0..ch).map(move |c| (x0 * ch + c, x1 * ch + c, dx))
        })
        .collect();
    for y in 0..ph {
        let (y0, y1, dy) = bilinear_taps(y, sy, p.height());
        let (r0, r1) = (p.row(y0), p.row(y1));
        for (o, &(x0, x1, dx)) in out.row_mut(y).iter_mut().zip(&cols) {
            let p00 = f32::from(r0[x0]);
            let p10 = f32::from(r0[x1]);
            let p01 = f32::from(r1[x0]);
            let p11 = f32::from(r1[x1]);
            let v = p00 * (1.0 - dx) * (1.0 - dy)
                + p10 * dx * (1.0 - dy)
                + p01 * (1.0 - dx) * dy
                + p11 * dx * dy;
            *o = round_u8(v);
        }
    }
    out
}

/// Extracts the rectangle `[x, x+w) × [y, y+h)` as a new frame.
///
/// For `yuv420p`, `x`/`y` are rounded down to even and `w`/`h` up to even
/// to keep chroma alignment; the effective rectangle is clipped to the
/// frame.
pub fn crop(src: &Frame, x: u32, y: u32, w: u32, h: u32) -> Frame {
    let (mut x, mut y, mut w, mut h) = (x as usize, y as usize, w as usize, h as usize);
    if src.ty().format == PixelFormat::Yuv420p {
        x &= !1;
        y &= !1;
        w = (w + 1) & !1;
        h = (h + 1) & !1;
    }
    x = x.min(src.width().saturating_sub(1));
    y = y.min(src.height().saturating_sub(1));
    w = w.clamp(1, src.width() - x);
    h = h.clamp(1, src.height() - y);
    let ty = src.ty().with_size(w as u32, h as u32);
    let mut planes = Vec::with_capacity(src.planes().len());
    for (i, p) in src.planes().iter().enumerate() {
        let (pw, ph) = ty.format.plane_dims(i, w, h);
        let (sub_x, sub_y) = match (src.ty().format, i) {
            (PixelFormat::Yuv420p, 1) | (PixelFormat::Yuv420p, 2) => (x / 2, y / 2),
            (PixelFormat::Rgb24, 0) => (x * 3, y),
            _ => (x, y),
        };
        let mut out = Plane::new(pw, ph);
        for row in 0..ph {
            let src_row = p.row(sub_y + row);
            out.row_mut(row)
                .copy_from_slice(&src_row[sub_x..sub_x + pw]);
        }
        planes.push(out);
    }
    Frame::from_planes(ty, planes).expect("crop produced consistent planes")
}

/// The paper's `Zoom(Frame, percent)` transform: magnifies around the
/// frame centre by `factor` (>= 1.0) and resamples back to the original
/// resolution. `factor = 1.0` is the identity.
pub fn zoom(src: &Frame, factor: f64) -> Frame {
    if factor <= 1.0 {
        return src.clone();
    }
    let w = src.width() as f64;
    let h = src.height() as f64;
    let cw = (w / factor).max(2.0) as u32;
    let ch = (h / factor).max(2.0) as u32;
    let cx = ((w - f64::from(cw)) / 2.0) as u32;
    let cy = ((h - f64::from(ch)) / 2.0) as u32;
    let cropped = crop(src, cx, cy, cw, ch);
    resize_bilinear(&cropped, src.width() as u32, src.height() as u32)
}

/// Zoom centred on a normalized point instead of the frame centre (used
/// for "zoom into the relevant spot" synthesis tasks).
pub fn zoom_at(src: &Frame, factor: f64, center_x: f32, center_y: f32) -> Frame {
    if factor <= 1.0 {
        return src.clone();
    }
    let w = src.width() as f64;
    let h = src.height() as f64;
    let cw = (w / factor).max(2.0);
    let ch = (h / factor).max(2.0);
    let cx = (f64::from(center_x) * w - cw / 2.0).clamp(0.0, w - cw);
    let cy = (f64::from(center_y) * h - ch / 2.0).clamp(0.0, h - ch);
    let cropped = crop(src, cx as u32, cy as u32, cw as u32, ch as u32);
    resize_bilinear(&cropped, src.width() as u32, src.height() as u32)
}

/// Scales a frame to fit a target type, converting format if needed.
///
/// Takes the frame by value: when it already has the target type it is
/// returned as is, and a resize or conversion starts from it without a
/// copy.
pub fn conform(src: Frame, target: FrameType) -> Frame {
    if src.ty() == target {
        return src;
    }
    let f = if (src.width(), src.height()) != (target.width as usize, target.height as usize) {
        resize_bilinear(&src, target.width, target.height)
    } else {
        src
    };
    match (target.format, f.ty().format) {
        (PixelFormat::Yuv420p, PixelFormat::Yuv420p) | (PixelFormat::Rgb24, PixelFormat::Rgb24) => {
            f
        }
        (PixelFormat::Yuv420p, _) => f.to_yuv420p(),
        (PixelFormat::Rgb24, _) => f.to_rgb24(),
        (PixelFormat::Gray8, _) => {
            let yuv = f.to_yuv420p();
            Frame::from_planes(target, vec![yuv.plane(0).clone()])
                .expect("luma plane matches gray type")
        }
    }
}

/// [`conform`] over shared frames: when `src` already has the target
/// type the `Arc` is cloned (a refcount bump, no raster copy); otherwise
/// the converted frame is wrapped in a fresh `Arc`.
pub fn conform_shared(src: &std::sync::Arc<Frame>, target: FrameType) -> std::sync::Arc<Frame> {
    if src.ty() == target {
        src.clone()
    } else {
        std::sync::Arc::new(conform(src.as_ref().clone(), target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FrameType;
    use crate::ops::tests::{frame_type, seeded_frame};
    use proptest::prelude::*;

    /// The per-pixel resize the table-driven loop replaced: the
    /// bit-identity oracle for [`resize_bilinear`].
    pub(super) fn resize_bilinear_per_pixel(src: &Frame, out_w: u32, out_h: u32) -> Frame {
        if (src.width(), src.height()) == (out_w as usize, out_h as usize) {
            return src.clone();
        }
        let ty = src.ty().with_size(out_w, out_h);
        let mut planes = Vec::with_capacity(src.planes().len());
        for (i, p) in src.planes().iter().enumerate() {
            let (pw, ph) = ty.format.plane_dims(i, out_w as usize, out_h as usize);
            // RGB planes interleave 3 samples per pixel; resample per channel.
            if src.ty().format == PixelFormat::Rgb24 {
                let mut out = Plane::new(pw, ph);
                let px_w = pw / 3;
                let sx = src.width() as f32 / px_w as f32;
                let sy = src.height() as f32 / ph as f32;
                for y in 0..ph {
                    for x in 0..px_w {
                        let fx = (x as f32 + 0.5) * sx - 0.5;
                        let fy = (y as f32 + 0.5) * sy - 0.5;
                        for c in 0..3 {
                            let v = rgb_sample_per_pixel(p, src.width(), fx, fy, c);
                            out.row_mut(y)[x * 3 + c] = v;
                        }
                    }
                }
                planes.push(out);
            } else {
                let mut out = Plane::new(pw, ph);
                let sx = p.width() as f32 / pw as f32;
                let sy = p.height() as f32 / ph as f32;
                for y in 0..ph {
                    for x in 0..pw {
                        let fx = (x as f32 + 0.5) * sx - 0.5;
                        let fy = (y as f32 + 0.5) * sy - 0.5;
                        out.put(x, y, p.sample_bilinear_per_pixel(fx, fy));
                    }
                }
                planes.push(out);
            }
        }
        Frame::from_planes(ty, planes).expect("resize produced consistent planes")
    }

    /// One channel of an `Rgb24` plane sampled bilinearly (oracle).
    fn rgb_sample_per_pixel(p: &Plane, px_width: usize, fx: f32, fy: f32, c: usize) -> u8 {
        let x0 = fx.floor() as isize;
        let y0 = fy.floor() as isize;
        let dx = fx - x0 as f32;
        let dy = fy - y0 as f32;
        let get = |x: isize, y: isize| -> f32 {
            let x = x.clamp(0, px_width as isize - 1) as usize;
            let y = y.clamp(0, p.height() as isize - 1) as usize;
            p.row(y)[x * 3 + c] as f32
        };
        let v = get(x0, y0) * (1.0 - dx) * (1.0 - dy)
            + get(x0 + 1, y0) * dx * (1.0 - dy)
            + get(x0, y0 + 1) * (1.0 - dx) * dy
            + get(x0 + 1, y0 + 1) * dx * dy;
        v.round().clamp(0.0, 255.0) as u8
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Every format, 1..64 → 1..96 on both axes, up and down.
        #[test]
        fn table_driven_resize_matches_per_pixel(
            seed in any::<u64>(),
            format in 0usize..3,
            src_dims in (1u32..64, 1u32..64),
            out_dims in (1u32..96, 1u32..96),
        ) {
            let f = seeded_frame(frame_type(format, src_dims.0, src_dims.1), seed);
            let (ow, oh) = out_dims;
            prop_assert_eq!(
                resize_bilinear(&f, ow, oh),
                resize_bilinear_per_pixel(&f, ow, oh),
                "{:?} → {}x{}", f.ty(), ow, oh
            );
        }
    }

    fn gradient(ty: FrameType) -> Frame {
        let mut f = Frame::black(ty);
        let w = f.width();
        for y in 0..f.height() {
            for x in 0..w {
                f.plane_mut(0).put(x, y, ((x * 255) / w.max(1)) as u8);
            }
        }
        f
    }

    #[test]
    fn resize_identity_is_noop() {
        let f = gradient(FrameType::gray8(16, 8));
        let g = resize_bilinear(&f, 16, 8);
        assert_eq!(f, g);
    }

    #[test]
    fn resize_halves_and_preserves_gradient() {
        let f = gradient(FrameType::gray8(32, 32));
        let g = resize_bilinear(&f, 16, 16);
        assert_eq!(g.width(), 16);
        // Gradient is preserved: left darker than right.
        assert!(g.plane(0).get(1, 8) < g.plane(0).get(14, 8));
    }

    #[test]
    fn resize_yuv_scales_chroma() {
        let f = Frame::black(FrameType::yuv420p(32, 32));
        let g = resize_bilinear(&f, 16, 16);
        assert_eq!(g.plane(1).width(), 8);
        assert!(g.plane(1).data().iter().all(|&v| v == 128));
    }

    #[test]
    fn resize_rgb_keeps_channels_independent() {
        let ty = FrameType::rgb24(8, 8);
        let mut f = Frame::black(ty);
        for y in 0..8 {
            for x in 0..8 {
                f.plane_mut(0).row_mut(y)[x * 3] = 200; // red only
            }
        }
        let g = resize_bilinear(&f, 4, 4);
        assert_eq!(g.rgb_at(2, 2), (200, 0, 0));
    }

    #[test]
    fn crop_extracts_exact_region() {
        let f = gradient(FrameType::gray8(16, 8));
        let c = crop(&f, 4, 2, 8, 4);
        assert_eq!((c.width(), c.height()), (8, 4));
        assert_eq!(c.plane(0).get(0, 0), f.plane(0).get(4, 2));
        assert_eq!(c.plane(0).get(7, 3), f.plane(0).get(11, 5));
    }

    #[test]
    fn crop_yuv_aligns_to_even() {
        let f = Frame::black(FrameType::yuv420p(16, 16));
        let c = crop(&f, 3, 3, 5, 5);
        assert_eq!((c.width(), c.height()), (6, 6));
        assert_eq!(c.plane(1).width(), 3);
    }

    #[test]
    fn crop_clips_to_frame() {
        let f = gradient(FrameType::gray8(8, 8));
        let c = crop(&f, 6, 6, 10, 10);
        assert_eq!((c.width(), c.height()), (2, 2));
    }

    #[test]
    fn zoom_identity_below_one() {
        let f = gradient(FrameType::gray8(16, 16));
        assert_eq!(zoom(&f, 1.0), f);
        assert_eq!(zoom(&f, 0.5), f);
    }

    #[test]
    fn zoom_magnifies_center() {
        // Bright square in the middle: after 2x zoom its footprint grows.
        let mut f = Frame::black(FrameType::gray8(32, 32));
        for y in 12..20 {
            for x in 12..20 {
                f.plane_mut(0).put(x, y, 255);
            }
        }
        let z = zoom(&f, 2.0);
        assert_eq!((z.width(), z.height()), (32, 32));
        let bright_before = f.plane(0).data().iter().filter(|&&v| v > 200).count();
        let bright_after = z.plane(0).data().iter().filter(|&&v| v > 200).count();
        assert!(bright_after > bright_before * 2);
    }

    #[test]
    fn zoom_at_targets_corner() {
        let mut f = Frame::black(FrameType::gray8(32, 32));
        f.plane_mut(0).put(2, 2, 255);
        let z = zoom_at(&f, 4.0, 0.05, 0.05);
        // The bright corner pixel dominates the zoomed view.
        let lit = z.plane(0).data().iter().filter(|&&v| v > 64).count();
        assert!(lit >= 4);
    }

    #[test]
    fn conform_converts_size_and_format() {
        let f = gradient(FrameType::gray8(16, 16));
        let out = conform(f, FrameType::yuv420p(8, 8));
        assert_eq!(out.ty(), FrameType::yuv420p(8, 8));
    }
}
