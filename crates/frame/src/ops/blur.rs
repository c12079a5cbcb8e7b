//! Convolution kernels: Gaussian blur, box blur, sharpen, denoise, edges.
//!
//! Gaussian blur is the paper's benchmark "pixel-wise filter operation"
//! (queries Q4/Q9). All kernels run per plane, so they apply uniformly to
//! gray, RGB (treating the interleaved row as samples is wrong for
//! horizontal passes, so RGB is handled channel-aware), and YUV frames.

use super::round_u8;
use crate::format::PixelFormat;
use crate::frame::{Frame, Plane};

/// Builds a normalized 1-D Gaussian kernel for `sigma` (radius ≈ 3σ).
fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    let radius = (sigma * 3.0).ceil().max(1.0) as usize;
    let mut k = Vec::with_capacity(2 * radius + 1);
    let denom = 2.0 * sigma * sigma;
    for i in 0..=2 * radius {
        let d = i as f32 - radius as f32;
        k.push((-d * d / denom).exp());
    }
    let sum: f32 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// Channel-aware plane geometry: `(pixel_width, channels)`.
fn plane_channels(format: PixelFormat, plane_idx: usize, plane: &Plane) -> (usize, usize) {
    if format == PixelFormat::Rgb24 && plane_idx == 0 {
        (plane.width() / 3, 3)
    } else {
        (plane.width(), 1)
    }
}

/// Separable convolution of one plane with a 1-D kernel (applied on both
/// axes), channel-aware, in row-slice form.
///
/// Each source row is edge-clamped into a padded `f32` row once (for
/// `Rgb24` the pad is per channel, so a tap is a shift of `ch` samples);
/// then every tap adds one shifted slice times its weight. The vertical
/// pass does the same with whole rows of the horizontal result. Every
/// output sample sees the same f32 products, added in the same tap order,
/// as the per-pixel loop it replaced, so the bytes are identical.
fn convolve_separable(plane: &Plane, format: PixelFormat, idx: usize, kernel: &[f32]) -> Plane {
    #[cfg(test)]
    if super::per_pixel_oracles() {
        return tests::convolve_separable_per_pixel(plane, format, idx, kernel);
    }
    let (pw, ch) = plane_channels(format, idx, plane);
    let (width, h) = (plane.width(), plane.height());
    let mut out = Plane::new(width, h);
    if pw == 0 || h == 0 {
        return out;
    }
    let radius = kernel.len() / 2;
    let n = pw * ch;
    let mut tmp = vec![0f32; n * h];
    let mut padded = vec![0f32; (pw + 2 * radius) * ch];
    // Horizontal pass.
    for (y, acc) in tmp.chunks_exact_mut(n).enumerate() {
        let row = &plane.row(y)[..n];
        let (left, rest) = padded.split_at_mut(radius * ch);
        let (mid, right) = rest.split_at_mut(n);
        for (d, &s) in mid.iter_mut().zip(row) {
            *d = f32::from(s);
        }
        for (d, &s) in left.iter_mut().zip(row[..ch].iter().cycle()) {
            *d = f32::from(s);
        }
        for (d, &s) in right.iter_mut().zip(row[n - ch..].iter().cycle()) {
            *d = f32::from(s);
        }
        for (k, &kv) in kernel.iter().enumerate() {
            for (a, &p) in acc.iter_mut().zip(&padded[k * ch..k * ch + n]) {
                *a += p * kv;
            }
        }
    }
    // Vertical pass.
    let mut acc = vec![0f32; n];
    for y in 0..h {
        acc.fill(0.0);
        for (k, &kv) in kernel.iter().enumerate() {
            let sy = (y + k).saturating_sub(radius).min(h - 1);
            for (a, &p) in acc.iter_mut().zip(&tmp[sy * n..(sy + 1) * n]) {
                *a += p * kv;
            }
        }
        for (o, &a) in out.row_mut(y)[..n].iter_mut().zip(&acc) {
            *o = round_u8(a);
        }
    }
    out
}

/// Gaussian blur with standard deviation `sigma` (the Q4/Q9 filter).
pub fn gaussian_blur(src: &Frame, sigma: f32) -> Frame {
    if sigma <= 0.0 {
        return src.clone();
    }
    let kernel = gaussian_kernel(sigma);
    apply_per_plane(src, |p, idx| {
        convolve_separable(p, src.ty().format, idx, &kernel)
    })
}

/// Box blur with the given radius.
pub fn box_blur(src: &Frame, radius: usize) -> Frame {
    if radius == 0 {
        return src.clone();
    }
    let n = 2 * radius + 1;
    let kernel = vec![1.0 / n as f32; n];
    apply_per_plane(src, |p, idx| {
        convolve_separable(p, src.ty().format, idx, &kernel)
    })
}

/// Unsharp-mask sharpening: `out = src + amount · (src - blur(src))`.
pub fn sharpen(src: &Frame, amount: f32) -> Frame {
    if amount <= 0.0 {
        return src.clone();
    }
    let blurred = gaussian_blur(src, 1.0);
    let mut out = src.clone();
    for (pi, plane) in out.planes_mut().iter_mut().enumerate() {
        for (v, &b) in plane.data_mut().iter_mut().zip(blurred.plane(pi).data()) {
            let orig = f32::from(*v);
            let detail = orig - f32::from(b);
            *v = round_u8(orig + amount * detail);
        }
    }
    out
}

/// 3×3 median denoise on the luma/first plane (chroma left untouched:
/// sensor noise is predominantly luma and the median is expensive).
pub fn median_denoise(src: &Frame) -> Frame {
    let mut out = src.clone();
    let format = src.ty().format;
    let p = src.plane(0);
    let (pw, ch) = plane_channels(format, 0, p);
    let h = p.height();
    let dst = out.plane_mut(0);
    let mut window = [0u8; 9];
    for y in 0..h {
        for x in 0..pw {
            for c in 0..ch {
                let mut n = 0;
                for dy in -1isize..=1 {
                    for dx in -1isize..=1 {
                        let sx = (x as isize + dx).clamp(0, pw as isize - 1) as usize;
                        let sy = (y as isize + dy).clamp(0, h as isize - 1) as usize;
                        window[n] = p.row(sy)[sx * ch + c];
                        n += 1;
                    }
                }
                window.sort_unstable();
                dst.row_mut(y)[x * ch + c] = window[4];
            }
        }
    }
    out
}

/// Sobel edge detection; returns a grayscale-valued frame of the same type
/// (edges in the first plane, neutral chroma for YUV).
pub fn edge_detect(src: &Frame) -> Frame {
    let mut out = Frame::black(src.ty());
    let format = src.ty().format;
    let p = src.plane(0);
    let (pw, ch) = plane_channels(format, 0, p);
    let h = p.height();
    // Neutral chroma for YUV output.
    if format == PixelFormat::Yuv420p {
        for pl in 1..3 {
            for v in out.plane_mut(pl).data_mut() {
                *v = 128;
            }
        }
    }
    let sample = |x: isize, y: isize| -> i32 {
        let sx = x.clamp(0, pw as isize - 1) as usize;
        let sy = y.clamp(0, h as isize - 1) as usize;
        i32::from(p.row(sy)[sx * ch]) // first channel as intensity proxy
    };
    for y in 0..h {
        for x in 0..pw {
            let (xi, yi) = (x as isize, y as isize);
            let gx = -sample(xi - 1, yi - 1) - 2 * sample(xi - 1, yi) - sample(xi - 1, yi + 1)
                + sample(xi + 1, yi - 1)
                + 2 * sample(xi + 1, yi)
                + sample(xi + 1, yi + 1);
            let gy = -sample(xi - 1, yi - 1) - 2 * sample(xi, yi - 1) - sample(xi + 1, yi - 1)
                + sample(xi - 1, yi + 1)
                + 2 * sample(xi, yi + 1)
                + sample(xi + 1, yi + 1);
            let mag = (((gx * gx + gy * gy) as f32).sqrt() / 4.0).min(255.0) as u8;
            for c in 0..ch {
                out.plane_mut(0).row_mut(y)[x * ch + c] = mag;
            }
        }
    }
    out
}

fn apply_per_plane(src: &Frame, f: impl Fn(&Plane, usize) -> Plane) -> Frame {
    let planes = src
        .planes()
        .iter()
        .enumerate()
        .map(|(i, p)| f(p, i))
        .collect();
    Frame::from_planes(src.ty(), planes).expect("kernel preserved plane dims")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FrameType;
    use crate::ops::tests::{frame_type, per_pixel, seeded_frame};
    use proptest::prelude::*;

    /// The per-pixel separable convolution the row-slice form replaced:
    /// the bit-identity oracle for [`convolve_separable`].
    pub(super) fn convolve_separable_per_pixel(
        plane: &Plane,
        format: PixelFormat,
        idx: usize,
        kernel: &[f32],
    ) -> Plane {
        let (pw, ch) = plane_channels(format, idx, plane);
        let h = plane.height();
        let radius = kernel.len() / 2;
        let mut tmp = vec![0f32; plane.width() * h];
        // Horizontal pass.
        for y in 0..h {
            let row = plane.row(y);
            for x in 0..pw {
                for c in 0..ch {
                    let mut acc = 0f32;
                    for (ki, kv) in kernel.iter().enumerate() {
                        let sx = (x as isize + ki as isize - radius as isize)
                            .clamp(0, pw as isize - 1) as usize;
                        acc += f32::from(row[sx * ch + c]) * kv;
                    }
                    tmp[y * plane.width() + x * ch + c] = acc;
                }
            }
        }
        // Vertical pass.
        let mut out = Plane::new(plane.width(), h);
        for y in 0..h {
            for x in 0..pw {
                for c in 0..ch {
                    let mut acc = 0f32;
                    for (ki, kv) in kernel.iter().enumerate() {
                        let sy = (y as isize + ki as isize - radius as isize)
                            .clamp(0, h as isize - 1) as usize;
                        acc += tmp[sy * plane.width() + x * ch + c] * kv;
                    }
                    out.row_mut(y)[x * ch + c] = acc.round().clamp(0.0, 255.0) as u8;
                }
            }
        }
        out
    }

    /// The per-pixel unsharp mask (its blur on the per-pixel oracle).
    fn sharpen_per_pixel(src: &Frame, amount: f32) -> Frame {
        if amount <= 0.0 {
            return src.clone();
        }
        let blurred = per_pixel(|| gaussian_blur(src, 1.0));
        let mut out = src.clone();
        for (pi, plane) in out.planes_mut().iter_mut().enumerate() {
            let b = blurred.plane(pi);
            for (i, v) in plane.data_mut().iter_mut().enumerate() {
                let orig = f32::from(*v);
                let detail = orig - f32::from(b.data()[i]);
                *v = (orig + amount * detail).round().clamp(0.0, 255.0) as u8;
            }
        }
        out
    }

    /// σ drawn from (0, 8] or one of the values queries use.
    fn sigma_strategy() -> impl Strategy<Value = f32> {
        prop_oneof![
            (1u32..=8000).prop_map(|m| m as f32 / 1000.0),
            (0usize..5).prop_map(|i| [0.5f32, 1.0, 1.2, 2.0, 3.0][i]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Gaussian and box kernels over planes of every format, half the
        /// time narrower or shorter than the kernel itself.
        #[test]
        fn row_slice_convolution_matches_per_pixel(
            seed in any::<u64>(),
            format in 0usize..3,
            sigma in sigma_strategy(),
            box_radius in 0usize..=8,
            dims in (any::<bool>(), 1usize..64, 1usize..64),
        ) {
            let kernel = if box_radius == 0 {
                gaussian_kernel(sigma)
            } else {
                vec![1.0 / (2 * box_radius + 1) as f32; 2 * box_radius + 1]
            };
            let (short, w, h) = dims;
            let (w, h) = if short {
                let span = kernel.len() + 1; // 1..=2·radius+2
                (1 + w % span, 1 + h % span)
            } else {
                (w, h)
            };
            let f = seeded_frame(frame_type(format, w as u32, h as u32), seed);
            let fmt = f.ty().format;
            for (idx, p) in f.planes().iter().enumerate() {
                prop_assert_eq!(
                    convolve_separable(p, fmt, idx, &kernel),
                    convolve_separable_per_pixel(p, fmt, idx, &kernel),
                    "plane {} of {:?}, {} taps", idx, f.ty(), kernel.len()
                );
            }
        }

        /// The public blur, box blur and sharpen over whole frames,
        /// including odd yuv420p sizes whose chroma rounds up.
        #[test]
        fn public_blurs_match_per_pixel(
            seed in any::<u64>(),
            format in 0usize..3,
            sigma in sigma_strategy(),
            box_radius in 1usize..=8,
            dims in (1u32..48, 1u32..48, 0.05f32..3.0),
        ) {
            let (w, h, amount) = dims;
            let f = seeded_frame(frame_type(format, w, h), seed);
            prop_assert_eq!(gaussian_blur(&f, sigma), per_pixel(|| gaussian_blur(&f, sigma)));
            prop_assert_eq!(box_blur(&f, box_radius), per_pixel(|| box_blur(&f, box_radius)));
            prop_assert_eq!(sharpen(&f, amount), sharpen_per_pixel(&f, amount));
        }
    }

    fn impulse(size: u32) -> Frame {
        let mut f = Frame::black(FrameType::gray8(size, size));
        let c = size as usize / 2;
        f.plane_mut(0).put(c, c, 255);
        f
    }

    #[test]
    fn gaussian_kernel_normalized() {
        let k = gaussian_kernel(1.5);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert_eq!(k.len() % 2, 1);
        // Symmetric and peaked at centre.
        assert_eq!(k.first(), k.last());
        let mid = k.len() / 2;
        assert!(k[mid] >= k[0]);
    }

    #[test]
    fn blur_spreads_impulse_and_preserves_energy_roughly() {
        let f = impulse(17);
        let b = gaussian_blur(&f, 1.0);
        let c = 8;
        assert!(b.plane(0).get(c, c) < 255);
        assert!(b.plane(0).get(c + 1, c) > 0);
        let before: u32 = f.plane(0).data().iter().map(|&v| u32::from(v)).sum();
        let after: u32 = b.plane(0).data().iter().map(|&v| u32::from(v)).sum();
        assert!(after.abs_diff(before) < before / 3);
    }

    #[test]
    fn zero_sigma_is_identity() {
        let f = impulse(9);
        assert_eq!(gaussian_blur(&f, 0.0), f);
        assert_eq!(box_blur(&f, 0), f);
        assert_eq!(sharpen(&f, 0.0), f);
    }

    #[test]
    fn blur_constant_frame_is_identity() {
        let mut f = Frame::black(FrameType::gray8(12, 12));
        for v in f.plane_mut(0).data_mut() {
            *v = 77;
        }
        let b = gaussian_blur(&f, 2.0);
        assert!(b.plane(0).data().iter().all(|&v| v.abs_diff(77) <= 1));
    }

    #[test]
    fn rgb_blur_does_not_bleed_channels() {
        let ty = FrameType::rgb24(9, 9);
        let mut f = Frame::black(ty);
        f.plane_mut(0).row_mut(4)[4 * 3] = 255; // red impulse
        let b = gaussian_blur(&f, 1.0);
        let (_, g, bl) = b.rgb_at(4, 4);
        assert_eq!((g, bl), (0, 0), "green/blue must stay black");
    }

    #[test]
    fn sharpen_increases_edge_contrast() {
        let mut f = Frame::black(FrameType::gray8(16, 16));
        for y in 0..16 {
            for x in 8..16 {
                f.plane_mut(0).put(x, y, 200);
            }
        }
        let s = sharpen(&f, 1.0);
        // Overshoot on the bright side of the edge.
        assert!(s.plane(0).get(8, 8) >= 200);
        assert!(s.plane(0).get(7, 8) <= f.plane(0).get(7, 8));
    }

    #[test]
    fn median_removes_salt_noise() {
        let mut f = Frame::black(FrameType::gray8(9, 9));
        f.plane_mut(0).put(4, 4, 255); // single hot pixel
        let d = median_denoise(&f);
        assert_eq!(d.plane(0).get(4, 4), 0);
    }

    #[test]
    fn edges_fire_on_boundaries_only() {
        let mut f = Frame::black(FrameType::gray8(16, 16));
        for y in 0..16 {
            for x in 8..16 {
                f.plane_mut(0).put(x, y, 255);
            }
        }
        let e = edge_detect(&f);
        assert!(e.plane(0).get(8, 8) > 100);
        assert_eq!(e.plane(0).get(2, 8), 0);
        assert_eq!(e.plane(0).get(14, 8), 0);
    }

    #[test]
    fn edge_detect_yuv_neutral_chroma() {
        let f = Frame::black(FrameType::yuv420p(8, 8));
        let e = edge_detect(&f);
        assert!(e.plane(1).data().iter().all(|&v| v == 128));
    }
}
