//! The raster filter kernel library behind the V2V `Filter` operator.
//!
//! Each kernel is a pure function `&Frame → Frame` (or in-place
//! `&mut Frame`), mirroring the paper's model of transformations as
//! functions `Transform(Frame, …) → Frame`. Kernels are format-aware: they
//! run natively on `yuv420p` (the codec format) without bouncing through
//! RGB, except where colour math requires it.

pub mod annotate;
pub mod background;
pub mod blur;
pub mod color;
pub mod compose;
pub mod scale;
pub mod stabilize;
pub mod transition;

pub use annotate::{draw_bounding_boxes, highlight_regions};
pub use background::replace_background;
pub use blur::{box_blur, edge_detect, gaussian_blur, median_denoise, sharpen};
pub use color::{brightness_contrast, color_grade, grayscale, invert};
pub use compose::{grid, overlay, picture_in_picture};
pub use scale::{conform, conform_shared, crop, resize_bilinear, zoom, zoom_at};
pub use stabilize::stabilize_crop;
pub use transition::{crossfade, fade_to_black};

use crate::format::ColorSpace;
use serde::{Deserialize, Serialize};

#[cfg(test)]
thread_local! {
    /// Test-only switch set by `tests::per_pixel`: routes the row-slice
    /// kernels on this thread to their per-pixel oracles, so a composite
    /// kernel (zoom, grid, …) can be compared with itself run per pixel.
    static PER_PIXEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether this test thread runs the per-pixel oracles.
#[cfg(test)]
fn per_pixel_oracles() -> bool {
    PER_PIXEL.with(|c| c.get())
}

/// `v.round().clamp(0.0, 255.0) as u8` without the `roundf` call the
/// baseline x86-64 target makes for `f32::round`: clamp, truncate, and
/// round half away from zero by hand. Equal to that expression on every
/// f32, NaN included (both give 0).
#[inline]
fn round_u8(v: f32) -> u8 {
    let c = v.clamp(0.0, 255.0);
    let t = c as i32;
    (t + i32::from(c - t as f32 >= 0.5)) as u8
}

/// An 8-bit RGB colour.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Rgb {
    /// Red.
    pub r: u8,
    /// Green.
    pub g: u8,
    /// Blue.
    pub b: u8,
}

impl Rgb {
    /// Pure white.
    pub const WHITE: Rgb = Rgb::new(255, 255, 255);
    /// Pure black.
    pub const BLACK: Rgb = Rgb::new(0, 0, 0);
    /// Annotation red.
    pub const RED: Rgb = Rgb::new(230, 40, 40);
    /// Annotation green.
    pub const GREEN: Rgb = Rgb::new(40, 200, 80);
    /// Annotation yellow.
    pub const YELLOW: Rgb = Rgb::new(240, 220, 60);

    /// Builds a colour from components.
    pub const fn new(r: u8, g: u8, b: u8) -> Rgb {
        Rgb { r, g, b }
    }

    /// Perceptual luma (BT.709 weights).
    pub fn luma(self) -> u8 {
        let v = (218 * u32::from(self.r) + 732 * u32::from(self.g) + 74 * u32::from(self.b) + 512)
            >> 10;
        v.min(255) as u8
    }

    /// Converts to a YUV triple under the given colour space.
    pub fn to_yuv(self, cs: ColorSpace) -> (u8, u8, u8) {
        let (kr, kg, kb) = match cs {
            ColorSpace::Bt709 => (218i32, 732, 74),
            ColorSpace::Bt601 => (306, 601, 117),
        };
        let r = i32::from(self.r);
        let g = i32::from(self.g);
        let b = i32::from(self.b);
        let y = (kr * r + kg * g + kb * b + 512) >> 10;
        let u = ((b - y) * 512 / (1024 - kb)) + 128;
        let v = ((r - y) * 512 / (1024 - kr)) + 128;
        (
            y.clamp(0, 255) as u8,
            u.clamp(0, 255) as u8,
            v.clamp(0, 255) as u8,
        )
    }

    /// Squared distance to another colour in RGB space.
    pub fn dist_sq(self, other: Rgb) -> u32 {
        let dr = i32::from(self.r) - i32::from(other.r);
        let dg = i32::from(self.g) - i32::from(other.g);
        let db = i32::from(self.b) - i32::from(other.b);
        (dr * dr + dg * dg + db * db) as u32
    }
}

/// A detected-object bounding box with resolution-independent coordinates
/// in `[0, 1]` — the element type of `List⟨BoxCoord⟩` in the paper's
/// `BoundingBox(Frame, List⟨BoxCoord⟩)` operator.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct BoxCoord {
    /// Left edge, normalized.
    pub x: f32,
    /// Top edge, normalized.
    pub y: f32,
    /// Width, normalized.
    pub w: f32,
    /// Height, normalized.
    pub h: f32,
    /// Class / identity label drawn next to the box.
    #[serde(default)]
    pub label: String,
    /// Detector confidence in `[0, 1]`.
    #[serde(default)]
    pub confidence: f32,
}

impl BoxCoord {
    /// A labelled box.
    pub fn new(x: f32, y: f32, w: f32, h: f32, label: impl Into<String>) -> BoxCoord {
        BoxCoord {
            x,
            y,
            w,
            h,
            label: label.into(),
            confidence: 1.0,
        }
    }

    /// Pixel-space rectangle for a `width × height` frame.
    pub fn to_pixels(&self, width: usize, height: usize) -> (i64, i64, u32, u32) {
        let x = (self.x * width as f32).round() as i64;
        let y = (self.y * height as f32).round() as i64;
        let w = (self.w * width as f32).round().max(1.0) as u32;
        let h = (self.h * height as f32).round().max(1.0) as u32;
        (x, y, w, h)
    }
}

/// Grid composition shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct GridLayout {
    /// Number of columns.
    pub cols: u32,
    /// Number of rows.
    pub rows: u32,
}

impl GridLayout {
    /// The paper's `2×2` grid.
    pub const QUAD: GridLayout = GridLayout { cols: 2, rows: 2 };

    /// Total number of cells.
    pub fn cells(&self) -> usize {
        (self.cols * self.rows) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FrameType;
    use crate::frame::Frame;
    use proptest::prelude::*;

    /// Runs `f` with the row-slice kernels routed to their per-pixel
    /// oracles on this thread.
    pub(super) fn per_pixel<R>(f: impl FnOnce() -> R) -> R {
        PER_PIXEL.with(|c| c.set(true));
        let out = f();
        PER_PIXEL.with(|c| c.set(false));
        out
    }

    /// A frame type of format `0 = yuv420p, 1 = rgb24, 2 = gray8`.
    pub(super) fn frame_type(format: usize, w: u32, h: u32) -> FrameType {
        match format % 3 {
            0 => FrameType::yuv420p(w, h),
            1 => FrameType::rgb24(w, h),
            _ => FrameType::gray8(w, h),
        }
    }

    /// A frame whose content is drawn from `seed`: uniform noise, a ramp
    /// with light noise, or sparse 0/255 impulses on mid grey (the last
    /// drives sharpen and the blurs into both clamps).
    pub(super) fn seeded_frame(ty: FrameType, seed: u64) -> Frame {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mode = next() % 3;
        let mut f = Frame::black(ty);
        for p in f.planes_mut() {
            let (w, h) = (p.width(), p.height());
            for (i, v) in p.data_mut().iter_mut().enumerate() {
                let r = next();
                *v = match mode {
                    0 => r as u8,
                    1 => ((i % w) * 255 / w + (i / w) * 64 / h + (r % 16) as usize).min(255) as u8,
                    _ => match r % 8 {
                        0 => 0,
                        1 => 255,
                        _ => 128,
                    },
                };
            }
        }
        f
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// zoom, zoom_at, stabilize_crop, grid and picture_in_picture,
        /// through their public functions, equal themselves run on the
        /// per-pixel oracles.
        #[test]
        fn composite_kernels_match_per_pixel_oracles(
            seed in any::<u64>(),
            format in 0usize..3,
            w in 2u32..72,
            h in 2u32..72,
            knobs in (1.0f64..4.0, 0.0f32..1.0, 0.0f32..1.0, 0.01f32..1.0, 0.0f32..0.4),
        ) {
            let (factor, fx, fy, scale, margin) = knobs;
            let f = seeded_frame(frame_type(format, w, h), seed);
            let inset = seeded_frame(frame_type(format + 1, h, w), seed ^ 1);
            let cells: Vec<Frame> = (0..4)
                .map(|i| seeded_frame(frame_type(format + i, w + i as u32, h), seed ^ (2 + i as u64)))
                .collect();
            let run = || {
                vec![
                    zoom(&f, factor),
                    zoom_at(&f, factor, fx, fy),
                    stabilize_crop(&f, (fx - 0.5) * w as f32, (fy - 0.5) * h as f32, margin),
                    grid(&cells, GridLayout::QUAD, f.ty()),
                    grid(&cells[..3], GridLayout { cols: 3, rows: 1 }, frame_type(format + 2, w * 2, h)),
                    picture_in_picture(&f, &inset, fx, fy, scale),
                ]
            };
            let fast = run();
            let oracle = per_pixel(run);
            for (i, (a, b)) in fast.iter().zip(&oracle).enumerate() {
                prop_assert_eq!(a, b, "case {} over {:?}", i, f.ty());
            }
        }
    }

    fn round_clamp(v: f32) -> u8 {
        v.round().clamp(0.0, 255.0) as u8
    }

    #[test]
    fn round_u8_matches_round_clamp_sampled() {
        let mut cases = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e30,
            -1e30,
            4_294_967_296.0,
            -4_294_967_296.0,
        ];
        // Every k ± 0.5 neighbourhood, stepped one ulp at a time.
        for k in 0..=255u16 {
            for centre in [f32::from(k) - 0.5, f32::from(k) + 0.5] {
                let bits = centre.to_bits();
                for d in 0..=64u32 {
                    cases.push(f32::from_bits(bits.wrapping_add(d)));
                    cases.push(f32::from_bits(bits.wrapping_sub(d)));
                }
            }
            cases.push(f32::from(k));
        }
        for v in cases {
            assert_eq!(
                round_u8(v),
                round_clamp(v),
                "at {v:e} ({:#010x})",
                v.to_bits()
            );
        }
    }

    #[test]
    #[ignore = "exhaustive over all 2^32 f32 bit patterns; run with --release -- --ignored"]
    fn round_u8_matches_round_clamp_on_every_f32() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        std::thread::scope(|s| {
            for i in 0..threads {
                s.spawn(move || {
                    let end = ((i + 1) * span).min(1 << 32);
                    for bits in i * span..end {
                        let v = f32::from_bits(bits as u32);
                        assert_eq!(round_u8(v), round_clamp(v), "at bits {bits:#010x}");
                    }
                });
            }
        });
    }

    #[test]
    fn luma_weights() {
        assert_eq!(Rgb::WHITE.luma(), 255);
        assert_eq!(Rgb::BLACK.luma(), 0);
        assert!(Rgb::new(0, 255, 0).luma() > Rgb::new(255, 0, 0).luma());
    }

    #[test]
    fn box_to_pixels() {
        let b = BoxCoord::new(0.25, 0.5, 0.5, 0.25, "zebra");
        assert_eq!(b.to_pixels(100, 100), (25, 50, 50, 25));
        // Degenerate boxes keep at least one pixel.
        let tiny = BoxCoord::new(0.0, 0.0, 0.0001, 0.0001, "");
        let (_, _, w, h) = tiny.to_pixels(100, 100);
        assert_eq!((w, h), (1, 1));
    }

    #[test]
    fn grid_cells() {
        assert_eq!(GridLayout::QUAD.cells(), 4);
        assert_eq!(GridLayout { cols: 3, rows: 2 }.cells(), 6);
    }

    #[test]
    fn boxcoord_defaults() {
        let b = BoxCoord::new(0.1, 0.2, 0.3, 0.4, "car");
        assert_eq!(b.label, "car");
        assert_eq!(b.confidence, 1.0);
        assert_eq!(Rgb::new(10, 20, 30).dist_sq(Rgb::new(13, 16, 30)), 25);
    }
}
