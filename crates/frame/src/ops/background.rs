//! Background replacement by colour keying.
//!
//! A simple chroma-distance key: pixels within `tolerance` of the key
//! colour are replaced by the corresponding pixel of the replacement
//! frame. Runs in RGB space for colour fidelity, then converts back.

use super::scale::conform;
use super::Rgb;
use crate::frame::Frame;

/// Replaces pixels close to `key` with `background` (conformed to the
/// source geometry). `tolerance` is the maximum RGB distance (0–441).
pub fn replace_background(src: &Frame, background: &Frame, key: Rgb, tolerance: f32) -> Frame {
    let rgb = src.to_rgb24();
    let bg = conform(background.clone(), rgb.ty());
    let mut out = rgb.clone();
    let tol_sq = (tolerance * tolerance) as u32;
    let w = rgb.width();
    for y in 0..rgb.height() {
        let bg_row = bg.plane(0).row(y).to_vec();
        let row = out.plane_mut(0).row_mut(y);
        for x in 0..w {
            let px = Rgb::new(row[x * 3], row[x * 3 + 1], row[x * 3 + 2]);
            if px.dist_sq(key) <= tol_sq {
                row[x * 3] = bg_row[x * 3];
                row[x * 3 + 1] = bg_row[x * 3 + 1];
                row[x * 3 + 2] = bg_row[x * 3 + 2];
            }
        }
    }
    conform(out, src.ty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FrameType;

    #[test]
    fn keyed_pixels_are_replaced() {
        let ty = FrameType::rgb24(8, 8);
        let mut src = Frame::black(ty);
        // Left half green-screen, right half subject (red).
        for y in 0..8 {
            let row = src.plane_mut(0).row_mut(y);
            for x in 0..8 {
                if x < 4 {
                    row[x * 3 + 1] = 255;
                } else {
                    row[x * 3] = 200;
                }
            }
        }
        let mut bg = Frame::black(ty);
        for y in 0..8 {
            let row = bg.plane_mut(0).row_mut(y);
            for x in 0..8 {
                row[x * 3 + 2] = 250; // blue background
            }
        }
        let out = replace_background(&src, &bg, Rgb::new(0, 255, 0), 60.0);
        assert_eq!(out.rgb_at(1, 1), (0, 0, 250));
        assert_eq!(out.rgb_at(6, 6), (200, 0, 0));
    }

    #[test]
    fn zero_tolerance_requires_exact_match() {
        let ty = FrameType::rgb24(2, 1);
        let mut src = Frame::black(ty);
        src.plane_mut(0).row_mut(0)[..6].copy_from_slice(&[0, 255, 0, 0, 250, 0]);
        let bg = Frame::black(ty);
        let out = replace_background(&src, &bg, Rgb::new(0, 255, 0), 0.0);
        assert_eq!(out.rgb_at(0, 0), (0, 0, 0)); // exact key replaced
        assert_eq!(out.rgb_at(1, 0), (0, 250, 0)); // near-key survives
    }

    #[test]
    fn yuv_input_round_trips_format() {
        let src = Frame::black(FrameType::yuv420p(8, 8));
        let bg = Frame::black(FrameType::yuv420p(8, 8));
        let out = replace_background(&src, &bg, Rgb::BLACK, 10.0);
        assert_eq!(out.ty(), src.ty());
    }
}
