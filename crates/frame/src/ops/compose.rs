//! Multi-frame composition: grids, overlays, picture-in-picture.
//!
//! `Grid(Frame, Frame, Frame, Frame)` is one of the paper's flagship
//! transformations ("show me the event from multiple cameras as a 2×2
//! grid"); `Overlay` places an image (logo, sticker, annotation panel)
//! over a frame.

use super::scale::{conform, resize_bilinear};
use super::GridLayout;
use crate::format::{FrameType, PixelFormat};
use crate::frame::Frame;

/// Composes `inputs` into a `layout` grid of size `out_ty`.
///
/// Each input is conformed (scaled / format-converted) to its cell size.
/// Missing inputs (fewer frames than cells) leave black cells.
pub fn grid(inputs: &[Frame], layout: GridLayout, out_ty: FrameType) -> Frame {
    let mut out = Frame::black(out_ty);
    let cell_w = out_ty.width / layout.cols.max(1);
    let cell_h = out_ty.height / layout.rows.max(1);
    let cell_ty = out_ty.with_size(cell_w, cell_h);
    for (i, input) in inputs.iter().enumerate().take(layout.cells()) {
        let col = (i as u32) % layout.cols;
        let row = (i as u32) / layout.cols;
        let cell = conform(input.clone(), cell_ty);
        blit(
            &mut out,
            &cell,
            (col * cell_w) as usize,
            (row * cell_h) as usize,
        );
    }
    out
}

/// Copies `src` into `dst` with its top-left corner at `(x, y)`, clipped.
/// Both frames must share a pixel format.
pub fn blit(dst: &mut Frame, src: &Frame, x: usize, y: usize) {
    assert_eq!(
        dst.ty().format,
        src.ty().format,
        "blit requires matching formats"
    );
    // For yuv420p, snap to even offsets to keep chroma aligned.
    let (x, y) = if dst.ty().format == PixelFormat::Yuv420p {
        (x & !1, y & !1)
    } else {
        (x, y)
    };
    let n_planes = dst.planes().len();
    for pi in 0..n_planes {
        let (px, py, unit) = match (dst.ty().format, pi) {
            (PixelFormat::Yuv420p, 1) | (PixelFormat::Yuv420p, 2) => (x / 2, y / 2, 1),
            (PixelFormat::Rgb24, 0) => (x, y, 3),
            _ => (x, y, 1),
        };
        let src_p = src.plane(pi).clone();
        let dst_p = dst.plane_mut(pi);
        let copy_w = src_p.width().min(dst_p.width().saturating_sub(px * unit)) / unit * unit;
        let src_px_w = src_p.width();
        for row in 0..src_p.height() {
            let dy = py + row;
            if dy >= dst_p.height() {
                break;
            }
            let src_row = &src_p.row(row)[..copy_w.min(src_px_w)];
            let dst_row = dst_p.row_mut(dy);
            let off = px * unit;
            dst_row[off..off + src_row.len()].copy_from_slice(src_row);
        }
    }
}

/// Alpha-blends `image` over `base` at pixel position `(x, y)`.
///
/// `alpha` is global (`255` = fully opaque). The overlay is format
/// converted to match `base` first. This is the paper's
/// `Overlay(Frame, image_path)` with the image already loaded.
pub fn overlay(base: &Frame, image: &Frame, x: usize, y: usize, alpha: u8) -> Frame {
    let mut out = base.clone();
    let img = match base.ty().format {
        PixelFormat::Yuv420p => image.to_yuv420p(),
        PixelFormat::Rgb24 => image.to_rgb24(),
        PixelFormat::Gray8 => {
            let yuv = image.to_yuv420p();
            Frame::from_planes(
                FrameType::gray8(image.width() as u32, image.height() as u32),
                vec![yuv.plane(0).clone()],
            )
            .expect("luma plane matches gray type")
        }
    };
    if alpha == 255 {
        blit(&mut out, &img, x, y);
        return out;
    }
    let a = u16::from(alpha);
    let inv = 255 - a;
    let (x, y) = if base.ty().format == PixelFormat::Yuv420p {
        (x & !1, y & !1)
    } else {
        (x, y)
    };
    for pi in 0..out.planes().len() {
        let (px, py) = match (base.ty().format, pi) {
            (PixelFormat::Yuv420p, 1) | (PixelFormat::Yuv420p, 2) => (x / 2, y / 2),
            (PixelFormat::Rgb24, 0) => (x * 3, y),
            _ => (x, y),
        };
        let src_p = img.plane(pi);
        let dst_p = out.plane_mut(pi);
        for row in 0..src_p.height() {
            let dy = py + row;
            if dy >= dst_p.height() {
                break;
            }
            let src_row = src_p.row(row);
            let dst_row = dst_p.row_mut(dy);
            for (i, &sv) in src_row.iter().enumerate() {
                let dx = px + i;
                if dx >= dst_row.len() {
                    break;
                }
                let blended = (u16::from(sv) * a + u16::from(dst_row[dx]) * inv + 127) / 255;
                dst_row[dx] = blended as u8;
            }
        }
    }
    out
}

/// Scales `inset` to `scale` (a fraction of the base width) and overlays
/// it at a normalized position — a picture-in-picture composite.
pub fn picture_in_picture(
    base: &Frame,
    inset: &Frame,
    pos_x: f32,
    pos_y: f32,
    scale: f32,
) -> Frame {
    let w = ((base.width() as f32 * scale).max(2.0)) as u32;
    let aspect = inset.height() as f32 / inset.width() as f32;
    let h = ((f32::from(w as u16) * aspect).max(2.0)) as u32;
    let small = resize_bilinear(inset, w, h);
    let x = ((base.width() as f32 - w as f32) * pos_x.clamp(0.0, 1.0)) as usize;
    let y = ((base.height() as f32 - h as f32) * pos_y.clamp(0.0, 1.0)) as usize;
    overlay(base, &small, x, y, 255)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solid(ty: FrameType, luma: u8) -> Frame {
        let mut f = Frame::black(ty);
        for v in f.plane_mut(0).data_mut() {
            *v = luma;
        }
        f
    }

    #[test]
    fn quad_grid_places_inputs() {
        let ty = FrameType::gray8(16, 16);
        let inputs = vec![solid(ty, 10), solid(ty, 20), solid(ty, 30), solid(ty, 40)];
        let out = grid(&inputs, GridLayout::QUAD, FrameType::gray8(32, 32));
        assert_eq!(out.plane(0).get(4, 4), 10);
        assert_eq!(out.plane(0).get(20, 4), 20);
        assert_eq!(out.plane(0).get(4, 20), 30);
        assert_eq!(out.plane(0).get(20, 20), 40);
    }

    #[test]
    fn grid_with_missing_inputs_leaves_black() {
        let ty = FrameType::gray8(8, 8);
        let out = grid(
            &[solid(ty, 200)],
            GridLayout::QUAD,
            FrameType::gray8(16, 16),
        );
        assert_eq!(out.plane(0).get(2, 2), 200);
        assert_eq!(out.plane(0).get(12, 12), 0);
    }

    #[test]
    fn grid_scales_inputs_to_cells() {
        // 32x32 input into a 16x16 cell: still present.
        let input = solid(FrameType::gray8(32, 32), 99);
        let out = grid(&[input], GridLayout::QUAD, FrameType::gray8(32, 32));
        assert_eq!(out.plane(0).get(8, 8), 99);
    }

    #[test]
    fn grid_yuv_conforms_format() {
        let input = solid(FrameType::gray8(8, 8), 50);
        let out = grid(&[input], GridLayout::QUAD, FrameType::yuv420p(16, 16));
        assert_eq!(out.ty().format, PixelFormat::Yuv420p);
        assert_eq!(out.plane(0).get(2, 2), 50);
    }

    #[test]
    fn blit_clips_at_edges() {
        let mut dst = Frame::black(FrameType::gray8(8, 8));
        let src = solid(FrameType::gray8(4, 4), 70);
        blit(&mut dst, &src, 6, 6);
        assert_eq!(dst.plane(0).get(6, 6), 70);
        assert_eq!(dst.plane(0).get(7, 7), 70);
    }

    #[test]
    fn opaque_overlay_replaces_pixels() {
        let base = solid(FrameType::gray8(8, 8), 10);
        let img = solid(FrameType::gray8(2, 2), 200);
        let out = overlay(&base, &img, 2, 2, 255);
        assert_eq!(out.plane(0).get(2, 2), 200);
        assert_eq!(out.plane(0).get(0, 0), 10);
    }

    #[test]
    fn half_alpha_blends() {
        let base = solid(FrameType::gray8(4, 4), 0);
        let img = solid(FrameType::gray8(4, 4), 255);
        let out = overlay(&base, &img, 0, 0, 128);
        let v = out.plane(0).get(1, 1);
        assert!((120..=136).contains(&v), "expected ~128, got {v}");
    }

    #[test]
    fn overlay_converts_format() {
        let base = solid(FrameType::yuv420p(8, 8), 10);
        let img = solid(FrameType::gray8(4, 4), 200);
        let out = overlay(&base, &img, 0, 0, 255);
        assert_eq!(out.plane(0).get(0, 0), 200);
    }

    #[test]
    fn pip_lands_in_corner() {
        let base = solid(FrameType::gray8(32, 32), 0);
        let inset = solid(FrameType::gray8(16, 16), 250);
        let out = picture_in_picture(&base, &inset, 1.0, 1.0, 0.25);
        assert_eq!(out.plane(0).get(30, 30), 250);
        assert_eq!(out.plane(0).get(2, 2), 0);
    }
}
