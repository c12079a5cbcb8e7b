//! Owned frame buffers and colour conversion.

use crate::format::{ColorSpace, FrameType, PixelFormat};
use std::fmt;

/// Errors raised by frame construction and conversion.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum FrameError {
    /// Buffer size does not match the frame type.
    #[error("buffer of {got} bytes does not match frame type needing {want}")]
    BufferSize {
        /// Bytes supplied.
        got: usize,
        /// Bytes required by the type.
        want: usize,
    },
    /// An operation received a frame of an unsupported format.
    #[error("unsupported pixel format {0} for this operation")]
    UnsupportedFormat(PixelFormat),
    /// Two frames that must agree in type do not.
    #[error("frame type mismatch: {0} vs {1}")]
    TypeMismatch(FrameType, FrameType),
}

/// One plane of raster data; `stride == width` always.
#[derive(Clone, PartialEq, Eq)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Plane {
    /// A zero-filled plane.
    pub fn new(width: usize, height: usize) -> Plane {
        Plane {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// A plane filled with `value`.
    pub fn filled(width: usize, height: usize, value: u8) -> Plane {
        Plane {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Wraps an existing buffer (must be exactly `width * height` bytes).
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Result<Plane, FrameError> {
        if data.len() != width * height {
            return Err(FrameError::BufferSize {
                got: data.len(),
                want: width * height,
            });
        }
        Ok(Plane {
            width,
            height,
            data,
        })
    }

    /// Plane width in samples.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in rows.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The raw samples, row-major.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the raw samples.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Sample at `(x, y)`; clamps out-of-range coordinates to the edge.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.data[y * self.width + x]
    }

    /// Sample at `(x, y)` without bounds adjustment.
    ///
    /// # Panics
    /// Panics when out of range.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    /// Writes the sample at `(x, y)`; out-of-range writes are ignored.
    #[inline]
    pub fn put(&mut self, x: usize, y: usize, v: u8) {
        if x < self.width && y < self.height {
            self.data[y * self.width + x] = v;
        }
    }

    /// One row of samples.
    pub fn row(&self, y: usize) -> &[u8] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// One mutable row of samples.
    pub fn row_mut(&mut self, y: usize) -> &mut [u8] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Row `y - 1` immutably together with row `y` mutably — the access
    /// pattern of closed-loop DPCM passes that predict each row from the
    /// previous reconstructed row.
    ///
    /// # Panics
    /// Panics when `y == 0` or `y >= height`.
    #[inline]
    pub fn row_pair_mut(&mut self, y: usize) -> (&[u8], &mut [u8]) {
        assert!(
            y > 0 && y < self.height,
            "row_pair_mut needs 0 < y < height"
        );
        let (above, below) = self.data.split_at_mut(y * self.width);
        (&above[(y - 1) * self.width..], &mut below[..self.width])
    }

    /// Bilinear sample at fractional coordinates (in sample units): the
    /// per-pixel oracle for `ops::resize_bilinear`'s table-driven loop.
    #[cfg(test)]
    pub(crate) fn sample_bilinear_per_pixel(&self, fx: f32, fy: f32) -> u8 {
        let x0 = fx.floor() as isize;
        let y0 = fy.floor() as isize;
        let dx = fx - x0 as f32;
        let dy = fy - y0 as f32;
        let p00 = self.get_clamped(x0, y0) as f32;
        let p10 = self.get_clamped(x0 + 1, y0) as f32;
        let p01 = self.get_clamped(x0, y0 + 1) as f32;
        let p11 = self.get_clamped(x0 + 1, y0 + 1) as f32;
        let v = p00 * (1.0 - dx) * (1.0 - dy)
            + p10 * dx * (1.0 - dy)
            + p01 * (1.0 - dx) * dy
            + p11 * dx * dy;
        v.round().clamp(0.0, 255.0) as u8
    }
}

impl fmt::Debug for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Plane({}x{})", self.width, self.height)
    }
}

/// An owned frame: a [`FrameType`] plus its planes.
#[derive(Clone, PartialEq, Eq)]
pub struct Frame {
    ty: FrameType,
    planes: Vec<Plane>,
}

impl Frame {
    /// A black frame of the given type (YUV black is `(16, 128, 128)`
    /// in video range; we use full-range `(0, 128, 128)`).
    pub fn black(ty: FrameType) -> Frame {
        let mut planes = Vec::with_capacity(ty.format.plane_count());
        for i in 0..ty.format.plane_count() {
            let (w, h) = ty
                .format
                .plane_dims(i, ty.width as usize, ty.height as usize);
            let fill = if ty.format == PixelFormat::Yuv420p && i > 0 {
                128
            } else {
                0
            };
            planes.push(Plane::filled(w, h, fill));
        }
        Frame { ty, planes }
    }

    /// Builds a frame from explicit planes.
    pub fn from_planes(ty: FrameType, planes: Vec<Plane>) -> Result<Frame, FrameError> {
        if planes.len() != ty.format.plane_count() {
            return Err(FrameError::BufferSize {
                got: planes.len(),
                want: ty.format.plane_count(),
            });
        }
        for (i, p) in planes.iter().enumerate() {
            let (w, h) = ty
                .format
                .plane_dims(i, ty.width as usize, ty.height as usize);
            if (p.width(), p.height()) != (w, h) {
                return Err(FrameError::BufferSize {
                    got: p.width() * p.height(),
                    want: w * h,
                });
            }
        }
        Ok(Frame { ty, planes })
    }

    /// The static type of this frame.
    pub fn ty(&self) -> FrameType {
        self.ty
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.ty.width as usize
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.ty.height as usize
    }

    /// All planes.
    pub fn planes(&self) -> &[Plane] {
        &self.planes
    }

    /// All planes, mutably.
    pub fn planes_mut(&mut self) -> &mut [Plane] {
        &mut self.planes
    }

    /// Plane `i`.
    pub fn plane(&self, i: usize) -> &Plane {
        &self.planes[i]
    }

    /// Plane `i`, mutably.
    pub fn plane_mut(&mut self, i: usize) -> &mut Plane {
        &mut self.planes[i]
    }

    /// Converts to `yuv420p` (no-op if already).
    pub fn to_yuv420p(&self) -> Frame {
        match self.ty.format {
            PixelFormat::Yuv420p => self.clone(),
            PixelFormat::Gray8 => {
                let ty = self.ty.with_format(PixelFormat::Yuv420p);
                let mut out = Frame::black(ty);
                out.planes[0] = self.planes[0].clone();
                out
            }
            PixelFormat::Rgb24 => rgb_to_yuv420p(self),
        }
    }

    /// Converts to `rgb24` (no-op if already).
    pub fn to_rgb24(&self) -> Frame {
        match self.ty.format {
            PixelFormat::Rgb24 => self.clone(),
            PixelFormat::Gray8 => {
                let w = self.width();
                let h = self.height();
                let mut data = Vec::with_capacity(w * h * 3);
                for y in 0..h {
                    for &v in self.planes[0].row(y) {
                        data.extend_from_slice(&[v, v, v]);
                    }
                }
                Frame::from_planes(
                    self.ty.with_format(PixelFormat::Rgb24),
                    vec![Plane::from_vec(w * 3, h, data).unwrap()],
                )
                .unwrap()
            }
            PixelFormat::Yuv420p => yuv420p_to_rgb(self),
        }
    }

    /// RGB triple at pixel `(x, y)` regardless of format (chroma upsampled
    /// for yuv420p). Intended for tests and markers, not hot loops.
    pub fn rgb_at(&self, x: usize, y: usize) -> (u8, u8, u8) {
        match self.ty.format {
            PixelFormat::Rgb24 => {
                let row = self.planes[0].row(y);
                (row[x * 3], row[x * 3 + 1], row[x * 3 + 2])
            }
            PixelFormat::Gray8 => {
                let v = self.planes[0].get(x, y);
                (v, v, v)
            }
            PixelFormat::Yuv420p => {
                let yv = self.planes[0].get(x, y);
                let u = self.planes[1].get(x / 2, y / 2);
                let v = self.planes[2].get(x / 2, y / 2);
                yuv_to_rgb_px(yv, u, v, self.ty.color)
            }
        }
    }

    /// Mean absolute per-sample difference across all planes; `None` when
    /// types differ. Zero means bit-identical raster data.
    pub fn mean_abs_diff(&self, other: &Frame) -> Option<f64> {
        if self.ty != other.ty {
            return None;
        }
        let mut total = 0u64;
        let mut n = 0u64;
        for (a, b) in self.planes.iter().zip(&other.planes) {
            for (x, y) in a.data().iter().zip(b.data()) {
                total += u64::from(x.abs_diff(*y));
                n += 1;
            }
        }
        Some(total as f64 / n as f64)
    }

    /// Peak signal-to-noise ratio in dB against `other`; `f64::INFINITY`
    /// for identical frames, `None` for type mismatches.
    pub fn psnr(&self, other: &Frame) -> Option<f64> {
        if self.ty != other.ty {
            return None;
        }
        let mut se = 0f64;
        let mut n = 0u64;
        for (a, b) in self.planes.iter().zip(&other.planes) {
            for (x, y) in a.data().iter().zip(b.data()) {
                let d = f64::from(*x) - f64::from(*y);
                se += d * d;
                n += 1;
            }
        }
        let mse = se / n as f64;
        Some(if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        })
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frame({})", self.ty)
    }
}

/// BT.709 / BT.601 full-range conversion coefficients (×1024 fixed point).
fn coeffs(cs: ColorSpace) -> (i32, i32, i32) {
    match cs {
        // Kr, Kg, Kb scaled by 1024.
        ColorSpace::Bt709 => (218, 732, 74),
        ColorSpace::Bt601 => (306, 601, 117),
    }
}

/// Full-range luma `Kr·R + Kg·G + Kb·B`, rounded. The weights sum to
/// 1024, so the result is at most 255.
pub(crate) fn luma_px(r: u8, g: u8, b: u8, cs: ColorSpace) -> i32 {
    let (kr, kg, kb) = coeffs(cs);
    (kr * i32::from(r) + kg * i32::from(g) + kb * i32::from(b) + 512) >> 10
}

pub(crate) fn rgb_to_yuv_px(r: u8, g: u8, b: u8, cs: ColorSpace) -> (u8, u8, u8) {
    let (kr, _, kb) = coeffs(cs);
    let y = luma_px(r, g, b, cs);
    let r = i32::from(r);
    let b = i32::from(b);
    // Full-range U/V scaled so that extremes map to [0,255] around 128.
    let kru = 1024 - kb; // 1 - Kb
    let krv = 1024 - kr; // 1 - Kr
    let u = ((b - y) * 512 / kru) + 128;
    let v = ((r - y) * 512 / krv) + 128;
    (
        y.clamp(0, 255) as u8,
        u.clamp(0, 255) as u8,
        v.clamp(0, 255) as u8,
    )
}

fn yuv_to_rgb_px(y: u8, u: u8, v: u8, cs: ColorSpace) -> (u8, u8, u8) {
    let (kr, kg, kb) = coeffs(cs);
    let y = i32::from(y);
    let cb = i32::from(u) - 128;
    let cr = i32::from(v) - 128;
    let kru = 1024 - kb;
    let krv = 1024 - kr;
    let r = y + (cr * krv) / 512;
    let b = y + (cb * kru) / 512;
    // G from the luma identity: Y = Kr·R + Kg·G + Kb·B.
    let g = (y * 1024 - kr * r - kb * b) / kg;
    (
        r.clamp(0, 255) as u8,
        g.clamp(0, 255) as u8,
        b.clamp(0, 255) as u8,
    )
}

fn rgb_to_yuv420p(src: &Frame) -> Frame {
    let w = src.width();
    let h = src.height();
    let ty = src.ty().with_format(PixelFormat::Yuv420p);
    let mut out = Frame::black(ty);
    let cs = src.ty().color;
    // Luma pass + accumulate chroma per 2x2 block.
    let cw = w.div_ceil(2);
    let ch = h.div_ceil(2);
    let mut us = vec![0u32; cw * ch];
    let mut vs = vec![0u32; cw * ch];
    let mut ns = vec![0u32; cw * ch];
    for y in 0..h {
        let row = src.plane(0).row(y);
        for x in 0..w {
            let (r, g, b) = (row[x * 3], row[x * 3 + 1], row[x * 3 + 2]);
            let (yy, uu, vv) = rgb_to_yuv_px(r, g, b, cs);
            out.plane_mut(0).put(x, y, yy);
            let ci = (y / 2) * cw + x / 2;
            us[ci] += u32::from(uu);
            vs[ci] += u32::from(vv);
            ns[ci] += 1;
        }
    }
    for ci in 0..cw * ch {
        let n = ns[ci].max(1);
        out.plane_mut(1).data_mut()[ci] = (us[ci] / n) as u8;
        out.plane_mut(2).data_mut()[ci] = (vs[ci] / n) as u8;
    }
    out
}

fn yuv420p_to_rgb(src: &Frame) -> Frame {
    let w = src.width();
    let h = src.height();
    let cs = src.ty().color;
    let mut data = Vec::with_capacity(w * h * 3);
    for y in 0..h {
        for x in 0..w {
            let yy = src.plane(0).get(x, y);
            let u = src.plane(1).get(x / 2, y / 2);
            let v = src.plane(2).get(x / 2, y / 2);
            let (r, g, b) = yuv_to_rgb_px(yy, u, v, cs);
            data.extend_from_slice(&[r, g, b]);
        }
    }
    Frame::from_planes(
        src.ty().with_format(PixelFormat::Rgb24),
        vec![Plane::from_vec(w * 3, h, data).unwrap()],
    )
    .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn black_frame_layout() {
        let f = Frame::black(FrameType::yuv420p(16, 10));
        assert_eq!(f.planes().len(), 3);
        assert_eq!(f.plane(0).width(), 16);
        assert_eq!(f.plane(1).width(), 8);
        assert_eq!(f.plane(1).height(), 5);
        assert!(f.plane(0).data().iter().all(|&v| v == 0));
        assert!(f.plane(1).data().iter().all(|&v| v == 128));
    }

    #[test]
    fn from_planes_validates() {
        let ty = FrameType::gray8(4, 4);
        assert!(Frame::from_planes(ty, vec![Plane::new(4, 4)]).is_ok());
        assert!(Frame::from_planes(ty, vec![Plane::new(4, 5)]).is_err());
        assert!(Frame::from_planes(ty, vec![]).is_err());
    }

    #[test]
    fn plane_access_and_clamping() {
        let mut p = Plane::new(4, 3);
        p.put(1, 1, 77);
        assert_eq!(p.get(1, 1), 77);
        assert_eq!(p.get_clamped(-5, -5), p.get(0, 0));
        assert_eq!(p.get_clamped(100, 100), p.get(3, 2));
        p.put(100, 100, 5); // ignored, no panic
    }

    #[test]
    fn bilinear_interpolates() {
        let p = Plane::from_vec(2, 1, vec![0, 100]).unwrap();
        assert_eq!(p.sample_bilinear_per_pixel(0.0, 0.0), 0);
        assert_eq!(p.sample_bilinear_per_pixel(1.0, 0.0), 100);
        assert_eq!(p.sample_bilinear_per_pixel(0.5, 0.0), 50);
    }

    #[test]
    fn rgb_yuv_round_trip_is_close() {
        // Build a colourful RGB frame, convert to yuv420p and back; the
        // round trip must stay close in PSNR terms (chroma subsampling is
        // lossy but bounded).
        let ty = FrameType::rgb24(32, 32);
        let mut f = Frame::black(ty);
        for y in 0..32 {
            for x in 0..32usize {
                let row = f.plane_mut(0).row_mut(y);
                row[x * 3] = (x * 8) as u8;
                row[x * 3 + 1] = (y * 8) as u8;
                row[x * 3 + 2] = ((x + y) * 4) as u8;
            }
        }
        let back = f.to_yuv420p().to_rgb24();
        let psnr = f.psnr(&back).unwrap();
        assert!(psnr > 25.0, "round trip PSNR too low: {psnr}");
    }

    #[test]
    fn gray_conversions() {
        let mut f = Frame::black(FrameType::gray8(4, 2));
        f.plane_mut(0).put(1, 0, 200);
        let rgb = f.to_rgb24();
        assert_eq!(rgb.rgb_at(1, 0), (200, 200, 200));
        let yuv = f.to_yuv420p();
        assert_eq!(yuv.plane(0).get(1, 0), 200);
        assert_eq!(yuv.plane(1).get(0, 0), 128);
    }

    #[test]
    fn identical_frames_have_infinite_psnr() {
        let f = Frame::black(FrameType::yuv420p(8, 8));
        assert_eq!(f.psnr(&f.clone()), Some(f64::INFINITY));
        assert_eq!(f.mean_abs_diff(&f.clone()), Some(0.0));
    }

    #[test]
    fn psnr_none_on_type_mismatch() {
        let a = Frame::black(FrameType::yuv420p(8, 8));
        let b = Frame::black(FrameType::yuv420p(8, 16));
        assert_eq!(a.psnr(&b), None);
    }

    #[test]
    fn neutral_gray_survives_round_trip_exactly() {
        let ty = FrameType::rgb24(8, 8);
        let mut f = Frame::black(ty);
        for b in f.plane_mut(0).data_mut() {
            *b = 128;
        }
        let back = f.to_yuv420p().to_rgb24();
        for y in 0..8 {
            for x in 0..8 {
                let (r, g, b) = back.rgb_at(x, y);
                assert!(r.abs_diff(128) <= 2 && g.abs_diff(128) <= 2 && b.abs_diff(128) <= 2);
            }
        }
    }
}
