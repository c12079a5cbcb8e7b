//! Intra (keyframe) plane coding: spatial DPCM + quantization + run coding.
//!
//! Every sample predicts from its reconstructed left neighbour; the first
//! sample of a row from the one above it, and the first of the plane
//! from 128. Prediction is closed-loop (from *reconstructed* neighbours),
//! so encoder and decoder stay bit-identical at any quantizer and there
//! is no spatial drift.
//!
//! The DPCM chain carries a loop dependence (each pixel predicts from
//! the one just reconstructed), so the kernels stay serial, but run over
//! row slices instead of per-pixel accessors. Both encoders quantize
//! through the [`Quantizer`] defined here, a reciprocal multiply built
//! once per plane. On decode each row reads its residuals into a
//! scratch row, zeroed first, with one `RunDecoder::next_residuals`
//! call before reconstructing. The original per-pixel implementation
//! survives as the `tests` oracle.

// Panic-audit exemption: every index in these kernels derives from plane
// geometry (`w`, `h`, row slices) — never from a bitstream-controlled
// length. Wire-controlled lengths all flow through `Reader::bytes` and
// `RunDecoder`, which bounds-check, so the hot loops may stay
// branch-free.
#![allow(clippy::indexing_slicing)]

use crate::bitstream::{Reader, RunCoder, RunDecoder};
use crate::CodecError;
use v2v_frame::Plane;

/// Quantizes a residual with symmetric rounding: the scalar oracle of
/// [`Quantizer`].
#[cfg(test)]
pub(crate) fn quantize(r: i32, qstep: i32) -> i32 {
    if qstep == 1 {
        r
    } else if r >= 0 {
        (r + qstep / 2) / qstep
    } else {
        -((-r + qstep / 2) / qstep)
    }
}

/// One plane's residual quantizer: symmetric rounding division by
/// `qstep`, done as a multiply by a reciprocal computed once.
///
/// `((|r| + qstep / 2) · m) >> 32` with `m = ⌈2^32 / qstep⌉` equals the
/// division whenever `numerator · (m · qstep − 2^32) < 2^32`. That error
/// term is below `qstep ≤ 256`, so every numerator below `2^24` is
/// exact, and a residual of two `u8` samples keeps its numerator below
/// `2^9`. The sign is folded in arithmetically, so a sweep stays
/// branch-free.
#[derive(Clone, Copy)]
pub(crate) struct Quantizer {
    half: u64,
    recip: u64,
}

impl Quantizer {
    /// The quantizer for `qstep` (`1..=256`, from a `u8` quantizer).
    pub(crate) fn new(qstep: i32) -> Quantizer {
        debug_assert!((1..=256).contains(&qstep));
        let qstep = u64::from(qstep.unsigned_abs());
        Quantizer {
            half: qstep / 2,
            recip: (1u64 << 32).div_ceil(qstep),
        }
    }

    /// Quantizes one residual (`|r| ≤ 255`).
    #[inline]
    pub(crate) fn quantize(self, r: i32) -> i32 {
        let s = r >> 31;
        let a = u64::from(r.unsigned_abs());
        let q = (((a + self.half) * self.recip) >> 32) as i32;
        (q ^ s) - s
    }
}

/// Encodes one plane as an intra payload, writing the reconstruction the
/// decoder will produce into `recon` (every sample is overwritten), so
/// a reused spare buffer avoids a fresh allocation per frame.
pub fn encode_plane_into(plane: &Plane, qstep: i32, out: &mut Vec<u8>, recon: &mut Plane) {
    let w = plane.width();
    let h = plane.height();
    debug_assert_eq!((recon.width(), recon.height()), (w, h));
    let quantizer = Quantizer::new(qstep);
    let mut coder = RunCoder::new();
    for y in 0..h {
        let src = plane.row(y);
        // Serial DPCM chain: pixel x predicts from the value just
        // reconstructed at x-1; the first pixel of a row from the one
        // above it.
        let (mut pred, rec) = if y > 0 {
            let (prev, rec) = recon.row_pair_mut(y);
            (i32::from(prev[0]), rec)
        } else {
            (128, recon.row_mut(0))
        };
        for x in 0..w {
            let q = quantizer.quantize(i32::from(src[x]) - pred);
            coder.push(out, q);
            let v = (pred + q * qstep).clamp(0, 255) as u8;
            rec[x] = v;
            pred = i32::from(v);
        }
    }
    coder.finish(out);
}

/// Decodes an intra payload into a plane of the target dimensions
/// (every sample is overwritten).
pub fn decode_plane_into(
    reader: &mut Reader<'_>,
    qstep: i32,
    recon: &mut Plane,
) -> Result<(), CodecError> {
    let width = recon.width();
    let height = recon.height();
    let mut dec = RunDecoder::new(reader, (width * height) as u64);
    let mut qrow = vec![0i32; width];
    for y in 0..height {
        qrow.fill(0);
        dec.next_residuals(&mut qrow)?;
        let (mut pred, rec) = if y > 0 {
            let (prev, rec) = recon.row_pair_mut(y);
            (i32::from(prev[0]), rec)
        } else {
            (128, recon.row_mut(y))
        };
        for (r, &q) in rec.iter_mut().zip(&qrow) {
            let v = (pred + q * qstep).clamp(0, 255) as u8;
            *r = v;
            pred = i32::from(v);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode_plane(plane: &Plane, qstep: i32, out: &mut Vec<u8>) -> Plane {
        let mut recon = Plane::new(plane.width(), plane.height());
        encode_plane_into(plane, qstep, out, &mut recon);
        recon
    }

    fn decode_plane(
        reader: &mut Reader<'_>,
        width: usize,
        height: usize,
        qstep: i32,
    ) -> Result<Plane, CodecError> {
        let mut recon = Plane::new(width, height);
        decode_plane_into(reader, qstep, &mut recon)?;
        Ok(recon)
    }

    /// The original per-pixel implementation, kept verbatim as the
    /// bit-exactness oracle for the row-sliced kernels above.
    mod scalar {
        use super::super::*;

        #[inline]
        fn predict(recon: &Plane, x: usize, y: usize) -> i32 {
            if x > 0 {
                i32::from(recon.get(x - 1, y))
            } else if y > 0 {
                i32::from(recon.get(x, y - 1))
            } else {
                128
            }
        }

        pub fn encode_plane(plane: &Plane, qstep: i32, out: &mut Vec<u8>) -> Plane {
            let w = plane.width();
            let h = plane.height();
            let mut recon = Plane::new(w, h);
            let mut coder = RunCoder::new();
            for y in 0..h {
                for x in 0..w {
                    let pred = predict(&recon, x, y);
                    let residual = i32::from(plane.get(x, y)) - pred;
                    let q = quantize(residual, qstep);
                    coder.push(out, q);
                    let value = (pred + q * qstep).clamp(0, 255) as u8;
                    recon.put(x, y, value);
                }
            }
            coder.finish(out);
            recon
        }

        pub fn decode_plane(
            reader: &mut Reader<'_>,
            width: usize,
            height: usize,
            qstep: i32,
        ) -> Result<Plane, CodecError> {
            let mut recon = Plane::new(width, height);
            let mut dec = RunDecoder::new(reader, (width * height) as u64);
            for y in 0..height {
                for x in 0..width {
                    let pred = predict(&recon, x, y);
                    let q = dec.next_residual()?;
                    let value = (pred + q * qstep).clamp(0, 255) as u8;
                    recon.put(x, y, value);
                }
            }
            Ok(recon)
        }
    }

    fn gradient_plane(w: usize, h: usize) -> Plane {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                p.put(x, y, ((x * 3 + y * 5) % 256) as u8);
            }
        }
        p
    }

    fn round_trip(p: &Plane, qstep: i32) -> (Plane, usize) {
        let mut buf = Vec::new();
        let recon = encode_plane(p, qstep, &mut buf);
        let size = buf.len();
        let mut r = Reader::new(&buf);
        let dec = decode_plane(&mut r, p.width(), p.height(), qstep).unwrap();
        assert_eq!(recon, dec, "encoder recon must equal decoder output");
        (dec, size)
    }

    #[test]
    fn lossless_at_qstep_one() {
        let p = gradient_plane(33, 17);
        let (dec, _) = round_trip(&p, 1);
        assert_eq!(dec, p);
    }

    #[test]
    fn quantized_error_is_bounded() {
        let p = gradient_plane(32, 32);
        for qstep in [2, 3, 5, 9] {
            let (dec, _) = round_trip(&p, qstep);
            for (a, b) in p.data().iter().zip(dec.data()) {
                assert!(
                    i32::from(*a).abs_diff(i32::from(*b)) as i32 <= qstep,
                    "error beyond qstep bound"
                );
            }
        }
    }

    #[test]
    fn smooth_content_compresses() {
        // Flat rows have zero left-residuals after the first pixel: the
        // run coder collapses them to almost nothing.
        let mut p = Plane::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                p.put(x, y, (y * 4) as u8);
            }
        }
        let (_, size) = round_trip(&p, 1);
        assert!(size < 64 * 64 / 4, "flat rows should compress well: {size}");
        // A gradient still beats raw size even with per-pixel residuals.
        let mut g = Plane::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                g.put(x, y, (x * 4) as u8);
            }
        }
        // Dense nonzero residuals cost (run, value) pairs — bounded by
        // 2 bytes per sample, and quantization recovers the win.
        let (_, gsize) = round_trip(&g, 1);
        assert!(
            gsize <= 2 * 64 * 64 + 16,
            "gradient blew the bound: {gsize}"
        );
        let (_, gq) = round_trip(&g, 5);
        assert!(
            gq < gsize,
            "quantized gradient must shrink: {gq} vs {gsize}"
        );
    }

    #[test]
    fn quantize_is_symmetric() {
        for q in [2, 3, 5] {
            for r in -20..=20 {
                assert_eq!(quantize(-r, q), -quantize(r, q));
            }
        }
        assert_eq!(quantize(7, 1), 7);
    }

    #[test]
    fn reciprocal_quantizer_matches_division() {
        // Every qstep a `u8` quantizer gives, every residual two `u8`
        // samples can differ by.
        for qstep in 1..=256 {
            let quantizer = Quantizer::new(qstep);
            for r in -255..=255 {
                assert_eq!(
                    quantizer.quantize(r),
                    quantize(r, qstep),
                    "r={r} qstep={qstep}"
                );
            }
        }
    }

    #[test]
    fn truncated_payload_errors() {
        let p = gradient_plane(16, 16);
        let mut buf = Vec::new();
        encode_plane(&p, 1, &mut buf);
        // Chop a byte in the middle of the stream: decoding may hit a
        // malformed varint; it must not panic.
        if buf.len() > 4 {
            let cut = &buf[..buf.len() / 2];
            let mut r = Reader::new(cut);
            let _ = decode_plane(&mut r, 16, 16, 1);
        }
    }

    fn arb_plane() -> impl Strategy<Value = Plane> {
        // Dimensions and a max-size sample buffer (no flat_map needed:
        // the buffer is truncated to w*h).
        (
            1usize..48,
            1usize..48,
            proptest::collection::vec(any::<u8>(), 48 * 48),
        )
            .prop_map(|(w, h, data)| Plane::from_vec(w, h, data[..w * h].to_vec()).unwrap())
    }

    proptest! {
        /// The row-sliced encoder emits the exact bytes and
        /// reconstruction of the per-pixel oracle, for every plane and
        /// quantizer.
        #[test]
        fn vectorized_encode_matches_scalar(
            p in arb_plane(),
            qstep in prop_oneof![Just(1i32), Just(2), Just(3), Just(5), Just(8), Just(13)],
        ) {
            let mut fast_buf = Vec::new();
            let fast_recon = encode_plane(&p, qstep, &mut fast_buf);
            let mut ref_buf = Vec::new();
            let ref_recon = scalar::encode_plane(&p, qstep, &mut ref_buf);
            prop_assert_eq!(&fast_buf, &ref_buf);
            prop_assert_eq!(fast_recon, ref_recon);

            let mut r = Reader::new(&fast_buf);
            let fast_dec = decode_plane(&mut r, p.width(), p.height(), qstep).unwrap();
            let mut r = Reader::new(&ref_buf);
            let ref_dec = scalar::decode_plane(&mut r, p.width(), p.height(), qstep).unwrap();
            prop_assert_eq!(fast_dec, ref_dec);
        }
    }
}
