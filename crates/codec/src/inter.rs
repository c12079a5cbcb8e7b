//! Inter (delta frame) plane coding: block skip + temporal DPCM.
//!
//! The plane is tiled into 16×16 blocks. Blocks whose samples all sit
//! within a skip threshold of the reconstructed reference are *skipped*
//! (copied from the reference at zero bitstream cost) — the property that
//! makes static content nearly free and gives P-heavy GOPs their small
//! size. Changed blocks carry quantized temporal residuals.
//!
//! The encoder runs over block rows: the skip decision reduces each
//! block row with a branch-free max-of-abs-diff sweep (early exit at row
//! granularity — same decision as the per-pixel scan), and residual
//! coding quantizes a whole block row into scratch, through the plane's
//! reciprocal [`Quantizer`], before the serial entropy pass. Temporal
//! prediction has no intra-row dependence, so every sweep
//! autovectorizes. The encoder writes a block's residuals contiguously,
//! row by row, so the decoder reads each coded block with one
//! `RunDecoder::next_residuals` call into a block buffer it zeroes
//! first, then reconstructs the block's rows from it. The original
//! per-pixel implementation survives as the `tests` oracle.

// Panic-audit exemption: every index in these kernels derives from the
// block grid and plane geometry — never from a bitstream-controlled
// length. Wire-controlled lengths (the coded-block bitmap, residual
// runs) all flow through `Reader::bytes` and `RunDecoder`, which
// bounds-check, so the hot loops may stay branch-free.
#![allow(clippy::indexing_slicing)]

use crate::bitstream::{Reader, RunCoder, RunDecoder};
use crate::intra::Quantizer;
use crate::CodecError;
use v2v_frame::Plane;

/// Side of a skip/code block.
pub const BLOCK: usize = 16;

/// Skip threshold: maximum per-sample deviation tolerated when reusing
/// the reference block. Zero at `qstep == 1` keeps lossless mode exact.
fn skip_threshold(qstep: i32) -> i32 {
    qstep - 1
}

fn block_grid(w: usize, h: usize) -> (usize, usize) {
    (w.div_ceil(BLOCK), h.div_ceil(BLOCK))
}

/// Encodes one plane as an inter payload against `reference`, writing
/// the reconstruction into `recon` (every sample is overwritten), so
/// a reused spare buffer avoids a fresh allocation per frame.
pub fn encode_plane_into(
    cur: &Plane,
    reference: &Plane,
    qstep: i32,
    out: &mut Vec<u8>,
    recon: &mut Plane,
) {
    debug_assert_eq!(
        (cur.width(), cur.height()),
        (reference.width(), reference.height())
    );
    debug_assert_eq!((cur.width(), cur.height()), (recon.width(), recon.height()));
    let w = cur.width();
    let h = cur.height();
    let (bx_n, by_n) = block_grid(w, h);
    let n_blocks = bx_n * by_n;
    let thr = skip_threshold(qstep);

    // Pass 1: decide skip per block. Each block row reduces to a
    // branch-free max of absolute differences; the scan stops at the
    // first row whose max exceeds the threshold (same outcome as a
    // per-pixel early exit).
    let mut coded = vec![false; n_blocks];
    for by in 0..by_n {
        let y0 = by * BLOCK;
        let y1 = (y0 + BLOCK).min(h);
        for bx in 0..bx_n {
            let x0 = bx * BLOCK;
            let x1 = (x0 + BLOCK).min(w);
            for y in y0..y1 {
                let c = &cur.row(y)[x0..x1];
                let r = &reference.row(y)[x0..x1];
                let max = c
                    .iter()
                    .zip(r)
                    .map(|(a, b)| a.abs_diff(*b))
                    .fold(0u8, u8::max);
                if i32::from(max) > thr {
                    coded[by * bx_n + bx] = true;
                    break;
                }
            }
        }
    }

    // Bitmap of coded blocks.
    let mut bitmap = vec![0u8; n_blocks.div_ceil(8)];
    for (i, c) in coded.iter().enumerate() {
        if *c {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bitmap);

    // Pass 2: residuals for coded blocks; build the reconstruction by
    // overwriting a copy of the reference block-row by block-row.
    recon.data_mut().copy_from_slice(reference.data());
    let quantizer = Quantizer::new(qstep);
    let mut coder = RunCoder::new();
    let mut qseg = [0i32; BLOCK];
    for by in 0..by_n {
        let y0 = by * BLOCK;
        let y1 = (y0 + BLOCK).min(h);
        for bx in 0..bx_n {
            if !coded[by * bx_n + bx] {
                continue;
            }
            let x0 = bx * BLOCK;
            let x1 = (x0 + BLOCK).min(w);
            let n = x1 - x0;
            for y in y0..y1 {
                let c = &cur.row(y)[x0..x1];
                let r = &reference.row(y)[x0..x1];
                let rec = &mut recon.row_mut(y)[x0..x1];
                if qstep == 1 {
                    for i in 0..n {
                        qseg[i] = i32::from(c[i]) - i32::from(r[i]);
                    }
                    rec.copy_from_slice(c);
                } else {
                    for i in 0..n {
                        let pred = i32::from(r[i]);
                        let q = quantizer.quantize(i32::from(c[i]) - pred);
                        qseg[i] = q;
                        rec[i] = (pred + q * qstep).clamp(0, 255) as u8;
                    }
                }
                for &q in &qseg[..n] {
                    coder.push(out, q);
                }
            }
        }
    }
    coder.finish(out);
}

/// Decodes an inter payload against `reference` into a plane of the
/// reference's dimensions (every sample is overwritten).
pub fn decode_plane_into(
    reader: &mut Reader<'_>,
    reference: &Plane,
    qstep: i32,
    recon: &mut Plane,
) -> Result<(), CodecError> {
    let w = reference.width();
    let h = reference.height();
    debug_assert_eq!((w, h), (recon.width(), recon.height()));
    let (bx_n, by_n) = block_grid(w, h);
    let n_blocks = bx_n * by_n;
    let bitmap = reader.bytes(n_blocks.div_ceil(8))?;
    let coded = |i: usize| -> bool { bitmap[i / 8] & (1 << (i % 8)) != 0 };

    // Count coded samples for the run decoder.
    let mut total = 0u64;
    for by in 0..by_n {
        for bx in 0..bx_n {
            if coded(by * bx_n + bx) {
                let bw = (BLOCK).min(w - bx * BLOCK);
                let bh = (BLOCK).min(h - by * BLOCK);
                total += (bw * bh) as u64;
            }
        }
    }

    recon.data_mut().copy_from_slice(reference.data());
    let mut dec = RunDecoder::new(reader, total);
    let mut qblk = [0i32; BLOCK * BLOCK];
    for by in 0..by_n {
        let y0 = by * BLOCK;
        let y1 = (y0 + BLOCK).min(h);
        for bx in 0..bx_n {
            if !coded(by * bx_n + bx) {
                continue;
            }
            let x0 = bx * BLOCK;
            let x1 = (x0 + BLOCK).min(w);
            let n = x1 - x0;
            // The encoder writes a block's residuals row by row, so one
            // call reads the whole block into a buffer zeroed here.
            let qb = &mut qblk[..n * (y1 - y0)];
            qb.fill(0);
            dec.next_residuals(qb)?;
            for (y, q) in (y0..y1).zip(qb.chunks_exact(n)) {
                let r = &reference.row(y)[x0..x1];
                let rec = &mut recon.row_mut(y)[x0..x1];
                for i in 0..n {
                    rec[i] = (i32::from(r[i]) + q[i] * qstep).clamp(0, 255) as u8;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode_plane(cur: &Plane, reference: &Plane, qstep: i32, out: &mut Vec<u8>) -> Plane {
        let mut recon = Plane::new(cur.width(), cur.height());
        encode_plane_into(cur, reference, qstep, out, &mut recon);
        recon
    }

    fn decode_plane(
        reader: &mut Reader<'_>,
        reference: &Plane,
        qstep: i32,
    ) -> Result<Plane, CodecError> {
        let mut recon = Plane::new(reference.width(), reference.height());
        decode_plane_into(reader, reference, qstep, &mut recon)?;
        Ok(recon)
    }

    /// The original per-pixel implementation, kept verbatim as the
    /// bit-exactness oracle for the row-segment kernels above.
    mod scalar {
        use super::super::*;
        use crate::intra::quantize;

        pub fn encode_plane(
            cur: &Plane,
            reference: &Plane,
            qstep: i32,
            out: &mut Vec<u8>,
        ) -> Plane {
            let w = cur.width();
            let h = cur.height();
            let (bx_n, by_n) = block_grid(w, h);
            let n_blocks = bx_n * by_n;
            let thr = skip_threshold(qstep);
            let mut coded = vec![false; n_blocks];
            for by in 0..by_n {
                for bx in 0..bx_n {
                    let x0 = bx * BLOCK;
                    let y0 = by * BLOCK;
                    let x1 = (x0 + BLOCK).min(w);
                    let y1 = (y0 + BLOCK).min(h);
                    'block: for y in y0..y1 {
                        let c = cur.row(y);
                        let r = reference.row(y);
                        for x in x0..x1 {
                            if i32::from(c[x]).abs_diff(i32::from(r[x])) as i32 > thr {
                                coded[by * bx_n + bx] = true;
                                break 'block;
                            }
                        }
                    }
                }
            }
            let mut bitmap = vec![0u8; n_blocks.div_ceil(8)];
            for (i, c) in coded.iter().enumerate() {
                if *c {
                    bitmap[i / 8] |= 1 << (i % 8);
                }
            }
            out.extend_from_slice(&bitmap);
            let mut recon = reference.clone();
            let mut coder = RunCoder::new();
            for by in 0..by_n {
                for bx in 0..bx_n {
                    if !coded[by * bx_n + bx] {
                        continue;
                    }
                    let x0 = bx * BLOCK;
                    let y0 = by * BLOCK;
                    let x1 = (x0 + BLOCK).min(w);
                    let y1 = (y0 + BLOCK).min(h);
                    for y in y0..y1 {
                        for x in x0..x1 {
                            let residual =
                                i32::from(cur.get(x, y)) - i32::from(reference.get(x, y));
                            let q = quantize(residual, qstep);
                            coder.push(out, q);
                            let v =
                                (i32::from(reference.get(x, y)) + q * qstep).clamp(0, 255) as u8;
                            recon.put(x, y, v);
                        }
                    }
                }
            }
            coder.finish(out);
            recon
        }

        pub fn decode_plane(
            reader: &mut Reader<'_>,
            reference: &Plane,
            qstep: i32,
        ) -> Result<Plane, CodecError> {
            let w = reference.width();
            let h = reference.height();
            let (bx_n, by_n) = block_grid(w, h);
            let n_blocks = bx_n * by_n;
            let bitmap = reader.bytes(n_blocks.div_ceil(8))?.to_vec();
            let coded = |i: usize| -> bool { bitmap[i / 8] & (1 << (i % 8)) != 0 };
            let mut total = 0u64;
            for by in 0..by_n {
                for bx in 0..bx_n {
                    if coded(by * bx_n + bx) {
                        let bw = (BLOCK).min(w - bx * BLOCK);
                        let bh = (BLOCK).min(h - by * BLOCK);
                        total += (bw * bh) as u64;
                    }
                }
            }
            let mut recon = reference.clone();
            let mut dec = RunDecoder::new(reader, total);
            for by in 0..by_n {
                for bx in 0..bx_n {
                    if !coded(by * bx_n + bx) {
                        continue;
                    }
                    let x0 = bx * BLOCK;
                    let y0 = by * BLOCK;
                    let x1 = (x0 + BLOCK).min(w);
                    let y1 = (y0 + BLOCK).min(h);
                    for y in y0..y1 {
                        for x in x0..x1 {
                            let q = dec.next_residual()?;
                            let v =
                                (i32::from(reference.get(x, y)) + q * qstep).clamp(0, 255) as u8;
                            recon.put(x, y, v);
                        }
                    }
                }
            }
            Ok(recon)
        }
    }

    fn noisy_plane(w: usize, h: usize, seed: usize) -> Plane {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                p.put(x, y, ((x * 7 + y * 13 + seed * 31) % 251) as u8);
            }
        }
        p
    }

    fn round_trip(cur: &Plane, reference: &Plane, qstep: i32) -> (Plane, usize) {
        let mut buf = Vec::new();
        let recon = encode_plane(cur, reference, qstep, &mut buf);
        let size = buf.len();
        let mut r = Reader::new(&buf);
        let dec = decode_plane(&mut r, reference, qstep).unwrap();
        assert_eq!(recon, dec);
        (dec, size)
    }

    #[test]
    fn identical_frame_costs_only_bitmap() {
        let p = noisy_plane(64, 48, 0);
        let (dec, size) = round_trip(&p, &p, 1);
        assert_eq!(dec, p);
        let n_blocks: usize = 4 * 3;
        assert_eq!(size, n_blocks.div_ceil(8));
    }

    #[test]
    fn lossless_delta_round_trip() {
        let a = noisy_plane(48, 48, 1);
        let mut b = a.clone();
        // Change one block's worth of pixels.
        for y in 20..30 {
            for x in 20..30 {
                b.put(x, y, 255 - b.get(x, y));
            }
        }
        let (dec, _) = round_trip(&b, &a, 1);
        assert_eq!(dec, b);
    }

    #[test]
    fn only_changed_blocks_are_coded() {
        let a = noisy_plane(64, 64, 2);
        let mut b = a.clone();
        b.put(0, 0, b.get(0, 0).wrapping_add(100));
        let mut buf = Vec::new();
        encode_plane(&b, &a, 1, &mut buf);
        // 16 blocks → 2 bitmap bytes; only block 0 coded → small payload.
        assert!(buf.len() < 2 + 3 * 256, "payload too big: {}", buf.len());
        assert_eq!(buf[0] & 1, 1, "block 0 must be coded");
        assert_eq!(buf[0] & 2, 0, "block 1 must be skipped");
    }

    #[test]
    fn quantized_error_bounded_by_qstep() {
        let a = noisy_plane(32, 32, 3);
        let b = noisy_plane(32, 32, 4);
        for qstep in [2, 4, 8] {
            let (dec, _) = round_trip(&b, &a, qstep);
            for (x, y) in dec.data().iter().zip(b.data()) {
                assert!(u8::abs_diff(*x, *y) as i32 <= qstep);
            }
        }
    }

    #[test]
    fn skip_threshold_scales_with_qstep() {
        assert_eq!(skip_threshold(1), 0);
        assert_eq!(skip_threshold(5), 4);
    }

    #[test]
    fn non_multiple_of_block_dims() {
        let a = noisy_plane(37, 23, 5);
        let b = noisy_plane(37, 23, 6);
        let (dec, _) = round_trip(&b, &a, 1);
        assert_eq!(dec, b);
    }

    #[test]
    fn truncated_bitmap_errors() {
        let buf = [0u8; 1];
        let reference = Plane::new(64, 64); // 16 blocks → needs 2 bytes
        let mut r = Reader::new(&buf);
        assert!(decode_plane(&mut r, &reference, 1).is_err());
    }

    fn arb_plane_pair() -> impl Strategy<Value = (Plane, Plane)> {
        // A reference plane plus a perturbed current plane: some samples
        // nudged within the skip threshold, some blocks rewritten, so the
        // skip/code decision gets exercised both ways.
        (
            2usize..40,
            2usize..40,
            proptest::collection::vec(any::<u8>(), 40 * 40),
            proptest::collection::vec(any::<u8>(), 40 * 40),
        )
            .prop_map(|(w, h, base, delta)| {
                let reference = Plane::from_vec(w, h, base[..w * h].to_vec()).unwrap();
                let mut cur = reference.clone();
                for (i, d) in delta[..w * h].iter().enumerate() {
                    match d % 7 {
                        // Most samples untouched → skippable blocks.
                        0..=3 => {}
                        // Small nudge: within threshold for larger qsteps.
                        4 | 5 => {
                            let v = cur.data()[i];
                            cur.data_mut()[i] = v.wrapping_add(d % 3);
                        }
                        // Full rewrite: forces the block to be coded.
                        _ => cur.data_mut()[i] = d.wrapping_mul(37),
                    }
                }
                (reference, cur)
            })
    }

    proptest! {
        /// The vectorized inter coder emits the exact bytes and
        /// reconstruction of the per-pixel oracle: the same blocks skip,
        /// the same residuals code.
        #[test]
        fn vectorized_inter_matches_scalar(
            (reference, cur) in arb_plane_pair(),
            qstep in prop_oneof![Just(1i32), Just(2), Just(3), Just(5), Just(8)],
        ) {
            let mut fast_buf = Vec::new();
            let fast_recon = encode_plane(&cur, &reference, qstep, &mut fast_buf);
            let mut ref_buf = Vec::new();
            let ref_recon = scalar::encode_plane(&cur, &reference, qstep, &mut ref_buf);
            prop_assert_eq!(&fast_buf, &ref_buf);
            prop_assert_eq!(fast_recon, ref_recon);

            let mut r = Reader::new(&fast_buf);
            let fast_dec = decode_plane(&mut r, &reference, qstep).unwrap();
            let mut r = Reader::new(&ref_buf);
            let ref_dec = scalar::decode_plane(&mut r, &reference, qstep).unwrap();
            prop_assert_eq!(fast_dec, ref_dec);
        }
    }
}
