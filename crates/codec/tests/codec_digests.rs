//! Pinned bytes of the SVC encoder and decoder.
//!
//! Each case encodes one deterministic 12-frame sequence and folds the
//! packets (keyframe flag, length, payload) into one FNV-64 digest and the
//! decoded frames into another. The sequence is built to reach every
//! branch of the residual coder: a static third (skipped blocks, long
//! zero runs, and rows flat or striped along the row), a slowly panning
//! textured third (dense one-byte pairs), a third of sparse noise over a
//! still background (short zero runs), constant rows (zero runs past 128
//! inside one intra row, so multi-byte runs), and a scene cut on a
//! P-frame that inverts everything (residuals above 63, so multi-byte
//! codes). The cases cover every pixel format at quantizers 0 and 2.
//!
//! The constants below were recorded before the run decoder's one-byte
//! fast path existed; any change to the bitstream or to reconstruction
//! shows here as a digest mismatch. The test never re-blesses itself: a
//! mismatch prints every computed digest and fails.

use v2v_codec::{CodecParams, Decoder, Encoder, Packet};
use v2v_frame::{Frame, FrameType, PixelFormat};
use v2v_time::Rational;

/// Not a multiple of the 16-sample block on either axis, so partial
/// blocks are coded too.
const W: u32 = 168;
const H: u32 = 56;
const FRAMES: u64 = 12;
const GOP: u32 = 6;
/// The first frame of the second scene: a P-frame (GOP 6 puts keyframes
/// at 0 and 6).
const CUT: u64 = 7;

fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 32)
}

fn sample_hash(seed: u64, pi: usize, x: usize, y: usize) -> u64 {
    mix(seed ^ ((pi as u64) << 56) ^ ((y as u64) << 28) ^ x as u64)
}

/// Frame `i` of the test sequence.
fn test_frame(format: PixelFormat, i: u64) -> Frame {
    let ty = FrameType::yuv420p(W, H).with_format(format);
    let mut f = Frame::black(ty);
    let scene = u64::from(i >= CUT);
    for pi in 0..format.plane_count() {
        let p = f.plane_mut(pi);
        let (pw, ph) = (p.width(), p.height());
        for y in 0..ph {
            for x in 0..pw {
                let h = sample_hash(scene, pi, x, y);
                let v = if y % 8 == 7 {
                    // A constant row: one zero run across the whole row,
                    // past 128 residuals (a two-byte run) where the row
                    // is wide enough.
                    40 + y as i64
                } else if x < pw / 3 {
                    // Static: the same every frame of a scene. Bands of
                    // vertical stripes (a residual at every sample)
                    // alternate with bands that are flat along the row.
                    if (y / 8) % 2 == 0 {
                        ((x * 37) % 200) as i64 + (h % 8) as i64 - 4
                    } else {
                        60 + 2 * y as i64 + (h % 4) as i64
                    }
                } else if x < 2 * pw / 3 {
                    // Slow pan: the texture moves one sample per frame.
                    let sx = x + i as usize;
                    let ramp = (sx * 200 / pw + y * 40 / ph) as i64;
                    ramp + (sample_hash(10 + scene, pi, sx, y) % 32) as i64 - 16
                } else {
                    // Sparse noise over a still background.
                    let base = 96 + (y * 64 / ph) as i64;
                    let h = sample_hash(100 + i, pi, x, y);
                    if h % 9 == 0 {
                        base + (h >> 8) as i64 % 11 - 5
                    } else {
                        base
                    }
                };
                let v = v.clamp(0, 255) as u8;
                p.put(x, y, if scene == 1 { 255 - v } else { v });
            }
        }
    }
    f
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn packet(&mut self, p: &Packet) {
        self.bytes(&[u8::from(p.keyframe)]);
        self.bytes(&(p.data.len() as u64).to_le_bytes());
        self.bytes(&p.data);
    }

    fn frame(&mut self, f: &Frame) {
        let ty = f.ty();
        for v in [ty.width, ty.height, ty.format.plane_count() as u32] {
            self.bytes(&v.to_le_bytes());
        }
        for p in f.planes() {
            self.bytes(p.data());
        }
    }
}

fn format_name(format: PixelFormat) -> &'static str {
    match format {
        PixelFormat::Yuv420p => "yuv420p",
        PixelFormat::Rgb24 => "rgb24",
        PixelFormat::Gray8 => "gray8",
    }
}

/// `(packets digest, decoded frames digest)` of one case.
fn digests(format: PixelFormat, quantizer: u8) -> (u64, u64) {
    let ty = FrameType::yuv420p(W, H).with_format(format);
    let params = CodecParams::new(ty, GOP, quantizer);
    let mut enc = Encoder::new(params);
    let mut dec = Decoder::new(params);
    let (mut packets, mut frames) = (Fnv::new(), Fnv::new());
    for i in 0..FRAMES {
        let p = enc
            .encode(&test_frame(format, i), Rational::new(i as i64, 30))
            .unwrap();
        packets.packet(&p);
        frames.frame(&dec.decode_shared(&p).unwrap());
    }
    (packets.0, frames.0)
}

/// `(format, quantizer, preset, packets, frames)` as recorded before the
/// run decoder's fast path.
const PINNED: &[(&str, u8, &str, u64, u64)] = &[
    (
        "yuv420p",
        0,
        "ultrafast",
        0xb25fe5c084aeb244,
        0xc4f79b250ea1cc58,
    ),
    (
        "yuv420p",
        2,
        "ultrafast",
        0x2349ab7226290aa6,
        0xf65e03399bc54574,
    ),
    (
        "rgb24",
        0,
        "ultrafast",
        0xb6ae70eb75368332,
        0x81589483a6ea60e9,
    ),
    (
        "rgb24",
        2,
        "ultrafast",
        0xe0d48f905508b8d6,
        0x1ea117fc12bc831e,
    ),
    (
        "gray8",
        0,
        "ultrafast",
        0x611f5dfc5d778029,
        0xee103a60e9106681,
    ),
    (
        "gray8",
        2,
        "ultrafast",
        0xf901d249258e0f82,
        0x252a83ed2dffecd4,
    ),
];

#[test]
fn codec_bytes_match_pinned_digests() {
    let mut got = Vec::new();
    for format in [PixelFormat::Yuv420p, PixelFormat::Rgb24, PixelFormat::Gray8] {
        for quantizer in [0u8, 2] {
            let (p, f) = digests(format, quantizer);
            got.push((format_name(format), quantizer, "ultrafast", p, f));
        }
    }
    let table: Vec<String> = got
        .iter()
        .map(|(f, q, s, p, d)| format!("    ({f:?}, {q}, {s:?}, 0x{p:016x}, 0x{d:016x}),"))
        .collect();
    assert_eq!(
        got.len(),
        PINNED.len(),
        "case list and pinned table differ in length; computed:\n{}",
        table.join("\n")
    );
    let mismatched: Vec<String> = got
        .iter()
        .zip(PINNED)
        .filter(|(g, p)| **g != **p)
        .map(|(g, p)| {
            format!(
                "{} q{} {}: got (0x{:016x}, 0x{:016x}), pinned (0x{:016x}, 0x{:016x})",
                g.0, g.1, g.2, g.3, g.4, p.3, p.4
            )
        })
        .collect();
    assert!(
        mismatched.is_empty(),
        "codec bytes changed:\n{}\ncomputed table:\n{}",
        mismatched.join("\n"),
        table.join("\n")
    );
}
