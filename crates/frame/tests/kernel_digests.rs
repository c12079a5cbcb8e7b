//! Pinned output bytes of the compose kernels.
//!
//! Each case runs one public kernel over a deterministic 320×180 frame in
//! each pixel format and folds the output into an FNV-64 digest. The
//! constants below were recorded from the per-pixel kernels; any change to
//! a kernel's arithmetic — operation order, rounding, edge clamping, the
//! channel-aware RGB path, chroma rounding on odd sizes — shows here as a
//! digest mismatch. The test never re-blesses itself: a mismatch prints
//! every computed digest and fails.

use v2v_frame::ops::{
    box_blur, gaussian_blur, grid, picture_in_picture, resize_bilinear, sharpen, stabilize_crop,
    zoom, zoom_at, GridLayout,
};
use v2v_frame::{Frame, FrameType, PixelFormat};

const W: u32 = 320;
const H: u32 = 180;

/// A deterministic frame: a diagonal gradient with a per-sample hash
/// texture on top, so every kernel sees both smooth ramps and edges.
fn test_frame(format: PixelFormat, seed: u64) -> Frame {
    let ty = FrameType::yuv420p(W, H).with_format(format);
    let mut f = Frame::black(ty);
    for pi in 0..format.plane_count() {
        let p = f.plane_mut(pi);
        let (pw, ph) = (p.width(), p.height());
        for y in 0..ph {
            for x in 0..pw {
                let mut h = seed ^ ((pi as u64) << 56) ^ ((y as u64) << 28) ^ x as u64;
                h = (h ^ (h >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h = (h ^ (h >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h ^= h >> 32;
                let ramp = (x * 255 / pw + y * 255 / ph) / 2;
                let v = ramp as i64 + (h % 96) as i64 - 48;
                p.put(x, y, v.clamp(0, 255) as u8);
            }
        }
    }
    f
}

fn fnv64(f: &Frame) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let ty = f.ty();
    let header = [ty.width, ty.height, ty.format.plane_count() as u32];
    let bytes = header.iter().flat_map(|v| v.to_le_bytes());
    for b in bytes.chain(f.planes().iter().flat_map(|p| p.data().iter().copied())) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn format_name(format: PixelFormat) -> &'static str {
    match format {
        PixelFormat::Yuv420p => "yuv420p",
        PixelFormat::Rgb24 => "rgb24",
        PixelFormat::Gray8 => "gray8",
    }
}

/// Every case over one format, as `(name, digest)`.
fn digests(format: PixelFormat) -> Vec<(&'static str, u64)> {
    let f = test_frame(format, 1);
    let inset = test_frame(format, 2);
    let others = [PixelFormat::Yuv420p, PixelFormat::Rgb24, PixelFormat::Gray8];
    let quad: Vec<Frame> = (0..4).map(|s| test_frame(format, 10 + s)).collect();
    let mixed: Vec<Frame> = (0..4)
        .map(|s| test_frame(others[s as usize % 3], 20 + s))
        .collect();
    vec![
        ("gaussian_blur 0.8", fnv64(&gaussian_blur(&f, 0.8))),
        ("gaussian_blur 1.2", fnv64(&gaussian_blur(&f, 1.2))),
        ("gaussian_blur 2.0", fnv64(&gaussian_blur(&f, 2.0))),
        ("box_blur 2", fnv64(&box_blur(&f, 2))),
        ("sharpen 0.7", fnv64(&sharpen(&f, 0.7))),
        ("resize down 1/2", fnv64(&resize_bilinear(&f, W / 2, H / 2))),
        (
            "resize up 1.5x",
            fnv64(&resize_bilinear(&f, W * 3 / 2, H * 3 / 2)),
        ),
        ("resize 213x127", fnv64(&resize_bilinear(&f, 213, 127))),
        ("zoom 1.7", fnv64(&zoom(&f, 1.7))),
        ("zoom_at 2.3", fnv64(&zoom_at(&f, 2.3, 0.3, 0.6))),
        (
            "stabilize_crop",
            fnv64(&stabilize_crop(&f, 3.5, -2.25, 0.1)),
        ),
        ("grid", fnv64(&grid(&quad, GridLayout::QUAD, f.ty()))),
        ("grid mixed", fnv64(&grid(&mixed, GridLayout::QUAD, f.ty()))),
        (
            "picture_in_picture",
            fnv64(&picture_in_picture(&f, &inset, 0.9, 0.1, 0.25)),
        ),
    ]
}

/// `(format, case, digest)` as recorded from the per-pixel kernels.
const PINNED: &[(&str, &str, u64)] = &[
    ("yuv420p", "gaussian_blur 0.8", 0x2ed446e03e50b57a),
    ("yuv420p", "gaussian_blur 1.2", 0xca6439f697a835ab),
    ("yuv420p", "gaussian_blur 2.0", 0x89adbd216878bbce),
    ("yuv420p", "box_blur 2", 0xb1bdaa475514a6a6),
    ("yuv420p", "sharpen 0.7", 0x393402354519515d),
    ("yuv420p", "resize down 1/2", 0xf76755ca4a307f02),
    ("yuv420p", "resize up 1.5x", 0x8f341e1a0d8a4f92),
    ("yuv420p", "resize 213x127", 0x6840d20fc6558615),
    ("yuv420p", "zoom 1.7", 0xb410091a6d367a57),
    ("yuv420p", "zoom_at 2.3", 0x7154b07c55f8dbc5),
    ("yuv420p", "stabilize_crop", 0xc989f9afb1c8a1ca),
    ("yuv420p", "grid", 0x2ae109fd629090ad),
    ("yuv420p", "grid mixed", 0x2fe4230ac11f5ee0),
    ("yuv420p", "picture_in_picture", 0x9f6f3aade2ddf658),
    ("rgb24", "gaussian_blur 0.8", 0xb75fd570ed36672b),
    ("rgb24", "gaussian_blur 1.2", 0x11c7d027044311a9),
    ("rgb24", "gaussian_blur 2.0", 0xe3a26d221a4e013a),
    ("rgb24", "box_blur 2", 0x6deb66b99255a774),
    ("rgb24", "sharpen 0.7", 0xbf26925aebcdbc3f),
    ("rgb24", "resize down 1/2", 0x7cc5af64ad09f006),
    ("rgb24", "resize up 1.5x", 0xfa193f03edf3de24),
    ("rgb24", "resize 213x127", 0x29b95d705d5841e2),
    ("rgb24", "zoom 1.7", 0x53c4a4776524d162),
    ("rgb24", "zoom_at 2.3", 0x4a5092153f465068),
    ("rgb24", "stabilize_crop", 0x285d43ff97872336),
    ("rgb24", "grid", 0x66e5affdd9fa68b4),
    ("rgb24", "grid mixed", 0x1553ec775469a341),
    ("rgb24", "picture_in_picture", 0x05e2c08814808002),
    ("gray8", "gaussian_blur 0.8", 0xdaa292b11374920c),
    ("gray8", "gaussian_blur 1.2", 0xfbe1c87d2f19c126),
    ("gray8", "gaussian_blur 2.0", 0x444f58c991e5dbff),
    ("gray8", "box_blur 2", 0x70e1d394b211f1b4),
    ("gray8", "sharpen 0.7", 0x6d16b0562364c379),
    ("gray8", "resize down 1/2", 0xc15441675d9476bd),
    ("gray8", "resize up 1.5x", 0x343706a889e1a99a),
    ("gray8", "resize 213x127", 0x5378e47b747b5d25),
    ("gray8", "zoom 1.7", 0x54dc3877727c534b),
    ("gray8", "zoom_at 2.3", 0x6671c102e7dd4018),
    ("gray8", "stabilize_crop", 0x8202b59a5eb461fa),
    ("gray8", "grid", 0x97ed471ba8babc80),
    ("gray8", "grid mixed", 0x436a686edba7da05),
    ("gray8", "picture_in_picture", 0x25acad2b0938c5d5),
];

#[test]
fn kernel_outputs_match_pinned_digests() {
    let mut got = Vec::new();
    for format in [PixelFormat::Yuv420p, PixelFormat::Rgb24, PixelFormat::Gray8] {
        for (case, d) in digests(format) {
            got.push((format_name(format), case, d));
        }
    }
    let table: Vec<String> = got
        .iter()
        .map(|(f, c, d)| format!("    ({f:?}, {c:?}, 0x{d:016x}),"))
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
        .filter(|(g, p)| (g.0, g.1, g.2) != (p.0, p.1, p.2))
        .map(|(g, p)| format!("{} {}: got 0x{:016x}, pinned 0x{:016x}", g.0, g.1, g.2, p.2))
        .collect();
    assert!(
        mismatched.is_empty(),
        "kernel output bytes changed:\n{}\ncomputed table:\n{}",
        mismatched.join("\n"),
        table.join("\n")
    );
}
