//! Failure injection: corrupted container files and packet payloads must
//! surface errors, never panic or loop — in every byte format: sealed
//! `.svc`, `.svf` fragments and live `SVCL` files.

use proptest::prelude::*;
use std::path::Path;
use v2v_codec::CodecParams;
use v2v_container::{
    fragment_to_bytes, read_fragment, read_svc, read_svc_live, svc_to_bytes, ContainerError,
    Fragment, LiveWriter, StreamWriter, VideoStream,
};
use v2v_frame::{Frame, FrameType};
use v2v_time::{r, Rational};

fn sample_stream() -> VideoStream {
    let ty = FrameType::yuv420p(32, 32);
    let params = CodecParams::new(ty, 4, 2);
    let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
    for i in 0..10 {
        let mut f = Frame::black(ty);
        for v in f.plane_mut(0).data_mut() {
            *v = (i * 20 % 256) as u8;
        }
        w.push_frame(&f).unwrap();
    }
    w.finish().unwrap()
}

/// A file in a fresh directory of its own (test name + pid + counter):
/// cases of one test, tests of one binary and concurrent test processes
/// never share a path.
fn tmp(test: &str) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "v2v_corruption_{test}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("case.svc")
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// Reads a file in one byte format back as a stream.
type Reader = fn(&Path) -> Result<VideoStream, ContainerError>;

fn read_sealed(path: &Path) -> Result<VideoStream, ContainerError> {
    read_svc(path)
}

fn read_svf(path: &Path) -> Result<VideoStream, ContainerError> {
    read_fragment(path)?.into_stream()
}

/// The live reader, then the writer's recovery on the same bytes:
/// `open` must not panic either, and must keep exactly what was read.
fn read_live(path: &Path) -> Result<VideoStream, ContainerError> {
    let stream = read_svc_live(path)?;
    assert_eq!(LiveWriter::open(path)?.committed(), stream.len() as u64);
    let kept = read_svc_live(path)?;
    assert_eq!(kept.content_digest(), stream.content_digest());
    Ok(stream)
}

/// The sample stream in every byte format, each with its reader.
fn formats() -> Vec<(&'static str, Vec<u8>, Reader)> {
    let s = sample_stream();
    let live = tmp("live_source");
    let mut w = LiveWriter::create(&live, *s.params(), s.start(), s.frame_dur()).unwrap();
    w.append_packets(&s.packets()[..8]).unwrap();
    w.append_packets(&s.packets()[8..]).unwrap();
    let live_bytes = std::fs::read(&live).unwrap();
    cleanup(&live);
    vec![
        ("svc", svc_to_bytes(&s).unwrap(), read_sealed as Reader),
        (
            "svf",
            fragment_to_bytes(&Fragment::from_stream(&s)).unwrap(),
            read_svf,
        ),
        ("live", live_bytes, read_live),
    ]
}

/// Writes `bytes`, reads them back with `read`, and — if they load —
/// decodes every frame. Any outcome but a panic is acceptable.
fn load(test: &str, bytes: &[u8], read: Reader) {
    let path = tmp(test);
    std::fs::write(&path, bytes).unwrap();
    if let Ok(stream) = read(&path) {
        // Loaded despite the damage (payload-only, or a torn live tail):
        // decoding must not panic either, whatever it returns.
        let _ = stream.decode_range(0, stream.len());
    }
    cleanup(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flipping any single byte of a container file either still loads a
    /// structurally consistent stream or fails cleanly — no panics.
    #[test]
    fn single_byte_flip_never_panics(pos_frac in 0.0f64..1.0, xor in 1u8..=255) {
        for (name, mut bytes, read) in formats() {
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= xor;
            load(&format!("flip_{name}"), &bytes, read);
        }
    }

    /// Truncating a container file at any point fails cleanly or loads a
    /// consistent prefix.
    #[test]
    fn truncation_never_panics(keep_frac in 0.0f64..1.0) {
        for (name, bytes, read) in formats() {
            let keep = (bytes.len() as f64 * keep_frac) as usize;
            load(&format!("trunc_{name}"), &bytes[..keep], read);
        }
    }

    /// Random garbage is rejected (or at worst decodes to errors).
    #[test]
    fn random_garbage_rejected(data in prop::collection::vec(any::<u8>(), 0..512)) {
        for (name, _, read) in formats() {
            load(&format!("garbage_{name}"), &data, read);
        }
    }
}
