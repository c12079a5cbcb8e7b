//! Shared fixtures for the V2V integration tests (see `tests/tests/`).

use v2v_container::VideoStream;
use v2v_frame::{marker, Frame, FrameType};
use v2v_time::{r, Rational};

/// A lossless gray stream whose frames carry index markers.
pub fn marked_stream(n: usize, gop: u32) -> VideoStream {
    let ty = FrameType::gray8(64, 32);
    let params = v2v_codec::CodecParams::new(ty, gop, 0);
    let mut w = v2v_container::StreamWriter::new(params, Rational::ZERO, r(1, 30));
    for i in 0..n {
        let mut f = Frame::black(ty);
        marker::embed(&mut f, i as u32);
        w.push_frame(&f).unwrap();
    }
    w.finish().unwrap()
}

/// Output settings matching [`marked_stream`] so copies stay legal.
pub fn marked_output() -> v2v_spec::OutputSettings {
    v2v_spec::OutputSettings {
        frame_ty: FrameType::gray8(64, 32),
        frame_dur: r(1, 30),
        gop_size: 30,
        quantizer: 0,
    }
}

/// Reads the marker of every decoded frame.
pub fn markers_of(stream: &VideoStream) -> Vec<Option<u32>> {
    let (frames, _) = stream.decode_range(0, stream.len()).unwrap();
    frames.iter().map(marker::read).collect()
}

/// A fresh scratch directory per call: tag + pid + counter, so no two
/// tests (or two calls sharing a tag) ever collide. Not created; any
/// stale directory of that name is removed.
pub fn temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "v2v_it_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
