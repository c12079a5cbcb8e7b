#![warn(missing_docs)]

//! Frame-centric baseline: what a Python + OpenCV script does.
//!
//! The paper's Fig. 5 compares V2V's data-join queries (Q5/Q10) against
//! "equivalent Python + OpenCV" scripts. The defining property of that
//! paradigm is *frame-at-a-time processing with no container-level
//! shortcuts*:
//!
//! * every frame of the clipped range is decoded (the codec is the same
//!   — "the encoding/decoding for the OpenCV scripts also used FFmpeg,
//!   so the codec overhead should be identical");
//! * every frame is converted to the script's working colour space
//!   (OpenCV scripts operate on BGR `ndarray`s) and back;
//! * the per-frame drawing call runs on every frame — including frames
//!   with an empty detection list;
//! * every frame is re-encoded; stream copying and data-aware rewriting
//!   are unavailable to the script.
//!
//! Cost-model fidelity note: we do *not* simulate Python interpreter
//! overhead — this baseline is a compiled, honest implementation of the
//! same algorithm, so measured gaps come from the paradigm (full
//! decode/convert/draw/encode), not from language overhead.

use std::time::{Duration, Instant};
use v2v_codec::CodecParams;
use v2v_container::{ContainerError, StreamWriter, VideoStream};
use v2v_data::{DataArray, Value};
use v2v_frame::ops;
use v2v_time::Rational;

/// Errors from baseline runs.
#[derive(Debug, thiserror::Error)]
pub enum BaselineError {
    /// Underlying container/codec failure.
    #[error(transparent)]
    Container(#[from] ContainerError),
    /// The requested range is outside the stream.
    #[error("frame range [{from}, {to}) outside stream of {len} frames")]
    BadRange {
        /// Range start.
        from: u64,
        /// Range end.
        to: u64,
        /// Stream length.
        len: u64,
    },
}

/// Cost accounting for a baseline run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BaselineStats {
    /// Output frames produced.
    pub frames: u64,
    /// Source packets decoded.
    pub frames_decoded: u64,
    /// Frames encoded.
    pub frames_encoded: u64,
    /// Per-frame draw calls issued (== frames; scripts do not skip).
    pub draw_calls: u64,
    /// Wall time.
    pub wall: Duration,
}

/// The per-frame operation the script applies.
pub enum ScriptOp<'a> {
    /// `cv2.rectangle` + `cv2.putText` from a detection array.
    DrawBoxes(&'a DataArray),
    /// `cv2.GaussianBlur`.
    Blur(f32),
    /// No-op (pure clip rewritten as a read/write loop).
    Copy,
}

/// Runs the frame-centric script over frames `[from, to)` of `stream`,
/// producing an output at `out_params`.
pub fn run_script(
    stream: &VideoStream,
    from: u64,
    to: u64,
    op: ScriptOp<'_>,
    out_params: CodecParams,
) -> Result<(VideoStream, BaselineStats), BaselineError> {
    let len = stream.len() as u64;
    if from >= to || to > len {
        return Err(BaselineError::BadRange { from, to, len });
    }
    let started = Instant::now();
    let mut stats = BaselineStats::default();
    let frame_dur = stream.frame_dur();
    let mut writer = StreamWriter::new(out_params, Rational::ZERO, frame_dur);

    // cv2.VideoCapture semantics: open, seek (decoder rolls from the
    // preceding keyframe), then read every frame sequentially.
    let (frames, decoded) = stream.decode_range(from as usize, to as usize)?;
    stats.frames_decoded = decoded as u64;

    for (i, frame) in frames.into_iter().enumerate() {
        // The script works on BGR arrays: convert in...
        let mut rgb = frame.to_rgb24();
        let t = stream.pts_of(from as usize + i).expect("in range");
        rgb = match &op {
            ScriptOp::DrawBoxes(array) => {
                stats.draw_calls += 1;
                // The script calls its draw function unconditionally;
                // drawing zero boxes still pays the conversion + call.
                let boxes = match array.get(t) {
                    Value::Boxes(b) => b.clone(),
                    _ => Vec::new(),
                };
                ops::draw_bounding_boxes(&rgb, &boxes)
            }
            ScriptOp::Blur(sigma) => {
                stats.draw_calls += 1;
                ops::gaussian_blur(&rgb, *sigma)
            }
            ScriptOp::Copy => rgb,
        };
        // ...and back out for the encoder.
        let out = ops::conform(rgb, out_params.frame_ty);
        writer.push_frame(&out)?;
        stats.frames_encoded += 1;
        stats.frames += 1;
    }
    let out = writer.finish()?;
    stats.wall = started.elapsed();
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_datasets::{detections, generate, kabr_sim, DetectionProfile, Scale};
    use v2v_frame::marker;

    #[test]
    fn baseline_decodes_and_encodes_everything() {
        let spec = kabr_sim(Scale::Test, 2);
        let stream = generate(&spec);
        let d = detections(&spec, DetectionProfile::kabr(), "zebra");
        let (out, stats) =
            run_script(&stream, 0, 60, ScriptOp::DrawBoxes(&d), spec.codec_params()).unwrap();
        assert_eq!(out.len(), 60);
        assert_eq!(stats.frames_encoded, 60);
        assert_eq!(stats.draw_calls, 60, "scripts draw on every frame");
        assert!(stats.frames_decoded >= 60);
    }

    #[test]
    fn baseline_is_frame_exact_modulo_color_round_trip() {
        // With q=0 sources the baseline's frames show the right content
        // (markers survive the RGB round trip).
        let mut spec = kabr_sim(Scale::Test, 1);
        spec.quantizer = 0;
        let stream = generate(&spec);
        let (out, _) = run_script(&stream, 10, 20, ScriptOp::Copy, spec.codec_params()).unwrap();
        let (frames, _) = out.decode_range(0, out.len()).unwrap();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(marker::read(f), Some(10 + i as u32), "frame {i}");
        }
    }

    #[test]
    fn bad_range_rejected() {
        let spec = kabr_sim(Scale::Test, 1);
        let stream = generate(&spec);
        assert!(matches!(
            run_script(&stream, 0, 99999, ScriptOp::Copy, spec.codec_params()),
            Err(BaselineError::BadRange { .. })
        ));
        assert!(matches!(
            run_script(&stream, 5, 5, ScriptOp::Copy, spec.codec_params()),
            Err(BaselineError::BadRange { .. })
        ));
    }
}
