//! Codec configuration: stream parameters and the encoder preset.

use serde::{Deserialize, Serialize};
use v2v_frame::FrameType;

/// Encoder effort preset.
///
/// Mirrors the paper's benchmark environment ("the ultrafast encoding
/// preset"). It has one value: every container header and segment key
/// records it, so a header naming any other preset fails to parse.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Preset {
    /// Left-predicted intra rows, skip detection at the quantizer step.
    #[default]
    Ultrafast,
}

/// Immutable parameters of an SVC stream.
///
/// Two streams can be spliced by stream copy only if their params are
/// identical (the concat compatibility rule, paper §III-D "multiple
/// compatible video streams in the same codec can be concatenated").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CodecParams {
    /// Frame geometry and pixel format.
    pub frame_ty: FrameType,
    /// Keyframe interval in frames: every `gop_size`-th frame is an
    /// I-frame. `1` means all-intra.
    pub gop_size: u32,
    /// Residual quantizer: `0` is lossless; larger values coarsen
    /// residuals (step `quantizer + 1`) and shrink the bitstream.
    pub quantizer: u8,
    /// Encoder effort (always [`Preset::Ultrafast`]).
    #[serde(default)]
    pub preset: Preset,
}

impl CodecParams {
    /// Convenience constructor with the default preset.
    pub fn new(frame_ty: FrameType, gop_size: u32, quantizer: u8) -> CodecParams {
        assert!(gop_size >= 1, "gop_size must be at least 1");
        CodecParams {
            frame_ty,
            gop_size,
            quantizer,
            preset: Preset::Ultrafast,
        }
    }

    /// Quantization step derived from the quantizer.
    pub fn qstep(&self) -> i32 {
        i32::from(self.quantizer) + 1
    }

    /// `true` if streams with these params can be spliced without
    /// re-encoding. GOP size is an *encoder cadence* choice, not a
    /// property of the bitstream (the decoder reacts to per-packet
    /// keyframe flags), so it does not participate in compatibility.
    pub fn compatible_with(&self, other: &CodecParams) -> bool {
        self.frame_ty == other.frame_ty && self.quantizer == other.quantizer
    }

    /// `true` if frame `index` (0-based) is a keyframe position.
    pub fn is_keyframe_index(&self, index: u64) -> bool {
        // `max(1)` guards against params deserialized from hostile
        // headers, which bypass the `new` assertion: a zero GOP size must
        // not turn into a divide-by-zero panic mid-decode.
        index % u64::from(self.gop_size.max(1)) == 0
    }

    /// Validates parameters arriving from untrusted sources.
    ///
    /// Serde deserialization (container headers) bypasses the
    /// [`CodecParams::new`] assertion, so hostile files can carry any
    /// field values; callers parsing untrusted bytes run this before
    /// trusting the params. Returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        /// Per-axis pixel bound for untrusted headers: caps the largest
        /// frame allocation a hostile file can demand (~768 MiB of
        /// raster for 16384×16384 yuv420p) without constraining any
        /// realistic stream.
        const MAX_DIM: u32 = 1 << 14;
        if self.gop_size == 0 {
            return Err("gop_size must be at least 1".into());
        }
        let ty = self.frame_ty;
        if ty.width == 0 || ty.height == 0 {
            return Err(format!(
                "frame dimensions {}x{} must be nonzero",
                ty.width, ty.height
            ));
        }
        if ty.width > MAX_DIM || ty.height > MAX_DIM {
            return Err(format!(
                "frame dimensions {}x{} exceed the {MAX_DIM}x{MAX_DIM} limit",
                ty.width, ty.height
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qstep_is_one_when_lossless() {
        let p = CodecParams::new(FrameType::yuv420p(64, 64), 30, 0);
        assert_eq!(p.qstep(), 1);
        assert_eq!(
            CodecParams::new(FrameType::yuv420p(64, 64), 30, 4).qstep(),
            5
        );
    }

    #[test]
    fn keyframe_cadence() {
        let p = CodecParams::new(FrameType::yuv420p(64, 64), 24, 0);
        assert!(p.is_keyframe_index(0));
        assert!(!p.is_keyframe_index(1));
        assert!(p.is_keyframe_index(24));
        assert!(p.is_keyframe_index(48));
        let all_intra = CodecParams::new(FrameType::yuv420p(64, 64), 1, 0);
        assert!(all_intra.is_keyframe_index(7));
    }

    #[test]
    fn compatibility_is_exact_equality() {
        let a = CodecParams::new(FrameType::yuv420p(64, 64), 24, 2);
        let mut b = a;
        assert!(a.compatible_with(&b));
        b.quantizer = 3;
        assert!(!a.compatible_with(&b));
    }

    #[test]
    #[should_panic]
    fn zero_gop_rejected() {
        CodecParams::new(FrameType::yuv420p(64, 64), 0, 0);
    }

    #[test]
    fn validate_rejects_hostile_params() {
        let good = CodecParams::new(FrameType::yuv420p(64, 64), 30, 0);
        assert!(good.validate().is_ok());

        // Serde bypasses the constructor assertion, so a hostile header
        // can carry gop_size = 0; validate must catch it and the cadence
        // check must not divide by zero regardless.
        let mut zero_gop = good;
        zero_gop.gop_size = 0;
        assert!(zero_gop.validate().is_err());
        assert!(zero_gop.is_keyframe_index(0), "must not panic");

        let mut flat = good;
        flat.frame_ty.height = 0;
        assert!(flat.validate().is_err());

        let mut giant = good;
        giant.frame_ty.width = u32::MAX;
        assert!(giant.validate().is_err(), "hostile dims must be capped");
    }
}
