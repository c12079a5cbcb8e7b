#![warn(missing_docs)]

//! SVC — the Simple Video Codec.
//!
//! V2V's optimizations (paper §III-D) are profitable because of *codec
//! structure*: video is compressed in groups of pictures (GOPs) anchored
//! by self-contained keyframes (I-frames) followed by delta frames
//! (P-frames) that reference the previous frame. Re-encoding costs
//! O(pixels) of compute per frame; copying compressed packets costs a
//! memcpy. Decoding a frame mid-GOP requires decoding forward from the
//! preceding keyframe.
//!
//! The paper uses FFmpeg/H.264 for this substrate. This crate implements
//! SVC, a from-scratch codec with exactly that cost structure:
//!
//! * **I-frames** — per-plane DPCM spatial prediction from the left
//!   neighbour, uniform residual quantization, and run-length + varint
//!   entropy coding;
//! * **P-frames** — 16×16 block skip detection against the reconstructed
//!   reference plus DPCM-coded temporal residuals for changed blocks;
//! * **closed-loop quantization** — the encoder tracks the decoder's
//!   reconstruction, so there is no drift, and `quantizer = 0` is exactly
//!   lossless (which the test suite exploits for frame-exactness proofs);
//! * **one preset** — [`Preset::Ultrafast`], the paper's benchmark
//!   encoder setting.
//!
//! The bitstream is versioned and self-describing per packet; see
//! [`bitstream`] for the wire primitives.

pub mod bitstream;
pub mod decoder;
pub mod encoder;
mod inter;
mod intra;
pub mod packet;
pub mod params;

pub use decoder::Decoder;
pub use encoder::Encoder;
pub use packet::{Packet, PacketKind};
pub use params::{CodecParams, Preset};

/// Errors raised by encode/decode operations.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum CodecError {
    /// The packet bitstream is malformed or truncated.
    #[error("corrupt bitstream: {0}")]
    Corrupt(String),
    /// A delta frame arrived with no reference (decode must start at a
    /// keyframe).
    #[error("delta frame without a reference; seek to a keyframe first")]
    MissingReference,
    /// The frame handed to the encoder does not match the configured type.
    #[error("frame type {got} does not match codec params {want}")]
    FrameTypeMismatch {
        /// Supplied frame type.
        got: v2v_frame::FrameType,
        /// Configured frame type.
        want: v2v_frame::FrameType,
    },
    /// Packet belongs to an incompatible stream.
    #[error("packet stream parameters are incompatible with this codec instance")]
    IncompatibleStream,
}
