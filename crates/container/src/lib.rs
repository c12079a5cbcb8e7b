#![warn(missing_docs)]

//! Indexed container for SVC video streams.
//!
//! Plays the role FFmpeg's demuxer/muxer + keyframe index play for the
//! paper's execution engine:
//!
//! * [`VideoStream`] — an in-memory stream: codec parameters, a uniform
//!   timestamp grid (`start + k · frame_dur`), and the compressed packets
//!   with their keyframe index;
//! * GOP-aware access — `keyframe_at_or_before`, `next_keyframe_at_or_after`,
//!   [`VideoStream::decode_frame_at`] (seek to keyframe, roll forward) and
//!   [`VideoStream::decode_range`];
//! * packet-level **stream copy** — [`VideoStream::copy_packet_range`]
//!   clones compressed packets without touching raster data (the paper's
//!   "fastest class of video edits");
//! * [`StreamWriter`] — encodes frames and/or splices copied packets into
//!   a new stream, enforcing the keyframe-first splice rule;
//! * [`mod@file`] — a versioned on-disk format (`.svc`) with a JSON header
//!   and length-prefixed packet table;
//! * [`mod@live`] — the append-aware variant: checksummed GOP batches a
//!   [`LiveWriter`] commits while readers recover the committed prefix;
//! * [`mod@fragment`] — the checksummed `.svf` render-cache fragment and
//!   its `SVW1` cluster wire frame.
//!
//! All four byte formats share one private codec: one prelude (magic,
//! header length, JSON header) and one packet table, each written by one
//! function and read by one hardened parser.

mod codec;
pub mod digest;
pub mod file;
pub mod fragment;
pub mod live;
pub mod stream;
pub mod writer;

pub use digest::Fnv64;
pub use file::{read_svc, svc_from_bytes, svc_to_bytes, write_svc};
pub use fragment::{
    fragment_from_bytes, fragment_from_wire, fragment_to_bytes, fragment_to_wire, read_fragment,
    write_fragment, Fragment,
};
pub use live::{read_svc_live, LiveWriter};
pub use stream::VideoStream;
pub use writer::StreamWriter;

use v2v_time::Rational;

/// Errors raised by container operations.
#[derive(Debug, thiserror::Error)]
pub enum ContainerError {
    /// Codec-level failure while (de)coding packets.
    #[error("codec error: {0}")]
    Codec(#[from] v2v_codec::CodecError),
    /// The requested instant is not on the stream's grid.
    #[error("timestamp {0} is not a frame instant of this stream")]
    NotOnGrid(Rational),
    /// Attempted to splice streams with incompatible parameters.
    #[error("streams have incompatible codec parameters")]
    Incompatible,
    /// A spliced segment must begin with a keyframe.
    #[error("spliced packet range must start at a keyframe")]
    SpliceNotKeyframe,
    /// Packets must be appended in presentation order.
    #[error("packet timestamps must be strictly increasing on the grid")]
    OutOfOrder,
    /// A decode needed a keyframe to enter the stream and found none.
    #[error("no keyframe available to start decoding from")]
    NoKeyframe,
    /// Malformed or unsupported file contents.
    #[error("invalid container file: {0}")]
    BadFile(String),
    /// Underlying I/O failure.
    #[error("i/o error: {0}")]
    Io(#[from] std::io::Error),
}
