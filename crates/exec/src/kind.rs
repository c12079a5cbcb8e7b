//! The cross-layer error vocabulary.
//!
//! [`ErrorKind`] is the one table of machine-readable error classes.
//! Every failure is classified once, where it is raised or converted:
//! a degraded run's [`SegmentFault::kind`](crate::SegmentFault::kind),
//! the unified `v2v_core::V2vError` and `v2v_store::StoreError::kind`
//! all classify through the functions here, so a failure reads the same
//! in a fault report, a daemon error body (whose status the daemon maps
//! from the kind) and a CLI exit code.

use crate::ExecError;
use serde::{Deserialize, Serialize};
use v2v_codec::CodecError;
use v2v_container::ContainerError;

/// Stable machine-readable error classes. Serialized in snake case
/// (`corrupt_data`, …) in error reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ErrorKind {
    /// Malformed or hostile input bytes: corrupt packets, truncated
    /// files, lying headers.
    CorruptData,
    /// An I/O failure (real or injected) reading or writing data.
    Io,
    /// A referenced resource (video, image, UDF, table) does not exist.
    NotFound,
    /// The spec or plan asked for something invalid (bad argument,
    /// frame off the grid, incompatible streams).
    InvalidRequest,
    /// Static checking or planning rejected the query.
    Plan,
    /// A user-supplied kernel (UDF) failed.
    Udf,
    /// Anything else: internal invariants, unclassified wrappers.
    Internal,
}

impl ErrorKind {
    /// Stable lowercase name, the same token the serde encoding uses.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::CorruptData => "corrupt_data",
            ErrorKind::Io => "io",
            ErrorKind::NotFound => "not_found",
            ErrorKind::InvalidRequest => "invalid_request",
            ErrorKind::Plan => "plan",
            ErrorKind::Udf => "udf",
            ErrorKind::Internal => "internal",
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Classifies a codec error.
pub fn codec_kind(e: &CodecError) -> ErrorKind {
    match e {
        // Malformed bytes, or delta packets fed without their reference
        // (which is what decoding a damaged stream looks like).
        CodecError::Corrupt(_) | CodecError::MissingReference => ErrorKind::CorruptData,
        CodecError::FrameTypeMismatch { .. } | CodecError::IncompatibleStream => {
            ErrorKind::InvalidRequest
        }
    }
}

/// Classifies a container error.
pub fn container_kind(e: &ContainerError) -> ErrorKind {
    match e {
        ContainerError::Io(_) => ErrorKind::Io,
        ContainerError::Codec(_) | ContainerError::BadFile(_) | ContainerError::NoKeyframe => {
            ErrorKind::CorruptData
        }
        ContainerError::NotOnGrid(_)
        | ContainerError::Incompatible
        | ContainerError::SpliceNotKeyframe
        | ContainerError::OutOfOrder => ErrorKind::InvalidRequest,
    }
}

/// Classifies an execution error by its innermost cause.
pub fn exec_kind(e: &ExecError) -> ErrorKind {
    match e {
        ExecError::UnknownVideo(_) | ExecError::UnknownImage(_) | ExecError::UnknownUdf(_) => {
            ErrorKind::NotFound
        }
        ExecError::UdfFailed { .. } => ErrorKind::Udf,
        ExecError::MissingFrame { .. } | ExecError::BadArgument { .. } => ErrorKind::InvalidRequest,
        ExecError::SourceIo { .. } => ErrorKind::Io,
        ExecError::Codec(c) => codec_kind(c),
        ExecError::Container(c) => container_kind(c),
        ExecError::Plan(_) => ErrorKind::Plan,
    }
}
