//! The unified V2V error taxonomy.
//!
//! Every layer of the system has its own error enum — [`CodecError`]
//! for bitstream parsing, [`ContainerError`] for `.svc` files,
//! [`ExecError`] for execution, [`PlanError`] for planning — and each
//! is precise within its layer but opaque across layers: a caller
//! embedding the engine would see a chain of wrappers with no stable
//! way to ask "was this corrupt input or a missing file?".
//!
//! [`V2vError`] is the cross-layer answer, and the only error type from
//! the engine up to the daemon's status codes and the CLI's exit codes.
//! Each one carries
//!
//! * a machine-readable [`ErrorKind`] (stable, serializable, safe to
//!   match on across releases), picked once, where the failure is
//!   raised, from the one classification table in `v2v_exec::kind`,
//! * the source location that raised or converted it (via
//!   `#[track_caller]`, which `?` honours), so a report points at the
//!   raise site rather than at an error-constructor helper,
//! * an optional message naming what was being done, and
//! * the failing layer's error as a boxed [`std::error::Error`] source,
//!   so `Error::source()` walks and downcasts keep working.
//!
//! The `From` impls classify through the table, so `?` conversion does
//! the right thing without per-call-site ceremony.

use std::error::Error as StdError;
use std::panic::Location;
use v2v_codec::CodecError;
use v2v_container::ContainerError;
use v2v_exec::{codec_kind, container_kind, exec_kind, ExecError};
use v2v_plan::PlanError;

/// Stable machine-readable error classes, the cross-layer vocabulary of
/// [`V2vError::kind`] (owned by `v2v-exec`, whose fault reports speak it
/// too).
pub use v2v_exec::ErrorKind;

/// The unified error: a classified, located wrapper around any layer's
/// error.
#[derive(Debug)]
pub struct V2vError {
    kind: ErrorKind,
    /// What was being done, when the raise site says more than the
    /// source does.
    message: Option<String>,
    /// Where the error was raised, or wrapped into a `V2vError`.
    location: &'static Location<'static>,
    source: Option<Box<dyn StdError + Send + Sync + 'static>>,
}

impl V2vError {
    /// A fresh error with no underlying source.
    #[track_caller]
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> V2vError {
        V2vError {
            kind,
            message: Some(message.into()),
            location: Location::caller(),
            source: None,
        }
    }

    /// Wraps an arbitrary error under an explicit kind.
    #[track_caller]
    pub fn wrap(kind: ErrorKind, source: impl StdError + Send + Sync + 'static) -> V2vError {
        V2vError {
            kind,
            message: None,
            location: Location::caller(),
            source: Some(Box::new(source)),
        }
    }

    /// A message with the failing layer's error kept as its source.
    #[track_caller]
    pub fn with_source(
        kind: ErrorKind,
        message: impl Into<String>,
        source: impl StdError + Send + Sync + 'static,
    ) -> V2vError {
        V2vError {
            kind,
            message: Some(message.into()),
            location: Location::caller(),
            source: Some(Box::new(source)),
        }
    }

    /// The machine-readable class.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// Source location where the error was raised or wrapped.
    pub fn location(&self) -> &'static Location<'static> {
        self.location
    }
}

impl std::fmt::Display for V2vError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] ", self.kind.name())?;
        match (&self.message, &self.source) {
            (Some(m), Some(s)) => write!(f, "{m}: {s}"),
            (Some(m), None) => f.write_str(m),
            (None, Some(s)) => write!(f, "{s}"),
            (None, None) => Ok(()),
        }?;
        write!(f, " (at {}:{})", self.location.file(), self.location.line())
    }
}

impl StdError for V2vError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        self.source
            .as_deref()
            .map(|s| s as &(dyn StdError + 'static))
    }
}

impl From<CodecError> for V2vError {
    #[track_caller]
    fn from(e: CodecError) -> V2vError {
        V2vError::wrap(codec_kind(&e), e)
    }
}

impl From<ContainerError> for V2vError {
    #[track_caller]
    fn from(e: ContainerError) -> V2vError {
        V2vError::wrap(container_kind(&e), e)
    }
}

impl From<ExecError> for V2vError {
    #[track_caller]
    fn from(e: ExecError) -> V2vError {
        V2vError::wrap(exec_kind(&e), e)
    }
}

impl From<PlanError> for V2vError {
    #[track_caller]
    fn from(e: PlanError) -> V2vError {
        V2vError::wrap(ErrorKind::Plan, e)
    }
}

impl From<std::io::Error> for V2vError {
    #[track_caller]
    fn from(e: std::io::Error) -> V2vError {
        V2vError::wrap(ErrorKind::Io, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_stable_across_layers() {
        let corrupt: V2vError = CodecError::Corrupt("bad run".into()).into();
        assert_eq!(corrupt.kind(), ErrorKind::CorruptData);

        let bad_file: V2vError = ContainerError::BadFile("oversized header".into()).into();
        assert_eq!(bad_file.kind(), ErrorKind::CorruptData);

        let io: V2vError = ContainerError::Io(std::io::Error::other("disk gone")).into();
        assert_eq!(io.kind(), ErrorKind::Io);

        let missing: V2vError = ExecError::UnknownVideo("ghost".into()).into();
        assert_eq!(missing.kind(), ErrorKind::NotFound);

        // Nested: an exec error wrapping a codec error classifies by the
        // innermost cause.
        let nested: V2vError =
            ExecError::Codec(v2v_codec::CodecError::Corrupt("truncated".into())).into();
        assert_eq!(nested.kind(), ErrorKind::CorruptData);
    }

    #[test]
    fn display_carries_kind_location_and_context() {
        let err = V2vError::new(ErrorKind::CorruptData, "packet 3 truncated");
        let text = err.to_string();
        assert!(text.starts_with("[corrupt_data] "), "{text}");
        assert!(text.contains("packet 3 truncated"), "{text}");
        assert!(text.contains("error.rs"), "location missing: {text}");
    }

    #[test]
    fn source_chain_survives_wrapping() {
        let err: V2vError = ExecError::UnknownVideo("ghost".into()).into();
        let src = std::error::Error::source(&err).expect("source kept");
        assert!(src.to_string().contains("ghost"));
    }

    #[test]
    fn kind_serializes_snake_case() {
        assert_eq!(
            serde_json::to_string(&ErrorKind::CorruptData).unwrap(),
            "\"corrupt_data\""
        );
        let back: ErrorKind = serde_json::from_str("\"not_found\"").unwrap();
        assert_eq!(back, ErrorKind::NotFound);
    }
}
