//! The unified V2V error taxonomy.
//!
//! Every layer of the system has its own error enum — [`CodecError`]
//! for bitstream parsing, [`ContainerError`] for `.svc` files,
//! [`ExecError`] for execution, [`EngineError`] for the pipeline — and
//! each is precise within its layer but opaque across layers: a caller
//! embedding the engine sees a chain of `#[from]` wrappers with no
//! stable way to ask "was this corrupt input or a missing file?".
//!
//! [`V2vError`] is the cross-layer answer: any lower-level error wraps
//! into one carrying
//!
//! * a machine-readable [`ErrorKind`] (stable, serializable, safe to
//!   match on across releases),
//! * the source location that did the wrapping (via
//!   `#[track_caller]`), so a report points at the call site rather
//!   than at an error-constructor helper,
//! * free-form context pushed by intermediate layers
//!   ([`V2vError::context`]), outermost first, and
//! * the original error as a boxed [`std::error::Error`] source, so
//!   `anyhow`-style chains and `Error::source()` walks keep working.
//!
//! Classification happens in the `From` impls, so `?` conversion does
//! the right thing without per-call-site ceremony.
//!
//! [`CodecError`]: v2v_codec::CodecError
//! [`ContainerError`]: v2v_container::ContainerError
//! [`ExecError`]: v2v_exec::ExecError

use crate::EngineError;
use std::error::Error as StdError;
use std::panic::Location;
use v2v_codec::CodecError;
use v2v_container::ContainerError;
use v2v_exec::{codec_kind, container_kind, exec_kind, ExecError};

/// Stable machine-readable error classes, the cross-layer vocabulary of
/// [`V2vError::kind`] (owned by `v2v-exec`, whose fault reports speak it
/// too).
pub use v2v_exec::ErrorKind;

/// The unified error: a classified, located, contextualized wrapper
/// around any layer's error.
#[derive(Debug)]
pub struct V2vError {
    kind: ErrorKind,
    /// Context lines, outermost first.
    context: Vec<String>,
    /// Where the error was wrapped into a `V2vError`.
    location: &'static Location<'static>,
    source: Option<Box<dyn StdError + Send + Sync + 'static>>,
}

impl V2vError {
    /// A fresh error with no underlying source.
    #[track_caller]
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> V2vError {
        V2vError {
            kind,
            context: vec![message.into()],
            location: Location::caller(),
            source: None,
        }
    }

    /// Wraps an arbitrary error under an explicit kind.
    #[track_caller]
    pub fn wrap(kind: ErrorKind, source: impl StdError + Send + Sync + 'static) -> V2vError {
        V2vError {
            kind,
            context: Vec::new(),
            location: Location::caller(),
            source: Some(Box::new(source)),
        }
    }

    /// Pushes a context line (outermost first), preserving kind,
    /// location, and source.
    #[must_use]
    pub fn context(mut self, line: impl Into<String>) -> V2vError {
        self.context.insert(0, line.into());
        self
    }

    /// The machine-readable class.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// Source location where the error was wrapped.
    pub fn location(&self) -> &'static Location<'static> {
        self.location
    }
}

impl std::fmt::Display for V2vError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] ", self.kind.name())?;
        for line in &self.context {
            write!(f, "{line}: ")?;
        }
        match &self.source {
            Some(s) => write!(f, "{s}"),
            None => {
                // The last context line already carried the message;
                // trim the trailing separator.
                Ok(())
            }
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

fn engine_kind(e: &EngineError) -> ErrorKind {
    match e {
        EngineError::Check(_) => ErrorKind::Plan,
        EngineError::Bind { .. } | EngineError::VideoBind { .. } => ErrorKind::NotFound,
        EngineError::Plan(_) => ErrorKind::Plan,
        EngineError::SegmentIndex { .. } => ErrorKind::InvalidRequest,
        EngineError::Exec(x) => exec_kind(x),
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

impl From<EngineError> for V2vError {
    #[track_caller]
    fn from(e: EngineError) -> V2vError {
        V2vError::wrap(engine_kind(&e), e)
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
        let err = V2vError::new(ErrorKind::CorruptData, "packet 3 truncated")
            .context("decoding 'clip-a'");
        let text = err.to_string();
        assert!(text.starts_with("[corrupt_data] "), "{text}");
        assert!(text.contains("decoding 'clip-a'"), "{text}");
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
