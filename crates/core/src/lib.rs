#![warn(missing_docs)]

//! The V2V system (paper §IV): a video result synthesis engine.
//!
//! V2V extends declarative video editing with relational data joins and
//! *data-dependent rewrites*. The pipeline an engine run performs:
//!
//! ```text
//! spec ──bind data──▶ spec + arrays
//!      ──data-dependent rewriter (f_dde, two-pass)──▶ specialized spec
//!      ──type check──▶ dependency report
//!      ──lower──▶ logical plan ──optimize──▶ physical plan
//!      ──execute (parallel)──▶ output video + stats
//! ```
//!
//! * [`V2vEngine`] — the embeddable engine (the paper's "pluggable
//!   module that provides video synthesis functions for existing
//!   VDBMSs");
//! * [`dde`] — the data-dependent rewriter: per-operator equivalence
//!   functions (`IfThenElse_dde`, `BoundingBox_dde`, `Highlight_dde`, …) evaluated over
//!   the time domain in a data-only first pass, specializing the spec so
//!   the (data-agnostic) optimizer can stream-copy what the data proves
//!   untouched;
//! * [`facade`] — VDBMS integration helpers that turn relational query
//!   results (e.g. event tables) directly into synthesis specs.

pub mod dde;
pub mod engine;
pub mod error;
pub mod facade;
pub mod observe;

pub use engine::{EngineConfig, PreparedRun, RunReport, V2vEngine};
pub use error::{ErrorKind, V2vError};
pub use facade::{montage_spec, MontageOptions, MontageSegment};
pub use observe::{AnalyzeReport, ExplainReport, RunTrace};

fn format_check_errors(errors: &[v2v_spec::SpecError]) -> String {
    errors
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join("; ")
}

/// Errors surfaced by engine runs.
#[derive(Debug, thiserror::Error)]
pub enum EngineError {
    /// The spec failed static checking.
    #[error("spec check failed: {}", format_check_errors(.0))]
    Check(Vec<v2v_spec::SpecError>),
    /// Data binding failed (bad locator, SQL error, missing file).
    #[error("data binding failed for '{name}': {source}")]
    Bind {
        /// The array or video name.
        name: String,
        /// Underlying failure.
        #[source]
        source: v2v_data::DataError,
    },
    /// A video locator could not be resolved.
    #[error("cannot resolve video '{name}' from locator '{locator}': {reason}")]
    VideoBind {
        /// The video name.
        name: String,
        /// The locator in the spec.
        locator: String,
        /// Why resolution failed.
        reason: String,
    },
    /// A per-segment render request named a segment the plan does not
    /// have (coordinator/worker plan mismatch).
    #[error("segment index {index} out of range for a {count}-segment plan")]
    SegmentIndex {
        /// The requested segment index.
        index: usize,
        /// Segments in the prepared plan.
        count: usize,
    },
    /// Planning failed.
    #[error(transparent)]
    Plan(#[from] v2v_plan::PlanError),
    /// Execution failed.
    #[error(transparent)]
    Exec(#[from] v2v_exec::ExecError),
}
