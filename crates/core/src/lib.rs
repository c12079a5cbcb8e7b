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
