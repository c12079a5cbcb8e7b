#![warn(missing_docs)]

//! V2V execution engines (paper §IV-A).
//!
//! Two executors over the same sources:
//!
//! * [`execute`] — the optimized engine: runs a [`v2v_plan::PhysicalPlan`]
//!   through the cost-based [`scheduler`] (longest-processing-time
//!   dispatch, decode-ahead pipelining), fusing decode → transform →
//!   encode per render segment and splicing stream-copied packet runs
//!   without touching raster data;
//! * [`execute_naive`] — the unoptimized reference: interprets the
//!   logical plan operator-at-a-time, materializing an encoded
//!   intermediate stream at every `Clip`, `Filter`, and the final
//!   `Concat` — the cost model of the paper's unoptimized plans (Fig. 2
//!   top), used as the baseline arm in Figs. 3–4.
//!
//! Both return the output [`v2v_container::VideoStream`] plus
//! [`ExecStats`] (frames decoded/encoded, packets and bytes copied) so
//! benchmarks and tests can attribute costs.

pub mod apply;
mod budget_lru;
pub mod catalog;
pub mod cursor;
pub mod executor;
pub mod fault;
pub mod flight;
pub mod gop_cache;
pub mod mem_tier;
pub mod naive;
pub mod remote;
pub mod render_cache;
pub mod scheduler;
pub mod streaming;
pub mod trace;

pub use apply::{apply_program, UdfKernel};
pub use catalog::{Catalog, VariantSource};
pub use cursor::SourceCursor;
pub use executor::{execute, execute_traced, ExecOptions, ExecStats};
pub use fault::{error_kind, ErrorPolicy, FaultAction, FaultInjector, FaultKind, SegmentFault};
pub use flight::{Claim, FlightGuard, FragmentFlight, SingleFlight};
pub use gop_cache::{GopCache, GopFrames};
pub use mem_tier::MemTier;
pub use naive::execute_naive;
pub use remote::RemoteRenderer;
pub use render_cache::{CacheStats, EntryKey, Origin, RenderCache, SegmentCacheCtx};
pub use scheduler::{segment_cost, PartOutput};
pub use streaming::{execute_streaming_with, StreamingStats};
pub use trace::{ExecTrace, SegmentTrace, StageTimes};

/// Errors raised during execution.
#[derive(Debug, thiserror::Error)]
pub enum ExecError {
    /// A plan referenced a video the catalog cannot serve.
    #[error("unknown video '{0}' in catalog")]
    UnknownVideo(String),
    /// A program used a UDF id with no registered kernel.
    #[error("no kernel registered for UDF #{0}")]
    UnknownUdf(u16),
    /// A UDF kernel failed.
    #[error("UDF #{id} failed: {message}")]
    UdfFailed {
        /// The UDF id.
        id: u16,
        /// The kernel's error message.
        message: String,
    },
    /// A program referenced an overlay image the catalog cannot serve.
    #[error("unknown overlay image '{0}' in catalog")]
    UnknownImage(String),
    /// A source frame needed by the plan does not exist.
    #[error("video '{video}' has no frame at {at}")]
    MissingFrame {
        /// The video.
        video: String,
        /// The missing instant.
        at: v2v_time::Rational,
    },
    /// A data expression produced a value of the wrong type for an
    /// operator argument.
    #[error("{op:?} argument {index}: expected {want}, got {got}")]
    BadArgument {
        /// The operator.
        op: v2v_spec::TransformOp,
        /// Zero-based signature index.
        index: usize,
        /// Expected type.
        want: &'static str,
        /// Runtime value type.
        got: &'static str,
    },
    /// A source read failed at the I/O level (real or injected).
    #[error("i/o failure reading '{video}' at frame {frame}: {message}")]
    SourceIo {
        /// The video being read.
        video: String,
        /// Source frame index of the failed read.
        frame: u64,
        /// The underlying failure.
        message: String,
    },
    /// Container-level failure.
    #[error(transparent)]
    Container(#[from] v2v_container::ContainerError),
    /// Codec-level failure.
    #[error("codec error: {0}")]
    Codec(#[from] v2v_codec::CodecError),
    /// Plan-level failure.
    #[error("plan error: {0}")]
    Plan(#[from] v2v_plan::PlanError),
}
