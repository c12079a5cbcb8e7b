#![warn(missing_docs)]

//! V2V query planning (paper §III-C/D).
//!
//! Specs lower to a **logical plan** over the three core operators:
//!
//! * `Concat` — splice segments on the output timeline (from match arms);
//! * `Clip` — extract a time range of a source (from `vid[a·t+b]`);
//! * `Filter` — per-frame transformations (from function calls).
//!
//! The unoptimized logical plan materializes an encoded intermediate at
//! *every* operator (the top of the paper's Fig. 2); the optimizer
//! rewrites it and produces a **physical plan** whose segments either
//! render in one fused decode→transform→encode pass or stream-copy
//! compressed packets (bottom of Fig. 2):
//!
//! 1. concat flattening and empty-segment pruning;
//! 2. operator merging (adjacent `Filter`s compose into one program);
//! 3. identity elision (`Identity` filters vanish — the hook the
//!    data-dependent rewriter exploits);
//! 4. clip-into-filter fusion (no intermediate encode/decode pair);
//! 5. stream copying of keyframe-aligned pure clips;
//! 6. smart cuts for unaligned pure clips (re-encode at most the partial
//!    head GOP, copy the rest);
//! 7. temporal sharding of long renders for parallel execution.
//!
//! [`explain`] renders both plans as text (the Fig. 2 reproduction).

pub mod cost;
pub mod explain;
pub mod fingerprint;
pub mod logical;
pub mod meta;
pub mod optimizer;
pub mod physical;
pub mod program;
pub mod trace;
pub mod variant;

pub use cost::{estimate, CostEstimate, CostModel};
pub use explain::{explain_logical, explain_physical};
pub use fingerprint::{cacheable, plan_fingerprint, segment_keys, SourceDigests, VideoDigest};
pub use logical::{lower_spec, LogicalNode, LogicalPlan, LogicalSegment};
pub use meta::{PlanContext, SourceMeta};
pub use optimizer::{optimize, optimize_traced, OptimizerConfig};
pub use physical::{PhysicalPlan, PlanStats, SegPlan, Segment};
pub use program::{FrameProgram, InputClip, ProgArg};
pub use trace::{PlanTrace, RewriteEvent};
pub use variant::{clip_read_range, select_variants, VariantFacts, VariantKind, VariantPolicy};

/// Errors raised during lowering and optimization.
#[derive(Debug, Clone, PartialEq, thiserror::Error)]
pub enum PlanError {
    /// The spec's time domain is not a single uniform range.
    #[error(
        "time domain must be a single uniform range to define an output stream; got {0} ranges"
    )]
    NonUniformDomain(usize),
    /// Domain step disagrees with the output frame duration.
    #[error("time domain step {domain} does not match output frame duration {output}")]
    StepMismatch {
        /// Domain step.
        domain: v2v_time::Rational,
        /// Output frame duration.
        output: v2v_time::Rational,
    },
    /// An instant in the domain is not covered by any match arm
    /// (checked specs never trigger this).
    #[error("no match arm covers instant {0}")]
    Uncovered(v2v_time::Rational),
    /// A frame reference names an unbound video.
    #[error("unknown video '{0}' at plan time")]
    UnknownVideo(String),
    /// A required source instant is missing (checked specs never trigger
    /// this).
    #[error("video '{video}' has no frame at {at}")]
    MissingFrame {
        /// The video.
        video: String,
        /// The missing instant.
        at: v2v_time::Rational,
    },
}
