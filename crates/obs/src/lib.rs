#![warn(missing_docs)]

//! V2V observability primitives.
//!
//! The engine attributes its speedups to *which* rewrites fired and
//! *what* each operator actually did (frames decoded vs. stream-copied,
//! bytes moved, seeks taken). This crate is the lightweight,
//! offline-friendly substrate those attributions are built on:
//!
//! * [`Counter`] / [`Gauge`] — monotonic and point-in-time values behind
//!   relaxed atomics, safe to bump from rayon workers;
//! * [`Histogram`] — power-of-two bucketed latency/size distributions
//!   with lock-free recording and lossless merge;
//! * [`Registry`] — a thread-safe name → metric map producing
//!   [`MetricsSnapshot`]s that serialize to stable JSON;
//! * [`SpanSink`] / [`SpanTimer`] — scoped wall-clock spans with
//!   key=value attributes, collected into a [`SpanRecord`] log.
//!
//! There is no background thread, no exporter, and no global state: a
//! trace is an explicit value the pipeline threads through planning and
//! execution, then serializes with [`serde_json`]. The planner's rewrite
//! trace and the executor's per-segment metrics (in `v2v-plan` /
//! `v2v-exec`) are built on these types; `v2v-core` assembles them into
//! the single trace artifact the CLI writes under `--trace`.

pub mod metrics;
pub mod span;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsSnapshot, Registry,
};
pub use span::{SpanRecord, SpanSink, SpanTimer};

/// Schema version stamped into serialized trace artifacts. Bump on any
/// backward-incompatible change to the JSON layout.
///
/// Version history:
/// * 1 — initial layout (rewrites + exec trace + spans + metrics).
/// * 2 — pipelined scheduler: per-segment `parts`/`stage` fields,
///   `splits`/`steals` counters, and synthetic `exec.stage.*` spans.
///   (Since runtime splitting was removed `parts` reads 1 and the two
///   counters read 0; the layout is unchanged.)
/// * 3 — fault tolerance: `exec.faults.*` counters, fault-related
///   `ExecStats` fields, the `errors` segment-fault report on the exec
///   trace, and fault attrs on the `execute` span.
/// * 4 — persistent render cache: the `cache` stats block on
///   `ExecStats` (`result_hits` / `segment_hits` / `evictions` /
///   `bytes_reused`) and `exec.cache.*` counters.
/// * 5 — multi-query work sharing: `inflight_hits` /
///   `shared_segment_hits` / `mem_hits` on the `cache` stats block and
///   the matching `exec.cache.*` counters.
pub const TRACE_SCHEMA_VERSION: u32 = 5;
