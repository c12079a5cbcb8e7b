//! `EXPLAIN`, `EXPLAIN ANALYZE`, and the run trace artifact.
//!
//! Three views of one pipeline, in increasing cost:
//!
//! * [`ExplainReport`] — planning only: both plan renderings plus the
//!   optimizer's [`PlanTrace`] (which rewrite fired where);
//! * [`AnalyzeReport`] — plan *and* run: the same report annotated with
//!   the executor's measured [`ExecTrace`] (per-operator frames
//!   decoded/copied/encoded, bytes, seeks, wall times);
//! * [`RunTrace`] — the machine-readable artifact the CLI's `--trace`
//!   flag writes and CI's metrics-snapshot job diffs: one JSON document
//!   carrying the rewrite trace, the execution trace, pipeline-stage
//!   spans, and a metrics snapshot, stamped with
//!   [`TRACE_SCHEMA_VERSION`].
//!
//! Wall-clock fields (`wall_ns`, spans, per-segment times) are measured
//! and machine-dependent; golden comparisons must restrict themselves to
//! the counter fields.

use serde::{Deserialize, Serialize};
use v2v_exec::{ExecStats, ExecTrace};
use v2v_obs::{MetricsSnapshot, Registry, SpanRecord, TRACE_SCHEMA_VERSION};
use v2v_plan::{PlanStats, PlanTrace};

/// What `v2v explain` shows: both plans and the rewrite history, no
/// execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExplainReport {
    /// The unoptimized logical plan, rendered.
    pub logical: String,
    /// The optimized physical plan, rendered.
    pub physical: String,
    /// The optimizer's rewrite trace.
    pub trace: PlanTrace,
    /// Optimizer summary counters.
    pub plan_stats: PlanStats,
    /// Operator sites specialized by the data-dependent rewriter before
    /// planning.
    pub dde_rewrites: u64,
}

impl ExplainReport {
    /// Pretty rendering: both plans plus the rewrite trace.
    pub fn pretty(&self) -> String {
        format!(
            "--- unoptimized logical plan ---\n{}\n--- optimized physical plan ---\n{}\n--- rewrites ({} data-dependent) ---\n{}",
            self.logical, self.physical, self.dde_rewrites, self.trace.pretty()
        )
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }
}

/// What `v2v explain --analyze` shows: the plan annotated with measured
/// per-operator execution metrics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeReport {
    /// The planning-side report.
    pub explain: ExplainReport,
    /// The executor's measured per-segment trace.
    pub exec: ExecTrace,
    /// Output frames produced.
    pub output_frames: u64,
}

impl AnalyzeReport {
    /// Run-level cost totals.
    pub fn stats(&self) -> ExecStats {
        self.exec.totals
    }

    /// Pretty rendering: the explain output plus measured per-segment
    /// metrics.
    pub fn pretty(&self) -> String {
        format!(
            "{}--- measured execution ({} output frame(s)) ---\n{}",
            self.explain.pretty(),
            self.output_frames,
            self.exec.pretty()
        )
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }
}

/// The single JSON trace artifact of one run (`v2v run --trace`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Trace format version ([`TRACE_SCHEMA_VERSION`]); bump on
    /// breaking layout changes so CI goldens fail loudly.
    pub schema_version: u32,
    /// Operator sites specialized by the data-dependent rewriter.
    pub dde_rewrites: u64,
    /// Optimizer summary counters.
    pub plan_stats: PlanStats,
    /// The optimizer's rewrite trace.
    pub rewrites: PlanTrace,
    /// The executor's measured per-segment trace.
    pub exec: ExecTrace,
    /// Pipeline-stage spans (`bind`, `specialize`, `plan`, `execute`),
    /// epoch-relative.
    pub spans: Vec<SpanRecord>,
    /// Run-level metrics snapshot (counters mirror
    /// [`ExecStats`], plus distribution histograms such as per-segment
    /// wall time).
    pub metrics: MetricsSnapshot,
}

impl RunTrace {
    /// Assembles the artifact from the pipeline's pieces. The metrics
    /// snapshot is built here — counters mirror the stats totals, and a
    /// histogram captures the per-segment wall-time distribution.
    pub fn assemble(
        dde_rewrites: u64,
        plan_stats: PlanStats,
        rewrites: PlanTrace,
        exec: ExecTrace,
        spans: Vec<SpanRecord>,
    ) -> RunTrace {
        let registry = Registry::new();
        let t = exec.totals;
        registry
            .counter("exec.frames_decoded")
            .add(t.frames_decoded);
        registry
            .counter("exec.frames_encoded")
            .add(t.frames_encoded);
        registry
            .counter("exec.packets_copied")
            .add(t.packets_copied);
        registry.counter("exec.bytes_copied").add(t.bytes_copied);
        registry.counter("exec.bytes_decoded").add(t.bytes_decoded);
        registry.counter("exec.bytes_encoded").add(t.bytes_encoded);
        registry.counter("exec.seeks").add(t.seeks);
        registry.counter("exec.segments").add(t.segments);
        registry
            .counter("exec.gop_cache_hits")
            .add(t.gop_cache_hits);
        registry
            .counter("exec.gop_cache_misses")
            .add(t.gop_cache_misses);
        registry
            .counter("exec.faults.injected")
            .add(t.faults_injected);
        registry.counter("exec.faults.retries").add(t.retries);
        registry
            .counter("exec.faults.parts_skipped")
            .add(t.parts_skipped);
        registry
            .counter("exec.faults.parts_substituted")
            .add(t.parts_substituted);
        registry
            .counter("exec.faults.frames_substituted")
            .add(t.frames_substituted);
        registry
            .counter("exec.cache.segment_hits")
            .add(t.cache.segment_hits);
        registry
            .counter("exec.cache.evictions")
            .add(t.cache.evictions);
        registry
            .counter("exec.cache.bytes_reused")
            .add(t.cache.bytes_reused);
        registry
            .counter("exec.cache.shared_segment_hits")
            .add(t.cache.shared_segment_hits);
        registry
            .counter("exec.cache.mem_hits")
            .add(t.cache.mem_hits);
        registry
            .counter("plan.rewrite_events")
            .add(rewrites.events.len() as u64);
        let seg_wall = registry.histogram("exec.segment_wall_ns");
        let seg_decoded = registry.histogram("exec.segment_frames_decoded");
        for s in &exec.segments {
            seg_wall.record(s.wall_ns);
            seg_decoded.record(s.stats.frames_decoded);
        }
        RunTrace {
            schema_version: TRACE_SCHEMA_VERSION,
            dde_rewrites,
            plan_stats,
            rewrites,
            exec,
            spans,
            metrics: registry.snapshot(),
        }
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serializes")
    }

    /// Parses a trace back from JSON.
    pub fn from_json(text: &str) -> Result<RunTrace, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_trace_round_trip_and_metrics_mirror_stats() {
        let mut rewrites = PlanTrace::default();
        rewrites.record("stream_copy", 0, "a #0..#60", 1, 1);
        let exec = ExecTrace {
            totals: ExecStats {
                frames_decoded: 12,
                packets_copied: 60,
                segments: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let trace = RunTrace::assemble(1, PlanStats::default(), rewrites, exec, vec![]);
        assert_eq!(trace.schema_version, TRACE_SCHEMA_VERSION);
        assert_eq!(trace.metrics.counter("exec.frames_decoded"), 12);
        assert_eq!(trace.metrics.counter("exec.packets_copied"), 60);
        assert_eq!(trace.metrics.counter("plan.rewrite_events"), 1);
        let back = RunTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn reports_pretty_sections() {
        let explain = ExplainReport {
            logical: "Concat".into(),
            physical: "StreamCopy".into(),
            trace: PlanTrace::default(),
            plan_stats: PlanStats::default(),
            dde_rewrites: 0,
        };
        let text = explain.pretty();
        assert!(text.contains("unoptimized logical plan"));
        assert!(text.contains("optimized physical plan"));
        assert!(text.contains("rewrites"));
        let analyze = AnalyzeReport {
            explain,
            exec: ExecTrace::default(),
            output_frames: 60,
        };
        assert!(analyze.pretty().contains("measured execution"));
    }
}
