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
//!   carrying the rewrite trace, the execution trace and pipeline-stage
//!   spans, stamped with
//!   [`TRACE_SCHEMA_VERSION`](v2v_obs::TRACE_SCHEMA_VERSION). The run's counters
//!   are the execution trace's totals; nothing copies them.
//!
//! Wall-clock fields (`wall_ns`, spans, per-segment times) are measured
//! and machine-dependent; golden comparisons must restrict themselves to
//! the counter fields.

use serde::{Deserialize, Serialize};
use v2v_exec::{ExecStats, ExecTrace};
use v2v_obs::SpanRecord;
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
    /// Trace format version
    /// ([`TRACE_SCHEMA_VERSION`](v2v_obs::TRACE_SCHEMA_VERSION)); bump on
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
}

impl RunTrace {
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
    fn run_trace_round_trip() {
        let mut rewrites = PlanTrace::default();
        rewrites.record("stream_copy", 0, "a #0..#60", 1, 1);
        let exec = ExecTrace {
            totals: ExecStats {
                frames_decoded: 12,
                packets_copied: 60,
                segments: 2,
                ..Default::default()
            },
            first_packet_ns: Some(1_000),
            ..Default::default()
        };
        let trace = RunTrace {
            schema_version: v2v_obs::TRACE_SCHEMA_VERSION,
            dde_rewrites: 1,
            plan_stats: PlanStats::default(),
            rewrites,
            exec,
            spans: vec![],
        };
        let json = trace.to_json();
        assert!(
            !json.contains("\"metrics\""),
            "the counters live once, in exec.totals"
        );
        let back = RunTrace::from_json(&json).unwrap();
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
