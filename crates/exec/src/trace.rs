//! Per-operator execution traces.
//!
//! [`execute_traced`] returns an [`ExecTrace`] beside the output: one
//! [`SegmentTrace`] per physical segment (the executor's operators),
//! each carrying the segment's own [`ExecStats`] and wall time. The
//! trace is what `EXPLAIN ANALYZE` annotates the plan with and what the
//! `--trace` CLI flag serializes, so a run's decode/copy split is
//! attributable operator by operator rather than only in aggregate.
//!
//! Wall times are measured and therefore unstable across machines;
//! golden-trace comparisons must restrict themselves to the counter
//! fields (see the metrics-snapshot CI job).
//!
//! [`execute_traced`]: crate::execute_traced

use crate::executor::ExecStats;
use crate::fault::SegmentFault;
use serde::{Deserialize, Serialize};

/// Busy time per pipeline stage of a render segment, in nanoseconds.
///
/// These are *busy* times, not span times: under the pipelined executor
/// the decode stage runs concurrently with compose/encode, so the sum of
/// the three can exceed the segment's `wall_ns`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimes {
    /// Source decoding and input-frame gathering (the prefetch stage).
    pub decode_ns: u64,
    /// Frame composition (`apply_program` + conform to the output type).
    pub compose_ns: u64,
    /// Encoding composed frames into output packets.
    pub encode_ns: u64,
}

impl StageTimes {
    /// Field-wise accumulation.
    pub fn merge(mut self, other: StageTimes) -> StageTimes {
        self.decode_ns += other.decode_ns;
        self.compose_ns += other.compose_ns;
        self.encode_ns += other.encode_ns;
        self
    }
}

/// Measured profile of one executed physical segment.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentTrace {
    /// Position of the segment in the physical plan (output order).
    pub index: u64,
    /// Segment kind: `stream_copy` or `render`.
    pub kind: String,
    /// First output frame index the segment produces.
    pub out_start: u64,
    /// Output frames the segment produces.
    pub frames: u64,
    /// The segment's own cost counters, including the GOP-cache lookups
    /// its cursors performed (hits/misses are attributed to exactly one
    /// cursor per request, so the roll-up is deterministic).
    pub stats: ExecStats,
    /// Segment wall time in nanoseconds. Unstable; excluded from golden
    /// comparisons.
    pub wall_ns: u64,
    /// Always 1 (a segment executes whole); kept for trace schema 5.
    #[serde(default)]
    pub parts: u64,
    /// Per-stage busy times. Unstable; excluded from golden comparisons.
    #[serde(default)]
    pub stage: StageTimes,
}

/// Measured profile of one execution.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecTrace {
    /// Per-segment profiles, in output order.
    pub segments: Vec<SegmentTrace>,
    /// Run-level totals (includes shared-cache hit/miss counts).
    pub totals: ExecStats,
    /// End-to-end wall time in nanoseconds. Unstable; excluded from
    /// golden comparisons.
    pub wall_ns: u64,
    /// Structured error report: one entry per segment that failed and was
    /// recovered, skipped, or substituted under the run's error policy.
    /// Empty on clean runs (and absent from their JSON).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub errors: Vec<SegmentFault>,
}

impl ExecTrace {
    /// Sum of per-segment frames decoded (the re-encode side of the
    /// copy/decode split).
    pub fn frames_decoded(&self) -> u64 {
        self.totals.frames_decoded
    }

    /// Sum of per-segment packets stream-copied.
    pub fn packets_copied(&self) -> u64 {
        self.totals.packets_copied
    }

    /// Pretty rendering: one line per segment plus a totals line.
    pub fn pretty(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in &self.segments {
            let _ = writeln!(
                out,
                "  seg {:<3} {:<11} @{:<6} {:>5} frame(s)  decoded {:>5}  encoded {:>5}  copied {:>5} pkt / {:>7} B  seeks {:>3}  {:.3} ms",
                s.index,
                s.kind,
                s.out_start,
                s.frames,
                s.stats.frames_decoded,
                s.stats.frames_encoded,
                s.stats.packets_copied,
                s.stats.bytes_copied,
                s.stats.seeks,
                s.wall_ns as f64 / 1e6,
            );
        }
        let t = &self.totals;
        let _ = writeln!(
            out,
            "  total: {} segment(s), {} decoded, {} encoded, {} copied, gop cache {}/{} hits, {:.3} ms",
            t.segments,
            t.frames_decoded,
            t.frames_encoded,
            t.packets_copied,
            t.gop_cache_hits,
            t.gop_cache_hits + t.gop_cache_misses,
            self.wall_ns as f64 / 1e6,
        );
        out
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serializes")
    }

    /// Parses a trace back from JSON.
    pub fn from_json(text: &str) -> Result<ExecTrace, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let trace = ExecTrace {
            segments: vec![SegmentTrace {
                index: 0,
                kind: "stream_copy".into(),
                out_start: 0,
                frames: 60,
                stats: ExecStats {
                    packets_copied: 60,
                    bytes_copied: 12_345,
                    segments: 1,
                    ..Default::default()
                },
                wall_ns: 1_000,
                parts: 1,
                stage: StageTimes::default(),
            }],
            totals: ExecStats {
                packets_copied: 60,
                bytes_copied: 12_345,
                segments: 1,
                ..Default::default()
            },
            wall_ns: 2_000,
            errors: Vec::new(),
        };
        let back = ExecTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.packets_copied(), 60);
        assert_eq!(back.frames_decoded(), 0);
    }

    #[test]
    fn pretty_mentions_each_segment() {
        let trace = ExecTrace {
            segments: vec![
                SegmentTrace {
                    index: 0,
                    kind: "stream_copy".into(),
                    ..Default::default()
                },
                SegmentTrace {
                    index: 1,
                    kind: "render".into(),
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let text = trace.pretty();
        assert!(text.contains("stream_copy"));
        assert!(text.contains("render"));
        assert!(text.contains("total:"));
    }
}
