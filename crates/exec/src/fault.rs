//! Deterministic fault injection and degraded-mode error policy.
//!
//! The executors promise a *complete* output: every planned frame is
//! accounted for even when a source turns hostile mid-run. This module
//! supplies the two halves of that promise:
//!
//! * [`FaultInjector`] — a test/ops hook ([`ExecOptions::fault`]) that
//!   deterministically injects I/O failures, corrupt packets, and
//!   truncated reads at cursor decode sites. Rules match on
//!   `(video, frame index)`, not call order, so a faulted run behaves
//!   identically under the serial and pipelined arms.
//! * [`ErrorPolicy`] — what the scheduler does when a segment fails after
//!   its bounded retries: abort the run (default, the historical
//!   behavior), skip the segment (a hole in the output), or substitute
//!   encoded black frames so the output keeps its full length.
//!
//! Every degraded segment is reported as a [`SegmentFault`] — a structured,
//! serializable record carried on the segment's output, collected into
//! [`ExecTrace::errors`], and surfaced by the CLI's `--error-report`.
//!
//! [`ExecOptions::fault`]: crate::ExecOptions::fault
//! [`ExecTrace::errors`]: crate::ExecTrace::errors

use crate::ExecError;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// The kind of fault a rule injects at a decode site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultKind {
    /// A synthetic I/O failure: the packet read itself fails.
    Io,
    /// The packet bytes are corrupted (kind byte clobbered) before the
    /// decoder sees them, exercising the hardened parse path.
    CorruptPacket,
    /// The packet is cut in half before the decoder sees it.
    TruncatedRead,
}

impl FaultKind {
    /// Stable lowercase name, used in counters and span attributes.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Io => "io",
            FaultKind::CorruptPacket => "corrupt_packet",
            FaultKind::TruncatedRead => "truncated_read",
        }
    }
}

/// One injection rule: fires when any cursor over `video` touches
/// source frame `frame`.
#[derive(Debug)]
struct Rule {
    video: String,
    frame: u64,
    kind: FaultKind,
    /// Cap on how many times this rule fires (`None` = every touch).
    times: Option<u64>,
    fired: AtomicU64,
}

/// A deterministic fault injector, shared by every cursor of a run via
/// [`ExecOptions::fault`](crate::ExecOptions::fault).
///
/// Rules match on `(video, source frame index)` — a property of the
/// *work*, not of scheduling — so which worker or pipeline stage decodes
/// the frame does not change whether the fault fires. A bounded rule
/// (`times`) models a transient fault: the first `times` touches fail,
/// later touches (retries) succeed.
#[derive(Debug, Default)]
pub struct FaultInjector {
    rules: Vec<Rule>,
}

impl FaultInjector {
    /// An injector with no rules (never fires).
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    /// Adds a rule that fires on *every* touch of `(video, frame)`.
    pub fn fail(mut self, video: impl Into<String>, frame: u64, kind: FaultKind) -> FaultInjector {
        self.rules.push(Rule {
            video: video.into(),
            frame,
            kind,
            times: None,
            fired: AtomicU64::new(0),
        });
        self
    }

    /// Adds a transient rule: the first `times` touches of
    /// `(video, frame)` fail, later touches succeed.
    pub fn fail_times(
        mut self,
        video: impl Into<String>,
        frame: u64,
        kind: FaultKind,
        times: u64,
    ) -> FaultInjector {
        self.rules.push(Rule {
            video: video.into(),
            frame,
            kind,
            times: Some(times),
            fired: AtomicU64::new(0),
        });
        self
    }

    /// `true` when no rule is registered (the cursors' fast path).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Checks whether a fault fires for this touch of `(video, frame)`,
    /// consuming one firing of the first matching rule.
    pub fn check(&self, video: &str, frame: u64) -> Option<FaultKind> {
        for rule in &self.rules {
            if rule.frame != frame || rule.video != video {
                continue;
            }
            let fires = match rule.times {
                None => {
                    rule.fired.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Some(t) => rule
                    .fired
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                        (v < t).then_some(v + 1)
                    })
                    .is_ok(),
            };
            if fires {
                return Some(rule.kind);
            }
        }
        None
    }

    /// Total faults injected so far. `fired` counts actual firings for
    /// bounded rules too (the increment stops at the cap).
    pub fn injections(&self) -> u64 {
        self.rules
            .iter()
            .map(|r| r.fired.load(Ordering::Relaxed))
            .sum()
    }
}

/// What the scheduler does with a segment that still fails after its
/// bounded retries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ErrorPolicy {
    /// Propagate the error and abort the run (the historical behavior).
    #[default]
    Abort,
    /// Drop the failed range: the output is shorter by the lost frames,
    /// later segments splice in directly after the hole.
    SkipSegment,
    /// Encode black frames over the failed range so the output keeps
    /// its planned length and timing.
    SubstituteBlack,
}

impl ErrorPolicy {
    /// Stable lowercase name (`abort` / `skip` / `black`), the same
    /// tokens [`FromStr`](std::str::FromStr) accepts.
    pub fn name(self) -> &'static str {
        match self {
            ErrorPolicy::Abort => "abort",
            ErrorPolicy::SkipSegment => "skip",
            ErrorPolicy::SubstituteBlack => "black",
        }
    }
}

impl std::fmt::Display for ErrorPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ErrorPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<ErrorPolicy, String> {
        match s {
            "abort" => Ok(ErrorPolicy::Abort),
            "skip" | "skip_segment" => Ok(ErrorPolicy::SkipSegment),
            "black" | "substitute_black" => Ok(ErrorPolicy::SubstituteBlack),
            other => Err(format!(
                "unknown error policy '{other}' (expected abort, skip, or black)"
            )),
        }
    }
}

/// How a failed segment was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultAction {
    /// A retry succeeded; the output is byte-identical to a clean run.
    Recovered,
    /// The range was dropped from the output ([`ErrorPolicy::SkipSegment`]).
    Skipped,
    /// The range was filled with encoded black frames
    /// ([`ErrorPolicy::SubstituteBlack`]).
    SubstitutedBlack,
}

impl FaultAction {
    /// Stable lowercase name, used in counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Recovered => "recovered",
            FaultAction::Skipped => "skipped",
            FaultAction::SubstitutedBlack => "substituted_black",
        }
    }
}

/// A structured record of one degraded (or recovered) segment: which
/// output range was affected, what the error was, and how it was resolved.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentFault {
    /// Index of the segment in the physical plan.
    pub seg_index: u64,
    /// Absolute output frame index of the segment's first frame.
    pub abs_start: u64,
    /// Output frames in the segment (degraded output never depends on
    /// load: the whole segment is retried, skipped or substituted).
    pub frames: u64,
    /// How the failure was resolved.
    pub action: FaultAction,
    /// Retries spent before the resolution (including the successful
    /// one for [`FaultAction::Recovered`]).
    pub retries: u64,
    /// The original error, rendered.
    pub error: String,
    /// Machine-readable error class (see [`error_kind`]).
    pub kind: String,
}

/// Classifies an [`ExecError`] into a small stable vocabulary for
/// counters and reports.
pub fn error_kind(e: &ExecError) -> &'static str {
    use v2v_container::ContainerError;
    match e {
        ExecError::UnknownVideo(_) | ExecError::UnknownImage(_) | ExecError::UnknownUdf(_) => {
            "not_found"
        }
        ExecError::UdfFailed { .. } => "udf",
        ExecError::MissingFrame { .. } => "missing_frame",
        ExecError::BadArgument { .. } => "invalid_argument",
        ExecError::SourceIo { .. } => "io",
        ExecError::Codec(_) => "corrupt_data",
        ExecError::Container(ContainerError::Io(_)) => "io",
        ExecError::Container(_) => "corrupt_data",
        ExecError::Plan(_) => "plan",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_match_on_video_and_frame() {
        let inj = FaultInjector::new().fail("a", 7, FaultKind::Io);
        assert_eq!(inj.check("a", 6), None);
        assert_eq!(inj.check("b", 7), None);
        assert_eq!(inj.check("a", 7), Some(FaultKind::Io));
        // Unbounded rules keep firing.
        assert_eq!(inj.check("a", 7), Some(FaultKind::Io));
        assert_eq!(inj.injections(), 2);
    }

    #[test]
    fn bounded_rules_model_transient_faults() {
        let inj = FaultInjector::new().fail_times("a", 3, FaultKind::CorruptPacket, 2);
        assert_eq!(inj.check("a", 3), Some(FaultKind::CorruptPacket));
        assert_eq!(inj.check("a", 3), Some(FaultKind::CorruptPacket));
        assert_eq!(inj.check("a", 3), None, "the third touch succeeds");
        assert_eq!(inj.injections(), 2);
    }

    #[test]
    fn policy_parses_and_round_trips() {
        for (text, want) in [
            ("abort", ErrorPolicy::Abort),
            ("skip", ErrorPolicy::SkipSegment),
            ("black", ErrorPolicy::SubstituteBlack),
        ] {
            let parsed: ErrorPolicy = text.parse().unwrap();
            assert_eq!(parsed, want);
            assert_eq!(parsed.name(), text);
        }
        assert!("garbage".parse::<ErrorPolicy>().is_err());
    }

    #[test]
    fn segment_fault_serializes_stably() {
        let fault = SegmentFault {
            seg_index: 2,
            abs_start: 60,
            frames: 30,
            action: FaultAction::SubstitutedBlack,
            retries: 1,
            error: "codec error: corrupt packet".into(),
            kind: "corrupt_data".into(),
        };
        let json = serde_json::to_string(&fault).unwrap();
        assert!(json.contains("\"substituted_black\""));
        let back: SegmentFault = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fault);
    }
}
