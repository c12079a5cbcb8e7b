//! Lowering specs to logical plans.
//!
//! "We form an unoptimized logical plan by mapping our declarative
//! definition to these operators where match operators create Concats,
//! function calls create Filters, and the indexing of videos with time
//! results in Clips." (§III-C)
//!
//! Lowering proceeds in two steps: match *hoisting* rewrites the
//! expression so every match is at the top (transforms distribute over
//! nested match arms), then each arm becomes one `Concat` segment per
//! contiguous run of output frames, with a chain of single-op `Filter`s
//! over `Clip` leaves — one `Filter` per function call, exactly the
//! unoptimized shape of Fig. 2.

use crate::program::{FrameProgram, InputClip, ProgArg};
use crate::PlanError;
use v2v_codec::CodecParams;
use v2v_spec::{Arg, OutputSettings, RenderExpr, Spec};
use v2v_time::{AffineTimeMap, Rational, TimeRange, TimeSet};

/// A logical operator tree.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalNode {
    /// Extract source frames (`vid[a·t+b]` over the segment's instants).
    Clip {
        /// The source video.
        video: String,
        /// Output-instant → source-instant map.
        time: AffineTimeMap,
    },
    /// Per-frame transformation over upstream operator outputs.
    Filter {
        /// The per-frame program (`Input(i)` = `inputs[i]`).
        program: FrameProgram,
        /// Upstream operators.
        inputs: Vec<LogicalNode>,
    },
    /// Nested splice (introduced only by nested matches; flattened by the
    /// optimizer).
    Concat {
        /// Nested segments, relative to the global output timeline.
        segments: Vec<LogicalSegment>,
    },
}

/// One output-timeline segment of a `Concat`.
#[derive(Clone, Debug, PartialEq)]
pub struct LogicalSegment {
    /// First output frame index this segment produces.
    pub out_start: u64,
    /// Number of output frames.
    pub count: u64,
    /// The operator producing those frames.
    pub node: LogicalNode,
}

/// A complete logical plan: a top-level `Concat` plus output facts.
#[derive(Clone, Debug, PartialEq)]
pub struct LogicalPlan {
    /// Ordered, non-overlapping segments covering `0..n_frames`.
    pub segments: Vec<LogicalSegment>,
    /// Domain instant of output frame 0.
    pub domain_start: Rational,
    /// Output frame duration (== domain step).
    pub frame_dur: Rational,
    /// Total output frames.
    pub n_frames: u64,
    /// Output stream settings.
    pub output: OutputSettings,
}

impl LogicalPlan {
    /// Domain instant of output frame `i`.
    pub fn instant_of(&self, i: u64) -> Rational {
        self.domain_start + self.frame_dur * Rational::from_int(i as i64)
    }

    /// Total operator count (plan-size metric for tests and explain).
    pub fn op_count(&self) -> usize {
        fn count(node: &LogicalNode) -> usize {
            match node {
                LogicalNode::Clip { .. } => 1,
                LogicalNode::Filter { inputs, .. } => 1 + inputs.iter().map(count).sum::<usize>(),
                LogicalNode::Concat { segments } => {
                    1 + segments.iter().map(|s| count(&s.node)).sum::<usize>()
                }
            }
        }
        1 + self.segments.iter().map(|s| count(&s.node)).sum::<usize>()
    }
}

/// Match-free render expression (post-hoisting).
#[derive(Clone, Debug)]
enum FlatExpr {
    Ref {
        video: String,
        time: AffineTimeMap,
    },
    Call {
        op: v2v_spec::TransformOp,
        args: Vec<FlatArg>,
    },
}

#[derive(Clone, Debug)]
enum FlatArg {
    Frame(FlatExpr),
    Data(v2v_spec::DataExpr),
}

/// Hoists matches: returns `(when, match-free expr)` arms with
/// first-match-wins semantics already applied (arms are disjoint).
fn hoist(expr: &RenderExpr, domain: &TimeSet) -> Vec<(TimeSet, FlatExpr)> {
    if domain.is_empty() {
        return Vec::new();
    }
    match expr {
        RenderExpr::FrameRef { video, time } => vec![(
            domain.clone(),
            FlatExpr::Ref {
                video: video.clone(),
                time: *time,
            },
        )],
        RenderExpr::Match { arms } => {
            let mut out = Vec::new();
            let mut remaining = domain.clone();
            for arm in arms {
                let covered = remaining.intersect(&arm.when);
                if covered.is_empty() {
                    continue;
                }
                remaining = remaining.difference(&covered);
                out.extend(hoist(&arm.expr, &covered));
            }
            out
        }
        RenderExpr::Transform { op, args } => {
            // Start with the whole domain and one empty combo; fold each
            // frame argument's arms in (cartesian product restricted to
            // non-empty intersections).
            let mut combos: Vec<(TimeSet, Vec<FlatArg>)> = vec![(domain.clone(), Vec::new())];
            for arg in args {
                match arg {
                    Arg::Data(d) => {
                        for (_, acc) in &mut combos {
                            acc.push(FlatArg::Data(d.clone()));
                        }
                    }
                    Arg::Frame(e) => {
                        let mut next = Vec::new();
                        for (when, acc) in &combos {
                            for (sub_when, sub_expr) in hoist(e, when) {
                                let both = when.intersect(&sub_when);
                                if both.is_empty() {
                                    continue;
                                }
                                let mut acc2 = acc.clone();
                                acc2.push(FlatArg::Frame(sub_expr));
                                next.push((both, acc2));
                            }
                        }
                        combos = next;
                    }
                }
            }
            combos
                .into_iter()
                .map(|(when, args)| (when, FlatExpr::Call { op: *op, args }))
                .collect()
        }
    }
}

/// Builds the unoptimized node for a match-free expression: one `Filter`
/// per call, `Clip` per reference.
fn to_node(expr: &FlatExpr) -> LogicalNode {
    match expr {
        FlatExpr::Ref { video, time } => LogicalNode::Clip {
            video: video.clone(),
            time: *time,
        },
        FlatExpr::Call { op, args } => {
            let mut inputs = Vec::new();
            let mut prog_args = Vec::new();
            for a in args {
                match a {
                    FlatArg::Frame(e) => {
                        prog_args.push(ProgArg::Frame(FrameProgram::Input(inputs.len())));
                        inputs.push(to_node(e));
                    }
                    FlatArg::Data(d) => prog_args.push(ProgArg::Data(d.clone())),
                }
            }
            LogicalNode::Filter {
                program: FrameProgram::Op {
                    op: *op,
                    args: prog_args,
                },
                inputs,
            }
        }
    }
}

impl LogicalNode {
    /// All clip bindings reachable from this node, as program input order.
    pub fn collect_clips(&self, out: &mut Vec<InputClip>) {
        match self {
            LogicalNode::Clip { video, time } => out.push(InputClip::new(video.clone(), *time)),
            LogicalNode::Filter { inputs, .. } => {
                for i in inputs {
                    i.collect_clips(out);
                }
            }
            LogicalNode::Concat { segments } => {
                for s in segments {
                    s.node.collect_clips(out);
                }
            }
        }
    }
}

/// The codec parameters a re-encoding plan writes under `output`.
pub(crate) fn codec_params(output: &OutputSettings) -> CodecParams {
    CodecParams {
        frame_ty: output.frame_ty,
        gop_size: output.gop_size,
        quantizer: output.quantizer,
        preset: Default::default(),
    }
}

/// Lowers a (checked) spec to the unoptimized logical plan.
///
/// Output settings the codec would reject (a zero or oversized frame
/// dimension, a zero GOP size) fail here, before anything renders.
pub fn lower_spec(spec: &Spec) -> Result<LogicalPlan, PlanError> {
    codec_params(&spec.output)
        .validate()
        .map_err(PlanError::InvalidOutput)?;
    let ranges = spec.time_domain.ranges();
    if ranges.len() != 1 {
        return Err(PlanError::NonUniformDomain(ranges.len()));
    }
    let domain = ranges[0];
    let step = if domain.count() > 1 {
        domain.step()
    } else {
        spec.output.frame_dur
    };
    if step != spec.output.frame_dur {
        return Err(PlanError::StepMismatch {
            domain: step,
            output: spec.output.frame_dur,
        });
    }
    let d0 = domain.start();
    let n = domain.count();
    let arms = hoist(&spec.render, &spec.time_domain);

    // Assign each output frame to its arm, then group consecutive frames
    // with the same arm into segments.
    let mut assignment: Vec<Option<usize>> = vec![None; n as usize];
    for (arm_idx, (when, _)) in arms.iter().enumerate() {
        for r in when.ranges() {
            for t in r.iter() {
                if let Some(i) = domain.index_of(t) {
                    let slot = &mut assignment[i as usize];
                    if slot.is_none() {
                        *slot = Some(arm_idx);
                    }
                }
            }
        }
    }
    if let Some(i) = assignment.iter().position(|a| a.is_none()) {
        return Err(PlanError::Uncovered(
            d0 + step * Rational::from_int(i as i64),
        ));
    }

    let mut segments = Vec::new();
    let mut i = 0u64;
    while i < n {
        let arm = assignment[i as usize].expect("coverage checked");
        let mut j = i + 1;
        while j < n && assignment[j as usize] == Some(arm) {
            j += 1;
        }
        segments.push(LogicalSegment {
            out_start: i,
            count: j - i,
            node: to_node(&arms[arm].1),
        });
        i = j;
    }

    Ok(LogicalPlan {
        segments,
        domain_start: d0,
        frame_dur: step,
        n_frames: n,
        output: spec.output,
    })
}

/// The domain instants of a segment as a range.
pub fn segment_domain(plan: &LogicalPlan, seg: &LogicalSegment) -> TimeRange {
    TimeRange::from_parts(plan.instant_of(seg.out_start), plan.frame_dur, seg.count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_frame::FrameType;
    use v2v_spec::builder::{blur, grid4, if_then_else};
    use v2v_spec::{DataExpr, SpecBuilder};
    use v2v_time::r;

    fn output() -> OutputSettings {
        OutputSettings::new(FrameType::yuv420p(64, 64), 30)
    }

    #[test]
    fn single_clip_lowers_to_one_segment() {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(10, 1), r(5, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        assert_eq!(plan.n_frames, 150);
        assert_eq!(plan.segments.len(), 1);
        assert!(matches!(plan.segments[0].node, LogicalNode::Clip { .. }));
    }

    #[test]
    fn splice_lowers_to_ordered_segments() {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(0, 1), r(2, 1))
            .append_clip("a", r(10, 1), r(3, 1))
            .build();
        let plan = lower_spec(&spec).unwrap();
        assert_eq!(plan.segments.len(), 2);
        assert_eq!(plan.segments[0].out_start, 0);
        assert_eq!(plan.segments[0].count, 60);
        assert_eq!(plan.segments[1].out_start, 60);
        assert_eq!(plan.segments[1].count, 90);
    }

    #[test]
    fn transform_chain_is_one_filter_per_call() {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(1, 1), |e| blur(blur(e, 1.0), 2.0))
            .build();
        let plan = lower_spec(&spec).unwrap();
        // Filter(Blur) → Filter(Blur) → Clip: three operators + concat.
        match &plan.segments[0].node {
            LogicalNode::Filter { inputs, .. } => match &inputs[0] {
                LogicalNode::Filter { inputs, .. } => {
                    assert!(matches!(inputs[0], LogicalNode::Clip { .. }));
                }
                other => panic!("expected inner filter, got {other:?}"),
            },
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn grid_collects_four_clips() {
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_with(r(1, 1), |_| {
                grid4(
                    RenderExpr::video("a"),
                    RenderExpr::video_shifted("a", r(10, 1)),
                    RenderExpr::video_shifted("a", r(20, 1)),
                    RenderExpr::video_shifted("a", r(30, 1)),
                )
            })
            .build();
        let plan = lower_spec(&spec).unwrap();
        let mut clips = Vec::new();
        plan.segments[0].node.collect_clips(&mut clips);
        assert_eq!(clips.len(), 4);
        assert_eq!(clips[2].time.offset(), r(20, 1));
    }

    #[test]
    fn nested_match_under_transform_is_hoisted() {
        // Blur over an IfThenElse-free nested match: build a match inside
        // a transform by hand.
        let d = TimeSet::from_range(TimeRange::new(r(0, 1), r(2, 1), r(1, 30)));
        let lo = TimeSet::from_range(TimeRange::new(r(0, 1), r(1, 1), r(1, 30)));
        let hi = TimeSet::from_range(TimeRange::new(r(1, 1), r(2, 1), r(1, 30)));
        let inner = RenderExpr::matching(vec![
            (lo, RenderExpr::video("a")),
            (hi, RenderExpr::video_shifted("a", r(50, 1))),
        ]);
        let spec = v2v_spec::Spec {
            time_domain: d,
            render: blur(inner, 1.0),
            videos: [("a".to_string(), "a.svc".to_string())].into(),
            data_arrays: Default::default(),
            output: output(),
        };
        let plan = lower_spec(&spec).unwrap();
        assert_eq!(plan.segments.len(), 2, "hoisting splits the blur");
        for seg in &plan.segments {
            assert!(matches!(seg.node, LogicalNode::Filter { .. }));
        }
    }

    #[test]
    fn if_then_else_remains_single_segment_before_dde() {
        // Without data-dependent rewriting, IfThenElse is one filter over
        // two clips (both materialized — the §IV-C inefficiency).
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .video("b", "b.svc")
            .data_array("x", "x.json")
            .append_with(r(1, 1), |_| {
                if_then_else(
                    DataExpr::lt(DataExpr::array("x"), DataExpr::constant(5i64)),
                    RenderExpr::video("a"),
                    RenderExpr::video("b"),
                )
            })
            .build();
        let plan = lower_spec(&spec).unwrap();
        assert_eq!(plan.segments.len(), 1);
        let mut clips = Vec::new();
        plan.segments[0].node.collect_clips(&mut clips);
        assert_eq!(clips.len(), 2, "both branches materialize");
    }

    #[test]
    fn uncovered_domain_is_rejected() {
        let d = TimeSet::from_range(TimeRange::new(r(0, 1), r(2, 1), r(1, 30)));
        let half = TimeSet::from_range(TimeRange::new(r(0, 1), r(1, 1), r(1, 30)));
        let spec = v2v_spec::Spec {
            time_domain: d,
            render: RenderExpr::matching(vec![(half, RenderExpr::video("a"))]),
            videos: [("a".to_string(), "a.svc".to_string())].into(),
            data_arrays: Default::default(),
            output: output(),
        };
        assert!(matches!(
            lower_spec(&spec),
            Err(PlanError::Uncovered(t)) if t == r(1, 1)
        ));
    }

    #[test]
    fn step_mismatch_rejected() {
        let d = TimeSet::from_range(TimeRange::new(r(0, 1), r(1, 1), r(1, 24)));
        let spec = v2v_spec::Spec {
            time_domain: d,
            render: RenderExpr::video("a"),
            videos: [("a".to_string(), "a.svc".to_string())].into(),
            data_arrays: Default::default(),
            output: output(), // 30 fps
        };
        assert!(matches!(
            lower_spec(&spec),
            Err(PlanError::StepMismatch { .. })
        ));
    }

    #[test]
    fn interleaved_arms_produce_alternating_segments() {
        // Even frames from a, odd frames from b (what a dde rewrite of a
        // per-frame condition can produce).
        let even = TimeSet::from_range(TimeRange::from_parts(r(0, 1), r(2, 30), 5));
        let odd = TimeSet::from_range(TimeRange::from_parts(r(1, 30), r(2, 30), 5));
        let spec = v2v_spec::Spec {
            time_domain: TimeSet::from_range(TimeRange::from_parts(r(0, 1), r(1, 30), 10)),
            render: RenderExpr::matching(vec![
                (even, RenderExpr::video("a")),
                (odd, RenderExpr::video("b")),
            ]),
            videos: [
                ("a".to_string(), "a.svc".to_string()),
                ("b".to_string(), "b.svc".to_string()),
            ]
            .into(),
            data_arrays: Default::default(),
            output: output(),
        };
        let plan = lower_spec(&spec).unwrap();
        assert_eq!(plan.segments.len(), 10);
        assert!(plan.segments.iter().all(|s| s.count == 1));
    }
}
