//! Plan explain: text rendering of logical and physical plans.
//!
//! Reproduces the paper's Fig. 2 ("Unoptimized (top) and Optimized
//! (bottom) Plans") as text trees. Stream-copy operators — the grey
//! diamonds of the figure — are marked `◆`.

use crate::logical::{LogicalNode, LogicalPlan, LogicalSegment};
use crate::physical::{PhysicalPlan, SegPlan};
use std::fmt::Write;

/// Renders the unoptimized logical plan.
pub fn explain_logical(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Concat  [{} frames @ {} fps]",
        plan.n_frames,
        plan.frame_dur.recip()
    );
    for (i, seg) in plan.segments.iter().enumerate() {
        let last = i + 1 == plan.segments.len();
        explain_segment(&mut out, seg, "", last);
    }
    out
}

fn explain_segment(out: &mut String, seg: &LogicalSegment, prefix: &str, last: bool) {
    let branch = if last { "└─" } else { "├─" };
    let _ = writeln!(
        out,
        "{prefix}{branch} [{}..{})",
        seg.out_start,
        seg.out_start + seg.count
    );
    let child_prefix = format!("{prefix}{}  ", if last { " " } else { "│" });
    explain_node(out, &seg.node, &child_prefix, true);
}

fn explain_node(out: &mut String, node: &LogicalNode, prefix: &str, last: bool) {
    let branch = if last { "└─" } else { "├─" };
    match node {
        LogicalNode::Clip { video, time } => {
            let _ = writeln!(
                out,
                "{prefix}{branch} Clip {video}[{time}]  (decode→encode)"
            );
        }
        LogicalNode::Filter { program, inputs } => {
            let _ = writeln!(
                out,
                "{prefix}{branch} Filter {}  (decode→encode)",
                program.describe()
            );
            let child_prefix = format!("{prefix}{}  ", if last { " " } else { "│" });
            for (i, input) in inputs.iter().enumerate() {
                explain_node(out, input, &child_prefix, i + 1 == inputs.len());
            }
        }
        LogicalNode::Concat { segments } => {
            let _ = writeln!(out, "{prefix}{branch} Concat");
            let child_prefix = format!("{prefix}{}  ", if last { " " } else { "│" });
            for (i, s) in segments.iter().enumerate() {
                explain_segment(out, s, &child_prefix, i + 1 == segments.len());
            }
        }
    }
}

/// Renders the optimized physical plan.
pub fn explain_physical(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Output  [{} frames, {} | copied {:.0}%]",
        plan.n_frames,
        plan.out_params.frame_ty,
        plan.copy_fraction() * 100.0
    );
    for (i, seg) in plan.segments.iter().enumerate() {
        let last = i + 1 == plan.segments.len();
        let branch = if last { "└─" } else { "├─" };
        match &seg.plan {
            SegPlan::Render { program, inputs } => {
                let srcs: Vec<String> = inputs
                    .iter()
                    .map(|c| {
                        if c.variant.is_original() {
                            format!("{}[{}]", c.video, c.time)
                        } else {
                            format!("{}@{}[{}]", c.video, c.variant, c.time)
                        }
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "{branch} [{}..{}) Render {}  ⇐ {}",
                    seg.out_start,
                    seg.out_start + seg.count,
                    program.describe(),
                    srcs.join(", ")
                );
            }
            SegPlan::StreamCopy {
                video,
                src_from,
                src_to,
            } => {
                let _ = writeln!(
                    out,
                    "{branch} [{}..{}) ◆ StreamCopy {video} #{src_from}..#{src_to}",
                    seg.out_start,
                    seg.out_start + seg.count,
                );
            }
        }
    }
    let s = &plan.stats;
    let _ = writeln!(
        out,
        "  stats: merged={} elided={} smart_cuts={} shards={} rendered={} copied={}",
        s.merged_filters,
        s.elided_identities,
        s.smart_cuts,
        s.shards,
        s.frames_rendered,
        s.frames_copied
    );
    out
}

#[cfg(test)]
mod tests {
    use crate::logical::lower_spec;
    use crate::meta::{tests::source, PlanContext};
    use crate::optimizer::{optimize, OptimizerConfig};
    use v2v_codec::CodecParams;
    use v2v_frame::FrameType;
    use v2v_spec::builder::blur;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::r;

    fn setup() -> (crate::logical::LogicalPlan, PlanContext) {
        let output = OutputSettings {
            frame_ty: FrameType::yuv420p(64, 64),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 2,
        };
        let spec = SpecBuilder::new(output)
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .append_filtered("a", r(5, 1), r(1, 1), |e| blur(e, 1.0))
            .build();
        let params = CodecParams::new(FrameType::yuv420p(64, 64), 30, 2);
        (
            lower_spec(&spec).unwrap(),
            PlanContext::new().with_source("a", source(params, 300, 30, 0)),
        )
    }

    #[test]
    fn logical_explain_shows_operator_tree() {
        let (plan, _) = setup();
        let text = super::explain_logical(&plan);
        assert!(text.contains("Concat"));
        assert!(text.contains("Clip a[t"));
        assert!(text.contains("Filter Blur"));
        assert!(text.contains("decode→encode"));
    }

    #[test]
    fn physical_explain_marks_stream_copies() {
        let (plan, ctx) = setup();
        let phys = optimize(&plan, &ctx, &OptimizerConfig::default()).unwrap();
        let text = super::explain_physical(&phys);
        assert!(
            text.contains("◆ StreamCopy"),
            "copy marker missing:\n{text}"
        );
        assert!(text.contains("Render"));
        assert!(text.contains("stats:"));
    }
}
