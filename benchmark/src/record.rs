//! What one measured window produced: a record per operation, and the
//! end-to-end aggregates computed from them.

use crate::stats::{fastest, geomean, median, percentile, quartiles, ratio};
use std::collections::BTreeMap;
use v2v_exec::ExecStats;
use v2v_plan::PlanStats;

/// One operation of the measured window.
#[derive(Clone, Debug, Default)]
pub struct Op {
    pub class: usize,
    /// Call/request start (or due time, open loop) to complete result.
    pub latency_ms: Option<f64>,
    /// Same start to the first packet or body byte.
    pub ttfp_ms: Option<f64>,
    /// Call to return, where one caller runs one operation at a time (the
    /// batch workloads): what the window's wall time is made of.
    pub busy_ms: f64,
    /// Output frames delivered.
    pub frames: u64,
    /// Succeeded and matched the reference digest.
    pub ok: bool,
    /// What the layers reported about it. Only operations that ran with
    /// spans recorded have them (traced runs trace every other cycle).
    pub facts: Option<Box<Facts>>,
}

/// Times and counts of one traced operation, from the harness's own
/// spans and the public return values (`RunReport`, `RunTrace`,
/// `StreamingStats`, `x-v2v-stats`).
#[derive(Clone, Debug, Default)]
pub struct Facts {
    pub parse_us: f64,
    pub prepare_us: f64,
    pub bind_us: f64,
    pub dde_us: f64,
    pub optimize_us: f64,
    pub execute_ms: f64,
    /// Summed busy time of the decode / compose / encode stages.
    pub stage_ms: [f64; 3],
    pub streaming_total_ms: f64,
    /// Admission wait the daemon reported for a query.
    pub queue_wait_ms: f64,
    /// Send to acknowledgement of an installment's two appends.
    pub append_ack_ms: f64,
    /// Bytes received: a response body or a delta record.
    pub body_bytes: u64,
    /// Bytes a delta would have been had the whole output been re-sent.
    pub full_bytes: u64,
    /// Execution counts, for operations that report them.
    pub exec: Option<ExecStats>,
    pub plan: Option<PlanStats>,
    pub dde_rewrites: u64,
}

/// The operations of one window with its wall and CPU time.
pub struct Window {
    pub classes: &'static [&'static str],
    pub ops: Vec<Op>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Every sample of a class is the same operation on the same input
    /// (the batch workloads). Such samples differ only by what the host
    /// added: on the shared 2-core host neighbours add up to half, in
    /// bursts of seconds, and never subtract, so the fastest sample reads
    /// the system and the median reads the neighbours (A/A spread of ten
    /// runs 0.08–0.16 by medians, 0.04–0.07 by fastest). Elsewhere the
    /// samples of a class differ in work — hit or miss, a longer source —
    /// and the median stays.
    pub repeats: bool,
}

/// Per-class sample counts and quartiles, echoed in every result.
pub struct ClassSummary {
    pub name: &'static str,
    pub latency: Vec<f64>,
    pub ttfp: Vec<f64>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    /// The verified operations. Only they feed the aggregates, so a
    /// class that fails fast cannot lower a median or raise `out_fps`.
    fn good(&self) -> impl Iterator<Item = &Op> {
        self.ops.iter().filter(|o| o.ok)
    }

    pub fn frames(&self) -> u64 {
        self.good().map(|o| o.frames).sum()
    }

    pub fn summaries(&self, traced: Option<bool>) -> Vec<ClassSummary> {
        self.classes
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let of_class = || {
                    self.good().filter(move |o| {
                        o.class == c && traced.is_none_or(|t| o.facts.is_some() == t)
                    })
                };
                ClassSummary {
                    name,
                    latency: of_class().filter_map(|o| o.latency_ms).collect(),
                    ttfp: of_class().filter_map(|o| o.ttfp_ms).collect(),
                }
            })
            .collect()
    }

    /// The value a class's samples stand for (see `repeats`).
    fn typical(&self, samples: &[f64]) -> f64 {
        if self.repeats {
            fastest(samples)
        } else {
            median(samples)
        }
    }

    /// Geometric mean over classes of the per-class typical latency.
    pub fn latency_gm_ms(&self, traced: Option<bool>) -> f64 {
        geomean(
            &self
                .summaries(traced)
                .iter()
                .map(|s| self.typical(&s.latency))
                .collect::<Vec<_>>(),
        )
    }

    /// Geometric mean over classes of the per-class typical ttfp.
    pub fn ttfp_gm_ms(&self) -> f64 {
        geomean(
            &self
                .summaries(None)
                .iter()
                .map(|s| self.typical(&s.ttfp))
                .collect::<Vec<_>>(),
        )
    }

    /// Verified output frames per wall second. Where operations repeat,
    /// the window is identical cycles run back to back by one caller: the
    /// frames of one cycle over the time of one cycle, each operation —
    /// a class through `run` or through `run_streaming` — at its typical
    /// time.
    pub fn out_fps(&self) -> f64 {
        if !self.repeats {
            return ratio(self.frames() as f64, self.wall_s);
        }
        let mut cycle: BTreeMap<(usize, bool), (u64, Vec<f64>)> = BTreeMap::new();
        for o in self.good() {
            let (frames, times) = cycle.entry((o.class, o.ttfp_ms.is_some())).or_default();
            *frames = o.frames;
            times.push(o.busy_ms);
        }
        let frames: u64 = cycle.values().map(|(frames, _)| frames).sum();
        let busy_ms: f64 = cycle.values().map(|(_, times)| self.typical(times)).sum();
        ratio(frames as f64, busy_ms / 1e3)
    }

    pub fn cpu_ms_per_frame(&self) -> f64 {
        ratio(self.cpu_s * 1e3, self.frames() as f64)
    }

    /// Fewest latency or ttfp samples any class collected.
    pub fn samples_min(&self) -> usize {
        self.summaries(None)
            .iter()
            .map(|s| s.latency.len().min(s.ttfp.len()))
            .min()
            .unwrap_or(0)
    }

    pub fn latency_p95_ms(&self) -> f64 {
        percentile(
            &self.good().filter_map(|o| o.latency_ms).collect::<Vec<_>>(),
            95.0,
        )
    }

    pub fn ttfp_p95_ms(&self) -> f64 {
        percentile(
            &self.good().filter_map(|o| o.ttfp_ms).collect::<Vec<_>>(),
            95.0,
        )
    }

    /// Facts of the traced operations that verified.
    pub fn facts(&self) -> impl Iterator<Item = (&Op, &Facts)> {
        self.good()
            .filter_map(|o| o.facts.as_deref().map(|f| (o, f)))
    }

    /// Per-class sample count, median and quartiles as JSON.
    pub fn classes_json(&self) -> serde_json::Value {
        let describe = |v: &[f64]| {
            let [q1, q2, q3] = quartiles(v);
            serde_json::json!({"n": v.len(), "fastest": fastest(v), "q1": q1, "median": q2, "q3": q3})
        };
        serde_json::Value::Object(
            self.summaries(None)
                .iter()
                .map(|s| {
                    (
                        s.name.to_string(),
                        serde_json::json!({
                            "latency_ms": describe(&s.latency),
                            "ttfp_ms": describe(&s.ttfp),
                        }),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(class: usize, latency: f64, ttfp: f64, ok: bool) -> Op {
        Op {
            class,
            latency_ms: Some(latency),
            ttfp_ms: Some(ttfp),
            busy_ms: latency,
            frames: 10,
            ok,
            ..Op::default()
        }
    }

    #[test]
    fn aggregates_follow_their_definitions() {
        let w = Window {
            classes: &["a", "b"],
            ops: vec![
                op(0, 1.0, 1.0, true),
                op(0, 3.0, 1.0, true),
                op(0, 2.0, 1.0, true),
                // A failed operation counts as attempted and nothing else.
                op(0, 0.01, 0.01, false),
                op(1, 50.0, 4.0, true),
            ],
            wall_s: 2.0,
            cpu_s: 0.4,
            repeats: false,
        };
        assert_eq!(w.attempted(), 5);
        assert_eq!(w.failed(), 1);
        assert_eq!(w.frames(), 40);
        // Medians 2 and 50 → geometric mean 10; both classes weigh the same.
        assert!((w.latency_gm_ms(None) - 10.0).abs() < 1e-9);
        assert!((w.ttfp_gm_ms() - 2.0).abs() < 1e-9);
        assert_eq!(w.out_fps(), 20.0);
        assert_eq!(w.cpu_ms_per_frame(), 10.0);
        assert_eq!(w.samples_min(), 1);

        // The same operations as repeats of one input: fastest samples 1
        // and 50 → geometric mean √50, and a cycle of 20 frames in 51 ms.
        let w = Window { repeats: true, ..w };
        assert!((w.latency_gm_ms(None) - 50f64.sqrt()).abs() < 1e-9);
        assert!((w.out_fps() - 20.0 / 0.051).abs() < 1e-9);
    }

    #[test]
    fn a_class_without_samples_zeroes_the_geomean() {
        let w = Window {
            classes: &["a", "b"],
            ops: vec![op(0, 1.0, 1.0, true)],
            wall_s: 1.0,
            cpu_s: 0.1,
            repeats: false,
        };
        assert_eq!(w.latency_gm_ms(None), 0.0);
        assert_eq!(w.samples_min(), 0);
    }
}
