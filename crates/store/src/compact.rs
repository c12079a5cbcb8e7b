//! Access-driven compaction: which variants to hold under a byte
//! budget.
//!
//! The compactor is deliberately a pure function from observed access
//! profiles plus current store state to a list of actions — the serve
//! daemon's background task supplies the observations and executes the
//! actions, and tests can exercise the policy without a daemon.

use crate::profile::AccessProfile;
use serde::{Deserialize, Serialize};
use v2v_plan::VariantKind;

/// Per-source input to the compaction policy.
#[derive(Clone, Debug)]
pub struct CompactionInput {
    /// Catalog source name.
    pub name: String,
    /// Observed access rates since the last pass.
    pub profile: AccessProfile,
    /// The original's compressed byte size (sizes new variants).
    pub original_bytes: u64,
    /// Currently materialized variants: kind, byte size, pinned.
    pub materialized: Vec<(VariantKind, u64, bool)>,
}

/// What to do with one variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StoreOp {
    /// Transcode and attach the variant.
    Materialize,
    /// Remove the variant's bitstream.
    Drop,
}

/// One compaction decision.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreAction {
    /// Catalog source name.
    pub name: String,
    /// Which variant.
    pub kind: VariantKind,
    /// Materialize or drop.
    pub op: StoreOp,
}

/// Rough size estimate for a not-yet-materialized variant: dense
/// re-encodes carry more intra frames (larger), archival fewer
/// (smaller), proxies carry a quarter of the pixels.
fn estimated_bytes(kind: VariantKind, original_bytes: u64) -> u64 {
    match kind {
        VariantKind::Original => original_bytes,
        VariantKind::Dense => original_bytes.saturating_mul(2),
        VariantKind::Archive => (original_bytes / 2).max(1),
        VariantKind::Proxy => (original_bytes / 4).max(1),
    }
}

/// The demand signal backing one variant kind.
fn demand(kind: VariantKind, p: &AccessProfile) -> u64 {
    match kind {
        VariantKind::Original => u64::MAX,
        VariantKind::Dense => p.smart_cut,
        VariantKind::Archive => p.scan,
        VariantKind::Proxy => p.preview,
    }
}

/// `true` if the observed profile justifies holding this variant.
fn wanted(kind: VariantKind, p: &AccessProfile) -> bool {
    match kind {
        VariantKind::Original => true,
        // Dense pays off when smart cuts are the dominant decode shape.
        VariantKind::Dense => p.smart_cut > 0 && p.smart_cut >= p.scan,
        // Archive pays off when scans dominate.
        VariantKind::Archive => p.scan > 0 && p.scan > p.smart_cut,
        // Proxy pays off when preview traffic is a real share of reads.
        VariantKind::Proxy => p.preview > 0 && p.preview * 2 >= p.total(),
    }
}

/// Computes materialize/drop actions holding total managed bytes under
/// `budget_bytes` (`u64::MAX` = unbounded). Pinned variants are never
/// dropped. Deterministic: inputs are processed in order, and within a
/// pass drops of unwanted variants come first, then materializations by
/// descending demand, then budget evictions by ascending demand.
pub fn plan_compaction(inputs: &[CompactionInput], budget_bytes: u64) -> Vec<StoreAction> {
    let mut actions = Vec::new();
    let mut held: Vec<(&CompactionInput, VariantKind, u64, bool)> = Vec::new();
    let mut total: u64 = 0;
    for input in inputs {
        for &(kind, bytes, pinned) in &input.materialized {
            held.push((input, kind, bytes, pinned));
            total += bytes;
        }
    }

    // 1. Drop unwanted, unpinned variants regardless of budget.
    held.retain(|&(input, kind, bytes, pinned)| {
        let keep = pinned || wanted(kind, &input.profile);
        if !keep {
            actions.push(StoreAction {
                name: input.name.clone(),
                kind,
                op: StoreOp::Drop,
            });
            total -= bytes;
        }
        keep
    });

    // 2. Materialize wanted-but-missing variants while they fit,
    //    highest demand first.
    let mut candidates: Vec<(usize, &CompactionInput, VariantKind, u64)> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        for kind in [VariantKind::Dense, VariantKind::Archive, VariantKind::Proxy] {
            if wanted(kind, &input.profile)
                && !input.materialized.iter().any(|&(k, _, _)| k == kind)
            {
                candidates.push((i, input, kind, demand(kind, &input.profile)));
            }
        }
    }
    candidates.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
    for (_, input, kind, _) in candidates {
        let est = estimated_bytes(kind, input.original_bytes);
        if total.saturating_add(est) > budget_bytes {
            continue;
        }
        actions.push(StoreAction {
            name: input.name.clone(),
            kind,
            op: StoreOp::Materialize,
        });
        total += est;
    }

    // 3. Still over budget (budget shrank): evict unpinned variants,
    //    least-demanded first.
    if total > budget_bytes {
        held.sort_by_key(|&(input, kind, _, _)| demand(kind, &input.profile));
        for &(input, kind, bytes, pinned) in &held {
            if total <= budget_bytes {
                break;
            }
            if pinned {
                continue;
            }
            actions.push(StoreAction {
                name: input.name.clone(),
                kind,
                op: StoreOp::Drop,
            });
            total -= bytes;
        }
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(
        name: &str,
        profile: AccessProfile,
        materialized: Vec<(VariantKind, u64, bool)>,
    ) -> CompactionInput {
        CompactionInput {
            name: name.into(),
            profile,
            original_bytes: 1000,
            materialized,
        }
    }

    #[test]
    fn smart_cut_traffic_materializes_dense() {
        let actions = plan_compaction(
            &[input(
                "a",
                AccessProfile {
                    smart_cut: 10,
                    scan: 1,
                    preview: 0,
                },
                vec![],
            )],
            u64::MAX,
        );
        assert_eq!(
            actions,
            vec![StoreAction {
                name: "a".into(),
                kind: VariantKind::Dense,
                op: StoreOp::Materialize,
            }]
        );
    }

    #[test]
    fn scan_traffic_materializes_archive() {
        let actions = plan_compaction(
            &[input(
                "a",
                AccessProfile {
                    smart_cut: 1,
                    scan: 10,
                    preview: 0,
                },
                vec![],
            )],
            u64::MAX,
        );
        assert!(actions.contains(&StoreAction {
            name: "a".into(),
            kind: VariantKind::Archive,
            op: StoreOp::Materialize,
        }));
    }

    #[test]
    fn unwanted_variants_are_dropped() {
        let actions = plan_compaction(
            &[input(
                "a",
                AccessProfile {
                    smart_cut: 0,
                    scan: 10,
                    preview: 0,
                },
                vec![(VariantKind::Dense, 2000, false)],
            )],
            u64::MAX,
        );
        assert!(actions.contains(&StoreAction {
            name: "a".into(),
            kind: VariantKind::Dense,
            op: StoreOp::Drop,
        }));
    }

    #[test]
    fn pinned_variants_survive() {
        let actions = plan_compaction(
            &[input(
                "a",
                AccessProfile::default(),
                vec![(VariantKind::Dense, 2000, true)],
            )],
            1,
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn budget_blocks_materialization_and_evicts() {
        // Two sources want dense; only one fits the budget — the one
        // with the higher demand wins.
        let actions = plan_compaction(
            &[
                input(
                    "cold",
                    AccessProfile {
                        smart_cut: 2,
                        scan: 0,
                        preview: 0,
                    },
                    vec![],
                ),
                input(
                    "hot",
                    AccessProfile {
                        smart_cut: 50,
                        scan: 0,
                        preview: 0,
                    },
                    vec![],
                ),
            ],
            2500,
        );
        assert_eq!(
            actions,
            vec![StoreAction {
                name: "hot".into(),
                kind: VariantKind::Dense,
                op: StoreOp::Materialize,
            }]
        );

        // A shrunken budget evicts the least-demanded held variant.
        let actions = plan_compaction(
            &[
                input(
                    "cold",
                    AccessProfile {
                        smart_cut: 2,
                        scan: 0,
                        preview: 0,
                    },
                    vec![(VariantKind::Dense, 2000, false)],
                ),
                input(
                    "hot",
                    AccessProfile {
                        smart_cut: 50,
                        scan: 0,
                        preview: 0,
                    },
                    vec![(VariantKind::Dense, 2000, false)],
                ),
            ],
            2000,
        );
        assert_eq!(
            actions,
            vec![StoreAction {
                name: "cold".into(),
                kind: VariantKind::Dense,
                op: StoreOp::Drop,
            }]
        );
    }
}
