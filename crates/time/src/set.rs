//! Normalized unions of [`TimeRange`]s.
//!
//! A [`TimeSet`] is the domain type for match arms, dependency analysis,
//! and the data-dependent rewriter: "which instants does this expression
//! cover / require?". Internally it is a sorted vector of pairwise-disjoint
//! ranges; all set operations are exact.

use crate::range::TimeRange;
use crate::rational::Rational;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A finite set of rational instants, stored as disjoint sorted ranges.
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[serde(from = "Vec<TimeRange>", into = "Vec<TimeRange>")]
pub struct TimeSet {
    ranges: Vec<TimeRange>,
}

impl From<Vec<TimeRange>> for TimeSet {
    fn from(ranges: Vec<TimeRange>) -> Self {
        TimeSet::from_ranges(ranges)
    }
}

impl From<TimeSet> for Vec<TimeRange> {
    fn from(s: TimeSet) -> Self {
        s.ranges
    }
}

impl From<TimeRange> for TimeSet {
    fn from(r: TimeRange) -> Self {
        TimeSet::from_ranges(vec![r])
    }
}

impl TimeSet {
    /// The empty set.
    pub fn empty() -> TimeSet {
        TimeSet { ranges: Vec::new() }
    }

    /// Builds a set from arbitrary (possibly overlapping) ranges.
    pub fn from_ranges(ranges: impl IntoIterator<Item = TimeRange>) -> TimeSet {
        let mut out = TimeSet::empty();
        for r in ranges {
            out = out.union(&TimeSet {
                ranges: disjoint(r),
            });
        }
        out
    }

    /// A set with a single range.
    pub fn from_range(r: TimeRange) -> TimeSet {
        TimeSet {
            ranges: disjoint(r),
        }
    }

    /// A set with exactly one instant.
    pub fn singleton(t: Rational) -> TimeSet {
        TimeSet::from_range(TimeRange::singleton(t))
    }

    /// A set from explicit instants (the paper's `{0, 1, 2}` notation).
    pub fn from_instants(ts: impl IntoIterator<Item = Rational>) -> TimeSet {
        TimeSet::from_ranges(ts.into_iter().map(TimeRange::singleton))
    }

    /// The constituent disjoint ranges, sorted by start.
    pub fn ranges(&self) -> &[TimeRange] {
        &self.ranges
    }

    /// `true` if the set has no instants.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of instants.
    pub fn count(&self) -> u64 {
        self.ranges.iter().map(|r| r.count()).sum()
    }

    /// Smallest instant, if any.
    pub fn min(&self) -> Option<Rational> {
        self.ranges.iter().filter_map(|r| r.first()).min()
    }

    /// Largest instant, if any.
    pub fn max(&self) -> Option<Rational> {
        self.ranges.iter().filter_map(|r| r.last()).max()
    }

    /// Membership test.
    pub fn contains(&self, t: Rational) -> bool {
        self.ranges.iter().any(|r| r.contains(t))
    }

    /// Iterates over all instants in ascending order.
    ///
    /// Ranges are disjoint but may interleave, so this merges lazily.
    pub fn iter(&self) -> TimeSetIter<'_> {
        TimeSetIter::new(self.ranges.iter().map(|r| (*r, 0)).collect())
    }

    /// Set union.
    pub fn union(&self, other: &TimeSet) -> TimeSet {
        // Keep self's ranges; add other's ranges minus self.
        let mut ranges = self.ranges.clone();
        for r in &other.ranges {
            let mut pending = vec![*r];
            for mine in &self.ranges {
                pending = pending.into_iter().flat_map(|p| p.subtract(mine)).collect();
                if pending.is_empty() {
                    break;
                }
            }
            ranges.extend(pending);
        }
        normalize(ranges)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &TimeSet) -> TimeSet {
        let mut ranges = Vec::new();
        for a in &self.ranges {
            for b in &other.ranges {
                let c = a.intersect(b);
                if !c.is_empty() {
                    ranges.push(c);
                }
            }
        }
        // Inputs are disjoint unions, so the intersections are disjoint.
        normalize(ranges)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &TimeSet) -> TimeSet {
        let mut ranges = self.ranges.clone();
        for b in &other.ranges {
            ranges = ranges.into_iter().flat_map(|a| a.subtract(b)).collect();
        }
        normalize(ranges)
    }

    /// `true` if every instant of `self` is in `other`.
    pub fn is_subset_of(&self, other: &TimeSet) -> bool {
        self.difference(other).is_empty()
    }

    /// `true` if the two sets share no instants.
    pub fn is_disjoint_from(&self, other: &TimeSet) -> bool {
        self.intersect(other).is_empty()
    }

    /// Semantic equality (same instants, regardless of representation).
    pub fn set_eq(&self, other: &TimeSet) -> bool {
        self.count() == other.count() && self.is_subset_of(other)
    }

    /// Splits the set at a boundary: `(instants < t, instants >= t)`.
    pub fn split_at(&self, t: Rational) -> (TimeSet, TimeSet) {
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for r in &self.ranges {
            if r.is_empty() {
                continue;
            }
            if r.last().unwrap() < t {
                lo.push(*r);
            } else if r.start() >= t {
                hi.push(*r);
            } else {
                let k = (t - r.start()).div_ceil(r.step()).max(0) as u64;
                lo.push(r.slice(0, k));
                hi.push(r.slice(k, r.count()));
            }
        }
        (normalize(lo), normalize(hi))
    }
}

/// Ensures a single range is represented as itself (ranges are internally
/// disjoint by construction).
fn disjoint(r: TimeRange) -> Vec<TimeRange> {
    if r.is_empty() {
        vec![]
    } else {
        vec![r]
    }
}

/// Sorts disjoint ranges and merges mergeable neighbours.
fn normalize(mut ranges: Vec<TimeRange>) -> TimeSet {
    ranges.retain(|r| !r.is_empty());
    ranges.sort_by(|a, b| {
        a.start()
            .cmp(&b.start())
            .then_with(|| a.step().cmp(&b.step()))
    });
    let mut out: Vec<TimeRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        if let Some(last) = out.last_mut() {
            if let Some(merged) = try_merge(last, &r) {
                *last = merged;
                continue;
            }
        }
        out.push(r);
    }
    TimeSet { ranges: out }
}

/// Attempts to merge two disjoint ranges `a` (earlier) and `b` into one
/// arithmetic progression.
fn try_merge(a: &TimeRange, b: &TimeRange) -> Option<TimeRange> {
    debug_assert!(!a.is_empty() && !b.is_empty());
    let a_last = a.last().unwrap();
    if b.start() <= a_last {
        // Interleaved grids — leave separate (they are disjoint).
        return None;
    }
    let gap = b.start() - a_last;
    match (a.count(), b.count()) {
        (1, 1) => Some(TimeRange::from_parts(a.start(), gap, 2)),
        (1, _) => {
            (gap == b.step()).then(|| TimeRange::from_parts(a.start(), b.step(), b.count() + 1))
        }
        (_, 1) => {
            (gap == a.step()).then(|| TimeRange::from_parts(a.start(), a.step(), a.count() + 1))
        }
        _ => (a.step() == b.step() && gap == a.step())
            .then(|| TimeRange::from_parts(a.start(), a.step(), a.count() + b.count())),
    }
}

/// Ascending merged iterator over a set's instants.
pub struct TimeSetIter<'a> {
    cursors: Vec<(TimeRange, u64)>,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl TimeSetIter<'_> {
    fn new(cursors: Vec<(TimeRange, u64)>) -> Self {
        TimeSetIter {
            cursors,
            _marker: std::marker::PhantomData,
        }
    }
}

impl Iterator for TimeSetIter<'_> {
    type Item = Rational;

    fn next(&mut self) -> Option<Rational> {
        let mut best: Option<(usize, Rational)> = None;
        for (i, (r, k)) in self.cursors.iter().enumerate() {
            if let Some(t) = r.at(*k) {
                if best.map_or(true, |(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
        }
        let (i, t) = best?;
        self.cursors[i].1 += 1;
        Some(t)
    }
}

impl fmt::Debug for TimeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for TimeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ranges.is_empty() {
            return write!(f, "∅");
        }
        let mut first = true;
        for r in &self.ranges {
            if !first {
                write!(f, " ∪ ")?;
            }
            first = false;
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::r;

    fn rng(start: i64, end: i64, num: i64, den: i64) -> TimeRange {
        TimeRange::new(r(start, 1), r(end, 1), r(num, den))
    }

    fn enumerate(s: &TimeSet) -> Vec<Rational> {
        s.iter().collect()
    }

    #[test]
    fn union_merges_adjacent_same_step() {
        let s = TimeSet::from_ranges(vec![rng(0, 5, 1, 1), rng(5, 10, 1, 1)]);
        assert_eq!(s.ranges().len(), 1);
        assert_eq!(s.count(), 10);
    }

    #[test]
    fn union_deduplicates_overlap() {
        let a = TimeSet::from_range(rng(0, 10, 1, 1));
        let b = TimeSet::from_range(rng(5, 15, 1, 1));
        let u = a.union(&b);
        assert_eq!(u.count(), 15);
        assert!(u.contains(r(14, 1)));
        assert!(!u.contains(r(15, 1)));
    }

    #[test]
    fn intersect_and_difference_agree_with_enumeration() {
        let a = TimeSet::from_ranges(vec![rng(0, 10, 1, 2)]);
        let b = TimeSet::from_ranges(vec![rng(3, 20, 1, 3)]);
        let i = a.intersect(&b);
        let d = a.difference(&b);
        let ae: Vec<_> = enumerate(&a);
        for t in &ae {
            assert_eq!(i.contains(*t), b.contains(*t), "t = {t}");
            assert_eq!(d.contains(*t), !b.contains(*t), "t = {t}");
        }
        assert_eq!(i.count() + d.count(), a.count());
    }

    #[test]
    fn subset_relations() {
        let dom = TimeSet::from_range(rng(0, 300, 1, 30));
        let req = TimeSet::from_range(rng(10, 20, 1, 30));
        assert!(req.is_subset_of(&dom));
        assert!(!dom.is_subset_of(&req));
        let off = TimeSet::from_range(TimeRange::new(r(1, 60), r(5, 1), r(1, 30)));
        assert!(!off.is_subset_of(&dom));
    }

    #[test]
    fn singleton_runs_collapse() {
        // {0, 1, 2} becomes a single step-1 range.
        let s = TimeSet::from_instants([r(0, 1), r(1, 1), r(2, 1)]);
        assert_eq!(s.ranges().len(), 1);
        assert_eq!(s.ranges()[0].count(), 3);
        assert_eq!(s.ranges()[0].step(), r(1, 1));
    }

    #[test]
    fn split_at_boundary() {
        let s = TimeSet::from_range(rng(0, 10, 1, 1));
        let (lo, hi) = s.split_at(r(4, 1));
        assert_eq!(lo.count(), 4);
        assert_eq!(hi.count(), 6);
        assert!(lo.max().unwrap() < r(4, 1));
        assert_eq!(hi.min(), Some(r(4, 1)));
        // Split point off the grid.
        let (lo, hi) = s.split_at(r(9, 2));
        assert_eq!(lo.count(), 5);
        assert_eq!(hi.count(), 5);
    }

    #[test]
    fn iter_is_sorted_across_ranges() {
        let s = TimeSet::from_ranges(vec![rng(0, 4, 2, 1), rng(1, 5, 2, 1)]);
        let v = enumerate(&s);
        assert_eq!(v, vec![r(0, 1), r(1, 1), r(2, 1), r(3, 1)]);
    }

    #[test]
    fn set_eq_is_semantic() {
        let a = TimeSet::from_ranges(vec![rng(0, 4, 2, 1), rng(1, 5, 2, 1)]);
        let b = TimeSet::from_range(rng(0, 4, 1, 1));
        assert!(a.set_eq(&b));
        assert!(!a.set_eq(&TimeSet::from_range(rng(0, 5, 1, 1))));
    }

    #[test]
    fn empty_set_behaviour() {
        let e = TimeSet::empty();
        assert!(e.is_empty());
        assert!(e.is_subset_of(&TimeSet::singleton(r(1, 1))));
        assert!(e.is_disjoint_from(&e));
        assert_eq!(e.min(), None);
        assert_eq!(e.union(&TimeSet::singleton(r(1, 1))).count(), 1);
    }
}
