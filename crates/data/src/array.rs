//! Time-indexed data arrays: the paper's `data_arrays` spec inputs.

use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use v2v_container::Fnv64;
use v2v_time::{Rational, TimeSet};

/// A rational-time-indexed array of values, referenced from specs as
/// `name[t]`.
///
/// Lookups at absent instants return [`Value::Null`] — the relational
/// convention for "no row at this timestamp" (e.g. no detections ran, as
/// opposed to an empty detection list).
///
/// Clones share the entries and the [entry digests](Self::entry_digests)
/// until one of them is mutated, which copies on write: a catalog
/// snapshot costs a reference count per array, and a digest one
/// snapshot computes is every snapshot's.
#[derive(Clone, Default)]
pub struct DataArray {
    inner: Arc<Entries>,
}

#[derive(Clone, Default)]
struct Entries {
    map: BTreeMap<Rational, Value>,
    /// `(instant, entry digest)` per entry, ascending, filled on first
    /// use. An insert past the last instant extends a filled memo; any
    /// other mutation drops it.
    digests: OnceLock<Arc<Vec<(Rational, u64)>>>,
}

/// The shared NULL returned for absent instants.
static NULL: Value = Value::Null;

/// One entry's content digest: its instant, then its value's JSON, each
/// length-prefixed.
fn entry_digest(t: Rational, v: &Value) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&t.to_string());
    h.write_str(&serde_json::to_string(v).unwrap_or_default());
    h.finish()
}

impl DataArray {
    /// An empty array.
    pub fn new() -> DataArray {
        DataArray::default()
    }

    /// Builds from `(time, value)` pairs; later duplicates win.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Rational, Value)>) -> DataArray {
        DataArray {
            inner: Arc::new(Entries {
                map: pairs.into_iter().collect(),
                digests: OnceLock::new(),
            }),
        }
    }

    /// Inserts or replaces the value at `t`.
    pub fn insert(&mut self, t: Rational, v: Value) {
        let inner = Arc::make_mut(&mut self.inner);
        let appends = inner
            .map
            .last_key_value()
            .map_or(true, |(last, _)| t > *last);
        match inner.digests.get_mut() {
            Some(digests) if appends => Arc::make_mut(digests).push((t, entry_digest(t, &v))),
            Some(_) => inner.digests = OnceLock::new(),
            None => {}
        }
        inner.map.insert(t, v);
    }

    /// `(instant, digest)` of every entry, ascending by instant: the
    /// identity segment keys fold, one digest per entry so that a key
    /// can pin just the entries its lookups reach. Computed on the first
    /// call on this array or any clone sharing its entries; later calls
    /// return the same allocation.
    pub fn entry_digests(&self) -> Arc<Vec<(Rational, u64)>> {
        let digests = self
            .inner
            .digests
            .get_or_init(|| Arc::new(self.iter().map(|(t, v)| (t, entry_digest(t, v))).collect()));
        Arc::clone(digests)
    }

    /// `true` once [`entry_digests`](Self::entry_digests) is a lookup.
    /// Tests use it to pin down who pays an array's digests — and who
    /// never asks for them.
    pub fn digests_known(&self) -> bool {
        self.inner.digests.get().is_some()
    }

    /// The value at exactly `t`, or `Null` when absent.
    pub fn get(&self, t: Rational) -> &Value {
        self.inner.map.get(&t).unwrap_or(&NULL)
    }

    /// The value at the greatest instant `<= t` (sample-and-hold lookup,
    /// useful when data is sampled coarser than the video grid).
    pub fn get_at_or_before(&self, t: Rational) -> &Value {
        self.inner
            .map
            .range(..=t)
            .next_back()
            .map(|(_, v)| v)
            .unwrap_or(&NULL)
    }

    /// `true` if a value exists at exactly `t`.
    pub fn contains(&self, t: Rational) -> bool {
        self.inner.map.contains_key(&t)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.map.len()
    }

    /// `true` when the array holds no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.map.is_empty()
    }

    /// Iterates `(time, value)` in time order.
    pub fn iter(&self) -> impl Iterator<Item = (Rational, &Value)> {
        self.inner.map.iter().map(|(t, v)| (*t, v))
    }

    /// The instants at which entries exist.
    pub fn instants(&self) -> impl Iterator<Item = Rational> + '_ {
        self.inner.map.keys().copied()
    }

    /// The entry domain as a [`TimeSet`].
    pub fn domain(&self) -> TimeSet {
        TimeSet::from_instants(self.instants())
    }

    /// Restricts to entries with `lo <= t < hi` (bounded materialization).
    pub fn slice(&self, lo: Rational, hi: Rational) -> DataArray {
        DataArray::from_pairs(self.inner.map.range(lo..hi).map(|(t, v)| (*t, v.clone())))
    }

    /// Merges another array over this one (other wins on conflicts).
    pub fn merge(&mut self, other: &DataArray) {
        let inner = Arc::make_mut(&mut self.inner);
        inner.digests = OnceLock::new();
        for (t, v) in other.iter() {
            inner.map.insert(t, v.clone());
        }
    }
}

/// Equal entries, whatever either side has memoised.
impl PartialEq for DataArray {
    fn eq(&self, other: &DataArray) -> bool {
        self.inner.map == other.inner.map
    }
}

impl fmt::Debug for DataArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataArray")
            .field("entries", &self.inner.map)
            .finish()
    }
}

impl FromIterator<(Rational, Value)> for DataArray {
    fn from_iter<T: IntoIterator<Item = (Rational, Value)>>(iter: T) -> Self {
        DataArray::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_time::r;

    #[test]
    fn exact_lookup_and_null_default() {
        let mut a = DataArray::new();
        a.insert(r(1, 30), Value::Int(5));
        assert_eq!(a.get(r(1, 30)), &Value::Int(5));
        assert_eq!(a.get(r(2, 30)), &Value::Null);
        assert!(a.contains(r(1, 30)));
        assert!(!a.contains(r(2, 30)));
    }

    #[test]
    fn sample_and_hold() {
        let a = DataArray::from_pairs([(r(0, 1), Value::Int(1)), (r(1, 1), Value::Int(2))]);
        assert_eq!(a.get_at_or_before(r(1, 2)), &Value::Int(1));
        assert_eq!(a.get_at_or_before(r(1, 1)), &Value::Int(2));
        assert_eq!(a.get_at_or_before(r(5, 1)), &Value::Int(2));
        assert_eq!(a.get_at_or_before(r(-1, 1)), &Value::Null);
    }

    #[test]
    fn slice_bounds_are_half_open() {
        let a = DataArray::from_pairs((0..10).map(|i| (r(i, 1), Value::Int(i))));
        let s = a.slice(r(3, 1), r(7, 1));
        assert_eq!(s.len(), 4);
        assert!(s.contains(r(3, 1)));
        assert!(!s.contains(r(7, 1)));
    }

    #[test]
    fn domain_is_exact() {
        let a = DataArray::from_pairs([(r(0, 1), Value::Int(0)), (r(1, 2), Value::Int(1))]);
        let d = a.domain();
        assert_eq!(d.count(), 2);
        assert!(d.contains(r(1, 2)));
    }

    #[test]
    fn merge_prefers_other() {
        let mut a = DataArray::from_pairs([(r(0, 1), Value::Int(1))]);
        let b = DataArray::from_pairs([(r(0, 1), Value::Int(9)), (r(1, 1), Value::Int(2))]);
        a.merge(&b);
        assert_eq!(a.get(r(0, 1)), &Value::Int(9));
        assert_eq!(a.len(), 2);
    }
}
