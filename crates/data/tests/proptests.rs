//! Property-based tests for the data layer: value comparison laws,
//! data-array algebra, and annotation JSON round trips.

use proptest::prelude::*;
use v2v_data::{json, DataArray, Value};
use v2v_time::Rational;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-100i64..100, 1i64..50).prop_map(|(n, d)| Value::Rational(Rational::new(n, d))),
        "[a-z]{0,8}".prop_map(Value::Str),
    ]
}

fn instant_strategy() -> impl Strategy<Value = Rational> {
    (-300i64..300, 1i64..31).prop_map(|(n, d)| Rational::new(n, d))
}

fn array_strategy() -> impl Strategy<Value = DataArray> {
    prop::collection::vec((instant_strategy(), value_strategy()), 0..24)
        .prop_map(DataArray::from_pairs)
}

/// One step on a family of arrays cloned from each other; indices wrap
/// around the family's size.
#[derive(Clone, Debug)]
enum Op {
    /// Insert `frames / 30` s past the array's last instant.
    Append(usize, i64, Value),
    /// Insert anywhere: an overwrite, a mid insert or an append.
    Insert(usize, Rational, Value),
    /// Merge the second array into the first.
    Merge(usize, usize),
    /// Add a clone of the array to the family.
    Fork(usize),
    /// Read the array's entry digests, filling its memo.
    Digest(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4, 1i64..40, value_strategy()).prop_map(|(i, n, v)| Op::Append(i, n, v)),
        (0usize..4, instant_strategy(), value_strategy()).prop_map(|(i, t, v)| Op::Insert(i, t, v)),
        (0usize..4, 0usize..4).prop_map(|(i, j)| Op::Merge(i, j)),
        (0usize..4).prop_map(Op::Fork),
        (0usize..4).prop_map(Op::Digest),
    ]
}

/// Entry digests computed from nothing but the entries.
fn digests_from_scratch(arr: &DataArray) -> Vec<(Rational, u64)> {
    let fresh = DataArray::from_pairs(arr.iter().map(|(t, v)| (t, v.clone())));
    assert!(!fresh.digests_known());
    fresh.entry_digests().to_vec()
}

proptest! {
    #[test]
    fn compare_is_antisymmetric(a in value_strategy(), b in value_strategy()) {
        if let (Some(x), Some(y)) = (a.compare(&b), b.compare(&a)) {
            prop_assert_eq!(x, y.reverse());
        }
    }

    #[test]
    fn compare_self_is_equal_unless_null(a in value_strategy()) {
        match a.compare(&a) {
            Some(ord) => prop_assert_eq!(ord, std::cmp::Ordering::Equal),
            None => prop_assert!(a.is_null() || a.as_f64().is_none()),
        }
    }

    #[test]
    fn compare_numeric_transitive(
        a in -100i64..100,
        bn in -100i64..100,
        bd in 1i64..20,
        c in -100i64..100,
    ) {
        use std::cmp::Ordering::Less;
        let va = Value::Int(a);
        let vb = Value::Rational(Rational::new(bn, bd));
        let vc = Value::Float(c as f64);
        if va.compare(&vb) == Some(Less) && vb.compare(&vc) == Some(Less) {
            prop_assert_eq!(va.compare(&vc), Some(Less));
        }
    }

    #[test]
    fn array_get_matches_insert_order(pairs in prop::collection::vec((instant_strategy(), value_strategy()), 0..24)) {
        let arr = DataArray::from_pairs(pairs.clone());
        // Later duplicates win.
        let mut last: std::collections::BTreeMap<Rational, Value> = Default::default();
        for (t, v) in pairs {
            last.insert(t, v);
        }
        prop_assert_eq!(arr.len(), last.len());
        for (t, v) in &last {
            prop_assert_eq!(arr.get(*t), v);
        }
    }

    #[test]
    fn slice_partitions_counts(arr in array_strategy(), lo in instant_strategy(), hi in instant_strategy()) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let inside = arr.slice(lo, hi);
        for (t, v) in inside.iter() {
            prop_assert!(t >= lo && t < hi);
            prop_assert_eq!(arr.get(t), v);
        }
        let n_inside = arr.iter().filter(|(t, _)| *t >= lo && *t < hi).count();
        prop_assert_eq!(inside.len(), n_inside);
    }

    #[test]
    fn sample_and_hold_is_last_at_or_before(arr in array_strategy(), t in instant_strategy()) {
        let expect = arr
            .iter()
            .filter(|(ti, _)| *ti <= t)
            .last()
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null);
        prop_assert_eq!(arr.get_at_or_before(t).clone(), expect);
    }

    #[test]
    fn merge_is_right_biased(a in array_strategy(), b in array_strategy()) {
        let mut merged = a.clone();
        merged.merge(&b);
        for (t, v) in b.iter() {
            prop_assert_eq!(merged.get(t), v);
        }
        for (t, v) in a.iter() {
            if !b.contains(t) {
                prop_assert_eq!(merged.get(t), v);
            }
        }
    }

    /// The entry-digest memo is never stale: through any mix of appends,
    /// overwrites, mid inserts and merges on an array and its clones,
    /// every array's memoised digests equal digests recomputed from its
    /// entries, and no array sees another's mutation.
    #[test]
    fn memoised_entry_digests_equal_digests_from_scratch(
        first in array_strategy(),
        ops in prop::collection::vec(op_strategy(), 0..40),
    ) {
        let mut family = vec![first];
        let mut model: Vec<Vec<(Rational, Value)>> =
            vec![family[0].iter().map(|(t, v)| (t, v.clone())).collect()];
        let upsert = |entries: &mut Vec<(Rational, Value)>, t: Rational, v: Value| {
            match entries.binary_search_by_key(&t, |e| e.0) {
                Ok(at) => entries[at].1 = v,
                Err(at) => entries.insert(at, (t, v)),
            }
        };
        for op in ops {
            let n = family.len();
            match op {
                Op::Append(i, frames, v) => {
                    let last = family[i % n].instants().last().unwrap_or(Rational::ZERO);
                    let t = last + Rational::new(frames, 30);
                    family[i % n].insert(t, v.clone());
                    upsert(&mut model[i % n], t, v);
                }
                Op::Insert(i, t, v) => {
                    family[i % n].insert(t, v.clone());
                    upsert(&mut model[i % n], t, v);
                }
                Op::Merge(i, j) => {
                    let other = family[j % n].clone();
                    family[i % n].merge(&other);
                    for (t, v) in other.iter() {
                        upsert(&mut model[i % n], t, v.clone());
                    }
                }
                Op::Fork(i) => {
                    family.push(family[i % n].clone());
                    model.push(model[i % n].clone());
                }
                Op::Digest(i) => {
                    let memo = family[i % n].entry_digests();
                    prop_assert_eq!(&*memo, &digests_from_scratch(&family[i % n]));
                }
            }
        }
        for (arr, entries) in family.iter().zip(&model) {
            let found: Vec<(Rational, Value)> = arr.iter().map(|(t, v)| (t, v.clone())).collect();
            prop_assert_eq!(&found, entries);
            prop_assert_eq!(&*arr.entry_digests(), &digests_from_scratch(arr));
        }
    }

    #[test]
    fn annotation_json_round_trip(arr in array_strategy()) {
        // Float values survive approximately; the strategy avoids floats
        // to assert exact equality (rationals/ints/strings/bools/null).
        let text = json::to_annotation_json(&arr);
        let back = json::parse_annotations(&text).unwrap();
        prop_assert_eq!(back, arr);
    }
}
