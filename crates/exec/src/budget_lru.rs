//! The one budgeted LRU under every reuse tier.
//!
//! Decoded GOPs (weight = frames), resident fragments (weight = bytes)
//! and the disk cache's index (weight = file bytes) all need the same
//! thing: a concurrent map whose total weight is held under a budget by
//! evicting the least-recently-touched entry. *Admission* — whether an
//! entry should be inserted at all — is each caller's policy and never
//! appears here.
//!
//! Concurrency: one lock over the map, the stamp counter and the weight
//! total. A hit is one lock hold with no allocation; an insert evicts
//! within its own hold, scanning for the oldest stamp (eviction is rare
//! next to the hit path).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

struct Entry<V> {
    value: V,
    weight: u64,
    /// Last-touch stamp.
    stamp: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    total: u64,
    next_stamp: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Inner<K, V> {
    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Looks `key` up, refreshing its LRU stamp on a hit.
    fn touch(&mut self, key: &K) -> Option<V> {
        let stamp = self.stamp();
        let entry = self.map.get_mut(key)?;
        entry.stamp = stamp;
        Some(entry.value.clone())
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-stamped
    /// entries other than `key` until the total fits `budget`, oldest
    /// first.
    fn insert(&mut self, key: K, value: V, weight: u64, budget: u64) -> Vec<(K, V)> {
        let stamp = self.stamp();
        self.total += weight;
        let entry = Entry {
            value,
            weight,
            stamp,
        };
        if let Some(old) = self.map.insert(key.clone(), entry) {
            self.total -= old.weight;
        }
        let mut evicted = Vec::new();
        while self.total > budget {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            let old = self.map.remove(&k).expect("victim is present");
            self.total -= old.weight;
            evicted.push((k, old.value));
        }
        evicted
    }
}

/// A weight-budgeted LRU map.
pub(crate) struct BudgetLru<K, V> {
    budget: u64,
    inner: Mutex<Inner<K, V>>,
}

impl<K: Hash + Eq + Clone, V: Clone> BudgetLru<K, V> {
    /// An empty map that evicts once the total weight exceeds `budget`.
    pub fn new(budget: u64) -> Self {
        BudgetLru {
            budget,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                total: 0,
                next_stamp: 0,
            }),
        }
    }

    /// Entries hold only memoized or re-derivable data (no invariant
    /// spans an unwind), so a poisoned lock is recovered rather than
    /// cascading a panic into every later lookup.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured weight budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Total weight currently held.
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Looks `key` up, refreshing its LRU stamp on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        self.lock().touch(key)
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&self, key: &K) -> Option<V> {
        let mut inner = self.lock();
        let old = inner.map.remove(key)?;
        inner.total -= old.weight;
        Some(old.value)
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-stamped
    /// entries until the total fits the budget, never evicting `key`
    /// itself. Returns what was evicted, oldest first, so the caller can
    /// release whatever backs those entries.
    pub fn insert(&self, key: K, value: V, weight: u64) -> Vec<(K, V)> {
        self.lock().insert(key, value, weight, self.budget)
    }

    /// Looks `key` up like [`get`](Self::get); when it is absent, inserts
    /// `make()` at `weight` under the same lock hold, so concurrent
    /// callers agree on one value, then evicts like
    /// [`insert`](Self::insert). Returns the value and whether it was
    /// already there.
    pub fn get_or_insert_with(&self, key: K, weight: u64, make: impl FnOnce() -> V) -> (V, bool) {
        let mut inner = self.lock();
        if let Some(value) = inner.touch(&key) {
            return (value, true);
        }
        let value = make();
        let evicted = inner.insert(key, value.clone(), weight, self.budget);
        // Evicted values are dropped after the lock is released.
        drop(inner);
        drop(evicted);
        (value, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_globally_oldest_sparing_new_and_retouched_entries() {
        let lru: BudgetLru<u64, &str> = BudgetLru::new(30);
        // Weight 10 each → every insert past the third evicts exactly
        // the oldest entry, sparing the retouched one.
        for k in 0..3 {
            assert!(lru.insert(k, "v", 10).is_empty());
        }
        assert_eq!(lru.get(&0), Some("v"), "retouch 0: now 1 is the oldest");
        for k in 3..16u64 {
            let victim = match k {
                3 => 1,
                4 => 2,
                5 => 0,
                _ => k - 3,
            };
            assert_eq!(lru.insert(k, "v", 10), vec![(victim, "v")], "insert {k}");
            assert_eq!((lru.total(), lru.len()), (30, 3));
        }
        // An entry heavier than the whole budget evicts everything else
        // but never itself: admission is the caller's decision.
        let evicted = lru.insert(99, "big", 50);
        assert_eq!(
            evicted.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            [13, 14, 15]
        );
        assert_eq!((lru.total(), lru.len()), (50, 1));
        assert_eq!(lru.remove(&99), Some("big"));
        assert_eq!((lru.total(), lru.len()), (0, 0));
        assert_eq!(lru.remove(&99), None);
    }
}
