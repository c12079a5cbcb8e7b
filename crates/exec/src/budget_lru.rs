//! The one budgeted LRU under every reuse tier.
//!
//! Decoded GOPs (weight = frames), resident fragments (weight = bytes)
//! and the disk cache's index (weight = file bytes) all need the same
//! thing: a concurrent map whose total weight is held under a budget by
//! evicting the least-recently-touched entry. *Admission* — whether an
//! entry should be inserted at all — is each caller's policy and never
//! appears here.
//!
//! Concurrency: the map is split into [`SHARD_COUNT`] lock shards, so
//! concurrent hits on distinct entries rarely contend, and a hit is one
//! shard lock with no allocation. LRU stamps and the weight total are
//! global atomics — eviction still picks the globally least-recently
//! used entry (it scans the shards, which is fine because eviction is
//! rare next to the hit path).

use crate::flight::{shard_of, SHARD_COUNT};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct Entry<V> {
    value: V,
    weight: u64,
    /// Last-touch stamp from the global counter.
    stamp: u64,
}

/// A sharded, weight-budgeted LRU map.
pub(crate) struct BudgetLru<K, V> {
    budget: u64,
    shards: Vec<Mutex<HashMap<K, Entry<V>>>>,
    total: AtomicU64,
    next_stamp: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> BudgetLru<K, V> {
    /// An empty map that evicts once the total weight exceeds `budget`.
    pub fn new(budget: u64) -> Self {
        BudgetLru {
            budget,
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            total: AtomicU64::new(0),
            next_stamp: AtomicU64::new(0),
        }
    }

    /// Entries hold only memoized or re-derivable data (no invariant
    /// spans an unwind), so a poisoned shard is recovered rather than
    /// cascading a panic into every later lookup.
    fn lock(&self, shard: usize) -> MutexGuard<'_, HashMap<K, Entry<V>>> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn stamp(&self) -> u64 {
        self.next_stamp.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The configured weight budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Total weight currently held.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        (0..SHARD_COUNT).map(|i| self.lock(i).len()).sum()
    }

    /// Looks `key` up, refreshing its LRU stamp on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let stamp = self.stamp();
        let mut shard = self.lock(shard_of(key));
        let entry = shard.get_mut(key)?;
        entry.stamp = stamp;
        Some(entry.value.clone())
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&self, key: &K) -> Option<V> {
        let old = self.lock(shard_of(key)).remove(key)?;
        self.total.fetch_sub(old.weight, Ordering::Relaxed);
        Some(old.value)
    }

    /// Inserts (or replaces) `key`, then evicts globally
    /// least-recently-stamped entries until the total fits the budget,
    /// never evicting `key` itself. Returns what was evicted, oldest
    /// first, so the caller can release whatever backs those entries.
    pub fn insert(&self, key: K, value: V, weight: u64) -> Vec<(K, V)> {
        let entry = Entry {
            value,
            weight,
            stamp: self.stamp(),
        };
        let old = self.lock(shard_of(&key)).insert(key.clone(), entry);
        self.total.fetch_add(weight, Ordering::Relaxed);
        if let Some(old) = old {
            self.total.fetch_sub(old.weight, Ordering::Relaxed);
        }
        let mut evicted = Vec::new();
        while self.total() > self.budget {
            // Shards are locked one at a time; an entry retouched
            // between the scan and the removal is hot again and spared.
            let mut victim: Option<(usize, K, u64)> = None;
            for i in 0..SHARD_COUNT {
                for (k, e) in self.lock(i).iter() {
                    if *k != key && victim.as_ref().map_or(true, |v| e.stamp < v.2) {
                        victim = Some((i, k.clone(), e.stamp));
                    }
                }
            }
            let Some((i, k, stamp)) = victim else { break };
            let mut shard = self.lock(i);
            if shard.get(&k).is_some_and(|e| e.stamp == stamp) {
                let old = shard.remove(&k).expect("victim present under the lock");
                self.total.fetch_sub(old.weight, Ordering::Relaxed);
                evicted.push((k, old.value));
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_globally_oldest_sparing_new_and_retouched_entries() {
        let lru: BudgetLru<u64, &str> = BudgetLru::new(30);
        // 16 keys cover several shards; weight 10 each → every insert
        // past the third evicts exactly the globally oldest entry, no
        // matter which shard holds it.
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
