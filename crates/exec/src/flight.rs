//! The one single-flight: exactly-once work per key across concurrent
//! callers.
//!
//! When two concurrent plans contain the same cacheable segment, the
//! disk cache only helps if one finishes before the other starts; two
//! renders *in flight at once* each miss and both pay the full decode.
//! [`SingleFlight`] closes that window: the first caller to
//! [`claim`](SingleFlight::claim) a key becomes its **owner**; everyone
//! arriving while the owner works blocks and receives the value the
//! owner published. Three layers share this one implementation —
//! decoded GOPs ([`GopCache`](crate::GopCache)), rendered fragments
//! ([`FragmentFlight`]) and, in `v2v-serve`, whole query responses.
//!
//! Ordering invariant (the reason duplicates are *provably* impossible
//! rather than merely unlikely): callers claim **before** consulting
//! the slower tiers, and an owner stores **before** publishing. A
//! latecomer therefore either joins the flight (shared) or, if the
//! flight already drained, finds the entry in the tier below.
//!
//! Failure is not sticky: an owner that errors (or panics — the guard
//! publishes on drop) releases the key with no value, and every waiter
//! falls back to doing the work itself.
//!
//! Concurrency: the slot map is split into `SHARD_COUNT` lock shards
//! (each with its own condvar), so claims on distinct keys rarely touch
//! the same lock and a publish only wakes the waiters of its own shard.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use v2v_container::Fragment;

/// Number of lock shards of every sharded reuse structure. A small
/// power of two: enough that a handful of serving threads rarely
/// collide, small enough that a cross-shard scan stays trivial.
pub(crate) const SHARD_COUNT: usize = 8;

/// The shard a key lives in.
pub(crate) fn shard_of<K: Hash>(key: &K) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish() as usize % SHARD_COUNT
}

struct Slot<V> {
    /// `None` while the owner works; the released outcome afterwards
    /// (an inner `None` means the owner failed).
    done: Option<Option<V>>,
    /// Blocked claimants still to drain; the last one out removes the
    /// slot so a later sequential repeat goes to the tier below instead
    /// of pinning the value here forever.
    waiters: usize,
}

struct Shard<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
    done: Condvar,
}

impl<K, V> Shard<K, V> {
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<V>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Exactly-once publish/subscribe on keys of type `K`.
pub struct SingleFlight<K, V> {
    shards: Vec<Shard<K, V>>,
    published: AtomicU64,
    shared: AtomicU64,
}

/// Segment-level single-flight shared across every engine run that
/// participates in work sharing (one instance per daemon), keyed by
/// fragment key.
pub type FragmentFlight = SingleFlight<u64, Arc<Fragment>>;

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight {
            shards: (0..SHARD_COUNT)
                .map(|_| Shard {
                    slots: Mutex::new(HashMap::new()),
                    done: Condvar::new(),
                })
                .collect(),
            published: AtomicU64::new(0),
            shared: AtomicU64::new(0),
        }
    }
}

impl<K, V> std::fmt::Debug for SingleFlight<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFlight")
            .field("published", &self.published())
            .field("shared", &self.shared())
            .finish()
    }
}

/// Result of [`SingleFlight::claim`].
pub enum Claim<'a, K: Hash + Eq + Clone, V: Clone> {
    /// This caller owns the work. It must
    /// [`publish`](FlightGuard::publish) (or drop the guard, which
    /// publishes "failed").
    Owner(FlightGuard<'a, K, V>),
    /// Another caller did the work; `None` means it failed and the
    /// caller should do the work itself.
    Shared(Option<V>),
}

/// Ownership of one in-flight key. Publishing (or dropping) releases
/// every waiter.
pub struct FlightGuard<'a, K: Hash + Eq + Clone, V: Clone> {
    flight: &'a SingleFlight<K, V>,
    key: K,
    released: bool,
}

impl<K: Hash + Eq + Clone, V: Clone> FlightGuard<'_, K, V> {
    /// Hands the value to every waiter and releases the key. Call only
    /// after the value is stored in the tier below, so post-flight
    /// latecomers find it there.
    pub fn publish(mut self, value: V) {
        self.released = true;
        self.flight.release(&self.key, Some(value));
        self.flight.published.fetch_add(1, Ordering::Relaxed);
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.released {
            // Owner failed (error or panic): wake waiters empty-handed
            // so they do the work themselves instead of blocking forever.
            self.flight.release(&self.key, None);
        }
    }
}

impl<K, V> SingleFlight<K, V> {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Values published by owners so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Claims served a value from another caller's in-flight work.
    pub fn shared(&self) -> u64 {
        self.shared.load(Ordering::Relaxed)
    }

    /// Keys an owner is working on right now.
    pub fn inflight(&self) -> usize {
        let working = |s: &Shard<K, V>| s.lock().values().filter(|x| x.done.is_none()).count();
        self.shards.iter().map(working).sum()
    }

    /// Claimants currently blocked on an owner.
    pub fn waiting(&self) -> usize {
        let blocked = |s: &Shard<K, V>| s.lock().values().map(|x| x.waiters).sum::<usize>();
        self.shards.iter().map(blocked).sum()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SingleFlight<K, V> {
    /// True while another caller owns `key` — used by the scheduler to
    /// defer a task that would only block, and by tests to synchronize.
    pub fn is_inflight(&self, key: &K) -> bool {
        let slots = self.shards[shard_of(key)].lock();
        slots.get(key).is_some_and(|s| s.done.is_none())
    }

    /// Claims `key`: the first caller becomes the owner; concurrent
    /// callers block until the owner publishes and receive its value.
    pub fn claim(&self, key: K) -> Claim<'_, K, V> {
        let shard = &self.shards[shard_of(&key)];
        let mut slots = shard.lock();
        let Some(slot) = slots.get_mut(&key) else {
            let fresh = Slot {
                done: None,
                waiters: 0,
            };
            slots.insert(key.clone(), fresh);
            return Claim::Owner(FlightGuard {
                flight: self,
                key,
                released: false,
            });
        };
        slot.waiters += 1;
        let outcome = loop {
            // Re-inspect under the refreshed lock each time: the slot
            // is either released or (spurious wake) still being worked.
            let slot = slots.get_mut(&key).expect("slot outlives its waiters");
            if let Some(outcome) = &slot.done {
                let outcome = outcome.clone();
                slot.waiters -= 1;
                if slot.waiters == 0 {
                    slots.remove(&key);
                }
                break outcome;
            }
            slots = shard
                .done
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(slots);
        if outcome.is_some() {
            self.shared.fetch_add(1, Ordering::Relaxed);
        }
        Claim::Shared(outcome)
    }

    /// Marks `key` done and wakes every waiter. With no waiters the
    /// slot is removed immediately (latecomers go to the tier below).
    fn release(&self, key: &K, outcome: Option<V>) {
        let shard = &self.shards[shard_of(key)];
        let mut slots = shard.lock();
        if let Some(slot) = slots.get_mut(key) {
            if slot.waiters == 0 {
                slots.remove(key);
            } else {
                slot.done = Some(outcome);
            }
        }
        drop(slots);
        shard.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    type Flight = SingleFlight<u64, Arc<Vec<u8>>>;

    fn own(flight: &Flight, key: u64) -> FlightGuard<'_, u64, Arc<Vec<u8>>> {
        match flight.claim(key) {
            Claim::Owner(guard) => guard,
            Claim::Shared(_) => panic!("key {key} must be unclaimed"),
        }
    }

    #[test]
    fn exactly_one_owner_under_contention() {
        let flight = Flight::new();
        let owners = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| match flight.claim(99) {
                    Claim::Owner(guard) => {
                        owners.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters really queue.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        guard.publish(Arc::new(vec![7; 4]));
                    }
                    Claim::Shared(value) => {
                        assert_eq!(*value.expect("owner published"), vec![7; 4]);
                    }
                });
            }
        });
        assert_eq!(owners.load(Ordering::SeqCst), 1, "exactly one owner");
        assert_eq!(flight.published(), 1);
        assert_eq!(flight.shared(), 15);
        assert_eq!((flight.inflight(), flight.waiting()), (0, 0));
        // The drained slot is gone: a later claim owns afresh.
        drop(own(&flight, 99));
    }

    #[test]
    fn dropped_guard_releases_waiters_empty_handed() {
        let flight = Flight::new();
        std::thread::scope(|scope| {
            let guard = own(&flight, 5);
            let waiter = scope.spawn(|| match flight.claim(5) {
                Claim::Shared(value) => assert!(value.is_none(), "failed owner shares nothing"),
                Claim::Owner(_) => panic!("waiter must not own while key is claimed"),
            });
            while flight.waiting() == 0 {
                std::thread::yield_now();
            }
            drop(guard);
            waiter.join().unwrap();
        });
        assert_eq!((flight.published(), flight.shared()), (0, 0));
        // The key is claimable again after the failure.
        drop(own(&flight, 5));
    }

    #[test]
    fn distinct_and_same_shard_keys_are_independent() {
        let flight = Flight::new();
        let twin = (2u64..).find(|k| shard_of(k) == shard_of(&1u64)).unwrap();
        let other = (2u64..).find(|k| shard_of(k) != shard_of(&1u64)).unwrap();
        let (a, b, c) = (own(&flight, 1), own(&flight, twin), own(&flight, other));
        assert_eq!(flight.inflight(), 3);
        a.publish(Arc::new(vec![1]));
        assert!(!flight.is_inflight(&1));
        assert!(flight.is_inflight(&twin) && flight.is_inflight(&other));
        b.publish(Arc::new(vec![2]));
        c.publish(Arc::new(vec![3]));
        assert_eq!(flight.inflight(), 0);
        assert_eq!(flight.shared(), 0);
    }

    #[test]
    fn is_inflight_tracks_ownership_window() {
        let flight = Flight::new();
        assert!(!flight.is_inflight(&3));
        let guard = own(&flight, 3);
        assert!(flight.is_inflight(&3));
        guard.publish(Arc::new(vec![3]));
        assert!(!flight.is_inflight(&3));
    }
}
