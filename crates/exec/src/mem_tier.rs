//! The hot in-memory fragment tier above the persistent render cache.
//!
//! Under heavy serving traffic the same few fragments are read over and
//! over; a disk round-trip (plus checksum verification) per hit is pure
//! overhead once an entry is hot. This tier keeps *frequently accessed*
//! fragments resident as parsed [`Fragment`]s behind `Arc`, so a hot
//! hit is a hash lookup and a refcount bump.
//!
//! Policy:
//!
//! * **Byte-budgeted LRU.** Entries are charged their serialized byte
//!   size in the shared `BudgetLru`; the least-recently-touched entry
//!   is evicted when the total exceeds the budget. An entry larger than
//!   the whole budget is never admitted.
//! * **Frequency-gated promotion.** An entry becomes resident only
//!   after `PROMOTE_AFTER` (2) accesses (ghost counters track
//!   non-resident keys), so a one-off scan cannot flush the hot set —
//!   the clock-like "second chance" half of LRU/clock.
//! * **No authority.** The tier holds copies of data whose truth lives
//!   on disk (or is re-renderable); it can be dropped at any time
//!   without correctness impact, and a poisoned lock is recovered, not
//!   propagated.

use crate::budget_lru::BudgetLru;
use crate::render_cache::EntryKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use v2v_container::Fragment;

/// Accesses required before a key becomes resident.
const PROMOTE_AFTER: u32 = 2;

/// Ghost (non-resident) frequency counters are bounded so an endless
/// stream of distinct keys cannot grow the map without limit; when the
/// cap is hit the counters reset, which only delays promotions.
const MAX_GHOSTS: usize = 65_536;

/// A byte-budgeted, frequency-promoted, in-memory fragment cache.
///
/// Owned by a [`RenderCache`](crate::RenderCache) and keyed by the same
/// [`EntryKey`]s, so the two tiers address one namespace.
pub struct MemTier {
    resident: BudgetLru<EntryKey, Arc<Fragment>>,
    /// Access counts for keys not (yet) resident. Only the miss path —
    /// which goes on to read the disk — takes this lock.
    ghosts: Mutex<HashMap<EntryKey, u32>>,
    hits: AtomicU64,
    evictions: AtomicU64,
    promotions: AtomicU64,
}

impl std::fmt::Debug for MemTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTier")
            .field("budget_bytes", &self.budget_bytes())
            .field("bytes_held", &self.bytes_held())
            .field("hits", &self.hits())
            .field("promotions", &self.promotions())
            .finish()
    }
}

impl MemTier {
    /// A tier with the given byte budget.
    pub fn new(budget_bytes: u64) -> MemTier {
        MemTier {
            resident: BudgetLru::new(budget_bytes),
            ghosts: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
        }
    }

    fn ghosts(&self) -> MutexGuard<'_, HashMap<EntryKey, u32>> {
        self.ghosts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.resident.budget()
    }

    /// Accesses promoted past the gate so far.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Resident entries evicted under budget pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Bytes currently resident.
    pub fn bytes_held(&self) -> u64 {
        self.resident.total()
    }

    /// Resident entry count.
    pub fn entries(&self) -> usize {
        self.resident.len()
    }

    /// Looks up `key`, refreshing its LRU stamp on a hit. A miss also
    /// counts one ghost access so a later [`admit`](MemTier::admit) can
    /// decide on promotion.
    pub(crate) fn get(&self, key: EntryKey) -> Option<Arc<Fragment>> {
        if let Some(frag) = self.resident.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(frag);
        }
        let mut ghosts = self.ghosts();
        if ghosts.len() >= MAX_GHOSTS && !ghosts.contains_key(&key) {
            ghosts.clear();
        }
        *ghosts.entry(key).or_insert(0) += 1;
        None
    }

    /// Offers a fragment just read from the slower tier. It becomes
    /// resident if its access count (including the [`get`](MemTier::get)
    /// miss that preceded this call) has reached the promotion gate and
    /// it fits the budget.
    pub(crate) fn admit(&self, key: EntryKey, frag: &Arc<Fragment>, bytes: u64) {
        if bytes > self.budget_bytes() {
            return;
        }
        {
            let mut ghosts = self.ghosts();
            if ghosts.get(&key).copied().unwrap_or(0) < PROMOTE_AFTER {
                return;
            }
            ghosts.remove(&key);
        }
        self.promotions.fetch_add(1, Ordering::Relaxed);
        let evicted = self.resident.insert(key, Arc::clone(frag), bytes);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    /// Drops `key` if resident — called when a resident fragment turns
    /// out unusable, so the next lookup falls through to disk.
    pub(crate) fn invalidate(&self, key: EntryKey) {
        self.resident.remove(&key);
        self.ghosts().remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::CodecParams;
    use v2v_container::{fragment_to_bytes, StreamWriter};
    use v2v_frame::{Frame, FrameType};
    use v2v_time::{r, Rational};

    fn frag(n: usize, fill: u8) -> (Arc<Fragment>, u64) {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            for v in f.plane_mut(0).data_mut() {
                *v = fill.wrapping_add(i as u8);
            }
            w.push_frame(&f).unwrap();
        }
        let frag = Fragment::from_stream(&w.finish().unwrap());
        let bytes = fragment_to_bytes(&frag).unwrap().len() as u64;
        (Arc::new(frag), bytes)
    }

    fn seg(k: u64) -> EntryKey {
        EntryKey::Segment(k)
    }

    /// Two miss-then-admit rounds: the promotion gate's worth of
    /// accesses.
    fn promote(tier: &MemTier, key: EntryKey, f: &Arc<Fragment>, bytes: u64) {
        for _ in 0..PROMOTE_AFTER {
            assert!(tier.get(key).is_none());
            tier.admit(key, f, bytes);
        }
    }

    #[test]
    fn promotion_requires_repeat_access() {
        let tier = MemTier::new(1 << 20);
        let (f, b) = frag(4, 1);
        // First access: miss, admitted but below the gate → not resident.
        assert!(tier.get(seg(1)).is_none());
        tier.admit(seg(1), &f, b);
        assert_eq!(tier.entries(), 0, "one access must not promote");
        // Second access: miss again, now past the gate → resident.
        assert!(tier.get(seg(1)).is_none());
        tier.admit(seg(1), &f, b);
        assert_eq!(tier.entries(), 1);
        assert_eq!(tier.promotions(), 1);
        // Third access is a memory hit.
        assert!(tier.get(seg(1)).is_some());
        assert_eq!(tier.hits(), 1);
        // A result with the same number is a different entry.
        assert!(tier.get(EntryKey::Result(1)).is_none());
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let (f, one) = frag(8, 3);
        // Room for two entries, not three.
        let tier = MemTier::new(one * 2 + one / 2);
        promote(&tier, seg(1), &f, one);
        promote(&tier, seg(2), &f, one);
        assert_eq!(tier.entries(), 2);
        assert_eq!(tier.evictions(), 0);
        // Touch 1 so 2 is the LRU victim.
        assert!(tier.get(seg(1)).is_some());
        promote(&tier, seg(3), &f, one);
        assert_eq!(tier.evictions(), 1);
        assert!(tier.bytes_held() <= tier.budget_bytes());
        assert!(tier.get(seg(2)).is_none(), "LRU victim gone");
        assert!(tier.get(seg(1)).is_some());
        assert!(tier.get(seg(3)).is_some());
    }

    #[test]
    fn oversized_entry_is_never_admitted() {
        let (f, b) = frag(8, 4);
        // A zero budget disables the tier outright.
        for budget in [0, b / 2] {
            let tier = MemTier::new(budget);
            promote(&tier, seg(9), &f, b);
            assert_eq!(tier.entries(), 0);
        }
    }

    #[test]
    fn invalidate_drops_resident_entry() {
        let tier = MemTier::new(1 << 20);
        let (f, b) = frag(4, 5);
        promote(&tier, seg(1), &f, b);
        assert!(tier.get(seg(1)).is_some());
        tier.invalidate(seg(1));
        assert_eq!((tier.entries(), tier.bytes_held()), (0, 0));
        assert!(tier.get(seg(1)).is_none());
    }

    #[test]
    fn concurrent_hits_on_distinct_entries() {
        let tier = MemTier::new(1 << 24);
        let (f, b) = frag(4, 7);
        for k in 0..16 {
            promote(&tier, seg(k), &f, b);
        }
        std::thread::scope(|scope| {
            for k in 0..16 {
                let tier = &tier;
                scope.spawn(move || {
                    for _ in 0..200 {
                        assert!(tier.get(seg(k)).is_some());
                    }
                });
            }
        });
        assert_eq!(tier.hits(), 16 * 200);
        assert_eq!(tier.entries(), 16);
    }
}
