//! The hot in-memory fragment tier above the persistent render cache.
//!
//! Under heavy serving traffic the same few fragments are read over and
//! over; a disk round-trip (plus checksum verification) per hit is pure
//! overhead once an entry is hot. This tier keeps fragments read from
//! disk resident as parsed [`Fragment`]s behind `Arc`, so a repeat hit
//! is a hash lookup and a refcount bump.
//!
//! Policy:
//!
//! * **Byte-budgeted LRU.** Every fragment read from disk is admitted,
//!   charged its serialized byte size in the shared `BudgetLru`; the
//!   least-recently-touched entry is evicted when the total exceeds the
//!   budget. An entry larger than the whole budget is never admitted.
//! * **No authority.** The tier holds copies of data whose truth lives
//!   on disk (or is re-renderable); it can be dropped at any time
//!   without correctness impact, and a poisoned lock is recovered, not
//!   propagated.

use crate::budget_lru::BudgetLru;
use crate::render_cache::EntryKey;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use v2v_container::Fragment;

/// A byte-budgeted, in-memory LRU of fragments.
///
/// Owned by a [`RenderCache`](crate::RenderCache) and keyed by the same
/// [`EntryKey`]s, so the two tiers address one namespace.
pub struct MemTier {
    resident: BudgetLru<EntryKey, Arc<Fragment>>,
    hits: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for MemTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTier")
            .field("budget_bytes", &self.budget_bytes())
            .field("bytes_held", &self.bytes_held())
            .field("hits", &self.hits())
            .finish()
    }
}

impl MemTier {
    /// A tier with the given byte budget.
    pub fn new(budget_bytes: u64) -> MemTier {
        MemTier {
            resident: BudgetLru::new(budget_bytes),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.resident.budget()
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

    /// Looks up `key`, refreshing its LRU stamp on a hit.
    pub(crate) fn get(&self, key: EntryKey) -> Option<Arc<Fragment>> {
        let frag = self.resident.get(&key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(frag)
    }

    /// Makes a fragment just read from the slower tier resident, unless
    /// it is larger than the whole budget.
    pub(crate) fn admit(&self, key: EntryKey, frag: &Arc<Fragment>, bytes: u64) {
        if bytes > self.budget_bytes() {
            return;
        }
        let evicted = self.resident.insert(key, Arc::clone(frag), bytes);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    /// Drops `key` if resident — called when a resident fragment turns
    /// out unusable, so the next lookup falls through to disk.
    pub(crate) fn invalidate(&self, key: EntryKey) {
        self.resident.remove(&key);
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

    /// A miss, then the admission of the fragment read from disk.
    fn miss_then_admit(tier: &MemTier, key: EntryKey, f: &Arc<Fragment>, bytes: u64) {
        assert!(tier.get(key).is_none());
        tier.admit(key, f, bytes);
    }

    #[test]
    fn the_first_admit_is_resident_unless_over_budget() {
        let (f, b) = frag(4, 1);
        let tier = MemTier::new(b);
        // One miss and one admit: resident, and the next access hits.
        miss_then_admit(&tier, seg(1), &f, b);
        assert_eq!((tier.entries(), tier.bytes_held()), (1, b));
        assert!(tier.get(seg(1)).is_some());
        assert_eq!(tier.hits(), 1);
        // A result with the same number is a different entry.
        assert!(tier.get(EntryKey::Result(1)).is_none());
        // One byte over the budget is never resident, however often it
        // is admitted, and it displaces nothing.
        for _ in 0..3 {
            miss_then_admit(&tier, seg(2), &f, b + 1);
        }
        assert_eq!((tier.entries(), tier.evictions()), (1, 0));
        assert!(tier.get(seg(1)).is_some());
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let (f, one) = frag(8, 3);
        // Room for two entries, not three.
        let tier = MemTier::new(one * 2 + one / 2);
        miss_then_admit(&tier, seg(1), &f, one);
        miss_then_admit(&tier, seg(2), &f, one);
        assert_eq!(tier.entries(), 2);
        assert_eq!(tier.evictions(), 0);
        // Touch 1 so 2 is the LRU victim.
        assert!(tier.get(seg(1)).is_some());
        miss_then_admit(&tier, seg(3), &f, one);
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
            miss_then_admit(&tier, seg(9), &f, b);
            assert_eq!(tier.entries(), 0);
        }
    }

    #[test]
    fn invalidate_drops_resident_entry() {
        let tier = MemTier::new(1 << 20);
        let (f, b) = frag(4, 5);
        miss_then_admit(&tier, seg(1), &f, b);
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
            miss_then_admit(&tier, seg(k), &f, b);
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
