//! A shared cache of decoded GOP prefixes.
//!
//! Grid and splice plans read the *same* source ranges from several
//! render segments: a 2×2 grid decodes each input once per cell, and
//! parallel segments of one clip re-roll the boundary GOPs. The cache
//! memoizes decoded GOP prefixes behind [`Arc`], keyed by
//! `(video, keyframe index)`, so concurrent [`SourceCursor`]s decode each
//! GOP once and share the frames without copying. How far a prefix
//! reaches is the decoder's business: the executor's cursors stop at the
//! last frame their run reads from the GOP, a cursor without a read
//! reach at the GOP end. The cache only stores what it is given.
//!
//! [`SourceCursor`]: crate::SourceCursor

use crate::budget_lru::BudgetLru;
use crate::flight::{Claim, SingleFlight};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use v2v_frame::Frame;

/// One decoded GOP prefix: frames in presentation order starting at the
/// keyframe, each shared. It may stop before the next keyframe.
pub type GopFrames = Arc<Vec<Arc<Frame>>>;

type GopKey = (String, u64);

/// A thread-safe LRU cache of decoded GOP prefixes, bounded by total
/// frame count.
///
/// A capacity of `0` disables the cache (cursors fall back to private
/// sequential decoding).
///
/// [`get_or_insert_with`](GopCache::get_or_insert_with) gives exactly-once
/// decode semantics under concurrency: the first requester of a GOP
/// decodes it (a miss), every concurrent or later requester waits for /
/// reuses that result (a hit). This is what makes per-cursor hit/miss
/// accounting deterministic.
pub struct GopCache {
    /// Weight = frames. Every decoded prefix is admitted, even one larger
    /// than the whole capacity: the cursor that decoded it needs it, and
    /// the next insert evicts it.
    lru: BudgetLru<GopKey, GopFrames>,
    /// GOPs being decoded right now; other requesters of the same GOP
    /// wait here instead of decoding a duplicate.
    flight: SingleFlight<GopKey, GopFrames>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for GopCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GopCache")
            .field("capacity_frames", &self.lru.budget())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl GopCache {
    /// A cache holding at most `capacity_frames` decoded frames.
    pub fn new(capacity_frames: usize) -> GopCache {
        GopCache {
            lru: BudgetLru::new(capacity_frames as u64),
            flight: SingleFlight::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn enabled(&self) -> bool {
        self.lru.budget() > 0
    }

    /// Looks up the GOP starting at keyframe index `gop` of `video`,
    /// refreshing its LRU stamp. Counts a hit or miss.
    pub fn get(&self, video: &str, gop: u64) -> Option<GopFrames> {
        let found = self.lru.get(&(video.to_owned(), gop));
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts a decoded GOP, evicting least-recently-used entries while
    /// the total frame count exceeds capacity (the new entry itself is
    /// never evicted by its own insertion).
    pub fn insert(&self, video: &str, gop: u64, frames: GopFrames) {
        let weight = frames.len() as u64;
        self.lru.insert((video.to_owned(), gop), frames, weight);
    }

    /// Serves the GOP at keyframe `gop` of `video`, decoding it at most
    /// once process-wide: the first requester runs `decode` (counted as a
    /// miss), concurrent requesters of the same key block until that
    /// decode lands and then share it (counted as hits).
    ///
    /// Returns the frames plus `was_hit` so callers can attribute the
    /// hit/miss to themselves deterministically — the caller that paid
    /// for the decode sees `false`, everyone else `true`. A failed
    /// decode releases the key so a later requester can retry.
    pub fn get_or_insert_with<E>(
        &self,
        video: &str,
        gop: u64,
        decode: impl FnOnce() -> Result<GopFrames, E>,
    ) -> Result<(GopFrames, bool), E> {
        let key = (video.to_owned(), gop);
        let hit = |frames| {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Ok((frames, true))
        };
        // The hit path is the lookup alone: one shard lock.
        let guard = loop {
            if let Some(frames) = self.lru.get(&key) {
                return hit(frames);
            }
            match self.flight.claim(key.clone()) {
                Claim::Owner(guard) => break guard,
                Claim::Shared(Some(frames)) => return hit(frames),
                // The decoder failed: contend to retry.
                Claim::Shared(None) => {}
            }
        };
        // Claim → lookup → decode → insert → publish: a decoder that
        // finished between the lookup above and the claim has already
        // inserted, so it is found here, never decoded twice.
        if let Some(frames) = self.lru.get(&key) {
            guard.publish(frames.clone());
            return hit(frames);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let frames = decode()?;
        self.lru.insert(key, frames.clone(), frames.len() as u64);
        guard.publish(frames.clone());
        Ok((frames, false))
    }

    /// GOP lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// GOP lookups that required a decode.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Decoded frames currently held.
    pub fn frames_held(&self) -> usize {
        self.lru.total() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_frame::FrameType;

    fn gop(n: usize) -> GopFrames {
        Arc::new(
            (0..n)
                .map(|_| Arc::new(Frame::black(FrameType::gray8(8, 8))))
                .collect(),
        )
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = GopCache::new(100);
        assert!(c.get("a", 0).is_none());
        c.insert("a", 0, gop(4));
        assert!(c.get("a", 0).is_some());
        assert!(c.get("a", 4).is_none());
        assert!(c.get("b", 0).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn lru_eviction_bounded_by_frames() {
        let c = GopCache::new(10);
        c.insert("v", 0, gop(4));
        c.insert("v", 4, gop(4));
        c.insert("v", 8, gop(4)); // 12 frames > 10 → evict LRU ("v", 0)
        assert!(c.frames_held() <= 10);
        assert!(c.get("v", 0).is_none(), "oldest GOP must be evicted");
        assert!(c.get("v", 8).is_some());
    }

    #[test]
    fn touch_refreshes_lru_order() {
        let c = GopCache::new(10);
        c.insert("v", 0, gop(4));
        c.insert("v", 4, gop(4));
        assert!(c.get("v", 0).is_some()); // refresh GOP 0
        c.insert("v", 8, gop(4)); // now GOP 4 is the LRU victim
        assert!(c.get("v", 0).is_some());
        assert!(c.get("v", 4).is_none());
    }

    #[test]
    fn oversized_gop_still_usable() {
        // A single GOP larger than capacity is kept (the cursor needs it)
        // but evicted as soon as a second entry lands.
        let c = GopCache::new(2);
        c.insert("v", 0, gop(5));
        assert!(c.get("v", 0).is_some());
        c.insert("v", 5, gop(5));
        assert!(c.get("v", 0).is_none());
    }

    #[test]
    fn get_or_insert_decodes_exactly_once_under_contention() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let c = GopCache::new(1000);
        let decodes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (frames, _) = c
                        .get_or_insert_with("v", 0, || {
                            decodes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters really queue.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<_, ()>(gop(4))
                        })
                        .unwrap();
                    assert_eq!(frames.len(), 4);
                });
            }
        });
        assert_eq!(
            decodes.load(Ordering::SeqCst),
            1,
            "one decode for 8 readers"
        );
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 7);
    }

    #[test]
    fn failed_decode_releases_the_key() {
        let c = GopCache::new(100);
        let err: Result<_, &str> = c.get_or_insert_with("v", 0, || Err("decoder broke"));
        assert!(err.is_err());
        // The key must not stay marked in-flight: a retry decodes anew.
        let (frames, was_hit) = c
            .get_or_insert_with("v", 0, || Ok::<_, &str>(gop(2)))
            .unwrap();
        assert_eq!(frames.len(), 2);
        assert!(!was_hit);
    }

    #[test]
    fn was_hit_attributes_the_decode() {
        let c = GopCache::new(100);
        let (_, first) = c
            .get_or_insert_with("v", 0, || Ok::<_, ()>(gop(3)))
            .unwrap();
        let (_, second) = c
            .get_or_insert_with("v", 0, || -> Result<_, ()> { panic!("must not re-decode") })
            .unwrap();
        assert!(!first, "first requester pays for the decode");
        assert!(second, "second requester hits");
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let c = GopCache::new(0);
        assert!(!c.enabled());
        assert!(GopCache::new(1).enabled());
    }
}
