//! A shared cache of decoded GOP prefixes, grown on demand.
//!
//! Grid and splice plans read the *same* source ranges from several
//! render segments and decode lanes: a 2×2 grid reads its source once
//! per cell, and parallel segments of one clip re-roll the boundary
//! GOPs. The cache keeps one [`GopPrefix`] per `(video, keyframe index)`:
//! a decoder and the frames it has decoded so far, from the keyframe on,
//! each behind [`Arc`]. A read of frame *k* decodes up to *k* only when
//! no reader has got that far yet, so every frame is decoded at most
//! once per cache whichever [`SourceCursor`] asks first, and decoding
//! stops at the last frame anyone reads.
//!
//! [`SourceCursor`]: crate::SourceCursor

use crate::budget_lru::BudgetLru;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use v2v_codec::Decoder;
use v2v_frame::Frame;

type GopKey = (String, u64);

/// One GOP's decoded prefix: frames in presentation order starting at
/// the keyframe, and the decoder positioned on the last of them.
pub struct GopPrefix {
    state: Mutex<PrefixState>,
}

struct PrefixState {
    decoder: Decoder,
    frames: Vec<Arc<Frame>>,
}

impl std::fmt::Debug for GopPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GopPrefix")
            .field("frames", &self.len())
            .finish()
    }
}

impl GopPrefix {
    /// An empty prefix whose first decode is the GOP's keyframe.
    fn new(decoder: Decoder) -> GopPrefix {
        GopPrefix {
            state: Mutex::new(PrefixState {
                decoder,
                frames: Vec::new(),
            }),
        }
    }

    /// A frame is pushed only after its decode succeeded, and a failed
    /// decode leaves the decoder's reference untouched, so the state is
    /// valid between any two steps: a reader whose decode panicked leaves
    /// a prefix others can keep growing.
    fn lock(&self) -> MutexGuard<'_, PrefixState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Frames decoded so far.
    fn len(&self) -> usize {
        self.lock().frames.len()
    }

    /// Frame `k` of the GOP (`0` is the keyframe). Missing frames up to
    /// `k` are decoded first, one `decode(decoder, i)` call per frame
    /// offset `i`, each under the prefix lock and in order; the lock is
    /// released between frames, so a reader of an earlier frame is
    /// served as soon as that frame exists. An error leaves the prefix
    /// as it was before the failing frame.
    pub fn frame<E>(
        &self,
        k: usize,
        mut decode: impl FnMut(&mut Decoder, u64) -> Result<Arc<Frame>, E>,
    ) -> Result<Arc<Frame>, E> {
        loop {
            let mut guard = self.lock();
            let state = &mut *guard;
            if let Some(frame) = state.frames.get(k) {
                return Ok(frame.clone());
            }
            let frame = decode(&mut state.decoder, state.frames.len() as u64)?;
            state.frames.push(frame);
        }
    }
}

/// A thread-safe LRU cache of decoded GOP prefixes, bounded by frame
/// count.
///
/// A capacity of `0` disables the cache (cursors fall back to private
/// sequential decoding).
///
/// [`prefix`](GopCache::prefix) hands every requester of a GOP the same
/// entry: the first requester creates it (a miss), everyone after shares
/// it (a hit). Each cursor books its own lookups, so run totals are
/// deterministic; which cursor decodes a shared frame is not.
pub struct GopCache {
    /// Weight = the entry's whole GOP length, charged when it is created:
    /// an upper bound on what the prefix can grow to, so the budget stays
    /// a bound. Every entry is admitted, even one larger than the whole
    /// capacity: its reader needs it, and the next insert evicts it.
    lru: BudgetLru<GopKey, Arc<GopPrefix>>,
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
    /// A cache charged at most `capacity_frames` frames.
    pub fn new(capacity_frames: usize) -> GopCache {
        GopCache {
            lru: BudgetLru::new(capacity_frames as u64),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn enabled(&self) -> bool {
        self.lru.budget() > 0
    }

    /// The prefix of the `gop_len`-frame GOP starting at keyframe index
    /// `gop` of `video`, refreshing its LRU stamp. On a miss an empty
    /// prefix over `decoder()` is created and charged `gop_len` frames.
    /// Returns the prefix and whether it already existed; counts a hit
    /// or a miss.
    pub fn prefix(
        &self,
        video: &str,
        gop: u64,
        gop_len: u64,
        decoder: impl FnOnce() -> Decoder,
    ) -> (Arc<GopPrefix>, bool) {
        let (prefix, was_hit) =
            self.lru
                .get_or_insert_with((video.to_owned(), gop), gop_len, || {
                    Arc::new(GopPrefix::new(decoder()))
                });
        let counter = if was_hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        (prefix, was_hit)
    }

    /// GOP lookups served by an existing prefix.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// GOP lookups that created a prefix.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Frames charged by the prefixes currently held.
    pub fn frames_held(&self) -> usize {
        self.lru.total() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use v2v_codec::{CodecError, CodecParams};
    use v2v_frame::FrameType;

    fn decoder() -> Decoder {
        Decoder::new(CodecParams::new(FrameType::gray8(8, 8), 4, 0))
    }

    fn frame() -> Arc<Frame> {
        Arc::new(Frame::black(FrameType::gray8(8, 8)))
    }

    /// A decode that counts its calls and never fails.
    fn counting(n: &AtomicU64) -> impl FnMut(&mut Decoder, u64) -> Result<Arc<Frame>, ()> + '_ {
        move |_, _| {
            n.fetch_add(1, Ordering::SeqCst);
            Ok(frame())
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = GopCache::new(100);
        let (_, hit) = c.prefix("a", 0, 4, decoder);
        assert!(!hit);
        assert!(c.prefix("a", 0, 4, decoder).1);
        assert!(!c.prefix("a", 4, 4, decoder).1);
        assert!(!c.prefix("b", 0, 4, decoder).1);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn entries_are_charged_their_whole_gop_up_front() {
        let c = GopCache::new(100);
        let (p, _) = c.prefix("v", 0, 12, decoder);
        assert_eq!((p.len(), c.frames_held()), (0, 12));
        let n = AtomicU64::new(0);
        p.frame(2, counting(&n)).unwrap();
        assert_eq!((p.len(), c.frames_held()), (3, 12));
    }

    #[test]
    fn lru_eviction_bounded_by_frames() {
        let c = GopCache::new(10);
        c.prefix("v", 0, 4, decoder);
        c.prefix("v", 4, 4, decoder);
        c.prefix("v", 8, 4, decoder); // 12 frames > 10 → evict LRU ("v", 0)
        assert!(c.frames_held() <= 10);
        assert!(c.prefix("v", 8, 4, decoder).1);
        assert!(!c.prefix("v", 0, 4, decoder).1, "oldest GOP was evicted");
    }

    #[test]
    fn touch_refreshes_lru_order() {
        let c = GopCache::new(10);
        c.prefix("v", 0, 4, decoder);
        c.prefix("v", 4, 4, decoder);
        assert!(c.prefix("v", 0, 4, decoder).1); // refresh GOP 0
        c.prefix("v", 8, 4, decoder); // now GOP 4 is the LRU victim
        assert!(c.prefix("v", 0, 4, decoder).1);
        assert!(!c.prefix("v", 4, 4, decoder).1);
    }

    #[test]
    fn oversized_gop_still_usable() {
        // A single GOP larger than capacity is kept (its reader needs it)
        // but evicted as soon as a second entry lands.
        let c = GopCache::new(2);
        c.prefix("v", 0, 5, decoder);
        assert!(c.prefix("v", 0, 5, decoder).1);
        c.prefix("v", 5, 5, decoder);
        assert!(!c.prefix("v", 0, 5, decoder).1);
    }

    #[test]
    fn a_read_decodes_only_what_is_missing() {
        let p = GopPrefix::new(decoder());
        let n = AtomicU64::new(0);
        p.frame(3, counting(&n)).unwrap();
        assert_eq!((n.load(Ordering::SeqCst), p.len()), (4, 4));
        p.frame(1, counting(&n)).unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 4, "an earlier frame is served");
        p.frame(5, counting(&n)).unwrap();
        assert_eq!((n.load(Ordering::SeqCst), p.len()), (6, 6));
    }

    #[test]
    fn frames_decode_in_order_exactly_once_under_contention() {
        let c = GopCache::new(1000);
        let offsets = Mutex::new(Vec::new());
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let (c, offsets, barrier) = (&c, &offsets, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let (p, _) = c.prefix("v", 0, 16, decoder);
                    for k in [t, 15 - t, t / 2] {
                        p.frame(k, |_, i| {
                            offsets.lock().unwrap().push(i);
                            Ok::<_, ()>(frame())
                        })
                        .unwrap();
                    }
                });
            }
        });
        let decoded = offsets.into_inner().unwrap();
        assert_eq!(decoded, (0..16).collect::<Vec<u64>>());
        assert_eq!((c.misses(), c.hits()), (1, 7));
    }

    #[test]
    fn was_hit_attributes_the_decode() {
        let c = GopCache::new(100);
        let n = AtomicU64::new(0);
        let (first, first_hit) = c.prefix("v", 0, 3, decoder);
        first.frame(2, counting(&n)).unwrap();
        let (second, second_hit) = c.prefix("v", 0, 3, || panic!("a hit builds no decoder"));
        second
            .frame(2, |_, _| -> Result<_, ()> { panic!("must not re-decode") })
            .unwrap();
        assert!(!first_hit, "first requester creates the prefix");
        assert!(second_hit, "second requester hits");
        assert_eq!(n.load(Ordering::SeqCst), 3);
    }

    /// A failure is not sticky: the frames before it stay, and a later
    /// read decodes on from the failing frame.
    #[test]
    fn failed_decode_releases_the_key() {
        let p = GopPrefix::new(decoder());
        let n = AtomicU64::new(0);
        p.frame(1, counting(&n)).unwrap();
        let err = p.frame(4, |_, i| {
            if i == 3 {
                Err(CodecError::Corrupt("broke".into()))
            } else {
                Ok(frame())
            }
        });
        assert!(err.is_err());
        assert_eq!(p.len(), 3, "frames before the failure stay");
        p.frame(4, counting(&n)).unwrap();
        assert_eq!((n.load(Ordering::SeqCst), p.len()), (4, 5));
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let c = GopCache::new(0);
        assert!(!c.enabled());
        assert!(GopCache::new(1).enabled());
    }
}
