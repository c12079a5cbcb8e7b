//! Stress test for [`GopCache`]'s exactly-once decode under growing
//! prefixes: many threads reading overlapping GOPs through their own
//! cursors, in different random orders, must decode every frame of a
//! GOP at most once between them, stop each GOP at the last frame
//! anyone reads, serve exactly the frames an uncached cursor decodes,
//! and never deadlock.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Mutex};
use v2v_container::VideoStream;
use v2v_exec::{GopCache, SourceCursor};
use v2v_frame::Frame;
use v2v_integration_tests::marked_stream;

const THREADS: usize = 16;
const READS_PER_THREAD: usize = 60;
/// 10 GOPs of 24 frames per video.
const FRAMES: usize = 240;
const GOP: u32 = 24;
const VIDEOS: [&str; 2] = ["a", "b"];

/// A per-thread xorshift: the read orders differ by thread and repeat
/// across runs.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Every frame of `stream`, decoded by an uncached cursor.
fn reference(stream: &VideoStream) -> Vec<Arc<Frame>> {
    let mut plain = SourceCursor::new(stream, "plain");
    (0..stream.len() as u64)
        .map(|i| plain.frame_at(i).unwrap())
        .collect()
}

#[test]
fn sixteen_threads_decode_each_gop_exactly_once() {
    let streams: Vec<VideoStream> = (0..VIDEOS.len())
        .map(|_| marked_stream(FRAMES, GOP))
        .collect();
    let references: Vec<Vec<Arc<Frame>>> = streams.iter().map(reference).collect();
    // Capacity far above the working set: an eviction would force a
    // legitimate second decode and invalidate the exactly-once count.
    let cache = GopCache::new(1_000_000);
    let barrier = Barrier::new(THREADS);
    // (video, keyframe) → the last frame any thread read from that GOP.
    let last_read: Mutex<BTreeMap<(usize, u64), u64>> = Mutex::new(BTreeMap::new());

    let per_thread: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (streams, references) = (&streams, &references);
                let (cache, barrier, last_read) = (&cache, &barrier, &last_read);
                s.spawn(move || {
                    let mut cursors: Vec<SourceCursor<'_>> = streams
                        .iter()
                        .zip(VIDEOS)
                        .map(|(stream, name)| SourceCursor::new(stream, name).with_cache(cache))
                        .collect();
                    let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (t as u64 + 1);
                    barrier.wait();
                    for _ in 0..READS_PER_THREAD {
                        let vi = (xorshift(&mut rng) % VIDEOS.len() as u64) as usize;
                        // Skewed toward GOP starts, so some GOPs are read
                        // only partway and their prefixes stop short.
                        let gop = xorshift(&mut rng) % (FRAMES as u64 / u64::from(GOP));
                        let offset = xorshift(&mut rng) % u64::from(GOP);
                        let offset = offset * offset / u64::from(GOP);
                        let idx = gop * u64::from(GOP) + offset;
                        let frame = cursors[vi].frame_at(idx).unwrap();
                        assert_eq!(
                            *frame, *references[vi][idx as usize],
                            "thread {t}: {}[{idx}] differs from an uncached cursor's",
                            VIDEOS[vi]
                        );
                        let kf = gop * u64::from(GOP);
                        let mut last = last_read.lock().unwrap();
                        let slot = last.entry((vi, kf)).or_insert(idx);
                        *slot = (*slot).max(idx);
                    }
                    let sum = |f: fn(&SourceCursor<'_>) -> u64| cursors.iter().map(f).sum::<u64>();
                    (
                        sum(|c| c.frames_decoded),
                        sum(|c| c.gop_cache_hits),
                        sum(|c| c.gop_cache_misses),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics, no deadlock"))
            .collect()
    });

    let last_read = last_read.into_inner().unwrap();
    let want_decoded: u64 = last_read
        .iter()
        .map(|(&(_, kf), &last)| last - kf + 1)
        .sum();
    let decoded: u64 = per_thread.iter().map(|p| p.0).sum();
    assert_eq!(
        decoded, want_decoded,
        "every frame up to each GOP's last read decodes exactly once, and nothing past it"
    );
    let (hits, misses) = per_thread
        .iter()
        .fold((0, 0), |(h, m), p| (h + p.1, m + p.2));
    assert_eq!(misses, last_read.len() as u64, "one prefix per GOP read");
    assert_eq!((cache.hits(), cache.misses()), (hits, misses));
}
