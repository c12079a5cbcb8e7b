//! GOP-aware sequential source cursors.
//!
//! A render segment reads its inputs mostly in forward order; the cursor
//! keeps decoder state so consecutive reads cost one packet each, seeks
//! (backward jumps or gaps) re-enter at the preceding keyframe — the
//! same access pattern an FFmpeg-based engine gets from its demuxer.
//!
//! When attached to a [`GopCache`], the cursor decodes GOP *prefixes*
//! and shares them through the cache, so concurrent segments reading
//! the same source ranges (grid cells, splice neighbours) decode each
//! GOP once. A miss decodes from the keyframe to the run's read reach
//! for that GOP — the last frame any segment of the run reads from it —
//! or to the GOP end when no reach is known. Frames come out behind
//! [`Arc`] either way: the decoder's zero-copy path means a served frame
//! is never deep-copied.

use crate::fault::{FaultInjector, FaultKind};
use crate::gop_cache::{GopCache, GopFrames};
use crate::ExecError;
use std::collections::HashMap;
use std::sync::Arc;
use v2v_codec::{Decoder, Packet};
use v2v_container::{ContainerError, VideoStream};
use v2v_frame::Frame;

/// The read reach of one stream identity over a run: keyframe index →
/// the last frame of that GOP the run reads.
pub(crate) type GopReach = HashMap<u64, u64>;

/// A stateful forward reader over one stream.
pub struct SourceCursor<'a> {
    stream: &'a VideoStream,
    /// Catalog name of the stream, for error reporting and cache keys.
    video: String,
    decoder: Decoder,
    cache: Option<&'a GopCache>,
    /// Where a cache miss may stop decoding; GOPs absent here (or every
    /// GOP, when `None`) are decoded to their end.
    reach: Option<&'a GopReach>,
    /// Fault-injection hook consulted before every packet decode.
    fault: Option<&'a FaultInjector>,
    /// The GOP prefix currently borrowed from the cache: (keyframe
    /// index, frames).
    gop: Option<(u64, GopFrames)>,
    /// Index the decoder state corresponds to (last decoded), if any.
    at: Option<u64>,
    /// Last decoded frame (served for repeated reads of the same index).
    current: Option<Arc<Frame>>,
    /// Packets decoded through this cursor.
    pub frames_decoded: u64,
    /// Compressed bytes fed to the decoder through this cursor.
    pub bytes_decoded: u64,
    /// Keyframe entries: every decoder reset (initial positioning,
    /// backward jumps, forward jumps across a keyframe, GOP decodes).
    pub seeks: u64,
    /// GOP requests this cursor served from the shared cache (including
    /// waits on a decode another cursor was already running).
    pub gop_cache_hits: u64,
    /// GOP requests this cursor had to decode itself. Hits and misses
    /// are attributed to exactly one cursor per request, so per-segment
    /// roll-ups are deterministic regardless of worker interleaving.
    pub gop_cache_misses: u64,
}

impl<'a> SourceCursor<'a> {
    /// A cursor at the start of `stream`. `video` is the stream's
    /// catalog name, carried into `MissingFrame` errors and cache keys.
    pub fn new(stream: &'a VideoStream, video: impl Into<String>) -> SourceCursor<'a> {
        SourceCursor {
            stream,
            video: video.into(),
            decoder: Decoder::new(*stream.params()),
            cache: None,
            reach: None,
            fault: None,
            gop: None,
            at: None,
            current: None,
            frames_decoded: 0,
            bytes_decoded: 0,
            seeks: 0,
            gop_cache_hits: 0,
            gop_cache_misses: 0,
        }
    }

    /// Attaches a shared GOP cache (ignored when the cache is disabled).
    pub fn with_cache(mut self, cache: &'a GopCache) -> SourceCursor<'a> {
        if cache.enabled() {
            self.cache = Some(cache);
        }
        self
    }

    /// Bounds the cache-miss decodes of this cursor by the run's read
    /// reach for its stream identity. Every cursor sharing the cache
    /// must carry the same reach, and no read may pass it: a read past
    /// a cached prefix trips a debug assertion (release builds roll the
    /// missing frames privately instead).
    pub(crate) fn with_reach(mut self, reach: Option<&'a GopReach>) -> SourceCursor<'a> {
        self.reach = reach;
        self
    }

    /// Attaches a fault injector (ignored when it has no rules).
    pub fn with_fault(mut self, fault: &'a FaultInjector) -> SourceCursor<'a> {
        if !fault.is_empty() {
            self.fault = Some(fault);
        }
        self
    }

    /// The underlying stream.
    pub fn stream(&self) -> &'a VideoStream {
        self.stream
    }

    /// Decodes (or re-serves) frame `idx`.
    pub fn frame_at(&mut self, idx: u64) -> Result<Arc<Frame>, ExecError> {
        if idx >= self.stream.len() as u64 {
            return Err(ExecError::MissingFrame {
                video: self.video.clone(),
                at: self
                    .stream
                    .pts_of(self.stream.len().saturating_sub(1))
                    .unwrap_or_default(),
            });
        }
        match self.cache {
            Some(cache) => self.frame_from_cache(cache, idx),
            None => self.roll_to(idx),
        }
    }

    /// Serves `idx` from this cursor's own decoder: re-serves the last
    /// frame, rolls forward, or reseeks to the governing keyframe.
    fn roll_to(&mut self, idx: u64) -> Result<Arc<Frame>, ExecError> {
        if self.at == Some(idx) {
            if let Some(f) = &self.current {
                return Ok(f.clone());
            }
        }
        // Choose the roll start: continue forward, or reseek to the
        // keyframe at/before idx when behind/too far ahead.
        let from = match self.at {
            Some(at) if at < idx => at + 1,
            _ => {
                self.decoder.reset();
                self.seeks += 1;
                self.stream
                    .keyframe_at_or_before(idx as usize)
                    .ok_or(ContainerError::NoKeyframe)? as u64
            }
        };
        // If continuing forward would cross a keyframe anyway, entering at
        // that keyframe is never slower. (Mutually exclusive with the
        // reset above: a reseek already lands on this keyframe.)
        let from = match self.stream.keyframe_at_or_before(idx as usize) {
            Some(kf) if (kf as u64) > from => {
                self.decoder.reset();
                self.seeks += 1;
                kf as u64
            }
            _ => from,
        };
        let mut frame = None;
        for i in from..=idx {
            frame = Some(self.decode_packet(i)?);
        }
        // `from <= idx` always holds (a keyframe at or before `idx` was
        // found above), so the loop ran at least once.
        let frame = frame.ok_or(ContainerError::NoKeyframe)?;
        self.at = Some(idx);
        self.current = Some(frame.clone());
        Ok(frame)
    }

    /// Decodes source packet `i`, consulting the fault injector first.
    /// On an injected corruption/truncation the mangled bytes really go
    /// through the decoder (exercising the hardened parse path), and the
    /// result is a deterministic error either way.
    fn decode_packet(&mut self, i: u64) -> Result<Arc<Frame>, ExecError> {
        let pkt = self
            .stream
            .packets()
            .get(i as usize)
            .ok_or(ContainerError::NoKeyframe)?;
        if let Some(kind) = self.fault.and_then(|f| f.check(&self.video, i)) {
            return Err(self.injected_failure(pkt, i, kind));
        }
        let frame = self.decoder.decode_shared(pkt)?;
        self.frames_decoded += 1;
        self.bytes_decoded += pkt.size() as u64;
        Ok(frame)
    }

    /// Materializes one injected fault as the error a real failure of
    /// that kind would produce.
    fn injected_failure(&mut self, pkt: &Packet, i: u64, kind: FaultKind) -> ExecError {
        let mangled = match kind {
            FaultKind::Io => {
                return ExecError::SourceIo {
                    video: self.video.clone(),
                    frame: i,
                    message: "injected i/o failure".into(),
                };
            }
            FaultKind::CorruptPacket => {
                // Clobber the packet-kind byte: the decoder must reject
                // it without touching decoder state.
                let mut data = pkt.data.to_vec();
                if let Some(b) = data.first_mut() {
                    *b = 0xFF;
                }
                Packet::new(pkt.pts, pkt.keyframe, data.into())
            }
            FaultKind::TruncatedRead => {
                let cut = pkt.data.len() / 2;
                let half: &[u8] = pkt.data.get(..cut).unwrap_or_default();
                Packet::new(pkt.pts, pkt.keyframe, half.into())
            }
        };
        match self.decoder.decode_shared(&mangled) {
            Err(e) => ExecError::Codec(e),
            // The hardened decoder rejects every mangling above; keep the
            // fault deterministic even if a future codec tolerates one.
            Ok(_) => ExecError::Codec(v2v_codec::CodecError::Corrupt(
                "injected corrupt packet".into(),
            )),
        }
    }

    /// Serves `idx` through the shared GOP cache: the containing GOP's
    /// prefix is decoded on a miss and memoized for other cursors. The
    /// cache's in-flight gating guarantees each GOP is decoded at most
    /// once per cache, and the hit/miss is booked on this cursor.
    fn frame_from_cache(&mut self, cache: &GopCache, idx: u64) -> Result<Arc<Frame>, ExecError> {
        let kf = self
            .stream
            .keyframe_at_or_before(idx as usize)
            .ok_or(ContainerError::NoKeyframe)? as u64;
        if self.gop.as_ref().map(|(k, _)| *k) != Some(kf) {
            let video = self.video.clone();
            let (frames, was_hit) = cache.get_or_insert_with(&video, kf, || self.decode_gop(kf))?;
            if was_hit {
                self.gop_cache_hits += 1;
            } else {
                self.gop_cache_misses += 1;
            }
            self.gop = Some((kf, frames));
        }
        let cached = self
            .gop
            .as_ref()
            .and_then(|(_, frames)| frames.get((idx - kf) as usize).cloned());
        // The run's reach covers every read by construction; output
        // bytes never depend on it, so a miss here rolls privately.
        debug_assert!(
            cached.is_some(),
            "frame {idx} of {} read past the cached prefix of GOP {kf}",
            self.video
        );
        match cached {
            Some(frame) => Ok(frame),
            None => self.roll_to(idx),
        }
    }

    /// Decodes the GOP whose keyframe is at `kf` up to its read reach
    /// (its end when the reach is unknown).
    fn decode_gop(&mut self, kf: u64) -> Result<GopFrames, ExecError> {
        let gop_end = self
            .stream
            .next_keyframe_at_or_after(kf as usize + 1)
            .unwrap_or(self.stream.len()) as u64;
        let end = match self.reach.and_then(|r| r.get(&kf)) {
            Some(&last) => gop_end.min(last.max(kf) + 1),
            None => gop_end,
        };
        let mut frames = Vec::with_capacity((end - kf) as usize);
        self.decoder.reset();
        self.seeks += 1;
        self.at = None;
        for i in kf..end {
            frames.push(self.decode_packet(i)?);
        }
        // The decoder now sits on the prefix's last frame, where a
        // private roll past the prefix continues.
        self.at = Some(end - 1);
        self.current = frames.last().cloned();
        Ok(Arc::new(frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::CodecParams;
    use v2v_container::StreamWriter;
    use v2v_frame::FrameType;
    use v2v_time::{r, Rational};

    fn stream(n: usize, gop: u32) -> VideoStream {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            f.plane_mut(0).put(i % 32, 0, 255);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn sequential_reads_cost_one_packet_each() {
        let s = stream(12, 4);
        let mut c = SourceCursor::new(&s, "s");
        c.frame_at(0).unwrap();
        assert_eq!(c.frames_decoded, 1);
        for i in 1..12 {
            c.frame_at(i).unwrap();
        }
        assert_eq!(c.frames_decoded, 12);
    }

    #[test]
    fn cold_mid_gop_read_rolls_from_keyframe() {
        let s = stream(12, 4);
        let mut c = SourceCursor::new(&s, "s");
        let f = c.frame_at(6).unwrap();
        assert_eq!(c.frames_decoded, 3); // 4, 5, 6
        assert_eq!(f.plane(0).get(6, 0), 255);
    }

    #[test]
    fn repeated_read_is_free() {
        let s = stream(12, 4);
        let mut c = SourceCursor::new(&s, "s");
        c.frame_at(5).unwrap();
        let n = c.frames_decoded;
        c.frame_at(5).unwrap();
        assert_eq!(c.frames_decoded, n);
    }

    #[test]
    fn backward_seek_reenters_at_keyframe() {
        let s = stream(12, 4);
        let mut c = SourceCursor::new(&s, "s");
        c.frame_at(10).unwrap();
        let before = c.frames_decoded;
        let f = c.frame_at(2).unwrap();
        assert_eq!(c.frames_decoded - before, 3); // 0, 1, 2
        assert_eq!(f.plane(0).get(2, 0), 255);
    }

    #[test]
    fn forward_jump_across_keyframe_skips_roll() {
        let s = stream(32, 4);
        let mut c = SourceCursor::new(&s, "s");
        c.frame_at(0).unwrap();
        let before = c.frames_decoded;
        // Jump to 30: nearest keyframe is 28 → decode 28, 29, 30 (not 29
        // intermediate frames).
        c.frame_at(30).unwrap();
        assert_eq!(c.frames_decoded - before, 3);
    }

    #[test]
    fn out_of_range_errors() {
        let s = stream(5, 4);
        let mut c = SourceCursor::new(&s, "clip-a");
        let err = c.frame_at(5).unwrap_err();
        match err {
            ExecError::MissingFrame { video, .. } => assert_eq!(video, "clip-a"),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn cached_cursors_share_decoded_gops() {
        let s = stream(12, 4);
        let cache = GopCache::new(64);
        let mut a = SourceCursor::new(&s, "s").with_cache(&cache);
        let mut b = SourceCursor::new(&s, "s").with_cache(&cache);
        for i in 0..12 {
            a.frame_at(i).unwrap();
        }
        assert_eq!(a.frames_decoded, 12);
        for i in 0..12 {
            b.frame_at(i).unwrap();
        }
        assert_eq!(b.frames_decoded, 0, "second cursor must hit the cache");
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 3);
        // Per-cursor attribution: `a` paid for every decode, `b` only hit.
        assert_eq!((a.gop_cache_hits, a.gop_cache_misses), (0, 3));
        assert_eq!((b.gop_cache_hits, b.gop_cache_misses), (3, 0));
    }

    #[test]
    fn cached_and_uncached_frames_agree() {
        let s = stream(12, 4);
        let cache = GopCache::new(64);
        let mut cached = SourceCursor::new(&s, "s").with_cache(&cache);
        let mut plain = SourceCursor::new(&s, "s");
        for i in [6u64, 2, 11, 0, 7] {
            assert_eq!(*cached.frame_at(i).unwrap(), *plain.frame_at(i).unwrap());
        }
    }

    #[test]
    fn disabled_cache_is_ignored() {
        let s = stream(8, 4);
        let cache = GopCache::new(0);
        let mut c = SourceCursor::new(&s, "s").with_cache(&cache);
        c.frame_at(3).unwrap();
        assert_eq!(cache.hits() + cache.misses(), 0);
        assert_eq!(c.frames_decoded, 4, "falls back to sequential rolling");
    }

    fn reach(pairs: &[(u64, u64)]) -> GopReach {
        pairs.iter().copied().collect()
    }

    #[test]
    fn cached_miss_decodes_keyframe_to_reach() {
        let s = stream(24, 12);
        let cache = GopCache::new(64);
        let r = reach(&[(12, 17)]);
        let mut c = SourceCursor::new(&s, "s")
            .with_cache(&cache)
            .with_reach(Some(&r));
        for i in 14..=17 {
            c.frame_at(i).unwrap();
        }
        assert_eq!(
            c.frames_decoded,
            17 - 12 + 1,
            "keyframe → reach, not GOP end"
        );
        assert_eq!(cache.frames_held(), 6);
    }

    #[test]
    fn different_spans_share_one_prefix_covering_the_longer() {
        let s = stream(24, 12);
        let cache = GopCache::new(64);
        // The run's reach for GOP 0 is the longer span's last read.
        let r = reach(&[(0, 8)]);
        let mut short = SourceCursor::new(&s, "s")
            .with_cache(&cache)
            .with_reach(Some(&r));
        let mut long = SourceCursor::new(&s, "s")
            .with_cache(&cache)
            .with_reach(Some(&r));
        let mut plain = SourceCursor::new(&s, "s");
        for i in 1..=3 {
            assert_eq!(*short.frame_at(i).unwrap(), *plain.frame_at(i).unwrap());
        }
        for i in 2..=8 {
            assert_eq!(*long.frame_at(i).unwrap(), *plain.frame_at(i).unwrap());
        }
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!((short.frames_decoded, long.frames_decoded), (9, 0));
    }

    /// A cursor whose cached prefix stops at frame 3 of a 12-frame GOP.
    fn short_prefix(s: &VideoStream, cache: &GopCache) {
        let r = reach(&[(0, 3)]);
        SourceCursor::new(s, "s")
            .with_cache(cache)
            .with_reach(Some(&r))
            .frame_at(2)
            .unwrap();
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn read_past_the_prefix_matches_an_uncached_cursor() {
        let s = stream(24, 12);
        let cache = GopCache::new(64);
        short_prefix(&s, &cache);
        // No reach: this cursor expects whole GOPs, finds the prefix and
        // rolls the rest privately.
        let mut past = SourceCursor::new(&s, "s").with_cache(&cache);
        let mut plain = SourceCursor::new(&s, "s");
        for i in [2u64, 5, 11, 4, 12, 20] {
            assert_eq!(*past.frame_at(i).unwrap(), *plain.frame_at(i).unwrap());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "past the cached prefix")]
    fn read_past_the_prefix_trips_the_debug_assert() {
        let s = stream(24, 12);
        let cache = GopCache::new(64);
        short_prefix(&s, &cache);
        let _ = SourceCursor::new(&s, "s").with_cache(&cache).frame_at(5);
    }
}
