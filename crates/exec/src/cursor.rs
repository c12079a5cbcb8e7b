//! GOP-aware sequential source cursors.
//!
//! A render segment reads its inputs mostly in forward order; the cursor
//! keeps decoder state so consecutive reads cost one packet each, seeks
//! (backward jumps or gaps) re-enter at the preceding keyframe — the
//! same access pattern an FFmpeg-based engine gets from its demuxer.
//!
//! When attached to a [`GopCache`], the cursor reads through the GOP's
//! shared [`GopPrefix`] instead: a read decodes from where the prefix
//! stops up to the frame it asks for, and no further, so concurrent
//! segments and decode lanes reading the same source ranges (grid
//! cells, splice neighbours) decode each frame once and decoding stops
//! at the last frame anyone reads. Frames come out behind [`Arc`]
//! either way: the decoder's zero-copy path means a served frame is
//! never deep-copied.

use crate::fault::{FaultInjector, FaultKind};
use crate::gop_cache::{GopCache, GopPrefix};
use crate::ExecError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use v2v_codec::{Decoder, Packet};
use v2v_container::{ContainerError, VideoStream};
use v2v_frame::Frame;

/// A stateful forward reader over one stream.
pub struct SourceCursor<'a> {
    stream: &'a VideoStream,
    /// Catalog name of the stream, for error reporting and cache keys.
    video: String,
    /// The private decoder of the uncached path.
    decoder: Decoder,
    cache: Option<&'a GopCache>,
    /// Fault-injection hook consulted before every packet decode.
    fault: Option<&'a FaultInjector>,
    /// The render's stop flag, shared by every cursor of one pipelined
    /// render attempt ([`with_halt`](Self::with_halt)).
    halt: Option<&'a AtomicBool>,
    /// Set when a decode was refused because the flag was up.
    halted: bool,
    /// The GOP prefix currently read from the cache: (keyframe index,
    /// prefix).
    gop: Option<(u64, Arc<GopPrefix>)>,
    /// Index the decoder state corresponds to (last decoded), if any.
    at: Option<u64>,
    /// Last decoded frame (served for repeated reads of the same index).
    current: Option<Arc<Frame>>,
    /// Packets decoded through this cursor.
    pub frames_decoded: u64,
    /// Compressed bytes fed to the decoder through this cursor.
    pub bytes_decoded: u64,
    /// Keyframe entries: every decoder reset (initial positioning,
    /// backward jumps, forward jumps across a keyframe, GOP prefixes
    /// this cursor created).
    pub seeks: u64,
    /// GOP lookups this cursor served from a prefix already in the
    /// shared cache.
    pub gop_cache_hits: u64,
    /// GOP lookups that created a prefix. Each lookup is booked on
    /// exactly one cursor, so run totals are deterministic regardless
    /// of worker interleaving.
    pub gop_cache_misses: u64,
    /// Time spent inside the decoder, in nanoseconds: waits on a shared
    /// prefix are not counted.
    pub(crate) decode_ns: u64,
}

/// One decoded packet, as booked by the cursor.
struct Decoded {
    frame: Arc<Frame>,
    bytes: u64,
    ns: u64,
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
            fault: None,
            halt: None,
            halted: false,
            gop: None,
            at: None,
            current: None,
            frames_decoded: 0,
            bytes_decoded: 0,
            seeks: 0,
            gop_cache_hits: 0,
            gop_cache_misses: 0,
            decode_ns: 0,
        }
    }

    /// Attaches a shared GOP cache (ignored when the cache is disabled).
    pub fn with_cache(mut self, cache: &'a GopCache) -> SourceCursor<'a> {
        if cache.enabled() {
            self.cache = Some(cache);
        }
        self
    }

    /// Attaches a fault injector (ignored when it has no rules).
    pub fn with_fault(mut self, fault: &'a FaultInjector) -> SourceCursor<'a> {
        if !fault.is_empty() {
            self.fault = Some(fault);
        }
        self
    }

    /// Ties the cursor to a render's stop flag: no packet is decoded
    /// once it is up, and a failed decode raises it before the shared
    /// prefix is released, so no other cursor under the same flag
    /// touches the packet that failed.
    pub(crate) fn with_halt(mut self, halt: &'a AtomicBool) -> SourceCursor<'a> {
        self.halt = Some(halt);
        self
    }

    /// Whether a read failed because the stop flag was already up, not
    /// because of its own packet.
    pub(crate) fn halted(&self) -> bool {
        self.halted
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
            let decoded = decode_packet(
                self.stream,
                &self.video,
                self.fault,
                self.halt,
                &mut self.decoder,
                i,
            );
            frame = Some(self.book(decoded, i)?);
        }
        // `from <= idx` always holds (a keyframe at or before `idx` was
        // found above), so the loop ran at least once.
        let frame = frame.ok_or(ContainerError::NoKeyframe)?;
        self.at = Some(idx);
        self.current = Some(frame.clone());
        Ok(frame)
    }

    /// Books one decode attempt of source packet `i` on this cursor.
    /// A real failure raises the stop flag; a refusal (`Err(None)`)
    /// marks the cursor [`halted`](Self::halted).
    fn book(
        &mut self,
        decoded: Result<Decoded, Option<ExecError>>,
        i: u64,
    ) -> Result<Arc<Frame>, ExecError> {
        match decoded {
            Ok(d) => {
                self.frames_decoded += 1;
                self.bytes_decoded += d.bytes;
                self.decode_ns += d.ns;
                Ok(d.frame)
            }
            Err(Some(e)) => {
                if let Some(halt) = self.halt {
                    halt.store(true, Ordering::SeqCst);
                }
                Err(e)
            }
            Err(None) => {
                self.halted = true;
                Err(ExecError::SourceIo {
                    video: self.video.clone(),
                    frame: i,
                    message: "render halted".into(),
                })
            }
        }
    }

    /// Serves `idx` through the shared GOP cache: the containing GOP's
    /// prefix is looked up (created on a miss, booked on this cursor)
    /// and grown to `idx` if no reader has got that far.
    fn frame_from_cache(&mut self, cache: &GopCache, idx: u64) -> Result<Arc<Frame>, ExecError> {
        let kf = self
            .stream
            .keyframe_at_or_before(idx as usize)
            .ok_or(ContainerError::NoKeyframe)? as u64;
        let prefix = match &self.gop {
            Some((k, prefix)) if *k == kf => Arc::clone(prefix),
            _ => {
                let gop_end = self
                    .stream
                    .next_keyframe_at_or_after(kf as usize + 1)
                    .unwrap_or(self.stream.len()) as u64;
                let params = *self.stream.params();
                let (prefix, was_hit) =
                    cache.prefix(&self.video, kf, gop_end - kf, || Decoder::new(params));
                if was_hit {
                    self.gop_cache_hits += 1;
                } else {
                    self.gop_cache_misses += 1;
                    self.seeks += 1;
                }
                self.gop = Some((kf, Arc::clone(&prefix)));
                prefix
            }
        };
        prefix.frame((idx - kf) as usize, |decoder, k| {
            let i = kf + k;
            let decoded =
                decode_packet(self.stream, &self.video, self.fault, self.halt, decoder, i);
            self.book(decoded, i)
        })
    }
}

/// Decodes source packet `i` of `stream` with `decoder`, consulting the
/// fault injector first. On an injected corruption/truncation the
/// mangled bytes really go through the decoder (exercising the hardened
/// parse path), and the result is a deterministic error either way.
/// `Err(None)`: the stop flag was up, and the packet was not touched.
fn decode_packet(
    stream: &VideoStream,
    video: &str,
    fault: Option<&FaultInjector>,
    halt: Option<&AtomicBool>,
    decoder: &mut Decoder,
    i: u64,
) -> Result<Decoded, Option<ExecError>> {
    if halt.is_some_and(|h| h.load(Ordering::SeqCst)) {
        return Err(None);
    }
    let pkt = stream
        .packets()
        .get(i as usize)
        .ok_or(ExecError::Container(ContainerError::NoKeyframe))?;
    if let Some(kind) = fault.and_then(|f| f.check(video, i)) {
        return Err(Some(injected_failure(video, decoder, pkt, i, kind)));
    }
    let started = Instant::now();
    let frame = decoder.decode_shared(pkt).map_err(ExecError::from)?;
    Ok(Decoded {
        frame,
        bytes: pkt.size() as u64,
        ns: started.elapsed().as_nanos() as u64,
    })
}

/// Materializes one injected fault as the error a real failure of that
/// kind would produce.
fn injected_failure(
    video: &str,
    decoder: &mut Decoder,
    pkt: &Packet,
    i: u64,
    kind: FaultKind,
) -> ExecError {
    let mangled = match kind {
        FaultKind::Io => {
            return ExecError::SourceIo {
                video: video.to_owned(),
                frame: i,
                message: "injected i/o failure".into(),
            };
        }
        FaultKind::CorruptPacket => {
            // Clobber the packet-kind byte: the decoder must reject it
            // without touching decoder state.
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
    match decoder.decode_shared(&mangled) {
        Err(e) => ExecError::Codec(e),
        // The hardened decoder rejects every mangling above; keep the
        // fault deterministic even if a future codec tolerates one.
        Ok(_) => ExecError::Codec(v2v_codec::CodecError::Corrupt(
            "injected corrupt packet".into(),
        )),
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

    #[test]
    fn cached_miss_decodes_only_up_to_the_frame_it_reads() {
        let s = stream(24, 12);
        let cache = GopCache::new(64);
        let mut c = SourceCursor::new(&s, "s").with_cache(&cache);
        c.frame_at(14).unwrap();
        assert_eq!(
            c.frames_decoded,
            14 - 12 + 1,
            "keyframe → read, not GOP end"
        );
        for i in 15..=17 {
            c.frame_at(i).unwrap();
        }
        assert_eq!(c.frames_decoded, 17 - 12 + 1, "one packet per forward read");
        assert_eq!((c.gop_cache_misses, c.gop_cache_hits, c.seeks), (1, 0, 1));
        assert_eq!(cache.frames_held(), 12, "charged its whole GOP");
    }

    #[test]
    fn different_spans_share_one_prefix_covering_the_longer() {
        let s = stream(24, 12);
        let cache = GopCache::new(64);
        let mut short = SourceCursor::new(&s, "s").with_cache(&cache);
        let mut long = SourceCursor::new(&s, "s").with_cache(&cache);
        let mut plain = SourceCursor::new(&s, "s");
        for i in 1..=3 {
            assert_eq!(*short.frame_at(i).unwrap(), *plain.frame_at(i).unwrap());
        }
        for i in 2..=8 {
            assert_eq!(*long.frame_at(i).unwrap(), *plain.frame_at(i).unwrap());
        }
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        // `short` decoded 0..=3; `long` grew the same prefix by 4..=8.
        assert_eq!((short.frames_decoded, long.frames_decoded), (4, 5));
        // Going back into the shared range decodes nothing.
        assert_eq!(*short.frame_at(7).unwrap(), *plain.frame_at(7).unwrap());
        assert_eq!(short.frames_decoded, 4);
    }

    #[test]
    fn a_raised_halt_stops_decoding_but_not_serving() {
        let s = stream(24, 12);
        let cache = GopCache::new(64);
        let halt = AtomicBool::new(false);
        let mut c = SourceCursor::new(&s, "s")
            .with_cache(&cache)
            .with_halt(&halt);
        c.frame_at(3).unwrap();
        halt.store(true, Ordering::SeqCst);
        c.frame_at(2).unwrap();
        assert!(!c.halted(), "a decoded frame is still served");
        assert!(c.frame_at(4).is_err());
        assert!(c.halted());
        assert_eq!(c.frames_decoded, 4);
    }

    #[test]
    fn a_failed_decode_raises_the_halt_for_every_cursor() {
        let s = stream(24, 12);
        let cache = GopCache::new(64);
        let halt = AtomicBool::new(false);
        let fault = FaultInjector::new().fail("s", 5, FaultKind::Io);
        let cursor = || {
            SourceCursor::new(&s, "s")
                .with_cache(&cache)
                .with_fault(&fault)
                .with_halt(&halt)
        };
        let (mut a, mut b) = (cursor(), cursor());
        assert!(a.frame_at(6).is_err());
        assert!(!a.halted(), "its own packet failed");
        assert!(halt.load(Ordering::SeqCst));
        assert!(b.frame_at(6).is_err());
        assert!(b.halted(), "refused without touching the packet");
        assert_eq!(fault.injections(), 1);
        assert_eq!(
            *b.frame_at(4).unwrap(),
            *SourceCursor::new(&s, "s").frame_at(4).unwrap()
        );
    }
}
