//! In-memory video streams with keyframe indexes.

use crate::digest::Fnv64;
use crate::ContainerError;
use std::sync::{Arc, OnceLock};
use v2v_codec::{CodecParams, Decoder, Packet};
use v2v_frame::Frame;
use v2v_time::{Rational, TimeRange, TimeSet};

/// An indexed, immutable video stream.
///
/// Frames sit on a uniform grid `start + k · frame_dur`; packet `k` holds
/// frame `k`. The keyframe flags form the index that seeks, smart cuts
/// and the planner consult.
#[derive(Clone)]
pub struct VideoStream {
    params: CodecParams,
    start: Rational,
    frame_dur: Rational,
    packets: Vec<Packet>,
    /// Ascending indices of the keyframe packets, built once by
    /// [`new`](Self::new): every keyframe query is a search here.
    keyframes: Vec<usize>,
    /// Total packet payload bytes, summed once by [`new`](Self::new):
    /// the plan's price reads it per render input.
    bytes: u64,
    /// The stream's identity, folded on first use. The stream is
    /// immutable, so the memo is never invalidated: a different stream
    /// is a different memo, and `Clone` carries a filled one along.
    digests: OnceLock<DigestMemo>,
    /// Digest state of a prefix of `packets` ([`concat`](Self::concat)'s
    /// first operand, when its memo was filled): the first fold starts
    /// there, so an append digests only the appended packets.
    resume: Option<DigestMemo>,
}

/// What one fold over a stream's packets leaves behind.
#[derive(Clone)]
struct DigestMemo {
    /// `(frames, digest)` per committed GOP boundary, then the whole
    /// stream — what [`VideoStream::digest_index`] hands out.
    index: Arc<[(u64, u64)]>,
    /// Packet-body hasher state after the last packet.
    body: Fnv64,
}

impl VideoStream {
    /// Assembles a stream from parts, validating the splice invariants
    /// (the first packet must be a keyframe and timestamps must follow
    /// the grid) and indexing the keyframes.
    pub fn new(
        params: CodecParams,
        start: Rational,
        frame_dur: Rational,
        packets: Vec<Packet>,
    ) -> Result<VideoStream, ContainerError> {
        // An error, not an assert: the grid can arrive from an untrusted
        // container header, and a non-positive duration would corrupt
        // every downstream pts computation.
        if !frame_dur.is_positive() {
            return Err(ContainerError::BadFile(format!(
                "frame duration {frame_dur} must be positive"
            )));
        }
        if let Some(first) = packets.first() {
            if !first.keyframe {
                return Err(ContainerError::SpliceNotKeyframe);
            }
        }
        let mut keyframes = Vec::new();
        let mut bytes = 0u64;
        for (k, p) in packets.iter().enumerate() {
            let expect = start + frame_dur * Rational::from_int(k as i64);
            if p.pts != expect {
                return Err(ContainerError::OutOfOrder);
            }
            if p.keyframe {
                keyframes.push(k);
            }
            bytes += p.size() as u64;
        }
        Ok(VideoStream {
            params,
            start,
            frame_dur,
            packets,
            keyframes,
            bytes,
            digests: OnceLock::new(),
            resume: None,
        })
    }

    /// The stream's codec parameters.
    pub fn params(&self) -> &CodecParams {
        &self.params
    }

    /// First frame instant.
    pub fn start(&self) -> Rational {
        self.start
    }

    /// Frame duration (1 / fps).
    pub fn frame_dur(&self) -> Rational {
        self.frame_dur
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` when the stream holds no frames.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// All packets, in order.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// The packets, giving the stream up.
    pub(crate) fn into_packets(self) -> Vec<Packet> {
        self.packets
    }

    /// Total compressed size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }

    /// A stable content digest of the stream: codec parameters, grid,
    /// keyframe index, and every compressed payload byte.
    ///
    /// This is the per-source fingerprint the render cache folds into
    /// its keys — re-encoding, trimming, or overwriting a source in
    /// place changes the digest and thereby invalidates every cached
    /// result derived from it, even when the file path is unchanged.
    /// Deterministic across platforms and process runs (FNV-1a, not
    /// `std`'s randomized hasher).
    ///
    /// The digest is *prefix-composable*: `content_digest()` equals
    /// [`prefix_digest`](Self::prefix_digest)`(len())`, and a prefix's
    /// digest depends only on the prefix — appending packets never
    /// changes the digest of any earlier GOP range (the invalidation
    /// property live sources rely on).
    ///
    /// Cost: the first digest query on a stream (this,
    /// [`prefix_digest`](Self::prefix_digest) at a GOP boundary, or
    /// [`digest_index`](Self::digest_index)) folds the packet bytes
    /// once — only the appended ones when the stream came from
    /// [`concat`](Self::concat) onto an already-digested stream; every
    /// later query, on this stream or a clone, is a lookup.
    pub fn content_digest(&self) -> u64 {
        self.prefix_digest(self.packets.len())
    }

    /// Digest of the first `n` packets (clamped to `len()`), equal to
    /// `content_digest()` of a stream sealed from that prefix alone.
    /// A lookup when `n` is a GOP boundary or `len()`; a cut inside a
    /// GOP is no recorded boundary and folds its prefix.
    pub fn prefix_digest(&self, n: usize) -> u64 {
        let n = n.min(self.packets.len());
        let recorded = self.packets.get(n).map_or(true, |p| n > 0 && p.keyframe);
        if recorded {
            let index = &self.digests().index;
            let at = index.binary_search_by_key(&(n as u64), |&(frames, _)| frames);
            if let Some(&(_, digest)) = at.ok().and_then(|i| index.get(i)) {
                return digest;
            }
        }
        let body = self.fold_packets(0, n, Fnv64::new(), |_, _| {});
        self.finish_digest(n as u64, &body)
    }

    /// Digests at every committed GOP boundary, ascending: one entry
    /// `(frames, digest)` per prefix that ends just before a keyframe,
    /// plus the full stream. Memoized and shared: every call on this
    /// stream or its clones returns the same allocation.
    ///
    /// Appending whole GOPs extends this index without changing any
    /// existing entry, so a cache key derived from the smallest boundary
    /// covering a segment's reads survives appends untouched.
    pub fn digest_index(&self) -> Arc<[(u64, u64)]> {
        self.digests().index.clone()
    }

    /// `true` once this stream's digests have been folded, i.e. every
    /// further digest query is a lookup. Tests use it to pin down who
    /// pays a source's first digest — and who never asks for one.
    pub fn digests_known(&self) -> bool {
        self.digests.get().is_some()
    }

    /// The memoized digest state, folded on first use from the resume
    /// point (or from packet 0 without one).
    fn digests(&self) -> &DigestMemo {
        self.digests.get_or_init(|| {
            // The resume point's last entry is its whole-stream digest;
            // the fold re-derives it as a boundary (or, with nothing
            // appended, as the whole stream again).
            let (mut index, from, body) = self
                .resume
                .as_ref()
                .and_then(|memo| {
                    let (&(frames, _), earlier) = memo.index.split_last()?;
                    Some((earlier.to_vec(), frames as usize, memo.body))
                })
                .unwrap_or_else(|| (Vec::new(), 0, Fnv64::new()));
            let n = self.packets.len();
            let body = self.fold_packets(from, n, body, |k, body| {
                index.push((k, self.finish_digest(k, body)));
            });
            index.push((n as u64, self.finish_digest(n as u64, &body)));
            DigestMemo {
                index: index.into(),
                body,
            }
        })
    }

    /// The one pass over packet bytes: folds packets `[from, to)` into
    /// `body` (the hasher state after packet `from - 1`), reporting the
    /// state just before every keyframe past the first.
    fn fold_packets(
        &self,
        from: usize,
        to: usize,
        mut body: Fnv64,
        mut boundary: impl FnMut(u64, &Fnv64),
    ) -> Fnv64 {
        for (k, p) in self.packets.iter().enumerate().take(to).skip(from) {
            if k > 0 && p.keyframe {
                boundary(k as u64, &body);
            }
            fold_packet(&mut body, p);
        }
        #[cfg(test)]
        tests::FOLDED_PACKETS.with(|c| c.set(c.get() + to.saturating_sub(from)));
        body
    }

    /// Combines the streaming packet-body state with the header fields.
    /// `Fnv64` is `Copy`, so callers snapshot the body state at GOP
    /// boundaries and finish each prefix in O(1).
    fn finish_digest(&self, n: u64, body: &Fnv64) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&serde_json::to_string(&self.params).unwrap_or_default());
        h.write_str(&self.start.to_string());
        h.write_str(&self.frame_dur.to_string());
        h.write_u64(n);
        h.write_u64(body.finish());
        h.finish()
    }

    /// The set of instants this stream can serve — what the V2V checker
    /// compares spec requirements against.
    pub fn available(&self) -> TimeSet {
        TimeSet::from_range(TimeRange::from_parts(
            self.start,
            self.frame_dur,
            self.packets.len() as u64,
        ))
    }

    /// The grid range of this stream.
    pub fn range(&self) -> TimeRange {
        TimeRange::from_parts(self.start, self.frame_dur, self.packets.len() as u64)
    }

    /// Frame index of instant `t`, if it is on the grid.
    pub fn index_of(&self, t: Rational) -> Option<usize> {
        self.range().index_of(t).map(|k| k as usize)
    }

    /// Instant of frame `k`.
    pub fn pts_of(&self, k: usize) -> Option<Rational> {
        self.range().at(k as u64)
    }

    /// Index of the last keyframe at or before frame `k` (for `k` past
    /// the end, the stream's last keyframe).
    pub fn keyframe_at_or_before(&self, k: usize) -> Option<usize> {
        let upto = self.keyframes.partition_point(|&kf| kf <= k);
        self.keyframes.get(..upto)?.last().copied()
    }

    /// Index of the first keyframe at or after frame `k`.
    pub fn next_keyframe_at_or_after(&self, k: usize) -> Option<usize> {
        let from = self.keyframes.partition_point(|&kf| kf < k);
        self.keyframes.get(from).copied()
    }

    /// All keyframe indices, ascending.
    pub fn keyframe_indices(&self) -> &[usize] {
        &self.keyframes
    }

    /// Clones the compressed packets for frames `[from, to)` *without any
    /// decode*, re-stamped onto a new grid starting at `new_start`.
    ///
    /// The range must start at a keyframe (stream-copy legality; the smart
    /// cut aligns to this). Cost: O(packets) refcount bumps.
    pub fn copy_packet_range(
        &self,
        from: usize,
        to: usize,
        new_start: Rational,
    ) -> Result<Vec<Packet>, ContainerError> {
        let to = to.min(self.packets.len());
        if from >= to {
            return Ok(Vec::new());
        }
        match self.packets.get(from) {
            Some(head) if head.keyframe => {}
            _ => return Err(ContainerError::SpliceNotKeyframe),
        }
        Ok(self
            .packets
            .get(from..to)
            .unwrap_or_default()
            .iter()
            .enumerate()
            .map(|(i, p)| p.retimed(new_start + self.frame_dur * Rational::from_int(i as i64)))
            .collect())
    }

    /// Decodes the single frame at instant `t` (seeks to the preceding
    /// keyframe and rolls forward). Returns the frame and the number of
    /// packets that had to be decoded to produce it.
    pub fn decode_frame_at(&self, t: Rational) -> Result<(Frame, usize), ContainerError> {
        let k = self.index_of(t).ok_or(ContainerError::NotOnGrid(t))?;
        // Streams assembled through `new` always start with a keyframe,
        // but hostile files can reach here with the invariant broken —
        // report, don't panic.
        let kf = self
            .keyframe_at_or_before(k)
            .ok_or(ContainerError::NoKeyframe)?;
        let mut dec = Decoder::new(self.params);
        let mut frame = None;
        for p in self.packets.get(kf..=k).unwrap_or_default() {
            frame = Some(dec.decode(p)?);
        }
        frame
            .map(|f| (f, k - kf + 1))
            .ok_or(ContainerError::NoKeyframe)
    }

    /// Decodes frames `[from, to)` sequentially (one keyframe seek, then a
    /// linear roll). Returns frames and the total packets decoded.
    pub fn decode_range(
        &self,
        from: usize,
        to: usize,
    ) -> Result<(Vec<Frame>, usize), ContainerError> {
        let to = to.min(self.packets.len());
        if from >= to {
            return Ok((Vec::new(), 0));
        }
        let kf = self
            .keyframe_at_or_before(from)
            .ok_or(ContainerError::NoKeyframe)?;
        let mut dec = Decoder::new(self.params);
        let mut out = Vec::with_capacity(to - from);
        let mut decoded = 0usize;
        for (i, p) in self
            .packets
            .get(kf..to)
            .unwrap_or_default()
            .iter()
            .enumerate()
        {
            let f = dec.decode(p)?;
            decoded += 1;
            if kf + i >= from {
                out.push(f);
            }
        }
        Ok((out, decoded))
    }

    /// Concatenates compatible streams by stream copy. Each input begins
    /// with a keyframe (invariant), so decode state is self-contained at
    /// every splice point.
    ///
    /// The result shares the first stream's header and packet prefix,
    /// so when that stream's digests are already known the result's
    /// first digest query resumes from them and folds only the packets
    /// after it.
    pub fn concat(streams: &[&VideoStream]) -> Result<VideoStream, ContainerError> {
        let first = streams.first().ok_or(ContainerError::Incompatible)?;
        for s in streams {
            if !s.params.compatible_with(&first.params) || s.frame_dur != first.frame_dur {
                return Err(ContainerError::Incompatible);
            }
        }
        let mut packets = Vec::with_capacity(streams.iter().map(|s| s.len()).sum());
        let mut k = 0i64;
        for s in streams {
            for p in &s.packets {
                packets.push(p.retimed(first.start + first.frame_dur * Rational::from_int(k)));
                k += 1;
            }
        }
        let mut joined = VideoStream::new(first.params, first.start, first.frame_dur, packets)?;
        joined.resume = first.digests.get().cloned();
        Ok(joined)
    }
}

fn fold_packet(h: &mut Fnv64, p: &Packet) {
    h.write_u64(u64::from(p.keyframe));
    h.write_u64(p.size() as u64);
    h.write(&p.data);
}

impl std::fmt::Debug for VideoStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VideoStream({} frames @ {} from {}, {} bytes)",
            self.len(),
            self.frame_dur,
            self.start,
            self.byte_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::StreamWriter;
    use v2v_frame::FrameType;
    use v2v_time::r;

    thread_local! {
        /// Packets the fold loop has hashed on this thread (each test
        /// runs on its own): how the memo tests see what was *not*
        /// re-hashed.
        pub(super) static FOLDED_PACKETS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn folded() -> usize {
        FOLDED_PACKETS.with(std::cell::Cell::get)
    }

    pub(crate) fn test_stream(n: usize, gop: u32) -> VideoStream {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            for v in f.plane_mut(0).data_mut() {
                *v = (i * 10 % 256) as u8;
            }
            f.plane_mut(0).put(i % 32, 0, 255);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn available_matches_grid() {
        let s = test_stream(10, 4);
        assert_eq!(s.len(), 10);
        let a = s.available();
        assert_eq!(a.count(), 10);
        assert!(a.contains(r(3, 30)));
        assert!(!a.contains(r(10, 30)));
        assert_eq!(s.index_of(r(5, 30)), Some(5));
        assert_eq!(s.index_of(r(1, 60)), None);
        assert_eq!(s.pts_of(5), Some(r(5, 30)));
    }

    #[test]
    fn keyframe_lookups() {
        let s = test_stream(10, 4); // keys at 0, 4, 8
        assert_eq!(s.keyframe_indices(), vec![0, 4, 8]);
        assert_eq!(s.keyframe_at_or_before(0), Some(0));
        assert_eq!(s.keyframe_at_or_before(3), Some(0));
        assert_eq!(s.keyframe_at_or_before(4), Some(4));
        assert_eq!(s.keyframe_at_or_before(7), Some(4));
        assert_eq!(s.next_keyframe_at_or_after(1), Some(4));
        assert_eq!(s.next_keyframe_at_or_after(8), Some(8));
        assert_eq!(s.next_keyframe_at_or_after(9), None);
    }

    /// The packet-walk definitions the keyframe index replaced: the
    /// oracle the indexed queries must agree with.
    fn walk_at_or_before(s: &VideoStream, k: usize) -> Option<usize> {
        s.packets
            .iter()
            .enumerate()
            .take(k.saturating_add(1))
            .rev()
            .find_map(|(i, p)| p.keyframe.then_some(i))
    }

    fn walk_at_or_after(s: &VideoStream, k: usize) -> Option<usize> {
        s.packets
            .iter()
            .enumerate()
            .skip(k)
            .find_map(|(i, p)| p.keyframe.then_some(i))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn indexed_keyframe_queries_match_the_packet_walk(
            marks in proptest::collection::vec(0u8..4, 0..48),
        ) {
            // Keyframe density varies with the draw: one packet in four
            // on average, and the head is always a keyframe.
            let packets: Vec<Packet> = marks
                .iter()
                .enumerate()
                .map(|(i, &m)| Packet::new(r(i as i64, 30), i == 0 || m == 0, Default::default()))
                .collect();
            let params = CodecParams::new(FrameType::gray8(8, 8), 4, 0);
            let s = VideoStream::new(params, Rational::ZERO, r(1, 30), packets).unwrap();
            let walked: Vec<usize> = (0..s.len()).filter(|&i| s.packets[i].keyframe).collect();
            proptest::prop_assert_eq!(s.keyframe_indices(), walked);
            // Past the end too: `k ≥ len` is how the planner asks for a
            // stream's last keyframe.
            for k in (0..s.len() + 3).chain([usize::MAX]) {
                proptest::prop_assert_eq!(s.keyframe_at_or_before(k), walk_at_or_before(&s, k));
                proptest::prop_assert_eq!(s.next_keyframe_at_or_after(k), walk_at_or_after(&s, k));
            }
        }
    }

    #[test]
    fn decode_frame_counts_gop_cost() {
        let s = test_stream(10, 4);
        let (_, cost0) = s.decode_frame_at(r(0, 30)).unwrap();
        assert_eq!(cost0, 1);
        let (_, cost3) = s.decode_frame_at(r(3, 30)).unwrap();
        assert_eq!(cost3, 4, "mid-GOP decode rolls from the keyframe");
        let (_, cost4) = s.decode_frame_at(r(4, 30)).unwrap();
        assert_eq!(cost4, 1);
    }

    #[test]
    fn decode_range_rolls_once() {
        let s = test_stream(12, 4);
        let (frames, decoded) = s.decode_range(2, 7).unwrap();
        assert_eq!(frames.len(), 5);
        // Rolls from keyframe 0 through frame 6: 7 packets.
        assert_eq!(decoded, 7);
        // Frames are the right ones: marker pixel positions advance.
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.plane(0).get((2 + i) % 32, 0), 255);
        }
    }

    #[test]
    fn copy_range_requires_keyframe() {
        let s = test_stream(10, 4);
        assert!(s.copy_packet_range(1, 5, Rational::ZERO).is_err());
        let copied = s.copy_packet_range(4, 8, Rational::ZERO).unwrap();
        assert_eq!(copied.len(), 4);
        assert!(copied[0].keyframe);
        assert_eq!(copied[1].pts, r(1, 30));
        // Payloads are shared, not duplicated.
        assert_eq!(copied[0].data.as_ptr(), s.packets()[4].data.as_ptr());
    }

    #[test]
    fn concat_compatible_streams() {
        let a = test_stream(5, 4);
        let b = test_stream(6, 4);
        let c = VideoStream::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 11);
        // Decodes across the splice (frame 5 is b's frame 0).
        let (f, _) = c.decode_frame_at(r(5, 30)).unwrap();
        let (g, _) = b.decode_frame_at(r(0, 30)).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn concat_rejects_mismatched_params() {
        let a = test_stream(5, 4);
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 3); // different quantizer
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        w.push_frame(&Frame::black(ty)).unwrap();
        let b = w.finish().unwrap();
        assert!(matches!(
            VideoStream::concat(&[&a, &b]),
            Err(ContainerError::Incompatible)
        ));
        // A differing GOP cadence alone stays compatible: GOP size is an
        // encoder choice, not a bitstream property.
        let params = CodecParams::new(ty, 8, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        w.push_frame(&Frame::black(ty)).unwrap();
        let c = w.finish().unwrap();
        assert!(VideoStream::concat(&[&a, &c]).is_ok());
    }

    #[test]
    fn new_validates_grid_and_keyframe() {
        let s = test_stream(6, 3);
        // Non-keyframe head.
        let tail: Vec<Packet> = s.packets()[1..3].to_vec();
        assert!(matches!(
            VideoStream::new(*s.params(), r(1, 30), r(1, 30), tail),
            Err(ContainerError::SpliceNotKeyframe)
        ));
        // Off-grid timestamps.
        let mut pkts: Vec<Packet> = s.packets()[0..2].to_vec();
        pkts[1] = pkts[1].retimed(r(5, 30));
        assert!(matches!(
            VideoStream::new(*s.params(), Rational::ZERO, r(1, 30), pkts),
            Err(ContainerError::OutOfOrder)
        ));
    }

    #[test]
    fn prefix_digests_match_from_scratch_seals() {
        let s = test_stream(12, 4); // keys at 0, 4, 8
        assert_eq!(s.content_digest(), s.prefix_digest(s.len()));
        let index = s.digest_index();
        assert_eq!(
            index.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![4, 8, 12]
        );
        for &(n, d) in index.iter() {
            // A stream sealed from just those packets digests identically.
            let prefix = VideoStream::new(
                *s.params(),
                s.start(),
                s.frame_dur(),
                s.packets()[..n as usize].to_vec(),
            )
            .unwrap();
            assert_eq!(prefix.content_digest(), d);
            assert_eq!(s.prefix_digest(n as usize), d);
        }
        // Distinct prefixes digest differently.
        assert_ne!(index[0].1, index[1].1);
    }

    #[test]
    fn digests_are_folded_once_and_shared() {
        let s = test_stream(12, 4);
        let index = s.digest_index();
        assert_eq!(folded(), 12);
        // Every later query is a lookup into the same allocation, on
        // the stream and on its clones.
        assert!(Arc::ptr_eq(&index, &s.digest_index()));
        assert!(Arc::ptr_eq(&index, &s.clone().digest_index()));
        assert_eq!(s.content_digest(), index[2].1);
        assert_eq!(s.prefix_digest(8), index[1].1);
        assert_eq!(folded(), 12);
        // A cut inside a GOP is no recorded boundary: it folds its own
        // prefix and leaves the memo alone.
        let mid = s.prefix_digest(6);
        assert_eq!(folded(), 18);
        let sealed = VideoStream::new(
            *s.params(),
            s.start(),
            s.frame_dur(),
            s.packets()[..6].to_vec(),
        )
        .unwrap();
        assert_eq!(mid, sealed.content_digest());
    }

    #[test]
    fn concat_resumes_from_the_first_operands_digests() {
        let whole = test_stream(20, 4);
        let cut = |from: usize, to: usize| {
            let pts = whole.pts_of(from).unwrap();
            let packets = whole.copy_packet_range(from, to, pts).unwrap();
            VideoStream::new(*whole.params(), pts, whole.frame_dur(), packets).unwrap()
        };
        let (head, tail) = (cut(0, 12), cut(12, 20));
        let expect = whole.digest_index();

        // Known head: the joined stream folds the 8 appended packets.
        let head_index = head.digest_index();
        let before = folded();
        let joined = VideoStream::concat(&[&head, &tail]).unwrap();
        assert_eq!(folded(), before, "concat itself digests nothing");
        assert_eq!(joined.digest_index(), expect);
        assert_eq!(folded() - before, 8);
        assert_eq!(joined.digest_index()[..3], head_index[..]);

        // Unknown head: nothing to resume from, one full fold.
        let before = folded();
        let cold = VideoStream::concat(&[&cut(0, 12), &tail]).unwrap();
        assert_eq!(cold.digest_index(), expect);
        assert_eq!(folded() - before, 20);

        // Degenerate operands: an empty head, and nothing appended.
        let empty =
            VideoStream::new(*whole.params(), whole.start(), whole.frame_dur(), vec![]).unwrap();
        assert_eq!(empty.digest_index().len(), 1);
        let onto_empty = VideoStream::concat(&[&empty, &whole]).unwrap();
        assert_eq!(onto_empty.digest_index(), expect);
        let alone = VideoStream::concat(&[&whole]).unwrap();
        let before = folded();
        assert_eq!(alone.digest_index(), expect);
        assert_eq!(folded(), before);
    }

    #[test]
    fn off_grid_decode_errors() {
        let s = test_stream(5, 4);
        assert!(matches!(
            s.decode_frame_at(r(1, 7)),
            Err(ContainerError::NotOnGrid(_))
        ));
    }

    /// Builds a stream whose keyframe invariant is broken, as a hostile
    /// `.svc` file can (packet flags live in the untrusted packet table).
    fn keyframeless_stream() -> VideoStream {
        let s = test_stream(6, 3);
        let packets: Vec<Packet> = s
            .packets()
            .iter()
            .map(|p| Packet::new(p.pts, false, p.data.clone()))
            .collect();
        VideoStream {
            params: *s.params(),
            start: s.start(),
            frame_dur: s.frame_dur(),
            bytes: s.byte_size(),
            packets,
            keyframes: Vec::new(),
            digests: OnceLock::new(),
            resume: None,
        }
    }

    #[test]
    fn decode_without_keyframe_errors_instead_of_panicking() {
        // Regression: `decode_frame_at` / `decode_range` used to
        // `expect("stream starts with a keyframe")`.
        let s = keyframeless_stream();
        assert!(matches!(
            s.decode_frame_at(r(2, 30)),
            Err(ContainerError::NoKeyframe)
        ));
        assert!(matches!(
            s.decode_range(1, 4),
            Err(ContainerError::NoKeyframe)
        ));
    }

    #[test]
    fn copy_packet_range_round_trip_with_broken_keyframes() {
        // The copy → decode round trip must also degrade to errors: the
        // copy itself is rejected (no keyframe head), and decoding any
        // hand-spliced keyframeless run reports NoKeyframe.
        let s = keyframeless_stream();
        assert!(matches!(
            s.copy_packet_range(0, 3, Rational::ZERO),
            Err(ContainerError::SpliceNotKeyframe)
        ));
    }

    #[test]
    fn non_positive_frame_duration_rejected() {
        // Regression: `VideoStream::new` used to assert on this, which a
        // hostile header could trigger through `read_svc`.
        let s = test_stream(3, 3);
        for bad in [Rational::ZERO, r(-1, 30)] {
            assert!(matches!(
                VideoStream::new(*s.params(), Rational::ZERO, bad, s.packets().to_vec()),
                Err(ContainerError::BadFile(_))
            ));
        }
    }
}
