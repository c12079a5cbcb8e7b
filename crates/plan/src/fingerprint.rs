//! Content-addressed plan fingerprints for the render cache.
//!
//! The cache must answer "is this exactly the work I rendered before?"
//! across process lifetimes, so keys cannot come from pointer
//! identities, hash-map iteration order, or anything the optimizer's
//! *trajectory* influences. Two requirements shape the scheme:
//!
//! 1. **Canonical over the plan, not the rewrite history.** Temporal
//!    sharding splits one render segment into several that carry
//!    *identical* [`SegPlan`]s, and a plan carved at output-GOP
//!    boundaries — sharded or not, cut every GOP or every eight — must
//!    fingerprint identically, because the output bytes are identical
//!    (the encoder emits the same keyframe cadence either way). The
//!    fingerprint therefore hashes a *canonical* segment list in which
//!    GOP-aligned runs of equal render plans (and contiguous stream
//!    copies of one source) are merged back together.
//!
//! 2. **Content-addressed over the sources.** A plan names videos, but
//!    a name does not pin bytes: re-encoding a source in place must
//!    change every key derived from it. Callers supply
//!    [`SourceDigests`] — per-video content digests (from
//!    [`VideoStream::content_digest`]) plus per-entry digests of the
//!    data arrays the plan reads ([`referenced_arrays`]) — and both the
//!    whole-plan fingerprint and the per-segment keys fold them in.
//!
//! Rewrites that change the *output bytes* (stream copy vs. render,
//! smart cuts) legitimately change the
//! fingerprint: cached bytes are only reusable when they are the very
//! bytes the plan would produce.
//!
//! Programs containing UDFs or overlay images are never keyed
//! ([`segment_keys`] yields `None`, [`plan_fingerprint`] is still
//! defined but callers should skip caching): the kernel behind a UDF id
//! lives in the process's catalog, and a program names an image by its
//! path, not its pixels, so neither is witnessed by any digest.
//!
//! [`VideoStream::content_digest`]: v2v_container::VideoStream::content_digest

use crate::physical::{PhysicalPlan, SegPlan, Segment};
use crate::program::{FrameProgram, ProgArg};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use v2v_container::{Fnv64, VideoStream};
use v2v_spec::TransformOp;
use v2v_time::{AffineTimeMap, Rational};

/// Content digest of one video source, carrying the committed-GOP
/// prefix structure live sources expose.
///
/// A segment key folds in the digest of the *smallest committed prefix*
/// covering the segment's source reads, not the whole-stream digest —
/// so appending GOPs to a live source changes only the keys of segments
/// whose reads extend past the old end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VideoDigest {
    /// Digest of the full stream
    /// ([`VideoStream::content_digest`](v2v_container::VideoStream::content_digest)).
    pub full: u64,
    /// `(frames, digest)` at committed GOP boundaries, ascending, the
    /// last entry being the whole stream
    /// ([`VideoStream::digest_index`](v2v_container::VideoStream::digest_index)).
    /// Empty means the prefix structure is unknown: every key falls
    /// back to the full digest and appends invalidate everything.
    /// Shared with the stream's memoized index, not copied.
    pub prefixes: Arc<[(u64, u64)]>,
    /// Grid start (used to turn a read window into a frame count).
    pub start: Rational,
    /// Frame duration.
    pub frame_dur: Rational,
}

impl VideoDigest {
    /// A digest with no prefix structure (keys use `full` everywhere).
    pub fn opaque(full: u64) -> VideoDigest {
        VideoDigest {
            full,
            prefixes: Arc::from([]),
            start: Rational::ZERO,
            frame_dur: Rational::ONE,
        }
    }

    /// A stream's digest with its full committed-GOP boundary index.
    /// The stream memoizes both, so only the first call on a source
    /// reads its packet bytes.
    pub fn of(stream: &VideoStream) -> VideoDigest {
        VideoDigest {
            full: stream.content_digest(),
            prefixes: stream.digest_index(),
            start: stream.start(),
            frame_dur: stream.frame_dur(),
        }
    }

    /// The `(frames, digest)` of the smallest committed prefix serving
    /// every read at instants `≤ hi`; the full stream when no boundary
    /// covers it (or no prefix structure is known).
    fn covering(&self, hi: Rational) -> (u64, u64) {
        if self.prefixes.is_empty() {
            return (u64::MAX, self.full);
        }
        let needed = if hi < self.start {
            0
        } else {
            (hi - self.start).div_floor(self.frame_dur).max(0) as u64 + 1
        };
        for &(n, d) in self.prefixes.iter() {
            if n >= needed {
                return (n, d);
            }
        }
        *self.prefixes.last().expect("non-empty prefix index")
    }
}

/// Content digests of everything a plan reads, keyed by catalog name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceDigests {
    /// Per-video content digests with prefix structure.
    pub videos: BTreeMap<String, VideoDigest>,
    /// Per-array `(instant, entry digest)` pairs, ascending by instant
    /// ([`DataArray::entry_digests`](v2v_data::DataArray::entry_digests),
    /// shared with the array's memo), for the arrays the plan reads.
    /// Segment keys fold only the entries a segment's data expressions
    /// can actually look up, so appending later detections leaves
    /// earlier segments' keys unchanged. A segment reading an array
    /// missing here has no key.
    pub array_entries: BTreeMap<String, Arc<Vec<(Rational, u64)>>>,
}

/// Is the expression's value a function of the evaluation instant or
/// the data arrays? Constant expressions (however nested) are not —
/// they are already pinned by the program's serialization.
fn expr_time_sensitive(e: &v2v_spec::DataExpr) -> bool {
    use v2v_spec::DataExpr;
    match e {
        DataExpr::Const(_) => false,
        DataExpr::T | DataExpr::ArrayRef { .. } => true,
        DataExpr::Cmp { lhs, rhs, .. } | DataExpr::Arith { lhs, rhs, .. } => {
            expr_time_sensitive(lhs) || expr_time_sensitive(rhs)
        }
        DataExpr::And(a, b) | DataExpr::Or(a, b) => {
            expr_time_sensitive(a) || expr_time_sensitive(b)
        }
        DataExpr::Not(a) | DataExpr::Len(a) => expr_time_sensitive(a),
    }
}

/// Does the program consume anything beyond its input frames — data
/// expressions genuinely evaluated at *absolute* domain instants
/// (`t` or array lookups; constants don't count) — and anything no
/// digest witnesses (UDFs, overlay images)?
fn program_data_sensitivity(p: &FrameProgram) -> (bool, bool) {
    match p {
        FrameProgram::Input(_) => (false, false),
        FrameProgram::Op { op, args } => {
            let mut data = false;
            let mut opaque = matches!(
                op,
                TransformOp::Udf(_) | TransformOp::Overlay | TransformOp::OverlayAt
            );
            for a in args {
                match a {
                    ProgArg::Frame(f) => {
                        let (d, o) = program_data_sensitivity(f);
                        data |= d;
                        opaque |= o;
                    }
                    ProgArg::Data(e) => data |= expr_time_sensitive(e),
                }
            }
            (data, opaque)
        }
    }
}

/// Hashes the plan-wide framing every key shares: output parameters and
/// the grid.
fn hash_framing(h: &mut Fnv64, plan: &PhysicalPlan) {
    h.write_str(&serde_json::to_string(&plan.out_params).unwrap_or_default());
    h.write_str(&plan.frame_dur.to_string());
}

/// Collects every `array[map(t)]` lookup site in a data expression.
fn expr_array_refs(e: &v2v_spec::DataExpr, out: &mut Vec<(String, AffineTimeMap)>) {
    use v2v_spec::DataExpr;
    match e {
        DataExpr::Const(_) | DataExpr::T => {}
        DataExpr::ArrayRef { array, time } => out.push((array.clone(), *time)),
        DataExpr::Cmp { lhs, rhs, .. } | DataExpr::Arith { lhs, rhs, .. } => {
            expr_array_refs(lhs, out);
            expr_array_refs(rhs, out);
        }
        DataExpr::And(a, b) | DataExpr::Or(a, b) => {
            expr_array_refs(a, out);
            expr_array_refs(b, out);
        }
        DataExpr::Not(a) | DataExpr::Len(a) => expr_array_refs(a, out),
    }
}

/// Collects every array lookup site across a whole program.
fn program_array_refs(p: &FrameProgram, out: &mut Vec<(String, AffineTimeMap)>) {
    if let FrameProgram::Op { args, .. } = p {
        for a in args {
            match a {
                ProgArg::Frame(f) => program_array_refs(f, out),
                ProgArg::Data(e) => expr_array_refs(e, out),
            }
        }
    }
}

/// The data arrays the plan's render programs look up: the only arrays
/// whose entry digests its keys fold.
pub fn referenced_arrays(plan: &PhysicalPlan) -> BTreeSet<String> {
    let mut refs = Vec::new();
    for seg in &plan.segments {
        if let SegPlan::Render { program, .. } = &seg.plan {
            program_array_refs(program, &mut refs);
        }
    }
    refs.into_iter().map(|(array, _)| array).collect()
}

/// Hashes one render plan's semantic content for the segment starting
/// at output frame `out_start` with `count` frames. Returns `false`
/// (key unusable) when the program contains a UDF or an overlay image,
/// or references a video or array absent from `sources`.
fn hash_render(
    h: &mut Fnv64,
    plan: &PhysicalPlan,
    program: &FrameProgram,
    inputs: &[crate::program::InputClip],
    out_start: u64,
    count: u64,
    sources: &SourceDigests,
) -> bool {
    let (has_data, opaque) = program_data_sensitivity(program);
    if opaque {
        return false;
    }
    h.write_str("render");
    h.write_u64(count);
    h.write_str(&serde_json::to_string(program).unwrap_or_default());
    let seg_start = plan.instant_of(out_start);
    for clip in inputs {
        let Some(d) = sources.videos.get(&clip.video) else {
            return false;
        };
        // The upper end of the segment's read range bounds every source
        // instant it reads, so the smallest committed prefix past it
        // pins every byte this segment can touch. Hashing that boundary
        // (frames + digest) instead of the full digest is what keeps
        // keys stable when a live source grows behind the reads.
        let (_, hi) = crate::variant::clip_read_range(plan, clip, out_start, count);
        let (frames, digest) = d.covering(hi);
        h.write_u64(frames);
        h.write_u64(digest);
        // The binding's semantic content relative to this segment: the
        // source instant its frames start at and the rate mapping. The
        // absolute offset is deliberately *not* hashed — two segments
        // rendering the same source span with the same program are the
        // same work wherever they land in the output.
        h.write_str(&clip.time.scale().to_string());
        h.write_str(&clip.time.apply(seg_start).to_string());
    }
    if has_data {
        // Data expressions evaluate at absolute domain instants, so the
        // segment's alignment becomes an input.
        h.write_str(&seg_start.to_string());
        // Fold only the array entries this segment's lookups can reach:
        // each `array[map(t)]` site reads instants bounded by the
        // affine image of the segment window, so entries past that
        // bound (appended detections) don't touch the key.
        let mut refs = Vec::new();
        program_array_refs(program, &mut refs);
        refs.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.to_string().cmp(&b.1.to_string()))
        });
        refs.dedup();
        let seg_last = plan.instant_of(out_start + count.saturating_sub(1));
        for (array, map) in &refs {
            h.write_str(array);
            let hi = map.apply(seg_start).max(map.apply(seg_last));
            let Some(entries) = sources.array_entries.get(array) else {
                return false;
            };
            let visible = entries.partition_point(|&(t, _)| t <= hi);
            h.write_u64(visible as u64);
            for &(_, d) in &entries[..visible] {
                h.write_u64(d);
            }
        }
    }
    true
}

/// Hashes one stream-copy plan's semantic content.
fn hash_copy(
    h: &mut Fnv64,
    video: &str,
    src_from: u64,
    src_to: u64,
    sources: &SourceDigests,
) -> bool {
    h.write_str("copy");
    let Some(d) = sources.videos.get(video) else {
        return false;
    };
    // Copies read frames `[src_from, src_to)` directly: the smallest
    // boundary at or past `src_to` pins them.
    let (frames, digest) = if d.prefixes.is_empty() {
        (u64::MAX, d.full)
    } else {
        d.prefixes
            .iter()
            .copied()
            .find(|&(n, _)| n >= src_to)
            .unwrap_or(*d.prefixes.last().expect("non-empty prefix index"))
    };
    h.write_u64(frames);
    h.write_u64(digest);
    h.write_u64(src_from);
    h.write_u64(src_to);
    true
}

/// Merges the plan's segments into canonical runs: GOP-aligned adjacent
/// render segments with equal plans (what sharding splits) and
/// contiguous stream copies of one video (what GOP-chunked copies
/// split) collapse into single segments. The result depends only on
/// what the plan *produces*, not on how the optimizer arrived at it.
fn canonical_segments(plan: &PhysicalPlan) -> Vec<Segment> {
    let gop = u64::from(plan.out_params.gop_size.max(1));
    let mut out: Vec<Segment> = Vec::with_capacity(plan.segments.len());
    for seg in &plan.segments {
        if let Some(run) = out.last_mut() {
            let adjacent = seg.out_start == run.out_start + run.count;
            match (&mut run.plan, &seg.plan) {
                (
                    SegPlan::Render {
                        program: rp,
                        inputs: ri,
                    },
                    SegPlan::Render { program, inputs },
                ) if adjacent
                    && rp == program
                    // Variant choice is advisory and byte-invisible, so
                    // canonicalization must not let it split a run.
                    && ri.len() == inputs.len()
                    && ri.iter().zip(inputs).all(|(a, b)| a.same_source(b))
                    // Merging is byte-preserving only at output-GOP
                    // boundaries: each render segment restarts the
                    // encoder, so an unaligned merge would move
                    // keyframes.
                    && (seg.out_start - run.out_start) % gop == 0 =>
                {
                    run.count += seg.count;
                    continue;
                }
                (
                    SegPlan::StreamCopy {
                        video: rv,
                        src_to: rt,
                        ..
                    },
                    SegPlan::StreamCopy {
                        video,
                        src_from,
                        src_to,
                    },
                ) if adjacent && rv == video && *rt == *src_from => {
                    *rt = *src_to;
                    run.count += seg.count;
                    continue;
                }
                _ => {}
            }
        }
        out.push(seg.clone());
    }
    out
}

/// The canonical, content-addressed fingerprint of a whole plan: the
/// render cache's key for complete results.
///
/// Invariant under output-GOP-aligned shard cuts and rule application
/// order (for a fixed rule *outcome*); changes whenever the output
/// bytes would — different programs, clip ranges, output parameters, or
/// source contents.
pub fn plan_fingerprint(plan: &PhysicalPlan, sources: &SourceDigests) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("v2v.plan.v2");
    hash_framing(&mut h, plan);
    h.write_str(&plan.domain_start.to_string());
    h.write_u64(plan.n_frames);
    let canon = canonical_segments(plan);
    h.write_u64(canon.len() as u64);
    for seg in &canon {
        h.write_u64(seg.out_start);
        match &seg.plan {
            SegPlan::Render { program, inputs } => {
                if !hash_render(
                    &mut h,
                    plan,
                    program,
                    inputs,
                    seg.out_start,
                    seg.count,
                    sources,
                ) {
                    // Unkeyable content (UDF, image, unknown video):
                    // poison the fingerprint with the segment's identity
                    // so it still distinguishes plans, while callers
                    // gate caching on `cacheable`.
                    h.write_str("unkeyable");
                    h.write_str(&serde_json::to_string(program).unwrap_or_default());
                }
            }
            SegPlan::StreamCopy {
                video,
                src_from,
                src_to,
            } => {
                if !hash_copy(&mut h, video, *src_from, *src_to, sources) {
                    h.write_str("unkeyable");
                    h.write_str(video);
                }
            }
        }
    }
    h.finish()
}

/// `true` when every segment of the plan can be keyed — no UDFs or
/// overlay images, every referenced video digested. The engine only
/// caches such plans.
pub fn cacheable(plan: &PhysicalPlan, sources: &SourceDigests) -> bool {
    plan.segments.iter().all(|seg| match &seg.plan {
        SegPlan::Render { program, inputs } => {
            let (_, opaque) = program_data_sensitivity(program);
            !opaque && inputs.iter().all(|c| sources.videos.contains_key(&c.video))
        }
        SegPlan::StreamCopy { video, .. } => sources.videos.contains_key(video),
    })
}

/// Per-segment cache keys, aligned with `plan.segments` by index.
///
/// `None` for segments that must not be cached: stream copies (already
/// zero-decode — caching them would only duplicate source bytes) and
/// render programs containing UDFs or overlay images, or reading videos
/// or arrays without digests.
///
/// The key hashes everything that determines the segment's output
/// bytes — program, input contents and alignment, output parameters,
/// frame count — but *not* the segment's position in the output, so an
/// overlapping query whose plan produces the same span of work reuses
/// the fragment even at a different output offset.
pub fn segment_keys(plan: &PhysicalPlan, sources: &SourceDigests) -> Vec<Option<u64>> {
    plan.segments
        .iter()
        .map(|seg| match &seg.plan {
            SegPlan::StreamCopy { .. } => None,
            SegPlan::Render { program, inputs } => {
                let mut h = Fnv64::new();
                h.write_str("v2v.segkey.v2");
                hash_framing(&mut h, plan);
                hash_render(
                    &mut h,
                    plan,
                    program,
                    inputs,
                    seg.out_start,
                    seg.count,
                    sources,
                )
                .then(|| h.finish())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::InputClip;
    use v2v_codec::CodecParams;
    use v2v_frame::FrameType;
    use v2v_time::{r, AffineTimeMap, Rational};

    fn digests(names: &[&str]) -> SourceDigests {
        SourceDigests {
            videos: names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.to_string(), VideoDigest::opaque(0x1000 + i as u64)))
                .collect(),
            array_entries: BTreeMap::new(),
        }
    }

    fn render_seg(out_start: u64, count: u64) -> Segment {
        Segment {
            out_start,
            count,
            plan: SegPlan::Render {
                program: FrameProgram::Op {
                    op: TransformOp::Blur,
                    args: vec![
                        ProgArg::Frame(FrameProgram::Input(0)),
                        ProgArg::Data(v2v_spec::DataExpr::constant(1.0f64)),
                    ],
                },
                inputs: vec![InputClip::new("a", AffineTimeMap::IDENTITY)],
            },
        }
    }

    fn base_plan(segments: Vec<Segment>, n_frames: u64) -> PhysicalPlan {
        PhysicalPlan {
            segments,
            out_params: CodecParams::new(FrameType::gray8(32, 32), 4, 0),
            frame_dur: r(1, 30),
            domain_start: Rational::ZERO,
            n_frames,
            stats: Default::default(),
        }
    }

    #[test]
    fn video_digest_of_shares_the_streams_memoized_index() {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 0);
        let mut w = v2v_container::StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for _ in 0..10 {
            w.push_frame(&v2v_frame::Frame::black(ty)).unwrap();
        }
        let s = w.finish().unwrap();
        let d = VideoDigest::of(&s);
        assert_eq!(d.full, s.content_digest());
        assert!(Arc::ptr_eq(&d.prefixes, &s.digest_index()));
        assert!(Arc::ptr_eq(&d.prefixes, &VideoDigest::of(&s).prefixes));
        assert_eq!(d.prefixes.last(), Some(&(10, d.full)));
    }

    #[test]
    fn sharding_is_invisible() {
        // One 16-frame render vs. the same render split at GOP-aligned
        // boundaries (gop 4): identical fingerprints.
        let whole = base_plan(vec![render_seg(0, 16)], 16);
        let sharded = base_plan(
            vec![render_seg(0, 8), render_seg(8, 4), render_seg(12, 4)],
            16,
        );
        let d = digests(&["a"]);
        assert_eq!(plan_fingerprint(&whole, &d), plan_fingerprint(&sharded, &d));
    }

    #[test]
    fn unaligned_split_is_not_merged() {
        // A split at a non-GOP boundary changes keyframe placement and
        // therefore the output bytes: must NOT collapse.
        let whole = base_plan(vec![render_seg(0, 16)], 16);
        let odd = base_plan(vec![render_seg(0, 6), render_seg(6, 10)], 16);
        let d = digests(&["a"]);
        assert_ne!(plan_fingerprint(&whole, &d), plan_fingerprint(&odd, &d));
    }

    #[test]
    fn source_bytes_are_load_bearing() {
        let plan = base_plan(vec![render_seg(0, 16)], 16);
        let d1 = digests(&["a"]);
        let mut d2 = d1.clone();
        d2.videos.insert("a".into(), VideoDigest::opaque(0xdead));
        assert_ne!(plan_fingerprint(&plan, &d1), plan_fingerprint(&plan, &d2));
        assert_ne!(segment_keys(&plan, &d1)[0], segment_keys(&plan, &d2)[0],);
    }

    #[test]
    fn copy_runs_merge() {
        let seg = |out_start, count, src_from, src_to| Segment {
            out_start,
            count,
            plan: SegPlan::StreamCopy {
                video: "a".into(),
                src_from,
                src_to,
            },
        };
        let whole = base_plan(vec![seg(0, 12, 3, 15)], 12);
        let split = base_plan(vec![seg(0, 4, 3, 7), seg(4, 8, 7, 15)], 12);
        let gapped = base_plan(vec![seg(0, 4, 3, 7), seg(4, 8, 8, 16)], 12);
        let d = digests(&["a"]);
        assert_eq!(plan_fingerprint(&whole, &d), plan_fingerprint(&split, &d));
        assert_ne!(plan_fingerprint(&whole, &d), plan_fingerprint(&gapped, &d));
    }

    #[test]
    fn segment_key_ignores_output_position_without_data() {
        // Pure-frame programs over the same source span key identically
        // wherever they land in the output.
        let a = base_plan(vec![render_seg(0, 8)], 8);
        let mut moved = render_seg(4, 8);
        // Compensate the clip so the *source* span matches: identity
        // time map reads t, so shift the clip back by 4 frames.
        if let SegPlan::Render { inputs, .. } = &mut moved.plan {
            inputs[0].time = AffineTimeMap::new(Rational::ONE, r(-4, 30));
        }
        let b = base_plan(vec![render_seg(0, 4), moved], 12);
        let d = digests(&["a"]);
        let ka = segment_keys(&a, &d);
        let kb = segment_keys(&b, &d);
        assert_eq!(ka[0], kb[1], "same work, different offset: same key");
    }

    #[test]
    fn udf_segments_are_unkeyed() {
        let mut seg = render_seg(0, 8);
        if let SegPlan::Render { program, .. } = &mut seg.plan {
            *program = FrameProgram::Op {
                op: TransformOp::Udf(3),
                args: vec![ProgArg::Frame(FrameProgram::Input(0))],
            };
        }
        let plan = base_plan(vec![seg], 8);
        let d = digests(&["a"]);
        assert_eq!(segment_keys(&plan, &d), vec![None]);
        assert!(!cacheable(&plan, &d));
        assert!(cacheable(&base_plan(vec![render_seg(0, 8)], 8), &d));
    }

    #[test]
    fn data_programs_key_on_alignment_and_arrays() {
        let data_seg = |out_start| {
            let mut s = render_seg(out_start, 8);
            if let SegPlan::Render { program, .. } = &mut s.plan {
                *program = FrameProgram::Op {
                    op: TransformOp::Blur,
                    args: vec![
                        ProgArg::Frame(FrameProgram::Input(0)),
                        ProgArg::Data(v2v_spec::DataExpr::T),
                    ],
                };
            }
            s
        };
        let a = base_plan(vec![data_seg(0)], 8);
        let b = base_plan(vec![data_seg(0), data_seg(8)], 16);
        let d = digests(&["a"]);
        // Same alignment → same key; different alignment → different.
        assert_eq!(segment_keys(&a, &d)[0], segment_keys(&b, &d)[0]);
        assert_ne!(segment_keys(&b, &d)[0], segment_keys(&b, &d)[1]);
        // `t`-only programs read no arrays, so array changes leave their
        // keys alone (the windowed scheme keys only actual lookups).
        let mut d2 = d.clone();
        let entries = Arc::new(vec![(Rational::ZERO, 99)]);
        d2.array_entries.insert("bb".into(), entries);
        assert_eq!(segment_keys(&a, &d)[0], segment_keys(&a, &d2)[0]);
        assert!(referenced_arrays(&a).is_empty());
    }

    /// A segment reading `bb[t]` keys on exactly the entries its window
    /// can reach: appending later detections re-keys only the segments
    /// whose window covers the new entries.
    #[test]
    fn array_reads_key_on_visible_entries_only() {
        let array_seg = |out_start| {
            let mut s = render_seg(out_start, 8);
            if let SegPlan::Render { program, .. } = &mut s.plan {
                *program = FrameProgram::Op {
                    op: TransformOp::Blur,
                    args: vec![
                        ProgArg::Frame(FrameProgram::Input(0)),
                        ProgArg::Data(v2v_spec::DataExpr::array("bb")),
                    ],
                };
            }
            s
        };
        let plan = base_plan(vec![array_seg(0), array_seg(8)], 16);
        let entries = |n: i64| -> Arc<Vec<(Rational, u64)>> {
            Arc::new((0..n).map(|i| (r(i, 30), 0x40 + i as u64)).collect())
        };
        let mut d = digests(&["a"]);
        d.array_entries.insert("bb".into(), entries(8));
        let mut grown = d.clone();
        grown.array_entries.insert("bb".into(), entries(16));
        let k_old = segment_keys(&plan, &d);
        let k_new = segment_keys(&plan, &grown);
        assert_eq!(k_old[0], k_new[0], "early segment ignores appended entries");
        assert_ne!(k_old[1], k_new[1], "the segment whose window grew re-keys");
        // An array read without entry digests leaves its segments
        // unkeyed, as an undigested video does.
        assert_eq!(referenced_arrays(&plan), BTreeSet::from(["bb".into()]));
        assert_eq!(segment_keys(&plan, &digests(&["a"])), vec![None, None]);
    }

    /// Segment keys pin the smallest committed prefix covering their
    /// reads: growing a source past a segment's window keeps its key;
    /// rewriting bytes inside the window changes it.
    #[test]
    fn video_prefix_growth_rekeys_only_dirty_segments() {
        let vd = |count: u64, rewrite_tail: bool| VideoDigest {
            full: 0x9000 + count + u64::from(rewrite_tail),
            prefixes: (1..=count / 4)
                .map(|g| {
                    let n = g * 4;
                    let tweak = u64::from(rewrite_tail && n >= 16);
                    (n, 0x9000 + n + tweak)
                })
                .collect(),
            start: Rational::ZERO,
            frame_dur: r(1, 30),
        };
        // seg0 reads source frames 0..8 (boundary 8); seg1 reads 8..16
        // (boundary 16).
        let plan = base_plan(vec![render_seg(0, 8), render_seg(8, 8)], 16);
        let mut d = digests(&["a"]);
        d.videos.insert("a".into(), vd(16, false));
        let mut grown = d.clone();
        grown.videos.insert("a".into(), vd(24, false));
        let mut rewritten = d.clone();
        rewritten.videos.insert("a".into(), vd(16, true));

        let k = segment_keys(&plan, &d);
        let k_grown = segment_keys(&plan, &grown);
        let k_rewritten = segment_keys(&plan, &rewritten);
        assert_eq!(k, k_grown, "appending past every read keeps all keys");
        assert_eq!(k[0], k_rewritten[0], "prefix-clean segment keeps its key");
        assert_ne!(k[1], k_rewritten[1], "segment over changed bytes re-keys");
    }
}
