//! The memoized digest index under appends: however a stream is cut at
//! keyframes and re-joined by chained `concat`, and wherever along the
//! chain the memo happens to be forced (so the next fold resumes from
//! it) or not (so it starts over), the index equals that of a stream
//! sealed from the same packets in one go, and no boundary an earlier
//! link reported ever changes.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;
use v2v_codec::CodecParams;
use v2v_container::{StreamWriter, VideoStream};
use v2v_frame::{Frame, FrameType};
use v2v_time::{r, Rational};

const GOP: usize = 4;
const GOPS: usize = 16;

/// The full stream every case cuts up (encoded once per process).
fn history() -> &'static VideoStream {
    static HISTORY: OnceLock<VideoStream> = OnceLock::new();
    HISTORY.get_or_init(|| {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, GOP as u32, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..GOP * GOPS {
            let mut f = Frame::black(ty);
            for (k, v) in f.plane_mut(0).data_mut().iter_mut().enumerate() {
                *v = ((i * 31 + k) % 256) as u8;
            }
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    })
}

/// Frames `a..b` of the history as a stream of its own, memo empty.
fn slice(a: usize, b: usize) -> VideoStream {
    let h = history();
    let at = h.pts_of(a).unwrap();
    let packets = h.copy_packet_range(a, b, at).unwrap();
    VideoStream::new(*h.params(), at, h.frame_dur(), packets).unwrap()
}

proptest! {
    #[test]
    fn chained_concat_digests_equal_a_from_scratch_seal(
        cuts in proptest::collection::vec(1..GOPS, 0..6),
        force in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let cuts: BTreeSet<usize> = cuts.into_iter().collect();
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(cuts.iter().map(|gop| gop * GOP))
            .chain([GOP * GOPS])
            .collect();
        let mut joined = slice(0, bounds[1]);
        let mut reported = Vec::new();
        for (link, piece) in bounds[1..].windows(2).enumerate() {
            if force[link] {
                reported.push(joined.digest_index());
            }
            joined = VideoStream::concat(&[&joined, &slice(piece[0], piece[1])]).unwrap();
        }
        prop_assert!(!joined.digests_known(), "concat folds nothing itself");

        let index = joined.digest_index();
        let sealed = slice(0, GOP * GOPS);
        prop_assert_eq!(&index, &sealed.digest_index());
        prop_assert_eq!(index.len(), GOPS);
        prop_assert_eq!(joined.content_digest(), sealed.content_digest());
        for earlier in reported {
            prop_assert_eq!(&index[..earlier.len()], &earlier[..]);
        }
        for &(frames, digest) in index.iter() {
            prop_assert_eq!(joined.prefix_digest(frames as usize), digest);
        }
    }
}
