//! `/subscribe` incremental results: delta framing, the diff between
//! consecutive outputs, and reassembly. The route itself (watch,
//! re-render, push) is in `subscribe.rs`.
//!
//! A subscription is a long-lived `POST /subscribe` response carrying a
//! sequence of **delta records**. Each record re-sends the suffix of the
//! query's output that changed since the previous push, starting at an
//! output keyframe at-or-before the divergence point, so the client can
//! splice it onto its running copy without any decode:
//!
//! ```text
//! record := header_len:u32le  header_json  svc_bytes
//! header := { seq, from_frame, frames, svc_len, version }
//! ```
//!
//! The `svc_bytes` are a complete sealed `.svc` container of the delta
//! packets, stamped at their *absolute* output instants — so a delta is
//! independently playable, and [`DeltaApplier::apply`] only has to
//! truncate its cumulative packet list to `from_frame` and extend.
//!
//! **A failed refresh ends the stream with one failure record**, whose
//! header is the error object of an HTTP error body and which carries
//! no `svc_bytes`:
//!
//! ```text
//! failure := header_len:u32le  {"error": {"kind", "message"}}
//! ```
//!
//! [`read_delta`] returns it as an `Err` whose inner error is a
//! [`RefreshFailed`], so a client tells a failed subscription (and its
//! [`ErrorKind`]) from a clean close, which is EOF at a record boundary.
//!
//! **Byte identity.** The server pushes deltas of a full re-render of
//! the clamped spec, so after applying record `n` the client's
//! cumulative stream is byte-for-byte the output of a cold one-shot run
//! of the same spec at the same source length. The incremental part is
//! the *work*, not the result: unchanged segments come out of the
//! render cache (their keys survive appends — see
//! `v2v_plan::fingerprint`), and the wire carries only the changed
//! suffix.
//!
//! **The diff reads only what changed.** [`delta_between`] walks the
//! two outputs packet by packet, but a pair whose payloads are the same
//! buffer is equal without a byte read (see `same_payload`). Copy
//! segments, `/append` growth and memory-tier hits all share buffers
//! with the previous output, so on the append-only pattern the byte
//! compare touches only packets rendered or loaded from the disk tier
//! afresh.

use std::io::{self, Read, Write};
use v2v_container::VideoStream;
use v2v_core::ErrorKind;

/// Content type of the `/subscribe` response body.
pub const DELTA_CONTENT_TYPE: &str = "application/x-v2v-delta";

/// Framing header of one delta record.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DeltaHeader {
    /// Position of this record in the subscription (0-based).
    pub seq: u64,
    /// Output frame index the delta splices in at: the client truncates
    /// its cumulative stream to this many frames, then appends.
    pub from_frame: u64,
    /// Frames in the delta container.
    pub frames: u64,
    /// Byte length of the sealed `.svc` container that follows.
    pub svc_len: u64,
    /// The server's catalog version this delta was rendered against.
    pub version: u64,
}

/// Why a subscription's server ended it: the content of its failure
/// record. [`read_delta`] returns it as the inner error of an
/// [`io::Error`] (`io::Error::get_ref` and `downcast_ref` recover it).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RefreshFailed {
    /// The failure's class, as a `/query` error body would name it.
    pub kind: ErrorKind,
    /// The server's message.
    pub message: String,
}

impl std::fmt::Display for RefreshFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "subscription refresh failed: {}", self.message)
    }
}

impl std::error::Error for RefreshFailed {}

/// The header of a failure record, as [`read_delta`] parses it.
#[derive(serde::Deserialize)]
struct FailureRecord {
    error: RefreshFailed,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes one delta record.
pub fn write_delta(w: &mut impl Write, header: &DeltaHeader, svc: &[u8]) -> io::Result<()> {
    debug_assert_eq!(header.svc_len as usize, svc.len());
    write_record(w, header, svc)
}

/// Writes the failure record that ends a subscription.
pub fn write_failure(w: &mut impl Write, failure: &RefreshFailed) -> io::Result<()> {
    write_record(w, &serde_json::json!({ "error": failure }), &[])
}

/// Frames one record: the header JSON's length, the JSON, then `body`.
fn write_record(w: &mut impl Write, header: &impl serde::Serialize, body: &[u8]) -> io::Result<()> {
    let json = serde_json::to_vec(header).map_err(|e| bad(format!("record header: {e}")))?;
    let len = u32::try_from(json.len()).map_err(|_| bad("record header too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&json)?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one delta record. `Ok(None)` means the stream ended cleanly at
/// a record boundary (the server closed the subscription); an EOF
/// *inside* a record is an error, and so is a failure record, whose
/// [`RefreshFailed`] is the returned error's inner error.
pub fn read_delta(r: &mut impl Read) -> io::Result<Option<(DeltaHeader, Vec<u8>)>> {
    let mut len = [0u8; 4];
    match r.read(&mut len)? {
        0 => return Ok(None),
        n => r.read_exact(len.get_mut(n..).unwrap_or_default())?,
    }
    let len = u32::from_le_bytes(len) as usize;
    // A spec-sized bound: headers are a few hundred bytes of JSON.
    if len > 1 << 20 {
        return Err(bad(format!("delta header length {len} implausible")));
    }
    let mut json = vec![0u8; len];
    r.read_exact(&mut json)?;
    let header: DeltaHeader = match serde_json::from_slice(&json) {
        Ok(h) => h,
        Err(e) => {
            return Err(match serde_json::from_slice::<FailureRecord>(&json) {
                Ok(record) => io::Error::other(record.error),
                Err(_) => bad(format!("delta header: {e}")),
            })
        }
    };
    // `svc_len` is the peer's claim, and a first delta is a whole result
    // with no natural bound: read it without allocating the claim.
    let svc = crate::http::read_claimed(r, header.svc_len, "connection closed mid-delta")?;
    Ok(Some((header, svc)))
}

/// Computes the delta record content between consecutive cumulative
/// outputs: the packet suffix of `next` from the output keyframe
/// at-or-before the first packet that differs from `prev`.
///
/// Returns `None` when `next` equals `prev` (nothing to push). The
/// returned stream is stamped at its absolute output instants.
pub fn delta_between(
    prev: Option<&VideoStream>,
    next: &VideoStream,
) -> Option<(usize, VideoStream)> {
    let common = match prev {
        None => 0,
        Some(p) => {
            let k = p
                .packets()
                .iter()
                .zip(next.packets())
                .take_while(|(a, b)| a.keyframe == b.keyframe && same_payload(&a.data, &b.data))
                .count();
            if k == next.len() && k == p.len() {
                return None; // identical outputs
            }
            k
        }
    };
    // Splice points must be keyframes: back up from the divergence.
    let from = if next.is_empty() {
        0
    } else {
        next.keyframe_at_or_before(common.min(next.len() - 1))
            .unwrap_or(0)
    };
    let new_start = next.start() + next.frame_dur() * v2v_time::Rational::from_int(from as i64);
    let packets = next.copy_packet_range(from, next.len(), new_start).ok()?;
    let delta = VideoStream::new(*next.params(), new_start, next.frame_dur(), packets).ok()?;
    Some((from, delta))
}

/// Whether two packet payloads hold the same bytes, by identity first.
///
/// Payloads over the same buffer (equal `as_ptr()` and `len()`) are
/// equal without reading a byte; only pairs on different buffers are
/// byte-compared. The identity answer is exact:
///
/// - a payload is a `Bytes`, an immutable `Arc<[u8]>`, so a buffer's
///   bytes never change once built;
/// - both outputs are borrowed for the whole walk (the subscription's
///   `cumulative` keeps every old buffer alive while the new output is
///   compared with it), so no buffer is freed mid-walk and its address
///   reused by different bytes. Two live non-empty buffers never share
///   an address, and two empty ones are equal anyway.
fn same_payload(a: &[u8], b: &[u8]) -> bool {
    if a.as_ptr() == b.as_ptr() && a.len() == b.len() {
        return true;
    }
    #[cfg(test)]
    if a.len() == b.len() {
        tests::BYTES_COMPARED.with(|c| c.set(c.get() + a.len()));
    }
    a == b
}

/// Client-side reassembly: applies delta records in order and maintains
/// the cumulative output stream.
#[derive(Default)]
pub struct DeltaApplier {
    cumulative: Option<VideoStream>,
}

impl DeltaApplier {
    /// An applier with no frames yet.
    pub fn new() -> DeltaApplier {
        DeltaApplier::default()
    }

    /// The cumulative output after every delta applied so far.
    pub fn cumulative(&self) -> Option<&VideoStream> {
        self.cumulative.as_ref()
    }

    /// Applies one record: truncates the cumulative stream to
    /// `from_frame` packets and appends the delta's. Fails if the delta
    /// does not land on the cumulative grid.
    pub fn apply(&mut self, header: &DeltaHeader, svc: &[u8]) -> io::Result<&VideoStream> {
        let delta =
            v2v_container::svc_from_bytes(svc).map_err(|e| bad(format!("delta container: {e}")))?;
        if delta.len() as u64 != header.frames {
            return Err(bad(format!(
                "delta frame count {} != header {}",
                delta.len(),
                header.frames
            )));
        }
        let from = header.from_frame as usize;
        let next = match (&self.cumulative, from) {
            (_, 0) => delta,
            (None, _) => return Err(bad("first delta must start at frame 0")),
            (Some(cum), _) => {
                let held = cum.packets().get(..from).ok_or_else(|| {
                    bad(format!(
                        "delta splices at {from} but only {} frames held",
                        cum.len()
                    ))
                })?;
                let expect =
                    cum.start() + cum.frame_dur() * v2v_time::Rational::from_int(from as i64);
                if *delta.params() != *cum.params()
                    || delta.frame_dur() != cum.frame_dur()
                    || delta.start() != expect
                {
                    return Err(bad("delta does not land on the cumulative grid"));
                }
                let mut packets = held.to_vec();
                packets.extend_from_slice(delta.packets());
                VideoStream::new(*cum.params(), cum.start(), cum.frame_dur(), packets)
                    .map_err(|e| bad(format!("splicing delta: {e}")))?
            }
        };
        Ok(self.cumulative.insert(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::{CodecParams, Packet};
    use v2v_container::StreamWriter;
    use v2v_frame::{marker, Frame, FrameType};
    use v2v_time::{r, Rational};

    thread_local! {
        /// Payload bytes [`same_payload`] handed to the byte compare on
        /// this thread (each test runs on its own): how the tests see
        /// which pairs the identity check settled.
        pub(super) static BYTES_COMPARED: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn bytes_compared() -> usize {
        BYTES_COMPARED.with(std::cell::Cell::get)
    }

    /// The byte-compare diff `delta_between` replaced: every packet
    /// pair's payload is compared byte by byte. The oracle for the
    /// identity rule.
    fn delta_between_by_bytes(
        prev: Option<&VideoStream>,
        next: &VideoStream,
    ) -> Option<(usize, VideoStream)> {
        let common = match prev {
            None => 0,
            Some(p) => {
                let k = p
                    .packets()
                    .iter()
                    .zip(next.packets())
                    .take_while(|(a, b)| a.keyframe == b.keyframe && a.data == b.data)
                    .count();
                if k == next.len() && k == p.len() {
                    return None;
                }
                k
            }
        };
        let from = if next.is_empty() {
            0
        } else {
            next.keyframe_at_or_before(common.min(next.len() - 1))
                .unwrap_or(0)
        };
        let new_start = next.start() + next.frame_dur() * Rational::from_int(from as i64);
        let packets = next.copy_packet_range(from, next.len(), new_start).ok()?;
        let delta = VideoStream::new(*next.params(), new_start, next.frame_dur(), packets).ok()?;
        Some((from, delta))
    }

    fn on_grid(like: &VideoStream, packets: Vec<Packet>) -> VideoStream {
        VideoStream::new(*like.params(), like.start(), like.frame_dur(), packets).unwrap()
    }

    /// `next` built from `prev` one position at a time, by `ops`: share
    /// the packet, copy its payload into a fresh buffer, change its
    /// payload, alias its neighbour's buffer, or flip its keyframe flag.
    /// Positions past `prev`'s end get fresh packets, so `ops` longer
    /// than `prev` grows the tail and shorter truncates it.
    fn derive(prev: &VideoStream, ops: &[(u8, u8, u8, usize)]) -> VideoStream {
        let old = prev.packets();
        let packets = ops
            .iter()
            .enumerate()
            .map(|(i, &(op, mark, byte, len))| {
                let pts = prev.start() + prev.frame_dur() * Rational::from_int(i as i64);
                let Some(p) = old.get(i) else {
                    return Packet::new(pts, i == 0 || mark == 0, vec![byte; len].into());
                };
                let mut q = p.clone();
                match op {
                    0 | 1 => {}
                    2 => q.data = p.data.to_vec().into(),
                    3 => {
                        let mut data = p.data.to_vec();
                        match data.first_mut() {
                            Some(b) => *b ^= byte | 1,
                            None => data.push(byte),
                        }
                        q.data = data.into();
                    }
                    4 => q.data = old[(i + 1) % old.len()].data.clone(),
                    _ => q.keyframe = i == 0 || !p.keyframe,
                }
                q
            })
            .collect();
        on_grid(prev, packets)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn the_identity_rule_diffs_like_the_byte_compare(
            head in proptest::collection::vec((0u8..4, 0u8..=255, 0usize..6), 0..32),
            ops in proptest::collection::vec((0u8..6, 0u8..4, 0u8..=255, 0usize..6), 0..40),
        ) {
            let params = CodecParams::new(FrameType::gray8(8, 8), 4, 0);
            let packets = head
                .iter()
                .enumerate()
                .map(|(i, &(mark, byte, len))| {
                    Packet::new(r(i as i64, 30), i == 0 || mark == 0, vec![byte; len].into())
                })
                .collect();
            let prev = VideoStream::new(params, Rational::ZERO, r(1, 30), packets).unwrap();
            let next = derive(&prev, &ops);
            let got = delta_between(Some(&prev), &next);
            let want = delta_between_by_bytes(Some(&prev), &next);
            proptest::prop_assert_eq!(
                got.as_ref().map(|(from, d)| (*from, d.start(), d.packets())),
                want.as_ref().map(|(from, d)| (*from, d.start(), d.packets()))
            );
            let first = delta_between(None, &next).map(|(from, d)| (from, d.packets().to_vec()));
            let first_want =
                delta_between_by_bytes(None, &next).map(|(from, d)| (from, d.packets().to_vec()));
            proptest::prop_assert_eq!(first, first_want);
        }
    }

    #[test]
    fn outputs_sharing_every_buffer_compare_no_bytes() {
        // The append pattern: `next` clones `prev`'s packets and grows.
        let full = marked(16, 4, 0);
        let prev = on_grid(&full, full.packets()[..12].to_vec());
        let before = bytes_compared();
        let (from, delta) = delta_between(Some(&prev), &full).expect("growth delta");
        assert_eq!((from, delta.len()), (12, 4));
        assert_eq!(bytes_compared() - before, 0);
        assert!(delta_between(Some(&full), &full).is_none());
        assert_eq!(bytes_compared() - before, 0);
    }

    #[test]
    fn fresh_equal_buffers_compare_exactly_their_bytes() {
        // The disk-tier pattern: equal bytes in new buffers.
        let full = marked(16, 4, 0);
        let copied: Vec<Packet> = full
            .packets()
            .iter()
            .map(|p| Packet::new(p.pts, p.keyframe, p.data.to_vec().into()))
            .collect();
        let fresh = on_grid(&full, copied);
        let before = bytes_compared();
        assert!(delta_between(Some(&full), &fresh).is_none());
        let payload: usize = full.packets().iter().map(|p| p.data.len()).sum();
        assert_eq!(bytes_compared() - before, payload);
    }

    fn marked(n: usize, gop: u32, seed: u32) -> VideoStream {
        let ty = FrameType::gray8(64, 32);
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            marker::embed(&mut f, seed + i as u32);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn delta_framing_round_trips() {
        let svc = v2v_container::svc_to_bytes(&marked(8, 4, 0)).unwrap();
        let header = DeltaHeader {
            seq: 3,
            from_frame: 4,
            frames: 8,
            svc_len: svc.len() as u64,
            version: 9,
        };
        let mut wire = Vec::new();
        write_delta(&mut wire, &header, &svc).unwrap();
        let mut cursor = std::io::Cursor::new(&wire);
        let (h, body) = read_delta(&mut cursor).unwrap().expect("one record");
        assert_eq!((h.seq, h.from_frame, h.frames, h.version), (3, 4, 8, 9));
        assert_eq!(body, svc);
        assert!(read_delta(&mut cursor).unwrap().is_none(), "clean EOF");
        // A record cut mid-body is an error, not a silent None.
        let mut cut = std::io::Cursor::new(&wire[..wire.len() - 3]);
        assert!(read_delta(&mut cut).is_err());
    }

    /// A failure record reads back as an error carrying its kind and
    /// message, after the deltas before it.
    #[test]
    fn a_failure_record_reads_as_an_error_with_its_kind() {
        let svc = v2v_container::svc_to_bytes(&marked(4, 4, 0)).unwrap();
        let header = DeltaHeader {
            seq: 0,
            from_frame: 0,
            frames: 4,
            svc_len: svc.len() as u64,
            version: 1,
        };
        let failure = RefreshFailed {
            kind: ErrorKind::Io,
            message: "injected i/o failure".into(),
        };
        let mut wire = Vec::new();
        write_delta(&mut wire, &header, &svc).unwrap();
        write_failure(&mut wire, &failure).unwrap();
        let mut cursor = std::io::Cursor::new(&wire);
        assert!(read_delta(&mut cursor).unwrap().is_some());
        let err = read_delta(&mut cursor).unwrap_err();
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<RefreshFailed>());
        assert_eq!(inner, Some(&failure));
        assert_eq!(cursor.position() as usize, wire.len());
    }

    /// Regression: the body buffer used to be `vec![0; svc_len]` straight
    /// off the wire, so a hostile length aborted on capacity overflow.
    #[test]
    fn a_delta_claiming_more_than_arrives_is_an_error_not_an_allocation() {
        let header = DeltaHeader {
            seq: 0,
            from_frame: 0,
            frames: 1,
            svc_len: u64::MAX,
            version: 1,
        };
        let json = serde_json::to_vec(&header).unwrap();
        let mut wire = (json.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&json);
        wire.extend_from_slice(&[0u8; 10]);
        let err = read_delta(&mut std::io::Cursor::new(&wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn delta_and_applier_reproduce_the_full_stream() {
        // Grow a stream 8 → 16 frames; the delta between cumulative
        // outputs starts at the keyframe covering the divergence and
        // applying it reproduces the full 16-frame output exactly.
        let full = marked(16, 4, 0);
        let first = VideoStream::new(*full.params(), full.start(), full.frame_dur(), {
            full.copy_packet_range(0, 8, full.start()).unwrap()
        })
        .unwrap();

        let mut applier = DeltaApplier::new();
        let (from0, d0) = delta_between(None, &first).expect("first delta");
        assert_eq!(from0, 0);
        let svc0 = v2v_container::svc_to_bytes(&d0).unwrap();
        let h0 = DeltaHeader {
            seq: 0,
            from_frame: 0,
            frames: d0.len() as u64,
            svc_len: svc0.len() as u64,
            version: 1,
        };
        applier.apply(&h0, &svc0).unwrap();

        let (from1, d1) = delta_between(Some(&first), &full).expect("growth delta");
        assert_eq!(from1, 8, "divergence at a keyframe needs no backup");
        let svc1 = v2v_container::svc_to_bytes(&d1).unwrap();
        let h1 = DeltaHeader {
            seq: 1,
            from_frame: from1 as u64,
            frames: d1.len() as u64,
            svc_len: svc1.len() as u64,
            version: 2,
        };
        let cum = applier.apply(&h1, &svc1).unwrap();
        assert_eq!(cum.content_digest(), full.content_digest());

        // No growth → no delta.
        assert!(delta_between(Some(&full), &full).is_none());
    }

    #[test]
    fn delta_backs_up_to_a_keyframe_when_the_tail_is_rewritten() {
        // Divergence mid-GOP: frames 0..10 shared, but 10 is not a
        // keyframe — the delta must restart from frame 8.
        let a = marked(12, 4, 0);
        let mut packets = a.packets()[..10].to_vec();
        let b_tail = marked(16, 4, 500);
        for (i, p) in b_tail.packets()[8..].iter().enumerate() {
            let k = 10 + i;
            if k >= 16 {
                break;
            }
            // Restamp foreign packets onto a's grid to fake a rewrite.
            let pts = a.start() + a.frame_dur() * Rational::from_int(k as i64);
            let mut q = p.clone();
            q.pts = pts;
            q.keyframe = k % 4 == 0;
            packets.push(q);
        }
        let b = VideoStream::new(*a.params(), a.start(), a.frame_dur(), packets).unwrap();
        let (from, delta) = delta_between(Some(&a), &b).expect("delta");
        assert_eq!(from, 8, "backs up from divergence at 10 to keyframe 8");
        let mut applier = DeltaApplier::new();
        let svc_a = v2v_container::svc_to_bytes(&a).unwrap();
        applier
            .apply(
                &DeltaHeader {
                    seq: 0,
                    from_frame: 0,
                    frames: a.len() as u64,
                    svc_len: svc_a.len() as u64,
                    version: 1,
                },
                &svc_a,
            )
            .unwrap();
        let svc_d = v2v_container::svc_to_bytes(&delta).unwrap();
        let cum = applier
            .apply(
                &DeltaHeader {
                    seq: 1,
                    from_frame: from as u64,
                    frames: delta.len() as u64,
                    svc_len: svc_d.len() as u64,
                    version: 2,
                },
                &svc_d,
            )
            .unwrap();
        assert_eq!(cum.content_digest(), b.content_digest());
    }
}
