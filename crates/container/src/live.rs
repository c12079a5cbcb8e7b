//! The live (append-aware) `.svc` variant.
//!
//! A sealed `.svc` trusts its header `count`, so a file being appended
//! to is unreadable until the writer finishes. The live format instead
//! carries its packets in self-delimiting, checksummed batches so a
//! reader can always recover the longest committed prefix — even while
//! a writer is mid-append or after a crash truncated the tail.
//!
//! ```text
//! magic    4 bytes   "SVCL"
//! hdr_len  u32 LE    JSON header byte length
//! header   JSON      {params, start, frame_dur}
//! batch*   :=
//!   frames   u32 LE  packets in this batch
//!   body_len u32 LE  byte length of the body
//!   body     packet table of exactly `frames` entries
//!   commit   u64 LE  FNV-1a over (frames LE ‖ body)
//! ```
//!
//! The commit word doubles as the per-GOP footer: a batch is visible
//! only once its checksum is fully on disk. [`read_svc`] and
//! [`svc_from_bytes`](crate::svc_from_bytes) detect the magic and stop
//! at the first batch that is short, claims more packets than its body
//! can hold, or fails its commit, so a mid-append file yields the last
//! committed prefix, never a parse error. A batch that *passes* its
//! checksum but contains a malformed packet table was corrupted (or
//! forged) after commit, which is a [`BadFile`] like any hostile sealed
//! container. [`LiveWriter::open`] truncates exactly where that same
//! read stops.
//!
//! Every batch starts at a keyframe (enforced by [`LiveWriter`]), so
//! committed prefixes are whole GOP ranges and line up with
//! [`VideoStream::digest_index`] boundaries — appending a batch leaves
//! every earlier prefix digest unchanged. The prelude and the packet
//! table are the ones every format shares (`codec.rs`, DESIGN.md §17).
//!
//! [`read_svc`]: crate::read_svc
//! [`BadFile`]: ContainerError::BadFile

use crate::codec;
use crate::digest::Fnv64;
use crate::stream::VideoStream;
use crate::ContainerError;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Take, Write};
use std::path::Path;
use v2v_codec::{CodecParams, Packet};
use v2v_time::Rational;

/// Magic of the live (append-aware) variant.
pub(crate) const LIVE_MAGIC: &[u8; 4] = b"SVCL";

#[derive(Serialize, Deserialize)]
struct LiveHeader {
    params: CodecParams,
    start: Rational,
    frame_dur: Rational,
}

fn batch_checksum(frames: u32, body: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(&frames.to_le_bytes());
    h.write(body);
    h.finish()
}

/// Parses a live file whose 4-byte magic `r` has just consumed (its
/// limit is the rest of the file), returning the committed packets and
/// the byte offset where the committed data ends.
///
/// Truncation mid-batch stops cleanly at the previous commit; structural
/// damage *inside* a committed batch is a [`ContainerError::BadFile`].
pub(crate) fn read_live_from(mut r: Take<impl Read>) -> Result<(VideoStream, u64), ContainerError> {
    let file_len = r.limit() + 4;
    let h: LiveHeader = codec::read_header(&mut r)?;
    let mut packets = Vec::new();
    let mut end = file_len - r.limit();
    // A batch header and commit word take 16 bytes: less is a torn tail.
    while r.limit() >= 16 {
        let frames = u32::from_le_bytes(codec::read_array(&mut r, "batch frames")?);
        let body_len = u32::from_le_bytes(codec::read_array(&mut r, "batch length")?);
        if u64::from(body_len) + 8 > r.limit() || frames > body_len / 4 {
            break;
        }
        let mut body = vec![0u8; body_len as usize];
        codec::read_exact(&mut r, &mut body, "batch body")?;
        let commit = u64::from_le_bytes(codec::read_array(&mut r, "commit word")?);
        if commit != batch_checksum(frames, &body) {
            break;
        }
        // Committed: the packet table must now parse exactly.
        let mut table = Read::take(body.as_slice(), body.len() as u64);
        codec::read_table(
            &mut table,
            frames.into(),
            h.start,
            h.frame_dur,
            &mut packets,
        )?;
        if table.limit() > 0 {
            return Err(codec::bad("committed batch has trailing garbage"));
        }
        end = file_len - r.limit();
    }
    let stream = VideoStream::new(h.params, h.start, h.frame_dur, packets)?;
    Ok((stream, end))
}

/// Reads a live file through `file`: the committed prefix and where it
/// ends.
fn read_live(file: &File) -> Result<(VideoStream, u64), ContainerError> {
    let mut r = std::io::BufReader::new(file).take(file.metadata()?.len());
    if codec::read_array(&mut r, "magic")? != *LIVE_MAGIC {
        return Err(codec::bad("not a live .svc"));
    }
    read_live_from(r)
}

/// An appender for the live `.svc` format.
///
/// Each [`append_stream`](LiveWriter::append_stream) writes one checksummed batch and
/// syncs it to disk; readers observe whole batches or nothing. Opening
/// an existing file recovers the committed prefix and truncates any
/// crashed half-written tail before new appends land.
pub struct LiveWriter {
    file: File,
    params: CodecParams,
    start: Rational,
    frame_dur: Rational,
    committed: u64,
}

impl LiveWriter {
    /// Creates a new live container at `path` (truncating any existing
    /// file) and commits the header.
    pub fn create(
        path: impl AsRef<Path>,
        params: CodecParams,
        start: Rational,
        frame_dur: Rational,
    ) -> Result<LiveWriter, ContainerError> {
        // The grid check every stream gets (a positive frame duration).
        VideoStream::new(params, start, frame_dur, Vec::new())?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let header = LiveHeader {
            params,
            start,
            frame_dur,
        };
        codec::write_prelude(&mut file, LIVE_MAGIC, &header)?;
        file.sync_data()?;
        Ok(LiveWriter {
            file,
            params,
            start,
            frame_dur,
            committed: 0,
        })
    }

    /// Opens an existing live container for appending, recovering the
    /// committed prefix and truncating the file where that read stopped.
    pub fn open(path: impl AsRef<Path>) -> Result<LiveWriter, ContainerError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let (prefix, end) = read_live(&file)?;
        file.set_len(end)?;
        file.seek(SeekFrom::End(0))?;
        Ok(LiveWriter {
            file,
            params: *prefix.params(),
            start: prefix.start(),
            frame_dur: prefix.frame_dur(),
            committed: prefix.len() as u64,
        })
    }

    /// Frames committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The grid instant the next appended packet must land on.
    pub fn next_pts(&self) -> Rational {
        self.start + self.frame_dur * Rational::from_int(self.committed as i64)
    }

    /// Appends a stream's packets as one committed batch, re-stamped to
    /// continue this container's grid.
    ///
    /// The stream must be codec-compatible, share the frame duration,
    /// and (by `VideoStream` invariant) start at a keyframe; empty
    /// streams commit nothing and succeed.
    pub fn append_stream(&mut self, s: &VideoStream) -> Result<(), ContainerError> {
        if !s.params().compatible_with(&self.params) || s.frame_dur() != self.frame_dur {
            return Err(ContainerError::Incompatible);
        }
        if s.is_empty() {
            return Ok(());
        }
        let packets = s.copy_packet_range(0, s.len(), self.next_pts())?;
        self.append_packets(&packets)
    }

    /// Appends pre-stamped packets as one committed batch: the splice
    /// invariants of a stream starting at [`next_pts`](Self::next_pts)
    /// ([`VideoStream::new`]).
    pub fn append_packets(&mut self, packets: &[Packet]) -> Result<(), ContainerError> {
        if packets.is_empty() {
            return Ok(());
        }
        let next = self.next_pts();
        VideoStream::new(self.params, next, self.frame_dur, packets.to_vec())?;
        let mut body = Vec::with_capacity(packets.iter().map(|p| 4 + p.size()).sum());
        codec::write_table(&mut body, packets)?;
        let frames = u32::try_from(packets.len()).map_err(|_| codec::bad("batch too long"))?;
        let body_len = u32::try_from(body.len()).map_err(|_| codec::bad("batch too large"))?;
        self.file.write_all(&frames.to_le_bytes())?;
        self.file.write_all(&body_len.to_le_bytes())?;
        self.file.write_all(&body)?;
        self.file
            .write_all(&batch_checksum(frames, &body).to_le_bytes())?;
        self.file.sync_data()?;
        self.committed += packets.len() as u64;
        Ok(())
    }
}

/// Reads the committed prefix of a live `.svc` file.
///
/// Equivalent to [`read_svc`](crate::read_svc) (which dispatches on the
/// magic) but rejects sealed containers, for callers that require the
/// appendable variant.
pub fn read_svc_live(path: impl AsRef<Path>) -> Result<VideoStream, ContainerError> {
    read_live(&File::open(path)?).map(|(stream, _)| stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_svc;
    use crate::writer::StreamWriter;
    use v2v_frame::{Frame, FrameType};
    use v2v_time::r;

    fn gop_stream(n: usize, gop: u32, seed: usize) -> VideoStream {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            for v in f.plane_mut(0).data_mut() {
                *v = ((seed + i) * 10 % 256) as u8;
            }
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("v2v_live_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_read_round_trip() {
        let a = gop_stream(8, 4, 0);
        let b = gop_stream(4, 4, 8);
        let path = tmp("round_trip.svcl");
        let mut w =
            LiveWriter::create(path.clone(), *a.params(), a.start(), a.frame_dur()).unwrap();
        w.append_stream(&a).unwrap();
        assert_eq!(w.committed(), 8);
        w.append_stream(&b).unwrap();
        assert_eq!(w.committed(), 12);
        // The generic reader dispatches on the magic.
        let back = read_svc(&path).unwrap();
        assert_eq!(back.len(), 12);
        let expect = VideoStream::concat(&[&a, &b]).unwrap();
        assert_eq!(back.content_digest(), expect.content_digest());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_yields_committed_prefix() {
        let a = gop_stream(8, 4, 0);
        let b = gop_stream(4, 4, 8);
        let path = tmp("trunc_tail.svcl");
        let mut w =
            LiveWriter::create(path.clone(), *a.params(), a.start(), a.frame_dur()).unwrap();
        w.append_stream(&a).unwrap();
        let committed_len = std::fs::metadata(&path).unwrap().len();
        w.append_stream(&b).unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Every cut inside the second batch must yield exactly the first.
        for cut in (committed_len as usize + 1)..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let got = read_svc(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(got.len(), 8, "cut {cut} must keep the committed prefix");
            assert_eq!(got.content_digest(), a.content_digest());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_recovers_and_truncates_crashed_tail() {
        let a = gop_stream(8, 4, 0);
        let b = gop_stream(4, 4, 8);
        let path = tmp("recover.svcl");
        let mut w =
            LiveWriter::create(path.clone(), *a.params(), a.start(), a.frame_dur()).unwrap();
        w.append_stream(&a).unwrap();
        drop(w);
        // Simulate a crash: half a batch of garbage on the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[7u8; 13]);
        std::fs::write(&path, &bytes).unwrap();

        let mut w = LiveWriter::open(&path).unwrap();
        assert_eq!(w.committed(), 8);
        w.append_stream(&b).unwrap();
        let back = read_svc(&path).unwrap();
        assert_eq!(back.len(), 12);
        let expect = VideoStream::concat(&[&a, &b]).unwrap();
        assert_eq!(back.content_digest(), expect.content_digest());
        std::fs::remove_file(&path).unwrap();
    }

    /// Regression: `open` used to find the committed end with a second
    /// scanner that, unlike the reader, accepted a checksummed batch
    /// claiming more packets than its body holds. It kept that batch,
    /// and every later append landed past where any reader stops: the
    /// writer reported 8 frames committed while `read_svc` saw 4.
    #[test]
    fn open_truncates_where_the_reader_stops() {
        let a = gop_stream(4, 4, 0);
        let b = gop_stream(4, 4, 4);
        let path = tmp("reader_stop.svcl");
        let mut w =
            LiveWriter::create(path.clone(), *a.params(), a.start(), a.frame_dur()).unwrap();
        w.append_stream(&a).unwrap();
        drop(w);
        // One frame in an empty body, under a valid commit word.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&batch_checksum(1, &[]).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let mut w = LiveWriter::open(&path).unwrap();
        assert_eq!(w.committed(), 4);
        w.append_stream(&b).unwrap();
        assert_eq!(w.committed(), 8);
        let back = read_svc(&path).unwrap();
        assert_eq!(back.len(), 8, "every committed append is readable");
        let expect = VideoStream::concat(&[&a, &b]).unwrap();
        assert_eq!(back.content_digest(), expect.content_digest());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_preserve_prefix_digests() {
        let a = gop_stream(8, 4, 0);
        let b = gop_stream(4, 4, 8);
        let path = tmp("prefix_digests.svcl");
        let mut w =
            LiveWriter::create(path.clone(), *a.params(), a.start(), a.frame_dur()).unwrap();
        w.append_stream(&a).unwrap();
        let before = read_svc(&path).unwrap().digest_index();
        w.append_stream(&b).unwrap();
        let after = read_svc(&path).unwrap().digest_index();
        assert!(after.len() > before.len());
        assert_eq!(
            &after[..before.len()],
            &before[..],
            "old GOP ranges keep their digests"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn incompatible_and_misaligned_appends_rejected() {
        let a = gop_stream(4, 4, 0);
        let path = tmp("reject.svcl");
        let mut w =
            LiveWriter::create(path.clone(), *a.params(), a.start(), a.frame_dur()).unwrap();
        w.append_stream(&a).unwrap();
        // Different quantizer: incompatible bitstream.
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 3);
        let mut sw = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        sw.push_frame(&Frame::black(ty)).unwrap();
        let other = sw.finish().unwrap();
        assert!(matches!(
            w.append_stream(&other),
            Err(ContainerError::Incompatible)
        ));
        // Mid-GOP packet slice: no keyframe head.
        let tail: Vec<Packet> = a.packets()[1..3].to_vec();
        assert!(matches!(
            w.append_packets(&tail),
            Err(ContainerError::SpliceNotKeyframe)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sealed_reader_still_rejects_unknown_magic() {
        let path = tmp("not_live.svc");
        std::fs::write(&path, b"SVC1....").unwrap();
        assert!(matches!(
            read_svc_live(&path),
            Err(ContainerError::BadFile(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
