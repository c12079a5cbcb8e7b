//! The sealed `.svc` container format.
//!
//! ```text
//! magic   4 bytes   "SVC1"
//! hdr_len u32 LE    JSON header byte length
//! header  JSON      {params, start, frame_dur, count}
//! packets           packet table of `count` entries
//! ```
//!
//! Timestamps are implied by the grid, so the packet table stores only
//! lengths and keyframe flags — the keyframe index is rebuilt on load.
//! Bytes after the table are ignored. The prelude and the packet table
//! are the ones every format shares (`codec.rs`, DESIGN.md §17).

use crate::codec;
use crate::stream::VideoStream;
use crate::ContainerError;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::Path;
use v2v_codec::CodecParams;
use v2v_time::Rational;

const MAGIC: &[u8; 4] = b"SVC1";

#[derive(Serialize, Deserialize)]
struct Header {
    params: CodecParams,
    start: Rational,
    frame_dur: Rational,
    count: u64,
}

/// Writes a stream to `path` in `.svc` format.
pub fn write_svc(stream: &VideoStream, path: impl AsRef<Path>) -> Result<(), ContainerError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_svc_to(stream, &mut f)?;
    f.flush()?;
    Ok(())
}

/// Serializes a stream to `.svc` bytes in memory — the serving daemon's
/// response body is exactly an `.svc` file.
pub fn svc_to_bytes(stream: &VideoStream) -> Result<Vec<u8>, ContainerError> {
    let mut out = Vec::with_capacity(stream.byte_size() as usize + stream.len() * 4 + 256);
    write_svc_to(stream, &mut out)?;
    Ok(out)
}

fn write_svc_to(stream: &VideoStream, f: &mut impl Write) -> Result<(), ContainerError> {
    let header = Header {
        params: *stream.params(),
        start: stream.start(),
        frame_dur: stream.frame_dur(),
        count: stream.len() as u64,
    };
    codec::write_prelude(f, MAGIC, &header)?;
    codec::write_table(f, stream.packets())
}

/// Reads a stream from an `.svc` file, sealed or live.
///
/// Every size in the file (header length, packet count, packet lengths)
/// is untrusted: each is validated against the file's actual size before
/// any allocation, so a hostile header can neither OOM the process nor
/// panic the parser — it gets [`ContainerError::BadFile`].
pub fn read_svc(path: impl AsRef<Path>) -> Result<VideoStream, ContainerError> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    read_svc_from(std::io::BufReader::new(file), file_len)
}

/// Parses `.svc` bytes from memory with the same hostile-input
/// validation as [`read_svc`] — how a serving client interprets a
/// response body.
pub fn svc_from_bytes(bytes: &[u8]) -> Result<VideoStream, ContainerError> {
    read_svc_from(bytes, bytes.len() as u64)
}

fn read_svc_from(f: impl Read, file_len: u64) -> Result<VideoStream, ContainerError> {
    let mut r = f.take(file_len);
    let magic = codec::read_array(&mut r, "magic")?;
    if &magic == crate::live::LIVE_MAGIC {
        // Live (append-aware) variant: yields the committed prefix.
        return crate::live::read_live_from(r).map(|(stream, _)| stream);
    }
    if &magic != MAGIC {
        return Err(codec::bad("bad magic"));
    }
    let h: Header = codec::read_header(&mut r)?;
    let mut packets = Vec::new();
    codec::read_table(&mut r, h.count, h.start, h.frame_dur, &mut packets)?;
    VideoStream::new(h.params, h.start, h.frame_dur, packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::StreamWriter;
    use v2v_frame::{Frame, FrameType};
    use v2v_time::{r, Rational};

    fn sample_stream() -> VideoStream {
        let ty = FrameType::yuv420p(32, 32);
        let params = CodecParams::new(ty, 3, 2);
        let mut w = StreamWriter::new(params, r(5, 1), r(1, 24));
        for i in 0..7 {
            let mut f = Frame::black(ty);
            for v in f.plane_mut(0).data_mut() {
                *v = (i * 30 % 256) as u8;
            }
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn file_round_trip() {
        let s = sample_stream();
        let dir = std::env::temp_dir().join("v2v_container_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.svc");
        write_svc(&s, &path).unwrap();
        let back = read_svc(&path).unwrap();
        assert_eq!(back.len(), s.len());
        assert_eq!(back.params(), s.params());
        assert_eq!(back.start(), s.start());
        assert_eq!(back.frame_dur(), s.frame_dur());
        for (a, b) in s.packets().iter().zip(back.packets()) {
            assert_eq!(a.pts, b.pts);
            assert_eq!(a.keyframe, b.keyframe);
            assert_eq!(a.data, b.data);
        }
        // Decodes identically.
        let (fa, _) = s.decode_range(0, s.len()).unwrap();
        let (fb, _) = back.decode_range(0, back.len()).unwrap();
        assert_eq!(fa, fb);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = std::env::temp_dir().join("v2v_container_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_magic.svc");
        std::fs::write(&path, b"NOPE....").unwrap();
        assert!(matches!(read_svc(&path), Err(ContainerError::BadFile(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_rejected() {
        let s = sample_stream();
        let dir = std::env::temp_dir().join("v2v_container_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.svc");
        write_svc(&s, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_svc(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// Writes a hand-built `.svc` with the given header and raw packet
    /// body, returning its path.
    fn hostile_file(header: &Header, body: &[u8], name: &str) -> std::path::PathBuf {
        raw_header_file(&serde_json::to_vec(header).unwrap(), body, name)
    }

    /// [`hostile_file`] with the header's JSON given as bytes, so it can
    /// say what the typed `Header` cannot.
    fn raw_header_file(hdr: &[u8], body: &[u8], name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("v2v_container_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&(hdr.len() as u32).to_le_bytes());
        bytes.extend_from_slice(hdr);
        bytes.extend_from_slice(body);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn gray_header(count: u64) -> Header {
        Header {
            params: CodecParams::new(FrameType::gray8(16, 16), 4, 0),
            start: Rational::ZERO,
            frame_dur: r(1, 30),
            count,
        }
    }

    #[test]
    fn hostile_count_rejected_without_allocation() {
        // Regression: `read_svc` used to `Vec::with_capacity(header.count)`
        // straight from the untrusted header.
        let path = hostile_file(&gray_header(u64::MAX), &[], "hostile_count.svc");
        assert!(matches!(read_svc(&path), Err(ContainerError::BadFile(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hostile_packet_length_rejected() {
        // One packet whose tag claims a ~1 GiB payload backed by 3 bytes.
        let tag: u32 = 1 << 31;
        let mut body = tag.to_le_bytes().to_vec();
        body.extend_from_slice(&[1, 2, 3]);
        let path = hostile_file(&gray_header(1), &body, "hostile_len.svc");
        assert!(matches!(read_svc(&path), Err(ContainerError::BadFile(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hostile_params_rejected() {
        // gop_size 0 (divide-by-zero vector), absurd dimensions (OOM
        // vector), and non-positive frame duration all arrive through
        // serde, bypassing the CodecParams constructor assertion.
        let mut zero_gop = gray_header(0);
        zero_gop.params.gop_size = 0;
        let mut giant = gray_header(0);
        giant.params.frame_ty.width = u32::MAX;
        let mut frozen = gray_header(0);
        frozen.frame_dur = Rational::ZERO;
        let mut backwards = gray_header(0);
        backwards.frame_dur = r(-1, 30);
        let json = |h: &Header| serde_json::to_string(h).unwrap();
        // The codec has one preset: a header naming another must fail
        // closed.
        let medium = json(&gray_header(0)).replace("\"ultrafast\"", "\"medium\"");
        let headers = [
            json(&zero_gop),
            json(&giant),
            json(&frozen),
            json(&backwards),
            medium,
        ];
        for (i, h) in headers.iter().enumerate() {
            let path = raw_header_file(h.as_bytes(), &[], &format!("hostile_params_{i}.svc"));
            assert!(
                matches!(read_svc(&path), Err(ContainerError::BadFile(_))),
                "hostile header {i} must be rejected"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn truncation_is_bad_file_not_io() {
        // Short reads inside the packet table are a file-format problem:
        // they must classify as BadFile, not surface as a raw I/O error.
        let s = sample_stream();
        let dir = std::env::temp_dir().join("v2v_container_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc_classified.svc");
        write_svc(&s, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 1, bytes.len() - 5, bytes.len() / 2] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(read_svc(&path), Err(ContainerError::BadFile(_))),
                "cut at {cut} must be BadFile"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_stream_round_trips() {
        let ty = FrameType::gray8(16, 16);
        let params = CodecParams::new(ty, 4, 0);
        let w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        let s = w.finish().unwrap();
        let dir = std::env::temp_dir().join("v2v_container_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.svc");
        write_svc(&s, &path).unwrap();
        let back = read_svc(&path).unwrap();
        assert!(back.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
