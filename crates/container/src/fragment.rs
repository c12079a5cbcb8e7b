//! The `.svf` cached-fragment format and its `SVW1` wire frame.
//!
//! A fragment is a self-contained run of compressed packets produced by
//! rendering one plan segment (or a whole query result), persisted by
//! the render cache and spliced back into later outputs by stream copy.
//! Unlike a `.svc` file it carries no absolute start instant — packets
//! are stored on a zero-based grid (`k · frame_dur`) and re-stamped by
//! whoever splices them — and it *does* carry a payload checksum: a
//! corrupt cache entry must read back as [`ContainerError::BadFile`] so
//! the cache can evict it and re-render, never as a panic or silent
//! garbage in an output.
//!
//! ```text
//! magic   4 bytes   "SVF1"
//! hdr_len u32 LE    JSON header byte length
//! header  JSON      {params, frame_dur, count, payload_fnv}
//! packets           packet table of exactly `count` entries
//! ```
//!
//! `payload_fnv` is the FNV-1a digest of the entire packet table
//! (tags and payloads). It is verified before any packet is parsed.
//! The prelude and the packet table are the ones every format shares
//! (`codec.rs`, DESIGN.md §17).

use crate::codec;
use crate::digest::Fnv64;
use crate::stream::VideoStream;
use crate::ContainerError;
use serde::{Deserialize, Serialize};
use std::io::Read;
use v2v_codec::{CodecParams, Packet};
use v2v_time::Rational;

const MAGIC: &[u8; 4] = b"SVF1";

#[derive(Serialize, Deserialize)]
struct Header {
    params: CodecParams,
    frame_dur: Rational,
    count: u64,
    payload_fnv: u64,
}

/// A relocatable run of compressed packets: the unit the render cache
/// stores and splices.
///
/// Packets sit on the zero-based grid `k · frame_dur` and begin with a
/// keyframe, so the run can be spliced at any keyframe boundary of an
/// output stream via [`StreamWriter::push_copied`], which re-stamps the
/// timestamps onto the output grid.
///
/// [`StreamWriter::push_copied`]: crate::StreamWriter::push_copied
#[derive(Clone, Debug)]
pub struct Fragment {
    params: CodecParams,
    frame_dur: Rational,
    packets: Vec<Packet>,
}

impl Fragment {
    /// Assembles a fragment, validating the splice invariants of a
    /// stream starting at instant zero ([`VideoStream::new`]).
    pub fn new(
        params: CodecParams,
        frame_dur: Rational,
        packets: Vec<Packet>,
    ) -> Result<Fragment, ContainerError> {
        let packets = VideoStream::new(params, Rational::ZERO, frame_dur, packets)?.into_packets();
        Ok(Fragment {
            params,
            frame_dur,
            packets,
        })
    }

    /// Captures a stream's packets as a fragment, re-stamped onto the
    /// zero-based grid. Cost: O(packets) refcount bumps.
    pub fn from_stream(stream: &VideoStream) -> Fragment {
        let frame_dur = stream.frame_dur();
        let packets = stream
            .packets()
            .iter()
            .enumerate()
            .map(|(k, p)| p.retimed(frame_dur * Rational::from_int(k as i64)))
            .collect();
        Fragment {
            params: *stream.params(),
            frame_dur,
            packets,
        }
    }

    /// Rebuilds a stream starting at instant zero from this fragment.
    pub fn into_stream(self) -> Result<VideoStream, ContainerError> {
        VideoStream::new(self.params, Rational::ZERO, self.frame_dur, self.packets)
    }

    /// Codec parameters of the fragment's packets.
    pub fn params(&self) -> &CodecParams {
        &self.params
    }

    /// Frame duration of the fragment's grid.
    pub fn frame_dur(&self) -> Rational {
        self.frame_dur
    }

    /// The packets, keyframe-first on the zero-based grid.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` when the fragment holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total compressed payload size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.packets.iter().map(|p| p.size() as u64).sum()
    }
}

/// Serializes a fragment to `.svf` bytes.
pub fn fragment_to_bytes(frag: &Fragment) -> Result<Vec<u8>, ContainerError> {
    let mut table = Vec::with_capacity(frag.byte_size() as usize + frag.len() * 4);
    codec::write_table(&mut table, frag.packets())?;
    let mut fnv = Fnv64::new();
    fnv.write(&table);
    let header = Header {
        params: *frag.params(),
        frame_dur: frag.frame_dur(),
        count: frag.len() as u64,
        payload_fnv: fnv.finish(),
    };
    let mut out = Vec::with_capacity(512 + table.len());
    codec::write_prelude(&mut out, MAGIC, &header)?;
    out.extend_from_slice(&table);
    Ok(out)
}

/// Parses `.svf` bytes back into a fragment.
///
/// Every size is untrusted and validated against the actual byte count
/// before allocation, and the packet-table checksum is verified before
/// any packet is parsed: a flipped bit anywhere in the table yields
/// [`ContainerError::BadFile`], which the render cache treats as
/// "evict and re-render".
pub fn fragment_from_bytes(bytes: &[u8]) -> Result<Fragment, ContainerError> {
    let mut r = bytes.take(bytes.len() as u64);
    if codec::read_array(&mut r, "magic")? != *MAGIC {
        return Err(codec::bad("bad fragment magic"));
    }
    let h: Header = codec::read_header(&mut r)?;
    let mut fnv = Fnv64::new();
    fnv.write(r.get_ref());
    if fnv.finish() != h.payload_fnv {
        return Err(codec::bad("fragment payload checksum mismatch"));
    }
    let mut packets = Vec::new();
    codec::read_table(&mut r, h.count, Rational::ZERO, h.frame_dur, &mut packets)?;
    if r.limit() > 0 {
        return Err(codec::bad(format!(
            "{} trailing bytes after packet table",
            r.limit()
        )));
    }
    Fragment::new(h.params, h.frame_dur, packets)
}

/// Magic prefix of the cluster wire frame wrapping an `.svf` payload.
const WIRE_MAGIC: &[u8; 4] = b"SVW1";

/// Frames a fragment for exchange between cluster nodes: the wire magic,
/// the content key the receiver must expect, then the `.svf` bytes
/// (whose embedded checksum covers the packet table).
///
/// ```text
/// magic 4 bytes   "SVW1"
/// key   u64 LE    content-addressed fragment key
/// svf   ..        fragment_to_bytes output
/// ```
pub fn fragment_to_wire(key: u64, frag: &Fragment) -> Result<Vec<u8>, ContainerError> {
    let svf = fragment_to_bytes(frag)?;
    let mut out = Vec::with_capacity(12 + svf.len());
    out.extend_from_slice(WIRE_MAGIC);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&svf);
    Ok(out)
}

/// Parses a cluster wire frame, rejecting it unless the embedded key
/// matches `expect_key` and the `.svf` payload passes its checksum.
///
/// A receiver that asked for fragment `expect_key` must never splice
/// bytes claiming to be anything else: a mismatched key, a flipped bit
/// in the packet table, or any truncation reads back as
/// [`ContainerError::BadFile`], which the dispatcher treats as "drop
/// and re-render", never as output bytes.
pub fn fragment_from_wire(bytes: &[u8], expect_key: u64) -> Result<Fragment, ContainerError> {
    let mut svf = bytes;
    if codec::read_array(&mut svf, "wire magic")? != *WIRE_MAGIC {
        return Err(codec::bad("bad fragment wire magic"));
    }
    let key = u64::from_le_bytes(codec::read_array(&mut svf, "wire key")?);
    if key != expect_key {
        return Err(codec::bad(format!(
            "wire fragment key {key:016x} does not match expected {expect_key:016x}"
        )));
    }
    fragment_from_bytes(svf)
}

/// Writes a fragment to `path` in `.svf` format.
pub fn write_fragment(
    frag: &Fragment,
    path: impl AsRef<std::path::Path>,
) -> Result<(), ContainerError> {
    let bytes = fragment_to_bytes(frag)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Reads a fragment from an `.svf` file.
pub fn read_fragment(path: impl AsRef<std::path::Path>) -> Result<Fragment, ContainerError> {
    let bytes = std::fs::read(path)?;
    fragment_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::StreamWriter;
    use v2v_frame::{Frame, FrameType};
    use v2v_time::r;

    fn sample_stream(n: usize) -> VideoStream {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 0);
        let mut w = StreamWriter::new(params, r(7, 2), r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            f.plane_mut(0).put(i % 32, 0, 200);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn byte_round_trip() {
        let s = sample_stream(9);
        let frag = Fragment::from_stream(&s);
        let bytes = fragment_to_bytes(&frag).unwrap();
        let back = fragment_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 9);
        assert_eq!(back.params(), s.params());
        assert_eq!(back.frame_dur(), s.frame_dur());
        for (a, b) in frag.packets().iter().zip(back.packets()) {
            assert_eq!(a.pts, b.pts);
            assert_eq!(a.keyframe, b.keyframe);
            assert_eq!(a.data, b.data);
        }
        // Fragment grid is zero-based even though the source started at 7/2.
        assert_eq!(back.packets()[0].pts, Rational::ZERO);
        assert_eq!(back.packets()[1].pts, r(1, 30));
    }

    #[test]
    fn stream_round_trip_decodes_identically() {
        let s = sample_stream(8);
        let frag = Fragment::from_stream(&s);
        let bytes = fragment_to_bytes(&frag).unwrap();
        let back = fragment_from_bytes(&bytes).unwrap().into_stream().unwrap();
        let (fa, _) = s.decode_range(0, s.len()).unwrap();
        let (fb, _) = back.decode_range(0, back.len()).unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn every_flipped_bit_in_the_table_is_caught() {
        let s = sample_stream(5);
        let bytes = fragment_to_bytes(&Fragment::from_stream(&s)).unwrap();
        // Locate the packet table: it starts after magic+len+header.
        let hdr_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let table_start = 8 + hdr_len;
        for pos in table_start..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x41;
            assert!(
                matches!(fragment_from_bytes(&bad), Err(ContainerError::BadFile(_))),
                "flip at byte {pos} must fail the checksum"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_junk_rejected() {
        let s = sample_stream(4);
        let bytes = fragment_to_bytes(&Fragment::from_stream(&s)).unwrap();
        for cut in [3, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                fragment_from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(fragment_from_bytes(&padded).is_err());
    }

    #[test]
    fn non_keyframe_head_rejected() {
        let s = sample_stream(6);
        let frag = Fragment::from_stream(&s);
        // Rebuild with the keyframe flag stripped from packet 0 (a lying
        // tag bit in a hostile file).
        let packets: Vec<Packet> = frag
            .packets()
            .iter()
            .map(|p| Packet::new(p.pts, false, p.data.clone()))
            .collect();
        assert!(matches!(
            Fragment::new(*frag.params(), frag.frame_dur(), packets),
            Err(ContainerError::SpliceNotKeyframe)
        ));
    }

    #[test]
    fn empty_fragment_round_trips() {
        let frag = Fragment::new(
            CodecParams::new(FrameType::gray8(16, 16), 4, 0),
            r(1, 30),
            Vec::new(),
        )
        .unwrap();
        let bytes = fragment_to_bytes(&frag).unwrap();
        let back = fragment_from_bytes(&bytes).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn wire_round_trip() {
        let s = sample_stream(7);
        let frag = Fragment::from_stream(&s);
        let wire = fragment_to_wire(0xdead_beef_cafe_f00d, &frag).unwrap();
        let back = fragment_from_wire(&wire, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(back.len(), frag.len());
        for (a, b) in frag.packets().iter().zip(back.packets()) {
            assert_eq!(a.data, b.data);
            assert_eq!(a.keyframe, b.keyframe);
        }
    }

    #[test]
    fn wire_key_mismatch_rejected() {
        let frag = Fragment::from_stream(&sample_stream(3));
        let wire = fragment_to_wire(1, &frag).unwrap();
        assert!(matches!(
            fragment_from_wire(&wire, 2),
            Err(ContainerError::BadFile(_))
        ));
    }

    #[test]
    fn wire_corruption_rejected() {
        let frag = Fragment::from_stream(&sample_stream(5));
        let wire = fragment_to_wire(9, &frag).unwrap();
        // Flip one bit in the last byte (packet payload territory): the
        // inner svf checksum must catch it.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(fragment_from_wire(&bad, 9).is_err());
        // Wrong wire magic is rejected before anything else is parsed.
        let mut bad_magic = wire.clone();
        bad_magic[0] = b'X';
        assert!(fragment_from_wire(&bad_magic, 9).is_err());
        // Truncations at every boundary are errors, not panics.
        for cut in [0, 3, 11, wire.len() / 2] {
            assert!(fragment_from_wire(&wire[..cut], 9).is_err());
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("v2v_fragment_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frag.svf");
        let frag = Fragment::from_stream(&sample_stream(6));
        write_fragment(&frag, &path).unwrap();
        let back = read_fragment(&path).unwrap();
        assert_eq!(back.len(), frag.len());
        std::fs::remove_file(&path).unwrap();
    }
}
