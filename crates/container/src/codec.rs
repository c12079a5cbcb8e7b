//! The one byte codec behind every container format (DESIGN.md §17).
//!
//! Each format opens with a *prelude* — 4-byte magic, `u32 LE` header
//! length (at most 1 MiB), JSON header carrying at least `params` and
//! `frame_dur` — and carries its packets in *packet tables*:
//!
//! ```text
//! table := entry*;  entry := tag u32 LE (len << 1 | keyframe), payload len bytes
//! ```
//!
//! Readers take a [`Take`] whose limit is the bytes the input really
//! holds: every untrusted size is checked against that limit before it
//! is allocated, and a short read is a [`ContainerError::BadFile`].

use crate::ContainerError;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::io::{Read, Take, Write};
use v2v_codec::{CodecParams, Packet};
use v2v_time::Rational;

/// Largest accepted JSON header: far above any real header, far below
/// anything that could hurt.
const MAX_HEADER: u64 = 1 << 20;

/// The header fields every format shares and every reader checks.
#[derive(Deserialize)]
struct Grid {
    params: CodecParams,
    frame_dur: Rational,
}

/// A [`ContainerError::BadFile`] with `msg`.
pub(crate) fn bad(msg: impl Into<String>) -> ContainerError {
    ContainerError::BadFile(msg.into())
}

/// Reads exactly `buf.len()` bytes. A short read is a property of the
/// file, not of the disk, so it is a `BadFile` naming `what`.
pub(crate) fn read_exact(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &str,
) -> Result<(), ContainerError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => bad(format!("truncated {what}")),
        _ => ContainerError::Io(e),
    })
}

/// Reads a fixed-size field (magic, length, key, commit word).
pub(crate) fn read_array<const N: usize>(
    r: &mut impl Read,
    what: &str,
) -> Result<[u8; N], ContainerError> {
    let mut buf = [0u8; N];
    read_exact(r, &mut buf, what)?;
    Ok(buf)
}

/// Writes the prelude: `magic`, the header length, the JSON header.
pub(crate) fn write_prelude(
    w: &mut impl Write,
    magic: &[u8; 4],
    header: &impl Serialize,
) -> Result<(), ContainerError> {
    let json = serde_json::to_vec(header).map_err(|e| bad(format!("header encode: {e}")))?;
    let len = u32::try_from(json.len()).map_err(|_| bad("header too large"))?;
    w.write_all(magic)?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&json)?;
    Ok(())
}

/// Reads the prelude after its magic and checks the grid: valid codec
/// parameters and a positive frame duration.
pub(crate) fn read_header<H: Deserialize>(r: &mut Take<impl Read>) -> Result<H, ContainerError> {
    let len = u64::from(u32::from_le_bytes(read_array(r, "header length")?));
    if len > MAX_HEADER || len > r.limit() {
        return Err(bad("oversized header"));
    }
    let mut json = vec![0u8; len as usize];
    read_exact(r, &mut json, "header")?;
    let decode = |e: serde_json::Error| bad(format!("header decode: {e}"));
    let header = serde_json::from_slice(&json).map_err(decode)?;
    let grid: Grid = serde_json::from_slice(&json).map_err(decode)?;
    grid.params
        .validate()
        .map_err(|e| bad(format!("bad codec params: {e}")))?;
    if !grid.frame_dur.is_positive() {
        return Err(bad("frame duration must be positive"));
    }
    Ok(header)
}

/// A table entry's tag. A payload too long for the tag's 31 length bits
/// is an error, never a wrapped tag.
pub(crate) fn tag(len: usize, keyframe: bool) -> Result<u32, ContainerError> {
    match u32::try_from(len) {
        Ok(len) if len <= u32::MAX >> 1 => Ok(len << 1 | u32::from(keyframe)),
        _ => Err(bad(format!(
            "a {len}-byte packet exceeds the packet table's limit"
        ))),
    }
}

/// Writes `packets` as a packet table.
pub(crate) fn write_table(w: &mut impl Write, packets: &[Packet]) -> Result<(), ContainerError> {
    for p in packets {
        w.write_all(&tag(p.size(), p.keyframe)?.to_le_bytes())?;
        w.write_all(&p.data)?;
    }
    Ok(())
}

/// Reads a `count`-entry packet table onto `out`, stamping the `k`-th
/// packet of `out` at `start + k · frame_dur`.
pub(crate) fn read_table(
    r: &mut Take<impl Read>,
    count: u64,
    start: Rational,
    frame_dur: Rational,
    out: &mut Vec<Packet>,
) -> Result<(), ContainerError> {
    // Every entry costs at least its tag, so a truthful count is bounded
    // by the bytes left; a hostile one cannot force a giant allocation.
    if count > r.limit() / 4 {
        return Err(bad(format!(
            "packet count {count} exceeds what {} bytes can hold",
            r.limit()
        )));
    }
    out.reserve(count as usize);
    for k in 0..count {
        let tag = u32::from_le_bytes(read_array(r, "packet tag")?);
        let len = u64::from(tag >> 1);
        if len > r.limit() {
            return Err(bad(format!(
                "packet {k} length {len} exceeds the bytes left"
            )));
        }
        let mut data = vec![0u8; len as usize];
        read_exact(r, &mut data, "packet payload")?;
        let pts = start + frame_dur * Rational::from_int(out.len() as i64);
        out.push(Packet::new(pts, tag & 1 == 1, Bytes::from(data)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_length_past_31_bits_is_an_error_not_a_wrapped_tag() {
        assert_eq!(tag((1 << 31) - 1, true).unwrap(), u32::MAX);
        assert!(matches!(
            tag(1 << 31, false),
            Err(ContainerError::BadFile(_))
        ));
        assert!(matches!(
            tag(usize::MAX, true),
            Err(ContainerError::BadFile(_))
        ));
    }

    #[test]
    fn table_sizes_are_checked_against_the_bytes_left() {
        let grid = (Rational::ZERO, Rational::from_int(1));
        let mut out = Vec::new();
        // A count no 12 bytes can hold, and a tag claiming ~1 GiB backed
        // by 8 bytes: both rejected before anything is allocated.
        let table = [0u8; 12];
        let mut r = Read::take(&table[..], 12);
        assert!(read_table(&mut r, u64::MAX, grid.0, grid.1, &mut out).is_err());
        let mut huge = (1u32 << 31).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 8]);
        let mut r = Read::take(&huge[..], 12);
        assert!(read_table(&mut r, 1, grid.0, grid.1, &mut out).is_err());
        assert!(out.is_empty());
    }
}
