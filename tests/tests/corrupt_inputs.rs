//! Corrupt-input hardening: no decode entry point may panic on hostile
//! bytes.
//!
//! The decode surface reaches untrusted data at three layers — the
//! `.svc` file parser (`read_svc`), the stream assembly and seek logic
//! (`VideoStream`), and the packet bitstream (`Decoder`) — and each used
//! to panic on specific malformed inputs. This suite pins the contract
//! that every layer returns `Err` instead:
//!
//! * proptest mutation harnesses bit-flip, truncate, and extend valid
//!   `.svc` bytes (and individual packet payloads) and drive every
//!   decode entry point over the result;
//! * direct regression tests reproduce the three seed panics: the
//!   unchecked `pos + n` slice in `Reader::bytes` (huge byte-run
//!   request), the `RunDecoder` fill overrun on a lying run length, and
//!   the `expect("stream starts with a keyframe")` on keyframeless
//!   streams.
//!
//! A mutation that happens to still parse is fine — the property is
//! "Result, never panic", not "always Err".
//!
//! The daemon's two wire parsers get the same treatment: mutated HTTP
//! requests (`http::read_request`) and `/subscribe` delta records
//! (`sub::read_delta` → `DeltaApplier`) must return a `Result` and must
//! never buffer more than arrived — a head is cut off at `MAX_HEAD + 1`
//! bytes, a body or delta container is never sized from its claim.
//!
//! So do the two remaining parsers of bytes this process did not just
//! write: the cluster's `SVW1` wire frame (`fragment_from_wire`) and
//! the variant store's `manifest.json` (`SourceStore::manifest` →
//! `attach`) — a typed error or a value no larger than what arrived.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use v2v_codec::bitstream::{put_varint, zigzag, Reader, RunDecoder};
use v2v_codec::{CodecError, Decoder, Packet};
use v2v_container::{
    fragment_from_wire, fragment_to_wire, read_svc, write_svc, ContainerError, Fragment,
    VideoStream,
};
use v2v_core::{ErrorKind, V2vError};
use v2v_integration_tests::{marked_stream, temp_dir};
use v2v_serve::http::{read_request, MAX_HEAD};
use v2v_serve::sub::{read_delta, write_delta, DeltaApplier, DeltaHeader};
use v2v_store::{SourceStore, StoreError, TranscodeSpec};

/// A small valid stream: 60 frames, 4 GOPs, lossless gray.
fn valid_stream() -> VideoStream {
    marked_stream(60, 15)
}

/// The serialized `.svc` bytes of [`valid_stream`].
fn valid_svc_bytes() -> Vec<u8> {
    let path = scratch_path("valid");
    write_svc(&valid_stream(), &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// A unique temp path per call (tests run in parallel threads).
fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("v2v_corrupt_inputs");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{tag}_{}_{n}.svc", std::process::id()))
}

/// Writes `bytes` to disk and drives the full decode surface over them:
/// `read_svc`, then (if the file parses) `decode_range`,
/// `decode_frame_at`, and a `copy_packet_range` → re-decode round trip.
/// The return value only reports whether parsing succeeded; the point is
/// that nothing in here may panic.
fn exercise_decode_surface(bytes: &[u8], tag: &str) -> bool {
    let path = scratch_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let parsed = read_svc(&path);
    let _ = std::fs::remove_file(&path);
    let Ok(stream) = parsed else {
        return false;
    };
    // The file parsed; every decode path over it must still be
    // panic-free (payload bytes are independent of the packet table).
    let _ = stream.decode_range(0, stream.len());
    if let Some(t) = stream.pts_of(stream.len() / 2) {
        let _ = stream.decode_frame_at(t);
    }
    if stream.len() >= 2 {
        if let Ok(packets) = stream.copy_packet_range(0, stream.len() / 2, stream.start()) {
            if let Ok(sub) = VideoStream::new(
                *stream.params(),
                stream.start(),
                stream.frame_dur(),
                packets,
            ) {
                let _ = sub.decode_range(0, sub.len());
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-bit flips anywhere in the file: header, packet table, or
    /// payload. Every decode entry point returns a `Result`.
    #[test]
    fn bit_flipped_files_never_panic(pos in 0usize..4096, bit in 0u8..8) {
        let mut bytes = valid_svc_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        exercise_decode_surface(&bytes, "flip");
    }

    /// Truncation at every possible boundary: mid-magic, mid-header,
    /// mid-tag, mid-payload.
    #[test]
    fn truncated_files_never_panic(keep in 0usize..4096) {
        let bytes = valid_svc_bytes();
        let keep = keep % (bytes.len() + 1);
        exercise_decode_surface(&bytes[..keep], "trunc");
    }

    /// Appending garbage (and garbage-only files): trailing bytes after
    /// the packet table must not confuse the parser, and pure noise must
    /// be rejected cleanly.
    #[test]
    fn extended_and_garbage_files_never_panic(
        tail in prop::collection::vec(any::<u8>(), 0..512),
        garbage_only in any::<bool>(),
    ) {
        let mut bytes = if garbage_only { Vec::new() } else { valid_svc_bytes() };
        bytes.extend_from_slice(&tail);
        exercise_decode_surface(&bytes, "extend");
    }

    /// Multi-byte corruption of a single packet payload, fed straight to
    /// the codec: the decoder must return `Err` or a frame, never panic,
    /// for flips, truncations, and extensions of real compressed data.
    #[test]
    fn mutated_packet_payloads_never_panic(
        pkt_idx in 0usize..60,
        flips in prop::collection::vec((0usize..4096, 0u8..8), 0..8),
        cut in 0usize..4096,
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let stream = valid_stream();
        let src = &stream.packets()[pkt_idx % stream.len()];
        let mut data: Vec<u8> = src.data.to_vec();
        for (pos, bit) in flips {
            if !data.is_empty() {
                let pos = pos % data.len();
                data[pos] ^= 1 << bit;
            }
        }
        data.truncate(cut.max(1) % (data.len() + 1));
        data.extend_from_slice(&tail);
        let mangled = Packet::new(src.pts, src.keyframe, data.into());
        let mut dec = Decoder::new(*stream.params());
        // Establish a reference first so inter packets are decodable at
        // all, then feed the mangled packet.
        let _ = dec.decode(&stream.packets()[0]);
        let _ = dec.decode(&mangled);
    }
}

/// Flips bits, then truncates to `keep` bytes (when given), then appends
/// `tail`: the three mutation classes of this suite, composed.
fn mutate(bytes: &mut Vec<u8>, flips: &[(usize, u8)], keep: (bool, usize), tail: &[u8]) {
    for &(pos, bit) in flips {
        if !bytes.is_empty() {
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
    }
    if let (true, keep) = keep {
        bytes.truncate(keep % (bytes.len() + 1));
    }
    bytes.extend_from_slice(tail);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mutated HTTP requests, including a head line with no newline
    /// that runs far past the limit: `Ok` or `Err`, the head stage
    /// stops after `MAX_HEAD + 1` bytes, a body is no larger than what
    /// arrived.
    #[test]
    fn mutated_requests_never_panic_or_overread(
        flips in prop::collection::vec((0usize..4096, 0u8..8), 0..4),
        keep in (any::<bool>(), 0usize..4096),
        tail in prop::collection::vec(any::<u8>(), 0..256),
        flood in (any::<bool>(), 0usize..40),
    ) {
        let body = br#"{"time_domain":[[0,1],[1,30]],"render":{"video":"src"}}"#;
        let mut bytes = format!(
            "POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(body);
        if let (true, at) = flood {
            // A peer that stops sending newlines mid-head.
            bytes.splice(at..at, std::iter::repeat(b'a').take(4 * MAX_HEAD));
        }
        mutate(&mut bytes, &flips, keep, &tail);
        let mut wire = std::io::Cursor::new(&bytes);
        let parsed = read_request(&mut wire);
        let consumed = wire.position() as usize;
        match parsed {
            Ok(req) => {
                prop_assert!(req.body.len() <= bytes.len());
                prop_assert!(consumed <= MAX_HEAD + req.body.len());
            }
            Err(e) if e.to_string().contains("header block too large") => {
                prop_assert!(consumed <= MAX_HEAD + 1, "{consumed} bytes read");
            }
            Err(_) => {}
        }
    }

    /// Mutated delta records, including a header whose `svc_len` claims
    /// any `u64`: `Ok` or `Err` from framing and from reassembly, and a
    /// container no larger than what arrived.
    #[test]
    fn mutated_deltas_never_panic_or_overallocate(
        flips in prop::collection::vec((0usize..4096, 0u8..8), 0..4),
        keep in (any::<bool>(), 0usize..4096),
        tail in prop::collection::vec(any::<u8>(), 0..256),
        claim in (any::<bool>(), any::<u64>()),
    ) {
        let svc = v2v_container::svc_to_bytes(&marked_stream(8, 4)).unwrap();
        let header = DeltaHeader {
            seq: 0,
            from_frame: 0,
            frames: 8,
            svc_len: svc.len() as u64,
            version: 1,
        };
        let mut bytes = Vec::new();
        write_delta(&mut bytes, &header, &svc).unwrap();
        if let (true, svc_len) = claim {
            // Same body, lying length (`write_delta` would assert).
            let json = serde_json::to_vec(&DeltaHeader { svc_len, ..header }).unwrap();
            bytes = (json.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&json);
            bytes.extend_from_slice(&svc);
        }
        mutate(&mut bytes, &flips, keep, &tail);
        let mut wire = std::io::Cursor::new(&bytes);
        let mut applier = DeltaApplier::new();
        // A record is at least its 4-byte length: the loop is bounded.
        while let Ok(Some((h, body))) = read_delta(&mut wire) {
            prop_assert_eq!(body.len() as u64, h.svc_len);
            prop_assert!(body.len() <= bytes.len());
            let _ = applier.apply(&h, &body);
        }
    }

    /// Mutated `SVW1` wire frames, including a header whose packet
    /// `count` claims any `u64`: a fragment no larger than what
    /// arrived, or `CorruptData` (what the dispatcher answers with
    /// "drop and re-render") — never output bytes under the wrong key.
    #[test]
    fn mutated_wire_frames_never_panic_or_overallocate(
        flips in prop::collection::vec((0usize..4096, 0u8..8), 0..4),
        keep in (any::<bool>(), 0usize..4096),
        tail in prop::collection::vec(any::<u8>(), 0..256),
        claim in (any::<bool>(), any::<u64>()),
    ) {
        const KEY: u64 = 0x5eed_f00d;
        let frag = Fragment::from_stream(&marked_stream(8, 4));
        let mut bytes = fragment_to_wire(KEY, &frag).unwrap();
        if let (true, count) = claim {
            // Same packet table, lying count: `SVW1` + key, then the
            // `.svf` magic, header length, JSON header.
            let at = 4 + 8 + 4;
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let header = String::from_utf8(bytes[at + 4..at + 4 + len].to_vec()).unwrap();
            let lying = header.replace("\"count\":8", &format!("\"count\":{count}"));
            prop_assert!(count == 8 || lying != header);
            let mut framed = (lying.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(lying.as_bytes());
            bytes.splice(at..at + 4 + len, framed);
        }
        let pristine = !claim.0 && flips.is_empty() && !keep.0 && tail.is_empty();
        mutate(&mut bytes, &flips, keep, &tail);
        match fragment_from_wire(&bytes, KEY) {
            Ok(back) => {
                prop_assert!(back.len() <= bytes.len() / 4);
                prop_assert!(back.byte_size() <= bytes.len() as u64);
            }
            Err(e) => {
                prop_assert!(!pristine, "{e}");
                prop_assert_eq!(V2vError::from(e).kind(), ErrorKind::CorruptData);
            }
        }
        prop_assert!(fragment_from_wire(&bytes, KEY ^ 1).is_err());
    }

    /// Mutated variant-store manifests next to an intact variant file:
    /// loading is `Ok` or `CorruptManifest`, a parsed manifest is no
    /// larger than what arrived, and attaching it — whatever frame
    /// counts, digests and names it now claims — returns a `Result`.
    #[test]
    fn mutated_manifests_never_panic_or_overallocate(
        flips in prop::collection::vec((0usize..4096, 0u8..8), 0..4),
        keep in (any::<bool>(), 0usize..4096),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let original = marked_stream(8, 4);
        let root = temp_dir("corrupt_manifest");
        let store = SourceStore::open(&root).unwrap();
        store
            .materialize("a", &original, TranscodeSpec::for_kind(v2v_plan::VariantKind::Dense))
            .unwrap();
        let path = root.join("a").join("manifest.json");
        let mut bytes = std::fs::read(&path).unwrap();
        mutate(&mut bytes, &flips, keep, &tail);
        std::fs::write(&path, &bytes).unwrap();

        match store.manifest("a") {
            Ok(Some(m)) => {
                prop_assert!(m.variants.len() <= bytes.len());
                prop_assert!(m.variants.iter().all(|v| v.keyframes.len() <= bytes.len()));
            }
            Ok(None) => prop_assert!(false, "the manifest file exists"),
            Err(e) => prop_assert!(matches!(e, StoreError::CorruptManifest { .. }), "{e}"),
        }
        let mut catalog = v2v_exec::Catalog::new();
        catalog.add_video("a", original);
        if let Ok((attached, skipped)) = store.attach(&mut catalog) {
            prop_assert!(attached + skipped <= bytes.len() as u64);
        }
        let _ = store.managed_bytes();
        let _ = std::fs::remove_dir_all(&root);
    }
}

// ---------------------------------------------------------------------
// Direct regressions for the three seed panics.
// ---------------------------------------------------------------------

/// Seed panic 1 — `bitstream.rs` `Reader::bytes` sliced with unchecked
/// `pos + n`: a varint-supplied length near `usize::MAX` used to either
/// wrap the add or slice out of bounds. Both must be `Corrupt`, and a
/// failed read must not advance the cursor.
#[test]
fn seed_panic_huge_byte_run_request_returns_corrupt() {
    let buf = [10u8, 20, 30];
    let mut r = Reader::new(&buf);
    assert!(matches!(r.bytes(usize::MAX), Err(CodecError::Corrupt(_))));
    assert!(matches!(r.bytes(4), Err(CodecError::Corrupt(_))));
    // The cursor did not move: the whole buffer is still readable.
    assert_eq!(r.bytes(3).unwrap(), &buf);
}

/// Seed panic 2 — `RunDecoder::next_residuals` trusted the stream's run
/// length and could overrun the output fill: a (run, value) pair
/// claiming more zeroes than residuals remain must be `Corrupt`, through
/// both a whole-count fill and a one-residual read.
#[test]
fn seed_panic_lying_run_length_returns_corrupt() {
    let mut payload = Vec::new();
    put_varint(&mut payload, 1_000_000); // run ≫ declared residual count
    put_varint(&mut payload, zigzag(42));

    let mut r = Reader::new(&payload);
    let mut dec = RunDecoder::new(&mut r, 8);
    let mut out = [0i32; 8];
    assert!(matches!(
        dec.next_residuals(&mut out),
        Err(CodecError::Corrupt(_))
    ));

    let mut r = Reader::new(&payload);
    let mut dec = RunDecoder::new(&mut r, 8);
    assert!(matches!(
        dec.next_residuals(&mut out[..1]),
        Err(CodecError::Corrupt(_))
    ));
}

/// Seed panic 3 — `stream.rs` decode paths used
/// `expect("stream starts with a keyframe")`: a stream whose packet
/// table carries no keyframe flag at all (trivial to fabricate on disk
/// by clearing tag bits) used to panic on first decode. Now the
/// keyframeless stream is rejected at assembly with
/// `SpliceNotKeyframe`, and the on-disk variant fails `read_svc`
/// cleanly.
#[test]
fn seed_panic_keyframeless_stream_is_rejected_not_panicking() {
    let stream = valid_stream();
    // In-memory: rebuilding the same packets with keyframe flags cleared
    // must fail stream assembly (previously it assembled fine and blew
    // up later inside decode's keyframe seek).
    let stripped: Vec<Packet> = stream
        .packets()
        .iter()
        .map(|p| Packet::new(p.pts, false, p.data.clone()))
        .collect();
    let assembled = VideoStream::new(
        *stream.params(),
        stream.start(),
        stream.frame_dur(),
        stripped,
    );
    assert!(matches!(assembled, Err(ContainerError::SpliceNotKeyframe)));

    // On disk: clear the keyframe bit of every packet tag in a valid
    // file and walk the decode surface; the file must be rejected (or at
    // minimum decode must error), never panic.
    let mut bytes = valid_svc_bytes();
    let hdr_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let mut off = 8 + hdr_len;
    while off + 4 <= bytes.len() {
        let tag = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        bytes[off..off + 4].copy_from_slice(&(tag & !1).to_le_bytes());
        off += 4 + (tag >> 1) as usize;
    }
    assert!(
        !exercise_decode_surface(&bytes, "keyframeless"),
        "a keyframeless .svc must not parse into a decodable stream"
    );
}

/// Companion to seed panic 3: the `copy_packet_range` → decode round
/// trip. A copied sub-range always re-validates its own keyframe
/// invariant, so mid-GOP copy attempts error instead of producing a
/// stream that panics on decode.
#[test]
fn mid_gop_copy_errors_instead_of_deferring_a_panic() {
    let stream = valid_stream();
    // Offset 7 is mid-GOP (GOP size 15): no keyframe at the cut.
    let err = stream.copy_packet_range(7, 20, stream.start());
    assert!(err.is_err(), "mid-GOP copy must be rejected");
    // A legal copy still assembles and decodes end to end.
    let packets = stream.copy_packet_range(15, 45, stream.start()).unwrap();
    let sub = VideoStream::new(
        *stream.params(),
        stream.start(),
        stream.frame_dur(),
        packets,
    )
    .unwrap();
    let (frames, _) = sub.decode_range(0, sub.len()).unwrap();
    assert_eq!(frames.len(), 30);
}
