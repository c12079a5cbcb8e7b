//! The SVC decoder: GOP-aware stateful decode.

use crate::bitstream::Reader;
use crate::encoder::packet_kind;
use crate::packet::{Packet, PacketKind};
use crate::params::CodecParams;
use crate::{inter, intra, CodecError};
use std::sync::Arc;
use v2v_frame::Frame;

/// Stateful decoder for one SVC stream.
///
/// Decoding must begin at a keyframe; delta packets decode against the
/// previously decoded frame. To decode an arbitrary frame mid-GOP, seek
/// to the preceding keyframe and decode forward — the cost the V2V smart
/// cut avoids for all but the first and last GOP of a clip.
///
/// Decoded frames come out behind [`Arc`] (see [`Decoder::decode_shared`]):
/// the decoder holds its reference as another `Arc` clone of the emitted
/// frame, so the steady state does zero raster copies per frame. When
/// the reference rolls forward and the decoder was its last owner, its
/// buffer is kept as the one spare the next frame is decoded into.
pub struct Decoder {
    params: CodecParams,
    reference: Option<Arc<Frame>>,
    spare: Option<Frame>,
    frames_out: u64,
}

impl Decoder {
    /// Creates a decoder for the given stream parameters.
    pub fn new(params: CodecParams) -> Decoder {
        Decoder {
            params,
            reference: None,
            spare: None,
            frames_out: 0,
        }
    }

    /// The stream parameters.
    pub fn params(&self) -> &CodecParams {
        &self.params
    }

    /// Frames decoded so far.
    pub fn frames_out(&self) -> u64 {
        self.frames_out
    }

    /// Drops the reference (e.g. before seeking to another keyframe).
    pub fn reset(&mut self) {
        self.retire_reference(None);
    }

    /// Replaces the reference with `next`, keeping the old one's buffer
    /// as the spare when no consumer still holds it.
    fn retire_reference(&mut self, next: Option<Arc<Frame>>) {
        let old = std::mem::replace(&mut self.reference, next);
        if let Some(frame) = old.and_then(Arc::into_inner) {
            self.spare = Some(frame);
        }
    }

    /// Decodes one packet into a shared frame.
    ///
    /// This is the zero-copy path: the returned `Arc` is the same
    /// allocation the decoder keeps as its prediction reference, so no
    /// raster data is duplicated per frame.
    pub fn decode_shared(&mut self, packet: &Packet) -> Result<Arc<Frame>, CodecError> {
        let ty = self.params.frame_ty;
        let mut frame = self.spare.take().unwrap_or_else(|| Frame::black(ty));
        match self.decode_into(packet, &mut frame) {
            Ok(()) => {
                let frame = Arc::new(frame);
                self.retire_reference(Some(Arc::clone(&frame)));
                self.frames_out += 1;
                Ok(frame)
            }
            Err(e) => {
                self.spare = Some(frame);
                Err(e)
            }
        }
    }

    /// Decodes one packet into an owned frame.
    ///
    /// Convenience wrapper over [`Decoder::decode_shared`] that deep-copies
    /// the result; prefer the shared form on hot paths.
    pub fn decode(&mut self, packet: &Packet) -> Result<Frame, CodecError> {
        self.decode_shared(packet).map(|f| (*f).clone())
    }

    /// Decodes the packet payload into `frame`, overwriting every sample.
    fn decode_into(&self, packet: &Packet, frame: &mut Frame) -> Result<(), CodecError> {
        let kind = packet_kind(&packet.data)?;
        if packet.keyframe != (kind == PacketKind::Intra) {
            return Err(CodecError::Corrupt(
                "packet keyframe flag disagrees with bitstream".into(),
            ));
        }
        let ty = self.params.frame_ty;
        let qstep = self.params.qstep();
        let mut reader = Reader::new(packet.data.get(1..).unwrap_or_default());
        for pi in 0..ty.format.plane_count() {
            let len = reader.varint()? as usize;
            let payload = reader.bytes(len)?;
            let mut plane_reader = Reader::new(payload);
            match kind {
                PacketKind::Intra => {
                    intra::decode_plane_into(&mut plane_reader, qstep, frame.plane_mut(pi))?;
                }
                PacketKind::Inter => {
                    let reference = self
                        .reference
                        .as_ref()
                        .ok_or(CodecError::MissingReference)?;
                    inter::decode_plane_into(
                        &mut plane_reader,
                        reference.plane(pi),
                        qstep,
                        frame.plane_mut(pi),
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use v2v_frame::FrameType;
    use v2v_time::r;

    fn moving_frame(ty: FrameType, i: usize) -> Frame {
        let mut f = Frame::black(ty);
        let w = f.width();
        for y in 0..f.height() {
            for x in 0..w {
                f.plane_mut(0)
                    .put(x, y, (((x + i * 3) * 5 + y) % 256) as u8);
            }
        }
        f
    }

    #[test]
    fn lossless_stream_round_trip() {
        let ty = FrameType::yuv420p(48, 32);
        let params = CodecParams::new(ty, 5, 0);
        let mut enc = Encoder::new(params);
        let mut dec = Decoder::new(params);
        for i in 0..12 {
            let f = moving_frame(ty, i);
            let p = enc.encode(&f, r(i as i64, 30)).unwrap();
            let g = dec.decode(&p).unwrap();
            assert_eq!(g, f, "frame {i} must round-trip exactly at q=0");
        }
        assert_eq!(dec.frames_out(), 12);
    }

    #[test]
    fn lossy_stream_bounded_error() {
        let ty = FrameType::gray8(64, 64);
        let params = CodecParams::new(ty, 6, 4);
        let mut enc = Encoder::new(params);
        let mut dec = Decoder::new(params);
        for i in 0..12 {
            let f = moving_frame(ty, i);
            let p = enc.encode(&f, r(i as i64, 30)).unwrap();
            let g = dec.decode(&p).unwrap();
            let max_err = f
                .plane(0)
                .data()
                .iter()
                .zip(g.plane(0).data())
                .map(|(a, b)| a.abs_diff(*b))
                .max()
                .unwrap();
            assert!(max_err as i32 <= params.qstep(), "frame {i}: err {max_err}");
        }
    }

    #[test]
    fn delta_without_reference_errors() {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 0);
        let mut enc = Encoder::new(params);
        let f = moving_frame(ty, 0);
        enc.encode(&f, r(0, 30)).unwrap(); // keyframe
        let p1 = enc.encode(&moving_frame(ty, 1), r(1, 30)).unwrap();
        let mut dec = Decoder::new(params);
        assert_eq!(dec.decode(&p1), Err(CodecError::MissingReference));
    }

    #[test]
    fn decode_from_mid_stream_keyframe() {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 3, 0);
        let mut enc = Encoder::new(params);
        let mut packets = Vec::new();
        for i in 0..7 {
            packets.push(enc.encode(&moving_frame(ty, i), r(i as i64, 30)).unwrap());
        }
        // Start decoding at the keyframe at index 3.
        assert!(packets[3].keyframe);
        let mut dec = Decoder::new(params);
        let g3 = dec.decode(&packets[3]).unwrap();
        assert_eq!(g3, moving_frame(ty, 3));
        let g4 = dec.decode(&packets[4]).unwrap();
        assert_eq!(g4, moving_frame(ty, 4));
    }

    #[test]
    fn corrupt_magic_rejected() {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 0);
        let mut dec = Decoder::new(params);
        let bad = Packet::new(r(0, 1), true, bytes::Bytes::from(vec![0xFFu8, 0, 0]));
        assert!(matches!(dec.decode(&bad), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn a_residual_past_any_sample_difference_is_corrupt() {
        // One gray 16×16 plane whose first residual is 2^30: at
        // quantizer 2 reconstructing it would overflow `2^30 * 3` (a
        // panic in debug builds), at quantizer 0 it would decode to a
        // garbage frame. Intra payloads are bare pairs; inter ones lead
        // with the one-block coded bitmap.
        use crate::bitstream::{put_varint, zigzag};
        let ty = FrameType::gray8(16, 16);
        for quantizer in [2, 0] {
            let params = CodecParams::new(ty, 4, quantizer);
            for inter in [false, true] {
                let mut payload = if inter { vec![0x01] } else { Vec::new() };
                put_varint(&mut payload, 0);
                put_varint(&mut payload, zigzag(1 << 30));
                let mut data = vec![if inter { 0x50 } else { 0x49 }];
                put_varint(&mut data, payload.len() as u64);
                data.extend(payload);
                let mut dec = Decoder::new(params);
                if inter {
                    let key = Encoder::new(params)
                        .encode(&moving_frame(ty, 0), r(0, 30))
                        .unwrap();
                    dec.decode(&key).unwrap();
                }
                let pkt = Packet::new(r(1, 30), !inter, bytes::Bytes::from(data));
                assert!(
                    matches!(dec.decode(&pkt), Err(CodecError::Corrupt(_))),
                    "quantizer {quantizer}, inter {inter}"
                );
            }
        }
    }

    #[test]
    fn flag_bitstream_disagreement_rejected() {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 0);
        let mut enc = Encoder::new(params);
        let p = enc.encode(&moving_frame(ty, 0), r(0, 1)).unwrap();
        let lying = Packet::new(p.pts, false, p.data.clone());
        let mut dec = Decoder::new(params);
        assert!(matches!(dec.decode(&lying), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn encoder_decoder_reconstruction_agree_when_lossy() {
        // The encoder's closed-loop reference must equal the decoder's
        // output, otherwise P-frames drift.
        let ty = FrameType::gray8(48, 48);
        let params = CodecParams::new(ty, 4, 6);
        let mut enc = Encoder::new(params);
        let mut dec = Decoder::new(params);
        let mut last = None;
        for i in 0..8 {
            let p = enc.encode(&moving_frame(ty, i), r(i as i64, 30)).unwrap();
            last = Some(dec.decode(&p).unwrap());
        }
        // Re-encode the decoder's last output: if references agree, the
        // delta against it is all-skip (tiny packet).
        let mut enc2 = Encoder::new(params);
        let p = enc2.encode(&last.unwrap(), r(100, 30)).unwrap();
        assert!(p.keyframe); // fresh encoder starts with a keyframe
    }

    /// Ten lossy packets (two GOPs plus two frames) of moving content.
    fn lossy_packets(ty: FrameType) -> (CodecParams, Vec<Packet>) {
        let params = CodecParams::new(ty, 4, 3);
        let mut enc = Encoder::new(params);
        let packets = (0..10)
            .map(|i| enc.encode(&moving_frame(ty, i), r(i as i64, 30)).unwrap())
            .collect();
        (params, packets)
    }

    fn luma_ptr(frame: &Frame) -> *const u8 {
        frame.plane(0).data().as_ptr()
    }

    #[test]
    fn a_dropped_frame_is_decoded_into_again() {
        // A caller that drops each frame leaves the decoder the sole owner
        // of its reference, so the roll after next writes into the same
        // buffer — and the bytes equal a decoder that never reuses one.
        let ty = FrameType::yuv420p(48, 32);
        let (params, packets) = lossy_packets(ty);
        let mut held = Decoder::new(params);
        let want: Vec<_> = packets
            .iter()
            .map(|p| held.decode_shared(p).unwrap())
            .collect();
        let mut dec = Decoder::new(params);
        let mut ptrs = Vec::new();
        for (p, want) in packets.iter().zip(&want) {
            let got = dec.decode_shared(p).unwrap();
            assert_eq!(got, *want);
            ptrs.push(luma_ptr(&got));
        }
        for i in 2..ptrs.len() {
            assert_eq!(
                ptrs[i],
                ptrs[i - 2],
                "frame {i} reuses frame {}'s buffer",
                i - 2
            );
        }
        // `reset` retires the sole-owned reference into the spare too.
        dec.reset();
        let again = dec.decode_shared(&packets[0]).unwrap();
        assert_eq!(luma_ptr(&again), ptrs[9]);
        assert_eq!(again, want[0]);
    }

    #[test]
    fn held_frames_are_never_reused_and_decode_identically() {
        // The GOP-prefix pattern: every frame stays held, so each decode
        // needs a buffer of its own and no earlier frame is overwritten.
        let ty = FrameType::yuv420p(48, 32);
        let (params, packets) = lossy_packets(ty);
        let mut dropping = Decoder::new(params);
        let want: Vec<Frame> = packets
            .iter()
            .map(|p| dropping.decode(p).unwrap())
            .collect();
        let mut dec = Decoder::new(params);
        let held: Vec<_> = packets
            .iter()
            .map(|p| dec.decode_shared(p).unwrap())
            .collect();
        for (i, frame) in held.iter().enumerate() {
            assert_eq!(**frame, want[i], "frame {i}");
            assert!(!held[..i].iter().any(|f| luma_ptr(f) == luma_ptr(frame)));
        }
        // A failed decode keeps its buffer as the spare for the next one.
        let bad = Packet::new(r(10, 30), true, bytes::Bytes::from(vec![0xFFu8, 0, 0]));
        assert!(dec.decode_shared(&bad).is_err());
        dec.reset();
        let failed_into = dec.spare.as_ref().map(luma_ptr);
        let next = dec.decode_shared(&packets[8]).unwrap();
        assert_eq!(Some(luma_ptr(&next)), failed_into);
        assert_eq!(*next, want[8]);
    }
}
