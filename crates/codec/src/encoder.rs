//! The SVC encoder: GOP scheduling, packet assembly, closed-loop state.

// Panic-audit exemption: the encoder consumes trusted in-process frames,
// not untrusted bytes; its one `expect` states the is-inter ⇒
// has-reference invariant established a few lines above it.
#![allow(clippy::expect_used)]

use crate::bitstream::put_varint;
use crate::packet::{Packet, PacketKind};
use crate::params::CodecParams;
use crate::{inter, intra, CodecError};
use bytes::Bytes;
use v2v_frame::Frame;
use v2v_time::Rational;

/// Bitstream magic for intra packets.
const MAGIC_INTRA: u8 = 0x49; // 'I'
/// Bitstream magic for inter packets.
const MAGIC_INTER: u8 = 0x50; // 'P'

/// Stateful encoder for one SVC stream.
///
/// Frames must be fed in presentation order; every `gop_size`-th frame
/// (or any frame after [`Encoder::force_keyframe`]) becomes an I-frame.
pub struct Encoder {
    params: CodecParams,
    frame_index: u64,
    force_key: bool,
    reference: Option<Frame>,
    /// The previous reference's buffer, reused for the next
    /// reconstruction.
    spare: Option<Frame>,
    scratch: Vec<u8>,
    bytes_out: u64,
    frames_in: u64,
}

impl Encoder {
    /// Creates an encoder for the given stream parameters.
    pub fn new(params: CodecParams) -> Encoder {
        Encoder {
            params,
            frame_index: 0,
            force_key: true,
            reference: None,
            spare: None,
            scratch: Vec::new(),
            bytes_out: 0,
            frames_in: 0,
        }
    }

    /// The stream parameters.
    pub fn params(&self) -> &CodecParams {
        &self.params
    }

    /// Forces the next frame to be a keyframe (used when splicing
    /// re-encoded segments onto stream-copied ones).
    pub fn force_keyframe(&mut self) {
        self.force_key = true;
    }

    /// Total compressed bytes produced so far.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Total frames consumed so far.
    pub fn frames_in(&self) -> u64 {
        self.frames_in
    }

    /// Encodes one frame stamped at `pts`.
    pub fn encode(&mut self, frame: &Frame, pts: Rational) -> Result<Packet, CodecError> {
        if frame.ty() != self.params.frame_ty {
            return Err(CodecError::FrameTypeMismatch {
                got: frame.ty(),
                want: self.params.frame_ty,
            });
        }
        let is_key = self.force_key
            || self.reference.is_none()
            || self.params.is_keyframe_index(self.frame_index);
        self.force_key = false;
        let kind = if is_key {
            PacketKind::Intra
        } else {
            PacketKind::Inter
        };
        let qstep = self.params.qstep();

        let mut payload = Vec::with_capacity(frame.ty().frame_bytes() / 4);
        payload.push(match kind {
            PacketKind::Intra => MAGIC_INTRA,
            PacketKind::Inter => MAGIC_INTER,
        });
        // The reconstruction lands in the spare frame; the per-plane
        // bitstream goes through a persistent scratch buffer, so the
        // steady state allocates nothing per frame.
        let mut recon = self
            .spare
            .take()
            .unwrap_or_else(|| Frame::black(frame.ty()));
        for (pi, plane) in frame.planes().iter().enumerate() {
            self.scratch.clear();
            match kind {
                PacketKind::Intra => {
                    intra::encode_plane_into(plane, qstep, &mut self.scratch, recon.plane_mut(pi))
                }
                PacketKind::Inter => {
                    let reference = self
                        .reference
                        .as_ref()
                        .expect("inter frame always has a reference");
                    inter::encode_plane_into(
                        plane,
                        reference.plane(pi),
                        qstep,
                        &mut self.scratch,
                        recon.plane_mut(pi),
                    );
                }
            }
            put_varint(&mut payload, self.scratch.len() as u64);
            payload.extend_from_slice(&self.scratch);
        }
        self.spare = self.reference.replace(recon);
        self.frame_index += 1;
        self.frames_in += 1;
        self.bytes_out += payload.len() as u64;
        Ok(Packet::new(pts, is_key, Bytes::from(payload)))
    }

    /// Resets GOP state (next frame will be a keyframe at index 0).
    pub fn reset(&mut self) {
        self.frame_index = 0;
        self.force_key = true;
        if let Some(old) = self.reference.take() {
            self.spare = Some(old);
        }
    }
}

/// Parses the packet kind from a payload (first byte).
pub(crate) fn packet_kind(data: &[u8]) -> Result<PacketKind, CodecError> {
    match data.first() {
        Some(&MAGIC_INTRA) => Ok(PacketKind::Intra),
        Some(&MAGIC_INTER) => Ok(PacketKind::Inter),
        Some(b) => Err(CodecError::Corrupt(format!("bad packet magic {b:#x}"))),
        None => Err(CodecError::Corrupt("empty packet".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_frame::FrameType;
    use v2v_time::r;

    fn frame_with_luma(ty: FrameType, luma: u8) -> Frame {
        let mut f = Frame::black(ty);
        for v in f.plane_mut(0).data_mut() {
            *v = luma;
        }
        f
    }

    #[test]
    fn gop_cadence_in_packets() {
        let ty = FrameType::yuv420p(32, 32);
        let mut enc = Encoder::new(CodecParams::new(ty, 4, 0));
        let mut keys = Vec::new();
        for i in 0..10 {
            let f = frame_with_luma(ty, (i * 20) as u8);
            let p = enc.encode(&f, r(i, 30)).unwrap();
            keys.push(p.keyframe);
        }
        assert_eq!(
            keys,
            vec![true, false, false, false, true, false, false, false, true, false]
        );
    }

    #[test]
    fn force_keyframe_overrides_cadence() {
        let ty = FrameType::gray8(32, 32);
        let mut enc = Encoder::new(CodecParams::new(ty, 100, 0));
        let f = frame_with_luma(ty, 7);
        assert!(enc.encode(&f, r(0, 1)).unwrap().keyframe);
        assert!(!enc.encode(&f, r(1, 1)).unwrap().keyframe);
        enc.force_keyframe();
        assert!(enc.encode(&f, r(2, 1)).unwrap().keyframe);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut enc = Encoder::new(CodecParams::new(FrameType::gray8(32, 32), 4, 0));
        let wrong = Frame::black(FrameType::gray8(16, 16));
        assert!(matches!(
            enc.encode(&wrong, r(0, 1)),
            Err(CodecError::FrameTypeMismatch { .. })
        ));
    }

    #[test]
    fn static_content_p_frames_are_tiny() {
        let ty = FrameType::yuv420p(64, 64);
        let mut enc = Encoder::new(CodecParams::new(ty, 30, 0));
        // Textured content: the I-frame is substantial, the repeat is an
        // all-skip P-frame.
        let mut f = Frame::black(ty);
        for y in 0..64 {
            for x in 0..64 {
                f.plane_mut(0).put(x, y, ((x * 7 + y * 13) % 256) as u8);
            }
        }
        let i_size = enc.encode(&f, r(0, 30)).unwrap().size();
        let p_size = enc.encode(&f, r(1, 30)).unwrap().size();
        assert!(p_size * 10 < i_size, "static P ({p_size}) vs I ({i_size})");
    }

    #[test]
    fn reset_restarts_gop() {
        let ty = FrameType::gray8(32, 32);
        let mut enc = Encoder::new(CodecParams::new(ty, 8, 0));
        let f = frame_with_luma(ty, 1);
        enc.encode(&f, r(0, 1)).unwrap();
        enc.encode(&f, r(1, 1)).unwrap();
        enc.reset();
        assert!(enc.encode(&f, r(2, 1)).unwrap().keyframe);
    }

    #[test]
    fn stats_accumulate() {
        let ty = FrameType::gray8(32, 32);
        let mut enc = Encoder::new(CodecParams::new(ty, 8, 0));
        let f = frame_with_luma(ty, 1);
        let p = enc.encode(&f, r(0, 1)).unwrap();
        assert_eq!(enc.frames_in(), 1);
        assert_eq!(enc.bytes_out(), p.size() as u64);
    }
}
