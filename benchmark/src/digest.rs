//! The output oracle's digest: FNV-1a folded over 64-bit words of every
//! packet, prefix-composable so a subscription's cumulative stream can
//! be re-digested after each delta by hashing only the delta.

use v2v_codec::Packet;
use v2v_container::VideoStream;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(PRIME);
    h ^ (h >> 29)
}

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
}

fn fold_packet(h: u64, p: &Packet) -> u64 {
    // The same facts the `.svc` packet table stores: length, keyframe
    // flag, payload. Timestamps are implied by the grid in the header.
    let h = mix(h, (p.data.len() as u64) << 1 | u64::from(p.keyframe));
    fold_bytes(h, &p.data)
}

fn finish(stream: &VideoStream, body: u64) -> u64 {
    let header = format!(
        "{:?}|{}|{}|{}",
        stream.params(),
        stream.start(),
        stream.frame_dur(),
        stream.len()
    );
    mix(fold_bytes(OFFSET, header.as_bytes()), body)
}

/// Digest of a whole stream: equal exactly when the `.svc` bytes are.
pub fn of(stream: &VideoStream) -> u64 {
    let body = stream.packets().iter().fold(OFFSET, fold_packet);
    finish(stream, body)
}

/// Digest of raw `.svc` bytes (an HTTP response body).
pub fn of_svc(bytes: &[u8]) -> Option<(u64, usize)> {
    let stream = v2v_container::svc_from_bytes(bytes).ok()?;
    Some((of(&stream), stream.len()))
}

/// Running digest of a stream that is rewritten from some frame on.
pub struct Running {
    /// Body state after each packet count; `states[k]` covers `k` packets.
    states: Vec<u64>,
}

impl Running {
    pub fn new() -> Running {
        Running {
            states: vec![OFFSET],
        }
    }

    /// `cumulative` is the stream after a splice at `from`; returns its
    /// digest having hashed only packets `from..`.
    pub fn splice(&mut self, from: usize, cumulative: &VideoStream) -> u64 {
        self.states.truncate(from.min(self.states.len() - 1) + 1);
        let held = self.states.len() - 1;
        for p in &cumulative.packets()[held.min(cumulative.len())..] {
            let h = *self.states.last().expect("never empty");
            self.states.push(fold_packet(h, p));
        }
        finish(cumulative, *self.states.last().expect("never empty"))
    }
}
