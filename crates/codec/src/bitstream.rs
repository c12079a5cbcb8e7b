//! Bitstream primitives: LEB128 varints, zigzag signed coding, and
//! (run, value) residual coding shared by the intra and inter coders.
//!
//! Residuals are read a whole coded unit at a time — an inter block's
//! `bw × bh` residuals, or an intra row — by one
//! [`RunDecoder::next_residuals`] call into a buffer the caller has
//! zeroed, so the reader stores only the nonzero values.

use crate::CodecError;

/// Encodes `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed value to unsigned.
#[inline]
pub fn zigzag(v: i32) -> u64 {
    ((v << 1) ^ (v >> 31)) as u32 as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i32 {
    let v = v as u32;
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// A cursor over packet payload bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    pub fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| CodecError::Corrupt("unexpected end of packet".into()))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` bytes.
    ///
    /// `n` comes straight from the bitstream (a varint length), so the
    /// end position is computed with checked arithmetic and the slice is
    /// taken through `get`: a hostile length yields `Corrupt`, never a
    /// wrap-around or an out-of-bounds slice.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|end| *end <= self.buf.len())
            .ok_or_else(|| CodecError::Corrupt("truncated byte run".into()))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| CodecError::Corrupt("truncated byte run".into()))?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a LEB128 varint.
    ///
    /// A value must fit 64 bits: an eleventh byte, or a tenth byte
    /// carrying bits past bit 63, is `Corrupt`.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 || (shift == 63 && b & 0x7E != 0) {
                return Err(CodecError::Corrupt("varint overflow".into()));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// Writes residuals with (zero-run, nonzero-value) coding.
///
/// Stream layout: repeated `(run: varint, value: zigzag varint)` pairs,
/// where `run` counts zero residuals preceding `value`; a final
/// trailing run of zeros is implied by the residual count.
pub struct RunCoder {
    run: u64,
}

impl Default for RunCoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RunCoder {
    /// A fresh coder.
    pub fn new() -> RunCoder {
        RunCoder { run: 0 }
    }

    /// Adds one residual.
    #[inline]
    pub fn push(&mut self, out: &mut Vec<u8>, residual: i32) {
        if residual == 0 {
            self.run += 1;
        } else {
            let code = zigzag(residual);
            if self.run < 0x80 && code < 0x80 {
                // Both fit one LEB128 byte: the pair is these two bytes.
                out.extend_from_slice(&[self.run as u8, code as u8]);
            } else {
                put_varint(out, self.run);
                put_varint(out, code);
            }
            self.run = 0;
        }
    }

    /// Flushes; any trailing zero run is implicit.
    pub fn finish(self, _out: &mut Vec<u8>) {}
}

/// Largest residual magnitude a stream may carry. Every residual is the
/// difference of two `u8` samples, quantized down, so no encoder writes
/// one larger; a bigger one can only come from a hostile stream, and
/// would overflow reconstruction (`residual * qstep`).
const MAX_RESIDUAL: u64 = 255;

/// Reads residuals produced by [`RunCoder`]. Yields exactly `count`
/// residuals then stops.
pub struct RunDecoder<'a, 'b> {
    reader: &'b mut Reader<'a>,
    pending_zeroes: u64,
    pending_value: Option<i32>,
    remaining: u64,
}

impl<'a, 'b> RunDecoder<'a, 'b> {
    /// Starts decoding `count` residuals from `reader`.
    pub fn new(reader: &'b mut Reader<'a>, count: u64) -> RunDecoder<'a, 'b> {
        RunDecoder {
            reader,
            pending_zeroes: 0,
            pending_value: None,
            remaining: count,
        }
    }

    /// Reads one `(run, value)` pair through the general varint path,
    /// refusing a value whose magnitude exceeds [`MAX_RESIDUAL`].
    fn pair(&mut self) -> Result<(u64, i32), CodecError> {
        let run = self.reader.varint()?;
        let code = self.reader.varint()?;
        // Zigzag codes up to `2 * MAX_RESIDUAL` are the magnitudes up to
        // `MAX_RESIDUAL`; checking the code also refuses codes past 32
        // bits, which `unzigzag` would truncate.
        if code > 2 * MAX_RESIDUAL {
            return Err(CodecError::Corrupt("residual out of range".into()));
        }
        Ok((run, unzigzag(code)))
    }

    /// Next residual: the per-sample reader the scalar oracles use.
    #[cfg(test)]
    pub fn next_residual(&mut self) -> Result<i32, CodecError> {
        if self.remaining == 0 {
            return Err(CodecError::Corrupt("residual overrun".into()));
        }
        self.remaining -= 1;
        if self.pending_zeroes > 0 {
            self.pending_zeroes -= 1;
            return Ok(0);
        }
        if let Some(v) = self.pending_value.take() {
            return Ok(v);
        }
        if self.reader.remaining() == 0 {
            // Implicit trailing zeros.
            return Ok(0);
        }
        let (run, value) = self.pair()?;
        // The pair covers `run` zeroes plus one value; one residual was
        // already consumed above, so a run longer than what is left means
        // the stream lies about its own length.
        if run > self.remaining {
            return Err(CodecError::Corrupt(
                "run length exceeds residual count".into(),
            ));
        }
        if run > 0 {
            self.pending_zeroes = run - 1;
            self.pending_value = Some(value);
            Ok(0)
        } else {
            Ok(value)
        }
    }

    /// Reads the next `out.len()` residuals into `out`, which the
    /// caller has zeroed.
    ///
    /// Only nonzero values are stored: a zero run, pending zeroes and
    /// the implicit trailing zeroes advance the index and write nothing,
    /// so a call costs one store per coded value, however long the runs
    /// a stream declares. Callers read a whole coded block (or intra
    /// row) per call into a buffer they zero once.
    ///
    /// Whenever no pair is pending, a fast path takes every pair whose
    /// run and zigzag code are both single bytes (`< 0x80`, nearly every
    /// pair this codec writes) straight from the reader's buffer, for as
    /// long as `run + 1` fits both the rest of `out` and the residual
    /// count. Anything else — a multi-byte varint, a pair straddling the
    /// end of `out` (it becomes pending), the implicit trailing zeroes,
    /// a run past the count — goes through the general loop below,
    /// which raises every error. A one-byte code is a magnitude of at
    /// most 64, so the fast path needs no range check.
    #[allow(clippy::indexing_slicing)] // every index is bounded by the `i < out.len()` loop condition: `n` is min'd against `out.len() - i`, and a fast-path pair is taken only when `run < room ≤ out.len() - i`
    pub fn next_residuals(&mut self, out: &mut [i32]) -> Result<(), CodecError> {
        let mut i = 0usize;
        while i < out.len() {
            if self.pending_zeroes == 0 && self.pending_value.is_none() {
                let bytes = self.reader.buf.get(self.reader.pos..).unwrap_or_default();
                let remaining = usize::try_from(self.remaining).unwrap_or(usize::MAX);
                let mut room = (out.len() - i).min(remaining);
                let (start, mut used) = (i, 0usize);
                for pair in bytes.chunks_exact(2) {
                    let &[run, code] = pair else { break };
                    let run = usize::from(run);
                    if (run | usize::from(code)) >= 0x80 || run >= room {
                        break;
                    }
                    i += run;
                    out[i] = unzigzag(u64::from(code));
                    i += 1;
                    room -= run + 1;
                    used += 2;
                }
                self.reader.pos += used;
                self.remaining -= (i - start) as u64;
                if i == out.len() {
                    break;
                }
            }
            if self.remaining == 0 {
                return Err(CodecError::Corrupt("residual overrun".into()));
            }
            if self.pending_zeroes > 0 {
                let n = (self.pending_zeroes.min(self.remaining) as usize).min(out.len() - i);
                self.pending_zeroes -= n as u64;
                self.remaining -= n as u64;
                i += n;
                continue;
            }
            if let Some(v) = self.pending_value.take() {
                out[i] = v;
                i += 1;
                self.remaining -= 1;
                continue;
            }
            if self.reader.remaining() == 0 {
                // Implicit trailing zeros up to the residual count.
                let n = (self.remaining as usize).min(out.len() - i);
                self.remaining -= n as u64;
                i += n;
                continue;
            }
            let (run, value) = self.pair()?;
            // The pair covers `run + 1` residuals; nothing of it has been
            // consumed yet, so reject runs that overrun the declared
            // residual count instead of silently clamping the zero run.
            if run >= self.remaining {
                return Err(CodecError::Corrupt(
                    "run length exceeds residual count".into(),
                ));
            }
            if run > 0 {
                self.pending_zeroes = run;
                self.pending_value = Some(value);
            } else {
                out[i] = value;
                i += 1;
                self.remaining -= 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [-1000, -1, 0, 1, 7, i32::MAX, i32::MIN + 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes get small codes.
        assert!(zigzag(-1) < 4);
        assert!(zigzag(1) < 4);
    }

    #[test]
    fn run_coding_round_trip() {
        let residuals: Vec<i32> = vec![0, 0, 5, -3, 0, 0, 0, 7, 0, 0];
        let mut buf = Vec::new();
        let mut coder = RunCoder::new();
        for &r in &residuals {
            coder.push(&mut buf, r);
        }
        coder.finish(&mut buf);
        let mut reader = Reader::new(&buf);
        let mut dec = RunDecoder::new(&mut reader, residuals.len() as u64);
        let got: Vec<i32> = (0..residuals.len())
            .map(|_| dec.next_residual().unwrap())
            .collect();
        assert_eq!(got, residuals);
    }

    #[test]
    fn all_zero_residuals_cost_nothing() {
        let mut buf = Vec::new();
        let mut coder = RunCoder::new();
        for _ in 0..10_000 {
            coder.push(&mut buf, 0);
        }
        coder.finish(&mut buf);
        assert!(buf.is_empty(), "all-zero stream must be empty");
        let mut reader = Reader::new(&buf);
        let mut dec = RunDecoder::new(&mut reader, 10_000);
        for _ in 0..10_000 {
            assert_eq!(dec.next_residual().unwrap(), 0);
        }
        assert!(dec.next_residual().is_err(), "overrun must error");
    }

    #[test]
    fn truncated_varint_errors() {
        let buf = [0x80u8, 0x80];
        let mut r = Reader::new(&buf);
        assert!(r.varint().is_err());
    }

    #[test]
    fn huge_byte_run_request_is_corrupt() {
        // A length near usize::MAX must fail cleanly (no add overflow,
        // no out-of-bounds slice), and a failed read must not move the
        // cursor.
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        assert!(r.bytes(usize::MAX).is_err());
        assert!(r.bytes(4).is_err());
        assert_eq!(r.bytes(3).unwrap(), &buf);
    }

    #[test]
    fn lying_run_length_is_corrupt() {
        // A run claiming more zeroes than residuals remain must be
        // rejected, not silently clamped into a truncated fill.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1000);
        put_varint(&mut buf, zigzag(5));

        let mut r = Reader::new(&buf);
        let mut dec = RunDecoder::new(&mut r, 4);
        let mut out = [0i32; 4];
        assert!(matches!(
            dec.next_residuals(&mut out),
            Err(CodecError::Corrupt(_))
        ));

        let mut r = Reader::new(&buf);
        let mut dec = RunDecoder::new(&mut r, 4);
        assert!(matches!(dec.next_residual(), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn exact_run_length_still_decodes() {
        // A run that exactly fills the residual count is legal: 3 zeroes
        // then a value, count 4.
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        put_varint(&mut buf, zigzag(-7));
        let mut r = Reader::new(&buf);
        let mut dec = RunDecoder::new(&mut r, 4);
        let mut out = [0i32; 4];
        dec.next_residuals(&mut out).unwrap();
        assert_eq!(out, [0, 0, 0, -7]);
    }

    #[test]
    fn a_tenth_varint_byte_past_bit_63_is_corrupt() {
        // Nine continuation bytes leave one bit (bit 63) for the tenth.
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(Reader::new(&max).varint().unwrap(), u64::MAX);
        for last in [0x02u8, 0x40, 0x7F] {
            let mut buf = vec![0xFFu8; 9];
            buf.push(last);
            assert!(
                matches!(Reader::new(&buf).varint(), Err(CodecError::Corrupt(_))),
                "tenth byte {last:#04x}"
            );
        }
        // An overlong encoding that stays inside 64 bits still reads.
        let mut overlong = vec![0x85u8];
        overlong.extend([0x80; 8]);
        overlong.push(0x00);
        assert_eq!(Reader::new(&overlong).varint().unwrap(), 5);
    }

    #[test]
    fn a_residual_past_255_is_corrupt() {
        let decode = |code: u64| {
            let mut buf = Vec::new();
            put_varint(&mut buf, 0);
            put_varint(&mut buf, code);
            let mut r = Reader::new(&buf);
            let mut out = [0i32; 1];
            let bulk = RunDecoder::new(&mut r, 1)
                .next_residuals(&mut out)
                .map(|()| out[0]);
            let mut r = Reader::new(&buf);
            let single = RunDecoder::new(&mut r, 1).next_residual();
            assert_eq!(bulk, single, "code {code}");
            bulk
        };
        assert_eq!(decode(zigzag(255)), Ok(255));
        assert_eq!(decode(zigzag(-255)), Ok(-255));
        for code in [
            zigzag(256),
            zigzag(-256),
            zigzag(1 << 30),
            zigzag(i32::MIN),
            // Would truncate to 1 through `unzigzag`'s u32 cast.
            (1 << 32) + 2,
            u64::MAX,
        ] {
            assert!(
                matches!(decode(code), Err(CodecError::Corrupt(_))),
                "code {code}"
            );
        }
    }

    #[test]
    fn push_writes_the_leb128_encoding_of_every_pair() {
        // Across the one-byte boundary of both the run and the code.
        for run in 0..=0x101u64 {
            for residual in -70..=70i32 {
                if residual == 0 {
                    continue;
                }
                let mut coder = RunCoder::new();
                let mut pushed = Vec::new();
                for _ in 0..run {
                    coder.push(&mut pushed, 0);
                }
                coder.push(&mut pushed, residual);
                let mut leb128 = Vec::new();
                put_varint(&mut leb128, run);
                put_varint(&mut leb128, zigzag(residual));
                assert_eq!(pushed, leb128, "run {run} residual {residual}");
            }
        }
    }

    /// The `next_residuals` loop as it stood before the one-byte fast
    /// path, kept as that path's oracle: every pair goes through the
    /// general varint read and the pending-state machine, and every
    /// zero is stored.
    fn next_residuals_general(
        dec: &mut RunDecoder<'_, '_>,
        out: &mut [i32],
    ) -> Result<(), CodecError> {
        let mut i = 0usize;
        while i < out.len() {
            if dec.remaining == 0 {
                return Err(CodecError::Corrupt("residual overrun".into()));
            }
            if dec.pending_zeroes > 0 {
                let n = (dec.pending_zeroes.min(dec.remaining) as usize).min(out.len() - i);
                out[i..i + n].fill(0);
                dec.pending_zeroes -= n as u64;
                dec.remaining -= n as u64;
                i += n;
                continue;
            }
            if let Some(v) = dec.pending_value.take() {
                out[i] = v;
                i += 1;
                dec.remaining -= 1;
                continue;
            }
            if dec.reader.remaining() == 0 {
                let n = (dec.remaining as usize).min(out.len() - i);
                out[i..i + n].fill(0);
                dec.remaining -= n as u64;
                i += n;
                continue;
            }
            let (run, value) = dec.pair()?;
            if run >= dec.remaining {
                return Err(CodecError::Corrupt(
                    "run length exceeds residual count".into(),
                ));
            }
            if run > 0 {
                dec.pending_zeroes = run;
                dec.pending_value = Some(value);
            } else {
                out[i] = value;
                i += 1;
                dec.remaining -= 1;
            }
        }
        Ok(())
    }

    /// One drawn `(kind, a, b)` token as stream bytes, plus the residuals
    /// it covers when it is a well-formed pair. With `hostile` off only
    /// well-formed pairs are written, so the decode can run to its end.
    fn token_bytes((kind, a, b): (u8, u64, u64), hostile: bool, out: &mut Vec<u8>) -> u64 {
        match (kind, hostile) {
            // A multi-byte run or code; codes past 510 are out of range.
            (4, _) => {
                let run = a % 400;
                put_varint(out, run);
                put_varint(out, b % if hostile { 1100 } else { 511 });
                run + 1
            }
            // An overlong ten-byte run, then a one-byte code.
            (5, false) => {
                out.push(0x80 | (a % 0x80) as u8);
                out.extend([0x80; 8]);
                out.extend([0x00, (b % 0x80) as u8]);
                a % 0x80 + 1
            }
            // A ten-byte run with bit 63 set (a lying run), or one with
            // bits past bit 63 (overflow).
            (5, true) => {
                if b & 1 == 0 {
                    put_varint(out, a | 1 << 63);
                    out.push(3);
                } else {
                    out.extend([0xFF; 9]);
                    out.extend([0x02 | (a as u8 & 0x7F), 1]);
                }
                0
            }
            // A run far past any residual count.
            (6, true) => {
                put_varint(out, 1_000_000 + a % 1000);
                out.push((b % 0x80) as u8);
                0
            }
            // Junk bytes.
            (7, true) => {
                out.extend(a.to_le_bytes().iter().take(1 + (b % 4) as usize));
                0
            }
            // One-byte pairs, mostly short runs: the fast path.
            _ => {
                let run = a % if a & 1 == 0 { 4 } else { 0x80 };
                out.extend([run as u8, (b % 0x80) as u8]);
                run + 1
            }
        }
    }

    /// Decodes `bytes` (declaring `count` residuals) through the reader
    /// and through the oracle, one slice of each length in `chunks` at a
    /// time, both into zeroed buffers. After every call the residuals,
    /// the outcome (error text included), the remaining count and the
    /// reader position must agree.
    fn reader_matches_oracle(
        bytes: &[u8],
        count: u64,
        chunks: &[usize],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut fast_reader = Reader::new(bytes);
        let mut oracle_reader = Reader::new(bytes);
        let mut fast = RunDecoder::new(&mut fast_reader, count);
        let mut oracle = RunDecoder::new(&mut oracle_reader, count);
        for &n in chunks {
            let mut got = vec![0; n];
            let mut want = vec![0; n];
            let got_res = fast.next_residuals(&mut got);
            let want_res = next_residuals_general(&mut oracle, &mut want);
            prop_assert_eq!(&got_res, &want_res);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(fast.remaining, oracle.remaining);
            prop_assert_eq!(fast.reader.pos, oracle.reader.pos);
            if got_res.is_err() {
                break;
            }
        }
        Ok(())
    }

    /// A stream of drawn tokens, cut short by `cut` bytes, with the
    /// residual count `slack` away from what its pairs cover.
    fn token_stream(
        tokens: &[(u8, u64, u64)],
        hostile: bool,
        cut: usize,
        slack: i64,
    ) -> (Vec<u8>, u64) {
        let mut bytes = Vec::new();
        let covered: u64 = tokens
            .iter()
            .map(|&t| token_bytes(t, hostile, &mut bytes))
            .sum();
        bytes.truncate(bytes.len().saturating_sub(cut));
        (bytes, covered.saturating_add_signed(slack))
    }

    fn tokens(max: usize) -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
        prop::collection::vec(
            (prop_oneof![Just(0u8), 0u8..8], any::<u64>(), any::<u64>()),
            0..max,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fast path decodes what the general loop decodes, over
        /// well-formed streams, streams with hostile pairs anywhere,
        /// truncated tails, and residual counts short of or past what
        /// the pairs cover. Slices are mostly 1..=40 residuals and
        /// sometimes up to 300, where a run byte of `0x80` or more would
        /// fit the room left.
        #[test]
        fn fast_path_matches_the_general_loop(
            tokens in tokens(48),
            hostile in any::<bool>(),
            slack in -6i64..24,
            cut in prop_oneof![Just(0usize), 0usize..4],
            chunks in prop::collection::vec(
                prop_oneof![1usize..=40, 1usize..=40, 1usize..=300],
                1..160,
            ),
        ) {
            let (bytes, count) = token_stream(&tokens, hostile, cut, slack);
            reader_matches_oracle(&bytes, count, &chunks)?;
        }

        /// The same agreement at the slice shapes the plane decoders
        /// use: a whole 16×16 inter block, the 16×4 edge block of a
        /// 180-row plane, and a 320-sample intra row.
        #[test]
        fn block_reads_match_the_general_loop(
            tokens in tokens(400),
            hostile in any::<bool>(),
            slack in -40i64..300,
            cut in prop_oneof![Just(0usize), 0usize..4],
            chunks in prop::collection::vec(
                prop_oneof![Just(256usize), Just(64), Just(320)],
                1..24,
            ),
        ) {
            let (bytes, count) = token_stream(&tokens, hostile, cut, slack);
            reader_matches_oracle(&bytes, count, &chunks)?;
        }
    }
}
