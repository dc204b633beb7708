//! MSB-first bit streams.
//!
//! All encoders emit, and the decoder consumes, a dense MSB-first
//! bitstream: the first bit of the stream is the most significant bit of
//! the first byte. [`BitWriter`] backs the serial and multithreaded CPU
//! encoders; [`BitReader`] backs every decoder.

use crate::codeword::Codeword;
use crate::error::{HuffError, Result};

/// An append-only MSB-first bit buffer.
///
/// Every append is word-level: a field of up to 64 bits is merged with
/// the trailing partial byte in one accumulator (64-bit, or 128-bit when
/// the two exceed 64 bits) and stored as bytes; [`push_words`] copies
/// whole u32 words with one shift and merge each.
///
/// [`push_words`]: BitWriter::push_words
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    /// Written bytes; when `len_bits % 8 != 0` the last one holds the
    /// trailing partial bits, MSB-aligned and zero-padded.
    buf: Vec<u8>,
    /// Total bits written.
    len_bits: u64,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// An empty writer with capacity for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        BitWriter { buf: Vec::with_capacity(bits.div_ceil(8)), len_bits: 0 }
    }

    /// Bits in the trailing partial byte (0..8).
    fn fill(&self) -> u32 {
        (self.len_bits % 8) as u32
    }

    /// Append one bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    /// Append the `len` low bits of `bits`, MSB of the field first.
    #[inline]
    pub fn push_bits(&mut self, bits: u64, len: u32) {
        debug_assert!(len <= 64);
        debug_assert!(len == 64 || bits >> len == 0);
        if len == 0 {
            return;
        }
        let fill = self.fill();
        let head = if fill > 0 { self.buf.pop().expect("partial byte") >> (8 - fill) } else { 0 };
        // The partial byte's bits, then the field: at most 7 + 64 bits,
        // MSB-aligned in the accumulator.
        let total = fill + len;
        if total <= 64 {
            let acc = if fill == 0 { bits } else { (u64::from(head) << len) | bits };
            let acc = acc << (64 - total);
            for &b in &acc.to_be_bytes()[..total.div_ceil(8) as usize] {
                self.buf.push(b);
            }
        } else {
            let acc = ((u128::from(head) << len) | u128::from(bits)) << (128 - total);
            self.buf.extend_from_slice(&acc.to_be_bytes()[..total.div_ceil(8) as usize]);
        }
        self.len_bits += u64::from(len);
    }

    /// Append the first `len` bits of `words`, MSB of `words[0]` first —
    /// the coalescing copy of one chunk's u32 payload cells. Each whole
    /// word costs one shift and merge with the carried partial byte.
    ///
    /// # Panics
    /// Panics if `words` holds fewer than `len` bits.
    pub fn push_words(&mut self, words: &[u32], len: u64) {
        let full = (len / 32) as usize;
        let tail = (len % 32) as u32;
        let fill = self.fill();
        // Exactly the bytes the finished append occupies, so a writer sized
        // by `with_capacity_bits` never regrows.
        let need = (self.len_bits + len).div_ceil(8) as usize;
        self.buf.reserve(need.saturating_sub(self.buf.len()));
        // The partial byte's bits, right-aligned, carried across words.
        let mut carry = if fill > 0 {
            u64::from(self.buf.pop().expect("partial byte") >> (8 - fill))
        } else {
            0
        };
        for &w in &words[..full] {
            let acc = (carry << 32) | u64::from(w);
            self.buf.extend_from_slice(&((acc >> fill) as u32).to_be_bytes());
            carry = acc & ((1 << fill) - 1);
        }
        if fill > 0 {
            self.buf.push((carry << (8 - fill)) as u8);
        }
        self.len_bits += 32 * full as u64;
        if tail > 0 {
            self.push_bits(u64::from(words[full] >> (32 - tail)), tail);
        }
    }

    /// Append a codeword.
    #[inline]
    pub fn push_code(&mut self, code: Codeword) {
        self.push_bits(code.bits(), code.len());
    }

    /// Total bits written so far.
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Finish, returning the byte buffer (trailing bits zero-padded) and
    /// the exact bit length.
    pub fn finish(self) -> (Vec<u8>, u64) {
        (self.buf, self.len_bits)
    }

    /// Borrow the bytes written so far (trailing partial byte included).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append another writer's content, preserving bit alignment: one
    /// 64-bit field per eight bytes of `other`.
    pub fn append(&mut self, other: &BitWriter) {
        let mut remaining = other.len_bits;
        for chunk in other.buf.chunks(8) {
            let take = remaining.min(64) as u32;
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.push_bits(u64::from_be_bytes(word) >> (64 - take), take);
            remaining -= u64::from(take);
        }
    }
}

/// An MSB-first bit cursor over a byte slice.
///
/// The reader keeps a 64-bit window of the stream bits at the cursor,
/// refilled eight bytes at a time from the slice, so peeking, reading and
/// skipping are O(1) shifts. Reads wider than the loaded part of the
/// window assemble their bits straight from the slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next bit position.
    pos: u64,
    /// Total readable bits.
    len_bits: u64,
    /// The stream bits from `pos` on, MSB-aligned. The top `avail` are
    /// loaded from `buf`; every lower bit is zero or the slice bit at its
    /// place, so a refill can OR bytes in over them.
    window: u64,
    /// Loaded bits in `window`; `pos + avail` is always byte-aligned.
    avail: u32,
}

/// Loaded window bits [`BitReader::window`] guarantees (short of the
/// slice's end) — at least the widest decode table index.
const WINDOW_BITS: u32 = 32;

impl<'a> BitReader<'a> {
    /// A reader over `buf` exposing exactly `len_bits` bits.
    ///
    /// # Panics
    /// Panics if `buf` is too short for `len_bits`.
    pub fn new(buf: &'a [u8], len_bits: u64) -> Self {
        assert!(
            (buf.len() as u64) * 8 >= len_bits,
            "buffer of {} bytes cannot hold {} bits",
            buf.len(),
            len_bits
        );
        let mut reader = BitReader { buf, pos: 0, len_bits, window: 0, avail: 0 };
        reader.refill();
        reader
    }

    /// Bits remaining.
    pub fn remaining(&self) -> u64 {
        self.len_bits - self.pos
    }

    /// Current bit position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// The 64 stream bits at the cursor, MSB-aligned, topped up first so
    /// that the top `min(32, remaining())` are exact. The rest are
    /// unspecified (zero past the slice, or slice bits past `len_bits`).
    #[inline]
    pub(crate) fn window(&mut self) -> u64 {
        if self.avail < WINDOW_BITS {
            self.refill();
        }
        self.window
    }

    /// Top the window up to at least 57 loaded bits (fewer only when the
    /// slice runs out).
    #[inline]
    fn refill(&mut self) {
        if self.avail > 56 {
            return;
        }
        let next = ((self.pos + u64::from(self.avail)) / 8) as usize;
        match self.buf.get(next..next + 8) {
            Some(bytes) => {
                let raw = u64::from_be_bytes(bytes.try_into().expect("eight bytes"));
                self.window |= raw >> self.avail;
                self.avail += (64 - self.avail) & !7;
            }
            None => self.refill_tail(next),
        }
    }

    /// [`refill`](Self::refill) within the slice's last eight bytes: one
    /// byte at a time.
    #[cold]
    fn refill_tail(&mut self, next: usize) {
        for &b in self.buf.get(next..).unwrap_or_default() {
            if self.avail > 56 {
                break;
            }
            self.window |= u64::from(b) << (56 - self.avail);
            self.avail += 8;
        }
    }

    /// Move the cursor `len <= remaining()` bits forward.
    #[inline]
    pub(crate) fn advance(&mut self, len: u64) {
        debug_assert!(len <= self.remaining());
        if len < u64::from(self.avail) {
            self.window <<= len;
            self.avail -= len as u32;
            self.pos += len;
        } else {
            // Past the loaded bits: reload from the partial byte at `pos`.
            self.pos += len;
            let off = (self.pos % 8) as u32;
            match self.buf.get((self.pos / 8) as usize) {
                Some(&b) => {
                    self.window = u64::from(b) << (56 + off);
                    self.avail = 8 - off;
                }
                None => {
                    self.window = 0;
                    self.avail = 0;
                }
            }
            self.refill();
        }
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Read `len` bits MSB-first into the low bits of a `u64`.
    #[inline]
    pub fn read_bits(&mut self, len: u32) -> Result<u64> {
        let v = self.peek_bits(len)?;
        self.advance(u64::from(len));
        Ok(v)
    }

    /// Read `len` bits MSB-first without consuming them.
    ///
    /// The multi-bit LUT decoder ([`crate::decode::lut`]) probes the
    /// window, looks the prefix up, then consumes only the bits the
    /// matched codeword actually used.
    #[inline]
    pub fn peek_bits(&self, len: u32) -> Result<u64> {
        debug_assert!(len <= 64);
        if u64::from(len) > self.remaining() {
            return Err(HuffError::CorruptStream("read past end of bitstream"));
        }
        if len == 0 {
            return Ok(0);
        }
        if len <= self.avail {
            return Ok(self.window >> (64 - len));
        }
        // Up to 64 bits at an unaligned cursor span up to nine bytes.
        let first = (self.pos / 8) as usize;
        let span = &self.buf[first..self.buf.len().min(first + 9)];
        let mut bytes = [0u8; 16];
        bytes[..span.len()].copy_from_slice(span);
        let wide = u128::from_be_bytes(bytes) << (self.pos % 8);
        Ok((wide >> (128 - len)) as u64)
    }

    /// Skip `len` bits.
    pub fn skip(&mut self, len: u64) -> Result<()> {
        if len > self.remaining() {
            return Err(HuffError::CorruptStream("skip past end of bitstream"));
        }
        self.advance(len);
        Ok(())
    }
}

/// Pack a `(bits, len)` sequence of 32-bit words holding `total_bits` of
/// payload into bytes — the final layout of the GPU coalescing-copy stage.
pub fn words_to_bytes(words: &[u32], total_bits: u64) -> Vec<u8> {
    let nbytes = (total_bits as usize).div_ceil(8);
    let mut out = Vec::with_capacity(nbytes);
    for w in words {
        out.extend_from_slice(&w.to_be_bytes());
        if out.len() >= nbytes + 4 {
            break;
        }
    }
    out.truncate(nbytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, false, true, true, false];
        for &b in &pattern {
            w.push_bit(b);
        }
        let (buf, len) = w.finish();
        assert_eq!(len, 10);
        let mut r = BitReader::new(&buf, len);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn push_bits_msb_first() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push_bits(0b0, 1);
        w.push_bits(0b111, 3);
        let (buf, len) = w.finish();
        assert_eq!(len, 8);
        assert_eq!(buf, vec![0b1011_0111]);
    }

    #[test]
    fn push_bits_across_byte_boundary() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        w.push_bits(0x3FF, 10); // ten 1-bits
        let (buf, len) = w.finish();
        assert_eq!(len, 13);
        assert_eq!(buf, vec![0b1011_1111, 0b1111_1000]);
    }

    #[test]
    fn push_64_bit_code() {
        let mut w = BitWriter::new();
        let c = Codeword::new(u64::MAX, 64);
        w.push_code(c);
        let (buf, len) = w.finish();
        assert_eq!(len, 64);
        assert!(buf.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn read_bits_matches_written() {
        let mut w = BitWriter::new();
        w.push_bits(0xDEAD_BEEF, 32);
        w.push_bits(0x5, 3);
        let (buf, len) = w.finish();
        let mut r = BitReader::new(&buf, len);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_bits(3).unwrap(), 0x5);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn read_bits_zero_len() {
        let mut r = BitReader::new(&[0xFF], 8);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.position(), 0);
    }

    #[test]
    fn peek_bits_does_not_consume() {
        let mut w = BitWriter::new();
        w.push_bits(0b1_0110_1101, 9);
        let (buf, len) = w.finish();
        let mut r = BitReader::new(&buf, len);
        assert_eq!(r.peek_bits(5).unwrap(), 0b10110);
        assert_eq!(r.position(), 0);
        r.skip(3).unwrap();
        assert_eq!(r.peek_bits(6).unwrap(), 0b101101);
        assert_eq!(r.position(), 3);
        assert!(r.peek_bits(7).is_err()); // only 6 bits remain
    }

    #[test]
    fn skip_and_remaining() {
        let buf = [0u8; 4];
        let mut r = BitReader::new(&buf, 32);
        r.skip(20).unwrap();
        assert_eq!(r.remaining(), 12);
        assert!(r.skip(13).is_err());
    }

    #[test]
    fn append_preserves_alignment() {
        let mut a = BitWriter::new();
        a.push_bits(0b101, 3);
        let mut b = BitWriter::new();
        b.push_bits(0b11001, 5);
        b.push_bits(0b0110, 4);
        a.append(&b);
        let (buf, len) = a.finish();
        assert_eq!(len, 12);
        let mut r = BitReader::new(&buf, len);
        assert_eq!(r.read_bits(12).unwrap(), 0b1011_1001_0110);
    }

    #[test]
    fn append_empty_is_noop() {
        let mut a = BitWriter::new();
        a.push_bits(0b1, 1);
        a.append(&BitWriter::new());
        assert_eq!(a.len_bits(), 1);
    }

    #[test]
    fn words_to_bytes_truncates_to_bits() {
        let words = [0xAABBCCDD, 0x11223344];
        let bytes = words_to_bytes(&words, 40);
        assert_eq!(bytes, vec![0xAA, 0xBB, 0xCC, 0xDD, 0x11]);
    }

    #[test]
    fn words_to_bytes_empty() {
        assert!(words_to_bytes(&[], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn reader_rejects_short_buffer() {
        let _ = BitReader::new(&[0u8; 1], 9);
    }

    #[test]
    fn push_words_matches_bitwise_append_at_every_alignment() {
        let words = [0xDEAD_BEEFu32, 0x0123_4567, 0xFFFF_FFFF, 0x8000_0001];
        let bit = |i: u64| (words[(i / 32) as usize] >> (31 - i % 32)) & 1 == 1;
        for lead in 0..9u32 {
            for len in [0u64, 1, 7, 31, 32, 33, 64, 100, 128] {
                let mut fast = BitWriter::new();
                let mut slow = BitWriter::new();
                fast.push_bits((1u64 << lead) - 1, lead);
                slow.push_bits((1u64 << lead) - 1, lead);
                fast.push_words(&words, len);
                (0..len).for_each(|i| slow.push_bit(bit(i)));
                assert_eq!(fast.finish(), slow.finish(), "lead {lead}, len {len}");
            }
        }
    }

    #[test]
    fn wide_reads_at_unaligned_positions() {
        let bytes: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let total = bytes.len() as u64 * 8;
        let bit = |i: u64| u64::from((bytes[(i / 8) as usize] >> (7 - i % 8)) & 1);
        for start in 0..20u64 {
            for len in [1u32, 12, 56, 57, 58, 63, 64] {
                let mut r = BitReader::new(&bytes, total);
                r.skip(start).unwrap();
                let want = (0..u64::from(len)).fold(0u64, |v, i| (v << 1) | bit(start + i));
                assert_eq!(r.peek_bits(len).unwrap(), want, "start {start}, len {len}");
                assert_eq!(r.read_bits(len).unwrap(), want, "start {start}, len {len}");
                assert_eq!(r.position(), start + u64::from(len));
            }
        }
    }

    #[test]
    fn writer_capacity_constructor() {
        let w = BitWriter::with_capacity_bits(100);
        assert_eq!(w.len_bits(), 0);
        assert!(w.as_bytes().is_empty());
    }
}
