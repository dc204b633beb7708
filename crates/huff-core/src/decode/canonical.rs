//! Treeless canonical decoder.
//!
//! Decodes with only the `First`/`Entry`/`Count` arrays and the reverse
//! codebook — no tree traversal, `H`-bounded work per symbol, and a
//! cache-friendly footprint of `O(H + n)` words (the property that lets
//! the reverse codebook be cached on-chip for high decoding throughput).
//! The host resolves most symbols with one probe of the decode table
//! derived from those arrays ([`DecodeLut`]).

use super::lut::{DecodeLut, DEFAULT_LUT_BITS};
use crate::bitstream::BitReader;
use crate::codebook::CanonicalCodebook;
use crate::error::Result;

/// Decode exactly `count` symbols from a dense MSB-first stream.
pub fn decode(
    bytes: &[u8],
    bit_len: u64,
    count: usize,
    book: &CanonicalCodebook,
) -> Result<Vec<u16>> {
    let mut reader = BitReader::new(bytes, bit_len);
    decode_from(&mut reader, count, book)
}

/// Decode `count` symbols from an existing reader position, one
/// [`DecodeLut`] probe per symbol.
pub fn decode_from(
    reader: &mut BitReader<'_>,
    count: usize,
    book: &CanonicalCodebook,
) -> Result<Vec<u16>> {
    let mut out = vec![0; count];
    DecodeLut::build(book, DEFAULT_LUT_BITS).decode_into(book, reader, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook;
    use crate::encode::serial;

    fn setup(n: usize) -> (codebook::CanonicalCodebook, Vec<u16>) {
        let freqs: Vec<u64> = vec![100, 50, 25, 12, 6, 3, 2, 2];
        let book = codebook::parallel(&freqs, 4).unwrap();
        let syms: Vec<u16> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005) >> 33) as u16 % 8)
            .collect();
        (book, syms)
    }

    #[test]
    fn roundtrip_serial_encode() {
        let (book, syms) = setup(10_000);
        let enc = serial::encode(&syms, &book).unwrap();
        let dec = decode(&enc.bytes, enc.bit_len, syms.len(), &book).unwrap();
        assert_eq!(dec, syms);
    }

    #[test]
    fn roundtrip_empty() {
        let (book, _) = setup(0);
        let dec = decode(&[], 0, 0, &book).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn truncated_stream_errors() {
        let (book, syms) = setup(100);
        let enc = serial::encode(&syms, &book).unwrap();
        // Ask for one more symbol than encoded.
        assert!(decode(&enc.bytes, enc.bit_len, syms.len() + 1, &book).is_err());
    }

    #[test]
    fn decode_from_preserves_reader_position() {
        let (book, syms) = setup(64);
        let enc = serial::encode(&syms, &book).unwrap();
        let mut reader = BitReader::new(&enc.bytes, enc.bit_len);
        let first = decode_from(&mut reader, 32, &book).unwrap();
        let second = decode_from(&mut reader, 32, &book).unwrap();
        assert_eq!(first, syms[..32]);
        assert_eq!(second, syms[32..]);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn single_symbol_alphabet() {
        let book = codebook::parallel(&[0, 5], 2).unwrap();
        let syms = vec![1u16; 40];
        let enc = serial::encode(&syms, &book).unwrap();
        assert_eq!(enc.bit_len, 40);
        let dec = decode(&enc.bytes, enc.bit_len, 40, &book).unwrap();
        assert_eq!(dec, syms);
    }

    #[test]
    fn deep_codebook_roundtrip() {
        let lengths: Vec<u32> = (1..=30).chain([30]).collect();
        let book = codebook::CanonicalCodebook::from_lengths(&lengths).unwrap();
        let syms: Vec<u16> = (0..1000).map(|i| (i % 31) as u16).collect();
        let enc = serial::encode(&syms, &book).unwrap();
        let dec = decode(&enc.bytes, enc.bit_len, syms.len(), &book).unwrap();
        assert_eq!(dec, syms);
    }
}
