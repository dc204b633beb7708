//! Bit-exactness and reject-set properties of the host decode core.
//!
//! Every backend (`serial`, `chunked`, `lut`) decodes with one table probe
//! per symbol on a word-level bit window. Each must return exactly what a
//! bit-serial reference returns — one `CanonicalCodebook::decode_symbol`
//! walk per symbol, one bit per step — and fail exactly where that
//! reference fails. The properties cover random codebooks (deeper than the
//! 12-bit table, one-symbol and incomplete ones included), random chunk
//! geometry and reduction factors, breaking units, and corrupted streams.

use huff_core::codebook;
use huff_core::decode::{self, DecoderKind};
use huff_core::encode::{reduce_shuffle, BreakingStrategy, ChunkedStream, MergeConfig};
use huff_core::sparse::SparseOutliers;
use huff_core::CanonicalCodebook;
use proptest::prelude::*;

const KINDS: [DecoderKind; 3] = [DecoderKind::Serial, DecoderKind::Chunked, DecoderKind::Lut];

/// The reference decode: chunk by chunk from each chunk's bit offset, one
/// `decode_symbol` walk per coded symbol over bits read one at a time
/// straight from the bytes, breaking units looked up in the sidecar unit
/// by unit. `None` wherever the walk cannot produce the header's symbol
/// count.
fn reference(stream: &ChunkedStream, book: &CanonicalCodebook) -> Option<Vec<u16>> {
    if (stream.bytes.len() as u64) * 8 < stream.total_bits {
        return None;
    }
    let chunk_syms = stream.config.chunk_symbols();
    let unit_syms = stream.config.unit_symbols().max(1);
    let units_per_chunk = stream.config.units_per_chunk() as u64;
    let mut out = Vec::new();
    for ci in 0..stream.num_chunks() {
        let mut pos = stream.chunk_bit_offsets[ci];
        if pos > stream.total_bits {
            return None;
        }
        let count = chunk_syms.min(stream.num_symbols.saturating_sub(ci * chunk_syms));
        for u in 0..count.div_ceil(unit_syms) {
            let in_unit = unit_syms.min(count - u * unit_syms);
            match stream.outliers.lookup(ci as u64 * units_per_chunk + u as u64) {
                Some(raw) if raw.len() != in_unit => return None,
                Some(raw) => out.extend_from_slice(raw),
                None => {
                    for _ in 0..in_unit {
                        let sym = book.decode_symbol(|| {
                            if pos >= stream.total_bits {
                                return Err(huff_core::HuffError::CorruptStream("past end"));
                            }
                            let byte = stream.bytes[(pos / 8) as usize];
                            pos += 1;
                            Ok((byte >> (7 - (pos - 1) % 8)) & 1 == 1)
                        });
                        out.push(sym.ok()?);
                    }
                }
            }
        }
    }
    (out.len() == stream.num_symbols).then_some(out)
}

/// A codebook from `freqs` (each doubled `skew·i` times, which pushes
/// codes past the 12-bit table), with the symbols flagged in `drop`
/// removed (which leaves an incomplete code, Kraft sum < 1); at least one
/// symbol stays. Returns the book and its coded symbols.
fn book_from(freqs: &[u64], skew: u32, drop: &[bool]) -> (CanonicalCodebook, Vec<u16>) {
    let freqs: Vec<u64> =
        freqs.iter().enumerate().map(|(i, &f)| f << (skew * i as u32).min(24)).collect();
    let (mut lengths, _, _) = codebook::parallel_lengths(&freqs, 4).unwrap();
    for (l, &d) in lengths.iter_mut().zip(drop) {
        if d {
            *l = 0;
        }
    }
    if lengths.iter().all(|&l| l == 0) {
        lengths[0] = 1;
    }
    let coded = (0..lengths.len()).filter(|&s| lengths[s] > 0).map(|s| s as u16).collect();
    (CanonicalCodebook::from_lengths(&lengths).unwrap(), coded)
}

/// Damage `stream` in one of the ways a hostile or broken header or
/// payload can; `k` picks where. `kind` 0 leaves it intact.
fn corrupt(stream: &mut ChunkedStream, kind: u8, k: u64) {
    let n_chunks = stream.num_chunks();
    match kind {
        // A chunk offset past the end of the payload.
        1 if n_chunks > 0 => {
            stream.chunk_bit_offsets[(k % n_chunks as u64) as usize] =
                stream.total_bits + 1 + k % 64;
        }
        // A symbol count beyond what the payload encodes.
        2 => stream.num_symbols += 1 + (k % (2 * stream.config.chunk_symbols() as u64)) as usize,
        // An extra empty chunk, at the payload's end or past it.
        3 => {
            stream.chunk_bit_offsets.push(stream.total_bits + k % 2);
            stream.chunk_bit_lens.push(0);
        }
        // A missing chunk.
        4 if n_chunks > 0 => {
            stream.chunk_bit_offsets.pop();
            stream.chunk_bit_lens.pop();
        }
        // A breaking unit shorter than its unit.
        5 if !stream.outliers.is_empty() => {
            let victim = (k % stream.outliers.num_units() as u64) as usize;
            let units = stream
                .outliers
                .iter()
                .enumerate()
                .map(|(j, (idx, raw))| {
                    let keep = if j == victim { raw.len() - 1 } else { raw.len() };
                    (idx, raw[..keep].to_vec())
                })
                .collect();
            stream.outliers = SparseOutliers::from_units(units);
        }
        // Payload bytes cut short of the bit length.
        6 if !stream.bytes.is_empty() => {
            let keep = (k % stream.bytes.len() as u64) as usize;
            stream.bytes.truncate(keep);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Strict decode, intact or structurally corrupted: every backend
    /// returns exactly the reference's symbols, or fails exactly where the
    /// reference fails.
    #[test]
    fn every_backend_matches_the_bit_serial_walk(
        freqs in proptest::collection::vec(1u64..1_000, 1..48),
        skew in 0u32..3,
        drop in proptest::collection::vec(any::<bool>(), 48),
        picks in proptest::collection::vec(any::<u32>(), 0..3_000),
        magnitude in 3u32..12,
        reduction in 1u32..5,
        corruption in 0u8..7,
        k in any::<u64>(),
    ) {
        let (book, coded) = book_from(&freqs, skew, &drop[..freqs.len()]);
        let syms: Vec<u16> = picks.iter().map(|&p| coded[p as usize % coded.len()]).collect();
        let config = MergeConfig::new(magnitude, reduction.min(magnitude - 1));
        let mut stream =
            reduce_shuffle::encode(&syms, &book, config, BreakingStrategy::SparseSidecar).unwrap();
        if corruption == 0 {
            prop_assert_eq!(reference(&stream, &book).as_ref(), Some(&syms));
        }
        corrupt(&mut stream, corruption, k);
        let want = reference(&stream, &book);
        for kind in KINDS {
            let got = decode::decode_stream(&stream, &book, kind).ok();
            prop_assert_eq!(
                &got, &want,
                "{} disagrees with the walk (corruption {}, max_len {})",
                kind.name(), corruption, book.max_len()
            );
            // With nothing marked damaged, best effort decodes the same
            // symbols whenever the strict walk succeeds.
            if let Some(want) = &want {
                let damaged = vec![false; stream.num_chunks()];
                let (got, report) =
                    decode::decode_stream_best_effort(&stream, &book, &damaged, 0, kind);
                prop_assert_eq!(&got, want, "{} best effort diverged", kind.name());
                prop_assert!(report.is_clean());
            }
        }
    }

    /// A flipped payload bit: the per-chunk backends still match the walk
    /// exactly. The gap-array backend additionally requires each chunk to
    /// end exactly at its recorded bit length, so it may reject more, but
    /// whatever it accepts is the walk's output.
    #[test]
    fn payload_bit_flips_match_the_walk(
        freqs in proptest::collection::vec(1u64..1_000, 2..40),
        skew in 0u32..3,
        picks in proptest::collection::vec(any::<u32>(), 1..3_000),
        magnitude in 3u32..12,
        reduction in 1u32..4,
        k in any::<u64>(),
    ) {
        let (book, coded) = book_from(&freqs, skew, &[]);
        let syms: Vec<u16> = picks.iter().map(|&p| coded[p as usize % coded.len()]).collect();
        let config = MergeConfig::new(magnitude, reduction.min(magnitude - 1));
        let mut stream =
            reduce_shuffle::encode(&syms, &book, config, BreakingStrategy::SparseSidecar).unwrap();
        prop_assume!(stream.total_bits > 0);
        let bit = k % stream.total_bits;
        stream.bytes[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
        let want = reference(&stream, &book);
        for kind in [DecoderKind::Serial, DecoderKind::Chunked] {
            let got = decode::decode_stream(&stream, &book, kind).ok();
            prop_assert_eq!(&got, &want, "{} disagrees with the walk", kind.name());
        }
        if let Ok(got) = decode::decode_stream(&stream, &book, DecoderKind::Lut) {
            prop_assert_eq!(Some(got), want, "lut accepted what the walk decodes differently");
        }
    }
}
