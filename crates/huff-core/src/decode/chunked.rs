//! Parallel per-chunk decoder for [`ChunkedStream`]s.
//!
//! Chunking exists exactly to "facilitate the reverse process, decoding"
//! (Section III-A): every chunk's bit offset is known from the prefix sum,
//! so chunks decode independently in parallel, each straight into its own
//! slice of the output. Within a chunk a symbol costs one [`DecodeLut`]
//! probe on the reader's 64-bit window; only codewords longer than the
//! table (or cut by the stream end) fall back to the `First`/`Entry`
//! walk. Breaking units are spliced back from the sparse sidecar at unit
//! boundaries — a breaking unit contributed zero bits to the chunk
//! payload, and its raw symbols replace the decode at that position.
//!
//! Chunk independence is also what makes *recovery* possible: when a
//! chunk's payload bytes are damaged (see [`crate::integrity`]), every
//! other chunk still decodes from its own offset.
//! [`decode_best_effort`] exploits this — damaged chunks are
//! sentinel-filled (except their breaking units, whose raw symbols live
//! in the header sidecar and survive payload damage) while intact chunks
//! decode normally.

use super::lut::{DecodeLut, DEFAULT_LUT_BITS};
use crate::bitstream::BitReader;
use crate::codebook::CanonicalCodebook;
use crate::encode::ChunkedStream;
use crate::error::{HuffError, Result};
use crate::integrity::RecoveryReport;
use rayon::prelude::*;

/// Walk chunk `ci`'s output `out` in order as runs: each maximal run of
/// coded units is handed to `visit` with `None`, each breaking unit with
/// its raw symbols from the sparse sidecar. The sidecar is searched once
/// per chunk, then walked linearly.
pub(crate) fn for_each_run<'s>(
    stream: &'s ChunkedStream,
    ci: usize,
    out: &mut [u16],
    mut visit: impl FnMut(&mut [u16], Option<&'s [u16]>) -> Result<()>,
) -> Result<()> {
    let unit_syms = stream.config.unit_symbols().max(1);
    let first = ci as u64 * stream.config.units_per_chunk() as u64;
    let end = first + out.len().div_ceil(unit_syms) as u64;
    let mut k = stream.outliers.rank(first);
    let mut at = 0;
    loop {
        let next = stream.outliers.unit(k).filter(|&(idx, _)| idx < end);
        let run_end = next.map_or(out.len(), |(idx, _)| (idx - first) as usize * unit_syms);
        if run_end > at {
            visit(&mut out[at..run_end], None)?;
        }
        let Some((_, raw)) = next else {
            return Ok(());
        };
        at = (run_end + unit_syms).min(out.len());
        visit(&mut out[run_end..at], Some(raw))?;
        k += 1;
    }
}

/// The zeroed output of a strict decode, once the chunk table is known to
/// cover `num_symbols`.
pub(crate) fn strict_output(stream: &ChunkedStream) -> Result<Vec<u16>> {
    let covered = (stream.num_chunks() as u64).saturating_mul(stream.config.chunk_symbols() as u64);
    if covered < stream.num_symbols as u64 {
        return Err(HuffError::CorruptStream("decoded count disagrees with header"));
    }
    Ok(vec![0; stream.num_symbols])
}

/// Decode chunk `ci` of `stream` into `out`, its output symbols. A chunk
/// past the symbol count gets an empty `out`: it decodes nothing, but its
/// offset must still lie inside the payload.
fn decode_chunk(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    lut: &DecodeLut,
    ci: usize,
    out: &mut [u16],
) -> Result<()> {
    if (stream.bytes.len() as u64).saturating_mul(8) < stream.total_bits {
        return Err(HuffError::CorruptStream("payload shorter than its bit length"));
    }
    let mut reader = BitReader::new(&stream.bytes, stream.total_bits);
    reader.skip(stream.chunk_bit_offsets[ci])?;
    for_each_run(stream, ci, out, |run, raw| match raw {
        Some(raw) if raw.len() != run.len() => {
            Err(HuffError::CorruptStream("outlier unit length mismatch"))
        }
        Some(raw) => {
            run.copy_from_slice(raw);
            Ok(())
        }
        None => lut.decode_into(book, &mut reader, run),
    })
}

/// Decode a chunked stream back to symbols, one worker per chunk.
pub fn decode(stream: &ChunkedStream, book: &CanonicalCodebook) -> Result<Vec<u16>> {
    decode_all(stream, book, true)
}

/// Decode a chunked stream on a single thread, chunk by chunk — the
/// serial baseline the paper's decoders are measured against. Output is
/// bit-exact with [`decode`] (and with [`crate::decode::lut::decode`]).
pub fn decode_serial(stream: &ChunkedStream, book: &CanonicalCodebook) -> Result<Vec<u16>> {
    decode_all(stream, book, false)
}

/// Strict decode of every chunk, fanned out over rayon when `parallel`.
fn decode_all(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    parallel: bool,
) -> Result<Vec<u16>> {
    let lut = DecodeLut::build(book, DEFAULT_LUT_BITS);
    let mut out = strict_output(stream)?;
    let chunk_syms = stream.config.chunk_symbols();
    let chunk = |(ci, o): (usize, &mut [u16])| decode_chunk(stream, book, &lut, ci, o);
    if parallel {
        out.par_chunks_mut(chunk_syms).enumerate().try_for_each(chunk)?;
    } else {
        out.chunks_mut(chunk_syms).enumerate().try_for_each(chunk)?;
    }
    for ci in out.len().div_ceil(chunk_syms)..stream.num_chunks() {
        chunk((ci, &mut []))?;
    }
    Ok(out)
}

/// Append chunk-local `lost` ranges of the chunk starting at symbol
/// `base` to `report`, merging runs that meet across chunk boundaries.
fn report_lost(report: &mut RecoveryReport, base: usize, lost: &[(usize, usize)]) {
    for &(s, e) in lost {
        report.symbols_lost += e - s;
        match report.damaged_ranges.last_mut() {
            Some(last) if last.1 == base + s => last.1 = base + e,
            _ => report.damaged_ranges.push((base + s, base + e)),
        }
    }
}

/// The best-effort skeleton shared by every decoder backend: decode each
/// chunk into its slice of the output with `decode_one` unless it is
/// marked damaged (or its decode fails), sentinel-filling what is lost,
/// then stitch the damage report together. `parallel` selects rayon
/// fan-out vs. a single-thread loop (the `serial` decoder).
pub(crate) fn decode_best_effort_with<F>(
    stream: &ChunkedStream,
    damaged: &[bool],
    sentinel: u16,
    parallel: bool,
    decode_one: F,
) -> (Vec<u16>, RecoveryReport)
where
    F: Fn(usize, &mut [u16]) -> Result<()> + Sync,
{
    let n_chunks = stream.num_chunks();
    let chunk_syms = stream.config.chunk_symbols();
    let mut symbols = vec![0; stream.num_symbols.min(n_chunks.saturating_mul(chunk_syms))];
    // Per chunk: the chunk-local lost ranges, or `None` when it decoded.
    let recover = |(ci, out): (usize, &mut [u16])| -> Option<Vec<(usize, usize)>> {
        let marked = damaged.get(ci).copied().unwrap_or(false);
        if !marked && decode_one(ci, out).is_ok() {
            return None;
        }
        Some(fill_damaged_chunk(stream, ci, sentinel, out))
    };
    let mut parts: Vec<Option<Vec<(usize, usize)>>> = if parallel {
        symbols.par_chunks_mut(chunk_syms).enumerate().map(recover).collect()
    } else {
        symbols.chunks_mut(chunk_syms).enumerate().map(recover).collect()
    };
    parts.extend((parts.len()..n_chunks).map(|ci| recover((ci, &mut []))));

    let mut report = RecoveryReport::clean(n_chunks);
    for (ci, lost) in parts.iter().enumerate() {
        if let Some(lost) = lost {
            report.damaged_chunks.push(ci);
            report_lost(&mut report, ci * chunk_syms, lost);
        }
    }
    (symbols, report)
}

/// The sentinel fill for one damaged chunk, written into `out` (its
/// output symbols): breaking units come back exactly from the sidecar,
/// everything else becomes `sentinel`. Returns the `[start, end)`
/// *chunk-local* ranges that were sentinel-filled.
pub(crate) fn fill_damaged_chunk(
    stream: &ChunkedStream,
    ci: usize,
    sentinel: u16,
    out: &mut [u16],
) -> Vec<(usize, usize)> {
    let mut lost: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for_each_run(stream, ci, out, |run, raw| {
        match raw {
            Some(raw) if raw.len() == run.len() => run.copy_from_slice(raw),
            _ => {
                run.fill(sentinel);
                // Merge with the previous run when adjacent.
                match lost.last_mut() {
                    Some(last) if last.1 == start => last.1 = start + run.len(),
                    _ => lost.push((start, start + run.len())),
                }
            }
        }
        start += run.len();
        Ok(())
    })
    .expect("the fill visitor never fails");
    lost
}

/// Decode every chunk not marked in `damaged` (and every marked chunk's
/// breaking units, which live in the header sidecar); sentinel-fill the
/// rest. Chunks whose decode fails despite a clean checksum — possible
/// under [`crate::integrity::Verify::None`] — are sentinel-filled too.
/// Never panics and never returns an error: the report says what was
/// lost.
pub fn decode_best_effort(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    damaged: &[bool],
    sentinel: u16,
) -> (Vec<u16>, RecoveryReport) {
    let lut = DecodeLut::build(book, DEFAULT_LUT_BITS);
    decode_best_effort_with(stream, damaged, sentinel, true, |ci, out| {
        decode_chunk(stream, book, &lut, ci, out)
    })
}

/// Single-thread variant of [`decode_best_effort`]: same output, same
/// report, no rayon fan-out.
pub fn decode_serial_best_effort(
    stream: &ChunkedStream,
    book: &CanonicalCodebook,
    damaged: &[bool],
    sentinel: u16,
) -> (Vec<u16>, RecoveryReport) {
    let lut = DecodeLut::build(book, DEFAULT_LUT_BITS);
    decode_best_effort_with(stream, damaged, sentinel, false, |ci, out| {
        decode_chunk(stream, book, &lut, ci, out)
    })
}

/// The report [`decode_best_effort`] *would* produce for `damaged`,
/// without decoding anything — used by archive verification.
pub fn damage_report(stream: &ChunkedStream, damaged: &[bool]) -> RecoveryReport {
    let chunk_syms = stream.config.chunk_symbols();
    let mut report = RecoveryReport::clean(stream.num_chunks());
    for ci in 0..stream.num_chunks() {
        if !damaged.get(ci).copied().unwrap_or(false) {
            continue;
        }
        report.damaged_chunks.push(ci);
        let base = ci * chunk_syms;
        let mut out = vec![0; chunk_syms.min(stream.num_symbols.saturating_sub(base))];
        report_lost(&mut report, base, &fill_damaged_chunk(stream, ci, 0, &mut out));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook;
    use crate::encode::{reduce_shuffle, BreakingStrategy, MergeConfig};

    fn stream_and_book(n: usize) -> (ChunkedStream, CanonicalCodebook, Vec<u16>) {
        let freqs = [97u64, 53, 31, 17, 11, 7, 5, 3];
        let book = codebook::parallel(&freqs, 4).unwrap();
        let syms: Vec<u16> =
            (0..n).map(|i| ((i as u64).wrapping_mul(48271) >> 7) as u16 % 8).collect();
        let stream = reduce_shuffle::encode(
            &syms,
            &book,
            MergeConfig::new(9, 2),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        (stream, book, syms)
    }

    #[test]
    fn parallel_chunk_decode_matches_input() {
        let (stream, book, syms) = stream_and_book(20_000);
        assert_eq!(decode(&stream, &book).unwrap(), syms);
    }

    #[test]
    fn corrupt_offsets_detected() {
        let book = codebook::parallel(&[3, 1], 2).unwrap();
        let syms = vec![0u16, 1, 0, 0];
        let mut stream = reduce_shuffle::encode(
            &syms,
            &book,
            MergeConfig::new(2, 1),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        // Corrupt: point the first chunk past the end.
        if let Some(o) = stream.chunk_bit_offsets.first_mut() {
            *o = stream.total_bits + 100;
        }
        assert!(decode(&stream, &book).is_err());
    }

    #[test]
    fn best_effort_with_no_damage_matches_strict() {
        let (stream, book, syms) = stream_and_book(20_000);
        let damaged = vec![false; stream.num_chunks()];
        let (out, report) = decode_best_effort(&stream, &book, &damaged, u16::MAX);
        assert_eq!(out, syms);
        assert!(report.is_clean());
    }

    #[test]
    fn best_effort_sentinel_fills_marked_chunks() {
        let (stream, book, syms) = stream_and_book(20_000);
        let n = stream.num_chunks();
        assert!(n >= 3, "need several chunks, got {n}");
        let mut damaged = vec![false; n];
        damaged[1] = true;
        let (out, report) = decode_best_effort(&stream, &book, &damaged, 0xDEAD);
        assert_eq!(out.len(), syms.len());
        assert_eq!(report.damaged_chunks, vec![1]);
        assert!(report.symbols_lost > 0);
        let chunk_syms = stream.config.chunk_symbols();
        for i in 0..syms.len() {
            let in_damaged_range = report.damaged_ranges.iter().any(|&(s, e)| i >= s && i < e);
            if in_damaged_range {
                assert_eq!(out[i], 0xDEAD);
                assert!(i >= chunk_syms && i < 2 * chunk_syms);
            } else {
                assert_eq!(out[i], syms[i], "index {i}");
            }
        }
    }

    #[test]
    fn best_effort_catches_decode_failure_without_damage_flag() {
        let (mut stream, book, syms) = stream_and_book(10_000);
        // Break the last chunk's offset so its decode fails even though
        // no checksum flagged it.
        let n = stream.num_chunks();
        *stream.chunk_bit_offsets.last_mut().unwrap() = stream.total_bits + 9;
        let damaged = vec![false; n];
        let (out, report) = decode_best_effort(&stream, &book, &damaged, u16::MAX);
        assert_eq!(out.len(), syms.len());
        assert_eq!(report.damaged_chunks, vec![n - 1]);
    }

    #[test]
    fn serial_decode_matches_parallel() {
        let (stream, book, syms) = stream_and_book(20_000);
        assert_eq!(decode_serial(&stream, &book).unwrap(), syms);
        let damaged = vec![false; stream.num_chunks()];
        let par = decode_best_effort(&stream, &book, &damaged, 0xBEEF);
        let ser = decode_serial_best_effort(&stream, &book, &damaged, 0xBEEF);
        assert_eq!(par, ser);
    }

    #[test]
    fn single_nonzero_symbol_stream_decodes() {
        // Zero-entropy input: one coded symbol, 1-bit codes everywhere.
        let book = codebook::parallel(&[0, 9, 0], 2).unwrap();
        let syms = vec![1u16; 5_000];
        let stream = reduce_shuffle::encode(
            &syms,
            &book,
            MergeConfig::new(8, 2),
            BreakingStrategy::SparseSidecar,
        )
        .unwrap();
        assert_eq!(decode(&stream, &book).unwrap(), syms);
        assert_eq!(decode_serial(&stream, &book).unwrap(), syms);
    }

    #[test]
    fn header_count_exceeding_encoded_symbols_errors() {
        // A corrupt header claiming more symbols than the payload encodes
        // must surface a structured error from every strict path, and
        // never panic or loop.
        let (mut stream, book, syms) = stream_and_book(4_000);
        stream.num_symbols = syms.len() + stream.config.chunk_symbols();
        stream.chunk_bit_lens.push(0);
        stream.chunk_bit_offsets.push(stream.total_bits);
        assert!(matches!(decode(&stream, &book), Err(HuffError::CorruptStream(_))));
        assert!(matches!(decode_serial(&stream, &book), Err(HuffError::CorruptStream(_))));
    }

    #[test]
    fn damage_report_matches_best_effort_report() {
        let (stream, book, _) = stream_and_book(30_000);
        let mut damaged = vec![false; stream.num_chunks()];
        damaged[0] = true;
        if stream.num_chunks() > 2 {
            damaged[2] = true;
        }
        let (_, live) = decode_best_effort(&stream, &book, &damaged, 0);
        let dry = damage_report(&stream, &damaged);
        assert_eq!(live, dry);
    }
}
