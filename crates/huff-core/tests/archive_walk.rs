//! Characterization of the archive readers: a full parse
//! (`deserialize_with`) and a whole-archive range window
//! (`range_window(0..u64::MAX)`) read the same RSH1/RSH2 header and must
//! agree on everything they both produce — or fail with the same error —
//! under every verification level and recovery mode, on pristine,
//! truncated and payload-damaged archives alike. `layout` must tile every
//! archive it can walk.

use huff_core::archive::{self, CompressOptions};
use huff_core::integrity::{DecompressOptions, RecoveryMode, Section, Verify};
use huff_core::HuffError;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Skewed symbols: mostly a few common values, with rare ones drawn from
/// the whole alphabet so long codewords (and breaking units) appear.
fn symbols(n: usize, alphabet: u16, seed: u64) -> Vec<u16> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(16) {
                ((x >> 8) % u64::from(alphabet)) as u16
            } else {
                ((x >> 8) % 3) as u16
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Damage {
    Pristine,
    /// Keep this fraction (per mille) of the archive.
    Truncate(u64),
    /// Flip a bit of the payload byte at this fraction (per mille).
    FlipPayload(u64),
}

fn damage(packed: &[u8], d: Damage) -> Vec<u8> {
    match d {
        Damage::Pristine => packed.to_vec(),
        Damage::Truncate(pm) => packed[..(packed.len() as u64 * pm / 1000) as usize].to_vec(),
        Damage::FlipPayload(pm) => {
            let payload = archive::layout(packed)
                .unwrap()
                .into_iter()
                .find(|(s, _)| *s == Section::Payload)
                .map(|(_, r)| r)
                .unwrap();
            let mut out = packed.to_vec();
            if !payload.is_empty() {
                let at = payload.start + (payload.len() as u64 * pm / 1000) as usize;
                out[at.min(payload.end - 1)] ^= 0x24;
            }
            out
        }
    }
}

/// Two errors are "the same" when they are the same variant; checksum
/// mismatches must also name the same section, chunk and CRC values.
fn same_error(a: &HuffError, b: &HuffError) -> bool {
    match (a, b) {
        (HuffError::ChecksumMismatch { .. }, HuffError::ChecksumMismatch { .. }) => a == b,
        _ => std::mem::discriminant(a) == std::mem::discriminant(b),
    }
}

fn check_agreement(bytes: &[u8], opts: &DecompressOptions) {
    let parsed = archive::deserialize_with(bytes, opts);
    let window = archive::range_window(bytes, 0..u64::MAX, opts);
    match (parsed, window) {
        (Ok(p), Ok(w)) => {
            assert_eq!(w.stream.bytes, p.stream.bytes, "{opts:?}: payload bytes");
            assert_eq!(w.stream.chunk_bit_offsets, p.stream.chunk_bit_offsets, "{opts:?}");
            assert_eq!(w.stream.chunk_bit_lens, p.stream.chunk_bit_lens, "{opts:?}");
            assert_eq!(w.stream.outliers, p.stream.outliers, "{opts:?}: outliers");
            assert_eq!(w.stream, p.stream, "{opts:?}: stream");
            assert_eq!(w.book.lengths(), p.book.lengths(), "{opts:?}: book lengths");
            assert_eq!(w.damage, p.chunk_damage, "{opts:?}: damage flags");
            assert_eq!(w.symbol_bytes, p.symbol_bytes);
            assert_eq!((w.chunk_lo, w.chunk_hi), (0, p.stream.num_chunks()));
            assert_eq!(w.total_chunks, p.stream.num_chunks());
        }
        (Err(a), Err(b)) => assert!(same_error(&a, &b), "{opts:?}: {a} vs {b}"),
        (a, b) => panic!("{opts:?}: readers disagree: {:?} vs {:?}", a.err(), b.err()),
    }
}

fn check_layout_tiles(bytes: &[u8]) {
    let Ok(sections) = archive::layout(bytes) else { return };
    let mut cursor = 0;
    for (s, r) in &sections {
        assert_eq!(r.start, cursor, "{s} does not start where the previous section ended");
        assert!(r.end >= r.start);
        cursor = r.end;
    }
    assert_eq!(cursor, bytes.len(), "sections do not reach the end of the archive");
}

static WITH_OUTLIERS: AtomicUsize = AtomicUsize::new(0);
static DAMAGED_BEST_EFFORT: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn full_parse_and_whole_window_agree_on(
        n in 0usize..5000,
        seed in any::<u64>(),
        wide in any::<bool>(),
        v1 in any::<bool>(),
        magnitude in 5u32..9,
        reduction in 2u32..5,
        kind in 0u8..3,
        per_mille in 0u64..1000,
    ) {
        let symbol_bytes = if wide { 2 } else { 1 };
        let alphabet = if wide { 1024 } else { 256 };
        let data = symbols(n, alphabet, seed);
        let mut copts = CompressOptions::new(usize::from(alphabet));
        copts.symbol_bytes = symbol_bytes;
        copts.magnitude = magnitude;
        copts.reduction = Some(reduction.min(magnitude - 1));
        let mut packed = archive::compress(&data, &copts).unwrap();
        if v1 {
            let (stream, book, sb) = archive::deserialize(&packed).unwrap();
            packed = archive::serialize_v1(&stream, &book, sb).unwrap();
        }
        let pristine = archive::deserialize(&packed).unwrap().0;
        if !pristine.outliers.is_empty() {
            WITH_OUTLIERS.fetch_add(1, Ordering::Relaxed);
        }
        check_layout_tiles(&packed);
        assert!(archive::layout(&packed).is_ok(), "layout must walk a pristine archive");

        let d = match kind {
            0 => Damage::Pristine,
            1 => Damage::Truncate(per_mille),
            _ => Damage::FlipPayload(per_mille),
        };
        let bytes = damage(&packed, d);
        check_layout_tiles(&bytes);
        for mode in [RecoveryMode::Strict, RecoveryMode::BestEffort] {
            for verify in [Verify::None, Verify::HeadersOnly, Verify::Full] {
                let opts = DecompressOptions { mode, verify, ..DecompressOptions::default() };
                check_agreement(&bytes, &opts);
                if mode == RecoveryMode::BestEffort {
                    if let Ok(p) = archive::deserialize_with(&bytes, &opts) {
                        if p.chunk_damage.contains(&true) {
                            DAMAGED_BEST_EFFORT.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }
}

/// Runs the property, then checks the generator actually reached the
/// interesting cases: archives with breaking-unit outliers and
/// best-effort parses that flag damage.
#[test]
fn full_parse_and_whole_window_agree() {
    full_parse_and_whole_window_agree_on();
    assert!(WITH_OUTLIERS.load(Ordering::Relaxed) > 0, "no archive carried outliers");
    assert!(DAMAGED_BEST_EFFORT.load(Ordering::Relaxed) > 0, "no damaged best-effort parse");
}
