//! Property-based tests for huff-core's algorithmic invariants.

use huff_core::codebook::{self, generate_cl, generate_cw};
use huff_core::codeword::Codeword;
use huff_core::encode::reduce_merge::{reduce_unit, Unit};
use huff_core::encode::shuffle_merge::{merge_window, shuffle_chunk};
use huff_core::integrity::{crc32, Crc32};
use huff_core::{bitstream, tree};
use proptest::prelude::*;

/// The textbook bitwise CRC-32 (reflected, polynomial `0xEDB88320`): the
/// reference the table-driven implementation must reproduce.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    c ^ 0xFFFF_FFFF
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// GenerateCL produces Huffman-optimal lengths for any frequency set.
    #[test]
    fn generate_cl_optimal(
        mut freqs in proptest::collection::vec(1u64..1u64 << 50, 2..500)
    ) {
        freqs.sort_unstable();
        let (cl, _) = generate_cl(&freqs, 8);
        let reference = tree::codeword_lengths(&freqs).unwrap();
        prop_assert_eq!(
            tree::weighted_length(&freqs, &cl),
            tree::weighted_length(&freqs, &reference)
        );
        prop_assert_eq!(tree::kraft_sum(&cl), 1u128 << 64);
        // Sorted ascending frequency => non-increasing lengths.
        prop_assert!(cl.windows(2).all(|w| w[0] >= w[1]));
    }

    /// GenerateCW emits a prefix-free canonical code for any valid
    /// (complete) length profile.
    #[test]
    fn generate_cw_prefix_free(
        mut freqs in proptest::collection::vec(1u64..1u64 << 30, 2..200)
    ) {
        freqs.sort_unstable();
        let (cl, _) = generate_cl(&freqs, 4);
        let cw = generate_cw(&cl).unwrap();
        for (i, a) in cw.codes.iter().enumerate() {
            for (j, b) in cw.codes.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_prefix_of(b));
                }
            }
        }
        // Canonical ordering: codes ascend as left-aligned fractions.
        for w in cw.codes.windows(2) {
            let fa = w[0].bits() << (64 - w[0].len());
            let fb = w[1].bits() << (64 - w[1].len());
            prop_assert!(fa < fb);
        }
    }

    /// Codebook symbol decode inverts the code for every symbol.
    #[test]
    fn decode_symbol_inverts_code(
        freqs in proptest::collection::vec(0u64..1000, 2..200)
    ) {
        prop_assume!(freqs.iter().filter(|&&f| f > 0).count() >= 1);
        let book = codebook::parallel(&freqs, 4).unwrap();
        for (sym, &f) in freqs.iter().enumerate() {
            if f == 0 { continue; }
            let code = book.code(sym as u16);
            let mut pos = 0;
            let got = book.decode_symbol(|| {
                let bit = (code.bits() >> (code.len() - 1 - pos)) & 1 == 1;
                pos += 1;
                Ok(bit)
            }).unwrap();
            prop_assert_eq!(got, sym as u16);
            prop_assert_eq!(pos, code.len());
        }
    }

    /// merge_window places the right group exactly after the left for any
    /// lengths and payloads.
    #[test]
    fn merge_window_concatenates(
        left_bits in proptest::collection::vec(any::<bool>(), 0..120),
        right_bits in proptest::collection::vec(any::<bool>(), 0..120),
    ) {
        let span = 8usize; // 4 words per side = up to 128 bits
        let mut window = vec![0u32; span];
        let pack = |bits: &[bool], words: &mut [u32]| {
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    words[i / 32] |= 1 << (31 - (i % 32));
                }
            }
        };
        pack(&left_bits, &mut window[..span / 2]);
        pack(&right_bits, &mut window[span / 2..]);
        let total = merge_window(&mut window, left_bits.len() as u32, right_bits.len() as u32);
        prop_assert_eq!(total as usize, left_bits.len() + right_bits.len());
        for (i, &b) in left_bits.iter().chain(&right_bits).enumerate() {
            let got = (window[i / 32] >> (31 - (i % 32))) & 1 == 1;
            prop_assert_eq!(got, b, "bit {}", i);
        }
        // Slack after the payload is zeroed.
        for i in total as usize..span * 32 {
            let got = (window[i / 32] >> (31 - (i % 32))) & 1 == 1;
            prop_assert!(!got, "dirty slack at bit {}", i);
        }
    }

    /// shuffle_chunk equals straight concatenation for any cell lengths.
    #[test]
    fn shuffle_chunk_concatenates(
        cells in proptest::collection::vec((0u32..33, any::<u32>()), 1..65)
    ) {
        let n = cells.len().next_power_of_two();
        let mut words = vec![0u32; n];
        let mut lens = vec![0u32; n];
        let mut expect = String::new();
        for (i, &(l, payload)) in cells.iter().enumerate() {
            lens[i] = l;
            if l > 0 {
                let p = payload & (((1u64 << l) - 1) as u32);
                words[i] = p << (32 - l);
                for b in 0..l {
                    expect.push(if (p >> (l - 1 - b)) & 1 == 1 { '1' } else { '0' });
                }
            }
        }
        let (total, _) = shuffle_chunk(&mut words, &lens);
        prop_assert_eq!(total as usize, expect.len());
        let mut got = String::new();
        for i in 0..total {
            let w = words[(i / 32) as usize];
            got.push(if (w >> (31 - (i % 32))) & 1 == 1 { '1' } else { '0' });
        }
        prop_assert_eq!(got, expect);
    }

    /// reduce_unit equals the fold of MERGE, and breaking triggers exactly
    /// when the true merged length exceeds the word width.
    #[test]
    fn reduce_unit_matches_fold(
        freqs in proptest::collection::vec(1u64..10_000, 2..64),
        picks in proptest::collection::vec(0usize..64, 0..40),
    ) {
        let book = codebook::parallel(&freqs, 4).unwrap();
        let syms: Vec<u16> = picks.iter().map(|&p| (p % freqs.len()) as u16).collect();
        let true_len: u64 = syms.iter().map(|&s| u64::from(book.code(s).len())).sum();
        match reduce_unit::<u32>(&syms, &book) {
            Unit::Merged { len, word } => {
                prop_assert!(true_len <= 32);
                prop_assert_eq!(u64::from(len), true_len);
                if len > 0 && len < 32 {
                    prop_assert_eq!(word & ((1u32 << (32 - len)) - 1), 0, "dirty low bits");
                }
            }
            Unit::Breaking => prop_assert!(true_len > 32),
        }
    }

    /// A streamed CRC over any split of the input equals the one-shot
    /// CRC, which equals the bitwise reference.
    #[test]
    fn crc32_streaming_equals_oneshot_equals_reference(
        data in proptest::collection::vec(any::<u8>(), 0..2_000),
        cuts in proptest::collection::vec(0usize..2_000, 0..12),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let mut h = Crc32::new();
        let mut at = 0;
        for &c in cuts.iter().chain([data.len()].iter()) {
            h.update(&data[at..c]);
            at = c;
        }
        prop_assert_eq!(h.finalize(), crc32(&data));
        prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
    }

    /// BitWriter/BitReader round-trip arbitrary field sequences.
    #[test]
    fn bitstream_roundtrip(fields in proptest::collection::vec((1u32..64, any::<u64>()), 0..200)) {
        let mut w = bitstream::BitWriter::new();
        let fields: Vec<(u32, u64)> = fields
            .into_iter()
            .map(|(l, v)| (l, v & ((1u64 << l) - 1)))
            .collect();
        for &(l, v) in &fields {
            w.push_bits(v, l);
        }
        let (buf, bits) = w.finish();
        let mut r = bitstream::BitReader::new(&buf, bits);
        for &(l, v) in &fields {
            prop_assert_eq!(r.read_bits(l).unwrap(), v);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Codeword MERGE against bit-string concatenation (the operator's
    /// defining property).
    #[test]
    fn merge_is_string_concat(
        a_bits in proptest::collection::vec(any::<bool>(), 0..32),
        b_bits in proptest::collection::vec(any::<bool>(), 0..32),
    ) {
        let to_str = |v: &[bool]| -> String {
            v.iter().map(|&b| if b { '1' } else { '0' }).collect()
        };
        let a = Codeword::from_bit_string(&to_str(&a_bits));
        let b = Codeword::from_bit_string(&to_str(&b_bits));
        let m = a.merge(b).unwrap();
        prop_assert_eq!(m.to_bit_string(), format!("{}{}", to_str(&a_bits), to_str(&b_bits)));
    }
}
