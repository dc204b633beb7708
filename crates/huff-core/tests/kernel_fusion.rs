//! Property tests for the kernel-fusion contract: the fused and unfused
//! [`KernelPlan`]s are pure launch-schedule choices — encoded streams,
//! archives and RSHM frames must be bit-identical under every plan, for
//! every breaking strategy, and decode exactly under every decoder
//! backend. Fusion changes modeled kernel time, never bytes.

use gpu_sim::Gpu;
use huff_core::archive;
use huff_core::batch::{compress_batched, BatchOptions};
use huff_core::codebook;
use huff_core::decode::{self, DecoderKind};
use huff_core::encode::{gpu::encode_on_gpu_with_plan, BreakingStrategy, MergeConfig};
use huff_core::metrics::{self, ProfileOptions};
use huff_core::{DecompressOptions, KernelPlan};
use proptest::prelude::*;

const KINDS: [DecoderKind; 3] = [DecoderKind::Serial, DecoderKind::Chunked, DecoderKind::Lut];
const PLANS: [KernelPlan; 2] = [KernelPlan::Fused, KernelPlan::Unfused];

fn symbols(n: usize, seed: u64, bins: u64) -> Vec<u16> {
    (0..n)
        .map(|i| {
            let x = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            ((x >> 41) % bins) as u16
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Device encode: fused and unfused plans emit bit-identical chunked
    /// streams for any distribution, geometry and breaking strategy, and
    /// every decoder backend recovers the input from either.
    #[test]
    fn plans_encode_bit_identical_streams(
        freqs in proptest::collection::vec(1u64..4_000, 2..48),
        picks in proptest::collection::vec(0usize..48, 1..3_000),
        magnitude in 4u32..12,
        reduction in 1u32..4,
        widen in any::<bool>(),
    ) {
        let strategy =
            if widen { BreakingStrategy::WidenWord } else { BreakingStrategy::SparseSidecar };
        let book = codebook::parallel(&freqs, 4).unwrap();
        let syms: Vec<u16> = picks.iter().map(|&p| (p % freqs.len()) as u16).collect();
        let config = MergeConfig::new(magnitude, reduction.min(magnitude - 1));

        let streams: Vec<_> = PLANS
            .iter()
            .map(|&plan| {
                let gpu = Gpu::v100();
                encode_on_gpu_with_plan(&gpu, &syms, 2, &book, config, strategy, plan).unwrap().0
            })
            .collect();
        prop_assert_eq!(&streams[0], &streams[1], "plans diverged on stream bytes");
        for kind in KINDS {
            let got = decode::decode_stream(&streams[0], &book, kind).unwrap();
            prop_assert_eq!(&got, &syms, "{} diverged from input", kind.name());
        }
    }

    /// Archive path: the profiled compress pipeline produces the same
    /// archive bytes under either plan, and the archive decodes exactly
    /// under every backend.
    #[test]
    fn plans_produce_bit_identical_archives(
        n in 1usize..20_000,
        seed in any::<u64>(),
        bins in 2u64..300,
    ) {
        let syms = symbols(n, seed, bins);
        let archives: Vec<Vec<u8>> = PLANS
            .iter()
            .map(|&plan| {
                let gpu = Gpu::v100();
                let opts = ProfileOptions::new(512).plan(plan);
                metrics::profile_compress(&gpu, &syms, &opts).unwrap().0
            })
            .collect();
        prop_assert_eq!(&archives[0], &archives[1], "plans diverged on archive bytes");
        for kind in KINDS {
            let opts = DecompressOptions::default().with_decoder(kind);
            let rec = archive::decompress_with(&archives[0], &opts).unwrap();
            prop_assert_eq!(&rec.symbols, &syms, "{} archive decode diverged", kind.name());
        }
    }

    /// Frame path: batched compression emits the same multi-shard RSHM
    /// frame under either plan, for any shard geometry, and the frame
    /// decodes exactly under every backend.
    #[test]
    fn plans_produce_bit_identical_frames(
        n in 1usize..20_000,
        shard_symbols in 512usize..8_192,
        streams in 1usize..4,
        seed in any::<u64>(),
    ) {
        let syms = symbols(n, seed, 256);
        let frames: Vec<Vec<u8>> = PLANS
            .iter()
            .map(|&plan| {
                let mut opts = BatchOptions::new(512);
                opts.shard_symbols = shard_symbols;
                opts.streams = streams;
                opts.plan = plan;
                compress_batched(&syms, &opts).unwrap().0
            })
            .collect();
        prop_assert_eq!(&frames[0], &frames[1], "plans diverged on frame bytes");
        for kind in KINDS {
            let opts = DecompressOptions::default().with_decoder(kind);
            let rec = archive::decompress_with(&frames[0], &opts).unwrap();
            prop_assert_eq!(&rec.symbols, &syms, "{} frame decode diverged", kind.name());
        }
    }
}
