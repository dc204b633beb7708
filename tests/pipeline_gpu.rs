//! Device-pipeline integration: the modeled performance relations the
//! paper's evaluation rests on must hold end-to-end.

use huff::huff_core::pipeline::{run, PipelineKind};
use huff::prelude::*;

fn nyx(n: usize) -> Vec<u16> {
    PaperDataset::NyxQuant.generate(n, 77)
}

#[test]
fn v100_beats_rtx5000_on_the_same_workload() {
    // Table V: every stage is faster on the higher-bandwidth V100.
    let data = nyx(4 << 20);
    let v100 = Gpu::v100();
    let (_, _, rv) = run(&v100, &data, 2, 1024, 10, Some(3), PipelineKind::ReduceShuffle).unwrap();
    let rtx = Gpu::rtx5000();
    let (_, _, rr) = run(&rtx, &data, 2, 1024, 10, Some(3), PipelineKind::ReduceShuffle).unwrap();
    assert!(rv.times.total() < rr.times.total());
    assert!(rv.encode_gbps() > rr.encode_gbps());
}

#[test]
fn ours_beats_both_baselines_at_scale() {
    let data = nyx(16 << 20);
    let ours = {
        let gpu = Gpu::v100();
        run(&gpu, &data, 2, 1024, 10, Some(3), PipelineKind::ReduceShuffle).unwrap().2
    };
    let cusz = {
        let gpu = Gpu::v100();
        run(&gpu, &data, 2, 1024, 10, None, PipelineKind::CuszCoarse).unwrap().2
    };
    let prefix = {
        let gpu = Gpu::v100();
        run(&gpu, &data, 2, 1024, 10, None, PipelineKind::PrefixSum).unwrap().2
    };
    assert!(
        ours.encode_gbps() > cusz.encode_gbps(),
        "{} vs {}",
        ours.encode_gbps(),
        cusz.encode_gbps()
    );
    assert!(
        ours.encode_gbps() > prefix.encode_gbps(),
        "{} vs {}",
        ours.encode_gbps(),
        prefix.encode_gbps()
    );
}

#[test]
fn codebook_stage_dominated_by_serial_in_cusz_baseline() {
    // Table III's effect at pipeline level: on a large codebook, the
    // baseline's codebook stage costs far more than ours.
    let data = {
        // 8192-symbol workload (5-mer-like histogram width).
        huff::huff_datasets::dna::kmer_dataset(2 << 20, 5, 3).0
    };
    let ours = {
        let gpu = Gpu::v100();
        run(&gpu, &data, 2, 8192, 10, None, PipelineKind::ReduceShuffle).unwrap().2
    };
    let cusz = {
        let gpu = Gpu::v100();
        run(&gpu, &data, 2, 8192, 10, None, PipelineKind::CuszCoarse).unwrap().2
    };
    assert!(
        cusz.times.codebook > 5.0 * ours.times.codebook,
        "cusz codebook {} vs ours {}",
        cusz.times.codebook,
        ours.times.codebook
    );
}

#[test]
fn breaking_fraction_is_tiny_on_real_shapes() {
    // Table V reports breaking between ~0% and 0.15%.
    for d in [PaperDataset::NyxQuant, PaperDataset::Enwik8, PaperDataset::Nci] {
        let data = d.generate(2 << 20, 13);
        let gpu = Gpu::v100();
        let (_, _, report) = run(
            &gpu,
            &data,
            d.symbol_bytes(),
            d.num_symbols(),
            10,
            Some(d.paper_reduction()),
            PipelineKind::ReduceShuffle,
        )
        .unwrap();
        assert!(
            report.breaking_fraction < 0.01,
            "{}: breaking {}",
            d.name(),
            report.breaking_fraction
        );
    }
}

#[test]
fn clock_records_full_kernel_set() {
    // Default plan is fully fused: one histogram kernel, no standalone
    // length/prefix kernel.
    let data = nyx(1 << 20);
    let gpu = Gpu::v100();
    let _ = run(&gpu, &data, 2, 1024, 10, Some(3), PipelineKind::ReduceShuffle).unwrap();
    let names: Vec<String> = gpu.clock().by_kernel().into_iter().map(|(n, _, _)| n).collect();
    for expect in [
        "hist_fused_reduction",
        "codebook_sort",
        "generate_cl",
        "generate_cw",
        "enc_reduce_merge",
        "enc_shuffle_merge",
        "enc_coalescing_copy",
        "enc_breaking_backtrace",
    ] {
        assert!(names.iter().any(|n| n == expect), "missing kernel {expect}: {names:?}");
    }
    for absent in ["hist_blockwise_reduction", "hist_gridwise_reduction", "enc_blockwise_len"] {
        assert!(!names.iter().any(|n| n == absent), "fused plan still launches {absent}");
    }
}

#[test]
fn clock_records_legacy_kernel_set_under_unfused_plan() {
    use huff::huff_core::pipeline::run_with_plan;
    use huff::huff_core::KernelPlan;
    let data = nyx(1 << 20);
    let gpu = Gpu::v100();
    let _ = run_with_plan(
        &gpu,
        &data,
        2,
        1024,
        10,
        Some(3),
        PipelineKind::ReduceShuffle,
        KernelPlan::Unfused,
    )
    .unwrap();
    let names: Vec<String> = gpu.clock().by_kernel().into_iter().map(|(n, _, _)| n).collect();
    for expect in [
        "hist_blockwise_reduction",
        "hist_gridwise_reduction",
        "codebook_sort",
        "generate_cl",
        "generate_cw",
        "enc_reduce_merge",
        "enc_shuffle_merge",
        "enc_blockwise_len",
        "enc_coalescing_copy",
        "enc_breaking_backtrace",
    ] {
        assert!(names.iter().any(|n| n == expect), "missing kernel {expect}: {names:?}");
    }
}

#[test]
fn reduction_factor_rule_matches_table5_assignments() {
    use huff::huff_core::entropy::decide_reduction_factor;
    // enwik* / mr / Flan -> r=2; nci -> r=3; Nyx -> r=4 by the rule
    // (the paper empirically overrides Nyx to 3 — Table II).
    assert_eq!(decide_reduction_factor(PaperDataset::Enwik8.paper_avg_bits(), 32, 10), 2);
    assert_eq!(decide_reduction_factor(PaperDataset::Mr.paper_avg_bits(), 32, 10), 2);
    assert_eq!(decide_reduction_factor(PaperDataset::Flan1565.paper_avg_bits(), 32, 10), 2);
    assert_eq!(decide_reduction_factor(PaperDataset::Nci.paper_avg_bits(), 32, 10), 3);
    assert_eq!(decide_reduction_factor(PaperDataset::NyxQuant.paper_avg_bits(), 32, 10), 4);
}
