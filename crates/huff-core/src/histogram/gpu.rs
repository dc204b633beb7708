//! Gómez-Luna replicated shared-memory histogram on the simulated device.
//!
//! Section IV-A: the histogram is replicated per thread block (and further
//! replicated within the block when shared memory allows) so that atomic
//! updates spread over many copies; per-block copies are then combined
//! into the single global histogram.
//!
//! Two launch shapes, selected by the [`KernelPlan`]:
//!
//! * **Fused (default)** — `hist_fused_reduction`: full privatization in a
//!   single kernel. A smaller grid (each block strides a larger input
//!   partition, so its replica amortizes over more data) reduces its
//!   shared-memory replicas and *commits* them straight into the global
//!   histogram with consecutive-address atomics, which the L2 resolves at
//!   sector granularity ([`gpu_sim::Traffic::global_atomic_coalesced`]). This
//!   eliminates both the partials round-trip through DRAM and the
//!   latency-bound tree-reduce launch.
//! * **Unfused** — the paper's Table I pair: `hist_blockwise_reduction`
//!   writes one partial histogram per block, then `hist_gridwise_reduction`
//!   tree-reduces the partials. Retained verbatim for comparison, and used
//!   automatically whenever the histogram does not fit a block's shared
//!   memory (large-bin codebooks cannot be privatized).
//!
//! [`launches`] is the one ledger of both shapes: the kernels charge it
//! with the skew they measured, the autotuner with an estimated skew.

use super::Histogram;
use crate::plan::KernelPlan;
use gpu_sim::atomic::{expected_conflicts, histogram_skew};
use gpu_sim::{Access, DeviceSpec, Gpu, GridDim, Launch, Traffic};
use rayon::prelude::*;

/// Number of threads per block for the histogram kernels.
const BLOCK_THREADS: u32 = 256;

/// Compute the histogram of `data` on the device under the default
/// (fused) plan. See [`histogram_with_plan`].
pub fn histogram(gpu: &Gpu, data: &[u16], num_symbols: usize, symbol_bytes: u64) -> Histogram {
    histogram_with_plan(gpu, data, num_symbols, symbol_bytes, KernelPlan::default())
}

/// Compute the histogram of `data` on the device, charging modeled time to
/// the device clock. `symbol_bytes` is the dataset's native symbol width
/// (the basis of the input-read traffic and the GB/s figures). The result
/// is identical for every plan; only the modeled launch/traffic shape
/// differs.
pub fn histogram_with_plan(
    gpu: &Gpu,
    data: &[u16],
    num_symbols: usize,
    symbol_bytes: u64,
    plan: KernelPlan,
) -> Histogram {
    // One partial histogram per block partition; the device reduces them
    // in shared memory (fused) or through the gridwise kernel.
    let blocks = read_blocks(gpu.spec(), num_symbols, plan);
    let chunk = data.len().div_ceil(blocks as usize).max(1);
    let partials: Vec<Histogram> =
        data.par_chunks(chunk).map(|part| super::serial::histogram(part, num_symbols)).collect();
    let out: Histogram =
        (0..num_symbols).into_par_iter().map(|bin| partials.iter().map(|p| p[bin]).sum()).collect();
    let skew = histogram_skew(&out);
    for launch in launches(gpu.spec(), data.len() as u64, num_symbols, symbol_bytes, skew, plan) {
        gpu.charge(&launch);
    }
    out
}

/// Full privatization needs at least one complete replica in shared
/// memory; past that the fused commit has nothing to commit from and the
/// two-kernel global-memory path is the only option.
fn runs_fused(spec: &DeviceSpec, num_symbols: usize, plan: KernelPlan) -> bool {
    plan == KernelPlan::Fused && num_symbols * 4 <= spec.shared_mem_per_block
}

/// Blocks of the read phase. The fused kernel runs half the unfused grid:
/// each replica covers twice the input, so the commit phase (one atomic
/// per bin per block) stays cheap relative to the read phase it
/// piggybacks on. The unfused kernel runs one block per SM-resident slot.
fn read_blocks(spec: &DeviceSpec, num_symbols: usize, plan: KernelPlan) -> u32 {
    if runs_fused(spec, num_symbols, plan) {
        (spec.sm_count * 4).min(512)
    } else {
        (spec.sm_count * 8).min(1024)
    }
}

/// The histogram stage's launches for `n` symbols over `num_symbols` bins
/// whose hottest bin holds a `skew` share of the input
/// ([`histogram_skew`]): one `hist_fused_reduction`, or the
/// `hist_blockwise_reduction` + `hist_gridwise_reduction` pair.
pub fn launches(
    spec: &DeviceSpec,
    n: u64,
    num_symbols: usize,
    symbol_bytes: u64,
    skew: f64,
    plan: KernelPlan,
) -> Vec<Launch> {
    let bins = num_symbols as u64;
    let blocks = read_blocks(spec, num_symbols, plan);
    // Non-empty block partitions, i.e. the partial histograms reduced.
    let partials = n.div_ceil(n.div_ceil(u64::from(blocks)).max(1));
    // Replication degree: how many shared-memory copies of the histogram
    // fit per block (at least 1; the paper's kernel degrades to a single
    // copy for large codebooks such as 8192 bins).
    let copies = (spec.shared_mem_per_block as u64 / (bins * 4).max(1)).clamp(1, 8);

    // The read phase both shapes share: the coalesced input read, the
    // replicated shared-memory atomics, and the replica storage.
    let mut read = Traffic::new();
    read.read(Access::Coalesced, n, symbol_bytes);
    // Conflicts serialize at warp granularity: the hardware resolves a
    // warp's same-address atomics as one multi-update transaction, so
    // the serialization cost is per warp-instruction, not per lane.
    let conflicts =
        expected_conflicts(n, bins * copies, skew / copies as f64) / u64::from(spec.warp_size);
    read.shared_atomic(n, conflicts);
    read.shared(copies * bins * 4);
    read.ops(2 * n);
    let grid = GridDim::new(blocks, BLOCK_THREADS);

    if runs_fused(spec, num_symbols, plan) {
        // Commit: each block adds its reduced replica into the global
        // histogram bin-by-bin. Lanes hit consecutive bins (distinct
        // addresses within a warp), so the L2 folds the adds into
        // sector-granular RMW traffic; the serialization chain is the
        // per-bin collision across blocks, at most one per committer.
        read.global_atomic_coalesced(partials * bins, 4, partials);
        read.ops(partials * bins);
        return vec![Launch { name: "hist_fused_reduction", grid, traffic: read }];
    }
    // Each block writes one partial; the gridwise kernel tree-reduces them.
    read.write(Access::Coalesced, u64::from(blocks) * bins, 4);
    let mut fold = Traffic::new();
    fold.read(Access::Coalesced, partials * bins, 8);
    fold.write(Access::Coalesced, bins, 8);
    fold.ops(partials * bins);
    vec![
        Launch { name: "hist_blockwise_reduction", grid, traffic: read },
        Launch {
            name: "hist_gridwise_reduction",
            grid: GridDim::cover(num_symbols, BLOCK_THREADS),
            traffic: fold,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    #[test]
    fn matches_serial() {
        let data: Vec<u16> = (0..30_000u32).map(|i| (i % 777) as u16).collect();
        let gpu = Gpu::new(DeviceSpec::test_part());
        let h = histogram(&gpu, &data, 1024, 2);
        assert_eq!(h, crate::histogram::serial::histogram(&data, 1024));
    }

    #[test]
    fn fused_and_unfused_agree() {
        let data: Vec<u16> = (0..50_000u32).map(|i| ((i * 31) % 613) as u16).collect();
        let g1 = Gpu::new(DeviceSpec::test_part());
        let g2 = Gpu::new(DeviceSpec::test_part());
        let fused = histogram_with_plan(&g1, &data, 1024, 2, KernelPlan::Fused);
        let unfused = histogram_with_plan(&g2, &data, 1024, 2, KernelPlan::Unfused);
        assert_eq!(fused, unfused);
    }

    #[test]
    fn empty_input_gives_zero_histogram() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let h = histogram(&gpu, &[], 16, 2);
        assert_eq!(h, vec![0u64; 16]);
    }

    #[test]
    fn fused_plan_charges_one_kernel() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let _ = histogram(&gpu, &[1, 2, 3], 8, 2);
        assert_eq!(gpu.clock().launches(), 1);
        assert!(gpu.elapsed_matching("hist_fused") > 0.0);
        assert_eq!(gpu.elapsed_matching("hist_gridwise"), 0.0);
    }

    #[test]
    fn unfused_plan_charges_two_kernels() {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let _ = histogram_with_plan(&gpu, &[1, 2, 3], 8, 2, KernelPlan::Unfused);
        assert_eq!(gpu.clock().launches(), 2);
        assert!(gpu.elapsed_matching("hist_blockwise") > 0.0);
        assert!(gpu.elapsed_matching("hist_gridwise") > 0.0);
    }

    #[test]
    fn large_bin_histogram_falls_back_to_two_kernels() {
        // 65536 bins x 4 B = 256 KiB: no block can privatize that, so the
        // fused plan degrades to the two-kernel global-memory path.
        let gpu = Gpu::v100();
        let data: Vec<u16> = (0..10_000u32).map(|i| (i % 60_000) as u16).collect();
        let h = histogram_with_plan(&gpu, &data, 65_536, 2, KernelPlan::Fused);
        assert_eq!(h, crate::histogram::serial::histogram(&data, 65_536));
        assert_eq!(gpu.clock().launches(), 2);
        assert!(gpu.elapsed_matching("hist_gridwise") > 0.0);
    }

    #[test]
    fn fused_is_faster_than_unfused_at_scale() {
        // The whole point of the fusion: the commit is cheaper than the
        // partials round-trip plus the latency-bound tree-reduce launch.
        let data: Vec<u16> = (0..(8 << 20)).map(|i| (i % 1024) as u16).collect();
        let g1 = Gpu::v100();
        let _ = histogram_with_plan(&g1, &data, 1024, 2, KernelPlan::Fused);
        let g2 = Gpu::v100();
        let _ = histogram_with_plan(&g2, &data, 1024, 2, KernelPlan::Unfused);
        assert!(g1.elapsed() < g2.elapsed(), "fused {} >= unfused {}", g1.elapsed(), g2.elapsed());
    }

    #[test]
    fn modeled_throughput_near_bandwidth_on_v100() {
        // Table V: histogramming reaches ~200-276 GB/s on the V100 for
        // large inputs (reads dominate; atomics and the final reduction
        // cost the rest). Check the model lands in a sane band.
        let data: Vec<u16> = (0..(64 << 20) / 2).map(|i| (i % 1024) as u16).collect();
        let gpu = Gpu::v100();
        let _ = histogram(&gpu, &data, 1024, 2);
        let gbps = gpu_sim::gbps(gpu_sim::throughput((data.len() * 2) as u64, gpu.elapsed()));
        assert!(gbps > 80.0 && gbps < 900.0, "modeled {gbps} GB/s");
    }

    #[test]
    fn skewed_data_is_slower_than_uniform() {
        let uniform: Vec<u16> = (0..2_000_000u32).map(|i| (i % 1024) as u16).collect();
        let skewed: Vec<u16> = vec![7u16; 2_000_000];
        let g1 = Gpu::v100();
        let _ = histogram(&g1, &uniform, 1024, 2);
        let g2 = Gpu::v100();
        let _ = histogram(&g2, &skewed, 1024, 2);
        assert!(g2.elapsed() > g1.elapsed(), "skewed {} <= uniform {}", g2.elapsed(), g1.elapsed());
    }
}
