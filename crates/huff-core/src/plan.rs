//! Kernel-fusion plan.
//!
//! PR 5's roofline analyzer showed three modeled kernels leaving
//! performance on the table: `hist_gridwise_reduction` and
//! `enc_blockwise_len` are latency-bound even at the 64 MB acceptance
//! scale (their total time is dominated by launch ramp + grid syncs, not
//! by the bytes they move), and `enc_breaking_backtrace` emits its sparse
//! sidecar through per-unit `Access::Random` writes. [`KernelPlan::Fused`]
//! replaces all three:
//!
//! - **histogram** — single-kernel full privatization (Gómez-Luna):
//!   blocks reduce their shared-memory replicas and commit them straight
//!   into the global histogram with consecutive-address atomics,
//!   eliminating the partials round-trip and the tree-reduce launch. The
//!   two-kernel path is retained automatically when the histogram does
//!   not fit a block's shared memory.
//! - **chunk lengths** — the per-chunk bit-length prefix sum runs as a
//!   decoupled-lookback epilogue inside the shuffle-merge kernel
//!   ([`gpu_sim::prefix::single_pass_scan_traffic`]) instead of as its
//!   own tiny `enc_blockwise_len` launch.
//! - **backtrace** — breaking units are emitted via warp-aggregated
//!   compaction (ballot + block-local scan + one coalesced segment write
//!   per block) instead of per-unit random scatter.
//!
//! [`KernelPlan::Unfused`] keeps the paper's Table I decomposition as the
//! comparison baseline (`rsh profile --compare`, the bench sweeps). The
//! autotuner always runs the fused plan.
//!
//! Fusion is a *modeling/scheduling* choice only: both plans produce
//! bit-identical archives, frames and sidecars (proptest-enforced in
//! `tests/kernel_fusion.rs`), because the host-side functional result
//! never depends on the plan.

use serde::{Deserialize, Serialize};

/// Which kernel decomposition the encode-side pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelPlan {
    /// Fused histogram, chunk-length scan epilogue and compacted
    /// backtrace — the shipping default.
    #[default]
    Fused,
    /// The pre-fusion decomposition: every kernel launches and writes
    /// exactly as the paper's Table I does.
    Unfused,
}

impl KernelPlan {
    /// Stable short name used in bench rows and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            KernelPlan::Fused => "fused",
            KernelPlan::Unfused => "unfused",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_fused() {
        assert_eq!(KernelPlan::default(), KernelPlan::Fused);
        assert_eq!(KernelPlan::default().name(), "fused");
        assert_eq!(KernelPlan::Unfused.name(), "unfused");
    }
}
