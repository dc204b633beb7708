//! Device primitive ledgers: parallel prefix sum (scan).
//!
//! The Rahmani-style baseline encoder (Section III-B) computes every encoded
//! symbol's write offset with a classical parallel scan; the reduce/shuffle
//! encoder also needs small scans for per-chunk bit lengths. Kernels that
//! scan charge one of the two ledgers here and compute their (small) scans
//! on the host themselves:
//!
//! * [`exclusive_scan_traffic`] — a blocked two-level work-efficient scan:
//!   block-local scans, a scan of block totals, then a uniform add;
//! * [`single_pass_scan_traffic`] — a decoupled-lookback single pass
//!   (Merrill & Garland), fuseable as another kernel's epilogue.

use crate::traffic::{Access, Traffic};

/// The ledger of a two-level exclusive scan over `n` elements: 3n element
/// moves (the uniform-add pass re-reads) and two grid syncs (nothing for
/// an empty input).
pub fn exclusive_scan_traffic(n: u64) -> Traffic {
    let mut t = Traffic::new();
    if n == 0 {
        return t;
    }
    t.read(Access::Coalesced, n, 8);
    t.write(Access::Coalesced, n, 8);
    t.read(Access::Coalesced, n, 8); // uniform-add pass re-reads
    t.write(Access::Coalesced, n, 8);
    t.ops(3 * n);
    t.grid_sync();
    t.grid_sync();
    t
}

/// Elements scanned per block by the single-pass scan.
pub const SINGLE_PASS_BLOCK: usize = 4096;

/// The ledger of an exclusive scan over `n` elements via a
/// decoupled-lookback single pass (Merrill & Garland style).
///
/// Each block scans its tile, publishes an aggregate/prefix descriptor,
/// and resolves its exclusive offset by inspecting predecessors'
/// descriptors instead of waiting on a device-wide barrier. The ledger
/// charges ~2n element moves (vs. 4n for the two-level scan's uniform-add
/// re-read), one small descriptor write plus an expected two-descriptor
/// lookback window per block, and — crucially — **zero grid syncs**, which
/// is what lets callers run it as an epilogue inside another kernel
/// (nothing for an empty input).
pub fn single_pass_scan_traffic(n: u64) -> Traffic {
    let mut t = Traffic::new();
    if n == 0 {
        return t;
    }
    let b = n.div_ceil(SINGLE_PASS_BLOCK as u64);
    t.read(Access::Coalesced, n, 8);
    t.write(Access::Coalesced, n, 8);
    // Descriptor publication (aggregate + status flag, 16 B, one thread per
    // block -> strided) and the expected-two-predecessor lookback window.
    t.write(Access::Strided, b, 16);
    t.read(Access::Strided, 2 * b, 16);
    t.shared(SINGLE_PASS_BLOCK as u64 * 8); // tile scan workspace
    t.ops(2 * n + 8 * b);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::exec::Gpu;
    use crate::grid::GridDim;

    #[test]
    fn exclusive_scan_empty() {
        assert_eq!(exclusive_scan_traffic(0), Traffic::new());
    }

    #[test]
    fn single_pass_scan_empty() {
        assert_eq!(single_pass_scan_traffic(0), Traffic::new());
    }

    #[test]
    fn single_pass_charges_no_grid_syncs_and_less_traffic() {
        let g = Gpu::new(DeviceSpec::test_part());
        g.launch("two_level", GridDim::new(1, 32), |s| {
            s.traffic().absorb(&exclusive_scan_traffic(100_000));
        });
        g.launch("single_pass", GridDim::new(1, 32), |s| {
            s.traffic().absorb(&single_pass_scan_traffic(100_000));
        });
        let c = g.clock();
        let two = &c.records()[0].traffic;
        let one = &c.records()[1].traffic;
        assert_eq!(two.grid_syncs, 2);
        assert_eq!(one.grid_syncs, 0);
        assert_eq!(one.read_coalesced, 100_000 * 8);
        assert_eq!(one.write_coalesced, 100_000 * 8);
        assert!(one.logical_dram_bytes() < two.logical_dram_bytes());
    }

    #[test]
    fn scan_accounts_traffic() {
        let t = exclusive_scan_traffic(1000);
        assert_eq!(t.read_coalesced, 2 * 8000);
        assert_eq!(t.write_coalesced, 2 * 8000);
    }
}
