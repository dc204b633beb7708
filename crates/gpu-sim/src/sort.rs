//! Device primitive ledger: parallel sort — the Thrust stand-in.
//!
//! GenerateCL requires its input histogram sorted by ascending frequency
//! (Section IV-B1: "the histogram is sorted in ascending order using
//! Thrust. This operation is low-cost, as n is relatively small"). The
//! codebook kernel sorts on the host and charges [`traffic`], a 4-pass
//! LSD radix sort's ledger.

use crate::traffic::{Access, Traffic};

/// The ledger of a 4-pass LSD radix sort over `n` elements of
/// `elem_bytes` bytes.
pub fn traffic(n: u64, elem_bytes: u64) -> Traffic {
    const RADIX_PASSES: u64 = 4;
    let mut t = Traffic::new();
    t.read(Access::Coalesced, RADIX_PASSES * n, elem_bytes);
    // Scatter phase of each pass is data-dependent but bucketed; charge half
    // coalesced, half strided.
    t.write(Access::Coalesced, RADIX_PASSES * n / 2, elem_bytes);
    t.write(Access::Strided, RADIX_PASSES * n / 2, elem_bytes);
    t.ops(RADIX_PASSES * 2 * n);
    t.grid_sync();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::exec::Gpu;
    use crate::grid::GridDim;

    #[test]
    fn sort_is_cheap_relative_to_data_size() {
        // Paper: sorting the n-symbol histogram is low-cost vs the input.
        let g = Gpu::new(DeviceSpec::v100());
        g.launch("sort", GridDim::new(1, 32), |s| {
            s.traffic().absorb(&traffic(1024, std::mem::size_of::<(u64, u32)>() as u64));
        });
        assert!(g.elapsed() < 100.0e-6, "sort of 1024 keys modeled {} s", g.elapsed());
    }
}
