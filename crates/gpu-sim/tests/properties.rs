//! Property-based tests for the simulator's invariants.

use gpu_sim::{cost, Access, DeviceSpec, Gpu, GridDim, Traffic};
use proptest::prelude::*;

fn arb_traffic() -> impl Strategy<Value = Traffic> {
    (
        0u64..1 << 30,
        0u64..1 << 20,
        0u64..1 << 20,
        0u64..1 << 30,
        0u64..1 << 20,
        0u64..1 << 26,
        1.0f64..4.0,
        0u64..1 << 10,
    )
        .prop_map(|(rc, rs, rr, wc, ws, ops, div, syncs)| {
            let mut t = Traffic::new();
            t.read(Access::Coalesced, rc / 4, 4);
            t.read(Access::Strided, rs, 4);
            t.read(Access::Random, rr, 4);
            t.write(Access::Coalesced, wc / 4, 4);
            t.write(Access::Strided, ws, 4);
            t.ops(ops);
            t.diverge(div);
            for _ in 0..syncs.min(64) {
                t.grid_sync();
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cost is monotone: absorbing more traffic never reduces modeled time.
    #[test]
    fn cost_monotone_under_absorb(a in arb_traffic(), b in arb_traffic()) {
        let spec = DeviceSpec::v100();
        let ca = cost::estimate(&spec, &a, true).total;
        let mut ab = a;
        ab.absorb(&b);
        let cab = cost::estimate(&spec, &ab, true).total;
        prop_assert!(cab >= ca - 1e-15, "absorb decreased cost: {ca} -> {cab}");
    }

    /// Sectors are superadditive-exact: absorb(a, b) touches at most one
    /// sector more than a and b separately (coalesced rounding).
    #[test]
    fn sector_accounting_additive(a in arb_traffic(), b in arb_traffic()) {
        let sep = a.dram_sectors(32) + b.dram_sectors(32);
        let mut ab = a;
        ab.absorb(&b);
        let joint = ab.dram_sectors(32);
        prop_assert!(joint <= sep);
        prop_assert!(joint + 1 >= sep);
    }

    /// A faster device (higher bandwidth, more SMs) is never slower.
    #[test]
    fn v100_never_slower_than_rtx5000(t in arb_traffic()) {
        let v = cost::estimate(&DeviceSpec::v100(), &t, true);
        let r = cost::estimate(&DeviceSpec::rtx5000(), &t, true);
        // Launch latencies differ slightly; compare the overlapped terms.
        prop_assert!(v.memory <= r.memory + 1e-15);
        prop_assert!(v.compute <= r.compute + 1e-15);
    }

    /// Reductions agree with std.
    #[test]
    fn device_reduce_agrees(input in proptest::collection::vec(0u64..1 << 32, 0..2000)) {
        let gpu = Gpu::new(DeviceSpec::test_part());
        let (sum, max) = gpu.launch("reduce", GridDim::new(1, 32), |s| {
            let sum = gpu_sim::reduce::sum_u64(s, &input);
            let as_u32: Vec<u32> = input.iter().map(|&x| x as u32).collect();
            (sum, gpu_sim::reduce::max_u32(s, &as_u32))
        });
        prop_assert_eq!(sum, input.iter().sum::<u64>());
        prop_assert_eq!(max, input.iter().map(|&x| x as u32).max().unwrap_or(0));
    }

    /// Grid cover always covers.
    #[test]
    fn grid_cover_covers(n in 0usize..1 << 22, tpb in 1u32..1025) {
        let g = GridDim::cover(n, tpb);
        prop_assert!(g.total_threads() >= n);
        // Minimal: one fewer block would not cover (when n > 0).
        if n > 0 && g.blocks > 1 {
            prop_assert!(((g.blocks - 1) as usize) * (tpb as usize) < n);
        }
    }
}
