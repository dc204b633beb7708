//! Calibration of the autotuner's cost model against the batch engine.
//!
//! The tuner prices a candidate geometry by building each shard's kernel
//! records from the kernels' own ledgers at counters estimated from the
//! workload signature, then replaying them through the batch engine's
//! stream scheduler (`tune::geometry_seconds`). This test pins how far
//! that estimate may sit from the makespan `compress_batched` actually
//! replays: below `GEOMETRY_HYSTERESIS`, the margin a modeled win must
//! clear before the tuner leaves the fixed default geometry. A model
//! error beyond it would let the tuner "win" its way into a loss.
//!
//! Points: the DESIGN.md § "Tuning policy" calibration table (V100,
//! scale 1/64, Fig. 3's reduction factor). Slow in debug builds, so it
//! runs with the release `--ignored` tests.

use huff::huff_core::entropy::decide_reduction_factor;
use huff::huff_core::tune::{geometry_seconds, Signature, GEOMETRY_HYSTERESIS};
use huff::prelude::*;
use huff::{compress_batched, BatchOptions, DeviceSpec};

#[test]
#[ignore = "release-mode calibration sweep (≈64 MB of pipeline runs)"]
fn tuner_makespan_tracks_the_replayed_batch_within_hysteresis() {
    let spec = DeviceSpec::v100();
    let points = [
        (PaperDataset::NyxQuant, 1, 2),
        (PaperDataset::NyxQuant, 4, 4),
        (PaperDataset::Enwik8, 1, 2),
        (PaperDataset::Enwik8, 4, 4),
        (PaperDataset::Flan1565, 4, 2),
        (PaperDataset::Flan1565, 4, 4),
    ];
    let mut table = Vec::new();
    for (dataset, shards, streams) in points {
        let n = dataset.symbols_at_scale(1.0 / 64.0);
        let data = dataset.generate(n, 0xD5EA5E);
        let symbol_bytes = dataset.symbol_bytes() as u8;
        let sig = Signature::measure(&data, dataset.num_symbols(), symbol_bytes).unwrap();
        let r = decide_reduction_factor(sig.avg_bits(), 32, 10);

        let mut opts = BatchOptions::new(dataset.num_symbols());
        opts.shard_symbols = n.div_ceil(shards as usize);
        opts.streams = streams as usize;
        opts.reduction = Some(r);
        opts.symbol_bytes = symbol_bytes;
        let (_, report) = compress_batched(&data, &opts).unwrap();
        let modeled = geometry_seconds(&sig, &spec, n as u64, r, shards, streams);
        let err = modeled / report.makespan - 1.0;
        let row = format!(
            "| {} (β = {:.2}, r = {r}) | {shards}×{streams} | {:.1} µs | {:.1} µs | {:+.1} % |",
            dataset.name(),
            sig.avg_bits(),
            report.makespan * 1e6,
            modeled * 1e6,
            err * 100.0
        );
        println!("{row}");
        table.push((row, err));
    }
    for (row, err) in &table {
        assert!(err.abs() < GEOMETRY_HYSTERESIS, "model error past the hysteresis: {row}");
    }
}
