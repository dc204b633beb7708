//! Dense-to-sparse storage for breaking units — the cuSPARSE substitute.
//!
//! A *breaking* unit is a run of `2^r` symbols whose merged codeword
//! exceeds the representative word width (Section IV-C). The paper filters
//! them out with a cheap reduction ("backtrace the breaking points ...
//! about 300 us") and stores them via a cuSPARSE dense-to-sparse
//! conversion. Here the sparse structure stores, per breaking unit, its
//! global unit index and its raw symbols; the decoder splices them back in
//! at unit boundaries.

use serde::{Deserialize, Serialize};

/// Sparse sidecar of breaking units.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseOutliers {
    /// Global unit indices (chunk-major), strictly ascending.
    indices: Vec<u64>,
    /// CSR-style offsets into `symbols`: unit `k`'s raw symbols are
    /// `symbols[offsets[k]..offsets[k+1]]`.
    offsets: Vec<u32>,
    /// Concatenated raw symbols of all breaking units.
    symbols: Vec<u16>,
}

impl SparseOutliers {
    /// An empty sidecar.
    pub fn new() -> Self {
        SparseOutliers { indices: Vec::new(), offsets: vec![0], symbols: Vec::new() }
    }

    /// Build from per-unit records `(global_unit_index, raw_symbols)`,
    /// which must arrive in ascending index order.
    pub fn from_units(units: Vec<(u64, Vec<u16>)>) -> Self {
        let mut out = SparseOutliers::new();
        for (idx, syms) in units {
            out.push(idx, &syms);
        }
        out
    }

    /// Append one breaking unit.
    ///
    /// # Panics
    /// Panics if `index` is not strictly greater than the last stored one.
    pub fn push(&mut self, index: u64, raw_symbols: &[u16]) {
        if let Some(&last) = self.indices.last() {
            assert!(index > last, "outlier units must be pushed in ascending order");
        }
        self.indices.push(index);
        self.symbols.extend_from_slice(raw_symbols);
        self.offsets.push(self.symbols.len() as u32);
    }

    /// Number of breaking units.
    pub fn num_units(&self) -> usize {
        self.indices.len()
    }

    /// Total raw symbols stored.
    pub fn total_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// True when no unit broke.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The raw symbols of the breaking unit with global index `index`, if
    /// present (binary search).
    pub fn lookup(&self, index: u64) -> Option<&[u16]> {
        let k = self.indices.binary_search(&index).ok()?;
        self.unit(k).map(|(_, syms)| syms)
    }

    /// How many breaking units have a global index below `index` — the
    /// position a walk over the units from `index` on starts at.
    pub(crate) fn rank(&self, index: u64) -> usize {
        self.indices.partition_point(|&i| i < index)
    }

    /// The `k`-th breaking unit in index order: its global unit index and
    /// raw symbols.
    pub(crate) fn unit(&self, k: usize) -> Option<(u64, &[u16])> {
        let idx = *self.indices.get(k)?;
        Some((idx, &self.symbols[self.offsets[k] as usize..self.offsets[k + 1] as usize]))
    }

    /// Iterate `(global_unit_index, symbols)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u16])> {
        (0..self.indices.len()).filter_map(move |k| self.unit(k))
    }

    /// Storage cost of the sidecar in bits (indices + offsets + raw
    /// symbols) — counted against the compression ratio.
    pub fn storage_bits(&self) -> u64 {
        (self.indices.len() as u64) * 64
            + (self.offsets.len() as u64) * 32
            + (self.symbols.len() as u64) * 16
    }

    /// Merge a list of per-chunk sidecars (ascending chunk order) into one.
    pub fn concat(parts: Vec<SparseOutliers>) -> Self {
        let mut out = SparseOutliers::new();
        for part in parts {
            for (idx, syms) in part.iter() {
                out.push(idx, syms);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut s = SparseOutliers::new();
        s.push(5, &[1, 2, 3]);
        s.push(9, &[4]);
        assert_eq!(s.lookup(5), Some(&[1u16, 2, 3][..]));
        assert_eq!(s.lookup(9), Some(&[4u16][..]));
        assert_eq!(s.lookup(7), None);
        assert_eq!(s.num_units(), 2);
        assert_eq!(s.total_symbols(), 4);
    }

    #[test]
    fn rank_and_unit_walk_in_index_order() {
        let s = SparseOutliers::from_units(vec![(2, vec![1]), (5, vec![2, 3]), (9, vec![4])]);
        assert_eq!([0, 2, 3, 5, 10].map(|i| s.rank(i)), [0, 0, 1, 1, 3]);
        assert_eq!(s.unit(1), Some((5, &[2u16, 3][..])));
        assert_eq!(s.unit(3), None);
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn out_of_order_rejected() {
        let mut s = SparseOutliers::new();
        s.push(5, &[1]);
        s.push(5, &[2]);
    }

    #[test]
    fn empty_sidecar() {
        let s = SparseOutliers::new();
        assert!(s.is_empty());
        assert_eq!(s.lookup(0), None);
        assert_eq!(s.storage_bits(), 32); // the single base offset
    }

    #[test]
    fn from_units_and_iter() {
        let s = SparseOutliers::from_units(vec![(1, vec![7, 7]), (3, vec![8])]);
        let collected: Vec<(u64, Vec<u16>)> =
            s.iter().map(|(i, syms)| (i, syms.to_vec())).collect();
        assert_eq!(collected, vec![(1, vec![7, 7]), (3, vec![8])]);
    }

    #[test]
    fn concat_preserves_order() {
        let a = SparseOutliers::from_units(vec![(1, vec![1])]);
        let b = SparseOutliers::from_units(vec![(4, vec![2]), (6, vec![3])]);
        let c = SparseOutliers::concat(vec![a, b]);
        assert_eq!(c.num_units(), 3);
        assert_eq!(c.lookup(4), Some(&[2u16][..]));
    }

    #[test]
    fn storage_bits_accounting() {
        let s = SparseOutliers::from_units(vec![(0, vec![1, 2])]);
        assert_eq!(s.storage_bits(), 64 + 2 * 32 + 2 * 16);
    }
}
