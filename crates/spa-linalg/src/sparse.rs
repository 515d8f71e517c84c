//! Sorted sparse vectors.
//!
//! A [`SparseVec`] stores `(index, value)` pairs with strictly increasing
//! `u32` indices in two parallel vectors — the classic coordinate layout
//! that makes dot products a linear merge and keeps per-entry overhead at
//! 12 bytes. Explicit zeros are never stored.

use crate::row::{RowView, SparseRow};
use spa_types::{Result, SpaError};

/// Sparse vector with sorted indices and no explicit zeros.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseRow for SparseVec {
    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn indices(&self) -> &[u32] {
        &self.indices
    }

    #[inline]
    fn values(&self) -> &[f64] {
        &self.values
    }
}

impl SparseVec {
    /// An all-zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self { dim, indices: Vec::new(), values: Vec::new() }
    }

    /// Builds from `(index, value)` pairs in any order.
    ///
    /// Zero values are dropped; duplicate indices and out-of-range
    /// indices are rejected.
    pub fn from_pairs(dim: usize, pairs: impl IntoIterator<Item = (u32, f64)>) -> Result<Self> {
        let mut entries: Vec<(u32, f64)> = pairs.into_iter().filter(|&(_, v)| v != 0.0).collect();
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            if (i as usize) >= dim {
                return Err(SpaError::DimensionMismatch { got: i as usize + 1, expected: dim });
            }
            if indices.last() == Some(&i) {
                return Err(SpaError::Invalid(format!("duplicate sparse index {i}")));
            }
            if !v.is_finite() {
                return Err(SpaError::Invalid(format!("non-finite value at index {i}")));
            }
            indices.push(i);
            values.push(v);
        }
        Ok(Self { dim, indices, values })
    }

    /// Builds from pre-sorted, pre-validated parallel buffers without
    /// re-checking invariants (checked in debug builds). Producers that
    /// already hold sorted unique in-range indices — CSR rows, row
    /// views — use this to skip [`Self::from_pairs`]' re-validation.
    pub(crate) fn from_sorted_unchecked(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Self {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "indices must be sorted unique");
        debug_assert!(indices.last().is_none_or(|&i| (i as usize) < dim));
        Self { dim, indices, values }
    }

    /// Reborrows as a zero-copy [`RowView`].
    #[inline]
    pub fn view(&self) -> RowView<'_> {
        RowView::new(self.dim, &self.indices, &self.values)
    }

    /// Builds from a dense slice, dropping zeros.
    pub fn from_dense(dense: &[f64]) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                indices.push(i as u32);
                values.push(v);
            }
        }
        Self { dim: dense.len(), indices, values }
    }

    /// Dimension (logical length).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Value at `index` (0 when not stored): [`SparseRow::get`], callable
    /// without the trait in scope.
    pub fn get(&self, index: u32) -> f64 {
        SparseRow::get(self, index)
    }

    /// Iterates over stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices.iter().copied().zip(self.values.iter().copied())
    }

    /// Stored indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sparse·dense dot product: [`SparseRow::dot_dense`], callable
    /// without the trait in scope.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        SparseRow::dot_dense(self, dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sv(dim: usize, pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(dim, pairs.iter().copied()).unwrap()
    }

    #[test]
    fn from_pairs_sorts_and_drops_zeros() {
        let v = sv(10, &[(7, 2.0), (1, 3.0), (4, 0.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.indices(), &[1, 7]);
        assert_eq!(v.get(1), 3.0);
        assert_eq!(v.get(4), 0.0);
    }

    #[test]
    fn from_pairs_rejects_duplicates_and_out_of_range() {
        assert!(SparseVec::from_pairs(4, [(1, 1.0), (1, 2.0)]).is_err());
        assert!(SparseVec::from_pairs(4, [(4, 1.0)]).is_err());
        assert!(SparseVec::from_pairs(4, [(0, f64::INFINITY)]).is_err());
    }

    #[test]
    fn dense_round_trip() {
        let dense = vec![0.0, 1.5, 0.0, -2.0];
        let v = SparseVec::from_dense(&dense);
        assert_eq!(v.nnz(), 2);
        assert_eq!((v.dim(), v.indices(), v.values()), (4, &[1, 3][..], &[1.5, -2.0][..]));
    }

    #[test]
    fn sparse_dot_matches_dense_dot() {
        let a = sv(6, &[(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = sv(6, &[(2, 4.0), (3, 9.0), (5, -1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 4.0 - 3.0);
        assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn dot_dense_and_axpy() {
        let a = sv(4, &[(1, 2.0), (3, -1.0)]);
        let d = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(a.dot_dense(&d), 2.0 * 20.0 - 40.0);
        let mut acc = vec![0.0; 4];
        a.add_scaled_into(2.0, &mut acc);
        assert_eq!(acc, vec![0.0, 4.0, 0.0, -2.0]);
    }

    #[test]
    fn norm2_over_entries() {
        assert_eq!(sv(9, &[(0, 3.0), (8, 4.0)]).norm2(), 5.0);
    }

    proptest! {
        #[test]
        fn dense_sparse_dot_agree(
            a in proptest::collection::vec(-10f64..10.0, 1..24),
        ) {
            // derive b deterministically so dimensions agree
            let b: Vec<f64> = a.iter().map(|x| if x.abs() > 5.0 { 0.0 } else { x * 2.0 }).collect();
            let sa = SparseVec::from_dense(&a);
            let sb = SparseVec::from_dense(&b);
            let dense_dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            prop_assert!((sa.dot(&sb) - dense_dot).abs() < 1e-9);
            prop_assert!((sa.dot_dense(&b) - dense_dot).abs() < 1e-9);
        }
    }
}
