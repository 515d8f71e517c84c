//! Borrowed sparse row views — the zero-copy substrate of every hot
//! scoring loop.
//!
//! The deployment described in the paper scores millions of users per
//! campaign. Cloning a [`SparseVec`] out of the CSR
//! store for every row touched (as the first implementation did) costs
//! two heap allocations per row — O(rows) allocations per batch.
//! [`RowView`] borrows a row's index/value slices straight out of the
//! shared CSR buffers instead, and the [`SparseRow`] trait lets every
//! kernel (`dot`, `dot_dense`, `add_scaled_into`, `norm2`, …) run
//! unchanged over owned vectors *or* borrowed views, so batch scoring
//! allocates nothing per row.

use crate::sparse::SparseVec;

/// A borrowed sparse row: sorted indices + parallel values, no
/// ownership, no allocation. `Copy`, so it is passed by value freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowView<'a> {
    dim: usize,
    indices: &'a [u32],
    values: &'a [f64],
}

impl<'a> RowView<'a> {
    /// Wraps raw slices. `indices` must be strictly increasing, within
    /// `dim`, and the same length as `values` (checked in debug builds;
    /// producers — [`CsrMatrix`](crate::CsrMatrix) rows, [`SparseVec`]s
    /// — maintain this by construction).
    pub fn new(dim: usize, indices: &'a [u32], values: &'a [f64]) -> Self {
        debug_assert_eq!(indices.len(), values.len(), "row view: slice length mismatch");
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "row view: indices must be strictly increasing"
        );
        debug_assert!(
            indices.last().is_none_or(|&i| (i as usize) < dim),
            "row view: index out of dimension"
        );
        Self { dim, indices, values }
    }

    /// The all-zero view of dimension `dim`.
    pub fn empty(dim: usize) -> Self {
        Self { dim, indices: &[], values: &[] }
    }

    /// Copies this view into an owned [`SparseVec`].
    pub fn to_owned_vec(self) -> SparseVec {
        SparseVec::from_sorted_unchecked(self.dim, self.indices.to_vec(), self.values.to_vec())
    }

    // Inherent mirrors of the `SparseRow` accessors, so casual callers
    // don't need the trait in scope. Note the lifetimes: slices borrow
    // from the underlying storage (`'a`), not from the view.

    /// Logical dimension.
    #[inline]
    pub fn dim(self) -> usize {
        self.dim
    }

    /// Stored indices (strictly increasing).
    #[inline]
    pub fn indices(self) -> &'a [u32] {
        self.indices
    }

    /// Stored values, parallel to the indices.
    #[inline]
    pub fn values(self) -> &'a [f64] {
        self.values
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(self) -> usize {
        self.indices.len()
    }

    /// Iterates stored `(index, value)` pairs in index order.
    pub fn iter(self) -> RowIter<'a> {
        RowIter { indices: self.indices, values: self.values, pos: 0 }
    }
}

/// Read-only sparse row behaviour shared by owned vectors and borrowed
/// views. All kernels are merge- or gather-based over the sorted index
/// slices, allocating nothing.
pub trait SparseRow {
    /// Logical dimension.
    fn dim(&self) -> usize;

    /// Stored (non-zero) indices, strictly increasing.
    fn indices(&self) -> &[u32];

    /// Stored values, parallel to [`Self::indices`].
    fn values(&self) -> &[f64];

    /// Number of stored entries.
    #[inline]
    fn nnz(&self) -> usize {
        self.indices().len()
    }

    /// Reborrows as a [`RowView`].
    #[inline]
    fn view(&self) -> RowView<'_> {
        RowView::new(self.dim(), self.indices(), self.values())
    }

    /// Value at `index` (0 when not stored) — binary search.
    fn get(&self, index: u32) -> f64 {
        match self.indices().binary_search(&index) {
            Ok(pos) => self.values()[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates stored `(index, value)` pairs in index order.
    fn iter(&self) -> RowIter<'_> {
        RowIter { indices: self.indices(), values: self.values(), pos: 0 }
    }

    /// Sparse·sparse dot product (linear merge over stored entries).
    fn dot<R: SparseRow + ?Sized>(&self, other: &R) -> f64 {
        debug_assert_eq!(self.dim(), other.dim(), "sparse dot: dimension mismatch");
        let (ia, va) = (self.indices(), self.values());
        let (ib, vb) = (other.indices(), other.values());
        let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f64);
        while i < ia.len() && j < ib.len() {
            match ia[i].cmp(&ib[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += va[i] * vb[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Sparse·dense dot product (gather over stored entries).
    fn dot_dense(&self, dense: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), dense.len(), "sparse dot_dense: dimension mismatch");
        self.indices().iter().zip(self.values().iter()).map(|(&i, &v)| v * dense[i as usize]).sum()
    }

    /// `dense += alpha * self` — the sparse axpy used by SGD weight
    /// updates, touching only stored entries.
    fn add_scaled_into(&self, alpha: f64, dense: &mut [f64]) {
        debug_assert_eq!(self.dim(), dense.len(), "sparse axpy: dimension mismatch");
        for (&i, &v) in self.indices().iter().zip(self.values().iter()) {
            dense[i as usize] += alpha * v;
        }
    }

    /// L2 norm over stored entries.
    fn norm2(&self) -> f64 {
        self.values().iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl SparseRow for RowView<'_> {
    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn indices(&self) -> &[u32] {
        self.indices
    }

    #[inline]
    fn values(&self) -> &[f64] {
        self.values
    }
}

/// Iterator over a sparse row's stored `(index, value)` pairs.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    indices: &'a [u32],
    values: &'a [f64],
    pos: usize,
}

impl Iterator for RowIter<'_> {
    type Item = (u32, f64);

    fn next(&mut self) -> Option<(u32, f64)> {
        if self.pos < self.indices.len() {
            let out = (self.indices[self.pos], self.values[self.pos]);
            self.pos += 1;
            Some(out)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.indices.len() - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(dim: usize, pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(dim, pairs.iter().copied()).unwrap()
    }

    #[test]
    fn view_matches_owned_kernels() {
        let a = sv(8, &[(0, 1.0), (3, -2.0), (7, 0.5)]);
        let b = sv(8, &[(3, 4.0), (5, 9.0), (7, 2.0)]);
        let (va, vb) = (a.view(), b.view());
        assert_eq!(va.dot(&vb), a.dot(&b));
        assert_eq!(va.dot(&b), a.dot(&vb));
        let dense: Vec<f64> = (0..8).map(|i| i as f64).collect();
        assert_eq!(va.dot_dense(&dense), a.dot_dense(&dense));
        assert_eq!(va.norm2(), a.norm2());
        assert_eq!(va.get(3), -2.0);
        assert_eq!(va.get(4), 0.0);
        let mut acc_v = vec![0.0; 8];
        let mut acc_o = vec![0.0; 8];
        va.add_scaled_into(2.0, &mut acc_v);
        a.add_scaled_into(2.0, &mut acc_o);
        assert_eq!(acc_v, acc_o);
    }

    #[test]
    fn view_is_zero_copy() {
        let a = sv(5, &[(1, 2.0), (4, 3.0)]);
        let v = a.view();
        // the view borrows the exact same slices — no copy happened
        assert!(std::ptr::eq(v.indices(), a.indices()));
        assert!(std::ptr::eq(v.values(), a.values()));
    }

    #[test]
    fn empty_view_behaves() {
        let v = RowView::empty(6);
        assert_eq!(v.dim(), 6);
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.norm2(), 0.0);
        assert_eq!(v.iter().count(), 0);
        assert_eq!(v.dot(&RowView::empty(6)), 0.0);
    }

    #[test]
    fn to_owned_round_trips() {
        let a = sv(9, &[(2, 1.5), (8, -4.0)]);
        let owned = a.view().to_owned_vec();
        assert_eq!(owned, a);
    }

    #[test]
    fn iter_is_exact_size() {
        let a = sv(4, &[(0, 1.0), (2, 2.0)]);
        let mut it = a.view().iter();
        assert_eq!(it.len(), 2);
        it.next();
        assert_eq!(it.len(), 1);
    }
}
