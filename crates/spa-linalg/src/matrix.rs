//! The CSR sparse matrix.

use crate::row::{RowView, SparseRow};
use crate::sparse::SparseVec;
use spa_types::{Result, SpaError};

/// Compressed sparse row matrix: the dataset container for training.
///
/// Rows are [`SparseVec`]-shaped but share three flat buffers, which
/// keeps millions of user rows in a handful of allocations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CsrMatrix {
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Empty matrix with `cols` columns and no rows.
    pub fn new(cols: usize) -> Self {
        Self { cols, indptr: vec![0], indices: Vec::new(), values: Vec::new() }
    }

    /// Builds from an iterator of sparse rows (all must share `cols`).
    pub fn from_rows<'a>(
        cols: usize,
        rows: impl IntoIterator<Item = &'a SparseVec>,
    ) -> Result<Self> {
        let mut m = Self::new(cols);
        for row in rows {
            m.push_row(row)?;
        }
        Ok(m)
    }

    /// Appends one sparse row.
    pub fn push_row(&mut self, row: &SparseVec) -> Result<()> {
        if row.dim() != self.cols {
            return Err(SpaError::DimensionMismatch { got: row.dim(), expected: self.cols });
        }
        self.indices.extend_from_slice(row.indices());
        self.values.extend_from_slice(row.values());
        self.indptr.push(self.indices.len());
        Ok(())
    }

    /// Appends a borrowed row view directly — two slice memcpys into
    /// the shared buffers, no intermediate `SparseVec` or pair vector.
    /// The view must share this matrix's column count.
    pub fn push_row_view(&mut self, row: RowView<'_>) -> Result<()> {
        if row.dim() != self.cols {
            return Err(SpaError::DimensionMismatch { got: row.dim(), expected: self.cols });
        }
        self.indices.extend_from_slice(row.indices());
        self.values.extend_from_slice(row.values());
        self.indptr.push(self.indices.len());
        Ok(())
    }

    /// Appends a row directly from `(index, value)` pairs, which must be
    /// sorted by index with no duplicates or zeros (not re-verified in
    /// release builds — use [`SparseVec`] if the input is untrusted).
    pub fn push_row_raw(&mut self, pairs: &[(u32, f64)]) {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "raw row must be sorted");
        for &(i, v) in pairs {
            debug_assert!((i as usize) < self.cols && v != 0.0);
            self.indices.push(i);
            self.values.push(v);
        }
        self.indptr.push(self.indices.len());
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Overall sparsity (fraction of zero cells; 1.0 when empty).
    pub fn sparsity(&self) -> f64 {
        let cells = self.rows() * self.cols;
        if cells == 0 {
            1.0
        } else {
            1.0 - self.nnz() as f64 / cells as f64
        }
    }

    /// Zero-copy borrowed view of row `r` — no allocation; the view
    /// points straight into the shared CSR buffers. This is the hot
    /// path every batch scorer uses.
    #[inline]
    pub fn row(&self, r: usize) -> RowView<'_> {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        RowView::new(self.cols, &self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Copies row `r` into an owned [`SparseVec`] (for callers that
    /// need ownership; scoring paths should use [`Self::row`]).
    pub fn row_vec(&self, r: usize) -> SparseVec {
        self.row(r).to_owned_vec()
    }

    /// Dot product of row `r` with a dense vector.
    #[inline]
    pub fn row_dot_dense(&self, r: usize, dense: &[f64]) -> f64 {
        self.row(r).dot_dense(dense)
    }

    /// `dense += alpha * row_r` (sparse axpy on a stored row).
    #[inline]
    pub fn row_add_scaled_into(&self, r: usize, alpha: f64, dense: &mut [f64]) {
        self.row(r).add_scaled_into(alpha, dense)
    }

    /// Iterates over `(row_index, row_view)` pairs.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, RowView<'_>)> {
        (0..self.rows()).map(move |r| (r, self.row(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        let rows = [
            SparseVec::from_pairs(4, [(0, 1.0), (2, 2.0)]).unwrap(),
            SparseVec::from_pairs(4, [(1, -1.0)]).unwrap(),
            SparseVec::zeros(4),
        ];
        CsrMatrix::from_rows(4, rows.iter()).unwrap()
    }

    #[test]
    fn csr_shape_and_rows() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), RowView::new(4, &[0u32, 2], &[1.0, 2.0]));
        assert_eq!(m.row(2), RowView::empty(4));
        assert_eq!(m.row(0).nnz(), 2, "row views borrow, not copy");
    }

    #[test]
    fn csr_rejects_mismatched_rows() {
        let mut m = CsrMatrix::new(4);
        assert!(m.push_row(&SparseVec::zeros(3)).is_err());
        assert_eq!(m.rows(), 0);
    }

    #[test]
    fn csr_row_vec_round_trip() {
        let m = sample();
        let r0 = m.row_vec(0);
        assert_eq!(r0.get(2), 2.0);
        assert_eq!(r0.dim(), 4);
    }

    #[test]
    fn csr_row_dot_and_axpy() {
        let m = sample();
        let w = [1.0, 10.0, 100.0, 1000.0];
        assert_eq!(m.row_dot_dense(0, &w), 1.0 + 200.0);
        assert_eq!(m.row_dot_dense(1, &w), -10.0);
        let mut acc = vec![0.0; 4];
        m.row_add_scaled_into(0, 2.0, &mut acc);
        assert_eq!(acc, vec![2.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn csr_sparsity() {
        let m = sample();
        assert!((m.sparsity() - (1.0 - 3.0 / 12.0)).abs() < 1e-12);
        assert_eq!(CsrMatrix::new(5).sparsity(), 1.0);
    }

    #[test]
    fn csr_push_row_raw_matches_push_row() {
        let mut a = CsrMatrix::new(4);
        a.push_row_raw(&[(1, 2.0), (3, 4.0)]);
        let mut b = CsrMatrix::new(4);
        b.push_row(&SparseVec::from_pairs(4, [(1, 2.0), (3, 4.0)]).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn csr_iter_rows_covers_all() {
        let m = sample();
        let collected: Vec<usize> = m.iter_rows().map(|(r, _)| r).collect();
        assert_eq!(collected, vec![0, 1, 2]);
        let nnz: usize = m.iter_rows().map(|(_, row)| row.nnz()).sum();
        assert_eq!(nnz, m.nnz());
    }

    #[test]
    fn csr_push_row_view_matches_push_row() {
        let m = sample();
        let mut a = CsrMatrix::new(4);
        let mut b = CsrMatrix::new(4);
        for r in 0..m.rows() {
            a.push_row_view(m.row(r)).unwrap();
            b.push_row(&m.row_vec(r)).unwrap();
        }
        assert_eq!(a, b);
        assert!(a.push_row_view(RowView::empty(3)).is_err(), "wrong dimension");
    }
}
