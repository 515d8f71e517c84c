//! Labelled sparse datasets.

use spa_linalg::{CsrMatrix, SparseVec};
use spa_types::{Result, SpaError};

/// A labelled binary-classification dataset: sparse features plus
/// `±1.0` labels.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Feature rows.
    pub x: CsrMatrix,
    /// Labels, `+1.0` (positive / responder) or `-1.0`.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Empty dataset with `cols` feature columns.
    pub fn new(cols: usize) -> Self {
        Self { x: CsrMatrix::new(cols), y: Vec::new() }
    }

    /// Appends one labelled example.
    pub fn push(&mut self, row: &SparseVec, label: f64) -> Result<()> {
        if label != 1.0 && label != -1.0 {
            return Err(SpaError::Invalid(format!("label must be ±1.0, got {label}")));
        }
        self.x.push_row(row)?;
        self.y.push(label);
        Ok(())
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of feature columns.
    pub(crate) fn cols(&self) -> usize {
        self.x.cols()
    }

    /// Count of positive labels.
    pub fn positives(&self) -> usize {
        self.y.iter().filter(|&&y| y > 0.0).count()
    }

    /// Subset by row indices (rows are copied into the new dataset's
    /// CSR buffers directly — no per-row temporaries).
    pub(crate) fn subset(&self, rows: &[usize]) -> Dataset {
        let mut d = Dataset::new(self.cols());
        for &r in rows {
            d.x.push_row_view(self.x.row(r)).expect("same column count");
            d.y.push(self.y[r]);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, cols: usize, pos_rate: f64) -> Dataset {
        let mut d = Dataset::new(cols);
        for i in 0..n {
            let row = SparseVec::from_pairs(cols, [(0u32, i as f64 + 1.0)]).unwrap();
            let label = if (i as f64) < pos_rate * n as f64 { 1.0 } else { -1.0 };
            d.push(&row, label).unwrap();
        }
        d
    }

    #[test]
    fn push_validates_labels() {
        let mut d = Dataset::new(3);
        assert!(d.push(&SparseVec::zeros(3), 0.5).is_err());
        assert!(d.push(&SparseVec::zeros(3), 1.0).is_ok());
        assert!(d.push(&SparseVec::zeros(2), -1.0).is_err(), "wrong dimension");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn positives_counts_the_positive_labels() {
        let d = toy(10, 2, 0.3);
        assert_eq!(d.positives(), 3);
    }

    #[test]
    fn subset_copies_selected_rows() {
        let d = toy(5, 2, 0.4);
        let s = d.subset(&[4, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.x.row_vec(0).get(0), 5.0);
        assert_eq!(s.y[1], 1.0);
    }
}
