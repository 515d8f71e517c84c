//! # spa-ml — machine-learning substrate
//!
//! From-scratch implementations of every learning component SPA needs
//! (paper §4 "Smart Component" and §5.2):
//!
//! * a **linear SVM** trained with the Pegasos primal sub-gradient solver
//!   ([`svm::LinearSvm`]) — the paper's workhorse for classifying user
//!   behaviour and ranking users by propensity;
//! * **SVM-weight feature selection** ([`feature_selection`]) — the
//!   paper's "SVM to reduce the dimensionality of the matrix";
//! * baselines for the ablation study: logistic regression
//!   ([`logreg::LogisticRegression`]), Bernoulli naive Bayes
//!   ([`naive_bayes::BernoulliNb`]), k-nearest-neighbour collaborative
//!   filtering ([`knn`]) and popularity ranking;
//! * evaluation **metrics** including ROC-AUC and the cumulative-gains
//!   machinery behind the paper's Fig 6(a) redemption curve;
//! * dataset containers and cross-validation utilities.
//!
//! All learners are deterministic given a seed and operate on sparse
//! rows ([`spa_linalg::CsrMatrix`]) because the user×attribute matrix is
//! dominated by missing Gradual-EIT answers (§5.2's sparsity problem).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod cv;
pub(crate) mod dataset;
pub mod feature_selection;
pub mod knn;
pub mod logreg;
pub mod metrics;
pub mod naive_bayes;
pub mod svm;

pub use dataset::Dataset;
pub use logreg::LogisticRegression;
pub use naive_bayes::BernoulliNb;
pub use svm::LinearSvm;

use spa_linalg::{RowView, SparseVec};
use spa_types::Result;

/// Work-item count (rows, users, events) below which a batch stays on
/// the calling thread whatever the pool size: a thread hand-off costs
/// more than it saves. Compared in exactly one place,
/// [`parallel_worthy`].
pub const PARALLEL_BATCH_THRESHOLD: usize = 2048;

/// The workspace's one "is this worth a thread hand-off" decision,
/// taken from the amount of work. Always `false` at one thread
/// (`RAYON_NUM_THREADS=1`, the serial build). The size test runs
/// **first** and the thread count is resolved only for batches that pass
/// it, so a small call never pays `rayon::current_num_threads()` (≈ 9 µs
/// outside a pool).
pub fn parallel_worthy(items: usize) -> bool {
    items >= PARALLEL_BATCH_THRESHOLD && rayon::current_num_threads() > 1
}

/// Minimum rows per worker chunk for cheap per-row kernels: the
/// vendored rayon spawns threads per call, so each worker must
/// amortize its spawn over enough rows.
const PARALLEL_MIN_CHUNK: usize = 1024;

/// A binary classifier with a real-valued decision function.
///
/// Labels are `+1.0` / `-1.0`. The decision function must be monotone in
/// the predicted probability of the positive class so that ranking by it
/// is meaningful (this is what the paper's *selection function* does).
///
/// Implementors provide [`Classifier::decision_view`], the zero-copy
/// hot path: it scores a borrowed [`RowView`] so batch scoring never
/// clones a row out of the CSR store. `Send + Sync` is a supertrait so
/// batches can fan out across threads.
pub trait Classifier: Send + Sync {
    /// Fits on a training set.
    fn fit(&mut self, data: &Dataset) -> Result<()>;

    /// Signed score of a borrowed row; positive means the positive
    /// class. This is the allocation-free kernel everything else
    /// (single scoring, batches, ranking) routes through.
    fn decision_view(&self, x: RowView<'_>) -> Result<f64>;

    /// Signed score of an owned sparse vector.
    fn decision_function(&self, x: &SparseVec) -> Result<f64> {
        self.decision_view(x.view())
    }

    /// Hard label in `{-1.0, +1.0}`.
    fn predict(&self, x: &SparseVec) -> Result<f64> {
        Ok(if self.decision_function(x)? >= 0.0 { 1.0 } else { -1.0 })
    }

    /// Decision scores for every row of a dataset, in row order.
    ///
    /// Zero-copy per row, and — for a batch [`parallel_worthy`] —
    /// fanned out over threads in order-preserving chunks, so the
    /// output is bit-identical to [`Classifier::decision_batch_serial`]
    /// at every thread count.
    fn decision_batch(&self, data: &Dataset) -> Result<Vec<f64>> {
        if parallel_worthy(data.len()) {
            use rayon::prelude::*;
            let scores: Vec<Result<f64>> = (0..data.len())
                .into_par_iter()
                .map(|r| self.decision_view(data.x.row(r)))
                .with_min_len(PARALLEL_MIN_CHUNK)
                .collect();
            return scores.into_iter().collect();
        }
        self.decision_batch_serial(data)
    }

    /// The reference serial implementation of [`Classifier::decision_batch`]
    /// (always available, for differential testing).
    fn decision_batch_serial(&self, data: &Dataset) -> Result<Vec<f64>> {
        (0..data.len()).map(|r| self.decision_view(data.x.row(r))).collect()
    }
}

/// Incremental learners additionally accept one example at a time —
/// SPA's "powerful incremental learning mechanisms" (§4).
pub trait OnlineLearner: Classifier {
    /// Updates the model with a single labelled example.
    fn partial_fit(&mut self, x: &SparseVec, y: f64) -> Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hand-off gate: work size first, thread count second, and
    /// never at one thread.
    #[test]
    fn parallel_gate_is_sized_by_work_and_threads() {
        let with_threads = |n: usize, f: fn()| {
            rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
        };
        with_threads(5, || {
            assert!(!parallel_worthy(0));
            assert!(!parallel_worthy(PARALLEL_BATCH_THRESHOLD - 1));
            assert!(parallel_worthy(PARALLEL_BATCH_THRESHOLD));
            assert!(parallel_worthy(usize::MAX));
        });
        with_threads(1, || {
            assert!(!parallel_worthy(PARALLEL_BATCH_THRESHOLD));
            assert!(!parallel_worthy(usize::MAX));
        });
    }
}
