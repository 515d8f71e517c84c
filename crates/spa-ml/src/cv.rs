//! Cross-validation utilities.

use crate::dataset::Dataset;
use crate::metrics::roc_auc;
use crate::Classifier;
use rand::prelude::*;
use rand::rngs::StdRng;
use spa_types::{Result, SpaError};

/// Deterministic k-fold split: returns `k` disjoint index sets covering
/// `0..n` whose sizes differ by at most one.
pub fn kfold_indices(n: usize, k: usize, seed: u64) -> Result<Vec<Vec<usize>>> {
    if k < 2 {
        return Err(SpaError::Invalid("k-fold needs k >= 2".into()));
    }
    if n < k {
        return Err(SpaError::Invalid(format!("cannot split {n} rows into {k} folds")));
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut folds = vec![Vec::with_capacity(n / k + 1); k];
    for (pos, idx) in order.into_iter().enumerate() {
        folds[pos % k].push(idx);
    }
    Ok(folds)
}

/// Per-fold result of a cross-validated evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldScore {
    /// Fold number, `0..k`.
    pub fold: usize,
    /// ROC-AUC on the held-out fold.
    pub auc: f64,
}

/// Runs k-fold cross-validation of a classifier factory, reporting the
/// held-out ROC-AUC of each fold.
///
/// `make` builds a fresh untrained model per fold (so no state leaks
/// across folds). With more than one pool thread the folds run
/// concurrently; each fold is self-contained and deterministic, so the
/// scores are identical to [`cross_validate_serial`] at any thread
/// count.
pub fn cross_validate<C, F>(data: &Dataset, k: usize, seed: u64, make: F) -> Result<Vec<FoldScore>>
where
    C: Classifier,
    F: Fn() -> C + Sync,
{
    let folds = kfold_indices(data.len(), k, seed)?;
    if rayon::current_num_threads() > 1 {
        use rayon::prelude::*;
        let scores: Vec<Result<FoldScore>> = (0..folds.len())
            .into_par_iter()
            .map(|fold| run_fold(data, &folds, fold, &make))
            .collect();
        return scores.into_iter().collect();
    }
    (0..folds.len()).map(|fold| run_fold(data, &folds, fold, &make)).collect()
}

/// The reference serial implementation of [`cross_validate`] (always
/// available, for differential testing).
pub fn cross_validate_serial<C, F>(
    data: &Dataset,
    k: usize,
    seed: u64,
    make: F,
) -> Result<Vec<FoldScore>>
where
    C: Classifier,
    F: Fn() -> C,
{
    let folds = kfold_indices(data.len(), k, seed)?;
    (0..folds.len()).map(|fold| run_fold(data, &folds, fold, &make)).collect()
}

/// Trains and evaluates one fold (everything per-fold is local, so
/// folds can run on any thread).
fn run_fold<C: Classifier>(
    data: &Dataset,
    folds: &[Vec<usize>],
    fold: usize,
    make: &impl Fn() -> C,
) -> Result<FoldScore> {
    let train_rows: Vec<usize> = folds
        .iter()
        .enumerate()
        .filter(|&(f, _)| f != fold)
        .flat_map(|(_, r)| r.iter().copied())
        .collect();
    let train = data.subset(&train_rows);
    let test = data.subset(&folds[fold]);
    let mut model = make();
    model.fit(&train)?;
    let scores = model.decision_batch_serial(&test)?;
    Ok(FoldScore { fold, auc: roc_auc(&test.y, &scores)? })
}

/// Mean AUC across folds.
pub fn mean_auc(scores: &[FoldScore]) -> f64 {
    if scores.is_empty() {
        0.0
    } else {
        scores.iter().map(|s| s.auc).sum::<f64>() / scores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svm::{LinearSvm, SvmConfig};
    use spa_linalg::SparseVec;

    #[test]
    fn kfold_partitions_everything() {
        let folds = kfold_indices(10, 3, 1).unwrap();
        assert_eq!(folds.len(), 3);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        let sizes: Vec<usize> = folds.iter().map(|f| f.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn kfold_is_deterministic() {
        assert_eq!(kfold_indices(20, 4, 9).unwrap(), kfold_indices(20, 4, 9).unwrap());
        assert_ne!(kfold_indices(20, 4, 9).unwrap(), kfold_indices(20, 4, 10).unwrap());
    }

    #[test]
    fn kfold_validates() {
        assert!(kfold_indices(10, 1, 0).is_err());
        assert!(kfold_indices(2, 3, 0).is_err());
    }

    #[test]
    fn cross_validation_scores_separable_data_highly() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut d = Dataset::new(2);
        for i in 0..300 {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            let dense = [2.0 * y + rng.gen_range(-0.5..0.5), 2.0 * y + rng.gen_range(-0.5..0.5)];
            d.push(&SparseVec::from_dense(&dense), y).unwrap();
        }
        let scores = cross_validate(&d, 3, 5, || {
            LinearSvm::new(2, SvmConfig { epochs: 6, ..Default::default() })
        })
        .unwrap();
        assert_eq!(scores.len(), 3);
        assert!(mean_auc(&scores) > 0.97, "mean AUC {}", mean_auc(&scores));
        for s in &scores {
            assert!(s.auc > 0.9, "fold {} AUC {}", s.fold, s.auc);
        }
    }

    #[test]
    fn mean_auc_of_empty_is_zero() {
        assert_eq!(mean_auc(&[]), 0.0);
    }
}
