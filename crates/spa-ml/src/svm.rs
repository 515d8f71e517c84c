//! Linear SVM trained with the Pegasos primal solver.
//!
//! §5.2 of the paper: "SVMs are used to classify and to predict users'
//! behaviors … Furthermore, SVMs have been used as a learning component
//! in ranking users to assess their propensity to accept a recommended
//! item." A linear kernel on sparse attribute vectors is the only
//! formulation that scales to the deployment's 3.16M users, and the
//! Pegasos stochastic sub-gradient solver (Shalev-Shwartz et al., 2007 —
//! contemporary with the paper) is the canonical primal trainer.
//!
//! The implementation supports:
//! * mini-batch Pegasos steps with `1/(λt)` step size and the optional
//!   projection onto the `1/√λ` ball;
//! * class weighting for imbalanced campaign-response labels;
//! * warm-started **incremental updates** via
//!   [`OnlineLearner::partial_fit`], matching SPA's incremental-learning
//!   design.

use crate::dataset::Dataset;
use crate::{Classifier, OnlineLearner};
use rand::prelude::*;
use rand::rngs::StdRng;
use spa_linalg::{RowView, SparseRow, SparseVec};
use spa_types::{Result, SpaError};

/// Hyper-parameters for [`LinearSvm`].
#[derive(Debug, Clone)]
pub struct SvmConfig {
    /// L2 regularization strength λ (must be > 0).
    pub lambda: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size for each Pegasos step.
    pub batch_size: usize,
    /// Weight multiplier applied to the hinge loss of positive examples
    /// (set to `negatives/positives` to re-balance skewed labels).
    pub positive_weight: f64,
    /// Project onto the `1/√λ` ball after each step (the Pegasos
    /// projection; optional in later analyses of the algorithm).
    pub project: bool,
    /// RNG seed for example sampling.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-4,
            epochs: 5,
            batch_size: 16,
            positive_weight: 1.0,
            project: true,
            seed: 0x5eed,
        }
    }
}

/// Linear support-vector machine `f(x) = w·x + b`.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    config: SvmConfig,
    weights: Vec<f64>,
    bias: f64,
    /// Pegasos step counter `t`, kept across `partial_fit` calls so the
    /// step size keeps decaying during incremental operation.
    t: u64,
    trained: bool,
}

impl LinearSvm {
    /// Creates an untrained SVM for `dim` features.
    pub fn new(dim: usize, config: SvmConfig) -> Self {
        Self { config, weights: vec![0.0; dim], bias: 0.0, t: 0, trained: false }
    }

    /// Convenience constructor with default hyper-parameters.
    pub fn with_dim(dim: usize) -> Self {
        Self::new(dim, SvmConfig::default())
    }

    /// Learned weight vector (meaningful after training).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// True once `fit` or `partial_fit` has run.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    fn check_dim(&self, dim: usize) -> Result<()> {
        if dim != self.weights.len() {
            return Err(SpaError::DimensionMismatch { got: dim, expected: self.weights.len() });
        }
        Ok(())
    }

    /// One Pegasos step on a mini-batch of row indices.
    fn step(&mut self, data: &Dataset, batch: &[usize]) {
        self.t += 1;
        let eta = 1.0 / (self.config.lambda * self.t as f64);
        // w ← (1 − ηλ) w
        let shrink = 1.0 - eta * self.config.lambda;
        spa_linalg::dense::scale(shrink, &mut self.weights);
        self.bias *= shrink;
        // add sub-gradients of margin violators
        let scale = eta / batch.len() as f64;
        for &r in batch {
            let y = data.y[r];
            let margin = y * (data.x.row_dot_dense(r, &self.weights) + self.bias);
            if margin < 1.0 {
                let w = if y > 0.0 { self.config.positive_weight } else { 1.0 };
                data.x.row_add_scaled_into(r, scale * w * y, &mut self.weights);
                self.bias += scale * w * y;
            }
        }
        if self.config.project {
            let norm = spa_linalg::dense::norm2(&self.weights);
            let radius = 1.0 / self.config.lambda.sqrt();
            if norm > radius {
                spa_linalg::dense::scale(radius / norm, &mut self.weights);
            }
        }
    }

    /// One Pegasos step on a single borrowed example — the zero-copy
    /// form of [`OnlineLearner::partial_fit`] (which delegates here), so
    /// incremental updates can run off scratch-built rows without
    /// materializing a [`SparseVec`].
    pub fn partial_fit_view(&mut self, x: RowView<'_>, y: f64) -> Result<()> {
        self.check_dim(x.dim())?;
        if y != 1.0 && y != -1.0 {
            return Err(SpaError::Invalid(format!("label must be ±1.0, got {y}")));
        }
        self.t += 1;
        let eta = 1.0 / (self.config.lambda * self.t as f64);
        let shrink = 1.0 - eta * self.config.lambda;
        spa_linalg::dense::scale(shrink, &mut self.weights);
        self.bias *= shrink;
        let margin = y * (x.dot_dense(&self.weights) + self.bias);
        if margin < 1.0 {
            let w = if y > 0.0 { self.config.positive_weight } else { 1.0 };
            x.add_scaled_into(eta * w * y, &mut self.weights);
            self.bias += eta * w * y;
        }
        self.trained = true;
        Ok(())
    }

    /// Serializes the learned state — weights, bias, Pegasos step
    /// counter, trained flag — into `out` (little-endian, layout:
    /// `dim u32 | trained u8 | t u64 | bias f64 | dim × f64 weights`).
    /// Hyper-parameters are **not** included: they are configuration,
    /// reconstructed by the caller at restore time; only what training
    /// learned needs to survive a restart. Round-trip through
    /// [`LinearSvm::read_state`] is bit-exact, so a restored model
    /// scores and keeps learning (the decaying `1/(λt)` step size
    /// continues from `t`) identically to the live one.
    pub fn write_state(&self, out: &mut Vec<u8>) {
        out.reserve(4 + 1 + 8 + 8 + self.weights.len() * 8);
        out.extend_from_slice(&(self.weights.len() as u32).to_le_bytes());
        out.push(self.trained as u8);
        out.extend_from_slice(&self.t.to_le_bytes());
        out.extend_from_slice(&self.bias.to_le_bytes());
        for w in &self.weights {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Restores the learned state written by [`LinearSvm::write_state`]
    /// into this model (hyper-parameters are kept as constructed). The
    /// stored dimension must match; any length mismatch is loud.
    pub fn read_state(&mut self, bytes: &[u8]) -> Result<()> {
        let expected = 4 + 1 + 8 + 8 + self.weights.len() * 8;
        if bytes.len() != expected {
            return Err(SpaError::Corrupt(format!(
                "svm state is {} bytes, expected {expected}",
                bytes.len()
            )));
        }
        let dim = u32::from_le_bytes(bytes[0..4].try_into().expect("4")) as usize;
        if dim != self.weights.len() {
            return Err(SpaError::DimensionMismatch { got: dim, expected: self.weights.len() });
        }
        let trained = match bytes[4] {
            0 => false,
            1 => true,
            other => return Err(SpaError::Corrupt(format!("svm trained flag has value {other}"))),
        };
        self.t = u64::from_le_bytes(bytes[5..13].try_into().expect("8"));
        self.bias = f64::from_le_bytes(bytes[13..21].try_into().expect("8"));
        for (i, w) in self.weights.iter_mut().enumerate() {
            let at = 21 + i * 8;
            *w = f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8"));
        }
        self.trained = trained;
        Ok(())
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        if data.is_empty() {
            return Err(SpaError::Invalid("cannot fit on an empty dataset".into()));
        }
        if data.cols() != self.weights.len() {
            return Err(SpaError::DimensionMismatch {
                got: data.cols(),
                expected: self.weights.len(),
            });
        }
        if self.config.lambda <= 0.0 {
            return Err(SpaError::Invalid("lambda must be positive".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = data.len();
        let batch = self.config.batch_size.max(1).min(n);
        let steps_per_epoch = n.div_ceil(batch);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.config.epochs.max(1) {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch).take(steps_per_epoch) {
                self.step(data, chunk);
            }
        }
        self.trained = true;
        Ok(())
    }

    fn decision_view(&self, x: RowView<'_>) -> Result<f64> {
        if !self.trained {
            return Err(SpaError::NotTrained);
        }
        self.check_dim(x.dim())?;
        Ok(x.dot_dense(&self.weights) + self.bias)
    }
}

impl OnlineLearner for LinearSvm {
    fn partial_fit(&mut self, x: &SparseVec, y: f64) -> Result<()> {
        self.partial_fit_view(x.view(), y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Linearly separable blob pair around ±(2, 2, …).
    fn separable(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(dim);
        for i in 0..n {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            let center = 2.0 * y;
            let dense: Vec<f64> = (0..dim).map(|_| center + rng.gen_range(-0.5..0.5)).collect();
            d.push(&SparseVec::from_dense(&dense), y).unwrap();
        }
        d
    }

    #[test]
    fn separates_linearly_separable_data() {
        let data = separable(400, 4, 1);
        let mut svm = LinearSvm::new(4, SvmConfig { epochs: 10, ..Default::default() });
        svm.fit(&data).unwrap();
        let mut correct = 0;
        for r in 0..data.len() {
            if svm.predict(&data.x.row_vec(r)).unwrap() == data.y[r] {
                correct += 1;
            }
        }
        assert!(correct as f64 / data.len() as f64 > 0.98, "only {correct}/400 correct");
    }

    #[test]
    fn decision_scores_rank_by_margin() {
        let data = separable(400, 3, 2);
        let mut svm = LinearSvm::with_dim(3);
        svm.fit(&data).unwrap();
        let deep_pos = SparseVec::from_dense(&[4.0, 4.0, 4.0]);
        let deep_neg = SparseVec::from_dense(&[-4.0, -4.0, -4.0]);
        let near = SparseVec::from_dense(&[0.05, 0.05, 0.05]);
        let sp = svm.decision_function(&deep_pos).unwrap();
        let sn = svm.decision_function(&deep_neg).unwrap();
        let sm = svm.decision_function(&near).unwrap();
        assert!(sp > sm && sm > sn, "scores must order by depth: {sp} {sm} {sn}");
    }

    #[test]
    fn untrained_svm_refuses_to_predict() {
        let svm = LinearSvm::with_dim(2);
        assert!(matches!(svm.decision_function(&SparseVec::zeros(2)), Err(SpaError::NotTrained)));
    }

    #[test]
    fn fit_validates_inputs() {
        let mut svm = LinearSvm::with_dim(3);
        assert!(svm.fit(&Dataset::new(3)).is_err(), "empty dataset");
        let data = separable(10, 4, 3);
        assert!(svm.fit(&data).is_err(), "dimension mismatch");
        let mut bad = LinearSvm::new(3, SvmConfig { lambda: 0.0, ..Default::default() });
        assert!(bad.fit(&separable(10, 3, 3)).is_err(), "lambda must be positive");
    }

    #[test]
    fn dimension_checked_at_predict() {
        let data = separable(50, 3, 4);
        let mut svm = LinearSvm::with_dim(3);
        svm.fit(&data).unwrap();
        assert!(svm.decision_function(&SparseVec::zeros(5)).is_err());
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let data = separable(100, 3, 5);
        let mut a = LinearSvm::with_dim(3);
        let mut b = LinearSvm::with_dim(3);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    /// Average hinge loss + L2 penalty on a dataset: the primal objective
    /// that Pegasos minimises.
    fn objective(svm: &LinearSvm, data: &Dataset) -> f64 {
        let mut loss = 0.0;
        for r in 0..data.len() {
            let margin = data.y[r] * (data.x.row_dot_dense(r, &svm.weights) + svm.bias);
            loss += (1.0 - margin).max(0.0);
        }
        let n = data.len().max(1) as f64;
        let w_norm = spa_linalg::dense::dot(&svm.weights, &svm.weights);
        loss / n + 0.5 * svm.config.lambda * w_norm
    }

    #[test]
    fn objective_decreases_with_training() {
        let data = separable(300, 4, 6);
        let mut svm = LinearSvm::new(4, SvmConfig { epochs: 1, ..Default::default() });
        svm.fit(&data).unwrap();
        let early = objective(&svm, &data);
        let mut svm10 = LinearSvm::new(4, SvmConfig { epochs: 12, ..Default::default() });
        svm10.fit(&data).unwrap();
        let late = objective(&svm10, &data);
        assert!(
            late <= early + 1e-9,
            "12-epoch objective {late} should not exceed 1-epoch {early}"
        );
    }

    #[test]
    fn partial_fit_learns_online() {
        let data = separable(600, 3, 7);
        let mut svm = LinearSvm::with_dim(3);
        for r in 0..data.len() {
            svm.partial_fit(&data.x.row_vec(r), data.y[r]).unwrap();
        }
        let mut correct = 0;
        for r in 0..data.len() {
            if svm.predict(&data.x.row_vec(r)).unwrap() == data.y[r] {
                correct += 1;
            }
        }
        assert!(correct as f64 / data.len() as f64 > 0.95);
    }

    #[test]
    fn partial_fit_view_matches_partial_fit_bit_for_bit() {
        let data = separable(200, 3, 12);
        let mut owned = LinearSvm::with_dim(3);
        let mut viewed = LinearSvm::with_dim(3);
        for r in 0..data.len() {
            let row = data.x.row_vec(r);
            owned.partial_fit(&row, data.y[r]).unwrap();
            viewed.partial_fit_view(data.x.row(r), data.y[r]).unwrap();
        }
        for (a, b) in owned.weights().iter().zip(viewed.weights().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(owned.bias().to_bits(), viewed.bias().to_bits());
    }

    #[test]
    fn partial_fit_validates() {
        let mut svm = LinearSvm::with_dim(3);
        assert!(svm.partial_fit(&SparseVec::zeros(2), 1.0).is_err());
        assert!(svm.partial_fit(&SparseVec::zeros(3), 0.3).is_err());
    }

    #[test]
    fn state_round_trip_is_bit_exact_and_keeps_learning_identically() {
        let data = separable(300, 4, 21);
        let mut live = LinearSvm::with_dim(4);
        live.fit(&data).unwrap();
        let mut state = Vec::new();
        live.write_state(&mut state);
        let mut restored = LinearSvm::with_dim(4);
        restored.read_state(&state).unwrap();
        assert!(restored.is_trained());
        assert_eq!(restored.bias().to_bits(), live.bias().to_bits());
        for (a, b) in restored.weights().iter().zip(live.weights().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // scoring and further online updates stay bit-identical (the
        // Pegasos step counter survives, so the step size decays in
        // lockstep)
        let more = separable(50, 4, 22);
        for r in 0..more.len() {
            live.partial_fit_view(more.x.row(r), more.y[r]).unwrap();
            restored.partial_fit_view(more.x.row(r), more.y[r]).unwrap();
        }
        for r in 0..more.len() {
            let a = live.decision_view(more.x.row(r)).unwrap();
            let b = restored.decision_view(more.x.row(r)).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn untrained_state_round_trips_as_untrained() {
        let fresh = LinearSvm::with_dim(3);
        let mut state = Vec::new();
        fresh.write_state(&mut state);
        let mut restored = LinearSvm::with_dim(3);
        restored.read_state(&state).unwrap();
        assert!(!restored.is_trained());
        assert!(restored.decision_function(&SparseVec::zeros(3)).is_err());
    }

    #[test]
    fn read_state_validates_shape() {
        let mut svm = LinearSvm::with_dim(3);
        let mut state = Vec::new();
        LinearSvm::with_dim(4).write_state(&mut state);
        assert!(svm.read_state(&state).is_err(), "length mismatch is loud");
        let mut same_len = Vec::new();
        LinearSvm::with_dim(3).write_state(&mut same_len);
        let mut wrong_dim = same_len.clone();
        wrong_dim[0..4].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            svm.read_state(&wrong_dim),
            Err(SpaError::DimensionMismatch { got: 7, expected: 3 })
        ));
        let mut bad_flag = same_len.clone();
        bad_flag[4] = 9;
        assert!(matches!(svm.read_state(&bad_flag), Err(SpaError::Corrupt(_))));
        assert!(svm.read_state(&same_len[..same_len.len() - 1]).is_err(), "truncation is loud");
    }

    #[test]
    fn positive_weighting_shifts_decision_toward_recall() {
        // 5% positives: an unweighted SVM can drown them out.
        let mut rng = StdRng::seed_from_u64(8);
        let mut d = Dataset::new(2);
        for i in 0..1000 {
            let y = if i % 20 == 0 { 1.0 } else { -1.0 };
            let c = if y > 0.0 { 1.0 } else { -0.2 };
            let dense = [c + rng.gen_range(-0.4..0.4), c + rng.gen_range(-0.4..0.4)];
            d.push(&SparseVec::from_dense(&dense), y).unwrap();
        }
        let recall = |pw: f64| {
            let mut svm = LinearSvm::new(
                2,
                SvmConfig { positive_weight: pw, epochs: 8, ..Default::default() },
            );
            svm.fit(&d).unwrap();
            let mut tp = 0;
            let mut p = 0;
            for r in 0..d.len() {
                if d.y[r] > 0.0 {
                    p += 1;
                    if svm.predict(&d.x.row_vec(r)).unwrap() > 0.0 {
                        tp += 1;
                    }
                }
            }
            tp as f64 / p as f64
        };
        assert!(recall(19.0) >= recall(1.0), "class weighting should not lower recall");
    }

    #[test]
    fn projection_keeps_weights_in_pegasos_ball() {
        let data = separable(200, 3, 9);
        let cfg = SvmConfig { lambda: 0.1, project: true, ..Default::default() };
        let mut svm = LinearSvm::new(3, cfg);
        svm.fit(&data).unwrap();
        let norm = spa_linalg::dense::norm2(svm.weights());
        assert!(norm <= 1.0 / 0.1f64.sqrt() + 1e-9, "norm {norm} escaped the ball");
    }
}
