//! The selection function.
//!
//! §5.4: "The selection function: to choose the user with greater
//! propensity to follow a course in the recommender system." §5.2: SVMs
//! "have been used as a learning component in ranking users to assess
//! their propensity to accept a recommended item."
//!
//! [`SelectionFunction`] trains a linear SVM on labelled campaign
//! history (features → responded) and scores one user's features. The
//! platform ([`crate::shard::ShardedSpa::rank_top_k`]) ranks an
//! audience by those scores under the one comparator defined here, and
//! the campaign engine contacts the top slice — exactly what the
//! cumulative-redemption curve of Fig 6(a) measures.

use spa_linalg::{RowView, SparseVec};
use spa_ml::svm::{LinearSvm, SvmConfig};
use spa_ml::{Classifier, Dataset};
use spa_types::{Result, UserId};

/// Weight of a responder against a non-responder in the platform's
/// selection SVM ([`SelectionFunction::with_imbalance`]): campaign
/// labels are imbalanced, and the paper gives no weight for them. A
/// calibrated input for §5.4's selection function.
pub const POSITIVE_WEIGHT: f64 = 4.0;

/// SVM-backed propensity ranker.
///
/// `Clone` is part of the serving contract: [`crate::shard::ShardedSpa`]
/// keeps a writer-side master and publishes an `Arc` clone after every
/// training step, so scoring reads never wait on the master's lock.
#[derive(Clone)]
pub struct SelectionFunction {
    svm: LinearSvm,
}

impl SelectionFunction {
    /// Creates an untrained selection function for `dim` features.
    pub(crate) fn new(dim: usize, config: SvmConfig) -> Self {
        Self { svm: LinearSvm::new(dim, config) }
    }

    /// Default hyper-parameters tuned for imbalanced campaign labels:
    /// positives are up-weighted by the given factor.
    pub fn with_imbalance(dim: usize, positive_weight: f64) -> Self {
        Self::new(dim, SvmConfig { positive_weight, epochs: 6, lambda: 1e-4, ..Default::default() })
    }

    /// Trains on labelled history (`+1` = responded).
    pub fn fit(&mut self, data: &Dataset) -> Result<()> {
        self.svm.fit(data)
    }

    /// Incrementally folds in one observed outcome over a borrowed row
    /// (SPA's incremental learning; the batch baseline retrains
    /// instead) — what the platform's `observe_outcome` applies.
    pub(crate) fn partial_fit_view(
        &mut self,
        features: RowView<'_>,
        responded: bool,
    ) -> Result<()> {
        self.svm.partial_fit_view(features, if responded { 1.0 } else { -1.0 })
    }

    /// True once trained.
    pub fn is_trained(&self) -> bool {
        self.svm.is_trained()
    }

    /// Direct access to the underlying SVM (e.g. for feature selection).
    pub fn svm(&self) -> &LinearSvm {
        &self.svm
    }

    /// Serializes the trained state (weights, bias, Pegasos step
    /// counter) into `out` — what a platform checkpoint stores so
    /// recovery restores the selection function instead of retraining
    /// it from scratch. See [`spa_ml::svm::LinearSvm::write_state`].
    pub fn write_state(&self, out: &mut Vec<u8>) {
        self.svm.write_state(out);
    }

    /// Restores state written by [`SelectionFunction::write_state`].
    /// Bit-exact: the restored function scores and keeps learning
    /// identically to the one that was checkpointed. Hyper-parameters
    /// stay as constructed: they are not part of the state.
    pub(crate) fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.svm.read_state(bytes)
    }

    /// Propensity score of one user.
    pub fn score(&self, features: &SparseVec) -> Result<f64> {
        self.svm.decision_function(features)
    }

    /// Propensity score of one borrowed feature row (zero-copy) — the
    /// kernel every scoring surface routes through, published advice rows
    /// included.
    pub fn score_view(&self, features: RowView<'_>) -> Result<f64> {
        self.svm.decision_view(features)
    }

    /// The **single** ranking comparator shared by every surface (the
    /// platform's `rank` and its per-part top-k merge) — the
    /// bit-identical ranking at any shard and thread count depends on
    /// there being exactly one. Descending by score; ties break by ascending user
    /// id, so the order is total whenever ids are distinct.
    pub(crate) fn propensity_cmp(a: &(UserId, f64), b: &(UserId, f64)) -> std::cmp::Ordering {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    }

    /// Sorts scored users with `SelectionFunction::propensity_cmp`.
    pub fn sort_by_propensity(scored: &mut [(UserId, f64)]) {
        scored.sort_by(Self::propensity_cmp);
    }

    /// Keeps only the best `k` scored users, fully sorted under
    /// [`SelectionFunction::propensity_cmp`] — identical to sorting
    /// everything and truncating to `k`, but in O(n + k log k) instead
    /// of O(n log n): a quickselect partition isolates the top `k`,
    /// then only that slice is sorted. This is what lets a Fig-6-style
    /// "contact the top fraction" campaign skip the full audience sort.
    pub(crate) fn top_k_by_propensity(scored: &mut Vec<(UserId, f64)>, k: usize) {
        if k == 0 {
            scored.clear();
            return;
        }
        if k < scored.len() {
            scored.select_nth_unstable_by(k, Self::propensity_cmp);
            scored.truncate(k);
        }
        scored.sort_by(Self::propensity_cmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Responders have feature 0 ≈ 1, non-responders ≈ 0.
    fn history(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(5);
        for i in 0..n {
            let responded = i % 5 == 0; // 20% response rate, like the paper
            let signal = if responded { 0.9 } else { 0.1 };
            let row = SparseVec::from_pairs(
                5,
                [(0u32, signal + rng.gen_range(-0.05..0.05)), (1, rng.gen_range(0.0..1.0))],
            )
            .unwrap();
            d.push(&row, if responded { 1.0 } else { -1.0 }).unwrap();
        }
        d
    }

    fn audience(n: usize, seed: u64) -> Vec<(UserId, SparseVec)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let hot = i % 4 == 0;
                let signal = if hot { 0.9 } else { 0.1 };
                (
                    UserId::new(i as u32),
                    SparseVec::from_pairs(5, [(0u32, signal + rng.gen_range(-0.05..0.05))])
                        .unwrap(),
                )
            })
            .collect()
    }

    /// Scores an audience in input order, one user at a time.
    fn scored(sel: &SelectionFunction, audience: &[(UserId, SparseVec)]) -> Vec<(UserId, f64)> {
        audience.iter().map(|(user, row)| (*user, sel.score(row).unwrap())).collect()
    }

    #[test]
    fn ranks_responders_to_the_top() {
        let mut sel = SelectionFunction::with_imbalance(5, 4.0);
        sel.fit(&history(1000, 1)).unwrap();
        let mut ranked = scored(&sel, &audience(100, 2));
        SelectionFunction::sort_by_propensity(&mut ranked);
        // top 25 should be exactly the "hot" users (i % 4 == 0)
        let top: Vec<u32> = ranked[..25].iter().map(|(u, _)| u.raw()).collect();
        let hot_in_top = top.iter().filter(|&&u| u % 4 == 0).count();
        assert!(hot_in_top >= 23, "only {hot_in_top}/25 hot users on top");
    }

    #[test]
    fn rank_top_k_equals_full_rank_prefix() {
        let mut sel = SelectionFunction::with_imbalance(5, 4.0);
        sel.fit(&history(600, 8)).unwrap();
        // mix distinct scores and forced ties (zero rows)
        let mut aud = audience(150, 7);
        for i in 0..20u32 {
            aud.push((UserId::new(1000 + i), SparseVec::zeros(5)));
        }
        let scores = scored(&sel, &aud);
        let mut full = scores.clone();
        SelectionFunction::sort_by_propensity(&mut full);
        for k in [0usize, 1, 2, 37, 149, 150, 170, 500] {
            let mut top = scores.clone();
            SelectionFunction::top_k_by_propensity(&mut top, k);
            let expect = &full[..k.min(full.len())];
            assert_eq!(top.len(), expect.len(), "k={k}");
            for ((ua, sa), (ub, sb)) in top.iter().zip(expect.iter()) {
                assert_eq!(ua, ub, "k={k}: user order diverges");
                assert_eq!(sa.to_bits(), sb.to_bits(), "k={k}: score diverges");
            }
        }
    }

    #[test]
    fn untrained_selection_errors() {
        let sel = SelectionFunction::with_imbalance(5, 1.0);
        assert!(!sel.is_trained());
        assert!(sel.score(&SparseVec::zeros(5)).is_err());
    }

    #[test]
    fn incremental_updates_learn_online() {
        let mut sel = SelectionFunction::with_imbalance(5, 1.0);
        let d = history(2000, 5);
        for r in 0..d.len() {
            sel.partial_fit_view(d.x.row(r), d.y[r] > 0.0).unwrap();
        }
        assert!(sel.is_trained());
        let hot = SparseVec::from_pairs(5, [(0u32, 0.9)]).unwrap();
        let cold = SparseVec::from_pairs(5, [(0u32, 0.1)]).unwrap();
        assert!(sel.score(&hot).unwrap() > sel.score(&cold).unwrap());
    }

    /// The SVM's batch scorer and the selection function's per-user
    /// scores agree bit for bit, row by row.
    #[test]
    fn score_batch_matches_single_scoring() {
        let mut sel = SelectionFunction::with_imbalance(5, 4.0);
        let d = history(600, 9);
        sel.fit(&d).unwrap();
        let batch = sel.svm().decision_batch(&d).unwrap();
        assert_eq!(batch.len(), d.len());
        for (r, &score) in batch.iter().enumerate() {
            assert_eq!(score.to_bits(), sel.score_view(d.x.row(r)).unwrap().to_bits());
            assert_eq!(score.to_bits(), sel.score(&d.x.row_vec(r)).unwrap().to_bits());
        }
    }

    #[test]
    fn ranking_is_deterministic_including_ties() {
        let mut sel = SelectionFunction::with_imbalance(5, 1.0);
        sel.fit(&history(500, 6)).unwrap();
        // all-zero features tie; fed in descending and in interleaved
        // id order, both orderings must come out identical, ids ascending
        let descending: Vec<(UserId, SparseVec)> =
            (0..10).rev().map(|i| (UserId::new(i), SparseVec::zeros(5))).collect();
        let interleaved: Vec<(UserId, SparseVec)> =
            [3, 8, 0, 5, 9, 1, 6, 2, 7, 4].map(|i| (UserId::new(i), SparseVec::zeros(5))).into();
        let mut r1 = scored(&sel, &descending);
        let mut r2 = scored(&sel, &interleaved);
        SelectionFunction::sort_by_propensity(&mut r1);
        SelectionFunction::sort_by_propensity(&mut r2);
        assert_eq!(r1, r2);
        let ids: Vec<u32> = r1.iter().map(|(u, _)| u.raw()).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        let mut top = scored(&sel, &interleaved);
        SelectionFunction::top_k_by_propensity(&mut top, 4);
        assert_eq!(top, r1[..4], "top-k breaks the tie the same way");
    }
}
