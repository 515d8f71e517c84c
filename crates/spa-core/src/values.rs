//! The Intelligent User Interface: Human Values Scale + coherence.
//!
//! SPA's fifth component (§4, item 5) "manage\[s\] an individualized and
//! personalized Human Values Scale of each user in his/her life cycles"
//! and embeds a feedback mechanism enabling
//!
//! 1. "the analysis of diverse values from the individualized scale of
//!    each user in real time", and
//! 2. "the definition of the **coherence function** between a user's
//!    actions and his/her implicit and explicit preferences".
//!
//! The paper defers details to Guzmán et al. 2005; this module provides
//! the reproduction's rendition: a per-user ranked scale over the
//! emotional attributes (the "values" the SUM can actually estimate),
//! refreshed from the model in real time, and a coherence score in
//! `[-1, 1]` comparing the scale against the observed action stream.

use crate::sum::SumRegistry;
use spa_types::{
    AttributeSchema, EmotionalAttribute, Result, SpaError, UserId, EMOTIONAL_ATTRIBUTES,
};

/// One rung of a user's Human Values Scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueRank {
    /// The value (emotional attribute) at this rung.
    pub value: EmotionalAttribute,
    /// Relevance-weighted strength in `[0, 1]`.
    pub strength: f64,
    /// 1-based rank (1 = most important to this user).
    pub rank: usize,
}

/// An individualized Human Values Scale: the user's emotional attributes
/// ordered by relevance-weighted strength.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HumanValuesScale {
    ranks: Vec<ValueRank>,
}

impl HumanValuesScale {
    /// Builds the scale for one user from their current SUM, in real
    /// time (strength = estimate × relevance, so unconfirmed attributes
    /// rank low even when their point estimate is high).
    pub fn from_registry(
        registry: &SumRegistry,
        schema: &AttributeSchema,
        user: UserId,
    ) -> Result<Self> {
        let model = registry
            .get(user)
            .ok_or_else(|| SpaError::NotFound(format!("no SUM for user {user}")))?;
        let emotional_ids = schema.emotional_ids();
        let mut scored: Vec<(EmotionalAttribute, f64)> = EMOTIONAL_ATTRIBUTES
            .into_iter()
            .enumerate()
            .map(|(ordinal, emo)| {
                let attr = emotional_ids[ordinal];
                (emo, model.value(attr) * model.relevance(attr))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let ranks = scored
            .into_iter()
            .enumerate()
            .map(|(i, (value, strength))| ValueRank { value, strength, rank: i + 1 })
            .collect();
        Ok(Self { ranks })
    }

    /// Rungs in rank order (all ten attributes, strongest first).
    pub fn ranks(&self) -> &[ValueRank] {
        &self.ranks
    }

    /// The top rung, if the scale carries any signal at all.
    pub fn top(&self) -> Option<&ValueRank> {
        self.ranks.first().filter(|r| r.strength > 0.0)
    }

    /// Rank of a given value (1-based), if present.
    pub fn rank_of(&self, value: EmotionalAttribute) -> Option<usize> {
        self.ranks.iter().find(|r| r.value == value).map(|r| r.rank)
    }

    /// **Coherence function**: Spearman-style rank agreement between
    /// this scale (the user's *modelled* preferences) and an observed
    /// engagement profile (how strongly the user's actual actions
    /// expressed each value — e.g. response counts per appealed
    /// attribute). Returns a value in `[-1, 1]`: +1 when actions follow
    /// the scale exactly, 0 when unrelated, negative when the user acts
    /// against their modelled values — the signal that the SUM has gone
    /// stale and needs re-acquisition.
    pub fn coherence(&self, engagement: &[f64; 10]) -> f64 {
        // ranks of modelled scale, in EMOTIONAL_ATTRIBUTES order
        let mut model_rank = [0.0f64; 10];
        for rung in &self.ranks {
            model_rank[rung.value.ordinal()] = rung.rank as f64;
        }
        // ranks of engagement (descending: strongest engagement = rank 1)
        let mut order: Vec<usize> = (0..10).collect();
        order.sort_by(|&a, &b| {
            engagement[b].partial_cmp(&engagement[a]).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut engagement_rank = [0.0f64; 10];
        for (rank, &i) in order.iter().enumerate() {
            engagement_rank[i] = rank as f64 + 1.0;
        }
        spa_linalg::stats::correlation(&model_rank, &engagement_rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spa_types::Valence;

    fn registry_with_user(strengths: &[(usize, f64)]) -> (SumRegistry, AttributeSchema, UserId) {
        let schema = AttributeSchema::emagister();
        let registry = SumRegistry::new(&schema);
        let user = UserId::new(1);
        registry.with_model(user, |model| {
            for &(ordinal, v) in strengths {
                let attr = schema.emotional_ids()[ordinal];
                // several answers so relevance builds up proportionally
                for _ in 0..3 {
                    model.apply_eit_answer(attr, ordinal, Valence::new(v)).unwrap();
                }
            }
        });
        (registry, schema, user)
    }

    #[test]
    fn scale_orders_by_weighted_strength() {
        let (registry, schema, user) = registry_with_user(&[(0, 0.9), (3, 0.2), (7, -0.8)]);
        let scale = HumanValuesScale::from_registry(&registry, &schema, user).unwrap();
        assert_eq!(scale.ranks().len(), 10, "every value appears on the scale");
        assert_eq!(scale.top().unwrap().value, EmotionalAttribute::Enthusiastic);
        assert_eq!(scale.rank_of(EmotionalAttribute::Enthusiastic), Some(1));
        // frightened (ordinal 7) expressed aversion → ranks below both
        // attraction-valenced observations
        let frightened_rank = scale.rank_of(EmotionalAttribute::Frightened).unwrap();
        assert!(frightened_rank > scale.rank_of(EmotionalAttribute::Hopeful).unwrap());
        assert!(frightened_rank > scale.rank_of(EmotionalAttribute::Enthusiastic).unwrap());
        // ranks are 1..=10 and strengths non-increasing
        for (i, rung) in scale.ranks().iter().enumerate() {
            assert_eq!(rung.rank, i + 1);
        }
        for w in scale.ranks().windows(2) {
            assert!(w[0].strength >= w[1].strength);
        }
    }

    #[test]
    fn unknown_user_is_an_error() {
        let schema = AttributeSchema::emagister();
        let registry = SumRegistry::new(&schema);
        assert!(HumanValuesScale::from_registry(&registry, &schema, UserId::new(9)).is_err());
    }

    #[test]
    fn empty_model_has_no_top_value() {
        let schema = AttributeSchema::emagister();
        let registry = SumRegistry::new(&schema);
        let user = UserId::new(2);
        registry.with_model(user, |_| {});
        let scale = HumanValuesScale::from_registry(&registry, &schema, user).unwrap();
        assert!(scale.top().is_none());
    }

    #[test]
    fn coherence_is_high_when_actions_follow_the_scale() {
        let (registry, schema, user) =
            registry_with_user(&[(0, 0.9), (1, 0.6), (2, 0.3), (3, 0.1)]);
        let scale = HumanValuesScale::from_registry(&registry, &schema, user).unwrap();
        // engagement profile proportional to the modelled strengths
        let mut engagement = [0.0; 10];
        for rung in scale.ranks() {
            engagement[rung.value.ordinal()] = rung.strength;
        }
        assert!(scale.coherence(&engagement) > 0.9);
    }

    #[test]
    fn coherence_is_negative_when_actions_invert_the_scale() {
        let (registry, schema, user) = registry_with_user(&[(0, 0.9), (1, 0.6), (2, 0.3)]);
        let scale = HumanValuesScale::from_registry(&registry, &schema, user).unwrap();
        let mut engagement = [0.0; 10];
        for rung in scale.ranks() {
            // invert: the user engages most with their lowest-ranked values
            engagement[rung.value.ordinal()] = rung.rank as f64;
        }
        assert!(scale.coherence(&engagement) < -0.9);
    }

    #[test]
    fn coherence_is_bounded() {
        let (registry, schema, user) = registry_with_user(&[(4, 0.5)]);
        let scale = HumanValuesScale::from_registry(&registry, &schema, user).unwrap();
        for pattern in [[0.0; 10], [1.0; 10]] {
            let c = scale.coherence(&pattern);
            assert!((-1.0..=1.0).contains(&c));
        }
    }
}
