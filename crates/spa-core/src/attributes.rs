//! The Attributes Manager Agent.
//!
//! §4: "This agent is able to create, extract, select, and fuse
//! attributes in order to evaluate similar attributes for multiple
//! domains of interaction … This agent automatically detects the level
//! of sensibility of each user for each of his/her dominant attributes
//! by automatically assigning weights (relevancies)."
//!
//! Concretely:
//! * [`AttributesManager::dominant_sensibilities`] extracts a user's
//!   dominant emotional attributes as weighted sensibilities;
//! * [`AttributesManager::select_features`] performs the paper's
//!   SVM-based dimensionality reduction (§5.2) by delegating to
//!   [`spa_ml::feature_selection`].

use crate::sum::SumRegistry;
use spa_ml::feature_selection::FeatureMask;
use spa_ml::svm::LinearSvm;
use spa_types::{AttributeSchema, EmotionalAttribute, Result, UserId, EMOTIONAL_ATTRIBUTES};

/// The Attributes Manager: user-level sensibility extraction and
/// population-level attribute selection.
pub struct AttributesManager {
    schema: AttributeSchema,
}

impl AttributesManager {
    /// Creates a manager over a schema.
    pub fn new(schema: AttributeSchema) -> Self {
        Self { schema }
    }

    /// The schema.
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// A user's dominant emotional sensibilities as
    /// `(attribute, relevance-weighted strength)`, sorted descending —
    /// the input the Messaging Agent's step 3 consumes. Returns an
    /// empty list for unknown users (→ case 3.a, standard message).
    /// Scans the model's ten emotional attributes through
    /// [`SumRegistry::with_model_read`] — call it outside any write
    /// section on `registry`.
    pub fn dominant_sensibilities(
        &self,
        registry: &SumRegistry,
        user: UserId,
    ) -> Vec<(EmotionalAttribute, f64)> {
        let emotional_ids = self.schema.emotional_ids();
        registry
            .with_model_read(user, |model| match model {
                Some(model) => model.dominant_sensibilities(&emotional_ids),
                None => Vec::new(),
            })
            .into_iter()
            .map(|(attr, strength)| {
                let ordinal = emotional_ids
                    .iter()
                    .position(|&a| a == attr)
                    .expect("dominant attrs come from emotional_ids");
                (EMOTIONAL_ATTRIBUTES[ordinal], strength)
            })
            .collect()
    }

    /// §5.2's SVM-based dimensionality reduction: keep the `k`
    /// attributes with the largest absolute weight in a trained SVM.
    pub fn select_features(&self, svm: &LinearSvm, k: usize) -> Result<FeatureMask> {
        FeatureMask::top_k_by_weight(svm, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spa_types::Valence;

    #[test]
    fn dominant_sensibilities_for_unknown_user_is_empty() {
        let schema = AttributeSchema::emagister();
        let registry = SumRegistry::new(&schema);
        let manager = AttributesManager::new(schema);
        assert!(manager.dominant_sensibilities(&registry, UserId::new(1)).is_empty());
    }

    #[test]
    fn dominant_sensibilities_map_to_emotional_attributes() {
        let schema = AttributeSchema::emagister();
        let manager = AttributesManager::new(schema.clone());
        let registry = SumRegistry::new(&schema);
        let user = UserId::new(3);
        registry.with_model(user, |m| {
            // hopeful (ordinal 3) strongly, shy (ordinal 8) weakly
            m.apply_eit_answer(schema.emotional_ids()[3], 3, Valence::new(0.9)).unwrap();
            m.apply_eit_answer(schema.emotional_ids()[8], 8, Valence::new(-0.9)).unwrap();
        });
        let sens = manager.dominant_sensibilities(&registry, user);
        assert_eq!(sens.len(), 1);
        assert_eq!(sens[0].0, EmotionalAttribute::Hopeful);
        assert!(sens[0].1 > 0.9);
    }

    #[test]
    fn select_features_requires_a_trained_svm() {
        let manager = AttributesManager::new(AttributeSchema::emagister());
        let svm = LinearSvm::with_dim(75);
        assert!(manager.select_features(&svm, 10).is_err());
    }
}
