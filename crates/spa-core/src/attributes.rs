//! The Attributes Manager Agent.
//!
//! §4: "This agent is able to create, extract, select, and fuse
//! attributes in order to evaluate similar attributes for multiple
//! domains of interaction … This agent automatically detects the level
//! of sensibility of each user for each of his/her dominant attributes
//! by automatically assigning weights (relevancies)."
//!
//! Concretely:
//! * [`fuse_schemas`] merges two domains' attribute schemas by name
//!   (cross-domain SUMs, the point of González et al. 2005);
//! * [`AttributesManager::dominant_sensibilities`] extracts a user's
//!   dominant emotional attributes as weighted sensibilities;
//! * [`AttributesManager::select_features`] performs the paper's
//!   SVM-based dimensionality reduction (§5.2) by delegating to
//!   [`spa_ml::feature_selection`].

use crate::sum::{SumConfig, SumRegistry};
use spa_ml::feature_selection::FeatureMask;
use spa_ml::svm::LinearSvm;
use spa_types::{
    AttributeSchema, EmotionalAttribute, Result, SpaError, UserId, EMOTIONAL_ATTRIBUTES,
};

/// Result of fusing two schemas: the merged schema plus, for each input
/// schema, the mapping from its attribute ids to fused ids.
#[derive(Debug, Clone)]
pub struct FusedSchema {
    /// The merged schema (union of attributes by name; first schema's
    /// definitions win on conflicts of kind/valence).
    pub schema: AttributeSchema,
    /// `map_a[i]` = fused index of attribute `i` of schema A.
    pub map_a: Vec<u32>,
    /// `map_b[i]` = fused index of attribute `i` of schema B.
    pub map_b: Vec<u32>,
}

/// Merges two attribute schemas by attribute name.
pub fn fuse_schemas(a: &AttributeSchema, b: &AttributeSchema) -> Result<FusedSchema> {
    let mut fused = AttributeSchema::new();
    let mut map_a = Vec::with_capacity(a.len());
    for def in a.iter() {
        let id = fused.push(def.name.clone(), def.kind, def.valence)?;
        map_a.push(id.raw());
    }
    let mut map_b = Vec::with_capacity(b.len());
    for def in b.iter() {
        match fused.id_of(&def.name) {
            Some(existing) => {
                let kept = fused.get(existing).expect("looked up by name");
                if kept.kind != def.kind {
                    return Err(SpaError::Invalid(format!(
                        "attribute {:?} is {} in one domain and {} in the other",
                        def.name, kept.kind, def.kind
                    )));
                }
                map_b.push(existing.raw());
            }
            None => {
                let id = fused.push(def.name.clone(), def.kind, def.valence)?;
                map_b.push(id.raw());
            }
        }
    }
    Ok(FusedSchema { schema: fused, map_a, map_b })
}

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
        config: &SumConfig,
    ) -> Vec<(EmotionalAttribute, f64)> {
        let emotional_ids = self.schema.emotional_ids();
        registry
            .with_model_read(user, |model| match model {
                Some(model) => model.dominant_sensibilities(&emotional_ids, config),
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
    use spa_types::{AttributeKind, Valence};

    #[test]
    fn fusing_disjoint_schemas_concatenates() {
        let mut a = AttributeSchema::new();
        a.push("age".into(), AttributeKind::Objective, Valence::NEUTRAL).unwrap();
        let mut b = AttributeSchema::new();
        b.push("region".into(), AttributeKind::Objective, Valence::NEUTRAL).unwrap();
        let fused = fuse_schemas(&a, &b).unwrap();
        assert_eq!(fused.schema.len(), 2);
        assert_eq!(fused.map_a, vec![0]);
        assert_eq!(fused.map_b, vec![1]);
    }

    #[test]
    fn fusing_shared_names_dedups() {
        let mut a = AttributeSchema::new();
        a.push("age".into(), AttributeKind::Objective, Valence::NEUTRAL).unwrap();
        a.push("hopeful".into(), AttributeKind::Emotional, Valence::MAX).unwrap();
        let mut b = AttributeSchema::new();
        b.push("hopeful".into(), AttributeKind::Emotional, Valence::MAX).unwrap();
        b.push("budget".into(), AttributeKind::Subjective, Valence::NEUTRAL).unwrap();
        let fused = fuse_schemas(&a, &b).unwrap();
        assert_eq!(fused.schema.len(), 3, "hopeful is shared");
        assert_eq!(fused.map_b[0], fused.map_a[1], "shared attribute maps to one id");
    }

    #[test]
    fn fusing_conflicting_kinds_fails() {
        let mut a = AttributeSchema::new();
        a.push("x".into(), AttributeKind::Objective, Valence::NEUTRAL).unwrap();
        let mut b = AttributeSchema::new();
        b.push("x".into(), AttributeKind::Emotional, Valence::MAX).unwrap();
        assert!(fuse_schemas(&a, &b).is_err());
    }

    #[test]
    fn fused_emagister_with_itself_is_identity() {
        let schema = AttributeSchema::emagister();
        let fused = fuse_schemas(&schema, &schema).unwrap();
        assert_eq!(fused.schema.len(), 75);
        assert_eq!(fused.map_a, fused.map_b);
    }

    #[test]
    fn dominant_sensibilities_for_unknown_user_is_empty() {
        let schema = AttributeSchema::emagister();
        let registry = SumRegistry::new(&schema, SumConfig::default());
        let manager = AttributesManager::new(schema);
        assert!(manager
            .dominant_sensibilities(&registry, UserId::new(1), &SumConfig::default())
            .is_empty());
    }

    #[test]
    fn dominant_sensibilities_map_to_emotional_attributes() {
        let schema = AttributeSchema::emagister();
        let manager = AttributesManager::new(schema.clone());
        let registry = SumRegistry::new(&schema, SumConfig::default());
        let user = UserId::new(3);
        registry.with_model(user, |m, config| {
            // hopeful (ordinal 3) strongly, shy (ordinal 8) weakly
            m.apply_eit_answer(schema.emotional_ids()[3], 3, Valence::new(0.9), config).unwrap();
            m.apply_eit_answer(schema.emotional_ids()[8], 8, Valence::new(-0.9), config).unwrap();
        });
        let sens = manager.dominant_sensibilities(&registry, user, &SumConfig::default());
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
