//! Attribute vocabulary for Smart User Models.
//!
//! §5.1 of the paper: the deployed SUM gathered **75 objective, subjective
//! and emotional attributes**, of which **ten emotional attributes** carry
//! a valence: *enthusiastic, motivated, empathic, hopeful, lively,
//! stimulated, impatient, frightened, shy, apathetic*.
//!
//! An [`AttributeSchema`] is the ordered dictionary of attribute
//! definitions for one deployment; attribute values live elsewhere (in
//! user models / feature vectors indexed by [`AttributeId`]).

use crate::ids::AttributeId;
use crate::valence::Valence;
use std::collections::HashMap;
use std::fmt;

/// The three classes of user-model attributes distinguished by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeKind {
    /// Socio-demographic facts (age band, region, education level, …),
    /// extracted from registration databases.
    Objective,
    /// Preferences inferred from navigation habits (WebLogs): topic
    /// affinities, session rhythm, price sensitivity, …
    Subjective,
    /// Affective attributes discovered through the Gradual EIT and
    /// reinforced by the reward/punish mechanism. Each carries a
    /// canonical [`Valence`].
    Emotional,
}

impl fmt::Display for AttributeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttributeKind::Objective => "objective",
            AttributeKind::Subjective => "subjective",
            AttributeKind::Emotional => "emotional",
        };
        f.write_str(s)
    }
}

/// The ten emotional attributes of the emagister.com business case
/// (paper §5.1), with their canonical valence direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum EmotionalAttribute {
    Enthusiastic,
    Motivated,
    Empathic,
    Hopeful,
    Lively,
    Stimulated,
    Impatient,
    Frightened,
    Shy,
    Apathetic,
}

/// All ten emotional attributes in canonical (paper) order.
pub const EMOTIONAL_ATTRIBUTES: [EmotionalAttribute; 10] = [
    EmotionalAttribute::Enthusiastic,
    EmotionalAttribute::Motivated,
    EmotionalAttribute::Empathic,
    EmotionalAttribute::Hopeful,
    EmotionalAttribute::Lively,
    EmotionalAttribute::Stimulated,
    EmotionalAttribute::Impatient,
    EmotionalAttribute::Frightened,
    EmotionalAttribute::Shy,
    EmotionalAttribute::Apathetic,
];

impl EmotionalAttribute {
    /// Lower-case name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            EmotionalAttribute::Enthusiastic => "enthusiastic",
            EmotionalAttribute::Motivated => "motivated",
            EmotionalAttribute::Empathic => "empathic",
            EmotionalAttribute::Hopeful => "hopeful",
            EmotionalAttribute::Lively => "lively",
            EmotionalAttribute::Stimulated => "stimulated",
            EmotionalAttribute::Impatient => "impatient",
            EmotionalAttribute::Frightened => "frightened",
            EmotionalAttribute::Shy => "shy",
            EmotionalAttribute::Apathetic => "apathetic",
        }
    }

    /// Canonical valence direction: the first six attributes express
    /// attraction (positive affect toward the recommended item), the
    /// last four aversion or inhibition.
    pub(crate) fn canonical_valence(self) -> Valence {
        match self {
            EmotionalAttribute::Enthusiastic
            | EmotionalAttribute::Motivated
            | EmotionalAttribute::Empathic
            | EmotionalAttribute::Hopeful
            | EmotionalAttribute::Lively
            | EmotionalAttribute::Stimulated => Valence::new(1.0),
            EmotionalAttribute::Impatient => Valence::new(-0.5),
            EmotionalAttribute::Frightened
            | EmotionalAttribute::Shy
            | EmotionalAttribute::Apathetic => Valence::new(-1.0),
        }
    }

    /// Index in [`EMOTIONAL_ATTRIBUTES`].
    pub fn ordinal(self) -> usize {
        EMOTIONAL_ATTRIBUTES.iter().position(|&e| e == self).expect("every variant is listed")
    }
}

impl fmt::Display for EmotionalAttribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Definition of one attribute in a deployment schema.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDef {
    /// Stable identifier; equals the attribute's position in the schema.
    pub(crate) id: AttributeId,
    /// Human-readable name (unique within a schema).
    pub name: String,
    /// Objective / subjective / emotional.
    pub kind: AttributeKind,
    /// Canonical valence (meaningful for emotional attributes; neutral
    /// for the rest).
    pub valence: Valence,
}

/// Ordered, name-indexed dictionary of attribute definitions.
///
/// Attribute ids are dense (`0..len`), so downstream feature vectors can
/// be plain slices indexed by `AttributeId::index()`.
#[derive(Debug, Clone, Default)]
pub struct AttributeSchema {
    defs: Vec<AttributeDef>,
    by_name: HashMap<String, AttributeId>,
}

impl AttributeSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Width of the objective block [`AttributeSchema::emagister`] opens
    /// with (ids `0..40`): the most values one objective import carries.
    pub const EMAGISTER_OBJECTIVE_WIDTH: usize = 40;

    /// Builds the 75-attribute schema of the emagister.com business case:
    /// 40 objective + 25 subjective + the 10 canonical emotional
    /// attributes (paper §5.1).
    pub fn emagister() -> Self {
        let mut schema = Self::new();
        for i in 0..Self::EMAGISTER_OBJECTIVE_WIDTH {
            schema
                .push(format!("objective_{i:02}"), AttributeKind::Objective, Valence::NEUTRAL)
                .expect("names are unique");
        }
        for i in 0..25 {
            schema
                .push(format!("subjective_{i:02}"), AttributeKind::Subjective, Valence::NEUTRAL)
                .expect("names are unique");
        }
        for emo in EMOTIONAL_ATTRIBUTES {
            schema
                .push(emo.name().to_owned(), AttributeKind::Emotional, emo.canonical_valence())
                .expect("names are unique");
        }
        schema
    }

    /// Appends a definition; returns its id, or an error on a duplicate
    /// name.
    pub fn push(
        &mut self,
        name: String,
        kind: AttributeKind,
        valence: Valence,
    ) -> crate::Result<AttributeId> {
        if self.by_name.contains_key(&name) {
            return Err(crate::SpaError::DuplicateAttribute(name));
        }
        let id = AttributeId::new(self.defs.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.defs.push(AttributeDef { id, name, kind, valence });
        Ok(id)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when the schema holds no attributes.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Looks a definition up by id.
    pub fn get(&self, id: AttributeId) -> Option<&AttributeDef> {
        self.defs.get(id.index())
    }

    /// Iterates over all definitions in id order.
    pub fn iter(&self) -> impl Iterator<Item = &AttributeDef> {
        self.defs.iter()
    }

    /// Iterates over definitions of one kind.
    pub(crate) fn of_kind(&self, kind: AttributeKind) -> impl Iterator<Item = &AttributeDef> {
        self.defs.iter().filter(move |d| d.kind == kind)
    }

    /// Ids of all emotional attributes, in schema order.
    pub fn emotional_ids(&self) -> Vec<AttributeId> {
        self.of_kind(AttributeKind::Emotional).map(|d| d.id).collect()
    }

    /// Count of attributes of one kind.
    pub fn count_of(&self, kind: AttributeKind) -> usize {
        self.of_kind(kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emagister_schema_matches_paper_counts() {
        let s = AttributeSchema::emagister();
        assert_eq!(s.len(), 75, "paper §5.1: 75 attributes");
        assert_eq!(s.count_of(AttributeKind::Emotional), 10);
        assert_eq!(s.count_of(AttributeKind::Objective), 40);
        assert_eq!(s.count_of(AttributeKind::Subjective), 25);
    }

    #[test]
    fn emotional_names_match_paper() {
        let names: Vec<_> = EMOTIONAL_ATTRIBUTES.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "enthusiastic",
                "motivated",
                "empathic",
                "hopeful",
                "lively",
                "stimulated",
                "impatient",
                "frightened",
                "shy",
                "apathetic"
            ]
        );
    }

    #[test]
    fn canonical_valences_split_positive_negative() {
        let positives = EMOTIONAL_ATTRIBUTES.iter().filter(|e| e.canonical_valence().value() > 0.0);
        let negatives = EMOTIONAL_ATTRIBUTES.iter().filter(|e| e.canonical_valence().value() < 0.0);
        assert_eq!(positives.count(), 6);
        assert_eq!(negatives.count(), 4);
    }

    #[test]
    fn ordinal_is_position() {
        for (i, e) in EMOTIONAL_ATTRIBUTES.into_iter().enumerate() {
            assert_eq!(e.ordinal(), i);
        }
    }

    #[test]
    fn ids_are_dense_and_name_indexed() {
        let s = AttributeSchema::emagister();
        for (i, def) in s.iter().enumerate() {
            assert_eq!(def.id.index(), i);
            assert_eq!(s.get(def.id), Some(def));
        }
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut s = AttributeSchema::new();
        s.push("x".into(), AttributeKind::Objective, Valence::NEUTRAL).unwrap();
        let err = s.push("x".into(), AttributeKind::Subjective, Valence::NEUTRAL);
        assert!(err.is_err());
        assert_eq!(s.len(), 1, "failed push must not grow the schema");
    }

    #[test]
    fn missing_lookups_return_none() {
        let s = AttributeSchema::new();
        assert!(s.is_empty());
        assert_eq!(s.get(AttributeId::new(0)), None);
    }

    #[test]
    fn emotional_ids_are_the_last_ten_in_emagister() {
        let s = AttributeSchema::emagister();
        let ids = s.emotional_ids();
        assert_eq!(ids.len(), 10);
        assert_eq!(ids[0].index(), 65);
        assert_eq!(ids[9].index(), 74);
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(AttributeKind::Objective.to_string(), "objective");
        assert_eq!(AttributeKind::Subjective.to_string(), "subjective");
        assert_eq!(AttributeKind::Emotional.to_string(), "emotional");
    }
}
