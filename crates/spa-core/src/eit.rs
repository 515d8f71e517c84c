//! The Gradual Emotional Intelligence Test.
//!
//! §3 (initialization stage): emotional features are acquired through "a
//! gradual and noninvasive emotional intelligence test", structured by
//! the MSCEIT V2.0 Four-Branch Model (Table 1, encoded in
//! [`spa_types::four_branch`]). §5.2 adds the delivery constraint: "only
//! one question every time that push or newsletters are received".
//!
//! [`QuestionBank`] holds the questions (each probing one emotional
//! attribute through one branch's task style); [`EitEngine`] schedules
//! the next question per user — preferring the attribute with the least
//! evidence so coverage grows evenly — and folds answers into the SUM.

use crate::sum::SumRegistry;
use spa_types::{
    Branch, EmotionalAttribute, EventKind, LifeLogEvent, QuestionId, Result, SpaError, UserId,
    BRANCHES, EMOTIONAL_ATTRIBUTES,
};

/// One Gradual-EIT question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EitQuestion {
    /// Identifier (dense, position in the bank).
    pub id: QuestionId,
    /// Four-branch ability the question exercises.
    pub branch: Branch,
    /// Emotional attribute the answer is evidence for.
    pub target: EmotionalAttribute,
    /// Question template shown to the user (one per contact).
    pub text: String,
}

/// The question bank.
#[derive(Debug, Clone)]
pub struct QuestionBank {
    questions: Vec<EitQuestion>,
}

impl QuestionBank {
    /// Builds the standard bank: one question per (branch, emotional
    /// attribute) pair — 40 questions, covering every attribute through
    /// every ability family.
    pub fn standard() -> Self {
        let mut questions = Vec::with_capacity(40);
        for branch in BRANCHES {
            for target in EMOTIONAL_ATTRIBUTES {
                let id = QuestionId::new(questions.len() as u32);
                let text = format!(
                    "[{} / {}] When you picture your next training course, how strongly does \
                     the word \"{}\" describe your reaction?",
                    branch.title(),
                    branch.tasks()[0],
                    target.name(),
                );
                questions.push(EitQuestion { id, branch, target, text });
            }
        }
        Self { questions }
    }

    /// Number of questions.
    pub fn len(&self) -> usize {
        self.questions.len()
    }

    /// True when the bank is empty (constructors prevent this).
    pub fn is_empty(&self) -> bool {
        self.questions.is_empty()
    }

    /// Lookup by id.
    pub fn question(&self, id: QuestionId) -> Option<&EitQuestion> {
        self.questions.get(id.index())
    }

    /// All questions probing one attribute.
    pub fn for_target(&self, target: EmotionalAttribute) -> Vec<&EitQuestion> {
        self.questions.iter().filter(|q| q.target == target).collect()
    }

    /// All questions of one branch.
    pub fn for_branch(&self, branch: Branch) -> Vec<&EitQuestion> {
        self.questions.iter().filter(|q| q.branch == branch).collect()
    }
}

/// Per-branch emotional-intelligence scores derived from a user's
/// answers (mean expressed intensity per branch, in `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BranchScores {
    /// Scores indexed like [`BRANCHES`]; `None` when the branch has no
    /// answers yet.
    pub scores: [Option<f64>; 4],
}

impl BranchScores {
    /// Overall EI score: mean of the available branch scores.
    pub fn overall(&self) -> Option<f64> {
        let present: Vec<f64> = self.scores.iter().flatten().copied().collect();
        if present.is_empty() {
            None
        } else {
            Some(present.iter().sum::<f64>() / present.len() as f64)
        }
    }
}

/// Scheduler + answer processor for the Gradual EIT.
pub struct EitEngine {
    bank: QuestionBank,
}

impl EitEngine {
    /// Wraps a question bank.
    pub fn new(bank: QuestionBank) -> Result<Self> {
        if bank.is_empty() {
            return Err(SpaError::Invalid("question bank is empty".into()));
        }
        Ok(Self { bank })
    }

    /// Standard engine over [`QuestionBank::standard`].
    pub fn standard() -> Self {
        Self::new(QuestionBank::standard()).expect("standard bank is non-empty")
    }

    /// Chooses the next question for a user: the attribute with the
    /// fewest incorporated answers (ties break in paper order), cycling
    /// through branches as evidence accumulates. One call = one contact
    /// (§5.2's one-question-per-push rule). Reads the user's ten answer
    /// counters through [`SumRegistry::with_model_read`] — call it
    /// outside any write section on `registry`.
    pub fn next_question(&self, registry: &SumRegistry, user: UserId) -> &EitQuestion {
        let counts = registry
            .with_model_read(user, |model| model.map(|m| *m.eit_answer_counts()))
            .unwrap_or([0u32; 10]);
        let target_ordinal = (0..10).min_by_key(|&i| (counts[i], i)).expect("ten attributes");
        let target = EMOTIONAL_ATTRIBUTES[target_ordinal];
        // rotate branch with the answer count so repeated probes of one
        // attribute exercise different abilities
        let branch = BRANCHES[(counts[target_ordinal] as usize) % BRANCHES.len()];
        self.bank
            .questions
            .iter()
            .find(|q| q.target == target && q.branch == branch)
            .or_else(|| self.bank.for_target(target).into_iter().next())
            .expect("standard bank covers every (branch, target) pair")
    }

    /// Folds an EIT-related LifeLog event into a locked model slot
    /// (initialization stage) — the pre-processor routes EIT events
    /// here, so one user's events share a single lock acquisition.
    /// Skipped questions leave the model untouched. Returns `true` when
    /// an answer was incorporated. An answer naming a question outside
    /// the bank errors **before** touching the slot, so a rejected
    /// answer never materializes an empty model.
    pub(crate) fn apply(
        &self,
        slot: &mut crate::sum::ModelSlot,
        schema: &spa_types::AttributeSchema,
        event: &LifeLogEvent,
    ) -> Result<bool> {
        match &event.kind {
            EventKind::EitAnswer { question, answer } => {
                let q = self
                    .bank
                    .question(*question)
                    .ok_or_else(|| SpaError::NotFound(format!("question {question}")))?;
                let ordinal = q.target.ordinal();
                let attr = schema.emotional_ids()[ordinal];
                slot.get_or_create().apply_eit_answer(attr, ordinal, *answer)?;
                Ok(true)
            }
            EventKind::EitSkipped { .. } => Ok(false),
            _ => Err(SpaError::Invalid(format!(
                "EitEngine::apply received a non-EIT event ({})",
                event.kind.tag()
            ))),
        }
    }

    /// Per-branch EI scores for one user: the mean estimate of the
    /// attributes probed, weighted by how much of that evidence came
    /// through each branch. With the standard bank every branch probes
    /// every attribute, so this reduces to the user's mean expressed
    /// intensity once coverage is complete. Borrows the model through
    /// [`SumRegistry::with_model_read`] — call it outside any write
    /// section on `registry`.
    pub fn branch_scores(
        &self,
        registry: &SumRegistry,
        schema: &spa_types::AttributeSchema,
        user: UserId,
    ) -> BranchScores {
        let emotional = schema.emotional_ids();
        registry.with_model_read(user, |model| {
            let Some(model) = model else { return BranchScores::default() };
            let counts = model.eit_answer_counts();
            let mut scores = [None; 4];
            for (b, branch) in BRANCHES.into_iter().enumerate() {
                // attributes with at least one answer routed through ≥
                // this branch position (branch rotation means count > b
                // implies branch b was exercised)
                let covered: Vec<f64> = (0..10)
                    .filter(|&i| counts[i] as usize > b)
                    .map(|i| model.value(emotional[i]))
                    .collect();
                if !covered.is_empty() {
                    scores[b] = Some(covered.iter().sum::<f64>() / covered.len() as f64);
                }
                let _ = branch;
            }
            BranchScores { scores }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocessor::LifeLogPreprocessor;
    use spa_types::{AttributeSchema, Timestamp, Valence};

    fn setup() -> (EitEngine, SumRegistry, AttributeSchema) {
        (
            EitEngine::standard(),
            SumRegistry::new(&AttributeSchema::emagister()),
            AttributeSchema::emagister(),
        )
    }

    /// The pre-processor that routes EIT events to the engine.
    fn preprocessor(schema: &AttributeSchema) -> LifeLogPreprocessor {
        let courses = spa_synth::catalog::CourseCatalog::generate(10, 2, 1).unwrap();
        LifeLogPreprocessor::new(schema.clone(), &courses)
    }

    #[test]
    fn standard_bank_covers_all_pairs() {
        let bank = QuestionBank::standard();
        assert_eq!(bank.len(), 40, "4 branches × 10 attributes");
        for branch in BRANCHES {
            assert_eq!(bank.for_branch(branch).len(), 10);
        }
        for target in EMOTIONAL_ATTRIBUTES {
            assert_eq!(bank.for_target(target).len(), 4);
        }
    }

    #[test]
    fn question_ids_are_dense() {
        let bank = QuestionBank::standard();
        for (i, q) in bank.questions.iter().enumerate() {
            assert_eq!(q.id.index(), i);
            assert_eq!(bank.question(q.id), Some(q));
            assert!(q.text.contains(q.target.name()));
        }
        assert!(bank.question(QuestionId::new(40)).is_none());
    }

    #[test]
    fn scheduler_starts_with_first_attribute_first_branch() {
        let (engine, registry, _) = setup();
        let q = engine.next_question(&registry, UserId::new(1));
        assert_eq!(q.target, EmotionalAttribute::Enthusiastic);
        assert_eq!(q.branch, Branch::Perceiving);
    }

    #[test]
    fn scheduler_spreads_coverage_evenly() {
        let (engine, registry, schema) = setup();
        let pre = preprocessor(&schema);
        let user = UserId::new(2);
        // simulate 20 contacts, always answering
        for round in 0..20 {
            let q = engine.next_question(&registry, user);
            let event = LifeLogEvent::new(
                user,
                Timestamp::from_millis(round),
                EventKind::EitAnswer { question: q.id, answer: Valence::new(0.5) },
            );
            pre.ingest(&registry, &engine, &event).unwrap();
        }
        let counts = *registry.get(user).unwrap().eit_answer_counts();
        assert_eq!(counts, [2u32; 10], "20 answers spread 2 per attribute");
    }

    #[test]
    fn scheduler_rotates_branches_per_attribute() {
        let (engine, registry, schema) = setup();
        let pre = preprocessor(&schema);
        let user = UserId::new(3);
        let mut branches_seen = Vec::new();
        for round in 0..40 {
            let q = engine.next_question(&registry, user);
            if q.target == EmotionalAttribute::Enthusiastic {
                branches_seen.push(q.branch);
            }
            let event = LifeLogEvent::new(
                user,
                Timestamp::from_millis(round),
                EventKind::EitAnswer { question: q.id, answer: Valence::NEUTRAL },
            );
            pre.ingest(&registry, &engine, &event).unwrap();
        }
        assert_eq!(branches_seen, BRANCHES.to_vec(), "four probes, four branches");
    }

    #[test]
    fn skipped_questions_change_nothing() {
        let (engine, registry, schema) = setup();
        let pre = preprocessor(&schema);
        let user = UserId::new(4);
        let event = LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::EitSkipped { question: QuestionId::new(0) },
        );
        pre.ingest(&registry, &engine, &event).unwrap();
        assert_eq!((pre.stats().eit_skips, pre.stats().eit_answers), (1, 0));
        assert!(registry.get(user).is_none(), "no model materialized for a skip");
    }

    #[test]
    fn ingest_rejects_foreign_events() {
        let (engine, registry, schema) = setup();
        let event = LifeLogEvent::new(
            UserId::new(1),
            Timestamp::from_millis(0),
            EventKind::MessageOpened { campaign: spa_types::CampaignId::new(1) },
        );
        let applied =
            registry.with_model_slot(event.user, |slot| engine.apply(slot, &schema, &event));
        assert!(applied.is_err());
    }

    #[test]
    fn ingest_rejects_unknown_questions() {
        let (engine, registry, schema) = setup();
        let pre = preprocessor(&schema);
        let event = LifeLogEvent::new(
            UserId::new(1),
            Timestamp::from_millis(0),
            EventKind::EitAnswer { question: QuestionId::new(999), answer: Valence::NEUTRAL },
        );
        assert!(pre.ingest(&registry, &engine, &event).is_err());
        assert!(registry.get(UserId::new(1)).is_none(), "a rejected answer builds no model");
    }

    #[test]
    fn answers_update_the_probed_attribute() {
        let (engine, registry, schema) = setup();
        let pre = preprocessor(&schema);
        let user = UserId::new(5);
        let q = engine.next_question(&registry, user).clone();
        let event = LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::EitAnswer { question: q.id, answer: Valence::new(0.9) },
        );
        pre.ingest(&registry, &engine, &event).unwrap();
        let model = registry.get(user).unwrap();
        let attr = schema.emotional_ids()[q.target.ordinal()];
        assert!((model.value(attr) - 0.95).abs() < 1e-9);
    }

    #[test]
    fn branch_scores_appear_with_coverage() {
        let (engine, registry, schema) = setup();
        let pre = preprocessor(&schema);
        let user = UserId::new(6);
        assert_eq!(engine.branch_scores(&registry, &schema, user).overall(), None);
        // ten answers → every attribute probed once → branch 1 covered
        for round in 0..10 {
            let q = engine.next_question(&registry, user);
            let event = LifeLogEvent::new(
                user,
                Timestamp::from_millis(round),
                EventKind::EitAnswer { question: q.id, answer: Valence::new(0.5) },
            );
            pre.ingest(&registry, &engine, &event).unwrap();
        }
        let scores = engine.branch_scores(&registry, &schema, user);
        assert!(scores.scores[0].is_some());
        assert!(scores.scores[1].is_none(), "second branch not yet exercised");
        let overall = scores.overall().unwrap();
        assert!((overall - 0.75).abs() < 1e-9, "answers of +0.5 valence → 0.75 sensibility");
    }

    #[test]
    fn empty_bank_is_rejected() {
        let bank = QuestionBank { questions: vec![] };
        assert!(EitEngine::new(bank).is_err());
    }
}
