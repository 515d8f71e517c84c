//! LifeLog events.
//!
//! §4 of the paper: "The user's LifeLog is a complex set of all the raw
//! data about the user generated by the interaction with multiple
//! applications … (socio-demographic data, web usage data, transactional
//! data, explicit ratings, attribute databases, … etc.)".
//! [`LifeLogEvent`] is the single raw record type ingested by the
//! LifeLogs Pre-processor Agent; everything downstream (user models,
//! feature vectors, campaign outcomes) is derived from streams of these.

use crate::ids::{ActionId, CampaignId, CourseId, QuestionId, UserId};
use crate::valence::Valence;
use std::fmt;

/// Milliseconds since an arbitrary epoch (the simulation clock origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Wraps a raw millisecond count.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Raw millisecond count.
    #[inline]
    pub const fn millis(self) -> u64 {
        self.0
    }

    /// Timestamp `ms` milliseconds later.
    #[inline]
    pub const fn plus_millis(self, ms: u64) -> Self {
        Timestamp(self.0 + ms)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The payload of one LifeLog record.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A page view / generic catalogued action (web usage data).
    Action {
        /// Which of the catalogued on-line actions was taken.
        action: ActionId,
        /// Course in whose context the action happened, if any.
        course: Option<CourseId>,
    },
    /// A transaction in the paper's sense: information request,
    /// enrollment, opinion — the outcomes campaigns try to elicit.
    Transaction {
        /// Course the transaction concerns.
        course: CourseId,
        /// Campaign that triggered it, when attributable.
        campaign: Option<CampaignId>,
    },
    /// Explicit rating of a course (explicit feedback).
    Rating {
        /// Rated course.
        course: CourseId,
        /// Star rating in `[1, 5]`.
        stars: u8,
    },
    /// The user answered one Gradual-EIT question.
    EitAnswer {
        /// Which question.
        question: QuestionId,
        /// Valence expressed by the chosen answer.
        answer: Valence,
    },
    /// The user ignored an EIT question (relevance-feedback gap; the
    /// paper notes this produces the sparsity problem).
    EitSkipped {
        /// Which question went unanswered.
        question: QuestionId,
    },
    /// A push / newsletter message was delivered to the user.
    MessageDelivered {
        /// Originating campaign.
        campaign: CampaignId,
    },
    /// The user opened a delivered message (implicit feedback; drives
    /// the reward mechanism of Fig 4).
    MessageOpened {
        /// Originating campaign.
        campaign: CampaignId,
    },
    /// A batch import of explicit objective-attribute observations
    /// (§4's attribute databases: questionnaire results, CRM exports).
    /// Administrative writes mutate the SUM exactly like interaction
    /// events do, so they are LifeLog records too — otherwise a crash
    /// would silently forget them.
    ObjectiveImported {
        /// One valence per objective attribute, in attribute-id order.
        values: Vec<f64>,
    },
    /// A campaign's message went ignored past its attention window —
    /// the negative-reward half of the Fig 4 loop.
    CampaignIgnored {
        /// The campaign whose appeal is punished.
        campaign: CampaignId,
    },
    /// A campaign outcome was fed to the selection function. The advice
    /// row that was actually trained on is recorded verbatim (sparse
    /// indices + values + dimension): Pegasos updates are order- and
    /// input-sensitive, so replay must re-feed the identical example —
    /// not recompute it from models that may since have moved on.
    OutcomeObserved {
        /// Did the user respond to the campaign?
        responded: bool,
        /// Logical dimension of the advice row.
        dim: u32,
        /// Sorted sparse indices of the advice row.
        indices: Vec<u32>,
        /// Values parallel to `indices`.
        values: Vec<f64>,
    },
}

impl EventKind {
    /// Short tag used in logs and CSV export.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Action { .. } => "action",
            EventKind::Transaction { .. } => "transaction",
            EventKind::Rating { .. } => "rating",
            EventKind::EitAnswer { .. } => "eit_answer",
            EventKind::EitSkipped { .. } => "eit_skipped",
            EventKind::MessageDelivered { .. } => "delivered",
            EventKind::MessageOpened { .. } => "opened",
            EventKind::ObjectiveImported { .. } => "objective",
            EventKind::CampaignIgnored { .. } => "ignored",
            EventKind::OutcomeObserved { .. } => "outcome",
        }
    }

    /// True for the event kinds the paper counts as "useful impacts".
    pub fn is_transaction(&self) -> bool {
        matches!(self, EventKind::Transaction { .. })
    }
}

/// One raw LifeLog record: who, when, what.
#[derive(Debug, Clone, PartialEq)]
pub struct LifeLogEvent {
    /// Acting user.
    pub user: UserId,
    /// Simulation time of the interaction.
    pub at: Timestamp,
    /// What happened.
    pub kind: EventKind,
}

impl LifeLogEvent {
    /// Convenience constructor.
    pub fn new(user: UserId, at: Timestamp, kind: EventKind) -> Self {
        Self { user, at, kind }
    }
}

impl fmt::Display for LifeLogEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.at, self.user, self.kind.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t0 = Timestamp::from_millis(100);
        let t1 = t0.plus_millis(50);
        assert_eq!(t1.millis(), 150);
    }

    #[test]
    fn timestamps_order_chronologically() {
        assert!(Timestamp::from_millis(1) < Timestamp::from_millis(2));
    }

    #[test]
    fn tags_are_distinct() {
        use std::collections::HashSet;
        let kinds = [
            EventKind::Action { action: ActionId::new(0), course: None },
            EventKind::Transaction { course: CourseId::new(0), campaign: None },
            EventKind::Rating { course: CourseId::new(0), stars: 5 },
            EventKind::EitAnswer { question: QuestionId::new(0), answer: Valence::NEUTRAL },
            EventKind::EitSkipped { question: QuestionId::new(0) },
            EventKind::MessageDelivered { campaign: CampaignId::new(0) },
            EventKind::MessageOpened { campaign: CampaignId::new(0) },
            EventKind::ObjectiveImported { values: vec![0.5] },
            EventKind::CampaignIgnored { campaign: CampaignId::new(0) },
            EventKind::OutcomeObserved {
                responded: true,
                dim: 1,
                indices: vec![0],
                values: vec![1.0],
            },
        ];
        let tags: HashSet<_> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), kinds.len());
    }

    #[test]
    fn only_transactions_count_as_useful_impacts() {
        assert!(
            EventKind::Transaction { course: CourseId::new(1), campaign: None }.is_transaction()
        );
        assert!(!EventKind::Action { action: ActionId::new(1), course: None }.is_transaction());
        assert!(!EventKind::MessageOpened { campaign: CampaignId::new(1) }.is_transaction());
    }

    #[test]
    fn event_display_is_compact() {
        let e = LifeLogEvent::new(
            UserId::new(3),
            Timestamp::from_millis(9),
            EventKind::MessageOpened { campaign: CampaignId::new(2) },
        );
        assert_eq!(e.to_string(), "t9 u3 opened");
    }
}
