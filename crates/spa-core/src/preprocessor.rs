//! The LifeLogs Pre-processor.
//!
//! §4: "Its function is to pre-process raw data in on-line and off-line
//! environments." The pre-processor consumes raw [`LifeLogEvent`]s and
//! distills them into SUM updates:
//!
//! * **web usage** ([`spa_types::EventKind::Action`]) raises the user's
//!   activity-style subjective attributes and their affinity for the
//!   course's topic;
//! * **transactions** additionally feed the reward loop when they are
//!   attributable to a campaign;
//! * **EIT events** are routed to the [`crate::eit::EitEngine`]
//!   (initialization stage);
//! * **message opens** reward the emotional attributes the message
//!   appealed to, **deliveries without a subsequent open** are punished
//!   by the campaign engine at close-out (update stage, Fig 4).

use crate::eit::EitEngine;
use crate::fastmap::FastIdMap;
use crate::sum::SumRegistry;
use parking_lot::RwLock;
use spa_synth::catalog::CourseCatalog;
use spa_types::{
    AttributeId, AttributeSchema, CampaignId, EmotionalAttribute, EventKind, LifeLogEvent, Result,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters of what the pre-processor has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreprocessorStats {
    /// Web-usage actions processed.
    pub actions: u64,
    /// Transactions processed.
    pub transactions: u64,
    /// EIT answers incorporated.
    pub eit_answers: u64,
    /// EIT questions skipped.
    pub eit_skips: u64,
    /// Message deliveries seen.
    pub deliveries: u64,
    /// Message opens seen (rewards applied).
    pub opens: u64,
    /// Objective-attribute imports applied.
    pub objective_imports: u64,
    /// Ignored-campaign punishments applied.
    pub punishments: u64,
}

impl std::ops::AddAssign for PreprocessorStats {
    /// Counter-wise sum, used to aggregate per-shard stats.
    fn add_assign(&mut self, rhs: Self) {
        self.actions += rhs.actions;
        self.transactions += rhs.transactions;
        self.eit_answers += rhs.eit_answers;
        self.eit_skips += rhs.eit_skips;
        self.deliveries += rhs.deliveries;
        self.opens += rhs.opens;
        self.objective_imports += rhs.objective_imports;
        self.punishments += rhs.punishments;
    }
}

/// The pre-processor's live counters: one atomic cell per field, so
/// concurrent ingest bumps its counter with a single uncontended
/// `fetch_add` instead of serializing every event through a global
/// `RwLock<PreprocessorStats>` write. Counters are independent
/// commutative sums, so per-field relaxed atomics read back exactly the
/// aggregates the locked struct held — [`StatsCells::snapshot`] is the
/// same value `stats()` always reported for a quiesced stream.
#[derive(Debug, Default)]
struct StatsCells {
    actions: AtomicU64,
    transactions: AtomicU64,
    eit_answers: AtomicU64,
    eit_skips: AtomicU64,
    deliveries: AtomicU64,
    opens: AtomicU64,
    objective_imports: AtomicU64,
    punishments: AtomicU64,
}

impl StatsCells {
    /// Folds a batch's locally accumulated counters in — six atomic
    /// adds per *batch*, not per event.
    fn merge(&self, delta: &PreprocessorStats) {
        for (cell, count) in [
            (&self.actions, delta.actions),
            (&self.transactions, delta.transactions),
            (&self.eit_answers, delta.eit_answers),
            (&self.eit_skips, delta.eit_skips),
            (&self.deliveries, delta.deliveries),
            (&self.opens, delta.opens),
            (&self.objective_imports, delta.objective_imports),
            (&self.punishments, delta.punishments),
        ] {
            if count > 0 {
                cell.fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> PreprocessorStats {
        PreprocessorStats {
            actions: self.actions.load(Ordering::Relaxed),
            transactions: self.transactions.load(Ordering::Relaxed),
            eit_answers: self.eit_answers.load(Ordering::Relaxed),
            eit_skips: self.eit_skips.load(Ordering::Relaxed),
            deliveries: self.deliveries.load(Ordering::Relaxed),
            opens: self.opens.load(Ordering::Relaxed),
            objective_imports: self.objective_imports.load(Ordering::Relaxed),
            punishments: self.punishments.load(Ordering::Relaxed),
        }
    }

    fn restore(&self, stats: PreprocessorStats) {
        self.actions.store(stats.actions, Ordering::Relaxed);
        self.transactions.store(stats.transactions, Ordering::Relaxed);
        self.eit_answers.store(stats.eit_answers, Ordering::Relaxed);
        self.eit_skips.store(stats.eit_skips, Ordering::Relaxed);
        self.deliveries.store(stats.deliveries, Ordering::Relaxed);
        self.opens.store(stats.opens, Ordering::Relaxed);
        self.objective_imports.store(stats.objective_imports, Ordering::Relaxed);
        self.punishments.store(stats.punishments, Ordering::Relaxed);
    }
}

/// Sentinel in [`LifeLogPreprocessor::course_attr`] for course ids the
/// catalog does not know.
const NO_COURSE_ATTR: u32 = u32::MAX;

/// Campaign → appealed attribute ids (see
/// [`LifeLogPreprocessor::register_campaign`]).
pub(crate) type AppealMap = FastIdMap<Vec<AttributeId>>;

/// Distills raw LifeLog events into Smart User Model updates.
pub struct LifeLogPreprocessor {
    schema: AttributeSchema,
    /// Course id → fully resolved topic-affinity [`AttributeId`] (raw),
    /// `NO_COURSE_ATTR` for gaps: the topic → subjective-slot folding
    /// is done once at bring-up, so the per-event lookup is one dense
    /// index — no hash, no modulo. Catalog ids are dense, so the table
    /// stays small; ids past its end (or in gaps) resolve to no
    /// attribute, exactly as an unknown course always has.
    course_attr: Vec<u32>,
    /// Campaign → emotional attribute ids its message appealed to.
    campaign_appeal: RwLock<FastIdMap<Vec<AttributeId>>>,
    stats: StatsCells,
}

/// Subjective slot used for the general activity index.
const ACTIVITY_SLOT: usize = 0;
/// Subjective slot used for the transactional-intensity index.
const TRANSACT_SLOT: usize = 1;
/// First subjective slot used for topic affinities.
const TOPIC_SLOT0: usize = 2;

impl LifeLogPreprocessor {
    /// Creates a pre-processor for a schema and course catalog.
    pub fn new(schema: AttributeSchema, courses: &CourseCatalog) -> Self {
        let slots = 25usize.saturating_sub(TOPIC_SLOT0).max(1);
        let mut course_attr = Vec::new();
        for course in courses.courses() {
            let index = course.id.raw() as usize;
            if course_attr.len() <= index {
                course_attr.resize(index + 1, NO_COURSE_ATTR);
            }
            course_attr[index] =
                Self::subjective_attr_for(TOPIC_SLOT0 + course.topic % slots).raw();
        }
        Self {
            schema,
            course_attr,
            campaign_appeal: RwLock::new(FastIdMap::default()),
            stats: StatsCells::default(),
        }
    }

    /// Registers which emotional attributes a campaign's messages appeal
    /// to, so later `MessageOpened` events can reward them. The appeal
    /// maps to the schema's emotional block here, so a registered
    /// campaign names only attributes every model holds.
    pub fn register_campaign(&self, campaign: CampaignId, appeal: &[EmotionalAttribute]) {
        let ids = self.schema.emotional_ids();
        let attrs = appeal.iter().map(|e| ids[e.ordinal()]).collect();
        self.campaign_appeal.write().insert(campaign.raw(), attrs);
    }

    /// Counters so far.
    pub fn stats(&self) -> PreprocessorStats {
        self.stats.snapshot()
    }

    /// Overwrites the counters — used when restoring a platform from a
    /// snapshot, so post-recovery stats continue from the checkpointed
    /// values instead of restarting at zero.
    pub fn restore_stats(&self, stats: PreprocessorStats) {
        self.stats.restore(stats);
    }

    fn subjective_attr_for(slot: usize) -> AttributeId {
        // subjective block starts after the objective attributes
        AttributeId::new((AttributeSchema::EMAGISTER_OBJECTIVE_WIDTH + slot.min(24)) as u32)
    }

    /// Rejects an objective import wider than the schema's objective
    /// block, or carrying a non-finite value (which the clamp into
    /// `[0, 1]` would store as NaN) — the one objective check, run by
    /// the platform before it logs an import and by
    /// [`LifeLogPreprocessor::apply`] on every `ObjectiveImported` event
    /// (replayed and wire-ingested ones never passed through the
    /// platform's).
    pub(crate) fn check_objective(values: &[f64]) -> Result<()> {
        let (got, expected) = (values.len(), AttributeSchema::EMAGISTER_OBJECTIVE_WIDTH);
        if got > expected {
            return Err(spa_types::SpaError::DimensionMismatch { got, expected });
        }
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(spa_types::SpaError::Invalid(format!(
                "objective value {} at attribute {i} is not finite",
                values[i]
            )));
        }
        Ok(())
    }

    /// Processes one raw event against the registry (routing EIT events
    /// through `eit`): the one per-event dispatch, `apply`, under the
    /// user's registry shard lock.
    pub fn ingest(
        &self,
        registry: &SumRegistry,
        eit: &EitEngine,
        event: &LifeLogEvent,
    ) -> Result<()> {
        // the appeal map is only read for campaign-bearing events, and
        // then before the registry shard lock (the one lock order, see
        // LifeLogPreprocessor::apply)
        let needs_appeal = matches!(
            event.kind,
            EventKind::Transaction { campaign: Some(_), .. }
                | EventKind::MessageOpened { .. }
                | EventKind::CampaignIgnored { .. }
        );
        let guard = needs_appeal.then(|| self.campaign_appeal.read());
        let appeal = guard.as_deref().unwrap_or(Self::empty_appeal());
        let mut delta = PreprocessorStats::default();
        let outcome = registry
            .with_model_slot(event.user, |slot| self.apply(slot, eit, appeal, event, &mut delta));
        self.stats.merge(&delta);
        outcome
    }

    /// Shared empty appeal map for events that cannot consult it.
    fn empty_appeal() -> &'static AppealMap {
        static EMPTY: std::sync::OnceLock<AppealMap> = std::sync::OnceLock::new();
        EMPTY.get_or_init(AppealMap::default)
    }

    /// Folds a batch's locally accumulated counters into the live
    /// stats (used by the engine's grouped batch apply, which counts
    /// into a plain local struct while it holds registry locks).
    pub(crate) fn merge_stats(&self, delta: &PreprocessorStats) {
        self.stats.merge(delta);
    }

    /// Read guard over the campaign-appeal map, acquired **once per
    /// batch** by the grouped apply path (and before any registry shard
    /// lock — the one lock order).
    pub(crate) fn appeal_read(&self) -> parking_lot::RwLockReadGuard<'_, AppealMap> {
        self.campaign_appeal.read()
    }

    /// The one per-event distillation, against an already-locked model
    /// slot: [`LifeLogPreprocessor::ingest`] wraps it for a single
    /// event, and the platform's batched ingest calls it for a whole
    /// registry bucket of events under a single lock acquisition
    /// ([`crate::engine::Engine::apply_grouped`]). Events that touch
    /// no per-user state (deliveries, skips, rejected EIT answers,
    /// outcome events, opens of unregistered campaigns) never
    /// materialize a model — the slot stays untouched.
    ///
    /// Lock order: every caller acquires the campaign-appeal read
    /// guard (when the event can consult it) **before** the slot's
    /// registry shard lock — [`LifeLogPreprocessor::ingest`] and the
    /// platform's grouped apply both do — and registration takes the
    /// appeal lock alone. One consistent order (appeal → registry), no
    /// cycle; never acquire the appeal lock while holding a registry
    /// shard lock.
    pub(crate) fn apply(
        &self,
        slot: &mut crate::sum::ModelSlot,
        eit: &EitEngine,
        appeal: &AppealMap,
        event: &LifeLogEvent,
        stats: &mut PreprocessorStats,
    ) -> Result<()> {
        match &event.kind {
            EventKind::Action { course, .. } => {
                stats.actions += 1;
                self.touch_usage(slot, course.map(|c| c.raw()), false);
                Ok(())
            }
            EventKind::Transaction { course, campaign } => {
                stats.transactions += 1;
                self.touch_usage(slot, Some(course.raw()), true);
                if let Some(campaign) = campaign {
                    Self::reward_campaign(slot, appeal, *campaign);
                }
                Ok(())
            }
            EventKind::Rating { course, stars } => {
                // explicit feedback: treat ≥4 stars as a transactional
                // signal for the course's topic
                stats.actions += 1;
                self.touch_usage(slot, Some(course.raw()), *stars >= 4);
                Ok(())
            }
            EventKind::EitAnswer { .. } => {
                let incorporated = eit.apply(slot, &self.schema, event)?;
                if incorporated {
                    stats.eit_answers += 1;
                }
                Ok(())
            }
            EventKind::EitSkipped { .. } => {
                eit.apply(slot, &self.schema, event)?;
                stats.eit_skips += 1;
                Ok(())
            }
            EventKind::MessageDelivered { .. } => {
                stats.deliveries += 1;
                Ok(())
            }
            EventKind::MessageOpened { campaign } => {
                stats.opens += 1;
                Self::reward_campaign(slot, appeal, *campaign);
                Ok(())
            }
            EventKind::ObjectiveImported { values } => {
                Self::check_objective(values)?;
                stats.objective_imports += 1;
                slot.get_or_create().import_objective(values)
            }
            EventKind::CampaignIgnored { campaign } => {
                stats.punishments += 1;
                if let Some(attrs) = appeal.get(&campaign.raw()) {
                    slot.get_or_create()
                        .punish(attrs)
                        .expect("campaign attrs validated at registration");
                }
                Ok(())
            }
            EventKind::OutcomeObserved { .. } => Err(spa_types::SpaError::Invalid(
                "outcome events belong to the selection log, not the shard ingest path".into(),
            )),
        }
    }

    fn touch_usage(
        &self,
        slot: &mut crate::sum::ModelSlot,
        course: Option<u32>,
        transactional: bool,
    ) {
        let activity = Self::subjective_attr_for(ACTIVITY_SLOT);
        let transact = Self::subjective_attr_for(TRANSACT_SLOT);
        let topic_attr = course
            .and_then(|c| self.course_attr.get(c as usize))
            .filter(|&&raw| raw != NO_COURSE_ATTR)
            .map(|&raw| AttributeId::new(raw));
        let model = slot.get_or_create();
        // every action nudges the activity index up
        model.observe_subjective(activity, 1.0).expect("slot in range");
        if transactional {
            model.observe_subjective(transact, 1.0).expect("slot in range");
        }
        if let Some(attr) = topic_attr {
            model.observe_subjective(attr, 1.0).expect("slot in range");
        }
    }

    fn reward_campaign(slot: &mut crate::sum::ModelSlot, appeal: &AppealMap, campaign: CampaignId) {
        // the appeal list is borrowed straight out of the map the
        // caller holds a read guard over — no per-event Vec clone, and
        // batched callers pay the guard once per batch, not per event.
        // Registration takes the write side only at campaign bring-up,
        // so ingest never waits on it in steady state.
        if let Some(attrs) = appeal.get(&campaign.raw()) {
            slot.get_or_create().reward(attrs).expect("campaign attrs validated at registration");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spa_synth::catalog::CourseCatalog;
    use spa_types::{ActionId, CourseId, Timestamp, UserId, Valence, EMOTIONAL_ATTRIBUTES};

    fn setup() -> (LifeLogPreprocessor, SumRegistry, EitEngine) {
        let schema = AttributeSchema::emagister();
        let courses = CourseCatalog::generate(30, 6, 9).unwrap();
        let registry = SumRegistry::new(&schema);
        (LifeLogPreprocessor::new(schema, &courses), registry, EitEngine::standard())
    }

    fn at(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn actions_raise_activity() {
        let (pre, registry, eit) = setup();
        let user = UserId::new(1);
        for i in 0..5 {
            let e = LifeLogEvent::new(
                user,
                at(i),
                EventKind::Action { action: ActionId::new(3), course: Some(CourseId::new(0)) },
            );
            pre.ingest(&registry, &eit, &e).unwrap();
        }
        let model = registry.get(user).unwrap();
        assert!(model.value(AttributeId::new(40)) > 0.9, "activity slot saturates toward 1");
        assert_eq!(pre.stats().actions, 5);
    }

    #[test]
    fn transactions_raise_the_transactional_index() {
        let (pre, registry, eit) = setup();
        let user = UserId::new(2);
        let e = LifeLogEvent::new(
            user,
            at(0),
            EventKind::Transaction { course: CourseId::new(1), campaign: None },
        );
        pre.ingest(&registry, &eit, &e).unwrap();
        let model = registry.get(user).unwrap();
        assert!(model.value(AttributeId::new(41)) > 0.0);
        assert_eq!(pre.stats().transactions, 1);
    }

    #[test]
    fn topic_affinity_lands_in_a_topic_slot() {
        let (pre, registry, eit) = setup();
        let user = UserId::new(3);
        let e = LifeLogEvent::new(
            user,
            at(0),
            EventKind::Action { action: ActionId::new(3), course: Some(CourseId::new(5)) },
        );
        pre.ingest(&registry, &eit, &e).unwrap();
        let model = registry.get(user).unwrap();
        // some slot in [42, 64] must be touched
        let touched = (42..65).any(|i| model.value(AttributeId::new(i)) > 0.0);
        assert!(touched);
    }

    #[test]
    fn eit_events_route_to_the_engine() {
        let (pre, registry, eit) = setup();
        let user = UserId::new(4);
        let q = eit.next_question(&registry, user).id;
        pre.ingest(
            &registry,
            &eit,
            &LifeLogEvent::new(
                user,
                at(0),
                EventKind::EitAnswer { question: q, answer: Valence::new(0.5) },
            ),
        )
        .unwrap();
        pre.ingest(
            &registry,
            &eit,
            &LifeLogEvent::new(user, at(1), EventKind::EitSkipped { question: q }),
        )
        .unwrap();
        assert_eq!(pre.stats().eit_answers, 1);
        assert_eq!(pre.stats().eit_skips, 1);
        assert_eq!(registry.get(user).unwrap().eit_answer_counts()[0], 1);
    }

    #[test]
    fn message_opens_reward_registered_appeal() {
        let (pre, registry, eit) = setup();
        let user = UserId::new(5);
        let campaign = CampaignId::new(7);
        let schema = AttributeSchema::emagister();
        let attr = schema.emotional_ids()[0];
        // establish a baseline value
        registry.with_model(user, |m| {
            m.apply_eit_answer(attr, 0, Valence::NEUTRAL).unwrap();
        });
        let before = registry.get(user).unwrap().value(attr);
        pre.register_campaign(campaign, &[EMOTIONAL_ATTRIBUTES[0]]);
        pre.ingest(
            &registry,
            &eit,
            &LifeLogEvent::new(user, at(0), EventKind::MessageOpened { campaign }),
        )
        .unwrap();
        let after = registry.get(user).unwrap().value(attr);
        assert!(after > before, "open must reward the appealed attribute");
        assert_eq!(pre.stats().opens, 1);
    }

    #[test]
    fn unregistered_campaign_open_is_harmless() {
        let (pre, registry, eit) = setup();
        let user = UserId::new(6);
        pre.ingest(
            &registry,
            &eit,
            &LifeLogEvent::new(
                user,
                at(0),
                EventKind::MessageOpened { campaign: CampaignId::new(99) },
            ),
        )
        .unwrap();
        assert_eq!(pre.stats().opens, 1);
    }

    #[test]
    fn punish_ignored_lowers_the_attribute() {
        let (pre, registry, eit) = setup();
        let _ = &eit;
        let user = UserId::new(7);
        let campaign = CampaignId::new(8);
        let schema = AttributeSchema::emagister();
        let attr = schema.emotional_ids()[2];
        registry.with_model(user, |m| {
            m.apply_eit_answer(attr, 2, Valence::new(0.8)).unwrap();
        });
        pre.register_campaign(campaign, &[EMOTIONAL_ATTRIBUTES[2]]);
        let before = registry.get(user).unwrap().value(attr);
        pre.ingest(
            &registry,
            &eit,
            &LifeLogEvent::new(user, at(0), EventKind::CampaignIgnored { campaign }),
        )
        .unwrap();
        assert!(registry.get(user).unwrap().value(attr) < before);
        assert_eq!(pre.stats().punishments, 1);
    }

    #[test]
    fn objective_imports_apply_through_the_event_path() {
        let (pre, registry, eit) = setup();
        let user = UserId::new(11);
        pre.ingest(
            &registry,
            &eit,
            &LifeLogEvent::new(
                user,
                at(0),
                EventKind::ObjectiveImported { values: vec![0.1, 0.2, 0.3] },
            ),
        )
        .unwrap();
        let model = registry.get(user).unwrap();
        assert!((model.value(AttributeId::new(2)) - 0.3).abs() < 1e-12);
        assert_eq!(pre.stats().objective_imports, 1);
        // an over-wide import is rejected loudly and counts nothing
        let wide =
            LifeLogEvent::new(user, at(1), EventKind::ObjectiveImported { values: vec![0.0; 41] });
        assert!(pre.ingest(&registry, &eit, &wide).is_err());
        assert_eq!(pre.stats().objective_imports, 1);
    }

    #[test]
    fn outcome_events_are_rejected_by_shard_ingest() {
        let (pre, registry, eit) = setup();
        let e = LifeLogEvent::new(
            UserId::new(12),
            at(0),
            EventKind::OutcomeObserved { responded: true, dim: 1, indices: vec![], values: vec![] },
        );
        assert!(matches!(pre.ingest(&registry, &eit, &e), Err(spa_types::SpaError::Invalid(_))));
    }

    #[test]
    fn high_star_ratings_count_as_transactional_signal() {
        let (pre, registry, eit) = setup();
        let user = UserId::new(8);
        pre.ingest(
            &registry,
            &eit,
            &LifeLogEvent::new(
                user,
                at(0),
                EventKind::Rating { course: CourseId::new(2), stars: 5 },
            ),
        )
        .unwrap();
        assert!(registry.get(user).unwrap().value(AttributeId::new(41)) > 0.0);
        pre.ingest(
            &registry,
            &eit,
            &LifeLogEvent::new(
                user,
                at(1),
                EventKind::Rating { course: CourseId::new(2), stars: 2 },
            ),
        )
        .unwrap();
        // low rating does not add transactional mass beyond prior state
        let v = registry.get(user).unwrap().value(AttributeId::new(41));
        assert!(v <= 1.0);
    }

    #[test]
    fn deliveries_only_count() {
        let (pre, registry, eit) = setup();
        pre.ingest(
            &registry,
            &eit,
            &LifeLogEvent::new(
                UserId::new(9),
                at(0),
                EventKind::MessageDelivered { campaign: CampaignId::new(1) },
            ),
        )
        .unwrap();
        assert_eq!(pre.stats().deliveries, 1);
        assert!(registry.get(UserId::new(9)).is_none(), "delivery alone builds no model");
    }
}
