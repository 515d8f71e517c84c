//! The SPA platform facade.
//!
//! [`Spa`] owns the shared state of Fig 3 — the SUM registry, the
//! Gradual-EIT engine, the LifeLogs Pre-processor, the Attributes
//! Manager and the Messaging Agent — and exposes the operations the
//! examples, campaign engine and benches drive:
//!
//! * event ingestion ([`Spa::ingest`], [`Spa::ingest_batch`]);
//! * EIT contact scheduling ([`Spa::next_eit_question`]);
//! * feature extraction ([`Spa::feature_row`], [`Spa::advice_row`]);
//! * propensity training and ranking ([`Spa::train_selection`],
//!   [`Spa::selection`]);
//! * message assignment ([`Spa::assign_message`]).

use crate::attributes::AttributesManager;
use crate::eit::{EitEngine, EitQuestion};
use crate::messaging::{AssignedMessage, MessageCatalog, MessagePolicy, MessagingAgent};
use crate::preprocessor::{LifeLogPreprocessor, PreprocessorStats};
use crate::selection::SelectionFunction;
use crate::snapshot::{SECTION_MODELS, SECTION_SELECTION, SECTION_STATS};
use crate::sum::{CacheStats, SumConfig, SumRegistry};
use spa_linalg::{RowView, SparseVec};
use spa_ml::Dataset;
use spa_store::snapshot::{Snapshot, SnapshotBuilder};
use spa_store::LogPosition;
use spa_synth::catalog::CourseCatalog;
use spa_types::{
    AttributeId, AttributeSchema, CampaignId, EmotionalAttribute, EventKind, LifeLogEvent, Result,
    SpaError, Timestamp, UserId,
};
use std::path::Path;
use std::sync::Arc;

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct SpaConfig {
    /// SUM update rules.
    pub sum: SumConfig,
    /// Case-3.c message policy.
    pub policy: MessagePolicy,
    /// Class-imbalance weight for the selection SVM.
    pub positive_weight: f64,
}

impl Default for SpaConfig {
    fn default() -> Self {
        Self {
            sum: SumConfig::default(),
            policy: MessagePolicy::MaxSensibility,
            positive_weight: 4.0,
        }
    }
}

/// Reusable batch-ingest buffers: events in arrival order (the order a
/// write-ahead log must frame them in) plus per-registry-shard index
/// buckets, so the apply phase takes each registry shard's write lock
/// **once per bucket** instead of once per event — the lock-light half
/// of the batched write path. Bucketing is a modulo, not a hash, and
/// per-user event order is preserved inside each bucket (users live in
/// exactly one bucket). Cross-user apply order differs from arrival
/// order, which is bit-identically irrelevant: every per-event
/// mutation touches only that event's user, and the only cross-user
/// state is commutative counters (the invariant
/// `tests/shard_equivalence.rs` pins, re-pinned for this path by
/// `tests/ingest_fastpath.rs`).
///
/// All buffers retain capacity across batches — steady-state batch
/// ingest allocates nothing for routing or grouping — but an outsized
/// batch (a bulk backfill) does not pin its peak footprint forever:
/// [`GroupScratch::recycle`] drops the buffers once they exceed
/// [`SCRATCH_RETAIN_EVENTS`].
#[derive(Default)]
pub(crate) struct GroupScratch {
    /// Events in arrival order (owned copies — a reusable buffer
    /// cannot hold caller-lifetime borrows).
    events: Vec<LifeLogEvent>,
    /// Event indices per registry shard, in arrival order.
    buckets: Vec<Vec<u32>>,
    /// WAL frames for the buffered events, in arrival order — encoded
    /// during routing ([`GroupScratch::push_framed`]) while each event
    /// is still hot in cache, and handed to the log as one pre-encoded
    /// run ([`spa_store::EventLog::append_encoded`]): the log phase
    /// never walks the events again.
    frames: bytes::BytesMut,
}

impl GroupScratch {
    pub(crate) fn clear(&mut self) {
        self.events.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.frames.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Buffers one event into its registry-shard bucket.
    #[inline]
    pub(crate) fn push(&mut self, event: &LifeLogEvent) {
        if self.buckets.is_empty() {
            self.buckets.resize_with(crate::sum::SumRegistry::shard_count_static(), Vec::new);
        }
        let index = self.events.len() as u32;
        self.buckets[crate::sum::SumRegistry::shard_index_of(event.user)].push(index);
        self.events.push(event.clone());
    }

    /// [`GroupScratch::push`] plus WAL framing into the scratch's
    /// frame buffer — the durable-ingest routing pass.
    #[inline]
    pub(crate) fn push_framed(&mut self, event: &LifeLogEvent) {
        self.push(event);
        spa_store::codec::encode_frame(event, &mut self.frames);
    }

    /// The pre-encoded WAL frames (arrival order), when the batch was
    /// routed with [`GroupScratch::push_framed`].
    pub(crate) fn frames(&self) -> &[u8] {
        &self.frames
    }

    /// Empties the scratch for storage between batches: contents are
    /// dropped (no stale event copies linger), and capacity is kept
    /// only while it stays under [`SCRATCH_RETAIN_EVENTS`] — one
    /// outsized backfill batch must not pin its peak footprint for the
    /// platform's lifetime.
    pub(crate) fn recycle(&mut self) {
        if self.events.capacity() > SCRATCH_RETAIN_EVENTS {
            *self = GroupScratch::default();
        } else {
            self.clear();
        }
    }
}

/// Batch-ingest scratch capacity kept across batches (events; the
/// index buckets and frame buffer scale with it). 256k events ≈ 8 MiB
/// of event copies — comfortably above any steady-state batch, far
/// below a bulk backfill's peak.
const SCRATCH_RETAIN_EVENTS: usize = 1 << 18;

/// The assembled Smart Prediction Assistant.
pub struct Spa {
    schema: AttributeSchema,
    registry: Arc<SumRegistry>,
    eit: Arc<EitEngine>,
    preprocessor: Arc<LifeLogPreprocessor>,
    manager: Arc<AttributesManager>,
    messaging: Arc<MessagingAgent>,
    selection: SelectionFunction,
    /// Batch-ingest buffers reused across [`Spa::ingest_batch`] calls.
    ingest_scratch: parking_lot::Mutex<GroupScratch>,
}

impl Spa {
    /// Builds a platform over the emagister schema and a course catalog.
    pub fn new(courses: &CourseCatalog, config: SpaConfig) -> Self {
        let schema = AttributeSchema::emagister();
        let registry = Arc::new(SumRegistry::new(&schema, config.sum.clone()));
        let eit = Arc::new(EitEngine::standard());
        let preprocessor = Arc::new(LifeLogPreprocessor::new(schema.clone(), courses));
        let manager = Arc::new(AttributesManager::new(schema.clone()));
        let messaging = Arc::new(MessagingAgent::new(
            MessageCatalog::standard_catalog("this course"),
            config.policy,
        ));
        let selection = SelectionFunction::with_imbalance(schema.len(), config.positive_weight);
        Self {
            schema,
            registry,
            eit,
            preprocessor,
            manager,
            messaging,
            selection,
            ingest_scratch: parking_lot::Mutex::new(GroupScratch::default()),
        }
    }

    /// The attribute schema.
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// Shared SUM registry.
    pub fn registry(&self) -> &Arc<SumRegistry> {
        &self.registry
    }

    /// The Gradual-EIT engine.
    pub fn eit(&self) -> &Arc<EitEngine> {
        &self.eit
    }

    /// The pre-processor (for campaign registration and stats).
    pub fn preprocessor(&self) -> &Arc<LifeLogPreprocessor> {
        &self.preprocessor
    }

    /// The attributes manager.
    pub fn manager(&self) -> &Arc<AttributesManager> {
        &self.manager
    }

    /// The selection function (trained propensity ranker).
    pub fn selection(&self) -> &SelectionFunction {
        &self.selection
    }

    /// Counters of the published-row read path behind
    /// [`Spa::score_users`]: `misses` = advice rows computed at
    /// publication, `hits` = scores served from an already-published
    /// row. There is no cache any more; the accessor keeps its name for
    /// the frozen `benchmark/` crate (see [`CacheStats`]).
    pub fn advice_cache_stats(&self) -> CacheStats {
        self.registry.row_stats()
    }

    /// Ingests one raw LifeLog event.
    pub fn ingest(&self, event: &LifeLogEvent) -> Result<()> {
        self.preprocessor.ingest(&self.registry, &self.eit, event)
    }

    /// Ingests a batch, returning how many events were applied.
    ///
    /// Each event lands independently: one the platform rejects (e.g.
    /// an `EitAnswer` naming a question outside the bank) is skipped —
    /// excluded from the returned count — and the rest of the batch
    /// still applies. These are the same skip-and-count semantics as
    /// [`crate::shard::ShardedSpa::ingest_batch`] and WAL replay
    /// ([`crate::shard::ShardedSpa::recover`]), so a stream batched
    /// through either platform (or replayed from its log) produces
    /// identical state; the earlier abort-on-first-rejection behavior
    /// made the single-platform batch diverge from all three.
    /// (Implementation: events are buffered in reusable scratch and
    /// applied grouped by user — one registry lock acquisition per
    /// user-run instead of per event — which is bit-identical to the
    /// per-event loop because every mutation is user-local; see
    /// [`GroupScratch`].)
    pub fn ingest_batch<'a>(
        &self,
        events: impl IntoIterator<Item = &'a LifeLogEvent>,
    ) -> Result<usize> {
        // swap the scratch out (a concurrent batch builds its own)
        let mut scratch = std::mem::take(&mut *self.ingest_scratch.lock());
        scratch.clear();
        for event in events {
            scratch.push(event);
        }
        let applied = self.apply_grouped(&scratch);
        scratch.recycle();
        *self.ingest_scratch.lock() = scratch;
        Ok(applied)
    }

    /// Applies a buffered batch user-run by user-run, returning how
    /// many events were applied (rejected events are skipped and
    /// uncounted — the shared skip-and-count semantics). The hook the
    /// sharded platform's per-shard pipeline calls after write-ahead
    /// logging the same buffer in arrival order.
    pub(crate) fn apply_grouped(&self, scratch: &GroupScratch) -> usize {
        let mut applied = 0usize;
        // counters accumulate locally and fold in once per batch — six
        // atomic adds per batch, zero per event
        let mut stats = PreprocessorStats::default();
        // appeal map read once per batch, before any registry lock (the
        // one lock order, see LifeLogPreprocessor::apply)
        let appeal = self.preprocessor.appeal_read();
        for (shard, bucket) in scratch.buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            self.registry.with_shard_models(shard, |models, config| {
                for &index in bucket {
                    let event = &scratch.events[index as usize];
                    let mut slot = models.slot(event.user);
                    let outcome = self
                        .preprocessor
                        .apply(&mut slot, config, &self.eit, &appeal, event, &mut stats);
                    if outcome.is_ok() {
                        applied += 1;
                    }
                }
            });
        }
        drop(appeal);
        self.preprocessor.merge_stats(&stats);
        applied
    }

    /// Pre-processing counters.
    pub fn stats(&self) -> PreprocessorStats {
        self.preprocessor.stats()
    }

    /// Imports socio-demographic (objective) attributes for a user —
    /// the off-line data-selection path of §4. Routed through the
    /// regular ingest pipeline as an
    /// [`EventKind::ObjectiveImported`] record, so the mutation is one
    /// more LifeLog event: the sharded platform write-ahead logs it and
    /// replay re-applies it bit-identically.
    pub fn import_objective(&self, user: UserId, values: &[f64]) -> Result<()> {
        if values.len() > 40 {
            return Err(SpaError::DimensionMismatch { got: values.len(), expected: 40 });
        }
        self.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::ObjectiveImported { values: values.to_vec() },
        ))
    }

    /// The next Gradual-EIT question for a user (one per contact).
    pub fn next_eit_question(&self, user: UserId) -> EitQuestion {
        self.eit.next_question(&self.registry, user).clone()
    }

    /// Plain observed feature row for a user (empty row for unknowns).
    /// A whole-model read: takes the user's registry shard mutex.
    pub fn feature_row(&self, user: UserId) -> SparseVec {
        self.registry.with_model_read(user, |model| match model {
            Some(model) => model.feature_row(),
            None => SparseVec::zeros(self.schema.len()),
        })
    }

    /// Advice-stage (activated/inhibited) feature row: an owned copy
    /// of the user's published row, read lock-free (the allocating
    /// reference it is pinned to is
    /// [`crate::sum::SmartUserModel::advice_row`]).
    pub fn advice_row(&self, user: UserId) -> Result<SparseVec> {
        Ok(self.registry.with_advice_row(user, |row| match row {
            Some(row) => row.to_owned_vec(),
            None => SparseVec::zeros(self.schema.len()),
        }))
    }

    /// Trains the selection function on labelled campaign history.
    pub fn train_selection(&mut self, data: &Dataset) -> Result<()> {
        self.selection.fit(data)
    }

    /// Batch propensity scoring: the advice-stage rows of `users`,
    /// scored by the trained selection function, in input order.
    ///
    /// This is the paper-scale path — one campaign scores millions of
    /// users through exactly this call — and it performs **zero clones
    /// and zero allocations per user, and takes no lock**: each score
    /// resolves the user through the registry's atomic index, pins the
    /// compact advice row the writer published at its last section end,
    /// and dots it against the SVM weights through the same kernel as
    /// every other surface. Scores are bit-identical to the allocating
    /// reference (`selection().score(&model.advice_row(schema))`),
    /// enforced by `tests/scoring_fastpath.rs`.
    ///
    /// With the `parallel` feature (default) the work fans out across
    /// threads and results are assembled in input order, so the output
    /// is identical at any thread count.
    pub fn score_users(&self, users: &[UserId]) -> Result<Vec<(UserId, f64)>> {
        #[cfg(feature = "parallel")]
        {
            if spa_ml::parallel_worthy(users.len()) {
                use rayon::prelude::*;
                // one contiguous part per thread, re-joined in order
                let threads = rayon::current_num_threads();
                let parts: Vec<&[UserId]> = users.chunks(users.len().div_ceil(threads)).collect();
                let scored: Vec<Result<Vec<(UserId, f64)>>> = parts
                    .par_iter()
                    .map(|part| self.score_with(&self.selection, part.iter().copied()))
                    .collect();
                let mut out = Vec::with_capacity(users.len());
                for part in scored {
                    out.extend(part?);
                }
                return Ok(out);
            }
        }
        self.score_with(&self.selection, users.iter().copied())
    }

    /// Scores `users`' published advice rows against a *supplied*
    /// selection function, in order — the one scoring loop, which the
    /// sharded platform also drives with its global selection function
    /// over each shard's slice of an audience. Per user: index lookup →
    /// pin → sparse dot; no lock, no allocation. Unknown users score as
    /// the empty row (the SVM bias), exactly like [`Spa::advice_row`]'s
    /// zero row. The served-row counter is bumped once per call.
    pub(crate) fn score_with(
        &self,
        selection: &SelectionFunction,
        users: impl Iterator<Item = UserId>,
    ) -> Result<Vec<(UserId, f64)>> {
        let dim = self.schema.len();
        let mut served = 0u64;
        let scored = users
            .map(|user| {
                let score = self.registry.with_advice_row(user, |row| {
                    served += u64::from(row.is_some());
                    selection.score_view(row.unwrap_or(RowView::empty(dim)))
                })?;
                Ok((user, score))
            })
            .collect();
        self.registry.note_rows_served(served);
        scored
    }

    /// Ranks users by propensity, descending (ties break by user id for
    /// determinism) — [`Spa::score_users`] followed by the same sort as
    /// [`SelectionFunction::rank`]. The single-platform reference for
    /// [`crate::shard::ShardedSpa::rank`].
    pub fn rank_users(&self, users: &[UserId]) -> Result<Vec<(UserId, f64)>> {
        let mut scored = self.score_users(users)?;
        SelectionFunction::sort_by_propensity(&mut scored);
        Ok(scored)
    }

    /// The best `k` users by propensity — exactly
    /// `rank_users(users)[..k]` (same comparator, same tie-breaks),
    /// computed without sorting the whole audience
    /// ([`SelectionFunction::top_k_by_propensity`]).
    pub fn rank_top_k(&self, users: &[UserId], k: usize) -> Result<Vec<(UserId, f64)>> {
        let mut scored = self.score_users(users)?;
        SelectionFunction::top_k_by_propensity(&mut scored, k);
        Ok(scored)
    }

    /// Incrementally folds one observed outcome into the selection
    /// function (SPA's incremental-learning mode). The example is the
    /// user's published advice row, read in place — no lock, no clone —
    /// and the update is bit-identical to
    /// `partial_fit(&advice_row(user))`.
    ///
    /// Errors with [`SpaError::UnknownUser`] when no model exists for
    /// `user`: silently training on the all-zero advice row of a never-
    /// seen user would corrupt the selection function with no signal to
    /// the caller. Ingest at least one event first.
    pub fn observe_outcome(&mut self, user: UserId, responded: bool) -> Result<()> {
        let Spa { registry, selection, .. } = self;
        registry.with_advice_row(user, |row| {
            selection.partial_fit_view(row.ok_or(SpaError::UnknownUser(user))?, responded)
        })
    }

    /// Serializes the platform's event-derived state — SUM models,
    /// pre-processor counters, selection weights — into a snapshot
    /// covering `position` (the log prefix the state reflects; pass
    /// [`LogPosition::default`] for an ephemeral platform).
    ///
    /// The caller must guarantee no concurrent writes while this runs
    /// (the sharded platform holds its per-shard write-pause latch;
    /// single-platform users checkpoint from the writer thread), so the
    /// serialized registry, counters and position agree.
    pub fn build_snapshot(&self, position: LogPosition) -> SnapshotBuilder {
        let mut builder = SnapshotBuilder::new(position);
        let mut models = Vec::new();
        self.registry.write_state(&mut models);
        let mut selection = Vec::new();
        self.selection.write_state(&mut selection);
        builder
            .section(SECTION_MODELS, models)
            .section(SECTION_STATS, crate::snapshot::encode_stats(&self.stats()))
            .section(SECTION_SELECTION, selection);
        builder
    }

    /// Writes a checkpoint of the platform state to `path` atomically
    /// (temp file + fsync + rename; see
    /// [`spa_store::snapshot::SnapshotBuilder::write_atomic`]). Returns
    /// the snapshot size in bytes.
    pub fn checkpoint(&self, path: impl AsRef<Path>, position: LogPosition) -> Result<u64> {
        self.build_snapshot(position).write_atomic(path)
    }

    /// Restores state from a snapshot into this **freshly built**
    /// platform: models land in the registry, counters resume from
    /// their checkpointed values, and the selection function scores
    /// bit-identically to the one that was checkpointed (no retraining;
    /// missing selection section leaves it untrained). Every restored
    /// model's advice row is republished as it lands, whatever its
    /// update counter, so scores follow the restored contents.
    ///
    /// Campaign registrations are configuration, not snapshot state —
    /// re-register them as at any bring-up (the contract is documented
    /// on [`crate::shard::ShardedSpa::recover`]).
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<u64> {
        let models = snapshot
            .section(SECTION_MODELS)
            .ok_or_else(|| SpaError::Corrupt("snapshot has no SUM models section".into()))?;
        let restored = self.registry.restore_state(models)?;
        let stats = snapshot
            .section(SECTION_STATS)
            .ok_or_else(|| SpaError::Corrupt("snapshot has no stats section".into()))?;
        self.preprocessor.restore_stats(crate::snapshot::decode_stats(stats)?);
        if let Some(selection) = snapshot.section(SECTION_SELECTION) {
            self.selection.restore_state(selection)?;
        }
        Ok(restored)
    }

    /// Registers a campaign's appeal attributes so opens/transactions
    /// reward them (update stage).
    pub fn register_campaign(&self, campaign: CampaignId, appeal: &[EmotionalAttribute]) {
        let ids = self.schema.emotional_ids();
        let attrs: Vec<AttributeId> = appeal.iter().map(|e| ids[e.ordinal()]).collect();
        self.preprocessor.register_campaign(campaign, attrs);
    }

    /// Punishes the appeal attributes for users who ignored a campaign
    /// (called at campaign close-out). Like
    /// [`Spa::import_objective`], this is an ingested
    /// [`EventKind::CampaignIgnored`] record, so the sharded platform's
    /// WAL captures it.
    pub fn punish_ignored(&self, user: UserId, campaign: CampaignId) {
        self.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::CampaignIgnored { campaign },
        ))
        .expect("ignored-campaign punishment cannot be rejected");
    }

    /// Assigns the individualized message for (user, course-appeal):
    /// the Messaging Agent pipeline of §5.3.
    pub fn assign_message(
        &self,
        user: UserId,
        appeal: &[EmotionalAttribute],
    ) -> Result<AssignedMessage> {
        let sensibilities =
            self.manager.dominant_sensibilities(&self.registry, user, self.registry.config());
        self.messaging.assign(appeal, &sensibilities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messaging::AssignmentCase;
    use spa_types::{EventKind, Timestamp, Valence};

    fn platform() -> Spa {
        let courses = CourseCatalog::generate(25, 5, 3).unwrap();
        Spa::new(&courses, SpaConfig::default())
    }

    #[test]
    fn ingest_builds_models() {
        let spa = platform();
        let user = UserId::new(1);
        let q = spa.next_eit_question(user);
        spa.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::EitAnswer { question: q.id, answer: Valence::new(0.7) },
        ))
        .unwrap();
        assert_eq!(spa.stats().eit_answers, 1);
        assert!(spa.feature_row(user).nnz() > 0);
    }

    #[test]
    fn unknown_users_have_empty_rows() {
        let spa = platform();
        assert_eq!(spa.feature_row(UserId::new(9)).nnz(), 0);
        assert_eq!(spa.advice_row(UserId::new(9)).unwrap().nnz(), 0);
    }

    #[test]
    fn import_objective_fills_the_objective_block() {
        let spa = platform();
        let user = UserId::new(2);
        spa.import_objective(user, &[0.1, 0.2, 0.3]).unwrap();
        let row = spa.feature_row(user);
        assert_eq!(row.nnz(), 3);
        assert!((row.get(1) - 0.2).abs() < 1e-12);
        assert!(spa.import_objective(user, &vec![0.0; 41]).is_err());
    }

    #[test]
    fn eit_contact_loop_converges_coverage() {
        let spa = platform();
        let user = UserId::new(3);
        for round in 0..10 {
            let q = spa.next_eit_question(user);
            spa.ingest(&LifeLogEvent::new(
                user,
                Timestamp::from_millis(round),
                EventKind::EitAnswer { question: q.id, answer: Valence::new(0.2) },
            ))
            .unwrap();
        }
        let counts = *spa.registry().get(user).unwrap().eit_answer_counts();
        assert_eq!(counts, [1u32; 10], "one answer per attribute after ten contacts");
    }

    #[test]
    fn selection_trains_and_ranks() {
        let mut spa = platform();
        // two users with opposite emotional profiles
        let responder = UserId::new(10);
        let ignorer = UserId::new(11);
        for (user, v) in [(responder, 0.9), (ignorer, -0.9)] {
            for round in 0..10 {
                let q = spa.next_eit_question(user);
                spa.ingest(&LifeLogEvent::new(
                    user,
                    Timestamp::from_millis(round),
                    EventKind::EitAnswer { question: q.id, answer: Valence::new(v) },
                ))
                .unwrap();
            }
        }
        let mut data = Dataset::new(75);
        for _ in 0..40 {
            data.push(&spa.advice_row(responder).unwrap(), 1.0).unwrap();
            data.push(&spa.advice_row(ignorer).unwrap(), -1.0).unwrap();
        }
        spa.train_selection(&data).unwrap();
        let s_r = spa.selection().score(&spa.advice_row(responder).unwrap()).unwrap();
        let s_i = spa.selection().score(&spa.advice_row(ignorer).unwrap()).unwrap();
        assert!(s_r > s_i);
    }

    #[test]
    fn score_users_matches_single_scoring_in_input_order() {
        let mut spa = platform();
        let users: Vec<UserId> = (0..30).map(UserId::new).collect();
        for (i, &user) in users.iter().enumerate() {
            let q = spa.next_eit_question(user);
            spa.ingest(&LifeLogEvent::new(
                user,
                Timestamp::from_millis(i as u64),
                EventKind::EitAnswer {
                    question: q.id,
                    answer: Valence::new((i as f64 / 30.0) * 2.0 - 1.0),
                },
            ))
            .unwrap();
        }
        let mut data = Dataset::new(75);
        for &user in &users {
            let row = spa.advice_row(user).unwrap();
            data.push(&row, if row.get(65) > 0.5 { 1.0 } else { -1.0 }).unwrap();
        }
        spa.train_selection(&data).unwrap();
        let batch = spa.score_users(&users).unwrap();
        assert_eq!(batch.len(), users.len());
        for (i, &(user, score)) in batch.iter().enumerate() {
            assert_eq!(user, users[i], "input order is preserved");
            let single = spa.selection().score(&spa.advice_row(user).unwrap()).unwrap();
            assert_eq!(score, single);
        }
        // unknown users score as empty rows, not errors
        let unknown = spa.score_users(&[UserId::new(9999)]).unwrap();
        assert_eq!(unknown.len(), 1);
    }

    /// Platform with differentiated user models and a trained
    /// selection function, for scoring-path tests.
    fn trained_platform(n_users: u32) -> (Spa, Vec<UserId>) {
        let mut spa = platform();
        let users: Vec<UserId> = (0..n_users).map(UserId::new).collect();
        for (i, &user) in users.iter().enumerate() {
            let q = spa.next_eit_question(user);
            spa.ingest(&LifeLogEvent::new(
                user,
                Timestamp::from_millis(i as u64),
                EventKind::EitAnswer {
                    question: q.id,
                    answer: Valence::new((i as f64 / n_users as f64) * 2.0 - 1.0),
                },
            ))
            .unwrap();
        }
        let mut data = Dataset::new(75);
        for &user in &users {
            let row = spa.advice_row(user).unwrap();
            data.push(&row, if row.get(65) > 0.5 { 1.0 } else { -1.0 }).unwrap();
        }
        spa.train_selection(&data).unwrap();
        (spa, users)
    }

    /// The allocating reference every score is pinned to: the master
    /// model's `advice_row(schema)` through the ordinary SVM surface.
    fn reference_score(spa: &Spa, user: UserId) -> f64 {
        let model = spa.registry().get(user).expect("seeded user");
        spa.selection().score(&model.advice_row(spa.schema()).unwrap()).unwrap()
    }

    #[test]
    fn quiet_sweeps_publish_nothing_and_one_ingest_republishes_exactly_that_row() {
        let (spa, users) = trained_platform(40);
        let seeded = spa.advice_cache_stats();
        assert_eq!(seeded.misses as usize, users.len(), "one row published per seeded user");
        let first = spa.score_users(&users).unwrap();
        let second = spa.score_users(&users).unwrap();
        let quiet = spa.advice_cache_stats();
        assert_eq!(quiet.misses, seeded.misses, "a quiet sweep must not publish");
        assert_eq!(quiet.hits - seeded.hits, 2 * users.len() as u64, "every score was served");
        for (a, b) in first.iter().zip(second.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // mutate one user: exactly that row is republished, and every
        // score matches the reference bit for bit
        let touched = users[7];
        let q = spa.next_eit_question(touched);
        spa.ingest(&LifeLogEvent::new(
            touched,
            Timestamp::from_millis(999),
            EventKind::EitAnswer { question: q.id, answer: Valence::new(0.9) },
        ))
        .unwrap();
        assert_eq!(spa.advice_cache_stats().misses - quiet.misses, 1, "only the touched user");
        for &(user, score) in &spa.score_users(&users).unwrap() {
            let via_row = spa.selection().score(&spa.advice_row(user).unwrap()).unwrap();
            assert_eq!(score.to_bits(), via_row.to_bits(), "score ≠ advice_row score for {user}");
            assert_eq!(score.to_bits(), reference_score(&spa, user).to_bits(), "{user}");
        }
        // an unknown user is scored (the bias) but served from no row
        let before = spa.advice_cache_stats();
        spa.score_users(&[UserId::new(9999)]).unwrap();
        assert_eq!(spa.advice_cache_stats(), before);
    }

    #[test]
    fn rank_top_k_equals_rank_users_prefix() {
        let (spa, users) = trained_platform(60);
        let full = spa.rank_users(&users).unwrap();
        for k in [0usize, 1, 13, 59, 60, 100] {
            let top = spa.rank_top_k(&users, k).unwrap();
            assert_eq!(top.len(), k.min(users.len()));
            for ((ua, sa), (ub, sb)) in top.iter().zip(full.iter()) {
                assert_eq!(ua, ub, "k={k}");
                assert_eq!(sa.to_bits(), sb.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn observe_outcome_updates_incrementally() {
        let mut spa = platform();
        let user = UserId::new(20);
        let q = spa.next_eit_question(user);
        spa.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::EitAnswer { question: q.id, answer: Valence::new(0.9) },
        ))
        .unwrap();
        spa.observe_outcome(user, true).unwrap();
        assert!(spa.selection().is_trained());
    }

    #[test]
    fn observe_outcome_for_an_unknown_user_is_an_explicit_error() {
        let mut spa = platform();
        let unknown = UserId::new(777);
        assert!(matches!(
            spa.observe_outcome(unknown, true),
            Err(SpaError::UnknownUser(user)) if user == unknown
        ));
        assert!(!spa.selection().is_trained(), "the bad call must not touch the model");
    }

    #[test]
    fn rank_users_orders_by_score_then_id() {
        let mut spa = platform();
        let users: Vec<UserId> = (0..20).map(UserId::new).collect();
        for (i, &user) in users.iter().enumerate() {
            let q = spa.next_eit_question(user);
            spa.ingest(&LifeLogEvent::new(
                user,
                Timestamp::from_millis(i as u64),
                EventKind::EitAnswer {
                    question: q.id,
                    answer: Valence::new((i as f64 / 20.0) * 2.0 - 1.0),
                },
            ))
            .unwrap();
        }
        let mut data = Dataset::new(75);
        for &user in &users {
            let row = spa.advice_row(user).unwrap();
            data.push(&row, if row.get(65) > 0.5 { 1.0 } else { -1.0 }).unwrap();
        }
        spa.train_selection(&data).unwrap();
        let ranked = spa.rank_users(&users).unwrap();
        assert_eq!(ranked.len(), users.len());
        for pair in ranked.windows(2) {
            assert!(
                pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "descending by score, ties ascending by id"
            );
        }
    }

    #[test]
    fn checkpoint_restore_round_trips_the_whole_platform() {
        let (spa, users) = trained_platform(35);
        let path =
            std::env::temp_dir().join(format!("spa-platform-ckpt-{}.snap", std::process::id()));
        let position = spa_store::LogPosition { segment: 4, offset: 321 };
        spa.checkpoint(&path, position).unwrap();

        let courses = CourseCatalog::generate(25, 5, 3).unwrap();
        let mut restored = Spa::new(&courses, SpaConfig::default());
        let snapshot = spa_store::Snapshot::read(&path).unwrap();
        assert_eq!(snapshot.position(), position);
        assert_eq!(restored.restore(&snapshot).unwrap(), users.len() as u64);

        assert_eq!(restored.stats(), spa.stats(), "counters resume, not restart");
        // selection weights restored bit-exactly — no silent retrain
        assert_eq!(
            restored.selection().svm().bias().to_bits(),
            spa.selection().svm().bias().to_bits()
        );
        for (a, b) in
            restored.selection().svm().weights().iter().zip(spa.selection().svm().weights().iter())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for &user in &users {
            // rows, schedules and scores all match
            let row_a = spa.advice_row(user).unwrap();
            let row_b = restored.advice_row(user).unwrap();
            assert_eq!(row_a.indices(), row_b.indices());
            for (x, y) in row_a.values().iter().zip(row_b.values().iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(spa.next_eit_question(user).id, restored.next_eit_question(user).id);
        }
        let scores_live = spa.score_users(&users).unwrap();
        let scores_restored = restored.score_users(&users).unwrap();
        for (a, b) in scores_live.iter().zip(scores_restored.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn message_assignment_uses_learned_sensibilities() {
        let spa = platform();
        let user = UserId::new(30);
        // drive "enthusiastic" high through repeated answers
        for round in 0..20 {
            let q = spa.next_eit_question(user);
            let v = if q.target == EmotionalAttribute::Enthusiastic { 0.95 } else { -0.8 };
            spa.ingest(&LifeLogEvent::new(
                user,
                Timestamp::from_millis(round),
                EventKind::EitAnswer { question: q.id, answer: Valence::new(v) },
            ))
            .unwrap();
        }
        let msg = spa
            .assign_message(
                user,
                &[EmotionalAttribute::Enthusiastic, EmotionalAttribute::Apathetic],
            )
            .unwrap();
        assert_eq!(msg.case, AssignmentCase::SingleAttribute);
        assert_eq!(msg.attribute, Some(EmotionalAttribute::Enthusiastic));
    }

    #[test]
    fn campaign_reward_loop_reinforces_appeal() {
        let spa = platform();
        let user = UserId::new(40);
        let campaign = CampaignId::new(1);
        spa.register_campaign(campaign, &[EmotionalAttribute::Hopeful]);
        // prime the attribute
        let hopeful_id = spa.schema().emotional_ids()[EmotionalAttribute::Hopeful.ordinal()];
        spa.registry().with_model(user, |m, config| {
            m.apply_eit_answer(
                hopeful_id,
                EmotionalAttribute::Hopeful.ordinal(),
                Valence::NEUTRAL,
                config,
            )
            .unwrap();
        });
        let before = spa.registry().get(user).unwrap().value(hopeful_id);
        spa.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::MessageOpened { campaign },
        ))
        .unwrap();
        let after_open = spa.registry().get(user).unwrap().value(hopeful_id);
        assert!(after_open > before);
        spa.punish_ignored(user, campaign);
        assert!(spa.registry().get(user).unwrap().value(hopeful_id) < after_open);
    }
}
