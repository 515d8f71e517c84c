//! The per-shard engine.
//!
//! [`Engine`] owns one shard's share of Fig 3 — the SUM registry, the
//! Gradual-EIT engine, the LifeLogs Pre-processor, the Attributes
//! Manager and the Messaging Agent — and applies events to it. It has
//! no selection function, no write-ahead log and no parallelism of its
//! own: those are platform-wide and live on
//! [`crate::shard::ShardedSpa`], which routes every operation to the
//! engine that owns the user. A platform of one shard is one engine
//! behind that routing.
//!
//! A batch reaches an engine as the caller's own events plus a
//! `GroupScratch` of their positions, bucketed by registry shard: the
//! engine copies no event, and between batches each engine shard keeps
//! at most `SCRATCH_RETAIN_BYTES` (≈ 152 KiB) of buckets and WAL frames.

use crate::attributes::AttributesManager;
use crate::eit::{EitEngine, EitQuestion};
use crate::messaging::{AssignedMessage, MessageCatalog, MessagePolicy, MessagingAgent};
use crate::preprocessor::{LifeLogPreprocessor, PreprocessorStats};
use crate::snapshot::{SECTION_MODELS, SECTION_STATS};
use crate::sum::{CacheStats, SumRegistry};
use spa_linalg::SparseVec;
use spa_store::snapshot::{Snapshot, SnapshotBuilder};
use spa_store::LogPosition;
use spa_synth::catalog::CourseCatalog;
use spa_types::{
    AttributeSchema, CampaignId, EmotionalAttribute, LifeLogEvent, Result, SpaError, UserId,
};

/// One engine shard's reusable batch-ingest buffers: the positions of
/// its events in the batch, bucketed per registry shard, so the apply
/// phase takes each registry shard's write lock **once per bucket**
/// instead of once per event — the lock-light half of the batched
/// write path — and, on a durable platform, their WAL frames in arrival
/// order. The events stay the caller's: a position indexes the
/// per-call chunk of event references
/// [`crate::shard::ShardedSpa::ingest_batch`] routes, so no event is
/// copied and nothing of one outlives its batch.
///
/// Bucketing is a modulo, not a hash, and per-user event order is
/// preserved inside each bucket (users live in exactly one bucket).
/// Cross-user apply order differs from arrival order, which is
/// bit-identically irrelevant: every per-event mutation touches only
/// that event's user, and the only cross-user state is commutative
/// counters (the invariant `tests/shard_equivalence.rs` pins, re-pinned
/// for this path by `tests/ingest_fastpath.rs`).
///
/// The buffers keep their capacity across batches — steady-state batch
/// ingest allocates nothing for grouping or framing — up to
/// [`SCRATCH_RETAIN_BYTES`]: a bulk batch allocates what it needs and
/// [`GroupScratch::recycle`] frees it when the batch ends.
#[derive(Default)]
pub(crate) struct GroupScratch {
    /// Events routed here since the last clear.
    len: usize,
    /// Batch positions of this shard's events per registry shard, in
    /// arrival order.
    buckets: Vec<Vec<u32>>,
    /// WAL frames for the routed events, in arrival order — encoded
    /// during routing ([`GroupScratch::push_framed`]) while each event
    /// is still hot in cache, and handed to the log as one pre-encoded
    /// run ([`spa_store::EventLog::append_encoded`]): the log phase
    /// never walks the events again.
    frames: bytes::BytesMut,
}

impl GroupScratch {
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.frames.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buckets the event at batch position `index`.
    #[inline]
    pub(crate) fn push(&mut self, index: u32, event: &LifeLogEvent) {
        if self.buckets.is_empty() {
            self.buckets.resize_with(crate::sum::SHARDS, Vec::new);
        }
        self.buckets[SumRegistry::shard_index_of(event.user)].push(index);
        self.len += 1;
    }

    /// [`GroupScratch::push`] plus WAL framing into the scratch's
    /// frame buffer — the durable-ingest routing pass.
    #[inline]
    pub(crate) fn push_framed(&mut self, index: u32, event: &LifeLogEvent) {
        self.push(index, event);
        spa_store::codec::encode_frame(event, &mut self.frames);
    }

    /// The pre-encoded WAL frames (arrival order), when the batch was
    /// routed with [`GroupScratch::push_framed`].
    pub(crate) fn frames(&self) -> &[u8] {
        &self.frames
    }

    /// Heap bytes the buffers hold, used or not.
    pub(crate) fn retained_bytes(&self) -> usize {
        let positions: usize = self.buckets.iter().map(Vec::capacity).sum();
        self.buckets.capacity() * std::mem::size_of::<Vec<u32>>()
            + positions * std::mem::size_of::<u32>()
            + self.frames.capacity()
    }

    /// Empties the scratch for the next batch, keeping its buffers only
    /// while they hold at most [`SCRATCH_RETAIN_BYTES`]: one bulk
    /// backfill must not pin its peak footprint for the platform's
    /// lifetime.
    pub(crate) fn recycle(&mut self) {
        if self.retained_bytes() > SCRATCH_RETAIN_BYTES {
            *self = GroupScratch::default();
        } else {
            self.clear();
        }
    }

    /// Every buffer's capacity, to check reuse across batches.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> Vec<usize> {
        let mut capacities: Vec<usize> = self.buckets.iter().map(Vec::capacity).collect();
        capacities.push(self.frames.capacity());
        capacities
    }
}

/// Batch-ingest scratch bytes an engine shard keeps between batches:
/// what [`spa_ml::PARALLEL_BATCH_THRESHOLD`] events — as many as a
/// batch routes to one engine shard at a time, on average — need at
/// one bucketed position and one frame no longer than the event itself
/// each (≈ 152 KiB). Every fixed-width frame fits; objective imports and
/// outcome records, up to ≈ 540 B and ≈ 3 KiB a frame, are bulk
/// traffic.
pub(crate) const SCRATCH_RETAIN_BYTES: usize = spa_ml::PARALLEL_BATCH_THRESHOLD
    * (std::mem::size_of::<u32>() + std::mem::size_of::<LifeLogEvent>());

/// One shard's Smart Prediction Assistant state: every model, schedule
/// and counter of the users that hash to it.
pub struct Engine {
    schema: AttributeSchema,
    registry: SumRegistry,
    eit: EitEngine,
    preprocessor: LifeLogPreprocessor,
    manager: AttributesManager,
    messaging: MessagingAgent,
}

impl Engine {
    /// Builds an empty engine over the emagister schema and a course
    /// catalog.
    pub(crate) fn new(courses: &CourseCatalog) -> Self {
        let schema = AttributeSchema::emagister();
        Self {
            registry: SumRegistry::new(&schema),
            eit: EitEngine::standard(),
            preprocessor: LifeLogPreprocessor::new(schema.clone(), courses),
            manager: AttributesManager::new(schema.clone()),
            messaging: MessagingAgent::new(
                MessageCatalog::standard_catalog("this course"),
                MessagePolicy::MaxSensibility,
            ),
            schema,
        }
    }

    /// The attribute schema.
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// This shard's SUM registry.
    pub fn registry(&self) -> &SumRegistry {
        &self.registry
    }

    /// The Gradual-EIT engine.
    pub fn eit(&self) -> &EitEngine {
        &self.eit
    }

    /// Counters of the published-row read path: `misses` = advice rows
    /// computed at publication, `hits` = scores served from an
    /// already-published row. There is no cache any more; the accessor
    /// keeps its name for the frozen `benchmark/` crate (see
    /// [`CacheStats`]).
    pub fn advice_cache_stats(&self) -> CacheStats {
        self.registry.row_stats()
    }

    /// Applies one raw LifeLog event.
    pub(crate) fn ingest(&self, event: &LifeLogEvent) -> Result<()> {
        self.preprocessor.ingest(&self.registry, &self.eit, event)
    }

    /// Applies the events of `batch` that `scratch` routed here,
    /// registry-bucket by registry-bucket, returning how many were
    /// applied (rejected events are skipped and uncounted — the
    /// skip-and-count semantics live ingest, batch ingest and WAL
    /// replay share). The platform's per-shard pipeline calls this
    /// after write-ahead logging the same events in arrival order.
    pub(crate) fn apply_grouped(&self, batch: &[&LifeLogEvent], scratch: &GroupScratch) -> usize {
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
            self.registry.with_shard_models(shard, |models| {
                for &index in bucket {
                    let event = batch[index as usize];
                    let mut slot = models.slot(event.user);
                    let outcome =
                        self.preprocessor.apply(&mut slot, &self.eit, &appeal, event, &mut stats);
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

    /// The next Gradual-EIT question for a user (one per contact).
    pub(crate) fn next_eit_question(&self, user: UserId) -> EitQuestion {
        self.eit.next_question(&self.registry, user).clone()
    }

    /// Plain observed feature row for a user (empty row for unknowns).
    /// A whole-model read: takes the user's registry shard mutex.
    pub(crate) fn feature_row(&self, user: UserId) -> SparseVec {
        self.registry.with_model_read(user, |model| match model {
            Some(model) => model.feature_row(),
            None => SparseVec::zeros(self.schema.len()),
        })
    }

    /// Advice-stage (activated/inhibited) feature row: an owned copy
    /// of the user's published row, read under its registry shard's
    /// read guard (the allocating reference it is pinned to is
    /// [`crate::sum::SmartUserModel::advice_row`]).
    pub(crate) fn advice_row(&self, user: UserId) -> SparseVec {
        self.registry.with_advice_row(user, |row| match row {
            Some(row) => row.to_owned_vec(),
            None => SparseVec::zeros(self.schema.len()),
        })
    }

    /// Serializes the engine's event-derived state — SUM models and
    /// pre-processor counters — into a snapshot covering `position`
    /// (the log prefix the state reflects). The caller guarantees no
    /// concurrent writes while this runs (the platform holds the
    /// shard's write-pause latch), so the serialized registry, counters
    /// and position agree.
    pub(crate) fn build_snapshot(&self, position: LogPosition) -> SnapshotBuilder {
        let mut builder = SnapshotBuilder::new(position);
        let mut models = Vec::new();
        self.registry.write_state(&mut models);
        builder
            .section(SECTION_MODELS, models)
            .section(SECTION_STATS, crate::snapshot::encode_stats(&self.stats()));
        builder
    }

    /// Restores state from a snapshot into this **freshly built**
    /// engine: models land in the registry and counters resume from
    /// their checkpointed values. Every restored model's advice row is
    /// republished as it lands, whatever its update counter, so scores
    /// follow the restored contents. Sections the engine does not own
    /// are ignored (see [`crate::snapshot`]).
    pub(crate) fn restore(&self, snapshot: &Snapshot) -> Result<u64> {
        let models = snapshot
            .section(SECTION_MODELS)
            .ok_or_else(|| SpaError::Corrupt("snapshot has no SUM models section".into()))?;
        let restored = self.registry.restore_state(models)?;
        let stats = snapshot
            .section(SECTION_STATS)
            .ok_or_else(|| SpaError::Corrupt("snapshot has no stats section".into()))?;
        self.preprocessor.restore_stats(crate::snapshot::decode_stats(stats)?);
        Ok(restored)
    }

    /// Registers a campaign's appeal attributes so opens/transactions
    /// reward them (update stage).
    pub(crate) fn register_campaign(&self, campaign: CampaignId, appeal: &[EmotionalAttribute]) {
        self.preprocessor.register_campaign(campaign, appeal);
    }

    /// Assigns the individualized message for (user, course-appeal):
    /// the Messaging Agent pipeline of §5.3.
    pub(crate) fn assign_message(
        &self,
        user: UserId,
        appeal: &[EmotionalAttribute],
    ) -> Result<AssignedMessage> {
        let sensibilities = self.manager.dominant_sensibilities(&self.registry, user);
        self.messaging.assign(appeal, &sensibilities)
    }
}
