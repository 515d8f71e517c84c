//! The platform: one [`Engine`] per shard behind one routing facade.
//!
//! [`ShardedSpa`] partitions users across N independent engines by a
//! **stable hash** of their [`UserId`] (FNV-1a, so the user → shard
//! assignment never changes across runs, platforms or restarts), which
//! is the horizontal-scaling shape the paper's deployment implies:
//! WebLogs arrive at ≈50 GB/month and campaigns score millions of users
//! (§4–§5), far past what one lock domain should absorb. It is the only
//! platform type: `shards = 1` with no log is the in-memory single-node
//! case the examples, the campaign experiments and most tests build.
//! Every operation exists once, takes `&self`, and returns `Result`.
//!
//! Design invariants, enforced by `tests/shard_equivalence.rs`:
//!
//! * **Per-user state is shard-local.** Every SUM, EIT schedule and
//!   advice row a user owns lives on exactly one engine, so routing an
//!   identical event stream through any shard count produces
//!   bit-identical per-user state — order across *different* users only
//!   touches commutative aggregates (stat counters).
//! * **The selection model is global.** Campaign propensity is one
//!   model for the whole population; the platform owns the single
//!   [`SelectionFunction`], and engines have none.
//! * **One scoring loop.** [`ShardedSpa::score_users`] and
//!   [`ShardedSpa::rank_top_k`] group the audience by (engine, registry
//!   shard), read each group's published rows under one read guard,
//!   and write each score back to its input position; an audience worth
//!   a thread hand-off is split into contiguous parts that are re-joined
//!   in order (scores) or merged under the one comparator (top-k), so
//!   results are bit-identical at any shard count and thread count.
//!   Readers wait on no apply, checkpoint or WAL write: only on a
//!   section end copying rows into a registry shard they read, and on
//!   the swap of a new selection snapshot.
//! * **Ingest is write-ahead durable.** With a [`ShardedEventLog`]
//!   attached, every event is appended to its shard's segmented log
//!   *before* it mutates in-memory state, so
//!   [`ShardedSpa::recover`] can rebuild the exact platform state by
//!   replaying segments — tolerating a torn tail write in each shard's
//!   last segment (the crash-during-append signature).

use crate::engine::{Engine, GroupScratch};
use crate::platform::SpaConfig;
use crate::preprocessor::{LifeLogPreprocessor, PreprocessorStats};
use crate::selection::{SelectionFunction, POSITIVE_WEIGHT};
use crate::snapshot::SECTION_SELECTION;
use crate::sum::{self, SumRegistry};
use parking_lot::{Mutex, MutexGuard, RwLock};
use spa_linalg::{RowView, SparseVec};
use spa_ml::Dataset;
use spa_store::fault::{real_io, StorageIo};
use spa_store::log::LogConfig;
use spa_store::snapshot::{self, Snapshot, SnapshotBuilder};
use spa_store::{EventLog, LogPosition, ShardedEventLog, TornTail};
use spa_synth::catalog::CourseCatalog;
use spa_types::{
    AttributeSchema, CampaignId, EmotionalAttribute, EventKind, LifeLogEvent, Result, ShardId,
    SpaError, Timestamp, UserId,
};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File at the log root holding the global selection function's trained
/// state (one per platform, not per shard — the selection model is
/// global). Written atomically by [`ShardedSpa::checkpoint`], loaded by
/// [`ShardedSpa::recover`].
const SELECTION_SNAPSHOT: &str = "selection.snap";

/// Directory under the log root holding the selection function's own
/// write-ahead log (one global log, not per-shard — outcomes mutate the
/// one global model). Every [`ShardedSpa::observe_outcome`] appends an
/// [`EventKind::OutcomeObserved`] frame here *before* updating the
/// weights, carrying the advice row verbatim: Pegasos updates are
/// order- and input-sensitive, so replay must re-feed the exact example
/// the live update consumed.
const SELECTION_WAL_DIR: &str = "selection-wal";

/// Stable user → shard assignment: FNV-1a over the id's little-endian
/// bytes, reduced modulo the shard count. Deterministic across runs,
/// platforms and process restarts — a prerequisite for replaying
/// per-shard logs back onto the shard that wrote them.
pub(crate) fn shard_index(user: UserId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    // the single-node platform routes on every call too: anything
    // modulo one is zero, so it skips the hash and the divide
    if shards == 1 {
        return 0;
    }
    let mut h: u32 = 0x811c_9dc5;
    for b in user.raw().to_le_bytes() {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    // shard ids are u32, so a 32-bit remainder gives the same answer as
    // a 64-bit one at a fraction of the divide latency
    (h % shards as u32) as usize
}

/// The one fan-out used by every multi-part operation: applies `f` to
/// each part index — across threads when there is more than one part
/// and `work` items (events, users) are [`spa_ml::parallel_worthy`],
/// inline on the caller in index order otherwise. A hand-off costs
/// ≈ 0.25 ms of spawn, wake and join, so a batch earns one from 2048
/// items up; checkpoint, compaction and recovery (about ten
/// milliseconds or more per shard) pass `usize::MAX`. Results come back
/// in index order either way — the bit-identity-across-thread-counts
/// guarantee every caller relies on.
fn fan_out<T: Send>(n: usize, work: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n > 1 && spa_ml::parallel_worthy(work) {
        use rayon::prelude::*;
        return (0..n).into_par_iter().map(f).collect();
    }
    (0..n).map(f).collect()
}

/// Users whose row slots the scoring loop resolves before it reads
/// their rows.
const LOOKAHEAD: usize = 16;

/// How many contiguous parts a read over `users` items splits into: one
/// per pool thread when the hand-off pays, one (the caller) otherwise.
fn read_parts(users: usize) -> usize {
    if spa_ml::parallel_worthy(users) {
        return rayon::current_num_threads();
    }
    1
}

/// The positions of `keys` grouped by key — a counting sort, in input
/// order within a group — and where each of the `groups` groups ends in
/// them.
fn group_positions(keys: &[u32], groups: usize) -> (Vec<u32>, Vec<usize>) {
    let mut ends = vec![0usize; groups];
    for &key in keys {
        ends[key as usize] += 1;
    }
    // each group's start, which the fill below advances to its end
    let mut start = 0;
    for end in &mut ends {
        start += *end;
        *end = start - *end;
    }
    let mut order = vec![0u32; keys.len()];
    for (position, &key) in keys.iter().enumerate() {
        order[ends[key as usize]] = position as u32;
        ends[key as usize] += 1;
    }
    (order, ends)
}

/// Collapses the failures of a multi-shard fan-out into one error. A
/// single failure passes through unchanged; several are joined into one
/// message preserving each shard's full error text — a chaos harness
/// accounts for every injected fault by scanning the text of every
/// surfaced error, so no shard's failure may be swallowed.
fn join_shard_errors(mut errors: Vec<SpaError>) -> SpaError {
    if errors.len() == 1 {
        return errors.pop().expect("caller checked non-empty");
    }
    let joined = errors.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ");
    SpaError::Io(std::io::Error::other(format!("{} shards failed: {joined}", errors.len())))
}

/// A multi-shard fan-out's results, in shard order, when every shard
/// succeeded; otherwise every failing shard's error
/// ([`join_shard_errors`]).
fn all_shards<T>(outcomes: Vec<Result<T>>) -> Result<Vec<T>> {
    let mut done = Vec::with_capacity(outcomes.len());
    let mut errors = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(value) => done.push(value),
            Err(e) => errors.push(e),
        }
    }
    if errors.is_empty() {
        Ok(done)
    } else {
        Err(join_shard_errors(errors))
    }
}

/// What [`ShardedSpa::recover`] found while replaying per-shard logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Events replayed and applied per shard (index = shard id). With a
    /// snapshot this counts only the **tail** behind it — the events
    /// the snapshot did not already cover.
    pub(crate) events_replayed: Vec<u64>,
    /// Intact logged events the platform rejected on replay, per shard
    /// (it rejected them identically at live ingest time, so they never
    /// contributed state; see [`ShardedSpa::recover`]).
    pub(crate) events_skipped: Vec<u64>,
    /// Torn tail found per shard, if any (cut when recovery reopens the
    /// shard's log).
    pub(crate) torn_tails: Vec<Option<TornTail>>,
    /// The snapshot position each shard was restored from (`None` =
    /// that shard replayed its full history).
    pub snapshots_loaded: Vec<Option<LogPosition>>,
    /// Whether the global selection function was restored from the
    /// checkpointed weights (`false` = no/corrupt selection snapshot).
    /// With no snapshot at all, the selection WAL still replays from
    /// the start; a *corrupt* snapshot skips the replay too (folding
    /// outcomes into unknown weights would diverge silently) and the
    /// function must be re-fit.
    pub selection_restored: bool,
    /// Outcome events replayed into the selection function from the
    /// selection WAL tail behind the restored weights (zero when the
    /// snapshot already covered the whole log, or when no outcomes were
    /// ever observed).
    pub selection_events_replayed: u64,
    /// Torn tail found in the selection WAL, if any (cut when recovery
    /// reopens it).
    pub(crate) selection_torn_tail: Option<TornTail>,
    /// Shards whose registered snapshot failed to load, forcing the
    /// fallback ladder (an older snapshot or a full replay). Zero on a
    /// healthy recovery; every unit here is a detected corruption that
    /// was survived, not ignored.
    pub snapshot_fallbacks: u64,
    /// Leftover atomic-write temp files (`*.snap-tmp`, `*.tmp`) from
    /// checkpoints or manifest rewrites the crash interrupted, removed
    /// during recovery so they can never be mistaken for durable state.
    pub stale_temps_removed: u64,
}

impl RecoveryReport {
    /// Total events replayed and applied across all shards.
    pub fn total_events(&self) -> u64 {
        self.events_replayed.iter().sum()
    }

    /// Total logged events rejected on replay across all shards.
    pub fn total_skipped(&self) -> u64 {
        self.events_skipped.iter().sum()
    }

    /// Number of shards whose last segment ended mid-frame.
    pub fn torn_shards(&self) -> usize {
        self.torn_tails.iter().filter(|t| t.is_some()).count()
    }

    /// Number of shards restored from a snapshot rather than a full
    /// replay.
    pub fn shards_from_snapshot(&self) -> usize {
        self.snapshots_loaded.iter().filter(|s| s.is_some()).count()
    }
}

impl fmt::Display for RecoveryReport {
    /// Operator-facing recovery summary: one glance tells how the
    /// platform came back (snapshots vs replay), how much work it cost,
    /// and every anomaly that was healed along the way — torn tails,
    /// snapshot fallbacks, stale temp files. Anomalies print even when
    /// zero so their absence is affirmative, not unreported.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shards = self.events_replayed.len();
        writeln!(
            f,
            "recovered {shards} shard{}: {} from snapshot, {} by full replay",
            if shards == 1 { "" } else { "s" },
            self.shards_from_snapshot(),
            shards - self.shards_from_snapshot(),
        )?;
        writeln!(
            f,
            "  events: {} replayed, {} rejected-and-skipped (identically to live ingest)",
            self.total_events(),
            self.total_skipped(),
        )?;
        writeln!(
            f,
            "  healed: {} torn tail{}, {} snapshot fallback{}, {} stale temp file{} removed",
            self.torn_shards(),
            if self.torn_shards() == 1 { "" } else { "s" },
            self.snapshot_fallbacks,
            if self.snapshot_fallbacks == 1 { "" } else { "s" },
            self.stale_temps_removed,
            if self.stale_temps_removed == 1 { "" } else { "s" },
        )?;
        write!(
            f,
            "  selection function: {}, {} outcome{} replayed{}",
            if self.selection_restored {
                "restored bit-identical from checkpoint"
            } else {
                "not restored (no valid snapshot)"
            },
            self.selection_events_replayed,
            if self.selection_events_replayed == 1 { "" } else { "s" },
            if self.selection_torn_tail.is_some() { " (torn tail healed)" } else { "" },
        )
    }
}

/// What [`ShardedSpa::checkpoint`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Per-shard log position each snapshot covers (index = shard id).
    pub positions: Vec<LogPosition>,
    /// Total snapshot bytes written (shard snapshots + the global
    /// selection snapshot).
    pub snapshot_bytes: u64,
}

/// What [`ShardedSpa::compact`] reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// Segment files deleted across all shards.
    pub segments_deleted: usize,
    /// Bytes those segments held.
    pub bytes_reclaimed: u64,
    /// Superseded snapshot files removed.
    pub(crate) snapshots_pruned: usize,
    /// Shards (or the selection log) whose registered snapshot failed
    /// re-validation and were therefore left uncompacted (their history
    /// is the only copy of the covered events until a fresh checkpoint
    /// succeeds).
    pub shards_skipped: usize,
}

/// Reusable routing buffers for [`ShardedSpa::ingest_batch`]: one
/// Publication counters a serving deployment can watch: how many
/// snapshot installs the write side has performed. Reads never appear
/// here — they are invisible to the write side by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PublicationStats {
    /// Per-user advice rows installed by ingest/restore.
    pub model_publishes: u64,
    /// Selection-function snapshots installed by training/outcomes.
    pub selection_publishes: u64,
}

/// [`GroupScratch`] per engine shard (registry-bucket positions and WAL
/// frames of the events routed there), swapped out of the platform for
/// the duration of a batch and swapped back when it completes, each
/// keeping its capacity while that stays within what a steady batch
/// needs. Steady-state batch ingest therefore groups and frames with no
/// allocation but the batch's one `Vec` of event references — a
/// concurrent second batch simply starts from an empty scratch and
/// allocates its own buffers once.
#[derive(Default)]
struct RoutingScratch {
    by_shard: Vec<GroupScratch>,
}

impl RoutingScratch {
    /// Clears every per-shard buffer (keeping capacity) and sizes the
    /// scratch for `shards` buffers.
    fn reset(&mut self, shards: usize) {
        self.by_shard.resize_with(shards, Default::default);
        for batch in &mut self.by_shard {
            batch.clear();
        }
    }

    /// Heap bytes the per-shard buffers hold between batches.
    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        self.by_shard.iter().map(GroupScratch::retained_bytes).sum()
    }
}

/// The assembled Smart Prediction Assistant: N independent [`Engine`]
/// shards behind one facade, one global selection function, and
/// optional write-ahead durability through a per-shard
/// [`ShardedEventLog`].
pub struct ShardedSpa {
    shards: Vec<Engine>,
    /// The global selection function as scoring reads it: an `Arc`
    /// snapshot of `selection_master`. Writers
    /// ([`ShardedSpa::observe_outcome`], [`ShardedSpa::train_selection`],
    /// recovery replay) mutate the master under its mutex — the WAL
    /// append shares the hold, so log order is apply order — then swap
    /// a clone in here. Readers clone the `Arc` out under the read
    /// guard, so a scoring fan-out waits only for that swap, never for
    /// an outcome's WAL append holding the master across disk I/O.
    selection: RwLock<Arc<SelectionFunction>>,
    /// The selection master every writer mutates (see `selection`).
    selection_master: Mutex<SelectionFunction>,
    /// Selection snapshots published so far.
    selection_publishes: AtomicU64,
    log: Option<ShardedEventLog>,
    /// Root-level WAL for the global selection function (see
    /// [`SELECTION_WAL_DIR`]). Present exactly when `log` is.
    selection_log: Option<EventLog>,
    /// Storage I/O seam shared by the WAL and every snapshot write/read
    /// this platform performs. [`spa_store::RealIo`] in production; a
    /// [`spa_store::FaultPlan`] under chaos testing
    /// ([`ShardedSpa::with_log_io`] / [`ShardedSpa::recover_with_io`]).
    io: Arc<dyn StorageIo>,
    /// Routing scratch reused across [`ShardedSpa::ingest_batch`] calls.
    routing: Mutex<RoutingScratch>,
    /// Per-shard write-pause latches — **writer-only** machinery. On a
    /// durable platform every ingest takes its shard's latch **shared**
    /// (a log-less one cannot checkpoint and skips it);
    /// [`ShardedSpa::checkpoint`] takes it **exclusive** while
    /// serializing that shard, so the recorded log position and the
    /// serialized state agree — and other shards keep ingesting
    /// meanwhile. Scoring and ranking never touch this latch or a
    /// registry mutex: they read published advice rows and selection
    /// snapshots, so a checkpoint serializes the quiesced masters while
    /// reads proceed. Uncontended shared acquisition is a couple of
    /// atomic ops, invisible next to a WAL append.
    pauses: Vec<RwLock<()>>,
    /// Serializes checkpoint/compaction against each other: both are
    /// `&self` (callable from concurrent owners of an `Arc`), and the
    /// manifest registration is a read-modify-write — interleaved
    /// maintenance could register stale positions pointing at snapshots
    /// a concurrent prune already deleted.
    maintenance: Mutex<()>,
}

impl ShardedSpa {
    /// Builds an ephemeral (no durability) platform of `shards` engines;
    /// `shards = 1` is the in-memory single-node case.
    pub fn new(courses: &CourseCatalog, _config: SpaConfig, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(SpaError::Invalid("shard count must be at least 1".into()));
        }
        let engines = (0..shards).map(|_| Engine::new(courses)).collect();
        Ok(Self::assemble(engines, real_io()))
    }

    /// The facade around `engines` (never empty: [`ShardedSpa::new`]
    /// and the manifest parser both reject a zero shard count): an
    /// untrained selection function, no logs attached yet.
    fn assemble(engines: Vec<Engine>, io: Arc<dyn StorageIo>) -> Self {
        let selection =
            SelectionFunction::with_imbalance(engines[0].schema().len(), POSITIVE_WEIGHT);
        Self {
            selection: RwLock::new(Arc::new(selection.clone())),
            selection_master: Mutex::new(selection),
            selection_publishes: AtomicU64::new(0),
            log: None,
            selection_log: None,
            io,
            routing: Mutex::new(RoutingScratch::default()),
            pauses: engines.iter().map(|_| RwLock::new(())).collect(),
            maintenance: Mutex::new(()),
            shards: engines,
        }
    }

    /// Builds a sharded platform whose ingest is write-ahead logged to
    /// per-shard segment files under `root` (creating the directory
    /// layout and manifest on first use; reopening an existing root
    /// continues its logs and insists on the same shard count).
    pub fn with_log(
        courses: &CourseCatalog,
        config: SpaConfig,
        shards: usize,
        root: impl AsRef<Path>,
        log_config: LogConfig,
    ) -> Result<Self> {
        Self::with_log_io(courses, config, shards, root, log_config, real_io())
    }

    /// [`ShardedSpa::with_log`] with an explicit [`StorageIo`] seam
    /// threaded through the WAL and every snapshot write/read. This is
    /// the chaos-testing entry point: pass a
    /// [`spa_store::FaultPlan`] and every injected fault is either
    /// recovered (bounded retry on the write path) or surfaced loudly —
    /// never silently absorbed.
    pub fn with_log_io(
        courses: &CourseCatalog,
        config: SpaConfig,
        shards: usize,
        root: impl AsRef<Path>,
        log_config: LogConfig,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self> {
        let mut sharded = Self::new(courses, config, shards)?;
        let root = root.as_ref();
        sharded.log =
            Some(ShardedEventLog::open_with_io(root, shards, log_config.clone(), io.clone())?);
        sharded.selection_log =
            Some(EventLog::open_with_io(root.join(SELECTION_WAL_DIR), log_config, io.clone())?);
        sharded.io = io;
        Ok(sharded)
    }

    /// Rebuilds a sharded platform from its per-shard logs after a
    /// crash: reads the shard count and registered checkpoints from the
    /// root manifest, restores each shard from its newest valid
    /// snapshot ([`ShardedSpa::checkpoint`]) and replays only the
    /// segment **tail** behind it, then reattaches the logs for continued
    /// ingest. A torn tail write is reported in [`RecoveryReport`], and
    /// reattaching cuts it: opening a log ([`EventLog::open`]) is where
    /// a torn tail is cut, so appends resume on a clean frame boundary.
    /// Recovery cost is proportional to the
    /// tail since the last checkpoint, not the event history. The
    /// global [`SelectionFunction`] is restored from the checkpointed
    /// weights — it scores bit-identically to the live function, no
    /// retraining.
    ///
    /// Shards without a registered snapshot replay their full history
    /// (exactly the pre-checkpoint behavior). A registered snapshot
    /// that fails its CRC falls back to full replay when the full
    /// history still exists; if the log was already compacted behind
    /// the bad snapshot, recovery fails loudly rather than silently
    /// serving partial state.
    ///
    /// **The configuration-not-logged contract** (the one place it is
    /// documented): everything a platform derives from the event
    /// stream — SUM models, EIT schedules, counters, selection weights
    /// — is recovered from snapshot + WAL. What is *not* is
    /// configuration the operator supplies at every bring-up, exactly
    /// as they supply `courses` and `log_config`:
    ///
    /// * `campaigns` — campaign → appeal registrations, active from the
    ///   *start* of replay. Replayed `MessageOpened` / attributed
    ///   `Transaction` events re-apply their rewards only for campaigns
    ///   registered before replay; conversely, a campaign that was only
    ///   registered midway through the live stream will now reward its
    ///   earlier events too. Register campaigns at platform bring-up
    ///   (before ingest), as [`ShardedSpa::with_log`] users naturally
    ///   do, and recovery is exact.
    ///
    /// A logged event the in-memory platform *rejects* (e.g. an
    /// `EitAnswer` naming a question id outside the bank) is rejected
    /// identically on replay — it never mutated live state, so it is
    /// skipped and counted in `RecoveryReport::events_skipped` rather
    /// than poisoning every future recovery of the log.
    pub fn recover(
        courses: &CourseCatalog,
        config: SpaConfig,
        campaigns: &[(CampaignId, Vec<EmotionalAttribute>)],
        root: impl AsRef<Path>,
        log_config: LogConfig,
    ) -> Result<(Self, RecoveryReport)> {
        Self::recover_with_io(courses, config, campaigns, root, log_config, real_io())
    }

    /// [`ShardedSpa::recover`] with an explicit [`StorageIo`] seam: the
    /// registered-snapshot reads, tail replay and reattached WAL all go
    /// through `io`, so a chaos harness can inject read-side bit rot
    /// into recovery itself and assert it is surfaced (a `Corrupt`
    /// error or a counted snapshot fallback), never silently served.
    /// The fallback ladder (older snapshot, full-history replay) reads
    /// with real I/O — it is the escape hatch *from* detected
    /// corruption.
    pub fn recover_with_io(
        courses: &CourseCatalog,
        _config: SpaConfig,
        campaigns: &[(CampaignId, Vec<EmotionalAttribute>)],
        root: impl AsRef<Path>,
        log_config: LogConfig,
        io: Arc<dyn StorageIo>,
    ) -> Result<(Self, RecoveryReport)> {
        let root = root.as_ref();
        // one manifest read serves both the shard count and the
        // checkpoint registrations (the vector is always count-sized)
        let registered = ShardedEventLog::registered_snapshots(root)?;
        let shards = registered.len();
        struct ShardOutcome {
            applied: u64,
            skipped: u64,
            torn: Option<TornTail>,
            snapshot: Option<LogPosition>,
            fallback: bool,
            stale_temps: u64,
        }
        let fresh_engine = || {
            let engine = Engine::new(courses);
            for (campaign, appeal) in campaigns {
                engine.register_campaign(*campaign, appeal);
            }
            engine
        };
        // each shard recovers independently (its own snapshot, its own
        // segments, its own engine): build the engine, load the
        // registered snapshot, then stream-replay the tail behind it one
        // segment at a time — fanned out across threads like every
        // multi-shard path
        let recover_one = |index: usize| -> Result<(Engine, ShardOutcome)> {
            let mut engine = fresh_engine();
            let dir = ShardedEventLog::shard_path(root, ShardId::new(index as u32));
            // a crash mid-checkpoint leaves `*.snap-tmp` partials in the
            // shard directory; remove them first (and count them in the
            // report) so no later code path can mistake one for a
            // durable snapshot
            let stale_temps = snapshot::remove_stale_temps(&dir)?.len() as u64;
            let mut start = LogPosition::default();
            let mut loaded = None;
            let mut fallback = false;
            if let Some(position) = registered[index] {
                let path = snapshot::snapshot_path(&dir, position);
                let restore = Snapshot::read_with(&path, io.clone()).and_then(|snap| {
                    if snap.position() != position {
                        return Err(SpaError::Corrupt(format!(
                            "snapshot {} covers position {}, manifest registered {position}",
                            path.display(),
                            snap.position()
                        )));
                    }
                    engine.restore(&snap)
                });
                match restore {
                    Ok(_) => {
                        start = position;
                        loaded = Some(position);
                    }
                    Err(cause) => {
                        fallback = true;
                        // the registered snapshot is unloadable (CRC
                        // failure, missing file). Fallback ladder:
                        // 1. another valid snapshot on disk whose tail
                        //    still exists — pruning only runs behind a
                        //    *validated* checkpoint, so the previous
                        //    good one typically survives; recovery then
                        //    costs one checkpoint interval of replay;
                        // 2. a from-scratch replay, when the full
                        //    history survives (segment 0 present);
                        // 3. loud failure — after compaction the
                        //    covered events exist nowhere else, and
                        //    replaying a partial log would silently
                        //    serve wrong state.
                        // a failed restore may have landed partial state
                        engine = fresh_engine();
                        let first = spa_store::EventLog::first_segment_index(&dir)?;
                        let mut older_loaded = None;
                        if let Some((older, _)) = snapshot::latest_valid_snapshot(&dir)? {
                            let older_position = older.position();
                            if first.is_some_and(|f| f <= older_position.segment) {
                                if engine.restore(&older).is_ok() {
                                    older_loaded = Some(older_position);
                                } else {
                                    engine = fresh_engine();
                                }
                            }
                        }
                        match older_loaded {
                            Some(older_position) => {
                                start = older_position;
                                loaded = Some(older_position);
                            }
                            None if first == Some(0) => {} // full replay
                            None => {
                                return Err(SpaError::Corrupt(format!(
                                    "shard {index}: snapshot at {position} failed to load \
                                     ({cause}), no other valid snapshot is usable, and the log \
                                     is compacted behind it — cannot recover"
                                )))
                            }
                        }
                    }
                }
            }
            let mut iter = spa_store::EventLog::replay_iter_from_with(&dir, start, io.clone())?;
            let mut applied = 0u64;
            let mut skipped = 0u64;
            for event in iter.by_ref() {
                // mid-log corruption is still a loud error
                if engine.ingest(&event?).is_ok() {
                    applied += 1;
                } else {
                    skipped += 1;
                }
            }
            Ok((
                engine,
                ShardOutcome {
                    applied,
                    skipped,
                    torn: iter.torn_tail(),
                    snapshot: loaded,
                    fallback,
                    stale_temps,
                },
            ))
        };
        let mut engines = Vec::with_capacity(shards);
        let mut report = RecoveryReport {
            // the root itself holds atomic-write temps too (selection
            // snapshot, manifest rewrite); clean it like the shard dirs
            stale_temps_removed: snapshot::remove_stale_temps(root)?.len() as u64,
            ..RecoveryReport::default()
        };
        for outcome in fan_out(shards, usize::MAX, recover_one) {
            let (engine, ShardOutcome { applied, skipped, torn, snapshot, fallback, stale_temps }) =
                outcome?;
            engines.push(engine);
            report.events_replayed.push(applied);
            report.events_skipped.push(skipped);
            report.torn_tails.push(torn);
            report.snapshots_loaded.push(snapshot);
            report.snapshot_fallbacks += fallback as u64;
            report.stale_temps_removed += stale_temps;
        }
        // assemble the facade around the recovered engines directly
        let mut sharded = Self::assemble(engines, io.clone());
        // the global selection function: restored from the checkpoint's
        // weight snapshot when one is present and valid, then rolled
        // forward by replaying the selection WAL tail behind the
        // snapshot's recorded position — each logged outcome re-feeds
        // the exact advice row the live update consumed, so the
        // recovered weights are bit-identical to the pre-crash ones.
        // With no snapshot at all the full outcome history replays from
        // the start. A present-but-corrupt snapshot skips the replay
        // too (folding outcomes into unknown weights would diverge
        // silently) and leaves the function untrained — surfaced in the
        // report, not failed: unlike event-derived state, the function
        // is re-fittable from campaign history.
        let selection_dir = root.join(SELECTION_WAL_DIR);
        let selection_path = root.join(SELECTION_SNAPSHOT);
        let mut selection = sharded.selection_master.lock();
        let mut selection_replay_from = None;
        if selection_path.exists() {
            if let Ok(snap) = Snapshot::read_with(&selection_path, io.clone()) {
                if let Some(bytes) = snap.section(SECTION_SELECTION) {
                    report.selection_restored = selection.restore_state(bytes).is_ok();
                    if report.selection_restored {
                        selection_replay_from = Some(snap.position());
                    }
                }
            }
        } else if selection_dir.exists() {
            // no snapshot was ever written: replay everything — unless
            // the log was compacted behind a snapshot that has since
            // vanished, where a partial replay would silently serve
            // wrong weights
            match EventLog::first_segment_index(&selection_dir)? {
                Some(first) if first > 0 => {
                    return Err(SpaError::Corrupt(
                        "selection log is compacted but selection.snap is missing — \
                         cannot recover the selection function"
                            .into(),
                    ))
                }
                _ => selection_replay_from = Some(LogPosition::default()),
            }
        }
        if let Some(from) = selection_replay_from {
            if selection_dir.exists() {
                let mut iter = EventLog::replay_iter_from_with(&selection_dir, from, io.clone())?;
                for event in iter.by_ref() {
                    let event = event?;
                    let EventKind::OutcomeObserved { responded, dim, indices, values } =
                        &event.kind
                    else {
                        // only observe_outcome writes this log; anything
                        // else is corruption, never silently skipped
                        return Err(SpaError::Corrupt(format!(
                            "selection log contains a non-outcome event ({})",
                            event.kind.tag()
                        )));
                    };
                    selection.partial_fit_view(
                        RowView::new(*dim as usize, indices, values),
                        *responded,
                    )?;
                    report.selection_events_replayed += 1;
                }
                report.selection_torn_tail = iter.torn_tail();
            }
        }
        // the master was restored/replayed with nothing published yet —
        // publish its final state before the platform goes live
        sharded.publish_selection(&selection);
        drop(selection);
        // reopening the logs cuts the torn tails reported above
        sharded.log =
            Some(ShardedEventLog::open_existing_with_io(root, log_config.clone(), io.clone())?);
        sharded.selection_log = Some(EventLog::open_with_io(&selection_dir, log_config, io)?);
        Ok((sharded, report))
    }

    /// Checkpoints every shard: under that shard's write-pause latch,
    /// flushes its WAL, records the flushed position and atomically
    /// writes a snapshot of the shard's in-memory state covering
    /// exactly that position (fanned out across threads when the pool
    /// has more than one — shards pause one at a time, not the whole
    /// platform). The global selection weights are written to a
    /// root-level snapshot, and finally all positions are registered in
    /// the shard manifest in one atomic rewrite — the commit point:
    /// recovery prefers the new snapshots only after it, and a crash at
    /// any earlier moment leaves the previous checkpoint fully intact.
    ///
    /// After a checkpoint, [`ShardedSpa::compact`] may delete the
    /// covered segments; [`ShardedSpa::recover`] replays only the tail.
    ///
    /// Errors on an ephemeral (no-WAL) platform — a snapshot without a
    /// log position to anchor to cannot bound replay.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let log = self.log.as_ref().ok_or_else(|| {
            SpaError::Invalid(
                "checkpoint requires a write-ahead-logged platform \
                 (ShardedSpa::with_log / ShardedSpa::recover)"
                    .into(),
            )
        })?;
        let _maintenance = self.maintenance.lock();
        let snapshot_shard = |index: usize| -> Result<(LogPosition, u64)> {
            let shard_id = ShardId::new(index as u32);
            // exclusive latch: no append lands between recording the
            // position and serializing the state it reflects. Held only
            // for the position read (no I/O) + in-memory serialization
            // — the WAL flush/fsync and the snapshot disk write run
            // after the latch drops, so ingest on this shard stalls for
            // the state walk, never for disk latency.
            let (position, builder) = {
                let _pause = self.pauses[index].write();
                let position = log.buffered_position(shard_id);
                (position, self.shards[index].build_snapshot(position))
            };
            // the covered prefix must be durable before the snapshot is
            // registered — always fsynced, independent of the log's
            // per-append `fsync` setting: the registration and snapshot
            // are fsynced below, and after compaction they would
            // otherwise outlive WAL bytes a power loss took with the
            // page cache, leaving a registered offset past the
            // surviving segment
            log.sync_up_to(shard_id, position)?;
            let dir = ShardedEventLog::shard_path(log.root(), shard_id);
            let bytes = builder
                .write_atomic_with(snapshot::snapshot_path(&dir, position), self.io.as_ref())?;
            Ok((position, bytes))
        };
        // a failed shard aborts the checkpoint before the manifest
        // commit — the previous checkpoint stays fully intact; every
        // failing shard's error is preserved in the joined message
        let written = all_shards(fan_out(self.shards.len(), usize::MAX, snapshot_shard))?;
        let positions: Vec<LogPosition> = written.iter().map(|&(position, _)| position).collect();
        let mut snapshot_bytes: u64 = written.iter().map(|&(_, bytes)| bytes).sum();
        // global selection weights, anchored to the selection-WAL
        // position they reflect; recovery restores the weights and
        // replays only the outcomes logged after this position
        snapshot_bytes += self.write_selection_snapshot(log, self.selection_master.lock())?;
        // commit: one atomic manifest rewrite registers everything
        let registrations: Vec<Option<LogPosition>> = positions.iter().copied().map(Some).collect();
        ShardedEventLog::register_snapshots(log.root(), &registrations)?;
        Ok(CheckpointReport { positions, snapshot_bytes })
    }

    /// Deletes WAL segments fully covered by each shard's registered
    /// checkpoint (see [`spa_store::log::EventLog::compact_before`])
    /// and prunes snapshot files the registered one supersedes, shard
    /// by shard in parallel when the pool has more than one thread. Safe
    /// during live ingest — only closed, fully-covered segments are
    /// touched. Disk usage becomes O(state + tail) instead of
    /// O(history).
    ///
    /// Before deleting anything, each shard's registered snapshot is
    /// **re-validated** (a full CRC read from disk,
    /// [`Snapshot::read_position_with`], which copies no section out):
    /// the covered events exist nowhere else once their segments are
    /// gone, so compacting behind a snapshot that bit-rotted after
    /// registration would turn a recoverable situation (recover falls
    /// back to full replay) into permanent data loss. A shard with an
    /// unloadable snapshot is skipped — its history stays replayable
    /// until a fresh checkpoint succeeds.
    pub fn compact(&self) -> Result<CompactionReport> {
        let log = self.log.as_ref().ok_or_else(|| {
            SpaError::Invalid("compaction requires a write-ahead-logged platform".into())
        })?;
        let _maintenance = self.maintenance.lock();
        let registered = ShardedEventLog::registered_snapshots(log.root())?;
        // one shard's share of the report; shards are independent (own
        // log, own directory), so they compact side by side like
        // checkpoint's snapshots
        let compact_shard = |index: usize| -> Result<CompactionReport> {
            let mut report = CompactionReport::default();
            let Some(position) = registered[index] else { return Ok(report) };
            let shard_id = ShardId::new(index as u32);
            let dir = ShardedEventLog::shard_path(log.root(), shard_id);
            let snapshot_ok = Snapshot::read_position_with(
                snapshot::snapshot_path(&dir, position),
                self.io.as_ref(),
            )
            .is_ok_and(|covered| covered == position);
            if !snapshot_ok {
                // skipped, and *visibly* skipped: the report says how
                // many shards kept their history because their snapshot
                // could not be trusted
                report.shards_skipped = 1;
                return Ok(report);
            }
            let stats = log.compact_before(shard_id, position)?;
            report.segments_deleted = stats.segments_deleted;
            report.bytes_reclaimed = stats.bytes_reclaimed;
            report.snapshots_pruned = snapshot::prune_snapshots_before(&dir, position)?;
            Ok(report)
        };
        // every shard is attempted; every failing shard's error is
        // preserved in the joined message
        let mut report = CompactionReport::default();
        for shard in all_shards(fan_out(registered.len(), usize::MAX, compact_shard))? {
            report.segments_deleted += shard.segments_deleted;
            report.bytes_reclaimed += shard.bytes_reclaimed;
            report.snapshots_pruned += shard.snapshots_pruned;
            report.shards_skipped += shard.shards_skipped;
        }
        // the selection WAL compacts behind `selection.snap` under the
        // same discipline: the snapshot is re-validated first, because
        // the covered outcomes exist nowhere else once their segments
        // are gone; an unloadable snapshot skips the log (visibly)
        if let Some(selection_log) = &self.selection_log {
            let selection_path = log.root().join(SELECTION_SNAPSHOT);
            if selection_path.exists() {
                match Snapshot::read_position_with(&selection_path, self.io.as_ref()) {
                    Ok(position) => {
                        let stats = selection_log.compact_before(position)?;
                        report.segments_deleted += stats.segments_deleted;
                        report.bytes_reclaimed += stats.bytes_reclaimed;
                    }
                    Err(_) => report.shards_skipped += 1,
                }
            }
        }
        Ok(report)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a user lives on.
    pub fn shard_of(&self, user: UserId) -> ShardId {
        ShardId::new(shard_index(user, self.shards.len()) as u32)
    }

    /// Direct access to one shard's engine.
    pub fn shard(&self, shard: ShardId) -> &Engine {
        &self.shards[shard.index()]
    }

    /// The attribute schema (one for the whole platform).
    pub fn schema(&self) -> &AttributeSchema {
        self.shards[0].schema()
    }

    /// The attached write-ahead log set, when durable.
    pub fn log(&self) -> Option<&ShardedEventLog> {
        self.log.as_ref()
    }

    /// The selection function's own write-ahead log, when durable (the
    /// root-level outcome log behind [`ShardedSpa::observe_outcome`]).
    pub fn selection_log(&self) -> Option<&EventLog> {
        self.selection_log.as_ref()
    }

    /// The global selection function (one model for the whole
    /// population). Returns the most recently published snapshot —
    /// taking it waits only for a concurrent publication's `Arc` swap,
    /// and holding it never blocks a concurrent
    /// [`ShardedSpa::observe_outcome`] or [`ShardedSpa::train_selection`].
    pub fn selection(&self) -> Arc<SelectionFunction> {
        Arc::clone(&self.selection.read())
    }

    /// Publishes a snapshot of the held selection master, and counts it.
    fn publish_selection(&self, master: &SelectionFunction) {
        *self.selection.write() = Arc::new(master.clone());
        self.selection_publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Publication counters: how many advice rows the shard
    /// registries have installed (one per touched user per write
    /// section) and how many selection snapshots writers have
    /// published. Monotonic; serves the stats endpoint.
    pub fn publication_stats(&self) -> PublicationStats {
        PublicationStats {
            model_publishes: self.shards.iter().map(|s| s.registry().model_publishes()).sum(),
            selection_publishes: self.selection_publishes.load(Ordering::Relaxed),
        }
    }

    fn owner(&self, user: UserId) -> &Engine {
        &self.shards[shard_index(user, self.shards.len())]
    }

    /// Ingests one raw LifeLog event: appended to the owning shard's
    /// log first (write-ahead), then applied to its in-memory state —
    /// both under the shard's write-pause latch, so a concurrent
    /// [`ShardedSpa::checkpoint`] never snapshots between the append
    /// and the apply (which would record a position covering an event
    /// the state does not reflect). A platform without a log cannot
    /// checkpoint, so it skips the latch.
    pub fn ingest(&self, event: &LifeLogEvent) -> Result<()> {
        let shard = self.shard_of(event.user);
        let _pause = self.log.as_ref().map(|_| self.pauses[shard.index()].read());
        if let Some(log) = &self.log {
            log.append(shard, event)?;
        }
        self.shards[shard.index()].ingest(event)
    }

    /// Ingests a batch: events are routed to their shards (preserving
    /// per-shard arrival order), then each involved shard runs its
    /// whole *log sub-batch → apply sub-batch* pipeline as one unit. A
    /// batch of [`spa_ml::PARALLEL_BATCH_THRESHOLD`] events or more
    /// fans the shards out across threads (when the pool has more than
    /// one) — no global barrier between the log phase and the apply
    /// phase, so one slow shard's disk write never stalls
    /// another shard's in-memory apply. A smaller batch runs the same
    /// pipelines inline on the caller, in shard order: the hand-off
    /// would cost more than the apply, and the rows it publishes stay
    /// in the cache of the thread that scores them next. Either way
    /// every shard is attempted and per-shard WAL-before-apply ordering
    /// (the invariant recovery equivalence depends on) is untouched:
    /// within a shard, the sub-batch is durably buffered before any of
    /// it mutates state, under that shard's write-pause latch so a
    /// concurrent [`ShardedSpa::checkpoint`] never lands between the
    /// two. Returns how many events were applied.
    ///
    /// The events stay the caller's, borrowed for the call. A bulk batch
    /// — more than `PARALLEL_BATCH_THRESHOLD` events per engine shard —
    /// runs as consecutive batches of that size, in arrival order, so
    /// its routing buffers (`RoutingScratch`, reused across calls)
    /// stay the size a steady batch needs, and so do the write sections
    /// it opens. Chunking changes no byte of any shard's WAL and no
    /// applied state. Steady-state batch ingest allocates one `Vec` of
    /// event references on the routing path and nothing else.
    ///
    /// Each event is applied independently: one the platform rejects
    /// (e.g. an `EitAnswer` naming a question outside the bank) is
    /// skipped — excluded from the returned count — and the rest of the
    /// batch still lands. This mirrors replay exactly (a rejected event
    /// is rejected identically during [`ShardedSpa::recover`]), so a
    /// recovered platform always equals the live one; an abort-on-first-
    /// error batch would leave its durably logged tail applied on
    /// replay but not live. Errors surface only from the write-ahead
    /// log itself (I/O).
    ///
    /// On a WAL I/O error every failing shard's error is surfaced — a
    /// single failure passes through unchanged, several are joined into
    /// one message preserving each shard's error text (no failure is
    /// swallowed). Because shards pipeline independently, other shards
    /// may already have logged **and applied** their sub-batches (and
    /// every shard the chunks before the failing one), and each failing
    /// shard's own log is poisoned with a possibly-torn tail. Treat the
    /// error as fatal, exactly as the per-event contract on
    /// [`ShardedSpa::ingest`] already demands: rebuild through
    /// [`ShardedSpa::recover`] (which replays the durably logged prefix
    /// and cuts the tear when it reopens the logs) rather than retrying the batch — a retry
    /// would log the surviving shards' events twice and every future
    /// replay would double-count them.
    pub fn ingest_batch<'a>(
        &self,
        events: impl IntoIterator<Item = &'a LifeLogEvent>,
    ) -> Result<usize> {
        // swap the routing scratch out of the platform (a concurrent
        // batch finds an empty default and builds its own buffers)
        let mut scratch = std::mem::take(&mut *self.routing.lock());
        let mut events = events.into_iter();
        let durable = self.log.is_some();
        let chunk_len = spa_ml::PARALLEL_BATCH_THRESHOLD * self.shards.len();
        // the chunk's events: the scratch holds positions into this,
        // never an event
        let mut chunk: Vec<&LifeLogEvent> = Vec::with_capacity(events.size_hint().0.min(chunk_len));
        let mut applied = 0usize;
        let outcome = loop {
            scratch.reset(self.shards.len());
            chunk.clear();
            // durable platforms frame each event during routing, while
            // it is hot in cache — the log phase writes the pre-encoded
            // run without ever walking the events again
            for event in events.by_ref().take(chunk_len) {
                let routed = &mut scratch.by_shard[shard_index(event.user, self.shards.len())];
                if durable {
                    routed.push_framed(chunk.len() as u32, event);
                } else {
                    routed.push(chunk.len() as u32, event);
                }
                chunk.push(event);
            }
            if chunk.is_empty() {
                break Ok(applied);
            }
            match self.run_routed(&scratch, &chunk) {
                Ok(count) => applied += count,
                Err(e) => break Err(e),
            }
        };
        // hand the buffers back for the next batch to reuse (freeing
        // them instead when a bulk batch inflated them)
        for routed in &mut scratch.by_shard {
            routed.recycle();
        }
        *self.routing.lock() = scratch;
        outcome
    }

    /// Runs every shard's *log → apply* pipeline over the events of
    /// `chunk` that `scratch` routed to it (see
    /// [`ShardedSpa::ingest_batch`]), returning how many were applied.
    fn run_routed(&self, scratch: &RoutingScratch, chunk: &[&LifeLogEvent]) -> Result<usize> {
        let run_shard = |index: usize| -> Result<usize> {
            let routed = &scratch.by_shard[index];
            if routed.is_empty() {
                return Ok(0);
            }
            // on a durable platform the shard's pause latch (shared)
            // covers log + apply, so a checkpoint never snapshots
            // between them; only this one shard pauses, never the
            // platform
            let _pause = self.log.as_ref().map(|_| self.pauses[index].read());
            if let Some(log) = &self.log {
                // frames are in arrival order — the byte stream is
                // pinned; only the in-memory apply below is grouped
                log.append_encoded(ShardId::new(index as u32), routed.frames())?;
            }
            Ok(self.shards[index].apply_grouped(chunk, routed))
        };
        Ok(all_shards(fan_out(self.shards.len(), chunk.len(), run_shard))?.into_iter().sum())
    }

    /// Flushes every shard's log — and the selection WAL — to the OS
    /// (and disk when `fsync`).
    pub fn flush(&self) -> Result<()> {
        if let Some(log) = &self.log {
            log.flush()?;
        }
        if let Some(selection_log) = &self.selection_log {
            selection_log.flush()?;
        }
        Ok(())
    }

    /// Aggregate pre-processing counters across shards. Counters are
    /// sums, so the aggregate is the same at any shard count regardless
    /// of how users hash.
    pub fn stats(&self) -> PreprocessorStats {
        let mut total = PreprocessorStats::default();
        for shard in &self.shards {
            total += shard.stats();
        }
        total
    }

    /// The next Gradual-EIT question for a user, one per contact (the
    /// schedule is a function of the user's own history, so it is the
    /// same at any shard count), borrowed from the question bank.
    pub fn next_eit_question(&self, user: UserId) -> &crate::eit::EitQuestion {
        self.owner(user).next_eit_question(user)
    }

    /// Imports socio-demographic (objective) attributes for a user —
    /// the off-line data-selection path of §4 — as an
    /// [`EventKind::ObjectiveImported`] event through the ordinary
    /// ingest path: write-ahead logged on durable platforms and
    /// replayed on recovery like any LifeLog event. (It mutates SUM
    /// state; an unlogged import would silently vanish on crash.)
    /// Over-wide imports and non-finite values are rejected before
    /// anything is logged.
    pub fn import_objective(&self, user: UserId, values: &[f64]) -> Result<()> {
        LifeLogPreprocessor::check_objective(values)?;
        self.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::ObjectiveImported { values: values.to_vec() },
        ))
    }

    /// A clone of `user`'s master model, if one exists — the routed
    /// [`crate::sum::SumRegistry::get`] (takes the user's registry
    /// shard mutex).
    pub fn model(&self, user: UserId) -> Option<crate::sum::SmartUserModel> {
        self.owner(user).registry().get(user)
    }

    /// Applies `f` to `user`'s *borrowed* master model (`None` when the
    /// user has none) — the routed
    /// `crate::sum::SumRegistry::with_model_read`, with its caveats:
    /// it holds the user's registry shard mutex for the duration of
    /// `f`.
    pub fn with_model_read<T>(
        &self,
        user: UserId,
        f: impl FnOnce(Option<&crate::sum::SmartUserModel>) -> T,
    ) -> T {
        self.owner(user).registry().with_model_read(user, f)
    }

    /// Plain observed feature row (routed; empty row for unknowns). A
    /// whole-model read: takes the user's registry shard mutex.
    pub fn feature_row(&self, user: UserId) -> SparseVec {
        self.owner(user).feature_row(user)
    }

    /// Advice-stage (activated/inhibited) feature row: an owned copy of
    /// the user's published row, read under its registry shard's read
    /// guard (routed; empty row for unknowns).
    pub fn advice_row(&self, user: UserId) -> Result<SparseVec> {
        Ok(self.owner(user).advice_row(user))
    }

    /// Applies `f` to `user`'s *borrowed* published advice row (`None`
    /// when the user has no model) — the copy-free form of
    /// [`ShardedSpa::advice_row`], routed to
    /// `crate::sum::SumRegistry::with_advice_row`. `f` runs under the
    /// user's registry shard read guard: keep it short, and call
    /// nothing on this platform from inside it.
    pub fn with_advice_row<T>(&self, user: UserId, f: impl FnOnce(Option<RowView<'_>>) -> T) -> T {
        self.owner(user).registry().with_advice_row(user, f)
    }

    /// Trains the global selection function on labelled campaign
    /// history. Batch fits are not event-logged — the dataset is
    /// operator-supplied, like campaign registrations (see the
    /// configuration-not-logged contract on [`ShardedSpa::recover`]) —
    /// so on a durable platform the fitted weights are checkpointed to
    /// `selection.snap` immediately, anchored at the current
    /// selection-WAL position: a crash after training recovers the
    /// fitted function instead of silently reverting to pre-fit
    /// weights.
    pub fn train_selection(&self, data: &Dataset) -> Result<()> {
        // maintenance excludes checkpoint/compact — the snapshot write
        // below must not race a concurrent checkpoint's
        let _maintenance = self.maintenance.lock();
        let mut selection = self.selection_master.lock();
        selection.fit(data)?;
        // publish before the snapshot I/O: readers see the fitted
        // weights as soon as the fit lands, not after the disk write
        self.publish_selection(&selection);
        if let Some(log) = &self.log {
            self.write_selection_snapshot(log, selection)?;
        }
        Ok(())
    }

    /// Writes `selection.snap` under `log`'s root from the held master:
    /// the weights, anchored at the selection-WAL position they reflect
    /// (holding the master excludes concurrent `observe_outcome`
    /// appends, so position and weights agree). The master is released
    /// before any I/O; the covered WAL prefix is fsynced before the
    /// snapshot lands, as for the shards. Returns the bytes written.
    fn write_selection_snapshot(
        &self,
        log: &ShardedEventLog,
        selection: MutexGuard<'_, SelectionFunction>,
    ) -> Result<u64> {
        let position =
            self.selection_log.as_ref().map(|l| l.buffered_position()).unwrap_or_default();
        let mut builder = SnapshotBuilder::new(position);
        builder.section_with(SECTION_SELECTION, |out| selection.write_state(out));
        drop(selection);
        if let Some(selection_log) = &self.selection_log {
            selection_log.sync_up_to(position)?;
        }
        builder.write_atomic_with(log.root().join(SELECTION_SNAPSHOT), self.io.as_ref())
    }

    /// Incrementally folds one observed outcome into the global
    /// selection function (SPA's incremental-learning mode). The
    /// example is the user's published advice row — the update is
    /// bit-identical to `partial_fit_view(advice_row(user).view())`.
    ///
    /// Errors with [`SpaError::UnknownUser`] when no model exists for
    /// `user`: silently training on the all-zero advice row of a never-
    /// seen user would corrupt the selection function with no signal to
    /// the caller. Ingest at least one event first.
    ///
    /// Durable platforms write-ahead log the outcome to the root-level
    /// selection WAL first, **with the advice row captured verbatim**:
    /// Pegasos updates are order- and input-sensitive, so replay must
    /// re-feed the exact example the live update consumed — recomputing
    /// the row from recovered SUM state could diverge if the user's
    /// model moved between this outcome and the crash. The append and
    /// the weight update share one exclusive hold of the selection
    /// master, so log order is apply order; the updated weights are
    /// published for readers before the call returns.
    pub fn observe_outcome(&self, user: UserId, responded: bool) -> Result<()> {
        // the user's published advice row is copied out before the
        // selection master is taken — the row's read guard drops first,
        // so the two are never held together, and capturing first keeps
        // the master hold as short as the update itself
        let event = self.owner(user).registry().with_advice_row(user, |row| {
            let row = row.ok_or(SpaError::UnknownUser(user))?;
            Ok::<_, SpaError>(LifeLogEvent::new(
                user,
                Timestamp::from_millis(0),
                EventKind::OutcomeObserved {
                    responded,
                    dim: row.dim() as u32,
                    indices: row.indices().to_vec(),
                    values: row.values().to_vec(),
                },
            ))
        })?;
        let mut selection = self.selection_master.lock();
        if let Some(selection_log) = &self.selection_log {
            selection_log.append(&event)?;
        }
        let EventKind::OutcomeObserved { responded, dim, indices, values } = &event.kind else {
            unreachable!("constructed above");
        };
        selection.partial_fit_view(RowView::new(*dim as usize, indices, values), *responded)?;
        self.publish_selection(&selection);
        Ok(())
    }

    /// The one scoring loop, behind [`ShardedSpa::score_users`] and
    /// [`ShardedSpa::rank_top_k`]: scores `users`' published advice
    /// rows against the current selection snapshot, passes each
    /// contiguous part's scores through `finish`, and joins the parts in
    /// order. Within a part, a counting pass groups the positions by
    /// (engine, registry shard); each group's rows are read under one
    /// read guard and each score lands at its input position, so the
    /// output is in input order and bit-identical to the allocating
    /// reference (`selection().score(&model.advice_row(schema))`,
    /// enforced by `tests/scoring_fastpath.rs`). No clone of a row; per
    /// part it allocates the output, the group keys and positions and
    /// the group bounds. There is one part unless the audience is worth
    /// a thread hand-off ([`read_parts`]).
    fn score_with(
        &self,
        users: &[UserId],
        finish: impl Fn(&mut Vec<(UserId, f64)>) + Sync,
    ) -> Result<Vec<(UserId, f64)>> {
        // one snapshot for the whole sweep: every part scores against
        // the same published weights (a concurrent observe_outcome
        // publishes a new snapshot instead of mutating this one)
        let selection = self.selection();
        let empty = RowView::empty(self.schema().len());
        let engines = self.shards.len();
        let parts = read_parts(users.len());
        let part_len = users.len().div_ceil(parts).max(1);
        let score_part = |part: usize| -> Result<Vec<(UserId, f64)>> {
            let lo = (part * part_len).min(users.len());
            let part = &users[lo..(lo + part_len).min(users.len())];
            let keys: Vec<u32> = part
                .iter()
                .map(|&user| {
                    let engine = shard_index(user, engines);
                    (engine * sum::SHARDS + SumRegistry::shard_index_of(user)) as u32
                })
                .collect();
            let (order, ends) = group_positions(&keys, engines * sum::SHARDS);
            let mut scored: Vec<(UserId, f64)> = part.iter().map(|&user| (user, 0.0)).collect();
            let mut start = 0;
            for (engine, group_ends) in self.shards.iter().zip(ends.chunks_exact(sum::SHARDS)) {
                let registry = engine.registry();
                // served-row counters fold in once per part and engine,
                // so the read path shares no written cache line per user
                let mut served = 0u64;
                for (shard, &end) in group_ends.iter().enumerate() {
                    if start == end {
                        continue;
                    }
                    let rows = registry.shard_rows(shard);
                    // a run's slots are all resolved before any of its
                    // rows is read, so the probes' cache misses overlap
                    // instead of queueing behind each score
                    for run in order[start..end].chunks(LOOKAHEAD) {
                        let mut slots = [None; LOOKAHEAD];
                        for (slot, &position) in slots.iter_mut().zip(run) {
                            *slot = rows.slot(scored[position as usize].0);
                        }
                        for (&slot, &position) in slots.iter().zip(run) {
                            let row = slot.map_or(empty, |slot| rows.row_at(slot));
                            served += u64::from(slot.is_some());
                            scored[position as usize].1 = selection.score_view(row)?;
                        }
                    }
                    start = end;
                }
                if served > 0 {
                    registry.note_rows_served(served);
                }
            }
            finish(&mut scored);
            Ok(scored)
        };
        let mut scored = fan_out(parts, users.len(), score_part).into_iter();
        // the common single part is moved out, not copied
        let mut out = scored.next().expect("at least one part")?;
        for part in scored {
            out.extend(part?);
        }
        Ok(out)
    }

    /// Batch propensity scoring in **input order** against the global
    /// selection function. This is the paper-scale path — one campaign
    /// scores millions of users through exactly this call
    /// (`ShardedSpa::score_with`). Unknown users score as the empty row
    /// (the SVM bias). Bit-identical at any shard count and thread
    /// count.
    pub fn score_users(&self, users: &[UserId]) -> Result<Vec<(UserId, f64)>> {
        self.score_with(users, |_| {})
    }

    /// Ranks an audience by propensity, descending (ties break by user
    /// id for determinism): [`ShardedSpa::score_users`] sorted under
    /// the one shared comparator
    /// ([`SelectionFunction::sort_by_propensity`]).
    pub fn rank(&self, users: &[UserId]) -> Result<Vec<(UserId, f64)>> {
        let mut scored = self.score_users(users)?;
        SelectionFunction::sort_by_propensity(&mut scored);
        Ok(scored)
    }

    /// The best `k` users by propensity — exactly `rank(users)[..k]`
    /// (same comparator, same tie-breaks). Each part of the scoring
    /// loop keeps only its own top `k` (any global top-`k` user is
    /// top-`k` within its part), so a final
    /// `SelectionFunction::top_k_by_propensity` over at most
    /// `parts × k` candidates reproduces the global prefix — no full
    /// audience sort anywhere.
    pub fn rank_top_k(&self, users: &[UserId], k: usize) -> Result<Vec<(UserId, f64)>> {
        let keep_top = |scored: &mut Vec<(UserId, f64)>| {
            SelectionFunction::top_k_by_propensity(scored, k);
        };
        let mut merged = self.score_with(users, keep_top)?;
        keep_top(&mut merged);
        Ok(merged)
    }

    /// Registers a campaign's appeal attributes on **every** shard (any
    /// user, on any shard, may open its messages), so opens and
    /// attributed transactions reward them (update stage).
    pub fn register_campaign(&self, campaign: CampaignId, appeal: &[EmotionalAttribute]) {
        for shard in &self.shards {
            shard.register_campaign(campaign, appeal);
        }
    }

    /// Punishes a campaign's appeal attributes for a user who ignored
    /// its message (called at campaign close-out), as an
    /// [`EventKind::CampaignIgnored`] event through the ordinary ingest
    /// path (see [`ShardedSpa::import_objective`]). The in-memory
    /// punish itself cannot fail; the `Result` is the durable
    /// platform's WAL append.
    pub fn punish_ignored(&self, user: UserId, campaign: CampaignId) -> Result<()> {
        self.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::CampaignIgnored { campaign },
        ))
    }

    /// Assigns the individualized message for (user, course-appeal):
    /// the Messaging Agent pipeline of §5.3 (routed).
    pub fn assign_message(
        &self,
        user: UserId,
        appeal: &[EmotionalAttribute],
    ) -> Result<crate::messaging::AssignedMessage> {
        self.owner(user).assign_message(user, appeal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spa_types::{EventKind, Timestamp, Valence};

    fn courses() -> CourseCatalog {
        CourseCatalog::generate(25, 5, 3).unwrap()
    }

    fn eit_event(spa: &ShardedSpa, user: UserId, at: u64, value: f64) -> LifeLogEvent {
        let question = spa.next_eit_question(user).id;
        LifeLogEvent::new(
            user,
            Timestamp::from_millis(at),
            EventKind::EitAnswer { question, answer: Valence::new(value) },
        )
    }

    #[test]
    fn hashing_is_stable_and_total() {
        for shards in [1usize, 2, 7, 16] {
            for raw in 0..1000u32 {
                let user = UserId::new(raw);
                let a = shard_index(user, shards);
                assert_eq!(a, shard_index(user, shards), "assignment must be deterministic");
                assert!(a < shards);
            }
        }
        // FNV-1a anchor so the on-disk assignment can never silently
        // change: shard_index(u0, 16) is pinned forever.
        assert_eq!(shard_index(UserId::new(0), 16), 5);
        assert_eq!(shard_index(UserId::new(1), 16), 4);
        // the 32-bit remainder keeps every user on the shard a
        // pointer-width remainder of the same hash picks
        for raw in (0..u32::MAX).step_by(65_537).chain(0..4096) {
            let h = raw
                .to_le_bytes()
                .iter()
                .fold(0x811c_9dc5u32, |h, &b| (h ^ b as u32).wrapping_mul(0x0100_0193));
            for shards in [2usize, 3, 7, 16, 1000] {
                assert_eq!(shard_index(UserId::new(raw), shards), h as usize % shards);
            }
        }
    }

    #[test]
    fn hashing_spreads_users_across_shards() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for raw in 0..8000u32 {
            counts[shard_index(UserId::new(raw), shards)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&count),
                "shard {shard} holds {count} of 8000 users — hash is badly skewed"
            );
        }
    }

    fn selection_bytes(selection: &SelectionFunction) -> Vec<u8> {
        let mut out = Vec::new();
        selection.write_state(&mut out);
        out
    }

    #[test]
    fn selection_publish_and_read_round_trip() {
        let sharded = ShardedSpa::new(&courses(), SpaConfig, 2).unwrap();
        let user = UserId::new(1);
        sharded.ingest(&eit_event(&sharded, user, 0, 0.8)).unwrap();
        let untrained = sharded.selection();
        for round in 1..=3u64 {
            sharded.observe_outcome(user, round % 2 == 1).unwrap();
            // readers see exactly the master the writer left
            let master = selection_bytes(&sharded.selection_master.lock());
            assert_eq!(selection_bytes(&sharded.selection()), master, "round {round}");
            assert_eq!(sharded.publication_stats().selection_publishes, round);
        }
        assert!(!untrained.is_trained(), "a held snapshot is never mutated");
        assert!(sharded.selection().is_trained());
    }

    #[test]
    fn a_held_selection_snapshot_survives_two_publications() {
        let sharded = ShardedSpa::new(&courses(), SpaConfig, 1).unwrap();
        let user = UserId::new(3);
        sharded.ingest(&eit_event(&sharded, user, 0, 0.4)).unwrap();
        sharded.observe_outcome(user, true).unwrap();
        let held = sharded.selection();
        let held_bytes = selection_bytes(&held);
        sharded.observe_outcome(user, false).unwrap();
        sharded.observe_outcome(user, true).unwrap();
        // the held snapshot reads what it read, new readers the latest
        assert_eq!(selection_bytes(&held), held_bytes);
        assert!(!Arc::ptr_eq(&held, &sharded.selection()));
        assert_ne!(selection_bytes(&sharded.selection()), held_bytes);
        // and scoring still takes the published snapshot while one is held
        let row = sharded.advice_row(user).unwrap();
        let expected = sharded.selection().score(&row).unwrap();
        assert_eq!(sharded.score_users(&[user]).unwrap(), vec![(user, expected)]);
    }

    #[test]
    fn zero_shards_is_invalid() {
        assert!(ShardedSpa::new(&courses(), SpaConfig, 0).is_err());
    }

    #[test]
    fn ingest_routes_to_the_owning_shard() {
        let sharded = ShardedSpa::new(&courses(), SpaConfig, 4).unwrap();
        let user = UserId::new(17);
        let event = eit_event(&sharded, user, 0, 0.8);
        sharded.ingest(&event).unwrap();
        let owner = sharded.shard_of(user);
        assert!(sharded.shard(owner).registry().get(user).is_some());
        for index in 0..4u32 {
            let shard = ShardId::new(index);
            if shard != owner {
                assert!(sharded.shard(shard).registry().get(user).is_none());
            }
        }
        assert!(sharded.feature_row(user).nnz() > 0);
    }

    #[test]
    fn batch_ingest_counts_and_aggregates_stats() {
        let sharded = ShardedSpa::new(&courses(), SpaConfig, 3).unwrap();
        let events: Vec<LifeLogEvent> =
            (0..60u32).map(|i| eit_event(&sharded, UserId::new(i), i as u64, 0.4)).collect();
        assert_eq!(sharded.ingest_batch(events.iter()).unwrap(), 60);
        assert_eq!(sharded.stats().eit_answers, 60);
    }

    #[test]
    fn observe_outcome_requires_a_known_user() {
        let sharded = ShardedSpa::new(&courses(), SpaConfig, 2).unwrap();
        let unknown = UserId::new(404);
        assert!(matches!(
            sharded.observe_outcome(unknown, true),
            Err(SpaError::UnknownUser(user)) if user == unknown
        ));
        assert!(!sharded.selection().is_trained(), "the bad call must not touch the model");
        assert_eq!(sharded.publication_stats().selection_publishes, 0);
        let known = UserId::new(1);
        let event = eit_event(&sharded, known, 0, 0.9);
        sharded.ingest(&event).unwrap();
        sharded.observe_outcome(known, true).unwrap();
        assert!(sharded.selection().is_trained());
        assert_eq!(
            sharded.publication_stats(),
            PublicationStats { model_publishes: 1, selection_publishes: 1 }
        );
    }

    #[test]
    fn sharded_rank_top_k_equals_rank_prefix() {
        for shards in [1usize, 5] {
            let sharded = ShardedSpa::new(&courses(), SpaConfig, shards).unwrap();
            let users: Vec<UserId> = (0..90).map(UserId::new).collect();
            for (i, &user) in users.iter().enumerate() {
                let event = eit_event(&sharded, user, i as u64, (i as f64 / 90.0) * 2.0 - 1.0);
                sharded.ingest(&event).unwrap();
            }
            let mut data = spa_ml::Dataset::new(75);
            for &user in &users {
                let row = sharded.advice_row(user).unwrap();
                data.push(&row, if row.get(65) > 0.5 { 1.0 } else { -1.0 }).unwrap();
            }
            sharded.train_selection(&data).unwrap();
            let full = sharded.rank(&users).unwrap();
            for k in [0usize, 1, 17, 89, 90, 300] {
                let top = sharded.rank_top_k(&users, k).unwrap();
                assert_eq!(top.len(), k.min(users.len()));
                for ((ua, sa), (ub, sb)) in top.iter().zip(full.iter()) {
                    assert_eq!(ua, ub, "{shards} shards, k={k}: top-k order diverges");
                    assert_eq!(sa.to_bits(), sb.to_bits(), "{shards} shards, k={k}: score");
                }
            }
        }
    }

    #[test]
    fn rejected_events_do_not_poison_recovery() {
        let root = std::env::temp_dir().join(format!("spa-shard-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let user = UserId::new(9);
        {
            let sharded =
                ShardedSpa::with_log(&courses(), SpaConfig, 2, &root, LogConfig::default())
                    .unwrap();
            let good = eit_event(&sharded, user, 0, 0.6);
            sharded.ingest(&good).unwrap();
            // an answer naming a question outside the bank: the WAL
            // append succeeds, the in-memory apply is rejected
            let bad = LifeLogEvent::new(
                user,
                Timestamp::from_millis(1),
                EventKind::EitAnswer {
                    question: spa_types::QuestionId::new(999),
                    answer: Valence::new(0.5),
                },
            );
            assert!(sharded.ingest(&bad).is_err());
            // ingest keeps working after the rejection
            let good2 = eit_event(&sharded, user, 2, 0.6);
            sharded.ingest(&good2).unwrap();
            // a rejected event inside a batch is skipped, the rest of
            // the batch still lands — live behavior matches replay
            let good3 = eit_event(&sharded, user, 3, 0.6);
            let bad2 = LifeLogEvent::new(
                user,
                Timestamp::from_millis(4),
                EventKind::EitAnswer {
                    question: spa_types::QuestionId::new(998),
                    answer: Valence::new(0.5),
                },
            );
            let good4 = eit_event(&sharded, user, 5, 0.6);
            assert_eq!(sharded.ingest_batch([&good3, &bad2, &good4]).unwrap(), 2);
            assert_eq!(sharded.stats().eit_answers, 4);
            sharded.flush().unwrap();
        }
        // the durably-logged rejected events must not make recovery
        // fail forever — they are skipped, exactly as they were live
        let (recovered, report) =
            ShardedSpa::recover(&courses(), SpaConfig, &[], &root, LogConfig::default()).unwrap();
        assert_eq!(report.total_events(), 4);
        assert_eq!(report.total_skipped(), 2);
        assert_eq!(recovered.stats().eit_answers, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_requires_a_write_ahead_log() {
        let sharded = ShardedSpa::new(&courses(), SpaConfig, 2).unwrap();
        assert!(matches!(sharded.checkpoint(), Err(SpaError::Invalid(_))));
        assert!(matches!(sharded.compact(), Err(SpaError::Invalid(_))));
    }

    #[test]
    fn checkpoint_compact_recover_replays_only_the_tail() {
        let root = std::env::temp_dir().join(format!("spa-shard-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let courses = courses();
        // tiny segments so the pre-checkpoint history spans several
        // segment files and compaction genuinely deletes some
        let log_config = LogConfig { segment_bytes: 512, fsync: false };
        let campaigns = [(CampaignId::new(1), vec![EmotionalAttribute::Hopeful])];
        let users: Vec<UserId> = (0..40).map(UserId::new).collect();
        let stats_live;
        let weights_live: Vec<f64>;
        let bias_live;
        {
            let sharded =
                ShardedSpa::with_log(&courses, SpaConfig, 3, &root, log_config.clone()).unwrap();
            sharded.register_campaign(campaigns[0].0, &campaigns[0].1);
            for round in 0..4u64 {
                for &user in &users {
                    let event = eit_event(&sharded, user, round * 100 + user.raw() as u64, 0.5);
                    sharded.ingest(&event).unwrap();
                }
            }
            let mut data = spa_ml::Dataset::new(75);
            for &user in &users {
                let row = sharded.advice_row(user).unwrap();
                data.push(&row, if row.get(65) > 0.5 { 1.0 } else { -1.0 }).unwrap();
            }
            sharded.train_selection(&data).unwrap();
            assert_eq!(sharded.publication_stats().selection_publishes, 1);

            let report = sharded.checkpoint().unwrap();
            assert_eq!(report.positions.len(), 3);
            assert!(report.snapshot_bytes > 0);
            let compaction = sharded.compact().unwrap();
            assert!(
                compaction.segments_deleted > 0,
                "512-byte segments must leave something to compact"
            );
            // a second compact is a no-op (everything already reclaimed)
            assert_eq!(sharded.compact().unwrap(), CompactionReport::default());

            // post-checkpoint tail
            for &user in &users[..10] {
                let event = eit_event(&sharded, user, 10_000 + user.raw() as u64, -0.4);
                sharded.ingest(&event).unwrap();
            }
            sharded.flush().unwrap();
            stats_live = sharded.stats();
            weights_live = sharded.selection().svm().weights().to_vec();
            bias_live = sharded.selection().svm().bias();
        } // crash

        let (recovered, report) =
            ShardedSpa::recover(&courses, SpaConfig, &campaigns, &root, log_config).unwrap();
        assert_eq!(report.shards_from_snapshot(), 3, "every shard restores from its snapshot");
        assert_eq!(report.total_events(), 10, "only the 10 tail events replay");
        assert!(report.selection_restored);
        // recovery publishes the restored selection once
        assert_eq!(recovered.publication_stats().selection_publishes, 1);
        assert_eq!(recovered.stats(), stats_live);
        // the restored selection function is the live one, bit for bit
        // — no silent retrain
        assert_eq!(recovered.selection().svm().bias().to_bits(), bias_live.to_bits());
        for (a, b) in recovered.selection().svm().weights().iter().zip(weights_live.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_full_replay_unless_compacted() {
        let root = std::env::temp_dir().join(format!("spa-shard-badsnap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let courses = courses();
        let user = UserId::new(3);
        {
            let sharded = ShardedSpa::with_log(
                &courses,
                SpaConfig,
                1,
                &root,
                LogConfig { segment_bytes: 128, fsync: false },
            )
            .unwrap();
            for round in 0..6 {
                let event = eit_event(&sharded, user, round, 0.7);
                sharded.ingest(&event).unwrap();
            }
            sharded.checkpoint().unwrap();
        }
        // corrupt the (only) shard snapshot
        let shard_dir = root.join("shard-0000");
        let snap_path = spa_store::snapshot::list_snapshots(&shard_dir).unwrap().pop().unwrap().1;
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&snap_path, &bytes).unwrap();
        // the full history survives (no compaction ran): recovery falls
        // back to replaying everything
        let (recovered, report) = ShardedSpa::recover(
            &courses,
            SpaConfig,
            &[],
            &root,
            LogConfig { segment_bytes: 128, fsync: false },
        )
        .unwrap();
        assert_eq!(report.shards_from_snapshot(), 0);
        assert_eq!(report.total_events(), 6);
        assert_eq!(recovered.stats().eit_answers, 6);
        // compact() re-validates the registered snapshot before it
        // deletes anything: a corrupt snapshot means the history is the
        // only copy of those events, so the shard must be skipped —
        // and the skip must be visible in the report
        assert_eq!(
            recovered.compact().unwrap(),
            CompactionReport { shards_skipped: 1, ..CompactionReport::default() },
            "compaction behind an unloadable snapshot would be data loss"
        );
        assert_eq!(spa_store::EventLog::first_segment_index(&shard_dir).unwrap(), Some(0));
        drop(recovered);
        // if the covered segments are nevertheless gone (operator error,
        // external cleanup), recovery must fail loudly rather than serve
        // a silently partial platform
        let registered = ShardedEventLog::registered_snapshots(&root).unwrap()[0].unwrap();
        assert!(registered.segment > 0, "128-byte segments must have rolled");
        spa_store::EventLog::compact_dir_before(&shard_dir, registered).unwrap();
        assert!(matches!(
            ShardedSpa::recover(
                &courses,
                SpaConfig,
                &[],
                &root,
                LogConfig { segment_bytes: 128, fsync: false }
            ),
            Err(SpaError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn parallel_compaction_skips_only_the_rotten_shard() {
        let root = std::env::temp_dir().join(format!("spa-shard-rotone-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let log_config = LogConfig { segment_bytes: 128, fsync: false };
        let sharded = ShardedSpa::with_log(&courses(), SpaConfig, 3, &root, log_config).unwrap();
        for round in 0..6 {
            for user in (0..30).map(UserId::new) {
                let event = eit_event(&sharded, user, round * 100 + u64::from(user.raw()), 0.7);
                sharded.ingest(&event).unwrap();
            }
        }
        sharded.checkpoint().unwrap();
        let registered = ShardedEventLog::registered_snapshots(&root).unwrap();
        let shard_dir = |index: u32| ShardedEventLog::shard_path(&root, ShardId::new(index));
        let rotten = spa_store::snapshot::snapshot_path(shard_dir(1), registered[1].unwrap());
        let mut bytes = std::fs::read(&rotten).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&rotten, &bytes).unwrap();
        // three pool threads, so the shards compact side by side
        let report = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap()
            .install(|| sharded.compact())
            .unwrap();
        assert_eq!(report.shards_skipped, 1, "only the rotten shard is skipped");
        assert!(report.segments_deleted > 0);
        for index in [0, 2] {
            let covered = registered[index as usize].unwrap();
            assert!(covered.segment > 0, "128-byte segments must have rolled");
            assert_eq!(
                spa_store::EventLog::first_segment_index(shard_dir(index)).unwrap(),
                Some(covered.segment),
                "shard {index} dropped its covered segments"
            );
        }
        assert_eq!(
            spa_store::EventLog::first_segment_index(shard_dir(1)).unwrap(),
            Some(0),
            "the rotten shard keeps its whole history"
        );
        drop(sharded);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_the_previous_checkpoint() {
        let root = std::env::temp_dir().join(format!("spa-shard-prevsnap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let courses = courses();
        let log_config = LogConfig { segment_bytes: 128, fsync: false };
        let user = UserId::new(3);
        let first_positions;
        {
            let sharded =
                ShardedSpa::with_log(&courses, SpaConfig, 1, &root, log_config.clone()).unwrap();
            for round in 0..6 {
                sharded.ingest(&eit_event(&sharded, user, round, 0.7)).unwrap();
            }
            // checkpoint A, compacted — history before A is gone
            first_positions = sharded.checkpoint().unwrap().positions;
            sharded.compact().unwrap();
            for round in 6..9 {
                sharded.ingest(&eit_event(&sharded, user, round, 0.2)).unwrap();
            }
            // checkpoint B (no compact: A's snapshot file survives)
            sharded.checkpoint().unwrap();
            for round in 9..11 {
                sharded.ingest(&eit_event(&sharded, user, round, -0.3)).unwrap();
            }
            sharded.flush().unwrap();
        }
        // bit-rot checkpoint B's snapshot file (the registered one)
        let shard_dir = root.join("shard-0000");
        let registered = ShardedEventLog::registered_snapshots(&root).unwrap()[0].unwrap();
        let b_path = spa_store::snapshot::snapshot_path(&shard_dir, registered);
        let mut bytes = std::fs::read(&b_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&b_path, &bytes).unwrap();
        // recovery falls back one checkpoint interval (to A), not to a
        // loud failure and not to a full replay (history before A is
        // compacted away)
        let (recovered, report) =
            ShardedSpa::recover(&courses, SpaConfig, &[], &root, log_config).unwrap();
        assert_eq!(report.snapshots_loaded[0], Some(first_positions[0]));
        assert_eq!(report.total_events(), 5, "replays everything after checkpoint A");
        assert_eq!(recovered.stats().eit_answers, 11);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_removes_stale_snapshot_temps_loudly() {
        let root = std::env::temp_dir().join(format!("spa-shard-tmps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let user = UserId::new(5);
        {
            let sharded =
                ShardedSpa::with_log(&courses(), SpaConfig, 2, &root, LogConfig::default())
                    .unwrap();
            for round in 0..4 {
                sharded.ingest(&eit_event(&sharded, user, round, 0.7)).unwrap();
            }
            sharded.checkpoint().unwrap();
        }
        // plant the debris a crash mid-checkpoint / mid-manifest-rewrite
        // leaves behind: partial snapshot temps and a manifest temp
        let shard_dir = root.join("shard-0000");
        let snap_tmp = shard_dir.join("snapshot-junk.snap.snap-tmp");
        let manifest_tmp = root.join("shards.manifest.tmp");
        std::fs::write(&snap_tmp, b"partial snapshot bytes").unwrap();
        std::fs::write(&manifest_tmp, b"partial manifest").unwrap();
        let (recovered, report) =
            ShardedSpa::recover(&courses(), SpaConfig, &[], &root, LogConfig::default()).unwrap();
        assert_eq!(report.stale_temps_removed, 2, "both planted temps are removed and counted");
        assert!(!snap_tmp.exists());
        assert!(!manifest_tmp.exists());
        assert_eq!(recovered.stats().eit_answers, 4);
        // real snapshots survive the sweep: the shards still restore
        // from their checkpoints
        assert_eq!(report.shards_from_snapshot(), 2);
        drop(recovered);
        // a clean recovery reports zero — absence is affirmative
        let (_again, report) =
            ShardedSpa::recover(&courses(), SpaConfig, &[], &root, LogConfig::default()).unwrap();
        assert_eq!(report.stale_temps_removed, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_report_display_summarizes_the_recovery() {
        let report = RecoveryReport {
            events_replayed: vec![3, 4, 0],
            events_skipped: vec![1, 0, 0],
            torn_tails: vec![None, None, None],
            snapshots_loaded: vec![Some(LogPosition::default()), None, None],
            selection_restored: true,
            selection_events_replayed: 5,
            selection_torn_tail: None,
            snapshot_fallbacks: 1,
            stale_temps_removed: 2,
        };
        let text = report.to_string();
        assert!(text.contains("recovered 3 shards"), "{text}");
        assert!(text.contains("1 from snapshot, 2 by full replay"), "{text}");
        assert!(text.contains("7 replayed"), "{text}");
        assert!(text.contains("1 rejected-and-skipped"), "{text}");
        assert!(text.contains("0 torn tails"), "{text}");
        assert!(text.contains("1 snapshot fallback"), "{text}");
        assert!(text.contains("2 stale temp files removed"), "{text}");
        assert!(text.contains("restored bit-identical"), "{text}");
        assert!(text.contains("5 outcomes replayed"), "{text}");
        let untrained = RecoveryReport { selection_restored: false, ..report };
        assert!(untrained.to_string().contains("not restored (no valid snapshot)"));
    }

    #[test]
    fn multi_shard_failures_are_joined_not_swallowed() {
        let single = join_shard_errors(vec![SpaError::Corrupt("only one".into())]);
        assert!(matches!(&single, SpaError::Corrupt(msg) if msg == "only one"));
        let joined = join_shard_errors(vec![
            SpaError::Corrupt("shard 0 torn".into()),
            SpaError::Io(std::io::Error::other("shard 2 eio")),
        ]);
        let text = joined.to_string();
        assert!(text.contains("2 shards failed"), "{text}");
        assert!(text.contains("shard 0 torn"), "{text}");
        assert!(text.contains("shard 2 eio"), "{text}");
    }

    #[test]
    fn recovery_roundtrip_restores_state() {
        let root = std::env::temp_dir().join(format!("spa-shard-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let user = UserId::new(5);
        let stats_before;
        let row_before;
        {
            let sharded =
                ShardedSpa::with_log(&courses(), SpaConfig, 3, &root, LogConfig::default())
                    .unwrap();
            for round in 0..8 {
                let event = eit_event(&sharded, user, round, 0.7);
                sharded.ingest(&event).unwrap();
            }
            sharded.flush().unwrap();
            stats_before = sharded.stats();
            row_before = sharded.feature_row(user);
        } // "crash": everything in memory is dropped
        let (recovered, report) =
            ShardedSpa::recover(&courses(), SpaConfig, &[], &root, LogConfig::default()).unwrap();
        assert_eq!(recovered.shard_count(), 3);
        assert_eq!(report.total_events(), 8);
        assert_eq!(report.torn_shards(), 0);
        assert_eq!(recovered.stats(), stats_before);
        let row_after = recovered.feature_row(user);
        assert_eq!(row_after.indices(), row_before.indices());
        assert_eq!(row_after.values(), row_before.values());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A 3-shard platform logging under a fresh `spa-shard-<tag>` root.
    fn durable_platform(tag: &str) -> (ShardedSpa, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!("spa-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spa =
            ShardedSpa::with_log(&courses(), SpaConfig, 3, &root, LogConfig::default()).unwrap();
        (spa, root)
    }

    /// The largest scratch a 3-shard platform may keep between batches.
    const RETAIN_3_SHARDS: usize = 3 * crate::engine::SCRATCH_RETAIN_BYTES;

    #[test]
    fn a_bulk_objective_import_leaves_the_scratch_within_its_byte_bound() {
        // 3,000 full 40-value imports frame ≈ 330 B each: ≈ 330 KiB of
        // frames per engine shard, from only 1,000 events each
        let (spa, root) = durable_platform("bulk-import");
        let imports: Vec<LifeLogEvent> = (0..3_000u32)
            .map(|raw| {
                let values = (0..40).map(|i| f64::from((raw + i) % 10) / 10.0).collect();
                LifeLogEvent::new(
                    UserId::new(raw),
                    Timestamp::from_millis(0),
                    EventKind::ObjectiveImported { values },
                )
            })
            .collect();
        assert_eq!(spa.ingest_batch(&imports).unwrap(), 3_000);
        let retained = spa.routing.lock().retained_bytes();
        assert!(retained <= RETAIN_3_SHARDS, "{retained} B of scratch kept after a bulk import");
        // the next, small batch routes into fresh buffers
        let small = [eit_event(&spa, UserId::new(1), 1, 0.5)];
        assert_eq!(spa.ingest_batch(&small).unwrap(), 1);
        drop(spa);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `len` events from position `start` of a fixed stream of EIT
    /// answers, deliveries and opens over 5,000 users.
    fn tick(spa: &ShardedSpa, start: u32, len: u32) -> Vec<LifeLogEvent> {
        let campaign = CampaignId::new(1);
        (start..start + len)
            .map(|i| {
                let user = UserId::new(i.wrapping_mul(2_654_435_761) % 5_000);
                let kind = match i % 3 {
                    0 => return eit_event(spa, user, u64::from(i), 0.3),
                    1 => EventKind::MessageDelivered { campaign },
                    _ => EventKind::MessageOpened { campaign },
                };
                LifeLogEvent::new(user, Timestamp::from_millis(u64::from(i)), kind)
            })
            .collect()
    }

    #[test]
    fn a_100k_event_batch_leaves_at_most_the_retained_bound() {
        let (spa, root) = durable_platform("bulk-100k");
        let batch = tick(&spa, 0, 100_000);
        assert_eq!(spa.ingest_batch(&batch).unwrap(), 100_000);
        let retained = spa.routing.lock().retained_bytes();
        assert!(retained <= RETAIN_3_SHARDS, "{retained} B of scratch kept after 100 k events");
        drop(spa);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn steady_ticks_reuse_their_buffers() {
        let (spa, root) = durable_platform("steady");
        let ticks: Vec<Vec<LifeLogEvent>> = (0..6u32)
            .map(|t| tick(&spa, t * 4_096, 4_096))
            .chain((0..6u32).map(|t| tick(&spa, 30_000 + t * 256, 256)))
            .collect();
        let capacities = |spa: &ShardedSpa| -> Vec<Vec<usize>> {
            spa.routing.lock().by_shard.iter().map(GroupScratch::capacities).collect()
        };
        // warm-up: every tick once, so each buffer has grown to the
        // largest of them
        for events in &ticks {
            spa.ingest_batch(events).unwrap();
        }
        let warm = capacities(&spa);
        let retained = spa.routing.lock().retained_bytes();
        assert!(retained > 0 && retained <= RETAIN_3_SHARDS, "{retained} B kept");
        for round in 0..3 {
            for events in ticks.iter().rev() {
                spa.ingest_batch(events).unwrap();
                assert_eq!(capacities(&spa), warm, "round {round}: a buffer was reallocated");
            }
        }
        drop(spa);
        let _ = std::fs::remove_dir_all(&root);
    }
}
