//! Transport-neutral serving facade over [`ShardedSpa`].
//!
//! Every operation a serving deployment needs — scoring, ranking,
//! ingest, outcome observation, stats, checkpoint/compaction and the
//! recovery report — behind `&self` calls on one shareable object, so
//! any transport (an in-process harness, the vendored TCP server in
//! `spa-server`, a test driving both at once) dispatches the *same*
//! request values through the *same* code path. The contract the
//! serving stack is built on: a request dispatched in-process and the
//! identical request arriving over a wire produce **bit-identical**
//! responses, because both end here.
//!
//! Requests and responses are plain data ([`ApiRequest`],
//! [`ApiResponse`]) rather than method calls, so a wire codec encodes
//! them without consulting the platform, and errors travel as a
//! response variant instead of poisoning the transport.

use crate::preprocessor::PreprocessorStats;
use crate::shard::{RecoveryReport, ShardedSpa};
use spa_types::{LifeLogEvent, UserId};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Marker substring carried by every deadline rejection, so clients and
/// harnesses can attribute the error without guessing.
pub const ERR_DEADLINE_EXCEEDED: &str = "deadline exceeded";
/// Marker substring carried by every load-shed rejection.
pub const ERR_SERVER_BUSY: &str = "server busy";
/// Marker substring carried by rejections from a draining server.
pub const ERR_DRAINING: &str = "server draining";

/// Microseconds since the Unix epoch, for stamping request envelopes.
pub fn now_unix_micros() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// One serving request. Transport-neutral: the TCP server decodes wire
/// frames into this, tests construct it directly, and both hand it to
/// [`SpaApi::dispatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// Selection-function scores for an audience (propensity ranking
    /// input, §6). Order of `users` is preserved in the response.
    Score {
        /// The audience to score.
        users: Vec<UserId>,
    },
    /// The `k` highest-scoring users of an audience, best first.
    RankTopK {
        /// The audience to rank.
        users: Vec<UserId>,
        /// How many top scorers to return.
        k: u32,
    },
    /// One LifeLog event through the WAL-before-apply ingest path.
    Ingest {
        /// The event to apply.
        event: LifeLogEvent,
    },
    /// A batch of LifeLog events through the pipelined batch path.
    IngestBatch {
        /// The events to apply, in arrival order.
        events: Vec<LifeLogEvent>,
    },
    /// A campaign outcome folded into the selection function (and its
    /// write-ahead log).
    ObserveOutcome {
        /// Who the campaign contacted.
        user: UserId,
        /// Whether they responded.
        responded: bool,
    },
    /// The pre-processor's explain counters.
    Stats,
    /// Write a recovery checkpoint (per-shard snapshots + selection).
    Checkpoint,
    /// Delete log segments and snapshots a checkpoint made redundant.
    Compact,
    /// How this platform came up: cold, or recovered from disk (and
    /// what recovery found).
    RecoverStatus,
}

/// One serving response. `Error` carries the platform error's display
/// text so a failed request is an answer, not a dropped connection.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiResponse {
    /// Scores (or a ranking) as `(user, score)` pairs.
    Scores {
        /// `(user, score)` pairs, in request (or rank) order.
        entries: Vec<(UserId, f64)>,
    },
    /// How many events the ingest applied.
    Ingested {
        /// Events applied (rejected events are not counted).
        applied: u64,
    },
    /// The outcome was logged and folded in.
    OutcomeRecorded,
    /// Pre-processor explain counters.
    Stats {
        /// The counters.
        stats: PreprocessorStats,
        /// Publication counters of the read path.
        publications: crate::shard::PublicationStats,
    },
    /// Checkpoint written.
    Checkpointed {
        /// Shards snapshotted.
        shards: u32,
        /// Total snapshot bytes written.
        snapshot_bytes: u64,
    },
    /// Compaction results.
    Compacted {
        /// Log segment files deleted.
        segments_deleted: u64,
        /// Bytes those segments held.
        bytes_reclaimed: u64,
        /// Superseded snapshot files removed.
        snapshots_pruned: u64,
        /// Shards left uncompacted (snapshot failed re-validation).
        shards_skipped: u64,
    },
    /// Startup provenance (see [`RecoverStatus`]).
    RecoverStatus {
        /// The digest.
        status: RecoverStatus,
    },
    /// The request failed; the platform state the error left behind is
    /// exactly what the same call would leave in-process.
    Error {
        /// The platform error's display text.
        message: String,
    },
}

impl ApiRequest {
    /// Whether this request mutates platform state through a
    /// write-ahead log. Only these are eligible for idempotent-retry
    /// dedup: re-executing a read is harmless, but re-executing a
    /// mutation after its response was lost would double-apply it.
    pub(crate) fn is_mutation(&self) -> bool {
        matches!(
            self,
            ApiRequest::Ingest { .. }
                | ApiRequest::IngestBatch { .. }
                | ApiRequest::ObserveOutcome { .. }
        )
    }
}

/// Robustness metadata a client attaches to a request: an idempotency
/// key and an optional deadline. Travels ahead of the request payload
/// on the wire; zero-valued fields mean "none".
///
/// The deadline is *relative* (microseconds after `sent_unix_micros`,
/// stamped from the client's clock), so a server on the same host —
/// or one with a synchronized clock — can refuse to execute a request
/// that has already expired instead of burning work the client gave up
/// waiting for. Cross-host comparisons inherit the clocks' skew; the
/// contract is load protection, not distributed time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestEnvelope {
    /// Client-assigned idempotency key. `0` opts out of dedup. A retry
    /// of the same logical request MUST reuse the id; distinct logical
    /// requests MUST NOT share one within the dedup window.
    pub id: u64,
    /// When the client stamped the request (µs since Unix epoch;
    /// `0` = unknown, which disables the deadline).
    pub sent_unix_micros: u64,
    /// Relative deadline in µs after `sent_unix_micros`
    /// (`0` = no deadline).
    pub deadline_micros: u32,
}

impl RequestEnvelope {
    /// An envelope with a fresh `sent` stamp, the given id, and an
    /// optional relative deadline.
    pub fn stamped(id: u64, deadline_micros: u32) -> Self {
        Self { id, sent_unix_micros: now_unix_micros(), deadline_micros }
    }

    /// Whether the deadline had already passed at `now_micros`.
    pub(crate) fn expired_at(&self, now_micros: u64) -> bool {
        self.sent_unix_micros != 0
            && self.deadline_micros != 0
            && now_micros > self.sent_unix_micros.saturating_add(u64::from(self.deadline_micros))
    }
}

/// What one enveloped dispatch did, alongside its response.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatched {
    /// The response (replayed byte-identically from the dedup window
    /// when `replayed` is set).
    pub response: ApiResponse,
    /// The request id was already completed inside the dedup window:
    /// nothing re-executed, the cached response was returned.
    pub replayed: bool,
    /// The request arrived past its deadline and was refused without
    /// executing.
    pub deadline_rejected: bool,
}

enum DedupSlot {
    /// A first attempt is executing right now; duplicates wait.
    Pending,
    /// The request completed; duplicates replay this response.
    Done(ApiResponse),
}

enum DedupClaim {
    /// Caller owns execution (and must `complete` or `abandon`).
    Execute,
    /// The id already completed: replay the cached response.
    Replay(ApiResponse),
}

/// A bounded exactly-once window over request ids.
///
/// * First arrival of an id claims a `Pending` slot and executes.
/// * A duplicate arriving **while the first is still executing** (the
///   torn-connection race: the client timed out and retried before the
///   server finished) blocks until the first completes, then replays
///   its response — the mutation runs once, both attempts answer
///   identically.
/// * A duplicate arriving after completion replays the cached response
///   byte-identically.
/// * Only *successful* responses are cached: an errored mutation left
///   live state untouched (WAL-before-apply), so retrying it fresh is
///   exactly once by construction.
///
/// Eviction is strictly FIFO by **completion order**, bounded at
/// `capacity` completed entries; memory cost is `capacity` × (one
/// cached response + two `u64`s) — at the facade's capacity of 4096 and
/// the small fixed-size responses mutations produce (`Ingested`,
/// `OutcomeRecorded`), well under a megabyte. The window is
/// process-local: it dies with the server incarnation, so exactly-once
/// across a process kill additionally needs the client (or harness) to
/// reconcile against the WAL — see `tests/server_chaos.rs`.
pub struct DedupWindow {
    inner: Mutex<DedupInner>,
    completed: Condvar,
    capacity: usize,
}

struct DedupInner {
    slots: HashMap<u64, DedupSlot>,
    /// Completed ids, oldest first — the FIFO eviction order.
    order: VecDeque<u64>,
}

impl DedupWindow {
    /// An empty window evicting beyond `capacity` completed entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(DedupInner {
                slots: HashMap::new(),
                order: VecDeque::with_capacity(capacity.min(4096)),
            }),
            completed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Completed entries currently held (pending ones not counted).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("dedup lock").order.len()
    }

    /// Whether no completed entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn claim(&self, id: u64) -> DedupClaim {
        let mut inner = self.inner.lock().expect("dedup lock");
        loop {
            match inner.slots.get(&id) {
                None => {
                    inner.slots.insert(id, DedupSlot::Pending);
                    return DedupClaim::Execute;
                }
                Some(DedupSlot::Done(response)) => return DedupClaim::Replay(response.clone()),
                Some(DedupSlot::Pending) => {
                    inner = self.completed.wait(inner).expect("dedup lock");
                }
            }
        }
    }

    fn complete(&self, id: u64, response: ApiResponse) {
        let mut inner = self.inner.lock().expect("dedup lock");
        inner.slots.insert(id, DedupSlot::Done(response));
        inner.order.push_back(id);
        while inner.order.len() > self.capacity {
            let evicted = inner.order.pop_front().expect("non-empty order");
            inner.slots.remove(&evicted);
        }
        self.completed.notify_all();
    }

    fn abandon(&self, id: u64) {
        let mut inner = self.inner.lock().expect("dedup lock");
        if matches!(inner.slots.get(&id), Some(DedupSlot::Pending)) {
            inner.slots.remove(&id);
        }
        self.completed.notify_all();
    }
}

/// Wire-friendly digest of a [`RecoveryReport`]. `recovered == false`
/// means the platform booted cold (no recovery ran) and every other
/// field is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoverStatus {
    /// Whether this platform was recovered from disk.
    pub recovered: bool,
    /// Events replayed and applied across all shards.
    pub events_replayed: u64,
    /// Logged events the platform rejected on replay.
    pub events_skipped: u64,
    /// Shards whose final segment ended mid-frame (healed).
    pub torn_shards: u32,
    /// Whether the selection function came back from its checkpoint.
    pub selection_restored: bool,
    /// Outcomes replayed into the selection function from its WAL tail.
    pub selection_events_replayed: u64,
    /// Shard snapshots that failed validation and fell back.
    pub snapshot_fallbacks: u64,
    /// Crashed-checkpoint temp files swept during recovery.
    pub stale_temps_removed: u64,
}

impl From<&RecoveryReport> for RecoverStatus {
    fn from(report: &RecoveryReport) -> Self {
        Self {
            recovered: true,
            events_replayed: report.total_events(),
            events_skipped: report.total_skipped(),
            torn_shards: report.torn_shards() as u32,
            selection_restored: report.selection_restored,
            selection_events_replayed: report.selection_events_replayed,
            snapshot_fallbacks: report.snapshot_fallbacks,
            stale_temps_removed: report.stale_temps_removed,
        }
    }
}

/// The serving facade: an [`Arc<ShardedSpa>`] plus the recovery status
/// it booted with. Clone-cheap, `Send + Sync`, `&self` throughout — a
/// server hands one instance to every connection thread.
#[derive(Clone)]
pub struct SpaApi {
    platform: Arc<ShardedSpa>,
    recover_status: RecoverStatus,
    dedup: Arc<DedupWindow>,
}

/// Bound on the dedup window: completed mutation responses retained
/// for replay (see [`DedupWindow`] for the memory cost).
const DEDUP_CAPACITY: usize = 4096;

impl SpaApi {
    /// Wraps a cold-started platform (no recovery provenance).
    pub fn new(platform: Arc<ShardedSpa>) -> Self {
        Self {
            platform,
            recover_status: RecoverStatus::default(),
            dedup: Arc::new(DedupWindow::new(DEDUP_CAPACITY)),
        }
    }

    /// Wraps a recovered platform together with what recovery found,
    /// so `RecoverStatus` requests can answer truthfully. The dedup
    /// window starts empty: idempotency keys do not survive the
    /// process, so at-most-once holds *within* an incarnation and a
    /// client retrying across a kill must reconcile against the WAL.
    pub fn recovered(platform: Arc<ShardedSpa>, report: RecoveryReport) -> Self {
        Self {
            platform,
            recover_status: RecoverStatus::from(&report),
            dedup: Arc::new(DedupWindow::new(DEDUP_CAPACITY)),
        }
    }

    /// The dedup window (shared with every clone of this facade).
    pub fn dedup(&self) -> &DedupWindow {
        &self.dedup
    }

    /// The underlying platform (for operations outside the serving
    /// surface, e.g. campaign registration at deploy time).
    pub fn platform(&self) -> &Arc<ShardedSpa> {
        &self.platform
    }

    /// Executes one request. Never panics on request content; platform
    /// errors come back as [`ApiResponse::Error`]. This is the single
    /// funnel every transport must route through — bit-identity between
    /// transports is a property of this function being the only
    /// implementation.
    pub fn dispatch(&self, request: &ApiRequest) -> ApiResponse {
        let outcome = match request {
            ApiRequest::Score { users } => {
                self.platform.score_users(users).map(|entries| ApiResponse::Scores { entries })
            }
            ApiRequest::RankTopK { users, k } => self
                .platform
                .rank_top_k(users, *k as usize)
                .map(|entries| ApiResponse::Scores { entries }),
            ApiRequest::Ingest { event } => {
                self.platform.ingest(event).map(|()| ApiResponse::Ingested { applied: 1 })
            }
            ApiRequest::IngestBatch { events } => self
                .platform
                .ingest_batch(events.iter())
                .map(|applied| ApiResponse::Ingested { applied: applied as u64 }),
            ApiRequest::ObserveOutcome { user, responded } => self
                .platform
                .observe_outcome(*user, *responded)
                .map(|()| ApiResponse::OutcomeRecorded),
            ApiRequest::Stats => Ok(ApiResponse::Stats {
                stats: self.platform.stats(),
                publications: self.platform.publication_stats(),
            }),
            ApiRequest::Checkpoint => {
                self.platform.checkpoint().map(|report| ApiResponse::Checkpointed {
                    shards: report.positions.len() as u32,
                    snapshot_bytes: report.snapshot_bytes,
                })
            }
            ApiRequest::Compact => self.platform.compact().map(|report| ApiResponse::Compacted {
                segments_deleted: report.segments_deleted as u64,
                bytes_reclaimed: report.bytes_reclaimed,
                snapshots_pruned: report.snapshots_pruned as u64,
                shards_skipped: report.shards_skipped as u64,
            }),
            ApiRequest::RecoverStatus => {
                Ok(ApiResponse::RecoverStatus { status: self.recover_status })
            }
        };
        outcome.unwrap_or_else(|error| ApiResponse::Error { message: error.to_string() })
    }

    /// Executes one request under its robustness envelope — the funnel
    /// enveloped transports route through.
    ///
    /// Order of checks is part of the exactly-once contract:
    ///
    /// 1. **Dedup first.** A mutation that already executed replays its
    ///    cached response even if the retry arrived past the deadline —
    ///    the truthful answer to "did my write land?" is never withheld
    ///    for being late.
    /// 2. **Deadline second.** An expired request that has *not*
    ///    executed is refused loudly ([`ERR_DEADLINE_EXCEEDED`])
    ///    without touching the platform; the rejection is not cached,
    ///    so a later retry of the same id executes normally.
    /// 3. Execute, then cache successful mutation responses under the
    ///    id. Errors are never cached: WAL-before-apply means an
    ///    errored mutation left no state behind, so a retry must
    ///    re-execute.
    pub fn dispatch_enveloped(
        &self,
        envelope: &RequestEnvelope,
        request: &ApiRequest,
    ) -> Dispatched {
        let dedup_eligible = envelope.id != 0 && request.is_mutation();
        if dedup_eligible {
            if let DedupClaim::Replay(response) = self.dedup.claim(envelope.id) {
                return Dispatched { response, replayed: true, deadline_rejected: false };
            }
        }
        if envelope.expired_at(now_unix_micros()) {
            if dedup_eligible {
                self.dedup.abandon(envelope.id);
            }
            let message = format!(
                "{ERR_DEADLINE_EXCEEDED}: request stamped {}us ago exceeds its {}us deadline",
                now_unix_micros().saturating_sub(envelope.sent_unix_micros),
                envelope.deadline_micros
            );
            return Dispatched {
                response: ApiResponse::Error { message },
                replayed: false,
                deadline_rejected: true,
            };
        }
        let response = self.dispatch(request);
        if dedup_eligible {
            if matches!(response, ApiResponse::Error { .. }) {
                self.dedup.abandon(envelope.id);
            } else {
                self.dedup.complete(envelope.id, response.clone());
            }
        }
        Dispatched { response, replayed: false, deadline_rejected: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SpaConfig;
    use spa_synth::catalog::CourseCatalog;
    use spa_types::{EventKind, Timestamp, Valence};

    fn api() -> SpaApi {
        let courses = CourseCatalog::generate(10, 4, 3).unwrap();
        let platform = ShardedSpa::new(&courses, SpaConfig, 2).unwrap();
        SpaApi::new(Arc::new(platform))
    }

    fn answer(api: &SpaApi, user: UserId, value: f64) {
        let question = api.platform().next_eit_question(user).id;
        let event = LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::EitAnswer { question, answer: Valence::new(value) },
        );
        assert_eq!(
            api.dispatch(&ApiRequest::Ingest { event }),
            ApiResponse::Ingested { applied: 1 }
        );
    }

    #[test]
    fn dispatch_matches_direct_calls_bit_for_bit() {
        let api = api();
        let users: Vec<UserId> = (0..6).map(UserId::new).collect();
        for (i, &user) in users.iter().enumerate() {
            answer(&api, user, (i as f64 / 3.0) - 1.0);
        }
        let mut data = spa_ml::Dataset::new(75);
        for &user in &users {
            let row = api.platform().advice_row(user).unwrap();
            data.push(&row, if row.get(65) > 0.3 { 1.0 } else { -1.0 }).unwrap();
        }
        api.platform().train_selection(&data).unwrap();
        let direct = api.platform().score_users(&users).unwrap();
        match api.dispatch(&ApiRequest::Score { users: users.clone() }) {
            ApiResponse::Scores { entries } => {
                assert_eq!(entries.len(), direct.len());
                for ((ua, sa), (ub, sb)) in entries.iter().zip(direct.iter()) {
                    assert_eq!(ua, ub);
                    assert_eq!(sa.to_bits(), sb.to_bits());
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn errors_come_back_as_responses() {
        let api = api();
        let response =
            api.dispatch(&ApiRequest::ObserveOutcome { user: UserId::new(999), responded: true });
        match response {
            ApiResponse::Error { message } => {
                assert!(message.contains("999"), "error names the user: {message}")
            }
            other => panic!("expected an error response, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_objective_values_are_refused_and_change_nothing() {
        let api = api();
        let platform = api.platform();
        let (imported, fresh) = (UserId::new(4), UserId::new(5));
        platform.import_objective(imported, &[0.25, 0.5]).unwrap();
        let (model, stats) = (platform.model(imported), platform.stats());
        for bad in [f64::NAN, f64::INFINITY] {
            for user in [imported, fresh] {
                assert!(matches!(
                    platform.import_objective(user, &[bad]),
                    Err(spa_types::SpaError::Invalid(_))
                ));
                let event = LifeLogEvent::new(
                    user,
                    Timestamp::from_millis(0),
                    EventKind::ObjectiveImported { values: vec![0.75, bad] },
                );
                match api.dispatch(&ApiRequest::Ingest { event }) {
                    ApiResponse::Error { message } => {
                        assert!(message.contains("not finite"), "{message}")
                    }
                    other => panic!("expected an error response, got {other:?}"),
                }
            }
            assert_eq!(platform.model(imported), model, "the master is untouched");
            assert_eq!(platform.model(fresh), None, "no model materializes");
            assert_eq!(platform.stats(), stats);
        }
    }

    #[test]
    fn cold_start_reports_no_recovery() {
        let api = api();
        assert_eq!(
            api.dispatch(&ApiRequest::RecoverStatus),
            ApiResponse::RecoverStatus { status: RecoverStatus::default() }
        );
    }

    fn ingest_request(user: u32, at: u64) -> ApiRequest {
        ApiRequest::Ingest {
            event: LifeLogEvent::new(
                UserId::new(user),
                Timestamp::from_millis(at),
                EventKind::Transaction { course: spa_types::CourseId::new(1), campaign: None },
            ),
        }
    }

    #[test]
    fn retried_mutation_applies_once_and_replays_byte_identically() {
        let api = api();
        let envelope = RequestEnvelope::stamped(7, 0);
        let request = ingest_request(1, 0);
        let first = api.dispatch_enveloped(&envelope, &request);
        assert!(!first.replayed);
        assert_eq!(first.response, ApiResponse::Ingested { applied: 1 });
        let before = api.platform().stats();
        let retry = api.dispatch_enveloped(&envelope, &request);
        assert!(retry.replayed, "second attempt must replay, not re-execute");
        assert_eq!(retry.response, first.response);
        assert_eq!(api.platform().stats(), before, "replay must not touch the platform");
    }

    #[test]
    fn errored_mutations_are_not_cached_so_retry_re_executes() {
        let api = api();
        // an outcome for an unknown user errors without mutating
        let envelope = RequestEnvelope::stamped(9, 0);
        let bad = ApiRequest::ObserveOutcome { user: UserId::new(999), responded: true };
        let first = api.dispatch_enveloped(&envelope, &bad);
        assert!(matches!(first.response, ApiResponse::Error { .. }));
        assert_eq!(api.dedup().len(), 0, "errors must not occupy the window");
        // the same id retried with a request that can succeed executes
        let retry = api.dispatch_enveloped(&envelope, &ingest_request(1, 0));
        assert!(!retry.replayed);
        assert_eq!(retry.response, ApiResponse::Ingested { applied: 1 });
    }

    #[test]
    fn reads_are_never_deduplicated() {
        let api = api();
        let envelope = RequestEnvelope::stamped(11, 0);
        let first = api.dispatch_enveloped(&envelope, &ApiRequest::Stats);
        let second = api.dispatch_enveloped(&envelope, &ApiRequest::Stats);
        assert!(!first.replayed && !second.replayed);
        assert_eq!(api.dedup().len(), 0);
    }

    #[test]
    fn expired_requests_are_refused_loudly_without_executing() {
        let api = api();
        let envelope = RequestEnvelope {
            id: 13,
            sent_unix_micros: now_unix_micros().saturating_sub(5_000_000),
            deadline_micros: 1_000,
        };
        let before = api.platform().stats();
        let out = api.dispatch_enveloped(&envelope, &ingest_request(1, 0));
        assert!(out.deadline_rejected);
        match &out.response {
            ApiResponse::Error { message } => assert!(
                message.contains(ERR_DEADLINE_EXCEEDED),
                "rejection carries the marker: {message}"
            ),
            other => panic!("expected a deadline error, got {other:?}"),
        }
        assert_eq!(api.platform().stats(), before, "expired request must not execute");
        // the rejection was not cached: a fresh (timely) retry executes
        let retry = api.dispatch_enveloped(&RequestEnvelope::stamped(13, 0), &ingest_request(1, 0));
        assert!(!retry.replayed);
        assert_eq!(retry.response, ApiResponse::Ingested { applied: 1 });
    }

    #[test]
    fn executed_mutation_replays_even_when_the_retry_is_late() {
        let api = api();
        let fresh = RequestEnvelope::stamped(17, 0);
        let first = api.dispatch_enveloped(&fresh, &ingest_request(1, 0));
        assert_eq!(first.response, ApiResponse::Ingested { applied: 1 });
        // the retry arrives past its deadline — dedup still answers
        let late = RequestEnvelope {
            id: 17,
            sent_unix_micros: now_unix_micros().saturating_sub(5_000_000),
            deadline_micros: 1,
        };
        let retry = api.dispatch_enveloped(&late, &ingest_request(1, 0));
        assert!(retry.replayed, "an executed write's truthful answer is never withheld");
        assert_eq!(retry.response, first.response);
    }

    /// Eviction is strictly FIFO by completion order: filling the
    /// window past capacity evicts the oldest completed id first, and
    /// an evicted id re-executes.
    #[test]
    fn dedup_eviction_order_is_fifo_by_completion() {
        let api = SpaApi { dedup: Arc::new(DedupWindow::new(3)), ..api() };
        for id in 1..=3u64 {
            let out =
                api.dispatch_enveloped(&RequestEnvelope::stamped(id, 0), &ingest_request(1, id));
            assert!(!out.replayed);
        }
        assert_eq!(api.dedup().len(), 3);
        // all three replay while resident
        for id in 1..=3u64 {
            assert!(
                api.dispatch_enveloped(&RequestEnvelope::stamped(id, 0), &ingest_request(1, id))
                    .replayed
            );
        }
        // a fourth completion evicts exactly id 1 (the oldest) …
        assert!(
            !api.dispatch_enveloped(&RequestEnvelope::stamped(4, 0), &ingest_request(1, 4))
                .replayed
        );
        assert_eq!(api.dedup().len(), 3);
        assert!(
            !api.dispatch_enveloped(&RequestEnvelope::stamped(1, 0), &ingest_request(1, 1))
                .replayed,
            "id 1 must have been evicted first"
        );
        // … and that re-execution of id 1 completed again, evicting 2;
        // 3 and 4 are still resident
        assert!(
            !api.dispatch_enveloped(&RequestEnvelope::stamped(2, 0), &ingest_request(1, 2))
                .replayed
        );
        assert!(
            api.dispatch_enveloped(&RequestEnvelope::stamped(4, 0), &ingest_request(1, 4)).replayed
        );
    }

    /// The torn-connection race: a duplicate arriving while the first
    /// attempt is still executing must wait for it and replay its
    /// response — never execute a second time.
    #[test]
    fn concurrent_duplicate_waits_for_the_first_attempt() {
        let window = Arc::new(DedupWindow::new(8));
        let claimed = match window.claim(21) {
            DedupClaim::Execute => true,
            DedupClaim::Replay(_) => false,
        };
        assert!(claimed);
        let waiter = {
            let window = window.clone();
            std::thread::spawn(move || match window.claim(21) {
                DedupClaim::Replay(response) => response,
                DedupClaim::Execute => panic!("duplicate must not claim execution"),
            })
        };
        // give the waiter time to block on the pending slot
        std::thread::sleep(std::time::Duration::from_millis(30));
        window.complete(21, ApiResponse::Ingested { applied: 1 });
        assert_eq!(waiter.join().unwrap(), ApiResponse::Ingested { applied: 1 });
    }
}
