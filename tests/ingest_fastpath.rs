//! Differential tests for the lock-light batched ingest engine.
//!
//! The write path was rebuilt around striped atomic stats counters, a
//! per-registry-shard bucketed apply (one lock acquisition per bucket,
//! not per event), zero-allocation WAL framing and a per-shard
//! log→apply pipeline. These proptests pin all of it **bit-identical**
//! to the serial per-event reference — arbitrary event streams
//! (including rejected events), arbitrary batch splits, shard counts
//! and thread counts: scores, rankings, stats, EIT schedules, the WAL
//! byte stream, and recover-after-crash must all be equal.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use spa::ml::PARALLEL_BATCH_THRESHOLD;
use spa::prelude::*;
use spa::store::fault::{StorageIo, WriteFault, INJECTED_TRANSIENT_EIO};
use spa::store::log::WRITE_RETRY_LIMIT;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Raw generator tuple: (user, kind selector, id payload, small
/// payload, valence).
type RawOp = (u32, u8, u32, u8, f64);

const N_USERS: u32 = 12;
const REGISTERED: CampaignId = CampaignId::new(1);
const UNREGISTERED: CampaignId = CampaignId::new(99);

fn courses() -> CourseCatalog {
    CourseCatalog::generate(25, 5, 3).unwrap()
}

/// Decodes one raw tuple into an event. Course ids run past the
/// catalog (unknown courses), question ids past the bank (rejected
/// answers), and campaigns cover registered/unregistered/none — the
/// full accept/reject surface of the pre-processor.
fn decode_op(at: u64, op: &RawOp) -> LifeLogEvent {
    let (user_seed, kind_sel, a, b, valence) = *op;
    let user = UserId::new(user_seed % N_USERS);
    let campaign = match b % 3 {
        0 => None,
        1 => Some(REGISTERED),
        _ => Some(UNREGISTERED),
    };
    let kind = match kind_sel % 8 {
        0 | 1 => EventKind::Action {
            action: ActionId::new(a % 984),
            course: if b % 3 == 0 { None } else { Some(CourseId::new(a % 40)) },
        },
        2 => EventKind::Rating { course: CourseId::new(a % 40), stars: b % 6 },
        3 => EventKind::Transaction { course: CourseId::new(a % 40), campaign },
        4 => EventKind::MessageDelivered { campaign: campaign.unwrap_or(REGISTERED) },
        5 => EventKind::MessageOpened { campaign: campaign.unwrap_or(REGISTERED) },
        6 => EventKind::EitAnswer {
            // the standard bank has 40 questions: ids in [40, 60) are
            // rejected identically on every path
            question: QuestionId::new(a % 60),
            answer: Valence::new(valence),
        },
        _ => EventKind::EitSkipped { question: QuestionId::new(a % 60) },
    };
    LifeLogEvent::new(user, Timestamp::from_millis(at), kind)
}

fn stream_of(ops: &[RawOp]) -> Vec<LifeLogEvent> {
    ops.iter().enumerate().map(|(i, op)| decode_op(i as u64, op)).collect()
}

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (0u32..N_USERS, 0u8..8, 0u32..10_000, 0u8..250, -1.0f64..1.0),
        30..140,
    )
}

fn fresh_sharded(courses: &CourseCatalog, shards: usize) -> ShardedSpa {
    let sharded = ShardedSpa::new(courses, SpaConfig::default(), shards).unwrap();
    sharded
        .register_campaign(REGISTERED, &[EmotionalAttribute::Hopeful, EmotionalAttribute::Lively]);
    sharded
}

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

/// Serial reference: per-event `ingest` loop on a 1-shard platform;
/// returns how many events the platform accepted.
fn reference_ingest(spa: &ShardedSpa, stream: &[LifeLogEvent]) -> usize {
    stream.iter().filter(|event| spa.ingest(event).is_ok()).count()
}

fn assert_rows_bit_identical(a: &SparseVec, b: &SparseVec, what: &str) {
    assert_eq!(a.indices(), b.indices(), "{what}: sparsity pattern diverges");
    for (x, y) in a.values().iter().zip(b.values().iter()) {
        assert!(x.to_bits() == y.to_bits(), "{what}: {x:?} vs {y:?}");
    }
}

/// Every per-user observable plus the aggregate counters must match
/// the reference platform (`get_model` closures adapt single/sharded).
fn assert_platform_equals_reference(
    reference: &ShardedSpa,
    stats: spa::core::preprocessor::PreprocessorStats,
    feature_row: impl Fn(UserId) -> SparseVec,
    advice_row: impl Fn(UserId) -> SparseVec,
    next_question: impl Fn(UserId) -> QuestionId,
    what: &str,
) {
    assert_eq!(stats, reference.stats(), "{what}: stats diverge");
    for raw in 0..N_USERS {
        let user = UserId::new(raw);
        assert_rows_bit_identical(
            &reference.feature_row(user),
            &feature_row(user),
            &format!("{what}: {user} feature row"),
        );
        assert_rows_bit_identical(
            &reference.advice_row(user).unwrap(),
            &advice_row(user),
            &format!("{what}: {user} advice row"),
        );
        assert_eq!(
            reference.next_eit_question(user).id,
            next_question(user),
            "{what}: EIT schedule diverges for {user}"
        );
    }
}

/// Training data derived from the reference rows, shared by every
/// platform under comparison so scores are comparable bit-for-bit.
fn training_data(reference: &ShardedSpa) -> Dataset {
    let mut data = Dataset::new(reference.schema().len());
    for raw in 0..N_USERS {
        let row = reference.advice_row(UserId::new(raw)).unwrap();
        data.push(&row, if row.get(65) > 0.2 { 1.0 } else { -1.0 }).unwrap();
    }
    data
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spa-ingest-fp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Identical segment layout, identical bytes, shard by shard.
fn assert_wal_bytes_equal(root_a: &Path, root_b: &Path, shards: usize) {
    let list = |dir: &Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("segment-"))
            .collect();
        names.sort();
        names
    };
    for shard in 0..shards {
        let dir_a = ShardedEventLog::shard_path(root_a, ShardId::new(shard as u32));
        let dir_b = ShardedEventLog::shard_path(root_b, ShardId::new(shard as u32));
        let segments = list(&dir_a);
        assert_eq!(segments, list(&dir_b), "shard {shard}: segment layout diverges");
        for name in segments {
            let a = std::fs::read(dir_a.join(&name)).unwrap();
            let b = std::fs::read(dir_b.join(&name)).unwrap();
            assert!(a == b, "shard {shard} {name}: WAL bytes diverge");
        }
    }
}

/// A deterministic stream of `len` events over the whole accept/reject
/// surface [`decode_op`] covers (every user, hence every shard, appears
/// within any 12 consecutive events).
fn long_stream(len: usize) -> Vec<LifeLogEvent> {
    let mut rng = spa::store::fault::SplitMix64::new(0x5EED);
    (0..len)
        .map(|i| {
            let r = rng.next_u64();
            let op = (
                i as u32,
                (r >> 8) as u8,
                (r >> 16) as u32 % 10_000,
                (r >> 48) as u8 % 250,
                (r >> 56) as f64 / 128.0 - 1.0,
            );
            decode_op(i as u64, &op)
        })
        .collect()
}

fn durable_sharded(root: &Path, shards: usize, io: Arc<dyn StorageIo>) -> ShardedSpa {
    let courses = courses();
    // small segments so a batch crosses many roll boundaries
    let log_config = LogConfig { segment_bytes: 4096, fsync: false };
    let sharded =
        ShardedSpa::with_log_io(&courses, SpaConfig::default(), shards, root, log_config, io)
            .unwrap();
    sharded
        .register_campaign(REGISTERED, &[EmotionalAttribute::Hopeful, EmotionalAttribute::Lively]);
    sharded
}

/// A fault-free [`StorageIo`] that records which threads wrote: the
/// seam is consulted on the writing thread before every physical write,
/// so it sees where a batch's log phase ran without a hook in product
/// code.
#[derive(Debug, Default)]
struct WriterThreads(Mutex<HashSet<ThreadId>>);

impl WriterThreads {
    fn take(&self) -> HashSet<ThreadId> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

impl StorageIo for WriterThreads {
    fn write_fault(&self, _len: usize) -> Option<WriteFault> {
        self.0.lock().unwrap().insert(std::thread::current().id());
        None
    }
}

/// Fails every write transiently, forever: each shard's append
/// exhausts its retry budget and surfaces the same size-independent
/// error text, so the inline and the threaded arm can be compared
/// verbatim.
#[derive(Debug, Default)]
struct EveryWriteFails(AtomicU64);

impl StorageIo for EveryWriteFails {
    fn write_fault(&self, _len: usize) -> Option<WriteFault> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Some(WriteFault::Transient)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary streams split at arbitrary points into `ingest_batch`
    /// calls, across shard counts and thread counts: the bucketed /
    /// pipelined engines equal the serial per-event reference on every
    /// observable, and the accepted-event counts agree (the shared
    /// skip-and-count semantics).
    #[test]
    fn batched_ingest_equals_serial_reference(
        ops in raw_ops(),
        cut_seed in 1usize..1000,
        shards in 1usize..9,
        threads in prop_oneof![Just(1usize), Just(2), Just(5)],
    ) {
        let courses = courses();
        let stream = stream_of(&ops);
        let cut = (cut_seed % stream.len().max(1)).max(1);

        let reference = fresh_sharded(&courses, 1);
        let accepted = reference_ingest(&reference, &stream);

        // one shard, batched in two arbitrary chunks
        let single = fresh_sharded(&courses, 1);
        let applied_single = single.ingest_batch(stream[..cut].iter()).unwrap()
            + single.ingest_batch(stream[cut..].iter()).unwrap();
        prop_assert_eq!(applied_single, accepted, "single batch count diverges");
        assert_platform_equals_reference(
            &reference,
            single.stats(),
            |u| single.feature_row(u),
            |u| single.advice_row(u).unwrap(),
            |u| single.next_eit_question(u).id,
            "single ingest_batch",
        );

        // sharded platform, batched, under an explicit thread pool
        let sharded = with_threads(threads, || {
            let sharded = fresh_sharded(&courses, shards);
            let applied = sharded.ingest_batch(stream[..cut].iter()).unwrap()
                + sharded.ingest_batch(stream[cut..].iter()).unwrap();
            assert_eq!(applied, accepted, "sharded batch count diverges");
            sharded
        });
        assert_platform_equals_reference(
            &reference,
            sharded.stats(),
            |u| sharded.feature_row(u),
            |u| sharded.advice_row(u).unwrap(),
            |u| sharded.next_eit_question(u).id,
            &format!("sharded({shards})x{threads} ingest_batch"),
        );

        // scores and rankings under one shared trained selection
        let data = training_data(&reference);
        reference.train_selection(&data).unwrap();
        single.train_selection(&data).unwrap();
        sharded.train_selection(&data).unwrap();
        let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();
        let expected_scores = reference.score_users(&users).unwrap();
        let expected_rank = reference.rank(&users).unwrap();
        for (scored, ranking, what) in [
            (single.score_users(&users).unwrap(), single.rank(&users).unwrap(), "single"),
            (sharded.score_users(&users).unwrap(), sharded.rank(&users).unwrap(), "sharded"),
        ] {
            for ((ua, sa), (ub, sb)) in scored.iter().zip(expected_scores.iter()) {
                prop_assert_eq!(ua, ub, "{} score order diverges", what);
                prop_assert_eq!(sa.to_bits(), sb.to_bits(), "{} score diverges for {}", what, ua);
            }
            for ((ua, sa), (ub, sb)) in ranking.iter().zip(expected_rank.iter()) {
                prop_assert_eq!(ua, ub, "{} ranking diverges", what);
                prop_assert_eq!(sa.to_bits(), sb.to_bits(), "{} rank score diverges", what);
            }
        }
    }

    /// The WAL byte stream is pinned: batched ingest (pipelined,
    /// grouped apply) must write byte-for-byte the same per-shard
    /// segment files as per-event ingest, and a crash + recover of the
    /// batched root must rebuild the reference platform exactly.
    #[test]
    fn wal_bytes_and_recovery_are_pinned(
        ops in raw_ops(),
        cut_seed in 1usize..1000,
        shards in 1usize..5,
    ) {
        let courses = courses();
        let stream = stream_of(&ops);
        let cut = (cut_seed % stream.len().max(1)).max(1);
        let campaigns =
            [(REGISTERED, vec![EmotionalAttribute::Hopeful, EmotionalAttribute::Lively])];
        // tiny segments so batches cross several roll boundaries
        let log_config = LogConfig { segment_bytes: 256, fsync: false };

        let reference = fresh_sharded(&courses, 1);
        let accepted = reference_ingest(&reference, &stream);

        let root_event = tmp_root("event");
        let root_batch = tmp_root("batch");
        {
            let by_event = ShardedSpa::with_log(
                &courses, SpaConfig::default(), shards, &root_event, log_config.clone(),
            ).unwrap();
            by_event.register_campaign(campaigns[0].0, &campaigns[0].1);
            for event in &stream {
                let _ = by_event.ingest(event);
            }
            by_event.flush().unwrap();

            let by_batch = ShardedSpa::with_log(
                &courses, SpaConfig::default(), shards, &root_batch, log_config.clone(),
            ).unwrap();
            by_batch.register_campaign(campaigns[0].0, &campaigns[0].1);
            let applied = by_batch.ingest_batch(stream[..cut].iter()).unwrap()
                + by_batch.ingest_batch(stream[cut..].iter()).unwrap();
            prop_assert_eq!(applied, accepted);
            by_batch.flush().unwrap();

            assert_wal_bytes_equal(&root_event, &root_batch, shards);
        } // crash: both platforms dropped

        let (recovered, report) = ShardedSpa::recover(
            &courses, SpaConfig::default(), &campaigns, &root_batch, log_config,
        ).unwrap();
        prop_assert_eq!(report.total_events(), accepted as u64);
        prop_assert_eq!(
            report.total_skipped() as usize,
            stream.len() - accepted,
            "recovery must skip exactly the events live ingest rejected"
        );
        assert_platform_equals_reference(
            &reference,
            recovered.stats(),
            |u| recovered.feature_row(u),
            |u| recovered.advice_row(u).unwrap(),
            |u| recovered.next_eit_question(u).id,
            "recovered-from-batched-WAL",
        );
        let _ = std::fs::remove_dir_all(&root_event);
        let _ = std::fs::remove_dir_all(&root_batch);
    }
}

/// Batches of 2 × `PARALLEL_BATCH_THRESHOLD` events — the size at which
/// `ShardedSpa::ingest_batch` hands its per-shard log → apply pipelines
/// to worker threads — under pools of 1 / 2 / 5 threads and several
/// shard counts: stats, rows, EIT schedule, scores, ranking **and the
/// per-shard WAL bytes** equal the serial per-event reference. (The
/// proptests above feed 30–140 events, which run inline at any pool.)
#[test]
fn over_threshold_durable_batches_equal_the_per_event_reference() {
    let batch = 2 * PARALLEL_BATCH_THRESHOLD;
    let stream = long_stream(2 * batch + 77);
    let courses = courses();
    let reference = fresh_sharded(&courses, 1);
    let accepted = reference_ingest(&reference, &stream);
    let data = training_data(&reference);
    reference.train_selection(&data).unwrap();
    let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();
    let expected_scores = reference.score_users(&users).unwrap();
    let expected_rank = reference.rank(&users).unwrap();

    for shards in [1usize, 3, 4] {
        let root_event = tmp_root(&format!("big-event-{shards}"));
        let by_event = durable_sharded(&root_event, shards, Arc::new(spa::store::RealIo));
        for event in &stream {
            let _ = by_event.ingest(event);
        }
        by_event.flush().unwrap();
        for threads in [1usize, 2, 5] {
            let what = format!("over-threshold sharded({shards})x{threads}");
            let root_batch = tmp_root(&format!("big-batch-{shards}-{threads}"));
            let writers = Arc::new(WriterThreads::default());
            let by_batch = durable_sharded(&root_batch, shards, writers.clone());
            writers.take();
            let applied: usize = with_threads(threads, || {
                stream.chunks(batch).map(|chunk| by_batch.ingest_batch(chunk).unwrap()).sum()
            });
            by_batch.flush().unwrap();
            assert_eq!(applied, accepted, "{what}: applied count diverges");
            // the full batches really took the threaded pipeline
            let off_caller = writers.take().iter().any(|&id| id != std::thread::current().id());
            assert_eq!(
                off_caller,
                threads > 1 && shards > 1,
                "{what}: log phase ran on the wrong side of the gate"
            );
            assert_wal_bytes_equal(&root_event, &root_batch, shards);
            assert_platform_equals_reference(
                &reference,
                by_batch.stats(),
                |u| by_batch.feature_row(u),
                |u| by_batch.advice_row(u).unwrap(),
                |u| by_batch.next_eit_question(u).id,
                &what,
            );
            by_batch.train_selection(&data).unwrap();
            let scored = with_threads(threads, || by_batch.score_users(&users).unwrap());
            let ranked = with_threads(threads, || by_batch.rank(&users).unwrap());
            for (got, expected) in [(&scored, &expected_scores), (&ranked, &expected_rank)] {
                assert_eq!(got.len(), expected.len());
                for ((ua, sa), (ub, sb)) in got.iter().zip(expected.iter()) {
                    assert_eq!(ua, ub, "{what}: order diverges");
                    assert!(sa.to_bits() == sb.to_bits(), "{what}: score diverges for {ua}");
                }
            }
            drop(by_batch);
            let _ = std::fs::remove_dir_all(&root_batch);
        }
        drop(by_event);
        let _ = std::fs::remove_dir_all(&root_event);
    }
}

/// Where a batch runs, observed through the storage seam: under the
/// threshold every write comes from the caller's thread whatever the
/// pool; at it, under a 2-thread pool, the shards' writes come from
/// worker threads.
#[test]
fn small_batches_stay_on_the_caller_and_large_ones_hand_off() {
    let stream = long_stream(PARALLEL_BATCH_THRESHOLD);
    let root = tmp_root("where");
    let writers = Arc::new(WriterThreads::default());
    let sharded = durable_sharded(&root, 4, writers.clone());
    writers.take();
    let caller = HashSet::from([std::thread::current().id()]);
    with_threads(2, || {
        sharded.ingest_batch(&stream[..PARALLEL_BATCH_THRESHOLD - 1]).unwrap();
        sharded.flush().unwrap();
        assert_eq!(writers.take(), caller, "a sub-threshold batch must write inline");

        sharded.ingest_batch(&stream).unwrap();
        sharded.flush().unwrap();
        let threads = writers.take();
        assert!(threads.iter().any(|id| !caller.contains(id)), "no hand-off at the threshold");
    });
    drop(sharded);
    let _ = std::fs::remove_dir_all(&root);
}

/// The error contract of `ingest_batch` holds on the inline arm: when
/// several shards' appends fail, every shard is still attempted and one
/// error carries each failing shard's text — verbatim what the
/// threaded arm produces under the same plan.
#[test]
fn inline_batches_attempt_every_shard_and_join_every_error() {
    const SHARDS: usize = 3;
    let stream = long_stream(PARALLEL_BATCH_THRESHOLD);
    let failure_of = |events: &[LifeLogEvent], threads: usize| {
        let root = tmp_root(&format!("errors-{}-{threads}", events.len()));
        let io = Arc::new(EveryWriteFails::default());
        let sharded = durable_sharded(&root, SHARDS, io.clone());
        io.0.store(0, Ordering::Relaxed);
        let error = with_threads(threads, || sharded.ingest_batch(events).unwrap_err());
        // each shard's one write was tried, then retried to the limit
        assert_eq!(
            io.0.load(Ordering::Relaxed),
            SHARDS as u64 * (u64::from(WRITE_RETRY_LIMIT) + 1),
            "every shard must be attempted"
        );
        assert_eq!(sharded.stats().actions, 0, "a shard whose append failed applies nothing");
        drop(sharded);
        let _ = std::fs::remove_dir_all(&root);
        error.to_string()
    };
    // 40 events touch all three shards; far below the threshold, so the
    // 5-thread pool is never asked
    let inline = failure_of(&stream[..40], 5);
    assert!(inline.contains(&format!("{SHARDS} shards failed: ")), "{inline}");
    assert_eq!(inline.matches(INJECTED_TRANSIENT_EIO).count(), SHARDS, "{inline}");
    assert_eq!(failure_of(&stream, 2), inline, "threaded arm's error text differs");
}

/// Regression: `ingest_batch` skips rejected events and counts the
/// rest — identically at one shard, at several, and to per-event ingest
/// and replay — instead of aborting at the first rejection.
#[test]
fn single_platform_batch_skips_and_counts_rejected_events() {
    let courses = courses();
    let spa = fresh_sharded(&courses, 1);
    let user = UserId::new(3);
    let good = |at: u64| {
        let question = spa.next_eit_question(user).id;
        LifeLogEvent::new(
            user,
            Timestamp::from_millis(at),
            EventKind::EitAnswer { question, answer: Valence::new(0.4) },
        )
    };
    let bad = LifeLogEvent::new(
        user,
        Timestamp::from_millis(1),
        EventKind::EitAnswer { question: QuestionId::new(999), answer: Valence::new(0.4) },
    );
    let a = good(0);
    let c = good(2);
    // the rejected middle event is skipped, the tail still lands
    assert_eq!(spa.ingest_batch([&a, &bad, &c]).unwrap(), 2);
    assert_eq!(spa.stats().eit_answers, 2);

    // bit-identical to the serial reference and to a multi-shard batch
    let reference = fresh_sharded(&courses, 1);
    assert!(reference.ingest(&a).is_ok());
    assert!(reference.ingest(&bad).is_err());
    assert!(reference.ingest(&c).is_ok());
    assert_rows_bit_identical(
        &reference.feature_row(user),
        &spa.feature_row(user),
        "skip-and-count feature row",
    );
    let sharded = fresh_sharded(&courses, 3);
    assert_eq!(sharded.ingest_batch([&a, &bad, &c]).unwrap(), 2);
    assert_eq!(sharded.stats(), spa.stats());
}

/// Concurrent multi-writer stats consistency: writers on disjoint user
/// sets, mixing per-event and batched ingest, race against stats
/// readers — the final counters are exact (no lost updates on the
/// striped atomic cells) and per-user state equals a serial reference.
#[test]
fn concurrent_multi_writer_stats_are_exact() {
    const WRITERS: u32 = 4;
    const ROUNDS: u32 = 120;
    let courses = courses();
    let sharded = std::sync::Arc::new(fresh_sharded(&courses, 5));

    // each writer owns users ≡ w (mod WRITERS): per-user streams are
    // single-writer, so a serial reference is well-defined
    let streams: Vec<Vec<LifeLogEvent>> = (0..WRITERS)
        .map(|w| {
            (0..ROUNDS)
                .map(|i| {
                    decode_op(
                        (w as u64) << 32 | i as u64,
                        &(w + i * WRITERS, (i % 6) as u8, i * 7 + w, (i % 11) as u8, 0.3),
                    )
                })
                .collect()
        })
        .collect();

    let mut handles = Vec::new();
    for stream in &streams {
        let sharded = sharded.clone();
        let stream = stream.clone();
        handles.push(std::thread::spawn(move || {
            // alternate per-event and batched ingest
            let (head, tail) = stream.split_at(stream.len() / 2);
            for event in head {
                let _ = sharded.ingest(event);
            }
            sharded.ingest_batch(tail.iter()).unwrap();
        }));
    }
    // a racing reader: snapshots must always be monotone sums
    let reader = {
        let sharded = sharded.clone();
        std::thread::spawn(move || {
            let mut last_total = 0u64;
            for _ in 0..200 {
                let s = sharded.stats();
                let total = s.actions
                    + s.transactions
                    + s.eit_answers
                    + s.eit_skips
                    + s.deliveries
                    + s.opens;
                assert!(total >= last_total, "stats went backwards");
                last_total = total;
            }
        })
    };
    for handle in handles {
        handle.join().unwrap();
    }
    reader.join().unwrap();

    let reference = fresh_sharded(&courses, 1);
    for stream in &streams {
        for event in stream {
            let _ = reference.ingest(event);
        }
    }
    assert_eq!(sharded.stats(), reference.stats(), "concurrent totals must be exact");
    for raw in 0..N_USERS {
        let user = UserId::new(raw);
        assert_rows_bit_identical(
            &reference.feature_row(user),
            &sharded.feature_row(user),
            &format!("concurrent {user} feature row"),
        );
    }
}
