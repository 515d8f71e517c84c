//! Differential tests: the platform fed an identical event stream is
//! *bit-identical* at every shard count and thread count — same
//! models, same selection scores, same rankings, same EIT schedules,
//! same aggregate stats.
//!
//! The reference is the plainest path through the one type: a 1-shard
//! platform ingesting **one event at a time**, with every score
//! recomputed through the allocating surface (`model.advice_row(schema)`
//! → `selection.score`). Platforms under test batch-ingest the same
//! stream at shard counts {1, 2, 3, 8}.
//!
//! The stream is generated once (EIT answers follow each user's real
//! per-contact question schedule, probed through an oracle platform)
//! and then replayed verbatim into every platform under test.

use rayon::ThreadPoolBuilder;
use spa::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];
const N_USERS: u32 = 240;

fn courses() -> CourseCatalog {
    CourseCatalog::generate(25, 5, 3).unwrap()
}

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

/// One deterministic, mixed-kind event stream: per-user EIT contact
/// loops (questions probed from an oracle platform so each answer
/// matches the schedule), web actions, transactions, ratings and
/// message opens against a registered campaign.
fn build_stream(courses: &CourseCatalog) -> Vec<LifeLogEvent> {
    let oracle = fresh(courses, 1);
    let mut events = Vec::new();
    let mut at = 0u64;
    let mut push = |user: UserId, kind: EventKind| {
        let event = LifeLogEvent::new(user, Timestamp::from_millis(at), kind);
        oracle.ingest(&event).unwrap();
        events.push(event);
        at += 1;
    };
    for round in 0..6u64 {
        for raw in 0..N_USERS {
            let user = UserId::new(raw);
            // the EIT contact: answer the actually-scheduled question
            let question = oracle.next_eit_question(user).id;
            let valence = ((raw as f64 / N_USERS as f64) * 2.0 - 1.0) * (0.5 + round as f64 * 0.1);
            push(user, EventKind::EitAnswer { question, answer: Valence::new(valence) });
            // interleave the other event kinds
            match raw % 5 {
                0 => push(
                    user,
                    EventKind::Action {
                        action: ActionId::new(raw % 984),
                        course: Some(CourseId::new(raw % 25)),
                    },
                ),
                1 => push(
                    user,
                    EventKind::Transaction {
                        course: CourseId::new(raw % 25),
                        campaign: Some(CampaignId::new(1)),
                    },
                ),
                2 => push(
                    user,
                    EventKind::Rating {
                        course: CourseId::new(raw % 25),
                        stars: (raw % 5 + 1) as u8,
                    },
                ),
                3 => push(user, EventKind::MessageOpened { campaign: CampaignId::new(1) }),
                _ => {}
            }
        }
    }
    events
}

/// An empty in-memory platform of `shards` engines with the stream's
/// campaign registered.
fn fresh(courses: &CourseCatalog, shards: usize) -> ShardedSpa {
    let spa = ShardedSpa::new(courses, SpaConfig::default(), shards).unwrap();
    spa.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
    spa
}

/// The reference platform: one shard, the stream ingested one event at
/// a time.
fn reference(courses: &CourseCatalog, stream: &[LifeLogEvent]) -> ShardedSpa {
    let spa = fresh(courses, 1);
    for event in stream {
        spa.ingest(event).unwrap();
    }
    spa
}

/// Labelled training data derived from the reference platform's advice
/// rows (shared by every platform under comparison).
fn training_data(reference: &ShardedSpa, users: &[UserId]) -> Dataset {
    let mut data = Dataset::new(reference.schema().len());
    for &user in users {
        let row = reference.advice_row(user).unwrap();
        data.push(&row, if row.get(65) > 0.3 { 1.0 } else { -1.0 }).unwrap();
    }
    data
}

/// The allocating reference every score is pinned to: each master
/// model's `advice_row(schema)` through the ordinary SVM surface, in
/// input order.
fn reference_scores(spa: &ShardedSpa, users: &[UserId]) -> Vec<(UserId, f64)> {
    let selection = spa.selection();
    users
        .iter()
        .map(|&user| {
            let row = spa.model(user).expect("streamed user").advice_row(spa.schema()).unwrap();
            (user, selection.score(&row).unwrap())
        })
        .collect()
}

fn assert_rows_bit_identical(a: &SparseVec, b: &SparseVec, what: &str) {
    assert_eq!(a.indices(), b.indices(), "{what}: sparsity pattern diverges");
    assert_eq!(a.values().len(), b.values().len());
    for (i, (x, y)) in a.values().iter().zip(b.values().iter()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: value {i} diverges: {x:?} vs {y:?}");
    }
}

fn assert_scored_bit_identical(got: &[(UserId, f64)], want: &[(UserId, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length diverges");
    for ((u_g, s_g), (u_w, s_w)) in got.iter().zip(want.iter()) {
        assert_eq!(u_g, u_w, "{what}: order diverges");
        assert!(s_g.to_bits() == s_w.to_bits(), "{what}: {u_g} scores {s_g:?} vs {s_w:?}");
    }
}

#[test]
fn sharded_platform_matches_single_platform_bit_for_bit() {
    let courses = courses();
    let stream = build_stream(&courses);
    let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();

    let single = reference(&courses, &stream);
    let data = training_data(&single, &users);
    single.train_selection(&data).unwrap();
    let single_scores = reference_scores(&single, &users);
    let mut single_ranking = single_scores.clone();
    SelectionFunction::sort_by_propensity(&mut single_ranking);

    for shards in SHARD_COUNTS {
        let sharded = fresh(&courses, shards);
        assert_eq!(sharded.ingest_batch(stream.iter()).unwrap(), stream.len());
        sharded.train_selection(&data).unwrap();

        // aggregate stats equal the reference counters
        assert_eq!(sharded.stats(), single.stats(), "{shards} shards: stats diverge");

        // per-user state: whole models (values, relevances, EIT
        // coverage, update counters), feature + advice rows, and the
        // next scheduled question
        for &user in &users {
            assert_eq!(sharded.model(user), single.model(user), "{shards} shards: {user} model");
            assert_rows_bit_identical(
                &single.feature_row(user),
                &sharded.feature_row(user),
                &format!("{shards} shards, {user} feature row"),
            );
            assert_rows_bit_identical(
                &single.advice_row(user).unwrap(),
                &sharded.advice_row(user).unwrap(),
                &format!("{shards} shards, {user} advice row"),
            );
            assert_eq!(
                single.next_eit_question(user).id,
                sharded.next_eit_question(user).id,
                "{shards} shards: EIT schedule diverges for {user}"
            );
        }

        // selection scores and ranking, bit for bit
        let scores = sharded.score_users(&users).unwrap();
        assert_scored_bit_identical(&scores, &single_scores, &format!("{shards} shards, scores"));
        assert_scored_bit_identical(
            &sharded.rank(&users).unwrap(),
            &single_ranking,
            &format!("{shards} shards, ranking"),
        );

        // top-k selection equals the full ranking's head, bit for bit,
        // at every k (including ties)
        for k in [0usize, 1, 2, 39, N_USERS as usize / 2, N_USERS as usize, 1000] {
            assert_scored_bit_identical(
                &sharded.rank_top_k(&users, k).unwrap(),
                &single_ranking[..k.min(single_ranking.len())],
                &format!("{shards} shards, top {k}"),
            );
        }

        // a second scan over the same published rows must not drift
        // from the first
        let rescored = sharded.score_users(&users).unwrap();
        assert_scored_bit_identical(&rescored, &scores, &format!("{shards} shards, rescan"));
    }
}

/// The parallel ingest fan-out and the scoring loop are pinned to
/// explicit thread counts: outputs must not depend on parallelism.
#[test]
fn sharded_results_are_identical_across_thread_counts() {
    let courses = courses();
    let stream = build_stream(&courses);
    let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();
    let data = training_data(&reference(&courses, &stream), &users);

    type ThreadRun =
        (Vec<(UserId, f64)>, Vec<(UserId, f64)>, spa::core::preprocessor::PreprocessorStats);
    let run = |threads: usize| -> ThreadRun {
        with_threads(threads, || {
            let sharded = fresh(&courses, 3);
            sharded.ingest_batch(stream.iter()).unwrap();
            sharded.train_selection(&data).unwrap();
            (
                sharded.rank(&users).unwrap(),
                sharded.rank_top_k(&users, 25).unwrap(),
                sharded.stats(),
            )
        })
    };

    let (rank_1, top_1, stats_1) = run(1);
    assert_eq!(top_1.len(), 25);
    for threads in [2usize, 5] {
        let (rank_n, top_n, stats_n) = run(threads);
        assert_eq!(stats_1, stats_n, "{threads} threads: stats diverge");
        assert_scored_bit_identical(&rank_n, &rank_1, &format!("{threads} threads, ranking"));
        assert_scored_bit_identical(&top_n, &top_1, &format!("{threads} threads, top-k"));
    }
}

/// Observed outcomes folded into the global selection function keep
/// every shard count equivalent to the reference (incremental learning
/// path).
#[test]
fn incremental_outcomes_stay_equivalent() {
    let courses = courses();
    let stream = build_stream(&courses);
    let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();

    let observe_all = |spa: &ShardedSpa| {
        for (i, &user) in users.iter().enumerate() {
            spa.observe_outcome(user, i % 3 == 0).unwrap();
        }
    };
    let single = reference(&courses, &stream);
    observe_all(&single);
    let single_scores = reference_scores(&single, &users);
    for shards in SHARD_COUNTS {
        let sharded = fresh(&courses, shards);
        sharded.ingest_batch(stream.iter()).unwrap();
        observe_all(&sharded);
        assert_scored_bit_identical(
            &sharded.score_users(&users).unwrap(),
            &single_scores,
            &format!("{shards} shards, incremental path"),
        );
    }
}
