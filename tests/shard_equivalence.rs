//! Differential tests: a [`ShardedSpa`] fed an identical event stream
//! must be *bit-identical* to a single [`Spa`] — same selection scores,
//! same rankings, same EIT schedules, same aggregate stats — for every
//! shard count and thread count.
//!
//! The stream is generated once (EIT answers follow each user's real
//! per-contact question schedule, probed through an oracle platform)
//! and then replayed verbatim into every platform under test.

use rayon::ThreadPoolBuilder;
use spa::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];
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
    let oracle = Spa::new(courses, SpaConfig::default());
    oracle.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
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

/// Labelled training data derived from the reference platform's advice
/// rows (shared by every platform under comparison).
fn training_data(reference: &Spa, users: &[UserId]) -> Dataset {
    let mut data = Dataset::new(reference.schema().len());
    for &user in users {
        let row = reference.advice_row(user).unwrap();
        data.push(&row, if row.get(65) > 0.3 { 1.0 } else { -1.0 }).unwrap();
    }
    data
}

fn assert_rows_bit_identical(a: &SparseVec, b: &SparseVec, what: &str) {
    assert_eq!(a.indices(), b.indices(), "{what}: sparsity pattern diverges");
    assert_eq!(a.values().len(), b.values().len());
    for (i, (x, y)) in a.values().iter().zip(b.values().iter()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: value {i} diverges: {x:?} vs {y:?}");
    }
}

#[test]
fn sharded_platform_matches_single_platform_bit_for_bit() {
    let courses = courses();
    let stream = build_stream(&courses);
    let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();

    // reference: one monolithic platform
    let mut single = Spa::new(&courses, SpaConfig::default());
    single.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
    assert_eq!(single.ingest_batch(stream.iter()).unwrap(), stream.len());
    let data = training_data(&single, &users);
    single.train_selection(&data).unwrap();
    let single_scores = single.score_users(&users).unwrap();
    let single_ranking = single.rank_users(&users).unwrap();

    for shards in SHARD_COUNTS {
        let sharded = ShardedSpa::new(&courses, SpaConfig::default(), shards).unwrap();
        sharded.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
        assert_eq!(sharded.ingest_batch(stream.iter()).unwrap(), stream.len());
        sharded.train_selection(&data).unwrap();

        // aggregate stats equal the monolithic counters
        assert_eq!(sharded.stats(), single.stats(), "{shards} shards: stats diverge");

        // per-user state: feature + advice rows bit-identical
        for &user in &users {
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
        }

        // EIT schedules: identical per-attribute coverage and identical
        // next question for every user
        for &user in &users {
            assert_eq!(
                *single.registry().get(user).unwrap().eit_answer_counts(),
                *sharded
                    .shard(sharded.shard_of(user))
                    .registry()
                    .get(user)
                    .unwrap()
                    .eit_answer_counts(),
                "{shards} shards: EIT coverage diverges for {user}"
            );
            assert_eq!(
                single.next_eit_question(user).id,
                sharded.next_eit_question(user).id,
                "{shards} shards: EIT schedule diverges for {user}"
            );
        }

        // selection scores and ranking, bit for bit
        let scores = sharded.score_users(&users).unwrap();
        assert_eq!(scores.len(), single_scores.len());
        for ((u_s, s_s), (u_m, s_m)) in scores.iter().zip(single_scores.iter()) {
            assert_eq!(u_s, u_m, "{shards} shards: score_users order diverges");
            assert!(
                s_s.to_bits() == s_m.to_bits(),
                "{shards} shards: score diverges for {u_s}: {s_s:?} vs {s_m:?}"
            );
        }
        let ranking = sharded.rank(&users).unwrap();
        assert_eq!(ranking.len(), single_ranking.len());
        for ((u_s, s_s), (u_m, s_m)) in ranking.iter().zip(single_ranking.iter()) {
            assert_eq!(u_s, u_m, "{shards} shards: ranking diverges");
            assert!(s_s.to_bits() == s_m.to_bits());
        }

        // top-k selection: single and sharded prefixes equal the full
        // ranking's head, bit for bit, at every k (including ties)
        for k in [0usize, 1, 2, 39, N_USERS as usize / 2, N_USERS as usize, 1000] {
            let single_top = single.rank_top_k(&users, k).unwrap();
            let sharded_top = sharded.rank_top_k(&users, k).unwrap();
            let expected = &single_ranking[..k.min(single_ranking.len())];
            assert_eq!(single_top.len(), expected.len(), "k={k}");
            assert_eq!(sharded_top.len(), expected.len(), "{shards} shards, k={k}");
            for (((u_a, s_a), (u_b, s_b)), (u_c, s_c)) in
                single_top.iter().zip(sharded_top.iter()).zip(expected.iter())
            {
                assert_eq!(u_a, u_c, "k={k}: single top-k diverges from ranking prefix");
                assert_eq!(u_b, u_c, "{shards} shards, k={k}: sharded top-k diverges");
                assert!(s_a.to_bits() == s_c.to_bits());
                assert!(s_b.to_bits() == s_c.to_bits());
            }
        }

        // a second scan over the same published rows must not drift
        // from the first
        let rescored = sharded.score_users(&users).unwrap();
        for ((u_a, s_a), (u_b, s_b)) in rescored.iter().zip(scores.iter()) {
            assert_eq!(u_a, u_b);
            assert!(s_a.to_bits() == s_b.to_bits(), "{shards} shards: cached rescan diverges");
        }
    }
}

/// The parallel ingest fan-out and cross-shard scoring are pinned to
/// explicit thread counts: outputs must not depend on parallelism.
#[test]
fn sharded_results_are_identical_across_thread_counts() {
    let courses = courses();
    let stream = build_stream(&courses);
    let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();

    type ThreadRun =
        (Vec<(UserId, f64)>, Vec<(UserId, f64)>, spa::core::preprocessor::PreprocessorStats);
    let run = |threads: usize| -> ThreadRun {
        with_threads(threads, || {
            let sharded = ShardedSpa::new(&courses, SpaConfig::default(), 7).unwrap();
            sharded.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
            sharded.ingest_batch(stream.iter()).unwrap();
            let reference = {
                let single = Spa::new(&courses, SpaConfig::default());
                single.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
                single.ingest_batch(stream.iter()).unwrap();
                training_data(&single, &users)
            };
            sharded.train_selection(&reference).unwrap();
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
        assert_eq!(rank_1.len(), rank_n.len());
        for ((u_a, s_a), (u_b, s_b)) in rank_1.iter().zip(rank_n.iter()) {
            assert_eq!(u_a, u_b, "{threads} threads: ranking diverges");
            assert!(s_a.to_bits() == s_b.to_bits());
        }
        for ((u_a, s_a), (u_b, s_b)) in top_1.iter().zip(top_n.iter()) {
            assert_eq!(u_a, u_b, "{threads} threads: top-k diverges");
            assert!(s_a.to_bits() == s_b.to_bits());
        }
    }
}

/// Observed outcomes folded into the global selection function keep the
/// sharded platform equivalent to the monolithic one (incremental
/// learning path).
#[test]
fn incremental_outcomes_stay_equivalent() {
    let courses = courses();
    let stream = build_stream(&courses);
    let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();

    let mut single = Spa::new(&courses, SpaConfig::default());
    single.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
    single.ingest_batch(stream.iter()).unwrap();
    let sharded = ShardedSpa::new(&courses, SpaConfig::default(), 7).unwrap();
    sharded.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
    sharded.ingest_batch(stream.iter()).unwrap();

    for (i, &user) in users.iter().enumerate() {
        let responded = i % 3 == 0;
        single.observe_outcome(user, responded).unwrap();
        sharded.observe_outcome(user, responded).unwrap();
    }
    let single_scores = single.score_users(&users).unwrap();
    let sharded_scores = sharded.score_users(&users).unwrap();
    for ((u_s, s_s), (u_m, s_m)) in sharded_scores.iter().zip(single_scores.iter()) {
        assert_eq!(u_s, u_m);
        assert!(
            s_s.to_bits() == s_m.to_bits(),
            "incremental path diverges for {u_s}: {s_s:?} vs {s_m:?}"
        );
    }
}
