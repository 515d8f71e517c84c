//! The platform's construction shells.
//!
//! The platform itself is [`crate::shard::ShardedSpa`] (one engine per
//! shard, see `crate::engine`). It has nothing to configure: the SUM
//! rates are constants in [`crate::sum`], the selection class weight
//! is [`crate::selection::POSITIVE_WEIGHT`] and the message policy is
//! [`crate::messaging::MessagePolicy::MaxSensibility`]. The unit tests
//! below drive the in-memory single-node case, `ShardedSpa::new(.., 1)`.

use crate::shard::ShardedSpa;
use spa_synth::catalog::CourseCatalog;

/// An empty argument the platform constructors still take, because the
/// frozen `benchmark/` crate passes `SpaConfig::default()`; it goes
/// with the `Spa` shim when a `benchmark` issue lets go (ROADMAP
/// item 5a).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpaConfig;

/// `ShardedSpa::new(courses, config, 1)` under the name the frozen
/// `benchmark/` crate constructs; goes when a `benchmark` issue lets go.
#[doc(hidden)]
pub struct Spa(ShardedSpa);

impl Spa {
    #[allow(missing_docs)]
    pub fn new(courses: &CourseCatalog, config: SpaConfig) -> Self {
        Self(ShardedSpa::new(courses, config, 1).expect("one shard is a valid count"))
    }
}

impl std::ops::Deref for Spa {
    type Target = ShardedSpa;
    fn deref(&self) -> &ShardedSpa {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messaging::AssignmentCase;
    use spa_ml::Dataset;
    use spa_store::log::LogConfig;
    use spa_types::{
        CampaignId, EmotionalAttribute, EventKind, LifeLogEvent, ShardId, Timestamp, UserId,
        Valence,
    };

    fn courses() -> CourseCatalog {
        CourseCatalog::generate(25, 5, 3).unwrap()
    }

    /// The in-memory single-node platform: one shard, no log.
    fn platform() -> ShardedSpa {
        ShardedSpa::new(&courses(), SpaConfig, 1).unwrap()
    }

    /// Answers `user`'s next scheduled EIT question with `value`.
    fn answer(spa: &ShardedSpa, user: UserId, at: u64, value: f64) {
        let question = spa.next_eit_question(user).id;
        spa.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(at),
            EventKind::EitAnswer { question, answer: Valence::new(value) },
        ))
        .unwrap();
    }

    #[test]
    fn ingest_builds_models() {
        let spa = platform();
        let user = UserId::new(1);
        answer(&spa, user, 0, 0.7);
        assert_eq!(spa.stats().eit_answers, 1);
        assert!(spa.feature_row(user).nnz() > 0);
    }

    #[test]
    fn unknown_users_have_empty_rows() {
        let spa = platform();
        assert_eq!(spa.feature_row(UserId::new(9)).nnz(), 0);
        assert_eq!(spa.advice_row(UserId::new(9)).unwrap().nnz(), 0);
        assert!(spa.model(UserId::new(9)).is_none());
    }

    #[test]
    fn with_advice_row_borrows_what_advice_row_copies() {
        let spa = platform();
        let user = UserId::new(3);
        spa.import_objective(user, &[0.4, 0.0, 0.9]).unwrap();
        answer(&spa, user, 0, 0.8);
        let copied = spa.advice_row(user).unwrap();
        assert!(copied.nnz() > 0);
        spa.with_advice_row(user, |row| assert_eq!(row, Some(copied.view())));
        assert!(spa.with_advice_row(UserId::new(9), |row| row.is_none()), "no model, no row");
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
            answer(&spa, user, round, 0.2);
        }
        let counts = *spa.model(user).unwrap().eit_answer_counts();
        assert_eq!(counts, [1u32; 10], "one answer per attribute after ten contacts");
    }

    #[test]
    fn selection_trains_and_ranks() {
        let spa = platform();
        // two users with opposite emotional profiles
        let responder = UserId::new(10);
        let ignorer = UserId::new(11);
        for (user, v) in [(responder, 0.9), (ignorer, -0.9)] {
            for round in 0..10 {
                answer(&spa, user, round, v);
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

    /// `n_users` users with differentiated models on `spa`, and a
    /// selection function trained on them.
    fn train_on(spa: &ShardedSpa, n_users: u32) -> Vec<UserId> {
        let users: Vec<UserId> = (0..n_users).map(UserId::new).collect();
        for (i, &user) in users.iter().enumerate() {
            answer(spa, user, i as u64, (i as f64 / n_users as f64) * 2.0 - 1.0);
        }
        let mut data = Dataset::new(75);
        for &user in &users {
            let row = spa.advice_row(user).unwrap();
            data.push(&row, if row.get(65) > 0.5 { 1.0 } else { -1.0 }).unwrap();
        }
        spa.train_selection(&data).unwrap();
        users
    }

    #[test]
    fn score_users_matches_single_scoring_in_input_order() {
        let spa = platform();
        let users = train_on(&spa, 30);
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
        assert!(spa.score_users(&[]).unwrap().is_empty());
    }

    /// The allocating reference every score is pinned to: the master
    /// model's `advice_row(schema)` through the ordinary SVM surface.
    fn reference_score(spa: &ShardedSpa, user: UserId) -> f64 {
        let model = spa.model(user).expect("seeded user");
        spa.selection().score(&model.advice_row(spa.schema()).unwrap()).unwrap()
    }

    #[test]
    fn quiet_sweeps_publish_nothing_and_one_ingest_republishes_exactly_that_row() {
        let spa = platform();
        let users = train_on(&spa, 40);
        let row_stats = || spa.shard(ShardId::new(0)).advice_cache_stats();
        let seeded = row_stats();
        assert_eq!(seeded.misses as usize, users.len(), "one row published per seeded user");
        let first = spa.score_users(&users).unwrap();
        let second = spa.score_users(&users).unwrap();
        let quiet = row_stats();
        assert_eq!(quiet.misses, seeded.misses, "a quiet sweep must not publish");
        assert_eq!(quiet.hits - seeded.hits, 2 * users.len() as u64, "every score was served");
        for (a, b) in first.iter().zip(second.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // mutate one user: exactly that row is republished, and every
        // score matches the reference bit for bit
        answer(&spa, users[7], 999, 0.9);
        assert_eq!(row_stats().misses - quiet.misses, 1, "only the touched user");
        for &(user, score) in &spa.score_users(&users).unwrap() {
            let via_row = spa.selection().score(&spa.advice_row(user).unwrap()).unwrap();
            assert_eq!(score.to_bits(), via_row.to_bits(), "score ≠ advice_row score for {user}");
            assert_eq!(score.to_bits(), reference_score(&spa, user).to_bits(), "{user}");
        }
        // an unknown user is scored (the bias) but served from no row
        let before = row_stats();
        spa.score_users(&[UserId::new(9999)]).unwrap();
        assert_eq!(row_stats(), before);
    }

    #[test]
    fn rank_users_orders_by_score_then_id() {
        let spa = platform();
        let users = train_on(&spa, 20);
        let ranked = spa.rank(&users).unwrap();
        assert_eq!(ranked.len(), users.len());
        for pair in ranked.windows(2) {
            assert!(
                pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "descending by score, ties ascending by id"
            );
        }
    }

    /// The single-node durability round trip: a 1-shard logged platform
    /// checkpoints, "crashes", and recovers to the same rows, schedule,
    /// counters, weights and scores, bit for bit, replaying nothing.
    #[test]
    fn checkpoint_restore_round_trips_the_whole_platform() {
        let root = std::env::temp_dir().join(format!("spa-platform-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spa =
            ShardedSpa::with_log(&courses(), SpaConfig, 1, &root, LogConfig::default()).unwrap();
        let users = train_on(&spa, 35);
        let position = spa.checkpoint().unwrap().positions[0];
        let (restored, report) =
            ShardedSpa::recover(&courses(), SpaConfig, &[], &root, LogConfig::default()).unwrap();
        assert_eq!(report.snapshots_loaded, vec![Some(position)]);
        assert_eq!(report.total_events(), 0, "the snapshot covers the whole log");
        assert!(report.selection_restored);

        assert_eq!(restored.stats(), spa.stats(), "counters resume, not restart");
        // selection weights restored bit-exactly — no silent retrain
        let (live, back) = (spa.selection(), restored.selection());
        assert_eq!(back.svm().bias().to_bits(), live.svm().bias().to_bits());
        for (a, b) in back.svm().weights().iter().zip(live.svm().weights().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for &user in &users {
            // rows, schedules and scores all match
            assert_eq!(restored.model(user), spa.model(user));
            let row_a = spa.advice_row(user).unwrap();
            let row_b = restored.advice_row(user).unwrap();
            assert_eq!(row_a.indices(), row_b.indices());
            for (x, y) in row_a.values().iter().zip(row_b.values().iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(spa.next_eit_question(user).id, restored.next_eit_question(user).id);
        }
        // restored rows were republished as they landed: scores equal
        // the live platform's and the allocating reference computed
        // from the restored masters
        let scores_live = spa.score_users(&users).unwrap();
        let scores_restored = restored.score_users(&users).unwrap();
        for (a, b) in scores_live.iter().zip(scores_restored.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
            assert_eq!(b.1.to_bits(), reference_score(&restored, b.0).to_bits());
        }
        let _ = std::fs::remove_dir_all(&root);
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
        spa.shard(spa.shard_of(user)).registry().with_model(user, |m| {
            m.apply_eit_answer(hopeful_id, EmotionalAttribute::Hopeful.ordinal(), Valence::NEUTRAL)
                .unwrap();
        });
        let value = || spa.model(user).unwrap().value(hopeful_id);
        let before = value();
        spa.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::MessageOpened { campaign },
        ))
        .unwrap();
        let after_open = value();
        assert!(after_open > before);
        spa.punish_ignored(user, campaign).unwrap();
        assert!(value() < after_open);
    }
}
