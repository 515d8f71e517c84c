//! WAL-completeness regression for the admin mutation surface.
//!
//! `import_objective`, `punish_ignored` and `observe_outcome` all
//! mutate platform state, so a crash directly after any of them must
//! recover bit-identically. Before these paths were event-logged, all
//! three silently vanished on crash: the first two mutated SUM state
//! under the pause latch without a WAL append, and `observe_outcome`
//! updated selection weights nothing persisted between checkpoints.
//! Every test here fails on that tree.

use spa::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spa-mutation-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn courses() -> CourseCatalog {
    CourseCatalog::generate(25, 5, 3).unwrap()
}

fn assert_rows_equal(a: &SparseVec, b: &SparseVec, what: &str) {
    assert_eq!(a.indices(), b.indices(), "{what}: sparsity pattern diverges");
    for (i, (x, y)) in a.values().iter().zip(b.values().iter()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: value {i} diverges: {x:?} vs {y:?}");
    }
}

/// Bit-level capture of a selection function: trained flag, bias bits
/// and weight bits.
fn selection_state(s: &SelectionFunction) -> (bool, u64, Vec<u64>) {
    (
        s.is_trained(),
        s.svm().bias().to_bits(),
        s.svm().weights().iter().map(|w| w.to_bits()).collect(),
    )
}

fn assert_selection_equal(live: &(bool, u64, Vec<u64>), recovered: &SelectionFunction, what: &str) {
    let rec = selection_state(recovered);
    assert_eq!(live.0, rec.0, "{what}: trained flag diverges");
    assert_eq!(live.1, rec.1, "{what}: selection bias diverges");
    assert_eq!(live.2, rec.2, "{what}: selection weights diverge");
}

/// Seeds per-user models through ordinary EIT traffic so every admin
/// mutation below has a model to land on.
fn seed_users(platform: &ShardedSpa, users: &[UserId]) {
    for (i, &user) in users.iter().enumerate() {
        let question = platform.next_eit_question(user).id;
        platform
            .ingest(&LifeLogEvent::new(
                user,
                Timestamp::from_millis(i as u64),
                EventKind::EitAnswer {
                    question,
                    answer: Valence::new(((i % 7) as f64 / 3.5) - 1.0),
                },
            ))
            .unwrap();
    }
}

/// The headline regression: run all three formerly-unlogged mutations,
/// crash, recover — per-user rows, aggregate counters and the selection
/// function must all come back bit-identical to the live platform.
#[test]
fn admin_mutations_survive_a_crash_bit_identically() {
    let courses = courses();
    let root = tmp_root("admin");
    let campaign = CampaignId::new(1);
    let campaigns = [(campaign, vec![EmotionalAttribute::Hopeful, EmotionalAttribute::Motivated])];
    let users: Vec<UserId> = (0..24).map(UserId::new).collect();
    let stats_live;
    let rows_live: Vec<SparseVec>;
    let advice_live: Vec<SparseVec>;
    let selection_live;
    {
        let live =
            ShardedSpa::with_log(&courses, SpaConfig, 3, &root, LogConfig::default()).unwrap();
        live.register_campaign(campaigns[0].0, &campaigns[0].1);
        seed_users(&live, &users);
        for (i, &user) in users.iter().enumerate() {
            let objective: Vec<f64> =
                (0..=(i % 5)).map(|j| (j as f64 + 1.0) * 0.125 * (i as f64 + 1.0)).collect();
            live.import_objective(user, &objective).unwrap();
            live.punish_ignored(user, campaign).unwrap();
            live.observe_outcome(user, i % 3 != 0).unwrap();
        }
        live.flush().unwrap();
        stats_live = live.stats();
        rows_live = users.iter().map(|&u| live.feature_row(u)).collect();
        advice_live = users.iter().map(|&u| live.advice_row(u).unwrap()).collect();
        selection_live = selection_state(&live.selection());
    } // crash: all in-memory state is gone

    assert_eq!(stats_live.objective_imports, 24, "imports counted live");
    assert_eq!(stats_live.punishments, 24, "punishments counted live");
    let (recovered, report) =
        ShardedSpa::recover(&courses, SpaConfig, &campaigns, &root, LogConfig::default()).unwrap();
    assert_eq!(recovered.stats(), stats_live, "counters diverge after recovery");
    assert_eq!(
        report.selection_events_replayed, 24,
        "every logged outcome must replay into the selection function"
    );
    for (i, &user) in users.iter().enumerate() {
        assert_rows_equal(&rows_live[i], &recovered.feature_row(user), "feature row");
        assert_rows_equal(&advice_live[i], &recovered.advice_row(user).unwrap(), "advice row");
    }
    assert_selection_equal(&selection_live, &recovered.selection(), "after crash");
    // the recovered platform keeps learning: another outcome lands and
    // survives a second crash
    recovered.observe_outcome(users[0], false).unwrap();
    let follow_up = selection_state(&recovered.selection());
    recovered.flush().unwrap();
    drop(recovered);
    let (again, report2) =
        ShardedSpa::recover(&courses, SpaConfig, &campaigns, &root, LogConfig::default()).unwrap();
    assert_eq!(report2.selection_events_replayed, 25);
    assert_selection_equal(&follow_up, &again.selection(), "after second crash");
    let _ = std::fs::remove_dir_all(&root);
}

/// A checkpoint anchors the selection weights at the WAL position they
/// reflect: outcomes observed *after* it replay from the tail alone,
/// and compaction behind the snapshot never strands the tail.
#[test]
fn outcomes_after_a_checkpoint_replay_from_the_tail() {
    let courses = courses();
    let root = tmp_root("tail");
    let users: Vec<UserId> = (0..12).map(UserId::new).collect();
    let selection_live;
    {
        let live =
            ShardedSpa::with_log(&courses, SpaConfig, 2, &root, LogConfig::default()).unwrap();
        seed_users(&live, &users);
        for &user in &users {
            live.observe_outcome(user, true).unwrap();
        }
        live.checkpoint().unwrap();
        live.compact().unwrap();
        // post-checkpoint tail: only these should replay
        for &user in &users[..5] {
            live.observe_outcome(user, false).unwrap();
        }
        live.flush().unwrap();
        selection_live = selection_state(&live.selection());
    }
    let (recovered, report) =
        ShardedSpa::recover(&courses, SpaConfig, &[], &root, LogConfig::default()).unwrap();
    assert!(report.selection_restored, "checkpointed weights restore");
    assert_eq!(report.selection_events_replayed, 5, "only the post-checkpoint outcomes replay");
    assert_selection_equal(&selection_live, &recovered.selection(), "checkpoint + tail");
    let _ = std::fs::remove_dir_all(&root);
}

/// Batch training is not event-logged (the dataset is operator
/// configuration), so `train_selection` persists the fitted weights
/// immediately: fit → crash → recover must serve the fitted function,
/// including outcomes folded in after the fit.
#[test]
fn trained_selection_survives_a_crash_without_a_checkpoint() {
    let courses = courses();
    let root = tmp_root("train");
    let users: Vec<UserId> = (0..16).map(UserId::new).collect();
    let selection_live;
    {
        let live =
            ShardedSpa::with_log(&courses, SpaConfig, 2, &root, LogConfig::default()).unwrap();
        seed_users(&live, &users);
        let mut data = Dataset::new(75);
        for &user in &users {
            let row = live.advice_row(user).unwrap();
            let label = if row.get(65) > 0.5 { 1.0 } else { -1.0 };
            data.push(&row, label).unwrap();
        }
        live.train_selection(&data).unwrap();
        // post-fit outcomes land in the WAL tail behind the fit's
        // immediate weight snapshot
        for &user in &users[..3] {
            live.observe_outcome(user, true).unwrap();
        }
        live.flush().unwrap();
        selection_live = selection_state(&live.selection());
    } // crash — no checkpoint() ever ran
    let (recovered, report) =
        ShardedSpa::recover(&courses, SpaConfig, &[], &root, LogConfig::default()).unwrap();
    assert!(report.selection_restored, "train_selection must persist the fit");
    assert_eq!(report.selection_events_replayed, 3);
    assert_selection_equal(&selection_live, &recovered.selection(), "fit + tail");
    let _ = std::fs::remove_dir_all(&root);
}

/// The admin surface is shard-count-invariant: the same mutations at 1,
/// 3 and 8 shards produce bit-identical per-user state and counters.
#[test]
fn sharded_admin_mutations_match_the_single_platform() {
    let courses = courses();
    let campaign = CampaignId::new(2);
    let appeal = vec![EmotionalAttribute::Stimulated, EmotionalAttribute::Hopeful];
    let users: Vec<UserId> = (0..20).map(UserId::new).collect();
    let mutated = |shards: usize| {
        let platform = ShardedSpa::new(&courses, SpaConfig, shards).unwrap();
        platform.register_campaign(campaign, &appeal);
        seed_users(&platform, &users);
        for (i, &user) in users.iter().enumerate() {
            let objective: Vec<f64> = (0..=(i % 4)).map(|j| 0.2 * (j as f64 + 1.0)).collect();
            platform.import_objective(user, &objective).unwrap();
            platform.punish_ignored(user, campaign).unwrap();
        }
        // over-wide imports are rejected before anything is logged
        assert!(platform.import_objective(users[0], &[0.0; 41]).is_err());
        platform
    };
    let single = mutated(1);
    for shards in [3usize, 8] {
        let sharded = mutated(shards);
        assert_eq!(sharded.stats(), single.stats(), "{shards} shards: counters diverge");
        for &user in &users {
            assert_eq!(sharded.model(user), single.model(user), "{shards} shards, {user}");
            assert_rows_equal(
                &single.feature_row(user),
                &sharded.feature_row(user),
                &format!("{shards} shards, {user}"),
            );
        }
    }
}
