//! Differential tests for the zero-allocation scoring engine.
//!
//! `ShardedSpa::score_users` serves campaign sweeps from the compact
//! advice rows the registry publishes at the end of every write section.
//! These proptests interleave arbitrary ingest (republication), batch
//! scoring, top-k ranking and incremental selection updates, asserting
//! after every step that the published-row engine is **bit-identical**
//! to a reference recomputed from first principles: the master model's
//! allocating `advice_row(schema)` through `selection().score`.

use proptest::prelude::*;
use spa::prelude::*;

const N_USERS: u32 = 40;

/// A trained single-node platform whose every user gave one EIT answer.
fn platform() -> (ShardedSpa, Vec<UserId>) {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let spa = ShardedSpa::new(&courses, SpaConfig::default(), 1).unwrap();
    let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();
    // seed every model so observe_outcome is always legal, then train
    for (i, &user) in users.iter().enumerate() {
        ingest_answer(&spa, user, i as u64, (i as f64 / N_USERS as f64) * 2.0 - 1.0);
    }
    let mut data = Dataset::new(75);
    for &user in &users {
        let row = spa.advice_row(user).unwrap();
        data.push(&row, if row.get(65) > 0.5 { 1.0 } else { -1.0 }).unwrap();
    }
    spa.train_selection(&data).unwrap();
    (spa, users)
}

fn ingest_answer(spa: &ShardedSpa, user: UserId, at: u64, valence: f64) {
    let question = spa.next_eit_question(user).id;
    spa.ingest(&LifeLogEvent::new(
        user,
        Timestamp::from_millis(at),
        EventKind::EitAnswer { question, answer: Valence::new(valence) },
    ))
    .unwrap();
}

/// Reference scores in input order, from each master model's
/// allocating advice row — nothing on this path is published state.
fn reference_scores(spa: &ShardedSpa, users: &[UserId]) -> Vec<(UserId, f64)> {
    users
        .iter()
        .map(|&user| {
            let model = spa.model(user).expect("seeded user");
            let row = model.advice_row(spa.schema()).unwrap();
            (user, spa.selection().score(&row).unwrap())
        })
        .collect()
}

fn assert_scored_bits_equal(a: &[(UserId, f64)], b: &[(UserId, f64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length diverges");
    for ((ua, sa), (ub, sb)) in a.iter().zip(b.iter()) {
        assert_eq!(ua, ub, "{what}: user order diverges");
        assert!(sa.to_bits() == sb.to_bits(), "{what}: {ua} scores {sa:?} vs {sb:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary interleavings of ingest (which must republish the
    /// touched rows), batch scoring, `rank_top_k` and incremental
    /// selection updates: the published-row engine equals the reference
    /// at every step, and `rank_top_k(k)` equals the sorted reference
    /// truncated to `k`, for arbitrary `k`. Each op is a raw
    /// `(selector, user, valence, k)` tuple: selector 0-2 ingests (the
    /// common case), 3-4 scores the audience, 5-6 takes a top-k, 7
    /// folds an outcome into the selection function.
    #[test]
    fn cached_scoring_equals_cache_free_reference_under_interleaving(
        ops in proptest::collection::vec(
            (0u8..8, 0u32..N_USERS, -1.0f64..1.0, 0usize..(N_USERS as usize + 15)),
            20..45,
        ),
    ) {
        let (spa, users) = platform();
        let mut at = 10_000u64;
        for (step, (selector, user_seed, valence, k)) in ops.into_iter().enumerate() {
            match selector {
                0..=2 => {
                    at += 1;
                    ingest_answer(&spa, users[user_seed as usize], at, valence);
                }
                3 | 4 => {
                    let scored = spa.score_users(&users).unwrap();
                    let reference = reference_scores(&spa, &users);
                    assert_scored_bits_equal(&scored, &reference, &format!("step {step} scores"));
                }
                5 | 6 => {
                    let top = spa.rank_top_k(&users, k).unwrap();
                    let mut reference = reference_scores(&spa, &users);
                    SelectionFunction::sort_by_propensity(&mut reference);
                    reference.truncate(k);
                    assert_scored_bits_equal(&top, &reference, &format!("step {step} top-{k}"));
                }
                _ => {
                    // mutates the selection function: every published
                    // row stays valid but all scores change
                    spa.observe_outcome(users[user_seed as usize], valence > 0.0).unwrap();
                }
            }
        }
        // closing sweep: a final full comparison after the whole history
        let scored = spa.score_users(&users).unwrap();
        let reference = reference_scores(&spa, &users);
        assert_scored_bits_equal(&scored, &reference, "final sweep");
    }

    /// `rank_top_k(k)` ≡ `rank()[..k]` for arbitrary k on a
    /// platform with a mid-stream mutation (one row republished).
    #[test]
    fn rank_top_k_equals_rank_prefix_for_arbitrary_k(
        k in 0usize..(N_USERS as usize + 20),
        touched in 0u32..N_USERS,
        valence in -1.0f64..1.0,
    ) {
        let (spa, users) = platform();
        ingest_answer(&spa, users[touched as usize], 99_999, valence);
        let full = spa.rank(&users).unwrap();
        let top = spa.rank_top_k(&users, k).unwrap();
        assert_scored_bits_equal(&top, &full[..k.min(full.len())], "top-k vs rank prefix");
    }
}
