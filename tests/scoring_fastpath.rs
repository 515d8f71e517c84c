//! Differential tests for the scoring engine.
//!
//! `ShardedSpa::score_users` serves campaign sweeps from the compact
//! advice rows the registry publishes at the end of every write section,
//! reading an audience grouped by registry shard and writing each score
//! back to its input position. These proptests interleave arbitrary
//! ingest (republication), batch scoring, top-k ranking, incremental
//! selection updates, objective imports and registry restores, asserting
//! after every step that the published-row engine is **bit-identical**
//! to a reference recomputed from first principles: the master model's
//! allocating `advice_row(schema)` through `selection().score`. Imports
//! widen rows past the entries a row holds inline and restores of
//! earlier state narrow them again, each republishing the row in place.
//! Arbitrary audiences — duplicates, unknown ids, sizes from empty to
//! several parallel parts — keep input order at one and three shards.

use proptest::prelude::*;
use spa::prelude::*;

const N_USERS: u32 = 40;

/// A trained single-node platform whose every user gave one EIT answer.
fn platform() -> (ShardedSpa, Vec<UserId>) {
    platform_of(1)
}

/// [`platform`] over `shards` engines.
fn platform_of(shards: usize) -> (ShardedSpa, Vec<UserId>) {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let spa = ShardedSpa::new(&courses, SpaConfig, shards).unwrap();
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

/// Reference scores in input order, one user at a time, from the
/// published row `advice_row` copies out (the empty row for an unknown
/// id) — no grouping, no parts.
fn per_user_scores(spa: &ShardedSpa, users: &[UserId]) -> Vec<(UserId, f64)> {
    let selection = spa.selection();
    users
        .iter()
        .map(|&user| (user, selection.score(&spa.advice_row(user).unwrap()).unwrap()))
        .collect()
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

/// Every user's published row (the copy scoring reads)
/// against the master's allocating `advice_row(schema)`: the same
/// indices, the same value bits.
fn assert_published_rows_equal_reference(spa: &ShardedSpa, users: &[UserId], what: &str) {
    let bits = |row: &SparseVec| row.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for &user in users {
        let published = spa.advice_row(user).unwrap();
        let reference = spa.model(user).expect("seeded user").advice_row(spa.schema()).unwrap();
        assert_eq!(published.indices(), reference.indices(), "{what}: {user} row indices");
        assert_eq!(bits(&published), bits(&reference), "{what}: {user} row value bits");
    }
}

/// The single shard's SUM registry state (what a checkpoint stores).
fn registry_state(spa: &ShardedSpa) -> Vec<u8> {
    let mut state = Vec::new();
    spa.shard(ShardId::new(0)).registry().write_state(&mut state);
    state
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
    /// touched rows), batch scoring, `rank_top_k`, incremental
    /// selection updates, objective imports and restores of saved
    /// registry state: the published rows and the scores equal the
    /// reference at every step, and `rank_top_k(k)` equals the sorted
    /// reference truncated to `k`, for arbitrary `k`. Each op is a raw
    /// `(selector, user, valence, k)` tuple: selector 0-2 ingests (the
    /// common case), 3-4 scores the audience, 5-6 takes a top-k, 7
    /// folds an outcome into the selection function, 8 imports a
    /// `k % 41`-value objective block for every fourth user (rows grow
    /// past the inline entries, to dense at 38), 9 saves the registry's
    /// state and 10 restores the last save into the live registry
    /// (every row republished, imported ones narrowed back).
    #[test]
    fn cached_scoring_equals_cache_free_reference_under_interleaving(
        ops in proptest::collection::vec(
            (0u8..11, 0u32..N_USERS, -1.0f64..1.0, 0usize..(N_USERS as usize + 15)),
            20..60,
        ),
    ) {
        let (spa, users) = platform();
        let mut at = 10_000u64;
        let mut saved = registry_state(&spa);
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
                7 => {
                    // mutates the selection function: every published
                    // row stays valid but all scores change
                    spa.observe_outcome(users[user_seed as usize], valence > 0.0).unwrap();
                }
                8 => {
                    at += 1;
                    let values: Vec<f64> =
                        (0..k % 41).map(|i| (valence.abs() + i as f64 * 0.37) % 1.0).collect();
                    let imports: Vec<LifeLogEvent> = users
                        .iter()
                        .skip(user_seed as usize % 4)
                        .step_by(4)
                        .map(|&user| {
                            let kind = EventKind::ObjectiveImported { values: values.clone() };
                            LifeLogEvent::new(user, Timestamp::from_millis(at), kind)
                        })
                        .collect();
                    spa.ingest_batch(&imports).unwrap();
                }
                9 => saved = registry_state(&spa),
                _ => {
                    let registry = spa.shard(ShardId::new(0)).registry();
                    assert_eq!(registry.restore_state(&saved).unwrap(), u64::from(N_USERS));
                }
            }
            assert_published_rows_equal_reference(&spa, &users, &format!("step {step} rows"));
        }
        // closing sweep: a final full comparison after the whole history
        let scored = spa.score_users(&users).unwrap();
        let reference = reference_scores(&spa, &users);
        assert_scored_bits_equal(&scored, &reference, "final sweep");
    }

    /// `rank_top_k(k)` ≡ `rank()[..k]` for arbitrary k on a platform
    /// with a mid-stream mutation (one row republished), at one and
    /// three shards, over audiences of 0, 1, 16, 1024 and more than
    /// twice `PARALLEL_BATCH_THRESHOLD` ids drawn with repeats from the
    /// users and from ids no one ingested — so groups repeat a user,
    /// hold unknown ids, and span several parts where the pool has more
    /// than one thread (CI runs this at one thread and by default).
    /// `score_users` equals the per-user reference in input order.
    #[test]
    fn rank_top_k_equals_rank_prefix_for_arbitrary_k(
        k in 0usize..(N_USERS as usize + 20),
        touched in 0u32..N_USERS,
        valence in -1.0f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        let large = 2 * spa::ml::PARALLEL_BATCH_THRESHOLD + 123;
        for shards in [1usize, 3] {
            let (spa, users) = platform_of(shards);
            ingest_answer(&spa, users[touched as usize], 99_999, valence);
            for size in [0usize, 1, 16, 1024, large] {
                // ids below 2 · N_USERS: about half unknown, and repeats
                let mut state = seed ^ (size as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let audience: Vec<UserId> = (0..size)
                    .map(|_| {
                        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        UserId::new((state >> 33) as u32 % (2 * N_USERS))
                    })
                    .collect();
                let what = format!("{shards} shards, {size} users");
                let scored = spa.score_users(&audience).unwrap();
                assert_scored_bits_equal(&scored, &per_user_scores(&spa, &audience), &what);
                let full = spa.rank(&audience).unwrap();
                let top = spa.rank_top_k(&audience, k).unwrap();
                assert_scored_bits_equal(&top, &full[..k.min(full.len())], &what);
            }
        }
    }
}
