//! Differential tests: the parallel scoring paths must be
//! *bit-identical* to their serial references at every thread count.
//!
//! The machine running CI may have any core count (including 1), so
//! each test pins explicit thread counts via `rayon`'s pool installer
//! rather than trusting the ambient parallelism.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use spa::ml::cv;
use spa::ml::svm::{LinearSvm, SvmConfig};
use spa::prelude::*;

/// Builds a labelled sparse dataset from proptest-generated entries,
/// large enough to cross `decision_batch`'s parallel threshold.
fn build_dataset(dim: usize, rows: &[(u32, f64, bool)]) -> Dataset {
    let mut d = Dataset::new(dim);
    for &(idx_seed, value, positive) in rows {
        let mut pairs: Vec<(u32, f64)> = (0..4u32)
            .map(|j| {
                (
                    (idx_seed.wrapping_mul(j + 1).wrapping_add(j * 13)) % dim as u32,
                    value + j as f64 * 0.25,
                )
            })
            .collect();
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.dedup_by_key(|&mut (i, _)| i);
        pairs.retain(|&(_, v)| v != 0.0);
        let row = SparseVec::from_pairs(dim, pairs).unwrap();
        d.push(&row, if positive { 1.0 } else { -1.0 }).unwrap();
    }
    d
}

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

/// Exact (bit-level) comparison of two score vectors.
fn assert_bits_equal(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "scores diverge at row {i}: {x:?} vs {y:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// SVM, logistic regression and naive Bayes: `decision_batch` under
    /// 1, 2 and 5 worker threads is bit-identical to the serial loop.
    #[test]
    fn decision_batch_parallel_matches_serial(
        rows in proptest::collection::vec((0u32..1000, -2.0f64..2.0, proptest::bool::ANY), 2200..2600),
        seed in 0u64..1000,
    ) {
        let dim = 32;
        let data = build_dataset(dim, &rows);

        let mut svm = LinearSvm::new(dim, SvmConfig { epochs: 2, seed, ..Default::default() });
        svm.fit(&data).unwrap();
        let mut logreg = LogisticRegression::with_dim(dim);
        logreg.fit(&data).unwrap();
        let mut nb = BernoulliNb::new(dim);
        nb.fit(&data).unwrap();

        let models: [&dyn Classifier; 3] = [&svm, &logreg, &nb];
        for model in models {
            let serial = model.decision_batch_serial(&data).unwrap();
            for threads in [1usize, 2, 5] {
                let parallel = with_threads(threads, || model.decision_batch(&data).unwrap());
                assert_bits_equal(&serial, &parallel);
            }
        }
    }
}

#[test]
fn cross_validation_parallel_matches_serial() {
    let mut d = Dataset::new(8);
    for i in 0..400u32 {
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let row = SparseVec::from_pairs(8, [(i % 8, y * 1.5 + 0.1), ((i + 3) % 8, 0.4)]).unwrap();
        d.push(&row, y).unwrap();
    }
    let make = || LinearSvm::new(8, SvmConfig { epochs: 3, ..Default::default() });
    let serial = cv::cross_validate_serial(&d, 5, 77, make).unwrap();
    for threads in [1usize, 3] {
        let parallel = with_threads(threads, || cv::cross_validate(&d, 5, 77, make).unwrap());
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.fold, p.fold);
            assert!(s.auc.to_bits() == p.auc.to_bits(), "fold {} AUC diverges", s.fold);
        }
    }
}

/// A platform of `shards` engines holding `n_users` differentiated
/// users, with a selection function trained on every third of them.
fn trained_platform(shards: usize, n_users: u32) -> (ShardedSpa, Vec<UserId>) {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let spa = ShardedSpa::new(&courses, SpaConfig::default(), shards).unwrap();
    let users: Vec<UserId> = (0..n_users).map(UserId::new).collect();
    for (i, &user) in users.iter().enumerate() {
        let question = spa.next_eit_question(user).id;
        spa.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(i as u64),
            EventKind::EitAnswer {
                question,
                answer: Valence::new((i as f64 / n_users as f64) * 2.0 - 1.0),
            },
        ))
        .unwrap();
    }
    let mut data = Dataset::new(75);
    for &user in users.iter().step_by(3) {
        let row = spa.advice_row(user).unwrap();
        data.push(&row, if row.get(65) > 0.5 { 1.0 } else { -1.0 }).unwrap();
    }
    spa.train_selection(&data).unwrap();
    (spa, users)
}

/// The scoring loop (`ShardedSpa::score_users` / `rank_top_k`) under
/// parallel fan-out: at every thread count, on repeated sweeps, the
/// output is bit-identical to the serial allocating reference
/// (`selection().score(&model.advice_row(schema))`).
#[test]
fn cached_score_users_is_identical_across_thread_counts() {
    // enough users to cross PARALLEL_BATCH_THRESHOLD (2048)
    let (spa, users) = trained_platform(1, 2600);
    let reference: Vec<(UserId, f64)> = users
        .iter()
        .map(|&user| {
            let row = spa.model(user).unwrap().advice_row(spa.schema()).unwrap();
            (user, spa.selection().score(&row).unwrap())
        })
        .collect();
    let mut reference_ranked = reference.clone();
    SelectionFunction::sort_by_propensity(&mut reference_ranked);

    for threads in [1usize, 2, 5] {
        // two sweeps per thread count: a repeated read of the same
        // published rows must match the reference too
        for sweep in 0..2 {
            let scored = with_threads(threads, || spa.score_users(&users).unwrap());
            assert_eq!(scored.len(), reference.len());
            for ((u_a, s_a), (u_b, s_b)) in scored.iter().zip(reference.iter()) {
                assert_eq!(u_a, u_b, "{threads} threads sweep {sweep}: order diverges");
                assert!(
                    s_a.to_bits() == s_b.to_bits(),
                    "{threads} threads sweep {sweep}: score diverges for {u_a}"
                );
            }
        }
        let k = 400;
        let top = with_threads(threads, || spa.rank_top_k(&users, k).unwrap());
        assert_eq!(top.len(), k);
        for ((u_a, s_a), (u_b, s_b)) in top.iter().zip(reference_ranked.iter()) {
            assert_eq!(u_a, u_b, "{threads} threads: top-k diverges");
            assert!(s_a.to_bits() == s_b.to_bits());
        }
    }
}

/// `rank_top_k(users, k)` ≡ `rank(users)[..k]` at pools {1, 2, 5} ×
/// shards {1, 3}, on audiences either side of the 2048-user hand-off
/// threshold — so both with one scoring part and with per-thread parts
/// whose own top-k lists are merged. The audience ends in never-seen
/// users, which all score the bias: a run of exact ties that the merge
/// must break by id exactly as the full sort does.
#[test]
fn rank_top_k_is_the_rank_prefix_at_every_pool_and_shard_count() {
    for shards in [1usize, 3] {
        let (spa, known) = trained_platform(shards, 2600);
        for n_known in [300usize, 2600] {
            let mut audience = known[..n_known].to_vec();
            audience.extend((0..40).map(|i| UserId::new(900_000 + i)));
            let n = audience.len();
            let full = spa.rank(&audience).unwrap();
            for threads in [1usize, 2, 5] {
                for k in [0, 1, 2, 41, n / 2, n - 1, n, n + 7] {
                    let top = with_threads(threads, || spa.rank_top_k(&audience, k).unwrap());
                    let want = &full[..k.min(n)];
                    assert_eq!(top.len(), want.len());
                    for ((u_a, s_a), (u_b, s_b)) in top.iter().zip(want) {
                        let what = format!("{shards} shards, {n} users, {threads} threads, k={k}");
                        assert_eq!(u_a, u_b, "{what}: order diverges");
                        assert!(s_a.to_bits() == s_b.to_bits(), "{what}: score diverges");
                    }
                }
            }
        }
    }
}

/// The full Fig 6 experiment — history build-up, training campaigns,
/// selection training, parallel eval-campaign scoring — is byte-stable
/// across thread counts: every contact record, campaign report and
/// aggregate metric must match exactly.
#[test]
fn experiment_is_byte_stable_across_thread_counts() {
    let config = ExperimentConfig {
        n_users: 900,
        n_courses: 20,
        n_topics: 5,
        ingest_weblogs: false,
        history_eit_rounds: 6,
        n_training_campaigns: 2,
        n_eval_campaigns: 4,
        target_fraction: 0.4,
        mask_emotional: false,
        ..Default::default()
    };
    let run_with = |threads: usize| {
        with_threads(threads, || Experiment::new(config.clone()).unwrap().run().unwrap())
    };
    let single = run_with(1);
    let multi = run_with(4);
    assert_eq!(single.campaigns, multi.campaigns);
    assert_eq!(single.total_targets, multi.total_targets);
    assert_eq!(single.total_useful_impacts, multi.total_useful_impacts);
    assert!(single.auc.to_bits() == multi.auc.to_bits(), "pooled AUC must match exactly");
    assert!(
        single.captured_at_40.to_bits() == multi.captured_at_40.to_bits(),
        "gains curve must match exactly"
    );
    assert_eq!(single.gains.len(), multi.gains.len());
    for (a, b) in single.gains.iter().zip(multi.gains.iter()) {
        assert!(a.captured.to_bits() == b.captured.to_bits());
    }
}

/// Campaign execution through the parallel `run_collect` matches the
/// serial `run` path contact-for-contact (same users, scores, appeals
/// and responses), and the collected payloads arrive in contact order.
#[test]
fn run_collect_matches_serial_run() {
    let population =
        Population::generate(PopulationConfig { n_users: 500, ..Default::default() }).unwrap();
    let response = ResponseModel::new(ResponseConfig::default())
        .calibrate_mixed(&population, 0.21, 0.2)
        .unwrap();
    let courses = CourseCatalog::generate(12, 4, 3).unwrap();
    let spec = CampaignSpec {
        id: CampaignId::new(9),
        channel: Channel::Push,
        target_size: 300,
        course: courses.course(CourseId::new(2)).unwrap().clone(),
        at: Timestamp::from_millis(1000),
        seed: 0xBEEF,
    };
    let runner = CampaignRunner::new(&population, &response);

    let spa_serial = ShardedSpa::new(&courses, SpaConfig::default(), 1).unwrap();
    let serial = runner.run(&spa_serial, &spec, |_, _, _| 0.5).unwrap();

    for threads in [1usize, 4] {
        let spa_par = ShardedSpa::new(&courses, SpaConfig::default(), 1).unwrap();
        let (parallel, users) = with_threads(threads, || {
            runner.run_collect(&spa_par, &spec, |_, user, _| (0.5, user)).unwrap()
        });
        assert_eq!(serial.contacts, parallel.contacts, "contacts diverge at {threads} threads");
        assert_eq!(serial.responses, parallel.responses);
        let contact_users: Vec<UserId> = parallel.contacts.iter().map(|c| c.user).collect();
        assert_eq!(users, contact_users, "payloads must arrive in contact order");
    }
}
