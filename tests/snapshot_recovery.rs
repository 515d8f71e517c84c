//! Differential recovery tests for the snapshot + log-compaction
//! subsystem: an arbitrary event stream, a checkpoint at an arbitrary
//! position inside it, compaction of the covered segments, a crash that
//! truncates the post-checkpoint tail at an arbitrary byte offset —
//! and [`ShardedSpa::recover`] (snapshot-load + tail-replay) must be
//! **bit-identical** to a reference platform built by replaying the
//! same surviving events from scratch: feature/advice rows, propensity
//! scores, rankings, EIT schedules, aggregate stats and the selection
//! weights all compared to the bit.
//!
//! When the crash tears nothing (the cut lands at the end of the log),
//! the recovered platform is additionally compared against the **live**
//! pre-crash platform itself.

use proptest::prelude::*;
use spa::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

const SHARD_COUNTS: [usize; 3] = [1, 3, 7];
const N_USERS: u32 = 40;

fn tmp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spa-snaprec-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn make_event(kind: u8, user: u32, at: u64, id: u32, value: f64) -> LifeLogEvent {
    let kind = match kind % 8 {
        0 => EventKind::Action { action: ActionId::new(id % 984), course: None },
        1 => EventKind::Action {
            action: ActionId::new(id % 984),
            course: Some(CourseId::new(id % 25)),
        },
        2 => EventKind::Transaction { course: CourseId::new(id % 25), campaign: None },
        3 => EventKind::Transaction {
            course: CourseId::new(id % 25),
            campaign: Some(CampaignId::new(1)),
        },
        4 => EventKind::Rating { course: CourseId::new(id % 25), stars: (id % 5 + 1) as u8 },
        5 => {
            // `id % 50` ranges past the 40-question bank, so some
            // generated answers are platform-rejected — recovery must
            // skip them identically, before and after the checkpoint
            EventKind::EitAnswer { question: QuestionId::new(id % 50), answer: Valence::new(value) }
        }
        6 => EventKind::EitSkipped { question: QuestionId::new(id % 40) },
        _ => EventKind::MessageOpened { campaign: CampaignId::new(1) },
    };
    LifeLogEvent::new(UserId::new(user % N_USERS), Timestamp::from_millis(at), kind)
}

fn assert_rows_equal(a: &SparseVec, b: &SparseVec, what: &str) {
    assert_eq!(a.indices(), b.indices(), "{what}: sparsity pattern diverges");
    for (i, (x, y)) in a.values().iter().zip(b.values().iter()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: value {i} diverges: {x:?} vs {y:?}");
    }
}

fn assert_weights_equal(a: &SelectionFunction, b: &SelectionFunction, what: &str) {
    assert_eq!(a.is_trained(), b.is_trained(), "{what}: trained flag diverges");
    assert_eq!(a.svm().bias().to_bits(), b.svm().bias().to_bits(), "{what}: bias diverges");
    for (i, (x, y)) in a.svm().weights().iter().zip(b.svm().weights().iter()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: weight {i} diverges");
    }
}

/// Deterministic labelled dataset from a platform's advice rows — two
/// platforms in identical state train identical selection functions.
fn training_data(platform: &ShardedSpa, users: &[UserId]) -> Dataset {
    let mut data = Dataset::new(75);
    for &user in users {
        let row = platform.advice_row(user).unwrap();
        data.push(&row, if row.get(65) > 0.4 { 1.0 } else { -1.0 }).unwrap();
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// ingest(head) → train → checkpoint → compact → ingest(tail) →
    /// crash (cut the victim shard's tail at an arbitrary offset at or
    /// after the checkpoint) → recover ⇒ bit-identical to a reference
    /// rebuilt from scratch on the surviving events, and to the live
    /// platform when nothing was torn.
    #[test]
    fn snapshot_plus_tail_replay_is_bit_identical_to_full_replay(
        raw in proptest::collection::vec(
            (0u8..8, 0u32..N_USERS, 0u64..1_000_000, 0u32..10_000, -1.0f64..1.0),
            40..140,
        ),
        shard_seed in 0usize..3,
        checkpoint_pct in 0u64..=100,
        victim_seed in 0u64..1_000_000,
        cut_seed in 0u64..1_000_000,
    ) {
        let shards = SHARD_COUNTS[shard_seed];
        let events: Vec<LifeLogEvent> =
            raw.iter().map(|&(k, u, at, id, v)| make_event(k, u, at, id, v)).collect();
        let split = (events.len() as u64 * checkpoint_pct / 100) as usize;
        let courses = CourseCatalog::generate(25, 5, 3).unwrap();
        let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();
        let campaigns = [(CampaignId::new(1), vec![EmotionalAttribute::Hopeful])];
        // tiny segments force multi-segment histories, so compaction
        // really deletes files and tail replay crosses segment joins
        let log_config = LogConfig { segment_bytes: 512, fsync: false };
        let root = tmp_root();

        // ---- live platform: head, train, checkpoint, compact, tail --
        let live_stats;
        let live_rows: Vec<SparseVec>;
        let live_scores;
        let live_ranking;
        let live_schedule: Vec<QuestionId>;
        let checkpoint_positions;
        let live_selection_weights: Vec<f64>;
        let live_selection_bias;
        {
            let live = ShardedSpa::with_log(
                &courses,
                SpaConfig,
                shards,
                &root,
                log_config.clone(),
            ).unwrap();
            live.register_campaign(campaigns[0].0, &campaigns[0].1);
            live.ingest_batch(events[..split].iter()).unwrap();
            let data = training_data(&live, &users);
            live.train_selection(&data).unwrap();
            let ckpt = live.checkpoint().unwrap();
            checkpoint_positions = ckpt.positions.clone();
            let compaction = live.compact().unwrap();
            // compaction only reclaims when the head history rolled
            // segments, but it must never break what follows
            let _ = compaction;
            live.ingest_batch(events[split..].iter()).unwrap();
            live.flush().unwrap();
            live_stats = live.stats();
            live_rows = users.iter().map(|&u| live.feature_row(u)).collect();
            live_scores = live.score_users(&users).unwrap();
            live_ranking = live.rank(&users).unwrap();
            live_schedule = users.iter().map(|&u| live.next_eit_question(u).id).collect();
            live_selection_weights = live.selection().svm().weights().to_vec();
            live_selection_bias = live.selection().svm().bias();
        } // crash: all in-memory state is gone

        // ---- cut the victim shard's tail at/after its checkpoint ----
        let victim = (victim_seed % shards as u64) as usize;
        let victim_dir = root.join(format!("shard-{victim:04}"));
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&victim_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        segments.sort();
        let tail_seg = segments.last().unwrap().clone();
        let len = std::fs::metadata(&tail_seg).unwrap().len();
        // never cut into the snapshot-covered prefix: a checkpoint is
        // durable (fsynced) before it is registered, so a real crash
        // can only tear bytes appended after it
        let ckpt = checkpoint_positions[victim];
        let tail_index: u64 = tail_seg
            .file_stem().unwrap().to_str().unwrap()
            .strip_prefix("segment-").unwrap()
            .parse().unwrap();
        let floor = if tail_index == ckpt.segment { ckpt.offset } else { 0 };
        let cut = floor + cut_seed % (len - floor + 1);
        std::fs::OpenOptions::new().write(true).open(&tail_seg).unwrap().set_len(cut).unwrap();
        let nothing_torn = cut == len;

        // ---- surviving tail events, per shard (replay from ckpt) ----
        let mut survivors: Vec<Vec<LifeLogEvent>> = Vec::with_capacity(shards);
        for (s, &position) in checkpoint_positions.iter().enumerate() {
            let dir = root.join(format!("shard-{s:04}"));
            let events: Vec<LifeLogEvent> = EventLog::replay_iter_from(&dir, position)
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            survivors.push(events);
        }

        // ---- reference: from-scratch replay of head + survivors -----
        let reference = ShardedSpa::new(&courses, SpaConfig, shards).unwrap();
        reference.register_campaign(campaigns[0].0, &campaigns[0].1);
        reference.ingest_batch(events[..split].iter()).unwrap();
        let reference_data = training_data(&reference, &users);
        reference.train_selection(&reference_data).unwrap();
        for shard_events in &survivors {
            reference.ingest_batch(shard_events.iter()).unwrap();
        }

        // ---- recover from snapshot + tail --------------------------
        let (recovered, report) = ShardedSpa::recover(
            &courses,
            SpaConfig,
            &campaigns,
            &root,
            log_config,
        ).unwrap();
        prop_assert_eq!(report.shards_from_snapshot(), shards, "every shard has a checkpoint");
        prop_assert!(report.selection_restored);
        let tail_total: usize = survivors.iter().map(|v| v.len()).sum();
        prop_assert_eq!(
            (report.total_events() + report.total_skipped()) as usize,
            tail_total,
            "recovery must replay exactly the tail behind the checkpoint"
        );

        // ---- differential: recovered ≡ reference, bit for bit -------
        prop_assert_eq!(recovered.stats(), reference.stats());
        assert_weights_equal(&recovered.selection(), &reference.selection(), "vs reference");
        let ref_scores = reference.score_users(&users).unwrap();
        let rec_scores = recovered.score_users(&users).unwrap();
        let ref_ranking = reference.rank(&users).unwrap();
        let rec_ranking = recovered.rank(&users).unwrap();
        for (i, &user) in users.iter().enumerate() {
            let what = format!("{shards} shards, split {split}, victim {victim}, cut {cut}, {user}");
            assert_rows_equal(&reference.feature_row(user), &recovered.feature_row(user), &what);
            assert_rows_equal(
                &reference.advice_row(user).unwrap(),
                &recovered.advice_row(user).unwrap(),
                &format!("advice: {what}"),
            );
            prop_assert_eq!(
                reference.next_eit_question(user).id,
                recovered.next_eit_question(user).id,
                "EIT schedule diverges: {}", what
            );
            prop_assert_eq!(ref_scores[i].0, rec_scores[i].0);
            prop_assert_eq!(
                ref_scores[i].1.to_bits(), rec_scores[i].1.to_bits(),
                "score diverges: {}", what
            );
            prop_assert_eq!(ref_ranking[i].0, rec_ranking[i].0, "ranking diverges: {}", what);
            prop_assert_eq!(ref_ranking[i].1.to_bits(), rec_ranking[i].1.to_bits());
        }

        // ---- and ≡ the live platform when nothing was torn ----------
        if nothing_torn {
            prop_assert_eq!(report.torn_shards(), 0);
            prop_assert_eq!(recovered.stats(), live_stats);
            prop_assert_eq!(
                recovered.selection().svm().bias().to_bits(),
                live_selection_bias.to_bits()
            );
            for (a, b) in
                recovered.selection().svm().weights().iter().zip(live_selection_weights.iter())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "live selection weights diverge");
            }
            for (i, &user) in users.iter().enumerate() {
                assert_rows_equal(&live_rows[i], &recovered.feature_row(user), "vs live");
                prop_assert_eq!(live_schedule[i], recovered.next_eit_question(user).id);
                prop_assert_eq!(live_scores[i].1.to_bits(), rec_scores[i].1.to_bits());
                prop_assert_eq!(live_ranking[i].0, rec_ranking[i].0);
                prop_assert_eq!(live_ranking[i].1.to_bits(), rec_ranking[i].1.to_bits());
            }
        }

        // ---- the recovered platform keeps serving and checkpoints ---
        let extra = make_event(0, 7, 9_999_999, 3, 0.5);
        recovered.ingest(&extra).unwrap();
        let ckpt2 = recovered.checkpoint().unwrap();
        recovered.compact().unwrap();
        let (again, report2) = ShardedSpa::recover(
            &courses,
            SpaConfig,
            &campaigns,
            &root,
            LogConfig { segment_bytes: 512, fsync: false },
        ).unwrap();
        prop_assert_eq!(report2.total_events(), 0, "everything is behind the new checkpoint");
        prop_assert_eq!(report2.shards_from_snapshot(), shards);
        prop_assert_eq!(again.stats(), recovered.stats());
        prop_assert_eq!(&ckpt2.positions, &report2.snapshots_loaded.iter().map(|p| p.unwrap()).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A checkpoint taken while other shards keep ingesting stays
/// consistent: the write-pause latch pins each shard's (position,
/// state) pair, so recovery from the concurrent checkpoint equals a
/// serial replay of exactly the events the WAL holds.
#[test]
fn concurrent_ingest_and_checkpoint_stay_consistent() {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let root = tmp_root();
    let log_config = LogConfig { segment_bytes: 2048, fsync: false };
    let platform = std::sync::Arc::new(
        ShardedSpa::with_log(&courses, SpaConfig, 4, &root, log_config.clone()).unwrap(),
    );
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..3u32 {
        let platform = platform.clone();
        let stop = stop.clone();
        writers.push(std::thread::spawn(move || {
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let user = UserId::new((t * 1000 + i) % 200);
                let event = LifeLogEvent::new(
                    user,
                    Timestamp::from_millis((t as u64) << 32 | i as u64),
                    EventKind::Action {
                        action: ActionId::new(i % 984),
                        course: Some(CourseId::new(i % 25)),
                    },
                );
                platform.ingest(&event).unwrap();
                i += 1;
            }
            i
        }));
    }
    // several checkpoints while ingest hammers all shards
    let mut reports = Vec::new();
    for _ in 0..5 {
        reports.push(platform.checkpoint().unwrap());
        platform.compact().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total_written: u32 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    platform.flush().unwrap();
    let live_stats = platform.stats();
    assert_eq!(live_stats.actions, total_written as u64);
    drop(platform);

    let (recovered, report) =
        ShardedSpa::recover(&courses, SpaConfig, &[], &root, log_config).unwrap();
    assert_eq!(report.shards_from_snapshot(), 4);
    assert_eq!(
        recovered.stats(),
        live_stats,
        "snapshot + tail must reconstruct every acknowledged event exactly once"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Shard snapshots written before engines lost their dormant selection
/// function carry a third section (`SECTION_SELECTION`, the untrained
/// per-shard copy) after models and stats. Recovery reads sections by
/// tag and ignores it: a root whose shard snapshots are rewritten into
/// that old layout recovers bit-identically to the same root in
/// today's layout, and to the live platform — the global function still
/// comes from `selection.snap`, never from a shard file.
#[test]
fn old_layout_shard_snapshots_recover_bit_identically() {
    use spa::core::snapshot::{SECTION_MODELS, SECTION_SELECTION, SECTION_STATS};
    const SHARDS: usize = 3;
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let campaigns = [(CampaignId::new(1), vec![EmotionalAttribute::Hopeful])];
    let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();
    let log_config = LogConfig::default();
    let root = tmp_root();
    let event =
        |i: u32| make_event(i as u8, i * 7, u64::from(i), i * 13, 0.9 - f64::from(i) / 90.0);

    let live =
        ShardedSpa::with_log(&courses, SpaConfig, SHARDS, &root, log_config.clone()).unwrap();
    live.register_campaign(campaigns[0].0, &campaigns[0].1);
    for i in 0..160 {
        let _ = live.ingest(&event(i)); // rejections are part of the stream
    }
    let known: Vec<UserId> = users.iter().copied().filter(|&u| live.model(u).is_some()).collect();
    live.train_selection(&training_data(&live, &known)).unwrap();
    live.observe_outcome(known[0], true).unwrap();
    let positions = live.checkpoint().unwrap().positions;
    for i in 160..200 {
        let _ = live.ingest(&event(i)); // a tail behind the checkpoint
    }
    live.observe_outcome(known[1], false).unwrap();
    live.flush().unwrap();

    let recover =
        || ShardedSpa::recover(&courses, SpaConfig, &campaigns, &root, log_config.clone()).unwrap();
    let assert_same_state = |a: &ShardedSpa, b: &ShardedSpa, what: &str| {
        assert_eq!(a.stats(), b.stats(), "{what}: counters");
        assert_weights_equal(&a.selection(), &b.selection(), what);
        for &user in &users {
            assert_eq!(a.model(user), b.model(user), "{what}: {user} model");
            assert_rows_equal(&a.advice_row(user).unwrap(), &b.advice_row(user).unwrap(), what);
            assert_eq!(a.next_eit_question(user).id, b.next_eit_question(user).id, "{what}");
        }
        for (x, y) in a.rank(&users).unwrap().iter().zip(b.rank(&users).unwrap().iter()) {
            assert_eq!(x.0, y.0, "{what}: ranking");
            assert!(x.1.to_bits() == y.1.to_bits(), "{what}: score of {}", x.0);
        }
    };

    let (current, current_report) = recover();
    assert_same_state(&current, &live, "current layout vs live");
    drop(current);

    // rewrite every shard snapshot into the old three-section layout
    let mut dormant = Vec::new();
    SelectionFunction::with_imbalance(75, spa::core::selection::POSITIVE_WEIGHT)
        .write_state(&mut dormant);
    for (shard, &position) in positions.iter().enumerate() {
        let dir = ShardedEventLog::shard_path(&root, ShardId::new(shard as u32));
        let path = spa::store::snapshot::snapshot_path(&dir, position);
        let snapshot = Snapshot::read(&path).unwrap();
        let tags: Vec<u32> = snapshot.sections().iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, [SECTION_MODELS, SECTION_STATS], "shard snapshots hold models + stats");
        let before = std::fs::metadata(&path).unwrap().len();
        let mut builder = SnapshotBuilder::new(position);
        for (tag, payload) in snapshot.sections() {
            builder.section(*tag, payload.clone());
        }
        builder.section(SECTION_SELECTION, dormant.clone());
        let after = builder.write_atomic(&path).unwrap();
        assert!(after > before + dormant.len() as u64, "the old layout is the larger one");
    }
    let (old_layout, old_report) = recover();
    assert_eq!(old_report, current_report, "same snapshots loaded, same tail replayed");
    assert_eq!(old_report.shards_from_snapshot(), SHARDS);
    assert_eq!(old_report.snapshot_fallbacks, 0, "the extra section is not a corruption");
    assert_same_state(&old_layout, &live, "old layout vs live");
    let _ = std::fs::remove_dir_all(&root);
}
