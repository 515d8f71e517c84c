//! Crash-recovery property tests for the sharded platform: ingest an
//! arbitrary event stream through a write-ahead-logged [`ShardedSpa`],
//! "crash" (drop everything in memory), cut one shard's tail segment at
//! an arbitrary byte offset, and require [`ShardedSpa::recover`] to
//! rebuild exactly the platform a reference build reaches from the
//! surviving prefix of fully framed records.

use proptest::prelude::*;
use spa::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];
const N_USERS: u32 = 60;

fn tmp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spa-shard-crash-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn make_event(kind: u8, user: u32, at: u64, id: u32, value: f64) -> LifeLogEvent {
    let kind = match kind % 10 {
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
            EventKind::EitAnswer { question: QuestionId::new(id % 40), answer: Valence::new(value) }
        }
        6 => EventKind::EitSkipped { question: QuestionId::new(id % 40) },
        7 => EventKind::MessageOpened { campaign: CampaignId::new(1) },
        // the admin mutations ride the same WAL as organic traffic:
        // attribute imports (≤ 40 wide) and ignored-campaign
        // punishments — against both a registered campaign (1) and an
        // unregistered one (2), which punishes nothing but must still
        // replay as the same no-op
        8 => EventKind::ObjectiveImported {
            values: (0..id % 9).map(|i| value * (i as f64 + 1.0) * 0.25).collect(),
        },
        _ => EventKind::CampaignIgnored { campaign: CampaignId::new(id % 2 + 1) },
    };
    LifeLogEvent::new(UserId::new(user % N_USERS), Timestamp::from_millis(at), kind)
}

fn assert_rows_equal(a: &SparseVec, b: &SparseVec, what: &str) {
    assert_eq!(a.indices(), b.indices(), "{what}: sparsity pattern diverges");
    for (i, (x, y)) in a.values().iter().zip(b.values().iter()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: value {i} diverges: {x:?} vs {y:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// ingest → crash → truncate one shard's tail → recover: the
    /// recovered platform equals a reference rebuilt from the surviving
    /// prefix, for every shard count in {1, 2, 7, 16}.
    #[test]
    fn recover_matches_a_reference_built_from_the_surviving_prefix(
        raw in proptest::collection::vec(
            (0u8..10, 0u32..N_USERS, 0u64..1_000_000, 0u32..10_000, -1.0f64..1.0),
            30..120,
        ),
        shard_seed in 0usize..4,
        victim_seed in 0u64..1_000_000,
        cut_seed in 0u64..1_000_000,
    ) {
        let shards = SHARD_COUNTS[shard_seed];
        let events: Vec<LifeLogEvent> =
            raw.iter().map(|&(k, u, at, id, v)| make_event(k, u, at, id, v)).collect();
        let courses = CourseCatalog::generate(25, 5, 3).unwrap();
        let root = tmp_root();
        {
            let sharded = ShardedSpa::with_log(
                &courses,
                SpaConfig::default(),
                shards,
                &root,
                LogConfig::default(),
            )
            .unwrap();
            sharded.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
            prop_assert_eq!(sharded.ingest_batch(events.iter()).unwrap(), events.len());
            sharded.flush().unwrap();
        } // crash: all in-memory state is gone

        // cut one shard's tail segment at an arbitrary offset
        let victim = (victim_seed % shards as u64) as usize;
        let victim_dir = root.join(format!("shard-{victim:04}"));
        let mut segments: Vec<PathBuf> =
            std::fs::read_dir(&victim_dir).unwrap().map(|e| e.unwrap().path()).collect();
        segments.sort();
        let tail = segments.last().unwrap();
        let len = std::fs::metadata(tail).unwrap().len();
        let cut = cut_seed % (len + 1);
        std::fs::OpenOptions::new().write(true).open(tail).unwrap().set_len(cut).unwrap();

        // the surviving prefix, shard by shard (replay is tail-tolerant)
        let mut survivors: Vec<Vec<LifeLogEvent>> = Vec::with_capacity(shards);
        for s in 0..shards {
            let shard = EventLog::replay_iter(root.join(format!("shard-{s:04}"))).unwrap();
            survivors.push(shard.collect::<Result<_, _>>().unwrap());
        }
        let survivor_total: usize = survivors.iter().map(|v| v.len()).sum();
        prop_assert!(survivor_total <= events.len());

        // reference: an ephemeral sharded platform fed the prefix
        let reference = ShardedSpa::new(&courses, SpaConfig::default(), shards).unwrap();
        reference.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
        for shard_events in &survivors {
            reference.ingest_batch(shard_events.iter()).unwrap();
        }

        // recover from disk (campaign registrations are configuration,
        // not logged events — they must be re-supplied for replayed
        // opens/transactions to re-apply their rewards)
        let campaigns = [(CampaignId::new(1), vec![EmotionalAttribute::Hopeful])];
        let (recovered, report) = ShardedSpa::recover(
            &courses,
            SpaConfig::default(),
            &campaigns,
            &root,
            LogConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(recovered.shard_count(), shards);
        prop_assert_eq!(report.total_events() as usize, survivor_total);
        prop_assert!(report.torn_shards() <= 1, "only the victim shard may be torn");
        prop_assert_eq!(recovered.stats(), reference.stats());
        for raw_user in 0..N_USERS {
            let user = UserId::new(raw_user);
            assert_rows_equal(
                &reference.feature_row(user),
                &recovered.feature_row(user),
                &format!("{shards} shards, victim {victim}, cut {cut}, {user}"),
            );
            let advice_ref = reference.advice_row(user).unwrap();
            let advice_rec = recovered.advice_row(user).unwrap();
            assert_rows_equal(&advice_ref, &advice_rec, "advice row");
        }

        // the recovered platform keeps serving: ingest resumes on a
        // clean frame boundary and replays fully next time
        let extra = make_event(0, 7, 9_999_999, 3, 0.5);
        recovered.ingest(&extra).unwrap();
        recovered.flush().unwrap();
        let (again, report2) = ShardedSpa::recover(
            &courses,
            SpaConfig::default(),
            &campaigns,
            &root,
            LogConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(report2.total_events() as usize, survivor_total + 1);
        prop_assert_eq!(report2.torn_shards(), 0, "recovery must have healed the torn tail");
        prop_assert_eq!(again.stats().actions, recovered.stats().actions);
        let _ = std::fs::remove_dir_all(&root);
    }
}
