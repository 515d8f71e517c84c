//! Reads racing writes on the epoch-published read path.
//!
//! Scoring takes no lock: readers pin each user's published advice row
//! and the published selection function. These tests pin down the
//! guarantees that replace lock-based consistency:
//!
//! 1. **Prefix validity** — every score a concurrent reader observes is
//!    bit-identical to the score a serial locked reference computes at
//!    *some* prefix of the applied event stream (never a torn or
//!    half-applied state), and the final states agree exactly.
//! 2. **Liveness** — scoring proceeds while a checkpoint is mid-flight:
//!    a full score sweep starts and completes strictly inside a single
//!    `checkpoint()` call, with concurrent ingest running too.
//! 3. **No lock on the read path** — with a writer parked *inside* a
//!    write section (registry shard mutex held), `score_users`,
//!    `rank_top_k`, `advice_row` and `observe_outcome` still return, and
//!    return the last published row; `feature_row` — a whole-model read
//!    — waits for the section to end.

use proptest::prelude::*;
use spa::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const N_USERS: u32 = 8;
const SHARDS: usize = 4;
const REGISTERED: CampaignId = CampaignId::new(1);

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spa-read-write-overlap-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Raw generator tuple: (user, kind selector, id payload, small
/// payload, valence) — same accept/reject surface as the ingest
/// fast-path proptests.
type RawOp = (u32, u8, u32, u8, f64);

fn decode_op(at: u64, op: &RawOp) -> LifeLogEvent {
    let (user_seed, kind_sel, a, b, valence) = *op;
    let user = UserId::new(user_seed % N_USERS);
    let kind = match kind_sel % 6 {
        0 | 1 => EventKind::Action {
            action: ActionId::new(a % 984),
            course: if b % 3 == 0 { None } else { Some(CourseId::new(a % 25)) },
        },
        2 => EventKind::Rating { course: CourseId::new(a % 25), stars: b % 6 },
        3 => EventKind::Transaction {
            course: CourseId::new(a % 25),
            campaign: if b % 2 == 0 { Some(REGISTERED) } else { None },
        },
        4 => EventKind::EitAnswer {
            question: QuestionId::new(a % 40),
            answer: Valence::new(valence),
        },
        _ => EventKind::MessageOpened { campaign: REGISTERED },
    };
    LifeLogEvent::new(user, Timestamp::from_millis(at), kind)
}

fn users() -> Vec<UserId> {
    (0..N_USERS).map(UserId::new).collect()
}

/// A platform with every user's model pre-created (so scoring never
/// hits `UnknownUser` mid-race) and the campaign registered.
fn seeded(courses: &CourseCatalog, shards: usize) -> ShardedSpa {
    let sharded = ShardedSpa::new(courses, SpaConfig::default(), shards).unwrap();
    sharded.register_campaign(REGISTERED, &[EmotionalAttribute::Hopeful]);
    for raw in 0..N_USERS {
        sharded
            .ingest(&LifeLogEvent::new(
                UserId::new(raw),
                Timestamp::from_millis(raw as u64),
                EventKind::Action {
                    action: ActionId::new(raw % 984),
                    course: Some(CourseId::new(raw % 25)),
                },
            ))
            .unwrap();
    }
    sharded
}

fn training_data(reference: &ShardedSpa, users: &[UserId]) -> Dataset {
    let mut data = Dataset::new(75);
    for &user in users {
        let row = reference.advice_row(user).unwrap();
        data.push(&row, if user.raw() % 2 == 0 { 1.0 } else { -1.0 }).unwrap();
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent readers racing a serial writer only ever observe
    /// scores the locked serial reference produces at some event
    /// prefix — a published row is a whole row, never torn state — and
    /// the final scores are bit-identical to the reference's.
    #[test]
    fn concurrent_reads_observe_only_event_prefix_states(
        raw in proptest::collection::vec(
            (0u32..N_USERS, 0u8..6, 0u32..10_000, 0u8..250, -1.0f64..1.0),
            20..80,
        ),
    ) {
        let courses = CourseCatalog::generate(25, 5, 3).unwrap();
        let stream: Vec<LifeLogEvent> =
            raw.iter().enumerate().map(|(i, op)| decode_op(1_000 + i as u64, op)).collect();
        let users = users();

        // serial reference: apply one event at a time, collecting the
        // set of valid score bit-patterns per user at every prefix
        let reference = seeded(&courses, SHARDS);
        let data = training_data(&reference, &users);
        reference.train_selection(&data).unwrap();
        let mut valid: Vec<HashSet<u64>> = vec![HashSet::new(); N_USERS as usize];
        for (user, score) in reference.score_users(&users).unwrap() {
            valid[user.raw() as usize].insert(score.to_bits());
        }
        for event in &stream {
            let _ = reference.ingest(event); // rejections are deterministic
            for (user, score) in reference.score_users(&users).unwrap() {
                valid[user.raw() as usize].insert(score.to_bits());
            }
        }

        // the race: identical platform, serial writer thread, two
        // reader threads sweeping scores the whole time
        let live = seeded(&courses, SHARDS);
        live.train_selection(&data).unwrap();
        let done = AtomicBool::new(false);
        let observations: Vec<Vec<(u32, u64)>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = Vec::new();
                        loop {
                            let stop = done.load(Ordering::Acquire);
                            for (user, score) in live.score_users(&users).unwrap() {
                                seen.push((user.raw(), score.to_bits()));
                            }
                            if stop {
                                break;
                            }
                        }
                        seen
                    })
                })
                .collect();
            for event in &stream {
                let _ = live.ingest(event);
            }
            done.store(true, Ordering::Release);
            readers.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for seen in &observations {
            prop_assert!(!seen.is_empty(), "reader made no observations");
            for &(user, bits) in seen {
                prop_assert!(
                    valid[user as usize].contains(&bits),
                    "user {user} observed score {:?} that matches no event prefix",
                    f64::from_bits(bits),
                );
            }
        }
        // final states agree bit-for-bit with the serial reference
        let final_live = live.score_users(&users).unwrap();
        let final_reference = reference.score_users(&users).unwrap();
        for ((u_l, s_l), (u_r, s_r)) in final_live.iter().zip(final_reference.iter()) {
            prop_assert_eq!(u_l, u_r);
            prop_assert!(
                s_l.to_bits() == s_r.to_bits(),
                "final score diverges for {}: {:?} vs {:?}", u_l, s_l, s_r,
            );
        }
    }
}

/// Scoring proceeds while a checkpoint is mid-flight on a durable
/// platform with live ingest: at least one full score sweep starts and
/// completes strictly *inside* a single `checkpoint()` call (the old
/// write-pause latch would have been a read-side wait here), and no
/// sweep ever stalls past a generous per-call budget.
#[test]
fn scoring_never_blocks_across_a_checkpoint() {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let root = tmp_root();
    let sharded =
        ShardedSpa::with_log(&courses, SpaConfig::default(), SHARDS, &root, LogConfig::default())
            .unwrap();
    sharded.register_campaign(REGISTERED, &[EmotionalAttribute::Hopeful]);
    // a real population so each checkpoint serializes enough state to
    // give the sweeps a window to land in
    let population: Vec<UserId> = (0..600).map(UserId::new).collect();
    for &user in &population {
        sharded
            .ingest(&LifeLogEvent::new(
                user,
                Timestamp::from_millis(user.raw() as u64),
                EventKind::Action {
                    action: ActionId::new(user.raw() % 984),
                    course: Some(CourseId::new(user.raw() % 25)),
                },
            ))
            .unwrap();
    }
    let sweep: Vec<UserId> = population[..32].to_vec();
    let data = {
        let mut data = Dataset::new(75);
        for &user in &sweep {
            let row = sharded.advice_row(user).unwrap();
            data.push(&row, if user.raw() % 2 == 0 { 1.0 } else { -1.0 }).unwrap();
        }
        data
    };
    sharded.train_selection(&data).unwrap();

    let started = AtomicU64::new(0);
    let finished = AtomicU64::new(0);
    let proven = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(20);

    std::thread::scope(|scope| {
        // maintenance: checkpoint (and periodically compact) until a
        // reader proves an in-checkpoint sweep or the deadline passes
        scope.spawn(|| {
            let mut rounds = 0u64;
            while !proven.load(Ordering::Acquire) && Instant::now() < deadline {
                started.fetch_add(1, Ordering::SeqCst);
                sharded.checkpoint().unwrap();
                finished.fetch_add(1, Ordering::SeqCst);
                rounds += 1;
                if rounds.is_multiple_of(3) {
                    sharded.compact().unwrap();
                }
            }
            done.store(true, Ordering::Release);
        });
        // writer: keeps the ingest path hot so the checkpoint latch is
        // actually contended by writers while reads proceed
        scope.spawn(|| {
            let mut at = 1_000_000u64;
            while !done.load(Ordering::Acquire) {
                let events: Vec<LifeLogEvent> = (0..64)
                    .map(|i| {
                        at += 1;
                        LifeLogEvent::new(
                            UserId::new((at % 600) as u32),
                            Timestamp::from_millis(at),
                            EventKind::Transaction {
                                course: CourseId::new((i % 25) as u32),
                                campaign: Some(REGISTERED),
                            },
                        )
                    })
                    .collect();
                sharded.ingest_batch(events.iter()).unwrap();
            }
        });
        // readers: sweep scores; a sweep that begins while checkpoint
        // #k is in flight and ends before #k finishes ran entirely
        // inside that checkpoint
        for _ in 0..2 {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let s0 = started.load(Ordering::SeqCst);
                    let f0 = finished.load(Ordering::SeqCst);
                    let begun = Instant::now();
                    sharded.score_users(&sweep).unwrap();
                    let elapsed = begun.elapsed();
                    let f1 = finished.load(Ordering::SeqCst);
                    assert!(
                        elapsed < Duration::from_secs(2),
                        "a score sweep stalled for {elapsed:?} behind maintenance"
                    );
                    if s0 > f0 && f1 == f0 {
                        proven.store(true, Ordering::Release);
                    }
                }
            });
        }
    });

    assert!(
        proven.load(Ordering::Acquire),
        "no score sweep completed inside a checkpoint window within the deadline"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Parks a writer inside `registry.with_model_slot(user, …)` — the
/// master already mutated, the shard mutex held, nothing published yet —
/// and checks, from other threads, that `reads()` returns exactly what
/// it returned before the section began (the last published row), that
/// `also_lock_free()` returns too, and that `feature_row()` does not
/// return until the section ends, when it sees the section's write.
fn assert_reads_pass_a_parked_writer(
    registry: &SumRegistry,
    user: UserId,
    reads: impl Fn() -> Vec<u64> + Sync,
    also_lock_free: impl Fn() + Sync,
    feature_row: impl Fn() -> SparseVec + Sync,
) {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    const PROBE: AttributeId = AttributeId::new(5);
    let (reads, also_lock_free, feature_row) = (&reads, &also_lock_free, &feature_row);
    let before = reads();
    let (parked_tx, parked_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            registry.with_model_slot(user, |slot, _| {
                slot.get_or_create().set_observed(PROBE, 0.875).unwrap();
                parked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            })
        });
        parked_rx.recv().unwrap();

        let (during_tx, during_rx) = channel();
        scope.spawn(move || {
            let during = reads();
            also_lock_free();
            during_tx.send(during).unwrap();
        });
        // a read that needed the shard mutex would sit here until the
        // writer is released below, i.e. time out
        let during = during_rx.recv_timeout(Duration::from_secs(20));

        let (feature_tx, feature_rx) = channel();
        scope.spawn(move || feature_tx.send(feature_row()).unwrap());
        let early = feature_rx.recv_timeout(Duration::from_millis(200));

        release_tx.send(()).unwrap();
        assert_eq!(
            during.expect("published-row reads blocked behind a parked writer"),
            before,
            "reads during the section must return the last published row"
        );
        assert!(
            matches!(early, Err(RecvTimeoutError::Timeout)),
            "feature_row returned while the writer held the shard mutex"
        );
        let row = feature_rx.recv().unwrap();
        assert_eq!(row.get(PROBE.raw()), 0.875, "feature_row ran after the section, so sees it");
    });
    assert_ne!(reads(), before, "the section's end published the new row");
}

/// Scores, a top-k and `user`'s advice row, as comparable bit patterns.
fn read_bits(
    scored: Vec<(UserId, f64)>,
    top: Vec<(UserId, f64)>,
    advice_row: SparseVec,
) -> Vec<u64> {
    let pairs = scored.into_iter().chain(top).flat_map(|(u, s)| [u64::from(u.raw()), s.to_bits()]);
    let row = advice_row.iter().flat_map(|(i, v)| [u64::from(i), v.to_bits()]);
    pairs.chain(row).collect()
}

/// The README's lock-free claim, at one shard and at several: no
/// registry mutex is on the path of `score_users` / `rank_top_k` /
/// `advice_row` or of the row capture in `observe_outcome`;
/// `feature_row` takes it.
#[test]
fn published_row_reads_never_wait_for_a_parked_writer_but_feature_row_does() {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let users = users();
    let parked = UserId::new(3);
    for shards in [3usize, 1] {
        let platform = seeded(&courses, shards);
        platform.train_selection(&training_data(&platform, &users)).unwrap();
        assert_reads_pass_a_parked_writer(
            platform.shard(platform.shard_of(parked)).registry(),
            parked,
            || {
                read_bits(
                    platform.score_users(&users).unwrap(),
                    platform.rank_top_k(&users, 3).unwrap(),
                    platform.advice_row(parked).unwrap(),
                )
            },
            || platform.observe_outcome(parked, true).unwrap(),
            || platform.feature_row(parked),
        );
    }
}
