//! Sharded online serving with durable ingest, checkpoints and
//! bounded-time crash recovery.
//!
//! Runs the full durability lifecycle the sharded platform is built
//! for (WAL → checkpoint → compaction → crash → snapshot + tail
//! recovery):
//!
//! 1. bring up a [`ShardedSpa`] with a per-shard write-ahead log;
//! 2. ingest an event stream (EIT contact loops + web usage) for a
//!    population of users, fanned out across shards;
//! 3. train the global selection function, **checkpoint** every shard
//!    (snapshot at a recorded log position, selection weights
//!    included) and **compact** the covered segments away;
//! 4. keep serving: ingest a post-checkpoint tail, rank the population;
//! 5. "crash" — drop the whole in-memory platform, then tear one
//!    shard's log mid-frame, as a real crash during an append would;
//! 6. recover: each shard loads its snapshot and replays only the tail
//!    behind it (the compacted history is never read again — it no
//!    longer exists), the selection function comes back bit-identical
//!    without retraining, and the rankings match on every user whose
//!    tail events survived.
//!
//! ```bash
//! cargo run --release --example sharded_serving [n_users] [shards]
//! ```

use spa::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_users: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let shards: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let root = std::env::temp_dir().join(format!("spa-sharded-serving-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let campaigns = [(CampaignId::new(1), vec![EmotionalAttribute::Hopeful])];

    println!("=== sharded serving: {n_users} users across {shards} shards ===\n");

    // 1. durable platform (small segments so the history rolls several
    // files per shard and compaction has something to reclaim)
    let log_config = LogConfig { segment_bytes: 16 * 1024, fsync: false };
    let platform =
        ShardedSpa::with_log(&courses, SpaConfig, shards, &root, log_config.clone()).unwrap();
    platform.register_campaign(campaigns[0].0, &campaigns[0].1);

    // 2. ingest: six EIT contact rounds per user plus some web usage
    let users: Vec<UserId> = (0..n_users).map(UserId::new).collect();
    let started = std::time::Instant::now();
    let mut total_events = 0usize;
    for round in 0..6u64 {
        let mut batch = Vec::with_capacity(users.len() * 2);
        for &user in &users {
            let question = platform.next_eit_question(user).id;
            let spread = (user.raw() as f64 / n_users as f64) * 2.0 - 1.0;
            batch.push(LifeLogEvent::new(
                user,
                Timestamp::from_millis(round * n_users as u64 + user.raw() as u64),
                EventKind::EitAnswer { question, answer: Valence::new(spread * 0.8) },
            ));
            if user.raw() % 3 == 0 {
                batch.push(LifeLogEvent::new(
                    user,
                    Timestamp::from_millis(round * n_users as u64 + user.raw() as u64),
                    EventKind::Action {
                        action: ActionId::new(user.raw() % 984),
                        course: Some(CourseId::new(user.raw() % 25)),
                    },
                ));
            }
        }
        total_events += platform.ingest_batch(batch.iter()).unwrap();
    }
    platform.flush().unwrap();
    let log_stats = platform.log().unwrap().stats().unwrap();
    println!(
        "ingested {total_events} events in {:.1?} -> {} segment files, {:.1} KiB write-ahead log",
        started.elapsed(),
        log_stats.segments,
        log_stats.bytes as f64 / 1024.0
    );
    let stats = platform.stats();
    println!(
        "aggregate stats: {} EIT answers, {} actions across {} shards\n",
        stats.eit_answers,
        stats.actions,
        platform.shard_count()
    );

    // 3. train the global selection function, then checkpoint: every
    // shard snapshots its state at a recorded log position (selection
    // weights included) and the covered segments are compacted away —
    // from here on, recovery never replays the pre-checkpoint history
    let mut data = Dataset::new(75);
    for &user in &users {
        let row = platform.advice_row(user).unwrap();
        data.push(&row, if row.get(65) > 0.3 { 1.0 } else { -1.0 }).unwrap();
    }
    platform.train_selection(&data).unwrap();
    let ckpt_started = std::time::Instant::now();
    let checkpoint = platform.checkpoint().unwrap();
    let compaction = platform.compact().unwrap();
    println!(
        "checkpointed {} shards in {:.1?}: {:.1} KiB of snapshots; compaction reclaimed \
         {:.1} KiB across {} segment files",
        checkpoint.positions.len(),
        ckpt_started.elapsed(),
        checkpoint.snapshot_bytes as f64 / 1024.0,
        compaction.bytes_reclaimed as f64 / 1024.0,
        compaction.segments_deleted,
    );

    // 4. keep serving past the checkpoint: this tail is all that will
    // ever be replayed again
    let mut tail_events = 0usize;
    let mut batch = Vec::with_capacity(users.len());
    for &user in users.iter().filter(|u| u.raw() % 4 == 0) {
        let question = platform.next_eit_question(user).id;
        batch.push(LifeLogEvent::new(
            user,
            Timestamp::from_millis(7 * n_users as u64 + user.raw() as u64),
            EventKind::EitAnswer { question, answer: Valence::new(0.4) },
        ));
    }
    tail_events += platform.ingest_batch(batch.iter()).unwrap();
    platform.flush().unwrap();
    println!("ingested a {tail_events}-event post-checkpoint tail\n");
    let ranking_before = platform.rank(&users).unwrap();
    println!("top of the pre-crash ranking:");
    for (user, score) in ranking_before.iter().take(5) {
        println!("  {user}  score {score:+.4}  (shard {})", platform.shard_of(*user));
    }

    // 5. crash: drop the platform, then tear one shard's tail segment
    drop(platform);
    let victim = root.join("shard-0000");
    let mut segments: Vec<_> = std::fs::read_dir(&victim)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    let tail = segments.last().unwrap();
    let len = std::fs::metadata(tail).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(tail)
        .unwrap()
        .set_len(len.saturating_sub(5))
        .unwrap();
    println!("\n*** crash! memory gone; {} torn 5 bytes mid-frame ***\n", tail.display());

    // 6. recover: snapshot + tail, not history. Each shard loads its
    // registered snapshot and replays only the events behind it; the
    // selection function comes back from the checkpointed weights —
    // no retraining step before serving resumes.
    let recover_started = std::time::Instant::now();
    let (recovered, report) =
        ShardedSpa::recover(&courses, SpaConfig, &campaigns, &root, log_config).unwrap();
    // the report's Display is the operator-facing summary: shards from
    // snapshot vs replay, replay volume, and every healed anomaly
    println!("recovered in {:.1?}:\n{report}", recover_started.elapsed());
    assert!(report.selection_restored, "checkpointed weights must come back");
    let ranking_after = recovered.rank(&users).unwrap();
    let matching = ranking_before
        .iter()
        .zip(ranking_after.iter())
        .filter(|((u_a, s_a), (u_b, s_b))| u_a == u_b && s_a.to_bits() == s_b.to_bits())
        .count();
    println!(
        "post-recovery ranking agrees on {matching}/{} positions \
         (divergence only at the torn-off tail event)",
        ranking_after.len()
    );
    println!("\ntop of the post-recovery ranking:");
    for (user, score) in ranking_after.iter().take(5) {
        println!("  {user}  score {score:+.4}  (shard {})", recovered.shard_of(*user));
    }

    let _ = std::fs::remove_dir_all(&root);
}
