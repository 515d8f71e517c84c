//! In-process read-contention probe.
//!
//! The TCP harness (`serving_latency`) measures the full serving stack,
//! where connection scheduling and syscall jitter drown out µs-scale
//! storage effects. This probe strips all of that away: reader threads
//! call [`ShardedSpa::score_users`] directly in a closed loop and
//! record per-call latency, while (optionally) one writer thread drives
//! `ingest_batch` flat-out against the same platform. The delta between
//! writers-off and writers-on percentiles is exactly the read path's
//! exposure to ingest — the quantity the epoch-published advice-row
//! design is meant to pin at zero.
//!
//! Environment knobs (all optional):
//!
//! * `SPA_READ_SECONDS` — run length (default 4)
//! * `SPA_READ_THREADS` — reader threads (default 2)
//! * `SPA_READ_AUDIENCE` — users per score call (default 16)
//! * `SPA_READ_WRITER` — 1 = flat-out ingest writer on (default 0)
//! * `SPA_READ_WRITER_BATCH` — events per writer batch (default 128)
//! * `SPA_BENCH_OUT` — output path (default stdout summary only)

use spa_core::platform::SpaConfig;
use spa_core::ShardedSpa;
use spa_synth::catalog::CourseCatalog;
use spa_types::{
    CampaignId, CourseId, EmotionalAttribute, EventKind, LifeLogEvent, Timestamp, UserId,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const N_USERS: u32 = 400;
const SHARDS: usize = 3;
const CAMPAIGN: CampaignId = CampaignId::new(1);

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() {
    let seconds = env_u64("SPA_READ_SECONDS", 4).max(1);
    let threads = env_u64("SPA_READ_THREADS", 2).max(1) as usize;
    let audience = env_u64("SPA_READ_AUDIENCE", 16).max(1) as usize;
    let writer_on = env_u64("SPA_READ_WRITER", 0) != 0;
    let writer_batch = env_u64("SPA_READ_WRITER_BATCH", 128).max(1) as usize;

    let courses = CourseCatalog::generate(25, 5, 3).expect("catalog");
    let sharded = ShardedSpa::new(&courses, SpaConfig::default(), SHARDS).expect("platform");
    sharded.register_campaign(CAMPAIGN, &[EmotionalAttribute::Hopeful]);
    for raw in 0..N_USERS {
        sharded
            .ingest(&LifeLogEvent::new(
                UserId::new(raw),
                Timestamp::from_millis(raw as u64),
                EventKind::Transaction {
                    course: CourseId::new(raw % 25),
                    campaign: Some(CAMPAIGN),
                },
            ))
            .expect("seed ingest");
    }
    let data = {
        let mut data = spa_ml::Dataset::new(75);
        for raw in 0..N_USERS {
            let row = sharded.advice_row(UserId::new(raw)).expect("advice row");
            data.push(&row, if raw % 2 == 0 { 1.0 } else { -1.0 }).expect("push");
        }
        data
    };
    sharded.train_selection(&data).expect("train");

    let stop = AtomicBool::new(false);
    let events_applied = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs(seconds);

    let mut per_thread: Vec<Vec<u64>> = Vec::new();
    let platform = &sharded;
    std::thread::scope(|scope| {
        if writer_on {
            scope.spawn(|| {
                let mut at = 10_000_000u64;
                while !stop.load(Ordering::Acquire) {
                    let events: Vec<LifeLogEvent> = (0..writer_batch)
                        .map(|_| {
                            at += 1;
                            LifeLogEvent::new(
                                UserId::new((at % N_USERS as u64) as u32),
                                Timestamp::from_millis(at),
                                EventKind::Transaction {
                                    course: CourseId::new((at % 25) as u32),
                                    campaign: Some(CAMPAIGN),
                                },
                            )
                        })
                        .collect();
                    let applied = platform.ingest_batch(events.iter()).expect("ingest");
                    events_applied.fetch_add(applied as u64, Ordering::Relaxed);
                }
            });
        }
        let readers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    // each reader sweeps its own rotating window of the
                    // population so CPU-cache lines stay warm but distinct
                    let mut latencies = Vec::with_capacity(1 << 18);
                    let mut offset = (t as u32) * 37;
                    while Instant::now() < deadline {
                        let users: Vec<UserId> = (0..audience as u32)
                            .map(|i| UserId::new((offset + i) % N_USERS))
                            .collect();
                        offset = offset.wrapping_add(audience as u32);
                        let begun = Instant::now();
                        platform.score_users(&users).expect("score");
                        latencies.push(begun.elapsed().as_nanos() as u64);
                    }
                    latencies
                })
            })
            .collect();
        per_thread = readers.into_iter().map(|h| h.join().expect("reader")).collect();
        stop.store(true, Ordering::Release);
    });

    let mut all: Vec<u64> = per_thread.into_iter().flatten().collect();
    all.sort_unstable();
    let calls = all.len() as u64;
    let p50 = percentile(&all, 0.50) as f64 / 1_000.0;
    let p90 = percentile(&all, 0.90) as f64 / 1_000.0;
    let p99 = percentile(&all, 0.99) as f64 / 1_000.0;
    let p999 = percentile(&all, 0.999) as f64 / 1_000.0;
    let max = all.last().copied().unwrap_or(0) as f64 / 1_000.0;
    let applied = events_applied.load(Ordering::Relaxed);
    let writer_rate = applied as f64 / seconds as f64;

    eprintln!(
        "[read_contention] {calls} score({audience}) calls on {threads} threads over {seconds}s, \
         writer {} ({writer_rate:.0} events/s): p50 {p50:.1}us p90 {p90:.1}us p99 {p99:.1}us \
         p999 {p999:.1}us max {max:.1}us",
        if writer_on { "ON" } else { "off" },
    );

    if let Ok(out_path) = std::env::var("SPA_BENCH_OUT") {
        let json = format!(
            "{{\n  \"probe\": \"read_contention\",\n  \"config\": {{\n    \"seconds\": {seconds},\n    \
             \"reader_threads\": {threads},\n    \"audience\": {audience},\n    \"writer\": \
             {writer_on},\n    \"writer_batch\": {writer_batch},\n    \"users\": {N_USERS},\n    \
             \"shards\": {SHARDS}\n  }},\n  \"score_calls\": {calls},\n  \"writer_events_per_sec\": \
             {writer_rate:.0},\n  \"score_us\": {{ \"p50\": {p50:.1}, \"p90\": {p90:.1}, \"p99\": \
             {p99:.1}, \"p999\": {p999:.1}, \"max\": {max:.1} }}\n}}\n"
        );
        std::fs::write(&out_path, json).expect("write bench output");
    }
}
