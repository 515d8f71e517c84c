//! The platform every workload measures, built the same way each time:
//! 3 shards, 25 courses, every user given three Gradual-EIT answers
//! through `ingest_batch`, the selection function trained on the advice
//! rows of the first users, the advice cache warmed by one full sweep.
//!
//! A user's prefill depends only on `(seed, user)`, never on which
//! other users are prefilled beside them, so a twin platform built from
//! the same seed is in the same state user by user.

use spa_core::platform::SpaConfig;
use spa_core::ShardedSpa;
use spa_ml::Dataset;
use spa_store::log::LogConfig;
use spa_synth::catalog::CourseCatalog;
use spa_types::{
    CampaignId, EmotionalAttribute, EventKind, LifeLogEvent, Timestamp, UserId, Valence,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Shards of every benchmark platform.
pub const SHARDS: usize = 3;
/// Gradual-EIT answers each user is prefilled with.
pub const EIT_ANSWERS: u32 = 3;
/// Attribute dimension of advice rows (the emagister schema).
pub const DIM: usize = 75;
/// The one campaign registered at bring-up (as `ScenarioSpec::steady`).
pub const CAMPAIGN: CampaignId = CampaignId::new(1);

/// Sizes of a run. `FULL` is what `BENCHMARK.json` measures; `QUICK`
/// exists so `cargo test` can drive every workload end to end in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Users prefilled on the platform.
    pub users: u32,
    /// Size of the hot set `serve_closed` draws its users from.
    pub hot_users: u32,
    /// Advice rows the selection function is trained on.
    pub train_rows: u32,
    /// Ticks pre-generated for the ingest ring.
    pub ingest_ring_ticks: u32,
    /// Requests in the layer probes' serving stream.
    pub probe_requests: usize,
    /// `n_users` of the `campaign_offline` experiment.
    pub campaign_users: usize,
    /// Seconds of untimed calls before the measured window.
    pub warmup_seconds: f64,
    /// How many times the workload is set up (the reported `setup_s`
    /// is the median).
    pub setups: usize,
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale {
        users: 100_000,
        hot_users: 2_000,
        train_rows: 5_000,
        ingest_ring_ticks: 256,
        probe_requests: 8_192,
        campaign_users: 20_000,
        warmup_seconds: 1.0,
        setups: 3,
    };
    /// A configuration small enough for unit tests.
    pub const QUICK: Scale = Scale {
        users: 3_000,
        hot_users: 300,
        train_rows: 600,
        ingest_ring_ticks: 8,
        probe_requests: 512,
        campaign_users: 1_200,
        warmup_seconds: 0.05,
        setups: 1,
    };
}

/// splitmix64 finalizer over `(seed, x)`: stable per-key randomness,
/// independent of generation order.
pub fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The course catalog of every benchmark platform.
pub fn courses() -> CourseCatalog {
    CourseCatalog::generate(25, 5, 3).expect("25 courses over 5 topics is a valid catalog")
}

/// Campaign registrations a recovered platform must repeat.
pub fn campaigns() -> Vec<(CampaignId, Vec<EmotionalAttribute>)> {
    vec![(CAMPAIGN, vec![EmotionalAttribute::Hopeful])]
}

/// A WAL root under `benchmark/out/`, removed when dropped. The
/// benchmark may write only inside its checkout, so the log lives on
/// the checkout's file system (`fsync` stays off, as
/// `LogConfig::default()` has it).
pub struct WalDir(PathBuf);

impl WalDir {
    /// A fresh, empty directory unique to this process and call.
    pub fn create() -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = out_dir().join(format!(
            "wal-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create WAL directory under benchmark/out");
        WalDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out/`: traces and WAL directories (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What the layer probes want to know about a build.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// `train_selection` alone, ms.
    pub train_selection_ms: f64,
    /// Events the prefill submitted.
    pub prefill_events: u64,
}

/// The three EIT answers of round `round` for `users`, question ids
/// taken from the platform's own per-user schedule.
fn eit_round(spa: &ShardedSpa, users: &[UserId], seed: u64, round: u32) -> Vec<LifeLogEvent> {
    users
        .iter()
        .map(|&user| {
            let draw = mix(seed, u64::from(user.raw()) * u64::from(EIT_ANSWERS) + u64::from(round));
            let answer = Valence::new((draw % 2000) as f64 / 1000.0 - 1.0);
            LifeLogEvent::new(
                user,
                Timestamp::from_millis(u64::from(round)),
                EventKind::EitAnswer { question: spa.next_eit_question(user).id, answer },
            )
        })
        .collect()
}

/// Builds a platform holding `users`, WAL-backed when `wal` is given.
/// `train_on` are the users whose advice rows train the selection
/// function (they must be among `users`).
pub fn build_platform(
    users: &[UserId],
    train_on: &[UserId],
    seed: u64,
    wal: Option<&Path>,
) -> (ShardedSpa, BuildTimes) {
    let courses = courses();
    let spa = match wal {
        Some(root) => {
            ShardedSpa::with_log(&courses, SpaConfig::default(), SHARDS, root, LogConfig::default())
        }
        None => ShardedSpa::new(&courses, SpaConfig::default(), SHARDS),
    }
    .expect("build platform");
    for (campaign, appeal) in campaigns() {
        spa.register_campaign(campaign, &appeal);
    }
    let mut times = BuildTimes::default();
    for round in 0..EIT_ANSWERS {
        let events = eit_round(&spa, users, seed, round);
        let applied = spa.ingest_batch(&events).expect("prefill ingest_batch");
        assert_eq!(applied, events.len(), "every prefill answer names an in-bank question");
        times.prefill_events += events.len() as u64;
    }

    let mut data = Dataset::new(DIM);
    for &user in train_on {
        let row = spa.advice_row(user).expect("training users are prefilled");
        data.push(&row, if row.get(65) > 0.4 { 1.0 } else { -1.0 }).expect("75-wide row");
    }
    let start = Instant::now();
    spa.train_selection(&data).expect("train_selection");
    times.train_selection_ms = start.elapsed().as_secs_f64() * 1e3;

    for chunk in users.chunks(1024) {
        spa.score_users(chunk).expect("warm sweep");
    }
    (spa, times)
}

/// Users `0..n`.
pub fn user_range(n: u32) -> Vec<UserId> {
    (0..n).map(UserId::new).collect()
}

/// Advice-cache hits and misses summed over the shards.
pub fn cache_counts(spa: &ShardedSpa) -> (u64, u64) {
    (0..spa.shard_count()).fold((0, 0), |(hits, misses), shard| {
        let stats = spa.shard(spa_types::ShardId::new(shard as u32)).advice_cache_stats();
        (hits + stats.hits, misses + stats.misses)
    })
}
