//! `engine_ingest`: in-process, one caller, durable `ingest_batch` of
//! 4096-event ticks from `ScenarioSpec::steady`, `checkpoint()` +
//! `compact()` after every 64 batches (a count, never a timer), default
//! features so the per-shard fan-out runs.
//!
//! Why: routing, WAL framing/append, apply and epoch publication do all
//! the work and the read path none. This is where the cost of per-section
//! model publication lives.

use crate::fixture::{build_platform, campaigns, courses, user_range, Scale, WalDir};
use crate::inputs::{digest_events, expected_applied, scenario_ticks};
use crate::runner::{Step, Workload};
use crate::trace::Tracer;
use spa_core::platform::SpaConfig;
use spa_core::ShardedSpa;
use spa_store::log::LogConfig;
use spa_types::LifeLogEvent;
use std::time::Instant;

/// Events per `ingest_batch` call.
pub const TICK_EVENTS: u32 = 4096;
/// Batches between maintenance calls.
pub const BATCHES_PER_CHECKPOINT: usize = 64;
/// Users of the post-recovery score sweep.
const SWEEP_USERS: u32 = 4096;

/// The workload.
pub struct EngineIngest {
    // declared in drop order: the platform closes its log before the
    // directory goes
    spa: Option<ShardedSpa>,
    wal: WalDir,
    scale: Scale,
    ring: Vec<Vec<LifeLogEvent>>,
    /// Per tick of the ring: events the platform must apply.
    applied: Vec<usize>,
    digest: u64,
    calls: usize,
    batches: usize,
}

impl EngineIngest {
    fn spa(&self) -> &ShardedSpa {
        self.spa.as_ref().expect("platform lives until verify")
    }
}

impl Workload for EngineIngest {
    const NAME: &'static str = "engine_ingest";
    const OP: &'static str = "event";
    /// One maintenance cycle: 64 batches, then checkpoint + compact.
    const BLOCK_STEPS: usize = BATCHES_PER_CHECKPOINT + 1;

    fn population(scale: &Scale) -> u64 {
        u64::from(scale.users)
    }

    fn setup(scale: &Scale, seed: u64, mark_resident: &mut dyn FnMut()) -> Self {
        let ring = scenario_ticks(seed, scale.users, scale.ingest_ring_ticks, TICK_EVENTS);
        let applied = ring.iter().map(|tick| expected_applied(tick)).collect();
        let digest = digest_events(ring.iter().map(Vec::as_slice));
        mark_resident();
        let wal = WalDir::create();
        let users = user_range(scale.users);
        let (spa, _) =
            build_platform(&users, &users[..scale.train_rows as usize], seed, Some(wal.path()));
        mark_resident();
        EngineIngest {
            spa: Some(spa),
            wal,
            scale: *scale,
            ring,
            applied,
            digest,
            calls: 0,
            batches: 0,
        }
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn describe(&self) -> String {
        format!(
            "{} users, WAL {} (fsync off), ring of {} ticks x {TICK_EVENTS} events (Zipf 0.6, 2 % of EIT \
             answers rejected by design), checkpoint+compact every {BATCHES_PER_CHECKPOINT} batches",
            self.scale.users,
            self.wal.path().display(),
            self.ring.len()
        )
    }

    fn step(&mut self, tracer: &mut Tracer) -> Step {
        let op = self.calls as u64;
        self.calls += 1;
        if self.calls.is_multiple_of(Self::BLOCK_STEPS) {
            // maintenance is a timed call with no ops of its own: its
            // cost lands in the block's throughput
            let span = tracer.begin("bench::maintenance", None, op);
            let start = Instant::now();
            let checkpointed =
                tracer.span("core::ShardedSpa::checkpoint", span, op, || self.spa().checkpoint());
            let compacted =
                tracer.span("core::ShardedSpa::compact", span, op, || self.spa().compact());
            let nanos = start.elapsed().as_nanos() as u64;
            tracer.end(span);
            let ok =
                checkpointed.is_ok() && compacted.is_ok_and(|report| report.shards_skipped == 0);
            return Step { nanos, attempted: u64::from(!ok), failed: u64::from(!ok) };
        }
        let tick = self.batches % self.ring.len();
        self.batches += 1;
        let events = &self.ring[tick];
        let span = tracer.begin("core::ShardedSpa::ingest_batch", None, op);
        let start = Instant::now();
        let outcome = self.spa().ingest_batch(events);
        let nanos = start.elapsed().as_nanos() as u64;
        tracer.end(span);
        // a batch that errors, or applies a different count than the
        // stream dictates, fails every event in it
        let ok = outcome.is_ok_and(|applied| applied == self.applied[tick]);
        let attempted = events.len() as u64;
        Step { nanos, attempted, failed: if ok { 0 } else { attempted } }
    }

    /// recover ≡ live: drop the platform, `ShardedSpa::recover` from the
    /// WAL directory, and require the stats and a 4096-user score sweep
    /// to be bit-identical to what the live platform answered.
    fn verify(&mut self) -> Step {
        let sweep = user_range(SWEEP_USERS.min(self.scale.users));
        let live = self.spa.take().expect("verify runs once");
        live.flush().expect("flush WAL before recovery");
        let (live_stats, live_scores) = (live.stats(), live.score_users(&sweep));
        drop(live);
        let start = Instant::now();
        let recovered = ShardedSpa::recover(
            &courses(),
            SpaConfig::default(),
            &campaigns(),
            self.wal.path(),
            LogConfig::default(),
        );
        let recover_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut checks = Step { nanos: 0, attempted: 1 + sweep.len() as u64, failed: 0 };
        match (recovered, live_scores) {
            (Ok((spa, report)), Ok(live_scores)) => {
                println!(
                    "recover         {recover_ms:.1} ms, {} events replayed behind the last checkpoint",
                    report.total_events()
                );
                checks.failed += u64::from(spa.stats() != live_stats);
                match spa.score_users(&sweep) {
                    Ok(scores) => {
                        let differ =
                            |(a, b): (&(_, f64), &(_, f64))| a.1.to_bits() != b.1.to_bits();
                        checks.failed +=
                            scores.iter().zip(&live_scores).filter(|&p| differ(p)).count() as u64;
                    }
                    Err(_) => checks.failed += sweep.len() as u64,
                }
            }
            _ => checks.failed = checks.attempted,
        }
        checks
    }
}
