//! `engine_read`: in-process, one caller thread, alternating
//! `ShardedSpa::score_users` and `rank_top_k(k = 64)` over 1024-user
//! audiences drawn uniformly from the whole population; warm advice
//! cache, no WAL, unpinned.
//!
//! Why: the read path does all the work and nothing else runs. 1024 is
//! below `PARALLEL_BATCH_THRESHOLD`, which keeps the vendored rayon's
//! per-call thread spawn out. At ~6 KB resident per user the population
//! is far larger than the CPU cache, so the workload is cache-miss-bound
//! and is where a smaller published artefact per user shows.

use crate::fixture::{build_platform, user_range, Scale};
use crate::inputs::{audiences, digest_users};
use crate::runner::{Step, Workload};
use crate::trace::Tracer;
use spa_core::ShardedSpa;
use spa_types::UserId;
use std::time::Instant;

/// Users per audience.
pub const AUDIENCE: usize = 1024;
/// `k` of the ranking calls.
pub const RANK_K: usize = 64;
/// Audiences pre-generated; the loop cycles through them.
const RING: usize = 256;
/// One score in this many is kept and compared with the reference path.
pub const SAMPLE_EVERY: usize = 64;

/// Whether `score` is bit-for-bit what the cache-free reference path
/// (`advice_row` + `selection().score()`) computes for `user`.
pub fn matches_reference(spa: &ShardedSpa, user: UserId, score: f64) -> bool {
    spa.advice_row(user)
        .and_then(|row| spa.selection().score(&row))
        .is_ok_and(|reference| reference.to_bits() == score.to_bits())
}

/// The workload.
pub struct EngineRead {
    spa: ShardedSpa,
    scale: Scale,
    ring: Vec<Vec<UserId>>,
    digest: u64,
    calls: usize,
    /// Every 64th score returned, checked after the window (nothing
    /// writes, so the reference path still sees the same state).
    sampled: Vec<(UserId, f64)>,
}

impl Workload for EngineRead {
    const NAME: &'static str = "engine_read";
    const OP: &'static str = "user scored";
    const BLOCK_STEPS: usize = 512;

    fn population(scale: &Scale) -> u64 {
        u64::from(scale.users)
    }

    fn setup(scale: &Scale, seed: u64, mark_resident: &mut dyn FnMut()) -> Self {
        let ring = audiences(seed, scale.users, RING, AUDIENCE);
        let digest = digest_users(&ring);
        mark_resident();
        let users = user_range(scale.users);
        let (spa, _) = build_platform(&users, &users[..scale.train_rows as usize], seed, None);
        mark_resident();
        EngineRead { spa, scale: *scale, ring, digest, calls: 0, sampled: Vec::new() }
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn describe(&self) -> String {
        format!(
            "{} users, no WAL, {RING} audiences of {AUDIENCE}, score_users and rank_top_k(k={RANK_K}) alternate",
            self.scale.users
        )
    }

    fn step(&mut self, tracer: &mut Tracer) -> Step {
        let audience = &self.ring[self.calls % RING];
        let rank = self.calls % 2 == 1;
        let name =
            if rank { "core::ShardedSpa::rank_top_k" } else { "core::ShardedSpa::score_users" };
        let span = tracer.begin(name, None, self.calls as u64);
        let start = Instant::now();
        let outcome = if rank {
            self.spa.rank_top_k(audience, RANK_K)
        } else {
            self.spa.score_users(audience)
        };
        let nanos = start.elapsed().as_nanos() as u64;
        tracer.end(span);
        let expected = if rank { RANK_K } else { AUDIENCE };
        let ok = match &outcome {
            Ok(entries) if entries.len() == expected => {
                let offset = (self.calls / 2) % SAMPLE_EVERY;
                self.sampled.extend(entries.iter().skip(offset).step_by(SAMPLE_EVERY));
                true
            }
            _ => false,
        };
        self.calls += 1;
        Step { nanos, attempted: AUDIENCE as u64, failed: if ok { 0 } else { AUDIENCE as u64 } }
    }

    fn verify(&mut self) -> Step {
        let wrong = self
            .sampled
            .iter()
            .filter(|&&(user, score)| !matches_reference(&self.spa, user, score))
            .count();
        Step { nanos: 0, attempted: self.sampled.len() as u64, failed: wrong as u64 }
    }
}
