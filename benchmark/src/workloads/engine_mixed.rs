//! `engine_mixed`: in-process, ONE thread alternating `ingest_batch` of
//! 256 events, `score_users` on exactly those 256 users, `rank_top_k`
//! on them. No WAL, unpinned.
//!
//! Why: the same layer as `engine_read`, used differently. Every read
//! follows a write to that user, so it takes the advice-cache refill and
//! the publication path the warm workload never touches; a change that
//! speeds warm reads by charging writes or refills (or the reverse) nets
//! out here. Single-threaded on purpose: a reader beside a writer on two
//! shared cores was the noisiest pairing tried.

use crate::fixture::{build_platform, user_range, Scale};
use crate::inputs::{digest_events, scenario_ticks};
use crate::runner::{Step, Workload};
use crate::trace::Tracer;
use crate::workloads::engine_read::{matches_reference, RANK_K, SAMPLE_EVERY};
use spa_core::ShardedSpa;
use spa_types::{LifeLogEvent, UserId};
use std::time::Instant;

/// Events per cycle.
pub const CYCLE_EVENTS: usize = 256;
/// Cycles pre-generated; the loop cycles through them.
const RING: usize = 1024;

/// One pre-generated cycle: the events and the users they touch.
pub struct Cycle {
    /// The 256 events ingested.
    pub events: Vec<LifeLogEvent>,
    /// Their users, in event order (duplicates kept).
    pub users: Vec<UserId>,
}

/// `count` cycles cut from scenario ticks of 4096 events (events of a
/// tick are independent draws, so a slice of one is a smaller tick, and
/// the scenario's per-tick population sort is paid 16 times less often).
pub fn cycles(seed: u64, users: u32, count: usize) -> Vec<Cycle> {
    let per_tick = 4096 / CYCLE_EVENTS;
    scenario_ticks(seed ^ 0x3E1D, users, count.div_ceil(per_tick) as u32, 4096)
        .iter()
        .flat_map(|tick| tick.chunks(CYCLE_EVENTS))
        .take(count)
        .map(|events| Cycle {
            events: events.to_vec(),
            users: events.iter().map(|e| e.user).collect(),
        })
        .collect()
}

/// The workload.
pub struct EngineMixed {
    spa: ShardedSpa,
    scale: Scale,
    ring: Vec<Cycle>,
    digest: u64,
    calls: usize,
}

impl Workload for EngineMixed {
    const NAME: &'static str = "engine_mixed";
    const OP: &'static str = "event submitted or user scored";
    const BLOCK_STEPS: usize = 128;

    fn population(scale: &Scale) -> u64 {
        u64::from(scale.users)
    }

    fn setup(scale: &Scale, seed: u64, mark_resident: &mut dyn FnMut()) -> Self {
        let ring = cycles(seed, scale.users, RING.min(scale.ingest_ring_ticks as usize * 16));
        let digest = digest_events(ring.iter().map(|cycle| cycle.events.as_slice()));
        mark_resident();
        let users = user_range(scale.users);
        let (spa, _) = build_platform(&users, &users[..scale.train_rows as usize], seed, None);
        mark_resident();
        EngineMixed { spa, scale: *scale, ring, digest, calls: 0 }
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn describe(&self) -> String {
        format!(
            "{} users, no WAL, {} cycles of ingest_batch({CYCLE_EVENTS}) -> score_users -> rank_top_k(k={RANK_K}) on one thread",
            self.scale.users,
            self.ring.len()
        )
    }

    fn step(&mut self, tracer: &mut Tracer) -> Step {
        let op = self.calls as u64;
        let cycle = &self.ring[self.calls % self.ring.len()];
        let spa = &self.spa;
        self.calls += 1;
        let span = tracer.begin("bench::mixed_cycle", None, op);
        let start = Instant::now();
        let ingested = tracer
            .span("core::ShardedSpa::ingest_batch", span, op, || spa.ingest_batch(&cycle.events));
        let scored = tracer
            .span("core::ShardedSpa::score_users", span, op, || spa.score_users(&cycle.users));
        let ranked = tracer.span("core::ShardedSpa::rank_top_k", span, op, || {
            spa.rank_top_k(&cycle.users, RANK_K)
        });
        let nanos = start.elapsed().as_nanos() as u64;
        tracer.end(span);
        // checked before the next cycle writes: every 64th score must be
        // what the cache-free reference path computes right now
        let ok = ingested.is_ok()
            && ranked.is_ok_and(|top| top.len() == RANK_K)
            && scored.is_ok_and(|scores| {
                scores.len() == CYCLE_EVENTS
                    && scores
                        .iter()
                        .skip(self.calls % SAMPLE_EVERY)
                        .step_by(SAMPLE_EVERY)
                        .all(|&(user, score)| matches_reference(spa, user, score))
            });
        let attempted = 3 * CYCLE_EVENTS as u64;
        Step { nanos, attempted, failed: if ok { 0 } else { attempted } }
    }

    fn verify(&mut self) -> Step {
        Step::default() // every cycle is checked as it happens
    }
}
