//! WebLog (click-stream) generation.
//!
//! §5.1: WebLogs of implicit navigation habits arrive at roughly
//! 50 GB/month for 3.16M users. The generator emits per-user sessions of
//! [`LifeLogEvent`]s whose volume scales with the user's latent activity
//! and whose action mix leans transactional for high-propensity users —
//! the implicit-feedback signal the subjective attributes are distilled
//! from.

use crate::catalog::{ActionCatalog, ActionKind, CourseCatalog};
use crate::population::{LatentUser, Population};
use rand::prelude::*;
use rand::rngs::StdRng;
use spa_types::{EventKind, LifeLogEvent, Result, SpaError, Timestamp};

/// Configuration for WebLog generation.
#[derive(Debug, Clone)]
pub struct WeblogConfig {
    /// Expected sessions per user over the simulated window.
    pub mean_sessions: f64,
    /// Expected events per session.
    pub mean_session_len: f64,
    /// Length of the simulated window in days (drives timestamps and
    /// the bytes/month estimate).
    pub window_days: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WeblogConfig {
    fn default() -> Self {
        Self { mean_sessions: 14.0, mean_session_len: 16.0, window_days: 30.0, seed: 0x3E6 }
    }
}

/// Summary statistics of a generated WebLog stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeblogStats {
    /// Total events emitted.
    pub events: u64,
    /// Events that are transactions.
    pub transactions: u64,
    /// Users that produced at least one event.
    pub active_users: u64,
    /// Estimated raw-log volume in bytes (at the ~160 bytes/record of a
    /// classic Apache combined log line).
    pub(crate) estimated_bytes: u64,
    /// `estimated_bytes` normalized to a 30-day month.
    pub estimated_bytes_per_month: u64,
}

/// Bytes per raw WebLog record in the volume estimate (Apache combined
/// log format averages ≈160 bytes/line).
pub(crate) const BYTES_PER_RAW_RECORD: u64 = 160;

/// Generates WebLog events for the whole population, invoking `sink`
/// for each event (streaming, so millions of events need not fit in
/// memory), and returns aggregate statistics.
pub fn generate_weblogs(
    population: &Population,
    actions: &ActionCatalog,
    courses: &CourseCatalog,
    config: &WeblogConfig,
    mut sink: impl FnMut(&LifeLogEvent),
) -> Result<WeblogStats> {
    if config.mean_sessions <= 0.0 || config.mean_session_len <= 0.0 {
        return Err(SpaError::Invalid("weblog means must be positive".into()));
    }
    let mut stats = WeblogStats::default();
    let window_ms = (config.window_days * 24.0 * 3600.0 * 1000.0) as u64;
    for user in population.users() {
        let mut rng =
            StdRng::seed_from_u64(config.seed ^ (user.id.raw() as u64).wrapping_mul(0x9E37_79B9));
        let n_sessions = sample_poissonish(&mut rng, config.mean_sessions * user.activity);
        if n_sessions == 0 {
            continue;
        }
        stats.active_users += 1;
        for _ in 0..n_sessions {
            let start = Timestamp::from_millis(rng.gen_range(0..window_ms.max(1)));
            let n_events = sample_poissonish(&mut rng, config.mean_session_len).max(1);
            let topic = preferred_topic(user, courses.n_topics());
            for step in 0..n_events {
                let at = start.plus_millis(step as u64 * rng.gen_range(2_000u64..90_000));
                let event = synth_event(user, actions, courses, topic, at, &mut rng);
                if event.kind.is_transaction() {
                    stats.transactions += 1;
                }
                stats.events += 1;
                sink(&event);
            }
        }
    }
    stats.estimated_bytes = stats.events * BYTES_PER_RAW_RECORD;
    stats.estimated_bytes_per_month = if config.window_days > 0.0 {
        (stats.estimated_bytes as f64 * 30.0 / config.window_days) as u64
    } else {
        0
    };
    Ok(stats)
}

/// Poisson-like sampler (geometric mixture; cheap, deterministic, and
/// adequate for synthetic session counts).
fn sample_poissonish(rng: &mut StdRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    // inverse-transform on an exponential tail, capped for safety
    let mut n = 0usize;
    let mut acc = 0.0f64;
    while n < 10_000 {
        acc += -(1.0 - rng.gen::<f64>()).ln();
        if acc > mean {
            break;
        }
        n += 1;
    }
    n
}

/// The topic a user gravitates to (driven by their strongest subjective
/// trait so WebLogs reflect the latent profile).
fn preferred_topic(user: &LatentUser, n_topics: usize) -> usize {
    let mut best = 0;
    for (i, &v) in user.subjective.iter().enumerate() {
        if v > user.subjective[best] {
            best = i;
        }
    }
    best % n_topics
}

fn synth_event(
    user: &LatentUser,
    actions: &ActionCatalog,
    courses: &CourseCatalog,
    topic: usize,
    at: Timestamp,
    rng: &mut StdRng,
) -> LifeLogEvent {
    // High-propensity users take transactional actions more often.
    let p_transactional = 0.05 + 0.10 * (user.base_propensity + 1.5) / 3.0;
    let kind = if rng.gen::<f64>() < p_transactional {
        ActionKind::InfoRequest
    } else {
        ActionKind::Browse
    };
    let action = actions.sample(rng, kind, 0.8);
    // pick a course in the preferred topic 70% of the time
    let course = if rng.gen::<f64>() < 0.7 {
        let pool = courses.by_topic(topic);
        if pool.is_empty() {
            None
        } else {
            Some(pool[rng.gen_range(0..pool.len())])
        }
    } else {
        Some(spa_types::CourseId::new(rng.gen_range(0..courses.len()) as u32))
    };
    let actual_kind = actions.kind(action).expect("sampled from catalog");
    let kind = if actual_kind.is_transactional() {
        match course {
            Some(c) => EventKind::Transaction { course: c, campaign: None },
            None => EventKind::Action { action, course },
        }
    } else {
        EventKind::Action { action, course }
    };
    LifeLogEvent::new(user.id, at, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    fn setup() -> (Population, ActionCatalog, CourseCatalog) {
        let pop =
            Population::generate(PopulationConfig { n_users: 300, ..Default::default() }).unwrap();
        (pop, ActionCatalog::emagister(), CourseCatalog::generate(50, 8, 3).unwrap())
    }

    #[test]
    fn generates_events_deterministically() {
        let (pop, actions, courses) = setup();
        let config = WeblogConfig::default();
        let mut a = Vec::new();
        let mut b = Vec::new();
        let sa =
            generate_weblogs(&pop, &actions, &courses, &config, |e| a.push(e.clone())).unwrap();
        let sb =
            generate_weblogs(&pop, &actions, &courses, &config, |e| b.push(e.clone())).unwrap();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.events > 0);
        assert_eq!(sa.events as usize, a.len());
    }

    #[test]
    fn stats_are_consistent() {
        let (pop, actions, courses) = setup();
        let mut transactions = 0u64;
        let stats = generate_weblogs(&pop, &actions, &courses, &WeblogConfig::default(), |e| {
            if e.kind.is_transaction() {
                transactions += 1;
            }
        })
        .unwrap();
        assert_eq!(stats.transactions, transactions);
        assert!(stats.transactions < stats.events);
        assert_eq!(stats.estimated_bytes, stats.events * BYTES_PER_RAW_RECORD);
        assert_eq!(stats.estimated_bytes_per_month, stats.estimated_bytes, "30-day window");
        assert!(stats.active_users <= 300);
    }

    #[test]
    fn more_active_users_emit_more_events() {
        let (pop, actions, courses) = setup();
        let mut per_user = std::collections::HashMap::new();
        generate_weblogs(&pop, &actions, &courses, &WeblogConfig::default(), |e| {
            *per_user.entry(e.user).or_insert(0u64) += 1;
        })
        .unwrap();
        // correlation between latent activity and event count
        let xs: Vec<f64> = pop.users().map(|u| u.activity).collect();
        let ys: Vec<f64> = pop.users().map(|u| *per_user.get(&u.id).unwrap_or(&0) as f64).collect();
        let r = spa_linalg::stats::correlation(&xs, &ys);
        assert!(r > 0.4, "activity/event correlation too weak: {r}");
    }

    #[test]
    fn timestamps_stay_within_a_generous_window() {
        let (pop, actions, courses) = setup();
        let config = WeblogConfig { window_days: 1.0, ..Default::default() };
        let window_ms = 24 * 3600 * 1000u64;
        let mut max_seen = 0u64;
        generate_weblogs(&pop, &actions, &courses, &config, |e| {
            max_seen = max_seen.max(e.at.millis());
        })
        .unwrap();
        // sessions can run past the window start but not unboundedly
        assert!(max_seen < window_ms + 100 * 90_000);
    }

    #[test]
    fn rejects_nonpositive_means() {
        let (pop, actions, courses) = setup();
        let bad = WeblogConfig { mean_sessions: 0.0, ..Default::default() };
        assert!(generate_weblogs(&pop, &actions, &courses, &bad, |_| {}).is_err());
    }

    #[test]
    fn poissonish_sampler_tracks_the_mean() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 4000;
        let mean_in = 5.0;
        let total: usize = (0..n).map(|_| sample_poissonish(&mut rng, mean_in)).sum();
        let mean_out = total as f64 / n as f64;
        assert!((mean_out - mean_in).abs() < 0.3, "sampled mean {mean_out}");
        assert_eq!(sample_poissonish(&mut rng, 0.0), 0);
        assert_eq!(sample_poissonish(&mut rng, -1.0), 0);
    }
}
