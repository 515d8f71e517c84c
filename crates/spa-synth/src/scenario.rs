//! Declarative lifecycle scenarios — "production weather" as data.
//!
//! The WebLog generator ([`crate::weblog`]) produces a statistically
//! faithful but *static* month of traffic. Real deployments are not
//! static: a few hot users dominate (Zipf), cohorts of users arrive
//! and churn out, moods drift over weeks, and campaigns start and stop
//! on overlapping flights. A [`ScenarioSpec`] describes all of that
//! declaratively — cohort windows, campaign flights, a drift curve,
//! skew and mix knobs — and a [`ScenarioEngine`] turns the spec into a
//! deterministic per-tick stream of [`LifeLogEvent`] batches. New
//! scenarios are new *data*, not new harness code, which is what lets
//! one chaos soak exercise many weathers.
//!
//! Determinism is load-bearing: the same spec always yields the same
//! event stream, so a chaos harness can replay exactly the traffic a
//! fault interrupted and compare the recovered platform bit-for-bit
//! against a fault-free reference.

use rand::prelude::*;
use rand::rngs::StdRng;
use spa_types::{
    ActionId, CampaignId, CourseId, EmotionalAttribute, EventKind, LifeLogEvent, QuestionId,
    Result, SpaError, Timestamp, UserId, Valence,
};

/// A block of users sharing an arrival (and optionally departure)
/// tick. Cohorts may overlap in user-id space with different windows;
/// a user is active when *any* cohort containing them is active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortSpec {
    /// First user id in the cohort.
    pub(crate) first_user: u32,
    /// Number of consecutive user ids in the cohort.
    pub(crate) users: u32,
    /// First tick (inclusive) the cohort is present.
    pub(crate) arrive_tick: u32,
    /// Tick (exclusive) the cohort churns out; `None` = stays forever.
    pub(crate) depart_tick: Option<u32>,
}

impl CohortSpec {
    fn active_at(&self, tick: u32) -> bool {
        tick >= self.arrive_tick && self.depart_tick.is_none_or(|d| tick < d)
    }
}

/// One campaign flight: the window during which the campaign is live
/// and may be attributed on transactions and message events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPhase {
    /// Campaign identity.
    pub(crate) campaign: CampaignId,
    /// Emotional appeal the campaign targets (used when registering
    /// the campaign on a platform; the engine itself only needs the
    /// window).
    pub(crate) appeal: Vec<EmotionalAttribute>,
    /// First tick (inclusive) the flight is live.
    pub(crate) start_tick: u32,
    /// Tick (exclusive) the flight stops.
    pub(crate) stop_tick: u32,
}

impl CampaignPhase {
    fn active_at(&self, tick: u32) -> bool {
        tick >= self.start_tick && tick < self.stop_tick
    }
}

/// Sinusoidal population-mood drift: every EIT answer's valence is
/// shifted by `amplitude * sin(2π · tick / period_ticks)` before
/// clamping, so early and late traffic carry measurably different
/// emotional signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValenceDrift {
    /// Peak shift applied to answer valences (0 disables drift).
    pub(crate) amplitude: f64,
    /// Period of the drift cycle in ticks (must be positive).
    pub(crate) period_ticks: f64,
}

impl Default for ValenceDrift {
    fn default() -> Self {
        Self { amplitude: 0.0, period_ticks: 64.0 }
    }
}

/// A complete declarative scenario: population lifecycle, traffic
/// shape and campaign calendar. See [`ScenarioEngine`] for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (soak reports, bench labels).
    pub name: String,
    /// Seed fixing the entire event stream.
    pub seed: u64,
    /// Total ticks the scenario runs.
    pub ticks: u32,
    /// Events generated per tick (spread over the active users).
    pub events_per_tick: u32,
    /// Zipf exponent for user selection: 0 = uniform, ~1 = classic
    /// web-traffic skew where a handful of hot users dominate.
    pub zipf_exponent: f64,
    /// Size of the platform's EIT question bank: in-bank answers use
    /// ids `0..question_bank`.
    pub question_bank: u32,
    /// Per-mille of EIT answers deliberately aimed past the bank, so
    /// the stream exercises the platform's reject-and-skip path (a
    /// rejected event must be skipped identically live and on replay).
    pub rejected_per_1k: u32,
    /// Course catalog size referenced by actions/transactions/ratings.
    pub n_courses: u32,
    /// Population lifecycle (at least one cohort).
    pub cohorts: Vec<CohortSpec>,
    /// Campaign calendar (flights may overlap).
    pub campaigns: Vec<CampaignPhase>,
    /// Population mood drift.
    pub drift: ValenceDrift,
}

impl ScenarioSpec {
    /// A steady-state scenario: one ever-present cohort, mild skew, one
    /// campaign covering the whole window, no drift.
    pub fn steady(seed: u64, users: u32, ticks: u32) -> Self {
        Self {
            name: "steady".into(),
            seed,
            ticks,
            events_per_tick: 32,
            zipf_exponent: 0.6,
            question_bank: 40,
            rejected_per_1k: 20,
            n_courses: 25,
            cohorts: vec![CohortSpec { first_user: 0, users, arrive_tick: 0, depart_tick: None }],
            campaigns: vec![CampaignPhase {
                campaign: CampaignId::new(1),
                appeal: vec![EmotionalAttribute::Hopeful],
                start_tick: 0,
                stop_tick: ticks,
            }],
            drift: ValenceDrift::default(),
        }
    }

    /// The kitchen-sink lifecycle scenario the chaos soak runs: a core
    /// cohort that never leaves, a mid-life wave that arrives and
    /// churns out, late joiners, strong Zipf skew, pronounced mood
    /// drift and three overlapping campaign flights with staggered
    /// start/stop.
    pub fn production_weather(seed: u64, ticks: u32) -> Self {
        let third = ticks / 3;
        Self {
            name: "production-weather".into(),
            seed,
            ticks,
            events_per_tick: 40,
            zipf_exponent: 1.1,
            question_bank: 40,
            rejected_per_1k: 30,
            n_courses: 25,
            cohorts: vec![
                // the core population, present throughout
                CohortSpec { first_user: 0, users: 28, arrive_tick: 0, depart_tick: None },
                // a wave that arrives early and churns out after 2/3
                CohortSpec {
                    first_user: 28,
                    users: 20,
                    arrive_tick: third / 2,
                    depart_tick: Some(2 * third),
                },
                // late joiners who stay
                CohortSpec { first_user: 48, users: 16, arrive_tick: third, depart_tick: None },
            ],
            campaigns: vec![
                CampaignPhase {
                    campaign: CampaignId::new(1),
                    appeal: vec![EmotionalAttribute::Hopeful],
                    start_tick: 0,
                    stop_tick: 2 * third,
                },
                CampaignPhase {
                    campaign: CampaignId::new(2),
                    appeal: vec![EmotionalAttribute::Enthusiastic, EmotionalAttribute::Lively],
                    start_tick: third / 2,
                    stop_tick: ticks,
                },
                CampaignPhase {
                    campaign: CampaignId::new(3),
                    appeal: vec![EmotionalAttribute::Motivated],
                    start_tick: 2 * third,
                    stop_tick: ticks,
                },
            ],
            drift: ValenceDrift { amplitude: 0.5, period_ticks: 40.0 },
        }
    }

    /// Highest user id any cohort can emit, plus one (the scenario's
    /// user-id universe `0..user_universe()`).
    pub fn user_universe(&self) -> u32 {
        self.cohorts.iter().map(|c| c.first_user + c.users).max().unwrap_or(0)
    }

    /// Validates the spec (non-empty cohorts, sane windows, positive
    /// knobs) so engine construction fails loudly instead of emitting a
    /// degenerate stream.
    pub(crate) fn validate(&self) -> Result<()> {
        let invalid =
            |msg: String| Err(SpaError::Invalid(format!("scenario {}: {msg}", self.name)));
        if self.ticks == 0 || self.events_per_tick == 0 {
            return invalid("ticks and events_per_tick must be positive".into());
        }
        if self.question_bank == 0 || self.n_courses == 0 {
            return invalid("question_bank and n_courses must be positive".into());
        }
        if self.zipf_exponent.is_nan() || self.zipf_exponent < 0.0 {
            return invalid(format!("zipf exponent {} must be >= 0", self.zipf_exponent));
        }
        if self.rejected_per_1k > 1000 {
            return invalid(format!("rejected_per_1k {} exceeds 1000", self.rejected_per_1k));
        }
        if self.drift.period_ticks.is_nan() || self.drift.period_ticks <= 0.0 {
            return invalid(format!("drift period {} must be positive", self.drift.period_ticks));
        }
        if self.cohorts.is_empty() {
            return invalid("at least one cohort is required".into());
        }
        for (i, c) in self.cohorts.iter().enumerate() {
            if c.users == 0 {
                return invalid(format!("cohort {i} is empty"));
            }
            if c.depart_tick.is_some_and(|d| d <= c.arrive_tick) {
                return invalid(format!("cohort {i} departs before it arrives"));
            }
        }
        for (i, p) in self.campaigns.iter().enumerate() {
            if p.stop_tick <= p.start_tick {
                return invalid(format!("campaign flight {i} stops before it starts"));
            }
        }
        Ok(())
    }
}

/// One tick's worth of generated traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct TickBatch {
    /// Tick index within the scenario.
    pub(crate) tick: u32,
    /// The events of this tick, in generation order.
    pub events: Vec<LifeLogEvent>,
    /// How many users were active this tick.
    pub(crate) active_users: usize,
    /// Campaign flights live this tick.
    pub(crate) active_campaigns: Vec<CampaignId>,
}

/// Executes a [`ScenarioSpec`] deterministically, one [`TickBatch`]
/// per [`ScenarioEngine::next_tick`] call (also usable as an
/// `Iterator`).
#[derive(Debug)]
pub struct ScenarioEngine {
    spec: ScenarioSpec,
    rng: StdRng,
    tick: u32,
    /// Active users this tick, ordered hottest-first (stable per-user
    /// hotness, so a user keeps their rank while cohorts churn around
    /// them).
    active: Vec<u32>,
    /// Zipf CDF over `active` (rebuilt when the active count changes).
    cdf: Vec<f64>,
}

/// splitmix64 — stable per-user hashing for hotness ranks and base
/// moods, independent of the event-stream RNG.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ScenarioEngine {
    /// Validates the spec and prepares the deterministic stream.
    pub fn new(spec: ScenarioSpec) -> Result<Self> {
        spec.validate()?;
        let rng = StdRng::seed_from_u64(spec.seed);
        Ok(Self { spec, rng, tick: 0, active: Vec::new(), cdf: Vec::new() })
    }

    /// Every campaign the scenario will ever run, for registering on a
    /// platform at bring-up (campaign configuration is not logged, so
    /// live and recovered platforms must register identically).
    pub fn all_campaigns(&self) -> Vec<(CampaignId, Vec<EmotionalAttribute>)> {
        self.spec.campaigns.iter().map(|p| (p.campaign, p.appeal.clone())).collect()
    }

    fn rebuild_active(&mut self, tick: u32) {
        self.active.clear();
        let universe = self.spec.user_universe();
        for user in 0..universe {
            let member = self.spec.cohorts.iter().any(|c| {
                user >= c.first_user && user < c.first_user + c.users && c.active_at(tick)
            });
            if member {
                self.active.push(user);
            }
        }
        // hottest-first by a stable per-user hash: hotness follows the
        // user through churn instead of being positional
        let seed = self.spec.seed;
        self.active.sort_by_key(|&u| mix(seed, u as u64));
        if self.cdf.len() != self.active.len() {
            self.cdf.clear();
            let mut acc = 0.0f64;
            for rank in 0..self.active.len() {
                acc += 1.0 / ((rank + 1) as f64).powf(self.spec.zipf_exponent);
                self.cdf.push(acc);
            }
        }
    }

    fn pick_user(&mut self) -> u32 {
        let total = *self.cdf.last().expect("active set is non-empty");
        let needle = self.rng.gen::<f64>() * total;
        let idx = self.cdf.partition_point(|&acc| acc < needle).min(self.active.len() - 1);
        self.active[idx]
    }

    /// A user's stable base mood in `[-0.8, 0.8]`.
    fn base_valence(&self, user: u32) -> f64 {
        let unit = mix(self.spec.seed ^ 0xAD0B, user as u64) as f64 / u64::MAX as f64;
        unit * 1.6 - 0.8
    }

    /// Generates the next tick, or `None` when the scenario is over.
    /// An empty tick (no cohort active) still advances the clock.
    pub fn next_tick(&mut self) -> Option<TickBatch> {
        if self.tick >= self.spec.ticks {
            return None;
        }
        let tick = self.tick;
        self.tick += 1;
        self.rebuild_active(tick);
        let active_campaigns: Vec<CampaignId> =
            self.spec.campaigns.iter().filter(|p| p.active_at(tick)).map(|p| p.campaign).collect();
        let mut events = Vec::with_capacity(self.spec.events_per_tick as usize);
        if !self.active.is_empty() {
            let drift = self.spec.drift.amplitude
                * (std::f64::consts::TAU * tick as f64 / self.spec.drift.period_ticks).sin();
            for step in 0..self.spec.events_per_tick {
                let user = self.pick_user();
                let at = Timestamp::from_millis(tick as u64 * 1_000 + step as u64);
                let kind = self.event_kind(user, drift, &active_campaigns);
                events.push(LifeLogEvent::new(UserId::new(user), at, kind));
            }
        }
        Some(TickBatch { tick, events, active_users: self.active.len(), active_campaigns })
    }

    fn event_kind(&mut self, user: u32, drift: f64, campaigns: &[CampaignId]) -> EventKind {
        let bank = self.spec.question_bank;
        let courses = self.spec.n_courses;
        let roll = self.rng.gen_range(0u32..100);
        match roll {
            // EIT contact loop: answers dominate the emotional signal
            0..=29 => {
                let rejected = self.rng.gen_range(0u32..1000) < self.spec.rejected_per_1k;
                let question = if rejected {
                    QuestionId::new(bank + self.rng.gen_range(0..10u32))
                } else {
                    QuestionId::new(self.rng.gen_range(0..bank))
                };
                let wobble = self.rng.gen_range(-0.15..0.15);
                let answer = Valence::new(self.base_valence(user) + drift + wobble);
                EventKind::EitAnswer { question, answer }
            }
            30..=37 => {
                EventKind::EitSkipped { question: QuestionId::new(self.rng.gen_range(0..bank)) }
            }
            // implicit navigation
            38..=67 => EventKind::Action {
                action: ActionId::new(self.rng.gen_range(0..984u32)),
                course: if self.rng.gen_bool(0.6) {
                    Some(CourseId::new(self.rng.gen_range(0..courses)))
                } else {
                    None
                },
            },
            68..=79 => EventKind::Transaction {
                course: CourseId::new(self.rng.gen_range(0..courses)),
                campaign: if !campaigns.is_empty() && self.rng.gen_bool(0.5) {
                    Some(campaigns[self.rng.gen_range(0..campaigns.len())])
                } else {
                    None
                },
            },
            80..=84 => EventKind::Rating {
                course: CourseId::new(self.rng.gen_range(0..courses)),
                stars: self.rng.gen_range(1..=5u8),
            },
            // messaging feedback, only while a flight is live
            _ => {
                if campaigns.is_empty() {
                    EventKind::Action {
                        action: ActionId::new(self.rng.gen_range(0..984u32)),
                        course: None,
                    }
                } else {
                    let campaign = campaigns[self.rng.gen_range(0..campaigns.len())];
                    if roll < 95 {
                        EventKind::MessageOpened { campaign }
                    } else {
                        EventKind::MessageDelivered { campaign }
                    }
                }
            }
        }
    }
}

impl Iterator for ScenarioEngine {
    type Item = TickBatch;

    fn next(&mut self) -> Option<TickBatch> {
        self.next_tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn run(spec: ScenarioSpec) -> Vec<TickBatch> {
        ScenarioEngine::new(spec).unwrap().collect()
    }

    #[test]
    fn identical_specs_yield_identical_streams() {
        let a = run(ScenarioSpec::production_weather(77, 60));
        let b = run(ScenarioSpec::production_weather(77, 60));
        assert_eq!(a, b);
        let c = run(ScenarioSpec::production_weather(78, 60));
        assert_ne!(a, c, "a different seed must change the stream");
        assert_eq!(a.len(), 60);
        assert!(a.iter().all(|t| t.events.len() == 40));
    }

    #[test]
    fn zipf_skew_concentrates_traffic_on_hot_users() {
        let spec = ScenarioSpec { zipf_exponent: 1.2, ..ScenarioSpec::steady(5, 50, 80) };
        let mut per_user: BTreeMap<u32, usize> = BTreeMap::new();
        for tick in run(spec) {
            for e in &tick.events {
                *per_user.entry(e.user.raw()).or_default() += 1;
            }
        }
        let total: usize = per_user.values().sum();
        let mut counts: Vec<usize> = per_user.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top5: usize = counts.iter().take(5).sum();
        // uniform traffic would give the top 5 of 50 users 10% of events
        assert!(
            top5 as f64 / total as f64 > 0.3,
            "top-5 users carry {top5}/{total} events — not Zipf-skewed"
        );
    }

    #[test]
    fn cohort_windows_gate_user_activity() {
        let spec = ScenarioSpec {
            cohorts: vec![
                CohortSpec { first_user: 0, users: 10, arrive_tick: 0, depart_tick: None },
                CohortSpec { first_user: 10, users: 10, arrive_tick: 20, depart_tick: Some(40) },
            ],
            ..ScenarioSpec::steady(9, 10, 60)
        };
        for tick in run(spec) {
            let wave_active = (20..40).contains(&tick.tick);
            assert_eq!(tick.active_users, if wave_active { 20 } else { 10 });
            for e in &tick.events {
                if e.user.raw() >= 10 {
                    assert!(
                        wave_active,
                        "user {} emitted at tick {} outside their cohort window",
                        e.user.raw(),
                        tick.tick
                    );
                }
            }
        }
    }

    #[test]
    fn no_cohort_active_yields_an_empty_tick() {
        let spec = ScenarioSpec {
            cohorts: vec![CohortSpec {
                first_user: 0,
                users: 5,
                arrive_tick: 10,
                depart_tick: None,
            }],
            ..ScenarioSpec::steady(3, 5, 20)
        };
        let ticks = run(spec);
        assert!(ticks[..10].iter().all(|t| t.events.is_empty() && t.active_users == 0));
        assert!(ticks[10..].iter().all(|t| !t.events.is_empty()));
    }

    #[test]
    fn campaign_attribution_respects_flight_windows() {
        let ticks = run(ScenarioSpec::production_weather(13, 90));
        let spec = ScenarioSpec::production_weather(13, 90);
        let mut attributed = 0;
        for tick in &ticks {
            for e in &tick.events {
                let campaign = match e.kind {
                    EventKind::Transaction { campaign, .. } => campaign,
                    EventKind::MessageOpened { campaign }
                    | EventKind::MessageDelivered { campaign } => Some(campaign),
                    _ => None,
                };
                if let Some(c) = campaign {
                    attributed += 1;
                    let phase = spec.campaigns.iter().find(|p| p.campaign == c).unwrap();
                    assert!(
                        phase.active_at(tick.tick),
                        "campaign {c:?} attributed at tick {} outside [{}, {})",
                        tick.tick,
                        phase.start_tick,
                        phase.stop_tick
                    );
                }
            }
        }
        assert!(attributed > 50, "flights must actually attribute events: {attributed}");
    }

    #[test]
    fn valence_drift_shifts_answers_over_time() {
        let mut spec = ScenarioSpec::steady(21, 30, 80);
        spec.drift = ValenceDrift { amplitude: 0.6, period_ticks: 160.0 };
        let ticks = run(spec);
        let mean_answer = |window: &[TickBatch]| {
            let mut sum = 0.0;
            let mut n = 0usize;
            for tick in window {
                for e in &tick.events {
                    if let EventKind::EitAnswer { answer, .. } = e.kind {
                        sum += answer.value();
                        n += 1;
                    }
                }
            }
            sum / n as f64
        };
        // a 160-tick period over 80 ticks is a rising half-wave: late
        // answers must be measurably sunnier than early ones
        let early = mean_answer(&ticks[..20]);
        let late = mean_answer(&ticks[40..]);
        assert!(
            late - early > 0.2,
            "drift must lift late answers: early {early:.3}, late {late:.3}"
        );
    }

    #[test]
    fn rejected_answers_target_out_of_bank_questions() {
        let mut spec = ScenarioSpec::steady(31, 40, 120);
        spec.rejected_per_1k = 200;
        let bank = spec.question_bank;
        let mut in_bank = 0;
        let mut out_of_bank = 0;
        for tick in run(spec) {
            for e in &tick.events {
                if let EventKind::EitAnswer { question, .. } = e.kind {
                    if question.raw() < bank {
                        in_bank += 1;
                    } else {
                        out_of_bank += 1;
                    }
                }
            }
        }
        assert!(out_of_bank > 0, "some answers must exercise the reject path");
        assert!(in_bank > out_of_bank * 2, "rejects stay a minority");
    }

    #[test]
    fn all_campaigns_lists_every_flight() {
        let engine = ScenarioEngine::new(ScenarioSpec::production_weather(1, 30)).unwrap();
        let campaigns = engine.all_campaigns();
        assert_eq!(campaigns.len(), 3);
        let ids: BTreeSet<u32> = campaigns.iter().map(|(c, _)| c.raw()).collect();
        assert_eq!(ids, BTreeSet::from([1, 2, 3]));
        assert!(campaigns.iter().all(|(_, appeal)| !appeal.is_empty()));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let good = ScenarioSpec::steady(0, 10, 10);
        assert!(ScenarioEngine::new(good.clone()).is_ok());
        for bad in [
            ScenarioSpec { ticks: 0, ..good.clone() },
            ScenarioSpec { events_per_tick: 0, ..good.clone() },
            ScenarioSpec { question_bank: 0, ..good.clone() },
            ScenarioSpec { zipf_exponent: -0.5, ..good.clone() },
            ScenarioSpec { rejected_per_1k: 1001, ..good.clone() },
            ScenarioSpec { cohorts: vec![], ..good.clone() },
            ScenarioSpec {
                cohorts: vec![CohortSpec {
                    first_user: 0,
                    users: 0,
                    arrive_tick: 0,
                    depart_tick: None,
                }],
                ..good.clone()
            },
            ScenarioSpec {
                cohorts: vec![CohortSpec {
                    first_user: 0,
                    users: 5,
                    arrive_tick: 10,
                    depart_tick: Some(10),
                }],
                ..good.clone()
            },
            ScenarioSpec {
                campaigns: vec![CampaignPhase {
                    campaign: CampaignId::new(9),
                    appeal: vec![],
                    start_tick: 5,
                    stop_tick: 5,
                }],
                ..good.clone()
            },
            ScenarioSpec {
                drift: ValenceDrift { amplitude: 0.1, period_ticks: 0.0 },
                ..good.clone()
            },
        ] {
            assert!(ScenarioEngine::new(bad).is_err());
        }
    }

    #[test]
    fn user_universe_spans_all_cohorts() {
        let spec = ScenarioSpec::production_weather(0, 30);
        assert_eq!(spec.user_universe(), 64);
        for tick in run(spec) {
            assert!(tick.events.iter().all(|e| e.user.raw() < 64));
        }
    }
}
