//! Campaign execution.
//!
//! One campaign, per §5.2–§5.4:
//!
//! 1. a random target audience is drawn from the population (the paper
//!    targeted 1,340,432 random users per campaign);
//! 2. every targeted user receives **one Gradual-EIT question** with the
//!    contact ("only one question every time that push or newsletters
//!    are received") — answers flow back into the SUM;
//! 3. the Messaging Agent assigns each user an individualized message
//!    for the campaign's course (§5.3);
//! 4. the user responds or not according to the latent
//!    [`ResponseModel`] — a response is a *useful impact* (transaction);
//! 5. outcomes feed back as LifeLog events: opens reward the appealed
//!    attributes, ignored messages punish them (Fig 4).

use rand::prelude::*;
use rand::rngs::StdRng;
use spa_core::messaging::AssignedMessage;
use spa_core::ShardedSpa;
use spa_synth::catalog::Course;
use spa_synth::{Population, ResponseModel};
use spa_types::{
    CampaignId, EmotionalAttribute, EventKind, LifeLogEvent, Result, SpaError, Timestamp, UserId,
};

/// Delivery channel (metadata; both behave identically in the response
/// model, matching the paper's pooled analysis of the ten campaigns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Push notification.
    Push,
    /// E-mail newsletter.
    Newsletter,
}

impl Channel {
    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Channel::Push => "push",
            Channel::Newsletter => "newsletter",
        }
    }
}

/// Specification of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Identifier.
    pub id: CampaignId,
    /// Channel.
    pub channel: Channel,
    /// Number of users to target (drawn uniformly at random).
    pub target_size: usize,
    /// Course being promoted (its `appeal` drives the sales talk).
    pub course: Course,
    /// Simulated send time.
    pub at: Timestamp,
    /// Seed for audience sampling.
    pub seed: u64,
}

/// Per-user record of one contact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactRecord {
    /// Contacted user.
    pub user: UserId,
    /// Selection-function score at send time (NaN when the model was
    /// untrained — training campaigns).
    pub score: f64,
    /// Emotional attribute of the assigned message (`None` = standard).
    pub(crate) appeal: Option<EmotionalAttribute>,
    /// Whether the user transacted (a useful impact).
    pub responded: bool,
}

/// Aggregate outcome of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Channel.
    pub(crate) channel: Channel,
    /// Per-contact records (one per targeted user).
    pub contacts: Vec<ContactRecord>,
    /// Useful impacts (responses).
    pub responses: usize,
}

impl CampaignOutcome {
    /// The paper's **predictive score**: useful impacts over targets.
    pub(crate) fn predictive_score(&self) -> f64 {
        if self.contacts.is_empty() {
            0.0
        } else {
            self.responses as f64 / self.contacts.len() as f64
        }
    }
}

/// Executes campaigns against a platform + latent population.
pub struct CampaignRunner<'a> {
    population: &'a Population,
    response: &'a ResponseModel,
}

impl<'a> CampaignRunner<'a> {
    /// Creates a runner.
    pub fn new(population: &'a Population, response: &'a ResponseModel) -> Self {
        Self { population, response }
    }

    /// Draws the random audience for a spec.
    pub(crate) fn draw_audience(&self, spec: &CampaignSpec) -> Vec<UserId> {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ spec.id.raw() as u64);
        let n = self.population.len();
        let target = spec.target_size.min(n);
        rand::seq::index::sample(&mut rng, n, target)
            .into_iter()
            .map(|i| UserId::new(i as u32))
            .collect()
    }

    /// The Fig-6 deployment shape: draw the spec's random candidate
    /// audience, then keep only the top `fraction` by trained
    /// propensity ("the effort to send Push and newsletters", Fig 6a —
    /// the platform contacts the best slice, not everyone). Selection
    /// goes through [`ShardedSpa::rank_top_k`], so the candidate pool is
    /// scored once and never fully sorted; the contacted set is
    /// identical to ranking everything and taking the head.
    pub fn draw_targeted_audience(
        &self,
        spa: &ShardedSpa,
        spec: &CampaignSpec,
        fraction: f64,
    ) -> Result<Vec<UserId>> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(SpaError::Invalid(format!("fraction {fraction} out of [0,1]")));
        }
        let candidates = self.draw_audience(spec);
        let k = ((candidates.len() as f64) * fraction).round() as usize;
        Ok(spa.rank_top_k(&candidates, k)?.into_iter().map(|(user, _)| user).collect())
    }

    /// Runs one campaign serially, contacts in audience order.
    /// `score_user` supplies the selection-function score recorded per
    /// contact (pass a constant for untrained runs); it also receives
    /// the message the platform is about to send — known before the
    /// response, so legitimate scoring input. The serial reference for
    /// [`Self::run_collect`].
    pub fn run(
        &self,
        spa: &ShardedSpa,
        spec: &CampaignSpec,
        mut score_user: impl FnMut(&ShardedSpa, UserId, &AssignedMessage) -> f64,
    ) -> Result<CampaignOutcome> {
        if spec.course.appeal.is_empty() {
            return Err(SpaError::Invalid("campaign course has no appeal attributes".into()));
        }
        spa.register_campaign(spec.id, &spec.course.appeal);
        let audience = self.draw_audience(spec);
        let mut contacts = Vec::with_capacity(audience.len());
        let mut responses = 0usize;
        for (k, user) in audience.into_iter().enumerate() {
            let (record, ()) = self.contact(spa, spec, k, user, |spa, user, message| {
                (score_user(spa, user, message), ())
            })?;
            responses += record.responded as usize;
            contacts.push(record);
        }
        Ok(CampaignOutcome { channel: spec.channel, contacts, responses })
    }

    /// Runs one campaign with contacts fanned out across the pool's
    /// threads (inline on the caller at one thread), collecting an
    /// extra per-contact payload from the hook.
    ///
    /// Contacts of one campaign touch *distinct* users (the audience is
    /// sampled without replacement), every SUM mutation is per-user
    /// behind the sharded registry locks, and the response draw is
    /// keyed by `(campaign, contact index)` — so contacts are
    /// independent and the outcome is **byte-identical at any thread
    /// count**, including 1. The hook must be a pure function of the
    /// platform state for its user.
    pub fn run_collect<T: Send>(
        &self,
        spa: &ShardedSpa,
        spec: &CampaignSpec,
        contact_hook: impl Fn(&ShardedSpa, UserId, &AssignedMessage) -> (f64, T) + Sync,
    ) -> Result<(CampaignOutcome, Vec<T>)> {
        if spec.course.appeal.is_empty() {
            return Err(SpaError::Invalid("campaign course has no appeal attributes".into()));
        }
        spa.register_campaign(spec.id, &spec.course.appeal);
        let audience = self.draw_audience(spec);
        use rayon::prelude::*;
        let results: Vec<Result<(ContactRecord, T)>> = (0..audience.len())
            .into_par_iter()
            .map(|k| self.contact(spa, spec, k, audience[k], &contact_hook))
            .collect();
        let mut contacts = Vec::with_capacity(results.len());
        let mut payloads = Vec::with_capacity(results.len());
        let mut responses = 0usize;
        for result in results {
            let (record, payload) = result?;
            responses += record.responded as usize;
            contacts.push(record);
            payloads.push(payload);
        }
        Ok((CampaignOutcome { channel: spec.channel, contacts, responses }, payloads))
    }

    /// One contact: delivery, the contact's single EIT question, message
    /// assignment, scoring, latent response draw and reward/punish
    /// feedback. Touches only `user`'s state, so contacts of distinct
    /// users commute.
    fn contact<T>(
        &self,
        spa: &ShardedSpa,
        spec: &CampaignSpec,
        k: usize,
        user: UserId,
        contact_hook: impl FnOnce(&ShardedSpa, UserId, &AssignedMessage) -> (f64, T),
    ) -> Result<(ContactRecord, T)> {
        let latent =
            self.population.user(user).ok_or_else(|| SpaError::NotFound(format!("user {user}")))?;

        // contact: delivery + the one EIT question of this contact
        spa.ingest(&LifeLogEvent::new(
            user,
            spec.at,
            EventKind::MessageDelivered { campaign: spec.id },
        ))?;
        let question = spa.next_eit_question(user);
        let eit_event = spa_synth::eit::AnswerSimulator::default().react(
            latent,
            question.id,
            question.target,
            spec.id.raw() as u64,
            spec.at,
        );
        spa.ingest(&eit_event)?;

        // individualized message (§5.3)
        let message = spa.assign_message(user, &spec.course.appeal)?;
        let (score, payload) = contact_hook(spa, user, &message);

        // latent response draw
        let contact_key = (spec.id.raw() as u64) << 32 | k as u64;
        let responded = self.response.responds(latent, message.attribute, contact_key);
        if responded {
            spa.ingest(&LifeLogEvent::new(
                user,
                spec.at.plus_millis(60_000),
                EventKind::MessageOpened { campaign: spec.id },
            ))?;
            spa.ingest(&LifeLogEvent::new(
                user,
                spec.at.plus_millis(120_000),
                EventKind::Transaction { course: spec.course.id, campaign: Some(spec.id) },
            ))?;
        } else {
            spa.punish_ignored(user, spec.id)?;
        }
        Ok((ContactRecord { user, score, appeal: message.attribute, responded }, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spa_core::platform::SpaConfig;
    use spa_synth::catalog::CourseCatalog;
    use spa_synth::{PopulationConfig, ResponseConfig};

    fn setup() -> (Population, ResponseModel, CourseCatalog, ShardedSpa) {
        let population =
            Population::generate(PopulationConfig { n_users: 800, ..Default::default() }).unwrap();
        let response = ResponseModel::new(ResponseConfig::default())
            .calibrate_mixed(&population, 0.21, 0.2)
            .unwrap();
        let courses = CourseCatalog::generate(20, 5, 4).unwrap();
        let spa = ShardedSpa::new(&courses, SpaConfig, 1).unwrap();
        (population, response, courses, spa)
    }

    fn spec(courses: &CourseCatalog, id: u32, size: usize) -> CampaignSpec {
        CampaignSpec {
            id: CampaignId::new(id),
            channel: if id.is_multiple_of(5) { Channel::Newsletter } else { Channel::Push },
            target_size: size,
            course: courses.course(spa_types::CourseId::new(id % 20)).unwrap().clone(),
            at: Timestamp::from_millis(id as u64 * 1000),
            seed: 0xCAFE,
        }
    }

    #[test]
    fn audience_is_random_but_deterministic() {
        let (population, response, courses, _) = setup();
        let runner = CampaignRunner::new(&population, &response);
        let s = spec(&courses, 1, 300);
        let a = runner.draw_audience(&s);
        let b = runner.draw_audience(&s);
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
        let unique: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), 300, "sampling without replacement");
        let s2 = spec(&courses, 2, 300);
        assert_ne!(runner.draw_audience(&s2), a, "different campaigns draw differently");
    }

    #[test]
    fn targeted_audience_is_the_ranked_prefix() {
        let (population, response, courses, spa) = setup();
        let runner = CampaignRunner::new(&population, &response);
        // build differentiated user models + a trained selection
        let warmup = spec(&courses, 8, 400);
        runner.run(&spa, &warmup, |_, _, _| 0.0).unwrap();
        let mut data = spa_ml::Dataset::new(75);
        for raw in (0..800u32).step_by(4) {
            let row = spa.advice_row(UserId::new(raw)).unwrap();
            let label = if row.get(65) > 0.4 { 1.0 } else { -1.0 };
            data.push(&row, label).unwrap();
        }
        spa.train_selection(&data).unwrap();

        let s = spec(&courses, 9, 500);
        let targeted = runner.draw_targeted_audience(&spa, &s, 0.3).unwrap();
        let candidates = runner.draw_audience(&s);
        let ranked = spa.rank(&candidates).unwrap();
        let expected: Vec<UserId> =
            ranked[..targeted.len()].iter().map(|&(user, _)| user).collect();
        assert_eq!(targeted.len(), 150, "30% of 500 candidates");
        assert_eq!(targeted, expected, "top-k must equal the full-ranking prefix");
        assert!(runner.draw_targeted_audience(&spa, &s, 1.2).is_err());
        assert!(runner.draw_targeted_audience(&spa, &s, 0.0).unwrap().is_empty());
    }

    #[test]
    fn oversized_target_clamps_to_population() {
        let (population, response, courses, _) = setup();
        let runner = CampaignRunner::new(&population, &response);
        let s = spec(&courses, 3, 5000);
        assert_eq!(runner.draw_audience(&s).len(), 800);
    }

    #[test]
    fn campaign_produces_contacts_and_responses() {
        let (population, response, courses, spa) = setup();
        let runner = CampaignRunner::new(&population, &response);
        let s = spec(&courses, 4, 400);
        let outcome = runner.run(&spa, &s, |_, _, _| 0.0).unwrap();
        assert_eq!(outcome.contacts.len(), 400);
        assert_eq!(outcome.responses, outcome.contacts.iter().filter(|c| c.responded).count());
        // calibrated near 21% but messages are model-assigned, so allow slack
        let rate = outcome.predictive_score();
        assert!((0.03..0.5).contains(&rate), "response rate {rate}");
        // feedback loop left traces in the platform
        assert_eq!(spa.stats().deliveries, 400);
        assert!(spa.stats().opens as usize == outcome.responses);
        assert!(spa.stats().transactions as usize >= outcome.responses);
    }

    #[test]
    fn campaign_is_deterministic() {
        let (population, response, courses, _) = setup();
        let runner = CampaignRunner::new(&population, &response);
        let s = spec(&courses, 5, 200);
        let spa_a = ShardedSpa::new(&courses, SpaConfig, 1).unwrap();
        let spa_b = ShardedSpa::new(&courses, SpaConfig, 1).unwrap();
        let a = runner.run(&spa_a, &s, |_, _, _| 0.0).unwrap();
        let b = runner.run(&spa_b, &s, |_, _, _| 0.0).unwrap();
        assert_eq!(a.contacts, b.contacts);
        assert_eq!(a.responses, b.responses);
    }

    #[test]
    fn empty_appeal_is_rejected() {
        let (population, response, courses, spa) = setup();
        let runner = CampaignRunner::new(&population, &response);
        let mut s = spec(&courses, 6, 10);
        s.course.appeal.clear();
        assert!(runner.run(&spa, &s, |_, _, _| 0.0).is_err());
    }

    #[test]
    fn predictive_score_of_empty_campaign_is_zero() {
        let outcome = CampaignOutcome { channel: Channel::Push, contacts: vec![], responses: 0 };
        assert_eq!(outcome.predictive_score(), 0.0);
    }

    #[test]
    fn channel_names() {
        assert_eq!(Channel::Push.name(), "push");
        assert_eq!(Channel::Newsletter.name(), "newsletter");
    }
}
