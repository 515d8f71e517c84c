//! Latent campaign-response model.
//!
//! The ground truth the paper could only observe through live campaign
//! redemption: the probability that a contacted user transacts. The
//! model is a logistic function of
//!
//! * the **match** between the emotional attribute the delivered message
//!   appeals to and the user's latent sensibility for it (the signal SPA
//!   exploits — §5.3's "if they catch their attention the sale is
//!   easier");
//! * the user's **base propensity** (partially explained by objective
//!   attributes, so non-emotional models retain some skill);
//! * an optional per-contact noise term.
//!
//! [`ResponseModel::calibrate_mixed`] bisects the intercept so the population
//! mean response matches a target rate — the paper's Fig 6(b) average
//! predictive score of ≈21% is the calibration target for E4.

use crate::population::{LatentUser, Population};
use rand::prelude::*;
use rand::rngs::StdRng;
use spa_linalg::dense::sigmoid;
use spa_types::{EmotionalAttribute, Result, SpaError};

/// Parameters of the logistic response model.
#[derive(Debug, Clone)]
pub struct ResponseConfig {
    /// Intercept (log-odds of responding with zero match and neutral
    /// propensity). Set by `ResponseModel::calibrate_mixed`.
    pub intercept: f64,
    /// Weight on the message/sensibility match term.
    pub match_weight: f64,
    /// Weight on the user's base propensity.
    pub propensity_weight: f64,
    /// Standard deviation of per-contact log-odds noise.
    pub noise: f64,
    /// Seed for the response draws.
    pub seed: u64,
}

impl Default for ResponseConfig {
    fn default() -> Self {
        Self {
            intercept: -2.2,
            match_weight: 5.5,
            propensity_weight: 1.4,
            noise: 0.10,
            seed: 0x5E5,
        }
    }
}

/// The latent response model.
#[derive(Debug, Clone)]
pub struct ResponseModel {
    config: ResponseConfig,
}

impl ResponseModel {
    /// Wraps a configuration.
    pub fn new(config: ResponseConfig) -> Self {
        Self { config }
    }

    /// Match term: the user's latent sensibility for the message's
    /// appeal attribute, centred so a neutral message contributes zero.
    /// `None` models a generic (standard, §5.3 case 3.a) message.
    fn match_term(user: &LatentUser, appeal: Option<EmotionalAttribute>) -> f64 {
        match appeal {
            Some(emo) => user.sensibility(emo) - 0.5,
            None => 0.0,
        }
    }

    /// True response probability for contacting `user` with a message
    /// appealing to `appeal` (deterministic — no noise term).
    pub fn probability(&self, user: &LatentUser, appeal: Option<EmotionalAttribute>) -> f64 {
        let z = self.config.intercept
            + self.config.match_weight * Self::match_term(user, appeal)
            + self.config.propensity_weight * user.base_propensity;
        sigmoid(z)
    }

    /// Draws the Bernoulli response for one contact. `contact_key`
    /// should uniquely identify the (campaign, user) pair so repeated
    /// simulation of the same contact is reproducible.
    pub fn responds(
        &self,
        user: &LatentUser,
        appeal: Option<EmotionalAttribute>,
        contact_key: u64,
    ) -> bool {
        let mut rng = StdRng::seed_from_u64(
            self.config.seed
                ^ contact_key.wrapping_mul(0x9E37_79B9)
                ^ (user.id.raw() as u64).wrapping_mul(0x85EB_CA6B),
        );
        let noise = if self.config.noise > 0.0 {
            let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
            (s - 6.0) * self.config.noise
        } else {
            0.0
        };
        let z = self.config.intercept
            + self.config.match_weight * Self::match_term(user, appeal)
            + self.config.propensity_weight * user.base_propensity
            + noise;
        rng.gen::<f64>() < sigmoid(z)
    }

    /// Mean response probability over a population when every user
    /// receives the message variant that best matches their latent
    /// profile (`best_match = true`) or a generic message (`false`).
    pub(crate) fn mean_probability(&self, population: &Population, best_match: bool) -> f64 {
        let total: f64 = population
            .users()
            .map(|u| {
                let appeal = if best_match { Some(u.dominant_emotion()) } else { None };
                self.probability(u, appeal)
            })
            .sum();
        total / population.len() as f64
    }

    /// Bisects the intercept so that the mean response probability over
    /// a *mixed* audience hits `target` (±1e-4): a fraction `coverage` of
    /// users receives their best-matching message and the rest the
    /// generic one. This pins the synthetic campaign's average response
    /// rate to the paper's observed ≈21%. The mix models the realistic
    /// campaign: the Gradual EIT only ever discovers sensibilities
    /// for part of the audience (§5.2's sparsity problem), so only part
    /// of the contacts are emotionally matched.
    pub fn calibrate_mixed(
        mut self,
        population: &Population,
        target: f64,
        coverage: f64,
    ) -> Result<Self> {
        if !(0.001..0.999).contains(&target) {
            return Err(SpaError::Invalid(format!("target rate {target} out of (0,1)")));
        }
        if !(0.0..=1.0).contains(&coverage) {
            return Err(SpaError::Invalid(format!("coverage {coverage} out of [0,1]")));
        }
        let mixed_mean = |model: &ResponseModel| {
            coverage * model.mean_probability(population, true)
                + (1.0 - coverage) * model.mean_probability(population, false)
        };
        let (mut lo, mut hi) = (-12.0f64, 12.0f64);
        for _ in 0..80 {
            let mid = (lo + hi) / 2.0;
            self.config.intercept = mid;
            if mixed_mean(&self) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.config.intercept = (lo + hi) / 2.0;
        let achieved = mixed_mean(&self);
        if (achieved - target).abs() > 0.01 {
            return Err(SpaError::Invalid(format!(
                "calibration failed: achieved {achieved:.4}, wanted {target:.4}"
            )));
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use spa_types::UserId;

    fn population() -> Population {
        Population::generate(PopulationConfig { n_users: 2000, ..Default::default() }).unwrap()
    }

    #[test]
    fn matched_messages_beat_generic_ones() {
        let pop = population();
        let model = ResponseModel::new(ResponseConfig::default());
        let matched = model.mean_probability(&pop, true);
        let generic = model.mean_probability(&pop, false);
        assert!(
            matched > generic + 0.03,
            "matched {matched:.3} must clearly exceed generic {generic:.3}"
        );
    }

    #[test]
    fn probability_is_monotone_in_sensibility() {
        let pop = population();
        let model = ResponseModel::new(ResponseConfig::default());
        // pick a user; probability with their dominant emotion must be
        // >= probability with their weakest emotion
        for user in pop.users().take(50) {
            let dom = user.dominant_emotion();
            let weakest = spa_types::EMOTIONAL_ATTRIBUTES
                .into_iter()
                .min_by(|&a, &b| user.sensibility(a).partial_cmp(&user.sensibility(b)).unwrap())
                .unwrap();
            assert!(model.probability(user, Some(dom)) >= model.probability(user, Some(weakest)));
        }
    }

    #[test]
    fn calibration_hits_the_target() {
        let pop = population();
        let model =
            ResponseModel::new(ResponseConfig::default()).calibrate_mixed(&pop, 0.21, 1.0).unwrap();
        let mean = model.mean_probability(&pop, true);
        assert!((mean - 0.21).abs() < 0.005, "calibrated mean {mean}");
    }

    #[test]
    fn calibration_rejects_absurd_targets() {
        let pop = population();
        assert!(ResponseModel::new(ResponseConfig::default())
            .calibrate_mixed(&pop, 0.0, 1.0)
            .is_err());
        assert!(ResponseModel::new(ResponseConfig::default())
            .calibrate_mixed(&pop, 1.0, 1.0)
            .is_err());
    }

    #[test]
    fn bernoulli_draws_match_probabilities_in_aggregate() {
        let pop = population();
        let model = ResponseModel::new(ResponseConfig { noise: 0.0, ..Default::default() })
            .calibrate_mixed(&pop, 0.2, 1.0)
            .unwrap();
        let mut hits = 0u32;
        for (k, user) in pop.users().enumerate() {
            if model.responds(user, Some(user.dominant_emotion()), k as u64) {
                hits += 1;
            }
        }
        let rate = hits as f64 / pop.len() as f64;
        assert!((rate - 0.2).abs() < 0.03, "empirical rate {rate}");
    }

    #[test]
    fn draws_are_deterministic_per_contact_key() {
        let pop = population();
        let model = ResponseModel::new(ResponseConfig::default());
        let user = pop.user(UserId::new(7)).unwrap();
        let a = model.responds(user, Some(EmotionalAttribute::Lively), 42);
        let b = model.responds(user, Some(EmotionalAttribute::Lively), 42);
        assert_eq!(a, b);
    }

    #[test]
    fn propensity_raises_response() {
        let pop = population();
        let model = ResponseModel::new(ResponseConfig::default());
        let mut lows = Vec::new();
        let mut highs = Vec::new();
        for user in pop.users() {
            let p = model.probability(user, None);
            if user.base_propensity > 0.5 {
                highs.push(p);
            } else if user.base_propensity < -0.5 {
                lows.push(p);
            }
        }
        assert!(!lows.is_empty() && !highs.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&highs) > mean(&lows) + 0.05);
    }
}
