//! Latent user population.
//!
//! Every synthetic user carries a *latent* (ground-truth) profile that
//! the SPA pipeline never sees directly:
//!
//! * ten **emotional sensibilities** in `[0, 1]` — how strongly each of
//!   the paper's emotional attributes resonates with the user. These
//!   drive both Gradual-EIT answers and campaign responses, exactly the
//!   correlation SPA exploits;
//! * 40 **objective** socio-demographic values (fully observable);
//! * 25 **subjective** navigation-temperament values (observable with
//!   noise once the user has WebLog history);
//! * a **base propensity** to transact, partially explained by the
//!   objective attributes (so non-emotional baselines have signal to
//!   learn) and partially idiosyncratic;
//! * an **activity level** (WebLog volume) and an **EIT response rate**
//!   (non-response creates the sparsity problem of §5.2).
//!
//! Emotional profiles are drawn from a small set of *archetypes* (the
//! "behavior patterns of users" the paper says classical systems mine)
//! plus per-user noise, which gives the population realistic cluster
//! structure for the CF baselines.

use rand::prelude::*;
use rand::rngs::StdRng;
use spa_types::{AttributeSchema, Result, SpaError, UserId, EMOTIONAL_ATTRIBUTES};

/// Number of emotional attributes (paper §5.1).
pub(crate) const N_EMOTIONAL: usize = 10;
/// Number of objective attributes in the emagister schema.
pub(crate) const N_OBJECTIVE: usize = 40;
/// Number of subjective attributes in the emagister schema.
pub(crate) const N_SUBJECTIVE: usize = 25;

/// Configuration for population generation.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of users to generate.
    pub n_users: usize,
    /// Number of emotional archetypes users blend from.
    pub n_archetypes: usize,
    /// Standard deviation of per-user deviation from the archetype.
    pub emotional_noise: f64,
    /// Mean probability that a user answers a Gradual-EIT question
    /// (per-user rates scatter around this).
    pub mean_eit_response: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            n_users: 10_000,
            n_archetypes: 6,
            emotional_noise: 0.12,
            mean_eit_response: 0.35,
            seed: 0xE11A,
        }
    }
}

/// Ground truth for one synthetic user.
#[derive(Debug, Clone)]
pub struct LatentUser {
    /// User identifier (dense, `0..n_users`).
    pub id: UserId,
    /// Archetype the emotional profile was blended from.
    pub archetype: usize,
    /// Latent emotional sensibilities in `[0, 1]`, indexed like
    /// [`EMOTIONAL_ATTRIBUTES`].
    pub emotional: [f64; N_EMOTIONAL],
    /// Objective attribute values in `[0, 1]`.
    pub objective: Vec<f64>,
    /// Subjective attribute values in `[0, 1]`.
    pub(crate) subjective: Vec<f64>,
    /// Baseline log-odds offset for transacting, roughly in `[-1, 1]`.
    pub(crate) base_propensity: f64,
    /// Relative WebLog volume in `(0, 1]`.
    pub(crate) activity: f64,
    /// Probability of answering any given EIT question.
    pub(crate) eit_response_rate: f64,
}

impl LatentUser {
    /// Latent sensibility for one emotional attribute.
    pub fn sensibility(&self, emo: spa_types::EmotionalAttribute) -> f64 {
        self.emotional[emo.ordinal()]
    }

    /// The user's dominant emotional attribute (highest sensibility).
    pub fn dominant_emotion(&self) -> spa_types::EmotionalAttribute {
        let mut best = 0;
        for i in 1..N_EMOTIONAL {
            if self.emotional[i] > self.emotional[best] {
                best = i;
            }
        }
        EMOTIONAL_ATTRIBUTES[best]
    }
}

/// A generated population plus the attribute schema it speaks.
#[derive(Debug, Clone)]
pub struct Population {
    schema: AttributeSchema,
    users: Vec<LatentUser>,
}

fn clamp01(v: f64) -> f64 {
    v.clamp(0.0, 1.0)
}

/// Approximate standard normal via the sum-of-uniforms method (Irwin–
/// Hall with n = 12); good enough for synthetic noise and avoids a
/// distribution dependency.
fn gauss(rng: &mut StdRng) -> f64 {
    let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
    s - 6.0
}

impl Population {
    /// Generates a deterministic population.
    pub fn generate(config: PopulationConfig) -> Result<Self> {
        if config.n_users == 0 {
            return Err(SpaError::Invalid("population needs at least one user".into()));
        }
        if config.n_archetypes == 0 {
            return Err(SpaError::Invalid("population needs at least one archetype".into()));
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Archetype emotional profiles: each archetype is strong on a
        // few attributes and weak on the rest.
        let archetypes: Vec<[f64; N_EMOTIONAL]> = (0..config.n_archetypes)
            .map(|_| {
                let mut profile = [0.0f64; N_EMOTIONAL];
                for slot in profile.iter_mut() {
                    // skewed toward low values; a handful of strong ones
                    let u: f64 = rng.gen();
                    *slot = u * u;
                }
                // guarantee at least one pronounced sensibility
                let peak = rng.gen_range(0..N_EMOTIONAL);
                profile[peak] = rng.gen_range(0.7..1.0);
                profile
            })
            .collect();

        // Objective weights that explain part of the base propensity —
        // shared across users so a linear model can recover them.
        let propensity_weights: Vec<f64> =
            (0..N_OBJECTIVE).map(|i| if i < 8 { rng.gen_range(-1.0..1.0) } else { 0.0 }).collect();

        let mut users = Vec::with_capacity(config.n_users);
        for id in 0..config.n_users {
            let archetype = rng.gen_range(0..config.n_archetypes);
            let mut emotional = archetypes[archetype];
            for value in emotional.iter_mut() {
                *value = clamp01(*value + gauss(&mut rng) * config.emotional_noise);
            }
            let objective: Vec<f64> = (0..N_OBJECTIVE).map(|_| rng.gen()).collect();
            // Subjective traits correlate mildly with the emotional
            // profile (navigation style reflects temperament).
            let subjective: Vec<f64> = (0..N_SUBJECTIVE)
                .map(|i| {
                    let linked = emotional[i % N_EMOTIONAL];
                    clamp01(0.5 * linked + 0.5 * rng.gen::<f64>())
                })
                .collect();
            let explained: f64 =
                objective.iter().zip(propensity_weights.iter()).map(|(x, w)| (x - 0.5) * w).sum();
            let base_propensity = (1.4 * explained + 0.22 * gauss(&mut rng)).clamp(-1.5, 1.5);
            let activity = rng.gen::<f64>().powf(0.6).max(0.02);
            let eit_response_rate =
                clamp01(config.mean_eit_response + 0.2 * gauss(&mut rng)).clamp(0.02, 0.98);
            users.push(LatentUser {
                id: UserId::new(id as u32),
                archetype,
                emotional,
                objective,
                subjective,
                base_propensity,
                activity,
                eit_response_rate,
            });
        }
        Ok(Self { schema: AttributeSchema::emagister(), users })
    }

    /// The 75-attribute emagister schema this population speaks.
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when empty (cannot happen via [`Population::generate`]).
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Latent record for one user.
    pub fn user(&self, id: UserId) -> Option<&LatentUser> {
        self.users.get(id.index())
    }

    /// Iterates over all users.
    pub fn users(&self) -> impl Iterator<Item = &LatentUser> {
        self.users.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Population {
        Population::generate(PopulationConfig { n_users: 500, ..Default::default() }).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        for (ua, ub) in a.users().zip(b.users()) {
            assert_eq!(ua.emotional, ub.emotional);
            assert_eq!(ua.base_propensity, ub.base_propensity);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = small();
        let b = Population::generate(PopulationConfig {
            n_users: 500,
            seed: 999,
            ..Default::default()
        })
        .unwrap();
        let same = a.users().zip(b.users()).filter(|(ua, ub)| ua.emotional == ub.emotional).count();
        assert!(same < 5, "{same} users identical across seeds");
    }

    #[test]
    fn values_are_in_range() {
        let p = small();
        for u in p.users() {
            assert!(u.emotional.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(u.objective.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(u.subjective.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!((-1.5..=1.5).contains(&u.base_propensity));
            assert!(u.activity > 0.0 && u.activity <= 1.0);
            assert!((0.02..=0.98).contains(&u.eit_response_rate));
        }
    }

    #[test]
    fn schema_matches_paper_dimensions() {
        let p = small();
        assert_eq!(p.schema().len(), 75);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(
            Population::generate(PopulationConfig { n_users: 0, ..Default::default() }).is_err()
        );
        assert!(Population::generate(PopulationConfig { n_archetypes: 0, ..Default::default() })
            .is_err());
    }

    #[test]
    fn archetypes_create_cluster_structure() {
        let p = Population::generate(PopulationConfig {
            n_users: 600,
            n_archetypes: 4,
            emotional_noise: 0.08,
            ..Default::default()
        })
        .unwrap();
        // mean within-archetype distance < mean cross-archetype distance
        let users: Vec<&LatentUser> = p.users().collect();
        let dist = |a: &LatentUser, b: &LatentUser| -> f64 {
            a.emotional
                .iter()
                .zip(b.emotional.iter())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let (mut within, mut wn, mut cross, mut cn) = (0.0, 0u32, 0.0, 0u32);
        for i in (0..users.len()).step_by(7) {
            for j in (i + 1..users.len()).step_by(11) {
                let d = dist(users[i], users[j]);
                if users[i].archetype == users[j].archetype {
                    within += d;
                    wn += 1;
                } else {
                    cross += d;
                    cn += 1;
                }
            }
        }
        assert!(wn > 0 && cn > 0);
        let (mean_within, mean_cross) = (within / wn as f64, cross / cn as f64);
        assert!(
            mean_within < mean_cross,
            "archetype clusters should be tighter than the population"
        );
    }

    #[test]
    fn dominant_emotion_is_argmax() {
        let p = small();
        let u = p.user(UserId::new(0)).unwrap();
        let dom = u.dominant_emotion();
        let max = u.emotional.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(u.sensibility(dom), max);
    }

    #[test]
    fn base_propensity_correlates_with_objective_attrs() {
        // The first 8 objective attributes carry propensity weights, so
        // a regression of propensity on them should beat noise.
        let p =
            Population::generate(PopulationConfig { n_users: 3000, ..Default::default() }).unwrap();
        // crude check: correlation of propensity with the best single
        // objective attribute exceeds what random noise would give
        let mut best = 0.0f64;
        for attr in 0..8 {
            let xs: Vec<f64> = p.users().map(|u| u.objective[attr]).collect();
            let ys: Vec<f64> = p.users().map(|u| u.base_propensity).collect();
            best = best.max(spa_linalg::stats::correlation(&xs, &ys).abs());
        }
        assert!(best > 0.1, "objective attrs should explain propensity, best |r| = {best}");
    }
}
