//! Gradual-EIT answer simulation.
//!
//! §5.2: "when users answer questions (only one question every time that
//! push or newsletters are received) … their impacted emotional
//! attributes related with the questions are gradually activated", and
//! "in many occasions users do not answer questions which produce lack
//! of relevance feedback … and the effect known as the sparsity problem".
//!
//! The simulator decides, per (user, question, round), whether the user
//! answers at all (their latent response rate) and, if so, with what
//! valence (their latent sensibility for the probed attribute, plus
//! noise). The SPA pipeline only ever sees the emitted events.

use crate::population::LatentUser;
use rand::prelude::*;
use rand::rngs::StdRng;
use spa_types::{EmotionalAttribute, EventKind, LifeLogEvent, QuestionId, Timestamp, Valence};

/// Simulates users answering (or ignoring) Gradual-EIT questions.
#[derive(Debug, Clone)]
pub struct AnswerSimulator {
    /// Standard deviation of the answer-valence noise.
    pub noise: f64,
    /// RNG seed, combined with user/question/round for determinism.
    pub seed: u64,
}

impl Default for AnswerSimulator {
    fn default() -> Self {
        Self { noise: 0.10, seed: 0xE17 }
    }
}

impl AnswerSimulator {
    /// Simulates one user's reaction to one question probing `target`.
    ///
    /// Returns the LifeLog event the platform would record: an
    /// [`EventKind::EitAnswer`] carrying the expressed valence, or an
    /// [`EventKind::EitSkipped`] when the user ignores the question.
    pub fn react(
        &self,
        user: &LatentUser,
        question: QuestionId,
        target: EmotionalAttribute,
        round: u64,
        at: Timestamp,
    ) -> LifeLogEvent {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (user.id.raw() as u64).wrapping_mul(0x9E37_79B9)
                ^ (question.raw() as u64).wrapping_mul(0x85EB_CA6B)
                ^ round.wrapping_mul(0xC2B2_AE35),
        );
        if rng.gen::<f64>() >= user.eit_response_rate {
            return LifeLogEvent::new(user.id, at, EventKind::EitSkipped { question });
        }
        // Expressed valence: sensibility mapped from [0,1] to [-1,1],
        // with reporting noise.
        let sensibility = user.sensibility(target);
        let noise: f64 = {
            let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
            (s - 6.0) * self.noise
        };
        let answer = Valence::new(2.0 * sensibility - 1.0 + noise);
        LifeLogEvent::new(user.id, at, EventKind::EitAnswer { question, answer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Population, PopulationConfig};
    use spa_types::UserId;

    fn population() -> Population {
        Population::generate(PopulationConfig { n_users: 400, ..Default::default() }).unwrap()
    }

    #[test]
    fn reaction_is_deterministic() {
        let pop = population();
        let sim = AnswerSimulator::default();
        let user = pop.user(UserId::new(1)).unwrap();
        let a = sim.react(
            user,
            QuestionId::new(3),
            EmotionalAttribute::Hopeful,
            0,
            Timestamp::from_millis(5),
        );
        let b = sim.react(
            user,
            QuestionId::new(3),
            EmotionalAttribute::Hopeful,
            0,
            Timestamp::from_millis(5),
        );
        assert_eq!(a, b);
        let c = sim.react(
            user,
            QuestionId::new(3),
            EmotionalAttribute::Hopeful,
            1,
            Timestamp::from_millis(5),
        );
        // different round → independent draw (usually different outcome or noise)
        let differs = a != c;
        // The skip/answer decision could coincide; only require that the
        // event kinds are legal either way.
        let _ = differs;
    }

    #[test]
    fn response_rate_governs_skip_frequency() {
        let pop = population();
        let sim = AnswerSimulator::default();
        // Aggregate across users and rounds.
        let mut answered = 0u32;
        let mut total = 0u32;
        let mut expected = 0.0f64;
        for user in pop.users().take(200) {
            for round in 0..10u64 {
                let e = sim.react(
                    user,
                    QuestionId::new(round as u32),
                    EmotionalAttribute::Motivated,
                    round,
                    Timestamp::from_millis(0),
                );
                total += 1;
                expected += user.eit_response_rate;
                if matches!(e.kind, EventKind::EitAnswer { .. }) {
                    answered += 1;
                }
            }
        }
        let observed = answered as f64 / total as f64;
        let expected = expected / total as f64;
        assert!(
            (observed - expected).abs() < 0.05,
            "answer rate {observed:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn answers_track_latent_sensibility() {
        let pop = population();
        let sim = AnswerSimulator { noise: 0.05, seed: 0xE17 };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for user in pop.users() {
            for round in 0..5u64 {
                let e = sim.react(
                    user,
                    QuestionId::new(0),
                    EmotionalAttribute::Enthusiastic,
                    round,
                    Timestamp::from_millis(0),
                );
                if let EventKind::EitAnswer { answer, .. } = e.kind {
                    xs.push(user.sensibility(EmotionalAttribute::Enthusiastic));
                    ys.push(answer.value());
                }
            }
        }
        assert!(xs.len() > 100, "need a reasonable sample, got {}", xs.len());
        let r = spa_linalg::stats::correlation(&xs, &ys);
        assert!(r > 0.85, "answers must reflect latent sensibility, r = {r}");
    }

    #[test]
    fn skip_events_carry_the_question() {
        let pop = population();
        // Force skipping with a rate-0.02 user by hunting for one event.
        let sim = AnswerSimulator::default();
        let mut saw_skip = false;
        'outer: for user in pop.users() {
            for round in 0..20u64 {
                let e = sim.react(
                    user,
                    QuestionId::new(7),
                    EmotionalAttribute::Shy,
                    round,
                    Timestamp::from_millis(9),
                );
                if let EventKind::EitSkipped { question } = e.kind {
                    assert_eq!(question, QuestionId::new(7));
                    assert_eq!(e.user, user.id);
                    saw_skip = true;
                    break 'outer;
                }
            }
        }
        assert!(saw_skip, "with mean response 0.35 a skip must occur");
    }
}
