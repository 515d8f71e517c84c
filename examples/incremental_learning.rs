//! Reproduction of the paper's **Fig 4** loop (experiment E6): the
//! iterative, non-intrusive discovery of emotional attributes through
//! the Gradual EIT plus the reward/punish mechanism.
//!
//! The script measures, round by round:
//! * the **coverage** of the emotional block (answers incorporated —
//!   rising as one question per contact goes out);
//! * the **fidelity** of the discovered sensibilities (correlation with
//!   the latent ground truth the simulator holds);
//! * the **sparsity** of the user×attribute matrix, which the paper
//!   singles out as the obstacle SVMs must cope with.
//!
//! ```text
//! cargo run --release --example incremental_learning
//! ```

use spa::prelude::*;

fn main() -> Result<(), SpaError> {
    let n_users = 3_000;
    let rounds = 30u64;
    let population = Population::generate(PopulationConfig { n_users, ..Default::default() })?;
    let courses = CourseCatalog::generate(40, 8, 11)?;
    let platform = ShardedSpa::new(&courses, SpaConfig::default(), 1)?;
    let simulator = spa::synth::eit::AnswerSimulator::default();

    println!("{:>6} {:>10} {:>10} {:>10}", "round", "coverage", "fidelity", "sparsity");
    for round in 0..rounds {
        // one EIT question per user per contact round
        for user in population.users() {
            let question = platform.next_eit_question(user.id);
            let event = simulator.react(
                user,
                question.id,
                question.target,
                round,
                Timestamp::from_millis(round * 86_400_000),
            );
            platform.ingest(&event)?;
        }
        if round % 3 != 2 {
            continue;
        }
        // measure fidelity: correlation of discovered vs latent
        // sensibilities over all observed emotional entries
        let emotional_ids = platform.schema().emotional_ids();
        let mut discovered = Vec::new();
        let mut latent = Vec::new();
        let mut observed_cells = 0usize;
        for user in population.users() {
            if let Some(model) = platform.model(user.id) {
                for (ordinal, &attr) in emotional_ids.iter().enumerate() {
                    if model.relevance(attr) > 0.0 {
                        discovered.push(model.value(attr));
                        latent.push(user.emotional[ordinal]);
                        observed_cells += 1;
                    }
                }
            }
        }
        let total_cells = n_users * 10;
        let coverage = observed_cells as f64 / total_cells as f64;
        let fidelity = spa::linalg::stats::correlation(&discovered, &latent);
        println!(
            "{:>6} {:>9.1}% {:>10.3} {:>9.1}%",
            round + 1,
            coverage * 100.0,
            fidelity,
            (1.0 - coverage) * 100.0
        );
    }

    // --- reward/punish: campaign feedback sharpens one attribute ---------
    println!("\nreward/punish demonstration (Fig 4's update stage):");
    let user = population.users().next().expect("non-empty").id;
    let campaign = CampaignId::new(900);
    platform.register_campaign(campaign, &[EmotionalAttribute::Motivated]);
    let attr = platform.schema().emotional_ids()[EmotionalAttribute::Motivated.ordinal()];
    let before = platform.model(user).map(|m| m.value(attr)).unwrap_or(0.0);
    for i in 0..5 {
        platform.ingest(&LifeLogEvent::new(
            user,
            Timestamp::from_millis(i),
            EventKind::MessageOpened { campaign },
        ))?;
    }
    let after_rewards = platform.model(user).map(|m| m.value(attr)).unwrap_or(0.0);
    for _ in 0..5 {
        platform.punish_ignored(user, campaign)?;
    }
    let after_punish = platform.model(user).map(|m| m.value(attr)).unwrap_or(0.0);
    println!("  motivated estimate: {before:.3} → {after_rewards:.3} after 5 opens → {after_punish:.3} after 5 ignores");
    assert!(after_rewards > before && after_punish < after_rewards);
    println!("\nFig 4 loop reproduced: coverage grows, fidelity stays high, sparsity falls ✓");
    Ok(())
}
