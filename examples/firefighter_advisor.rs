//! The paper's future work (§7), reproduced: the wearIT@work scenario
//! where SPA maps firefighters' **physiological signals to emotional
//! context** so "the team commander … can better assess the operational
//! fitness of his colleague".
//!
//! Wearable signal windows are simulated per firefighter and latent
//! stress state, classified back into emotional evidence, fed into the
//! same Smart User Models the e-commerce deployment used, and summarized
//! for the commander as a fitness board plus each firefighter's Human
//! Values Scale.
//!
//! ```text
//! cargo run --example firefighter_advisor
//! ```

use spa::core::values::HumanValuesScale;
use spa::core::{SumConfig, SumRegistry};
use spa::prelude::*;
use spa::synth::physio::{self, StressState};

fn main() -> spa::types::Result<()> {
    let schema = AttributeSchema::emagister();
    let registry = SumRegistry::new(&schema, SumConfig::default());

    // a brigade of six, each currently in a latent stress state the
    // commander cannot observe directly
    let brigade = [
        ("Moreau", StressState::Focused),
        ("Dubois", StressState::Calm),
        ("Lefevre", StressState::Overloaded),
        ("Garnier", StressState::Focused),
        ("Rousseau", StressState::Overloaded),
        ("Petit", StressState::Calm),
    ];

    println!(
        "{:<10} {:>6} {:>6} {:>6}   {:<12} {:>8}  advice",
        "member", "HR", "EDA", "RR", "state", "fitness"
    );
    for (idx, (name, latent_state)) in brigade.iter().enumerate() {
        let user = UserId::new(idx as u32);
        // ten signal windows stream in from the wearable
        let mut last_reading = None;
        for window in 0..10u64 {
            let sample = physio::sample(*latent_state, idx as u64 * 1000 + window);
            let reading = physio::classify(&sample)?;
            // physiological evidence enters the SUM exactly like
            // Gradual-EIT answers: (attribute, valence) pairs
            registry.with_model(user, |model, config| -> spa::types::Result<()> {
                for &(emo, valence) in &reading.emotions {
                    let attr = schema.emotional_ids()[emo.ordinal()];
                    model.apply_eit_answer(attr, emo.ordinal(), valence, config)?;
                }
                Ok(())
            })?;
            last_reading = Some((sample, reading));
        }
        let (sample, reading) = last_reading.expect("ten windows streamed");
        let advice = match reading.state {
            StressState::Overloaded => "ROTATE OUT — acute stress",
            StressState::Focused => "engaged — good to continue",
            StressState::Calm => "in reserve — available",
        };
        println!(
            "{:<10} {:>6.0} {:>6.1} {:>6.0}   {:<12} {:>8}  {}",
            name,
            sample.heart_rate,
            sample.skin_conductance,
            sample.respiration,
            format!("{:?}", reading.state),
            reading.fitness.to_string(),
            advice
        );
        assert_eq!(reading.state, *latent_state, "ten windows must pin down the latent state");
    }

    // the commander can also inspect each member's emotional profile —
    // the same Human Values Scale the e-commerce deployment maintained
    println!("\nemotional profile of the overloaded member (Lefevre):");
    let scale = HumanValuesScale::from_registry(&registry, &schema, UserId::new(2))?;
    for rung in scale.ranks().iter().take(3) {
        println!("  #{} {:<12} strength {:.2}", rung.rank, rung.value.name(), rung.strength);
    }
    assert_eq!(scale.top().expect("signal present").value, EmotionalAttribute::Frightened);
    println!("\nwearIT@work advisory loop reproduced: signals → emotions → SUM → advice ✓");
    Ok(())
}
