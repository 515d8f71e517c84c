//! The Fig 3 agent architecture, live: raw LifeLog events enter the
//! LifeLogs Pre-processor Agent, model changes flow to the Attributes
//! Manager Agent, and the Messaging Agent composes individualized
//! messages that the Smart Component collects — all over the
//! deterministic message-passing runtime.
//!
//! ```text
//! cargo run --example agents_pipeline
//! ```

use spa::core::agents::{
    names, AttributesManagerAgent, MessagingActor, PreprocessorAgent, SmartComponentAgent,
    SpaMessage,
};
use spa::core::attributes::AttributesManager;
use spa::core::preprocessor::LifeLogPreprocessor;
use spa::core::{EitEngine, MessageCatalog, MessagePolicy, SumRegistry};
use spa::prelude::*;
use spa_agents::StepRuntime;
use std::sync::Arc;

fn main() -> Result<(), SpaError> {
    // shared platform state (the blackboard of Fig 3)
    let schema = AttributeSchema::emagister();
    let registry = Arc::new(SumRegistry::new(&schema));
    let courses = CourseCatalog::generate(20, 4, 2)?;
    let preprocessor = Arc::new(LifeLogPreprocessor::new(schema.clone(), &courses));
    let eit = Arc::new(EitEngine::standard());
    let manager = Arc::new(AttributesManager::new(schema));
    let messaging = Arc::new(spa::core::messaging::MessagingAgent::new(
        MessageCatalog::standard_catalog("the Data Engineering course"),
        MessagePolicy::MaxSensibility,
    ));
    let collector = SmartComponentAgent::default();
    let composed = collector.composed.clone();

    // wire the four agents
    let mut runtime = StepRuntime::new();
    runtime.register(
        names::PREPROCESSOR,
        Box::new(PreprocessorAgent::new(registry.clone(), preprocessor, eit.clone())),
    )?;
    runtime.register(
        names::ATTRIBUTES_MANAGER,
        Box::new(AttributesManagerAgent::new(registry.clone(), manager.clone())),
    )?;
    runtime.register(
        names::MESSAGING,
        Box::new(MessagingActor::new(registry.clone(), manager, messaging)),
    )?;
    runtime.register(names::SMART_COMPONENT, Box::new(collector))?;

    // simulate three users answering EIT questions with different
    // emotional signatures
    let population = Population::generate(PopulationConfig { n_users: 3, ..Default::default() })?;
    let simulator = spa::synth::eit::AnswerSimulator::default();
    for round in 0..20u64 {
        for user in population.users() {
            let question = eit.next_question(&registry, user.id);
            let event = simulator.react(
                user,
                question.id,
                question.target,
                round,
                Timestamp::from_millis(round),
            );
            runtime.post(names::PREPROCESSOR, SpaMessage::Raw(event));
        }
    }
    // then ask for one message per user
    for user in population.users() {
        runtime.post(
            names::MESSAGING,
            SpaMessage::Compose {
                user: user.id,
                course: CourseId::new(0),
                appeal: vec![
                    EmotionalAttribute::Enthusiastic,
                    EmotionalAttribute::Hopeful,
                    EmotionalAttribute::Shy,
                ],
            },
        );
    }

    let delivered = runtime.run_to_quiescence(100_000)?;
    println!("runtime delivered {delivered} messages between agents\n");
    for (user, course, message) in composed.lock().iter() {
        let latent = population.user(*user).expect("generated above");
        println!(
            "{user} (latent dominant: {:<12}) → {course} [{:?}] {}",
            latent.dominant_emotion().name(),
            message.case,
            message.text
        );
    }
    assert_eq!(composed.lock().len(), 3);
    assert!(runtime.dead_letters().is_empty());
    println!("\nFig 3 pipeline ran to quiescence with no dead letters ✓");
    Ok(())
}
