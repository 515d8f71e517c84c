//! Quickstart: stand up the SPA platform on a tiny synthetic world,
//! acquire a user's emotional context through the Gradual EIT, and watch
//! the message individualization change as the model learns.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use spa::prelude::*;

fn main() -> Result<(), SpaError> {
    // --- a tiny synthetic world -----------------------------------------
    let population = Population::generate(PopulationConfig { n_users: 100, ..Default::default() })?;
    let courses = CourseCatalog::generate(12, 4, 7)?;
    // the in-memory single-node platform: one shard, no write-ahead log
    let platform = ShardedSpa::new(&courses, SpaConfig::default(), 1)?;

    // one user, with latent ground truth we can peek at (the platform
    // itself never sees this)
    let user = UserId::new(42);
    let latent = population.user(user).expect("user 42 exists");
    println!("latent dominant emotion of {user}: {}\n", latent.dominant_emotion());

    // --- before any learning: the standard message ------------------------
    let course = courses.course(CourseId::new(0)).expect("course 0 exists").clone();
    println!("course appeal attributes: {:?}", course.appeal);
    let before = platform.assign_message(user, &course.appeal)?;
    println!("before learning  [{:?}] {}\n", before.case, before.text);

    // --- the Gradual EIT: one question per contact -------------------------
    let simulator = spa::synth::eit::AnswerSimulator::default();
    for round in 0..25 {
        let question = platform.next_eit_question(user);
        let event = simulator.react(
            latent,
            question.id,
            question.target,
            round,
            Timestamp::from_millis(round * 3_600_000),
        );
        platform.ingest(&event)?;
    }
    let stats = platform.stats();
    println!(
        "after 25 contacts: {} answers, {} skips (the sparsity problem)",
        stats.eit_answers, stats.eit_skips
    );

    // --- what the Smart User Model learned ---------------------------------
    let model = platform.model(user).expect("model materialized");
    println!("\ndiscovered emotional profile (estimate vs latent):");
    for (ordinal, emo) in EMOTIONAL_ATTRIBUTES.into_iter().enumerate() {
        let attr = platform.schema().emotional_ids()[ordinal];
        if model.relevance(attr) > 0.0 {
            println!(
                "  {:<14} estimate {:.2}   latent {:.2}",
                emo.name(),
                model.value(attr),
                latent.emotional[ordinal]
            );
        }
    }

    // --- the individualized message now -------------------------------------
    let after = platform.assign_message(user, &course.appeal)?;
    println!("\nafter learning   [{:?}] {}", after.case, after.text);

    // --- per-branch emotional-intelligence scores (Table 1 structure) --------
    let engine = platform.shard(platform.shard_of(user));
    let scores = engine.eit().branch_scores(engine.registry(), engine.schema(), user);
    println!("\nfour-branch EI scores:");
    for (branch, score) in BRANCHES.into_iter().zip(scores.scores) {
        match score {
            Some(s) => println!("  {branch}: {s:.2}"),
            None => println!("  {branch}: (not yet assessed)"),
        }
    }
    Ok(())
}
