//! Fig 4 bench: regenerates the iterative emotional-attribute discovery
//! loop (coverage/fidelity over EIT rounds) and times one full EIT
//! contact round plus the reward/punish update path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spa_core::platform::SpaConfig;
use spa_core::ShardedSpa;
use spa_synth::catalog::CourseCatalog;
use spa_synth::eit::AnswerSimulator;
use spa_synth::{Population, PopulationConfig};
use spa_types::{CampaignId, EmotionalAttribute, EventKind, LifeLogEvent, Timestamp};
use std::hint::black_box;

fn regenerate_fig4() {
    let n_users = 1_000;
    let population =
        Population::generate(PopulationConfig { n_users, ..Default::default() }).unwrap();
    let courses = CourseCatalog::generate(20, 4, 5).unwrap();
    let spa = ShardedSpa::new(&courses, SpaConfig::default(), 1).unwrap();
    let sim = AnswerSimulator::default();
    println!("\n=== regenerated Fig 4 convergence (coverage / fidelity by round) ===");
    for round in 0..18u64 {
        for user in population.users() {
            let q = spa.next_eit_question(user.id);
            let e = sim.react(user, q.id, q.target, round, Timestamp::from_millis(round));
            spa.ingest(&e).unwrap();
        }
        if round % 6 == 5 {
            let ids = spa.schema().emotional_ids();
            let mut observed = 0usize;
            let mut est = Vec::new();
            let mut truth = Vec::new();
            for user in population.users() {
                if let Some(m) = spa.model(user.id) {
                    for (o, &attr) in ids.iter().enumerate() {
                        if m.relevance(attr) > 0.0 {
                            observed += 1;
                            est.push(m.value(attr));
                            truth.push(user.emotional[o]);
                        }
                    }
                }
            }
            println!(
                "round {:>2}: coverage {:>5.1}%  fidelity r = {:.3}",
                round + 1,
                100.0 * observed as f64 / (n_users * 10) as f64,
                spa_linalg::stats::correlation(&est, &truth)
            );
        }
    }
    println!();
}

fn bench_eit_round(c: &mut Criterion) {
    let population =
        Population::generate(PopulationConfig { n_users: 1_000, ..Default::default() }).unwrap();
    let courses = CourseCatalog::generate(20, 4, 5).unwrap();
    let sim = AnswerSimulator::default();
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    group.bench_function("eit_contact_round_1000_users", |b| {
        b.iter_batched(
            || ShardedSpa::new(&courses, SpaConfig::default(), 1).unwrap(),
            |spa| {
                for user in population.users() {
                    let q = spa.next_eit_question(user.id);
                    let e = sim.react(user, q.id, q.target, 0, Timestamp::from_millis(0));
                    spa.ingest(&e).unwrap();
                }
                black_box(spa.stats().eit_answers)
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

fn bench_reward_punish(c: &mut Criterion) {
    let courses = CourseCatalog::generate(20, 4, 5).unwrap();
    let spa = ShardedSpa::new(&courses, SpaConfig::default(), 1).unwrap();
    let campaign = CampaignId::new(1);
    spa.register_campaign(campaign, &[EmotionalAttribute::Hopeful, EmotionalAttribute::Lively]);
    let user = spa_types::UserId::new(1);
    let open =
        LifeLogEvent::new(user, Timestamp::from_millis(0), EventKind::MessageOpened { campaign });
    let mut group = c.benchmark_group("fig4");
    group.bench_function("reward_open_event", |b| b.iter(|| spa.ingest(black_box(&open)).unwrap()));
    group.bench_function("punish_ignored", |b| {
        b.iter(|| spa.punish_ignored(black_box(user), black_box(campaign)).unwrap())
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    regenerate_fig4();
    bench_eit_round(c);
    bench_reward_punish(c);
}

criterion_group!(fig4, benches);
criterion_main!(fig4);
