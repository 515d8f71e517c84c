//! Table 1 bench: regenerates the Four-Branch Model table and times the
//! Gradual-EIT scheduler and branch-score computation.

use criterion::{criterion_group, criterion_main, Criterion};
use spa_core::sum::{SumConfig, SumRegistry};
use spa_core::EitEngine;
use spa_types::four_branch::render_table1;
use spa_types::{AttributeSchema, EventKind, LifeLogEvent, Timestamp, UserId, Valence};
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    println!("\n=== regenerated Table 1 ===\n{}", render_table1());

    let engine = EitEngine::standard();
    let schema = AttributeSchema::emagister();
    let registry = SumRegistry::new(&schema, SumConfig::default());
    // pre-load a user with a spread of answers
    let user = UserId::new(1);
    for round in 0..25u64 {
        let q = engine.next_question(&registry, user);
        let event = LifeLogEvent::new(
            user,
            Timestamp::from_millis(round),
            EventKind::EitAnswer { question: q.id, answer: Valence::new(0.3) },
        );
        engine.ingest(&registry, &schema, &event).unwrap();
    }

    let mut group = c.benchmark_group("table1");
    group.bench_function("next_question", |b| {
        b.iter(|| black_box(engine.next_question(&registry, black_box(user)).id))
    });
    group.bench_function("ingest_answer", |b| {
        let q = engine.next_question(&registry, user).id;
        let event = LifeLogEvent::new(
            user,
            Timestamp::from_millis(0),
            EventKind::EitAnswer { question: q, answer: Valence::new(0.5) },
        );
        b.iter(|| engine.ingest(&registry, &schema, black_box(&event)).unwrap())
    });
    group.bench_function("branch_scores", |b| {
        b.iter(|| black_box(engine.branch_scores(&registry, &schema, user).overall()))
    });
    group.finish();
}

criterion_group!(table1, benches);
criterion_main!(table1);
