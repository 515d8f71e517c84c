//! E7 bench: regenerates the emotional-context ablation (the paper's
//! central claim) at bench scale and times the two design choices the
//! ablation isolates — emotional-feature masking and the advice-stage
//! activation transform.

use criterion::{criterion_group, criterion_main, Criterion};
use spa_bench::BENCH_USERS;
use spa_campaign::{Experiment, ExperimentConfig};
use spa_core::sum::{SumConfig, SumRegistry};
use spa_linalg::SparseVec;
use spa_types::{AttributeSchema, UserId, Valence};
use std::hint::black_box;

fn regenerate_ablation() {
    let base = ExperimentConfig {
        n_users: BENCH_USERS,
        n_courses: 40,
        n_topics: 8,
        ingest_weblogs: false,
        history_eit_rounds: 15,
        n_training_campaigns: 3,
        ..Default::default()
    };
    let full = Experiment::new(ExperimentConfig { mask_emotional: false, ..base.clone() })
        .unwrap()
        .run()
        .unwrap();
    let masked =
        Experiment::new(ExperimentConfig { mask_emotional: true, ..base }).unwrap().run().unwrap();
    println!("\n=== regenerated E7 ablation at {BENCH_USERS} users ===");
    println!(
        "AUC            : full {:.3}  masked {:.3}  Δ {:+.3}",
        full.auc,
        masked.auc,
        full.auc - masked.auc
    );
    println!(
        "captured @40%  : full {:.3}  masked {:.3}  Δ {:+.3}",
        full.captured_at_40,
        masked.captured_at_40,
        full.captured_at_40 - masked.captured_at_40
    );
}

fn benches(c: &mut Criterion) {
    regenerate_ablation();

    // design-choice micro-benches
    let schema = AttributeSchema::emagister();
    let registry = SumRegistry::new(&schema, SumConfig::default());
    let user = UserId::new(1);
    registry.with_model(user, |m, config| {
        for i in 0..40u32 {
            m.set_observed(spa_types::AttributeId::new(i), 0.5).unwrap();
        }
        for (o, attr) in schema.emotional_ids().into_iter().enumerate() {
            m.apply_eit_answer(attr, o, Valence::new(0.4), config).unwrap();
        }
    });
    let model = registry.get(user).unwrap();
    let row = model.feature_row();

    let mut group = c.benchmark_group("ablation");
    group.bench_function("advice_row_activation", |b| {
        b.iter(|| black_box(model.advice_row(&schema).unwrap().nnz()))
    });
    group.bench_function("plain_feature_row", |b| b.iter(|| black_box(model.feature_row().nnz())));
    group.bench_function("emotional_mask_projection", |b| {
        b.iter(|| black_box(row.masked(|i| i < 65).nnz()))
    });
    group.bench_function("sparse_row_concat", |b| {
        let other = SparseVec::from_dense(&[1.0; 10]);
        b.iter(|| black_box(row.concat(&other).nnz()))
    });
    group.finish();
}

criterion_group!(ablation, benches);
criterion_main!(ablation);
