//! Fig 6 bench: regenerates the cumulative redemption curve (6a) and
//! the per-campaign predictive scores (6b) at bench scale, then times
//! the dominant pieces — one full campaign execution and the gains-curve
//! computation over a large contact set.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spa_bench::BENCH_USERS;
use spa_campaign::report;
use spa_campaign::{CampaignRunner, CampaignSpec, Channel, Experiment, ExperimentConfig};
use spa_core::platform::SpaConfig;
use spa_core::ShardedSpa;
use spa_ml::metrics;
use spa_synth::catalog::CourseCatalog;
use spa_synth::{Population, PopulationConfig, ResponseConfig, ResponseModel};
use spa_types::{CampaignId, CourseId, Timestamp};
use std::hint::black_box;

fn regenerate_fig6() {
    let config = ExperimentConfig {
        n_users: BENCH_USERS,
        n_courses: 40,
        n_topics: 8,
        ingest_weblogs: false,
        history_eit_rounds: 15,
        n_training_campaigns: 3,
        ..Default::default()
    };
    let result = Experiment::new(config).expect("config valid").run().expect("experiment runs");
    println!("\n=== regenerated at {BENCH_USERS} users (paper scale: 3,162,069) ===");
    println!("{}", report::render_fig6a(&result.gains, 10));
    println!("{}", report::render_fig6b(&result));
    println!("{}", report::render_summary(&result));
}

fn bench_campaign_execution(c: &mut Criterion) {
    let population =
        Population::generate(PopulationConfig { n_users: BENCH_USERS, ..Default::default() })
            .expect("population generates");
    let courses = CourseCatalog::generate(40, 8, 3).expect("catalog generates");
    let response = ResponseModel::new(ResponseConfig::default())
        .calibrate_mixed(&population, 0.21, 0.2)
        .expect("calibrates");
    let runner = CampaignRunner::new(&population, &response);
    let spec = CampaignSpec {
        id: CampaignId::new(1),
        channel: Channel::Push,
        target_size: 800,
        course: courses.course(CourseId::new(0)).expect("course 0").clone(),
        at: Timestamp::from_millis(0),
        seed: 42,
    };
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.bench_function("campaign_800_contacts", |b| {
        b.iter_batched(
            || ShardedSpa::new(&courses, SpaConfig::default(), 1).unwrap(),
            |spa| {
                let outcome = runner.run(&spa, &spec, |_, _, _| 0.0).expect("campaign runs");
                black_box(outcome.responses)
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

fn bench_gains_curve(c: &mut Criterion) {
    // a large synthetic contact set, like pooling ten campaigns
    let n = 100_000;
    let mut rng_state = 0x12345u64;
    let mut next = move || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng_state >> 33) as f64 / (1u64 << 31) as f64
    };
    let scores: Vec<f64> = (0..n).map(|_| next()).collect();
    let labels: Vec<f64> =
        scores.iter().map(|&s| if next() < s * 0.4 { 1.0 } else { -1.0 }).collect();
    let mut group = c.benchmark_group("fig6");
    group.bench_function("gains_curve_100k_contacts", |b| {
        b.iter(|| {
            let curve = metrics::gains_curve(black_box(&labels), black_box(&scores), 100)
                .expect("curve computes");
            black_box(metrics::captured_at(&curve, 0.4))
        })
    });
    group.bench_function("roc_auc_100k_contacts", |b| {
        b.iter(|| black_box(metrics::roc_auc(black_box(&labels), black_box(&scores)).unwrap()))
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    regenerate_fig6();
    bench_campaign_execution(c);
    bench_gains_curve(c);
}

criterion_group!(fig6, benches);
criterion_main!(fig6);
