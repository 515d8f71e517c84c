//! Substrate micro-benches: the hot paths every experiment leans on —
//! Pegasos SVM training/prediction, sparse kernels and the event log.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::prelude::*;
use rand::rngs::StdRng;
use spa_linalg::{SparseRow, SparseVec};
use spa_ml::svm::{LinearSvm, SvmConfig};
use spa_ml::{Classifier, Dataset, OnlineLearner};
use spa_store::log::{EventLog, LogConfig};
use spa_types::{ActionId, EventKind, LifeLogEvent, Timestamp, UserId};
use std::hint::black_box;

fn training_set(n: usize, dim: usize, nnz: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(dim);
    for i in 0..n {
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let mut idx: Vec<u32> = (0..dim as u32).collect();
        idx.shuffle(&mut rng);
        idx.truncate(nnz);
        idx.sort_unstable();
        let pairs: Vec<(u32, f64)> =
            idx.into_iter().map(|j| (j, y * 0.5 + rng.gen_range(-1.0..1.0))).collect();
        data.push(&SparseVec::from_pairs(dim, pairs).unwrap(), y).unwrap();
    }
    data
}

fn bench_svm(c: &mut Criterion) {
    let data = training_set(5_000, 75, 30, 1);
    let mut group = c.benchmark_group("svm");
    group.sample_size(10);
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("pegasos_fit_5k_x_75", |b| {
        b.iter(|| {
            let mut svm = LinearSvm::new(75, SvmConfig { epochs: 5, ..Default::default() });
            svm.fit(black_box(&data)).unwrap();
            black_box(svm.bias())
        })
    });
    let mut trained = LinearSvm::new(75, SvmConfig::default());
    trained.fit(&data).unwrap();
    let row = data.x.row_vec(0);
    group.throughput(Throughput::Elements(1));
    group.bench_function("decision_function", |b| {
        b.iter(|| black_box(trained.decision_function(black_box(&row)).unwrap()))
    });
    group.bench_function("partial_fit", |b| {
        b.iter(|| trained.partial_fit(black_box(&row), 1.0).unwrap())
    });
    group.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let a = SparseVec::from_pairs(10_000, (0..2_000u32).map(|i| (i * 5, 1.5))).unwrap();
    let b_vec = SparseVec::from_pairs(10_000, (0..2_500u32).map(|i| (i * 4, -0.5))).unwrap();
    let dense = vec![0.25f64; 10_000];
    let mut group = c.benchmark_group("sparse");
    group.throughput(Throughput::Elements(2_000));
    group.bench_function("sparse_sparse_dot_2k_nnz", |b| {
        b.iter(|| black_box(a.dot(black_box(&b_vec))))
    });
    group.bench_function("sparse_dense_dot_2k_nnz", |b| {
        b.iter(|| black_box(a.dot_dense(black_box(&dense))))
    });
    group.bench_function("sparse_axpy_2k_nnz", |b| {
        let mut acc = vec![0.0f64; 10_000];
        b.iter(|| {
            a.add_scaled_into(1.0e-6, &mut acc);
            black_box(acc[0])
        })
    });
    group.finish();
}

fn bench_event_log(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("spa-bench-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = EventLog::open(&dir, LogConfig::default()).unwrap();
    let event = LifeLogEvent::new(
        UserId::new(7),
        Timestamp::from_millis(3),
        EventKind::Action { action: ActionId::new(11), course: None },
    );
    let mut group = c.benchmark_group("store");
    group.throughput(Throughput::Elements(1));
    group.bench_function("event_log_append", |b| b.iter(|| log.append(black_box(&event)).unwrap()));
    group.finish();

    // replay throughput over a fixed 50k-event log
    let replay_dir = std::env::temp_dir().join(format!("spa-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&replay_dir);
    {
        let log = EventLog::open(&replay_dir, LogConfig::default()).unwrap();
        for i in 0..50_000u32 {
            log.append(&LifeLogEvent::new(
                UserId::new(i),
                Timestamp::from_millis(i as u64),
                EventKind::Action { action: ActionId::new(i % 984), course: None },
            ))
            .unwrap();
        }
        log.flush().unwrap();
    }
    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    group.throughput(Throughput::Elements(50_000));
    group.bench_function("event_log_replay_50k", |b| {
        b.iter(|| black_box(EventLog::replay_dir(&replay_dir).unwrap().len()))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&replay_dir);
}

/// Row access: the old owned-clone path (`row_vec`) versus the
/// zero-copy `RowView` path, scoring every row of a 20k×75 matrix
/// against a dense weight vector. The delta is exactly the per-row
/// allocation cost the RowView refactor removed.
fn bench_row_access(c: &mut Criterion) {
    let data = training_set(20_000, 75, 30, 7);
    let weights = vec![0.125f64; 75];
    let mut group = c.benchmark_group("row_access");
    group.sample_size(10);
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("row_vec_dot_20k (owned clone per row)", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for r in 0..data.len() {
                acc += data.x.row_vec(r).dot_dense(&weights);
            }
            black_box(acc)
        })
    });
    group.bench_function("row_view_dot_20k (zero-copy)", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for r in 0..data.len() {
                acc += data.x.row(r).dot_dense(&weights);
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Batch scoring: serial versus parallel `decision_batch` at 20k and
/// 100k rows (the paper's per-campaign workload is 1.34M). On a
/// multi-core host the parallel path should approach core-count
/// speedup; outputs are bit-identical either way.
fn bench_decision_batch(c: &mut Criterion) {
    for &n in &[20_000usize, 100_000] {
        let data = training_set(n, 75, 30, 11);
        let mut svm = LinearSvm::new(75, SvmConfig::default());
        svm.fit(&data).unwrap();
        let mut group = c.benchmark_group("decision_batch");
        group.sample_size(10);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("serial_{}k", n / 1000), |b| {
            b.iter(|| black_box(svm.decision_batch_serial(&data).unwrap().len()))
        });
        group.bench_function(
            format!("parallel_{}k_{}threads", n / 1000, rayon::current_num_threads()),
            |b| b.iter(|| black_box(svm.decision_batch(&data).unwrap().len())),
        );
        group.finish();
    }
}

fn benches(c: &mut Criterion) {
    bench_svm(c);
    bench_sparse(c);
    bench_row_access(c);
    bench_decision_batch(c);
    bench_event_log(c);
}

criterion_group!(substrates, benches);
criterion_main!(substrates);
