//! # spa-bench — benchmark harness
//!
//! Criterion benches, one per paper artifact (see `benches/`):
//!
//! | bench | paper artifact |
//! |---|---|
//! | `fig6_campaigns` | Fig 6(a) cumulative redemption + Fig 6(b) predictive scores |
//! | `fig5_messaging` | Fig 5 message-assignment cases |
//! | `fig4_convergence` | Fig 4 iterative attribute discovery |
//! | `table1_eit` | Table 1 Four-Branch EIT |
//! | `dataset_synth` | §5.1 dataset generation |
//! | `ablation_emotional` | E7 emotional-context ablation |
//! | `substrates` | micro-benches of the SVM, sparse kernels and event log |
//! | `chaos` | what the `StorageIo` fault seam costs the WAL path when no fault fires |
//!
//! Platform ingest, scoring, checkpoint and recovery are measured by the
//! repository's one benchmark (`benchmark/`, see `BENCHMARK.json`), not
//! here.
//!
//! Each figure/table bench prints the regenerated artifact once during
//! setup (so `cargo bench` reproduces the numbers reported in
//! `EXPERIMENTS.md`) and then times the dominant computation.

/// Shared scale used by the figure benches so setup stays fast while the
/// artifact shapes remain visible.
pub const BENCH_USERS: usize = 2_000;
