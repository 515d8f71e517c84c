//! The benchmark's contract with its driver and with later issues:
//! `BENCHMARK.json` lists exactly what the code reports, every workload
//! reports every metric, and inputs are a function of the seed.

use spa_benchmark::fixture::Scale;
use spa_benchmark::metrics::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use spa_benchmark::run_named;
use spa_benchmark::runner::RunConfig;

fn quick(seed: u64, trace: bool) -> RunConfig {
    RunConfig { scale: Scale::QUICK, seed, seconds: 0.2, trace }
}

#[test]
fn benchmark_json_is_rendered_from_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "BENCHMARK.json differs from the tables in src/metrics.rs; regenerate it with \
         `cargo run --release --manifest-path benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json`"
    );
    assert_eq!(WORKLOADS.len(), 5);
    assert_eq!(END_TO_END.len(), 5);
}

#[test]
fn every_workload_reports_all_five_end_to_end_metrics_and_fails_no_op() {
    for workload in &WORKLOADS {
        let output = run_named(workload.name, &quick(11, false)).expect("a known workload");
        assert_eq!(output.failed, 0, "{}: failed ops or output checks", workload.name);
        assert!(output.attempted > 0);
        let values = output.metrics.against(&END_TO_END); // panics on a missing or extra metric
        for (spec, value) in values {
            // resident memory is the process's, and this process runs the
            // other tests' platforms beside this one: presence is all
            // that can be asserted about it here
            let process_wide = spec.name == "resident_bytes_per_user";
            assert!(value > 0.0 || process_wide, "{} {} = {value}", workload.name, spec.name);
        }
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_writes_its_trace() {
    let output = run_named("engine_mixed", &quick(12, true)).expect("a known workload");
    assert_eq!(output.failed, 0, "failed ops, output checks or probe checks");
    let values = output.metrics.against(&PER_LAYER);
    assert_eq!(values.len(), PER_LAYER.len());
    let get = |name: &str| output.metrics.get(name).expect("declared metric");
    assert!(get("server.transport_us") >= 0.0, "the budget's residual cannot be negative");
    assert_eq!(
        get("server.sheds") + get("server.dedup_hits") + get("server.deadline_rejects"),
        0.0
    );
    assert_eq!(get("core.cache.hit_ratio.warm_read"), 1.0);
    assert!(get("core.cache.hit_ratio.after_write") < 1.0);
    assert_eq!(get("store.wal_bytes_per_event"), 33.0, "an EIT answer frames to 33 bytes");
    let trace = spa_benchmark::fixture::out_dir().join("trace-engine_mixed.json");
    let text = std::fs::read_to_string(trace).expect("trace file written");
    for needle in ["\"self_time\":[", "\"bench::mixed_cycle\"", "\"parent\":null", "\"parent\":0"] {
        assert!(text.contains(needle), "trace lacks {needle}");
    }
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for workload in &WORKLOADS {
        let digest = |seed| run_named(workload.name, &quick(seed, false)).unwrap().input_digest;
        let (a, again, b) = (digest(21), digest(21), digest(22));
        assert_eq!(a, again, "{}: same seed, different inputs", workload.name);
        assert_ne!(a, b, "{}: different seeds, same inputs", workload.name);
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    assert!(run_named("serve_open", &quick(1, false)).is_none());
}
