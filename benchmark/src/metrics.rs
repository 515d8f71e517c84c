//! Every metric the benchmark reports, by name and unit, and the
//! contract file (`BENCHMARK.json`) rendered from the same tables, so
//! the two cannot drift apart.

use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// One workload: its name and why it exists.
pub struct WorkloadSpec {
    /// `--workload` value.
    pub name: &'static str,
    /// One line on what it stresses and what it leaves out.
    pub why: &'static str,
}

/// One reported metric.
pub struct MetricSpec {
    /// The name results and later issues cite.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: "lower", bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: "higher", bound: None }
}

/// The five workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "serve_closed",
        why: "one client, one connection, closed loop over a 2000-user hot set, pinned to one CPU: \
              transport, framing, codec, envelope and dispatch are most of the round trip, the engine little",
    },
    WorkloadSpec {
        name: "engine_read",
        why: "in-process score_users/rank_top_k over 1024-user audiences drawn from all 100000 users, \
              warm cache, no WAL: the read path alone, cache-miss-bound on resident bytes per user",
    },
    WorkloadSpec {
        name: "engine_ingest",
        why: "durable ingest_batch of 4096-event ticks with checkpoint+compact every 64 batches: routing, \
              WAL framing/append, apply and epoch publication do all the work, the read path none",
    },
    WorkloadSpec {
        name: "engine_mixed",
        why: "one thread alternating a 256-event ingest_batch with score_users and rank_top_k on those users: \
              every read follows a write, so cache refill and publication cost show, which warm reads bypass",
    },
    WorkloadSpec {
        name: "campaign_offline",
        why: "repeated Experiment::run on 20000 users (the paper's Fig 6 end to end): synth, SVM fit and \
              campaign contacts; the only workload where the parallel paths run (pool of 2, pinned to one CPU)",
    },
];

/// The five end-to-end metrics, reported by every workload.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("cpu_us_per_op", "us", "lower", 0.25),
    e2e("resident_bytes_per_user", "bytes", "lower", 0.05),
];

/// The per-layer metrics, reported by every traced run.
pub const PER_LAYER: [MetricSpec; 65] = [
    lower("server.wire.encode_request_ns", "ns"),
    lower("server.wire.decode_request_ns", "ns"),
    lower("server.wire.encode_response_ns", "ns"),
    lower("server.wire.decode_response_ns", "ns"),
    lower("server.wire.frame_ns", "ns"),
    lower("server.closed.latency_p50_us", "us"),
    lower("server.transport_us", "us"),
    lower("server.transport_share", "ratio"),
    higher("server.frames_served", "count"),
    lower("server.sheds", "count"),
    lower("server.dedup_hits", "count"),
    lower("server.deadline_rejects", "count"),
    lower("server.open.r1000.latency_p50_us", "us"),
    lower("server.open.r1000.latency_tail_us", "us"),
    lower("server.open.r8000.latency_p50_us", "us"),
    lower("server.open.r8000.latency_tail_us", "us"),
    lower("server.open.r8000.shed_share", "ratio"),
    lower("server.open.generator_late_p99_us", "us"),
    lower("api.dispatch_ns.score", "ns"),
    lower("api.dispatch_ns.rank_top_k", "ns"),
    lower("api.dispatch_ns.ingest", "ns"),
    lower("api.dispatch_ns.observe_outcome", "ns"),
    lower("api.dedup_occupancy", "count"),
    lower("core.score_users.warm_ns_per_user", "ns"),
    lower("core.rank_top_k.warm_ns_per_user", "ns"),
    lower("core.score_users.after_write_ns_per_user", "ns"),
    lower("core.ingest_batch.small_ns_per_event", "ns"),
    lower("core.score_users.par_ns_per_user", "ns"),
    higher("core.cache.hit_ratio.warm_read", "ratio"),
    higher("core.cache.hit_ratio.after_write", "ratio"),
    lower("core.advice_row_ns", "ns"),
    lower("core.ingest_batch.ns_per_event", "ns"),
    lower("core.ingest.ns_per_event", "ns"),
    lower("core.observe_outcome_ns", "ns"),
    lower("core.epoch.model_publishes_per_event", "ratio"),
    lower("core.checkpoint_ms", "ms"),
    lower("core.compact_ms", "ms"),
    lower("core.recover_ms", "ms"),
    lower("core.train_selection_ms", "ms"),
    lower("store.encode_frame_ns", "ns"),
    lower("store.decode_frame_ns", "ns"),
    lower("store.crc32_ns_per_kib", "ns"),
    lower("store.append_encoded_ns_per_event", "ns"),
    lower("store.replay_ns_per_event", "ns"),
    lower("store.wal_bytes_per_event", "bytes"),
    lower("store.snapshot_bytes_per_user", "bytes"),
    lower("store.snapshot_write_ms", "ms"),
    lower("store.snapshot_read_ms", "ms"),
    lower("ml.svm.decision_view_ns", "ns"),
    lower("ml.svm.partial_fit_ns", "ns"),
    lower("ml.svm.fit_ms", "ms"),
    lower("linalg.sparse_dot_ns", "ns"),
    lower("synth.population_generate_ms", "ms"),
    lower("synth.scenario_ns_per_event", "ns"),
    lower("campaign.run_collect_ns_per_contact", "ns"),
    lower("campaign.experiment_run_s", "s"),
    higher("campaign.auc", "ratio"),
    higher("campaign.captured_at_40", "ratio"),
    higher("campaign.redemption_improvement", "ratio"),
    lower("workload.latency_tail_us", "us"),
    higher("workload.latency_tail_pct", "%"),
    higher("workload.latency_samples", "count"),
    lower("bench.ref_cpu_ns", "ns"),
    lower("bench.ref_mem_ns", "ns"),
    lower("bench.trace_overhead_share", "ratio"),
];

/// Values collected during a run, checked against one of the tables
/// above when rendered: a metric the table has and the run lacks (or
/// the reverse) is a benchmark bug and panics.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name`; each name is recorded once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.push((name, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// `(spec, value)` for exactly the metrics of `table`, in its order.
    pub fn against<'a>(&self, table: &'a [MetricSpec]) -> Vec<(&'a MetricSpec, f64)> {
        for (name, _) in &self.0 {
            assert!(table.iter().any(|spec| spec.name == *name), "metric {name} is not declared");
        }
        table
            .iter()
            .map(|spec| {
                let value = self.get(spec.name);
                (spec, value.unwrap_or_else(|| panic!("metric {} was never recorded", spec.name)))
            })
            .collect()
    }
}

/// The result line the driver reads: one JSON object, every digit of
/// every value kept.
pub fn result_line(attempted: u64, failed: u64, values: &[(&MetricSpec, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (spec, value)) in values.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            spec.name,
            spec.unit
        );
    }
    out.push_str("}}");
    out
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{why}\"}}{}",
            w.name,
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound"),
            if i + 1 == END_TO_END.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better,
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(legal)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "workload name {}", w.name);
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200 && !why.contains('"'), "why of {} has {}", w.name, why.len());
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name) && seen.insert(m.name), "metric name {}", m.name);
            let unit_ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_keeps_every_digit_and_checks_the_table() {
        let mut metrics = Metrics::default();
        for (i, spec) in END_TO_END.iter().enumerate() {
            metrics.set(spec.name, 1.0 / (i as f64 + 3.0));
        }
        let line = result_line(10, 0, &metrics.against(&END_TO_END));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}"));
        assert!(result_line(10, 1, &metrics.against(&END_TO_END)).contains("\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn a_missing_metric_is_a_panic_not_a_gap() {
        Metrics::default().against(&END_TO_END);
    }
}
