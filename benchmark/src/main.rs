//! `spa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report for people, then — as the last line of standard
//! output — one JSON object for the driver. Exits 0 when every op and
//! every output check succeeded, 1 when any failed, 2 on bad usage.

use spa_benchmark::fixture::Scale;
use spa_benchmark::metrics::{self, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use spa_benchmark::runner::RunConfig;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("error: {problem}");
    eprintln!(
        "usage: spa-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    );
    eprintln!("       spa-benchmark --print-benchmark-json");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut config =
        RunConfig { scale: Scale::FULL, seed: 1, seconds: f64::from(RUN_SECONDS), trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-benchmark-json" {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        let Some(value) = args.next() else { return usage(&format!("{flag} needs a value")) };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|seed| config.seed = seed).is_ok(),
            "--seconds" => value
                .parse()
                .ok()
                .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                .map(|seconds| config.seconds = seconds)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    config.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    let Some(output) = spa_benchmark::run_named(&workload, &config) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    let table: &[_] = if config.trace { &PER_LAYER } else { &END_TO_END };
    let values = output.metrics.against(table);
    println!("== metrics");
    for (spec, value) in &values {
        println!("{:<44} {value:>18.4} {}", spec.name, spec.unit);
    }
    println!("{}", metrics::result_line(output.attempted, output.failed, &values));
    if output.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
