//! Drives one workload: set-up, warm-up, the measured window, output
//! checks, and (traced runs) the span window and the layer probes.
//!
//! The window is a closed loop of timed calls. It is cut into blocks of
//! a fixed number of calls; throughput and CPU per op are computed per
//! block and reported as the median over blocks, so a stall of the host
//! spoils one block instead of the run.

use crate::fixture::Scale;
use crate::metrics::Metrics;
use crate::stats::{digest, median, Digest};
use crate::trace::Tracer;
use crate::{layers, sys};
use std::time::Instant;

/// What one timed call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    /// Duration of the timed call, ns.
    pub nanos: u64,
    /// Ops the call attempted.
    pub attempted: u64,
    /// Ops that were refused, errored or returned a wrong output.
    pub failed: u64,
}

/// One of the five workloads.
pub trait Workload: Sized {
    /// `--workload` value.
    const NAME: &'static str;
    /// What one op is.
    const OP: &'static str;
    /// Timed calls per block (a whole number of the workload's cycles,
    /// so every block holds the same mix of calls).
    const BLOCK_STEPS: usize;
    /// Whether the whole process is pinned to one CPU and runs flat out
    /// there, so that its speed is that CPU's speed. The host this
    /// benchmark was calibrated on runs a CPU at two speeds and flips
    /// between them every few seconds (a dependency chain reads 3.05 or
    /// 3.9 ns per step, and such a workload's throughput follows it
    /// within 2 %), which no window averages out. So a CPU canary runs
    /// around every block of a pinned workload, and the block's
    /// throughput, latency and CPU per op are restated at
    /// [`REFERENCE_CANARY_NS`] before the median over blocks is taken.
    const PINNED: bool = false;
    /// Whether the thread calling [`Workload::step`] is a load
    /// generator whose CPU time is not the system's (a client of a
    /// server) rather than the system itself (an in-process caller).
    const CALLER_IS_GENERATOR: bool = false;

    /// Users `resident_bytes_per_user` is divided by.
    fn population(scale: &Scale) -> u64;
    /// Generates the inputs from `seed`, then builds everything the
    /// timed calls need. Must call `mark_resident` exactly twice: when
    /// the inputs are generated and nothing of the system exists yet,
    /// and when the state the timed calls run against stands. What the
    /// process grew by in between is `resident_bytes_per_user`.
    fn setup(scale: &Scale, seed: u64, mark_resident: &mut dyn FnMut()) -> Self;
    /// Digest of the generated inputs (same seed, same digest).
    fn input_digest(&self) -> u64;
    /// Placement, WAL path and whatever else the environment block
    /// should say about this workload.
    fn describe(&self) -> String;
    /// One timed call.
    fn step(&mut self, tracer: &mut Tracer) -> Step;
    /// Output checks that need the window to be over; each checked item
    /// is an attempted op, each mismatch a failed one.
    fn verify(&mut self) -> Step;
}

/// How to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Sizes.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub trace: bool,
}

/// What a run produced.
pub struct RunOutput {
    /// Ops attempted, checks included.
    pub attempted: u64,
    /// Ops failed, checks included.
    pub failed: u64,
    /// End-to-end metrics (plain run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Digest of the generated inputs.
    pub input_digest: u64,
}

/// One block of timed calls.
struct Block {
    /// Ops that succeeded.
    ops: u64,
    /// Σ duration of the timed calls, ns.
    busy_ns: u64,
    /// CPU the system spent (process minus load generator), ns.
    cpu_ns: u64,
    /// Median duration of one timed call, ns.
    p50_ns: u64,
    /// ns per step of the CPU canary around this block (only measured
    /// for pinned workloads).
    canary_ns: f64,
}

/// One measured window.
#[derive(Default)]
struct Window {
    samples: Vec<u64>,
    blocks: Vec<Block>,
    attempted: u64,
    failed: u64,
}

impl Window {
    /// Median over blocks of `value(block, speed)`, where `speed` is how
    /// much slower than [`REFERENCE_CANARY_NS`] the CPU ran during the
    /// block (1 for workloads that are not scaled).
    fn median_of<W: Workload>(&self, value: impl Fn(&Block, f64) -> f64) -> f64 {
        let speed = |b: &Block| {
            if W::PINNED {
                b.canary_ns / REFERENCE_CANARY_NS
            } else {
                1.0
            }
        };
        median(&mut self.blocks.iter().map(|b| value(b, speed(b))).collect::<Vec<_>>())
    }

    fn ops_per_s<W: Workload>(&self) -> f64 {
        self.median_of::<W>(|b, speed| b.ops as f64 * 1e9 / b.busy_ns as f64 * speed)
    }

    fn latency_p50_us<W: Workload>(&self) -> f64 {
        self.median_of::<W>(|b, speed| b.p50_ns as f64 / 1e3 / speed)
    }

    fn cpu_us_per_op<W: Workload>(&self) -> f64 {
        self.median_of::<W>(|b, speed| b.cpu_ns as f64 / 1e3 / b.ops.max(1) as f64 / speed)
    }
}

/// The CPU speed the scaled workloads' figures are stated at: one step
/// of [`layers::cpu_canary_ns`] taking this many ns.
pub const REFERENCE_CANARY_NS: f64 = 3.0;
/// Canary steps around each block of a scaled workload (about 1 ms).
const BLOCK_CANARY_STEPS: u64 = 300_000;

fn cpu_clocks<W: Workload>() -> (u64, u64) {
    (sys::process_cpu_ns(), if W::CALLER_IS_GENERATOR { sys::thread_cpu_ns() } else { 0 })
}

/// Calls `step` for `seconds`, always finishing the block in progress,
/// so every block counted is whole. Returns the window measured with
/// spans off and — when `alternate` — the one measured with spans on:
/// blocks then take turns, so whatever drifts during the window drifts
/// under both and their difference is what tracing costs.
fn measure<W: Workload>(
    workload: &mut W,
    tracer: &mut Tracer,
    seconds: f64,
    alternate: bool,
) -> [Window; 2] {
    let canary = || if W::PINNED { layers::cpu_canary_ns(BLOCK_CANARY_STEPS) } else { 0.0 };
    let mut windows = [Window::default(), Window::default()];
    let start = Instant::now();
    let mut canary_before = canary();
    for block in 0.. {
        // stop only where both windows hold the same number of blocks
        let balanced = block > 0 && (!alternate || block % 2 == 0);
        if balanced && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = alternate && block % 2 == 1;
        tracer.set_enabled(traced);
        let window = &mut windows[usize::from(traced)];
        let first_sample = window.samples.len();
        let (process0, generator0) = cpu_clocks::<W>();
        let (mut ops, mut busy_ns) = (0u64, 0u64);
        for _ in 0..W::BLOCK_STEPS {
            let step = workload.step(tracer);
            window.samples.push(step.nanos);
            window.attempted += step.attempted;
            window.failed += step.failed;
            ops += step.attempted - step.failed;
            busy_ns += step.nanos;
        }
        let (process1, generator1) = cpu_clocks::<W>();
        let cpu_ns = (process1 - process0).saturating_sub(generator1 - generator0);
        let canary_after = canary();
        let mut block_samples = window.samples[first_sample..].to_vec();
        block_samples.sort_unstable();
        window.blocks.push(Block {
            ops,
            busy_ns,
            cpu_ns,
            p50_ns: crate::stats::percentile_sorted(&block_samples, 50.0),
            canary_ns: (canary_before + canary_after) / 2.0,
        });
        canary_before = canary_after;
    }
    tracer.set_enabled(false);
    windows
}

fn pin_to_one_cpu() -> String {
    match sys::pin_to_last_cpu() {
        Ok(cpu) => format!("pinned to CPU {cpu}"),
        Err(error) => {
            println!("!!! sched_setaffinity FAILED ({error}): this run is UNPINNED and will be noisier !!!");
            format!("UNPINNED (sched_setaffinity failed: {error})")
        }
    }
}

/// Runs workload `W` and prints its report; the caller prints the
/// result line.
pub fn run<W: Workload>(config: &RunConfig) -> RunOutput {
    let RunConfig { scale, seed, seconds, trace } = *config;
    let all_cpus = sys::allowed_cpus().unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let placement = if W::PINNED { pin_to_one_cpu() } else { "unpinned".to_string() };

    // ---- set-up (timed from workload start to the first timed call)
    let mut resident_marks = Vec::new();
    let setup_start = Instant::now();
    let mut workload = W::setup(&scale, seed, &mut || resident_marks.push(sys::resident_bytes()));
    let mut setup_seconds = vec![setup_start.elapsed().as_secs_f64()];
    let input_digest = workload.input_digest();

    println!("== environment");
    println!("workload        {} (op = {})", W::NAME, W::OP);
    println!("commit          {}", sys::commit());
    println!("features        default (parallel)");
    println!("nproc           {nproc} (allowed CPUs {all_cpus:?})");
    println!("cpu model       {}", sys::cpu_model());
    println!("placement       {placement}");
    println!("setup           {}", workload.describe());
    println!("seed            {seed} (input digest {input_digest:016x})");
    println!(
        "window          {seconds} s after {} s warm-up, blocks of {} calls",
        scale.warmup_seconds,
        W::BLOCK_STEPS
    );

    // ---- warm-up, then the window
    let mut tracer = Tracer::new();
    let warm_start = Instant::now();
    while warm_start.elapsed().as_secs_f64() < scale.warmup_seconds {
        workload.step(&mut tracer);
    }
    // a traced run spends half its time on the window (plain and traced
    // blocks taking turns) and half on the layer probes
    let window_seconds = if trace { seconds / 2.0 } else { seconds };
    let [mut plain, traced] = measure(&mut workload, &mut tracer, window_seconds, trace);
    let checks = workload.verify();
    drop(workload);
    // set-up is repeated and its median reported: one set-up is one
    // sample, and a benchmark's own set-up is as noisy as its window
    // (a traced run reports no set-up time and sets up once)
    for _ in 1..if trace { 1 } else { scale.setups } {
        let start = Instant::now();
        let again = W::setup(&scale, seed, &mut || ());
        setup_seconds.push(start.elapsed().as_secs_f64());
        drop(again);
    }
    // after the workload, so that the chase's 64 MiB does not disturb
    // what is measured, and under the workload's placement
    let (ref_cpu_ns, ref_mem_ns) = layers::host_canaries();
    // only the workload's own calls are pinned: the layer probes measure
    // every layer the same way whatever the workload (and pin their own
    // closed loop), and a caller's thread gets its mask back
    if W::PINNED && sys::set_allowed_cpus(&all_cpus).is_err() {
        println!("!!! could not restore the CPU mask: what follows runs pinned !!!");
    }

    let mut attempted = plain.attempted + checks.attempted;
    let mut failed = plain.failed + checks.failed;
    let Digest { count, tail_pct, tail_ns, .. } = digest(&mut plain.samples);
    // what set-up grew the process by between its two marks. Measured
    // there and not at the end of the window because one workload builds
    // and drops a platform inside every timed call, and both its peak
    // (7.2 or 8.2 KB per user, same seed, by how many malloc arenas the
    // fan-out threads happened to open) and what the allocator has
    // handed back by the end are noise
    let [inputs_ready, state_built] = resident_marks[..] else {
        panic!(
            "{}::setup marked resident memory {} times, not twice",
            W::NAME,
            resident_marks.len()
        )
    };
    let resident = state_built.saturating_sub(inputs_ready) as f64 / W::population(&scale) as f64;

    println!("== {} ({})", W::NAME, if trace { "traced run" } else { "plain run" });
    println!(
        "ops             attempted {}  succeeded {}  failed {}   output checks: {} checked, {} wrong",
        plain.attempted,
        plain.attempted - plain.failed,
        plain.failed,
        checks.attempted,
        checks.failed
    );
    println!("host            bench.ref_cpu_ns {ref_cpu_ns:.3}   bench.ref_mem_ns {ref_mem_ns:.3}");
    if W::PINNED {
        let mut canaries: Vec<f64> = plain.blocks.iter().map(|b| b.canary_ns).collect();
        canaries.sort_by(f64::total_cmp);
        println!(
            "cpu speed       canary {:.3} / {:.3} / {:.3} ns per step (min / median / max over blocks); \
             the three figures below are restated at {REFERENCE_CANARY_NS} ns per step",
            canaries[0],
            canaries[canaries.len() / 2],
            canaries[canaries.len() - 1]
        );
    }
    println!(
        "ops_per_s       {:.1} 1/s (median of {} blocks)",
        plain.ops_per_s::<W>(),
        plain.blocks.len()
    );
    println!(
        "latency_p50_us  {:.3} us (median of the blocks' medians, n = {count})",
        plain.latency_p50_us::<W>()
    );
    println!(
        "latency tail    p{tail_pct} = {:.3} us (as measured; informational, not gated)",
        tail_ns as f64 / 1e3
    );
    println!("cpu_us_per_op   {:.4} us", plain.cpu_us_per_op::<W>());
    println!("resident_bytes_per_user {resident:.1} bytes");

    let mut metrics = Metrics::default();
    if trace {
        attempted += traced.attempted;
        failed += traced.failed;
        let overhead = (plain.ops_per_s::<W>() - traced.ops_per_s::<W>()) / plain.ops_per_s::<W>();
        println!(
            "traced blocks   {:.1} ops/s, p50 {:.3} us",
            traced.ops_per_s::<W>(),
            traced.latency_p50_us::<W>()
        );
        metrics.set("workload.latency_tail_us", tail_ns as f64 / 1e3);
        metrics.set("workload.latency_tail_pct", tail_pct);
        metrics.set("workload.latency_samples", count as f64);
        metrics.set("bench.ref_cpu_ns", ref_cpu_ns);
        metrics.set("bench.ref_mem_ns", ref_mem_ns);
        metrics.set("bench.trace_overhead_share", overhead);
        let probes = layers::probe(&scale, seed, seconds / 2.0, &mut tracer, &mut metrics);
        attempted += probes.attempted;
        failed += probes.failed;
        let path = crate::fixture::out_dir().join(format!("trace-{}.json", W::NAME));
        tracer.write_json(&path, W::NAME, seed).expect("write trace file");
        println!(
            "== self time ({} spans, {} dropped) -> {}",
            tracer.spans().len(),
            tracer.dropped(),
            path.display()
        );
        println!("{:<44} {:>9} {:>14} {:>14}", "span", "count", "total_us", "self_us");
        for (name, row) in crate::trace::self_times(tracer.spans()) {
            println!(
                "{name:<44} {:>9} {:>14.1} {:>14.1}",
                row.count,
                row.total_ns as f64 / 1e3,
                row.self_ns as f64 / 1e3
            );
        }
    } else {
        println!(
            "setup_s         {:.4} s (median of {setup_seconds:.3?})",
            median(&mut setup_seconds.clone())
        );
        metrics.set("setup_s", median(&mut setup_seconds));
        metrics.set("ops_per_s", plain.ops_per_s::<W>());
        metrics.set("latency_p50_us", plain.latency_p50_us::<W>());
        metrics.set("cpu_us_per_op", plain.cpu_us_per_op::<W>());
        metrics.set("resident_bytes_per_user", resident);
    }
    RunOutput { attempted, failed, metrics, input_digest }
}
