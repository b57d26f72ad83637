//! `aboram-perfbench`: one workload per process, measured end to end and,
//! in a separate traced pass, layer by layer.
//!
//! ```text
//! aboram-perfbench --workload <sim-mcf|protocol-churn|kv-zipf> --seed <n>
//!                  --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a sequence of repetitions. Each repetition sets the workload up
//! from scratch (timed as set-up) and then runs a fixed number of ops
//! (timed as the window), so every simulated number is a pure function of
//! the seed and must repeat bit for bit in every repetition. Repetitions
//! continue until the windows add up to `--seconds`. Host-time metrics are
//! medians over repetitions. With `--trace 1` untraced and traced
//! repetitions alternate: the traced ones give the per-layer numbers and
//! the pair gives the tracing overhead.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is nonzero when any
//! check failed.

mod churn;
mod engine;
mod kv;
mod mcf;
mod spans;

use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One named number with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub window_s: f64,
    pub ops: u64,
    /// Ops that errored, were refused, or returned a wrong value.
    pub failed: u64,
    /// Simulated results and exact counts: pure functions of the seed,
    /// compared bit for bit across repetitions.
    pub sim: Vec<Metric>,
    /// Host-time layer numbers (traced repetitions only).
    pub layers: Vec<Metric>,
    /// Self time per span name inside the window (traced repetitions only).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Throughput of each fixed-size chunk of the window, in ops/s.
    pub chunk_rates: Vec<f64>,
}

/// Times fixed-size chunks of a window. Host throughput is the median
/// chunk rate over a run, so a burst of interference from other work on
/// the host moves a few chunks rather than the result.
pub struct Chunks {
    every: u64,
    last: Instant,
    rates: Vec<f64>,
}

impl Chunks {
    /// Starts the clock for chunks of `every` ops.
    pub fn start(every: u64) -> Self {
        Chunks { every, last: Instant::now(), rates: Vec::new() }
    }

    /// Call with the number of ops completed so far; closes a chunk at
    /// every multiple of the chunk size.
    pub fn tick(&mut self, done: u64) {
        if done > 0 && done.is_multiple_of(self.every) {
            let now = Instant::now();
            self.rates.push(self.every as f64 / (now - self.last).as_secs_f64());
            self.last = now;
        }
    }

    pub fn rates(self) -> Vec<f64> {
        self.rates
    }
}

/// A benchmark workload: its settings and one repetition.
pub trait Workload {
    /// The settings in force, printed with every result.
    fn settings(&self) -> String;
    /// Sets up from scratch and runs the fixed window. With a tracer, spans
    /// are recorded around every call into the crates.
    fn rep(&self, tracer: Option<&mut Tracer>) -> Result<Rep, String>;
}

/// Minimum untraced (and, with `--trace 1`, traced) repetitions per run.
const MIN_REPS: usize = 3;

/// Wall-clock ceiling for the repetition loop, well inside the 180 s a run
/// may take.
const MAX_LOOP_S: f64 = 120.0;

/// End-to-end metrics: name, unit, better direction, and whether the
/// `--trace 0` JSON result carries it (BENCHMARK.json `end_to_end`: the
/// ones defined and nonzero on every workload). Every run prints all of
/// them, `n/a` where a metric does not apply to the workload.
const END_TO_END: [(&str, &str, &str, bool); 10] = [
    ("setup_s", "s", "lower", true),
    ("ops_per_s", "op/s", "higher", true),
    ("peak_rss_mib", "MiB", "lower", true),
    ("failed_fraction", "ratio", "lower", false),
    ("sim_cycles_per_op", "cycles", "lower", false),
    ("sim_latency_mean_cycles", "cycles", "lower", false),
    ("sim_latency_p50_cycles", "cycles", "lower", false),
    ("sim_latency_p99_cycles", "cycles", "lower", false),
    ("bus_blocks_per_op", "blocks", "lower", false),
    ("space_ratio_vs_baseline", "ratio", "lower", true),
];

/// Per-layer metrics reported with `--trace 1` (BENCHMARK.json
/// `per_layer`). A workload that does not exercise a layer reports 0.
const PER_LAYER: [(&str, &str); 46] = [
    // Simulated results that exist on only some workloads.
    ("sim_cycles_per_op", "cycles"),
    ("sim_latency_mean_cycles", "cycles"),
    ("sim_latency_p50_cycles", "cycles"),
    ("sim_latency_p99_cycles", "cycles"),
    ("sim_latency_samples", "count"),
    ("bus_blocks_per_op", "blocks"),
    // trace
    ("trace.next_record_us", "us"),
    ("trace.next_record.self_share", "ratio"),
    // core engine
    ("core.engine.new_s", "s"),
    ("core.engine.warm_up_s", "s"),
    ("core.engine.access_us", "us"),
    ("core.engine.access.self_share", "ratio"),
    ("core.engine.evict_paths_per_access", "ratio"),
    ("core.engine.early_reshuffles_per_access", "ratio"),
    ("core.engine.remote_reads_per_access", "ratio"),
    ("core.engine.background_per_access", "ratio"),
    ("core.engine.extension_success", "ratio"),
    ("core.engine.stash_peak", "blocks"),
    // core driver
    ("core.driver.run_us", "us"),
    ("core.driver.timing_model_us", "us"),
    ("core.driver.run.self_share", "ratio"),
    ("core.driver.online_latency_mean_cycles", "cycles"),
    // dram twin
    ("dram.requests_per_op", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.bus_cycles_per_op.readPath", "cycles"),
    ("dram.bus_cycles_per_op.evictPath", "cycles"),
    ("dram.bus_cycles_per_op.earlyReshuffle", "cycles"),
    ("dram.bus_cycles_per_op.backgroundEvict", "cycles"),
    ("dram.bus_cycles_per_op.metadata", "cycles"),
    ("dram.channel_imbalance", "ratio"),
    // service
    ("service.store.new_s", "s"),
    ("service.store.preload_s", "s"),
    ("service.frontend.submit_us", "us"),
    ("service.frontend.submit.self_share", "ratio"),
    ("service.frontend.batch_ms", "ms"),
    ("service.frontend.batch.self_share", "ratio"),
    ("service.frontend.real_slot_fraction", "ratio"),
    ("service.frontend.coalesced_fraction", "ratio"),
    ("service.frontend.rejected", "count"),
    ("service.posmap.tree_accesses_per_request", "count"),
    ("service.posmap.dummy_tree_access_fraction", "ratio"),
    ("service.store.misses", "count"),
    // the benchmark's own glue and the tracing overhead
    ("bench.layer_coverage", "ratio"),
    ("bench.untraced_ops_per_s", "op/s"),
    ("bench.traced_ops_per_s", "op/s"),
    ("bench.trace_overhead", "ratio"),
];

/// Maps a span name to the per-layer share metric its self time feeds.
fn share_metric(span: &str) -> Option<&'static str> {
    Some(match span {
        "trace.next_record" => "trace.next_record.self_share",
        "core.engine.access" => "core.engine.access.self_share",
        "core.driver.run" => "core.driver.run.self_share",
        "service.frontend.submit" => "service.frontend.submit.self_share",
        "service.frontend.advance_to" | "service.frontend.drain" => {
            "service.frontend.batch.self_share"
        }
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 2023, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn make_workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim-mcf" => Box::new(mcf::SimMcf::new(seed)),
        "protocol-churn" => Box::new(churn::ProtocolChurn::new(seed)),
        "kv-zipf" => Box::new(kv::KvZipf::new(seed)),
        _ => return Err(format!("unknown workload {name:?} (sim-mcf, protocol-churn, kv-zipf)")),
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median chunk throughput over `reps`, in ops/s.
fn chunk_median(reps: &[Rep]) -> f64 {
    median(&reps.iter().flat_map(|r| r.chunk_rates.iter().copied()).collect::<Vec<_>>())
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let workload = match make_workload(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args, workload.as_ref()));
}

/// Runs the repetition loop, prints the report and returns the exit code.
fn run(args: &Args, workload: &dyn Workload) -> i32 {
    println!(
        "workload {} seed {} seconds {} trace {} | {} | simd kernel {} | ABORAM_SIMD={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload.settings(),
        aboram_tree::simd::kernel_name(),
        std::env::var("ABORAM_SIMD").unwrap_or_else(|_| "unset".into()),
    );

    // Spans of the first traced repetition, written out at the end.
    let mut kept: Option<Tracer> = None;
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut measured = 0.0;
    let loop_start = Instant::now();
    loop {
        let want_traced = args.trace && traced.len() < untraced.len();
        let rep = if want_traced {
            let mut tracer = Tracer::new();
            let rep = workload.rep(Some(&mut tracer));
            kept.get_or_insert(tracer);
            rep
        } else {
            workload.rep(None)
        };
        let rep = match rep {
            Ok(r) => r,
            Err(e) => {
                errors.push(e);
                break;
            }
        };
        measured += rep.window_s;
        println!(
            "rep {:>2} {:<8} setup {:.4} s  window {:.4} s  {:.1} op/s  median chunk {:.1} op/s",
            untraced.len() + traced.len(),
            if want_traced { "traced" } else { "untraced" },
            rep.setup_s,
            rep.window_s,
            rep.ops as f64 / rep.window_s,
            median(&rep.chunk_rates),
        );
        let first = untraced.first().or(traced.first());
        if let Some(first) = first {
            if first.sim != rep.sim {
                errors.push(format!(
                    "simulated results differ between repetitions at one seed:\n  first {:?}\n  now   {:?}",
                    first.sim, rep.sim
                ));
            }
        }
        if want_traced {
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
        let enough_reps = untraced.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        let out_of_time = loop_start.elapsed().as_secs_f64() > MAX_LOOP_S;
        if !errors.is_empty() || (enough_reps && measured >= args.seconds) || out_of_time {
            break;
        }
    }

    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|r| r.ops).sum::<u64>().max(1);
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    if failed > 0 {
        errors.push(format!("{failed} of {attempted} ops failed"));
    }
    let rss = peak_rss_mib().unwrap_or_else(|e| {
        errors.push(e);
        0.0
    });
    let setup_s = median(&untraced.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let untraced_ops = chunk_median(&untraced);
    let sim: Vec<Metric> = all.first().map(|r| r.sim.clone()).unwrap_or_default();
    let sim_value = |name: &str| sim.iter().find(|m| m.name == name).map(|m| m.value);

    println!(
        "repetitions: {} untraced, {} traced; measured window {:.3} s",
        untraced.len(),
        traced.len(),
        measured
    );
    let mut metrics: Vec<Metric> = Vec::new();
    println!("{:<26} {:>16} {:<7} better", "end-to-end metric", "value", "unit");
    for (name, unit, better, in_result) in END_TO_END {
        let value = match name {
            "setup_s" => Some(setup_s),
            "ops_per_s" => Some(untraced_ops),
            "peak_rss_mib" => Some(rss),
            "failed_fraction" => Some(ratio(failed, attempted)),
            _ => sim_value(name),
        };
        let shown = value.map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
        let note = match (name, sim_value("sim_latency_samples")) {
            ("sim_latency_p99_cycles", Some(n)) if value.is_some() => format!(" ({n} samples)"),
            _ => String::new(),
        };
        println!("{name:<26} {shown:>16} {unit:<7} {better}{note}");
        if in_result && !args.trace {
            metrics.push(metric(name, unit, value.unwrap_or(0.0)));
        }
    }

    if args.trace {
        if let Err(e) = report_layers(args, kept.as_ref(), &untraced, &traced, &sim, &mut metrics) {
            errors.push(e);
        }
    }

    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        errors.push(format!("{} is not a finite number", m.name));
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    print_result(correct, attempted, failed, &metrics);
    if correct {
        0
    } else {
        1
    }
}

/// Prints the per-layer table of the traced repetitions, fills the
/// per-layer metrics and writes the spans out.
fn report_layers(
    args: &Args,
    spans: Option<&Tracer>,
    untraced: &[Rep],
    traced: &[Rep],
    sim: &[Metric],
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let traced_ops = chunk_median(traced);
    let untraced_ops = chunk_median(untraced);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for m in sim {
        values.insert(m.name, m.value);
    }
    // Host-time layer numbers: median over traced repetitions.
    let layer_names: Vec<&'static str> =
        traced.first().map(|r| r.layers.iter().map(|m| m.name).collect()).unwrap_or_default();
    for name in layer_names {
        let vals: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.layers.iter().filter(|m| m.name == name).map(|m| m.value))
            .collect();
        values.insert(name, median(&vals));
    }
    // Self time per span name, summed over traced windows.
    let window_s: f64 = traced.iter().map(|r| r.window_s).sum();
    let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    for r in traced {
        for (&k, &v) in &r.self_s {
            *self_s.entry(k).or_insert(0.0) += v;
        }
    }
    println!("traced windows: {window_s:.3} s over {} repetitions", traced.len());
    println!("{:<30} {:>12} {:>8}", "layer (span self time)", "seconds", "share");
    let mut covered = 0.0;
    for (&name, &s) in &self_s {
        let share = s / window_s;
        println!("{name:<30} {s:>12.4} {:>7.2}%", share * 100.0);
        if name != "bench.window" && name != "bench.check" {
            covered += s;
        }
        if let Some(m) = share_metric(name) {
            *values.entry(m).or_insert(0.0) += share;
        }
    }
    let coverage = covered / window_s;
    let overhead = untraced_ops / traced_ops - 1.0;
    println!("layer coverage {:.2}% of the traced windows", coverage * 100.0);
    println!(
        "tracing overhead {:+.2}% (untraced {untraced_ops:.1} op/s, traced {traced_ops:.1} op/s)",
        overhead * 100.0
    );
    values.insert("bench.layer_coverage", coverage);
    values.insert("bench.untraced_ops_per_s", untraced_ops);
    values.insert("bench.traced_ops_per_s", traced_ops);
    values.insert("bench.trace_overhead", overhead);

    println!("{:<44} {:>16} unit", "per-layer metric", "value");
    for (name, unit) in PER_LAYER {
        let value = values.get(name).copied().unwrap_or(0.0);
        println!("{name:<44} {value:>16.6} {unit}");
        metrics.push(metric(name, unit, value));
    }

    let path = PathBuf::from(format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed));
    let spans = spans.ok_or("no traced repetition ran")?;
    spans.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans of the first traced repetition written to {}", path.display());
    if coverage < 0.9 {
        return Err(format!("layer spans cover only {:.1}% of the window", coverage * 100.0));
    }
    Ok(())
}
