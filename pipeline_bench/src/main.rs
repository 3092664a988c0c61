//! Pipeline benchmark for the HLS-GNN workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path pipeline_bench/Cargo.toml -- \
//!     --workload label --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Four workloads, each in its own process: `label` (program generation and
//! HLS labelling), `train` (hierarchical RGCN optimizer steps), `predict`
//! (warm single-design inference) and `serve` (`POST /predict` bodies decoded
//! and answered by an in-process `ServiceHandle`). Inputs are generated from
//! `--seed`; every op's output is checked. The last stdout line is one JSON
//! object: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See README.md for the metrics and what each should move.

mod checks;
mod clock;
mod label;
mod model;
mod predict;
mod serve;
mod stats;
mod trace;
mod train;

use std::time::{Duration, Instant};

use clock::{cpu_time, Interval};
use stats::{median, micros, percentile};

/// Set-up runs this many times per run, all but the last in child processes
/// of the benchmark; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// A run that has not finished by then is stuck: exit without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops started and ops whose output check failed.
    pub attempted: u64,
    pub failed: u64,
    /// Designs processed (the throughput numerator).
    pub designs: u64,
    /// Time the phase's ops took: the throughput denominator.
    pub time: Interval,
    /// Per-op CPU time and wall time, microseconds, in op order.
    pub cpu_us: Vec<f64>,
    pub wall_us: Vec<f64>,
    /// Counts that define the workload's inputs, printed beside the metrics.
    pub record: Vec<(&'static str, f64)>,
}

impl Phase {
    /// Designs per CPU second.
    pub fn throughput(&self) -> f64 {
        self.designs as f64 / self.time.cpu.as_secs_f64().max(1e-9)
    }

    /// Designs per wall-clock second.
    pub fn wall_throughput(&self) -> f64 {
        self.designs as f64 / self.time.wall.as_secs_f64().max(1e-9)
    }

    /// Records one op's time.
    pub fn op(&mut self, took: Interval) {
        self.cpu_us.push(micros(took.cpu));
        self.wall_us.push(micros(took.wall));
    }

    /// Counts one op's check; a failure is reported on stderr and counted.
    pub fn check(&mut self, outcome: checks::Check) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("failed op: {reason}");
            }
        }
    }
}

/// One workload: set-up, a timed phase until a deadline, and the per-layer
/// figures of a traced phase.
pub trait Workload: Sized {
    fn setup(seed: u64) -> Result<Self, String>;
    /// Runs ops until `budget` of wall time has elapsed.
    fn measure(&mut self, budget: Duration) -> Phase;
    /// Mean absolute percentage error over DSP/LUT/FF/CP, in percent.
    fn mape_pct(&mut self) -> f64;
    /// Per-layer metrics of a traced phase, from its spans plus any replays
    /// made after it. An error means a replay did not reproduce the traced
    /// call, so its timing would describe other work.
    fn layers(&mut self, traced: &Phase, spans: &[trace::Span]) -> Result<Layers, String>;
}

/// Per-layer metrics by name.
pub type Layers = Vec<(&'static str, f64)>;

/// Every end-to-end metric and its unit, in BENCHMARK.json order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_cpu_s", "designs/cpu-s"),
    ("cpu_p50_us", "us"),
    ("cpu_p90_us", "us"),
    ("peak_rss_mb", "MB"),
    ("mape_pct", "%"),
];

/// Every per-layer metric, in BENCHMARK.json order. A traced run reports
/// all of them; those of layers the workload does not drive read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("progen.generate_us", "us"),
    ("ir.lower_us", "us"),
    ("ir.verify_us", "us"),
    ("hlsim.schedule_us", "us"),
    ("hlsim.bind_us", "us"),
    ("hlsim.implement_us", "us"),
    ("ir.extract_us", "us"),
    ("analyze.bounds_us", "us"),
    ("core.sample_self_us", "us"),
    ("label.nodes_mean", "nodes"),
    ("core.classifier_stage_s", "s"),
    ("core.regressor_stage_s", "s"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.gather_scatter_ms", "ms"),
    ("tensor.elementwise_ms", "ms"),
    ("tensor.backward_setup_ms", "ms"),
    ("tensor.optimizer_ms", "ms"),
    ("tensor.fetch_assemble_ms", "ms"),
    ("tensor.attributed_pct", "%"),
    ("core.classifier_us", "us"),
    ("core.regressor_us", "us"),
    ("tensor.infer_matmul_us", "us"),
    ("tensor.infer_matmul_gflops", "GFLOP/s"),
    ("hlsim.flow_ref_us", "us"),
    ("shims.json_decode_us", "us"),
    ("core.to_sample_us", "us"),
    ("core.fingerprint_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.service_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.body_kb_mean", "KB"),
    ("trace.attributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set up, print the set-up's CPU time and exit (a set-up child).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--setup-only" => setup_only = number()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.unwrap_or(25);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be within 1..=60, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// A memory figure of this process from /proc/self/status, in MB: `VmHWM`
/// is the peak resident set since the last [`reset_peak_rss`], `VmRSS` the
/// current one.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lowers VmHWM to the current resident set, so `peak_rss_mb` reads the
/// timed phase's peak and not set-up's.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|error| format!("resetting the peak RSS through /proc/self/clear_refs: {error}"))
}

/// A fixed integer loop whose wall time shows how fast the host runs right
/// now.
fn calibration_s() -> f64 {
    let started = Instant::now();
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..50_000_000u32 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state = std::hint::black_box(state);
    }
    std::hint::black_box(state);
    started.elapsed().as_secs_f64()
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_record(record: &[(&str, f64)]) -> String {
    let body: Vec<String> =
        record.iter().map(|(name, value)| format!("\"{name}\": {value}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// CPU seconds of one set-up.
fn timed_setup<W: Workload>(seed: u64) -> Result<(W, f64), String> {
    let started = cpu_time();
    let workload = W::setup(seed)?;
    Ok((workload, (cpu_time() - started).as_secs_f64()))
}

/// Times one set-up in a child process of this benchmark. Set-up in the
/// measured process then runs once, in a fresh process like every child's,
/// and what the extra set-ups leave behind (freed memory still resident,
/// allocator state) cannot reach the timed phase or its peak memory.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let seed = args.seed.to_string();
    let output = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed, "--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running a set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().and_then(|line| line.strip_prefix("setup_s ")) {
        Some(value) if output.status.success() => {
            value.parse().map_err(|_| format!("set-up child printed `{value}`"))
        }
        _ => Err(format!("set-up child failed ({})", output.status)),
    }
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    if args.setup_only {
        let (_, seconds) = timed_setup::<W>(args.seed)?;
        println!("setup_s {seconds}");
        return Ok(());
    }
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        setups.push(setup_in_child(args)?);
    }
    let (mut workload, seconds) = timed_setup::<W>(args.seed)?;
    setups.push(seconds);
    let setup_s = median(&setups);
    reset_peak_rss()?;
    let rss_start = status_mb("VmRSS");
    let budget = Duration::from_secs(args.seconds);

    let (phase, layers) = if args.trace {
        // Half the budget untraced, half traced: the throughput difference
        // is the tracing overhead.
        let untraced = workload.measure(budget / 2);
        trace::set_enabled(true);
        gnn_tensor::profile::set_enabled(true);
        gnn_tensor::profile::reset();
        let mut traced = workload.measure(budget / 2);
        gnn_tensor::profile::set_enabled(false);
        trace::set_enabled(false);
        let spans = trace::take();
        let mut layers = workload.layers(&traced, &spans)?;
        let overhead = 100.0 * (1.0 - traced.throughput() / untraced.throughput());
        println!(
            "tracing overhead: untraced {:.2} designs/cpu-s, traced {:.2} designs/cpu-s \
             ({overhead:.1}%)",
            untraced.throughput(),
            traced.throughput()
        );
        layers.push(("trace.overhead_pct", overhead));
        if let Some((name, _)) =
            layers.iter().find(|(name, _)| !PER_LAYER.iter().any(|m| m.0 == *name))
        {
            return Err(format!("per-layer metric `{name}` is not declared"));
        }
        println!("self time per span (traced phase, {} ops):", traced.wall_us.len());
        for (name, total) in trace::self_times(&spans) {
            println!(
                "  {name:<24} {:>8} spans {:>12.1} us self per op",
                total.count,
                total.self_ns as f64 / 1e3 / traced.wall_us.len().max(1) as f64
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} written to {}", spans.len(), path.display());
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        (traced, layers)
    } else {
        (workload.measure(budget), Vec::new())
    };
    // Read before `mape_pct`, which may label more programs untimed.
    let peak_rss = status_mb("VmHWM");

    let sorted = |values: &[f64]| {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted
    };
    let (cpu_us, wall_us) = (sorted(&phase.cpu_us), sorted(&phase.wall_us));
    let mut record = phase.record.clone();
    record.extend([
        ("ops", phase.cpu_us.len() as f64),
        ("rss_start_mb", rss_start),
        ("wall_throughput_per_s", phase.wall_throughput()),
        ("wall_p50_us", percentile(&wall_us, 0.50)),
        ("wall_p90_us", percentile(&wall_us, 0.90)),
        ("calibration_s", calibration_s()),
    ]);
    println!("record: {}", json_record(&record));

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
                (name, value, unit)
            })
            .collect()
    } else {
        let values = [
            setup_s,
            phase.throughput(),
            percentile(&cpu_us, 0.50),
            percentile(&cpu_us, 0.90),
            peak_rss,
            workload.mape_pct(),
        ];
        END_TO_END.iter().zip(values).map(|(&(name, unit), value)| (name, value, unit)).collect()
    };
    let finite = metrics.iter().all(|(_, value, _)| value.is_finite());
    let metrics: Vec<(&str, f64, &str)> =
        metrics.into_iter().map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u)).collect();
    let correct = phase.failed == 0 && phase.attempted > 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        phase.attempted.max(1),
        phase.failed,
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() {
    // The program reads its knobs from HLSGNN_* variables; the benchmark
    // measures the defaults, so none may leak in from the caller.
    let knobs: Vec<String> =
        std::env::vars().map(|(key, _)| key).filter(|key| key.starts_with("HLSGNN_")).collect();
    for key in knobs {
        std::env::remove_var(key);
    }
    gnn_tensor::profile::set_enabled(false);

    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("pipeline_bench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });

    let outcome = parse_args().and_then(|args| match args.workload.as_str() {
        "label" => run::<label::Label>(&args),
        "train" => run::<train::Train>(&args),
        "predict" => run::<predict::Predict>(&args),
        "serve" => run::<serve::Serve>(&args),
        other => Err(format!("unknown workload `{other}` (label, train, predict, serve)")),
    });
    if let Err(error) = outcome {
        eprintln!("pipeline_bench: {error}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use serde::Value;

    fn declared(list: &str) -> Vec<(String, String)> {
        let file: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let field = |metric: &Value, key: &str| {
            metric.get(key).and_then(Value::as_str).expect("name and unit are strings").to_owned()
        };
        file.get(list)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|metric| (field(metric, "name"), field(metric, "unit")))
            .collect()
    }

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics.iter().map(|&(name, unit)| (name.to_owned(), unit.to_owned())).collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        assert_eq!(owned(super::END_TO_END), declared("end_to_end"));
        assert_eq!(owned(super::PER_LAYER), declared("per_layer"));
    }
}
