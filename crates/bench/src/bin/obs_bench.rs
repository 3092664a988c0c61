//! Observability overhead gate: the same fast-scale training run with span
//! instrumentation enabled (no trace sink — the production configuration)
//! and fully disabled, interleaved, medians compared. Writes
//! `results/obs_bench.json`.
//!
//! ```text
//! cargo run -p hls-gnn-bench --release --bin obs_bench
//! ```
//!
//! Two claims are gated:
//!
//! * **Cost**: with no sink attached, instrumentation must add < 2% to the
//!   training-run time, read as the median per-pair delta of
//!   [`hls_gnn_bench::paired_overhead`]'s 61 adjacent disabled/enabled
//!   pairs, which alternate the arm that runs first — the same gate
//!   `tensor_profile` applies to the op profiler.
//! * **Determinism**: the per-epoch loss history must be bit-identical with
//!   instrumentation on and off — spans time stages, they never touch the
//!   numerics.
//!
//! The gate prints `obs_bench: PASS`/`FAIL` and exits non-zero on failure so
//! CI can call it directly.

use std::time::Instant;

use gnn::GnnKind;
use hls_gnn_bench::{paired_overhead, write_report, PairedOverhead, OVERHEAD_PAIRS};
use hls_gnn_core::dataset::DatasetBuilder;
use hls_gnn_core::encode::FeatureMode;
use hls_gnn_core::metrics::TargetNormalizer;
use hls_gnn_core::model::GraphRegressor;
use hls_gnn_core::train::{train_regressor, LossHistory, TrainConfig};
use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};
use serde::Serialize;

/// Maximum tolerated no-sink overhead, percent.
const GATE_PERCENT: f64 = 2.0;

#[derive(Debug, Serialize)]
struct ObsBenchReport {
    rounds_per_arm: usize,
    min_disabled_ms: f64,
    min_enabled_ms: f64,
    median_disabled_ms: f64,
    median_enabled_ms: f64,
    /// Median over pairs of (enabled − disabled) / disabled, percent;
    /// negative values mean the instrumented round of the median pair
    /// happened to be faster (pure noise).
    overhead_percent: f64,
    gate_percent: f64,
    gate_passed: bool,
    /// Loss histories bit-identical between the two arms.
    bit_identical: bool,
}

fn main() {
    let dataset = DatasetBuilder::new(ProgramFamily::StraightLine)
        .count(48)
        .seed(11)
        .generator_config(SyntheticConfig::tiny(ProgramFamily::StraightLine))
        .build()
        .expect("synthetic corpus");
    // Fast-scale architecture, but enough epochs that one round is tens of
    // milliseconds — a 2% gate needs rounds well above scheduler jitter
    // (each epoch is 6 gradient steps, so a round is ~50 spans).
    let mut config = TrainConfig::fast();
    config.epochs = 8;
    let normalizer = TargetNormalizer::fit(&dataset).expect("normalizer fits");

    let run = || -> (f64, LossHistory) {
        let model = GraphRegressor::new(GnnKind::Gcn, FeatureMode::Base, &config);
        let start = Instant::now();
        let history = train_regressor(&model, &normalizer, &dataset, &config);
        (start.elapsed().as_secs_f64() * 1e3, history)
    };

    // Warm-up (allocator arenas, page faults) outside the measurement.
    hls_gnn_obs::set_enabled(true);
    let (_, history_enabled) = run();
    hls_gnn_obs::set_enabled(false);
    let (_, history_disabled) = run();
    let bit_identical =
        history_enabled.iter().zip(&history_disabled).all(|(a, b)| a.to_bits() == b.to_bits())
            && history_enabled.len() == history_disabled.len();

    let PairedOverhead {
        min_disabled_ms,
        min_enabled_ms,
        median_disabled_ms,
        median_enabled_ms,
        overhead_percent,
    } = paired_overhead(|enabled| {
        hls_gnn_obs::set_enabled(enabled);
        run().0
    });
    let gate_passed = overhead_percent < GATE_PERCENT && bit_identical;

    println!(
        "obs_bench: disabled min {min_disabled_ms:.2} ms (median {median_disabled_ms:.2}), \
         enabled min {min_enabled_ms:.2} ms (median {median_enabled_ms:.2}) — \
         {overhead_percent:+.2}% overhead, gate < {GATE_PERCENT}%; loss histories {}",
        if bit_identical { "bit-identical" } else { "DIVERGED" }
    );
    println!("obs_bench: {}", if gate_passed { "PASS" } else { "FAIL" });

    let report = ObsBenchReport {
        rounds_per_arm: OVERHEAD_PAIRS,
        min_disabled_ms,
        min_enabled_ms,
        median_disabled_ms,
        median_enabled_ms,
        overhead_percent,
        gate_percent: GATE_PERCENT,
        gate_passed,
        bit_identical,
    };
    write_report("obs_bench", &report);
    if !gate_passed {
        std::process::exit(1);
    }
}
