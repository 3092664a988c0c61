//! Per-op tape profile report and profiler-overhead gate. Writes
//! `results/tensor_profile.json`.
//!
//! ```text
//! cargo run -p hls-gnn-bench --release --bin tensor_profile
//! HLSGNN_SCALE=fast cargo run -p hls-gnn-bench --release --bin tensor_profile
//! ```
//!
//! Two parts, both gated (`PASS`/`FAIL`, non-zero exit on failure):
//!
//! * **Attribution**: a profiled training run (`gnn_tensor::profile` on) on a
//!   matmul-heavy configuration. The per-`OpKind` table — wall time,
//!   invocation count, analytic FLOPs/bytes, and the roofline-style
//!   arithmetic-intensity column — plus the off-tape Fetch/Optimizer phases
//!   must attribute ≥ 90% of the `train_step` stage-histogram wall time;
//!   what the tape doesn't see (the `Var` layer's argument checks and index
//!   copies, dropout mask draws) is reported as the unattributed rest.
//! * **Cost**: interleaved profiler-off/profiler-on pairs of the same run
//!   (span instrumentation on in both arms — the production configuration).
//!   The median per-pair relative delta must stay under 2%, mirroring
//!   `obs_bench`'s methodology, and the loss histories of the two arms must
//!   be bit-identical — the profiler only times ops, it never touches the
//!   numerics.
//!
//! Reading the table: high intensity (matmul, tens of FLOPs/byte) marks
//! compute-bound kernels where SIMD/threading pays off; intensity below ~1
//! marks memory-bound ops (gather/scatter, elementwise) where it won't.

use std::time::Instant;

use gnn::GnnKind;
use gnn_tensor::profile::{self, OpStats, PhaseStats};
use hls_gnn_bench::write_report;
use hls_gnn_core::dataset::DatasetBuilder;
use hls_gnn_core::encode::FeatureMode;
use hls_gnn_core::metrics::TargetNormalizer;
use hls_gnn_core::model::GraphRegressor;
use hls_gnn_core::train::{train_regressor, LossHistory, TrainConfig};
use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};
use serde::Serialize;

/// Minimum share of `train_step` wall time the op/phase table must explain.
const COVERAGE_GATE_PERCENT: f64 = 90.0;
/// Maximum tolerated profiler-enabled overhead, percent (median per-pair).
const GATE_PERCENT: f64 = 2.0;

#[derive(Debug, Serialize)]
struct OpRow {
    kind: &'static str,
    count: u64,
    forward_ms: f64,
    backward_ms: f64,
    total_ms: f64,
    mflops: f64,
    mbytes: f64,
    /// Roofline arithmetic intensity: analytic FLOPs per byte moved.
    intensity_flops_per_byte: f64,
    share_of_step: f64,
}

#[derive(Debug, Serialize)]
struct PhaseRow {
    phase: &'static str,
    count: u64,
    total_ms: f64,
    share_of_step: f64,
}

#[derive(Debug, Serialize)]
struct TensorProfileReport {
    train_steps: u64,
    step_wall_ms: f64,
    attributed_ms: f64,
    unattributed_ms: f64,
    coverage_percent: f64,
    coverage_gate_percent: f64,
    coverage_passed: bool,
    ops: Vec<OpRow>,
    phases: Vec<PhaseRow>,
    rounds_per_arm: usize,
    median_disabled_ms: f64,
    median_enabled_ms: f64,
    /// Median over pairs of (enabled − disabled) / disabled, percent.
    overhead_percent: f64,
    gate_percent: f64,
    overhead_passed: bool,
    bit_identical: bool,
    gate_passed: bool,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn main() {
    let fast = std::env::var("HLSGNN_SCALE").is_ok_and(|scale| scale.trim() == "fast");

    // Matmul-heavy profile workload: realistic (non-tiny) graphs and a wide
    // hidden dimension, so op compute — not per-op bookkeeping — dominates
    // each step and the attribution table reflects where training time goes.
    let dataset = DatasetBuilder::new(ProgramFamily::StraightLine)
        .count(24)
        .seed(23)
        .generator_config(SyntheticConfig::straight_line())
        .build()
        .expect("synthetic corpus");
    let mut config = TrainConfig::fast();
    config.hidden_dim = 64;
    config.num_layers = 3;
    config.epochs = 2;
    let normalizer = TargetNormalizer::fit(&dataset).expect("normalizer fits");

    let run = |config: &TrainConfig| -> (f64, LossHistory) {
        let model = GraphRegressor::new(GnnKind::Gcn, FeatureMode::Base, config);
        let start = Instant::now();
        let history = train_regressor(&model, &normalizer, &dataset, config);
        (start.elapsed().as_secs_f64() * 1e3, history)
    };

    // ---- Attribution run -------------------------------------------------
    hls_gnn_obs::set_enabled(true);
    profile::set_enabled(false);
    let _ = run(&config); // warm-up: allocator arenas, page faults
    let step_histogram =
        hls_gnn_obs::global().histogram(hls_gnn_obs::STAGE_HISTOGRAM, &[("stage", "train_step")]);
    let steps_before = step_histogram.count();
    let sum_before_us = step_histogram.sum();
    profile::set_enabled(true);
    profile::reset();
    let _ = run(&config);
    profile::set_enabled(false);
    let snapshot = profile::snapshot();
    let train_steps = step_histogram.count() - steps_before;
    let step_wall_us = step_histogram.sum() - sum_before_us;
    let step_wall_ms = step_wall_us as f64 / 1e3;

    let attributed_ms = ms(snapshot.attributed_ns());
    let coverage_percent =
        if step_wall_ms > 0.0 { attributed_ms / step_wall_ms * 100.0 } else { 0.0 };
    let coverage_passed = coverage_percent >= COVERAGE_GATE_PERCENT;

    let share = |row_ms: f64| if step_wall_ms > 0.0 { row_ms / step_wall_ms } else { 0.0 };
    let ops: Vec<OpRow> = snapshot
        .ops
        .iter()
        .map(|stats: &OpStats| OpRow {
            kind: stats.kind.name(),
            count: stats.count,
            forward_ms: ms(stats.forward_ns),
            backward_ms: ms(stats.backward_ns),
            total_ms: ms(stats.total_ns()),
            mflops: stats.flops as f64 / 1e6,
            mbytes: stats.bytes as f64 / 1e6,
            intensity_flops_per_byte: stats.intensity(),
            share_of_step: share(ms(stats.total_ns())),
        })
        .collect();
    let phases: Vec<PhaseRow> = snapshot
        .phases
        .iter()
        .map(|stats: &PhaseStats| PhaseRow {
            phase: stats.phase.name(),
            count: stats.count,
            total_ms: ms(stats.total_ns),
            share_of_step: share(ms(stats.total_ns)),
        })
        .collect();

    println!(
        "tensor_profile: {} train step(s), {step_wall_ms:.2} ms stepped, \
         {attributed_ms:.2} ms attributed ({coverage_percent:.1}%, gate ≥ {COVERAGE_GATE_PERCENT}%)",
        train_steps
    );
    println!(
        "{:<18} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>6}",
        "op", "count", "fwd_ms", "bwd_ms", "total_ms", "mflops", "mbytes", "flops/byte", "share"
    );
    for row in &ops {
        println!(
            "{:<18} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.2} {:>9.2} {:>10.2} {:>5.1}%",
            row.kind,
            row.count,
            row.forward_ms,
            row.backward_ms,
            row.total_ms,
            row.mflops,
            row.mbytes,
            row.intensity_flops_per_byte,
            row.share_of_step * 100.0
        );
    }
    for row in &phases {
        println!(
            "{:<18} {:>7} {:>19} {:>9.3} {:>20} {:>10} {:>5.1}%",
            format!("[{}]", row.phase),
            row.count,
            "",
            row.total_ms,
            "",
            "",
            row.share_of_step * 100.0
        );
    }

    // ---- Overhead gate ---------------------------------------------------
    // Shorter rounds than the attribution run (the gate needs many), same
    // architecture. Span instrumentation stays on in both arms: the pairs
    // isolate exactly the profiler's own cost.
    let mut gate_config = config.clone();
    gate_config.epochs = 1;
    let rounds = if fast { 7 } else { 11 };

    profile::set_enabled(true);
    let (_, history_enabled) = run(&gate_config);
    profile::set_enabled(false);
    let (_, history_disabled) = run(&gate_config);
    let bit_identical = history_enabled.len() == history_disabled.len()
        && history_enabled.iter().zip(&history_disabled).all(|(a, b)| a.to_bits() == b.to_bits());

    let mut enabled_ms_rounds = Vec::with_capacity(rounds);
    let mut disabled_ms_rounds = Vec::with_capacity(rounds);
    let mut pair_deltas = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        profile::set_enabled(false);
        let disabled = run(&gate_config).0;
        profile::set_enabled(true);
        let enabled = run(&gate_config).0;
        profile::set_enabled(false);
        pair_deltas.push((enabled - disabled) / disabled * 100.0);
        disabled_ms_rounds.push(disabled);
        enabled_ms_rounds.push(enabled);
    }
    let median_disabled_ms = median(&mut disabled_ms_rounds);
    let median_enabled_ms = median(&mut enabled_ms_rounds);
    let overhead_percent = median(&mut pair_deltas);
    let overhead_passed = overhead_percent < GATE_PERCENT;
    let gate_passed = coverage_passed && overhead_passed && bit_identical;

    println!(
        "tensor_profile: profiler off median {median_disabled_ms:.2} ms, \
         on median {median_enabled_ms:.2} ms — {overhead_percent:+.2}% overhead, \
         gate < {GATE_PERCENT}%; loss histories {}",
        if bit_identical { "bit-identical" } else { "DIVERGED" }
    );
    println!("tensor_profile: {}", if gate_passed { "PASS" } else { "FAIL" });

    let report = TensorProfileReport {
        train_steps,
        step_wall_ms,
        attributed_ms,
        unattributed_ms: (step_wall_ms - attributed_ms).max(0.0),
        coverage_percent,
        coverage_gate_percent: COVERAGE_GATE_PERCENT,
        coverage_passed,
        ops,
        phases,
        rounds_per_arm: rounds,
        median_disabled_ms,
        median_enabled_ms,
        overhead_percent,
        gate_percent: GATE_PERCENT,
        overhead_passed,
        bit_identical,
        gate_passed,
    };
    write_report("tensor_profile", &report);
    if !gate_passed {
        std::process::exit(1);
    }
}
