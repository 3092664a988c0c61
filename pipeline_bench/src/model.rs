//! The model `predict` and `serve` measure: `hier/rgcn` (RGCN-I) at the
//! standard architecture, trained for one epoch on a seeded sample of the
//! `dot` design space. `dot` designs are small, so set-up's memory peak
//! stays below the measured phase's.

use hls_gnn_core::dataset::{Dataset, GraphSample};
use hls_gnn_core::metrics::mape_with_floor;
use hls_gnn_core::task::TargetMetric;
use hls_gnn_core::{Predictor, PredictorBuilder, TrainConfig};
use hls_gnn_dse::{sample_training_set, DesignSpace};
use hls_sim::FpgaDevice;

const TRAINING_DESIGNS: usize = 48;
/// The model is part of the system under test, not of the workload's
/// inputs: every run serves the same one, and `--seed` picks the requests.
const TRAINING_SAMPLE_SEED: u64 = 1;

pub fn trained_on_dot() -> Result<Box<dyn Predictor>, String> {
    let device = FpgaDevice::default();
    let (_, designs) =
        sample_training_set(&DesignSpace::dot(), &device, TRAINING_SAMPLE_SEED, TRAINING_DESIGNS)
            .map_err(|error| format!("labelling the dot training sample: {error}"))?;
    let config = TrainConfig { epochs: 1, ..TrainConfig::standard() };
    PredictorBuilder::parse("hier/rgcn")
        .and_then(|builder| builder.config(config).train(&designs, &Dataset::default()))
        .map_err(|error| format!("training hier/rgcn: {error}"))
}

/// Mean over DSP/LUT/FF/CP of the MAPE of `predictions` against the
/// samples' `hls_sim` ground truth, in percent.
pub fn mape_pct(predictions: &[[f64; TargetMetric::COUNT]], samples: &[&GraphSample]) -> f64 {
    let per_target: Vec<f64> = (0..TargetMetric::COUNT)
        .map(|target| {
            let predicted: Vec<f64> = predictions.iter().map(|p| p[target]).collect();
            let actual: Vec<f64> = samples.iter().map(|s| s.targets[target]).collect();
            mape_with_floor(&predicted, &actual, 1.0)
        })
        .collect();
    100.0 * crate::stats::mean(&per_target)
}
