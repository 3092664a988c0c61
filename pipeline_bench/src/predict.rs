//! `predict`: one warm `Predictor::predict` call on one of the 54 built-in
//! real-world kernels, visited round-robin in seeded order. Forward-only
//! inference with no JSON, HTTP or backward pass — the paper's timeliness
//! claim, compared against the `hls_sim` flow it stands in for.

use std::time::{Duration, Instant};

use hls_gnn_core::dataset::{Dataset, GraphSample};
use hls_gnn_core::model::GraphRegressor;
use hls_gnn_core::persist::SavedTensor;
use hls_gnn_core::task::TargetMetric;
use hls_gnn_core::train::predict_regressor;
use hls_gnn_core::{GnnPredictor, Predictor, TargetNormalizer};
use hls_ir::ast::Function;
use hls_progen::all_kernels;
use hls_sim::FpgaDevice;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::clock::Stamp;
use crate::stats::{mean, median, micros, percentile};
use crate::{checks, model, trace, Layers, Phase, Workload};

/// Traced ops replayed for the stage and flow-reference timings.
const REPLAY_OPS: usize = 540;

/// The model's two stages rebuilt from its snapshot, so each can be timed
/// on its own: the node classifier, and the graph regressor fed with the
/// classifier's types.
struct Stages {
    classifier: GnnPredictor,
    regressor: GraphRegressor,
    normalizer: TargetNormalizer,
}

impl Stages {
    fn rebuild(predictor: &dyn Predictor) -> Result<Stages, String> {
        let saved = predictor.snapshot().map_err(|error| format!("snapshot: {error}"))?;
        let classifier = GnnPredictor::from_saved(&saved).map_err(|error| error.to_string())?;
        let regressor = GraphRegressor::new(
            saved.spec.backbone,
            saved.spec.approach.feature_mode(),
            &saved.config,
        );
        SavedTensor::to_state(&saved.regressor)
            .and_then(|state| regressor.load_state(&state))
            .map_err(|error| format!("rebuilding the regressor: {error}"))?;
        Ok(Stages { classifier, regressor, normalizer: saved.normalizer.to_normalizer() })
    }
}

pub struct Predict {
    predictor: Box<dyn Predictor>,
    stages: Stages,
    functions: Vec<Function>,
    samples: Vec<GraphSample>,
    /// One `predict_batch` over all kernels: every single-design call must
    /// return exactly its row.
    expected: Vec<[f64; TargetMetric::COUNT]>,
    order: Vec<usize>,
    cursor: usize,
    /// Kernels of the last phase, in call order.
    visited: Vec<usize>,
}

impl Workload for Predict {
    fn setup(seed: u64) -> Result<Self, String> {
        let predictor = model::trained_on_dot()?;
        let device = FpgaDevice::default();
        let samples = Dataset::real_world(&device)
            .map_err(|error| format!("labelling the built-in kernels: {error}"))?
            .samples;
        let functions: Vec<Function> = all_kernels().into_iter().map(|k| k.function).collect();
        let expected = predictor
            .predict_batch(&samples)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|error| format!("reference predict_batch: {error}"))?;
        let stages = Stages::rebuild(predictor.as_ref())?;
        let mut order: Vec<usize> = (0..samples.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        for sample in &samples {
            predictor.predict(sample).map_err(|error| format!("warm-up predict: {error}"))?;
        }
        Ok(Predict {
            predictor,
            stages,
            functions,
            samples,
            expected,
            order,
            cursor: 0,
            visited: Vec::new(),
        })
    }

    fn measure(&mut self, budget: Duration) -> Phase {
        let mut phase = Phase::default();
        self.visited.clear();
        let started = Stamp::now();
        while started.elapsed().wall < budget {
            let index = self.order[self.cursor % self.order.len()];
            self.cursor += 1;
            let sample = &self.samples[index];
            let op = Stamp::now();
            let result = trace::span("predict.op", || self.predictor.predict(sample));
            phase.op(op.elapsed());
            phase.designs += 1;
            self.visited.push(index);
            phase.check(
                result
                    .map_err(|error| format!("{}: {error}", sample.name))
                    .and_then(|got| checks::same_bits(&sample.name, &got, &self.expected[index])),
            );
        }
        phase.time = started.elapsed();
        let mut nodes: Vec<f64> = self.samples.iter().map(|s| s.num_nodes() as f64).collect();
        nodes.sort_by(f64::total_cmp);
        phase.record = vec![("nodes_mean", mean(&nodes)), ("nodes_p90", percentile(&nodes, 0.9))];
        phase
    }

    fn mape_pct(&mut self) -> f64 {
        model::mape_pct(&self.expected, &self.samples.iter().collect::<Vec<_>>())
    }

    fn layers(&mut self, traced: &Phase, _spans: &[trace::Span]) -> Result<Layers, String> {
        let ops = traced.wall_us.len().max(1) as f64;
        let profile = gnn_tensor::profile::snapshot();
        let matmul = profile.ops.iter().find(|row| row.kind == gnn_tensor::profile::OpKind::Matmul);
        let (matmul_ns, matmul_flops) = matmul.map_or((0, 0), |row| (row.total_ns(), row.flops));

        // Replays after the traced phase, so they do not slow it, under the
        // same profiler as the traced calls. Each replayed kernel runs the
        // whole call and then each stage on its own, back to back, so the
        // stages and the call they must add up to are timed under the same
        // host conditions. Together the two stages must give the call's
        // result.
        let replay: Vec<usize> = self.visited.iter().copied().take(REPLAY_OPS).collect();
        let (mut call_us, mut classifier_us, mut regressor_us) =
            (Vec::new(), Vec::new(), Vec::new());
        gnn_tensor::profile::set_enabled(true);
        for &index in &replay {
            let sample = &self.samples[index];
            let started = Instant::now();
            let called = self.predictor.predict(sample);
            call_us.push(micros(started.elapsed()));
            std::hint::black_box(called.ok());
            let started = Instant::now();
            let types = self.stages.classifier.infer_types(sample);
            classifier_us.push(micros(started.elapsed()));
            let types = types.map_err(|error| format!("{}: infer_types: {error}", sample.name))?;
            let stages = &self.stages;
            let started = Instant::now();
            let prediction =
                predict_regressor(&stages.regressor, &stages.normalizer, sample, Some(&types));
            regressor_us.push(micros(started.elapsed()));
            checks::same_bits(&sample.name, &prediction, &self.expected[index]).map_err(
                |reason| format!("the two stages replayed do not give the prediction: {reason}"),
            )?;
        }
        gnn_tensor::profile::set_enabled(false);
        let device = FpgaDevice::default();
        let flow_us: Vec<f64> = replay
            .iter()
            .map(|&index| {
                let started = Instant::now();
                std::hint::black_box(hls_sim::run_flow(&self.functions[index], &device).ok());
                micros(started.elapsed())
            })
            .collect();
        let (classifier, regressor) = (mean(&classifier_us), mean(&regressor_us));
        Ok(vec![
            ("core.classifier_us", classifier),
            ("core.regressor_us", regressor),
            ("tensor.infer_matmul_us", matmul_ns as f64 / 1e3 / ops),
            ("tensor.infer_matmul_gflops", matmul_flops as f64 / (matmul_ns as f64).max(1.0)),
            ("hlsim.flow_ref_us", median(&flow_us)),
            ("trace.attributed_pct", 100.0 * (classifier + regressor) / mean(&call_us).max(1e-9)),
        ])
    }
}
