//! The training loop shared by the graph-level regressor and the node-level
//! classifier, plus the hyper-parameter configuration.

use std::borrow::Cow;

use gnn::Pooling;
use gnn_tensor::{clip_grad_norm, Adam, Matrix, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::{Dataset, GraphSample, SampleSource};
use crate::metrics::{accuracy, mape_with_floor, TargetNormalizer};
use crate::model::{GraphRegressor, NodeClassifierModel};
use crate::runtime::BatchConfig;
use crate::task::{ResourceClass, TargetMetric};

/// Hyper-parameters shared by all models.
///
/// The paper's setting is `paper()` (five layers, hidden 300, 100 epochs);
/// `default()` and `fast()` scale the same architecture down so the full
/// table-generation harness and the test suite run on a CPU in reasonable
/// time. The scale actually used is recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Graphs per gradient step (gradient accumulation).
    pub batch_size: usize,
    /// Hidden dimension of every GNN layer.
    pub hidden_dim: usize,
    /// Number of stacked GNN layers.
    pub num_layers: usize,
    /// Width of each categorical feature embedding.
    pub embed_dim: usize,
    /// Dropout between GNN layers during training.
    pub dropout: f32,
    /// Graph readout.
    pub pooling: Pooling,
    /// Seed for parameter initialisation and batching.
    pub seed: u64,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
}

impl TrainConfig {
    /// Tiny models and few epochs: used by unit tests and doc examples.
    pub fn fast() -> Self {
        TrainConfig {
            epochs: 4,
            learning_rate: 5e-3,
            batch_size: 8,
            hidden_dim: 16,
            num_layers: 2,
            embed_dim: 4,
            dropout: 0.0,
            pooling: Pooling::Mean,
            seed: 0,
            grad_clip: 5.0,
        }
    }

    /// The CPU-friendly configuration used by the bench binaries.
    pub fn standard() -> Self {
        TrainConfig {
            epochs: 25,
            learning_rate: 3e-3,
            batch_size: 16,
            hidden_dim: 32,
            num_layers: 3,
            embed_dim: 8,
            dropout: 0.1,
            pooling: Pooling::Mean,
            seed: 0,
            grad_clip: 5.0,
        }
    }

    /// The paper-scale configuration (§5.1): five layers, hidden dimension
    /// 300, 100 epochs. Only practical with long runtimes.
    pub fn paper() -> Self {
        TrainConfig {
            epochs: 100,
            learning_rate: 1e-3,
            batch_size: 32,
            hidden_dim: 300,
            num_layers: 5,
            embed_dim: 16,
            dropout: 0.1,
            pooling: Pooling::Mean,
            seed: 0,
            grad_clip: 5.0,
        }
    }

    /// Returns a copy with a different seed (the paper averages over several
    /// seeds per model).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the hyper-parameters. A `batch_size` of zero is a
    /// configuration error — it used to be silently rewritten to 1, which
    /// masked typos and made the effective SGD protocol differ from the
    /// configured one.
    ///
    /// # Errors
    /// Returns [`crate::Error::Config`] describing the invalid field.
    pub fn validate(&self) -> crate::Result<()> {
        if self.batch_size == 0 {
            return Err(crate::Error::Config(
                "TrainConfig::batch_size must be at least 1 (0 would make every \
                 gradient step empty); configure the number of graphs per step explicitly"
                    .to_owned(),
            ));
        }
        Ok(())
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::standard()
    }
}

/// Per-epoch mean training loss, returned by the training loops.
pub type LossHistory = Vec<f64>;

/// Trains a graph-level regressor in place on the default chunk plan
/// ([`BatchConfig::default`]). Returns the per-epoch mean loss.
///
/// # Panics
/// Panics if `config.batch_size` is zero — reject such configs up front with
/// [`TrainConfig::validate`].
pub fn train_regressor(
    model: &GraphRegressor,
    normalizer: &TargetNormalizer,
    train: &Dataset,
    config: &TrainConfig,
) -> LossHistory {
    train_regressor_source(model, normalizer, train, config)
        .expect("fetching from an in-memory dataset cannot fail")
}

/// [`train_regressor`] over any [`SampleSource`]: the loop only ever holds
/// one mini-batch of samples in memory, so a sharded on-disk corpus trains
/// with peak RSS bounded by `batch_size` samples plus the source's own cache.
/// For the same samples in the same order the result is bit-identical to
/// [`train_regressor`] on a materialised [`Dataset`] — both run this code.
///
/// # Errors
/// Propagates the source's fetch failures (an in-memory dataset never fails).
///
/// # Panics
/// Panics if `config.batch_size` is zero — reject such configs up front with
/// [`TrainConfig::validate`].
pub fn train_regressor_source(
    model: &GraphRegressor,
    normalizer: &TargetNormalizer,
    train: &(impl SampleSource + ?Sized),
    config: &TrainConfig,
) -> crate::Result<LossHistory> {
    train_regressor_source_with(&BatchConfig::default(), model, normalizer, train, config)
}

/// [`train_regressor_source`] with an explicit chunk plan. Every regressor
/// entry point ends here — the `Dataset` entry points call it through the
/// borrowing [`SampleSource`] impl, so the streamed and in-RAM paths cannot
/// drift apart. Each shuffled mini-batch is fetched up front (borrowed
/// zero-copy from a `Dataset`, decoded on demand from an on-disk store) and
/// split into chunks by [`BatchConfig::plan_chunks`]; each chunk fuses into
/// one [`gnn::GraphBatch`] super-graph, with one `B × 4` forward and one
/// batched MSE. The chunk MSE `mean((P − T)²)` over the `B × 4` prediction
/// matrix equals the mean of the per-graph MSEs, and scaling it by
/// `|chunk| / |mini-batch|` accumulates the gradient of the mini-batch mean
/// loss, so the node budget changes how a mini-batch's tapes are built —
/// floating-point association and, with nonzero dropout, mask streams — but
/// not the SGD protocol.
///
/// # Errors
/// Propagates the source's fetch failures.
///
/// # Panics
/// Panics if `config.batch_size` is zero — reject such configs up front with
/// [`TrainConfig::validate`].
pub fn train_regressor_source_with(
    batch_config: &BatchConfig,
    model: &GraphRegressor,
    normalizer: &TargetNormalizer,
    train: &(impl SampleSource + ?Sized),
    config: &TrainConfig,
) -> crate::Result<LossHistory> {
    let seed = config.seed.wrapping_mul(0x9e37_79b9).wrapping_add(17);
    train_loop(model.parameters(), train, config, seed, |batch, rng, epoch_loss| {
        let sizes: Vec<usize> = batch.iter().map(|s| s.num_nodes()).collect();
        let mut start = 0;
        for length in batch_config.plan_chunks(&sizes, config.batch_size, config.hidden_dim) {
            let samples = &batch[start..start + length];
            start += length;
            let assemble_timer =
                gnn_tensor::profile::phase_timer(gnn_tensor::profile::Phase::Assemble);
            let normalized: Vec<[f32; TargetMetric::COUNT]> =
                samples.iter().map(|s| normalizer.normalize(&s.targets)).collect();
            let targets =
                Matrix::from_fn(length, TargetMetric::COUNT, |row, col| normalized[row][col]);
            drop(assemble_timer);
            let prediction = model.forward_batch(samples, None, true, rng);
            let chunk_loss = prediction.mse(&targets);
            *epoch_loss += f64::from(chunk_loss.scalar_value()) * length as f64;
            chunk_loss.scale(length as f32 / batch.len() as f32).backward();
        }
    })
}

/// The one training loop behind both models. It owns the scaffold: epochs,
/// the seeded shuffle, the mini-batch fetch (the only window of samples
/// alive at once), gradient zeroing, clipping, the Adam update, the tape
/// reset, the train counters and spans, and the profiler's phase timers.
/// `batch_step` runs one mini-batch's forward and backward passes and adds
/// each loss term it computes, weighted by its share of the mini-batch's
/// graphs, to the epoch's loss sum.
///
/// # Panics
/// Panics if `config.batch_size` is zero.
fn train_loop<S: SampleSource + ?Sized>(
    params: Vec<Var>,
    train: &S,
    config: &TrainConfig,
    seed: u64,
    mut batch_step: impl FnMut(&[&GraphSample], &mut StdRng, &mut f64),
) -> crate::Result<LossHistory> {
    assert!(config.batch_size > 0, "TrainConfig::batch_size must be at least 1 (see validate())");
    let mut adam = Adam::new(params.clone(), config.learning_rate);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = Vec::with_capacity(config.epochs);
    let epochs_total = hls_gnn_obs::global().counter("hlsgnn_train_epochs_total", &[]);
    let steps_total = hls_gnn_obs::global().counter("hlsgnn_train_steps_total", &[]);

    for _ in 0..config.epochs {
        let _epoch_span = hls_gnn_obs::span!("train_epoch");
        epochs_total.inc();
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.batch_size) {
            let _step_span = hls_gnn_obs::span!("train_step");
            steps_total.inc();
            let fetch_timer = gnn_tensor::profile::phase_timer(gnn_tensor::profile::Phase::Fetch);
            let fetched: Vec<Cow<'_, GraphSample>> =
                batch.iter().map(|&index| train.fetch(index)).collect::<crate::Result<_>>()?;
            let samples: Vec<&GraphSample> = fetched.iter().map(Cow::as_ref).collect();
            drop(fetch_timer);
            {
                let _zero_timer =
                    gnn_tensor::profile::phase_timer(gnn_tensor::profile::Phase::Optimizer);
                adam.zero_grad();
            }
            batch_step(&samples, &mut rng, &mut epoch_loss);
            let optim_timer =
                gnn_tensor::profile::phase_timer(gnn_tensor::profile::Phase::Optimizer);
            clip_grad_norm(&params, config.grad_clip);
            adam.step();
            // The mini-batch's tapes are dead: recycle their buffers so the
            // next batch records into already-allocated arenas.
            gnn_tensor::tape::reset();
            drop(optim_timer);
        }
        history.push(epoch_loss / train.len().max(1) as f64);
    }
    Ok(history)
}

/// Predicts the raw `[DSP, LUT, FF, CP]` values for one sample, run as a
/// batch of one — the regressor stage of every inference
/// ([`crate::Predictor::predict_batch`] calls it per design).
/// `type_override` carries one self-inferred resource-type triple per node
/// (the knowledge-infused inference path).
pub fn predict_regressor(
    model: &GraphRegressor,
    normalizer: &TargetNormalizer,
    sample: &GraphSample,
    type_override: Option<&[[f32; 3]]>,
) -> [f64; TargetMetric::COUNT] {
    let mut rng = StdRng::seed_from_u64(0);
    let output = model.forward_batch(&[sample], type_override, false, &mut rng).value();
    // Inference tapes are single-use; recycle immediately so long-running
    // callers (the serve workers) stay at steady-state memory.
    gnn_tensor::tape::reset();
    normalizer.denormalize(&std::array::from_fn(|col| output.get(0, col)))
}

/// Per-target MAPE of a regressor over a dataset. An empty dataset evaluates
/// to `NaN` per target — an all-zero result would read as a perfect score.
pub fn evaluate_regressor(
    model: &GraphRegressor,
    normalizer: &TargetNormalizer,
    dataset: &Dataset,
) -> [f64; TargetMetric::COUNT] {
    let mut result = [0.0f64; TargetMetric::COUNT];
    if dataset.is_empty() {
        return [f64::NAN; TargetMetric::COUNT];
    }
    let mut predictions: Vec<Vec<f64>> = vec![Vec::new(); TargetMetric::COUNT];
    let mut actuals: Vec<Vec<f64>> = vec![Vec::new(); TargetMetric::COUNT];
    for sample in &dataset.samples {
        let predicted = predict_regressor(model, normalizer, sample, None);
        for target in 0..TargetMetric::COUNT {
            predictions[target].push(predicted[target]);
            actuals[target].push(sample.targets[target]);
        }
    }
    for target in 0..TargetMetric::COUNT {
        result[target] = mape_with_floor(&predictions[target], &actuals[target], 1.0);
    }
    result
}

/// Trains a node-level resource-type classifier in place. Returns the
/// per-epoch mean loss.
///
/// # Panics
/// Panics if `config.batch_size` is zero — reject such configs up front with
/// [`TrainConfig::validate`].
pub fn train_node_classifier(
    model: &NodeClassifierModel,
    train: &Dataset,
    config: &TrainConfig,
) -> LossHistory {
    train_node_classifier_source(model, train, config)
        .expect("fetching from an in-memory dataset cannot fail")
}

/// [`train_node_classifier`] over any [`SampleSource`] — one mini-batch of
/// samples in memory at a time, bit-identical to the in-RAM loop for the
/// same samples in the same order (they are the same code).
///
/// # Errors
/// Propagates the source's fetch failures.
///
/// # Panics
/// Panics if `config.batch_size` is zero — reject such configs up front with
/// [`TrainConfig::validate`].
pub fn train_node_classifier_source(
    model: &NodeClassifierModel,
    train: &(impl SampleSource + ?Sized),
    config: &TrainConfig,
) -> crate::Result<LossHistory> {
    let seed = config.seed.wrapping_mul(0x517c_c1b7).wrapping_add(3);
    train_loop(model.parameters(), train, config, seed, |batch, rng, epoch_loss| {
        for &sample in batch {
            let labels =
                Matrix::from_fn(sample.num_nodes(), ResourceClass::COUNT, |node, class| {
                    sample.node_resource_types[node][class]
                });
            // One graph per tape: the loss is weighted per graph, not
            // per node.
            let logits = model.forward(sample, true, rng);
            let loss = logits.bce_with_logits(&labels).scale(1.0 / batch.len() as f32);
            *epoch_loss += f64::from(loss.scalar_value()) * batch.len() as f64;
            loss.backward();
        }
    })
}

/// Per-class accuracy of a node classifier over a dataset (micro-averaged over
/// all nodes of all graphs, matching Table 3).
pub fn evaluate_node_classifier(
    model: &NodeClassifierModel,
    dataset: &Dataset,
) -> [f64; ResourceClass::COUNT] {
    let mut scores: Vec<Vec<f64>> = vec![Vec::new(); ResourceClass::COUNT];
    let mut labels: Vec<Vec<f64>> = vec![Vec::new(); ResourceClass::COUNT];
    let mut rng = StdRng::seed_from_u64(0);
    for sample in &dataset.samples {
        let logits = model.forward(sample, false, &mut rng).value();
        gnn_tensor::tape::reset();
        for node in 0..sample.num_nodes() {
            for class in 0..ResourceClass::COUNT {
                let probability = 1.0 / (1.0 + (-f64::from(logits.get(node, class))).exp());
                scores[class].push(probability);
                labels[class].push(f64::from(sample.node_resource_types[node][class]));
            }
        }
    }
    let mut result = [0.0f64; ResourceClass::COUNT];
    for class in 0..ResourceClass::COUNT {
        result[class] = accuracy(&scores[class], &labels[class]);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::encode::FeatureMode;
    use gnn::GnnKind;
    use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};

    fn tiny_dataset(count: usize) -> Dataset {
        DatasetBuilder::new(ProgramFamily::StraightLine)
            .count(count)
            .seed(21)
            .generator_config(SyntheticConfig::tiny(ProgramFamily::StraightLine))
            .build()
            .unwrap()
    }

    #[test]
    fn config_presets_scale_up() {
        let fast = TrainConfig::fast();
        let standard = TrainConfig::standard();
        let paper = TrainConfig::paper();
        assert!(fast.hidden_dim < standard.hidden_dim);
        assert!(standard.hidden_dim < paper.hidden_dim);
        assert_eq!(paper.num_layers, 5, "the paper uses five GNN layers");
        assert_eq!(paper.hidden_dim, 300, "the paper uses hidden dimension 300");
        assert_eq!(paper.epochs, 100);
        assert_eq!(TrainConfig::default(), standard);
        assert_eq!(fast.with_seed(9).seed, 9);
    }

    #[test]
    fn zero_batch_sizes_are_rejected_not_clamped() {
        let mut config = TrainConfig::fast();
        assert!(config.validate().is_ok());
        config.batch_size = 0;
        let error = config.validate().unwrap_err();
        assert!(matches!(&error, crate::Error::Config(message) if message.contains("batch_size")));
    }

    #[test]
    #[should_panic(expected = "batch_size must be at least 1")]
    fn regressor_training_panics_on_zero_batch_size() {
        let dataset = tiny_dataset(4);
        let mut config = TrainConfig::fast();
        config.batch_size = 0;
        let normalizer = TargetNormalizer::fit(&dataset).unwrap();
        let model = GraphRegressor::new(GnnKind::Gcn, FeatureMode::Base, &config);
        let _ = train_regressor(&model, &normalizer, &dataset, &config);
    }

    #[test]
    #[should_panic(expected = "batch_size must be at least 1")]
    fn classifier_training_panics_on_zero_batch_size() {
        let dataset = tiny_dataset(4);
        let mut config = TrainConfig::fast();
        config.batch_size = 0;
        let model = NodeClassifierModel::new(GnnKind::Gcn, &config);
        let _ = train_node_classifier(&model, &dataset, &config);
    }

    #[test]
    fn regressor_training_reduces_loss() {
        let dataset = tiny_dataset(12);
        let mut config = TrainConfig::fast();
        config.epochs = 8;
        let normalizer = TargetNormalizer::fit(&dataset).unwrap();
        let model = GraphRegressor::new(GnnKind::GraphSage, FeatureMode::Base, &config);
        let history = train_regressor(&model, &normalizer, &dataset, &config);
        assert_eq!(history.len(), config.epochs);
        let first = history.first().copied().unwrap();
        let last = history.last().copied().unwrap();
        assert!(last < first, "loss should decrease: first {first}, last {last}");
        let mape = evaluate_regressor(&model, &normalizer, &dataset);
        assert!(mape.iter().all(|m| m.is_finite()));
    }

    #[test]
    fn classifier_training_reaches_reasonable_accuracy() {
        let dataset = tiny_dataset(10);
        let mut config = TrainConfig::fast();
        config.epochs = 8;
        let model = NodeClassifierModel::new(GnnKind::GraphSage, &config);
        let history = train_node_classifier(&model, &dataset, &config);
        assert!(history.last().unwrap() < history.first().unwrap());
        let accuracies = evaluate_node_classifier(&model, &dataset);
        // Most nodes use LUTs, so even a small model should beat coin flips on
        // the training set.
        assert!(accuracies.iter().all(|&a| (0.0..=1.0).contains(&a)));
        assert!(accuracies[ResourceClass::Lut.index()] > 0.5);
    }

    #[test]
    fn prediction_outputs_raw_scale_values() {
        let dataset = tiny_dataset(6);
        let config = TrainConfig::fast();
        let normalizer = TargetNormalizer::fit(&dataset).unwrap();
        let model = GraphRegressor::new(GnnKind::Gcn, FeatureMode::Base, &config);
        let prediction = predict_regressor(&model, &normalizer, &dataset.samples[0], None);
        assert!(prediction.iter().all(|v| v.is_finite() && *v >= 0.0));
    }
}
