//! The two model shapes used throughout the paper: the graph-level regressor
//! (feature encoder → GNN stack → pooling → FFN head) and the node-level
//! resource-type classifier (feature encoder → GNN stack → linear head).

use gnn::{GnnKind, GnnStack, GraphBatch, Pooling};
use gnn_tensor::{Linear, Matrix, Mlp, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::GraphSample;
use crate::encode::{FeatureEncoder, FeatureMode};
use crate::task::{ResourceClass, TargetMetric};
use crate::train::TrainConfig;

/// Graph-level regressor predicting the normalised `[DSP, LUT, FF, CP]`
/// vector of one design.
#[derive(Debug)]
pub struct GraphRegressor {
    encoder: FeatureEncoder,
    stack: GnnStack,
    pooling: Pooling,
    head: Mlp,
    kind: GnnKind,
}

impl GraphRegressor {
    /// Builds a regressor for the given backbone and feature mode. The
    /// analytic-bound feature columns follow the `HLSGNN_FEATURES=analytic`
    /// opt-in (see [`crate::encode::analytic_features_enabled`]).
    pub fn new(kind: GnnKind, mode: FeatureMode, config: &TrainConfig) -> Self {
        Self::with_analytic_features(kind, mode, config, crate::encode::analytic_features_enabled())
    }

    /// [`GraphRegressor::new`] with the analytic-bound feature columns
    /// enabled or disabled programmatically instead of through the
    /// environment — the ablation harness trains both variants side by side
    /// in one process. Parameter initialisation draws the same RNG stream
    /// either way; only the first GNN layer's input width differs.
    pub fn with_analytic_features(
        kind: GnnKind,
        mode: FeatureMode,
        config: &TrainConfig,
        analytic: bool,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = FeatureEncoder::new(mode, config.embed_dim, &mut rng).with_analytic(analytic);
        let stack = GnnStack::new(
            kind,
            encoder.output_dim(),
            config.hidden_dim,
            config.num_layers,
            GraphSample::NUM_RELATIONS,
            &mut rng,
        )
        .with_dropout(config.dropout);
        // The paper's regression head: hidden — 2·hidden — hidden — targets.
        let head = Mlp::new(
            &[config.hidden_dim, 2 * config.hidden_dim, config.hidden_dim, TargetMetric::COUNT],
            &mut rng,
        );
        GraphRegressor { encoder, stack, pooling: config.pooling, head, kind }
    }

    /// Backbone kind of this regressor.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Feature mode of this regressor.
    pub fn mode(&self) -> FeatureMode {
        self.encoder.mode()
    }

    /// Forward pass over a chunk of samples, producing a `B × 4` normalised
    /// prediction matrix — one row per sample, in order. The samples'
    /// structures are disjoint-unioned into one [`GraphBatch`] super-graph
    /// (a single sample is a batch of one), so the whole chunk shares a
    /// single autodiff tape; segment-aware pooling reads out one graph
    /// embedding per member graph.
    ///
    /// At inference (`training = false`, dropout inactive) every output row
    /// is bit-identical to the row of a batch holding that sample alone.
    /// During training the fused tape draws dropout masks in one pass over
    /// the super-graph, so with nonzero dropout the RNG stream depends on the
    /// chunk.
    ///
    /// `type_override`, when provided, carries self-inferred resource types
    /// for the knowledge-infused inference path: one entry per node of the
    /// chunk, in sample order then node order.
    ///
    /// # Panics
    /// Panics if `samples` is empty or the override has the wrong length.
    pub fn forward_batch(
        &self,
        samples: &[&GraphSample],
        type_override: Option<&[[f32; 3]]>,
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        let batch = fuse(samples);
        let features = self.encoder.encode_batch(samples, type_override);
        let embeddings = self.stack.forward(batch.graph(), &features, training, rng);
        let pooled =
            self.pooling.apply_segmented(&embeddings, batch.segments(), batch.num_graphs());
        self.head.forward(&pooled)
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        let mut params = self.encoder.parameters();
        params.extend(self.stack.parameters());
        params.extend(self.head.parameters());
        params
    }

    /// Snapshot of all parameter values (a "state dict"), in a stable order.
    pub fn state(&self) -> Vec<Matrix> {
        self.parameters().iter().map(Var::value).collect()
    }

    /// Restores a parameter snapshot taken from a regressor with the same
    /// architecture (backbone, feature mode and [`TrainConfig`] dimensions).
    ///
    /// # Errors
    /// Returns [`crate::Error::Config`] if the number or shapes of the
    /// matrices do not match this model's parameters.
    pub fn load_state(&self, state: &[Matrix]) -> crate::Result<()> {
        load_state_into(&self.parameters(), state)
    }
}

/// Disjoint-unions the samples' structures into one super-graph; a single
/// sample is a batch of one.
fn fuse(samples: &[&GraphSample]) -> GraphBatch {
    assert!(!samples.is_empty(), "cannot run a fused forward pass on an empty batch");
    let _assemble = gnn_tensor::profile::phase_timer(gnn_tensor::profile::Phase::Assemble);
    let structures: Vec<&gnn::GraphData> = samples.iter().map(|s| &s.structure).collect();
    GraphBatch::fuse(&structures)
}

/// Copies `state` into `params`, validating counts and shapes.
fn load_state_into(params: &[Var], state: &[Matrix]) -> crate::Result<()> {
    if params.len() != state.len() {
        return Err(crate::Error::Config(format!(
            "state has {} tensors but the model has {} parameters",
            state.len(),
            params.len()
        )));
    }
    for (index, (param, value)) in params.iter().zip(state).enumerate() {
        if param.shape() != value.shape() {
            return Err(crate::Error::Config(format!(
                "parameter {index} has shape {:?} but the state provides {:?}",
                param.shape(),
                value.shape()
            )));
        }
    }
    for (param, value) in params.iter().zip(state) {
        param.set_value(value.clone());
    }
    Ok(())
}

/// Node-level classifier predicting, for every node, which resource types it
/// will use in the final implementation (three binary tasks).
#[derive(Debug)]
pub struct NodeClassifierModel {
    encoder: FeatureEncoder,
    stack: GnnStack,
    head: Linear,
    kind: GnnKind,
}

impl NodeClassifierModel {
    /// Builds a node classifier for the given backbone.
    pub fn new(kind: GnnKind, config: &TrainConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        let encoder = FeatureEncoder::new(FeatureMode::Base, config.embed_dim, &mut rng);
        let stack = GnnStack::new(
            kind,
            encoder.output_dim(),
            config.hidden_dim,
            config.num_layers,
            GraphSample::NUM_RELATIONS,
            &mut rng,
        )
        .with_dropout(config.dropout);
        let head = Linear::new(config.hidden_dim, ResourceClass::COUNT, &mut rng);
        NodeClassifierModel { encoder, stack, head, kind }
    }

    /// Backbone kind of this classifier.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Forward pass over a chunk of samples producing one row of three
    /// logits per node, rows in sample order then node order. Like
    /// [`GraphRegressor::forward_batch`] the chunk is fused into one
    /// super-graph (a single sample is a batch of one), and at inference a
    /// sample's rows do not depend on the rest of the chunk.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn forward(&self, samples: &[&GraphSample], training: bool, rng: &mut StdRng) -> Var {
        let batch = fuse(samples);
        let features = self.encoder.encode_batch(samples, None);
        let embeddings = self.stack.forward(batch.graph(), &features, training, rng);
        self.head.forward(&embeddings)
    }

    /// Predicted resource-type flags (0/1) for every node of the chunk, in
    /// [`NodeClassifierModel::forward`] row order, thresholding the logits at
    /// zero (sigmoid 0.5).
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn predict_types(&self, samples: &[&GraphSample]) -> Vec<[f32; 3]> {
        let logits = self.forward(samples, false, &mut StdRng::seed_from_u64(0)).value();
        // Single-use inference tape: recycle its buffers right away.
        gnn_tensor::tape::reset();
        (0..logits.rows())
            .map(|node| {
                [
                    f32::from(logits.get(node, 0) > 0.0),
                    f32::from(logits.get(node, 1) > 0.0),
                    f32::from(logits.get(node, 2) > 0.0),
                ]
            })
            .collect()
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        let mut params = self.encoder.parameters();
        params.extend(self.stack.parameters());
        params.extend(self.head.parameters());
        params
    }

    /// Snapshot of all parameter values, in a stable order.
    pub fn state(&self) -> Vec<Matrix> {
        self.parameters().iter().map(Var::value).collect()
    }

    /// Restores a parameter snapshot taken from a classifier with the same
    /// architecture.
    ///
    /// # Errors
    /// Returns [`crate::Error::Config`] on a count or shape mismatch.
    pub fn load_state(&self, state: &[Matrix]) -> crate::Result<()> {
        load_state_into(&self.parameters(), state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};

    fn sample() -> GraphSample {
        DatasetBuilder::new(ProgramFamily::Control)
            .count(1)
            .seed(9)
            .generator_config(SyntheticConfig::tiny(ProgramFamily::Control))
            .build()
            .unwrap()
            .samples
            .remove(0)
    }

    #[test]
    fn regressor_outputs_four_targets() {
        let config = TrainConfig::fast();
        let sample = sample();
        let mut rng = StdRng::seed_from_u64(0);
        for mode in [FeatureMode::Base, FeatureMode::ResourceValues, FeatureMode::ResourceTypes] {
            let model = GraphRegressor::new(GnnKind::Rgcn, mode, &config);
            let out = model.forward_batch(&[&sample], None, false, &mut rng);
            assert_eq!(out.shape(), (1, TargetMetric::COUNT));
            assert_eq!(model.mode(), mode);
            assert_eq!(model.kind(), GnnKind::Rgcn);
            assert!(model.parameters().len() > 10);
        }
    }

    #[test]
    fn classifier_outputs_per_node_logits_and_types() {
        let config = TrainConfig::fast();
        let sample = sample();
        let model = NodeClassifierModel::new(GnnKind::GraphSage, &config);
        let mut rng = StdRng::seed_from_u64(1);
        let logits = model.forward(&[&sample], false, &mut rng);
        assert_eq!(logits.shape(), (sample.num_nodes(), ResourceClass::COUNT));
        let types = model.predict_types(&[&sample]);
        assert_eq!(types.len(), sample.num_nodes());
        assert!(types.iter().flatten().all(|&flag| flag == 0.0 || flag == 1.0));
        assert_eq!(model.kind(), GnnKind::GraphSage);
    }

    #[test]
    fn regressor_gradients_reach_encoder_and_head() {
        let config = TrainConfig::fast();
        let sample = sample();
        let model = GraphRegressor::new(GnnKind::Gcn, FeatureMode::Base, &config);
        let mut rng = StdRng::seed_from_u64(2);
        model.forward_batch(&[&sample], None, true, &mut rng).sum().backward();
        let with_grad = model.parameters().iter().filter(|p| p.grad().is_some()).count();
        assert!(with_grad * 2 >= model.parameters().len());
    }

    #[test]
    fn state_round_trips_between_identical_architectures() {
        let config = TrainConfig::fast();
        let sample = sample();
        let mut rng = StdRng::seed_from_u64(7);
        // Two regressors with different seeds have different weights.
        let source = GraphRegressor::new(GnnKind::Rgcn, FeatureMode::Base, &config);
        let target =
            GraphRegressor::new(GnnKind::Rgcn, FeatureMode::Base, &config.clone().with_seed(99));
        let before = target.forward_batch(&[&sample], None, false, &mut rng).value();
        target.load_state(&source.state()).expect("state loads");
        let after = target.forward_batch(&[&sample], None, false, &mut rng).value();
        let reference = source.forward_batch(&[&sample], None, false, &mut rng).value();
        assert_ne!(before, after, "loading the state must change the weights");
        assert_eq!(after, reference, "loaded model predicts exactly like the source");
    }

    #[test]
    fn state_loading_rejects_mismatched_architectures() {
        let config = TrainConfig::fast();
        let mut larger = TrainConfig::fast();
        larger.hidden_dim *= 2;
        let small = GraphRegressor::new(GnnKind::Gcn, FeatureMode::Base, &config);
        let big = GraphRegressor::new(GnnKind::Gcn, FeatureMode::Base, &larger);
        assert!(big.load_state(&small.state()).is_err());
        let classifier = NodeClassifierModel::new(GnnKind::Gcn, &config);
        assert!(classifier.load_state(&[]).is_err());
        assert!(classifier.load_state(&classifier.state()).is_ok());
    }

    #[test]
    fn inference_is_deterministic() {
        let config = TrainConfig::fast();
        let sample = sample();
        let model = GraphRegressor::new(GnnKind::Pna, FeatureMode::Base, &config);
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(99);
        let a = model.forward_batch(&[&sample], None, false, &mut rng_a).value();
        let b = model.forward_batch(&[&sample], None, false, &mut rng_b).value();
        assert_eq!(a, b);
    }
}
