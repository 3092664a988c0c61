//! The three prediction strategies of §2 of the paper, unified behind one
//! implementation of the [`Predictor`] trait.
//!
//! Historically each strategy was its own struct (`OffTheShelfPredictor`,
//! `KnowledgeRichPredictor`, `HierarchicalPredictor`); they are now absorbed
//! into [`GnnPredictor`], parameterised by a
//! [`crate::builder::PredictorSpec`]:
//!
//! * [`ApproachKind::OffTheShelf`] — earliest prediction, Table-1 features
//!   only.
//! * [`ApproachKind::KnowledgeRich`] — late prediction, per-node resource
//!   values from the HLS intermediate results as auxiliary inputs.
//! * [`ApproachKind::Hierarchical`] — the knowledge-infused approach: a
//!   node-level resource-type classifier feeds a graph-level regressor;
//!   ground-truth types are used during training and self-inferred types at
//!   inference, so prediction still happens at the earliest stage with
//!   (almost) zero extra inference cost.
//!
//! This module also keeps the paper's evaluation protocol
//! ([`seed_averaged_mape`]) and the HLS-report baseline
//! ([`hls_baseline_mape`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::builder::{ApproachKind, PredictorSpec};
use crate::dataset::{Dataset, GraphSample, SampleSource};
use crate::metrics::{mape_with_floor, TargetNormalizer};
use crate::model::{GraphRegressor, NodeClassifierModel};
use crate::persist::{SavedNormalizer, SavedPredictor, SavedTensor, SNAPSHOT_VERSION};
use crate::predictor::Predictor;
use crate::runtime::{self, BatchConfig, ParallelConfig};
use crate::task::{ResourceClass, TargetMetric};
use crate::train::{
    denormalize_row, evaluate_node_classifier, train_node_classifier_source, TrainConfig,
};
use crate::{Error, Result};

/// The paper's evaluation protocol (§5.1): train `runs` copies of a predictor
/// with different seeds, rank them by mean validation MAPE, and report the
/// per-target test MAPE averaged over the `keep` best runs ("each model is
/// trained with five runs using different random number seeds and we report
/// the average of three with least validation error").
///
/// `make` builds a fresh, untrained predictor for a given seed; it may return
/// any [`Predictor`] implementation, including `Box<dyn Predictor>` from the
/// builder API. Evaluation goes through [`Predictor::evaluate`] and therefore
/// the batched inference path.
///
/// The runs are embarrassingly parallel — each one's RNG state is derived
/// purely from its seed — and execute on the runtime configured by
/// `HLSGNN_WORKERS` ([`ParallelConfig::from_env`]). Use
/// [`seed_averaged_mape_with`] to pass an explicit worker configuration. The
/// reported metrics are bit-identical for every worker count.
///
/// # Errors
/// Propagates training errors; returns [`Error::Config`] when `runs` or `keep`
/// is zero or `keep > runs`.
pub fn seed_averaged_mape<A, F>(
    make: F,
    train: &Dataset,
    validation: &Dataset,
    test: &Dataset,
    config: &TrainConfig,
    runs: usize,
    keep: usize,
) -> Result<[f64; TargetMetric::COUNT]>
where
    A: Predictor,
    F: Fn(u64) -> A + Sync,
{
    seed_averaged_mape_with(
        &ParallelConfig::from_env(),
        make,
        train,
        validation,
        test,
        config,
        runs,
        keep,
    )
}

/// [`seed_averaged_mape`] with an explicit worker configuration. Each worker
/// constructs, trains and evaluates its own thread-confined predictor; only
/// the (`Send`) per-run scores travel back to the coordinator, which ranks
/// them in run order — so results are bit-identical to the serial protocol
/// regardless of worker count.
///
/// # Errors
/// Propagates training errors (the lowest-seed failure, matching the serial
/// loop); returns [`Error::Config`] when `runs` or `keep` is zero or
/// `keep > runs`.
#[allow(clippy::too_many_arguments)]
pub fn seed_averaged_mape_with<A, F>(
    parallel: &ParallelConfig,
    make: F,
    train: &Dataset,
    validation: &Dataset,
    test: &Dataset,
    config: &TrainConfig,
    runs: usize,
    keep: usize,
) -> Result<[f64; TargetMetric::COUNT]>
where
    A: Predictor,
    F: Fn(u64) -> A + Sync,
{
    if runs == 0 || keep == 0 || keep > runs {
        return Err(Error::Config(format!(
            "invalid seed-averaging setup: runs = {runs}, keep = {keep}"
        )));
    }
    let mut ranked: Vec<(f64, [f64; TargetMetric::COUNT])> =
        runtime::try_run_jobs(parallel, runs, |run| {
            let seed = config.seed.wrapping_add(run as u64);
            let run_config = config.clone().with_seed(seed);
            let mut predictor = make(seed);
            predictor.fit(train, validation, &run_config)?;
            // Rank by validation error when a validation split exists,
            // otherwise by training error (small corpora in tests may have no
            // validation).
            let ranking_set = if validation.is_empty() { train } else { validation };
            let validation_mape = predictor.evaluate(ranking_set);
            let score: f64 = validation_mape.iter().sum::<f64>() / TargetMetric::COUNT as f64;
            Ok((score, predictor.evaluate(test)))
        })?;
    // Stable sort + run-order input keeps tie-breaks identical to the serial
    // protocol.
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut averaged = [0.0f64; TargetMetric::COUNT];
    for (_, test_mape) in ranked.iter().take(keep) {
        for (slot, value) in averaged.iter_mut().zip(test_mape) {
            *slot += value;
        }
    }
    for slot in &mut averaged {
        *slot /= keep as f64;
    }
    Ok(averaged)
}

/// Per-target MAPE of the HLS report itself against the implementation ground
/// truth — the baseline every approach is compared to in Table 5.
pub fn hls_baseline_mape(dataset: &Dataset) -> [f64; TargetMetric::COUNT] {
    let mut result = [0.0f64; TargetMetric::COUNT];
    for (target, slot) in result.iter_mut().enumerate() {
        let predictions: Vec<f64> =
            dataset.samples.iter().map(|s| s.hls_estimate[target]).collect();
        let actuals: Vec<f64> = dataset.samples.iter().map(|s| s.targets[target]).collect();
        *slot = mape_with_floor(&predictions, &actuals, 1.0);
    }
    result
}

fn ensure_nonempty(train: &dyn SampleSource) -> Result<()> {
    if train.is_empty() {
        return Err(Error::DatasetTooSmall("training set is empty".to_owned()));
    }
    Ok(())
}

/// The GNN-based predictor implementing all three approaches of the paper,
/// selected by its [`PredictorSpec`].
///
/// Construct one directly, through [`PredictorSpec::build`], or through
/// [`crate::builder::PredictorBuilder`]; rehydrate a trained one from its
/// snapshot with [`GnnPredictor::from_saved`].
#[derive(Debug)]
pub struct GnnPredictor {
    spec: PredictorSpec,
    config: TrainConfig,
    classifier: Option<NodeClassifierModel>,
    regressor: Option<GraphRegressor>,
    normalizer: Option<TargetNormalizer>,
}

impl GnnPredictor {
    /// Creates an untrained predictor for the given spec.
    pub fn new(spec: PredictorSpec, config: &TrainConfig) -> Self {
        GnnPredictor {
            spec,
            config: config.clone(),
            classifier: None,
            regressor: None,
            normalizer: None,
        }
    }

    /// Approach 1: off-the-shelf GNN on raw IR graphs (earliest prediction).
    pub fn off_the_shelf(backbone: gnn::GnnKind, config: &TrainConfig) -> Self {
        GnnPredictor::new(PredictorSpec::new(ApproachKind::OffTheShelf, backbone), config)
    }

    /// Approach 2: knowledge-rich GNN using per-node HLS resource estimates.
    pub fn knowledge_rich(backbone: gnn::GnnKind, config: &TrainConfig) -> Self {
        GnnPredictor::new(PredictorSpec::new(ApproachKind::KnowledgeRich, backbone), config)
    }

    /// Approach 3: the knowledge-infused hierarchical GNN.
    pub fn hierarchical(backbone: gnn::GnnKind, config: &TrainConfig) -> Self {
        GnnPredictor::new(PredictorSpec::new(ApproachKind::Hierarchical, backbone), config)
    }

    /// Per-class accuracy of the node-level stage (Table 3).
    ///
    /// # Errors
    /// Returns [`Error::NotTrained`] before [`Predictor::fit`] and
    /// [`Error::Config`] for approaches without a node-level stage.
    pub fn node_accuracy(&self, dataset: &Dataset) -> Result<[f64; ResourceClass::COUNT]> {
        let classifier = self.classifier_checked()?;
        Ok(evaluate_node_classifier(classifier, dataset))
    }

    /// Self-inferred resource types for one design (the inference-time input
    /// of the graph-level stage).
    ///
    /// # Errors
    /// Returns [`Error::NotTrained`] before [`Predictor::fit`] and
    /// [`Error::Config`] for approaches without a node-level stage.
    pub fn infer_types(&self, sample: &GraphSample) -> Result<Vec<[f32; 3]>> {
        Ok(self.classifier_checked()?.predict_types(&[sample]))
    }

    /// Rebuilds a trained predictor from a snapshot.
    ///
    /// # Errors
    /// Returns [`Error::Config`] when the snapshot's tensors do not match the
    /// architecture implied by its spec and config.
    pub fn from_saved(saved: &SavedPredictor) -> Result<Self> {
        let regressor = GraphRegressor::new(
            saved.spec.backbone,
            saved.spec.approach.feature_mode(),
            &saved.config,
        );
        regressor.load_state(&SavedTensor::to_state(&saved.regressor)?)?;
        let classifier = match (&saved.classifier, saved.spec.approach.uses_classifier()) {
            (Some(tensors), true) => {
                let classifier = NodeClassifierModel::new(saved.spec.backbone, &saved.config);
                classifier.load_state(&SavedTensor::to_state(tensors)?)?;
                Some(classifier)
            }
            (None, false) => None,
            (Some(_), false) => {
                return Err(Error::Config(format!(
                    "snapshot for {} carries a classifier but the approach has no node-level stage",
                    saved.spec.name()
                )))
            }
            (None, true) => {
                return Err(Error::Config(format!(
                    "snapshot for {} is missing the node-classifier stage",
                    saved.spec.name()
                )))
            }
        };
        Ok(GnnPredictor {
            spec: saved.spec,
            config: saved.config.clone(),
            classifier,
            regressor: Some(regressor),
            normalizer: Some(saved.normalizer.to_normalizer()),
        })
    }

    fn classifier_checked(&self) -> Result<&NodeClassifierModel> {
        if !self.spec.approach.uses_classifier() {
            return Err(Error::Config(format!(
                "{} has no node-level classifier stage (approach `{}`)",
                self.name(),
                self.spec.approach
            )));
        }
        self.classifier.as_ref().ok_or_else(|| Error::NotTrained(self.name()))
    }

    /// Resolves the trained inference state once (the shared fast path used
    /// by `predict_batch`).
    fn trained_state(&self) -> Result<(&GraphRegressor, &TargetNormalizer)> {
        match (&self.regressor, &self.normalizer) {
            (Some(regressor), Some(normalizer)) => Ok((regressor, normalizer)),
            _ => Err(Error::NotTrained(self.name())),
        }
    }

    /// [`Predictor::fit_source`] with an explicit chunk plan instead of the
    /// default. Frozen protocols (the registry parity gate) use this so their
    /// chunk plans — and therefore their floating-point accumulation order —
    /// cannot drift when the default node budget is retuned.
    pub fn fit_source_with(
        &mut self,
        batch_config: &BatchConfig,
        train: &dyn SampleSource,
        _validation: &Dataset,
        config: &TrainConfig,
    ) -> Result<()> {
        ensure_nonempty(train)?;
        config.validate()?;
        // Validate the targets up front, and train every stage into locals
        // before mutating `self`: a rejected refit — or a mid-training fetch
        // failure from an on-disk source — leaves an already trained
        // predictor fully intact (and a fresh one untouched), never a
        // half-retrained mix of stages.
        let normalizer = TargetNormalizer::fit_source(train)?;
        // Stage 1 (hierarchical only): node-level classification, supervised
        // by the ground-truth resource types (knowledge infusion).
        let classifier = if self.spec.approach.uses_classifier() {
            let classifier = NodeClassifierModel::new(self.spec.backbone, config);
            train_node_classifier_source(&classifier, train, config)?;
            Some(classifier)
        } else {
            None
        };
        // Graph-level regression; the hierarchical approach trains on
        // ground-truth types and self-infers them at prediction time.
        let regressor =
            GraphRegressor::new(self.spec.backbone, self.spec.approach.feature_mode(), config);
        crate::train::train_regressor_source_with(
            batch_config,
            &regressor,
            &normalizer,
            train,
            config,
        )?;
        self.config = config.clone();
        self.classifier = classifier;
        self.regressor = Some(regressor);
        self.normalizer = Some(normalizer);
        Ok(())
    }

    /// [`Predictor::predict_batch`] with an explicit chunk plan. Each chunk
    /// of [`BatchConfig::plan_chunks`] runs one fused forward pass per stage
    /// — the hierarchical approach self-infers the whole chunk's resource
    /// types in one classifier forward, then regresses the chunk in one
    /// [`GraphRegressor::forward_batch`]. A design's fused rows do not
    /// depend on the rest of its chunk, so the node budget only changes the
    /// cost of a sweep, never its result.
    pub fn predict_batch_with(
        &self,
        samples: &[GraphSample],
        batch_config: &BatchConfig,
    ) -> Vec<Result<[f64; TargetMetric::COUNT]>> {
        // Resolve models, normaliser and the optional classifier once for the
        // whole batch; the per-chunk loop then only runs forward passes.
        let (regressor, normalizer) = match self.trained_state() {
            Ok(state) => state,
            Err(error) => return samples.iter().map(|_| Err(error.clone())).collect(),
        };
        let classifier = if self.spec.approach.uses_classifier() {
            match self.classifier.as_ref() {
                Some(classifier) => Some(classifier),
                None => {
                    let error = Error::NotTrained(self.name());
                    return samples.iter().map(|_| Err(error.clone())).collect();
                }
            }
        } else {
            None
        };
        let mut results = Vec::with_capacity(samples.len());
        let sizes: Vec<usize> = samples.iter().map(GraphSample::num_nodes).collect();
        let mut start = 0;
        for length in
            batch_config.plan_chunks(&sizes, self.config.batch_size, self.config.hidden_dim)
        {
            let chunk: Vec<&GraphSample> = samples[start..start + length].iter().collect();
            start += length;
            // Hierarchical inference: the only inputs are the IR graphs; the
            // node-level stage self-infers every node's resource types.
            let types = classifier.map(|classifier| classifier.predict_types(&chunk));
            let mut rng = StdRng::seed_from_u64(0);
            let output = regressor.forward_batch(&chunk, types.as_deref(), false, &mut rng).value();
            // The fused inference tape is dead once its values are extracted.
            gnn_tensor::tape::reset();
            results.extend((0..length).map(|row| Ok(denormalize_row(normalizer, &output, row))));
        }
        results
    }
}

impl Predictor for GnnPredictor {
    fn spec(&self) -> PredictorSpec {
        self.spec
    }

    fn is_trained(&self) -> bool {
        self.regressor.is_some() && self.normalizer.is_some()
    }

    fn fit(&mut self, train: &Dataset, validation: &Dataset, config: &TrainConfig) -> Result<()> {
        // One training implementation: the in-memory path is the streamed
        // path over the borrowing `SampleSource` impl, so the two can never
        // drift apart numerically.
        self.fit_source(train, validation, config)
    }

    fn fit_source(
        &mut self,
        train: &dyn SampleSource,
        validation: &Dataset,
        config: &TrainConfig,
    ) -> Result<()> {
        self.fit_source_with(&BatchConfig::default(), train, validation, config)
    }

    fn predict_batch(&self, samples: &[GraphSample]) -> Vec<Result<[f64; TargetMetric::COUNT]>> {
        self.predict_batch_with(samples, &BatchConfig::default())
    }

    fn snapshot(&self) -> Result<SavedPredictor> {
        let (regressor, normalizer) = self.trained_state()?;
        // Refuse to export NaN/inf weights: a diverged model predicts
        // garbage, so it fails here, where the training run can still be
        // fixed, rather than in a serving worker or a DSE sweep that
        // loaded it. (Rehydration itself checks shapes only.)
        let ensure_finite = |state: &[gnn_tensor::Matrix]| -> Result<()> {
            if state.iter().any(gnn_tensor::Matrix::has_non_finite) {
                return Err(Error::Config(format!(
                    "{} has non-finite weights (diverged training?); refusing to export",
                    self.name()
                )));
            }
            Ok(())
        };
        let regressor_state = regressor.state();
        ensure_finite(&regressor_state)?;
        let classifier = if self.spec.approach.uses_classifier() {
            let classifier =
                self.classifier.as_ref().ok_or_else(|| Error::NotTrained(self.name()))?;
            let classifier_state = classifier.state();
            ensure_finite(&classifier_state)?;
            Some(SavedTensor::from_state(&classifier_state))
        } else {
            None
        };
        Ok(SavedPredictor {
            version: SNAPSHOT_VERSION,
            spec: self.spec,
            config: self.config.clone(),
            normalizer: SavedNormalizer::from_normalizer(normalizer),
            regressor: SavedTensor::from_state(&regressor_state),
            classifier,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use gnn::GnnKind;
    use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};

    fn tiny_split() -> (Dataset, Dataset, Dataset) {
        let dataset = DatasetBuilder::new(ProgramFamily::StraightLine)
            .count(14)
            .seed(33)
            .generator_config(SyntheticConfig::tiny(ProgramFamily::StraightLine))
            .build()
            .unwrap();
        let split = dataset.split(0.7, 0.15, 1);
        (split.train, split.validation, split.test)
    }

    #[test]
    fn untrained_predictors_refuse_to_predict() {
        let (_, _, test) = tiny_split();
        let config = TrainConfig::fast();
        let predictors: Vec<Box<dyn Predictor>> = vec![
            Box::new(GnnPredictor::off_the_shelf(GnnKind::Gcn, &config)),
            Box::new(GnnPredictor::knowledge_rich(GnnKind::Gcn, &config)),
            Box::new(GnnPredictor::hierarchical(GnnKind::Gcn, &config)),
        ];
        for predictor in &predictors {
            assert!(!predictor.is_trained());
            assert!(matches!(predictor.predict(&test.samples[0]), Err(Error::NotTrained(_))));
            assert!(matches!(predictor.snapshot(), Err(Error::NotTrained(_))));
            let batch = predictor.predict_batch(&test.samples);
            assert_eq!(batch.len(), test.len());
            assert!(batch.iter().all(|r| matches!(r, Err(Error::NotTrained(_)))));
        }
    }

    #[test]
    fn names_follow_paper_notation() {
        let config = TrainConfig::fast();
        assert_eq!(GnnPredictor::off_the_shelf(GnnKind::Rgcn, &config).name(), "RGCN");
        assert_eq!(GnnPredictor::knowledge_rich(GnnKind::Rgcn, &config).name(), "RGCN-R");
        assert_eq!(GnnPredictor::hierarchical(GnnKind::Pna, &config).name(), "PNA-I");
    }

    #[test]
    fn all_three_approaches_train_and_predict() {
        let (train, validation, test) = tiny_split();
        let config = TrainConfig::fast();
        let mut off_the_shelf = GnnPredictor::off_the_shelf(GnnKind::GraphSage, &config);
        let mut knowledge_rich = GnnPredictor::knowledge_rich(GnnKind::GraphSage, &config);
        let mut hierarchical = GnnPredictor::hierarchical(GnnKind::GraphSage, &config);
        off_the_shelf.fit(&train, &validation, &config).unwrap();
        knowledge_rich.fit(&train, &validation, &config).unwrap();
        hierarchical.fit(&train, &validation, &config).unwrap();

        for approach in [&off_the_shelf as &dyn Predictor, &knowledge_rich, &hierarchical] {
            assert!(approach.is_trained());
            let prediction = approach.predict(&test.samples[0]).unwrap();
            assert!(prediction.iter().all(|v| v.is_finite() && *v >= 0.0));
            let mape = approach.evaluate(&test);
            assert!(mape.iter().all(|m| m.is_finite()));
        }
        let accuracies = hierarchical.node_accuracy(&test).unwrap();
        assert!(accuracies.iter().all(|&a| (0.0..=1.0).contains(&a)));
        let types = hierarchical.infer_types(&test.samples[0]).unwrap();
        assert_eq!(types.len(), test.samples[0].num_nodes());

        // The node-level stage only exists for the hierarchical approach.
        assert!(matches!(off_the_shelf.node_accuracy(&test), Err(Error::Config(_))));
        assert!(matches!(knowledge_rich.infer_types(&test.samples[0]), Err(Error::Config(_))));
    }

    #[test]
    fn predict_batch_matches_per_sample_predict() {
        let (train, validation, test) = tiny_split();
        let config = TrainConfig::fast();
        for approach in ApproachKind::ALL {
            let spec = PredictorSpec::new(approach, GnnKind::Gcn);
            let mut predictor = GnnPredictor::new(spec, &config);
            predictor.fit(&train, &validation, &config).unwrap();
            let batch = predictor.predict_batch(&test.samples);
            assert_eq!(batch.len(), test.len());
            for (sample, batched) in test.samples.iter().zip(batch) {
                let single = predictor.predict(sample).unwrap();
                assert_eq!(single, batched.unwrap(), "{}: batch differs from single", spec.id());
            }
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_predictions_exactly() {
        let (train, validation, test) = tiny_split();
        let config = TrainConfig::fast();
        for approach in ApproachKind::ALL {
            let spec = PredictorSpec::new(approach, GnnKind::GraphSage);
            let mut predictor = GnnPredictor::new(spec, &config);
            predictor.fit(&train, &validation, &config).unwrap();
            let reloaded = GnnPredictor::from_saved(&predictor.snapshot().unwrap()).unwrap();
            assert_eq!(reloaded.spec(), spec);
            assert!(reloaded.is_trained());
            for sample in &test.samples {
                assert_eq!(
                    reloaded.predict(sample).unwrap(),
                    predictor.predict(sample).unwrap(),
                    "{}: reloaded model diverged",
                    spec.id()
                );
            }
        }
    }

    #[test]
    fn seed_averaging_follows_the_paper_protocol() {
        let (train, validation, test) = tiny_split();
        let mut config = TrainConfig::fast();
        config.epochs = 2;
        let averaged = seed_averaged_mape(
            |_seed| GnnPredictor::off_the_shelf(GnnKind::Gcn, &config),
            &train,
            &validation,
            &test,
            &config,
            3,
            2,
        )
        .expect("seed averaging runs");
        assert!(averaged.iter().all(|m| m.is_finite() && *m >= 0.0));

        // The protocol also accepts boxed predictors from the builder API.
        let boxed = seed_averaged_mape(
            |_seed| PredictorSpec::new(ApproachKind::OffTheShelf, GnnKind::Gcn).build(&config),
            &train,
            &validation,
            &test,
            &config,
            2,
            1,
        );
        assert!(boxed.is_ok());

        // Invalid setups are rejected.
        let invalid = seed_averaged_mape(
            |_seed| GnnPredictor::off_the_shelf(GnnKind::Gcn, &config),
            &train,
            &validation,
            &test,
            &config,
            1,
            2,
        );
        assert!(matches!(invalid, Err(Error::Config(_))));
    }

    #[test]
    fn non_finite_weights_refuse_to_export() {
        let (train, validation, _) = tiny_split();
        let config = TrainConfig::fast();
        let mut predictor = GnnPredictor::off_the_shelf(GnnKind::Gcn, &config);
        predictor.fit(&train, &validation, &config).unwrap();
        let params = predictor.regressor.as_ref().unwrap().parameters();
        let (rows, cols) = params[0].shape();
        params[0].set_value(gnn_tensor::Matrix::full(rows, cols, f32::NAN));
        assert!(matches!(predictor.snapshot(), Err(Error::Config(_))));
    }

    #[test]
    fn evaluating_an_untrained_model_reports_nan_not_zero() {
        let (_, _, test) = tiny_split();
        let config = TrainConfig::fast();
        let predictor = GnnPredictor::off_the_shelf(GnnKind::Gcn, &config);
        assert!(predictor.evaluate(&test).iter().all(|m| m.is_nan()));
        // An empty dataset also evaluates to NaN — never a perfect-looking 0.
        assert!(predictor.evaluate(&Dataset::default()).iter().all(|m| m.is_nan()));
    }

    #[test]
    fn empty_training_set_is_rejected() {
        let config = TrainConfig::fast();
        let mut predictor = GnnPredictor::off_the_shelf(GnnKind::Gcn, &config);
        let empty = Dataset::default();
        assert!(matches!(predictor.fit(&empty, &empty, &config), Err(Error::DatasetTooSmall(_))));
    }

    #[test]
    fn hls_baseline_mape_is_positive_for_lut() {
        let (train, _, _) = tiny_split();
        let baseline = hls_baseline_mape(&train);
        assert!(baseline[TargetMetric::Lut.index()] > 0.0);
        assert!(baseline.iter().all(|m| m.is_finite()));
    }
}
