//! The unified prediction-engine interface: every approach of the paper —
//! and any future model — is driven through the dyn-safe [`Predictor`] trait.
//!
//! A `Box<dyn Predictor>` built by [`crate::builder::PredictorSpec::build`]
//! (or reloaded from JSON with [`crate::builder::load_predictor`]) can be
//! trained, evaluated, batched over a design sweep and persisted without the
//! caller knowing which approach or GNN backbone is inside. All evaluation
//! hot loops ([`Predictor::evaluate`], [`crate::approach::seed_averaged_mape`]
//! and the experiment harness) are routed through
//! [`Predictor::predict_batch`], so there is one inference code path to
//! optimise.

use crate::builder::PredictorSpec;
use crate::dataset::{Dataset, GraphSample, SampleSource};
use crate::metrics::mape_with_floor;
use crate::persist::SavedPredictor;
use crate::task::TargetMetric;
use crate::train::TrainConfig;
use crate::Result;

/// A trained (or trainable) HLS performance predictor.
///
/// The trait is object-safe: servers, bench binaries and config-driven tools
/// hold predictors as `Box<dyn Predictor>` and select the concrete model at
/// runtime with [`crate::builder::PredictorSpec::from_str`].
pub trait Predictor {
    /// The spec (approach × backbone) this predictor was built from.
    fn spec(&self) -> PredictorSpec;

    /// Human-readable name in the paper's notation, e.g. `"RGCN-I"`.
    fn name(&self) -> String {
        self.spec().name()
    }

    /// True once the predictor has been trained (or loaded from a snapshot).
    fn is_trained(&self) -> bool;

    /// Trains the predictor.
    ///
    /// # Errors
    /// Returns [`crate::Error::DatasetTooSmall`] for an empty training set.
    fn fit(&mut self, train: &Dataset, validation: &Dataset, config: &TrainConfig) -> Result<()>;

    /// Trains the predictor from any [`SampleSource`] — the streaming
    /// counterpart of [`Predictor::fit`] for corpora that do not fit in RAM.
    ///
    /// The default implementation materialises the source into a [`Dataset`]
    /// and delegates, which is correct but unbounded in memory;
    /// implementations with a native streaming path (like
    /// [`crate::approach::GnnPredictor`]) override it to iterate
    /// mini-batch-bounded and produce results bit-identical to [`fit`] on
    /// the materialised equivalent.
    ///
    /// # Errors
    /// As [`Predictor::fit`], plus the source's own fetch failures.
    ///
    /// [`fit`]: Predictor::fit
    fn fit_source(
        &mut self,
        train: &dyn SampleSource,
        validation: &Dataset,
        config: &TrainConfig,
    ) -> Result<()> {
        let train = Dataset::from_source(train)?;
        self.fit(&train, validation, config)
    }

    /// Predicts the raw `[DSP, LUT, FF, CP]` values for every design in a
    /// batch. This is the primary inference entry point: trained state is
    /// resolved once per call and shared across the whole batch, and the
    /// fused mini-batching engine unions up to a mini-batch of graphs per
    /// forward tape (see [`crate::runtime::BatchConfig`]), so predicting `n`
    /// designs costs one setup plus about `⌈n / batch_size⌉` fused forward
    /// passes. A design's fused rows do not depend on the rest of its chunk,
    /// so the result never depends on chunk boundaries.
    fn predict_batch(&self, samples: &[GraphSample]) -> Vec<Result<[f64; TargetMetric::COUNT]>>;

    /// Predicts the raw `[DSP, LUT, FF, CP]` values of one design. Delegates
    /// to [`Predictor::predict_batch`] with a single-element batch.
    ///
    /// # Errors
    /// Returns [`crate::Error::NotTrained`] if called before
    /// [`Predictor::fit`].
    fn predict(&self, sample: &GraphSample) -> Result<[f64; TargetMetric::COUNT]> {
        self.predict_batch(std::slice::from_ref(sample))
            .pop()
            .expect("predict_batch returns one result per sample")
    }

    /// Per-target MAPE over a dataset, computed through
    /// [`Predictor::predict_batch`]. Samples whose prediction fails are
    /// skipped; if *every* prediction fails on a non-empty dataset (an
    /// untrained model), the result is `NaN` per target rather than a
    /// perfect-looking `0.0`. An empty dataset likewise evaluates to `NaN`
    /// per target — there is no evidence to report a score on.
    fn evaluate(&self, dataset: &Dataset) -> [f64; TargetMetric::COUNT] {
        let mut predictions: Vec<Vec<f64>> = vec![Vec::new(); TargetMetric::COUNT];
        let mut actuals: Vec<Vec<f64>> = vec![Vec::new(); TargetMetric::COUNT];
        let batch = self.predict_batch(&dataset.samples);
        for (sample, predicted) in dataset.samples.iter().zip(batch) {
            if let Ok(predicted) = predicted {
                for target in 0..TargetMetric::COUNT {
                    predictions[target].push(predicted[target]);
                    actuals[target].push(sample.targets[target]);
                }
            }
        }
        if !dataset.is_empty() && predictions[0].is_empty() {
            return [f64::NAN; TargetMetric::COUNT];
        }
        let mut result = [0.0f64; TargetMetric::COUNT];
        for target in 0..TargetMetric::COUNT {
            result[target] = mape_with_floor(&predictions[target], &actuals[target], 1.0);
        }
        result
    }

    /// [`Predictor::evaluate`] over any [`SampleSource`], streaming
    /// fixed-size chunks through [`Predictor::predict_batch`] so peak memory
    /// is bounded by the chunk size rather than the corpus. Because chunk
    /// boundaries never change a prediction, the score equals [`evaluate`]
    /// on the materialised equivalent exactly.
    ///
    /// # Errors
    /// Propagates the source's fetch failures. Prediction failures are
    /// handled as in [`evaluate`] (skipped; all-failed ⇒ `NaN`).
    ///
    /// [`evaluate`]: Predictor::evaluate
    fn evaluate_source(&self, source: &dyn SampleSource) -> Result<[f64; TargetMetric::COUNT]> {
        const CHUNK: usize = 64;
        let mut predictions: Vec<Vec<f64>> = vec![Vec::new(); TargetMetric::COUNT];
        let mut actuals: Vec<Vec<f64>> = vec![Vec::new(); TargetMetric::COUNT];
        let mut start = 0;
        while start < source.len() {
            let end = (start + CHUNK).min(source.len());
            let mut chunk = Vec::with_capacity(end - start);
            for index in start..end {
                chunk.push(source.fetch(index)?.into_owned());
            }
            start = end;
            let batch = self.predict_batch(&chunk);
            for (sample, predicted) in chunk.iter().zip(batch) {
                if let Ok(predicted) = predicted {
                    for target in 0..TargetMetric::COUNT {
                        predictions[target].push(predicted[target]);
                        actuals[target].push(sample.targets[target]);
                    }
                }
            }
        }
        if !source.is_empty() && predictions[0].is_empty() {
            return Ok([f64::NAN; TargetMetric::COUNT]);
        }
        let mut result = [0.0f64; TargetMetric::COUNT];
        for target in 0..TargetMetric::COUNT {
            result[target] = mape_with_floor(&predictions[target], &actuals[target], 1.0);
        }
        Ok(result)
    }

    /// Exports the trained state (spec, hyper-parameters, normaliser and
    /// weights) as a plain-`Matrix`, `Send + Sync` snapshot. This is the
    /// bridge out of the `!Send` autodiff tape: the snapshot can cross
    /// threads freely, so the parallel runtime rehydrates one per worker to
    /// shard inference ([`crate::runtime::predict_batch_sharded`]), and
    /// [`Predictor::save_json`] serialises it for another process.
    ///
    /// Contract: rehydrating the snapshot — through
    /// [`crate::approach::GnnPredictor::from_saved`] or
    /// [`crate::builder::load_predictor`] — must produce a predictor whose
    /// outputs match this one *exactly*. The sharded-inference fast path
    /// relies on that equivalence; an implementation that cannot express its
    /// inference as a rehydrated [`crate::approach::GnnPredictor`] must
    /// return an error here (the runtime then falls back to its serial
    /// `predict_batch`).
    ///
    /// # Errors
    /// Returns [`crate::Error::NotTrained`] if called before
    /// [`Predictor::fit`], and [`crate::Error::Config`] when the trained
    /// weights are non-finite (a diverged run is refused rather than
    /// exported).
    fn snapshot(&self) -> Result<SavedPredictor>;

    /// Serialises the trained state to JSON via [`Predictor::snapshot`]. The
    /// result reloads with [`crate::builder::load_predictor`], producing a
    /// predictor whose outputs match the original exactly.
    ///
    /// # Errors
    /// Returns [`crate::Error::NotTrained`] if called before
    /// [`Predictor::fit`].
    fn save_json(&self) -> Result<String> {
        self.snapshot()?.to_json()
    }
}

impl<P: Predictor + ?Sized> Predictor for Box<P> {
    fn spec(&self) -> PredictorSpec {
        (**self).spec()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn is_trained(&self) -> bool {
        (**self).is_trained()
    }

    fn fit(&mut self, train: &Dataset, validation: &Dataset, config: &TrainConfig) -> Result<()> {
        (**self).fit(train, validation, config)
    }

    fn fit_source(
        &mut self,
        train: &dyn SampleSource,
        validation: &Dataset,
        config: &TrainConfig,
    ) -> Result<()> {
        (**self).fit_source(train, validation, config)
    }

    fn predict_batch(&self, samples: &[GraphSample]) -> Vec<Result<[f64; TargetMetric::COUNT]>> {
        (**self).predict_batch(samples)
    }

    fn predict(&self, sample: &GraphSample) -> Result<[f64; TargetMetric::COUNT]> {
        (**self).predict(sample)
    }

    fn evaluate(&self, dataset: &Dataset) -> [f64; TargetMetric::COUNT] {
        (**self).evaluate(dataset)
    }

    fn evaluate_source(&self, source: &dyn SampleSource) -> Result<[f64; TargetMetric::COUNT]> {
        (**self).evaluate_source(source)
    }

    fn snapshot(&self) -> Result<SavedPredictor> {
        (**self).snapshot()
    }

    fn save_json(&self) -> Result<String> {
        (**self).save_json()
    }
}
