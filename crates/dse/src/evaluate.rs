//! Candidate evaluation: lower once, predict once, memoise by content.
//!
//! The [`Evaluator`] is the single gate between search strategies and the
//! expensive work. It guarantees:
//!
//! * **one lowering per design point** — a point's kernel is instantiated
//!   and run through the `hls_sim` feature flow exactly once, keyed by the
//!   point's canonical index;
//! * **one prediction per distinct graph** — predictions are memoised by the
//!   128-bit content fingerprint ([`hls_gnn_core::fingerprint`], the same
//!   key the serving cache uses), so design points that clamp to identical
//!   kernels share one model call;
//! * **generation-batched inference** — all not-yet-predicted candidates of
//!   a generation go through
//!   [`hls_gnn_core::runtime::predict_batch_sharded`] in one call, sharding
//!   across `HLSGNN_WORKERS` threads, each predicting its shard one design
//!   per forward, and therefore bit-identical results at any worker count;
//! * **device-constraint annotation** — every evaluated point carries its
//!   [`FpgaDevice::resource_utilization`] ratios and the total capacity
//!   violation used by constrained domination.

use std::collections::{BTreeMap, HashMap};

use hls_gnn_core::dataset::{Dataset, GraphSample};
use hls_gnn_core::fingerprint::{sample_fingerprint, Fingerprint};
use hls_gnn_core::predictor::Predictor;
use hls_gnn_core::runtime::{predict_batch_sharded, ParallelConfig};
use hls_gnn_core::task::TargetMetric;
use hls_gnn_core::Result;
use hls_ir::graph::GraphKind;
use hls_sim::FpgaDevice;

use crate::space::{DesignPoint, DesignSpace};

/// Lowers a seeded uniform sample of `count` distinct design points into a
/// labelled training set — the designs a surrogate-DSE flow would actually
/// synthesise before ranking the rest of the space with the model
/// ("synthesise a few, rank the rest"). Returns the sampled indices
/// (ascending) alongside the dataset so rank-validation can hold them out.
///
/// # Errors
/// Propagates template and flow errors.
pub fn sample_training_set(
    space: &DesignSpace,
    device: &FpgaDevice,
    seed: u64,
    count: usize,
) -> Result<(Vec<usize>, Dataset)> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let count = count.clamp(1, space.len());
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(space.len() as u64));
    let mut chosen = crate::space::distinct_indices(&mut rng, space.len(), count);
    chosen.sort_unstable();
    let mut samples = Vec::with_capacity(count);
    for &index in &chosen {
        let function = space.instantiate(&space.point(index))?;
        samples.push(GraphSample::from_function(&function, GraphKind::Cdfg, device)?);
    }
    Ok((chosen, Dataset::new(samples)))
}

/// One fully evaluated candidate design.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedPoint {
    /// Canonical index of the point in its space.
    pub index: usize,
    /// The knob assignment.
    pub point: DesignPoint,
    /// Name of the lowered kernel (effective knob values).
    pub design: String,
    /// Predicted `[DSP, LUT, FF, CP]` — the four objectives, all minimised.
    pub predicted: [f64; TargetMetric::COUNT],
    /// Ground-truth `[DSP, LUT, FF, CP]` from the `hls_sim` implementation
    /// model. Free here because the labelling flow doubles as the feature
    /// front end; a real deployment would not have it, and no search
    /// strategy reads it — it exists to *validate* predicted rankings
    /// (`dse_sweep`).
    pub ground_truth: [f64; TargetMetric::COUNT],
    /// Predicted fractional `[DSP, LUT, FF]` utilisation of the target
    /// device.
    pub utilization: [f64; 3],
    /// Total predicted capacity overflow: `Σ max(0, utilization − 1)`.
    /// Zero exactly when the design fits.
    pub violation: f64,
    /// True when the predicted usage fits the device.
    pub feasible: bool,
}

impl EvaluatedPoint {
    /// The objective vector constrained domination compares.
    pub fn objectives(&self) -> &[f64] {
        &self.predicted
    }
}

/// Memoising evaluation context shared by all search strategies.
pub struct Evaluator<'a> {
    space: &'a DesignSpace,
    predictor: &'a dyn Predictor,
    device: FpgaDevice,
    parallel: ParallelConfig,
    /// Point index → lowered-but-not-yet-materialised sample. Entries are
    /// created at most once per point (a retry after a failed prediction
    /// batch finds its samples here instead of re-running the flow) and are
    /// consumed on materialisation, so the map is transient — it does not
    /// retain every graph of a large sweep.
    lowered: BTreeMap<usize, GraphSample>,
    /// Point index → evaluated result.
    results: BTreeMap<usize, EvaluatedPoint>,
    /// Content fingerprint → predicted targets (shared across points).
    predictions: HashMap<Fingerprint, [f64; TargetMetric::COUNT]>,
    prediction_reuses: usize,
    /// Static pre-filter memo: effective design name → the fingerprint and
    /// ground-truth targets of the first lowering of that design. The name
    /// is computed from the clamped knob values *before* instantiating, so a
    /// point that collapses onto an already-seen design skips the template,
    /// the front-end lowering and the whole `hls_sim` flow. Everything the
    /// report reads (name, prediction, ground truth) is recovered from the
    /// memo, so the output bytes are identical with or without the skip.
    flow_memo: HashMap<String, (Fingerprint, [f64; TargetMetric::COUNT])>,
    flow_calls: usize,
    flow_reuses: usize,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for `space` over a trained predictor.
    pub fn new(
        space: &'a DesignSpace,
        predictor: &'a dyn Predictor,
        device: FpgaDevice,
        parallel: ParallelConfig,
    ) -> Self {
        Evaluator {
            space,
            predictor,
            device,
            parallel,
            lowered: BTreeMap::new(),
            results: BTreeMap::new(),
            predictions: HashMap::new(),
            prediction_reuses: 0,
            flow_memo: HashMap::new(),
            flow_calls: 0,
            flow_reuses: 0,
        }
    }

    /// The space being explored (decoupled from the `&self` borrow so
    /// strategies can plan candidates while retaining the evaluator).
    pub fn space(&self) -> &'a DesignSpace {
        self.space
    }

    /// Number of distinct design points evaluated so far — the DSE cost
    /// measure search budgets are accounted in.
    pub fn evaluations(&self) -> usize {
        self.results.len()
    }

    /// Number of model predictions actually computed (distinct graphs).
    pub fn predictions_computed(&self) -> usize {
        self.predictions.len()
    }

    /// Number of evaluations served from the fingerprint memo instead of the
    /// model (points that clamped to an already-predicted kernel).
    pub fn prediction_reuses(&self) -> usize {
        self.prediction_reuses
    }

    /// Number of times the template + lowering + `hls_sim` flow actually ran
    /// (once per *distinct effective design*).
    pub fn flow_calls(&self) -> usize {
        self.flow_calls
    }

    /// Number of evaluations whose flow was skipped by the static
    /// pre-filter: the point's effective design name — computed from the
    /// clamped knobs without lowering — matched an already-lowered design.
    pub fn flow_reuses(&self) -> usize {
        self.flow_reuses
    }

    /// True when the design point with this canonical index has already
    /// been evaluated (a re-request costs nothing).
    pub fn is_evaluated(&self, index: usize) -> bool {
        self.results.contains_key(&index)
    }

    /// All evaluated points so far, ascending by canonical index.
    pub fn evaluated(&self) -> Vec<EvaluatedPoint> {
        self.results.values().cloned().collect()
    }

    /// Evaluates a generation of candidates, returning one result per
    /// requested index in request order (duplicates allowed). Already-known
    /// points are served from the memo; the rest are lowered, fingerprinted,
    /// and predicted in a single sharded batch.
    ///
    /// # Errors
    /// Propagates template, flow, device and prediction errors.
    pub fn evaluate(&mut self, indices: &[usize]) -> Result<Vec<EvaluatedPoint>> {
        // Lower the unseen points in ascending index order (deterministic
        // and independent of the strategy's request order). The static
        // pre-filter resolves each point's *effective design name* from the
        // clamped knob values first; a name already in the memo means an
        // identical kernel was lowered before, so the template, the front
        // end and the whole `hls_sim` flow are skipped for this point.
        let mut fresh: Vec<usize> =
            indices.iter().copied().filter(|index| !self.results.contains_key(index)).collect();
        fresh.sort_unstable();
        fresh.dedup();
        let mut designs: BTreeMap<usize, String> = BTreeMap::new();
        for &index in &fresh {
            if let Some(sample) = self.lowered.get(&index) {
                // Lowered on an earlier (failed) attempt — never re-run the
                // flow for a point.
                designs.insert(index, sample.name.clone());
                continue;
            }
            let point = self.space.point(index);
            let design = self.space.effective_design(&point)?;
            if self.flow_memo.contains_key(&design) {
                self.flow_reuses += 1;
                hls_gnn_obs::global().counter("hlsgnn_dse_flow_skips_total", &[]).inc();
            } else {
                let function = self.space.instantiate(&point)?;
                let sample = GraphSample::from_function(&function, GraphKind::Cdfg, &self.device)?;
                let fingerprint = sample_fingerprint(&sample);
                self.flow_memo.insert(design.clone(), (fingerprint, sample.targets));
                self.flow_calls += 1;
                hls_gnn_obs::global().counter("hlsgnn_dse_flow_runs_total", &[]).inc();
                self.lowered.insert(index, sample);
            }
            designs.insert(index, design);
        }
        for (&index, design) in &designs {
            // Retained samples from a failed attempt may predate the memo.
            if let Some(sample) = self.lowered.get(&index) {
                let fingerprint = sample_fingerprint(sample);
                self.flow_memo.entry(design.clone()).or_insert((fingerprint, sample.targets));
            }
        }

        // Predict every not-yet-seen fingerprint in one sharded batch. The
        // per-index fingerprints come from the design memo, so clamped
        // duplicates share one hash and one model call exactly as before.
        let mut batch: Vec<GraphSample> = Vec::new();
        let mut batch_fingerprints: Vec<Fingerprint> = Vec::new();
        let mut fresh_fingerprints: Vec<Fingerprint> = Vec::with_capacity(fresh.len());
        for &index in &fresh {
            let fingerprint = self.flow_memo[&designs[&index]].0;
            fresh_fingerprints.push(fingerprint);
            if self.predictions.contains_key(&fingerprint)
                || batch_fingerprints.contains(&fingerprint)
            {
                self.prediction_reuses += 1;
                hls_gnn_obs::global().counter("hlsgnn_dse_prediction_memo_hits_total", &[]).inc();
            } else {
                // The first occurrence of a design always retains its sample
                // in `lowered` (under this or an earlier failed generation's
                // index), so an unpredicted fingerprint has a graph to batch.
                let design = &designs[&index];
                let sample = self
                    .lowered
                    .get(&index)
                    .or_else(|| self.lowered.values().find(|sample| sample.name == *design))
                    .expect("a design's sample is retained until its prediction lands");
                batch.push(sample.clone());
                batch_fingerprints.push(fingerprint);
            }
        }
        if !batch.is_empty() {
            let predicted = predict_batch_sharded(self.predictor, &batch, &self.parallel);
            for (fingerprint, result) in batch_fingerprints.into_iter().zip(predicted) {
                self.predictions.insert(fingerprint, result?);
            }
        }

        // Materialise the evaluated points from the memo, dropping any
        // retained samples — everything downstream reads lives in the
        // EvaluatedPoint.
        for (&index, fingerprint) in fresh.iter().zip(&fresh_fingerprints) {
            let design = designs.remove(&index).expect("every fresh point resolved a design");
            let targets = self.flow_memo[&design].1;
            self.lowered.remove(&index);
            let predicted = self.predictions[fingerprint];
            let utilization =
                self.device.resource_utilization(predicted[0], predicted[1], predicted[2])?;
            let violation: f64 = utilization.iter().map(|u| (u - 1.0).max(0.0)).sum();
            self.results.insert(
                index,
                EvaluatedPoint {
                    index,
                    point: self.space.point(index),
                    design,
                    predicted,
                    ground_truth: targets,
                    utilization,
                    violation,
                    feasible: violation == 0.0,
                },
            );
        }

        Ok(indices.iter().map(|index| self.results[index].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::StubPredictor;

    #[test]
    fn points_are_lowered_once_and_identical_kernels_share_predictions() {
        let space = DesignSpace::dot_tiny();
        let stub = StubPredictor;
        let mut evaluator =
            Evaluator::new(&space, &stub, FpgaDevice::default(), ParallelConfig::serial());

        // dot-tiny with unroll=1 collapses (partition, accumulators) — the
        // u=1 half of the space shares kernels across the accumulator knob.
        let all: Vec<usize> = (0..space.len()).collect();
        let first = evaluator.evaluate(&all).expect("evaluation succeeds");
        assert_eq!(first.len(), space.len());
        assert_eq!(evaluator.evaluations(), space.len());
        assert!(
            evaluator.predictions_computed() < space.len(),
            "clamped duplicates must share predictions ({} of {})",
            evaluator.predictions_computed(),
            space.len()
        );
        assert_eq!(evaluator.predictions_computed() + evaluator.prediction_reuses(), space.len());

        // The static pre-filter ran the flow once per distinct effective
        // design and skipped it for every clamped duplicate.
        assert_eq!(evaluator.flow_calls() + evaluator.flow_reuses(), space.len());
        assert_eq!(evaluator.flow_calls(), evaluator.predictions_computed());
        assert!(evaluator.flow_reuses() > 0, "dot-tiny's u=1 half collapses");

        // Re-requesting is free: nothing new is lowered or predicted.
        let again = evaluator.evaluate(&[0, 0, 3]).expect("memoised evaluation succeeds");
        assert_eq!(again.len(), 3);
        assert_eq!(again[0], again[1]);
        assert_eq!(evaluator.evaluations(), space.len());
        assert_eq!(first[3], again[2]);
        assert_eq!(evaluator.flow_calls() + evaluator.flow_reuses(), space.len());
    }

    #[test]
    fn pre_filtered_results_match_an_unfiltered_flow_exactly() {
        // The pre-filter must be invisible downstream: every evaluated point
        // carries exactly the design name and ground truth a from-scratch
        // lowering of its own point would produce, even when its flow was
        // skipped via the effective-design memo.
        let space = DesignSpace::dot_tiny();
        let stub = StubPredictor;
        let device = FpgaDevice::default();
        let mut evaluator = Evaluator::new(&space, &stub, device.clone(), ParallelConfig::serial());
        let all: Vec<usize> = (0..space.len()).collect();
        let evaluated = evaluator.evaluate(&all).unwrap();
        assert!(evaluator.flow_reuses() > 0, "the memo must actually skip some flows");
        for point in &evaluated {
            let function = space.instantiate(&space.point(point.index)).unwrap();
            let sample = GraphSample::from_function(&function, GraphKind::Cdfg, &device).unwrap();
            assert_eq!(point.design, sample.name);
            assert_eq!(point.ground_truth, sample.targets);
        }
    }

    #[test]
    fn utilization_and_feasibility_follow_the_device_caps() {
        let space = DesignSpace::dot_tiny();
        let stub = StubPredictor;
        // A device so small every design overflows it.
        let cramped = FpgaDevice {
            lut_capacity: 1,
            ff_capacity: 1,
            dsp_capacity: 1,
            ..FpgaDevice::default()
        };
        let mut evaluator = Evaluator::new(&space, &stub, cramped, ParallelConfig::serial());
        let evaluated = evaluator.evaluate(&[0]).unwrap();
        assert!(!evaluated[0].feasible);
        assert!(evaluated[0].violation > 0.0);

        let roomy = FpgaDevice::default();
        let mut evaluator = Evaluator::new(&space, &stub, roomy, ParallelConfig::serial());
        let evaluated = evaluator.evaluate(&[0]).unwrap();
        assert!(evaluated[0].feasible, "tiny kernels fit the default part");
        assert_eq!(evaluated[0].violation, 0.0);
    }
}
