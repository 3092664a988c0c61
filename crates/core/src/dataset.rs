//! Benchmark construction: programs → IR graphs → ground-truth labels.
//!
//! Mirrors §3 of the paper. Each sample couples
//!
//! * an IR graph (DFG or CDFG) with its Table-1 node/edge features,
//! * per-node auxiliary resource estimates from the HLS intermediate results
//!   (the knowledge-rich inputs),
//! * per-node resource-type labels from the implementation (the
//!   knowledge-infused classification targets), and
//! * graph-level ground truth (`DSP`, `LUT`, `FF`, `CP`) plus the HLS report
//!   used as the baseline estimator.

use std::borrow::Cow;

use gnn::GraphData;
use hls_gnn_analyze::bounds::analyze_bounds;
use hls_ir::ast::Function;
use hls_ir::features::{edge_features, node_features, EdgeFeatures, NodeFeatures};
use hls_ir::graph::{extract_from_ir, GraphKind};
use hls_progen::kernels::all_kernels;
use hls_progen::synthetic::{ProgramFamily, ProgramGenerator, SyntheticConfig};
use hls_sim::{run_flow, FpgaDevice};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{Error, Result};

/// One benchmark program with everything the three approaches need.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSample {
    /// Program name.
    pub name: String,
    /// DFG or CDFG.
    pub kind: GraphKind,
    /// Graph connectivity (with mirrored edges; relation ids encode edge type,
    /// back-edge flag and direction).
    pub structure: GraphData,
    /// Table-1 node features, one entry per node.
    pub node_features: Vec<NodeFeatures>,
    /// Per-node `[DSP, LUT, FF]` estimates from the HLS intermediate results
    /// (all zeros for block nodes) — the knowledge-rich auxiliary input.
    pub node_aux_resources: Vec<[f32; 3]>,
    /// Per-node ground-truth resource-type labels `[DSP, LUT, FF]` (0/1) — the
    /// knowledge-infused classification target.
    pub node_resource_types: Vec<[f32; 3]>,
    /// Per-node analytic-bound features `[chain depth, on-recurrence,
    /// port pressure]` from the static analyser (all zeros for block nodes
    /// and for samples rebuilt from the release format, which does not carry
    /// them — they are recomputable from the program). Appended to the model
    /// input only by the analytic-feature ablation
    /// ([`crate::experiments::run_analytic_ablation`]).
    pub node_analytic: Vec<[f32; 3]>,
    /// Graph-level ground truth `[DSP, LUT, FF, CP]` after implementation.
    pub targets: [f64; 4],
    /// The HLS report's own estimate of the same four metrics (the baseline).
    pub hls_estimate: [f64; 4],
}

impl GraphSample {
    /// Number of edge relations used by the graph encoding: edge type ×
    /// back-edge flag × direction (original / mirrored).
    pub const NUM_RELATIONS: usize = EdgeFeatures::RELATION_VOCAB * 2;

    /// Builds a sample by extracting the requested graph kind and running the
    /// full HLS + implementation flow for labels.
    ///
    /// # Errors
    /// Propagates front-end and flow errors.
    pub fn from_function(func: &Function, kind: GraphKind, device: &FpgaDevice) -> Result<Self> {
        let flow = run_flow(func, device)?;
        let graph = extract_from_ir(&flow.ir, kind)?;
        let features = node_features(&graph);
        let edges = edge_features(&graph);

        // Connectivity with relations; mirror edges so information can also
        // flow against the data-dependence direction.
        let edge_src: Vec<usize> = graph.edges().iter().map(|e| e.src.index()).collect();
        let edge_dst: Vec<usize> = graph.edges().iter().map(|e| e.dst.index()).collect();
        let edge_relation: Vec<usize> = edges.iter().map(EdgeFeatures::relation).collect();
        let structure = GraphData::new(
            graph.node_count(),
            edge_src,
            edge_dst,
            edge_relation,
            EdgeFeatures::RELATION_VOCAB,
        )
        .with_reverse_edges();

        // Analytic lower bounds over the same IR, mapped onto graph nodes by
        // originating operation below.
        let decls: Vec<_> = func.vars().map(|(id, decl)| (id, decl.ty)).collect();
        let bounds = analyze_bounds(&flow.ir, &decls, device);

        // Per-node annotations, mapped from the originating IR operation.
        let annotations = flow.annotations_by_op();
        let mut node_aux_resources = Vec::with_capacity(graph.node_count());
        let mut node_resource_types = Vec::with_capacity(graph.node_count());
        let mut node_analytic = Vec::with_capacity(graph.node_count());
        for node in graph.nodes() {
            node_analytic.push(node.op.map_or([0.0; 3], |op| bounds.node_features(op)));
            match node.op.and_then(|op| annotations.get(&op)) {
                Some(annotation) => {
                    node_aux_resources.push([
                        annotation.hls.dsp as f32,
                        annotation.hls.lut as f32,
                        annotation.hls.ff as f32,
                    ]);
                    node_resource_types.push(annotation.types.as_labels());
                }
                None => {
                    node_aux_resources.push([0.0; 3]);
                    node_resource_types.push([0.0; 3]);
                }
            }
        }

        Ok(GraphSample {
            name: func.name.clone(),
            kind,
            structure,
            node_features: features,
            node_aux_resources,
            node_resource_types,
            node_analytic,
            targets: flow.implementation.as_targets(),
            hls_estimate: flow.hls_report.as_targets(),
        })
    }

    /// Number of nodes in the graph.
    pub fn num_nodes(&self) -> usize {
        self.structure.num_nodes
    }
}

/// Random access to training samples, whether they live in RAM or on disk.
///
/// This is the seam between the training loops and the storage layer: an
/// in-memory [`Dataset`] hands out borrowed samples at zero cost, while a
/// sharded on-disk store (`hls_gnn_store::ShardedDataset`) decodes shards on
/// demand and hands out owned copies, keeping peak memory bounded by its
/// cache budget instead of the corpus size.
///
/// Contract: `fetch(i)` for a fixed `i` always yields the same sample, and
/// the training loops promise to request whole mini-batches in their shuffled
/// order — so a streamed source produces *bit-identical* results to
/// materialising it into a [`Dataset`] first (the loops share one code path;
/// see [`crate::train::train_regressor_source_with`]).
///
/// `Sync` is required so the seed-averaged evaluation protocol can share one
/// source across its worker threads.
pub trait SampleSource: Sync {
    /// Number of samples addressable through [`SampleSource::fetch`].
    fn len(&self) -> usize;

    /// True when the source holds no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns sample `index` — borrowed when the source is in memory, owned
    /// when it had to be decoded from storage.
    ///
    /// # Errors
    /// Returns [`Error::Parse`] (or an I/O-flavoured variant) when a stored
    /// sample cannot be read back; panics on an out-of-range index, which is
    /// a caller bug just like slice indexing.
    fn fetch(&self, index: usize) -> Result<Cow<'_, GraphSample>>;
}

impl SampleSource for Dataset {
    fn len(&self) -> usize {
        self.samples.len()
    }

    fn fetch(&self, index: usize) -> Result<Cow<'_, GraphSample>> {
        Ok(Cow::Borrowed(&self.samples[index]))
    }
}

/// A collection of [`GraphSample`]s.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<GraphSample>,
}

/// Train / validation / test split of a [`Dataset`].
#[derive(Debug, Clone)]
pub struct Split {
    /// Training samples (80% in the paper).
    pub train: Dataset,
    /// Validation samples (10%).
    pub validation: Dataset,
    /// Test samples (10%).
    pub test: Dataset,
}

impl Dataset {
    /// Creates a dataset from samples.
    pub fn new(samples: Vec<GraphSample>) -> Self {
        Dataset { samples }
    }

    /// Materialises any [`SampleSource`] into an in-memory dataset. This is
    /// the fallback for predictors without a native streaming path — it
    /// trades the source's memory bound for the simplicity of one `Vec`.
    ///
    /// # Errors
    /// Propagates the first fetch failure.
    pub fn from_source(source: &(impl SampleSource + ?Sized)) -> Result<Dataset> {
        let mut samples = Vec::with_capacity(source.len());
        for index in 0..source.len() {
            samples.push(source.fetch(index)?.into_owned());
        }
        Ok(Dataset::new(samples))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total number of nodes across all samples (the node-level dataset size).
    pub fn total_nodes(&self) -> usize {
        self.samples.iter().map(GraphSample::num_nodes).sum()
    }

    /// Randomly splits the dataset into train/validation/test parts with the
    /// given fractions (the remainder goes to test), shuffling with `seed`.
    ///
    /// Train and validation counts are rounded to the nearest sample, but the
    /// rounding remainder is redistributed: if the implied test fraction is
    /// nonzero, the test set receives at least one sample whenever that does
    /// not require emptying the training set (independent rounding used to be
    /// able to consume all samples — e.g. 5 samples at 0.7/0.2 rounded to
    /// 4 + 1, silently leaving an empty test set for downstream metrics to
    /// "ace"). The donated sample comes from the larger of train/validation,
    /// preferring validation on a tie and never taking the last training
    /// sample — a split that cannot train is worse than a missing test
    /// sample.
    ///
    /// # Panics
    /// Panics when either fraction is outside `[0, 1]`, not finite, or the
    /// two sum past 1 — such a split is a configuration bug, not a dataset
    /// property.
    pub fn split(&self, train_fraction: f64, validation_fraction: f64, seed: u64) -> Split {
        assert!(
            (0.0..=1.0).contains(&train_fraction) && (0.0..=1.0).contains(&validation_fraction),
            "split fractions must be within [0, 1], got train = {train_fraction}, \
             validation = {validation_fraction}"
        );
        assert!(
            train_fraction + validation_fraction <= 1.0 + 1e-9,
            "split fractions must sum to at most 1, got train = {train_fraction}, \
             validation = {validation_fraction}"
        );
        let count = self.samples.len();
        let mut indices: Vec<usize> = (0..count).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let test_fraction = (1.0 - train_fraction - validation_fraction).max(0.0);
        let mut train_count = ((count as f64 * train_fraction).round() as usize).min(count);
        let mut validation_count =
            ((count as f64 * validation_fraction).round() as usize).min(count - train_count);
        if test_fraction > 1e-9 && train_count + validation_count == count && count > 0 {
            // Redistribute the rounding remainder into the test set without
            // ever emptying the training set.
            if validation_count > 0 && (validation_count >= train_count || train_count <= 1) {
                validation_count -= 1;
            } else if train_count > 1 {
                train_count -= 1;
            }
        }
        let take = |slice: &[usize]| {
            Dataset::new(slice.iter().map(|&index| self.samples[index].clone()).collect())
        };
        let validation_end = train_count + validation_count;
        Split {
            train: take(&indices[..train_count]),
            validation: take(&indices[train_count..validation_end]),
            test: take(&indices[validation_end..]),
        }
    }

    /// Builds the real-world generalisation set (MachSuite / CHStone /
    /// PolyBench analogues), used only for evaluation in the paper.
    ///
    /// # Errors
    /// Propagates flow errors.
    pub fn real_world(device: &FpgaDevice) -> Result<Dataset> {
        let mut samples = Vec::new();
        for kernel in all_kernels() {
            let sample = GraphSample::from_function(&kernel.function, GraphKind::Cdfg, device)?;
            samples.push(sample);
        }
        Ok(Dataset::new(samples))
    }
}

/// Builder for synthetic DFG/CDFG corpora (the `ldrgen`-generated part of the
/// benchmark).
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    family: ProgramFamily,
    count: usize,
    seed: u64,
    device: FpgaDevice,
    config: Option<SyntheticConfig>,
}

impl DatasetBuilder {
    /// Starts a builder for the given program family.
    pub fn new(family: ProgramFamily) -> Self {
        DatasetBuilder { family, count: 100, seed: 0, device: FpgaDevice::default(), config: None }
    }

    /// Number of programs to generate (default 100).
    pub fn count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Generation seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Target device (default: the 100 MHz medium part).
    pub fn device(mut self, device: FpgaDevice) -> Self {
        self.device = device;
        self
    }

    /// Overrides the synthetic-generator configuration.
    pub fn generator_config(mut self, config: SyntheticConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Generates the programs and runs the flow on each of them.
    ///
    /// # Errors
    /// Returns an error if the corpus would be empty or if any program fails
    /// the flow (generated programs are valid by construction, so a failure
    /// indicates a bug in the substrates).
    pub fn build(self) -> Result<Dataset> {
        if self.count == 0 {
            return Err(Error::DatasetTooSmall("requested a dataset of zero programs".to_owned()));
        }
        let config = self.config.unwrap_or_else(|| match self.family {
            ProgramFamily::StraightLine => SyntheticConfig::straight_line(),
            ProgramFamily::Control => SyntheticConfig::control(),
        });
        let kind = self.family.graph_kind();
        let mut generator = ProgramGenerator::new(config, self.seed);
        let mut samples = Vec::with_capacity(self.count);
        for func in generator.generate_many(self.count) {
            samples.push(GraphSample::from_function(&func, kind, &self.device)?);
        }
        Ok(Dataset::new(samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset(family: ProgramFamily, count: usize) -> Dataset {
        DatasetBuilder::new(family)
            .count(count)
            .seed(11)
            .generator_config(SyntheticConfig::tiny(family))
            .build()
            .expect("dataset builds")
    }

    #[test]
    fn dfg_dataset_has_consistent_per_sample_shapes() {
        let dataset = tiny_dataset(ProgramFamily::StraightLine, 6);
        assert_eq!(dataset.len(), 6);
        for sample in &dataset.samples {
            assert_eq!(sample.kind, GraphKind::Dfg);
            assert_eq!(sample.node_features.len(), sample.num_nodes());
            assert_eq!(sample.node_aux_resources.len(), sample.num_nodes());
            assert_eq!(sample.node_resource_types.len(), sample.num_nodes());
            assert!(sample.targets.iter().all(|t| t.is_finite() && *t >= 0.0));
            assert!(sample.hls_estimate[1] > 0.0, "HLS always reports some LUTs");
            // Mirrored edges double the edge count.
            assert_eq!(sample.structure.edge_count() % 2, 0);
        }
        assert!(dataset.total_nodes() > dataset.len());
    }

    #[test]
    fn cdfg_dataset_uses_control_relations() {
        let dataset = tiny_dataset(ProgramFamily::Control, 6);
        assert!(dataset.samples.iter().any(|sample| sample
            .structure
            .edge_relation
            .iter()
            .any(|&r| r >= 2)));
        assert_eq!(dataset.samples[0].structure.num_relations, GraphSample::NUM_RELATIONS);
    }

    #[test]
    fn node_labels_are_binary_and_sometimes_positive() {
        let dataset = tiny_dataset(ProgramFamily::Control, 4);
        let mut lut_positives = 0usize;
        for sample in &dataset.samples {
            for labels in &sample.node_resource_types {
                assert!(labels.iter().all(|&l| l == 0.0 || l == 1.0));
                lut_positives += usize::from(labels[1] > 0.5);
            }
        }
        assert!(lut_positives > 0, "some nodes must use LUTs");
    }

    #[test]
    fn split_fractions_are_respected() {
        let dataset = tiny_dataset(ProgramFamily::StraightLine, 10);
        let split = dataset.split(0.8, 0.1, 3);
        assert_eq!(split.train.len(), 8);
        assert_eq!(split.validation.len(), 1);
        assert_eq!(split.test.len(), 1);
        // Splitting with the same seed is deterministic.
        let again = dataset.split(0.8, 0.1, 3);
        assert_eq!(
            split.train.samples.iter().map(|s| s.name.clone()).collect::<Vec<_>>(),
            again.train.samples.iter().map(|s| s.name.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn split_remainder_is_redistributed_into_a_nonzero_test_fraction() {
        // 5 samples at 0.7/0.2: independent rounding gives 4 + 1 = 5, which
        // used to leave the 0.1 test fraction with zero samples.
        let dataset = tiny_dataset(ProgramFamily::StraightLine, 5);
        let split = dataset.split(0.7, 0.2, 3);
        assert_eq!(split.train.len() + split.validation.len() + split.test.len(), 5);
        assert!(!split.test.is_empty(), "a nonzero test fraction must yield a nonzero test set");
        // A genuinely zero test fraction still yields an empty test set.
        let no_test = dataset.split(0.8, 0.2, 3);
        assert_eq!(no_test.test.len(), 0);
        assert_eq!(no_test.train.len() + no_test.validation.len(), 5);
    }

    #[test]
    fn split_redistribution_never_empties_the_train_set() {
        // 2 samples at 0.4/0.4 round to 1 + 1; the test sample must come out
        // of validation, not train (an untrainable split is worse than a
        // missing test sample).
        let pair = tiny_dataset(ProgramFamily::StraightLine, 2);
        let split = pair.split(0.4, 0.4, 7);
        assert_eq!(split.train.len(), 1);
        assert_eq!(split.validation.len(), 0);
        assert_eq!(split.test.len(), 1);
        // A single sample stays in train even for a nonzero test fraction —
        // the guarantee yields rather than producing an untrainable split.
        let single = tiny_dataset(ProgramFamily::StraightLine, 1);
        let split = single.split(0.7, 0.2, 7);
        assert_eq!(split.train.len(), 1);
        assert_eq!(split.test.len(), 0);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn split_rejects_out_of_range_fractions() {
        tiny_dataset(ProgramFamily::StraightLine, 4).split(1.2, 0.1, 0);
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn split_rejects_fractions_summing_past_one() {
        tiny_dataset(ProgramFamily::StraightLine, 4).split(0.8, 0.5, 0);
    }

    #[test]
    fn zero_count_is_rejected() {
        let result = DatasetBuilder::new(ProgramFamily::StraightLine).count(0).build();
        assert!(matches!(result, Err(Error::DatasetTooSmall(_))));
    }

    #[test]
    fn real_world_set_covers_all_three_suites() {
        let dataset = Dataset::real_world(&FpgaDevice::default()).expect("kernels run the flow");
        assert!(dataset.len() >= 40, "expected the full kernel suite, got {}", dataset.len());
        assert!(dataset.samples.iter().all(|s| s.kind == GraphKind::Cdfg));
        assert!(dataset.samples.iter().any(|s| s.name.starts_with("ms_")));
        assert!(dataset.samples.iter().any(|s| s.name.starts_with("ch_")));
        assert!(dataset.samples.iter().any(|s| s.name.starts_with("pb_")));
    }
}
