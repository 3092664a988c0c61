//! Feature encoding: Table-1 categorical features → learned embeddings, plus
//! the approach-specific auxiliary channels.
//!
//! * [`FeatureMode::Base`] — only the seven off-the-shelf features.
//! * [`FeatureMode::ResourceValues`] — adds the per-node DSP/LUT/FF estimates
//!   from the HLS intermediate results (knowledge-rich approach).
//! * [`FeatureMode::ResourceTypes`] — adds three binary resource-type flags,
//!   taken from the ground truth during training and from the node-level
//!   classifier during inference (knowledge-infused approach).

use gnn_tensor::{Embedding, Matrix, Var};
use hls_ir::features::NodeFeatures;
use rand::rngs::StdRng;

use crate::dataset::GraphSample;

/// Which auxiliary information is appended to the base features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FeatureMode {
    /// Off-the-shelf approach: Table-1 features only.
    #[default]
    Base,
    /// Knowledge-rich approach: per-node HLS resource values.
    ResourceValues,
    /// Knowledge-infused approach: per-node resource-type flags.
    ResourceTypes,
}

impl FeatureMode {
    /// Number of auxiliary feature columns this mode appends.
    pub fn aux_width(self) -> usize {
        match self {
            FeatureMode::Base => 0,
            FeatureMode::ResourceValues | FeatureMode::ResourceTypes => 3,
        }
    }

    /// Short name used in reports (`""`, `"-R"`, `"-I"`), matching the paper's
    /// table notation.
    pub fn suffix(self) -> &'static str {
        match self {
            FeatureMode::Base => "",
            FeatureMode::ResourceValues => "-R",
            FeatureMode::ResourceTypes => "-I",
        }
    }
}

/// Learned encoder from [`NodeFeatures`] (plus auxiliary channels) to the GNN
/// input matrix.
#[derive(Debug)]
pub struct FeatureEncoder {
    mode: FeatureMode,
    node_type: Embedding,
    bitwidth: Embedding,
    category: Embedding,
    opcode: Embedding,
    embed_dim: usize,
    analytic: bool,
}

/// Number of plain numeric base features (is-start-of-path, normalised cluster
/// group).
const NUMERIC_BASE_FEATURES: usize = 2;

/// A `total_nodes × 3` auxiliary-feature matrix with one row per node of the
/// chunk, in sample order then node order.
fn node_rows(
    samples: &[&GraphSample],
    total_nodes: usize,
    row_of: impl Fn(&GraphSample, usize) -> [f32; 3],
) -> Matrix {
    let mut matrix = Matrix::zeros(total_nodes, 3);
    let mut row = 0;
    for sample in samples {
        for node in 0..sample.num_nodes() {
            for (col, value) in row_of(sample, node).into_iter().enumerate() {
                matrix.set(row, col, value);
            }
            row += 1;
        }
    }
    matrix
}

impl FeatureEncoder {
    /// Creates an encoder whose categorical embeddings all have `embed_dim`
    /// columns, encoding the base features (plus the mode's auxiliary
    /// channels) only.
    pub fn new(mode: FeatureMode, embed_dim: usize, rng: &mut StdRng) -> Self {
        FeatureEncoder {
            mode,
            node_type: Embedding::new(NodeFeatures::NODE_TYPE_VOCAB, embed_dim, rng),
            bitwidth: Embedding::new(NodeFeatures::BITWIDTH_BUCKETS, embed_dim, rng),
            category: Embedding::new(NodeFeatures::OPCODE_CATEGORY_VOCAB, embed_dim, rng),
            opcode: Embedding::new(NodeFeatures::OPCODE_VOCAB, embed_dim, rng),
            embed_dim,
            analytic: false,
        }
    }

    /// The feature mode of this encoder.
    pub fn mode(&self) -> FeatureMode {
        self.mode
    }

    /// Appends (or drops) the three static-analysis bound columns
    /// (`[chain depth, on-recurrence, port pressure]`). Only the analytic
    /// ablation turns them on; a snapshot does not record them, so a model
    /// built with them cannot be reloaded. Must be applied before the
    /// downstream GNN stack is sized off [`Self::output_dim`].
    pub fn with_analytic(mut self, enabled: bool) -> Self {
        self.analytic = enabled;
        self
    }

    /// Width of the encoded node-feature matrix.
    pub fn output_dim(&self) -> usize {
        4 * self.embed_dim
            + NUMERIC_BASE_FEATURES
            + self.mode.aux_width()
            + 3 * usize::from(self.analytic)
    }

    /// Log-compresses one analytic feature triple: depth and pressure are
    /// unbounded counts, the recurrence flag passes through.
    fn analytic_columns(values: &[f32; 3]) -> [f32; 3] {
        [(values[0].max(0.0) + 1.0).ln(), values[1], (values[2].max(0.0) + 1.0).ln()]
    }

    /// Encodes a chunk of samples into one feature matrix covering every
    /// node of every sample, rows in sample order then node order — exactly
    /// the node order of [`gnn::GraphBatch::fuse`] over the same samples. A
    /// single sample is a chunk of one. Each embedding table is consulted
    /// once for the whole chunk, and a sample's rows do not depend on the
    /// other samples in the chunk.
    ///
    /// For [`FeatureMode::ResourceTypes`], `type_override` replaces the
    /// ground-truth flags (used at inference time with the classifier's
    /// self-inferred types); it must carry one `[f32; 3]` entry per node of
    /// the chunk, in the same row order.
    ///
    /// # Panics
    /// Panics if `samples` is empty, if `type_override` has the wrong length,
    /// or if a sample's per-node lists do not cover its nodes.
    pub fn encode_batch(
        &self,
        samples: &[&GraphSample],
        type_override: Option<&[[f32; 3]]>,
    ) -> Var {
        assert!(!samples.is_empty(), "cannot encode an empty batch");
        let assemble = gnn_tensor::profile::phase_timer(gnn_tensor::profile::Phase::Assemble);
        let total_nodes: usize = samples.iter().map(|s| s.num_nodes()).sum();
        if let Some(flags) = type_override {
            assert_eq!(flags.len(), total_nodes, "type override must cover every node");
        }
        let mut node_type_ids = Vec::with_capacity(total_nodes);
        let mut bitwidth_ids = Vec::with_capacity(total_nodes);
        let mut category_ids = Vec::with_capacity(total_nodes);
        let mut opcode_ids = Vec::with_capacity(total_nodes);
        let mut numeric = Matrix::zeros(total_nodes, NUMERIC_BASE_FEATURES);
        let mut row = 0;
        for sample in samples {
            // Index by node position (not by iterating the feature list) so a
            // sample with missing per-node entries panics instead of silently
            // shifting every following sample's rows.
            for node in 0..sample.num_nodes() {
                let feature = &sample.node_features[node];
                node_type_ids.push(feature.node_type);
                bitwidth_ids.push(feature.bitwidth_bucket());
                category_ids.push(feature.opcode_category);
                opcode_ids.push(feature.opcode);
                numeric.set(row, 0, f32::from(feature.is_start_of_path));
                numeric.set(row, 1, (feature.cluster_group as f32 / 32.0).clamp(-1.0, 8.0));
                row += 1;
            }
        }
        drop(assemble);

        let mut parts = vec![
            self.node_type.forward(&node_type_ids),
            self.bitwidth.forward(&bitwidth_ids),
            self.category.forward(&category_ids),
            self.opcode.forward(&opcode_ids),
            Var::new(numeric),
        ];

        match (self.mode, type_override) {
            (FeatureMode::Base, _) => {}
            (FeatureMode::ResourceValues, _) => {
                parts.push(Var::new(node_rows(samples, total_nodes, |sample, node| {
                    sample.node_aux_resources[node].map(|value| (value.max(0.0) + 1.0).ln())
                })));
            }
            (FeatureMode::ResourceTypes, Some(flags)) => {
                parts.push(Var::new(Matrix::from_fn(total_nodes, 3, |row, col| flags[row][col])));
            }
            (FeatureMode::ResourceTypes, None) => {
                for sample in samples {
                    assert_eq!(
                        sample.node_resource_types.len(),
                        sample.num_nodes(),
                        "resource-type flags must cover every node"
                    );
                }
                parts.push(Var::new(node_rows(samples, total_nodes, |sample, node| {
                    sample.node_resource_types[node]
                })));
            }
        }

        if self.analytic {
            parts.push(Var::new(node_rows(samples, total_nodes, |sample, node| {
                Self::analytic_columns(&sample.node_analytic[node])
            })));
        }

        Var::concat_cols(&parts)
    }

    /// Trainable parameters (the four embedding tables).
    pub fn parameters(&self) -> Vec<Var> {
        let mut params = self.node_type.parameters();
        params.extend(self.bitwidth.parameters());
        params.extend(self.category.parameters());
        params.extend(self.opcode.parameters());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};
    use rand::SeedableRng;

    fn sample() -> GraphSample {
        DatasetBuilder::new(ProgramFamily::Control)
            .count(1)
            .seed(5)
            .generator_config(SyntheticConfig::tiny(ProgramFamily::Control))
            .build()
            .unwrap()
            .samples
            .remove(0)
    }

    #[test]
    fn output_width_tracks_mode() {
        let mut rng = StdRng::seed_from_u64(0);
        let base = FeatureEncoder::new(FeatureMode::Base, 4, &mut rng);
        let rich = FeatureEncoder::new(FeatureMode::ResourceValues, 4, &mut rng);
        let infused = FeatureEncoder::new(FeatureMode::ResourceTypes, 4, &mut rng);
        assert_eq!(base.output_dim(), 18);
        assert_eq!(rich.output_dim(), 21);
        assert_eq!(infused.output_dim(), 21);
        assert_eq!(base.mode(), FeatureMode::Base);
    }

    #[test]
    fn encoded_matrix_matches_graph_and_width() {
        let sample = sample();
        let mut rng = StdRng::seed_from_u64(1);
        for mode in [FeatureMode::Base, FeatureMode::ResourceValues, FeatureMode::ResourceTypes] {
            let encoder = FeatureEncoder::new(mode, 5, &mut rng);
            let encoded = encoder.encode_batch(&[&sample], None);
            assert_eq!(encoded.shape(), (sample.num_nodes(), encoder.output_dim()));
            assert!(!encoded.value().has_non_finite());
        }
    }

    #[test]
    fn type_override_changes_the_encoding() {
        let sample = sample();
        let mut rng = StdRng::seed_from_u64(2);
        let encoder = FeatureEncoder::new(FeatureMode::ResourceTypes, 4, &mut rng);
        let ground_truth = encoder.encode_batch(&[&sample], None).value();
        let flipped: Vec<[f32; 3]> = sample
            .node_resource_types
            .iter()
            .map(|labels| [1.0 - labels[0], 1.0 - labels[1], 1.0 - labels[2]])
            .collect();
        let overridden = encoder.encode_batch(&[&sample], Some(&flipped)).value();
        assert_ne!(ground_truth, overridden);
    }

    #[test]
    fn embeddings_receive_gradients() {
        let sample = sample();
        let mut rng = StdRng::seed_from_u64(3);
        let encoder = FeatureEncoder::new(FeatureMode::Base, 4, &mut rng);
        encoder.encode_batch(&[&sample], None).sum().backward();
        assert_eq!(encoder.parameters().len(), 4);
        assert!(encoder.parameters().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn analytic_columns_extend_the_width_and_change_the_encoding() {
        let sample = sample();
        let mut rng = StdRng::seed_from_u64(4);
        let plain = FeatureEncoder::new(FeatureMode::Base, 4, &mut rng).with_analytic(false);
        let mut rng = StdRng::seed_from_u64(4);
        let analytic = FeatureEncoder::new(FeatureMode::Base, 4, &mut rng).with_analytic(true);
        assert_eq!(analytic.output_dim(), plain.output_dim() + 3);
        let encoded = analytic.encode_batch(&[&sample], None);
        assert_eq!(encoded.shape(), (sample.num_nodes(), analytic.output_dim()));
        assert!(!encoded.value().has_non_finite());
        // The tiny control program has a loop, so some operation carries a
        // nonzero analytic feature — the new columns are not dead weight.
        assert!(sample.node_analytic.iter().any(|f| f.iter().any(|&v| v > 0.0)));
        // The shared embedding prefix is unchanged: the analytic columns are
        // purely appended.
        let base = plain.encode_batch(&[&sample], None).value();
        let extended = encoded.value();
        for row in 0..sample.num_nodes() {
            for col in 0..plain.output_dim() {
                assert_eq!(base.get(row, col), extended.get(row, col));
            }
        }
    }

    #[test]
    fn analytic_batch_rows_match_per_sample_encoding() {
        let dataset = DatasetBuilder::new(ProgramFamily::Control)
            .count(3)
            .seed(9)
            .generator_config(SyntheticConfig::tiny(ProgramFamily::Control))
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let encoder = FeatureEncoder::new(FeatureMode::Base, 4, &mut rng).with_analytic(true);
        let samples: Vec<&GraphSample> = dataset.samples.iter().collect();
        let fused = encoder.encode_batch(&samples, None).value();
        let mut row = 0;
        for sample in &samples {
            let single = encoder.encode_batch(std::slice::from_ref(sample), None).value();
            for node in 0..sample.num_nodes() {
                for col in 0..encoder.output_dim() {
                    assert_eq!(single.get(node, col), fused.get(row, col));
                }
                row += 1;
            }
        }
    }

    #[test]
    fn suffixes_match_paper_notation() {
        assert_eq!(FeatureMode::Base.suffix(), "");
        assert_eq!(FeatureMode::ResourceValues.suffix(), "-R");
        assert_eq!(FeatureMode::ResourceTypes.suffix(), "-I");
    }
}
