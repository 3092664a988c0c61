//! Benchmark export: serialise datasets to a portable JSON format.
//!
//! The first contribution of the paper is the *released benchmark* — tens of
//! thousands of programs with IR graphs, per-node features and implementation
//! ground truth. This module provides the equivalent release format for this
//! reproduction: every sample is exported with its graph structure, Table-1
//! node features, auxiliary per-node HLS estimates, node-level resource-type
//! labels and graph-level targets, so external tools (or Python notebooks)
//! can consume the corpus without running the Rust flow.

use gnn::GraphData;
use hls_ir::features::NodeFeatures;
use hls_ir::graph::GraphKind;
use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, GraphSample};
use crate::Error;

/// One exported node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExportedNode {
    /// Node-type code (see `hls_ir::graph::NodeKind::code`).
    pub node_type: usize,
    /// Raw bitwidth in bits.
    pub bitwidth: u16,
    /// Opcode-category code.
    pub opcode_category: usize,
    /// Opcode code.
    pub opcode: usize,
    /// 1 when the node starts a data path.
    pub is_start_of_path: u8,
    /// Cluster group (basic-block index or -1).
    pub cluster_group: i32,
    /// Per-node `[DSP, LUT, FF]` estimate from the HLS intermediate results.
    pub hls_resources: [f32; 3],
    /// Ground-truth resource-type labels `[DSP, LUT, FF]` (0/1).
    pub resource_types: [f32; 3],
}

/// One exported edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExportedEdge {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Relation id (edge type × back-edge flag × direction).
    pub relation: usize,
}

/// One exported program/graph with its labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExportedGraph {
    /// Program name.
    pub name: String,
    /// `"dfg"` or `"cdfg"`.
    pub kind: String,
    /// Nodes in index order.
    pub nodes: Vec<ExportedNode>,
    /// Directed edges (already including mirrored edges).
    pub edges: Vec<ExportedEdge>,
    /// Graph-level ground truth `[DSP, LUT, FF, CP]`.
    pub targets: [f64; 4],
    /// The HLS report's estimate of the same metrics.
    pub hls_estimate: [f64; 4],
}

impl From<&GraphSample> for ExportedGraph {
    fn from(sample: &GraphSample) -> Self {
        let nodes = (0..sample.num_nodes())
            .map(|index| {
                let feature = &sample.node_features[index];
                ExportedNode {
                    node_type: feature.node_type,
                    bitwidth: feature.bitwidth,
                    opcode_category: feature.opcode_category,
                    opcode: feature.opcode,
                    is_start_of_path: feature.is_start_of_path,
                    cluster_group: feature.cluster_group,
                    hls_resources: sample.node_aux_resources[index],
                    resource_types: sample.node_resource_types[index],
                }
            })
            .collect();
        let edges = (0..sample.structure.edge_count())
            .map(|edge| ExportedEdge {
                src: sample.structure.edge_src[edge],
                dst: sample.structure.edge_dst[edge],
                relation: sample.structure.edge_relation[edge],
            })
            .collect();
        ExportedGraph {
            name: sample.name.clone(),
            kind: sample.kind.name().to_owned(),
            nodes,
            edges,
            targets: sample.targets,
            hls_estimate: sample.hls_estimate,
        }
    }
}

impl ExportedGraph {
    /// Rebuilds an in-memory [`GraphSample`] from the release format — the
    /// inverse of `ExportedGraph::from(&sample)`. This is how the serving
    /// subsystem accepts graphs over the wire, so every structural invariant
    /// is *checked* and reported as a typed error: the constructors behind
    /// [`GraphSample`] panic on malformed input, which is correct for
    /// internally-built graphs but unacceptable for bytes from a socket.
    ///
    /// # Errors
    /// Returns [`Error::Parse`] when the graph has no nodes, an edge endpoint
    /// or relation id is out of range, a categorical feature exceeds its
    /// embedding vocabulary, or the kind string is unknown.
    pub fn to_sample(&self) -> crate::Result<GraphSample> {
        let kind = match self.kind.as_str() {
            "dfg" => GraphKind::Dfg,
            "cdfg" => GraphKind::Cdfg,
            other => {
                return Err(Error::Parse(format!(
                    "unknown graph kind `{other}` (expected `dfg` or `cdfg`)"
                )))
            }
        };
        let num_nodes = self.nodes.len();
        if num_nodes == 0 {
            return Err(Error::Parse("an exported graph needs at least one node".to_owned()));
        }
        for (index, node) in self.nodes.iter().enumerate() {
            let vocab_checks = [
                ("node_type", node.node_type, NodeFeatures::NODE_TYPE_VOCAB),
                ("opcode_category", node.opcode_category, NodeFeatures::OPCODE_CATEGORY_VOCAB),
                ("opcode", node.opcode, NodeFeatures::OPCODE_VOCAB),
            ];
            for (field, value, vocab) in vocab_checks {
                if value >= vocab {
                    return Err(Error::Parse(format!(
                        "node {index}: {field} {value} exceeds the vocabulary ({vocab})"
                    )));
                }
            }
            if node.is_start_of_path > 1 {
                return Err(Error::Parse(format!(
                    "node {index}: is_start_of_path must be 0 or 1, got {}",
                    node.is_start_of_path
                )));
            }
        }
        let mut edge_src = Vec::with_capacity(self.edges.len());
        let mut edge_dst = Vec::with_capacity(self.edges.len());
        let mut edge_relation = Vec::with_capacity(self.edges.len());
        for (index, edge) in self.edges.iter().enumerate() {
            if edge.src >= num_nodes || edge.dst >= num_nodes {
                return Err(Error::Parse(format!(
                    "edge {index}: endpoint {} -> {} out of range for {num_nodes} nodes",
                    edge.src, edge.dst
                )));
            }
            if edge.relation >= GraphSample::NUM_RELATIONS {
                return Err(Error::Parse(format!(
                    "edge {index}: relation {} exceeds the vocabulary ({})",
                    edge.relation,
                    GraphSample::NUM_RELATIONS
                )));
            }
            edge_src.push(edge.src);
            edge_dst.push(edge.dst);
            edge_relation.push(edge.relation);
        }
        // All indices were validated above, so the panicking constructor is
        // safe to call. Exported edges already include the mirrored copies,
        // so no `with_reverse_edges` here.
        let structure = GraphData::new(
            num_nodes,
            edge_src,
            edge_dst,
            edge_relation,
            GraphSample::NUM_RELATIONS,
        );
        let node_features = self
            .nodes
            .iter()
            .map(|node| NodeFeatures {
                node_type: node.node_type,
                bitwidth: node.bitwidth,
                opcode_category: node.opcode_category,
                opcode: node.opcode,
                is_start_of_path: node.is_start_of_path,
                cluster_group: node.cluster_group,
            })
            .collect();
        Ok(GraphSample {
            name: self.name.clone(),
            kind,
            structure,
            node_features,
            node_aux_resources: self.nodes.iter().map(|n| n.hls_resources).collect(),
            node_resource_types: self.nodes.iter().map(|n| n.resource_types).collect(),
            // The release format does not carry the analytic-bound features;
            // they are derived quantities, recomputable by re-running the
            // static analyser on the program. Rebuilt samples fall back to
            // zeros; served models never read them (only the analytic
            // ablation does).
            node_analytic: vec![[0.0; 3]; num_nodes],
            targets: self.targets,
            hls_estimate: self.hls_estimate,
        })
    }
}

/// A whole exported dataset plus provenance metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExportedDataset {
    /// Free-form description of how the corpus was generated.
    pub description: String,
    /// Number of graphs.
    pub graph_count: usize,
    /// Total number of nodes across all graphs.
    pub node_count: usize,
    /// The graphs.
    pub graphs: Vec<ExportedGraph>,
}

impl ExportedDataset {
    /// Converts an in-memory dataset into the release format.
    pub fn from_dataset(dataset: &Dataset, description: impl Into<String>) -> Self {
        let graphs: Vec<ExportedGraph> = dataset.samples.iter().map(ExportedGraph::from).collect();
        ExportedDataset {
            description: description.into(),
            graph_count: graphs.len(),
            node_count: dataset.total_nodes(),
            graphs,
        }
    }

    /// Serialises the dataset to pretty-printed JSON.
    ///
    /// # Errors
    /// Returns a [`crate::Error::Config`] if serialisation fails (which only
    /// happens for non-finite floats, which the flow never produces).
    pub fn to_json(&self) -> crate::Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| crate::Error::Config(format!("failed to serialise dataset: {e}")))
    }

    /// Parses a dataset from JSON.
    ///
    /// # Errors
    /// Returns a [`crate::Error::Config`] on malformed input.
    pub fn from_json(json: &str) -> crate::Result<Self> {
        serde_json::from_str(json)
            .map_err(|e| crate::Error::Config(format!("failed to parse dataset: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use hls_progen::synthetic::{ProgramFamily, SyntheticConfig};

    fn tiny_dataset() -> Dataset {
        DatasetBuilder::new(ProgramFamily::Control)
            .count(3)
            .seed(4)
            .generator_config(SyntheticConfig::tiny(ProgramFamily::Control))
            .build()
            .unwrap()
    }

    #[test]
    fn export_preserves_counts_and_labels() {
        let dataset = tiny_dataset();
        let exported = ExportedDataset::from_dataset(&dataset, "unit-test corpus");
        assert_eq!(exported.graph_count, dataset.len());
        assert_eq!(exported.node_count, dataset.total_nodes());
        for (graph, sample) in exported.graphs.iter().zip(&dataset.samples) {
            assert_eq!(graph.nodes.len(), sample.num_nodes());
            assert_eq!(graph.edges.len(), sample.structure.edge_count());
            assert_eq!(graph.targets, sample.targets);
            assert_eq!(graph.kind, "cdfg");
        }
    }

    #[test]
    fn export_round_trips_through_json() {
        let dataset = tiny_dataset();
        let exported = ExportedDataset::from_dataset(&dataset, "round trip");
        let json = exported.to_json().unwrap();
        let parsed = ExportedDataset::from_json(&json).unwrap();
        assert!(json.contains("\"cdfg\""));
        assert_eq!(parsed.description, exported.description);
        assert_eq!(parsed.graph_count, exported.graph_count);
        assert_eq!(parsed.node_count, exported.node_count);
        for (parsed_graph, original) in parsed.graphs.iter().zip(&exported.graphs) {
            assert_eq!(parsed_graph.name, original.name);
            assert_eq!(parsed_graph.nodes.len(), original.nodes.len());
            assert_eq!(parsed_graph.edges, original.edges);
            // Floating-point labels survive the text round trip to within
            // printing precision.
            for (a, b) in parsed_graph.targets.iter().zip(&original.targets) {
                assert!((a - b).abs() < 1e-6 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(ExportedDataset::from_json("{not json").is_err());
    }

    #[test]
    fn exported_graphs_rebuild_into_equivalent_samples() {
        let dataset = tiny_dataset();
        for sample in &dataset.samples {
            let rebuilt = ExportedGraph::from(sample).to_sample().expect("export round trips");
            assert_eq!(rebuilt.name, sample.name);
            assert_eq!(rebuilt.kind, sample.kind);
            assert_eq!(rebuilt.structure, sample.structure);
            assert_eq!(rebuilt.node_features, sample.node_features);
            assert_eq!(rebuilt.node_aux_resources, sample.node_aux_resources);
            assert_eq!(rebuilt.node_resource_types, sample.node_resource_types);
            assert_eq!(rebuilt.targets, sample.targets);
            assert_eq!(rebuilt.hls_estimate, sample.hls_estimate);
            assert_eq!(rebuilt.structure.content_hash(), sample.structure.content_hash());
        }
    }

    #[test]
    fn malformed_exported_graphs_are_rejected_not_panicked_on() {
        let dataset = tiny_dataset();
        let good = ExportedGraph::from(&dataset.samples[0]);

        let mut bad_kind = good.clone();
        bad_kind.kind = "cfg".to_owned();
        assert!(matches!(bad_kind.to_sample(), Err(crate::Error::Parse(_))));

        let mut empty = good.clone();
        empty.nodes.clear();
        empty.edges.clear();
        assert!(matches!(empty.to_sample(), Err(crate::Error::Parse(_))));

        let mut dangling_edge = good.clone();
        dangling_edge.edges[0].dst = good.nodes.len() + 7;
        assert!(matches!(dangling_edge.to_sample(), Err(crate::Error::Parse(_))));

        let mut bad_relation = good.clone();
        bad_relation.edges[0].relation = crate::dataset::GraphSample::NUM_RELATIONS;
        assert!(matches!(bad_relation.to_sample(), Err(crate::Error::Parse(_))));

        let mut bad_vocab = good.clone();
        bad_vocab.nodes[0].opcode = usize::MAX;
        assert!(matches!(bad_vocab.to_sample(), Err(crate::Error::Parse(_))));

        let mut bad_flag = good;
        bad_flag.nodes[0].is_start_of_path = 2;
        assert!(matches!(bad_flag.to_sample(), Err(crate::Error::Parse(_))));
    }
}
