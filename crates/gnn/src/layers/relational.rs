//! Layers that exploit multi-relational (edge type) information: GAT, GGNN,
//! RGCN and GNN-FiLM.
//!
//! The paper finds relational information (data vs. control vs. memory edges,
//! back-edge flags) to be one of the two properties that most improve
//! prediction accuracy, which is why RGCN is one of the two backbones carried
//! into the knowledge-infused and knowledge-rich approaches.

use gnn_tensor::{Linear, Var};
use rand::rngs::StdRng;

use super::GnnLayer;
use crate::graph::GraphData;

/// The message passing shared by GGNN, RGCN and GNN-FiLM. For every
/// relation with edges, `message(relation, src, dst)` builds one row per
/// edge; the rows are summed per destination node in a compact space that
/// holds only that relation's destinations (in first-appearance order), and
/// with `mean` each sum is divided by the node's in-degree under the
/// relation. Returns every relation's sums stacked in relation order, with
/// the node each row belongs to, ready for one [`Var::scatter_add_onto`] —
/// or `None` when the graph has no edges.
///
/// Aggregating in the compact space keeps a layer at `O(edges × d +
/// num_nodes × d)` instead of `O(relations × num_nodes × d)`, and keeps the
/// per-node, per-relation accumulation order of a full-width
/// `scatter_add_rows(dst, num_nodes)` loop, so a fused super-graph and its
/// member graphs get bit-identical rows.
fn aggregate_relations(
    graph: &GraphData,
    relations: usize,
    mean: bool,
    message: impl Fn(usize, &[usize], &[usize]) -> Var,
) -> Option<(Var, Vec<usize>)> {
    let mut partials: Vec<Var> = Vec::new();
    let mut targets: Vec<usize> = Vec::new();
    let mut compact_of = vec![usize::MAX; graph.num_nodes];
    for relation in 0..relations {
        let edges = graph.edges_of_relation(relation);
        if edges.is_empty() {
            continue;
        }
        let src: Vec<usize> = edges.iter().map(|&e| graph.edge_src[e]).collect();
        let dst: Vec<usize> = edges.iter().map(|&e| graph.edge_dst[e]).collect();
        let messages = message(relation, &src, &dst);
        let first = targets.len();
        let mut degrees: Vec<usize> = Vec::new();
        let mut compact_dst = Vec::with_capacity(dst.len());
        for &node in &dst {
            if compact_of[node] == usize::MAX {
                compact_of[node] = degrees.len();
                degrees.push(0);
                targets.push(node);
            }
            degrees[compact_of[node]] += 1;
            compact_dst.push(compact_of[node]);
        }
        for &node in &targets[first..] {
            compact_of[node] = usize::MAX;
        }
        let sums = messages.scatter_add_rows(&compact_dst, degrees.len());
        partials.push(if mean {
            let inverse: Vec<f32> = degrees.iter().map(|&d| 1.0 / d as f32).collect();
            sums.scale_rows(&inverse)
        } else {
            sums
        });
    }
    (!partials.is_empty()).then(|| (Var::concat_rows(&partials), targets))
}

/// Graph attention network layer (Veličković et al.) with a single head and
/// implicit self loops.
#[derive(Debug)]
pub struct Gat {
    linear: Linear,
    attention_src: Linear,
    attention_dst: Linear,
    out_dim: usize,
}

impl Gat {
    /// Creates a GAT layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Gat {
            linear: Linear::new(in_dim, out_dim, rng),
            attention_src: Linear::new(out_dim, 1, rng),
            attention_dst: Linear::new(out_dim, 1, rng),
            out_dim,
        }
    }
}

impl GnnLayer for Gat {
    fn forward(&self, graph: &GraphData, h: &Var) -> Var {
        let transformed = self.linear.forward(h);
        // Add self loops so every node attends at least to itself.
        let mut src = graph.edge_src.clone();
        let mut dst = graph.edge_dst.clone();
        for node in 0..graph.num_nodes {
            src.push(node);
            dst.push(node);
        }
        let src_scores = self.attention_src.forward(&transformed);
        let dst_scores = self.attention_dst.forward(&transformed);
        let edge_scores =
            src_scores.gather_rows(&src).add(&dst_scores.gather_rows(&dst)).leaky_relu(0.2).exp();
        let normaliser = edge_scores.scatter_add_rows(&dst, graph.num_nodes);
        let attention = edge_scores.div_eps(&normaliser.gather_rows(&dst), 1e-9);
        transformed
            .gather_rows(&src)
            .mul_col_broadcast(&attention)
            .scatter_add_rows(&dst, graph.num_nodes)
    }

    fn parameters(&self) -> Vec<Var> {
        let mut params = self.linear.parameters();
        params.extend(self.attention_src.parameters());
        params.extend(self.attention_dst.parameters());
        params
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }
}

/// Gated graph neural network layer (Li et al.): relation-specific messages
/// followed by a GRU state update.
#[derive(Debug)]
pub struct Ggnn {
    relation_linears: Vec<Linear>,
    state_projection: Linear,
    update_message: Linear,
    update_state: Linear,
    reset_message: Linear,
    reset_state: Linear,
    candidate_message: Linear,
    candidate_state: Linear,
    out_dim: usize,
}

impl Ggnn {
    /// Creates a GGNN layer for `num_relations` edge types.
    pub fn new(in_dim: usize, out_dim: usize, num_relations: usize, rng: &mut StdRng) -> Self {
        let relation_linears =
            (0..num_relations.max(1)).map(|_| Linear::new(in_dim, out_dim, rng)).collect();
        Ggnn {
            relation_linears,
            state_projection: Linear::new(in_dim, out_dim, rng),
            update_message: Linear::new(out_dim, out_dim, rng),
            update_state: Linear::new(out_dim, out_dim, rng),
            reset_message: Linear::new(out_dim, out_dim, rng),
            reset_state: Linear::new(out_dim, out_dim, rng),
            candidate_message: Linear::new(out_dim, out_dim, rng),
            candidate_state: Linear::new(out_dim, out_dim, rng),
            out_dim,
        }
    }

    fn relation_messages(&self, graph: &GraphData, h: &Var) -> Var {
        let aggregated =
            aggregate_relations(graph, self.relation_linears.len(), false, |relation, src, _| {
                self.relation_linears[relation].forward(&h.gather_rows(src))
            });
        match aggregated {
            Some((sums, targets)) => {
                let base = Var::new(gnn_tensor::Matrix::zeros(graph.num_nodes, self.out_dim));
                base.scatter_add_onto(&sums, &targets)
            }
            // No edges at all: zero messages.
            None => self.state_projection.forward(h).scale(0.0),
        }
    }
}

impl GnnLayer for Ggnn {
    fn forward(&self, graph: &GraphData, h: &Var) -> Var {
        let state = self.state_projection.forward(h);
        let message = self.relation_messages(graph, h);
        let update =
            self.update_message.forward(&message).add(&self.update_state.forward(&state)).sigmoid();
        let reset =
            self.reset_message.forward(&message).add(&self.reset_state.forward(&state)).sigmoid();
        let candidate = self
            .candidate_message
            .forward(&message)
            .add(&self.candidate_state.forward(&reset.mul(&state)))
            .tanh();
        // out = (1 - z) ⊙ state + z ⊙ candidate
        let keep = update.scale(-1.0).add_scalar(1.0);
        keep.mul(&state).add(&update.mul(&candidate))
    }

    fn parameters(&self) -> Vec<Var> {
        let mut params: Vec<Var> =
            self.relation_linears.iter().flat_map(Linear::parameters).collect();
        for linear in [
            &self.state_projection,
            &self.update_message,
            &self.update_state,
            &self.reset_message,
            &self.reset_state,
            &self.candidate_message,
            &self.candidate_state,
        ] {
            params.extend(linear.parameters());
        }
        params
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }
}

/// Relational graph convolutional network layer (Schlichtkrull et al.):
/// `H' = H W_0 + Σ_r Â_r H W_r` with per-relation mean normalisation.
#[derive(Debug)]
pub struct Rgcn {
    self_linear: Linear,
    relation_linears: Vec<Linear>,
    out_dim: usize,
}

impl Rgcn {
    /// Creates an RGCN layer for `num_relations` edge types.
    pub fn new(in_dim: usize, out_dim: usize, num_relations: usize, rng: &mut StdRng) -> Self {
        Rgcn {
            self_linear: Linear::new(in_dim, out_dim, rng),
            relation_linears: (0..num_relations.max(1))
                .map(|_| Linear::new(in_dim, out_dim, rng))
                .collect(),
            out_dim,
        }
    }
}

impl GnnLayer for Rgcn {
    fn forward(&self, graph: &GraphData, h: &Var) -> Var {
        let out = self.self_linear.forward(h);
        let aggregated =
            aggregate_relations(graph, self.relation_linears.len(), true, |relation, src, _| {
                self.relation_linears[relation].forward(&h.gather_rows(src))
            });
        match aggregated {
            Some((sums, targets)) => out.scatter_add_onto(&sums, &targets),
            None => out,
        }
    }

    fn parameters(&self) -> Vec<Var> {
        let mut params = self.self_linear.parameters();
        params.extend(self.relation_linears.iter().flat_map(Linear::parameters));
        params
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }
}

/// GNN-FiLM layer (Brockschmidt): the destination node modulates each
/// relation-specific message with a feature-wise linear transformation
/// `γ_r(h_dst) ⊙ (W_r h_src) + β_r(h_dst)`.
#[derive(Debug)]
pub struct Film {
    self_linear: Linear,
    relation_weights: Vec<Linear>,
    relation_gamma: Vec<Linear>,
    relation_beta: Vec<Linear>,
    out_dim: usize,
}

impl Film {
    /// Creates a FiLM layer for `num_relations` edge types.
    pub fn new(in_dim: usize, out_dim: usize, num_relations: usize, rng: &mut StdRng) -> Self {
        let relations = num_relations.max(1);
        Film {
            self_linear: Linear::new(in_dim, out_dim, rng),
            relation_weights: (0..relations).map(|_| Linear::new(in_dim, out_dim, rng)).collect(),
            relation_gamma: (0..relations).map(|_| Linear::new(in_dim, out_dim, rng)).collect(),
            relation_beta: (0..relations).map(|_| Linear::new(in_dim, out_dim, rng)).collect(),
            out_dim,
        }
    }
}

impl GnnLayer for Film {
    fn forward(&self, graph: &GraphData, h: &Var) -> Var {
        let out = self.self_linear.forward(h);
        let aggregated =
            aggregate_relations(graph, self.relation_weights.len(), true, |relation, src, dst| {
                let sources = self.relation_weights[relation].forward(&h.gather_rows(src));
                let gamma = self.relation_gamma[relation].forward(&h.gather_rows(dst)).sigmoid();
                let beta = self.relation_beta[relation].forward(&h.gather_rows(dst));
                gamma.mul(&sources).add(&beta)
            });
        match aggregated {
            Some((sums, targets)) => out.scatter_add_onto(&sums, &targets),
            None => out,
        }
    }

    fn parameters(&self) -> Vec<Var> {
        let mut params = self.self_linear.parameters();
        for group in [&self.relation_weights, &self.relation_gamma, &self.relation_beta] {
            params.extend(group.iter().flat_map(Linear::parameters));
        }
        params
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_tensor::Matrix;
    use rand::SeedableRng;

    fn two_relation_graph() -> GraphData {
        // 0 -> 2 via relation 0, 1 -> 2 via relation 1.
        GraphData::new(3, vec![0, 1], vec![2, 2], vec![0, 1], 2)
    }

    #[test]
    fn gat_attention_weights_sum_to_one_per_destination() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Gat::new(2, 2, &mut rng);
        let graph = two_relation_graph();
        let features = Var::new(Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.1));
        let out = layer.forward(&graph, &features);
        assert_eq!(out.shape(), (3, 2));
        assert!(!out.value().has_non_finite());
        // Changing only the attention parameters changes the mixture but keeps
        // the output in the convex hull of the transformed inputs: sanity-check
        // finiteness and shape (full softmax property is exercised via autodiff
        // tests in gnn-tensor).
    }

    #[test]
    fn rgcn_distinguishes_relations() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Rgcn::new(2, 2, 2, &mut rng);
        let graph = two_relation_graph();
        let swapped = GraphData::new(3, vec![0, 1], vec![2, 2], vec![1, 0], 2);
        let features = Var::new(Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5]));
        let original = layer.forward(&graph, &features).value();
        let relabelled = layer.forward(&swapped, &features).value();
        // Swapping the relation labels of the two edges changes node 2's embedding.
        assert_ne!(original.row(2), relabelled.row(2));
        // Nodes without incoming edges are unaffected by the relabelling.
        assert_eq!(original.row(0), relabelled.row(0));
    }

    #[test]
    fn ggnn_gru_keeps_outputs_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Ggnn::new(3, 4, 2, &mut rng);
        let graph = two_relation_graph();
        let features = Var::new(Matrix::full(3, 3, 5.0));
        let out = layer.forward(&graph, &features).value();
        assert_eq!(out.shape(), (3, 4));
        assert!(!out.has_non_finite());
    }

    #[test]
    fn film_modulation_depends_on_destination_features() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Film::new(2, 3, 2, &mut rng);
        let graph = two_relation_graph();
        let base = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.2, 0.8]);
        let mut changed_dst = base.clone();
        changed_dst.set(2, 0, 5.0);
        let layer_out_base = layer.forward(&graph, &Var::new(base)).value();
        let layer_out_changed = layer.forward(&graph, &Var::new(changed_dst)).value();
        // Node 2 (the destination) modulates its incoming messages, so changing
        // its features changes its output beyond the self term alone.
        assert_ne!(layer_out_base.row(2), layer_out_changed.row(2));
    }

    /// The full-width relation loop the compact aggregation replaced: each
    /// relation scatters onto all `num_nodes` rows (divided by the in-degree
    /// with `mean`) and is added onto the running total in relation order.
    /// Kept as the oracle [`aggregate_relations`] must match bit for bit.
    fn full_width(
        graph: &GraphData,
        relations: usize,
        mean: bool,
        base: Option<Var>,
        message: impl Fn(usize, &[usize], &[usize]) -> Var,
    ) -> Option<Var> {
        let mut total = base;
        for relation in 0..relations {
            let edges = graph.edges_of_relation(relation);
            if edges.is_empty() {
                continue;
            }
            let src: Vec<usize> = edges.iter().map(|&e| graph.edge_src[e]).collect();
            let dst: Vec<usize> = edges.iter().map(|&e| graph.edge_dst[e]).collect();
            let mut messages =
                message(relation, &src, &dst).scatter_add_rows(&dst, graph.num_nodes);
            if mean {
                let mut degrees = vec![0usize; graph.num_nodes];
                for &node in &dst {
                    degrees[node] += 1;
                }
                let inverse: Vec<f32> =
                    degrees.iter().map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 }).collect();
                messages = messages.scale_rows(&inverse);
            }
            total = Some(match total {
                Some(acc) => acc.add(&messages),
                None => messages,
            });
        }
        total
    }

    fn ggnn_messages_oracle(layer: &Ggnn, graph: &GraphData, h: &Var) -> Var {
        full_width(graph, layer.relation_linears.len(), false, None, |relation, src, _| {
            layer.relation_linears[relation].forward(&h.gather_rows(src))
        })
        .unwrap_or_else(|| layer.state_projection.forward(h).scale(0.0))
    }

    fn rgcn_oracle(layer: &Rgcn, graph: &GraphData, h: &Var) -> Var {
        let out = layer.self_linear.forward(h);
        full_width(graph, layer.relation_linears.len(), true, Some(out), |relation, src, _| {
            layer.relation_linears[relation].forward(&h.gather_rows(src))
        })
        .expect("the self term is always present")
    }

    fn film_oracle(layer: &Film, graph: &GraphData, h: &Var) -> Var {
        let out = layer.self_linear.forward(h);
        full_width(graph, layer.relation_weights.len(), true, Some(out), |relation, src, dst| {
            let sources = layer.relation_weights[relation].forward(&h.gather_rows(src));
            let gamma = layer.relation_gamma[relation].forward(&h.gather_rows(dst)).sigmoid();
            let beta = layer.relation_beta[relation].forward(&h.gather_rows(dst));
            gamma.mul(&sources).add(&beta)
        })
        .expect("the self term is always present")
    }

    fn assert_same_bits(compact: &Var, oracle: &Var, context: &str) {
        let (compact, oracle) = (compact.value(), oracle.value());
        assert_eq!(compact.shape(), oracle.shape(), "{context}");
        for (index, (a, b)) in compact.data().iter().zip(oracle.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}: element {index}: {a} vs {b}");
        }
    }

    /// Seeded random multigraphs with self loops, parallel edges, isolated
    /// nodes and unused relations, plus the edgeless graph.
    fn oracle_graphs() -> Vec<GraphData> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        let mut graphs = vec![two_relation_graph(), GraphData::new(4, vec![], vec![], vec![], 3)];
        for _ in 0..12 {
            let nodes = rng.gen_range(1..14usize);
            let edges = rng.gen_range(0..40usize);
            let src: Vec<usize> = (0..edges).map(|_| rng.gen_range(0..nodes)).collect();
            let dst: Vec<usize> = (0..edges).map(|_| rng.gen_range(0..nodes)).collect();
            let relation: Vec<usize> = (0..edges).map(|_| rng.gen_range(0..4usize)).collect();
            graphs.push(GraphData::new(nodes, src, dst, relation, 4));
        }
        graphs
    }

    #[test]
    fn compact_aggregation_matches_the_full_width_loops_bit_for_bit() {
        for (index, graph) in oracle_graphs().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(index as u64);
            let h = Var::new(gnn_tensor::xavier_uniform(graph.num_nodes, 3, &mut rng));
            let ggnn = Ggnn::new(3, 5, graph.num_relations, &mut rng);
            let rgcn = Rgcn::new(3, 5, graph.num_relations, &mut rng);
            let film = Film::new(3, 5, graph.num_relations, &mut rng);
            assert_same_bits(
                &ggnn.relation_messages(graph, &h),
                &ggnn_messages_oracle(&ggnn, graph, &h),
                &format!("GGNN graph {index}"),
            );
            assert_same_bits(
                &rgcn.forward(graph, &h),
                &rgcn_oracle(&rgcn, graph, &h),
                &format!("RGCN graph {index}"),
            );
            assert_same_bits(
                &film.forward(graph, &h),
                &film_oracle(&film, graph, &h),
                &format!("FiLM graph {index}"),
            );
        }
    }

    #[test]
    fn relational_layers_survive_graphs_without_edges() {
        let mut rng = StdRng::seed_from_u64(4);
        let graph = GraphData::new(4, vec![], vec![], vec![], 3);
        let features = Var::new(Matrix::full(4, 2, 1.0));
        for layer in [
            Box::new(Rgcn::new(2, 5, 3, &mut rng)) as Box<dyn GnnLayer>,
            Box::new(Ggnn::new(2, 5, 3, &mut rng)),
            Box::new(Film::new(2, 5, 3, &mut rng)),
            Box::new(Gat::new(2, 5, &mut rng)),
        ] {
            let out = layer.forward(&graph, &features);
            assert_eq!(out.shape(), (4, 5));
            assert!(!out.value().has_non_finite());
        }
    }
}
