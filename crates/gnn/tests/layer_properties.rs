//! Property-based tests over the GNN layer zoo: for random graphs and feature
//! matrices, every layer family must produce finite outputs of the right
//! shape, respect isolated nodes, remain deterministic, and compute the same
//! bits on a fused super-graph as on its member graphs.

use gnn::{build_layer, GnnKind, GnnStack, GraphBatch, GraphData, Pooling};
use gnn_tensor::{Matrix, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random directed multigraph with `1..=12` nodes, up to 30 typed
/// edges and 3 relations.
fn random_graph() -> impl Strategy<Value = GraphData> {
    (1usize..=12).prop_flat_map(|nodes| {
        let edges = proptest::collection::vec((0..nodes, 0..nodes, 0usize..3), 0..30);
        edges.prop_map(move |list| {
            let edge_src: Vec<usize> = list.iter().map(|(s, _, _)| *s).collect();
            let edge_dst: Vec<usize> = list.iter().map(|(_, d, _)| *d).collect();
            let edge_rel: Vec<usize> = list.iter().map(|(_, _, r)| *r).collect();
            GraphData::new(nodes, edge_src, edge_dst, edge_rel, 3)
        })
    })
}

fn features(nodes: usize, dim: usize, seed: u64) -> Var {
    let mut rng = StdRng::seed_from_u64(seed);
    Var::new(gnn_tensor::xavier_uniform(nodes, dim, &mut rng))
}

/// Asserts that `fused` holds `parts` stacked row-wise, bit for bit.
fn assert_stacked_bits(fused: &Matrix, parts: &[Matrix], context: &str) {
    let mut row = 0;
    for (graph, part) in parts.iter().enumerate() {
        for local in 0..part.rows() {
            let (got, want) = (fused.row(row), part.row(local));
            let same = got.iter().zip(want).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{context}: graph {graph} row {local}: fused {got:?} vs plain {want:?}");
            row += 1;
        }
    }
    assert_eq!(row, fused.rows(), "{context}: fused row count");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every layer kind handles every random graph (including graphs with
    /// self-loops, multi-edges and isolated nodes) with finite outputs of the
    /// declared shape.
    #[test]
    fn all_layer_kinds_are_total_on_random_graphs(graph in random_graph(), seed in 0u64..500) {
        let input = features(graph.num_nodes, 5, seed);
        for kind in GnnKind::ALL {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let layer = build_layer(kind, 5, 7, graph.num_relations, &mut rng);
            let out = layer.forward(&graph, &input);
            prop_assert_eq!(out.shape(), (graph.num_nodes, 7), "{} shape", kind);
            prop_assert!(!out.value().has_non_finite(), "{} produced NaN/Inf", kind);
        }
    }

    /// Stacks are deterministic at inference time and pooling produces one
    /// graph-level row regardless of graph size.
    #[test]
    fn stack_inference_is_deterministic_and_poolable(graph in random_graph(), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stack = GnnStack::new(GnnKind::GraphSage, 4, 6, 2, graph.num_relations, &mut rng);
        let input = features(graph.num_nodes, 4, seed ^ 1);
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(2);
        let a = stack.forward(&graph, &input, false, &mut rng_a).value();
        let b = stack.forward(&graph, &input, false, &mut rng_b).value();
        prop_assert_eq!(a.clone(), b);
        for pooling in Pooling::ALL {
            let pooled = pooling.apply(&Var::new(a.clone()));
            prop_assert_eq!(pooled.shape(), (1, 6));
            prop_assert!(!pooled.value().has_non_finite());
        }
    }

    /// Fusion is invisible to every layer kind: one layer and a two-layer
    /// stack run on `GraphBatch::fuse(&[&a, &b])` return, bit for bit, the
    /// rows they return on plain `a` and `b`. On the plain graphs the
    /// single-graph arms of VirtualNode, GraphUNet and PNA are the reference
    /// for their segment-aware arms.
    #[test]
    fn fused_rows_are_bit_identical_to_plain_graph_rows(
        a in random_graph(),
        b in random_graph(),
        seed in 0u64..500,
    ) {
        let fused = GraphBatch::fuse(&[&a, &b]);
        let input_a = features(a.num_nodes, 5, seed);
        let input_b = features(b.num_nodes, 5, seed ^ 7);
        let input = Var::concat_rows(&[input_a.clone(), input_b.clone()]);
        for kind in GnnKind::ALL {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let layer = build_layer(kind, 5, 7, 3, &mut rng);
            let stack = GnnStack::new(kind, 5, 7, 2, 3, &mut rng);
            let layer_rows = |graph: &GraphData, h: &Var| layer.forward(graph, h).value();
            assert_stacked_bits(
                &layer_rows(fused.graph(), &input),
                &[layer_rows(&a, &input_a), layer_rows(&b, &input_b)],
                &format!("{kind} layer"),
            );
            let stack_rows = |graph: &GraphData, h: &Var| {
                stack.forward(graph, h, false, &mut StdRng::seed_from_u64(0)).value()
            };
            assert_stacked_bits(
                &stack_rows(fused.graph(), &input),
                &[stack_rows(&a, &input_a), stack_rows(&b, &input_b)],
                &format!("{kind} two-layer stack"),
            );
        }
        gnn_tensor::tape::reset();
    }

    /// Reversing edges never changes the node count and exactly doubles the
    /// edge count and relation vocabulary — the contract the dataset builder
    /// relies on.
    #[test]
    fn reverse_edge_contract(graph in random_graph()) {
        let doubled = graph.with_reverse_edges();
        prop_assert_eq!(doubled.num_nodes, graph.num_nodes);
        prop_assert_eq!(doubled.edge_count(), graph.edge_count() * 2);
        prop_assert_eq!(doubled.num_relations, graph.num_relations * 2);
        // Degree symmetry: total in-degree equals total out-degree after mirroring.
        let in_sum: usize = doubled.in_degrees().iter().sum();
        let out_sum: usize = doubled.out_degrees().iter().sum();
        prop_assert_eq!(in_sum, out_sum);
    }

    /// Induced subgraphs never contain edges that leave the kept node set.
    #[test]
    fn induced_subgraphs_are_closed(graph in random_graph(), keep_bits in 0u32..4096) {
        let keep: Vec<usize> = (0..graph.num_nodes).filter(|&n| keep_bits & (1 << n) != 0).collect();
        let sub = graph.induced_subgraph(&keep);
        prop_assert_eq!(sub.num_nodes, keep.len());
        prop_assert!(sub.edge_src.iter().all(|&s| s < keep.len()));
        prop_assert!(sub.edge_dst.iter().all(|&d| d < keep.len()));
        prop_assert!(sub.edge_count() <= graph.edge_count());
    }
}
