//! Graph structure consumed by the GNN layers.
//!
//! [`GraphData`] holds only connectivity (edge lists and relation ids); node
//! feature matrices are passed separately so that the same structure can be
//! reused by the three prediction approaches with different feature sets.

/// Connectivity of one graph: a directed multigraph with typed edges.
///
/// A `GraphData` may also be a *fused super-graph* built by
/// [`crate::batch::GraphBatch::fuse`]: the disjoint union of several member
/// graphs, with per-node segment ids recording which member each node came
/// from. Single graphs carry no segment information ([`GraphData::segments`]
/// returns `None`) and behave exactly as before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphData {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Source node of every edge.
    pub edge_src: Vec<usize>,
    /// Destination node of every edge.
    pub edge_dst: Vec<usize>,
    /// Relation (edge type) id of every edge, in `0..num_relations`.
    pub edge_relation: Vec<usize>,
    /// Number of distinct relations.
    pub num_relations: usize,
    /// Per-node member-graph id for fused super-graphs; empty for a single
    /// graph. Segment ids are non-decreasing (member graphs are contiguous).
    pub(crate) node_segment: Vec<usize>,
    /// Number of member graphs (1 for a single graph).
    pub(crate) num_graphs: usize,
}

impl GraphData {
    /// Creates a graph, validating that edge lists agree in length and that
    /// all indices are in range.
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero (an empty graph has no readout and would
    /// poison downstream pooling), if the edge lists have different lengths,
    /// or if they contain out-of-range node/relation indices.
    pub fn new(
        num_nodes: usize,
        edge_src: Vec<usize>,
        edge_dst: Vec<usize>,
        edge_relation: Vec<usize>,
        num_relations: usize,
    ) -> Self {
        assert!(num_nodes > 0, "a graph needs at least one node");
        assert_eq!(edge_src.len(), edge_dst.len(), "edge list length mismatch");
        assert_eq!(edge_src.len(), edge_relation.len(), "edge relation length mismatch");
        assert!(edge_src.iter().all(|&n| n < num_nodes), "edge source out of range");
        assert!(edge_dst.iter().all(|&n| n < num_nodes), "edge destination out of range");
        assert!(
            edge_relation.iter().all(|&r| r < num_relations.max(1)),
            "edge relation out of range"
        );
        GraphData {
            num_nodes,
            edge_src,
            edge_dst,
            edge_relation,
            num_relations: num_relations.max(1),
            node_segment: Vec::new(),
            num_graphs: 1,
        }
    }

    /// Number of member graphs fused into this structure (1 for a single
    /// graph).
    pub fn num_graphs(&self) -> usize {
        self.num_graphs
    }

    /// Per-node member-graph ids of a fused super-graph, or `None` for a
    /// single graph. Layers with whole-graph operations (virtual-node
    /// context, U-Net pooling, PNA degree scalers) use this to stay
    /// per-member-graph under fusion.
    pub fn segments(&self) -> Option<&[usize]> {
        if self.node_segment.is_empty() {
            None
        } else {
            Some(&self.node_segment)
        }
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_src.len()
    }

    /// In-degree of every node.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut degrees = vec![0usize; self.num_nodes];
        for &dst in &self.edge_dst {
            degrees[dst] += 1;
        }
        degrees
    }

    /// Out-degree of every node.
    pub fn out_degrees(&self) -> Vec<usize> {
        let mut degrees = vec![0usize; self.num_nodes];
        for &src in &self.edge_src {
            degrees[src] += 1;
        }
        degrees
    }

    /// Edge indices belonging to one relation.
    pub fn edges_of_relation(&self, relation: usize) -> Vec<usize> {
        (0..self.edge_count()).filter(|&e| self.edge_relation[e] == relation).collect()
    }

    /// Returns a copy with every edge mirrored. Mirrored edges get relation
    /// ids offset by `num_relations`, so relational layers can still
    /// distinguish direction; `num_relations` doubles.
    pub fn with_reverse_edges(&self) -> GraphData {
        let mut edge_src = self.edge_src.clone();
        let mut edge_dst = self.edge_dst.clone();
        let mut edge_relation = self.edge_relation.clone();
        for edge in 0..self.edge_count() {
            edge_src.push(self.edge_dst[edge]);
            edge_dst.push(self.edge_src[edge]);
            edge_relation.push(self.edge_relation[edge] + self.num_relations);
        }
        GraphData {
            num_nodes: self.num_nodes,
            edge_src,
            edge_dst,
            edge_relation,
            num_relations: self.num_relations * 2,
            node_segment: self.node_segment.clone(),
            num_graphs: self.num_graphs,
        }
    }

    /// A canonical 64-bit content hash of the graph structure (FNV-1a over a
    /// length-prefixed encoding of every structural field: node count,
    /// relation vocabulary, edge lists, member-graph count and per-node
    /// segment ids). Two graphs compare equal ([`PartialEq`]) if and only if
    /// they hash equal up to FNV collisions; perturbing any single field —
    /// an edge endpoint, a relation id, a segment id, the node count —
    /// changes the hash. Used by the prediction cache of the serving
    /// subsystem to content-address graphs.
    pub fn content_hash(&self) -> u64 {
        // FNV-1a, 64-bit: offset basis / prime from the reference spec.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.num_nodes as u64);
        eat(self.num_relations as u64);
        eat(self.num_graphs as u64);
        // Length prefixes keep the encoding unambiguous: moving a value
        // between adjacent lists cannot produce the same byte stream.
        eat(self.edge_src.len() as u64);
        for edge in 0..self.edge_count() {
            eat(self.edge_src[edge] as u64);
            eat(self.edge_dst[edge] as u64);
            eat(self.edge_relation[edge] as u64);
        }
        eat(self.node_segment.len() as u64);
        for &segment in &self.node_segment {
            eat(segment as u64);
        }
        hash
    }

    /// Induced subgraph over `keep` (in the given order). Returns the subgraph
    /// together with, for every kept node, its index in the original graph.
    pub fn induced_subgraph(&self, keep: &[usize]) -> GraphData {
        let mut position = vec![usize::MAX; self.num_nodes];
        for (new_index, &old_index) in keep.iter().enumerate() {
            position[old_index] = new_index;
        }
        let mut edge_src = Vec::new();
        let mut edge_dst = Vec::new();
        let mut edge_relation = Vec::new();
        for edge in 0..self.edge_count() {
            let src = position[self.edge_src[edge]];
            let dst = position[self.edge_dst[edge]];
            if src != usize::MAX && dst != usize::MAX {
                edge_src.push(src);
                edge_dst.push(dst);
                edge_relation.push(self.edge_relation[edge]);
            }
        }
        GraphData {
            num_nodes: keep.len(),
            edge_src,
            edge_dst,
            edge_relation,
            num_relations: self.num_relations,
            node_segment: if self.node_segment.is_empty() {
                Vec::new()
            } else {
                keep.iter().map(|&old| self.node_segment[old]).collect()
            },
            num_graphs: self.num_graphs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> GraphData {
        GraphData::new(3, vec![0, 1, 2], vec![1, 2, 0], vec![0, 1, 0], 2)
    }

    #[test]
    fn degrees_and_counts() {
        let g = triangle();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.in_degrees(), vec![1, 1, 1]);
        assert_eq!(g.out_degrees(), vec![1, 1, 1]);
        assert_eq!(g.edges_of_relation(0), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "edge source out of range")]
    fn out_of_range_nodes_are_rejected() {
        let _ = GraphData::new(2, vec![5], vec![0], vec![0], 1);
    }

    #[test]
    fn reverse_edges_double_relations() {
        let g = triangle().with_reverse_edges();
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.num_relations, 4);
        assert_eq!(g.in_degrees(), vec![2, 2, 2]);
        assert_eq!(g.edge_relation[3..], [2, 3, 2]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = triangle();
        let sub = g.induced_subgraph(&[0, 1]);
        assert_eq!(sub.num_nodes, 2);
        // Only the 0 -> 1 edge survives.
        assert_eq!(sub.edge_count(), 1);
        assert_eq!((sub.edge_src[0], sub.edge_dst[0]), (0, 1));
        assert_eq!(sub.num_relations, g.num_relations);
    }

    #[test]
    fn zero_relation_graphs_are_normalised_to_one() {
        let g = GraphData::new(2, vec![], vec![], vec![], 0);
        assert_eq!(g.num_relations, 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_graphs_are_rejected_at_construction() {
        // Regression test: a 0-node graph used to flow through to pooling,
        // where a mean readout over an empty embedding matrix poisoned the
        // tape with NaN.
        let _ = GraphData::new(0, vec![], vec![], vec![], 1);
    }

    #[test]
    fn content_hash_is_canonical_and_sensitive_to_every_field() {
        let base = triangle();
        assert_eq!(base.content_hash(), triangle().content_hash(), "equal graphs hash equal");

        // Perturb each structural field in turn; every variant must move the
        // hash away from the baseline.
        let mut variants: Vec<(&str, GraphData)> = Vec::new();
        let mut edge_moved = base.clone();
        edge_moved.edge_dst[1] = 0;
        variants.push(("edge endpoint", edge_moved));
        let mut relation_changed = base.clone();
        relation_changed.edge_relation[0] = 1;
        variants.push(("relation id", relation_changed));
        variants.push((
            "node count",
            GraphData::new(4, vec![0, 1, 2], vec![1, 2, 0], vec![0, 1, 0], 2),
        ));
        variants.push((
            "relation vocabulary",
            GraphData::new(3, vec![0, 1, 2], vec![1, 2, 0], vec![0, 1, 0], 3),
        ));
        let mut edge_dropped = base.clone();
        edge_dropped.edge_src.pop();
        edge_dropped.edge_dst.pop();
        edge_dropped.edge_relation.pop();
        variants.push(("edge count", edge_dropped));
        let mut segmented = base.clone();
        segmented.node_segment = vec![0, 0, 1];
        segmented.num_graphs = 2;
        variants.push(("segment ids", segmented));
        let mut resegmented = base.clone();
        resegmented.node_segment = vec![0, 1, 1];
        resegmented.num_graphs = 2;
        for (name, variant) in &variants {
            assert_ne!(
                variant.content_hash(),
                base.content_hash(),
                "perturbing the {name} must change the hash"
            );
        }
        // Two different segmentations of the same connectivity also differ.
        assert_ne!(segmented_hash(&variants), resegmented.content_hash());

        // Swapping values *between* lists must not collide (the encoding is
        // length-prefixed and field-ordered).
        let a = GraphData::new(2, vec![0], vec![1], vec![0], 1);
        let b = GraphData::new(2, vec![1], vec![0], vec![0], 1);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    fn segmented_hash(variants: &[(&str, GraphData)]) -> u64 {
        variants.iter().find(|(name, _)| *name == "segment ids").expect("present").1.content_hash()
    }

    #[test]
    fn single_graphs_carry_no_segments() {
        let g = triangle();
        assert_eq!(g.num_graphs(), 1);
        assert!(g.segments().is_none());
        assert!(g.with_reverse_edges().segments().is_none());
        assert!(g.induced_subgraph(&[0, 1]).segments().is_none());
    }
}
