//! DFG / CDFG extraction from the operation-level IR.
//!
//! The graphs produced here are the *only* input the paper's predictors see:
//! data-flow graphs (DFGs) extracted from basic blocks and control-data-flow
//! graphs (CDFGs) extracted from programs with loops and branches. CDFGs add
//! block nodes, control edges and back edges on top of the data-flow
//! structure.

use std::collections::HashMap;

use crate::ast::{Function, VarId};
use crate::ir::{IrFunction, OpId};
use crate::lower::lower_function;
use crate::opcode::Opcode;
use crate::{Error, Result};

/// Which graph abstraction to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Pure data-flow graph from a single basic block (a DAG).
    Dfg,
    /// Control-data-flow graph with block nodes, control edges and back edges.
    Cdfg,
}

impl GraphKind {
    /// Short lowercase name (`"dfg"` / `"cdfg"`), used in reports and file names.
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Dfg => "dfg",
            GraphKind::Cdfg => "cdfg",
        }
    }
}

/// Coarse node category (the `Node type` feature of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// Datapath operation.
    Operation,
    /// Basic-block / control-state node (CDFG only).
    Block,
    /// Top-level I/O port.
    Port,
    /// Miscellaneous node (constants, allocations).
    Misc,
}

impl NodeKind {
    /// All node kinds, in a stable order used for integer encoding.
    pub const ALL: [NodeKind; 4] =
        [NodeKind::Operation, NodeKind::Block, NodeKind::Port, NodeKind::Misc];

    /// Number of node kinds (embedding vocabulary size).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable integer code.
    pub fn code(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("kind present in ALL")
    }
}

/// Edge category (the `edge type` feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Data dependency.
    Data,
    /// Control dependency (CDFG only).
    Control,
    /// Memory-ordering dependency between accesses to the same array.
    Memory,
}

impl EdgeKind {
    /// All edge kinds, in a stable order used for integer encoding.
    pub const ALL: [EdgeKind; 3] = [EdgeKind::Data, EdgeKind::Control, EdgeKind::Memory];

    /// Number of edge kinds (embedding vocabulary size).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable integer code.
    pub fn code(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("kind present in ALL")
    }
}

/// Identifier of a node within an [`IrGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index of the node in the graph's node list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A node of the IR graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrNode {
    /// Identifier of this node.
    pub id: NodeId,
    /// Node category.
    pub kind: NodeKind,
    /// Opcode, for operation/port/misc nodes that originate from an IR operation.
    pub opcode: Option<Opcode>,
    /// Result bitwidth in bits (0 for block nodes).
    pub bitwidth: u16,
    /// Cluster group of the node: the basic-block index, or -1 for nodes that
    /// do not belong to a specific block (ports, constants in the paper's
    /// "misc" bucket).
    pub cluster: i32,
    /// The IR operation this node was created from, if any.
    pub op: Option<OpId>,
    /// The array variable touched by this node, if it is a memory node.
    pub array: Option<VarId>,
}

/// A directed edge of the IR graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrEdge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Edge category.
    pub kind: EdgeKind,
    /// True for loop back edges (data or control).
    pub is_back_edge: bool,
}

/// An extracted DFG or CDFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrGraph {
    /// Name of the originating function.
    pub name: String,
    /// Whether this is a DFG or a CDFG.
    pub kind: GraphKind,
    nodes: Vec<IrNode>,
    edges: Vec<IrEdge>,
}

impl IrGraph {
    /// Builds a graph from raw parts; mostly useful in tests and generators.
    pub fn from_parts(
        name: impl Into<String>,
        kind: GraphKind,
        nodes: Vec<IrNode>,
        edges: Vec<IrEdge>,
    ) -> Self {
        IrGraph { name: name.into(), kind, nodes, edges }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[IrNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[IrEdge] {
        &self.edges
    }

    /// Accesses a node by id.
    pub fn node(&self, id: NodeId) -> &IrNode {
        &self.nodes[id.0]
    }

    /// Finds the graph node created from a given IR operation, if any.
    pub fn node_of_op(&self, op: OpId) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.op == Some(op)).map(|n| n.id)
    }

    /// In-degree of every node, optionally restricted to one edge kind.
    pub fn in_degrees(&self, kind: Option<EdgeKind>) -> Vec<usize> {
        let mut degrees = vec![0usize; self.nodes.len()];
        for edge in &self.edges {
            if kind.is_none_or(|k| edge.kind == k) {
                degrees[edge.dst.0] += 1;
            }
        }
        degrees
    }

    /// Out-degree of every node, optionally restricted to one edge kind.
    pub fn out_degrees(&self, kind: Option<EdgeKind>) -> Vec<usize> {
        let mut degrees = vec![0usize; self.nodes.len()];
        for edge in &self.edges {
            if kind.is_none_or(|k| edge.kind == k) {
                degrees[edge.src.0] += 1;
            }
        }
        degrees
    }

    /// Forward adjacency list (successors) over all edges.
    pub fn successors(&self) -> Vec<Vec<NodeId>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for edge in &self.edges {
            adj[edge.src.0].push(edge.dst);
        }
        adj
    }

    /// Backward adjacency list (predecessors) over all edges.
    pub fn predecessors(&self) -> Vec<Vec<NodeId>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for edge in &self.edges {
            adj[edge.dst.0].push(edge.src);
        }
        adj
    }

    /// Number of back edges in the graph (0 for DFGs).
    pub fn back_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.is_back_edge).count()
    }

    /// Returns true if the graph restricted to non-back edges is acyclic.
    pub fn is_dag_ignoring_back_edges(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Topological order over non-back edges, or `None` if a cycle remains.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut adj = vec![Vec::new(); n];
        for edge in &self.edges {
            if edge.is_back_edge {
                continue;
            }
            adj[edge.src.0].push(edge.dst.0);
            indegree[edge.dst.0] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(node) = stack.pop() {
            order.push(NodeId(node));
            for &next in &adj[node] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    stack.push(next);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Length (in edges) of the longest path over non-back data edges.
    /// This approximates the depth of the combinational structure and is used
    /// by tests and by the HLS simulator's sanity checks.
    pub fn longest_data_path(&self) -> usize {
        let order = match self.topological_order() {
            Some(order) => order,
            None => return 0,
        };
        let mut dist = vec![0usize; self.nodes.len()];
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for edge in &self.edges {
            if edge.kind == EdgeKind::Data && !edge.is_back_edge {
                adj[edge.src.0].push(edge.dst.0);
            }
        }
        let mut best = 0;
        for node in order {
            for &next in &adj[node.0] {
                if dist[node.0] + 1 > dist[next] {
                    dist[next] = dist[node.0] + 1;
                    best = best.max(dist[next]);
                }
            }
        }
        best
    }

    /// Validates node/edge referential integrity.
    pub fn check_integrity(&self) -> std::result::Result<(), String> {
        for (index, node) in self.nodes.iter().enumerate() {
            if node.id.0 != index {
                return Err(format!("node id {} stored at index {index}", node.id.0));
            }
        }
        for edge in &self.edges {
            if edge.src.0 >= self.nodes.len() || edge.dst.0 >= self.nodes.len() {
                return Err(format!("edge {}->{} out of range", edge.src.0, edge.dst.0));
            }
        }
        Ok(())
    }
}

/// Lowers an AST function and extracts the requested graph kind.
///
/// # Errors
/// Returns [`Error::UnsupportedGraphKind`] when a DFG is requested for a
/// function containing control flow, plus any lowering error.
pub fn extract_graph(func: &Function, kind: GraphKind) -> Result<IrGraph> {
    let ir = lower_function(func)?;
    extract_from_ir(&ir, kind)
}

/// Extracts a graph from an already-lowered IR function.
///
/// # Errors
/// Returns [`Error::UnsupportedGraphKind`] when a DFG is requested for a
/// function containing control flow.
pub fn extract_from_ir(ir: &IrFunction, kind: GraphKind) -> Result<IrGraph> {
    match kind {
        GraphKind::Dfg => {
            if ir.has_control_flow() {
                return Err(Error::UnsupportedGraphKind(format!(
                    "function `{}` contains control flow; extract a CDFG instead",
                    ir.name
                )));
            }
            Ok(build_graph(ir, GraphKind::Dfg))
        }
        GraphKind::Cdfg => Ok(build_graph(ir, GraphKind::Cdfg)),
    }
}

fn node_kind_for(opcode: Opcode) -> NodeKind {
    match opcode {
        Opcode::ReadPort | Opcode::WritePort => NodeKind::Port,
        Opcode::Const | Opcode::Alloca => NodeKind::Misc,
        _ => NodeKind::Operation,
    }
}

fn build_graph(ir: &IrFunction, kind: GraphKind) -> IrGraph {
    let cdfg = kind == GraphKind::Cdfg;
    let mut nodes: Vec<IrNode> = Vec::new();
    let mut edges: Vec<IrEdge> = Vec::new();
    // Node of each op, indexed by op id; `None` for ops without a node.
    let mut op_to_node: Vec<Option<NodeId>> = vec![None; ir.op_count()];

    // Operation / port / misc nodes.
    for op in ir.iter_ops() {
        if !cdfg && op.is_control() {
            // Pure DFGs omit branch/return terminators.
            continue;
        }
        let node_kind = node_kind_for(op.opcode);
        let cluster = match node_kind {
            NodeKind::Port | NodeKind::Misc => -1,
            _ => op.block.index() as i32,
        };
        let id = NodeId(nodes.len());
        nodes.push(IrNode {
            id,
            kind: node_kind,
            opcode: Some(op.opcode),
            bitwidth: op.bits(),
            cluster,
            op: Some(op.id),
            array: op.array,
        });
        op_to_node[op.id.index()] = Some(id);
    }
    let node_of = |op: OpId| op_to_node.get(op.index()).copied().flatten();

    // Block nodes (CDFG only), indexed by block id.
    let mut block_nodes: Vec<NodeId> = Vec::new();
    if cdfg && ir.has_control_flow() {
        for block in &ir.blocks {
            let id = NodeId(nodes.len());
            nodes.push(IrNode {
                id,
                kind: NodeKind::Block,
                opcode: None,
                bitwidth: 0,
                cluster: block.id.index() as i32,
                op: None,
                array: None,
            });
            block_nodes.push(id);
        }
    }

    // Data edges from operand relationships; a back edge is a use of a value
    // defined later in program order (the phi latch operand).
    for op in ir.iter_ops() {
        let Some(dst) = node_of(op.id) else { continue };
        for &operand in &op.operands {
            let Some(src) = node_of(operand) else { continue };
            edges.push(IrEdge {
                src,
                dst,
                kind: EdgeKind::Data,
                is_back_edge: operand.index() > op.id.index(),
            });
        }
    }

    // Memory-ordering edges: store -> next accesses of the same array.
    let mut last_store: HashMap<VarId, OpId> = HashMap::new();
    for op in ir.iter_ops() {
        let Some(array) = op.array else { continue };
        match op.opcode {
            Opcode::Load => {
                if let Some(&store) = last_store.get(&array) {
                    if let (Some(src), Some(dst)) = (node_of(store), node_of(op.id)) {
                        edges.push(IrEdge {
                            src,
                            dst,
                            kind: EdgeKind::Memory,
                            is_back_edge: false,
                        });
                    }
                }
            }
            Opcode::Store => {
                if let Some(&store) = last_store.get(&array) {
                    if let (Some(src), Some(dst)) = (node_of(store), node_of(op.id)) {
                        edges.push(IrEdge {
                            src,
                            dst,
                            kind: EdgeKind::Memory,
                            is_back_edge: false,
                        });
                    }
                }
                last_store.insert(array, op.id);
            }
            _ => {}
        }
    }

    // Control edges (CDFG only): block node -> ops in the block, and block
    // terminator -> successor block node (back edge when jumping backwards).
    if cdfg && ir.has_control_flow() {
        for block in &ir.blocks {
            let block_node = block_nodes[block.id.index()];
            for &op in &block.ops {
                if let Some(node) = node_of(op) {
                    let node_kind = nodes[node.0].kind;
                    if node_kind == NodeKind::Operation {
                        edges.push(IrEdge {
                            src: block_node,
                            dst: node,
                            kind: EdgeKind::Control,
                            is_back_edge: false,
                        });
                    }
                }
            }
            // Terminator of the block, if any (the last branch/return op).
            let terminator = block
                .ops
                .iter()
                .rev()
                .find(|&&op| ir.op(op).is_control())
                .and_then(|&op| node_of(op));
            for &succ in &block.succs {
                let succ_node = block_nodes[succ.index()];
                let is_back_edge = succ.index() <= block.id.index();
                let src = terminator.unwrap_or(block_node);
                edges.push(IrEdge { src, dst: succ_node, kind: EdgeKind::Control, is_back_edge });
            }
        }
    }

    IrGraph { name: ir.name.clone(), kind, nodes, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinaryOp, Expr, FunctionBuilder, Stmt};
    use crate::types::{ArrayType, ScalarType};

    fn straightline_graph() -> IrGraph {
        let mut f = FunctionBuilder::new("mac");
        let a = f.param("a", ScalarType::i32());
        let b = f.param("b", ScalarType::i32());
        let c = f.param("c", ScalarType::i32());
        let out = f.local("out", ScalarType::signed(64));
        f.assign(
            out,
            Expr::binary(
                BinaryOp::Add,
                Expr::binary(BinaryOp::Mul, Expr::var(a), Expr::var(b)),
                Expr::var(c),
            ),
        );
        f.ret(out);
        extract_graph(&f.finish().unwrap(), GraphKind::Dfg).unwrap()
    }

    fn loopy_graph() -> IrGraph {
        let mut f = FunctionBuilder::new("dot");
        let x = f.array_param("x", ArrayType::new(ScalarType::i32(), 16));
        let acc = f.local("acc", ScalarType::signed(64));
        let i = f.local("i", ScalarType::i32());
        f.assign(acc, Expr::constant(0));
        f.push(Stmt::for_loop(
            i,
            0,
            16,
            1,
            vec![Stmt::assign(
                acc,
                Expr::binary(BinaryOp::Add, Expr::var(acc), Expr::index(x, Expr::var(i))),
            )],
        ));
        f.ret(acc);
        extract_graph(&f.finish().unwrap(), GraphKind::Cdfg).unwrap()
    }

    #[test]
    fn dfg_is_a_dag_without_back_edges() {
        let g = straightline_graph();
        assert!(g.check_integrity().is_ok());
        assert_eq!(g.kind, GraphKind::Dfg);
        assert_eq!(g.back_edge_count(), 0);
        assert!(g.is_dag_ignoring_back_edges());
        assert!(g.topological_order().is_some());
        assert!(g.longest_data_path() >= 2);
    }

    #[test]
    fn dfg_extraction_rejects_control_flow() {
        let mut f = FunctionBuilder::new("loopy");
        let i = f.local("i", ScalarType::i32());
        let acc = f.local("acc", ScalarType::i32());
        f.push(Stmt::for_loop(i, 0, 4, 1, vec![Stmt::assign(acc, Expr::var(i))]));
        f.ret(acc);
        let func = f.finish().unwrap();
        assert!(matches!(
            extract_graph(&func, GraphKind::Dfg),
            Err(Error::UnsupportedGraphKind(_))
        ));
        assert!(extract_graph(&func, GraphKind::Cdfg).is_ok());
    }

    #[test]
    fn cdfg_has_block_nodes_control_edges_and_back_edges() {
        let g = loopy_graph();
        assert!(g.check_integrity().is_ok());
        assert!(g.nodes().iter().any(|n| n.kind == NodeKind::Block));
        assert!(g.edges().iter().any(|e| e.kind == EdgeKind::Control));
        assert!(g.back_edge_count() > 0, "loop must create back edges");
        // Removing back edges must make it acyclic again.
        assert!(g.is_dag_ignoring_back_edges());
    }

    #[test]
    fn ports_and_constants_are_tagged() {
        let g = straightline_graph();
        assert!(g.nodes().iter().any(|n| n.kind == NodeKind::Port));
        let ports = g.nodes().iter().filter(|n| n.kind == NodeKind::Port).count();
        // 3 input ports + 1 output port.
        assert_eq!(ports, 4);
        assert!(g.nodes().iter().filter(|n| n.kind == NodeKind::Port).all(|n| n.cluster == -1));
    }

    #[test]
    fn node_of_op_round_trips() {
        let g = straightline_graph();
        for node in g.nodes() {
            if let Some(op) = node.op {
                assert_eq!(g.node_of_op(op), Some(node.id));
            }
        }
    }

    #[test]
    fn memory_edges_connect_store_to_load() {
        let mut f = FunctionBuilder::new("rmw");
        let buf = f.array_param("buf", ArrayType::new(ScalarType::i32(), 8));
        let x = f.local("x", ScalarType::i32());
        f.store(buf, Expr::constant(0), Expr::constant(42));
        f.assign(x, Expr::index(buf, Expr::constant(0)));
        f.ret(x);
        let g = extract_graph(&f.finish().unwrap(), GraphKind::Dfg).unwrap();
        assert!(g.edges().iter().any(|e| e.kind == EdgeKind::Memory));
    }

    #[test]
    fn degrees_match_edge_counts() {
        let g = loopy_graph();
        let total_in: usize = g.in_degrees(None).iter().sum();
        let total_out: usize = g.out_degrees(None).iter().sum();
        assert_eq!(total_in, g.edge_count());
        assert_eq!(total_out, g.edge_count());
    }
}
