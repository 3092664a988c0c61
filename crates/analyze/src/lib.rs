//! `hls_gnn_analyze` — static analysis over the HLS IR.
//!
//! Three layers, each usable on its own:
//!
//! - the **verifier** (re-exported from [`hls_ir::verify`]): exhaustive
//!   structural invariants over [`hls_ir::ir::IrFunction`] — SSA dominance,
//!   per-opcode operand shape, terminator discipline, phi placement — with
//!   typed [`Diagnostic`]s locating every violation;
//! - the **dataflow framework** ([`dataflow`]): a generic forward/backward
//!   worklist solver over the CFG, plus the canonical clients — dominator
//!   tree, def-use chains, live variables and natural-loop-nest detection;
//! - the **bound analyses** ([`bounds`]): analytic *lower* bounds on the
//!   quantities the simulator measures — critical-path cycles from device
//!   operator latencies, recurrence-constrained minimum II from the longest
//!   latency path from each loop-header phi to its latched value, and the
//!   access count of the most contended single-ported array per loop. Every
//!   bound is guaranteed to be `<=` the corresponding `hls_sim` ground
//!   truth. The analytic-feature ablation reads them as GNN features and
//!   `hls-gnn-lint --verbose` prints them.

pub mod bounds;
pub mod dataflow;

pub use bounds::{analyze_bounds, BoundsReport, LoopBounds};
pub use dataflow::{
    solve, DataflowAnalysis, DataflowSolution, DefUseChains, Direction, DominatorTree,
    LiveVariables, LoopInfo, LoopNest,
};
pub use hls_ir::verify::{self, Diagnostic, DiagnosticKind};

/// Verifies a function and maps failures onto the IR error type, so analysis
/// entry points compose with the rest of the pipeline's `Result` plumbing.
///
/// # Errors
/// Returns [`hls_ir::Error::Verification`] carrying every diagnostic when the
/// function is structurally invalid.
pub fn verified(ir: &hls_ir::ir::IrFunction) -> hls_ir::Result<()> {
    verify::verify_function(ir).map_err(hls_ir::Error::Verification)
}
