//! Analytic lower bounds on scheduled QoR, derived without running the flow.
//!
//! Every bound here is *sound* with respect to the `hls_sim` list scheduler:
//!
//! - [`BoundsReport::min_total_cycles`] never exceeds the scheduled
//!   `total_cycles` (and hence the HLS report's `latency_cycles`). Blocks
//!   execute as successive FSM super-states, so each block contributes at
//!   least one cycle plus the longest latency-weighted def-use chain inside
//!   it.
//! - [`LoopBounds::min_recurrence_ii`] never exceeds the pipelining
//!   analysis's recurrence-constrained II: it is the longest latency path
//!   from a loop-header phi to its latched value, and that loop-carried
//!   dependence cycle must traverse its operator latencies once per
//!   iteration.
//! - [`LoopBounds::port_pressure_ii`] never exceeds the resource-constrained
//!   II: a single-ported memory serves one access per cycle, so the most
//!   contended array bounds the iteration rate.
//!
//! Soundness is what makes the bounds usable as machine-learning features:
//! they are monotone correlates of the labels, never optimistic noise
//! ceilings. The analytic-feature ablation reads them that way, and
//! `hls-gnn-lint --verbose` prints them per function.

use std::collections::HashMap;

use hls_ir::ast::VarId;
use hls_ir::ir::{BlockId, IrFunction, OpId};
use hls_ir::opcode::Opcode;
use hls_ir::types::ValueType;
use hls_sim::device::FpgaDevice;
use hls_sim::library::characterize;

use crate::dataflow::LoopNest;

/// Analytic bounds for one natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopBounds {
    /// Header block of the loop.
    pub header: BlockId,
    /// Lower bound on the recurrence-constrained II, from the longest
    /// latency-weighted loop-carried dependence cycle (at least 1).
    pub min_recurrence_ii: u32,
    /// Lower bound on the resource-constrained II, from accesses to the most
    /// contended array per iteration (at least 1).
    pub port_pressure_ii: u32,
    /// Per-array access counts inside the loop body, ascending by variable.
    pub pressure_per_array: Vec<(VarId, u32)>,
}

impl LoopBounds {
    /// Lower bound on the achievable II: both constraints must hold.
    pub fn min_ii(&self) -> u32 {
        self.min_recurrence_ii.max(self.port_pressure_ii)
    }
}

/// Function-level analytic bounds plus the per-operation features derived
/// from them.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsReport {
    /// Lower bound on the scheduled `total_cycles`.
    pub min_total_cycles: u64,
    /// Per-loop II bounds, in header order.
    pub loops: Vec<LoopBounds>,
    /// Per-operation latency-weighted depth of the longest def-use chain
    /// ending at the operation within its block (indexed by [`OpId`]).
    pub op_depth: Vec<u32>,
    /// Per-operation flag: the operation sits on a loop-carried dependence
    /// cycle (indexed by [`OpId`]).
    pub on_recurrence: Vec<bool>,
    /// Per-operation memory-port pressure: for loads/stores inside a loop,
    /// the access count of their array in the innermost enclosing loop;
    /// 0 elsewhere (indexed by [`OpId`]).
    pub op_port_pressure: Vec<u32>,
}

impl BoundsReport {
    /// Lower bound on the achievable II of the innermost hottest loop
    /// (1 when the function has no loops).
    pub fn max_loop_min_ii(&self) -> u32 {
        self.loops.iter().map(LoopBounds::min_ii).max().unwrap_or(1)
    }

    /// The three analytic node features for one operation, in the order
    /// `[depth, on_recurrence, port_pressure]`.
    pub fn node_features(&self, op: OpId) -> [f32; 3] {
        let index = op.index();
        [
            self.op_depth.get(index).copied().unwrap_or(0) as f32,
            if self.on_recurrence.get(index).copied().unwrap_or(false) { 1.0 } else { 0.0 },
            self.op_port_pressure.get(index).copied().unwrap_or(0) as f32,
        ]
    }
}

fn declared_type(decls: &[(VarId, ValueType)], array: Option<VarId>) -> Option<ValueType> {
    let target = array?;
    decls.iter().find(|(var, _)| *var == target).map(|(_, ty)| *ty)
}

/// Computes the analytic bounds for a structurally valid function.
///
/// The analysis assumes the IR passes [`hls_ir::verify::verify_function`];
/// run the verifier first on untrusted input (the lint driver and the
/// simulator flow both do).
pub fn analyze_bounds(
    ir: &IrFunction,
    decls: &[(VarId, ValueType)],
    device: &FpgaDevice,
) -> BoundsReport {
    let op_count = ir.op_count();

    // Operator latencies from the device characterisation library — the same
    // table the scheduler uses, so the bounds and the ground truth cannot
    // drift apart.
    let latency: Vec<u32> = ir
        .iter_ops()
        .map(|op| characterize(op, declared_type(decls, op.array), device).latency)
        .collect();

    // Linear scheduling positions: blocks in id order, ops in block order —
    // exactly the order the list scheduler visits them. Def-use edges that go
    // forward in this order are guaranteed to constrain the schedule.
    // `linear` is the inverse map, the op at each position.
    let mut position = vec![usize::MAX; op_count];
    let mut linear: Vec<OpId> = Vec::with_capacity(op_count);
    for block in &ir.blocks {
        for &op_id in &block.ops {
            position[op_id.index()] = linear.len();
            linear.push(op_id);
        }
    }

    // Per-block latency-weighted chain depth, and its per-op form.
    let mut op_depth = vec![0u32; op_count];
    let mut min_total_cycles = 0u64;
    for block in &ir.blocks {
        let mut block_max = 0u32;
        for &op_id in &block.ops {
            let op = ir.op(op_id);
            let mut depth = 0u32;
            for operand in &op.operands {
                let same_block = ir.op(*operand).block == block.id;
                if same_block && position[operand.index()] < position[op_id.index()] {
                    depth = depth.max(op_depth[operand.index()]);
                }
            }
            depth += latency[op_id.index()];
            op_depth[op_id.index()] = depth;
            block_max = block_max.max(depth);
        }
        // Every block occupies at least one FSM state, plus one state per
        // cycle of registered latency along its longest chain.
        min_total_cycles += 1 + u64::from(block_max);
    }

    let nest = LoopNest::build(ir);
    let mut on_recurrence = vec![false; op_count];
    let mut loops = Vec::with_capacity(nest.loops.len());
    let mut op_port_pressure = vec![0u32; op_count];
    // Scratch for the recurrence walks, indexed by position minus the start
    // of the current window and reused across phis.
    let mut dist: Vec<Option<u32>> = Vec::new();
    let mut reaches: Vec<bool> = Vec::new();

    for info in &nest.loops {
        // --- Recurrence bound -------------------------------------------
        // For each header phi whose latched operand is defined inside the
        // loop, take the longest latency path phi -> ... -> latched along
        // forward def-use edges; the schedule must spend that many cycles
        // between consuming and re-producing the value each iteration.
        let mut min_recurrence_ii = 1u32;
        for &op_id in &ir.block(info.header).ops {
            let phi = ir.op(op_id);
            if phi.opcode != Opcode::Phi || phi.operands.len() < 2 {
                continue;
            }
            let latched = phi.operands[1];
            if !info.contains(ir.op(latched).block) {
                continue;
            }
            // Every op on a position-increasing path from the phi to the
            // latched value lies in the window `start..=end`; a latched value
            // placed before the phi closes no such path.
            let (start, end) = (position[op_id.index()], position[latched.index()]);
            if end < start || end == usize::MAX {
                continue;
            }
            let window = &linear[start..=end];

            // Longest latency-weighted distance from the phi, following only
            // position-increasing edges (those are the ones the scheduler has
            // already resolved when it reaches the user).
            dist.clear();
            dist.resize(window.len(), None);
            dist[0] = Some(0);
            for (offset, user) in window.iter().enumerate().skip(1) {
                let mut best: Option<u32> = None;
                for operand in &ir.op(*user).operands {
                    let at = position[operand.index()];
                    if (start..start + offset).contains(&at) {
                        if let Some(d) = dist[at - start] {
                            best = Some(best.unwrap_or(0).max(d));
                        }
                    }
                }
                if let Some(b) = best {
                    dist[offset] = Some(b + latency[user.index()]);
                }
            }

            let Some(chain) = dist[window.len() - 1] else { continue };
            min_recurrence_ii = min_recurrence_ii.max(chain.max(1));
            // Mark the cycle: ops that the phi reaches and that reach the
            // latched value (backwards over the same forward edges). Only ops
            // the phi reaches are ever marked, so a marked op is on the cycle.
            reaches.clear();
            reaches.resize(window.len(), false);
            reaches[window.len() - 1] = true;
            for (offset, user) in window.iter().enumerate().rev() {
                if !reaches[offset] {
                    continue;
                }
                on_recurrence[user.index()] = true;
                for operand in &ir.op(*user).operands {
                    let at = position[operand.index()];
                    if (start..start + offset).contains(&at) && dist[at - start].is_some() {
                        reaches[at - start] = true;
                    }
                }
            }
        }

        // --- Port-pressure bound ----------------------------------------
        // Count accesses over the contiguous `header..=latch` block range —
        // the scheduler's per-iteration window. The natural-loop body can be
        // a *superset* of that window: the front end places an outer loop's
        // latch (the increment block) at a lower index than its nested
        // loops, so the inner loops' memory traffic belongs to the inner
        // windows only. Counting the natural body would overshoot the
        // scheduler's own per-iteration measure and break the lower-bound
        // guarantee.
        let latch = info
            .latches
            .iter()
            .map(|b| b.index())
            .filter(|&index| index >= info.header.index())
            .max()
            .unwrap_or(info.header.index());
        let mut per_array: HashMap<VarId, u32> = HashMap::new();
        for index in info.header.index()..=latch {
            for &op_id in &ir.blocks[index].ops {
                let op = ir.op(op_id);
                if matches!(op.opcode, Opcode::Load | Opcode::Store) {
                    if let Some(array) = op.array {
                        *per_array.entry(array).or_insert(0) += 1;
                    }
                }
            }
        }
        let port_pressure_ii = per_array.values().copied().max().unwrap_or(1).max(1);
        let mut pressure_per_array: Vec<(VarId, u32)> = per_array.into_iter().collect();
        pressure_per_array.sort();

        loops.push(LoopBounds {
            header: info.header,
            min_recurrence_ii,
            port_pressure_ii,
            pressure_per_array,
        });
    }

    // Per-op pressure feature from the innermost enclosing loop.
    for op in ir.iter_ops() {
        if !matches!(op.opcode, Opcode::Load | Opcode::Store) {
            continue;
        }
        let Some(array) = op.array else { continue };
        let Some(inner) = nest.innermost(op.block) else { continue };
        if let Some(bound) = loops.iter().find(|l| l.header == inner.header) {
            if let Some((_, count)) = bound.pressure_per_array.iter().find(|(var, _)| *var == array)
            {
                op_port_pressure[op.id.index()] = *count;
            }
        }
    }

    BoundsReport { min_total_cycles, loops, op_depth, on_recurrence, op_port_pressure }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::ast::{BinaryOp, Expr, Function, FunctionBuilder, Stmt};
    use hls_ir::lower::lower_function;
    use hls_ir::types::{ArrayType, BitWidth, ScalarType, Signedness};
    use hls_progen::{ProgramFamily, ProgramGenerator, SyntheticConfig};
    use hls_sim::flow::run_flow;
    use hls_sim::pipeline::analyze_loops;

    fn decls(func: &Function) -> Vec<(VarId, ValueType)> {
        func.vars().map(|(id, d)| (id, d.ty)).collect()
    }

    /// The recurrence pass as it ran before the window walk: for every header
    /// phi it sorts all of the function's ops and walks the whole function.
    /// Returns each loop's `min_recurrence_ii`, in header order, and the
    /// `on_recurrence` flags.
    fn reference_recurrence(
        ir: &IrFunction,
        decls: &[(VarId, ValueType)],
        device: &FpgaDevice,
    ) -> (Vec<u32>, Vec<bool>) {
        let op_count = ir.op_count();
        let latency: Vec<u32> = ir
            .iter_ops()
            .map(|op| characterize(op, declared_type(decls, op.array), device).latency)
            .collect();
        let mut position = vec![usize::MAX; op_count];
        let mut cursor = 0usize;
        for block in &ir.blocks {
            for &op_id in &block.ops {
                position[op_id.index()] = cursor;
                cursor += 1;
            }
        }

        let nest = LoopNest::build(ir);
        let mut on_recurrence = vec![false; op_count];
        let mut min_recurrence_iis = Vec::with_capacity(nest.loops.len());
        for info in &nest.loops {
            let mut min_recurrence_ii = 1u32;
            for &op_id in &ir.block(info.header).ops {
                let phi = ir.op(op_id);
                if phi.opcode != Opcode::Phi || phi.operands.len() < 2 {
                    continue;
                }
                let latched = phi.operands[1];
                if !info.contains(ir.op(latched).block) {
                    continue;
                }

                let mut dist: Vec<Option<u32>> = vec![None; op_count];
                dist[op_id.index()] = Some(0);
                let mut order: Vec<OpId> = ir
                    .iter_ops()
                    .filter(|op| position[op.id.index()] != usize::MAX)
                    .map(|op| op.id)
                    .collect();
                order.sort_by_key(|id| position[id.index()]);
                for user in &order {
                    if position[user.index()] <= position[op_id.index()] {
                        continue;
                    }
                    let mut best: Option<u32> = None;
                    for operand in &ir.op(*user).operands {
                        if position[operand.index()] < position[user.index()] {
                            if let Some(d) = dist[operand.index()] {
                                best = Some(best.unwrap_or(0).max(d));
                            }
                        }
                    }
                    if let Some(b) = best {
                        dist[user.index()] = Some(b + latency[user.index()]);
                    }
                }

                if let Some(chain) = dist[latched.index()] {
                    min_recurrence_ii = min_recurrence_ii.max(chain.max(1));
                    let mut reaches = vec![false; op_count];
                    reaches[latched.index()] = true;
                    for user in order.iter().rev() {
                        if !reaches[user.index()] {
                            continue;
                        }
                        for operand in &ir.op(*user).operands {
                            if position[operand.index()] < position[user.index()]
                                && dist[operand.index()].is_some()
                            {
                                reaches[operand.index()] = true;
                            }
                        }
                    }
                    for op in ir.iter_ops() {
                        if reaches[op.id.index()] && dist[op.id.index()].is_some() {
                            on_recurrence[op.id.index()] = true;
                        }
                    }
                }
            }
            min_recurrence_iis.push(min_recurrence_ii);
        }
        (min_recurrence_iis, on_recurrence)
    }

    /// [`analyze_bounds`] with its recurrence results taken from
    /// [`reference_recurrence`] instead.
    fn reference_bounds(
        ir: &IrFunction,
        decls: &[(VarId, ValueType)],
        device: &FpgaDevice,
    ) -> BoundsReport {
        let mut report = analyze_bounds(ir, decls, device);
        let (min_recurrence_iis, on_recurrence) = reference_recurrence(ir, decls, device);
        assert_eq!(min_recurrence_iis.len(), report.loops.len());
        for (bound, ii) in report.loops.iter_mut().zip(min_recurrence_iis) {
            bound.min_recurrence_ii = ii;
        }
        report.on_recurrence = on_recurrence;
        report
    }

    /// Which of the window walk's edge cases `ir` exercises: a loop with
    /// several latches, a recurrence window that holds a whole inner loop,
    /// and a latched value placed before its phi.
    fn edge_cases(ir: &IrFunction) -> [bool; 3] {
        let mut position = vec![usize::MAX; ir.op_count()];
        for (at, &op_id) in ir.blocks.iter().flat_map(|block| &block.ops).enumerate() {
            position[op_id.index()] = at;
        }
        let nest = LoopNest::build(ir);
        let mut cases = [false; 3];
        for info in &nest.loops {
            cases[0] |= info.latches.len() > 1;
            for &op_id in &ir.block(info.header).ops {
                let phi = ir.op(op_id);
                if phi.opcode != Opcode::Phi || phi.operands.len() < 2 {
                    continue;
                }
                let latched = phi.operands[1];
                if !info.contains(ir.op(latched).block) {
                    continue;
                }
                let window = position[op_id.index()]..=position[latched.index()];
                cases[1] |= nest.loops.iter().any(|inner| {
                    inner.parent == Some(info.header)
                        && inner
                            .blocks
                            .iter()
                            .flat_map(|block| &ir.block(*block).ops)
                            .all(|op| window.contains(&position[op.index()]))
                });
                cases[2] |= window.is_empty();
            }
        }
        cases
    }

    /// A loop with two back edges, which the structured front end never
    /// emits: each iteration steps `i` by 1 and squares `acc`, or steps `i`
    /// by 2 and adds `i` to `acc`.
    fn two_latch_loop() -> IrFunction {
        let (word, flag) = (BitWidth::new(32), BitWidth::new(1));
        let (signed, unsigned) = (Signedness::Signed, Signedness::Unsigned);
        let mut ir = IrFunction::new("two_latch");
        let entry = BlockId::new(0);
        let header = ir.new_block(1);
        ir.block_mut(header).is_loop_header = true;
        let split = ir.new_block(1);
        let near = ir.new_block(1);
        let far = ir.new_block(1);
        let exit = ir.new_block(0);

        let mut constant =
            |value| ir.push_op(entry, Opcode::Const, word, signed, vec![], None, Some(value));
        let (zero, one, two, end) = (constant(0), constant(1), constant(2), constant(16));
        ir.push_op(entry, Opcode::Br, flag, unsigned, vec![], None, None);
        ir.add_cfg_edge(entry, header);

        let i = ir.push_op(header, Opcode::Phi, word, signed, vec![zero], None, None);
        let acc = ir.push_op(header, Opcode::Phi, word, signed, vec![zero], None, None);
        let more = ir.push_op(header, Opcode::ICmp, flag, unsigned, vec![i, end], None, None);
        ir.push_op(header, Opcode::Br, flag, unsigned, vec![more], None, None);
        ir.add_cfg_edge(header, split);
        ir.add_cfg_edge(header, exit);

        let short = ir.push_op(split, Opcode::ICmp, flag, unsigned, vec![i, two], None, None);
        ir.push_op(split, Opcode::Br, flag, unsigned, vec![short], None, None);
        ir.add_cfg_edge(split, near);
        ir.add_cfg_edge(split, far);

        let near_i = ir.push_op(near, Opcode::Add, word, signed, vec![i, one], None, None);
        let near_acc = ir.push_op(near, Opcode::Mul, word, signed, vec![acc, acc], None, None);
        ir.push_op(near, Opcode::Br, flag, unsigned, vec![], None, None);
        ir.add_cfg_edge(near, header);

        let far_i = ir.push_op(far, Opcode::Add, word, signed, vec![i, two], None, None);
        let far_acc = ir.push_op(far, Opcode::Add, word, signed, vec![acc, i], None, None);
        ir.push_op(far, Opcode::Br, flag, unsigned, vec![], None, None);
        ir.add_cfg_edge(far, header);

        ir.op_mut(i).operands.extend([near_i, far_i]);
        ir.op_mut(acc).operands.extend([near_acc, far_acc]);
        ir.push_op(exit, Opcode::Ret, flag, unsigned, vec![], None, None);
        ir
    }

    #[test]
    fn window_walk_matches_the_whole_function_reference() {
        let device = FpgaDevice::default();
        let mut functions: Vec<Function> =
            hls_progen::all_kernels().into_iter().map(|kernel| kernel.function).collect();
        functions.extend(ProgramGenerator::new(SyntheticConfig::control(), 19).generate_many(64));
        functions
            .extend(ProgramGenerator::new(SyntheticConfig::straight_line(), 19).generate_many(32));
        for seed in 0..8 {
            for family in [ProgramFamily::StraightLine, ProgramFamily::Control] {
                let config = SyntheticConfig::tiny(family);
                functions.extend(ProgramGenerator::new(config, seed).generate_many(4));
            }
        }
        let mut corpus: Vec<(IrFunction, Vec<(VarId, ValueType)>)> = functions
            .iter()
            .map(|func| (lower_function(func).expect("lowers"), decls(func)))
            .collect();
        let two_latch = two_latch_loop();
        assert_eq!(hls_ir::verify::verify(&two_latch), vec![]);
        corpus.push((two_latch, Vec::new()));

        let mut covered = [false; 3];
        for (ir, decls) in &corpus {
            assert_eq!(
                analyze_bounds(ir, decls, &device),
                reference_bounds(ir, decls, &device),
                "{}",
                ir.name
            );
            for (seen, case) in covered.iter_mut().zip(edge_cases(ir)) {
                *seen |= case;
            }
        }
        assert_eq!(covered, [true; 3], "[two latches, window holds an inner loop, latched first]");
    }

    fn reduction() -> Function {
        let mut f = FunctionBuilder::new("reduction");
        let x = f.array_param("x", ArrayType::new(ScalarType::i32(), 16));
        let acc = f.local("acc", ScalarType::signed(64));
        let i = f.local("i", ScalarType::i32());
        f.push(Stmt::for_loop(
            i,
            0,
            16,
            1,
            vec![Stmt::assign(
                acc,
                Expr::binary(
                    BinaryOp::Add,
                    Expr::var(acc),
                    Expr::binary(
                        BinaryOp::Mul,
                        Expr::index(x, Expr::var(i)),
                        Expr::index(x, Expr::var(i)),
                    ),
                ),
            )],
        ));
        f.ret(acc);
        f.finish().unwrap()
    }

    fn check_sound(func: &Function) {
        let device = FpgaDevice::default();
        let flow = run_flow(func, &device).unwrap();
        let report = analyze_bounds(&flow.ir, &decls(func), &device);
        assert!(
            report.min_total_cycles <= u64::from(flow.schedule.total_cycles),
            "cycle bound {} exceeds scheduled {}",
            report.min_total_cycles,
            flow.schedule.total_cycles
        );
        let pipeline = analyze_loops(&flow.ir, &flow.schedule, &device);
        for bound in &report.loops {
            let measured = pipeline
                .iter()
                .find(|info| info.header == bound.header)
                .expect("loop present in pipeline analysis");
            assert!(
                bound.min_recurrence_ii <= measured.recurrence_ii,
                "recurrence bound {} exceeds measured {}",
                bound.min_recurrence_ii,
                measured.recurrence_ii
            );
            assert!(
                bound.port_pressure_ii <= measured.resource_ii,
                "pressure bound {} exceeds measured {}",
                bound.port_pressure_ii,
                measured.resource_ii
            );
            assert!(bound.min_ii() <= measured.achieved_ii);
        }
    }

    #[test]
    fn bounds_are_sound_for_a_reduction_loop() {
        check_sound(&reduction());
    }

    #[test]
    fn reduction_loop_detects_port_pressure_and_recurrence() {
        let func = reduction();
        let device = FpgaDevice::default();
        let ir = lower_function(&func).unwrap();
        let report = analyze_bounds(&ir, &decls(&func), &device);
        assert_eq!(report.loops.len(), 1);
        // Two reads of `x` per iteration.
        assert_eq!(report.loops[0].port_pressure_ii, 2);
        assert!(report.on_recurrence.iter().any(|flag| *flag), "accumulator cycle marked");
        assert!(report.min_total_cycles >= ir.block_count() as u64);
    }

    #[test]
    fn straight_line_bound_counts_registered_latencies() {
        let mut f = FunctionBuilder::new("divchain");
        let a = f.param("a", ScalarType::i32());
        let b = f.param("b", ScalarType::i32());
        let out = f.local("out", ScalarType::i32());
        f.assign(out, Expr::binary(BinaryOp::Div, Expr::var(a), Expr::var(b)));
        f.ret(out);
        let func = f.finish().unwrap();
        let device = FpgaDevice::default();
        let ir = lower_function(&func).unwrap();
        let report = analyze_bounds(&ir, &decls(&func), &device);
        // A 32-bit divider has multi-cycle latency; the bound must see it.
        assert!(report.min_total_cycles > ir.block_count() as u64);
        assert!(report.loops.is_empty());
        check_sound(&func);
    }

    #[test]
    fn node_features_are_exposed_per_op() {
        let func = reduction();
        let device = FpgaDevice::default();
        let ir = lower_function(&func).unwrap();
        let report = analyze_bounds(&ir, &decls(&func), &device);
        let load = ir.iter_ops().find(|op| op.opcode == Opcode::Load).unwrap();
        let features = report.node_features(load.id);
        assert!(features[2] >= 2.0, "load feature carries the array pressure");
        assert_eq!(report.op_depth.len(), ir.op_count());
    }
}
