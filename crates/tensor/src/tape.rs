//! Index-based arena tape for reverse-mode autodiff.
//!
//! One [`Tape`] lives in a thread-local slot. Every op appends a typed
//! [`Op`] record to a flat node arena and writes its forward value into a
//! shared `f32` buffer; gradients live in a second flat buffer with the same
//! offsets. A [`crate::Var`] node handle is just `(generation, index, shape)`
//! — no per-op heap allocation, no reference counting, no boxed backward
//! closures, and dropping a deep chain of handles is trivially O(1) per
//! handle, so the old iterative-teardown `Drop` workaround is gone.
//!
//! Parameters (and constants, which behave like non-trainable parameters)
//! are *not* tape nodes: they live in [`ParamCell`]s owned by their `Var`
//! handles, so they survive [`reset`] and free when the model drops. Their
//! accumulated gradients also live in the cell, which is what lets gradients
//! accumulate across multiple backward passes.
//!
//! # Lifecycle
//!
//! [`reset`] ends a step: it bumps the tape generation and clears the arenas
//! **retaining their capacity**, so a whole training epoch performs O(1) tape
//! allocations instead of O(ops). Node handles from before the reset are
//! stale; using one panics with "stale Var handle". Forgetting a reset is a
//! bounded memory leak within the thread, never unsoundness.
//!
//! # Backward
//!
//! Records are appended in topological order (an op's operands are always
//! earlier records), so one downward sweep over record indices replays every
//! consumer before its operands. [`Tape::backward`] stamps the root and walks
//! down from it, replaying only stamped records and stopping once none is
//! left. An operand's first write in a pass stamps it and zeroes its
//! gradient region; later writes accumulate (`+=`) straight into it. Nothing
//! zero-fills the whole gradient buffer: [`reset`] bumps the stamp instead of
//! clearing gradients, so a node's gradient is readable only for the latest
//! backward pass that reached it.
//!
//! # Determinism
//!
//! A node with several consumers receives their contributions in descending
//! record order, each op adding its operands' terms in operand order. All
//! state is thread-local, so results are bit-identical at any worker count.

use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;
use std::time::Instant;

use crate::matrix::{kernels, Matrix};
use crate::profile::{self, OpKind};

/// A parameter (or constant) leaf: value and accumulated gradient live here,
/// outside the tape, so they survive [`reset`].
pub(crate) struct ParamCell {
    pub(crate) id: u64,
    pub(crate) trainable: bool,
    pub(crate) value: RefCell<Matrix>,
    pub(crate) grad: RefCell<Option<Matrix>>,
    /// `(generation, index into Tape::params)` — caches the registration of
    /// this cell on the current tape so repeated uses don't rescan.
    slot: Cell<(u64, u32)>,
}

impl ParamCell {
    pub(crate) fn new(id: u64, trainable: bool, value: Matrix) -> Self {
        ParamCell {
            id,
            trainable,
            value: RefCell::new(value),
            grad: RefCell::new(None),
            slot: Cell::new((0, 0)),
        }
    }
}

/// An operand: an earlier tape node or a registered parameter cell.
#[derive(Clone, Copy)]
pub(crate) enum Src {
    Node(u32),
    Param(u32),
}

/// A `(start, len)` window into one of the tape's side arenas
/// (`srcs`, `idx` or `aux`).
#[derive(Clone, Copy)]
pub(crate) struct Range32 {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl Range32 {
    fn bounds(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Typed op record. The backward replay adds an op's contributions to its
/// operands in operand order.
#[derive(Clone, Copy)]
pub(crate) enum Op {
    Add(Src, Src),
    Sub(Src, Src),
    Mul(Src, Src),
    DivEps(Src, Src, f32),
    Scale(Src, f32),
    AddScalar(Src, f32),
    MulScalarVar(Src, Src),
    MulColBroadcast(Src, Src),
    Matmul(Src, Src),
    AddRowBroadcast(Src, Src),
    LeakyRelu(Src, f32),
    Sigmoid(Src),
    Tanh(Src),
    Exp(Src),
    LogEps(Src, f32),
    SqrtEps(Src, f32),
    /// Mask (already scaled by `1/keep`) stored in `aux`.
    Dropout(Src, Range32),
    Sum(Src),
    SumAxis0(Src),
    ConcatCols(Range32),
    ConcatRows(Range32),
    GatherRows(Src, Range32),
    ScatterAddRows(Src, Range32),
    ScatterAddOnto(Src, Src, Range32),
    SegmentSum(Src, Range32),
    /// `segments` are ids in `idx`; `winners` is a `num_segments × cols`
    /// argmax table in `idx` filled during forward (`u32::MAX` = empty).
    SegmentExtremum {
        input: Src,
        segments: Range32,
        winners: Range32,
        is_max: bool,
    },
    /// Per-row constant factors stored in `aux` (no gradient w.r.t. them).
    ScaleRows(Src, Range32),
    /// Target stored in `aux`.
    Mse(Src, Range32),
    /// Target stored in `aux`.
    BceWithLogits(Src, Range32),
}

impl Op {
    /// Profile aggregation key ([`crate::profile`]) for this record.
    fn kind(&self) -> OpKind {
        match self {
            Op::Add(..) => OpKind::Add,
            Op::Sub(..) => OpKind::Sub,
            Op::Mul(..) => OpKind::Mul,
            Op::DivEps(..) => OpKind::DivEps,
            Op::Scale(..) => OpKind::Scale,
            Op::AddScalar(..) => OpKind::AddScalar,
            Op::MulScalarVar(..) => OpKind::MulScalarVar,
            Op::MulColBroadcast(..) => OpKind::MulColBroadcast,
            Op::Matmul(..) => OpKind::Matmul,
            Op::AddRowBroadcast(..) => OpKind::AddRowBroadcast,
            Op::LeakyRelu(..) => OpKind::LeakyRelu,
            Op::Sigmoid(..) => OpKind::Sigmoid,
            Op::Tanh(..) => OpKind::Tanh,
            Op::Exp(..) => OpKind::Exp,
            Op::LogEps(..) => OpKind::LogEps,
            Op::SqrtEps(..) => OpKind::SqrtEps,
            Op::Dropout(..) => OpKind::Dropout,
            Op::Sum(..) => OpKind::Sum,
            Op::SumAxis0(..) => OpKind::SumAxis0,
            Op::ConcatCols(..) => OpKind::ConcatCols,
            Op::ConcatRows(..) => OpKind::ConcatRows,
            Op::GatherRows(..) => OpKind::GatherRows,
            Op::ScatterAddRows(..) => OpKind::ScatterAddRows,
            Op::ScatterAddOnto(..) => OpKind::ScatterAddOnto,
            Op::SegmentSum(..) => OpKind::SegmentSum,
            Op::SegmentExtremum { .. } => OpKind::SegmentExtremum,
            Op::ScaleRows(..) => OpKind::ScaleRows,
            Op::Mse(..) => OpKind::Mse,
            Op::BceWithLogits(..) => OpKind::BceWithLogits,
        }
    }
}

#[derive(Clone, Copy)]
struct NodeRec {
    rows: u32,
    cols: u32,
    /// Offset of this node's value (and gradient) in the flat buffers.
    off: usize,
    op: Op,
}

impl NodeRec {
    fn len(&self) -> usize {
        self.rows as usize * self.cols as usize
    }
}

/// Size and reuse statistics of the thread's tape (see [`stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeStats {
    /// Ops recorded since the last reset.
    pub ops: usize,
    /// `f32`s of forward values recorded since the last reset.
    pub value_floats: usize,
    /// Capacity of the value buffer — stable across steady-state resets,
    /// which is what makes a training epoch O(1) allocations.
    pub value_capacity: usize,
}

/// The arena tape. One per thread, reachable via [`with`].
pub(crate) struct Tape {
    generation: u64,
    nodes: Vec<NodeRec>,
    vals: Vec<f32>,
    grads: Vec<f32>,
    srcs: Vec<Src>,
    idx: Vec<u32>,
    aux: Vec<f32>,
    params: Vec<Rc<ParamCell>>,
    /// Transposed right operand for the matmul adjoint.
    scratch: Vec<f32>,
    /// Per-record stamp: a node's gradient region belongs to the current
    /// backward pass exactly when its stamp equals `stamp`.
    stamps: Vec<u32>,
    stamp: u32,
}

thread_local! {
    static TAPE: RefCell<Tape> = RefCell::new(Tape::new());
}

/// Runs `f` with the thread's tape. Do not call [`Var`](crate::Var) methods
/// from inside `f` — they re-borrow the tape.
pub(crate) fn with<R>(f: impl FnOnce(&mut Tape) -> R) -> R {
    TAPE.with(|tape| f(&mut tape.borrow_mut()))
}

/// Ends the current step: bumps the tape generation and the gradient stamp,
/// and clears the node, value and side arenas **retaining capacity**.
/// Parameters keep their values and accumulated gradients; node handles
/// recorded before the reset become stale and panic on use.
pub fn reset() {
    with(Tape::reset_in_place);
}

/// Size/reuse statistics of the thread's tape.
pub fn stats() -> TapeStats {
    with(|tape| TapeStats {
        ops: tape.nodes.len(),
        value_floats: tape.vals.len(),
        value_capacity: tape.vals.capacity(),
    })
}

/// A resolved operand value: a slice of the value buffer for node operands,
/// or a borrow of the cell for parameter operands.
enum SrcVal<'a> {
    Slice(&'a [f32]),
    Guard(Ref<'a, Matrix>),
}

impl SrcVal<'_> {
    fn as_slice(&self) -> &[f32] {
        match self {
            SrcVal::Slice(slice) => slice,
            SrcVal::Guard(guard) => guard.data(),
        }
    }
}

fn src_val<'a>(
    vals: &'a [f32],
    nodes: &[NodeRec],
    params: &'a [Rc<ParamCell>],
    src: Src,
) -> SrcVal<'a> {
    match src {
        Src::Node(i) => {
            let rec = &nodes[i as usize];
            SrcVal::Slice(&vals[rec.off..rec.off + rec.len()])
        }
        Src::Param(p) => SrcVal::Guard(params[p as usize].value.borrow()),
    }
}

fn src_dims(nodes: &[NodeRec], params: &[Rc<ParamCell>], src: Src) -> (usize, usize) {
    match src {
        Src::Node(i) => (nodes[i as usize].rows as usize, nodes[i as usize].cols as usize),
        Src::Param(p) => params[p as usize].value.borrow().shape(),
    }
}

/// The operand gradient regions one replayed record writes into.
struct GradDst<'a> {
    /// The gradient buffer below the replayed record's own region.
    grads: &'a mut [f32],
    stamps: &'a mut [u32],
    stamp: u32,
    nodes: &'a [NodeRec],
    params: &'a [Rc<ParamCell>],
    /// Node operands this replay stamped for the first time in the pass.
    reached: usize,
}

impl GradDst<'_> {
    /// Runs `f` on the gradient region of `src`, which `f` accumulates
    /// into. A node's region is zeroed and stamped on its first write of the
    /// pass; a parameter's gradient matrix is created zeroed on first touch
    /// and otherwise accumulates across passes.
    fn with(&mut self, src: Src, f: impl FnOnce(&mut [f32])) {
        match src {
            Src::Node(i) => {
                let rec = &self.nodes[i as usize];
                let region = &mut self.grads[rec.off..rec.off + rec.len()];
                let stamp = &mut self.stamps[i as usize];
                if *stamp != self.stamp {
                    *stamp = self.stamp;
                    region.fill(0.0);
                    self.reached += 1;
                }
                f(region);
            }
            Src::Param(p) => {
                let cell = &self.params[p as usize];
                let mut guard = cell.grad.borrow_mut();
                if guard.is_none() {
                    let (rows, cols) = cell.value.borrow().shape();
                    *guard = Some(Matrix::zeros(rows, cols));
                }
                f(guard.as_mut().expect("just ensured").data_mut());
            }
        }
    }
}

impl Tape {
    fn new() -> Self {
        Tape {
            generation: 1,
            nodes: Vec::new(),
            vals: Vec::new(),
            grads: Vec::new(),
            srcs: Vec::new(),
            idx: Vec::new(),
            aux: Vec::new(),
            params: Vec::new(),
            scratch: Vec::new(),
            stamps: Vec::new(),
            stamp: 0,
        }
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    fn reset_in_place(&mut self) {
        self.generation += 1;
        self.bump_stamp();
        self.nodes.clear();
        self.vals.clear();
        self.srcs.clear();
        self.idx.clear();
        self.aux.clear();
        self.params.clear();
    }

    /// Registers a parameter cell on this tape (idempotent per generation).
    pub(crate) fn param_src(&mut self, cell: &Rc<ParamCell>) -> Src {
        let (slot_generation, slot_index) = cell.slot.get();
        if slot_generation == self.generation {
            return Src::Param(slot_index);
        }
        let index = u32::try_from(self.params.len()).expect("tape parameter limit exceeded");
        self.params.push(Rc::clone(cell));
        cell.slot.set((self.generation, index));
        Src::Param(index)
    }

    /// Copies operand handles into the `srcs` arena (for concat ops).
    pub(crate) fn push_srcs(&mut self, list: &[Src]) -> Range32 {
        let start = u32::try_from(self.srcs.len()).expect("tape source arena limit exceeded");
        self.srcs.extend_from_slice(list);
        Range32 { start, len: list.len() as u32 }
    }

    /// Copies row/segment indices into the `idx` arena.
    pub(crate) fn push_idx(&mut self, ids: &[usize]) -> Range32 {
        let start = u32::try_from(self.idx.len()).expect("tape index arena limit exceeded");
        self.idx
            .extend(ids.iter().map(|&i| u32::try_from(i).expect("row index exceeds u32 range")));
        Range32 { start, len: ids.len() as u32 }
    }

    /// Reserves a `len`-slot winner table in the `idx` arena, initialised to
    /// the `u32::MAX` "empty" sentinel (filled by the extremum forward pass).
    pub(crate) fn push_winner_slots(&mut self, len: usize) -> Range32 {
        let start = u32::try_from(self.idx.len()).expect("tape index arena limit exceeded");
        self.idx.resize(self.idx.len() + len, u32::MAX);
        Range32 { start, len: len as u32 }
    }

    /// Copies auxiliary floats (dropout masks, row factors, loss targets)
    /// into the `aux` arena.
    pub(crate) fn push_aux(&mut self, values: &[f32]) -> Range32 {
        let start = u32::try_from(self.aux.len()).expect("tape aux arena limit exceeded");
        self.aux.extend_from_slice(values);
        Range32 { start, len: values.len() as u32 }
    }

    /// Values of node `index` as a fresh [`Matrix`].
    pub(crate) fn node_matrix(&self, index: u32) -> Matrix {
        let rec = &self.nodes[index as usize];
        Matrix::from_vec(
            rec.rows as usize,
            rec.cols as usize,
            self.vals[rec.off..rec.off + rec.len()].to_vec(),
        )
    }

    /// Gradient of node `index` as a fresh [`Matrix`], if the latest backward
    /// pass reached the node.
    pub(crate) fn node_grad_matrix(&self, index: u32) -> Option<Matrix> {
        if self.stamps.get(index as usize) != Some(&self.stamp) {
            return None;
        }
        let rec = &self.nodes[index as usize];
        Some(Matrix::from_vec(
            rec.rows as usize,
            rec.cols as usize,
            self.grads[rec.off..rec.off + rec.len()].to_vec(),
        ))
    }

    /// Overwrites the value region of node `index` (same shape required).
    pub(crate) fn set_node_value(&mut self, index: u32, value: &Matrix) {
        let rec = self.nodes[index as usize];
        assert_eq!(
            value.shape(),
            (rec.rows as usize, rec.cols as usize),
            "set_value must preserve the shape of a tape node"
        );
        self.vals[rec.off..rec.off + rec.len()].copy_from_slice(value.data());
    }

    /// Appends a node, computes its forward value, returns its index. When
    /// the per-op profiler is on the forward computation is timed and its
    /// analytic cost credited to the op's kind; the disabled path pays one
    /// relaxed atomic load.
    pub(crate) fn record(&mut self, rows: usize, cols: usize, op: Op) -> u32 {
        if profile::enabled() {
            // The timer covers the arena bookkeeping too, so tape overhead
            // is attributed to the op that caused it rather than dropped.
            let start = Instant::now();
            let index = self.record_inner(rows, cols, op);
            let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let (flops, bytes) = self.op_cost(index as usize, false);
            profile::record_forward(op.kind(), elapsed_ns, flops, bytes);
            index
        } else {
            self.record_inner(rows, cols, op)
        }
    }

    fn record_inner(&mut self, rows: usize, cols: usize, op: Op) -> u32 {
        let index = u32::try_from(self.nodes.len()).expect("tape node limit exceeded");
        let off = self.vals.len();
        self.vals.resize(off + rows * cols, 0.0);
        self.nodes.push(NodeRec { rows: rows as u32, cols: cols as u32, off, op });
        self.forward_node(index as usize);
        index
    }

    /// Analytic cost of node `index`: floating-point operations and bytes
    /// moved, derived purely from the op record's shapes (never from values).
    /// The backward replay is modelled as 2× forward — exact for matmul
    /// (`dA = g·Bᵀ` + `dB = Aᵀ·g` is two products against the forward's one)
    /// and the linear elementwise ops, a serviceable bound for the rest.
    fn op_cost(&self, index: usize, backward: bool) -> (u64, u64) {
        const F: u64 = std::mem::size_of::<f32>() as u64;
        let rec = &self.nodes[index];
        let out = rec.len() as u64;
        let src_numel = |s: Src| {
            let (rows, cols) = src_dims(&self.nodes, &self.params, s);
            (rows * cols) as u64
        };
        let (flops, bytes) = match rec.op {
            // Elementwise with two array operands (dropout's mask counts).
            Op::Add(..) | Op::Sub(..) | Op::Mul(..) | Op::Dropout(..) => (out, 3 * out * F),
            Op::DivEps(..) => (2 * out, 3 * out * F),
            // Elementwise against a scalar constant or 1×1 operand.
            Op::Scale(..) | Op::AddScalar(..) | Op::LeakyRelu(..) | Op::MulScalarVar(..) => {
                (out, 2 * out * F)
            }
            Op::MulColBroadcast(..) => (out, 2 * out * F + u64::from(rec.rows) * F),
            Op::AddRowBroadcast(..) => (out, 2 * out * F + u64::from(rec.cols) * F),
            Op::Matmul(a, _) => {
                let (m, k) = src_dims(&self.nodes, &self.params, a);
                let (m, k, n) = (m as u64, k as u64, u64::from(rec.cols));
                (2 * m * k * n, (m * k + k * n + m * n) * F)
            }
            // Transcendental elementwise: a handful of flops per element.
            Op::Sigmoid(..) | Op::Tanh(..) => (4 * out, 2 * out * F),
            Op::Exp(..) | Op::LogEps(..) | Op::SqrtEps(..) => (2 * out, 2 * out * F),
            Op::Sum(a) | Op::SumAxis0(a) => {
                let m = src_numel(a);
                (m, (m + out) * F)
            }
            // Pure data movement.
            Op::ConcatCols(..) | Op::ConcatRows(..) => (0, 2 * out * F),
            Op::GatherRows(_, ids) => (0, 2 * out * F + u64::from(ids.len) * F),
            Op::ScatterAddRows(a, ids) => {
                let m = src_numel(a);
                (m, (2 * m + out) * F + u64::from(ids.len) * F)
            }
            Op::ScatterAddOnto(_, b, ids) => {
                let m = src_numel(b);
                (m, (2 * out + 2 * m) * F + u64::from(ids.len) * F)
            }
            Op::SegmentSum(a, ids) => {
                let m = src_numel(a);
                (m, (m + out) * F + u64::from(ids.len) * F)
            }
            Op::SegmentExtremum { input, segments, winners, .. } => {
                let m = src_numel(input);
                (m, (m + out) * F + u64::from(segments.len + winners.len) * F)
            }
            Op::ScaleRows(_, factors) => (out, 2 * out * F + u64::from(factors.len) * F),
            Op::Mse(a, target) => {
                let m = src_numel(a);
                (3 * m, (m + u64::from(target.len) + out) * F)
            }
            Op::BceWithLogits(a, target) => {
                let m = src_numel(a);
                (8 * m, (m + u64::from(target.len) + out) * F)
            }
        };
        if backward {
            (2 * flops, 2 * bytes)
        } else {
            (flops, bytes)
        }
    }

    /// Computes the forward value of node `index` into its (zeroed) region.
    fn forward_node(&mut self, index: usize) {
        let Tape { nodes, vals, srcs, idx, aux, params, .. } = self;
        let rec = nodes[index];
        let cols = rec.cols as usize;
        let (head, tail) = vals.split_at_mut(rec.off);
        let head: &[f32] = head;
        let out = &mut tail[..rec.len()];
        let sv = |s: Src| src_val(head, nodes, params, s);
        match rec.op {
            Op::Add(a, b) => binary(out, &sv(a), &sv(b), |x, y| x + y),
            Op::Sub(a, b) => binary(out, &sv(a), &sv(b), |x, y| x - y),
            Op::Mul(a, b) => binary(out, &sv(a), &sv(b), |x, y| x * y),
            Op::DivEps(a, b, eps) => binary(out, &sv(a), &sv(b), |x, y| x / (y + eps)),
            Op::Scale(a, factor) => unary(out, &sv(a), |x| x * factor),
            Op::AddScalar(a, constant) => unary(out, &sv(a), |x| x + constant),
            Op::MulScalarVar(a, b) => {
                let s = sv(b).as_slice()[0];
                unary(out, &sv(a), |x| x * s);
            }
            Op::MulColBroadcast(a, b) => {
                let av = sv(a);
                let col = sv(b);
                for ((orow, arow), &factor) in out
                    .chunks_exact_mut(cols.max(1))
                    .zip(av.as_slice().chunks_exact(cols.max(1)))
                    .zip(col.as_slice())
                {
                    for (o, &x) in orow.iter_mut().zip(arow) {
                        *o = x * factor;
                    }
                }
            }
            Op::Matmul(a, b) => {
                let (m, k) = src_dims(nodes, params, a);
                let av = sv(a);
                let bv = sv(b);
                kernels::matmul(out, av.as_slice(), bv.as_slice(), m, k, cols);
            }
            Op::AddRowBroadcast(a, b) => {
                let av = sv(a);
                let bias = sv(b);
                let bias = bias.as_slice();
                for (orow, arow) in
                    out.chunks_exact_mut(cols.max(1)).zip(av.as_slice().chunks_exact(cols.max(1)))
                {
                    for ((o, &x), &bv) in orow.iter_mut().zip(arow).zip(bias) {
                        *o = x + bv;
                    }
                }
            }
            Op::LeakyRelu(a, slope) => unary(out, &sv(a), |x| if x > 0.0 { x } else { slope * x }),
            Op::Sigmoid(a) => unary(out, &sv(a), |x| 1.0 / (1.0 + (-x).exp())),
            Op::Tanh(a) => unary(out, &sv(a), f32::tanh),
            Op::Exp(a) => unary(out, &sv(a), |x| x.min(30.0).exp()),
            Op::LogEps(a, eps) => unary(out, &sv(a), |x| (x + eps).ln()),
            Op::SqrtEps(a, eps) => unary(out, &sv(a), |x| (x.max(0.0) + eps).sqrt()),
            Op::Dropout(a, mask) => {
                let av = sv(a);
                for ((o, &x), &m) in out.iter_mut().zip(av.as_slice()).zip(&aux[mask.bounds()]) {
                    *o = x * m;
                }
            }
            Op::Sum(a) => out[0] = sv(a).as_slice().iter().sum(),
            Op::SumAxis0(a) => {
                let av = sv(a);
                for arow in av.as_slice().chunks_exact(cols.max(1)) {
                    for (o, &x) in out.iter_mut().zip(arow) {
                        *o += x;
                    }
                }
            }
            Op::ConcatCols(range) => {
                let mut col_off = 0;
                for &part in &srcs[range.bounds()] {
                    let (_, part_cols) = src_dims(nodes, params, part);
                    let pv = sv(part);
                    for (orow, prow) in out
                        .chunks_exact_mut(cols.max(1))
                        .zip(pv.as_slice().chunks_exact(part_cols.max(1)))
                    {
                        orow[col_off..col_off + part_cols].copy_from_slice(prow);
                    }
                    col_off += part_cols;
                }
            }
            Op::ConcatRows(range) => {
                let mut write = 0;
                for &part in &srcs[range.bounds()] {
                    let pv = sv(part);
                    let slice = pv.as_slice();
                    out[write..write + slice.len()].copy_from_slice(slice);
                    write += slice.len();
                }
            }
            Op::GatherRows(a, ids) => {
                let av = sv(a);
                let source = av.as_slice();
                for (orow, &id) in out.chunks_exact_mut(cols.max(1)).zip(&idx[ids.bounds()]) {
                    let start = id as usize * cols;
                    orow.copy_from_slice(&source[start..start + cols]);
                }
            }
            Op::ScatterAddRows(a, ids) | Op::SegmentSum(a, ids) => {
                let av = sv(a);
                for (arow, &id) in av.as_slice().chunks_exact(cols.max(1)).zip(&idx[ids.bounds()]) {
                    let start = id as usize * cols;
                    for (o, &x) in out[start..start + cols].iter_mut().zip(arow) {
                        *o += x;
                    }
                }
            }
            Op::ScatterAddOnto(base, rows, ids) => {
                let basev = sv(base);
                out.copy_from_slice(basev.as_slice());
                drop(basev);
                let rv = sv(rows);
                for (arow, &id) in rv.as_slice().chunks_exact(cols.max(1)).zip(&idx[ids.bounds()]) {
                    let start = id as usize * cols;
                    for (o, &x) in out[start..start + cols].iter_mut().zip(arow) {
                        *o += x;
                    }
                }
            }
            Op::SegmentExtremum { input, segments, winners, is_max } => {
                let av = sv(input);
                let source = av.as_slice();
                // Segments and winners are disjoint windows of the same
                // arena; winners start strictly after segments.
                let (seg_head, win_tail) = idx.split_at_mut(winners.start as usize);
                let seg = &seg_head[segments.bounds()];
                let win = &mut win_tail[..winners.len as usize];
                for (row, &segment) in seg.iter().enumerate() {
                    let segment = segment as usize;
                    for c in 0..cols {
                        let candidate = source[row * cols + c];
                        let slot = &mut win[segment * cols + c];
                        let better = if *slot == u32::MAX {
                            true
                        } else {
                            let current = source[*slot as usize * cols + c];
                            if is_max {
                                candidate > current
                            } else {
                                candidate < current
                            }
                        };
                        if better {
                            *slot = row as u32;
                            out[segment * cols + c] = candidate;
                        }
                    }
                }
            }
            Op::ScaleRows(a, factors) => {
                let av = sv(a);
                for ((orow, arow), &factor) in out
                    .chunks_exact_mut(cols.max(1))
                    .zip(av.as_slice().chunks_exact(cols.max(1)))
                    .zip(&aux[factors.bounds()])
                {
                    for (o, &x) in orow.iter_mut().zip(arow) {
                        *o = x * factor;
                    }
                }
            }
            Op::Mse(a, target) => {
                let av = sv(a);
                let count = (target.len as usize).max(1) as f32;
                let mut total = 0.0f32;
                for (&x, &t) in av.as_slice().iter().zip(&aux[target.bounds()]) {
                    let diff = x - t;
                    total += diff * diff;
                }
                out[0] = total / count;
            }
            Op::BceWithLogits(a, target) => {
                let av = sv(a);
                let count = (target.len as usize).max(1) as f32;
                let mut total = 0.0f32;
                for (&x, &t) in av.as_slice().iter().zip(&aux[target.bounds()]) {
                    total += x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
                }
                out[0] = total / count;
            }
        }
    }

    /// Invalidates every node gradient: no node's stamp matches the new one.
    fn bump_stamp(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.stamps.fill(0);
            self.stamp = 1;
        }
    }

    /// Reverse-mode differentiation from scalar node `root`: one downward
    /// sweep over record indices that replays the records the root reaches
    /// (see the module doc). Node gradients are per-backward temporaries;
    /// parameter gradients accumulate across calls in their cells.
    pub(crate) fn backward(&mut self, root: u32) {
        let setup_timer = profile::phase_timer(profile::Phase::BackwardSetup);
        self.bump_stamp();
        if self.grads.len() < self.vals.len() {
            self.grads.resize(self.vals.len(), 0.0);
        }
        if self.stamps.len() < self.nodes.len() {
            self.stamps.resize(self.nodes.len(), 0);
        }
        self.grads[self.nodes[root as usize].off] = 1.0;
        self.stamps[root as usize] = self.stamp;
        drop(setup_timer);
        // Profiled replay chains the clock reads (the end of one op is the
        // start of the next), so profiling costs one read per replayed op.
        let mut clock = profile::enabled().then(Instant::now);
        // Stamped records not yet replayed.
        let mut pending = 1;
        for node in (0..=root).rev() {
            if self.stamps[node as usize] != self.stamp {
                continue;
            }
            pending = pending + self.backprop_node(node) - 1;
            if let Some(mark) = clock.as_mut() {
                let now = Instant::now();
                let elapsed_ns =
                    u64::try_from(now.duration_since(*mark).as_nanos()).unwrap_or(u64::MAX);
                *mark = now;
                let (flops, bytes) = self.op_cost(node as usize, true);
                profile::record_backward(
                    self.nodes[node as usize].op.kind(),
                    elapsed_ns,
                    flops,
                    bytes,
                );
            }
            if pending == 0 {
                break;
            }
        }
    }

    /// Propagates node `n`'s gradient to its operands, in operand order.
    /// Returns how many node operands it reached first in this pass.
    fn backprop_node(&mut self, n: u32) -> usize {
        let Tape { nodes, vals, grads, srcs, idx, aux, params, scratch, stamps, stamp, .. } = self;
        let rec = nodes[n as usize];
        let cols = rec.cols as usize;
        let values: &[f32] = vals;
        let (grads_head, grads_tail) = grads.split_at_mut(rec.off);
        let g: &[f32] = &grads_tail[..rec.len()];
        let own = &values[rec.off..rec.off + rec.len()];
        let sv = |s: Src| src_val(values, nodes, params, s);
        let mut dst =
            GradDst { grads: grads_head, stamps, stamp: *stamp, nodes, params, reached: 0 };
        match rec.op {
            Op::Add(a, b) => {
                dst.with(a, |d| axpy(d, g, 1.0));
                dst.with(b, |d| axpy(d, g, 1.0));
            }
            Op::Sub(a, b) => {
                dst.with(a, |d| axpy(d, g, 1.0));
                dst.with(b, |d| axpy(d, g, -1.0));
            }
            Op::Mul(a, b) => {
                let (av, bv) = (sv(a), sv(b));
                dst.with(a, |d| mul_add(d, g, bv.as_slice()));
                dst.with(b, |d| mul_add(d, g, av.as_slice()));
            }
            Op::DivEps(a, b, eps) => {
                let (av, bv) = (sv(a), sv(b));
                dst.with(a, |d| {
                    for ((slot, &gv), &y) in d.iter_mut().zip(g).zip(bv.as_slice()) {
                        *slot += gv / (y + eps);
                    }
                });
                dst.with(b, |d| {
                    for (((slot, &gv), &x), &y) in
                        d.iter_mut().zip(g).zip(av.as_slice()).zip(bv.as_slice())
                    {
                        let gx = gv * x;
                        let denom = y + eps;
                        *slot += -gx / (denom * denom);
                    }
                });
            }
            Op::Scale(a, factor) => dst.with(a, |d| axpy(d, g, factor)),
            Op::AddScalar(a, _) => dst.with(a, |d| axpy(d, g, 1.0)),
            Op::MulScalarVar(a, b) => {
                let av = sv(a);
                let s = sv(b).as_slice()[0];
                dst.with(a, |d| axpy(d, g, s));
                let ds: f32 = g.iter().zip(av.as_slice()).map(|(&gv, &x)| gv * x).sum();
                dst.with(b, |d| d[0] += ds);
            }
            Op::MulColBroadcast(a, b) => {
                let av = sv(a);
                let col = sv(b);
                dst.with(a, |d| {
                    for ((drow, grow), &factor) in d
                        .chunks_exact_mut(cols.max(1))
                        .zip(g.chunks_exact(cols.max(1)))
                        .zip(col.as_slice())
                    {
                        for (slot, &gv) in drow.iter_mut().zip(grow) {
                            *slot += gv * factor;
                        }
                    }
                });
                dst.with(b, |d| {
                    for ((slot, grow), arow) in d
                        .iter_mut()
                        .zip(g.chunks_exact(cols.max(1)))
                        .zip(av.as_slice().chunks_exact(cols.max(1)))
                    {
                        let mut acc = 0.0f32;
                        for (&gv, &x) in grow.iter().zip(arow) {
                            acc += gv * x;
                        }
                        *slot += acc;
                    }
                });
            }
            Op::Matmul(a, b) => {
                let (m, k) = src_dims(nodes, params, a);
                let n = cols;
                let (av, bv) = (sv(a), sv(b));
                // d_a += g × bᵀ (bᵀ goes through scratch inside the kernel).
                dst.with(a, |d| kernels::matmul_transpose_b(d, g, bv.as_slice(), m, n, k, scratch));
                // d_b += aᵀ × g.
                dst.with(b, |d| kernels::matmul_transpose_a(d, av.as_slice(), g, m, k, n));
            }
            Op::AddRowBroadcast(a, b) => {
                dst.with(a, |d| axpy(d, g, 1.0));
                dst.with(b, |d| {
                    for (c, slot) in d.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        for grow in g.chunks_exact(cols.max(1)) {
                            acc += grow[c];
                        }
                        *slot += acc;
                    }
                });
            }
            Op::LeakyRelu(a, slope) => {
                let av = sv(a);
                dst.with(a, |d| {
                    for ((slot, &gv), &x) in d.iter_mut().zip(g).zip(av.as_slice()) {
                        *slot += if x > 0.0 { gv } else { slope * gv };
                    }
                });
            }
            Op::Sigmoid(a) => dst.with(a, |d| {
                for ((slot, &gv), &y) in d.iter_mut().zip(g).zip(own) {
                    *slot += gv * y * (1.0 - y);
                }
            }),
            Op::Tanh(a) => dst.with(a, |d| {
                for ((slot, &gv), &y) in d.iter_mut().zip(g).zip(own) {
                    *slot += gv * (1.0 - y * y);
                }
            }),
            Op::Exp(a) => dst.with(a, |d| mul_add(d, g, own)),
            Op::LogEps(a, eps) => {
                let av = sv(a);
                dst.with(a, |d| {
                    for ((slot, &gv), &x) in d.iter_mut().zip(g).zip(av.as_slice()) {
                        *slot += gv / (x + eps);
                    }
                });
            }
            Op::SqrtEps(a, _) => dst.with(a, |d| {
                for ((slot, &gv), &y) in d.iter_mut().zip(g).zip(own) {
                    *slot += gv * 0.5 / y;
                }
            }),
            Op::Dropout(a, mask) => {
                dst.with(a, |d| mul_add(d, g, &aux[mask.bounds()]));
            }
            Op::Sum(a) => {
                let seed = g[0];
                dst.with(a, |d| {
                    for slot in d.iter_mut() {
                        *slot += seed;
                    }
                });
            }
            Op::SumAxis0(a) => dst.with(a, |d| {
                for drow in d.chunks_exact_mut(cols.max(1)) {
                    for (slot, &gv) in drow.iter_mut().zip(g) {
                        *slot += gv;
                    }
                }
            }),
            Op::ConcatCols(range) => {
                let mut col_off = 0;
                for &part in &srcs[range.bounds()] {
                    let (_, part_cols) = src_dims(nodes, params, part);
                    dst.with(part, |d| {
                        for (drow, grow) in
                            d.chunks_exact_mut(part_cols.max(1)).zip(g.chunks_exact(cols.max(1)))
                        {
                            for (slot, &gv) in
                                drow.iter_mut().zip(&grow[col_off..col_off + part_cols])
                            {
                                *slot += gv;
                            }
                        }
                    });
                    col_off += part_cols;
                }
            }
            Op::ConcatRows(range) => {
                let mut read = 0;
                for &part in &srcs[range.bounds()] {
                    dst.with(part, |d| {
                        axpy(d, &g[read..read + d.len()], 1.0);
                        read += d.len();
                    });
                }
            }
            Op::GatherRows(a, ids) => dst.with(a, |d| {
                for (grow, &id) in g.chunks_exact(cols.max(1)).zip(&idx[ids.bounds()]) {
                    let start = id as usize * cols;
                    for (slot, &gv) in d[start..start + cols].iter_mut().zip(grow) {
                        *slot += gv;
                    }
                }
            }),
            Op::ScatterAddRows(a, ids) | Op::SegmentSum(a, ids) => {
                dst.with(a, |d| {
                    for (drow, &id) in d.chunks_exact_mut(cols.max(1)).zip(&idx[ids.bounds()]) {
                        let start = id as usize * cols;
                        for (slot, &gv) in drow.iter_mut().zip(&g[start..start + cols]) {
                            *slot += gv;
                        }
                    }
                });
            }
            Op::ScatterAddOnto(base, rows, ids) => {
                dst.with(base, |d| axpy(d, g, 1.0));
                dst.with(rows, |d| {
                    for (drow, &id) in d.chunks_exact_mut(cols.max(1)).zip(&idx[ids.bounds()]) {
                        let start = id as usize * cols;
                        for (slot, &gv) in drow.iter_mut().zip(&g[start..start + cols]) {
                            *slot += gv;
                        }
                    }
                });
            }
            Op::SegmentExtremum { input, winners, .. } => {
                dst.with(input, |d| {
                    for (grow, winrow) in g
                        .chunks_exact(cols.max(1))
                        .zip(idx[winners.bounds()].chunks_exact(cols.max(1)))
                    {
                        for (c, (&gv, &winner)) in grow.iter().zip(winrow).enumerate() {
                            if winner != u32::MAX {
                                d[winner as usize * cols + c] += gv;
                            }
                        }
                    }
                });
            }
            Op::ScaleRows(a, factors) => dst.with(a, |d| {
                for ((drow, grow), &factor) in d
                    .chunks_exact_mut(cols.max(1))
                    .zip(g.chunks_exact(cols.max(1)))
                    .zip(&aux[factors.bounds()])
                {
                    for (slot, &gv) in drow.iter_mut().zip(grow) {
                        *slot += gv * factor;
                    }
                }
            }),
            Op::Mse(a, target) => {
                let av = sv(a);
                let count = (target.len as usize).max(1) as f32;
                let factor = 2.0 * g[0] / count;
                dst.with(a, |d| {
                    for ((slot, &x), &t) in
                        d.iter_mut().zip(av.as_slice()).zip(&aux[target.bounds()])
                    {
                        *slot += (x - t) * factor;
                    }
                });
            }
            Op::BceWithLogits(a, target) => {
                let av = sv(a);
                let count = (target.len as usize).max(1) as f32;
                let seed = g[0];
                dst.with(a, |d| {
                    for ((slot, &x), &t) in
                        d.iter_mut().zip(av.as_slice()).zip(&aux[target.bounds()])
                    {
                        let sigma = 1.0 / (1.0 + (-x).exp());
                        *slot += seed * (sigma - t) / count;
                    }
                });
            }
        }
        dst.reached
    }
}

/// `out[i] = f(a[i], b[i])` over the whole region.
fn binary(out: &mut [f32], a: &SrcVal<'_>, b: &SrcVal<'_>, f: impl Fn(f32, f32) -> f32) {
    for ((o, &x), &y) in out.iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        *o = f(x, y);
    }
}

/// `out[i] = f(a[i])` over the whole region.
fn unary(out: &mut [f32], a: &SrcVal<'_>, f: impl Fn(f32) -> f32) {
    for (o, &x) in out.iter_mut().zip(a.as_slice()) {
        *o = f(x);
    }
}

/// `dst[i] += src[i] * factor`.
fn axpy(dst: &mut [f32], src: &[f32], factor: f32) {
    for (slot, &x) in dst.iter_mut().zip(src) {
        *slot += x * factor;
    }
}

/// `dst[i] += a[i] * b[i]`.
fn mul_add(dst: &mut [f32], a: &[f32], b: &[f32]) {
    for ((slot, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *slot += x * y;
    }
}
