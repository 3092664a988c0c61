//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Var`] is a cheap handle into the thread-local arena tape
//! ([`crate::tape`]). Operations on `Var`s append typed op records to the
//! tape and write forward values into a flat reusable buffer; calling
//! [`Var::backward`] on a scalar output propagates gradients to every
//! reachable node. Trainable leaves (created with [`Var::parameter`]) live
//! outside the tape in reference-counted cells, so they survive
//! [`crate::tape::reset`] and keep their accumulated gradients for the
//! optimiser.
//!
//! The operation set is tailored to message-passing GNNs: dense linear
//! algebra, element-wise activations, row gather/scatter (the edge
//! message-passing primitives), segment aggregations, pooling reductions and
//! the two loss functions used by the prediction tasks.
//!
//! # Handle semantics
//!
//! A node handle is `(generation, index, shape)` — `Clone` is a bitwise copy
//! (parameter handles bump a reference count). Handles from before a
//! [`crate::tape::reset`] are stale and panic on use. Node gradients are
//! per-backward temporaries: [`Var::grad`] on a node answers only for the
//! latest backward pass, and only if that pass reached the node. Parameter
//! gradients accumulate across backward passes until [`Var::zero_grad`].

use std::cell::Cell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::Rng;

use crate::matrix::Matrix;
use crate::tape::{self, Op, ParamCell, Src, Tape};

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
}

fn next_id() -> u64 {
    NEXT_ID.with(|cell| {
        let id = cell.get();
        cell.set(id + 1);
        id
    })
}

#[derive(Clone)]
enum Repr {
    /// A leaf living outside the tape (parameter or constant).
    Param(Rc<ParamCell>),
    /// An op result on the tape of generation `generation`.
    Node { generation: u64, index: u32, rows: u32, cols: u32 },
}

/// A handle to a node of the autodiff tape (or a parameter cell).
#[derive(Clone)]
pub struct Var(Repr);

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.id())
            .field("shape", &self.shape())
            .field("trainable", &self.is_trainable())
            .finish()
    }
}

impl Var {
    fn leaf(value: Matrix, trainable: bool) -> Var {
        Var(Repr::Param(Rc::new(ParamCell::new(next_id(), trainable, value))))
    }

    fn node(tape: &Tape, index: u32, rows: usize, cols: usize) -> Var {
        Var(Repr::Node {
            generation: tape.generation(),
            index,
            rows: rows as u32,
            cols: cols as u32,
        })
    }

    /// The operand handle of this `Var` on the given tape.
    ///
    /// # Panics
    /// Panics if this is a node handle from before a tape reset.
    fn src(&self, tape: &mut Tape) -> Src {
        match &self.0 {
            Repr::Param(cell) => tape.param_src(cell),
            Repr::Node { generation, index, .. } => {
                assert_eq!(
                    *generation,
                    tape.generation(),
                    "stale Var handle: the tape was reset since this node was recorded"
                );
                Src::Node(*index)
            }
        }
    }

    /// Resolves a node handle's index, asserting it is not stale.
    fn node_index(&self, tape: &Tape) -> u32 {
        match &self.0 {
            Repr::Param(_) => unreachable!("node_index on a leaf"),
            Repr::Node { generation, index, .. } => {
                assert_eq!(
                    *generation,
                    tape.generation(),
                    "stale Var handle: the tape was reset since this node was recorded"
                );
                *index
            }
        }
    }

    /// Creates a constant (non-trainable) leaf.
    pub fn new(value: Matrix) -> Var {
        Var::leaf(value, false)
    }

    /// Creates a trainable leaf (a model parameter).
    pub fn parameter(value: Matrix) -> Var {
        Var::leaf(value, true)
    }

    /// Creates a `1×1` constant.
    pub fn scalar(value: f32) -> Var {
        Var::new(Matrix::from_vec(1, 1, vec![value]))
    }

    /// Unique id of this node (leaves get a stable id; tape nodes derive one
    /// from their generation and index).
    pub fn id(&self) -> u64 {
        match &self.0 {
            Repr::Param(cell) => cell.id,
            Repr::Node { generation, index, .. } => (generation << 32) | u64::from(*index),
        }
    }

    /// True if this is a trainable parameter leaf.
    pub fn is_trainable(&self) -> bool {
        match &self.0 {
            Repr::Param(cell) => cell.trainable,
            Repr::Node { .. } => false,
        }
    }

    /// A clone of the current value.
    pub fn value(&self) -> Matrix {
        match &self.0 {
            Repr::Param(cell) => cell.value.borrow().clone(),
            Repr::Node { .. } => tape::with(|t| t.node_matrix(self.node_index(t))),
        }
    }

    /// Runs a closure with a borrowed view of the value. For leaves this
    /// avoids any copy; for tape nodes the flat value region is materialised
    /// into a temporary matrix first.
    pub fn with_value<R>(&self, f: impl FnOnce(&Matrix) -> R) -> R {
        match &self.0 {
            Repr::Param(cell) => f(&cell.value.borrow()),
            Repr::Node { .. } => f(&self.value()),
        }
    }

    /// Shape of the value.
    pub fn shape(&self) -> (usize, usize) {
        match &self.0 {
            Repr::Param(cell) => cell.value.borrow().shape(),
            Repr::Node { rows, cols, .. } => (*rows as usize, *cols as usize),
        }
    }

    /// Number of rows of the value.
    pub fn rows(&self) -> usize {
        self.shape().0
    }

    /// Number of columns of the value.
    pub fn cols(&self) -> usize {
        self.shape().1
    }

    /// The scalar value of a `1×1` node.
    ///
    /// # Panics
    /// Panics if the node is not `1×1`.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar_value on a non-scalar node");
        self.with_value(|value| value.get(0, 0))
    }

    /// Replaces the stored value (used by optimisers on parameter leaves).
    /// On a tape node the shape must be preserved.
    pub fn set_value(&self, value: Matrix) {
        match &self.0 {
            Repr::Param(cell) => *cell.value.borrow_mut() = value,
            Repr::Node { .. } => {
                tape::with(|t| t.set_node_value(self.node_index(t), &value));
            }
        }
    }

    /// A clone of the gradient, if any: a parameter's accumulated gradient,
    /// or a node's gradient from the latest backward pass if it reached the
    /// node.
    pub fn grad(&self) -> Option<Matrix> {
        match &self.0 {
            Repr::Param(cell) => cell.grad.borrow().clone(),
            Repr::Node { generation, index, .. } => tape::with(|t| {
                if *generation != t.generation() {
                    return None;
                }
                t.node_grad_matrix(*index)
            }),
        }
    }

    /// The cell of a parameter or constant leaf.
    ///
    /// # Panics
    /// Panics on a tape node, naming `method`.
    fn leaf_cell(&self, method: &str) -> &ParamCell {
        match &self.0 {
            Repr::Param(cell) => cell,
            Repr::Node { .. } => panic!(
                "{method} on a tape node: node gradients belong to one backward pass; \
                 only parameter gradients accumulate"
            ),
        }
    }

    /// Clears the accumulated gradient of a parameter.
    ///
    /// # Panics
    /// Panics on a tape node.
    pub fn zero_grad(&self) {
        *self.leaf_cell("zero_grad").grad.borrow_mut() = None;
    }

    /// Adds `delta` into the accumulated gradient of a parameter.
    ///
    /// # Panics
    /// Panics on a tape node.
    pub fn accumulate_grad(&self, delta: &Matrix) {
        let mut slot = self.leaf_cell("accumulate_grad").grad.borrow_mut();
        match slot.as_mut() {
            Some(grad) => grad.add_assign(delta),
            None => *slot = Some(delta.clone()),
        }
    }

    /// Runs reverse-mode differentiation from this scalar node.
    ///
    /// # Panics
    /// Panics if the node is not `1×1`.
    pub fn backward(&self) {
        assert_eq!(self.shape(), (1, 1), "backward must start from a scalar loss");
        match &self.0 {
            // A bare leaf is its own (trivial) graph: seed its gradient.
            Repr::Param(_) => self.accumulate_grad(&Matrix::from_vec(1, 1, vec![1.0])),
            Repr::Node { .. } => tape::with(|t| {
                let root = self.node_index(t);
                t.backward(root);
            }),
        }
    }

    // ------------------------------------------------------------------
    // Element-wise arithmetic
    // ------------------------------------------------------------------

    fn binary_elementwise(&self, other: &Var, op: impl FnOnce(Src, Src) -> Op) -> Var {
        let (rows, cols) = self.shape();
        assert_eq!((rows, cols), other.shape(), "element-wise shape mismatch");
        tape::with(|t| {
            let a = self.src(t);
            let b = other.src(t);
            let index = t.record(rows, cols, op(a, b));
            Var::node(t, index, rows, cols)
        })
    }

    fn unary_elementwise(&self, op: impl FnOnce(Src) -> Op) -> Var {
        let (rows, cols) = self.shape();
        tape::with(|t| {
            let a = self.src(t);
            let index = t.record(rows, cols, op(a));
            Var::node(t, index, rows, cols)
        })
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Var) -> Var {
        self.binary_elementwise(other, Op::Add)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Var) -> Var {
        self.binary_elementwise(other, Op::Sub)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Var) -> Var {
        self.binary_elementwise(other, Op::Mul)
    }

    /// Element-wise division with an epsilon guard on the denominator.
    pub fn div_eps(&self, other: &Var, eps: f32) -> Var {
        self.binary_elementwise(other, |a, b| Op::DivEps(a, b, eps))
    }

    /// Multiplies every element by a constant.
    pub fn scale(&self, factor: f32) -> Var {
        self.unary_elementwise(|a| Op::Scale(a, factor))
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, constant: f32) -> Var {
        self.unary_elementwise(|a| Op::AddScalar(a, constant))
    }

    /// Multiplies every element by a trainable `1×1` scalar node.
    ///
    /// # Panics
    /// Panics if `scalar` is not `1×1`.
    pub fn mul_scalar_var(&self, scalar: &Var) -> Var {
        assert_eq!(scalar.shape(), (1, 1), "mul_scalar_var expects a 1x1 scalar node");
        let (rows, cols) = self.shape();
        tape::with(|t| {
            let a = self.src(t);
            let b = scalar.src(t);
            let index = t.record(rows, cols, Op::MulScalarVar(a, b));
            Var::node(t, index, rows, cols)
        })
    }

    /// Multiplies row `r` of an `n×d` node by element `r` of an `n×1` column
    /// node (differentiable row-wise broadcast, used for attention weights).
    ///
    /// # Panics
    /// Panics if `column` is not `n×1` with matching row count.
    pub fn mul_col_broadcast(&self, column: &Var) -> Var {
        let (rows, cols) = self.shape();
        assert_eq!(column.cols(), 1, "mul_col_broadcast expects an n×1 column");
        assert_eq!(column.rows(), rows, "mul_col_broadcast row mismatch");
        tape::with(|t| {
            let a = self.src(t);
            let b = column.src(t);
            let index = t.record(rows, cols, Op::MulColBroadcast(a, b));
            Var::node(t, index, rows, cols)
        })
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `self × other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Var) -> Var {
        let (rows, inner) = self.shape();
        let (other_rows, cols) = other.shape();
        assert_eq!(
            inner, other_rows,
            "matmul shape mismatch: ({rows}x{inner}) x ({other_rows}x{cols})"
        );
        tape::with(|t| {
            let a = self.src(t);
            let b = other.src(t);
            let index = t.record(rows, cols, Op::Matmul(a, b));
            Var::node(t, index, rows, cols)
        })
    }

    /// Adds a `1×d` row vector to every row of an `n×d` matrix.
    ///
    /// # Panics
    /// Panics if the column counts differ or `bias` is not a single row.
    pub fn add_row_broadcast(&self, bias: &Var) -> Var {
        let (rows, cols) = self.shape();
        assert_eq!(bias.rows(), 1, "bias must be a single row");
        assert_eq!(bias.cols(), cols, "bias width mismatch");
        tape::with(|t| {
            let a = self.src(t);
            let b = bias.src(t);
            let index = t.record(rows, cols, Op::AddRowBroadcast(a, b));
            Var::node(t, index, rows, cols)
        })
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        self.leaky_relu(0.0)
    }

    /// Leaky rectified linear unit.
    pub fn leaky_relu(&self, negative_slope: f32) -> Var {
        self.unary_elementwise(|a| Op::LeakyRelu(a, negative_slope))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        self.unary_elementwise(Op::Sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        self.unary_elementwise(Op::Tanh)
    }

    /// Element-wise exponential (inputs are clamped to 30 to avoid overflow).
    pub fn exp(&self) -> Var {
        self.unary_elementwise(Op::Exp)
    }

    /// Element-wise `ln(x + eps)`.
    pub fn log_eps(&self, eps: f32) -> Var {
        self.unary_elementwise(|a| Op::LogEps(a, eps))
    }

    /// Element-wise `sqrt(x + eps)`.
    pub fn sqrt_eps(&self, eps: f32) -> Var {
        self.unary_elementwise(|a| Op::SqrtEps(a, eps))
    }

    /// Inverted dropout: keeps each element with probability `1 - p` and
    /// rescales kept elements by `1/(1-p)`. With `p <= 0` this is the identity.
    pub fn dropout(&self, p: f32, rng: &mut StdRng) -> Var {
        if p <= 0.0 {
            return self.scale(1.0);
        }
        let keep = 1.0 - p.clamp(0.0, 0.95);
        let (rows, cols) = self.shape();
        // Row-major draw order, matching `Matrix::from_fn`.
        let mask: Vec<f32> = (0..rows * cols)
            .map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 })
            .collect();
        tape::with(|t| {
            let a = self.src(t);
            let range = t.push_aux(&mask);
            let index = t.record(rows, cols, Op::Dropout(a, range));
            Var::node(t, index, rows, cols)
        })
    }

    // ------------------------------------------------------------------
    // Reductions and reshaping
    // ------------------------------------------------------------------

    /// Sum of all elements, as a `1×1` node.
    pub fn sum(&self) -> Var {
        tape::with(|t| {
            let a = self.src(t);
            let index = t.record(1, 1, Op::Sum(a));
            Var::node(t, index, 1, 1)
        })
    }

    /// Mean of all elements, as a `1×1` node.
    pub fn mean(&self) -> Var {
        let count = (self.rows() * self.cols()).max(1) as f32;
        self.sum().scale(1.0 / count)
    }

    /// Column-wise sum, producing a `1×d` node (sum pooling over rows).
    pub fn sum_axis0(&self) -> Var {
        let cols = self.cols();
        tape::with(|t| {
            let a = self.src(t);
            let index = t.record(1, cols, Op::SumAxis0(a));
            Var::node(t, index, 1, cols)
        })
    }

    /// Column-wise mean, producing a `1×d` node (mean pooling over rows).
    pub fn mean_axis0(&self) -> Var {
        let rows = self.rows().max(1) as f32;
        self.sum_axis0().scale(1.0 / rows)
    }

    /// Horizontal concatenation of several nodes with equal row counts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = parts[0].rows();
        assert!(parts.iter().all(|p| p.rows() == rows), "concat_cols row mismatch");
        let cols: usize = parts.iter().map(Var::cols).sum();
        tape::with(|t| {
            let list: Vec<Src> = parts.iter().map(|p| p.src(t)).collect();
            let range = t.push_srcs(&list);
            let index = t.record(rows, cols, Op::ConcatCols(range));
            Var::node(t, index, rows, cols)
        })
    }

    /// Vertical concatenation of several nodes with equal column counts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let cols = parts[0].cols();
        assert!(parts.iter().all(|p| p.cols() == cols), "concat_rows column mismatch");
        let rows: usize = parts.iter().map(Var::rows).sum();
        tape::with(|t| {
            let list: Vec<Src> = parts.iter().map(|p| p.src(t)).collect();
            let range = t.push_srcs(&list);
            let index = t.record(rows, cols, Op::ConcatRows(range));
            Var::node(t, index, rows, cols)
        })
    }

    // ------------------------------------------------------------------
    // Gather / scatter / segment operations (message passing primitives)
    // ------------------------------------------------------------------

    /// Selects rows by index (duplicates allowed). The backward pass
    /// scatter-adds gradients back to the source rows.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Var {
        let (source_rows, cols) = self.shape();
        for &index in indices {
            assert!(index < source_rows, "gather index {index} out of bounds ({source_rows} rows)");
        }
        tape::with(|t| {
            let a = self.src(t);
            let range = t.push_idx(indices);
            let index = t.record(indices.len(), cols, Op::GatherRows(a, range));
            Var::node(t, index, indices.len(), cols)
        })
    }

    /// Scatter-adds rows into an accumulator with `out_rows` rows; row `i` of
    /// `self` is added to row `indices[i]` of the output.
    ///
    /// # Panics
    /// Panics if `indices.len() != self.rows()` or an index is out of bounds.
    pub fn scatter_add_rows(&self, indices: &[usize], out_rows: usize) -> Var {
        let (rows, cols) = self.shape();
        assert_eq!(indices.len(), rows, "one target index per row is required");
        for &index in indices {
            assert!(index < out_rows, "scatter index {index} out of bounds ({out_rows} rows)");
        }
        tape::with(|t| {
            let a = self.src(t);
            let range = t.push_idx(indices);
            let index = t.record(out_rows, cols, Op::ScatterAddRows(a, range));
            Var::node(t, index, out_rows, cols)
        })
    }

    /// Returns a copy of `self` (`n × d`) with row `indices[i]` incremented
    /// by row `i` of `rows`, rows applied in order. Equivalent to
    /// `self.add(&rows.scatter_add_rows(indices, n))` but without
    /// materialising the sparse intermediate, and with the same per-element
    /// left-to-right accumulation order as repeatedly adding per-group
    /// scatters onto `self` (groups in row order) — which makes it the exact
    /// fused form of the relational layers' per-relation accumulation loop.
    ///
    /// # Panics
    /// Panics if column counts differ, `indices.len() != rows.rows()`, or an
    /// index is out of bounds.
    pub fn scatter_add_onto(&self, rows: &Var, indices: &[usize]) -> Var {
        let (base_rows, cols) = self.shape();
        assert_eq!(cols, rows.cols(), "scatter_add_onto column mismatch");
        assert_eq!(indices.len(), rows.rows(), "one target index per added row is required");
        for &target in indices {
            assert!(target < base_rows, "scatter index {target} out of bounds ({base_rows} rows)");
        }
        tape::with(|t| {
            let base = self.src(t);
            let added = rows.src(t);
            let range = t.push_idx(indices);
            let index = t.record(base_rows, cols, Op::ScatterAddOnto(base, added, range));
            Var::node(t, index, base_rows, cols)
        })
    }

    /// Per-segment, per-column sum: row `i` of `self` is added into row
    /// `segments[i]` of a `num_segments × d` output. Rows are accumulated in
    /// row order, so a single segment covering every row reproduces
    /// [`Var::sum_axis0`] bit-for-bit. Empty segments yield zero rows.
    ///
    /// # Panics
    /// Panics if `segments.len()` differs from the row count or a segment id
    /// is out of range.
    pub fn segment_sum(&self, segments: &[usize], num_segments: usize) -> Var {
        let (rows, cols) = self.shape();
        assert_eq!(segments.len(), rows, "one segment id per row is required");
        assert!(
            segments.iter().all(|&s| s < num_segments),
            "segment id out of range (num_segments = {num_segments})"
        );
        tape::with(|t| {
            let a = self.src(t);
            let range = t.push_idx(segments);
            let index = t.record(num_segments, cols, Op::SegmentSum(a, range));
            Var::node(t, index, num_segments, cols)
        })
    }

    /// Per-segment, per-column mean (see [`Var::segment_sum`]). A single
    /// segment covering every row reproduces [`Var::mean_axis0`] bit-for-bit;
    /// empty segments yield zero rows (not NaN).
    ///
    /// # Panics
    /// Panics if `segments.len()` differs from the row count or a segment id
    /// is out of range.
    pub fn segment_mean(&self, segments: &[usize], num_segments: usize) -> Var {
        let mut counts = vec![0usize; num_segments];
        for &segment in segments {
            assert!(segment < num_segments, "segment id out of range");
            counts[segment] += 1;
        }
        let inverse: Vec<f32> =
            counts.iter().map(|&c| if c == 0 { 0.0 } else { 1.0 / c as f32 }).collect();
        self.segment_sum(segments, num_segments).scale_rows(&inverse)
    }

    /// Per-segment, per-column maximum. Rows of `self` are grouped by
    /// `segments[i]`; empty segments produce zero rows. Gradient flows to the
    /// arg-max row of each (segment, column).
    pub fn segment_max(&self, segments: &[usize], num_segments: usize) -> Var {
        self.segment_extremum(segments, num_segments, true)
    }

    /// Per-segment, per-column minimum (see [`Var::segment_max`]).
    pub fn segment_min(&self, segments: &[usize], num_segments: usize) -> Var {
        self.segment_extremum(segments, num_segments, false)
    }

    fn segment_extremum(&self, segments: &[usize], num_segments: usize, is_max: bool) -> Var {
        let (rows, cols) = self.shape();
        assert_eq!(segments.len(), rows, "one segment id per row is required");
        for &segment in segments {
            assert!(segment < num_segments, "segment id {segment} out of range");
        }
        tape::with(|t| {
            let input = self.src(t);
            let seg_range = t.push_idx(segments);
            let win_range = t.push_winner_slots(num_segments * cols);
            let index = t.record(
                num_segments,
                cols,
                Op::SegmentExtremum { input, segments: seg_range, winners: win_range, is_max },
            );
            Var::node(t, index, num_segments, cols)
        })
    }

    /// Multiplies row `r` by the constant `factors[r]` (no gradient w.r.t. the
    /// factors — they are structural constants such as `1/degree`).
    ///
    /// # Panics
    /// Panics if `factors.len()` does not match the number of rows.
    pub fn scale_rows(&self, factors: &[f32]) -> Var {
        let (rows, cols) = self.shape();
        assert_eq!(factors.len(), rows, "one factor per row is required");
        tape::with(|t| {
            let a = self.src(t);
            let range = t.push_aux(factors);
            let index = t.record(rows, cols, Op::ScaleRows(a, range));
            Var::node(t, index, rows, cols)
        })
    }

    // ------------------------------------------------------------------
    // Losses
    // ------------------------------------------------------------------

    /// Mean squared error against a constant target, as a scalar node.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn mse(&self, target: &Matrix) -> Var {
        assert_eq!(self.shape(), target.shape(), "mse shape mismatch");
        tape::with(|t| {
            let a = self.src(t);
            let range = t.push_aux(target.data());
            let index = t.record(1, 1, Op::Mse(a, range));
            Var::node(t, index, 1, 1)
        })
    }

    /// Numerically stable binary cross-entropy with logits against a constant
    /// 0/1 target, as a scalar node.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn bce_with_logits(&self, target: &Matrix) -> Var {
        assert_eq!(self.shape(), target.shape(), "bce shape mismatch");
        tape::with(|t| {
            let a = self.src(t);
            let range = t.push_aux(target.data());
            let index = t.record(1, 1, Op::BceWithLogits(a, range));
            Var::node(t, index, 1, 1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Finite-difference check of `d loss / d input[index]`.
    fn numerical_grad(
        build: &dyn Fn(&Var) -> Var,
        input: &Matrix,
        row: usize,
        col: usize,
        eps: f32,
    ) -> f32 {
        let mut plus = input.clone();
        plus.set(row, col, input.get(row, col) + eps);
        let mut minus = input.clone();
        minus.set(row, col, input.get(row, col) - eps);
        let loss_plus = build(&Var::new(plus)).scalar_value();
        let loss_minus = build(&Var::new(minus)).scalar_value();
        (loss_plus - loss_minus) / (2.0 * eps)
    }

    fn check_gradients(build: &dyn Fn(&Var) -> Var, input: Matrix, tolerance: f32) {
        let leaf = Var::parameter(input.clone());
        let loss = build(&leaf);
        loss.backward();
        let grad = leaf.grad().expect("gradient reaches the leaf");
        for r in 0..input.rows() {
            for c in 0..input.cols() {
                let numeric = numerical_grad(build, &input, r, c, 1e-2);
                let analytic = grad.get(r, c);
                assert!(
                    (numeric - analytic).abs() < tolerance.max(0.05 * numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic {analytic}, numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn gradcheck_elementwise_chain() {
        let input = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.5]);
        check_gradients(&|x: &Var| x.scale(1.5).add_scalar(0.2).tanh().mul(x).sum(), input, 1e-2);
    }

    #[test]
    fn gradcheck_matmul_and_bias() {
        let weight = Matrix::from_vec(3, 2, vec![0.1, -0.2, 0.4, 0.3, -0.5, 0.6]);
        let input = Matrix::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, -0.25, 0.75]);
        let build = move |x: &Var| {
            let w = Var::new(weight.clone());
            let bias = Var::new(Matrix::row_vector(&[0.1, -0.1]));
            x.matmul(&w).add_row_broadcast(&bias).relu().sum()
        };
        check_gradients(&build, input, 1e-2);
    }

    #[test]
    fn gradcheck_gather_scatter() {
        let input = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.25, -1.5, 2.0]);
        let build = |x: &Var| {
            // Gather rows like edge sources, transform, scatter back like
            // message aggregation, then reduce.
            x.gather_rows(&[0, 0, 1, 2])
                .scale(0.5)
                .scatter_add_rows(&[1, 2, 2, 0], 3)
                .sigmoid()
                .sum()
        };
        check_gradients(&build, input, 1e-2);
    }

    #[test]
    fn gradcheck_segment_max_and_scale_rows() {
        let input = Matrix::from_vec(4, 2, vec![1.0, -2.0, 3.0, 0.5, -1.0, 2.5, 0.25, 0.75]);
        let build = |x: &Var| {
            x.scale_rows(&[1.0, 0.5, 2.0, 1.5])
                .segment_max(&[0, 1, 0, 1], 2)
                .mul(&Var::new(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])))
                .sum()
        };
        check_gradients(&build, input, 1e-2);
    }

    #[test]
    fn gradcheck_segment_sum_and_mean() {
        let input =
            Matrix::from_vec(5, 2, vec![1.0, -2.0, 3.0, 0.5, -1.0, 2.5, 0.25, 0.75, 2.0, -0.5]);
        let segments = [0usize, 2, 0, 1, 2];
        let build_sum = move |x: &Var| {
            x.segment_sum(&segments, 3)
                .mul(&Var::new(Matrix::from_fn(3, 2, |r, c| (r + c) as f32 + 0.5)))
                .sum()
        };
        check_gradients(&build_sum, input.clone(), 1e-2);
        let build_mean = move |x: &Var| {
            x.segment_mean(&segments, 3)
                .mul(&Var::new(Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 - 1.5)))
                .sum()
        };
        check_gradients(&build_mean, input, 1e-2);
    }

    #[test]
    fn single_segment_reductions_match_axis0_reductions_exactly() {
        let input = Matrix::from_fn(7, 3, |r, c| ((r * 3 + c) as f32).sin());
        let x = Var::new(input);
        let segments = vec![0usize; 7];
        assert_eq!(x.segment_sum(&segments, 1).value(), x.sum_axis0().value());
        assert_eq!(x.segment_mean(&segments, 1).value(), x.mean_axis0().value());
    }

    #[test]
    fn empty_segments_produce_zero_rows_not_nan() {
        let x = Var::new(Matrix::full(2, 2, 3.0));
        let mean = x.segment_mean(&[2, 2], 3).value();
        assert_eq!(mean.row(0), &[0.0, 0.0]);
        assert_eq!(mean.row(1), &[0.0, 0.0]);
        assert_eq!(mean.row(2), &[3.0, 3.0]);
        assert!(!mean.has_non_finite());
    }

    #[test]
    fn deep_tapes_backward_and_drop_without_overflowing_the_stack() {
        // Regression test: any recursion over the chain (a recursive graph
        // walk in backward, or a recursive `Drop` of linked handles) would
        // blow the 2 MiB default test-thread stack long before 200k nodes.
        // Backward is a loop over record indices and handles are plain
        // indices, so neither needs a stack that grows with the chain.
        let leaf = Var::parameter(Matrix::from_vec(1, 1, vec![0.5]));
        let mut node = leaf.clone();
        for _ in 0..200_000 {
            node = node.add_scalar(0.0);
        }
        let loss = node.sum();
        loss.backward();
        assert_eq!(leaf.grad().unwrap().get(0, 0), 1.0);
        drop(loss);
        drop(node);
    }

    #[test]
    fn gradcheck_losses() {
        let target = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.5, 2.0]);
        let input = Matrix::from_vec(2, 2, vec![0.8, -0.3, 0.9, 1.5]);
        let t1 = target.clone();
        check_gradients(&move |x: &Var| x.mse(&t1), input.clone(), 1e-2);
        let binary = Matrix::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        check_gradients(&move |x: &Var| x.bce_with_logits(&binary), input, 1e-2);
    }

    #[test]
    fn gradcheck_scalar_and_column_broadcasts() {
        let input = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.5]);
        let build = |x: &Var| {
            let scalar = Var::new(Matrix::from_vec(1, 1, vec![0.7]));
            let column = Var::new(Matrix::column_vector(&[1.0, -0.5, 2.0]));
            x.mul_scalar_var(&scalar).mul_col_broadcast(&column).sum()
        };
        check_gradients(&build, input, 1e-2);

        // Gradients must also reach the scalar and the column themselves.
        let x = Var::new(Matrix::full(2, 2, 3.0));
        let scalar = Var::parameter(Matrix::from_vec(1, 1, vec![2.0]));
        let column = Var::parameter(Matrix::column_vector(&[1.0, 4.0]));
        x.mul_scalar_var(&scalar).mul_col_broadcast(&column).sum().backward();
        assert_eq!(scalar.grad().unwrap().get(0, 0), 3.0 * (1.0 + 1.0 + 4.0 + 4.0));
        assert_eq!(column.grad().unwrap().data(), &[12.0, 12.0]);
    }

    #[test]
    fn gradcheck_pooling_and_concat() {
        let input = Matrix::from_vec(3, 2, vec![0.2, -0.4, 1.0, 0.8, -0.6, 0.1]);
        let build = |x: &Var| {
            let pooled = Var::concat_cols(&[x.mean_axis0(), x.sum_axis0()]);
            pooled.mul(&pooled).sum()
        };
        check_gradients(&build, input, 1e-2);
    }

    #[test]
    fn gradcheck_division_and_sqrt() {
        let input = Matrix::from_vec(2, 2, vec![0.5, 1.5, 2.0, 0.7]);
        let build = |x: &Var| {
            let denominator = x.mul(x).add_scalar(1.0);
            x.div_eps(&denominator, 1e-6).sqrt_eps(1e-6).sum()
        };
        check_gradients(&build, input, 1e-2);
    }

    #[test]
    fn gradients_accumulate_over_multiple_backward_passes() {
        let param = Var::parameter(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        for _ in 0..3 {
            let loss = param.mul(&param).sum();
            loss.backward();
        }
        let grad = param.grad().unwrap();
        // d/dx sum(x^2) = 2x, accumulated three times.
        assert_eq!(grad.data(), &[6.0, 12.0]);
        param.zero_grad();
        assert!(param.grad().is_none());
    }

    #[test]
    fn diamond_graphs_accumulate_correctly() {
        let x = Var::parameter(Matrix::from_vec(1, 1, vec![3.0]));
        let a = x.scale(2.0);
        let b = x.scale(5.0);
        let loss = a.add(&b).sum();
        loss.backward();
        assert_eq!(x.grad().unwrap().get(0, 0), 7.0);
    }

    #[test]
    fn dropout_is_identity_when_disabled_and_masks_otherwise() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Var::new(Matrix::full(4, 4, 1.0));
        assert_eq!(x.dropout(0.0, &mut rng).value(), Matrix::full(4, 4, 1.0));
        let dropped = x.dropout(0.5, &mut rng).value();
        let zeros = dropped.data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 0, "some elements must be dropped");
        assert!(dropped.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn scalar_helpers_behave() {
        let s = Var::scalar(4.5);
        assert_eq!(s.scalar_value(), 4.5);
        assert_eq!(s.shape(), (1, 1));
        assert!(!s.is_trainable());
        assert!(Var::parameter(Matrix::zeros(1, 1)).is_trainable());
    }

    #[test]
    #[should_panic(expected = "backward must start from a scalar")]
    fn backward_requires_scalar_output() {
        let x = Var::parameter(Matrix::zeros(2, 2));
        x.relu().backward();
    }

    #[test]
    fn tape_reset_reuses_buffers_and_preserves_parameters() {
        let param = Var::parameter(Matrix::full(4, 4, 1.0));
        let step = |p: &Var| {
            let loss = p.mul(p).sum();
            loss.backward();
            crate::tape::reset();
        };
        step(&param);
        let warm = crate::tape::stats();
        assert_eq!(warm.ops, 0, "reset clears the op arena");
        // Parameter values and accumulated gradients survive the reset.
        assert_eq!(param.value(), Matrix::full(4, 4, 1.0));
        assert_eq!(param.grad().unwrap(), Matrix::full(4, 4, 2.0));
        // A steady-state step allocates nothing new in the value buffer.
        step(&param);
        assert_eq!(crate::tape::stats().value_capacity, warm.value_capacity);
    }

    #[test]
    #[should_panic(expected = "stale Var handle")]
    fn stale_node_handles_panic_after_reset() {
        let x = Var::new(Matrix::full(2, 2, 1.0));
        let node = x.relu();
        crate::tape::reset();
        let _ = node.add_scalar(1.0);
    }

    #[test]
    fn node_gradients_are_readable_after_backward() {
        let x = Var::parameter(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let doubled = x.scale(2.0);
        let loss = doubled.sum();
        loss.backward();
        assert_eq!(doubled.grad().unwrap().data(), &[1.0, 1.0]);
        assert_eq!(loss.grad().unwrap().get(0, 0), 1.0);
    }

    #[test]
    fn matmul_gradients_reach_both_node_operands_of_one_leaf() {
        let input = Matrix::from_vec(3, 3, vec![0.5, -1.0, 0.3, 0.8, -0.2, 1.1, -0.6, 0.4, 0.9]);
        // Both operands are tape nodes of the same leaf, and each has a
        // second consumer recorded after the matmul, so the matmul adjoint
        // adds onto regions that consumer already wrote.
        let build = |x: &Var| {
            let (left, right) = (x.tanh(), x.scale(0.5));
            left.matmul(&right).add(&left.mul(&right)).sum()
        };
        check_gradients(&build, input, 1e-2);
    }

    #[test]
    fn gather_gradients_add_onto_a_source_with_a_second_consumer() {
        let input = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.25, -1.5, 2.0]);
        // The gathered node's second consumer is recorded after the gather,
        // so its contribution is in place before the scatter adjoint runs.
        let build = |x: &Var| {
            let source = x.tanh();
            let gathered = source.gather_rows(&[2, 0, 2, 1]).sigmoid().sum();
            let other = source.scale(0.5);
            gathered.add(&other.mul(&other).sum())
        };
        check_gradients(&build, input, 1e-2);
    }

    #[test]
    fn two_backward_passes_sharing_a_subexpression_sum_their_gradients() {
        let param = Var::parameter(Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]));
        let doubled = param.scale(2.0);
        doubled.sum().backward();
        // The second pass reuses `doubled`, whose gradient region still holds
        // the first pass's ones: it must start again from zero.
        doubled.mul(&doubled).sum().backward();
        // d/dp sum(2p) + d/dp sum(4p²) = 2 + 8p.
        assert_eq!(param.grad().unwrap().data(), &[6.0, -6.0, 18.0]);
        assert_eq!(doubled.grad().unwrap().data(), &[2.0, -4.0, 8.0]);
    }

    #[test]
    fn records_the_loss_does_not_reach_are_not_replayed() {
        let used = Var::parameter(Matrix::full(1, 2, 1.0));
        let unused = Var::parameter(Matrix::full(1, 2, 7.0));
        // Recorded below the root, but the loss does not depend on it.
        let dead = unused.scale(3.0).sum();
        let mut adam = crate::optim::Adam::new(vec![used.clone(), unused.clone()], 0.1);
        used.mul(&used).sum().backward();
        assert!(unused.grad().is_none());
        assert!(dead.grad().is_none());
        adam.step();
        assert_ne!(used.value(), Matrix::full(1, 2, 1.0));
        assert_eq!(unused.value(), Matrix::full(1, 2, 7.0));
    }

    #[test]
    fn node_gradients_answer_only_for_the_latest_backward_that_reached_them() {
        let x = Var::parameter(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let first = x.scale(2.0);
        let second = x.scale(3.0);
        first.sum().backward();
        assert_eq!(first.grad().unwrap().data(), &[1.0, 1.0]);
        assert!(second.grad().is_none(), "the pass did not reach this node");
        second.sum().backward();
        assert!(first.grad().is_none(), "the latest pass did not reach this node");
        assert_eq!(second.grad().unwrap().data(), &[1.0, 1.0]);
        // A node recorded after a reset reuses the regions of the nodes
        // before it, whose gradients are still in the buffer.
        crate::tape::reset();
        let fresh = x.scale(4.0);
        assert!(fresh.grad().is_none(), "no pass has reached a fresh node");
    }

    #[test]
    #[should_panic(expected = "zero_grad on a tape node")]
    fn node_gradients_cannot_be_cleared_or_accumulated_by_hand() {
        let x = Var::parameter(Matrix::full(2, 2, 1.0));
        let node = x.relu();
        node.sum().backward();
        node.zero_grad();
    }
}
