//! Dense row-major `f32` matrix.
//!
//! All tensors handled by the GNN stack are two-dimensional (`nodes × features`,
//! `edges × features`, or `1 × features` for pooled graph representations), so a
//! simple dense matrix is the only storage type needed. The autodiff layer
//! ([`crate::var`]) wraps matrices; this module is pure numerics.

use std::fmt;

/// A dense row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a `1 × n` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a `n × 1` column vector.
    pub fn column_vector(values: &[f32]) -> Self {
        Matrix::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index ({row},{col}) out of bounds");
        self.data[row * self.cols + col]
    }

    /// Element update.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index ({row},{col}) out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// A view of one row.
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable view of one row.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Matrix product `self × other`.
    ///
    /// Dense, branch-free kernel: cache-blocked over the inner dimension with
    /// an autovectorizable axpy inner loop.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: ({}x{}) x ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernels::matmul(&mut out.data, &self.data, &other.data, self.rows, self.cols, other.cols);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise binary combination of two same-shape matrices.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip_with(&self, other: &Matrix, mut f: impl FnMut(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "element-wise shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise map.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise sum of two matrices.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, factor: f32) -> Matrix {
        self.map(|x| x * factor)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Column-wise sums as a `1 × cols` matrix.
    pub fn sum_axis0(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Selects rows by index (rows may repeat).
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (out_row, &index) in indices.iter().enumerate() {
            assert!(index < self.rows, "gather index {index} out of bounds ({} rows)", self.rows);
            out.row_mut(out_row).copy_from_slice(self.row(index));
        }
        out
    }

    /// Adds every row of `self` into `out_rows`-row accumulator at the row given
    /// by `indices` (scatter-add).
    ///
    /// # Panics
    /// Panics if `indices.len() != self.rows()` or an index is out of bounds.
    pub fn scatter_add_rows(&self, indices: &[usize], out_rows: usize) -> Matrix {
        assert_eq!(indices.len(), self.rows, "one target index per row is required");
        let mut out = Matrix::zeros(out_rows, self.cols);
        for (row, &index) in indices.iter().enumerate() {
            assert!(index < out_rows, "scatter index {index} out of bounds ({out_rows} rows)");
            let src = &self.data[row * self.cols..(row + 1) * self.cols];
            let dst = &mut out.data[index * self.cols..(index + 1) * self.cols];
            for (o, s) in dst.iter_mut().zip(src) {
                *o += s;
            }
        }
        out
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

/// Slice-level dense kernels shared by [`Matrix`] and the arena tape
/// ([`crate::tape`]), which stores values and gradients in flat `f32` buffers
/// and therefore cannot pay for a `Matrix` round trip per op.
///
/// All kernels **accumulate** (`+=`) into `out`; the caller zeroes the
/// destination when plain assignment is wanted. Within each output element the
/// reduction order is ascending over the inner dimension, independent of
/// blocking, so results are bit-identical to the textbook triple loop.
pub(crate) mod kernels {
    /// Inner-dimension block size for [`matmul`]. Chosen so a block of the
    /// right-hand operand's rows (`K_BLOCK × n` floats) stays L1/L2-resident
    /// while every output row streams over it.
    const K_BLOCK: usize = 64;

    /// `out (m×n) += a (m×k) × b (k×n)`, cache-blocked over `k` and
    /// register-tiled over 4 output rows.
    ///
    /// Blocks iterate outermost with `k` ascending within each block, and the
    /// row tile reuses each loaded `b` row for 4 output rows (≈1.1–1.7×
    /// over the plain ikj loop, best at the narrow widths GNN layers use).
    /// Every `(i, j)` element still accumulates in ascending-`k` order, so
    /// results are bit-identical to the textbook triple loop.
    pub fn matmul(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(out.len(), m * n);
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        let mut k0 = 0;
        while k0 < k {
            let k1 = (k0 + K_BLOCK).min(k);
            let mut i = 0;
            while i + 4 <= m {
                let tile = &mut out[i * n..(i + 4) * n];
                let (r0, rest) = tile.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                for kk in k0..k1 {
                    let b_row = &b[kk * n..(kk + 1) * n];
                    let a0 = a[i * k + kk];
                    let a1 = a[(i + 1) * k + kk];
                    let a2 = a[(i + 2) * k + kk];
                    let a3 = a[(i + 3) * k + kk];
                    let rows =
                        r0.iter_mut().zip(r1.iter_mut()).zip(r2.iter_mut()).zip(r3.iter_mut());
                    for ((((o0, o1), o2), o3), &bv) in rows.zip(b_row) {
                        *o0 += a0 * bv;
                        *o1 += a1 * bv;
                        *o2 += a2 * bv;
                        *o3 += a3 * bv;
                    }
                }
                i += 4;
            }
            while i < m {
                let a_row = &a[i * k + k0..i * k + k1];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (kk, &aik) in a_row.iter().enumerate() {
                    let b_row = &b[(k0 + kk) * n..(k0 + kk + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += aik * bv;
                    }
                }
                i += 1;
            }
            k0 = k1;
        }
    }

    /// `out (rows×cols) = aᵀ`, plain assignment (`a` is `cols×rows`).
    pub fn transpose(out: &mut [f32], a: &[f32], rows: usize, cols: usize) {
        debug_assert_eq!(out.len(), rows * cols);
        debug_assert_eq!(a.len(), rows * cols);
        for r in 0..cols {
            let a_row = &a[r * rows..(r + 1) * rows];
            for (c, &v) in a_row.iter().enumerate() {
                out[c * cols + r] = v;
            }
        }
    }

    /// `out (m×k) += g (m×n) × bᵀ` where `b` is `k×n`. Materializes `bᵀ`
    /// into `bt_scratch` and runs the axpy-form product — a naive per-element
    /// row-dot is ~3× slower here because a sequential float reduction cannot
    /// vectorize without reassociation, while the axpy inner loop does.
    ///
    /// Each `out` element accumulates its `n` terms in ascending-`n` order
    /// onto whatever `out` already holds.
    pub fn matmul_transpose_b(
        out: &mut [f32],
        g: &[f32],
        b: &[f32],
        m: usize,
        n: usize,
        k: usize,
        bt_scratch: &mut Vec<f32>,
    ) {
        debug_assert_eq!(out.len(), m * k);
        debug_assert_eq!(g.len(), m * n);
        debug_assert_eq!(b.len(), k * n);
        bt_scratch.clear();
        bt_scratch.resize(n * k, 0.0);
        transpose(bt_scratch, b, n, k);
        matmul(out, g, bt_scratch, m, n, k);
    }

    /// `out (k×n) += aᵀ × g` where `a` is `m×k` and `g` is `m×n`, without
    /// materializing the transpose. Axpy formulation: each `out` element
    /// accumulates its `m` terms in ascending-`m` order onto whatever `out`
    /// already holds.
    pub fn matmul_transpose_a(out: &mut [f32], a: &[f32], g: &[f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(out.len(), k * n);
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(g.len(), m * n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let g_row = &g[i * n..(i + 1) * n];
            for (j, &aij) in a_row.iter().enumerate() {
                let out_row = &mut out[j * n..(j + 1) * n];
                for (o, &gv) in out_row.iter_mut().zip(g_row) {
                    *o += aij * gv;
                }
            }
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        let f = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(f.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn fused_transpose_products_match_materialized_transpose() {
        let a = Matrix::from_fn(9, 70, |r, c| ((r * 70 + c) % 11) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(9, 70, |r, c| ((r * 70 + c) % 7) as f32 * 0.5 - 1.5);
        let g = Matrix::from_fn(9, 5, |r, c| ((r * 5 + c) % 5) as f32 - 2.0);
        // The tape accumulates adjoints into live gradient regions, so both
        // kernels start from a non-zero destination and must add onto it
        // exactly like the dense kernel does.
        let start = |rows, cols| Matrix::from_fn(rows, cols, |r, c| ((r + 2 * c) % 3) as f32 - 1.0);
        // a × bᵀ : (9×70) × (9×70)ᵀ = 9×9.
        let mut fused = start(9, 9);
        let mut scratch = Vec::new();
        kernels::matmul_transpose_b(fused.data_mut(), a.data(), b.data(), 9, 70, 9, &mut scratch);
        let mut reference = start(9, 9);
        kernels::matmul(reference.data_mut(), a.data(), b.transpose().data(), 9, 70, 9);
        assert_eq!(fused, reference);
        // aᵀ × g : (9×70)ᵀ × (9×5) = 70×5.
        let mut fused = start(70, 5);
        kernels::matmul_transpose_a(fused.data_mut(), a.data(), g.data(), 9, 70, 5);
        let mut reference = start(70, 5);
        kernels::matmul(reference.data_mut(), a.transpose().data(), g.data(), 70, 9, 5);
        assert_eq!(fused, reference);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let t = a.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t.transpose(), a);
        assert_eq!(t.get(2, 1), a.get(1, 2));
    }

    #[test]
    fn elementwise_operations() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum_axis0().data(), &[4.0, 6.0]);
    }

    #[test]
    fn gather_and_scatter_are_adjoint_shapes() {
        let h = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let gathered = h.gather_rows(&[0, 2, 2, 3]);
        assert_eq!(gathered.shape(), (4, 2));
        assert_eq!(gathered.row(1), h.row(2));
        let scattered = gathered.scatter_add_rows(&[1, 1, 0, 3], 4);
        assert_eq!(scattered.shape(), (4, 2));
        // Row 1 accumulates rows 0 and 2 of the original matrix.
        assert_eq!(scattered.row(1), &[h.get(0, 0) + h.get(2, 0), h.get(0, 1) + h.get(2, 1)]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    fn display_is_not_empty() {
        let a = Matrix::zeros(2, 2);
        assert!(!a.to_string().is_empty());
    }
}
