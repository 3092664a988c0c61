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
    /// Runs the register-tiled kernel of [`kernel_isa`]'s instruction set.
    /// Each element is the textbook sum, its terms added in ascending inner
    /// index with a separate multiply and add, so the bits are the same on
    /// every host.
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
        kernels::Isa::selected().matmul(
            &mut out.data,
            &self.data,
            &other.data,
            self.rows,
            self.cols,
            other.cols,
        );
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

/// The instruction set the matmul kernels run on in this process:
/// `"avx512f"`, `"avx2"` or `"portable"`.
///
/// The widest variant the CPU supports is chosen once, by runtime feature
/// detection; there is no switch. Every variant computes the same bits (see
/// [`Matrix::matmul`]), so this names a speed, never a result.
pub fn kernel_isa() -> &'static str {
    kernels::Isa::selected().name()
}

/// Slice-level dense kernels shared by [`Matrix`] and the arena tape
/// ([`crate::tape`]), which stores values and gradients in flat `f32` buffers
/// and therefore cannot pay for a `Matrix` round trip per op.
///
/// All kernels **accumulate** (`+=`) into `out`; the caller zeroes the
/// destination when plain assignment is wanted.
///
/// The three matrix products run one register-tiled loop (the micro-kernel
/// of Goto & van de Geijn, "Anatomy of High-Performance Matrix
/// Multiplication", 2008): an `MR×NR` block of `out` is loaded into
/// accumulators, every step of the inner dimension adds `a * b` to each, and
/// the block is stored once. Columns are covered in descending widths (`NR`
/// down to 1) and leftover rows one at a time, so a narrow output such as a
/// 3-wide head still runs a tile of its own width. The loop body is compiled
/// once per [`Isa`].
///
/// Each accumulator starts from the destination's value and adds its terms
/// in ascending inner-dimension order, as a separate multiply and add. No
/// variant fuses them (`mul_add` rounds once where the textbook loop rounds
/// twice), so every variant is bit-identical to the textbook triple loop and
/// a prediction does not depend on the host it ran on.
pub(crate) mod kernels {
    use std::sync::OnceLock;

    /// An instruction set the matmul loop is compiled for, with its tile.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Isa {
        /// 8×32 tiles: sixteen 512-bit accumulators.
        Avx512f,
        /// 4×16 tiles: eight 256-bit accumulators.
        Avx2,
        /// 4×8 tiles, for any target (SSE2 on baseline x86-64).
        Portable,
    }

    impl Isa {
        /// Every variant, widest first.
        pub const ALL: [Isa; 3] = [Isa::Avx512f, Isa::Avx2, Isa::Portable];

        /// The widest variant this CPU runs, detected once per process.
        pub fn selected() -> Isa {
            static SELECTED: OnceLock<Isa> = OnceLock::new();
            *SELECTED.get_or_init(|| {
                Isa::ALL.into_iter().find(|isa| isa.is_supported()).unwrap_or(Isa::Portable)
            })
        }

        /// Whether this CPU runs the variant.
        pub fn is_supported(self) -> bool {
            match self {
                Isa::Portable => true,
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => is_x86_feature_detected!("avx2"),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512f => is_x86_feature_detected!("avx512f"),
                #[cfg(not(target_arch = "x86_64"))]
                Isa::Avx2 | Isa::Avx512f => false,
            }
        }

        /// The name [`super::kernel_isa`] reports.
        pub fn name(self) -> &'static str {
            match self {
                Isa::Avx512f => "avx512f",
                Isa::Avx2 => "avx2",
                Isa::Portable => "portable",
            }
        }

        /// `out (m×n) += a (m×k) × b (k×n)`.
        pub fn matmul(self, out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
            debug_assert_eq!(out.len(), m * n);
            debug_assert_eq!(a.len(), m * k);
            debug_assert_eq!(b.len(), k * n);
            self.gemm(Gemm { out, a, a_row: k, a_step: 1, b, m, k, n });
        }

        /// `out (m×k) += g (m×n) × bᵀ` where `b` is `k×n`. Transposes `b`
        /// into `bt_scratch` and runs [`Isa::matmul`] over it, because a tile
        /// reads `NR` adjacent entries of one row of its right operand per
        /// step: `bᵀ` holds them side by side, `b` a whole row apart each.
        #[allow(clippy::too_many_arguments)]
        pub fn matmul_transpose_b(
            self,
            out: &mut [f32],
            g: &[f32],
            b: &[f32],
            m: usize,
            n: usize,
            k: usize,
            bt_scratch: &mut Vec<f32>,
        ) {
            debug_assert_eq!(b.len(), k * n);
            bt_scratch.clear();
            bt_scratch.resize(n * k, 0.0);
            transpose(bt_scratch, b, n, k);
            self.matmul(out, g, bt_scratch, m, n, k);
        }

        /// `out (k×n) += aᵀ × g` where `a` is `m×k` and `g` is `m×n`, without
        /// materializing the transpose: the tile reads `a` down its columns.
        pub fn matmul_transpose_a(
            self,
            out: &mut [f32],
            a: &[f32],
            g: &[f32],
            m: usize,
            k: usize,
            n: usize,
        ) {
            debug_assert_eq!(out.len(), k * n);
            debug_assert_eq!(a.len(), m * k);
            debug_assert_eq!(g.len(), m * n);
            self.gemm(Gemm { out, a, a_row: 1, a_step: k, b: g, m: k, k: m, n });
        }

        /// Runs the product on this variant, or on the portable one if the
        /// CPU lacks the variant's feature.
        fn gemm(self, product: Gemm<'_>) {
            match self {
                // SAFETY: the guard has just detected AVX-512F on this CPU,
                // the one feature `gemm_avx512f` is compiled for.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512f if is_x86_feature_detected!("avx512f") => unsafe {
                    gemm_avx512f(product)
                },
                // SAFETY: the guard has just detected AVX2 on this CPU, the one
                // feature `gemm_avx2` is compiled for.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 if is_x86_feature_detected!("avx2") => unsafe { gemm_avx2(product) },
                _ => product.run::<4, 8>(),
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn gemm_avx512f(product: Gemm<'_>) {
        product.run::<8, 32>();
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn gemm_avx2(product: Gemm<'_>) {
        product.run::<4, 16>();
    }

    /// One product `out (m×n) += A (m×k) × b (k×n)`, where `A[i][kk]` is
    /// `a[i * a_row + kk * a_step]`: a row-major `a` has `a_row = k` and
    /// `a_step = 1`, and reading it transposed swaps the two.
    struct Gemm<'s> {
        out: &'s mut [f32],
        a: &'s [f32],
        a_row: usize,
        a_step: usize,
        b: &'s [f32],
        m: usize,
        k: usize,
        n: usize,
    }

    impl Gemm<'_> {
        /// The whole product in `MR×NR` tiles. Inlined into each variant's
        /// entry point, so every variant compiles the same body for its own
        /// vector width.
        #[inline(always)]
        fn run<const MR: usize, const NR: usize>(mut self) {
            let mut j = self.columns::<MR, NR>(0);
            if NR > 16 {
                j = self.columns::<MR, 16>(j);
            }
            if NR > 8 {
                j = self.columns::<MR, 8>(j);
            }
            if NR > 4 {
                j = self.columns::<MR, 4>(j);
            }
            j = self.columns::<MR, 3>(j);
            j = self.columns::<MR, 2>(j);
            self.columns::<MR, 1>(j);
        }

        /// Covers every `W`-wide column block from `j` on that fits, all
        /// rows of each, and returns the first column left over.
        #[inline(always)]
        fn columns<const MR: usize, const W: usize>(&mut self, mut j: usize) -> usize {
            while j + W <= self.n {
                let mut i = 0;
                while i + MR <= self.m {
                    self.tile::<MR, W>(i, j);
                    i += MR;
                }
                while i < self.m {
                    self.tile::<1, W>(i, j);
                    i += 1;
                }
                j += W;
            }
            j
        }

        /// The `MR×W` block of `out` at `(i, j)`, held in registers across
        /// the whole inner dimension.
        #[inline(always)]
        fn tile<const MR: usize, const W: usize>(&mut self, i: usize, j: usize) {
            let n = self.n;
            let mut acc = [[0.0f32; W]; MR];
            for (r, row) in acc.iter_mut().enumerate() {
                row.copy_from_slice(&self.out[(i + r) * n + j..][..W]);
            }
            for kk in 0..self.k {
                let b_row = &self.b[kk * n + j..][..W];
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = self.a[(i + r) * self.a_row + kk * self.a_step];
                    for (o, &bv) in row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                self.out[(i + r) * n + j..][..W].copy_from_slice(row);
            }
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

    /// `out (m×n) += a (m×k) × b (k×n)` as the textbook triple loop: each
    /// element from its starting value, one multiply and one add per `k`,
    /// ascending.
    fn textbook(out: &mut [f32], a: &Matrix, b: &Matrix) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        for i in 0..m {
            for j in 0..n {
                let mut acc = out[i * n + j];
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                out[i * n + j] = acc;
            }
        }
    }

    /// A `rows×cols` matrix of values in [-1, 1) with full mantissas, so any
    /// change in rounding or summation order shows in the bits.
    fn noise(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        let same = got.len() == want.len()
            && got.iter().zip(want).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what} differs from the textbook loop");
    }

    #[test]
    fn every_kernel_variant_matches_the_textbook_loop_bit_for_bit() {
        const SIDES: [usize; 15] = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 45];
        let mut shapes = vec![(100, 32, 32), (1500, 37, 32)];
        for m in SIDES {
            for k in SIDES {
                shapes.extend(SIDES.map(|n| (m, k, n)));
            }
        }
        let variants: Vec<kernels::Isa> =
            kernels::Isa::ALL.into_iter().filter(|isa| isa.is_supported()).collect();
        assert!(variants.contains(&kernels::Isa::Portable));
        assert!(variants.contains(&kernels::Isa::selected()));
        assert_eq!(kernel_isa(), kernels::Isa::selected().name());

        let mut scratch = Vec::new();
        for (m, k, n) in shapes {
            let a = noise(m, k, 1);
            let b = noise(k, n, 2);
            let g = noise(m, n, 3);
            // Every product starts from a non-zero destination, as the tape's
            // gradient accumulation does.
            let start_mn = noise(m, n, 4);
            let start_kn = noise(k, n, 5);
            let start_mk = noise(m, k, 6);
            let mut want = start_mn.data().to_vec();
            textbook(&mut want, &a, &b);
            let mut want_ta = start_kn.data().to_vec();
            textbook(&mut want_ta, &a.transpose(), &g);
            let mut want_tb = start_mk.data().to_vec();
            textbook(&mut want_tb, &g, &b.transpose());
            for isa in &variants {
                let what = |kernel| format!("{isa:?} {kernel} at m={m} k={k} n={n}");
                let mut got = start_mn.data().to_vec();
                isa.matmul(&mut got, a.data(), b.data(), m, k, n);
                assert_bits(&got, &want, &what("matmul"));
                let mut got = start_kn.data().to_vec();
                isa.matmul_transpose_a(&mut got, a.data(), g.data(), m, k, n);
                assert_bits(&got, &want_ta, &what("matmul_transpose_a"));
                let mut got = start_mk.data().to_vec();
                isa.matmul_transpose_b(&mut got, g.data(), b.data(), m, n, k, &mut scratch);
                assert_bits(&got, &want_tb, &what("matmul_transpose_b"));
            }
        }
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
