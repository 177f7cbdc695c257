use crate::microkernel::{self, Epilogue};
use crate::TensorError;

/// A dense, row-major 2-D `f32` matrix.
///
/// `Tensor2` is the workhorse of the reproduction: PPM computations are
/// token-wise, so activations are `(tokens, channels)` matrices where each
/// row is one token.
///
/// # Example
///
/// ```
/// use ln_tensor::Tensor2;
///
/// # fn main() -> Result<(), ln_tensor::TensorError> {
/// let a = Tensor2::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor2::identity(2);
/// assert_eq!(a.matmul(&b)?, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor2 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor2 {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor2 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor2 {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut t = Tensor2::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Tensor2 { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Tensor2 { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {:?}",
            (self.rows, self.cols)
        );
        self.data[i * self.cols + j]
    }

    /// Sets the element at `(i, j)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f32) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {:?}",
            (self.rows, self.cols)
        );
        self.data[i * self.cols + j] = value;
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Extracts column `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(
            j < self.cols,
            "col {j} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Matrix product `self × rhs`.
    ///
    /// Runs on the register-tiled [`microkernel`] (packed panels, per-size-
    /// class tile shapes) and is parallelised across output-row chunks on
    /// the `ln-par` pool. Every output element accumulates its `k` terms in
    /// ascending order into one `f32`, so results are bit-identical to the
    /// reference triple loop and to serial execution for any pool size (see
    /// the ln-par crate docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Tensor2) -> Result<Tensor2, TensorError> {
        self.matmul_epilogue(rhs, &Epilogue::None)
    }

    /// Matrix product `self × rhs` with a fused [`Epilogue`]: one more
    /// pass over each `ln-par` row chunk once its GEMM has finished.
    ///
    /// The epilogue reproduces the arithmetic of the unfused sequence
    /// (matmul, then a bias pass, then an activation map) bit for bit while
    /// never materialising the intermediate tensor between them; `tri_mul`,
    /// `tri_attn` and `transition` route their projection + activation
    /// sub-stages through this entry point.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols != rhs.rows`
    /// or when an epilogue vector's length differs from the output width.
    pub fn matmul_epilogue(
        &self,
        rhs: &Tensor2,
        epilogue: &Epilogue,
    ) -> Result<Tensor2, TensorError> {
        let mut out = Tensor2::zeros(self.rows, rhs.cols);
        self.matmul_epilogue_into(rhs, epilogue, &mut out)?;
        Ok(out)
    }

    /// [`Tensor2::matmul`] written into `out`, which is overwritten — for
    /// callers that reuse one output buffer across many products.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols != rhs.rows`
    /// or `out` is not `(self.rows, rhs.cols)`.
    pub fn matmul_into(&self, rhs: &Tensor2, out: &mut Tensor2) -> Result<(), TensorError> {
        self.matmul_epilogue_into(rhs, &Epilogue::None, out)
    }

    /// [`Tensor2::matmul_epilogue`] written into `out`, whatever it held
    /// (it is zero-filled first: the microkernel accumulates).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols != rhs.rows`,
    /// an epilogue vector's length differs from the output width, or `out`
    /// is not `(self.rows, rhs.cols)`.
    pub fn matmul_epilogue_into(
        &self,
        rhs: &Tensor2,
        epilogue: &Epilogue,
        out: &mut Tensor2,
    ) -> Result<(), TensorError> {
        if out.shape() != (self.rows, rhs.cols) {
            return Err(self.matmul_mismatch(rhs));
        }
        self.matmul_epilogue_rows_into(0, rhs, epilogue, &mut out.data)
    }

    /// Rows `first ..` of [`Tensor2::matmul_epilogue`] — `out.len() /
    /// rhs.cols` of them, row-major — written into `out`, whatever it held.
    /// Each row has the bits of the same row of the whole product: an
    /// output element is a k-ascending fold whichever rows share its call.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols != rhs.rows`,
    /// an epilogue vector's length differs from the output width, `out` is
    /// not a whole number of rows, or the rows run past `self`'s last.
    pub fn matmul_epilogue_rows_into(
        &self,
        first: usize,
        rhs: &Tensor2,
        epilogue: &Epilogue,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        let (k, n) = (self.cols, rhs.cols);
        let rows = out.len().checked_div(n).unwrap_or(0);
        if k != rhs.rows
            || !epilogue_fits(epilogue, n)
            || rows * n != out.len()
            || first + rows > self.rows
        {
            return Err(self.matmul_mismatch(rhs));
        }
        if rows == 0 {
            return Ok(());
        }
        out.fill(0.0);
        ln_par::metrics::time_kernel("tensor2.matmul", (rows * n) as u64, || {
            let rows_per_chunk = matmul_chunk_rows(rows, k, n);
            let a = &self.data;
            let b = &rhs.data;
            ln_par::par_chunks_mut(out, rows_per_chunk * n, |c, chunk| {
                microkernel::gemm(a, b, k, n, first + c * rows_per_chunk, chunk, epilogue);
            });
        });
        Ok(())
    }

    fn matmul_mismatch(&self, rhs: &Tensor2) -> TensorError {
        TensorError::ShapeMismatch {
            op: "matmul",
            lhs: vec![self.rows, self.cols],
            rhs: vec![rhs.rows, rhs.cols],
        }
    }

    /// Matrix product `self × rhsᵀ` without materialising the transpose.
    ///
    /// Same register-tiled microkernel as [`Tensor2::matmul`] with a
    /// transposed B packing routine; each output element is k-ascending,
    /// bit-identical to the serial kernel.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols != rhs.cols`.
    pub fn matmul_transposed(&self, rhs: &Tensor2) -> Result<Tensor2, TensorError> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transposed",
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        let mut out = Tensor2::zeros(self.rows, rhs.rows);
        self.matmul_transposed_onto(rhs, &mut out);
        Ok(out)
    }

    /// [`Tensor2::matmul_transposed`] written into `out`, which is
    /// overwritten — for callers that reuse one output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols != rhs.cols`
    /// or `out` is not `(self.rows, rhs.rows)`.
    pub fn matmul_transposed_into(
        &self,
        rhs: &Tensor2,
        out: &mut Tensor2,
    ) -> Result<(), TensorError> {
        if self.cols != rhs.cols || out.shape() != (self.rows, rhs.rows) {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transposed_into",
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        out.data.fill(0.0);
        self.matmul_transposed_onto(rhs, out);
        Ok(())
    }

    /// The GEMM behind [`Tensor2::matmul_transposed`]: accumulates onto a
    /// zeroed, shape-checked `out`.
    fn matmul_transposed_onto(&self, rhs: &Tensor2, out: &mut Tensor2) {
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        if m == 0 || n == 0 {
            return;
        }
        ln_par::metrics::time_kernel("tensor2.matmul_t", (m * n) as u64, || {
            let rows_per_chunk = matmul_chunk_rows(m, k, n);
            let a = &self.data;
            let b = &rhs.data;
            ln_par::par_chunks_mut(out.as_mut_slice(), rows_per_chunk * n, |c, chunk| {
                microkernel::gemm_bt(a, b, k, n, c * rows_per_chunk, chunk, &Epilogue::None);
            });
        });
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Tensor2 {
        let mut out = Tensor2::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Tensor2) -> Result<Tensor2, TensorError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Tensor2) -> Result<Tensor2, TensorError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product `self ⊙ rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn hadamard(&self, rhs: &Tensor2) -> Result<Tensor2, TensorError> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// In-place element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor2) -> Result<(), TensorError> {
        self.zip_assign(rhs, "add_assign", |a, b| a + b)
    }

    /// In-place Hadamard product `self ⊙= rhs`, the bits of
    /// [`Tensor2::hadamard`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn hadamard_assign(&mut self, rhs: &Tensor2) -> Result<(), TensorError> {
        self.zip_assign(rhs, "hadamard_assign", |a, b| a * b)
    }

    /// In-place `self += rhs · factor`: the product is rounded, then the
    /// sum — the bits of `rhs.scaled(factor)` followed by
    /// [`Tensor2::add_assign`], without the scaled copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_scaled_assign(&mut self, rhs: &Tensor2, factor: f32) -> Result<(), TensorError> {
        self.zip_assign(rhs, "add_scaled_assign", |a, b| a + b * factor)
    }

    /// Returns a copy with every element multiplied by `factor`.
    pub fn scaled(&self, factor: f32) -> Tensor2 {
        self.map(|x| x * factor)
    }

    /// Returns a copy with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor2 {
        Tensor2 {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Maximum absolute value over all elements (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Root-mean-square difference against `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn rmse(&self, rhs: &Tensor2) -> Result<f32, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "rmse",
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        if self.is_empty() {
            return Ok(0.0);
        }
        let sum: f64 = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum();
        Ok((sum / self.data.len() as f64).sqrt() as f32)
    }

    fn zip_assign(
        &mut self,
        rhs: &Tensor2,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<(), TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a = f(*a, b);
        }
        Ok(())
    }

    fn zip_with(
        &self,
        rhs: &Tensor2,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor2, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        Ok(Tensor2 {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

/// Approximate flop count below which a matmul is not worth a thread
/// crossing; the per-call row grain is derived from it. Coarser than the
/// pre-microkernel value (2^19): packed-panel GEMM chunks are cheap per
/// element, so pool dispatch only amortises over larger row blocks.
const MATMUL_PAR_FLOPS: usize = 1 << 21;

/// Rows per parallel chunk for a `(m, k, n)` GEMM: derived from the flop
/// threshold and rounded up to a multiple of the microkernel row tile so
/// chunk seams land on tile boundaries.
fn matmul_chunk_rows(m: usize, k: usize, n: usize) -> usize {
    let grain_rows = (MATMUL_PAR_FLOPS / (k * n).max(1)).max(microkernel::MR);
    let grain_rows = grain_rows.div_ceil(microkernel::MR) * microkernel::MR;
    ln_par::chunk_len(m, grain_rows)
}

/// Checks the epilogue's parameter vectors against the output width.
fn epilogue_fits(ep: &Epilogue, n: usize) -> bool {
    match *ep {
        Epilogue::None => true,
        Epilogue::Bias(b) | Epilogue::BiasSigmoid(b) | Epilogue::BiasRelu(b) => b.len() == n,
    }
}

impl Default for Tensor2 {
    fn default() -> Self {
        Tensor2::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor2::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Tensor2::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor2::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor2::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_transposed_equals_explicit_transpose() {
        let a = Tensor2::from_fn(3, 4, |i, j| (i * 7 + j * 3) as f32 * 0.25 - 1.0);
        let b = Tensor2::from_fn(5, 4, |i, j| (i * 2 + j) as f32 * 0.5 - 2.0);
        let fast = a.matmul_transposed(&b).unwrap();
        let slow = a.matmul(&b.transposed()).unwrap();
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn into_variants_overwrite_a_reused_buffer_with_the_same_bits() {
        let a = Tensor2::from_fn(5, 7, |i, j| (i * 7 + j * 3) as f32 * 0.25 - 1.0);
        let b = Tensor2::from_fn(7, 6, |i, j| (i * 2 + j) as f32 * 0.3 - 2.0);
        let bt = b.transposed();
        // Stale contents must not leak into the product.
        let mut out = Tensor2::full(5, 6, 9.0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        out = Tensor2::full(5, 6, -3.0);
        a.matmul_transposed_into(&bt, &mut out).unwrap();
        assert_eq!(out, a.matmul_transposed(&bt).unwrap());
        let mut wrong = Tensor2::zeros(5, 5);
        assert!(a.matmul_into(&b, &mut wrong).is_err());
        assert!(a.matmul_transposed_into(&bt, &mut wrong).is_err());
    }

    #[test]
    fn a_row_range_has_the_bits_of_the_same_rows_of_the_whole_product() {
        let a = Tensor2::from_fn(37, 70, |i, j| ((i * 7 + j * 3) % 23) as f32 * 0.173 - 1.9);
        let b = Tensor2::from_fn(70, 45, |i, j| ((i * 2 + j * 5) % 19) as f32 * 0.211 - 2.1);
        let bias: Vec<f32> = (0..45).map(|j| j as f32 * 0.05 - 1.0).collect();
        let ep = Epilogue::BiasRelu(&bias);
        let whole = a.matmul_epilogue(&b, &ep).unwrap();
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Off the tile's row boundary, across it, one row, the last rows.
        for (first, rows) in [(0, 37), (0, 5), (3, 9), (4, 16), (13, 1), (30, 7), (37, 0)] {
            let mut out = vec![f32::NAN; rows * 45];
            a.matmul_epilogue_rows_into(first, &b, &ep, &mut out)
                .unwrap();
            assert_eq!(
                bits(&out),
                bits(&whole.as_slice()[first * 45..][..rows * 45])
            );
        }
        // Past the last row, or not a whole number of rows.
        for (first, len) in [(30, 8 * 45), (38, 0), (0, 44)] {
            let mut out = vec![0.0; len];
            assert!(a
                .matmul_epilogue_rows_into(first, &b, &ep, &mut out)
                .is_err());
        }
    }

    #[test]
    fn transpose_is_involution() {
        let a = Tensor2::from_fn(3, 5, |i, j| (i + 10 * j) as f32);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor2::full(2, 2, 3.0);
        let b = Tensor2::full(2, 2, 2.0);
        assert_eq!(a.add(&b).unwrap(), Tensor2::full(2, 2, 5.0));
        assert_eq!(a.sub(&b).unwrap(), Tensor2::full(2, 2, 1.0));
        assert_eq!(a.hadamard(&b).unwrap(), Tensor2::full(2, 2, 6.0));
        let mut c = a.clone();
        c.add_assign(&b).unwrap();
        assert_eq!(c, Tensor2::full(2, 2, 5.0));
    }

    #[test]
    fn assign_forms_have_the_bits_of_the_allocating_sequences() {
        let a = Tensor2::from_fn(5, 7, |i, j| (i * 7 + j * 3) as f32 * 0.173 - 1.9);
        let b = Tensor2::from_fn(5, 7, |i, j| (i * 2 + j * 5) as f32 * 0.311 - 2.3);
        let bits = |t: &Tensor2| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut h = a.clone();
        h.hadamard_assign(&b).unwrap();
        assert_eq!(bits(&h), bits(&a.hadamard(&b).unwrap()));
        // Both operand orders: the stages gate whichever buffer is free.
        assert_eq!(bits(&h), bits(&b.hadamard(&a).unwrap()));
        let mut s = a.clone();
        s.add_scaled_assign(&b, 0.1).unwrap();
        let mut two_step = a.clone();
        two_step.add_assign(&b.scaled(0.1)).unwrap();
        assert_eq!(bits(&s), bits(&two_step));
        let wrong = Tensor2::zeros(7, 5);
        assert!(h.hadamard_assign(&wrong).is_err());
        assert!(s.add_scaled_assign(&wrong, 0.1).is_err());
    }

    #[test]
    fn rows_and_cols_accessors() {
        let a = Tensor2::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
        assert_eq!(a.iter_rows().count(), 2);
    }

    #[test]
    fn rmse_of_identical_is_zero() {
        let a = Tensor2::from_fn(4, 4, |i, j| (i * j) as f32);
        assert_eq!(a.rmse(&a).unwrap(), 0.0);
    }

    #[test]
    fn rmse_hand_value() {
        let a = Tensor2::from_vec(1, 2, vec![0.0, 0.0]).unwrap();
        let b = Tensor2::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        // sqrt((9 + 16) / 2) = sqrt(12.5)
        assert!((a.rmse(&b).unwrap() - 12.5f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn max_abs_and_norm() {
        let a = Tensor2::from_vec(1, 3, vec![-5.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.max_abs(), 5.0);
        assert!((a.frobenius_norm() - 38.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_panics_out_of_bounds() {
        let a = Tensor2::zeros(2, 2);
        let _ = a.at(2, 0);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor2::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        assert_eq!(a.matmul(&Tensor2::identity(4)).unwrap(), a);
    }
}
