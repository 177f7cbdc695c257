use crate::{Tensor2, TensorError};

/// A dense, row-major 3-D `f32` tensor with shape `(d0, d1, d2)`.
///
/// In the PPM the Pair Representation has shape `(Ns, Ns, Hz)`: `d0`/`d1`
/// index the amino-acid pair and `d2` is the hidden channel. A *token* is
/// the `d2`-direction vector at a fixed `(i, j)`.
///
/// # Example
///
/// ```
/// use ln_tensor::Tensor3;
///
/// let mut t = Tensor3::zeros(2, 2, 3);
/// t.token_mut(0, 1)[2] = 7.0;
/// assert_eq!(t.at(0, 1, 2), 7.0);
/// assert_eq!(t.num_tokens(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3 {
    d0: usize,
    d1: usize,
    d2: usize,
    data: Vec<f32>,
}

impl Tensor3 {
    /// Creates a `(d0, d1, d2)` tensor filled with zeros.
    pub fn zeros(d0: usize, d1: usize, d2: usize) -> Self {
        Tensor3 {
            d0,
            d1,
            d2,
            data: vec![0.0; d0 * d1 * d2],
        }
    }

    /// Creates a tensor from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the length does not equal
    /// `d0 * d1 * d2`.
    pub fn from_vec(d0: usize, d1: usize, d2: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != d0 * d1 * d2 {
            return Err(TensorError::LengthMismatch {
                expected: d0 * d1 * d2,
                actual: data.len(),
            });
        }
        Ok(Tensor3 { d0, d1, d2, data })
    }

    /// Creates a tensor by evaluating `f(i, j, k)` for every element.
    pub fn from_fn(
        d0: usize,
        d1: usize,
        d2: usize,
        mut f: impl FnMut(usize, usize, usize) -> f32,
    ) -> Self {
        let mut data = Vec::with_capacity(d0 * d1 * d2);
        for i in 0..d0 {
            for j in 0..d1 {
                for k in 0..d2 {
                    data.push(f(i, j, k));
                }
            }
        }
        Tensor3 { d0, d1, d2, data }
    }

    /// Shape as `(d0, d1, d2)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.d0, self.d1, self.d2)
    }

    /// First dimension size.
    pub fn d0(&self) -> usize {
        self.d0
    }

    /// Second dimension size.
    pub fn d1(&self) -> usize {
        self.d1
    }

    /// Third (channel) dimension size.
    pub fn d2(&self) -> usize {
        self.d2
    }

    /// Number of tokens, i.e. `d0 * d1`.
    pub fn num_tokens(&self) -> usize {
        self.d0 * self.d1
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
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

    /// Element at `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> f32 {
        assert!(
            i < self.d0 && j < self.d1 && k < self.d2,
            "index ({i},{j},{k}) out of bounds for {:?}",
            self.shape()
        );
        self.data[(i * self.d1 + j) * self.d2 + k]
    }

    /// Sets the element at `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, value: f32) {
        assert!(
            i < self.d0 && j < self.d1 && k < self.d2,
            "index ({i},{j},{k}) out of bounds for {:?}",
            self.shape()
        );
        self.data[(i * self.d1 + j) * self.d2 + k] = value;
    }

    /// Immutable view of the token (channel vector) at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= d0` or `j >= d1`.
    #[inline]
    pub fn token(&self, i: usize, j: usize) -> &[f32] {
        assert!(
            i < self.d0 && j < self.d1,
            "token ({i},{j}) out of bounds for {:?}",
            self.shape()
        );
        let base = (i * self.d1 + j) * self.d2;
        &self.data[base..base + self.d2]
    }

    /// Mutable view of the token at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= d0` or `j >= d1`.
    #[inline]
    pub fn token_mut(&mut self, i: usize, j: usize) -> &mut [f32] {
        assert!(
            i < self.d0 && j < self.d1,
            "token ({i},{j}) out of bounds for {:?}",
            self.shape()
        );
        let base = (i * self.d1 + j) * self.d2;
        &mut self.data[base..base + self.d2]
    }

    /// Reinterprets the tensor as a `(d0*d1, d2)` token matrix (copying).
    pub fn to_token_matrix(&self) -> Tensor2 {
        Tensor2::from_vec(self.d0 * self.d1, self.d2, self.data.clone())
            .expect("shape is consistent by construction")
    }

    /// Consumes the tensor into a `(d0*d1, d2)` token matrix without copying.
    pub fn into_token_matrix(self) -> Tensor2 {
        Tensor2::from_vec(self.d0 * self.d1, self.d2, self.data)
            .expect("shape is consistent by construction")
    }

    /// Rebuilds a `(d0, d1, d2)` tensor from a `(d0*d1, d2)` token matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the matrix shape is not
    /// `(d0 * d1, d2)`.
    pub fn from_token_matrix(d0: usize, d1: usize, m: Tensor2) -> Result<Self, TensorError> {
        if m.rows() != d0 * d1 {
            return Err(TensorError::ShapeMismatch {
                op: "from_token_matrix",
                lhs: vec![d0, d1],
                rhs: vec![m.rows(), m.cols()],
            });
        }
        let d2 = m.cols();
        Tensor3::from_vec(d0, d1, d2, m.into_vec())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Tensor3) -> Result<Tensor3, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add3",
                lhs: vec![self.d0, self.d1, self.d2],
                rhs: vec![rhs.d0, rhs.d1, rhs.d2],
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        Ok(Tensor3 {
            d0: self.d0,
            d1: self.d1,
            d2: self.d2,
            data,
        })
    }

    /// In-place element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor3) -> Result<(), TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign3",
                lhs: vec![self.d0, self.d1, self.d2],
                rhs: vec![rhs.d0, rhs.d1, rhs.d2],
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Root-mean-square difference against `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn rmse(&self, rhs: &Tensor3) -> Result<f32, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "rmse3",
                lhs: vec![self.d0, self.d1, self.d2],
                rhs: vec![rhs.d0, rhs.d1, rhs.d2],
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

    /// Maximum absolute value over all elements.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }
}

impl Default for Tensor3 {
    fn default() -> Self {
        Tensor3::zeros(0, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor3::zeros(2, 3, 4);
        t.set(1, 2, 3, 42.0);
        assert_eq!(t.at(1, 2, 3), 42.0);
        assert_eq!(t.token(1, 2)[3], 42.0);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let t = Tensor3::from_fn(2, 2, 2, |i, j, k| (i * 100 + j * 10 + k) as f32);
        assert_eq!(
            t.as_slice(),
            &[0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0]
        );
    }

    #[test]
    fn token_matrix_round_trip() {
        let t = Tensor3::from_fn(3, 4, 5, |i, j, k| (i * 31 + j * 7 + k) as f32);
        let m = t.to_token_matrix();
        assert_eq!(m.shape(), (12, 5));
        let back = Tensor3::from_token_matrix(3, 4, m).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn from_token_matrix_rejects_bad_rows() {
        let m = Tensor2::zeros(5, 3);
        assert!(Tensor3::from_token_matrix(2, 3, m).is_err());
    }

    #[test]
    fn add_and_rmse() {
        let a = Tensor3::from_fn(2, 2, 2, |_, _, _| 1.0);
        let b = Tensor3::from_fn(2, 2, 2, |_, _, _| 2.0);
        let c = a.add(&b).unwrap();
        assert_eq!(c.at(0, 0, 0), 3.0);
        assert!((a.rmse(&b).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn num_tokens_counts_pair_positions() {
        let t = Tensor3::zeros(3, 5, 7);
        assert_eq!(t.num_tokens(), 15);
    }
}
