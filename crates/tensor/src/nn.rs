//! Neural-network building blocks used by the PPM folding trunk.
//!
//! Everything operates *token-wise* on [`Tensor2`] matrices of shape
//! `(tokens, channels)`: linear layers transform the channel dimension,
//! LayerNorm normalises each token, and softmax normalises each row.
//!
//! A [`Linear`] fuses its bias and at most one [`Activation`] (sigmoid,
//! ReLU) into the GEMM epilogue, bit-identical to applying them afterwards.
//! Nothing here fuses two layers: a gate, `sigmoid(gate(x)) ⊙ proj(x)`, is
//! two products and a Hadamard product where it is used.

use crate::microkernel::Epilogue;
use crate::rng;
use crate::rng::Rng;
use crate::{simd, vmath, Tensor2, TensorError};

/// A dense affine layer `y = x W + b` over the channel dimension.
///
/// Weights are stored `(in_features, out_features)` so that a token matrix
/// `(tokens, in)` maps to `(tokens, out)` by plain matrix multiplication.
///
/// # Example
///
/// ```
/// use ln_tensor::{Tensor2, nn::Linear};
///
/// # fn main() -> Result<(), ln_tensor::TensorError> {
/// let layer = Linear::deterministic("demo", 4, 2, 1.0);
/// let x = Tensor2::zeros(3, 4);
/// let y = layer.forward(&x)?;
/// assert_eq!(y.shape(), (3, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Tensor2,
    bias: Vec<f32>,
}

impl Linear {
    /// Builds a layer from explicit weight `(in, out)` and bias (length `out`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `bias.len() != weight.cols()`.
    pub fn new(weight: Tensor2, bias: Vec<f32>) -> Result<Self, TensorError> {
        if bias.len() != weight.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "linear_new",
                lhs: vec![weight.rows(), weight.cols()],
                rhs: vec![bias.len()],
            });
        }
        Ok(Linear { weight, bias })
    }

    /// Deterministically initialises a layer from a seed label.
    ///
    /// Weights are approximately normal with a Xavier-style standard
    /// deviation `gain / sqrt(in_features)`; biases start at zero. `gain`
    /// lets the PPM engineer per-layer activation magnitudes (see
    /// `ln-ppm`'s activation-statistics design).
    pub fn deterministic(label: &str, in_features: usize, out_features: usize, gain: f32) -> Self {
        let mut rng = rng::stream(label);
        let std = gain / (in_features.max(1) as f32).sqrt();
        let mut data = vec![0.0f32; in_features * out_features];
        rng::fill_normal(&mut rng, &mut data, std);
        let weight = Tensor2::from_vec(in_features, out_features, data)
            .expect("shape is consistent by construction");
        Linear {
            weight,
            bias: vec![0.0; out_features],
        }
    }

    /// Deterministic initialisation with a bias drawn uniformly from
    /// `[-bias_range, bias_range]`.
    ///
    /// Non-zero biases model the "biasing and merging with Sequence
    /// Representation" the paper identifies as a source of unpredictable
    /// outliers (§4.1).
    pub fn deterministic_with_bias(
        label: &str,
        in_features: usize,
        out_features: usize,
        gain: f32,
        bias_range: f32,
    ) -> Self {
        let mut layer = Self::deterministic(label, in_features, out_features, gain);
        let mut rng = rng::stream_indexed(label, 0xb1a5);
        for b in &mut layer.bias {
            *b = (rng.gen::<f32>() * 2.0 - 1.0) * bias_range;
        }
        layer
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix `(in, out)`.
    pub fn weight(&self) -> &Tensor2 {
        &self.weight
    }

    /// The bias vector (length `out`).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Number of parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Applies the layer to a `(tokens, in)` matrix.
    ///
    /// The bias add is fused into the GEMM epilogue — bit-identical to the
    /// historical matmul-then-bias-pass sequence.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.cols() != in_features`.
    pub fn forward(&self, x: &Tensor2) -> Result<Tensor2, TensorError> {
        x.matmul_epilogue(&self.weight, &self.epilogue(Activation::None))
    }

    /// [`Linear::forward`] written into `out`, whatever it held.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.cols() != in_features`
    /// or `out` is not `(x.rows(), out_features)`.
    pub fn forward_into(&self, x: &Tensor2, out: &mut Tensor2) -> Result<(), TensorError> {
        x.matmul_epilogue_into(&self.weight, &self.epilogue(Activation::None), out)
    }

    /// Tokens `first ..` of `act(x W + b)` — `out.len() / out_features` of
    /// them, row-major — written into `out`, whatever it held, with the
    /// activation fused into the epilogue. Each row has the bits of the
    /// same row of [`Linear::forward`] followed by [`Activation::apply`]
    /// ([`Tensor2::matmul_epilogue_rows_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.cols() != in_features`,
    /// `out` is not a whole number of rows, or the rows run past `x`'s last.
    pub fn forward_rows_into(
        &self,
        x: &Tensor2,
        first: usize,
        act: Activation,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        x.matmul_epilogue_rows_into(first, &self.weight, &self.epilogue(act), out)
    }

    fn epilogue(&self, act: Activation) -> Epilogue<'_> {
        match act {
            Activation::None => Epilogue::Bias(&self.bias),
            Activation::Sigmoid => Epilogue::BiasSigmoid(&self.bias),
            Activation::Relu => Epilogue::BiasRelu(&self.bias),
        }
    }
}

/// What a [`Linear`]'s output passes through before anything reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// The affine output itself.
    None,
    /// [`sigmoid`].
    Sigmoid,
    /// [`relu`].
    Relu,
}

impl Activation {
    /// Applies the activation to `x` in place: the bits
    /// [`Linear::forward_rows_into`] fuses into its epilogue.
    pub fn apply(self, x: &mut Tensor2) {
        match self {
            Activation::None => {}
            Activation::Sigmoid => sigmoid_inplace(x),
            Activation::Relu => relu_inplace(x),
        }
    }
}

/// Per-token layer normalisation with learned scale and shift.
///
/// Each row (token) is normalised to zero mean / unit variance, then scaled
/// by `gamma` and shifted by `beta`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    epsilon: f32,
}

impl LayerNorm {
    /// Creates a LayerNorm with unit scale and zero shift.
    pub fn new(features: usize) -> Self {
        LayerNorm {
            gamma: vec![1.0; features],
            beta: vec![0.0; features],
            epsilon: 1e-5,
        }
    }

    /// Creates a LayerNorm with deterministic near-unit scale parameters.
    ///
    /// `spread` perturbs `gamma` within `[1-spread, 1+spread]` so channels
    /// stay statistically similar (the paper's small cross-channel variance,
    /// Fig. 5(a)) while not being exactly uniform.
    pub fn deterministic(label: &str, features: usize, spread: f32) -> Self {
        Self::deterministic_scaled(label, features, spread, 1.0)
    }

    /// Like [`LayerNorm::deterministic`] but with `gamma` centred on `scale`
    /// instead of 1.
    ///
    /// The PPM uses this to reproduce the paper's measured post-LayerNorm
    /// activation magnitudes (Group B averages ≈ 4, Fig. 6(c)): trained
    /// models develop LayerNorm gains well above 1, which a unit-gamma
    /// initialisation would not show.
    pub fn deterministic_scaled(label: &str, features: usize, spread: f32, scale: f32) -> Self {
        let mut rng = rng::stream(label);
        let gamma = (0..features)
            .map(|_| (1.0 + (rng.gen::<f32>() * 2.0 - 1.0) * spread) * scale)
            .collect();
        let beta = (0..features)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * spread * 0.5 * scale)
            .collect();
        LayerNorm {
            gamma,
            beta,
            epsilon: 1e-5,
        }
    }

    /// Number of normalised channels.
    pub fn features(&self) -> usize {
        self.gamma.len()
    }

    /// Number of parameters (gamma + beta).
    pub fn num_params(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }

    /// Applies the normalisation to a `(tokens, features)` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the channel counts differ.
    pub fn forward(&self, x: &Tensor2) -> Result<Tensor2, TensorError> {
        let mut out = Tensor2::zeros(x.rows(), x.cols());
        self.forward_into(x, &mut out)?;
        Ok(out)
    }

    /// [`LayerNorm::forward`] written into `out`, whatever it held.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the channel counts differ
    /// or `out` does not have `x`'s shape.
    pub fn forward_into(&self, x: &Tensor2, out: &mut Tensor2) -> Result<(), TensorError> {
        if x.cols() != self.gamma.len() || out.shape() != x.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "layer_norm",
                lhs: vec![x.rows(), x.cols()],
                rhs: vec![self.gamma.len()],
            });
        }
        let cols = x.cols();
        if cols == 0 || x.rows() == 0 {
            return Ok(());
        }
        // Rows normalise independently — mean and variance are
        // `vmath`'s fixed-lane sums of the row alone — so row-chunk
        // parallelism is bit-identical to the serial loop.
        let rows_per_chunk = ln_par::chunk_len(x.rows(), ROW_PAR_GRAIN_ELEMS.div_ceil(cols));
        let gamma = &self.gamma;
        let beta = &self.beta;
        let epsilon = self.epsilon;
        let chunk_len = rows_per_chunk * cols;
        ln_par::par_chunks_mut(out.as_mut_slice(), chunk_len, |c, chunk| {
            let src = &x.as_slice()[c * chunk_len..][..chunk.len()];
            simd::wide(
                #[inline(always)]
                || {
                    for (row, src) in chunk.chunks_mut(cols).zip(src.chunks(cols)) {
                        let n = src.len() as f32;
                        let mean = vmath::sum(src) / n;
                        let var = vmath::sum_squared_deviations(src, mean) / n;
                        let inv = 1.0 / (var + epsilon).sqrt();
                        for ((o, v), (g, b)) in row.iter_mut().zip(src).zip(gamma.iter().zip(beta))
                        {
                            *o = (v - mean) * inv * g + b;
                        }
                    }
                },
            );
        });
        Ok(())
    }
}

/// Minimum elements per chunk for the row-parallel pointwise ops
/// (layer-norm, softmax); below this the work runs inline. Pointwise work
/// is a few ns per element, so a chunk must carry tens of microseconds of
/// it before a pool handoff pays for itself.
const ROW_PAR_GRAIN_ELEMS: usize = 1 << 15;

/// Row-wise numerically-stable softmax.
///
/// Each row of the result sums to 1 (see [`softmax_inplace`]).
pub fn softmax_rows(x: &Tensor2) -> Tensor2 {
    let mut out = x.clone();
    let cols = out.cols();
    if cols == 0 || out.rows() == 0 {
        return out;
    }
    let rows_per_chunk = ln_par::chunk_len(out.rows(), ROW_PAR_GRAIN_ELEMS.div_ceil(cols));
    ln_par::par_chunks_mut(out.as_mut_slice(), rows_per_chunk * cols, |_, chunk| {
        simd::wide(
            #[inline(always)]
            || {
                for row in chunk.chunks_mut(cols) {
                    vmath::softmax_inplace(row);
                }
            },
        );
    });
    out
}

/// Numerically-stable softmax over a single slice, in place:
/// [`vmath::softmax_inplace`] at the host's vector width. A row with no
/// score above `−∞` becomes zeros and a NaN score makes its whole row NaN
/// (the table in [`vmath`]'s docs).
pub fn softmax_inplace(row: &mut [f32]) {
    simd::wide(
        #[inline(always)]
        || vmath::softmax_inplace(row),
    );
}

/// Element-wise ReLU.
pub fn relu(x: &Tensor2) -> Tensor2 {
    x.map(relu_scalar)
}

/// [`relu`] in place.
pub fn relu_inplace(x: &mut Tensor2) {
    x.map_inplace(relu_scalar);
}

fn relu_scalar(v: f32) -> f32 {
    v.max(0.0)
}

/// Element-wise logistic sigmoid ([`vmath::sigmoid`]).
pub fn sigmoid(x: &Tensor2) -> Tensor2 {
    let mut out = x.clone();
    sigmoid_inplace(&mut out);
    out
}

/// [`sigmoid`] in place.
pub fn sigmoid_inplace(x: &mut Tensor2) {
    simd::wide(
        #[inline(always)]
        || {
            for v in x.as_mut_slice() {
                *v = vmath::sigmoid(*v);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_identity_weight_passes_through() {
        let layer = Linear::new(Tensor2::identity(3), vec![0.0; 3]).unwrap();
        let x = Tensor2::from_fn(2, 3, |i, j| (i + j) as f32);
        assert_eq!(layer.forward(&x).unwrap(), x);
    }

    #[test]
    fn linear_applies_bias() {
        let layer = Linear::new(Tensor2::identity(2), vec![1.0, -1.0]).unwrap();
        let x = Tensor2::zeros(1, 2);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn linear_rejects_bad_bias() {
        assert!(Linear::new(Tensor2::identity(2), vec![0.0; 3]).is_err());
    }

    #[test]
    fn linear_deterministic_is_reproducible() {
        let a = Linear::deterministic("l", 8, 8, 1.0);
        let b = Linear::deterministic("l", 8, 8, 1.0);
        assert_eq!(a, b);
        let c = Linear::deterministic("m", 8, 8, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn linear_gain_scales_weight_std() {
        let small = Linear::deterministic("g", 64, 64, 0.5);
        let big = Linear::deterministic("g", 64, 64, 2.0);
        let var = |l: &Linear| {
            l.weight().as_slice().iter().map(|x| x * x).sum::<f32>() / l.weight().len() as f32
        };
        let ratio = var(&big) / var(&small);
        assert!((ratio - 16.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn layer_norm_normalises_tokens() {
        let ln = LayerNorm::new(4);
        let x = Tensor2::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = ln.forward(&x).unwrap();
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .row(0)
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_rejects_bad_width() {
        let ln = LayerNorm::new(4);
        assert!(ln.forward(&Tensor2::zeros(2, 3)).is_err());
    }

    #[test]
    fn layer_norm_deterministic_spread_is_bounded() {
        let ln = LayerNorm::deterministic("ln", 128, 0.1);
        for &g in &ln.gamma {
            assert!((0.9..=1.1).contains(&g));
        }
    }

    #[test]
    fn layer_norm_scaled_amplifies_output() {
        let ln1 = LayerNorm::deterministic_scaled("s", 32, 0.05, 1.0);
        let ln4 = LayerNorm::deterministic_scaled("s", 32, 0.05, 4.0);
        let x = Tensor2::from_fn(4, 32, |i, j| ((i * 13 + j * 7) % 17) as f32 - 8.0);
        let y1 = ln1.forward(&x).unwrap();
        let y4 = ln4.forward(&x).unwrap();
        let mean_abs =
            |t: &Tensor2| t.as_slice().iter().map(|v| v.abs()).sum::<f32>() / t.len() as f32;
        let ratio = mean_abs(&y4) / mean_abs(&y1);
        assert!((ratio - 4.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn layer_norm_sums_in_the_fixed_lanes_at_any_width() {
        // Mean and variance are `vmath`'s lane sums — here against the
        // spelled-out lane order — and the rest is one expression per
        // element; three tokens, so a row's sums are its own.
        use crate::vmath::tests::{row, sum_reference, LENGTHS};
        for features in LENGTHS.into_iter().filter(|&f| f > 0) {
            let ln = LayerNorm::deterministic_scaled("lanes", features, 0.2, 5.0);
            let x = Tensor2::from_vec(3, features, row(3 * features, features)).unwrap();
            let got = ln.forward(&x).unwrap();
            for t in 0..3 {
                let src = x.row(t);
                let n = features as f32;
                let mean = sum_reference(src) / n;
                let squares: Vec<f32> = src.iter().map(|v| (v - mean) * (v - mean)).collect();
                let inv = 1.0 / (sum_reference(&squares) / n + ln.epsilon).sqrt();
                for (c, (o, v)) in got.row(t).iter().zip(src).enumerate() {
                    let want = (v - mean) * inv * ln.gamma[c] + ln.beta[c];
                    assert_eq!(o.to_bits(), want.to_bits(), "width {features} ({t}, {c})");
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor2::from_fn(3, 5, |i, j| (i * j) as f32 - 2.0);
        let s = softmax_rows(&x);
        for i in 0..3 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(i).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_values() {
        let mut row = vec![1000.0f32, 1001.0, 1002.0];
        softmax_inplace(&mut row);
        assert!(row.iter().all(|v| v.is_finite()));
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn fused_epilogues_match_unfused_sequences_bitwise() {
        let x = Tensor2::from_fn(9, 24, |i, j| ((i * 13 + j * 7) % 19) as f32 * 0.21 - 1.7);
        let layer = Linear::deterministic_with_bias("fused", 24, 16, 1.0, 0.4);
        let base = layer.forward(&x).unwrap();
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for act in [Activation::None, Activation::Sigmoid, Activation::Relu] {
            let mut unfused = base.clone();
            act.apply(&mut unfused);
            // Every row, then rows 3 .. 7 alone.
            let mut fused = vec![f32::NAN; 9 * 16];
            layer.forward_rows_into(&x, 0, act, &mut fused).unwrap();
            assert_eq!(bits(&fused), bits(unfused.as_slice()), "{act:?}");
            let mut rows = vec![f32::NAN; 4 * 16];
            layer.forward_rows_into(&x, 3, act, &mut rows).unwrap();
            assert_eq!(bits(&rows), bits(&unfused.as_slice()[3 * 16..7 * 16]));
        }
        // Past the last token, or not a whole number of rows.
        assert!(layer
            .forward_rows_into(&x, 6, Activation::Relu, &mut [0.0; 4 * 16])
            .is_err());
        assert!(layer
            .forward_rows_into(&x, 0, Activation::Relu, &mut [0.0; 15])
            .is_err());
    }

    #[test]
    fn into_forms_overwrite_a_wrong_valued_out_with_the_allocating_bits() {
        let x = Tensor2::from_fn(9, 24, |i, j| ((i * 13 + j * 7) % 19) as f32 * 0.21 - 1.7);
        let layer = Linear::deterministic_with_bias("into", 24, 16, 1.0, 0.4);
        let ln = LayerNorm::deterministic("into_ln", 24, 0.1);
        let bits = |t: &Tensor2| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let stale = || Tensor2::full(9, 16, f32::NAN);

        let mut out = stale();
        layer.forward_into(&x, &mut out).unwrap();
        assert_eq!(bits(&out), bits(&layer.forward(&x).unwrap()));
        let mut normed = Tensor2::full(9, 24, f32::NAN);
        ln.forward_into(&x, &mut normed).unwrap();
        assert_eq!(bits(&normed), bits(&ln.forward(&x).unwrap()));

        let mut pre = layer.forward(&x).unwrap();
        let (s, r) = (sigmoid(&pre), relu(&pre));
        relu_inplace(&mut pre);
        assert_eq!(bits(&pre), bits(&r));
        pre = layer.forward(&x).unwrap();
        sigmoid_inplace(&mut pre);
        assert_eq!(bits(&pre), bits(&s));

        let mut wrong = Tensor2::zeros(9, 15);
        assert!(layer.forward_into(&x, &mut wrong).is_err());
        assert!(ln.forward_into(&x, &mut wrong).is_err());
    }

    #[test]
    fn activations_basic_shapes() {
        let x = Tensor2::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        assert_eq!(relu(&x).row(0), &[0.0, 0.0, 2.0]);
        let s = sigmoid(&x);
        assert!((s.at(0, 1) - 0.5).abs() < 1e-6);
    }
}
