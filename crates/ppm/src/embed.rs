//! Input embedding: sequence → Sequence Representation + Pair Representation.
//!
//! In ESMFold this stage is the ESM-2 protein language model, whose
//! attention maps carry contact/distance information that seeds the pair
//! stream. That model is not reproducible here, so the embedding instead
//! injects a *distogram encoding of the native structure* into the pair
//! representation — the same class of signal (pairwise spatial
//! relationships), produced deterministically. This is what gives PPM
//! activations their token-wise distogram pattern (§3.3): tokens at
//! spatially-close `(i, j)` pairs carry large values, and 3σ outliers
//! concentrate in those tokens.
//!
//! The encoding is *decodable*: [`crate::structure_module`] recovers the
//! distance estimate from the same channels, closing the loop from sequence
//! to 3-D structure so quantization error propagates to TM-Score exactly as
//! in the real system.

use crate::{PpmConfig, PpmError};
use ln_protein::{distance_matrix, Sequence, Structure};
use ln_tensor::{Tensor2, Tensor3};

/// Minimum supported sequence length.
pub const MIN_SEQUENCE_LEN: usize = 8;

/// Distance range covered by the distogram radial-basis channels (Å).
pub const DISTOGRAM_MIN: f32 = 3.0;
/// Upper end of the distogram range (Å); larger distances saturate.
pub const DISTOGRAM_MAX: f32 = 40.0;

/// Global scale of the pair residual stream. LayerNorm makes the trunk
/// invariant to it; it exists so the *residual-stream* (Group A)
/// activations carry the large magnitudes the paper measures (mean ≈ 82)
/// while post-LayerNorm (Group B) streams stay compressed.
pub const PAIR_STREAM_SCALE: f32 = 5.0;

/// The distogram amplitude profile: close pairs carry large activations.
///
/// This profile is the engineered source of the paper's Group-A statistics
/// (mean |x| ≈ 82 for residual-stream tokens of close pairs).
pub fn distogram_amplitude(d: f32) -> f32 {
    6.0 + 110.0 * (-d / 7.0).exp()
}

/// Number of radial-basis distogram channels for a given pair width.
pub fn distogram_channels(hz: usize) -> usize {
    hz / 2
}

/// The centre (Å) of distogram channel `c` out of `nd`.
pub fn distogram_center(c: usize, nd: usize) -> f32 {
    if nd <= 1 {
        return DISTOGRAM_MIN;
    }
    DISTOGRAM_MIN + (DISTOGRAM_MAX - DISTOGRAM_MIN) * c as f32 / (nd - 1) as f32
}

/// Radial-basis response of distogram channel `c` at distance `d`.
pub fn distogram_response(d: f32, c: usize, nd: usize) -> f32 {
    distogram_amplitude(d) * radial_basis(d, distogram_center(c, nd), distogram_sigma(nd))
}

/// The width (Å) of every distogram channel: the spacing of the centres.
fn distogram_sigma(nd: usize) -> f32 {
    (DISTOGRAM_MAX - DISTOGRAM_MIN) / (nd.max(2) - 1) as f32
}

/// The unit-height Gaussian of a channel centred at `center`.
fn radial_basis(d: f32, center: f32, sigma: f32) -> f32 {
    let z = (d - center) / sigma;
    (-0.5 * z * z).exp()
}

/// The input-embedding stage.
#[derive(Debug, Clone)]
pub struct Embedding {
    config: PpmConfig,
}

impl Embedding {
    /// Creates the embedding for a configuration.
    pub fn new(config: PpmConfig) -> Self {
        Embedding { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PpmConfig {
        &self.config
    }

    /// Embeds a sequence (with its native structure as the language-model
    /// substitute) into `(sequence_rep, pair_rep)`.
    ///
    /// # Errors
    ///
    /// Returns [`PpmError::SequenceTooShort`] for sequences below
    /// [`MIN_SEQUENCE_LEN`] and [`PpmError::NativeLengthMismatch`] when the
    /// native structure length differs from the sequence length.
    pub fn embed(
        &self,
        sequence: &Sequence,
        native: &Structure,
    ) -> Result<(Tensor2, Tensor3), PpmError> {
        let ns = sequence.len();
        if ns < MIN_SEQUENCE_LEN {
            return Err(PpmError::SequenceTooShort {
                len: ns,
                min: MIN_SEQUENCE_LEN,
            });
        }
        if native.len() != ns {
            return Err(PpmError::NativeLengthMismatch {
                sequence: ns,
                native: native.len(),
            });
        }
        let seq_rep = self.embed_sequence(sequence);
        let pair_rep = self.embed_pair(sequence, native);
        Ok((seq_rep, pair_rep))
    }

    /// Sequence Representation `(Ns, Hm)`: residue identity, physicochemical
    /// features and sinusoidal positions.
    pub fn embed_sequence(&self, sequence: &Sequence) -> Tensor2 {
        let ns = sequence.len();
        let hm = self.config.hm;
        Tensor2::from_fn(ns, hm, |i, c| {
            let aa = sequence.residue(i);
            match c % 4 {
                0 => {
                    // Residue one-hot-ish: channel family selects a residue id.
                    if (c / 4) % 20 == aa.index() {
                        2.0
                    } else {
                        0.0
                    }
                }
                1 => aa.hydropathy() * 0.3,
                2 => (aa.mass() - 110.0) / 60.0,
                _ => {
                    // Sinusoidal position with channel-dependent frequency.
                    let freq = 1.0 / (10.0f32.powf((c / 4) as f32 * 4.0 / hm as f32) * 3.0);
                    (i as f32 * freq).sin()
                }
            }
        })
    }

    /// Pair Representation `(Ns, Ns, Hz)`.
    ///
    /// Channel layout (with `nd = hz/2` distogram channels):
    ///
    /// * `0 .. nd` — distogram RBF encoding of the native Cα distance with
    ///   the close-pair amplitude profile (Group-A statistics source).
    /// * `nd .. nd + hz/4` — sinusoidal relative-position encodings.
    /// * rest — residue-pair physicochemical products.
    pub fn embed_pair(&self, sequence: &Sequence, native: &Structure) -> Tensor3 {
        let ns = sequence.len();
        let hz = self.config.hz;
        let nd = distogram_channels(hz);
        let quarter = hz / 4;
        let dm = distance_matrix(native);
        // Everything that depends on the channel alone, or on the offset
        // `j − i` alone, is computed once here rather than per element.
        let sigma = distogram_sigma(nd);
        let centers: Vec<f32> = (0..nd).map(|c| distogram_center(c, nd)).collect();
        // Heavy-tailed channel weighting: a few feature channels carry
        // near-outlier magnitudes with a continuum below — the within-token
        // structure that makes Group A require high inlier precision or
        // deep outlier handling (Fig. 11).
        let tails: Vec<f32> = (0..hz - nd - quarter)
            .map(|k| 0.3 + 5.0 * (-(k as f32) / 4.0).exp())
            .collect();
        let freqs: Vec<f32> = (0..quarter)
            .map(|k| 1.0 / (10.0f32.powf(k as f32 * 4.0 / quarter.max(1) as f32) * 2.0))
            .collect();
        // `waves[(j − i + ns − 1) · quarter + k]`: channel `k`'s wave at the
        // offset, times its 0.8 weight.
        let mut waves = Vec::with_capacity((2 * ns).saturating_sub(1) * quarter);
        for offset in 0..(2 * ns).saturating_sub(1) {
            let rel = offset as f32 - (ns - 1) as f32;
            waves.extend(freqs.iter().enumerate().map(|(k, &freq)| {
                let wave = if k.is_multiple_of(2) {
                    (rel * freq).sin()
                } else {
                    (rel * freq).cos()
                };
                wave * 0.8
            }));
        }
        let mut z = Tensor3::zeros(ns, ns, hz);
        for (t, token) in z.as_mut_slice().chunks_exact_mut(hz).enumerate() {
            let (i, j) = (t / ns, t % ns);
            let d = if i == j {
                DISTOGRAM_MIN
            } else {
                dm.at(i, j).clamp(DISTOGRAM_MIN, DISTOGRAM_MAX)
            };
            let amplitude = distogram_amplitude(d);
            // The whole token scales with the pair's "contact strength":
            // every channel of a close-pair token is large, so the
            // appropriate quantization scale is a property of the *token*
            // (Fig. 5(b)) while cross-channel scale stays comparable.
            let token_scale = 0.25 * amplitude;
            let (a, b) = (sequence.residue(i), sequence.residue(j));
            let feats = [
                a.hydropathy() * b.hydropathy() * 0.06,
                (a.mass() - 110.0) * (b.mass() - 110.0) / 7200.0,
                if a == b { 0.6 } else { -0.1 },
            ];
            let (dist, rest) = token.split_at_mut(nd);
            let (relpos, pair) = rest.split_at_mut(quarter);
            if i == j {
                // Diagonal tokens: self-distance is 0; encode a fixed
                // "self" activation on the first channel instead.
                if let Some(first) = dist.first_mut() {
                    *first = amplitude * PAIR_STREAM_SCALE;
                }
            } else {
                for (v, &center) in dist.iter_mut().zip(&centers) {
                    *v = amplitude * radial_basis(d, center, sigma) * PAIR_STREAM_SCALE;
                }
            }
            let wave_row = &waves[(j + ns - 1 - i) * quarter..][..quarter];
            for (v, &wave) in relpos.iter_mut().zip(wave_row) {
                *v = wave * token_scale * PAIR_STREAM_SCALE;
            }
            for (k, (v, &tail)) in pair.iter_mut().zip(&tails).enumerate() {
                *v = feats[k % 3] * token_scale * tail * PAIR_STREAM_SCALE;
            }
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_protein::generator::StructureGenerator;
    use ln_tensor::stats;

    fn setup(ns: usize) -> (Sequence, Structure) {
        (
            Sequence::random("emb", ns),
            StructureGenerator::new("emb").generate(ns),
        )
    }

    #[test]
    fn embed_shapes() {
        let cfg = PpmConfig::tiny();
        let (seq, native) = setup(16);
        let e = Embedding::new(cfg.clone());
        let (s, z) = e.embed(&seq, &native).unwrap();
        assert_eq!(s.shape(), (16, cfg.hm));
        assert_eq!(z.shape(), (16, 16, cfg.hz));
    }

    #[test]
    fn short_sequence_is_rejected() {
        let e = Embedding::new(PpmConfig::tiny());
        let (seq, native) = setup(4);
        assert!(matches!(
            e.embed(&seq, &native),
            Err(PpmError::SequenceTooShort { len: 4, .. })
        ));
    }

    #[test]
    fn native_mismatch_is_rejected() {
        let e = Embedding::new(PpmConfig::tiny());
        let (seq, _) = setup(16);
        let native = StructureGenerator::new("other").generate(17);
        assert!(matches!(
            e.embed(&seq, &native),
            Err(PpmError::NativeLengthMismatch { .. })
        ));
    }

    #[test]
    fn close_pairs_carry_large_tokens() {
        // The token-wise distogram pattern: tokens of spatially-close pairs
        // must have much larger mean |x| than far pairs (Fig. 5(b)).
        let cfg = PpmConfig::standard();
        let (seq, native) = setup(48);
        let z = Embedding::new(cfg).embed_pair(&seq, &native);
        let dm = distance_matrix(&native);
        let mut close = Vec::new();
        let mut far = Vec::new();
        for i in 0..48 {
            for j in 0..48 {
                if i == j {
                    continue;
                }
                let mean_abs = stats::Summary::of(z.token(i, j)).mean_abs;
                if dm.at(i, j) < 6.0 {
                    close.push(mean_abs);
                } else if dm.at(i, j) > 25.0 {
                    far.push(mean_abs);
                }
            }
        }
        assert!(!close.is_empty() && !far.is_empty());
        let mc = close.iter().sum::<f32>() / close.len() as f32;
        let mf = far.iter().sum::<f32>() / far.len() as f32;
        assert!(mc > 4.0 * mf, "close {mc} vs far {mf}");
    }

    #[test]
    fn tokens_have_within_token_outliers() {
        // The RBF encoding is sparse per token: a few channels spike, so the
        // 3σ rule finds outliers inside most off-diagonal tokens.
        let cfg = PpmConfig::standard();
        let (seq, native) = setup(32);
        let z = Embedding::new(cfg).embed_pair(&seq, &native);
        let mut with_outliers = 0;
        let mut total = 0;
        for i in 0..32 {
            for j in 0..32 {
                if i == j {
                    continue;
                }
                total += 1;
                if stats::count_3sigma_outliers(z.token(i, j)) > 0 {
                    with_outliers += 1;
                }
            }
        }
        assert!(with_outliers * 2 > total, "{with_outliers}/{total}");
    }

    #[test]
    fn tokenwise_scaling_beats_channelwise() {
        // The operational form of Fig. 5's claim: because scale varies by
        // token (not by channel), INT8 quantization with a per-token scale
        // must beat the same quantization with a per-channel scale.
        let cfg = PpmConfig::standard();
        let (seq, native) = setup(32);
        let z = Embedding::new(cfg).embed_pair(&seq, &native);
        let m = z.to_token_matrix();
        let quant_rmse = |scales: &dyn Fn(usize, usize) -> f32| -> f64 {
            let mut err = 0.0f64;
            for i in 0..m.rows() {
                for (j, &v) in m.row(i).iter().enumerate() {
                    let s = scales(i, j).max(1e-9) / 127.0;
                    let q = (v / s).round().clamp(-127.0, 127.0);
                    let d = (q * s - v) as f64;
                    err += d * d;
                }
            }
            (err / m.len() as f64).sqrt()
        };
        let chan_scale: Vec<f32> = (0..m.cols())
            .map(|j| (0..m.rows()).fold(0.0f32, |a, i| a.max(m.at(i, j).abs())))
            .collect();
        // Token-wise with dynamic outlier handling (top-4 kept exact, scale
        // from the remaining inliers) — the AAQ baseline scheme.
        let token_inlier_scale: Vec<f32> = (0..m.rows())
            .map(|i| {
                let outliers = stats::top_k_abs_indices(m.row(i), 4);
                m.row(i)
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| !outliers.contains(j))
                    .fold(0.0f32, |a, (_, &v)| a.max(v.abs()))
            })
            .collect();
        let outlier_sets: Vec<Vec<usize>> = (0..m.rows())
            .map(|i| stats::top_k_abs_indices(m.row(i), 4))
            .collect();
        let quant_rmse_outlier = |scales: &dyn Fn(usize) -> f32| -> f64 {
            let mut err = 0.0f64;
            for (i, outliers) in outlier_sets.iter().enumerate() {
                for (j, &v) in m.row(i).iter().enumerate() {
                    if outliers.contains(&j) {
                        continue; // outliers kept at high precision
                    }
                    let s = scales(i).max(1e-9) / 127.0;
                    let q = (v / s).round().clamp(-127.0, 127.0);
                    let d = (q * s - v) as f64;
                    err += d * d;
                }
            }
            (err / m.len() as f64).sqrt()
        };
        let e_token_outlier = quant_rmse_outlier(&|i| token_inlier_scale[i]);
        let e_chan = quant_rmse(&|_, j| chan_scale[j]);
        assert!(
            e_token_outlier < 0.5 * e_chan,
            "token-wise+outliers rmse {e_token_outlier} should beat channel-wise {e_chan}"
        );
    }

    #[test]
    fn distogram_response_peaks_at_center() {
        let nd = 64;
        for c in [0usize, 10, 32, 63] {
            let center = distogram_center(c, nd);
            let at_center = distogram_response(center, c, nd);
            let off = distogram_response(center + 5.0, c, nd);
            assert!(at_center > off, "c={c}");
        }
    }

    #[test]
    fn amplitude_decays_with_distance() {
        assert!(distogram_amplitude(3.0) > 70.0);
        assert!(distogram_amplitude(30.0) < 10.0);
        assert!(distogram_amplitude(5.0) > distogram_amplitude(15.0));
    }

    /// `embed_pair` as one closure per element, every transcendental
    /// evaluated where it is used: the form the hoisted loop replaced.
    fn per_element_pair(cfg: &PpmConfig, sequence: &Sequence, native: &Structure) -> Tensor3 {
        let ns = sequence.len();
        let hz = cfg.hz;
        let nd = distogram_channels(hz);
        let quarter = hz / 4;
        let dm = distance_matrix(native);
        let mut z = Tensor3::from_fn(ns, ns, hz, |i, j, c| {
            let d = if i == j {
                DISTOGRAM_MIN
            } else {
                dm.at(i, j).clamp(DISTOGRAM_MIN, DISTOGRAM_MAX)
            };
            let token_scale = 0.25 * distogram_amplitude(d);
            if c < nd {
                if i == j {
                    if c == 0 {
                        distogram_amplitude(DISTOGRAM_MIN)
                    } else {
                        0.0
                    }
                } else {
                    distogram_response(d, c, nd)
                }
            } else if c < nd + quarter {
                let k = c - nd;
                let rel = j as f32 - i as f32;
                let freq = 1.0 / (10.0f32.powf(k as f32 * 4.0 / quarter.max(1) as f32) * 2.0);
                let wave = if k.is_multiple_of(2) {
                    (rel * freq).sin()
                } else {
                    (rel * freq).cos()
                };
                wave * 0.8 * token_scale
            } else {
                let k = c - nd - quarter;
                let a = sequence.residue(i);
                let b = sequence.residue(j);
                let feat = match k % 3 {
                    0 => a.hydropathy() * b.hydropathy() * 0.06,
                    1 => (a.mass() - 110.0) * (b.mass() - 110.0) / 7200.0,
                    _ => {
                        if a == b {
                            0.6
                        } else {
                            -0.1
                        }
                    }
                };
                let tail = 0.3 + 5.0 * (-(k as f32) / 4.0).exp();
                feat * token_scale * tail
            }
        });
        for v in z.as_mut_slice() {
            *v *= PAIR_STREAM_SCALE;
        }
        z
    }

    #[test]
    fn hoisted_pair_embedding_matches_the_per_element_form_bitwise() {
        // Ns = 9 and 37 put the wave table's ±(Ns − 1) edges off the
        // minimum length's.
        for cfg in [PpmConfig::tiny(), PpmConfig::standard()] {
            for ns in [MIN_SEQUENCE_LEN, 9, 37] {
                let (seq, native) = setup(ns);
                let got = Embedding::new(cfg.clone()).embed_pair(&seq, &native);
                let want = per_element_pair(&cfg, &seq, &native);
                let bits =
                    |t: &Tensor3| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "hz {} Ns {ns}", cfg.hz);
            }
        }
    }

    #[test]
    fn embedding_is_deterministic() {
        let cfg = PpmConfig::tiny();
        let (seq, native) = setup(16);
        let e = Embedding::new(cfg);
        let (s1, z1) = e.embed(&seq, &native).unwrap();
        let (s2, z2) = e.embed(&seq, &native).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(z1, z2);
    }
}
