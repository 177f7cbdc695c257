//! The Sequence-Representation track: row self-attention with pair bias, a
//! transition MLP, and the outer-product-mean update that feeds sequence
//! information back into the pair representation.
//!
//! The paper leaves this dataflow unquantized (its activations are `(Ns,
//! Hm)` — quadratically smaller than the pair stream), so it carries no
//! activation taps; it exists because the pair stream's biasing/merging with
//! the sequence stream is what creates the "unpredictable outliers" AAQ must
//! handle dynamically (§4.1).

use super::workspace;
use crate::{PpmConfig, PpmError};
use ln_tensor::nn::{LayerNorm, Linear};
use ln_tensor::{nn, Tensor2, Tensor3};

/// Width of the outer-product-mean bottleneck.
const OPM_DIM: usize = 8;

/// The sequence track of one folding block.
#[derive(Debug, Clone)]
pub struct SequenceTrack {
    heads: usize,
    head_dim: usize,
    norm_attn: LayerNorm,
    to_q: Linear,
    to_k: Linear,
    to_v: Linear,
    pair_bias: Linear,
    attn_out: Linear,
    norm_trans: LayerNorm,
    expand: Linear,
    contract: Linear,
    norm_opm: LayerNorm,
    opm_left: Linear,
    opm_right: Linear,
    opm_out: Linear,
    update_gain: f32,
}

impl SequenceTrack {
    /// Builds the track with deterministic weights derived from `label`.
    pub fn new(config: &PpmConfig, label: &str) -> Self {
        let hm = config.hm;
        let hz = config.hz;
        let heads = config.seq_heads;
        let head_dim = hm / heads;
        SequenceTrack {
            heads,
            head_dim,
            norm_attn: LayerNorm::deterministic(&format!("{label}/ln_a"), hm, 0.1),
            to_q: Linear::deterministic(&format!("{label}/q"), hm, hm, 0.7),
            to_k: Linear::deterministic(&format!("{label}/k"), hm, hm, 0.7),
            to_v: Linear::deterministic(&format!("{label}/v"), hm, hm, 0.7),
            pair_bias: Linear::deterministic(&format!("{label}/pb"), hz, heads, 0.3),
            attn_out: Linear::deterministic(&format!("{label}/ao"), hm, hm, 0.5),
            norm_trans: LayerNorm::deterministic(&format!("{label}/ln_t"), hm, 0.1),
            expand: Linear::deterministic(&format!("{label}/up"), hm, hm * 2, 0.7),
            contract: Linear::deterministic(&format!("{label}/down"), hm * 2, hm, 0.5),
            norm_opm: LayerNorm::deterministic(&format!("{label}/ln_o"), hm, 0.1),
            opm_left: Linear::deterministic(&format!("{label}/ol"), hm, OPM_DIM, 0.7),
            opm_right: Linear::deterministic(&format!("{label}/or"), hm, OPM_DIM, 0.7),
            opm_out: Linear::deterministic_with_bias(
                &format!("{label}/oo"),
                OPM_DIM * OPM_DIM,
                hz,
                0.6,
                0.3,
            ),
            update_gain: config.update_gain,
        }
    }

    /// Total number of weight parameters.
    pub fn num_params(&self) -> usize {
        self.norm_attn.num_params()
            + self.to_q.num_params()
            + self.to_k.num_params()
            + self.to_v.num_params()
            + self.pair_bias.num_params()
            + self.attn_out.num_params()
            + self.norm_trans.num_params()
            + self.expand.num_params()
            + self.contract.num_params()
            + self.norm_opm.num_params()
            + self.opm_left.num_params()
            + self.opm_right.num_params()
            + self.opm_out.num_params()
    }

    /// Runs the track: updates `seq` in place, then adds the
    /// outer-product-mean update into `pair`.
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError::Tensor`] on internal shape mismatches; `pair`
    /// is then left empty (its tokens were moved out, not copied).
    pub fn forward(&self, seq: &mut Tensor2, pair: &mut Tensor3) -> Result<(), PpmError> {
        let ns = seq.rows();

        // --- Row self-attention with pair bias -------------------------
        let x = self.norm_attn.forward(seq)?;
        let q = self.to_q.forward(&x)?;
        let k = self.to_k.forward(&x)?;
        let v = self.to_v.forward(&x)?;
        // Pair bias: one scalar per (i, j, head), from the pair tokens —
        // which move out of `pair` here and back at the end, the
        // outer-product-mean update added into them in place.
        let mut pair_tokens = std::mem::take(pair).into_token_matrix();
        let bias = self.pair_bias.forward(&pair_tokens)?;

        let inv_sqrt = 1.0 / (self.head_dim as f32).sqrt();
        let mut ctx = Tensor2::zeros(ns, self.heads * self.head_dim);
        for h in 0..self.heads {
            let qh = head_cols(&q, h, self.head_dim);
            let kh = head_cols(&k, h, self.head_dim);
            let vh = head_cols(&v, h, self.head_dim);
            let mut scores = qh.matmul_transposed(&kh)?.scaled(inv_sqrt);
            for i in 0..ns {
                let row = scores.row_mut(i);
                for (j, s) in row.iter_mut().enumerate() {
                    *s += bias.row(i * ns + j)[h];
                }
            }
            let probs = nn::softmax_rows(&scores);
            let ctx_h = probs.matmul(&vh)?;
            for i in 0..ns {
                ctx.row_mut(i)[h * self.head_dim..(h + 1) * self.head_dim]
                    .copy_from_slice(ctx_h.row(i));
            }
        }
        let attn_update = self.attn_out.forward(&ctx)?.scaled(self.update_gain);
        seq.add_assign(&attn_update)?;

        // --- Transition -------------------------------------------------
        let t = self.norm_trans.forward(seq)?;
        let h = nn::relu(&self.expand.forward(&t)?);
        let trans_update = self.contract.forward(&h)?.scaled(self.update_gain);
        seq.add_assign(&trans_update)?;

        // --- Outer-product mean into the pair stream --------------------
        let o = self.norm_opm.forward(seq)?;
        let a = self.opm_left.forward(&o)?;
        let b = self.opm_right.forward(&o)?;
        // Every element is written below.
        let mut outer = workspace::take(ns * ns, OPM_DIM * OPM_DIM);
        if ns > 0 {
            // Blocks of pair-rows i per chunk: the ns × 64 outer-product
            // rows for a given i are written by exactly one executor, and
            // the block grain keeps each chunk worth a pool handoff.
            let slab = ns * OPM_DIM * OPM_DIM;
            let grain_rows = ((1usize << 16) / slab.max(1)).max(1);
            let rows_per_chunk = ln_par::chunk_len(ns, grain_rows);
            let (a, b) = (&a, &b);
            ln_par::par_chunks_mut(outer.as_mut_slice(), rows_per_chunk * slab, |c, chunk| {
                for (local, islab) in chunk.chunks_mut(slab).enumerate() {
                    let i = c * rows_per_chunk + local;
                    for j in 0..ns {
                        let row = &mut islab[j * OPM_DIM * OPM_DIM..(j + 1) * OPM_DIM * OPM_DIM];
                        for (p, &ap) in a.row(i).iter().enumerate() {
                            for (qi, &bq) in b.row(j).iter().enumerate() {
                                row[p * OPM_DIM + qi] = ap * bq;
                            }
                        }
                    }
                }
            });
        }
        let mut opm_update = workspace::take(ns * ns, self.opm_out.out_features());
        self.opm_out.forward_into(&outer, &mut opm_update)?;
        workspace::give(outer);
        pair_tokens.add_scaled_assign(&opm_update, self.update_gain)?;
        workspace::give(opm_update);
        *pair = Tensor3::from_token_matrix(ns, ns, pair_tokens)?;
        Ok(())
    }
}

fn head_cols(m: &Tensor2, h: usize, dim: usize) -> Tensor2 {
    Tensor2::from_fn(m.rows(), dim, |i, j| m.at(i, h * dim + j))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(ns: usize) -> (PpmConfig, Tensor2, Tensor3) {
        let cfg = PpmConfig::tiny();
        let s = Tensor2::from_fn(ns, cfg.hm, |i, j| ((i * 5 + j) % 7) as f32 * 0.3 - 1.0);
        let z = Tensor3::from_fn(ns, ns, cfg.hz, |i, j, k| ((i + j + k) % 5) as f32 * 0.2);
        (cfg, s, z)
    }

    #[test]
    fn forward_updates_both_streams() {
        let (cfg, mut s, mut z) = setup(8);
        let track = SequenceTrack::new(&cfg, "s");
        let (s0, z0) = (s.clone(), z.clone());
        track.forward(&mut s, &mut z).unwrap();
        assert_ne!(s, s0);
        assert_ne!(z, z0);
        assert_eq!(s.shape(), s0.shape());
        assert_eq!(z.shape(), z0.shape());
    }

    #[test]
    fn pair_bias_couples_pair_into_seq() {
        let (cfg, s_init, z) = setup(8);
        let track = SequenceTrack::new(&cfg, "s");
        let mut s1 = s_init.clone();
        let mut z1 = z.clone();
        let mut s2 = s_init;
        let mut z2 = z.clone();
        for v in z2.token_mut(1, 2) {
            *v += 8.0;
        }
        track.forward(&mut s1, &mut z1).unwrap();
        track.forward(&mut s2, &mut z2).unwrap();
        // The bias at (1, 2) shifts row 1's attention: seq row 1 changes.
        let diff: f32 = s1
            .row(1)
            .iter()
            .zip(s2.row(1))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "pair bias must influence sequence attention");
    }

    #[test]
    fn opm_couples_seq_into_pair() {
        let (cfg, s_init, z) = setup(8);
        let track = SequenceTrack::new(&cfg, "s");
        let mut s1 = s_init.clone();
        let mut z1 = z.clone();
        let mut s2 = s_init;
        // Single-channel perturbation: LayerNorm erases uniform shifts.
        s2.row_mut(3)[0] += 4.0;
        let mut z2 = z;
        track.forward(&mut s1, &mut z1).unwrap();
        track.forward(&mut s2, &mut z2).unwrap();
        // Row 3 of seq feeds OPM rows (3, *) and columns (*, 3).
        let diff: f32 = z1
            .token(3, 5)
            .iter()
            .zip(z2.token(3, 5))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 1e-6,
            "OPM must write sequence info into the pair stream"
        );
    }

    #[test]
    fn updates_are_bounded() {
        let (cfg, mut s, mut z) = setup(10);
        let (s0, z0) = (s.clone(), z.clone());
        let track = SequenceTrack::new(&cfg, "s");
        track.forward(&mut s, &mut z).unwrap();
        assert!(s.rmse(&s0).unwrap() < 2.0);
        assert!(z.rmse(&z0).unwrap() < 2.0);
    }
}
