//! Triangular Multiplication (Fig. 6(a)): refines pair interactions with a
//! gated "triangle" update — for every pair `(i, j)`, information flows
//! through all intermediate residues `k`.

use super::{residual_stage, transposed_pair_tokens, workspace, Activation, PostLn, Projection};
use crate::taps::{ActivationHook, ActivationSite, Tap};
use crate::{PpmConfig, PpmError};
use ln_tensor::nn::{LayerNorm, Linear};
use ln_tensor::{simd, Tensor2, Tensor3};

/// Which triangle edge orientation the unit updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriangleDirection {
    /// "Outgoing" edges: `out[i][j] = Σ_k left[i][k] ⊙ right[j][k]`.
    Outgoing,
    /// "Incoming" edges: `out[i][j] = Σ_k left[k][i] ⊙ right[k][j]`.
    Incoming,
}

/// A triangular-multiplication unit with the standard gated projections.
#[derive(Debug, Clone)]
pub struct TriangularMultiplication {
    direction: TriangleDirection,
    norm_in: LayerNorm,
    proj_left: Projection,
    proj_right: Projection,
    gate_left: Projection,
    gate_right: Projection,
    norm_out: LayerNorm,
    gate_out: Projection,
    proj_out: Linear,
    update_gain: f32,
}

impl TriangularMultiplication {
    /// Builds the unit with deterministic weights derived from `label`.
    pub fn new(config: &PpmConfig, label: &str, direction: TriangleDirection) -> Self {
        let hz = config.hz;
        let c = config.tri_mul_dim;
        // Post-LN magnitudes reproduce the paper's Group-B statistics
        // (mean |x| ≈ 4, Fig. 6(c)): trained trunks have LN gains ≫ 1.
        let norm_in = LayerNorm::deterministic_scaled(&format!("{label}/ln_in"), hz, 0.2, 5.0);
        let proj_left = Linear::deterministic_with_bias(&format!("{label}/pl"), hz, c, 0.8, 0.3);
        let proj_right = Linear::deterministic_with_bias(&format!("{label}/pr"), hz, c, 0.8, 0.3);
        let gate_left = Linear::deterministic(&format!("{label}/gl"), hz, c, 0.3);
        let gate_right = Linear::deterministic(&format!("{label}/gr"), hz, c, 0.3);
        let gate_out = Linear::deterministic(&format!("{label}/go"), hz, hz, 0.3);
        TriangularMultiplication {
            direction,
            norm_in,
            proj_left: Projection::new(proj_left),
            proj_right: Projection::new(proj_right),
            gate_left: Projection::new(gate_left),
            gate_right: Projection::new(gate_right),
            norm_out: LayerNorm::deterministic_scaled(&format!("{label}/ln_out"), c, 0.2, 5.0),
            gate_out: Projection::new(gate_out),
            proj_out: Linear::deterministic(&format!("{label}/po"), c, hz, 0.5),
            update_gain: config.update_gain,
        }
    }

    /// The triangle orientation.
    pub fn direction(&self) -> TriangleDirection {
        self.direction
    }

    /// Total number of weight parameters.
    pub fn num_params(&self) -> usize {
        self.norm_in.num_params()
            + self.proj_left.num_params()
            + self.proj_right.num_params()
            + self.gate_left.num_params()
            + self.gate_right.num_params()
            + self.norm_out.num_params()
            + self.gate_out.num_params()
            + self.proj_out.num_params()
    }

    /// Applies the unit in place to the pair representation.
    ///
    /// # Errors
    ///
    /// Propagates [`PpmError::Tensor`] on internal shape mismatches; `pair`
    /// is then left empty (its tokens were moved out, not copied).
    pub fn forward(
        &self,
        pair: &mut Tensor3,
        hook: &mut dyn ActivationHook,
        block: usize,
        recycle: usize,
    ) -> Result<(), PpmError> {
        let ns = pair.shape().0;
        let tap = move |site| Tap {
            block,
            recycle,
            site,
        };
        residual_stage(
            pair,
            hook,
            [
                tap(ActivationSite::TriMulResidualIn),
                tap(ActivationSite::TriMulPostLn),
            ],
            &self.norm_in,
            self.update_gain,
            |hook, post_ln| self.update(hook, post_ln, ns, tap),
        )
    }

    /// The stage between its LayerNorm and its residual add: the gated
    /// output projection of the triangle product, in `post_ln`'s buffer.
    fn update(
        &self,
        hook: &mut dyn ActivationHook,
        post_ln: PostLn,
        ns: usize,
        tap: impl Fn(ActivationSite) -> Tap,
    ) -> Result<Tensor2, PpmError> {
        let tokens_n = ns * ns;
        let c = self.proj_left.out_features();
        // Group C: the gated projections, one way under every hook. In
        // the quantized domain each is an integer GEMM on the encoded
        // post-LN activation, otherwise an FP32 one; either way the
        // gate and the projection each pass the hook (which may record
        // or rewrite them, or ignore them), then the gate's buffer
        // becomes their product and the projection's goes back for the
        // other side to take.
        let mut gated_side = |gate, proj, sites: [ActivationSite; 2]| {
            let mut gate = post_ln.project(gate, Activation::Sigmoid)?;
            hook.on_activation(tap(sites[0]), &mut gate);
            let mut proj = post_ln.project(proj, Activation::None)?;
            hook.on_activation(tap(sites[1]), &mut proj);
            gate.hadamard_assign(&proj)?;
            workspace::give(proj);
            Ok::<_, PpmError>(gate)
        };
        let mut left = gated_side(
            &self.gate_left,
            &self.proj_left,
            [
                ActivationSite::TriMulGateLeft,
                ActivationSite::TriMulProjLeft,
            ],
        )?;
        let mut right = gated_side(
            &self.gate_right,
            &self.proj_right,
            [
                ActivationSite::TriMulGateRight,
                ActivationSite::TriMulProjRight,
            ],
        )?;

        // The triangle einsum; 1/√Ns keeps magnitudes length-independent.
        // The Incoming direction pre-transposes both operands (exact
        // copies) so one cache-blocked kernel serves both orientations.
        let scale = 1.0 / (ns as f32).sqrt();
        if self.direction == TriangleDirection::Incoming {
            left = transposed_pair_tokens(left, ns);
            right = transposed_pair_tokens(right, ns);
        }
        let mut tri_tokens = workspace::take(tokens_n, c);
        // The kernel accumulates onto its output.
        tri_tokens.as_mut_slice().fill(0.0);
        // Each (i, j) token accumulates its own k terms in ascending order,
        // so the per-i-block parallel dispatch is bit-identical to the
        // serial loops for any pool size.
        ln_par::metrics::time_kernel("ppm.tri_mul.einsum", (ns * ns) as u64, || {
            // One i-row of the triangle einsum costs 2·ns²·c flops; demand
            // a few megaflops per chunk so small problems stay inline.
            let row_flops = 2 * ns * ns * c;
            let grain_rows = ((1usize << 22) / row_flops.max(1)).max(1);
            let rows_per_chunk = ln_par::chunk_len(ns, grain_rows);
            let l = left.as_slice();
            let r = right.as_slice();
            ln_par::par_chunks_mut(
                tri_tokens.as_mut_slice(),
                rows_per_chunk * ns * c,
                |ci, chunk| {
                    einsum_block(l, r, ns, c, ci * rows_per_chunk, chunk);
                    for v in chunk.iter_mut() {
                        *v *= scale;
                    }
                },
            );
        });
        workspace::give(left);
        workspace::give(right);
        hook.on_activation(tap(ActivationSite::TriMulTriangleOut), &mut tri_tokens);

        let mut y = workspace::take(tokens_n, c);
        self.norm_out.forward_into(&tri_tokens, &mut y)?;
        workspace::give(tri_tokens);
        hook.on_activation(tap(ActivationSite::TriMulOutPostLn), &mut y);

        let mut g = post_ln.project(&self.gate_out, Activation::Sigmoid)?;
        // That was the post-LN activation's last reader: its buffer
        // takes the output projection, which is gated there.
        let mut update = post_ln.into_buffer();
        hook.on_activation(tap(ActivationSite::TriMulOutGate), &mut g);
        self.proj_out.forward_into(&y, &mut update)?;
        workspace::give(y);
        update.hadamard_assign(&g)?;
        workspace::give(g);
        Ok(update)
    }
}

/// k-panel depth of the blocked triangle einsum: a `(j, k-panel)` strip of
/// the right operand (`EINSUM_KB · c` floats) stays L1-resident while an
/// i-block of output rows accumulates against it.
const EINSUM_KB: usize = 128;
/// Channel-register width of the einsum accumulator.
const EINSUM_ACC: usize = 32;

/// Blocked triangle einsum for an i-block of output rows:
/// `out[i][j][cc] += Σ_k l[(i·ns + k)·c + cc] · r[(j·ns + k)·c + cc]`,
/// k split into [`EINSUM_KB`] panels, channels into [`EINSUM_ACC`]-wide
/// register chunks loaded from `out` at panel start (the same left fold
/// as the naive loop — bit-identical for any blocking or chunk seam).
///
/// The k-panel → j → i loop order is what turns the einsum from
/// O(Ns³·c) DRAM traffic (the old per-i full stream of the right
/// operand) into one right-panel read per (k-panel, j) reused across the
/// whole i-block.
///
/// The body runs through [`simd::wide`], so the channel accumulator is
/// 256-bit registers where the host has them; the per-element fold, and
/// so every bit, is the same on both tiers.
#[inline(never)]
fn einsum_block(l: &[f32], r: &[f32], ns: usize, c: usize, i0: usize, out: &mut [f32]) {
    simd::wide(
        #[inline(always)]
        || einsum_block_body(l, r, ns, c, i0, out),
    );
}

#[inline(always)]
fn einsum_block_body(l: &[f32], r: &[f32], ns: usize, c: usize, i0: usize, out: &mut [f32]) {
    let rows = out.len() / (ns * c).max(1);
    let mut kb = 0;
    while kb < ns {
        let kb_len = EINSUM_KB.min(ns - kb);
        for j in 0..ns {
            let r_panel = &r[(j * ns + kb) * c..][..kb_len * c];
            for il in 0..rows {
                let l_panel = &l[((i0 + il) * ns + kb) * c..][..kb_len * c];
                let out_ij = &mut out[(il * ns + j) * c..][..c];
                let mut cc = 0;
                while cc < c {
                    let len = EINSUM_ACC.min(c - cc);
                    let mut acc = [0.0f32; EINSUM_ACC];
                    acc[..len].copy_from_slice(&out_ij[cc..cc + len]);
                    for dk in 0..kb_len {
                        let ls = &l_panel[dk * c + cc..][..len];
                        let rs = &r_panel[dk * c + cc..][..len];
                        for ((a, &lv), &rv) in acc[..len].iter_mut().zip(ls).zip(rs) {
                            *a += lv * rv;
                        }
                    }
                    out_ij[cc..cc + len].copy_from_slice(&acc[..len]);
                    cc += len;
                }
            }
        }
        kb += kb_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taps::NoopHook;

    fn pair(ns: usize, hz: usize) -> Tensor3 {
        Tensor3::from_fn(ns, ns, hz, |i, j, k| {
            ((i * 31 + j * 7 + k * 3) % 13) as f32 * 0.5 - 3.0
        })
    }

    #[test]
    fn forward_preserves_shape_and_changes_values() {
        let cfg = PpmConfig::tiny();
        let unit = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Outgoing);
        let mut z = pair(8, cfg.hz);
        let before = z.clone();
        unit.forward(&mut z, &mut NoopHook, 0, 0).unwrap();
        assert_eq!(z.shape(), before.shape());
        assert_ne!(z, before);
    }

    #[test]
    fn directions_produce_different_updates() {
        let cfg = PpmConfig::tiny();
        let out = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Outgoing);
        let inc = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Incoming);
        let mut z1 = pair(8, cfg.hz);
        let mut z2 = pair(8, cfg.hz);
        out.forward(&mut z1, &mut NoopHook, 0, 0).unwrap();
        inc.forward(&mut z2, &mut NoopHook, 0, 0).unwrap();
        assert_ne!(z1, z2);
    }

    #[test]
    fn update_is_bounded_by_gain() {
        let cfg = PpmConfig::tiny();
        let unit = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Outgoing);
        let mut z = pair(10, cfg.hz);
        let before = z.clone();
        unit.forward(&mut z, &mut NoopHook, 0, 0).unwrap();
        // Max possible per-element update: gain × |gate| ≤ 1 × |proj_out(y)|.
        let delta = z.rmse(&before).unwrap();
        assert!(delta < 2.0, "delta {delta}");
    }

    #[test]
    fn triangle_mixes_distant_tokens() {
        // Information must flow through the triangle: for the outgoing
        // direction, out[i][j] reads left row i and right row j, so a
        // perturbation at token (0, 5) must reach token (5, 0) via
        // right[j=0][k=5]. The perturbation is a single channel (LayerNorm
        // erases uniform per-token shifts).
        let cfg = PpmConfig::tiny();
        let unit = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Outgoing);
        let mut z1 = pair(10, cfg.hz);
        let mut z2 = pair(10, cfg.hz);
        z2.token_mut(0, 5)[0] += 10.0;
        unit.forward(&mut z1, &mut NoopHook, 0, 0).unwrap();
        unit.forward(&mut z2, &mut NoopHook, 0, 0).unwrap();
        let t1 = z1.token(5, 0);
        let t2 = z2.token(5, 0);
        let diff: f32 = t1.iter().zip(t2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "triangle update must propagate information");
        // And a token outside both row 0 and column 0 stays untouched.
        let u1 = z1.token(3, 9);
        let u2 = z2.token(3, 9);
        for (a, b) in u1.iter().zip(u2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn a_hook_that_ignores_every_tap_changes_nothing() {
        // The stage has one body: what a hook answers to `observes` picks
        // no path here, so NoopHook (observes nothing) and a hook that
        // observes everything but rewrites nothing agree bit for bit.
        struct ObserveAll;
        impl ActivationHook for ObserveAll {
            fn on_activation(&mut self, _tap: Tap, _activation: &mut Tensor2) {}
        }
        let cfg = PpmConfig::tiny();
        for direction in [TriangleDirection::Outgoing, TriangleDirection::Incoming] {
            let unit = TriangularMultiplication::new(&cfg, "t", direction);
            let mut ignored = pair(9, cfg.hz);
            let mut observed = ignored.clone();
            unit.forward(&mut ignored, &mut NoopHook, 0, 0).unwrap();
            unit.forward(&mut observed, &mut ObserveAll, 0, 0).unwrap();
            assert_eq!(ignored, observed, "{direction:?}");
        }
    }

    #[test]
    fn num_params_matches_structure() {
        let cfg = PpmConfig::tiny();
        let unit = TriangularMultiplication::new(&cfg, "t", TriangleDirection::Outgoing);
        let hz = cfg.hz;
        let c = cfg.tri_mul_dim;
        let expected = 2 * hz // ln_in
            + 2 * (hz * c + c) // proj l/r
            + 2 * (hz * c + c) // gate l/r
            + 2 * c // ln_out
            + (hz * hz + hz) // gate_out
            + (c * hz + hz); // proj_out
        assert_eq!(unit.num_params(), expected);
    }
}
