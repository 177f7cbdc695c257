//! Pair Transition: the per-token MLP that ends each folding block's pair
//! dataflow (LayerNorm → expand → ReLU → contract, residual).
//!
//! The hidden activation is `transition_factor` pair tensors wide, so it
//! is not whole unless the hook needs it whole: the MLP runs [`ROW_BLOCK`]
//! tokens at a time — 2 MB of hidden activation at the standard widths —
//! and each block's update goes into the block's own rows of the post-LN
//! buffer.

use super::{block_len, residual_stage, workspace, Activation, Projection, ROW_BLOCK};
use crate::taps::{ActivationHook, ActivationSite, Tap};
use crate::{PpmConfig, PpmError};
use ln_tensor::nn::{LayerNorm, Linear};
use ln_tensor::Tensor3;

/// The pair-transition unit.
#[derive(Debug, Clone)]
pub struct PairTransition {
    norm: LayerNorm,
    expand: Projection,
    contract: Linear,
    update_gain: f32,
}

impl PairTransition {
    /// Builds the unit with deterministic weights derived from `label`.
    pub fn new(config: &PpmConfig, label: &str) -> Self {
        let hz = config.hz;
        let hidden = hz * config.transition_factor;
        let expand = Linear::deterministic_with_bias(&format!("{label}/up"), hz, hidden, 0.7, 0.2);
        PairTransition {
            norm: LayerNorm::deterministic_scaled(&format!("{label}/ln"), hz, 0.2, 5.0),
            expand: Projection::new(expand),
            contract: Linear::deterministic(&format!("{label}/down"), hidden, hz, 0.5),
            update_gain: config.update_gain,
        }
    }

    /// Total number of weight parameters.
    pub fn num_params(&self) -> usize {
        self.norm.num_params() + self.expand.num_params() + self.contract.num_params()
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
        let tap = |site| Tap {
            block,
            recycle,
            site,
        };
        residual_stage(
            pair,
            hook,
            [
                tap(ActivationSite::TransitionResidualIn),
                tap(ActivationSite::TransitionPostLn),
            ],
            &self.norm,
            self.update_gain,
            |hook, mut post_ln| {
                let tokens = post_ln.tokens();
                let hidden = ActivationSite::TransitionHidden;
                let block = block_len(hook, &[hidden], ROW_BLOCK, tokens);
                for first in (0..tokens).step_by(block) {
                    let rows = block.min(tokens - first);
                    // The block's expansion, as an integer GEMM when the
                    // hook opts in; its post-LN rows, read for the last
                    // time, then take the contraction's output.
                    let mut h = workspace::take(rows, self.expand.out_features());
                    post_ln.project_into(&self.expand, Activation::Relu, first, &mut h)?;
                    hook.on_activation(tap(hidden), &mut h);
                    let update = post_ln.spent_rows(first, rows);
                    self.contract
                        .forward_rows_into(&h, 0, Activation::None, update)?;
                    workspace::give(h);
                }
                Ok(post_ln.into_buffer())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taps::{NoopHook, RecordingHook};
    use ln_tensor::Tensor2;

    fn pair(ns: usize, hz: usize) -> Tensor3 {
        Tensor3::from_fn(ns, ns, hz, |i, j, k| ((i + j * 3 + k * 7) % 9) as f32 - 4.0)
    }

    #[test]
    fn forward_is_residual() {
        let cfg = PpmConfig::tiny();
        let unit = PairTransition::new(&cfg, "t");
        let mut z = pair(6, cfg.hz);
        let before = z.clone();
        unit.forward(&mut z, &mut NoopHook, 0, 0).unwrap();
        assert_eq!(z.shape(), before.shape());
        let delta = z.rmse(&before).unwrap();
        assert!(delta > 0.0 && delta < 2.0);
    }

    #[test]
    fn transition_is_token_local() {
        // A per-token MLP: perturbing one token changes only that token.
        let cfg = PpmConfig::tiny();
        let unit = PairTransition::new(&cfg, "t");
        let mut z1 = pair(6, cfg.hz);
        let mut z2 = pair(6, cfg.hz);
        for v in z2.token_mut(2, 3) {
            *v += 1.0;
        }
        unit.forward(&mut z1, &mut NoopHook, 0, 0).unwrap();
        unit.forward(&mut z2, &mut NoopHook, 0, 0).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                let same = z1
                    .token(i, j)
                    .iter()
                    .zip(z2.token(i, j))
                    .all(|(a, b)| (a - b).abs() < 1e-6);
                assert_eq!(same, (i, j) != (2, 3), "token ({i},{j})");
            }
        }
    }

    #[test]
    fn hidden_tap_sees_expanded_width() {
        let cfg = PpmConfig::tiny();
        let unit = PairTransition::new(&cfg, "t");
        let mut z = pair(4, cfg.hz);
        let mut hook = RecordingHook::new();
        unit.forward(&mut z, &mut hook, 0, 0).unwrap();
        let hidden = hook
            .records()
            .iter()
            .find(|r| r.tap.site == ActivationSite::TransitionHidden)
            .unwrap();
        assert_eq!(hidden.channels, cfg.hz * cfg.transition_factor);
    }

    /// Zeroes the hidden activation the `target`-th time it fires.
    struct ZeroHidden {
        fires: usize,
        target: usize,
    }

    impl ActivationHook for ZeroHidden {
        fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
            if tap.site == ActivationSite::TransitionHidden {
                if self.fires == self.target {
                    activation.as_mut_slice().fill(0.0);
                }
                self.fires += 1;
            }
        }
    }

    #[test]
    fn hidden_blocks_are_ascending_disjoint_and_cover_every_token() {
        // ns = 40: 1 600 tokens, one full row block and a partial one.
        // Zeroing the k-th hidden block changes exactly the tokens of row
        // block k, and nothing else.
        let cfg = PpmConfig::tiny();
        let unit = PairTransition::new(&cfg, "t");
        let ns = 40;
        let mut reference = pair(ns, cfg.hz);
        unit.forward(&mut reference, &mut NoopHook, 0, 0).unwrap();
        let blocks = (ns * ns).div_ceil(ROW_BLOCK);
        assert_eq!(blocks, 2);
        for target in 0..blocks {
            let mut z = pair(ns, cfg.hz);
            let mut hook = ZeroHidden { fires: 0, target };
            unit.forward(&mut z, &mut hook, 0, 0).unwrap();
            assert_eq!(hook.fires, blocks);
            let changed: Vec<usize> = (0..ns * ns)
                .filter(|t| z.token(t / ns, t % ns) != reference.token(t / ns, t % ns))
                .collect();
            let block = target * ROW_BLOCK..((target + 1) * ROW_BLOCK).min(ns * ns);
            assert_eq!(changed, block.collect::<Vec<_>>(), "block {target}");
        }
    }

    /// Records the hidden activation's token counts, and wants it whole.
    struct WholeHidden(Vec<usize>);

    impl ActivationHook for WholeHidden {
        fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
            if tap.site == ActivationSite::TransitionHidden {
                self.0.push(activation.rows());
            }
        }

        fn takes_row_blocks(&self, _site: ActivationSite) -> bool {
            false
        }
    }

    #[test]
    fn a_hook_that_declines_row_blocks_sees_the_hidden_activation_whole() {
        // Same bits as the row blocks: a token's rows meet no other's.
        let cfg = PpmConfig::tiny();
        let unit = PairTransition::new(&cfg, "t");
        let ns = 40;
        let mut blocked = pair(ns, cfg.hz);
        unit.forward(&mut blocked, &mut NoopHook, 0, 0).unwrap();
        let mut whole = pair(ns, cfg.hz);
        let mut hook = WholeHidden(Vec::new());
        unit.forward(&mut whole, &mut hook, 0, 0).unwrap();
        assert_eq!(hook.0, [ns * ns]);
        let bits = |z: &Tensor3| z.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&whole), bits(&blocked));
    }

    #[test]
    fn relu_makes_hidden_nonnegative() {
        let cfg = PpmConfig::tiny();
        let unit = PairTransition::new(&cfg, "t");
        let mut z = pair(4, cfg.hz);
        let mut hook = RecordingHook::new();
        unit.forward(&mut z, &mut hook, 0, 0).unwrap();
        let hidden = hook
            .records()
            .iter()
            .find(|r| r.tap.site == ActivationSite::TransitionHidden)
            .unwrap();
        // mean_abs equals mean for a non-negative activation; both recorded
        // quantities must be finite and non-negative.
        assert!(hidden.mean_abs >= 0.0);
    }
}
