//! Pair Transition: the per-token MLP that ends each folding block's pair
//! dataflow (LayerNorm → expand → ReLU → contract, residual).
//!
//! The MLP is token-wise, so nothing of it is whole: it is one update pass
//! (`PostLn::update`) of [`ROW_BLOCK`] tokens at a time — their post-LN
//! rows, recomputed from the stream when the hook does not observe that
//! site, and 2 MB of hidden activation at the standard widths — whose
//! contraction goes over the block's spent rows and into the stream as
//! soon as the block is done. Beside the stream the stage holds two row
//! blocks, or the whole post-LN activation and one block for a hook that
//! observes it.

use super::{residual_stage, workspace, Activation, Projection, ROW_BLOCK};
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
            false,
            [
                tap(ActivationSite::TransitionResidualIn),
                tap(ActivationSite::TransitionPostLn),
            ],
            &self.norm,
            self.update_gain,
            |hook, post_ln| {
                // A block's expansion, as an integer GEMM when the hook opts
                // in; its spent post-LN rows then take the contraction.
                post_ln.update(
                    ROW_BLOCK,
                    |rows| {
                        let mut h = workspace::take(rows.len, self.expand.out_features());
                        rows.project_into(&self.expand, Activation::Relu, h.as_mut_slice())?;
                        hook.on_activation(tap(ActivationSite::TransitionHidden), &mut h);
                        Ok(h)
                    },
                    |h, update| {
                        Ok(self
                            .contract
                            .forward_rows_into(&h, 0, Activation::None, update)?)
                    },
                )
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
