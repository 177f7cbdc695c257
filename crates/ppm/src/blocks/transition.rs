//! Pair Transition: the per-token MLP that ends each folding block's pair
//! dataflow (LayerNorm → expand → ReLU → contract, residual).

use super::{residual_stage, workspace, Activation, Projection};
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
            |hook, post_ln| {
                // The expansion, as an integer GEMM when the hook opts in;
                // the post-LN activation's buffer then takes the
                // contraction's output.
                let mut h = post_ln.project(&self.expand, Activation::Relu)?;
                let mut update = post_ln.into_buffer();
                hook.on_activation(tap(ActivationSite::TransitionHidden), &mut h);
                self.contract.forward_into(&h, &mut update)?;
                workspace::give(h);
                Ok(update)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taps::{NoopHook, RecordingHook};

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
