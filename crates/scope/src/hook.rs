//! Hook adapters: the observing wrapper ([`ScopeHook`]) and the
//! sensitivity-replay perturber ([`PerturbHook`]).

use ln_obs::ObsLevel;
use ln_ppm::taps::{ActivationGroup, ActivationHook, ActivationSite, Tap};
use ln_quant::scheme::QuantScheme;
use ln_quant::tensor::QuantizedTensor;
use ln_quant::token::{fake_quantize_tokens, QuantError};
use ln_tensor::{rng, Tensor2};

use crate::bucket::length_bucket_label;
use crate::ledger::{ErrorLedger, PROBE_RUNGS};
use crate::sketch::{SketchBook, SketchKey};

/// Wraps any [`ActivationHook`] and observes every activation that flows
/// through it: pre-hook values feed the distribution sketches, and the
/// pre/post difference feeds the quantization-error ledger (so wrapping
/// an `AaqHook` measures exactly the error AAQ introduces, while wrapping
/// a `NoopHook` yields a zero-error FP32 baseline ledger). That difference
/// is taken here, around whatever the inner hook does — the independent
/// check of the error the quantizer reports about itself. The rung and
/// byte columns come from the inner hook's
/// [`ActivationHook::scheme_at`]. A post-LN tap the trunk encoded for the
/// quantized domain ([`ActivationHook::on_encoded`], forwarded) rewrites
/// nothing: its entry books the error the encoding reports and the scheme
/// it was encoded with.
///
/// Observation is fully gated on the `LN_OBS` switch: when observability
/// is off, `on_activation` is a single relaxed atomic load and a direct
/// delegation — no clone, no sketch, no ledger (the `numerics` bench gates
/// this at ≤5% overhead). When on, the wrapper additionally probes each
/// activation with the candidate rungs in [`PROBE_RUNGS`] so the precision
/// ledger can compare "what INT4/INT8 *would* have cost" per layer.
#[derive(Debug, Clone)]
pub struct ScopeHook<H> {
    inner: H,
    book: SketchBook,
    ledger: ErrorLedger,
    bucket: &'static str,
    probe: bool,
    /// The probes' working copy of the activation, kept between taps.
    probe_scratch: Vec<f32>,
}

impl<H: ActivationHook> ScopeHook<H> {
    /// Wraps `inner` for a sequence of `seq_len` residues (which fixes the
    /// sketch length-bucket key). Probing is on.
    pub fn new(inner: H, seq_len: usize) -> Self {
        ScopeHook {
            inner,
            book: SketchBook::new(),
            ledger: ErrorLedger::new(),
            bucket: length_bucket_label(seq_len),
            probe: true,
            probe_scratch: Vec::new(),
        }
    }

    /// Disables the per-rung probes (keeps sketches + actual-error ledger).
    pub fn without_probes(mut self) -> Self {
        self.probe = false;
        self
    }

    /// The wrapped hook.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner hook and the collected
    /// `(sketches, ledger)`.
    pub(crate) fn into_parts(self) -> (H, SketchBook, ErrorLedger) {
        (self.inner, self.book, self.ledger)
    }

    /// The distribution sketches collected so far.
    pub fn book(&self) -> &SketchBook {
        &self.book
    }

    /// The error ledger accumulated so far.
    pub fn ledger(&self) -> &ErrorLedger {
        &self.ledger
    }
}

impl<H: ActivationHook> ScopeHook<H> {
    /// Sketches the activation at `tap` as it came in.
    fn sketch(&mut self, tap: Tap, activation: &Tensor2) {
        let key = SketchKey {
            block: tap.block,
            stage: tap.site.name(),
            bucket: self.bucket,
        };
        self.book.observe(key, activation);
    }

    /// Books one tap of `original` into the ledger: the error the inner
    /// hook's quantization did to it, the scheme it used (none: FP32), and
    /// the probes.
    fn book_tap(
        &mut self,
        tap: Tap,
        original: &Tensor2,
        error: QuantError,
        scheme: Option<QuantScheme>,
    ) {
        let (rows, cols) = original.shape();
        let entry = self.ledger.entry(tap.block, tap.site.name());
        entry.taps += 1;
        entry.err_sq += error.err_sq;
        entry.val_sq += error.val_sq;
        if let Some(scheme) = scheme {
            entry.rung = scheme.to_string();
            entry.encoded_bytes += (rows * scheme.token_bytes(cols)) as u64;
            entry.fp16_bytes += (rows * cols * 2) as u64;
        }
        if self.probe {
            let mut scratch = std::mem::take(&mut self.probe_scratch);
            scratch.resize(original.len(), 0.0);
            let mut decoded = Tensor2::from_vec(rows, cols, scratch).expect("sized to fit");
            for (i, &(_, probe_scheme)) in PROBE_RUNGS.iter().enumerate() {
                decoded.as_mut_slice().copy_from_slice(original.as_slice());
                let error = fake_quantize_tokens(&mut decoded, probe_scheme);
                entry.probe_err_sq[i] += error.err_sq;
                entry.probe_val_sq[i] += error.val_sq;
            }
            self.probe_scratch = decoded.into_vec();
        }
    }
}

impl<H: ActivationHook> ActivationHook for ScopeHook<H> {
    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
        if ln_obs::level() == ObsLevel::Off {
            self.inner.on_activation(tap, activation);
            return;
        }
        self.sketch(tap, activation);
        let original = activation.clone();
        self.inner.on_activation(tap, activation);

        let mut error = QuantError::default();
        for (&o, &q) in original.as_slice().iter().zip(activation.as_slice()) {
            let e = (q - o) as f64;
            error.err_sq += e * e;
            error.val_sq += (o as f64) * (o as f64);
        }
        let scheme = self.inner.scheme_at(tap, original.cols());
        self.book_tap(tap, &original, error, scheme);
    }

    fn on_encoded(
        &mut self,
        tap: Tap,
        activation: &Tensor2,
        encoded: &QuantizedTensor,
        error: QuantError,
    ) {
        self.inner.on_encoded(tap, activation, encoded, error);
        if ln_obs::level() == ObsLevel::Off {
            return;
        }
        // The activation was not rewritten, so there is no difference to
        // take here: the ledger books the error the encoding reported.
        self.sketch(tap, activation);
        self.book_tap(tap, activation, error, Some(encoded.scheme()));
    }

    fn observes(&self, site: ActivationSite) -> bool {
        // When observability is on, the observatory needs every site the
        // trunk can materialise, regardless of the inner hook's appetite.
        ln_obs::level() != ObsLevel::Off || self.inner.observes(site)
    }

    fn quantized_matmul(&self, tap: Tap) -> Option<QuantScheme> {
        self.inner.quantized_matmul(tap)
    }

    fn scheme_at(&self, tap: Tap, channels: usize) -> Option<QuantScheme> {
        self.inner.scheme_at(tap, channels)
    }
}

/// A hook that injects seeded multiplicative noise into every activation
/// of one AAQ group — the instrument behind the error→accuracy
/// sensitivity estimate. Replaying the golden CAMEO fold with a
/// `PerturbHook` at relative amplitude `a` and comparing TM-scores against
/// the unperturbed run yields `|ΔTM| / a`, an empirical bound on how much
/// a unit of relative RMSE in that group costs in accuracy.
///
/// Noise is drawn from a stream keyed by `(seed, tap, invocation index)`,
/// so repeated runs are bit-identical and the two dataflow visits of e.g.
/// the outgoing/incoming triangle updates get independent draws.
#[derive(Debug, Clone)]
pub struct PerturbHook {
    group: ActivationGroup,
    amplitude: f32,
    seed: String,
    taps_seen: u64,
}

impl PerturbHook {
    /// Perturbs activations of `group` with relative noise `amplitude`,
    /// deterministically seeded by `seed`.
    pub fn new(group: ActivationGroup, amplitude: f32, seed: &str) -> Self {
        PerturbHook {
            group,
            amplitude,
            seed: seed.to_string(),
            taps_seen: 0,
        }
    }

    /// The group being perturbed.
    pub fn group(&self) -> ActivationGroup {
        self.group
    }
}

impl ActivationHook for PerturbHook {
    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
        self.taps_seen += 1;
        if tap.group() != self.group {
            return;
        }
        let label = format!("{}/{}/{}", self.seed, tap, self.taps_seen);
        let mut stream = rng::stream(&label);
        for v in activation.as_mut_slice() {
            *v += *v * self.amplitude * rng::normal_approx(&mut stream);
        }
    }
}

/// Error→accuracy sensitivity: per AAQ group, the estimated TM-score loss
/// per unit of relative activation RMSE, measured by perturbation replay
/// on the golden CAMEO fold (`lightnobel::sensitivity`).
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityModel {
    /// `|ΔTM| / amplitude` per group, indexed A, B, C.
    pub per_group: [f64; 3],
}

impl Default for SensitivityModel {
    /// A conservative prior: one unit of relative RMSE costs one unit of
    /// TM-score in every group. Measured replays are typically far below
    /// this, so the default only ever *over*-protects accuracy.
    fn default() -> Self {
        SensitivityModel {
            per_group: [1.0; 3],
        }
    }
}

impl SensitivityModel {
    /// Sensitivity of `group`.
    pub fn for_group(&self, group: ActivationGroup) -> f64 {
        self.per_group[group.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ln_ppm::taps::NoopHook;

    fn tap(site: ActivationSite) -> Tap {
        Tap {
            block: 0,
            recycle: 0,
            site,
        }
    }

    #[test]
    fn off_mode_delegates_without_observing() {
        let _guard = ln_obs::pin_level(ObsLevel::Off);
        let mut hook = ScopeHook::new(NoopHook, 32);
        let mut x = Tensor2::from_fn(4, 8, |i, j| (i + j) as f32);
        hook.on_activation(tap(ActivationSite::TriMulPostLn), &mut x);
        assert!(hook.book().is_empty());
        assert!(hook.ledger().is_empty());
    }

    #[test]
    fn noop_inner_yields_zero_error_ledger() {
        let _guard = ln_obs::pin_level(ObsLevel::Counters);
        let mut hook = ScopeHook::new(NoopHook, 32).without_probes();
        let mut x = Tensor2::from_fn(4, 8, |i, j| 0.1 * (i * 8 + j) as f32);
        hook.on_activation(tap(ActivationSite::TriMulPostLn), &mut x);
        let entry = hook.ledger().get(0, "tri_mul.post_ln").unwrap();
        assert_eq!(entry.taps, 1);
        assert_eq!(entry.relative_rmse(), 0.0);
        assert_eq!(hook.book().len(), 1);
    }

    #[test]
    fn probes_measure_int4_worse_than_int8() {
        let _guard = ln_obs::pin_level(ObsLevel::Counters);
        let mut hook = ScopeHook::new(NoopHook, 32);
        let mut x = Tensor2::from_fn(8, 16, |i, j| {
            let mut r = rng::stream_indexed("scope/probe-test", (i * 16 + j) as u64);
            rng::normal_approx(&mut r)
        });
        hook.on_activation(tap(ActivationSite::TriMulPostLn), &mut x);
        let entry = hook.ledger().get(0, "tri_mul.post_ln").unwrap();
        let int4 = entry.probe_rmse(0);
        let int8 = entry.probe_rmse(1);
        assert!(int4 > int8, "int4 rmse {int4} should exceed int8 {int8}");
        assert!(int8 > 0.0);
    }

    #[test]
    fn perturb_hook_touches_only_its_group_and_is_deterministic() {
        let mut x1 = Tensor2::from_fn(4, 8, |i, j| 1.0 + (i * 8 + j) as f32 * 0.01);
        let x0 = x1.clone();
        let mut hook = PerturbHook::new(ActivationGroup::B, 0.05, "test");
        // Group A site: untouched.
        hook.on_activation(tap(ActivationSite::TriMulResidualIn), &mut x1);
        assert_eq!(x1.as_slice(), x0.as_slice());
        // Group B site: perturbed, and identically so across replays.
        hook.on_activation(tap(ActivationSite::TriMulPostLn), &mut x1);
        assert_ne!(x1.as_slice(), x0.as_slice());

        let mut x2 = x0.clone();
        let mut replay = PerturbHook::new(ActivationGroup::B, 0.05, "test");
        replay.on_activation(tap(ActivationSite::TriMulResidualIn), &mut x2);
        replay.on_activation(tap(ActivationSite::TriMulPostLn), &mut x2);
        assert_eq!(x1.as_slice(), x2.as_slice());
    }
}
