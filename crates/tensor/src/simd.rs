//! The workspace's one runtime dispatch point: run a closure at the
//! CPU's real vector width.
//!
//! Every binary here is compiled for the baseline target (SSE2 on
//! x86-64), so the autovectoriser may use nothing wider than 128 bits and
//! no SSE4.1 integer multiply or sign extension, whatever the host can
//! do. [`wide`] lifts that for one closure: on an x86-64 host that reports
//! AVX2 it runs the closure inside a `#[target_feature(enable = "avx2")]`
//! frame, where the same safe Rust is compiled with 256-bit registers;
//! anywhere else it just calls the closure.
//!
//! The closure must be marked `#[inline(always)]` (and so must what it
//! calls on the hot path): code is compiled with the features of the
//! function it ends up *in*, so a body that is not inlined into the frame
//! is compiled for the baseline. That costs speed, never correctness.
//!
//! # Bits
//!
//! The wider frame changes how many lanes one instruction covers, not
//! what is computed per lane: AVX2 does not include FMA, and rustc never
//! contracts `a * b + c` on its own, so every element is produced by the
//! same IEEE operations in the same order as on the baseline. Callers
//! keep their own summation order and the result is bit-identical on
//! both tiers — which is why there is no FMA tier (it would change bits)
//! and no way to choose the tier by hand.
//!
//! That is rule one, and it covers anything computed per element — a
//! GEMM tile's accumulators, [`crate::vmath::exp`]. Rule two is for
//! reductions: *a reduction is bit-stable across tiers and pools only
//! when its lanes and its tree are written out.* An `iter().sum()` is a
//! serial chain the vectoriser may not reassociate (so it stays scalar,
//! one dependent add per element), and a reduction it *were* allowed to
//! split would split differently at each width. [`crate::vmath`] therefore
//! spells the order out — sixteen lanes, element `i` to lane `i mod 16`,
//! one fixed halving tree — as part of what `sum` and `max` mean;
//! sixteen rather than eight because eight is a single AVX2 register,
//! one latency-bound chain, where sixteen is two (four on SSE2).
//!
//! PR 20 moved three functions onto those two rules and so changed their
//! output bits, once: [`crate::nn::softmax_inplace`] (and with it
//! `softmax_rows`), the sigmoid of [`crate::nn::sigmoid`] and
//! `Epilogue::BiasSigmoid`, and
//! [`LayerNorm::forward_into`](crate::nn::LayerNorm::forward_into)'s mean
//! and variance. GEMMs, the triangle einsum and the quantizer kept theirs.

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// The kernel tier [`wide`] runs on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The compile target's own vector width (128-bit SSE2 on x86-64).
    Baseline,
    /// 256-bit AVX2, detected at run time.
    Avx2,
}

impl Tier {
    /// `baseline` or `avx2`, as bench artifacts record it.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            Tier::Avx2 => "avx2",
        }
    }
}

/// The tier this host selects; detected once per process.
#[inline]
pub fn tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        static TIER: OnceLock<Tier> = OnceLock::new();
        *TIER.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx2") {
                Tier::Avx2
            } else {
                Tier::Baseline
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Tier::Baseline
    }
}

/// Runs `f` at the widest vector width the host supports (see the module
/// docs). `f` should be an `#[inline(always)]` closure.
#[inline(always)]
pub fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if tier() == Tier::Avx2 {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound exactly when the CPU supports AVX2, and `tier()` returns
        // `Avx2` only after `is_x86_feature_detected!("avx2")` said so on
        // this host.
        #[allow(unsafe_code)]
        return unsafe { wide_avx2(f) };
    }
    f()
}

/// The AVX2 frame: `f` inlines into it and is compiled with 256-bit
/// vectors. Safe to declare, `unsafe` to call from code compiled without
/// the feature — [`wide`] is the only caller.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn wide_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_matches_the_host_and_wide_returns_the_closure_value() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            tier() == Tier::Avx2,
            std::arch::is_x86_feature_detected!("avx2")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(tier(), Tier::Baseline);
        let xs = [1.5f32, 2.25, -3.0];
        let sum = wide(
            #[inline(always)]
            || xs.iter().sum::<f32>(),
        );
        assert_eq!(sum, 0.75);
    }
}
