//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! The jitter stream is keyed by `(key, attempt)` through
//! `ln_tensor::rng`, so two schedulers replaying the same failure history
//! compute byte-identical backoff schedules — wall-clock never enters the
//! calculation. `key` is normally a request id.

use ln_tensor::rng::{self, Rng};

/// Attempts a request may make, counting the first: the original try plus
/// two retries.
const MAX_ATTEMPTS: u32 = 3;
/// Backoff before the first retry, seconds.
const BASE_SECONDS: f64 = 0.25;
/// Multiplier applied per additional failed attempt.
const MULTIPLIER: f64 = 2.0;
/// Ceiling on the un-jittered backoff, seconds.
const MAX_SECONDS: f64 = 8.0;
/// Jitter amplitude: the delay is scaled by a factor drawn uniformly from
/// `[1 - JITTER/2, 1 + JITTER/2]`.
const JITTER: f64 = 0.5;

/// Whether a request that has already made `attempts` tries is out of
/// budget.
pub(crate) fn exhausted(attempts: u32) -> bool {
    attempts >= MAX_ATTEMPTS
}

/// The un-jittered backoff before retry number `attempt` (1 = first retry).
fn raw_backoff_seconds(attempt: u32) -> f64 {
    let exp = attempt.saturating_sub(1).min(63);
    (BASE_SECONDS * MULTIPLIER.powi(exp as i32)).min(MAX_SECONDS)
}

/// Backoff before retry number `attempt` (1 = first retry) for the request
/// identified by `key`. Deterministic in `(key, attempt)`.
pub(crate) fn backoff_seconds(key: u64, attempt: u32) -> f64 {
    let mut r = rng::stream_indexed("fault/backoff", key ^ ((attempt as u64) << 48));
    let scale = 1.0 + JITTER * (r.gen::<f64>() - 0.5);
    raw_backoff_seconds(attempt) * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustion_counts_the_first_attempt() {
        assert!(!exhausted(0));
        assert!(!exhausted(2));
        assert!(exhausted(3));
        assert!(exhausted(4));
    }

    #[test]
    fn backoff_is_deterministic_and_key_sensitive() {
        let a = backoff_seconds(7, 1);
        let b = backoff_seconds(7, 1);
        let c = backoff_seconds(8, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(raw_backoff_seconds(1), 0.25);
        assert_eq!(raw_backoff_seconds(2), 0.5);
        assert_eq!(raw_backoff_seconds(3), 1.0);
        assert_eq!(raw_backoff_seconds(20), 8.0, "capped at MAX_SECONDS");
    }

    #[test]
    fn jitter_stays_within_band() {
        for attempt in [1, 2, 20] {
            let raw = raw_backoff_seconds(attempt);
            for key in 0..200u64 {
                let d = backoff_seconds(key, attempt);
                assert!(
                    (raw * 0.75..=raw * 1.25).contains(&d),
                    "jittered delay {d} outside ±25% of {raw}"
                );
            }
        }
    }
}
