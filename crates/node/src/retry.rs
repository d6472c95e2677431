//! Capped exponential backoff with seeded jitter.
//!
//! A dialer whose fetch dies on a *transient* failure — the peer
//! closed, a deadline fired, the stream truncated mid-frame — redials
//! under a [`RetryPolicy`]: the delay doubles per attempt up to a cap,
//! and a deterministic jitter (a hash of the policy seed, the link
//! salt, and the attempt number) de-synchronizes peers that all lost
//! the same upstream at the same moment. Everything is a pure function
//! of its inputs: the same policy, salt, and attempt always produce the
//! same delay, so a chaos run's timing is as replayable as the rest of
//! the system.

use std::time::Duration;

/// How (and whether) a failed fetch is redialed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Redials allowed after the initial attempt (0 = fail fast).
    pub max_retries: u32,
    /// Delay before the first retry; doubles each further attempt.
    pub base_delay: Duration,
    /// Upper bound the exponential never exceeds (pre-jitter).
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Two redials, 50 ms base, 2 s cap — generous for localhost
    /// swarms, harmless for the fault-free path (never consulted).
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x1CD_7E7B,
        }
    }
}

impl RetryPolicy {
    /// A policy with the given retry budget and default delays.
    #[must_use]
    pub fn with_retries(max_retries: u32) -> Self {
        Self {
            max_retries,
            ..Self::default()
        }
    }

    /// Whether attempt `attempt` (1-based; 1 is the initial dial) may
    /// be followed by another.
    #[must_use]
    pub(crate) fn allows_retry(&self, attempt: u32) -> bool {
        attempt <= self.max_retries
    }

    /// Backoff before retry number `attempt` (1-based), jittered by
    /// `salt` (use the link seed, so concurrent fetches of one node
    /// spread out). Exponential `base · 2^(attempt-1)` capped at
    /// `max_delay`, then jittered down by up to half — deterministic in
    /// `(policy, salt, attempt)`.
    #[must_use]
    pub(crate) fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let attempt = attempt.max(1);
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_delay);
        let nanos = exp.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let jitter =
            icd_util::hash::mix64(self.jitter_seed ^ salt.rotate_left(17) ^ u64::from(attempt))
                % (nanos / 2 + 1);
        Duration::from_nanos(nanos - jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy::default();
        for attempt in 1..=8 {
            let a = policy.backoff(attempt, 42);
            assert_eq!(a, policy.backoff(attempt, 42), "same inputs, same delay");
            assert!(a <= policy.max_delay);
            // Jitter strips at most half the exponential.
            let exp = policy
                .base_delay
                .saturating_mul(1 << (attempt - 1).min(16))
                .min(policy.max_delay);
            assert!(a >= exp / 2, "attempt {attempt}: {a:?} < half of {exp:?}");
        }
        // Different salts de-synchronize.
        assert_ne!(policy.backoff(1, 1), policy.backoff(1, 2));
        // The exponential grows until the cap.
        assert!(policy.backoff(6, 7) > policy.backoff(1, 7));
    }

    #[test]
    fn retry_budget_gates_attempts() {
        let none = RetryPolicy::with_retries(0);
        assert!(!none.allows_retry(1));
        let two = RetryPolicy::default();
        assert!(two.allows_retry(1) && two.allows_retry(2) && !two.allows_retry(3));
        assert_eq!(RetryPolicy::with_retries(5).max_retries, 5);
    }
}
