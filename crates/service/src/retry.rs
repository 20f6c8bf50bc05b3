//! Deterministic retry with capped exponential backoff and optional
//! seeded jitter.
//!
//! Every delay in a schedule is a pure function of the policy and the
//! attempt index — no wall clock, no ambient randomness — so a retried
//! workload replays identically and the chaos harness can assert exact
//! retry counts. The default policy is jitter-free: the service's own
//! callers are a handful of in-process worker threads whose synchronized
//! retries do not need decorrelating, and a jitter-free schedule is what
//! keeps [`FaultPlan`] runs reproducible end to end.
//!
//! Failover is different. When a replica dies, every client that had a
//! job in flight on it retries at once, and a shared jitter-free schedule
//! would land all of them on the replacement replica in lockstep — a
//! thundering herd exactly when the cluster is weakest. Setting
//! [`RetryPolicy::jitter_seed`] (the router derives it per client)
//! spreads each delay deterministically over `[50%, 100%]` of its
//! nominal value: still a pure function of `(seed, attempt)`, so a rerun
//! with the same seed replays the same schedule, but distinct seeds
//! decorrelate.
//!
//! [`FaultPlan`]: crate::fault::FaultPlan

use std::time::Duration;

/// SplitMix64: a tiny, well-mixed permutation that turns `(seed, index)`
/// into an independent draw without any RNG state. Backoff jitter,
/// [`FaultPlan`] decisions and the router's ring lookups all use it.
///
/// [`FaultPlan`]: crate::fault::FaultPlan
#[must_use]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A capped exponential backoff schedule: attempt `k` (zero-based) waits
/// `min(base * multiplier^k, cap)` before retrying, for at most
/// `max_retries` retries. With a `jitter_seed`, each delay is scaled by a
/// deterministic per-attempt factor in `[0.5, 1.0]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed *after* the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Ceiling any single delay is clamped to (before jitter).
    pub max_delay: Duration,
    /// Geometric growth factor between consecutive delays.
    pub multiplier: u32,
    /// `Some(seed)` scales every delay by a deterministic factor in
    /// `[0.5, 1.0]` drawn from `(seed, attempt)`; `None` keeps the exact
    /// jitter-free schedule. Give each client its own seed so their
    /// failover retries decorrelate.
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(100),
            multiplier: 4,
            jitter_seed: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The same policy with per-client seeded jitter enabled.
    #[must_use]
    pub(crate) fn with_jitter_seed(self, seed: u64) -> Self {
        RetryPolicy {
            jitter_seed: Some(seed),
            ..self
        }
    }

    /// The delay before retry number `attempt` (zero-based), or `None`
    /// once the retry budget is exhausted.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Option<Duration> {
        if attempt >= self.max_retries {
            return None;
        }
        let factor = self
            .multiplier
            .max(1)
            .checked_pow(attempt)
            .unwrap_or(u32::MAX);
        let nominal = (self.base_delay * factor).min(self.max_delay);
        let Some(seed) = self.jitter_seed else {
            return Some(nominal);
        };
        // A 53-bit draw keeps the f64 conversion exact; the factor lands
        // in [0.5, 1.0] so jitter never doubles a schedule's total and a
        // jittered delay never exceeds the cap.
        let draw = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x2545_f491_4f6c_dd1d));
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        Some(nominal.mul_f64(0.5 + 0.5 * unit))
    }
}

#[cfg(test)]
impl RetryPolicy {
    /// The whole schedule.
    fn schedule(&self) -> Vec<Duration> {
        (0..self.max_retries)
            .filter_map(|k| self.delay(k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_grows_geometrically_to_the_cap() {
        let p = RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(120),
            multiplier: 2,
            jitter_seed: None,
        };
        assert_eq!(
            p.schedule(),
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40),
                Duration::from_millis(80),
                Duration::from_millis(120), // capped, not 160
            ]
        );
    }

    #[test]
    fn budget_exhaustion_is_none() {
        let p = RetryPolicy::default();
        assert!(p.delay(p.max_retries).is_none());
        assert!(p.delay(u32::MAX).is_none());
        assert_eq!(RetryPolicy::none().schedule(), Vec::<Duration>::new());
    }

    #[test]
    fn schedule_is_deterministic() {
        let p = RetryPolicy::default();
        assert_eq!(p.schedule(), p.schedule());
        // Huge attempt indices must not overflow.
        let wide = RetryPolicy {
            max_retries: u32::MAX,
            base_delay: Duration::from_secs(1),
            max_delay: Duration::from_secs(3),
            multiplier: 1000,
            jitter_seed: None,
        };
        assert_eq!(wide.delay(31), Some(Duration::from_secs(3)));
    }

    #[test]
    fn jitter_is_seeded_bounded_and_replayable() {
        let base = RetryPolicy {
            max_retries: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(120),
            multiplier: 2,
            jitter_seed: None,
        };
        let jittered = base.with_jitter_seed(42);
        // Replayable: the same seed draws the same schedule.
        assert_eq!(jittered.schedule(), jittered.schedule());
        // Bounded: every delay stays within [50%, 100%] of nominal.
        for (k, (nominal, with)) in base
            .schedule()
            .iter()
            .zip(jittered.schedule().iter())
            .enumerate()
        {
            let lo = nominal.mul_f64(0.5);
            assert!(
                *with >= lo && *with <= *nominal,
                "attempt {k}: {with:?} outside [{lo:?}, {nominal:?}]"
            );
        }
        // Decorrelated: distinct seeds give distinct schedules, and the
        // draws vary across attempts (not one shared scale factor).
        assert_ne!(jittered.schedule(), base.with_jitter_seed(43).schedule());
        let ratios: Vec<u128> = base
            .schedule()
            .iter()
            .zip(jittered.schedule().iter())
            .map(|(n, j)| j.as_nanos() * 1000 / n.as_nanos())
            .collect();
        assert!(ratios.windows(2).any(|w| w[0] != w[1]));
    }
}
