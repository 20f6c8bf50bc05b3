//! Deterministic fault injection for chaos testing the service.
//!
//! A [`FaultPlan`] decides, purely from a seed and a monotonically
//! increasing event index, whether the `n`-th draw should sabotage the
//! job and how: the worker can *panic*, *stall* for a fixed duration
//! (long enough to blow a caller's deadline), or report a *transient*
//! non-convergence. A fourth kind, dropping a connection mid-body, is
//! executed by the HTTP client side of the chaos harness but scheduled by
//! the same plan so one seed reproduces the whole run.
//!
//! The worker draws under one rule: before each unit of work — the one
//! unit of a single-shot job, each batch scenario, each stream chunk —
//! except the first unit of a job with more than one, so a fault in a
//! batch or a stream lands after real partial state exists. Either panic
//! kind panics, a stall sleeps and then runs the unit, a transient fails
//! the attempt (retryably), and a connection drop does nothing on the
//! worker.
//!
//! Nothing here consults the wall clock or an RNG at decision time — the
//! schedule is a pure function of `(seed, index)` — so a chaos run with a
//! given seed injects exactly the same faults at exactly the same
//! execution indices every time, which is what lets the harness gate on
//! exact counts ("N injected, zero wedged, cache bit-identical").
//!
//! The injector is a *test-only hook*: production builds never install
//! one ([`crate::service::SiService::install_fault_injector`] is called
//! only by tests and the `si_chaos` load generator), and an uninstalled
//! hook costs one `Option` check per unit of work.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::retry::splitmix64;

/// The ways a fault plan can sabotage one job execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// The worker thread panics (after taking flight leadership).
    PanicWorker,
    /// The worker sleeps for the plan's stall duration before the unit —
    /// long enough to push the job past a caller-side deadline.
    Stall,
    /// The job reports [`crate::ServiceError::Transient`] instead of
    /// running the unit, imitating a Newton budget exhaustion that a
    /// retry clears.
    Transient,
    /// The client drops its connection mid-request-body (HTTP harness
    /// only; the service side just observes a truncated read).
    DropConnection,
    /// The worker panics, like [`FaultKind::PanicWorker`], but counted
    /// apart: the kind the streaming chaos plans draw, so that between two
    /// chunks — after at least one checkpoint exists — the retry must
    /// *resume* from the checkpoint rather than rerun from scratch.
    PanicMidChunk,
}

impl FaultKind {
    /// Stable wire/report tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::PanicWorker => "panic_worker",
            FaultKind::Stall => "stall",
            FaultKind::Transient => "transient",
            FaultKind::DropConnection => "drop_connection",
            FaultKind::PanicMidChunk => "panic_mid_chunk",
        }
    }
}

/// A deterministic, seedable schedule of injected faults.
///
/// Per mille rates (`panic_pm + stall_pm + transient_pm + drop_pm`
/// must be ≤ 1000) partition the hash space: event `n` draws
/// `splitmix64(seed ^ n) % 1000` and the bucket it lands in picks the
/// fault (or none). `max_faults` caps the total so a run always has a
/// clean, fault-free tail for recovery verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed deriving every decision.
    pub seed: u64,
    /// Worker-panic rate, per 1000 events.
    pub panic_pm: u64,
    /// Stall rate, per 1000 events.
    pub stall_pm: u64,
    /// Transient-error rate, per 1000 events.
    pub transient_pm: u64,
    /// Dropped-connection rate, per 1000 events (client-side kind).
    pub drop_pm: u64,
    /// Mid-chunk panic rate, per 1000 events.
    pub panic_mid_chunk_pm: u64,
    /// How long a [`FaultKind::Stall`] sleeps.
    pub stall: Duration,
    /// Hard cap on total injected faults (`u64::MAX` for unlimited).
    pub max_faults: u64,
}

impl FaultPlan {
    /// A balanced plan: ~24 % of events faulted, evenly split across the
    /// three worker-side kinds, with an 80 ms stall.
    #[must_use]
    pub fn balanced(seed: u64, max_faults: u64) -> Self {
        FaultPlan {
            seed,
            panic_pm: 80,
            stall_pm: 80,
            transient_pm: 80,
            drop_pm: 0,
            panic_mid_chunk_pm: 0,
            stall: Duration::from_millis(80),
            max_faults,
        }
    }

    /// A streaming-chaos plan: every drawn event is a mid-chunk panic,
    /// capped at `max_faults` so the run has a clean recovery tail. Used
    /// by the chaos/loadgen harnesses to force resume-from-checkpoint.
    #[must_use]
    pub fn mid_chunk(seed: u64, max_faults: u64) -> Self {
        FaultPlan {
            seed,
            panic_pm: 0,
            stall_pm: 0,
            transient_pm: 0,
            drop_pm: 0,
            panic_mid_chunk_pm: 1000,
            stall: Duration::from_millis(80),
            max_faults,
        }
    }

    /// The fault (if any) scheduled for event `index`, ignoring the
    /// `max_faults` cap — the pure decision function.
    #[must_use]
    pub fn decide(&self, index: u64) -> Option<FaultKind> {
        let roll = splitmix64(self.seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d)) % 1000;
        let mut edge = self.panic_pm;
        if roll < edge {
            return Some(FaultKind::PanicWorker);
        }
        edge += self.stall_pm;
        if roll < edge {
            return Some(FaultKind::Stall);
        }
        edge += self.transient_pm;
        if roll < edge {
            return Some(FaultKind::Transient);
        }
        edge += self.drop_pm;
        if roll < edge {
            return Some(FaultKind::DropConnection);
        }
        edge += self.panic_mid_chunk_pm;
        if roll < edge {
            return Some(FaultKind::PanicMidChunk);
        }
        None
    }
}

/// Monotonic counters of what a [`FaultInjector`] has actually injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Total faults injected (all kinds).
    pub injected: u64,
    /// Worker panics injected.
    pub panics: u64,
    /// Stalls injected.
    pub stalls: u64,
    /// Transient errors injected.
    pub transients: u64,
    /// Connection drops scheduled (executed by the HTTP client harness).
    pub dropped_connections: u64,
    /// Mid-chunk panics injected.
    pub panic_mid_chunks: u64,
    /// Faults whose request later completed successfully (recorded by the
    /// chaos harness once a faulted key is re-verified).
    pub survived: u64,
}

/// The runtime half of a [`FaultPlan`]: owns the shared event counter and
/// the injected-fault statistics, and can be disarmed for a run's
/// verification tail.
///
/// One injector is shared (via `Arc`) between the service's worker tasks
/// and — in HTTP chaos mode — the client threads; the single atomic
/// event counter serializes the schedule across both.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    armed: AtomicBool,
    next_event: AtomicU64,
    injected: AtomicU64,
    panics: AtomicU64,
    stalls: AtomicU64,
    transients: AtomicU64,
    dropped_connections: AtomicU64,
    panic_mid_chunks: AtomicU64,
    survived: AtomicU64,
}

impl FaultInjector {
    /// An armed injector executing `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            armed: AtomicBool::new(true),
            next_event: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            transients: AtomicU64::new(0),
            dropped_connections: AtomicU64::new(0),
            panic_mid_chunks: AtomicU64::new(0),
            survived: AtomicU64::new(0),
        }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Stops injecting (already-consumed decisions stand). Used before a
    /// chaos run's recovery-verification phase.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Whether the injector is still injecting.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Draws the next event index and returns the fault to inject, if
    /// any. Disarmed injectors and exhausted `max_faults` budgets return
    /// `None` (the index still advances, keeping the schedule aligned).
    pub fn next_fault(&self) -> Option<FaultKind> {
        let index = self.next_event.fetch_add(1, Ordering::SeqCst);
        if !self.is_armed() {
            return None;
        }
        let kind = self.plan.decide(index)?;
        // Reserve a slot under the cap; back out on overshoot.
        if self.injected.fetch_add(1, Ordering::SeqCst) >= self.plan.max_faults {
            self.injected.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        match kind {
            FaultKind::PanicWorker => self.panics.fetch_add(1, Ordering::SeqCst),
            FaultKind::Stall => self.stalls.fetch_add(1, Ordering::SeqCst),
            FaultKind::Transient => self.transients.fetch_add(1, Ordering::SeqCst),
            FaultKind::DropConnection => self.dropped_connections.fetch_add(1, Ordering::SeqCst),
            FaultKind::PanicMidChunk => self.panic_mid_chunks.fetch_add(1, Ordering::SeqCst),
        };
        Some(kind)
    }

    /// Records that a previously faulted request completed successfully.
    pub fn record_survival(&self, n: u64) {
        self.survived.fetch_add(n, Ordering::SeqCst);
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected: self.injected.load(Ordering::SeqCst),
            panics: self.panics.load(Ordering::SeqCst),
            stalls: self.stalls.load(Ordering::SeqCst),
            transients: self.transients.load(Ordering::SeqCst),
            dropped_connections: self.dropped_connections.load(Ordering::SeqCst),
            panic_mid_chunks: self.panic_mid_chunks.load(Ordering::SeqCst),
            survived: self.survived.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_in_seed_and_index() {
        let plan = FaultPlan::balanced(42, u64::MAX);
        let first: Vec<_> = (0..256).map(|n| plan.decide(n)).collect();
        let second: Vec<_> = (0..256).map(|n| plan.decide(n)).collect();
        assert_eq!(first, second);
        // A different seed reshuffles the schedule.
        let other = FaultPlan::balanced(43, u64::MAX);
        assert_ne!(first, (0..256).map(|n| other.decide(n)).collect::<Vec<_>>());
    }

    #[test]
    fn rates_partition_the_event_space() {
        let plan = FaultPlan::balanced(7, u64::MAX);
        let n = 10_000u64;
        let faulted = (0..n).filter(|&k| plan.decide(k).is_some()).count() as f64;
        let expected = n as f64 * 0.24;
        assert!(
            (faulted - expected).abs() < n as f64 * 0.05,
            "fault rate {faulted}/{n} far from expected {expected}"
        );
        let none = FaultPlan {
            panic_pm: 0,
            stall_pm: 0,
            transient_pm: 0,
            drop_pm: 0,
            ..plan
        };
        assert!((0..n).all(|k| none.decide(k).is_none()));
    }

    #[test]
    fn injector_respects_cap_and_disarm() {
        let injector = FaultInjector::new(FaultPlan {
            panic_pm: 1000, // every event faults
            stall_pm: 0,
            transient_pm: 0,
            drop_pm: 0,
            ..FaultPlan::balanced(1, 3)
        });
        let fired: Vec<_> = (0..10).filter_map(|_| injector.next_fault()).collect();
        assert_eq!(fired.len(), 3, "cap of 3 not enforced: {fired:?}");
        assert_eq!(injector.stats().injected, 3);
        assert_eq!(injector.stats().panics, 3);

        let fresh = FaultInjector::new(FaultPlan::balanced(1, u64::MAX));
        fresh.disarm();
        assert!((0..100).all(|_| fresh.next_fault().is_none()));
    }

    #[test]
    fn stats_track_each_kind() {
        let plan = FaultPlan {
            seed: 99,
            panic_pm: 200,
            stall_pm: 200,
            transient_pm: 200,
            drop_pm: 200,
            panic_mid_chunk_pm: 200,
            stall: Duration::from_millis(1),
            max_faults: u64::MAX,
        };
        let injector = FaultInjector::new(plan);
        for _ in 0..1000 {
            injector.next_fault();
        }
        let s = injector.stats();
        assert_eq!(
            s.injected,
            s.panics + s.stalls + s.transients + s.dropped_connections + s.panic_mid_chunks
        );
        assert_eq!(
            s.injected, 1000,
            "rates sum to 1000/1000: every event faults"
        );
        for (kind, count) in [
            ("panics", s.panics),
            ("stalls", s.stalls),
            ("transients", s.transients),
            ("drops", s.dropped_connections),
            ("mid-chunk panics", s.panic_mid_chunks),
        ] {
            assert!(count > 120, "{kind} implausibly rare: {count}/1000");
        }
    }

    #[test]
    fn mid_chunk_plan_only_draws_mid_chunk_panics() {
        let plan = FaultPlan::mid_chunk(5, u64::MAX);
        assert!((0..256).all(|n| plan.decide(n) == Some(FaultKind::PanicMidChunk)));
        let capped = FaultInjector::new(FaultPlan::mid_chunk(5, 1));
        let fired: Vec<_> = (0..10).filter_map(|_| capped.next_fault()).collect();
        assert_eq!(fired, vec![FaultKind::PanicMidChunk]);
        assert_eq!(capped.stats().panic_mid_chunks, 1);
    }
}
