//! Engine telemetry: solver observability with zero cost when disabled.
//!
//! Every paper-level number this workspace reports — the Table 1 delay-line
//! errors, the Fig. 5–7 modulator curves, the headroom scans — rests on the
//! engine quietly performing thousands of Newton solves. This module makes
//! that work observable without perturbing it:
//!
//! * [`EngineStats`] — the collector the engine notifies about solves,
//!   Newton iterations, LU factorizations, gmin ladder moves, and
//!   non-finite rejections: counters, per-solve peaks, and wall-clock
//!   time, all chosen so that [`EngineStats::merge`] is associative and
//!   commutative. Per-worker collectors (the service pool's worker
//!   workspaces, the per-point workspaces of a solver-health sweep)
//!   therefore merge to the same totals regardless of how points were
//!   scheduled. A workspace with no
//!   collector installed pays one `Option` branch per event (nothing on
//!   the per-element stamping path), and the collector can only
//!   *observe*: enabling it never changes a solved voltage bit for bit
//!   (property-tested in `crates/analog/tests/properties.rs`).
//!
//! Failure forensics (the per-iteration residual trajectory of a diverging
//! solve) ride on [`crate::AnalogError::NoConvergence`] itself rather than
//! on the collector, so a crashed sweep point explains itself even with
//! telemetry disabled.

use crate::json::Json;
use std::time::Duration;

/// What kind of Newton solve the engine is starting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveKind {
    /// A DC operating-point solve (including each gmin-ladder rung).
    Dc,
    /// One backward-Euler transient time step.
    TransientStep,
}

/// Which linear-solver backend performed a factorization.
///
/// The engine picks a backend per circuit (see
/// [`crate::solver::BackendPolicy`]): small or dense systems keep the
/// dense LU fast path, large sparse systems use the structure-caching
/// sparse LU. Telemetry tags every factorization with its backend so a run
/// report shows exactly which path did the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BackendKind {
    /// Dense real LU ([`crate::linalg::Matrix`]`<f64>`).
    DenseReal,
    /// Dense complex LU ([`crate::linalg::Matrix`]`<Complex>`).
    DenseComplex,
    /// Sparse real LU ([`crate::sparse::SparseLu`]`<f64>`).
    SparseReal,
    /// Sparse complex LU ([`crate::sparse::SparseLu`]`<Complex>`).
    SparseComplex,
}

/// How a Newton solve ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveOutcome {
    /// The update norm dropped below the tolerance.
    Converged,
    /// The iteration budget ran out.
    IterationLimit,
    /// An iterate went non-finite and was rejected.
    NonFinite,
    /// Assembly or factorization failed (singular matrix, bad element).
    Aborted,
}

/// The built-in telemetry collector: solver-health counters accumulated
/// across every solve a workspace performs.
///
/// All fields reduce associatively (sums, maxima, minima), so collectors
/// from parallel workers merge to scheduling-independent totals.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Newton solves started (DC points, gmin rungs, transient steps).
    pub solves: u64,
    /// Solves that were DC operating points or gmin rungs.
    pub dc_solves: u64,
    /// Solves that were transient time steps.
    pub transient_steps: u64,
    /// Total Newton iterations across all solves.
    pub newton_iterations: u64,
    /// The largest iteration count any single solve needed.
    pub max_newton_iterations: u64,
    /// Real-matrix LU factorizations (first per solve + standalone
    /// small-signal linearizations).
    pub factorizations: u64,
    /// Real-matrix LU re-factorizations (Newton iterations past the first).
    pub refactorizations: u64,
    /// Real-matrix back-substitutions.
    pub back_substitutions: u64,
    /// Complex-matrix LU factorizations (AC / noise frequencies).
    pub complex_factorizations: u64,
    /// Complex-matrix back-substitutions (AC / noise right-hand sides).
    pub complex_back_substitutions: u64,
    /// gmin ladder levels visited by the DC solver's fallback.
    pub gmin_steps: u64,
    /// The smallest gmin level reported, `f64::INFINITY` if none.
    pub min_gmin: f64,
    /// Newton iterates rejected for going non-finite.
    pub non_finite_rejections: u64,
    /// Solves that ended without converging (budget, non-finite, abort).
    pub convergence_failures: u64,
    /// Factorizations performed by the dense real backend.
    pub dense_real_factorizations: u64,
    /// Factorizations performed by the dense complex backend.
    pub dense_complex_factorizations: u64,
    /// Full (symbolic + numeric) factorizations by the sparse real backend.
    pub sparse_real_factorizations: u64,
    /// Numeric replays of cached structure by the sparse real backend.
    pub sparse_real_refactorizations: u64,
    /// Full factorizations by the sparse complex backend.
    pub sparse_complex_factorizations: u64,
    /// Numeric replays of cached structure by the sparse complex backend.
    pub sparse_complex_refactorizations: u64,
    /// Sparse symbolic-cache hits (pivot order and fill pattern replayed).
    pub symbolic_cache_hits: u64,
    /// Sparse symbolic-cache misses (full factorization ran).
    pub symbolic_cache_misses: u64,
    /// Largest structural-nonzero count of any factored sparse system.
    pub max_matrix_nonzeros: u64,
    /// Largest factor-nonzero (fill-in) count of any factored sparse
    /// system.
    pub max_factor_nonzeros: u64,
    /// Batched scenario runs ([`crate::engine::BatchRun`]) started.
    pub batch_runs: u64,
    /// Scenarios covered by batched runs.
    pub batch_scenarios: u64,
    /// Batch scenarios warm-started from a converged neighbour.
    pub warm_starts: u64,
    /// Warm-started solves that diverged and fell back to the cold start.
    pub warm_start_rejected: u64,
    /// Workspaces retired and rebuilt after a caught panic or injected
    /// fault (incremented by harnesses that own workspaces, e.g. the
    /// service worker pool — the engine itself never resets).
    pub workspace_resets: u64,
    /// Wall-clock time spent inside Newton solves.
    pub solve_time: Duration,
}

impl Default for EngineStats {
    fn default() -> Self {
        EngineStats {
            solves: 0,
            dc_solves: 0,
            transient_steps: 0,
            newton_iterations: 0,
            max_newton_iterations: 0,
            factorizations: 0,
            refactorizations: 0,
            back_substitutions: 0,
            complex_factorizations: 0,
            complex_back_substitutions: 0,
            gmin_steps: 0,
            min_gmin: f64::INFINITY,
            non_finite_rejections: 0,
            convergence_failures: 0,
            dense_real_factorizations: 0,
            dense_complex_factorizations: 0,
            sparse_real_factorizations: 0,
            sparse_real_refactorizations: 0,
            sparse_complex_factorizations: 0,
            sparse_complex_refactorizations: 0,
            symbolic_cache_hits: 0,
            symbolic_cache_misses: 0,
            max_matrix_nonzeros: 0,
            max_factor_nonzeros: 0,
            batch_runs: 0,
            batch_scenarios: 0,
            warm_starts: 0,
            warm_start_rejected: 0,
            workspace_resets: 0,
            solve_time: Duration::ZERO,
        }
    }
}

impl EngineStats {
    /// A zeroed collector.
    #[must_use]
    pub fn new() -> Self {
        EngineStats::default()
    }

    /// Total LU factorizations of either kind, including refactorizations —
    /// the single "how much linear algebra happened" number.
    #[must_use]
    pub fn total_factorizations(&self) -> u64 {
        self.factorizations + self.refactorizations + self.complex_factorizations
    }

    /// A copy with the wall-clock fields zeroed, for deterministic
    /// comparisons (golden-report tests strip timings through this).
    #[must_use]
    pub fn normalized(&self) -> Self {
        EngineStats {
            solve_time: Duration::ZERO,
            ..self.clone()
        }
    }

    /// The collector as a JSON object, keys in the stable order of the
    /// field table below. A `min_gmin` with no gmin step (infinity) is
    /// `null`; integer counters are exact up to 2⁵³.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let fields = [
            ("solves", self.solves as f64),
            ("dc_solves", self.dc_solves as f64),
            ("transient_steps", self.transient_steps as f64),
            ("newton_iterations", self.newton_iterations as f64),
            ("max_newton_iterations", self.max_newton_iterations as f64),
            ("factorizations", self.factorizations as f64),
            ("refactorizations", self.refactorizations as f64),
            ("back_substitutions", self.back_substitutions as f64),
            ("complex_factorizations", self.complex_factorizations as f64),
            (
                "complex_back_substitutions",
                self.complex_back_substitutions as f64,
            ),
            ("gmin_steps", self.gmin_steps as f64),
            ("min_gmin", self.min_gmin),
            ("non_finite_rejections", self.non_finite_rejections as f64),
            ("convergence_failures", self.convergence_failures as f64),
            (
                "dense_real_factorizations",
                self.dense_real_factorizations as f64,
            ),
            (
                "dense_complex_factorizations",
                self.dense_complex_factorizations as f64,
            ),
            (
                "sparse_real_factorizations",
                self.sparse_real_factorizations as f64,
            ),
            (
                "sparse_real_refactorizations",
                self.sparse_real_refactorizations as f64,
            ),
            (
                "sparse_complex_factorizations",
                self.sparse_complex_factorizations as f64,
            ),
            (
                "sparse_complex_refactorizations",
                self.sparse_complex_refactorizations as f64,
            ),
            ("symbolic_cache_hits", self.symbolic_cache_hits as f64),
            ("symbolic_cache_misses", self.symbolic_cache_misses as f64),
            ("max_matrix_nonzeros", self.max_matrix_nonzeros as f64),
            ("max_factor_nonzeros", self.max_factor_nonzeros as f64),
            ("batch_runs", self.batch_runs as f64),
            ("batch_scenarios", self.batch_scenarios as f64),
            ("warm_starts", self.warm_starts as f64),
            ("warm_start_rejected", self.warm_start_rejected as f64),
            ("workspace_resets", self.workspace_resets as f64),
            ("solve_time_ns", self.solve_time.as_nanos() as f64),
        ];
        let value = |v: f64| Some(Json::Number(v)).filter(|_| v.is_finite());
        let pairs = fields.map(|(key, v)| (key.to_string(), value(v).unwrap_or(Json::Null)));
        Json::Object(pairs.into())
    }
}

impl EngineStats {
    /// Folds `other` into `self`: the deterministic, order-independent
    /// reduction. It is associative and commutative —
    /// `a.merge(b); a.merge(c)` equals `a.merge(c); a.merge(b)` and any
    /// re-parenthesization — so merging per-worker collectors yields
    /// totals independent of how work was scheduled.
    pub fn merge(&mut self, other: &Self) {
        self.solves += other.solves;
        self.dc_solves += other.dc_solves;
        self.transient_steps += other.transient_steps;
        self.newton_iterations += other.newton_iterations;
        self.max_newton_iterations = self.max_newton_iterations.max(other.max_newton_iterations);
        self.factorizations += other.factorizations;
        self.refactorizations += other.refactorizations;
        self.back_substitutions += other.back_substitutions;
        self.complex_factorizations += other.complex_factorizations;
        self.complex_back_substitutions += other.complex_back_substitutions;
        self.gmin_steps += other.gmin_steps;
        self.min_gmin = self.min_gmin.min(other.min_gmin);
        self.non_finite_rejections += other.non_finite_rejections;
        self.convergence_failures += other.convergence_failures;
        self.dense_real_factorizations += other.dense_real_factorizations;
        self.dense_complex_factorizations += other.dense_complex_factorizations;
        self.sparse_real_factorizations += other.sparse_real_factorizations;
        self.sparse_real_refactorizations += other.sparse_real_refactorizations;
        self.sparse_complex_factorizations += other.sparse_complex_factorizations;
        self.sparse_complex_refactorizations += other.sparse_complex_refactorizations;
        self.symbolic_cache_hits += other.symbolic_cache_hits;
        self.symbolic_cache_misses += other.symbolic_cache_misses;
        self.max_matrix_nonzeros = self.max_matrix_nonzeros.max(other.max_matrix_nonzeros);
        self.max_factor_nonzeros = self.max_factor_nonzeros.max(other.max_factor_nonzeros);
        self.batch_runs += other.batch_runs;
        self.batch_scenarios += other.batch_scenarios;
        self.warm_starts += other.warm_starts;
        self.warm_start_rejected += other.warm_start_rejected;
        self.workspace_resets += other.workspace_resets;
        self.solve_time += other.solve_time;
    }
}

/// Engine events. The engine calls these on the workspace's installed
/// collector ([`crate::engine::EngineWorkspace::enable_stats`]); they only
/// count, so collecting never changes a result.
impl EngineStats {
    /// A Newton solve is starting.
    pub fn solve_begin(&mut self, kind: SolveKind) {
        self.solves += 1;
        match kind {
            SolveKind::Dc => self.dc_solves += 1,
            SolveKind::TransientStep => self.transient_steps += 1,
        }
    }

    /// One Newton iteration finished with voltage-update norm `delta`.
    pub fn newton_iteration(&mut self, _delta: f64) {
        self.newton_iterations += 1;
    }

    /// The Newton solve ended after `iterations` iterations taking
    /// `elapsed` wall-clock time (zero when timing is unavailable).
    pub fn solve_end(&mut self, outcome: SolveOutcome, iterations: usize, elapsed: Duration) {
        self.max_newton_iterations = self.max_newton_iterations.max(iterations as u64);
        self.solve_time += elapsed;
        if outcome != SolveOutcome::Converged {
            self.convergence_failures += 1;
        }
    }

    /// The DC solver moved to gmin ladder level `gmin` (siemens).
    pub fn gmin_level(&mut self, gmin: f64) {
        self.gmin_steps += 1;
        self.min_gmin = self.min_gmin.min(gmin);
    }

    /// A real-matrix LU factorization completed (first factorization of a
    /// solve, or a standalone small-signal linearization).
    pub fn factorization(&mut self) {
        self.factorizations += 1;
    }

    /// A real-matrix LU re-factorization completed (Newton iterations
    /// after the first restamp and refactor the same system).
    pub fn refactorization(&mut self) {
        self.refactorizations += 1;
    }

    /// A real-matrix back-substitution completed.
    pub fn back_substitution(&mut self) {
        self.back_substitutions += 1;
    }

    /// A complex-matrix LU factorization completed (AC / noise).
    pub fn complex_factorization(&mut self) {
        self.complex_factorizations += 1;
    }

    /// A complex-matrix back-substitution completed (AC / noise).
    pub fn complex_back_substitution(&mut self) {
        self.complex_back_substitutions += 1;
    }

    /// A non-finite Newton iterate was rejected.
    pub fn non_finite(&mut self) {
        self.non_finite_rejections += 1;
    }

    /// A backend performed a factorization. `refactor` is true for a
    /// sparse numeric replay of cached structure (dense backends always
    /// factor from scratch). Fires *in addition to* the legacy
    /// [`EngineStats::factorization`] / [`EngineStats::refactorization`] /
    /// [`EngineStats::complex_factorization`] events, which keep their original
    /// engine-level meaning (first-vs-later Newton iteration).
    pub fn backend_factorization(&mut self, backend: BackendKind, refactor: bool) {
        match (backend, refactor) {
            (BackendKind::DenseReal, _) => self.dense_real_factorizations += 1,
            (BackendKind::DenseComplex, _) => self.dense_complex_factorizations += 1,
            (BackendKind::SparseReal, false) => self.sparse_real_factorizations += 1,
            (BackendKind::SparseReal, true) => self.sparse_real_refactorizations += 1,
            (BackendKind::SparseComplex, false) => self.sparse_complex_factorizations += 1,
            (BackendKind::SparseComplex, true) => self.sparse_complex_refactorizations += 1,
        }
    }

    /// The sparse backend consulted its symbolic-structure cache: `hit`
    /// means the cached pivot order and fill pattern were replayed, a miss
    /// means a full symbolic + numeric factorization ran.
    pub fn symbolic_cache(&mut self, hit: bool) {
        if hit {
            self.symbolic_cache_hits += 1;
        } else {
            self.symbolic_cache_misses += 1;
        }
    }

    /// Structure of the system just factored: structural nonzeros of the
    /// assembled matrix and nonzeros of its triangular factors (fill-in).
    pub fn matrix_structure(&mut self, nonzeros: u64, factor_nonzeros: u64) {
        self.max_matrix_nonzeros = self.max_matrix_nonzeros.max(nonzeros);
        self.max_factor_nonzeros = self.max_factor_nonzeros.max(factor_nonzeros);
    }

    /// A batched scenario run ([`crate::engine::BatchRun`]) started,
    /// covering `scenarios` scenarios over one topology.
    pub fn batch_run(&mut self, scenarios: u64) {
        self.batch_runs += 1;
        self.batch_scenarios += scenarios;
    }

    /// A batch scenario's Newton solve was warm-started from an already
    /// converged neighbour's solution instead of the cold start.
    pub fn warm_start(&mut self) {
        self.warm_starts += 1;
    }

    /// A warm-started solve diverged; the scenario was retried from the
    /// cold operating point instead of failing the batch.
    pub fn warm_start_rejected(&mut self) {
        self.warm_start_rejected += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: u64) -> EngineStats {
        EngineStats {
            solves: k,
            dc_solves: k / 2,
            transient_steps: k - k / 2,
            newton_iterations: 3 * k,
            max_newton_iterations: k % 7,
            factorizations: k,
            refactorizations: 2 * k,
            back_substitutions: 3 * k,
            complex_factorizations: k % 3,
            complex_back_substitutions: k % 5,
            gmin_steps: k % 4,
            min_gmin: if k.is_multiple_of(4) {
                f64::INFINITY
            } else {
                10f64.powi(-(k as i32 % 12))
            },
            non_finite_rejections: k % 2,
            convergence_failures: k % 3,
            dense_real_factorizations: k,
            dense_complex_factorizations: k % 3,
            sparse_real_factorizations: k % 2,
            sparse_real_refactorizations: 2 * k,
            sparse_complex_factorizations: k % 5,
            sparse_complex_refactorizations: k % 7,
            symbolic_cache_hits: 2 * k,
            symbolic_cache_misses: k % 2 + k % 5,
            max_matrix_nonzeros: 11 * k % 23,
            max_factor_nonzeros: 13 * k % 29,
            batch_runs: k % 4,
            batch_scenarios: 5 * k % 17,
            warm_starts: 4 * k % 13,
            warm_start_rejected: k % 5,
            workspace_resets: k % 3,
            solve_time: Duration::from_nanos(17 * k),
        }
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let (a, b, c) = (sample(3), sample(8), sample(13));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        let mut left = ab.clone();
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let a = sample(9);
        let mut m = a.clone();
        m.merge(&EngineStats::default());
        assert_eq!(m, a);
        let mut d = EngineStats::default();
        d.merge(&a);
        assert_eq!(d, a);
    }

    #[test]
    fn json_has_stable_keys_and_valid_shape() {
        let json = sample(5).to_json().to_string_compact();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "solves",
            "newton_iterations",
            "factorizations",
            "refactorizations",
            "complex_factorizations",
            "gmin_steps",
            "min_gmin",
            "non_finite_rejections",
            "convergence_failures",
            "dense_real_factorizations",
            "dense_complex_factorizations",
            "sparse_real_factorizations",
            "sparse_real_refactorizations",
            "sparse_complex_factorizations",
            "sparse_complex_refactorizations",
            "symbolic_cache_hits",
            "symbolic_cache_misses",
            "max_matrix_nonzeros",
            "max_factor_nonzeros",
            "batch_runs",
            "batch_scenarios",
            "warm_starts",
            "warm_start_rejected",
            "workspace_resets",
            "solve_time_ns",
        ] {
            assert!(
                json.contains(&format!("\"{key}\":")),
                "missing {key}: {json}"
            );
        }
        // Infinity must not leak into JSON.
        let empty = EngineStats::default().to_json().to_string_compact();
        assert!(empty.contains("\"min_gmin\":null"));
        assert!(!empty.contains("inf"));
    }

    #[test]
    fn normalized_strips_timing_only() {
        let mut s = sample(6);
        s.solve_time = Duration::from_millis(250);
        let n = s.normalized();
        assert_eq!(n.solve_time, Duration::ZERO);
        assert_eq!(n.solves, s.solves);
        assert_eq!(n.newton_iterations, s.newton_iterations);
    }

    #[test]
    fn probe_events_accumulate() {
        let mut s = EngineStats::new();
        s.solve_begin(SolveKind::Dc);
        s.factorization();
        s.back_substitution();
        s.newton_iteration(0.5);
        s.refactorization();
        s.back_substitution();
        s.newton_iteration(1e-9);
        s.solve_end(SolveOutcome::Converged, 2, Duration::from_micros(3));
        s.solve_begin(SolveKind::TransientStep);
        s.newton_iteration(f64::INFINITY);
        s.non_finite();
        s.solve_end(SolveOutcome::NonFinite, 1, Duration::from_micros(1));
        s.gmin_level(1e-2);
        s.gmin_level(1e-3);

        assert_eq!(s.solves, 2);
        assert_eq!(s.dc_solves, 1);
        assert_eq!(s.transient_steps, 1);
        assert_eq!(s.newton_iterations, 3);
        assert_eq!(s.max_newton_iterations, 2);
        assert_eq!(s.factorizations, 1);
        assert_eq!(s.refactorizations, 1);
        assert_eq!(s.back_substitutions, 2);
        assert_eq!(s.total_factorizations(), 2);
        assert_eq!(s.gmin_steps, 2);
        assert_eq!(s.min_gmin, 1e-3);
        assert_eq!(s.non_finite_rejections, 1);
        assert_eq!(s.convergence_failures, 1);
        assert_eq!(s.solve_time, Duration::from_micros(4));
    }

    #[test]
    fn backend_events_route_to_their_counters() {
        let mut s = EngineStats::new();
        s.backend_factorization(BackendKind::DenseReal, false);
        s.backend_factorization(BackendKind::DenseComplex, false);
        s.backend_factorization(BackendKind::SparseReal, false);
        s.backend_factorization(BackendKind::SparseReal, true);
        s.backend_factorization(BackendKind::SparseReal, true);
        s.backend_factorization(BackendKind::SparseComplex, false);
        s.backend_factorization(BackendKind::SparseComplex, true);
        s.symbolic_cache(false);
        s.symbolic_cache(true);
        s.symbolic_cache(true);
        s.symbolic_cache(true);
        s.matrix_structure(40, 55);
        s.matrix_structure(12, 90);

        assert_eq!(s.dense_real_factorizations, 1);
        assert_eq!(s.dense_complex_factorizations, 1);
        assert_eq!(s.sparse_real_factorizations, 1);
        assert_eq!(s.sparse_real_refactorizations, 2);
        assert_eq!(s.sparse_complex_factorizations, 1);
        assert_eq!(s.sparse_complex_refactorizations, 1);
        assert_eq!(s.symbolic_cache_hits, 3);
        assert_eq!(s.symbolic_cache_misses, 1);
        assert_eq!(s.max_matrix_nonzeros, 40);
        assert_eq!(s.max_factor_nonzeros, 90);
    }

    #[test]
    fn batch_events_route_to_their_counters() {
        let mut s = EngineStats::new();
        s.batch_run(12);
        s.batch_run(4);
        s.warm_start();
        s.warm_start();
        s.warm_start();
        s.warm_start_rejected();

        assert_eq!(s.batch_runs, 2);
        assert_eq!(s.batch_scenarios, 16);
        assert_eq!(s.warm_starts, 3);
        assert_eq!(s.warm_start_rejected, 1);
    }
}
