//! The solver backend layer: one abstraction over the dense and sparse
//! linear-algebra paths, real and complex.
//!
//! Every analysis assembles an MNA system and factors it; *how* is a
//! per-circuit decision this module owns. Tiny circuits (the paper's
//! individual cells are a dozen unknowns) keep the dense LU fast path,
//! whose numerics are untouched — the engine's bit-identity contract with
//! the pre-backend implementation rides on the dense arms of
//! [`RealTarget`] / [`ComplexTarget`] calling the *same* dense kernels in
//! the same order. Large, sparse circuits (delay lines, modulators, cell
//! arrays) switch to [`crate::sparse::SparseLu`] with its cached symbolic
//! structure: the first factorization of a topology pays for the symbolic
//! analysis, and every later Newton iteration, gmin rung, transient step,
//! sweep point, or frequency point replays it numerically.
//!
//! The cutover is governed by [`BackendPolicy`]: automatic by dimension
//! and structural density, or forced either way (benchmarks and
//! equivalence tests force both and compare).

use crate::complexmat::{CMatrix, C64};
use crate::linalg::Matrix;
use crate::mna::{assemble_into_target, mna_pattern, StampContext};
use crate::netlist::Circuit;
use crate::sparse::{CscMatrix, RhsPanel, Scalar, SparseLu};
use crate::telemetry::{BackendKind, EngineStats};
use crate::AnalogError;

/// How the backend is selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BackendMode {
    /// Choose by system dimension and structural density (the default).
    #[default]
    Auto,
    /// Always use the dense LU path.
    ForceDense,
    /// Always use the sparse structure-caching path.
    ForceSparse,
}

/// The backend-selection policy of a workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendPolicy {
    /// Selection mode.
    pub mode: BackendMode,
    /// In [`BackendMode::Auto`], systems of this dimension or smaller stay
    /// dense — below roughly this size the dense kernel's tight loops beat
    /// any sparse bookkeeping, and every single-cell paper circuit falls
    /// here.
    pub dense_dim_cutoff: usize,
    /// In [`BackendMode::Auto`], larger systems go sparse only when the
    /// structural density (nonzeros over n²) is at or below this value.
    pub max_density: f64,
}

impl Default for BackendPolicy {
    fn default() -> Self {
        BackendPolicy {
            mode: BackendMode::Auto,
            dense_dim_cutoff: 32,
            max_density: 0.25,
        }
    }
}

/// Which backend a solver last factored with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActiveBackend {
    /// Dense LU.
    #[default]
    Dense,
    /// Sparse LU with cached structure.
    Sparse,
}

/// Assembly destination for the real MNA system: the stamping code in
/// [`crate::mna`] is written once against this enum, and static dispatch
/// keeps the dense arm's operations identical to the pre-backend code.
#[derive(Debug)]
pub enum RealTarget<'a> {
    /// Stamp into a dense matrix.
    Dense(&'a mut Matrix),
    /// Stamp into a sparse matrix over a fixed pattern.
    Sparse(&'a mut CscMatrix<f64>),
}

impl RealTarget<'_> {
    /// Reshapes/zeroes the target for a `dim × dim` assembly.
    pub fn reset(&mut self, dim: usize) {
        match self {
            RealTarget::Dense(m) => m.resize_zeroed(dim, dim),
            RealTarget::Sparse(m) => {
                debug_assert_eq!(m.dim(), dim, "sparse pattern dimension mismatch");
                m.clear();
            }
        }
    }

    /// Adds `value` at `(i, j)`.
    #[inline]
    pub fn stamp(&mut self, i: usize, j: usize, value: f64) {
        match self {
            RealTarget::Dense(m) => m.stamp(i, j, value),
            RealTarget::Sparse(m) => m.stamp(i, j, value),
        }
    }
}

/// Assembly destination for the complex (AC / noise) MNA system.
#[derive(Debug)]
pub enum ComplexTarget<'a> {
    /// Stamp into a dense complex matrix.
    Dense(&'a mut CMatrix),
    /// Stamp into a sparse complex matrix over a fixed pattern.
    Sparse(&'a mut CscMatrix<C64>),
}

impl ComplexTarget<'_> {
    /// Reshapes/zeroes the target for a `dim × dim` assembly.
    pub fn reset(&mut self, dim: usize) {
        match self {
            ComplexTarget::Dense(m) => m.resize_zeroed(dim),
            ComplexTarget::Sparse(m) => {
                debug_assert_eq!(m.dim(), dim, "sparse pattern dimension mismatch");
                m.clear();
            }
        }
    }

    /// Adds `value` at `(i, j)`.
    #[inline]
    pub fn stamp(&mut self, i: usize, j: usize, value: C64) {
        match self {
            ComplexTarget::Dense(m) => m.stamp(i, j, value),
            ComplexTarget::Sparse(m) => m.stamp(i, j, value),
        }
    }
}

/// What one backend factorization did, for telemetry. Returned by the
/// solvers so the engine (which owns the collector) can report it without
/// the backend layer holding a collector reference.
#[derive(Debug, Clone, Copy)]
pub struct FactorEvent {
    /// Which backend factored.
    pub kind: BackendKind,
    /// Whether the sparse backend replayed cached structure (always false
    /// for dense).
    pub refactor: bool,
    /// Sparse symbolic-cache outcome; `None` for dense.
    pub cache: Option<bool>,
    /// `(matrix nonzeros, factor nonzeros)` for sparse; `None` for dense.
    pub structure: Option<(u64, u64)>,
}

impl FactorEvent {
    /// Reports this event to a telemetry collector.
    pub fn report(&self, p: &mut EngineStats) {
        p.backend_factorization(self.kind, self.refactor);
        if let Some(hit) = self.cache {
            p.symbolic_cache(hit);
        }
        if let Some((nnz, factor_nnz)) = self.structure {
            p.matrix_structure(nnz, factor_nnz);
        }
    }
}

/// The sparse half of a solver: the assembled matrix over its cached
/// pattern, the factorization with its cached symbolic structure, and the
/// topology fingerprint that keys both.
#[derive(Debug, Clone)]
struct SparseState<S: Scalar> {
    fingerprint: u64,
    matrix: CscMatrix<S>,
    lu: SparseLu<S>,
}

impl<S: Scalar> SparseState<S> {
    fn for_circuit(circuit: &Circuit) -> Self {
        SparseState {
            fingerprint: circuit.structure_fingerprint(),
            matrix: CscMatrix::from_pattern(mna_pattern(circuit)),
            lu: SparseLu::new(),
        }
    }
}

/// Ensures `slot` holds sparse state for `circuit`'s topology, rebuilding
/// pattern and symbolic cache only when the fingerprint changed.
fn ensure_state<S: Scalar>(slot: &mut Option<SparseState<S>>, circuit: &Circuit) {
    let fp = circuit.structure_fingerprint();
    if slot.as_ref().is_none_or(|s| s.fingerprint != fp) {
        *slot = Some(SparseState::for_circuit(circuit));
    }
}

/// Whether `policy` sends this circuit to the sparse backend, creating or
/// refreshing the sparse state as a side effect when it does (and, for
/// [`BackendMode::Auto`], when the density check requires the pattern).
fn decide<S: Scalar>(
    slot: &mut Option<SparseState<S>>,
    circuit: &Circuit,
    dim: usize,
    policy: &BackendPolicy,
) -> bool {
    match policy.mode {
        BackendMode::ForceDense => false,
        BackendMode::ForceSparse => {
            ensure_state(slot, circuit);
            true
        }
        BackendMode::Auto => {
            if dim <= policy.dense_dim_cutoff {
                return false;
            }
            ensure_state(slot, circuit);
            let density = slot
                .as_ref()
                .expect("state ensured above")
                .matrix
                .pattern()
                .density();
            density <= policy.max_density
        }
    }
}

/// The real linear solver of a workspace: dense and sparse backends plus
/// the record of which one factored last.
#[derive(Debug, Clone)]
pub struct RealSolver {
    dense: Matrix,
    dense_perm: Vec<usize>,
    sparse: Option<SparseState<f64>>,
    active: ActiveBackend,
    dim: usize,
}

impl Default for RealSolver {
    fn default() -> Self {
        RealSolver::new()
    }
}

impl RealSolver {
    /// An empty solver.
    #[must_use]
    pub fn new() -> Self {
        RealSolver {
            dense: Matrix::zeros(0, 0),
            dense_perm: Vec::new(),
            sparse: None,
            active: ActiveBackend::Dense,
            dim: 0,
        }
    }

    /// The dimension of the last assembled system.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Which backend the last factorization used.
    #[must_use]
    pub fn active(&self) -> ActiveBackend {
        self.active
    }

    /// Pre-sizes the dense buffers for a `dim`-unknown system so the first
    /// solve allocates nothing once it starts iterating.
    pub fn reserve(&mut self, dim: usize) {
        self.dense.resize_zeroed(dim, dim);
        self.dense_perm.reserve(dim);
    }

    /// Assembles the MNA system linearized at `ctx` into the
    /// policy-selected backend and factors it, leaving the factors ready
    /// for [`Self::solve`] and the right-hand side in `rhs`.
    ///
    /// # Errors
    ///
    /// Propagates assembly and factorization errors.
    pub fn assemble_and_factor(
        &mut self,
        circuit: &Circuit,
        ctx: &StampContext<'_>,
        rhs: &mut Vec<f64>,
        policy: &BackendPolicy,
    ) -> Result<FactorEvent, AnalogError> {
        let dim = circuit.mna_dimension();
        self.dim = dim;
        if decide(&mut self.sparse, circuit, dim, policy) {
            let state = self.sparse.as_mut().expect("sparse state ensured");
            assemble_into_target(
                circuit,
                ctx,
                &mut RealTarget::Sparse(&mut state.matrix),
                rhs,
            )?;
            let replayed = state.lu.refactorize(&state.matrix)?;
            self.active = ActiveBackend::Sparse;
            Ok(FactorEvent {
                kind: BackendKind::SparseReal,
                refactor: replayed,
                cache: Some(replayed),
                structure: Some((
                    state.matrix.pattern().nnz() as u64,
                    state.lu.factor_nnz() as u64,
                )),
            })
        } else {
            assemble_into_target(circuit, ctx, &mut RealTarget::Dense(&mut self.dense), rhs)?;
            self.dense.factor_in_place(&mut self.dense_perm)?;
            self.active = ActiveBackend::Dense;
            Ok(FactorEvent {
                kind: BackendKind::DenseReal,
                refactor: false,
                cache: None,
                structure: None,
            })
        }
    }

    /// Solves the factored system for `b` into `x`.
    ///
    /// # Errors
    ///
    /// Propagates solve errors; must follow a successful
    /// [`Self::assemble_and_factor`].
    pub fn solve(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), AnalogError> {
        match self.active {
            ActiveBackend::Dense => self.dense.lu_solve_into(&self.dense_perm, b, x),
            ActiveBackend::Sparse => self
                .sparse
                .as_ref()
                .expect("sparse backend active without state")
                .lu
                .solve_into(b, x),
        }
    }

    /// Solves the factored system for a whole panel of right-hand sides —
    /// the batched counterpart of [`Self::solve`]. The sparse arm streams
    /// the factors once per block ([`crate::sparse::PANEL_BLOCK`]); the
    /// dense arm solves column by column with the same dense kernel, so
    /// either way each scenario's solution is bit-identical to a
    /// sequential [`Self::solve`] of that column.
    ///
    /// # Errors
    ///
    /// Propagates solve errors; must follow a successful
    /// [`Self::assemble_and_factor`].
    pub fn solve_panel(&self, b: &RhsPanel<f64>, x: &mut RhsPanel<f64>) -> Result<(), AnalogError> {
        match self.active {
            ActiveBackend::Dense => {
                x.reset(b.dim(), b.cols());
                let mut scratch = Vec::with_capacity(b.dim());
                for s in 0..b.cols() {
                    self.dense
                        .lu_solve_into(&self.dense_perm, b.col(s), &mut scratch)?;
                    x.col_mut(s).copy_from_slice(&scratch);
                }
                Ok(())
            }
            ActiveBackend::Sparse => self
                .sparse
                .as_ref()
                .expect("sparse backend active without state")
                .lu
                .solve_panel_into(b, x),
        }
    }
}

/// The complex linear solver of a workspace (AC / noise). Assembly is a
/// caller-supplied closure because each analysis stamps its own complex
/// system; the closure receives the policy-selected [`ComplexTarget`].
#[derive(Debug, Clone)]
pub struct ComplexSolver {
    dense: CMatrix,
    dense_perm: Vec<usize>,
    sparse: Option<SparseState<C64>>,
    active: ActiveBackend,
    dim: usize,
}

impl Default for ComplexSolver {
    fn default() -> Self {
        ComplexSolver::new()
    }
}

impl ComplexSolver {
    /// An empty solver.
    #[must_use]
    pub fn new() -> Self {
        ComplexSolver {
            dense: CMatrix::zeros(0),
            dense_perm: Vec::new(),
            sparse: None,
            active: ActiveBackend::Dense,
            dim: 0,
        }
    }

    /// The dimension of the last assembled system.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Which backend the last factorization used.
    #[must_use]
    pub fn active(&self) -> ActiveBackend {
        self.active
    }

    /// Runs `assemble` against the policy-selected backend target and
    /// factors the result, leaving the factors ready for [`Self::solve`].
    ///
    /// # Errors
    ///
    /// Propagates assembly and factorization errors.
    pub fn assemble_and_factor<F>(
        &mut self,
        circuit: &Circuit,
        policy: &BackendPolicy,
        assemble: F,
    ) -> Result<FactorEvent, AnalogError>
    where
        F: FnOnce(&mut ComplexTarget<'_>) -> Result<(), AnalogError>,
    {
        let dim = circuit.mna_dimension();
        self.dim = dim;
        if decide(&mut self.sparse, circuit, dim, policy) {
            let state = self.sparse.as_mut().expect("sparse state ensured");
            assemble(&mut ComplexTarget::Sparse(&mut state.matrix))?;
            let replayed = state.lu.refactorize(&state.matrix)?;
            self.active = ActiveBackend::Sparse;
            Ok(FactorEvent {
                kind: BackendKind::SparseComplex,
                refactor: replayed,
                cache: Some(replayed),
                structure: Some((
                    state.matrix.pattern().nnz() as u64,
                    state.lu.factor_nnz() as u64,
                )),
            })
        } else {
            assemble(&mut ComplexTarget::Dense(&mut self.dense))?;
            self.dense.factor_in_place(&mut self.dense_perm)?;
            self.active = ActiveBackend::Dense;
            Ok(FactorEvent {
                kind: BackendKind::DenseComplex,
                refactor: false,
                cache: None,
                structure: None,
            })
        }
    }

    /// Solves the factored system for `b` into `x`.
    ///
    /// # Errors
    ///
    /// Propagates solve errors; must follow a successful
    /// [`Self::assemble_and_factor`].
    pub fn solve(&self, b: &[C64], x: &mut Vec<C64>) -> Result<(), AnalogError> {
        match self.active {
            ActiveBackend::Dense => self.dense.lu_solve_into(&self.dense_perm, b, x),
            ActiveBackend::Sparse => self
                .sparse
                .as_ref()
                .expect("sparse backend active without state")
                .lu
                .solve_into(b, x),
        }
    }

    /// Panel counterpart of [`Self::solve`]; see
    /// [`RealSolver::solve_panel`] for the bit-identity contract.
    ///
    /// # Errors
    ///
    /// Propagates solve errors; must follow a successful
    /// [`Self::assemble_and_factor`].
    pub fn solve_panel(&self, b: &RhsPanel<C64>, x: &mut RhsPanel<C64>) -> Result<(), AnalogError> {
        match self.active {
            ActiveBackend::Dense => {
                x.reset(b.dim(), b.cols());
                let mut scratch = Vec::with_capacity(b.dim());
                for s in 0..b.cols() {
                    self.dense
                        .lu_solve_into(&self.dense_perm, b.col(s), &mut scratch)?;
                    x.col_mut(s).copy_from_slice(&scratch);
                }
                Ok(())
            }
            ActiveBackend::Sparse => self
                .sparse
                .as_ref()
                .expect("sparse backend active without state")
                .lu
                .solve_panel_into(b, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Amps, Ohms};

    /// An n-stage resistive ladder driven by a current source: dimension n,
    /// tridiagonal structure.
    fn ladder(stages: usize) -> Circuit {
        let mut c = Circuit::new();
        let mut prev = Circuit::GROUND;
        for k in 0..stages {
            let n = c.node(&format!("n{k}"));
            c.resistor(&format!("R{k}"), prev, n, Ohms(1e3)).unwrap();
            c.resistor(&format!("Rg{k}"), n, Circuit::GROUND, Ohms(1e4))
                .unwrap();
            prev = n;
        }
        let n0 = c.node("n0");
        c.current_source("Iin", Circuit::GROUND, n0, Amps(1e-3))
            .unwrap();
        c
    }

    fn solve_with(policy: &BackendPolicy, circuit: &Circuit) -> (Vec<f64>, ActiveBackend) {
        let guess = vec![0.0; circuit.node_count()];
        let ctx = StampContext::dc(&guess);
        let mut solver = RealSolver::new();
        let mut rhs = Vec::new();
        solver
            .assemble_and_factor(circuit, &ctx, &mut rhs, policy)
            .unwrap();
        let mut x = Vec::new();
        solver.solve(&rhs, &mut x).unwrap();
        (x, solver.active())
    }

    #[test]
    fn auto_keeps_small_circuits_dense_and_large_sparse() {
        let policy = BackendPolicy::default();
        let (_, small_backend) = solve_with(&policy, &ladder(8));
        assert_eq!(small_backend, ActiveBackend::Dense);
        let (_, large_backend) = solve_with(&policy, &ladder(60));
        assert_eq!(large_backend, ActiveBackend::Sparse);
    }

    #[test]
    fn forced_backends_agree_on_the_solution() {
        let circuit = ladder(40);
        let (dense_x, db) = solve_with(
            &BackendPolicy {
                mode: BackendMode::ForceDense,
                ..BackendPolicy::default()
            },
            &circuit,
        );
        let (sparse_x, sb) = solve_with(
            &BackendPolicy {
                mode: BackendMode::ForceSparse,
                ..BackendPolicy::default()
            },
            &circuit,
        );
        assert_eq!(db, ActiveBackend::Dense);
        assert_eq!(sb, ActiveBackend::Sparse);
        assert_eq!(dense_x.len(), sparse_x.len());
        for (u, v) in dense_x.iter().zip(&sparse_x) {
            assert!((u - v).abs() < 1e-9 * u.abs().max(1.0), "{u} vs {v}");
        }
    }

    #[test]
    fn symbolic_cache_survives_value_changes_and_resets_on_topology_change() {
        let circuit = ladder(50);
        let guess = vec![0.0; circuit.node_count()];
        let ctx = StampContext::dc(&guess);
        let policy = BackendPolicy {
            mode: BackendMode::ForceSparse,
            ..BackendPolicy::default()
        };
        let mut solver = RealSolver::new();
        let mut rhs = Vec::new();
        let first = solver
            .assemble_and_factor(&circuit, &ctx, &mut rhs, &policy)
            .unwrap();
        assert_eq!(first.cache, Some(false), "first factorization is a miss");
        let second = solver
            .assemble_and_factor(&circuit, &ctx, &mut rhs, &policy)
            .unwrap();
        assert_eq!(second.cache, Some(true), "same topology replays");
        assert!(second.refactor);

        let other = ladder(51);
        let other_guess = vec![0.0; other.node_count()];
        let other_ctx = StampContext::dc(&other_guess);
        let third = solver
            .assemble_and_factor(&other, &other_ctx, &mut rhs, &policy)
            .unwrap();
        assert_eq!(third.cache, Some(false), "new topology is a miss");
    }

    #[test]
    fn dense_cutoff_is_respected_in_auto() {
        let circuit = ladder(60);
        let policy = BackendPolicy {
            dense_dim_cutoff: 1000,
            ..BackendPolicy::default()
        };
        let (_, backend) = solve_with(&policy, &circuit);
        assert_eq!(backend, ActiveBackend::Dense);
    }

    #[test]
    fn panel_solve_matches_sequential_on_both_backends() {
        let circuit = ladder(40);
        let guess = vec![0.0; circuit.node_count()];
        let ctx = StampContext::dc(&guess);
        for mode in [BackendMode::ForceDense, BackendMode::ForceSparse] {
            let policy = BackendPolicy {
                mode,
                ..BackendPolicy::default()
            };
            let mut solver = RealSolver::new();
            let mut rhs = Vec::new();
            solver
                .assemble_and_factor(&circuit, &ctx, &mut rhs, &policy)
                .unwrap();
            // A scenario family: the assembled RHS scaled per scenario.
            let columns: Vec<Vec<f64>> = (0..11)
                .map(|s| rhs.iter().map(|v| v * (1.0 + 0.1 * s as f64)).collect())
                .collect();
            let b = RhsPanel::from_columns(&columns).unwrap();
            let mut x = RhsPanel::default();
            solver.solve_panel(&b, &mut x).unwrap();
            for (s, column) in columns.iter().enumerate() {
                let mut seq = Vec::new();
                solver.solve(column, &mut seq).unwrap();
                for (u, v) in x.col(s).iter().zip(&seq) {
                    assert_eq!(u.to_bits(), v.to_bits(), "{mode:?} scenario {s}");
                }
            }
        }
    }

    #[test]
    fn factor_event_reports_structure() {
        let circuit = ladder(40);
        let guess = vec![0.0; circuit.node_count()];
        let ctx = StampContext::dc(&guess);
        let policy = BackendPolicy {
            mode: BackendMode::ForceSparse,
            ..BackendPolicy::default()
        };
        let mut solver = RealSolver::new();
        let mut rhs = Vec::new();
        let event = solver
            .assemble_and_factor(&circuit, &ctx, &mut rhs, &policy)
            .unwrap();
        assert_eq!(event.kind, BackendKind::SparseReal);
        let (nnz, factor_nnz) = event.structure.unwrap();
        assert!(nnz > 0 && factor_nnz >= nnz / 2);

        let mut stats = crate::telemetry::EngineStats::new();
        event.report(&mut stats);
        assert_eq!(stats.sparse_real_factorizations, 1);
        assert_eq!(stats.symbolic_cache_misses, 1);
        assert_eq!(stats.max_matrix_nonzeros, nnz);
    }
}
