//! The solver backend layer: one abstraction over the dense and sparse
//! linear-algebra paths, generic over the [`Scalar`] field — `f64` for DC
//! and transient, [`si_dsp::Complex`] for AC and noise.
//!
//! Every analysis assembles an MNA system and factors it; *how* is a
//! per-circuit decision this module owns. Tiny circuits (the paper's
//! individual cells are a dozen unknowns) keep the dense LU fast path
//! ([`crate::linalg::Matrix`]), which the [`Target::Dense`] arm stamps
//! into directly. Large, sparse circuits (delay lines, modulators, cell
//! arrays) switch to [`crate::sparse::SparseLu`] with its cached symbolic
//! structure: the first factorization of a topology pays for the symbolic
//! analysis, and every later Newton iteration, gmin rung, transient step,
//! sweep point, or frequency point replays it numerically.
//!
//! The cutover is governed by [`BackendMode`]: automatic by dimension
//! (`DENSE_DIM_CUTOFF`) and structural density (`MAX_SPARSE_DENSITY`),
//! or forced either way (benchmarks and equivalence tests force both and
//! compare).

use crate::linalg::Matrix;
use crate::mna::mna_pattern;
use crate::netlist::Circuit;
use crate::sparse::{CscMatrix, RhsPanel, Scalar, SparseLu};
use crate::telemetry::{BackendKind, EngineStats};
use crate::AnalogError;

/// How the backend is selected: the backend policy of a workspace.
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

/// In [`BackendMode::Auto`], systems of this dimension or smaller stay
/// dense — below roughly this size the dense kernel's tight loops beat
/// any sparse bookkeeping, and every single-cell paper circuit falls
/// here.
pub(crate) const DENSE_DIM_CUTOFF: usize = 32;

/// In [`BackendMode::Auto`], larger systems go sparse only when the
/// structural density (nonzeros over n²) is at or below this value.
pub(crate) const MAX_SPARSE_DENSITY: f64 = 0.25;

/// Which backend a solver last factored with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ActiveBackend {
    /// Dense LU.
    #[default]
    Dense,
    /// Sparse LU with cached structure.
    Sparse,
}

/// Assembly destination for an MNA system: the one stamp walk in
/// [`crate::mna`] writes through this enum (from
/// `crate::mna::assemble_into_target` for the real system, the AC
/// front-end for the complex one), and static dispatch keeps each arm a
/// plain stamp into its backend's storage.
#[derive(Debug)]
pub enum Target<'a, S: Scalar> {
    /// Stamp into a dense matrix.
    Dense(&'a mut Matrix<S>),
    /// Stamp into a sparse matrix over a fixed pattern.
    Sparse(&'a mut CscMatrix<S>),
}

impl<S: Scalar> Target<'_, S> {
    /// Reshapes/zeroes the target for a `dim × dim` assembly.
    pub fn reset(&mut self, dim: usize) {
        match self {
            Target::Dense(m) => m.resize_zeroed(dim, dim),
            Target::Sparse(m) => {
                debug_assert_eq!(m.dim(), dim, "sparse pattern dimension mismatch");
                m.clear();
            }
        }
    }

    /// Adds `value` at `(i, j)`.
    #[inline]
    pub fn stamp(&mut self, i: usize, j: usize, value: S) {
        match self {
            Target::Dense(m) => m.stamp(i, j, value),
            Target::Sparse(m) => m.stamp(i, j, value),
        }
    }
}

/// What one backend factorization did, for telemetry. Returned by the
/// solvers so the engine (which owns the collector) can report it without
/// the backend layer holding a collector reference.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FactorEvent {
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

/// The linear solver of a workspace over one scalar field: dense and
/// sparse backends plus the record of which one factored last. Assembly
/// is a caller-supplied closure, so the real and complex analyses share
/// one factor-and-solve path.
#[derive(Debug, Clone)]
pub struct Solver<S: Scalar> {
    dense: Matrix<S>,
    dense_perm: Vec<usize>,
    sparse: Option<SparseState<S>>,
    active: ActiveBackend,
    dim: usize,
}

impl<S: Scalar> Default for Solver<S> {
    fn default() -> Self {
        Solver::new()
    }
}

impl<S: Scalar> Solver<S> {
    /// An empty solver.
    #[must_use]
    pub fn new() -> Self {
        Solver {
            dense: Matrix::zeros(0, 0),
            dense_perm: Vec::new(),
            sparse: None,
            active: ActiveBackend::Dense,
            dim: 0,
        }
    }

    /// The dimension of the last assembled system.
    #[must_use]
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Pre-sizes the dense buffers for a `dim`-unknown system so the first
    /// solve allocates nothing once it starts iterating.
    pub(crate) fn reserve(&mut self, dim: usize) {
        self.dense.resize_zeroed(dim, dim);
        self.dense_perm.reserve(dim);
    }

    /// Whether `mode` sends this `dim`-unknown circuit to the sparse
    /// backend. Creates or refreshes the sparse state when it does, and in
    /// [`BackendMode::Auto`] when the density check needs the pattern; the
    /// pattern and symbolic cache are rebuilt only when the topology
    /// fingerprint changed.
    fn goes_sparse(&mut self, circuit: &Circuit, dim: usize, mode: BackendMode) -> bool {
        match mode {
            BackendMode::ForceDense => return false,
            BackendMode::Auto if dim <= DENSE_DIM_CUTOFF => return false,
            BackendMode::Auto | BackendMode::ForceSparse => {}
        }
        let fp = circuit.structure_fingerprint();
        if self.sparse.as_ref().is_none_or(|s| s.fingerprint != fp) {
            self.sparse = Some(SparseState::for_circuit(circuit));
        }
        mode == BackendMode::ForceSparse
            || self.sparse_state().matrix.pattern().density() <= MAX_SPARSE_DENSITY
    }

    /// Runs `assemble` against the `mode`-selected backend target and
    /// factors the result, leaving the factors ready for [`Self::solve`].
    ///
    /// # Errors
    ///
    /// Propagates assembly and factorization errors.
    pub(crate) fn assemble_and_factor<F>(
        &mut self,
        circuit: &Circuit,
        mode: BackendMode,
        assemble: F,
    ) -> Result<FactorEvent, AnalogError>
    where
        F: FnOnce(&mut Target<'_, S>) -> Result<(), AnalogError>,
    {
        let dim = circuit.mna_dimension();
        self.dim = dim;
        if self.goes_sparse(circuit, dim, mode) {
            let state = self.sparse.as_mut().expect("sparse state ensured");
            assemble(&mut Target::Sparse(&mut state.matrix))?;
            let replayed = state.lu.refactorize(&state.matrix)?;
            self.active = ActiveBackend::Sparse;
            Ok(FactorEvent {
                kind: S::SPARSE_BACKEND,
                refactor: replayed,
                cache: Some(replayed),
                structure: Some((
                    state.matrix.pattern().nnz() as u64,
                    state.lu.factor_nnz() as u64,
                )),
            })
        } else {
            assemble(&mut Target::Dense(&mut self.dense))?;
            self.dense.factor_in_place(&mut self.dense_perm)?;
            self.active = ActiveBackend::Dense;
            Ok(FactorEvent {
                kind: S::DENSE_BACKEND,
                refactor: false,
                cache: None,
                structure: None,
            })
        }
    }

    /// The sparse state; present once the sparse backend was chosen.
    fn sparse_state(&self) -> &SparseState<S> {
        self.sparse
            .as_ref()
            .expect("sparse backend chosen without state")
    }

    /// Solves the factored system for `b` into `x`.
    ///
    /// # Errors
    ///
    /// Propagates solve errors; must follow a successful
    /// `Self::assemble_and_factor`.
    pub fn solve(&self, b: &[S], x: &mut Vec<S>) -> Result<(), AnalogError> {
        match self.active {
            ActiveBackend::Dense => self.dense.lu_solve_into(&self.dense_perm, b, x),
            ActiveBackend::Sparse => self.sparse_state().lu.solve_into(b, x),
        }
    }

    /// Solves the factored system for a whole panel of right-hand sides —
    /// the batched counterpart of [`Self::solve`]. The sparse arm streams
    /// the factors once per block (`crate::sparse::PANEL_BLOCK`); the
    /// dense arm solves column by column with the same dense kernel, so
    /// either way each scenario's solution is bit-identical to a
    /// sequential [`Self::solve`] of that column.
    ///
    /// # Errors
    ///
    /// Propagates solve errors; must follow a successful
    /// `Self::assemble_and_factor`.
    pub fn solve_panel(&self, b: &RhsPanel<S>, x: &mut RhsPanel<S>) -> Result<(), AnalogError> {
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
            ActiveBackend::Sparse => self.sparse_state().lu.solve_panel_into(b, x),
        }
    }
}

#[cfg(test)]
impl<S: Scalar> Solver<S> {
    /// Which backend the last factorization used.
    #[must_use]
    pub(crate) fn active(&self) -> ActiveBackend {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::{assemble_into_target, StampContext};
    use crate::units::{Amps, Ohms};

    /// Assembles the DC system at `ctx` into `solver` and factors it.
    fn factor(
        solver: &mut Solver<f64>,
        circuit: &Circuit,
        ctx: &StampContext<'_>,
        rhs: &mut Vec<f64>,
        mode: BackendMode,
    ) -> FactorEvent {
        solver
            .assemble_and_factor(circuit, mode, |t| {
                assemble_into_target(circuit, ctx, t, rhs)
            })
            .unwrap()
    }

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

    fn solve_with(mode: BackendMode, circuit: &Circuit) -> (Vec<f64>, ActiveBackend) {
        let guess = vec![0.0; circuit.node_count()];
        let ctx = StampContext::dc(&guess);
        let mut solver = Solver::new();
        let mut rhs = Vec::new();
        factor(&mut solver, circuit, &ctx, &mut rhs, mode);
        let mut x = Vec::new();
        solver.solve(&rhs, &mut x).unwrap();
        (x, solver.active())
    }

    #[test]
    fn auto_keeps_small_circuits_dense_and_large_sparse() {
        let (_, small_backend) = solve_with(BackendMode::Auto, &ladder(8));
        assert_eq!(small_backend, ActiveBackend::Dense);
        let (_, large_backend) = solve_with(BackendMode::Auto, &ladder(60));
        assert_eq!(large_backend, ActiveBackend::Sparse);
    }

    #[test]
    fn forced_backends_agree_on_the_solution() {
        let circuit = ladder(40);
        let (dense_x, db) = solve_with(BackendMode::ForceDense, &circuit);
        let (sparse_x, sb) = solve_with(BackendMode::ForceSparse, &circuit);
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
        let mode = BackendMode::ForceSparse;
        let mut solver = Solver::new();
        let mut rhs = Vec::new();
        let first = factor(&mut solver, &circuit, &ctx, &mut rhs, mode);
        assert_eq!(first.cache, Some(false), "first factorization is a miss");
        let second = factor(&mut solver, &circuit, &ctx, &mut rhs, mode);
        assert_eq!(second.cache, Some(true), "same topology replays");
        assert!(second.refactor);

        let other = ladder(51);
        let other_guess = vec![0.0; other.node_count()];
        let other_ctx = StampContext::dc(&other_guess);
        let third = factor(&mut solver, &other, &other_ctx, &mut rhs, mode);
        assert_eq!(third.cache, Some(false), "new topology is a miss");
    }

    #[test]
    fn dense_cutoff_is_respected_in_auto() {
        // A ladder's dimension is its stage count, and its density is far
        // under the sparse ceiling.
        let (_, at) = solve_with(BackendMode::Auto, &ladder(DENSE_DIM_CUTOFF));
        assert_eq!(at, ActiveBackend::Dense);
        let (_, past) = solve_with(BackendMode::Auto, &ladder(DENSE_DIM_CUTOFF + 1));
        assert_eq!(past, ActiveBackend::Sparse);
    }

    #[test]
    fn panel_solve_matches_sequential_on_both_backends() {
        let circuit = ladder(40);
        let guess = vec![0.0; circuit.node_count()];
        let ctx = StampContext::dc(&guess);
        for mode in [BackendMode::ForceDense, BackendMode::ForceSparse] {
            let mut solver = Solver::new();
            let mut rhs = Vec::new();
            factor(&mut solver, &circuit, &ctx, &mut rhs, mode);
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
        let mut solver = Solver::new();
        let mut rhs = Vec::new();
        let event = factor(
            &mut solver,
            &circuit,
            &ctx,
            &mut rhs,
            BackendMode::ForceSparse,
        );
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
