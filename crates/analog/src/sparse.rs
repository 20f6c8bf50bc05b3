//! Sparse linear algebra for modified nodal analysis.
//!
//! SI netlists produce MNA matrices that are overwhelmingly structural
//! zeros — a current-copier chain couples each node only to its clocked
//! neighbours — and whose *sparsity pattern never changes* for the life of
//! a circuit: Newton iterations, gmin rungs, transient steps, and sweep
//! points restamp new values into the same positions. This module exploits
//! both facts:
//!
//! * [`SparsityPattern`] / [`CscMatrix`] — compressed-sparse-column
//!   storage over a fixed position set, with binary-search stamping so MNA
//!   assembly needs no dense scratch.
//! * [`SparseLu`] — a left-looking (Gilbert–Peierls) LU factorization with
//!   partial pivoting. The first factorization performs the symbolic
//!   analysis (depth-first reachability per column, recording the fill-in
//!   pattern and pivot order); every later `SparseLu::refactorize`
//!   *replays* that structure numerically, skipping graph traversal and
//!   allocation entirely. Replay falls back to a full factorization when a
//!   frozen pivot degrades, so cached structure never costs robustness.
//!
//! Everything is generic over [`Scalar`] so the real (DC / transient) and
//! complex (AC / noise) solver paths share one kernel, as the dense
//! [`crate::linalg::Matrix`] does. Like [`crate::linalg`], this module is
//! self-contained: no external numerics dependency.

use crate::telemetry::BackendKind;
use crate::AnalogError;
use si_dsp::Complex;

/// Pivot magnitudes below this are treated as singular, by the dense and
/// the sparse LU alike.
pub(crate) const PIVOT_EPS: f64 = 1e-300;

/// The field the dense and sparse kernels operate over: `f64` for the real
/// MNA path, [`Complex`] for AC and noise.
pub trait Scalar:
    Copy
    + std::fmt::Debug
    + Default
    + PartialEq
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + Send
    + Sync
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// The telemetry tag of a dense factorization over this field.
    const DENSE_BACKEND: BackendKind;
    /// The telemetry tag of a sparse factorization over this field.
    const SPARSE_BACKEND: BackendKind;

    /// The magnitude used for pivot selection.
    fn modulus(self) -> f64;

    /// Whether every component is finite.
    fn is_finite_scalar(self) -> bool;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    const DENSE_BACKEND: BackendKind = BackendKind::DenseReal;
    const SPARSE_BACKEND: BackendKind = BackendKind::SparseReal;

    fn modulus(self) -> f64 {
        self.abs()
    }

    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    const ONE: Complex = Complex::ONE;
    const DENSE_BACKEND: BackendKind = BackendKind::DenseComplex;
    const SPARSE_BACKEND: BackendKind = BackendKind::SparseComplex;

    fn modulus(self) -> f64 {
        self.abs()
    }

    fn is_finite_scalar(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

/// The fixed structural-nonzero position set of a sparse matrix, in
/// compressed-sparse-column form. Rows within each column are sorted and
/// deduplicated, so position lookup is a binary search over a short slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    col_ptr: Vec<usize>,
    rows: Vec<usize>,
}

impl SparsityPattern {
    /// Builds a pattern for an `n × n` matrix from `(row, col)` positions.
    /// Duplicates are merged; order is irrelevant.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range — position sets come from the
    /// netlist walker, so a bad index is a programming error.
    #[must_use]
    pub fn from_entries(n: usize, entries: &[(usize, usize)]) -> Self {
        let mut per_col: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(r, c) in entries {
            assert!(r < n && c < n, "pattern entry ({r},{c}) out of range");
            per_col[c].push(r);
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut rows = Vec::with_capacity(entries.len());
        col_ptr.push(0);
        for col in &mut per_col {
            col.sort_unstable();
            col.dedup();
            rows.extend_from_slice(col);
            col_ptr.push(rows.len());
        }
        SparsityPattern { n, col_ptr, rows }
    }

    /// Number of structural nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Fraction of the dense position count that is structurally nonzero.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.n as f64 * self.n as f64)
    }

    /// Sorted row indices of column `col`.
    #[must_use]
    pub fn column(&self, col: usize) -> &[usize] {
        &self.rows[self.col_ptr[col]..self.col_ptr[col + 1]]
    }

    /// The value-slot index of position `(row, col)`, if it is in the
    /// pattern.
    #[must_use]
    pub(crate) fn index_of(&self, row: usize, col: usize) -> Option<usize> {
        let start = self.col_ptr[col];
        let slice = &self.rows[start..self.col_ptr[col + 1]];
        slice.binary_search(&row).ok().map(|k| start + k)
    }
}

/// A sparse matrix over a fixed [`SparsityPattern`]: the pattern is the
/// symbolic half, `values` the numeric half. Restamping a new linearization
/// touches only `values`, which is what lets [`SparseLu`] cache its
/// symbolic analysis across solves.
#[derive(Debug, Clone)]
pub struct CscMatrix<S: Scalar> {
    pattern: SparsityPattern,
    values: Vec<S>,
}

impl<S: Scalar> CscMatrix<S> {
    /// An all-zero matrix over `pattern`.
    #[must_use]
    pub fn from_pattern(pattern: SparsityPattern) -> Self {
        let values = vec![S::ZERO; pattern.nnz()];
        CscMatrix { pattern, values }
    }

    /// The matrix dimension.
    #[must_use]
    pub(crate) fn dim(&self) -> usize {
        self.pattern.n
    }

    /// The structural pattern.
    #[must_use]
    pub(crate) fn pattern(&self) -> &SparsityPattern {
        &self.pattern
    }

    /// Sets every value back to zero, keeping the structure.
    pub fn clear(&mut self) {
        self.values.iter_mut().for_each(|v| *v = S::ZERO);
    }

    /// Adds `value` to entry `(i, j)` — the MNA "stamp" primitive.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is not a structural nonzero. The assembly
    /// pattern ([`crate::mna::mna_pattern`]) comes from the same stamp walk
    /// as every assembly, with every optional stamp on, so a miss is a
    /// programming error, exactly like a dense out-of-range stamp.
    pub fn stamp(&mut self, i: usize, j: usize, value: S) {
        let slot = self
            .pattern
            .index_of(i, j)
            .unwrap_or_else(|| panic!("stamp ({i},{j}) outside sparsity pattern"));
        self.values[slot] += value;
    }

    /// Reads entry `(i, j)`; zero when outside the pattern.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> S {
        self.pattern
            .index_of(i, j)
            .map_or(S::ZERO, |slot| self.values[slot])
    }

    /// Matrix–vector product `A·x`, for residual checks in tests.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] on a dimension mismatch.
    pub fn mul_vec(&self, x: &[S]) -> Result<Vec<S>, AnalogError> {
        if x.len() != self.pattern.n {
            return Err(AnalogError::InvalidParameter {
                name: "x",
                constraint: "vector length must equal matrix dimension",
            });
        }
        let mut y = vec![S::ZERO; self.pattern.n];
        for (col, &xc) in x.iter().enumerate() {
            for k in self.pattern.col_ptr[col]..self.pattern.col_ptr[col + 1] {
                y[self.pattern.rows[k]] += self.values[k] * xc;
            }
        }
        Ok(y)
    }
}

/// How many right-hand sides a panel solve processes per pass over the
/// factors. Each pass streams `L` and `U` once while the block's columns
/// stay cache-resident, which is where the batched speedup comes from.
pub(crate) const PANEL_BLOCK: usize = 8;

/// A panel of right-hand sides (or solutions) in structure-of-arrays
/// form: scenario `s` occupies the contiguous slice `[s·n, (s+1)·n)`.
/// This is the batch currency of the solve stack — one allocation for a
/// whole scenario family, handed to [`SparseLu::solve_panel_into`] and the
/// backend dispatchers in [`crate::solver`].
#[derive(Debug, Clone, Default)]
pub struct RhsPanel<S: Scalar> {
    n: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> RhsPanel<S> {
    /// An all-zero `n × cols` panel.
    #[must_use]
    pub fn zeros(n: usize, cols: usize) -> Self {
        RhsPanel {
            n,
            cols,
            data: vec![S::ZERO; n * cols],
        }
    }

    /// Builds a panel from per-scenario vectors, which must all have the
    /// same length.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] when column lengths
    /// disagree.
    pub fn from_columns(columns: &[Vec<S>]) -> Result<Self, AnalogError> {
        let n = columns.first().map_or(0, Vec::len);
        if columns.iter().any(|c| c.len() != n) {
            return Err(AnalogError::InvalidParameter {
                name: "columns",
                constraint: "every panel column must have the same length",
            });
        }
        let mut data = Vec::with_capacity(n * columns.len());
        for c in columns {
            data.extend_from_slice(c);
        }
        Ok(RhsPanel {
            n,
            cols: columns.len(),
            data,
        })
    }

    /// Rows per scenario (the matrix dimension).
    #[must_use]
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Number of scenarios in the panel.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Scenario `s` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    #[must_use]
    pub fn col(&self, s: usize) -> &[S] {
        &self.data[s * self.n..(s + 1) * self.n]
    }

    /// Mutable view of scenario `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    pub(crate) fn col_mut(&mut self, s: usize) -> &mut [S] {
        &mut self.data[s * self.n..(s + 1) * self.n]
    }

    /// Resizes to `n × cols` and zeroes every value, reusing the
    /// allocation when it suffices.
    pub fn reset(&mut self, n: usize, cols: usize) {
        self.n = n;
        self.cols = cols;
        self.data.clear();
        self.data.resize(n * cols, S::ZERO);
    }
}

/// One triangular factor in compressed-sparse-column form, with row
/// indices in the *pivot-permuted* space. `L` columns are sorted ascending
/// with the unit diagonal first; `U` columns are sorted ascending with the
/// diagonal last. Both orders are valid elimination orders, which is what
/// lets [`SparseLu::refactorize`] replay them without re-deriving a
/// topological order.
#[derive(Debug, Clone, Default)]
struct Factor<S: Scalar> {
    col_ptr: Vec<usize>,
    rows: Vec<usize>,
    vals: Vec<S>,
}

impl<S: Scalar> Factor<S> {
    fn clear(&mut self) {
        self.col_ptr.clear();
        self.rows.clear();
        self.vals.clear();
    }

    fn column(&self, k: usize) -> (&[usize], &[S]) {
        let range = self.col_ptr[k]..self.col_ptr[k + 1];
        (&self.rows[range.clone()], &self.vals[range])
    }
}

/// A sparse LU factorization `P·A = L·U` with cached symbolic structure.
///
/// [`SparseLu::factorize`] performs the full Gilbert–Peierls left-looking
/// factorization with partial pivoting: per column, a depth-first search
/// over the partially built `L` discovers the fill-in pattern, a sparse
/// triangular solve computes the numeric column, and the largest remaining
/// entry is chosen as pivot. The resulting pivot order and `L`/`U`
/// patterns are retained; `SparseLu::refactorize` then updates only the
/// numeric values for a matrix with the same pattern — no graph traversal,
/// no allocation — which is the per-Newton-iteration / per-timestep /
/// per-frequency fast path.
#[derive(Debug, Clone, Default)]
pub struct SparseLu<S: Scalar> {
    n: usize,
    /// `perm[k]` = original row chosen as the pivot of column `k`.
    perm: Vec<usize>,
    /// `pinv[orig_row]` = pivot column, i.e. the permuted row index.
    pinv: Vec<usize>,
    lower: Factor<S>,
    upper: Factor<S>,
    /// Dense numeric workspace, `n` long, zero outside the active column.
    x: Vec<S>,
    /// DFS node stack (full factorization only).
    dfs_stack: Vec<usize>,
    /// DFS per-node child cursor, parallel to `dfs_stack`.
    dfs_cursor: Vec<usize>,
    /// Visited marks for the DFS, reset per column via the reach list.
    marked: Vec<bool>,
    /// Topological order output of the reach computation.
    reach: Vec<usize>,
    /// Whether a factorization (and hence the cached structure) exists.
    has_symbolic: bool,
}

/// Sentinel for "row not yet pivotal" during factorization.
const UNPIVOTED: usize = usize::MAX;

impl<S: Scalar> SparseLu<S> {
    /// A frozen pivot smaller than this fraction of the largest candidate
    /// in its column forces replay to fall back to a full refactorization
    /// with fresh pivoting.
    const PIVOT_DEGRADE: f64 = 1e-10;

    /// An empty factorization; call [`Self::factorize`] before solving.
    #[must_use]
    pub fn new() -> Self {
        SparseLu::default()
    }

    /// Nonzeros in the computed factors (`L` strictly below the diagonal
    /// plus all of `U`), the fill-in telemetry number.
    #[must_use]
    pub(crate) fn factor_nnz(&self) -> usize {
        if !self.has_symbolic {
            return 0;
        }
        // L stores the unit diagonal explicitly; don't count it twice
        // against U's diagonal.
        self.lower.rows.len() - self.n + self.upper.rows.len()
    }

    /// Full Gilbert–Peierls factorization of `a`, rebuilding the symbolic
    /// structure from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::SingularMatrix`] when a column has no usable
    /// pivot.
    pub fn factorize(&mut self, a: &CscMatrix<S>) -> Result<(), AnalogError> {
        let n = a.dim();
        self.n = n;
        self.has_symbolic = false;
        self.perm.clear();
        self.perm.resize(n, 0);
        self.pinv.clear();
        self.pinv.resize(n, UNPIVOTED);
        self.lower.clear();
        self.upper.clear();
        self.lower.col_ptr.push(0);
        self.upper.col_ptr.push(0);
        self.x.clear();
        self.x.resize(n, S::ZERO);
        self.marked.clear();
        self.marked.resize(n, false);
        self.reach.clear();
        self.reach.reserve(n);

        for k in 0..n {
            // Symbolic step: the nonzero pattern of L⁻¹·(A column k) is the
            // set of rows reachable from A's entries through the graph of
            // the already-built L columns. Depth-first search emits them in
            // reverse topological order.
            self.reach.clear();
            let (a_rows, a_vals) = {
                let p = &a.pattern;
                let range = p.col_ptr[k]..p.col_ptr[k + 1];
                (&p.rows[range.clone()], &a.values[range])
            };
            for &row in a_rows {
                if !self.marked[row] {
                    self.dfs_from(row);
                }
            }
            // `reach` is in reverse topological order; process back to
            // front for the numeric solve.

            // Numeric step: sparse triangular solve x = L⁻¹·(A column k).
            for &row in self.reach.iter() {
                self.x[row] = S::ZERO;
            }
            for (&row, &val) in a_rows.iter().zip(a_vals) {
                self.x[row] = val;
            }
            for idx in (0..self.reach.len()).rev() {
                let j = self.reach[idx];
                let jnew = self.pinv[j];
                if jnew == UNPIVOTED {
                    continue;
                }
                let xj = self.x[j];
                let (l_rows, l_vals) = self.lower.column(jnew);
                // Entry 0 is the pivot row itself (unit diagonal).
                for (&row, &lv) in l_rows.iter().zip(l_vals).skip(1) {
                    self.x[row] -= lv * xj;
                }
            }

            // Pivot: the largest-magnitude entry among not-yet-pivotal rows.
            let mut pivot_row = UNPIVOTED;
            let mut pivot_mag = -1.0;
            for &row in self.reach.iter() {
                if self.pinv[row] != UNPIVOTED {
                    continue;
                }
                let mag = self.x[row].modulus();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = row;
                }
            }
            if pivot_row == UNPIVOTED || pivot_mag < PIVOT_EPS || !pivot_mag.is_finite() {
                self.reset_after_failure();
                return Err(AnalogError::SingularMatrix { row: k });
            }
            let pivot = self.x[pivot_row];

            // Record U column k: pivotal rows (permuted index < k) plus the
            // diagonal, and L column k: unit diagonal plus the scaled
            // remainder. Row order within a column is fixed up after the
            // loop, once every pivot is known.
            for &row in self.reach.iter() {
                let rnew = self.pinv[row];
                if rnew != UNPIVOTED {
                    self.upper.rows.push(rnew);
                    self.upper.vals.push(self.x[row]);
                }
            }
            self.upper.rows.push(k);
            self.upper.vals.push(pivot);
            self.upper.col_ptr.push(self.upper.rows.len());

            self.lower.rows.push(pivot_row);
            self.lower.vals.push(S::ONE);
            for &row in self.reach.iter() {
                if self.pinv[row] != UNPIVOTED || row == pivot_row {
                    continue;
                }
                self.lower.rows.push(row);
                self.lower.vals.push(self.x[row] / pivot);
            }
            self.lower.col_ptr.push(self.lower.rows.len());

            self.pinv[pivot_row] = k;
            self.perm[k] = pivot_row;

            // Reset the scatter workspace and DFS marks.
            for &row in self.reach.iter() {
                self.x[row] = S::ZERO;
                self.marked[row] = false;
            }
        }

        self.finalize_structure();
        self.has_symbolic = true;
        Ok(())
    }

    /// Numeric-only replay of the cached structure for a matrix with the
    /// same sparsity pattern. Returns `Ok(true)` when the replay was used,
    /// `Ok(false)` when a degraded or vanished pivot forced a fall back to
    /// a full [`Self::factorize`] (fresh pivoting) — callers count the
    /// latter as a symbolic-cache miss.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::SingularMatrix`] if even the fallback cannot
    /// factor the matrix.
    pub(crate) fn refactorize(&mut self, a: &CscMatrix<S>) -> Result<bool, AnalogError> {
        if !self.has_symbolic || self.n != a.dim() {
            self.factorize(a)?;
            return Ok(false);
        }
        let n = self.n;
        for k in 0..n {
            // Scatter A's column k into permuted row space. Positions
            // touched are exactly the cached U rows (pivotal) and L rows
            // (non-pivotal) of this column, so clearing those afterwards
            // restores the all-zero invariant.
            let (a_rows, a_vals) = {
                let p = &a.pattern;
                let range = p.col_ptr[k]..p.col_ptr[k + 1];
                (&p.rows[range.clone()], &a.values[range])
            };
            for (&row, &val) in a_rows.iter().zip(a_vals) {
                self.x[self.pinv[row]] = val;
            }

            // Replay the elimination in ascending U-row order: every update
            // feeding x[j] comes from a column j' < j, so ascending order
            // is a valid topological order of the cached dependency graph.
            let u_range = self.upper.col_ptr[k]..self.upper.col_ptr[k + 1];
            for uidx in u_range.clone() {
                let j = self.upper.rows[uidx];
                if j == k {
                    break; // the diagonal is last; its value is x[k] itself
                }
                let xj = self.x[j];
                let (l_rows, l_vals) = self.lower.column(j);
                for (&row, &lv) in l_rows.iter().zip(l_vals).skip(1) {
                    self.x[row] -= lv * xj;
                }
            }

            // Pivot health: the frozen pivot must stay usable relative to
            // the entries it eliminates, else replay would silently lose
            // accuracy — refactor fully with fresh pivoting instead.
            let pivot = self.x[k];
            let pivot_mag = pivot.modulus();
            let l_range = self.lower.col_ptr[k]..self.lower.col_ptr[k + 1];
            let mut col_max = pivot_mag;
            for lidx in l_range.clone().skip(1) {
                col_max = col_max.max(self.x[self.lower.rows[lidx]].modulus());
            }
            if pivot_mag < PIVOT_EPS
                || !pivot_mag.is_finite()
                || pivot_mag < Self::PIVOT_DEGRADE * col_max
            {
                // Clear the scatter workspace before handing off.
                for uidx in u_range {
                    self.x[self.upper.rows[uidx]] = S::ZERO;
                }
                for lidx in l_range {
                    self.x[self.lower.rows[lidx]] = S::ZERO;
                }
                self.factorize(a)?;
                return Ok(false);
            }

            // Gather the new numeric values into the cached structure and
            // clear the workspace.
            for uidx in u_range {
                let row = self.upper.rows[uidx];
                self.upper.vals[uidx] = self.x[row];
                self.x[row] = S::ZERO;
            }
            for lidx in l_range {
                let row = self.lower.rows[lidx];
                if row == k {
                    self.lower.vals[lidx] = S::ONE;
                } else {
                    self.lower.vals[lidx] = self.x[row] / pivot;
                    self.x[row] = S::ZERO;
                }
            }
        }
        Ok(true)
    }

    /// Solves `A·x = b` using the current factors, allocating nothing when
    /// `x`'s capacity suffices.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] on a length mismatch or if
    /// no factorization exists.
    pub fn solve_into(&self, b: &[S], x: &mut Vec<S>) -> Result<(), AnalogError> {
        if !self.has_symbolic || b.len() != self.n {
            return Err(AnalogError::InvalidParameter {
                name: "b",
                constraint: "vector length must equal factored matrix dimension",
            });
        }
        let n = self.n;
        // x = P·b.
        x.clear();
        x.resize(n, S::ZERO);
        for (i, &bi) in b.iter().enumerate() {
            x[self.pinv[i]] = bi;
        }
        // Forward substitution: L has an explicit unit diagonal first.
        for k in 0..n {
            let xk = x[k];
            let (l_rows, l_vals) = self.lower.column(k);
            for (&row, &lv) in l_rows.iter().zip(l_vals).skip(1) {
                x[row] -= lv * xk;
            }
        }
        // Back substitution: U columns hold the diagonal last.
        for k in (0..n).rev() {
            let (u_rows, u_vals) = self.upper.column(k);
            let last = u_rows.len() - 1;
            debug_assert_eq!(u_rows[last], k);
            let xk = x[k] / u_vals[last];
            x[k] = xk;
            for (&row, &uv) in u_rows[..last].iter().zip(&u_vals[..last]) {
                x[row] -= uv * xk;
            }
        }
        Ok(())
    }

    /// Solves `A·X = B` for a whole panel of right-hand sides with one
    /// factorization, streaming the factors once per `PANEL_BLOCK`
    /// scenarios instead of once per scenario.
    ///
    /// Per scenario the arithmetic — operand values and evaluation order —
    /// is exactly that of [`Self::solve_into`], so the panel result is
    /// bit-identical to solving each column separately; only the memory
    /// traffic over `L`/`U` is amortized across the block.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] on a dimension mismatch or
    /// if no factorization exists.
    pub fn solve_panel_into(
        &self,
        b: &RhsPanel<S>,
        x: &mut RhsPanel<S>,
    ) -> Result<(), AnalogError> {
        if !self.has_symbolic || b.dim() != self.n {
            return Err(AnalogError::InvalidParameter {
                name: "b",
                constraint: "panel row count must equal factored matrix dimension",
            });
        }
        let n = self.n;
        x.reset(n, b.cols());
        for block_start in (0..b.cols()).step_by(PANEL_BLOCK) {
            let block = block_start..(block_start + PANEL_BLOCK).min(b.cols());
            // X = P·B, column by column (pinv is a bijection, so every
            // position of each x column is written).
            for s in block.clone() {
                let bcol = b.col(s);
                let xcol = x.col_mut(s);
                for (i, &bi) in bcol.iter().enumerate() {
                    xcol[self.pinv[i]] = bi;
                }
            }
            // Forward substitution: each L column is fetched once and
            // applied to every scenario in the block.
            for k in 0..n {
                let (l_rows, l_vals) = self.lower.column(k);
                for s in block.clone() {
                    let xcol = x.col_mut(s);
                    let xk = xcol[k];
                    for (&row, &lv) in l_rows.iter().zip(l_vals).skip(1) {
                        xcol[row] -= lv * xk;
                    }
                }
            }
            // Back substitution, same blocking.
            for k in (0..n).rev() {
                let (u_rows, u_vals) = self.upper.column(k);
                let last = u_rows.len() - 1;
                debug_assert_eq!(u_rows[last], k);
                for s in block.clone() {
                    let xcol = x.col_mut(s);
                    let xk = xcol[k] / u_vals[last];
                    xcol[k] = xk;
                    for (&row, &uv) in u_rows[..last].iter().zip(&u_vals[..last]) {
                        xcol[row] -= uv * xk;
                    }
                }
            }
        }
        Ok(())
    }

    /// Iterative depth-first search from original row `start` over the
    /// graph of built L columns, appending finished nodes to `self.reach`
    /// (reverse topological order).
    fn dfs_from(&mut self, start: usize) {
        self.dfs_stack.clear();
        self.dfs_cursor.clear();
        self.dfs_stack.push(start);
        self.dfs_cursor.push(0);
        self.marked[start] = true;
        while let Some(&node) = self.dfs_stack.last() {
            let cursor = *self.dfs_cursor.last().expect("cursor parallel to stack");
            let jnew = self.pinv[node];
            let next_child = if jnew == UNPIVOTED {
                None
            } else {
                let (l_rows, _) = self.lower.column(jnew);
                l_rows[cursor..]
                    .iter()
                    .position(|&r| !self.marked[r])
                    .map(|offset| (cursor + offset, l_rows[cursor + offset]))
            };
            match next_child {
                Some((child_idx, child)) => {
                    *self.dfs_cursor.last_mut().expect("cursor") = child_idx + 1;
                    self.marked[child] = true;
                    self.dfs_stack.push(child);
                    self.dfs_cursor.push(0);
                }
                None => {
                    self.dfs_stack.pop();
                    self.dfs_cursor.pop();
                    self.reach.push(node);
                }
            }
        }
    }

    /// Post-factorization fix-up: remap L's row indices into pivot space
    /// and sort every column ascending, establishing the invariants replay
    /// and solve rely on (L diagonal first, U diagonal last).
    fn finalize_structure(&mut self) {
        for row in &mut self.lower.rows {
            *row = self.pinv[*row];
        }
        for k in 0..self.n {
            Self::sort_column(&mut self.lower, k);
            Self::sort_column(&mut self.upper, k);
        }
    }

    fn sort_column(f: &mut Factor<S>, k: usize) {
        let range = f.col_ptr[k]..f.col_ptr[k + 1];
        let rows = &mut f.rows[range.clone()];
        let vals = &mut f.vals[range];
        // Insertion sort on parallel slices — columns are short and nearly
        // sorted already.
        for i in 1..rows.len() {
            let mut j = i;
            while j > 0 && rows[j - 1] > rows[j] {
                rows.swap(j - 1, j);
                vals.swap(j - 1, j);
                j -= 1;
            }
        }
    }

    /// Restores the all-zero / unmarked workspace invariant after a
    /// mid-factorization failure, so the next call starts clean.
    fn reset_after_failure(&mut self) {
        for &row in self.reach.iter() {
            self.x[row] = S::ZERO;
            self.marked[row] = false;
        }
        self.reach.clear();
        self.has_symbolic = false;
    }
}

#[cfg(test)]
impl SparsityPattern {
    /// The matrix dimension.
    #[must_use]
    pub(crate) fn dim(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
impl<S: Scalar> SparseLu<S> {
    /// Whether a cached symbolic structure is available for replay.
    #[must_use]
    pub(crate) fn has_symbolic(&self) -> bool {
        self.has_symbolic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    /// A deterministic xorshift for reproducible random fills.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 as f64 / u64::MAX as f64) * 2.0 - 1.0
        }
    }

    fn tridiagonal_pattern(n: usize) -> SparsityPattern {
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            if i + 1 < n {
                entries.push((i, i + 1));
                entries.push((i + 1, i));
            }
        }
        SparsityPattern::from_entries(n, &entries)
    }

    fn random_tridiagonal(n: usize, rng: &mut Rng) -> CscMatrix<f64> {
        let mut m = CscMatrix::from_pattern(tridiagonal_pattern(n));
        for i in 0..n {
            m.stamp(i, i, 4.0 + rng.next());
            if i + 1 < n {
                m.stamp(i, i + 1, rng.next());
                m.stamp(i + 1, i, rng.next());
            }
        }
        m
    }

    fn to_dense(a: &CscMatrix<f64>) -> Matrix<f64> {
        let n = a.dim();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = a.get(i, j);
            }
        }
        m
    }

    #[test]
    fn pattern_dedupes_and_sorts() {
        let p = SparsityPattern::from_entries(3, &[(2, 0), (0, 0), (2, 0), (1, 2)]);
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.column(0), &[0, 2]);
        assert_eq!(p.column(1), &[] as &[usize]);
        assert_eq!(p.column(2), &[1]);
        assert!(p.index_of(2, 0).is_some());
        assert!(p.index_of(1, 0).is_none());
        assert!((p.density() - 3.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn stamp_accumulates_and_clear_resets() {
        let p = SparsityPattern::from_entries(2, &[(0, 0), (1, 1)]);
        let mut m = CscMatrix::<f64>::from_pattern(p);
        m.stamp(0, 0, 1.5);
        m.stamp(0, 0, 2.5);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(0, 1), 0.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside sparsity pattern")]
    fn stamp_outside_pattern_panics() {
        let p = SparsityPattern::from_entries(2, &[(0, 0)]);
        let mut m = CscMatrix::<f64>::from_pattern(p);
        m.stamp(1, 0, 1.0);
    }

    #[test]
    fn solves_match_dense_on_random_tridiagonals() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        for n in [1, 2, 5, 17, 40] {
            let a = random_tridiagonal(n, &mut rng);
            let b: Vec<f64> = (0..n).map(|_| rng.next()).collect();
            let mut lu = SparseLu::new();
            lu.factorize(&a).unwrap();
            let mut x = Vec::new();
            lu.solve_into(&b, &mut x).unwrap();
            let dense_x = to_dense(&a).solve(&b).unwrap();
            for (u, v) in x.iter().zip(&dense_x) {
                assert!((u - v).abs() < 1e-10, "n={n}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let p = SparsityPattern::from_entries(2, &[(0, 1), (1, 0)]);
        let mut m = CscMatrix::from_pattern(p);
        m.stamp(0, 1, 1.0);
        m.stamp(1, 0, 1.0);
        let mut lu = SparseLu::new();
        lu.factorize(&m).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&[2.0, 3.0], &mut x).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_reported_and_recoverable() {
        let p = SparsityPattern::from_entries(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mut m = CscMatrix::from_pattern(p);
        m.stamp(0, 0, 1.0);
        m.stamp(0, 1, 2.0);
        m.stamp(1, 0, 2.0);
        m.stamp(1, 1, 4.0);
        let mut lu = SparseLu::new();
        assert!(matches!(
            lu.factorize(&m),
            Err(AnalogError::SingularMatrix { .. })
        ));
        // The workspace must be clean enough to factor a good matrix next.
        m.clear();
        m.stamp(0, 0, 1.0);
        m.stamp(1, 1, 1.0);
        lu.factorize(&m).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&[5.0, -3.0], &mut x).unwrap();
        assert_eq!(x, vec![5.0, -3.0]);
    }

    #[test]
    fn refactorize_replays_cached_structure() {
        let mut rng = Rng(0xDEADBEEFCAFE1234);
        let n = 25;
        let mut a = random_tridiagonal(n, &mut rng);
        let mut lu = SparseLu::new();
        lu.factorize(&a).unwrap();
        let nnz_before = lu.factor_nnz();
        assert!(nnz_before > 0);

        // New values, same structure: replay must be used and agree with
        // the dense solve of the *new* matrix.
        for trial in 0..5 {
            a.clear();
            for i in 0..n {
                a.stamp(i, i, 5.0 + rng.next() + trial as f64);
                if i + 1 < n {
                    a.stamp(i, i + 1, rng.next());
                    a.stamp(i + 1, i, rng.next());
                }
            }
            assert!(lu.refactorize(&a).unwrap(), "replay path expected");
            assert_eq!(lu.factor_nnz(), nnz_before, "structure must not grow");
            let b: Vec<f64> = (0..n).map(|_| rng.next()).collect();
            let mut x = Vec::new();
            lu.solve_into(&b, &mut x).unwrap();
            let dense_x = to_dense(&a).solve(&b).unwrap();
            for (u, v) in x.iter().zip(&dense_x) {
                assert!((u - v).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn refactorize_falls_back_on_degraded_pivot() {
        // Factor with a dominant diagonal, then hand replay a matrix whose
        // frozen pivot has collapsed: it must fall back (returning false)
        // and still solve correctly.
        let p = SparsityPattern::from_entries(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mut m = CscMatrix::from_pattern(p);
        m.stamp(0, 0, 10.0);
        m.stamp(0, 1, 1.0);
        m.stamp(1, 0, 1.0);
        m.stamp(1, 1, 10.0);
        let mut lu = SparseLu::new();
        lu.factorize(&m).unwrap();

        m.clear();
        m.stamp(0, 0, 1e-14);
        m.stamp(0, 1, 1.0);
        m.stamp(1, 0, 1.0);
        m.stamp(1, 1, 1e-14);
        assert!(!lu.refactorize(&m).unwrap(), "fallback expected");
        let mut x = Vec::new();
        lu.solve_into(&[1.0, 2.0], &mut x).unwrap();
        let r = m.mul_vec(&x).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-10 && (r[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn refactorize_without_factorize_does_full_factorization() {
        let mut rng = Rng(42);
        let a = random_tridiagonal(6, &mut rng);
        let mut lu = SparseLu::new();
        assert!(!lu.refactorize(&a).unwrap());
        assert!(lu.has_symbolic());
    }

    #[test]
    fn complex_solve_matches_dense_cmatrix() {
        let n = 12;
        let mut rng = Rng(0x1234_5678_9ABC_DEF0);
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            if i + 1 < n {
                entries.push((i, i + 1));
                entries.push((i + 1, i));
            }
        }
        let p = SparsityPattern::from_entries(n, &entries);
        let mut a = CscMatrix::<Complex>::from_pattern(p);
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            let d = Complex::new(4.0 + rng.next(), rng.next());
            a.stamp(i, i, d);
            dense.stamp(i, i, d);
            if i + 1 < n {
                let u = Complex::new(rng.next(), rng.next());
                let l = Complex::new(rng.next(), rng.next());
                a.stamp(i, i + 1, u);
                dense.stamp(i, i + 1, u);
                a.stamp(i + 1, i, l);
                dense.stamp(i + 1, i, l);
            }
        }
        let b: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.next(), rng.next()))
            .collect();
        let mut lu = SparseLu::new();
        lu.factorize(&a).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&b, &mut x).unwrap();
        let dense_x = dense.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&dense_x) {
            assert!((*u - *v).abs() < 1e-10);
        }
    }

    #[test]
    fn panel_solve_is_bit_identical_to_sequential_solves() {
        let mut rng = Rng(0x5151_5151_DADA_0001);
        for n in [1, 3, 9, 33] {
            // More scenarios than one block, plus a ragged tail.
            for cols in [1, 7, 8, 19] {
                let a = random_tridiagonal(n, &mut rng);
                let mut lu = SparseLu::new();
                lu.factorize(&a).unwrap();
                let columns: Vec<Vec<f64>> = (0..cols)
                    .map(|_| (0..n).map(|_| rng.next()).collect())
                    .collect();
                let b = RhsPanel::from_columns(&columns).unwrap();
                let mut x = RhsPanel::default();
                lu.solve_panel_into(&b, &mut x).unwrap();
                for (s, column) in columns.iter().enumerate() {
                    let mut seq = Vec::new();
                    lu.solve_into(column, &mut seq).unwrap();
                    for (u, v) in x.col(s).iter().zip(&seq) {
                        assert_eq!(
                            u.to_bits(),
                            v.to_bits(),
                            "n={n} cols={cols} scenario {s}: panel {u} vs sequential {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn panel_rejects_mismatched_columns() {
        assert!(RhsPanel::from_columns(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let lu = SparseLu::<f64>::new();
        let b = RhsPanel::zeros(2, 2);
        let mut x = RhsPanel::default();
        assert!(lu.solve_panel_into(&b, &mut x).is_err());
    }

    #[test]
    fn fill_in_is_recorded() {
        // An arrowhead matrix fills in completely under natural order; the
        // factor nonzero count must reflect whatever fill the pivot order
        // produced, bounded below by the input nonzeros.
        let n = 8;
        let mut entries = vec![(0usize, 0usize)];
        for i in 1..n {
            entries.push((i, i));
            entries.push((0, i));
            entries.push((i, 0));
        }
        let p = SparsityPattern::from_entries(n, &entries);
        let mut a = CscMatrix::from_pattern(p);
        a.stamp(0, 0, 10.0);
        for i in 1..n {
            a.stamp(i, i, 4.0 + i as f64);
            a.stamp(0, i, 1.0);
            a.stamp(i, 0, 1.0);
        }
        let mut lu = SparseLu::new();
        lu.factorize(&a).unwrap();
        assert!(lu.factor_nnz() >= a.pattern().nnz());
        let mut x = Vec::new();
        lu.solve_into(&vec![1.0; n], &mut x).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for ri in r {
            assert!((ri - 1.0).abs() < 1e-10);
        }
    }
}
