//! The analysis engine: reusable solver workspaces and the one Newton loop
//! every analysis routes through.
//!
//! Every analysis in this crate — DC operating point, transient, AC,
//! small-signal, and noise — reduces to assembling an MNA system and
//! solving it, usually thousands of times (Newton iterations, time steps,
//! sweep points, frequency points). The seed implementation allocated a
//! fresh matrix, right-hand side, and solution vector for every single
//! solve. [`EngineWorkspace`] owns those buffers once and reuses them:
//! assembly restamps in place, factorization happens in place, and
//! back-substitution fills a held vector, so the steady-state solve path
//! performs no heap allocation.
//!
//! The linear algebra itself lives behind the [`crate::solver`] backend
//! layer: the workspace owns one [`Solver`] per scalar field — `f64` for
//! the Newton loop, [`Complex`] for AC and noise — and hands each the
//! assembly as a closure. The [`BackendPolicy`] set via
//! [`EngineWorkspace::set_backend_policy`] decides per circuit between the
//! dense LU fast path and the sparse structure-caching path. On the sparse
//! path the symbolic factorization is computed once per circuit topology
//! and replayed across every Newton iteration, gmin rung, transient step,
//! sweep point, and frequency point.
//!
//! Each analysis exposes a convenience entry point that builds a
//! short-lived workspace and a `*_with` variant that takes the caller's
//! ([`crate::dc::DcSolver::solve_with`], [`crate::tran::run_with`],
//! [`crate::ac::AcAnalysis::response_with`],
//! [`crate::acnoise::NoiseAnalysis::output_noise_with`],
//! [`crate::smallsignal::SmallSignal::port_conductance_with`]); callers
//! use those functions directly.
//!
//! Buffer reuse never changes a floating-point operation: the workspace
//! and the convenience entry points run the same in-place kernels, so a
//! workspace-driven analysis is bit-identical to a fresh-workspace one
//! (asserted by `tests/integration_engine.rs`; the dense path's output
//! bits are pinned by `crates/analog/tests/dense_bits.rs`).
//!
//! Threading model: a workspace is a plain mutable value with no interior
//! mutability — `Send` but deliberately not shared. The parallel fan-out
//! ([`crate::sweep::parallel_map`]) gives each worker thread its own
//! workspace through its `init` closure and hands out points one at a
//! time; work shared across points (one symbolic factorization, a
//! warm-start chain) stays inside one workspace via [`BatchRun`].

use crate::device::switch::TwoPhaseClock;
use crate::mna::{assemble_into_target, CapStep, Solution, StampContext};
use crate::netlist::Circuit;
use crate::solver::{BackendPolicy, Solver, Target};
use crate::telemetry::{EngineStats, SolveKind, SolveOutcome};
use crate::units::Seconds;
use crate::AnalogError;
use si_dsp::Complex;
use std::time::{Duration, Instant};

/// Convergence controls for the damped Newton loop.
#[derive(Debug, Clone, Copy)]
pub struct NewtonSettings {
    /// Iteration budget.
    pub max_iterations: usize,
    /// Convergence tolerance on node-voltage updates, in volts.
    pub vtol: f64,
    /// Per-iteration damping limit on any node-voltage move, in volts.
    pub max_step: f64,
}

/// The stamping circumstances of one solve: everything a
/// [`StampContext`] holds except the voltage guess and gmin, which the
/// Newton loop supplies itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct StampSpec<'a> {
    /// Simulation time; `None` for DC (sources at their DC value).
    pub time: Option<Seconds>,
    /// The two-phase clock driving switches, if any.
    pub clock: Option<&'a TwoPhaseClock>,
    /// φ1 state used when no clock/time is available.
    pub phi1_high: bool,
    /// φ2 state used when no clock/time is available.
    pub phi2_high: bool,
    /// Backward-Euler capacitor companion context, `Some` during transient.
    pub cap_step: Option<CapStep<'a>>,
}

/// Owns every buffer an analysis needs, across Newton iterations, time
/// steps, and sweep points.
///
/// Create one per thread of work and pass it to the `*_with` variant of any
/// analysis entry point ([`crate::dc::DcSolver::solve_with`],
/// [`crate::tran::run_with`], [`crate::ac::AcAnalysis::response_with`], …).
/// The convenience entry points without a workspace argument create a
/// short-lived one internally, so both paths run the identical kernels.
///
/// Telemetry: install an [`EngineStats`] collector with
/// [`Self::enable_stats`] and every solve driven through this workspace
/// reports its events. The collector only observes — it never alters a
/// floating-point operation, so the bit-identity contract above holds
/// with telemetry on or off.
#[derive(Debug, Default, Clone)]
pub struct EngineWorkspace {
    /// Real linear solver (dense and sparse backends, cached structure).
    pub(crate) real: Solver<f64>,
    /// Real right-hand side.
    pub(crate) rhs: Vec<f64>,
    /// Raw solution vector of the latest linear solve.
    pub(crate) x: Vec<f64>,
    /// Node voltages (index 0 = ground) of the latest Newton state.
    pub(crate) voltages: Vec<f64>,
    /// Voltage-source branch currents of the latest Newton state.
    pub(crate) branches: Vec<f64>,
    /// Complex linear solver for AC/noise analyses.
    pub(crate) complex: Solver<Complex>,
    /// Complex right-hand side.
    pub(crate) crhs: Vec<Complex>,
    /// Complex solution vector.
    pub(crate) cx: Vec<Complex>,
    /// Backend-selection policy applied to every solve driven through
    /// this workspace.
    policy: BackendPolicy,
    /// Installed telemetry collector; `None` means disabled (one branch
    /// per engine event, nothing on the per-element stamping path).
    probe: Option<Box<EngineStats>>,
    /// Per-iteration update norms of the most recent Newton solve, in
    /// iteration order (cleared at the start of each solve). Always
    /// recorded — this is what a failing solve attaches to
    /// [`AnalogError::NoConvergence`].
    residual_log: Vec<f64>,
}

impl EngineWorkspace {
    /// An empty workspace; buffers grow to circuit size on first use.
    #[must_use]
    pub fn new() -> Self {
        EngineWorkspace::default()
    }

    /// A workspace with real-path buffers pre-sized for `circuit`, so even
    /// the first solve allocates nothing once it starts iterating.
    #[must_use]
    pub fn for_circuit(circuit: &Circuit) -> Self {
        let dim = circuit.mna_dimension();
        let mut ws = EngineWorkspace::new();
        ws.real.reserve(dim);
        ws.rhs.reserve(dim);
        ws.x.reserve(dim);
        ws.voltages.reserve(circuit.node_count());
        ws.branches.reserve(circuit.branch_count());
        ws
    }

    /// Sets the backend-selection policy for every subsequent solve
    /// driven through this workspace. The default [`BackendPolicy`] keeps
    /// small circuits on the dense fast path and switches large sparse
    /// ones to the structure-caching sparse backend.
    pub fn set_backend_policy(&mut self, policy: BackendPolicy) {
        self.policy = policy;
    }

    /// The backend-selection policy in effect.
    #[must_use]
    pub fn backend_policy(&self) -> BackendPolicy {
        self.policy
    }

    /// The real linear solver, holding the most recently assembled and
    /// factored system. Exposed so batched callers can run panel solves
    /// ([`Solver::solve_panel`]) against factors an analysis already
    /// computed through this workspace.
    #[must_use]
    pub fn real_solver(&self) -> &Solver<f64> {
        &self.real
    }

    /// Installs a fresh [`EngineStats`] collector; subsequent solves
    /// report their events to it. Replaces any existing collector.
    pub fn enable_stats(&mut self) {
        self.probe = Some(Box::default());
    }

    /// The installed [`EngineStats`] collector, if any.
    #[must_use]
    pub fn stats(&self) -> Option<&EngineStats> {
        self.probe.as_deref()
    }

    /// Removes the collector and returns the accumulated statistics,
    /// disabling telemetry.
    pub fn take_stats(&mut self) -> Option<EngineStats> {
        self.probe.take().map(|stats| *stats)
    }

    /// Per-iteration update norms of the most recent Newton solve, in
    /// iteration order. Empty before the first solve.
    #[must_use]
    pub fn residual_history(&self) -> &[f64] {
        &self.residual_log
    }

    /// Reports an event to the collector, if one is installed.
    /// Crate-internal hook for analyses that drive workspace buffers
    /// directly (the AC and noise front-ends, the DC gmin ladder).
    pub(crate) fn probe_event(&mut self, event: impl FnOnce(&mut EngineStats)) {
        if let Some(p) = self.probe.as_deref_mut() {
            event(p);
        }
    }

    /// Reports a solve's end to the collector, folding in elapsed wall time
    /// when the solve was timed.
    fn probe_solve_end(&mut self, outcome: SolveOutcome, iterations: usize, t0: Option<Instant>) {
        if let Some(p) = self.probe.as_deref_mut() {
            let elapsed = t0.map_or(Duration::ZERO, |t| t.elapsed());
            p.solve_end(outcome, iterations, elapsed);
        }
    }

    /// Node voltages (ground at index 0) left by the last Newton solve.
    #[must_use]
    pub fn node_voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Voltage-source branch currents left by the last Newton solve.
    #[must_use]
    pub fn branch_currents(&self) -> &[f64] {
        &self.branches
    }

    /// Packages the last Newton state as an owned [`Solution`].
    #[must_use]
    pub fn solution(&self) -> Solution {
        let n_nodes = self.voltages.len();
        let mut raw = self.voltages[1..].to_vec();
        raw.extend_from_slice(&self.branches);
        Solution::new(raw, n_nodes)
    }

    /// Runs the damped Newton loop at a fixed gmin, starting from `start`
    /// (full node-voltage vector, ground at index 0). On success the
    /// converged voltages and branch currents are left in the workspace
    /// ([`Self::node_voltages`] / [`Self::branch_currents`]).
    ///
    /// This is the single Newton implementation shared by DC (directly and
    /// under gmin stepping) and transient (per step, with a
    /// [`CapStep`] in the spec).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::NoConvergence`] when the budget is exhausted
    /// or an update goes non-finite, [`AnalogError::SingularMatrix`] from
    /// factorization, or assembly errors.
    pub fn newton(
        &mut self,
        circuit: &Circuit,
        spec: &StampSpec<'_>,
        settings: &NewtonSettings,
        gmin: f64,
        start: &[f64],
    ) -> Result<(), AnalogError> {
        let n_nodes = circuit.node_count();
        self.voltages.clear();
        self.voltages.extend_from_slice(start);
        self.branches.clear();
        self.branches.resize(circuit.branch_count(), 0.0);
        self.residual_log.clear();
        let mut last_delta = f64::INFINITY;

        // Time only when someone is listening: with no collector the solve
        // pays a single `Option` branch per event and no clock reads.
        let t0 = self.probe.is_some().then(Instant::now);
        let kind = if spec.cap_step.is_some() {
            SolveKind::TransientStep
        } else {
            SolveKind::Dc
        };
        self.probe_event(|p| p.solve_begin(kind));

        for iter in 0..settings.max_iterations {
            let ctx = StampContext {
                node_voltages: &self.voltages,
                time: spec.time,
                clock: spec.clock,
                phi1_high: spec.phi1_high,
                phi2_high: spec.phi2_high,
                gmin,
                cap_step: spec.cap_step,
            };
            let step = self
                .real
                .assemble_and_factor(circuit, &self.policy, |t| {
                    assemble_into_target(circuit, &ctx, t, &mut self.rhs)
                })
                .and_then(|event| self.real.solve(&self.rhs, &mut self.x).map(|()| event));
            let event = match step {
                Ok(event) => event,
                Err(e) => {
                    self.probe_solve_end(SolveOutcome::Aborted, iter, t0);
                    return Err(e);
                }
            };
            self.probe_event(|p| {
                if iter == 0 {
                    p.factorization();
                } else {
                    p.refactorization();
                }
                p.back_substitution();
                event.report(p);
            });

            // Raw update magnitude.
            let mut delta_max = 0.0f64;
            for i in 0..(n_nodes - 1) {
                delta_max = delta_max.max((self.x[i] - self.voltages[i + 1]).abs());
            }
            last_delta = delta_max;
            self.residual_log.push(delta_max);
            self.probe_event(|p| p.newton_iteration(delta_max));

            // Damping: limit per-node move to max_step.
            let alpha = if delta_max > settings.max_step {
                settings.max_step / delta_max
            } else {
                1.0
            };
            for i in 0..(n_nodes - 1) {
                let new_v = self.x[i];
                self.voltages[i + 1] += alpha * (new_v - self.voltages[i + 1]);
                if !self.voltages[i + 1].is_finite() {
                    self.probe_event(EngineStats::non_finite);
                    self.probe_solve_end(SolveOutcome::NonFinite, iter + 1, t0);
                    return Err(AnalogError::NoConvergence {
                        iterations: iter + 1,
                        residual: f64::INFINITY,
                        gmin,
                        // One entry per completed iteration; `residual` is
                        // INFINITY here while the last entry is the finite
                        // update norm that preceded the blow-up.
                        residual_history: self.residual_log.clone(),
                    });
                }
            }
            for (k, b) in self.branches.iter_mut().enumerate() {
                *b = self.x[n_nodes - 1 + k];
            }

            if delta_max < settings.vtol {
                self.probe_solve_end(SolveOutcome::Converged, iter + 1, t0);
                return Ok(());
            }
        }
        self.probe_solve_end(SolveOutcome::IterationLimit, settings.max_iterations, t0);
        Err(AnalogError::NoConvergence {
            iterations: settings.max_iterations,
            residual: last_delta,
            gmin,
            residual_history: self.residual_log.clone(),
        })
    }

    /// Assembles and factors the real MNA system linearized at
    /// `ctx.node_voltages`, leaving the LU factors in the workspace for
    /// repeated [`Self::solve_factored`] calls (the small-signal pattern:
    /// one factorization, many right-hand sides).
    ///
    /// # Errors
    ///
    /// Propagates assembly and factorization errors.
    pub fn factorize(
        &mut self,
        circuit: &Circuit,
        ctx: &StampContext<'_>,
    ) -> Result<(), AnalogError> {
        let event = self.real.assemble_and_factor(circuit, &self.policy, |t| {
            assemble_into_target(circuit, ctx, t, &mut self.rhs)
        })?;
        self.probe_event(|p| {
            p.factorization();
            event.report(p);
        });
        Ok(())
    }

    /// Solves the factored system for a right-hand side built by `fill`
    /// (which receives a zeroed vector of the system dimension). Returns
    /// the solution slice, valid until the next workspace use.
    ///
    /// # Errors
    ///
    /// Propagates solve errors. Must be called after [`Self::factorize`].
    pub fn solve_factored(&mut self, fill: impl FnOnce(&mut [f64])) -> Result<&[f64], AnalogError> {
        let dim = self.real.dim();
        self.rhs.clear();
        self.rhs.resize(dim, 0.0);
        fill(&mut self.rhs);
        self.real.solve(&self.rhs, &mut self.x)?;
        self.probe_event(EngineStats::back_substitution);
        Ok(&self.x)
    }

    /// Runs `assemble` against the policy-selected complex backend and
    /// factors the result, leaving the factors ready for
    /// [`Self::complex_solve`] / [`Self::complex_solve_own_rhs`]. The AC
    /// and noise front-ends use this once per frequency point; the
    /// workspace-owned backend buffers mean no complex matrix is cloned
    /// per point.
    ///
    /// # Errors
    ///
    /// Propagates assembly and factorization errors.
    pub(crate) fn complex_factorize<F>(
        &mut self,
        circuit: &Circuit,
        assemble: F,
    ) -> Result<(), AnalogError>
    where
        F: FnOnce(&mut Target<'_, Complex>) -> Result<(), AnalogError>,
    {
        let policy = self.policy;
        let event = self
            .complex
            .assemble_and_factor(circuit, &policy, assemble)?;
        self.probe_event(|p| {
            p.complex_factorization();
            event.report(p);
        });
        Ok(())
    }

    /// Solves the factored complex system for `b`, leaving the solution in
    /// the workspace's `cx` buffer and returning it.
    ///
    /// # Errors
    ///
    /// Propagates solve errors; must follow [`Self::complex_factorize`].
    pub(crate) fn complex_solve(&mut self, b: &[Complex]) -> Result<&[Complex], AnalogError> {
        self.complex.solve(b, &mut self.cx)?;
        self.probe_event(EngineStats::complex_back_substitution);
        Ok(&self.cx)
    }

    /// Solves the factored complex system for the right-hand side the
    /// caller staged in the workspace's own `crhs` buffer (the noise
    /// pattern: one factorization, one right-hand side per source).
    ///
    /// # Errors
    ///
    /// Propagates solve errors; must follow [`Self::complex_factorize`].
    pub(crate) fn complex_solve_own_rhs(&mut self) -> Result<&[Complex], AnalogError> {
        self.complex.solve(&self.crhs, &mut self.cx)?;
        self.probe_event(EngineStats::complex_back_substitution);
        Ok(&self.cx)
    }
}

/// A batched multi-scenario solve: many perturbed-value variants of one
/// topology driven through a single workspace, so the sparse backend
/// performs one symbolic analysis for the whole batch and every scenario
/// after the first replays the cached structure.
///
/// Scenarios are applied by a caller closure that mutates element values in
/// place (never the topology) and solved by a caller closure — typically
/// [`crate::dc::DcSolver::solve_from_with`] — so the runner stays agnostic
/// of the analysis. Each scenario's Newton loop is warm-started from the
/// nearest already-converged neighbour: nearest by the optional scenario
/// keys ([`Self::with_keys`]), by index distance otherwise. A warm start
/// that fails to converge is retried from the cold start and recorded as
/// `warm_start_rejected` telemetry instead of failing the batch.
///
/// With warm starting disabled ([`Self::with_warm_start`]) the runner
/// performs exactly the sequential per-point solves, so its results are
/// bit-identical to a hand-written per-scenario loop — the property
/// `tests/integration_batch.rs` pins down.
///
/// ```
/// use si_analog::dc::{set_current_source, DcSolver};
/// use si_analog::engine::{BatchRun, EngineWorkspace};
/// use si_analog::netlist::Circuit;
/// use si_analog::units::{Amps, Ohms};
///
/// let mut c = Circuit::new();
/// let n = c.node("n");
/// c.current_source("I", Circuit::GROUND, n, Amps(1e-3)).unwrap();
/// c.resistor("R", n, Circuit::GROUND, Ohms(1e3)).unwrap();
/// let solver = DcSolver::new();
/// let mut ws = EngineWorkspace::for_circuit(&c);
/// let sols = BatchRun::new(3)
///     .run_with(
///         &c,
///         &mut ws,
///         |ckt, i| set_current_source(ckt, "I", Amps((i + 1) as f64 * 1e-3)),
///         |ckt, start, ws| solver.solve_from_with(ckt, start, ws),
///     )
///     .unwrap();
/// assert!((sols[2].voltage(n).0 - 3.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct BatchRun {
    scenarios: usize,
    warm_start: bool,
    keys: Option<Vec<f64>>,
    cold_start: Option<Vec<f64>>,
}

impl BatchRun {
    /// A batch of `scenarios` variants with warm starting on and index
    /// distance as the neighbour metric.
    #[must_use]
    pub fn new(scenarios: usize) -> Self {
        BatchRun {
            scenarios,
            warm_start: true,
            keys: None,
            cold_start: None,
        }
    }

    /// Number of scenarios in the batch.
    #[must_use]
    pub fn scenarios(&self) -> usize {
        self.scenarios
    }

    /// Enables or disables warm starting. Off, every scenario starts from
    /// the cold start — the bit-identical-to-sequential reference mode.
    #[must_use]
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Supplies one scalar key per scenario (a bias current, a supply
    /// voltage, …); the warm-start seed becomes the converged scenario with
    /// the nearest key instead of the nearest index. Length is checked at
    /// run time.
    #[must_use]
    pub fn with_keys(mut self, keys: Vec<f64>) -> Self {
        self.keys = Some(keys);
        self
    }

    /// Sets the cold starting point (full node-voltage vector, ground at
    /// index 0) used for the first scenario and for warm-start retries.
    /// Defaults to all zeros.
    #[must_use]
    pub fn with_cold_start(mut self, start: Vec<f64>) -> Self {
        self.cold_start = Some(start);
        self
    }

    fn key(&self, i: usize) -> f64 {
        self.keys.as_ref().map_or(i as f64, |k| k[i])
    }

    /// Index of the already-converged scenario nearest to scenario `i`
    /// (ties break toward the earlier scenario); `None` before the first
    /// convergence.
    fn nearest_seed(&self, i: usize, converged: usize) -> Option<usize> {
        let ki = self.key(i);
        let mut best: Option<(f64, usize)> = None;
        for j in 0..converged {
            let d = (ki - self.key(j)).abs();
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, j));
            }
        }
        best.map(|(_, j)| j)
    }

    /// Runs the batch: for each scenario index, `apply` perturbs the
    /// (internally cloned) circuit in place, then `solve` is driven from
    /// the warm or cold starting vector. Solutions are returned in
    /// scenario order.
    ///
    /// Telemetry: reports `batch_run(n)` once, `warm_start` per
    /// warm-started scenario, and `warm_start_rejected` per warm start
    /// that had to fall back to the cold start.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a key vector or cold
    /// start of the wrong length, and propagates `apply` errors and
    /// cold-start solve failures (a cold failure fails the batch; a warm
    /// failure only falls back).
    pub fn run_with<A, S>(
        &self,
        circuit: &Circuit,
        ws: &mut EngineWorkspace,
        mut apply: A,
        mut solve: S,
    ) -> Result<Vec<Solution>, AnalogError>
    where
        A: FnMut(&mut Circuit, usize) -> Result<(), AnalogError>,
        S: FnMut(&Circuit, &[f64], &mut EngineWorkspace) -> Result<Solution, AnalogError>,
    {
        if let Some(keys) = &self.keys {
            if keys.len() != self.scenarios {
                return Err(AnalogError::InvalidParameter {
                    name: "keys",
                    constraint: "one warm-start key per scenario",
                });
            }
        }
        if let Some(cold) = &self.cold_start {
            if cold.len() != circuit.node_count() {
                return Err(AnalogError::InvalidParameter {
                    name: "cold_start",
                    constraint: "cold start length must equal circuit node count",
                });
            }
        }
        let n = self.scenarios;
        ws.probe_event(|p| p.batch_run(n as u64));
        let cold = match &self.cold_start {
            Some(c) => c.clone(),
            None => vec![0.0; circuit.node_count()],
        };
        let mut ckt = circuit.clone();
        let mut out: Vec<Solution> = Vec::with_capacity(n);
        // Converged node voltages per solved scenario, reused as seeds.
        let mut seeds: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            apply(&mut ckt, i)?;
            let warm = if self.warm_start {
                self.nearest_seed(i, seeds.len())
            } else {
                None
            };
            let sol = match warm {
                Some(j) => {
                    ws.probe_event(EngineStats::warm_start);
                    match solve(&ckt, &seeds[j], ws) {
                        Ok(sol) => sol,
                        Err(
                            AnalogError::NoConvergence { .. } | AnalogError::SingularMatrix { .. },
                        ) => {
                            ws.probe_event(EngineStats::warm_start_rejected);
                            solve(&ckt, &cold, ws)?
                        }
                        Err(e) => return Err(e),
                    }
                }
                None => solve(&ckt, &cold, ws)?,
            };
            seeds.push(ws.node_voltages().to_vec());
            out.push(sol);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Amps, Ohms};

    fn divider() -> (Circuit, crate::netlist::NodeId) {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.current_source("I1", Circuit::GROUND, n, Amps(1e-3))
            .unwrap();
        c.resistor("R1", n, Circuit::GROUND, Ohms(2e3)).unwrap();
        (c, n)
    }

    #[test]
    fn newton_solves_linear_circuit_in_one_iteration() {
        let (c, n) = divider();
        let mut ws = EngineWorkspace::for_circuit(&c);
        let start = vec![0.0; c.node_count()];
        ws.newton(
            &c,
            &StampSpec {
                phi1_high: true,
                ..StampSpec::default()
            },
            &NewtonSettings {
                max_iterations: 10,
                vtol: 1e-6,
                max_step: 5.0,
            },
            1e-12,
            &start,
        )
        .unwrap();
        assert!((ws.solution().voltage(n).0 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn workspace_reuse_across_different_circuits_leaves_no_stale_state() {
        let mut ws = EngineWorkspace::new();
        let settings = NewtonSettings {
            max_iterations: 10,
            vtol: 1e-9,
            max_step: 5.0,
        };
        let spec = StampSpec {
            phi1_high: true,
            ..StampSpec::default()
        };
        // Solve a 2-node circuit, then a 1-node circuit, then the 2-node
        // again: the final answer must match the first bit for bit.
        let mut big = Circuit::new();
        let a = big.node("a");
        let b = big.node("b");
        big.current_source("I", Circuit::GROUND, a, Amps(1e-3))
            .unwrap();
        big.resistor("Rab", a, b, Ohms(1e3)).unwrap();
        big.resistor("Rb", b, Circuit::GROUND, Ohms(1e3)).unwrap();
        let (small, _) = divider();

        let start_big = vec![0.0; big.node_count()];
        let start_small = vec![0.0; small.node_count()];
        ws.newton(&big, &spec, &settings, 1e-12, &start_big)
            .unwrap();
        let first: Vec<f64> = ws.node_voltages().to_vec();
        ws.newton(&small, &spec, &settings, 1e-12, &start_small)
            .unwrap();
        ws.newton(&big, &spec, &settings, 1e-12, &start_big)
            .unwrap();
        assert_eq!(ws.node_voltages(), &first[..]);
    }

    #[test]
    fn stats_probe_counts_solves_and_iterations() {
        let (c, _) = divider();
        let mut ws = EngineWorkspace::for_circuit(&c);
        ws.enable_stats();
        let start = vec![0.0; c.node_count()];
        let spec = StampSpec {
            phi1_high: true,
            ..StampSpec::default()
        };
        let settings = NewtonSettings {
            max_iterations: 10,
            vtol: 1e-6,
            max_step: 5.0,
        };
        ws.newton(&c, &spec, &settings, 1e-12, &start).unwrap();
        ws.newton(&c, &spec, &settings, 1e-12, &start).unwrap();

        let stats = ws.stats().expect("stats probe installed");
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.dc_solves, 2);
        assert!(stats.newton_iterations >= 2);
        assert_eq!(stats.factorizations, 2);
        assert_eq!(
            stats.newton_iterations,
            stats.factorizations + stats.refactorizations
        );
        assert_eq!(stats.back_substitutions, stats.newton_iterations);
        assert_eq!(stats.convergence_failures, 0);

        let taken = ws.take_stats().expect("collector handed back");
        assert_eq!(taken.solves, 2);
        assert!(ws.stats().is_none(), "take_stats removes the probe");
    }

    #[test]
    fn residual_history_matches_failure_forensics() {
        // A starved iteration budget forces NoConvergence on a circuit
        // whose solve needs at least one damped step.
        let mut c = Circuit::new();
        let n = c.node("n");
        c.current_source("I1", Circuit::GROUND, n, Amps(1e-3))
            .unwrap();
        c.resistor("R1", n, Circuit::GROUND, Ohms(2e6)).unwrap();
        let mut ws = EngineWorkspace::for_circuit(&c);
        let start = vec![0.0; c.node_count()];
        let err = ws
            .newton(
                &c,
                &StampSpec {
                    phi1_high: true,
                    ..StampSpec::default()
                },
                &NewtonSettings {
                    max_iterations: 3,
                    vtol: 1e-6,
                    max_step: 0.5,
                },
                1e-12,
                &start,
            )
            .unwrap_err();
        match err {
            AnalogError::NoConvergence {
                iterations,
                residual,
                gmin,
                residual_history,
            } => {
                assert_eq!(iterations, 3);
                assert_eq!(residual_history.len(), iterations);
                assert_eq!(residual_history.last().copied(), Some(residual));
                assert_eq!(gmin, 1e-12);
                assert_eq!(ws.residual_history(), &residual_history[..]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn cloned_workspace_clones_probe_state() {
        let (c, _) = divider();
        let mut ws = EngineWorkspace::for_circuit(&c);
        ws.enable_stats();
        let start = vec![0.0; c.node_count()];
        ws.newton(
            &c,
            &StampSpec {
                phi1_high: true,
                ..StampSpec::default()
            },
            &NewtonSettings {
                max_iterations: 10,
                vtol: 1e-6,
                max_step: 5.0,
            },
            1e-12,
            &start,
        )
        .unwrap();
        let clone = ws.clone();
        assert_eq!(
            clone.stats().unwrap().normalized(),
            ws.stats().unwrap().normalized()
        );
    }

    fn square_law_cell() -> Circuit {
        // Diode-connected NMOS fed by a current source: genuinely nonlinear,
        // so warm vs cold Newton trajectories actually differ.
        use crate::device::mos::MosParams;
        use crate::netlist::MosTerminals;
        let mut c = Circuit::new();
        let d = c.node("d");
        c.current_source("Ib", Circuit::GROUND, d, Amps(10e-6))
            .unwrap();
        let m = MosParams::nmos_08um(20.0, 2.0).with_lambda(0.0);
        c.mosfet(
            "M1",
            MosTerminals {
                drain: d,
                gate: d,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            m,
        )
        .unwrap();
        c
    }

    #[test]
    fn batch_run_warm_off_is_bit_identical_to_per_point() {
        use crate::dc::{set_current_source, DcSolver};
        let c = square_law_cell();
        let solver = DcSolver::new();
        let values: Vec<f64> = (1..=6).map(|k| k as f64 * 10e-6).collect();

        let mut ws = EngineWorkspace::for_circuit(&c);
        let batched = BatchRun::new(values.len())
            .with_warm_start(false)
            .run_with(
                &c,
                &mut ws,
                |ckt, i| set_current_source(ckt, "Ib", Amps(values[i])),
                |ckt, start, ws| solver.solve_from_with(ckt, start, ws),
            )
            .unwrap();

        for (i, &v) in values.iter().enumerate() {
            let mut ckt = c.clone();
            set_current_source(&mut ckt, "Ib", Amps(v)).unwrap();
            let mut fresh = EngineWorkspace::for_circuit(&ckt);
            let cold = vec![0.0; ckt.node_count()];
            let reference = solver.solve_from_with(&ckt, &cold, &mut fresh).unwrap();
            for (a, b) in batched[i].raw().iter().zip(reference.raw()) {
                assert_eq!(a.to_bits(), b.to_bits(), "scenario {i} diverged");
            }
        }
    }

    #[test]
    fn batch_run_counts_batch_and_warm_start_telemetry() {
        use crate::dc::{set_current_source, DcSolver};
        let c = square_law_cell();
        let solver = DcSolver::new();
        let mut ws = EngineWorkspace::for_circuit(&c);
        ws.enable_stats();
        let n = 5;
        BatchRun::new(n)
            .run_with(
                &c,
                &mut ws,
                |ckt, i| set_current_source(ckt, "Ib", Amps((i + 1) as f64 * 10e-6)),
                |ckt, start, ws| solver.solve_from_with(ckt, start, ws),
            )
            .unwrap();
        let stats = ws.stats().unwrap();
        assert_eq!(stats.batch_runs, 1);
        assert_eq!(stats.batch_scenarios, n as u64);
        assert_eq!(stats.warm_starts, (n - 1) as u64);
        assert_eq!(stats.warm_start_rejected, 0);
    }

    #[test]
    fn batch_run_rejected_warm_start_falls_back_to_cold() {
        use crate::dc::{set_current_source, DcSolver};
        let c = square_law_cell();
        let solver = DcSolver::new();
        let mut ws = EngineWorkspace::for_circuit(&c);
        ws.enable_stats();
        // A solve stub that refuses every warm (nonzero) start, so each
        // scenario after the first exercises the cold fallback.
        let sols = BatchRun::new(3)
            .run_with(
                &c,
                &mut ws,
                |ckt, i| set_current_source(ckt, "Ib", Amps((i + 1) as f64 * 10e-6)),
                |ckt, start, ws| {
                    if start.iter().any(|&v| v != 0.0) {
                        return Err(AnalogError::NoConvergence {
                            iterations: 0,
                            residual: f64::INFINITY,
                            gmin: 1e-12,
                            residual_history: Vec::new(),
                        });
                    }
                    solver.solve_from_with(ckt, start, ws)
                },
            )
            .unwrap();
        assert_eq!(sols.len(), 3);
        let stats = ws.stats().unwrap();
        assert_eq!(stats.warm_starts, 2);
        assert_eq!(stats.warm_start_rejected, 2);
    }

    #[test]
    fn batch_run_keys_pick_the_nearest_converged_neighbour() {
        use crate::dc::{set_current_source, DcSolver};
        let c = square_law_cell();
        let solver = DcSolver::new();
        let mut ws = EngineWorkspace::for_circuit(&c);
        // Keys deliberately out of order: scenario 2's key (11.0) is nearest
        // scenario 1 (10.0), not scenario 0 (1.0).
        let values = [10e-6, 100e-6, 90e-6];
        let mut starts: Vec<Vec<f64>> = Vec::new();
        let mut seeds: Vec<Vec<f64>> = Vec::new();
        BatchRun::new(3)
            .with_keys(vec![1.0, 10.0, 11.0])
            .run_with(
                &c,
                &mut ws,
                |ckt, i| set_current_source(ckt, "Ib", Amps(values[i])),
                |ckt, start, ws| {
                    starts.push(start.to_vec());
                    let sol = solver.solve_from_with(ckt, start, ws)?;
                    seeds.push(ws.node_voltages().to_vec());
                    Ok(sol)
                },
            )
            .unwrap();
        assert_eq!(starts.len(), 3);
        assert_eq!(starts[2], seeds[1], "scenario 2 should seed from 1");
        assert_ne!(seeds[0], seeds[1]);
    }

    #[test]
    fn batch_run_rejects_mislengthed_keys() {
        use crate::dc::DcSolver;
        let (c, _) = divider();
        let solver = DcSolver::new();
        let mut ws = EngineWorkspace::for_circuit(&c);
        let r = BatchRun::new(2).with_keys(vec![0.0]).run_with(
            &c,
            &mut ws,
            |_, _| Ok(()),
            |ckt, start, ws| solver.solve_from_with(ckt, start, ws),
        );
        assert!(matches!(r, Err(AnalogError::InvalidParameter { .. })));
    }

    #[test]
    fn factorize_then_solve_many_rhs() {
        let (c, n) = divider();
        let mut ws = EngineWorkspace::for_circuit(&c);
        let voltages = vec![0.0; c.node_count()];
        ws.factorize(&c, &StampContext::dc(&voltages)).unwrap();
        for scale in [1.0, 2.0, -0.5] {
            let x = ws.solve_factored(|rhs| rhs[n.index() - 1] = scale).unwrap();
            assert!((x[n.index() - 1] - scale * 2e3).abs() < 1e-4);
        }
    }
}
