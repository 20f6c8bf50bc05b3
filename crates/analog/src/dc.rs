//! DC operating-point analysis: damped Newton–Raphson with gmin stepping.
//!
//! The solver iterates the MNA system linearized at the current guess,
//! limiting per-iteration node-voltage moves (square-law devices diverge
//! under full Newton steps from a cold start). If plain Newton fails, gmin
//! stepping retries from a heavily-conducting circuit and relaxes the added
//! conductance decade by decade — enough robustness for the tens-of-devices
//! cells this workspace simulates.

use crate::engine::{EngineWorkspace, NewtonSettings, StampSpec};
use crate::mna::Solution;
use crate::netlist::Circuit;
use crate::AnalogError;

/// Configuration for the Newton operating-point solver.
///
/// ```
/// use si_analog::dc::DcSolver;
///
/// let solver = DcSolver::new().with_max_iterations(200);
/// ```
#[derive(Debug, Clone)]
pub struct DcSolver {
    max_iterations: usize,
    vtol: f64,
    max_step: f64,
    gmin: f64,
    phi1_high: bool,
    phi2_high: bool,
    initial: Option<Vec<f64>>,
}

impl Default for DcSolver {
    fn default() -> Self {
        DcSolver::new()
    }
}

impl DcSolver {
    /// A solver with typical settings: 100 iterations, 1 µV tolerance,
    /// 0.5 V damping limit, 1 pS gmin, φ1 closed.
    #[must_use]
    pub fn new() -> Self {
        DcSolver {
            max_iterations: 100,
            vtol: 1e-6,
            max_step: 0.5,
            gmin: 1e-12,
            phi1_high: true,
            phi2_high: false,
            initial: None,
        }
    }

    /// Sets the iteration budget.
    #[must_use]
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Sets the convergence tolerance on node-voltage updates, in volts.
    #[must_use]
    pub fn with_tolerance(mut self, vtol: f64) -> Self {
        self.vtol = vtol;
        self
    }

    /// Sets the DC clock-phase state seen by φ1/φ2 switches.
    #[must_use]
    pub(crate) fn with_phases(mut self, phi1_high: bool, phi2_high: bool) -> Self {
        self.phi1_high = phi1_high;
        self.phi2_high = phi2_high;
        self
    }

    /// Supplies an initial guess for all node voltages (index 0 = ground,
    /// which must be 0).
    #[must_use]
    pub fn with_initial_guess(mut self, node_voltages: Vec<f64>) -> Self {
        self.initial = Some(node_voltages);
        self
    }

    fn newton_settings(&self) -> NewtonSettings {
        NewtonSettings {
            max_iterations: self.max_iterations,
            vtol: self.vtol,
            max_step: self.max_step,
        }
    }

    fn stamp_spec(&self) -> StampSpec<'static> {
        StampSpec {
            phi1_high: self.phi1_high,
            phi2_high: self.phi2_high,
            ..StampSpec::default()
        }
    }

    /// Solves for the operating point.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::NoConvergence`] if Newton and gmin stepping
    /// both fail, [`AnalogError::SingularMatrix`] for structurally singular
    /// circuits, or parameter errors from assembly.
    pub fn solve(&self, circuit: &Circuit) -> Result<Solution, AnalogError> {
        let mut ws = EngineWorkspace::for_circuit(circuit);
        self.solve_with(circuit, &mut ws)
    }

    /// Solves for the operating point, reusing the caller's workspace
    /// buffers — the allocation-free entry point for tight loops.
    ///
    /// # Errors
    ///
    /// Same as [`DcSolver::solve`].
    pub fn solve_with(
        &self,
        circuit: &Circuit,
        ws: &mut EngineWorkspace,
    ) -> Result<Solution, AnalogError> {
        match &self.initial {
            Some(guess) => self.solve_from_with(circuit, guess, ws),
            None => {
                let start = vec![0.0; circuit.node_count()];
                self.solve_from_with(circuit, &start, ws)
            }
        }
    }

    /// Solves for the operating point from an explicit starting guess
    /// (full node-voltage vector, ground at index 0), reusing the caller's
    /// workspace. Sweeps call this to warm-start each point from the
    /// previous solution without cloning the solver.
    ///
    /// # Errors
    ///
    /// Same as [`DcSolver::solve`], plus
    /// [`AnalogError::InvalidParameter`] for a wrong-length guess.
    pub fn solve_from_with(
        &self,
        circuit: &Circuit,
        start: &[f64],
        ws: &mut EngineWorkspace,
    ) -> Result<Solution, AnalogError> {
        if start.len() != circuit.node_count() {
            return Err(AnalogError::InvalidParameter {
                name: "initial",
                constraint: "guess length must equal circuit node count",
            });
        }
        let settings = self.newton_settings();
        let spec = self.stamp_spec();

        // Plain Newton first.
        match ws.newton(circuit, &spec, &settings, self.gmin, start) {
            Ok(()) => return Ok(ws.solution()),
            Err(AnalogError::NoConvergence { .. }) | Err(AnalogError::SingularMatrix { .. }) => {}
            Err(e) => return Err(e),
        }

        // gmin stepping: converge an easy (leaky) circuit, then tighten.
        let mut guess = start.to_vec();
        let mut gmin = 1e-2;
        let mut last_err = AnalogError::NoConvergence {
            iterations: 0,
            residual: f64::INFINITY,
            gmin: self.gmin,
            residual_history: Vec::new(),
        };
        while gmin >= self.gmin * 0.99 {
            ws.probe_event(|p| p.gmin_level(gmin));
            match ws.newton(circuit, &spec, &settings, gmin, &guess) {
                Ok(()) => {
                    guess.clear();
                    guess.extend_from_slice(ws.node_voltages());
                    if gmin <= self.gmin * 1.01 {
                        return Ok(ws.solution());
                    }
                }
                Err(e) => last_err = e,
            }
            gmin = (gmin / 10.0).max(self.gmin);
            if gmin == self.gmin {
                // One final attempt at the target gmin. This branch must
                // fire for *every* failure kind: a matrix that stays
                // exactly singular at all gmin levels (e.g. duplicate
                // voltage-source branch rows) would otherwise pin the
                // ladder at the floor and spin forever.
                ws.probe_event(|p| p.gmin_level(gmin));
                ws.newton(circuit, &spec, &settings, gmin, &guess)?;
                return Ok(ws.solution());
            }
        }
        Err(last_err)
    }
}

/// Sweeps the DC value of one current source and records an output quantity
/// at each point, reusing each solution as the next initial guess.
///
/// `read` receives the converged solution for every sweep value; its returns
/// are collected in order. The circuit is cloned once, the solver is built
/// once, and every point after the first warm-starts from the previous
/// solution inside one reused [`EngineWorkspace`] — no per-point cloning.
///
/// A point whose warm start diverges is retried from the cold start (the
/// solver's initial guess, or all zeros) and the rejection is recorded on
/// the workspace probe as `warm_start_rejected` — a stale seed never fails
/// the whole sweep. Only a point that also fails from cold propagates its
/// error.
///
/// # Errors
///
/// Propagates solver errors; the sweep stops at the first point that fails
/// from both the warm and the cold start.
pub fn sweep_current_source<T>(
    circuit: &Circuit,
    source_name: &str,
    values: &[crate::units::Amps],
    solver: &DcSolver,
    mut read: impl FnMut(&Solution) -> T,
) -> Result<Vec<T>, AnalogError> {
    let mut ws = EngineWorkspace::for_circuit(circuit);
    sweep_current_source_with(circuit, source_name, values, solver, &mut ws, &mut read)
}

/// [`sweep_current_source`] against a caller-provided workspace, so sweeps
/// compose with an installed telemetry probe and with outer batch drivers.
///
/// # Errors
///
/// As [`sweep_current_source`].
pub(crate) fn sweep_current_source_with<T>(
    circuit: &Circuit,
    source_name: &str,
    values: &[crate::units::Amps],
    solver: &DcSolver,
    ws: &mut EngineWorkspace,
    read: &mut impl FnMut(&Solution) -> T,
) -> Result<Vec<T>, AnalogError> {
    let mut out = Vec::with_capacity(values.len());
    let mut ckt = circuit.clone();
    let cold = match &solver.initial {
        Some(g) => g.clone(),
        None => vec![0.0; circuit.node_count()],
    };
    let mut guess = cold.clone();
    for (k, &value) in values.iter().enumerate() {
        set_current_source(&mut ckt, source_name, value)?;
        if k > 0 {
            ws.probe_event(crate::telemetry::EngineStats::warm_start);
        }
        let sol = match solver.solve_from_with(&ckt, &guess, ws) {
            Ok(sol) => sol,
            Err(AnalogError::NoConvergence { .. } | AnalogError::SingularMatrix { .. })
                if k > 0 =>
            {
                // The previous point's solution was a bad seed here; retry
                // from cold rather than failing the sweep.
                ws.probe_event(crate::telemetry::EngineStats::warm_start_rejected);
                solver.solve_from_with(&ckt, &cold, ws)?
            }
            Err(e) => return Err(e),
        };
        guess.clear();
        guess.extend_from_slice(ws.node_voltages());
        out.push(read(&sol));
    }
    Ok(out)
}

/// Replaces the DC value of a named current source in place.
///
/// # Errors
///
/// Returns [`AnalogError::UnknownElement`] if the element is missing or not
/// a current source.
pub fn set_current_source(
    circuit: &mut Circuit,
    name: &str,
    value: crate::units::Amps,
) -> Result<(), AnalogError> {
    circuit.update_current_source(name, crate::device::Waveform::Dc(value.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::mos::MosParams;
    use crate::netlist::MosTerminals;
    use crate::units::{Amps, Ohms, Volts};

    #[test]
    fn linear_circuit_converges_in_one_step() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source("V", a, Circuit::GROUND, Volts(2.0))
            .unwrap();
        c.resistor("R", a, Circuit::GROUND, Ohms(1e3)).unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        assert!((sol.voltage(a).0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn diode_connected_nmos_settles_at_vgs_for_bias() {
        // Current source pushes 50 µA into a diode-connected NMOS.
        let mut c = Circuit::new();
        let d = c.node("d");
        c.current_source("Ib", Circuit::GROUND, d, Amps(50e-6))
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
        let sol = DcSolver::new().solve(&c).unwrap();
        let expected = m.vt0.0 + m.saturation_overdrive(Amps(50e-6)).0;
        assert!(
            (sol.voltage(d).0 - expected).abs() < 1e-4,
            "vgs {} vs expected {expected}",
            sol.voltage(d)
        );
    }

    #[test]
    fn nmos_common_source_amplifier_operating_point() {
        // Vdd - R - drain, gate driven at fixed bias: check Id·R drop.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        let g = c.node("g");
        c.voltage_source("Vdd", vdd, Circuit::GROUND, Volts(3.3))
            .unwrap();
        c.voltage_source("Vg", g, Circuit::GROUND, Volts(1.2))
            .unwrap();
        c.resistor("Rd", vdd, d, Ohms(10e3)).unwrap();
        let m = MosParams::nmos_08um(10.0, 1.0).with_lambda(0.0);
        c.mosfet(
            "M1",
            MosTerminals {
                drain: d,
                gate: g,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            m,
        )
        .unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        // id = β/2 (1.2-0.8)² = 0.5e-3·0.16 = 80 µA ⇒ vd = 3.3 − 0.8 = 2.5 V.
        let id = m.beta() / 2.0 * 0.4 * 0.4;
        let expected = 3.3 - id * 10e3;
        assert!(
            (sol.voltage(d).0 - expected).abs() < 1e-3,
            "vd {} vs expected {expected}",
            sol.voltage(d)
        );
    }

    #[test]
    fn pmos_current_mirror_copies_current() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let ref_node = c.node("ref");
        let out = c.node("out");
        c.voltage_source("Vdd", vdd, Circuit::GROUND, Volts(3.3))
            .unwrap();
        // Reference branch pulls 20 µA out of the diode-connected PMOS.
        c.current_source("Iref", ref_node, Circuit::GROUND, Amps(20e-6))
            .unwrap();
        let p = MosParams::pmos_08um(40.0, 2.0).with_lambda(0.0);
        c.mosfet(
            "Mp1",
            MosTerminals {
                drain: ref_node,
                gate: ref_node,
                source: vdd,
                bulk: vdd,
            },
            p,
        )
        .unwrap();
        c.mosfet(
            "Mp2",
            MosTerminals {
                drain: out,
                gate: ref_node,
                source: vdd,
                bulk: vdd,
            },
            p,
        )
        .unwrap();
        // Output branch: ammeter into a 1 V hold keeps Mp2 saturated.
        let sink = c.node("sink");
        c.ammeter("Am", out, sink).unwrap();
        c.voltage_source("Vh", sink, Circuit::GROUND, Volts(1.0))
            .unwrap();
        let sol = DcSolver::new().solve(&c).unwrap();
        let i_out = sol.branch_current(c.branch_of("Am").unwrap());
        assert!(
            (i_out.0 - 20e-6).abs() < 0.2e-6,
            "mirror output {} A",
            i_out.0
        );
    }

    #[test]
    fn no_convergence_is_reported_for_absurd_budget() {
        let mut c = Circuit::new();
        let d = c.node("d");
        c.current_source("I", Circuit::GROUND, d, Amps(1e-3))
            .unwrap();
        let m = MosParams::nmos_08um(10.0, 1.0);
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
        let r = DcSolver::new().with_max_iterations(1).solve(&c);
        assert!(matches!(r, Err(AnalogError::NoConvergence { .. })));
    }

    #[test]
    fn exactly_singular_system_terminates_with_an_error() {
        // Two identical voltage sources in parallel: the branch rows stay
        // exactly singular at every gmin level, so no amount of stepping
        // can help. The ladder must report the failure, not spin forever
        // (regression: the floor-gmin escape only fired for
        // `NoConvergence`, and `SingularMatrix` looped).
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source("V1", a, Circuit::GROUND, Volts(3.3))
            .unwrap();
        c.voltage_source("V2", a, Circuit::GROUND, Volts(3.3))
            .unwrap();
        let r = DcSolver::new().solve(&c);
        assert!(
            matches!(r, Err(AnalogError::SingularMatrix { .. })),
            "{r:?}"
        );
    }

    #[test]
    fn bad_initial_guess_length_is_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R", a, Circuit::GROUND, Ohms(1.0)).unwrap();
        let r = DcSolver::new().with_initial_guess(vec![0.0]).solve(&c);
        assert!(matches!(r, Err(AnalogError::InvalidParameter { .. })));
    }

    #[test]
    fn sweep_reuses_previous_solution() {
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
        let values: Vec<Amps> = (1..=5).map(|k| Amps(k as f64 * 10e-6)).collect();
        let vgs = sweep_current_source(&c, "Ib", &values, &DcSolver::new(), |sol| sol.voltage(d).0)
            .unwrap();
        // Monotonically increasing vgs with current.
        for w in vgs.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Square-law check at the last point.
        let expected = m.vt0.0 + m.saturation_overdrive(Amps(50e-6)).0;
        assert!((vgs[4] - expected).abs() < 1e-3);
    }

    fn diode_cell() -> (Circuit, crate::netlist::NodeId) {
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
        (c, d)
    }

    #[test]
    fn sweep_records_warm_start_telemetry() {
        let (c, d) = diode_cell();
        let values: Vec<Amps> = (1..=5).map(|k| Amps(k as f64 * 10e-6)).collect();
        let mut ws = EngineWorkspace::for_circuit(&c);
        ws.enable_stats();
        let vgs = sweep_current_source_with(
            &c,
            "Ib",
            &values,
            &DcSolver::new(),
            &mut ws,
            &mut |sol: &Solution| sol.voltage(d).0,
        )
        .unwrap();
        assert_eq!(vgs.len(), 5);
        let stats = ws.stats().unwrap();
        assert_eq!(stats.warm_starts, 4, "every point after the first is warm");
        assert_eq!(stats.warm_start_rejected, 0);
        // Identical to the workspace-free entry point.
        let plain =
            sweep_current_source(&c, "Ib", &values, &DcSolver::new(), |sol| sol.voltage(d).0)
                .unwrap();
        for (a, b) in vgs.iter().zip(&plain) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sweep_retries_rejected_warm_start_from_cold_before_failing() {
        // Point 2 pulls current *out* of the diode-connected NMOS: no DC
        // solution exists, so the warm attempt diverges, the sweep records
        // the rejection, retries from cold, and only then propagates the
        // cold failure.
        let (c, d) = diode_cell();
        let values = [Amps(10e-6), Amps(-10e-6)];
        let mut ws = EngineWorkspace::for_circuit(&c);
        ws.enable_stats();
        let solver = DcSolver::new().with_max_iterations(20);
        let r = sweep_current_source_with(
            &c,
            "Ib",
            &values,
            &solver,
            &mut ws,
            &mut |sol: &Solution| sol.voltage(d).0,
        );
        assert!(matches!(r, Err(AnalogError::NoConvergence { .. })));
        let stats = ws.stats().unwrap();
        assert_eq!(stats.warm_starts, 1);
        assert_eq!(
            stats.warm_start_rejected, 1,
            "divergent warm start must be recorded before the cold retry"
        );
    }
}
