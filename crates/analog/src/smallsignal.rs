//! Small-signal analyses on the circuit linearized at an operating point.
//!
//! The paper's central cell-level quantity is the **input conductance** of
//! the class-AB memory cell: "the input conductance is increased by the
//! voltage gain of the grounded-gate transistor TG. This provides a
//! 'virtual ground' at the input". [`port_conductance`] measures exactly
//! that — it injects a unit small-signal current into a node of the
//! linearized circuit and reads the voltage perturbation.

use crate::engine::EngineWorkspace;
use crate::mna::{Solution, StampContext};
use crate::netlist::{Circuit, NodeId};
use crate::units::Siemens;
use crate::AnalogError;

/// Options for small-signal analyses.
#[derive(Debug, Clone, Copy)]
pub struct SmallSignal {
    /// φ1 switch state during the analysis.
    pub phi1_high: bool,
    /// φ2 switch state during the analysis.
    pub phi2_high: bool,
    /// gmin used in the linearized matrix.
    pub gmin: f64,
}

impl Default for SmallSignal {
    fn default() -> Self {
        SmallSignal {
            phi1_high: true,
            phi2_high: false,
            gmin: 1e-12,
        }
    }
}

impl SmallSignal {
    /// The small-signal conductance looking into `node` (to ground): inject
    /// a 1 A test current, read the node's voltage response `ΔV`, return
    /// `1/ΔV`.
    ///
    /// Independent sources are zeroed by the linearization (the Jacobian
    /// contains only conductances; the RHS is replaced by the test
    /// injection), which is the definition of small-signal analysis.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] when `node` is ground, plus
    /// any assembly/factorization error.
    pub fn port_conductance(
        &self,
        circuit: &Circuit,
        op: &Solution,
        node: NodeId,
    ) -> Result<Siemens, AnalogError> {
        let mut ws = EngineWorkspace::for_circuit(circuit);
        self.port_conductance_with(circuit, op, node, &mut ws)
    }

    /// Workspace-reusing variant of [`SmallSignal::port_conductance`].
    ///
    /// # Errors
    ///
    /// Same as [`SmallSignal::port_conductance`].
    pub fn port_conductance_with(
        &self,
        circuit: &Circuit,
        op: &Solution,
        node: NodeId,
        ws: &mut EngineWorkspace,
    ) -> Result<Siemens, AnalogError> {
        if node.is_ground() {
            return Err(AnalogError::InvalidParameter {
                name: "node",
                constraint: "cannot measure conductance into ground",
            });
        }
        // Linearize at `op`: the factored Jacobian, with the test
        // injection as the only right-hand side.
        let voltages = op.node_voltages();
        let ctx = StampContext {
            node_voltages: &voltages,
            time: None,
            clock: None,
            phi1_high: self.phi1_high,
            phi2_high: self.phi2_high,
            gmin: self.gmin,
            cap_step: None,
        };
        ws.factorize(circuit, &ctx)?;
        let idx = node.index() - 1;
        let x = ws.solve_factored(|rhs| rhs[idx] = 1.0)?;
        Ok(Siemens(1.0 / x[idx]))
    }
}

/// Convenience: measures the conductance looking into `node` with default
/// small-signal options.
///
/// # Errors
///
/// See [`SmallSignal::port_conductance`].
pub fn port_conductance(
    circuit: &Circuit,
    op: &Solution,
    node: NodeId,
) -> Result<Siemens, AnalogError> {
    SmallSignal::default().port_conductance(circuit, op, node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcSolver;
    use crate::device::mos::MosParams;
    use crate::netlist::MosTerminals;
    use crate::units::Volts;
    use crate::units::{Amps, Ohms};

    #[test]
    fn resistor_port_conductance() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor("R", n, Circuit::GROUND, Ohms(1e3)).unwrap();
        // Add a trivial source so the op solve has something to do.
        c.current_source("I0", Circuit::GROUND, n, Amps(0.0))
            .unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        let g = port_conductance(&c, &op, n).unwrap();
        assert!((g.0 - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn parallel_resistors_add_conductance() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor("R1", n, Circuit::GROUND, Ohms(1e3)).unwrap();
        c.resistor("R2", n, Circuit::GROUND, Ohms(1e3)).unwrap();
        c.current_source("I0", Circuit::GROUND, n, Amps(0.0))
            .unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        let g = port_conductance(&c, &op, n).unwrap();
        assert!((g.0 - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn diode_connected_mos_conductance_is_gm() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let ib = Amps(50e-6);
        c.current_source("Ib", Circuit::GROUND, d, ib).unwrap();
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
        let op = DcSolver::new().solve(&c).unwrap();
        let g = port_conductance(&c, &op, d).unwrap();
        let gm = m.gm_at(ib).0;
        assert!(
            (g.0 - gm).abs() / gm < 1e-4,
            "port conductance {} vs gm {gm}",
            g.0
        );
    }

    /// Builds a grounded-source NMOS biased through a holding voltage
    /// source, optionally with a cascode on top, and measures the
    /// small-signal conductance looking into the output node with the hold
    /// replaced by a zero-valued current source.
    fn output_conductance(cascode: bool) -> f64 {
        let m = MosParams::nmos_08um(20.0, 2.0);
        // First find the bias by holding the output at 2.8 V.
        let build = |hold: bool| {
            let mut c = Circuit::new();
            let out = c.node("out");
            let vb1 = c.node("vb1");
            c.voltage_source("Vb1", vb1, Circuit::GROUND, Volts(1.2))
                .unwrap();
            if cascode {
                let mid = c.node("mid");
                let vb2 = c.node("vb2");
                c.voltage_source("Vb2", vb2, Circuit::GROUND, Volts(2.0))
                    .unwrap();
                c.mosfet(
                    "M1",
                    MosTerminals {
                        drain: mid,
                        gate: vb1,
                        source: Circuit::GROUND,
                        bulk: Circuit::GROUND,
                    },
                    m,
                )
                .unwrap();
                c.mosfet(
                    "M2",
                    MosTerminals {
                        drain: out,
                        gate: vb2,
                        source: mid,
                        bulk: Circuit::GROUND,
                    },
                    m,
                )
                .unwrap();
            } else {
                c.mosfet(
                    "M1",
                    MosTerminals {
                        drain: out,
                        gate: vb1,
                        source: Circuit::GROUND,
                        bulk: Circuit::GROUND,
                    },
                    m,
                )
                .unwrap();
            }
            if hold {
                c.voltage_source("Vh", out, Circuit::GROUND, Volts(2.8))
                    .unwrap();
            } else {
                // Placeholder value; replaced with the held branch current.
                c.current_source("Ih", Circuit::GROUND, out, Amps(0.0))
                    .unwrap();
            }
            (c, out)
        };
        let (held, out) = build(true);
        let op_held = DcSolver::new().solve(&held).unwrap();
        // The hold source absorbs the stage current; feed exactly that
        // current back in its place so the free circuit biases identically.
        let i_stage = -op_held.branch_current(held.branch_of("Vh").unwrap()).0;
        let (mut free, out_free) = build(false);
        crate::dc::set_current_source(&mut free, "Ih", Amps(i_stage)).unwrap();
        let op = DcSolver::new()
            .with_initial_guess(op_held.node_voltages())
            .solve(&free)
            .unwrap();
        assert!(
            (op.voltage(out_free).0 - op_held.voltage(out).0).abs() < 0.3,
            "free output drifted to {} V from held {} V",
            op.voltage(out_free).0,
            op_held.voltage(out).0
        );
        port_conductance(&free, &op, out_free).unwrap().0
    }

    #[test]
    fn cascode_raises_output_resistance() {
        let g_simple = output_conductance(false);
        let g_cascode = output_conductance(true);
        // The cascode divides the output conductance by roughly gm/gds — two
        // orders of magnitude for this geometry.
        assert!(
            g_simple > 20.0 * g_cascode,
            "simple {g_simple} vs cascode {g_cascode}"
        );
        // And the simple stage's conductance is close to the device gds.
        let m = MosParams::nmos_08um(20.0, 2.0);
        let e = m.evaluate(Volts(1.2), Volts(2.8), Volts(0.0));
        assert!(
            (g_simple - e.gds).abs() / e.gds < 0.2,
            "simple stage conductance {g_simple} vs gds {}",
            e.gds
        );
    }

    #[test]
    fn ground_port_is_rejected() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor("R", n, Circuit::GROUND, Ohms(1.0)).unwrap();
        c.current_source("I0", Circuit::GROUND, n, Amps(0.0))
            .unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        assert!(port_conductance(&c, &op, Circuit::GROUND).is_err());
    }
}
