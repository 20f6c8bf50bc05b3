//! Modified nodal analysis: assembling the linear(ized) system for one
//! Newton iteration or one transient step.
//!
//! Unknown ordering: node voltages for nodes `1..n` (ground excluded),
//! followed by one branch current per voltage source. Nonlinear devices
//! (MOSFETs) are stamped as their Norton companion linearized at the current
//! guess; capacitors as their backward-Euler companion when a
//! [`CapStep`] is provided, and as open circuits (DC) otherwise.

use crate::device::switch::{ClockPhase, TwoPhaseClock};
use crate::netlist::{Circuit, ElementKind, NodeId};
use crate::solver::Target;
use crate::sparse::SparsityPattern;
use crate::units::{Amps, Seconds, Volts};
use crate::AnalogError;

/// Backward-Euler capacitor context for one transient step.
#[derive(Debug, Clone, Copy)]
pub struct CapStep<'a> {
    /// The time step in seconds.
    pub h: f64,
    /// Node voltages at the previous accepted time point
    /// (length = node count, index 0 is ground).
    pub prev_voltages: &'a [f64],
}

/// Everything the stamper needs to know about "now".
#[derive(Debug, Clone, Copy)]
pub struct StampContext<'a> {
    /// Current node-voltage guess (length = node count, index 0 is ground).
    pub node_voltages: &'a [f64],
    /// Simulation time; `None` for DC analysis (sources at their DC value).
    pub time: Option<Seconds>,
    /// The clock driving [`ClockPhase::Phi1`]/[`ClockPhase::Phi2`] switches.
    pub clock: Option<&'a TwoPhaseClock>,
    /// φ1 state used when no clock/time is available (DC analysis).
    pub phi1_high: bool,
    /// φ2 state used when no clock/time is available (DC analysis).
    pub phi2_high: bool,
    /// Conductance added from every node to ground for convergence aid.
    pub gmin: f64,
    /// Capacitor handling: `Some` for a transient step, `None` for DC.
    pub cap_step: Option<CapStep<'a>>,
}

impl<'a> StampContext<'a> {
    /// A DC context at the given guess with φ1 closed (the SI sampling
    /// phase) and a light gmin.
    #[must_use]
    pub fn dc(node_voltages: &'a [f64]) -> Self {
        StampContext {
            node_voltages,
            time: None,
            clock: None,
            phi1_high: true,
            phi2_high: false,
            gmin: 1e-12,
            cap_step: None,
        }
    }

    fn phase_is_high(&self, phase: ClockPhase) -> bool {
        match (self.clock, self.time) {
            (Some(clock), Some(t)) => clock.is_high(phase, t),
            _ => match phase {
                ClockPhase::Phi1 => self.phi1_high,
                ClockPhase::Phi2 => self.phi2_high,
                ClockPhase::AlwaysOn => true,
                ClockPhase::AlwaysOff => false,
            },
        }
    }

    fn source_value(&self, waveform: &crate::device::Waveform) -> f64 {
        match self.time {
            Some(t) => waveform.value_at(t),
            None => waveform.dc_value(),
        }
    }
}

/// A solved MNA vector with accessors in circuit terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    x: Vec<f64>,
    node_count: usize,
}

impl Solution {
    /// Wraps a raw solution vector.
    #[must_use]
    pub fn new(x: Vec<f64>, node_count: usize) -> Self {
        Solution { x, node_count }
    }

    /// The voltage at a node (0 V for ground by definition).
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> Volts {
        if node.is_ground() {
            Volts(0.0)
        } else {
            Volts(self.x[node.index() - 1])
        }
    }

    /// The current through voltage-source branch `branch` (flowing from the
    /// source's positive terminal through it to the negative terminal).
    #[must_use]
    pub fn branch_current(&self, branch: usize) -> Amps {
        Amps(self.x[self.node_count - 1 + branch])
    }

    /// All node voltages including ground at index 0.
    #[must_use]
    pub fn node_voltages(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.node_count);
        v.push(0.0);
        v.extend_from_slice(&self.x[..self.node_count - 1]);
        v
    }

    /// The raw unknown vector (non-ground voltages then branch currents).
    #[must_use]
    pub fn raw(&self) -> &[f64] {
        &self.x
    }
}

/// Assembles the MNA system for `circuit` in the given context into either
/// solver backend's matrix storage, and the right-hand side into `b`.
///
/// The target is reset to the circuit's MNA dimension and zeroed; `b`
/// likewise. Neither allocates once its capacity has reached that
/// dimension, which makes this the zero-allocation kernel behind every
/// Newton iteration and transient step. The dense arm of [`Target`] adds
/// one stamp per position in element order; the sparse arm restamps
/// values into a fixed [`SparsityPattern`] built by [`mna_pattern`].
///
/// # Errors
///
/// Returns [`AnalogError::EmptyCircuit`] for a circuit with no unknowns, or
/// [`AnalogError::InvalidParameter`] if the guess length is wrong.
pub fn assemble_into_target(
    circuit: &Circuit,
    ctx: &StampContext<'_>,
    a: &mut Target<'_, f64>,
    b: &mut Vec<f64>,
) -> Result<(), AnalogError> {
    let dim = circuit.mna_dimension();
    if dim == 0 {
        return Err(AnalogError::EmptyCircuit);
    }
    if ctx.node_voltages.len() != circuit.node_count() {
        return Err(AnalogError::InvalidParameter {
            name: "node_voltages",
            constraint: "guess length must equal circuit node count",
        });
    }
    let n_nodes = circuit.node_count();
    a.reset(dim);
    b.clear();
    b.resize(dim, 0.0);
    let a = &mut *a;
    let b = &mut b[..];

    let row = |n: NodeId| -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    };
    let branch_row = |k: usize| n_nodes - 1 + k;

    // Helper closures for the two ubiquitous stamp shapes.
    let stamp_conductance = |a: &mut Target<'_, f64>, na: NodeId, nb: NodeId, g: f64| {
        if let Some(i) = row(na) {
            a.stamp(i, i, g);
            if let Some(j) = row(nb) {
                a.stamp(i, j, -g);
            }
        }
        if let Some(j) = row(nb) {
            a.stamp(j, j, g);
            if let Some(i) = row(na) {
                a.stamp(j, i, -g);
            }
        }
    };
    let inject = |b: &mut [f64], node: NodeId, i: f64| {
        if let Some(r) = row(node) {
            b[r] += i;
        }
    };

    for element in circuit.elements() {
        match element.kind() {
            ElementKind::Resistor {
                a: na,
                b: nb,
                device,
            } => {
                stamp_conductance(a, *na, *nb, device.conductance().0);
            }
            ElementKind::Capacitor {
                a: na,
                b: nb,
                device,
            } => {
                if let Some(step) = &ctx.cap_step {
                    let v_prev = step.prev_voltages[na.index()] - step.prev_voltages[nb.index()];
                    let comp = device.companion(step.h, Volts(v_prev));
                    stamp_conductance(a, *na, *nb, comp.geq.0);
                    // History current flows from b to a externally.
                    inject(b, *na, comp.ieq.0);
                    inject(b, *nb, -comp.ieq.0);
                }
                // DC: open circuit, nothing to stamp.
            }
            ElementKind::CurrentSource { from, to, waveform } => {
                let i = ctx.source_value(waveform);
                inject(b, *to, i);
                inject(b, *from, -i);
            }
            ElementKind::VoltageSource {
                pos,
                neg,
                waveform,
                branch,
            } => {
                let k = branch_row(*branch);
                if let Some(i) = row(*pos) {
                    a.stamp(i, k, 1.0);
                    a.stamp(k, i, 1.0);
                }
                if let Some(j) = row(*neg) {
                    a.stamp(j, k, -1.0);
                    a.stamp(k, j, -1.0);
                }
                b[k] = ctx.source_value(waveform);
            }
            ElementKind::Switch {
                a: na,
                b: nb,
                device,
            } => {
                let r = if ctx.phase_is_high(device.phase) {
                    device.ron
                } else {
                    device.roff
                };
                stamp_conductance(a, *na, *nb, 1.0 / r.0);
            }
            ElementKind::Mosfet { terminals, params } => {
                let vd = ctx.node_voltages[terminals.drain.index()];
                let vg = ctx.node_voltages[terminals.gate.index()];
                let vs = ctx.node_voltages[terminals.source.index()];
                let vb = ctx.node_voltages[terminals.bulk.index()];
                let vgs = vg - vs;
                let vds = vd - vs;
                let vbs = vb - vs;
                let eval = params.evaluate(Volts(vgs), Volts(vds), Volts(vbs));
                let (gm, gds, gmb) = (eval.gm, eval.gds, eval.gmb);
                // Norton equivalent current at the linearization point.
                let i0 = eval.id.0 - gm * vgs - gds * vds - gmb * vbs;
                // Row for the drain: current leaving into the device is
                //   id = gm·vg + gds·vd − (gm+gds+gmb)·vs + gmb·vb + i0.
                let gsum = gm + gds + gmb;
                if let Some(d) = row(terminals.drain) {
                    a.stamp(d, d, gds);
                    if let Some(g) = row(terminals.gate) {
                        a.stamp(d, g, gm);
                    }
                    if let Some(s) = row(terminals.source) {
                        a.stamp(d, s, -gsum);
                    }
                    if let Some(bk) = row(terminals.bulk) {
                        a.stamp(d, bk, gmb);
                    }
                    b[d] -= i0;
                }
                if let Some(s) = row(terminals.source) {
                    a.stamp(s, s, gsum);
                    if let Some(g) = row(terminals.gate) {
                        a.stamp(s, g, -gm);
                    }
                    if let Some(d) = row(terminals.drain) {
                        a.stamp(s, d, -gds);
                    }
                    if let Some(bk) = row(terminals.bulk) {
                        a.stamp(s, bk, -gmb);
                    }
                    b[s] += i0;
                }
            }
        }
    }

    // gmin from every non-ground node to ground keeps the matrix
    // non-singular when devices are cut off.
    if ctx.gmin > 0.0 {
        for i in 0..(n_nodes - 1) {
            a.stamp(i, i, ctx.gmin);
        }
    }

    Ok(())
}

/// The union sparsity pattern of every position *any* analysis stamps for
/// `circuit`: DC/transient conductances and companions, voltage-source
/// couplings, MOSFET conductance blocks, the gmin diagonal, and the AC
/// gate-capacitance positions. One superset pattern therefore serves the
/// real and complex backends across all analyses of a topology — explicit
/// structural zeros (a capacitor position during DC, say) cost a few
/// harmless arithmetic operations but keep the cached symbolic
/// factorization valid everywhere.
#[must_use]
pub fn mna_pattern(circuit: &Circuit) -> SparsityPattern {
    let n_nodes = circuit.node_count();
    let dim = circuit.mna_dimension();
    let row = |n: NodeId| -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    };
    let mut entries: Vec<(usize, usize)> = Vec::new();
    let pair = |entries: &mut Vec<(usize, usize)>, na: NodeId, nb: NodeId| {
        if let Some(i) = row(na) {
            entries.push((i, i));
            if let Some(j) = row(nb) {
                entries.push((i, j));
                entries.push((j, i));
            }
        }
        if let Some(j) = row(nb) {
            entries.push((j, j));
        }
    };
    for element in circuit.elements() {
        match element.kind() {
            ElementKind::Resistor { a, b, .. }
            | ElementKind::Capacitor { a, b, .. }
            | ElementKind::Switch { a, b, .. } => pair(&mut entries, *a, *b),
            ElementKind::CurrentSource { .. } => {}
            ElementKind::VoltageSource {
                pos, neg, branch, ..
            } => {
                let k = n_nodes - 1 + branch;
                if let Some(i) = row(*pos) {
                    entries.push((i, k));
                    entries.push((k, i));
                }
                if let Some(j) = row(*neg) {
                    entries.push((j, k));
                    entries.push((k, j));
                }
            }
            ElementKind::Mosfet { terminals, .. } => {
                // DC/transient: drain and source rows against all four
                // terminal columns.
                let cols = [
                    terminals.drain,
                    terminals.gate,
                    terminals.source,
                    terminals.bulk,
                ];
                for r in [terminals.drain, terminals.source] {
                    if let Some(i) = row(r) {
                        for c in cols {
                            if let Some(j) = row(c) {
                                entries.push((i, j));
                            }
                        }
                    }
                }
                // AC: gate-capacitance admittances couple gate–source and
                // gate–drain symmetrically.
                pair(&mut entries, terminals.gate, terminals.source);
                pair(&mut entries, terminals.gate, terminals.drain);
            }
        }
    }
    for i in 0..(n_nodes - 1) {
        entries.push((i, i));
    }
    SparsityPattern::from_entries(dim, &entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use crate::units::Ohms;

    /// Assembles into a fresh dense matrix and right-hand side.
    fn assemble(
        circuit: &Circuit,
        ctx: &StampContext<'_>,
    ) -> Result<(Matrix<f64>, Vec<f64>), AnalogError> {
        let mut matrix = Matrix::zeros(0, 0);
        let mut rhs = Vec::new();
        assemble_into_target(circuit, ctx, &mut Target::Dense(&mut matrix), &mut rhs)?;
        Ok((matrix, rhs))
    }

    #[test]
    fn resistive_divider_assembles_and_solves() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.voltage_source("V1", vin, Circuit::GROUND, Volts(3.0))
            .unwrap();
        c.resistor("R1", vin, mid, Ohms(1e3)).unwrap();
        c.resistor("R2", mid, Circuit::GROUND, Ohms(1e3)).unwrap();
        let guess = vec![0.0; c.node_count()];
        let (matrix, rhs) = assemble(&c, &StampContext::dc(&guess)).unwrap();
        let x = matrix.solve(&rhs).unwrap();
        let sol = Solution::new(x, c.node_count());
        assert!((sol.voltage(mid).0 - 1.5).abs() < 1e-9);
        assert!((sol.voltage(vin).0 - 3.0).abs() < 1e-12);
        // Branch current: 3 V over 2 kΩ = 1.5 mA flowing out of the source's
        // positive terminal into the circuit, i.e. −1.5 mA through the branch.
        assert!((sol.branch_current(0).0 + 1.5e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_injects() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        c.current_source("I1", Circuit::GROUND, n1, Amps(1e-3))
            .unwrap();
        c.resistor("R1", n1, Circuit::GROUND, Ohms(2e3)).unwrap();
        let guess = vec![0.0; c.node_count()];
        let (matrix, rhs) = assemble(&c, &StampContext::dc(&guess)).unwrap();
        let x = matrix.solve(&rhs).unwrap();
        let sol = Solution::new(x, c.node_count());
        assert!((sol.voltage(n1).0 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn switch_state_follows_dc_phase_flags() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        c.current_source("I1", Circuit::GROUND, n1, Amps(1e-3))
            .unwrap();
        c.switch(
            "S1",
            n1,
            Circuit::GROUND,
            crate::device::switch::Switch {
                ron: Ohms(1.0),
                roff: Ohms(1e9),
                phase: ClockPhase::Phi2,
            },
        )
        .unwrap();
        let guess = vec![0.0; c.node_count()];
        // φ2 low (default dc context): switch open, node floats up on gmin.
        let (matrix, rhs) = assemble(&c, &StampContext::dc(&guess)).unwrap();
        let x = matrix.solve(&rhs).unwrap();
        let v_open = x[0];
        // φ2 high: switch closed through 1 Ω.
        let ctx = StampContext {
            phi2_high: true,
            ..StampContext::dc(&guess)
        };
        let (matrix, rhs) = assemble(&c, &ctx).unwrap();
        let x = matrix.solve(&rhs).unwrap();
        let v_closed = x[0];
        assert!(v_open > 1e5 * v_closed, "open {v_open}, closed {v_closed}");
        assert!((v_closed - 1e-3).abs() < 1e-6);
    }

    #[test]
    fn empty_circuit_is_rejected() {
        let c = Circuit::new();
        let guess = vec![0.0];
        assert!(matches!(
            assemble(&c, &StampContext::dc(&guess)),
            Err(AnalogError::EmptyCircuit)
        ));
    }

    #[test]
    fn wrong_guess_length_is_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R", a, Circuit::GROUND, Ohms(1.0)).unwrap();
        let guess = vec![0.0; 5];
        assert!(matches!(
            assemble(&c, &StampContext::dc(&guess)),
            Err(AnalogError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn capacitor_is_open_in_dc_and_conductive_in_tran() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        c.current_source("I1", Circuit::GROUND, n1, Amps(1e-6))
            .unwrap();
        c.capacitor("C1", n1, Circuit::GROUND, crate::units::Farads(1e-12))
            .unwrap();
        let guess = vec![0.0; c.node_count()];
        // DC: only gmin holds the node; voltage is huge.
        let (matrix, rhs) = assemble(&c, &StampContext::dc(&guess)).unwrap();
        let x = matrix.solve(&rhs).unwrap();
        assert!(x[0] > 1e5);
        // Transient step: companion conductance C/h = 1e-12/1e-9 = 1 mS.
        let prev = vec![0.0; c.node_count()];
        let ctx = StampContext {
            cap_step: Some(CapStep {
                h: 1e-9,
                prev_voltages: &prev,
            }),
            time: Some(Seconds(0.0)),
            ..StampContext::dc(&guess)
        };
        let (matrix, rhs) = assemble(&c, &ctx).unwrap();
        let x = matrix.solve(&rhs).unwrap();
        assert!((x[0] - 1e-3).abs() < 1e-6);
    }

    #[test]
    fn solution_accessors() {
        let sol = Solution::new(vec![1.0, 2.0, 0.5], 3);
        assert_eq!(sol.voltage(NodeId(0)), Volts(0.0));
        assert_eq!(sol.voltage(NodeId(1)), Volts(1.0));
        assert_eq!(sol.voltage(NodeId(2)), Volts(2.0));
        assert_eq!(sol.branch_current(0), Amps(0.5));
        assert_eq!(sol.node_voltages(), vec![0.0, 1.0, 2.0]);
        assert_eq!(sol.raw().len(), 3);
    }

    #[test]
    fn sparse_assembly_matches_dense_on_a_full_device_mix() {
        // One of everything — resistor, capacitor, switch, current source,
        // voltage source, MOSFET — assembled both densely and into the
        // mna_pattern sparse superset must agree entry for entry, in DC
        // and in a transient step.
        let cell = crate::cells::ClassAbCellDesign::default().build().unwrap();
        let circuit = &cell.cell.circuit;
        let guess = &cell.cell.initial_guess;
        let prev = vec![0.0; circuit.node_count()];
        let contexts = [
            StampContext::dc(guess),
            StampContext {
                phi2_high: true,
                cap_step: Some(CapStep {
                    h: 1e-9,
                    prev_voltages: &prev,
                }),
                time: Some(Seconds(0.0)),
                ..StampContext::dc(guess)
            },
        ];
        let dim = circuit.mna_dimension();
        let pattern = mna_pattern(circuit);
        assert_eq!(pattern.dim(), dim);
        let mut sparse = crate::sparse::CscMatrix::<f64>::from_pattern(pattern);
        let mut dense = Matrix::zeros(0, 0);
        for ctx in contexts {
            let mut rhs_d = Vec::new();
            let mut rhs_s = Vec::new();
            assemble_into_target(circuit, &ctx, &mut Target::Dense(&mut dense), &mut rhs_d)
                .unwrap();
            assemble_into_target(circuit, &ctx, &mut Target::Sparse(&mut sparse), &mut rhs_s)
                .unwrap();
            assert_eq!(rhs_d, rhs_s);
            for i in 0..dim {
                for j in 0..dim {
                    assert_eq!(dense[(i, j)], sparse.get(i, j), "entry ({i},{j}) differs");
                }
            }
        }
    }
}
