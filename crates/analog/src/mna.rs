//! Modified nodal analysis: the one layout of the linear(ized) system
//! every analysis solves, and its real assembly.
//!
//! Unknown ordering: node voltages for nodes `1..n` (ground excluded),
//! followed by one branch current per voltage source.
//!
//! `stamp_walk` is the one place that decides which matrix positions each
//! element occupies and in which order. A `Stamper` supplies the values
//! and receives the stamps, for three readings: `assemble_into_target`
//! (real DC/transient: MOSFETs as their Norton companion at the current
//! guess, capacitors as their backward-Euler companion under a
//! [`CapStep`] and open at DC, plus the right-hand side); the complex
//! AC/noise system of [`crate::ac::AcAnalysis`]; and [`mna_pattern`], the
//! walk with every optional stamp on.

use crate::device::passive::Capacitor;
use crate::device::switch::{ClockPhase, TwoPhaseClock};
use crate::device::{MosEval, MosParams, Waveform};
use crate::netlist::{Circuit, ElementKind, MosTerminals, NodeId};
use crate::solver::Target;
use crate::sparse::SparsityPattern;
use crate::units::{Amps, Seconds, Volts};
use crate::AnalogError;
use std::ops::Neg;

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

    /// Whether a switch on `phase` is closed: the clock at `time` when
    /// both are set, the φ1/φ2 flags otherwise. The AC analysis reads its
    /// switches through this rule too.
    pub(crate) fn phase_is_high(&self, phase: ClockPhase) -> bool {
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

    fn source_value(&self, waveform: &Waveform) -> f64 {
        match self.time {
            Some(t) => waveform.value_at(t),
            None => waveform.dc_value(),
        }
    }

    /// A MOSFET's terminal biases `[vgs, vds, vbs]` at the guess and its
    /// model evaluated there.
    #[inline]
    pub(crate) fn mos_bias(&self, t: &MosTerminals, params: &MosParams) -> ([f64; 3], MosEval) {
        let v = |n: NodeId| self.node_voltages[n.index()];
        let vs = v(t.source);
        let bias = [v(t.gate) - vs, v(t.drain) - vs, v(t.bulk) - vs];
        let eval = params.evaluate(Volts(bias[0]), Volts(bias[1]), Volts(bias[2]));
        (bias, eval)
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
    pub(crate) fn branch_current(&self, branch: usize) -> Amps {
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

/// The row (and column) of a node's voltage unknown; `None` for ground.
#[inline]
pub(crate) fn node_row(n: NodeId) -> Option<usize> {
    n.index().checked_sub(1)
}

/// One reading of the MNA system: the element values an assembly stamps,
/// and where the stamps go. The positions are `stamp_walk`'s alone.
pub(crate) trait Stamper {
    /// The matrix scalar.
    type S: Copy + Neg<Output = Self::S>;
    /// Adds `v` at matrix position `(i, j)`.
    fn add(&mut self, i: usize, j: usize, v: Self::S);
    /// A real conductance as a matrix scalar.
    fn real(g: f64) -> Self::S;
    /// Whether a switch on `phase` is closed.
    fn closed(&self, phase: ClockPhase) -> bool;
    /// The admittance a capacitor puts between `a` and `b`; `None` leaves
    /// it open.
    fn capacitor(&mut self, a: NodeId, b: NodeId, device: &Capacitor) -> Option<Self::S>;
    /// A MOSFET's small-signal `[gm, gds, gmb]`.
    fn mosfet(&mut self, t: &MosTerminals, params: &MosParams) -> [f64; 3];
    /// A MOSFET's gate–source and gate–drain admittances; `None` stamps
    /// neither.
    fn gate_caps(&self, _params: &MosParams) -> Option<(Self::S, Self::S)> {
        None
    }
    /// The conductance added on every node's diagonal; `None` adds none.
    fn gmin(&self) -> Option<Self::S>;
    /// Right-hand side of a current source pushing from `from` into `to`.
    fn current_source(&mut self, _from: NodeId, _to: NodeId, _waveform: &Waveform) {}
    /// Right-hand side of the voltage source whose branch unknown is `k`.
    fn voltage_source(&mut self, _k: usize, _waveform: &Waveform) {}
}

/// Stamps `y` between `a` and `b`: `+y` on both diagonals, `−y` off them.
#[inline]
fn pair<T: Stamper>(t: &mut T, a: NodeId, b: NodeId, y: T::S) {
    if let Some(i) = node_row(a) {
        t.add(i, i, y);
        if let Some(j) = node_row(b) {
            t.add(i, j, -y);
        }
    }
    if let Some(j) = node_row(b) {
        t.add(j, j, y);
        if let Some(i) = node_row(a) {
            t.add(j, i, -y);
        }
    }
}

/// Walks `circuit` once in element order and stamps every element through
/// `t`: the one layout of the MNA matrix. Each position receives its
/// additions in the same order for every reading, so the dense and sparse
/// targets of one reading agree bit for bit.
#[inline]
pub(crate) fn stamp_walk<T: Stamper>(circuit: &Circuit, t: &mut T) {
    let first_branch = circuit.node_count() - 1;
    for element in circuit.elements() {
        match element.kind() {
            ElementKind::Resistor { a, b, device } => {
                pair(t, *a, *b, T::real(device.conductance().0));
            }
            ElementKind::Capacitor { a, b, device } => {
                if let Some(y) = t.capacitor(*a, *b, device) {
                    pair(t, *a, *b, y);
                }
            }
            ElementKind::Switch { a, b, device } => {
                let r = if t.closed(device.phase) {
                    device.ron
                } else {
                    device.roff
                };
                pair(t, *a, *b, T::real(1.0 / r.0));
            }
            ElementKind::CurrentSource { from, to, waveform } => {
                t.current_source(*from, *to, waveform);
            }
            ElementKind::VoltageSource {
                pos,
                neg,
                waveform,
                branch,
            } => {
                let k = first_branch + branch;
                let one = T::real(1.0);
                if let Some(i) = node_row(*pos) {
                    t.add(i, k, one);
                    t.add(k, i, one);
                }
                if let Some(j) = node_row(*neg) {
                    t.add(j, k, -one);
                    t.add(k, j, -one);
                }
                t.voltage_source(k, waveform);
            }
            ElementKind::Mosfet { terminals, params } => {
                let [gm, gds, gmb] = t.mosfet(terminals, params);
                // The drain current is
                //   id = gm·vg + gds·vd − (gm+gds+gmb)·vs + gmb·vb + i0,
                // leaving the drain row and entering the source row.
                let gsum = gm + gds + gmb;
                let g = node_row(terminals.gate);
                let bk = node_row(terminals.bulk);
                let (d, s) = (node_row(terminals.drain), node_row(terminals.source));
                if let Some(d) = d {
                    t.add(d, d, T::real(gds));
                    if let Some(g) = g {
                        t.add(d, g, T::real(gm));
                    }
                    if let Some(s) = s {
                        t.add(d, s, T::real(-gsum));
                    }
                    if let Some(bk) = bk {
                        t.add(d, bk, T::real(gmb));
                    }
                }
                if let Some(s) = s {
                    t.add(s, s, T::real(gsum));
                    if let Some(g) = g {
                        t.add(s, g, T::real(-gm));
                    }
                    if let Some(d) = d {
                        t.add(s, d, T::real(-gds));
                    }
                    if let Some(bk) = bk {
                        t.add(s, bk, T::real(-gmb));
                    }
                }
                if let Some((cgs, cgd)) = t.gate_caps(params) {
                    pair(t, terminals.gate, terminals.source, cgs);
                    pair(t, terminals.gate, terminals.drain, cgd);
                }
            }
        }
    }
    // gmin from every non-ground node to ground keeps the matrix
    // non-singular when devices are cut off.
    if let Some(g) = t.gmin() {
        for i in 0..first_branch {
            t.add(i, i, g);
        }
    }
}

/// The real DC/transient reading: companion values at `ctx`, stamped into
/// a backend target, with the right-hand side in `b`.
struct RealStamper<'c, 'a, 't> {
    ctx: &'c StampContext<'a>,
    a: &'c mut Target<'t, f64>,
    b: &'c mut [f64],
}

impl RealStamper<'_, '_, '_> {
    fn inject(&mut self, node: NodeId, i: f64) {
        if let Some(r) = node_row(node) {
            self.b[r] += i;
        }
    }
}

impl Stamper for RealStamper<'_, '_, '_> {
    type S = f64;

    #[inline]
    fn add(&mut self, i: usize, j: usize, v: f64) {
        self.a.stamp(i, j, v);
    }

    #[inline]
    fn real(g: f64) -> f64 {
        g
    }

    fn closed(&self, phase: ClockPhase) -> bool {
        self.ctx.phase_is_high(phase)
    }

    #[inline]
    fn capacitor(&mut self, a: NodeId, b: NodeId, device: &Capacitor) -> Option<f64> {
        // DC: open circuit, nothing to stamp.
        let step = self.ctx.cap_step?;
        let v_prev = step.prev_voltages[a.index()] - step.prev_voltages[b.index()];
        let comp = device.companion(step.h, Volts(v_prev));
        // History current flows from b to a externally.
        self.inject(a, comp.ieq.0);
        self.inject(b, -comp.ieq.0);
        Some(comp.geq.0)
    }

    #[inline]
    fn mosfet(&mut self, t: &MosTerminals, params: &MosParams) -> [f64; 3] {
        let ([vgs, vds, vbs], eval) = self.ctx.mos_bias(t, params);
        let (gm, gds, gmb) = (eval.gm, eval.gds, eval.gmb);
        // Norton equivalent current at the linearization point.
        let i0 = eval.id.0 - gm * vgs - gds * vds - gmb * vbs;
        if let Some(d) = node_row(t.drain) {
            self.b[d] -= i0;
        }
        if let Some(s) = node_row(t.source) {
            self.b[s] += i0;
        }
        [gm, gds, gmb]
    }

    fn gmin(&self) -> Option<f64> {
        (self.ctx.gmin > 0.0).then_some(self.ctx.gmin)
    }

    fn current_source(&mut self, from: NodeId, to: NodeId, waveform: &Waveform) {
        let i = self.ctx.source_value(waveform);
        self.inject(to, i);
        self.inject(from, -i);
    }

    fn voltage_source(&mut self, k: usize, waveform: &Waveform) {
        self.b[k] = self.ctx.source_value(waveform);
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
pub(crate) fn assemble_into_target(
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
    a.reset(dim);
    b.clear();
    b.resize(dim, 0.0);
    stamp_walk(circuit, &mut RealStamper { ctx, a, b });
    Ok(())
}

/// Every optional stamp on and no values: the positions any reading of
/// the system can touch.
struct AllPositions(Vec<(usize, usize)>);

impl Stamper for AllPositions {
    type S = f64;

    fn add(&mut self, i: usize, j: usize, _: f64) {
        self.0.push((i, j));
    }

    fn real(_: f64) -> f64 {
        0.0
    }

    fn closed(&self, _: ClockPhase) -> bool {
        true
    }

    fn capacitor(&mut self, _: NodeId, _: NodeId, _: &Capacitor) -> Option<f64> {
        Some(0.0)
    }

    fn mosfet(&mut self, _: &MosTerminals, _: &MosParams) -> [f64; 3] {
        [0.0; 3]
    }

    fn gate_caps(&self, _: &MosParams) -> Option<(f64, f64)> {
        Some((0.0, 0.0))
    }

    fn gmin(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// The union sparsity pattern of every position *any* analysis stamps for
/// `circuit`: `stamp_walk` with capacitors, MOS gate capacitances and
/// gmin all on. One superset pattern therefore serves the real and
/// complex backends across all analyses of a topology — explicit
/// structural zeros (a capacitor position during DC, say) cost a few
/// harmless arithmetic operations but keep the cached symbolic
/// factorization valid everywhere.
#[must_use]
pub fn mna_pattern(circuit: &Circuit) -> SparsityPattern {
    let mut all = AllPositions(Vec::new());
    stamp_walk(circuit, &mut all);
    SparsityPattern::from_entries(circuit.mna_dimension(), &all.0)
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

    /// Asserts that a dense and a sparse assembly hold the same bits at
    /// every position (`to_bits`, so −0 and +0 differ).
    fn assert_same_bits<S: crate::sparse::Scalar>(
        dense: &Matrix<S>,
        sparse: &crate::sparse::CscMatrix<S>,
        bits: fn(S) -> [u64; 2],
        case: &str,
    ) {
        let dim = sparse.dim();
        assert_eq!((dense.rows(), dense.cols()), (dim, dim), "{case}");
        for i in 0..dim {
            for j in 0..dim {
                assert_eq!(
                    bits(dense[(i, j)]),
                    bits(sparse.get(i, j)),
                    "{case}: entry ({i},{j}) differs"
                );
            }
        }
    }

    #[test]
    fn sparse_assembly_matches_dense_on_a_full_device_mix() {
        // One of everything — resistor, capacitor, switch, current source,
        // voltage source, MOSFET — in the class-AB cell, and a clocked
        // 3-stage delay line, assembled both densely and into the
        // mna_pattern sparse superset must agree bit for bit: the real
        // system in DC, in a transient step and under the clock, and the
        // complex AC system with device caps on and off.
        use crate::ac::AcAnalysis;
        use crate::sparse::CscMatrix;
        use si_dsp::Complex;
        let cell = crate::cells::ClassAbCellDesign::default().build().unwrap();
        let chain = crate::cells::si_cell_chain(3).unwrap();
        let clock = TwoPhaseClock::new(Seconds(1e-6), 0.1).unwrap();
        let real_bits = |v: f64| [v.to_bits(), 0];
        let complex_bits = |v: Complex| [v.re.to_bits(), v.im.to_bits()];
        for (name, circuit, guess) in [
            (
                "class-AB cell",
                &cell.cell.circuit,
                &cell.cell.initial_guess,
            ),
            ("3-stage chain", &chain.circuit, &chain.initial_guess),
        ] {
            let prev: Vec<f64> = guess.iter().map(|v| 0.5 * v).collect();
            let cap_step = Some(CapStep {
                h: 1e-9,
                prev_voltages: &prev,
            });
            let mut contexts = vec![
                StampContext::dc(guess),
                StampContext {
                    phi2_high: true,
                    cap_step,
                    time: Some(Seconds(0.0)),
                    ..StampContext::dc(guess)
                },
            ];
            // One instant in each clock phase.
            for t in [0.25e-6, 0.75e-6] {
                contexts.push(StampContext {
                    clock: Some(&clock),
                    cap_step,
                    time: Some(Seconds(t)),
                    ..StampContext::dc(guess)
                });
            }
            let dim = circuit.mna_dimension();
            let pattern = mna_pattern(circuit);
            assert_eq!(pattern.dim(), dim);
            let mut sparse = CscMatrix::<f64>::from_pattern(pattern.clone());
            let mut dense = Matrix::zeros(0, 0);
            for (k, ctx) in contexts.iter().enumerate() {
                let mut rhs_d = Vec::new();
                let mut rhs_s = Vec::new();
                assemble_into_target(circuit, ctx, &mut Target::Dense(&mut dense), &mut rhs_d)
                    .unwrap();
                assemble_into_target(circuit, ctx, &mut Target::Sparse(&mut sparse), &mut rhs_s)
                    .unwrap();
                let case = format!("{name}, real context {k}");
                let rhs_bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(rhs_bits(&rhs_d), rhs_bits(&rhs_s), "{case}: rhs differs");
                assert_same_bits(&dense, &sparse, real_bits, &case);
            }
            let mut sparse = CscMatrix::<Complex>::from_pattern(pattern);
            let mut dense = Matrix::zeros(0, 0);
            for include_device_caps in [true, false] {
                let ac = AcAnalysis {
                    include_device_caps,
                    ..AcAnalysis::default()
                };
                for f in [0.0, 1e6, 1e9] {
                    let omega = 2.0 * std::f64::consts::PI * f;
                    ac.assemble_into(circuit, guess, omega, &mut Target::Dense(&mut dense))
                        .unwrap();
                    ac.assemble_into(circuit, guess, omega, &mut Target::Sparse(&mut sparse))
                        .unwrap();
                    let case = format!("{name}, AC caps {include_device_caps} at {f} Hz");
                    assert_same_bits(&dense, &sparse, complex_bits, &case);
                }
            }
        }
    }
}
