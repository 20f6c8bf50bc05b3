//! AC (small-signal frequency-domain) analysis.
//!
//! The circuit is linearized at a DC operating point; each analysis
//! frequency assembles the complex MNA system with `jωC` stamps for
//! capacitors (and, optionally, for the MOS gate capacitances the level-1
//! DC model omits) and solves for the phasor response to a unit stimulus.
//!
//! This is what puts numbers on the settling story: the grounded-gate
//! amplifier's loop bandwidth — and therefore the memory cell's settling
//! time constant, the `time_constants` parameter of the behavioral model —
//! falls out of [`AcAnalysis::response`] on the Fig. 1 netlist.

use crate::complexmat::C64;
use crate::engine::{Analysis, EngineWorkspace};
use crate::mna::Solution;
use crate::netlist::{Circuit, ElementKind, NodeId};
use crate::solver::Target;
use crate::units::Volts;
use crate::AnalogError;

/// Where the unit AC stimulus is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AcStimulus {
    /// A 1 A AC current injected into a node (returned from ground).
    CurrentInto(NodeId),
    /// A 1 V AC excitation on the named voltage source.
    VoltageOf(String),
}

/// What is read out.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AcProbe {
    /// The phasor voltage of a node.
    NodeVoltage(NodeId),
    /// The phasor current of the named voltage source's branch.
    BranchCurrent(String),
}

/// AC analysis configuration.
///
/// ```
/// use si_analog::ac::{AcAnalysis, AcProbe, AcStimulus};
/// use si_analog::dc::DcSolver;
/// use si_analog::parse::parse_netlist;
///
/// # fn main() -> Result<(), si_analog::AnalogError> {
/// // RC low-pass driven by a current: transimpedance = R at DC.
/// let ckt = parse_netlist("I1 0 n 0\nR1 n 0 1k\nC1 n 0 1n\n")?;
/// let op = DcSolver::new().solve(&ckt)?;
/// let mut lookup = ckt.clone();
/// let n = lookup.node("n");
/// let resp = AcAnalysis::default().response(
///     &ckt, &op, &AcStimulus::CurrentInto(n), &AcProbe::NodeVoltage(n), &[1.0],
/// )?;
/// assert!((resp[0].abs() - 1e3).abs() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AcAnalysis {
    /// φ1 switch state during the analysis.
    pub phi1_high: bool,
    /// φ2 switch state during the analysis.
    pub phi2_high: bool,
    /// gmin added on every node.
    pub gmin: f64,
    /// Whether to add the level-1 model's estimated gate capacitances
    /// (`C_gs`, plus `C_gd = C_gs/5` overlap) to the AC matrix.
    pub include_device_caps: bool,
}

impl Default for AcAnalysis {
    fn default() -> Self {
        AcAnalysis {
            phi1_high: true,
            phi2_high: false,
            gmin: 1e-12,
            include_device_caps: true,
        }
    }
}

impl AcAnalysis {
    /// Assembles the complex MNA matrix at angular frequency `omega`,
    /// linearized at `op`, into a caller-held backend target (reset and
    /// zeroed in place — no allocation when the capacity suffices). Fills
    /// the matrix only — the RHS depends on the stimulus.
    pub(crate) fn assemble_into(
        &self,
        circuit: &Circuit,
        op_voltages: &[f64],
        omega: f64,
        a: &mut Target<'_, C64>,
    ) -> Result<(), AnalogError> {
        let dim = circuit.mna_dimension();
        if dim == 0 {
            return Err(AnalogError::EmptyCircuit);
        }
        let n_nodes = circuit.node_count();
        a.reset(dim);
        let a = &mut *a;
        let row = |n: NodeId| -> Option<usize> {
            if n.is_ground() {
                None
            } else {
                Some(n.index() - 1)
            }
        };
        let stamp_adm = |a: &mut Target<'_, C64>, na: NodeId, nb: NodeId, y: C64| {
            if let Some(i) = row(na) {
                a.stamp(i, i, y);
                if let Some(j) = row(nb) {
                    a.stamp(i, j, -y);
                }
            }
            if let Some(j) = row(nb) {
                a.stamp(j, j, y);
                if let Some(i) = row(na) {
                    a.stamp(j, i, -y);
                }
            }
        };

        for element in circuit.elements() {
            match element.kind() {
                ElementKind::Resistor {
                    a: na,
                    b: nb,
                    device,
                } => {
                    stamp_adm(a, *na, *nb, C64::real(device.conductance().0));
                }
                ElementKind::Capacitor {
                    a: na,
                    b: nb,
                    device,
                } => {
                    stamp_adm(a, *na, *nb, C64::imag(omega * device.c.0));
                }
                ElementKind::Switch {
                    a: na,
                    b: nb,
                    device,
                } => {
                    let on = match device.phase {
                        crate::device::ClockPhase::Phi1 => self.phi1_high,
                        crate::device::ClockPhase::Phi2 => self.phi2_high,
                        crate::device::ClockPhase::AlwaysOn => true,
                        crate::device::ClockPhase::AlwaysOff => false,
                    };
                    let r = if on { device.ron } else { device.roff };
                    stamp_adm(a, *na, *nb, C64::real(1.0 / r.0));
                }
                ElementKind::CurrentSource { .. } => {
                    // Independent sources are zeroed in AC (stimulus comes
                    // through the RHS).
                }
                ElementKind::VoltageSource {
                    pos, neg, branch, ..
                } => {
                    let k = n_nodes - 1 + *branch;
                    if let Some(i) = row(*pos) {
                        a.stamp(i, k, C64::ONE);
                        a.stamp(k, i, C64::ONE);
                    }
                    if let Some(j) = row(*neg) {
                        a.stamp(j, k, -C64::ONE);
                        a.stamp(k, j, -C64::ONE);
                    }
                }
                ElementKind::Mosfet { terminals, params } => {
                    let vd = op_voltages[terminals.drain.index()];
                    let vg = op_voltages[terminals.gate.index()];
                    let vs = op_voltages[terminals.source.index()];
                    let vb = op_voltages[terminals.bulk.index()];
                    let eval = params.evaluate(Volts(vg - vs), Volts(vd - vs), Volts(vb - vs));
                    let (gm, gds, gmb) = (eval.gm, eval.gds, eval.gmb);
                    let gsum = gm + gds + gmb;
                    if let Some(d) = row(terminals.drain) {
                        a.stamp(d, d, C64::real(gds));
                        if let Some(g) = row(terminals.gate) {
                            a.stamp(d, g, C64::real(gm));
                        }
                        if let Some(s) = row(terminals.source) {
                            a.stamp(d, s, C64::real(-gsum));
                        }
                        if let Some(bk) = row(terminals.bulk) {
                            a.stamp(d, bk, C64::real(gmb));
                        }
                    }
                    if let Some(s) = row(terminals.source) {
                        a.stamp(s, s, C64::real(gsum));
                        if let Some(g) = row(terminals.gate) {
                            a.stamp(s, g, C64::real(-gm));
                        }
                        if let Some(d) = row(terminals.drain) {
                            a.stamp(s, d, C64::real(-gds));
                        }
                        if let Some(bk) = row(terminals.bulk) {
                            a.stamp(s, bk, C64::real(-gmb));
                        }
                    }
                    if self.include_device_caps {
                        let cgs = params.cgs();
                        stamp_adm(a, terminals.gate, terminals.source, C64::imag(omega * cgs));
                        stamp_adm(
                            a,
                            terminals.gate,
                            terminals.drain,
                            C64::imag(omega * cgs / 5.0),
                        );
                    }
                }
            }
        }
        for i in 0..(n_nodes - 1) {
            a.stamp(i, i, C64::real(self.gmin));
        }
        Ok(())
    }

    fn rhs(&self, circuit: &Circuit, stimulus: &AcStimulus) -> Result<Vec<C64>, AnalogError> {
        let dim = circuit.mna_dimension();
        let mut b = vec![C64::ZERO; dim];
        match stimulus {
            AcStimulus::CurrentInto(node) => {
                if node.is_ground() {
                    return Err(AnalogError::InvalidParameter {
                        name: "stimulus",
                        constraint: "cannot inject into ground",
                    });
                }
                b[node.index() - 1] = C64::ONE;
            }
            AcStimulus::VoltageOf(name) => {
                let branch = circuit.branch_of(name)?;
                b[circuit.node_count() - 1 + branch] = C64::ONE;
            }
        }
        Ok(b)
    }

    fn read(&self, circuit: &Circuit, probe: &AcProbe, x: &[C64]) -> Result<C64, AnalogError> {
        Ok(match probe {
            AcProbe::NodeVoltage(node) => {
                if node.is_ground() {
                    C64::ZERO
                } else {
                    x[node.index() - 1]
                }
            }
            AcProbe::BranchCurrent(name) => {
                let branch = circuit.branch_of(name)?;
                x[circuit.node_count() - 1 + branch]
            }
        })
    }

    /// The phasor response at `probe` to a unit `stimulus`, evaluated at
    /// each frequency of `freqs_hz`.
    ///
    /// # Errors
    ///
    /// Propagates assembly and solve errors.
    pub fn response(
        &self,
        circuit: &Circuit,
        op: &Solution,
        stimulus: &AcStimulus,
        probe: &AcProbe,
        freqs_hz: &[f64],
    ) -> Result<Vec<C64>, AnalogError> {
        let mut ws = EngineWorkspace::new();
        self.response_with(circuit, op, stimulus, probe, freqs_hz, &mut ws)
    }

    /// Workspace-reusing variant of [`AcAnalysis::response`]: the complex
    /// matrix, permutation, and solution buffers live in `ws` and are
    /// reassembled in place at every frequency.
    ///
    /// # Errors
    ///
    /// Same as [`AcAnalysis::response`].
    pub fn response_with(
        &self,
        circuit: &Circuit,
        op: &Solution,
        stimulus: &AcStimulus,
        probe: &AcProbe,
        freqs_hz: &[f64],
        ws: &mut EngineWorkspace,
    ) -> Result<Vec<C64>, AnalogError> {
        let voltages = op.node_voltages();
        let b = self.rhs(circuit, stimulus)?;
        let mut out = Vec::with_capacity(freqs_hz.len());
        for &f in freqs_hz {
            if !(f >= 0.0) || !f.is_finite() {
                return Err(AnalogError::InvalidParameter {
                    name: "freqs_hz",
                    constraint: "frequencies must be non-negative and finite",
                });
            }
            let omega = 2.0 * std::f64::consts::PI * f;
            ws.complex_factorize(circuit, |target| {
                self.assemble_into(circuit, &voltages, omega, target)
            })?;
            let x = ws.complex_solve(&b)?;
            let value = self.read(circuit, probe, x)?;
            out.push(value);
        }
        Ok(out)
    }
}

/// [`Analysis`] job: a full AC frequency response (stimulus, probe, and
/// frequency grid bundled with the analysis options and operating point).
#[derive(Debug, Clone)]
pub struct AcSweep<'a> {
    /// Analysis options (phases, gmin, device caps).
    pub analysis: AcAnalysis,
    /// The operating point to linearize at.
    pub op: &'a Solution,
    /// Where the unit stimulus is applied.
    pub stimulus: AcStimulus,
    /// What is read out.
    pub probe: AcProbe,
    /// The frequency grid in hertz.
    pub freqs_hz: Vec<f64>,
}

impl Analysis for AcSweep<'_> {
    type Output = Vec<C64>;

    fn run_with(
        &self,
        circuit: &Circuit,
        ws: &mut EngineWorkspace,
    ) -> Result<Vec<C64>, AnalogError> {
        self.analysis.response_with(
            circuit,
            self.op,
            &self.stimulus,
            &self.probe,
            &self.freqs_hz,
            ws,
        )
    }
}

/// A log-spaced frequency grid from `f_lo` to `f_hi` with `points` entries.
///
/// # Errors
///
/// Returns [`AnalogError::InvalidParameter`] for a non-positive or inverted
/// range or fewer than 2 points.
pub fn log_frequencies(f_lo: f64, f_hi: f64, points: usize) -> Result<Vec<f64>, AnalogError> {
    if !(f_lo > 0.0) || !(f_hi > f_lo) || points < 2 {
        return Err(AnalogError::InvalidParameter {
            name: "frequency grid",
            constraint: "need 0 < f_lo < f_hi and at least 2 points",
        });
    }
    let ratio = (f_hi / f_lo).ln();
    Ok((0..points)
        .map(|k| f_lo * (ratio * k as f64 / (points - 1) as f64).exp())
        .collect())
}

/// The −3 dB frequency of a low-pass-shaped response: the first frequency
/// where the magnitude drops below `|H(f₀)|/√2`, interpolated
/// logarithmically. Returns `None` if the response never drops.
#[must_use]
pub fn bandwidth_3db(freqs_hz: &[f64], response: &[C64]) -> Option<f64> {
    let h0 = response.first()?.abs();
    let target = h0 / std::f64::consts::SQRT_2;
    for k in 1..response.len().min(freqs_hz.len()) {
        let (m0, m1) = (response[k - 1].abs(), response[k].abs());
        if m0 >= target && m1 < target {
            // Log-linear interpolation.
            let t = (m0 - target) / (m0 - m1);
            let lf = freqs_hz[k - 1].ln() + t * (freqs_hz[k].ln() - freqs_hz[k - 1].ln());
            return Some(lf.exp());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcSolver;
    use crate::units::{Amps, Farads, Ohms};

    fn rc_circuit() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.current_source("Iin", Circuit::GROUND, n, Amps(0.0))
            .unwrap();
        c.resistor("R", n, Circuit::GROUND, Ohms(1e3)).unwrap();
        c.capacitor("C", n, Circuit::GROUND, Farads(1e-9)).unwrap();
        (c, n)
    }

    #[test]
    fn rc_low_pass_has_textbook_pole() {
        let (c, n) = rc_circuit();
        let op = DcSolver::new().solve(&c).unwrap();
        // Transimpedance pole at 1/(2πRC) ≈ 159 kHz.
        let freqs = log_frequencies(1e3, 1e8, 120).unwrap();
        let resp = AcAnalysis::default()
            .response(
                &c,
                &op,
                &AcStimulus::CurrentInto(n),
                &AcProbe::NodeVoltage(n),
                &freqs,
            )
            .unwrap();
        // DC value = R.
        assert!((resp[0].abs() - 1e3).abs() < 1.0);
        let f3 = bandwidth_3db(&freqs, &resp).unwrap();
        let expected = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        assert!(
            (f3 - expected).abs() / expected < 0.05,
            "f3 {f3} vs expected {expected}"
        );
    }

    #[test]
    fn phase_at_pole_is_minus_45_degrees() {
        let (c, n) = rc_circuit();
        let op = DcSolver::new().solve(&c).unwrap();
        let fp = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let resp = AcAnalysis::default()
            .response(
                &c,
                &op,
                &AcStimulus::CurrentInto(n),
                &AcProbe::NodeVoltage(n),
                &[fp],
            )
            .unwrap();
        let deg = resp[0].arg().to_degrees();
        assert!((deg + 45.0).abs() < 1.0, "phase {deg}°");
    }

    #[test]
    fn voltage_stimulus_and_branch_probe() {
        // Series V source → R → ground; branch current = V/R at all f.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source("Vs", a, Circuit::GROUND, Volts(0.0))
            .unwrap();
        c.resistor("R", a, Circuit::GROUND, Ohms(2e3)).unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        let resp = AcAnalysis::default()
            .response(
                &c,
                &op,
                &AcStimulus::VoltageOf("Vs".into()),
                &AcProbe::BranchCurrent("Vs".into()),
                &[1e3, 1e6],
            )
            .unwrap();
        for r in resp {
            assert!((r.abs() - 0.5e-3).abs() < 1e-9, "|I| {}", r.abs());
        }
    }

    #[test]
    fn gga_loop_has_megahertz_bandwidth() {
        // The class-AB cell input impedance must stay low out to MHz —
        // the basis of the behavioral settling budget at a 5 MHz clock.
        let cell = crate::cells::ClassAbCellDesign::default().build().unwrap();
        let op = DcSolver::new()
            .with_initial_guess(cell.cell.initial_guess.clone())
            .solve(&cell.cell.circuit)
            .unwrap();
        let freqs = log_frequencies(1e3, 1e9, 60).unwrap();
        let resp = AcAnalysis::default()
            .response(
                &cell.cell.circuit,
                &op,
                &AcStimulus::CurrentInto(cell.cell.input),
                &AcProbe::NodeVoltage(cell.cell.input),
                &freqs,
            )
            .unwrap();
        // Low input impedance at low frequency (virtual ground)…
        assert!(resp[0].abs() < 100.0, "z_in(1 kHz) = {} Ω", resp[0].abs());
        // …and the loop holds past 1 MHz (impedance still below ~10× DC).
        let f_1mhz = freqs.iter().position(|&f| f >= 1e6).unwrap();
        assert!(
            resp[f_1mhz].abs() < 10.0 * resp[0].abs().max(40.0),
            "z_in(1 MHz) = {} Ω",
            resp[f_1mhz].abs()
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (c, n) = rc_circuit();
        let op = DcSolver::new().solve(&c).unwrap();
        let ac = AcAnalysis::default();
        assert!(ac
            .response(
                &c,
                &op,
                &AcStimulus::CurrentInto(Circuit::GROUND),
                &AcProbe::NodeVoltage(n),
                &[1.0],
            )
            .is_err());
        assert!(ac
            .response(
                &c,
                &op,
                &AcStimulus::CurrentInto(n),
                &AcProbe::NodeVoltage(n),
                &[f64::NAN],
            )
            .is_err());
        assert!(log_frequencies(0.0, 1.0, 10).is_err());
        assert!(log_frequencies(10.0, 1.0, 10).is_err());
        assert!(log_frequencies(1.0, 10.0, 1).is_err());
    }
}
