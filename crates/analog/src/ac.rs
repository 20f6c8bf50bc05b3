//! AC (small-signal frequency-domain) analysis.
//!
//! The circuit is linearized at a DC operating point; each analysis
//! frequency assembles the complex MNA system with `jωC` stamps for
//! capacitors (and, optionally, for the MOS gate capacitances the level-1
//! DC model omits) and solves for the phasor response to a unit stimulus.
//! The complex system supplies only its values: the positions come from
//! the one stamp walk in [`crate::mna`] that the real DC/transient system
//! and the sparse pattern share, and switches follow the same
//! [`crate::mna::StampContext`] phase rule. The stimulus and probe are
//! resolved to MNA unknowns once, before any frequency.
//!
//! This is what puts numbers on the settling story: the grounded-gate
//! amplifier's loop bandwidth — and therefore the memory cell's settling
//! time constant, the `time_constants` parameter of the behavioral model —
//! falls out of [`AcAnalysis::response`] on the Fig. 1 netlist.

use crate::device::passive::Capacitor;
use crate::device::{ClockPhase, MosParams};
use crate::engine::EngineWorkspace;
use crate::mna::{node_row, stamp_walk, Solution, StampContext, Stamper};
use crate::netlist::{Circuit, MosTerminals, NodeId};
use crate::solver::Target;
use crate::AnalogError;
use si_dsp::Complex;

/// Where the unit AC stimulus is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AcStimulus {
    /// A 1 A AC current injected into a node (returned from ground).
    CurrentInto(NodeId),
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

impl AcStimulus {
    /// The unknown the unit stimulus drives.
    fn unknown(&self) -> Result<usize, AnalogError> {
        match self {
            AcStimulus::CurrentInto(node) => node_row(*node).ok_or(AnalogError::InvalidParameter {
                name: "stimulus",
                constraint: "cannot inject into ground",
            }),
        }
    }
}

impl AcProbe {
    /// The unknown this probe reads; `None` for ground, which reads zero.
    /// Resolved once per analysis, before any frequency, so an unknown
    /// element is refused even on an empty grid or a source-free circuit.
    pub(crate) fn unknown(&self, circuit: &Circuit) -> Result<Option<usize>, AnalogError> {
        match self {
            AcProbe::NodeVoltage(node) => Ok(node_row(*node)),
            AcProbe::BranchCurrent(name) => branch_unknown(circuit, name).map(Some),
        }
    }
}

/// The unknown of the named voltage source's branch current.
fn branch_unknown(circuit: &Circuit, name: &str) -> Result<usize, AnalogError> {
    Ok(circuit.node_count() - 1 + circuit.branch_of(name)?)
}

/// The complex AC reading: small-signal values linearized at `ctx`'s
/// operating point, stamped at angular frequency `omega`.
struct AcStamper<'c, 'a, 't> {
    ctx: StampContext<'a>,
    device_caps: bool,
    omega: f64,
    a: &'c mut Target<'t, Complex>,
}

impl Stamper for AcStamper<'_, '_, '_> {
    type S = Complex;

    #[inline]
    fn add(&mut self, i: usize, j: usize, v: Complex) {
        self.a.stamp(i, j, v);
    }

    #[inline]
    fn real(g: f64) -> Complex {
        Complex::from_real(g)
    }

    fn closed(&self, phase: ClockPhase) -> bool {
        self.ctx.phase_is_high(phase)
    }

    #[inline]
    fn capacitor(&mut self, _: NodeId, _: NodeId, device: &Capacitor) -> Option<Complex> {
        Some(Complex::new(0.0, self.omega * device.c.0))
    }

    #[inline]
    fn mosfet(&mut self, t: &MosTerminals, params: &MosParams) -> [f64; 3] {
        let (_, eval) = self.ctx.mos_bias(t, params);
        [eval.gm, eval.gds, eval.gmb]
    }

    #[inline]
    fn gate_caps(&self, params: &MosParams) -> Option<(Complex, Complex)> {
        let wc = self.omega * params.cgs();
        self.device_caps
            .then(|| (Complex::new(0.0, wc), Complex::new(0.0, wc / 5.0)))
    }

    fn gmin(&self) -> Option<Complex> {
        Some(Complex::from_real(self.ctx.gmin))
    }
}

impl AcAnalysis {
    /// The DC stamping context at operating point `op_voltages` with this
    /// analysis's switch phases and gmin.
    pub(crate) fn context<'a>(&self, op_voltages: &'a [f64]) -> StampContext<'a> {
        StampContext {
            phi1_high: self.phi1_high,
            phi2_high: self.phi2_high,
            gmin: self.gmin,
            ..StampContext::dc(op_voltages)
        }
    }

    /// Assembles the complex MNA matrix at angular frequency `omega`,
    /// linearized at `op_voltages`, into a caller-held backend target
    /// (reset and zeroed in place — no allocation when the capacity
    /// suffices). Fills the matrix only — the RHS depends on the stimulus.
    pub(crate) fn assemble_into(
        &self,
        circuit: &Circuit,
        op_voltages: &[f64],
        omega: f64,
        a: &mut Target<'_, Complex>,
    ) -> Result<(), AnalogError> {
        let dim = circuit.mna_dimension();
        if dim == 0 {
            return Err(AnalogError::EmptyCircuit);
        }
        a.reset(dim);
        let mut stamper = AcStamper {
            ctx: self.context(op_voltages),
            device_caps: self.include_device_caps,
            omega,
            a,
        };
        stamp_walk(circuit, &mut stamper);
        Ok(())
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
    ) -> Result<Vec<Complex>, AnalogError> {
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
    ) -> Result<Vec<Complex>, AnalogError> {
        let voltages = op.node_voltages();
        let stimulus = stimulus.unknown()?;
        let probe = probe.unknown(circuit)?;
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
            let x = ws.complex_solve(|b| b[stimulus] = Complex::ONE)?;
            out.push(probe.map_or(Complex::ZERO, |k| x[k]));
        }
        Ok(out)
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
pub fn bandwidth_3db(freqs_hz: &[f64], response: &[Complex]) -> Option<f64> {
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
    use crate::units::{Amps, Farads, Ohms, Volts};

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
    fn branch_probe_reads_ammeter_current() {
        // 1 A into a → R → 0 V ammeter to ground: the ammeter carries
        // all of it at every frequency, less the gmin shunt at a (2e-9).
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor("R", a, b, Ohms(2e3)).unwrap();
        c.voltage_source("Vs", b, Circuit::GROUND, Volts(0.0))
            .unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        let resp = AcAnalysis::default()
            .response(
                &c,
                &op,
                &AcStimulus::CurrentInto(a),
                &AcProbe::BranchCurrent("Vs".into()),
                &[1e3, 1e6],
            )
            .unwrap();
        for r in resp {
            assert!((r.abs() - 1.0).abs() < 1e-8, "|I| {}", r.abs());
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
        // An unknown probe is refused before any frequency is solved.
        let nope = ac.response(
            &c,
            &op,
            &AcStimulus::CurrentInto(n),
            &AcProbe::BranchCurrent("NOPE".into()),
            &[],
        );
        assert!(
            matches!(nope, Err(AnalogError::UnknownElement { .. })),
            "{nope:?}"
        );
        assert!(log_frequencies(0.0, 1.0, 10).is_err());
        assert!(log_frequencies(10.0, 1.0, 10).is_err());
        assert!(log_frequencies(1.0, 10.0, 1).is_err());
    }
}
