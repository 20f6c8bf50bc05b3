//! Transistor-level noise analysis: per-device thermal sources propagated
//! through the linearized network.
//!
//! Every MOSFET contributes a white drain-current noise source of PSD
//! `4·k·T·γ·g_m` (γ = 2/3 in saturation) between drain and source; every
//! resistor contributes `4·k·T/R`. The AC system is assembled and factored
//! once per frequency; for each device it is solved with a unit injection
//! across that device, and the probe's response (its unknown resolved
//! once, before any frequency) accumulates as `Σ Sᵢ·|Hᵢ(f)|²`. Integrating
//! the output PSD over frequency yields the rms noise — the netlist-level
//! derivation of the number the paper (and `si_core::noise`) obtains from
//! the `kT/C` shortcut.

use crate::ac::{AcAnalysis, AcProbe};
use crate::engine::EngineWorkspace;
use crate::mna::{node_row, Solution};
use crate::netlist::{Circuit, ElementKind, NodeId};
use crate::AnalogError;
use crate::BOLTZMANN;
use si_dsp::Complex;

/// Noise-analysis configuration.
///
/// ```
/// use si_analog::ac::AcProbe;
/// use si_analog::acnoise::NoiseAnalysis;
/// use si_analog::dc::DcSolver;
/// use si_analog::parse::parse_netlist;
///
/// # fn main() -> Result<(), si_analog::AnalogError> {
/// // kT/C noise of an RC: ≈ 64 µV for 1 pF, independent of R.
/// let ckt = parse_netlist("I1 0 n 0\nR1 n 0 10k\nC1 n 0 1p\n")?;
/// let op = DcSolver::new().solve(&ckt)?;
/// let mut lookup = ckt.clone();
/// let n = lookup.node("n");
/// let noise = NoiseAnalysis::default()
///     .output_noise(&ckt, &op, &AcProbe::NodeVoltage(n), 1e2, 1e11, 300)?;
/// assert!((noise.total_rms - 64.3e-6).abs() < 5e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NoiseAnalysis {
    /// The underlying AC setup (switch phases, gmin, device caps).
    pub ac: AcAnalysis,
    /// Channel thermal-noise factor γ (2/3 for long-channel saturation).
    pub gamma: f64,
    /// Temperature in kelvin.
    pub temperature: f64,
}

impl Default for NoiseAnalysis {
    fn default() -> Self {
        NoiseAnalysis {
            ac: AcAnalysis::default(),
            gamma: 2.0 / 3.0,
            temperature: crate::ROOM_TEMPERATURE,
        }
    }
}

/// One identified noise source in the circuit.
#[derive(Debug, Clone)]
struct NoiseSource {
    /// Injection terminals (current flows from `from` to `to` externally).
    from: NodeId,
    to: NodeId,
    /// White PSD in A²/Hz.
    psd: f64,
    /// Element name, for per-contributor reporting.
    name: String,
}

/// The result of a noise integration.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    /// The analysis grid in hertz.
    pub freqs_hz: Vec<f64>,
    /// Total output PSD at each grid frequency. Units: A²/Hz for a branch
    /// probe, V²/Hz for a node probe.
    pub psd: Vec<f64>,
    /// The rms noise integrated over the grid (A or V).
    pub total_rms: f64,
    /// Per-element integrated contributions `(name, rms)`, largest first.
    pub contributors: Vec<(String, f64)>,
}

impl NoiseAnalysis {
    fn collect_sources(&self, circuit: &Circuit, op: &[f64]) -> Vec<NoiseSource> {
        let mut sources = Vec::new();
        let four_kt = 4.0 * BOLTZMANN * self.temperature;
        let ctx = self.ac.context(op);
        for element in circuit.elements() {
            match element.kind() {
                ElementKind::Resistor { a, b, device } => {
                    sources.push(NoiseSource {
                        from: *a,
                        to: *b,
                        psd: four_kt / device.r.0,
                        name: element.name().to_string(),
                    });
                }
                ElementKind::Mosfet { terminals, params } => {
                    let (_, eval) = ctx.mos_bias(terminals, params);
                    let gm = eval.gm.abs().max(eval.gds.abs());
                    if gm > 0.0 {
                        sources.push(NoiseSource {
                            from: terminals.drain,
                            to: terminals.source,
                            psd: four_kt * self.gamma * gm,
                            name: element.name().to_string(),
                        });
                    }
                }
                _ => {}
            }
        }
        sources
    }

    /// Integrates the output noise at `probe` over a log grid from `f_lo`
    /// to `f_hi` with `points` frequencies.
    ///
    /// # Errors
    ///
    /// Propagates grid and solve errors.
    pub fn output_noise(
        &self,
        circuit: &Circuit,
        op: &Solution,
        probe: &AcProbe,
        f_lo: f64,
        f_hi: f64,
        points: usize,
    ) -> Result<NoiseResult, AnalogError> {
        let mut ws = EngineWorkspace::new();
        self.output_noise_with(circuit, op, probe, f_lo, f_hi, points, &mut ws)
    }

    /// Workspace-reusing variant of [`NoiseAnalysis::output_noise`]. The
    /// complex system is assembled and factored once per frequency (not
    /// once per source, as the allocating path used to) and every source's
    /// injection reuses the held factors and right-hand-side buffer.
    ///
    /// # Errors
    ///
    /// Same as [`NoiseAnalysis::output_noise`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn output_noise_with(
        &self,
        circuit: &Circuit,
        op: &Solution,
        probe: &AcProbe,
        f_lo: f64,
        f_hi: f64,
        points: usize,
        ws: &mut EngineWorkspace,
    ) -> Result<NoiseResult, AnalogError> {
        let freqs = crate::ac::log_frequencies(f_lo, f_hi, points)?;
        let voltages = op.node_voltages();
        let probe = probe.unknown(circuit)?;
        let sources = self.collect_sources(circuit, &voltages);

        let mut psd = vec![0.0; freqs.len()];
        let mut per_source = vec![vec![0.0; freqs.len()]; sources.len()];

        for (fi, &f) in freqs.iter().enumerate() {
            let omega = 2.0 * std::f64::consts::PI * f;
            ws.complex_factorize(circuit, |target| {
                self.ac.assemble_into(circuit, &voltages, omega, target)
            })?;
            for (si, src) in sources.iter().enumerate() {
                let x = ws.complex_solve(|b| {
                    if let Some(to) = node_row(src.to) {
                        b[to] += Complex::ONE;
                    }
                    if let Some(from) = node_row(src.from) {
                        b[from] -= Complex::ONE;
                    }
                })?;
                let h = probe.map_or(Complex::ZERO, |k| x[k]);
                let contribution = src.psd * h.norm_sqr();
                psd[fi] += contribution;
                per_source[si][fi] = contribution;
            }
        }

        // Trapezoidal integration over the (linear-frequency) grid.
        let integrate = |s: &[f64]| -> f64 {
            let mut acc = 0.0;
            for k in 1..freqs.len() {
                acc += 0.5 * (s[k] + s[k - 1]) * (freqs[k] - freqs[k - 1]);
            }
            acc.sqrt()
        };
        let total_rms = integrate(&psd);
        let mut contributors: Vec<(String, f64)> = sources
            .iter()
            .zip(&per_source)
            .map(|(src, s)| (src.name.clone(), integrate(s)))
            .collect();
        contributors.sort_by(|a, b| b.1.total_cmp(&a.1));

        Ok(NoiseResult {
            freqs_hz: freqs,
            psd,
            total_rms,
            contributors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcSolver;
    use crate::units::{Amps, Farads, Ohms};

    #[test]
    fn resistor_kt_c_noise_is_recovered() {
        // An RC in parallel: integrated output voltage noise = sqrt(kT/C),
        // independent of R — the classic sanity check for a noise engine.
        let mut c = Circuit::new();
        let n = c.node("n");
        c.current_source("I0", Circuit::GROUND, n, Amps(0.0))
            .unwrap();
        c.resistor("R", n, Circuit::GROUND, Ohms(10e3)).unwrap();
        c.capacitor("C", n, Circuit::GROUND, Farads(1e-12)).unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        // Pole at 1/(2πRC) ≈ 15.9 MHz; integrate well past it.
        let result = NoiseAnalysis::default()
            .output_noise(&c, &op, &AcProbe::NodeVoltage(n), 1e2, 1e11, 600)
            .unwrap();
        let expected = (BOLTZMANN * 300.0 / 1e-12).sqrt(); // 64.3 µV
        assert!(
            (result.total_rms - expected).abs() / expected < 0.05,
            "measured {} V vs kT/C {} V",
            result.total_rms,
            expected
        );
        assert_eq!(result.contributors.len(), 1);
        assert_eq!(result.contributors[0].0, "R");
    }

    #[test]
    fn kt_c_noise_is_independent_of_resistance() {
        let build = |r: f64| {
            let mut c = Circuit::new();
            let n = c.node("n");
            c.current_source("I0", Circuit::GROUND, n, Amps(0.0))
                .unwrap();
            c.resistor("R", n, Circuit::GROUND, Ohms(r)).unwrap();
            c.capacitor("C", n, Circuit::GROUND, Farads(1e-12)).unwrap();
            let op = DcSolver::new().solve(&c).unwrap();
            NoiseAnalysis::default()
                .output_noise(&c, &op, &AcProbe::NodeVoltage(n), 1e2, 1e12, 800)
                .unwrap()
                .total_rms
        };
        let a = build(1e3);
        let b = build(100e3);
        assert!((a - b).abs() / a < 0.05, "kT/C violated: {a} vs {b}");
    }

    #[test]
    fn mos_device_noise_appears_at_diode_node() {
        // Diode-connected NMOS: output voltage noise PSD at low f is
        // 4kTγ·gm / gm² = 4kTγ/gm.
        let mut c = Circuit::new();
        let d = c.node("d");
        c.current_source("Ib", Circuit::GROUND, d, Amps(50e-6))
            .unwrap();
        let m = crate::device::MosParams::nmos_08um(20.0, 2.0).with_lambda(0.0);
        c.mosfet(
            "M1",
            crate::netlist::MosTerminals {
                drain: d,
                gate: d,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            m,
        )
        .unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        let na = NoiseAnalysis::default();
        let result = na
            .output_noise(&c, &op, &AcProbe::NodeVoltage(d), 1e3, 1e4, 4)
            .unwrap();
        let gm = m.gm_at(Amps(50e-6)).0;
        let expected_psd = 4.0 * BOLTZMANN * 300.0 * (2.0 / 3.0) / gm;
        let measured_psd = result.psd[0];
        assert!(
            (measured_psd - expected_psd).abs() / expected_psd < 0.1,
            "psd {measured_psd} vs expected {expected_psd}"
        );
    }

    #[test]
    fn class_ab_cell_noise_is_in_the_budget_class() {
        // Integrate the memory-gate voltage noise of the Fig. 1 netlist and
        // refer it to current through the memory gm: it must land in the
        // same class as the kT/C budget (tens of nA), the paper's 33 nA
        // figure being the two-cell system total.
        let design = crate::cells::ClassAbCellDesign {
            hold_cap: Farads(0.1e-12),
            ..crate::cells::ClassAbCellDesign::default()
        };
        let cell = design.build().unwrap();
        let op = DcSolver::new()
            .with_initial_guess(cell.cell.initial_guess.clone())
            .solve(&cell.cell.circuit)
            .unwrap();
        let na = NoiseAnalysis::default();
        let result = na
            .output_noise(
                &cell.cell.circuit,
                &op,
                &AcProbe::NodeVoltage(cell.cell.gate),
                1e3,
                1e11,
                400,
            )
            .unwrap();
        // Refer gate-voltage noise to drain current via the memory gm.
        let gm_mem = 2.0 * design.iq.0 / design.vov_memory.0;
        let i_n = result.total_rms * gm_mem;
        assert!(
            (5e-9..150e-9).contains(&i_n),
            "cell noise current {} A outside the tens-of-nA class",
            i_n
        );
    }

    #[test]
    fn unknown_probe_is_refused_without_noise_sources() {
        // No resistor and no MOSFET: no source ever reads the probe.
        let ckt = crate::parse::parse_netlist("V1 n 0 1\nC1 n 0 1p\n").unwrap();
        let op = DcSolver::new().solve(&ckt).unwrap();
        let result = NoiseAnalysis::default().output_noise(
            &ckt,
            &op,
            &AcProbe::BranchCurrent("NOPE".into()),
            1e3,
            1e6,
            10,
        );
        assert!(
            matches!(result, Err(AnalogError::UnknownElement { .. })),
            "{result:?}"
        );
    }
}
