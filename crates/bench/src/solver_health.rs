//! Shared solver-health measurements for the experiment binaries.
//!
//! The modulator-level experiments (`exp_fig7`, `exp_monte_carlo`) measure
//! behavioral models, but the paper's cell-level story stands on the
//! transistor netlist of Fig. 1. The helpers here run that netlist through
//! the instrumented engine so each experiment's [`RunReport`] carries real
//! per-point Newton/factorization counts next to its figure numbers:
//!
//! * [`cell_report`] — the full `exp_cell` report (operating point, GGA
//!   boost, ±4 µA sweep, Eqs. 1–2 headroom) with merged telemetry; this is
//!   what the golden-report test snapshots.
//! * [`cell_bias_health`] — one class-AB bias solve per modulator input
//!   level (the cell biased at each level's peak current), giving
//!   `exp_fig7` a per-sweep-point solver-health record.
//! * [`supply_scaling_health`] — the cell re-biased at scaled supplies for
//!   `exp_low_voltage`, where low-headroom points are *expected* to fail
//!   and the interesting output is the captured failure forensics.

use crate::run_report::{PointRecord, RunReport};
use si_analog::cells::{ClassACellDesign, ClassAbCellDesign};
use si_analog::dc::{set_current_source, DcSolver};
use si_analog::engine::EngineWorkspace;
use si_analog::headroom::HeadroomBudget;
use si_analog::smallsignal::SmallSignal;
use si_analog::telemetry::EngineStats;
use si_analog::units::{Amps, Volts};
use si_analog::AnalogError;

/// Solver-health summary of one DC bias solve.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPoint {
    /// What was solved (`"level -20.0 dB"`, `"vdd 1.2 V"`).
    pub label: String,
    /// Whether the solve converged.
    pub converged: bool,
    /// Newton iterations spent on this point (all gmin rungs included).
    pub newton_iterations: u64,
    /// LU factorizations (first + re-) spent on this point.
    pub factorizations: u64,
    /// gmin ladder levels the DC solver visited for this point.
    pub gmin_steps: u64,
    /// The last node-voltage update norm (volts): tiny when converged,
    /// the diverging residual otherwise.
    pub final_residual: f64,
    /// Length of the captured residual trajectory of the *final* Newton
    /// attempt (failure forensics; 0 if the netlist never built).
    pub residual_history_len: usize,
}

impl HealthPoint {
    /// Renders the point as a [`RunReport`] record.
    #[must_use]
    pub fn to_record(&self) -> PointRecord {
        PointRecord::new(self.label.clone())
            .with("converged", if self.converged { 1.0 } else { 0.0 })
            .with("newton_iterations", self.newton_iterations as f64)
            .with("factorizations", self.factorizations as f64)
            .with("gmin_steps", self.gmin_steps as f64)
            .with("final_residual_v", self.final_residual)
            .with("residual_history_len", self.residual_history_len as f64)
    }
}

/// Distills a finished per-point collector plus the solve result into a
/// [`HealthPoint`].
fn health_point(
    label: String,
    converged: bool,
    stats: &EngineStats,
    ws: &EngineWorkspace,
) -> HealthPoint {
    HealthPoint {
        label,
        converged,
        newton_iterations: stats.newton_iterations,
        factorizations: stats.factorizations + stats.refactorizations,
        gmin_steps: stats.gmin_steps,
        final_residual: ws.residual_history().last().copied().unwrap_or(0.0),
        residual_history_len: ws.residual_history().len(),
    }
}

/// Solves the class-AB cell's DC bias at the peak input current of each
/// modulator level (dB relative to `full_scale`), warm-starting each point
/// from the previous solution, and returns per-point health plus the
/// merged telemetry of the whole scan.
///
/// # Errors
///
/// Propagates netlist and solver errors — at nominal 3.3 V every level is
/// expected to converge, so a failure here is a real regression.
pub fn cell_bias_health(
    levels_db: &[f64],
    full_scale: Amps,
) -> Result<(Vec<HealthPoint>, EngineStats), AnalogError> {
    let ab = ClassAbCellDesign::default().build()?;
    let solver = DcSolver::new().with_initial_guess(ab.cell.initial_guess.clone());
    let mut ws = EngineWorkspace::for_circuit(&ab.cell.circuit);
    let mut ckt = ab.cell.circuit.clone();
    let mut guess = ab.cell.initial_guess.clone();
    let mut total = EngineStats::new();
    let mut points = Vec::with_capacity(levels_db.len());

    for &db in levels_db {
        let peak = Amps(full_scale.0 * 10f64.powf(db / 20.0));
        set_current_source(&mut ckt, &ab.cell.input_source, peak)?;
        ws.enable_stats();
        let sol = solver.solve_from_with(&ckt, &guess, &mut ws)?;
        let stats = ws.take_stats().unwrap_or_default();
        guess = sol.node_voltages();
        points.push(health_point(
            format!("level {db:+.1} dB"),
            true,
            &stats,
            &ws,
        ));
        total.merge(&stats);
    }
    Ok((points, total))
}

/// Re-biases the class-AB cell at each `(vdd, bias_scale)` supply point
/// and records how the solver fared. Unlike [`cell_bias_health`] this
/// never propagates `NoConvergence`: a starved supply failing to bias is
/// the expected, *reported* outcome, with the captured residual history
/// summarized in the point.
#[must_use]
pub fn supply_scaling_health(supplies: &[(f64, f64)]) -> Vec<HealthPoint> {
    supplies
        .iter()
        .map(|&(vdd, bias_scale)| {
            let label = format!("vdd {vdd:.1} V");
            // Bias voltages track the supply; the 0.8 µm thresholds do
            // not, so low supplies genuinely run out of headroom.
            let design = ClassAbCellDesign {
                vdd: Volts(vdd),
                v_input: Volts(0.65 * bias_scale),
                output_bias: Volts(0.65 * bias_scale),
                ..ClassAbCellDesign::default()
            };
            let ab = match design.build() {
                Ok(ab) => ab,
                Err(_) => {
                    return HealthPoint {
                        label,
                        converged: false,
                        newton_iterations: 0,
                        factorizations: 0,
                        gmin_steps: 0,
                        final_residual: f64::NAN,
                        residual_history_len: 0,
                    }
                }
            };
            let solver = DcSolver::new()
                .with_initial_guess(ab.cell.initial_guess.clone())
                .with_max_iterations(40);
            let mut ws = EngineWorkspace::for_circuit(&ab.cell.circuit);
            ws.enable_stats();
            let result = solver.solve_with(&ab.cell.circuit, &mut ws);
            let stats = ws.take_stats().unwrap_or_default();
            let mut point = health_point(label, result.is_ok(), &stats, &ws);
            if let Err(AnalogError::NoConvergence {
                residual,
                residual_history,
                ..
            }) = &result
            {
                // Prefer the error's own forensics: they describe the
                // final failing attempt exactly.
                point.final_residual = *residual;
                point.residual_history_len = residual_history.len();
            }
            point
        })
        .collect()
}

/// Builds the full `exp_cell` run report: the Fig. 1 / Eqs. 1–2 numbers
/// the binary prints, as structured metrics and points, with the merged
/// solver telemetry attached. Deterministic (fixed netlist, fixed solver
/// settings, single thread), which is what makes the golden-report
/// snapshot possible.
///
/// # Errors
///
/// Propagates netlist, solver, and small-signal errors.
pub fn cell_report() -> Result<RunReport, AnalogError> {
    let mut report = RunReport::new("exp_cell");
    report.note("artifact", "Fig. 1 class-AB cell + Eqs. 1-2 headroom");
    report.note("supply", "3.3 V");
    report.note("process", "0.8 um level-1 MOS");

    let ab = ClassAbCellDesign::default().build()?;
    let solver = DcSolver::new().with_initial_guess(ab.cell.initial_guess.clone());
    let mut ws = EngineWorkspace::for_circuit(&ab.cell.circuit);
    ws.enable_stats();

    // Operating point + input conductance of the class-AB cell.
    let op = solver.solve_with(&ab.cell.circuit, &mut ws)?;
    report.metric("v_input_v", op.voltage(ab.cell.input).0);
    report.metric("v_gate_v", op.voltage(ab.cell.gate).0);
    report.metric("v_gga_out_v", op.voltage(ab.gga_out).0);
    let ss = SmallSignal::default();
    let g_ab = ss.port_conductance_with(&ab.cell.circuit, &op, ab.cell.input, &mut ws)?;

    // Class-A baseline through the same workspace (buffers re-size, the
    // collector keeps accumulating).
    let a = ClassACellDesign::default().build()?;
    let op_a = DcSolver::new()
        .with_initial_guess(a.initial_guess.clone())
        .solve_with(&a.circuit, &mut ws)?;
    let g_a = ss.port_conductance_with(&a.circuit, &op_a, a.input, &mut ws)?;
    report.metric("g_in_class_a_s", g_a.0);
    report.metric("g_in_class_ab_s", g_ab.0);
    report.metric("gga_boost", g_ab.0 / g_a.0);

    // ±4 µA transmission sweep, warm-started point to point — the same
    // algorithm as `si_analog::dc::sweep_current_source`, inlined so the
    // per-point iteration counts land in the report.
    let currents_ua = [-4.0f64, -2.0, 0.0, 2.0, 4.0];
    let mut ckt = ab.cell.circuit.clone();
    let mut guess = ab.cell.initial_guess.clone();
    let mut v_first = 0.0;
    let mut v_last = 0.0;
    for (k, &i_ua) in currents_ua.iter().enumerate() {
        set_current_source(&mut ckt, &ab.cell.input_source, Amps(i_ua * 1e-6))?;
        let before = ws.stats().map_or(0, |s| s.newton_iterations);
        let sol = solver.solve_from_with(&ckt, &guess, &mut ws)?;
        let after = ws.stats().map_or(0, |s| s.newton_iterations);
        guess = sol.node_voltages();
        let v = sol.voltage(ab.cell.input).0;
        if k == 0 {
            v_first = v;
        }
        v_last = v;
        report.point(
            PointRecord::new(format!("iin {i_ua:+.0} uA"))
                .with("v_input_v", v)
                .with("newton_iterations", (after - before) as f64),
        );
    }
    report.metric("sweep_span_v", v_last - v_first);

    // Eqs. (1)–(2) headroom (closed-form — no solves, no telemetry).
    let budget = HeadroomBudget::paper_08um();
    for mi in [0.5, 1.0, 2.0, 3.0] {
        report.metric(format!("vdd_min_mi_{mi}_v"), budget.vdd_min(mi)?.0);
    }
    report.metric("max_mi_3v3", budget.max_modulation_index(Volts(3.3))?);

    report.set_solver(ws.take_stats().unwrap_or_default());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_report_has_solver_counts_and_per_point_iterations() {
        let report = cell_report().unwrap();
        let solver = report.solver.as_ref().expect("telemetry attached");
        assert!(solver.solves >= 7, "op + baseline + 5 sweep points");
        assert!(solver.newton_iterations > 0);
        assert!(solver.factorizations > 0);
        assert!(solver.back_substitutions > 0, "small-signal solves counted");
        assert_eq!(solver.convergence_failures, 0);
        assert_eq!(report.points.len(), 5);
        for p in &report.points {
            assert!(p.value("newton_iterations").unwrap() >= 1.0);
        }
        assert!(report.metric_value("gga_boost").unwrap() > 10.0);
    }

    #[test]
    fn cell_report_is_deterministic_across_runs() {
        let a = cell_report().unwrap().normalized_json();
        let b = cell_report().unwrap().normalized_json();
        assert_eq!(a, b);
    }

    #[test]
    fn bias_health_converges_at_nominal_supply() {
        let (points, total) = cell_bias_health(&[-40.0, -20.0, -6.0], Amps(6e-6)).unwrap();
        assert_eq!(points.len(), 3);
        let mut sum = 0;
        for p in &points {
            assert!(p.converged, "{} failed", p.label);
            assert!(p.newton_iterations >= 1);
            assert!(p.factorizations >= p.newton_iterations);
            sum += p.newton_iterations;
        }
        assert_eq!(total.newton_iterations, sum, "total is the sum of points");
        assert_eq!(total.convergence_failures, 0);
    }

    #[test]
    fn supply_scaling_records_failures_without_erroring() {
        let points = supply_scaling_health(&[(3.3, 1.0), (0.5, 0.15)]);
        assert_eq!(points.len(), 2);
        assert!(points[0].converged, "nominal supply must bias");
        // The starved point either fails to converge or settles into a
        // degenerate region; either way it is reported, not thrown.
        assert!(points[1].newton_iterations > 0 || points[1].residual_history_len == 0);
    }
}
