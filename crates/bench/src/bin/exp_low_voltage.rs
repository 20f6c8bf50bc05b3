//! Low-voltage design-space exploration — the direction the paper's own
//! follow-up work took (ref. \[15\]: "a 1.2-V 0.8-mW switched-current
//! oversampling A/D converter").
//!
//! Sweeps the supply voltage, asks the Eqs. (1)–(2) headroom model what
//! modulation index survives (with the threshold voltages scaled as a
//! low-VT process option would), sizes the quiescent current for a fixed
//! peak signal, and reports the resulting power — reproducing the trend
//! that lower supplies with lower-VT devices cut power at equal function.
//!
//! Run: `cargo run --release -p si-bench --bin exp_low_voltage`

use si_analog::headroom::HeadroomBudget;
use si_analog::units::{Amps, Volts};
use si_bench::report::Report;
use si_bench::run_report::{experiments_dir, PointRecord, RunReport};
use si_bench::solver_health::supply_scaling_health;
use si_core::power::SystemPower;

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_low_voltage failed: {e}");
        std::process::exit(1);
    }
}

/// A headroom budget with thresholds scaled by `k` (process option) and
/// overdrives scaled mildly with them.
fn scaled_budget(k: f64) -> HeadroomBudget {
    let base = HeadroomBudget::paper_08um();
    HeadroomBudget {
        vt_mp: base.vt_mp * k,
        vt_mn: base.vt_mn * k,
        vov_memory: base.vov_memory * k.max(0.6),
        vov_tp: base.vov_tp * k.max(0.6),
        vov_tg: base.vov_tg * k.max(0.6),
        vov_tc: base.vov_tc * k.max(0.6),
        vov_tn: base.vov_tn * k.max(0.6),
    }
}

/// The outcome of one supply-voltage design point.
enum DesignPoint {
    Infeasible,
    Feasible { max_mi: f64, iq: Amps, power_w: f64 },
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let i_peak = Amps(6e-6); // the modulator full scale

    let supplies = [
        (3.3, 1.0),
        (2.4, 0.8),
        (1.8, 0.55),
        (1.2, 0.4), // low-VT option, the ref. [15] regime
    ];
    // Each design point is independent, so evaluate them through the
    // deterministic fan-out the experiment sweeps use; the results come
    // back in supply order.
    let points = si_core::sweep::parallel_map(
        &supplies,
        || (),
        |(), &(vdd, vt_scale), _| {
            let budget = scaled_budget(vt_scale);
            let mi = budget
                .max_modulation_index(Volts(vdd))
                .map_err(|e| e.to_string())?;
            if mi <= 0.0 {
                return Ok(DesignPoint::Infeasible);
            }
            // Size the quiescent current for the required peak.
            let iq = Amps(i_peak.0 / mi.min(3.0)); // keep mi ≤ 3 for linearity
            let gga = Amps(iq.0 * 2.0);
            let cells = SystemPower::new(Volts(vdd))
                .map_err(|e| e.to_string())?
                .with_class_ab_cells(4, iq, gga)
                .with_cmff_stages(2, gga)
                .with_quantizer(Amps(40e-6 * vdd / 3.3))
                .with_dacs(2, Amps(i_peak.0 / 2.0 * 10.0));
            Ok::<_, String>(DesignPoint::Feasible {
                max_mi: mi,
                iq,
                power_w: cells.total_power().0,
            })
        },
    )?;

    let mut t = Report::new("Low-voltage design space (fixed 6 µA peak signal)");
    let mut found_1v2 = false;
    for (&(vdd, vt_scale), point) in supplies.iter().zip(&points) {
        match point {
            DesignPoint::Infeasible => {
                t.row(
                    &format!("Vdd = {vdd} V, VT×{vt_scale}"),
                    "infeasible below the threshold stack",
                    "no operating point",
                );
            }
            DesignPoint::Feasible {
                max_mi,
                iq,
                power_w,
            } => {
                t.row(
                    &format!("Vdd = {vdd} V, VT×{vt_scale}"),
                    "power falls with supply ([15]: 1.2 V → 0.8 mW)",
                    &format!(
                        "max mi {max_mi:.1}, IQ {:.1} µA → {:.2} mW",
                        iq.0 * 1e6,
                        power_w * 1e3
                    ),
                );
                if (vdd - 1.2).abs() < 1e-9 {
                    found_1v2 = true;
                    if !(0.2e-3..2.0e-3).contains(power_w) {
                        return Err(format!(
                            "1.2 V design point power {:.2} mW outside the ref. [15] 0.8 mW class",
                            power_w * 1e3
                        )
                        .into());
                    }
                }
            }
        }
    }
    t.print();
    println!();

    // The class-A comparison at each supply: bias must cover the peak.
    let mut cmp = Report::new("Class A vs class AB power at 6 µA peak (cells only)");
    for mi in [1.0, 2.0, 3.0] {
        let ratio = si_core::power::class_a_over_ab_power_ratio(i_peak, mi, Amps(2e-6))?;
        cmp.row(
            &format!("modulation index {mi}"),
            "class AB wins for mi > 1",
            &format!("P_A / P_AB = {ratio:.2}"),
        );
    }
    cmp.print();
    println!();

    // Transistor-level cross-check: re-bias the Fig. 1 class-AB cell at
    // each supply (bias voltages scaled, the 0.8 µm thresholds not) and
    // record how the DC solver fared. Starved supplies are *expected* to
    // fail here — the value is the captured failure forensics, which the
    // run report preserves next to the analytic design-space numbers.
    let health = supply_scaling_health(&supplies);
    let mut forensics = Report::new("Cell bias solver health per supply (0.8 µm thresholds)");
    for h in &health {
        forensics.row(
            &h.label,
            "low supplies starve headroom",
            &if h.converged {
                format!("converged in {} newton iters", h.newton_iterations)
            } else {
                format!(
                    "no bias: {} iters, residual {:.2e} V, {} recorded",
                    h.newton_iterations, h.final_residual, h.residual_history_len
                )
            },
        );
    }
    forensics.print();

    let mut report = RunReport::new("exp_low_voltage");
    report.note("artifact", "ref. [15] direction: supply sweep at 6 uA peak");
    for (&(vdd, vt_scale), (point, h)) in supplies.iter().zip(points.iter().zip(&health)) {
        let mut rec = PointRecord::new(format!("vdd {vdd} V, vt x{vt_scale}"))
            .with("vdd_v", vdd)
            .with("vt_scale", vt_scale);
        if let DesignPoint::Feasible {
            max_mi,
            iq,
            power_w,
        } = point
        {
            rec = rec
                .with("max_mi", *max_mi)
                .with("iq_a", iq.0)
                .with("power_w", *power_w);
        }
        for (name, value) in h.to_record().values {
            rec = rec.with(format!("cell_{name}"), value);
        }
        report.point(rec);
    }
    let path = report.write(experiments_dir())?;
    println!("\nrun report: {}", path.display());

    if !found_1v2 {
        return Err("1.2 V design point was not feasible — headroom model regressed".into());
    }
    Ok(())
}
