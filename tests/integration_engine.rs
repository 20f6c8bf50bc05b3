//! The analysis-engine refactor contract: routing every analysis through
//! a reusable [`EngineWorkspace`] must change *nothing* numerically.
//!
//! Each test runs the same analysis twice — once per the convenience API
//! (fresh workspace inside) and once against a single workspace reused
//! across many solves — and asserts bit-identical results (`==` on f64,
//! not a tolerance). The parallel-sweep tests assert the same between the
//! serial and parallel fan-out paths.

use si_analog::cells::ClassAbCellDesign;
use si_analog::dc::{sweep_current_source, DcSolver};
use si_analog::device::Waveform;
use si_analog::engine::EngineWorkspace;
use si_analog::netlist::Circuit;
use si_analog::tran::{self, TranParams};
use si_analog::units::{Amps, Farads, Ohms, Seconds};

/// Fig. 1 class-AB half-cell: the DC operating point from a workspace
/// that has already been dirtied by unrelated solves must match a fresh
/// solve bit for bit.
#[test]
fn fig1_cell_dc_op_is_bit_identical_across_workspace_reuse() {
    let ab = ClassAbCellDesign::default().build().unwrap();
    let solver = DcSolver::new().with_initial_guess(ab.cell.initial_guess.clone());

    let fresh = solver.solve(&ab.cell.circuit).unwrap();

    // Dirty the workspace on a different, smaller circuit first.
    let mut ws = EngineWorkspace::new();
    let mut rc = Circuit::new();
    let a = rc.node("a");
    rc.current_source("I1", Circuit::GROUND, a, Amps(1e-6))
        .unwrap();
    rc.resistor("R1", a, Circuit::GROUND, Ohms(1e3)).unwrap();
    DcSolver::new().solve_with(&rc, &mut ws).unwrap();

    for _ in 0..3 {
        let reused = solver.solve_with(&ab.cell.circuit, &mut ws).unwrap();
        assert_eq!(fresh.node_voltages(), reused.node_voltages());
        assert_eq!(
            fresh.voltage(ab.cell.input).0.to_bits(),
            reused.voltage(ab.cell.input).0.to_bits()
        );
    }
}

/// An RC charging transient re-run on a reused workspace must reproduce
/// every time point of the fresh run exactly.
#[test]
fn rc_transient_is_bit_identical_across_workspace_reuse() {
    let mut c = Circuit::new();
    let a = c.node("a");
    let b = c.node("b");
    c.voltage_source_wave(
        "V1",
        a,
        Circuit::GROUND,
        Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]),
    )
    .unwrap();
    c.resistor("R1", a, b, Ohms(1e3)).unwrap();
    c.capacitor("C1", b, Circuit::GROUND, Farads(1e-6)).unwrap();
    let params = TranParams::new(Seconds(2e-3), Seconds(1e-6)).unwrap();

    let fresh = tran::run(&c, &params).unwrap();

    let mut ws = EngineWorkspace::for_circuit(&c);
    for _ in 0..2 {
        let reused = tran::run_with(&c, &params, &mut ws).unwrap();
        assert_eq!(fresh.times(), reused.times());
        for step in 0..fresh.len() {
            assert_eq!(fresh.voltage_slice(step), reused.voltage_slice(step));
            assert_eq!(fresh.current_slice(step), reused.current_slice(step));
        }
    }
}

/// A 10-point current sweep through the warm-starting workspace sweep
/// must match the legacy pattern (a fresh solver seeded with the previous
/// solution at every point) bit for bit.
#[test]
fn current_sweep_matches_legacy_clone_per_point_loop() {
    let ab = ClassAbCellDesign::default().build().unwrap();
    let values: Vec<Amps> = (0..10).map(|i| Amps((f64::from(i) - 4.5) * 1e-6)).collect();

    // Legacy path: clone the circuit and build a solver per point,
    // warm-starting from the previous solution.
    let mut legacy = Vec::new();
    {
        let mut ckt = ab.cell.circuit.clone();
        let mut guess = ab.cell.initial_guess.clone();
        for &value in &values {
            si_analog::dc::set_current_source(&mut ckt, &ab.cell.input_source, value).unwrap();
            let sol = DcSolver::new()
                .with_initial_guess(guess.clone())
                .solve(&ckt)
                .unwrap();
            guess = sol.node_voltages();
            legacy.push(sol.voltage(ab.cell.input).0);
        }
    }

    let solver = DcSolver::new().with_initial_guess(ab.cell.initial_guess.clone());
    let swept = sweep_current_source(
        &ab.cell.circuit,
        &ab.cell.input_source,
        &values,
        &solver,
        |sol| sol.voltage(ab.cell.input).0,
    )
    .unwrap();

    assert_eq!(legacy.len(), swept.len());
    for (l, s) in legacy.iter().zip(&swept) {
        assert_eq!(l.to_bits(), s.to_bits(), "legacy {l} vs sweep {s}");
    }
}

/// `parallel_map` must be byte-identical to the serial loop it replaces,
/// including when per-point state (a workspace) is reused within workers.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let ab = ClassAbCellDesign::default().build().unwrap();
    let solver = DcSolver::new().with_initial_guess(ab.cell.initial_guess.clone());
    let values: Vec<Amps> = (0..16).map(|i| Amps((f64::from(i) - 8.0) * 5e-7)).collect();

    let serial: Vec<f64> = values
        .iter()
        .map(|&v| {
            let mut ckt = ab.cell.circuit.clone();
            si_analog::dc::set_current_source(&mut ckt, &ab.cell.input_source, v).unwrap();
            solver.solve(&ckt).unwrap().voltage(ab.cell.input).0
        })
        .collect();

    let parallel = si_core::sweep::parallel_map(
        &values,
        || {
            (
                EngineWorkspace::for_circuit(&ab.cell.circuit),
                ab.cell.circuit.clone(),
            )
        },
        |(ws, ckt), &v, _| {
            si_analog::dc::set_current_source(ckt, &ab.cell.input_source, v)?;
            Ok::<_, si_analog::AnalogError>(solver.solve_with(ckt, ws)?.voltage(ab.cell.input).0)
        },
    )
    .unwrap();

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.to_bits(), p.to_bits(), "serial {s} vs parallel {p}");
    }
}

/// The modulator-level sweep (Fig. 7 measurement) must report identical
/// points from the serial and parallel entry points — per-point
/// determinism comes from the modulator's own seed.
#[test]
fn modulator_sndr_sweep_serial_and_parallel_agree() {
    use si_modulator::measure::MeasurementConfig;
    use si_modulator::si::{SiModulator, SiModulatorConfig};
    use si_modulator::sweep::{sndr_sweep, sndr_sweep_parallel};

    let base = SiModulatorConfig::paper_08um();
    let mut cfg = MeasurementConfig::quick();
    cfg.record_len = 4096;
    let levels = [-40.0, -20.0, -6.0];

    let serial = sndr_sweep(|| SiModulator::new(base), &levels, &cfg).unwrap();
    let parallel = sndr_sweep_parallel(|| SiModulator::new(base), &levels, &cfg).unwrap();

    assert_eq!(
        serial.dynamic_range_db.to_bits(),
        parallel.dynamic_range_db.to_bits()
    );
    for (s, p) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(s.level_db.to_bits(), p.level_db.to_bits());
        assert_eq!(s.sinad_db.to_bits(), p.sinad_db.to_bits());
        assert_eq!(s.snr_db.to_bits(), p.snr_db.to_bits());
        assert_eq!(s.thd_db.to_bits(), p.thd_db.to_bits());
    }
}
