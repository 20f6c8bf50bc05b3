//! The sparse solver-backend contract: the structure-caching sparse path
//! must agree with the dense path to solver tolerance on the paper's
//! circuits, and on a delay-line-scale netlist the automatic policy must
//! run entirely sparse — zero dense factorizations, one symbolic analysis
//! reused across every Newton iteration and transient step (asserted via
//! telemetry, not inference).

use si_analog::ac::{AcAnalysis, AcProbe, AcStimulus};
use si_analog::cells::{si_cell_chain, ClassACellDesign, ClassAbCellDesign, CmffDesign};
use si_analog::dc::DcSolver;
use si_analog::device::switch::TwoPhaseClock;
use si_analog::device::Waveform;
use si_analog::engine::EngineWorkspace;
use si_analog::netlist::Circuit;
use si_analog::solver::BackendMode;
use si_analog::tran::{self, TranParams};
use si_analog::units::Seconds;

fn dc_both_ways(circuit: &Circuit, guess: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let solver = DcSolver::new().with_initial_guess(guess.to_vec());
    let mut dense_ws = EngineWorkspace::for_circuit(circuit);
    dense_ws.set_backend_policy(BackendMode::ForceDense);
    let dense = solver.solve_with(circuit, &mut dense_ws).unwrap();
    let mut sparse_ws = EngineWorkspace::for_circuit(circuit);
    sparse_ws.set_backend_policy(BackendMode::ForceSparse);
    let sparse = solver.solve_with(circuit, &mut sparse_ws).unwrap();
    (dense.raw().to_vec(), sparse.raw().to_vec())
}

fn assert_close(dense: &[f64], sparse: &[f64], what: &str) {
    assert_eq!(dense.len(), sparse.len());
    for (k, (u, v)) in dense.iter().zip(sparse).enumerate() {
        assert!(
            (u - v).abs() <= 1e-6 * u.abs().max(1.0),
            "{what}: unknown {k} dense {u} vs sparse {v}"
        );
    }
}

/// Every paper circuit's DC operating point agrees between the forced
/// dense and forced sparse backends — including circuits far below the
/// auto cutover, so the sparse kernel is exercised at every size.
#[test]
fn paper_circuit_dc_ops_agree_between_backends() {
    let class_a = ClassACellDesign::default().build().unwrap();
    let (d, s) = dc_both_ways(&class_a.circuit, &class_a.initial_guess);
    assert_close(&d, &s, "class-A cell");

    let class_ab = ClassAbCellDesign::default().build().unwrap();
    let (d, s) = dc_both_ways(&class_ab.cell.circuit, &class_ab.cell.initial_guess);
    assert_close(&d, &s, "class-AB cell");

    let cmff = CmffDesign::default().build().unwrap();
    let (d, s) = dc_both_ways(&cmff.circuit, &cmff.initial_guess);
    assert_close(&d, &s, "CMFF network");

    let line = si_cell_chain(64).unwrap();
    let (d, s) = dc_both_ways(&line.circuit, &line.initial_guess);
    assert_close(&d, &s, "64-stage delay line");
}

/// The complex backends agree too: the class-AB cell's AC input impedance
/// sweep, forced dense vs. forced sparse.
#[test]
fn class_ab_ac_response_agrees_between_backends() {
    let ab = ClassAbCellDesign::default().build().unwrap();
    let circuit = &ab.cell.circuit;
    let op = DcSolver::new()
        .with_initial_guess(ab.cell.initial_guess.clone())
        .solve(circuit)
        .unwrap();
    let ac = AcAnalysis::default();
    let stimulus = AcStimulus::CurrentInto(ab.cell.input);
    let probe = AcProbe::NodeVoltage(ab.cell.input);
    let freqs = si_analog::ac::log_frequencies(1e3, 1e9, 31).unwrap();

    let mut dense_ws = EngineWorkspace::for_circuit(circuit);
    dense_ws.set_backend_policy(BackendMode::ForceDense);
    let dense = ac
        .response_with(circuit, &op, &stimulus, &probe, &freqs, &mut dense_ws)
        .unwrap();

    let mut sparse_ws = EngineWorkspace::for_circuit(circuit);
    sparse_ws.set_backend_policy(BackendMode::ForceSparse);
    sparse_ws.enable_stats();
    let sparse = ac
        .response_with(circuit, &op, &stimulus, &probe, &freqs, &mut sparse_ws)
        .unwrap();

    for (k, (u, v)) in dense.iter().zip(&sparse).enumerate() {
        assert!(
            (*u - *v).abs() <= 1e-6 * u.abs().max(1.0),
            "frequency point {k}: dense {u:?} vs sparse {v:?}"
        );
    }
    let stats = sparse_ws.take_stats().unwrap();
    assert_eq!(stats.dense_complex_factorizations, 0);
    assert_eq!(
        stats.sparse_complex_factorizations + stats.sparse_complex_refactorizations,
        freqs.len() as u64,
        "one complex factorization per frequency point"
    );
    assert_eq!(
        stats.symbolic_cache_misses, 1,
        "one AC topology, one symbolic analysis across the whole sweep"
    );
}

/// The acceptance contract of the sparse backend: a full DC + transient
/// run on a delay-line-scale netlist under the *automatic* policy performs
/// zero dense factorizations, computes exactly one symbolic factorization,
/// and replays it across every subsequent Newton iteration and time step.
#[test]
fn delay_line_dc_and_transient_run_entirely_sparse_with_one_symbolic_analysis() {
    let line = si_cell_chain(60).unwrap();
    let mut circuit = line.circuit.clone();
    circuit
        .update_current_source(
            &line.input_source,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 2e-6,
                frequency: 50e3,
                phase: 0.0,
            },
        )
        .unwrap();

    let mut ws = EngineWorkspace::for_circuit(&circuit);
    ws.enable_stats();
    assert_eq!(
        ws.backend_policy(),
        BackendMode::Auto,
        "the default policy, not a forced one"
    );

    let op = DcSolver::new()
        .with_initial_guess(line.initial_guess.clone())
        .solve_with(&circuit, &mut ws)
        .unwrap();

    let clock = TwoPhaseClock::new(Seconds(1e-6), 0.05).unwrap();
    let params = TranParams::new(Seconds(20e-6), Seconds(50e-9))
        .unwrap()
        .with_clock(clock);
    let result = tran::run_from_with(&circuit, &params, op, &mut ws).unwrap();
    assert!(result.len() > 100, "transient actually stepped");

    let stats = ws.take_stats().unwrap();
    assert_eq!(
        stats.dense_real_factorizations, 0,
        "auto policy must never fall back to dense on this netlist"
    );
    assert_eq!(stats.dense_complex_factorizations, 0);
    let sparse_total = stats.sparse_real_factorizations + stats.sparse_real_refactorizations;
    assert_eq!(
        sparse_total, stats.newton_iterations,
        "every Newton iteration of DC and every time step went sparse"
    );
    assert_eq!(
        stats.symbolic_cache_misses, 1,
        "one topology, one symbolic factorization for the whole run"
    );
    assert_eq!(
        stats.symbolic_cache_hits,
        sparse_total - 1,
        "every solve after the first replayed the cached structure"
    );
    assert!(stats.max_matrix_nonzeros > 0);
    assert!(stats.max_factor_nonzeros >= stats.max_matrix_nonzeros / 2);
}

/// The batched solve contract at the kernel level (ISSUE 6): on a
/// paper-scale delay line the same factored system solved as a panel of
/// right-hand sides is bit-identical to sequential single-RHS solves, and
/// the panel costs no extra factorizations.
#[test]
fn panel_solves_on_delay_line_are_bit_identical_to_sequential() {
    use si_analog::sparse::RhsPanel;

    let line = si_cell_chain(48).unwrap();
    let mut ws = EngineWorkspace::for_circuit(&line.circuit);
    ws.set_backend_policy(BackendMode::ForceSparse);
    ws.enable_stats();
    // Factor once at the operating point; its engine keeps the factors.
    DcSolver::new()
        .with_initial_guess(line.initial_guess.clone())
        .solve_with(&line.circuit, &mut ws)
        .unwrap();
    let factorizations_before = {
        let s = ws.stats().unwrap();
        s.sparse_real_factorizations + s.sparse_real_refactorizations
    };

    let n = line.circuit.mna_dimension();
    // A panel wider than one cache block, with a ragged tail.
    let columns: Vec<Vec<f64>> = (0..11)
        .map(|s| (0..n).map(|k| ((s * n + k) as f64).sin() * 1e-6).collect())
        .collect();
    let b = RhsPanel::from_columns(&columns).unwrap();
    let mut x = RhsPanel::default();
    ws.real_solver().solve_panel(&b, &mut x).unwrap();
    for (s, column) in columns.iter().enumerate() {
        let mut seq = Vec::new();
        ws.real_solver().solve(column, &mut seq).unwrap();
        for (k, (u, v)) in x.col(s).iter().zip(&seq).enumerate() {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "scenario {s} unknown {k}: panel {u} vs sequential {v}"
            );
        }
    }
    let stats = ws.take_stats().unwrap();
    assert_eq!(
        stats.sparse_real_factorizations + stats.sparse_real_refactorizations,
        factorizations_before,
        "panel and sequential solves reuse the existing factors"
    );
}

/// Value-only sweeps keep the symbolic cache warm; a topology change
/// invalidates it exactly once.
#[test]
fn sweeping_source_values_keeps_the_symbolic_cache_warm() {
    let line = si_cell_chain(48).unwrap();
    let mut circuit = line.circuit.clone();
    let mut ws = EngineWorkspace::for_circuit(&circuit);
    ws.set_backend_policy(BackendMode::ForceSparse);
    ws.enable_stats();
    let solver = DcSolver::new().with_initial_guess(line.initial_guess.clone());

    for k in 0..5 {
        circuit
            .update_current_source(&line.input_source, Waveform::Dc(f64::from(k) * 1e-6))
            .unwrap();
        solver.solve_with(&circuit, &mut ws).unwrap();
    }
    let stats = ws.take_stats().unwrap();
    assert_eq!(
        stats.symbolic_cache_misses, 1,
        "five sweep points, one symbolic analysis"
    );
    assert_eq!(stats.dense_real_factorizations, 0);
}
