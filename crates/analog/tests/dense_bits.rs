//! Pinned output bits of the dense LU path.
//!
//! Every analysis the paper's experiments use — the class-AB cell's DC
//! operating point, the delay line's clocked transient, the cell's AC
//! bandwidth and 4kTγgm noise — ends in the dense LU kernel whenever the
//! system is small or the dense backend is forced. These tests hash every
//! output bit (FNV-1a over `f64::to_bits`) and compare with hashes recorded
//! from the kernel as first written, so any change to the kernel's
//! floating-point operations, in debug or release, fails here.

use si_analog::ac::{log_frequencies, AcAnalysis, AcProbe, AcStimulus};
use si_analog::acnoise::NoiseAnalysis;
use si_analog::cells::{si_cell_chain, ClassAbCellDesign};
use si_analog::dc::DcSolver;
use si_analog::device::switch::TwoPhaseClock;
use si_analog::device::Waveform;
use si_analog::engine::EngineWorkspace;
use si_analog::solver::{BackendMode, BackendPolicy};
use si_analog::tran::{self, TranParams};
use si_analog::units::Seconds;
use si_dsp::Complex;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f64s(mut self, values: impl IntoIterator<Item = f64>) -> Self {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self
    }

    fn c64s<'a>(self, values: impl IntoIterator<Item = &'a Complex>) -> Self {
        self.f64s(values.into_iter().flat_map(|z| [z.re, z.im]))
    }
}

fn dense_workspace(circuit: &si_analog::netlist::Circuit) -> EngineWorkspace {
    let mut ws = EngineWorkspace::for_circuit(circuit);
    ws.set_backend_policy(BackendPolicy {
        mode: BackendMode::ForceDense,
        ..BackendPolicy::default()
    });
    ws
}

fn assert_hash(what: &str, got: Fnv, pinned: u64) {
    assert_eq!(got.0, pinned, "{what}: hash {:#018x}", got.0);
}

#[test]
fn class_ab_dc_cold_start_bits() {
    // No initial guess: the solve walks the gmin-stepping ladder.
    let ab = ClassAbCellDesign::default().build().unwrap();
    let op = DcSolver::new().solve(&ab.cell.circuit).unwrap();
    assert_hash(
        "class-AB cold DC",
        Fnv::new().f64s(op.raw().iter().copied()),
        0xaadf_b1d0_4106_87d2,
    );
}

fn chain_dc_and_tran_hash(stages: usize) -> Fnv {
    let line = si_cell_chain(stages).unwrap();
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
    let mut ws = dense_workspace(&circuit);
    let op = DcSolver::new()
        .with_initial_guess(line.initial_guess.clone())
        .solve_with(&circuit, &mut ws)
        .unwrap();
    let mut hash = Fnv::new().f64s(op.raw().iter().copied());
    let clock = TwoPhaseClock::new(Seconds(1e-6), 0.05).unwrap();
    let params = TranParams::new(Seconds(4e-6), Seconds(50e-9))
        .unwrap()
        .with_clock(clock);
    let result = tran::run_from_with(&circuit, &params, op, &mut ws).unwrap();
    assert!(result.len() > 50, "transient stepped");
    hash = hash.f64s(result.times().iter().copied());
    for step in 0..result.len() {
        hash = hash
            .f64s(result.voltage_slice(step).iter().copied())
            .f64s(result.current_slice(step).iter().copied());
    }
    hash
}

#[test]
fn chain_dense_dc_and_clocked_transient_bits() {
    for (stages, pinned) in [
        (3, 0x5f66_ce57_4b2a_a596),
        (8, 0xad48_8f14_88eb_8783),
        (24, 0xe0ff_8f0e_2805_9a0e),
    ] {
        assert_hash(
            &format!("{stages}-stage chain DC + transient"),
            chain_dc_and_tran_hash(stages),
            pinned,
        );
    }
}

#[test]
fn class_ab_ac_and_noise_bits() {
    let ab = ClassAbCellDesign::default().build().unwrap();
    let circuit = &ab.cell.circuit;
    let op = DcSolver::new()
        .with_initial_guess(ab.cell.initial_guess.clone())
        .solve(circuit)
        .unwrap();
    let freqs = log_frequencies(1e3, 1e9, 60).unwrap();
    let response = AcAnalysis::default()
        .response(
            circuit,
            &op,
            &AcStimulus::CurrentInto(ab.cell.input),
            &AcProbe::NodeVoltage(ab.cell.input),
            &freqs,
        )
        .unwrap();
    assert_eq!(response.len(), 60);
    assert_hash(
        "class-AB AC",
        Fnv::new().c64s(&response),
        0xf5b5_8c53_52cb_2d57,
    );

    let noise = NoiseAnalysis::default()
        .output_noise(
            circuit,
            &op,
            &AcProbe::NodeVoltage(ab.cell.gate),
            1e4,
            1e10,
            60,
        )
        .unwrap();
    let hash = Fnv::new()
        .f64s(noise.freqs_hz.iter().copied())
        .f64s(noise.psd.iter().copied())
        .f64s([noise.total_rms])
        .f64s(noise.contributors.iter().map(|(_, rms)| *rms));
    assert_hash("class-AB noise", hash, 0x104f_6631_e89e_d099);
}

#[test]
fn chain_dense_ac_bits() {
    let freqs = log_frequencies(1e3, 1e8, 20).unwrap();
    for (stages, pinned) in [(8, 0x4c56_6b60_dd67_341c), (48, 0x19f2_fae0_37f2_114f)] {
        let line = si_cell_chain(stages).unwrap();
        let op = DcSolver::new()
            .with_initial_guess(line.initial_guess.clone())
            .solve(&line.circuit)
            .unwrap();
        let mut ws = dense_workspace(&line.circuit);
        let response = AcAnalysis::default()
            .response_with(
                &line.circuit,
                &op,
                &AcStimulus::CurrentInto(line.input),
                &AcProbe::NodeVoltage(*line.stage_nodes.last().unwrap()),
                &freqs,
                &mut ws,
            )
            .unwrap();
        assert_hash(
            &format!("{stages}-stage chain dense AC"),
            Fnv::new().c64s(&response),
            pinned,
        );
    }
}
