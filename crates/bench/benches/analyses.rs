//! Benchmark of the frequency-domain analyses: AC response sweeps, the
//! transistor-level noise integration, Welch averaging and the Goertzel
//! detector — the kernels behind the settling/noise cross-validation tests.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use si_analog::ac::{log_frequencies, AcAnalysis, AcProbe, AcStimulus};
use si_analog::acnoise::NoiseAnalysis;
use si_analog::cells::{si_cell_chain, ClassAbCellDesign};
use si_analog::dc::DcSolver;
use si_analog::engine::EngineWorkspace;
use si_analog::solver::BackendMode;
use si_dsp::signal::GaussianNoise;
use si_dsp::welch::{goertzel_power, welch};
use si_dsp::window::Window;

fn bench_ac(c: &mut Criterion) {
    let cell = ClassAbCellDesign::default().build().unwrap();
    let op = DcSolver::new()
        .with_initial_guess(cell.cell.initial_guess.clone())
        .solve(&cell.cell.circuit)
        .unwrap();
    let freqs = log_frequencies(1e3, 1e9, 60).unwrap();
    c.bench_function("ac_response_60_points_class_ab_cell", |b| {
        b.iter(|| {
            AcAnalysis::default()
                .response(
                    black_box(&cell.cell.circuit),
                    &op,
                    &AcStimulus::CurrentInto(cell.cell.input),
                    &AcProbe::NodeVoltage(cell.cell.input),
                    &freqs,
                )
                .unwrap()
        })
    });
    c.bench_function("noise_integration_60_points_class_ab_cell", |b| {
        b.iter(|| {
            NoiseAnalysis::default()
                .output_noise(
                    black_box(&cell.cell.circuit),
                    &op,
                    &AcProbe::NodeVoltage(cell.cell.gate),
                    1e4,
                    1e10,
                    60,
                )
                .unwrap()
        })
    });
}

// Dense-vs-sparse complex backend pairs: AC sweeps over the delay-line
// cell chain, where each frequency point refactors the same structure.
fn bench_ac_backend_pairs(c: &mut Criterion) {
    let freqs = log_frequencies(1e3, 1e8, 20).unwrap();
    for stages in [8usize, 48, 160] {
        let line = si_cell_chain(stages).unwrap();
        let op = DcSolver::new()
            .with_initial_guess(line.initial_guess.clone())
            .solve(&line.circuit)
            .unwrap();
        let analysis = AcAnalysis::default();
        let stimulus = AcStimulus::CurrentInto(line.input);
        let probe = AcProbe::NodeVoltage(*line.stage_nodes.last().unwrap());
        for (tag, mode) in [
            ("dense", BackendMode::ForceDense),
            ("sparse", BackendMode::ForceSparse),
        ] {
            c.bench_function(&format!("ac_cell_chain_{stages}_{tag}"), |b| {
                let mut ws = EngineWorkspace::for_circuit(&line.circuit);
                ws.set_backend_policy(mode);
                b.iter(|| {
                    analysis
                        .response_with(
                            black_box(&line.circuit),
                            &op,
                            &stimulus,
                            &probe,
                            &freqs,
                            &mut ws,
                        )
                        .unwrap()
                })
            });
        }
    }
}

fn bench_welch_goertzel(c: &mut Criterion) {
    let n = 1 << 15;
    let noise: Vec<f64> = GaussianNoise::new(1.0, 3).take(n).collect();
    c.bench_function("welch_15_segments_32k", |b| {
        b.iter(|| welch(black_box(&noise), 15, Window::Hann).unwrap())
    });
    c.bench_function("goertzel_32k_single_bin", |b| {
        b.iter(|| goertzel_power(black_box(&noise), n, 1234).unwrap())
    });
}

criterion_group!(
    benches,
    bench_ac,
    bench_ac_backend_pairs,
    bench_welch_goertzel
);
criterion_main!(benches);
