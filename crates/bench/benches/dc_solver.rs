//! Benchmark of the transistor-level DC solver on the paper's netlists:
//! the class-AB cell (Fig. 1), the CMFF network (Fig. 2), and the raw LU
//! kernel the Newton iteration is built on (E1/E2 cost).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use si_analog::cells::{si_cell_chain, ClassAbCellDesign, CmffDesign};
use si_analog::dc::DcSolver;
use si_analog::engine::EngineWorkspace;
use si_analog::linalg::Matrix;
use si_analog::solver::BackendMode;

fn bench_lu(c: &mut Criterion) {
    let n = 32;
    let mut a = Matrix::zeros(n, n);
    let mut seed = 0xACE1u64;
    for i in 0..n {
        for j in 0..n {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            a[(i, j)] = (seed % 1000) as f64 / 1000.0 - 0.5;
        }
        a[(i, i)] += 8.0;
    }
    let b_vec = vec![1.0; n];
    c.bench_function("lu_solve_32x32", |b| {
        b.iter(|| black_box(&a).solve(black_box(&b_vec)).unwrap())
    });
}

fn bench_cell_dc(c: &mut Criterion) {
    let cell = ClassAbCellDesign::default().build().unwrap();
    c.bench_function("dc_class_ab_cell", |b| {
        b.iter(|| {
            DcSolver::new()
                .with_initial_guess(cell.cell.initial_guess.clone())
                .solve(black_box(&cell.cell.circuit))
                .unwrap()
        })
    });
    // Cold start exercises the gmin-stepping path.
    c.bench_function("dc_class_ab_cell_cold", |b| {
        b.iter(|| {
            DcSolver::new()
                .solve(black_box(&cell.cell.circuit))
                .unwrap()
        })
    });
    // The reuse-vs-fresh pair: `solve` builds a workspace per call,
    // `solve_with` amortizes one across the whole run. The gap is the
    // allocation overhead the engine refactor removes from sweeps.
    let solver = DcSolver::new().with_initial_guess(cell.cell.initial_guess.clone());
    c.bench_function("dc_class_ab_cell_fresh_workspace", |b| {
        b.iter(|| solver.solve(black_box(&cell.cell.circuit)).unwrap())
    });
    c.bench_function("dc_class_ab_cell_reused_workspace", |b| {
        let mut ws = EngineWorkspace::for_circuit(&cell.cell.circuit);
        b.iter(|| {
            solver
                .solve_with(black_box(&cell.cell.circuit), &mut ws)
                .unwrap()
        })
    });
}

fn bench_cmff_dc(c: &mut Criterion) {
    let net = CmffDesign::default().build().unwrap();
    c.bench_function("dc_cmff_network", |b| {
        b.iter(|| {
            DcSolver::new()
                .with_initial_guess(net.initial_guess.clone())
                .solve(black_box(&net.circuit))
                .unwrap()
        })
    });
}

// Dense-vs-sparse backend pairs on the delay-line cell chain at small,
// medium, and large stage counts: the crossover where the sparse
// structure-caching path overtakes the dense kernel is the number that
// justifies the auto-cutover default.
fn bench_backend_pairs(c: &mut Criterion) {
    for stages in [8usize, 48, 160] {
        let line = si_cell_chain(stages).unwrap();
        let solver = DcSolver::new().with_initial_guess(line.initial_guess.clone());
        for (tag, mode) in [
            ("dense", BackendMode::ForceDense),
            ("sparse", BackendMode::ForceSparse),
        ] {
            c.bench_function(&format!("dc_cell_chain_{stages}_{tag}"), |b| {
                let mut ws = EngineWorkspace::for_circuit(&line.circuit);
                ws.set_backend_policy(mode);
                b.iter(|| {
                    solver
                        .solve_with(black_box(&line.circuit), &mut ws)
                        .unwrap()
                })
            });
        }
    }
}

criterion_group!(
    benches,
    bench_lu,
    bench_cell_dc,
    bench_cmff_dc,
    bench_backend_pairs
);
criterion_main!(benches);
