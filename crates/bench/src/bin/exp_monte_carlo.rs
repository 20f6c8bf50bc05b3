//! Monte Carlo mismatch analysis of the SI modulator — the yield question
//! a production design review would ask of the paper's circuit: how does
//! the dynamic range spread over process mismatch (branch gains, DAC
//! levels, quantizer offset)?
//!
//! Every trial redraws all mismatch-sensitive parameters from scaled
//! distributions (seeded, reproducible) and measures the −6 dB SINAD; the
//! binary reports the distribution and checks that the paper's nominal
//! point is typical, not a lucky corner.
//!
//! Run: `cargo run --release -p si-bench --bin exp_monte_carlo [--quick]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use si_bench::report::Report;
use si_bench::run_report::{experiments_dir, PointRecord, RunReport};
use si_modulator::measure::{measure, MeasurementConfig};
use si_modulator::si::{SiModulator, SiModulatorConfig};

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_monte_carlo failed: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials = if quick { 12 } else { 32 };
    let mut cfg = MeasurementConfig::paper_fig5();
    cfg.record_len = 16_384; // per-trial cost dominates; 16K suffices

    // Draw every trial's parameters serially so the rng stream (and thus
    // each trial) is independent of how the measurements are scheduled,
    // then fan the expensive measurements out across workers, one trial
    // per item. The results come back in trial order, byte-identical to
    // the serial loop.
    let mut rng = StdRng::seed_from_u64(0x4d43); // "MC"
    let mut configs = Vec::with_capacity(trials);
    for trial in 0..trials {
        let mut config = SiModulatorConfig::paper_08um();
        // Redraw the mismatch-sensitive knobs around their nominals.
        config.seed = 0x1000 + trial as u64;
        config.dac_mismatch = rng.gen_range(-3e-3..3e-3);
        config.quantizer_offset = rng.gen_range(-60e-9..60e-9);
        config.cell_params.branch_mismatch = rng.gen_range(0.0..4e-3);
        config.cm = si_modulator::si::CmChoice::Cmff {
            mismatch: rng.gen_range(0.0..1.5e-2),
        };
        configs.push(config);
    }
    let mut sinads = si_core::sweep::parallel_map(
        &configs,
        || (),
        |(), config, _| {
            let mut m = SiModulator::new(*config)?;
            Ok::<_, si_modulator::ModulatorError>(measure(&mut m, &cfg)?.sinad_db)
        },
    )?;
    let by_trial = sinads.clone();
    sinads.sort_by(|a, b| a.total_cmp(b));
    let mean = sinads.iter().sum::<f64>() / trials as f64;
    let var = sinads.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / trials as f64;
    let median = sinads[trials / 2];

    let mut t = Report::new(&format!(
        "Monte Carlo over mismatch ({trials} trials, −6 dB input, 16K records)"
    ));
    t.row(
        "median SINAD",
        "≈ 56 dB (nominal point)",
        &format!("{median:.1} dB"),
    );
    t.row(
        "mean ± σ",
        "small spread (1-bit DAC is inherently linear)",
        &format!("{mean:.1} ± {:.1} dB", var.sqrt()),
    );
    t.row(
        "worst trial",
        "> 50 dB (9.6-kHz audio still works)",
        &format!("{:.1} dB", sinads[0]),
    );
    t.row("best trial", "—", &format!("{:.1} dB", sinads[trials - 1]));
    t.print();

    println!("\nper-trial SINAD (dB, sorted):");
    let line: Vec<String> = sinads.iter().map(|s| format!("{s:.1}")).collect();
    println!("  {}", line.join("  "));

    // Structured run report: the distribution summary plus every trial's
    // draw and outcome (in trial order, so a regression diff points at
    // the exact seed that moved).
    let mut report = RunReport::new("exp_monte_carlo");
    report.note("artifact", "mismatch yield, -6 dB input");
    report.note("trials", format!("{trials}"));
    report.metric("median_sinad_db", median);
    report.metric("mean_sinad_db", mean);
    report.metric("sigma_sinad_db", var.sqrt());
    report.metric("worst_sinad_db", sinads[0]);
    report.metric("best_sinad_db", sinads[trials - 1]);
    for (trial, (config, sinad)) in configs.iter().zip(&by_trial).enumerate() {
        report.point(
            PointRecord::new(format!("trial {trial}"))
                .with("seed", config.seed as f64)
                .with("dac_mismatch", config.dac_mismatch)
                .with("quantizer_offset_a", config.quantizer_offset)
                .with("sinad_db", *sinad),
        );
    }
    let path = report.write(experiments_dir())?;
    println!("run report: {}", path.display());

    if median < 50.0 {
        return Err(format!("median SINAD {median:.1} dB below the 50 dB floor").into());
    }
    if var.sqrt() > 6.0 {
        return Err(format!("mismatch spread σ = {:.1} dB implausibly large", var.sqrt()).into());
    }
    Ok(())
}
