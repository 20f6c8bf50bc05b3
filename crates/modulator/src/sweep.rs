//! SNDR-versus-input-level sweeps — the measurement behind Fig. 7 and the
//! Table 2 dynamic-range row.
//!
//! Each sweep point re-runs the modulator from reset with a coherent sine
//! at the requested level (in dB relative to the 0-dB full scale, the
//! paper's 6 µA) and measures the in-band SINAD. The dynamic range is the
//! distance from full scale down to the interpolated SNDR = 0 dB crossing.

use si_dsp::metrics::{db_to_bits, dynamic_range_db};

use crate::measure::{measure, MeasurementConfig};
use crate::{Modulator, ModulatorError};

/// One point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Input level in dB relative to full scale.
    pub level_db: f64,
    /// Measured in-band SINAD (Fig. 7's y-axis).
    pub sinad_db: f64,
    /// Measured in-band SNR.
    pub snr_db: f64,
    /// Measured THD.
    pub thd_db: f64,
}

/// The result of a level sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Measured points, in the order of the requested levels.
    pub points: Vec<SweepPoint>,
    /// Dynamic range in dB (SNDR = 0 dB crossing to full scale).
    pub dynamic_range_db: f64,
}

impl SweepResult {
    /// Dynamic range expressed in effective bits — the paper quotes
    /// "about 10.5 bits".
    #[must_use]
    pub fn dynamic_range_bits(&self) -> f64 {
        db_to_bits(self.dynamic_range_db)
    }

    /// The peak SINAD across the sweep.
    #[must_use]
    pub fn peak_sinad_db(&self) -> f64 {
        self.points
            .iter()
            .fold(f64::NEG_INFINITY, |m, p| m.max(p.sinad_db))
    }
}

/// The standard Fig. 7 level grid: −70 dB to 0 dB.
#[must_use]
pub fn fig7_levels() -> Vec<f64> {
    vec![
        -70.0, -60.0, -50.0, -40.0, -30.0, -20.0, -15.0, -10.0, -6.0, -3.0, -1.0, 0.0,
    ]
}

/// Measures one sweep point on a freshly built modulator — the single
/// implementation behind both the serial and parallel sweeps, so the two
/// paths are byte-identical given the same factory.
fn measure_point<M: Modulator>(
    modulator: &mut M,
    level_db: f64,
    config: &MeasurementConfig,
) -> Result<SweepPoint, ModulatorError> {
    let mut cfg = *config;
    cfg.amplitude = modulator.full_scale() * si_dsp::db_to_amplitude(level_db);
    let meas = measure(modulator, &cfg)?;
    Ok(SweepPoint {
        level_db,
        sinad_db: meas.sinad_db,
        snr_db: meas.snr_db,
        thd_db: meas.thd_db,
    })
}

fn require_two_levels(levels_db: &[f64]) -> Result<(), ModulatorError> {
    if levels_db.len() < 2 {
        return Err(ModulatorError::InvalidParameter {
            name: "levels_db",
            constraint: "a sweep needs at least two levels",
        });
    }
    Ok(())
}

fn finish_sweep(points: Vec<SweepPoint>) -> Result<SweepResult, ModulatorError> {
    let levels: Vec<f64> = points.iter().map(|p| p.level_db).collect();
    let sinads: Vec<f64> = points.iter().map(|p| p.sinad_db).collect();
    let dynamic_range = dynamic_range_db(&levels, &sinads)?;
    Ok(SweepResult {
        points,
        dynamic_range_db: dynamic_range,
    })
}

/// Sweeps input level; `factory` builds a fresh modulator for every point
/// so state and noise seeds are identical across levels.
///
/// # Errors
///
/// Propagates build and measurement errors; the sweep requires at least
/// two levels.
pub fn sndr_sweep<M, F>(
    mut factory: F,
    levels_db: &[f64],
    config: &MeasurementConfig,
) -> Result<SweepResult, ModulatorError>
where
    M: Modulator,
    F: FnMut() -> Result<M, ModulatorError>,
{
    require_two_levels(levels_db)?;
    let mut points = Vec::with_capacity(levels_db.len());
    for &level in levels_db {
        let mut modulator = factory()?;
        points.push(measure_point(&mut modulator, level, config)?);
    }
    finish_sweep(points)
}

/// Parallel variant of [`sndr_sweep`]: points are measured across worker
/// threads via [`si_core::sweep::parallel_map`]. Because every point runs
/// on a fresh modulator built by `factory` (exactly as in the serial
/// sweep) and results are re-sorted into level order, the output is
/// byte-identical to [`sndr_sweep`] for any factory whose randomness is
/// seeded per build.
///
/// # Errors
///
/// Same as [`sndr_sweep`]; the first failing level (in level order)
/// reports its error.
pub fn sndr_sweep_parallel<M, F>(
    factory: F,
    levels_db: &[f64],
    config: &MeasurementConfig,
) -> Result<SweepResult, ModulatorError>
where
    M: Modulator,
    F: Fn() -> Result<M, ModulatorError> + Sync,
{
    require_two_levels(levels_db)?;
    let points = si_core::sweep::parallel_map(
        levels_db,
        || (),
        |(), &level, _| {
            let mut modulator = factory()?;
            measure_point(&mut modulator, level, config)
        },
    )?;
    finish_sweep(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::SecondOrderTopology;
    use crate::ideal::IdealModulator;

    #[test]
    fn sweep_needs_two_levels() {
        let cfg = MeasurementConfig::quick();
        let r = sndr_sweep(
            || IdealModulator::new(SecondOrderTopology::paper_scaled(), 6e-6),
            &[-6.0],
            &cfg,
        );
        assert!(r.is_err());
    }

    #[test]
    fn ideal_sweep_has_unit_slope_and_high_dr() {
        let cfg = MeasurementConfig::quick();
        let levels = [-60.0, -40.0, -20.0, -6.0];
        let result = sndr_sweep(
            || IdealModulator::new(SecondOrderTopology::paper_scaled(), 6e-6),
            &levels,
            &cfg,
        )
        .unwrap();
        // SNDR rises ≈ 1 dB per dB of input in the noise-limited region.
        let slope = (result.points[2].sinad_db - result.points[0].sinad_db) / 40.0;
        assert!((slope - 1.0).abs() < 0.2, "slope {slope}");
        // Quantization-limited DR far above the paper's 63 dB circuit limit
        // ("over 13 bits" = 80 dB+ for the ideal loop).
        assert!(
            result.dynamic_range_db > 75.0,
            "ideal dr {}",
            result.dynamic_range_db
        );
        assert!(result.dynamic_range_bits() > 12.0);
        assert!(result.peak_sinad_db() >= result.points[3].sinad_db);
    }
}
