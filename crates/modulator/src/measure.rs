//! Spectrum measurements of modulator bitstreams — the paper's
//! instrumentation: "a 64K-point FFT using a blackman window".
//!
//! The bitstream (±1) is scaled by the full-scale current so that 0 dB on
//! the resulting spectrum corresponds to a full-scale input, exactly how
//! Figs. 5 and 6 are normalized. SNR/THD are integrated over the signal
//! band (10 kHz for the paper's audio-rate measurements, OSR 128 at
//! 2.45 MHz).

use si_core::Diff;
use si_dsp::metrics::{BandLimits, HarmonicAnalysis};
use si_dsp::signal::{coherent_cycles, SineWave};
use si_dsp::spectrum::Spectrum;
use si_dsp::window::Window;

use crate::{Modulator, ModulatorError};

/// Configuration of one spectrum measurement.
#[derive(Debug, Clone, Copy)]
pub struct MeasurementConfig {
    /// FFT record length (power of two). The paper uses 65 536.
    pub record_len: usize,
    /// Modulator clock frequency in hertz.
    pub clock_hz: f64,
    /// Target stimulus frequency in hertz (snapped to a coherent bin).
    pub signal_hz: f64,
    /// Stimulus amplitude in amperes (differential peak).
    pub amplitude: f64,
    /// Signal band upper edge for noise integration, hertz.
    pub band_hz: f64,
    /// Number of harmonics attributed to distortion.
    pub harmonics: usize,
    /// Samples run (and discarded) before the record starts, letting the
    /// loop forget its start-up transient.
    pub settle: usize,
    /// FFT window.
    pub window: Window,
}

impl MeasurementConfig {
    /// The paper's Fig. 5/6 setup: 64K record, 2.45 MHz clock, 2 kHz
    /// −6 dB (3 µA) stimulus, 10 kHz band, Blackman window.
    #[must_use]
    pub fn paper_fig5() -> Self {
        MeasurementConfig {
            record_len: 65_536,
            clock_hz: 2.45e6,
            signal_hz: 2e3,
            amplitude: 3e-6,
            band_hz: 10e3,
            harmonics: 5,
            settle: 2_000,
            window: Window::Blackman,
        }
    }

    /// A faster variant for unit tests (16K record).
    #[must_use]
    pub fn quick() -> Self {
        MeasurementConfig {
            record_len: 16_384,
            settle: 500,
            ..MeasurementConfig::paper_fig5()
        }
    }

    fn validate(&self) -> Result<(), ModulatorError> {
        if self.record_len == 0 || !self.record_len.is_power_of_two() {
            return Err(ModulatorError::InvalidParameter {
                name: "record_len",
                constraint: "record length must be a nonzero power of two",
            });
        }
        if !(self.clock_hz > 0.0) || !(self.band_hz > 0.0) {
            return Err(ModulatorError::InvalidParameter {
                name: "clock_hz/band_hz",
                constraint: "clock and band must be positive",
            });
        }
        if !(self.amplitude >= 0.0) || !self.amplitude.is_finite() {
            return Err(ModulatorError::InvalidParameter {
                name: "amplitude",
                constraint: "amplitude must be non-negative and finite",
            });
        }
        Ok(())
    }
}

/// The result of one measurement.
#[derive(Debug, Clone)]
pub struct ModMeasurement {
    /// The one-sided power spectrum of the bitstream (normalized so ±1
    /// bits at full scale integrate to 0 dBFS tone power).
    pub spectrum: Spectrum,
    /// In-band SNR in dB (harmonics excluded).
    pub snr_db: f64,
    /// THD in dB (negative).
    pub thd_db: f64,
    /// In-band SINAD in dB — the "Signal/(Noise+THD)" of Fig. 7.
    pub sinad_db: f64,
    /// The detected fundamental bin.
    pub signal_bin: usize,
    /// The coherent stimulus frequency actually used, hertz.
    pub signal_hz: f64,
}

impl ModMeasurement {
    /// The spectrum in dB relative to full scale (the paper's plot axis).
    #[must_use]
    pub fn spectrum_dbfs(&self) -> Vec<f64> {
        // Full-scale reference: a full-scale sine has power 0.5 in
        // bit-normalized units.
        self.spectrum.to_db(0.5)
    }
}

/// Runs the modulator on a coherent sine and measures its output spectrum.
///
/// # Errors
///
/// Propagates configuration and DSP errors.
pub fn measure<M: Modulator + ?Sized>(
    modulator: &mut M,
    config: &MeasurementConfig,
) -> Result<ModMeasurement, ModulatorError> {
    config.validate()?;
    let cycles = coherent_cycles(config.signal_hz, config.clock_hz, config.record_len);
    let amplitude = config.amplitude;
    let mut stimulus = SineWave::coherent(amplitude, cycles, config.record_len)?;
    // Settle the loop before recording.
    for _ in 0..config.settle {
        let x = stimulus.next().unwrap_or(0.0);
        modulator.step(Diff::from_differential(x));
    }
    let bits = record_bits(modulator, &mut stimulus, config.record_len);
    analyze_bits(&bits, config, cycles)
}

/// Runs the chopper modulator and returns **both** spectra of Fig. 6: the
/// pre-output-chopper spectrum (a) and the post-chopper spectrum (b).
///
/// # Errors
///
/// Propagates configuration and DSP errors.
pub fn measure_chopper_taps(
    modulator: &mut crate::si::ChopperSiModulator,
    config: &MeasurementConfig,
) -> Result<(ModMeasurement, ModMeasurement), ModulatorError> {
    config.validate()?;
    let cycles = coherent_cycles(config.signal_hz, config.clock_hz, config.record_len);
    let mut stimulus = SineWave::coherent(config.amplitude, cycles, config.record_len)?;
    for _ in 0..config.settle {
        let x = stimulus.next().unwrap_or(0.0);
        modulator.step_raw(Diff::from_differential(x));
    }
    // Keep the output chopper aligned: regenerate it from the sample index.
    let mut raw = Vec::with_capacity(config.record_len);
    for _ in 0..config.record_len {
        let x = stimulus.next().unwrap_or(0.0);
        raw.push(modulator.step_raw(Diff::from_differential(x)));
    }
    let chopped = crate::chopper::chop_bits(&raw);
    let before = analyze_bits(&raw, config, cycles)?;
    let after = analyze_bits(&chopped, config, cycles)?;
    Ok((before, after))
}

fn record_bits<M: Modulator + ?Sized>(
    modulator: &mut M,
    stimulus: &mut SineWave,
    n: usize,
) -> Vec<i8> {
    (0..n)
        .map(|_| {
            let x = stimulus.next().unwrap_or(0.0);
            modulator.step(Diff::from_differential(x))
        })
        .collect()
}

/// Analyzes a raw ±1 bitstream against a measurement configuration. The
/// `cycles` is the coherent cycle count of the stimulus (used only for
/// reporting; the analyzer finds the fundamental itself).
///
/// # Errors
///
/// Propagates DSP errors.
pub(crate) fn analyze_bits(
    bits: &[i8],
    config: &MeasurementConfig,
    cycles: usize,
) -> Result<ModMeasurement, ModulatorError> {
    let samples: Vec<f64> = bits.iter().map(|&b| f64::from(b)).collect();
    let spectrum = Spectrum::periodogram(&samples, config.window)?;
    let analysis = HarmonicAnalysis::in_band(
        &spectrum,
        config.harmonics,
        config.clock_hz,
        BandLimits::up_to(config.band_hz),
    )?;
    Ok(ModMeasurement {
        snr_db: analysis.snr_db(),
        thd_db: analysis.thd_db(),
        sinad_db: analysis.sinad_db(),
        signal_bin: analysis.fundamental_bin(),
        signal_hz: cycles as f64 * config.clock_hz / config.record_len as f64,
        spectrum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::SecondOrderTopology;
    use crate::ideal::IdealModulator;
    use crate::si::{ChopperSiModulator, SiModulatorConfig};

    #[test]
    fn config_validates() {
        let mut c = MeasurementConfig::quick();
        c.record_len = 1000;
        let mut m = IdealModulator::new(SecondOrderTopology::paper_scaled(), 6e-6).unwrap();
        assert!(measure(&mut m, &c).is_err());
        let mut c = MeasurementConfig::quick();
        c.amplitude = f64::NAN;
        assert!(measure(&mut m, &c).is_err());
    }

    #[test]
    fn ideal_modulator_measurement_is_quantization_limited() {
        let mut m = IdealModulator::new(SecondOrderTopology::paper_scaled(), 6e-6).unwrap();
        let cfg = MeasurementConfig::quick();
        let meas = measure(&mut m, &cfg).unwrap();
        // 2nd-order shaping in a 10 kHz band at 2.45 MHz: very high SNR.
        assert!(meas.snr_db > 65.0, "snr {}", meas.snr_db);
        assert!(meas.sinad_db > 60.0, "sinad {}", meas.sinad_db);
        // Fundamental should land on the coherent bin.
        let expected_bin =
            si_dsp::signal::coherent_cycles(cfg.signal_hz, cfg.clock_hz, cfg.record_len);
        assert_eq!(meas.signal_bin, expected_bin);
    }

    #[test]
    fn chopper_taps_show_signal_translation() {
        let mut m = ChopperSiModulator::new(SiModulatorConfig::ideal(6e-6)).unwrap();
        let cfg = MeasurementConfig::quick();
        let (before, after) = measure_chopper_taps(&mut m, &cfg).unwrap();
        // Chopping by (−1)ⁿ translates the tone to fs/2 − f. Before the
        // output chopper the high-frequency image dominates the baseband
        // bin; after chopping the tone is back at its coherent bin.
        let cycles = si_dsp::signal::coherent_cycles(cfg.signal_hz, cfg.clock_hz, cfg.record_len);
        let image_bin = cfg.record_len / 2 - cycles;
        let pre_low = before.spectrum.tone_power(cycles);
        let pre_high = before.spectrum.tone_power(image_bin);
        assert!(
            pre_high > 100.0 * pre_low,
            "pre-chop: image {pre_high} should dominate baseband {pre_low}"
        );
        let post_low = after.spectrum.tone_power(cycles);
        let post_high = after.spectrum.tone_power(image_bin);
        assert!(
            post_low > 100.0 * post_high,
            "post-chop: baseband {post_low} should dominate image {post_high}"
        );
        assert_eq!(after.signal_bin, cycles);
        assert!(after.sinad_db > 55.0, "post-chop sinad {}", after.sinad_db);
    }

    #[test]
    fn spectrum_dbfs_peaks_near_minus_six_for_half_scale() {
        let mut m = IdealModulator::new(SecondOrderTopology::paper_scaled(), 6e-6).unwrap();
        let cfg = MeasurementConfig::quick(); // 3 µA on a 6 µA scale = −6 dB
        let meas = measure(&mut m, &cfg).unwrap();
        let tone_power = meas.spectrum.tone_power(meas.signal_bin);
        let tone_db = si_dsp::power_db(tone_power / 0.5);
        assert!((tone_db + 6.02).abs() < 0.6, "tone at {tone_db} dBFS");
    }
}
