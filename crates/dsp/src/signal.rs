//! Test-signal generators: coherent sines, Gaussian white noise, and
//! 1/f (flicker) noise.
//!
//! Coherent sampling — an integer number of cycles per FFT record — is what
//! keeps a tone in a single bin so that THD/SNR can be read without
//! scalloping corrections. [`SineWave::coherent`] enforces it and
//! [`coherent_cycles`] picks the nearest odd cycle count to a target
//! frequency, the standard trick to avoid repeating the same sample values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::DspError;

/// An endless sine-wave sample source.
///
/// ```
/// use si_dsp::signal::SineWave;
///
/// # fn main() -> Result<(), si_dsp::DspError> {
/// // 2 kHz tone sampled at 2.45 MHz, amplitude 3 µA — Fig. 5's stimulus.
/// let sine = SineWave::new(3e-6, 2e3, 2.45e6)?;
/// let first: Vec<f64> = sine.take(4).collect();
/// assert!(first[0].abs() < 1e-18); // starts at zero phase
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SineWave {
    amplitude: f64,
    phase_step: f64,
    phase: f64,
}

impl SineWave {
    /// A sine of `amplitude` at frequency `f` sampled at `fs`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `fs <= 0`, `f < 0`, or
    /// `f > fs/2` (aliased stimulus).
    pub fn new(amplitude: f64, f: f64, fs: f64) -> Result<Self, DspError> {
        if !(fs > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "fs",
                constraint: "sample rate must be positive",
            });
        }
        if !(0.0..=fs / 2.0).contains(&f) {
            return Err(DspError::InvalidParameter {
                name: "f",
                constraint: "frequency must lie in [0, fs/2]",
            });
        }
        Ok(SineWave {
            amplitude,
            phase_step: 2.0 * std::f64::consts::PI * f / fs,
            phase: 0.0,
        })
    }

    /// A sine making exactly `cycles` cycles over a record of `record_len`
    /// samples (coherent sampling).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `record_len` is zero or
    /// `cycles > record_len / 2`.
    pub fn coherent(amplitude: f64, cycles: usize, record_len: usize) -> Result<Self, DspError> {
        if record_len == 0 {
            return Err(DspError::InvalidParameter {
                name: "record_len",
                constraint: "record length must be positive",
            });
        }
        if cycles > record_len / 2 {
            return Err(DspError::InvalidParameter {
                name: "cycles",
                constraint: "cycle count must not exceed record_len / 2",
            });
        }
        SineWave::new(amplitude, cycles as f64, record_len as f64)
    }

    /// The amplitude this generator was built with.
    #[must_use]
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }
}

impl Iterator for SineWave {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let sample = self.amplitude * self.phase.sin();
        self.phase += self.phase_step;
        // Wrap to keep precision over very long runs.
        if self.phase > 2.0 * std::f64::consts::PI {
            self.phase -= 2.0 * std::f64::consts::PI;
        }
        Some(sample)
    }
}

/// Picks a coherent cycle count for a target frequency.
///
/// Returns the odd integer closest to `f_target / fs · record_len`, clamped
/// to at least 1. Odd (and ideally mutually prime with the record length)
/// cycle counts exercise distinct code values every sample.
///
/// ```
/// // ~2 kHz in a 64K record at 2.45 MHz → 53 cycles (the paper's setup).
/// let cycles = si_dsp::signal::coherent_cycles(2e3, 2.45e6, 65536);
/// assert_eq!(cycles, 53);
/// ```
#[must_use]
pub fn coherent_cycles(f_target: f64, fs: f64, record_len: usize) -> usize {
    let ideal = f_target / fs * record_len as f64;
    let rounded = ideal.round().max(1.0) as usize;
    if rounded % 2 == 1 {
        rounded
    } else if ideal >= rounded as f64 || rounded == 1 {
        rounded + 1
    } else {
        rounded - 1
    }
}

/// Deterministic Gaussian white-noise source (Box–Muller over a seeded
/// [`StdRng`]).
///
/// ```
/// use si_dsp::signal::GaussianNoise;
/// let mut noise = GaussianNoise::new(33e-9, 42); // 33 nA rms, the paper's value
/// let sample = noise.sample();
/// assert!(sample.abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    sigma: f64,
    rng: StdRng,
    cached: Option<f64>,
}

impl GaussianNoise {
    /// A source of zero-mean Gaussian samples with standard deviation
    /// `sigma`, seeded deterministically.
    #[must_use]
    pub fn new(sigma: f64, seed: u64) -> Self {
        GaussianNoise {
            sigma,
            rng: StdRng::seed_from_u64(seed),
            cached: None,
        }
    }

    /// The configured standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample.
    pub fn sample(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z * self.sigma;
        }
        let u1: f64 = self.rng.gen_range(1e-300..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos() * self.sigma
    }
}

impl Iterator for GaussianNoise {
    type Item = f64;
    fn next(&mut self) -> Option<f64> {
        Some(self.sample())
    }
}

/// 1/f (flicker) noise source built by summing octave-spaced first-order
/// low-pass filtered white sources (the Voss–McCartney-like construction).
///
/// Used to give the chopper-stabilized modulator something to chop: the
/// paper's measured chips were thermal-noise dominated, and the chopper's
/// benefit only appears when low-frequency noise dominates instead.
#[derive(Debug, Clone)]
pub struct FlickerNoise {
    rows: Vec<f64>,
    white: GaussianNoise,
    counter: u64,
    scale: f64,
}

impl FlickerNoise {
    /// A 1/f source with approximately `sigma` total rms over `octaves`
    /// octaves, deterministically seeded.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `octaves` is zero or
    /// greater than 48.
    pub fn new(sigma: f64, octaves: usize, seed: u64) -> Result<Self, DspError> {
        if octaves == 0 || octaves > 48 {
            return Err(DspError::InvalidParameter {
                name: "octaves",
                constraint: "octave count must be in 1..=48",
            });
        }
        let mut white = GaussianNoise::new(1.0, seed);
        let rows = (0..octaves).map(|_| white.sample()).collect();
        Ok(FlickerNoise {
            rows,
            white,
            counter: 0,
            // Each row contributes unit variance; rms of the sum of
            // independent rows is sqrt(octaves).
            scale: sigma / (octaves as f64).sqrt(),
        })
    }

    /// Draws one sample.
    pub fn sample(&mut self) -> f64 {
        self.counter = self.counter.wrapping_add(1);
        // Update row k when bit k of the counter toggles to 1 — row k then
        // refreshes every 2^k samples, concentrating its power below
        // fs / 2^k: summing the rows yields a ~1/f power envelope.
        let row = (self.counter.trailing_zeros() as usize).min(self.rows.len() - 1);
        self.rows[row] = self.white.sample();
        self.rows.iter().sum::<f64>() * self.scale
    }
}

impl Iterator for FlickerNoise {
    type Item = f64;
    fn next(&mut self) -> Option<f64> {
        Some(self.sample())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::Spectrum;
    use crate::window::Window;

    #[test]
    fn sine_rejects_bad_parameters() {
        assert!(SineWave::new(1.0, 1.0, 0.0).is_err());
        assert!(SineWave::new(1.0, -1.0, 10.0).is_err());
        assert!(SineWave::new(1.0, 6.0, 10.0).is_err());
        assert!(SineWave::coherent(1.0, 10, 0).is_err());
        assert!(SineWave::coherent(1.0, 100, 128).is_err());
    }

    #[test]
    fn sine_has_expected_rms_and_period() {
        let n = 1000;
        let samples: Vec<f64> = SineWave::coherent(2.0, 10, n).unwrap().take(n).collect();
        let rms = (samples.iter().map(|x| x * x).sum::<f64>() / n as f64).sqrt();
        assert!((rms - 2.0 / 2f64.sqrt()).abs() < 1e-9);
        // After one period (100 samples) the waveform repeats.
        for i in 0..100 {
            assert!((samples[i] - samples[i + 100]).abs() < 1e-9);
        }
    }

    #[test]
    fn coherent_cycles_is_odd_and_close() {
        let c = coherent_cycles(2e3, 2.45e6, 65536);
        assert_eq!(c % 2, 1);
        let f_actual = c as f64 * 2.45e6 / 65536.0;
        assert!((f_actual - 2e3).abs() < 2.45e6 / 65536.0);
        assert_eq!(coherent_cycles(0.0, 1.0, 8), 1);
    }

    #[test]
    fn gaussian_noise_statistics() {
        let n = 200_000;
        let sigma = 0.5;
        let samples: Vec<f64> = GaussianNoise::new(sigma, 11).take(n).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(
            (var.sqrt() - sigma).abs() / sigma < 0.02,
            "sd {}",
            var.sqrt()
        );
    }

    #[test]
    fn gaussian_noise_is_deterministic_per_seed() {
        let a: Vec<f64> = GaussianNoise::new(1.0, 5).take(16).collect();
        let b: Vec<f64> = GaussianNoise::new(1.0, 5).take(16).collect();
        let c: Vec<f64> = GaussianNoise::new(1.0, 6).take(16).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn flicker_noise_rejects_bad_octaves() {
        assert!(FlickerNoise::new(1.0, 0, 1).is_err());
        assert!(FlickerNoise::new(1.0, 49, 1).is_err());
    }

    #[test]
    fn flicker_noise_is_low_frequency_heavy() {
        let n = 65536;
        let samples: Vec<f64> = FlickerNoise::new(1.0, 16, 9).unwrap().take(n).collect();
        let spec = Spectrum::periodogram(&samples, Window::Hann).unwrap();
        // Compare power in the bottom 1/64 of the band with an equal-width
        // band at high frequency: 1/f noise should be far heavier at LF.
        let low: f64 = spec.powers()[1..n / 128].iter().sum();
        let high: f64 = spec.powers()[n / 4..n / 4 + n / 128].iter().sum();
        assert!(
            low > 10.0 * high,
            "low band {low} not dominant over high band {high}"
        );
    }

    #[test]
    fn flicker_noise_rms_is_roughly_calibrated() {
        let n = 1 << 17;
        let sigma = 2.0;
        let samples: Vec<f64> = FlickerNoise::new(sigma, 12, 21).unwrap().take(n).collect();
        let rms = (samples.iter().map(|x| x * x).sum::<f64>() / n as f64).sqrt();
        // 1/f construction is approximate: allow a factor-of-2 band.
        assert!(rms > sigma / 2.0 && rms < sigma * 2.0, "rms {rms}");
    }
}
