//! Windowed power spectra.
//!
//! [`Spectrum`] is the one-sided power spectrum of a real signal, calibrated
//! so that a full-scale coherent sine reads 0 dB regardless of the window
//! (the coherent gain is divided out). This mirrors how the paper's spectrum
//! analyzer plots in Figs. 5 and 6 are normalized to the full-scale input.

use crate::fft::fft_real;
use crate::window::Window;
use crate::{power_db, DspError};

/// One-sided power spectrum of a real signal.
///
/// Bin `k` of an `N`-point transform corresponds to frequency
/// `k · fs / N`; bins run from DC to Nyquist inclusive (`N/2 + 1` bins).
///
/// ```
/// use si_dsp::signal::SineWave;
/// use si_dsp::spectrum::Spectrum;
/// use si_dsp::window::Window;
///
/// # fn main() -> Result<(), si_dsp::DspError> {
/// let samples: Vec<f64> = SineWave::coherent(1.0, 64, 4096)?.take(4096).collect();
/// let spec = Spectrum::periodogram(&samples, Window::Blackman)?;
/// // A unit-amplitude sine carries power 1/2, all of it around bin 64.
/// assert!((spec.tone_power(64) - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    power: Vec<f64>,
    fft_len: usize,
    window: Window,
}

impl Spectrum {
    /// Computes the windowed periodogram of `signal`.
    ///
    /// Power is normalized so a unit-amplitude coherent sine has total tone
    /// power 0.5 (i.e. its rms squared), independent of the window.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::FftLength`] if the signal length is not a nonzero
    /// power of two.
    pub fn periodogram(signal: &[f64], window: Window) -> Result<Self, DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput);
        }
        let n = signal.len();
        let mut windowed = signal.to_vec();
        window.apply(&mut windowed)?;
        let bins = fft_real(&windowed)?;
        let cg = window.coherent_gain();
        // Single-sided scaling: |X[k]|² · 2 / (N·cg)², halving the factor at
        // DC and Nyquist which have no mirror bin.
        let norm = 1.0 / (n as f64 * cg) / (n as f64 * cg);
        let half = n / 2;
        let mut power = Vec::with_capacity(half + 1);
        for (k, z) in bins.iter().take(half + 1).enumerate() {
            let two_sided = z.norm_sqr() * norm;
            let scale = if k == 0 || (n.is_multiple_of(2) && k == half) {
                1.0
            } else {
                2.0
            };
            power.push(two_sided * scale);
        }
        Ok(Spectrum {
            power,
            fft_len: n,
            window,
        })
    }

    /// Assembles a spectrum from already-averaged bin powers — the seam
    /// the streaming Welch accumulator uses to finish without retaining
    /// every per-segment periodogram.
    pub(crate) fn from_averaged_parts(power: Vec<f64>, fft_len: usize, window: Window) -> Self {
        Spectrum {
            power,
            fft_len,
            window,
        }
    }

    /// Number of one-sided bins (`N/2 + 1`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.power.len()
    }

    /// Whether the spectrum holds no bins.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.power.is_empty()
    }

    /// The FFT length `N` the spectrum was computed from.
    #[must_use]
    pub(crate) fn fft_len(&self) -> usize {
        self.fft_len
    }

    /// The window that was applied.
    #[must_use]
    pub fn window(&self) -> Window {
        self.window
    }

    /// Linear power in bin `k`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BinOutOfRange`] if `k` is past Nyquist.
    pub fn power(&self, k: usize) -> Result<f64, DspError> {
        self.power.get(k).copied().ok_or(DspError::BinOutOfRange {
            bin: k,
            len: self.power.len(),
        })
    }

    /// All bin powers, linear scale.
    #[must_use]
    pub fn powers(&self) -> &[f64] {
        &self.power
    }

    /// Bin powers in dB relative to `reference` power.
    ///
    /// Pass the full-scale tone power (`amplitude²/2`) to get dBFS, matching
    /// the paper's plots where 0 dB is the full-scale input.
    #[must_use]
    pub fn to_db(&self, reference: f64) -> Vec<f64> {
        self.power
            .iter()
            .map(|&p| power_db(p / reference))
            .collect()
    }

    /// The frequency of bin `k` at sample rate `fs`.
    #[must_use]
    pub fn bin_frequency(&self, k: usize, fs: f64) -> f64 {
        k as f64 * fs / self.fft_len as f64
    }

    /// The bin index closest to frequency `f` at sample rate `fs`.
    #[must_use]
    pub(crate) fn frequency_bin(&self, f: f64, fs: f64) -> usize {
        let raw = (f * self.fft_len as f64 / fs).round();
        (raw.max(0.0) as usize).min(self.power.len().saturating_sub(1))
    }

    /// The largest bin within `[lo, hi]` (clamped), still excluding DC
    /// leakage. Restricting the search to the signal band matters for
    /// noise-shaped spectra (ΔΣ bitstreams), where out-of-band shaped noise
    /// towers over a small in-band tone.
    #[must_use]
    pub(crate) fn peak_bin_in(&self, lo: usize, hi: usize) -> (usize, f64) {
        let skip = self.window.spread_bins() + 1;
        let last = self.power.len().saturating_sub(1);
        let lo = lo.max(skip).min(last);
        let hi = hi.min(last);
        let mut best = (lo, 0.0);
        for k in lo..=hi {
            if self.power[k] > best.1 {
                best = (k, self.power[k]);
            }
        }
        best
    }

    /// Sums the power of a tone centred at `bin`, including window leakage
    /// `spread` bins to each side (clamped to the spectrum edges).
    ///
    /// The sum is divided by the window's noise-equivalent bandwidth so that
    /// a coherent sine of amplitude `A` always reads `A²/2`, for any window
    /// (by Parseval, the windowed lobe integrates to `A²/2 · NENBW`).
    #[must_use]
    pub fn tone_power(&self, bin: usize) -> f64 {
        let spread = self.window.spread_bins();
        let lo = bin.saturating_sub(spread);
        let hi = (bin + spread).min(self.power.len().saturating_sub(1));
        self.power[lo..=hi].iter().sum::<f64>() / self.window.noise_bandwidth_bins()
    }

    /// Total in-band power between `f_lo` and `f_hi` (inclusive), with the
    /// given tone bins (and their window spread) excluded. Used for noise
    /// integration in SNR measurements.
    #[must_use]
    pub(crate) fn band_power_excluding(
        &self,
        fs: f64,
        f_lo: f64,
        f_hi: f64,
        excluded_tones: &[usize],
    ) -> f64 {
        let spread = self.window.spread_bins();
        let k_lo = self.frequency_bin(f_lo, fs);
        let k_hi = self.frequency_bin(f_hi, fs);
        let mut total = 0.0;
        'bins: for k in k_lo..=k_hi {
            for &t in excluded_tones {
                if k + spread >= t && k <= t + spread {
                    continue 'bins;
                }
            }
            total += self.power[k];
        }
        // Window widens each noise bin by the noise-equivalent bandwidth;
        // divide it out so integrated noise power is calibrated.
        total / self.window.noise_bandwidth_bins()
    }
}

#[cfg(test)]
impl Spectrum {
    /// Averages several periodograms of equal length (Bartlett averaging):
    /// the reference the Welch tests compare against.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty slice and
    /// [`DspError::LengthMismatch`] if the spectra disagree in length.
    pub(crate) fn average(spectra: &[Spectrum]) -> Result<Self, DspError> {
        let first = spectra.first().ok_or(DspError::EmptyInput)?;
        let mut acc = vec![0.0; first.power.len()];
        for s in spectra {
            if s.power.len() != first.power.len() {
                return Err(DspError::LengthMismatch {
                    expected: first.power.len(),
                    actual: s.power.len(),
                });
            }
            for (a, p) in acc.iter_mut().zip(&s.power) {
                *a += p;
            }
        }
        let k = spectra.len() as f64;
        for a in &mut acc {
            *a /= k;
        }
        Ok(Spectrum {
            power: acc,
            fft_len: first.fft_len,
            window: first.window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SineWave;

    fn coherent_sine(amplitude: f64, cycles: usize, n: usize) -> Vec<f64> {
        SineWave::coherent(amplitude, cycles, n)
            .unwrap()
            .take(n)
            .collect()
    }

    #[test]
    fn empty_signal_is_rejected() {
        assert!(matches!(
            Spectrum::periodogram(&[], Window::Blackman),
            Err(DspError::EmptyInput)
        ));
    }

    #[test]
    fn tone_power_is_calibrated_for_every_window() {
        let n = 8192;
        let amplitude = 0.7;
        let samples = coherent_sine(amplitude, 513, n);
        for w in Window::ALL {
            let spec = Spectrum::periodogram(&samples, w).unwrap();
            let (bin, _) = spec.peak_bin_in(0, spec.len() - 1);
            assert_eq!(bin, 513, "window {w}");
            let tone = spec.tone_power(bin);
            let expected = amplitude * amplitude / 2.0;
            assert!(
                (tone - expected).abs() / expected < 1e-6,
                "window {w}: tone power {tone} vs expected {expected}"
            );
        }
    }

    #[test]
    fn dc_power_is_calibrated() {
        let n = 1024;
        let samples = vec![0.25; n];
        let spec = Spectrum::periodogram(&samples, Window::Rectangular).unwrap();
        assert!((spec.power(0).unwrap() - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn bin_frequency_round_trips() {
        let n = 4096;
        let samples = coherent_sine(1.0, 100, n);
        let spec = Spectrum::periodogram(&samples, Window::Blackman).unwrap();
        let fs = 2.45e6;
        let f = spec.bin_frequency(100, fs);
        assert_eq!(spec.frequency_bin(f, fs), 100);
    }

    #[test]
    fn to_db_references_full_scale() {
        let n = 4096;
        let samples = coherent_sine(0.5, 99, n); // -6 dBFS w.r.t. amplitude 1.0
        let spec = Spectrum::periodogram(&samples, Window::Blackman).unwrap();
        let db = spec.to_db(0.5); // reference: full-scale power 1²/2
                                  // Collect the leakage bins of the tone to get its total level.
        let tone_db = crate::power_db(spec.tone_power(99) / 0.5);
        assert!((tone_db + 6.02).abs() < 0.05, "tone at {tone_db} dBFS");
        assert!(db[99] < 0.0);
    }

    #[test]
    fn white_noise_band_power_is_calibrated() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 65536;
        let sigma = 0.01;
        let mut rng = StdRng::seed_from_u64(7);
        // Box-Muller pairs.
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        for w in [Window::Rectangular, Window::Blackman] {
            let spec = Spectrum::periodogram(&samples, w).unwrap();
            let fs = 1.0;
            let total = spec.band_power_excluding(fs, 0.0, 0.5, &[]);
            let expected = sigma * sigma;
            assert!(
                (total - expected).abs() / expected < 0.1,
                "window {w}: noise power {total} vs {expected}"
            );
        }
    }

    #[test]
    fn average_reduces_variance() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 1024;
        let mut rng = StdRng::seed_from_u64(3);
        let spectra: Vec<Spectrum> = (0..16)
            .map(|_| {
                let s: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                Spectrum::periodogram(&s, Window::Hann).unwrap()
            })
            .collect();
        let avg = Spectrum::average(&spectra).unwrap();
        let var_of = |s: &Spectrum| {
            let m = s.powers().iter().sum::<f64>() / s.len() as f64;
            s.powers().iter().map(|p| (p - m) * (p - m)).sum::<f64>() / s.len() as f64
        };
        assert!(var_of(&avg) < var_of(&spectra[0]));
    }

    #[test]
    fn average_rejects_mismatched_lengths() {
        let a = Spectrum::periodogram(&vec![0.0; 64], Window::Hann).unwrap();
        let b = Spectrum::periodogram(&vec![0.0; 128], Window::Hann).unwrap();
        assert!(matches!(
            Spectrum::average(&[a, b]),
            Err(DspError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn band_power_excludes_tones() {
        let n = 4096;
        let samples = coherent_sine(1.0, 200, n);
        let spec = Spectrum::periodogram(&samples, Window::Blackman).unwrap();
        let residual = spec.band_power_excluding(1.0, 0.0, 0.5, &[200]);
        assert!(residual < 1e-10, "residual {residual}");
    }
}
