//! Converter and signal-chain quality metrics: SNR, THD, SINAD, SFDR,
//! dynamic range and ENOB, measured from a [`Spectrum`] the way the paper's
//! spectrum-analyzer numbers are.
//!
//! [`HarmonicAnalysis`] locates the fundamental, attributes window leakage
//! around each tone to that tone, sums harmonic powers, and integrates the
//! remaining in-band power as noise. [`BandLimits`] restricts the noise
//! integral to a signal band (the paper quotes SNR "with a signal bandwidth
//! of 10 kHz" for the modulators and 2.5 MHz for the delay line).

use crate::spectrum::Spectrum;
use crate::{power_db, DspError};

/// The frequency band over which noise is integrated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandLimits {
    /// Lower edge in hertz (inclusive).
    pub low_hz: f64,
    /// Upper edge in hertz (inclusive).
    pub high_hz: f64,
}

impl BandLimits {
    /// A band from DC (excluding the DC bin itself) to `high_hz`.
    #[must_use]
    pub fn up_to(high_hz: f64) -> Self {
        BandLimits {
            low_hz: 0.0,
            high_hz,
        }
    }

    /// The full Nyquist band for sample rate `fs`.
    #[must_use]
    pub(crate) fn nyquist(fs: f64) -> Self {
        BandLimits {
            low_hz: 0.0,
            high_hz: fs / 2.0,
        }
    }
}

/// Result of harmonic analysis of one spectrum.
///
/// ```
/// use si_dsp::signal::SineWave;
/// use si_dsp::spectrum::Spectrum;
/// use si_dsp::window::Window;
/// use si_dsp::metrics::HarmonicAnalysis;
///
/// # fn main() -> Result<(), si_dsp::DspError> {
/// let n = 8192;
/// // A tone with a mild cubic nonlinearity ⇒ visible HD3.
/// let samples: Vec<f64> = SineWave::coherent(1.0, 129, n)?
///     .take(n)
///     .map(|x| x + 0.001 * x * x * x)
///     .collect();
/// let spec = Spectrum::periodogram(&samples, Window::Blackman)?;
/// let analysis = HarmonicAnalysis::of(&spec, 5)?;
/// assert_eq!(analysis.fundamental_bin(), 129);
/// assert!(analysis.thd_db() < -60.0 && analysis.thd_db() > -75.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HarmonicAnalysis {
    fundamental_bin: usize,
    signal_power: f64,
    harmonic_powers: Vec<f64>,
    noise_power: f64,
}

impl HarmonicAnalysis {
    /// Analyzes `spectrum`, taking the largest non-DC bin as the fundamental
    /// and accounting `harmonics` harmonic tones (2nd, 3rd, …). Noise is
    /// integrated over the whole Nyquist band.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty spectrum.
    pub fn of(spectrum: &Spectrum, harmonics: usize) -> Result<Self, DspError> {
        Self::in_band(spectrum, harmonics, 1.0, BandLimits::nyquist(1.0))
    }

    /// Analyzes `spectrum` with noise integrated only inside `band`
    /// (frequencies interpreted at sample rate `fs`).
    ///
    /// Harmonics that alias past Nyquist are folded back, as they would be in
    /// the sampled system.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty spectrum, or
    /// [`DspError::InvalidParameter`] for a non-positive `fs` or an inverted
    /// band.
    pub fn in_band(
        spectrum: &Spectrum,
        harmonics: usize,
        fs: f64,
        band: BandLimits,
    ) -> Result<Self, DspError> {
        if spectrum.is_empty() {
            return Err(DspError::EmptyInput);
        }
        if !(fs > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "fs",
                constraint: "sample rate must be positive",
            });
        }
        if band.low_hz > band.high_hz || band.low_hz < 0.0 {
            return Err(DspError::InvalidParameter {
                name: "band",
                constraint: "band must satisfy 0 <= low <= high",
            });
        }
        // Search for the fundamental inside the analysis band only —
        // shaped out-of-band noise (ΔΣ spectra) must not win the peak.
        let k_lo = spectrum.frequency_bin(band.low_hz, fs);
        let k_hi = spectrum.frequency_bin(band.high_hz, fs);
        let (fundamental_bin, _) = spectrum.peak_bin_in(k_lo, k_hi);
        let signal_power = spectrum.tone_power(fundamental_bin);
        let n = spectrum.fft_len();
        let mut harmonic_bins = Vec::with_capacity(harmonics);
        let mut harmonic_powers = Vec::with_capacity(harmonics);
        // Bins already attributed to the fundamental's window lobe must not
        // be double-counted as harmonic power (matters when the fundamental
        // sits within 2·spread bins of a harmonic, e.g. very low tones).
        let spread = spectrum.window().spread_bins();
        let fund_lo = fundamental_bin.saturating_sub(spread);
        let fund_hi = fundamental_bin + spread;
        for h in 2..=(harmonics + 1) {
            let bin = fold_bin(fundamental_bin * h, n);
            harmonic_bins.push(bin);
            let lo = bin.saturating_sub(spread);
            let hi = (bin + spread).min(spectrum.len().saturating_sub(1));
            let raw: f64 = (lo..=hi)
                .filter(|k| *k < fund_lo || *k > fund_hi)
                .map(|k| spectrum.powers()[k])
                .sum();
            harmonic_powers.push(raw / spectrum.window().noise_bandwidth_bins());
        }
        let mut excluded = vec![0, fundamental_bin];
        excluded.extend_from_slice(&harmonic_bins);
        let noise_power = spectrum.band_power_excluding(fs, band.low_hz, band.high_hz, &excluded);
        Ok(HarmonicAnalysis {
            fundamental_bin,
            signal_power,
            harmonic_powers,
            noise_power,
        })
    }

    /// The bin index of the detected fundamental.
    #[must_use]
    pub fn fundamental_bin(&self) -> usize {
        self.fundamental_bin
    }

    /// Power of the fundamental tone (linear).
    #[must_use]
    pub fn signal_power(&self) -> f64 {
        self.signal_power
    }

    /// Total harmonic distortion: harmonic power relative to the signal, in
    /// dB (negative for clean signals; the paper quotes −50…−62 dB).
    #[must_use]
    pub fn thd_db(&self) -> f64 {
        let harm: f64 = self.harmonic_powers.iter().sum();
        power_db(harm / self.signal_power)
    }

    /// Signal-to-noise ratio in dB, harmonics excluded from the noise.
    #[must_use]
    pub fn snr_db(&self) -> f64 {
        power_db(self.signal_power / self.noise_power)
    }

    /// Signal to noise-and-distortion (SINAD/SNDR) in dB — what the paper's
    /// Fig. 7 plots as "Signal/(Noise+THD)".
    #[must_use]
    pub fn sinad_db(&self) -> f64 {
        let harm: f64 = self.harmonic_powers.iter().sum();
        power_db(self.signal_power / (self.noise_power + harm))
    }

    /// Effective number of bits from the SINAD: `(SINAD − 1.76) / 6.02`.
    #[must_use]
    pub fn enob(&self) -> f64 {
        (self.sinad_db() - 1.76) / 6.02
    }
}

/// Folds a harmonic's bin index back into the one-sided spectrum of an
/// `n`-point FFT, modelling aliasing in the sampled system.
#[must_use]
pub(crate) fn fold_bin(bin: usize, n: usize) -> usize {
    let m = bin % n;
    if m <= n / 2 {
        m
    } else {
        n - m
    }
}

/// Dynamic-range estimate from a SNDR-vs-level sweep: the input level (in dB
/// relative to full scale) where the interpolated SNDR crosses 0 dB, negated.
///
/// This is how Fig. 7's "10.5 bit dynamic range" is read off: DR(dB) is the
/// distance from full scale down to the level that yields SNDR = 0 dB.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if the slices differ in length,
/// [`DspError::EmptyInput`] if fewer than two points are supplied, or
/// [`DspError::InvalidParameter`] if no 0 dB crossing exists in the data.
pub fn dynamic_range_db(levels_db: &[f64], sndr_db: &[f64]) -> Result<f64, DspError> {
    if levels_db.len() != sndr_db.len() {
        return Err(DspError::LengthMismatch {
            expected: levels_db.len(),
            actual: sndr_db.len(),
        });
    }
    if levels_db.len() < 2 {
        return Err(DspError::EmptyInput);
    }
    // Walk up from the lowest level and find the first crossing of 0 dB.
    let mut order: Vec<usize> = (0..levels_db.len()).collect();
    order.sort_by(|&a, &b| levels_db[a].total_cmp(&levels_db[b]));
    for w in order.windows(2) {
        let (i, j) = (w[0], w[1]);
        let (s0, s1) = (sndr_db[i], sndr_db[j]);
        if s0 <= 0.0 && s1 > 0.0 {
            let t = -s0 / (s1 - s0);
            let level = levels_db[i] + t * (levels_db[j] - levels_db[i]);
            return Ok(-level);
        }
    }
    // All points above 0 dB: extrapolate below the lowest point using the
    // ideal 1 dB/dB slope of a noise-limited converter.
    let lowest = order[0];
    if sndr_db[lowest] > 0.0 {
        return Ok(-(levels_db[lowest] - sndr_db[lowest]));
    }
    Err(DspError::InvalidParameter {
        name: "sndr_db",
        constraint: "sweep never crosses 0 dB sndr",
    })
}

/// Converts a dynamic range in dB to effective bits: `(DR − 1.76) / 6.02`.
///
/// ```
/// // The paper's 10.5-bit modulators correspond to ≈ 65 dB.
/// let bits = si_dsp::metrics::db_to_bits(64.97);
/// assert!((bits - 10.5).abs() < 0.01);
/// ```
#[must_use]
pub fn db_to_bits(dr_db: f64) -> f64 {
    (dr_db - 1.76) / 6.02
}

/// The theoretical peak SQNR of an ideal order-`l` ΔΣ modulator with a
/// 1-bit quantizer at oversampling ratio `osr`, in dB:
/// `SQNR = 10·log10( (2l+1)·OSR^(2l+1) / π^(2l) ) + 1.76`.
///
/// For `l = 2`, OSR = 128 this gives ≈ 94 dB — far above the paper's 63 dB,
/// which is the quantitative form of its claim that circuit noise, not
/// quantization, limits the dynamic range.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `order` is zero or `osr < 1`.
pub fn ideal_delta_sigma_sqnr_db(order: u32, osr: f64) -> Result<f64, DspError> {
    if order == 0 {
        return Err(DspError::InvalidParameter {
            name: "order",
            constraint: "modulator order must be at least 1",
        });
    }
    if osr < 1.0 {
        return Err(DspError::InvalidParameter {
            name: "osr",
            constraint: "oversampling ratio must be at least 1",
        });
    }
    let l = order as f64;
    let ratio = (2.0 * l + 1.0) * osr.powf(2.0 * l + 1.0) / std::f64::consts::PI.powf(2.0 * l);
    Ok(power_db(ratio) + 1.76)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{GaussianNoise, SineWave};
    use crate::window::Window;

    fn spectrum_of(samples: &[f64]) -> Spectrum {
        Spectrum::periodogram(samples, Window::Blackman).unwrap()
    }

    #[test]
    fn clean_tone_has_huge_snr_and_thd_floor() {
        let n = 8192;
        let samples: Vec<f64> = SineWave::coherent(1.0, 511, n).unwrap().take(n).collect();
        let a = HarmonicAnalysis::of(&spectrum_of(&samples), 5).unwrap();
        assert_eq!(a.fundamental_bin(), 511);
        assert!(a.snr_db() > 120.0, "snr {}", a.snr_db());
        assert!(a.thd_db() < -120.0, "thd {}", a.thd_db());
    }

    #[test]
    fn known_snr_is_recovered() {
        let n = 65536;
        let sigma = 1e-3; // SNR = 20log10((1/√2)/1e-3) ≈ 56.99 dB
        let noise = GaussianNoise::new(sigma, 17);
        let samples: Vec<f64> = SineWave::coherent(1.0, 1001, n)
            .unwrap()
            .zip(noise)
            .take(n)
            .map(|(s, e)| s + e)
            .collect();
        let a = HarmonicAnalysis::of(&spectrum_of(&samples), 5).unwrap();
        let expected = 20.0 * (1.0 / 2f64.sqrt() / sigma).log10();
        assert!(
            (a.snr_db() - expected).abs() < 0.5,
            "snr {} vs expected {expected}",
            a.snr_db()
        );
    }

    #[test]
    fn known_thd_is_recovered() {
        let n = 16384;
        // x + k·x² gives HD2 amplitude k/2 ⇒ THD = 20log10(k/2).
        let k = 0.01;
        let samples: Vec<f64> = SineWave::coherent(1.0, 721, n)
            .unwrap()
            .take(n)
            .map(|x| x + k * x * x)
            .collect();
        let a = HarmonicAnalysis::of(&spectrum_of(&samples), 5).unwrap();
        let expected = 20.0 * (k / 2.0).log10();
        assert!(
            (a.thd_db() - expected).abs() < 0.2,
            "thd {} vs {expected}",
            a.thd_db()
        );
    }

    #[test]
    fn band_limiting_raises_snr_for_out_of_band_noise() {
        let n = 65536;
        let fs = 2.45e6;
        let noise = GaussianNoise::new(0.01, 3);
        let samples: Vec<f64> = SineWave::coherent(1.0, 53, n)
            .unwrap()
            .zip(noise)
            .take(n)
            .map(|(s, e)| s + e)
            .collect();
        let spec = spectrum_of(&samples);
        let wide = HarmonicAnalysis::in_band(&spec, 5, fs, BandLimits::nyquist(fs)).unwrap();
        let narrow = HarmonicAnalysis::in_band(&spec, 5, fs, BandLimits::up_to(10e3)).unwrap();
        // Band is 10k/1.225M of Nyquist ⇒ about 21 dB less noise.
        let gain = narrow.snr_db() - wide.snr_db();
        assert!((gain - 20.9).abs() < 1.5, "band gain {gain}");
    }

    #[test]
    fn sinad_combines_noise_and_distortion() {
        let n = 16384;
        let noise = GaussianNoise::new(5e-4, 9);
        let samples: Vec<f64> = SineWave::coherent(1.0, 333, n)
            .unwrap()
            .zip(noise)
            .take(n)
            .map(|(x, e)| x + 0.002 * x * x + e)
            .collect();
        let a = HarmonicAnalysis::of(&spectrum_of(&samples), 5).unwrap();
        assert!(a.sinad_db() < a.snr_db());
        assert!(a.sinad_db() < -a.thd_db());
        let enob_expected = (a.sinad_db() - 1.76) / 6.02;
        assert!((a.enob() - enob_expected).abs() < 1e-12);
    }

    #[test]
    fn fold_bin_aliases_correctly() {
        assert_eq!(fold_bin(100, 1024), 100);
        assert_eq!(fold_bin(600, 1024), 424);
        assert_eq!(fold_bin(1024, 1024), 0);
        assert_eq!(fold_bin(1500, 1024), 476);
        assert_eq!(fold_bin(512, 1024), 512);
    }

    #[test]
    fn harmonics_past_nyquist_are_folded() {
        let n = 4096;
        // Fundamental at bin 1500; HD2 at 3000 folds to 1096.
        let fund: Vec<f64> = SineWave::coherent(1.0, 1500, n).unwrap().take(n).collect();
        let hd2: Vec<f64> = SineWave::coherent(0.01, 1096, n).unwrap().take(n).collect();
        let samples: Vec<f64> = fund.iter().zip(&hd2).map(|(a, b)| a + b).collect();
        let a = HarmonicAnalysis::of(&spectrum_of(&samples), 2).unwrap();
        assert!((a.thd_db() - -40.0).abs() < 1.0, "thd {}", a.thd_db());
    }

    #[test]
    fn dynamic_range_interpolates_crossing() {
        // Ideal noise-limited converter: SNDR = level + DR.
        let levels = [-80.0, -70.0, -60.0, -40.0, -20.0, 0.0];
        let sndr: Vec<f64> = levels.iter().map(|l| l + 63.0).collect();
        let dr = dynamic_range_db(&levels, &sndr).unwrap();
        assert!((dr - 63.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_range_extrapolates_when_all_positive() {
        let levels = [-40.0, -20.0, 0.0];
        let sndr = [23.0, 43.0, 63.0];
        let dr = dynamic_range_db(&levels, &sndr).unwrap();
        assert!((dr - 63.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_range_rejects_bad_input() {
        assert!(dynamic_range_db(&[0.0], &[1.0]).is_err());
        assert!(dynamic_range_db(&[0.0, 1.0], &[1.0]).is_err());
        assert!(dynamic_range_db(&[-10.0, 0.0], &[-5.0, -1.0]).is_err());
    }

    #[test]
    fn bits_round_trip() {
        let bits = 10.0;
        assert!((db_to_bits(bits * 6.02 + 1.76) - bits).abs() < 1e-12);
        assert!((db_to_bits(64.97) - 10.5).abs() < 0.01);
    }

    #[test]
    fn ideal_second_order_sqnr_matches_textbook() {
        // Candy & Temes: 2nd order, OSR 128 ⇒ ~94 dB peak SQNR.
        let sqnr = ideal_delta_sigma_sqnr_db(2, 128.0).unwrap();
        assert!((sqnr - 94.2).abs() < 1.0, "sqnr {sqnr}");
        // Paper's claim: ideal would be "over 13 bits".
        assert!(db_to_bits(sqnr) > 13.0);
        assert!(ideal_delta_sigma_sqnr_db(0, 128.0).is_err());
        assert!(ideal_delta_sigma_sqnr_db(2, 0.5).is_err());
    }

    #[test]
    fn osr_doubling_gains_15_db_for_second_order() {
        let a = ideal_delta_sigma_sqnr_db(2, 64.0).unwrap();
        let b = ideal_delta_sigma_sqnr_db(2, 128.0).unwrap();
        assert!((b - a - 15.05).abs() < 0.1, "gain {}", b - a);
    }
}
