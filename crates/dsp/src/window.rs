//! FFT window functions.
//!
//! The paper reads its spectra from "a 64K-point FFT using a blackman
//! window"; [`Window::Blackman`] reproduces that. The other windows exist for
//! cross-checks and for the property tests that verify metric invariance to
//! the window choice.
//!
//! Two derived quantities matter for calibrated measurements:
//!
//! * the **coherent gain** (mean of the window) scales tone amplitudes,
//! * the **noise-equivalent bandwidth** in bins scales broadband noise power,
//! * the **spread** is how many bins a windowed tone smears into, which the
//!   harmonic analysis in [`crate::metrics`] must mask out around each tone.

use crate::DspError;

/// A window function applied before the FFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Window {
    /// No windowing (all ones). Spread of a coherent tone: 1 bin.
    Rectangular,
    /// Hann (raised cosine).
    Hann,
    /// Hamming.
    Hamming,
    /// Classic 3-term Blackman — the paper's window.
    #[default]
    Blackman,
    /// 4-term Blackman–Harris (very low sidelobes, wider main lobe).
    BlackmanHarris,
}

impl Window {
    /// All supported windows, for exhaustive tests and sweeps.
    pub const ALL: [Window; 5] = [
        Window::Rectangular,
        Window::Hann,
        Window::Hamming,
        Window::Blackman,
        Window::BlackmanHarris,
    ];

    /// The window coefficient at sample `i` of an `n`-point window
    /// (periodic/DFT-even convention, suitable for spectral analysis).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub(crate) fn coefficient(self, i: usize, n: usize) -> f64 {
        assert!(i < n, "window index {i} out of range for length {n}");
        if n == 1 {
            return 1.0;
        }
        let x = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * x.cos(),
            Window::Hamming => 0.54 - 0.46 * x.cos(),
            Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
            Window::BlackmanHarris => {
                0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos() - 0.01168 * (3.0 * x).cos()
            }
        }
    }

    /// Generates the full `n`-point window.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `n == 0`.
    pub fn generate(self, n: usize) -> Result<Vec<f64>, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput);
        }
        Ok((0..n).map(|i| self.coefficient(i, n)).collect())
    }

    /// Multiplies `signal` by the window in place.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if the signal is empty.
    pub fn apply(self, signal: &mut [f64]) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput);
        }
        let n = signal.len();
        for (i, s) in signal.iter_mut().enumerate() {
            *s *= self.coefficient(i, n);
        }
        Ok(())
    }

    /// Coherent gain: the mean of the window coefficients. A coherent tone's
    /// measured amplitude is scaled by this factor.
    ///
    /// ```
    /// use si_dsp::window::Window;
    /// assert_eq!(Window::Rectangular.coherent_gain(), 1.0);
    /// assert!((Window::Blackman.coherent_gain() - 0.42).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn coherent_gain(self) -> f64 {
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5,
            Window::Hamming => 0.54,
            Window::Blackman => 0.42,
            Window::BlackmanHarris => 0.35875,
        }
    }

    /// Noise-equivalent bandwidth in bins: `N·Σw² / (Σw)²`.
    ///
    /// Broadband noise power integrated from a windowed periodogram must be
    /// divided by this to be calibrated against tone power.
    #[must_use]
    pub(crate) fn noise_bandwidth_bins(self) -> f64 {
        // Closed forms: NENBW = Σa_k² ·? — use the cosine-coefficient identity:
        // for w(x) = Σ a_k cos(kx), mean(w²) = a_0² + Σ_{k≥1} a_k²/2.
        let coeffs: &[f64] = match self {
            Window::Rectangular => &[1.0],
            Window::Hann => &[0.5, 0.5],
            Window::Hamming => &[0.54, 0.46],
            Window::Blackman => &[0.42, 0.5, 0.08],
            Window::BlackmanHarris => &[0.35875, 0.48829, 0.14128, 0.01168],
        };
        let mean_sq = coeffs[0] * coeffs[0] + coeffs[1..].iter().map(|a| a * a / 2.0).sum::<f64>();
        mean_sq / (self.coherent_gain() * self.coherent_gain())
    }

    /// How many bins on each side of a coherent tone contain significant
    /// leakage and must be attributed to the tone during harmonic analysis.
    #[must_use]
    pub(crate) fn spread_bins(self) -> usize {
        match self {
            Window::Rectangular => 1,
            Window::Hann | Window::Hamming => 2,
            Window::Blackman => 3,
            Window::BlackmanHarris => 4,
        }
    }

    /// A short lowercase name (`"blackman"`, ...), handy for report rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Window::Rectangular => "rectangular",
            Window::Hann => "hann",
            Window::Hamming => "hamming",
            Window::Blackman => "blackman",
            Window::BlackmanHarris => "blackman-harris",
        }
    }
}

impl std::fmt::Display for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_rejects_zero_length() {
        assert_eq!(
            Window::Blackman.generate(0).unwrap_err(),
            DspError::EmptyInput
        );
    }

    #[test]
    fn windows_start_near_zero_except_rect_and_hamming() {
        let n = 128;
        assert_eq!(Window::Rectangular.coefficient(0, n), 1.0);
        assert!(Window::Hann.coefficient(0, n).abs() < 1e-15);
        assert!(Window::Blackman.coefficient(0, n).abs() < 1e-12);
        // Hamming deliberately does not reach zero.
        assert!((Window::Hamming.coefficient(0, n) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn peak_is_near_unity_at_center() {
        let n = 1024;
        for w in Window::ALL {
            let peak = w.coefficient(n / 2, n);
            assert!(
                (0.99..=1.01).contains(&peak),
                "{w} peak {peak} not near unity"
            );
        }
    }

    #[test]
    fn coherent_gain_matches_mean_of_samples() {
        let n = 65536;
        for w in Window::ALL {
            let mean: f64 = w.generate(n).unwrap().iter().sum::<f64>() / n as f64;
            assert!(
                (mean - w.coherent_gain()).abs() < 1e-9,
                "{w}: mean {mean} vs closed form {}",
                w.coherent_gain()
            );
        }
    }

    #[test]
    fn noise_bandwidth_matches_sampled_definition() {
        let n = 65536;
        for w in Window::ALL {
            let samples = w.generate(n).unwrap();
            let sum: f64 = samples.iter().sum();
            let sum_sq: f64 = samples.iter().map(|x| x * x).sum();
            let nenbw = n as f64 * sum_sq / (sum * sum);
            assert!(
                (nenbw - w.noise_bandwidth_bins()).abs() < 1e-6,
                "{w}: sampled {nenbw} vs closed form {}",
                w.noise_bandwidth_bins()
            );
        }
    }

    #[test]
    fn known_noise_bandwidths() {
        assert!((Window::Rectangular.noise_bandwidth_bins() - 1.0).abs() < 1e-12);
        assert!((Window::Hann.noise_bandwidth_bins() - 1.5).abs() < 1e-12);
        // Blackman NENBW ≈ 1.7268
        assert!((Window::Blackman.noise_bandwidth_bins() - 1.7268).abs() < 1e-3);
    }

    #[test]
    fn apply_scales_signal() {
        let mut signal = vec![2.0; 8];
        Window::Hann.apply(&mut signal).unwrap();
        let expected = Window::Hann.generate(8).unwrap();
        for (s, w) in signal.iter().zip(&expected) {
            assert!((s - 2.0 * w).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coefficient_panics_out_of_range() {
        let _ = Window::Hann.coefficient(8, 8);
    }

    #[test]
    fn length_one_window_is_unity() {
        for w in Window::ALL {
            assert_eq!(w.generate(1).unwrap(), vec![1.0]);
        }
    }
}
