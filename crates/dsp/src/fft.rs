//! Iterative radix-2 decimation-in-time FFT.
//!
//! The paper's measurements are 64K-point FFTs; a textbook radix-2 transform
//! handles that size in well under a millisecond in release builds, so no
//! mixed-radix machinery is needed. Twiddle factors for a given length are
//! cached in an [`FftPlan`] so repeated transforms (spectrum averaging,
//! sweeps) do not recompute them.

use crate::{Complex, DspError};

/// A reusable FFT plan for a fixed power-of-two length.
///
/// The plan precomputes the bit-reversal permutation and twiddle factors.
///
/// ```
/// use si_dsp::fft::FftPlan;
/// use si_dsp::Complex;
///
/// # fn main() -> Result<(), si_dsp::DspError> {
/// let plan = FftPlan::new(8)?;
/// let mut data = vec![Complex::ONE; 8];
/// plan.forward(&mut data)?;
/// assert!((data[0].re - 8.0).abs() < 1e-12); // DC bin holds the sum
/// assert!(data[1].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    len: usize,
    /// Twiddles `e^{-2πik/len}` for `k` in `0..len/2`.
    twiddles: Vec<Complex>,
    /// Bit-reversal permutation of `0..len`.
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::FftLength`] if `len` is zero or not a power of two.
    pub fn new(len: usize) -> Result<Self, DspError> {
        if len == 0 || !len.is_power_of_two() {
            return Err(DspError::FftLength { len });
        }
        let half = len / 2;
        let mut twiddles = Vec::with_capacity(half.max(1));
        for k in 0..half.max(1) {
            let theta = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
            twiddles.push(Complex::cis(theta));
        }
        let bits = len.trailing_zeros();
        let mut bitrev = vec![0u32; len];
        for (i, slot) in bitrev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - bits.max(1));
        }
        if len == 1 {
            bitrev[0] = 0;
        }
        Ok(FftPlan {
            len,
            twiddles,
            bitrev,
        })
    }

    /// The transform length this plan was built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan length is zero (never true for a constructed plan,
    /// provided for API completeness alongside [`FftPlan::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// In-place forward FFT: `X[k] = Σ x[n]·e^{-2πikn/N}`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `data.len()` differs from the
    /// plan length.
    pub fn forward(&self, data: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(data)?;
        self.permute(data);
        self.butterflies(data, false);
        Ok(())
    }

    /// In-place inverse FFT, normalized by `1/N` so that
    /// `inverse(forward(x)) == x`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `data.len()` differs from the
    /// plan length.
    pub(crate) fn inverse(&self, data: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(data)?;
        self.permute(data);
        self.butterflies(data, true);
        let scale = 1.0 / self.len as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
        Ok(())
    }

    fn check_len(&self, data: &[Complex]) -> Result<(), DspError> {
        if data.len() != self.len {
            return Err(DspError::LengthMismatch {
                expected: self.len,
                actual: data.len(),
            });
        }
        Ok(())
    }

    fn permute(&self, data: &mut [Complex]) {
        for i in 0..self.len {
            let j = self.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    fn butterflies(&self, data: &mut [Complex], inverse: bool) {
        let n = self.len;
        let mut size = 2;
        while size <= n {
            let half = size / 2;
            let step = n / size;
            for start in (0..n).step_by(size) {
                for k in 0..half {
                    let mut w = self.twiddles[k * step];
                    if inverse {
                        w = w.conj();
                    }
                    let even = data[start + k];
                    let odd = data[start + k + half] * w;
                    data[start + k] = even + odd;
                    data[start + k + half] = even - odd;
                }
            }
            size <<= 1;
        }
    }
}

/// Forward FFT of a complex buffer, allocating a plan internally.
///
/// Prefer [`FftPlan`] when transforming repeatedly at the same length.
///
/// # Errors
///
/// Returns [`DspError::FftLength`] if the length is not a nonzero power of
/// two.
pub fn fft(data: &mut [Complex]) -> Result<(), DspError> {
    FftPlan::new(data.len())?.forward(data)
}

/// Inverse FFT of a complex buffer, allocating a plan internally.
///
/// # Errors
///
/// Returns [`DspError::FftLength`] if the length is not a nonzero power of
/// two.
pub fn ifft(data: &mut [Complex]) -> Result<(), DspError> {
    FftPlan::new(data.len())?.inverse(data)
}

/// Forward FFT of a real signal.
///
/// Returns the full `N`-bin complex spectrum (conjugate-symmetric for real
/// input); callers that only need the one-sided spectrum can truncate to
/// `N/2 + 1` bins.
///
/// # Errors
///
/// Returns [`DspError::FftLength`] if the length is not a nonzero power of
/// two.
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex>, DspError> {
    let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
    fft(&mut data)?;
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI: f64 = std::f64::consts::PI;

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| x[t] * Complex::cis(-2.0 * PI * (k * t) as f64 / n as f64))
                    .sum()
            })
            .collect()
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(FftPlan::new(0).unwrap_err(), DspError::FftLength { len: 0 });
        assert_eq!(FftPlan::new(3).unwrap_err(), DspError::FftLength { len: 3 });
        assert_eq!(
            FftPlan::new(100).unwrap_err(),
            DspError::FftLength { len: 100 }
        );
    }

    #[test]
    fn rejects_length_mismatch() {
        let plan = FftPlan::new(8).unwrap();
        let mut short = vec![Complex::ZERO; 4];
        assert!(matches!(
            plan.forward(&mut short),
            Err(DspError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        ));
    }

    #[test]
    fn length_one_is_identity() {
        let mut data = vec![Complex::new(3.0, -2.0)];
        fft(&mut data).unwrap();
        assert_eq!(data[0], Complex::new(3.0, -2.0));
        ifft(&mut data).unwrap();
        assert_eq!(data[0], Complex::new(3.0, -2.0));
    }

    #[test]
    fn matches_naive_dft() {
        let n = 32;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let expected = naive_dft(&x);
        let mut actual = x.clone();
        fft(&mut actual).unwrap();
        for (a, e) in actual.iter().zip(&expected) {
            assert!((*a - *e).abs() < 1e-10, "{a} vs {e}");
        }
    }

    #[test]
    fn inverse_round_trips() {
        let n = 256;
        let original: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let mut data = original.clone();
        fft(&mut data).unwrap();
        ifft(&mut data).unwrap();
        for (a, e) in data.iter().zip(&original) {
            assert!((*a - *e).abs() < 1e-10);
        }
    }

    #[test]
    fn pure_tone_lands_in_single_bin() {
        let n = 1024;
        let bin = 37;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * bin as f64 * i as f64 / n as f64).cos())
            .collect();
        let spectrum = fft_real(&x).unwrap();
        // Energy should be in bins `bin` and `n - bin` only.
        for (k, z) in spectrum.iter().enumerate() {
            let mag = z.abs();
            if k == bin || k == n - bin {
                assert!((mag - n as f64 / 2.0).abs() < 1e-8, "bin {k}: {mag}");
            } else {
                assert!(mag < 1e-8, "leak at bin {k}: {mag}");
            }
        }
    }

    #[test]
    fn real_input_gives_conjugate_symmetric_spectrum() {
        let n = 64;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin() + 0.3).collect();
        let spec = fft_real(&x).unwrap();
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let n = 512;
        let x: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.001).sin()).collect();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let spec = fft_real(&x).unwrap();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn linearity() {
        let n = 128;
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (n - i) as f64)).collect();
        let mut sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let (mut fa, mut fb) = (a, b);
        fft(&mut fa).unwrap();
        fft(&mut fb).unwrap();
        fft(&mut sum).unwrap();
        for i in 0..n {
            assert!((sum[i] - (fa[i] + fb[i])).abs() < 1e-9);
        }
    }
}
