//! Digital filters for the decimation side of the ΔΣ converters.
//!
//! A second-order modulator's bitstream is conventionally decimated with a
//! third-order comb (sinc³) filter — one order above the modulator order so
//! the shaped quantization noise folded by the rate change stays below the
//! in-band noise. [`CicDecimator`] implements an order-`k` CIC; [`FirFilter`]
//! is a direct-form FIR used for droop-compensation and for building test
//! filters.

use crate::DspError;

/// Direct-form FIR filter.
///
/// ```
/// use si_dsp::filter::FirFilter;
///
/// # fn main() -> Result<(), si_dsp::DspError> {
/// let mut ma = FirFilter::new(vec![0.25; 4])?; // 4-tap moving average
/// let y: Vec<f64> = [4.0, 4.0, 4.0, 4.0].iter().map(|&x| ma.process(x)).collect();
/// assert!((y[3] - 4.0).abs() < 1e-12); // settled to the input mean
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FirFilter {
    taps: Vec<f64>,
    delay: Vec<f64>,
    pos: usize,
}

impl FirFilter {
    /// A filter with the given impulse response.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `taps` is empty.
    pub fn new(taps: Vec<f64>) -> Result<Self, DspError> {
        if taps.is_empty() {
            return Err(DspError::EmptyInput);
        }
        let len = taps.len();
        Ok(FirFilter {
            taps,
            delay: vec![0.0; len],
            pos: 0,
        })
    }

    /// Processes one sample.
    pub fn process(&mut self, x: f64) -> f64 {
        self.delay[self.pos] = x;
        let n = self.taps.len();
        let mut acc = 0.0;
        for (k, &tap) in self.taps.iter().enumerate() {
            let idx = (self.pos + n - k) % n;
            acc += tap * self.delay[idx];
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Filters a whole buffer, returning the output sequence.
    pub fn process_block(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.process(x)).collect()
    }

    /// Resets the internal delay line to zero.
    pub fn reset(&mut self) {
        self.delay.iter_mut().for_each(|d| *d = 0.0);
        self.pos = 0;
    }

    /// The filter's tap count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Whether the filter has no taps (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }
}

/// Cascaded integrator–comb decimator of order `k` and rate change `r`.
///
/// Output gain is normalized so a DC input of `x` decimates to `x`. The
/// classic structure: `k` integrators at the high rate, downsample by `r`,
/// then `k` differentiators at the low rate.
///
/// ```
/// use si_dsp::filter::CicDecimator;
///
/// # fn main() -> Result<(), si_dsp::DspError> {
/// let mut cic = CicDecimator::new(3, 128)?; // sinc³, OSR 128 — the paper's setup
/// let mut out = Vec::new();
/// for _ in 0..128 * 10 {
///     if let Some(y) = cic.push(1.0) {
///         out.push(y);
///     }
/// }
/// assert!((out.last().unwrap() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CicDecimator {
    integrators: Vec<f64>,
    combs: Vec<f64>,
    rate: usize,
    phase: usize,
    gain: f64,
}

impl CicDecimator {
    /// A CIC of order `order` decimating by `rate`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `order` is zero or not at
    /// most 8 (growth overflows f64 precision beyond that for large rates),
    /// or if `rate < 2`.
    pub fn new(order: usize, rate: usize) -> Result<Self, DspError> {
        if order == 0 || order > 8 {
            return Err(DspError::InvalidParameter {
                name: "order",
                constraint: "order must be in 1..=8",
            });
        }
        if rate < 2 {
            return Err(DspError::InvalidParameter {
                name: "rate",
                constraint: "decimation rate must be at least 2",
            });
        }
        Ok(CicDecimator {
            integrators: vec![0.0; order],
            combs: vec![0.0; order],
            rate,
            phase: 0,
            gain: (rate as f64).powi(order as i32),
        })
    }

    /// The decimation ratio.
    #[must_use]
    pub fn rate(&self) -> usize {
        self.rate
    }

    /// The comb order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.integrators.len()
    }

    /// Pushes one high-rate sample; returns a low-rate output every
    /// `rate` calls.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        let mut acc = x;
        for stage in &mut self.integrators {
            *stage += acc;
            acc = *stage;
        }
        self.phase += 1;
        if self.phase < self.rate {
            return None;
        }
        self.phase = 0;
        for stage in &mut self.combs {
            let prev = *stage;
            *stage = acc;
            acc -= prev;
        }
        Some(acc / self.gain)
    }

    /// Decimates a whole buffer.
    pub fn process_block(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().filter_map(|&x| self.push(x)).collect()
    }

    /// Resets all state to zero.
    pub fn reset(&mut self) {
        self.integrators.iter_mut().for_each(|s| *s = 0.0);
        self.combs.iter_mut().for_each(|s| *s = 0.0);
        self.phase = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SineWave;

    #[test]
    fn fir_rejects_empty() {
        assert!(FirFilter::new(vec![]).is_err());
    }

    #[test]
    fn fir_impulse_response_is_taps() {
        let taps = vec![0.5, -0.25, 0.125];
        let mut f = FirFilter::new(taps.clone()).unwrap();
        let mut input = vec![0.0; 3];
        input[0] = 1.0;
        assert_eq!(f.process_block(&input), taps);
    }

    #[test]
    fn fir_reset_clears_state() {
        let mut f = FirFilter::new(vec![0.25; 4]).unwrap();
        f.process_block(&[9.0, 9.0, 9.0, 9.0]);
        f.reset();
        assert!((f.process(0.0)).abs() < 1e-15);
    }

    #[test]
    fn cic_rejects_bad_parameters() {
        assert!(CicDecimator::new(0, 8).is_err());
        assert!(CicDecimator::new(9, 8).is_err());
        assert!(CicDecimator::new(3, 1).is_err());
    }

    #[test]
    fn cic_output_rate_is_input_over_r() {
        let mut cic = CicDecimator::new(3, 16).unwrap();
        let out = cic.process_block(&vec![0.5; 160]);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn cic_dc_gain_is_unity() {
        for order in 1..=4 {
            let mut cic = CicDecimator::new(order, 32).unwrap();
            let out = cic.process_block(&vec![0.75; 32 * (order + 2)]);
            assert!(
                (out.last().unwrap() - 0.75).abs() < 1e-12,
                "order {order}: {:?}",
                out.last()
            );
        }
    }

    #[test]
    fn cic_passes_slow_sine_amplitude() {
        // A tone far below the decimated Nyquist passes with ~unity gain.
        let n = 1 << 15;
        let osr = 64;
        let input: Vec<f64> = SineWave::coherent(1.0, 8, n).unwrap().take(n).collect();
        let out = CicDecimator::new(3, osr).unwrap().process_block(&input);
        let settled = &out[8..];
        let peak = settled.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!((peak - 1.0).abs() < 0.02, "peak {peak}");
    }

    #[test]
    fn cic_suppresses_high_frequency_noise() {
        // Alternating +1/-1 at fs/2 should be crushed by the comb nulls.
        let input: Vec<f64> = (0..4096)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let out = CicDecimator::new(3, 64).unwrap().process_block(&input);
        let peak = out[4..].iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(peak < 1e-10, "peak {peak}");
    }

    #[test]
    fn cic_reset_clears_state() {
        let mut cic = CicDecimator::new(2, 8).unwrap();
        cic.process_block(&vec![1.0; 64]);
        cic.reset();
        let out = cic.process_block(&[0.0; 16]);
        for y in out {
            assert_eq!(y, 0.0);
        }
    }
}
