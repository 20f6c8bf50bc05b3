//! Switched-current filters — the "filtering … applications" the paper's
//! introduction motivates for the SI technique \[refs. 1–3\].
//!
//! * [`SiFirFilter`] — a tapped delay line: current-mirror taps scale the
//!   signal after each pair of memory cells and sum on an output wire. Each
//!   tap sees the accumulated error of every cell before it, exactly as on
//!   silicon.
//! * [`SiBiquad`] — the two-integrator-loop (Tow–Thomas style) resonator
//!   built from delaying SI integrators, with the exact z-domain model
//!   available for verification:
//!
//!   ```text
//!   H_lp(z) = g·z⁻² / (1 + (kq − 2)·z⁻¹ + (1 − kq + g·kf)·z⁻²)
//!   ```

use crate::blocks::Integrator;
use crate::cell::{ClassAbCell, MemoryCell};
use crate::cm::NoCmControl;
use crate::params::ClassAbParams;
use crate::sample::Diff;
use crate::SiError;

/// A current-mode FIR filter: `y[n] = Σ b_k · x[n − k]`, with tap 0 taken
/// straight from the input wire and tap `k` after `k` pairs of memory
/// cells.
#[derive(Debug)]
pub struct SiFirFilter {
    /// One two-cell (full-period) stage per delay element.
    stages: Vec<(ClassAbCell, ClassAbCell)>,
    /// The value each stage is holding for the next period (its cells'
    /// stored sample): the transport register of the delay line.
    held: Vec<Diff>,
    taps: Vec<f64>,
    /// Relative mirror error applied to each tap weight (fixed per filter).
    tap_errors: Vec<f64>,
}

impl SiFirFilter {
    /// A filter with the given tap weights, built from class-AB cells.
    /// `mirror_mismatch` is the 1-σ relative error of the tap mirrors,
    /// drawn deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidSize`] for an empty tap list or
    /// [`SiError::InvalidParameter`] for non-finite taps or invalid cell
    /// parameters.
    pub fn new(
        taps: Vec<f64>,
        params: &ClassAbParams,
        mirror_mismatch: f64,
        seed: u64,
    ) -> Result<Self, SiError> {
        if taps.is_empty() {
            return Err(SiError::InvalidSize {
                what: "fir tap count",
                value: 0,
            });
        }
        if taps.iter().any(|t| !t.is_finite()) {
            return Err(SiError::InvalidParameter {
                name: "taps",
                constraint: "tap weights must be finite",
            });
        }
        if !(0.0..0.5).contains(&mirror_mismatch) {
            return Err(SiError::InvalidParameter {
                name: "mirror_mismatch",
                constraint: "mirror mismatch must lie in [0, 0.5)",
            });
        }
        let delays = taps.len() - 1;
        let mut stages = Vec::with_capacity(delays);
        for k in 0..delays {
            stages.push((
                ClassAbCell::new(params, seed.wrapping_add(2 * k as u64))?,
                ClassAbCell::new(params, seed.wrapping_add(2 * k as u64 + 1))?,
            ));
        }
        // Deterministic per-tap mirror errors from a simple LCG.
        let mut state = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(97);
        let tap_errors = (0..taps.len())
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                mirror_mismatch * (2.0 * u - 1.0)
            })
            .collect();
        Ok(SiFirFilter {
            held: vec![Diff::ZERO; stages.len()],
            stages,
            taps,
            tap_errors,
        })
    }

    /// The number of taps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Whether the filter has no taps (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Processes one sample.
    pub fn process(&mut self, input: Diff) -> Diff {
        let mut acc = input * (self.taps[0] * (1.0 + self.tap_errors[0]));
        let mut v = input;
        for (k, (cell_a, cell_b)) in self.stages.iter_mut().enumerate() {
            // Each stage holds last period's value; the cell pair acquires
            // this period's value (applying its error models twice) for the
            // next period — one full period of transport per stage.
            let delayed = self.held[k];
            let half = cell_a.process(v);
            self.held[k] = cell_b.process(half);
            acc += delayed * (self.taps[k + 1] * (1.0 + self.tap_errors[k + 1]));
            v = delayed;
        }
        acc
    }

    /// Processes a whole block.
    pub fn process_block(&mut self, input: &[Diff]) -> Vec<Diff> {
        input.iter().map(|&x| self.process(x)).collect()
    }

    /// Resets all cells and transport registers.
    pub fn reset(&mut self) {
        for (a, b) in &mut self.stages {
            a.reset();
            b.reset();
        }
        for h in &mut self.held {
            *h = Diff::ZERO;
        }
    }
}

/// The two-integrator-loop SI biquad (low-pass output).
#[derive(Debug)]
pub struct SiBiquad {
    int1: Integrator<ClassAbCell>,
    int2: Integrator<ClassAbCell>,
    /// Damping (1/Q-like) coefficient.
    kq: f64,
    /// Resonator feedback coefficient.
    kf: f64,
}

impl SiBiquad {
    /// A biquad with integrator gains `g1 = 1`, `g2 = g`, damping `kq` and
    /// feedback `kf`, built from class-AB cells.
    ///
    /// For stability the coefficients must satisfy `0 < kq < 2` and
    /// `0 < g·kf < kq` (poles inside the unit circle).
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for out-of-range coefficients
    /// or invalid cell parameters.
    pub fn new(
        g: f64,
        kq: f64,
        kf: f64,
        params: &ClassAbParams,
        seed: u64,
    ) -> Result<Self, SiError> {
        let stable = kq > 0.0 && kq < 2.0 && kf > 0.0 && g > 0.0 && g * kf < kq;
        // NaN in any coefficient fails the conjunction and is rejected too.
        if !stable {
            return Err(SiError::InvalidParameter {
                name: "biquad coefficients",
                constraint: "need 0 < kq < 2, g·kf > 0 and small enough for stability",
            });
        }
        Ok(SiBiquad {
            int1: Integrator::from_cells(
                ClassAbCell::new(params, seed)?,
                ClassAbCell::new(params, seed.wrapping_add(1))?,
                Box::new(NoCmControl),
                1.0,
            )?,
            int2: Integrator::from_cells(
                ClassAbCell::new(params, seed.wrapping_add(2))?,
                ClassAbCell::new(params, seed.wrapping_add(3))?,
                Box::new(NoCmControl),
                g,
            )?,
            kq,
            kf,
        })
    }

    /// Design helper: coefficients for a resonance at normalized frequency
    /// `f0` (cycles/sample) with quality factor `q`.
    ///
    /// Uses the impulse-invariant-style mapping `g·kf = (2π·f0)²`,
    /// `kq = 2π·f0/q`, valid for `f0 ≪ 0.5`.
    ///
    /// # Errors
    ///
    /// See [`SiBiquad::new`].
    pub fn design(f0: f64, q: f64, params: &ClassAbParams, seed: u64) -> Result<Self, SiError> {
        let in_range = f0 > 0.0 && f0 < 0.2 && q > 0.05;
        if !in_range {
            return Err(SiError::InvalidParameter {
                name: "f0/q",
                constraint: "need 0 < f0 < 0.2 cycles/sample and q > 0.05",
            });
        }
        let w0 = 2.0 * std::f64::consts::PI * f0;
        let kq = w0 / q;
        let gkf = w0 * w0;
        // Split the product evenly between g and kf.
        let g = gkf.sqrt();
        SiBiquad::new(g, kq, g, params, seed)
    }

    /// Processes one sample; returns the low-pass output `v2`.
    pub fn process(&mut self, input: Diff) -> Diff {
        let v1 = self.int1.output();
        let v2 = self.int2.output();
        let u1 = input - v1 * self.kq - v2 * self.kf;
        self.int1.process(u1);
        self.int2.process(v1);
        v2
    }

    /// Resets all state.
    pub fn reset(&mut self) {
        self.int1.reset();
        self.int2.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal() -> ClassAbParams {
        ClassAbParams::ideal()
    }

    #[test]
    fn fir_rejects_bad_construction() {
        assert!(SiFirFilter::new(vec![], &ideal(), 0.0, 1).is_err());
        assert!(SiFirFilter::new(vec![f64::NAN], &ideal(), 0.0, 1).is_err());
        assert!(SiFirFilter::new(vec![1.0], &ideal(), 0.9, 1).is_err());
    }

    #[test]
    fn fir_impulse_response_is_taps() {
        let taps = vec![0.5, -0.25, 0.125, 1.0];
        let mut f = SiFirFilter::new(taps.clone(), &ideal(), 0.0, 1).unwrap();
        let mut input = vec![Diff::from_differential(1e-6)];
        input.extend(std::iter::repeat_n(Diff::ZERO, 5));
        let out = f.process_block(&input);
        for (k, (&t, y)) in taps.iter().zip(&out).enumerate() {
            assert!(
                (y.dm() - t * 1e-6).abs() < 1e-15,
                "tap {k}: {} vs {}",
                y.dm(),
                t * 1e-6
            );
        }
        assert!(out[4].dm().abs() < 1e-18);
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn fir_moving_average_smooths() {
        let mut f = SiFirFilter::new(vec![0.25; 4], &ideal(), 0.0, 1).unwrap();
        // Alternating input at Nyquist is killed by a 4-tap boxcar.
        let input: Vec<Diff> = (0..32)
            .map(|k| Diff::from_differential(if k % 2 == 0 { 1e-6 } else { -1e-6 }))
            .collect();
        let out = f.process_block(&input);
        for y in &out[4..] {
            assert!(y.dm().abs() < 1e-15, "residual {}", y.dm());
        }
    }

    #[test]
    fn fir_mirror_mismatch_perturbs_taps_deterministically() {
        let taps = vec![1.0, 1.0];
        let mut f1 = SiFirFilter::new(taps.clone(), &ideal(), 0.05, 7).unwrap();
        let mut f2 = SiFirFilter::new(taps.clone(), &ideal(), 0.05, 7).unwrap();
        let mut f3 = SiFirFilter::new(taps, &ideal(), 0.05, 8).unwrap();
        let x = Diff::from_differential(1e-6);
        let (a, b, c) = (f1.process(x), f2.process(x), f3.process(x));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The perturbed tap is still within 5 %.
        assert!((a.dm() - 1e-6).abs() < 0.05 * 1e-6 + 1e-18);
    }

    #[test]
    fn fir_reset_restores_state() {
        let mut f = SiFirFilter::new(vec![0.0, 1.0], &ideal(), 0.0, 1).unwrap();
        let a = f.process(Diff::from_differential(1e-6));
        f.process(Diff::ZERO);
        f.reset();
        let b = f.process(Diff::from_differential(1e-6));
        assert_eq!(a, b);
        assert!(!f.is_empty());
    }

    #[test]
    fn biquad_rejects_unstable_coefficients() {
        assert!(SiBiquad::new(1.0, 0.0, 0.1, &ideal(), 1).is_err());
        assert!(SiBiquad::new(1.0, 2.5, 0.1, &ideal(), 1).is_err());
        assert!(SiBiquad::design(0.5, 1.0, &ideal(), 1).is_err());
        assert!(SiBiquad::design(0.01, 0.0, &ideal(), 1).is_err());
    }

    #[test]
    fn biquad_impulse_response_matches_z_model() {
        let mut bq = SiBiquad::new(0.2, 0.3, 0.2, &ideal(), 1).unwrap();
        // The exact z-domain low-pass realized by ideal cells with these
        // coefficients, numerator and denominator in powers of z⁻¹.
        let g = bq.int2.gain();
        let num = [0.0, 0.0, g];
        let den = [1.0, bq.kq - 2.0, 1.0 - bq.kq + g * bq.kf];
        // Direct-form reference from the published coefficients.
        let n = 64;
        let mut y_ref: Vec<f64> = Vec::with_capacity(n);
        // Recursive difference equation: indexed history is the point.
        #[allow(clippy::needless_range_loop)]
        for t in 0..n {
            let x_term = num.get(t).copied().unwrap_or(0.0);
            let mut acc = x_term;
            for (k, &ak) in den.iter().enumerate().skip(1) {
                if t >= k {
                    acc -= ak * y_ref[t - k];
                }
            }
            y_ref.push(acc);
        }
        for (t, &want) in y_ref.iter().enumerate() {
            let x = if t == 0 { 1e-6 } else { 0.0 };
            let y = bq.process(Diff::from_differential(x)).dm();
            assert!(
                (y - want * 1e-6).abs() < 1e-14,
                "t={t}: {y} vs {}",
                want * 1e-6
            );
        }
    }

    #[test]
    fn designed_biquad_peaks_near_f0() {
        let f0 = 0.02;
        let mut bq = SiBiquad::design(f0, 5.0, &ideal(), 1).unwrap();
        // Probe the magnitude response by running sines at several
        // frequencies and measuring steady-state output amplitude.
        let mut gains = Vec::new();
        for &f in &[0.005, 0.02, 0.08] {
            bq.reset();
            let n = 4000;
            let mut peak = 0.0f64;
            for k in 0..n {
                let x = 1e-6 * (2.0 * std::f64::consts::PI * f * k as f64).sin();
                let y = bq.process(Diff::from_differential(x)).dm();
                if k > n / 2 {
                    peak = peak.max(y.abs());
                }
            }
            gains.push(peak);
        }
        assert!(
            gains[1] > 2.0 * gains[0] && gains[1] > 2.0 * gains[2],
            "no resonance at f0: {gains:?}"
        );
    }

    #[test]
    fn biquad_is_stable_under_sustained_drive() {
        let mut bq = SiBiquad::design(0.03, 2.0, &ideal(), 1).unwrap();
        let mut peak = 0.0f64;
        for k in 0..20_000 {
            let x = 1e-6 * (k as f64 * 0.37).sin();
            let y = bq.process(Diff::from_differential(x)).dm();
            peak = peak.max(y.abs());
        }
        assert!(peak < 1e-3, "biquad diverged: peak {peak}");
    }
}
