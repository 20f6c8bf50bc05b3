//! The first-generation SI memory cell — the historical baseline.
//!
//! First-generation cells (Hughes' original, used by the paper's companion
//! work \[9\], "3.3-V 11-bit delta-sigma modulator using first-generation
//! SI circuits") store the sample on a *current mirror*: the input device
//! is diode-connected during φ1 and a separate output device mirrors the
//! current during φ2. Unlike the second-generation cell — where the *same*
//! transistor memorizes and reproduces — the mirror ratio enters the signal
//! path, so device mismatch becomes a **systematic gain error** of the
//! 0.1–1 % class, an order of magnitude above the second-generation cell's
//! conductance-ratio error. That is the accuracy cliff that pushed the
//! field (and this paper) to second-generation class-AB cells.

use crate::cell::MemoryCell;
use crate::params::{ChargeInjection, Settling};
use crate::sample::Diff;
use crate::SiError;

/// Parameters of the first-generation (current-mirror) memory cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstGenParams {
    /// Mirror bias current, amperes. Signals clip at ±bias (class A).
    pub bias: f64,
    /// Systematic mirror ratio error (W/L + VT mismatch), relative.
    pub mirror_gain_error: f64,
    /// 1-σ random per-branch mirror mismatch, relative.
    pub mirror_mismatch: f64,
    /// Signal-dependent charge injection (first-gen cells lack the
    /// complementary-switch cancellation, so the coefficients are larger).
    pub charge_injection: ChargeInjection,
    /// Settling/slewing model.
    pub settling: Settling,
    /// Per-branch thermal noise, amperes rms.
    pub noise_rms: f64,
}

impl FirstGenParams {
    /// A perfectly ideal first-generation cell.
    #[must_use]
    pub fn ideal() -> Self {
        FirstGenParams {
            bias: 20e-6,
            mirror_gain_error: 0.0,
            mirror_mismatch: 0.0,
            charge_injection: ChargeInjection::none(),
            settling: Settling::ideal(),
            noise_rms: 0.0,
        }
    }

    /// Representative 0.8 µm values: 0.5 % systematic mirror error,
    /// 0.3 % random mismatch, class-A-grade charge injection.
    #[must_use]
    pub fn paper_08um() -> Self {
        FirstGenParams {
            bias: 20e-6,
            mirror_gain_error: 5e-3,
            mirror_mismatch: 3e-3,
            charge_injection: ChargeInjection {
                constant: 40e-9,
                linear: 4e-3,
                quadratic: 8e2,
                cubic: 8e8,
            },
            settling: Settling {
                time_constants: 8.0,
                slew_limit: f64::INFINITY,
            },
            noise_rms: 40e-9,
        }
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for out-of-range values.
    pub fn validate(&self) -> Result<(), SiError> {
        if !(self.bias > 0.0) || !self.bias.is_finite() {
            return Err(SiError::InvalidParameter {
                name: "bias",
                constraint: "bias current must be positive and finite",
            });
        }
        if !self.mirror_gain_error.is_finite() || self.mirror_gain_error.abs() >= 0.5 {
            return Err(SiError::InvalidParameter {
                name: "mirror_gain_error",
                constraint: "systematic mirror error must be finite and below 50 %",
            });
        }
        if !(0.0..0.5).contains(&self.mirror_mismatch) {
            return Err(SiError::InvalidParameter {
                name: "mirror_mismatch",
                constraint: "mirror mismatch must lie in [0, 0.5)",
            });
        }
        if !self.charge_injection.is_finite() {
            return Err(SiError::InvalidParameter {
                name: "charge_injection",
                constraint: "coefficients must be finite",
            });
        }
        if !(self.noise_rms >= 0.0) || !self.noise_rms.is_finite() {
            return Err(SiError::InvalidParameter {
                name: "noise_rms",
                constraint: "noise must be non-negative and finite",
            });
        }
        Ok(())
    }
}

/// The first-generation memory cell.
///
/// ```
/// use si_core::cell::MemoryCell;
/// use si_core::firstgen::{FirstGenCell, FirstGenParams};
/// use si_core::Diff;
///
/// # fn main() -> Result<(), si_core::SiError> {
/// let mut cell = FirstGenCell::new(&FirstGenParams::ideal(), 1)?;
/// let y = cell.process(Diff::from_differential(5e-6));
/// assert!((y.dm() + 5e-6).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FirstGenCell {
    params: FirstGenParams,
    held: Diff,
    rng: rand::rngs::StdRng,
    cached: Option<f64>,
    ratio_pos: f64,
    ratio_neg: f64,
}

impl FirstGenCell {
    /// Builds a cell with deterministic mismatch and noise from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for invalid parameters.
    pub fn new(params: &FirstGenParams, seed: u64) -> Result<Self, SiError> {
        use rand::{Rng, SeedableRng};
        params.validate()?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(5));
        let draw = |rng: &mut rand::rngs::StdRng| {
            let u: f64 = rng.gen_range(-1.0..1.0);
            u * 1.7320508 // uniform with unit variance
        };
        let ratio_pos = 1.0 + params.mirror_gain_error + params.mirror_mismatch * draw(&mut rng);
        let ratio_neg = 1.0 + params.mirror_gain_error + params.mirror_mismatch * draw(&mut rng);
        Ok(FirstGenCell {
            params: *params,
            held: Diff::ZERO,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            cached: None,
            ratio_pos,
            ratio_neg,
        })
    }

    /// The parameters this cell runs with.
    #[must_use]
    pub fn params(&self) -> &FirstGenParams {
        &self.params
    }

    fn gauss(&mut self) -> f64 {
        use rand::Rng;
        if let Some(z) = self.cached.take() {
            return z;
        }
        let u1: f64 = self.rng.gen_range(1e-300..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }

    fn branch(&mut self, prev: f64, target: f64, ratio: f64) -> f64 {
        let p = self.params;
        let clipped = target.clamp(-p.bias, p.bias);
        let settled = p.settling.acquire(prev, clipped);
        let mirrored = settled * ratio + p.charge_injection.error(settled);
        mirrored + p.noise_rms * self.gauss()
    }
}

impl MemoryCell for FirstGenCell {
    fn process(&mut self, input: Diff) -> Diff {
        let prev = self.held;
        let (rp, rn) = (self.ratio_pos, self.ratio_neg);
        let pos = self.branch(prev.pos, input.pos, rp);
        let neg = self.branch(prev.neg, input.neg, rn);
        self.held = Diff::new(pos, neg);
        -self.held
    }

    fn reset(&mut self) {
        self.held = Diff::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::DelayLine;
    use crate::cell::ClassAbCell;
    use crate::cm::NoCmControl;
    use crate::params::ClassAbParams;

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut p = FirstGenParams::ideal();
        p.bias = 0.0;
        assert!(FirstGenCell::new(&p, 1).is_err());
        let mut p = FirstGenParams::ideal();
        p.mirror_gain_error = 0.6;
        assert!(FirstGenCell::new(&p, 1).is_err());
        let mut p = FirstGenParams::ideal();
        p.mirror_mismatch = 0.5;
        assert!(FirstGenCell::new(&p, 1).is_err());
        assert!(FirstGenParams::paper_08um().validate().is_ok());
    }

    #[test]
    fn ideal_cell_inverts_exactly() {
        let mut c = FirstGenCell::new(&FirstGenParams::ideal(), 3).unwrap();
        let y = c.process(Diff::from_differential(5e-6));
        assert!((y.dm() + 5e-6).abs() < 1e-18);
    }

    #[test]
    fn systematic_mirror_error_scales_gain() {
        let mut p = FirstGenParams::ideal();
        p.mirror_gain_error = 0.01;
        let mut c = FirstGenCell::new(&p, 3).unwrap();
        let y = c.process(Diff::from_differential(10e-6));
        assert!((y.dm() + 10.1e-6).abs() < 1e-15, "dm {}", y.dm());
    }

    #[test]
    fn mismatch_is_deterministic_per_seed() {
        let p = FirstGenParams::paper_08um();
        let x = Diff::from_differential(10e-6);
        let out = |seed| FirstGenCell::new(&p, seed).unwrap().process(x);
        assert_eq!(out(7), out(7));
        assert_ne!(out(7), out(8));
    }

    #[test]
    fn clips_at_bias_like_class_a() {
        let mut p = FirstGenParams::ideal();
        p.bias = 10e-6;
        let mut c = FirstGenCell::new(&p, 3).unwrap();
        let y = c.process(Diff::from_differential(25e-6));
        assert!((y.dm() + 10e-6).abs() < 1e-15);
    }

    #[test]
    fn first_gen_delay_line_is_less_accurate_than_second_gen() {
        // The historical accuracy cliff: gain error of a 2-cell line.
        let fg_cells = vec![
            FirstGenCell::new(&FirstGenParams::paper_08um(), 1).unwrap(),
            FirstGenCell::new(&FirstGenParams::paper_08um(), 2).unwrap(),
        ];
        let mut fg = DelayLine::from_cells(fg_cells, Box::new(NoCmControl)).unwrap();
        let sg_cells = vec![
            ClassAbCell::new(&ClassAbParams::paper_08um(), 1).unwrap(),
            ClassAbCell::new(&ClassAbParams::paper_08um(), 2).unwrap(),
        ];
        let mut sg = DelayLine::from_cells(sg_cells, Box::new(NoCmControl)).unwrap();
        let x = Diff::from_differential(8e-6);
        // Average the noisy outputs over many repeats of the same input.
        let mut fg_err = 0.0;
        let mut sg_err = 0.0;
        let n = 2000;
        for _ in 0..n {
            fg_err += fg.process(x).dm() - 8e-6;
            sg_err += sg.process(x).dm() - 8e-6;
        }
        let (fg_err, sg_err) = ((fg_err / n as f64).abs(), (sg_err / n as f64).abs());
        assert!(
            fg_err > 5.0 * sg_err,
            "first-gen gain error {fg_err} not ≫ second-gen {sg_err}"
        );
        assert!(fg_err > 4e-8, "first-gen error {fg_err} implausibly small");
    }
}
