//! Rational transfer functions in the z-domain.
//!
//! Used to verify Eq. (3) of the paper: both modulator topologies must
//! realize `Y(z) = z⁻² X(z) + (1 − z⁻¹)² E(z)`. [`TransferFunction`]
//! represents a ratio of polynomials in `z⁻¹`, supports the algebra needed
//! to compose block diagrams (sum and product), evaluation on the
//! unit circle, and impulse responses for cross-checking simulations.

use crate::{Complex, DspError};

/// A polynomial in `z⁻¹`, coefficient `k` multiplying `z^{-k}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from ascending powers of `z⁻¹`.
    /// Trailing zeros are trimmed; the zero polynomial is `[0.0]`.
    #[must_use]
    pub fn new(mut coeffs: Vec<f64>) -> Self {
        while coeffs.len() > 1 && coeffs.last() == Some(&0.0) {
            coeffs.pop();
        }
        if coeffs.is_empty() {
            coeffs.push(0.0);
        }
        Polynomial { coeffs }
    }

    /// The constant polynomial `c`.
    #[must_use]
    pub fn constant(c: f64) -> Self {
        Polynomial::new(vec![c])
    }

    /// The monomial `z^{-k}`.
    #[must_use]
    pub fn delay(k: usize) -> Self {
        let mut c = vec![0.0; k + 1];
        c[k] = 1.0;
        Polynomial::new(c)
    }

    /// Coefficients in ascending powers of `z⁻¹`.
    #[must_use]
    pub(crate) fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Whether this is the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0.0)
    }

    /// Evaluates at the complex point `z` (substituting `w = z⁻¹`).
    #[must_use]
    pub fn eval(&self, z: Complex) -> Complex {
        let w = z.recip();
        // Horner in w.
        self.coeffs
            .iter()
            .rev()
            .fold(Complex::ZERO, |acc, &c| acc * w + Complex::from_real(c))
    }

    /// Polynomial sum.
    #[must_use]
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0.0; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in other.coeffs.iter().enumerate() {
            out[i] += c;
        }
        Polynomial::new(out)
    }

    /// Polynomial difference `self − other`.
    #[must_use]
    pub fn sub(&self, other: &Polynomial) -> Polynomial {
        self.add(&other.scale(-1.0))
    }

    /// Polynomial product.
    #[must_use]
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        let mut out = vec![0.0; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Polynomial::new(out)
    }

    /// Scales every coefficient by `k`.
    #[must_use]
    pub fn scale(&self, k: f64) -> Polynomial {
        Polynomial::new(self.coeffs.iter().map(|c| c * k).collect())
    }

    /// Whether the two polynomials agree coefficient-wise within `tol`.
    #[must_use]
    pub fn approx_eq(&self, other: &Polynomial, tol: f64) -> bool {
        let n = self.coeffs.len().max(other.coeffs.len());
        (0..n).all(|i| {
            let a = self.coeffs.get(i).copied().unwrap_or(0.0);
            let b = other.coeffs.get(i).copied().unwrap_or(0.0);
            (a - b).abs() <= tol
        })
    }
}

/// A rational transfer function `B(z⁻¹) / A(z⁻¹)`.
///
/// ```
/// use si_dsp::zdomain::{Polynomial, TransferFunction};
///
/// # fn main() -> Result<(), si_dsp::DspError> {
/// // A delaying integrator H(z) = z⁻¹ / (1 − z⁻¹).
/// let h = TransferFunction::new(Polynomial::delay(1), Polynomial::new(vec![1.0, -1.0]))?;
/// let dc_db = h.magnitude_db(1e-9)?; // ~DC: gain diverges
/// assert!(dc_db > 120.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    num: Polynomial,
    den: Polynomial,
}

impl TransferFunction {
    /// Creates `num / den`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::DegenerateTransferFunction`] if the denominator's
    /// constant term is zero (non-causal or ill-defined system).
    pub fn new(num: Polynomial, den: Polynomial) -> Result<Self, DspError> {
        if den.coeffs()[0] == 0.0 {
            return Err(DspError::DegenerateTransferFunction);
        }
        Ok(TransferFunction { num, den })
    }

    /// The constant gain `k`.
    #[must_use]
    pub fn gain(k: f64) -> Self {
        TransferFunction {
            num: Polynomial::constant(k),
            den: Polynomial::constant(1.0),
        }
    }

    /// A pure delay `z^{-k}`.
    #[must_use]
    pub fn delay(k: usize) -> Self {
        TransferFunction {
            num: Polynomial::delay(k),
            den: Polynomial::constant(1.0),
        }
    }

    /// The first difference `1 − z⁻¹`.
    #[must_use]
    pub(crate) fn differentiator() -> Self {
        TransferFunction {
            num: Polynomial::new(vec![1.0, -1.0]),
            den: Polynomial::constant(1.0),
        }
    }

    /// Series connection `self · other`.
    #[must_use]
    pub(crate) fn cascade(&self, other: &TransferFunction) -> TransferFunction {
        TransferFunction {
            num: self.num.mul(&other.num),
            den: self.den.mul(&other.den),
        }
    }

    /// Parallel connection `self + other`.
    #[must_use]
    pub fn parallel(&self, other: &TransferFunction) -> TransferFunction {
        TransferFunction {
            num: self.num.mul(&other.den).add(&other.num.mul(&self.den)),
            den: self.den.mul(&other.den),
        }
    }

    /// Scales the transfer function by a real gain.
    #[must_use]
    pub fn scale(&self, k: f64) -> TransferFunction {
        TransferFunction {
            num: self.num.scale(k),
            den: self.den.clone(),
        }
    }

    /// Evaluates `H(z)` at `z = e^{2πi f}` for a normalized frequency `f`
    /// (cycles per sample).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `f` is not finite.
    pub(crate) fn eval_at_frequency(&self, f: f64) -> Result<Complex, DspError> {
        if !f.is_finite() {
            return Err(DspError::InvalidParameter {
                name: "f",
                constraint: "frequency must be finite",
            });
        }
        let z = Complex::cis(2.0 * std::f64::consts::PI * f);
        Ok(self.num.eval(z) / self.den.eval(z))
    }

    /// Magnitude response in dB at normalized frequency `f`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `f` is not finite.
    pub fn magnitude_db(&self, f: f64) -> Result<f64, DspError> {
        Ok(crate::amplitude_db(self.eval_at_frequency(f)?.abs()))
    }

    /// The first `n` samples of the impulse response, computed by long
    /// division (direct-form difference equation).
    #[must_use]
    pub fn impulse_response(&self, n: usize) -> Vec<f64> {
        let a0 = self.den.coeffs()[0];
        let mut y = Vec::with_capacity(n);
        for t in 0..n {
            let x_term = self.num.coeffs().get(t).copied().unwrap_or(0.0);
            let mut acc = x_term;
            for (k, &ak) in self.den.coeffs().iter().enumerate().skip(1) {
                if t >= k {
                    acc -= ak * y[t - k];
                }
            }
            y.push(acc / a0);
        }
        y
    }

    /// Whether two transfer functions are equal as rational functions,
    /// checked by cross-multiplying: `num₁·den₂ ≈ num₂·den₁` within `tol`.
    #[must_use]
    pub fn approx_eq(&self, other: &TransferFunction, tol: f64) -> bool {
        self.num
            .mul(&other.den)
            .approx_eq(&other.num.mul(&self.den), tol)
    }
}

/// Result of the linear (quantizer-as-additive-error) analysis of a ΔΣ
/// modulator: the signal and noise transfer functions.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Signal transfer function X → Y.
    pub stf: TransferFunction,
    /// Noise transfer function E → Y.
    pub ntf: TransferFunction,
}

impl LinearModel {
    /// The paper's Eq. (3): `STF = z⁻²`, `NTF = (1 − z⁻¹)²`.
    #[must_use]
    pub fn paper_second_order() -> Self {
        LinearModel {
            stf: TransferFunction::delay(2),
            ntf: TransferFunction::differentiator().cascade(&TransferFunction::differentiator()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The identity system `H(z) = 1`.
    fn unity() -> TransferFunction {
        TransferFunction::gain(1.0)
    }

    /// The delaying (forward-Euler) integrator `z⁻¹ / (1 − z⁻¹)`, which is
    /// what an SI integrator with delay in the loop realizes.
    fn delaying_integrator() -> TransferFunction {
        TransferFunction::new(Polynomial::delay(1), Polynomial::new(vec![1.0, -1.0])).unwrap()
    }

    /// The reciprocal transfer function `1/H`; an error when `H`'s
    /// numerator has no constant term (the inverse would be non-causal).
    fn invert(h: &TransferFunction) -> Result<TransferFunction, DspError> {
        TransferFunction::new(h.den.clone(), h.num.clone())
    }

    /// Derives the linear model of the classic two-integrator loop of
    /// Fig. 3(a): both integrators delaying, unity feedback around each
    /// stage, DAC scalings chosen to restore the textbook NTF.
    fn derive_two_integrator_loop() -> Result<LinearModel, DspError> {
        // Loop: x →(+)→ I1 →(+)→ I2 → quantizer → y, with y fed back to both
        // summers. With delaying integrators H(z) = z⁻¹/(1−z⁻¹), the choice
        // of feedback coefficients (1 for the first summer, 2 for the second)
        // realizes Y = z⁻²X + (1−z⁻¹)²E.
        let i = delaying_integrator();
        // Forward path from x to quantizer input: L0 = I1·I2.
        let l0 = i.cascade(&i);
        // Loop gain from y back to quantizer input:
        // L1 = I1·I2·b1 + I2·b2 with b1 = 1, b2 = 2.
        let l1 = i.cascade(&i).parallel(&i.scale(2.0));
        // Y = (L0·X + E) / (1 + L1)
        let one_plus_l1 = unity().parallel(&l1);
        let stf = l0.cascade(&invert(&one_plus_l1)?);
        let ntf = invert(&one_plus_l1)?;
        Ok(LinearModel { stf, ntf })
    }

    #[test]
    fn polynomial_construction_trims_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
        let z = Polynomial::new(vec![]);
        assert!(z.is_zero());
        assert_eq!(z.coeffs(), &[0.0]);
    }

    #[test]
    fn polynomial_algebra() {
        let a = Polynomial::new(vec![1.0, -1.0]); // 1 - z⁻¹
        let sq = a.mul(&a); // (1 - z⁻¹)²
        assert_eq!(sq.coeffs(), &[1.0, -2.0, 1.0]);
        let sum = a.add(&Polynomial::delay(1));
        assert_eq!(sum.coeffs(), &[1.0]);
        assert!(a.sub(&a).is_zero());
    }

    #[test]
    fn polynomial_eval_on_unit_circle() {
        // (1 - z⁻¹) at z = -1 is 2; at z = 1 is 0.
        let d = Polynomial::new(vec![1.0, -1.0]);
        assert!((d.eval(Complex::from_real(-1.0)) - Complex::from_real(2.0)).abs() < 1e-12);
        assert!(d.eval(Complex::from_real(1.0)).abs() < 1e-12);
    }

    #[test]
    fn transfer_function_rejects_degenerate_denominator() {
        assert!(matches!(
            TransferFunction::new(Polynomial::constant(1.0), Polynomial::delay(1)),
            Err(DspError::DegenerateTransferFunction)
        ));
    }

    #[test]
    fn delay_impulse_response() {
        let h = TransferFunction::delay(3);
        assert_eq!(h.impulse_response(5), vec![0.0, 0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn integrator_impulse_response_is_step() {
        let h = delaying_integrator();
        assert_eq!(h.impulse_response(5), vec![0.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn differentiator_kills_dc() {
        let h = TransferFunction::differentiator();
        let dc = h.eval_at_frequency(0.0).unwrap();
        assert!(dc.abs() < 1e-12);
        let nyq = h.eval_at_frequency(0.5).unwrap();
        assert!((nyq.abs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cascade_and_parallel_algebra() {
        let d1 = TransferFunction::delay(1);
        let d2 = d1.cascade(&d1);
        assert!(d2.approx_eq(&TransferFunction::delay(2), 1e-12));
        let sum = d1.parallel(&d1);
        assert!(sum.approx_eq(&TransferFunction::delay(1).scale(2.0), 1e-12));
    }

    #[test]
    fn feedback_of_integrator_gives_low_pass() {
        // I/(1+I) with I = z⁻¹/(1−z⁻¹) gives z⁻¹ (a pure delay): the classic
        // unity-feedback first-order loop.
        let i = delaying_integrator();
        let closed = i.cascade(&invert(&unity().parallel(&i)).unwrap());
        assert!(closed.approx_eq(&TransferFunction::delay(1), 1e-12));
    }

    #[test]
    fn paper_eq3_model_from_loop_derivation() {
        let derived = derive_two_integrator_loop().unwrap();
        let target = LinearModel::paper_second_order();
        assert!(
            derived.stf.approx_eq(&target.stf, 1e-9),
            "stf {:?}",
            derived.stf
        );
        assert!(
            derived.ntf.approx_eq(&target.ntf, 1e-9),
            "ntf {:?}",
            derived.ntf
        );
    }

    #[test]
    fn ntf_slope_is_40_db_per_decade() {
        let ntf = LinearModel::paper_second_order().ntf;
        let g1 = ntf.magnitude_db(1e-4).unwrap();
        let g2 = ntf.magnitude_db(1e-3).unwrap();
        assert!((g2 - g1 - 40.0).abs() < 0.1, "slope {}", g2 - g1);
    }

    #[test]
    fn stf_is_allpass_delay() {
        let stf = LinearModel::paper_second_order().stf;
        for f in [0.01, 0.1, 0.3, 0.49] {
            assert!((stf.eval_at_frequency(f).unwrap().abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn invert_round_trips() {
        let h = delaying_integrator();
        // H · H⁻¹ = 1. Note H's numerator constant term is zero, so inversion
        // must fail — check the error, then test a valid inversion.
        assert!(invert(&h).is_err());
        let g = TransferFunction::new(
            Polynomial::new(vec![1.0, 0.5]),
            Polynomial::new(vec![1.0, -0.25]),
        )
        .unwrap();
        let gi = invert(&g).unwrap();
        assert!(g.cascade(&gi).approx_eq(&unity(), 1e-12));
    }

    #[test]
    fn magnitude_rejects_non_finite_frequency() {
        let h = unity();
        assert!(h.magnitude_db(f64::NAN).is_err());
    }

    #[test]
    fn impulse_response_matches_frequency_response() {
        // Parseval-style cross-check on a simple IIR.
        let h = TransferFunction::new(Polynomial::new(vec![1.0]), Polynomial::new(vec![1.0, -0.5]))
            .unwrap();
        let ir = h.impulse_response(64);
        // Geometric series 0.5^n.
        for (n, y) in ir.iter().enumerate() {
            assert!((y - 0.5f64.powi(n as i32)).abs() < 1e-12);
        }
    }
}
