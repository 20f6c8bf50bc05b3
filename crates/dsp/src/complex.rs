//! A minimal double-precision complex number.
//!
//! Implemented from scratch so the workspace carries no external numerics
//! dependency; only the operations the FFT and z-domain analyses need are
//! provided.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` in double precision.
///
/// ```
/// use si_dsp::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// assert_eq!(a + b, Complex::new(4.0, 1.0));
/// assert_eq!(a * b, Complex::new(5.0, 5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular parts.
    #[inline]
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    #[must_use]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates the unit phasor `e^{iθ}`.
    ///
    /// ```
    /// use si_dsp::Complex;
    /// let w = Complex::cis(std::f64::consts::PI);
    /// assert!((w.re + 1.0).abs() < 1e-15);
    /// assert!(w.im.abs() < 1e-15);
    /// ```
    #[must_use]
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// The complex conjugate.
    #[inline]
    #[must_use]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// The squared magnitude `re² + im²` (cheaper than [`Complex::abs`]).
    #[inline]
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude `|z|`, computed with `hypot` for robustness near
    /// overflow/underflow.
    #[inline]
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The argument (phase) in radians, in `(-π, π]`.
    #[inline]
    #[must_use]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The multiplicative inverse `1/z`.
    ///
    /// Returns a non-finite number when `self` is zero, matching `1.0 / 0.0`
    /// semantics for real floats.
    #[inline]
    #[must_use]
    pub(crate) fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scales by a real factor.
    #[inline]
    #[must_use]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Integer power by repeated squaring.
    ///
    /// ```
    /// use si_dsp::Complex;
    /// let z = Complex::cis(std::f64::consts::FRAC_PI_4);
    /// assert!((z.powi(8) - Complex::ONE).abs() < 1e-14);
    /// ```
    #[must_use]
    pub fn powi(self, n: i32) -> Self {
        if n < 0 {
            return self.powi(-n).recip();
        }
        let mut base = self;
        let mut exp = n as u32;
        let mut acc = Complex::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }

    /// Whether both parts are finite.
    #[inline]
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

// Division by reciprocal is the standard complex-division formulation.
#[allow(clippy::suspicious_arithmetic_impl)]
impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, z| acc + z)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(2.5, -1.5);
        assert!(close(z + Complex::ZERO, z));
        assert!(close(z * Complex::ONE, z));
        assert!(close(z - z, Complex::ZERO));
        assert!(close(z * z.recip(), Complex::ONE));
        assert!(close(-(-z), z));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(Complex::I * Complex::I, Complex::new(-1.0, 0.0)));
    }

    #[test]
    fn conjugate_properties() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.conj().conj(), z);
        assert!((z * z.conj()).im.abs() < 1e-15);
        assert!(((z * z.conj()).re - 25.0).abs() < 1e-12);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn division_round_trips() {
        let a = Complex::new(1.0, 7.0);
        let b = Complex::new(-2.0, 0.5);
        assert!(close(a / b * b, a));
    }

    #[test]
    fn polar_round_trips() {
        let z = Complex::cis(1.2) * 2.0;
        assert!((z.abs() - 2.0).abs() < 1e-14);
        assert!((z.arg() - 1.2).abs() < 1e-14);
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex::new(0.9, 0.3);
        let mut acc = Complex::ONE;
        for n in 0..8 {
            assert!(close(z.powi(n), acc));
            acc *= z;
        }
        assert!(close(z.powi(-2), (z * z).recip()));
    }

    #[test]
    fn sum_of_unit_roots_is_zero() {
        let n = 16;
        let total: Complex = (0..n)
            .map(|k| Complex::cis(2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .sum();
        assert!(total.abs() < 1e-13);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
