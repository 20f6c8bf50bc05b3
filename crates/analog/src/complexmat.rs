//! The complex scalar of AC (small-signal frequency domain) and noise
//! analysis.
//!
//! Self-contained on purpose: `si-analog` carries no dependency on the DSP
//! crate, so it defines the minimal complex number ([`C64`]) the AC and
//! noise analyses need. Their linear algebra is the generic
//! [`crate::linalg::Matrix`] and [`crate::sparse::SparseLu`] over `C64`.

/// A complex number for AC analysis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    /// Creates a complex number.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// A purely real value.
    #[must_use]
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// A purely imaginary value (`j·im`) — the `jωC` stamp.
    #[must_use]
    pub const fn imag(im: f64) -> Self {
        C64 { re: 0.0, im }
    }

    /// Magnitude `|z|`.
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase in radians.
    #[must_use]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[must_use]
    pub fn conj(self) -> Self {
        C64::new(self.re, -self.im)
    }

    /// Reciprocal `1/z`.
    #[must_use]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        C64::new(self.re / d, -self.im / d)
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::AddAssign for C64 {
    fn add_assign(&mut self, rhs: C64) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::SubAssign for C64 {
    fn sub_assign(&mut self, rhs: C64) {
        *self = *self - rhs;
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

// Division by reciprocal is the standard complex-division formulation.
#[allow(clippy::suspicious_arithmetic_impl)]
impl std::ops::Div for C64 {
    type Output = C64;
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl std::ops::Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use crate::AnalogError;

    fn close(a: C64, b: C64) -> bool {
        (a - b).abs() < 1e-10
    }

    fn assert_bits(x: &[C64], y: &[C64]) {
        assert_eq!(x.len(), y.len());
        for (u, v) in x.iter().zip(y) {
            assert_eq!(u.re.to_bits(), v.re.to_bits());
            assert_eq!(u.im.to_bits(), v.im.to_bits());
        }
    }

    /// An asymmetric 3×3 that needs pivoting and mixes magnitudes.
    fn pivoting_system() -> (Matrix<C64>, Vec<C64>) {
        let mut m = Matrix::zeros(3, 3);
        m.stamp(0, 1, C64::new(2.0, -1.0));
        m.stamp(0, 2, C64::real(0.5));
        m.stamp(1, 0, C64::new(1e-3, 4.0));
        m.stamp(1, 1, C64::imag(-2.0));
        m.stamp(2, 0, C64::real(3.0));
        m.stamp(2, 2, C64::new(-1.0, 1.0));
        let b = vec![C64::new(1.0, 2.0), C64::real(-3.0), C64::imag(0.25)];
        (m, b)
    }

    #[test]
    fn scalar_arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert!(close(a + b, C64::new(4.0, 1.0)));
        assert!(close(a * b, C64::new(5.0, 5.0)));
        assert!(close(a / b * b, a));
        assert!(close(a.conj().conj(), a));
        assert!((C64::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
        assert!(close(-a + a, C64::ZERO));
        assert!(close(C64::imag(2.0) * C64::imag(3.0), C64::real(-6.0)));
    }

    #[test]
    fn identity_solve() {
        let mut m = Matrix::zeros(3, 3);
        for i in 0..3 {
            m.stamp(i, i, C64::ONE);
        }
        let b = vec![C64::new(1.0, 1.0), C64::new(2.0, -1.0), C64::real(3.0)];
        let x = m.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&b) {
            assert!(close(*u, *v));
        }
    }

    #[test]
    fn solves_complex_system() {
        let mut m = Matrix::zeros(2, 2);
        m.stamp(0, 0, C64::new(1.0, 1.0));
        m.stamp(0, 1, C64::real(2.0));
        m.stamp(1, 1, C64::imag(3.0));
        let b = vec![C64::new(3.0, 1.0), C64::imag(6.0)];
        let x = m.solve(&b).unwrap();
        // Residual check.
        let r0 = m[(0, 0)] * x[0] + m[(0, 1)] * x[1] - b[0];
        let r1 = m[(1, 1)] * x[1] - b[1];
        assert!(r0.abs() < 1e-12 && r1.abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut m = Matrix::zeros(2, 2);
        m.stamp(0, 1, C64::ONE);
        m.stamp(1, 0, C64::ONE);
        let x = m.solve(&[C64::real(2.0), C64::real(5.0)]).unwrap();
        assert!(close(x[0], C64::real(5.0)));
        assert!(close(x[1], C64::real(2.0)));
    }

    #[test]
    fn factored_path_is_bit_identical_to_one_shot_solve() {
        let (m, b) = pivoting_system();
        let one_shot = m.solve(&b).unwrap();
        let mut lu = m.clone();
        let mut perm = Vec::new();
        lu.factor_in_place(&mut perm).unwrap();
        let mut x = Vec::new();
        lu.lu_solve_into(&perm, &b, &mut x).unwrap();
        assert_bits(&x, &one_shot);
    }

    #[test]
    fn scratch_solve_is_bit_identical_across_dimension_changes() {
        // One set of factor buffers serving a 3×3, then a 1×1, then the
        // 3×3 again must leave no stale state: every answer matches a
        // fresh solve bit for bit.
        let (big, bb) = pivoting_system();
        let mut small = Matrix::zeros(1, 1);
        small.stamp(0, 0, C64::new(0.0, 2.0));
        let sb = vec![C64::real(4.0)];

        let mut lu = Matrix::zeros(0, 0);
        let mut perm = Vec::new();
        let mut x = Vec::new();
        for _ in 0..2 {
            for (m, b) in [(&big, &bb), (&small, &sb)] {
                lu.clone_from(m);
                lu.factor_in_place(&mut perm).unwrap();
                lu.lu_solve_into(&perm, b, &mut x).unwrap();
                assert_bits(&x, &m.solve(b).unwrap());
            }
        }
    }

    #[test]
    fn resize_zeroed_clears_previous_contents() {
        let mut m = Matrix::zeros(2, 2);
        m.stamp(1, 1, C64::new(7.0, -7.0));
        m.resize_zeroed(3, 3);
        assert_eq!(m.rows(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)].abs(), 0.0);
            }
        }
    }

    #[test]
    fn singular_is_reported() {
        let m = Matrix::<C64>::zeros(2, 2);
        assert!(matches!(
            m.solve(&[C64::ONE, C64::ONE]),
            Err(AnalogError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut m = Matrix::zeros(2, 2);
        m.stamp(0, 0, C64::ONE);
        m.stamp(1, 1, C64::ONE);
        assert!(m.solve(&[C64::ONE]).is_err());
    }
}
