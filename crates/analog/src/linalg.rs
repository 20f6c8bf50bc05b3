//! Dense linear algebra for modified nodal analysis: one LU kernel with
//! partial pivoting, generic over the [`Scalar`] field, so the real
//! (DC / transient) and complex (AC / noise) analyses run the same code.
//!
//! The circuits here are small (tens of nodes) or, when large, go to
//! [`crate::sparse`]; a dense LU is simple, robust, and fast enough.
//! Implemented from scratch — the workspace carries no external numerics
//! dependency.
//!
//! The kernel skips a row update when its elimination factor is exactly
//! zero and never skips in forward substitution. On every system the
//! engine assembles the skip changes no bit (no entry is ever −0; see
//! DESIGN.md), while it saves most of the work on the structurally sparse
//! MNA matrices of a forced-dense delay line.

use crate::sparse::{Scalar, PIVOT_EPS};
use crate::AnalogError;

/// A dense row-major matrix over a [`Scalar`] field.
///
/// ```
/// use si_analog::linalg::Matrix;
///
/// # fn main() -> Result<(), si_analog::AnalogError> {
/// let mut a = Matrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// let x = a.solve(&[6.0, 8.0])?;
/// assert_eq!(x, vec![3.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<S: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// An all-zero `rows × cols` matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![S::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reshapes to `rows × cols` with every entry zero, reusing the existing
    /// allocation when it is large enough.
    pub(crate) fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, S::ZERO);
    }

    /// Adds `value` to entry `(i, j)` — the MNA "stamp" primitive.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn stamp(&mut self, i: usize, j: usize, value: S) {
        self[(i, j)] += value;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] on a dimension mismatch.
    pub fn mul_vec(&self, x: &[S]) -> Result<Vec<S>, AnalogError> {
        if x.len() != self.cols {
            return Err(AnalogError::InvalidParameter {
                name: "x",
                constraint: "vector length must equal matrix column count",
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .zip(x)
                    .fold(S::ZERO, |acc, (&a, &xj)| acc + a * xj)
            })
            .collect())
    }

    /// Solves `A·x = b` by factoring a copy of `self`: the allocating
    /// convenience over `Self::factor_in_place` and
    /// `Self::lu_solve_into`, for tests and benchmarks.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::SingularMatrix`] if a pivot underflows, or
    /// [`AnalogError::InvalidParameter`] on a dimension mismatch.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, AnalogError> {
        let mut lu = self.clone();
        let mut perm = Vec::with_capacity(self.rows);
        lu.factor_in_place(&mut perm)?;
        let mut x = Vec::with_capacity(self.rows);
        lu.lu_solve_into(&perm, b, &mut x)?;
        Ok(x)
    }

    /// Overwrites `self` with its LU factorization (partial pivoting on
    /// magnitude) and records the row permutation in `perm`, allocating
    /// nothing when `perm`'s capacity suffices. After success, `self` holds
    /// `L` (unit diagonal, strictly below, the elimination factors) and
    /// `U` (on and above the diagonal).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::SingularMatrix`] when no usable pivot exists,
    /// or [`AnalogError::InvalidParameter`] if the matrix is not square.
    pub(crate) fn factor_in_place(&mut self, perm: &mut Vec<usize>) -> Result<(), AnalogError> {
        if self.rows != self.cols {
            return Err(AnalogError::InvalidParameter {
                name: "a",
                constraint: "matrix must be square",
            });
        }
        let n = self.rows;
        perm.clear();
        perm.extend(0..n);
        let a = &mut self.data;
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_mag = a[k * n + k].modulus();
            for i in (k + 1)..n {
                let mag = a[i * n + k].modulus();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag < PIVOT_EPS || !pivot_mag.is_finite() {
                return Err(AnalogError::SingularMatrix { row: k });
            }
            if pivot_row != k {
                let (top, bottom) = a.split_at_mut(pivot_row * n);
                top[k * n..(k + 1) * n].swap_with_slice(&mut bottom[..n]);
                perm.swap(k, pivot_row);
            }
            let (top, bottom) = a.split_at_mut((k + 1) * n);
            let pivot_tail = &top[k * n + k..];
            let pivot = pivot_tail[0];
            for row in bottom.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                if factor == S::ZERO {
                    continue;
                }
                for (aij, &akj) in row[k + 1..].iter_mut().zip(&pivot_tail[1..]) {
                    *aij -= factor * akj;
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` into `x`, treating `self` as the LU factors produced
    /// by [`Matrix::factor_in_place`] with permutation `perm`. Allocates
    /// nothing when `x`'s capacity suffices.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] on a dimension mismatch.
    pub(crate) fn lu_solve_into(
        &self,
        perm: &[usize],
        b: &[S],
        x: &mut Vec<S>,
    ) -> Result<(), AnalogError> {
        let n = self.rows;
        if b.len() != n || perm.len() != n {
            return Err(AnalogError::InvalidParameter {
                name: "b",
                constraint: "vector length must equal matrix dimension",
            });
        }
        x.clear();
        x.extend(perm.iter().map(|&p| b[p]));
        // Forward substitution with L (unit diagonal), row by row.
        for i in 1..n {
            let (solved, rest) = x.split_at_mut(i);
            let mut acc = rest[0];
            for (&lij, &xj) in self.data[i * n..i * n + i].iter().zip(solved.iter()) {
                acc -= lij * xj;
            }
            rest[0] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut(i + 1);
            let row = &self.data[i * n..(i + 1) * n];
            let mut acc = head[i];
            for (&uij, &xj) in row[i + 1..].iter().zip(solved.iter()) {
                acc -= uij * xj;
            }
            head[i] = acc / row[i];
        }
        Ok(())
    }
}

impl<S: Scalar> std::ops::Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    fn index(&self, (i, j): (usize, usize)) -> &S {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[i * self.cols + j]
    }
}

impl<S: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<S> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_dsp::Complex;

    fn stamped<S: Scalar>(n: usize, entries: &[(usize, usize, S)]) -> Matrix<S> {
        let mut m = Matrix::zeros(n, n);
        for &(i, j, v) in entries {
            m.stamp(i, j, v);
        }
        m
    }

    /// `factor_in_place` + `lu_solve_into` against `solve`, bit for bit,
    /// on the same buffers reused across calls.
    fn assert_split_path_matches_solve<S: Scalar>(a: &Matrix<S>, b: &[S]) {
        let reference = a.solve(b);
        let mut lu = Matrix::zeros(0, 0);
        let mut perm = vec![7; 9];
        let mut x = vec![S::ONE; 9];
        for _ in 0..2 {
            lu.clone_from(a);
            let split = lu
                .factor_in_place(&mut perm)
                .and_then(|()| lu.lu_solve_into(&perm, b, &mut x));
            match (&reference, split) {
                (Ok(r), Ok(())) => assert_eq!(format!("{r:?}"), format!("{x:?}")),
                (Err(e), Err(f)) => assert_eq!(e, &f),
                (r, s) => panic!("solve {r:?} vs split path {s:?}"),
            }
        }
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let a = stamped(4, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)]);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn solves_small_system() {
        let a = stamped(2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = stamped(2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = stamped(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(AnalogError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn non_square_is_rejected() {
        let mut a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            a.factor_in_place(&mut Vec::new()),
            Err(AnalogError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let a = stamped(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        assert!(a.solve(&[1.0, 2.0]).is_err());
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn residual_is_small_for_random_system() {
        // Deterministic pseudo-random fill.
        let n = 20;
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant, well-conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn reusing_factorization_matches_fresh_solve() {
        let a = stamped(
            3,
            &[
                (0, 0, 4.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 2.0),
            ],
        );
        let mut lu = a.clone();
        let mut perm = Vec::new();
        lu.factor_in_place(&mut perm).unwrap();
        let mut x = Vec::new();
        for b in [[1.0, 0.0, 0.0], [0.0, 5.0, -2.0]] {
            lu.lu_solve_into(&perm, &b, &mut x).unwrap();
            assert_eq!(x, a.solve(&b).unwrap());
        }
    }

    #[test]
    fn split_path_is_bit_identical_to_solve_for_both_scalars() {
        // Zero elimination factors (row 1 has nothing under the first
        // pivot), a row swap (zero leading diagonal), and mixed magnitudes.
        let real = [
            (0, 1, 2.0),
            (0, 2, 1.0),
            (1, 1, -3.0),
            (1, 2, 1.0),
            (2, 0, 4.0),
            (2, 1, 1e-7),
            (2, 2, 2.0),
            (3, 0, -1.5),
            (3, 3, 5.0),
        ];
        let a = stamped(4, &real);
        assert_split_path_matches_solve(&a, &[1.0, -2.0, 0.5, 3.0]);

        let complex: Vec<(usize, usize, Complex)> = real
            .iter()
            .map(|&(i, j, v)| (i, j, Complex::new(v, if i == j { 1e-3 } else { -v })))
            .collect();
        let a = stamped(4, &complex);
        let b = [
            Complex::new(1.0, 2.0),
            Complex::from_real(-3.0),
            Complex::new(0.0, 0.25),
            Complex::ONE,
        ];
        assert_split_path_matches_solve(&a, &b);

        // Singular: both paths report the same failing row.
        let singular = stamped(3, &[(0, 0, 1.0), (1, 0, 2.0), (2, 2, 1.0)]);
        assert_split_path_matches_solve(&singular, &[1.0, 1.0, 1.0]);
        let singular = stamped(2, &[(0, 1, Complex::ONE), (1, 1, Complex::new(0.0, 2.0))]);
        assert_split_path_matches_solve(&singular, &[Complex::ONE, Complex::ONE]);
    }

    /// A NaN stamped anywhere into a solvable 3×3 system ends in a
    /// singular pivot or a non-finite solution, never an all-finite one.
    fn assert_nan_is_never_hidden<S: Scalar>(lift: impl Fn(f64) -> S) {
        let entries = [
            (0, 0, 2.0),
            (0, 1, 1.0),
            (1, 1, 3.0),
            (1, 2, 1.0),
            (2, 0, 1.0),
            (2, 2, 4.0),
        ];
        let b = [lift(1.0), lift(2.0), lift(3.0)];
        for i in 0..3 {
            for j in 0..3 {
                let mut a = Matrix::zeros(3, 3);
                for &(r, c, v) in &entries {
                    a.stamp(r, c, lift(v));
                }
                a.stamp(i, j, lift(f64::NAN));
                match a.solve(&b) {
                    Err(e) => assert!(matches!(e, AnalogError::SingularMatrix { .. })),
                    Ok(x) => assert!(
                        x.iter().any(|v| !v.is_finite_scalar()),
                        "NaN at ({i},{j}) gave all-finite {x:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn nan_stamped_matrix_never_yields_an_all_finite_answer() {
        assert_nan_is_never_hidden(|v| v);
        assert_nan_is_never_hidden(|v| Complex::new(v, 0.5 * v));
        // Upper triangular with a NaN above the diagonal: every
        // elimination factor is zero, so the skip keeps the NaN out of the
        // rows below and every pivot stays finite. The solve succeeds with
        // a NaN in `x`, which the Newton loop reports as non-convergence;
        // without the skip the NaN reached the last pivot and the kernel
        // reported a singular matrix.
        let upper = stamped(
            3,
            &[(0, 0, 2.0), (0, 2, f64::NAN), (1, 1, 3.0), (2, 2, 4.0)],
        );
        let x = upper.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert!(x[0].is_nan());
        assert_eq!(&x[1..], &[2.0 / 3.0, 0.75]);
    }

    #[test]
    fn resize_zeroed_reuses_and_clears() {
        let mut m = stamped(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        m.resize_zeroed(3, 3);
        assert_eq!((m.rows(), m.cols()), (3, 3));
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn stamp_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.stamp(0, 0, 1.5);
        m.stamp(0, 0, 2.5);
        assert_eq!(m[(0, 0)], 4.0);
        m.resize_zeroed(2, 2);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let m = Matrix::<f64>::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    // The complex scalar through the same kernel.

    fn complex_close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-10
    }

    fn assert_complex_bits(x: &[Complex], y: &[Complex]) {
        assert_eq!(x.len(), y.len());
        for (u, v) in x.iter().zip(y) {
            assert_eq!(u.re.to_bits(), v.re.to_bits());
            assert_eq!(u.im.to_bits(), v.im.to_bits());
        }
    }

    /// An asymmetric 3×3 that needs pivoting and mixes magnitudes.
    fn complex_pivoting_system() -> (Matrix<Complex>, Vec<Complex>) {
        let mut m = Matrix::zeros(3, 3);
        m.stamp(0, 1, Complex::new(2.0, -1.0));
        m.stamp(0, 2, Complex::from_real(0.5));
        m.stamp(1, 0, Complex::new(1e-3, 4.0));
        m.stamp(1, 1, Complex::new(0.0, -2.0));
        m.stamp(2, 0, Complex::from_real(3.0));
        m.stamp(2, 2, Complex::new(-1.0, 1.0));
        let b = vec![
            Complex::new(1.0, 2.0),
            Complex::from_real(-3.0),
            Complex::new(0.0, 0.25),
        ];
        (m, b)
    }

    #[test]
    fn scalar_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert!(complex_close(a + b, Complex::new(4.0, 1.0)));
        assert!(complex_close(a * b, Complex::new(5.0, 5.0)));
        assert!(complex_close(a / b * b, a));
        assert!(complex_close(a.conj().conj(), a));
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
        assert!(complex_close(-a + a, Complex::ZERO));
        assert!(complex_close(
            Complex::new(0.0, 2.0) * Complex::new(0.0, 3.0),
            Complex::from_real(-6.0)
        ));
    }

    #[test]
    fn identity_solve() {
        let mut m = Matrix::zeros(3, 3);
        for i in 0..3 {
            m.stamp(i, i, Complex::ONE);
        }
        let b = vec![
            Complex::new(1.0, 1.0),
            Complex::new(2.0, -1.0),
            Complex::from_real(3.0),
        ];
        let x = m.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&b) {
            assert!(complex_close(*u, *v));
        }
    }

    #[test]
    fn solves_complex_system() {
        let mut m = Matrix::zeros(2, 2);
        m.stamp(0, 0, Complex::new(1.0, 1.0));
        m.stamp(0, 1, Complex::from_real(2.0));
        m.stamp(1, 1, Complex::new(0.0, 3.0));
        let b = vec![Complex::new(3.0, 1.0), Complex::new(0.0, 6.0)];
        let x = m.solve(&b).unwrap();
        // Residual check.
        let r0 = m[(0, 0)] * x[0] + m[(0, 1)] * x[1] - b[0];
        let r1 = m[(1, 1)] * x[1] - b[1];
        assert!(r0.abs() < 1e-12 && r1.abs() < 1e-12);
    }

    #[test]
    fn complex_pivoting_handles_zero_diagonal() {
        let mut m = Matrix::zeros(2, 2);
        m.stamp(0, 1, Complex::ONE);
        m.stamp(1, 0, Complex::ONE);
        let x = m
            .solve(&[Complex::from_real(2.0), Complex::from_real(5.0)])
            .unwrap();
        assert!(complex_close(x[0], Complex::from_real(5.0)));
        assert!(complex_close(x[1], Complex::from_real(2.0)));
    }

    #[test]
    fn factored_path_is_bit_identical_to_one_shot_solve() {
        let (m, b) = complex_pivoting_system();
        let one_shot = m.solve(&b).unwrap();
        let mut lu = m.clone();
        let mut perm = Vec::new();
        lu.factor_in_place(&mut perm).unwrap();
        let mut x = Vec::new();
        lu.lu_solve_into(&perm, &b, &mut x).unwrap();
        assert_complex_bits(&x, &one_shot);
    }

    #[test]
    fn scratch_solve_is_bit_identical_across_dimension_changes() {
        // One set of factor buffers serving a 3×3, then a 1×1, then the
        // 3×3 again must leave no stale state: every answer matches a
        // fresh solve bit for bit.
        let (big, bb) = complex_pivoting_system();
        let mut small = Matrix::zeros(1, 1);
        small.stamp(0, 0, Complex::new(0.0, 2.0));
        let sb = vec![Complex::from_real(4.0)];

        let mut lu = Matrix::zeros(0, 0);
        let mut perm = Vec::new();
        let mut x = Vec::new();
        for _ in 0..2 {
            for (m, b) in [(&big, &bb), (&small, &sb)] {
                lu.clone_from(m);
                lu.factor_in_place(&mut perm).unwrap();
                lu.lu_solve_into(&perm, b, &mut x).unwrap();
                assert_complex_bits(&x, &m.solve(b).unwrap());
            }
        }
    }

    #[test]
    fn resize_zeroed_clears_previous_contents() {
        let mut m = Matrix::zeros(2, 2);
        m.stamp(1, 1, Complex::new(7.0, -7.0));
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
        let m = Matrix::<Complex>::zeros(2, 2);
        assert!(matches!(
            m.solve(&[Complex::ONE, Complex::ONE]),
            Err(AnalogError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut m = Matrix::zeros(2, 2);
        m.stamp(0, 0, Complex::ONE);
        m.stamp(1, 1, Complex::ONE);
        assert!(m.solve(&[Complex::ONE]).is_err());
    }
}
