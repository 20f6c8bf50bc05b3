//! Unit newtypes for physical quantities.
//!
//! All public APIs in the workspace take and return these wrappers rather
//! than bare `f64`s, so a current can never be passed where a voltage is
//! expected (C-NEWTYPE). Arithmetic that stays within a unit is provided;
//! cross-unit products that have a physical meaning (V·A = W, V/A = Ω, …)
//! are provided explicitly.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $symbol:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// The magnitude of the quantity.
            #[must_use]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// The larger of two quantities.
            #[must_use]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// The smaller of two quantities.
            #[must_use]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Whether the underlying value is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, |a, b| a + b)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $symbol)
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> $name {
                $name(v)
            }
        }
    };
}

unit!(
    /// Electrical potential in volts.
    Volts,
    "V"
);
unit!(
    /// Electrical current in amperes.
    Amps,
    "A"
);
unit!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);
unit!(
    /// Conductance in siemens.
    Siemens,
    "S"
);
unit!(
    /// Capacitance in farads.
    Farads,
    "F"
);
unit!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
unit!(
    /// Time in seconds.
    Seconds,
    "s"
);
unit!(
    /// Power in watts.
    Watts,
    "W"
);

impl Mul<Amps> for Volts {
    /// Electrical power `P = V·I`.
    type Output = Watts;
    fn mul(self, rhs: Amps) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Volts> for Amps {
    /// Electrical power `P = I·V`.
    type Output = Watts;
    fn mul(self, rhs: Volts) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Volts> for Siemens {
    /// Conductance law `I = G·V`.
    type Output = Amps;
    fn mul(self, rhs: Volts) -> Amps {
        Amps(self.0 * rhs.0)
    }
}

impl Mul<Ohms> for Amps {
    /// Ohm's law `V = I·R`.
    type Output = Volts;
    fn mul(self, rhs: Ohms) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

impl Div<Volts> for Amps {
    /// Conductance `G = I/V`.
    type Output = Siemens;
    fn div(self, rhs: Volts) -> Siemens {
        Siemens(self.0 / rhs.0)
    }
}

impl Div<Amps> for Volts {
    /// Resistance `R = V/I`.
    type Output = Ohms;
    fn div(self, rhs: Amps) -> Ohms {
        Ohms(self.0 / rhs.0)
    }
}

impl Ohms {
    /// The reciprocal conductance.
    #[must_use]
    pub(crate) fn to_siemens(self) -> Siemens {
        Siemens(1.0 / self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_within_a_unit() {
        let a = Volts(2.0) + Volts(0.5) - Volts(1.0);
        assert_eq!(a, Volts(1.5));
        assert_eq!(-a, Volts(-1.5));
        assert_eq!(a * 2.0, Volts(3.0));
        assert_eq!(2.0 * a, Volts(3.0));
        assert_eq!(a / 3.0, Volts(0.5));
        assert_eq!(Volts(3.0) / Volts(1.5), 2.0);
    }

    #[test]
    fn cross_unit_products() {
        assert_eq!(Volts(3.3) * Amps(2.0), Watts(6.6));
        assert_eq!(Amps(2.0) * Volts(3.3), Watts(6.6));
        assert_eq!(Siemens(0.5) * Volts(4.0), Amps(2.0));
        assert_eq!(Amps(2.0) * Ohms(3.0), Volts(6.0));
        assert_eq!(Amps(1.0) / Volts(2.0), Siemens(0.5));
        assert_eq!(Volts(6.0) / Amps(2.0), Ohms(3.0));
    }

    #[test]
    fn reciprocal_conversions() {
        assert_eq!(Ohms(4.0).to_siemens(), Siemens(0.25));
    }

    #[test]
    fn helpers() {
        assert_eq!(Amps(-3.0).abs(), Amps(3.0));
        assert_eq!(Amps(1.0).max(Amps(2.0)), Amps(2.0));
        assert_eq!(Amps(1.0).min(Amps(2.0)), Amps(1.0));
        assert!(Amps(1.0).is_finite());
        assert!(!Amps(f64::NAN).is_finite());
        let total: Amps = [Amps(1.0), Amps(2.0)].into_iter().sum();
        assert_eq!(total, Amps(3.0));
    }

    #[test]
    fn display_includes_symbol() {
        assert_eq!(Volts(3.3).to_string(), "3.3 V");
        assert_eq!(Siemens(0.1).to_string(), "0.1 S");
    }

    #[test]
    fn accumulation_operators() {
        let mut v = Volts(1.0);
        v += Volts(0.5);
        v -= Volts(0.25);
        assert_eq!(v, Volts(1.25));
    }
}
