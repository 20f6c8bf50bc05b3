//! Passive elements: resistors and capacitors.
//!
//! Capacitors are open circuits in DC analysis and become a conductance plus
//! history current (the backward-Euler companion model) during transient
//! analysis; the companion values are computed here so [`crate::mna`] stays
//! a pure stamper.

use crate::units::{Farads, Ohms, Siemens, Volts};

/// A linear resistor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resistor {
    /// Resistance value.
    pub r: Ohms,
}

impl Resistor {
    /// The stamped conductance.
    #[must_use]
    pub(crate) fn conductance(&self) -> Siemens {
        self.r.to_siemens()
    }
}

/// A linear capacitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacitor {
    /// Capacitance value.
    pub c: Farads,
}

/// Backward-Euler companion model of a capacitor over one step `h`:
/// the capacitor is replaced by a conductance `C/h` in parallel with a
/// current source `C/h·v_prev` (flowing from − to + terminal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CapCompanion {
    /// Equivalent conductance `C/h`.
    pub geq: Siemens,
    /// Equivalent history current `C/h · v_prev`.
    pub ieq: crate::units::Amps,
}

impl Capacitor {
    /// The companion model for step size `h` given the capacitor voltage at
    /// the previous accepted time point.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not positive (the transient engine validates its
    /// step before calling this).
    #[must_use]
    pub(crate) fn companion(&self, h: f64, v_prev: Volts) -> CapCompanion {
        assert!(h > 0.0, "time step must be positive, got {h}");
        let geq = self.c.0 / h;
        CapCompanion {
            geq: Siemens(geq),
            ieq: crate::units::Amps(geq * v_prev.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistor_conductance() {
        let r = Resistor { r: Ohms(250.0) };
        assert_eq!(r.conductance(), Siemens(0.004));
    }

    #[test]
    fn capacitor_companion_values() {
        let c = Capacitor { c: Farads(1e-12) };
        let comp = c.companion(1e-9, Volts(2.0));
        assert!((comp.geq.0 - 1e-3).abs() < 1e-18);
        assert!((comp.ieq.0 - 2e-3).abs() < 1e-18);
    }

    #[test]
    fn companion_conductance_grows_with_smaller_step() {
        let c = Capacitor { c: Farads(1e-12) };
        let big = c.companion(1e-9, Volts(0.0));
        let small = c.companion(1e-10, Volts(0.0));
        assert!(small.geq.0 > big.geq.0);
    }

    #[test]
    #[should_panic(expected = "time step must be positive")]
    fn zero_step_panics() {
        let c = Capacitor { c: Farads(1e-12) };
        let _ = c.companion(0.0, Volts(0.0));
    }
}
