//! Clocked switches and the two-phase non-overlapping clock.
//!
//! Every switched-current circuit is clocked by two non-overlapping phases
//! φ1/φ2 (the paper's Fig. 1 shows the memory switch on φ1 with the output
//! valid on φ2). Switches are modeled as two-valued resistors — a small
//! `Ron` when their phase is active and a very large `Roff` otherwise —
//! which keeps the MNA matrix structurally constant across the transient.

use crate::units::{Ohms, Seconds};
use crate::AnalogError;

/// Which clock phase (or constant state) drives a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockPhase {
    /// Closed while φ1 is high.
    Phi1,
    /// Closed while φ2 is high.
    Phi2,
    /// Always closed (useful for debugging netlists).
    AlwaysOn,
    /// Always open.
    AlwaysOff,
}

/// A two-phase non-overlapping clock.
///
/// Each period starts with φ1 high, followed by a dead time, then φ2 high,
/// then dead time again:
///
/// ```text
/// |--φ1--|gap|--φ2--|gap|
/// ```
///
/// ```
/// use si_analog::device::{ClockPhase, TwoPhaseClock};
/// use si_analog::units::Seconds;
///
/// # fn main() -> Result<(), si_analog::AnalogError> {
/// let clk = TwoPhaseClock::new(Seconds(1e-6), 0.05)?; // 1 MHz, 5% dead time
/// assert!(clk.is_high(ClockPhase::Phi1, Seconds(0.2e-6)));
/// assert!(!clk.is_high(ClockPhase::Phi2, Seconds(0.2e-6)));
/// assert!(clk.is_high(ClockPhase::Phi2, Seconds(0.7e-6)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPhaseClock {
    period: Seconds,
    /// Fraction of each half-period spent as dead time after the phase.
    dead_fraction: f64,
}

impl TwoPhaseClock {
    /// A clock with the given period and non-overlap dead time expressed as
    /// a fraction of the half-period (0 gives ideal 50/50 phases).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] if the period is not
    /// positive or the dead fraction is outside `[0, 0.5)`.
    pub fn new(period: Seconds, dead_fraction: f64) -> Result<Self, AnalogError> {
        if !(period.0 > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "period",
                constraint: "clock period must be positive",
            });
        }
        if !(0.0..0.5).contains(&dead_fraction) {
            return Err(AnalogError::InvalidParameter {
                name: "dead_fraction",
                constraint: "dead fraction must lie in [0, 0.5)",
            });
        }
        Ok(TwoPhaseClock {
            period,
            dead_fraction,
        })
    }

    /// The clock period.
    #[must_use]
    pub(crate) fn period(&self) -> Seconds {
        self.period
    }

    /// Whether the given phase is high at time `t`.
    #[must_use]
    pub fn is_high(&self, phase: ClockPhase, t: Seconds) -> bool {
        match phase {
            ClockPhase::AlwaysOn => return true,
            ClockPhase::AlwaysOff => return false,
            _ => {}
        }
        let frac = (t.0 / self.period.0).rem_euclid(1.0);
        let half = 0.5;
        let active = half * (1.0 - self.dead_fraction);
        match phase {
            ClockPhase::Phi1 => frac < active,
            ClockPhase::Phi2 => (half..half + active).contains(&frac),
            ClockPhase::AlwaysOn | ClockPhase::AlwaysOff => unreachable!(),
        }
    }

    /// The time at the middle of the `n`-th φ2 interval.
    #[must_use]
    pub(crate) fn phi2_midpoint(&self, n: usize) -> Seconds {
        let active = 0.5 * (1.0 - self.dead_fraction);
        Seconds((n as f64 + 0.5 + active / 2.0) * self.period.0)
    }
}

/// A clocked ideal switch: `Ron` when its phase is high, `Roff` otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Switch {
    /// Closed-state resistance.
    pub ron: Ohms,
    /// Open-state resistance.
    pub roff: Ohms,
    /// Controlling phase.
    pub phase: ClockPhase,
}

impl Switch {
    /// A switch with typical values: 100 Ω on, 1 GΩ off.
    #[must_use]
    pub(crate) fn on_phase(phase: ClockPhase) -> Self {
        Switch {
            ron: Ohms(100.0),
            roff: Ohms(1e9),
            phase,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_validates_parameters() {
        assert!(TwoPhaseClock::new(Seconds(0.0), 0.1).is_err());
        assert!(TwoPhaseClock::new(Seconds(1.0), 0.5).is_err());
        assert!(TwoPhaseClock::new(Seconds(1.0), -0.1).is_err());
        assert!(TwoPhaseClock::new(Seconds(1.0), 0.0).is_ok());
    }

    #[test]
    fn phases_do_not_overlap() {
        let clk = TwoPhaseClock::new(Seconds(1.0), 0.1).unwrap();
        for i in 0..1000 {
            let t = Seconds(i as f64 * 0.001);
            assert!(
                !(clk.is_high(ClockPhase::Phi1, t) && clk.is_high(ClockPhase::Phi2, t)),
                "overlap at {t}"
            );
        }
    }

    #[test]
    fn dead_time_exists_between_phases() {
        let clk = TwoPhaseClock::new(Seconds(1.0), 0.2).unwrap();
        // φ1 active for 0.4, dead until 0.5, φ2 active until 0.9, dead to 1.0.
        assert!(clk.is_high(ClockPhase::Phi1, Seconds(0.39)));
        assert!(!clk.is_high(ClockPhase::Phi1, Seconds(0.41)));
        assert!(!clk.is_high(ClockPhase::Phi2, Seconds(0.45)));
        assert!(clk.is_high(ClockPhase::Phi2, Seconds(0.55)));
        assert!(!clk.is_high(ClockPhase::Phi2, Seconds(0.95)));
    }

    #[test]
    fn clock_is_periodic() {
        let clk = TwoPhaseClock::new(Seconds(2e-6), 0.05).unwrap();
        for i in 0..50 {
            let t = Seconds(0.3e-6 + i as f64 * 2e-6);
            assert!(clk.is_high(ClockPhase::Phi1, t));
        }
    }

    #[test]
    fn midpoints_land_inside_their_phases() {
        let clk = TwoPhaseClock::new(Seconds(1e-6), 0.1).unwrap();
        for n in 0..5 {
            assert!(clk.is_high(ClockPhase::Phi2, clk.phi2_midpoint(n)));
        }
    }

    #[test]
    fn always_on_off() {
        let clk = TwoPhaseClock::new(Seconds(1.0), 0.0).unwrap();
        assert!(clk.is_high(ClockPhase::AlwaysOn, Seconds(0.77)));
        assert!(!clk.is_high(ClockPhase::AlwaysOff, Seconds(0.77)));
    }
}
