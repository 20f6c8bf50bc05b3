//! Common-mode control: the paper's feedforward technique and the
//! feedback baseline it replaces.
//!
//! **CMFF** (Section III): duplicate and halve the two output currents with
//! mirrors, sum them to obtain the common-mode current, subtract it from
//! both outputs. Pure current-mode arithmetic — no voltage conversion, no
//! loop, no extra delay. Its only imperfection is mirror matching, modeled
//! as a residual gain on the cancelled component.
//!
//! **CMFB** (the baseline): sense the common mode by voltage (nonlinear
//! V↔I conversions) and correct through a feedback loop (one sample of
//! loop delay, finite loop gain). Both drawbacks the paper lists are
//! parameters here: `sense_nonlinearity` injects a `dm²` term into the
//! sensed common mode, and the loop's one-period latency plus finite gain
//! leaves transient common mode uncancelled.

use crate::sample::Diff;
use crate::SiError;

/// A processor that removes the common-mode component from a differential
/// sample stream.
pub trait CommonModeControl: std::fmt::Debug {
    /// Processes one sample, returning it with (most of) its common mode
    /// removed.
    fn process(&mut self, input: Diff) -> Diff;

    /// Resets any internal state.
    fn reset(&mut self);
}

/// The paper's common-mode feedforward network (Fig. 2).
///
/// ```
/// use si_core::cm::{CommonModeControl, Cmff};
/// use si_core::Diff;
///
/// # fn main() -> Result<(), si_core::SiError> {
/// let mut cmff = Cmff::new(0.0)?; // perfectly matched mirrors
/// let out = cmff.process(Diff::from_modes(3e-6, 1e-6));
/// assert!((out.dm() - 3e-6).abs() < 1e-18); // differential untouched
/// assert!(out.cm().abs() < 1e-18);          // common mode removed
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cmff {
    residual: f64,
}

impl Cmff {
    /// A CMFF stage whose mirrors match to within `mirror_mismatch`
    /// (relative); the uncancelled fraction of the common mode equals the
    /// mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] if the mismatch is not in
    /// `[0, 1)`.
    pub fn new(mirror_mismatch: f64) -> Result<Self, SiError> {
        if !(0.0..1.0).contains(&mirror_mismatch) {
            return Err(SiError::InvalidParameter {
                name: "mirror_mismatch",
                constraint: "mirror mismatch must lie in [0, 1)",
            });
        }
        Ok(Cmff {
            residual: mirror_mismatch,
        })
    }

    /// A CMFF with the paper-representative 0.5 % mirror matching.
    ///
    /// # Panics
    ///
    /// Never panics; the constant is in range.
    #[must_use]
    pub fn paper_08um() -> Self {
        Cmff::new(5e-3).expect("constant mismatch is valid")
    }
}

impl CommonModeControl for Cmff {
    fn process(&mut self, input: Diff) -> Diff {
        // Feedforward: measure cm via mirrors and subtract instantly. A
        // mirror mismatch leaves `residual`·cm behind.
        Diff::from_modes(input.dm(), input.cm() * self.residual)
    }

    fn reset(&mut self) {}
}

/// The traditional common-mode feedback baseline.
///
/// The correction is a **damped** (leaky) integral of the sensed common
/// mode. The damping is not optional: the block is applied around SI
/// *integrators*, and an undamped CMFB accumulator plus the integrator's
/// own accumulation puts the cm-loop poles on the unit circle — the loop
/// rings at ≈ 0.11·f_s and slowly builds µA-scale common mode (this
/// reproduction measured exactly that before damping was added). The price
/// of stability is **gain-limited suppression**: the settled residual is
/// `cm / (1 + loop_gain/damping)` — one more structural drawback of CMFB
/// next to the latency and sense nonlinearity the paper lists.
#[derive(Debug, Clone)]
pub struct Cmfb {
    /// Loop gain of the feedback (per sample).
    loop_gain: f64,
    /// Leak rate of the correction accumulator, per sample.
    damping: f64,
    /// Coefficient of the parasitic `dm²` term the voltage-mode sensing
    /// injects into the correction, in 1/A.
    sense_nonlinearity: f64,
    /// The accumulated correction current.
    correction: f64,
}

impl Cmfb {
    /// A CMFB loop with the given per-sample loop gain (0, 1], equal
    /// damping, and sense nonlinearity (1/A).
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] if the gain is outside (0, 1]
    /// or the nonlinearity is not finite.
    pub fn new(loop_gain: f64, sense_nonlinearity: f64) -> Result<Self, SiError> {
        Cmfb::with_damping(loop_gain, loop_gain, sense_nonlinearity)
    }

    /// A CMFB loop with explicit damping in (0, 1].
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] if gain or damping are outside
    /// (0, 1] or the nonlinearity is not finite.
    pub(crate) fn with_damping(
        loop_gain: f64,
        damping: f64,
        sense_nonlinearity: f64,
    ) -> Result<Self, SiError> {
        if !(loop_gain > 0.0 && loop_gain <= 1.0) {
            return Err(SiError::InvalidParameter {
                name: "loop_gain",
                constraint: "loop gain must lie in (0, 1]",
            });
        }
        if !(damping > 0.0 && damping <= 1.0) {
            return Err(SiError::InvalidParameter {
                name: "damping",
                constraint: "damping must lie in (0, 1]",
            });
        }
        if !sense_nonlinearity.is_finite() {
            return Err(SiError::InvalidParameter {
                name: "sense_nonlinearity",
                constraint: "nonlinearity coefficient must be finite",
            });
        }
        Ok(Cmfb {
            loop_gain,
            damping,
            sense_nonlinearity,
            correction: 0.0,
        })
    }

    /// A CMFB with paper-representative values: loop gain 0.5 per sample
    /// (speed-limited), sense nonlinearity 2000 /A.
    ///
    /// # Panics
    ///
    /// Never panics; the constants are in range.
    #[must_use]
    pub fn paper_08um() -> Self {
        Cmfb::new(0.5, 2e3).expect("constants are valid")
    }
}

impl CommonModeControl for Cmfb {
    fn process(&mut self, input: Diff) -> Diff {
        // The loop applies the correction computed from *previous* samples
        // (feedback latency), then updates its leaky accumulator from what
        // it senses now. The sensing itself is polluted by a dm² term.
        let out = Diff::from_modes(input.dm(), input.cm() - self.correction);
        let sensed = out.cm() + self.sense_nonlinearity * out.dm() * out.dm();
        self.correction += self.loop_gain * sensed - self.damping * self.correction;
        out
    }

    fn reset(&mut self) {
        self.correction = 0.0;
    }
}

/// No common-mode control at all (for ablation experiments).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCmControl;

impl CommonModeControl for NoCmControl {
    fn process(&mut self, input: Diff) -> Diff {
        input
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmff_removes_cm_instantly() {
        let mut cmff = Cmff::new(0.0).unwrap();
        let out = cmff.process(Diff::from_modes(5e-6, 3e-6));
        assert!((out.dm() - 5e-6).abs() < 1e-20);
        assert!(out.cm().abs() < 1e-20);
        // No state: the very first sample is already cancelled.
    }

    #[test]
    fn cmff_mismatch_leaves_residual() {
        let mut cmff = Cmff::new(0.01).unwrap();
        let out = cmff.process(Diff::from_common(10e-6));
        assert!((out.cm() - 0.1e-6).abs() < 1e-18);
    }

    #[test]
    fn cmff_rejects_bad_mismatch() {
        assert!(Cmff::new(-0.1).is_err());
        assert!(Cmff::new(1.0).is_err());
        let _ = Cmff::paper_08um();
    }

    #[test]
    fn cmfb_is_slow_and_gain_limited() {
        let mut cmfb = Cmfb::new(0.5, 0.0).unwrap();
        // Step of common mode: the loop corrects geometrically, not
        // instantly — the paper's "speed limitation due to the feedback" —
        // and the damped accumulator leaves a gain-limited residual of
        // cm / (1 + loop_gain/damping) = cm/2 here.
        let step = Diff::from_common(10e-6);
        let first = cmfb.process(step);
        assert!((first.cm() - 10e-6).abs() < 1e-18, "no correction yet");
        let second = cmfb.process(step);
        assert!(second.cm() < first.cm());
        let mut last = second;
        for _ in 0..60 {
            last = cmfb.process(step);
        }
        assert!(
            (last.cm() - 5e-6).abs() < 1e-8,
            "settled cm {} (expected the 5 µA gain-limited residual)",
            last.cm()
        );
    }

    #[test]
    fn cmfb_with_damping_validates() {
        assert!(Cmfb::with_damping(0.5, 0.0, 0.0).is_err());
        assert!(Cmfb::with_damping(0.5, 1.5, 0.0).is_err());
        assert!(Cmfb::with_damping(0.5, 0.2, 0.0).is_ok());
    }

    #[test]
    fn cmfb_stays_stable_around_an_accumulator() {
        // Regression for the unit-circle cm oscillation: close the CMFB
        // around an explicit accumulator (the SI integrator's cm path) and
        // verify the loop damps instead of ringing up.
        let mut cmfb = Cmfb::new(0.5, 0.0).unwrap();
        let mut acc = 0.0f64;
        let mut peak = 0.0f64;
        for _ in 0..20_000 {
            acc += 10e-9; // per-period cm error injection
            let corrected = cmfb.process(Diff::from_common(acc));
            acc = corrected.cm();
            peak = peak.max(acc.abs());
        }
        assert!(peak < 1e-6, "cm loop rang up to {peak}");
    }

    #[test]
    fn cmfb_nonlinearity_couples_dm_into_cm_path() {
        let mut clean = Cmfb::new(0.5, 0.0).unwrap();
        let mut dirty = Cmfb::new(0.5, 2e3).unwrap();
        let x = Diff::from_modes(10e-6, 0.0);
        for _ in 0..10 {
            clean.process(x);
            dirty.process(x);
        }
        let yc = clean.process(x);
        let yd = dirty.process(x);
        // The nonlinear sense builds a spurious correction from dm².
        assert!(yc.cm().abs() < 1e-15);
        assert!(yd.cm().abs() > 1e-10, "cm {}", yd.cm());
    }

    #[test]
    fn cmfb_rejects_bad_parameters() {
        assert!(Cmfb::new(0.0, 0.0).is_err());
        assert!(Cmfb::new(1.5, 0.0).is_err());
        assert!(Cmfb::new(0.5, f64::NAN).is_err());
        let _ = Cmfb::paper_08um();
    }

    #[test]
    fn cmfb_reset_clears_correction() {
        let mut cmfb = Cmfb::new(1.0, 0.0).unwrap();
        cmfb.process(Diff::from_common(5e-6));
        cmfb.reset();
        let y = cmfb.process(Diff::from_common(5e-6));
        assert!((y.cm() - 5e-6).abs() < 1e-18);
    }

    #[test]
    fn no_control_is_identity() {
        let mut none = NoCmControl;
        let x = Diff::from_modes(1e-6, 2e-6);
        assert_eq!(none.process(x), x);
        none.reset();
    }

    #[test]
    fn cmff_beats_cmfb_on_transient_cm() {
        // The paper's speed argument: on a common-mode step, CMFF has
        // removed everything before CMFB has even reacted.
        let mut cmff = Cmff::paper_08um();
        let mut cmfb = Cmfb::paper_08um();
        let step = Diff::from_common(10e-6);
        let ff = cmff.process(step);
        let fb = cmfb.process(step);
        assert!(ff.cm().abs() < 0.01 * fb.cm().abs());
    }
}
