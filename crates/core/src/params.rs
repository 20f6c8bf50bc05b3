//! Memory-cell parameter sets.
//!
//! Every error mechanism the paper names is an explicit, documented knob:
//!
//! * **transmission error** — the input/output conductance ratio `ε`; the
//!   class-AB cell divides it by the grounded-gate amplifier's voltage gain
//!   ("the input conductance is increased by the voltage gain of the
//!   grounded-gate transistor TG"),
//! * **charge injection** — a polynomial signal-dependent current error;
//!   complementary switches and the differential structure shrink it,
//! * **settling and slewing** — first-order settling with a slew limit in
//!   the GGA ("the THD increased due to the slewing in the GGAs"),
//! * **thermal noise** — per-branch white noise, 33 nA rms in the paper's
//!   design,
//! * **branch mismatch** — gain mismatch between the two wires, which
//!   converts common mode into differential signal and un-cancels
//!   even-order distortion.

use crate::SiError;

/// Polynomial signal-dependent current error applied per branch:
/// `i_err = c0 + c1·i + c2·i² + c3·i³`.
///
/// On a fully differential signal the even terms (`c0`, `c2`) appear as
/// common mode and cancel in the differential output (up to branch
/// mismatch); the odd terms (`c1`, `c3`) survive as gain error and HD3.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChargeInjection {
    /// Constant pedestal in amperes (clock feedthrough).
    pub constant: f64,
    /// Linear coefficient (dimensionless).
    pub linear: f64,
    /// Quadratic coefficient in 1/A.
    pub quadratic: f64,
    /// Cubic coefficient in 1/A².
    pub cubic: f64,
}

impl ChargeInjection {
    /// No charge injection at all.
    #[must_use]
    pub fn none() -> Self {
        ChargeInjection::default()
    }

    /// Evaluates the error current for a branch current `i` (amperes).
    #[must_use]
    pub fn error(&self, i: f64) -> f64 {
        self.constant + i * (self.linear + i * (self.quadratic + i * self.cubic))
    }

    /// Whether all coefficients are finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.constant.is_finite()
            && self.linear.is_finite()
            && self.quadratic.is_finite()
            && self.cubic.is_finite()
    }
}

/// First-order settling with a slew limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settling {
    /// How many time constants fit in the available settling window
    /// (`T/2 · (1 − dead time) / τ`). Larger is better; `f64::INFINITY`
    /// means perfect settling.
    pub time_constants: f64,
    /// Maximum current step the cell can acquire in one sample, amperes.
    /// Steps beyond this slew (the GGA runs out of bias current) and the
    /// sample lands short of its target. `f64::INFINITY` disables slewing.
    pub slew_limit: f64,
}

impl Settling {
    /// Perfect settling: infinite bandwidth, no slew limit.
    #[must_use]
    pub fn ideal() -> Self {
        Settling {
            time_constants: f64::INFINITY,
            slew_limit: f64::INFINITY,
        }
    }

    /// The value actually stored when the cell tries to move from `prev`
    /// to `target` within one settling window.
    #[must_use]
    pub fn acquire(&self, prev: f64, target: f64) -> f64 {
        let step = target - prev;
        if step.abs() > self.slew_limit {
            // Pure slew: the whole window is spent ramping.
            return prev + step.signum() * self.slew_limit;
        }
        if self.time_constants.is_infinite() {
            return target;
        }
        target - step * (-self.time_constants).exp()
    }
}

/// Parameters of the class-A (second-generation) memory cell baseline.
///
/// Class A can only sink signal currents down to `−bias`: the memory
/// transistor cuts off when the input cancels its bias, which is the hard
/// clip that forces class-A designs to burn a bias at least equal to the
/// peak signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassAParams {
    /// Memory-transistor bias current, amperes.
    pub bias: f64,
    /// Transmission error `ε = g_out/g_in` per cell.
    pub gain_error: f64,
    /// Signal-dependent charge injection.
    pub charge_injection: ChargeInjection,
    /// Settling/slewing model.
    pub settling: Settling,
    /// Per-branch thermal noise, amperes rms.
    pub noise_rms: f64,
    /// Relative 1-σ gain mismatch between the two branches.
    pub branch_mismatch: f64,
}

impl ClassAParams {
    /// A perfectly ideal cell with the given bias.
    #[must_use]
    pub fn ideal_with_bias(bias: f64) -> Self {
        ClassAParams {
            bias,
            gain_error: 0.0,
            charge_injection: ChargeInjection::none(),
            settling: Settling::ideal(),
            noise_rms: 0.0,
            branch_mismatch: 0.0,
        }
    }

    /// An ideal cell with a 20 µA bias.
    #[must_use]
    pub fn ideal() -> Self {
        ClassAParams::ideal_with_bias(20e-6)
    }

    /// Representative values for the paper's 0.8 µm process at 20 µA bias:
    /// `ε ≈ g_ds/g_m` of the memory device (no GGA boost), class-A-grade
    /// charge injection, 33 nA branch noise.
    #[must_use]
    pub fn paper_08um() -> Self {
        ClassAParams {
            bias: 20e-6,
            gain_error: 7.5e-3,
            charge_injection: ChargeInjection {
                constant: 20e-9,
                linear: 2e-3,
                quadratic: 4e2,
                cubic: 4e8,
            },
            settling: Settling {
                time_constants: 8.0,
                slew_limit: f64::INFINITY,
            },
            noise_rms: 33e-9,
            branch_mismatch: 2e-3,
        }
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for non-finite or out-of-range
    /// values.
    pub fn validate(&self) -> Result<(), SiError> {
        if !(self.bias > 0.0) || !self.bias.is_finite() {
            return Err(SiError::InvalidParameter {
                name: "bias",
                constraint: "bias current must be positive and finite",
            });
        }
        validate_common(
            self.gain_error,
            &self.charge_injection,
            &self.settling,
            self.noise_rms,
            self.branch_mismatch,
        )
    }
}

/// Parameters of the paper's fully differential class-AB memory cell
/// (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassAbParams {
    /// Quiescent current of each memory transistor, amperes.
    pub quiescent: f64,
    /// Largest modulation index the supply headroom allows; signal branch
    /// currents clip at `max_modulation_index · quiescent`.
    pub max_modulation_index: f64,
    /// Voltage gain of the grounded-gate amplifier; divides the raw
    /// transmission error.
    pub gga_gain: f64,
    /// Transmission error before GGA boost (`g_out/g_m` of the memory
    /// devices).
    pub raw_gain_error: f64,
    /// Signal-dependent charge injection (already reduced by the
    /// complementary-switch arrangement and differential cancellation).
    pub charge_injection: ChargeInjection,
    /// Settling/slewing model; the slew limit models the GGA bias running
    /// out on large steps.
    pub settling: Settling,
    /// Per-branch thermal noise, amperes rms.
    pub noise_rms: f64,
    /// Relative 1-σ gain mismatch between the two branches.
    pub branch_mismatch: f64,
}

impl ClassAbParams {
    /// A perfectly ideal class-AB cell (10 µA quiescent, generous
    /// modulation range).
    #[must_use]
    pub fn ideal() -> Self {
        ClassAbParams {
            quiescent: 10e-6,
            max_modulation_index: 1e6,
            gga_gain: f64::INFINITY,
            raw_gain_error: 0.0,
            charge_injection: ChargeInjection::none(),
            settling: Settling::ideal(),
            noise_rms: 0.0,
            branch_mismatch: 0.0,
        }
    }

    /// Representative values for the paper's 0.8 µm, 3.3 V design:
    /// 10 µA quiescent, GGA gain ≈ 150, 33 nA branch noise, slewing set so
    /// distortion grows past ≈ 8 µA inputs at the delay-line clock.
    #[must_use]
    pub fn paper_08um() -> Self {
        ClassAbParams {
            quiescent: 10e-6,
            max_modulation_index: 3.0,
            gga_gain: 150.0,
            raw_gain_error: 7.5e-3,
            charge_injection: ChargeInjection {
                constant: 5e-9,
                linear: 5e-4,
                quadratic: 1e2,
                // Tuned so the two-cell delay line shows ≈ −50 dB THD at
                // the paper's 8 µA input (HD3 contributions of the cells
                // add coherently).
                cubic: 9e7,
            },
            settling: Settling {
                time_constants: 8.0,
                slew_limit: 14e-6,
            },
            noise_rms: 33e-9,
            branch_mismatch: 1e-3,
        }
    }

    /// The cell parameter set for the **modulator** integrators: cells are
    /// sized for the loop's larger internal swings (20 µA quiescent, Table
    /// 2's bias budget), which scales the distortion coefficients down, and
    /// `noise_rms` is zero because the modulator model injects the
    /// *aggregate* input-referred circuit noise (the paper's 33 nA) at the
    /// first integrator input — per-cell noise there would double-count it
    /// (cell noise inside an integrator accumulates exactly like input
    /// noise, amplified by `1/g₁`).
    #[must_use]
    pub fn paper_08um_modulator() -> Self {
        ClassAbParams {
            quiescent: 20e-6,
            // The integrator cells clip at 1.0·20 µA = 20 µA — just above
            // the ≈ 2.7× full-scale (16 µA) state excursions of the scaled
            // loop ("signal range … slightly larger than twice the
            // full-scale input range"). The clip doubles as the state clamp
            // that keeps the second-order loop stable under overload (the
            // paper's "resetting" consideration).
            max_modulation_index: 1.0,
            gga_gain: 150.0,
            raw_gain_error: 7.5e-3,
            charge_injection: ChargeInjection {
                constant: 5e-9,
                linear: 5e-4,
                quadratic: 5e1,
                cubic: 7.5e7,
            },
            settling: Settling {
                time_constants: 8.0,
                slew_limit: 28e-6,
            },
            noise_rms: 0.0,
            branch_mismatch: 1e-3,
        }
    }

    /// The effective transmission error after GGA boost.
    #[must_use]
    pub(crate) fn effective_gain_error(&self) -> f64 {
        if self.gga_gain.is_infinite() {
            0.0
        } else {
            self.raw_gain_error / self.gga_gain
        }
    }

    /// The hard clip level for branch signal currents.
    #[must_use]
    pub fn clip_level(&self) -> f64 {
        self.max_modulation_index * self.quiescent
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for non-finite or out-of-range
    /// values.
    pub fn validate(&self) -> Result<(), SiError> {
        if !(self.quiescent > 0.0) || !self.quiescent.is_finite() {
            return Err(SiError::InvalidParameter {
                name: "quiescent",
                constraint: "quiescent current must be positive and finite",
            });
        }
        if !(self.max_modulation_index > 0.0) {
            return Err(SiError::InvalidParameter {
                name: "max_modulation_index",
                constraint: "modulation index limit must be positive",
            });
        }
        if !(self.gga_gain >= 1.0) {
            return Err(SiError::InvalidParameter {
                name: "gga_gain",
                constraint: "gga gain must be at least 1",
            });
        }
        validate_common(
            self.raw_gain_error,
            &self.charge_injection,
            &self.settling,
            self.noise_rms,
            self.branch_mismatch,
        )
    }
}

fn validate_common(
    gain_error: f64,
    ci: &ChargeInjection,
    settling: &Settling,
    noise_rms: f64,
    mismatch: f64,
) -> Result<(), SiError> {
    if !(0.0..1.0).contains(&gain_error) {
        return Err(SiError::InvalidParameter {
            name: "gain_error",
            constraint: "transmission error must lie in [0, 1)",
        });
    }
    if !ci.is_finite() {
        return Err(SiError::InvalidParameter {
            name: "charge_injection",
            constraint: "coefficients must be finite",
        });
    }
    if !(settling.time_constants > 0.0) {
        return Err(SiError::InvalidParameter {
            name: "settling.time_constants",
            constraint: "time-constant budget must be positive",
        });
    }
    if !(settling.slew_limit > 0.0) {
        return Err(SiError::InvalidParameter {
            name: "settling.slew_limit",
            constraint: "slew limit must be positive",
        });
    }
    if !(noise_rms >= 0.0) || !noise_rms.is_finite() {
        return Err(SiError::InvalidParameter {
            name: "noise_rms",
            constraint: "noise must be non-negative and finite",
        });
    }
    if !(0.0..0.5).contains(&mismatch) {
        return Err(SiError::InvalidParameter {
            name: "branch_mismatch",
            constraint: "mismatch must lie in [0, 0.5)",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_injection_polynomial() {
        let ci = ChargeInjection {
            constant: 1.0,
            linear: 2.0,
            quadratic: 3.0,
            cubic: 4.0,
        };
        // 1 + 2·2 + 3·4 + 4·8 = 49 at i = 2.
        assert_eq!(ci.error(2.0), 49.0);
        assert_eq!(ChargeInjection::none().error(5.0), 0.0);
    }

    #[test]
    fn ideal_settling_is_exact() {
        let s = Settling::ideal();
        assert_eq!(s.acquire(0.0, 3e-6), 3e-6);
    }

    #[test]
    fn finite_settling_leaves_residue() {
        let s = Settling {
            time_constants: 5.0,
            slew_limit: f64::INFINITY,
        };
        let got = s.acquire(0.0, 1.0);
        let residue = 1.0 - got;
        assert!((residue - (-5.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn slewing_clamps_large_steps() {
        let s = Settling {
            time_constants: 10.0,
            slew_limit: 1e-6,
        };
        assert_eq!(s.acquire(0.0, 5e-6), 1e-6);
        assert_eq!(s.acquire(0.0, -5e-6), -1e-6);
        // Small steps settle normally.
        let small = s.acquire(0.0, 0.5e-6);
        assert!((small - 0.5e-6).abs() < 1e-10);
    }

    #[test]
    fn class_a_validation() {
        assert!(ClassAParams::ideal().validate().is_ok());
        assert!(ClassAParams::paper_08um().validate().is_ok());
        let mut p = ClassAParams::ideal();
        p.bias = 0.0;
        assert!(p.validate().is_err());
        let mut p = ClassAParams::ideal();
        p.gain_error = 1.5;
        assert!(p.validate().is_err());
        let mut p = ClassAParams::ideal();
        p.noise_rms = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn class_ab_validation() {
        assert!(ClassAbParams::ideal().validate().is_ok());
        assert!(ClassAbParams::paper_08um().validate().is_ok());
        let mut p = ClassAbParams::ideal();
        p.quiescent = -1e-6;
        assert!(p.validate().is_err());
        let mut p = ClassAbParams::ideal();
        p.gga_gain = 0.5;
        assert!(p.validate().is_err());
        let mut p = ClassAbParams::ideal();
        p.branch_mismatch = 0.9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn gga_boost_divides_transmission_error() {
        let p = ClassAbParams::paper_08um();
        assert!((p.effective_gain_error() - 7.5e-3 / 150.0).abs() < 1e-12);
        assert_eq!(ClassAbParams::ideal().effective_gain_error(), 0.0);
    }

    #[test]
    fn clip_level_is_mi_times_iq() {
        let p = ClassAbParams::paper_08um();
        assert!((p.clip_level() - 30e-6).abs() < 1e-18);
    }

    #[test]
    fn class_ab_errors_are_smaller_than_class_a() {
        // The structural claim of the paper: class AB with GGA has a much
        // smaller transmission error and charge injection than class A.
        let a = ClassAParams::paper_08um();
        let ab = ClassAbParams::paper_08um();
        assert!(ab.effective_gain_error() < a.gain_error / 50.0);
        assert!(ab.charge_injection.constant < a.charge_injection.constant);
    }
}
