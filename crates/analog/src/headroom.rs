//! Minimum supply-voltage analysis — the paper's Eqs. (1) and (2).
//!
//! "To ensure proper operation, every transistor should be in its saturation
//! region" — the minimum supply voltage of the class-AB cell is set by two
//! stacked-voltage budgets:
//!
//! * **Eq. (1), the GGA bias branch:** the saturation voltages of the bias
//!   transistor `TP`, grounded-gate transistor `TG`, cascode `TC` and bottom
//!   bias `TN` must stack, plus the memory-gate swing
//!   `(√(1+mᵢ) + 1)·(V_gs − V_T)` driven by the peak class-AB current,
//! * **Eq. (2), the memory branch:** the two memory-transistor thresholds
//!   plus both gate overdrives at peak current,
//!   `|V_T|_MP + V_T_MN + 2·√(1+mᵢ)·(V_gs − V_T)`.
//!
//! The printed equations in the available copy of the paper are partially
//! garbled by OCR; the forms above are reconstructed from the circuit of
//! Fig. 1 and reproduce the paper's stated conclusion — a 3.3 V supply
//! suffices "given the threshold voltages around 1 V, even with large input
//! currents" (modulation index above 1). The key structural facts preserved:
//! the class-AB overdrive grows as `√(1+mᵢ)` (device current at the signal
//! peak is `(1+mᵢ)·I_Q`), and the supply must cover both branches.
//!
//! For the class-A baseline the signal current may not exceed the bias
//! (`mᵢ ≤ 1`), so handling the same peak current requires a quiescent
//! current at least equal to the peak — the power comparison behind the
//! paper's "more power efficient realization" claim, quantified in
//! [`HeadroomBudget::class_a_equivalent_bias`].

use crate::units::{Amps, Volts};
use crate::AnalogError;

/// Saturation-voltage budget of the class-AB cell of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadroomBudget {
    /// Overdrive of the PMOS bias transistor `TP`.
    pub vov_tp: Volts,
    /// Overdrive of the grounded-gate transistor `TG`.
    pub vov_tg: Volts,
    /// Overdrive of the cascode transistor `TC`.
    pub vov_tc: Volts,
    /// Overdrive of the bottom bias transistor `TN`.
    pub vov_tn: Volts,
    /// Quiescent overdrive of the memory transistors `MN`/`MP`.
    pub vov_memory: Volts,
    /// Magnitude of the PMOS memory transistor threshold.
    pub vt_mp: Volts,
    /// NMOS memory transistor threshold.
    pub vt_mn: Volts,
}

impl HeadroomBudget {
    /// A budget representative of the paper's 0.8 µm, 3.3 V design:
    /// |VT| ≈ 0.9/0.8 V, bias overdrives of 0.2 V, memory overdrive 0.25 V.
    #[must_use]
    pub fn paper_08um() -> Self {
        HeadroomBudget {
            vov_tp: Volts(0.2),
            vov_tg: Volts(0.2),
            vov_tc: Volts(0.2),
            vov_tn: Volts(0.2),
            vov_memory: Volts(0.25),
            vt_mp: Volts(0.9),
            vt_mn: Volts(0.8),
        }
    }

    /// Validates that every entry is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] otherwise.
    pub fn validate(&self) -> Result<(), AnalogError> {
        let entries = [
            self.vov_tp,
            self.vov_tg,
            self.vov_tc,
            self.vov_tn,
            self.vov_memory,
            self.vt_mp,
            self.vt_mn,
        ];
        if entries.iter().any(|v| !(v.0 > 0.0) || !v.0.is_finite()) {
            return Err(AnalogError::InvalidParameter {
                name: "budget",
                constraint: "all overdrives and thresholds must be positive and finite",
            });
        }
        Ok(())
    }

    /// Eq. (1): minimum supply demanded by the GGA bias branch at signal
    /// modulation index `mi` (peak signal current over quiescent current).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a negative `mi` or an
    /// invalid budget.
    pub(crate) fn vdd_min_bias_branch(&self, mi: f64) -> Result<Volts, AnalogError> {
        self.validate()?;
        check_mi(mi)?;
        let swing = ((1.0 + mi).sqrt() + 1.0) * self.vov_memory.0;
        Ok(Volts(
            self.vov_tp.0 + self.vov_tg.0 + self.vov_tc.0 + self.vov_tn.0 + swing,
        ))
    }

    /// Eq. (2): minimum supply demanded by the memory branch at modulation
    /// index `mi` — both thresholds plus both peak overdrives.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a negative `mi` or an
    /// invalid budget.
    pub(crate) fn vdd_min_memory_branch(&self, mi: f64) -> Result<Volts, AnalogError> {
        self.validate()?;
        check_mi(mi)?;
        let peak_ov = (1.0 + mi).sqrt() * self.vov_memory.0;
        Ok(Volts(self.vt_mp.0 + self.vt_mn.0 + 2.0 * peak_ov))
    }

    /// The overall minimum supply: the larger of Eqs. (1) and (2).
    ///
    /// # Errors
    ///
    /// See `HeadroomBudget::vdd_min_bias_branch`.
    pub fn vdd_min(&self, mi: f64) -> Result<Volts, AnalogError> {
        Ok(self
            .vdd_min_bias_branch(mi)?
            .max(self.vdd_min_memory_branch(mi)?))
    }

    /// Whether the cell operates at supply `vdd` and modulation index `mi`.
    ///
    /// # Errors
    ///
    /// See `HeadroomBudget::vdd_min_bias_branch`.
    pub fn is_feasible(&self, vdd: Volts, mi: f64) -> Result<bool, AnalogError> {
        Ok(self.vdd_min(mi)?.0 <= vdd.0)
    }

    /// The largest modulation index sustainable at supply `vdd`, found by
    /// bisection (0 if even `mi = 0` does not fit; capped at 100).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for an invalid budget.
    pub fn max_modulation_index(&self, vdd: Volts) -> Result<f64, AnalogError> {
        self.validate()?;
        if !self.is_feasible(vdd, 0.0)? {
            return Ok(0.0);
        }
        let (mut lo, mut hi) = (0.0f64, 100.0f64);
        if self.is_feasible(vdd, hi)? {
            return Ok(hi);
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.is_feasible(vdd, mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// The quiescent bias a **class-A** cell needs to handle the same peak
    /// signal current `i_peak`: class A requires `I_bias ≥ i_peak`, whereas
    /// the class-AB cell handles it with `I_Q = i_peak / mi`. The ratio of
    /// the two is the paper's power-efficiency argument.
    #[must_use]
    pub fn class_a_equivalent_bias(i_peak: Amps) -> Amps {
        i_peak.abs()
    }
}

fn check_mi(mi: f64) -> Result<(), AnalogError> {
    if !(mi >= 0.0) || !mi.is_finite() {
        return Err(AnalogError::InvalidParameter {
            name: "mi",
            constraint: "modulation index must be finite and non-negative",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_fits_3v3_with_large_signals() {
        // The paper's claim: 3.3 V works with thresholds around 1 V even
        // with input currents exceeding the bias (mi > 1).
        let b = HeadroomBudget::paper_08um();
        assert!(b.is_feasible(Volts(3.3), 1.0).unwrap());
        assert!(b.is_feasible(Volts(3.3), 2.0).unwrap());
        let max_mi = b.max_modulation_index(Volts(3.3)).unwrap();
        assert!(max_mi > 1.0, "max mi {max_mi}");
    }

    #[test]
    fn lower_supply_reduces_max_modulation_index() {
        let b = HeadroomBudget::paper_08um();
        let at_3v3 = b.max_modulation_index(Volts(3.3)).unwrap();
        let at_2v7 = b.max_modulation_index(Volts(2.7)).unwrap();
        assert!(at_3v3 > at_2v7);
    }

    #[test]
    fn infeasible_supply_gives_zero_index() {
        let b = HeadroomBudget::paper_08um();
        assert_eq!(b.max_modulation_index(Volts(1.0)).unwrap(), 0.0);
    }

    #[test]
    fn vdd_min_grows_with_sqrt_of_modulation() {
        let b = HeadroomBudget::paper_08um();
        let v0 = b.vdd_min_memory_branch(0.0).unwrap().0;
        let v3 = b.vdd_min_memory_branch(3.0).unwrap().0;
        // Overdrive term doubles: 2·Vov·(√4 − √1) = 2·0.25 = 0.5 V more.
        assert!((v3 - v0 - 0.5).abs() < 1e-12, "delta {}", v3 - v0);
    }

    #[test]
    fn overall_min_is_max_of_branches() {
        let b = HeadroomBudget::paper_08um();
        let mi = 1.5;
        let v = b.vdd_min(mi).unwrap();
        assert_eq!(
            v,
            b.vdd_min_bias_branch(mi)
                .unwrap()
                .max(b.vdd_min_memory_branch(mi).unwrap())
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        let b = HeadroomBudget::paper_08um();
        assert!(b.vdd_min(-1.0).is_err());
        assert!(b.vdd_min(f64::NAN).is_err());
        let mut bad = b;
        bad.vov_tg = Volts(0.0);
        assert!(bad.vdd_min(1.0).is_err());
    }

    #[test]
    fn class_a_needs_bias_at_least_peak() {
        let i_peak = Amps(30e-6);
        let class_a = HeadroomBudget::class_a_equivalent_bias(i_peak);
        assert_eq!(class_a, i_peak);
        // Class AB at mi = 3 gets away with a quarter of the bias.
        let class_ab_bias = Amps(i_peak.0 / 3.0);
        assert!(class_ab_bias.0 < class_a.0);
    }

    #[test]
    fn max_modulation_index_is_consistent_with_feasibility() {
        let b = HeadroomBudget::paper_08um();
        let vdd = Volts(3.3);
        let mi = b.max_modulation_index(vdd).unwrap();
        assert!(b.is_feasible(vdd, mi * 0.999).unwrap());
        assert!(!b.is_feasible(vdd, mi * 1.01 + 0.01).unwrap());
    }
}
