//! Power-dissipation and supply-feasibility estimates for Tables 1 and 2.
//!
//! SI circuits burn static bias current; the power estimate is simply the
//! supply voltage times the sum of all branch currents. [`SystemPower`] is
//! an itemized budget: class-AB cells contribute their memory quiescent
//! plus GGA bias per half-circuit, CMFF stages their mirror branches, the
//! quantizer and DACs their own biases. The defaults reproduce Table 1
//! (delay line: 0.7 mW at 3.3 V) and Table 2 (modulators: 3.2 mW at 3.3 V).
//!
//! Supply feasibility (Eqs. 1–2) is provided by
//! [`si_analog::headroom::HeadroomBudget`], re-exported here so system code
//! needs only this crate.

pub use si_analog::headroom::HeadroomBudget;

use si_analog::units::{Amps, Volts, Watts};

use crate::SiError;

/// An itemized static power budget.
///
/// ```
/// use si_analog::units::{Amps, Volts};
/// use si_core::power::SystemPower;
///
/// # fn main() -> Result<(), si_core::SiError> {
/// // The paper's delay line: two class-AB cells plus a CMFF stage.
/// let budget = SystemPower::new(Volts(3.3))?
///     .with_class_ab_cells(2, Amps(10e-6), Amps(20e-6))
///     .with_cmff_stages(1, Amps(20e-6));
/// let p = budget.total_power();
/// assert!((p.0 - 0.7e-3).abs() < 0.15e-3); // Table 1: 0.7 mW
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPower {
    supply: Volts,
    items: Vec<PowerItem>,
}

/// One line of the power budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerItem {
    /// Human-readable label.
    pub label: String,
    /// Total branch current of this item.
    pub current: Amps,
}

impl SystemPower {
    /// An empty budget at the given supply.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for a non-positive supply.
    pub fn new(supply: Volts) -> Result<Self, SiError> {
        if !(supply.0 > 0.0) || !supply.0.is_finite() {
            return Err(SiError::InvalidParameter {
                name: "supply",
                constraint: "supply voltage must be positive and finite",
            });
        }
        Ok(SystemPower {
            supply,
            items: Vec::new(),
        })
    }

    /// The supply voltage.
    #[must_use]
    pub fn supply(&self) -> Volts {
        self.supply
    }

    /// Adds `n` fully differential class-AB cells. Each cell has two
    /// half-circuits, each burning the memory quiescent `iq` (through the
    /// MN/MP stack) plus the GGA bias `j` (through TP/TG/TC/TN).
    #[must_use]
    pub fn with_class_ab_cells(mut self, n: usize, iq: Amps, j: Amps) -> Self {
        self.items.push(PowerItem {
            label: format!("{n} class-AB cells"),
            current: Amps(n as f64 * 2.0 * (iq.0 + j.0)),
        });
        self
    }

    /// Adds `n` CMFF stages; each costs about three mirror branches of the
    /// block bias (Tp0 plus the two output mirrors) — "the penalty of using
    /// CMFF is only the use of current mirrors".
    #[must_use]
    pub fn with_cmff_stages(mut self, n: usize, block_bias: Amps) -> Self {
        self.items.push(PowerItem {
            label: format!("{n} CMFF stages"),
            current: Amps(n as f64 * 3.0 * block_bias.0),
        });
        self
    }

    /// Adds `n` CMFB stages; the sense/compare amplifier costs roughly four
    /// branches of the block bias plus the level-shift headroom current.
    #[must_use]
    pub fn with_cmfb_stages(mut self, n: usize, block_bias: Amps) -> Self {
        self.items.push(PowerItem {
            label: format!("{n} CMFB stages"),
            current: Amps(n as f64 * 4.5 * block_bias.0),
        });
        self
    }

    /// Adds a current quantizer (Träff comparator) with the given bias.
    #[must_use]
    pub fn with_quantizer(mut self, bias: Amps) -> Self {
        self.items.push(PowerItem {
            label: "current quantizer".to_string(),
            current: bias,
        });
        self
    }

    /// Adds `n` 1-bit feedback DACs of the given full-scale level; a
    /// current-steering DAC burns its full scale on both phases,
    /// differentially.
    #[must_use]
    pub fn with_dacs(mut self, n: usize, level: Amps) -> Self {
        self.items.push(PowerItem {
            label: format!("{n} feedback DACs"),
            current: Amps(n as f64 * 2.0 * level.0),
        });
        self
    }

    /// Adds an arbitrary labelled item.
    #[must_use]
    pub(crate) fn with_item(mut self, label: &str, current: Amps) -> Self {
        self.items.push(PowerItem {
            label: label.to_string(),
            current,
        });
        self
    }

    /// The itemized budget lines.
    #[must_use]
    pub fn items(&self) -> &[PowerItem] {
        &self.items
    }

    /// The total supply current.
    #[must_use]
    pub fn total_current(&self) -> Amps {
        self.items.iter().map(|i| i.current).sum()
    }

    /// The total static power `Vdd · ΣI`.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.supply * self.total_current()
    }

    /// The paper's delay-line budget (Table 1): two class-AB cells
    /// (10 µA quiescent, 20 µA GGA bias), one CMFF stage, output buffering.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; propagates the supply check.
    pub fn paper_delay_line() -> Result<Self, SiError> {
        Ok(SystemPower::new(Volts(3.3))?
            .with_class_ab_cells(2, Amps(10e-6), Amps(20e-6))
            .with_cmff_stages(1, Amps(20e-6))
            .with_item("output buffer", Amps(20e-6)))
    }

    /// The paper's modulator budget (Table 2): two integrators of two
    /// class-AB cells each, input/feedback scaling mirrors, two CMFF
    /// stages, the current quantizer and the feedback DACs.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; propagates the supply check.
    pub fn paper_modulator() -> Result<Self, SiError> {
        Ok(SystemPower::new(Volts(3.3))?
            .with_class_ab_cells(4, Amps(20e-6), Amps(40e-6))
            .with_cmff_stages(2, Amps(40e-6))
            .with_item("scaling mirrors", Amps(70e-6))
            .with_quantizer(Amps(60e-6))
            .with_dacs(2, Amps(30e-6)))
    }
}

/// The class-A vs class-AB power comparison for equal peak signal: class A
/// needs `bias ≥ i_peak`, class AB needs `iq = i_peak / mi`. Returns the
/// power ratio `P_A / P_AB` (cells only, same cell count and GGA overhead
/// charged to class AB).
///
/// # Errors
///
/// Returns [`SiError::InvalidParameter`] for non-positive inputs.
pub fn class_a_over_ab_power_ratio(i_peak: Amps, mi: f64, gga_bias: Amps) -> Result<f64, SiError> {
    if !(i_peak.0 > 0.0) || !(mi > 0.0) || !(gga_bias.0 >= 0.0) {
        return Err(SiError::InvalidParameter {
            name: "i_peak/mi/gga_bias",
            constraint: "peak current and modulation index must be positive",
        });
    }
    let p_a = 2.0 * i_peak.0;
    let p_ab = 2.0 * (i_peak.0 / mi + gga_bias.0);
    Ok(p_a / p_ab)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_budget_is_zero() {
        let b = SystemPower::new(Volts(3.3)).unwrap();
        assert_eq!(b.total_current(), Amps(0.0));
        assert_eq!(b.total_power(), Watts(0.0));
        assert_eq!(b.supply(), Volts(3.3));
    }

    #[test]
    fn invalid_supply_rejected() {
        assert!(SystemPower::new(Volts(0.0)).is_err());
        assert!(SystemPower::new(Volts(f64::NAN)).is_err());
    }

    #[test]
    fn delay_line_budget_matches_table_1() {
        let b = SystemPower::paper_delay_line().unwrap();
        let p = b.total_power().0;
        assert!(
            (p - 0.7e-3).abs() < 0.12e-3,
            "delay line power {p} W (Table 1: 0.7 mW)"
        );
    }

    #[test]
    fn modulator_budget_matches_table_2() {
        let b = SystemPower::paper_modulator().unwrap();
        let p = b.total_power().0;
        assert!(
            (p - 3.2e-3).abs() < 0.4e-3,
            "modulator power {p} W (Table 2: 3.2 mW)"
        );
    }

    #[test]
    fn items_are_recorded() {
        let b = SystemPower::new(Volts(3.3))
            .unwrap()
            .with_class_ab_cells(2, Amps(10e-6), Amps(20e-6))
            .with_item("extra", Amps(5e-6));
        assert_eq!(b.items().len(), 2);
        assert_eq!(b.items()[0].label, "2 class-AB cells");
        assert!((b.total_current().0 - 125e-6).abs() < 1e-12);
    }

    #[test]
    fn class_ab_beats_class_a_at_high_modulation_index() {
        // mi = 3, modest GGA overhead: class A burns ~2× the power.
        let ratio = class_a_over_ab_power_ratio(Amps(30e-6), 3.0, Amps(5e-6)).unwrap();
        assert!(ratio > 1.5, "ratio {ratio}");
        // At mi = 1 with GGA overhead, class AB loses its advantage.
        let ratio = class_a_over_ab_power_ratio(Amps(30e-6), 1.0, Amps(5e-6)).unwrap();
        assert!(ratio < 1.0, "ratio {ratio}");
    }

    #[test]
    fn cmfb_costs_more_than_cmff() {
        let ff = SystemPower::new(Volts(3.3))
            .unwrap()
            .with_cmff_stages(1, Amps(20e-6));
        let fb = SystemPower::new(Volts(3.3))
            .unwrap()
            .with_cmfb_stages(1, Amps(20e-6));
        assert!(fb.total_power().0 > ff.total_power().0);
    }

    #[test]
    fn ratio_rejects_bad_inputs() {
        assert!(class_a_over_ab_power_ratio(Amps(0.0), 1.0, Amps(0.0)).is_err());
        assert!(class_a_over_ab_power_ratio(Amps(1e-6), 0.0, Amps(0.0)).is_err());
    }
}
