//! Transistor-level analog circuit simulation substrate.
//!
//! The paper's cell-level claims — the grounded-gate amplifier creating a
//! virtual ground at the class-AB memory cell input, the common-mode
//! feedforward mirror arithmetic of Fig. 2, and the minimum-supply-voltage
//! conditions of Eqs. (1)–(2) — are all first-order MOS effects. This crate
//! implements just enough of a circuit simulator to demonstrate them from an
//! actual netlist rather than from hand-written behavioral formulas:
//!
//! * [`units`] — newtypes for volts, amps, siemens, farads, hertz, seconds,
//! * [`linalg`] — dense LU factorization with partial pivoting,
//! * [`sparse`] — CSC storage and structure-caching sparse LU (symbolic
//!   analysis once per topology, numeric replay per solve),
//! * [`solver`] — the backend layer choosing dense vs. sparse per circuit,
//! * [`device`] — level-1 (square-law) MOS model with channel-length
//!   modulation and body effect, passives, sources, and clocked switches,
//! * [`netlist`] — circuit construction,
//! * [`mna`] — modified nodal analysis stamping,
//! * [`dc`] — damped Newton–Raphson operating-point solver with gmin
//!   stepping,
//! * [`tran`] — backward-Euler transient analysis honoring two-phase clocks,
//! * [`smallsignal`] — linearized port conductance,
//! * [`cells`] — netlist builders for the paper's circuits (Fig. 1 class-AB
//!   cell, GGA, Fig. 2 CMFF mirrors, class-A baseline),
//! * [`headroom`] — the supply-voltage feasibility conditions of Eqs. (1)–(2),
//! * [`telemetry`] — zero-cost-when-disabled solver observability
//!   ([`telemetry::EngineStats`]) threaded through
//!   every analysis and the parallel sweep layer,
//! * [`json`] — the workspace's one JSON value, parser and writer (engine
//!   statistics, run reports and the job service's wire format).
//!
//! # Example
//!
//! Solve a resistive divider:
//!
//! ```
//! use si_analog::netlist::Circuit;
//! use si_analog::units::{Ohms, Volts};
//! use si_analog::dc::DcSolver;
//!
//! # fn main() -> Result<(), si_analog::AnalogError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let mid = ckt.node("mid");
//! ckt.voltage_source("V1", vin, Circuit::GROUND, Volts(3.3))?;
//! ckt.resistor("R1", vin, mid, Ohms(1e3))?;
//! ckt.resistor("R2", mid, Circuit::GROUND, Ohms(2e3))?;
//! let op = DcSolver::new().solve(&ckt)?;
//! assert!((op.voltage(mid).0 - 2.2).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

// Validation sites deliberately use `!(x > 0.0)`-style negated
// comparisons: unlike `x <= 0.0`, they reject NaN as well.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
pub mod ac;
pub mod acnoise;
pub mod cells;
pub mod dc;
pub mod device;
pub mod engine;
pub mod headroom;
pub mod json;
pub mod linalg;
pub mod mna;
pub mod netlist;
pub mod op_report;
pub mod parse;
pub mod smallsignal;
pub mod solver;
pub mod sparse;
pub mod sweep;
pub mod telemetry;
pub mod tran;
pub mod units;

mod error;

pub use error::AnalogError;
pub use parse::{ParseError, ParseErrorKind, ValueError};

/// Boltzmann constant in joules per kelvin.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Reference temperature for noise calculations, in kelvin.
pub const ROOM_TEMPERATURE: f64 = 300.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_voltage_is_about_26_mv() {
        let thermal_voltage = BOLTZMANN * ROOM_TEMPERATURE / 1.602_176_634e-19;
        assert!((thermal_voltage - 0.02585).abs() < 1e-4);
    }
}
