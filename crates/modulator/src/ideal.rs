//! Floating-point reference modulators.
//!
//! [`IdealModulator`] is the quantization-limited bound the paper invokes:
//! "if the quantization error had been the main reason, the second-order
//! ΔΣ modulator would have achieved a dynamic range over 13 bits". It also
//! provides [`IdealModulator::step_linear`], which replaces the quantizer
//! by an injected error sample so simulations can be checked against the
//! linear model of Eq. (3) exactly.

use si_core::Diff;

use crate::arch::SecondOrderTopology;
use crate::{Modulator, ModulatorError};

/// An ideal (noise-free, infinitely linear) second-order ΔΣ modulator.
#[derive(Debug, Clone)]
pub struct IdealModulator {
    topology: SecondOrderTopology,
    full_scale: f64,
    v1: f64,
    v2: f64,
    last_bit: i8,
}

impl IdealModulator {
    /// A modulator with the given topology and full-scale input (the DAC
    /// feedback level), in the same unit as the inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ModulatorError::InvalidParameter`] for a non-positive full
    /// scale or invalid topology.
    pub fn new(topology: SecondOrderTopology, full_scale: f64) -> Result<Self, ModulatorError> {
        topology.validate()?;
        if !(full_scale > 0.0) || !full_scale.is_finite() {
            return Err(ModulatorError::InvalidParameter {
                name: "full_scale",
                constraint: "full scale must be positive and finite",
            });
        }
        Ok(IdealModulator {
            topology,
            full_scale,
            v1: 0.0,
            v2: 0.0,
            last_bit: 1,
        })
    }

    /// The current integrator states `(v1, v2)` — exposed so experiments
    /// can verify the paper's claim that the scaled loop keeps its states
    /// "slightly larger than twice the full-scale input range".
    #[must_use]
    pub fn states(&self) -> (f64, f64) {
        (self.v1, self.v2)
    }

    /// One step in differential-value form (`x` in amperes or any unit
    /// consistent with `full_scale`).
    ///
    /// Recurrences (delaying integrators, single-sample loop delay):
    /// `y[n] = sign(v2[n])`, then
    /// `v1[n+1] = v1[n] + g1·(x[n] − fb1·y[n]·FS)` and
    /// `v2[n+1] = v2[n] + g2·(v1[n] − fb2·y[n]·FS)`.
    pub fn step_value(&mut self, x: f64) -> i8 {
        let t = self.topology;
        self.last_bit = if self.v2 >= 0.0 { 1 } else { -1 };
        let fb = f64::from(self.last_bit) * self.full_scale;
        let v1_out = self.v1;
        self.v1 += t.g1 * (x - t.fb1 * fb);
        self.v2 += t.g2 * (v1_out - t.fb2 * fb);
        self.last_bit
    }

    /// One step with the quantizer replaced by an additive error `e`:
    /// returns the (unquantized) output `v2 + e` and feeds `v2 + e` back,
    /// so the loop behaves exactly as the linear model.
    pub fn step_linear(&mut self, x: f64, e: f64) -> f64 {
        let t = self.topology;
        let v1_out = self.v1;
        let v2_out = self.v2;
        let y = v2_out + e;
        self.v1 += t.g1 * (x - t.fb1 * y);
        self.v2 += t.g2 * (v1_out - t.fb2 * y);
        y
    }
}

impl Modulator for IdealModulator {
    fn step(&mut self, input: Diff) -> i8 {
        self.step_value(input.dm())
    }

    fn reset(&mut self) {
        self.v1 = 0.0;
        self.v2 = 0.0;
        self.last_bit = 1;
    }

    fn full_scale(&self) -> f64 {
        self.full_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(IdealModulator::new(SecondOrderTopology::paper_scaled(), 0.0).is_err());
        assert!(IdealModulator::new(SecondOrderTopology::paper_scaled(), 1.0).is_ok());
        let mut bad = SecondOrderTopology::paper_scaled();
        bad.g2 = -1.0;
        assert!(IdealModulator::new(bad, 1.0).is_err());
    }

    #[test]
    fn dc_input_bit_density_tracks_input() {
        // For a DC input of d·full_scale the average of the ±1 bits must
        // converge to d — the fundamental ΔΣ property.
        for d in [-0.5, -0.2, 0.0, 0.3, 0.6] {
            let mut m = IdealModulator::new(SecondOrderTopology::paper_scaled(), 1.0).unwrap();
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| f64::from(m.step_value(d))).sum::<f64>() / n as f64;
            assert!((mean - d).abs() < 0.01, "d={d}: mean {mean}");
        }
    }

    #[test]
    fn states_stay_bounded_for_in_range_input() {
        let mut m = IdealModulator::new(SecondOrderTopology::paper_scaled(), 1.0).unwrap();
        let mut max_v1 = 0.0f64;
        let mut max_v2 = 0.0f64;
        for n in 0..50_000 {
            let x = 0.5 * (2.0 * std::f64::consts::PI * 53.0 * n as f64 / 65536.0).sin();
            m.step_value(x);
            let (v1, v2) = m.states();
            max_v1 = max_v1.max(v1.abs());
            max_v2 = max_v2.max(v2.abs());
        }
        // Paper: "only require a signal range … slightly larger than twice
        // the full-scale input range".
        assert!(max_v1 < 3.0, "v1 peak {max_v1}");
        assert!(max_v2 < 3.0, "v2 peak {max_v2}");
    }

    #[test]
    fn linear_step_matches_transfer_function() {
        // Inject an error impulse with zero input: the output must follow
        // the NTF impulse response.
        let topo = SecondOrderTopology::eq3_unit();
        let mut m = IdealModulator::new(topo, 1.0).unwrap();
        let ntf = topo.linear_model().unwrap().ntf;
        let n = 16;
        let expected = ntf.impulse_response(n);
        let mut got = Vec::with_capacity(n);
        for k in 0..n {
            let e = if k == 0 { 1.0 } else { 0.0 };
            got.push(m.step_linear(0.0, e));
        }
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-12, "{got:?} vs {expected:?}");
        }
    }

    #[test]
    fn linear_step_signal_path_is_double_delay() {
        // Impulse at the input with zero quantizer error → STF = z⁻² for
        // the unit topology.
        let topo = SecondOrderTopology::eq3_unit();
        let mut m = IdealModulator::new(topo, 1.0).unwrap();
        let mut got = Vec::new();
        for k in 0..8 {
            let x = if k == 0 { 1.0 } else { 0.0 };
            got.push(m.step_linear(x, 0.0));
        }
        let stf = topo.linear_model().unwrap().stf;
        let expected = stf.impulse_response(8);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-12, "{got:?} vs {expected:?}");
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut m = IdealModulator::new(SecondOrderTopology::paper_scaled(), 1.0).unwrap();
        let first: Vec<i8> = (0..16).map(|_| m.step_value(0.3)).collect();
        m.reset();
        let again: Vec<i8> = (0..16).map(|_| m.step_value(0.3)).collect();
        assert_eq!(first, again);
        assert_eq!(m.full_scale(), 1.0);
    }
}
