//! Signal-processing blocks assembled from memory cells: delay lines,
//! SI integrators and SI differentiators.
//!
//! All blocks process one sample per clock period and are generic over the
//! memory-cell implementation, so every experiment can be run with class-A
//! or class-AB cells (or an ideal parameterization of either) without
//! changing the system code.

use std::collections::VecDeque;

use crate::cell::{ClassACell, ClassAbCell, MemoryCell};
use crate::cm::{Cmff, CommonModeControl, NoCmControl};
use crate::params::{ClassAParams, ClassAbParams};
use crate::sample::Diff;
use crate::SiError;

/// A cascade of memory cells realizing `z^{-n/2}` — the paper's test-chip
/// delay line is two cells (`z⁻¹`).
///
/// Cells alternate clock phases, so a *pair* of cells contributes one full
/// period of delay and restores the sign. The cell count must therefore be
/// even.
#[derive(Debug)]
pub struct DelayLine<C: MemoryCell> {
    cells: Vec<C>,
    cm: Box<dyn CommonModeControl + Send>,
    pipeline: VecDeque<Diff>,
}

impl DelayLine<ClassAbCell> {
    /// A delay line of `cells` class-AB cells (must be even and ≥ 2), with
    /// the paper's CMFF attached at the output.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidSize`] for an odd or zero cell count, or
    /// parameter validation errors.
    pub fn class_ab(cells: usize, params: &ClassAbParams, seed: u64) -> Result<Self, SiError> {
        let built = (0..cells)
            .map(|k| ClassAbCell::new(params, seed.wrapping_add(k as u64)))
            .collect::<Result<Vec<_>, _>>()?;
        DelayLine::from_cells(built, Box::new(Cmff::new(0.0)?))
    }
}

impl DelayLine<ClassACell> {
    /// A delay line of `cells` class-A cells (baseline), no CM control.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidSize`] for an odd or zero cell count, or
    /// parameter validation errors.
    pub fn class_a(cells: usize, params: &ClassAParams, seed: u64) -> Result<Self, SiError> {
        let built = (0..cells)
            .map(|k| ClassACell::new(params, seed.wrapping_add(k as u64)))
            .collect::<Result<Vec<_>, _>>()?;
        DelayLine::from_cells(built, Box::new(NoCmControl))
    }
}

impl<C: MemoryCell> DelayLine<C> {
    /// Assembles a delay line from pre-built cells and a common-mode stage.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidSize`] for an odd or zero cell count.
    pub fn from_cells(
        cells: Vec<C>,
        cm: Box<dyn CommonModeControl + Send>,
    ) -> Result<Self, SiError> {
        if cells.is_empty() || !cells.len().is_multiple_of(2) {
            return Err(SiError::InvalidSize {
                what: "delay line cell count (must be even and nonzero)",
                value: cells.len(),
            });
        }
        let periods = cells.len() / 2;
        let mut pipeline = VecDeque::with_capacity(periods);
        for _ in 0..periods {
            pipeline.push_back(Diff::ZERO);
        }
        Ok(DelayLine {
            cells,
            cm,
            pipeline,
        })
    }

    /// Processes one sample: returns the input from `delay_periods()`
    /// samples ago, as transformed by the cascade of cell error models.
    pub fn process(&mut self, input: Diff) -> Diff {
        let mut v = input;
        for cell in &mut self.cells {
            v = cell.process(v);
        }
        let v = self.cm.process(v);
        self.pipeline.push_back(v);
        // The VecDeque was pre-filled with `periods` zeros, but each push
        // corresponds to one period of transport; popping after pushing
        // yields exactly `periods` samples of latency.
        self.pipeline.pop_front().unwrap_or(Diff::ZERO)
    }

    /// Processes a whole buffer.
    pub fn process_block(&mut self, input: &[Diff]) -> Vec<Diff> {
        input.iter().map(|&x| self.process(x)).collect()
    }

    /// Resets all cells, the CM stage and the transport pipeline.
    pub fn reset(&mut self) {
        for cell in &mut self.cells {
            cell.reset();
        }
        self.cm.reset();
        for slot in &mut self.pipeline {
            *slot = Diff::ZERO;
        }
    }
}

/// A delaying SI integrator: `H(z) = g·z⁻¹ / (1 − a·z⁻¹)`, where the leak
/// `a = (1 − ε)²` comes from the two memory-cell passes per period.
///
/// The delay in the loop is the property the paper highlights for its
/// modulators ("there is delay in both integrators … to decouple settling
/// chain"); `g` is the swing-scaling coefficient.
#[derive(Debug)]
pub struct Integrator<C: MemoryCell> {
    cell_a: C,
    cell_b: C,
    cm: Box<dyn CommonModeControl + Send>,
    gain: f64,
    state: Diff,
}

impl Integrator<ClassAbCell> {
    /// A class-AB integrator with gain `g` and ideal CMFF.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for a non-finite or zero gain,
    /// or parameter validation errors.
    pub fn class_ab(gain: f64, params: &ClassAbParams, seed: u64) -> Result<Self, SiError> {
        Integrator::from_cells(
            ClassAbCell::new(params, seed)?,
            ClassAbCell::new(params, seed.wrapping_add(1))?,
            Box::new(Cmff::new(0.0)?),
            gain,
        )
    }
}

impl Integrator<ClassACell> {
    /// A class-A integrator with gain `g` and no CM control.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for a non-finite or zero gain,
    /// or parameter validation errors.
    pub fn class_a(gain: f64, params: &ClassAParams, seed: u64) -> Result<Self, SiError> {
        Integrator::from_cells(
            ClassACell::new(params, seed)?,
            ClassACell::new(params, seed.wrapping_add(1))?,
            Box::new(NoCmControl),
            gain,
        )
    }
}

impl<C: MemoryCell> Integrator<C> {
    /// Assembles an integrator from two cells, a CM stage and a gain.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for a non-finite or zero gain.
    pub fn from_cells(
        cell_a: C,
        cell_b: C,
        cm: Box<dyn CommonModeControl + Send>,
        gain: f64,
    ) -> Result<Self, SiError> {
        if !gain.is_finite() || gain == 0.0 {
            return Err(SiError::InvalidParameter {
                name: "gain",
                constraint: "integrator gain must be finite and nonzero",
            });
        }
        Ok(Integrator {
            cell_a,
            cell_b,
            cm,
            gain,
            state: Diff::ZERO,
        })
    }

    /// The scaling gain `g`.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// The value the integrator is currently driving out (its held state)
    /// — the same value the next [`Integrator::process`] call will return.
    #[must_use]
    pub fn output(&self) -> Diff {
        self.state
    }

    /// Processes one sample: returns `state[n−1]`, then accumulates
    /// `g·input` into the state through the two memory-cell passes.
    pub fn process(&mut self, input: Diff) -> Diff {
        let out = self.state;
        let summed = self.state + input * self.gain;
        // Two half-period passes: the inversions cancel and the error
        // models apply twice, exactly as in the real loop.
        let half = self.cell_a.process(summed);
        let stored = self.cell_b.process(half);
        self.state = self.cm.process(stored);
        out
    }

    /// Resets the accumulator and the cells.
    pub fn reset(&mut self) {
        self.cell_a.reset();
        self.cell_b.reset();
        self.cm.reset();
        self.state = Diff::ZERO;
    }
}

/// A delaying SI differentiator: `H(z) = g·(z⁻¹ − z⁻²)`, the building block
/// of the chopper-stabilized modulator of Fig. 3(b).
#[derive(Debug)]
pub struct Differentiator<C: MemoryCell> {
    cell_a: C,
    cell_b: C,
    cm: Box<dyn CommonModeControl + Send>,
    gain: f64,
    s1: Diff,
    s2: Diff,
}

impl Differentiator<ClassAbCell> {
    /// A class-AB differentiator with gain `g` and ideal CMFF.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for a non-finite or zero gain,
    /// or parameter validation errors.
    pub fn class_ab(gain: f64, params: &ClassAbParams, seed: u64) -> Result<Self, SiError> {
        Differentiator::from_cells(
            ClassAbCell::new(params, seed)?,
            ClassAbCell::new(params, seed.wrapping_add(1))?,
            Box::new(Cmff::new(0.0)?),
            gain,
        )
    }
}

impl<C: MemoryCell> Differentiator<C> {
    /// Assembles a differentiator from two cells, a CM stage and a gain.
    ///
    /// # Errors
    ///
    /// Returns [`SiError::InvalidParameter`] for a non-finite or zero gain.
    pub fn from_cells(
        cell_a: C,
        cell_b: C,
        cm: Box<dyn CommonModeControl + Send>,
        gain: f64,
    ) -> Result<Self, SiError> {
        if !gain.is_finite() || gain == 0.0 {
            return Err(SiError::InvalidParameter {
                name: "gain",
                constraint: "differentiator gain must be finite and nonzero",
            });
        }
        Ok(Differentiator {
            cell_a,
            cell_b,
            cm,
            gain,
            s1: Diff::ZERO,
            s2: Diff::ZERO,
        })
    }

    /// The scaling gain `g`.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Processes one sample: `y[n] = g·(x[n−1] − x[n−2])`, with the first
    /// term having passed one memory cell and the second term two.
    pub fn process(&mut self, input: Diff) -> Diff {
        // s1 holds x[n−1] (one cell pass); s2 holds x[n−2] (two passes).
        let out = self.cm.process((self.s1 - self.s2) * self.gain);
        let s2_next = -self.cell_b.process(self.s1);
        self.s2 = s2_next;
        self.s1 = -self.cell_a.process(input);
        out
    }

    /// Resets the cells and the pipeline.
    pub fn reset(&mut self) {
        self.cell_a.reset();
        self.cell_b.reset();
        self.cm.reset();
        self.s1 = Diff::ZERO;
        self.s2 = Diff::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diffs(values: &[f64]) -> Vec<Diff> {
        values.iter().map(|&v| Diff::from_differential(v)).collect()
    }

    #[test]
    fn delay_line_rejects_odd_counts() {
        assert!(DelayLine::class_ab(0, &ClassAbParams::ideal(), 1).is_err());
        assert!(DelayLine::class_ab(3, &ClassAbParams::ideal(), 1).is_err());
        assert!(DelayLine::class_ab(2, &ClassAbParams::ideal(), 1).is_ok());
    }

    #[test]
    fn two_cell_line_is_unit_delay() {
        let mut line = DelayLine::class_ab(2, &ClassAbParams::ideal(), 1).unwrap();
        let input = diffs(&[1e-6, 2e-6, 3e-6, 4e-6]);
        let out = line.process_block(&input);
        assert!(out[0].dm().abs() < 1e-18);
        for k in 1..4 {
            assert!((out[k].dm() - input[k - 1].dm()).abs() < 1e-15);
        }
    }

    #[test]
    fn four_cell_line_is_double_delay() {
        let mut line = DelayLine::class_ab(4, &ClassAbParams::ideal(), 1).unwrap();
        let input = diffs(&[1e-6, 2e-6, 3e-6, 4e-6, 5e-6]);
        let out = line.process_block(&input);
        assert!(out[0].dm().abs() < 1e-18);
        assert!(out[1].dm().abs() < 1e-18);
        for k in 2..5 {
            assert!((out[k].dm() - input[k - 2].dm()).abs() < 1e-15);
        }
    }

    #[test]
    fn class_a_line_matches_class_ab_when_ideal() {
        let mut a = DelayLine::class_a(2, &ClassAParams::ideal_with_bias(50e-6), 1).unwrap();
        let mut ab = DelayLine::class_ab(2, &ClassAbParams::ideal(), 1).unwrap();
        for &v in &[1e-6, -2e-6, 5e-6] {
            let x = Diff::from_differential(v);
            let ya = a.process(x);
            let yab = ab.process(x);
            assert!((ya.dm() - yab.dm()).abs() < 1e-18);
        }
    }

    #[test]
    fn delay_line_reset_restores_initial_behaviour() {
        let mut line = DelayLine::class_ab(2, &ClassAbParams::ideal(), 1).unwrap();
        let first = line.process(Diff::from_differential(1e-6));
        line.process(Diff::from_differential(2e-6));
        line.reset();
        let again = line.process(Diff::from_differential(1e-6));
        assert_eq!(first, again);
    }

    #[test]
    fn transmission_error_compounds_per_cell() {
        let mut p = ClassAbParams::ideal();
        p.raw_gain_error = 0.01;
        p.gga_gain = 1.0;
        let mut line = DelayLine::class_ab(2, &p, 1).unwrap();
        line.process(Diff::from_differential(10e-6));
        let y = line.process(Diff::from_differential(0.0));
        let expected = 10e-6 * 0.99f64.powi(2);
        assert!((y.dm() - expected).abs() < 1e-15, "dm {}", y.dm());
    }

    #[test]
    fn ideal_integrator_accumulates() {
        let mut int = Integrator::class_ab(0.5, &ClassAbParams::ideal(), 1).unwrap();
        let x = Diff::from_differential(2e-6);
        // y[n] = 0.5·Σ_{k<n} x[k]: 0, 1µ, 2µ, 3µ …
        for n in 0..5 {
            let y = int.process(x);
            let expected = 0.5 * 2e-6 * n as f64;
            assert!(
                (y.dm() - expected).abs() < 1e-15,
                "n={n}: {} vs {expected}",
                y.dm()
            );
        }
        assert_eq!(int.gain(), 0.5);
    }

    #[test]
    fn integrator_matches_z_transform_impulse_response() {
        let mut int = Integrator::class_ab(1.0, &ClassAbParams::ideal(), 1).unwrap();
        // Impulse: H(z) = z⁻¹/(1−z⁻¹) → 0, 1, 1, 1, …
        let mut input = vec![Diff::from_differential(1e-6)];
        input.extend(std::iter::repeat_n(Diff::ZERO, 5));
        let out: Vec<f64> = input.iter().map(|&x| int.process(x).dm()).collect();
        assert!(out[0].abs() < 1e-18);
        for &y in &out[1..] {
            assert!((y - 1e-6).abs() < 1e-15);
        }
    }

    #[test]
    fn leaky_integrator_from_transmission_error() {
        let mut p = ClassAbParams::ideal();
        p.raw_gain_error = 0.05;
        p.gga_gain = 1.0;
        let mut int = Integrator::from_cells(
            ClassAbCell::new(&p, 1).unwrap(),
            ClassAbCell::new(&p, 2).unwrap(),
            Box::new(NoCmControl),
            1.0,
        )
        .unwrap();
        // DC gain of a leaky integrator = a/(1−a)·…: drive with constant
        // input and check it converges instead of growing without bound.
        let x = Diff::from_differential(1e-6);
        let mut last = 0.0;
        for _ in 0..500 {
            last = int.process(x).dm();
        }
        let a = 0.95f64 * 0.95;
        let expected = a * 1e-6 / (1.0 - a);
        assert!(
            (last - expected).abs() / expected < 0.01,
            "settled {last} vs {expected}"
        );
    }

    #[test]
    fn integrator_rejects_bad_gain() {
        assert!(Integrator::class_ab(0.0, &ClassAbParams::ideal(), 1).is_err());
        assert!(Integrator::class_ab(f64::NAN, &ClassAbParams::ideal(), 1).is_err());
    }

    #[test]
    fn ideal_differentiator_is_first_difference_delayed() {
        let mut d = Differentiator::class_ab(1.0, &ClassAbParams::ideal(), 1).unwrap();
        let input = diffs(&[1e-6, 3e-6, 6e-6, 10e-6]);
        let out: Vec<f64> = input.iter().map(|&x| d.process(x).dm()).collect();
        // y[n] = x[n−1] − x[n−2]: 0, x0, x1−x0, x2−x1.
        assert!(out[0].abs() < 1e-18);
        assert!((out[1] - 1e-6).abs() < 1e-15);
        assert!((out[2] - 2e-6).abs() < 1e-15);
        assert!((out[3] - 3e-6).abs() < 1e-15);
    }

    #[test]
    fn differentiator_kills_dc() {
        let mut d = Differentiator::class_ab(1.0, &ClassAbParams::ideal(), 1).unwrap();
        let x = Diff::from_differential(5e-6);
        let mut last = 1.0;
        for _ in 0..10 {
            last = d.process(x).dm();
        }
        assert!(last.abs() < 1e-18);
    }

    #[test]
    fn differentiator_rejects_bad_gain() {
        assert!(Differentiator::class_ab(0.0, &ClassAbParams::ideal(), 1).is_err());
    }

    #[test]
    fn differentiator_reset() {
        let mut d = Differentiator::class_ab(2.0, &ClassAbParams::ideal(), 1).unwrap();
        let a = d.process(Diff::from_differential(1e-6));
        d.process(Diff::from_differential(2e-6));
        d.reset();
        let b = d.process(Diff::from_differential(1e-6));
        assert_eq!(a, b);
        assert_eq!(d.gain(), 2.0);
    }

    #[test]
    fn blocks_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DelayLine<ClassAbCell>>();
        assert_send::<Integrator<ClassAbCell>>();
        assert_send::<Differentiator<ClassAbCell>>();
    }
}
