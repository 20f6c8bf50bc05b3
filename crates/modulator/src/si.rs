//! The switched-current realizations of the Fig. 3 modulators.
//!
//! [`SiModulator`] is Fig. 3(a): two delaying SI integrators built from
//! class-AB cells with CMFF, a current quantizer, and 1-bit current-source
//! DACs. [`ChopperSiModulator`] is Fig. 3(b): the same loop re-clocked into
//! the chopped domain (mirrored integrators) between an input wire-swap
//! chopper and an output bit chopper.
//!
//! Circuit noise is injected where it physically enters — at the first
//! integrator's input, *inside* the choppers — so the chopper experiment
//! can reproduce both of the paper's findings: no benefit when the noise is
//! white (thermal-limited, Fig. 7), a clear benefit when it is 1/f.

use si_core::blocks::Integrator;
use si_core::cell::ClassAbCell;
use si_core::cm::{Cmfb, Cmff, CommonModeControl, NoCmControl};
use si_core::params::ClassAbParams;
use si_core::quantizer::{CurrentQuantizer, OneBitDac};
use si_core::Diff;
use si_dsp::signal::{FlickerNoise, GaussianNoise};

use crate::arch::SecondOrderTopology;
use crate::chopper::{ChopSequence, MirroredIntegrator};
use crate::{Modulator, ModulatorError};

/// Which common-mode control the integrators use.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum CmChoice {
    /// The paper's feedforward with the given mirror mismatch.
    Cmff {
        /// Relative mirror mismatch.
        mismatch: f64,
    },
    /// The feedback baseline.
    Cmfb {
        /// Per-sample loop gain in (0, 1].
        loop_gain: f64,
        /// Sense nonlinearity in 1/A.
        nonlinearity: f64,
    },
    /// No common-mode control (ablation).
    None,
}

impl CmChoice {
    fn build(&self) -> Result<Box<dyn CommonModeControl + Send>, ModulatorError> {
        Ok(match *self {
            CmChoice::Cmff { mismatch } => Box::new(Cmff::new(mismatch)?),
            CmChoice::Cmfb {
                loop_gain,
                nonlinearity,
            } => Box::new(Cmfb::new(loop_gain, nonlinearity)?),
            CmChoice::None => Box::new(NoCmControl),
        })
    }
}

/// The circuit-noise model injected at the first integrator input.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum NoiseModel {
    /// No injected noise (cell-level noise still applies if the cell
    /// parameters carry any).
    None,
    /// White Gaussian noise of the given rms (amperes) — the
    /// thermal-dominated regime the paper measured.
    White {
        /// Noise rms in amperes.
        rms: f64,
    },
    /// 1/f noise of the given total rms over `octaves` octaves — the
    /// regime where chopper stabilization pays off.
    Flicker {
        /// Noise rms in amperes.
        rms: f64,
        /// Octave count of the 1/f generator.
        octaves: usize,
    },
}

#[derive(Debug)]
enum NoiseState {
    None,
    White(GaussianNoise),
    Flicker(FlickerNoise),
}

impl NoiseState {
    fn build(model: NoiseModel, seed: u64) -> Result<Self, ModulatorError> {
        Ok(match model {
            NoiseModel::None => NoiseState::None,
            NoiseModel::White { rms } => {
                if !(rms >= 0.0) || !rms.is_finite() {
                    return Err(ModulatorError::InvalidParameter {
                        name: "noise rms",
                        constraint: "noise rms must be non-negative and finite",
                    });
                }
                NoiseState::White(GaussianNoise::new(rms, seed))
            }
            NoiseModel::Flicker { rms, octaves } => {
                NoiseState::Flicker(FlickerNoise::new(rms, octaves, seed)?)
            }
        })
    }

    fn sample(&mut self) -> f64 {
        match self {
            NoiseState::None => 0.0,
            NoiseState::White(g) => g.sample(),
            NoiseState::Flicker(f) => f.sample(),
        }
    }
}

/// Configuration shared by both SI modulators.
#[derive(Debug, Clone, Copy)]
pub struct SiModulatorConfig {
    /// Loop coefficients.
    pub topology: SecondOrderTopology,
    /// Full-scale differential input current, amperes (the paper's 6 µA).
    pub full_scale: f64,
    /// Memory-cell parameter set.
    pub cell_params: ClassAbParams,
    /// Common-mode control choice.
    pub cm: CmChoice,
    /// Quantizer input-referred offset, amperes.
    pub quantizer_offset: f64,
    /// Quantizer hysteresis, amperes.
    pub quantizer_hysteresis: f64,
    /// Relative DAC level mismatch.
    pub dac_mismatch: f64,
    /// Circuit noise injected at the first integrator input.
    pub noise: NoiseModel,
    /// RNG seed for all stochastic elements.
    pub seed: u64,
}

impl SiModulatorConfig {
    /// The paper's operating point: 6 µA full scale, class-AB cells with
    /// the 0.8 µm parameter set, CMFF, white 33 nA circuit noise.
    #[must_use]
    pub fn paper_08um() -> Self {
        SiModulatorConfig {
            topology: SecondOrderTopology::paper_scaled(),
            full_scale: 6e-6,
            cell_params: ClassAbParams::paper_08um_modulator(),
            cm: CmChoice::Cmff { mismatch: 5e-3 },
            quantizer_offset: 20e-9,
            quantizer_hysteresis: 5e-9,
            dac_mismatch: 1e-3,
            noise: NoiseModel::White { rms: 33e-9 },
            seed: 0x51AB,
        }
    }

    /// An idealized configuration (ideal cells, no noise) at the given
    /// full scale — the "circuit-free" version of the loop.
    #[must_use]
    pub fn ideal(full_scale: f64) -> Self {
        SiModulatorConfig {
            topology: SecondOrderTopology::paper_scaled(),
            full_scale,
            cell_params: ClassAbParams::ideal(),
            cm: CmChoice::None,
            quantizer_offset: 0.0,
            quantizer_hysteresis: 0.0,
            dac_mismatch: 0.0,
            noise: NoiseModel::None,
            seed: 1,
        }
    }

    fn validate(&self) -> Result<(), ModulatorError> {
        self.topology.validate()?;
        if !(self.full_scale > 0.0) || !self.full_scale.is_finite() {
            return Err(ModulatorError::InvalidParameter {
                name: "full_scale",
                constraint: "full scale must be positive and finite",
            });
        }
        self.cell_params.validate()?;
        Ok(())
    }
}

/// Fig. 3(a): the plain second-order SI ΔΣ modulator.
#[derive(Debug)]
pub struct SiModulator {
    config: SiModulatorConfig,
    int1: Integrator<ClassAbCell>,
    int2: Integrator<ClassAbCell>,
    quantizer: CurrentQuantizer,
    dac1: OneBitDac,
    dac2: OneBitDac,
    noise: NoiseState,
    last_bit: i8,
}

impl SiModulator {
    /// Builds the modulator from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModulatorError::InvalidParameter`] (or wrapped `si-core`
    /// errors) for invalid settings.
    pub fn new(config: SiModulatorConfig) -> Result<Self, ModulatorError> {
        config.validate()?;
        let t = config.topology;
        let int1 = Integrator::from_cells(
            ClassAbCell::new(&config.cell_params, config.seed)?,
            ClassAbCell::new(&config.cell_params, config.seed.wrapping_add(1))?,
            config.cm.build()?,
            t.g1,
        )?;
        let int2 = Integrator::from_cells(
            ClassAbCell::new(&config.cell_params, config.seed.wrapping_add(2))?,
            ClassAbCell::new(&config.cell_params, config.seed.wrapping_add(3))?,
            config.cm.build()?,
            t.g2,
        )?;
        Ok(SiModulator {
            config,
            int1,
            int2,
            quantizer: CurrentQuantizer::new(config.quantizer_offset, config.quantizer_hysteresis)?,
            dac1: OneBitDac::with_mismatch(config.full_scale * t.fb1, config.dac_mismatch)?,
            dac2: OneBitDac::with_mismatch(config.full_scale * t.fb2, config.dac_mismatch)?,
            noise: NoiseState::build(config.noise, config.seed.wrapping_add(7))?,
            last_bit: 1,
        })
    }

    /// The configuration this modulator was built from.
    #[must_use]
    pub fn config(&self) -> &SiModulatorConfig {
        &self.config
    }
}

impl Modulator for SiModulator {
    fn step(&mut self, input: Diff) -> i8 {
        // The quantizer decides from the second integrator's current output
        // and that decision feeds back into this period's accumulation —
        // the single-sample loop delay of the delaying-integrator topology.
        self.last_bit = self.quantizer.quantize(self.int2.output());
        let noise = Diff::from_differential(self.noise.sample());
        // `quantize` only ever returns ±1, so the DACs' typed rejection of
        // other bits is unreachable from inside the loop.
        let fb1 = self
            .dac1
            .convert(self.last_bit)
            .expect("quantizer bit is ±1");
        let fb2 = self
            .dac2
            .convert(self.last_bit)
            .expect("quantizer bit is ±1");
        // Integrator gains are applied inside the blocks; the DAC levels
        // already carry the fb coefficients.
        let v1 = self.int1.process(input + noise - fb1);
        self.int2.process(v1 - fb2);
        self.last_bit
    }

    fn reset(&mut self) {
        self.int1.reset();
        self.int2.reset();
        self.quantizer.reset();
        self.last_bit = 1;
    }

    fn full_scale(&self) -> f64 {
        self.config.full_scale
    }
}

/// Fig. 3(b): the chopper-stabilized SI ΔΣ modulator.
#[derive(Debug)]
pub struct ChopperSiModulator {
    config: SiModulatorConfig,
    int1: MirroredIntegrator<ClassAbCell>,
    int2: MirroredIntegrator<ClassAbCell>,
    quantizer: CurrentQuantizer,
    dac1: OneBitDac,
    dac2: OneBitDac,
    noise: NoiseState,
    chop_in: ChopSequence,
    chop_out: ChopSequence,
    last_bit: i8,
}

impl ChopperSiModulator {
    /// Builds the chopper-stabilized modulator.
    ///
    /// # Errors
    ///
    /// Returns [`ModulatorError::InvalidParameter`] (or wrapped `si-core`
    /// errors) for invalid settings.
    pub fn new(config: SiModulatorConfig) -> Result<Self, ModulatorError> {
        config.validate()?;
        let t = config.topology;
        let int1 = MirroredIntegrator::from_cells(
            ClassAbCell::new(&config.cell_params, config.seed.wrapping_add(10))?,
            ClassAbCell::new(&config.cell_params, config.seed.wrapping_add(11))?,
            config.cm.build()?,
            t.g1,
        )?;
        let int2 = MirroredIntegrator::from_cells(
            ClassAbCell::new(&config.cell_params, config.seed.wrapping_add(12))?,
            ClassAbCell::new(&config.cell_params, config.seed.wrapping_add(13))?,
            config.cm.build()?,
            t.g2,
        )?;
        Ok(ChopperSiModulator {
            config,
            int1,
            int2,
            quantizer: CurrentQuantizer::new(config.quantizer_offset, config.quantizer_hysteresis)?,
            dac1: OneBitDac::with_mismatch(config.full_scale * t.fb1, config.dac_mismatch)?,
            dac2: OneBitDac::with_mismatch(config.full_scale * t.fb2, config.dac_mismatch)?,
            noise: NoiseState::build(config.noise, config.seed.wrapping_add(17))?,
            chop_in: ChopSequence::new(),
            chop_out: ChopSequence::new(),
            last_bit: 1,
        })
    }

    /// The configuration this modulator was built from.
    #[must_use]
    pub fn config(&self) -> &SiModulatorConfig {
        &self.config
    }

    /// One step returning the **pre-output-chopper** bit (what Fig. 6(a)
    /// plots): the loop's decision in the chopped domain.
    pub(crate) fn step_raw(&mut self, input: Diff) -> i8 {
        // Chopped-domain quantizer decision from the current state; the
        // sign function commutes with the ±1 chopping, so this is exactly
        // the chopped version of the plain loop's decision.
        self.last_bit = self.quantizer.quantize(self.int2.output());
        // Input chopper (wire swap); circuit noise enters physically
        // *after* the chopper — this is what chopping protects against.
        // `next_sign` and `quantize` only ever produce ±1, so the typed
        // rejections below are unreachable from inside the loop.
        let chopped = input
            .chopped(self.chop_in.next_sign())
            .expect("chop sequence sign is ±1");
        let noise = Diff::from_differential(self.noise.sample());
        let fb1 = self
            .dac1
            .convert(self.last_bit)
            .expect("quantizer bit is ±1");
        let fb2 = self
            .dac2
            .convert(self.last_bit)
            .expect("quantizer bit is ±1");
        let v1 = self.int1.process(chopped + noise - fb1);
        self.int2.process(v1 - fb2);
        self.last_bit
    }
}

impl Modulator for ChopperSiModulator {
    fn step(&mut self, input: Diff) -> i8 {
        let raw = self.step_raw(input);
        raw * self.chop_out.next_sign()
    }

    fn reset(&mut self) {
        self.int1.reset();
        self.int2.reset();
        self.quantizer.reset();
        self.chop_in.reset();
        self.chop_out.reset();
        self.last_bit = 1;
    }

    fn full_scale(&self) -> f64 {
        self.config.full_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc_bit_density<M: Modulator>(m: &mut M, level: f64, n: usize) -> f64 {
        (0..n)
            .map(|_| f64::from(m.step(Diff::from_differential(level * m.full_scale()))))
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn config_validates() {
        let mut cfg = SiModulatorConfig::ideal(6e-6);
        cfg.full_scale = 0.0;
        assert!(SiModulator::new(cfg).is_err());
        let mut cfg = SiModulatorConfig::ideal(6e-6);
        cfg.topology.g1 = -1.0;
        assert!(ChopperSiModulator::new(cfg).is_err());
        assert!(SiModulator::new(SiModulatorConfig::paper_08um()).is_ok());
        assert!(ChopperSiModulator::new(SiModulatorConfig::paper_08um()).is_ok());
    }

    #[test]
    fn ideal_si_modulator_tracks_dc() {
        let mut m = SiModulator::new(SiModulatorConfig::ideal(6e-6)).unwrap();
        for level in [-0.4, 0.0, 0.3, 0.5] {
            m.reset();
            let density = dc_bit_density(&mut m, level, 20_000);
            assert!(
                (density - level).abs() < 0.02,
                "level {level}: density {density}"
            );
        }
    }

    #[test]
    fn ideal_chopper_modulator_tracks_dc() {
        let mut m = ChopperSiModulator::new(SiModulatorConfig::ideal(6e-6)).unwrap();
        for level in [-0.4, 0.0, 0.3, 0.5] {
            m.reset();
            let density = dc_bit_density(&mut m, level, 20_000);
            assert!(
                (density - level).abs() < 0.02,
                "level {level}: density {density}"
            );
        }
    }

    #[test]
    fn chopper_raw_bits_carry_signal_at_half_rate() {
        // With a DC input, the raw (pre-chop) bitstream must have its mean
        // near zero but its alternating component near the input level.
        let mut m = ChopperSiModulator::new(SiModulatorConfig::ideal(6e-6)).unwrap();
        let n = 20_000;
        let raw: Vec<i8> = (0..n)
            .map(|_| m.step_raw(Diff::from_differential(0.4 * 6e-6)))
            .collect();
        let mean: f64 = raw.iter().map(|&b| f64::from(b)).sum::<f64>() / n as f64;
        let alternating: f64 = raw
            .iter()
            .enumerate()
            .map(|(k, &b)| f64::from(b) * if k % 2 == 0 { 1.0 } else { -1.0 })
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.03, "raw mean {mean}");
        assert!(
            (alternating - 0.4).abs() < 0.03,
            "alternating {alternating}"
        );
    }

    #[test]
    fn paper_config_modulators_run_and_stay_bounded() {
        let mut a = SiModulator::new(SiModulatorConfig::paper_08um()).unwrap();
        let mut b = ChopperSiModulator::new(SiModulatorConfig::paper_08um()).unwrap();
        for n in 0..10_000 {
            let x = Diff::from_differential(
                3e-6 * (2.0 * std::f64::consts::PI * 53.0 * n as f64 / 65536.0).sin(),
            );
            let ba = a.step(x);
            let bb = b.step(x);
            assert!(ba == 1 || ba == -1);
            assert!(bb == 1 || bb == -1);
        }
    }

    #[test]
    fn reset_makes_runs_repeatable() {
        let mut m = SiModulator::new(SiModulatorConfig::paper_08um()).unwrap();
        let first: Vec<i8> = (0..64)
            .map(|_| m.step(Diff::from_differential(1e-6)))
            .collect();
        m.reset();
        let again: Vec<i8> = (0..64)
            .map(|_| m.step(Diff::from_differential(1e-6)))
            .collect();
        // Cell noise streams continue (physical noise does not rewind), so
        // compare only the deterministic ideal configuration.
        let mut mi = SiModulator::new(SiModulatorConfig::ideal(6e-6)).unwrap();
        let f2: Vec<i8> = (0..64)
            .map(|_| mi.step(Diff::from_differential(1e-6)))
            .collect();
        mi.reset();
        let a2: Vec<i8> = (0..64)
            .map(|_| mi.step(Diff::from_differential(1e-6)))
            .collect();
        assert_eq!(f2, a2);
        // The noisy run still produced valid bits.
        assert_eq!(first.len(), again.len());
    }
}
