//! Chopping machinery for the Fig. 3(b) modulator.
//!
//! System-level chopper stabilization processes the signal at `fs/2`: the
//! input is multiplied by the ±1 sequence `(−1)ⁿ` (a wire swap in a fully
//! differential circuit), the loop runs in the chopped domain, and the
//! output bits are multiplied by the same sequence. Substituting
//! `u[n] → u[n]·(−1)ⁿ` into the integrator recurrence shows the chopped
//! loop needs **mirrored integrators** `H(z) = −z⁻¹/(1 + z⁻¹)` — blocks
//! built from an *odd* number of inverting memory-cell passes per period,
//! which is why the paper notes its SI chopper structure (delaying
//! differentiator-style blocks) "different from the one reported for SC
//! realization".
//!
//! The payoff: quantization noise is shaped away from `fs/2` (NTF zeros at
//! `z = −1`), and after the output chopper the baseband sees the familiar
//! `(1 − z⁻¹)²` shaping — Eq. (3) again — while any *circuit* noise that
//! entered at baseband (1/f) is translated to `fs/2`, out of band.

use si_core::cell::MemoryCell;
use si_core::cm::CommonModeControl;
use si_core::Diff;

use crate::ModulatorError;

/// The ±1 chopping sequence `(−1)ⁿ`.
///
/// ```
/// use si_modulator::chopper::ChopSequence;
///
/// let mut seq = ChopSequence::new();
/// assert_eq!(seq.next_sign(), 1);
/// assert_eq!(seq.next_sign(), -1);
/// assert_eq!(seq.next_sign(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChopSequence {
    state: bool,
}

impl ChopSequence {
    /// A sequence starting at +1.
    #[must_use]
    pub fn new() -> Self {
        ChopSequence { state: false }
    }

    /// Returns the current sign and advances.
    pub fn next_sign(&mut self) -> i8 {
        let s = if self.state { -1 } else { 1 };
        self.state = !self.state;
        s
    }

    /// Restarts at +1.
    pub fn reset(&mut self) {
        self.state = false;
    }
}

/// A mirrored (chopped-domain) delaying integrator:
/// `H(z) = −g·z⁻¹ / (1 + z⁻¹)`, i.e. `state[n] = −(state[n−1] + g·x[n−1])`.
///
/// Physically this is the same two-memory-cell loop as the ordinary SI
/// integrator but re-clocked so the net sign per period is inverting —
/// which a single extra cell pass (each SI cell inverts) provides for free.
#[derive(Debug)]
pub(crate) struct MirroredIntegrator<C: MemoryCell> {
    cell_a: C,
    cell_b: C,
    cm: Box<dyn CommonModeControl + Send>,
    gain: f64,
    state: Diff,
}

impl<C: MemoryCell> MirroredIntegrator<C> {
    /// Assembles a mirrored integrator from two cells, a CM stage and a
    /// gain.
    ///
    /// # Errors
    ///
    /// Returns [`ModulatorError::InvalidParameter`] for a non-finite or
    /// zero gain.
    pub fn from_cells(
        cell_a: C,
        cell_b: C,
        cm: Box<dyn CommonModeControl + Send>,
        gain: f64,
    ) -> Result<Self, ModulatorError> {
        if !gain.is_finite() || gain == 0.0 {
            return Err(ModulatorError::InvalidParameter {
                name: "gain",
                constraint: "integrator gain must be finite and nonzero",
            });
        }
        Ok(MirroredIntegrator {
            cell_a,
            cell_b,
            cm,
            gain,
            state: Diff::ZERO,
        })
    }

    /// The value the integrator currently drives out (its held state).
    #[must_use]
    pub fn output(&self) -> Diff {
        self.state
    }

    /// Processes one sample: returns the old state, then updates
    /// `state ← −(state + g·x)` through the memory cells.
    pub fn process(&mut self, input: Diff) -> Diff {
        let out = self.state;
        let summed = self.state + input * self.gain;
        // One net inversion per period: pass A inverts, pass B re-inverts,
        // and the mirrored clocking contributes the extra sign (taking the
        // first cell's inverted output forward).
        let half = self.cell_a.process(summed); // ≈ −summed with errors
        let stored = -self.cell_b.process(half); // ≈ −summed after 2 passes
        self.state = self.cm.process(stored);
        out
    }

    /// Resets the accumulator and cells.
    pub fn reset(&mut self) {
        self.cell_a.reset();
        self.cell_b.reset();
        self.cm.reset();
        self.state = Diff::ZERO;
    }
}

/// Chops a bit sequence: multiplies each ±1 bit by `(−1)ⁿ`. Used to move
/// the Fig. 6(a) "before output chopper" bitstream to the Fig. 6(b)
/// baseband output.
#[must_use]
pub fn chop_bits(bits: &[i8]) -> Vec<i8> {
    let mut seq = ChopSequence::new();
    bits.iter().map(|&b| b * seq.next_sign()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_core::cell::ClassAbCell;
    use si_core::cm::NoCmControl;
    use si_core::params::ClassAbParams;

    fn ideal_mirrored(gain: f64) -> MirroredIntegrator<ClassAbCell> {
        MirroredIntegrator::from_cells(
            ClassAbCell::new(&ClassAbParams::ideal(), 1).unwrap(),
            ClassAbCell::new(&ClassAbParams::ideal(), 2).unwrap(),
            Box::new(NoCmControl),
            gain,
        )
        .unwrap()
    }

    #[test]
    fn chop_sequence_alternates() {
        let mut s = ChopSequence::new();
        let signs: Vec<i8> = (0..6).map(|_| s.next_sign()).collect();
        assert_eq!(signs, vec![1, -1, 1, -1, 1, -1]);
        s.reset();
        assert_eq!(s.next_sign(), 1);
    }

    #[test]
    fn mirrored_integrator_impulse_response() {
        // H(z) = −z⁻¹/(1+z⁻¹) → impulse response 0, −1, +1, −1, …
        let mut mi = ideal_mirrored(1.0);
        let mut out = Vec::new();
        for k in 0..6 {
            let x = if k == 0 { 1.0 } else { 0.0 };
            out.push(mi.process(Diff::from_differential(x)).dm());
        }
        let expected = [0.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        for (o, e) in out.iter().zip(&expected) {
            assert!((o - e).abs() < 1e-12, "{out:?}");
        }
    }

    #[test]
    fn mirrored_integrator_is_chopped_ordinary_integrator() {
        // chop → mirrored-integrate → chop must equal ordinary integration.
        use si_core::blocks::Integrator;
        let mut plain = Integrator::class_ab(1.0, &ClassAbParams::ideal(), 9).unwrap();
        let mut mirrored = ideal_mirrored(1.0);
        let mut chop_in = ChopSequence::new();
        let mut chop_out = ChopSequence::new();
        for n in 0..32 {
            let x = Diff::from_differential(((n * 7 + 3) % 11) as f64 * 1e-7);
            let y_plain = plain.process(x).dm();
            let y_mirr = mirrored
                .process(x.chopped(chop_in.next_sign()).unwrap())
                .chopped(chop_out.next_sign())
                .unwrap()
                .dm();
            assert!(
                (y_plain - y_mirr).abs() < 1e-15,
                "n={n}: plain {y_plain} vs chopped {y_mirr}"
            );
        }
    }

    #[test]
    fn mirrored_integrator_rejects_bad_gain() {
        let a = ClassAbCell::new(&ClassAbParams::ideal(), 1).unwrap();
        let b = ClassAbCell::new(&ClassAbParams::ideal(), 2).unwrap();
        assert!(MirroredIntegrator::from_cells(a, b, Box::new(NoCmControl), 0.0).is_err());
    }

    #[test]
    fn mirrored_integrator_reset() {
        let mut mi = ideal_mirrored(2.0);
        let first = mi.process(Diff::from_differential(1e-6));
        mi.process(Diff::from_differential(2e-6));
        mi.reset();
        let again = mi.process(Diff::from_differential(1e-6));
        assert_eq!(first, again);
    }

    #[test]
    fn chop_bits_round_trips() {
        let bits: Vec<i8> = vec![1, 1, -1, 1, -1, -1, 1, -1];
        let once = chop_bits(&bits);
        let twice = chop_bits(&once);
        assert_eq!(twice, bits);
        assert_ne!(once, bits);
    }
}
