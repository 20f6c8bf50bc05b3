//! Level-1 (square-law) MOSFET model.
//!
//! This is the classic Shichman–Hodges model: quadratic drain current with
//! channel-length modulation `λ` and body effect `γ`. It is deliberately the
//! simplest model that captures everything the paper's analysis relies on —
//! saturation-region operation (Eqs. 1–2 are saturation-voltage budgets),
//! transconductance `gm`, output conductance `gds`, and the square-law
//! nonlinearity that produces the measured harmonic distortion.
//!
//! Sign conventions: all terminal voltages and the drain current are
//! expressed in true circuit polarity. For a PMOS, `vgs`, `vds` are negative
//! in normal operation and the drain current flows out of the drain
//! (negative `id` with the NMOS convention). The model is symmetric in
//! drain/source: if `vds` reverses, the terminals swap internally.

use crate::units::Volts;

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl MosPolarity {
    /// +1 for NMOS, −1 for PMOS: multiplying terminal quantities by this
    /// maps a PMOS onto the NMOS equations.
    #[must_use]
    pub fn sign(self) -> f64 {
        match self {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        }
    }
}

/// Operating region of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// `|vgs| < |vt|`: no channel.
    Cutoff,
    /// `|vds| < |vgs − vt|`: resistive channel.
    Triode,
    /// `|vds| ≥ |vgs − vt|`: current source behaviour, where SI memory
    /// transistors must sit.
    Saturation,
}

/// Level-1 model parameters.
///
/// The defaults model a generic 0.8 µm digital CMOS process like the
/// paper's: `|VT0|` near 0.8 V, `KP` of 100 µA/V² (NMOS) or 35 µA/V² (PMOS).
///
/// ```
/// use si_analog::device::{MosParams, MosPolarity};
/// use si_analog::units::Volts;
///
/// let m = MosParams::nmos_08um(20.0, 2.0);
/// let eval = m.evaluate(Volts(1.5), Volts(2.0), Volts(0.0));
/// assert!(eval.id.0 > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage. Positive for NMOS, negative for PMOS.
    pub vt0: Volts,
    /// Transconductance parameter `µ·Cox` in A/V².
    pub kp: f64,
    /// Channel width in micrometres.
    pub w_um: f64,
    /// Channel length in micrometres.
    pub l_um: f64,
    /// Channel-length modulation in 1/V.
    pub lambda: f64,
    /// Body-effect coefficient in √V.
    pub gamma: f64,
    /// Surface potential `2φF` in volts.
    pub phi: f64,
    /// Gate-oxide capacitance per area in F/µm², for `Cgs` estimates used by
    /// the thermal-noise budget.
    pub cox_per_um2: f64,
}

impl MosParams {
    /// An NMOS in the generic 0.8 µm process with the given W/L in µm.
    #[must_use]
    pub fn nmos_08um(w_um: f64, l_um: f64) -> Self {
        MosParams {
            polarity: MosPolarity::Nmos,
            vt0: Volts(0.8),
            kp: 100e-6,
            w_um,
            l_um,
            lambda: 0.03,
            gamma: 0.5,
            phi: 0.7,
            cox_per_um2: 2.2e-15,
        }
    }

    /// A PMOS in the generic 0.8 µm process with the given W/L in µm.
    #[must_use]
    pub(crate) fn pmos_08um(w_um: f64, l_um: f64) -> Self {
        MosParams {
            polarity: MosPolarity::Pmos,
            vt0: Volts(-0.9),
            kp: 35e-6,
            w_um,
            l_um,
            lambda: 0.05,
            gamma: 0.45,
            phi: 0.7,
            cox_per_um2: 2.2e-15,
        }
    }

    /// The gain factor `β = KP·W/L` in A/V².
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.kp * self.w_um / self.l_um
    }

    /// Approximate gate-source capacitance in farads:
    /// `Cgs ≈ (2/3)·W·L·Cox`, the saturation-region value.
    #[must_use]
    pub fn cgs(&self) -> f64 {
        2.0 / 3.0 * self.w_um * self.l_um * self.cox_per_um2
    }

    /// Evaluates the device at the given terminal voltages (circuit
    /// polarity). Returns the drain current flowing into the drain terminal
    /// and the small-signal derivatives at this bias.
    #[must_use]
    pub fn evaluate(&self, vgs: Volts, vds: Volts, vbs: Volts) -> MosEval {
        let s = self.polarity.sign();
        // Map onto NMOS equations.
        let mut vgs_n = s * vgs.0;
        let mut vds_n = s * vds.0;
        let mut vbs_n = s * vbs.0;
        // Symmetric drain/source: if vds < 0, swap roles.
        let swapped = vds_n < 0.0;
        if swapped {
            // After swap: vgd becomes the new vgs, vbd the new vbs.
            vgs_n -= vds_n;
            vbs_n -= vds_n;
            vds_n = -vds_n;
        }
        // Body effect on threshold (vbs <= 0 in normal operation; clamp the
        // sqrt argument for forward body bias).
        let phi_term = (self.phi - vbs_n).max(1e-6);
        let vt_n = s * self.vt0.0 + self.gamma * (phi_term.sqrt() - self.phi.sqrt());
        let vov = vgs_n - vt_n;
        let beta = self.beta();
        // dVt/dVbs for gmb.
        let dvt_dvbs = -self.gamma / (2.0 * phi_term.sqrt());

        let (mut id, mut gm, mut gds, region) = if vov <= 0.0 {
            (0.0, 0.0, 0.0, Region::Cutoff)
        } else if vds_n < vov {
            // Triode.
            let id = beta * (vov - vds_n / 2.0) * vds_n * (1.0 + self.lambda * vds_n);
            let gm = beta * vds_n * (1.0 + self.lambda * vds_n);
            let gds = beta
                * ((vov - vds_n) * (1.0 + self.lambda * vds_n)
                    + (vov - vds_n / 2.0) * vds_n * self.lambda);
            (id, gm, gds, Region::Triode)
        } else {
            // Saturation.
            let id = beta / 2.0 * vov * vov * (1.0 + self.lambda * vds_n);
            let gm = beta * vov * (1.0 + self.lambda * vds_n);
            let gds = beta / 2.0 * vov * vov * self.lambda;
            (id, gm, gds, Region::Saturation)
        };
        // gmb = gm · (−dVt/dVbs)
        let mut gmb = gm * (-dvt_dvbs);

        if swapped {
            // The current flows the other way; gm/gds transform back.
            // For the swapped device: id' = -id, and derivatives w.r.t. the
            // original terminals: d(id)/d(vgs) stays gm but applied at the
            // swapped reference. A full Jacobian transform:
            //   original vds = -vds_sw, vgs = vgs_sw + vds_orig...
            // The standard SPICE treatment keeps gm, gmb and uses
            //   gds_orig = gds_sw + gm_sw + gmb_sw
            // with currents negated.
            id = -id;
            gds = gds + gm + gmb;
            gm = -gm;
            gmb = -gmb;
            // Note: with this convention, i(vgs,vds,vbs) linearized at the
            // operating point remains exact for the Newton update.
        }

        MosEval {
            id: crate::units::Amps(s * id),
            gm: gm * 1.0,
            gds,
            gmb,
            vt: Volts(s * vt_n),
            region,
            swapped,
        }
    }
}

/// Result of a single model evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Drain terminal current (positive into the drain), circuit polarity.
    pub id: crate::units::Amps,
    /// `∂id/∂vgs` in circuit polarity. (The polarity sign cancels between
    /// the current and voltage mappings, so NMOS-frame derivatives are the
    /// circuit-frame derivatives for both polarities.)
    pub gm: f64,
    /// `∂id/∂vds` in circuit polarity.
    pub gds: f64,
    /// `∂id/∂vbs` in circuit polarity.
    pub gmb: f64,
    /// Effective threshold voltage at this body bias, circuit polarity.
    pub vt: Volts,
    /// Operating region.
    pub region: Region,
    /// Whether drain and source were internally swapped (`vds` reversed).
    pub swapped: bool,
}

#[cfg(test)]
impl MosParams {
    /// Overrides channel-length modulation, returning `self` for chaining.
    #[must_use]
    pub(crate) fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// The gate overdrive needed to conduct `id` in saturation:
    /// `V_ov = sqrt(2·id/β)`. This is the `(Vgs − VT)` that enters the
    /// paper's Eqs. (1)–(2).
    #[must_use]
    pub(crate) fn saturation_overdrive(&self, id: crate::units::Amps) -> Volts {
        Volts((2.0 * id.0.abs() / self.beta()).sqrt())
    }

    /// The saturation transconductance at drain current `id`:
    /// `gm = sqrt(2·β·id)`.
    #[must_use]
    pub(crate) fn gm_at(&self, id: crate::units::Amps) -> crate::units::Siemens {
        crate::units::Siemens((2.0 * self.beta() * id.0.abs()).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Amps;

    #[test]
    fn cutoff_below_threshold() {
        let m = MosParams::nmos_08um(10.0, 1.0);
        let e = m.evaluate(Volts(0.5), Volts(2.0), Volts(0.0));
        assert_eq!(e.region, Region::Cutoff);
        assert_eq!(e.id, Amps(0.0));
    }

    #[test]
    fn saturation_current_follows_square_law() {
        let m = MosParams::nmos_08um(10.0, 1.0).with_lambda(0.0);
        let e = m.evaluate(Volts(1.8), Volts(3.0), Volts(0.0));
        assert_eq!(e.region, Region::Saturation);
        let expected = m.beta() / 2.0 * (1.8 - 0.8) * (1.8 - 0.8);
        assert!((e.id.0 - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn triode_current_is_resistive_for_small_vds() {
        let m = MosParams::nmos_08um(10.0, 1.0).with_lambda(0.0);
        let vds = 1e-4;
        let e = m.evaluate(Volts(1.8), Volts(vds), Volts(0.0));
        assert_eq!(e.region, Region::Triode);
        // For tiny vds: id ≈ β·vov·vds.
        let expected = m.beta() * 1.0 * vds;
        assert!((e.id.0 - expected).abs() / expected < 1e-3);
    }

    #[test]
    fn current_is_continuous_across_triode_saturation_boundary() {
        let m = MosParams::nmos_08um(10.0, 1.0);
        let vov = 1.0;
        let below = m.evaluate(Volts(1.8), Volts(vov - 1e-9), Volts(0.0));
        let above = m.evaluate(Volts(1.8), Volts(vov + 1e-9), Volts(0.0));
        assert!((below.id.0 - above.id.0).abs() < 1e-9 * m.beta());
        assert!((below.gm - above.gm).abs() < 1e-6);
    }

    #[test]
    fn gm_matches_finite_difference() {
        let m = MosParams::nmos_08um(20.0, 2.0);
        let (vgs, vds, vbs) = (Volts(1.6), Volts(2.5), Volts(-0.5));
        let e = m.evaluate(vgs, vds, vbs);
        let h = 1e-7;
        let dgm = (m.evaluate(Volts(vgs.0 + h), vds, vbs).id.0
            - m.evaluate(Volts(vgs.0 - h), vds, vbs).id.0)
            / (2.0 * h);
        let dgds = (m.evaluate(vgs, Volts(vds.0 + h), vbs).id.0
            - m.evaluate(vgs, Volts(vds.0 - h), vbs).id.0)
            / (2.0 * h);
        let dgmb = (m.evaluate(vgs, vds, Volts(vbs.0 + h)).id.0
            - m.evaluate(vgs, vds, Volts(vbs.0 - h)).id.0)
            / (2.0 * h);
        assert!(
            (e.gm - dgm).abs() / dgm.abs() < 1e-5,
            "gm {} vs fd {dgm}",
            e.gm
        );
        assert!(
            (e.gds - dgds).abs() / dgds.abs() < 1e-5,
            "gds {} vs fd {dgds}",
            e.gds
        );
        assert!(
            (e.gmb - dgmb).abs() / dgmb.abs().max(1e-12) < 1e-4,
            "gmb {} vs fd {dgmb}",
            e.gmb
        );
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let n = MosParams::nmos_08um(10.0, 1.0);
        let p = MosParams {
            polarity: MosPolarity::Pmos,
            vt0: Volts(-0.8),
            ..n
        };
        let en = n.evaluate(Volts(1.5), Volts(2.0), Volts(0.0));
        let ep = p.evaluate(Volts(-1.5), Volts(-2.0), Volts(0.0));
        assert_eq!(ep.region, Region::Saturation);
        assert!((en.id.0 + ep.id.0).abs() < 1e-15, "{} vs {}", en.id, ep.id);
    }

    #[test]
    fn drain_source_swap_is_antisymmetric() {
        let m = MosParams::nmos_08um(10.0, 1.0).with_lambda(0.0);
        // Device with vgs measured from the "source": reversing vds with the
        // gate voltage fixed relative to the *other* terminal gives -id.
        // Construct: vg=1.8, vs=0, vd=0.3  vs  vg=1.5(=1.8-0.3), vs'=0 (old d), vd'=-0.3
        let fwd = m.evaluate(Volts(1.8), Volts(0.3), Volts(0.0));
        let rev = m.evaluate(Volts(1.5), Volts(-0.3), Volts(-0.3));
        assert!(rev.swapped);
        assert!(
            (fwd.id.0 + rev.id.0).abs() < 1e-12,
            "fwd {} rev {}",
            fwd.id,
            rev.id
        );
    }

    #[test]
    fn reversed_vds_jacobian_matches_finite_difference() {
        let m = MosParams::nmos_08um(10.0, 1.0);
        let (vgs, vds, vbs) = (Volts(0.9), Volts(-0.4), Volts(-0.1));
        let e = m.evaluate(vgs, vds, vbs);
        assert!(e.swapped);
        let h = 1e-7;
        let dgm = (m.evaluate(Volts(vgs.0 + h), vds, vbs).id.0
            - m.evaluate(Volts(vgs.0 - h), vds, vbs).id.0)
            / (2.0 * h);
        let dgds = (m.evaluate(vgs, Volts(vds.0 + h), vbs).id.0
            - m.evaluate(vgs, Volts(vds.0 - h), vbs).id.0)
            / (2.0 * h);
        assert!(
            (e.gm - dgm).abs() < 1e-6 + 1e-4 * dgm.abs(),
            "gm {} fd {dgm}",
            e.gm
        );
        assert!(
            (e.gds - dgds).abs() < 1e-6 + 1e-4 * dgds.abs(),
            "gds {} fd {dgds}",
            e.gds
        );
    }

    #[test]
    fn body_effect_raises_threshold() {
        let m = MosParams::nmos_08um(10.0, 1.0);
        let no_bias = m.evaluate(Volts(1.5), Volts(2.0), Volts(0.0));
        let reverse_biased = m.evaluate(Volts(1.5), Volts(2.0), Volts(-1.0));
        assert!(reverse_biased.vt.0 > no_bias.vt.0);
        assert!(reverse_biased.id.0 < no_bias.id.0);
    }

    #[test]
    fn overdrive_and_gm_helpers_are_consistent() {
        let m = MosParams::nmos_08um(40.0, 2.0).with_lambda(0.0);
        let id = Amps(10e-6);
        let vov = m.saturation_overdrive(id);
        // Drive the device at exactly vt + vov: it should conduct id.
        let e = m.evaluate(Volts(m.vt0.0 + vov.0), Volts(3.0), Volts(0.0));
        assert!((e.id.0 - id.0).abs() / id.0 < 1e-9);
        let gm = m.gm_at(id);
        assert!((e.gm - gm.0).abs() / gm.0 < 1e-9);
    }

    #[test]
    fn cgs_scales_with_area() {
        let small = MosParams::nmos_08um(10.0, 1.0);
        let big = MosParams::nmos_08um(20.0, 2.0);
        assert!((big.cgs() / small.cgs() - 4.0).abs() < 1e-12);
    }
}
