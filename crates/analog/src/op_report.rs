//! Operating-point reports: the per-device table an analog designer reads
//! first, and the saturation audit behind the paper's "to ensure proper
//! operation, every transistor should be in its saturation region".

use crate::device::mos::{MosParams, Region};
use crate::mna::Solution;
use crate::netlist::{Circuit, ElementKind};
use crate::units::{Amps, Siemens, Volts};

/// The bias summary of one MOSFET.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOp {
    /// Element name.
    pub name: String,
    /// Operating region.
    pub region: Region,
    /// Drain current (positive into the drain), circuit polarity.
    pub id: Amps,
    /// Gate-source voltage.
    pub vgs: Volts,
    /// Drain-source voltage.
    pub vds: Volts,
    /// Transconductance at this bias.
    pub gm: Siemens,
    /// Output conductance at this bias.
    pub gds: Siemens,
    /// Saturation margin `|vds| − |vov|` (positive = saturated with room;
    /// negative = triode). Cutoff devices report `0`.
    pub saturation_margin: Volts,
}

/// The full operating-point report of a circuit.
///
/// ```
/// use si_analog::dc::DcSolver;
/// use si_analog::device::Region;
/// use si_analog::op_report::OpReport;
/// use si_analog::parse::parse_netlist;
///
/// # fn main() -> Result<(), si_analog::AnalogError> {
/// let ckt = parse_netlist("I1 0 d 50u\nM1 d d 0 0 NMOS W=20u L=2u\n")?;
/// let op = DcSolver::new().solve(&ckt)?;
/// let report = OpReport::of(&ckt, &op);
/// // Diode-connected ⇒ saturated.
/// assert!(report.devices.iter().all(|d| d.region == Region::Saturation));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OpReport {
    /// Per-device rows in netlist order.
    pub devices: Vec<DeviceOp>,
}

impl OpReport {
    /// Extracts the report from a solved operating point.
    #[must_use]
    pub fn of(circuit: &Circuit, op: &Solution) -> Self {
        let v = op.node_voltages();
        let mut devices = Vec::new();
        for element in circuit.elements() {
            if let ElementKind::Mosfet { terminals, params } = element.kind() {
                let vgs = v[terminals.gate.index()] - v[terminals.source.index()];
                let vds = v[terminals.drain.index()] - v[terminals.source.index()];
                let vbs = v[terminals.bulk.index()] - v[terminals.source.index()];
                let eval = params.evaluate(Volts(vgs), Volts(vds), Volts(vbs));
                let margin = saturation_margin(params, Volts(vgs), Volts(vds), eval.vt);
                devices.push(DeviceOp {
                    name: element.name().to_string(),
                    region: eval.region,
                    id: eval.id,
                    vgs: Volts(vgs),
                    vds: Volts(vds),
                    gm: Siemens(eval.gm),
                    gds: Siemens(eval.gds),
                    saturation_margin: margin,
                });
            }
        }
        OpReport { devices }
    }

    /// Renders an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:<11} {:>10} {:>8} {:>8} {:>9} {:>9} {:>8}",
            "device", "region", "id (µA)", "vgs (V)", "vds (V)", "gm (µS)", "gds(µS)", "marg(V)"
        );
        for d in &self.devices {
            let _ = writeln!(
                out,
                "{:<10} {:<11} {:>10.2} {:>8.3} {:>8.3} {:>9.1} {:>9.2} {:>8.3}",
                d.name,
                format!("{:?}", d.region),
                d.id.0 * 1e6,
                d.vgs.0,
                d.vds.0,
                d.gm.0 * 1e6,
                d.gds.0 * 1e6,
                d.saturation_margin.0,
            );
        }
        out
    }
}

fn saturation_margin(params: &MosParams, vgs: Volts, vds: Volts, vt: Volts) -> Volts {
    let s = params.polarity.sign();
    let vov = (s * (vgs.0 - vt.0)).max(0.0);
    if vov == 0.0 {
        return Volts(0.0);
    }
    Volts(s * vds.0 - vov)
}

#[cfg(test)]
impl OpReport {
    /// Devices that are **not** in saturation (the paper's audit condition;
    /// cutoff devices are included since a cut-off memory device is equally
    /// fatal to cell operation).
    #[must_use]
    pub(crate) fn violations(&self) -> Vec<&DeviceOp> {
        self.devices
            .iter()
            .filter(|d| d.region != Region::Saturation)
            .collect()
    }

    /// Whether every device sits in saturation.
    #[must_use]
    pub(crate) fn all_saturated(&self) -> bool {
        self.violations().is_empty()
    }

    /// The smallest saturation margin across saturated devices — how close
    /// the bias is to losing a cascode. Returns `None` if no device is
    /// saturated.
    #[must_use]
    pub(crate) fn worst_margin(&self) -> Option<Volts> {
        self.devices
            .iter()
            .filter(|d| d.region == Region::Saturation)
            .map(|d| d.saturation_margin)
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::ClassAbCellDesign;
    use crate::dc::DcSolver;
    use crate::netlist::MosTerminals;
    use crate::units::Ohms;

    #[test]
    fn class_ab_cell_passes_the_saturation_audit() {
        // The paper's design condition on the Fig. 1 cell at 3.3 V.
        let cell = ClassAbCellDesign::default().build().unwrap();
        let op = DcSolver::new()
            .with_initial_guess(cell.cell.initial_guess.clone())
            .solve(&cell.cell.circuit)
            .unwrap();
        let report = OpReport::of(&cell.cell.circuit, &op);
        assert_eq!(report.devices.len(), 6, "TP, TG, TC, TN, MN, MP");
        assert!(
            report.all_saturated(),
            "violations: {:?}",
            report
                .violations()
                .iter()
                .map(|d| (&d.name, d.region))
                .collect::<Vec<_>>()
        );
        let worst = report.worst_margin().unwrap();
        assert!(worst.0 > 0.02, "worst saturation margin {} V", worst.0);
        let text = report.render();
        assert!(text.contains("MN") && text.contains("TG"));
    }

    #[test]
    fn triode_device_is_flagged() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.voltage_source("Vg", g, Circuit::GROUND, Volts(2.0))
            .unwrap();
        c.voltage_source("Vd", d, Circuit::GROUND, Volts(0.2))
            .unwrap();
        c.mosfet(
            "M1",
            MosTerminals {
                drain: d,
                gate: g,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            MosParams::nmos_08um(10.0, 1.0),
        )
        .unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        let report = OpReport::of(&c, &op);
        assert!(!report.all_saturated());
        assert_eq!(report.violations().len(), 1);
        assert_eq!(report.violations()[0].region, Region::Triode);
        assert!(report.violations()[0].saturation_margin.0 < 0.0);
    }

    #[test]
    fn cutoff_device_is_flagged() {
        let mut c = Circuit::new();
        let d = c.node("d");
        c.resistor("Rl", d, Circuit::GROUND, Ohms(1e5)).unwrap();
        c.voltage_source("Vd", d, Circuit::GROUND, Volts(1.0))
            .unwrap();
        c.mosfet(
            "M1",
            MosTerminals {
                drain: d,
                gate: Circuit::GROUND,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            MosParams::nmos_08um(10.0, 1.0),
        )
        .unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        let report = OpReport::of(&c, &op);
        assert_eq!(report.violations().len(), 1);
        assert_eq!(report.violations()[0].region, Region::Cutoff);
        assert!(report.worst_margin().is_none());
    }
}
