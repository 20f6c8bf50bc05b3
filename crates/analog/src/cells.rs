//! Netlist builders for the paper's circuits.
//!
//! * [`ClassACellDesign`] — the second-generation class-A SI memory cell
//!   (diode-connected memory transistor during φ1), the baseline the paper's
//!   class-AB cell improves on,
//! * [`ClassAbCellDesign`] — the Fig. 1 class-AB half-cell: complementary
//!   memory pair MN/MP whose gates are driven through a grounded-gate
//!   amplifier (TG with bias TP and cascoded sink TC/TN). The GGA's voltage
//!   gain multiplies the cell's input conductance, creating the paper's
//!   "virtual ground",
//! * [`CmffDesign`] — the Fig. 2 common-mode feedforward network: half-size
//!   mirror copies of the differential outputs are summed to extract the
//!   common-mode current, which same-size PMOS mirrors then subtract from
//!   both outputs.
//!
//! Each builder returns the circuit plus the named nodes/probes an
//! experiment needs, and an initial guess that puts the DC solver inside the
//! intended operating region.
//!
//! The fully differential Fig. 1 cell is two of these half-cells on
//! anti-phase inputs; the behavioral library (`si-core`) models the
//! differential pair directly, while the transistor level here validates
//! the per-branch physics the behavioral model parameterizes.

use crate::device::mos::MosParams;
use crate::device::switch::{ClockPhase, Switch};
use crate::netlist::{Circuit, MosTerminals, NodeId};
use crate::units::{Amps, Farads, Ohms, Volts};
use crate::AnalogError;

/// Shared result of a cell build: the circuit plus labelled access points.
#[derive(Debug, Clone)]
pub struct CellNetlist {
    /// The assembled circuit.
    pub circuit: Circuit,
    /// The current input/output node of the cell.
    pub input: NodeId,
    /// The memory-gate node (NMOS side for the class-AB cell).
    pub gate: NodeId,
    /// Name of the input current source (update it to drive the cell).
    pub input_source: String,
    /// Name of the output ammeter (read the held/output current here).
    pub output_ammeter: String,
    /// Initial node-voltage guess for the DC solver.
    pub initial_guess: Vec<f64>,
}

/// Design parameters of the class-A (second-generation) SI memory cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassACellDesign {
    /// Supply voltage.
    pub vdd: Volts,
    /// Bias current through the memory transistor at zero signal.
    pub bias: Amps,
    /// Memory transistor overdrive at the bias current.
    pub vov_memory: Volts,
    /// Explicit gate hold capacitance (models Cgs).
    pub hold_cap: Farads,
    /// Output-side virtual-ground potential of the following stage.
    pub output_bias: Volts,
}

impl Default for ClassACellDesign {
    fn default() -> Self {
        ClassACellDesign {
            vdd: Volts(3.3),
            bias: Amps(20e-6),
            vov_memory: Volts(0.25),
            hold_cap: Farads(0.5e-12),
            output_bias: Volts(1.2),
        }
    }
}

impl ClassACellDesign {
    /// Builds the cell:
    ///
    /// ```text
    ///  Vdd ──(Ibias)──┬── x ──φ2──[A]── Vout_bias
    ///   input ──φ1────┤
    ///                 ├──φ1── g ──╢ hold cap
    ///                MN (drain x, gate g, source gnd)
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for non-positive bias or
    /// overdrive, or netlist errors.
    pub fn build(&self) -> Result<CellNetlist, AnalogError> {
        if !(self.bias.0 > 0.0) || !(self.vov_memory.0 > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "design",
                constraint: "bias current and overdrive must be positive",
            });
        }
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let x = c.node("x");
        let g = c.node("g");
        let xin = c.node("xin");
        let out = c.node("out");

        c.voltage_source("Vdd", vdd, Circuit::GROUND, self.vdd)?;
        // Bias current from the supply into the memory node.
        c.current_source("Ibias", vdd, x, self.bias)?;
        // Input current source drives xin; φ1 steers it onto the cell and
        // φ2 dumps it into a bias branch (as the differential twin would),
        // so the source never drives a floating node. A small parasitic
        // capacitance rides xin through the non-overlap dead time.
        c.current_source("Iin", Circuit::GROUND, xin, Amps(0.0))?;
        c.switch("Sin", xin, x, Switch::on_phase(ClockPhase::Phi1))?;
        let dump = c.node("dump");
        c.voltage_source(
            "Vdump",
            dump,
            Circuit::GROUND,
            Volts(0.8 + self.vov_memory.0),
        )?;
        c.switch("Sdump", xin, dump, Switch::on_phase(ClockPhase::Phi2))?;
        c.capacitor("Cpar_in", xin, Circuit::GROUND, Farads(0.2e-12))?;
        c.resistor("Rbleed", xin, Circuit::GROUND, Ohms(1e9))?;
        // Memory transistor sized for the requested overdrive at bias.
        let wl = 2.0 * self.bias.0 / (100e-6 * self.vov_memory.0 * self.vov_memory.0);
        let mn = MosParams::nmos_08um(wl * 2.0, 2.0);
        c.mosfet(
            "MN",
            MosTerminals {
                drain: x,
                gate: g,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            mn,
        )?;
        // Diode connection during φ1; hold capacitance on the gate.
        c.switch("Smem", x, g, Switch::on_phase(ClockPhase::Phi1))?;
        c.capacitor("Chold", g, Circuit::GROUND, self.hold_cap)?;
        // Output path: φ2 into the next stage's virtual ground (an
        // ammeter into a bias voltage).
        c.switch("Sout", x, out, Switch::on_phase(ClockPhase::Phi2))?;
        let sink = c.node("sink");
        c.ammeter("Aout", out, sink)?;
        c.voltage_source("Vb_out", sink, Circuit::GROUND, self.output_bias)?;
        c.resistor("Rbleed_out", out, Circuit::GROUND, Ohms(1e9))?;

        let vgs0 = 0.8 + self.vov_memory.0;
        let mut guess = vec![0.0; c.node_count()];
        guess[vdd.index()] = self.vdd.0;
        guess[x.index()] = vgs0;
        guess[g.index()] = vgs0;
        guess[xin.index()] = vgs0;
        guess[c.node("dump").index()] = vgs0;
        guess[out.index()] = self.output_bias.0;
        guess[sink.index()] = self.output_bias.0;

        Ok(CellNetlist {
            circuit: c,
            input: x,
            gate: g,
            input_source: "Iin".to_string(),
            output_ammeter: "Aout".to_string(),
            initial_guess: guess,
        })
    }
}

/// Design parameters of the Fig. 1 class-AB half-cell with grounded-gate
/// amplifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassAbCellDesign {
    /// Supply voltage.
    pub vdd: Volts,
    /// Quiescent current of each memory transistor.
    pub iq: Amps,
    /// GGA bias current (through TP, TG and the TC/TN sink).
    pub j_bias: Amps,
    /// Memory transistor overdrive at the quiescent current.
    pub vov_memory: Volts,
    /// Overdrive of the bias devices TP/TG/TC/TN.
    pub vov_bias: Volts,
    /// Nominal voltage of the cell input node (the virtual ground level).
    pub v_input: Volts,
    /// Explicit gate hold capacitance per memory gate.
    pub hold_cap: Farads,
    /// Output-side virtual-ground potential.
    pub output_bias: Volts,
}

impl Default for ClassAbCellDesign {
    fn default() -> Self {
        ClassAbCellDesign {
            vdd: Volts(3.3),
            iq: Amps(10e-6),
            j_bias: Amps(20e-6),
            vov_memory: Volts(0.25),
            vov_bias: Volts(0.2),
            // The GGA output node must sit at VT + Vov_mem ≈ 1.05 V (the
            // memory gate); the input node needs to be a few hundred mV
            // below it so the grounded-gate transistor TG keeps saturation
            // headroom (vds_TG = v(y) − v(x)).
            v_input: Volts(0.65),
            hold_cap: Farads(0.5e-12),
            output_bias: Volts(0.65),
        }
    }
}

/// The class-AB cell netlist with its extra probe points.
#[derive(Debug, Clone)]
pub struct ClassAbCell {
    /// Common access points (input node, NMOS gate, sources, ammeter).
    pub cell: CellNetlist,
    /// The GGA output node driving the NMOS memory gate.
    pub gga_out: NodeId,
    /// The PMOS memory gate node.
    pub gate_p: NodeId,
    /// The design this was built from.
    pub design: ClassAbCellDesign,
}

impl ClassAbCellDesign {
    fn nmos_for(&self, i: Amps, vov: Volts) -> MosParams {
        let wl = 2.0 * i.0 / (100e-6 * vov.0 * vov.0);
        MosParams::nmos_08um(wl * 2.0, 2.0)
    }

    fn pmos_for(&self, i: Amps, vov: Volts) -> MosParams {
        let wl = 2.0 * i.0 / (35e-6 * vov.0 * vov.0);
        MosParams::pmos_08um(wl * 2.0, 2.0)
    }

    /// Builds the half-cell:
    ///
    /// ```text
    ///  Vdd ──TP(J)── y ──φ1── gn ── gate of MN        (GGA output)
    ///           TG: gate Vb, drain y, source x
    ///  x: cell input; MN drain x / MP drain x
    ///  MP gate gp = level-shifted copy of gn
    ///  x ── TC/TN cascode sink (J) ── gnd
    /// ```
    ///
    /// The level shift between the two memory gates (realized with floating
    /// bias arrangements on the die) is modeled by an ideal battery whose
    /// value puts both memory devices at `iq` when the loop settles.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for non-positive currents
    /// or overdrives, or netlist errors.
    pub fn build(&self) -> Result<ClassAbCell, AnalogError> {
        if !(self.iq.0 > 0.0) || !(self.j_bias.0 > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "design",
                constraint: "quiescent and bias currents must be positive",
            });
        }
        if !(self.vov_memory.0 > 0.0) || !(self.vov_bias.0 > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "design",
                constraint: "overdrives must be positive",
            });
        }
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let x = c.node("x");
        let y = c.node("y");
        let gn = c.node("gn");
        let gp = c.node("gp");
        let xin = c.node("xin");
        let out = c.node("out");

        c.voltage_source("Vdd", vdd, Circuit::GROUND, self.vdd)?;

        // --- Grounded-gate amplifier -----------------------------------
        // TP: PMOS current source pushing J into y. Modeled as a gate-biased
        // PMOS (saturation current source).
        let tp = self.pmos_for(self.j_bias, self.vov_bias);
        let vb_tp = c.node("vb_tp");
        c.voltage_source(
            "Vb_tp",
            vb_tp,
            Circuit::GROUND,
            Volts(self.vdd.0 - (tp.vt0.0.abs() + self.vov_bias.0)),
        )?;
        c.mosfet(
            "TP",
            MosTerminals {
                drain: y,
                gate: vb_tp,
                source: vdd,
                bulk: vdd,
            },
            tp,
        )?;
        // TG: grounded-gate (common-gate) NMOS, source at the input node.
        let tg = self.nmos_for(self.j_bias, self.vov_bias);
        let vb_tg = c.node("vb_tg");
        // Gate bias sets the input node's quiescent level:
        // v(x) = Vb_tg − VT(body) − Vov (source follows the gate). TG's
        // bulk is grounded while its source sits at v_input, so include the
        // body-effect threshold shift.
        let vt_tg_eff = tg.vt0.0 + tg.gamma * ((tg.phi + self.v_input.0).sqrt() - tg.phi.sqrt());
        c.voltage_source(
            "Vb_tg",
            vb_tg,
            Circuit::GROUND,
            Volts(self.v_input.0 + vt_tg_eff + self.vov_bias.0),
        )?;
        c.mosfet(
            "TG",
            MosTerminals {
                drain: y,
                gate: vb_tg,
                source: x,
                bulk: Circuit::GROUND,
            },
            tg,
        )?;
        // TC/TN cascoded sink pulling J out of x.
        let tn = self.nmos_for(self.j_bias, self.vov_bias);
        let mid = c.node("mid");
        let vb_tc = c.node("vb_tc");
        let vb_tn = c.node("vb_tn");
        c.voltage_source(
            "Vb_tn",
            vb_tn,
            Circuit::GROUND,
            Volts(tn.vt0.0 + self.vov_bias.0),
        )?;
        c.voltage_source(
            "Vb_tc",
            vb_tc,
            Circuit::GROUND,
            Volts(tn.vt0.0 + 2.0 * self.vov_bias.0 + 0.3),
        )?;
        c.mosfet(
            "TN",
            MosTerminals {
                drain: mid,
                gate: vb_tn,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            tn,
        )?;
        c.mosfet(
            "TC",
            MosTerminals {
                drain: x,
                gate: vb_tc,
                source: mid,
                bulk: Circuit::GROUND,
            },
            tn,
        )?;

        // --- Memory pair -------------------------------------------------
        let mn = self.nmos_for(self.iq, self.vov_memory);
        let mp = self.pmos_for(self.iq, self.vov_memory);
        c.mosfet(
            "MN",
            MosTerminals {
                drain: x,
                gate: gn,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            mn,
        )?;
        c.mosfet(
            "MP",
            MosTerminals {
                drain: x,
                gate: gp,
                source: vdd,
                bulk: vdd,
            },
            mp,
        )?;
        // Memory switches on φ1 and hold capacitors on both gates.
        c.switch("Smem_n", y, gn, Switch::on_phase(ClockPhase::Phi1))?;
        c.capacitor("Chold_n", gn, Circuit::GROUND, self.hold_cap)?;
        // The PMOS gate is the NMOS gate shifted so both devices sit at iq:
        //   Vy0 = VTn + Vov_m;  Vgp0 = Vdd − |VTp| − Vov_mp.
        let vy0 = mn.vt0.0 + self.vov_memory.0;
        let vgp0 = self.vdd.0 - (mp.vt0.0.abs() + self.vov_memory.0);
        let shift = vgp0 - vy0;
        let ys = c.node("ys");
        c.voltage_source("Vshift", ys, y, Volts(shift))?;
        c.switch("Smem_p", ys, gp, Switch::on_phase(ClockPhase::Phi1))?;
        c.capacitor("Chold_p", gp, Circuit::GROUND, self.hold_cap)?;

        // --- Signal steering ----------------------------------------------
        // φ1 steers the input current onto the cell; φ2 dumps it into a
        // bias branch at the virtual-ground level (the differential twin's
        // role), and a small parasitic capacitance carries xin through the
        // non-overlap dead time.
        c.current_source("Iin", Circuit::GROUND, xin, Amps(0.0))?;
        c.switch("Sin", xin, x, Switch::on_phase(ClockPhase::Phi1))?;
        let dump = c.node("dump");
        c.voltage_source("Vdump", dump, Circuit::GROUND, self.v_input)?;
        c.switch("Sdump", xin, dump, Switch::on_phase(ClockPhase::Phi2))?;
        c.capacitor("Cpar_in", xin, Circuit::GROUND, Farads(0.2e-12))?;
        c.resistor("Rbleed", xin, Circuit::GROUND, Ohms(1e9))?;
        c.switch("Sout", x, out, Switch::on_phase(ClockPhase::Phi2))?;
        let sink = c.node("sink");
        c.ammeter("Aout", out, sink)?;
        c.voltage_source("Vb_out", sink, Circuit::GROUND, self.output_bias)?;
        c.resistor("Rbleed_out", out, Circuit::GROUND, Ohms(1e9))?;

        let mut guess = vec![0.0; c.node_count()];
        guess[vdd.index()] = self.vdd.0;
        guess[x.index()] = self.v_input.0;
        guess[y.index()] = vy0;
        guess[gn.index()] = vy0;
        guess[gp.index()] = vgp0;
        guess[ys.index()] = vgp0;
        guess[mid.index()] = self.vov_bias.0 + 0.1;
        guess[xin.index()] = self.v_input.0;
        guess[c.node("dump").index()] = self.v_input.0;
        guess[out.index()] = self.output_bias.0;
        guess[sink.index()] = self.output_bias.0;
        guess[vb_tp.index()] = self.vdd.0 - (tp.vt0.0.abs() + self.vov_bias.0);
        guess[vb_tg.index()] = self.v_input.0 + vt_tg_eff + self.vov_bias.0;
        guess[vb_tn.index()] = tn.vt0.0 + self.vov_bias.0;
        guess[vb_tc.index()] = tn.vt0.0 + 2.0 * self.vov_bias.0 + 0.3;

        Ok(ClassAbCell {
            cell: CellNetlist {
                circuit: c,
                input: x,
                gate: gn,
                input_source: "Iin".to_string(),
                output_ammeter: "Aout".to_string(),
                initial_guess: guess,
            },
            gga_out: y,
            gate_p: gp,
            design: *self,
        })
    }
}

/// Design parameters of the Fig. 2 CMFF mirror network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmffDesign {
    /// Supply voltage.
    pub vdd: Volts,
    /// Output-stage bias current `I` of the driving block.
    pub bias: Amps,
    /// Device overdrive for all mirrors.
    pub vov: Volts,
    /// Virtual-ground potential of the following stage inputs.
    pub v_next: Volts,
}

impl Default for CmffDesign {
    fn default() -> Self {
        CmffDesign {
            vdd: Volts(3.3),
            bias: Amps(20e-6),
            vov: Volts(0.25),
            v_next: Volts(1.2),
        }
    }
}

/// The built CMFF network with its probes.
#[derive(Debug, Clone)]
pub struct CmffNetwork {
    /// The assembled circuit.
    pub circuit: Circuit,
    /// Name of the positive-side drive source (carries `I + id + icm`).
    pub drive_pos: String,
    /// Name of the negative-side drive source (carries `I − id + icm`).
    pub drive_neg: String,
    /// Ammeter on the positive output into the next stage.
    pub meter_pos: String,
    /// Ammeter on the negative output into the next stage.
    pub meter_neg: String,
    /// Initial node-voltage guess for the DC solver.
    pub initial_guess: Vec<f64>,
    /// The design this was built from.
    pub design: CmffDesign,
}

impl CmffDesign {
    /// Builds the Fig. 2 network.
    ///
    /// The driving block's output stage (Fig. 2a) is modeled by
    /// diode-connected reference devices `Dp`/`Dn` carrying the programmed
    /// currents and matched output devices `Tn0`/`Tn1` sinking them from the
    /// output wires. Half-size copies `Tn2`/`Tn3` reproduce half of each
    /// output current into a summing node, where a diode-connected `Tp0`
    /// picks up the total `I + icm`; `Tp1`/`Tp2` mirror it back onto the
    /// outputs while fixed sinks remove the bias `I`, leaving the
    /// common-mode term cancelled and the differential term untouched.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for non-positive bias or
    /// overdrive, or netlist errors.
    pub fn build(&self) -> Result<CmffNetwork, AnalogError> {
        if !(self.bias.0 > 0.0) || !(self.vov.0 > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "design",
                constraint: "bias current and overdrive must be positive",
            });
        }
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        c.voltage_source("Vdd", vdd, Circuit::GROUND, self.vdd)?;

        let wl_n = 2.0 * self.bias.0 / (100e-6 * self.vov.0 * self.vov.0);
        let n_full = MosParams::nmos_08um(wl_n * 2.0, 2.0);
        let n_half = MosParams::nmos_08um(wl_n, 2.0);
        let wl_p = 2.0 * self.bias.0 / (35e-6 * self.vov.0 * self.vov.0);
        let p_full = MosParams::pmos_08um(wl_p * 2.0, 2.0);

        // Reference diodes programmed by the drive sources.
        let g_pos = c.node("g_pos");
        let g_neg = c.node("g_neg");
        c.current_source("Idrive_pos", Circuit::GROUND, g_pos, self.bias)?;
        c.current_source("Idrive_neg", Circuit::GROUND, g_neg, self.bias)?;
        for (name, g) in [("Dpos", g_pos), ("Dneg", g_neg)] {
            c.mosfet(
                name,
                MosTerminals {
                    drain: g,
                    gate: g,
                    source: Circuit::GROUND,
                    bulk: Circuit::GROUND,
                },
                n_full,
            )?;
        }

        // Output devices Tn0/Tn1 sink the mirrored currents from the wires.
        let out_pos = c.node("out_pos");
        let out_neg = c.node("out_neg");
        c.mosfet(
            "Tn0",
            MosTerminals {
                drain: out_pos,
                gate: g_pos,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            n_full,
        )?;
        c.mosfet(
            "Tn1",
            MosTerminals {
                drain: out_neg,
                gate: g_neg,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            n_full,
        )?;

        // Half-size duplicates into the summing node.
        let sum = c.node("sum");
        c.mosfet(
            "Tn2",
            MosTerminals {
                drain: sum,
                gate: g_pos,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            n_half,
        )?;
        c.mosfet(
            "Tn3",
            MosTerminals {
                drain: sum,
                gate: g_neg,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            n_half,
        )?;

        // Tp0 diode sources the sum; Tp1/Tp2 mirror it onto the outputs.
        c.mosfet(
            "Tp0",
            MosTerminals {
                drain: sum,
                gate: sum,
                source: vdd,
                bulk: vdd,
            },
            p_full,
        )?;
        c.mosfet(
            "Tp1",
            MosTerminals {
                drain: out_pos,
                gate: sum,
                source: vdd,
                bulk: vdd,
            },
            p_full,
        )?;
        c.mosfet(
            "Tp2",
            MosTerminals {
                drain: out_neg,
                gate: sum,
                source: vdd,
                bulk: vdd,
            },
            p_full,
        )?;
        // Fixed sinks remove the bias component the PMOS mirrors re-inject.
        c.current_source("Isink_pos", out_pos, Circuit::GROUND, self.bias)?;
        c.current_source("Isink_neg", out_neg, Circuit::GROUND, self.bias)?;

        // Next-stage virtual grounds with ammeters.
        let vg_pos = c.node("vg_pos");
        let vg_neg = c.node("vg_neg");
        c.ammeter("Apos", out_pos, vg_pos)?;
        c.ammeter("Aneg", out_neg, vg_neg)?;
        c.voltage_source("Vnext_pos", vg_pos, Circuit::GROUND, self.v_next)?;
        c.voltage_source("Vnext_neg", vg_neg, Circuit::GROUND, self.v_next)?;

        let vgs0 = 0.8 + self.vov.0;
        let vsum0 = self.vdd.0 - (0.9 + self.vov.0);
        let mut guess = vec![0.0; c.node_count()];
        guess[vdd.index()] = self.vdd.0;
        guess[g_pos.index()] = vgs0;
        guess[g_neg.index()] = vgs0;
        guess[sum.index()] = vsum0;
        guess[out_pos.index()] = self.v_next.0;
        guess[out_neg.index()] = self.v_next.0;
        guess[vg_pos.index()] = self.v_next.0;
        guess[vg_neg.index()] = self.v_next.0;

        Ok(CmffNetwork {
            circuit: c,
            drive_pos: "Idrive_pos".to_string(),
            drive_neg: "Idrive_neg".to_string(),
            meter_pos: "Apos".to_string(),
            meter_neg: "Aneg".to_string(),
            initial_guess: guess,
            design: *self,
        })
    }
}

impl CmffNetwork {
    /// Programs the two drive currents: the positive side carries
    /// `I + id + icm`, the negative side `I − id + icm`.
    ///
    /// # Errors
    ///
    /// Propagates netlist update errors.
    pub fn drive(&mut self, id: Amps, icm: Amps) -> Result<(), AnalogError> {
        let i = self.design.bias;
        crate::dc::set_current_source(
            &mut self.circuit,
            &self.drive_pos,
            Amps(i.0 + id.0 + icm.0),
        )?;
        crate::dc::set_current_source(
            &mut self.circuit,
            &self.drive_neg,
            Amps(i.0 - id.0 + icm.0),
        )?;
        Ok(())
    }

    /// Solves the network and returns `(i_pos, i_neg)` drawn from the next
    /// stage (positive = current flowing from the next stage into this
    /// block, i.e. the block sinks it).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub(crate) fn output_currents(&self) -> Result<(Amps, Amps), AnalogError> {
        let sol = crate::dc::DcSolver::new()
            .with_initial_guess(self.initial_guess.clone())
            .solve(&self.circuit)?;
        let ip = sol.branch_current(self.circuit.branch_of(&self.meter_pos)?);
        let in_ = sol.branch_current(self.circuit.branch_of(&self.meter_neg)?);
        // Ammeter measures current flowing out_pos → vg_pos; the block
        // sinking current from the next stage makes this negative. Flip so
        // "current drawn from next stage" is positive.
        Ok((Amps(-ip.0), Amps(-in_.0)))
    }

    /// The common-mode current seen by the next stage, bias removed.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn residual_common_mode(&self) -> Result<Amps, AnalogError> {
        let (ip, in_) = self.output_currents()?;
        Ok(Amps(0.5 * (ip.0 + in_.0) - self.design.bias.0))
    }

    /// The differential current seen by the next stage,
    /// `(i_pos − i_neg) / 2`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn differential_output(&self) -> Result<Amps, AnalogError> {
        let (ip, in_) = self.output_currents()?;
        Ok(Amps(0.5 * (ip.0 - in_.0)))
    }
}

/// Design parameters of an N-stage switched-current delay line: a cascade
/// of diode-connected class-A memory stages coupled by alternating φ1/φ2
/// switches. This is the paper's delay-line/FIR application scaled to an
/// arbitrary stage count — and, at tens to hundreds of stages, the circuit
/// family whose MNA matrix is large and tridiagonal-sparse, exercising the
/// sparse structure-caching solver backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayLineDesign {
    /// Number of memory stages (≥ 1). The MNA dimension equals this (one
    /// node per stage, no voltage sources).
    pub stages: usize,
    /// Per-stage bias current into the diode-connected memory transistor.
    pub bias: Amps,
    /// Memory transistor overdrive at the bias current.
    pub vov: Volts,
    /// Per-stage gate hold capacitance.
    pub hold_cap: Farads,
}

impl Default for DelayLineDesign {
    fn default() -> Self {
        DelayLineDesign {
            stages: 48,
            bias: Amps(20e-6),
            vov: Volts(0.25),
            hold_cap: Farads(0.5e-12),
        }
    }
}

/// A built delay line: the circuit plus its labelled access points.
#[derive(Debug, Clone)]
pub struct DelayLine {
    /// The assembled circuit.
    pub circuit: Circuit,
    /// The input node (stage 0's memory node).
    pub input: NodeId,
    /// The memory node of every stage, in order.
    pub stage_nodes: Vec<NodeId>,
    /// Name of the input current source.
    pub input_source: String,
    /// Initial node-voltage guess for the DC solver.
    pub initial_guess: Vec<f64>,
}

impl DelayLineDesign {
    /// Builds the delay line:
    ///
    /// ```text
    ///  Iin ──┬─ n0 ─φ2─ n1 ─φ1─ n2 ─φ2─ … ─ n(N−1)
    ///  Ib0 ──┤         each nk: diode-connected NMOS to ground
    ///        MN0 ╢ C0  + hold cap + per-stage bias current
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for zero stages or
    /// non-positive bias/overdrive, or netlist errors.
    pub fn build(&self) -> Result<DelayLine, AnalogError> {
        if self.stages == 0 {
            return Err(AnalogError::InvalidParameter {
                name: "stages",
                constraint: "a delay line needs at least one stage",
            });
        }
        if !(self.bias.0 > 0.0) || !(self.vov.0 > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "design",
                constraint: "bias current and overdrive must be positive",
            });
        }
        let mut c = Circuit::new();
        let wl = 2.0 * self.bias.0 / (100e-6 * self.vov.0 * self.vov.0);
        let params = MosParams::nmos_08um(wl, 2.0);
        let mut nodes = Vec::with_capacity(self.stages);
        for k in 0..self.stages {
            let n = c.node(&format!("n{k}"));
            c.mosfet(
                &format!("MN{k}"),
                MosTerminals {
                    drain: n,
                    gate: n,
                    source: Circuit::GROUND,
                    bulk: Circuit::GROUND,
                },
                params,
            )?;
            c.capacitor(&format!("C{k}"), n, Circuit::GROUND, self.hold_cap)?;
            c.current_source(&format!("Ib{k}"), Circuit::GROUND, n, self.bias)?;
            if let Some(&prev) = nodes.last() {
                // Alternating coupling phases: the held sample of one
                // stage drives the next on the opposite clock phase.
                let phase = if k % 2 == 1 {
                    ClockPhase::Phi2
                } else {
                    ClockPhase::Phi1
                };
                c.switch(&format!("S{k}"), prev, n, Switch::on_phase(phase))?;
            }
            nodes.push(n);
        }
        c.current_source("Iin", Circuit::GROUND, nodes[0], Amps(0.0))?;

        let vgs0 = 0.8 + self.vov.0;
        let mut guess = vec![0.0; c.node_count()];
        for &n in &nodes {
            guess[n.index()] = vgs0;
        }

        Ok(DelayLine {
            circuit: c,
            input: nodes[0],
            stage_nodes: nodes,
            input_source: "Iin".to_string(),
            initial_guess: guess,
        })
    }
}

/// An N-stage [`DelayLineDesign`] with default electrical parameters — the
/// standard large-sparse-circuit generator used by the solver-backend
/// tests and benchmarks.
///
/// # Errors
///
/// Same as [`DelayLineDesign::build`].
pub fn si_cell_chain(stages: usize) -> Result<DelayLine, AnalogError> {
    DelayLineDesign {
        stages,
        ..DelayLineDesign::default()
    }
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcSolver;

    #[test]
    fn class_a_cell_builds_and_biases() {
        let cell = ClassACellDesign::default().build().unwrap();
        let sol = DcSolver::new()
            .with_initial_guess(cell.initial_guess.clone())
            .solve(&cell.circuit)
            .unwrap();
        // Diode-connected memory transistor settles near VT + Vov.
        let v = sol.voltage(cell.input).0;
        assert!((0.8..1.4).contains(&v), "memory node at {v} V");
    }

    #[test]
    fn class_a_rejects_bad_design() {
        let d = ClassACellDesign {
            bias: Amps(0.0),
            ..ClassACellDesign::default()
        };
        assert!(d.build().is_err());
    }

    #[test]
    fn class_ab_cell_builds_and_biases() {
        let cell = ClassAbCellDesign::default().build().unwrap();
        let sol = DcSolver::new()
            .with_initial_guess(cell.cell.initial_guess.clone())
            .solve(&cell.cell.circuit)
            .unwrap();
        let vx = sol.voltage(cell.cell.input).0;
        // The GGA regulates the input node near the designed level.
        assert!(
            (vx - 0.65).abs() < 0.2,
            "input node at {vx} V, designed 0.65 V"
        );
        // The memory gate sits near VT + Vov.
        let vg = sol.voltage(cell.cell.gate).0;
        assert!((0.7..1.5).contains(&vg), "gate at {vg} V");
    }

    #[test]
    fn class_ab_rejects_bad_design() {
        let d = ClassAbCellDesign {
            vov_memory: Volts(0.0),
            ..ClassAbCellDesign::default()
        };
        assert!(d.build().is_err());
        let d = ClassAbCellDesign {
            j_bias: Amps(-1e-6),
            ..ClassAbCellDesign::default()
        };
        assert!(d.build().is_err());
    }

    #[test]
    fn cmff_cancels_common_mode() {
        // Channel-length modulation gives the mirrors a small systematic
        // gain error that shows up as a constant offset in the residual;
        // the CMFF claim is about *signal* common mode, so measure the
        // incremental rejection: d(residual)/d(icm).
        let mut net = CmffDesign::default().build().unwrap();
        net.drive(Amps(0.0), Amps(0.0)).unwrap();
        let base = net.residual_common_mode().unwrap();
        net.drive(Amps(0.0), Amps(2e-6)).unwrap();
        let with_cm = net.residual_common_mode().unwrap();
        let cm_gain = (with_cm.0 - base.0) / 2e-6;
        assert!(
            cm_gain.abs() < 0.15,
            "incremental common-mode gain {cm_gain} (should be ≪ 1)"
        );
    }

    #[test]
    fn cmff_static_offset_is_small_fraction_of_bias() {
        let mut net = CmffDesign::default().build().unwrap();
        net.drive(Amps(0.0), Amps(0.0)).unwrap();
        let base = net.residual_common_mode().unwrap();
        assert!(
            base.0.abs() < 0.15 * net.design.bias.0,
            "static mirror offset {} A vs bias {} A",
            base.0,
            net.design.bias.0
        );
    }

    #[test]
    fn cmff_preserves_differential_signal() {
        let mut net = CmffDesign::default().build().unwrap();
        net.drive(Amps(5e-6), Amps(0.0)).unwrap();
        let (ip, in_) = net.output_currents().unwrap();
        let id_out = 0.5 * (ip.0 - in_.0);
        assert!(
            (id_out - 5e-6).abs() < 0.5e-6,
            "differential output {id_out} A for 5 µA drive"
        );
    }

    #[test]
    fn cmff_rejects_bad_design() {
        let d = CmffDesign {
            vov: Volts(-1.0),
            ..CmffDesign::default()
        };
        assert!(d.build().is_err());
    }

    #[test]
    fn delay_line_builds_and_biases_every_stage() {
        let line = si_cell_chain(40).unwrap();
        assert_eq!(line.circuit.mna_dimension(), 40);
        let sol = DcSolver::new()
            .with_initial_guess(line.initial_guess.clone())
            .solve(&line.circuit)
            .unwrap();
        for (k, &n) in line.stage_nodes.iter().enumerate() {
            let v = sol.voltage(n).0;
            assert!((0.8..1.4).contains(&v), "stage {k} memory node at {v} V");
        }
    }

    #[test]
    fn delay_line_rejects_bad_design() {
        assert!(si_cell_chain(0).is_err());
        let d = DelayLineDesign {
            bias: Amps(0.0),
            ..DelayLineDesign::default()
        };
        assert!(d.build().is_err());
    }
}
