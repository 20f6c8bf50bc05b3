//! Circuit construction: nodes and elements.
//!
//! A [`Circuit`] is a flat netlist. Nodes are created by name with
//! [`Circuit::node`]; node 0 is always ground. Elements are added through
//! typed methods ([`Circuit::resistor`], `Circuit::mosfet`, …) that
//! validate parameters and reject duplicate names.

use std::collections::HashMap;

use crate::device::mos::MosParams;
use crate::device::passive::{Capacitor, Resistor};
use crate::device::source::Waveform;
use crate::device::switch::Switch;
use crate::units::{Amps, Farads, Ohms, Volts};
use crate::AnalogError;

/// A node in the circuit. Node 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (0 = ground).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the ground node.
    #[must_use]
    pub(crate) fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// Identifies an element within its circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

/// The four MOS terminals in netlist order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MosTerminals {
    /// Drain node.
    pub drain: NodeId,
    /// Gate node.
    pub gate: NodeId,
    /// Source node.
    pub source: NodeId,
    /// Bulk (body) node.
    pub bulk: NodeId,
}

/// One netlist element.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ElementKind {
    /// Linear resistor between two nodes.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// The device.
        device: Resistor,
    },
    /// Linear capacitor between two nodes.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// The device.
        device: Capacitor,
    },
    /// Independent current source pushing current from `from` to `to`
    /// through itself (i.e. injecting into `to`).
    CurrentSource {
        /// Terminal current is pulled from.
        from: NodeId,
        /// Terminal current is injected into.
        to: NodeId,
        /// Source value over time, in amperes.
        waveform: Waveform,
    },
    /// Independent voltage source; adds one MNA branch unknown whose value
    /// is the current flowing from `pos` through the source to `neg`.
    VoltageSource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Source value over time, in volts.
        waveform: Waveform,
        /// Branch index assigned at insertion.
        branch: usize,
    },
    /// Four-terminal MOSFET.
    Mosfet {
        /// Terminal connections.
        terminals: MosTerminals,
        /// Model parameters.
        params: MosParams,
    },
    /// Clocked switch between two nodes.
    Switch {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// The device.
        device: Switch,
    },
}

/// A named element.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    name: String,
    kind: ElementKind,
}

impl Element {
    /// The element's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element's kind and connections.
    #[must_use]
    pub fn kind(&self) -> &ElementKind {
        &self.kind
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming 64-bit FNV-1a hasher: the one stable, process-independent
/// hash behind [`Circuit::structure_fingerprint`],
/// [`Circuit::value_fingerprint`] and the job service's cache keys.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Mixes a `u64` byte by byte (little-endian).
    #[inline]
    pub fn mix_u64(&mut self, v: u64) {
        self.mix_bytes(&v.to_le_bytes());
    }

    /// Mixes a float through its bit pattern, so `-0.0 ≠ 0.0` and every
    /// ULP counts — exactly the value-fingerprint convention.
    #[inline]
    pub fn mix_f64(&mut self, v: f64) {
        self.mix_u64(v.to_bits());
    }

    /// Mixes raw bytes, one at a time — plain FNV-1a over a byte string.
    #[inline]
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The accumulated hash.
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A flat netlist of nodes and elements.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_lookup: HashMap<String, NodeId>,
    elements: Vec<Element>,
    element_lookup: HashMap<String, ElementId>,
    vsource_count: usize,
}

impl Circuit {
    /// The ground node, always present.
    pub const GROUND: NodeId = NodeId(0);

    /// An empty circuit containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: Vec::new(),
            node_lookup: HashMap::new(),
            elements: Vec::new(),
            element_lookup: HashMap::new(),
            vsource_count: 0,
        };
        c.node_names.push("0".to_string());
        c.node_lookup.insert("0".to_string(), NodeId(0));
        c
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"`, `"gnd"` and `"ground"` all map to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let canonical = match name {
            "gnd" | "ground" | "GND" => "0",
            other => other,
        };
        if let Some(&id) = self.node_lookup.get(canonical) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(canonical.to_string());
        self.node_lookup.insert(canonical.to_string(), id);
        id
    }

    /// Total node count including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of voltage-source branches (extra MNA unknowns).
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.vsource_count
    }

    /// The size of the MNA system: non-ground nodes plus branches.
    #[must_use]
    pub fn mna_dimension(&self) -> usize {
        self.node_count() - 1 + self.vsource_count
    }

    /// A deterministic hash of the circuit's *structure*: element kinds,
    /// their node connections, and the system dimensions — everything that
    /// determines the MNA sparsity pattern, and nothing that does not.
    /// Element values and source waveforms are deliberately excluded, so a
    /// sweep that only retunes sources keeps the same fingerprint and the
    /// sparse solver's cached symbolic factorization stays valid.
    ///
    /// [`Fnv1a`] rather than [`std::hash::DefaultHasher`] because the latter
    /// is randomized per process and this fingerprint keys a cache that
    /// must behave identically run to run.
    #[must_use]
    pub fn structure_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut mix = |v: u64| h.mix_u64(v);
        mix(self.node_count() as u64);
        mix(self.vsource_count as u64);
        for e in &self.elements {
            match &e.kind {
                ElementKind::Resistor { a, b, .. } => {
                    mix(1);
                    mix(a.0 as u64);
                    mix(b.0 as u64);
                }
                ElementKind::Capacitor { a, b, .. } => {
                    mix(2);
                    mix(a.0 as u64);
                    mix(b.0 as u64);
                }
                ElementKind::CurrentSource { from, to, .. } => {
                    mix(3);
                    mix(from.0 as u64);
                    mix(to.0 as u64);
                }
                ElementKind::VoltageSource {
                    pos, neg, branch, ..
                } => {
                    mix(4);
                    mix(pos.0 as u64);
                    mix(neg.0 as u64);
                    mix(*branch as u64);
                }
                ElementKind::Mosfet { terminals, .. } => {
                    mix(5);
                    mix(terminals.drain.0 as u64);
                    mix(terminals.gate.0 as u64);
                    mix(terminals.source.0 as u64);
                    mix(terminals.bulk.0 as u64);
                }
                ElementKind::Switch { a, b, .. } => {
                    mix(6);
                    mix(a.0 as u64);
                    mix(b.0 as u64);
                }
            }
        }
        h.finish()
    }

    /// A deterministic hash of the circuit's element *values*: resistances,
    /// capacitances, device geometries and model parameters, and source
    /// waveforms — everything [`Circuit::structure_fingerprint`] deliberately
    /// excludes. The pair `(structure_fingerprint, value_fingerprint)`
    /// therefore identifies a circuit up to node naming: structure keys the
    /// sparse solver's symbolic cache, and structure ⊕ values keys a
    /// content-addressed *result* cache (`si-service` job keys), where two
    /// jobs may only share a cache slot if they would solve identically.
    ///
    /// Same FNV-1a rationale as [`Circuit::structure_fingerprint`]: the
    /// hash must be stable across processes and runs. Float values are
    /// mixed via their IEEE-754 bit patterns, so any representable change
    /// — however small — produces a different fingerprint.
    #[must_use]
    pub fn value_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut mixf = |v: f64| h.mix_f64(v);
        let mix_waveform = |w: &Waveform, mixf: &mut dyn FnMut(f64)| match w {
            Waveform::Dc(v) => {
                mixf(1.0);
                mixf(*v);
            }
            Waveform::Sine {
                offset,
                amplitude,
                frequency,
                phase,
            } => {
                mixf(2.0);
                mixf(*offset);
                mixf(*amplitude);
                mixf(*frequency);
                mixf(*phase);
            }
            Waveform::Pulse {
                low,
                high,
                period,
                duty_low,
            } => {
                mixf(3.0);
                mixf(*low);
                mixf(*high);
                mixf(*period);
                mixf(*duty_low);
            }
            Waveform::Pwl(points) => {
                mixf(4.0);
                mixf(points.len() as f64);
                for &(t, v) in points {
                    mixf(t);
                    mixf(v);
                }
            }
        };
        for e in &self.elements {
            match &e.kind {
                ElementKind::Resistor { device, .. } => {
                    mixf(1.0);
                    mixf(device.r.0);
                }
                ElementKind::Capacitor { device, .. } => {
                    mixf(2.0);
                    mixf(device.c.0);
                }
                ElementKind::CurrentSource { waveform, .. } => {
                    mixf(3.0);
                    mix_waveform(waveform, &mut mixf);
                }
                ElementKind::VoltageSource { waveform, .. } => {
                    mixf(4.0);
                    mix_waveform(waveform, &mut mixf);
                }
                ElementKind::Mosfet { params, .. } => {
                    mixf(5.0);
                    mixf(params.polarity.sign());
                    mixf(params.vt0.0);
                    mixf(params.kp);
                    mixf(params.w_um);
                    mixf(params.l_um);
                    mixf(params.lambda);
                    mixf(params.gamma);
                    mixf(params.phi);
                    mixf(params.cox_per_um2);
                }
                ElementKind::Switch { device, .. } => {
                    mixf(6.0);
                    mixf(device.ron.0);
                    mixf(device.roff.0);
                    mixf(match device.phase {
                        crate::device::switch::ClockPhase::Phi1 => 1.0,
                        crate::device::switch::ClockPhase::Phi2 => 2.0,
                        crate::device::switch::ClockPhase::AlwaysOn => 3.0,
                        crate::device::switch::ClockPhase::AlwaysOff => 4.0,
                    });
                }
            }
        }
        h.finish()
    }

    /// The name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this circuit.
    #[must_use]
    pub(crate) fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// All elements in insertion order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Looks up an element by name.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::UnknownElement`] if no element has that name.
    pub(crate) fn element(&self, name: &str) -> Result<&Element, AnalogError> {
        let id = self
            .element_lookup
            .get(name)
            .ok_or_else(|| AnalogError::UnknownElement {
                element: name.to_string(),
            })?;
        Ok(&self.elements[id.0])
    }

    /// The MNA branch index of a voltage source, for reading its current
    /// from a solution vector.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::UnknownElement`] if the name does not refer to
    /// a voltage source.
    pub fn branch_of(&self, name: &str) -> Result<usize, AnalogError> {
        match self.element(name)?.kind() {
            ElementKind::VoltageSource { branch, .. } => Ok(*branch),
            _ => Err(AnalogError::UnknownElement {
                element: name.to_string(),
            }),
        }
    }

    /// Replaces the waveform of a named current source, e.g. to sweep its
    /// DC value or change the stimulus between runs.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::UnknownElement`] if the name does not refer to
    /// a current source.
    pub fn update_current_source(
        &mut self,
        name: &str,
        waveform: Waveform,
    ) -> Result<(), AnalogError> {
        let id =
            self.element_lookup
                .get(name)
                .copied()
                .ok_or_else(|| AnalogError::UnknownElement {
                    element: name.to_string(),
                })?;
        match &mut self.elements[id.0].kind {
            ElementKind::CurrentSource { waveform: w, .. } => {
                *w = waveform;
                Ok(())
            }
            _ => Err(AnalogError::UnknownElement {
                element: name.to_string(),
            }),
        }
    }

    fn check_node(&self, node: NodeId) -> Result<(), AnalogError> {
        if node.0 >= self.node_names.len() {
            return Err(AnalogError::UnknownNode {
                node: node.0,
                node_count: self.node_names.len(),
            });
        }
        Ok(())
    }

    fn insert(&mut self, name: &str, kind: ElementKind) -> Result<ElementId, AnalogError> {
        if self.element_lookup.contains_key(name) {
            return Err(AnalogError::DuplicateElement {
                element: name.to_string(),
            });
        }
        let id = ElementId(self.elements.len());
        self.elements.push(Element {
            name: name.to_string(),
            kind,
        });
        self.element_lookup.insert(name.to_string(), id);
        Ok(id)
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidElement`] for a non-positive resistance,
    /// [`AnalogError::UnknownNode`] for foreign nodes, or
    /// [`AnalogError::DuplicateElement`] for a reused name.
    pub fn resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        r: Ohms,
    ) -> Result<ElementId, AnalogError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(r.0 > 0.0) || !r.0.is_finite() {
            return Err(AnalogError::InvalidElement {
                element: name.to_string(),
                constraint: "resistance must be positive and finite",
            });
        }
        self.insert(
            name,
            ElementKind::Resistor {
                a,
                b,
                device: Resistor { r },
            },
        )
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidElement`] for a non-positive
    /// capacitance, plus the node/name errors of [`Circuit::resistor`].
    pub fn capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        c: Farads,
    ) -> Result<ElementId, AnalogError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(c.0 > 0.0) || !c.0.is_finite() {
            return Err(AnalogError::InvalidElement {
                element: name.to_string(),
                constraint: "capacitance must be positive and finite",
            });
        }
        self.insert(
            name,
            ElementKind::Capacitor {
                a,
                b,
                device: Capacitor { c },
            },
        )
    }

    /// Adds a DC current source pushing `i` from `from` into `to`.
    ///
    /// # Errors
    ///
    /// Returns the node/name errors of [`Circuit::resistor`].
    pub fn current_source(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        i: Amps,
    ) -> Result<ElementId, AnalogError> {
        self.current_source_wave(name, from, to, Waveform::Dc(i.0))
    }

    /// Adds a current source with an arbitrary waveform (amperes).
    ///
    /// # Errors
    ///
    /// Returns the node/name errors of [`Circuit::resistor`].
    pub(crate) fn current_source_wave(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        waveform: Waveform,
    ) -> Result<ElementId, AnalogError> {
        self.check_node(from)?;
        self.check_node(to)?;
        self.insert(name, ElementKind::CurrentSource { from, to, waveform })
    }

    /// Adds a DC voltage source of `v` volts between `pos` and `neg`.
    ///
    /// # Errors
    ///
    /// Returns the node/name errors of [`Circuit::resistor`].
    pub fn voltage_source(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        v: Volts,
    ) -> Result<ElementId, AnalogError> {
        self.voltage_source_wave(name, pos, neg, Waveform::Dc(v.0))
    }

    /// Adds a voltage source with an arbitrary waveform (volts).
    ///
    /// # Errors
    ///
    /// Returns the node/name errors of [`Circuit::resistor`].
    pub fn voltage_source_wave(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: Waveform,
    ) -> Result<ElementId, AnalogError> {
        self.check_node(pos)?;
        self.check_node(neg)?;
        let branch = self.vsource_count;
        let id = self.insert(
            name,
            ElementKind::VoltageSource {
                pos,
                neg,
                waveform,
                branch,
            },
        )?;
        self.vsource_count += 1;
        Ok(id)
    }

    /// Adds a 0 V voltage source usable as an ammeter: the branch current is
    /// the current flowing from `pos` to `neg` through it.
    ///
    /// # Errors
    ///
    /// Returns the node/name errors of [`Circuit::resistor`].
    pub(crate) fn ammeter(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
    ) -> Result<ElementId, AnalogError> {
        self.voltage_source(name, pos, neg, Volts(0.0))
    }

    /// Adds a four-terminal MOSFET.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidElement`] for non-positive geometry,
    /// plus the node/name errors of [`Circuit::resistor`].
    pub(crate) fn mosfet(
        &mut self,
        name: &str,
        terminals: MosTerminals,
        params: MosParams,
    ) -> Result<ElementId, AnalogError> {
        for n in [
            terminals.drain,
            terminals.gate,
            terminals.source,
            terminals.bulk,
        ] {
            self.check_node(n)?;
        }
        if !(params.w_um > 0.0) || !(params.l_um > 0.0) || !(params.kp > 0.0) {
            return Err(AnalogError::InvalidElement {
                element: name.to_string(),
                constraint: "mos geometry and kp must be positive",
            });
        }
        self.insert(name, ElementKind::Mosfet { terminals, params })
    }

    /// Adds a clocked switch.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidElement`] if `ron`/`roff` are not
    /// positive, plus the node/name errors of [`Circuit::resistor`].
    pub fn switch(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        device: Switch,
    ) -> Result<ElementId, AnalogError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(device.ron.0 > 0.0) || !(device.roff.0 > 0.0) {
            return Err(AnalogError::InvalidElement {
                element: name.to_string(),
                constraint: "switch resistances must be positive",
            });
        }
        self.insert(name, ElementKind::Switch { a, b, device })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::switch::ClockPhase;

    #[test]
    fn fnv1a_matches_the_published_64_bit_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.mix_bytes(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node("ground"), Circuit::GROUND);
        assert_eq!(c.node_count(), 1);
    }

    #[test]
    fn nodes_are_interned() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.node_name(a), "a");
    }

    #[test]
    fn duplicate_element_names_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GROUND, Ohms(1.0)).unwrap();
        assert!(matches!(
            c.resistor("R1", a, Circuit::GROUND, Ohms(2.0)),
            Err(AnalogError::DuplicateElement { .. })
        ));
    }

    #[test]
    fn invalid_values_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.resistor("R", a, Circuit::GROUND, Ohms(0.0)).is_err());
        assert!(c.resistor("R", a, Circuit::GROUND, Ohms(-5.0)).is_err());
        assert!(c
            .capacitor("C", a, Circuit::GROUND, Farads(f64::NAN))
            .is_err());
        let mut bad = MosParams::nmos_08um(10.0, 1.0);
        bad.w_um = 0.0;
        let t = MosTerminals {
            drain: a,
            gate: a,
            source: Circuit::GROUND,
            bulk: Circuit::GROUND,
        };
        assert!(c.mosfet("M", t, bad).is_err());
    }

    #[test]
    fn foreign_node_rejected() {
        let mut c = Circuit::new();
        let bogus = NodeId(42);
        assert!(matches!(
            c.resistor("R", bogus, Circuit::GROUND, Ohms(1.0)),
            Err(AnalogError::UnknownNode { node: 42, .. })
        ));
    }

    #[test]
    fn branch_indices_are_sequential() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.voltage_source("V1", a, Circuit::GROUND, Volts(1.0))
            .unwrap();
        c.ammeter("A1", a, b).unwrap();
        assert_eq!(c.branch_of("V1").unwrap(), 0);
        assert_eq!(c.branch_of("A1").unwrap(), 1);
        assert_eq!(c.branch_count(), 2);
        assert_eq!(c.mna_dimension(), 2 + 2);
    }

    #[test]
    fn branch_of_non_source_is_error() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GROUND, Ohms(1.0)).unwrap();
        assert!(c.branch_of("R1").is_err());
        assert!(c.branch_of("nope").is_err());
    }

    #[test]
    fn fingerprint_tracks_structure_not_values() {
        let build = |r: f64, i: f64| {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            c.resistor("R1", a, b, Ohms(r)).unwrap();
            c.current_source("I1", Circuit::GROUND, a, Amps(i)).unwrap();
            c
        };
        let base = build(1e3, 1e-3);
        // Same structure, different values: identical fingerprint.
        assert_eq!(
            base.structure_fingerprint(),
            build(2e3, -5e-3).structure_fingerprint()
        );
        // Retuning a source in place keeps the fingerprint.
        let mut retuned = build(1e3, 1e-3);
        retuned
            .update_current_source("I1", Waveform::Dc(7e-3))
            .unwrap();
        assert_eq!(
            base.structure_fingerprint(),
            retuned.structure_fingerprint()
        );
        // A different connection changes it.
        let mut rewired = Circuit::new();
        let a = rewired.node("a");
        let b = rewired.node("b");
        rewired
            .resistor("R1", a, Circuit::GROUND, Ohms(1e3))
            .unwrap();
        rewired
            .current_source("I1", Circuit::GROUND, b, Amps(1e-3))
            .unwrap();
        assert_ne!(
            base.structure_fingerprint(),
            rewired.structure_fingerprint()
        );
    }

    #[test]
    fn value_fingerprint_tracks_values_not_structure_alone() {
        let build = |r: f64, i: f64| {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            c.resistor("R1", a, b, Ohms(r)).unwrap();
            c.current_source("I1", Circuit::GROUND, a, Amps(i)).unwrap();
            c
        };
        let base = build(1e3, 1e-3);
        // Same values, fresh build: identical fingerprint (process-stable).
        assert_eq!(
            base.value_fingerprint(),
            build(1e3, 1e-3).value_fingerprint()
        );
        // One element value changes: fingerprint changes, structure stays.
        let tweaked = build(2e3, 1e-3);
        assert_ne!(base.value_fingerprint(), tweaked.value_fingerprint());
        assert_eq!(
            base.structure_fingerprint(),
            tweaked.structure_fingerprint()
        );
        // Retuning a source in place changes values, keeps structure.
        let mut retuned = build(1e3, 1e-3);
        retuned
            .update_current_source("I1", Waveform::Dc(7e-3))
            .unwrap();
        assert_ne!(base.value_fingerprint(), retuned.value_fingerprint());
        assert_eq!(
            base.structure_fingerprint(),
            retuned.structure_fingerprint()
        );
        // Swapping a DC waveform for a Sine at the same DC value differs.
        let mut sine = build(1e3, 1e-3);
        sine.update_current_source(
            "I1",
            Waveform::Sine {
                offset: 1e-3,
                amplitude: 0.0,
                frequency: 1e3,
                phase: 0.0,
            },
        )
        .unwrap();
        assert_ne!(base.value_fingerprint(), sine.value_fingerprint());
    }

    #[test]
    fn element_lookup_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.switch(
            "S1",
            a,
            Circuit::GROUND,
            crate::device::switch::Switch::on_phase(ClockPhase::Phi1),
        )
        .unwrap();
        assert_eq!(c.element("S1").unwrap().name(), "S1");
        assert!(c.element("S2").is_err());
    }
}
