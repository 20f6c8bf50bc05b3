//! A strictly validated, versioned SPICE-subset netlist dialect.
//!
//! Lets circuits be written as plain text instead of builder calls:
//!
//! ```text
//! .version 1
//! * resistive divider with a clocked tap
//! V1 in 0 3.3
//! R1 in mid 1k
//! R2 mid 0 2k
//! C1 mid 0 1p
//! I1 0 out 10u
//! M1 out g 0 0 NMOS W=20u L=2u
//! S1 out mid phi1
//! .end
//! ```
//!
//! Supported cards (first letter selects the element, case-insensitive):
//!
//! | Card | Syntax |
//! |---|---|
//! | `R` | `Rname a b value` |
//! | `C` | `Cname a b value` |
//! | `V` | `Vname pos neg value` *or* `Vname pos neg SIN offset amp freq` |
//! | `I` | `Iname from to value` *or* `Iname from to SIN offset amp freq` |
//! | `M` | `Mname d g s b NMOS\|PMOS [W=..] [L=..] [W_UM=..] [L_UM=..]` |
//! | `S` | `Sname a b phi1\|phi2\|on\|off [ron] [roff]` |
//! | `A` | `Aname pos neg` (0 V ammeter) |
//!
//! Directives start with `.`:
//!
//! * `.version N` — declares the dialect version; only version 1 is
//!   accepted. Optional, but recommended for user-submitted netlists.
//! * `.nodes a b c …` — pre-interns nodes in the given order, pinning the
//!   MNA unknown ordering. Emitted by [`to_netlist`] so a round-tripped
//!   circuit factorizes in exactly the same order as its builder-built
//!   twin (bit-identical solutions).
//! * `.end` — stops parsing; anything after it is ignored.
//!
//! Values accept the usual engineering suffixes
//! (`f p n u m k meg g t`). Node `0`, `gnd` and `ground` are ground.
//! MOS devices use the crate's generic 0.8 µm models with the given
//! geometry (`W=`/`L=` in metres, `W_UM=`/`L_UM=` directly in µm). Lines
//! starting with `*` are comments, `;` starts an inline comment.
//!
//! Parsing never panics: every malformed input is a typed [`ParseError`]
//! carrying the 1-based line and column of the offending token. The
//! convenience wrapper [`parse_netlist`] folds that into
//! [`AnalogError::Parse`]; `parse_netlist_v1` exposes the typed error,
//! and [`parse_netlist_canonical`] additionally reorders cards into a
//! canonical form so that card-permuted submissions of the same circuit
//! produce *identical* [`Circuit`] objects (same fingerprints, same MNA
//! ordering, bit-identical solutions) — the property the service-layer
//! result cache keys on.

use crate::device::mos::{MosParams, MosPolarity};
use crate::device::switch::{ClockPhase, Switch};
use crate::device::Waveform;
use crate::netlist::{Circuit, ElementKind, MosTerminals, NodeId};
use crate::units::{Farads, Ohms};
use crate::AnalogError;
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// The netlist dialect version this parser speaks.
pub(crate) const DIALECT_VERSION: u32 = 1;

/// Why a numeric token failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValueError {
    /// The token was empty.
    Empty,
    /// The token does not start with a number.
    Malformed,
    /// The number overflows to infinity or is not finite (e.g. `1e999`).
    NonFinite,
    /// A valid number followed by characters that are not a single
    /// engineering suffix (e.g. `5kk`, `3xyz`).
    TrailingGarbage,
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::Empty => write!(f, "empty value"),
            ValueError::Malformed => write!(f, "not a number"),
            ValueError::NonFinite => write!(f, "not a finite number"),
            ValueError::TrailingGarbage => {
                write!(f, "trailing characters after the number")
            }
        }
    }
}

impl Error for ValueError {}

/// What went wrong on a netlist line.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// A `.version` directive declared a dialect this parser does not speak.
    UnsupportedVersion {
        /// The declared version token.
        found: String,
    },
    /// A `.`-directive other than `.version`, `.nodes` or `.end`.
    UnknownDirective {
        /// The directive as written (without the dot).
        directive: String,
    },
    /// A directive had the wrong number of operands.
    DirectiveArity {
        /// The directive name.
        directive: &'static str,
        /// Expected form.
        usage: &'static str,
    },
    /// A card whose first letter selects no element kind.
    UnknownCard {
        /// The card name as written.
        card: String,
    },
    /// A card with the wrong number of tokens.
    CardArity {
        /// The card name as written.
        card: String,
        /// Expected form.
        usage: &'static str,
    },
    /// A numeric field failed to parse.
    BadValue {
        /// Which field (e.g. `resistance`, `offset`, `ron`).
        field: &'static str,
        /// The offending token.
        token: String,
        /// Why it failed.
        error: ValueError,
    },
    /// A MOS model name other than `NMOS`/`PMOS`.
    BadModel {
        /// The offending token.
        token: String,
    },
    /// An unknown `key=value` parameter on a MOS card.
    BadMosParameter {
        /// The offending token.
        token: String,
    },
    /// A switch phase other than `phi1`/`phi2`/`on`/`off`.
    BadSwitchPhase {
        /// The offending token.
        token: String,
    },
    /// The card parsed but the circuit rejected it (duplicate name,
    /// non-positive value, …).
    Circuit(AnalogError),
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnsupportedVersion { found } => write!(
                f,
                "unsupported netlist dialect version `{found}` (this parser speaks version {DIALECT_VERSION})"
            ),
            ParseErrorKind::UnknownDirective { directive } => write!(
                f,
                "unknown directive `.{directive}` (expected .version, .nodes or .end)"
            ),
            ParseErrorKind::DirectiveArity { directive, usage } => {
                write!(f, "malformed `{directive}` directive: expected {usage}")
            }
            ParseErrorKind::UnknownCard { card } => write!(
                f,
                "unknown card `{card}` (the first letter selects the element: R, C, V, I, M, S or A)"
            ),
            ParseErrorKind::CardArity { card, usage } => {
                write!(f, "malformed card `{card}`: expected {usage}")
            }
            ParseErrorKind::BadValue {
                field,
                token,
                error,
            } => write!(f, "bad {field} value `{token}`: {error}"),
            ParseErrorKind::BadModel { token } => {
                write!(f, "mos model `{token}` must be NMOS or PMOS")
            }
            ParseErrorKind::BadMosParameter { token } => write!(
                f,
                "unknown mos parameter `{token}` (only W=, L=, W_UM= and L_UM=)"
            ),
            ParseErrorKind::BadSwitchPhase { token } => {
                write!(f, "switch phase `{token}` must be phi1, phi2, on or off")
            }
            ParseErrorKind::Circuit(e) => write!(f, "{e}"),
        }
    }
}

/// A netlist parse failure, located at a 1-based line and column.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (character offset) of the offending token.
    pub column: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.column, self.kind
        )
    }
}

impl Error for ParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            ParseErrorKind::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for AnalogError {
    fn from(e: ParseError) -> Self {
        AnalogError::Parse {
            line: e.line,
            column: e.column,
            message: e.kind.to_string(),
        }
    }
}

/// Parses an engineering-notation value: `4.7k`, `10u`, `1meg`, `0.5`, …
///
/// # Errors
///
/// Returns a typed [`ValueError`]: empty tokens, non-numbers, values that
/// overflow to infinity (`1e999`), and numbers followed by anything but a
/// single engineering suffix (`5kk`) are all rejected.
pub fn parse_value(token: &str) -> Result<f64, ValueError> {
    if token.is_empty() {
        return Err(ValueError::Empty);
    }
    let split = numeric_prefix_len(token);
    if split == 0 {
        return Err(ValueError::Malformed);
    }
    let (head, tail) = token.split_at(split);
    let base: f64 = head.parse().map_err(|_| ValueError::Malformed)?;
    let multiplier = match tail.to_ascii_lowercase().as_str() {
        "" => 1.0,
        "f" => 1e-15,
        "p" => 1e-12,
        "n" => 1e-9,
        "u" => 1e-6,
        "m" => 1e-3,
        "k" => 1e3,
        "meg" => 1e6,
        "g" => 1e9,
        "t" => 1e12,
        _ => return Err(ValueError::TrailingGarbage),
    };
    let value = base * multiplier;
    if !value.is_finite() {
        return Err(ValueError::NonFinite);
    }
    Ok(value)
}

/// Length in bytes of the leading float-syntax prefix of `token`. Only
/// ASCII bytes are ever consumed, so the result is always a char boundary.
fn numeric_prefix_len(token: &str) -> usize {
    let b = token.as_bytes();
    let mut i = 0;
    let mut seen_exp = false;
    while i < b.len() {
        let c = b[i];
        let ok = match c {
            b'0'..=b'9' => true,
            b'.' => !seen_exp,
            b'+' | b'-' => i == 0 || b[i - 1] == b'e' || b[i - 1] == b'E',
            b'e' | b'E' => !seen_exp && i > 0 && (b[i - 1].is_ascii_digit() || b[i - 1] == b'.'),
            _ => false,
        };
        if !ok {
            break;
        }
        if c == b'e' || c == b'E' {
            seen_exp = true;
        }
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Intermediate representation: validated cards before circuit construction.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CardKind {
    Resistor {
        a: String,
        b: String,
        ohms: f64,
    },
    Capacitor {
        a: String,
        b: String,
        farads: f64,
    },
    VoltageSource {
        pos: String,
        neg: String,
        wave: Waveform,
    },
    CurrentSource {
        from: String,
        to: String,
        wave: Waveform,
    },
    Mosfet {
        d: String,
        g: String,
        s: String,
        b: String,
        params: MosParams,
    },
    SwitchCard {
        a: String,
        b: String,
        device: Switch,
    },
    Ammeter {
        pos: String,
        neg: String,
    },
}

impl CardKind {
    /// Canonical sort rank; any fixed order works, this one groups kinds.
    fn rank(&self) -> u8 {
        match self {
            CardKind::Resistor { .. } => 0,
            CardKind::Capacitor { .. } => 1,
            CardKind::VoltageSource { .. } => 2,
            CardKind::Ammeter { .. } => 3,
            CardKind::CurrentSource { .. } => 4,
            CardKind::Mosfet { .. } => 5,
            CardKind::SwitchCard { .. } => 6,
        }
    }
}

#[derive(Debug, Clone)]
struct Card {
    name: String,
    line: usize,
    column: usize,
    kind: CardKind,
}

#[derive(Debug, Clone, Default)]
struct NetlistIr {
    /// Nodes pre-interned by `.nodes` directives, in order.
    pre_nodes: Vec<String>,
    cards: Vec<Card>,
}

/// Splits a line into `(1-based char column, token)` pairs.
fn tokenize(line: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start: Option<(usize, usize)> = None;
    let mut char_col = 0;
    let mut byte_end = 0;
    for (bi, ch) in line.char_indices() {
        char_col += 1;
        if ch.is_whitespace() {
            if let Some((c0, b0)) = start.take() {
                out.push((c0, &line[b0..bi]));
            }
        } else if start.is_none() {
            start = Some((char_col, bi));
        }
        byte_end = bi + ch.len_utf8();
    }
    if let Some((c0, b0)) = start {
        out.push((c0, &line[b0..byte_end]));
    }
    out
}

fn parse_ir(text: &str) -> Result<NetlistIr, ParseError> {
    let mut ir = NetlistIr::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        // Strip inline `;` comments, then tokenize.
        let stripped = raw.split(';').next().unwrap_or("");
        let toks = tokenize(stripped);
        let Some(&(first_col, first)) = toks.first() else {
            continue;
        };
        if first.starts_with('*') {
            continue;
        }
        if let Some(directive) = first.strip_prefix('.') {
            match directive.to_ascii_lowercase().as_str() {
                "end" => return Ok(ir),
                "version" => {
                    if toks.len() != 2 {
                        return Err(ParseError {
                            line: line_no,
                            column: first_col,
                            kind: ParseErrorKind::DirectiveArity {
                                directive: ".version",
                                usage: ".version N",
                            },
                        });
                    }
                    let (col, v) = toks[1];
                    if v != "1" {
                        return Err(ParseError {
                            line: line_no,
                            column: col,
                            kind: ParseErrorKind::UnsupportedVersion {
                                found: v.to_string(),
                            },
                        });
                    }
                }
                "nodes" => {
                    for &(_, t) in &toks[1..] {
                        ir.pre_nodes.push(t.to_string());
                    }
                }
                _ => {
                    return Err(ParseError {
                        line: line_no,
                        column: first_col,
                        kind: ParseErrorKind::UnknownDirective {
                            directive: directive.to_string(),
                        },
                    })
                }
            }
            continue;
        }
        ir.cards.push(parse_card_ir(line_no, &toks)?);
    }
    Ok(ir)
}

fn parse_card_ir(line: usize, toks: &[(usize, &str)]) -> Result<Card, ParseError> {
    let (name_col, name) = toks[0];
    let err = |column: usize, kind: ParseErrorKind| ParseError { line, column, kind };
    let arity = |usage: &'static str| {
        err(
            name_col,
            ParseErrorKind::CardArity {
                card: name.to_string(),
                usage,
            },
        )
    };
    let value = |field: &'static str, (col, tok): (usize, &str)| -> Result<f64, ParseError> {
        parse_value(tok).map_err(|e| {
            err(
                col,
                ParseErrorKind::BadValue {
                    field,
                    token: tok.to_string(),
                    error: e,
                },
            )
        })
    };
    // The tokenizer never yields empty tokens, so `name` has a first char.
    let kind_letter = name
        .chars()
        .next()
        .map(|c| c.to_ascii_uppercase())
        .unwrap_or('\0');
    let kind = match kind_letter {
        'R' => {
            let [_, a, b, v] = toks[..] else {
                return Err(arity("Rname a b value"));
            };
            CardKind::Resistor {
                a: a.1.to_string(),
                b: b.1.to_string(),
                ohms: value("resistance", v)?,
            }
        }
        'C' => {
            let [_, a, b, v] = toks[..] else {
                return Err(arity("Cname a b value"));
            };
            CardKind::Capacitor {
                a: a.1.to_string(),
                b: b.1.to_string(),
                farads: value("capacitance", v)?,
            }
        }
        'V' | 'I' => {
            if toks.len() < 4 {
                return Err(arity("name n1 n2 value|SIN offset amplitude frequency"));
            }
            let wave = if toks[3].1.eq_ignore_ascii_case("sin") {
                if toks.len() != 7 {
                    return Err(arity("name n1 n2 SIN offset amplitude frequency"));
                }
                Waveform::Sine {
                    offset: value("offset", toks[4])?,
                    amplitude: value("amplitude", toks[5])?,
                    frequency: value("frequency", toks[6])?,
                    phase: 0.0,
                }
            } else {
                if toks.len() != 4 {
                    return Err(arity("name n1 n2 value|SIN offset amplitude frequency"));
                }
                Waveform::Dc(value("source", toks[3])?)
            };
            let (n1, n2) = (toks[1].1.to_string(), toks[2].1.to_string());
            if kind_letter == 'V' {
                CardKind::VoltageSource {
                    pos: n1,
                    neg: n2,
                    wave,
                }
            } else {
                CardKind::CurrentSource {
                    from: n1,
                    to: n2,
                    wave,
                }
            }
        }
        'A' => {
            let [_, pos, neg] = toks[..] else {
                return Err(arity("Aname pos neg"));
            };
            CardKind::Ammeter {
                pos: pos.1.to_string(),
                neg: neg.1.to_string(),
            }
        }
        'M' => {
            if toks.len() < 6 {
                return Err(arity(
                    "Mname d g s b NMOS|PMOS [W=..] [L=..] [W_UM=..] [L_UM=..]",
                ));
            }
            let mut w_um = 10.0;
            let mut l_um = 2.0;
            for &(col, t) in &toks[6..] {
                let lower = t.to_ascii_lowercase();
                if let Some(v) = lower.strip_prefix("w_um=") {
                    w_um = value("W_UM=", (col + 5, v))?;
                } else if let Some(v) = lower.strip_prefix("l_um=") {
                    l_um = value("L_UM=", (col + 5, v))?;
                } else if let Some(v) = lower.strip_prefix("w=") {
                    w_um = value("W=", (col + 2, v))? * 1e6;
                } else if let Some(v) = lower.strip_prefix("l=") {
                    l_um = value("L=", (col + 2, v))? * 1e6;
                } else {
                    return Err(err(
                        col,
                        ParseErrorKind::BadMosParameter {
                            token: t.to_string(),
                        },
                    ));
                }
            }
            let params = match toks[5].1.to_ascii_uppercase().as_str() {
                "NMOS" => MosParams::nmos_08um(w_um, l_um),
                "PMOS" => MosParams::pmos_08um(w_um, l_um),
                _ => {
                    return Err(err(
                        toks[5].0,
                        ParseErrorKind::BadModel {
                            token: toks[5].1.to_string(),
                        },
                    ))
                }
            };
            CardKind::Mosfet {
                d: toks[1].1.to_string(),
                g: toks[2].1.to_string(),
                s: toks[3].1.to_string(),
                b: toks[4].1.to_string(),
                params,
            }
        }
        'S' => {
            if !(4..=6).contains(&toks.len()) {
                return Err(arity("Sname a b phi1|phi2|on|off [ron] [roff]"));
            }
            let phase = match toks[3].1.to_ascii_lowercase().as_str() {
                "phi1" => ClockPhase::Phi1,
                "phi2" => ClockPhase::Phi2,
                "on" => ClockPhase::AlwaysOn,
                "off" => ClockPhase::AlwaysOff,
                _ => {
                    return Err(err(
                        toks[3].0,
                        ParseErrorKind::BadSwitchPhase {
                            token: toks[3].1.to_string(),
                        },
                    ))
                }
            };
            let mut device = Switch::on_phase(phase);
            if let Some(&t) = toks.get(4) {
                device.ron = Ohms(value("ron", t)?);
            }
            if let Some(&t) = toks.get(5) {
                device.roff = Ohms(value("roff", t)?);
            }
            CardKind::SwitchCard {
                a: toks[1].1.to_string(),
                b: toks[2].1.to_string(),
                device,
            }
        }
        _ => {
            return Err(err(
                name_col,
                ParseErrorKind::UnknownCard {
                    card: name.to_string(),
                },
            ))
        }
    };
    Ok(Card {
        name: name.to_string(),
        line,
        column: name_col,
        kind,
    })
}

fn build(ir: &NetlistIr, order: &[usize]) -> Result<Circuit, ParseError> {
    let mut circuit = Circuit::new();
    for n in &ir.pre_nodes {
        circuit.node(n);
    }
    for &i in order {
        let card = &ir.cards[i];
        build_card(&mut circuit, card).map_err(|e| ParseError {
            line: card.line,
            column: card.column,
            kind: ParseErrorKind::Circuit(e),
        })?;
    }
    Ok(circuit)
}

fn build_card(c: &mut Circuit, card: &Card) -> Result<(), AnalogError> {
    let name = &card.name;
    match &card.kind {
        CardKind::Resistor { a, b, ohms } => {
            let (na, nb) = (c.node(a), c.node(b));
            c.resistor(name, na, nb, Ohms(*ohms))?;
        }
        CardKind::Capacitor { a, b, farads } => {
            let (na, nb) = (c.node(a), c.node(b));
            c.capacitor(name, na, nb, Farads(*farads))?;
        }
        CardKind::VoltageSource { pos, neg, wave } => {
            let (np, nn) = (c.node(pos), c.node(neg));
            c.voltage_source_wave(name, np, nn, wave.clone())?;
        }
        CardKind::CurrentSource { from, to, wave } => {
            let (nf, nt) = (c.node(from), c.node(to));
            c.current_source_wave(name, nf, nt, wave.clone())?;
        }
        CardKind::Ammeter { pos, neg } => {
            let (np, nn) = (c.node(pos), c.node(neg));
            c.ammeter(name, np, nn)?;
        }
        CardKind::Mosfet { d, g, s, b, params } => {
            let terminals = MosTerminals {
                drain: c.node(d),
                gate: c.node(g),
                source: c.node(s),
                bulk: c.node(b),
            };
            c.mosfet(name, terminals, *params)?;
        }
        CardKind::SwitchCard { a, b, device } => {
            let (na, nb) = (c.node(a), c.node(b));
            c.switch(name, na, nb, *device)?;
        }
    }
    Ok(())
}

/// Compares element names "naturally": case-insensitive, with runs of
/// digits compared numerically (`S2 < S10`), falling back to a
/// case-sensitive tiebreak for totality.
fn natural_cmp(a: &str, b: &str) -> Ordering {
    let (ab, bb) = (a.as_bytes(), b.as_bytes());
    let (mut i, mut j) = (0, 0);
    while i < ab.len() && j < bb.len() {
        if ab[i].is_ascii_digit() && bb[j].is_ascii_digit() {
            let si = i;
            while i < ab.len() && ab[i].is_ascii_digit() {
                i += 1;
            }
            let sj = j;
            while j < bb.len() && bb[j].is_ascii_digit() {
                j += 1;
            }
            let ra = a[si..i].trim_start_matches('0');
            let rb = b[sj..j].trim_start_matches('0');
            let ord = ra.len().cmp(&rb.len()).then_with(|| ra.cmp(rb));
            if ord != Ordering::Equal {
                return ord;
            }
        } else {
            let (ca, cb) = (ab[i].to_ascii_lowercase(), bb[j].to_ascii_lowercase());
            if ca != cb {
                return ca.cmp(&cb);
            }
            i += 1;
            j += 1;
        }
    }
    (ab.len() - i).cmp(&(bb.len() - j)).then_with(|| a.cmp(b))
}

/// Parses a netlist into a [`Circuit`], keeping cards in text order.
///
/// # Errors
///
/// Returns [`AnalogError::Parse`] (a folded [`ParseError`]) locating any
/// malformed line by line and column.
///
/// ```
/// use si_analog::parse::parse_netlist;
/// use si_analog::dc::DcSolver;
///
/// # fn main() -> Result<(), si_analog::AnalogError> {
/// let ckt = parse_netlist(
///     "V1 in 0 3.0\n\
///      R1 in mid 1k\n\
///      R2 mid 0 2k\n",
/// )?;
/// let op = DcSolver::new().solve(&ckt)?;
/// let mid = ckt.elements().len(); // circuit built; solve it
/// # let _ = mid;
/// # Ok(())
/// # }
/// ```
pub fn parse_netlist(text: &str) -> Result<Circuit, AnalogError> {
    Ok(parse_netlist_v1(text)?)
}

/// Parses a netlist, keeping cards in text order, with a typed error.
///
/// This is the strict dialect-v1 entry point: every failure is a
/// [`ParseError`] with the 1-based line and column of the offending token,
/// and no input can make it panic.
///
/// # Errors
///
/// Returns [`ParseError`] for any malformed input.
pub(crate) fn parse_netlist_v1(text: &str) -> Result<Circuit, ParseError> {
    let ir = parse_ir(text)?;
    let order: Vec<usize> = (0..ir.cards.len()).collect();
    build(&ir, &order)
}

/// Parses a netlist into its *canonical* circuit: cards are reordered into
/// a fixed canonical order (element kind, then natural name order) before
/// the circuit is built, and nodes are interned in canonical encounter
/// order (after any `.nodes` directive).
///
/// Two netlists that differ only in comments, whitespace, or card order
/// therefore produce **identical** `Circuit` objects — identical
/// [`Circuit::structure_fingerprint`]/[`Circuit::value_fingerprint`] pairs
/// and bit-identical solutions — which is what lets the service-layer
/// result cache coalesce equivalent user submissions without ever serving
/// a result the submitted circuit would not have produced itself.
///
/// # Errors
///
/// Returns [`ParseError`] for any malformed input.
pub fn parse_netlist_canonical(text: &str) -> Result<Circuit, ParseError> {
    let ir = parse_ir(text)?;
    let mut order: Vec<usize> = (0..ir.cards.len()).collect();
    order.sort_by(|&x, &y| {
        let (cx, cy) = (&ir.cards[x], &ir.cards[y]);
        cx.kind
            .rank()
            .cmp(&cy.kind.rank())
            .then_with(|| natural_cmp(&cx.name, &cy.name))
            .then_with(|| x.cmp(&y))
    });
    build(&ir, &order)
}

// ---------------------------------------------------------------------------
// Emission: Circuit -> dialect-v1 text, exact round trip.
// ---------------------------------------------------------------------------

/// The card letter an element kind is written with.
fn card_letter(kind: &ElementKind) -> char {
    match kind {
        ElementKind::Resistor { .. } => 'R',
        ElementKind::Capacitor { .. } => 'C',
        ElementKind::VoltageSource { .. } => 'V',
        ElementKind::CurrentSource { .. } => 'I',
        ElementKind::Mosfet { .. } => 'M',
        ElementKind::Switch { .. } => 'S',
    }
}

fn check_emittable(name: &str, what: &'static str) -> Result<(), AnalogError> {
    let ok = !name.is_empty()
        && !name.contains(char::is_whitespace)
        && !name.contains(';')
        && !name.starts_with('*')
        && !name.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(AnalogError::InvalidElement {
            element: name.to_string(),
            constraint: what,
        })
    }
}

fn wave_text(name: &str, wave: &Waveform) -> Result<String, AnalogError> {
    match wave {
        Waveform::Dc(v) => Ok(format!("{v}")),
        Waveform::Sine {
            offset,
            amplitude,
            frequency,
            phase,
        } if *phase == 0.0 => Ok(format!("SIN {offset} {amplitude} {frequency}")),
        _ => Err(AnalogError::InvalidElement {
            element: name.to_string(),
            constraint: "waveform not expressible in netlist dialect v1",
        }),
    }
}

/// Renders a circuit as dialect-v1 netlist text that parses back to a
/// circuit with identical structure/value fingerprints, identical node
/// ordering (via `.nodes`), and bit-identical solutions.
///
/// Element names that do not start with their card letter (e.g. a mosfet
/// named `TP`) are prefixed with it (`MTP`); names do not enter the
/// fingerprints or the MNA system, so round-trip identity is unaffected.
///
/// # Errors
///
/// Returns [`AnalogError::InvalidElement`] for circuits the dialect cannot
/// express: pulse/PWL/phase-shifted sine waveforms, MOS devices that are
/// not stock `nmos_08um`/`pmos_08um` models, names containing whitespace,
/// or renames that would collide with an existing element.
pub fn to_netlist(circuit: &Circuit) -> Result<String, AnalogError> {
    let mut out = String::new();
    out.push_str(".version 1\n");
    if circuit.node_count() > 1 {
        out.push_str(".nodes");
        for i in 1..circuit.node_count() {
            let n = circuit.node_name(NodeId(i));
            check_emittable(n, "node name not expressible in netlist dialect v1")?;
            out.push(' ');
            out.push_str(n);
        }
        out.push('\n');
    }
    for el in circuit.elements() {
        let letter = card_letter(el.kind());
        check_emittable(
            el.name(),
            "element name not expressible in netlist dialect v1",
        )?;
        let name = if el
            .name()
            .chars()
            .next()
            .is_some_and(|c| c.to_ascii_uppercase() == letter)
        {
            el.name().to_string()
        } else {
            let renamed = format!("{letter}{}", el.name());
            if circuit.element(&renamed).is_ok() {
                return Err(AnalogError::InvalidElement {
                    element: el.name().to_string(),
                    constraint: "renaming for netlist emission collides with an existing element",
                });
            }
            renamed
        };
        let nn = |id: &NodeId| circuit.node_name(*id);
        match el.kind() {
            ElementKind::Resistor { a, b, device } => {
                writeln!(out, "{name} {} {} {}", nn(a), nn(b), device.r.0)
            }
            ElementKind::Capacitor { a, b, device } => {
                writeln!(out, "{name} {} {} {}", nn(a), nn(b), device.c.0)
            }
            ElementKind::VoltageSource {
                pos, neg, waveform, ..
            } => {
                let w = wave_text(el.name(), waveform)?;
                writeln!(out, "{name} {} {} {w}", nn(pos), nn(neg))
            }
            ElementKind::CurrentSource { from, to, waveform } => {
                let w = wave_text(el.name(), waveform)?;
                writeln!(out, "{name} {} {} {w}", nn(from), nn(to))
            }
            ElementKind::Mosfet { terminals, params } => {
                let (model, stock) = match params.polarity {
                    MosPolarity::Nmos => ("NMOS", MosParams::nmos_08um(params.w_um, params.l_um)),
                    MosPolarity::Pmos => ("PMOS", MosParams::pmos_08um(params.w_um, params.l_um)),
                };
                if *params != stock {
                    return Err(AnalogError::InvalidElement {
                        element: el.name().to_string(),
                        constraint: "mos parameters are not a stock 0.8 µm model",
                    });
                }
                writeln!(
                    out,
                    "{name} {} {} {} {} {model} W_UM={} L_UM={}",
                    nn(&terminals.drain),
                    nn(&terminals.gate),
                    nn(&terminals.source),
                    nn(&terminals.bulk),
                    params.w_um,
                    params.l_um
                )
            }
            ElementKind::Switch { a, b, device } => {
                let phase = match device.phase {
                    ClockPhase::Phi1 => "phi1",
                    ClockPhase::Phi2 => "phi2",
                    ClockPhase::AlwaysOn => "on",
                    ClockPhase::AlwaysOff => "off",
                };
                writeln!(
                    out,
                    "{name} {} {} {phase} {} {}",
                    nn(a),
                    nn(b),
                    device.ron.0,
                    device.roff.0
                )
            }
        }
        .expect("writing to a String cannot fail");
    }
    out.push_str(".end\n");
    Ok(out)
}

#[cfg(test)]
/// Convenience: parse, then update a named DC current source — handy for
/// text-defined testbenches driven from sweeps.
///
/// # Errors
///
/// Returns [`AnalogError::UnknownDriveSource`] naming the requested source
/// if the netlist does not define it, [`AnalogError::InvalidElement`] if
/// the name refers to an element that is not a current source, and parse
/// errors otherwise.
pub(crate) fn parse_with_drive(
    text: &str,
    source: &str,
    value: crate::units::Amps,
) -> Result<Circuit, AnalogError> {
    let mut circuit = parse_netlist(text)?;
    match circuit.element(source) {
        Err(_) => {
            return Err(AnalogError::UnknownDriveSource {
                source: source.to_string(),
            })
        }
        Ok(el) => {
            if !matches!(el.kind(), ElementKind::CurrentSource { .. }) {
                return Err(AnalogError::InvalidElement {
                    element: source.to_string(),
                    constraint: "drive target is not a current source",
                });
            }
        }
    }
    crate::dc::set_current_source(&mut circuit, source, value)?;
    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::si_cell_chain;
    use crate::dc::DcSolver;
    use crate::units::Amps;

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("1k"), Ok(1e3));
        assert_eq!(parse_value("4.7u"), Ok(4.7e-6));
        assert_eq!(parse_value("1meg"), Ok(1e6));
        assert!((parse_value("2.2p").unwrap() - 2.2e-12).abs() < 1e-24);
        assert_eq!(parse_value("10"), Ok(10.0));
        assert_eq!(parse_value("1e-3"), Ok(1e-3));
        assert_eq!(parse_value("3m"), Ok(3e-3));
        assert_eq!(parse_value("1f"), Ok(1e-15));
        assert_eq!(parse_value("-4.7K"), Ok(-4.7e3));
        assert_eq!(parse_value("1MEG"), Ok(1e6));
    }

    #[test]
    fn value_errors_are_typed() {
        assert_eq!(parse_value(""), Err(ValueError::Empty));
        assert_eq!(parse_value("abc"), Err(ValueError::Malformed));
        assert_eq!(parse_value("nan"), Err(ValueError::Malformed));
        assert_eq!(parse_value("inf"), Err(ValueError::Malformed));
        assert_eq!(parse_value("-inf"), Err(ValueError::Malformed));
        assert_eq!(parse_value("1e999"), Err(ValueError::NonFinite));
        assert_eq!(parse_value("-1e999"), Err(ValueError::NonFinite));
        assert_eq!(parse_value("1e308k"), Err(ValueError::NonFinite));
        assert_eq!(parse_value("5kk"), Err(ValueError::TrailingGarbage));
        assert_eq!(parse_value("3xyz"), Err(ValueError::TrailingGarbage));
        assert_eq!(parse_value("1k5"), Err(ValueError::TrailingGarbage));
        assert_eq!(parse_value("1e"), Err(ValueError::Malformed));
        assert_eq!(parse_value("+"), Err(ValueError::Malformed));
        assert_eq!(parse_value("."), Err(ValueError::Malformed));
    }

    #[test]
    fn parses_and_solves_divider() {
        let ckt = parse_netlist(
            "* divider\n\
             V1 in 0 3.3\n\
             R1 in mid 1k\n\
             R2 mid 0 2k\n\
             .end\n\
             R_ignored x 0 garbage that would not parse\n",
        )
        .unwrap();
        assert_eq!(ckt.elements().len(), 3, ".end must stop parsing");
        let op = DcSolver::new().solve(&ckt).unwrap();
        let mut c2 = ckt.clone();
        let mid = c2.node("mid");
        assert!((op.voltage(mid).0 - 2.2).abs() < 1e-6);
    }

    #[test]
    fn parses_mosfet_with_geometry() {
        let ckt = parse_netlist(
            "I1 0 d 50u\n\
             M1 d d 0 0 NMOS W=20u L=2u\n",
        )
        .unwrap();
        let op = DcSolver::new().solve(&ckt).unwrap();
        let mut c2 = ckt.clone();
        let d = c2.node("d");
        // Diode-connected: VT + sqrt(2I/β) ≈ 0.8 + 0.316 ≈ 1.12 V.
        let expected = 0.8 + (2.0f64 * 50e-6 / (100e-6 * 10.0)).sqrt();
        assert!(
            (op.voltage(d).0 - expected).abs() < 0.05,
            "vgs {} vs {expected}",
            op.voltage(d).0
        );
    }

    #[test]
    fn mos_w_um_param_is_exact() {
        let ckt = parse_netlist("I1 0 d 50u\nM1 d d 0 0 NMOS W_UM=17.3 L_UM=2\n").unwrap();
        let ElementKind::Mosfet { params, .. } = ckt.element("M1").unwrap().kind() else {
            panic!("not a mosfet");
        };
        assert_eq!(params.w_um, 17.3);
        assert_eq!(params.l_um, 2.0);
    }

    #[test]
    fn parses_switches_and_sin_sources() {
        let ckt = parse_netlist(
            "V1 a 0 SIN 0 1 1k\n\
             S1 a b phi1 50 1e9\n\
             R1 b 0 1k\n\
             I1 0 b SIN 0 1u 2k\n",
        )
        .unwrap();
        assert_eq!(ckt.elements().len(), 4);
        assert_eq!(ckt.branch_count(), 1);
    }

    #[test]
    fn ammeter_card_is_a_zero_volt_source() {
        let ckt = parse_netlist("A1 a b\nR1 a 0 1k\nR2 b 0 1k\nI1 0 a 1m\n").unwrap();
        assert_eq!(ckt.branch_count(), 1);
        let ElementKind::VoltageSource { waveform, .. } = ckt.element("A1").unwrap().kind() else {
            panic!("ammeter should be a voltage source");
        };
        assert_eq!(*waveform, Waveform::Dc(0.0));
    }

    #[test]
    fn rejects_malformed_cards() {
        assert!(parse_netlist("R1 a b").is_err());
        assert!(parse_netlist("C1 a b xyz").is_err());
        assert!(parse_netlist("Q1 a b c").is_err());
        assert!(parse_netlist("M1 d g s b NFET").is_err());
        assert!(parse_netlist("M1 d g s b NMOS Q=3").is_err());
        assert!(parse_netlist("S1 a b phi9").is_err());
        assert!(parse_netlist("V1 a 0 SIN 1 2").is_err());
        assert!(parse_netlist("R1 a b 1k extra").is_err());
        assert!(parse_netlist("A1 a").is_err());
        // Error carries the line number.
        let err = parse_netlist("R1 a 0 1k\nR2 a 0 oops").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn typed_errors_carry_line_and_column() {
        let err = parse_netlist_v1("R1 a 0 1k\nR2 a 0 oops").unwrap_err();
        assert_eq!((err.line, err.column), (2, 8));
        assert!(matches!(
            err.kind,
            ParseErrorKind::BadValue {
                field: "resistance",
                error: ValueError::Malformed,
                ..
            }
        ));

        let err = parse_netlist_v1("R1 a 0 1e999").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::BadValue {
                error: ValueError::NonFinite,
                ..
            }
        ));

        let err = parse_netlist_v1("  Q1 a b c").unwrap_err();
        assert_eq!((err.line, err.column), (1, 3));
        assert!(matches!(err.kind, ParseErrorKind::UnknownCard { .. }));

        let err = parse_netlist_v1("R1 a 0 1k\nR1 a 0 2k").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(
            err.kind,
            ParseErrorKind::Circuit(AnalogError::DuplicateElement { .. })
        ));
    }

    #[test]
    fn version_directive_is_enforced() {
        assert!(parse_netlist(".version 1\nR1 a 0 1k\n").is_ok());
        let err = parse_netlist_v1(".version 2\nR1 a 0 1k\n").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::UnsupportedVersion { ref found } if found == "2"
        ));
        let err = parse_netlist_v1(".version\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DirectiveArity { .. }));
        let err = parse_netlist_v1(".subckt foo\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnknownDirective { .. }));
    }

    #[test]
    fn nodes_directive_pins_intern_order() {
        let ckt = parse_netlist(".nodes b a\nR1 a b 1k\n").unwrap();
        assert_eq!(ckt.node_name(NodeId(1)), "b");
        assert_eq!(ckt.node_name(NodeId(2)), "a");
    }

    #[test]
    fn inline_comments_are_stripped() {
        let ckt = parse_netlist("R1 a 0 1k ; load\n; whole-line comment\nR2 a 0 1k\n").unwrap();
        assert_eq!(ckt.elements().len(), 2);
    }

    #[test]
    fn ground_aliases_work_in_text() {
        let ckt = parse_netlist("V1 a gnd 1.0\nR1 a ground 1k\nR2 a 0 1k\n").unwrap();
        let op = DcSolver::new().solve(&ckt).unwrap();
        // Two 1k resistors to ground from 1 V → 2 mA through the source.
        let i = op.branch_current(0);
        assert!((i.0 + 2e-3).abs() < 1e-9, "i {}", i.0);
    }

    #[test]
    fn parse_with_drive_updates_source() {
        let ckt = parse_with_drive("I1 0 n 0\nR1 n 0 1k\n", "I1", Amps(1e-3)).unwrap();
        let op = DcSolver::new().solve(&ckt).unwrap();
        let mut c2 = ckt.clone();
        let n = c2.node("n");
        assert!((op.voltage(n).0 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn parse_with_drive_names_missing_source() {
        let err = parse_with_drive("I1 0 n 0\nR1 n 0 1k\n", "Imissing", Amps(1e-3)).unwrap_err();
        assert_eq!(
            err,
            AnalogError::UnknownDriveSource {
                source: "Imissing".into()
            }
        );
        // An element that exists but is not a current source is a distinct
        // failure naming the constraint.
        let err = parse_with_drive("I1 0 n 0\nR1 n 0 1k\n", "R1", Amps(1e-3)).unwrap_err();
        assert!(matches!(
            err,
            AnalogError::InvalidElement { ref element, .. } if element == "R1"
        ));
    }

    #[test]
    fn canonical_parse_is_order_and_comment_invariant() {
        let a = "V1 in 0 3.3\nR1 in mid 1k\nR2 mid 0 2k\nC1 mid 0 1p\n";
        let b = "* shuffled\nC1 mid 0 1p\n\nR2 mid 0 2k   ; load\nV1 in 0 3.3\nR1 in mid 1k\n";
        let ca = parse_netlist_canonical(a).unwrap();
        let cb = parse_netlist_canonical(b).unwrap();
        assert_eq!(ca.structure_fingerprint(), cb.structure_fingerprint());
        assert_eq!(ca.value_fingerprint(), cb.value_fingerprint());
        let sa = DcSolver::new().solve(&ca).unwrap();
        let sb = DcSolver::new().solve(&cb).unwrap();
        let mut ca2 = ca.clone();
        let mid = ca2.node("mid");
        assert_eq!(
            sa.voltage(mid).0.to_bits(),
            sb.voltage(mid).0.to_bits(),
            "canonical circuits must solve bit-identically"
        );
    }

    #[test]
    fn natural_order_sorts_numeric_runs() {
        assert_eq!(natural_cmp("S2", "S10"), Ordering::Less);
        assert_eq!(natural_cmp("S10", "S2"), Ordering::Greater);
        assert_eq!(natural_cmp("r1", "R2"), Ordering::Less);
        // Numerically equal runs fall back to the case-sensitive tiebreak.
        assert_eq!(natural_cmp("MN007", "MN7"), Ordering::Less);
        assert_eq!(natural_cmp("a", "a"), Ordering::Equal);
    }

    #[test]
    fn generator_round_trips_bit_identically() {
        let line = si_cell_chain(6).unwrap();
        let text = to_netlist(&line.circuit).unwrap();
        let reparsed = parse_netlist(&text).unwrap();
        assert_eq!(
            line.circuit.structure_fingerprint(),
            reparsed.structure_fingerprint()
        );
        assert_eq!(
            line.circuit.value_fingerprint(),
            reparsed.value_fingerprint()
        );
        let sa = DcSolver::new()
            .with_initial_guess(line.initial_guess.clone())
            .solve(&line.circuit)
            .unwrap();
        let sb = DcSolver::new()
            .with_initial_guess(line.initial_guess.clone())
            .solve(&reparsed)
            .unwrap();
        for &n in &line.stage_nodes {
            assert_eq!(sa.voltage(n).0.to_bits(), sb.voltage(n).0.to_bits());
        }
    }

    #[test]
    fn emission_renames_off_letter_elements() {
        let mut c = Circuit::new();
        let d = c.node("d");
        c.current_source("Idrv", Circuit::GROUND, d, Amps(10e-6))
            .unwrap();
        c.mosfet(
            "TP",
            MosTerminals {
                drain: d,
                gate: d,
                source: Circuit::GROUND,
                bulk: Circuit::GROUND,
            },
            MosParams::nmos_08um(20.0, 2.0),
        )
        .unwrap();
        let text = to_netlist(&c).unwrap();
        assert!(text.contains("MTP d d 0 0 NMOS"), "{text}");
        let reparsed = parse_netlist(&text).unwrap();
        assert_eq!(c.structure_fingerprint(), reparsed.structure_fingerprint());
        assert_eq!(c.value_fingerprint(), reparsed.value_fingerprint());
    }

    #[test]
    fn emission_rejects_inexpressible_waveforms() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor("R1", n, Circuit::GROUND, Ohms(1e3)).unwrap();
        c.voltage_source_wave(
            "V1",
            n,
            Circuit::GROUND,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency: 1e3,
                phase: 0.5,
            },
        )
        .unwrap();
        assert!(matches!(
            to_netlist(&c),
            Err(AnalogError::InvalidElement { .. })
        ));
    }

    #[test]
    fn parser_survives_nasty_inputs_without_panicking() {
        let nasty = [
            "",
            "\n\n\n",
            "\0\0\0",
            "R",
            ".",
            "..",
            ".version",
            ".version 999999999999999999999999",
            ".nodes",
            ".end",
            "R1 a 0 1e999",
            "R1 a 0 5kk",
            "M1 d g s b NMOS W=nan",
            "V1 a 0 SIN",
            "S1 a b phi1 1k 1g extra",
            "ρ1 α β 1k",
            "R1\u{a0}a 0 1k",
            "I1 0 n -1e-999",
            "* comment only",
            "; comment only",
            ".versión 1",
        ];
        for text in nasty {
            let _ = parse_netlist_v1(text);
            let _ = parse_netlist_canonical(text);
        }
    }
}
