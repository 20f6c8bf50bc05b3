//! Deterministic, seeded netlist fuzzing for the dialect-v1 parser and
//! the service's netlist admission path.
//!
//! Three generators, all pure functions of a seed so every failure is
//! replayable from its case number alone:
//!
//! * `generate_valid` — grammar-aware: emits a random circuit that is
//!   guaranteed to tokenize, parse, and *build* (unique names, positive
//!   values, known models). Solvability is deliberately not guaranteed —
//!   floating subcircuits and source loops are part of the point.
//! * `mutate` — takes valid text and applies 1–3 grammar-aware
//!   mutations: token corruption, arity damage, duplicate names, bogus
//!   directives, truncation, line shuffling, comment noise. Some
//!   mutations preserve validity on purpose, so the corpus straddles the
//!   accept/reject boundary instead of living far on one side.
//! * `raw_bytes` — structureless character soup (including control
//!   characters and non-ASCII) for the no-assumptions floor.
//!
//! [`NASTY_CORPUS`] is the fixed regression corpus: every input that has
//! ever been interesting, checked in as code so CI replays it forever.
//! [`poison`] derives a *guaranteed-invalid* netlist from any seed — the
//! malformed-submission fault class the `si_chaos` harness injects.

/// `splitmix64`: tiny, seedable, and identical on every platform. Local
/// copy (the service crate keeps its own private) so fuzz schedules never
/// change out from under a recorded seed.
#[derive(Debug, Clone)]
pub(crate) struct Splitmix64 {
    state: u64,
}

impl Splitmix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Splitmix64 { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (n = 0 returns 0).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Picks one element of a non-empty slice.
    pub(crate) fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// Engineering-notation values that always parse and are positive.
const GOOD_VALUES: &[&str] = &[
    "1", "3.3", "0.5", "100", "1k", "2.2k", "47k", "1meg", "10u", "20u", "0.5p", "2p", "100n",
    "1e3", "1.5e-6",
];

/// Tokens that must make `parse_value` (or a card parser) reject.
const BAD_TOKENS: &[&str] = &[
    "oops", "1e999", "-1e999", "nan", "inf", "-inf", "5kk", "1..2", "1e", "e3", "++1", "1k9",
    "0x10", "", "NaN",
];

/// The fixed regression corpus: inputs that malformed-netlist handling
/// must survive (typed rejection, no panic) forever.
pub const NASTY_CORPUS: &[&str] = &[
    "",
    "\n\n\n",
    "* only a comment\n",
    ".end\n",
    ".version 1\n.end\n",
    ".version 2\nR1 a 0 1k\n.end\n",
    ".version one\n",
    ".version\n",
    ".nodes\n",
    ".nodes a a a\n",
    ".unknown 1 2 3\n",
    "R1 a 0 oops\n",
    "R1 a 0 1e999\n",
    "R1 a 0 5kk\n",
    "R1 a 0 nan\n",
    "R1 a 0 -1k\n",
    "R1 a 0\n",
    "R1 a 0 1k extra\n",
    "R1 a a 1k\n",
    "Q1 a b c\n",
    "V1 in 0 SIN 0\n",
    "V1 in 0 SIN 0 1 abc\n",
    "I1 a 0 SIN 0 1 1k 99\n",
    "M1 d g s b\n",
    "M1 d g s b QMOS W=2 L=2\n",
    "M1 d g s b NMOS W=0 L=2\n",
    "M1 d g s b NMOS W=2 L=2 VTO=9\n",
    "S1 a b maybe\n",
    "S1 a b phi1 -5 1meg\n",
    "R1 a 0 1k\nR1 b 0 2k\n",
    "R1 a 0 1k ; comment\nR1 a 0 1k\n",
    "\u{0} \u{1} \u{2}\n",
    "R\u{7f} a 0 1k\n",
    "😀1 a 0 1k\n",
    "R1 😀 0 1k\n",
    ".nodes .hidden\n",
    ".nodes a;b\n",
    "V1 in 0 3.3\nV2 in 0 3.3\n",
    "A1 out\n",
    "C1 x 0 1e308\nC2 x 0 1e308\n",
];

/// A random netlist guaranteed to tokenize, parse, and build: names are
/// unique, values positive, nodes drawn from a small pool that always
/// includes ground. No `.end` terminator, so callers can append more
/// cards (see [`poison`]).
#[must_use]
pub(crate) fn generate_valid(seed: u64) -> String {
    let mut rng = Splitmix64::new(seed);
    let nodes = ["0", "n1", "n2", "n3", "vdd", "out"];
    let mut text = String::new();
    if rng.below(4) == 0 {
        text.push_str(".version 1\n");
    }
    if rng.below(4) == 0 {
        text.push_str("* seeded fuzz circuit\n");
    }
    // An anchor source so the circuit is never trivially empty.
    text.push_str("V1 vdd 0 ");
    text.push_str(rng.pick(GOOD_VALUES));
    text.push('\n');
    let cards = 1 + rng.below(7);
    for k in 0..cards {
        let a = rng.pick(&nodes);
        let b = rng.pick(&nodes);
        let v = rng.pick(GOOD_VALUES);
        match rng.below(6) {
            0 => text.push_str(&format!("R{k} {a} {b} {v}\n")),
            1 => text.push_str(&format!("C{k} {a} {b} {v}\n")),
            2 => text.push_str(&format!("I{k} {a} {b} {v}\n")),
            3 => {
                let model = if rng.below(2) == 0 { "NMOS" } else { "PMOS" };
                let w = 1 + rng.below(40);
                text.push_str(&format!("M{k} {a} vdd {b} 0 {model} W_UM={w} L_UM=2\n"));
            }
            4 => {
                let phase = rng.pick(&["phi1", "phi2", "on", "off"]);
                text.push_str(&format!("S{k} {a} {b} {phase}\n"));
            }
            _ => text.push_str(&format!("V{} {a} {b} {v}\n", k + 2)),
        }
    }
    text
}

/// Applies 1–3 seeded mutations to netlist text. Mutations range from
/// validity-preserving (line shuffles, comment noise) to guaranteed
/// damage (bad values, arity, duplicate names), so mutants probe both
/// sides of the accept boundary.
#[must_use]
pub(crate) fn mutate(text: &str, seed: u64) -> String {
    let mut rng = Splitmix64::new(seed);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let rounds = 1 + rng.below(3);
    for _ in 0..rounds {
        if lines.is_empty() {
            lines.push("R1 a 0 1k".to_string());
        }
        let i = rng.below(lines.len());
        match rng.below(10) {
            // Corrupt one token of a card.
            0 => {
                let bad = rng.pick(BAD_TOKENS).to_string();
                let mut toks: Vec<String> =
                    lines[i].split_whitespace().map(str::to_string).collect();
                if toks.is_empty() {
                    toks.push(bad);
                } else {
                    let t = rng.below(toks.len());
                    toks[t] = bad;
                }
                lines[i] = toks.join(" ");
            }
            // Drop a token (arity damage).
            1 => {
                let mut toks: Vec<&str> = lines[i].split_whitespace().collect();
                if !toks.is_empty() {
                    let t = rng.below(toks.len());
                    toks.remove(t);
                }
                lines[i] = toks.join(" ");
            }
            // Append a stray token (arity damage the other way).
            2 => {
                lines[i].push(' ');
                lines[i].push_str(rng.pick(BAD_TOKENS));
            }
            // Duplicate a line verbatim (duplicate element names).
            3 => {
                let dup = lines[i].clone();
                lines.insert(i, dup);
            }
            // Replace the card letter with an unknown one.
            4 => {
                if let Some(first) = lines[i].chars().next() {
                    lines[i] = format!("Q{}", &lines[i][first.len_utf8()..]);
                }
            }
            // Inject a directive, bogus or hostile.
            5 => {
                let d = rng.pick(&[
                    ".version 99",
                    ".version",
                    ".nodes",
                    ".nodes a a",
                    ".weird 1 2",
                    ".end",
                ]);
                lines.insert(i, d.to_string());
            }
            // Truncate the whole text mid-line.
            6 => {
                let joined = lines.join("\n");
                let cut = rng.below(joined.len().max(1));
                let mut end = cut.min(joined.len());
                while end > 0 && !joined.is_char_boundary(end) {
                    end -= 1;
                }
                return joined[..end].to_string();
            }
            // Shuffle: swap two lines (often validity-preserving — the
            // canonical parse must not care).
            7 => {
                let j = rng.below(lines.len());
                lines.swap(i, j);
            }
            // Comment/whitespace noise (validity-preserving).
            8 => {
                lines.insert(i, "* mutation noise".to_string());
                let j = rng.below(lines.len());
                lines[j].push_str("   ; trailing comment");
            }
            // Splice random bytes into a line.
            _ => {
                let garbage: String = (0..rng.below(6))
                    .map(|_| char::from(32 + (rng.next_u64() % 95) as u8))
                    .collect();
                lines[i].push(' ');
                lines[i].push_str(&garbage);
            }
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Structureless character soup: printable ASCII, separators, control
/// characters, and the occasional non-ASCII code point.
#[must_use]
pub(crate) fn raw_bytes(seed: u64) -> String {
    let mut rng = Splitmix64::new(seed);
    let len = rng.below(220);
    let mut s = String::with_capacity(len);
    for _ in 0..len {
        let c = match rng.below(10) {
            0 => char::from((rng.next_u64() % 32) as u8), // control chars
            1 => rng.pick(&['é', 'Ω', '😀', '\u{2028}', '\u{feff}']),
            2 => rng.pick(&['\n', '\t', ' ', ';', '*', '.']),
            _ => char::from(32 + (rng.next_u64() % 95) as u8),
        };
        s.push(c);
    }
    s
}

/// A netlist that is *guaranteed* to fail the strict parse: a valid body
/// with one card whose value token every parser build must reject. The
/// `si_chaos` harness injects these as its malformed-submission fault
/// class and requires a typed rejection for every one.
#[must_use]
pub fn poison(seed: u64) -> String {
    let mut rng = Splitmix64::new(seed);
    let mut text = generate_valid(seed);
    let bad = rng.pick(&[
        "Rpoison x 0 1e999",
        "Rpoison x 0 oops",
        "Rpoison x 0 5kk",
        "Cpoison x 0 nan",
        "Qpoison a b c",
        "Mpoison d g s b BMOS W_UM=2 L_UM=2",
        "Spoison a b never",
        ".version 99",
    ]);
    text.push_str(bad);
    text.push('\n');
    text
}

/// A parseable netlist far over any sane admission budget: a resistor
/// ladder with `rungs` rungs (`rungs + 1` named nodes plus ground).
/// Used to prove budget rejection happens before factorization.
#[must_use]
pub fn oversized(rungs: usize) -> String {
    let mut text = String::from("V1 n0 0 1\n");
    for k in 0..rungs {
        text.push_str(&format!("R{k} n{k} n{} 1k\n", k + 1));
    }
    text
}

/// One fuzz case for iteration `i` of a run seeded with `seed`: the fixed
/// nasty corpus first, then a deterministic mix of raw bytes (~10 %),
/// pristine valid circuits (~20 %), and mutants of valid circuits (the
/// rest).
#[must_use]
pub fn case(seed: u64, i: usize) -> String {
    if i < NASTY_CORPUS.len() {
        return NASTY_CORPUS[i].to_string();
    }
    let mut rng = Splitmix64::new(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let draw = rng.below(10);
    let sub = rng.next_u64();
    if draw == 0 {
        raw_bytes(sub)
    } else if draw <= 2 {
        generate_valid(sub)
    } else {
        mutate(&generate_valid(sub), sub ^ 0xa5a5_a5a5_a5a5_a5a5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_analog::parse::parse_netlist_canonical;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(generate_valid(7), generate_valid(7));
        assert_eq!(mutate("R1 a 0 1k\n", 9), mutate("R1 a 0 1k\n", 9));
        assert_eq!(raw_bytes(11), raw_bytes(11));
        assert_eq!(case(42, 1234), case(42, 1234));
        assert_ne!(generate_valid(7), generate_valid(8));
    }

    #[test]
    fn valid_generator_always_parses_and_builds() {
        for seed in 0..500 {
            let text = generate_valid(seed);
            parse_netlist_canonical(&text)
                .unwrap_or_else(|e| panic!("seed {seed} failed: {e}\n{text}"));
        }
    }

    #[test]
    fn poison_never_parses() {
        for seed in 0..500 {
            let text = poison(seed);
            assert!(
                parse_netlist_canonical(&text).is_err(),
                "seed {seed} parsed:\n{text}"
            );
        }
    }

    #[test]
    fn nasty_corpus_is_rejected_or_parsed_without_panic() {
        for (i, text) in NASTY_CORPUS.iter().enumerate() {
            // Typed outcome either way; the assertion is "no panic".
            let _ = std::panic::catch_unwind(|| parse_netlist_canonical(text))
                .unwrap_or_else(|_| panic!("nasty corpus entry {i} panicked: {text:?}"));
        }
    }

    #[test]
    fn mutants_never_panic_the_parser() {
        for seed in 0..2000 {
            let text = case(99, seed as usize + NASTY_CORPUS.len());
            let _ = std::panic::catch_unwind(|| parse_netlist_canonical(&text))
                .unwrap_or_else(|_| panic!("mutant seed {seed} panicked:\n{text}"));
        }
    }
}
