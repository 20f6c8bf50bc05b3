//! Seeded input generation. The program under test only ever sees the
//! specs built here; the same seed always yields the same specs.
//!
//! The traffic mix is a guess — no production traces exist. It rotates
//! over five job shapes taken from the repository's load gates
//! (`si_loadgen` and `si_chaos` as the CI workflow runs them).

use si_service::jobspec::JobSpec;

/// splitmix64: a tiny, well-mixed, seedable generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_f00d_be4c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One request: its spec and its wire body.
pub struct Op {
    pub spec: JobSpec,
    pub body: String,
}

impl Op {
    fn new(spec: JobSpec) -> Op {
        let body = spec.to_json().to_string_compact();
        Op { spec, body }
    }
}

/// The five kinds of the HTTP mixes, in rotation order.
pub const MIX_KINDS: usize = 5;

/// Source of distinct specs for one seed. Op `id`s never repeat within a
/// run, and every spec is a pure function of `(seed, id)`; the per-id
/// step in the input current keeps every key distinct.
pub struct Inputs {
    base: f64,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        Inputs {
            base: 0.25 + 0.5 * Rng::new(seed).unit(),
        }
    }

    /// The HTTP mixes: op `id` has kind `id % 5`. Each shape is one the
    /// repository's own load gates submit (see README.md, "Load shape").
    pub fn mix(&self, id: u64) -> Op {
        let input_ua = self.base + 1e-4 * id as f64;
        let spec = match id % MIX_KINDS as u64 {
            0 => JobSpec::DelayLineDc {
                stages: 24,
                bias_ua: 20.0,
                input_ua,
            },
            1 => JobSpec::DelayLineDcBatch {
                stages: 24,
                bias_ua: 20.0,
                inputs_ua: (0..32).map(|k| input_ua + 0.05 * k as f64).collect(),
            },
            2 => JobSpec::DelayLineTran {
                stages: 24,
                bias_ua: 20.0,
                input_ua,
                steps: 64,
                dt_ns: 50.0,
                clock_hz: 1e6,
            },
            3 => JobSpec::Netlist {
                netlist: ladder_netlist(32, 20.0 + input_ua),
            },
            _ => JobSpec::TranStream {
                stages: 3,
                bias_ua: 20.0,
                input_ua,
                // Four chunks of 1,024 steps.
                steps: 4096,
                dt_ns: 50.0,
                clock_hz: 2e6,
                chunk_steps: 1024,
                seg_len: 1024,
            },
        };
        Op::new(spec)
    }
}

/// A diode-connected NMOS ladder with `rungs` rungs in netlist dialect
/// v1; the first rung's current makes the text (and key) distinct.
fn ladder_netlist(rungs: usize, first_ua: f64) -> String {
    let mut text = String::from(".version 1\nV1 vdd 0 3.3\n");
    for s in 0..rungs {
        let ua = if s == 0 { first_ua } else { 20.0 };
        text.push_str(&format!("I{s} vdd d{s} {ua:.6}u\n"));
        text.push_str(&format!("M{s} d{s} d{s} 0 0 NMOS W_UM=10 L_UM=2\n"));
    }
    text
}
