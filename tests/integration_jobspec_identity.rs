//! Pinned job identity.
//!
//! A job's key is the address of its cached result on disk and in every
//! replica's memory, and its structure fingerprint is the router's shard
//! key. Both must stay the same across refactors, or a restarted service
//! would miss every entry it persisted and a mixed-version cluster would
//! shard the same job two ways. The other tests only compare keys with
//! each other; this table pins them, the wire bytes and the rejection
//! messages as literal constants, over every job kind plus the edge
//! cases (unbuildable lines, unparsable netlists, a netlist twin of a
//! generator line, `-0.0` and one-ULP neighbours).
//!
//! On a mismatch the test prints the whole table as computed, in the
//! same source form, so an intended change can be reviewed line by line.

use si_analog::cells::DelayLineDesign;
use si_analog::dc::set_current_source;
use si_analog::parse::to_netlist;
use si_analog::units::{Amps, Farads, Volts};
use si_service::json;
use si_service::JobSpec;

/// What a spec must map to, as literals.
#[derive(Debug, PartialEq)]
struct Pinned {
    key: u64,
    fingerprint: u64,
    /// `to_json().to_string_compact()`.
    wire: String,
    /// `validate()`: `"ok"` or the error's display form.
    validate: String,
    /// `from_json` of `wire`: `"ok"` or the error's display form.
    from_json: String,
    /// `admission_cost()` in debug form.
    cost: String,
}

fn pin(
    key: u64,
    fingerprint: u64,
    wire: &str,
    validate: &str,
    from_json: &str,
    cost: &str,
) -> Pinned {
    Pinned {
        key,
        fingerprint,
        wire: wire.to_string(),
        validate: validate.to_string(),
        from_json: from_json.to_string(),
        cost: cost.to_string(),
    }
}

fn outcome<T, E: std::fmt::Display>(r: Result<T, E>) -> String {
    match r {
        Ok(_) => "ok".to_string(),
        Err(e) => e.to_string(),
    }
}

fn measure(spec: &JobSpec) -> Pinned {
    let wire = spec.to_json().to_string_compact();
    let decoded = JobSpec::from_json(&json::parse(&wire).expect("emitted JSON parses"));
    Pinned {
        key: spec.job_key(),
        fingerprint: spec.structure_fingerprint(),
        validate: outcome(spec.validate()),
        from_json: outcome(decoded),
        cost: format!("{:?}", spec.admission_cost()),
        wire,
    }
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

fn dc(stages: usize, bias_ua: f64, input_ua: f64) -> JobSpec {
    JobSpec::DelayLineDc {
        stages,
        bias_ua,
        input_ua,
    }
}

fn netlist(text: &str) -> JobSpec {
    JobSpec::Netlist {
        netlist: text.to_string(),
    }
}

fn stream(dt_ns: f64, seg_len: usize) -> JobSpec {
    JobSpec::TranStream {
        stages: 3,
        bias_ua: 20.0,
        input_ua: 2.0,
        steps: 900,
        dt_ns,
        clock_hz: 2.0e6,
        chunk_steps: 128,
        seg_len,
    }
}

/// The netlist text of the generator's 2-stage line at 20 µA bias and
/// 2 µA input, as the service's own generator builds it.
fn twin_text() -> String {
    let mut line = DelayLineDesign {
        stages: 2,
        bias: Amps(20e-6),
        vov: Volts(0.25),
        hold_cap: Farads(0.5e-12),
    }
    .build()
    .unwrap();
    set_current_source(&mut line.circuit, &line.input_source, Amps(2e-6)).unwrap();
    to_netlist(&line.circuit).unwrap()
}

const DIVIDER: &str = "* two-resistor divider\nV1 in 0 3.3\nR1 in mid 1k\nR2 mid 0 2k\n.end\n";

fn specs() -> Vec<(&'static str, JobSpec)> {
    vec![
        ("dc", dc(4, 20.0, 2.0)),
        ("dc_input_ulp_up", dc(4, 20.0, next_up(2.0))),
        ("dc_bias_ulp_down", dc(4, next_down(20.0), 2.0)),
        ("dc_input_zero", dc(4, 20.0, 0.0)),
        ("dc_input_neg_zero", dc(4, 20.0, -0.0)),
        ("dc_two_stage", dc(2, 20.0, 2.0)),
        ("dc_zero_stages", dc(0, 20.0, 2.0)),
        ("dc_neg_zero_bias", dc(4, -0.0, 2.0)),
        (
            "tran",
            JobSpec::DelayLineTran {
                stages: 3,
                bias_ua: 20.0,
                input_ua: 1.0,
                steps: 8,
                dt_ns: 100.0,
                clock_hz: 1e6,
            },
        ),
        (
            "tran_zero_steps",
            JobSpec::DelayLineTran {
                stages: 3,
                bias_ua: 20.0,
                input_ua: 1.0,
                steps: 0,
                dt_ns: 100.0,
                clock_hz: 1e6,
            },
        ),
        (
            "ac",
            JobSpec::DelayLineAc {
                stages: 2,
                bias_ua: 20.0,
                input_ua: 0.0,
                f_lo_hz: 1e3,
                f_hi_hz: 1e8,
                points: 5,
            },
        ),
        (
            "ac_inverted_grid",
            JobSpec::DelayLineAc {
                stages: 2,
                bias_ua: 20.0,
                input_ua: 0.0,
                f_lo_hz: 1e8,
                f_hi_hz: 1e3,
                points: 5,
            },
        ),
        (
            "sndr",
            JobSpec::SndrSweep {
                full_scale_ua: 6.0,
                levels_db: vec![-40.0, -20.0, -6.0],
            },
        ),
        (
            "sndr_neg_zero_level",
            JobSpec::SndrSweep {
                full_scale_ua: 6.0,
                levels_db: vec![-40.0, -0.0],
            },
        ),
        (
            "sndr_one_level",
            JobSpec::SndrSweep {
                full_scale_ua: 6.0,
                levels_db: vec![-6.0],
            },
        ),
        (
            "batch",
            JobSpec::DelayLineDcBatch {
                stages: 4,
                bias_ua: 20.0,
                inputs_ua: vec![1.0, 2.0, 3.0],
            },
        ),
        (
            "batch_empty",
            JobSpec::DelayLineDcBatch {
                stages: 4,
                bias_ua: 20.0,
                inputs_ua: vec![],
            },
        ),
        (
            "batch_zero_stages",
            JobSpec::DelayLineDcBatch {
                stages: 0,
                bias_ua: 20.0,
                inputs_ua: vec![1.0],
            },
        ),
        ("netlist_divider", netlist(DIVIDER)),
        ("netlist_unparsable", netlist("R1 a 0 oops\n")),
        ("netlist_empty", netlist(".version 1\n.end\n")),
        ("netlist_twin", netlist(&twin_text())),
        ("stream", stream(50.0, 256)),
        ("stream_dt_ulp_up", stream(next_up(50.0), 256)),
        ("stream_seg_len_not_pow2", stream(50.0, 255)),
    ]
}

fn pinned() -> Vec<Pinned> {
    vec![
        // dc
        pin(
            0xb1ea04c67682f4b9,
            0x10cfd7fbea2a1815,
            "{\"kind\":\"delay_line_dc\",\"stages\":4,\"bias_ua\":20,\"input_ua\":2}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // dc_input_ulp_up
        pin(
            0x20eb2aafbaca63fe,
            0x10cfd7fbea2a1815,
            "{\"kind\":\"delay_line_dc\",\"stages\":4,\"bias_ua\":20,\"input_ua\":2.0000000000000004}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // dc_bias_ulp_down
        pin(
            0x4943ad8e722abf5d,
            0x10cfd7fbea2a1815,
            "{\"kind\":\"delay_line_dc\",\"stages\":4,\"bias_ua\":19.999999999999996,\"input_ua\":2}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // dc_input_zero
        pin(
            0x8ba8d2eb815c8388,
            0x10cfd7fbea2a1815,
            "{\"kind\":\"delay_line_dc\",\"stages\":4,\"bias_ua\":20,\"input_ua\":0}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // dc_input_neg_zero
        pin(
            0x43f0a8414e52536e,
            0x10cfd7fbea2a1815,
            "{\"kind\":\"delay_line_dc\",\"stages\":4,\"bias_ua\":20,\"input_ua\":0}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // dc_two_stage
        pin(
            0x4ae41037c7b84e42,
            0xb9b49a53fef636c4,
            "{\"kind\":\"delay_line_dc\",\"stages\":2,\"bias_ua\":20,\"input_ua\":2}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // dc_zero_stages
        pin(
            0x1e2021916317b1b0,
            0x392209f14dea4c24,
            "{\"kind\":\"delay_line_dc\",\"stages\":0,\"bias_ua\":20,\"input_ua\":2}",
            "invalid job spec: stages must be in 1..=4096",
            "invalid job spec: stages must be in 1..=4096",
            "Ok(None)",
        ),
        // dc_neg_zero_bias
        pin(
            0xb75fc9d867719560,
            0xbd36edcd222d23a0,
            "{\"kind\":\"delay_line_dc\",\"stages\":4,\"bias_ua\":0,\"input_ua\":2}",
            "invalid job spec: bias_ua must be positive",
            "invalid job spec: bias_ua must be positive",
            "Ok(None)",
        ),
        // tran
        pin(
            0x203763e80687d278,
            0xd1ffebc85caaa296,
            "{\"kind\":\"delay_line_tran\",\"stages\":3,\"bias_ua\":20,\"input_ua\":1,\"steps\":8,\"dt_ns\":100,\"clock_hz\":1000000}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // tran_zero_steps
        pin(
            0x25dfbad32d3bbed0,
            0xd1ffebc85caaa296,
            "{\"kind\":\"delay_line_tran\",\"stages\":3,\"bias_ua\":20,\"input_ua\":1,\"steps\":0,\"dt_ns\":100,\"clock_hz\":1000000}",
            "invalid job spec: steps must be in 1..=100000",
            "invalid job spec: steps must be in 1..=100000",
            "Ok(None)",
        ),
        // ac
        pin(
            0x55e2e0ba2cb1b797,
            0xb9b49a53fef636c4,
            "{\"kind\":\"delay_line_ac\",\"stages\":2,\"bias_ua\":20,\"input_ua\":0,\"f_lo_hz\":1000,\"f_hi_hz\":100000000,\"points\":5}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // ac_inverted_grid
        pin(
            0xf59b8422f1fb9e1b,
            0xb9b49a53fef636c4,
            "{\"kind\":\"delay_line_ac\",\"stages\":2,\"bias_ua\":20,\"input_ua\":0,\"f_lo_hz\":100000000,\"f_hi_hz\":1000,\"points\":5}",
            "invalid job spec: need 0 < f_lo_hz < f_hi_hz",
            "invalid job spec: need 0 < f_lo_hz < f_hi_hz",
            "Ok(None)",
        ),
        // sndr
        pin(
            0x64919158c1c6cd62,
            0x2cdcdc0dfc5d1141,
            "{\"kind\":\"sndr_sweep\",\"full_scale_ua\":6,\"levels_db\":[-40,-20,-6]}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // sndr_neg_zero_level
        pin(
            0x30bf2085e5095e8f,
            0x2cdcdc0dfc5d1141,
            "{\"kind\":\"sndr_sweep\",\"full_scale_ua\":6,\"levels_db\":[-40,0]}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // sndr_one_level
        pin(
            0x72846de3a7396950,
            0x2cdcdc0dfc5d1141,
            "{\"kind\":\"sndr_sweep\",\"full_scale_ua\":6,\"levels_db\":[-6]}",
            "invalid job spec: levels_db needs 2..=256 entries",
            "invalid job spec: levels_db needs 2..=256 entries",
            "Ok(None)",
        ),
        // batch
        pin(
            0x3900850670bac2ee,
            0x10cfd7fbea2a1815,
            "{\"kind\":\"delay_line_dc_batch\",\"stages\":4,\"bias_ua\":20,\"inputs_ua\":[1,2,3]}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // batch_empty
        pin(
            0x2f260cdfbf07fd14,
            0x10cfd7fbea2a1815,
            "{\"kind\":\"delay_line_dc_batch\",\"stages\":4,\"bias_ua\":20,\"inputs_ua\":[]}",
            "invalid job spec: inputs_ua needs 1..=1024 entries",
            "invalid job spec: inputs_ua needs 1..=1024 entries",
            "Ok(None)",
        ),
        // batch_zero_stages
        pin(
            0xfff4813a2643e828,
            0xfd29b2d10195eb20,
            "{\"kind\":\"delay_line_dc_batch\",\"stages\":0,\"bias_ua\":20,\"inputs_ua\":[1]}",
            "invalid job spec: stages must be in 1..=4096",
            "invalid job spec: stages must be in 1..=4096",
            "Ok(None)",
        ),
        // netlist_divider
        pin(
            0x99c3f04450f8aa7d,
            0x7749357c1d73f0de,
            "{\"kind\":\"netlist\",\"netlist\":\"* two-resistor divider\\nV1 in 0 3.3\\nR1 in mid 1k\\nR2 mid 0 2k\\n.end\\n\"}",
            "ok",
            "ok",
            "Ok(Some(CircuitCost { nodes: 3, devices: 3, mna_dim: 3, nonzeros: 6 }))",
        ),
        // netlist_unparsable
        pin(
            0xea3915c0ce703c4a,
            0xea3915c0ce703c4a,
            "{\"kind\":\"netlist\",\"netlist\":\"R1 a 0 oops\\n\"}",
            "netlist rejected: line 1, column 8: bad resistance value `oops`: not a number",
            "ok",
            "Err(NetlistRejected(\"line 1, column 8: bad resistance value `oops`: not a number\"))",
        ),
        // netlist_empty
        pin(
            0x4a3d5d5b9ffe910c,
            0xb74abd92ea7732af,
            "{\"kind\":\"netlist\",\"netlist\":\".version 1\\n.end\\n\"}",
            "netlist rejected: netlist defines no elements",
            "ok",
            "Ok(Some(CircuitCost { nodes: 1, devices: 0, mna_dim: 0, nonzeros: 0 }))",
        ),
        // netlist_twin
        pin(
            0x31ae1eb6c2e99232,
            0xb9b49a53fef636c4,
            "{\"kind\":\"netlist\",\"netlist\":\".version 1\\n.nodes n0 n1\\nMN0 n0 n0 0 0 NMOS W_UM=6.4 L_UM=2\\nC0 n0 0 0.0000000000005\\nIb0 0 n0 0.00002\\nMN1 n1 n1 0 0 NMOS W_UM=6.4 L_UM=2\\nC1 n1 0 0.0000000000005\\nIb1 0 n1 0.00002\\nS1 n0 n1 phi2 100 1000000000\\nIin 0 n0 0.000002\\n.end\\n\"}",
            "ok",
            "ok",
            "Ok(Some(CircuitCost { nodes: 3, devices: 8, mna_dim: 2, nonzeros: 4 }))",
        ),
        // stream
        pin(
            0x663c02c86013cf84,
            0xd1ffebc85caaa296,
            "{\"kind\":\"tran_stream\",\"stages\":3,\"bias_ua\":20,\"input_ua\":2,\"steps\":900,\"dt_ns\":50,\"clock_hz\":2000000,\"chunk_steps\":128,\"seg_len\":256}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // stream_dt_ulp_up
        pin(
            0xfd9fc0f180594e5d,
            0xd1ffebc85caaa296,
            "{\"kind\":\"tran_stream\",\"stages\":3,\"bias_ua\":20,\"input_ua\":2,\"steps\":900,\"dt_ns\":50.00000000000001,\"clock_hz\":2000000,\"chunk_steps\":128,\"seg_len\":256}",
            "ok",
            "ok",
            "Ok(None)",
        ),
        // stream_seg_len_not_pow2
        pin(
            0x4a89455bbcd6ec80,
            0xd1ffebc85caaa296,
            "{\"kind\":\"tran_stream\",\"stages\":3,\"bias_ua\":20,\"input_ua\":2,\"steps\":900,\"dt_ns\":50,\"clock_hz\":2000000,\"chunk_steps\":128,\"seg_len\":255}",
            "invalid job spec: seg_len must be a power of two in 2..=65536",
            "invalid job spec: seg_len must be a power of two in 2..=65536",
            "Ok(None)",
        ),
    ]
}

/// Wire documents that never become a spec, with the `from_json` error.
const WIRE_ERRORS: &[(&str, &str)] = &[
    (r#"{"stages":4}"#, r#"invalid job spec: missing "kind""#),
    (
        r#"{"kind":"nope"}"#,
        r#"invalid job spec: unknown kind "nope""#,
    ),
    (
        r#"{"kind":"delay_line_dc","stages":4.5,"bias_ua":20,"input_ua":2}"#,
        r#"invalid job spec: "stages" must be a non-negative integer"#,
    ),
    (
        r#"{"kind":"delay_line_dc","stages":4,"bias_ua":20}"#,
        r#"invalid job spec: missing numeric "input_ua""#,
    ),
    (
        r#"{"kind":"sndr_sweep","full_scale_ua":6,"levels_db":[1,"x"]}"#,
        "invalid job spec: levels_db entries must be numbers",
    ),
    (
        r#"{"kind":"delay_line_dc_batch","stages":4,"bias_ua":20}"#,
        r#"invalid job spec: missing array "inputs_ua""#,
    ),
    (
        r#"{"kind":"netlist","netlist":7}"#,
        r#"invalid job spec: missing string "netlist""#,
    ),
    (
        r#"{"kind":"tran_stream","stages":3,"bias_ua":20,"input_ua":2,"steps":900,"dt_ns":50,"clock_hz":2000000,"chunk_steps":1000,"seg_len":256}"#,
        "invalid job spec: chunk_steps must be in 1..=steps",
    ),
];

#[test]
fn job_identity_matches_pinned_constants() {
    let specs = specs();
    let actual: Vec<Pinned> = specs.iter().map(|(_, s)| measure(s)).collect();
    if actual != pinned() {
        let mut src = String::new();
        for ((name, _), p) in specs.iter().zip(&actual) {
            src.push_str(&format!(
                "        // {name}\n        pin(\n            {:#018x},\n            {:#018x},\n            {:?},\n            {:?},\n            {:?},\n            {:?},\n        ),\n",
                p.key, p.fingerprint, p.wire, p.validate, p.from_json, p.cost
            ));
        }
        panic!("job identity drifted; computed table:\n{src}");
    }
}

#[test]
fn wire_errors_match_pinned_messages() {
    for (body, error) in WIRE_ERRORS {
        let decoded = JobSpec::from_json(&json::parse(body).unwrap());
        assert_eq!(outcome(decoded), *error, "{body}");
    }
}

#[test]
fn netlist_twin_shards_with_its_generator_line() {
    let generator = dc(2, 20.0, 2.0);
    let twin = netlist(&twin_text());
    assert_eq!(
        generator.structure_fingerprint(),
        twin.structure_fingerprint()
    );
    assert_ne!(generator.job_key(), twin.job_key());
}
