//! End-to-end tests for the user-submitted netlist workload (ISSUE 7).
//!
//! Three real topologies from the low-voltage SI literature — a Widlar
//! mirror, a regenerative cross-coupled mirror, and a Gilbert-cell
//! switching quad — are submitted as dialect-v1 text over live HTTP and
//! their full wire responses pinned as golden snapshots. Around them:
//!
//! * a netlist-submitted circuit must solve **bit-identically** to its
//!   generator-built twin (the `to_netlist` emitter closing the loop),
//! * text-level permutations (comments, whitespace, card order) must
//!   coalesce onto one cache slot over the wire,
//! * an over-budget circuit must be refused `413` *before* factorization,
//!   asserted via the telemetry counters, with the byte cap firing even
//!   earlier — before the text is parsed at all.
//!
//! To regenerate the snapshots after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test -p si-service --test integration_netlist`

use std::path::PathBuf;
use std::sync::Arc;

use si_analog::dc::DcSolver;
use si_analog::netlist::Circuit;
use si_analog::parse::{parse_netlist_canonical, to_netlist};
use si_analog::units::{Amps, Ohms, Volts};
use si_service::http::{HttpClient, HttpServer};
use si_service::jobspec::JobSpec;
use si_service::json::{parse, Json};
use si_service::service::{normalize_timings, ServiceConfig, SiService};
use si_service::{AdmissionBudget, ServiceError};

/// Widlar current mirror: the output branch's source-degeneration
/// resistor makes the copied current a fraction of the reference.
const WIDLAR: &str = "\
* Widlar current mirror, 0.8 um NMOS
.version 1
V1 vdd 0 3.3
R1 vdd ref 150k ; reference branch
M1 ref ref 0 0 NMOS W_UM=20 L_UM=2
M2 out ref s2 0 NMOS W_UM=20 L_UM=2
R2 s2 0 10k ; source degeneration
V2 out 0 1.5 ; hold the output node
.end
";

/// Regenerative (cross-coupled) mirror: a positive-feedback latch. A
/// 1 uA seed breaks the symmetry so DC lands on a deterministic side.
const REGEN: &str = "\
* regenerative cross-coupled NMOS pair
.version 1
V1 vdd 0 3.3
R1 vdd a 100k
R2 vdd b 100k
M1 a b 0 0 NMOS W_UM=10 L_UM=2
M2 b a 0 0 NMOS W_UM=10 L_UM=2
I1 vdd a 1u ; seed asymmetry
.end
";

/// Gilbert-cell switching quad: two tail currents commutated into a
/// shared resistive load pair by a cross-connected NMOS quad.
const GILBERT: &str = "\
* Gilbert-cell switching quad
.version 1
V1 vdd 0 3.3
R1 vdd outp 50k
R2 vdd outn 50k
Vp lop 0 2.0
Vn lon 0 1.6
I1 t1 0 20u
M1 outp lop t1 0 NMOS W_UM=20 L_UM=2
M2 outn lon t1 0 NMOS W_UM=20 L_UM=2
I2 t2 0 20u
M3 outp lon t2 0 NMOS W_UM=20 L_UM=2
M4 outn lop t2 0 NMOS W_UM=20 L_UM=2
.end
";

const GOLDEN_WIDLAR: &str = include_str!("golden/netlist_widlar.json");
const GOLDEN_REGEN: &str = include_str!("golden/netlist_regen.json");
const GOLDEN_GILBERT: &str = include_str!("golden/netlist_gilbert.json");

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}"))
}

fn check_or_update(name: &str, golden: &str, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(name), actual).expect("rewrite golden snapshot");
        return;
    }
    let expected = golden.replace("\r\n", "\n");
    assert_eq!(
        actual, expected,
        "wire format drifted from tests/golden/{name}; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn normalized_compact(payload: &str) -> String {
    let v = parse(payload).expect("wire payload parses as JSON");
    let mut s = normalize_timings(&v).to_string_compact();
    s.push('\n');
    s
}

fn netlist_body(text: &str) -> String {
    JobSpec::Netlist {
        netlist: text.to_string(),
    }
    .to_json()
    .to_string_compact()
}

fn service_counter(addr: std::net::SocketAddr, section: &str, key: &str) -> f64 {
    let (status, payload) = HttpClient::new(addr)
        .request_text("GET", "/metrics", None)
        .unwrap();
    assert_eq!(status, 200);
    parse(&payload)
        .ok()
        .and_then(|v| {
            v.get(section)
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
        })
        .unwrap_or(0.0)
}

#[test]
fn user_topologies_match_golden_snapshots() {
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let mut server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
    let addr = server.local_addr();

    for (name, golden, text) in [
        ("netlist_widlar.json", GOLDEN_WIDLAR, WIDLAR),
        ("netlist_regen.json", GOLDEN_REGEN, REGEN),
        ("netlist_gilbert.json", GOLDEN_GILBERT, GILBERT),
    ] {
        let body = netlist_body(text);
        let (status, payload) = HttpClient::new(addr)
            .request_text("POST", "/v1/jobs", Some(&body))
            .unwrap();
        assert_eq!(status, 200, "{name}: {payload}");
        check_or_update(name, golden, &normalized_compact(&payload));

        // Resubmission must serve the same bytes from cache.
        let (status, repeat) = HttpClient::new(addr)
            .request_text("POST", "/v1/jobs", Some(&body))
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            repeat.replace("\"cached\":true", "\"cached\":false"),
            payload,
            "{name}: cache served different bytes than the original solve"
        );
    }
    server.shutdown();
}

#[test]
fn golden_snapshots_carry_physical_results_not_hollow_shells() {
    for (name, golden, nodes) in [
        ("widlar", GOLDEN_WIDLAR, 5usize),
        ("regen", GOLDEN_REGEN, 4),
        ("gilbert", GOLDEN_GILBERT, 8),
    ] {
        let v = parse(golden.trim()).unwrap_or_else(|e| panic!("{name} snapshot parses: {e}"));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("netlist"));
        let id = v.get("id").and_then(Json::as_str).expect("id present");
        assert_eq!(id.len(), 16, "{name}: id is the 16-hex-digit job key");
        let metrics = v.get("metrics").expect("metrics present");
        assert_eq!(
            metrics.get("nodes").and_then(Json::as_f64),
            Some(nodes as f64),
            "{name}: node count"
        );
        let values = v.get("values").and_then(Json::as_array).expect("values");
        assert_eq!(
            values.len(),
            nodes - 1,
            "{name}: one voltage per non-ground node"
        );
        assert!(
            values
                .iter()
                .all(|x| x.as_f64().is_some_and(f64::is_finite)),
            "{name}: all voltages finite"
        );
        // Every topology is biased from a 3.3 V rail: the solved node
        // voltages must span a physical, nonzero range under it.
        let v_max = metrics.get("v_max").and_then(Json::as_f64).unwrap();
        let v_min = metrics.get("v_min").and_then(Json::as_f64).unwrap();
        assert!(
            v_max > 3.0 && v_max <= 3.4,
            "{name}: rail visible ({v_max})"
        );
        assert!(v_min < v_max, "{name}: nontrivial spread");
    }
}

#[test]
fn netlist_twin_solves_bit_identical_to_generator_twin() {
    // Generator-built circuit: a Widlar-style mirror assembled through
    // the typed Circuit API, in an intern order of its own choosing.
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let r = c.node("ref");
    let out = c.node("out");
    let s2 = c.node("s2");
    c.voltage_source("V1", vdd, Circuit::GROUND, Volts(3.3))
        .unwrap();
    c.resistor("R1", vdd, r, Ohms(150e3)).unwrap();
    c.resistor("R2", s2, Circuit::GROUND, Ohms(10e3)).unwrap();
    c.voltage_source("V2", out, Circuit::GROUND, Volts(1.5))
        .unwrap();
    c.current_source("I1", vdd, r, Amps(1e-6)).unwrap();
    let direct = DcSolver::new().solve(&c).expect("generator twin solves");

    // Its netlist twin: emit, then submit through the full service path.
    let text = to_netlist(&c).expect("emit netlist");
    let service = SiService::new(ServiceConfig::default());
    let (job_out, cached) = service
        .submit_blocking(
            &JobSpec::Netlist {
                netlist: text.clone(),
            },
            None,
        )
        .expect("netlist twin solves");
    assert!(!cached);

    // The job reports voltages in the canonical circuit's intern order;
    // compare per *named* node so the orders need not agree.
    let mut canonical = parse_netlist_canonical(&text).expect("twin re-parses");
    let mut twin = c;
    for (k, name) in ["vdd", "ref", "out", "s2"].iter().enumerate() {
        let ci = canonical.node(name).index();
        let gi = twin.node(name).index();
        assert!(ci >= 1 && gi >= 1, "{name} interned as a real node");
        let from_job = job_out.values[ci - 1];
        let from_direct = direct.node_voltages()[gi];
        assert_eq!(
            from_job.to_bits(),
            from_direct.to_bits(),
            "node {name} (#{k}): job {from_job} != direct {from_direct}"
        );
    }
    service.shutdown();
}

#[test]
fn permuted_netlist_coalesces_over_http() {
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let mut server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
    let addr = server.local_addr();

    // The same Widlar mirror with cards shuffled, comments rewritten,
    // and whitespace mangled: one circuit, one cache slot.
    let permuted = "\
* same mirror, different text
M2   out ref s2 0 NMOS W_UM=20 L_UM=2
R2 s2 0 10k
V2 out 0 1.5
M1 ref ref 0 0 NMOS W_UM=20 L_UM=2 ; diode leg

R1  vdd ref 150k
V1 vdd 0 3.3
.end
";
    let (status, first) = HttpClient::new(addr)
        .request_text("POST", "/v1/jobs", Some(&netlist_body(WIDLAR)))
        .unwrap();
    assert_eq!(status, 200, "{first}");
    let (status, second) = HttpClient::new(addr)
        .request_text("POST", "/v1/jobs", Some(&netlist_body(permuted)))
        .unwrap();
    assert_eq!(status, 200, "{second}");
    assert!(
        second.contains("\"cached\":true"),
        "permuted text missed the cache: {second}"
    );
    assert_eq!(
        second.replace("\"cached\":true", "\"cached\":false"),
        first,
        "permuted text solved to different bytes"
    );
    assert_eq!(service_counter(addr, "service", "netlist_submitted"), 2.0);
    assert!(service_counter(addr, "cache", "hits") >= 1.0);
    server.shutdown();
}

#[test]
fn over_budget_netlist_is_rejected_before_factorization_over_http() {
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: 2,
        budget: AdmissionBudget {
            max_nodes: 8,
            ..AdmissionBudget::default()
        },
        ..ServiceConfig::default()
    }));
    let mut server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
    let addr = server.local_addr();

    // Parseable, but 21 nodes against a budget of 8.
    let mut ladder = String::from("V1 n0 0 1\n");
    for k in 0..20 {
        ladder.push_str(&format!("R{k} n{k} n{} 1k\n", k + 1));
    }
    let (status, payload) = HttpClient::new(addr)
        .request_text("POST", "/v1/jobs", Some(&netlist_body(&ladder)))
        .unwrap();
    assert_eq!(status, 413, "{payload}");
    assert!(payload.contains("\"budget_exceeded\""), "{payload}");
    assert!(payload.contains("nodes"), "{payload}");

    // Rejected before any factorization or Newton iteration: the budget
    // counter ticked, and the engine never ran.
    assert_eq!(
        service_counter(addr, "service", "netlist_rejected_budget"),
        1.0
    );
    assert_eq!(service_counter(addr, "service", "submitted"), 0.0);
    assert_eq!(service_counter(addr, "engine", "solves"), 0.0);
    server.shutdown();
}

#[test]
fn oversized_text_is_rejected_before_parsing() {
    // The byte cap fires before the parser ever sees the text: this
    // netlist is malformed (it would be a 422), but because it is also
    // over the byte budget the answer must be the pre-parse 413.
    let service = SiService::new(ServiceConfig {
        budget: AdmissionBudget {
            max_netlist_bytes: 64,
            ..AdmissionBudget::default()
        },
        ..ServiceConfig::default()
    });
    let garbage = format!("R1 a 0 oops\n{}", "x".repeat(100));
    let err = service
        .submit_blocking(&JobSpec::Netlist { netlist: garbage }, None)
        .unwrap_err();
    match err {
        ServiceError::BudgetExceeded {
            resource, limit, ..
        } => {
            assert_eq!(resource, "netlist_bytes");
            assert_eq!(limit, 64);
        }
        other => panic!("expected the byte-cap 413, got {other:?}"),
    }
    service.shutdown();
}
