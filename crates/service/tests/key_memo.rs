//! The spec → key memo that `SiService` and `Router` put in front of
//! `JobSpec::job_key` and `JobSpec::structure_fingerprint`.
//!
//! What must hold:
//!
//! - **Identity** — on a miss and on a hit alike, the memo returns
//!   exactly what the pure functions return, for every kind and for
//!   values the wire JSON cannot tell apart (`-0.0`/`0.0`, NaN payloads);
//! - **Bound** — resident bytes never pass `KEY_MEMO_BUDGET_BYTES`, an
//!   oversized spec is never retained, and an evicted spec still keys
//!   correctly;
//! - **Served bytes** — a miss, an inline hit, a `GET /v1/jobs/:id` and a
//!   routed forward each answer byte for byte what `job_response_body`
//!   builds from `SiService::job_id`;
//! - **Netlist hits** — a netlist whose exact text the service already
//!   admitted is answered inline, with the bytes and counters of a
//!   blocking hit; a rejected text is never memoized, so it meets the
//!   admission gauntlet every time.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use si_analog::engine::EngineWorkspace;
use si_service::budget::AdmissionBudget;
use si_service::http::{HttpClient, HttpServer};
use si_service::jobspec::{JobSpec, KeyMemo, KEY_MEMO_BUDGET_BYTES};
use si_service::json::{self, Json};
use si_service::router::{Router, RouterConfig};
use si_service::service::{job_response_body, ServiceConfig, SiService};

const DIVIDER: &str = "* two-resistor divider\nV1 in 0 3.3\nR1 in mid 1k\nR2 mid 0 2k\n.end\n";

/// Floats the wire JSON flattens or that hash by bit pattern: signed
/// zeros, NaN payloads, subnormals and infinities, mixed with ordinary
/// values in each field's working range.
fn tricky_f64(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    match rng.below(8) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(0x7ff8_0000_0000_0000 | (rng.next_u64() & 0xf_ffff_ffff_ffff)),
        3 => f64::from_bits(1 + rng.below(1 << 52)),
        4 => [f64::INFINITY, f64::NEG_INFINITY][rng.below(2) as usize],
        _ => lo + rng.unit_f64() * (hi - lo),
    }
}

/// Netlists that parse, that differ from them in one byte, that differ
/// only in comments, and that do not parse.
fn netlist(rng: &mut TestRng) -> String {
    match rng.below(4) {
        0 => DIVIDER.to_string(),
        1 => DIVIDER.replacen("2k", &format!("{}k", 2 + rng.below(8)), 1),
        2 => format!("* comment {}\n{DIVIDER}", rng.next_u64()),
        _ => format!("R1 a 0 oops{}\n", rng.below(4)),
    }
}

/// Specs of all seven kinds, valid or not.
struct AnySpec;

impl Strategy for AnySpec {
    type Value = JobSpec;

    fn generate(&self, rng: &mut TestRng) -> JobSpec {
        let stages = rng.below(5) as usize;
        let bias_ua = if rng.below(4) == 0 {
            tricky_f64(rng, 1.0, 40.0)
        } else {
            20.0
        };
        let input_ua = tricky_f64(rng, -2.0, 2.0);
        match rng.below(7) {
            0 => JobSpec::DelayLineDc {
                stages,
                bias_ua,
                input_ua,
            },
            1 => JobSpec::DelayLineTran {
                stages,
                bias_ua,
                input_ua,
                steps: 1 + rng.below(8) as usize,
                dt_ns: tricky_f64(rng, 10.0, 100.0),
                clock_hz: tricky_f64(rng, 1e5, 1e7),
            },
            2 => JobSpec::DelayLineAc {
                stages,
                bias_ua,
                input_ua,
                f_lo_hz: tricky_f64(rng, 1e2, 1e4),
                f_hi_hz: tricky_f64(rng, 1e5, 1e8),
                points: rng.below(6) as usize,
            },
            3 => JobSpec::SndrSweep {
                full_scale_ua: tricky_f64(rng, 1.0, 10.0),
                levels_db: (0..rng.below(4))
                    .map(|_| tricky_f64(rng, -60.0, 0.0))
                    .collect(),
            },
            4 => JobSpec::DelayLineDcBatch {
                stages,
                bias_ua,
                inputs_ua: (0..rng.below(4))
                    .map(|_| tricky_f64(rng, -2.0, 2.0))
                    .collect(),
            },
            5 => JobSpec::Netlist {
                netlist: netlist(rng),
            },
            _ => JobSpec::TranStream {
                stages,
                bias_ua,
                input_ua,
                steps: 1 + rng.below(64) as usize,
                dt_ns: tricky_f64(rng, 10.0, 100.0),
                clock_hz: tricky_f64(rng, 1e5, 1e7),
                chunk_steps: rng.below(32) as usize,
                seg_len: 1 << rng.below(6),
            },
        }
    }
}

proptest! {
    /// Miss and hit both return the pure key and fingerprint, through a
    /// service-style memo (key only), a router-style memo (both), and a
    /// memo that learns the fingerprint only on its second lookup.
    #[test]
    fn memo_returns_the_pure_key_and_fingerprint(spec in AnySpec) {
        let (key, fp) = (spec.job_key(), spec.structure_fingerprint());
        let (service, router, mixed) = (KeyMemo::default(), KeyMemo::default(), KeyMemo::default());
        for lookup in ["miss", "hit"] {
            prop_assert_eq!(service.job_key(&spec), key, "service {}", lookup);
            prop_assert_eq!(router.route(&spec), (fp, key), "router {}", lookup);
            prop_assert!(service.holds(&spec) && router.holds(&spec));
        }
        prop_assert_eq!(mixed.job_key(&spec), key);
        prop_assert_eq!(mixed.route(&spec), (fp, key));
        prop_assert_eq!(mixed.job_key(&spec), key);
        prop_assert_eq!(mixed.route(&spec), (fp, key));
    }
}

/// Two specs with the same wire JSON but different bits get an entry
/// each, and each entry answers its own key.
#[test]
fn wire_identical_specs_keep_distinct_entries() {
    let dc = |input_ua| JobSpec::DelayLineDc {
        stages: 3,
        bias_ua: 20.0,
        input_ua,
    };
    let nan = |payload: u64| JobSpec::SndrSweep {
        full_scale_ua: 6.0,
        levels_db: vec![-20.0, f64::from_bits(0x7ff8_0000_0000_0000 | payload)],
    };
    for (a, b) in [(dc(0.0), dc(-0.0)), (nan(1), nan(2))] {
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact()
        );
        let memo = KeyMemo::default();
        for _ in 0..2 {
            assert_eq!(memo.job_key(&a), a.job_key());
            assert_eq!(memo.job_key(&b), b.job_key());
            assert_eq!(memo.route(&b), (b.structure_fingerprint(), b.job_key()));
            assert_eq!(memo.route(&a), (a.structure_fingerprint(), a.job_key()));
        }
        assert!(memo.holds(&a) && memo.holds(&b));
    }
    assert_ne!(dc(0.0).job_key(), dc(-0.0).job_key());
}

/// A resistor divider whose first value makes it distinct, padded with
/// a comment line to `len` bytes.
fn padded_divider(i: usize, len: usize) -> JobSpec {
    let mut netlist = format!("V1 in 0 3.3\nR1 in mid {}\nR2 mid 0 2k\n", 1000 + i);
    let pad = len.saturating_sub(netlist.len() + 3);
    netlist.push_str(&format!("*{}\n", "x".repeat(pad)));
    JobSpec::Netlist { netlist }
}

#[test]
fn memo_stays_within_its_byte_budget() {
    let memo = KeyMemo::default();
    let first = padded_divider(0, 1024);
    let mut inserted = 0;
    let mut i = 0;
    while inserted < 4 * KEY_MEMO_BUDGET_BYTES {
        let spec = padded_divider(i, 1024);
        assert_eq!(memo.job_key(&spec), spec.job_key());
        assert!(memo.holds(&spec), "spec {i} was not retained");
        assert!(
            memo.resident_bytes() <= KEY_MEMO_BUDGET_BYTES,
            "{} resident bytes after spec {i}",
            memo.resident_bytes()
        );
        inserted += 1024;
        i += 1;
    }

    // An evicted spec still keys correctly, and comes back.
    assert!(!memo.holds(&first), "the oldest spec must be evicted");
    assert_eq!(memo.job_key(&first), first.job_key());
    assert!(memo.holds(&first));

    // A spec of half the budget is answered but never retained, so it
    // cannot flush the working set.
    let resident = memo.resident_bytes();
    let huge = padded_divider(i, KEY_MEMO_BUDGET_BYTES / 2);
    for _ in 0..2 {
        assert_eq!(memo.job_key(&huge), huge.job_key());
        assert_eq!(
            memo.route(&huge),
            (huge.structure_fingerprint(), huge.job_key())
        );
    }
    assert!(!memo.holds(&huge));
    assert_eq!(memo.resident_bytes(), resident);
    assert!(memo.holds(&first));
}

/// One small spec of each of the seven kinds.
fn seven_kinds() -> Vec<JobSpec> {
    vec![
        JobSpec::DelayLineDc {
            stages: 3,
            bias_ua: 20.0,
            input_ua: 1.0,
        },
        JobSpec::DelayLineTran {
            stages: 2,
            bias_ua: 20.0,
            input_ua: 1.0,
            steps: 8,
            dt_ns: 50.0,
            clock_hz: 1e6,
        },
        JobSpec::DelayLineAc {
            stages: 2,
            bias_ua: 20.0,
            input_ua: 0.5,
            f_lo_hz: 1e3,
            f_hi_hz: 1e7,
            points: 4,
        },
        JobSpec::SndrSweep {
            full_scale_ua: 6.0,
            levels_db: vec![-40.0, -6.0],
        },
        JobSpec::DelayLineDcBatch {
            stages: 3,
            bias_ua: 20.0,
            inputs_ua: vec![0.5, 1.0, 1.5],
        },
        JobSpec::Netlist {
            netlist: DIVIDER.to_string(),
        },
        JobSpec::TranStream {
            stages: 2,
            bias_ua: 20.0,
            input_ua: 1.0,
            steps: 64,
            dt_ns: 50.0,
            clock_hz: 2e6,
            chunk_steps: 16,
            seg_len: 32,
        },
    ]
}

fn expected_body(spec: &JobSpec, cached: bool) -> String {
    let out = spec.run(&mut EngineWorkspace::new()).expect("spec runs");
    job_response_body(&SiService::job_id(spec), spec.kind(), cached, &out).to_string_compact()
}

fn call(client: &HttpClient, method: &str, path: &str, body: Option<&str>) -> String {
    let (status, body) = client.request_text(method, path, body).expect("request");
    assert_eq!(status, 200, "{method} {path}: {body}");
    body
}

#[test]
fn served_bytes_match_job_response_body_on_every_path() {
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let client = HttpClient::new(server.local_addr()).timeout(Duration::from_secs(60));
    let router = Router::new(RouterConfig {
        replicas: vec![server.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router");
    let post = |body: &str| call(&client, "POST", "/v1/jobs", Some(body));

    for spec in seven_kinds() {
        let body = spec.to_json().to_string_compact();
        let (miss, hit) = (expected_body(&spec, false), expected_body(&spec, true));
        let kind = spec.kind();
        assert_eq!(post(&body), miss, "{kind} miss");
        assert_eq!(post(&body), hit, "{kind} hit");
        let path = format!("/v1/jobs/{}", SiService::job_id(&spec));
        assert_eq!(call(&client, "GET", &path, None), hit, "{kind} GET");
        assert_eq!(
            router.handle("POST", "/v1/jobs", &body),
            (200, hit.clone()),
            "{kind} routed"
        );
    }

    // The codec writes both zeros as `0`, so the bodies are written by
    // hand; each must come back under its own id, directly and routed.
    let zero = |sign: &str| {
        format!(r#"{{"kind":"delay_line_dc","stages":4,"bias_ua":20,"input_ua":{sign}0.0}}"#)
    };
    let spec = |input_ua| JobSpec::DelayLineDc {
        stages: 4,
        bias_ua: 20.0,
        input_ua,
    };
    for (body, spec) in [(zero(""), spec(0.0)), (zero("-"), spec(-0.0))] {
        assert_eq!(post(&body), expected_body(&spec, false));
    }
    for (body, spec) in [(zero(""), spec(0.0)), (zero("-"), spec(-0.0))] {
        let hit = expected_body(&spec, true);
        assert_eq!(post(&body), hit);
        assert_eq!(router.handle("POST", "/v1/jobs", &body), (200, hit));
    }
}

/// The `service` and `cache` counters of a `/metrics` document, minus
/// the derived `hit_ratio` (its inputs, hits and misses, are compared).
fn counters(client: &HttpClient) -> Vec<(String, f64)> {
    let metrics = json::parse(&call(client, "GET", "/metrics", None)).expect("metrics parse");
    let mut out = Vec::new();
    for section in ["service", "cache"] {
        let Some(Json::Object(pairs)) = metrics.get(section) else {
            panic!("no {section} section");
        };
        for (name, value) in pairs {
            if name != "hit_ratio" {
                let value = value.as_f64().expect("counters are numbers");
                out.push((format!("{section}.{name}"), value));
            }
        }
    }
    out
}

/// The counters that moved while `action` ran, with how far.
fn moved(client: &HttpClient, action: impl FnOnce()) -> Vec<(String, f64)> {
    let before = counters(client);
    action();
    counters(client)
        .into_iter()
        .zip(before)
        .map(|((name, after), (_, before))| (name, after - before))
        .filter(|(_, delta)| *delta != 0.0)
        .collect()
}

fn moved_by(deltas: &[(&str, f64)]) -> Vec<(String, f64)> {
    deltas.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

#[test]
fn netlist_inline_hits_are_indistinguishable_from_blocking_hits() {
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: 1,
        budget: AdmissionBudget {
            max_netlist_bytes: DIVIDER.len() + 64,
            max_nodes: 4,
            ..AdmissionBudget::default()
        },
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let client = HttpClient::new(server.local_addr()).timeout(Duration::from_secs(60));
    let memo = service.key_memo_for_test();
    let post = |spec: &JobSpec| {
        let body = spec.to_json().to_string_compact();
        client
            .request_text("POST", "/v1/jobs", Some(&body))
            .expect("request")
    };
    let divider = JobSpec::Netlist {
        netlist: DIVIDER.to_string(),
    };

    assert_eq!(post(&divider), (200, expected_body(&divider, false)));
    assert!(memo.holds(&divider));
    let hit = expected_body(&divider, true);
    let one_hit = moved_by(&[
        ("service.submitted", 1.0),
        ("service.completed", 1.0),
        ("service.netlist_submitted", 1.0),
        ("cache.hits", 1.0),
    ]);
    let repeat = moved(&client, || assert_eq!(post(&divider), (200, hit.clone())));
    let inline = moved(&client, || {
        let out = service.serve_cached(&divider).expect("served inline");
        assert_eq!(
            job_response_body(&SiService::job_id(&divider), "netlist", true, &out)
                .to_string_compact(),
            hit
        );
    });
    let blocking = moved(&client, || {
        let (out, cached) = service.submit_blocking(&divider, None).expect("hit");
        assert!(cached);
        assert_eq!(
            job_response_body(&SiService::job_id(&divider), "netlist", true, &out)
                .to_string_compact(),
            hit
        );
    });
    assert_eq!(repeat, one_hit, "repeat POST");
    assert_eq!(inline, one_hit, "serve_cached");
    assert_eq!(blocking, one_hit, "submit_blocking");
    let path = format!("/v1/jobs/{}", SiService::job_id(&divider));
    assert_eq!(call(&client, "GET", &path, None), hit);

    // Rejected texts: one that does not parse, one over the priced budget
    // (five nodes), and a comment-padded twin of the cached divider over
    // the byte cap — the last would be answered from the cache if its
    // text were ever memoized. Each meets the gauntlet both times.
    let rejected = [
        ("R1 a 0 oops\n", 422, "service.netlist_rejected_parse"),
        (
            "V1 a 0 1\nR1 a b 1k\nR2 b c 1k\nR3 c d 1k\nR4 d 0 1k\n",
            413,
            "service.netlist_rejected_budget",
        ),
        ("", 413, "service.netlist_rejected_budget"),
    ];
    for (text, status, counter) in rejected {
        let netlist = if text.is_empty() {
            format!("*{}\n{DIVIDER}", "x".repeat(64))
        } else {
            text.to_string()
        };
        let spec = JobSpec::Netlist { netlist };
        let twice = moved(&client, || {
            for _ in 0..2 {
                assert_eq!(post(&spec).0, status, "{spec:?}");
                assert!(!memo.holds(&spec), "{spec:?} was memoized");
                assert!(service.serve_cached(&spec).is_none());
            }
        });
        assert_eq!(
            twice,
            moved_by(&[("service.netlist_submitted", 2.0), (counter, 2.0)]),
            "{spec:?}"
        );
    }

    // A comment-edited canonical twin is not in the memo: probing it
    // counts nothing, and its POST takes the blocking path to the same
    // cached answer under the same id.
    let twin = JobSpec::Netlist {
        netlist: format!("* edited\n{DIVIDER}"),
    };
    assert_eq!(SiService::job_id(&twin), SiService::job_id(&divider));
    assert!(!memo.holds(&twin));
    assert!(moved(&client, || assert!(service.serve_cached(&twin).is_none())).is_empty());
    let twin_hit = moved(&client, || assert_eq!(post(&twin), (200, hit.clone())));
    assert_eq!(twin_hit, one_hit, "twin POST");
    assert!(memo.holds(&twin));
    assert_eq!(call(&client, "GET", &path, None), hit);
}
