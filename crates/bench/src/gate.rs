//! Plumbing shared by the service gate binaries (`si_chaos`, `si_loadgen`,
//! `si_netfuzz`): flag parsing, metric lookups, bit comparison, the one
//! job submitter ([`Target`]) with its retry rule, the client fan-out and
//! the retrying storm on top of it, the fresh-solve bit check, the jobs
//! several gates submit, scratch directories, and the write-report-then-
//! exit tail.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use si_analog::engine::EngineWorkspace;
use si_service::http::HttpClient;
use si_service::jobspec::JobSpec;
use si_service::json::{self, Json};
use si_service::service::SiService;
use si_service::{RetryPolicy, ServiceError};

use crate::run_report::{experiments_dir, RunReport};

/// The arguments after a flag, read as that flag's value.
pub struct FlagValues<'a>(&'a mut dyn Iterator<Item = String>);

impl FlagValues<'_> {
    /// The next argument as `flag`'s value.
    ///
    /// # Errors
    ///
    /// `"<flag> requires a value"` when the arguments end.
    pub fn string(&mut self, flag: &str) -> Result<String, String> {
        self.0
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The next argument as `flag`'s integer value.
    ///
    /// # Errors
    ///
    /// As [`FlagValues::string`], or `"<flag> must be an integer"`.
    pub fn int(&mut self, flag: &str) -> Result<usize, String> {
        self.string(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be an integer"))
    }
}

/// Parses `args` into an `A` that starts at its default. `apply` sets
/// one flag, reading any value through [`FlagValues`], and returns
/// `Ok(false)` for a flag it does not know.
///
/// # Errors
///
/// The first error `apply` returns, or `unknown flag "<flag>"`.
pub(crate) fn parse_flags<A: Default>(
    args: impl IntoIterator<Item = String>,
    mut apply: impl FnMut(&mut A, &str, &mut FlagValues<'_>) -> Result<bool, String>,
) -> Result<A, String> {
    let mut args = args.into_iter();
    let mut parsed = A::default();
    while let Some(flag) = args.next() {
        if !apply(&mut parsed, &flag, &mut FlagValues(&mut args))? {
            return Err(format!("unknown flag {flag:?}"));
        }
    }
    Ok(parsed)
}

/// `parse_flags` over the process arguments; a bad or unknown flag
/// prints the error and exits with code 2.
pub fn parse_args_or_exit<A: Default>(
    apply: impl FnMut(&mut A, &str, &mut FlagValues<'_>) -> Result<bool, String>,
) -> A {
    parse_flags(std::env::args().skip(1), apply).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Whether two value sets are the same length and equal bit for bit
/// (`0.0` and `-0.0` differ; so do two NaNs with different payloads).
#[must_use]
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One number out of a `/metrics` document; 0 when the section or the
/// key is absent.
#[must_use]
pub fn metric(metrics: &Json, section: &str, key: &str) -> f64 {
    metrics
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// One counter out of a live `/metrics` snapshot; 0 when absent.
#[must_use]
pub fn svc_counter(service: &SiService, section: &str, key: &str) -> f64 {
    metric(&service.metrics(), section, key)
}

/// A remote front end's `/metrics` document; `None` when the scrape
/// fails or does not parse.
#[must_use]
pub fn fetch_metrics(addr: SocketAddr) -> Option<Json> {
    match HttpClient::new(addr).request_text("GET", "/metrics", None) {
        Ok((200, body)) => json::parse(&body).ok(),
        _ => None,
    }
}

/// One number out of a remote `/metrics`; 0 when the scrape, the
/// section or the key is missing.
#[must_use]
pub fn scrape(addr: SocketAddr, section: &str, key: &str) -> f64 {
    fetch_metrics(addr).map_or(0.0, |m| metric(&m, section, key))
}

/// Each shard's replica name and forward count, in ring order, from a
/// router's `/metrics` document; empty when it has no `shards` array.
#[must_use]
pub fn shard_forwards(router_metrics: &Json) -> Vec<(String, f64)> {
    let shards = router_metrics.get("shards").and_then(Json::as_array);
    shards
        .unwrap_or_default()
        .iter()
        .map(|s| {
            let name = s.get("replica").and_then(Json::as_str).unwrap_or_default();
            let forwards = s.get("forwards").and_then(Json::as_f64).unwrap_or(0.0);
            (name.to_string(), forwards)
        })
        .collect()
}

/// The `values` array of a `/v1/jobs` response; `None` when it is not a
/// job response.
fn values_of(response: &Json) -> Option<Vec<f64>> {
    response
        .get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Where a gate submits its jobs: a service in this process, or a front
/// end (`si_serve` or `si-router`) over HTTP.
pub enum Target {
    /// [`SiService::submit_blocking`] on a live service.
    InProcess(Arc<SiService>),
    /// `POST /v1/jobs` to a listening front end.
    Http(SocketAddr),
}

impl Target {
    /// Submits `spec` once and returns its values and whether they were
    /// served from cache.
    ///
    /// # Errors
    ///
    /// The same typed error in both modes: over HTTP a non-`200` answer
    /// reads back through [`ServiceError::from_wire`], and a transport
    /// failure or a `200` body that is not a job response is
    /// [`ServiceError::Internal`].
    pub fn submit(&self, spec: &JobSpec) -> Result<(Vec<f64>, bool), ServiceError> {
        let addr = match self {
            Target::InProcess(service) => {
                let (out, cached) = service.submit_blocking(spec, None)?;
                return Ok((out.values.clone(), cached));
            }
            Target::Http(addr) => *addr,
        };
        let body = spec.to_json().to_string_compact();
        let (status, payload) = HttpClient::new(addr)
            .request_text("POST", "/v1/jobs", Some(&body))
            .map_err(|e| ServiceError::Internal(format!("http: {e}")))?;
        if status != 200 {
            return Err(ServiceError::from_wire(status, &payload));
        }
        let response = json::parse(&payload).unwrap_or(Json::Null);
        let values = values_of(&response)
            .ok_or_else(|| ServiceError::Internal(format!("not a job response: {payload}")))?;
        Ok((values, response.get("cached") == Some(&Json::Bool(true))))
    }
}

/// Runs `attempt` until it succeeds, fails with an error a client should
/// not retry ([`ServiceError::is_client_retryable`]), or `policy` has no
/// delay left, sleeping each delay in between. Returns the success with
/// the retries it took, or the last error.
///
/// # Errors
///
/// The last attempt's error.
pub fn with_retries<T>(
    policy: &RetryPolicy,
    mut attempt: impl FnMut() -> Result<T, ServiceError>,
) -> Result<(T, u32), ServiceError> {
    let mut retries = 0;
    loop {
        match attempt() {
            Ok(value) => return Ok((value, retries)),
            Err(e) if e.is_client_retryable() => match policy.delay(retries) {
                Some(delay) => std::thread::sleep(delay),
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
        retries += 1;
    }
}

/// Runs items `0..n` on `clients` threads: client `c` calls `f(c, item)`
/// for items `c`, `c + clients`, … in that order. Results come back in
/// item order. No more threads start than there are items.
pub fn fan_out<R: Send>(n: usize, clients: usize, f: impl Fn(usize, usize) -> R + Sync) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    let clients = clients.clamp(1, n);
    let f = &f;
    let mut per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || (c..n).step_by(clients).map(|k| f(c, k)).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread").into_iter())
            .collect()
    });
    (0..n)
        .map(|k| per_client[k % clients].next().expect("one result per item"))
        .collect()
}

/// Submits every spec through `target` on `clients` threads
/// ([`fan_out`]), each submission retried ([`with_retries`], 10 retries,
/// 5 ms doubling up to 500 ms) on a jitter seeded `jitter_seed + c` for
/// client `c`: a run repeats, and clients do not retry in step after a
/// failover. Each finished submission counts in `completed`. Returns the
/// wall time and each job's values, `None` where the job was lost; the
/// first few losses are printed.
pub fn storm(
    target: &Target,
    specs: &[JobSpec],
    clients: usize,
    jitter_seed: u64,
    completed: Option<&AtomicU64>,
) -> (Duration, Vec<Option<Vec<f64>>>) {
    let start = Instant::now();
    let results = fan_out(specs.len(), clients, |c, k| {
        let policy = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(500),
            multiplier: 2,
            jitter_seed: Some(jitter_seed.wrapping_add(c as u64)),
        };
        let result = with_retries(&policy, || target.submit(&specs[k]));
        if let Some(done) = completed {
            done.fetch_add(1, Ordering::Relaxed);
        }
        result.map(|((values, _), _)| values)
    });
    let wall = start.elapsed();
    let lost = results
        .iter()
        .enumerate()
        .filter_map(|(k, r)| Some((k, r.as_ref().err()?)));
    for (k, e) in lost.take(3) {
        eprintln!("job {k} lost: {e}");
    }
    (wall, results.into_iter().map(Result::ok).collect())
}

/// How many served value sets differ bit for bit from a fresh solve of
/// their spec on a new in-process workspace (a failed fresh solve counts
/// as a difference). Lost jobs (`None`) are skipped: gates count them
/// apart.
#[must_use]
pub fn fresh_mismatches(specs: &[JobSpec], served: &[Option<Vec<f64>>]) -> u64 {
    let mut ws = EngineWorkspace::new();
    let served = specs
        .iter()
        .zip(served)
        .filter_map(|(spec, v)| Some((spec, v.as_ref()?)));
    served
        .filter(|(spec, values)| {
            !spec
                .run(&mut ws)
                .is_ok_and(|fresh| same_bits(values, &fresh.values))
        })
        .count() as u64
}

/// The `k`-th distinct delay-line transient of a gate's working set:
/// only the input current moves with `k`, so each `k` has its own cache
/// key while every job shares one topology.
#[must_use]
pub fn tran_job(stages: usize, steps: usize, k: usize) -> JobSpec {
    JobSpec::DelayLineTran {
        stages,
        bias_ua: 20.0,
        input_ua: 0.5 + 0.01 * k as f64,
        steps,
        dt_ns: 50.0,
        clock_hz: 1e6,
    }
}

/// The 64K-sample streaming acceptance job: a 3-stage line, 65,536 steps
/// in 16 chunks of 4,096, each one checkpointed.
#[must_use]
pub fn stream_64k() -> JobSpec {
    JobSpec::TranStream {
        stages: 3,
        bias_ua: 20.0,
        input_ua: 2.0,
        steps: 1 << 16,
        dt_ns: 50.0,
        clock_hz: 2.0e6,
        chunk_steps: 4096,
        seg_len: 4096,
    }
}

/// `<temp>/<tag>-<pid>`, removed first so nothing from an earlier run
/// is in it.
#[must_use]
pub fn fresh_temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `report` to the experiments directory. Then, if any gate
/// failed, prints each failure as a `FAIL:` line and exits with code 1;
/// otherwise prints `pass_line`, if there is one.
pub fn finish(report: &RunReport, failures: &[String], pass_line: Option<&str>) {
    match report.write(experiments_dir()) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    if !failures.is_empty() {
        for f in failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    if let Some(line) = pass_line {
        println!("{line}");
    }
}

/// Installs a panic hook that keeps injected worker panics (whose message
/// contains `injected fault`) out of the report while letting every other
/// panic print through the previous hook.
pub fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected fault"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Demo {
        http: bool,
        jobs: usize,
        bin: Option<String>,
    }

    fn demo(args: &[&str]) -> Result<Demo, String> {
        parse_flags(
            args.iter().map(ToString::to_string),
            |d: &mut Demo, flag, v| {
                match flag {
                    "--http" => d.http = true,
                    "--jobs" => d.jobs = v.int(flag)?.max(1),
                    "--bin" => d.bin = Some(v.string(flag)?),
                    _ => return Ok(false),
                }
                Ok(true)
            },
        )
    }

    #[test]
    fn flags_parse_and_clamp() {
        assert_eq!(demo(&[]), Ok(Demo::default()));
        let parsed = demo(&["--jobs", "0", "--http", "--bin", "x"]).unwrap();
        assert_eq!(
            parsed,
            Demo {
                http: true,
                jobs: 1,
                bin: Some("x".to_string())
            }
        );
    }

    #[test]
    fn flag_errors_are_the_messages_the_binaries_print() {
        assert_eq!(
            demo(&["--jobs"]),
            Err("--jobs requires a value".to_string())
        );
        assert_eq!(
            demo(&["--jobs", "many"]),
            Err("--jobs must be an integer".to_string())
        );
        assert_eq!(
            demo(&["--jobs", "-1"]),
            Err("--jobs must be an integer".to_string())
        );
        assert_eq!(demo(&["--bin"]), Err("--bin requires a value".to_string()));
        assert_eq!(
            demo(&["--nope"]),
            Err("unknown flag \"--nope\"".to_string())
        );
    }

    #[test]
    fn same_bits_tells_signed_zeros_and_lengths_apart() {
        assert!(same_bits(&[0.0, 1.5], &[0.0, 1.5]));
        assert!(same_bits(&[], &[]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
        assert!(!same_bits(&[1.0, 2.0], &[1.0]));
    }

    #[test]
    fn metric_is_zero_when_section_or_key_is_missing() {
        let doc = json::parse(r#"{"cache":{"hits":3,"state":"ok"},"pool":5}"#).unwrap();
        assert_eq!(metric(&doc, "cache", "hits"), 3.0);
        assert_eq!(metric(&doc, "cache", "misses"), 0.0);
        assert_eq!(metric(&doc, "cache", "state"), 0.0);
        assert_eq!(metric(&doc, "engine", "solves"), 0.0);
        assert_eq!(metric(&doc, "pool", "in_flight"), 0.0);
        assert_eq!(metric(&Json::Null, "cache", "hits"), 0.0);
    }

    #[test]
    fn response_values_reads_only_job_responses() {
        let values_in = |body: &str| values_of(&json::parse(body).unwrap());
        let values = values_in(r#"{"id":"a","cached":false,"values":[1.5,-0.0,2]}"#).unwrap();
        assert!(same_bits(&values, &[1.5, -0.0, 2.0]));
        assert_eq!(values_in(r#"{"values":[1,"x"]}"#), None);
        assert_eq!(values_in(r#"{"error":"overloaded"}"#), None);
    }

    #[test]
    fn fan_out_runs_round_robin_and_answers_in_item_order() {
        let log = std::sync::Mutex::new(Vec::new());
        let results = fan_out(11, 3, |c, k| {
            log.lock().unwrap().push((c, k));
            k * 10
        });
        assert_eq!(results, (0..11).map(|k| k * 10).collect::<Vec<_>>());
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 11);
        for c in 0..3 {
            let mine: Vec<usize> = log.iter().filter(|e| e.0 == c).map(|e| e.1).collect();
            assert_eq!(mine, (c..11).step_by(3).collect::<Vec<_>>(), "client {c}");
        }
    }

    #[test]
    fn fan_out_handles_no_items_and_more_clients_than_items() {
        let empty: Vec<usize> = fan_out(0, 4, |_, _| panic!("no item to run"));
        assert!(empty.is_empty());
        assert_eq!(fan_out(3, 8, |c, k| (c, k)), vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(fan_out(3, 0, |c, k| (c, k)), vec![(0, 0), (0, 1), (0, 2)]);
    }

    #[test]
    fn with_retries_retries_only_what_a_client_may_retry() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            multiplier: 2,
            jitter_seed: None,
        };
        let mut calls = 0;
        let ok = with_retries(&policy, || {
            calls += 1;
            if calls < 3 {
                Err(ServiceError::Overloaded { queue_capacity: 1 })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(ok, Ok((3, 2)));
        let mut calls = 0;
        let spent = with_retries(&policy, || -> Result<(), _> {
            calls += 1;
            Err(ServiceError::Transient("again".into()))
        });
        assert_eq!(
            (spent, calls),
            (Err(ServiceError::Transient("again".into())), 4)
        );
        let mut calls = 0;
        let permanent = with_retries(&policy, || -> Result<(), _> {
            calls += 1;
            Err(ServiceError::ShuttingDown)
        });
        assert_eq!((permanent, calls), (Err(ServiceError::ShuttingDown), 1));
    }

    /// One service, submitted to in-process and over loopback HTTP: the
    /// same values bit for bit, the same `cached` flags, and the same
    /// typed error for each kind of rejection.
    #[test]
    fn targets_agree_in_process_and_over_http() {
        use si_service::http::HttpServer;
        use si_service::ServiceConfig;

        let service = Arc::new(SiService::new(ServiceConfig::default()));
        let mut server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
        let targets = [
            Target::InProcess(Arc::clone(&service)),
            Target::Http(server.local_addr()),
        ];
        let specs = [
            JobSpec::DelayLineDc {
                stages: 3,
                bias_ua: 20.0,
                input_ua: 1.0,
            },
            tran_job(3, 16, 0),
            tran_job(3, 16, 1),
        ];
        for (k, spec) in specs.iter().enumerate() {
            let (cold, cached) = targets[k % 2].submit(spec).expect("cold submit");
            assert!(!cached, "job {k} was cached before its first submission");
            for target in &targets {
                let (warm, cached) = target.submit(spec).expect("warm submit");
                assert!(cached, "job {k}");
                assert!(same_bits(&warm, &cold), "job {k}");
            }
        }
        let rejected = [
            (
                JobSpec::Netlist {
                    netlist: crate::netfuzz::poison(7),
                },
                "netlist_rejected",
            ),
            (
                JobSpec::Netlist {
                    netlist: crate::netfuzz::oversized(9000),
                },
                "budget_exceeded",
            ),
            (
                JobSpec::DelayLineDc {
                    stages: 0,
                    bias_ua: 20.0,
                    input_ua: 1.0,
                },
                "invalid_spec",
            ),
        ];
        for (spec, code) in rejected {
            for target in &targets {
                let err = target.submit(&spec).expect_err("rejected");
                assert_eq!(err.code(), code, "{err}");
            }
        }
        server.shutdown();
    }
}
