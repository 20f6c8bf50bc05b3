//! Plumbing shared by the service gate binaries (`si_chaos`, `si_loadgen`,
//! `si_netfuzz`): flag parsing, metric lookups, bit comparison, the
//! retrying job POST, the jobs several gates submit, scratch directories,
//! and the write-report-then-exit tail.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use si_service::http::HttpClient;
use si_service::jobspec::JobSpec;
use si_service::json::{self, Json};
use si_service::service::SiService;
use si_service::RetryPolicy;

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
pub fn parse_flags<A: Default>(
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

/// [`parse_flags`] over the process arguments; a bad or unknown flag
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

/// The `values` array of a `/v1/jobs` response body; `None` when the
/// body is not a job response.
#[must_use]
pub fn response_values(payload: &str) -> Option<Vec<f64>> {
    json::parse(payload)
        .ok()?
        .get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Posts one serialized job, retrying transport errors and `5xx` answers
/// on a seeded-jitter backoff (10 retries, 5 ms doubling up to 500 ms).
/// `jitter_seed` fixes the retry schedule, so a gate run repeats; clients
/// given different seeds do not retry in step after a failover.
///
/// # Errors
///
/// Any other non-`200` status with its body, or `retries exhausted`.
pub fn post_job(addr: SocketAddr, body: &str, jitter_seed: u64) -> Result<String, String> {
    let policy = RetryPolicy {
        max_retries: 10,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(500),
        multiplier: 2,
        jitter_seed: Some(jitter_seed),
    };
    let mut attempt = 0u32;
    loop {
        match HttpClient::new(addr).request_text("POST", "/v1/jobs", Some(body)) {
            Ok((200, payload)) => return Ok(payload),
            Ok((status, payload)) if !(500..=599).contains(&status) => {
                return Err(format!("status {status}: {payload}"));
            }
            Ok(_) | Err(_) => {}
        }
        let Some(delay) = policy.delay(attempt) else {
            return Err("retries exhausted".to_string());
        };
        std::thread::sleep(delay);
        attempt += 1;
    }
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
        let body = r#"{"id":"a","cached":false,"values":[1.5,-0.0,2]}"#;
        let values = response_values(body).unwrap();
        assert!(same_bits(&values, &[1.5, -0.0, 2.0]));
        assert_eq!(response_values(r#"{"values":[1,"x"]}"#), None);
        assert_eq!(response_values(r#"{"error":"overloaded"}"#), None);
        assert_eq!(response_values("not json"), None);
    }
}
