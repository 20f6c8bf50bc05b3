//! `si_netfuzz`: seeded fuzz harness for the netlist service workload.
//!
//! Drives thousands of generated netlists — the fixed nasty corpus, raw
//! byte soup, pristine valid circuits, and grammar-aware mutants — through
//! the *full* admission path of a live service (byte cap → strict parse →
//! priced budget → solve) and requires every single outcome to be typed:
//!
//! 1. **No panics** — each submission runs under `catch_unwind`; a panic
//!    anywhere in parse, pricing, keying, or solving fails the run. A
//!    worker panic would surface as `Internal`, which gate 3 also fails.
//! 2. **No hangs** — any case slower than `--max-case-ms` fails the run.
//! 3. **Typed outcomes only** — accepted jobs solve or fail analysis
//!    (`200`/`422`); malformed text is `NetlistRejected` (`422`);
//!    oversized circuits are `BudgetExceeded` (`413`). Anything else
//!    (`Transient`, `Internal`, untyped HTTP statuses) fails the run.
//! 4. **Budget precedes factorization** — an over-budget netlist submitted
//!    to a fresh service leaves the engine's solve counter at zero.
//!
//! `--http` sends every case twice: to a loopback replica, and through an
//! in-process `RouterServer` in front of it. The router decodes and
//! fingerprints each netlist before forwarding it, so its path gets the
//! same four gates. Every path submits through [`gate::Target`], which
//! reads an HTTP error back as the typed error it encodes, so one
//! `classify` buckets the outcomes of all three.
//!
//! ```text
//! si_netfuzz [--http] [--iters N] [--seed N] [--workers N] [--queue N]
//!            [--max-case-ms N]
//! ```
//!
//! Every failing case is written to `target/experiments/netfuzz_artifacts/`
//! for replay; the run's seed makes the whole schedule reproducible. Exit
//! code 0 only when all four gates hold.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use si_bench::gate::{self, svc_counter, FlagValues, Target};
use si_bench::netfuzz::{self, NASTY_CORPUS};
use si_bench::run_report::{experiments_dir, RunReport};
use si_service::http::HttpServer;
use si_service::jobspec::JobSpec;
use si_service::router::{RouterConfig, RouterServer};
use si_service::service::{ServiceConfig, SiService};
use si_service::ServiceError;

struct Args {
    http: bool,
    iters: usize,
    seed: u64,
    workers: usize,
    queue: usize,
    max_case_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            http: false,
            iters: 12_000,
            seed: 42,
            workers: 2,
            queue: 64,
            max_case_ms: 2_000,
        }
    }
}

fn apply_flag(args: &mut Args, flag: &str, v: &mut FlagValues<'_>) -> Result<bool, String> {
    match flag {
        "--http" => args.http = true,
        "--iters" => args.iters = v.int(flag)?.max(NASTY_CORPUS.len()),
        "--seed" => args.seed = v.int(flag)? as u64,
        "--workers" => args.workers = v.int(flag)?.max(1),
        "--queue" => args.queue = v.int(flag)?.max(1),
        "--max-case-ms" => args.max_case_ms = v.int(flag)?.max(1) as u64,
        _ => return Ok(false),
    }
    Ok(true)
}

/// How one fuzz case ended, after forcing every outcome into a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Solved { cached: bool },
    RejectedParse,
    RejectedBudget,
    AnalysisFailed,
    InvalidSpec,
    Untyped,
    Panicked,
}

/// Outcome counts for one submission path (in-process, the replica, or
/// the router), plus its slowest case.
#[derive(Debug, Default)]
struct Tally {
    solved: u64,
    cache_hits: u64,
    rejected_parse: u64,
    rejected_budget: u64,
    analysis_failed: u64,
    invalid_spec: u64,
    untyped: u64,
    panics: u64,
    hangs: u64,
    max_case_wall: Duration,
}

impl Tally {
    /// Counts one case; returns the artifact tag of a failing outcome.
    fn record(
        &mut self,
        outcome: Outcome,
        wall: Duration,
        max_case: Duration,
    ) -> Vec<&'static str> {
        let mut failed = Vec::new();
        self.max_case_wall = self.max_case_wall.max(wall);
        if wall > max_case {
            self.hangs += 1;
            failed.push("hang");
        }
        match outcome {
            Outcome::Solved { cached } => {
                self.solved += 1;
                self.cache_hits += u64::from(cached);
            }
            Outcome::RejectedParse => self.rejected_parse += 1,
            Outcome::RejectedBudget => self.rejected_budget += 1,
            Outcome::AnalysisFailed => self.analysis_failed += 1,
            Outcome::InvalidSpec => {
                self.invalid_spec += 1;
                failed.push("invalid_spec");
            }
            Outcome::Untyped => {
                self.untyped += 1;
                failed.push("untyped");
            }
            Outcome::Panicked => {
                self.panics += 1;
                failed.push("panic");
            }
        }
        failed
    }

    /// Cases outside the typed surface. A netlist spec can never be
    /// `InvalidSpec` (that bucket is for malformed job documents, which
    /// the generators do not emit), so it counts as untyped here.
    fn escaped(&self) -> u64 {
        self.untyped + self.invalid_spec
    }

    /// The no-panic, no-hang, and typed-outcome gates.
    fn gate(&self, path: &str, max_case_ms: u64, failures: &mut Vec<String>) {
        if self.panics > 0 {
            failures.push(format!("{path}: {} cases panicked", self.panics));
        }
        if self.hangs > 0 {
            failures.push(format!(
                "{path}: {} cases exceeded {max_case_ms} ms",
                self.hangs
            ));
        }
        if self.escaped() > 0 {
            failures.push(format!(
                "{path}: {} cases escaped the typed 200/413/422 surface",
                self.escaped()
            ));
        }
    }
}

/// The service's netlist counters, in report order.
const NETLIST_COUNTERS: [&str; 3] = [
    "netlist_submitted",
    "netlist_rejected_parse",
    "netlist_rejected_budget",
];

fn netlist_counters(service: &SiService) -> [f64; 3] {
    NETLIST_COUNTERS.map(|key| svc_counter(service, "service", key))
}

/// Buckets one submission's result; the same typed error comes back from
/// every path, so one match serves them all.
fn classify(result: Result<(Vec<f64>, bool), ServiceError>) -> Outcome {
    match result {
        Ok((_, cached)) => Outcome::Solved { cached },
        Err(ServiceError::NetlistRejected(_)) => Outcome::RejectedParse,
        Err(ServiceError::BudgetExceeded { .. }) => Outcome::RejectedBudget,
        Err(ServiceError::Analysis(_)) => Outcome::AnalysisFailed,
        Err(ServiceError::InvalidSpec(_)) => Outcome::InvalidSpec,
        Err(_) => Outcome::Untyped,
    }
}

fn main() {
    let args: Args = gate::parse_args_or_exit(apply_flag);

    let service = Arc::new(SiService::new(ServiceConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        ..ServiceConfig::default()
    }));
    // Submission paths: in-process, or the replica and a router over it.
    let mut servers = None;
    let mut paths = vec![("in_process", Target::InProcess(Arc::clone(&service)))];
    if args.http {
        let srv = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
        let router = RouterServer::bind(
            "127.0.0.1:0",
            RouterConfig {
                replicas: vec![srv.local_addr().to_string()],
                ..RouterConfig::default()
            },
        )
        .expect("bind router");
        paths = vec![
            ("replica", Target::Http(srv.local_addr())),
            ("router", Target::Http(router.local_addr())),
        ];
        servers = Some((srv, router));
    }
    // Both paths end at the same service, so its netlist counters are
    // read as deltas around the first path's submissions only: the report
    // describes that path, as it did before the router path existed.
    let mut first_path_counters = [0.0f64; 3];
    let mut count_first = |first: bool, submit: &mut dyn FnMut() -> Outcome| {
        let before = first.then(|| netlist_counters(&service));
        let outcome = submit();
        if let Some(before) = before {
            let after = netlist_counters(&service);
            for ((sum, a), b) in first_path_counters.iter_mut().zip(after).zip(before) {
                *sum += a - b;
            }
        }
        outcome
    };

    let mut failures: Vec<String> = Vec::new();
    let artifacts = experiments_dir().join("netfuzz_artifacts");
    let mut artifact_count = 0usize;
    let mut save_artifact = |i: usize, kind: &str, text: &str| {
        if artifact_count >= 25 {
            return;
        }
        artifact_count += 1;
        if std::fs::create_dir_all(&artifacts).is_ok() {
            let path = artifacts.join(format!("case_{i:06}_{kind}.snl"));
            let _ = std::fs::write(path, text);
        }
    };

    // ---- Gate 4 first, on the still-virgin engine: an over-budget
    // netlist must be rejected 413 with the solve counter untouched.
    let big = netfuzz::oversized(9000);
    let big_spec = JobSpec::Netlist {
        netlist: big.clone(),
    };
    for (p, (path, target)) in paths.iter().enumerate() {
        let big_outcome = count_first(p == 0, &mut || classify(target.submit(&big_spec)));
        if big_outcome != Outcome::RejectedBudget {
            failures.push(format!(
                "{path}: oversized netlist was not budget-rejected: {big_outcome:?}"
            ));
        }
    }
    let solves_after_reject = svc_counter(&service, "engine", "solves");
    if solves_after_reject != 0.0 {
        failures.push(format!(
            "budget rejection reached the solver: engine.solves = {solves_after_reject}"
        ));
    }

    // ---- The fuzz loop: nasty corpus first, then the seeded mix.
    let started = Instant::now();
    let max_case = Duration::from_millis(args.max_case_ms);
    let mut tallies: Vec<Tally> = paths.iter().map(|_| Tally::default()).collect();
    for i in 0..args.iters {
        let text = netfuzz::case(args.seed, i);
        let spec = JobSpec::Netlist {
            netlist: text.clone(),
        };
        for (p, ((path, target), tally)) in paths.iter().zip(&mut tallies).enumerate() {
            let mut case_wall = Duration::ZERO;
            let outcome = count_first(p == 0, &mut || {
                let case_started = Instant::now();
                let submitted = std::panic::catch_unwind(AssertUnwindSafe(|| target.submit(&spec)));
                let outcome = submitted.map_or(Outcome::Panicked, classify);
                case_wall = case_started.elapsed();
                outcome
            });
            for kind in tally.record(outcome, case_wall, max_case) {
                save_artifact(i, kind, &text);
                let count = match kind {
                    "hang" => tally.hangs,
                    "panic" => tally.panics,
                    _ => tally.escaped(),
                };
                if count <= 3 {
                    eprintln!("{path}: case {i} {kind} ({outcome:?}, {case_wall:?}):\n{text}");
                }
            }
        }
    }
    let wall = started.elapsed();

    // ---- Gates.
    for ((path, _), tally) in paths.iter().zip(&tallies) {
        tally.gate(path, args.max_case_ms, &mut failures);
    }
    // Sanity: the mix must actually exercise both sides of the boundary.
    let first = &tallies[0];
    if first.solved == 0 {
        failures.push("no generated netlist ever solved".to_string());
    }
    if first.rejected_parse == 0 {
        failures.push("no generated netlist was ever parse-rejected".to_string());
    }

    let mut report = RunReport::new("si_netfuzz");
    report.note("mode", if args.http { "http" } else { "in_process" });
    report.note(
        "plan",
        format!(
            "seed {}, {} cases ({} fixed nasty + seeded mix of raw/valid/mutant)",
            args.seed,
            args.iters,
            NASTY_CORPUS.len()
        ),
    );
    report.metric("cases", args.iters as f64);
    report.metric("solved", first.solved as f64);
    report.metric("cache_hits", first.cache_hits as f64);
    report.metric("rejected_parse", first.rejected_parse as f64);
    report.metric("rejected_budget", first.rejected_budget as f64);
    report.metric("analysis_failed", first.analysis_failed as f64);
    report.metric("panics", first.panics as f64);
    report.metric("hangs", first.hangs as f64);
    report.metric("untyped", first.escaped() as f64);
    for (key, value) in NETLIST_COUNTERS.into_iter().zip(first_path_counters) {
        report.metric(key, value);
    }
    report.metric("max_case_us", first.max_case_wall.as_micros() as f64);
    if let Some(router) = tallies.get(1) {
        report.metric("router_panics", router.panics as f64);
        report.metric("router_hangs", router.hangs as f64);
        report.metric("router_untyped", router.escaped() as f64);
        report.metric(
            "router_max_case_us",
            router.max_case_wall.as_micros() as f64,
        );
    }
    report.metric("wall_s", wall.as_secs_f64());
    report.set_solver(service.engine_stats());

    for ((path, _), t) in paths.iter().zip(&tallies) {
        println!(
            "netfuzz[{path}]: {} cases | {} solved ({} cached), {} parse-rejected, \
             {} budget-rejected, {} analysis-failed | \
             {} panics, {} hangs, {} untyped | slowest case {:?}",
            args.iters,
            t.solved,
            t.cache_hits,
            t.rejected_parse,
            t.rejected_budget,
            t.analysis_failed,
            t.panics,
            t.hangs,
            t.escaped(),
            t.max_case_wall,
        );
    }

    match servers.take() {
        Some((mut srv, mut router)) => {
            router.shutdown();
            srv.shutdown();
        }
        None => service.shutdown(),
    }
    gate::finish(
        &report,
        &failures,
        Some("netfuzz run survived: every outcome typed, no panics, no hangs"),
    );
}
