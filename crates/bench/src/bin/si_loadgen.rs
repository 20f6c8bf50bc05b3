//! `si_loadgen`: drives the job service and reports throughput, latency
//! percentiles, and cache effectiveness as a [`RunReport`].
//!
//! Two phases, same client threads:
//!
//! 1. **cold** — every job is distinct, so every submission pays for a
//!    full solve. This measures raw engine throughput through the pool.
//! 2. **hot** — 90 % of submissions repeat a small working set that the
//!    cold phase already solved, so they resolve as cache hits or
//!    coalesced flights. The throughput ratio hot/cold is the headline
//!    `speedup` metric; the acceptance bar is ≥ 5×.
//!
//! ```text
//! si_loadgen [--http] [--clients N] [--cold N] [--hot N]
//!            [--stages N] [--steps N] [--workers N] [--queue N]
//!            [--batch] [--scenarios N] [--restart] [--stream]
//! ```
//!
//! By default the service is driven in-process (deterministic, no
//! sockets); `--http` binds a real loopback `HttpServer` and issues the
//! same workload as HTTP requests.
//!
//! `--batch` adds a third phase (ISSUE 6): the same N DC operating
//! points submitted once as N individual `delay_line_dc` jobs and once as
//! a single `delay_line_dc_batch` job. The scenario-throughput ratio
//! batch/singles is reported as the `batch_speedup` metric.
//!
//! `--restart` adds a cold-restart phase (ISSUE 8): the service runs with
//! a persistent disk cache tier, is torn down after the hot phase (taking
//! the whole memory tier with it), and a fresh instance on the same cache
//! directory replays the hot workload. The working set must come back from
//! disk, not be re-solved: the gate is restart throughput within 2x of
//! warm, at least one disk hit, and disk-served results bit-identical to
//! fresh solves on a brand-new workspace.
//!
//! `--netlist` swaps the canned transient workload for user-submitted
//! `netlist` jobs (ISSUE 7): every submission carries dialect-v1 text
//! through the full admission gauntlet — parse, canonicalization,
//! pricing — before the solve. DC netlist solves are cheap relative to
//! the parse-per-submission overhead, so the 5x speedup bar does not
//! apply; the acceptance bar is instead *exact coalescing*: every
//! hot-phase duplicate must be served from cache via its canonical
//! fingerprints, and no submission may error.
//!
//! `--cluster` (ISSUE 9) replaces the whole run: instead of driving one
//! service, the generator drives an `si_router` front end over external
//! `si_serve` replicas (`--router` plus repeated `--replica` flags, all
//! `host:port`). Phases and acceptance gates:
//!
//! 1. **warmup** — one transient job per topology (`--cold` topologies,
//!    stage counts `--stages`, `--stages`+1, …; `--steps` solves per
//!    job, so replicas are compute-bound) seeds every shard owner.
//! 2. **affinity** — topology-major blocks of distinct-value jobs; the
//!    growth in the replicas' `symbolic_cache_misses` counters counts
//!    how often a solve landed on a workspace whose (single-slot)
//!    symbolic state held a different topology. Perfect routing costs
//!    exactly one miss per block, so `affinity = blocks / misses` — the
//!    gate is ≥ 0.9. Replicas must run `--workers 1` and stage counts
//!    must clear the sparse-backend cutoff (CI uses `--stages 48`).
//! 3. **cluster vs single** — the same interleaved distinct-value
//!    workload through the router versus directly against the first
//!    replica; the topology sequence cycles shard *owners* round-robin
//!    (ownership is discovered during warmup from per-shard `forwards`
//!    deltas) so each replica gets 1/R of the jobs even when the raw
//!    key draw skews the ring. The gate is cluster throughput ≥ 2x the
//!    single replica on hosts with a core per replica; on starved
//!    containers, where process parallelism is physically impossible,
//!    it degrades to a no-collapse floor.
//! 4. **kill storm** (`--kill-pid`) — the workload re-runs while the
//!    given replica is SIGKILLed a quarter of the way in. Clients retry
//!    through the router; the gates are zero lost jobs, at least one
//!    rerouted request in the router metrics, and every response
//!    bit-identical to a fresh in-process solve.
//!
//! `--stream` (ISSUE 10) also replaces the whole run: the same 64K-sample
//! `tran_stream` job is driven twice against two fresh services with their
//! own disk tiers — once uninterrupted, once with a single injected
//! mid-chunk worker panic. The retry resumes from the last checkpoint, so
//! the gates are: both spectra bit-identical to an in-process reference,
//! at least one checkpoint resume in the faulted service's metrics, and
//! resumed wall time under 1.5x the uninterrupted run (resume must not
//! degenerate into a full rerun).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use si_bench::run_report::{experiments_dir, RunReport};
use si_service::http::{HttpClient, HttpServer};
use si_service::jobspec::JobSpec;
use si_service::service::{ServiceConfig, SiService};
use si_service::ServiceError;

struct Args {
    http: bool,
    clients: usize,
    cold: usize,
    hot: usize,
    stages: usize,
    steps: usize,
    workers: usize,
    queue: usize,
    batch: bool,
    scenarios: usize,
    netlist: bool,
    restart: bool,
    cluster: bool,
    router: Option<String>,
    replicas: Vec<String>,
    kill_pid: Option<u32>,
    stream: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            http: false,
            clients: 4,
            cold: 24,
            hot: 240,
            stages: 32,
            steps: 96,
            workers: 4,
            queue: 64,
            batch: false,
            scenarios: 32,
            netlist: false,
            restart: false,
            cluster: false,
            router: None,
            replicas: Vec::new(),
            kill_pid: None,
            stream: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut int = |name: &str| -> Result<usize, String> {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))?
                .parse()
                .map_err(|_| format!("{name} must be an integer"))
        };
        match flag.as_str() {
            "--http" => args.http = true,
            "--clients" => args.clients = int("--clients")?.max(1),
            "--cold" => args.cold = int("--cold")?.max(1),
            "--hot" => args.hot = int("--hot")?.max(1),
            "--stages" => args.stages = int("--stages")?.max(1),
            "--steps" => args.steps = int("--steps")?.max(1),
            "--workers" => args.workers = int("--workers")?.max(1),
            "--queue" => args.queue = int("--queue")?.max(1),
            "--batch" => args.batch = true,
            "--netlist" => args.netlist = true,
            "--restart" => args.restart = true,
            "--scenarios" => args.scenarios = int("--scenarios")?.max(2),
            "--cluster" => args.cluster = true,
            "--router" => {
                args.router = Some(
                    it.next()
                        .ok_or_else(|| "--router requires a value".to_string())?,
                );
            }
            "--replica" => {
                args.replicas.push(
                    it.next()
                        .ok_or_else(|| "--replica requires a value".to_string())?,
                );
            }
            "--kill-pid" => args.kill_pid = Some(int("--kill-pid")? as u32),
            "--stream" => args.stream = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// The `k`-th distinct job: same structure, one element value (the input
/// current) retuned, so every job has its own cache key. In `--netlist`
/// mode the job is dialect-v1 text — a diode-connected NMOS ladder with
/// `--stages` rungs — so every submission pays the parse/canonicalize/
/// price gauntlet, and duplicates coalesce via canonical fingerprints.
fn job(args: &Args, k: usize) -> JobSpec {
    if args.netlist {
        let mut text = String::from(".version 1\nV1 vdd 0 3.3\n");
        for s in 0..args.stages {
            let ua = if s == 0 { 20.0 + 0.01 * k as f64 } else { 20.0 };
            text.push_str(&format!("I{s} vdd d{s} {ua:.4}u\n"));
            text.push_str(&format!("M{s} d{s} d{s} 0 0 NMOS W_UM=10 L_UM=2\n"));
        }
        return JobSpec::Netlist { netlist: text };
    }
    JobSpec::DelayLineTran {
        stages: args.stages,
        bias_ua: 20.0,
        input_ua: 0.5 + 0.01 * k as f64,
        steps: args.steps,
        dt_ns: 50.0,
        clock_hz: 1e6,
    }
}

/// How one client submits one job; returns latency and whether the
/// service reported it as served-from-cache.
trait Client: Send + Sync {
    fn submit(&self, spec: &JobSpec) -> Result<(Duration, bool), ServiceError>;
}

struct InProcess(Arc<SiService>);

impl Client for InProcess {
    fn submit(&self, spec: &JobSpec) -> Result<(Duration, bool), ServiceError> {
        let start = Instant::now();
        let (_, cached) = self.0.submit_blocking(spec, None)?;
        Ok((start.elapsed(), cached))
    }
}

struct OverHttp(std::net::SocketAddr);

impl Client for OverHttp {
    fn submit(&self, spec: &JobSpec) -> Result<(Duration, bool), ServiceError> {
        let body = spec.to_json().to_string_compact();
        let start = Instant::now();
        let (status, payload) = HttpClient::new(self.0)
            .request_text("POST", "/v1/jobs", Some(&body))
            .map_err(|e| ServiceError::Analysis(format!("http: {e}")))?;
        let elapsed = start.elapsed();
        // Load shedding (admission control or the connection cap) is a
        // 503 with an "overloaded" error code.
        if status == 503 && payload.contains("\"overloaded\"") {
            return Err(ServiceError::Overloaded { queue_capacity: 0 });
        }
        if status != 200 {
            return Err(ServiceError::Analysis(format!(
                "status {status}: {payload}"
            )));
        }
        let cached = si_service::json::parse(&payload)
            .ok()
            .and_then(|v| match v.get("cached") {
                Some(si_service::json::Json::Bool(b)) => Some(*b),
                _ => None,
            })
            .unwrap_or(false);
        Ok((elapsed, cached))
    }
}

struct PhaseResult {
    wall: Duration,
    latencies: Vec<Duration>,
    cached: u64,
    overloaded: u64,
    errors: u64,
}

/// Fans `specs` out over `clients` threads round-robin and collects
/// latencies. Deterministic job order per thread.
fn run_phase(client: &dyn Client, specs: &[JobSpec], clients: usize) -> PhaseResult {
    let cached = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let start = Instant::now();
    let latencies = std::sync::Mutex::new(Vec::with_capacity(specs.len()));
    std::thread::scope(|scope| {
        for c in 0..clients {
            let cached = &cached;
            let overloaded = &overloaded;
            let errors = &errors;
            let latencies = &latencies;
            scope.spawn(move || {
                let mut mine = Vec::new();
                for spec in specs.iter().skip(c).step_by(clients) {
                    match client.submit(spec) {
                        Ok((latency, was_cached)) => {
                            mine.push(latency);
                            if was_cached {
                                cached.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(ServiceError::Overloaded { .. }) => {
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
    });
    let mut latencies = latencies.into_inner().unwrap();
    latencies.sort_unstable();
    PhaseResult {
        wall: start.elapsed(),
        latencies,
        cached: cached.load(Ordering::Relaxed),
        overloaded: overloaded.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
    }
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e6
}

// ---- cluster mode (ISSUE 9) -------------------------------------------

/// Resolves a `host:port` (optionally `http://`-prefixed) address.
fn resolve(addr: &str) -> std::net::SocketAddr {
    use std::net::ToSocketAddrs;
    let name = addr
        .trim()
        .trim_start_matches("http://")
        .trim_end_matches('/');
    name.to_socket_addrs()
        .unwrap_or_else(|e| panic!("cannot resolve {name:?}: {e}"))
        .next()
        .unwrap_or_else(|| panic!("{name:?} resolves to no address"))
}

/// One counter out of a remote `/metrics` snapshot; 0.0 when the scrape
/// or the key is missing.
fn scrape(addr: std::net::SocketAddr, section: &str, key: &str) -> f64 {
    HttpClient::new(addr)
        .request_text("GET", "/metrics", None)
        .ok()
        .and_then(|(status, body)| (status == 200).then_some(body))
        .and_then(|body| si_service::json::parse(&body).ok())
        .and_then(|m| {
            m.get(section)
                .and_then(|s| s.get(key))
                .and_then(si_service::json::Json::as_f64)
        })
        .unwrap_or(0.0)
}

/// Submits one job with client-side retry through the router: transport
/// errors and 5xx shedding are retried on a seeded-jitter backoff (each
/// client gets its own seed so a failover doesn't re-stampede the ring).
/// Returns the 200 response body.
fn submit_cluster(addr: std::net::SocketAddr, body: &str, seed: u64) -> Result<String, String> {
    let policy = si_service::RetryPolicy {
        max_retries: 10,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(500),
        multiplier: 2,
        jitter_seed: Some(seed),
    };
    let mut attempt = 0u32;
    loop {
        match HttpClient::new(addr).request_text("POST", "/v1/jobs", Some(body)) {
            Ok((200, payload)) => return Ok(payload),
            Ok((status, payload)) if !(500..=599).contains(&status) && status != 429 => {
                return Err(format!("status {status}: {payload}"));
            }
            Ok(_) | Err(_) => {}
        }
        match policy.delay(attempt) {
            Some(delay) => std::thread::sleep(delay),
            None => return Err("retries exhausted".to_string()),
        }
        attempt += 1;
    }
}

struct ClusterPhase {
    wall: Duration,
    lost: u64,
    responses: Vec<Option<String>>,
}

/// Fans serialized job bodies over `clients` threads round-robin, with
/// per-submission retry; collects each job's 200 response body.
fn run_cluster_phase(
    addr: std::net::SocketAddr,
    bodies: &[String],
    clients: usize,
    completed: Option<&AtomicU64>,
) -> ClusterPhase {
    let lost = AtomicU64::new(0);
    let responses: Vec<std::sync::Mutex<Option<String>>> =
        bodies.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let lost = &lost;
            let responses = &responses;
            scope.spawn(move || {
                for (k, body) in bodies.iter().enumerate().skip(c).step_by(clients) {
                    match submit_cluster(addr, body, 0xC1A0 + c as u64) {
                        Ok(payload) => {
                            *responses[k].lock().unwrap() = Some(payload);
                        }
                        Err(e) => {
                            if lost.fetch_add(1, Ordering::Relaxed) < 3 {
                                eprintln!("cluster job {k} lost: {e}");
                            }
                        }
                    }
                    if let Some(done) = completed {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    ClusterPhase {
        wall: start.elapsed(),
        lost: lost.load(Ordering::Relaxed),
        responses: responses
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect(),
    }
}

/// Whether a response's `values` are bit-identical to a fresh in-process
/// solve of `spec` (JSON numbers round-trip bit-exactly).
fn response_matches_fresh_solve(
    payload: &str,
    spec: &JobSpec,
    ws: &mut si_analog::engine::EngineWorkspace,
) -> bool {
    let Some(values) = si_service::json::parse(payload)
        .ok()
        .and_then(|v| match v.get("values") {
            Some(si_service::json::Json::Array(items)) => items
                .iter()
                .map(si_service::json::Json::as_f64)
                .collect::<Option<Vec<f64>>>(),
            _ => None,
        })
    else {
        return false;
    };
    let Ok(fresh) = spec.run(ws) else {
        return false;
    };
    values.len() == fresh.values.len()
        && values
            .iter()
            .zip(fresh.values.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The whole `--cluster` run: warmup, affinity blocks, cluster-vs-single
/// throughput, optional kill storm. Exits nonzero if a gate fails.
fn run_cluster(args: &Args) {
    let router = resolve(
        args.router
            .as_deref()
            .expect("--cluster requires --router HOST:PORT"),
    );
    let replicas: Vec<std::net::SocketAddr> = args.replicas.iter().map(|r| resolve(r)).collect();
    assert!(
        replicas.len() >= 2,
        "--cluster requires at least two --replica flags"
    );

    // The ring must be complete before affinity means anything.
    let ring_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = HttpClient::new(router)
            .request_text("GET", "/readyz", None)
            .unwrap_or((0, String::new()));
        let ready = si_service::json::parse(&body)
            .ok()
            .and_then(|v| {
                v.get("ready_replicas")
                    .and_then(si_service::json::Json::as_f64)
            })
            .unwrap_or(0.0);
        if status == 200 && ready == replicas.len() as f64 {
            break;
        }
        assert!(
            Instant::now() < ring_deadline,
            "router ring never completed: {ready} of {} replicas ready",
            replicas.len()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Transient jobs, not DC: each submission pays `--steps` solves, so a
    // one-worker replica is compute-bound and the cluster-vs-single gate
    // measures process parallelism rather than HTTP overhead.
    let topologies = args.cold;
    let spec = |t: usize, rep: usize| JobSpec::DelayLineTran {
        stages: args.stages + t,
        bias_ua: 20.0,
        input_ua: 0.5 + 0.01 * rep as f64,
        steps: args.steps,
        dt_ns: 50.0,
        clock_hz: 1e6,
    };
    let body = |t: usize, rep: usize| spec(t, rep).to_json().to_string_compact();

    // Warmup: one job per topology seeds each shard owner (and the
    // router's routed-key memory). The per-shard `forwards` delta around
    // each submission reveals which replica owns the topology — the
    // throughput phases need that map, because with a handful of keys on
    // the ring, raw ownership is badly skewed (a 12-key draw over 3
    // replicas routinely lands 7/4/1) and an ownership-blind workload
    // would measure the busiest shard, not the cluster.
    let shard_forwards = |router: std::net::SocketAddr| -> Vec<f64> {
        HttpClient::new(router)
            .request_text("GET", "/metrics", None)
            .ok()
            .and_then(|(status, body)| (status == 200).then_some(body))
            .and_then(|body| si_service::json::parse(&body).ok())
            .and_then(|m| match m.get("shards") {
                Some(si_service::json::Json::Array(shards)) => Some(
                    shards
                        .iter()
                        .map(|s| {
                            s.get("forwards")
                                .and_then(si_service::json::Json::as_f64)
                                .unwrap_or(0.0)
                        })
                        .collect(),
                ),
                _ => None,
            })
            .unwrap_or_default()
    };
    let mut owner_of = Vec::with_capacity(topologies);
    for t in 0..topologies {
        let before = shard_forwards(router);
        submit_cluster(router, &body(t, 0), 0)
            .unwrap_or_else(|e| panic!("warmup of topology {t} failed: {e}"));
        let after = shard_forwards(router);
        let owner = after
            .iter()
            .zip(before.iter())
            .position(|(a, b)| a > b)
            .unwrap_or(0);
        owner_of.push(owner);
    }
    let mut by_owner: Vec<Vec<usize>> = vec![Vec::new(); replicas.len()];
    for (t, &o) in owner_of.iter().enumerate() {
        by_owner[o].push(t);
    }
    if by_owner.iter().any(Vec::is_empty) {
        eprintln!(
            "FAIL: a replica owns no topology (ownership {owner_of:?}); raise --cold so every shard draws keys"
        );
        std::process::exit(1);
    }

    // Affinity: topology-major blocks of distinct-value jobs, with a
    // barrier between blocks so at most one topology is in flight. Each
    // replica's sparse workspace holds ONE symbolic factorization (the
    // last topology it solved), so perfect routing costs exactly one
    // symbolic miss per block — any misroute forces extra rebuilds.
    const BLOCK_REPS: usize = 4;
    let sym_misses = |replicas: &[std::net::SocketAddr]| -> f64 {
        replicas
            .iter()
            .map(|&r| scrape(r, "engine", "symbolic_cache_misses"))
            .sum()
    };
    let misses_before = sym_misses(&replicas);
    for t in 0..topologies {
        let bodies: Vec<String> = (1..=BLOCK_REPS).map(|rep| body(t, rep)).collect();
        let phase = run_cluster_phase(router, &bodies, args.clients.min(BLOCK_REPS), None);
        assert_eq!(phase.lost, 0, "affinity block {t} lost jobs");
    }
    let miss_delta = sym_misses(&replicas) - misses_before;
    if miss_delta < 1.0 {
        eprintln!(
            "FAIL: the workload never engaged the sparse symbolic path (raise --stages; replicas must run --workers 1)"
        );
        std::process::exit(1);
    }
    let affinity = (topologies as f64 / miss_delta).min(1.0);

    // Throughput, cluster vs. single replica: the same interleaved
    // distinct-value workload through the router versus directly against
    // one replica. The topology sequence cycles *owners* round-robin
    // (then each owner's topologies in turn), so every replica receives
    // exactly 1/R of the jobs regardless of how the ring skewed the raw
    // topology draw, and every blocking client's chain spreads over all
    // replicas instead of convoying on one shard. The bar is 2x with
    // R >= 2 replicas.
    let balanced_topology = |k: usize| -> usize {
        let list = &by_owner[k % replicas.len()];
        list[(k / replicas.len()) % list.len()]
    };
    let hot_bodies: Vec<String> = (0..args.hot)
        .map(|k| body(balanced_topology(k), 1_000 + k))
        .collect();
    let cluster_phase = run_cluster_phase(router, &hot_bodies, args.clients, None);
    assert_eq!(cluster_phase.lost, 0, "cluster hot phase lost jobs");
    let single_bodies: Vec<String> = (0..args.hot)
        .map(|k| body(balanced_topology(k), 100_000 + k))
        .collect();
    let single_phase = run_cluster_phase(replicas[0], &single_bodies, args.clients, None);
    assert_eq!(single_phase.lost, 0, "single-replica phase lost jobs");
    let throughput = |n: usize, wall: Duration| n as f64 / wall.as_secs_f64().max(1e-9);
    let throughput_cluster = throughput(args.hot, cluster_phase.wall);
    let throughput_single = throughput(args.hot, single_phase.wall);
    let scaling = throughput_cluster / throughput_single.max(1e-9);

    // A single replica saturates one core, so the cluster only shows
    // process parallelism when each replica gets a core of its own (plus
    // change for the router and clients). Scale the bar to the hardware:
    // strict 2x where a core per replica exists (CI's 4-core runners),
    // a no-collapse floor on starved containers where the replicas time-
    // share one or two cores and 2x is physically impossible.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let scaling_bar = if cores > replicas.len() {
        2.0
    } else if cores >= 2 {
        1.2
    } else {
        0.5
    };

    // Kill storm: re-run the workload and SIGKILL the given replica a
    // quarter of the way in. Content-addressed jobs + router failover +
    // client retries must lose nothing and drift nothing.
    let kill = args.kill_pid.map(|pid| {
        let reroutes_before = scrape(router, "router", "reroutes");
        let kill_bodies: Vec<String> = (0..args.hot)
            .map(|k| body(balanced_topology(k), 200_000 + k))
            .collect();
        let completed = AtomicU64::new(0);
        let phase = std::thread::scope(|scope| {
            let completed = &completed;
            let killer = scope.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(60);
                while completed.load(Ordering::Relaxed) < (args.hot / 4) as u64
                    && Instant::now() < deadline
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
                let status = std::process::Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .status();
                if !status.map(|s| s.success()).unwrap_or(false) {
                    eprintln!("warning: could not SIGKILL pid {pid}");
                }
            });
            let phase = run_cluster_phase(router, &kill_bodies, args.clients, Some(completed));
            killer.join().expect("killer thread");
            phase
        });
        // Every response must be bit-identical to a fresh solve.
        let mut ws = si_analog::engine::EngineWorkspace::new();
        let mut bit_mismatches = 0u64;
        for (k, payload) in phase.responses.iter().enumerate() {
            let ok = payload.as_deref().is_some_and(|p| {
                response_matches_fresh_solve(p, &spec(balanced_topology(k), 200_000 + k), &mut ws)
            });
            if !ok && payload.is_some() {
                bit_mismatches += 1;
            }
        }
        let reroutes = scrape(router, "router", "reroutes") - reroutes_before;
        (phase, bit_mismatches, reroutes)
    });

    let mut report = RunReport::new("si_loadgen_cluster");
    report.note("mode", "cluster");
    report.note(
        "workload",
        format!(
            "{topologies} topologies (stages {}..{}), {} jobs/phase, {} clients, {} replicas",
            args.stages,
            args.stages + topologies - 1,
            args.hot,
            args.clients,
            replicas.len()
        ),
    );
    report.metric("replicas", replicas.len() as f64);
    report.metric("topologies", topologies as f64);
    report.metric("shard_affinity", affinity);
    report.metric("symbolic_miss_delta", miss_delta);
    report.metric("throughput_cluster_jps", throughput_cluster);
    report.metric("throughput_single_jps", throughput_single);
    report.metric("cluster_scaling", scaling);
    report.metric("cluster_scaling_bar", scaling_bar);
    report.metric("cores", cores as f64);
    report.metric(
        "ring_generation",
        scrape(router, "router", "ring_generation"),
    );
    report.metric("router_routed", scrape(router, "router", "routed"));
    if let Some((phase, bit_mismatches, reroutes)) = &kill {
        report.metric("kill_lost_jobs", phase.lost as f64);
        report.metric("kill_bit_mismatches", *bit_mismatches as f64);
        report.metric("kill_reroutes", *reroutes);
    }
    let dir = experiments_dir();
    match report.write(&dir) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    println!(
        "cluster {throughput_cluster:.1} jobs/s | single {throughput_single:.1} jobs/s | \
         scaling {scaling:.2}x (bar {scaling_bar}x, {cores} cores) | affinity {affinity:.3}"
    );

    let mut failed = false;
    if affinity < 0.9 {
        eprintln!("FAIL: shard affinity {affinity:.3} below the 0.9 bar ({miss_delta} symbolic misses over {topologies} blocks)");
        failed = true;
    }
    if scaling < scaling_bar {
        eprintln!(
            "FAIL: cluster throughput is only {scaling:.2}x a single replica (bar: {scaling_bar}x on {cores} cores)"
        );
        failed = true;
    }
    if let Some((phase, bit_mismatches, reroutes)) = &kill {
        if phase.lost > 0 {
            eprintln!("FAIL: {} jobs lost during the replica kill", phase.lost);
            failed = true;
        }
        if *bit_mismatches > 0 {
            eprintln!(
                "FAIL: {bit_mismatches} kill-storm responses differ bitwise from a fresh solve"
            );
            failed = true;
        }
        if *reroutes < 1.0 {
            eprintln!("FAIL: the router never rerouted around the killed replica");
            failed = true;
        }
        println!(
            "kill storm: 0 lost of {} | {reroutes} reroutes | {bit_mismatches} bit mismatches",
            args.hot
        );
    }
    if failed {
        std::process::exit(1);
    }
}

/// The `--stream` run: resumed-vs-uninterrupted A/B over the same 64K
/// streaming job. Exits nonzero on gate failure.
fn run_stream(args: &Args) {
    use si_service::{FaultInjector, FaultPlan};

    // A single injected mid-chunk panic is expected; keep its backtrace
    // out of the report while letting real panics print.
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

    let spec = JobSpec::TranStream {
        stages: 3,
        bias_ua: 20.0,
        input_ua: 2.0,
        steps: 1 << 16,
        dt_ns: 50.0,
        clock_hz: 2.0e6,
        chunk_steps: 4096, // 16 chunks, one checkpoint each
        seg_len: 4096,
    };
    let chunks_total = spec.stream_chunk_count().expect("streaming spec") as f64;
    let reference = spec
        .run(&mut si_analog::engine::EngineWorkspace::new())
        .expect("in-process reference solve");
    let bit_identical = |values: &[f64]| {
        values.len() == reference.values.len()
            && values
                .iter()
                .zip(reference.values.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    };

    let tmpdir = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("si-loadgen-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let config = |dir: std::path::PathBuf| ServiceConfig {
        workers: 1,
        queue_capacity: args.queue,
        default_deadline: None,
        cache_dir: Some(dir),
        ..ServiceConfig::default()
    };

    // A: uninterrupted. Checkpoints are written every chunk here too, so
    // the wall-time baseline already pays the write-through cost.
    let dir_plain = tmpdir("plain");
    let plain = Arc::new(SiService::new(config(dir_plain.clone())));
    let start = Instant::now();
    let (out_plain, _) = plain
        .submit_blocking(&spec, None)
        .expect("uninterrupted streaming run");
    let wall_plain = start.elapsed();
    plain.shutdown();

    // B: one mid-chunk worker panic; the retry must resume from the last
    // checkpoint instead of rerunning the chunks already solved.
    let dir_faulted = tmpdir("faulted");
    let faulted = Arc::new(SiService::new(config(dir_faulted.clone())));
    faulted.install_fault_injector(Arc::new(FaultInjector::new(FaultPlan::mid_chunk(7, 1))));
    let start = Instant::now();
    let (out_faulted, _) = faulted
        .submit_blocking(&spec, None)
        .expect("resumed streaming run");
    let wall_resumed = start.elapsed();

    let faults = faulted.fault_stats();
    let metrics = faulted.metrics();
    let service_counter = |key: &str| {
        metrics
            .get("service")
            .and_then(|s| s.get(key))
            .and_then(si_service::json::Json::as_f64)
            .unwrap_or(0.0)
    };
    let stream_resumed = service_counter("stream_resumed");
    let stream_chunks = service_counter("stream_chunks");
    let overhead = wall_resumed.as_secs_f64() / wall_plain.as_secs_f64().max(1e-9);

    let mut failures: Vec<String> = Vec::new();
    if !bit_identical(&out_plain.values) {
        failures.push("uninterrupted spectrum differs from the in-process reference".to_string());
    }
    if !bit_identical(&out_faulted.values) {
        failures.push("resumed spectrum differs from the in-process reference".to_string());
    }
    if faults.panic_mid_chunks < 1 {
        failures.push("no mid-chunk panic was injected (gate exercised nothing)".to_string());
    }
    if stream_resumed < 1.0 {
        failures.push("faulted service never resumed from a checkpoint".to_string());
    }
    if overhead >= 1.5 {
        failures.push(format!(
            "resumed run took {overhead:.2}x the uninterrupted run (bar: < 1.5x)"
        ));
    }

    let mut report = RunReport::new("si_loadgen_stream");
    report.note(
        "plan",
        format!(
            "64K-sample tran_stream ({chunks_total} chunks), uninterrupted vs one \
             injected mid-chunk panic + checkpoint resume"
        ),
    );
    report.metric("chunks_total", chunks_total);
    report.metric("wall_plain_s", wall_plain.as_secs_f64());
    report.metric("wall_resumed_s", wall_resumed.as_secs_f64());
    report.metric("resume_overhead_ratio", overhead);
    report.metric("stream_resumed", stream_resumed);
    report.metric("stream_chunks_faulted_run", stream_chunks);
    report.metric("panic_mid_chunks", faults.panic_mid_chunks as f64);
    report.metric(
        "bit_identical",
        f64::from(u8::from(bit_identical(&out_faulted.values))),
    );
    let dir = experiments_dir();
    match report.write(&dir) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    println!(
        "stream: plain {:.2}s | resumed {:.2}s ({overhead:.2}x) | {stream_chunks} chunk \
         solves after 1 panic | resumed {stream_resumed} time(s)",
        wall_plain.as_secs_f64(),
        wall_resumed.as_secs_f64(),
    );

    faulted.shutdown();
    let _ = std::fs::remove_dir_all(&dir_plain);
    let _ = std::fs::remove_dir_all(&dir_faulted);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("stream run survived: all gates passed");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    if args.cluster {
        run_cluster(&args);
        return;
    }
    if args.stream {
        run_stream(&args);
        return;
    }

    // The restart phase needs results to outlive the first service
    // instance, so it runs with the persistent disk tier enabled.
    let cache_dir = args.restart.then(|| {
        let dir = std::env::temp_dir().join(format!("si-loadgen-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });

    let config = |cache_dir: Option<std::path::PathBuf>| ServiceConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        default_deadline: None,
        cache_dir,
        ..ServiceConfig::default()
    };
    let service = Arc::new(SiService::new(config(cache_dir.clone())));
    let mut server = None;
    let client: Box<dyn Client> = if args.http {
        let srv = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
        let addr = srv.local_addr();
        server = Some(srv);
        Box::new(OverHttp(addr))
    } else {
        Box::new(InProcess(Arc::clone(&service)))
    };

    // Cold: every spec distinct → all misses, all real solves.
    let cold_specs: Vec<JobSpec> = (0..args.cold).map(|k| job(&args, k)).collect();
    let cold = run_phase(client.as_ref(), &cold_specs, args.clients);

    // Hot: 90 % duplicates drawn from the cold working set (already
    // cached), 10 % fresh. The duplicate index cycles deterministically.
    let hot_specs: Vec<JobSpec> = (0..args.hot)
        .map(|k| {
            if k % 10 == 9 {
                job(&args, args.cold + k) // fresh → miss
            } else {
                job(&args, k % args.cold) // repeat → hit
            }
        })
        .collect();
    let hot = run_phase(client.as_ref(), &hot_specs, args.clients);

    // Batch phase (ISSUE 6): the same scenario set as N single DC jobs
    // versus one batch job. Distinct input currents give every single job
    // its own cache key, so both sides pay for real solves.
    let batch_cmp = args.batch.then(|| {
        let inputs: Vec<f64> = (0..args.scenarios).map(|k| 0.5 + 0.05 * k as f64).collect();
        let single_specs: Vec<JobSpec> = inputs
            .iter()
            .map(|&input_ua| JobSpec::DelayLineDc {
                stages: args.stages,
                bias_ua: 20.0,
                input_ua,
            })
            .collect();
        let singles = run_phase(client.as_ref(), &single_specs, args.clients);
        let batch_spec = JobSpec::DelayLineDcBatch {
            stages: args.stages,
            bias_ua: 20.0,
            inputs_ua: inputs,
        };
        let batch = run_phase(client.as_ref(), std::slice::from_ref(&batch_spec), 1);
        (singles, batch)
    });

    // Restart phase (ISSUE 8): tear the warm service down — the pool
    // drains, so every write-through to the disk tier has landed — and
    // bring a fresh instance up on the same cache directory. Replaying
    // the hot workload now exercises the disk tier: the memory tier is
    // empty, so every working-set key must be promoted from disk instead
    // of re-solved.
    let restart_cmp = args.restart.then(|| {
        if let Some(mut srv) = server.take() {
            srv.shutdown();
        } else {
            service.shutdown();
        }
        let restarted = Arc::new(SiService::new(config(cache_dir.clone())));
        let restarted_client: Box<dyn Client> = if args.http {
            let srv =
                HttpServer::bind("127.0.0.1:0", Arc::clone(&restarted)).expect("rebind loopback");
            let addr = srv.local_addr();
            server = Some(srv);
            Box::new(OverHttp(addr))
        } else {
            Box::new(InProcess(Arc::clone(&restarted)))
        };
        let phase = run_phase(restarted_client.as_ref(), &hot_specs, args.clients);
        // Zero correctness drift: every disk-served working-set result
        // must equal a fresh solve on a brand-new workspace, bit for bit.
        let mut fresh_ws = si_analog::engine::EngineWorkspace::new();
        let mut bit_mismatches = 0u64;
        for spec in &cold_specs {
            let served = restarted
                .submit_blocking(spec, None)
                .expect("post-restart resolve")
                .0;
            let fresh = spec.run(&mut fresh_ws).expect("fresh solve");
            let identical = served.values.len() == fresh.values.len()
                && served
                    .values
                    .iter()
                    .zip(fresh.values.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !identical {
                bit_mismatches += 1;
            }
        }
        (restarted, phase, bit_mismatches)
    });

    let throughput = |n: usize, wall: Duration| n as f64 / wall.as_secs_f64().max(1e-9);
    let throughput_cold = throughput(args.cold, cold.wall);
    let throughput_hot = throughput(args.hot, hot.wall);
    let speedup = throughput_hot / throughput_cold.max(1e-9);

    let metrics = service.metrics();
    let hit_ratio = metrics
        .get("cache")
        .and_then(|c| c.get("hit_ratio"))
        .and_then(si_service::json::Json::as_f64)
        .unwrap_or(0.0);

    let mut report = RunReport::new("si_loadgen");
    report.note("mode", if args.http { "http" } else { "in_process" });
    report.note(
        "workload",
        if args.netlist {
            format!(
                "{} cold + {} hot (90% duplicate) netlist-submitted NMOS ladders, {} rungs, {} clients",
                args.cold, args.hot, args.stages, args.clients
            )
        } else {
            format!(
                "{} cold + {} hot (90% duplicate) delay-line transients, {} stages x {} steps, {} clients",
                args.cold, args.hot, args.stages, args.steps, args.clients
            )
        },
    );
    report.metric("clients", args.clients as f64);
    report.metric("workers", args.workers as f64);
    report.metric("throughput_cold_jps", throughput_cold);
    report.metric("throughput_hot_jps", throughput_hot);
    report.metric("speedup", speedup);
    report.metric("cache_hit_ratio", hit_ratio);
    report.metric("hot_cached_responses", hot.cached as f64);
    report.metric("latency_cold_p50_us", percentile_us(&cold.latencies, 0.50));
    report.metric("latency_hot_p50_us", percentile_us(&hot.latencies, 0.50));
    report.metric("latency_hot_p95_us", percentile_us(&hot.latencies, 0.95));
    report.metric("latency_hot_p99_us", percentile_us(&hot.latencies, 0.99));
    report.metric("overloaded", (cold.overloaded + hot.overloaded) as f64);
    let mut total_errors = cold.errors + hot.errors;
    let mut batch_line = String::new();
    if let Some((singles, batch)) = &batch_cmp {
        let singles_sps = throughput(args.scenarios, singles.wall);
        let batch_sps = throughput(args.scenarios, batch.wall);
        let batch_speedup = batch_sps / singles_sps.max(1e-9);
        report.note(
            "batch_phase",
            format!(
                "{} DC scenarios as singles vs one delay_line_dc_batch job",
                args.scenarios
            ),
        );
        report.metric("batch_scenarios", args.scenarios as f64);
        report.metric("throughput_singles_sps", singles_sps);
        report.metric("throughput_batch_sps", batch_sps);
        report.metric("batch_speedup", batch_speedup);
        total_errors += singles.errors + batch.errors;
        batch_line = format!(" | batch {batch_speedup:.1}x over singles");
    }
    let mut restart_line = String::new();
    if let Some((restarted, phase, bit_mismatches)) = &restart_cmp {
        let throughput_restart = throughput(args.hot, phase.wall);
        let warm_over_restart = throughput_hot / throughput_restart.max(1e-9);
        let restarted_metrics = restarted.metrics();
        let disk = |key: &str| {
            restarted_metrics
                .get("cache")
                .and_then(|c| c.get(key))
                .and_then(si_service::json::Json::as_f64)
                .unwrap_or(0.0)
        };
        report.note(
            "restart_phase",
            format!(
                "hot workload replayed on a fresh instance over the same cache dir ({} entries on disk)",
                disk("disk_entries")
            ),
        );
        report.metric("throughput_restart_jps", throughput_restart);
        report.metric("restart_warm_ratio", warm_over_restart);
        report.metric("restart_disk_hits", disk("disk_hits"));
        report.metric("restart_disk_misses", disk("disk_misses"));
        report.metric("restart_cached_responses", phase.cached as f64);
        report.metric("restart_bit_mismatches", *bit_mismatches as f64);
        total_errors += phase.errors;
        restart_line = format!(
            " | restart {throughput_restart:.1} jobs/s ({warm_over_restart:.2}x warm, {} disk hits)",
            disk("disk_hits")
        );
    }
    report.metric("errors", total_errors as f64);
    report.set_solver(service.engine_stats());

    let dir = experiments_dir();
    match report.write(&dir) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    println!(
        "cold {throughput_cold:.1} jobs/s | hot {throughput_hot:.1} jobs/s | speedup {speedup:.1}x | hit ratio {hit_ratio:.3}{batch_line}{restart_line}"
    );

    if let Some(mut srv) = server.take() {
        srv.shutdown();
    } else if let Some((restarted, ..)) = &restart_cmp {
        restarted.shutdown();
    } else {
        service.shutdown();
    }
    if let Some(dir) = &cache_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    if let Some((restarted, phase, bit_mismatches)) = &restart_cmp {
        let throughput_restart = throughput(args.hot, phase.wall);
        let warm_over_restart = throughput_hot / throughput_restart.max(1e-9);
        let disk_hits = restarted
            .metrics()
            .get("cache")
            .and_then(|c| c.get("disk_hits"))
            .and_then(si_service::json::Json::as_f64)
            .unwrap_or(0.0);
        if warm_over_restart > 2.0 {
            eprintln!(
                "FAIL: cold-restart hot-phase throughput is {warm_over_restart:.2}x slower than warm (bar: 2x)"
            );
            std::process::exit(1);
        }
        if disk_hits < 1.0 {
            eprintln!("FAIL: restarted service served no result from the disk tier");
            std::process::exit(1);
        }
        if *bit_mismatches > 0 {
            eprintln!(
                "FAIL: {bit_mismatches} disk-served results differ bitwise from a fresh solve"
            );
            std::process::exit(1);
        }
    }

    if args.netlist {
        // The netlist bar: text-level duplicates MUST coalesce through the
        // canonical fingerprints (the cold phase already solved them all).
        let expected_hits = (0..args.hot).filter(|k| k % 10 != 9).count() as u64;
        if hot.cached < expected_hits {
            eprintln!(
                "FAIL: only {} of {expected_hits} duplicate netlists were served from cache",
                hot.cached
            );
            std::process::exit(1);
        }
    } else if speedup < 5.0 {
        eprintln!("FAIL: cache speedup {speedup:.2}x below the 5x acceptance bar");
        std::process::exit(1);
    }
    if total_errors > 0 {
        eprintln!("FAIL: {total_errors} job errors");
        std::process::exit(1);
    }
}
