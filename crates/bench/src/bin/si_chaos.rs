//! `si_chaos`: fault-injection soak harness for the job service.
//!
//! Installs a deterministic, seeded [`FaultPlan`] into a live service and
//! drives a concurrent workload through the resulting storm of worker
//! panics, stalls, and transient failures — plus, in `--http` mode,
//! client connections dropped mid-request-body. The run then disarms the
//! injector and verifies full recovery:
//!
//! 1. **No wedged requests** — every submission completes (possibly with
//!    a typed error after retries); the pool drains to zero in-flight.
//! 2. **No leaked state** — the cancellation-flag map is empty and no
//!    cache shard is poisoned.
//! 3. **Bit-identical cache** — after recovery, every distinct job's
//!    cached values equal a fresh solve on a brand-new workspace,
//!    bit for bit.
//!
//! The service runs the whole storm with its persistent disk tier
//! enabled, and a dedicated **kill-during-disk-write** fault class
//! (ISSUE 8) attacks the tier's atomic-rename protocol directly: a torn
//! `.sic` entry (writer killed mid-write on a non-atomic filesystem) is
//! planted at a fresh key and must be quarantined — counted in
//! `corrupt_evicted`, re-solved bit-identically, never served — and a
//! `.tmp-` leftover (writer killed *before* its rename) must be swept by
//! the next startup without ever becoming loadable.
//!
//! ```text
//! si_chaos [--http] [--jobs N] [--clients N] [--seed N] [--min-faults N]
//!          [--stages N] [--steps N] [--workers N] [--queue N]
//! si_chaos --replica-kill [--serve-bin PATH] [--replicas N] [--jobs N]
//!          [--clients N] [--seed N] [--stages N]
//! si_chaos --stream-kill [--serve-bin PATH]
//! ```
//!
//! `--stream-kill` (ISSUE 10) attacks the streaming checkpoint/resume
//! path with the harshest fault available: a real `si_serve` child is
//! SIGKILLed mid-chunk through a 64K-sample streaming job, restarted on
//! the same cache directory, and the resubmitted job must *resume* from
//! the last persisted checkpoint — `stream_resumed ≥ 1`, fewer chunk
//! solves than two full runs — and produce a spectrum bit-identical to
//! an uninterrupted in-process run. Per-chunk progress must have been
//! observable over `GET /v1/jobs/:id` before the kill.
//!
//! `--replica-kill` (ISSUE 9) is a separate fault class at cluster
//! scope: it spawns N real `si_serve` child processes (one worker each,
//! persistent disk tiers), fronts them with an in-process
//! [`RouterServer`](si_service::RouterServer), and SIGKILLs the
//! *busiest* replica — the one with the most forwards on the ring — a
//! quarter of the way through a distinct-job storm. The gates: every job
//! completes through client retries (zero lost), the router reroutes at
//! least once and bumps its ring generation, the dead replica leaves the
//! ring, and every response is bit-identical to a fresh in-process solve.
//!
//! Exit code 0 only when at least `--min-faults` faults were injected
//! AND every gate above holds; the [`RunReport`] records the full tally.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use si_bench::gate::{self, metric, same_bits, svc_counter, FlagValues};
use si_bench::netfuzz;
use si_bench::run_report::RunReport;
use si_service::http::{HttpClient, HttpConfig, HttpServer};
use si_service::jobspec::JobSpec;
use si_service::service::{ServiceConfig, SiService};
use si_service::{
    CacheTier, DiskTier, DiskTierConfig, FaultInjector, FaultKind, FaultPlan, RetryPolicy,
    ServiceError,
};

struct Args {
    http: bool,
    jobs: usize,
    clients: usize,
    seed: u64,
    min_faults: u64,
    stages: usize,
    steps: usize,
    workers: usize,
    queue: usize,
    replica_kill: bool,
    serve_bin: Option<String>,
    replicas: usize,
    stream_kill: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            http: false,
            jobs: 300,
            clients: 4,
            seed: 42,
            min_faults: 50,
            stages: 16,
            steps: 48,
            workers: 4,
            queue: 64,
            replica_kill: false,
            serve_bin: None,
            replicas: 3,
            stream_kill: false,
        }
    }
}

fn apply_flag(args: &mut Args, flag: &str, v: &mut FlagValues<'_>) -> Result<bool, String> {
    match flag {
        "--http" => args.http = true,
        "--jobs" => args.jobs = v.int(flag)?.max(1),
        "--clients" => args.clients = v.int(flag)?.max(1),
        "--seed" => args.seed = v.int(flag)? as u64,
        "--min-faults" => args.min_faults = v.int(flag)? as u64,
        "--stages" => args.stages = v.int(flag)?.max(1),
        "--steps" => args.steps = v.int(flag)?.max(1),
        "--workers" => args.workers = v.int(flag)?.max(1),
        "--queue" => args.queue = v.int(flag)?.max(1),
        "--replica-kill" => args.replica_kill = true,
        "--serve-bin" => args.serve_bin = Some(v.string(flag)?),
        "--replicas" => args.replicas = v.int(flag)?.max(2),
        "--stream-kill" => args.stream_kill = true,
        _ => return Ok(false),
    }
    Ok(true)
}

/// The `k`-th distinct job of the working set.
fn job(args: &Args, k: usize) -> JobSpec {
    gate::tran_job(args.stages, args.steps, k)
}

/// Maps a non-200 HTTP error body back to a typed error so the client
/// retry loop can reuse [`ServiceError::is_client_retryable`].
fn typed_http_error(status: u16, payload: &str) -> ServiceError {
    for (code, err) in [
        (
            "\"overloaded\"",
            ServiceError::Overloaded { queue_capacity: 0 },
        ),
        (
            "\"transient\"",
            ServiceError::Transient("http transient".to_string()),
        ),
        (
            "\"internal\"",
            ServiceError::Internal("http internal".to_string()),
        ),
        ("\"shutting_down\"", ServiceError::ShuttingDown),
    ] {
        if payload.contains(code) {
            return err;
        }
    }
    ServiceError::Analysis(format!("status {status}: {payload}"))
}

/// One client submission with client-side retry/backoff on retryable
/// errors (`Overloaded`, `Transient`, `Internal`, injected drops).
/// Returns the retries it spent, or the final error.
struct ChaosClient {
    service: Arc<SiService>,
    addr: Option<std::net::SocketAddr>,
    /// Client-side fault schedule (connection drops); `None` in-process.
    drops: Option<Arc<FaultInjector>>,
    policy: RetryPolicy,
}

impl ChaosClient {
    fn submit(&self, spec: &JobSpec) -> Result<u64, ServiceError> {
        let mut retries = 0u64;
        let mut attempt = 0u32;
        loop {
            let result = match self.addr {
                None => self.service.submit_blocking(spec, None).map(|_| ()),
                Some(addr) => self.submit_http(addr, spec),
            };
            match result {
                Ok(()) => return Ok(retries),
                Err(e) if e.is_client_retryable() => match self.policy.delay(attempt) {
                    Some(delay) => {
                        retries += 1;
                        attempt += 1;
                        std::thread::sleep(delay);
                    }
                    None => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
    }

    fn submit_http(&self, addr: std::net::SocketAddr, spec: &JobSpec) -> Result<(), ServiceError> {
        let body = spec.to_json().to_string_compact();
        // Client-side fault: drop a connection mid-body first, then issue
        // the real request (the drop itself never carries the job).
        if let Some(drops) = &self.drops {
            if drops.next_fault() == Some(FaultKind::DropConnection) {
                let _ = http_drop_mid_body(addr, "/v1/jobs", &body, body.len() / 2);
            }
        }
        let (status, payload) = HttpClient::new(addr)
            .request_text("POST", "/v1/jobs", Some(&body))
            .map_err(|e| ServiceError::Internal(format!("http: {e}")))?;
        if status == 200 {
            Ok(())
        } else {
            Err(typed_http_error(status, payload.as_str()))
        }
    }
}

// ---- replica-kill fault class (ISSUE 9) -------------------------------

/// One spawned `si_serve` child and where it listens.
struct SpawnedReplica {
    child: std::sync::Mutex<Option<std::process::Child>>,
    addr: std::net::SocketAddr,
    cache_dir: std::path::PathBuf,
}

/// Spawns `si_serve --workers 1` on an ephemeral port with its own disk
/// tier and scrapes the bound address off its first stdout line.
fn spawn_replica(serve_bin: &std::path::Path, tag: usize) -> SpawnedReplica {
    spawn_replica_at(
        serve_bin,
        gate::fresh_temp_dir(&format!("si-chaos-replica-{tag}")),
    )
}

/// Like [`spawn_replica`] but over a caller-owned cache directory, which
/// is NOT wiped first — the stream-kill run uses this to restart a
/// killed replica on its surviving disk tier.
fn spawn_replica_at(serve_bin: &std::path::Path, cache_dir: std::path::PathBuf) -> SpawnedReplica {
    use std::io::BufRead;
    let mut child = std::process::Command::new(serve_bin)
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--queue", "32"])
        .arg("--cache-dir")
        .arg(&cache_dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", serve_bin.display()));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read replica banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected replica banner {line:?}"))
        .parse()
        .expect("replica address");
    SpawnedReplica {
        child: std::sync::Mutex::new(Some(child)),
        addr,
        cache_dir,
    }
}

/// Resolves the `si_serve` binary next to this one (or `--serve-bin`).
fn serve_bin_path(args: &Args) -> std::path::PathBuf {
    let serve_bin = args.serve_bin.as_ref().map_or_else(
        || {
            std::env::current_exe()
                .expect("current exe")
                .parent()
                .expect("bin dir")
                .join("si_serve")
        },
        std::path::PathBuf::from,
    );
    assert!(
        serve_bin.exists(),
        "si_serve binary not found at {} (build it or pass --serve-bin)",
        serve_bin.display()
    );
    serve_bin
}

/// The `--replica-kill` run: real `si_serve` children behind an
/// in-process [`RouterServer`](si_service::RouterServer); the busiest
/// replica is SIGKILLed a quarter of the way through the storm. Exits
/// nonzero on gate failure.
fn run_replica_kill(args: &Args) {
    use si_service::router::{RouterConfig, RouterServer};

    let serve_bin = serve_bin_path(args);

    let replicas: Vec<SpawnedReplica> = (0..args.replicas)
        .map(|i| spawn_replica(&serve_bin, i))
        .collect();
    let server = RouterServer::bind(
        "127.0.0.1:0",
        RouterConfig {
            replicas: replicas.iter().map(|r| r.addr.to_string()).collect(),
            probe_interval: Duration::from_millis(50),
            retry: RetryPolicy {
                max_retries: 6,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(200),
                multiplier: 2,
                jitter_seed: Some(args.seed),
            },
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let router = Arc::clone(server.router());
    let router_addr = server.local_addr();

    // All replicas must join the ring before the storm starts.
    let ready_deadline = Instant::now() + Duration::from_secs(30);
    while metric(&router.metrics(), "router", "ready_replicas") < args.replicas as f64 {
        assert!(
            Instant::now() < ready_deadline,
            "replicas never all became ready"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let generation_before = router.ring_generation();

    // The storm: distinct DC jobs over a rotating topology set, so every
    // replica owns live work when the kill lands.
    const TOPOLOGIES: usize = 12;
    let specs: Vec<JobSpec> = (0..args.jobs)
        .map(|k| JobSpec::DelayLineDc {
            stages: args.stages + (k % TOPOLOGIES),
            bias_ua: 20.0,
            input_ua: 0.5 + 0.01 * k as f64,
        })
        .collect();
    let bodies: Vec<String> = specs
        .iter()
        .map(|s| s.to_json().to_string_compact())
        .collect();
    let completed = AtomicU64::new(0);
    let lost = AtomicU64::new(0);
    let killed_name = std::sync::Mutex::new(String::new());
    let responses: Vec<std::sync::Mutex<Option<String>>> =
        bodies.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let storm_started = Instant::now();
    std::thread::scope(|scope| {
        // The killer: wait for a quarter of the storm, pick the replica
        // with the most forwards on the ring, SIGKILL it.
        scope.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(60);
            while completed.load(Ordering::Relaxed) < (args.jobs / 4) as u64
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            let busiest = gate::shard_forwards(&router.metrics())
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(name, _)| name);
            let Some(victim) = busiest else {
                eprintln!("killer found no shard to target");
                return;
            };
            if let Some(replica) = replicas.iter().find(|r| r.addr.to_string() == victim) {
                if let Some(child) = replica.child.lock().unwrap().as_mut() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                *killed_name.lock().unwrap() = victim;
            } else {
                eprintln!("killer could not map shard {victim:?} to a child");
            }
        });
        for c in 0..args.clients {
            let bodies = &bodies;
            let responses = &responses;
            let completed = &completed;
            let lost = &lost;
            scope.spawn(move || {
                for (k, body) in bodies.iter().enumerate().skip(c).step_by(args.clients) {
                    match gate::post_job(router_addr, body, args.seed.wrapping_add(7)) {
                        Ok(payload) => {
                            *responses[k].lock().unwrap() = Some(payload);
                        }
                        Err(e) => {
                            if lost.fetch_add(1, Ordering::Relaxed) < 3 {
                                eprintln!("storm job {k} lost: {e}");
                            }
                        }
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let storm_wall = storm_started.elapsed();
    let killed = killed_name.into_inner().unwrap();

    let mut failures: Vec<String> = Vec::new();
    if killed.is_empty() {
        failures.push("no replica was killed during the storm".to_string());
    }
    if lost.load(Ordering::Relaxed) > 0 {
        failures.push(format!(
            "{} jobs lost to the replica kill",
            lost.load(Ordering::Relaxed)
        ));
    }

    // The dead replica must leave the ring (probe flips it unready and
    // bumps the generation) while the survivors keep serving.
    let leave_deadline = Instant::now() + Duration::from_secs(10);
    while !killed.is_empty()
        && metric(&router.metrics(), "router", "ready_replicas") >= args.replicas as f64
        && Instant::now() < leave_deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = router.metrics();
    let ready_after = metric(&metrics, "router", "ready_replicas");
    let reroutes = metric(&metrics, "router", "reroutes");
    let no_backend = metric(&metrics, "router", "no_backend");
    if !killed.is_empty() && ready_after >= args.replicas as f64 {
        failures.push(format!(
            "killed replica {killed} never left the ring ({ready_after} still ready)"
        ));
    }
    if reroutes < 1.0 {
        failures.push("the router never rerouted around the dead replica".to_string());
    }
    if router.ring_generation() <= generation_before {
        failures.push("ring generation did not bump on the membership change".to_string());
    }

    // Zero drift: every response bit-identical to a fresh solve.
    let mut fresh_ws = si_analog::engine::EngineWorkspace::new();
    let mut bit_mismatches = 0u64;
    for (k, slot) in responses.iter().enumerate() {
        let Some(payload) = slot.lock().unwrap().clone() else {
            continue; // already counted as lost
        };
        let values = gate::response_values(&payload).unwrap_or_default();
        let fresh = specs[k].run(&mut fresh_ws).expect("fresh solve");
        if !same_bits(&values, &fresh.values) {
            bit_mismatches += 1;
        }
    }
    if bit_mismatches > 0 {
        failures.push(format!(
            "{bit_mismatches} storm responses differ bitwise from a fresh solve"
        ));
    }

    let mut report = RunReport::new("si_chaos_replica_kill");
    report.note(
        "plan",
        format!(
            "{} si_serve replicas (1 worker each), {} jobs over {TOPOLOGIES} topologies, \
             {} clients, busiest replica SIGKILLed at 25%",
            args.replicas, args.jobs, args.clients
        ),
    );
    report.note(
        "killed_replica",
        if killed.is_empty() { "none" } else { &killed },
    );
    report.metric("replicas", args.replicas as f64);
    report.metric("jobs", args.jobs as f64);
    report.metric("jobs_lost", lost.load(Ordering::Relaxed) as f64);
    report.metric("bit_mismatches", bit_mismatches as f64);
    report.metric("reroutes", reroutes);
    report.metric("no_backend", no_backend);
    report.metric("ready_after_kill", ready_after);
    report.metric("ring_generation", router.ring_generation() as f64);
    report.metric("router_routed", metric(&metrics, "router", "routed"));
    report.metric("storm_wall_s", storm_wall.as_secs_f64());
    println!(
        "replica kill: {} of {} jobs lost | killed {} | {reroutes} reroutes | \
         {bit_mismatches} bit mismatches",
        lost.load(Ordering::Relaxed),
        args.jobs,
        if killed.is_empty() {
            "nothing"
        } else {
            &killed
        },
    );

    drop(server);
    for replica in &replicas {
        if let Some(mut child) = replica.child.lock().unwrap().take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&replica.cache_dir);
    }
    gate::finish(
        &report,
        &failures,
        Some("replica-kill run survived: all gates passed"),
    );
}

// ---- stream-kill fault class (ISSUE 10) -------------------------------

/// The `--stream-kill` run: SIGKILL a real `si_serve` child mid-chunk
/// through a 64K-sample streaming job, restart it on the same cache
/// directory, and gate that the resubmission *resumes* from the last
/// checkpoint and finishes bit-identical to an uninterrupted run.
fn run_stream_kill(args: &Args) {
    let serve_bin = serve_bin_path(args);
    let spec = gate::stream_64k();
    let chunks_total = spec.stream_chunk_count().expect("streaming spec") as f64;
    let id = SiService::job_id(&spec);
    let body = spec.to_json().to_string_compact();
    let path = format!("/v1/jobs/{id}");

    // The uninterrupted reference runs the exact same chunked executor
    // in-process; killed-and-resumed must match it bit for bit.
    let reference = spec
        .run(&mut si_analog::engine::EngineWorkspace::new())
        .expect("uninterrupted reference solve");

    let cache_dir = gate::fresh_temp_dir("si-chaos-stream");
    let replica = spawn_replica_at(&serve_bin, cache_dir.clone());
    let addr = replica.addr;

    let mut failures: Vec<String> = Vec::new();

    // The poster blocks inside the long POST; the kill cuts it off with a
    // transport error, which is the expected outcome of this phase.
    let poster = std::thread::spawn(move || {
        HttpClient::new(addr).request_text("POST", "/v1/jobs", Some(&body))
    });

    // Poll progress until at least two chunks completed — so at least two
    // checkpoints exist — then SIGKILL the worker process mid-run.
    let mut observed_done = 0.0_f64;
    let poll_deadline = Instant::now() + Duration::from_secs(120);
    while observed_done < 2.0 && Instant::now() < poll_deadline {
        if let Ok((202, payload)) = HttpClient::new(addr).request_text("GET", &path, None) {
            let progress = si_service::json::parse(&payload).ok();
            if let Some(v) = progress.and_then(|v| v.get("chunks_done")?.as_f64()) {
                observed_done = v;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if observed_done < 2.0 {
        failures.push(format!(
            "progress polling never observed 2 completed chunks (saw {observed_done})"
        ));
    }
    if let Some(child) = replica.child.lock().unwrap().as_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = poster.join(); // transport error expected; nothing to assert

    // Restart on the SAME cache directory: the checkpoints survived the
    // SIGKILL (atomic rename), so the resubmission resumes.
    let restarted = spawn_replica_at(&serve_bin, cache_dir.clone());
    let resume_started = Instant::now();
    let resumed_payload = match HttpClient::new(restarted.addr).request_text(
        "POST",
        "/v1/jobs",
        Some(&spec.to_json().to_string_compact()),
    ) {
        Ok((200, payload)) => payload,
        Ok((status, payload)) => {
            failures.push(format!("resubmission answered {status}: {payload}"));
            String::new()
        }
        Err(e) => {
            failures.push(format!("resubmission transport error: {e}"));
            String::new()
        }
    };
    let resume_wall = resume_started.elapsed();

    let values = gate::response_values(&resumed_payload).unwrap_or_default();
    let bit_identical = same_bits(&values, &reference.values);
    if !resumed_payload.is_empty() && !bit_identical {
        failures.push(format!(
            "resumed spectrum differs from the uninterrupted run ({} vs {} values)",
            values.len(),
            reference.values.len()
        ));
    }

    // The restarted replica must report an actual resume, and fewer chunk
    // solves than a full second run (it picked up past work, not redid it).
    let (stream_resumed, stream_chunks) =
        gate::fetch_metrics(restarted.addr).map_or((0.0, f64::NAN), |m| {
            (
                metric(&m, "service", "stream_resumed"),
                metric(&m, "service", "stream_chunks"),
            )
        });
    if stream_resumed < 1.0 {
        failures.push("restarted replica never resumed from a checkpoint".to_string());
    }
    // NaN (failed metrics scrape) also lands here via the resume gate.
    if stream_chunks.is_nan() || stream_chunks >= chunks_total {
        failures.push(format!(
            "resumed run re-solved {stream_chunks} chunks (a full run is {chunks_total}; \
             resume saved nothing)"
        ));
    }

    let mut report = RunReport::new("si_chaos_stream_kill");
    report.note(
        "plan",
        format!(
            "64K-sample streaming job ({chunks_total} chunks), si_serve SIGKILLed after \
             >= 2 observed chunks, restarted on the same cache dir"
        ),
    );
    report.metric("chunks_total", chunks_total);
    report.metric("observed_chunks_before_kill", observed_done);
    report.metric("resumed_chunk_solves", stream_chunks);
    report.metric("stream_resumed", stream_resumed);
    report.metric("bit_identical", f64::from(u8::from(bit_identical)));
    report.metric("resume_wall_s", resume_wall.as_secs_f64());
    println!(
        "stream kill: killed after {observed_done} chunks | resumed {stream_resumed} time(s), \
         {stream_chunks} chunk solves of {chunks_total} | bit-identical: {bit_identical}"
    );

    if let Some(mut child) = restarted.child.lock().unwrap().take() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    gate::finish(
        &report,
        &failures,
        Some("stream-kill run survived: all gates passed"),
    );
}

/// Chaos-harness client fault: sends a request that *promises*
/// `body.len()` bytes but transmits only the first `sent_bytes` before
/// dropping the connection. The server must count a dropped-mid-request
/// connection and move on — no response is expected.
fn http_drop_mid_body(
    addr: std::net::SocketAddr,
    path: &str,
    body: &str,
    sent_bytes: usize,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr)?;
    let partial = &body[..sent_bytes.min(body.len())];
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: si-serve\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{partial}",
        body.len()
    )?;
    stream.flush()?;
    // Dropping the stream here closes the socket mid-body.
    Ok(())
}

fn main() {
    let args: Args = gate::parse_args_or_exit(apply_flag);

    if args.replica_kill {
        run_replica_kill(&args);
        return;
    }
    if args.stream_kill {
        run_stream_kill(&args);
        return;
    }

    // Injected worker panics are expected by the hundred.
    si_bench::gate::quiet_injected_panics();

    // The storm runs with the persistent disk tier enabled, so every
    // completed solve also exercises the atomic write-through path while
    // workers are panicking and stalling around it.
    let cache_dir = gate::fresh_temp_dir("si-chaos-cache");
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        default_deadline: None,
        retry: RetryPolicy::default(),
        cache_dir: Some(cache_dir.clone()),
        ..ServiceConfig::default()
    }));
    // Worker-side chaos: panics, stalls, transients.
    let worker_faults = Arc::new(FaultInjector::new(FaultPlan::balanced(args.seed, u64::MAX)));
    service.install_fault_injector(Arc::clone(&worker_faults));
    // Client-side chaos (HTTP only): dropped connections mid-body.
    let client_drops = args.http.then(|| {
        Arc::new(FaultInjector::new(FaultPlan {
            seed: args.seed.wrapping_add(1),
            panic_pm: 0,
            stall_pm: 0,
            transient_pm: 0,
            drop_pm: 160,
            panic_mid_chunk_pm: 0,
            stall: Duration::ZERO,
            max_faults: u64::MAX,
        }))
    });

    let mut server = None;
    let addr = if args.http {
        let srv = HttpServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&service),
            HttpConfig {
                read_timeout: Duration::from_secs(10),
                ..HttpConfig::default()
            },
        )
        .expect("bind loopback");
        let a = srv.local_addr();
        server = Some(srv);
        Some(a)
    } else {
        None
    };
    let client = ChaosClient {
        service: Arc::clone(&service),
        addr,
        drops: client_drops.clone(),
        policy: RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            multiplier: 2,
            jitter_seed: None,
        },
    };

    // ---- Chaos phase: batches under fault injection until the fault
    // budget is met (the schedule is deterministic per seed; batch count
    // only depends on how many events the rates actually hit).
    let started = Instant::now();
    let client_retries = AtomicU64::new(0);
    let unrecovered = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let mut submitted_jobs = 0usize;
    let mut batches = 0usize;
    let injected = |client_drops: &Option<Arc<FaultInjector>>| {
        worker_faults.stats().injected + client_drops.as_ref().map_or(0, |d| d.stats().injected)
    };
    while injected(&client_drops) < args.min_faults && batches < 16 {
        let base = submitted_jobs;
        std::thread::scope(|scope| {
            for c in 0..args.clients {
                let client = &client;
                let client_retries = &client_retries;
                let unrecovered = &unrecovered;
                let completed = &completed;
                let a = &args;
                scope.spawn(move || {
                    for k in (base..base + a.jobs).skip(c).step_by(a.clients) {
                        match client.submit(&job(a, k)) {
                            Ok(r) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                                client_retries.fetch_add(r, Ordering::Relaxed);
                            }
                            Err(_) => {
                                unrecovered.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        submitted_jobs += args.jobs;
        batches += 1;
    }
    let chaos_wall = started.elapsed();

    // ---- Recovery: disarm everything, then verify.
    worker_faults.disarm();
    if let Some(d) = &client_drops {
        d.disarm();
    }

    let mut failures: Vec<String> = Vec::new();

    // Gate: the pool drains — nothing is stuck on a worker.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    let in_flight = loop {
        let in_flight = svc_counter(&service, "pool", "in_flight");
        if in_flight == 0.0 || Instant::now() > drain_deadline {
            break in_flight;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    if in_flight != 0.0 {
        failures.push(format!("pool never drained: {in_flight} in flight"));
    }

    // Gate: no leaked cancellation flags.
    let leak_deadline = Instant::now() + Duration::from_secs(10);
    while service.cancel_flags_len() > 0 && Instant::now() < leak_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let leaked_flags = service.cancel_flags_len();
    if leaked_flags > 0 {
        failures.push(format!("{leaked_flags} cancel flags leaked"));
    }

    // Gate: every distinct key resolves post-recovery (no poisoned shard
    // can serve, no flight is wedged), and the cached values are
    // bit-identical to a fresh solve on a brand-new workspace.
    let mut verified = 0u64;
    let mut resolve_failures = 0u64;
    let mut bit_mismatches = 0u64;
    let mut fresh_ws = si_analog::engine::EngineWorkspace::new();
    for k in 0..submitted_jobs {
        let spec = job(&args, k);
        match service.submit_blocking(&spec, None) {
            Ok((out, _)) => {
                verified += 1;
                let fresh = spec.run(&mut fresh_ws).expect("fresh solve");
                if !same_bits(&out.values, &fresh.values) {
                    bit_mismatches += 1;
                }
            }
            Err(e) => {
                resolve_failures += 1;
                if resolve_failures <= 3 {
                    eprintln!("post-recovery resolve of job {k} failed: {e}");
                }
            }
        }
    }
    if resolve_failures > 0 {
        failures.push(format!(
            "{resolve_failures} keys failed to resolve after recovery"
        ));
    }
    if bit_mismatches > 0 {
        failures.push(format!(
            "{bit_mismatches} cached results differ bitwise from a fresh solve"
        ));
    }

    // ---- Mid-batch panic phase (ISSUE 6): arm a one-shot worker panic
    // and submit a batch job. The batch path draws faults per *scenario*
    // (never at scenario 0), so the panic fires after real partial state
    // exists. The gates prove partial results are never cached: the
    // retried submission returns the complete value set uncached, the
    // abandoned flight is counted, and a resubmission is a cache hit that
    // is bit-identical to a fresh solve.
    let batch_faults = Arc::new(FaultInjector::new(FaultPlan {
        seed: args.seed.wrapping_add(2),
        panic_pm: 1000,
        stall_pm: 0,
        transient_pm: 0,
        drop_pm: 0,
        panic_mid_chunk_pm: 0,
        stall: Duration::ZERO,
        max_faults: 1,
    }));
    service.install_fault_injector(Arc::clone(&batch_faults));
    let abandoned_before = svc_counter(&service, "cache", "abandoned_flights");
    let batch_spec = JobSpec::DelayLineDcBatch {
        stages: args.stages,
        bias_ua: 20.0,
        inputs_ua: (0..8).map(|k| 0.5 + 0.25 * f64::from(k)).collect(),
    };
    let mut batch_panics = 0u64;
    match service.submit_blocking(&batch_spec, None) {
        Ok((out, cached)) => {
            batch_panics = batch_faults.stats().panics;
            if batch_panics != 1 {
                failures.push(format!(
                    "mid-batch phase injected {batch_panics} panics (expected 1)"
                ));
            }
            if cached {
                failures.push("a partially-run batch was served from cache".to_string());
            }
            if out.values.len() != 8 * args.stages {
                failures.push(format!(
                    "retried batch returned {} values (expected {})",
                    out.values.len(),
                    8 * args.stages
                ));
            }
            let abandoned_after = svc_counter(&service, "cache", "abandoned_flights");
            if abandoned_after <= abandoned_before {
                failures.push("mid-batch panic did not abandon the flight".to_string());
            }
            // The retry's cached entry must match a fresh batch solve.
            let fresh = batch_spec.run(&mut fresh_ws).expect("fresh batch solve");
            let (resolved, re_cached) = service
                .submit_blocking(&batch_spec, None)
                .expect("batch resubmission");
            if !re_cached {
                failures.push("complete batch was not cached".to_string());
            }
            if !same_bits(&resolved.values, &fresh.values) {
                failures.push("cached batch differs bitwise from a fresh solve".to_string());
            }
        }
        Err(e) => failures.push(format!("batch submission did not survive the panic: {e}")),
    }
    batch_faults.disarm();

    // ---- Malformed-netlist fault class (ISSUE 7): hostile user text is a
    // fault like worker panics or dropped connections — injected on
    // purpose, and the service must shrug it off. Every poisoned netlist
    // must come back as a typed `NetlistRejected` (HTTP 422) without a
    // retry, an oversized one as `BudgetExceeded` (HTTP 413) before any
    // factorization, and a well-formed circuit must still solve afterwards.
    let poison_jobs = 64usize;
    let parse_before = svc_counter(&service, "service", "netlist_rejected_parse");
    let budget_before = svc_counter(&service, "service", "netlist_rejected_budget");
    let mut netlist_untyped = 0u64;
    let submit_netlist = |text: String| -> Result<u16, String> {
        let spec = JobSpec::Netlist { netlist: text };
        match addr {
            None => match service.submit_blocking(&spec, None) {
                Ok(_) => Ok(200),
                Err(e) => Ok(e.http_status()),
            },
            Some(a) => {
                let body = spec.to_json().to_string_compact();
                HttpClient::new(a)
                    .request_text("POST", "/v1/jobs", Some(&body))
                    .map(|(status, _)| status)
                    .map_err(|e| format!("http: {e}"))
            }
        }
    };
    for k in 0..poison_jobs {
        let text = netfuzz::poison(args.seed.wrapping_add(k as u64));
        match submit_netlist(text) {
            Ok(422) => {}
            other => {
                netlist_untyped += 1;
                if netlist_untyped <= 3 {
                    eprintln!("poisoned netlist {k} was not 422-rejected: {other:?}");
                }
            }
        }
    }
    if netlist_untyped > 0 {
        failures.push(format!(
            "{netlist_untyped} poisoned netlists escaped the typed 422 rejection"
        ));
    }
    match submit_netlist(netfuzz::oversized(9000)) {
        Ok(413) => {}
        other => failures.push(format!("oversized netlist was not 413-rejected: {other:?}")),
    }
    match submit_netlist("V1 in 0 3.3\nR1 in mid 1k\nR2 mid 0 2k\n.end\n".to_string()) {
        Ok(200) => {}
        other => failures.push(format!(
            "valid netlist no longer solves after the poison storm: {other:?}"
        )),
    }
    let netlist_parse_rejections =
        svc_counter(&service, "service", "netlist_rejected_parse") - parse_before;
    let netlist_budget_rejections =
        svc_counter(&service, "service", "netlist_rejected_budget") - budget_before;
    if netlist_parse_rejections < poison_jobs as f64 {
        failures.push(format!(
            "parse-rejection counter saw {netlist_parse_rejections} of {poison_jobs} poisoned netlists"
        ));
    }
    if netlist_budget_rejections < 1.0 {
        failures.push("budget-rejection counter missed the oversized netlist".to_string());
    }

    // ---- Kill-during-disk-write fault class (ISSUE 8): attack the disk
    // tier's atomic-rename protocol the way a SIGKILL would. There are
    // two kill points; neither may ever surface a torn result.
    let mut torn_served = 0u64;
    let corrupt_before = svc_counter(&service, "cache", "corrupt_evicted");
    let tier = service
        .disk_cache()
        .cloned()
        .expect("chaos service runs with a disk tier");
    // Kill point 1: the final path exists but holds a short write — what
    // a non-atomic writer killed mid-write would leave behind. Plant a
    // half-length entry at a key the memory tier has never seen, so the
    // next lookup must go through the disk probe.
    let torn_spec = JobSpec::DelayLineDc {
        stages: args.stages,
        bias_ua: 20.0,
        input_ua: 77.7,
    };
    let expected = torn_spec.run(&mut fresh_ws).expect("fresh torn-key solve");
    tier.plant_torn_entry_for_test(torn_spec.job_key(), &expected);
    match service.submit_blocking(&torn_spec, None) {
        Ok((out, cached)) => {
            if cached {
                torn_served += 1;
                failures.push("a torn disk entry was served from cache".to_string());
            }
            if !same_bits(&out.values, &expected.values) {
                torn_served += 1;
                failures.push("re-solve after a torn disk entry is not bit-identical".to_string());
            }
        }
        Err(e) => failures.push(format!("torn-entry key failed to re-solve: {e}")),
    }
    let disk_corrupt_evicted = svc_counter(&service, "cache", "corrupt_evicted") - corrupt_before;
    if disk_corrupt_evicted < 1.0 {
        failures
            .push("torn disk entry was not quarantined (corrupt_evicted unchanged)".to_string());
    }
    // Kill point 2: killed *before* the atomic rename — only a `.tmp-`
    // leftover exists. The next startup must sweep it, and the key must
    // read as absent (a half-written entry is never half-visible).
    let sweep_dir = gate::fresh_temp_dir("si-chaos-sweep");
    DiskTier::plant_tmp_leftover_for_test(&sweep_dir, torn_spec.job_key());
    let swept_tier = DiskTier::open(DiskTierConfig::at(&sweep_dir)).expect("reopen swept tier");
    let disk_tmp_swept = swept_tier.tmp_swept();
    if disk_tmp_swept != 1 {
        failures.push(format!(
            "startup swept {disk_tmp_swept} tmp leftovers (expected 1)"
        ));
    }
    if swept_tier.load(torn_spec.job_key()).is_some() {
        torn_served += 1;
        failures.push("a never-renamed tmp write became loadable".to_string());
    }
    let _ = std::fs::remove_dir_all(&sweep_dir);

    let worker_stats = worker_faults.stats();
    let drop_stats = client_drops.as_ref().map(|d| d.stats()).unwrap_or_default();
    let total_injected = worker_stats.injected + drop_stats.injected;
    if total_injected < args.min_faults {
        failures.push(format!(
            "only {total_injected} faults injected (< {} required)",
            args.min_faults
        ));
    }
    if unrecovered.load(Ordering::Relaxed) > 0 {
        failures.push(format!(
            "{} requests failed even after client-side retries",
            unrecovered.load(Ordering::Relaxed)
        ));
    }
    // Every injected fault belonged to a request that ultimately
    // completed (nothing unrecovered) and to a key that re-verified.
    if failures.is_empty() {
        worker_faults.record_survival(worker_stats.injected);
        if let Some(d) = &client_drops {
            d.record_survival(drop_stats.injected);
        }
    }

    let metrics = service.metrics();
    let svc_metric = |section: &str, key: &str| metric(&metrics, section, key);

    let mut report = RunReport::new("si_chaos");
    report.note("mode", if args.http { "http" } else { "in_process" });
    report.note(
        "plan",
        format!(
            "seed {} balanced worker faults{}, {} jobs/batch x {} batches, {} clients",
            args.seed,
            if args.http { " + client drops" } else { "" },
            args.jobs,
            batches,
            args.clients
        ),
    );
    report.metric("faults_injected", total_injected as f64);
    report.metric("faults_panics", worker_stats.panics as f64);
    report.metric("faults_stalls", worker_stats.stalls as f64);
    report.metric("faults_transients", worker_stats.transients as f64);
    report.metric("faults_dropped_connections", drop_stats.injected as f64);
    report.metric(
        "faults_survived",
        (worker_faults.stats().survived + client_drops.as_ref().map_or(0, |d| d.stats().survived))
            as f64,
    );
    report.metric("jobs_submitted", submitted_jobs as f64);
    report.metric("jobs_completed", completed.load(Ordering::Relaxed) as f64);
    report.metric(
        "jobs_unrecovered",
        unrecovered.load(Ordering::Relaxed) as f64,
    );
    report.metric(
        "client_retries",
        client_retries.load(Ordering::Relaxed) as f64,
    );
    report.metric("service_retries", svc_metric("service", "retries"));
    report.metric("pool_panics_caught", svc_metric("pool", "panics_caught"));
    report.metric(
        "cache_abandoned_flights",
        svc_metric("cache", "abandoned_flights"),
    );
    report.metric(
        "cache_poison_recoveries",
        svc_metric("cache", "poison_recoveries"),
    );
    report.metric("workspace_resets", svc_metric("engine", "workspace_resets"));
    report.metric("verified_keys", verified as f64);
    report.metric("bit_mismatches", bit_mismatches as f64);
    report.metric("batch_midrun_panics", batch_panics as f64);
    report.metric("netlist_poisoned", poison_jobs as f64);
    report.metric("netlist_parse_rejections", netlist_parse_rejections);
    report.metric("netlist_budget_rejections", netlist_budget_rejections);
    report.metric("netlist_untyped", netlist_untyped as f64);
    report.metric("disk_writes", svc_metric("cache", "disk_writes"));
    report.metric("disk_hits", svc_metric("cache", "disk_hits"));
    report.metric("disk_corrupt_evicted", disk_corrupt_evicted);
    report.metric("disk_tmp_swept", disk_tmp_swept as f64);
    report.metric("disk_torn_served", torn_served as f64);
    report.metric("leaked_cancel_flags", leaked_flags as f64);
    report.metric("chaos_wall_s", chaos_wall.as_secs_f64());
    report.set_solver(service.engine_stats());

    println!(
        "chaos: {total_injected} faults injected ({} panics, {} stalls, {} transients, {} drops) \
         | {} jobs, {} unrecovered | {verified} keys verified, {bit_mismatches} bit mismatches",
        worker_stats.panics,
        worker_stats.stalls,
        worker_stats.transients,
        drop_stats.injected,
        submitted_jobs,
        unrecovered.load(Ordering::Relaxed),
    );

    if let Some(mut srv) = server.take() {
        srv.shutdown();
    } else {
        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    gate::finish(
        &report,
        &failures,
        Some("chaos run survived: all gates passed"),
    );
}
