//! The service core: cache-aware job submission, deadlines, cancellation,
//! and the `/metrics` aggregation.
//!
//! [`SiService`] glues the `ResultCache` in front of the
//! `WorkerPool`:
//!
//! 1. A submission is first content-addressed. Cache hits return without
//!    touching the pool; concurrent duplicates coalesce onto the one
//!    in-flight computation.
//! 2. Only a cache *leader* consumes a pool slot, so the bounded queue
//!    measures distinct work, not request volume.
//! 3. Leader and followers wait on the flight the same way, each under
//!    its own deadline. A leader that gives up sets the job's cancel
//!    flag; the worker stops at its next unit of work.
//! 4. If admission control rejects the leader, the flight completes with
//!    [`ServiceError::Overloaded`] so coalesced followers are released —
//!    an overloaded service sheds whole job groups, it never deadlocks
//!    them.
//!
//! Every job runs on its worker under one hook, the `Executor`: before
//! each unit of work (the one unit of a single-shot job, each batch
//! scenario, each stream chunk) it stops a canceled or late run, publishes
//! a stream's progress and draws the injected-fault decision; around a
//! stream's chunks it loads and stores the checkpoint.
//!
//! Every job id is the 16-hex-digit job key, so ids are deterministic:
//! the same spec maps to the same id on every run, which is what lets the
//! golden wire-format tests pin exact response bytes.
//!
//! # Fault tolerance
//!
//! The submission path survives a worker panicking mid-job: the pool
//! catches the unwind (the worker thread lives on), the
//! `LeadGuard` drop backstop releases the leader and its followers
//! with [`ServiceError::Internal`], and a cancellation-flag drop guard
//! inside the task closure prevents the `cancel_flags` map from leaking
//! entries for unwound leaders. Transient failures — Newton budget
//! exhaustion, worker crashes — are retried with the deterministic capped
//! backoff of [`RetryPolicy`] before being surfaced. A [`FaultInjector`]
//! can be installed (tests and the `si_chaos` harness only) to sabotage
//! job executions on the worker thread and prove all of the above.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::budget::AdmissionBudget;
use crate::cache::{CacheOutcome, CacheTier, LeadGuard, ResultCache};
use crate::disk::{DiskTier, DiskTierConfig};
use crate::error::ServiceError;
use crate::fault::{FaultInjector, FaultKind, FaultStats};
use crate::jobspec::{JobOutput, JobSpec, KeyMemo, Prepared, StreamState, Units};
use crate::json::{self, Json};
use crate::lock_recover;
use crate::pool::{PoolConfig, WorkerPool};
use crate::retry::RetryPolicy;

/// Service sizing.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (each with a persistent workspace).
    pub workers: usize,
    /// Bounded queue depth for admission control.
    pub queue_capacity: usize,
    /// Deadline applied when a submission does not carry its own.
    pub default_deadline: Option<Duration>,
    /// Backoff schedule for retrying transient failures in
    /// [`SiService::submit_blocking`].
    pub retry: RetryPolicy,
    /// Pre-solve resource ceilings for user-submitted netlists.
    pub budget: AdmissionBudget,
    /// Directory for the persistent disk cache tier; `None` runs
    /// memory-only (results die with the process).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Byte budget for the disk tier when `cache_dir` is set;
    /// least-recently-accessed entries are evicted past it.
    pub cache_budget_bytes: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline: None,
            retry: RetryPolicy::default(),
            budget: AdmissionBudget::default(),
            cache_dir: None,
            cache_budget_bytes: 256 << 20,
        }
    }
}

#[derive(Debug, Default)]
struct ServiceCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    deadline_exceeded: AtomicU64,
    canceled: AtomicU64,
    retries: AtomicU64,
    retries_exhausted: AtomicU64,
    /// Submissions that were batch jobs (scenario_count > 1).
    batch_submitted: AtomicU64,
    /// Total scenarios across those batch submissions.
    batch_scenarios: AtomicU64,
    /// Submissions that were user netlists ([`JobSpec::Netlist`]).
    netlist_submitted: AtomicU64,
    /// Netlists rejected by the strict dialect-v1 parse (HTTP 422).
    netlist_rejected_parse: AtomicU64,
    /// Netlists rejected by the admission budget (HTTP 413) — always
    /// *before* any factorization or Newton iteration ran.
    netlist_rejected_budget: AtomicU64,
    /// Cache entries pulled from a peer replica's disk tier during ring
    /// warming (`POST /v1/warm`).
    warm_pulled: AtomicU64,
    /// Warm pulls that did not land: peer miss, transport error, or
    /// bytes that failed validation on ingest.
    warm_failed: AtomicU64,
    /// Delay-line builds plus canonical netlist parses: at most one per
    /// submission, however many attempts it takes.
    circuit_builds: AtomicU64,
}

/// Streaming-job state shared between the service front and the worker
/// closure: per-job chunk progress for `GET /v1/jobs/:id` polling plus
/// the stream counters `/metrics` reports. Arc'd because the worker task
/// closure is `'static` and cannot borrow the service.
#[derive(Debug, Default)]
struct StreamShared {
    /// `job_key → (chunks_done, chunks_total)` of in-flight streams.
    progress: Mutex<HashMap<u64, (u64, u64)>>,
    /// Chunks solved across all streaming jobs (resumed runs only count
    /// the chunks they actually re-solve).
    chunks: AtomicU64,
    /// Checkpoints persisted to the disk tier (one per chunk when a
    /// cache directory is configured, zero otherwise).
    checkpoints: AtomicU64,
    /// Streaming executions that started from a valid checkpoint instead
    /// of from scratch.
    resumed: AtomicU64,
}

type CancelFlags = Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>>;

/// The in-process simulation job service.
pub struct SiService {
    cache: Arc<ResultCache>,
    pool: WorkerPool,
    default_deadline: Option<Duration>,
    retry: RetryPolicy,
    budget: AdmissionBudget,
    counters: ServiceCounters,
    /// Kind tag of every job key ever admitted, for `GET /v1/jobs/:id`.
    seen: Mutex<HashMap<u64, &'static str>>,
    /// Spec → job key, so a hit does not rebuild the circuit to key it.
    keys: KeyMemo,
    /// Cancellation flags of currently in-flight leaders.
    cancel_flags: CancelFlags,
    /// Progress and counters of streaming jobs, shared with the worker
    /// closures that execute them.
    stream: Arc<StreamShared>,
    /// Test-only chaos hook; `None` in production.
    fault: Mutex<Option<Arc<FaultInjector>>>,
    /// `cache_dir` was configured but the disk tier failed to open: the
    /// service runs memory-only and `/readyz` reports it.
    cache_degraded: bool,
}

/// Removes one `cancel_flags` entry on drop. Captured by the worker task
/// closure so the entry is cleaned up on *every* exit path — normal
/// completion, a panicking leader (the unwind drops it), and a task that
/// is dropped unrun after an admission failure.
struct CancelFlagCleanup {
    flags: CancelFlags,
    key: u64,
}

impl Drop for CancelFlagCleanup {
    fn drop(&mut self) {
        lock_recover(&self.flags).remove(&self.key);
    }
}

impl SiService {
    /// Builds the service and spawns its workers.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        // A broken cache directory must not keep the service from
        // starting: persistence degrades to memory-only with a warning,
        // exactly what an operator would want at 3am.
        let mut cache_degraded = false;
        let cache = match &config.cache_dir {
            Some(dir) => match DiskTier::open(DiskTierConfig {
                dir: dir.clone(),
                budget_bytes: config.cache_budget_bytes,
            }) {
                Ok(disk) => ResultCache::with_disk(Arc::new(disk)),
                Err(err) => {
                    eprintln!(
                        "si-service: disk cache at {} unavailable ({err}); running memory-only",
                        dir.display()
                    );
                    cache_degraded = true;
                    ResultCache::new()
                }
            },
            None => ResultCache::new(),
        };
        SiService {
            cache: Arc::new(cache),
            pool: WorkerPool::new(PoolConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
            }),
            default_deadline: config.default_deadline,
            retry: config.retry,
            budget: config.budget,
            counters: ServiceCounters::default(),
            seen: Mutex::new(HashMap::new()),
            keys: KeyMemo::default(),
            cancel_flags: Arc::new(Mutex::new(HashMap::new())),
            stream: Arc::new(StreamShared::default()),
            fault: Mutex::new(None),
            cache_degraded,
        }
    }

    /// Whether this instance is *serving*, not merely up: the pool still
    /// admits work and the configured persistence is actually usable.
    /// `/healthz` answers "is the process alive", this answers "should a
    /// router send jobs here" — a drained pool or a degraded cache dir
    /// flips it to `false` without killing the process.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.pool.is_admitting() && !self.cache_degraded
    }

    /// The `/readyz` body: the overall verdict plus the per-condition
    /// breakdown an operator (or the router's probe log) needs to see
    /// *why* a replica went unready.
    #[must_use]
    pub fn readiness(&self) -> Json {
        let cache_state = if self.cache_degraded {
            "degraded"
        } else if self.disk_cache().is_some() {
            "disk"
        } else {
            "memory"
        };
        Json::Object(vec![
            ("ready".to_string(), Json::Bool(self.is_ready())),
            (
                "pool_admitting".to_string(),
                Json::Bool(self.pool.is_admitting()),
            ),
            ("cache".to_string(), Json::String(cache_state.to_string())),
        ])
    }

    /// The receiving half of the replica-warming protocol: pulls each
    /// `key` from `peer`'s `GET /v1/cache/:key` endpoint and ingests the
    /// validated `.sic` bytes into this instance's disk tier. Returns
    /// `(pulled, failed)`; a peer miss, a transport error, or bytes that
    /// fail checksum validation all count as failed — warming is
    /// best-effort and a failed pull just means the job re-solves here.
    pub(crate) fn warm_from_peer(&self, peer: &str, keys: &[u64]) -> (u64, u64) {
        // Memory-only replicas have nowhere durable to put entries, and
        // an unresolvable peer has nothing to give.
        let target = self.disk_cache().cloned().and_then(|disk| {
            let addr = std::net::ToSocketAddrs::to_socket_addrs(&peer)
                .ok()?
                .next()?;
            Some((disk, addr))
        });
        let Some((disk, addr)) = target else {
            self.counters
                .warm_failed
                .fetch_add(keys.len() as u64, Ordering::Relaxed);
            return (0, keys.len() as u64);
        };
        let (mut pulled, mut failed) = (0u64, 0u64);
        let client = crate::http::HttpClient::new(addr).keep_alive(1);
        for &key in keys {
            let path = format!("/v1/cache/{key:016x}");
            let landed = client
                .request("GET", &path, None)
                .ok()
                .filter(|(status, _)| *status == 200)
                .is_some_and(|(_, bytes)| disk.ingest(key, &bytes));
            if landed {
                pulled += 1;
            } else {
                failed += 1;
            }
        }
        self.counters
            .warm_pulled
            .fetch_add(pulled, Ordering::Relaxed);
        self.counters
            .warm_failed
            .fetch_add(failed, Ordering::Relaxed);
        (pulled, failed)
    }

    /// Installs a chaos-testing fault injector. **Test-only hook**: jobs
    /// consult the injector on the worker thread and may panic, stall, or
    /// fail transiently according to its plan. Production code never
    /// calls this; an empty slot costs one mutex lock per job execution.
    pub fn install_fault_injector(&self, injector: Arc<FaultInjector>) {
        *lock_recover(&self.fault) = Some(injector);
    }

    /// The installed injector's counters (zeros when none is installed).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        lock_recover(&self.fault)
            .as_ref()
            .map(|i| i.stats())
            .unwrap_or_default()
    }

    /// Number of leaders currently tracked in the cancellation map —
    /// exposed so leak regression tests can assert it returns to zero.
    #[must_use]
    pub fn cancel_flags_len(&self) -> usize {
        lock_recover(&self.cancel_flags).len()
    }

    /// The deterministic wire id of a spec.
    #[must_use]
    pub fn job_id(spec: &JobSpec) -> String {
        Self::id_of(spec.job_key())
    }

    /// The wire id of a job key.
    pub(crate) fn id_of(key: u64) -> String {
        format!("{key:016x}")
    }

    /// Parses a wire id back to a job key. Only what [`SiService::job_id`]
    /// writes is accepted — 16 lowercase hex digits — so no key has a
    /// second spelling (`from_str_radix` alone takes a `+` sign and
    /// uppercase). Job ids, cache keys and disk entry names all read
    /// through here.
    #[must_use]
    pub(crate) fn parse_job_id(id: &str) -> Option<u64> {
        if id.len() != 16 || !id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        u64::from_str_radix(id, 16).ok()
    }

    /// Submits a job and blocks until its result is available: from the
    /// cache, from a coalesced flight, or from a worker. `deadline`
    /// overrides the service default; `None` with no default waits
    /// indefinitely.
    ///
    /// Transient failures (`ServiceError::is_retryable`: Newton budget
    /// exhaustion, a worker crash) are retried with the configured
    /// deterministic capped backoff before being surfaced. The deadline
    /// is an end-to-end budget for this call: it is anchored once, before
    /// the first attempt, and every retry (and its backoff sleep) spends
    /// from the same clock.
    ///
    /// Returns the output plus `true` when it was served without running
    /// the solve for this call (cache hit or coalesced onto another
    /// caller's flight).
    ///
    /// # Errors
    ///
    /// Every [`ServiceError`] variant can surface here; see the module
    /// docs for the overload path.
    pub fn submit_blocking(
        &self,
        spec: &JobSpec,
        deadline: Option<Duration>,
    ) -> Result<(Arc<JobOutput>, bool), ServiceError> {
        self.submit(spec, deadline)
            .map(|(_, out, cached)| (out, cached))
    }

    /// [`SiService::submit_blocking`], also returning the job key it
    /// derived, so the front end need not derive it again.
    pub(crate) fn submit(
        &self,
        spec: &JobSpec,
        deadline: Option<Duration>,
    ) -> Result<(u64, Arc<JobOutput>, bool), ServiceError> {
        // Anchor the deadline ONCE, not per attempt: re-arming it inside
        // each retry let a transiently failing job hold the caller for
        // (retries + 1) × deadline of wall clock instead of one deadline.
        let deadline_at = match deadline.or(self.default_deadline) {
            Some(d) => Some(Instant::now().checked_add(d).ok_or_else(|| {
                ServiceError::InvalidSpec("the deadline is out of range".to_string())
            })?),
            None => None,
        };
        // One build (delay line) or canonical parse (netlist) serves the
        // validation, the price, the key and the run of every attempt.
        let job = spec.prepare().counting(&self.counters.circuit_builds);
        let mut attempt = 0u32;
        loop {
            match self.submit_once(spec, &job, deadline_at) {
                Err(err) if err.is_retryable() => match self.retry.delay(attempt) {
                    Some(delay) => {
                        self.counters.retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(delay);
                        attempt += 1;
                    }
                    None => {
                        if self.retry.max_retries > 0 {
                            self.counters
                                .retries_exhausted
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        if spec.is_stream() {
                            // A stream that dies for good must not leave
                            // its last progress entry behind.
                            let key = self.keys.key_of(&job);
                            lock_recover(&self.stream.progress).remove(&key);
                        }
                        return Err(err);
                    }
                },
                other => return other,
            }
        }
    }

    /// Non-blocking probe for an already-resident result, with the exact
    /// counter semantics of a [`SiService::submit_blocking`] cache hit.
    /// `None` means "not served" and counts nothing — the caller must
    /// fall back to a full submission, which does its own counting, so a
    /// probe-then-submit sequence is indistinguishable in `/metrics`
    /// from a plain submission.
    ///
    /// The HTTP front end uses this to answer hits inline on its event
    /// loop instead of paying a handler-thread dispatch. Every kind is
    /// answered by lookup only: the key memo, then the memory tier. It
    /// never builds a circuit or parses a netlist, so anything that could
    /// block or burn real CPU stays on the submission path: disk probes,
    /// solves, flight coalescing, and every spec the key memo does not
    /// hold (never admitted, or since evicted). Such a spec is served on
    /// the blocking path with the same bytes and counters.
    ///
    /// A spec the memo holds is served here without the admission
    /// gauntlet: only `submit_once` records a spec in the memo, and only
    /// after admitting it, and admission is a pure function of the spec
    /// and the service's fixed budget, so the same spec would pass again
    /// with the same key.
    #[must_use]
    pub fn serve_cached(&self, spec: &JobSpec) -> Option<Arc<JobOutput>> {
        self.serve_hit(spec).map(|(_, out)| out)
    }

    /// [`SiService::serve_cached`], also returning the job key.
    pub(crate) fn serve_hit(&self, spec: &JobSpec) -> Option<(u64, Arc<JobOutput>)> {
        let key = self.keys.peek(spec)?;
        let out = self.cache.memory_hit(key)?;
        let c = &self.counters;
        if matches!(spec, JobSpec::Netlist { .. }) {
            c.netlist_submitted.fetch_add(1, Ordering::Relaxed);
        }
        self.count_submitted(spec, key);
        c.completed.fetch_add(1, Ordering::Relaxed);
        Some((key, out))
    }

    /// One submission attempt of `spec`, prepared as `job`: cache lookup,
    /// then the leader path. `deadline_at` is the absolute end-to-end
    /// deadline anchored by [`SiService::submit_blocking`].
    fn submit_once(
        &self,
        spec: &JobSpec,
        job: &Prepared<'_>,
        deadline_at: Option<Instant>,
    ) -> Result<(u64, Arc<JobOutput>, bool), ServiceError> {
        let c = &self.counters;
        if matches!(spec, JobSpec::Netlist { .. }) {
            c.netlist_submitted.fetch_add(1, Ordering::Relaxed);
        }
        // A spec the memo holds was admitted before, and admission is a
        // pure function of the spec and the fixed budget: its key is a
        // lookup, as on the event loop. The memo records a spec only
        // once it is admitted (below, after the gauntlet).
        let key = match self.keys.peek(spec) {
            Some(key) => key,
            None => {
                self.admit(spec, job)?;
                self.keys.key_of(job)
            }
        };
        self.count_submitted(spec, key);

        let guard = match self.cache.get_or_lead(key) {
            CacheOutcome::Hit(out) => {
                c.completed.fetch_add(1, Ordering::Relaxed);
                return Ok((key, out, true));
            }
            CacheOutcome::Follow(waiter) => {
                return self.finish(waiter.wait(deadline_at).map(|out| (key, out, true)));
            }
            CacheOutcome::Lead(guard) => guard,
        };
        self.lead(job, key, guard, deadline_at)
    }

    /// The admission gauntlet: a netlist's byte cap (before the text is
    /// even parsed), validation (a netlist's strict parse), then a
    /// netlist's priced budget — node/device counts, matrix dimension,
    /// and structural nonzeros — so an over-budget submission costs a
    /// parse and a pattern walk, never a factorization or a Newton
    /// iteration.
    fn admit(&self, spec: &JobSpec, job: &Prepared<'_>) -> Result<(), ServiceError> {
        let c = &self.counters;
        let rejected = |counter: &AtomicU64, err| {
            counter.fetch_add(1, Ordering::Relaxed);
            Err(err)
        };
        if let JobSpec::Netlist { netlist } = spec {
            if let Err(err) = self.budget.admit_bytes(netlist.len()) {
                return rejected(&c.netlist_rejected_budget, err);
            }
        }
        match job.validate() {
            Err(err @ ServiceError::NetlistRejected(_)) => {
                return rejected(&c.netlist_rejected_parse, err)
            }
            Err(err) => return Err(err),
            Ok(()) => {}
        }
        if let Some(cost) = job.admission_cost()? {
            if let Err(err) = self.budget.admit(&cost) {
                return rejected(&c.netlist_rejected_budget, err);
            }
        }
        Ok(())
    }

    /// Counts an admitted submission of `spec` under `key`. A batch is
    /// admitted, priced, and cached as ONE job; its counters record how
    /// many scenarios rode along.
    fn count_submitted(&self, spec: &JobSpec, key: u64) {
        let c = &self.counters;
        c.submitted.fetch_add(1, Ordering::Relaxed);
        let scenarios = spec.scenario_count() as u64;
        if scenarios > 1 {
            c.batch_submitted.fetch_add(1, Ordering::Relaxed);
            c.batch_scenarios.fetch_add(scenarios, Ordering::Relaxed);
        }
        lock_recover(&self.seen).insert(key, spec.kind());
    }

    /// Leader path: enqueue the solve, then wait on the flight like any
    /// follower, under the caller's deadline.
    fn lead(
        &self,
        job: &Prepared<'_>,
        key: u64,
        guard: LeadGuard,
        deadline_at: Option<Instant>,
    ) -> Result<(u64, Arc<JobOutput>, bool), ServiceError> {
        let cancel = Arc::new(AtomicBool::new(false));
        lock_recover(&self.cancel_flags).insert(key, Arc::clone(&cancel));
        let cleanup = CancelFlagCleanup {
            flags: Arc::clone(&self.cancel_flags),
            key,
        };
        let injector = lock_recover(&self.fault).clone();
        let waiter = guard.waiter();

        // The guard travels to the worker inside a shared slot: exactly
        // one side takes it — the worker on execution, or this thread if
        // admission fails and the (never-run) task is dropped.
        let guard_slot: Arc<Mutex<Option<LeadGuard>>> = Arc::new(Mutex::new(Some(guard)));
        let task = {
            let job = job.admit();
            let cancel = Arc::clone(&cancel);
            let cache = Arc::clone(&self.cache);
            let guard_slot = Arc::clone(&guard_slot);
            let stream = Arc::clone(&self.stream);
            Box::new(move |ws: &mut si_analog::engine::EngineWorkspace| {
                let Some(guard) = lock_recover(&guard_slot).take() else {
                    return; // admission failure already completed the flight
                };
                // Bound after the guard, so an unwind drops it first: the
                // entry is gone before the guard's backstop publishes.
                let cleanup = cleanup;
                let shared = job.spec.is_stream().then_some(stream.as_ref());
                let mut executor = Executor {
                    key,
                    stream: shared,
                    disk: cache.disk_tier().map(Arc::as_ref),
                    injector: injector.as_deref(),
                    cancel: &cancel,
                    deadline_at,
                    first: true,
                };
                let result = job.run_with(ws, &mut executor).map(Arc::new);
                // A panic leaves a stream's progress in place on purpose:
                // a poller sees the last chunk reached while the retry
                // warms up.
                if let Some(shared) = shared {
                    lock_recover(&shared.progress).remove(&key);
                }
                // A caller that observes the result never sees the entry.
                drop(cleanup);
                cache.complete(guard, result);
            })
        };

        if let Err(reject) = self.pool.try_submit(task) {
            // Release any followers with the same typed rejection, then
            // surface it to this caller. Dropping the unrun task dropped
            // `cleanup`, which removed the cancel-flag entry.
            if let Some(guard) = lock_recover(&guard_slot).take() {
                self.cache.complete(guard, Err(reject.clone()));
            }
            return self.finish(Err(reject));
        }
        // From here the task alone holds the guard: were it ever dropped
        // unrun, the guard's backstop would still end the wait.
        drop(guard_slot);
        let result = waiter.wait(deadline_at);
        if matches!(result, Err(ServiceError::DeadlineExceeded)) {
            // Tell the worker to stop at its next unit; a result it
            // finishes anyway still lands in the cache for later callers.
            cancel.store(true, Ordering::Relaxed);
        }
        self.finish(result.map(|out| (key, out, false)))
    }

    /// Looks up a previously submitted job by key: its kind tag and, if
    /// finished successfully, its cached output. Never blocks.
    pub fn lookup(&self, key: u64) -> Option<(&'static str, Option<Arc<JobOutput>>)> {
        let kind = *lock_recover(&self.seen).get(&key)?;
        Some((kind, self.cache.peek(key)))
    }

    /// Whether a leader is currently computing `key`. `GET /v1/jobs/:id`
    /// uses this to answer `202 Accepted` ("still running, poll again")
    /// instead of `404` for jobs that are in flight right now.
    #[must_use]
    pub fn in_flight(&self, key: u64) -> bool {
        self.cache.in_flight(key)
    }

    /// Chunk progress `(done, total)` of an in-flight streaming job, for
    /// `GET /v1/jobs/:id` polling. `None` for non-streaming jobs and for
    /// streams that are not currently executing.
    #[must_use]
    pub fn progress(&self, key: u64) -> Option<(u64, u64)> {
        lock_recover(&self.stream.progress).get(&key).copied()
    }

    /// Stops admitting jobs and drains the workers. Safe to call twice.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }

    /// Engine telemetry merged across all workers — what `/metrics`
    /// reports under `"engine"`, as a typed struct.
    #[must_use]
    pub fn engine_stats(&self) -> si_analog::telemetry::EngineStats {
        self.pool.merged_engine_stats()
    }

    /// The `/metrics` document: service counters, cache behavior, pool
    /// occupancy, and engine telemetry merged across every worker.
    #[must_use]
    pub fn metrics(&self) -> Json {
        let cache = self.cache.stats();
        let pool = self.pool.stats();
        // Disk hits are hits: the job did not re-solve. With no disk tier
        // this reduces to the old memory-only ratio.
        let lookups = cache.hits + cache.misses + cache.coalesced + cache.disk_hits;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            (cache.hits + cache.coalesced + cache.disk_hits) as f64 / lookups as f64
        };
        let faults = self.fault_stats();
        let load = |v: &AtomicU64| v.load(Ordering::Relaxed) as f64;
        let section = |pairs: &[(&str, f64)]| {
            Json::Object(
                pairs
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Number(v)))
                    .collect(),
            )
        };
        let (c, stream) = (&self.counters, &self.stream);
        Json::Object(vec![
            (
                "service".to_string(),
                section(&[
                    ("submitted", load(&c.submitted)),
                    ("completed", load(&c.completed)),
                    ("failed", load(&c.failed)),
                    ("deadline_exceeded", load(&c.deadline_exceeded)),
                    ("canceled", load(&c.canceled)),
                    ("retries", load(&c.retries)),
                    ("retries_exhausted", load(&c.retries_exhausted)),
                    ("batch_submitted", load(&c.batch_submitted)),
                    ("batch_scenarios", load(&c.batch_scenarios)),
                    ("netlist_submitted", load(&c.netlist_submitted)),
                    ("netlist_rejected_parse", load(&c.netlist_rejected_parse)),
                    ("netlist_rejected_budget", load(&c.netlist_rejected_budget)),
                    ("warm_pulled", load(&c.warm_pulled)),
                    ("warm_failed", load(&c.warm_failed)),
                    ("stream_chunks", load(&stream.chunks)),
                    ("stream_checkpoints", load(&stream.checkpoints)),
                    ("stream_resumed", load(&stream.resumed)),
                    ("circuit_builds", load(&c.circuit_builds)),
                ]),
            ),
            (
                "cache".to_string(),
                section(&[
                    ("hits", cache.hits as f64),
                    ("misses", cache.misses as f64),
                    ("coalesced", cache.coalesced as f64),
                    ("entries", cache.entries as f64),
                    ("hit_ratio", hit_ratio),
                    ("abandoned_flights", cache.abandoned_flights as f64),
                    ("poison_recoveries", cache.poison_recoveries as f64),
                    ("disk_hits", cache.disk_hits as f64),
                    ("disk_misses", cache.disk_misses as f64),
                    ("disk_writes", cache.disk_writes as f64),
                    ("disk_evictions", cache.disk_evictions as f64),
                    ("corrupt_evicted", cache.corrupt_evicted as f64),
                    ("disk_entries", cache.disk_entries as f64),
                    ("disk_bytes", cache.disk_bytes as f64),
                ]),
            ),
            (
                "pool".to_string(),
                section(&[
                    ("workers", self.pool.workers() as f64),
                    ("queue_capacity", self.pool.queue_capacity() as f64),
                    ("submitted", pool.submitted as f64),
                    ("executed", pool.executed as f64),
                    ("rejected", pool.rejected as f64),
                    ("in_flight", pool.in_flight as f64),
                    ("panics_caught", pool.panics_caught as f64),
                ]),
            ),
            (
                "faults".to_string(),
                section(&[
                    ("injected", faults.injected as f64),
                    ("panics", faults.panics as f64),
                    ("stalls", faults.stalls as f64),
                    ("transients", faults.transients as f64),
                    ("panic_mid_chunk", faults.panic_mid_chunks as f64),
                    ("dropped_connections", faults.dropped_connections as f64),
                    ("survived", faults.survived as f64),
                ]),
            ),
            ("engine".to_string(), self.engine_stats().to_json()),
        ])
    }

    /// Test hook: the service's spec → key memo, so integration tests
    /// can check which specs it retained.
    #[doc(hidden)]
    #[must_use]
    pub fn key_memo_for_test(&self) -> &KeyMemo {
        &self.keys
    }

    /// The persistent cache tier, when `cache_dir` was configured. The
    /// chaos harness uses this to plant torn entries; operators don't
    /// need it.
    #[must_use]
    pub fn disk_cache(&self) -> Option<&Arc<DiskTier>> {
        self.cache.disk_tier()
    }

    fn finish<T>(&self, result: Result<T, ServiceError>) -> Result<T, ServiceError> {
        let c = &self.counters;
        let counts: &[&AtomicU64] = match &result {
            Ok(_) => &[&c.completed],
            Err(ServiceError::DeadlineExceeded) => &[&c.deadline_exceeded, &c.failed],
            Err(ServiceError::Canceled) => &[&c.canceled, &c.failed],
            Err(_) => &[&c.failed],
        };
        for counter in counts {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

impl Drop for SiService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The worker side of one leader's run: the [`Units`] hook its job runs
/// under. Before every unit it stops a canceled or late run, publishes a
/// stream's progress and draws the one injected-fault decision; around a
/// stream's chunks it loads and stores the checkpoint.
struct Executor<'a> {
    key: u64,
    /// Progress and counters, for a stream only.
    stream: Option<&'a StreamShared>,
    /// Where a stream's checkpoint lives, when persistence is on.
    disk: Option<&'a DiskTier>,
    injector: Option<&'a FaultInjector>,
    cancel: &'a AtomicBool,
    deadline_at: Option<Instant>,
    /// No unit has started yet.
    first: bool,
}

impl Units for Executor<'_> {
    fn before(&mut self, index: usize, total: usize) -> Result<(), ServiceError> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(ServiceError::Canceled);
        }
        // Don't burn solver time on a result nobody is waiting for.
        if self.deadline_at.is_some_and(|at| Instant::now() >= at) {
            return Err(ServiceError::DeadlineExceeded);
        }
        if let Some(shared) = self.stream {
            if std::mem::take(&mut self.first) && index > 0 {
                shared.resumed.fetch_add(1, Ordering::Relaxed);
            }
            lock_recover(&shared.progress).insert(self.key, (index as u64, total as u64));
        }
        // A multi-unit job draws only once real partial state exists — a
        // scenario solved, a checkpoint written — so its faults land
        // mid-batch or mid-chunk.
        let Some(injector) = self.injector.filter(|_| total == 1 || index > 0) else {
            return Ok(());
        };
        match injector.next_fault() {
            Some(FaultKind::PanicWorker | FaultKind::PanicMidChunk) => {
                panic!("injected fault: worker panic before unit {index} of {total}")
            }
            Some(FaultKind::Stall) => std::thread::sleep(injector.plan().stall),
            Some(FaultKind::Transient) => {
                return Err(ServiceError::Transient(
                    "injected fault: transient non-convergence".to_string(),
                ))
            }
            // Connection drops are a client-side fault; the worker just
            // solves normally.
            Some(FaultKind::DropConnection) | None => {}
        }
        Ok(())
    }

    fn resume(&mut self) -> Option<JobOutput> {
        let checkpoint = self.disk?.load(JobSpec::checkpoint_key(self.key))?;
        Some(Arc::unwrap_or_clone(checkpoint))
    }

    fn after_chunk(&mut self, state: &StreamState<'_>) {
        let Some(shared) = self.stream else { return };
        shared.chunks.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = self.disk {
            // Checkpoints ride the disk tier's `.sic` discipline:
            // checksummed, written via atomic rename without an fsync,
            // quarantined on corruption. A SIGKILL mid-write costs one
            // chunk. After a power loss the file may be invalid (the run
            // starts over) or an earlier chunk's valid checkpoint (the run
            // resumes from there) — never a wrong resume. A completed
            // run's checkpoint is left to LRU eviction; resuming from it
            // is a no-op finish.
            let checkpoint = Arc::new(state.to_checkpoint(self.key));
            disk.store(JobSpec::checkpoint_key(self.key), &checkpoint);
            shared.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The wire body shared by `POST /v1/jobs` and `GET /v1/jobs/:id`,
/// written straight into one `String`: the bytes of
/// [`job_response_body`]`(..).to_string_compact()` without the tree.
#[must_use]
pub fn job_response_string(id: &str, kind: &str, cached: bool, out: &JobOutput) -> String {
    // Values print in about 20 bytes each; the buffer grows past that.
    let mut body = String::with_capacity(96 + 24 * (out.metrics.len() + out.values.len()));
    body.push_str("{\"id\":");
    json::write_string(id, &mut body);
    body.push_str(",\"kind\":");
    json::write_string(kind, &mut body);
    body.push_str(if cached {
        ",\"cached\":true,\"metrics\":{"
    } else {
        ",\"cached\":false,\"metrics\":{"
    });
    for (i, (name, value)) in out.metrics.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        json::write_string(name, &mut body);
        body.push(':');
        json::write_number(*value, &mut body);
    }
    body.push_str("},\"n_values\":");
    json::write_number(out.values.len() as f64, &mut body);
    body.push_str(",\"values\":[");
    for (i, &value) in out.values.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        json::write_number(value, &mut body);
    }
    body.push_str("]}");
    body
}

/// The job response as a `Json` tree: the reference the wire writer
/// [`job_response_string`] is tested against.
#[must_use]
pub fn job_response_body(id: &str, kind: &str, cached: bool, out: &JobOutput) -> Json {
    Json::Object(vec![
        ("id".to_string(), Json::String(id.to_string())),
        ("kind".to_string(), Json::String(kind.to_string())),
        ("cached".to_string(), Json::Bool(cached)),
        (
            "metrics".to_string(),
            Json::Object(
                out.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Number(*v)))
                    .collect(),
            ),
        ),
        (
            "n_values".to_string(),
            Json::Number(out.values.len() as f64),
        ),
        (
            "values".to_string(),
            Json::Array(out.values.iter().map(|&v| Json::Number(v)).collect()),
        ),
    ])
}

/// Recursively zeroes every `*_ns` field — the wire-format analogue of
/// [`si_analog::telemetry::EngineStats::normalized`], used by the golden
/// snapshot tests to strip wall-clock noise.
#[must_use]
pub fn normalize_timings(v: &Json) -> Json {
    match v {
        Json::Object(pairs) => Json::Object(
            pairs
                .iter()
                .map(|(k, val)| {
                    if k.ends_with("_ns") {
                        (k.clone(), Json::Number(0.0))
                    } else {
                        (k.clone(), normalize_timings(val))
                    }
                })
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(normalize_timings).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc_spec(input_ua: f64) -> JobSpec {
        JobSpec::DelayLineDc {
            stages: 3,
            bias_ua: 20.0,
            input_ua,
        }
    }

    #[test]
    fn second_submission_is_a_cache_hit() {
        let svc = SiService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServiceConfig::default()
        });
        let (first, cached1) = svc.submit_blocking(&dc_spec(1.0), None).unwrap();
        let (second, cached2) = svc.submit_blocking(&dc_spec(1.0), None).unwrap();
        assert!(!cached1);
        assert!(cached2);
        assert_eq!(first, second);
        let m = svc.metrics();
        assert_eq!(
            m.get("cache").unwrap().get("hits").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            m.get("cache").unwrap().get("misses").unwrap().as_f64(),
            Some(1.0)
        );
    }

    /// ISSUE 8: with a cache directory, results survive a full service
    /// restart — the second service's first submission is served from
    /// disk (cached = true, no solve) and is bit-identical to the
    /// original.
    #[test]
    fn results_survive_service_restart_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "si-service-restart-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let persistent = || ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let first = {
            let svc = SiService::new(persistent());
            let (out, cached) = svc.submit_blocking(&dc_spec(1.25), None).unwrap();
            assert!(!cached);
            assert_eq!(
                svc.metrics()
                    .get("cache")
                    .unwrap()
                    .get("disk_writes")
                    .unwrap()
                    .as_f64(),
                Some(1.0)
            );
            svc.shutdown();
            out
        };
        // "Restart": a fresh process image over the same directory.
        let svc = SiService::new(persistent());
        let (again, cached) = svc.submit_blocking(&dc_spec(1.25), None).unwrap();
        assert!(cached, "restarted service must serve from disk");
        for (a, b) in first.values.iter().zip(again.values.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "disk round trip must be bit-exact"
            );
        }
        assert_eq!(first.metrics, again.metrics);
        let m = svc.metrics();
        let cache = m.get("cache").unwrap();
        assert_eq!(cache.get("disk_hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache.get("misses").unwrap().as_f64(), Some(0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache directory that cannot be created degrades to memory-only
    /// instead of failing startup.
    #[test]
    fn unusable_cache_dir_degrades_to_memory_only() {
        let dir = std::env::temp_dir().join(format!("si-service-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A *file* where the directory should go makes create_dir_all fail.
        std::fs::write(&dir, b"not a directory").unwrap();
        let svc = SiService::new(ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        assert!(svc.disk_cache().is_none());
        let (_, cached) = svc.submit_blocking(&dc_spec(0.5), None).unwrap();
        assert!(!cached);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn lookup_returns_cached_output_without_blocking() {
        let svc = SiService::new(ServiceConfig::default());
        let spec = dc_spec(2.0);
        let key = spec.job_key();
        assert!(svc.lookup(key).is_none());
        let (out, _) = svc.submit_blocking(&spec, None).unwrap();
        let (kind, cached) = svc.lookup(key).unwrap();
        assert_eq!(kind, "delay_line_dc");
        assert_eq!(cached.unwrap(), out);
    }

    #[test]
    fn shutdown_rejects_new_jobs_with_typed_error() {
        let svc = SiService::new(ServiceConfig::default());
        svc.shutdown();
        let err = svc.submit_blocking(&dc_spec(1.0), None).unwrap_err();
        assert_eq!(err, ServiceError::ShuttingDown);
    }

    #[test]
    fn job_ids_round_trip() {
        let spec = dc_spec(1.5);
        let id = SiService::job_id(&spec);
        assert_eq!(id.len(), 16);
        assert_eq!(SiService::parse_job_id(&id), Some(spec.job_key()));
        assert_eq!(SiService::parse_job_id("nope"), None);
    }

    /// A key has one spelling: the one `job_id` writes. A sign or an
    /// uppercase digit used to alias it.
    #[test]
    fn job_ids_have_one_spelling() {
        assert_eq!(
            SiService::parse_job_id("0c62dc374cccc65a"),
            Some(0x0c62_dc37_4ccc_c65a)
        );
        for alias in [
            "+c62dc374cccc65a",
            "0C62DC374CCCC65A",
            "0c62dc374cccc65A",
            " c62dc374cccc65a",
        ] {
            assert_eq!(SiService::parse_job_id(alias), None, "{alias}");
        }
    }

    #[test]
    fn normalize_timings_zeroes_ns_fields_recursively() {
        let v =
            crate::json::parse(r#"{"a_ns":123,"b":{"solve_time_ns":9,"c":1},"d":[{"t_ns":4}]}"#)
                .unwrap();
        let n = normalize_timings(&v);
        assert_eq!(
            n.to_string_compact(),
            r#"{"a_ns":0,"b":{"solve_time_ns":0,"c":1},"d":[{"t_ns":0}]}"#
        );
    }

    #[test]
    fn metrics_document_has_all_sections() {
        let svc = SiService::new(ServiceConfig::default());
        svc.submit_blocking(&dc_spec(1.0), None).unwrap();
        let m = svc.metrics();
        for section in ["service", "cache", "pool", "faults", "engine"] {
            assert!(m.get(section).is_some(), "missing {section}");
        }
        // Engine telemetry flowed from the worker's workspace. Workers
        // publish it *after* replying to the caller, so poll briefly.
        let solves = wait_engine_counter(&svc, "solves", 1.0);
        assert!(solves >= 1.0);
        // The hardening counters are present (and zero: nothing faulted).
        for (section, key) in [
            ("service", "retries"),
            ("service", "retries_exhausted"),
            ("cache", "abandoned_flights"),
            ("cache", "poison_recoveries"),
            ("pool", "panics_caught"),
            ("faults", "injected"),
        ] {
            let v = m.get(section).unwrap().get(key).unwrap().as_f64();
            assert_eq!(v, Some(0.0), "{section}.{key} should be 0");
        }
    }

    /// Regression (ISSUE 5): an injected transient failure is retried by
    /// the service and the submission ultimately succeeds.
    #[test]
    fn transient_fault_is_retried_to_success() {
        let svc = SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            default_deadline: None,
            retry: RetryPolicy {
                max_retries: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                multiplier: 2,
                jitter_seed: None,
            },
            ..ServiceConfig::default()
        });
        // Fault exactly the first execution, then run clean.
        let injector = Arc::new(FaultInjector::new(crate::fault::FaultPlan {
            seed: 0,
            panic_pm: 0,
            stall_pm: 0,
            transient_pm: 1000,
            drop_pm: 0,
            panic_mid_chunk_pm: 0,
            stall: Duration::ZERO,
            max_faults: 1,
        }));
        svc.install_fault_injector(Arc::clone(&injector));
        let (out, cached) = svc.submit_blocking(&dc_spec(3.0), None).unwrap();
        assert!(!out.values.is_empty());
        assert!(!cached);
        assert_eq!(svc.fault_stats().transients, 1);
        let m = svc.metrics();
        let service = m.get("service").unwrap();
        assert_eq!(service.get("retries").unwrap().as_f64(), Some(1.0));
        // Both attempts ran the one circuit the submission built.
        assert_eq!(service.get("circuit_builds").unwrap().as_f64(), Some(1.0));
        assert_eq!(svc.cancel_flags_len(), 0, "cancel flags leaked");
    }

    /// A deadline no `Instant` can hold is a bad spec, not a panic.
    #[test]
    fn unrepresentable_deadline_is_invalid_spec() {
        let svc = SiService::new(ServiceConfig::default());
        let err = svc
            .submit_blocking(&dc_spec(1.0), Some(Duration::MAX))
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidSpec(_)), "got {err:?}");
    }

    /// Regression (ISSUE 5): a worker panicking mid-job must not wedge the
    /// submission — the flight is released with a typed error, the retry
    /// succeeds, and later submissions still work.
    #[test]
    fn worker_panic_is_survived_and_retried() {
        let svc = SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            default_deadline: None,
            retry: RetryPolicy {
                max_retries: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                multiplier: 2,
                jitter_seed: None,
            },
            ..ServiceConfig::default()
        });
        let injector = Arc::new(FaultInjector::new(crate::fault::FaultPlan {
            seed: 0,
            panic_pm: 1000,
            stall_pm: 0,
            transient_pm: 0,
            drop_pm: 0,
            panic_mid_chunk_pm: 0,
            stall: Duration::ZERO,
            max_faults: 1,
        }));
        svc.install_fault_injector(injector);
        let (out, _) = svc
            .submit_blocking(&dc_spec(4.0), None)
            .expect("retry after worker panic should succeed");
        assert!(!out.values.is_empty());
        assert_eq!(svc.fault_stats().panics, 1);
        let m = svc.metrics();
        assert_eq!(
            m.get("pool")
                .unwrap()
                .get("panics_caught")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            m.get("cache")
                .unwrap()
                .get("abandoned_flights")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        // The panicked attempt must not leave a cancel-flag entry behind.
        // The unwinding worker removes it asynchronously: poll briefly.
        for _ in 0..200 {
            if svc.cancel_flags_len() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(svc.cancel_flags_len(), 0, "cancel flags leaked");
        // A fresh spec still solves: the worker thread survived.
        svc.submit_blocking(&dc_spec(5.0), None).unwrap();
    }

    /// Regression (ISSUE 5): with retries exhausted the typed Internal
    /// error surfaces and `retries_exhausted` is counted.
    #[test]
    fn exhausted_retries_surface_typed_error() {
        let svc = SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            default_deadline: None,
            retry: RetryPolicy {
                max_retries: 1,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(1),
                multiplier: 1,
                jitter_seed: None,
            },
            ..ServiceConfig::default()
        });
        let injector = Arc::new(FaultInjector::new(crate::fault::FaultPlan {
            seed: 0,
            panic_pm: 0,
            stall_pm: 0,
            transient_pm: 1000,
            drop_pm: 0,
            panic_mid_chunk_pm: 0,
            stall: Duration::ZERO,
            max_faults: u64::MAX,
        }));
        svc.install_fault_injector(injector);
        let err = svc.submit_blocking(&dc_spec(6.0), None).unwrap_err();
        assert!(matches!(err, ServiceError::Transient(_)), "got {err:?}");
        let m = svc.metrics();
        assert_eq!(
            m.get("service")
                .unwrap()
                .get("retries_exhausted")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(svc.cancel_flags_len(), 0, "cancel flags leaked");
        // The key memo keys the resubmission without a build, so its
        // leader builds the circuit it hands the worker: one per
        // submission, none on the worker.
        svc.submit_blocking(&dc_spec(6.0), None).unwrap_err();
        let service = svc.metrics().get("service").cloned().unwrap();
        assert_eq!(service.get("circuit_builds").unwrap().as_f64(), Some(2.0));
    }

    /// Regression (ISSUE 5): admission failure drops the unrun task, whose
    /// drop guard must remove the cancel-flag entry — before the fix the
    /// map leaked one entry per rejected leader.
    #[test]
    fn rejected_leader_does_not_leak_cancel_flags() {
        let svc = SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            default_deadline: None,
            retry: RetryPolicy::none(),
            ..ServiceConfig::default()
        });
        let block = std::sync::Arc::new(std::sync::Barrier::new(2));
        // Saturate: one running (held at a barrier), one queued.
        let holder = {
            let svc = Arc::new(svc);
            let b = Arc::clone(&block);
            let svc2 = Arc::clone(&svc);
            let t = std::thread::spawn(move || {
                // This job blocks the single worker via the stall fault.
                let injector = Arc::new(FaultInjector::new(crate::fault::FaultPlan {
                    seed: 0,
                    panic_pm: 0,
                    stall_pm: 1000,
                    transient_pm: 0,
                    drop_pm: 0,
                    panic_mid_chunk_pm: 0,
                    stall: Duration::from_millis(200),
                    max_faults: 1,
                }));
                svc2.install_fault_injector(injector);
                b.wait();
                let _ = svc2.submit_blocking(&dc_spec(7.0), None);
            });
            block.wait();
            // Give the stalled job time to occupy the worker.
            std::thread::sleep(Duration::from_millis(50));
            (svc, t)
        };
        let (svc, t) = holder;
        // Fill the queue slot, then overflow it.
        let svc_q = Arc::clone(&svc);
        let tq = std::thread::spawn(move || {
            let _ = svc_q.submit_blocking(&dc_spec(8.0), None);
        });
        std::thread::sleep(Duration::from_millis(20));
        let err = svc.submit_blocking(&dc_spec(9.0), None).unwrap_err();
        assert!(
            matches!(err, ServiceError::Overloaded { .. }),
            "expected Overloaded, got {err:?}"
        );
        t.join().unwrap();
        tq.join().unwrap();
        // Every leader — run, stalled, or rejected — cleaned up its entry.
        for _ in 0..100 {
            if svc.cancel_flags_len() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(svc.cancel_flags_len(), 0, "cancel flags leaked");
    }

    fn netlist_spec(text: &str) -> JobSpec {
        JobSpec::Netlist {
            netlist: text.to_string(),
        }
    }

    const DIVIDER: &str = "V1 in 0 3.3\nR1 in mid 1k\nR2 mid 0 2k\n.end\n";

    /// ISSUE 7: an over-budget netlist is rejected at admission — typed
    /// 413, counted in `netlist_rejected_budget`, and the engine telemetry
    /// proves no factorization or Newton iteration ever ran.
    #[test]
    fn over_budget_netlist_never_reaches_the_solver() {
        let svc = SiService::new(ServiceConfig {
            budget: AdmissionBudget {
                max_nodes: 2,
                ..AdmissionBudget::default()
            },
            ..ServiceConfig::default()
        });
        let err = svc
            .submit_blocking(&netlist_spec(DIVIDER), None)
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::BudgetExceeded {
                resource: "nodes",
                actual: 3,
                limit: 2,
            }
        );
        assert_eq!(err.http_status(), 413);
        let m = svc.metrics();
        let s = m.get("service").unwrap();
        assert_eq!(s.get("netlist_submitted").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            s.get("netlist_rejected_budget").unwrap().as_f64(),
            Some(1.0)
        );
        // Nothing was admitted, solved, or factorized.
        assert_eq!(s.get("submitted").unwrap().as_f64(), Some(0.0));
        let e = m.get("engine").unwrap();
        assert_eq!(e.get("solves").unwrap().as_f64(), Some(0.0));
    }

    /// ISSUE 7: the byte cap rejects oversized text before it is parsed.
    #[test]
    fn oversized_netlist_text_is_rejected_before_parsing() {
        let svc = SiService::new(ServiceConfig {
            budget: AdmissionBudget {
                max_netlist_bytes: 16,
                ..AdmissionBudget::default()
            },
            ..ServiceConfig::default()
        });
        let err = svc
            .submit_blocking(&netlist_spec(DIVIDER), None)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::BudgetExceeded {
                    resource: "netlist_bytes",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// ISSUE 7: a malformed netlist is typed 422 and counted; a permuted
    /// but equivalent netlist coalesces onto the original's cache entry.
    #[test]
    fn netlist_rejection_and_coalescing_are_counted() {
        let svc = SiService::new(ServiceConfig::default());
        let err = svc
            .submit_blocking(&netlist_spec("R1 a 0 oops\n"), None)
            .unwrap_err();
        assert!(matches!(err, ServiceError::NetlistRejected(_)), "{err:?}");

        let (first, cached1) = svc.submit_blocking(&netlist_spec(DIVIDER), None).unwrap();
        assert!(!cached1);
        // Same circuit, different text: comments, spacing, card order.
        let permuted = "* comment\nR2  mid 0 2k\nR1 in mid 1k ; top\nV1 in 0 3.3\n.end\n";
        let (second, cached2) = svc.submit_blocking(&netlist_spec(permuted), None).unwrap();
        assert!(cached2, "permuted netlist must hit the same cache slot");
        assert_eq!(first, second);

        let m = svc.metrics();
        let s = m.get("service").unwrap();
        assert_eq!(s.get("netlist_submitted").unwrap().as_f64(), Some(3.0));
        assert_eq!(s.get("netlist_rejected_parse").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            s.get("netlist_rejected_budget").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(
            m.get("cache").unwrap().get("hits").unwrap().as_f64(),
            Some(1.0)
        );
    }

    fn batch_spec(inputs_ua: Vec<f64>) -> JobSpec {
        JobSpec::DelayLineDcBatch {
            stages: 3,
            bias_ua: 20.0,
            inputs_ua,
        }
    }

    /// Workers publish engine telemetry *after* replying to the caller,
    /// so a metrics read can race the final publish: poll briefly.
    fn wait_engine_counter(svc: &SiService, key: &str, want: f64) -> f64 {
        let mut got = f64::NAN;
        for _ in 0..200 {
            let m = svc.metrics();
            got = m.get("engine").unwrap().get(key).unwrap().as_f64().unwrap();
            if got == want {
                return got;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        got
    }

    /// ISSUE 6: a batch fans N scenarios under ONE job key — admitted,
    /// priced, and cached as one job, with per-scenario results in the
    /// output and the batch counters visible in `/metrics`.
    #[test]
    fn batch_submission_is_one_job_with_per_scenario_results() {
        let svc = SiService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServiceConfig::default()
        });
        let spec = batch_spec(vec![0.5, 1.0, 2.0, 4.0]);
        let (out, cached1) = svc.submit_blocking(&spec, None).unwrap();
        assert!(!cached1);
        // Scenario-major values: 4 scenarios × 3 stage nodes.
        assert_eq!(out.values.len(), 12);
        assert_eq!(out.metrics.iter().find(|(k, _)| k == "scenarios"), {
            Some(&("scenarios".to_string(), 4.0))
        });
        // Resubmission is a cache hit: the whole batch was one entry.
        let (again, cached2) = svc.submit_blocking(&spec, None).unwrap();
        assert!(cached2);
        assert_eq!(out, again);
        let m = svc.metrics();
        let svc_section = m.get("service").unwrap();
        assert_eq!(
            svc_section.get("batch_submitted").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            svc_section.get("batch_scenarios").unwrap().as_f64(),
            Some(8.0)
        );
        assert_eq!(
            m.get("cache").unwrap().get("misses").unwrap().as_f64(),
            Some(1.0)
        );
        // Exactly one batch run with four scenarios flowed into the
        // engine telemetry — one symbolic analysis for the whole batch.
        assert_eq!(wait_engine_counter(&svc, "batch_runs", 1.0), 1.0);
        assert_eq!(wait_engine_counter(&svc, "batch_scenarios", 4.0), 4.0);
    }

    /// ISSUE 6 satellite: a worker panic injected *mid-batch* (after some
    /// scenarios already solved) abandons the flight without caching any
    /// partial results; the retry re-runs the whole batch and succeeds
    /// with the complete value set.
    #[test]
    fn mid_batch_panic_never_caches_partial_results() {
        let svc = SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            default_deadline: None,
            retry: RetryPolicy {
                max_retries: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                multiplier: 2,
                jitter_seed: None,
            },
            ..ServiceConfig::default()
        });
        let injector = Arc::new(FaultInjector::new(crate::fault::FaultPlan {
            seed: 0,
            panic_pm: 1000,
            stall_pm: 0,
            transient_pm: 0,
            drop_pm: 0,
            panic_mid_chunk_pm: 0,
            stall: Duration::ZERO,
            max_faults: 1,
        }));
        svc.install_fault_injector(injector);
        let spec = batch_spec(vec![1.0, 2.0, 3.0]);
        let (out, cached) = svc
            .submit_blocking(&spec, None)
            .expect("retry after mid-batch panic should succeed");
        assert!(!cached, "a partial batch must never be served from cache");
        // The retried batch is complete: 3 scenarios × 3 stage nodes.
        assert_eq!(out.values.len(), 9);
        assert_eq!(svc.fault_stats().panics, 1);
        let m = svc.metrics();
        assert_eq!(
            m.get("pool")
                .unwrap()
                .get("panics_caught")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            m.get("cache")
                .unwrap()
                .get("abandoned_flights")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        // Two attempts ran: the panicked one (which got past scenario 0)
        // and the clean retry.
        assert_eq!(wait_engine_counter(&svc, "batch_runs", 2.0), 2.0);
    }

    /// Regression (ISSUE 10): the deadline is anchored once for the whole
    /// `submit_blocking` call. Before the fix each retry attempt re-armed
    /// a fresh deadline, so a job that kept failing transiently burned
    /// backoff time until retries exhausted and surfaced `Transient` —
    /// the deadline never fired. Now the attempt that starts past the
    /// anchor reports `DeadlineExceeded`.
    #[test]
    fn deadline_spans_all_retry_attempts() {
        let svc = SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            default_deadline: None,
            retry: RetryPolicy {
                max_retries: 10,
                base_delay: Duration::from_millis(40),
                max_delay: Duration::from_millis(40),
                multiplier: 1,
                jitter_seed: None,
            },
            ..ServiceConfig::default()
        });
        // Every attempt fails transiently, instantly.
        let injector = Arc::new(FaultInjector::new(crate::fault::FaultPlan {
            seed: 0,
            panic_pm: 0,
            stall_pm: 0,
            transient_pm: 1000,
            drop_pm: 0,
            panic_mid_chunk_pm: 0,
            stall: Duration::ZERO,
            max_faults: u64::MAX,
        }));
        svc.install_fault_injector(injector);
        let started = Instant::now();
        let err = svc
            .submit_blocking(&dc_spec(7.0), Some(Duration::from_millis(60)))
            .unwrap_err();
        let elapsed = started.elapsed();
        assert!(
            matches!(err, ServiceError::DeadlineExceeded),
            "per-retry re-arming keeps the deadline from ever firing; got {err:?}"
        );
        // 60 ms budget + one 40 ms backoff of slack, far below the
        // ~400 ms the 10-retry schedule would burn with re-arming.
        assert!(
            elapsed < Duration::from_millis(350),
            "deadline took {elapsed:?} to fire"
        );
        // The timed-out attempt's task may still be queued; its drop
        // guard removes the flag once the worker reaches it. Poll briefly.
        for _ in 0..200 {
            if svc.cancel_flags_len() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(svc.cancel_flags_len(), 0, "cancel flags leaked");
    }

    fn stream_spec() -> JobSpec {
        JobSpec::TranStream {
            stages: 3,
            bias_ua: 20.0,
            input_ua: 2.0,
            steps: 900,
            dt_ns: 50.0,
            clock_hz: 2.0e6,
            chunk_steps: 128,
            seg_len: 256,
        }
    }

    fn stream_tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "si-service-stream-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// ISSUE 10 tentpole, happy path: a streaming job completes through
    /// the service, its spectrum is bit-identical to running the spec
    /// directly, per-chunk counters and checkpoints are recorded, and the
    /// progress entry is cleaned up.
    #[test]
    fn streaming_job_completes_with_checkpoints_and_counters() {
        let dir = stream_tmpdir("happy");
        let svc = SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let spec = stream_spec();
        let key = spec.job_key();
        let reference = spec
            .run(&mut si_analog::engine::EngineWorkspace::new())
            .unwrap();
        let (out, cached) = svc.submit_blocking(&spec, None).unwrap();
        assert!(!cached);
        for (a, b) in out.values.iter().zip(reference.values.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "service run must match direct run"
            );
        }
        let m = svc.metrics();
        let svc_counter = |name: &str| m.get("service").unwrap().get(name).unwrap().as_f64();
        assert_eq!(svc_counter("stream_chunks"), Some(8.0));
        assert_eq!(svc_counter("stream_checkpoints"), Some(8.0));
        assert_eq!(svc_counter("stream_resumed"), Some(0.0));
        assert_eq!(svc.progress(key), None, "progress entry leaked");
        // Second submission is a plain cache hit — no chunks re-solved.
        let (again, cached2) = svc.submit_blocking(&spec, None).unwrap();
        assert!(cached2);
        assert_eq!(again, out);
        let m2 = svc.metrics();
        assert_eq!(
            m2.get("service")
                .unwrap()
                .get("stream_chunks")
                .unwrap()
                .as_f64(),
            Some(8.0)
        );
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ISSUE 10 tentpole, crash path: a `panic_mid_chunk` fault kills the
    /// worker after some chunks completed; the retry resumes from the
    /// last checkpoint (observable via `stream_resumed` and the chunk
    /// count) and the final spectrum is bit-identical to an uninterrupted
    /// run.
    #[test]
    fn stream_panic_mid_chunk_resumes_from_checkpoint_bit_identically() {
        let dir = stream_tmpdir("panic");
        let svc = SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_dir: Some(dir.clone()),
            retry: RetryPolicy {
                max_retries: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                multiplier: 2,
                jitter_seed: None,
            },
            ..ServiceConfig::default()
        });
        svc.install_fault_injector(Arc::new(FaultInjector::new(
            crate::fault::FaultPlan::mid_chunk(7, 1),
        )));
        let spec = stream_spec();
        let reference = spec
            .run(&mut si_analog::engine::EngineWorkspace::new())
            .unwrap();
        let (out, cached) = svc
            .submit_blocking(&spec, None)
            .expect("retry after mid-chunk panic should resume and succeed");
        assert!(!cached, "a partial stream must never be served from cache");
        for (a, b) in out.values.iter().zip(reference.values.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "resumed spectrum must be bit-identical"
            );
        }
        assert_eq!(svc.fault_stats().panic_mid_chunks, 1);
        let m = svc.metrics();
        let svc_counter = |name: &str| m.get("service").unwrap().get(name).unwrap().as_f64();
        assert_eq!(svc_counter("stream_resumed"), Some(1.0));
        // The resumed attempt re-solves only the chunks past the last
        // checkpoint: total chunk executions stay below two full runs.
        let chunks = svc_counter("stream_chunks").unwrap();
        assert!(
            (8.0..16.0).contains(&chunks),
            "expected a partial first run plus a resumed tail, got {chunks} chunk solves"
        );
        assert_eq!(
            m.get("faults")
                .unwrap()
                .get("panic_mid_chunk")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A mid-chunk plan that lets a stream's first attempt finish and
    /// checkpoint exactly `chunks` chunks, then panics before the next.
    /// A stream draws before every chunk but its first, so the panic is
    /// draw `chunks - 1`; the seed is the first whose draws fall that way.
    fn panic_after_chunks(chunks: u64) -> crate::fault::FaultPlan {
        (0..)
            .map(|seed| crate::fault::FaultPlan {
                panic_mid_chunk_pm: 500,
                ..crate::fault::FaultPlan::mid_chunk(seed, 1)
            })
            .find(|plan| (0..chunks).all(|n| plan.decide(n).is_some() == (n == chunks - 1)))
            .expect("some seed panics on exactly that draw")
    }

    /// Runs [`stream_spec`] once over `dir` without retries, under
    /// [`panic_after_chunks`]`(chunks)`: the attempt fails and leaves the
    /// checkpoint of `chunks` chunks on disk. Returns the service (its
    /// injector spent) and the checkpoint's path.
    fn stream_killed_after(dir: &std::path::Path, chunks: u64) -> (SiService, std::path::PathBuf) {
        let svc = SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_dir: Some(dir.to_path_buf()),
            retry: RetryPolicy::none(),
            ..ServiceConfig::default()
        });
        svc.install_fault_injector(Arc::new(FaultInjector::new(panic_after_chunks(chunks))));
        let spec = stream_spec();
        assert!(
            svc.submit_blocking(&spec, None).is_err(),
            "the attempt must die"
        );
        let checkpoint = JobSpec::checkpoint_key(spec.job_key());
        (svc, dir.join(format!("{checkpoint:016x}.sic")))
    }

    /// The power-loss model for stream checkpoints, on the panic-mid-chunk
    /// harness: between a killed attempt and the next, chunk k's
    /// checkpoint is replaced by what a power loss can leave — a
    /// zero-length, truncated or zero-filled file (quarantined, the stream
    /// reruns from chunk 0) or chunk k−1's valid checkpoint, the leftover
    /// of a lost rename (the stream resumes from k−1). Every case ends
    /// bit-identical to an uninterrupted run.
    #[test]
    fn damaged_stream_checkpoint_resumes_or_reruns_bit_identically() {
        const K: u64 = 3;
        // `stream_spec`'s 900 steps in chunks of 128.
        const CHUNKS: f64 = 8.0;
        let spec = stream_spec();
        let reference = spec
            .run(&mut si_analog::engine::EngineWorkspace::new())
            .unwrap();
        let stale = {
            let dir = stream_tmpdir("checkpoint-stale");
            let (svc, path) = stream_killed_after(&dir, K - 1);
            let bytes = std::fs::read(path).unwrap();
            svc.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        };
        // (outcome, the chunk the stream resumes from)
        let cases = [
            ("zero-length", None),
            ("truncated", None),
            ("zero-filled", None),
            ("stale chunk k-1", Some(K - 1)),
        ];
        for (outcome, resumed_from) in cases {
            let dir = stream_tmpdir("checkpoint-damaged");
            let (svc, path) = stream_killed_after(&dir, K);
            let valid = std::fs::read(&path).unwrap();
            let damaged = match outcome {
                "zero-length" => Vec::new(),
                "truncated" => valid[..valid.len() / 2].to_vec(),
                "zero-filled" => vec![0; valid.len()],
                _ => stale.clone(),
            };
            std::fs::write(&path, damaged).unwrap();
            let (out, cached) = svc.submit_blocking(&spec, None).unwrap();
            assert!(!cached, "{outcome}");
            let bits = |o: &JobOutput| o.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&reference), "{outcome}: not bit-identical");
            assert_eq!(out.metrics, reference.metrics, "{outcome}");
            let m = svc.metrics();
            let counter = |section: &str, name: &str| {
                m.get(section).unwrap().get(name).unwrap().as_f64().unwrap()
            };
            let rerun_from = resumed_from.unwrap_or(0) as f64;
            assert_eq!(
                counter("service", "stream_resumed"),
                if resumed_from.is_some() { 1.0 } else { 0.0 },
                "{outcome}"
            );
            assert_eq!(
                counter("service", "stream_chunks"),
                K as f64 + CHUNKS - rerun_from,
                "{outcome}: chunks solved"
            );
            assert_eq!(
                counter("cache", "corrupt_evicted"),
                if resumed_from.is_some() { 0.0 } else { 1.0 },
                "{outcome}"
            );
            svc.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Progress of an in-flight stream is observable from another thread
    /// while chunks solve, and `in_flight` flips off once it completes.
    #[test]
    fn stream_progress_is_observable_while_running() {
        let dir = stream_tmpdir("progress");
        let svc = Arc::new(SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        }));
        // Stall every chunk draw 20 ms so the poller has a real window.
        svc.install_fault_injector(Arc::new(FaultInjector::new(crate::fault::FaultPlan {
            seed: 0,
            panic_pm: 0,
            stall_pm: 1000,
            transient_pm: 0,
            drop_pm: 0,
            panic_mid_chunk_pm: 0,
            stall: Duration::from_millis(20),
            max_faults: u64::MAX,
        })));
        let spec = stream_spec();
        let key = spec.job_key();
        let poller = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let mut best: Option<(u64, u64)> = None;
                for _ in 0..2000 {
                    if let Some(p) = svc.progress(key) {
                        best = Some(p);
                        if p.0 > 0 {
                            break;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                best
            })
        };
        let (_, cached) = svc.submit_blocking(&spec, None).unwrap();
        assert!(!cached);
        let seen = poller
            .join()
            .unwrap()
            .expect("poller never observed stream progress");
        assert_eq!(seen.1, 8, "total chunks");
        assert!(seen.0 >= 1, "poller should catch a mid-run chunk count");
        assert!(!svc.in_flight(key), "flight must be gone after completion");
        assert_eq!(svc.progress(key), None);
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A plan that draws `kind` on every event, `max_faults` times, with
    /// no stall time.
    fn only(kind: FaultKind, max_faults: u64) -> crate::fault::FaultPlan {
        let pm = |k: FaultKind| if k == kind { 1000 } else { 0 };
        crate::fault::FaultPlan {
            seed: 0,
            panic_pm: pm(FaultKind::PanicWorker),
            stall_pm: pm(FaultKind::Stall),
            transient_pm: pm(FaultKind::Transient),
            drop_pm: pm(FaultKind::DropConnection),
            panic_mid_chunk_pm: pm(FaultKind::PanicMidChunk),
            stall: Duration::ZERO,
            max_faults,
        }
    }

    /// An [`Executor`] that also records every unit it is asked about.
    struct Entered<'a> {
        units: Vec<usize>,
        executor: Executor<'a>,
    }

    impl Units for Entered<'_> {
        fn before(&mut self, index: usize, total: usize) -> Result<(), ServiceError> {
            self.units.push(index);
            self.executor.before(index, total)
        }
    }

    /// Runs `spec` under an executor drawing from `plan`: the units
    /// entered, how the run ended (`None`: it panicked), and what the
    /// injector drew.
    fn run_under(
        spec: &JobSpec,
        plan: crate::fault::FaultPlan,
    ) -> (
        Vec<usize>,
        Option<Result<JobOutput, ServiceError>>,
        FaultStats,
    ) {
        let injector = FaultInjector::new(plan);
        let (shared, cancel) = (StreamShared::default(), AtomicBool::new(false));
        let mut entered = Entered {
            units: Vec::new(),
            executor: Executor {
                key: spec.job_key(),
                stream: spec.is_stream().then_some(&shared),
                disk: None,
                injector: Some(&injector),
                cancel: &cancel,
                deadline_at: None,
                first: true,
            },
        };
        let mut ws = si_analog::engine::EngineWorkspace::new();
        let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spec.prepare().run_with(&mut ws, &mut entered)
        }));
        (entered.units, ended.ok(), injector.stats())
    }

    /// The one fault rule, for every job shape: a single-shot job and a
    /// one-chunk stream draw before their only unit; a batch or a
    /// multi-chunk stream draws before every unit but the first. Either
    /// panic kind panics, a stall only delays, a transient fails the run
    /// retryably, and a connection drop changes nothing on the worker.
    #[test]
    fn one_fault_rule_for_every_job_shape() {
        let one_chunk = JobSpec::TranStream {
            stages: 3,
            bias_ua: 20.0,
            input_ua: 2.0,
            steps: 900,
            dt_ns: 50.0,
            clock_hz: 2.0e6,
            chunk_steps: 900,
            seg_len: 256,
        };
        // (spec, units, the first unit that draws)
        let shapes = [
            (dc_spec(2.5), 1, 0),
            (batch_spec(vec![0.5, 1.0, 1.5]), 3, 1),
            (stream_spec(), 8, 1),
            (one_chunk, 1, 0),
        ];
        for (spec, total, drawer) in shapes {
            let reference = spec
                .run(&mut si_analog::engine::EngineWorkspace::new())
                .unwrap();
            // Every unit from the first drawer on draws once.
            let (units, ended, stats) = run_under(&spec, only(FaultKind::Stall, u64::MAX));
            assert_eq!(units, (0..total).collect::<Vec<_>>(), "{}", spec.kind());
            assert_eq!(ended, Some(Ok(reference.clone())), "{}", spec.kind());
            assert_eq!(stats.stalls, (total - drawer) as u64, "{}", spec.kind());

            for kind in [
                FaultKind::PanicWorker,
                FaultKind::PanicMidChunk,
                FaultKind::Stall,
                FaultKind::Transient,
                FaultKind::DropConnection,
            ] {
                let (units, ended, stats) = run_under(&spec, only(kind, 1));
                let what = format!("{} under {}", spec.kind(), kind.as_str());
                assert_eq!(stats.injected, 1, "{what}");
                match kind {
                    FaultKind::PanicWorker | FaultKind::PanicMidChunk => {
                        assert_eq!(ended, None, "{what}");
                        assert_eq!(units.last(), Some(&drawer), "{what}");
                    }
                    FaultKind::Transient => {
                        assert!(
                            matches!(ended, Some(Err(ServiceError::Transient(_)))),
                            "{what}: {ended:?}"
                        );
                        assert_eq!(units.last(), Some(&drawer), "{what}");
                    }
                    _ => {
                        assert_eq!(ended, Some(Ok(reference.clone())), "{what}");
                        assert_eq!(units.len(), total, "{what}");
                    }
                }
            }
        }
    }

    /// A batch checks its deadline between scenarios: under a 10 ms stall
    /// per scenario and a 60 ms deadline, a 32-scenario batch stops early,
    /// answers `DeadlineExceeded` and caches nothing.
    #[test]
    fn late_batch_stops_between_scenarios() {
        let svc = SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            retry: RetryPolicy::none(),
            ..ServiceConfig::default()
        });
        svc.install_fault_injector(Arc::new(FaultInjector::new(crate::fault::FaultPlan {
            stall: Duration::from_millis(10),
            ..only(FaultKind::Stall, u64::MAX)
        })));
        let spec = batch_spec((0..32).map(|i| 0.1 * f64::from(i)).collect());
        let err = svc
            .submit_blocking(&spec, Some(Duration::from_millis(60)))
            .unwrap_err();
        assert_eq!(err, ServiceError::DeadlineExceeded);
        // The worker publishes its telemetry once the run has ended.
        for _ in 0..400 {
            let m = svc.metrics();
            if m.get("pool").unwrap().get("executed").unwrap().as_f64() == Some(1.0) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!svc.in_flight(spec.job_key()));
        assert!(svc.lookup(spec.job_key()).unwrap().1.is_none(), "cached");
        assert_eq!(svc.cache.stats().entries, 0);
        let solves = svc.engine_stats().solves;
        assert!((1..32).contains(&solves), "{solves} solves");
    }

    /// A follower waits on the flight under its own deadline. The
    /// leader's only execution stalls 400 ms; a follower with a 30 ms
    /// deadline gives up at its deadline, and the leader still succeeds.
    #[test]
    fn follower_keeps_its_own_deadline() {
        let svc = Arc::new(SiService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServiceConfig::default()
        }));
        svc.install_fault_injector(Arc::new(FaultInjector::new(crate::fault::FaultPlan {
            stall: Duration::from_millis(400),
            ..only(FaultKind::Stall, 1)
        })));
        let spec = dc_spec(11.0);
        let leader = {
            let (svc, spec) = (Arc::clone(&svc), spec.clone());
            std::thread::spawn(move || svc.submit_blocking(&spec, None))
        };
        while !svc.in_flight(spec.job_key()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let started = Instant::now();
        let follower = svc.submit_blocking(&spec, Some(Duration::from_millis(30)));
        let waited = started.elapsed();
        assert_eq!(follower.unwrap_err(), ServiceError::DeadlineExceeded);
        assert!(
            waited < Duration::from_millis(200),
            "follower waited {waited:?}"
        );
        let (_, cached) = leader.join().unwrap().expect("the leader succeeds");
        assert!(!cached);
        let m = svc.metrics();
        let counter =
            |section: &str, name: &str| m.get(section).unwrap().get(name).unwrap().as_f64();
        assert_eq!(counter("cache", "coalesced"), Some(1.0));
        assert_eq!(counter("service", "deadline_exceeded"), Some(1.0));
    }
}
