//! `si-router`: consistent-hash sharding of the job service across
//! replica processes.
//!
//! A single `si_serve` replica tops out at one machine's cores, and its
//! hot state — the per-topology symbolic factorization cache and the
//! content-addressed result tiers — lives in that one process. The
//! router scales the service *out* while keeping that state hot: it
//! accepts the same HTTP API and forwards each job to one of N replicas
//! chosen by consistent hash on the job's **structure fingerprint**
//! ([`crate::jobspec::JobSpec::structure_fingerprint`]). Every job on
//! the same circuit *topology* lands on the same replica, so each
//! replica's symbolic cache holds only its shard of topologies — and a
//! netlist twin of a generator-built circuit hashes to the same shard,
//! because both fingerprints come from the canonical parsed structure.
//!
//! Design points:
//!
//! - **Hash ring with virtual nodes** — each replica owns
//!   [`RouterConfig::vnodes`] points on a 64-bit ring (FNV-1a of the
//!   replica name and vnode index); a fingerprint is spread by
//!   SplitMix64 and routed to the next point clockwise. Virtual nodes
//!   keep shard sizes even and limit reshuffling when membership
//!   changes to the keys owned by the departed/arrived replica.
//! - **Readiness-driven membership** — a background probe polls each
//!   replica's `/readyz` (liveness `/healthz` is *not* enough: a
//!   replica with a drained pool or degraded cache dir must leave the
//!   ring). Every membership change bumps a ring **generation**
//!   counter, visible in `/metrics`.
//! - **Bounded in-flight per backend** — the router refuses with 503
//!   rather than queueing without bound, mirroring the replica's own
//!   admission policy. The same bound caps each replica's stack of idle
//!   keep-alive connections, which forwards reuse.
//! - **Failover** — on a transport error the replica is marked unready
//!   immediately (not at the next probe tick) and the request walks the
//!   ring to the next distinct replica. Jobs are content-addressed and
//!   deterministic, so re-running one on a different replica is safe
//!   and bit-identical.
//! - **Cache warming** — the router remembers which job keys it routed
//!   where; when ownership moves it tells the new owner to pull those
//!   entries from the old owner's disk tier (`POST /v1/warm`, which
//!   fetches `GET /v1/cache/:key` and re-validates checksums before
//!   persisting).
//! - **One front end** — [`RouterServer`] runs the hardened event loop
//!   of [`crate::http`] with [`Router`] as its `Handler`: `/healthz`
//!   and `/readyz` answer on the loop thread, everything else (forwards,
//!   lookups, metrics scrapes) on a handler thread.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::error::ServiceError;
use crate::http::{
    decode_job, error_body, metrics_with_http, unknown_route, EventLoop, Handler, HttpClient,
    HttpConfig, HttpStats, Request, Response,
};
use crate::jobspec::{Fnv1a, KeyMemo};
use crate::json::{self, Json};
use crate::lock_recover;
use crate::retry::{splitmix64, RetryPolicy};
use crate::service::SiService;

/// Tuning knobs for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Replica addresses (`host:port`, with or without an `http://`
    /// prefix). At least one is required.
    pub replicas: Vec<String>,
    /// Virtual nodes per replica on the hash ring. More vnodes → more
    /// even shards; 64 keeps the ring small and the imbalance low.
    pub vnodes: usize,
    /// How often the background probe re-checks each replica's
    /// `/readyz`.
    pub probe_interval: Duration,
    /// Deadline for readiness probes and metrics scrapes.
    pub probe_timeout: Duration,
    /// Deadline for forwarded jobs (covers the replica's solve).
    pub forward_timeout: Duration,
    /// Maximum concurrently forwarded requests per replica; beyond this
    /// the router sheds with 503 instead of queueing. Also the most idle
    /// keep-alive connections kept per replica.
    pub max_in_flight: usize,
    /// Backoff schedule between failover sweeps when no replica could
    /// take a job. Seed its jitter (`RetryPolicy::with_jitter_seed`)
    /// so concurrent clients don't stampede a recovering replica.
    pub retry: RetryPolicy,
    /// Pull moved cache entries to their new owner on ring changes.
    pub warm_on_ring_change: bool,
    /// Bound on the routed-key memory used to plan cache warming; the
    /// oldest tracked keys are forgotten first.
    pub tracked_keys_cap: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: Vec::new(),
            vnodes: 64,
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(500),
            forward_timeout: Duration::from_secs(60),
            max_in_flight: 64,
            retry: RetryPolicy {
                max_retries: 5,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(200),
                multiplier: 2,
                jitter_seed: None,
            }
            .with_jitter_seed(0x5151_5151),
            warm_on_ring_change: true,
            tracked_keys_cap: 4096,
        }
    }
}

/// Per-replica routing state: fixed identity plus live health and
/// traffic counters.
struct ReplicaState {
    /// Normalized `host:port`, used as the ring identity and as the
    /// `peer` handed to `/v1/warm`.
    name: String,
    /// Keep-alive client for forwards, lookups, and warm requests
    /// (`forward_timeout`).
    forward: HttpClient,
    /// One-shot client for readiness probes and metrics scrapes
    /// (`probe_timeout`).
    probe: HttpClient,
    ready: AtomicBool,
    in_flight: AtomicUsize,
    forwards: AtomicU64,
    errors: AtomicU64,
}

#[derive(Default)]
struct RouterCounters {
    routed: AtomicU64,
    reroutes: AtomicU64,
    rejected_overload: AtomicU64,
    no_backend: AtomicU64,
    probe_transitions: AtomicU64,
    warm_requests: AtomicU64,
    warm_keys_pulled: AtomicU64,
    warm_keys_failed: AtomicU64,
}

/// Routed-key memory: job key → (structure fingerprint, owner index),
/// with insertion order for bounded eviction.
#[derive(Default)]
struct Tracked {
    map: HashMap<u64, (u64, usize)>,
    order: VecDeque<u64>,
}

/// `(name, section, key)`: the replica `/metrics` values each shard
/// entry of the router's `/metrics` copies.
const SHARD_METRICS: [(&str, &str, &str); 7] = [
    ("completed", "service", "completed"),
    ("cache_hits", "cache", "hits"),
    ("cache_misses", "cache", "misses"),
    ("cache_hit_ratio", "cache", "hit_ratio"),
    ("disk_hits", "cache", "disk_hits"),
    ("symbolic_cache_hits", "engine", "symbolic_cache_hits"),
    ("symbolic_cache_misses", "engine", "symbolic_cache_misses"),
];

/// A replica's position(s) on the ring: FNV-1a of its name and the
/// vnode index, matching the fingerprint hashing family.
fn ring_point(name: &str, vnode: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.mix_bytes(name.as_bytes());
    h.mix_u64(vnode as u64);
    h.finish()
}

/// The consistent-hash front end. Owns the ring, the probe state, and
/// the forwarding counters; [`RouterServer`] puts an HTTP listener in
/// front of it, and tests drive [`Router::handle`] directly.
pub struct Router {
    config: RouterConfig,
    replicas: Vec<ReplicaState>,
    /// Sorted `(point, replica index)` pairs over *ready* replicas.
    ring: Mutex<Vec<(u64, usize)>>,
    generation: AtomicU64,
    tracked: Mutex<Tracked>,
    /// Spec → (structure fingerprint, job key), so a forward does not
    /// rebuild and re-parse the circuit to place it.
    keys: KeyMemo,
    counters: RouterCounters,
}

impl Router {
    /// Builds a router over the configured replicas and probes each one
    /// once so the ring reflects who is already up.
    ///
    /// # Errors
    ///
    /// Rejects an empty replica list and addresses that don't resolve.
    pub fn new(config: RouterConfig) -> Result<Router, String> {
        if config.replicas.is_empty() {
            return Err("at least one --replica is required".to_string());
        }
        let mut replicas = Vec::with_capacity(config.replicas.len());
        for raw in &config.replicas {
            let name = raw
                .trim()
                .trim_start_matches("http://")
                .trim_end_matches('/')
                .to_string();
            let addr = name
                .to_socket_addrs()
                .map_err(|e| format!("replica {name:?}: {e}"))?
                .next()
                .ok_or_else(|| format!("replica {name:?} resolves to no address"))?;
            replicas.push(ReplicaState {
                name,
                forward: HttpClient::new(addr)
                    .timeout(config.forward_timeout)
                    .keep_alive(config.max_in_flight),
                probe: HttpClient::new(addr).timeout(config.probe_timeout),
                ready: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
                forwards: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            });
        }
        let router = Router {
            config,
            replicas,
            ring: Mutex::new(Vec::new()),
            generation: AtomicU64::new(0),
            tracked: Mutex::new(Tracked::default()),
            keys: KeyMemo::default(),
            counters: RouterCounters::default(),
        };
        router.probe_once();
        Ok(router)
    }

    /// Current ring generation; bumps on every membership change.
    #[must_use]
    pub fn ring_generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Probes every replica's `/readyz` once and rebuilds the ring if
    /// any readiness changed. Returns whether membership changed.
    pub(crate) fn probe_once(&self) -> bool {
        let mut changed = false;
        for replica in &self.replicas {
            let ready_now = matches!(replica.probe.request("GET", "/readyz", None), Ok((200, _)));
            let was = replica.ready.swap(ready_now, Ordering::SeqCst);
            if was != ready_now {
                changed = true;
                self.counters
                    .probe_transitions
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        if changed {
            self.rebuild_ring();
            if self.config.warm_on_ring_change {
                self.warm_moved_keys();
            }
        }
        changed
    }

    /// Rebuilds the sorted ring over the currently ready replicas and
    /// bumps the generation.
    fn rebuild_ring(&self) {
        let mut points = Vec::new();
        for (idx, replica) in self.replicas.iter().enumerate() {
            if !replica.ready.load(Ordering::SeqCst) {
                continue;
            }
            for vnode in 0..self.config.vnodes.max(1) {
                points.push((ring_point(&replica.name, vnode), idx));
            }
        }
        points.sort_unstable();
        *lock_recover(&self.ring) = points;
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// The failover chain for a fingerprint: every ready replica in
    /// ring order starting at the fingerprint's point, deduplicated.
    /// The first entry is the shard owner.
    fn route_chain(&self, fp: u64) -> Vec<usize> {
        let ring = lock_recover(&self.ring);
        if ring.is_empty() {
            return Vec::new();
        }
        let h = splitmix64(fp);
        let start = ring.partition_point(|&(p, _)| p < h);
        let mut chain = Vec::new();
        for k in 0..ring.len() {
            let idx = ring[(start + k) % ring.len()].1;
            if !chain.contains(&idx) {
                chain.push(idx);
            }
        }
        chain
    }

    /// Marks a replica unready after a transport failure (without
    /// waiting for the next probe tick) and rebuilds the ring.
    fn mark_unready(&self, idx: usize) {
        if self.replicas[idx].ready.swap(false, Ordering::SeqCst) {
            self.rebuild_ring();
        }
    }

    /// Records which replica served a job key so later ring changes can
    /// warm the new owner from the old one. Bounded FIFO.
    fn remember(&self, key: u64, fp: u64, owner: usize) {
        let mut tracked = lock_recover(&self.tracked);
        if let Some(slot) = tracked.map.get_mut(&key) {
            *slot = (fp, owner);
            return;
        }
        while tracked.map.len() >= self.config.tracked_keys_cap.max(1) {
            match tracked.order.pop_front() {
                Some(old) => {
                    tracked.map.remove(&old);
                }
                None => break,
            }
        }
        tracked.map.insert(key, (fp, owner));
        tracked.order.push_back(key);
    }

    /// After a ring change: for every tracked key whose owner moved,
    /// ask the new owner to pull the entry from the old owner's disk
    /// tier, then update the tracked owner either way (the ring is
    /// authoritative; a failed pull just means a recompute later).
    fn warm_moved_keys(&self) {
        let mut moves: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
        {
            let mut tracked = lock_recover(&self.tracked);
            let map = &mut tracked.map;
            for (&key, slot) in map.iter_mut() {
                let (fp, old_owner) = *slot;
                let Some(&new_owner) = self.route_chain(fp).first() else {
                    continue;
                };
                if new_owner != old_owner {
                    moves.entry((new_owner, old_owner)).or_default().push(key);
                    slot.1 = new_owner;
                }
            }
        }
        for ((new_owner, old_owner), keys) in moves {
            let peer = &self.replicas[old_owner];
            if !peer.ready.load(Ordering::SeqCst) {
                // The old owner is gone; nothing to pull from.
                self.counters
                    .warm_keys_failed
                    .fetch_add(keys.len() as u64, Ordering::Relaxed);
                continue;
            }
            let key_list = keys
                .iter()
                .map(|k| Json::String(format!("{k:016x}")))
                .collect();
            let body = Json::Object(vec![
                ("peer".to_string(), Json::String(peer.name.clone())),
                ("keys".to_string(), Json::Array(key_list)),
            ])
            .to_string_compact();
            self.counters.warm_requests.fetch_add(1, Ordering::Relaxed);
            let pulled = self.replicas[new_owner]
                .forward
                .request("POST", "/v1/warm", Some(&body))
                .ok()
                .filter(|(status, _)| *status == 200)
                .and_then(|(_, bytes)| json::parse(&String::from_utf8_lossy(&bytes)).ok())
                .and_then(|j| j.get("pulled").and_then(Json::as_f64));
            match pulled {
                Some(n) => {
                    let n = n as u64;
                    self.counters
                        .warm_keys_pulled
                        .fetch_add(n, Ordering::Relaxed);
                    self.counters
                        .warm_keys_failed
                        .fetch_add((keys.len() as u64).saturating_sub(n), Ordering::Relaxed);
                }
                None => {
                    self.counters
                        .warm_keys_failed
                        .fetch_add(keys.len() as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// Routes one request: job submission and lookup are forwarded,
    /// `/healthz` and `/readyz` are answered by the router itself.
    /// `/metrics` is served by the HTTP front end (see the `Handler`
    /// impl), which appends the listener's `"http"` section.
    #[must_use]
    pub fn handle(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        match (method, path) {
            ("POST", "/v1/jobs") => self.forward_job(body),
            ("GET", "/healthz") => (200, r#"{"status":"ok"}"#.to_string()),
            ("GET", "/readyz") => {
                let ready_count = self.ready_count();
                let status = if ready_count > 0 { 200 } else { 503 };
                let body = Json::Object(vec![
                    ("ready".to_string(), Json::Bool(ready_count > 0)),
                    (
                        "ready_replicas".to_string(),
                        Json::Number(ready_count as f64),
                    ),
                    (
                        "replicas".to_string(),
                        Json::Number(self.replicas.len() as f64),
                    ),
                ])
                .to_string_compact();
                (status, body)
            }
            ("GET", _) if path.starts_with("/v1/jobs/") => self.lookup_job(path),
            _ => unknown_route(method),
        }
    }

    fn ready_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.ready.load(Ordering::SeqCst))
            .count()
    }

    /// Forwards a job submission to its shard owner, failing over along
    /// the ring on transport errors and backing off (with jitter)
    /// between sweeps while replicas recover.
    fn forward_job(&self, body: &str) -> (u16, String) {
        let spec = match decode_job(body) {
            Ok((spec, _)) => spec,
            Err(err) => return (err.http_status(), error_body(&err)),
        };
        let (fp, key) = self.keys.route(&spec);
        let mut attempt: u32 = 0;
        loop {
            for idx in self.route_chain(fp) {
                let replica = &self.replicas[idx];
                if replica.in_flight.fetch_add(1, Ordering::SeqCst) >= self.config.max_in_flight {
                    replica.in_flight.fetch_sub(1, Ordering::SeqCst);
                    self.counters
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                    return (
                        503,
                        r#"{"error":"router_overloaded","message":"shard owner is at its in-flight bound; retry"}"#
                            .to_string(),
                    );
                }
                let result = replica.forward.request("POST", "/v1/jobs", Some(body));
                replica.in_flight.fetch_sub(1, Ordering::SeqCst);
                match result {
                    Ok((status, bytes)) => {
                        replica.forwards.fetch_add(1, Ordering::Relaxed);
                        if status == 200 {
                            self.counters.routed.fetch_add(1, Ordering::Relaxed);
                            self.remember(key, fp, idx);
                        }
                        return (status, body_text(bytes));
                    }
                    Err(_) => {
                        // The replica died (or wedged) mid-flight: take
                        // it out of the ring now and walk to the next
                        // node. Content-addressed jobs are safe to
                        // re-run elsewhere.
                        replica.errors.fetch_add(1, Ordering::Relaxed);
                        self.mark_unready(idx);
                        self.counters.reroutes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            match self.config.retry.delay(attempt) {
                Some(delay) => {
                    thread::sleep(delay);
                    // A replica may have recovered while we slept.
                    self.probe_once();
                }
                None => {
                    self.counters.no_backend.fetch_add(1, Ordering::Relaxed);
                    return (
                        503,
                        r#"{"error":"no_backend","message":"no ready replica could take the job"}"#
                            .to_string(),
                    );
                }
            }
            attempt += 1;
        }
    }

    /// `GET /v1/jobs/:id` — tries the tracked owner first, then sweeps
    /// every ready replica (the id alone doesn't encode the shard). A
    /// finished job (`200`) and a running one (`202` with its progress)
    /// both pass through.
    fn lookup_job(&self, path: &str) -> (u16, String) {
        let id = &path["/v1/jobs/".len()..];
        let Some(key) = SiService::parse_job_id(id) else {
            let err = ServiceError::InvalidSpec("job ids are 16 hex digits".to_string());
            return (err.http_status(), error_body(&err));
        };
        let tracked_owner = lock_recover(&self.tracked)
            .map
            .get(&key)
            .map(|&(_, owner)| owner);
        let mut order: Vec<usize> = tracked_owner.into_iter().collect();
        for idx in 0..self.replicas.len() {
            if !order.contains(&idx) {
                order.push(idx);
            }
        }
        for idx in order {
            let replica = &self.replicas[idx];
            if !replica.ready.load(Ordering::SeqCst) {
                continue;
            }
            if let Ok((status @ (200 | 202), bytes)) = replica.forward.request("GET", path, None) {
                return (status, body_text(bytes));
            }
        }
        (
            404,
            r#"{"error":"not_found","message":"no replica holds this job"}"#.to_string(),
        )
    }

    /// Router metrics: ring state and routing counters, plus a live
    /// per-shard scrape of each ready replica (cache hit ratios and
    /// symbolic-cache counters — the shard-affinity signal).
    #[must_use]
    pub fn metrics(&self) -> Json {
        let c = &self.counters;
        let count = |a: &AtomicU64| Json::Number(a.load(Ordering::Relaxed) as f64);
        let router = Json::Object(vec![
            (
                "ring_generation".to_string(),
                Json::Number(self.ring_generation() as f64),
            ),
            (
                "ring_size".to_string(),
                Json::Number(lock_recover(&self.ring).len() as f64),
            ),
            (
                "ready_replicas".to_string(),
                Json::Number(self.ready_count() as f64),
            ),
            ("routed".to_string(), count(&c.routed)),
            ("reroutes".to_string(), count(&c.reroutes)),
            ("rejected_overload".to_string(), count(&c.rejected_overload)),
            ("no_backend".to_string(), count(&c.no_backend)),
            ("probe_transitions".to_string(), count(&c.probe_transitions)),
            ("warm_requests".to_string(), count(&c.warm_requests)),
            ("warm_keys_pulled".to_string(), count(&c.warm_keys_pulled)),
            ("warm_keys_failed".to_string(), count(&c.warm_keys_failed)),
            (
                "tracked_keys".to_string(),
                Json::Number(lock_recover(&self.tracked).map.len() as f64),
            ),
        ]);
        let mut shards = Vec::new();
        for replica in &self.replicas {
            let mut entry = vec![
                ("replica".to_string(), Json::String(replica.name.clone())),
                (
                    "ready".to_string(),
                    Json::Bool(replica.ready.load(Ordering::SeqCst)),
                ),
                (
                    "in_flight".to_string(),
                    Json::Number(replica.in_flight.load(Ordering::SeqCst) as f64),
                ),
                ("forwards".to_string(), count(&replica.forwards)),
                ("errors".to_string(), count(&replica.errors)),
            ];
            if replica.ready.load(Ordering::SeqCst) {
                let scraped = replica.probe.request("GET", "/metrics", None);
                if let Some(m) = scraped
                    .ok()
                    .filter(|(status, _)| *status == 200)
                    .and_then(|(_, bytes)| json::parse(&String::from_utf8_lossy(&bytes)).ok())
                {
                    for (name, section, key) in SHARD_METRICS {
                        let value = m.get(section).and_then(|s| s.get(key)).cloned();
                        entry.push((name.to_string(), value.unwrap_or(Json::Null)));
                    }
                }
            }
            shards.push(Json::Object(entry));
        }
        Json::Object(vec![
            ("router".to_string(), router),
            ("shards".to_string(), Json::Array(shards)),
        ])
    }
}

/// The router's routes: the probes answer on the loop thread; forwards,
/// lookups, and `/metrics` (which scrapes every replica) block.
impl Handler for Router {
    type Deferred = Request;

    fn inline(&self, request: Request, _http: &HttpStats) -> Result<Response, Request> {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz" | "/readyz") => {
                let (status, body) = self.handle(&request.method, &request.path, "");
                Ok(Response::json(status, body))
            }
            _ => Err(request),
        }
    }

    fn blocking(&self, request: Request, http: &HttpStats) -> Response {
        if request.method == "GET" && request.path == "/metrics" {
            return Response::json(200, metrics_with_http(self.metrics(), http));
        }
        let (status, body) = self.handle(&request.method, &request.path, &request.body);
        Response::json(status, body)
    }
}

/// The HTTP front end for a [`Router`]: the shared event loop plus the
/// background readiness probe.
pub struct RouterServer {
    router: Arc<Router>,
    front: EventLoop,
    stop_probe: Arc<AtomicBool>,
    probe_thread: Option<thread::JoinHandle<()>>,
}

impl RouterServer {
    /// Binds the front end with the default [`HttpConfig`], probes the
    /// replicas once, and starts the event loop and the probe thread.
    /// Bind to port 0 to let the OS pick.
    ///
    /// # Errors
    ///
    /// Propagates bind errors; replica resolution errors surface as
    /// `InvalidInput`.
    pub fn bind(addr: &str, config: RouterConfig) -> std::io::Result<RouterServer> {
        let probe_interval = config.probe_interval;
        let router = Arc::new(
            Router::new(config)
                .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))?,
        );
        let front = EventLoop::start(addr, Arc::clone(&router), HttpConfig::default())?;
        let stop_probe = Arc::new(AtomicBool::new(false));
        let probe_router = Arc::clone(&router);
        let probe_stop = Arc::clone(&stop_probe);
        let probe_thread = thread::Builder::new()
            .name("si-router-probe".to_string())
            .spawn(move || {
                while !probe_stop.load(Ordering::SeqCst) {
                    probe_router.probe_once();
                    // Sleep in small slices so shutdown stays prompt.
                    let mut slept = Duration::ZERO;
                    while slept < probe_interval && !probe_stop.load(Ordering::SeqCst) {
                        let step = Duration::from_millis(10).min(probe_interval - slept);
                        thread::sleep(step);
                        slept += step;
                    }
                }
            })?;
        Ok(RouterServer {
            router,
            front,
            stop_probe,
            probe_thread: Some(probe_thread),
        })
    }

    /// The bound front-end address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.addr
    }

    /// The routing core, for in-process inspection (metrics, probes).
    #[must_use]
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Stops the event loop and the probe thread and joins them.
    pub fn shutdown(&mut self) {
        self.front.stop();
        self.stop_probe.store(true, Ordering::SeqCst);
        if let Some(t) = self.probe_thread.take() {
            let _ = t.join();
        }
    }
}

/// A replica's body as text, taking the bytes over instead of copying
/// them; invalid UTF-8 (never sent by a replica) still comes back with
/// U+FFFD in place of each bad sequence.
fn body_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes)
        .unwrap_or_else(|err| String::from_utf8_lossy(err.as_bytes()).into_owned())
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(replicas: Vec<String>) -> RouterConfig {
        RouterConfig {
            replicas,
            probe_interval: Duration::from_millis(25),
            probe_timeout: Duration::from_millis(200),
            forward_timeout: Duration::from_secs(10),
            retry: RetryPolicy {
                max_retries: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
                multiplier: 2,
                jitter_seed: Some(7),
            },
            ..RouterConfig::default()
        }
    }

    /// The ring maps every fingerprint to exactly one owner, stable
    /// across rebuilds with the same membership.
    #[test]
    fn ring_assignment_is_deterministic_and_total() {
        let router = Router::new(test_config(vec![
            "127.0.0.1:1".to_string(),
            "127.0.0.1:2".to_string(),
            "127.0.0.1:3".to_string(),
        ]))
        .unwrap();
        for replica in &router.replicas {
            replica.ready.store(true, Ordering::SeqCst);
        }
        router.rebuild_ring();
        let owners: Vec<usize> = (0..512u64).map(|fp| router.route_chain(fp)[0]).collect();
        router.rebuild_ring();
        let again: Vec<usize> = (0..512u64).map(|fp| router.route_chain(fp)[0]).collect();
        assert_eq!(owners, again, "same membership must give the same map");
        // Every replica owns a meaningful share (vnodes keep it even).
        for idx in 0..3 {
            let share = owners.iter().filter(|&&o| o == idx).count();
            assert!(
                share > 512 / 10,
                "replica {idx} owns only {share}/512 fingerprints"
            );
        }
    }

    /// Removing a replica moves only its keys: consistent hashing's
    /// defining property.
    #[test]
    fn membership_change_moves_only_the_departed_replicas_keys() {
        let router = Router::new(test_config(vec![
            "127.0.0.1:1".to_string(),
            "127.0.0.1:2".to_string(),
            "127.0.0.1:3".to_string(),
        ]))
        .unwrap();
        for replica in &router.replicas {
            replica.ready.store(true, Ordering::SeqCst);
        }
        router.rebuild_ring();
        let before: Vec<usize> = (0..512u64).map(|fp| router.route_chain(fp)[0]).collect();
        let generation = router.ring_generation();
        router.mark_unready(2);
        assert!(
            router.ring_generation() > generation,
            "generation must bump"
        );
        for (fp, &owner_before) in before.iter().enumerate() {
            let owner_after = router.route_chain(fp as u64)[0];
            if owner_before != 2 {
                assert_eq!(
                    owner_before, owner_after,
                    "fp {fp} moved although its owner never left"
                );
            } else {
                assert_ne!(owner_after, 2, "fp {fp} still routed to a dead replica");
            }
        }
    }

    /// The failover chain starts at the owner and visits every other
    /// ready replica exactly once.
    #[test]
    fn route_chain_visits_each_ready_replica_once() {
        let router = Router::new(test_config(vec![
            "127.0.0.1:1".to_string(),
            "127.0.0.1:2".to_string(),
            "127.0.0.1:3".to_string(),
        ]))
        .unwrap();
        for replica in &router.replicas {
            replica.ready.store(true, Ordering::SeqCst);
        }
        router.rebuild_ring();
        for fp in 0..64u64 {
            let mut chain = router.route_chain(fp);
            chain.sort_unstable();
            assert_eq!(chain, vec![0, 1, 2]);
        }
        // No ready replicas → empty chain, not a panic.
        for idx in 0..3 {
            router.mark_unready(idx);
        }
        assert!(router.route_chain(1).is_empty());
    }

    /// The routed-key memory is bounded: oldest entries fall out first.
    #[test]
    fn tracked_keys_are_bounded_fifo() {
        let mut config = test_config(vec!["127.0.0.1:1".to_string()]);
        config.tracked_keys_cap = 4;
        let router = Router::new(config).unwrap();
        for key in 0..10u64 {
            router.remember(key, key, 0);
        }
        let tracked = lock_recover(&router.tracked);
        assert_eq!(tracked.map.len(), 4);
        for key in 6..10u64 {
            assert!(tracked.map.contains_key(&key), "newest keys must survive");
        }
    }

    /// With no ready replica the router sheds with a typed 503 after
    /// its backoff budget — it must not hang or panic.
    #[test]
    fn no_backend_yields_typed_503() {
        let router = Router::new(test_config(vec!["127.0.0.1:1".to_string()])).unwrap();
        let body = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1}"#;
        let (status, response) = router.handle("POST", "/v1/jobs", body);
        assert_eq!(status, 503, "{response}");
        assert!(response.contains("no_backend"), "{response}");
        // Malformed specs are rejected before touching the ring.
        let (status, response) = router.handle("POST", "/v1/jobs", "{nope");
        assert_eq!(status, 400, "{response}");
    }

    /// A replica body that is not UTF-8 reaches the caller with U+FFFD
    /// for each bad byte, on the POST forward and the GET lookup alike.
    #[test]
    fn non_utf8_replica_bodies_come_back_lossy() {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let replica = thread::spawn(move || {
            // Answers the construction probe, the POST, then the GET.
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                let mut request = Vec::new();
                let mut byte = [0u8; 1];
                while !request.ends_with(b"\r\n\r\n") {
                    stream.read_exact(&mut byte).unwrap();
                    request.push(byte[0]);
                }
                let head = String::from_utf8(request).unwrap();
                let length: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .map_or(0, |n| n.trim().parse().unwrap());
                stream.read_exact(&mut vec![0; length]).unwrap();
                let body = b"{\"note\":\"\xff\xfe\"}";
                write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                )
                .unwrap();
                stream.write_all(body).unwrap();
                if head.starts_with("GET /v1/jobs/") {
                    break;
                }
            }
        });
        let router = Router::new(test_config(vec![addr.to_string()])).unwrap();
        router.replicas[0].ready.store(true, Ordering::SeqCst);
        router.rebuild_ring();
        let body = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1}"#;
        let expected = "{\"note\":\"\u{fffd}\u{fffd}\"}";
        assert_eq!(
            router.handle("POST", "/v1/jobs", body),
            (200, expected.to_string())
        );
        let spec = crate::jobspec::JobSpec::from_json(&json::parse(body).unwrap()).unwrap();
        let path = format!("/v1/jobs/{}", SiService::job_id(&spec));
        assert_eq!(router.handle("GET", &path, ""), (200, expected.to_string()));
        replica.join().unwrap();
    }

    /// POSTs `body` to `addr` and returns the whole raw response.
    fn raw_post(addr: SocketAddr, body: &str) -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(
            stream,
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    /// The router's own 503s — `no_backend` and `router_overloaded` —
    /// carry `Retry-After`, like every 503 the shared loop frames.
    #[test]
    fn router_503s_carry_retry_after() {
        let body = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1}"#;
        let no_replica =
            RouterServer::bind("127.0.0.1:0", test_config(vec!["127.0.0.1:1".to_string()]))
                .unwrap();
        let response = raw_post(no_replica.local_addr(), body);
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("no_backend"), "{response}");
        assert!(response.contains("Retry-After: 1\r\n"), "{response}");

        let service = Arc::new(SiService::new(crate::service::ServiceConfig::default()));
        let replica = crate::http::HttpServer::bind("127.0.0.1:0", service).unwrap();
        let mut config = test_config(vec![replica.local_addr().to_string()]);
        config.max_in_flight = 0;
        let full = RouterServer::bind("127.0.0.1:0", config).unwrap();
        assert_eq!(full.router().ready_count(), 1);
        let response = raw_post(full.local_addr(), body);
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("router_overloaded"), "{response}");
        assert!(response.contains("Retry-After: 1\r\n"), "{response}");
    }
}
