//! End-to-end tests for the consistent-hash router: real replicas
//! (in-process `HttpServer`s over real `SiService`s), a real
//! `RouterServer` in front, plain HTTP in between.
//!
//! What must hold:
//!
//! - **Shard affinity** — every job on one circuit topology is served
//!   by one replica, so repeats hit that replica's cache instead of
//!   recomputing elsewhere;
//! - **Fingerprint equivalence** — a netlist twin of a generator-built
//!   circuit shards identically (the fingerprint hashes the canonical
//!   parse, not the text);
//! - **Failover** — killing a replica mid-sequence loses nothing: the
//!   ring reroutes and the re-solve is bit-identical;
//! - **Warming** — when a replica joins, the keys it now owns are
//!   pulled from the old owner's disk tier and served as cache hits;
//! - **Readiness** — a drained replica leaves the ring via `/readyz`,
//!   not by timing out jobs;
//! - **Pass-through** — polling a running streaming job through the
//!   router gets the replica's `202` progress answer;
//! - **Connection reuse** — a pooled replica connection the replica
//!   closed while idle is replaced silently: no reroute, no ring change,
//!   no replica timeout;
//! - **No thread per forward** — a closed-loop client keeps the router
//!   on one pooled handler thread, and a replica answering hits inline
//!   on none.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use si_service::fault::{FaultInjector, FaultPlan};
use si_service::http::{HttpClient, HttpConfig, HttpServer};
use si_service::jobspec::JobSpec;
use si_service::json::{self, Json};
use si_service::retry::RetryPolicy;
use si_service::router::{RouterConfig, RouterServer};
use si_service::service::{ServiceConfig, SiService};

struct Replica {
    server: HttpServer,
    service: Arc<SiService>,
}

fn replica(workers: usize, cache_dir: Option<std::path::PathBuf>) -> Replica {
    let service = Arc::new(SiService::new(ServiceConfig {
        workers,
        queue_capacity: 32,
        cache_dir,
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind replica");
    Replica { server, service }
}

fn router_over(addrs: &[SocketAddr], warm: bool) -> RouterServer {
    let config = RouterConfig {
        replicas: addrs.iter().map(ToString::to_string).collect(),
        probe_interval: Duration::from_millis(25),
        probe_timeout: Duration::from_millis(250),
        forward_timeout: Duration::from_secs(30),
        warm_on_ring_change: warm,
        retry: RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(20),
            multiplier: 2,
            jitter_seed: Some(42),
        },
        ..RouterConfig::default()
    };
    RouterServer::bind("127.0.0.1:0", config).expect("bind router")
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, body) = HttpClient::new(addr)
        .request_text("GET", path, None)
        .expect("GET");
    (status, json::parse(&body).unwrap_or(Json::Null))
}

fn wait_for<F: FnMut() -> bool>(what: &str, mut pred: F) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if pred() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

fn ready_replicas(router: SocketAddr) -> f64 {
    let (_, body) = get_json(router, "/readyz");
    body.get("ready_replicas")
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn metric(service: &SiService, section: &str, name: &str) -> f64 {
    service
        .metrics()
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing metric {section}.{name}"))
}

fn dc_spec(stages: usize) -> String {
    format!(r#"{{"kind":"delay_line_dc","stages":{stages},"bias_ua":20,"input_ua":1}}"#)
}

/// Shard affinity: repeats of a topology always land on the replica
/// that owns it, so every repeat is a cache hit *somewhere* and no
/// topology is solved twice. Also pins the netlist-twin equivalence
/// that makes the sharding key text-independent.
#[test]
fn cluster_shards_by_topology_with_affine_caching() {
    const TOPOLOGIES: usize = 12;
    const REPEATS: usize = 3;
    let replicas: Vec<Replica> = (0..3).map(|_| replica(2, None)).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.server.local_addr()).collect();
    let mut router = router_over(&addrs, false);
    let front = router.local_addr();
    wait_for("all replicas in the ring", || ready_replicas(front) == 3.0);

    for stages in 3..3 + TOPOLOGIES {
        let spec = dc_spec(stages);
        for repeat in 0..=REPEATS {
            let (status, body) = HttpClient::new(front)
                .request_text("POST", "/v1/jobs", Some(&spec))
                .unwrap();
            assert_eq!(status, 200, "{body}");
            let cached = json::parse(&body).unwrap().get("cached").cloned();
            assert_eq!(
                cached,
                Some(Json::Bool(repeat > 0)),
                "stages {stages} repeat {repeat}: affinity broke (a repeat missed)"
            );
        }
    }

    // Every topology was solved exactly once cluster-wide; every repeat
    // hit the owner's cache.
    let total_hits: f64 = replicas
        .iter()
        .map(|r| metric(&r.service, "cache", "hits"))
        .sum();
    let total_misses: f64 = replicas
        .iter()
        .map(|r| metric(&r.service, "cache", "misses"))
        .sum();
    assert_eq!(total_misses, TOPOLOGIES as f64, "a topology moved shards");
    assert_eq!(total_hits, (TOPOLOGIES * REPEATS) as f64);

    // The router saw every submission and kept the ring stable.
    let (_, metrics) = get_json(front, "/metrics");
    let router_section = metrics.get("router").expect("router section");
    assert_eq!(
        router_section.get("routed").and_then(Json::as_f64),
        Some((TOPOLOGIES * (REPEATS + 1)) as f64)
    );
    assert_eq!(
        router_section.get("reroutes").and_then(Json::as_f64),
        Some(0.0)
    );

    // A netlist twin of a generator-built line shards identically: the
    // fingerprint hashes the canonical parse, not the representation.
    use si_analog::units::{Amps, Farads, Volts};
    let design = si_analog::cells::DelayLineDesign {
        stages: 4,
        bias: Amps(20e-6),
        vov: Volts(0.25),
        hold_cap: Farads(0.5e-12),
    };
    let mut line = design.build().unwrap();
    si_analog::dc::set_current_source(&mut line.circuit, &line.input_source, Amps(1e-6)).unwrap();
    let twin_text = si_analog::parse::to_netlist(&line.circuit).unwrap();
    let generator = JobSpec::DelayLineDc {
        stages: 4,
        bias_ua: 20.0,
        input_ua: 1.0,
    };
    let twin = JobSpec::Netlist { netlist: twin_text };
    assert_eq!(
        generator.structure_fingerprint(),
        twin.structure_fingerprint(),
        "netlist twin must land on the same shard as its generator job"
    );

    router.shutdown();
    for mut r in replicas {
        r.server.shutdown();
        r.service.shutdown();
    }
}

/// Failover: after the owner dies, resubmitting the same job succeeds
/// on another replica with bit-identical values, and the router's
/// reroute and generation counters record the event.
#[test]
fn failover_completes_jobs_bit_identically_after_replica_death() {
    let mut replicas: Vec<Replica> = (0..2).map(|_| replica(2, None)).collect();
    let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.server.local_addr()).collect();
    let mut router = router_over(&addrs, false);
    let front = router.local_addr();
    wait_for("both replicas in the ring", || ready_replicas(front) == 2.0);
    let generation_before = router.router().ring_generation();

    let spec = dc_spec(5);
    let (status, body) = HttpClient::new(front)
        .request_text("POST", "/v1/jobs", Some(&spec))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let first = json::parse(&body).unwrap();
    let first_values = first.get("values").cloned().expect("values");

    // Kill the owner (the replica that actually solved it).
    let owner = replicas
        .iter()
        .position(|r| metric(&r.service, "service", "completed") == 1.0)
        .expect("someone solved it");
    replicas[owner].server.shutdown();
    replicas[owner].service.shutdown();

    // Resubmit: the router must reroute to the survivor and the fresh
    // solve must be bit-identical (deterministic engine).
    let (status, body) = HttpClient::new(front)
        .request_text("POST", "/v1/jobs", Some(&spec))
        .unwrap();
    assert_eq!(status, 200, "failover submit failed: {body}");
    let second = json::parse(&body).unwrap();
    assert_eq!(
        second.get("values").cloned().expect("values"),
        first_values,
        "failover result differs from the original solve"
    );

    let (_, metrics) = get_json(front, "/metrics");
    let router_section = metrics.get("router").expect("router section");
    assert!(
        router_section.get("reroutes").and_then(Json::as_f64) >= Some(1.0),
        "failover did not count a reroute: {metrics}",
        metrics = metrics.to_string_compact()
    );
    assert!(
        router.router().ring_generation() > generation_before,
        "replica death did not bump the ring generation"
    );
    // The cluster is degraded but still ready.
    let (status, _) = HttpClient::new(front)
        .request_text("GET", "/readyz", None)
        .unwrap();
    assert_eq!(status, 200);

    router.shutdown();
    let mut survivor = replicas.swap_remove(1 - owner);
    survivor.server.shutdown();
    survivor.service.shutdown();
}

/// Warming: when a second replica joins the ring, the keys it now owns
/// are pulled from the first replica's disk tier, and resubmissions are
/// all cache hits — some served from the new owner's warmed disk.
#[test]
fn ring_change_warms_new_owner_from_peer_disk() {
    const TOPOLOGIES: usize = 24;
    let base = std::env::temp_dir().join(format!("si-router-warm-{}", std::process::id()));
    let dir_a = base.join("a");
    let dir_b = base.join("b");
    let _ = std::fs::remove_dir_all(&base);

    let a = replica(2, Some(dir_a));
    // Reserve a port for the replica that joins later, so the router
    // can be configured with its address up front.
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let b_addr = reserved.local_addr().unwrap();
    drop(reserved);

    let mut router = router_over(&[a.server.local_addr(), b_addr], true);
    let front = router.local_addr();
    wait_for("replica a in the ring", || ready_replicas(front) == 1.0);

    for stages in 3..3 + TOPOLOGIES {
        let (status, body) = HttpClient::new(front)
            .request_text("POST", "/v1/jobs", Some(&dc_spec(stages)))
            .unwrap();
        assert_eq!(status, 200, "{body}");
    }
    wait_for("disk writes on replica a", || {
        metric(&a.service, "cache", "disk_writes") == TOPOLOGIES as f64
    });

    // Replica b joins on the reserved address; the probe adds it to the
    // ring and the router warms the keys that moved to it.
    let service_b = Arc::new(SiService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        cache_dir: Some(dir_b.clone()),
        ..ServiceConfig::default()
    }));
    let mut server_b =
        HttpServer::bind(&b_addr.to_string(), Arc::clone(&service_b)).expect("bind replica b");
    wait_for("warm pull after ring change", || {
        let (_, metrics) = get_json(front, "/metrics");
        metrics
            .get("router")
            .and_then(|r| r.get("warm_keys_pulled"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    });
    assert!(
        std::fs::read_dir(&dir_b).unwrap().count() >= 1,
        "no .sic entries arrived in the new owner's cache dir"
    );

    // Every topology resubmission is a hit somewhere — the moved ones
    // from b's warmed disk tier, without recomputation.
    for stages in 3..3 + TOPOLOGIES {
        let (status, body) = HttpClient::new(front)
            .request_text("POST", "/v1/jobs", Some(&dc_spec(stages)))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let parsed = json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("cached"),
            Some(&Json::Bool(true)),
            "stages {stages} was recomputed despite warming"
        );
    }
    assert!(
        metric(&service_b, "cache", "disk_hits") >= 1.0,
        "the new owner never served a warmed entry"
    );

    router.shutdown();
    server_b.shutdown();
    service_b.shutdown();
    let Replica {
        mut server,
        service,
    } = a;
    server.shutdown();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

/// Readiness: a drained replica (alive but not admitting) leaves the
/// ring through `/readyz`, flipping the router to 503 when it was the
/// only member.
#[test]
fn drained_replica_leaves_the_ring_via_readyz() {
    let r = replica(1, None);
    let mut router = router_over(&[r.server.local_addr()], false);
    let front = router.local_addr();
    wait_for("replica in the ring", || ready_replicas(front) == 1.0);

    // Drain the pool: the replica's event loop stays alive (liveness
    // 200) but readiness flips, and the probe must evict it.
    r.service.shutdown();
    wait_for("replica evicted from the ring", || {
        let (status, _) = HttpClient::new(front)
            .request_text("GET", "/readyz", None)
            .unwrap();
        status == 503
    });
    let (_, metrics) = get_json(front, "/metrics");
    let transitions = metrics
        .get("router")
        .and_then(|s| s.get("probe_transitions"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(transitions >= 2.0, "expected an up and a down transition");

    router.shutdown();
    let Replica {
        mut server,
        service,
    } = r;
    server.shutdown();
    service.shutdown();
}

/// A running `tran_stream` job polled through the router answers the
/// replica's `202 {status:"running",chunks_done,chunks_total}`, not a
/// 404, and the finished job then answers 200.
#[test]
fn polling_in_flight_stream_through_router_gets_202() {
    let r = replica(1, None);
    // Stall every per-chunk fault draw 20 ms so the job is observably in
    // flight while we poll.
    r.service
        .install_fault_injector(Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            panic_pm: 0,
            stall_pm: 1000,
            transient_pm: 0,
            drop_pm: 0,
            panic_mid_chunk_pm: 0,
            stall: Duration::from_millis(20),
            max_faults: u64::MAX,
        })));
    let mut router = router_over(&[r.server.local_addr()], false);
    let front = router.local_addr();
    wait_for("replica in the ring", || ready_replicas(front) == 1.0);

    let spec = JobSpec::TranStream {
        stages: 3,
        bias_ua: 20.0,
        input_ua: 2.0,
        steps: 900,
        dt_ns: 50.0,
        clock_hz: 2.0e6,
        chunk_steps: 128,
        seg_len: 256,
    };
    let path = format!("/v1/jobs/{}", SiService::job_id(&spec));
    let body = spec.to_json().to_string_compact();
    let poster = std::thread::spawn(move || {
        HttpClient::new(front)
            .request_text("POST", "/v1/jobs", Some(&body))
            .unwrap()
    });
    let mut progress = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.is_none() && Instant::now() < deadline {
        let (status, got) = get_json(front, &path);
        match status {
            202 if got.get("chunks_total").is_some() => progress = Some(got),
            200 => break, // raced past completion without seeing progress
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    let pending = progress.expect("never observed a 202 with chunk progress through the router");
    assert_eq!(
        pending.get("status").and_then(Json::as_str),
        Some("running")
    );
    assert_eq!(
        pending.get("chunks_total").and_then(Json::as_f64),
        Some(8.0)
    );
    assert!(pending.get("chunks_done").and_then(Json::as_f64).unwrap() < 8.0);

    let (status, _) = poster.join().unwrap();
    assert_eq!(status, 200);
    let (status, _) = get_json(front, &path);
    assert_eq!(status, 200);
    router.shutdown();
}

/// A replica closes idle keep-alive connections silently at its read
/// deadline. The router's pooled connection to it has gone stale by the
/// second forward; the client retries once on a fresh connection, so the
/// forward succeeds with no reroute, no ring change, and no `408` on the
/// replica.
#[test]
fn stale_pooled_connection_is_replaced_without_reroute() {
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    }));
    let replica = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        HttpConfig {
            read_timeout: Duration::from_millis(200),
            ..HttpConfig::default()
        },
    )
    .expect("bind replica");
    let mut router = router_over(&[replica.local_addr()], false);
    let front = router.local_addr();
    wait_for("replica in the ring", || ready_replicas(front) == 1.0);
    let generation = router.router().ring_generation();

    let forward = |stages: usize| {
        HttpClient::new(front)
            .request_text("POST", "/v1/jobs", Some(&dc_spec(stages)))
            .unwrap()
    };
    let (status, body) = forward(3);
    assert_eq!(status, 200, "{body}");
    std::thread::sleep(Duration::from_millis(400));
    let (status, body) = forward(4);
    assert_eq!(status, 200, "{body}");

    let reroutes = router
        .router()
        .metrics()
        .get("router")
        .and_then(|r| r.get("reroutes"))
        .and_then(Json::as_f64);
    assert_eq!(reroutes, Some(0.0));
    assert_eq!(router.router().ring_generation(), generation);
    assert_eq!(
        replica
            .http_stats()
            .timeouts
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
    router.shutdown();
}

/// A closed-loop hot client on one keep-alive connection: each forward
/// reuses the router's one parked handler thread, and the replica, whose
/// answers are all memory-tier hits served on its loop, starts none.
#[test]
fn closed_loop_hot_client_holds_one_router_handler_thread() {
    let r = replica(1, None);
    let spec = JobSpec::from_json(&json::parse(&dc_spec(3)).unwrap()).unwrap();
    r.service
        .submit_blocking(&spec, None)
        .expect("warm the replica in process");
    let mut router = router_over(&[r.server.local_addr()], false);
    let front = router.local_addr();
    wait_for("replica in the ring", || ready_replicas(front) == 1.0);

    let client = HttpClient::new(front).keep_alive(1);
    for _ in 0..300 {
        let (status, body) = client
            .request_text("POST", "/v1/jobs", Some(&dc_spec(3)))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(r#""cached":true"#), "{body}");
    }
    // Scraped on the same connection, so on the same thread.
    let (status, body) = client.request_text("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let spawned = json::parse(&body)
        .unwrap()
        .get("http")
        .and_then(|h| h.get("handler_threads_spawned"))
        .and_then(Json::as_f64);
    assert_eq!(spawned, Some(1.0), "router");
    let replica_spawned = r
        .server
        .http_stats()
        .handler_threads_spawned
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(replica_spawned, 0, "replica");
    router.shutdown();
}
