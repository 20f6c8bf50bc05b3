//! One workload's system under test: the service, its front ends, the
//! client, and (for the hot workloads) the working set solved up front.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use si_service::http::HttpServer;
use si_service::json::{self, Json};
use si_service::router::{RouterConfig, RouterServer};
use si_service::service::{ServiceConfig, SiService};

use crate::client::Client;
use crate::inputs::{Inputs, Op, MIX_KINDS};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HttpHot,
    HttpColdMix,
    RouterHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HttpHot,
        Workload::HttpColdMix,
        Workload::RouterHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpHot => "http_hot",
            Workload::HttpColdMix => "http_cold_mix",
            Workload::RouterHot => "router_hot",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_hot(self) -> bool {
        matches!(self, Workload::HttpHot | Workload::RouterHot)
    }

    /// Mix ops `http_cold_mix` issues during setup, eight of each kind
    /// (enough work that one slow fsync does not decide `setup_s`); timed
    /// ops start after them. The hot workloads warm up by reading their
    /// whole working set.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::HttpColdMix => 8 * MIX_KINDS as u64,
            _ => 0,
        }
    }
}

/// Keys the hot workloads cycle through.
pub const HOT_KEYS: u64 = 256;

/// One working-set entry: the request, the values its cold solve
/// returned, and the exact hot response body every later read must match.
pub struct HotKey {
    pub op: Op,
    pub values: Vec<f64>,
    pub body: Vec<u8>,
}

/// A running system under test. Dropping it stops every server and
/// deletes its cache directory.
pub struct Env {
    pub svc: Arc<SiService>,
    pub client: Option<Client>,
    /// The replica address behind the router (`router_hot` only).
    pub replica: Option<SocketAddr>,
    pub router: Option<RouterServer>,
    pub hot: Vec<HotKey>,
    server: Option<HttpServer>,
    dir: PathBuf,
}

/// A fresh single-worker service with a disk tier in `dir`.
pub fn service(dir: &Path) -> Result<Arc<SiService>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let svc = SiService::new(ServiceConfig {
        workers: 1,
        cache_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    });
    if !svc.is_ready() {
        return Err(format!("disk tier at {} did not open", dir.display()));
    }
    Ok(Arc::new(svc))
}

/// The values array of a job response body.
pub fn response_values(body: &[u8]) -> Result<Vec<f64>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 response".to_string())?;
    let doc = json::parse(text)?;
    doc.get("values")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("response without values: {text:.200}"))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| "non-numeric value".to_string()))
        .collect()
}

/// Whether two value vectors are identical bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `"cached":false` or `"cached":true` must appear in every job response.
pub fn says_cached(body: &[u8], cached: bool) -> bool {
    let needle: &[u8] = if cached {
        b"\"cached\":true"
    } else {
        b"\"cached\":false"
    };
    body.windows(needle.len()).any(|w| w == needle)
}

impl Env {
    /// Builds the system for `workload` in `dir` and runs its warm-up.
    /// Nothing here sleeps or polls: every step returns when it is done.
    pub fn setup(workload: Workload, inputs: &Inputs, dir: &Path) -> Result<Env, String> {
        let svc = service(dir)?;
        let mut env = Env {
            svc: Arc::clone(&svc),
            client: None,
            replica: None,
            router: None,
            hot: Vec::new(),
            server: None,
            dir: dir.to_path_buf(),
        };
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc))
            .map_err(|e| format!("bind service: {e}"))?;
        let mut target = server.local_addr();
        env.server = Some(server);
        if workload == Workload::RouterHot {
            let router = RouterServer::bind(
                "127.0.0.1:0",
                RouterConfig {
                    replicas: vec![target.to_string()],
                    // `Router::new` already probed once; a background
                    // probe mid-run would only add traffic.
                    probe_interval: Duration::from_secs(3600),
                    ..RouterConfig::default()
                },
            )
            .map_err(|e| format!("bind router: {e}"))?;
            if router.router().ring_generation() == 0 {
                return Err("router started with an empty ring".to_string());
            }
            env.replica = Some(target);
            target = router.local_addr();
            env.router = Some(router);
        }
        env.client = Some(Client::connect(target).map_err(|e| format!("connect: {e}"))?);
        if workload.is_hot() {
            for id in 0..HOT_KEYS {
                let op = inputs.mix(id);
                let values = response_values(&env.post(&op.body, false)?)?;
                let body = env.post(&op.body, true)?;
                if !same_bits(&response_values(&body)?, &values) {
                    return Err(format!("hot read of key {id} differs from its cold solve"));
                }
                env.hot.push(HotKey { op, values, body });
            }
        } else {
            for id in 0..workload.warmup_ops() {
                env.post(&inputs.mix(id).body, false)?;
            }
        }
        Ok(env)
    }

    /// One `POST /v1/jobs` that must succeed with the given `cached`
    /// flag. Returns the response body.
    pub fn post(&mut self, body: &str, cached: bool) -> Result<Vec<u8>, String> {
        let client = self.client.as_mut().expect("HTTP workloads have a client");
        let (status, resp) = client
            .post("/v1/jobs", body.as_bytes())
            .map_err(|e| format!("POST: {e}"))?;
        if status != 200 || !says_cached(resp, cached) {
            return Err(format!(
                "POST answered {status}: {:.200}",
                String::from_utf8_lossy(resp)
            ));
        }
        Ok(resp.to_vec())
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        // Client first, so the router's connection thread sees EOF.
        self.client = None;
        if let Some(mut router) = self.router.take() {
            router.shutdown();
        }
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
        self.svc.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
