//! `si-serve`: the simulation job service daemon.
//!
//! ```text
//! si_serve [--addr HOST:PORT] [--workers N] [--queue N] [--timeout-ms MS]
//!          [--max-conns N] [--read-timeout-ms MS] [--max-body-bytes N]
//!          [--cache-dir PATH] [--cache-budget-bytes N]
//! ```
//!
//! Prints the bound address on stdout (`listening on <addr>`) once ready,
//! so scripts can bind port 0 and scrape the real port. Runs until killed;
//! every admitted job finishes before exit thanks to the pool's drain.
//!
//! The listener hardening knobs (`--max-conns`, `--read-timeout-ms`,
//! `--max-body-bytes`) map straight onto
//! [`HttpConfig`]; see its docs for what
//! each bound rejects (`503`, `408`, `413` respectively).
//!
//! `--cache-dir` enables the persistent result tier
//! ([`DiskTier`](si_service::disk::DiskTier)): solved jobs survive a
//! restart (even `SIGKILL`) and are served from disk bit-identically.
//! `--cache-budget-bytes` caps its footprint (default 256 MiB,
//! least-recently-accessed evicted first).

use std::sync::Arc;
use std::time::Duration;

use si_service::http::{HttpConfig, HttpServer};
use si_service::service::{ServiceConfig, SiService};

struct Args {
    addr: String,
    workers: usize,
    queue: usize,
    timeout_ms: Option<u64>,
    max_conns: usize,
    read_timeout_ms: u64,
    max_body_bytes: usize,
    cache_dir: Option<std::path::PathBuf>,
    cache_budget_bytes: u64,
}

fn parse_args() -> Result<Args, String> {
    let http_defaults = HttpConfig::default();
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        workers: 4,
        queue: 64,
        timeout_ms: None,
        max_conns: http_defaults.max_connections,
        read_timeout_ms: http_defaults.read_timeout.as_millis() as u64,
        max_body_bytes: http_defaults.max_body_bytes,
        cache_dir: None,
        cache_budget_bytes: 256 << 20,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        let parse_usize = |name: &str, v: String| {
            v.parse::<usize>()
                .map_err(|_| format!("{name} must be an integer"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => args.workers = parse_usize("--workers", value("--workers")?)?,
            "--queue" => args.queue = parse_usize("--queue", value("--queue")?)?,
            "--timeout-ms" => {
                args.timeout_ms = Some(
                    value("--timeout-ms")?
                        .parse()
                        .map_err(|_| "--timeout-ms must be an integer".to_string())?,
                );
            }
            "--max-conns" => args.max_conns = parse_usize("--max-conns", value("--max-conns")?)?,
            "--read-timeout-ms" => {
                args.read_timeout_ms = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|_| "--read-timeout-ms must be an integer".to_string())?;
            }
            "--max-body-bytes" => {
                args.max_body_bytes = parse_usize("--max-body-bytes", value("--max-body-bytes")?)?;
            }
            "--cache-dir" => {
                args.cache_dir = Some(std::path::PathBuf::from(value("--cache-dir")?));
            }
            "--cache-budget-bytes" => {
                args.cache_budget_bytes = value("--cache-budget-bytes")?
                    .parse()
                    .map_err(|_| "--cache-budget-bytes must be an integer".to_string())?;
            }
            "--help" | "-h" => {
                return Err([
                    "usage: si_serve [--addr HOST:PORT] [--workers N] [--queue N]",
                    "                [--timeout-ms MS] [--max-conns N]",
                    "                [--read-timeout-ms MS] [--max-body-bytes N]",
                    "                [--cache-dir PATH] [--cache-budget-bytes N]",
                ]
                .join("\n"));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        default_deadline: args.timeout_ms.map(Duration::from_millis),
        cache_dir: args.cache_dir,
        cache_budget_bytes: args.cache_budget_bytes,
        ..ServiceConfig::default()
    }));
    let http = HttpConfig {
        read_timeout: Duration::from_millis(args.read_timeout_ms.max(1)),
        max_connections: args.max_conns,
        max_body_bytes: args.max_body_bytes,
        ..HttpConfig::default()
    };
    let server = match HttpServer::bind_with(&args.addr, service, http) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    // Serve until the process is killed; the accept thread owns the loop.
    loop {
        std::thread::park();
    }
}
