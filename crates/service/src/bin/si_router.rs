//! `si-router`: the consistent-hash sharding front end.
//!
//! ```text
//! si_router --replica HOST:PORT [--replica HOST:PORT ...]
//!           [--addr HOST:PORT] [--vnodes N] [--probe-interval-ms MS]
//!           [--probe-timeout-ms MS] [--forward-timeout-ms MS]
//!           [--max-in-flight N] [--jitter-seed N] [--no-warm]
//! ```
//!
//! Speaks the same HTTP API as `si_serve`, on the same hardened event
//! loop with the default [`HttpConfig`](si_service::http::HttpConfig)
//! limits, and forwards each job to the replica that owns its circuit
//! topology on the hash ring (see [`si_service::router`]). Prints the bound address on stdout
//! (`listening on <addr>`) once ready, so scripts can bind port 0 and
//! scrape the real port. Runs until killed.
//!
//! `--no-warm` disables pulling moved cache entries to their new owner
//! on ring changes; `--jitter-seed` pins the failover backoff jitter
//! for reproducible chaos runs.

use std::time::Duration;

use si_service::router::{RouterConfig, RouterServer};

struct Args {
    addr: String,
    config: RouterConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7800".to_string(),
        config: RouterConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        let parse_u64 = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} must be an integer"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--replica" => args.config.replicas.push(value("--replica")?),
            "--vnodes" => {
                args.config.vnodes = parse_u64("--vnodes", value("--vnodes")?)? as usize;
            }
            "--probe-interval-ms" => {
                args.config.probe_interval = Duration::from_millis(parse_u64(
                    "--probe-interval-ms",
                    value("--probe-interval-ms")?,
                )?);
            }
            "--probe-timeout-ms" => {
                args.config.probe_timeout = Duration::from_millis(parse_u64(
                    "--probe-timeout-ms",
                    value("--probe-timeout-ms")?,
                )?);
            }
            "--forward-timeout-ms" => {
                args.config.forward_timeout = Duration::from_millis(parse_u64(
                    "--forward-timeout-ms",
                    value("--forward-timeout-ms")?,
                )?);
            }
            "--max-in-flight" => {
                args.config.max_in_flight =
                    parse_u64("--max-in-flight", value("--max-in-flight")?)? as usize;
            }
            "--jitter-seed" => {
                args.config.retry.jitter_seed =
                    Some(parse_u64("--jitter-seed", value("--jitter-seed")?)?);
            }
            "--no-warm" => args.config.warm_on_ring_change = false,
            "--help" | "-h" => {
                return Err([
                    "usage: si_router --replica HOST:PORT [--replica HOST:PORT ...]",
                    "                 [--addr HOST:PORT] [--vnodes N]",
                    "                 [--probe-interval-ms MS] [--probe-timeout-ms MS]",
                    "                 [--forward-timeout-ms MS] [--max-in-flight N]",
                    "                 [--jitter-seed N] [--no-warm]",
                ]
                .join("\n"));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.config.replicas.is_empty() {
        return Err("at least one --replica is required".to_string());
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
    let server = match RouterServer::bind(&args.addr, args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    // Serve until the process is killed; threads own the work.
    loop {
        std::thread::park();
    }
}
