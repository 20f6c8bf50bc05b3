//! Deterministic per-op counters: engine telemetry and `/metrics` deltas
//! over a fixed window of ops. The same seed must give the same values on
//! every run, so later count-based claims have an exact channel.

use std::time::Duration;

use si_service::json::Json;
use si_service::service::SiService;

/// The counter-bearing part of one `/metrics` document.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    transient_steps: u64,
    newton_iterations: u64,
    factorizations: u64,
    symbolic_hits: u64,
    symbolic_misses: u64,
    solve_time: Duration,
    lookups: u64,
    served: u64,
    disk_writes: u64,
}

fn count(doc: &Json, section: &str, key: &str) -> u64 {
    doc.get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64
}

impl Snapshot {
    fn take(svc: &SiService) -> Snapshot {
        let engine = svc.engine_stats();
        let doc = svc.metrics();
        let hits = count(&doc, "cache", "hits");
        let coalesced = count(&doc, "cache", "coalesced");
        let disk_hits = count(&doc, "cache", "disk_hits");
        Snapshot {
            transient_steps: engine.transient_steps,
            newton_iterations: engine.newton_iterations,
            factorizations: engine.factorizations,
            symbolic_hits: engine.symbolic_cache_hits,
            symbolic_misses: engine.symbolic_cache_misses,
            solve_time: engine.solve_time,
            lookups: hits + coalesced + disk_hits + count(&doc, "cache", "misses"),
            served: hits + coalesced + disk_hits,
            disk_writes: count(&doc, "cache", "disk_writes"),
        }
    }

    /// A snapshot once the worker has published everything: a job's
    /// result reaches the caller just before the worker publishes its
    /// telemetry, so read until two reads a few milliseconds apart agree.
    /// Used only at window edges, with the run's clock paused.
    pub fn settled(svc: &SiService) -> Snapshot {
        let mut last = Snapshot::take(svc);
        for _ in 0..50 {
            std::thread::sleep(Duration::from_millis(5));
            let now = Snapshot::take(svc);
            if now.key() == last.key() {
                return now;
            }
            last = now;
        }
        last
    }

    fn key(&self) -> [u64; 8] {
        [
            self.transient_steps,
            self.newton_iterations,
            self.factorizations,
            self.symbolic_hits,
            self.symbolic_misses,
            self.lookups,
            self.served,
            self.disk_writes,
        ]
    }
}

/// Counters over a window of `ops` ops. A ratio is `None` when its
/// denominator is zero — no transient steps or no factorizations in the
/// window — because then the workload never reached that layer.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub ops: u64,
    pub newton_iters_per_step: Option<f64>,
    pub factorizations_per_step: Option<f64>,
    pub symbolic_hit_ratio: Option<f64>,
    pub hit_ratio: Option<f64>,
    pub disk_writes_per_op: Option<f64>,
    /// Engine solve time over the window; a timing, so not deterministic.
    pub solve_time: Duration,
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den != 0).then(|| num as f64 / den as f64)
}

/// A counter for a report line: `-` when it was not measured.
pub fn show(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), |v| v.to_string())
}

impl Counters {
    pub fn between(before: &Snapshot, after: &Snapshot, ops: u64) -> Counters {
        let d = |f: fn(&Snapshot) -> u64| f(after) - f(before);
        let steps = d(|s| s.transient_steps);
        let sym_hits = d(|s| s.symbolic_hits);
        Counters {
            ops,
            newton_iters_per_step: ratio(d(|s| s.newton_iterations), steps),
            factorizations_per_step: ratio(d(|s| s.factorizations), steps),
            symbolic_hit_ratio: ratio(sym_hits, sym_hits + d(|s| s.symbolic_misses)),
            hit_ratio: ratio(d(|s| s.served), d(|s| s.lookups)),
            disk_writes_per_op: ratio(d(|s| s.disk_writes), ops),
            solve_time: after.solve_time.saturating_sub(before.solve_time),
        }
    }

    /// The deterministic part, printed so runs with one seed can be
    /// diffed exactly; `-` marks a ratio the workload never reached.
    pub fn line(&self) -> String {
        format!(
            "counters over the first {} timed ops: newton_iters_per_step={} factorizations_per_step={} symbolic_hit_ratio={} cache_hit_ratio={} disk_writes_per_op={}",
            self.ops,
            show(self.newton_iters_per_step),
            show(self.factorizations_per_step),
            show(self.symbolic_hit_ratio),
            show(self.hit_ratio),
            show(self.disk_writes_per_op)
        )
    }
}
