//! `perfbench`: end-to-end and per-layer benchmark of the SI transient
//! engine and the job service that serves it.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop — one client, one connection, the next
//! request only after the previous answer — against a one-worker service
//! built in this process. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` measures the per-layer metrics instead. The last stdout line
//! is one JSON object; the exit code is non-zero on any wrong output. See
//! `README.md` for the workloads and metrics.

mod client;
mod counters;
mod env;
mod inputs;
mod replay;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use si_analog::engine::EngineWorkspace;
use si_service::jobspec::JobSpec;

use crate::client::Client;
use crate::counters::{show, Counters, Snapshot};
use crate::env::{response_values, same_bits, says_cached, Env, Workload, HOT_KEYS};
use crate::inputs::{Inputs, Op, Rng};
use crate::replay::Replayer;
use crate::trace::Tracer;

/// Back-to-back setups per untraced run; `setup_s` is their median and
/// the last one serves the timed phase.
const SETUP_REPS: usize = 5;
/// The tail percentile, and how many samples must lie beyond it.
const TAIL: f64 = 0.9;
const TAIL_SAMPLES: usize = 10;
/// Ops a run always completes, whatever `--seconds` says, so the tail
/// percentile is backed by `TAIL_SAMPLES` samples.
const MIN_OPS: u64 = 100;
/// Where runs keep their scratch state and trace files, relative to the
/// directory the benchmark runs from.
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints: its metrics, op accounting and verdict.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let dir = Path::new(RUN_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
    let outcome = run(workload, &args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(out) => {
            if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench {}: {} is not a number", workload.name(), m.name);
                return ExitCode::FAILURE;
            }
            println!("{}", result_json(&out));
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a fresh process, and sums the verdicts.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(out) = out else {
            correct = false;
            continue;
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text
            .lines()
            .last()
            .and_then(|l| si_service::json::parse(l).ok());
        let num = |k: &str| {
            last.as_ref()
                .and_then(|d| d.get(k))
                .and_then(|v| v.as_f64())
        };
        attempted += num("attempted").unwrap_or(0.0) as u64;
        failed += num("failed").unwrap_or(0.0) as u64;
        correct &= out.status.success() && last.is_some();
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The op stream of a run: hot workloads cycle their working set in a
/// seeded order; the cold mix issues a fresh id per op, after the ids its
/// warm-up used.
enum OpRef {
    Hot(usize),
    Fresh(Op),
}

struct OpSeq {
    workload: Workload,
    order: Vec<usize>,
    /// Timed ops issued so far, over every phase of the run.
    next: u64,
}

impl OpSeq {
    fn new(workload: Workload, seed: u64) -> OpSeq {
        let mut order: Vec<usize> = (0..HOT_KEYS as usize).collect();
        Rng::new(seed.rotate_left(17)).shuffle(&mut order);
        OpSeq {
            workload,
            order,
            next: 0,
        }
    }

    /// The next timed op and its number within the run.
    fn next(&mut self, inputs: &Inputs) -> (u64, OpRef) {
        let n = self.next;
        self.next += 1;
        let op = match self.workload {
            Workload::HttpColdMix => OpRef::Fresh(inputs.mix(self.workload.warmup_ops() + n)),
            Workload::HttpHot | Workload::RouterHot => {
                OpRef::Hot(self.order[n as usize % self.order.len()])
            }
        };
        (n, op)
    }
}

/// Sends one op and checks what can be checked at once: hot answers must
/// equal the body recorded at setup byte for byte, cold ones must say they
/// were solved. Returns the body when `keep` is set.
fn execute(
    client: &mut Client,
    op: &Op,
    hot_body: Option<&[u8]>,
    keep: bool,
) -> Result<Option<Vec<u8>>, String> {
    let (status, body) = client
        .post("/v1/jobs", op.body.as_bytes())
        .map_err(|e| format!("POST: {e}"))?;
    let ok = status == 200
        && match hot_body {
            Some(expected) => body == expected,
            None => says_cached(body, false),
        };
    if !ok {
        return Err(format!(
            "status {status}: {:.160}",
            String::from_utf8_lossy(body)
        ));
    }
    Ok(keep.then(|| body.to_vec()))
}

/// Whether timed op `n` is re-solved by the correctness gate.
fn in_gate_sample(workload: Workload, n: u64) -> bool {
    match workload {
        Workload::HttpColdMix => n < 12 || (n.is_multiple_of(64) && n <= 64 * 36),
        Workload::HttpHot | Workload::RouterHot => false,
    }
}

/// Ops per throughput window. Throughput is the median window rate, so a
/// burst of host noise moves one window, not the result; a window spans
/// whole rotations of the mix kinds.
fn rate_window(workload: Workload) -> u64 {
    match workload {
        Workload::HttpHot => 1536,
        Workload::HttpColdMix => 120,
        Workload::RouterHot => 768,
    }
}

/// Ops whose `/metrics` and engine deltas form the deterministic counters.
fn counter_window(workload: Workload) -> u64 {
    match workload {
        Workload::HttpHot => 2000,
        Workload::HttpColdMix => 200,
        Workload::RouterHot => 1000,
    }
}

#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    /// Completed ops per active second over consecutive windows of
    /// `rate_window` ops.
    rates: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Gate-sampled ops: the spec and the body it was served.
    gate: Vec<(JobSpec, Vec<u8>)>,
    counters: Option<Counters>,
    /// `VmHWM` once the counter window's ops are done.
    peak_rss_mb: Option<f64>,
    /// Numbers of the ops whose replay succeeded.
    traced: Vec<u64>,
}

/// How long a phase runs and what it records.
struct Plan {
    /// Active seconds to run for...
    seconds: f64,
    /// ...and ops to complete at least.
    min_ops: u64,
    /// Take the deterministic counters over this many first ops.
    window: Option<u64>,
}

/// A timed closed loop. Work that is not the loop's — settling the
/// counters, replaying traced ops — pauses the clock.
fn phase(
    workload: Workload,
    env: &mut Env,
    inputs: &Inputs,
    seq: &mut OpSeq,
    plan: &Plan,
    mut traced: Option<(&mut Tracer, &mut Replayer)>,
) -> Phase {
    let window = plan.window;
    let before = window.map(|_| Snapshot::settled(&env.svc));
    let mut p = Phase::default();
    let mut errors = Vec::new();
    let mut paused = Duration::ZERO;
    let (mut window_start, mut window_done) = (Duration::ZERO, 0u64);
    let start = Instant::now();
    loop {
        if p.attempted >= plan.min_ops && (start.elapsed() - paused).as_secs_f64() >= plan.seconds {
            break;
        }
        let (n, op_ref) = seq.next(inputs);
        let (op, hot_body) = match &op_ref {
            OpRef::Hot(i) => (&env.hot[*i].op, Some(&env.hot[*i].body[..])),
            OpRef::Fresh(op) => (op, None),
        };
        let gate = in_gate_sample(workload, n);
        let keep = gate || traced.is_some();
        let client = env.client.as_mut().expect("every workload has a client");
        let span = traced.as_mut().map(|(tr, _)| tr.open(replay::OP, n, None));
        let t0 = Instant::now();
        let result = execute(client, op, hot_body, keep);
        let dt = t0.elapsed();
        if let (Some(span), Some((tr, _))) = (span, traced.as_mut()) {
            tr.close(span);
        }
        p.attempted += 1;
        p.latencies_ms.push(dt.as_secs_f64() * 1e3);
        let kept = match result {
            Ok(kept) => {
                window_done += 1;
                kept
            }
            Err(e) => {
                p.failed += 1;
                if errors.len() < 5 {
                    errors.push(e);
                }
                None
            }
        };
        if p.attempted.is_multiple_of(rate_window(workload)) {
            let now = start.elapsed() - paused;
            p.rates
                .push(window_done as f64 / (now - window_start).as_secs_f64());
            (window_start, window_done) = (now, 0);
        }
        if window == Some(p.attempted) {
            let t = Instant::now();
            let after = Snapshot::settled(&env.svc);
            p.counters = Some(Counters::between(
                &before.expect("window set"),
                &after,
                p.attempted,
            ));
            p.peak_rss_mb = sys::peak_rss_mb();
            paused += t.elapsed();
        }
        if let (Some((tr, replayer)), Some(body)) = (traced.as_mut(), kept.as_ref()) {
            let t = Instant::now();
            match replayer.replay(tr, workload, env, n, op, body) {
                Ok(()) => p.traced.push(n),
                Err(e) => {
                    p.failed += 1;
                    if errors.len() < 5 {
                        errors.push(e);
                    }
                }
            }
            paused += t.elapsed();
        }
        if gate {
            if let Some(body) = kept {
                p.gate.push((op.spec.clone(), body));
            }
        }
    }
    for e in &errors {
        eprintln!("perfbench {}: failed op: {e}", workload.name());
    }
    p
}

/// The correctness gate: re-solves a fixed sample with `JobSpec::run` on
/// a fresh workspace and compares bit for bit. Returns `(checked,
/// mismatched)`.
fn gate(
    workload: Workload,
    env: &Env,
    sample: &[(JobSpec, Vec<u8>)],
) -> Result<(u64, u64), String> {
    let mut cases: Vec<(&JobSpec, Vec<f64>)> = Vec::new();
    if workload.is_hot() {
        // Two keys of every kind, against the values of their cold solve.
        for key in env.hot.iter().take(2 * inputs::MIX_KINDS) {
            cases.push((&key.op.spec, key.values.clone()));
        }
    }
    for (spec, body) in sample {
        cases.push((spec, response_values(body)?));
    }
    let mut mismatched = 0;
    for (spec, served) in &cases {
        let fresh = spec
            .run(&mut EngineWorkspace::new())
            .map_err(|e| format!("gate re-solve: {e}"))?;
        if !same_bits(&fresh.values, served) {
            mismatched += 1;
            eprintln!(
                "perfbench {}: gate mismatch on a {} job",
                workload.name(),
                spec.kind()
            );
        }
    }
    Ok((cases.len() as u64, mismatched))
}

fn run(workload: Workload, args: &Args, dir: &Path) -> Result<Outcome, String> {
    // Not pinned: see README.md ("Load shape") for the measured spreads.
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} cpus={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let inputs = Inputs::new(args.seed);
    let mut seq = OpSeq::new(workload, args.seed);
    let window = counter_window(workload);
    if args.trace {
        let mut env = Env::setup(workload, &inputs, &dir.join("setup"))?;
        return traced_run(workload, args, dir, &mut env, &inputs, &mut seq, window);
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for rep in 0..SETUP_REPS {
        // The previous system is torn down off the clock.
        drop(env.take());
        let t = Instant::now();
        let e = Env::setup(workload, &inputs, &dir.join(format!("setup{rep}")))?;
        setups.push(t.elapsed().as_secs_f64());
        env = Some(e);
    }
    let mut env = env.expect("SETUP_REPS > 0");
    let plan = Plan {
        seconds: args.seconds,
        min_ops: MIN_OPS.max(window),
        window: Some(window),
    };
    let mut p = phase(workload, &mut env, &inputs, &mut seq, &plan, None);
    let (checked, mismatched) = gate(workload, &env, &p.gate)?;
    drop(env);
    let mut sorted = std::mem::take(&mut p.latencies_ms);
    sorted.sort_by(f64::total_cmp);
    if stats::beyond(sorted.len(), TAIL) < TAIL_SAMPLES {
        return Err("too few ops for the tail percentile".to_string());
    }
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: stats::median(&setups).expect("setups ran"),
            unit: "s",
        },
        Metric {
            name: "throughput_ops_s",
            value: stats::median(&p.rates).ok_or("no complete throughput window")?,
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms",
            value: stats::percentile(&sorted, 0.5),
            unit: "ms",
        },
        Metric {
            name: "latency_p90_ms",
            value: stats::percentile(&sorted, TAIL),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: p.peak_rss_mb.ok_or("VmHWM is not readable")?,
            unit: "MB",
        },
    ];
    for m in &metrics {
        println!("{:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# setups_s={setups:?} ops={} beyond_p90={}",
        sorted.len(),
        stats::beyond(sorted.len(), TAIL)
    );
    report_ops(
        p.attempted,
        p.failed,
        checked,
        mismatched,
        p.counters.as_ref(),
    );
    Ok(Outcome {
        metrics,
        attempted: p.attempted,
        failed: p.failed + mismatched,
        correct: p.failed == 0 && mismatched == 0,
    })
}

fn report_ops(
    attempted: u64,
    failed: u64,
    checked: u64,
    mismatched: u64,
    counters: Option<&Counters>,
) {
    println!(
        "# ops attempted={attempted} failed={failed} gate_checked={checked} gate_mismatched={mismatched}"
    );
    if let Some(c) = counters {
        println!("# {}", c.line());
    }
}

/// Per-layer row of the traced report: the metric, its unit and scale
/// from nanoseconds, and whether it goes into the result line.
struct Layer {
    name: &'static str,
    unit: &'static str,
    per_ns: f64,
    /// `true`: measured on every workload, part of the result line.
    common: bool,
}

const fn layer(name: &'static str, unit: &'static str, common: bool) -> Layer {
    let per_ns = match unit.as_bytes() {
        b"us" => 1e-3,
        b"ms" => 1e-6,
        _ => 1.0,
    };
    Layer {
        name,
        unit,
        per_ns,
        common,
    }
}

/// Every per-layer metric, in report order. Span-backed entries are
/// keyed by their metric name (span name plus unit suffix).
const LAYERS: [Layer; 21] = [
    layer("service.json.decode_us", "us", true),
    layer("service.json.encode_us", "us", true),
    layer("service.jobspec.job_key_us", "us", true),
    layer("service.jobspec.admission_us", "us", true),
    layer("service.disk.store_ms", "ms", true),
    layer("analog.solve_ms", "ms", true),
    layer("unattributed_ms", "ms", true),
    layer("service.cache.serve_cached_us", "us", false),
    layer("service.submit.overhead_ms", "ms", false),
    layer("service.http.frontend_us", "us", false),
    layer("service.router.handle_us", "us", false),
    layer("service.router.hop_us", "us", false),
    layer("analog.build_ms", "ms", false),
    layer("analog.tran.ic_ms", "ms", false),
    layer("analog.tran.chunk_ms", "ms", false),
    layer("dsp.welch.push_ms", "ms", false),
    layer("dsp.welch.finish_ms", "ms", false),
    layer("analog.parse.canonical_us", "us", false),
    layer("analog.solve.dc_ms", "ms", false),
    layer("analog.solve.batch_ms", "ms", false),
    layer("analog.solve.tran_ms", "ms", false),
];

/// Layer metrics that were planned but are not measured, with the reason.
const DROPPED: [(&str, &str, &str); 2] = [
    (
        "analog.solve.ac_ms",
        "ms",
        "no load gate submits delay_line_ac, so the mixes carry none",
    ),
    (
        "modulator.sndr_sweep_ms",
        "ms",
        "no load gate submits sndr_sweep, so the mixes carry none",
    ),
];

/// The span a span-backed metric reads: its name without the unit.
fn span_of(metric: &str) -> &str {
    metric
        .strip_suffix("_us")
        .or_else(|| metric.strip_suffix("_ms"))
        .unwrap_or(metric)
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    workload: Workload,
    args: &Args,
    dir: &Path,
    env: &mut Env,
    inputs: &Inputs,
    seq: &mut OpSeq,
    window: u64,
) -> Result<Outcome, String> {
    // Half the time untraced, for the counters and the overhead baseline;
    // half traced, each op followed by its layer replay.
    let half = args.seconds / 2.0;
    let plain = phase(
        workload,
        env,
        inputs,
        seq,
        &Plan {
            seconds: half,
            min_ops: window,
            window: Some(window),
        },
        None,
    );
    let mut tracer = Tracer::new();
    let mut replayer = Replayer::new(workload, env, &dir.join("replay"))?;
    let traced = phase(
        workload,
        env,
        inputs,
        seq,
        &Plan {
            seconds: half,
            min_ops: 60,
            window: None,
        },
        Some((&mut tracer, &mut replayer)),
    );
    let (checked, mismatched) = {
        let mut sample = plain.gate;
        sample.extend(traced.gate);
        gate(workload, env, &sample)?
    };
    let counters = plain.counters.expect("window reached");
    let plain_ms: f64 = plain.latencies_ms.iter().take(window as usize).sum();
    drop(replayer);

    // Per op: self time per span name.
    let mut per_op: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for ((op, name), ns) in tracer.self_times_per_op() {
        per_op.entry(op).or_default().insert(name, ns as f64);
    }
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in &traced.traced {
        let Some(m) = per_op.get(op) else { continue };
        let Some(op_ns) = get(m, replay::OP) else {
            continue;
        };
        for l in &LAYERS {
            if let Some(v) = get(m, span_of(l.name)) {
                samples.entry(l.name).or_default().push(v);
            }
        }
        let sum = |names: &[&str]| names.iter().filter_map(|n| get(m, n)).sum::<f64>();
        let solve = sum(&replay::SOLVES);
        let mut derived = vec![
            ("unattributed_ms", op_ns - sum(replay::on_path(workload))),
            ("analog.solve_ms", solve),
        ];
        match workload {
            Workload::HttpHot | Workload::HttpColdMix => {
                if let Some(submit) = get(m, replay::SUBMIT) {
                    if workload == Workload::HttpColdMix {
                        derived.push(("service.submit.overhead_ms", submit - solve));
                    }
                    derived.push(("service.http.frontend_us", op_ns - submit));
                } else if let Some(hit) = get(m, replay::SERVE_CACHED) {
                    derived.push(("service.http.frontend_us", op_ns - hit));
                }
            }
            Workload::RouterHot => {
                if let (Some(h), Some(d)) = (
                    get(m, replay::ROUTER_HANDLE),
                    get(m, replay::REPLICA_DIRECT),
                ) {
                    derived.push(("service.router.hop_us", h - d));
                }
            }
        }
        for (name, v) in derived {
            samples.entry(name).or_default().push(v);
        }
    }

    let overhead_ms = stats::median(&traced.latencies_ms).unwrap_or(0.0)
        - stats::median(&plain.latencies_ms).unwrap_or(0.0);
    let mut metrics = Vec::new();
    println!(
        "# per-layer medians per op over {} traced ops (self times)",
        traced.traced.len()
    );
    for l in &LAYERS {
        let value = samples
            .get(l.name)
            .and_then(|v| stats::median(v))
            .map(|ns| ns * l.per_ns);
        match value {
            Some(v) => println!("{:<36} {:>14.6} {}", l.name, v, l.unit),
            None => println!(
                "{:<36} {:>14} {}  (not on this workload's ops)",
                l.name, "-", l.unit
            ),
        }
        if l.common {
            metrics.push(Metric {
                name: l.name,
                value: value.ok_or_else(|| format!("{} was not measured", l.name))?,
                unit: l.unit,
            });
        }
    }
    for (name, unit, why) in DROPPED {
        println!("{name:<36} {:>14} {unit}  (dropped: {why})", "-");
    }
    let required = |name: &str, v: Option<f64>| v.ok_or_else(|| format!("{name} was not measured"));
    let result_counters = [
        ("trace.overhead_p50_ms", overhead_ms, "ms"),
        (
            "service.cache.hit_ratio",
            required("service.cache.hit_ratio", counters.hit_ratio)?,
            "ratio",
        ),
        (
            "service.disk.writes_per_op",
            required("service.disk.writes_per_op", counters.disk_writes_per_op)?,
            "count",
        ),
    ];
    for (name, value, unit) in result_counters {
        println!("{name:<36} {value:>14.6} {unit}");
        metrics.push(Metric { name, value, unit });
    }
    // Engine counters exist only where the window ran the engine; they
    // stay off the result line, whose keys are the same on every workload.
    let solve_share = (!counters.solve_time.is_zero())
        .then(|| counters.solve_time.as_secs_f64() * 1e3 / plain_ms);
    let engine_counters = [
        (
            "analog.engine.newton_iters_per_step",
            counters.newton_iters_per_step,
            "count",
        ),
        (
            "analog.engine.factorizations_per_step",
            counters.factorizations_per_step,
            "count",
        ),
        (
            "analog.engine.symbolic_hit_ratio",
            counters.symbolic_hit_ratio,
            "ratio",
        ),
        ("analog.engine.solve_share", solve_share, "ratio"),
    ];
    for (name, value, unit) in engine_counters {
        println!("{name:<36} {:>14} {unit}", show(value));
    }
    let spans_path: PathBuf =
        Path::new(RUN_DIR).join(format!("spans-{}-seed{}.tsv", workload.name(), args.seed));
    if std::fs::write(&spans_path, tracer.to_tsv()).is_ok() {
        println!("# spans written to {}", spans_path.display());
    }
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    report_ops(attempted, failed, checked, mismatched, Some(&counters));
    Ok(Outcome {
        metrics,
        attempted,
        failed: failed + mismatched,
        correct: failed == 0 && mismatched == 0,
    })
}
