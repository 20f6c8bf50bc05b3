//! The traced run's layer replay. After each traced op the benchmark
//! calls, from its own code, the public functions the op's path goes
//! through — on the op's own inputs — and records a span around each.
//! Nothing inside the repository's crates is instrumented.

use std::sync::Arc;

use si_analog::cells::DelayLineDesign;
use si_analog::dc::set_current_source;
use si_analog::device::switch::TwoPhaseClock;
use si_analog::engine::EngineWorkspace;
use si_analog::parse::parse_netlist_canonical;
use si_analog::tran::{self, TranParams};
use si_analog::units::{Amps, Farads, Seconds, Volts};
use si_dsp::welch::WelchAccumulator;
use si_dsp::window::Window;
use si_service::cache::CacheTier;
use si_service::disk::{DiskTier, DiskTierConfig};
use si_service::jobspec::{JobOutput, JobSpec};
use si_service::json;
use si_service::service::{job_response_body, SiService};

use crate::client::Client;
use crate::env::{same_bits, service, Env, Workload};
use crate::inputs::Op;
use crate::trace::{SpanId, Tracer};

// Span names.
pub const OP: &str = "op";
pub const REPLAY: &str = "replay";
pub const DECODE: &str = "service.json.decode";
pub const ENCODE: &str = "service.json.encode";
pub const JOB_KEY: &str = "service.jobspec.job_key";
pub const ADMISSION: &str = "service.jobspec.admission";
pub const SERVE_CACHED: &str = "service.cache.serve_cached";
pub const SUBMIT: &str = "service.submit";
pub const STORE: &str = "service.disk.store";
pub const BUILD: &str = "analog.build";
pub const IC: &str = "analog.tran.ic";
pub const CHUNK: &str = "analog.tran.chunk";
pub const PUSH: &str = "dsp.welch.push";
pub const FINISH: &str = "dsp.welch.finish";
pub const PARSE: &str = "analog.parse.canonical";
pub const ROUTER_HANDLE: &str = "service.router.handle";
pub const REPLICA_DIRECT: &str = "service.replica.direct";
pub const SOLVE_DC: &str = "analog.solve.dc";
pub const SOLVE_BATCH: &str = "analog.solve.batch";
pub const SOLVE_TRAN: &str = "analog.solve.tran";
pub const SOLVE_NETLIST: &str = "analog.solve.netlist";

/// The spans that make up an op's solve: one per non-streaming mix kind,
/// plus the stages of the streaming pipeline (`JobSpec::run` of a
/// `tran_stream` spec, stage by stage).
pub const SOLVES: [&str; 9] = [
    SOLVE_DC,
    SOLVE_BATCH,
    SOLVE_TRAN,
    SOLVE_NETLIST,
    BUILD,
    IC,
    CHUNK,
    PUSH,
    FINISH,
];

/// The spans whose self times add up, with `unattributed_ms`, to an op's
/// wall time on `workload`; every other span measures a call on the op's
/// inputs that the op itself did not make.
pub fn on_path(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::HttpHot | Workload::HttpColdMix => &[DECODE, SERVE_CACHED, SUBMIT, ENCODE],
        Workload::RouterHot => &[ROUTER_HANDLE],
    }
}

/// Entries a service's disk tier has written so far.
fn disk_writes(svc: &SiService) -> u64 {
    svc.disk_cache().map_or(0, |d| d.stats().writes)
}

/// What the replay needs beyond the running system: a warm workspace of
/// its own, a scratch disk tier, and — for the cold mix — a second
/// service on which the op's submission is still a miss.
pub struct Replayer {
    ws: EngineWorkspace,
    scratch: DiskTier,
    cold_svc: Option<Arc<SiService>>,
    replica: Option<Client>,
}

impl Replayer {
    pub fn new(workload: Workload, env: &Env, dir: &std::path::Path) -> Result<Replayer, String> {
        let scratch = DiskTier::open(DiskTierConfig::at(dir.join("scratch")))
            .map_err(|e| format!("scratch disk tier: {e}"))?;
        let cold_svc = match workload {
            Workload::HttpColdMix => Some(service(&dir.join("cold"))?),
            _ => None,
        };
        let replica = match env.replica {
            Some(addr) => Some(Client::connect(addr).map_err(|e| format!("connect replica: {e}"))?),
            None => None,
        };
        Ok(Replayer {
            ws: EngineWorkspace::new(),
            scratch,
            cold_svc,
            replica,
        })
    }

    /// Replays op `id` under its own root span; `body` is the response
    /// the op was served. Any disagreement with what the op returned
    /// voids the replay.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        workload: Workload,
        env: &Env,
        id: u64,
        op: &Op,
        body: &[u8],
    ) -> Result<(), String> {
        let root_id = tr.open(REPLAY, id, None);
        let root = Some(root_id);
        tr.span(DECODE, id, root, || {
            json::parse(&op.body)
                .map_err(|e| e.to_string())
                .and_then(|v| JobSpec::from_json(&v).map_err(|e| e.to_string()))
        })?;
        let spec = &op.spec;
        if workload == Workload::RouterHot {
            self.router_hop(tr, id, root, env, op, body)?;
        }
        let cold = workload == Workload::HttpColdMix;
        let svc = Arc::clone(self.cold_svc.as_ref().unwrap_or(&env.svc));
        let writes_before = disk_writes(&svc);
        // The service's front end first tries to answer inline from
        // memory; otherwise it decodes again off the loop and submits.
        let inline = tr.span(SERVE_CACHED, id, root, || svc.serve_cached(spec));
        let out = match inline {
            Some(out) => out,
            None => {
                tr.span(DECODE, id, root, || {
                    json::parse(&op.body).map(|v| JobSpec::from_json(&v).is_ok())
                })
                .map_err(|e| e.to_string())?;
                let (out, cached) = tr
                    .span(SUBMIT, id, root, || svc.submit_blocking(spec, None))
                    .map_err(|e| format!("replay submit: {e}"))?;
                if cached == cold {
                    return Err(format!(
                        "replay submit cached={cached} on {}",
                        workload.name()
                    ));
                }
                out
            }
        };
        let service_writes = disk_writes(&svc) - writes_before;
        let encoded = tr.span(ENCODE, id, root, || {
            job_response_body(&SiService::job_id(spec), spec.kind(), !cold, &out)
                .to_string_compact()
        });
        if body != encoded.as_bytes() {
            return Err(format!(
                "replayed response of op {id} differs from the served one"
            ));
        }
        let key = self.admission_and_key(tr, id, root, spec)?;
        let stored = self.solve_and_store(tr, id, root, spec, key, &out)?;
        if cold {
            self.check_stores(&svc, &stored, service_writes)?;
        }
        tr.close(root_id);
        Ok(())
    }

    /// A replay's disk stores must be the ones the service made for the
    /// same op: as many writes, and every file byte-identical. Otherwise
    /// `service.disk.store_ms` times writes the service no longer does.
    fn check_stores(&self, svc: &SiService, stored: &[u64], writes: u64) -> Result<(), String> {
        if stored.len() as u64 != writes {
            return Err(format!(
                "replay stored {} disk entries, the service wrote {writes}",
                stored.len()
            ));
        }
        let disk = svc
            .disk_cache()
            .ok_or("the cold service has no disk tier")?;
        for key in stored {
            let name = format!("{key:016x}.sic");
            let ours = std::fs::read(self.scratch.dir().join(&name));
            let theirs = std::fs::read(disk.dir().join(&name));
            match (ours, theirs) {
                (Ok(a), Ok(b)) if a == b => {}
                _ => {
                    return Err(format!(
                        "replayed disk entry {name} differs from the service's"
                    ))
                }
            }
        }
        Ok(())
    }

    /// `Router::handle` called directly, then the same request straight
    /// to the replica over a keep-alive connection; both must return the
    /// body the op was served.
    fn router_hop(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        root: Option<SpanId>,
        env: &Env,
        op: &Op,
        served: &[u8],
    ) -> Result<(), String> {
        let router = env.router.as_ref().expect("router workload").router();
        let (status, routed) = tr.span(ROUTER_HANDLE, id, root, || {
            router.handle("POST", "/v1/jobs", &op.body)
        });
        let replica = self.replica.as_mut().expect("router replay client");
        let direct = tr.open(REPLICA_DIRECT, id, root);
        let (direct_status, direct_body) = replica
            .post("/v1/jobs", op.body.as_bytes())
            .map_err(|e| format!("direct replica POST: {e}"))?;
        tr.close(direct);
        if status != 200
            || direct_status != 200
            || routed.as_bytes() != served
            || direct_body != served
        {
            return Err(format!(
                "routed or direct response of op {id} differs from the served one"
            ));
        }
        Ok(())
    }

    /// Times admission and the job key; returns the key.
    fn admission_and_key(
        &self,
        tr: &mut Tracer,
        id: u64,
        root: Option<SpanId>,
        spec: &JobSpec,
    ) -> Result<u64, String> {
        tr.span(ADMISSION, id, root, || {
            spec.validate().and_then(|()| spec.admission_cost())
        })
        .map_err(|e| format!("admission: {e}"))?;
        Ok(tr.span(JOB_KEY, id, root, || spec.job_key()))
    }

    /// The op's solve on the replay's warm workspace, bit-compared with
    /// what the op returned, then its disk stores into the scratch tier
    /// under the service's keys. Returns the keys stored, one per store.
    /// Netlists also time their canonical parse.
    fn solve_and_store(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        root: Option<SpanId>,
        spec: &JobSpec,
        key: u64,
        expect: &Arc<JobOutput>,
    ) -> Result<Vec<u64>, String> {
        let name = match spec {
            JobSpec::TranStream { .. } => {
                return self.tran_pipeline(tr, id, root, spec, key, expect)
            }
            JobSpec::DelayLineDc { .. } => SOLVE_DC,
            JobSpec::DelayLineDcBatch { .. } => SOLVE_BATCH,
            JobSpec::DelayLineTran { .. } => SOLVE_TRAN,
            JobSpec::Netlist { netlist } => {
                tr.span(PARSE, id, root, || parse_netlist_canonical(netlist))
                    .map_err(|e| format!("parse: {e}"))?;
                SOLVE_NETLIST
            }
            other => return Err(format!("no replay for {} jobs", other.kind())),
        };
        let ws = &mut self.ws;
        let out = tr
            .span(name, id, root, || spec.run(ws))
            .map_err(|e| format!("replay solve: {e}"))?;
        if !same_bits(&out.values, &expect.values) {
            return Err(format!(
                "replayed solve of op {id} differs from the served one"
            ));
        }
        tr.span(STORE, id, root, || self.scratch.store(key, expect));
        Ok(vec![key])
    }

    /// `JobSpec::run` of a `tran_stream` spec, stage by stage through the
    /// public pipeline: build, initial condition, then per chunk a
    /// transient chunk, a Welch push and a checkpoint store, then the
    /// Welch finish and the result store. The spectrum must match the
    /// service's bit for bit, or the replay measured something else.
    fn tran_pipeline(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        root: Option<SpanId>,
        spec: &JobSpec,
        key: u64,
        out: &Arc<JobOutput>,
    ) -> Result<Vec<u64>, String> {
        let JobSpec::TranStream {
            stages,
            bias_ua,
            input_ua,
            steps,
            dt_ns,
            clock_hz,
            chunk_steps,
            seg_len,
        } = *spec
        else {
            return Err("tran replay of a non-streaming spec".to_string());
        };
        let e = |e: si_analog::AnalogError| e.to_string();
        // The service's delay-line build for these parameters.
        let line = tr
            .span(BUILD, id, root, || {
                let mut line = DelayLineDesign {
                    stages,
                    bias: Amps(bias_ua * 1e-6),
                    vov: Volts(0.25),
                    hold_cap: Farads(0.5e-12),
                }
                .build()?;
                set_current_source(&mut line.circuit, &line.input_source, Amps(input_ua * 1e-6))?;
                Ok(line)
            })
            .map_err(e)?;
        let dt = Seconds(dt_ns * 1e-9);
        let clock = TwoPhaseClock::new(Seconds(1.0 / clock_hz), 0.0).map_err(e)?;
        let params = TranParams::new(Seconds(dt.0 * steps as f64), dt)
            .map_err(e)?
            .with_clock(clock);
        let ws = &mut self.ws;
        let mut solution = tr
            .span(IC, id, root, || {
                tran::initial_condition(&line.circuit, &params, ws)
            })
            .map_err(e)?;
        let mut acc = WelchAccumulator::new(seg_len, Window::Hann).map_err(|e| e.to_string())?;
        let out_node = *line.stage_nodes.last().ok_or("empty delay line")?;
        let chunks = steps.div_ceil(chunk_steps);
        let ckpt_key = JobSpec::checkpoint_key(key);
        let mut stored = Vec::with_capacity(chunks + 1);
        for c in 0..chunks {
            let start = c * chunk_steps;
            let len = chunk_steps.min(steps - start);
            let (part, next) = tr
                .span(CHUNK, id, root, || {
                    tran::run_chunk_with(&line.circuit, &params, start, len, &solution, ws)
                })
                .map_err(e)?;
            tr.span(PUSH, id, root, || {
                acc.push(&part.voltage_waveform(out_node))
            })
            .map_err(|e| e.to_string())?;
            solution = next;
            // The service's checkpoint layout (`StreamState::to_checkpoint`):
            // end-of-chunk state, Welch running sum and tail, then the
            // resume metadata. `check_stores` holds it to the service's
            // file byte for byte.
            let mut values = solution.raw().to_vec();
            let state_len = values.len();
            values.extend_from_slice(acc.power_sum());
            values.extend_from_slice(acc.tail());
            let meta = [
                ("ckpt_version", 1.0),
                ("key_hi", (key >> 32) as f64),
                ("key_lo", (key & 0xffff_ffff) as f64),
                ("chunks_done", (c + 1) as f64),
                ("chunks_total", chunks as f64),
                ("state_len", state_len as f64),
                ("seg_len", seg_len as f64),
                ("welch_segments", acc.segments() as f64),
                ("welch_tail_len", acc.tail().len() as f64),
            ];
            let ckpt = Arc::new(JobOutput {
                values,
                metrics: meta.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            });
            tr.span(STORE, id, root, || self.scratch.store(ckpt_key, &ckpt));
            stored.push(ckpt_key);
        }
        let spectrum = tr
            .span(FINISH, id, root, || acc.finish())
            .map_err(|e| e.to_string())?;
        if !same_bits(spectrum.powers(), &out.values) {
            return Err(format!(
                "replayed spectrum of op {id} differs from the service's"
            ));
        }
        tr.span(STORE, id, root, || self.scratch.store(key, out));
        stored.push(key);
        Ok(stored)
    }
}
