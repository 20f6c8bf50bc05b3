//! Job specifications: what a client asks the service to simulate.
//!
//! A [`JobSpec`] is a *value* — plain numbers, no handles — so two
//! requests describing the same simulation are equal and hash to the same
//! [`JobSpec::job_key`]. The key is the content address of the result:
//! it folds the built circuit's structure fingerprint (MNA sparsity) and
//! value fingerprint (element values, waveforms) together with the
//! analysis parameters through the same process-stable FNV-1a used by
//! [`si_analog::netlist::Circuit::structure_fingerprint`], so identical
//! jobs coalesce across clients and runs while a one-ULP change to any
//! parameter yields a different key.
//!
//! Internally every spec is a *circuit* (the paper's delay line, or
//! netlist text; none for the SNDR sweep) and an *analysis* (DC, DC
//! batch, transient, AC, streaming transient, sweep). Validation, the
//! key, the structure fingerprint, the wire form and the run each handle
//! the circuit once and the analysis once, and a `Prepared` spec builds
//! or parses its circuit at most once for all of them.
//!
//! Every run, plain or in the service, goes through one loop
//! (`JobSpec::run_with`) under one hook, `Units`: it is called before
//! each unit of work — the one unit of a single-shot job, each scenario
//! of a batch, each chunk of a stream — and may stop the run there. A
//! stream also asks the hook for a checkpoint to resume from and hands it
//! the state after each chunk. [`JobSpec::run`] is the run under the
//! no-op hook `()`.

use si_analog::ac::{AcAnalysis, AcProbe, AcStimulus};
use si_analog::cells::{DelayLine, DelayLineDesign};
use si_analog::dc::{set_current_source, DcSolver};
use si_analog::device::switch::TwoPhaseClock;
use si_analog::engine::{BatchRun, EngineWorkspace};
use si_analog::mna::Solution;
use si_analog::netlist::Circuit;
use si_analog::parse::{parse_netlist_canonical, to_netlist};
use si_analog::tran::{self, TranParams};
use si_analog::units::{Amps, Farads, Seconds, Volts};
use si_analog::AnalogError;
use si_dsp::welch::WelchAccumulator;
use si_dsp::window::Window;
use si_modulator::arch::SecondOrderTopology;
use si_modulator::ideal::IdealModulator;
use si_modulator::measure::MeasurementConfig;
use si_modulator::sweep::sndr_sweep;
use std::cell::OnceCell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::budget::{price_circuit, CircuitCost};
use crate::error::ServiceError;
use crate::json::Json;
use crate::lock_recover;

pub use si_analog::netlist::Fnv1a;

/// The analyses the service can run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobSpec {
    /// DC operating point of an N-stage SI delay line with a given input
    /// current.
    DelayLineDc {
        /// Number of memory stages.
        stages: usize,
        /// Per-stage bias current, µA.
        bias_ua: f64,
        /// Input current, µA.
        input_ua: f64,
    },
    /// Clocked transient of the delay line.
    DelayLineTran {
        /// Number of memory stages.
        stages: usize,
        /// Per-stage bias current, µA.
        bias_ua: f64,
        /// Input current, µA.
        input_ua: f64,
        /// Number of fixed time steps.
        steps: usize,
        /// Step size, ns.
        dt_ns: f64,
        /// Switch clock frequency, Hz.
        clock_hz: f64,
    },
    /// Small-signal transimpedance of the delay line input stage over a
    /// log frequency grid.
    DelayLineAc {
        /// Number of memory stages.
        stages: usize,
        /// Per-stage bias current, µA.
        bias_ua: f64,
        /// Input current (bias point), µA.
        input_ua: f64,
        /// Grid start, Hz.
        f_lo_hz: f64,
        /// Grid stop, Hz.
        f_hi_hz: f64,
        /// Number of log-spaced points.
        points: usize,
    },
    /// SNDR-vs-level sweep of the ideal second-order ΔΣ modulator.
    SndrSweep {
        /// Full-scale input current, µA.
        full_scale_ua: f64,
        /// Input levels, dB relative to full scale.
        levels_db: Vec<f64>,
    },
    /// Batched DC operating points of one delay-line topology: N input
    /// currents solved as one job through a [`si_analog::engine::BatchRun`],
    /// sharing a single symbolic factorization and warm-starting each
    /// scenario from its nearest-input converged neighbour. One submission,
    /// one job key, one admission decision; per-scenario results come back
    /// concatenated in [`JobOutput::values`] (scenario-major,
    /// `values_per_scenario` voltages each).
    DelayLineDcBatch {
        /// Number of memory stages.
        stages: usize,
        /// Per-stage bias current, µA.
        bias_ua: f64,
        /// One input current per scenario, µA.
        inputs_ua: Vec<f64>,
    },
    /// DC operating point of a *user-submitted* circuit, given as netlist
    /// dialect v1 text ([`si_analog::parse`]).
    ///
    /// The text is parsed **canonically**
    /// ([`parse_netlist_canonical`]): cards are sorted into a
    /// deterministic order first, so two netlists differing only in
    /// comments, whitespace, or card order build literally the same
    /// [`si_analog::netlist::Circuit`] — same job key, same cache slot,
    /// and (because the executed circuit is the canonical one) the exact
    /// same solve. Submissions that fail the strict parse are rejected
    /// with [`ServiceError::NetlistRejected`] (`422`); circuit size is
    /// priced against the service's
    /// [`AdmissionBudget`](crate::budget::AdmissionBudget) before any
    /// factorization runs (`413`).
    Netlist {
        /// Netlist dialect-v1 source text.
        netlist: String,
    },
    /// Streaming clocked transient of the delay line: executed in
    /// fixed-size chunks whose output-stage samples feed an incremental
    /// Welch estimator ([`si_dsp::welch::WelchAccumulator`], Hann
    /// window). The job's value vector is the final averaged spectrum
    /// (bin powers), not the waveform, and the service checkpoints the
    /// end-of-chunk state so a mid-run crash resumes from the last
    /// chunk boundary instead of rerunning — bit-identical either way.
    TranStream {
        /// Number of memory stages.
        stages: usize,
        /// Per-stage bias current, µA.
        bias_ua: f64,
        /// Input current, µA.
        input_ua: f64,
        /// Number of fixed time steps (the waveform has `steps + 1`
        /// samples including `t = 0`).
        steps: usize,
        /// Step size, ns.
        dt_ns: f64,
        /// Switch clock frequency, Hz.
        clock_hz: f64,
        /// Steps per chunk; checkpoints land at chunk boundaries.
        chunk_steps: usize,
        /// Welch segment length (a power of two).
        seg_len: usize,
    },
}

/// The computed result of a job: a value vector (what was solved) and a
/// list of named scalar metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Raw solved values — node voltages, |H(f)|, or per-level SINAD,
    /// depending on the job kind. Bit-exact across identical runs.
    pub values: Vec<f64>,
    /// Named summary metrics, in a stable order.
    pub metrics: Vec<(String, f64)>,
}

/// The hook a run calls between its units of work: the one unit of a
/// single-shot job, each scenario of a batch, each chunk of a stream.
pub(crate) trait Units {
    /// Called before unit `index` of `total`. An error ends the run there
    /// and is its result.
    fn before(&mut self, index: usize, total: usize) -> Result<(), ServiceError>;

    /// A stream's checkpoint to resume from, if there is one.
    fn resume(&mut self) -> Option<JobOutput> {
        None
    }

    /// Called with a stream's state after each chunk it ran.
    fn after_chunk(&mut self, _state: &StreamState) {}
}

/// The plain run: every unit proceeds, nothing resumes or is kept.
impl Units for () {
    fn before(&mut self, _index: usize, _total: usize) -> Result<(), ServiceError> {
        Ok(())
    }
}

impl JobSpec {
    /// Validates ranges that the constructors of the underlying analyses
    /// would reject anyway, but with a service-level error message that
    /// maps to HTTP 400 instead of 422.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSpec`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.prepare().validate()
    }

    /// What this spec will cost to solve, priced *before* any
    /// factorization or Newton iteration: `Some` for user-submitted
    /// netlists (a parse plus a sparsity-pattern walk), `None` for the
    /// canned kinds whose size is already bounded by [`JobSpec::validate`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::NetlistRejected`] when the netlist does not parse.
    pub fn admission_cost(&self) -> Result<Option<CircuitCost>, ServiceError> {
        self.prepare().admission_cost()
    }

    /// The job's content address: identical specs — and only identical
    /// specs — share a key.
    ///
    /// For circuit-backed jobs the key folds the built circuit's
    /// structure *and* value fingerprints, so it inherits their
    /// guarantees: retuning one element value moves the key, renaming a
    /// node does not. Analysis parameters that are not part of the
    /// netlist (step counts, frequency grids, deadlines excluded) are
    /// mixed in afterwards.
    #[must_use]
    pub fn job_key(&self) -> u64 {
        self.prepare().job_key()
    }

    /// The disk-tier key a streaming job's checkpoint lives under:
    /// derived from the job key through a tagged FNV-1a, so it can never
    /// collide with any result key (those hash spec contents, this
    /// hashes a tag plus the finished result key).
    #[must_use]
    pub fn checkpoint_key(job_key: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.mix_bytes(b"tran-stream-checkpoint");
        h.mix_u64(job_key);
        h.finish()
    }

    /// The job's *topology* address: specs that share a circuit structure
    /// — and only those — share this fingerprint, regardless of element
    /// values or analysis parameters.
    ///
    /// This is the sharding key for the `si-router` ring: every job over
    /// the same topology lands on the same replica, so that replica's
    /// symbolic-factorization cache (one factorization per structure)
    /// specializes for its slice of the circuit families. Netlist jobs
    /// hash the canonical-parse structure fingerprint, so a netlist twin
    /// of a generator-built delay line keys to the same structure as any
    /// other netlist with that topology, independent of the text
    /// representation.
    ///
    /// Invalid specs (unbuildable lines, unparsable netlists) still get a
    /// stable fingerprint from their raw parameters so the router can
    /// place them deterministically; they never reach a solver cache.
    #[must_use]
    pub fn structure_fingerprint(&self) -> u64 {
        self.prepare().structure_fingerprint()
    }

    /// The kind tag used on the wire.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::DelayLineDc { .. } => "delay_line_dc",
            JobSpec::DelayLineTran { .. } => "delay_line_tran",
            JobSpec::DelayLineAc { .. } => "delay_line_ac",
            JobSpec::SndrSweep { .. } => "sndr_sweep",
            JobSpec::DelayLineDcBatch { .. } => "delay_line_dc_batch",
            JobSpec::Netlist { .. } => "netlist",
            JobSpec::TranStream { .. } => "tran_stream",
        }
    }

    /// Whether this spec runs as a streaming job: chunked execution,
    /// per-chunk checkpoints, resumable after a crash.
    #[must_use]
    pub fn is_stream(&self) -> bool {
        matches!(self, JobSpec::TranStream { .. })
    }

    /// Total chunk count of a streaming spec (`None` for every other
    /// kind): `ceil(steps / chunk_steps)`.
    #[must_use]
    pub fn stream_chunk_count(&self) -> Option<usize> {
        match self {
            JobSpec::TranStream {
                steps, chunk_steps, ..
            } => Some(steps.div_ceil(*chunk_steps)),
            _ => None,
        }
    }

    /// Number of scenarios this spec fans out to: 1 for every single-shot
    /// analysis, the input count for a batch. Admission control prices a
    /// batch as one job; `/metrics` counts its scenarios through this.
    #[must_use]
    pub fn scenario_count(&self) -> usize {
        match self {
            JobSpec::DelayLineDcBatch { inputs_ua, .. } => inputs_ua.len(),
            _ => 1,
        }
    }

    /// Parses a spec from the `POST /v1/jobs` request body.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSpec`] for unknown kinds, missing fields, or
    /// out-of-range values (via [`JobSpec::validate`]).
    pub fn from_json(v: &Json) -> Result<JobSpec, ServiceError> {
        let invalid = |msg: String| ServiceError::InvalidSpec(msg);
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("missing \"kind\"".to_string()))?;
        let num = |key: &str| -> Result<f64, ServiceError> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| invalid(format!("missing numeric \"{key}\"")))
        };
        let int = |key: &str| -> Result<usize, ServiceError> {
            let n = num(key)?;
            if n < 0.0 || n.fract() != 0.0 || n > 9e15 {
                return Err(invalid(format!("\"{key}\" must be a non-negative integer")));
            }
            Ok(n as usize)
        };
        let list = |key: &str| -> Result<Vec<f64>, ServiceError> {
            v.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| invalid(format!("missing array \"{key}\"")))?
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| invalid(format!("{key} entries must be numbers")))
                })
                .collect()
        };
        // Each public variant is built by name. A list is read before its
        // kind's scalar fields, so a document missing both reports the
        // list.
        let spec = match kind {
            "delay_line_dc" => JobSpec::DelayLineDc {
                stages: int("stages")?,
                bias_ua: num("bias_ua")?,
                input_ua: num("input_ua")?,
            },
            "delay_line_tran" => JobSpec::DelayLineTran {
                stages: int("stages")?,
                bias_ua: num("bias_ua")?,
                input_ua: num("input_ua")?,
                steps: int("steps")?,
                dt_ns: num("dt_ns")?,
                clock_hz: num("clock_hz")?,
            },
            "delay_line_ac" => JobSpec::DelayLineAc {
                stages: int("stages")?,
                bias_ua: num("bias_ua")?,
                input_ua: num("input_ua")?,
                f_lo_hz: num("f_lo_hz")?,
                f_hi_hz: num("f_hi_hz")?,
                points: int("points")?,
            },
            "sndr_sweep" => {
                let levels_db = list("levels_db")?;
                JobSpec::SndrSweep {
                    full_scale_ua: num("full_scale_ua")?,
                    levels_db,
                }
            }
            "delay_line_dc_batch" => {
                let inputs_ua = list("inputs_ua")?;
                JobSpec::DelayLineDcBatch {
                    stages: int("stages")?,
                    bias_ua: num("bias_ua")?,
                    inputs_ua,
                }
            }
            "netlist" => {
                let text = v
                    .get("netlist")
                    .and_then(Json::as_str)
                    .ok_or_else(|| invalid("missing string \"netlist\"".to_string()))?;
                JobSpec::Netlist {
                    netlist: text.to_string(),
                }
            }
            "tran_stream" => JobSpec::TranStream {
                stages: int("stages")?,
                bias_ua: num("bias_ua")?,
                input_ua: num("input_ua")?,
                steps: int("steps")?,
                dt_ns: num("dt_ns")?,
                clock_hz: num("clock_hz")?,
                chunk_steps: int("chunk_steps")?,
                seg_len: int("seg_len")?,
            },
            other => return Err(invalid(format!("unknown kind {other:?}"))),
        };
        // Canned kinds are validated eagerly so a bad wire document is a
        // `400` before it ever reaches the service. Netlist specs are NOT:
        // the admission gauntlet in `submit_once` must see the raw text
        // first — the byte cap has to refuse oversized text *before* any
        // parse, and the netlist telemetry counters live behind it.
        if !matches!(spec, JobSpec::Netlist { .. }) {
            spec.validate()?;
        }
        Ok(spec)
    }

    /// Serializes the spec back to its wire form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let job = self.prepare();
        let kind = ("kind".to_string(), Json::String(self.kind().to_string()));
        let fields = job.circuit.iter().flat_map(|c| c.fields());
        let fields = fields.chain(job.analysis.fields());
        Json::Object(
            std::iter::once(kind)
                .chain(fields.map(|(name, value)| (name.to_string(), value.to_json())))
                .collect(),
        )
    }

    /// Executes the job on the given workspace. Deterministic: identical
    /// specs produce bit-identical [`JobOutput`]s regardless of which
    /// worker (or how warm a workspace) runs them — the property the
    /// content-addressed cache relies on.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSpec`] for specs that fail validation,
    /// [`ServiceError::Analysis`] for solver failures.
    pub fn run(&self, ws: &mut EngineWorkspace) -> Result<JobOutput, ServiceError> {
        self.run_with(ws, &mut ())
    }

    /// [`JobSpec::run`] under a [`Units`] hook: `before` runs ahead of
    /// every unit of work and an error from it ends the run with that
    /// error; a stream resumes from the hook's checkpoint when
    /// [`StreamState::resumable`] accepts it and reports each finished
    /// chunk. The hook can stop a run but never alters its result.
    pub(crate) fn run_with(
        &self,
        ws: &mut EngineWorkspace,
        units: &mut dyn Units,
    ) -> Result<JobOutput, ServiceError> {
        let job = self.prepare();
        job.validate()?;
        let checkpoint = match job.analysis {
            Analysis::DcBatch(_) => None,
            // A checkpoint names the job it belongs to, so the key is
            // derived only when there is one to check.
            Analysis::TranStream(_) => units.resume().map(|ckpt| (job.job_key(), ckpt)),
            _ => {
                units.before(0, 1)?;
                None
            }
        };
        let (circuit, analysis) = (job.circuit, job.analysis);
        let line = match (circuit.map(|c| job.into_built(c)).transpose()?, analysis) {
            (Some(Built::Line(line)), _) => line,
            (Some(Built::Netlist(circuit)), _) => return run_netlist(&circuit, ws),
            (None, Analysis::Sweep(sweep)) => return run_sweep(sweep),
            (None, _) => unreachable!("only a sweep runs on no circuit"),
        };
        match analysis {
            Analysis::Dc => {
                let sol = DcSolver::new()
                    .with_initial_guess(line.initial_guess.clone())
                    .solve_with(&line.circuit, ws)
                    .map_err(analysis_error)?;
                let values: Vec<f64> = line.stage_nodes.iter().map(|&n| sol.voltage(n).0).collect();
                let v_in = values.first().copied().unwrap_or(0.0);
                let v_out = values.last().copied().unwrap_or(0.0);
                Ok(JobOutput {
                    values,
                    metrics: vec![
                        ("v_in".to_string(), v_in),
                        ("v_out".to_string(), v_out),
                        (
                            "mna_dimension".to_string(),
                            line.circuit.mna_dimension() as f64,
                        ),
                    ],
                })
            }
            Analysis::Tran(tran) => {
                let params = tran.params().map_err(analysis_error)?;
                let result = tran::run_with(&line.circuit, &params, ws).map_err(analysis_error)?;
                // The output stage's full waveform is the cached value
                // vector; summary metrics describe the run size.
                let last = *line.stage_nodes.last().expect("stages >= 1");
                let values = result.voltage_waveform(last);
                let final_v = values.last().copied().unwrap_or(0.0);
                Ok(JobOutput {
                    values,
                    metrics: vec![
                        ("steps".to_string(), result.len() as f64),
                        ("final_v_out".to_string(), final_v),
                    ],
                })
            }
            Analysis::Ac(ac) => {
                let op = DcSolver::new()
                    .with_initial_guess(line.initial_guess.clone())
                    .solve_with(&line.circuit, ws)
                    .map_err(analysis_error)?;
                let freqs = si_analog::ac::log_frequencies(ac.f_lo_hz, ac.f_hi_hz, ac.points)
                    .map_err(analysis_error)?;
                let resp = AcAnalysis::default()
                    .response_with(
                        &line.circuit,
                        &op,
                        &AcStimulus::CurrentInto(line.input),
                        &AcProbe::NodeVoltage(line.input),
                        &freqs,
                        ws,
                    )
                    .map_err(analysis_error)?;
                let values: Vec<f64> = resp.iter().map(|c| c.abs()).collect();
                let dc_gain = values.first().copied().unwrap_or(0.0);
                let bw = si_analog::ac::bandwidth_3db(&freqs, &resp).unwrap_or(f64::NAN);
                Ok(JobOutput {
                    values,
                    metrics: vec![
                        ("transimpedance_dc_ohm".to_string(), dc_gain),
                        ("bandwidth_3db_hz".to_string(), bw),
                    ],
                })
            }
            Analysis::DcBatch(inputs_ua) => {
                // One topology for every scenario: the line is built at
                // zero input and BatchRun retunes the source per scenario,
                // so the whole batch shares one symbolic factorization and
                // each Newton loop warm-starts from the nearest input
                // current.
                let solver = DcSolver::new();
                let total = inputs_ua.len();
                // A stop between scenarios leaves BatchRun as a stand-in
                // analog error; the hook's own error is kept here.
                let mut stopped = None;
                let sols = BatchRun::new(total)
                    .with_keys(inputs_ua.to_vec())
                    .with_cold_start(line.initial_guess.clone())
                    .run_with(
                        &line.circuit,
                        ws,
                        |ckt, i| {
                            if let Err(err) = units.before(i, total) {
                                stopped = Some(err);
                                return Err(AnalogError::InvalidParameter {
                                    name: "scenario",
                                    constraint: "the run stopped between scenarios",
                                });
                            }
                            set_current_source(ckt, &line.input_source, Amps(inputs_ua[i] * 1e-6))
                        },
                        |ckt, start, ws| solver.solve_from_with(ckt, start, ws),
                    )
                    .map_err(|e| stopped.take().unwrap_or_else(|| analysis_error(e)))?;
                let per_scenario = line.stage_nodes.len();
                let mut values = Vec::with_capacity(sols.len() * per_scenario);
                for sol in &sols {
                    values.extend(line.stage_nodes.iter().map(|&n| sol.voltage(n).0));
                }
                let v_out_first = values.get(per_scenario - 1).copied().unwrap_or(0.0);
                let v_out_last = values.last().copied().unwrap_or(0.0);
                Ok(JobOutput {
                    values,
                    metrics: vec![
                        ("scenarios".to_string(), sols.len() as f64),
                        ("values_per_scenario".to_string(), per_scenario as f64),
                        ("v_out_first_scenario".to_string(), v_out_first),
                        ("v_out_last_scenario".to_string(), v_out_last),
                        (
                            "mna_dimension".to_string(),
                            line.circuit.mna_dimension() as f64,
                        ),
                    ],
                })
            }
            Analysis::TranStream(stream) => {
                // Chunked execution is bit-identical to an uninterrupted
                // transient by construction: each chunk starts from the
                // exact end-of-chunk Newton state, the time axis comes
                // from absolute step indices, and the Welch accumulator
                // sums periodograms in order. So a run resumed from a
                // checkpoint ends in the same spectrum, bit for bit.
                let mut state = StreamState::open(line, stream, checkpoint, ws)?;
                let total = state.chunks_total();
                while state.chunks_done < total {
                    units.before(state.chunks_done, total)?;
                    state.advance(ws)?;
                    units.after_chunk(&state);
                }
                state.finish()
            }
            Analysis::Sweep(_) => unreachable!("a sweep runs on no circuit"),
        }
    }

    /// The spec split into its circuit and analysis, the circuit not yet
    /// built.
    pub(crate) fn prepare(&self) -> Prepared<'_> {
        let line = |stages: &usize, bias_ua: &f64, input_ua: Option<&f64>| {
            Some(CircuitSpec::Line(LineSpec {
                stages: *stages,
                bias_ua: *bias_ua,
                input_ua: input_ua.copied(),
            }))
        };
        let tran = |steps: &usize, dt_ns: &f64, clock_hz: &f64| TranSpec {
            steps: *steps,
            dt_ns: *dt_ns,
            clock_hz: *clock_hz,
        };
        let (tag, circuit, analysis) = match self {
            JobSpec::DelayLineDc {
                stages,
                bias_ua,
                input_ua,
            } => (1, line(stages, bias_ua, Some(input_ua)), Analysis::Dc),
            JobSpec::DelayLineTran {
                stages,
                bias_ua,
                input_ua,
                steps,
                dt_ns,
                clock_hz,
            } => (
                2,
                line(stages, bias_ua, Some(input_ua)),
                Analysis::Tran(tran(steps, dt_ns, clock_hz)),
            ),
            JobSpec::DelayLineAc {
                stages,
                bias_ua,
                input_ua,
                f_lo_hz,
                f_hi_hz,
                points,
            } => (
                3,
                line(stages, bias_ua, Some(input_ua)),
                Analysis::Ac(AcSpec {
                    f_lo_hz: *f_lo_hz,
                    f_hi_hz: *f_hi_hz,
                    points: *points,
                }),
            ),
            JobSpec::SndrSweep {
                full_scale_ua,
                levels_db,
            } => (
                4,
                None,
                Analysis::Sweep(SweepSpec {
                    full_scale_ua: *full_scale_ua,
                    levels_db,
                }),
            ),
            JobSpec::DelayLineDcBatch {
                stages,
                bias_ua,
                inputs_ua,
            } => (5, line(stages, bias_ua, None), Analysis::DcBatch(inputs_ua)),
            JobSpec::Netlist { netlist } => (6, Some(CircuitSpec::Netlist(netlist)), Analysis::Dc),
            JobSpec::TranStream {
                stages,
                bias_ua,
                input_ua,
                steps,
                dt_ns,
                clock_hz,
                chunk_steps,
                seg_len,
            } => (
                7,
                line(stages, bias_ua, Some(input_ua)),
                Analysis::TranStream(StreamSpec {
                    tran: tran(steps, dt_ns, clock_hz),
                    chunk_steps: *chunk_steps,
                    seg_len: *seg_len,
                }),
            ),
        };
        Prepared {
            tag,
            circuit,
            analysis,
            built: OnceCell::new(),
        }
    }
}

/// The circuit half of a spec.
#[derive(Clone, Copy)]
enum CircuitSpec<'a> {
    /// The paper's SI delay line from the cell generator.
    Line(LineSpec),
    /// Netlist dialect-v1 source text, parsed canonically.
    Netlist(&'a str),
}

/// The delay line's knobs.
#[derive(Clone, Copy)]
struct LineSpec {
    stages: usize,
    bias_ua: f64,
    /// `None` for a batch: its line is built at zero input and the
    /// analysis retunes the source per scenario.
    input_ua: Option<f64>,
}

/// The analysis half of a spec.
#[derive(Clone, Copy)]
enum Analysis<'a> {
    Dc,
    /// One DC operating point per input current, µA.
    DcBatch(&'a [f64]),
    Tran(TranSpec),
    Ac(AcSpec),
    /// A chunked transient feeding a Welch spectrum.
    TranStream(StreamSpec),
    /// The one analysis that runs on no circuit.
    Sweep(SweepSpec<'a>),
}

/// A fixed-step clocked transient.
#[derive(Clone, Copy)]
struct TranSpec {
    steps: usize,
    dt_ns: f64,
    clock_hz: f64,
}

/// Small-signal transimpedance over `points` log-spaced frequencies.
#[derive(Clone, Copy)]
struct AcSpec {
    f_lo_hz: f64,
    f_hi_hz: f64,
    points: usize,
}

/// A transient run in chunks of `chunk_steps`, its output stage feeding a
/// Welch estimator of segment length `seg_len`.
#[derive(Clone, Copy)]
struct StreamSpec {
    tran: TranSpec,
    chunk_steps: usize,
    seg_len: usize,
}

/// The ideal modulator's SNDR-vs-level sweep.
#[derive(Clone, Copy)]
struct SweepSpec<'a> {
    full_scale_ua: f64,
    levels_db: &'a [f64],
}

/// A spec parameter as it appears on the wire.
#[derive(Clone, Copy)]
enum Value<'a> {
    Count(usize),
    Number(f64),
    Numbers(&'a [f64]),
    Text(&'a str),
}

/// A spec's circuit, built.
enum Built {
    /// The generator's delay line with its named nodes.
    Line(DelayLine),
    /// A canonically parsed netlist.
    Netlist(Circuit),
}

/// A [`JobSpec`] split into what it simulates and how. The circuit is
/// built (delay line) or canonically parsed (netlist) on first use and
/// then shared by validation, pricing, the job key, the structure
/// fingerprint and the run.
pub(crate) struct Prepared<'a> {
    /// The kind's fixed first word of its job key, 1–7.
    tag: u64,
    /// `None` only for the SNDR sweep, which runs no circuit.
    circuit: Option<CircuitSpec<'a>>,
    analysis: Analysis<'a>,
    built: OnceCell<Result<Built, ServiceError>>,
}

impl Prepared<'_> {
    /// See [`JobSpec::validate`].
    pub(crate) fn validate(&self) -> Result<(), ServiceError> {
        match self.circuit {
            Some(CircuitSpec::Line(line)) => {
                if line.stages == 0 || line.stages > 4096 {
                    return invalid("stages must be in 1..=4096");
                }
                if !(line.bias_ua > 0.0) {
                    return invalid("bias_ua must be positive");
                }
            }
            // The strict parse *is* the validation: any malformed card,
            // bad value, or unbuildable circuit comes back as a typed
            // line/column error. Unlike the canned kinds, this maps to
            // NetlistRejected (HTTP 422), not InvalidSpec — the request
            // shape was fine, the circuit was not.
            Some(netlist @ CircuitSpec::Netlist(_))
                if self.built(netlist)?.circuit().elements().is_empty() =>
            {
                return Err(ServiceError::NetlistRejected(
                    "netlist defines no elements".to_string(),
                ));
            }
            _ => {}
        }
        self.analysis.validate()
    }

    /// See [`JobSpec::admission_cost`].
    pub(crate) fn admission_cost(&self) -> Result<Option<CircuitCost>, ServiceError> {
        match self.circuit {
            Some(netlist @ CircuitSpec::Netlist(_)) => {
                Ok(Some(price_circuit(self.built(netlist)?.circuit())))
            }
            _ => Ok(None),
        }
    }

    /// See [`JobSpec::job_key`]: the kind's tag, the built circuit's
    /// fingerprints, then the analysis parameters in wire order.
    pub(crate) fn job_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.mix_u64(self.tag);
        if let Some(circuit) = self.circuit {
            match self.built(circuit) {
                // The canonical parse makes a netlist's key
                // text-representation independent: permuting cards or
                // editing comments lands in the same cache slot, and the
                // run executes the same canonical circuit, so sharing the
                // slot is sound.
                Ok(built) => {
                    h.mix_u64(built.circuit().structure_fingerprint());
                    h.mix_u64(built.circuit().value_fingerprint());
                }
                // Invalid specs still need a stable (never-cached) key:
                // the line's knobs, or the netlist's raw bytes.
                Err(_) => circuit.fields().for_each(|(_, value)| value.mix(&mut h)),
            }
        }
        for (_, value) in self.analysis.fields() {
            value.mix(&mut h);
        }
        h.finish()
    }

    /// See [`JobSpec::structure_fingerprint`].
    pub(crate) fn structure_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        match self.circuit.map(|c| (c, self.built(c))) {
            Some((_, Ok(built))) => h.mix_u64(built.canonical_structure()),
            // No circuit behind a sweep: all sweeps share one "structure".
            None => h.mix_u64(self.tag),
            Some((CircuitSpec::Line(line), Err(_))) => {
                h.mix_u64(self.tag);
                h.mix_u64(line.stages as u64);
            }
            Some((CircuitSpec::Netlist(text), Err(_))) => {
                h.mix_u64(self.tag);
                Value::Text(text).mix(&mut h);
            }
        }
        h.finish()
    }

    /// The spec's exact identity as bytes: the kind tag, then every
    /// circuit and analysis field in wire order, each a type byte and its
    /// raw data. Unlike the wire JSON this is injective: `-0.0` and `0.0`,
    /// or two NaN payloads, stay distinct.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = vec![self.tag as u8];
        let circuit = self.circuit.into_iter().flat_map(CircuitSpec::fields);
        for (_, value) in circuit.chain(self.analysis.fields()) {
            value.write(&mut out);
        }
        out
    }

    /// The circuit, built or parsed on the first call.
    fn built(&self, circuit: CircuitSpec<'_>) -> Result<&Built, ServiceError> {
        self.built
            .get_or_init(|| circuit.build())
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The circuit, built or parsed unless an earlier call already did.
    fn into_built(self, circuit: CircuitSpec<'_>) -> Result<Built, ServiceError> {
        self.built.into_inner().unwrap_or_else(|| circuit.build())
    }
}

impl<'a> CircuitSpec<'a> {
    /// Builds the delay line with its input source set, or parses the
    /// netlist canonically.
    fn build(self) -> Result<Built, ServiceError> {
        match self {
            CircuitSpec::Line(spec) => {
                let design = DelayLineDesign {
                    stages: spec.stages,
                    bias: Amps(spec.bias_ua * 1e-6),
                    vov: Volts(0.25),
                    hold_cap: Farads(0.5e-12),
                };
                let mut line = design.build().map_err(analysis_error)?;
                let input = Amps(spec.input_ua.unwrap_or(0.0) * 1e-6);
                set_current_source(&mut line.circuit, &line.input_source, input)
                    .map_err(analysis_error)?;
                Ok(Built::Line(line))
            }
            CircuitSpec::Netlist(text) => parse_netlist_canonical(text)
                .map(Built::Netlist)
                .map_err(|e| ServiceError::NetlistRejected(e.to_string())),
        }
    }

    /// The circuit's wire fields, in wire order.
    fn fields(self) -> impl Iterator<Item = (&'static str, Value<'a>)> {
        let fields = match self {
            CircuitSpec::Line(line) => [
                Some(("stages", Value::Count(line.stages))),
                Some(("bias_ua", Value::Number(line.bias_ua))),
                line.input_ua.map(|i| ("input_ua", Value::Number(i))),
            ],
            CircuitSpec::Netlist(text) => [Some(("netlist", Value::Text(text))), None, None],
        };
        fields.into_iter().flatten()
    }
}

impl<'a> Analysis<'a> {
    fn validate(self) -> Result<(), ServiceError> {
        match self {
            Analysis::Dc => {}
            Analysis::DcBatch(inputs_ua) => {
                if inputs_ua.is_empty() || inputs_ua.len() > 1024 {
                    return invalid("inputs_ua needs 1..=1024 entries");
                }
                if inputs_ua.iter().any(|i| !i.is_finite()) {
                    return invalid("inputs_ua entries must be finite");
                }
            }
            Analysis::Tran(tran) => tran.validate(100_000)?,
            Analysis::Ac(ac) => {
                if !(ac.f_lo_hz > 0.0) || !(ac.f_hi_hz > ac.f_lo_hz) {
                    return invalid("need 0 < f_lo_hz < f_hi_hz");
                }
                if ac.points < 2 || ac.points > 10_000 {
                    return invalid("points must be in 2..=10000");
                }
            }
            Analysis::TranStream(StreamSpec {
                tran,
                chunk_steps,
                seg_len,
            }) => {
                // Streaming exists for runs too long for one deadline, so
                // the step cap is far above DelayLineTran's.
                tran.validate(1_048_576)?;
                if chunk_steps == 0 || chunk_steps > tran.steps {
                    return invalid("chunk_steps must be in 1..=steps");
                }
                if !(2..=65_536).contains(&seg_len) || !seg_len.is_power_of_two() {
                    return invalid("seg_len must be a power of two in 2..=65536");
                }
                if seg_len > tran.steps + 1 {
                    return invalid(
                        "seg_len must not exceed steps + 1 (no complete segment would fit)",
                    );
                }
            }
            Analysis::Sweep(sweep) => {
                if !(sweep.full_scale_ua > 0.0) {
                    return invalid("full_scale_ua must be positive");
                }
                if sweep.levels_db.len() < 2 || sweep.levels_db.len() > 256 {
                    return invalid("levels_db needs 2..=256 entries");
                }
                if sweep.levels_db.iter().any(|l| !l.is_finite()) {
                    return invalid("levels_db entries must be finite");
                }
            }
        }
        Ok(())
    }

    /// The analysis's wire fields, in wire order.
    fn fields(self) -> Vec<(&'static str, Value<'a>)> {
        let tran = |t: TranSpec| {
            [
                ("steps", Value::Count(t.steps)),
                ("dt_ns", Value::Number(t.dt_ns)),
                ("clock_hz", Value::Number(t.clock_hz)),
            ]
        };
        match self {
            Analysis::Dc => vec![],
            Analysis::DcBatch(inputs_ua) => vec![("inputs_ua", Value::Numbers(inputs_ua))],
            Analysis::Tran(t) => tran(t).to_vec(),
            Analysis::Ac(ac) => vec![
                ("f_lo_hz", Value::Number(ac.f_lo_hz)),
                ("f_hi_hz", Value::Number(ac.f_hi_hz)),
                ("points", Value::Count(ac.points)),
            ],
            Analysis::TranStream(stream) => {
                let mut fields = tran(stream.tran).to_vec();
                fields.push(("chunk_steps", Value::Count(stream.chunk_steps)));
                fields.push(("seg_len", Value::Count(stream.seg_len)));
                fields
            }
            Analysis::Sweep(sweep) => vec![
                ("full_scale_ua", Value::Number(sweep.full_scale_ua)),
                ("levels_db", Value::Numbers(sweep.levels_db)),
            ],
        }
    }
}

impl TranSpec {
    fn validate(self, max_steps: usize) -> Result<(), ServiceError> {
        if self.steps == 0 || self.steps > max_steps {
            return invalid(&format!("steps must be in 1..={max_steps}"));
        }
        if !(self.dt_ns > 0.0) {
            return invalid("dt_ns must be positive");
        }
        if !(self.clock_hz > 0.0) {
            return invalid("clock_hz must be positive");
        }
        Ok(())
    }

    /// The engine's parameters: `steps` fixed steps of `dt_ns`, switches
    /// clocked at `clock_hz`.
    fn params(self) -> Result<TranParams, si_analog::AnalogError> {
        let dt = Seconds(self.dt_ns * 1e-9);
        let t_stop = Seconds(dt.0 * (self.steps as f64));
        let clock = TwoPhaseClock::new(Seconds(1.0 / self.clock_hz), 0.0)?;
        Ok(TranParams::new(t_stop, dt)?.with_clock(clock))
    }
}

impl Value<'_> {
    fn to_json(self) -> Json {
        match self {
            Value::Count(n) => Json::Number(n as f64),
            Value::Number(x) => Json::Number(x),
            Value::Numbers(xs) => Json::Array(xs.iter().map(|&x| Json::Number(x)).collect()),
            Value::Text(text) => Json::String(text.to_string()),
        }
    }

    /// Mixes the value into a key: counts as `u64`, numbers by bit
    /// pattern, lists and text length-prefixed.
    fn mix(self, h: &mut Fnv1a) {
        match self {
            Value::Count(n) => h.mix_u64(n as u64),
            Value::Number(x) => h.mix_f64(x),
            Value::Numbers(xs) => {
                h.mix_u64(xs.len() as u64);
                xs.iter().for_each(|&x| h.mix_f64(x));
            }
            Value::Text(text) => {
                h.mix_u64(text.len() as u64);
                h.mix_bytes(text.as_bytes());
            }
        }
    }

    /// Appends the value's canonical bytes: a type byte, then the same
    /// raw data [`Value::mix`] hashes.
    fn write(self, out: &mut Vec<u8>) {
        match self {
            Value::Count(n) => {
                out.push(0);
                out.extend_from_slice(&(n as u64).to_le_bytes());
            }
            Value::Number(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Numbers(xs) => {
                out.push(2);
                out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
                xs.iter()
                    .for_each(|x| out.extend_from_slice(&x.to_bits().to_le_bytes()));
            }
            Value::Text(text) => {
                out.push(3);
                out.extend_from_slice(&(text.len() as u64).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
        }
    }
}

impl Built {
    fn circuit(&self) -> &Circuit {
        match self {
            Built::Line(line) => &line.circuit,
            Built::Netlist(circuit) => circuit,
        }
    }

    /// The structure fingerprint of the circuit's canonical parse.
    fn canonical_structure(&self) -> u64 {
        match self {
            // Generator-built circuits are fingerprinted through the same
            // canonical netlist round trip as user submissions: emit the
            // circuit, re-parse it canonically, fingerprint that. Without
            // the round trip the generator's element order would hash
            // differently from the canonical card order, and a netlist
            // twin would land on a different shard than its generator job.
            Built::Line(line) => to_netlist(&line.circuit)
                .ok()
                .and_then(|text| parse_netlist_canonical(&text).ok())
                .map_or_else(
                    || line.circuit.structure_fingerprint(),
                    |canon| canon.structure_fingerprint(),
                ),
            Built::Netlist(circuit) => circuit.structure_fingerprint(),
        }
    }
}

/// Resident-byte budget of one [`KeyMemo`]: its specs' canonical bytes
/// plus a fixed per-entry allowance.
#[doc(hidden)]
pub const KEY_MEMO_BUDGET_BYTES: usize = 256 << 10;

/// What one memo entry costs beyond its bytes: the map slot, the FIFO
/// slot and the shared allocation's header.
const KEY_MEMO_ENTRY_OVERHEAD: usize = 96;

/// Specs whose canonical bytes exceed this share of the budget are never
/// memoized, so one large netlist cannot flush the working set.
const KEY_MEMO_MAX_SPEC_BYTES: usize = KEY_MEMO_BUDGET_BYTES / 16;

/// A bounded memo from a spec's canonical bytes to its job key and, once
/// a caller asks for it, its structure fingerprint. A cache hit then
/// costs a lookup instead of a delay-line build (and, for the router's
/// fingerprint, a canonical netlist round trip).
///
/// Lookups compare the full bytes, never only a hash, so a collision can
/// never hand one spec another's key. Memoized values are exactly what
/// [`JobSpec::job_key`] and [`JobSpec::structure_fingerprint`] return,
/// which stay pure. Entries are evicted oldest first once their resident
/// bytes would pass [`KEY_MEMO_BUDGET_BYTES`].
///
/// `SiService` and `Router` each own one; it is public only so the
/// integration tests can check its identity and bound.
#[doc(hidden)]
#[derive(Default)]
pub struct KeyMemo {
    entries: Mutex<MemoEntries>,
}

/// The memo's contents, with insertion order for FIFO eviction.
#[derive(Default)]
struct MemoEntries {
    map: HashMap<Arc<[u8]>, MemoIds>,
    order: VecDeque<Arc<[u8]>>,
    resident: usize,
}

/// A memoized spec's identities; the fingerprint only once asked for.
#[derive(Clone, Copy, PartialEq)]
struct MemoIds {
    key: u64,
    fingerprint: Option<u64>,
}

impl KeyMemo {
    /// The spec's [`JobSpec::job_key`].
    pub fn job_key(&self, spec: &JobSpec) -> u64 {
        self.key_of(&spec.prepare())
    }

    /// The spec's [`JobSpec::structure_fingerprint`] and
    /// [`JobSpec::job_key`], in that order.
    pub fn route(&self, spec: &JobSpec) -> (u64, u64) {
        let ids = self.ids(&spec.prepare(), true);
        let fingerprint = ids.fingerprint.expect("route asks for the fingerprint");
        (fingerprint, ids.key)
    }

    /// Canonical bytes plus per-entry allowance of every resident spec.
    pub fn resident_bytes(&self) -> usize {
        lock_recover(&self.entries).resident
    }

    /// Whether the spec is resident.
    pub fn holds(&self, spec: &JobSpec) -> bool {
        self.peek(spec).is_some()
    }

    /// The spec's memoized key, if resident. A lookup only: it never
    /// builds, parses or records anything, so `SiService` can ask it on
    /// the event loop whether a netlist's exact text was already admitted
    /// (only the submission path records a netlist, after its gauntlet).
    /// A netlist too long to be memoized is refused before its text is
    /// copied into canonical bytes.
    pub(crate) fn peek(&self, spec: &JobSpec) -> Option<u64> {
        if matches!(spec, JobSpec::Netlist { netlist } if netlist.len() > KEY_MEMO_MAX_SPEC_BYTES) {
            return None;
        }
        let bytes = spec.prepare().canonical_bytes();
        lock_recover(&self.entries)
            .map
            .get(&bytes[..])
            .map(|ids| ids.key)
    }

    /// [`KeyMemo::job_key`] of an already prepared spec, so a miss
    /// derives the key from the circuit its caller built or parsed.
    pub(crate) fn key_of(&self, job: &Prepared<'_>) -> u64 {
        self.ids(job, false).key
    }

    fn ids(&self, job: &Prepared<'_>, fingerprint: bool) -> MemoIds {
        let bytes = job.canonical_bytes();
        let memoize = bytes.len() <= KEY_MEMO_MAX_SPEC_BYTES;
        let hit = memoize
            .then(|| lock_recover(&self.entries).map.get(&bytes[..]).copied())
            .flatten();
        let ids = MemoIds {
            key: hit.map_or_else(|| job.job_key(), |ids| ids.key),
            fingerprint: hit
                .and_then(|ids| ids.fingerprint)
                .or_else(|| fingerprint.then(|| job.structure_fingerprint())),
        };
        if memoize && hit != Some(ids) {
            lock_recover(&self.entries).record(bytes, ids);
        }
        ids
    }
}

impl MemoEntries {
    /// Inserts or updates an entry, first evicting the oldest entries
    /// until a new one fits the budget.
    fn record(&mut self, bytes: Vec<u8>, ids: MemoIds) {
        if let Some(slot) = self.map.get_mut(&bytes[..]) {
            *slot = ids;
            return;
        }
        let cost = bytes.len() + KEY_MEMO_ENTRY_OVERHEAD;
        while self.resident + cost > KEY_MEMO_BUDGET_BYTES {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&old);
            self.resident -= old.len() + KEY_MEMO_ENTRY_OVERHEAD;
        }
        let bytes: Arc<[u8]> = bytes.into();
        self.map.insert(Arc::clone(&bytes), ids);
        self.order.push_back(bytes);
        self.resident += cost;
    }
}

/// The SNDR-vs-level sweep of the ideal second-order modulator.
fn run_sweep(sweep: SweepSpec<'_>) -> Result<JobOutput, ServiceError> {
    let full_scale = sweep.full_scale_ua * 1e-6;
    let config = MeasurementConfig::quick();
    let sweep = sndr_sweep(
        || IdealModulator::new(SecondOrderTopology::default(), full_scale),
        sweep.levels_db,
        &config,
    )
    .map_err(|e| ServiceError::Analysis(e.to_string()))?;
    let values: Vec<f64> = sweep.points.iter().map(|p| p.sinad_db).collect();
    Ok(JobOutput {
        values,
        metrics: vec![
            ("dynamic_range_db".to_string(), sweep.dynamic_range_db),
            ("peak_sinad_db".to_string(), sweep.peak_sinad_db()),
        ],
    })
}

/// The DC operating point of a user circuit.
fn run_netlist(circuit: &Circuit, ws: &mut EngineWorkspace) -> Result<JobOutput, ServiceError> {
    // User circuits never get the Transient (retryable) mapping: a
    // netlist that exhausts the Newton budget would exhaust it again on
    // every retry, and the retry loop is not a resource a submission
    // should be able to spend. Every failure is a permanent, typed 4xx.
    let sol = DcSolver::new()
        .solve_with(circuit, ws)
        .map_err(|e| ServiceError::Analysis(e.to_string()))?;
    // All non-ground node voltages, in node-intern order — the canonical
    // parse makes that order deterministic for every text variant of the
    // same circuit.
    let values: Vec<f64> = sol.node_voltages().split_off(1);
    let v_min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let v_max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Ok(JobOutput {
        values,
        metrics: vec![
            ("nodes".to_string(), circuit.node_count() as f64),
            ("devices".to_string(), circuit.elements().len() as f64),
            ("mna_dimension".to_string(), circuit.mna_dimension() as f64),
            ("v_min".to_string(), v_min),
            ("v_max".to_string(), v_max),
        ],
    })
}

fn invalid(msg: &str) -> Result<(), ServiceError> {
    Err(ServiceError::InvalidSpec(msg.to_string()))
}

/// Version tag written into every streaming checkpoint; bump when the
/// layout changes so stale checkpoints are rerun, not misread.
const CHECKPOINT_VERSION: u64 = 1;

/// The window every streaming spectrum uses.
const STREAM_WINDOW: Window = Window::Hann;

/// Newton budget exhaustion is the one analog failure a retry can
/// plausibly clear (warmer workspace, different gmin path), so it gets
/// the retryable variant; everything else is permanent.
fn analysis_error(e: si_analog::AnalogError) -> ServiceError {
    match &e {
        si_analog::AnalogError::NoConvergence { .. } => ServiceError::Transient(e.to_string()),
        _ => ServiceError::Analysis(e.to_string()),
    }
}

/// In-progress state of a [`JobSpec::TranStream`] execution: the built
/// circuit plus everything a checkpoint must capture to resume at the
/// next chunk boundary — the end-of-chunk MNA solution and the Welch
/// accumulator's running state.
#[derive(Debug)]
pub struct StreamState {
    line: DelayLine,
    params: TranParams,
    steps: usize,
    chunk_steps: usize,
    solution: Solution,
    acc: WelchAccumulator,
    chunks_done: usize,
}

impl StreamState {
    /// Opens a run: from `checkpoint` when [`StreamState::resumable`]
    /// accepts it for the job keyed by its first half, else fresh — the
    /// DC initial condition solved, an empty Welch accumulator armed and
    /// chunk 0 not yet run.
    fn open(
        line: DelayLine,
        stream: StreamSpec,
        checkpoint: Option<(u64, JobOutput)>,
        ws: &mut EngineWorkspace,
    ) -> Result<StreamState, ServiceError> {
        let params = stream.tran.params().map_err(analysis_error)?;
        let resumed =
            checkpoint.and_then(|(key, ckpt)| StreamState::resumable(&line, stream, key, &ckpt));
        let (solution, acc, chunks_done) = match resumed {
            Some(parts) => parts,
            None => (
                tran::initial_condition(&line.circuit, &params, ws).map_err(analysis_error)?,
                WelchAccumulator::new(stream.seg_len, STREAM_WINDOW)
                    .map_err(|e| ServiceError::InvalidSpec(e.to_string()))?,
                0,
            ),
        };
        Ok(StreamState {
            line,
            params,
            steps: stream.tran.steps,
            chunk_steps: stream.chunk_steps,
            solution,
            acc,
            chunks_done,
        })
    }

    /// The end-of-chunk solution, Welch state and chunk count a
    /// checkpoint holds, if it belongs to this run. `None` — *rerun from
    /// scratch*, never a wrong answer — when it does not: wrong version,
    /// wrong job key, wrong chunking or Welch geometry, or inconsistent
    /// lengths.
    fn resumable(
        line: &DelayLine,
        stream: StreamSpec,
        key: u64,
        checkpoint: &JobOutput,
    ) -> Option<(Solution, WelchAccumulator, usize)> {
        let metric = |name: &str| {
            checkpoint
                .metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
        };
        let int = |name: &str| {
            metric(name)
                .filter(|v| v.fract() == 0.0 && *v >= 0.0 && *v < 9e15)
                .map(|v| v as u64)
        };
        if int("ckpt_version")? != CHECKPOINT_VERSION {
            return None;
        }
        if int("key_hi")? != key >> 32 || int("key_lo")? != key & 0xffff_ffff {
            return None;
        }
        let chunks_total = stream.tran.steps.div_ceil(stream.chunk_steps) as u64;
        if int("chunks_total")? != chunks_total {
            return None;
        }
        let chunks_done = int("chunks_done")? as usize;
        if chunks_done == 0 || chunks_done as u64 > chunks_total {
            return None;
        }
        if int("seg_len")? != stream.seg_len as u64 {
            return None;
        }
        let state_len = int("state_len")? as usize;
        let segments = int("welch_segments")? as usize;
        let tail_len = int("welch_tail_len")? as usize;
        let sum_len = stream.seg_len / 2 + 1;
        if checkpoint.values.len() != state_len + sum_len + tail_len {
            return None;
        }
        if state_len != line.circuit.mna_dimension() {
            return None;
        }
        let solution = Solution::new(
            checkpoint.values[..state_len].to_vec(),
            line.circuit.node_count(),
        );
        let sum = checkpoint.values[state_len..state_len + sum_len].to_vec();
        let tail = checkpoint.values[state_len + sum_len..].to_vec();
        let acc =
            WelchAccumulator::resume(stream.seg_len, STREAM_WINDOW, tail, sum, segments).ok()?;
        Some((solution, acc, chunks_done))
    }

    /// Runs the next chunk: solves its `chunk_steps` steps (fewer for the
    /// final chunk), feeds the output-stage samples to the Welch
    /// accumulator, and keeps the end-of-chunk solution for the next
    /// chunk or checkpoint.
    ///
    /// # Errors
    ///
    /// Solver errors (Newton budget exhaustion maps to the retryable
    /// [`ServiceError::Transient`]).
    fn advance(&mut self, ws: &mut EngineWorkspace) -> Result<(), ServiceError> {
        let start_step = self.chunks_done * self.chunk_steps;
        let this_chunk = self.chunk_steps.min(self.steps - start_step);
        let (part, next) = tran::run_chunk_with(
            &self.line.circuit,
            &self.params,
            start_step,
            this_chunk,
            &self.solution,
            ws,
        )
        .map_err(analysis_error)?;
        let out_node = *self.line.stage_nodes.last().expect("stages >= 1");
        self.acc
            .push(&part.voltage_waveform(out_node))
            .map_err(|e| ServiceError::Analysis(e.to_string()))?;
        self.solution = next;
        self.chunks_done += 1;
        Ok(())
    }

    /// Averages the accumulated periodograms into the job's output
    /// spectrum.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Analysis`] if no complete Welch segment was
    /// consumed (ruled out for valid specs by `seg_len ≤ steps + 1`).
    fn finish(&self) -> Result<JobOutput, ServiceError> {
        let spectrum = self
            .acc
            .finish()
            .map_err(|e| ServiceError::Analysis(e.to_string()))?;
        let out_node = *self.line.stage_nodes.last().expect("stages >= 1");
        let final_v = self.solution.voltage(out_node).0;
        Ok(JobOutput {
            values: spectrum.powers().to_vec(),
            metrics: vec![
                ("steps".to_string(), self.steps as f64),
                ("chunks".to_string(), self.chunks_total() as f64),
                ("seg_len".to_string(), self.acc.seg_len() as f64),
                ("segments".to_string(), self.acc.segments() as f64),
                ("final_v_out".to_string(), final_v),
            ],
        })
    }

    /// Chunks completed so far.
    #[must_use]
    pub fn chunks_done(&self) -> usize {
        self.chunks_done
    }

    /// Total chunks the run needs.
    #[must_use]
    pub fn chunks_total(&self) -> usize {
        self.steps.div_ceil(self.chunk_steps)
    }

    /// Serializes the resumable state as a [`JobOutput`] so checkpoints
    /// ride the same checksummed, atomic-rename, quarantine-on-corruption
    /// disk format as `.sic` result entries. `job_key` is folded in so a
    /// checkpoint can never resume a different job.
    #[must_use]
    pub fn to_checkpoint(&self, job_key: u64) -> JobOutput {
        let mut values = self.solution.raw().to_vec();
        let state_len = values.len();
        values.extend_from_slice(self.acc.power_sum());
        values.extend_from_slice(self.acc.tail());
        JobOutput {
            values,
            metrics: vec![
                ("ckpt_version".to_string(), CHECKPOINT_VERSION as f64),
                ("key_hi".to_string(), (job_key >> 32) as f64),
                ("key_lo".to_string(), (job_key & 0xffff_ffff) as f64),
                ("chunks_done".to_string(), self.chunks_done as f64),
                ("chunks_total".to_string(), self.chunks_total() as f64),
                ("state_len".to_string(), state_len as f64),
                ("seg_len".to_string(), self.acc.seg_len() as f64),
                ("welch_segments".to_string(), self.acc.segments() as f64),
                ("welch_tail_len".to_string(), self.acc.tail().len() as f64),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc_spec() -> JobSpec {
        JobSpec::DelayLineDc {
            stages: 4,
            bias_ua: 20.0,
            input_ua: 2.0,
        }
    }

    #[test]
    fn job_key_is_stable_and_value_sensitive() {
        let a = dc_spec();
        assert_eq!(a.job_key(), dc_spec().job_key());
        let b = JobSpec::DelayLineDc {
            stages: 4,
            bias_ua: 20.0,
            input_ua: 2.5,
        };
        assert_ne!(a.job_key(), b.job_key());
        let c = JobSpec::DelayLineDc {
            stages: 5,
            bias_ua: 20.0,
            input_ua: 2.0,
        };
        assert_ne!(a.job_key(), c.job_key());
    }

    #[test]
    fn kinds_never_collide_on_shared_params() {
        let dc = dc_spec();
        let ac = JobSpec::DelayLineAc {
            stages: 4,
            bias_ua: 20.0,
            input_ua: 2.0,
            f_lo_hz: 1e3,
            f_hi_hz: 1e6,
            points: 4,
        };
        assert_ne!(dc.job_key(), ac.job_key());
    }

    #[test]
    fn json_round_trip_preserves_key() {
        let specs = vec![
            dc_spec(),
            JobSpec::DelayLineTran {
                stages: 3,
                bias_ua: 20.0,
                input_ua: 1.0,
                steps: 8,
                dt_ns: 100.0,
                clock_hz: 1e6,
            },
            JobSpec::DelayLineAc {
                stages: 2,
                bias_ua: 20.0,
                input_ua: 0.0,
                f_lo_hz: 1e3,
                f_hi_hz: 1e8,
                points: 5,
            },
            JobSpec::SndrSweep {
                full_scale_ua: 6.0,
                levels_db: vec![-40.0, -20.0, -6.0],
            },
        ];
        for spec in specs {
            let wire = spec.to_json().to_string_compact();
            let parsed = JobSpec::from_json(&crate::json::parse(&wire).unwrap()).unwrap();
            assert_eq!(parsed, spec);
            assert_eq!(parsed.job_key(), spec.job_key());
        }
    }

    #[test]
    fn invalid_specs_are_rejected_with_typed_error() {
        let bad = JobSpec::DelayLineDc {
            stages: 0,
            bias_ua: 20.0,
            input_ua: 0.0,
        };
        assert!(matches!(bad.validate(), Err(ServiceError::InvalidSpec(_))));
        let parse_err = JobSpec::from_json(&crate::json::parse(r#"{"kind":"nope"}"#).unwrap());
        assert!(matches!(parse_err, Err(ServiceError::InvalidSpec(_))));
    }

    #[test]
    fn dc_job_runs_and_is_deterministic() {
        let spec = dc_spec();
        let mut ws1 = EngineWorkspace::new();
        let mut ws2 = EngineWorkspace::new();
        let a = spec.run(&mut ws1).unwrap();
        let b = spec.run(&mut ws2).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.values.len(), 4);
        // Diode-connected NMOS nodes sit near Vgs = Vt + Vov ≈ 1.05 V.
        assert!(a.values.iter().all(|v| *v > 0.5 && *v < 2.0), "{a:?}");
    }

    fn batch_spec(inputs: &[f64]) -> JobSpec {
        JobSpec::DelayLineDcBatch {
            stages: 4,
            bias_ua: 20.0,
            inputs_ua: inputs.to_vec(),
        }
    }

    #[test]
    fn batch_spec_round_trips_and_keys_on_inputs() {
        let a = batch_spec(&[1.0, 2.0, 3.0]);
        let wire = a.to_json().to_string_compact();
        let parsed = JobSpec::from_json(&crate::json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, a);
        assert_eq!(parsed.job_key(), a.job_key());
        assert_eq!(a.scenario_count(), 3);
        // Reordering or retuning scenarios moves the key; a single job and
        // a one-scenario batch never collide.
        assert_ne!(a.job_key(), batch_spec(&[3.0, 2.0, 1.0]).job_key());
        assert_ne!(a.job_key(), batch_spec(&[1.0, 2.0]).job_key());
        let single = JobSpec::DelayLineDc {
            stages: 4,
            bias_ua: 20.0,
            input_ua: 2.0,
        };
        assert_ne!(single.job_key(), batch_spec(&[2.0]).job_key());
        assert_eq!(single.scenario_count(), 1);
    }

    #[test]
    fn batch_spec_validates_inputs() {
        assert!(matches!(
            batch_spec(&[]).validate(),
            Err(ServiceError::InvalidSpec(_))
        ));
        assert!(matches!(
            batch_spec(&[f64::NAN]).validate(),
            Err(ServiceError::InvalidSpec(_))
        ));
        assert!(batch_spec(&[0.5]).validate().is_ok());
    }

    #[test]
    fn batch_job_runs_deterministically_and_concatenates_scenarios() {
        let spec = batch_spec(&[0.5, 1.0, 1.5, 2.0]);
        let mut ws1 = EngineWorkspace::new();
        let mut ws2 = EngineWorkspace::new();
        let a = spec.run(&mut ws1).unwrap();
        let b = spec.run(&mut ws2).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.values.len(), 4 * 4, "4 scenarios x 4 stage nodes");
        let per = a
            .metrics
            .iter()
            .find(|(k, _)| k == "values_per_scenario")
            .unwrap()
            .1;
        assert_eq!(per, 4.0);
        assert!(a.values.iter().all(|v| *v > 0.5 && *v < 2.0), "{a:?}");
    }

    /// A [`Units`] hook that records every `before` call, stops before
    /// unit `stop_at`, offers `checkpoint` to resume from, and keeps the
    /// checkpoint (under `key`) of the last chunk run.
    #[derive(Default)]
    struct Probe {
        seen: Vec<(usize, usize)>,
        stop_at: Option<usize>,
        checkpoint: Option<JobOutput>,
        key: u64,
        last: Option<JobOutput>,
    }

    impl Units for Probe {
        fn before(&mut self, index: usize, total: usize) -> Result<(), ServiceError> {
            self.seen.push((index, total));
            if self.stop_at == Some(index) {
                return Err(ServiceError::Canceled);
            }
            Ok(())
        }

        fn resume(&mut self) -> Option<JobOutput> {
            self.checkpoint.take()
        }

        fn after_chunk(&mut self, state: &StreamState) {
            self.last = Some(state.to_checkpoint(self.key));
        }
    }

    #[test]
    fn batch_hook_sees_every_scenario_in_order() {
        let spec = batch_spec(&[0.5, 1.0, 1.5]);
        let mut ws = EngineWorkspace::new();
        let mut probe = Probe::default();
        let out = spec.run_with(&mut ws, &mut probe).unwrap();
        assert_eq!(probe.seen, vec![(0, 3), (1, 3), (2, 3)]);
        assert_eq!(out, spec.run(&mut EngineWorkspace::new()).unwrap());
        // A single-shot job is one unit.
        let mut single = Probe::default();
        dc_spec().run_with(&mut ws, &mut single).unwrap();
        assert_eq!(single.seen, vec![(0, 1)]);
        // A stop between scenarios ends the batch with the hook's own
        // error, and no later scenario runs.
        let mut stop = Probe {
            stop_at: Some(1),
            ..Probe::default()
        };
        let err = spec.run_with(&mut ws, &mut stop).unwrap_err();
        assert_eq!(err, ServiceError::Canceled);
        assert_eq!(stop.seen, vec![(0, 3), (1, 3)]);
    }

    const DIVIDER: &str = "\
* two-resistor divider
V1 in 0 3.3
R1 in mid 1k
R2 mid 0 2k
.end
";

    fn netlist_spec(text: &str) -> JobSpec {
        JobSpec::Netlist {
            netlist: text.to_string(),
        }
    }

    #[test]
    fn netlist_spec_round_trips_through_json() {
        let spec = netlist_spec(DIVIDER);
        let wire = spec.to_json().to_string_compact();
        // The netlist text (newlines and all) survives the JSON escape.
        let parsed = JobSpec::from_json(&crate::json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.job_key(), spec.job_key());
        assert_eq!(spec.kind(), "netlist");
        assert_eq!(spec.scenario_count(), 1);
    }

    #[test]
    fn netlist_job_key_is_text_representation_independent() {
        // Same circuit, different comments / card order / spacing: the
        // canonical parse maps them to the same job key.
        let permuted = "\
R2   mid 0   2k   ; bottom leg
* a different comment
R1 in mid 1k
V1 in 0 3.3
.end
";
        assert_eq!(
            netlist_spec(DIVIDER).job_key(),
            netlist_spec(permuted).job_key()
        );
        // Retuning one value moves the key.
        let retuned = DIVIDER.replace("2k", "2.2k");
        assert_ne!(
            netlist_spec(DIVIDER).job_key(),
            netlist_spec(&retuned).job_key()
        );
    }

    #[test]
    fn netlist_job_solves_the_divider() {
        let spec = netlist_spec(DIVIDER);
        spec.validate().unwrap();
        let mut ws = EngineWorkspace::new();
        let out = spec.run(&mut ws).unwrap();
        // Nodes intern as in (3.3 V) then mid (2.2 V).
        assert_eq!(out.values.len(), 2);
        assert!((out.values[0] - 3.3).abs() < 1e-9);
        assert!((out.values[1] - 2.2).abs() < 1e-6);
        let nodes = out.metrics.iter().find(|(k, _)| k == "nodes").unwrap().1;
        assert_eq!(nodes, 3.0);
    }

    #[test]
    fn bad_netlists_are_rejected_not_invalid_spec() {
        let bad = netlist_spec("R1 a 0 oops\n");
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, ServiceError::NetlistRejected(_)), "{err:?}");
        assert_eq!(err.http_status(), 422);
        // The rendered message carries the source location.
        assert!(err.to_string().contains("line 1"), "{err}");
        // An empty circuit is typed the same way.
        assert!(matches!(
            netlist_spec(".version 1\n.end\n").validate(),
            Err(ServiceError::NetlistRejected(_))
        ));
        // Unparsable text still has a stable, distinct job key.
        assert_eq!(bad.job_key(), netlist_spec("R1 a 0 oops\n").job_key());
        assert_ne!(bad.job_key(), netlist_spec("R1 a 0 zoops\n").job_key());
    }

    #[test]
    fn admission_cost_prices_without_solving() {
        let cost = netlist_spec(DIVIDER).admission_cost().unwrap().unwrap();
        assert_eq!(cost.nodes, 3);
        assert_eq!(cost.devices, 3);
        assert_eq!(cost.mna_dim, 3); // 2 non-ground nodes + 1 branch
        assert!(cost.nonzeros > 0);
        // Canned kinds are not priced.
        assert_eq!(dc_spec().admission_cost().unwrap(), None);
        // Unparsable text fails pricing with the typed rejection.
        assert!(matches!(
            netlist_spec("garbage").admission_cost(),
            Err(ServiceError::NetlistRejected(_))
        ));
    }

    #[test]
    fn sndr_job_reports_dynamic_range() {
        let spec = JobSpec::SndrSweep {
            full_scale_ua: 6.0,
            levels_db: vec![-60.0, -40.0, -20.0, -6.0],
        };
        let mut ws = EngineWorkspace::new();
        let out = spec.run(&mut ws).unwrap();
        assert_eq!(out.values.len(), 4);
        let dr = out
            .metrics
            .iter()
            .find(|(k, _)| k == "dynamic_range_db")
            .unwrap()
            .1;
        assert!(dr > 20.0, "dynamic range {dr} dB implausibly low");
    }

    fn stream_spec_with(steps: usize, chunk_steps: usize, seg_len: usize) -> JobSpec {
        JobSpec::TranStream {
            stages: 3,
            bias_ua: 20.0,
            input_ua: 2.0,
            steps,
            dt_ns: 50.0,
            clock_hz: 2.0e6,
            chunk_steps,
            seg_len,
        }
    }

    fn stream_spec() -> JobSpec {
        stream_spec_with(900, 128, 256)
    }

    #[test]
    fn stream_spec_round_trips_and_keys_on_every_knob() {
        let spec = stream_spec();
        spec.validate().unwrap();
        assert_eq!(spec.kind(), "tran_stream");
        assert!(spec.is_stream());
        assert_eq!(spec.scenario_count(), 1);
        assert_eq!(spec.stream_chunk_count(), Some(8), "ceil(900 / 128)");
        let wire = spec.to_json().to_string_compact();
        let parsed = JobSpec::from_json(&crate::json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.job_key(), spec.job_key());
        // Chunking and Welch geometry are part of the identity: a job
        // resumed under different chunking must not alias the original.
        assert_ne!(spec.job_key(), stream_spec_with(900, 64, 256).job_key());
        assert_ne!(spec.job_key(), stream_spec_with(900, 128, 128).job_key());
        // The checkpoint key never collides with the job key itself.
        assert_ne!(JobSpec::checkpoint_key(spec.job_key()), spec.job_key());
    }

    #[test]
    fn stream_spec_validates_chunking_and_segment_length() {
        assert!(stream_spec_with(900, 0, 256).validate().is_err());
        assert!(stream_spec_with(900, 901, 256).validate().is_err());
        // Not a power of two.
        assert!(stream_spec_with(900, 128, 255).validate().is_err());
        // Longer than the waveform (steps + 1 samples).
        assert!(stream_spec_with(900, 128, 1024).validate().is_err());
        assert!(stream_spec_with(0, 1, 2).validate().is_err());
        // One-chunk streams are legal.
        assert!(stream_spec_with(900, 900, 256).validate().is_ok());
    }

    #[test]
    fn stream_run_is_deterministic_and_reports_chunks() {
        let spec = stream_spec();
        let mut ws1 = EngineWorkspace::new();
        let mut ws2 = EngineWorkspace::new();
        let a = spec.run(&mut ws1).unwrap();
        let b = spec.run(&mut ws2).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.values.len(), 256 / 2 + 1, "one-sided spectrum bins");
        let metric = |name: &str| a.metrics.iter().find(|(k, _)| k == name).unwrap().1;
        assert_eq!(metric("chunks"), 8.0);
        assert_eq!(metric("seg_len"), 256.0);
        assert!(metric("segments") >= 1.0);
        // The hook fires once per chunk, in order.
        let mut probe = Probe::default();
        let mut ws3 = EngineWorkspace::new();
        let c = spec.run_with(&mut ws3, &mut probe).unwrap();
        assert_eq!(probe.seen, (0..8).map(|i| (i, 8)).collect::<Vec<_>>());
        assert_eq!(c, a);
    }

    /// Runs `spec` from chunk 0 and stops it before chunk `stop_at`,
    /// returning the checkpoint of the last chunk run, made under `key`.
    fn checkpoint_after(spec: &JobSpec, stop_at: usize, key: u64) -> JobOutput {
        let mut probe = Probe {
            stop_at: Some(stop_at),
            key,
            ..Probe::default()
        };
        let err = spec
            .run_with(&mut EngineWorkspace::new(), &mut probe)
            .unwrap_err();
        assert_eq!(err, ServiceError::Canceled);
        probe.last.expect("a chunk ran before the stop")
    }

    /// Runs `spec` offered `checkpoint` on a fresh workspace; returns the
    /// output and the chunk the run started from (0: it reran).
    fn run_from(spec: &JobSpec, checkpoint: JobOutput) -> (JobOutput, usize) {
        let mut probe = Probe {
            checkpoint: Some(checkpoint),
            ..Probe::default()
        };
        let out = spec
            .run_with(&mut EngineWorkspace::new(), &mut probe)
            .unwrap();
        (out, probe.seen[0].0)
    }

    /// The tentpole invariant at the spec level: checkpoint after any
    /// chunk, serialize, resume from the serialized form on a *fresh*
    /// workspace, and the final spectrum is bit-identical to the
    /// uninterrupted run.
    #[test]
    fn stream_checkpoint_resume_is_bit_identical() {
        let spec = stream_spec();
        let key = spec.job_key();
        let mut ws = EngineWorkspace::new();
        let uninterrupted = spec.run(&mut ws).unwrap();

        for stop_after in [1usize, 3, 7] {
            // "Crash": only the checkpoint outlives the stopped run.
            let checkpoint = checkpoint_after(&spec, stop_after, key);
            let (out, first) = run_from(&spec, checkpoint);
            assert_eq!(first, stop_after, "resumed at the checkpoint");
            assert_eq!(out.values.len(), uninterrupted.values.len());
            for (a, b) in out.values.iter().zip(uninterrupted.values.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "resume after chunk {stop_after}");
            }
        }
    }

    /// A checkpoint that does not belong to the run is never resumed: the
    /// run starts again from chunk 0, and ends in the same output.
    #[test]
    fn stream_resume_rejects_mismatched_checkpoints() {
        let spec = stream_spec();
        let key = spec.job_key();
        let uninterrupted = spec.run(&mut EngineWorkspace::new()).unwrap();
        let good = checkpoint_after(&spec, 1, key);
        assert_eq!(run_from(&spec, good.clone()), (uninterrupted.clone(), 1));

        let reruns = |spec: &JobSpec, checkpoint: JobOutput| {
            let (out, first) = run_from(spec, checkpoint);
            assert_eq!(out, spec.run(&mut EngineWorkspace::new()).unwrap());
            first == 0
        };
        // A checkpoint for a different job never resumes this one.
        assert!(reruns(&spec, checkpoint_after(&spec, 1, key ^ 1)));
        // A different chunking rejects the same checkpoint (its own key
        // differs, so the embedded key check fires).
        assert!(reruns(&stream_spec_with(900, 64, 256), good.clone()));
        // Corrupt metrics and truncated payloads are rejected, not
        // misread.
        let mut wrong_version = good.clone();
        wrong_version.metrics[0].1 = (CHECKPOINT_VERSION + 1) as f64;
        assert!(reruns(&spec, wrong_version));
        let mut truncated = good.clone();
        truncated.values.pop();
        assert!(reruns(&spec, truncated));
        let mut zero_done = good;
        zero_done.metrics[3].1 = 0.0;
        assert!(reruns(&spec, zero_done));
    }
}
