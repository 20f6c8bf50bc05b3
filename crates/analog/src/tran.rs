//! Transient analysis: fixed-step backward Euler with per-step Newton.
//!
//! Backward Euler is chosen over trapezoidal on purpose: switched circuits
//! produce discontinuities at every clock edge and BE's strong damping
//! avoids the trapezoidal ringing artifact. Steps are fixed-size; the caller
//! picks a step small enough to resolve the clock phases (the helpers on
//! [`TranResult`] read out values at phase midpoints, which is how a
//! switched-current output is "sampled").

use crate::device::switch::TwoPhaseClock;
use crate::engine::{EngineWorkspace, NewtonSettings, StampSpec};
use crate::mna::{CapStep, Solution};
use crate::netlist::{Circuit, NodeId};
use crate::units::{Amps, Seconds};
use crate::AnalogError;

/// Transient-analysis configuration.
#[derive(Debug, Clone)]
pub struct TranParams {
    /// Total simulated time.
    pub t_stop: Seconds,
    /// Fixed time step.
    pub dt: Seconds,
    /// The two-phase clock driving the switches, if any.
    pub clock: Option<TwoPhaseClock>,
    /// Newton iteration budget per step.
    pub max_iterations: usize,
    /// Newton convergence tolerance on node voltages, in volts.
    pub vtol: f64,
    /// gmin added during every step.
    pub gmin: f64,
}

impl TranParams {
    /// Typical settings for a run of length `t_stop` with step `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] if the step or stop time is
    /// not positive, or `dt > t_stop`.
    pub fn new(t_stop: Seconds, dt: Seconds) -> Result<Self, AnalogError> {
        if !(dt.0 > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "dt",
                constraint: "time step must be positive",
            });
        }
        if !(t_stop.0 > 0.0) || t_stop.0 < dt.0 {
            return Err(AnalogError::InvalidParameter {
                name: "t_stop",
                constraint: "stop time must be positive and at least one step",
            });
        }
        Ok(TranParams {
            t_stop,
            dt,
            clock: None,
            max_iterations: 50,
            vtol: 1e-6,
            gmin: 1e-12,
        })
    }

    /// Attaches a switch clock, returning `self` for chaining.
    #[must_use]
    pub fn with_clock(mut self, clock: TwoPhaseClock) -> Self {
        self.clock = Some(clock);
        self
    }
}

/// The recorded waveforms of a transient run.
///
/// Storage is one flat row-major buffer per quantity (`step` rows of
/// `node_count` / `branch_count` values), so whole time points can be
/// borrowed as slices ([`TranResult::voltage_slice`]) without per-step
/// allocations.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    n_nodes: usize,
    n_branches: usize,
    /// `node_voltages[step * n_nodes + node_index]`.
    node_voltages: Vec<f64>,
    /// `branch_currents[step * n_branches + branch]`.
    branch_currents: Vec<f64>,
    clock: Option<TwoPhaseClock>,
}

impl TranResult {
    /// The time axis in seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of accepted time points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the run produced no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// All node voltages at one recorded step (index 0 = ground), borrowed.
    ///
    /// # Panics
    ///
    /// Panics if `step >= self.len()`.
    #[must_use]
    pub fn voltage_slice(&self, step: usize) -> &[f64] {
        &self.node_voltages[step * self.n_nodes..(step + 1) * self.n_nodes]
    }

    /// All branch currents at one recorded step, borrowed.
    ///
    /// # Panics
    ///
    /// Panics if `step >= self.len()`.
    #[must_use]
    pub fn current_slice(&self, step: usize) -> &[f64] {
        &self.branch_currents[step * self.n_branches..(step + 1) * self.n_branches]
    }

    /// Iterates one node's voltage over every recorded step, borrowing the
    /// result (no waveform allocation).
    pub(crate) fn voltage_iter(&self, node: NodeId) -> impl Iterator<Item = f64> + '_ {
        let (n, idx) = (self.n_nodes, node.index());
        (0..self.len()).map(move |s| self.node_voltages[s * n + idx])
    }

    /// The waveform of one node's voltage, as an owned vector.
    #[must_use]
    pub fn voltage_waveform(&self, node: NodeId) -> Vec<f64> {
        self.voltage_iter(node).collect()
    }

    /// The index of the recorded point nearest to time `t`.
    #[must_use]
    pub(crate) fn index_at(&self, t: Seconds) -> usize {
        match self.times.binary_search_by(|probe| probe.total_cmp(&t.0)) {
            Ok(i) => i,
            Err(i) => {
                if i == 0 {
                    0
                } else if i >= self.times.len() {
                    self.times.len() - 1
                } else if (self.times[i] - t.0).abs() < (self.times[i - 1] - t.0).abs() {
                    i
                } else {
                    i - 1
                }
            }
        }
    }

    /// The branch current nearest to time `t`.
    #[must_use]
    pub(crate) fn current_at(&self, branch: usize, t: Seconds) -> Amps {
        Amps(self.current_slice(self.index_at(t))[branch])
    }

    /// Samples a branch current at the midpoint of every φ2 interval — how
    /// a switched-current output held on φ2 is read. Returns one sample per
    /// complete clock period in the run.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] if the run had no clock.
    pub fn sample_phi2_currents(&self, branch: usize) -> Result<Vec<Amps>, AnalogError> {
        let clock = self.clock.as_ref().ok_or(AnalogError::InvalidParameter {
            name: "clock",
            constraint: "run was not clocked",
        })?;
        let t_end = *self.times.last().unwrap_or(&0.0);
        let periods = (t_end / clock.period().0).floor() as usize;
        Ok((0..periods)
            .map(|n| self.current_at(branch, clock.phi2_midpoint(n)))
            .collect())
    }
}

/// Runs a transient analysis.
///
/// The initial condition is the DC operating point with the clock state
/// taken at `t = 0`.
///
/// # Errors
///
/// Propagates DC-solve errors for the initial point and Newton failures at
/// any step (with the failing time reported through
/// [`AnalogError::NoConvergence`]).
pub fn run(circuit: &Circuit, params: &TranParams) -> Result<TranResult, AnalogError> {
    let mut ws = EngineWorkspace::for_circuit(circuit);
    run_with(circuit, params, &mut ws)
}

/// Runs a transient analysis (DC initial condition included), reusing the
/// caller's workspace buffers across the DC solve and every time step.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_with(
    circuit: &Circuit,
    params: &TranParams,
    ws: &mut EngineWorkspace,
) -> Result<TranResult, AnalogError> {
    let op = initial_condition(circuit, params, ws)?;
    run_from_with(circuit, params, op, ws)
}

/// The DC operating point a transient run starts from, with the switches
/// in their `t = 0` clock state. This is the `initial` solution
/// [`run_with`] feeds to [`run_from_with`] — exposed so a chunked runner
/// can compute it once and then advance via [`run_chunk_with`].
///
/// # Errors
///
/// Propagates DC-solve errors.
pub fn initial_condition(
    circuit: &Circuit,
    params: &TranParams,
    ws: &mut EngineWorkspace,
) -> Result<Solution, AnalogError> {
    let (phi1_0, phi2_0) = match &params.clock {
        Some(clk) => (
            clk.is_high(crate::device::ClockPhase::Phi1, Seconds(0.0)),
            clk.is_high(crate::device::ClockPhase::Phi2, Seconds(0.0)),
        ),
        None => (true, false),
    };
    crate::dc::DcSolver::new()
        .with_phases(phi1_0, phi2_0)
        .solve_with(circuit, ws)
}

/// Runs a transient analysis from a supplied initial solution (e.g. the
/// final state of a previous segment).
///
/// # Errors
///
/// Propagates Newton failures at any step.
pub fn run_from(
    circuit: &Circuit,
    params: &TranParams,
    initial: Solution,
) -> Result<TranResult, AnalogError> {
    let mut ws = EngineWorkspace::for_circuit(circuit);
    run_from_with(circuit, params, initial, &mut ws)
}

/// Runs a transient analysis from a supplied initial solution, reusing the
/// caller's workspace buffers: the whole run as a single
/// [`run_chunk_with`] chunk from step 0. Once the result vectors reach
/// their final capacity (reserved up front), the per-step loop performs
/// no heap allocation: assembly, factorization, and back-substitution all
/// happen in place inside `ws`.
///
/// # Errors
///
/// Same as [`run_from`].
pub fn run_from_with(
    circuit: &Circuit,
    params: &TranParams,
    initial: Solution,
    ws: &mut EngineWorkspace,
) -> Result<TranResult, AnalogError> {
    let steps = (params.t_stop.0 / params.dt.0).round() as usize;
    run_chunk_with(circuit, params, 0, steps, &initial, ws).map(|(result, _)| result)
}

/// Runs one chunk of a transient analysis: the `chunk_steps` steps after
/// absolute step `start_step`, starting from `initial` (the state at
/// `start_step`). Returns the chunk's waveforms plus the end-of-chunk
/// state to feed into the next chunk.
///
/// Each step's time is computed from its absolute index
/// (`t = step · dt`, never accumulated chunk offsets), and the Newton
/// warm start is exactly the previous step's voltages, so a run split
/// into chunks — including one resumed from a checkpointed `initial` —
/// is bit-identical to an uninterrupted [`run_from_with`] over the same
/// steps. The `t = 0` initial point is recorded only when
/// `start_step == 0`, which is the one-shot [`run_from_with`] layout.
///
/// # Errors
///
/// Returns [`AnalogError::InvalidParameter`] for `chunk_steps == 0` and
/// propagates Newton failures at any step.
pub fn run_chunk_with(
    circuit: &Circuit,
    params: &TranParams,
    start_step: usize,
    chunk_steps: usize,
    initial: &Solution,
    ws: &mut EngineWorkspace,
) -> Result<(TranResult, Solution), AnalogError> {
    if chunk_steps == 0 {
        return Err(AnalogError::InvalidParameter {
            name: "chunk_steps",
            constraint: "a chunk must advance at least one step",
        });
    }
    let n_nodes = circuit.node_count();
    let n_branches = circuit.branch_count();
    let record_initial = start_step == 0;
    let points = chunk_steps + usize::from(record_initial);

    let mut times = Vec::with_capacity(points);
    let mut node_voltages = Vec::with_capacity(points * n_nodes);
    let mut branch_currents = Vec::with_capacity(points * n_branches);

    let mut prev = initial.node_voltages();
    if record_initial {
        times.push(0.0);
        node_voltages.extend_from_slice(&prev);
        branch_currents.extend((0..n_branches).map(|k| initial.branch_current(k).0));
    }

    let settings = NewtonSettings {
        max_iterations: params.max_iterations,
        vtol: params.vtol,
        max_step: 0.5,
    };

    for step in start_step + 1..=start_step + chunk_steps {
        let t = step as f64 * params.dt.0;
        let spec = StampSpec {
            time: Some(Seconds(t)),
            clock: params.clock.as_ref(),
            phi1_high: false,
            phi2_high: false,
            cap_step: Some(CapStep {
                h: params.dt.0,
                prev_voltages: &prev,
            }),
        };
        ws.newton(circuit, &spec, &settings, params.gmin, &prev)?;
        times.push(t);
        node_voltages.extend_from_slice(ws.node_voltages());
        branch_currents.extend_from_slice(ws.branch_currents());
        prev.clear();
        prev.extend_from_slice(ws.node_voltages());
    }

    // Reassemble the raw MNA vector (non-ground voltages, then branch
    // currents) so the caller can checkpoint it or chain the next chunk.
    let mut x = ws.node_voltages()[1..].to_vec();
    x.extend_from_slice(ws.branch_currents());
    let final_state = Solution::new(x, n_nodes);

    Ok((
        TranResult {
            times,
            n_nodes,
            n_branches,
            node_voltages,
            branch_currents,
            clock: params.clock,
        },
        final_state,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::switch::{ClockPhase, Switch};
    use crate::device::Waveform;
    use crate::units::{Farads, Ohms, Volts};

    /// The node voltage at the recorded point nearest to time `t`.
    fn voltage_at(result: &TranResult, node: NodeId, t: Seconds) -> f64 {
        result.voltage_slice(result.index_at(t))[node.index()]
    }

    #[test]
    fn params_validate() {
        assert!(TranParams::new(Seconds(1.0), Seconds(0.0)).is_err());
        assert!(TranParams::new(Seconds(0.0), Seconds(1e-3)).is_err());
        assert!(TranParams::new(Seconds(1e-4), Seconds(1e-3)).is_err());
        assert!(TranParams::new(Seconds(1.0), Seconds(1e-3)).is_ok());
    }

    #[test]
    fn rc_charging_matches_analytic_solution() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        // Step from 0 to 1 V at t=0 through 1 kΩ into 1 µF: τ = 1 ms.
        c.voltage_source_wave(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]),
        )
        .unwrap();
        c.resistor("R1", a, b, Ohms(1e3)).unwrap();
        c.capacitor("C1", b, Circuit::GROUND, Farads(1e-6)).unwrap();
        let params = TranParams::new(Seconds(5e-3), Seconds(1e-6)).unwrap();
        let result = run(&c, &params).unwrap();
        for &t in &[0.5e-3, 1e-3, 3e-3] {
            let v = voltage_at(&result, b, Seconds(t));
            let expected = 1.0 - (-t / 1e-3f64).exp();
            assert!(
                (v - expected).abs() < 5e-3,
                "at {t}: {v} vs analytic {expected}"
            );
        }
    }

    #[test]
    fn sine_source_propagates() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source_wave(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency: 1e3,
                phase: 0.0,
            },
        )
        .unwrap();
        c.resistor("R1", a, Circuit::GROUND, Ohms(1e3)).unwrap();
        let params = TranParams::new(Seconds(1e-3), Seconds(1e-6)).unwrap();
        let result = run(&c, &params).unwrap();
        let v = voltage_at(&result, a, Seconds(0.25e-3));
        assert!((v - 1.0).abs() < 1e-3, "peak {v}");
    }

    #[test]
    fn switched_capacitor_samples_and_holds() {
        // A capacitor charged through a φ1 switch from a source, read out
        // during φ2: classic sample-and-hold.
        let mut c = Circuit::new();
        let src = c.node("src");
        let cap = c.node("cap");
        c.voltage_source("Vs", src, Circuit::GROUND, Volts(2.0))
            .unwrap();
        c.switch(
            "S1",
            src,
            cap,
            Switch {
                ron: Ohms(100.0),
                roff: Ohms(1e12),
                phase: ClockPhase::Phi1,
            },
        )
        .unwrap();
        c.capacitor("Ch", cap, Circuit::GROUND, Farads(1e-12))
            .unwrap();
        let clock = TwoPhaseClock::new(Seconds(1e-6), 0.05).unwrap();
        let params = TranParams::new(Seconds(3e-6), Seconds(2e-9))
            .unwrap()
            .with_clock(clock);
        let result = run(&c, &params).unwrap();
        // By mid-φ2 of period 0 the hold node should carry the sample.
        let held = voltage_at(&result, cap, clock.phi2_midpoint(0));
        assert!((held - 2.0).abs() < 1e-3, "held {held}");
        // And it stays held across the next period boundary's dead time.
        let held2 = voltage_at(&result, cap, clock.phi2_midpoint(1));
        assert!((held2 - 2.0).abs() < 1e-3);
    }

    #[test]
    fn phi2_sampling_helper() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source("V1", a, Circuit::GROUND, Volts(1.0))
            .unwrap();
        c.resistor("R1", a, Circuit::GROUND, Ohms(1e3)).unwrap();
        let clock = TwoPhaseClock::new(Seconds(1e-6), 0.05).unwrap();
        let params = TranParams::new(Seconds(4e-6), Seconds(1e-8))
            .unwrap()
            .with_clock(clock);
        let result = run(&c, &params).unwrap();
        let samples = result.sample_phi2_currents(0).unwrap();
        assert_eq!(samples.len(), 4);
        for s in samples {
            assert!((s.0 + 1e-3).abs() < 1e-9, "sample {}", s.0);
        }
    }

    #[test]
    fn unclocked_run_rejects_phase_sampling() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source("V1", a, Circuit::GROUND, Volts(1.0))
            .unwrap();
        c.resistor("R1", a, Circuit::GROUND, Ohms(1e3)).unwrap();
        let params = TranParams::new(Seconds(1e-6), Seconds(1e-8)).unwrap();
        let result = run(&c, &params).unwrap();
        assert!(result.sample_phi2_currents(0).is_err());
    }

    #[test]
    fn chunked_run_is_bit_identical_to_uninterrupted() {
        // Same switched sample-and-hold as above: clocked, nonlinear-free
        // but switch-discontinuous — a good stand-in for streaming work.
        let mut c = Circuit::new();
        let src = c.node("src");
        let cap = c.node("cap");
        c.voltage_source("Vs", src, Circuit::GROUND, Volts(2.0))
            .unwrap();
        c.switch(
            "S1",
            src,
            cap,
            Switch {
                ron: Ohms(100.0),
                roff: Ohms(1e12),
                phase: ClockPhase::Phi1,
            },
        )
        .unwrap();
        c.capacitor("Ch", cap, Circuit::GROUND, Farads(1e-12))
            .unwrap();
        let clock = TwoPhaseClock::new(Seconds(1e-6), 0.05).unwrap();
        let params = TranParams::new(Seconds(3e-6), Seconds(2e-9))
            .unwrap()
            .with_clock(clock);
        let whole = run(&c, &params).unwrap();
        let steps = whole.len() - 1;

        // Re-run in uneven chunks, threading the end-of-chunk state.
        let mut ws = EngineWorkspace::for_circuit(&c);
        let mut state = initial_condition(&c, &params, &mut ws).unwrap();
        let mut times = Vec::new();
        let mut waveform = Vec::new();
        let mut done = 0;
        for chunk in [7usize, 100, 1, 392, steps] {
            let chunk = chunk.min(steps - done);
            if chunk == 0 {
                break;
            }
            let (part, next) = run_chunk_with(&c, &params, done, chunk, &state, &mut ws).unwrap();
            times.extend_from_slice(part.times());
            waveform.extend(part.voltage_iter(cap));
            state = next;
            done += chunk;
        }
        assert_eq!(done, steps);
        assert_eq!(times, whole.times());
        assert_eq!(waveform, whole.voltage_waveform(cap));

        // And resuming from a mid-run checkpointed state (raw vector
        // round-trip) continues bit-for-bit.
        let mut ws2 = EngineWorkspace::for_circuit(&c);
        let start = initial_condition(&c, &params, &mut ws2).unwrap();
        let (_, mid) = run_chunk_with(&c, &params, 0, 500, &start, &mut ws2).unwrap();
        let restored = Solution::new(mid.raw().to_vec(), c.node_count());
        let mut ws3 = EngineWorkspace::for_circuit(&c);
        let (rest, _) = run_chunk_with(&c, &params, 500, steps - 500, &restored, &mut ws3).unwrap();
        let resumed_tail = rest.voltage_waveform(cap);
        assert_eq!(resumed_tail.as_slice(), &waveform[501..]);
    }

    #[test]
    fn index_at_clamps_to_range() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source("V1", a, Circuit::GROUND, Volts(1.0))
            .unwrap();
        c.resistor("R1", a, Circuit::GROUND, Ohms(1e3)).unwrap();
        let params = TranParams::new(Seconds(1e-6), Seconds(1e-7)).unwrap();
        let result = run(&c, &params).unwrap();
        assert_eq!(result.index_at(Seconds(-1.0)), 0);
        assert_eq!(result.index_at(Seconds(99.0)), result.len() - 1);
    }
}
