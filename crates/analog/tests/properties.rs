//! Property-based tests of the circuit-simulation substrate.

use proptest::prelude::*;

use si_analog::device::{MosParams, Waveform};
use si_analog::linalg::Matrix;
use si_analog::parse::{parse_netlist, parse_value};
use si_analog::units::{Seconds, Volts};

proptest! {
    /// LU solve: A·x = b within tolerance for any diagonally dominant
    /// system (the class MNA matrices with gmin belong to).
    #[test]
    fn lu_solves_diagonally_dominant_systems(
        entries in prop::collection::vec(-1.0f64..1.0, 36),
        rhs in prop::collection::vec(-10.0f64..10.0, 6),
    ) {
        let n = 6;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = entries[i * n + j];
            }
            a[(i, i)] += 4.0;
        }
        let x = a.solve(&rhs).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&rhs) {
            prop_assert!((ri - bi).abs() < 1e-9);
        }
    }

    /// The MOS model's drain current is continuous in vgs and vds: small
    /// input changes cause proportionally small current changes (no jumps
    /// across region boundaries).
    #[test]
    fn mos_current_is_continuous(
        vgs in 0.0f64..3.3,
        vds in -3.3f64..3.3,
        vbs in -1.0f64..0.0,
    ) {
        let m = MosParams::nmos_08um(20.0, 2.0);
        let h = 1e-7;
        let i0 = m.evaluate(Volts(vgs), Volts(vds), Volts(vbs)).id.0;
        let i1 = m.evaluate(Volts(vgs + h), Volts(vds), Volts(vbs)).id.0;
        let i2 = m.evaluate(Volts(vgs), Volts(vds + h), Volts(vbs)).id.0;
        // β·V bounds the derivative scale for this geometry; the factor
        // covers the worst-case swapped-terminal composite derivative
        // (gm + gds + gmb). A true region-boundary discontinuity would be
        // µA-class, far above this bound.
        let bound = m.beta() * 100.0 * h;
        prop_assert!((i1 - i0).abs() <= bound, "jump in vgs: {} A", (i1 - i0).abs());
        prop_assert!((i2 - i0).abs() <= bound, "jump in vds: {} A", (i2 - i0).abs());
    }

    /// Drain/source symmetry: swapping the terminals negates the current
    /// for any bias (with body tied to the original source).
    #[test]
    fn mos_is_drain_source_symmetric(
        vg in 0.0f64..3.3,
        vd in 0.0f64..3.3,
        vs in 0.0f64..3.3,
    ) {
        let m = MosParams::nmos_08um(10.0, 1.0);
        let vb = 0.0;
        let fwd = m.evaluate(Volts(vg - vs), Volts(vd - vs), Volts(vb - vs)).id.0;
        let rev = m.evaluate(Volts(vg - vd), Volts(vs - vd), Volts(vb - vd)).id.0;
        prop_assert!(
            (fwd + rev).abs() < 1e-9 * (1.0 + fwd.abs()),
            "fwd {fwd} rev {rev}"
        );
    }

    /// Saturation current never decreases with vgs (monotonicity).
    #[test]
    fn mos_current_monotone_in_vgs(v1 in 0.0f64..3.0, v2 in 0.0f64..3.0) {
        let m = MosParams::nmos_08um(20.0, 2.0);
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        let i_lo = m.evaluate(Volts(lo), Volts(3.3), Volts(0.0)).id.0;
        let i_hi = m.evaluate(Volts(hi), Volts(3.3), Volts(0.0)).id.0;
        prop_assert!(i_hi >= i_lo - 1e-15);
    }

    /// PWL waveforms stay inside the convex hull of their points.
    #[test]
    fn pwl_is_bounded_by_its_points(
        points in prop::collection::vec((0.0f64..1e-3, -5.0f64..5.0), 2..8),
        t in -1e-3f64..2e-3,
    ) {
        let mut pts = points;
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let w = Waveform::Pwl(pts);
        let v = w.value_at(Seconds(t));
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "{v} outside [{lo}, {hi}]");
    }

    /// Sine waveforms are bounded by offset ± amplitude.
    #[test]
    fn sine_is_bounded(offset in -5.0f64..5.0, amplitude in 0.0f64..5.0, t in 0.0f64..1.0) {
        let w = Waveform::Sine { offset, amplitude, frequency: 997.0, phase: 0.3 };
        let v = w.value_at(Seconds(t));
        prop_assert!(v >= offset - amplitude - 1e-12);
        prop_assert!(v <= offset + amplitude + 1e-12);
    }

    /// Engineering-suffix parsing round-trips: formatting a value with a
    /// suffix and re-parsing recovers it.
    #[test]
    fn parse_value_round_trips(mantissa in 0.001f64..999.0, suffix_idx in 0usize..8) {
        let (suffix, mult) = [
            ("f", 1e-15), ("p", 1e-12), ("n", 1e-9), ("u", 1e-6),
            ("m", 1e-3), ("k", 1e3), ("meg", 1e6), ("g", 1e9),
        ][suffix_idx];
        let text = format!("{mantissa}{suffix}");
        let parsed = parse_value(&text).expect("valid suffix");
        let expected = mantissa * mult;
        prop_assert!((parsed - expected).abs() / expected < 1e-12,
            "{text} → {parsed} vs {expected}");
    }

    /// A generated ladder of resistors always parses and solves, and the
    /// tap voltages are monotone down the ladder.
    #[test]
    fn generated_resistor_ladders_solve(stages in 1usize..8, r_k in 1.0f64..100.0) {
        use si_analog::dc::DcSolver;
        let mut text = String::from("V1 n0 0 3.3\n");
        for k in 0..stages {
            text.push_str(&format!("R{k} n{k} n{} {r_k}k\n", k + 1));
        }
        text.push_str(&format!("Rend n{stages} 0 {r_k}k\n"));
        let ckt = parse_netlist(&text).unwrap();
        let op = DcSolver::new().solve(&ckt).unwrap();
        let mut c2 = ckt.clone();
        let mut last = 3.3f64;
        for k in 1..=stages {
            let v = op.voltage(c2.node(&format!("n{k}"))).0;
            prop_assert!(v < last + 1e-9 && v > 0.0, "tap {k}: {v} after {last}");
            last = v;
        }
    }

    /// Reusing one `EngineWorkspace` across a run of randomized circuits
    /// of varying sizes never leaks state: each solve matches a fresh
    /// solve of the same circuit bit for bit, regardless of what the
    /// workspace held before.
    #[test]
    fn workspace_reuse_never_leaks_stale_state(
        specs in prop::collection::vec((1usize..8, 1.0f64..100.0, -3.0f64..3.0), 2..6),
        // µA-scale injections keep node voltages within the damped
        // Newton's reach (max_step × max_iterations) for any r_k drawn.
    ) {
        use si_analog::dc::DcSolver;
        use si_analog::engine::EngineWorkspace;

        let mut ws = EngineWorkspace::new();
        let solver = DcSolver::new();
        for (stages, r_k, i_ua) in specs {
            let mut text = String::from("V1 n0 0 3.3\n");
            for k in 0..stages {
                text.push_str(&format!("R{k} n{k} n{} {r_k}k\n", k + 1));
            }
            text.push_str(&format!("Rend n{stages} 0 {r_k}k\n"));
            // A current injection halfway down makes the answer depend on
            // every generated parameter, not just the divider ratio.
            text.push_str(&format!("I1 0 n{} {i_ua}u\n", stages / 2 + 1));
            let ckt = parse_netlist(&text).unwrap();

            let fresh = solver.solve(&ckt).unwrap();
            let reused = solver.solve_with(&ckt, &mut ws).unwrap();
            prop_assert_eq!(fresh.raw(), reused.raw());
        }
    }
}

/// A randomized resistor ladder with a mid-ladder current injection — the
/// same family `workspace_reuse_never_leaks_stale_state` uses, shared by
/// the telemetry properties below.
fn ladder_netlist(stages: usize, r_k: f64, i_ua: f64) -> String {
    let mut text = String::from("V1 n0 0 3.3\n");
    for k in 0..stages {
        text.push_str(&format!("R{k} n{k} n{} {r_k}k\n", k + 1));
    }
    text.push_str(&format!("Rend n{stages} 0 {r_k}k\n"));
    text.push_str(&format!("I1 0 n{} {i_ua}u\n", stages / 2 + 1));
    text
}

/// A randomized but structurally valid [`EngineStats`] sample built from a
/// handful of drawn counters.
fn stats_sample(draw: (u64, u64, u64, u64, u32)) -> si_analog::telemetry::EngineStats {
    let (solves, iters, factor, gmin_steps, gmin_exp) = draw;
    si_analog::telemetry::EngineStats {
        solves,
        dc_solves: solves / 2,
        transient_steps: solves - solves / 2,
        newton_iterations: iters,
        max_newton_iterations: iters.min(40),
        factorizations: factor,
        refactorizations: iters.saturating_sub(factor),
        back_substitutions: iters,
        complex_factorizations: factor % 5,
        complex_back_substitutions: factor % 7,
        gmin_steps,
        min_gmin: if gmin_steps == 0 {
            f64::INFINITY
        } else {
            10f64.powi(-(gmin_exp as i32 % 12))
        },
        non_finite_rejections: iters % 3,
        convergence_failures: solves % 4,
        dense_real_factorizations: factor / 2,
        dense_complex_factorizations: factor % 5,
        sparse_real_factorizations: factor - factor / 2,
        sparse_real_refactorizations: iters.saturating_sub(factor),
        sparse_complex_factorizations: gmin_steps % 3,
        sparse_complex_refactorizations: gmin_steps % 5,
        symbolic_cache_hits: iters.saturating_sub(factor),
        symbolic_cache_misses: factor.min(7),
        max_matrix_nonzeros: (11 * iters) % 97,
        max_factor_nonzeros: (13 * iters) % 131,
        batch_runs: solves % 3,
        batch_scenarios: (7 * solves) % 41,
        warm_starts: iters % 11,
        warm_start_rejected: iters % 4,
        workspace_resets: solves % 2,
        solve_time: std::time::Duration::from_nanos(13 * iters),
    }
}

proptest! {
    /// Telemetry merging is associative and order-independent: folding a
    /// set of per-worker collectors left-to-right, in rotated order, and
    /// pairwise-tree-reduced all produce identical totals — the invariant
    /// that makes stats merged across workers or workspaces independent of
    /// scheduling.
    #[test]
    fn telemetry_merge_is_associative_and_order_independent(
        draws in prop::collection::vec(
            (0u64..50, 0u64..200, 0u64..200, 0u64..12, 0u32..12),
            1..10,
        ),
        rot in 0usize..16,
    ) {
        use si_analog::telemetry::EngineStats;

        let parts: Vec<EngineStats> = draws.into_iter().map(stats_sample).collect();

        // Left-to-right fold: the serial reference.
        let mut serial = EngineStats::default();
        for p in &parts {
            serial.merge(p);
        }

        // Any rotation of the fold order (a worker finishing early).
        let mut rotated = EngineStats::default();
        let n = parts.len();
        for k in 0..n {
            rotated.merge(&parts[(k + rot) % n]);
        }
        prop_assert_eq!(&rotated, &serial);

        // Pairwise tree reduction (a different parenthesization entirely).
        let mut layer = parts;
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut it = layer.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    a.merge(&b);
                }
                next.push(a);
            }
            layer = next;
        }
        prop_assert_eq!(&layer[0], &serial);
    }

    /// Installing a probe never changes a solved node voltage: the stats
    /// path only observes. Solves with and without telemetry enabled are
    /// bit-for-bit identical for any generated circuit.
    #[test]
    fn probe_never_changes_solved_voltages(
        stages in 1usize..8,
        r_k in 1.0f64..100.0,
        i_ua in -3.0f64..3.0,
    ) {
        use si_analog::dc::DcSolver;
        use si_analog::engine::EngineWorkspace;

        let ckt = parse_netlist(&ladder_netlist(stages, r_k, i_ua)).unwrap();
        let solver = DcSolver::new();

        let bare = solver.solve(&ckt).unwrap();

        let mut ws = EngineWorkspace::for_circuit(&ckt);
        ws.enable_stats();
        let probed = solver.solve_with(&ckt, &mut ws).unwrap();
        prop_assert_eq!(bare.raw(), probed.raw());

        // The collector really did watch the solve it didn't perturb.
        let stats = ws.take_stats().unwrap();
        prop_assert!(stats.solves >= 1);
        prop_assert_eq!(stats.convergence_failures, 0);
        prop_assert_eq!(
            stats.back_substitutions, stats.newton_iterations,
            "one back-substitution per Newton iteration on the DC path"
        );
    }

    /// The sparse structure-caching backend and the dense backend agree to
    /// solver tolerance on any generated ladder large enough to clear the
    /// auto cutover, and the sparse run truly never factors densely.
    #[test]
    fn sparse_and_dense_backends_agree_on_randomized_ladders(
        stages in 33usize..80,
        r_k in 1.0f64..100.0,
        i_ua in -3.0f64..3.0,
    ) {
        use si_analog::dc::DcSolver;
        use si_analog::engine::EngineWorkspace;
        use si_analog::solver::BackendMode;

        let ckt = parse_netlist(&ladder_netlist(stages, r_k, i_ua)).unwrap();
        let solver = DcSolver::new();

        let mut dense_ws = EngineWorkspace::for_circuit(&ckt);
        dense_ws.set_backend_policy(BackendMode::ForceDense);
        let dense = solver.solve_with(&ckt, &mut dense_ws).unwrap();

        let mut sparse_ws = EngineWorkspace::for_circuit(&ckt);
        sparse_ws.set_backend_policy(BackendMode::ForceSparse);
        sparse_ws.enable_stats();
        let sparse = solver.solve_with(&ckt, &mut sparse_ws).unwrap();

        for (u, v) in dense.raw().iter().zip(sparse.raw()) {
            prop_assert!(
                (u - v).abs() <= 1e-6 * u.abs().max(1.0),
                "dense {u} vs sparse {v}"
            );
        }
        let stats = sparse_ws.take_stats().unwrap();
        prop_assert_eq!(stats.dense_real_factorizations, 0);
        prop_assert!(stats.sparse_real_factorizations >= 1);
        prop_assert_eq!(
            stats.sparse_real_factorizations + stats.sparse_real_refactorizations,
            stats.newton_iterations
        );
        prop_assert_eq!(
            stats.symbolic_cache_misses, 1,
            "one topology, one symbolic analysis"
        );
    }

    /// Telemetry is inert on the sparse backend too: a ForceSparse solve
    /// with a probe installed is bit-identical to one without.
    #[test]
    fn probe_is_inert_on_the_sparse_backend(
        stages in 33usize..64,
        r_k in 1.0f64..100.0,
        i_ua in -3.0f64..3.0,
    ) {
        use si_analog::dc::DcSolver;
        use si_analog::engine::EngineWorkspace;
        use si_analog::solver::BackendMode;

        let ckt = parse_netlist(&ladder_netlist(stages, r_k, i_ua)).unwrap();
        let solver = DcSolver::new();
        let policy = BackendMode::ForceSparse;

        let mut bare_ws = EngineWorkspace::for_circuit(&ckt);
        bare_ws.set_backend_policy(policy);
        let bare = solver.solve_with(&ckt, &mut bare_ws).unwrap();

        let mut probed_ws = EngineWorkspace::for_circuit(&ckt);
        probed_ws.set_backend_policy(policy);
        probed_ws.enable_stats();
        let probed = solver.solve_with(&ckt, &mut probed_ws).unwrap();

        prop_assert_eq!(bare.raw(), probed.raw());
        let stats = probed_ws.take_stats().unwrap();
        prop_assert!(stats.sparse_real_factorizations >= 1);
    }
}

proptest! {
    /// Content-addressing contract: changing any single element *value*
    /// changes the value fingerprint while leaving the structure
    /// fingerprint untouched — so caches keyed on (structure, values)
    /// distinguish every retuning but share symbolic work across them.
    #[test]
    fn value_fingerprint_separates_values_from_structure(
        r1_k in 0.1f64..100.0,
        r2_k in 0.1f64..100.0,
        i_ma in 0.01f64..10.0,
    ) {
        use si_analog::netlist::Circuit;
        use si_analog::units::{Amps, Ohms};

        let build = |r_k: f64, i_ma: f64| {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            c.resistor("R1", a, b, Ohms(r_k * 1e3)).unwrap();
            c.resistor("R2", b, Circuit::GROUND, Ohms(1e3)).unwrap();
            c.current_source("I1", Circuit::GROUND, a, Amps(i_ma * 1e-3)).unwrap();
            c
        };

        let base = build(r1_k, i_ma);
        // Deterministic: a fresh identical build hashes identically.
        prop_assert_eq!(base.value_fingerprint(), build(r1_k, i_ma).value_fingerprint());
        prop_assert_eq!(base.structure_fingerprint(), build(r1_k, i_ma).structure_fingerprint());

        // One element value differs → distinct value fingerprint, same
        // structure fingerprint.
        prop_assume!(r1_k.to_bits() != r2_k.to_bits());
        let other = build(r2_k, i_ma);
        prop_assert_ne!(base.value_fingerprint(), other.value_fingerprint());
        prop_assert_eq!(base.structure_fingerprint(), other.structure_fingerprint());
    }

    /// Retuning a source in place is invisible to the structure key: the
    /// workspace keyed on structure stays warm while the value key moves
    /// with every distinct drive level.
    #[test]
    fn retuned_sources_keep_structure_keys_stable(
        i0_ma in 0.01f64..10.0,
        i1_ma in 0.01f64..10.0,
    ) {
        use si_analog::device::Waveform;
        use si_analog::netlist::Circuit;
        use si_analog::units::{Amps, Ohms};

        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GROUND, Ohms(1e3)).unwrap();
        c.current_source("I1", Circuit::GROUND, a, Amps(i0_ma * 1e-3)).unwrap();
        let structure0 = c.structure_fingerprint();
        let values0 = c.value_fingerprint();

        c.update_current_source("I1", Waveform::Dc(i1_ma * 1e-3)).unwrap();
        prop_assert_eq!(c.structure_fingerprint(), structure0);
        if i0_ma.to_bits() == i1_ma.to_bits() {
            prop_assert_eq!(c.value_fingerprint(), values0);
        } else {
            prop_assert_ne!(c.value_fingerprint(), values0);
        }

        // Round-trip back to the original drive restores the value key:
        // the fingerprint is a function of state, not of edit history.
        c.update_current_source("I1", Waveform::Dc(i0_ma * 1e-3)).unwrap();
        prop_assert_eq!(c.structure_fingerprint(), structure0);
        prop_assert_eq!(c.value_fingerprint(), values0);
    }
}

/// A tiny splitmix64 stream for deterministic in-test shuffles and noise,
/// seeded from a drawn u64 so proptest owns the entropy and can shrink it.
struct TextRng(u64);

impl TextRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

proptest! {
    /// Submission-text robustness: comments, blank lines, stray
    /// whitespace, and arbitrary card order are all invisible to the
    /// canonical parse. Two texts describing the same circuit produce
    /// identical structure *and* value fingerprints — the property the
    /// service's content-addressed cache relies on to coalesce
    /// independently formatted user submissions of one design.
    #[test]
    fn canonical_fingerprints_ignore_formatting_and_card_order(
        stages in 1usize..12,
        r_k in 0.1f64..100.0,
        i_ua in -5.0f64..5.0,
        seed in 0u64..u64::MAX,
    ) {
        use si_analog::parse::parse_netlist_canonical;

        let clean = ladder_netlist(stages, r_k, i_ua);
        let mut rng = TextRng(seed);

        // Shuffle the card lines (Fisher–Yates), then interleave noise:
        // full-line comments, inline `; comment` tails, blank lines, and
        // leading/trailing whitespace.
        let mut lines: Vec<String> = clean.lines().map(str::to_string).collect();
        for i in (1..lines.len()).rev() {
            let j = rng.below(i + 1);
            lines.swap(i, j);
        }
        let mut noisy = String::from("* fuzzed formatting variant\n");
        for mut line in lines {
            if rng.below(3) == 0 {
                noisy.push_str("* interleaved comment\n\n");
            }
            if rng.below(3) == 0 {
                line = format!("  {line}\t ");
            }
            if rng.below(3) == 0 {
                line.push_str(" ; inline tail");
            }
            noisy.push_str(&line);
            noisy.push('\n');
        }

        let base = parse_netlist_canonical(&clean).unwrap();
        let mangled = parse_netlist_canonical(&noisy).unwrap();
        prop_assert_eq!(
            base.structure_fingerprint(),
            mangled.structure_fingerprint(),
            "formatting noise changed the structure key"
        );
        prop_assert_eq!(
            base.value_fingerprint(),
            mangled.value_fingerprint(),
            "formatting noise changed the value key"
        );
    }

    /// Emitter round trip: any circuit built through the typed API can be
    /// rendered to dialect text and parsed back into a circuit with the
    /// same fingerprints, the same node ordering, and a bit-identical DC
    /// solution — so a netlist twin of a generator job is literally the
    /// same cache entry.
    #[test]
    fn to_netlist_round_trips_bit_identically(
        stages in 1usize..10,
        r_k in 0.1f64..100.0,
        i_ua in -5.0f64..5.0,
    ) {
        use si_analog::dc::DcSolver;
        use si_analog::parse::to_netlist;

        let built = parse_netlist(&ladder_netlist(stages, r_k, i_ua)).unwrap();
        let text = to_netlist(&built).unwrap();
        let reparsed = parse_netlist(&text).unwrap();

        prop_assert_eq!(built.structure_fingerprint(), reparsed.structure_fingerprint());
        prop_assert_eq!(built.value_fingerprint(), reparsed.value_fingerprint());
        prop_assert_eq!(built.node_count(), reparsed.node_count());

        let solver = DcSolver::new();
        let a = solver.solve(&built).unwrap();
        let b = solver.solve(&reparsed).unwrap();
        prop_assert_eq!(a.raw(), b.raw(), "round-tripped solve is not bit-identical");
    }

    /// The emitter round trip holds for generated SI cells too, not just
    /// hand-written ladders: a delay-line chain from the cell library
    /// survives `to_netlist` → `parse_netlist` with identical fingerprints
    /// and a bit-identical solve from the design's own initial guess.
    #[test]
    fn cell_chain_netlist_twin_is_bit_identical(stages in 1usize..6) {
        use si_analog::cells::si_cell_chain;
        use si_analog::dc::DcSolver;
        use si_analog::parse::to_netlist;

        let line = si_cell_chain(stages).unwrap();
        let text = to_netlist(&line.circuit).unwrap();
        let twin = parse_netlist(&text).unwrap();

        prop_assert_eq!(
            line.circuit.structure_fingerprint(),
            twin.structure_fingerprint()
        );
        prop_assert_eq!(line.circuit.value_fingerprint(), twin.value_fingerprint());

        let solver = DcSolver::new().with_initial_guess(line.initial_guess.clone());
        let a = solver.solve(&line.circuit).unwrap();
        let b = solver.solve(&twin).unwrap();
        prop_assert_eq!(a.raw(), b.raw(), "cell-chain twin solve is not bit-identical");
    }
}

/// A splitmix64 stream: the shim has no recursive strategies, so JSON
/// trees are grown from one drawn seed.
struct TreeGen(u64);

impl TreeGen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn number(&mut self) -> f64 {
        match self.below(4) {
            0 => self.below(2001) as f64 - 1000.0,
            1 => -0.0,
            _ => loop {
                let v = f64::from_bits(self.below(u64::MAX));
                if v.is_finite() {
                    break v;
                }
            },
        }
    }

    fn string(&mut self) -> String {
        const CHARS: [char; 17] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '→', '\u{ffff}', '😀',
        ];
        (0..self.below(8))
            .map(|_| CHARS[self.below(CHARS.len() as u64) as usize])
            .collect()
    }

    /// A tree whose deepest array or object nests exactly `depth` levels.
    fn tree(&mut self, depth: usize) -> si_analog::json::Json {
        use si_analog::json::Json;
        if depth == 0 {
            return match self.below(5) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 1),
                2 | 3 => Json::Number(self.number()),
                _ => Json::String(self.string()),
            };
        }
        let width = 1 + self.below(3) as usize;
        let spine = self.below(width as u64) as usize;
        let mut children = Vec::with_capacity(width);
        for i in 0..width {
            let child_depth = if i == spine {
                depth - 1
            } else {
                (depth - 1).min(self.below(2) as usize)
            };
            children.push(self.tree(child_depth));
        }
        if self.below(2) == 0 {
            Json::Array(children)
        } else {
            Json::Object(children.into_iter().map(|c| (self.string(), c)).collect())
        }
    }
}

proptest! {
    /// The JSON decoder returns `Ok` or `Err` for any input, never
    /// panics, and whatever it accepts re-encodes to the same value.
    /// Token soup reaches the escape, number and nesting paths that raw
    /// bytes rarely do.
    #[test]
    fn json_parse_never_panics(
        raw in prop::collection::vec(0u16..256, 0..256),
        tokens in prop::collection::vec(0usize..24, 0..128),
    ) {
        use si_analog::json::parse;
        const SOUP: [&str; 24] = [
            "{", "}", "[", "]", "\"", "\\", "\\u", ":", ",", "0", "7", "e", "E", "-", "+",
            ".", "true", "null", "fals", " ", "1e999", "00", "\u{1f}", "é",
        ];
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let soup: String = tokens.iter().map(|&t| SOUP[t]).collect();
        for text in [String::from_utf8_lossy(&bytes).into_owned(), soup] {
            if let Ok(value) = parse(&text) {
                prop_assert_eq!(parse(&value.to_string_compact()), Ok(value));
            }
        }
    }

    /// Encode → decode is the identity for trees of finite numbers,
    /// escaped strings and duplicate keys, at every depth up to
    /// `MAX_DEPTH`; one level more is refused.
    #[test]
    fn json_round_trips_generated_trees(seed in 0u64..u64::MAX, depth in 0usize..65) {
        use si_analog::json::{parse, MAX_DEPTH};
        let mut gen = TreeGen(seed);
        for d in [depth.min(MAX_DEPTH), MAX_DEPTH] {
            let tree = gen.tree(d);
            prop_assert_eq!(parse(&tree.to_string_compact()), Ok(tree));
        }
        let too_deep = gen.tree(MAX_DEPTH + 1).to_string_compact();
        prop_assert!(parse(&too_deep).is_err());
    }
}

/// The string decoder as it was before it copied unescaped runs whole:
/// one scalar per step, each found by re-validating the rest of the
/// input. Kept as the reference the run-copying decoder must match
/// exactly, error text included.
fn per_char_string_document(input: &str) -> Result<si_analog::json::Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    if bytes.first() != Some(&b'"') {
        return Err("reference covers string documents only".to_string());
    }
    pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                pos += 1;
                break;
            }
            Some(b'\\') => {
                pos += 1;
                match bytes.get(pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes.get(pos + 1..pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "non-utf8 escape")?;
                        let cp = Some(hex)
                            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape {hex:?}"))?;
                        let c = char::from_u32(cp)
                            .ok_or_else(|| format!("surrogate \\u escape {hex:?}"))?;
                        out.push(c);
                        pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                pos += 1;
            }
            Some(_) => {
                let rest =
                    std::str::from_utf8(&bytes[pos..]).map_err(|_| "invalid utf-8 in string")?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
    while pos < bytes.len() && matches!(bytes[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(si_analog::json::Json::String(out))
}

/// Pieces of a string document's body: plain ASCII, every escape form
/// (good and bad), and scalars of each UTF-8 width, so runs end next to
/// escapes and multi-byte characters.
const STRING_PIECES: [&str; 31] = [
    "a",
    "R1 in 0 1k",
    " ",
    "\u{1}",
    "\u{7f}",
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\r",
    "\\t",
    "\\b",
    "\\f",
    "\\u0041",
    "\\u00e9",
    "\\uffff",
    "\\u12G4",
    "\\u+041",
    "\\u-041",
    "\\uD800",
    "\\uDFFF",
    "\\u12",
    "\\u123é",
    "\\u12→",
    "\\x",
    "\\é",
    "\\",
    "\"",
    "é",
    "→",
    "😀",
];

proptest! {
    /// Decoding a string document copies unescaped runs whole, and
    /// still accepts and rejects exactly what the per-scalar decoder
    /// did, with the same value or error text. Documents may close,
    /// end in a lone `\`, stay unterminated, or carry trailing bytes.
    #[test]
    fn json_string_decode_matches_per_char_reference(
        pieces in prop::collection::vec((0usize..35, 0u32..0x11_0000), 0..48),
        ending in 0usize..5,
    ) {
        use si_analog::json::parse;
        let mut doc = String::from("\"");
        for (piece, scalar) in pieces {
            match STRING_PIECES.get(piece) {
                Some(text) => doc.push_str(text),
                // 1-, 2-, 3- and 4-byte scalars (surrogates skipped).
                None => {
                    let c = match piece - STRING_PIECES.len() {
                        0 => scalar % 0x80,
                        1 => 0x80 + scalar % 0x780,
                        2 => 0xe000 + scalar % 0x2000,
                        _ => 0x1_0000 + scalar % 0x10_0000,
                    };
                    doc.push(char::from_u32(c).expect("not a surrogate"));
                }
            }
        }
        doc.push_str(["\"", "\" \n", "\\", "", "\"x"][ending]);
        prop_assert_eq!(parse(&doc), per_char_string_document(&doc), "document {:?}", doc);
    }
}

/// A ~1 MiB netlist-shaped string (short runs between `\n` escapes)
/// decodes in linear time: well under a second even unoptimized. The
/// per-scalar decoder re-validated the rest of the input for every
/// character, which is tens of seconds at this size.
#[test]
fn json_string_decode_is_linear() {
    use si_analog::json::{parse, Json};
    let mut text = String::from("* ladder\n");
    let mut i = 0;
    while text.len() < 1 << 20 {
        text.push_str(&format!(
            "R{i} n{i} n{} 1k\nM{i} n{i} n{i} 0 0 nmos\n",
            i + 1
        ));
        i += 1;
    }
    let doc = format!(
        "{{\"kind\":\"netlist\",\"netlist\":{}}}",
        Json::String(text.clone()).to_string_compact()
    );
    let start = std::time::Instant::now();
    let parsed = parse(&doc).expect("document parses");
    let elapsed = start.elapsed();
    assert_eq!(
        parsed.get("netlist").and_then(Json::as_str),
        Some(&text[..])
    );
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "decoding {} bytes took {elapsed:?}",
        doc.len()
    );
}

/// `write_number` as it was before it had its own digit writer: the
/// integral branch, `null` for non-finite values, and `{}` for the rest.
/// Kept as the oracle the shortest-digit writer must match byte for
/// byte.
fn display_number(n: f64) -> String {
    if !n.is_finite() {
        "null".to_string()
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Checks one value against the oracle, and its negation.
fn assert_number_matches_display(n: f64) {
    use si_analog::json::Json;
    for v in [n, -n] {
        assert_eq!(
            Json::Number(v).to_string_compact(),
            display_number(v),
            "bits {:#018x}",
            v.to_bits()
        );
    }
}

/// The values where shortest-digit writers go wrong: every power of
/// two and three times one, `1eN` and `5eN` across the whole range,
/// the lowest subnormals and the floats just below `f64::MAX` (`span`
/// of each), steps of 2⁻⁴⁰ above 1, and the `1 + 2⁻¹⁷` tie.
fn number_edge_values(span: u64) -> impl Iterator<Item = f64> {
    let doublings = |start: f64| {
        std::iter::successors(Some(start), |&x| Some(x * 2.0)).take_while(|x| x.is_finite())
    };
    let decimals = (-324..=308).flat_map(|e: i32| {
        [format!("1e{e}"), format!("5e{e}")].map(|t| t.parse::<f64>().expect("decimal literal"))
    });
    let max = f64::MAX.to_bits();
    doublings(f64::from_bits(1))
        .chain(doublings(f64::from_bits(3)))
        .chain(decimals)
        .chain((1..=span).map(f64::from_bits))
        .chain((0..span).map(move |k| f64::from_bits(max - k)))
        .chain((0..span).map(|k| 1.0 + k as f64 * 2f64.powi(-40)))
        .chain([1.0 + 2f64.powi(-17)])
}

/// Checks `count` bit patterns from a splitmix64 stream seeded `seed`.
fn assert_random_bits_match_display(seed: u64, count: usize) {
    let mut gen = TreeGen(seed);
    for _ in 0..count {
        assert_number_matches_display(f64::from_bits(gen.below(u64::MAX)));
    }
}

proptest! {
    /// Every `f64` bit pattern — finite, subnormal, zero, NaN or
    /// infinite — prints exactly as the `{}`-based writer printed it.
    /// 64 cases of 3125 patterns: a 200 k sample per run.
    #[test]
    fn number_writer_matches_display_on_random_bits(seed in 0u64..u64::MAX) {
        assert_random_bits_match_display(seed, 3125);
    }
}

#[test]
fn number_writer_matches_display_on_edge_values() {
    number_edge_values(10_000).for_each(assert_number_matches_display);
}

/// The long sweep, run in release mode by CI's diagnostics job:
/// `cargo test --release -p si-analog --test properties -- --ignored number_writer`.
#[test]
#[ignore = "20 M patterns: run in release mode"]
fn number_writer_long_sweep() {
    number_edge_values(100_000).for_each(assert_number_matches_display);
    assert_random_bits_match_display(0x05ee_df64, 20_000_000);
}

#[test]
fn number_writer_literal_table() {
    use si_analog::json::Json;
    let zeros = |n: usize| "0".repeat(n);
    let table = [
        (1.0 + 2f64.powi(-17), "1.0000076293945313".to_string()),
        (5e-324, format!("0.{}5", zeros(323))),
        (
            f64::MIN_POSITIVE,
            format!("0.{}22250738585072014", zeros(307)),
        ),
        (f64::MAX, format!("17976931348623157{}", zeros(292))),
        (0.1, "0.1".to_string()),
        (1e21, format!("1{}", zeros(21))),
        (1e22, format!("1{}", zeros(22))),
        (1e23, format!("1{}", zeros(23))),
        (2f64.powi(60), "1152921504606847000".to_string()),
        (9_007_199_254_740_993.0, "9007199254740992".to_string()),
        (-0.0, "0".to_string()),
        (f64::NAN, "null".to_string()),
        (f64::INFINITY, "null".to_string()),
        (f64::NEG_INFINITY, "null".to_string()),
    ];
    for (value, text) in table {
        assert_eq!(Json::Number(value).to_string_compact(), text, "{value:e}");
    }
}

/// `write_string` as it was before it copied unescaped runs whole: one
/// `push` per scalar. Kept as the reference for the run-copying writer.
fn per_char_write_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

proptest! {
    /// Encoding a string copies unescaped runs whole and still writes
    /// exactly what the per-scalar writer did: runs end next to quotes,
    /// backslashes, every control character and multi-byte scalars.
    #[test]
    fn json_string_encode_matches_per_char_reference(
        pieces in prop::collection::vec((0usize..36, 0u32..0x11_0000), 0..48),
    ) {
        use si_analog::json::write_string;
        let mut text = String::new();
        for (piece, scalar) in pieces {
            match STRING_PIECES.get(piece) {
                Some(piece) => text.push_str(piece),
                None => {
                    let c = match piece - STRING_PIECES.len() {
                        0 => scalar % 0x20,
                        1 => scalar % 0x80,
                        2 => 0x80 + scalar % 0x780,
                        3 => 0xe000 + scalar % 0x2000,
                        _ => 0x1_0000 + scalar % 0x10_0000,
                    };
                    text.push(char::from_u32(c).expect("not a surrogate"));
                }
            }
        }
        let mut out = String::new();
        write_string(&text, &mut out);
        prop_assert_eq!(out, per_char_write_string(&text), "text {:?}", text);
    }
}
