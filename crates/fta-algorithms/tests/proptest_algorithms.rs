//! Property-based tests of the assignment algorithms on randomly generated
//! instances: validity, determinism, and equilibrium conditions must hold
//! for every input, not just the crafted unit-test cases.

use fta_algorithms::{
    fgt, gta, iegt, mpta, random_assignment, solve, Algorithm, FgtConfig, GameContext, IegtConfig,
    MptaConfig, SolveConfig,
};
use fta_core::iau::IauEvaluator;
use fta_core::route::Route;
use fta_core::{Instance, SolveBudget};
use fta_data::{generate_syn, SynConfig};
use fta_vdps::{StrategySpace, VdpsConfig};
use proptest::prelude::*;

/// Everything one best-response engine produces that another engine must
/// reproduce: selections, payoff bits, per-round trace summaries
/// (moves, `P_dif` bits, average-payoff bits), and convergence.
type EngineRun = (Vec<Option<u32>>, Vec<u64>, Vec<(usize, u64, u64)>, bool);

/// Random small instances driven by a seed and size knobs.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (1u64..500, 2usize..12, 4usize..16, 1usize..4).prop_map(|(seed, n_workers, n_dps, max_dp)| {
        generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers,
                n_tasks: n_dps * 6,
                n_delivery_points: n_dps,
                max_dp,
                extent: 3.0,
                ..SynConfig::bench_scale()
            },
            seed,
        )
    })
}

fn space(instance: &Instance) -> StrategySpace {
    let views = instance.center_views();
    StrategySpace::build(instance, &views[0], &VdpsConfig::unpruned(4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_produce_valid_disjoint_assignments(instance in arb_instance()) {
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Mpta(MptaConfig::default()),
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
            Algorithm::Random { seed: 1 },
        ] {
            let outcome = solve(
                &instance,
                &SolveConfig {
                    vdps: VdpsConfig::unpruned(4),
                    algorithm,
                    parallel: false,
                    ..SolveConfig::new(Algorithm::Gta)
                },
            );
            prop_assert!(outcome.assignment.validate(&instance).is_ok());
        }
    }

    /// A budget-exhausted solve may degrade all the way down the ladder
    /// but must still return a *valid* partial assignment: deadline-feasible
    /// routes, disjoint delivery points, workers bound to their own center.
    #[test]
    fn budget_exhausted_solves_return_valid_partial_assignments(
        instance in arb_instance(),
        budget_kind in 0usize..4,
        cap in 1usize..16,
    ) {
        let budget = match budget_kind {
            0 => SolveBudget::wall_ms(0),
            1 => SolveBudget { max_states: Some(cap), ..SolveBudget::UNLIMITED },
            2 => SolveBudget { max_rounds: Some(cap % 3), ..SolveBudget::UNLIMITED },
            _ => SolveBudget {
                wall_ms: Some(0),
                max_states: Some(cap),
                max_rounds: Some(1),
            },
        };
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
        ] {
            let cfg = SolveConfig {
                vdps: VdpsConfig::unpruned(4),
                algorithm,
                parallel: false,
                budget,
                ..SolveConfig::new(Algorithm::Gta)
            };
            let outcome = solve(&instance, &cfg);
            prop_assert!(
                outcome.assignment.validate(&instance).is_ok(),
                "budget {budget:?} broke assignment validity"
            );
            // State-cap and round-cap budgets are deterministic (wall-clock
            // budgets are not): identical runs give identical assignments.
            if budget.wall_ms.is_none() {
                let again = solve(&instance, &cfg);
                prop_assert_eq!(&outcome.assignment, &again.assignment);
                prop_assert_eq!(&outcome.degradation.events, &again.degradation.events);
            }
        }
    }

    #[test]
    fn gta_assigns_each_worker_their_best_remaining(instance in arb_instance()) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        gta(&mut ctx);
        for local in 0..ctx.n_workers() {
            let current = ctx.payoff(local);
            for (_, payoff) in ctx.available_strategies(local) {
                prop_assert!(payoff <= current + 1e-9);
            }
        }
    }

    #[test]
    fn mpta_total_payoff_dominates_gta(instance in arb_instance()) {
        let s = space(&instance);
        let mut g = GameContext::new(&s);
        gta(&mut g);
        let mut m = GameContext::new(&s);
        mpta(&mut m, &MptaConfig::default());
        prop_assert!(m.total_payoff() >= g.total_payoff() - 1e-9);
    }

    #[test]
    fn fgt_fixed_point_is_a_nash_equilibrium(instance in arb_instance()) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        let cfg = FgtConfig::default();
        let trace = fgt(&mut ctx, &cfg);
        prop_assert!(trace.converged);
        let n = ctx.n_workers();
        for local in 0..n {
            let others: Vec<f64> = (0..n)
                .filter(|&j| j != local)
                .map(|j| ctx.payoff(j))
                .collect();
            let eval = IauEvaluator::new(&others, cfg.iau);
            let current = eval.eval(ctx.payoff(local));
            prop_assert!(eval.eval(0.0) <= current + 1e-6);
            for (_, p) in ctx.available_strategies(local) {
                prop_assert!(eval.eval(p) <= current + 1e-6);
            }
        }
    }

    #[test]
    fn iegt_fixed_point_is_a_replicator_rest_point(instance in arb_instance()) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        let cfg = IegtConfig::default();
        let trace = iegt(&mut ctx, &cfg);
        prop_assert!(trace.converged);
        let n = ctx.n_workers() as f64;
        let average = ctx.total_payoff() / n;
        // Mirror the algorithm's scale-aware equality notions: a worker
        // strictly below the average (beyond the rest slack) must have no
        // available strategy that clears the improvement threshold.
        for local in 0..ctx.n_workers() {
            let current = ctx.payoff(local);
            if current < average - cfg.rest_slack(average) {
                let margin = cfg.improvement_threshold(current);
                prop_assert!(!ctx
                    .available_strategies(local)
                    .any(|(_, p)| p > current + margin));
            }
        }
    }

    #[test]
    fn iegt_average_payoff_is_monotone_over_rounds(instance in arb_instance()) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        let trace = iegt(&mut ctx, &IegtConfig::default());
        for w in trace.rounds.windows(2) {
            prop_assert!(w[1].average_payoff >= w[0].average_payoff - 1e-9);
        }
    }

    #[test]
    fn solver_is_deterministic(instance in arb_instance()) {
        for algorithm in [
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
        ] {
            let run = || {
                solve(
                    &instance,
                    &SolveConfig {
                        vdps: VdpsConfig::unpruned(4),
                        algorithm,
                        parallel: false,
                        ..SolveConfig::new(Algorithm::Gta)
                    },
                )
                .assignment
            };
            prop_assert_eq!(run(), run());
        }
    }

    /// The winners' routes `to_assignment` assembles from pool rows are
    /// bit for bit the routes `Route::build` derives from their stops.
    #[test]
    fn assignment_routes_equal_full_rebuilds(instance in arb_instance()) {
        let s = space(&instance);
        let aggregates = instance.dp_aggregates();
        let mut ctx = GameContext::new(&s);
        fgt(&mut ctx, &FgtConfig::default());
        let assignment = ctx.to_assignment();
        for (local, sel) in (0..ctx.n_workers()).map(|l| (l, ctx.selection(l))) {
            let worker = s.worker_id(local);
            let Some(idx) = sel else {
                prop_assert!(assignment.route_of(worker).is_none());
                continue;
            };
            let route = assignment.route_of(worker).expect("selected workers are assigned");
            let built = Route::build(&instance, &aggregates, s.view.center, route.dps().to_vec())
                .expect("pool rows reference valid points");
            prop_assert_eq!(route.dps(), s.pool.stops(idx as usize));
            prop_assert_eq!(route.center(), built.center());
            let bits = |r: &Route| {
                let offsets: Vec<u64> = r.arrival_offsets().iter().map(|t| t.to_bits()).collect();
                (offsets, r.total_reward().to_bits(), r.slack().to_bits(), r.travel_from_dc().to_bits())
            };
            prop_assert_eq!(bits(route), bits(&built));
        }
    }

    #[test]
    fn random_assignment_is_valid_for_any_seed(
        instance in arb_instance(),
        seed in 0u64..1000,
    ) {
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        random_assignment(&mut ctx, seed);
        prop_assert!(ctx.to_assignment().validate(&instance).is_ok());
    }

    #[test]
    fn game_context_invariants_hold_under_random_strategy_sequences(
        instance in arb_instance(),
        ops in prop::collection::vec((0u16..u16::MAX, 0u16..u16::MAX, prop::bool::ANY), 1..40),
    ) {
        // After ANY sequence of set_strategy calls, the cached occupancy
        // mask must equal the OR of the selected strategies' masks, and the
        // cached payoffs must equal a fresh recomputation from the space.
        let s = space(&instance);
        let mut ctx = GameContext::new(&s);
        for (w, pick, clear) in ops {
            let local = w as usize % ctx.n_workers();
            if clear {
                ctx.set_strategy(local, None);
            } else {
                let avail: Vec<(u32, f64)> = ctx.available_strategies(local).collect();
                if !avail.is_empty() {
                    let (idx, _) = avail[pick as usize % avail.len()];
                    ctx.set_strategy(local, Some(idx));
                }
            }
            let mut expect_taken = 0u128;
            let mut expect_total = 0.0;
            for l in 0..ctx.n_workers() {
                let expect_payoff = match ctx.selection(l) {
                    Some(idx) => {
                        expect_taken |= s.pool.mask(idx as usize);
                        s.payoff_of(l, idx).expect("selected strategy must stay valid")
                    }
                    None => 0.0,
                };
                prop_assert_eq!(ctx.payoff(l), expect_payoff, "worker {}", l);
                expect_total += expect_payoff;
            }
            prop_assert_eq!(ctx.taken_mask(), expect_taken);
            prop_assert!((ctx.total_payoff() - expect_total).abs() < 1e-9);
        }
    }

    /// Engine-equivalence property (the fast path's correctness contract):
    /// for any sound IAU weights (`α ≥ 0`, `β < 1`), the monotone fast
    /// path must reproduce the exhaustive incremental engine *bit for bit* — same
    /// selections, same per-round trace summaries, same payoff vectors.
    #[test]
    fn fastpath_engine_is_bit_identical_for_sound_iau_weights(
        instance in arb_instance(),
        alpha in 0.0f64..4.0,
        beta in 0.0f64..1.0,
    ) {
        let iau = fta_core::iau::IauParams { alpha, beta };
        prop_assert!(fta_algorithms::fastpath_sound(iau));
        let s = space(&instance);
        let run = |engine| {
            let mut ctx = GameContext::new(&s);
            let trace = fgt(&mut ctx, &FgtConfig { iau, engine, ..FgtConfig::default() });
            let selections: Vec<Option<u32>> =
                (0..ctx.n_workers()).map(|l| ctx.selection(l)).collect();
            let payoff_bits: Vec<u64> =
                (0..ctx.n_workers()).map(|l| ctx.payoff(l).to_bits()).collect();
            let summaries: Vec<(usize, u64, u64)> = trace
                .rounds
                .iter()
                .map(|r| (r.moves, r.payoff_difference.to_bits(), r.average_payoff.to_bits()))
                .collect();
            (selections, payoff_bits, summaries, trace.converged)
        };
        let incremental: EngineRun = run(fta_algorithms::BestResponseEngine::Incremental);
        let fastpath = run(fta_algorithms::BestResponseEngine::FastPath);
        // The fast path touches its rival set only on candidate turns, the
        // incremental engine on every turn; every RivalSet read depends on
        // the stored multiset alone, so the two must be bit-identical —
        // trace summaries included. (Both are held to the per-turn rebuild
        // oracle by the unit tests of `fgt.rs`.)
        prop_assert_eq!(&incremental, &fastpath, "fastpath diverged");
    }

    /// Unsound IAU weights (`β ≥ 1`, where IAU utility is no longer
    /// monotone in own payoff) must make the `FastPath` engine fall back
    /// to exhaustive evaluation: zero fast-path rounds, and the outcome
    /// identical to the `Incremental` engine it delegates to.
    #[test]
    fn fastpath_engine_falls_back_when_beta_is_large(
        instance in arb_instance(),
        beta in 1.0f64..3.0,
    ) {
        let iau = fta_core::iau::IauParams { alpha: 0.5, beta };
        prop_assert!(!fta_algorithms::fastpath_sound(iau));
        let s = space(&instance);
        let run = |engine| {
            let mut ctx = GameContext::new(&s);
            let trace = fgt(&mut ctx, &FgtConfig { iau, engine, ..FgtConfig::default() });
            (ctx.to_assignment(), trace)
        };
        let (inc_asg, inc) = run(fta_algorithms::BestResponseEngine::Incremental);
        let (fast_asg, fast) = run(fta_algorithms::BestResponseEngine::FastPath);
        prop_assert_eq!(fast.stats.fastpath_rounds, 0, "unsound weights took the fast path");
        prop_assert_eq!(fast.stats.early_exits, 0);
        prop_assert_eq!(inc_asg, fast_asg);
        prop_assert_eq!(inc.stats, fast.stats);
    }
}
