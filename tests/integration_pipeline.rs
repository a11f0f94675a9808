//! End-to-end pipeline tests: workload generation → VDPS generation →
//! assignment → validation, across crates.

use fta::prelude::*;

fn city(seed: u64) -> Instance {
    generate_syn(
        &SynConfig {
            n_centers: 3,
            n_workers: 30,
            n_tasks: 600,
            n_delivery_points: 60,
            extent: 6.0,
            ..SynConfig::bench_scale()
        },
        seed,
    )
}

fn all_algorithms() -> Vec<(&'static str, Algorithm)> {
    vec![
        ("MPTA", Algorithm::Mpta(MptaConfig::default())),
        ("GTA", Algorithm::Gta),
        ("FGT", Algorithm::Fgt(FgtConfig::default())),
        ("IEGT", Algorithm::Iegt(IegtConfig::default())),
        ("RAND", Algorithm::Random { seed: 3 }),
    ]
}

#[test]
fn every_algorithm_yields_valid_assignments_across_seeds() {
    for seed in [1, 2, 3] {
        let instance = city(seed);
        for (name, algorithm) in all_algorithms() {
            let outcome = solve(
                &instance,
                &SolveConfig {
                    vdps: VdpsConfig::pruned(2.0, 3),
                    algorithm,
                    parallel: false,
                    ..SolveConfig::new(Algorithm::Gta)
                },
            );
            assert!(
                outcome.assignment.validate(&instance).is_ok(),
                "{name} (seed {seed}) produced an invalid assignment"
            );
        }
    }
}

#[test]
fn assignments_respect_max_dp_and_deadlines_per_route() {
    let instance = city(7);
    let outcome = solve(
        &instance,
        &SolveConfig {
            vdps: VdpsConfig::pruned(2.0, 3),
            algorithm: Algorithm::Gta,
            parallel: false,
            ..SolveConfig::new(Algorithm::Gta)
        },
    );
    let aggs = instance.dp_aggregates();
    for (worker, route) in outcome.assignment.iter() {
        let w = &instance.workers[worker.index()];
        assert!(route.len() <= w.max_dp);
        // Recompute arrival times independently of the Route internals.
        let dc = instance.centers[w.center.index()].location;
        let mut t = instance.travel_time(w.location, dc);
        let mut prev = dc;
        for &dp_id in route.dps() {
            let dp = &instance.delivery_points[dp_id.index()];
            t += instance.travel_time(prev, dp.location);
            prev = dp.location;
            assert!(
                t <= aggs[dp_id.index()].earliest_expiry + 1e-9,
                "{worker} reaches {dp_id} at {t:.3} after its deadline"
            );
        }
    }
}

#[test]
fn pruning_with_huge_epsilon_equals_no_pruning() {
    // The paper's claim: a large-enough ε gives the same assignment as the
    // unpruned variant (Figures 2–3).
    let instance = city(11);
    let run = |vdps| {
        solve(
            &instance,
            &SolveConfig {
                vdps,
                algorithm: Algorithm::Gta,
                parallel: false,
                ..SolveConfig::new(Algorithm::Gta)
            },
        )
        .assignment
    };
    let pruned = run(VdpsConfig::pruned(1e6, 3));
    let unpruned = run(VdpsConfig::unpruned(3));
    assert_eq!(pruned, unpruned);
}

#[test]
fn pruned_strategy_spaces_are_subsets_of_unpruned() {
    let instance = city(13);
    let views = instance.center_views();
    for view in &views {
        let pruned = StrategySpace::build(&instance, view, &VdpsConfig::pruned(1.0, 3));
        let unpruned = StrategySpace::build(&instance, view, &VdpsConfig::unpruned(3));
        let unpruned_masks: std::collections::HashSet<u128> =
            unpruned.pool.iter().map(|v| v.mask).collect();
        for v in pruned.pool.iter() {
            assert!(unpruned_masks.contains(&v.mask));
        }
        assert!(pruned.pool.len() <= unpruned.pool.len());
    }
}

#[test]
fn solver_timings_and_stats_are_populated() {
    let instance = city(17);
    let outcome = solve(
        &instance,
        &SolveConfig {
            vdps: VdpsConfig::pruned(2.0, 3),
            algorithm: Algorithm::Iegt(IegtConfig::default()),
            parallel: true,
            ..SolveConfig::new(Algorithm::Gta)
        },
    );
    assert!(outcome.gen_stats.vdps_count > 0);
    assert!(outcome.gen_stats.extensions_tried > 0);
    assert!(outcome.total_time().as_nanos() > 0);
    assert!(outcome.trace.converged);
}

#[test]
fn gmission_pipeline_end_to_end() {
    let instance = generate_gmission(&GMissionConfig::default(), 23);
    let workers: Vec<WorkerId> = instance.workers.iter().map(|w| w.id).collect();
    for (name, algorithm) in all_algorithms() {
        let outcome = solve(
            &instance,
            &SolveConfig {
                vdps: VdpsConfig::pruned(0.6, 3),
                algorithm,
                parallel: false,
                ..SolveConfig::new(Algorithm::Gta)
            },
        );
        assert!(
            outcome.assignment.validate(&instance).is_ok(),
            "{name} failed on GM"
        );
        let report = outcome.assignment.fairness(&instance, &workers);
        assert!(report.payoff_difference.is_finite());
        assert!(report.average_payoff >= 0.0);
    }
}
