//! Property-based tests of the geo-sharded solve layer: for *every*
//! random instance, shard count, partitioner, and pool width, sharding
//! must be invisible in the results — it only changes where each center
//! solves, never what it computes. That holds for one-shot solves and for
//! the incremental [`Solver`] over churned rounds, cache included.

use fta_algorithms::{
    solve, solve_with_pool, Algorithm, FgtConfig, IegtConfig, MptaConfig, SolveConfig,
    SolveOutcome, Solver,
};
use fta_core::entities::{DeliveryPoint, SpatialTask};
use fta_core::geometry::Point;
use fta_core::{ChurnSet, DeliveryPointId, FairnessReport, Instance, ShardBy, TaskId, WorkerId};
use fta_data::{generate_syn, SynConfig};
use fta_vdps::{VdpsConfig, WorkerPool};
use proptest::prelude::*;

/// Random small multi-center instances driven by a seed and size knobs.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (1u64..500, 2usize..8, 6usize..24, 8usize..24).prop_map(
        |(seed, n_centers, n_workers, n_dps)| {
            generate_syn(
                &SynConfig {
                    n_centers,
                    n_workers,
                    n_tasks: n_dps * 6,
                    n_delivery_points: n_dps,
                    max_dp: 3,
                    extent: 4.0,
                    ..SynConfig::bench_scale()
                },
                seed,
            )
        },
    )
}

fn config(algorithm: Algorithm) -> SolveConfig {
    SolveConfig {
        vdps: VdpsConfig::unpruned(3),
        algorithm,
        ..SolveConfig::new(Algorithm::Gta)
    }
}

fn sharded(config: SolveConfig, shards: usize, by: ShardBy) -> SolveConfig {
    SolveConfig {
        shards: Some((shards, by)),
        ..config
    }
}

fn payoffs(instance: &Instance, outcome: &SolveOutcome) -> Vec<f64> {
    let workers: Vec<WorkerId> = (0..instance.workers.len())
        .map(WorkerId::from_index)
        .collect();
    outcome.assignment.payoffs(instance, &workers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_solve_is_bit_identical_to_sequential(
        instance in arb_instance(),
        shards in 1usize..12,
        geo in prop::bool::ANY,
    ) {
        let by = if geo { ShardBy::Geo } else { ShardBy::Hash };
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Mpta(MptaConfig::default()),
            Algorithm::Random { seed: 9 },
        ] {
            let cfg = config(algorithm);
            let flat = solve(&instance, &cfg);
            let sharded = solve(&instance, &sharded(cfg, shards, by));
            prop_assert_eq!(
                &sharded.assignment, &flat.assignment,
                "assignment diverged ({:?}, {} shards, {:?})", by, shards, algorithm
            );
            prop_assert_eq!(payoffs(&instance, &sharded), payoffs(&instance, &flat));
            prop_assert_eq!(sharded.centers.len(), flat.centers.len());
            for (s, f) in sharded.centers.iter().zip(&flat.centers) {
                prop_assert_eq!(s.center, f.center);
                prop_assert_eq!(s.rung, f.rung);
                prop_assert!(s.shard.is_some(), "sharded summary missing attribution");
                prop_assert!(f.shard.is_none(), "flat summary carries attribution");
            }
        }
    }

    #[test]
    fn fairness_metrics_are_shard_count_invariant_for_iterative_games(
        instance in arb_instance(),
        shards in 2usize..10,
    ) {
        for algorithm in [
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
        ] {
            let cfg = config(algorithm);
            let one = solve(&instance, &sharded(cfg, 1, ShardBy::Geo));
            let many = solve(&instance, &sharded(cfg, shards, ShardBy::Geo));
            let fair_one = FairnessReport::from_payoffs(&payoffs(&instance, &one));
            let fair_many = FairnessReport::from_payoffs(&payoffs(&instance, &many));
            prop_assert_eq!(
                fair_one, fair_many,
                "fairness metrics varied with shard count ({:?})", algorithm
            );
        }
    }

    #[test]
    fn oversubscribed_pool_agrees_with_sequential(instance in arb_instance()) {
        // Far more shards than pool threads: every center its own shard
        // on a two-thread pool. The queue must drain without deadlock
        // and the merge must stay bit-identical.
        let cfg = config(Algorithm::Gta);
        let flat = solve(&instance, &cfg);
        let pool = WorkerPool::with_threads(2);
        let shards = instance.centers.len();
        let sharded = solve_with_pool(&instance, &sharded(cfg, shards, ShardBy::Hash), &pool);
        prop_assert_eq!(&sharded.assignment, &flat.assignment);
    }
}

/// One task at a brand-new delivery point next to every center: churn
/// the delta updater declines, so warm centers regenerate their pools.
fn arrivals(instance: &Instance) -> Instance {
    let mut churned = instance.clone();
    for c in &instance.centers {
        let dp = DeliveryPointId::from_index(churned.delivery_points.len());
        churned.delivery_points.push(DeliveryPoint {
            id: dp,
            location: Point::new(c.location.x + 0.05, c.location.y - 0.05),
            center: c.id,
        });
        churned.tasks.push(SpatialTask {
            id: TaskId::from_index(churned.tasks.len()),
            delivery_point: dp,
            expiry: instance.tasks.first().map_or(1.0, |t| t.expiry),
            reward: 2.0,
        });
    }
    churned
}

/// The churned day both solvers replay: prime, zero churn, a dropped
/// tail of tasks, arrivals at new delivery points, a moved worker.
fn churned_rounds(base: &Instance) -> Vec<Instance> {
    let mut dropped = base.clone();
    dropped
        .tasks
        .truncate(base.tasks.len() - base.tasks.len() / 8);
    let arrived = arrivals(&dropped);
    let mut moved = arrived.clone();
    if let Some(w) = moved.workers.first_mut() {
        w.location.x += 0.25;
    }
    vec![base.clone(), base.clone(), dropped, arrived, moved]
}

/// Asserts that two solvers' last rounds agree on everything observable:
/// the assignment, the ladder tally, each center's resolve path, and the
/// cache they leave behind.
fn assert_same_round(a: (&Solver, &SolveOutcome), b: (&Solver, &SolveOutcome), what: &str) {
    assert_eq!(a.1.assignment, b.1.assignment, "assignment: {what}");
    assert_eq!(a.0.last_stats(), b.0.last_stats(), "stats: {what}");
    let paths = |o: &SolveOutcome| o.centers.iter().map(|c| c.resolve_path).collect::<Vec<_>>();
    assert_eq!(paths(a.1), paths(b.1), "resolve paths: {what}");
    assert_eq!(a.0.cache_seed(), b.0.cache_seed(), "cache seed: {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_solver_equals_flat_over_churned_rounds(
        instance in arb_instance(),
        shards in 1usize..8,
        geo in prop::bool::ANY,
    ) {
        let by = if geo { ShardBy::Geo } else { ShardBy::Hash };
        let rounds = churned_rounds(&instance);
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
        ] {
            let flat_cfg = config(algorithm);
            let sharded_cfg = sharded(flat_cfg, shards, by);
            let mut flat = Solver::new(flat_cfg);
            let mut shard = Solver::new(sharded_cfg);
            // Solvers rehydrated across shapes after the dropped-tail
            // round: (flat from the sharded seed, sharded from the flat).
            let mut crossed: Option<(Solver, Solver)> = None;
            for (i, round) in rounds.iter().enumerate() {
                let churn = ChurnSet::empty(round.workers.len());
                let what = format!("{} round {i}, {shards} shards {by:?}", algorithm.name());
                let a = flat.resolve(round, &churn);
                let b = shard.resolve(round, &churn);
                assert_same_round((&flat, &a), (&shard, &b), &what);
                if let Some((flat_x, shard_x)) = crossed.as_mut() {
                    let c = flat_x.resolve(round, &churn);
                    let d = shard_x.resolve(round, &churn);
                    assert_same_round((&flat, &a), (flat_x, &c), &format!("{what}, flat from sharded seed"));
                    assert_same_round((&flat, &a), (shard_x, &d), &format!("{what}, sharded from flat seed"));
                }
                if i == 2 {
                    let mut flat_x = Solver::new(flat_cfg);
                    let mut shard_x = Solver::new(sharded_cfg);
                    let keys = &churn.worker_keys;
                    prop_assert!(flat_x.rehydrate(round, keys, &shard.cache_seed().unwrap()));
                    prop_assert!(shard_x.rehydrate(round, keys, &flat.cache_seed().unwrap()));
                    crossed = Some((flat_x, shard_x));
                }
            }
        }
    }
}
