//! Property-based tests of the incremental [`Solver`]: a resolve of an
//! unchanged instance must return the cached outcome bit for bit, and warm
//! re-solves under randomized churn must agree with cold solves — exactly
//! for the deterministic baselines, and up to equilibrium validity for
//! the iterative games. A pooled round must equal the sequential one.

use fta_algorithms::{
    solve, solve_with_pool, Algorithm, FgtConfig, IegtConfig, MptaConfig, SolveConfig, Solver,
};
use fta_core::{Instance, WorkerId};
use fta_data::{generate_syn, SynConfig};
use fta_vdps::WorkerPool;
use proptest::prelude::*;
use std::ops::Range;

/// Random multi-center instances driven by a seed and size knobs.
fn arb_instance() -> impl Strategy<Value = Instance> {
    arb_instance_with(2..4)
}

/// Like [`arb_instance`], with the center count drawn from `centers`.
fn arb_instance_with(centers: Range<usize>) -> impl Strategy<Value = Instance> {
    (1u64..500, centers, 8usize..24, 16usize..40).prop_map(|(seed, n_centers, n_workers, n_dps)| {
        generate_syn(
            &SynConfig {
                n_centers,
                n_workers,
                n_tasks: n_dps * 6,
                n_delivery_points: n_dps,
                max_dp: 3,
                extent: 3.0,
                ..SynConfig::bench_scale()
            },
            seed,
        )
    })
}

/// Each worker keyed by its own index.
fn identity_keys(instance: &Instance) -> Vec<u64> {
    (0..instance.workers.len() as u64).collect()
}

/// A randomized churn: drop a fraction of tasks and age the rest.
fn churn_instance(base: &Instance, drop_every: usize, age: f64) -> Instance {
    let mut churned = base.clone();
    let mut i = 0usize;
    churned.tasks.retain(|t| {
        i += 1;
        (i - 1) % drop_every != 0 && t.expiry > age
    });
    for t in &mut churned.tasks {
        t.expiry -= age;
    }
    churned
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Resolving an unchanged instance is a pure cache hit: every
    /// center short-circuits clean and the merged assignment is the
    /// cached one bit for bit, for every algorithm family.
    #[test]
    fn empty_churn_resolve_returns_the_cached_outcome(instance in arb_instance()) {
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Mpta(MptaConfig::default()),
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
            Algorithm::Random { seed: 9 },
        ] {
            let mut solver = Solver::new(SolveConfig::new(algorithm));
            let first = solver.resolve(&instance, &identity_keys(&instance));
            let again = solver.resolve(&instance, &identity_keys(&instance));
            let stats = solver.last_stats();
            prop_assert_eq!(
                stats.centers_clean,
                instance.centers.len(),
                "algorithm {} left centers unclean: {:?}",
                algorithm.name(),
                stats
            );
            prop_assert_eq!(&first.assignment, &again.assignment);
            let pop: Vec<WorkerId> = instance.workers.iter().map(|w| w.id).collect();
            for (a, b) in first
                .assignment
                .payoffs(&instance, &pop)
                .iter()
                .zip(again.assignment.payoffs(&instance, &pop))
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "payoffs not bit-identical");
            }
        }
    }

    /// Under randomized task churn the warm GTA resolve must be bitwise
    /// equal to a cold solve of the churned instance: GTA is
    /// deterministic and the warm path regenerates the pool as a cold
    /// solve does.
    #[test]
    fn warm_gta_equals_cold_under_randomized_churn(
        instance in arb_instance(),
        drop_every in 3usize..12,
        age in 0.0f64..0.5,
    ) {
        let config = SolveConfig::new(Algorithm::Gta);
        let mut solver = Solver::new(config);
        solver.resolve(&instance, &identity_keys(&instance));
        let churned = churn_instance(&instance, drop_every, age);
        let warm = solver.resolve(&churned, &identity_keys(&churned));
        let cold = solve(&churned, &config);
        prop_assert_eq!(&warm.assignment, &cold.assignment);
        let pop: Vec<WorkerId> = churned.workers.iter().map(|w| w.id).collect();
        for (a, b) in warm
            .assignment
            .payoffs(&churned, &pop)
            .iter()
            .zip(cold.assignment.payoffs(&churned, &pop))
        {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "payoffs not bit-identical");
        }
        prop_assert!(warm.assignment.validate(&churned).is_ok());
    }

    /// Warm FGT under randomized churn: the re-solve must stay a valid,
    /// converged equilibrium of the churned instance, and repeating the
    /// identical resolve from the same cache state must be deterministic.
    #[test]
    fn warm_fgt_is_valid_converged_and_deterministic(
        instance in arb_instance(),
        drop_every in 3usize..12,
        age in 0.0f64..0.5,
    ) {
        let config = SolveConfig::new(Algorithm::Fgt(FgtConfig::default()));
        let churned = churn_instance(&instance, drop_every, age);
        let keys = identity_keys(&churned);

        let mut a = Solver::new(config);
        a.resolve(&instance, &identity_keys(&instance));
        let wa = a.resolve(&churned, &keys);

        let mut b = Solver::new(config);
        b.resolve(&instance, &identity_keys(&instance));
        let wb = b.resolve(&churned, &keys);

        prop_assert!(wa.assignment.validate(&churned).is_ok());
        prop_assert!(wa.trace.converged, "warm FGT did not converge");
        prop_assert_eq!(&wa.assignment, &wb.assignment, "warm resolve not deterministic");
        prop_assert_eq!(a.last_stats(), b.last_stats());
    }

    /// More centers than pool threads: one job per center on a
    /// two-thread pool. The queue must drain without deadlock and the
    /// merge must equal the sequential solve bit for bit.
    #[test]
    fn oversubscribed_pool_agrees_with_sequential(instance in arb_instance_with(3..8)) {
        let config = SolveConfig::new(Algorithm::Gta);
        let sequential = solve(&instance, &config);
        let pooled = solve_with_pool(&instance, &config, &WorkerPool::with_threads(2));
        prop_assert_eq!(&pooled.assignment, &sequential.assignment);
    }
}
