//! Property-based tests of the simulation engine: conservation laws and
//! physical plausibility must hold for every scenario and policy.

use fta_algorithms::{Algorithm, FgtConfig, IegtConfig, MptaConfig};
use fta_sim::{run, FaultPlan, Scenario, ScenarioConfig, SimConfig};
use fta_vdps::VdpsConfig;
use proptest::prelude::*;

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        1u64..1000,     // seed
        2usize..10,     // workers
        4usize..20,     // delivery points
        10.0f64..120.0, // arrival rate
        0.5f64..3.0,    // expiry offset
    )
        .prop_map(|(seed, n_workers, n_dps, rate, expiry)| {
            Scenario::generate(
                &ScenarioConfig {
                    n_workers,
                    n_delivery_points: n_dps,
                    extent: 3.0,
                    arrival_rate: rate,
                    expiry_offset: expiry,
                    ..ScenarioConfig::default()
                },
                2.0,
                seed,
            )
        })
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (0.1f64..0.6, prop::bool::ANY).prop_map(|(period, fair)| SimConfig {
        horizon: 2.0,
        assignment_period: period,
        policy: fta_sim::DispatchPolicy::Batch(if fair {
            Algorithm::Iegt(IegtConfig::default())
        } else {
            Algorithm::Gta
        }),
        vdps: VdpsConfig::pruned(1.5, 3),
        ..SimConfig::day(Algorithm::Gta)
    })
}

fn arb_faults() -> impl Strategy<Value = FaultPlan> {
    (
        (
            0u64..1000,  // fault seed
            0.0f64..0.5, // no-show rate
            0.0f64..0.5, // dropout rate
            0.0f64..0.5, // cancel rate
        ),
        (
            0.0f64..0.5, // travel sigma
            0u32..4,     // retry budget
            0.0f64..0.5, // backoff hours
        ),
    )
        .prop_map(
            |((seed, p_no_show, p_dropout, p_cancel), (travel_sigma, max_retries, backoff))| {
                FaultPlan {
                    seed,
                    p_no_show,
                    p_dropout,
                    p_cancel,
                    travel_sigma,
                    max_retries,
                    backoff,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tasks_are_conserved(scenario in arb_scenario(), config in arb_config()) {
        let m = run(&scenario, &config);
        prop_assert_eq!(m.tasks_arrived, scenario.tasks.len());
        prop_assert_eq!(
            m.tasks_completed + m.tasks_expired + m.tasks_pending,
            m.tasks_arrived
        );
        let delivered: usize = m.ledgers.iter().map(|l| l.tasks_delivered).sum();
        prop_assert_eq!(delivered, m.tasks_completed);
    }

    #[test]
    fn earnings_equal_delivered_rewards(
        scenario in arb_scenario(),
        config in arb_config(),
    ) {
        let m = run(&scenario, &config);
        let total: f64 = m.ledgers.iter().map(|l| l.earnings).sum();
        // Unit rewards in the default scenario config.
        prop_assert!((total - m.tasks_completed as f64).abs() < 1e-6);
    }

    #[test]
    fn ledgers_are_physically_plausible(
        scenario in arb_scenario(),
        config in arb_config(),
    ) {
        let m = run(&scenario, &config);
        for l in &m.ledgers {
            prop_assert!(l.earnings >= 0.0);
            prop_assert!(l.busy_hours >= 0.0);
            // A worker can hold at most one route at a time, each started
            // within the horizon; the final route may overhang.
            prop_assert!(l.busy_hours <= m.horizon + scenario.config.expiry_offset + 3.0);
            if l.routes == 0 {
                prop_assert_eq!(l.tasks_delivered, 0);
                prop_assert!(l.earnings.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn runs_are_deterministic(scenario in arb_scenario(), config in arb_config()) {
        prop_assert_eq!(run(&scenario, &config), run(&scenario, &config));
    }

    #[test]
    fn faulted_runs_conserve_tasks_and_are_deterministic(
        scenario in arb_scenario(),
        config in arb_config(),
        plan in arb_faults(),
    ) {
        let cfg = config.with_faults(plan);
        let m = run(&scenario, &cfg);
        prop_assert_eq!(m.tasks_arrived, scenario.tasks.len());
        prop_assert!(
            m.is_conserved(),
            "completed {} + expired {} + pending {} + cancelled {} + abandoned {} != arrived {}",
            m.tasks_completed, m.tasks_expired, m.tasks_pending,
            m.tasks_cancelled, m.tasks_abandoned, m.tasks_arrived
        );
        let delivered: usize = m.ledgers.iter().map(|l| l.tasks_delivered).sum();
        prop_assert_eq!(delivered, m.tasks_completed);
        // Same scenario + same fault seed reproduces the same day.
        prop_assert_eq!(m, run(&scenario, &cfg));
    }

    /// Incremental re-solving is a speed path. The deterministic
    /// algorithms (GTA, MPTA, Random) must reproduce the cold day bit for
    /// bit. A warm start may lead the iterative games (FGT, IEGT) to a
    /// different equilibrium, but never to a day that drops most of the
    /// work: the incremental day completes at least half the tasks the
    /// cold day does.
    #[test]
    fn incremental_day_keeps_up_with_the_cold_day(
        scenario in arb_scenario(),
        period in 0.1f64..0.6,
        algorithm in 0usize..5,
    ) {
        let algorithm = [
            Algorithm::Gta,
            Algorithm::Mpta(MptaConfig::default()),
            Algorithm::Random { seed: 3 },
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
        ][algorithm];
        let config = SimConfig {
            horizon: 2.0,
            assignment_period: period,
            vdps: VdpsConfig::pruned(1.5, 3),
            ..SimConfig::day(algorithm)
        };
        let cold = run(&scenario, &config);
        let warm = run(&scenario, &config.clone().with_incremental());
        match algorithm {
            Algorithm::Fgt(_) | Algorithm::Iegt(_) => {
                prop_assert!(
                    2 * warm.tasks_completed >= cold.tasks_completed,
                    "{}: incremental day completed {} of the cold day's {}",
                    algorithm.name(),
                    warm.tasks_completed,
                    cold.tasks_completed
                );
            }
            _ => prop_assert_eq!(cold, warm, "{} diverged", algorithm.name()),
        }
    }
}
