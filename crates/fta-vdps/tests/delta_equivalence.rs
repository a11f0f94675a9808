//! Property-based equivalence of [`fta_vdps::delta_update`] against a
//! cold regeneration: for any base center and any churn script (aging,
//! arrivals, removals, reward changes), the delta-updated pool must be
//! bit-identical — content and (size, mask) order — to
//! [`fta_vdps::generate_c_vdps`] on the churned instance.

use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
use fta_core::geometry::Point;
use fta_core::ids::{CenterId, DeliveryPointId, TaskId, WorkerId};
use fta_core::instance::Instance;
use fta_vdps::generator::generate_c_vdps;
use fta_vdps::{
    delta_update, delta_update_with_provenance, kernel, PoolCache, SlotCache, StrategySpace,
    VdpsConfig,
};
use proptest::prelude::*;

/// One churn step applied to a task index (modulo the live task count).
#[derive(Debug, Clone)]
enum Churn {
    /// Remove the task at `index % len`.
    Remove(usize),
    /// Add `reward` to the task at `index % len`.
    Reward(usize, f64),
    /// Append a task at a fresh delivery point.
    Arrive {
        x: f64,
        y: f64,
        expiry: f64,
        reward: f64,
    },
    /// Loosen the deadline of the task at `index % len`.
    Loosen(usize, f64),
}

/// Reference best response: sort `local`'s slots by payoff descending
/// (stable, so ties keep ascending pool index) and take the first one
/// disjoint from `taken`. Returns its pool index and payoff-order rank.
fn first_hit_by_payoff(space: &StrategySpace, local: usize, taken: u128) -> Option<(u32, usize)> {
    let payoffs = space.payoffs_of(local);
    let mut order: Vec<usize> = (0..payoffs.len()).collect();
    order.sort_by(|&a, &b| payoffs[b].total_cmp(&payoffs[a]));
    order
        .iter()
        .position(|&pos| space.masks_of(local)[pos] & taken == 0)
        .map(|rank| (space.valid_of(local)[order[rank]], rank))
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    let dp = (0.0f64..8.0, 0.0f64..8.0, 0.5f64..16.0, 1.0f64..3.0);
    prop::collection::vec(dp, 2..9).prop_map(|dps| {
        let delivery_points: Vec<DeliveryPoint> = dps
            .iter()
            .enumerate()
            .map(|(i, &(x, y, _, _))| DeliveryPoint {
                id: DeliveryPointId::from_index(i),
                location: Point::new(x, y),
                center: CenterId(0),
            })
            .collect();
        let tasks: Vec<SpatialTask> = dps
            .iter()
            .enumerate()
            .map(|(i, &(_, _, e, r))| SpatialTask {
                id: TaskId::from_index(i),
                delivery_point: DeliveryPointId::from_index(i),
                expiry: e,
                reward: r,
            })
            .collect();
        Instance::new(
            vec![DistributionCenter {
                id: CenterId(0),
                location: Point::new(4.0, 4.0),
            }],
            vec![Worker {
                id: WorkerId(0),
                location: Point::new(4.0, 4.0),
                max_dp: 3,
                center: CenterId(0),
            }],
            delivery_points,
            tasks,
            1.0,
        )
        .expect("generated instances are valid")
    })
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    prop_oneof![
        (0usize..32).prop_map(Churn::Remove),
        ((0usize..32), 0.25f64..2.0).prop_map(|(i, dr)| Churn::Reward(i, dr)),
        ((0.0f64..8.0), (0.0f64..8.0), (0.5f64..16.0), (1.0f64..3.0)).prop_map(
            |(x, y, expiry, reward)| Churn::Arrive {
                x,
                y,
                expiry,
                reward
            }
        ),
        ((0usize..32), 0.5f64..4.0).prop_map(|(i, de)| Churn::Loosen(i, de)),
    ]
}

/// Applies the churn script the way a round loop would: first the
/// discrete events, then aging (shrink every expiry by `age`, drop the
/// dead). New delivery points are appended to the instance so ids stay
/// dense.
fn apply_churn(base: &Instance, script: &[Churn], age: f64) -> Instance {
    let mut dps = base.delivery_points.clone();
    let mut tasks = base.tasks.clone();
    for step in script {
        match step {
            Churn::Remove(i) => {
                if !tasks.is_empty() {
                    let i = i % tasks.len();
                    tasks.remove(i);
                }
            }
            Churn::Reward(i, dr) => {
                if !tasks.is_empty() {
                    let i = i % tasks.len();
                    tasks[i].reward += dr;
                }
            }
            Churn::Arrive {
                x,
                y,
                expiry,
                reward,
            } => {
                let dp = DeliveryPointId::from_index(dps.len());
                dps.push(DeliveryPoint {
                    id: dp,
                    location: Point::new(*x, *y),
                    center: CenterId(0),
                });
                tasks.push(SpatialTask {
                    id: TaskId::from_index(0), // re-numbered below
                    delivery_point: dp,
                    expiry: *expiry,
                    reward: *reward,
                });
            }
            Churn::Loosen(i, de) => {
                if !tasks.is_empty() {
                    let i = i % tasks.len();
                    tasks[i].expiry += de;
                }
            }
        }
    }
    tasks.retain(|t| t.expiry > age);
    for (i, t) in tasks.iter_mut().enumerate() {
        t.expiry -= age;
        t.id = TaskId::from_index(i);
    }
    Instance::new(
        base.centers.clone(),
        base.workers.clone(),
        dps,
        tasks,
        base.speed,
    )
    .expect("churned instances stay valid")
}

fn assert_pools_bit_identical(instance: &Instance, config: &VdpsConfig, cache: &PoolCache) {
    let aggs = instance.dp_aggregates();
    let views = instance.center_views();
    let view = views
        .first()
        .cloned()
        .unwrap_or(fta_core::instance::CenterView {
            center: CenterId(0),
            workers: Vec::new(),
            dps: Vec::new(),
        });
    let (regen, _) = generate_c_vdps(instance, &aggs, &view, config);
    let (delta, _) = delta_update(instance, &aggs, &view, config, cache)
        .expect("delta supports add/remove/reward/age churn");
    assert_eq!(delta.len(), regen.len(), "pool sizes differ");
    for (d, r) in delta.iter().zip(regen.iter()) {
        assert_eq!(d.mask, r.mask, "masks differ");
        assert_eq!(d.route.dps(), r.route.dps(), "visiting orders differ");
        assert_eq!(
            d.route.slack().to_bits(),
            r.route.slack().to_bits(),
            "slacks not bit-identical"
        );
        assert_eq!(
            d.route.total_reward().to_bits(),
            r.route.total_reward().to_bits(),
            "rewards not bit-identical"
        );
        for (a, b) in d
            .route
            .arrival_offsets()
            .iter()
            .zip(r.route.arrival_offsets())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "arrivals not bit-identical");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any churn script over any base center: delta == cold regen, bit
    /// for bit, both unpruned and ε-pruned.
    #[test]
    fn delta_update_matches_cold_regeneration(
        base in arb_instance(),
        script in prop::collection::vec(arb_churn(), 0..6),
        age in 0.0f64..3.0,
        pruned in prop::bool::ANY,
    ) {
        let config = if pruned {
            VdpsConfig::pruned(3.0, 3)
        } else {
            VdpsConfig::unpruned(3)
        };
        let aggs = base.dp_aggregates();
        let views = base.center_views();
        prop_assert!(!views.is_empty());
        let (pool, stats) = generate_c_vdps(&base, &aggs, &views[0], &config);
        let cache = PoolCache::capture(&base, &aggs, &views[0], &config, &pool, &stats);
        let churned = apply_churn(&base, &script, age);
        assert_pools_bit_identical(&churned, &config, &cache);
    }

    /// The provenance-guided strategy-space rebuild
    /// ([`StrategySpace::from_pool_delta`]) is bit-identical to a full
    /// [`StrategySpace::from_pool`] over the same delta-updated pool:
    /// slots, payoffs, masks, and the monotone best response.
    #[test]
    fn from_pool_delta_space_matches_cold_build(
        base in arb_instance(),
        script in prop::collection::vec(arb_churn(), 0..6),
        age in 0.0f64..3.0,
        pruned in prop::bool::ANY,
    ) {
        let config = if pruned {
            VdpsConfig::pruned(3.0, 3)
        } else {
            VdpsConfig::unpruned(3)
        };
        let aggs = base.dp_aggregates();
        let views = base.center_views();
        prop_assert!(!views.is_empty());
        let (pool, stats) = generate_c_vdps(&base, &aggs, &views[0], &config);
        let cache = PoolCache::capture(&base, &aggs, &views[0], &config, &pool, &stats);
        let base_space = StrategySpace::from_pool(&base, &views[0], pool, stats);
        let slots = SlotCache::capture(&base_space);

        let churned = apply_churn(&base, &script, age);
        let aggs2 = churned.dp_aggregates();
        let views2 = churned.center_views();
        if !views2.is_empty() {
        let (pool2, prov, dstats) =
            delta_update_with_provenance(&churned, &aggs2, &views2[0], &config, &cache)
                .expect("delta supports add/remove/reward/age churn");
        let gen2 = dstats.as_gen_stats(pool2.len());
        let cold = StrategySpace::from_pool(&churned, &views2[0], pool2.clone(), gen2);
        let warm =
            StrategySpace::from_pool_delta(&churned, views2[0].clone(), pool2, &prov, &slots, gen2);

        prop_assert_eq!(warm.total_slots(), cold.total_slots());
        for local in 0..cold.n_workers() {
            prop_assert_eq!(warm.valid_of(local), cold.valid_of(local), "valid sets differ");
            prop_assert_eq!(warm.masks_of(local), cold.masks_of(local), "masks differ");
            for (a, b) in warm.payoffs_of(local).iter().zip(cold.payoffs_of(local)) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "payoffs not bit-identical");
            }
            // The warm space answers the monotone best response exactly as
            // a first-hit scan over the cold space's payoff-sorted list.
            for taken in [0, cold.pool.first().map_or(0, |v| v.mask)] {
                let best = kernel::best_open_chunked(warm.masks_of(local), warm.payoffs_of(local), taken)
                    .map(|pos| (warm.valid_of(local)[pos], kernel::desc_rank(warm.payoffs_of(local), pos)));
                prop_assert_eq!(best, first_hit_by_payoff(&cold, local, taken), "best response differs");
            }
        }
        for (a, b) in warm.worker_to_dc.iter().zip(&cold.worker_to_dc) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "travel times not bit-identical");
        }
        }
    }

    /// Pure aging — the dominant churn in a round loop — never discovers
    /// masks and still matches regeneration exactly.
    #[test]
    fn pure_aging_matches_regen_without_discovery(
        base in arb_instance(),
        age in 0.0f64..6.0,
    ) {
        let config = VdpsConfig::unpruned(3);
        let aggs = base.dp_aggregates();
        let views = base.center_views();
        prop_assert!(!views.is_empty());
        let (pool, stats) = generate_c_vdps(&base, &aggs, &views[0], &config);
        let cache = PoolCache::capture(&base, &aggs, &views[0], &config, &pool, &stats);
        let churned = apply_churn(&base, &[], age);
        let aggs2 = churned.dp_aggregates();
        let views2 = churned.center_views();
        let view2 = views2.first().cloned().unwrap_or(fta_core::instance::CenterView {
            center: CenterId(0),
            workers: Vec::new(),
            dps: Vec::new(),
        });
        let (_, dstats) = delta_update(&churned, &aggs2, &view2, &config, &cache)
            .expect("aging is always delta-supported");
        prop_assert_eq!(dstats.discovered, 0, "tightening can never create masks");
        assert_pools_bit_identical(&churned, &config, &cache);
    }
}
