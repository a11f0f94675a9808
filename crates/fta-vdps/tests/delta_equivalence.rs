//! Property-based equivalence of [`fta_vdps::delta_update`] against a
//! cold regeneration. For any base center and any churn script (aging,
//! arrivals, removals, reward changes, loosened deadlines) the updater
//! declines exactly when the script dirtied a delivery point (new or
//! loosened) or broke a tightened entry's cached order. Otherwise the
//! delta-updated pool is bit-identical — content and (size, mask) order —
//! to [`fta_vdps::generate_c_vdps`] on the churned instance.
//!
//! Each property tallies how many cases took the update path and asserts
//! a floor on it, so none can pass by declining everything.

use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
use fta_core::geometry::Point;
use fta_core::ids::{CenterId, DeliveryPointId, TaskId, WorkerId};
use fta_core::instance::Instance;
use fta_core::route::Route;
use fta_vdps::generator::generate_c_vdps;
use fta_vdps::{
    delta_update, delta_update_with_provenance, kernel, PoolCache, SlotCache, StrategySpace,
    VdpsConfig,
};
use proptest::prelude::*;
use std::cell::Cell;

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

thread_local! {
    /// `(applied, declined)` delta updates of the property running on
    /// this thread.
    static TALLY: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn tally(applied: bool) {
    TALLY.with(|t| {
        let (a, d) = t.get();
        t.set(if applied { (a + 1, d) } else { (a, d + 1) });
    });
}

/// Runs `property` and returns its `(applied, declined)` tally.
fn tallied(property: fn()) -> (usize, usize) {
    TALLY.with(|t| t.set((0, 0)));
    property();
    TALLY.with(Cell::get)
}

/// The center's view, or an empty one when every task died.
fn first_view(instance: &Instance) -> fta_core::instance::CenterView {
    instance
        .center_views()
        .first()
        .cloned()
        .unwrap_or(fta_core::instance::CenterView {
            center: CenterId(0),
            workers: Vec::new(),
            dps: Vec::new(),
        })
}

/// Oracle for the decline rule, computed from the cache's public fields
/// rather than the updater's classification: a delivery point of the new
/// view that is new to the cache or has a later earliest expiry, or a
/// surviving cached entry (every member still present, within the length
/// cap) whose cached arrival misses a stop's new deadline.
fn needs_rediscovery(instance: &Instance, config: &VdpsConfig, cache: &PoolCache) -> bool {
    let aggs = instance.dp_aggregates();
    let view = first_view(instance);
    let dirty = view
        .dps
        .iter()
        .any(|dp| match cache.dp_ids.iter().position(|id| id == dp) {
            None => true,
            Some(old) => aggs[dp.index()].earliest_expiry > cache.aggregates[old].earliest_expiry,
        });
    let broken = cache.pool.iter().any(|v| {
        let stops = v.stops;
        stops.len() <= config.max_len
            && stops.iter().all(|dp| view.dps.contains(dp))
            && stops
                .iter()
                .zip(v.offsets)
                .any(|(dp, &arrival)| arrival > aggs[dp.index()].earliest_expiry)
    });
    dirty || broken
}

/// Runs the delta update on `instance` and checks it against the oracle:
/// declined exactly when rediscovery is needed, and otherwise
/// bit-identical to a cold regeneration. Tallies and returns whether it
/// applied.
fn check_delta(instance: &Instance, config: &VdpsConfig, cache: &PoolCache) -> bool {
    let aggs = instance.dp_aggregates();
    let view = first_view(instance);
    prop_assert!(cache.fits(instance, &view, config));
    let delta = delta_update(instance, &aggs, &view, config, cache);
    prop_assert_eq!(
        delta.is_none(),
        needs_rediscovery(instance, config, cache),
        "declined iff a point went dirty or a tightened order broke"
    );
    tally(delta.is_some());
    let Some((delta, _)) = delta else {
        return false;
    };
    let (regen, _) = generate_c_vdps(instance, &aggs, &view, config);
    assert_eq!(delta.len(), regen.len(), "pool sizes differ");
    for (d, r) in delta.iter().zip(regen.iter()) {
        assert_eq!(d.mask, r.mask, "masks differ");
        assert_eq!(d.stops, r.stops, "visiting orders differ");
        assert_eq!(
            d.slack.to_bits(),
            r.slack.to_bits(),
            "slacks not bit-identical"
        );
        assert_eq!(
            d.total_reward.to_bits(),
            r.total_reward.to_bits(),
            "rewards not bit-identical"
        );
        for (a, b) in d.offsets.iter().zip(r.offsets) {
            assert_eq!(a.to_bits(), b.to_bits(), "arrivals not bit-identical");
        }
        // And, independently of the regeneration, a full rebuild.
        let built = Route::build(instance, &aggs, view.center, d.stops.to_vec())
            .expect("rows reference valid delivery points");
        assert_eq!(
            (
                d.total_reward.to_bits(),
                d.slack.to_bits(),
                d.travel_from_dc.to_bits()
            ),
            (
                built.total_reward().to_bits(),
                built.slack().to_bits(),
                built.travel_from_dc().to_bits()
            ),
            "row differs from Route::build"
        );
        for (a, b) in d.offsets.iter().zip(built.arrival_offsets()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "arrivals differ from Route::build"
            );
        }
    }
    true
}

fn config_for(pruned: bool) -> VdpsConfig {
    if pruned {
        VdpsConfig::pruned(3.0, 3)
    } else {
        VdpsConfig::unpruned(3)
    }
}

/// Generates `base`'s pool and captures it.
fn cache_of(base: &Instance, config: &VdpsConfig) -> PoolCache {
    let aggs = base.dp_aggregates();
    let views = base.center_views();
    let (pool, stats) = generate_c_vdps(base, &aggs, &views[0], config);
    PoolCache::capture(base, &aggs, &views[0], config, &pool, &stats)
}

/// Churn that can only remove, age, or re-reward tasks: it never dirties
/// a point.
fn arb_shrinking_churn() -> impl Strategy<Value = Churn> {
    prop_oneof![
        (0usize..32).prop_map(Churn::Remove),
        ((0usize..32), 0.25f64..2.0).prop_map(|(i, dr)| Churn::Reward(i, dr)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any churn script over any base center, unpruned and ε-pruned.
    fn any_churn_declines_exactly_when_needed(
        base in arb_instance(),
        script in prop::collection::vec(arb_churn(), 0..6),
        age in 0.0f64..3.0,
        pruned in prop::bool::ANY,
    ) {
        let config = config_for(pruned);
        let cache = cache_of(&base, &config);
        check_delta(&apply_churn(&base, &script, age), &config, &cache);
    }

    /// Removal and reward scripts plus (sometimes no) aging: nothing is
    /// ever dirty, so only a broken tightened order may decline.
    fn shrinking_churn_declines_only_on_broken_orders(
        base in arb_instance(),
        script in prop::collection::vec(arb_shrinking_churn(), 0..6),
        age in prop_oneof![Just(0.0f64), 0.0f64..1.0],
        pruned in prop::bool::ANY,
    ) {
        let config = config_for(pruned);
        let cache = cache_of(&base, &config);
        let churned = apply_churn(&base, &script, age);
        let applied = check_delta(&churned, &config, &cache);
        prop_assert!(applied || age > 0.0, "removal and reward alone must apply");
    }

    /// Pure aging — the dominant churn in a round loop.
    fn pure_aging_cases(
        base in arb_instance(),
        age in 0.0f64..6.0,
    ) {
        let config = VdpsConfig::unpruned(3);
        let cache = cache_of(&base, &config);
        check_delta(&apply_churn(&base, &[], age), &config, &cache);
    }

    /// Whenever the delta applies, the provenance-guided strategy-space
    /// rebuild ([`StrategySpace::from_pool_delta`]) is bit-identical to a
    /// full [`StrategySpace::from_pool`] over the same delta-updated pool:
    /// slots, payoffs, masks, and the monotone best response.
    fn from_pool_delta_cases(
        base in arb_instance(),
        script in prop::collection::vec(arb_churn(), 0..6),
        age in 0.0f64..3.0,
        pruned in prop::bool::ANY,
    ) {
        let config = config_for(pruned);
        let aggs = base.dp_aggregates();
        let views = base.center_views();
        prop_assert!(!views.is_empty());
        let (pool, stats) = generate_c_vdps(&base, &aggs, &views[0], &config);
        let cache = PoolCache::capture(&base, &aggs, &views[0], &config, &pool, &stats);
        let base_space = StrategySpace::from_pool(&base, &views[0], pool, stats);
        let slots = SlotCache::capture(&base_space);

        let churned = apply_churn(&base, &script, age);
        let aggs2 = churned.dp_aggregates();
        let view2 = first_view(&churned);
        let delta = delta_update_with_provenance(&churned, &aggs2, &view2, &config, &cache);
        tally(delta.is_some());
        if let Some((pool2, prov, dstats)) = delta {
            let gen2 = dstats.as_gen_stats(pool2.len());
            let cold = StrategySpace::from_pool(&churned, &view2, pool2.clone(), gen2);
            let warm =
                StrategySpace::from_pool_delta(&churned, view2.clone(), pool2, &prov, &slots, gen2);

            prop_assert_eq!(warm.total_slots(), cold.total_slots());
            for local in 0..cold.n_workers() {
                prop_assert_eq!(warm.valid_of(local), cold.valid_of(local), "valid sets differ");
                prop_assert_eq!(warm.masks_of(local), cold.masks_of(local), "masks differ");
                for (a, b) in warm.payoffs_of(local).iter().zip(cold.payoffs_of(local)) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "payoffs not bit-identical");
                }
                // The warm space answers the monotone best response exactly
                // as a first-hit scan over the cold space's payoff-sorted
                // list.
                for taken in [0, cold.pool.masks().first().copied().unwrap_or(0)] {
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
}

#[test]
fn delta_update_matches_cold_regeneration() {
    let (applied, declined) = tallied(any_churn_declines_exactly_when_needed);
    assert!(applied >= 40, "only {applied} of 256 cases applied");
    assert!(declined >= 40, "only {declined} of 256 cases declined");
}

#[test]
fn removal_aging_and_reward_churn_takes_the_update_path() {
    let (applied, _) = tallied(shrinking_churn_declines_only_on_broken_orders);
    assert!(applied >= 128, "only {applied} of 256 cases applied");
}

#[test]
fn pure_aging_matches_regen_without_discovery() {
    let (applied, _) = tallied(pure_aging_cases);
    assert!(applied >= 40, "only {applied} of 256 aging cases applied");
}

#[test]
fn from_pool_delta_space_matches_cold_build() {
    let (applied, _) = tallied(from_pool_delta_cases);
    assert!(applied >= 40, "only {applied} of 256 cases applied");
}
