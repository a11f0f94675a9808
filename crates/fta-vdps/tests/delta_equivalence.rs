//! Property-based equivalence of [`fta_vdps::delta_update`] against a
//! cold regeneration. For any base center and any churn script (aging,
//! arrivals, removals, reward changes, loosened deadlines) the updater
//! declines exactly when the script dirtied a delivery point (new or
//! loosened) or broke a tightened entry's cached order. Otherwise the
//! delta-updated pool is bit-identical — content and (size, mask) order —
//! to [`fta_vdps::generate_c_vdps`] on the churned instance.
//!
//! Whenever the delta applies, the strategy space built from the updated
//! pool is the cold build's — and the materialised oracle's — worker for
//! worker, and every assignment algorithm plays identically over both.
//!
//! Each property tallies how many cases took the update path and asserts
//! a floor on it, so none can pass by declining everything.

use fta_algorithms::{
    fgt, gta, iegt, mpta, random_assignment, BestResponseStats, FgtConfig, GameContext, IegtConfig,
    MptaConfig,
};
use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
use fta_core::geometry::Point;
use fta_core::ids::{CenterId, DeliveryPointId, TaskId, WorkerId};
use fta_core::instance::Instance;
use fta_core::route::Route;
use fta_vdps::generator::generate_c_vdps;
use fta_vdps::{delta_update, kernel, PoolCache, StrategySpace, VdpsConfig};
use proptest::prelude::*;
use std::cell::Cell;

#[path = "support/materialised.rs"]
mod materialised;
#[path = "support/payoff_rank.rs"]
mod payoff_rank;
use materialised::SlotColumns;
use payoff_rank::payoff_rank;

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

/// Reference best response over the materialised oracle: sort `local`'s
/// slots by payoff descending (stable, so ties keep ascending pool index)
/// and take the first one disjoint from `taken`. Returns its pool index
/// and payoff-order rank.
fn first_hit_by_payoff(slots: &SlotColumns, local: usize, taken: u128) -> Option<(u32, usize)> {
    let order = slots.desc_order(local);
    order
        .iter()
        .position(|&pos| slots.masks_of(local)[pos] & taken == 0)
        .map(|rank| (slots.valid_of(local)[order[rank]], rank))
}

/// Every algorithm's selections and best-response counters over `space`:
/// FGT under both candidate searches (the monotone one at the default
/// weights, the exhaustive one at β = 1.5), IEGT, GTA, MPTA and Random.
fn play_all(space: &StrategySpace) -> Vec<(Vec<Option<u32>>, BestResponseStats)> {
    let exhaustive = FgtConfig {
        iau: fta_core::iau::IauParams {
            alpha: 0.5,
            beta: 1.5,
        },
        ..FgtConfig::default()
    };
    let runs: [&dyn Fn(&mut GameContext<'_>) -> BestResponseStats; 6] = [
        &|ctx| fgt(ctx, &FgtConfig::default()).stats,
        &|ctx| fgt(ctx, &exhaustive).stats,
        &|ctx| iegt(ctx, &IegtConfig::default()).stats,
        &|ctx| {
            gta(ctx);
            BestResponseStats::default()
        },
        &|ctx| {
            mpta(ctx, &MptaConfig::default());
            BestResponseStats::default()
        },
        &|ctx| {
            random_assignment(ctx, 7);
            BestResponseStats::default()
        },
    ];
    runs.iter()
        .map(|run| {
            let mut ctx = GameContext::new(space);
            let stats = run(&mut ctx);
            let selections = (0..ctx.n_workers()).map(|l| ctx.selection(l)).collect();
            (selections, stats)
        })
        .collect()
}

/// `instance` with `workers` (location, maxDP) appended at its center.
fn with_workers(instance: &Instance, workers: &[(f64, f64, usize)]) -> Instance {
    let mut all = instance.workers.clone();
    all.extend(workers.iter().map(|&(x, y, max_dp)| Worker {
        id: WorkerId(0), // re-numbered below
        location: Point::new(x, y),
        max_dp,
        center: CenterId(0),
    }));
    for (i, w) in all.iter_mut().enumerate() {
        w.id = WorkerId(i as u32);
    }
    Instance::new(
        instance.centers.clone(),
        all,
        instance.delivery_points.clone(),
        instance.tasks.clone(),
        instance.speed,
    )
    .expect("workers inside the lattice are valid")
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

    /// Whenever the delta applies, the strategy space built from the
    /// delta-updated pool equals the cold build's and the materialised
    /// oracle's (strategies and payoff bits per worker, the monotone best
    /// response), and every algorithm gives identical selections and
    /// counters over the two spaces.
    fn delta_space_cases(
        base in arb_instance(),
        workers in prop::collection::vec((0.0f64..8.0, 0.0f64..8.0, 1usize..4), 0..6),
        script in prop::collection::vec(arb_churn(), 0..6),
        age in 0.0f64..3.0,
        pruned in prop::bool::ANY,
    ) {
        let config = config_for(pruned);
        let base = with_workers(&base, &workers);
        let cache = cache_of(&base, &config);
        let churned = apply_churn(&base, &script, age);
        let aggs = churned.dp_aggregates();
        let view = first_view(&churned);
        let delta = delta_update(&churned, &aggs, &view, &config, &cache);
        tally(delta.is_some());
        if let Some((pool, dstats)) = delta {
            let gen = dstats.as_gen_stats(pool.len());
            let warm = StrategySpace::from_pool(&churned, &view, pool, gen);
            let (cold_pool, cold_stats) = generate_c_vdps(&churned, &aggs, &view, &config);
            let cold = StrategySpace::from_pool(&churned, &view, cold_pool, cold_stats);
            let oracle = SlotColumns::of(&cold);

            prop_assert_eq!(warm.total_slots(), cold.total_slots());
            prop_assert_eq!(warm.total_slots(), oracle.total_slots());
            for local in 0..cold.n_workers() {
                let want: Vec<(u32, u64)> = oracle
                    .valid_of(local)
                    .iter()
                    .zip(oracle.payoffs_of(local))
                    .map(|(&i, p)| (i, p.to_bits()))
                    .collect();
                for space in [&warm, &cold] {
                    let got: Vec<(u32, u64)> =
                        space.strategies(local).map(|(i, p)| (i, p.to_bits())).collect();
                    prop_assert_eq!(&got, &want, "strategies differ from the oracle");
                }
                // The warm space answers the monotone best response exactly
                // as a first-hit scan over the oracle's payoff-sorted list.
                for taken in [0, cold.pool.masks().first().copied().unwrap_or(0)] {
                    let rows = warm.rows(local);
                    let best = kernel::best_open(&rows, taken)
                        .map(|(pos, p)| (rows.pool_idx[pos], payoff_rank(&rows, rows.pool_idx[pos], p)));
                    prop_assert_eq!(best, first_hit_by_payoff(&oracle, local, taken), "best response differs");
                }
            }
            prop_assert_eq!(play_all(&warm), play_all(&cold), "an algorithm diverged");
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
fn delta_pool_space_matches_cold_build() {
    let (applied, _) = tallied(delta_space_cases);
    assert!(applied >= 40, "only {applied} of 256 cases applied");
}
