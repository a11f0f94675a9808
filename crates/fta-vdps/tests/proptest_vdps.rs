//! Property-based tests of the C-VDPS dynamic program against the
//! brute-force reference on randomly generated centers.

use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
use fta_core::geometry::Point;
use fta_core::ids::{CenterId, DeliveryPointId, TaskId, WorkerId};
use fta_core::instance::{CenterView, Instance};
use fta_core::route::Route;
use fta_vdps::generator::generate_c_vdps;
use fta_vdps::naive::generate_naive;
use fta_vdps::{generate_c_vdps_in, StrategySpace, VdpsConfig, VdpsPool};

#[path = "support/hashmap_dp.rs"]
mod hashmap_dp;
use hashmap_dp::generate_c_vdps_hashmap;
use proptest::prelude::*;

/// Every row of `pool` equals a full [`Route::build`] of its stops, bit
/// for bit in every field, and its mask is exactly its stops' local bits.
fn assert_rows_are_rebuilds(instance: &Instance, view: &CenterView, pool: &VdpsPool) {
    let aggregates = instance.dp_aggregates();
    for r in 0..pool.len() {
        let row = pool.row(r);
        let built = Route::build(instance, &aggregates, view.center, row.stops.to_vec())
            .expect("rows reference valid delivery points");
        let mask = row.stops.iter().fold(0u128, |m, dp| {
            m | 1 << view.dps.iter().position(|d| d == dp).expect("stop in view")
        });
        assert_eq!(mask, row.mask, "row {r}: mask and stops disagree");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(row.offsets),
            bits(built.arrival_offsets()),
            "row {r}: offsets"
        );
        assert_eq!(
            row.total_reward.to_bits(),
            built.total_reward().to_bits(),
            "row {r}: reward"
        );
        assert_eq!(
            row.slack.to_bits(),
            built.slack().to_bits(),
            "row {r}: slack"
        );
        assert_eq!(
            row.travel_from_dc.to_bits(),
            built.travel_from_dc().to_bits(),
            "row {r}: travel"
        );
        assert_eq!(pool.route(r), built, "row {r}: assembled route");
    }
}

/// (x, y, expiry) triples become a random single-center instance.
fn arb_center() -> impl Strategy<Value = Instance> {
    let dp = (0.0f64..8.0, 0.0f64..8.0, 0.5f64..16.0);
    prop::collection::vec(dp, 1..7).prop_map(|dps| {
        let delivery_points: Vec<DeliveryPoint> = dps
            .iter()
            .enumerate()
            .map(|(i, &(x, y, _))| DeliveryPoint {
                id: DeliveryPointId::from_index(i),
                location: Point::new(x, y),
                center: CenterId(0),
            })
            .collect();
        let tasks: Vec<SpatialTask> = dps
            .iter()
            .enumerate()
            .map(|(i, &(_, _, e))| SpatialTask {
                id: TaskId::from_index(i),
                delivery_point: DeliveryPointId::from_index(i),
                expiry: e,
                reward: 1.0,
            })
            .collect();
        Instance::new(
            vec![DistributionCenter {
                id: CenterId(0),
                location: Point::new(4.0, 4.0),
            }],
            vec![Worker {
                id: WorkerId(0),
                location: Point::new(3.0, 4.0),
                max_dp: dps.len(),
                center: CenterId(0),
            }],
            delivery_points,
            tasks,
            1.0,
        )
        .expect("generated instances are valid")
    })
}

fn arb_config() -> impl Strategy<Value = VdpsConfig> {
    (prop::option::of(0.5f64..12.0), 1usize..6)
        .prop_map(|(epsilon, max_len)| VdpsConfig { epsilon, max_len })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dp_equals_brute_force(instance in arb_center(), config in arb_config()) {
        let aggs = instance.dp_aggregates();
        let views = instance.center_views();
        let naive = generate_naive(&instance, &aggs, &views[0], &config);
        let (fast, _) = generate_c_vdps(&instance, &aggs, &views[0], &config);
        prop_assert_eq!(naive.len(), fast.len(), "different VDPS counts");
        for (a, b) in naive.iter().zip(fast.iter()) {
            prop_assert_eq!(a.mask, b.mask);
            prop_assert!(
                (a.travel_from_dc - b.travel_from_dc).abs() < 1e-9,
                "travel time differs on mask {:#b}", a.mask
            );
        }
    }

    #[test]
    fn every_emitted_route_is_deadline_feasible(
        instance in arb_center(),
        config in arb_config(),
    ) {
        let aggs = instance.dp_aggregates();
        let views = instance.center_views();
        let (pool, _) = generate_c_vdps(&instance, &aggs, &views[0], &config);
        for vdps in pool.iter() {
            prop_assert!(vdps.slack >= 0.0);
            prop_assert!(vdps.len() <= config.max_len);
            // The mask and the route agree on membership.
            let mut mask = 0u128;
            for dp in vdps.stops {
                let local = views[0].dps.iter().position(|d| d == dp).unwrap();
                mask |= 1 << local;
            }
            prop_assert_eq!(mask, vdps.mask);
        }
    }

    #[test]
    fn pruned_pool_is_subset_of_unpruned(
        instance in arb_center(),
        epsilon in 0.5f64..12.0,
        max_len in 1usize..6,
    ) {
        let aggs = instance.dp_aggregates();
        let views = instance.center_views();
        let (pruned, pruned_stats) =
            generate_c_vdps(&instance, &aggs, &views[0], &VdpsConfig::pruned(epsilon, max_len));
        let (unpruned, unpruned_stats) =
            generate_c_vdps(&instance, &aggs, &views[0], &VdpsConfig::unpruned(max_len));
        let unpruned_masks: std::collections::HashSet<u128> =
            unpruned.iter().map(|v| v.mask).collect();
        for v in pruned.iter() {
            prop_assert!(unpruned_masks.contains(&v.mask));
        }
        prop_assert!(pruned_stats.states <= unpruned_stats.states);
    }

    /// ISSUE 2 satellite: the flat engine, the hash-map oracle, and the
    /// brute-force reference produce identical `(mask, route, travel-time)`
    /// pools — order included — and the two DP engines report identical
    /// pruning counters, for ε ∈ {None, Some(random)}.
    #[test]
    fn all_three_engines_agree_bit_identically(
        instance in arb_center(),
        config in arb_config(),
    ) {
        let aggs = instance.dp_aggregates();
        let views = instance.center_views();
        let naive = generate_naive(&instance, &aggs, &views[0], &config);
        let (hashed, hashed_stats) =
            generate_c_vdps_hashmap(&instance, &aggs, &views[0], &config);
        let (flat, flat_stats) =
            generate_c_vdps_in(&instance, &aggs, &views[0], &config, None);

        // Flat vs hashmap: bit-identical pools (mask, route, travel time)
        // and identical work/pruning counters.
        prop_assert_eq!(flat.len(), hashed.len(), "flat vs hashmap pool size");
        for (f, h) in flat.iter().zip(hashed.iter()) {
            prop_assert_eq!(f.mask, h.mask);
            prop_assert_eq!(f.stops, h.stops, "route differs on mask {:#b}", f.mask);
            prop_assert_eq!(
                f.travel_from_dc.to_bits(),
                h.travel_from_dc.to_bits(),
                "travel time not bit-identical on mask {:#b}", f.mask
            );
        }
        prop_assert_eq!(flat_stats.work_counters(), hashed_stats.work_counters());

        // Both DP engines vs the brute-force reference (travel times agree
        // up to float tolerance; the reference computes them differently).
        prop_assert_eq!(naive.len(), flat.len(), "flat vs naive pool size");
        for (n, f) in naive.iter().zip(flat.iter()) {
            prop_assert_eq!(n.mask, f.mask);
            prop_assert!(
                (n.travel_from_dc - f.travel_from_dc).abs() < 1e-9,
                "travel time differs from reference on mask {:#b}", n.mask
            );
        }
    }

    /// Flat and hash-map pool rows are full `Route::build`s of their
    /// stops in every field.
    #[test]
    fn every_row_equals_a_full_rebuild(instance in arb_center(), config in arb_config()) {
        let aggs = instance.dp_aggregates();
        let views = instance.center_views();
        let (flat, _) = generate_c_vdps_in(&instance, &aggs, &views[0], &config, None);
        let (hashed, _) = generate_c_vdps_hashmap(&instance, &aggs, &views[0], &config);
        assert_rows_are_rebuilds(&instance, &views[0], &flat);
        assert_rows_are_rebuilds(&instance, &views[0], &hashed);
    }

    #[test]
    fn strategy_space_payoffs_match_route_payoffs(
        instance in arb_center(),
        config in arb_config(),
    ) {
        use fta_core::payoff::worker_payoff;
        let views = instance.center_views();
        let space = StrategySpace::build(&instance, &views[0], &config);
        for local in 0..space.n_workers() {
            let worker = space.worker_id(local);
            for (idx, payoff) in space.strategies(local) {
                let route = &space.pool.route(idx as usize);
                prop_assert!(route.is_valid_for(&instance, worker));
                let direct = worker_payoff(&instance, worker, route);
                prop_assert!((payoff - direct).abs() < 1e-9);
            }
        }
    }
}
