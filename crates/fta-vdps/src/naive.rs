//! Brute-force reference C-VDPS generator.
//!
//! Enumerates every subset (up to the length cap) and every permutation of
//! each subset, checking deadline feasibility directly against Definition 6.
//! Exponential in both subset size and count — usable only for tiny centers
//! — but trivially correct, so the tests validate the dynamic program of
//! [`crate::generator`] against it.

use crate::columns::VdpsPool;
use crate::config::VdpsConfig;
use fta_core::instance::{CenterView, DpAggregate, Instance};
use fta_core::route::Route;
use fta_core::DeliveryPointId;

/// Generates all C-VDPSs by exhaustive enumeration.
///
/// Applies the same ε-pruning rule as the dynamic program (hops longer than
/// ε disqualify a *permutation*, and a subset survives only if some
/// unpruned feasible permutation exists), so outputs are comparable
/// one-to-one with [`crate::generator::generate_c_vdps`].
///
/// # Panics
///
/// Panics if the center has more than 20 delivery points; the reference
/// implementation exists for validation and as a benchmark baseline, and
/// enumerates all `2^n` masks before filtering by length.
#[must_use]
pub fn generate_naive(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    config: &VdpsConfig,
) -> VdpsPool {
    let n = view.dps.len();
    assert!(n <= 20, "naive generation is restricted to tiny centers");
    let dc = instance.centers[view.center.index()].location;
    let speed = instance.speed;
    let locs: Vec<_> = view
        .dps
        .iter()
        .map(|dp| instance.delivery_points[dp.index()].location)
        .collect();
    let expiry: Vec<f64> = view
        .dps
        .iter()
        .map(|dp| aggregates[dp.index()].earliest_expiry)
        .collect();

    let mut result = VdpsPool::new(view.center);
    let mut masks: Vec<u128> = (1u128..(1u128 << n))
        .filter(|m| (m.count_ones() as usize) <= config.max_len)
        .collect();
    masks.sort_by_key(|m| (m.count_ones(), *m));

    for mask in masks {
        let members: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let mut best: Option<(f64, Vec<usize>)> = None;
        permutations(&members, &mut |perm| {
            let mut t = 0.0;
            let mut prev = dc;
            for &i in perm {
                let hop = prev.distance(locs[i]);
                // ε applies only to dp→dp hops, matching the DP.
                if prev != dc && !config.allows_hop(hop) {
                    return;
                }
                t += hop / speed;
                if t > expiry[i] {
                    return;
                }
                prev = locs[i];
            }
            if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
                best = Some((t, perm.to_vec()));
            }
        });
        if let Some((_, order)) = best {
            let dps: Vec<DeliveryPointId> = order.iter().map(|&i| view.dps[i]).collect();
            let route = Route::build(instance, aggregates, view.center, dps)
                .expect("enumerated delivery points are valid");
            result.push_route(mask, &route);
        }
    }
    result
}

/// Calls `f` with every permutation of `items` (Heap's algorithm, iterative
/// buffer variant).
fn permutations(items: &[usize], f: &mut impl FnMut(&[usize])) {
    fn go(buf: &mut Vec<usize>, rest: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
        if rest.is_empty() {
            f(buf);
            return;
        }
        for i in 0..rest.len() {
            let item = rest.remove(i);
            buf.push(item);
            go(buf, rest, f);
            buf.pop();
            rest.insert(i, item);
        }
    }
    go(&mut Vec::with_capacity(items.len()), &mut items.to_vec(), f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_c_vdps;
    use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
    use fta_core::geometry::Point;
    use fta_core::ids::{CenterId, TaskId, WorkerId};

    fn scatter_instance(points: &[(f64, f64, f64)]) -> Instance {
        // (x, y, expiry) per dp; dc at origin, speed 1.
        let dps: Vec<DeliveryPoint> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y, _))| DeliveryPoint {
                id: DeliveryPointId::from_index(i),
                location: Point::new(x, y),
                center: CenterId(0),
            })
            .collect();
        let tasks: Vec<SpatialTask> = points
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
                location: Point::new(0.0, 0.0),
            }],
            vec![Worker {
                id: WorkerId(0),
                location: Point::new(0.0, 0.0),
                max_dp: 5,
                center: CenterId(0),
            }],
            dps,
            tasks,
            1.0,
        )
        .unwrap()
    }

    fn check_equivalence(points: &[(f64, f64, f64)], cfg: &VdpsConfig) {
        let inst = scatter_instance(points);
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let naive = generate_naive(&inst, &aggs, &views[0], cfg);
        let (dp, _) = generate_c_vdps(&inst, &aggs, &views[0], cfg);
        let naive_masks: Vec<u128> = naive.iter().map(|v| v.mask).collect();
        let dp_masks: Vec<u128> = dp.iter().map(|v| v.mask).collect();
        assert_eq!(naive_masks, dp_masks, "feasible subsets differ");
        for (a, b) in naive.iter().zip(dp.iter()) {
            assert!(
                (a.travel_from_dc - b.travel_from_dc).abs() < 1e-9,
                "travel times differ on mask {:#b}: naive {} vs dp {}",
                a.mask,
                a.travel_from_dc,
                b.travel_from_dc
            );
        }
    }

    #[test]
    fn dp_matches_naive_on_scattered_points() {
        let pts = [
            (1.0, 0.5, 10.0),
            (2.0, -0.5, 10.0),
            (0.5, 1.5, 10.0),
            (-1.0, -1.0, 10.0),
        ];
        check_equivalence(&pts, &VdpsConfig::unpruned(4));
    }

    #[test]
    fn dp_matches_naive_with_tight_deadlines() {
        let pts = [
            (1.0, 0.0, 1.2),
            (2.0, 0.0, 2.4),
            (1.5, 1.0, 3.0),
            (0.0, 2.0, 2.0),
        ];
        check_equivalence(&pts, &VdpsConfig::unpruned(4));
    }

    #[test]
    fn dp_matches_naive_with_pruning() {
        let pts = [
            (1.0, 0.0, 10.0),
            (1.8, 0.2, 10.0),
            (3.0, 0.0, 10.0),
            (1.2, 1.1, 10.0),
        ];
        check_equivalence(&pts, &VdpsConfig::pruned(1.3, 4));
    }

    #[test]
    fn dp_matches_naive_with_cap() {
        let pts = [
            (0.7, 0.7, 6.0),
            (1.5, 0.0, 6.0),
            (0.0, 1.5, 6.0),
            (2.0, 2.0, 6.0),
            (1.0, 2.0, 6.0),
        ];
        check_equivalence(&pts, &VdpsConfig::unpruned(2));
        check_equivalence(&pts, &VdpsConfig::pruned(1.6, 3));
    }
}
