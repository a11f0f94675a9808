//! Scheduling a *given* delivery point set: the paper's Definition 6/7
//! sequencing problem as a standalone API.
//!
//! [`generate_c_vdps`](crate::generator::generate_c_vdps) enumerates all
//! valid sets, but downstream users (dispatch UIs, the simulator, what-if
//! tooling) often hold a specific set of delivery points and just need the
//! minimum-travel-time deadline-feasible visiting order. [`schedule_route`]
//! answers that with a Held–Karp restricted to the given set.

use fta_core::instance::Instance;
use fta_core::route::Route;
use fta_core::{CenterId, DeliveryPointId, FtaError};
use std::collections::HashMap;

/// Finds the minimum-travel-time deadline-feasible visiting order of
/// `dps`, starting from `center`. Returns `Ok(None)` if no ordering meets
/// every delivery point's earliest task expiry (i.e. the set is not a
/// C-VDPS).
///
/// The returned [`Route`] is the same representative the paper keeps per
/// VDPS: the sequence with the lowest total travel time, which maximises
/// worker payoff (Definition 7).
///
/// # Errors
///
/// Returns [`FtaError`] if `dps` is empty, contains duplicates, exceeds
/// 20 delivery points (the exact DP is exponential in the set size; the
/// paper's `maxDP` is at most 4), references an unknown center or
/// delivery point, or references another center's delivery points.
/// These used to be panics; a dispatcher feeding operator input should
/// get a report, not a crash.
pub fn schedule_route(
    instance: &Instance,
    center: CenterId,
    dps: &[DeliveryPointId],
) -> Result<Option<Route>, FtaError> {
    let n = dps.len();
    if n == 0 {
        return Err(FtaError::InvalidField {
            field: "dps",
            message: "cannot schedule an empty delivery point set".to_string(),
        });
    }
    if n > 20 {
        return Err(FtaError::InvalidField {
            field: "dps",
            message: format!("schedule_route supports at most 20 delivery points, got {n}"),
        });
    }
    {
        let mut sorted = dps.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != n {
            return Err(FtaError::InvalidField {
                field: "dps",
                message: "delivery point set contains duplicates".to_string(),
            });
        }
    }
    if center.index() >= instance.centers.len() {
        return Err(FtaError::UnknownCenter(center));
    }
    let aggregates = instance.dp_aggregates();
    let dc = instance.centers[center.index()].location;
    let speed = instance.speed;
    let mut locs = Vec::with_capacity(n);
    for dp in dps {
        let Some(d) = instance.delivery_points.get(dp.index()) else {
            return Err(FtaError::UnknownDeliveryPoint(*dp));
        };
        if d.center != center {
            return Err(FtaError::InvalidField {
                field: "dps",
                message: format!("{dp} belongs to {}, not {center}", d.center),
            });
        }
        locs.push(d.location);
    }
    let expiry: Vec<f64> = dps
        .iter()
        .map(|dp| aggregates[dp.index()].earliest_expiry)
        .collect();

    // Held–Karp over the subset: state (visited mask, last) → minimal
    // feasible arrival, with parent pointers for reconstruction.
    let full: u32 = (1u32 << n) - 1;
    let mut best: HashMap<(u32, u8), (f64, u8)> = HashMap::new();
    for j in 0..n {
        let t = dc.travel_time(locs[j], speed);
        if t <= expiry[j] {
            best.insert((1 << j, j as u8), (t, u8::MAX));
        }
    }
    for mask in 1..=full {
        for last in 0..n {
            let Some(&(arrival, _)) = best.get(&(mask, last as u8)) else {
                continue;
            };
            for next in 0..n {
                if mask & (1 << next) != 0 {
                    continue;
                }
                let t = arrival + locs[last].travel_time(locs[next], speed);
                if t > expiry[next] {
                    continue;
                }
                let key = (mask | (1 << next), next as u8);
                let candidate = (t, last as u8);
                best.entry(key)
                    .and_modify(|cur| {
                        if candidate.0 < cur.0 {
                            *cur = candidate;
                        }
                    })
                    .or_insert(candidate);
            }
        }
    }

    // Best complete tour and path reconstruction. `total_cmp` instead of
    // `partial_cmp(..).expect(..)`: arrival times are finite by
    // construction (validated instances have finite coordinates and
    // positive speed), but scheduling must never panic on a comparison.
    let Some((&(_, mut last), _)) = best
        .iter()
        .filter(|&(&(mask, _), _)| mask == full)
        .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
    else {
        return Ok(None);
    };
    let mut order_rev = Vec::with_capacity(n);
    let mut mask = full;
    loop {
        order_rev.push(last as usize);
        let &(_, parent) = &best[&(mask, last)];
        if parent == u8::MAX {
            break;
        }
        mask &= !(1 << last);
        last = parent;
    }
    order_rev.reverse();
    let sequence: Vec<DeliveryPointId> = order_rev.into_iter().map(|i| dps[i]).collect();
    let route = Route::build(instance, &aggregates, center, sequence)?;
    debug_assert!(route.is_center_origin_valid());
    Ok(Some(route))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_c_vdps;
    use crate::VdpsConfig;
    use fta_data::{generate_syn, SynConfig};

    fn instance(seed: u64) -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 4,
                n_tasks: 60,
                n_delivery_points: 8,
                extent: 2.5,
                ..SynConfig::bench_scale()
            },
            seed,
        )
    }

    #[test]
    fn matches_the_generator_representative_for_every_vdps() {
        for seed in [1, 2, 3] {
            let inst = instance(seed);
            let aggs = inst.dp_aggregates();
            let views = inst.center_views();
            let (pool, _) = generate_c_vdps(&inst, &aggs, &views[0], &VdpsConfig::unpruned(4));
            for vdps in pool.iter() {
                let mut dps: Vec<DeliveryPointId> = vdps.stops.to_vec();
                // Shuffle the order: scheduling must not depend on it.
                dps.reverse();
                let scheduled = schedule_route(&inst, views[0].center, &dps)
                    .expect("well-formed input")
                    .expect("generator-emitted sets are schedulable");
                assert!(
                    (scheduled.travel_from_dc() - vdps.travel_from_dc).abs() < 1e-9,
                    "seed {seed}, mask {:#b}: {} vs {}",
                    vdps.mask,
                    scheduled.travel_from_dc(),
                    vdps.travel_from_dc
                );
            }
        }
    }

    #[test]
    fn infeasible_sets_return_none() {
        let mut inst = instance(4);
        for t in &mut inst.tasks {
            t.expiry = 1e-6;
        }
        let views = inst.center_views();
        let dps: Vec<DeliveryPointId> = views[0].dps[..2].to_vec();
        assert!(schedule_route(&inst, views[0].center, &dps)
            .expect("well-formed input")
            .is_none());
    }

    #[test]
    fn single_point_schedules_trivially() {
        let inst = instance(5);
        let views = inst.center_views();
        let dp = views[0].dps[0];
        let route = schedule_route(&inst, views[0].center, &[dp])
            .unwrap()
            .unwrap();
        assert_eq!(route.dps(), &[dp]);
    }

    #[test]
    fn rejects_duplicate_delivery_points() {
        let inst = instance(6);
        let views = inst.center_views();
        let dp = views[0].dps[0];
        let err = schedule_route(&inst, views[0].center, &[dp, dp])
            .expect_err("duplicates must be rejected, not scheduled");
        assert!(err.to_string().contains("duplicates"), "{err}");
    }

    #[test]
    fn rejects_empty_sets() {
        let inst = instance(7);
        let views = inst.center_views();
        let err = schedule_route(&inst, views[0].center, &[])
            .expect_err("empty sets must be rejected, not scheduled");
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn rejects_unknown_and_foreign_references() {
        let inst = instance(8);
        let views = inst.center_views();
        // Unknown delivery point id.
        let bogus = DeliveryPointId(u32::MAX);
        assert!(matches!(
            schedule_route(&inst, views[0].center, &[bogus]),
            Err(FtaError::UnknownDeliveryPoint(_))
        ));
        // Unknown center id.
        let dp = views[0].dps[0];
        assert!(matches!(
            schedule_route(&inst, CenterId(99), &[dp]),
            Err(FtaError::UnknownCenter(_))
        ));
        // Oversized set.
        let many: Vec<DeliveryPointId> = (0..21).map(DeliveryPointId::from_index).collect();
        assert!(matches!(
            schedule_route(&inst, views[0].center, &many),
            Err(FtaError::InvalidField { field: "dps", .. })
        ));
    }
}
