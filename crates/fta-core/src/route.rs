//! Delivery point sequences (Definition 5) and their validity (Definition 6).
//!
//! A [`Route`] is a concrete visiting order over a set of delivery points,
//! anchored at a distribution center. Because the paper's workers share a
//! uniform speed, everything about a route except the worker's initial leg
//! (worker location → distribution center) can be precomputed once per
//! center: the arrival offsets `t'(dp_i)` of Equation 3, the total reward,
//! and the *slack* — the largest initial-leg travel time for which every
//! task on the route still meets its deadline. A route is then valid for a
//! worker `w` (Definition 6) iff `c(w.l, dc.l) <= slack`.

use crate::error::{FtaError, Result};
use crate::ids::{CenterId, DeliveryPointId, WorkerId};
use crate::instance::{DpAggregate, Instance};
use serde::{Deserialize, Serialize};

/// A scheduled delivery point sequence for one distribution center.
///
/// Invariants (maintained by [`Route::build`]):
///
/// * `dps` is non-empty and duplicate-free;
/// * all delivery points belong to `center`;
/// * `arrival_offsets[i]` is the travel time from the distribution center to
///   `dps[i]` along the sequence (Equation 3's `t'`);
/// * `slack = min_i (e_i - arrival_offsets[i])`, where `e_i` is the earliest
///   task expiry at `dps[i]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    center: CenterId,
    dps: Vec<DeliveryPointId>,
    arrival_offsets: Vec<f64>,
    total_reward: f64,
    slack: f64,
}

impl Route {
    /// Builds a route visiting `dps` in the given order, starting from the
    /// distribution center `center`.
    ///
    /// # Errors
    ///
    /// * [`FtaError::InvalidField`] if `dps` is empty or contains duplicates;
    /// * [`FtaError::UnknownDeliveryPoint`] / [`FtaError::UnknownCenter`] on
    ///   dangling references;
    /// * [`FtaError::CenterMismatch`] if a delivery point belongs to a
    ///   different center (reported with a placeholder worker id of
    ///   `u32::MAX` since no worker is involved yet).
    pub fn build(
        instance: &Instance,
        aggregates: &[DpAggregate],
        center: CenterId,
        dps: Vec<DeliveryPointId>,
    ) -> Result<Self> {
        if dps.is_empty() {
            return Err(FtaError::InvalidField {
                field: "route.dps",
                message: "a route must visit at least one delivery point".into(),
            });
        }
        let dc = instance
            .centers
            .get(center.index())
            .ok_or(FtaError::UnknownCenter(center))?;

        // Duplicate detection: routes are short in practice (the paper's
        // maxDP is 3), so a quadratic scan over the visited prefix beats
        // allocating a per-call `seen` bitmap — the generators build tens
        // of thousands of routes per center and the zeroed allocation
        // dominated their emission phase. Long routes keep the bitmap.
        let mut seen = if dps.len() > 16 {
            Some(vec![false; instance.delivery_points.len()])
        } else {
            None
        };
        let mut arrival_offsets = Vec::with_capacity(dps.len());
        let mut total_reward = 0.0;
        let mut slack = f64::INFINITY;
        let mut t = 0.0;
        let mut prev = dc.location;
        for (i, &dp_id) in dps.iter().enumerate() {
            let dp = instance
                .delivery_points
                .get(dp_id.index())
                .ok_or(FtaError::UnknownDeliveryPoint(dp_id))?;
            if dp.center != center {
                return Err(FtaError::CenterMismatch {
                    worker: WorkerId(u32::MAX),
                    delivery_point: dp_id,
                });
            }
            let duplicate = match &mut seen {
                Some(seen) => std::mem::replace(&mut seen[dp_id.index()], true),
                None => dps[..i].contains(&dp_id),
            };
            if duplicate {
                return Err(FtaError::InvalidField {
                    field: "route.dps",
                    message: format!("delivery point {dp_id} appears twice"),
                });
            }
            t += instance.travel_time(prev, dp.location);
            prev = dp.location;
            arrival_offsets.push(t);
            let agg = &aggregates[dp_id.index()];
            total_reward += agg.total_reward;
            slack = slack.min(agg.earliest_expiry - t);
        }
        Ok(Self {
            center,
            dps,
            arrival_offsets,
            total_reward,
            slack,
        })
    }

    /// Assembles a route from *trusted* parts, skipping per-leg travel
    /// recomputation and all validation.
    ///
    /// This is how a route leaves a column-stored C-VDPS pool: the pool
    /// row already holds the visiting order, the center-origin arrival
    /// offsets, and the reward and slack folded in [`Route::build`]'s
    /// order, so the assembled route is bit-identical to a rebuild.
    /// Callers own the trust obligation: `dps` non-empty and
    /// duplicate-free, all points on `center`, `arrival_offsets[i]` the
    /// center-origin arrival at `dps[i]`, and `total_reward`/`slack` the
    /// folds `build` would compute. Everyone else should use
    /// [`Route::build`].
    #[must_use]
    pub fn from_parts(
        center: CenterId,
        dps: Vec<DeliveryPointId>,
        arrival_offsets: Vec<f64>,
        total_reward: f64,
        slack: f64,
    ) -> Self {
        debug_assert!(!dps.is_empty(), "a route must visit at least one point");
        debug_assert_eq!(dps.len(), arrival_offsets.len());
        Self {
            center,
            dps,
            arrival_offsets,
            total_reward,
            slack,
        }
    }

    /// The distribution center this route starts from.
    #[must_use]
    pub fn center(&self) -> CenterId {
        self.center
    }

    /// The delivery points in visiting order.
    #[must_use]
    pub fn dps(&self) -> &[DeliveryPointId] {
        &self.dps
    }

    /// Number of delivery points visited.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dps.len()
    }

    /// Always `false`: routes visit at least one delivery point.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Arrival offsets `t'(dp_i)` measured from the distribution center.
    #[must_use]
    pub fn arrival_offsets(&self) -> &[f64] {
        &self.arrival_offsets
    }

    /// Travel time from the distribution center to the final delivery point.
    #[must_use]
    pub fn travel_from_dc(&self) -> f64 {
        *self.arrival_offsets.last().expect("routes are never empty")
    }

    /// Sum of the rewards of all tasks on the route (`VDPS(w).S` rewards).
    #[must_use]
    pub fn total_reward(&self) -> f64 {
        self.total_reward
    }

    /// Largest worker→center travel time for which all deadlines still hold.
    #[must_use]
    pub fn slack(&self) -> f64 {
        self.slack
    }

    /// Whether the route is a valid *center-origin* sequence (C-VDPS): every
    /// delivery point is reached before its earliest task expiry when
    /// starting from the distribution center itself.
    #[must_use]
    pub fn is_center_origin_valid(&self) -> bool {
        self.slack >= 0.0
    }

    /// Whether the route is valid (Definition 6) for a worker whose travel
    /// time to the distribution center is `to_dc` hours.
    #[must_use]
    pub fn is_valid_for_travel(&self, to_dc: f64) -> bool {
        to_dc <= self.slack
    }

    /// Whether the route is valid (Definition 6) for the given worker,
    /// including the `maxDP` and same-center constraints of Definition 4.
    #[must_use]
    pub fn is_valid_for(&self, instance: &Instance, worker: WorkerId) -> bool {
        self.validate_for(instance, worker).is_ok()
    }

    /// Like [`Route::is_valid_for`] but reports *why* a route is invalid.
    ///
    /// # Errors
    ///
    /// * [`FtaError::UnknownWorker`] if the worker id is dangling;
    /// * [`FtaError::CenterMismatch`] if the worker serves another center;
    /// * [`FtaError::MaxDpExceeded`] if the route is longer than `maxDP`;
    /// * [`FtaError::DeadlineViolated`] if some task expires before arrival.
    pub fn validate_for(&self, instance: &Instance, worker: WorkerId) -> Result<()> {
        let w = instance
            .workers
            .get(worker.index())
            .ok_or(FtaError::UnknownWorker(worker))?;
        if w.center != self.center {
            return Err(FtaError::CenterMismatch {
                worker,
                delivery_point: self.dps[0],
            });
        }
        if self.dps.len() > w.max_dp {
            return Err(FtaError::MaxDpExceeded {
                worker,
                assigned: self.dps.len(),
                max_dp: w.max_dp,
            });
        }
        let dc = instance.centers[self.center.index()].location;
        let to_dc = instance.travel_time(w.location, dc);
        if to_dc > self.slack {
            // Identify the first delivery point whose deadline breaks.
            let aggs = instance.dp_aggregates();
            for (i, &dp) in self.dps.iter().enumerate() {
                let arrival = to_dc + self.arrival_offsets[i];
                let deadline = aggs[dp.index()].earliest_expiry;
                if arrival > deadline {
                    return Err(FtaError::DeadlineViolated {
                        worker,
                        delivery_point: dp,
                        arrival,
                        deadline,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
    use crate::geometry::Point;
    use crate::ids::TaskId;

    /// A line instance: dc at origin, dp0 at (1,0), dp1 at (2,0); worker at
    /// (-1, 0); speed 1 → travel times equal distances.
    fn line_instance() -> Instance {
        Instance::new(
            vec![DistributionCenter {
                id: CenterId(0),
                location: Point::new(0.0, 0.0),
            }],
            vec![Worker {
                id: WorkerId(0),
                location: Point::new(-1.0, 0.0),
                max_dp: 2,
                center: CenterId(0),
            }],
            vec![
                DeliveryPoint {
                    id: DeliveryPointId(0),
                    location: Point::new(1.0, 0.0),
                    center: CenterId(0),
                },
                DeliveryPoint {
                    id: DeliveryPointId(1),
                    location: Point::new(2.0, 0.0),
                    center: CenterId(0),
                },
            ],
            vec![
                SpatialTask {
                    id: TaskId(0),
                    delivery_point: DeliveryPointId(0),
                    expiry: 3.0,
                    reward: 1.0,
                },
                SpatialTask {
                    id: TaskId(1),
                    delivery_point: DeliveryPointId(1),
                    expiry: 3.5,
                    reward: 2.0,
                },
            ],
            1.0,
        )
        .unwrap()
    }

    fn route(inst: &Instance, dps: &[u32]) -> Route {
        let aggs = inst.dp_aggregates();
        Route::build(
            inst,
            &aggs,
            CenterId(0),
            dps.iter().copied().map(DeliveryPointId).collect(),
        )
        .unwrap()
    }

    #[test]
    fn arrival_offsets_accumulate_leg_times() {
        let inst = line_instance();
        let r = route(&inst, &[0, 1]);
        assert_eq!(r.arrival_offsets(), &[1.0, 2.0]);
        assert_eq!(r.travel_from_dc(), 2.0);
        assert_eq!(r.total_reward(), 3.0);
    }

    #[test]
    fn slack_is_tightest_deadline_margin() {
        let inst = line_instance();
        let r = route(&inst, &[0, 1]);
        // dp0: 3.0 - 1.0 = 2.0; dp1: 3.5 - 2.0 = 1.5 → slack 1.5.
        assert!((r.slack() - 1.5).abs() < 1e-12);
        assert!(r.is_center_origin_valid());
    }

    #[test]
    fn order_affects_slack_and_travel() {
        let inst = line_instance();
        let r = route(&inst, &[1, 0]);
        // dc→dp1 = 2, dp1→dp0 = 1 → offsets [2, 3].
        assert_eq!(r.arrival_offsets(), &[2.0, 3.0]);
        // dp1: 3.5-2 = 1.5; dp0: 3.0-3.0 = 0 → slack 0.
        assert!((r.slack() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn worker_validity_depends_on_initial_leg() {
        let inst = line_instance();
        let r = route(&inst, &[0, 1]);
        // Worker is 1.0 from dc; slack 1.5 → valid.
        assert!(r.is_valid_for(&inst, WorkerId(0)));
        assert!(r.is_valid_for_travel(1.5));
        assert!(!r.is_valid_for_travel(1.5000001));
    }

    #[test]
    fn deadline_violation_is_reported_with_first_offender() {
        let mut inst = line_instance();
        inst.workers[0].location = Point::new(-2.0, 0.0); // to_dc = 2.0 > slack 1.5
        let r = route(&inst, &[0, 1]);
        match r.validate_for(&inst, WorkerId(0)) {
            Err(FtaError::DeadlineViolated { delivery_point, .. }) => {
                assert_eq!(delivery_point, DeliveryPointId(1))
            }
            other => panic!("expected deadline violation, got {other:?}"),
        }
    }

    #[test]
    fn max_dp_is_enforced() {
        let mut inst = line_instance();
        inst.workers[0].max_dp = 1;
        let r = route(&inst, &[0, 1]);
        assert!(matches!(
            r.validate_for(&inst, WorkerId(0)),
            Err(FtaError::MaxDpExceeded {
                assigned: 2,
                max_dp: 1,
                ..
            })
        ));
    }

    #[test]
    fn rejects_empty_and_duplicate_routes() {
        let inst = line_instance();
        let aggs = inst.dp_aggregates();
        assert!(Route::build(&inst, &aggs, CenterId(0), vec![]).is_err());
        assert!(Route::build(
            &inst,
            &aggs,
            CenterId(0),
            vec![DeliveryPointId(0), DeliveryPointId(0)]
        )
        .is_err());
    }

    #[test]
    fn rejects_foreign_center_delivery_point() {
        let mut inst = line_instance();
        inst.centers.push(DistributionCenter {
            id: CenterId(1),
            location: Point::new(10.0, 10.0),
        });
        inst.delivery_points[1].center = CenterId(1);
        let aggs = inst.dp_aggregates();
        let err = Route::build(
            &inst,
            &aggs,
            CenterId(0),
            vec![DeliveryPointId(0), DeliveryPointId(1)],
        )
        .unwrap_err();
        assert!(matches!(err, FtaError::CenterMismatch { .. }));
    }

    #[test]
    fn taskless_dp_contributes_infinite_slack() {
        let mut inst = line_instance();
        // Remove dp1's task: dp1 now taskless.
        inst.tasks.pop();
        let r = route(&inst, &[0, 1]);
        assert_eq!(r.total_reward(), 1.0);
        // Slack limited only by dp0's deadline: 3.0 - 1.0 = 2.0.
        assert!((r.slack() - 2.0).abs() < 1e-12);
    }
}
