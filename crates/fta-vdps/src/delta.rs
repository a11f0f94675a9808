//! Incremental (delta) maintenance of a center's C-VDPS pool across
//! rounds.
//!
//! In a round-based deployment the instance a center solves at round
//! `t + 1` is almost the instance it solved at round `t`: a handful of
//! tasks arrived or left, and every surviving task's relative expiry
//! shrank by the round length. When nothing new became feasible, the new
//! pool is the cached one minus what died, with some payloads retimed.
//! [`delta_update`] classifies each delivery point of the new round
//! against a [`PoolCache`] captured from the previous generation and
//! handles exactly that case:
//!
//! * **unchanged** points (bitwise-equal aggregates and location) keep
//!   their cached entries verbatim — the rows are copied as they are;
//! * **reward-dirty** points (same expiry bits, different reward or task
//!   count) keep their visiting orders — feasibility depends only on
//!   expiries — and retime just the row's reward and slack;
//! * **tightened** points (expiry strictly decreased) revalidate each
//!   touching entry stop by stop against the cached arrival offsets; an
//!   entry whose every stop still meets its (new) deadline provably
//!   re-wins all DP tie-breaks and is kept bit-identically;
//! * **removed** points simply drop their touching entries: removal and
//!   tightening can never create a feasible subset that did not exist
//!   before.
//!
//! Everything else needs rediscovery, and the updater declines it
//! (returns `None`) instead of searching: a **dirty** point (new,
//! relocated, or expiry loosened) can make masks feasible that the cache
//! never held, and a tightened entry whose cached order broke may still
//! be feasible through another order. A dirty point declines during
//! classification, before the cached pool is walked. The caller then
//! regenerates the pool with the flat engine, which costs less than any
//! per-mask search seeded by the changed points.
//!
//! A returned pool — re-sorted by subset size then mask — is
//! **bit-identical** to a cold regeneration for the same input. The
//! module tests and `tests/delta_equivalence.rs` assert exactly that,
//! and that the updater declines exactly when rediscovery is needed.
//!
//! Classification is *bitwise* on purpose: a caller re-deriving relative
//! expiries from a new wall-clock instant almost never produces
//! `old − age` exactly, so the updater never reconstructs aggregates
//! arithmetically — it only compares the bits it is given.

use crate::columns::VdpsPool;
use crate::config::VdpsConfig;
use crate::generator::GenerationStats;
use fta_core::instance::{CenterView, DpAggregate, Instance};
use fta_core::DeliveryPointId;
use std::collections::HashMap;
use std::time::Instant;

/// Everything [`delta_update`] needs to know about the previous
/// generation of one center's pool. Captured via [`PoolCache::capture`]
/// right after a full (or previous delta) generation.
#[derive(Debug, Clone)]
pub struct PoolCache {
    /// Global delivery-point ids, indexed by the *old* local bit.
    pub dp_ids: Vec<DeliveryPointId>,
    /// Aggregates of the previous round, parallel to `dp_ids`.
    pub aggregates: Vec<DpAggregate>,
    /// Locations of the previous round, parallel to `dp_ids`, as raw
    /// coordinate bits (relocation detection must be bitwise too).
    pub location_bits: Vec<(u64, u64)>,
    /// The previous pool (masks over the old local bits).
    pub pool: VdpsPool,
    /// Whether the previous generation was truncated by a budget control.
    /// A truncated pool under-approximates the feasible set for unknown
    /// masks, so it cannot seed a delta update.
    pub truncated: bool,
    /// The ε the previous pool was generated with (`None` = unpruned).
    pub epsilon: Option<f64>,
    /// The subset-size cap the previous pool was generated with.
    pub max_len: usize,
    /// Center location bits and speed bits of the previous round.
    pub center_bits: (u64, u64),
    /// Worker speed bits of the previous round.
    pub speed_bits: u64,
}

impl PoolCache {
    /// Captures the state a later [`delta_update`] needs from a finished
    /// generation of `view`'s pool.
    #[must_use]
    pub fn capture(
        instance: &Instance,
        aggregates: &[DpAggregate],
        view: &CenterView,
        config: &VdpsConfig,
        pool: &VdpsPool,
        stats: &GenerationStats,
    ) -> Self {
        let dc = instance.centers[view.center.index()].location;
        Self {
            dp_ids: view.dps.clone(),
            aggregates: view.dps.iter().map(|dp| aggregates[dp.index()]).collect(),
            location_bits: view
                .dps
                .iter()
                .map(|dp| {
                    let l = instance.delivery_points[dp.index()].location;
                    (l.x.to_bits(), l.y.to_bits())
                })
                .collect(),
            pool: pool.clone(),
            truncated: stats.truncations > 0,
            epsilon: config.epsilon,
            max_len: config.max_len,
            center_bits: (dc.x.to_bits(), dc.y.to_bits()),
            speed_bits: instance.speed.to_bits(),
        }
    }

    /// Whether this cache describes the same problem as (`instance`,
    /// `view`, `config`) up to task churn: a complete (untruncated)
    /// previous pool, the same ε, a subset-size cap no larger than the
    /// cached one, and bitwise the same center location and speed. A
    /// cache that does not fit can never seed [`delta_update`], whatever
    /// the churn; one that fits may still be declined when the churn
    /// needs rediscovery.
    #[must_use]
    pub fn fits(&self, instance: &Instance, view: &CenterView, config: &VdpsConfig) -> bool {
        let dc = instance.centers[view.center.index()].location;
        !self.truncated
            && self.epsilon.map(f64::to_bits) == config.epsilon.map(f64::to_bits)
            && config.max_len <= self.max_len
            && self.center_bits == (dc.x.to_bits(), dc.y.to_bits())
            && self.speed_bits == instance.speed.to_bits()
    }
}

/// Counters describing one delta update, mirrored to the telemetry
/// recorder as `vdps.delta_*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Cached entries reused verbatim (row copied as it is).
    pub reused: usize,
    /// Cached entries whose visiting order survived but whose reward and
    /// slack were retimed (reward change, or tightened-but-still-valid).
    pub rebuilt: usize,
    /// Cached entries dropped (removed member, or over the new length
    /// cap).
    pub dropped: usize,
    /// Wall time of classification + survivor processing, nanoseconds.
    pub dp_nanos: u64,
    /// Wall time of writing the updated pool's rows (copies and
    /// retimes), nanoseconds.
    pub route_nanos: u64,
}

impl DeltaStats {
    /// A [`GenerationStats`] view of this delta run, for consumers (the
    /// strategy-space builder, telemetry) that expect generation
    /// statistics. Work counters other than `vdps_count` stay zero: a
    /// delta run runs no DP, so it has no states or extensions to count.
    #[must_use]
    pub fn as_gen_stats(&self, vdps_count: usize) -> GenerationStats {
        GenerationStats {
            vdps_count,
            dp_nanos: self.dp_nanos,
            route_nanos: self.route_nanos,
            ..GenerationStats::default()
        }
    }
}

/// Attempts to update `cache` into the pool a full regeneration would
/// produce for (`instance`, `aggregates`, `view`, `config`). Returns
/// `None` when the cache does not [fit](PoolCache::fits) the input, or
/// when the churn needs rediscovery — a new, relocated, or loosened
/// delivery point, or a tightened entry whose cached order broke. The
/// caller must then regenerate from scratch. On success the returned pool
/// is bit-identical (content and size-then-mask order) to
/// [`crate::generate_c_vdps`] on the same input.
///
/// # Panics
///
/// Panics if the center has more than 128 task-bearing delivery points,
/// like the full engines.
#[must_use]
pub fn delta_update(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    config: &VdpsConfig,
    cache: &PoolCache,
) -> Option<(VdpsPool, DeltaStats)> {
    let n = view.dps.len();
    assert!(
        n <= 128,
        "center {} has {n} delivery points; the bitmask DP supports at most 128",
        view.center
    );
    if !cache.fits(instance, view, config) {
        return None;
    }
    let mut stats = DeltaStats::default();
    if n == 0 || config.max_len == 0 {
        return Some((VdpsPool::new(view.center), stats));
    }
    let dp_start = Instant::now();

    // --- classify every new local bit against the cache ---
    let old_bit_of: HashMap<DeliveryPointId, usize> = cache
        .dp_ids
        .iter()
        .enumerate()
        .map(|(bit, &id)| (id, bit))
        .collect();
    // Old local bit → new local bit; removed points stay `None`.
    let mut remap = vec![None::<usize>; cache.dp_ids.len()];
    let mut tightened_mask = 0u128;
    let mut reward_mask = 0u128;
    for (j, &id) in view.dps.iter().enumerate() {
        // A new point is dirty: decline.
        let old = *old_bit_of.get(&id)?;
        remap[old] = Some(j);
        let loc = instance.delivery_points[id.index()].location;
        if cache.location_bits[old] != (loc.x.to_bits(), loc.y.to_bits()) {
            return None; // relocated: dirty
        }
        let oa = &cache.aggregates[old];
        let na = &aggregates[id.index()];
        if oa.earliest_expiry.to_bits() == na.earliest_expiry.to_bits() {
            if oa.total_reward.to_bits() != na.total_reward.to_bits()
                || oa.task_count != na.task_count
            {
                reward_mask |= 1u128 << j;
            }
        } else if na.earliest_expiry < oa.earliest_expiry {
            tightened_mask |= 1u128 << j;
        } else {
            return None; // loosened: dirty
        }
    }

    // --- walk the cached pool: reuse, retime, revalidate, or drop ---
    let max_len = config.max_len.min(n);
    let old = &cache.pool;
    // (new mask, cached row, retime) per kept entry.
    let mut kept: Vec<(u128, u32, bool)> = Vec::with_capacity(old.len());
    'entries: for r in 0..old.len() {
        if old.row_len(r) > max_len {
            stats.dropped += 1;
            continue;
        }
        let mut new_mask = 0u128;
        let mut members = old.mask(r);
        while members != 0 {
            let old_bit = members.trailing_zeros() as usize;
            members &= members - 1;
            match remap.get(old_bit).copied().flatten() {
                Some(j) => new_mask |= 1u128 << j,
                None => {
                    stats.dropped += 1;
                    continue 'entries;
                }
            }
        }
        if new_mask & tightened_mask != 0 {
            // Revalidate the cached order stop by stop: the cached arrival
            // offsets are the DP's own chain values, so if every stop still
            // meets its (shrunk) deadline the chain re-wins all tie-breaks.
            // A broken order may still have a feasible reordering: decline.
            for (dp, &offset) in old.stops(r).iter().zip(old.offsets(r)) {
                if offset > aggregates[dp.index()].earliest_expiry {
                    return None;
                }
            }
        }
        // Stops did not move (location bits were checked during
        // classification), so the cached arrival offsets are exact: a
        // changed reward or deadline only retimes the reward and slack.
        let retime = new_mask & (tightened_mask | reward_mask) != 0;
        if retime {
            stats.rebuilt += 1;
        } else {
            stats.reused += 1;
        }
        kept.push((new_mask, r as u32, retime));
    }

    // --- canonical order: subset size, then mask ---
    kept.sort_unstable_by_key(|&(mask, _, _)| (mask.count_ones(), mask));
    let route_start = Instant::now();
    let stops = kept.iter().map(|&(_, r, _)| old.row_len(r as usize)).sum();
    let mut pool = VdpsPool::with_capacity(view.center, kept.len(), stops);
    for &(mask, r, retime) in &kept {
        pool.push_copy(old, r as usize, mask, retime.then_some(aggregates));
    }
    stats.route_nanos = elapsed_nanos(route_start);
    stats.dp_nanos = elapsed_nanos(dp_start).saturating_sub(stats.route_nanos);
    emit_delta_counters(&stats);
    Some((pool, stats))
}

fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn emit_delta_counters(stats: &DeltaStats) {
    if !fta_obs::enabled() {
        return;
    }
    fta_obs::counter("vdps.delta_reused", stats.reused as u64);
    fta_obs::counter("vdps.delta_rebuilt", stats.rebuilt as u64);
    fta_obs::counter("vdps.delta_dropped", stats.dropped as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_c_vdps;
    use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
    use fta_core::geometry::Point;
    use fta_core::ids::{CenterId, TaskId, WorkerId};

    /// A deterministic scatter of `n` delivery points with one task each.
    fn scatter_instance(n: usize, seed: u64) -> Instance {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let dps: Vec<DeliveryPoint> = (0..n)
            .map(|i| DeliveryPoint {
                id: DeliveryPointId::from_index(i),
                location: Point::new(next() * 6.0, next() * 6.0),
                center: CenterId(0),
            })
            .collect();
        let tasks: Vec<SpatialTask> = (0..n)
            .map(|i| SpatialTask {
                id: TaskId::from_index(i),
                delivery_point: DeliveryPointId::from_index(i),
                expiry: 0.5 + next() * 12.0,
                reward: 1.0 + next(),
            })
            .collect();
        Instance::new(
            vec![DistributionCenter {
                id: CenterId(0),
                location: Point::new(3.0, 3.0),
            }],
            vec![Worker {
                id: WorkerId(0),
                location: Point::new(3.0, 3.0),
                max_dp: 4,
                center: CenterId(0),
            }],
            dps,
            tasks,
            1.0,
        )
        .unwrap()
    }

    fn capture(inst: &Instance, config: &VdpsConfig) -> (PoolCache, VdpsPool) {
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let (pool, stats) = generate_c_vdps(inst, &aggs, &views[0], config);
        let cache = PoolCache::capture(inst, &aggs, &views[0], config, &pool, &stats);
        (cache, pool)
    }

    fn assert_matches_regen(inst: &Instance, config: &VdpsConfig, cache: &PoolCache) -> DeltaStats {
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let (regen, _) = generate_c_vdps(inst, &aggs, &views[0], config);
        let (delta, stats) =
            delta_update(inst, &aggs, &views[0], config, cache).expect("delta applies");
        assert_eq!(delta.len(), regen.len(), "pool sizes differ");
        for (d, r) in delta.iter().zip(regen.iter()) {
            assert_eq!(d.mask, r.mask, "masks differ");
            assert_eq!(d.stops, r.stops, "orders differ");
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
        }
        stats
    }

    /// Asserts that the cache fits `inst` but the updater declines it.
    fn assert_declines(inst: &Instance, config: &VdpsConfig, cache: &PoolCache) {
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        assert!(cache.fits(inst, &views[0], config), "cache should fit");
        assert!(
            delta_update(inst, &aggs, &views[0], config, cache).is_none(),
            "churn that needs rediscovery must decline"
        );
    }

    #[test]
    fn zero_churn_reuses_everything() {
        for config in [VdpsConfig::unpruned(3), VdpsConfig::pruned(2.5, 3)] {
            let inst = scatter_instance(14, 5);
            let (cache, pool) = capture(&inst, &config);
            let stats = assert_matches_regen(&inst, &config, &cache);
            assert_eq!(stats.reused, pool.len());
            assert_eq!(stats.rebuilt, 0);
        }
    }

    #[test]
    fn task_removal_drops_only_touching_entries() {
        let config = VdpsConfig::unpruned(3);
        let inst = scatter_instance(12, 9);
        let (cache, pool) = capture(&inst, &config);
        let mut later = inst.clone();
        // Remove two tasks → their delivery points leave the view.
        later.tasks.remove(7);
        later.tasks.remove(2);
        let stats = assert_matches_regen(&later, &config, &cache);
        assert!(stats.dropped > 0);
        assert_eq!(stats.reused + stats.dropped, pool.len());
    }

    #[test]
    fn deadline_tightening_matches_regen() {
        let config = VdpsConfig::unpruned(3);
        let inst = scatter_instance(14, 3);
        let (cache, pool) = capture(&inst, &config);
        // Age every task by a fixed interval, dropping the ones that die —
        // exactly the shape of a round advancing. The interval is half the
        // tightest stop margin in the pool, so every cached order survives.
        let aggs = inst.dp_aggregates();
        let margin = pool
            .iter()
            .flat_map(|v| {
                v.stops
                    .iter()
                    .zip(v.offsets)
                    .map(|(dp, a)| aggs[dp.index()].earliest_expiry - a)
            })
            .fold(f64::INFINITY, f64::min);
        let age = margin / 2.0;
        assert!(age > 0.0);
        let mut later = inst.clone();
        later.tasks.retain(|t| t.expiry > age);
        for t in &mut later.tasks {
            t.expiry -= age;
        }
        let stats = assert_matches_regen(&later, &config, &cache);
        assert!(stats.rebuilt > 0);
        assert_eq!(stats.reused + stats.rebuilt + stats.dropped, pool.len());
    }

    #[test]
    fn broken_tightened_order_declines() {
        let config = VdpsConfig::unpruned(3);
        let inst = scatter_instance(12, 3);
        let (cache, pool) = capture(&inst, &config);
        // Tighten the last stop of a multi-stop route just below the
        // arrival its cached order reaches it at.
        let route = pool.iter().find(|v| v.len() > 1).unwrap();
        let last = *route.stops.last().unwrap();
        let arrival = route.travel_from_dc;
        let mut later = inst.clone();
        let task = later
            .tasks
            .iter_mut()
            .find(|t| t.delivery_point == last)
            .unwrap();
        assert!(arrival < task.expiry);
        task.expiry = arrival * 0.999;
        assert_declines(&later, &config, &cache);
    }

    #[test]
    fn new_tasks_decline() {
        let config = VdpsConfig::unpruned(3);
        let mut inst = scatter_instance(10, 21);
        let extra = inst.delivery_points.len();
        inst.delivery_points.push(DeliveryPoint {
            id: DeliveryPointId::from_index(extra),
            location: Point::new(2.0, 4.0),
            center: CenterId(0),
        });
        let (cache, _) = capture(&inst, &config);
        let mut later = inst.clone();
        later.tasks.push(SpatialTask {
            id: TaskId::from_index(later.tasks.len()),
            delivery_point: DeliveryPointId::from_index(extra),
            expiry: 9.0,
            reward: 2.0,
        });
        assert_declines(&later, &config, &cache);
    }

    #[test]
    fn loosened_deadline_declines() {
        let config = VdpsConfig::unpruned(3);
        let inst = scatter_instance(12, 33);
        let (cache, _) = capture(&inst, &config);
        let mut later = inst.clone();
        later.tasks[5].expiry += 3.0;
        assert_declines(&later, &config, &cache);
    }

    #[test]
    fn reward_change_rebuilds_entries() {
        let config = VdpsConfig::pruned(3.0, 3);
        let inst = scatter_instance(12, 41);
        let (cache, pool) = capture(&inst, &config);
        let mut later = inst.clone();
        later.tasks[4].reward += 1.0;
        let stats = assert_matches_regen(&later, &config, &cache);
        assert!(stats.rebuilt > 0);
        assert_eq!(stats.reused + stats.rebuilt, pool.len());
    }

    #[test]
    fn max_len_shrink_filters_prefix() {
        let inst = scatter_instance(10, 17);
        let (cache, _) = capture(&inst, &VdpsConfig::unpruned(4));
        assert_matches_regen(&inst, &VdpsConfig::unpruned(3), &cache);
    }

    #[test]
    fn unsupported_transitions_fall_back() {
        let inst = scatter_instance(8, 2);
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let (cache, _) = capture(&inst, &VdpsConfig::unpruned(2));
        let mut truncated = cache.clone();
        truncated.truncated = true;
        for (config, cache) in [
            // max_len growth: larger masks unknown to the cache.
            (VdpsConfig::unpruned(3), &cache),
            // ε change: the pruning frontier moved.
            (VdpsConfig::pruned(1.0, 2), &cache),
            // Truncated previous generation.
            (VdpsConfig::unpruned(2), &truncated),
        ] {
            assert!(!cache.fits(&inst, &views[0], &config));
            assert!(delta_update(&inst, &aggs, &views[0], &config, cache).is_none());
        }
    }
}
