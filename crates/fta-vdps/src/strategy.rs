//! Per-worker strategy spaces (Section V-B).
//!
//! After C-VDPS generation, each worker's strategy set `ST_i` consists of
//! the C-VDPSs that are valid *for that worker* plus the `null` strategy.
//! A pool row `r` is valid for worker `w` iff `len(r) ≤ maxDP(w)` and
//! `to_dc(w) ≤ slack(r)`, and it pays
//! `reward(r) / (to_dc(w) + travel(r))` ([`payoff_from_parts`]): the
//! worker enters only through two scalars. [`StrategySpace`] therefore
//! validates once per *pool*, not once per (worker, row):
//!
//! * **Sorted order.** The pool's scan columns are permuted once into
//!   (row length, slack descending with NaN last, pool index) order.
//! * **Prefix validity.** Within one row length, the rows a worker may
//!   take are then a prefix — the rows whose slack is at least its travel
//!   time to the center — found by one binary search. A worker's valid set
//!   is one prefix per length `≤ maxDP`, stored as its end, one `u32` per
//!   (worker, length).
//!   A NaN slack sorts last and is never valid; a NaN travel time makes
//!   every prefix empty.
//! * **On-demand payoff.** Payoffs are not stored; the scan kernels
//!   ([`crate::kernel`]) compute them with [`payoff_from_parts`] — the
//!   same expression as [`fta_core::payoff::payoff_for_travel`], so every
//!   payoff is bit-identical to validating the row's
//!   [`fta_core::route::Route`].
//! * **Tie rule.** Because the sorted order is not the pool order,
//!   candidates compare by (payoff, then lowest pool index), which is the
//!   first strict maximum of an ascending pool-index scan.
//! * **Reach.** Next to the masks, the sorted pool keeps their running OR
//!   within each row-length bucket, so the union of a worker's valid
//!   prefix is one load. Every row visits at least one point, so when that
//!   union lies inside the taken mask every row of the prefix is closed,
//!   and the scans skip it without touching its rows
//!   ([`WorkerRows::may_open`]).

use crate::columns::VdpsPool;
use crate::config::VdpsConfig;
use crate::generator::{generate_c_vdps_budgeted, GenControl, GenerationStats};
use crate::pool::TaskScope;
use fta_core::instance::{CenterView, DpAggregate, Instance};
use fta_core::payoff::payoff_from_parts;
use fta_core::WorkerId;
use std::ops::Range;

/// The pool's scan columns permuted into validity order: row length
/// ascending, then slack descending (NaN last), then pool index.
#[derive(Debug, Clone, Default)]
struct SortedPool {
    /// Rows of length `l` occupy `bounds[l]..bounds[l + 1]`.
    bounds: Vec<u32>,
    /// Pool index of each sorted row.
    pool_idx: Vec<u32>,
    /// Delivery-point masks, parallel to `pool_idx`.
    masks: Vec<u128>,
    /// Running OR of `masks` within each row-length bucket.
    reach: Vec<u128>,
    /// Total rewards, parallel to `pool_idx`.
    rewards: Vec<f64>,
    /// Travel times from the center, parallel to `pool_idx`.
    travels: Vec<f64>,
}

impl SortedPool {
    /// Sorts `pool` into validity order. Returns the sorted columns and
    /// the slacks in the same order (only the per-worker binary searches
    /// need them).
    ///
    /// # Panics
    ///
    /// Panics if a row's mask is empty: the reach test that skips closed
    /// prefixes is only sound when every row visits a point.
    fn build(pool: &VdpsPool) -> (Self, Vec<f64>) {
        let slacks = pool.slacks();
        // One packed key per row: length, then a slack key that ascends
        // as the slack descends (NaN at the very end), then the index.
        let mut keys: Vec<u128> = (0..pool.len())
            .map(|r| {
                let slack = slacks[r];
                let desc = if slack.is_nan() {
                    u64::MAX
                } else {
                    // Ascending total-order bits, then inverted.
                    let bits = slack.to_bits();
                    let asc = if bits >> 63 == 1 {
                        !bits
                    } else {
                        bits | 1 << 63
                    };
                    !asc
                };
                (pool.row_len(r) as u128) << 96 | u128::from(desc) << 32 | r as u128
            })
            .collect();
        keys.sort_unstable();
        let max_len = keys.last().map_or(0, |&k| (k >> 96) as usize);
        let mut bounds = vec![0u32; max_len + 2];
        for &k in &keys {
            bounds[(k >> 96) as usize + 1] += 1;
        }
        for l in 1..bounds.len() {
            bounds[l] += bounds[l - 1];
        }
        let pool_idx: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
        let gather =
            |col: &[f64]| -> Vec<f64> { pool_idx.iter().map(|&r| col[r as usize]).collect() };
        let (rewards, travels, slacks) = (
            gather(pool.rewards()),
            gather(pool.travels()),
            gather(slacks),
        );
        // Masks and their running OR per bucket, in one pass.
        let mut masks = Vec::with_capacity(pool_idx.len());
        let mut reach = Vec::with_capacity(pool_idx.len());
        for bucket in bounds.windows(2) {
            let mut union = 0;
            for &r in &pool_idx[bucket[0] as usize..bucket[1] as usize] {
                let mask = pool.mask(r as usize);
                assert!(mask != 0, "every pool row visits a point");
                union |= mask;
                masks.push(mask);
                reach.push(union);
            }
        }
        let sorted = Self {
            masks,
            reach,
            rewards,
            travels,
            bounds,
            pool_idx,
        };
        (sorted, slacks)
    }

    /// Number of row lengths (`0..=max_len`) with a bucket.
    fn n_lens(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    fn bucket(&self, len: usize) -> Range<usize> {
        self.bounds[len] as usize..self.bounds[len + 1] as usize
    }
}

/// One worker's valid strategies in a [`StrategySpace`]: the sorted
/// pool's scan columns plus the worker's valid prefix of each row-length
/// bucket (`starts[l]..ends[l]`) and its travel time to the center. This
/// is what the scan kernels in [`crate::kernel`] take.
#[derive(Debug, Clone, Copy)]
pub struct WorkerRows<'a> {
    /// Pool index of each sorted row.
    pub pool_idx: &'a [u32],
    /// Delivery-point masks, parallel to `pool_idx`.
    pub masks: &'a [u128],
    /// Running OR of `masks` from the start of each bucket: `reach[p]` is
    /// the union of the masks at `starts[l]..=p` for `p` in bucket `l`.
    pub reach: &'a [u128],
    /// Total rewards, parallel to `pool_idx`.
    pub rewards: &'a [f64],
    /// Travel times from the center, parallel to `pool_idx`.
    pub travels: &'a [f64],
    /// First sorted row of each row-length bucket.
    pub starts: &'a [u32],
    /// End of the worker's valid prefix of each bucket.
    pub ends: &'a [u32],
    /// The worker's travel time to the center.
    pub to_dc: f64,
}

impl<'a> WorkerRows<'a> {
    /// The worker's valid prefixes, one per row length, as ranges of
    /// sorted positions.
    pub fn ranges(self) -> impl Iterator<Item = Range<usize>> + 'a {
        self.starts
            .iter()
            .zip(self.ends)
            .map(|(&s, &e)| s as usize..e as usize)
    }

    /// Whether the valid prefix `range` (one of [`WorkerRows::ranges`])
    /// may hold a row disjoint from `taken`. `false` proves it holds none:
    /// the prefix is empty, or the union of its masks, `reach[end − 1]`,
    /// lies inside `taken`, and since no row's mask is empty every row then
    /// intersects `taken`.
    #[inline]
    #[must_use]
    pub fn may_open(&self, range: &Range<usize>, taken: u128) -> bool {
        !range.is_empty() && self.reach[range.end - 1] & !taken != 0
    }

    /// The worker's valid prefixes that [`WorkerRows::may_open`] against
    /// `taken`: every row disjoint from `taken` lies in one of them.
    pub fn open_ranges(self, taken: u128) -> impl Iterator<Item = Range<usize>> + 'a {
        self.ranges().filter(move |r| self.may_open(r, taken))
    }

    /// The worker's payoff for the sorted row at `pos`.
    #[inline]
    #[must_use]
    pub fn payoff(&self, pos: usize) -> f64 {
        payoff_from_parts(self.rewards[pos], self.travels[pos], self.to_dc)
    }
}

/// The strategy spaces of all workers of one distribution center.
///
/// Holds the pool once, sorted into validity order (see the module docs),
/// and per worker only the end of its valid prefix in each row-length
/// bucket: the space costs 52 B per pool row plus 4 B per (worker, row
/// length), whatever the number of (worker, strategy) pairs.
#[derive(Debug, Clone)]
pub struct StrategySpace {
    /// The center view this space was built from.
    pub view: CenterView,
    /// The shared C-VDPS pool (deterministically ordered).
    pub pool: VdpsPool,
    /// Travel time from each local worker to the distribution center.
    pub worker_to_dc: Vec<f64>,
    /// Each local worker's `maxDP`.
    max_dp: Vec<usize>,
    /// The pool's scan columns in validity order.
    sorted: SortedPool,
    /// Worker `local`'s valid prefix of bucket `l` ends at sorted position
    /// `ends[local * n_lens + l]`.
    ends: Vec<u32>,
    /// Number of (worker, strategy) pairs.
    total_slots: usize,
    /// Statistics from the underlying C-VDPS generation run.
    pub gen_stats: GenerationStats,
}

impl StrategySpace {
    /// Generates the C-VDPS pool for `view` and validates it per worker.
    ///
    /// Convenience wrapper over [`StrategySpace::build_in`] that computes
    /// the delivery-point aggregates itself and runs sequentially.
    #[must_use]
    pub fn build(instance: &Instance, view: &CenterView, config: &VdpsConfig) -> Self {
        let aggregates = instance.dp_aggregates();
        Self::build_in(instance, &aggregates, view.clone(), config, None)
    }

    /// Generates the C-VDPS pool for `view` and validates it per worker,
    /// re-using pre-computed delivery-point `aggregates` (computed once per
    /// *instance*, not once per center) and optionally running generation
    /// on an active worker-pool scope.
    ///
    /// Takes `view` by value: the solver hands each center job its owned
    /// view, so no clone happens on this path.
    #[must_use]
    pub fn build_in(
        instance: &Instance,
        aggregates: &[DpAggregate],
        view: CenterView,
        config: &VdpsConfig,
        scope: Option<&TaskScope<'_>>,
    ) -> Self {
        Self::build_budgeted(instance, aggregates, view, config, scope, GenControl::NONE)
    }

    /// [`StrategySpace::build_in`] with a [`GenControl`] threaded into the
    /// C-VDPS generation: when the control trips, the pool is truncated at
    /// a layer boundary and validation proceeds over the smaller pool.
    /// `GenControl::NONE` is bit-identical to [`StrategySpace::build_in`].
    #[must_use]
    pub fn build_budgeted(
        instance: &Instance,
        aggregates: &[DpAggregate],
        view: CenterView,
        config: &VdpsConfig,
        scope: Option<&TaskScope<'_>>,
        control: GenControl<'_>,
    ) -> Self {
        let (pool, gen_stats) =
            generate_c_vdps_budgeted(instance, aggregates, &view, config, scope, control);
        Self::from_pool_in(instance, view, pool, gen_stats, scope)
    }

    /// Validates a pre-generated pool per worker (used by tests and by the
    /// experiment harness when re-using one pool for several sweeps).
    #[must_use]
    pub fn from_pool(
        instance: &Instance,
        view: &CenterView,
        pool: VdpsPool,
        gen_stats: GenerationStats,
    ) -> Self {
        Self::from_pool_in(instance, view.clone(), pool, gen_stats, None)
    }

    /// Validates a pre-generated pool per worker: one sort of the pool,
    /// then one binary search per (worker, row length). The work is too
    /// small to split, so `_scope` is accepted for callers that hold one
    /// and otherwise unused.
    #[must_use]
    pub fn from_pool_in(
        instance: &Instance,
        view: CenterView,
        pool: VdpsPool,
        gen_stats: GenerationStats,
        _scope: Option<&TaskScope<'_>>,
    ) -> Self {
        let _span = fta_obs::span_center("vdps.strategy_space", view.center.index() as u32);
        let dc = instance.centers[view.center.index()].location;
        let (worker_to_dc, max_dp) = view
            .workers
            .iter()
            .map(|&w| {
                let worker = &instance.workers[w.index()];
                (instance.travel_time(worker.location, dc), worker.max_dp)
            })
            .unzip();
        Self::from_parts(view, pool, worker_to_dc, max_dp, gen_stats)
    }

    /// Validates `pool` for workers given directly by their travel times
    /// to the center and their `maxDP` (both parallel to `view.workers`),
    /// as [`StrategySpace::from_pool_in`] derives them from an instance.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors are not as long as `view.workers`.
    #[must_use]
    pub fn from_parts(
        view: CenterView,
        pool: VdpsPool,
        worker_to_dc: Vec<f64>,
        max_dp: Vec<usize>,
        gen_stats: GenerationStats,
    ) -> Self {
        assert_eq!(
            worker_to_dc.len(),
            view.workers.len(),
            "one travel time per worker"
        );
        assert_eq!(max_dp.len(), view.workers.len(), "one maxDP per worker");
        let (sorted, slacks) = SortedPool::build(&pool);
        let n_lens = sorted.n_lens();
        let mut ends = Vec::with_capacity(view.workers.len() * n_lens);
        let mut total_slots = 0;
        for (&max_dp, &to_dc) in max_dp.iter().zip(&worker_to_dc) {
            for len in 0..n_lens {
                let bucket = sorted.bucket(len);
                let valid = if len <= max_dp {
                    slacks[bucket.clone()].partition_point(|&slack| to_dc <= slack)
                } else {
                    0
                };
                total_slots += valid;
                ends.push((bucket.start + valid) as u32);
            }
        }
        Self {
            view,
            pool,
            worker_to_dc,
            max_dp,
            sorted,
            ends,
            total_slots,
            gen_stats,
        }
    }

    /// Number of workers in this center's population.
    #[must_use]
    pub fn n_workers(&self) -> usize {
        self.view.workers.len()
    }

    /// The global id of the `local`-th worker.
    #[must_use]
    pub fn worker_id(&self, local: usize) -> WorkerId {
        self.view.workers[local]
    }

    /// The `maxDP` of the `local`-th worker.
    #[must_use]
    pub fn max_dp(&self, local: usize) -> usize {
        self.max_dp[local]
    }

    /// Total number of (worker, strategy) pairs across all workers.
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// The `local`-th worker's valid strategies in sorted order, for the
    /// scan kernels.
    #[must_use]
    pub fn rows(&self, local: usize) -> WorkerRows<'_> {
        let n_lens = self.sorted.n_lens();
        let s = &self.sorted;
        WorkerRows {
            pool_idx: &s.pool_idx,
            masks: &s.masks,
            reach: &s.reach,
            rewards: &s.rewards,
            travels: &s.travels,
            starts: &s.bounds[..n_lens],
            ends: &self.ends[local * n_lens..(local + 1) * n_lens],
            to_dc: self.worker_to_dc[local],
        }
    }

    /// The payoff the `local`-th worker obtains from pool entry
    /// `pool_idx`, if that strategy is valid for the worker: in the pool,
    /// no longer than its `maxDP`, and its slack covers the worker's travel
    /// time to the center.
    #[inline]
    #[must_use]
    pub fn payoff_of(&self, local: usize, pool_idx: u32) -> Option<f64> {
        let (r, to_dc) = (pool_idx as usize, self.worker_to_dc[local]);
        let valid = r < self.pool.len()
            && self.pool.row_len(r) <= self.max_dp[local]
            && to_dc <= self.pool.slacks()[r];
        valid.then(|| payoff_from_parts(self.pool.rewards()[r], self.pool.travels()[r], to_dc))
    }

    /// The `local`-th worker's valid strategies with their payoffs, in
    /// ascending pool-index order (the canonical iteration order): a scan
    /// of the pool with the validity test inline.
    pub fn strategies(&self, local: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        (0..self.pool.len() as u32).filter_map(move |idx| Some((idx, self.payoff_of(local, idx)?)))
    }

    /// Number of non-null strategies available to the `local`-th worker.
    #[must_use]
    pub fn strategy_count(&self, local: usize) -> usize {
        self.rows(local).ranges().map(|r| r.len()).sum()
    }

    /// The largest strategy-set size across workers (`|maxVDPS|` in the
    /// paper's complexity analyses).
    #[must_use]
    pub fn max_strategies(&self) -> usize {
        (0..self.n_workers())
            .map(|local| self.strategy_count(local))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
    use fta_core::geometry::Point;
    use fta_core::ids::{CenterId, DeliveryPointId, TaskId};

    /// dc at origin; two dps at (1,0) and (2,0), expiries 2.5 and 100;
    /// worker 0 adjacent to dc, worker 1 far away; speed 1.
    fn instance() -> Instance {
        Instance::new(
            vec![DistributionCenter {
                id: CenterId(0),
                location: Point::new(0.0, 0.0),
            }],
            vec![
                Worker {
                    id: WorkerId(0),
                    location: Point::new(0.5, 0.0),
                    max_dp: 2,
                    center: CenterId(0),
                },
                Worker {
                    id: WorkerId(1),
                    location: Point::new(-5.0, 0.0),
                    max_dp: 1,
                    center: CenterId(0),
                },
            ],
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
                    expiry: 2.5,
                    reward: 1.0,
                },
                SpatialTask {
                    id: TaskId(1),
                    delivery_point: DeliveryPointId(1),
                    expiry: 100.0,
                    reward: 3.0,
                },
            ],
            1.0,
        )
        .unwrap()
    }

    fn space(inst: &Instance) -> StrategySpace {
        let views = inst.center_views();
        StrategySpace::build(inst, &views[0], &VdpsConfig::unpruned(3))
    }

    #[test]
    fn close_worker_sees_all_strategies() {
        let inst = instance();
        let s = space(&inst);
        // Pool: {dp0}, {dp1}, {dp0,dp1} (all feasible from dc).
        assert_eq!(s.pool.len(), 3);
        // Worker 0 (0.5 from dc, maxDP 2): all three valid.
        assert_eq!(s.strategy_count(0), 3);
    }

    #[test]
    fn far_worker_loses_deadline_bound_strategies() {
        let inst = instance();
        let s = space(&inst);
        // Worker 1 is 5.0 from dc; {dp0} has slack 2.5-1.0 = 1.5 < 5 →
        // invalid; {dp1} has slack 98 → valid; {dp0,dp1} exceeds maxDP=1.
        assert_eq!(s.strategy_count(1), 1);
        let (idx, _) = s.strategies(1).next().unwrap();
        assert_eq!(s.pool.mask(idx as usize), 0b10);
    }

    #[test]
    fn payoffs_match_direct_computation() {
        let inst = instance();
        let s = space(&inst);
        // Worker 0 taking {dp1}: reward 3, travel 0.5 + 2.0 = 2.5 → 1.2.
        let (idx, payoff) = s
            .strategies(0)
            .find(|&(i, _)| s.pool.mask(i as usize) == 0b10)
            .unwrap();
        assert!((payoff - 1.2).abs() < 1e-12);
        assert_eq!(s.payoff_of(0, idx), Some(payoff));
    }

    #[test]
    fn payoff_of_rejects_invalid_strategy() {
        let inst = instance();
        let s = space(&inst);
        // Worker 1 cannot take pool entry for {dp0} (mask 0b01).
        let dp0_idx = s.pool.masks().iter().position(|&m| m == 0b01).unwrap() as u32;
        assert_eq!(s.payoff_of(1, dp0_idx), None);
    }

    #[test]
    fn max_strategies_reports_largest_set() {
        let inst = instance();
        let s = space(&inst);
        assert_eq!(s.max_strategies(), 3);
        assert_eq!(s.n_workers(), 2);
        assert_eq!(s.worker_id(1), WorkerId(1));
    }

    #[test]
    fn soa_layout_is_consistent() {
        let inst = instance();
        let s = space(&inst);
        assert_eq!(s.total_slots(), s.strategy_count(0) + s.strategy_count(1));
        for local in 0..s.n_workers() {
            let rows = s.rows(local);
            let mut from_prefixes: Vec<(u32, u64)> = rows
                .ranges()
                .flatten()
                .map(|pos| (rows.pool_idx[pos], rows.payoff(pos).to_bits()))
                .collect();
            from_prefixes.sort_unstable();
            let scanned: Vec<(u32, u64)> = s
                .strategies(local)
                .map(|(idx, p)| (idx, p.to_bits()))
                .collect();
            assert_eq!(from_prefixes, scanned, "worker {local}");
            assert_eq!(scanned.len(), s.strategy_count(local));
            for pos in 0..rows.pool_idx.len() {
                assert_eq!(rows.masks[pos], s.pool.mask(rows.pool_idx[pos] as usize));
            }
        }
    }

    #[test]
    fn reach_is_the_union_of_every_prefix() {
        let inst = instance();
        let s = space(&inst);
        let rows = s.rows(0);
        assert_eq!(rows.reach.len(), rows.masks.len());
        for (&start, &end) in rows.starts.iter().zip(&s.sorted.bounds[1..]) {
            for e in start as usize + 1..=end as usize {
                let union = rows.masks[start as usize..e].iter().fold(0, |u, &m| u | m);
                assert_eq!(rows.reach[e - 1], union, "prefix {start}..{e}");
                let prefix = start as usize..e;
                assert!(!rows.may_open(&prefix, union), "a covered prefix is closed");
                assert!(rows.may_open(&prefix, 0));
            }
        }
        assert!(!rows.may_open(&(0..0), 0), "an empty prefix holds nothing");
    }

    #[test]
    #[should_panic(expected = "every pool row visits a point")]
    fn an_empty_mask_is_rejected() {
        let inst = instance();
        let s = space(&inst);
        let mut pool = VdpsPool::new(CenterId(0));
        pool.push_route(0, &s.pool.route(0));
        let _ = StrategySpace::from_parts(s.view, pool, vec![0.0; 2], vec![1; 2], s.gen_stats);
    }
}
