//! Shared mutable game state: who currently holds which strategy.
//!
//! Every assignment algorithm in this crate manipulates a [`GameContext`]:
//! the per-worker strategy selection over one center's
//! [`fta_vdps::StrategySpace`], with Definition 8's
//! disjointness tracked as a single `u128` bitmask union — checking whether
//! a candidate VDPS conflicts with everyone else's selection is one AND.

use fta_core::{Assignment, WorkerId};
use fta_vdps::{kernel, StrategySpace};

/// Work counters of one monotone best-response query, stated as a
/// first-hit scan over the worker's list in (payoff descending, pool index
/// ascending) order would have done it. The query itself is one pass over
/// the worker's valid rows; the counters keep the payoff-order meaning so
/// `BestResponseStats` stays comparable across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescScan {
    /// Slots examined (including the one that terminated the scan).
    pub scanned: u64,
    /// Whether the scan stopped before exhausting the worker's list.
    pub early_exit: bool,
}

impl DescScan {
    /// Counters of a scan over `len` slots that stopped at zero-based
    /// payoff-order rank `stop`, or ran off the end when `stop` is `None`.
    fn stopped_at(stop: Option<usize>, len: usize) -> Self {
        match stop {
            Some(rank) if rank < len => Self {
                scanned: (rank + 1) as u64,
                early_exit: rank + 1 < len,
            },
            _ => Self {
                scanned: len as u64,
                early_exit: false,
            },
        }
    }
}

/// Mutable selection state over one center's strategy space.
#[derive(Debug, Clone)]
pub struct GameContext<'a> {
    space: &'a StrategySpace,
    /// Per local worker: index into `space.pool`, or `None` for the null
    /// strategy.
    selection: Vec<Option<u32>>,
    /// Union of the masks of all selected VDPSs.
    taken: u128,
    /// Cached payoff per local worker (`0.0` for null).
    payoffs: Vec<f64>,
    /// Cached mask per local worker (`0` for null) — avoids the
    /// `pool[idx].mask` indirection on every availability probe.
    own_masks: Vec<u128>,
    /// Running sum of `payoffs` maintained on [`GameContext::set_strategy`]
    /// (replaces the former O(n) re-fold per [`GameContext::total_payoff`]
    /// call). Floating-point drift versus a fresh fold is bounded by a few
    /// ulps per switch, far below every decision margin in this crate.
    total: f64,
    /// Per local worker: the pool index of the last
    /// [`GameContext::best_available`] winner and its payoff-order rank
    /// (`u32::MAX` before the first). The rank depends only on the
    /// worker's fixed strategy set, so a repeated winner — the common case
    /// once the game settles — skips the counting pass.
    last_rank: Vec<(u32, u32)>,
}

impl<'a> GameContext<'a> {
    /// Creates a context with every worker on the null strategy.
    #[must_use]
    pub fn new(space: &'a StrategySpace) -> Self {
        let n = space.n_workers();
        Self {
            space,
            selection: vec![None; n],
            taken: 0,
            payoffs: vec![0.0; n],
            own_masks: vec![0; n],
            total: 0.0,
            last_rank: vec![(u32::MAX, 0); n],
        }
    }

    /// The strategy space this context plays over.
    #[must_use]
    pub fn space(&self) -> &'a StrategySpace {
        self.space
    }

    /// Number of workers in the population.
    #[must_use]
    pub fn n_workers(&self) -> usize {
        self.selection.len()
    }

    /// The pool index currently selected by the `local`-th worker.
    #[must_use]
    pub fn selection(&self, local: usize) -> Option<u32> {
        self.selection[local]
    }

    /// The current payoff of the `local`-th worker (`0.0` for null).
    #[must_use]
    pub fn payoff(&self, local: usize) -> f64 {
        self.payoffs[local]
    }

    /// The full payoff vector (local-worker order).
    #[must_use]
    pub fn payoffs(&self) -> &[f64] {
        &self.payoffs
    }

    /// Sum of all workers' payoffs (maintained incrementally).
    #[must_use]
    pub fn total_payoff(&self) -> f64 {
        self.total
    }

    /// Whether pool entry `pool_idx` would be disjoint from every *other*
    /// worker's selection if `local` adopted it (the worker's own current
    /// selection does not block it).
    #[must_use]
    pub fn is_available(&self, local: usize, pool_idx: u32) -> bool {
        let candidate = self.space.pool.mask(pool_idx as usize);
        let own = self.own_masks[local];
        candidate & (self.taken & !own) == 0
    }

    /// The mask currently held by the `local`-th worker (0 for null).
    #[must_use]
    pub fn own_mask(&self, local: usize) -> u128 {
        self.own_masks[local]
    }

    /// The union of the delivery-point masks of every worker's current
    /// selection (Definition 8's disjointness invariant: this must always
    /// equal the OR — and the disjoint sum — of the selected VDPS masks).
    #[must_use]
    pub fn taken_mask(&self) -> u128 {
        self.taken
    }

    /// Switches the `local`-th worker to `strategy` (a pool index valid for
    /// that worker, or `None` for null), updating the conflict mask and the
    /// cached payoff. Returns the previous selection.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the strategy is not in the worker's valid
    /// set or conflicts with another worker's selection.
    pub fn set_strategy(&mut self, local: usize, strategy: Option<u32>) -> Option<u32> {
        let prev = self.selection[local];
        let prev_mask = self.own_masks[local];
        self.taken &= !prev_mask;
        let (new_mask, payoff) = match strategy {
            Some(idx) => {
                let payoff = self
                    .space
                    .payoff_of(local, idx)
                    .expect("strategy must be valid for the worker");
                let mask = self.space.pool.mask(idx as usize);
                debug_assert_eq!(
                    mask & self.taken,
                    0,
                    "strategy conflicts with another worker's selection"
                );
                (mask, payoff)
            }
            None => (0, 0.0),
        };
        self.taken |= new_mask;
        self.selection[local] = strategy;
        self.total += payoff - self.payoffs[local];
        self.payoffs[local] = payoff;
        self.own_masks[local] = new_mask;
        prev
    }

    /// Iterator over the pool indices of the `local`-th worker's valid
    /// strategies that are currently available (disjoint from others), with
    /// their payoffs, in ascending pool-index order: a scan of the pool with
    /// the availability and validity tests inline.
    pub fn available_strategies(&self, local: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let masks = self.space.pool.masks();
        let other_taken = self.taken & !self.own_masks[local];
        (0..masks.len() as u32)
            .filter(move |&idx| masks[idx as usize] & other_taken == 0)
            .filter_map(move |idx| Some((idx, self.space.payoff_of(local, idx)?)))
    }

    /// The pool indices of the `local`-th worker's available strategies
    /// that visit exactly `len` delivery points, in sorted-pool order (not
    /// pool-index order).
    #[must_use]
    pub fn available_of_len(&self, local: usize, len: usize) -> Vec<u32> {
        let rows = self.space.rows(local);
        let other_taken = self.taken & !self.own_masks[local];
        let mut out = Vec::new();
        if let Some(range) = rows.ranges().nth(len) {
            let masks = &rows.masks[range.clone()];
            kernel::for_each_open_chunked(masks, masks.len(), other_taken, |k| {
                out.push(rows.pool_idx[range.start + k]);
            });
        }
        out
    }

    /// The available strategy [`Iterator::max_by`] with
    /// [`f64::total_cmp`] picks from [`GameContext::available_strategies`]
    /// — the greatest payoff in IEEE total order, ties to the *highest*
    /// pool index — found over the worker's valid rows only.
    #[must_use]
    pub fn max_available(&self, local: usize) -> Option<(u32, f64)> {
        let rows = self.space.rows(local);
        let other_taken = self.taken & !self.own_masks[local];
        let mut best: Option<(u32, f64)> = None;
        for range in rows.ranges() {
            let masks = &rows.masks[range.clone()];
            kernel::for_each_open_chunked(masks, masks.len(), other_taken, |k| {
                let pos = range.start + k;
                let cand = (rows.pool_idx[pos], rows.payoff(pos));
                if best.is_none_or(|b| cand.1.total_cmp(&b.1).then(cand.0.cmp(&b.0)).is_gt()) {
                    best = Some(cand);
                }
            });
        }
        best
    }

    /// The highest-payoff *available* strategy of the `local`-th worker,
    /// payoff ties to the lowest pool index (exhaustive evaluation's
    /// first-strict-maximum rule), or `None` when nothing is available:
    /// one argmax pass over the worker's valid rows.
    #[must_use]
    pub fn best_open(&self, local: usize) -> Option<(u32, f64)> {
        let rows = self.space.rows(local);
        let other_taken = self.taken & !self.own_masks[local];
        kernel::best_open(&rows, other_taken).map(|(pos, p)| (rows.pool_idx[pos], p))
    }

    /// [`GameContext::best_open`] plus the scan counters: the winner's
    /// payoff-order rank plus one, or the number of valid strategies when
    /// nothing is open.
    #[must_use]
    pub fn best_available(&mut self, local: usize) -> (Option<(u32, f64)>, DescScan) {
        let best = self.best_open(local);
        let rank = best.map(|(idx, p)| {
            let (last_idx, last_rank) = &mut self.last_rank[local];
            if *last_idx != idx {
                *last_idx = idx;
                *last_rank = kernel::payoff_rank(&self.space.rows(local), idx, p) as u32;
            }
            *last_rank as usize
        });
        (
            best,
            DescScan::stopped_at(rank, self.space.strategy_count(local)),
        )
    }

    /// Collects every *available* strategy of the `local`-th worker whose
    /// payoff strictly exceeds `threshold`, in ascending pool-index order
    /// (exactly the sequence the exhaustive ascending filter produces).
    /// The counters are those of a payoff-order scan that stops at the
    /// first payoff at or below the threshold.
    pub fn better_available(
        &self,
        local: usize,
        threshold: f64,
        out: &mut Vec<(u32, f64)>,
    ) -> DescScan {
        out.clear();
        let rows = self.space.rows(local);
        let other_taken = self.taken & !self.own_masks[local];
        let above = kernel::for_each_better(&rows, threshold, other_taken, |pos, p| {
            out.push((rows.pool_idx[pos], p));
        });
        out.sort_unstable_by_key(|&(idx, _)| idx);
        // The payoff-order scan examines every strategy above the
        // threshold, then stops on the first one that is not.
        DescScan::stopped_at(Some(above), self.space.strategy_count(local))
    }

    /// Materialises the current selection as an [`Assignment`].
    ///
    /// Only the winners become [`fta_core::route::Route`]s: each selected
    /// pool row is assembled through the trusted from-parts constructor,
    /// bit-identical to `Route::build` over its stops.
    #[must_use]
    pub fn to_assignment(&self) -> Assignment {
        self.selection
            .iter()
            .enumerate()
            .filter_map(|(local, sel)| {
                sel.map(|idx| {
                    (
                        self.space.worker_id(local),
                        std::sync::Arc::new(self.space.pool.route(idx as usize)),
                    )
                })
            })
            .collect()
    }

    /// The worker ids of this population, in local order.
    #[must_use]
    pub fn worker_ids(&self) -> Vec<WorkerId> {
        self.space.view.workers.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
    use fta_core::geometry::Point;
    use fta_core::ids::{CenterId, DeliveryPointId, TaskId};
    use fta_core::Instance;
    use fta_vdps::VdpsConfig;

    /// dc at origin; three dps on a line; two identical workers at dc.
    pub(crate) fn three_dp_instance() -> Instance {
        let dps: Vec<DeliveryPoint> = (0..3)
            .map(|i| DeliveryPoint {
                id: DeliveryPointId::from_index(i),
                location: Point::new((i + 1) as f64, 0.0),
                center: CenterId(0),
            })
            .collect();
        let tasks: Vec<SpatialTask> = (0..3)
            .map(|i| SpatialTask {
                id: TaskId::from_index(i),
                delivery_point: DeliveryPointId::from_index(i),
                expiry: 50.0,
                reward: (i + 1) as f64,
            })
            .collect();
        Instance::new(
            vec![DistributionCenter {
                id: CenterId(0),
                location: Point::new(0.0, 0.0),
            }],
            vec![
                Worker {
                    id: WorkerId(0),
                    location: Point::new(0.0, 0.5),
                    max_dp: 2,
                    center: CenterId(0),
                },
                Worker {
                    id: WorkerId(1),
                    location: Point::new(0.5, 0.0),
                    max_dp: 2,
                    center: CenterId(0),
                },
            ],
            dps,
            tasks,
            1.0,
        )
        .unwrap()
    }

    fn space(inst: &Instance) -> StrategySpace {
        let views = inst.center_views();
        StrategySpace::build(inst, &views[0], &VdpsConfig::unpruned(2))
    }

    #[test]
    fn fresh_context_is_all_null() {
        let inst = three_dp_instance();
        let s = space(&inst);
        let ctx = GameContext::new(&s);
        assert_eq!(ctx.n_workers(), 2);
        assert_eq!(ctx.payoffs(), &[0.0, 0.0]);
        assert_eq!(ctx.to_assignment().assigned_workers(), 0);
    }

    #[test]
    fn selection_blocks_conflicting_strategies() {
        let inst = three_dp_instance();
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        // Worker 0 takes {dp0} (mask 0b001).
        let dp0 = s.pool.masks().iter().position(|&m| m == 0b001).unwrap() as u32;
        ctx.set_strategy(0, Some(dp0));
        assert!(ctx.payoff(0) > 0.0);
        // Worker 1 may not take anything containing dp0.
        let pair = s.pool.masks().iter().position(|&m| m == 0b011).unwrap() as u32;
        assert!(!ctx.is_available(1, pair));
        let dp1 = s.pool.masks().iter().position(|&m| m == 0b010).unwrap() as u32;
        assert!(ctx.is_available(1, dp1));
        // Worker 0 itself can upgrade to a superset of its own mask.
        assert!(ctx.is_available(0, pair));
    }

    #[test]
    fn set_strategy_releases_previous_mask() {
        let inst = three_dp_instance();
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let dp0 = s.pool.masks().iter().position(|&m| m == 0b001).unwrap() as u32;
        let dp1 = s.pool.masks().iter().position(|&m| m == 0b010).unwrap() as u32;
        ctx.set_strategy(0, Some(dp0));
        let prev = ctx.set_strategy(0, Some(dp1));
        assert_eq!(prev, Some(dp0));
        // dp0 is free again.
        assert!(ctx.is_available(1, dp0));
    }

    #[test]
    fn available_strategies_excludes_taken() {
        let inst = three_dp_instance();
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let all: Vec<u32> = ctx.available_strategies(1).map(|(i, _)| i).collect();
        assert_eq!(all.len(), s.strategy_count(1));
        let dp2 = s.pool.masks().iter().position(|&m| m == 0b100).unwrap() as u32;
        ctx.set_strategy(0, Some(dp2));
        let remaining: Vec<u32> = ctx.available_strategies(1).map(|(i, _)| i).collect();
        assert!(remaining.len() < all.len());
        assert!(remaining
            .iter()
            .all(|&i| s.pool.mask(i as usize) & 0b100 == 0));
    }

    #[test]
    fn to_assignment_round_trips_and_validates() {
        let inst = three_dp_instance();
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let dp0 = s.pool.masks().iter().position(|&m| m == 0b001).unwrap() as u32;
        let dp12 = s.pool.masks().iter().position(|&m| m == 0b110).unwrap() as u32;
        ctx.set_strategy(0, Some(dp0));
        ctx.set_strategy(1, Some(dp12));
        let a = ctx.to_assignment();
        assert_eq!(a.assigned_workers(), 2);
        assert!(a.validate(&inst).is_ok());
        // Assignment payoffs match cached context payoffs.
        let ws = ctx.worker_ids();
        let payoffs = a.payoffs(&inst, &ws);
        for (cached, fresh) in ctx.payoffs().iter().zip(payoffs.iter()) {
            assert!((cached - fresh).abs() < 1e-12);
        }
    }

    #[test]
    fn running_total_matches_fold_and_own_mask_cache_is_exact() {
        let inst = three_dp_instance();
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let dp0 = s.pool.masks().iter().position(|&m| m == 0b001).unwrap() as u32;
        let dp12 = s.pool.masks().iter().position(|&m| m == 0b110).unwrap() as u32;
        ctx.set_strategy(0, Some(dp0));
        ctx.set_strategy(1, Some(dp12));
        let fold: f64 = ctx.payoffs().iter().sum();
        assert!((ctx.total_payoff() - fold).abs() < 1e-12);
        assert_eq!(ctx.own_mask(0), 0b001);
        assert_eq!(ctx.own_mask(1), 0b110);
        ctx.set_strategy(0, None);
        let fold: f64 = ctx.payoffs().iter().sum();
        assert!((ctx.total_payoff() - fold).abs() < 1e-12);
        assert_eq!(ctx.own_mask(0), 0);
    }

    #[test]
    fn best_available_matches_exhaustive_argmax() {
        let inst = three_dp_instance();
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        // With nothing taken, the scan must return the max-payoff strategy
        // (first strict maximum in ascending order on ties).
        for local in 0..ctx.n_workers() {
            let expect = ctx.available_strategies(local).fold(
                None::<(u32, f64)>,
                |acc, (idx, p)| match acc {
                    Some((_, bp)) if p <= bp => acc,
                    _ => Some((idx, p)),
                },
            );
            let (got, scan) = ctx.best_available(local);
            assert_eq!(got, expect, "worker {local}");
            assert!(scan.scanned >= 1);
        }
        // Occupy dps so some strategies are blocked, and re-check.
        let dp12 = s.pool.masks().iter().position(|&m| m == 0b110).unwrap() as u32;
        ctx.set_strategy(0, Some(dp12));
        let expect =
            ctx.available_strategies(1)
                .fold(None::<(u32, f64)>, |acc, (idx, p)| match acc {
                    Some((_, bp)) if p <= bp => acc,
                    _ => Some((idx, p)),
                });
        let (got, _) = ctx.best_available(1);
        assert_eq!(got, expect);
    }

    #[test]
    fn better_available_matches_exhaustive_filter() {
        let inst = three_dp_instance();
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let dp0 = s.pool.masks().iter().position(|&m| m == 0b001).unwrap() as u32;
        ctx.set_strategy(0, Some(dp0));
        for threshold in [0.0, 0.5, 1.0, 2.0, 100.0] {
            let expect: Vec<(u32, f64)> = ctx
                .available_strategies(1)
                .filter(|&(_, p)| p > threshold)
                .collect();
            let mut got = Vec::new();
            ctx.better_available(1, threshold, &mut got);
            assert_eq!(got, expect, "threshold {threshold}");
        }
    }

    #[test]
    fn unassigning_returns_to_null() {
        let inst = three_dp_instance();
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let dp0 = s.pool.masks().iter().position(|&m| m == 0b001).unwrap() as u32;
        ctx.set_strategy(0, Some(dp0));
        ctx.set_strategy(0, None);
        assert_eq!(ctx.payoff(0), 0.0);
        assert_eq!(ctx.own_mask(0), 0);
        assert!(ctx.is_available(1, dp0));
    }
}
