//! The retired materialised strategy space, kept as the oracle of the
//! implicit one. Every worker's valid slots — pool index, payoff and
//! delivery-point mask, ascending pool index within the worker's range —
//! are written out by one pass of the validation predicate over the
//! pool's columns per worker, exactly as `StrategySpace` did before it
//! sorted the pool once and kept one valid prefix per row length.
//!
//! Test-only code, written against the public API so the unit and
//! integration tests of several crates can include it.

#![allow(dead_code)]

use fta_core::payoff::payoff_from_parts;
use fta_vdps::{StrategySpace, VdpsPool};
use std::ops::Range;

/// Flat per-slot columns: `offsets` delimits each worker's slot range in
/// the three parallel vectors.
#[derive(Debug, Clone)]
pub struct SlotColumns {
    /// Worker `local` owns slots `offsets[local]..offsets[local + 1]`.
    offsets: Vec<u32>,
    /// Pool indices, ascending within each worker's range.
    pool: Vec<u32>,
    /// Payoffs, parallel to `pool`.
    payoffs: Vec<f64>,
    /// Delivery-point masks, parallel to `pool`.
    masks: Vec<u128>,
}

impl SlotColumns {
    /// Validates `space`'s pool for each of its workers.
    #[must_use]
    pub fn of(space: &StrategySpace) -> Self {
        let params: Vec<(usize, f64)> = (0..space.n_workers())
            .map(|local| (space.max_dp(local), space.worker_to_dc[local]))
            .collect();
        Self::validate(&space.pool, &params)
    }

    /// Validates `pool` for workers with these `(maxDP, travel time to the
    /// center)` parameters.
    #[must_use]
    pub fn validate(pool: &VdpsPool, params: &[(usize, f64)]) -> Self {
        let mut slots = Self {
            offsets: vec![0],
            pool: Vec::new(),
            payoffs: Vec::new(),
            masks: Vec::new(),
        };
        for &(max_dp, to_dc) in params {
            validate_worker(pool, max_dp, to_dc, &mut slots);
        }
        slots
    }

    /// Number of workers covered.
    #[must_use]
    pub fn n_workers(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total (worker, strategy) slots.
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.pool.len()
    }

    fn range(&self, local: usize) -> Range<usize> {
        self.offsets[local] as usize..self.offsets[local + 1] as usize
    }

    /// The pool indices of the `local`-th worker's valid strategies,
    /// ascending.
    #[must_use]
    pub fn valid_of(&self, local: usize) -> &[u32] {
        &self.pool[self.range(local)]
    }

    /// Payoffs parallel to [`SlotColumns::valid_of`].
    #[must_use]
    pub fn payoffs_of(&self, local: usize) -> &[f64] {
        &self.payoffs[self.range(local)]
    }

    /// Delivery-point masks parallel to [`SlotColumns::valid_of`].
    #[must_use]
    pub fn masks_of(&self, local: usize) -> &[u128] {
        &self.masks[self.range(local)]
    }

    /// The payoff of pool entry `pool_idx` for the `local`-th worker, if
    /// valid.
    #[must_use]
    pub fn payoff_of(&self, local: usize, pool_idx: u32) -> Option<f64> {
        let pos = self.valid_of(local).binary_search(&pool_idx).ok()?;
        Some(self.payoffs_of(local)[pos])
    }

    /// The `local`-th worker's slot positions in (payoff descending, pool
    /// index ascending) order: a stable sort of the ascending list.
    #[must_use]
    pub fn desc_order(&self, local: usize) -> Vec<usize> {
        let payoffs = self.payoffs_of(local);
        let mut order: Vec<usize> = (0..payoffs.len()).collect();
        order.sort_by(|&a, &b| payoffs[b].total_cmp(&payoffs[a]));
        order
    }
}

/// One worker's validation pass over the pool: a row's length `≤ max_dp`
/// and `to_dc <= slack` are the set-size check and
/// `Route::is_valid_for_travel`, and the payoff is [`payoff_from_parts`];
/// the worker's slots are appended as its range.
pub fn validate_worker(pool: &VdpsPool, max_dp: usize, to_dc: f64, slots: &mut SlotColumns) {
    let (masks, starts) = (pool.masks(), pool.starts());
    let (rewards, slacks, travels) = (pool.rewards(), pool.slacks(), pool.travels());
    for idx in 0..masks.len() {
        let len = (starts[idx + 1] - starts[idx]) as usize;
        if len <= max_dp && to_dc <= slacks[idx] {
            slots.pool.push(idx as u32);
            slots
                .payoffs
                .push(payoff_from_parts(rewards[idx], travels[idx], to_dc));
            slots.masks.push(masks[idx]);
        }
    }
    slots.offsets.push(slots.pool.len() as u32);
}
