//! The retired `GameContext`, kept as the oracle of the implicit one: the
//! same selection state and the same query methods, answered over the
//! materialised slots of `fta-vdps/tests/support/materialised.rs` the way
//! the context did before strategy spaces stopped writing slots out —
//! availability and validity from the slot columns, the best response as
//! the first open slot of the payoff-sorted list, IEGT's strictly-better
//! set as the prefix of that list above the threshold. The work counters
//! are recomputed from their definition ([`reach_work`]): the slots of the
//! row lengths `L` whose masks' union has at least `L` points outside the
//! taken mask.
//!
//! The production algorithm sources compile against it unchanged (see
//! `proptest_best_response_oracle.rs`), so both representations run the
//! very same game code.

use crate::materialised::SlotColumns;
use fta_algorithms::ScanWork;
use fta_core::{Assignment, WorkerId};
use fta_vdps::StrategySpace;
use std::rc::Rc;

/// Mutable selection state over one center's materialised slots.
#[derive(Debug, Clone)]
pub struct GameContext<'a> {
    space: &'a StrategySpace,
    slots: Rc<SlotColumns>,
    selection: Vec<Option<u32>>,
    taken: u128,
    payoffs: Vec<f64>,
    own_masks: Vec<u128>,
    total: f64,
}

impl<'a> GameContext<'a> {
    /// Creates a context with every worker on the null strategy.
    #[must_use]
    pub fn new(space: &'a StrategySpace) -> Self {
        let n = space.n_workers();
        Self {
            space,
            slots: Rc::new(SlotColumns::of(space)),
            selection: vec![None; n],
            taken: 0,
            payoffs: vec![0.0; n],
            own_masks: vec![0; n],
            total: 0.0,
        }
    }

    pub fn space(&self) -> &'a StrategySpace {
        self.space
    }

    pub fn n_workers(&self) -> usize {
        self.selection.len()
    }

    pub fn selection(&self, local: usize) -> Option<u32> {
        self.selection[local]
    }

    pub fn payoff(&self, local: usize) -> f64 {
        self.payoffs[local]
    }

    pub fn payoffs(&self) -> &[f64] {
        &self.payoffs
    }

    pub fn total_payoff(&self) -> f64 {
        self.total
    }

    pub fn is_available(&self, local: usize, pool_idx: u32) -> bool {
        let candidate = self.space.pool.mask(pool_idx as usize);
        candidate & (self.taken & !self.own_masks[local]) == 0
    }

    pub fn own_mask(&self, local: usize) -> u128 {
        self.own_masks[local]
    }

    pub fn taken_mask(&self) -> u128 {
        self.taken
    }

    pub fn set_strategy(&mut self, local: usize, strategy: Option<u32>) -> Option<u32> {
        let prev = self.selection[local];
        self.taken &= !self.own_masks[local];
        let (new_mask, payoff) = match strategy {
            Some(idx) => {
                let payoff = self
                    .slots
                    .payoff_of(local, idx)
                    .expect("strategy must be valid for the worker");
                let mask = self.space.pool.mask(idx as usize);
                assert_eq!(mask & self.taken, 0, "strategy conflicts");
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

    fn other_taken(&self, local: usize) -> u128 {
        self.taken & !self.own_masks[local]
    }

    /// Open slots, ascending pool index.
    pub fn available_strategies(&self, local: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let slots = &self.slots;
        let other_taken = self.other_taken(local);
        (0..slots.valid_of(local).len())
            .filter(move |&pos| slots.masks_of(local)[pos] & other_taken == 0)
            .map(move |pos| (slots.valid_of(local)[pos], slots.payoffs_of(local)[pos]))
    }

    /// Open slots of `len` points, ascending pool index, into `out`.
    pub fn available_of_len(&self, local: usize, len: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.available_strategies(local)
                .map(|(idx, _)| idx)
                .filter(|&idx| self.space.pool.row_len(idx as usize) == len),
        );
    }

    /// The union of the masks of the open single-point slots.
    pub fn open_singles(&self, local: usize) -> u128 {
        let mut singles = Vec::new();
        self.available_of_len(local, 1, &mut singles);
        singles
            .iter()
            .fold(0, |union, &idx| union | self.space.pool.mask(idx as usize))
    }

    /// MPTA's climb step as it was written: `max_by` over the open slots.
    pub fn max_available(&self, local: usize) -> Option<(u32, f64)> {
        self.available_strategies(local)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    pub fn best_open(&self, local: usize) -> Option<(u32, f64)> {
        self.first_hit(local)
    }

    pub fn best_available(&self, local: usize) -> (Option<(u32, f64)>, ScanWork) {
        (self.first_hit(local), self.work(local))
    }

    fn work(&self, local: usize) -> ScanWork {
        reach_work(self.space, &self.slots, local, self.other_taken(local))
    }

    /// First open slot of the payoff-sorted list.
    fn first_hit(&self, local: usize) -> Option<(u32, f64)> {
        let other_taken = self.other_taken(local);
        self.slots
            .desc_order(local)
            .into_iter()
            .find(|&pos| self.slots.masks_of(local)[pos] & other_taken == 0)
            .map(|pos| {
                (
                    self.slots.valid_of(local)[pos],
                    self.slots.payoffs_of(local)[pos],
                )
            })
    }

    /// Open slots of the payoff-sorted prefix above `threshold`, re-sorted
    /// to ascending pool index.
    pub fn better_available(
        &self,
        local: usize,
        threshold: f64,
        out: &mut Vec<(u32, f64)>,
    ) -> ScanWork {
        out.clear();
        let other_taken = self.other_taken(local);
        for pos in self.slots.desc_order(local) {
            let p = self.slots.payoffs_of(local)[pos];
            if p <= threshold {
                break;
            }
            if self.slots.masks_of(local)[pos] & other_taken == 0 {
                out.push((self.slots.valid_of(local)[pos], p));
            }
        }
        out.sort_unstable_by_key(|&(idx, _)| idx);
        self.work(local)
    }

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

    pub fn worker_ids(&self) -> Vec<WorkerId> {
        self.space.view.workers.clone()
    }
}

/// The work counters' definition over materialised slots: group the
/// worker's valid slots by row length `L`; a group whose masks' union has
/// fewer than `L` points outside `taken` is skipped, every other group's
/// slots are scanned.
pub fn reach_work(
    space: &StrategySpace,
    slots: &SlotColumns,
    local: usize,
    taken: u128,
) -> ScanWork {
    let mut unions: Vec<(u64, u128)> = Vec::new();
    for (&idx, &mask) in slots.valid_of(local).iter().zip(slots.masks_of(local)) {
        let len = space.pool.row_len(idx as usize);
        if unions.len() <= len {
            unions.resize(len + 1, (0, 0));
        }
        unions[len].0 += 1;
        unions[len].1 |= mask;
    }
    let mut work = ScanWork::default();
    let groups = unions.into_iter().enumerate();
    for (len, (count, union)) in groups.filter(|&(_, (count, _))| count > 0) {
        if (union & !taken).count_ones() as usize >= len {
            work.scanned += count;
        } else {
            work.skipped_prefix = true;
        }
    }
    work
}
