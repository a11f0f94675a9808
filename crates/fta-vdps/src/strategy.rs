//! Per-worker strategy spaces (Section V-B).
//!
//! After C-VDPS generation, each worker's strategy set `ST_i` consists of
//! the C-VDPSs that are valid *for that worker* — the worker can reach the
//! distribution center early enough that every deadline on the route still
//! holds, and the set is no larger than the worker's `maxDP` — plus the
//! `null` strategy. [`StrategySpace`] materialises this once per center and
//! precomputes each worker's payoff for each of its strategies, which the
//! game-theoretic algorithms then consume.

use crate::arena;
use crate::config::VdpsConfig;
use crate::generator::{generate_c_vdps_budgeted, GenControl, GenerationStats, Vdps};
use crate::pool::TaskScope;
use fta_core::instance::{CenterView, DpAggregate, Instance};
use fta_core::payoff::payoff_from_parts;
use fta_core::WorkerId;
use std::sync::Arc;

/// Minimum `workers × pool entries` product before per-worker validation
/// is worth farming out to the worker pool.
const PAR_MIN_VALIDATION_WORK: usize = 1 << 12;

/// Crossover heuristic for the incremental conflict index: below this many
/// total (worker, strategy) slots the plain `mask & other_taken` scan is
/// already cache-resident and cheaper than maintaining per-slot conflict
/// counters, so no index is built and `GameContext` falls back to the mask
/// scan. At or above it, availability flips are propagated in O(affected
/// slots) through the inverted DP-bit → slot lists instead of re-deriving
/// availability from scratch per probe.
///
/// This is the compiled-in *default*; the effective value is the
/// installed [`crate::hotpath::HotpathProfile`]'s
/// `conflict_index_min_slots`, which the calibration bench derives from
/// measured scan/maintenance costs on the current machine.
pub const CONFLICT_INDEX_MIN_SLOTS: usize = 1 << 12;

/// Density half of the crossover heuristic: the conflict index is only
/// built when each delivery-point bit appears in at most this many slots
/// on average. An availability probe through the index (one `u32` load)
/// costs about the same as the `u128` mask AND it replaces, so the index's
/// value is bounded — while its maintenance cost on every strategy switch
/// is O(Σ posting-list length over the affected bits). In dense spaces
/// (few DPs shared by tens of thousands of strategy slots, the typical
/// shape of an FTA center at paper scale) that per-switch walk dwarfs any
/// probe savings and the mask scan wins outright, so the index is reserved
/// for sparse spaces where posting lists stay short.
///
/// Like [`CONFLICT_INDEX_MIN_SLOTS`], this is the compiled-in default
/// behind the installed [`crate::hotpath::HotpathProfile`].
pub const CONFLICT_INDEX_MAX_SLOTS_PER_BIT: usize = 64;

/// Immutable inverted index from delivery-point bit to the strategy slots
/// whose masks contain that bit, in CSR layout over the center-local bit
/// space. Built once per [`StrategySpace`] (when the space is large enough
/// to clear [`CONFLICT_INDEX_MIN_SLOTS`]); the *mutable* per-slot conflict
/// counters live in the game context that plays over the space.
#[derive(Debug, Clone, Default)]
pub struct ConflictSets {
    /// CSR row starts: bit `b`'s slots are
    /// `slots[starts[b] as usize..starts[b + 1] as usize]`.
    starts: Vec<u32>,
    /// Concatenated global slot ids, ascending within each bit row.
    slots: Vec<u32>,
}

impl ConflictSets {
    /// The global slot ids whose masks contain delivery-point bit `bit`.
    #[must_use]
    pub fn slots_of(&self, bit: u32) -> &[u32] {
        let b = bit as usize;
        &self.slots[self.starts[b] as usize..self.starts[b + 1] as usize]
    }

    /// Number of delivery-point bits indexed.
    #[must_use]
    pub fn n_bits(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Total number of (bit, slot) incidences.
    #[must_use]
    pub fn n_entries(&self) -> usize {
        self.slots.len()
    }

    fn build(n_bits: usize, slot_masks: &[u128]) -> Self {
        let mut counts = vec![0u32; n_bits + 1];
        for &mask in slot_masks {
            let mut m = mask;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                counts[bit + 1] += 1;
                m &= m - 1;
            }
        }
        for b in 0..n_bits {
            counts[b + 1] += counts[b];
        }
        let starts = counts;
        let mut cursor = starts.clone();
        let mut slots = vec![0u32; *starts.last().unwrap_or(&0) as usize];
        for (slot, &mask) in slot_masks.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                slots[cursor[bit] as usize] = slot as u32;
                cursor[bit] += 1;
                m &= m - 1;
            }
        }
        Self { starts, slots }
    }
}

/// Flat per-slot columns: `offsets` delimits each worker's *slot range*
/// in the three parallel vectors. Validation appends one worker's slots
/// at a time and closes the range with [`SlotColumns::end_worker`].
#[derive(Debug, Clone)]
struct SlotColumns {
    /// Worker `local` owns slots `offsets[local]..offsets[local + 1]`.
    offsets: Vec<u32>,
    /// Pool indices, ascending within each worker's range.
    pool: Vec<u32>,
    /// Payoffs, parallel to `pool`.
    payoffs: Vec<f64>,
    /// Delivery-point masks (`pool[idx].mask` memoised), parallel to
    /// `pool`.
    masks: Vec<u128>,
}

impl SlotColumns {
    /// Empty columns sized for `n_workers` ranges holding `n_slots` slots
    /// in total, so validation appends without reallocating.
    fn with_capacity(n_workers: usize, n_slots: usize) -> Self {
        let mut offsets = Vec::with_capacity(n_workers + 1);
        offsets.push(0);
        Self {
            offsets,
            pool: Vec::with_capacity(n_slots),
            payoffs: Vec::with_capacity(n_slots),
            masks: Vec::with_capacity(n_slots),
        }
    }

    fn push(&mut self, idx: u32, payoff: f64, mask: u128) {
        self.pool.push(idx);
        self.payoffs.push(payoff);
        self.masks.push(mask);
    }

    fn end_worker(&mut self) {
        self.offsets.push(self.pool.len() as u32);
    }

    /// Appends the workers of `chunk`, rebasing its offsets.
    fn append(&mut self, chunk: &Self) {
        let base = self.pool.len() as u32;
        self.pool.extend_from_slice(&chunk.pool);
        self.payoffs.extend_from_slice(&chunk.payoffs);
        self.masks.extend_from_slice(&chunk.masks);
        self.offsets
            .extend(chunk.offsets[1..].iter().map(|&o| o + base));
    }

    fn range(&self, local: usize) -> std::ops::Range<usize> {
        worker_range(&self.offsets, local)
    }
}

/// Worker `local`'s slot range under CSR `offsets`.
fn worker_range(offsets: &[u32], local: usize) -> std::ops::Range<usize> {
    offsets[local] as usize..offsets[local + 1] as usize
}

/// The strategy spaces of all workers of one distribution center.
///
/// Per-worker strategy data lives in a structure-of-arrays layout: one
/// flat, contiguous vector per attribute (pool index, payoff, delivery-point
/// mask) with offsets delimiting each worker's *slot range* — 28 bytes per
/// slot. Within a worker's range the slots are ordered by ascending pool
/// index, the canonical iteration order every algorithm observes. The
/// monotone best response (highest payoff among open slots, ties to the
/// lowest pool index) is one argmax pass over that order; scans stream
/// cache-linear memory instead of chasing `pool[idx].mask` indirections.
#[derive(Debug, Clone)]
pub struct StrategySpace {
    /// The center view this space was built from.
    pub view: CenterView,
    /// The shared C-VDPS pool (deterministically ordered).
    pub pool: Vec<Vdps>,
    /// Travel time from each local worker to the distribution center.
    pub worker_to_dc: Vec<f64>,
    /// Every worker's valid slots.
    slots: SlotColumns,
    /// Inverted DP-bit → slot index; `None` below the
    /// [`CONFLICT_INDEX_MIN_SLOTS`] crossover.
    conflict_sets: Option<ConflictSets>,
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
    /// and validation on an active worker-pool scope.
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
        pool: Vec<Vdps>,
        gen_stats: GenerationStats,
    ) -> Self {
        Self::from_pool_in(instance, view.clone(), pool, gen_stats, None)
    }

    /// Validates a pre-generated pool per worker, optionally fanning the
    /// per-worker validation/payoff precompute out over an active
    /// worker-pool scope. Results are identical to the sequential path:
    /// workers are processed in index chunks and reassembled in order.
    #[must_use]
    pub fn from_pool_in(
        instance: &Instance,
        view: CenterView,
        pool: Vec<Vdps>,
        gen_stats: GenerationStats,
        scope: Option<&TaskScope<'_>>,
    ) -> Self {
        let _span = fta_obs::span_center("vdps.strategy_space", view.center.index() as u32);
        let dc = instance.centers[view.center.index()].location;
        let worker_to_dc: Vec<f64> = view
            .workers
            .iter()
            .map(|&w| instance.travel_time(instance.workers[w.index()].location, dc))
            .collect();
        let n_workers = view.workers.len();
        let params = validation_params(instance, &view, &worker_to_dc);
        let soa = PoolSoa::extract(&pool);
        let n_slots = soa.count_valid(&params);

        let parallel = scope.is_some_and(|s| s.threads() > 1)
            && n_workers > 1
            && n_workers.saturating_mul(pool.len()) >= PAR_MIN_VALIDATION_WORK;

        let slots = if parallel {
            let scope = scope.expect("parallel implies an active scope");
            // Per-worker parameters are tiny copies; the columnar pool
            // extract is shared read-only via `Arc` so chunk jobs satisfy
            // the scope's `'env` bound without cloning any `Vdps` (the
            // pool itself never leaves this thread).
            let soa = Arc::new(soa);
            let chunk = n_workers.div_ceil(scope.threads() * 2).max(1);
            let jobs: Vec<_> = params
                .chunks(chunk)
                .map(|chunk_params| {
                    let soa = Arc::clone(&soa);
                    let chunk_params = chunk_params.to_vec();
                    move |_: &TaskScope<'_>| {
                        let n_slots = soa.count_valid(&chunk_params);
                        let mut chunk = SlotColumns::with_capacity(chunk_params.len(), n_slots);
                        for (max_dp, to_dc) in chunk_params {
                            validate_worker(&soa, max_dp, to_dc, &mut chunk);
                        }
                        chunk
                    }
                })
                .collect();
            let mut slots = SlotColumns::with_capacity(n_workers, n_slots);
            for chunk in scope.map(jobs) {
                slots.append(&chunk);
            }
            if let Ok(soa) = Arc::try_unwrap(soa) {
                soa.recycle();
            }
            slots
        } else {
            let mut slots = SlotColumns::with_capacity(n_workers, n_slots);
            for &(max_dp, to_dc) in &params {
                validate_worker(&soa, max_dp, to_dc, &mut slots);
            }
            soa.recycle();
            slots
        };
        debug_assert_eq!(
            slots.pool.len(),
            n_slots,
            "slot count drifted from validation"
        );
        Self::assemble(view, pool, worker_to_dc, slots, gen_stats)
    }

    /// Rebuilds the space around a delta-updated `pool`, reusing each
    /// worker's cached (validity, payoff) pair for every entry the delta
    /// update carried over verbatim (`provenance[j] = Some(old_index)`,
    /// see [`crate::delta_update_with_provenance`]); only entries with a
    /// rebuilt [`Route`] payload go through per-worker validation again.
    ///
    /// Bit-identical to [`StrategySpace::from_pool_in`] on the same
    /// `(instance, view, pool)` **provided the worker side is unchanged**
    /// from the space `prev` was captured from: same workers in the same
    /// local order, each with bitwise-equal location, `maxDP`, and travel
    /// time to the (unchanged) center. The caller asserts this — the
    /// typical caller is the incremental solver, which compares worker
    /// identity bits before taking this path and falls back to
    /// [`StrategySpace::from_pool_in`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `provenance` is not parallel to `pool` or `prev` was
    /// captured over a different worker population size.
    #[must_use]
    pub fn from_pool_delta(
        instance: &Instance,
        view: CenterView,
        pool: Vec<Vdps>,
        provenance: &[Option<u32>],
        prev: &SlotCache,
        gen_stats: GenerationStats,
    ) -> Self {
        let _span = fta_obs::span_center("vdps.strategy_space_delta", view.center.index() as u32);
        assert_eq!(
            provenance.len(),
            pool.len(),
            "provenance not parallel to pool"
        );
        assert_eq!(
            prev.n_workers(),
            view.workers.len(),
            "slot cache captured over a different worker population"
        );
        let dc = instance.centers[view.center.index()].location;
        let worker_to_dc: Vec<f64> = view
            .workers
            .iter()
            .map(|&w| instance.travel_time(instance.workers[w.index()].location, dc))
            .collect();

        // Dense (validity, payoff) lookup over the *previous* pool,
        // refilled per worker and wiped through the same valid list so
        // the reset is O(previous valid slots), not O(previous pool).
        // The dense arrays and the columnar pool extract come from the
        // generation arena, so steady-state re-solves under churn
        // revalidate slots without allocating scratch.
        let (mut dense_valid, mut dense_payoff) =
            arena::with(|a| (a.flags.take(prev.pool_len), a.floats.take(prev.pool_len)));
        dense_valid.resize(prev.pool_len, false);
        dense_payoff.resize(prev.pool_len, 0.0);
        let soa = PoolSoa::extract(&pool);
        let params = validation_params(instance, &view, &worker_to_dc);
        let mut reused_slots = 0u64;
        let mut slots = SlotColumns::with_capacity(params.len(), soa.count_valid(&params));
        for (local, &(max_dp, to_dc)) in params.iter().enumerate() {
            let prev_valid = prev.valid_of(local);
            for (&idx, &payoff) in prev_valid.iter().zip(prev.payoffs_of(local)) {
                dense_valid[idx as usize] = true;
                dense_payoff[idx as usize] = payoff;
            }
            for (j, &prov) in provenance.iter().enumerate() {
                match prov {
                    Some(old) => {
                        // Verbatim-reused entry: same route payload, same
                        // worker parameters — the cached verdict and
                        // payoff are bit-identical to recomputing.
                        if dense_valid[old as usize] {
                            slots.push(j as u32, dense_payoff[old as usize], soa.masks[j]);
                            reused_slots += 1;
                        }
                    }
                    None => {
                        if soa.lens[j] as usize <= max_dp && to_dc <= soa.slacks[j] {
                            let payoff = payoff_from_parts(soa.rewards[j], soa.travels[j], to_dc);
                            slots.push(j as u32, payoff, soa.masks[j]);
                        }
                    }
                }
            }
            slots.end_worker();
            for &idx in prev_valid {
                dense_valid[idx as usize] = false;
            }
        }
        soa.recycle();
        arena::with(|a| {
            a.flags.put(dense_valid);
            a.floats.put(dense_payoff);
        });
        if fta_obs::enabled() {
            fta_obs::counter("vdps.slots_reused", reused_slots);
        }
        Self::assemble(view, pool, worker_to_dc, slots, gen_stats)
    }

    /// Wraps validated slot columns into a space, building the conflict
    /// index when the space clears the crossover.
    fn assemble(
        view: CenterView,
        pool: Vec<Vdps>,
        worker_to_dc: Vec<f64>,
        slots: SlotColumns,
        gen_stats: GenerationStats,
    ) -> Self {
        // Two-sided crossover: the index must be big enough to beat the
        // cache-resident mask scan, yet sparse enough that per-switch
        // maintenance (a walk of every affected bit's posting list) stays
        // cheap relative to the probes it accelerates. Thresholds come
        // from the installed hotpath profile; its defaults are the
        // [`CONFLICT_INDEX_MIN_SLOTS`] / [`CONFLICT_INDEX_MAX_SLOTS_PER_BIT`]
        // constants, so an uncalibrated process behaves exactly as before.
        // Every pool mask has at least one bit, so the (bit, slot)
        // incidence count is at least the slot count: a space whose slot
        // count alone breaks the sparsity cap skips the popcount pass.
        let profile = crate::hotpath::current();
        let total = slots.pool.len();
        let cap = view
            .dps
            .len()
            .max(1)
            .saturating_mul(profile.conflict_index_max_slots_per_bit);
        let sparse = total <= cap
            && slots
                .masks
                .iter()
                .map(|m| m.count_ones() as usize)
                .sum::<usize>()
                <= cap;
        let conflict_sets = (total >= profile.conflict_index_min_slots && sparse)
            .then(|| ConflictSets::build(view.dps.len(), &slots.masks));
        Self {
            view,
            pool,
            worker_to_dc,
            slots,
            conflict_sets,
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

    /// The slot range (indices into the flat vectors) owned by the
    /// `local`-th worker.
    #[must_use]
    pub fn slot_range(&self, local: usize) -> std::ops::Range<usize> {
        self.slots.range(local)
    }

    /// Total number of (worker, strategy) slots across all workers.
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.slots.pool.len()
    }

    /// The pool indices of the `local`-th worker's valid strategies,
    /// ascending (the canonical iteration order).
    #[must_use]
    pub fn valid_of(&self, local: usize) -> &[u32] {
        &self.slots.pool[self.slot_range(local)]
    }

    /// Payoffs parallel to [`StrategySpace::valid_of`].
    #[must_use]
    pub fn payoffs_of(&self, local: usize) -> &[f64] {
        &self.slots.payoffs[self.slot_range(local)]
    }

    /// Delivery-point masks parallel to [`StrategySpace::valid_of`].
    #[must_use]
    pub fn masks_of(&self, local: usize) -> &[u128] {
        &self.slots.masks[self.slot_range(local)]
    }

    /// The full flat mask vector (all workers' slots, ascending pool index
    /// within each worker's [`StrategySpace::slot_range`]).
    #[must_use]
    pub fn slot_masks(&self) -> &[u128] {
        &self.slots.masks
    }

    /// The full flat pool-index vector, parallel to
    /// [`StrategySpace::slot_masks`].
    #[must_use]
    pub fn slot_pool(&self) -> &[u32] {
        &self.slots.pool
    }

    /// The inverted DP-bit → slot index, present when the space is large
    /// enough that incremental conflict maintenance beats the mask scan
    /// (the [`CONFLICT_INDEX_MIN_SLOTS`] crossover heuristic).
    #[must_use]
    pub fn conflict_sets(&self) -> Option<&ConflictSets> {
        self.conflict_sets.as_ref()
    }

    /// Number of non-null strategies available to the `local`-th worker.
    #[must_use]
    pub fn strategy_count(&self, local: usize) -> usize {
        self.slot_range(local).len()
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

    /// The payoff the `local`-th worker obtains from pool entry
    /// `pool_idx`, if that strategy is valid for the worker.
    #[must_use]
    pub fn payoff_of(&self, local: usize, pool_idx: u32) -> Option<f64> {
        let valid = self.valid_of(local);
        let pos = valid.binary_search(&pool_idx).ok()?;
        Some(self.payoffs_of(local)[pos])
    }

    /// The mask of the `local`-th worker's strategy at `pool_idx`, looked
    /// up through the flat slot layout (avoids the `pool` indirection).
    #[must_use]
    pub fn mask_of_pool(&self, pool_idx: u32) -> u128 {
        self.pool[pool_idx as usize].mask
    }
}

/// Per-worker validation results captured from a built [`StrategySpace`],
/// keyed by the pool indices of the space they were captured from. Feeds
/// [`StrategySpace::from_pool_delta`], which maps them through a delta
/// update's provenance so verbatim-reused pool entries skip per-worker
/// revalidation entirely.
#[derive(Debug, Clone, Default)]
pub struct SlotCache {
    /// Length of the pool the cached space was built over (the index
    /// space the cached pool indices live in).
    pool_len: usize,
    /// Slot ranges, as in [`StrategySpace`].
    offsets: Vec<u32>,
    /// Valid pool indices, ascending within each worker's range.
    valid: Vec<u32>,
    /// Payoffs, parallel to `valid`.
    payoffs: Vec<f64>,
}

impl SlotCache {
    /// Captures the per-worker slot data of `space`.
    #[must_use]
    pub fn capture(space: &StrategySpace) -> Self {
        Self {
            pool_len: space.pool.len(),
            offsets: space.slots.offsets.clone(),
            valid: space.slots.pool.clone(),
            payoffs: space.slots.payoffs.clone(),
        }
    }

    /// Number of local workers the cache covers.
    #[must_use]
    pub fn n_workers(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total cached (worker, strategy) slots.
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.valid.len()
    }

    fn valid_of(&self, local: usize) -> &[u32] {
        &self.valid[worker_range(&self.offsets, local)]
    }

    fn payoffs_of(&self, local: usize) -> &[f64] {
        &self.payoffs[worker_range(&self.offsets, local)]
    }
}

/// Columnar (struct-of-arrays) copy of the pool fields per-worker
/// validation reads: entry length, route slack, total reward, travel
/// time from the distribution center, and the mask each valid slot
/// memoises. Extracted once per space build, so
/// the O(workers × pool) validation pass streams four flat arrays instead
/// of dereferencing one heap `Route` per entry per worker. The arrays are
/// borrowed from the generation arena and returned via
/// [`PoolSoa::recycle`] once every worker is validated.
struct PoolSoa {
    lens: Vec<u32>,
    slacks: Vec<f64>,
    rewards: Vec<f64>,
    travels: Vec<f64>,
    masks: Vec<u128>,
    /// `slacks_by_len[l]`: the slacks of the `l`-point entries, ascending
    /// (sizes the slot columns, see [`PoolSoa::count_valid`]).
    slacks_by_len: Vec<Vec<f64>>,
}

impl PoolSoa {
    fn extract(pool: &[Vdps]) -> Self {
        let n = pool.len();
        let (lens, slacks, rewards, travels, masks) = arena::with(|a| {
            (
                a.indices.take(n),
                a.floats.take(n),
                a.floats.take(n),
                a.floats.take(n),
                a.masks.take(n),
            )
        });
        let mut soa = Self {
            lens,
            slacks,
            rewards,
            travels,
            masks,
            slacks_by_len: Vec::new(),
        };
        for vdps in pool {
            let len = vdps.len();
            let slack = vdps.route.slack();
            soa.lens.push(len as u32);
            soa.slacks.push(slack);
            soa.rewards.push(vdps.route.total_reward());
            soa.travels.push(vdps.route.travel_from_dc());
            soa.masks.push(vdps.mask);
            if soa.slacks_by_len.len() <= len {
                soa.slacks_by_len.resize_with(len + 1, Vec::new);
            }
            soa.slacks_by_len[len].push(slack);
        }
        for bucket in &mut soa.slacks_by_len {
            bucket.sort_unstable_by(f64::total_cmp);
        }
        soa
    }

    /// How many slots [`validate_worker`] will emit for workers with these
    /// `(maxDP, travel to the center)` parameters: per entry length up to
    /// `maxDP`, a binary search for the slacks `≥ to_dc`. Exact for
    /// non-NaN inputs; it only sizes allocations, so it can never change
    /// which slots are emitted.
    fn count_valid(&self, params: &[(usize, f64)]) -> usize {
        params
            .iter()
            .map(|&(max_dp, to_dc)| {
                self.slacks_by_len
                    .iter()
                    .take(max_dp.saturating_add(1))
                    .map(|b| b.len() - b.partition_point(|&s| s < to_dc))
                    .sum::<usize>()
            })
            .sum()
    }

    fn recycle(self) {
        arena::with(|a| {
            a.indices.put(self.lens);
            a.floats.put(self.slacks);
            a.floats.put(self.rewards);
            a.floats.put(self.travels);
            a.masks.put(self.masks);
        });
    }
}

/// Each local worker's validation parameters: `(maxDP, travel time to the
/// center)`.
fn validation_params(
    instance: &Instance,
    view: &CenterView,
    worker_to_dc: &[f64],
) -> Vec<(usize, f64)> {
    view.workers
        .iter()
        .zip(worker_to_dc)
        .map(|(&w, &to_dc)| (instance.workers[w.index()].max_dp, to_dc))
        .collect()
}

/// One worker's validation pass over the shared pool: which strategies the
/// worker can execute within every deadline (given its travel time to the
/// center and its `maxDP`), and the payoff of each, appended to `slots` as
/// the worker's range.
///
/// Scans the columnar [`PoolSoa`] — `lens[idx] <= max_dp` and
/// `to_dc <= slacks[idx]` are exactly `Vdps::len` and
/// [`fta_core::route::Route::is_valid_for_travel`] over the extracted
/// scalars, and [`payoff_from_parts`] is the same expression as
/// [`fta_core::payoff::payoff_for_travel`] — so the results are
/// bit-identical to walking the `Vdps` entries themselves.
fn validate_worker(soa: &PoolSoa, max_dp: usize, to_dc: f64, slots: &mut SlotColumns) {
    for idx in 0..soa.lens.len() {
        if soa.lens[idx] as usize <= max_dp && to_dc <= soa.slacks[idx] {
            let payoff = payoff_from_parts(soa.rewards[idx], soa.travels[idx], to_dc);
            slots.push(idx as u32, payoff, soa.masks[idx]);
        }
    }
    slots.end_worker();
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
        let idx = s.valid_of(1)[0];
        assert_eq!(s.pool[idx as usize].mask, 0b10);
        assert_eq!(s.masks_of(1)[0], 0b10);
    }

    #[test]
    fn payoffs_match_direct_computation() {
        let inst = instance();
        let s = space(&inst);
        // Worker 0 taking {dp1}: reward 3, travel 0.5 + 2.0 = 2.5 → 1.2.
        let idx = s
            .valid_of(0)
            .iter()
            .position(|&i| s.pool[i as usize].mask == 0b10)
            .unwrap();
        assert!((s.payoffs_of(0)[idx] - 1.2).abs() < 1e-12);
        assert_eq!(
            s.payoff_of(0, s.valid_of(0)[idx]),
            Some(s.payoffs_of(0)[idx])
        );
    }

    #[test]
    fn payoff_of_rejects_invalid_strategy() {
        let inst = instance();
        let s = space(&inst);
        // Worker 1 cannot take pool entry for {dp0} (mask 0b01).
        let dp0_idx = s.pool.iter().position(|v| v.mask == 0b01).unwrap() as u32;
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
            let valid = s.valid_of(local);
            let payoffs = s.payoffs_of(local);
            let masks = s.masks_of(local);
            assert_eq!(valid.len(), s.strategy_count(local));
            assert_eq!(payoffs.len(), valid.len());
            assert_eq!(masks.len(), valid.len());
            // Ascending pool index in the canonical order; masks memoised.
            assert!(valid.windows(2).all(|w| w[0] < w[1]));
            for (pos, &idx) in valid.iter().enumerate() {
                assert_eq!(masks[pos], s.pool[idx as usize].mask);
                assert_eq!(s.payoff_of(local, idx), Some(payoffs[pos]));
            }
        }
    }
}
