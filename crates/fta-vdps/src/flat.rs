//! The flat-frontier C-VDPS engine: a cache-friendly, optionally parallel
//! implementation of Algorithm 1's subset dynamic program, run by every
//! generator entry point in [`crate::generator`].
//!
//! The textbook layout keeps each DP layer in a
//! `HashMap<(u128, u8), State>`: every candidate extension pays a SipHash
//! of a 17-byte key plus entry-API churn, and a second full pass over all
//! layers builds a `best_per_mask` map before routes are reconstructed.
//! That layout survives only as a test oracle; this module removes its
//! costs while producing a **bit-identical pool** (same masks, same
//! routes, same size-then-mask ordering) and identical work counters:
//!
//! * **Fused ε-adjacency.** One pass over the upper triangle of point
//!   pairs builds a CSR [`Adjacency`]: per delivery point, its
//!   ε-neighbours ascending and the travel time `d(dp_i, dp_j) / speed`
//!   to each (the complete graph when unpruned). A squared-distance cut
//!   skips the `hypot` of pairs certainly beyond ε, and each kept pair's
//!   distance is computed once. The inner loop walks one contiguous
//!   row: one add, one compare, and a table relax. The row stores exactly
//!   the expression the hash-map oracle evaluates, so arrivals are
//!   bit-identical.
//!
//! * **Mask-bucketed flat frontier.** A layer of subset size `L` is a
//!   sorted `Vec<u128>` of masks plus a dense slot array with `L` slots
//!   per mask — slot `rank(mask, j)` (the popcount of `mask` below bit
//!   `j`, via the compile-time prefix-mask table of [`crate::dedup`])
//!   holds the minimal arrival ending at member `j`, its `pre` pointer,
//!   and the index of the source group in the previous layer.
//!   Deduplication during expansion goes through the limb-split,
//!   batched-probe [`DedupTable`] — no SipHash, no per-state allocation.
//!   The per-mask best ending (the old second-pass `best_per_mask` map)
//!   falls out of the slot array for free during emission.
//!
//! * **Generation arenas.** The adjacency, frontier mask/slot storage and
//!   every dedup table buffer are taken from the per-thread
//!   [`crate::arena`] recycler and returned when the generation ends. On
//!   the pooled path, recycling is best-effort: buffers return to the
//!   arena of whichever pool thread last owned them.
//!
//! * **Column emission.** The pool is a [`VdpsPool`] of flat columns,
//!   sized exactly from the finished layers, so emitting a set allocates
//!   nothing. The DP's arrival at `(mask, j)` *is* the route's
//!   center-origin arrival offset at member `j`: the backwalk writes stops
//!   and offsets straight into the row (last stop first), and reward and
//!   slack are folded in [`Route::build`]'s order — no per-leg `hypot`
//!   re-derivation, bit-identical by construction (the unit tests compare
//!   every row against `Route::build` over its stops).
//!
//! * **O(1) backwalk.** Each slot's `group` names its source group in the
//!   previous, already sorted layer, so every hop of the backwalk indexes
//!   the parent slot directly instead of searching for its mask.
//!
//! * **Intra-center parallelism.** On a [`crate::pool::TaskScope`] with
//!   more than one thread, each layer's frontier is expanded in
//!   contiguous group chunks; every chunk fills a private shard table,
//!   shards are sorted by mask, and mask-range partitions are merged by
//!   parallel k-way merge jobs with min-relaxation. Because minimum (with
//!   the deterministic `(arrival, parent)` tie-break) is associative and
//!   commutative, the merged frontier is independent of chunking and
//!   thread count — pooled and sequential runs produce the same pool.
//!   Source-group indices refer to the whole previous layer, so they
//!   survive the merge unchanged. A layer goes parallel at
//!   [`PAR_MIN_GROUPS`] mask groups and is cut into about
//!   [`CHUNKS_PER_THREAD`] chunks per pool thread.
//!
//! Ties deserve a note: on *exactly* equal arrivals the hash-map oracle
//! keeps whichever predecessor its nondeterministic iteration order saw
//! first, while this engine always keeps the smallest predecessor index.
//! Both choices yield the same travel time; generated instances
//! (continuous coordinates) make exact ties measure-zero.

use crate::adjacency::Adjacency;
use crate::arena;
use crate::columns::VdpsPool;
use crate::config::VdpsConfig;
use crate::dedup::{rank, DedupTable, Slot, BIT, EMPTY};
use crate::generator::{GenControl, GenerationStats};
use crate::pool::TaskScope;
use fta_core::instance::{CenterView, DpAggregate, Instance};
use std::sync::Arc;
use std::time::Instant;

/// A layer is expanded on the pool once it holds this many mask groups;
/// smaller layers expand sequentially.
const PAR_MIN_GROUPS: usize = 64;

/// Parallel expansion aims for this many chunks per pool thread, so a
/// thread that finishes early can steal work.
const CHUNKS_PER_THREAD: usize = 4;

/// One finished DP layer: all feasible subsets of size `size`, sorted by
/// mask, with `size` slots per mask.
struct Frontier {
    size: usize,
    masks: Vec<u128>,
    slots: Vec<Slot>,
}

impl Frontier {
    fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.arrival.is_finite()).count()
    }

    /// Returns the frontier's storage to the calling thread's arena.
    fn recycle(self) {
        arena::with(|a| {
            a.masks.put(self.masks);
            a.slots.put(self.slots);
        });
    }
}

/// Fully owned per-center context shared (via `Arc`) with expansion
/// chunks, so parallel jobs never borrow generator-local state.
struct Ctx {
    n: usize,
    adjacency: Adjacency,
    expiry: Vec<f64>,
}

/// Work counters produced by one expansion chunk (summed deterministically).
///
/// `probes` and `rehashes` are observability-only diagnostics (dedup-table
/// probe steps and capacity doublings): they depend on sharding and
/// therefore on chunking/thread count, so they are published to the
/// telemetry recorder but deliberately kept out of [`GenerationStats`],
/// whose work counters are engine- and thread-invariant.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkCounters {
    extensions_tried: usize,
    pruned_by_distance: usize,
    pruned_by_deadline: usize,
    probes: u64,
    rehashes: u64,
}

impl ChunkCounters {
    fn add(&mut self, other: &ChunkCounters) {
        self.extensions_tried += other.extensions_tried;
        self.pruned_by_distance += other.pruned_by_distance;
        self.pruned_by_deadline += other.pruned_by_deadline;
        self.probes += other.probes;
        self.rehashes += other.rehashes;
    }

    fn absorb_table(&mut self, table: &DedupTable) {
        self.probes += table.probes();
        self.rehashes += table.rehashes();
    }
}

/// Expands the source groups `range` of `layer` into `table`, applying
/// deadline and ε pruning exactly as the hash-map oracle does. A point
/// outside the mask but not in the last member's adjacency row counts as
/// distance-pruned (never, when unpruned: the row is every other point).
fn expand_range(
    ctx: &Ctx,
    layer: &Frontier,
    range: std::ops::Range<usize>,
    table: &mut DedupTable,
    counters: &mut ChunkCounters,
) {
    for g in range {
        let mask = layer.masks[g];
        let free = ctx.n - mask.count_ones() as usize;
        let base = g * layer.size;
        // Iterate the mask's members in ascending bit order; the slot
        // rank advances in lockstep.
        let mut members = mask;
        let mut slot_idx = base;
        while members != 0 {
            let last = members.trailing_zeros() as usize;
            members &= members - 1;
            let state = layer.slots[slot_idx];
            slot_idx += 1;
            if !state.arrival.is_finite() {
                continue;
            }
            let neighbors = ctx.adjacency.neighbors(last);
            let travel = ctx.adjacency.travel_times(last);
            let mut considered = 0usize;
            for (&j, &tt) in neighbors.iter().zip(travel) {
                let j = j as usize;
                if mask & BIT[j] != 0 {
                    continue;
                }
                considered += 1;
                let arrival = state.arrival + tt;
                if arrival > ctx.expiry[j] {
                    counters.pruned_by_deadline += 1;
                    continue;
                }
                table.relax(
                    mask | BIT[j],
                    rank(mask, j),
                    Slot {
                        arrival,
                        parent: last as u8,
                        group: g as u32,
                    },
                );
            }
            counters.extensions_tried += free;
            counters.pruned_by_distance += free - considered;
        }
    }
}

/// A sorted expansion shard: `(masks ascending, slots)`.
type Shard = (Vec<u128>, Vec<Slot>);

/// Merges the `[lo, hi)` mask range of every shard by k-way merge with
/// min-relaxation, returning the merged groups (sorted) and the number of
/// cross-shard mask collisions folded.
fn merge_partition(shards: &[Shard], size: usize, lo: u128, hi: u128) -> (Shard, usize) {
    let ranges: Vec<(usize, usize)> = shards
        .iter()
        .map(|(masks, _)| {
            (
                masks.partition_point(|&m| m < lo),
                masks.partition_point(|&m| m < hi),
            )
        })
        .collect();
    let mut heads: Vec<usize> = ranges.iter().map(|&(start, _)| start).collect();
    let expected: usize = ranges.iter().map(|&(s, e)| e - s).sum();
    let mut out_masks: Vec<u128> = Vec::with_capacity(expected);
    let mut out_slots: Vec<Slot> = Vec::with_capacity(expected * size);
    let mut collisions = 0usize;
    loop {
        // Smallest mask among the shard heads still in range.
        let mut min_mask = u128::MAX;
        for (s, shard) in shards.iter().enumerate() {
            if heads[s] < ranges[s].1 {
                min_mask = min_mask.min(shard.0[heads[s]]);
            }
        }
        if min_mask == u128::MAX {
            break;
        }
        let group_base = out_slots.len();
        out_masks.push(min_mask);
        out_slots.resize(group_base + size, EMPTY);
        let mut occurrences = 0usize;
        for (s, shard) in shards.iter().enumerate() {
            if heads[s] < ranges[s].1 && shard.0[heads[s]] == min_mask {
                let src = heads[s] * size;
                for k in 0..size {
                    let cand = shard.1[src + k];
                    if cand.beats(&out_slots[group_base + k]) {
                        out_slots[group_base + k] = cand;
                    }
                }
                heads[s] += 1;
                occurrences += 1;
            }
        }
        collisions += occurrences - 1;
    }
    ((out_masks, out_slots), collisions)
}

/// Deterministic mask-range partition pivots: sample every shard's sorted
/// mask list, sort the samples, and pick `parts - 1` evenly spaced pivots.
fn partition_pivots(shards: &[Shard], parts: usize) -> Vec<u128> {
    let mut samples: Vec<u128> = Vec::new();
    for (masks, _) in shards {
        let step = (masks.len() / (parts * 8).max(1)).max(1);
        samples.extend(masks.iter().step_by(step).copied());
    }
    samples.sort_unstable();
    samples.dedup();
    let mut pivots = Vec::with_capacity(parts.saturating_sub(1));
    for p in 1..parts {
        let idx = p * samples.len() / parts;
        if let Some(&pivot) = samples.get(idx) {
            pivots.push(pivot);
        }
    }
    pivots.dedup();
    pivots
}

/// Builds the next layer from `layer` on the pool scope: chunked
/// expansion into per-thread shard tables, then mask-partitioned merge.
fn next_layer_pooled(
    ctx: &Arc<Ctx>,
    layer: Arc<Frontier>,
    out_size: usize,
    scope: &TaskScope<'_>,
    stats: &mut GenerationStats,
) -> Frontier {
    let groups = layer.masks.len();
    let threads = scope.threads();
    let chunk_size = (groups / (threads * CHUNKS_PER_THREAD)).max(32);
    let chunk_count = groups.div_ceil(chunk_size);
    let expected_per_chunk = (chunk_size * out_size).min(1 << 16);

    // Phase 1: expand chunks into private shard tables (parallel). Each
    // job's table buffers come from (and its sorted shard returns to)
    // the arena of the pool thread that happens to run it.
    let jobs: Vec<_> = (0..chunk_count)
        .map(|c| {
            let ctx = Arc::clone(ctx);
            let layer = Arc::clone(&layer);
            move |_: &TaskScope<'_>| {
                let range = c * chunk_size..((c + 1) * chunk_size).min(groups);
                let mut table = DedupTable::from_arena(expected_per_chunk, out_size);
                let mut counters = ChunkCounters::default();
                expand_range(&ctx, &layer, range, &mut table, &mut counters);
                counters.absorb_table(&table);
                let mut masks = arena::with(|a| a.masks.take(table.len()));
                let mut slots = arena::with(|a| a.slots.take(table.len() * out_size));
                table.drain_sorted_recycle(&mut masks, &mut slots);
                ((masks, slots), counters)
            }
        })
        .collect();
    let (chunk_results, steals) = scope.map_with_steals(jobs);
    stats.chunks += chunk_count;
    stats.steals += steals;
    let mut shards: Vec<Shard> = Vec::with_capacity(chunk_results.len());
    let mut totals = ChunkCounters::default();
    for (shard, counters) in chunk_results {
        totals.add(&counters);
        if !shard.0.is_empty() {
            shards.push(shard);
        } else {
            arena::with(|a| {
                a.masks.put(shard.0);
                a.slots.put(shard.1);
            });
        }
    }
    stats.extensions_tried += totals.extensions_tried;
    stats.pruned_by_distance += totals.pruned_by_distance;
    stats.pruned_by_deadline += totals.pruned_by_deadline;
    fta_obs::counter("vdps.dedup_probes", totals.probes);
    fta_obs::counter("vdps.dedup_rehashes", totals.rehashes);

    // Phase 2: merge shards by mask partition (parallel k-way merges).
    let _merge_span = fta_obs::span("vdps.merge");
    let merge_start = Instant::now();
    let mut bounds: Vec<u128> = vec![0];
    bounds.extend(partition_pivots(&shards, threads.max(1)));
    bounds.push(u128::MAX);
    let shards = Arc::new(shards);
    let merge_jobs: Vec<_> = bounds
        .windows(2)
        .map(|w| {
            let shards = Arc::clone(&shards);
            let (lo, hi) = (w[0], w[1]);
            move |_: &TaskScope<'_>| merge_partition(&shards, out_size, lo, hi)
        })
        .collect();
    let (merged, merge_steals) = scope.map_with_steals(merge_jobs);
    stats.steals += merge_steals;

    let expected: usize = merged.iter().map(|((m, _), _)| m.len()).sum();
    let (mut masks, mut slots) =
        arena::with(|a| (a.masks.take(expected), a.slots.take(expected * out_size)));
    for ((part_masks, part_slots), collisions) in merged {
        stats.merge_collisions += collisions;
        masks.extend_from_slice(&part_masks);
        slots.extend_from_slice(&part_slots);
    }
    // The consumed shards return to this thread's arena for the next layer.
    if let Ok(shards) = Arc::try_unwrap(shards) {
        arena::with(|a| {
            for (m, s) in shards {
                a.masks.put(m);
                a.slots.put(s);
            }
        });
    }
    stats.merge_nanos += u64::try_from(merge_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Frontier {
        size: out_size,
        masks,
        slots,
    }
}

/// Builds the next layer sequentially: a single arena-backed dedup
/// table, drained sorted into arena-backed frontier storage.
fn next_layer_sequential(
    ctx: &Ctx,
    layer: &Frontier,
    out_size: usize,
    stats: &mut GenerationStats,
) -> Frontier {
    let mut table = DedupTable::from_arena(layer.masks.len().max(8), out_size);
    let mut counters = ChunkCounters::default();
    expand_range(ctx, layer, 0..layer.masks.len(), &mut table, &mut counters);
    stats.chunks += 1;
    stats.extensions_tried += counters.extensions_tried;
    stats.pruned_by_distance += counters.pruned_by_distance;
    stats.pruned_by_deadline += counters.pruned_by_deadline;
    fta_obs::counter("vdps.dedup_probes", table.probes());
    fta_obs::counter("vdps.dedup_rehashes", table.rehashes());
    let (mut masks, mut slots) = arena::with(|a| {
        (
            a.masks.take(table.len()),
            a.slots.take(table.len() * out_size),
        )
    });
    table.drain_sorted_recycle(&mut masks, &mut slots);
    Frontier {
        size: out_size,
        masks,
        slots,
    }
}

/// Generates all C-VDPSs of one distribution center, optionally
/// parallelising layer expansion on `scope` (see the module docs for the
/// data layout), with `control` checked between DP layers: once it trips
/// (state cap reached or the cancellation token fired), no further layer
/// is expanded and the completed layers emit as a valid, truncated pool.
///
/// The pool is ordered by subset size, then by mask.
///
/// # Panics
///
/// Panics if the center has more than 128 task-bearing delivery points.
pub(crate) fn generate(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    config: &VdpsConfig,
    scope: Option<&TaskScope<'_>>,
    control: GenControl<'_>,
) -> (VdpsPool, GenerationStats) {
    let n = view.dps.len();
    assert!(
        n <= 128,
        "center {} has {n} delivery points; the bitmask DP supports at most 128",
        view.center
    );
    let mut stats = GenerationStats::default();
    if n == 0 || config.max_len == 0 {
        return (VdpsPool::new(view.center), stats);
    }
    let center_u32 = view.center.index() as u32;
    let _generate_span = fta_obs::span_center("vdps.generate", center_u32);
    let dp_span = fta_obs::span_center("vdps.dp", center_u32);
    let dp_start = Instant::now();
    let layers = dp_layers(
        instance, aggregates, view, config, scope, control, &mut stats,
    );
    stats.states = layers.iter().map(|l| l.occupied()).sum();
    stats.dp_nanos = u64::try_from(dp_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    drop(dp_span);

    let route_span = fta_obs::span_center("vdps.routes", center_u32);
    let route_start = Instant::now();
    let pool = emit(aggregates, view, &layers);
    stats.route_nanos = u64::try_from(route_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    drop(route_span);
    stats.vdps_count = pool.len();
    crate::generator::emit_generation_counters(&stats);
    // Generation over: every frontier returns its storage to the arena.
    for layer in layers {
        if let Ok(frontier) = Arc::try_unwrap(layer) {
            frontier.recycle();
        }
    }
    (pool, stats)
}

/// Runs the subset DP (Algorithm 1, lines 1–12) into its finished layers,
/// layer `k` holding the subsets of size `k + 1`. Work counters other than
/// `states` and `vdps_count` accumulate into `stats`.
fn dp_layers(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    config: &VdpsConfig,
    scope: Option<&TaskScope<'_>>,
    control: GenControl<'_>,
    stats: &mut GenerationStats,
) -> Vec<Arc<Frontier>> {
    let n = view.dps.len();
    let center_u32 = view.center.index() as u32;
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
    let adjacency = {
        let _span = fta_obs::span_center("vdps.adjacency", center_u32);
        Adjacency::build(&locs, config.epsilon, speed)
    };
    let ctx = Arc::new(Ctx {
        n,
        adjacency,
        expiry,
    });

    // Layer 1 (Algorithm 1, lines 2–5): reachable singletons, ascending.
    let (mut masks, mut slots) = arena::with(|a| (a.masks.take(n), a.slots.take(n)));
    for (j, &loc) in locs.iter().enumerate() {
        let arrival = dc.travel_time(loc, speed);
        stats.extensions_tried += 1;
        if arrival <= ctx.expiry[j] {
            masks.push(BIT[j]);
            slots.push(Slot {
                arrival,
                parent: u8::MAX,
                group: u32::MAX,
            });
        } else {
            stats.pruned_by_deadline += 1;
        }
    }
    let mut layers: Vec<Arc<Frontier>> = vec![Arc::new(Frontier {
        size: 1,
        masks,
        slots,
    })];

    // Layers 2..=max_len (Algorithm 1, lines 6–12). The budget control is
    // checked between layers: completed layers always emit, so a
    // truncated run still yields a valid (smaller) pool.
    let mut states_so_far = layers[0].occupied();
    for len in 2..=config.max_len.min(n) {
        if control.should_stop(states_so_far) {
            stats.truncations = 1;
            break;
        }
        let _layer_span = fta_obs::span_layer("vdps.layer", center_u32, len as u32);
        let layer = Arc::clone(&layers[len - 2]);
        let parallel = scope
            .filter(|s| s.threads() > 1 && layer.masks.len() >= PAR_MIN_GROUPS)
            .is_some();
        let next = if parallel {
            let scope = scope.expect("parallel implies a scope");
            next_layer_pooled(&ctx, layer, len, scope, stats)
        } else {
            next_layer_sequential(&ctx, &layer, len, stats)
        };
        if next.masks.is_empty() {
            next.recycle();
            break;
        }
        states_so_far += next.occupied();
        layers.push(Arc::new(next));
    }
    if let Ok(ctx) = Arc::try_unwrap(ctx) {
        ctx.adjacency.recycle();
    }
    layers
}

/// Emits one pool row per frontier group (Algorithm 1, line 13). Layers
/// are already in subset-size order and each layer is mask-sorted, so the
/// pool order (size, then mask) needs no sort. The per-mask best ending is
/// the lexicographic minimum over the group's occupied slots, folding the
/// old `best_per_mask` pass into the walk.
fn emit(aggregates: &[DpAggregate], view: &CenterView, layers: &[Arc<Frontier>]) -> VdpsPool {
    let rows = layers.iter().map(|l| l.masks.len()).sum();
    let stops = layers.iter().map(|l| l.masks.len() * l.size).sum();
    let mut pool = VdpsPool::with_capacity(view.center, rows, stops);
    for (depth, layer) in layers.iter().enumerate() {
        for (g, &mask) in layer.masks.iter().enumerate() {
            let base = g * layer.size;
            let (mut best_k, mut best_j, mut best_arrival) = (0, 0, f64::INFINITY);
            let mut members = mask;
            let mut k = 0usize;
            while members != 0 {
                let j = members.trailing_zeros() as usize;
                members &= members - 1;
                let arrival = layer.slots[base + k].arrival;
                if arrival < best_arrival {
                    (best_k, best_j, best_arrival) = (k, j, arrival);
                }
                k += 1;
            }
            debug_assert!(
                best_arrival.is_finite(),
                "every frontier group holds at least one feasible state"
            );
            // Walk `pre` pointers backwards, last stop first: each hop
            // indexes the parent slot through the source-group pointer.
            // The DP arrival at each hop is the member's center-origin
            // arrival offset.
            pool.push_row_with(mask, layer.size, aggregates, |stops, offsets| {
                let (mut depth, mut cur_mask, mut last) = (depth, mask, best_j);
                let mut state = layer.slots[base + best_k];
                for pos in (0..stops.len()).rev() {
                    stops[pos] = view.dps[last];
                    offsets[pos] = state.arrival;
                    if state.parent == u8::MAX {
                        debug_assert_eq!(pos, 0, "only a first stop has no parent");
                        break;
                    }
                    cur_mask &= !BIT[last];
                    last = usize::from(state.parent);
                    depth -= 1;
                    let parent = &layers[depth];
                    state = parent.slots[state.group as usize * parent.size + rank(cur_mask, last)];
                }
            });
            let r = pool.len() - 1;
            debug_assert!(
                pool.slacks()[r] >= 0.0,
                "the DP must only emit deadline-feasible sequences"
            );
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_c_vdps_in;
    use crate::hashmap_oracle::generate_c_vdps_hashmap;
    use crate::pool::WorkerPool;
    use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
    use fta_core::geometry::Point;
    use fta_core::ids::{CenterId, DeliveryPointId, TaskId, WorkerId};
    use fta_core::route::Route;

    /// A deterministic pseudo-random scatter of `n` delivery points.
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
                reward: 1.0,
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

    fn assert_pools_identical(a: &VdpsPool, b: &VdpsPool, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: pool sizes differ");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.mask, y.mask, "{label}: masks differ");
            assert_eq!(x.stops, y.stops, "{label}: routes differ");
            assert!(
                (x.travel_from_dc - y.travel_from_dc).abs() == 0.0,
                "{label}: travel times not bit-identical on mask {:#b}",
                x.mask
            );
        }
    }

    #[test]
    fn flat_matches_hashmap_bit_identically() {
        for seed in [1u64, 7, 42] {
            for n in [5usize, 12, 24] {
                for config in [
                    VdpsConfig::unpruned(3),
                    VdpsConfig::unpruned(4),
                    VdpsConfig::pruned(2.0, 3),
                    VdpsConfig::pruned(0.8, 4),
                ] {
                    let inst = scatter_instance(n, seed);
                    let aggs = inst.dp_aggregates();
                    let views = inst.center_views();
                    let (flat, fs) = generate_c_vdps_in(&inst, &aggs, &views[0], &config, None);
                    let (hash, hs) = generate_c_vdps_hashmap(&inst, &aggs, &views[0], &config);
                    let label = format!("seed {seed}, n {n}, cfg {config:?}");
                    assert_pools_identical(&flat, &hash, &label);
                    assert_eq!(
                        fs.work_counters(),
                        hs.work_counters(),
                        "{label}: work counters differ"
                    );
                }
            }
        }
    }

    /// Offsets emission writes the DP's arrivals straight into each row;
    /// every row must equal the one [`Route::build`] derives leg by leg
    /// over the same stops.
    #[test]
    fn emission_kernels_are_bit_identical() {
        for seed in [3u64, 11] {
            for n in [6usize, 18] {
                let inst = scatter_instance(n, seed);
                let aggs = inst.dp_aggregates();
                let views = inst.center_views();
                let config = VdpsConfig::pruned(2.5, 4);
                let (fast, _) = generate_c_vdps_in(&inst, &aggs, &views[0], &config, None);
                let mut rebuilt = VdpsPool::new(fast.center());
                for (r, &mask) in fast.masks().iter().enumerate() {
                    let route = Route::build(&inst, &aggs, views[0].center, fast.stops(r).to_vec())
                        .expect("generated stops are valid delivery points");
                    rebuilt.push_route(mask, &route);
                }
                let label = format!("seed {seed}, n {n}");
                assert!(fast.len() > n, "{label}: too few sets to test");
                assert_pools_identical(&fast, &rebuilt, &label);
                assert_eq!(fast, rebuilt, "{label}: route payloads differ");
            }
        }
    }

    #[test]
    fn steady_state_generation_is_allocation_free() {
        arena::clear();
        let inst = scatter_instance(22, 13);
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let config = VdpsConfig::pruned(2.5, 4);
        // Two warm-up generations: the first populates the arena, the
        // second lets recycled capacities settle to their fixed point.
        let (warm, _) = generate_c_vdps_in(&inst, &aggs, &views[0], &config, None);
        let (warm2, _) = generate_c_vdps_in(&inst, &aggs, &views[0], &config, None);
        assert_eq!(warm.len(), warm2.len());
        let after_warm = arena::stats();
        for round in 0..3 {
            let (pool, _) = generate_c_vdps_in(&inst, &aggs, &views[0], &config, None);
            assert_eq!(pool.len(), warm.len());
            let s = arena::stats();
            assert_eq!(
                s.misses, after_warm.misses,
                "round {round}: steady-state generation hit the allocator"
            );
            assert_eq!(
                s.high_water_bytes, after_warm.high_water_bytes,
                "round {round}: arena high-water mark did not stabilize"
            );
        }
        arena::clear();
    }

    #[test]
    fn pooled_generation_matches_sequential() {
        let inst = scatter_instance(40, 9);
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        for config in [VdpsConfig::unpruned(3), VdpsConfig::pruned(2.5, 4)] {
            let (seq, seq_stats) = generate_c_vdps_in(&inst, &aggs, &views[0], &config, None);
            for threads in [2, 4] {
                let pool = WorkerPool::with_threads(threads);
                let (par, par_stats) =
                    pool.scope(|ts| generate_c_vdps_in(&inst, &aggs, &views[0], &config, Some(ts)));
                let label = format!("{config:?}, threads {threads}");
                assert_pools_identical(&seq, &par, &label);
                assert_eq!(seq, par, "{label}: rows not bit-identical");
                assert_eq!(seq_stats.work_counters(), par_stats.work_counters());
                assert!(
                    par_stats.chunks > seq_stats.chunks,
                    "{label}: never went parallel"
                );
            }
        }
    }

    /// Every occupied slot's source-group pointer names the previous
    /// layer's group whose mask is the slot's mask without its member.
    #[test]
    fn slot_groups_name_their_source_group() {
        let inst = scatter_instance(40, 9);
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let workers = WorkerPool::with_threads(2);
        for config in [VdpsConfig::unpruned(3), VdpsConfig::pruned(2.5, 4)] {
            let sequential = dp_layers(
                &inst,
                &aggs,
                &views[0],
                &config,
                None,
                GenControl::NONE,
                &mut GenerationStats::default(),
            );
            let pooled = workers.scope(|ts| {
                dp_layers(
                    &inst,
                    &aggs,
                    &views[0],
                    &config,
                    Some(ts),
                    GenControl::NONE,
                    &mut GenerationStats::default(),
                )
            });
            for layers in [sequential, pooled] {
                assert!(layers.len() >= 3, "{config:?}: too shallow to test");
                let mut checked = 0usize;
                for pair in layers.windows(2) {
                    let (prev, layer) = (&pair[0], &pair[1]);
                    for (g, &mask) in layer.masks.iter().enumerate() {
                        let mut members = mask;
                        for k in 0..layer.size {
                            let j = members.trailing_zeros() as usize;
                            members &= members - 1;
                            let slot = layer.slots[g * layer.size + k];
                            if !slot.arrival.is_finite() {
                                continue;
                            }
                            let source = mask & !BIT[j];
                            assert_eq!(prev.masks[slot.group as usize], source);
                            let parent = usize::from(slot.parent);
                            assert!(source & BIT[parent] != 0, "parent outside the source");
                            let pre =
                                prev.slots[slot.group as usize * prev.size + rank(source, parent)];
                            assert!(pre.arrival <= slot.arrival, "the parent state is occupied");
                            checked += 1;
                        }
                    }
                }
                assert!(checked > 100, "{config:?}: only {checked} slots checked");
                for layer in &layers[..1] {
                    assert!(layer.slots.iter().all(|s| s.group == u32::MAX));
                }
            }
        }
    }

    #[test]
    fn pooled_generation_is_deterministic_across_runs() {
        let inst = scatter_instance(36, 4);
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let config = VdpsConfig::pruned(2.5, 4);
        let pool = WorkerPool::with_threads(4);
        let (a, _) =
            pool.scope(|ts| generate_c_vdps_in(&inst, &aggs, &views[0], &config, Some(ts)));
        let (b, _) =
            pool.scope(|ts| generate_c_vdps_in(&inst, &aggs, &views[0], &config, Some(ts)));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_capped_inputs_behave_like_hashmap() {
        let inst = scatter_instance(6, 3);
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let (pool, stats) =
            generate_c_vdps_in(&inst, &aggs, &views[0], &VdpsConfig::unpruned(0), None);
        assert!(pool.is_empty());
        assert_eq!(stats.states, 0);

        let (one, one_stats) =
            generate_c_vdps_in(&inst, &aggs, &views[0], &VdpsConfig::unpruned(1), None);
        let (href, href_stats) =
            generate_c_vdps_hashmap(&inst, &aggs, &views[0], &VdpsConfig::unpruned(1));
        assert_pools_identical(&one, &href, "max_len 1");
        assert_eq!(one_stats.work_counters(), href_stats.work_counters());
    }
}
