//! The C-VDPS dynamic program (Algorithm 1 of the paper).

use crate::columns::VdpsPool;
use crate::config::VdpsConfig;
use crate::grid::Adjacency;
use fta_core::budget::CancelToken;
use fta_core::instance::{CenterView, DpAggregate, Instance};
use fta_core::route::Route;
use fta_core::DeliveryPointId;
use std::collections::HashMap;

/// Optional budget controls for one generation run, checked at *layer*
/// boundaries of the subset DP. The default (`GenControl::NONE`) performs
/// no checks at all, keeping the unbudgeted path bit-identical to builds
/// that predate budgets.
///
/// When a control trips, generation *truncates*: the layers built so far
/// are emitted as a complete, valid (just smaller) pool — every strategy
/// in it is still deadline-feasible — and
/// [`GenerationStats::truncations`] records the cut.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenControl<'a> {
    /// Cooperative cancellation (wall-clock deadline or external cancel).
    pub token: Option<&'a CancelToken>,
    /// Deterministic cap on materialised DP states: once the completed
    /// layers hold at least this many states, no further layer is built.
    /// Independent of wall-clock and thread count, unlike `token`.
    pub max_states: Option<usize>,
}

impl GenControl<'_> {
    /// No controls: generation runs exactly as unbudgeted.
    pub const NONE: GenControl<'static> = GenControl {
        token: None,
        max_states: None,
    };

    /// Whether generation should stop before building the next layer,
    /// given the number of DP states materialised so far.
    #[must_use]
    pub fn should_stop(&self, states_so_far: usize) -> bool {
        self.max_states.is_some_and(|cap| states_so_far >= cap)
            || self.token.is_some_and(CancelToken::is_cancelled)
    }
}

/// Counters describing one generator run, used by the benchmark harness to
/// compare pruned and unpruned generation (the paper's Figures 2–3 CPU-time
/// panels) and, since the flat engine landed, to observe where generation
/// time goes and how much intra-center parallelism contributed.
///
/// The first five fields are *work counters*: they describe the dynamic
/// program itself and are identical across engines and thread counts (see
/// [`GenerationStats::work_counters`]). The remaining fields are timing and
/// parallelism diagnostics and naturally vary run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenerationStats {
    /// Dynamic-program states (`(Q, dp_j)` pairs) materialised.
    pub states: usize,
    /// Candidate extensions examined (the inner loop of Equation 4).
    pub extensions_tried: usize,
    /// Extensions cut by the ε distance constraint.
    pub pruned_by_distance: usize,
    /// Extensions cut by a task deadline.
    pub pruned_by_deadline: usize,
    /// Number of C-VDPSs produced.
    pub vdps_count: usize,
    /// Wall time spent in the subset dynamic program (state expansion,
    /// dedup, frontier construction), nanoseconds.
    pub dp_nanos: u64,
    /// Wall time spent reconstructing the minimum-travel routes from the
    /// finished frontiers, nanoseconds.
    pub route_nanos: u64,
    /// Frontier-expansion chunks scheduled (1 per layer when sequential;
    /// 0 for the hash-map engine, which does not chunk).
    pub chunks: usize,
    /// Expansion/merge jobs of this generation executed by a pool thread
    /// other than the one that submitted them (work-stealing events).
    pub steals: usize,
    /// During parallel shard merges: number of `(mask)` groups that were
    /// discovered by more than one expansion chunk and had to be folded
    /// together (each extra occurrence counts once).
    pub merge_collisions: usize,
    /// Wall time spent in the parallel shard-merge phase (a subset of
    /// [`GenerationStats::dp_nanos`]), nanoseconds. 0 for sequential and
    /// hash-map runs, which never shard.
    pub merge_nanos: u64,
    /// Generation runs that stopped at a layer boundary because a
    /// [`GenControl`] tripped (0 or 1 per center; additive under
    /// [`GenerationStats::merge`]). A truncated pool is still valid —
    /// it just lacks the larger subsets.
    pub truncations: usize,
}

impl GenerationStats {
    /// Accumulates another run's counters (used when aggregating over
    /// distribution centers).
    pub fn merge(&mut self, other: &GenerationStats) {
        self.states += other.states;
        self.extensions_tried += other.extensions_tried;
        self.pruned_by_distance += other.pruned_by_distance;
        self.pruned_by_deadline += other.pruned_by_deadline;
        self.vdps_count += other.vdps_count;
        self.dp_nanos += other.dp_nanos;
        self.route_nanos += other.route_nanos;
        self.chunks += other.chunks;
        self.steals += other.steals;
        self.merge_collisions += other.merge_collisions;
        self.merge_nanos += other.merge_nanos;
        self.truncations += other.truncations;
    }

    /// The engine-independent work counters
    /// `(states, extensions_tried, pruned_by_distance, pruned_by_deadline,
    /// vdps_count)` — equal across engines and thread counts for the same
    /// input, unlike the timing/parallelism diagnostics.
    #[must_use]
    pub fn work_counters(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.states,
            self.extensions_tried,
            self.pruned_by_distance,
            self.pruned_by_deadline,
            self.vdps_count,
        )
    }
}

/// Publishes one generation run's counters to the installed telemetry
/// recorder (no-op when none is installed). Called once per
/// center-generation by both engines, so the hot loops stay plain-field
/// counter arithmetic.
pub(crate) fn emit_generation_counters(stats: &GenerationStats) {
    if !fta_obs::enabled() {
        return;
    }
    fta_obs::counter("vdps.states", stats.states as u64);
    fta_obs::counter("vdps.extensions_tried", stats.extensions_tried as u64);
    fta_obs::counter("vdps.pruned_distance", stats.pruned_by_distance as u64);
    fta_obs::counter("vdps.pruned_deadline", stats.pruned_by_deadline as u64);
    fta_obs::counter("vdps.count", stats.vdps_count as u64);
    fta_obs::counter("vdps.chunks", stats.chunks as u64);
    fta_obs::counter("vdps.merge_collisions", stats.merge_collisions as u64);
    fta_obs::counter("pool.steals", stats.steals as u64);
    if stats.truncations > 0 {
        fta_obs::counter("vdps.truncated", stats.truncations as u64);
    }
}

/// A dynamic-program state: minimal arrival time at `last` over all
/// feasible orderings of the subset, plus the predecessor (`pre` in the
/// paper's Algorithm 1) for route reconstruction.
#[derive(Debug, Clone, Copy)]
struct State {
    arrival: f64,
    /// Local index of the previous delivery point; `u8::MAX` for the first.
    parent: u8,
}

/// Generates all C-VDPSs of one distribution center (Algorithm 1),
/// dispatching to the engine selected by [`VdpsConfig::engine`].
///
/// Returns the VDPS pool together with generation statistics. The pool is
/// ordered deterministically: by subset size, then by bitmask value —
/// identically for every engine.
///
/// # Panics
///
/// Panics if the center has more than 128 task-bearing delivery points
/// (the paper's instances have at most ~100 per center).
#[must_use]
pub fn generate_c_vdps(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    config: &VdpsConfig,
) -> (VdpsPool, GenerationStats) {
    generate_c_vdps_in(instance, aggregates, view, config, None)
}

/// Like [`generate_c_vdps`], optionally running frontier expansion and
/// shard merges on an active worker-pool scope (flat engine only; the
/// hash-map oracle is always sequential).
///
/// # Panics
///
/// Panics if the center has more than 128 task-bearing delivery points.
#[must_use]
pub fn generate_c_vdps_in(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    config: &VdpsConfig,
    scope: Option<&crate::pool::TaskScope<'_>>,
) -> (VdpsPool, GenerationStats) {
    generate_c_vdps_budgeted(instance, aggregates, view, config, scope, GenControl::NONE)
}

/// Like [`generate_c_vdps_in`], additionally honouring a [`GenControl`]:
/// the layer loop of either engine checks the control between DP layers
/// and truncates the pool when it trips (see [`GenControl`] for the
/// semantics). With `GenControl::NONE` the output is bit-identical to
/// [`generate_c_vdps_in`].
///
/// # Panics
///
/// Panics if the center has more than 128 task-bearing delivery points.
#[must_use]
pub fn generate_c_vdps_budgeted(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    config: &VdpsConfig,
    scope: Option<&crate::pool::TaskScope<'_>>,
    control: GenControl<'_>,
) -> (VdpsPool, GenerationStats) {
    match config.engine {
        crate::config::VdpsEngine::Flat => crate::flat::generate_c_vdps_flat_budgeted(
            instance, aggregates, view, config, scope, control,
        ),
        crate::config::VdpsEngine::Hashmap => {
            generate_c_vdps_hashmap_budgeted(instance, aggregates, view, config, control)
        }
    }
}

/// The original per-layer `HashMap<(mask, last), State>` implementation of
/// Algorithm 1, kept as a correctness oracle next to [`crate::naive`]: the
/// flat engine must reproduce its pool (order included) and its work
/// counters exactly.
///
/// # Panics
///
/// Panics if the center has more than 128 task-bearing delivery points.
#[must_use]
pub fn generate_c_vdps_hashmap(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    config: &VdpsConfig,
) -> (VdpsPool, GenerationStats) {
    generate_c_vdps_hashmap_budgeted(instance, aggregates, view, config, GenControl::NONE)
}

/// [`generate_c_vdps_hashmap`] with a [`GenControl`] checked between DP
/// layers.
///
/// # Panics
///
/// Panics if the center has more than 128 task-bearing delivery points.
#[must_use]
pub fn generate_c_vdps_hashmap_budgeted(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    config: &VdpsConfig,
    control: GenControl<'_>,
) -> (VdpsPool, GenerationStats) {
    let dp_start = std::time::Instant::now();
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

    let dc = instance.centers[view.center.index()].location;
    let speed = instance.speed;

    // Center-local working arrays.
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
    let from_dc: Vec<f64> = locs.iter().map(|&l| dc.travel_time(l, speed)).collect();

    // The shared ε-adjacency (the complete graph when unpruned) narrows
    // each extension scan to the actual neighbours and carries each hop's
    // travel time.
    let adjacency = {
        let _span = fta_obs::span_center("vdps.adjacency", center_u32);
        Adjacency::build(&locs, config.epsilon, speed)
    };

    // Layer 1 (Algorithm 1, lines 2–5): singletons reachable before expiry.
    let mut layers: Vec<HashMap<(u128, u8), State>> = Vec::with_capacity(config.max_len);
    let mut first = HashMap::new();
    for j in 0..n {
        stats.extensions_tried += 1;
        if from_dc[j] <= expiry[j] {
            first.insert(
                (1u128 << j, j as u8),
                State {
                    arrival: from_dc[j],
                    parent: u8::MAX,
                },
            );
        } else {
            stats.pruned_by_deadline += 1;
        }
    }
    layers.push(first);

    // Layers 2..=max_len (Algorithm 1, lines 6–12). The budget control is
    // checked at layer granularity: completed layers always emit, so a
    // truncated run still yields a valid (smaller) pool.
    let mut states_so_far = layers[0].len();
    for len in 2..=config.max_len.min(n) {
        if control.should_stop(states_so_far) {
            stats.truncations = 1;
            break;
        }
        let mut next: HashMap<(u128, u8), State> = HashMap::new();
        for (&(mask, last), state) in &layers[len - 2] {
            let last = last as usize;
            // Points outside the mask but not adjacent to `last` count as
            // distance-pruned (none when unpruned).
            let free = n - mask.count_ones() as usize;
            let mut considered = 0usize;
            let neighbors = adjacency.neighbors(last);
            for (&j, &tt) in neighbors.iter().zip(adjacency.travel_times(last)) {
                let j = j as usize;
                if mask & (1u128 << j) != 0 {
                    continue;
                }
                considered += 1;
                let arrival = state.arrival + tt;
                if arrival > expiry[j] {
                    stats.pruned_by_deadline += 1;
                    continue;
                }
                let key = (mask | (1u128 << j), j as u8);
                let candidate = State {
                    arrival,
                    parent: last as u8,
                };
                next.entry(key)
                    .and_modify(|s| {
                        if candidate.arrival < s.arrival {
                            *s = candidate;
                        }
                    })
                    .or_insert(candidate);
            }
            stats.extensions_tried += free;
            stats.pruned_by_distance += free - considered;
        }
        if next.is_empty() {
            break;
        }
        states_so_far += next.len();
        layers.push(next);
    }
    adjacency.recycle();
    stats.states = layers.iter().map(HashMap::len).sum();

    // Per mask, select the ending with minimal total travel (the paper keeps
    // only the minimum-travel-time sequence per VDPS) and reconstruct the
    // route via the `parent` pointers (Algorithm 1, line 13).
    let mut best_per_mask: HashMap<u128, (u8, f64)> = HashMap::new();
    for layer in &layers {
        for (&(mask, last), state) in layer {
            best_per_mask
                .entry(mask)
                .and_modify(|(l, a)| {
                    if state.arrival < *a {
                        *l = last;
                        *a = state.arrival;
                    }
                })
                .or_insert((last, state.arrival));
        }
    }

    let mut masks: Vec<u128> = best_per_mask.keys().copied().collect();
    masks.sort_by_key(|m| (m.count_ones(), *m));
    stats.dp_nanos = u64::try_from(dp_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    drop(dp_span);

    let route_span = fta_obs::span_center("vdps.routes", center_u32);
    let route_start = std::time::Instant::now();
    let stops = masks.iter().map(|m| m.count_ones() as usize).sum();
    let mut pool = VdpsPool::with_capacity(view.center, masks.len(), stops);
    for mask in masks {
        let (mut last, _) = best_per_mask[&mask];
        // Walk parents backwards through the layers.
        let mut order_rev: Vec<u8> = Vec::with_capacity(mask.count_ones() as usize);
        let mut cur_mask = mask;
        loop {
            order_rev.push(last);
            let layer = &layers[cur_mask.count_ones() as usize - 1];
            let state = layer[&(cur_mask, last)];
            if state.parent == u8::MAX {
                break;
            }
            cur_mask &= !(1u128 << last);
            last = state.parent;
        }
        order_rev.reverse();
        let dps: Vec<DeliveryPointId> = order_rev
            .into_iter()
            .map(|local| view.dps[local as usize])
            .collect();
        let route = Route::build(instance, aggregates, view.center, dps)
            .expect("DP states only reference valid delivery points");
        debug_assert!(
            route.is_center_origin_valid(),
            "the DP must only emit deadline-feasible sequences"
        );
        pool.push_route(mask, &route);
    }
    stats.route_nanos = u64::try_from(route_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    drop(route_span);
    stats.vdps_count = pool.len();
    emit_generation_counters(&stats);
    (pool, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
    use fta_core::geometry::Point;
    use fta_core::ids::{CenterId, TaskId, WorkerId};

    /// dc at origin; dps on a line at x = 1, 2, 3; one task each, generous
    /// deadlines; speed 1.
    fn line_instance(expiries: &[f64]) -> Instance {
        let dps: Vec<DeliveryPoint> = (0..expiries.len())
            .map(|i| DeliveryPoint {
                id: DeliveryPointId::from_index(i),
                location: Point::new((i + 1) as f64, 0.0),
                center: CenterId(0),
            })
            .collect();
        let tasks: Vec<SpatialTask> = expiries
            .iter()
            .enumerate()
            .map(|(i, &e)| SpatialTask {
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
                max_dp: 3,
                center: CenterId(0),
            }],
            dps,
            tasks,
            1.0,
        )
        .unwrap()
    }

    fn run(inst: &Instance, cfg: &VdpsConfig) -> (VdpsPool, GenerationStats) {
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        generate_c_vdps(inst, &aggs, &views[0], cfg)
    }

    #[test]
    fn generates_all_feasible_subsets_without_deadlines() {
        let inst = line_instance(&[100.0, 100.0, 100.0]);
        let (pool, stats) = run(&inst, &VdpsConfig::unpruned(3));
        // All 7 non-empty subsets of 3 dps are feasible.
        assert_eq!(pool.len(), 7);
        assert_eq!(stats.vdps_count, 7);
        // Masks are unique.
        let mut masks: Vec<u128> = pool.iter().map(|v| v.mask).collect();
        masks.dedup();
        assert_eq!(masks.len(), 7);
    }

    #[test]
    fn routes_have_minimal_travel_time() {
        let inst = line_instance(&[100.0, 100.0, 100.0]);
        let (pool, _) = run(&inst, &VdpsConfig::unpruned(3));
        let full = pool.iter().find(|v| v.mask == 0b111).unwrap();
        // Optimal route on a line: 1 → 2 → 3, total 3.0.
        assert_eq!(
            full.stops,
            &[DeliveryPointId(0), DeliveryPointId(1), DeliveryPointId(2)]
        );
        assert!((full.travel_from_dc - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tight_deadline_forces_detour_ordering() {
        // dp2 (at x=3) expires at 3.0: reachable only as dp0→dp1→dp2 or
        // directly; dp0 (x=1) expires at 1.0: must be first.
        let inst = line_instance(&[1.0, 100.0, 3.0]);
        let (pool, _) = run(&inst, &VdpsConfig::unpruned(3));
        let full = pool.iter().find(|v| v.mask == 0b111).unwrap();
        assert_eq!(
            full.stops,
            &[DeliveryPointId(0), DeliveryPointId(1), DeliveryPointId(2)]
        );
    }

    #[test]
    fn infeasible_subsets_are_absent() {
        // dp1 (x=2) expires at 1.5 → singleton {dp1} infeasible (travel 2),
        // and any superset containing dp1 likewise.
        let inst = line_instance(&[100.0, 1.5, 100.0]);
        let (pool, _) = run(&inst, &VdpsConfig::unpruned(3));
        assert!(pool.iter().all(|v| v.mask & 0b010 == 0));
        // {dp0}, {dp2}, {dp0,dp2} remain.
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn epsilon_pruning_cuts_long_hops() {
        let inst = line_instance(&[100.0, 100.0, 100.0]);
        // Hops between consecutive line points are 1.0; dp0→dp2 is 2.0.
        let (pool, stats) = run(&inst, &VdpsConfig::pruned(1.0, 3));
        // {dp0,dp2} requires a hop of 2.0 (dc→dp2 direct then dp2→dp0, or
        // dp0→dp2) → pruned. {dp0,dp1},{dp1,dp2},{dp0,dp1,dp2} survive.
        let masks: Vec<u128> = pool.iter().map(|v| v.mask).collect();
        assert!(masks.contains(&0b011));
        assert!(masks.contains(&0b110));
        assert!(masks.contains(&0b111));
        assert!(!masks.contains(&0b101));
        assert!(stats.pruned_by_distance > 0);
    }

    #[test]
    fn pruning_never_invents_vdps() {
        let inst = line_instance(&[2.0, 3.5, 100.0]);
        let (unpruned, _) = run(&inst, &VdpsConfig::unpruned(3));
        let (pruned, _) = run(&inst, &VdpsConfig::pruned(1.0, 3));
        let unpruned_masks: std::collections::HashSet<u128> =
            unpruned.iter().map(|v| v.mask).collect();
        for v in pruned.iter() {
            assert!(unpruned_masks.contains(&v.mask));
        }
    }

    #[test]
    fn max_len_caps_subset_size() {
        let inst = line_instance(&[100.0, 100.0, 100.0]);
        let (pool, _) = run(&inst, &VdpsConfig::unpruned(2));
        assert!(pool.iter().all(|v| v.len() <= 2));
        assert_eq!(pool.len(), 6); // 3 singletons + 3 pairs
    }

    #[test]
    fn is_empty_agrees_with_len() {
        let inst = line_instance(&[100.0, 100.0]);
        let (pool, _) = run(&inst, &VdpsConfig::unpruned(2));
        assert!(!pool.is_empty());
        for v in pool.iter() {
            assert!(!v.is_empty(), "generated VDPS must not be empty");
            assert_eq!(v.len(), v.mask.count_ones() as usize);
        }
        // A pool with no rows is empty, whatever its center.
        let empty = VdpsPool::new(pool.center());
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_center_produces_nothing() {
        let mut inst = line_instance(&[100.0]);
        inst.tasks.clear();
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let (pool, stats) = generate_c_vdps(&inst, &aggs, &views[0], &VdpsConfig::default());
        assert!(pool.is_empty());
        assert_eq!(stats.vdps_count, 0);
    }

    #[test]
    fn stats_count_deadline_pruning() {
        let inst = line_instance(&[0.5, 0.5, 0.5]);
        let (pool, stats) = run(&inst, &VdpsConfig::unpruned(3));
        assert!(pool.is_empty());
        assert_eq!(stats.pruned_by_deadline, 3);
    }

    #[test]
    #[should_panic(expected = "at most 128")]
    fn rejects_centers_beyond_bitmask_capacity() {
        use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
        use fta_core::ids::{CenterId, TaskId, WorkerId};
        let n = 129;
        let dps: Vec<DeliveryPoint> = (0..n)
            .map(|i| DeliveryPoint {
                id: DeliveryPointId::from_index(i),
                location: Point::new(i as f64 * 0.01, 0.0),
                center: CenterId(0),
            })
            .collect();
        let tasks: Vec<SpatialTask> = (0..n)
            .map(|i| SpatialTask {
                id: TaskId::from_index(i),
                delivery_point: DeliveryPointId::from_index(i),
                expiry: 100.0,
                reward: 1.0,
            })
            .collect();
        let inst = Instance::new(
            vec![DistributionCenter {
                id: CenterId(0),
                location: Point::new(0.0, 0.0),
            }],
            vec![Worker {
                id: WorkerId(0),
                location: Point::new(0.0, 0.0),
                max_dp: 1,
                center: CenterId(0),
            }],
            dps,
            tasks,
            1.0,
        )
        .unwrap();
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let _ = generate_c_vdps(&inst, &aggs, &views[0], &VdpsConfig::unpruned(1));
    }

    #[test]
    fn grid_index_and_linear_scan_agree_at_boundary_epsilon() {
        // ε exactly equal to an inter-point distance: the grid index and
        // the hop filter must treat the boundary identically (inclusive).
        let inst = line_instance(&[100.0, 100.0, 100.0]);
        let (pool_a, _) = run(&inst, &VdpsConfig::pruned(1.0, 3));
        // 1.0 is the exact hop length on the line.
        assert!(pool_a.iter().any(|v| v.len() == 3), "chains of 3 must form");
    }

    #[test]
    fn max_len_zero_generates_nothing() {
        let inst = line_instance(&[10.0]);
        let aggs = inst.dp_aggregates();
        let views = inst.center_views();
        let (pool, stats) = generate_c_vdps(&inst, &aggs, &views[0], &VdpsConfig::unpruned(0));
        assert!(pool.is_empty());
        assert_eq!(stats.states, 0);
    }

    #[test]
    fn deterministic_output_order() {
        let inst = line_instance(&[10.0, 10.0, 10.0]);
        let (a, _) = run(&inst, &VdpsConfig::unpruned(3));
        let (b, _) = run(&inst, &VdpsConfig::unpruned(3));
        assert_eq!(a, b);
        // Ordered by size then mask.
        let sizes: Vec<usize> = a.iter().map(|v| v.len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }
}
