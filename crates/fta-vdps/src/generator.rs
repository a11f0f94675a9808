//! The C-VDPS dynamic program (Algorithm 1 of the paper).

use crate::columns::VdpsPool;
use crate::config::VdpsConfig;
use fta_core::budget::CancelToken;
use fta_core::instance::{CenterView, DpAggregate, Instance};

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
/// panels), and to observe where generation time goes and how much
/// intra-center parallelism contributed.
///
/// The first five fields are *work counters*: they describe the dynamic
/// program itself and are identical across thread counts and equal to the
/// test oracles' (see
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
    /// Frontier-expansion chunks scheduled (1 per layer when sequential).
    pub chunks: usize,
    /// Expansion/merge jobs of this generation executed by a pool thread
    /// other than the one that submitted them (work-stealing events).
    pub steals: usize,
    /// During parallel shard merges: number of `(mask)` groups that were
    /// discovered by more than one expansion chunk and had to be folded
    /// together (each extra occurrence counts once).
    pub merge_collisions: usize,
    /// Wall time spent in the parallel shard-merge phase (a subset of
    /// [`GenerationStats::dp_nanos`]), nanoseconds. 0 for sequential runs,
    /// which never shard.
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

    /// The thread-independent work counters
    /// `(states, extensions_tried, pruned_by_distance, pruned_by_deadline,
    /// vdps_count)` — equal across thread counts and oracles for the same
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
/// center-generation, so the hot loops stay plain-field counter
/// arithmetic.
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

/// Generates all C-VDPSs of one distribution center (Algorithm 1) with the
/// flat-frontier engine (`flat.rs`; see the crate docs).
///
/// Returns the VDPS pool together with generation statistics. The pool is
/// ordered deterministically: by subset size, then by bitmask value.
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
/// shard merges on an active worker-pool scope. The pool and the work
/// counters are the same at every thread count.
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
/// the layer loop checks the control between DP layers
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
    crate::flat::generate(instance, aggregates, view, config, scope, control)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
    use fta_core::geometry::Point;
    use fta_core::ids::{CenterId, TaskId, WorkerId};
    use fta_core::DeliveryPointId;

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
        // ε exactly equal to an inter-point distance: the adjacency's
        // squared-distance cut must keep the pair for the inclusive
        // exact test.
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
