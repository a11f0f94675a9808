//! Grouping a round's centers into pool jobs, with cost-aware scheduling.
//!
//! The paper's decomposition makes every distribution center an
//! independent subproblem, so the round loop ([`crate::resolve::Solver`]
//! and its one-shot shims [`crate::solver::solve`] /
//! [`crate::solver::solve_with_pool`]) submits one pool job per center.
//! At scale (hundreds of centers, 10⁵+ workers) two things break down:
//!
//! * **Scheduling.** Center costs are heavy-tailed — one downtown
//!   "whale" center can cost more than fifty suburban ones. FIFO
//!   submission in center order lets such a whale start last and
//!   serialize the tail of the batch.
//! * **Memory.** Interleaving unrelated centers across threads churns
//!   the per-thread generation arenas (`fta_vdps::arena`): buffer sizes
//!   stop repeating, recycling misses, and 10⁵-worker instances thrash
//!   the allocator.
//!
//! Every round therefore runs its jobs largest-estimated-cost first
//! ([`TaskScope::map_prioritized`](fta_vdps::TaskScope::map_prioritized)),
//! and [`SolveConfig::shards`] optionally groups centers into
//! [`ShardPlan`] shards (hash or geo k-means, see [`fta_core::shard`])
//! with **one job per shard**. A shard's centers solve consecutively on
//! one pool thread, heaviest first — its arena reuse stays coherent —
//! while intra-center layer expansion still fans out through the shared
//! scope, so a whale center can use every idle thread. Costs come from
//! [`estimate_center_cost`]: a cached center's last measured
//! nanoseconds when available, otherwise a closed-form estimate from DP
//! and worker counts.
//!
//! **Determinism.** Shards only *group* work. Every center walks the
//! same per-center ladder with the same center-id-salted seed, and
//! outcomes are merged back in global center order, so a sharded round
//! is bit-identical to an unsharded one for every algorithm and any
//! shard count/partitioner (property-tested in `tests/proptest_shard.rs`).

use crate::solver::SolveConfig;
use fta_core::instance::CenterView;
use fta_core::{Instance, ShardBy, ShardPlan};

/// Estimated cost of solving one center, used to order jobs
/// largest-first. When `measured_nanos` carries the center's last
/// measured solve time (and it is non-zero), that is the estimate;
/// otherwise the cost is a closed-form proxy — the number of candidate
/// DP subsets up to the effective length cap, times the workers that
/// will validate them. Only relative magnitudes matter: costs order
/// work, they never change results.
#[must_use]
pub fn estimate_center_cost(
    instance: &Instance,
    view: &CenterView,
    config: &SolveConfig,
    measured_nanos: Option<u64>,
) -> u64 {
    if let Some(measured) = measured_nanos.filter(|&n| n > 0) {
        return measured;
    }
    let d = view.dps.len() as u64;
    let w = view.workers.len() as u64;
    let center_max_dp = view
        .workers
        .iter()
        .map(|&x| instance.workers[x.index()].max_dp)
        .max()
        .unwrap_or(0);
    let len_cap = (config.vdps.max_len.min(center_max_dp) as u64).min(d);
    let mut subsets: u64 = 0;
    for l in 1..=len_cap {
        subsets = subsets.saturating_add(binomial_capped(d, l));
    }
    subsets.max(1).saturating_mul(w.max(1)).saturating_add(d)
}

/// C(n, k), saturating at 2⁴⁰ — beyond that the ordering is settled and
/// exact magnitudes stop mattering.
fn binomial_capped(n: u64, k: u64) -> u64 {
    const CAP: u64 = 1 << 40;
    let k = k.min(n - k);
    let mut c: u64 = 1;
    for i in 0..k {
        // Multiply-before-divide over consecutive integers stays exact.
        c = c.saturating_mul(n - i) / (i + 1);
        if c >= CAP {
            return CAP;
        }
    }
    c
}

/// One center of a round: `(view index, payload, estimated cost)`.
pub(crate) type Entry<P> = (usize, P, u64);

/// One pool job: the shard it stands for (`None` for a single-center
/// job of an unsharded round) and its centers.
pub(crate) struct Job<P> {
    pub(crate) shard: Option<u32>,
    pub(crate) entries: Vec<Entry<P>>,
}

impl<P> Job<P> {
    /// The job's scheduling cost: the sum of its centers' estimates.
    pub(crate) fn cost(&self) -> u64 {
        self.entries
            .iter()
            .fold(0u64, |acc, e| acc.saturating_add(e.2))
    }
}

/// Groups a round's centers (in view order) into pool jobs: one job per
/// center, or — when `shards` is set — one job per non-empty shard with
/// its centers heaviest first, emitting the `shard.*` telemetry.
pub(crate) fn group_into_jobs<P>(
    instance: &Instance,
    shards: Option<(usize, ShardBy)>,
    entries: Vec<Entry<P>>,
) -> Vec<Job<P>> {
    let Some((k, by)) = shards else {
        return entries
            .into_iter()
            .map(|e| Job {
                shard: None,
                entries: vec![e],
            })
            .collect();
    };
    let plan = ShardPlan::build(&instance.centers, k, by);
    let mut groups: Vec<Vec<Entry<P>>> = (0..plan.shard_count()).map(|_| Vec::new()).collect();
    for e in entries {
        let center = instance.centers[e.0].id;
        groups[plan.shard_of(center) as usize].push(e);
    }
    let jobs: Vec<Job<P>> = groups
        .into_iter()
        .enumerate()
        .map(|(si, mut entries)| {
            // Whales first inside the shard too: their nested layer
            // parallelism overlaps the batch instead of trailing it.
            entries.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
            Job {
                shard: Some(si as u32),
                entries,
            }
        })
        .collect();
    emit_shard_telemetry(&plan, &jobs);
    jobs.into_iter().filter(|j| !j.entries.is_empty()).collect()
}

/// Percentage by which the heaviest load exceeds the mean (0 when empty
/// or all-zero): the shard-balance figure of merit.
fn imbalance_pct(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 0.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    (max / mean - 1.0) * 100.0
}

/// Emits the shard telemetry: `shard.count` / `shard.centers` counters
/// and the `shard.imbalance_pct` gauge (max-aggregated across solves).
fn emit_shard_telemetry<P>(plan: &ShardPlan, jobs: &[Job<P>]) {
    if !fta_obs::enabled() {
        return;
    }
    fta_obs::counter("shard.count", plan.shard_count() as u64);
    fta_obs::counter(
        "shard.centers",
        jobs.iter().map(|j| j.entries.len() as u64).sum(),
    );
    let loads: Vec<u64> = jobs.iter().map(Job::cost).collect();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fta_obs::gauge_max("shard.imbalance_pct", imbalance_pct(&loads).round() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, Algorithm};
    use crate::Solver;
    use fta_core::ChurnSet;
    use fta_data::{generate_syn, SynConfig};

    fn instance(n_centers: usize, seed: u64) -> Instance {
        generate_syn(
            &SynConfig {
                n_centers,
                n_workers: n_centers * 8,
                n_tasks: n_centers * 60,
                n_delivery_points: n_centers * 12,
                extent: 4.0,
                ..SynConfig::bench_scale()
            },
            seed,
        )
    }

    fn sharded(config: SolveConfig, k: usize, by: ShardBy) -> SolveConfig {
        SolveConfig {
            shards: Some((k, by)),
            ..config
        }
    }

    #[test]
    fn sharded_solve_is_bit_identical_to_sequential() {
        let inst = instance(6, 11);
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Mpta(crate::MptaConfig::default()),
            Algorithm::Random { seed: 5 },
            Algorithm::Fgt(crate::FgtConfig::default()),
        ] {
            let config = SolveConfig::new(algorithm);
            let baseline = solve(&inst, &config);
            for shards in [1, 2, 3, 6, 17] {
                for by in [ShardBy::Hash, ShardBy::Geo] {
                    let sharded = solve(&inst, &sharded(config, shards, by));
                    assert_eq!(
                        sharded.assignment,
                        baseline.assignment,
                        "{} diverged at {shards} shards ({by:?})",
                        algorithm.name()
                    );
                    assert_eq!(
                        sharded.gen_stats.work_counters(),
                        baseline.gen_stats.work_counters()
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_summaries_carry_shard_attribution() {
        let inst = instance(5, 3);
        let config = SolveConfig::new(Algorithm::Gta);
        let plan = ShardPlan::build(&inst.centers, 2, ShardBy::Geo);
        let outcome = solve(&inst, &sharded(config, 2, ShardBy::Geo));
        assert!(!outcome.centers.is_empty());
        for summary in &outcome.centers {
            assert_eq!(summary.shard, Some(plan.shard_of(summary.center)));
        }
        let unsharded = solve(&inst, &config);
        assert!(unsharded.centers.iter().all(|s| s.shard.is_none()));
    }

    #[test]
    fn sharded_solver_composes_with_churn_warm_starts() {
        let inst = instance(6, 21);
        let config = SolveConfig::new(Algorithm::Gta);
        let keys: Vec<u64> = (0..inst.workers.len() as u64).collect();

        let mut flat = Solver::new(config);
        let mut sharded = Solver::new(sharded(config, 3, ShardBy::Geo));

        // Round 1: cold prime on both.
        let churn = ChurnSet::empty(keys.len());
        let a = flat.resolve(&inst, &churn);
        let b = sharded.resolve(&inst, &churn);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(flat.last_stats(), sharded.last_stats());
        assert!(sharded.is_primed());

        // Round 2, unchanged instance: every center must come back clean
        // from the cache, matching the unsharded ladder.
        let a2 = flat.resolve(&inst, &churn);
        let b2 = sharded.resolve(&inst, &churn);
        assert_eq!(a2.assignment, b2.assignment);
        assert_eq!(flat.last_stats(), sharded.last_stats());
        assert_eq!(
            sharded.last_stats().centers_clean,
            a2.centers.len(),
            "unchanged round must be fully clean"
        );
        assert!(b2.centers.iter().all(|s| s.resolve_path == "clean"));

        // Round 3: perturb one worker; its center fails the bitwise
        // clean check and goes warm or cold, everything else stays
        // clean — identically on both.
        let mut moved = inst.clone();
        moved.workers[0].location.x += 0.25;
        let a3 = flat.resolve(&moved, &churn);
        let b3 = sharded.resolve(&moved, &churn);
        assert_eq!(a3.assignment, b3.assignment);
        assert_eq!(flat.last_stats(), sharded.last_stats());
        assert!(sharded.last_stats().centers_clean > 0);
        assert!(sharded.last_stats().centers_warm + sharded.last_stats().centers_cold > 0);
    }

    #[test]
    fn sharded_cache_seed_round_trips_through_rehydrate() {
        let inst = instance(4, 9);
        let config = sharded(
            SolveConfig::new(Algorithm::Fgt(crate::FgtConfig::default())),
            2,
            ShardBy::Hash,
        );
        let keys: Vec<u64> = (0..inst.workers.len() as u64).collect();
        let churn = ChurnSet::empty(keys.len());

        let mut live = Solver::new(config);
        live.resolve(&inst, &churn);
        let seed = live.cache_seed().expect("primed solver exports a seed");

        let mut recovered = Solver::new(config);
        assert!(recovered.rehydrate(&inst, &keys, &seed));
        let a = live.resolve(&inst, &churn);
        let b = recovered.resolve(&inst, &churn);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(live.last_stats(), recovered.last_stats());
    }

    #[test]
    fn cost_estimates_prefer_measured_nanos() {
        let inst = instance(2, 2);
        let views = inst.center_views();
        let config = SolveConfig::new(Algorithm::Gta);
        let blind = estimate_center_cost(&inst, &views[0], &config, None);
        assert!(blind > 0);
        assert_eq!(
            estimate_center_cost(&inst, &views[0], &config, Some(0)),
            blind
        );
        assert_eq!(
            estimate_center_cost(&inst, &views[0], &config, Some(1234)),
            1234
        );
    }

    #[test]
    fn binomials_saturate_instead_of_overflowing() {
        assert_eq!(binomial_capped(6, 2), 15);
        assert_eq!(binomial_capped(128, 64), 1 << 40);
        assert_eq!(binomial_capped(5, 0), 1);
    }
}
