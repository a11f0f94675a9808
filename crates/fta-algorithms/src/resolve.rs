//! The round loop: [`Solver`] solves every round of a day, caching per
//! center between rounds and spending work only where the instance
//! changed.
//!
//! A round loop (the sim engine, a dispatcher) calls [`Solver::resolve`]
//! every round, handing it a [`ChurnSet`] whose `worker_keys` identify
//! physical workers across the dense renumbering each snapshot performs.
//! Every round runs the same steps, whether its cache is empty or primed:
//!
//! 1. submit one pool job per center, heaviest first by
//!    [`estimate_center_cost`] (the paper's decomposition makes every
//!    center an independent game);
//! 2. walk each center down the clean/warm/cold ladder;
//! 3. merge the centers' outcomes once, in center order.
//!
//! The per-center ladder:
//!
//! 1. **clean** — every input the solve depends on (delivery points,
//!    aggregates, workers, geometry, configuration) is bitwise identical
//!    to the cache: the cached outcome is returned as-is, no work at all;
//! 2. **warm** — the VDPS pool is delta-updated
//!    ([`fta_vdps::delta_update`]) when the churn only removed, aged, or
//!    re-rewarded tasks, and regenerated when it needs rediscovery (a new
//!    or loosened delivery point, or a cached order broken by a tighter
//!    deadline). Either way the cached equilibrium profile is remapped
//!    onto the new pool (old strategy masks → delivery-point ids → new
//!    masks → new pool indices), and the game restarts *from that
//!    profile* with a single best-response run — only workers the churn
//!    actually disturbed re-deliberate;
//! 3. **cold** — no cache, a cache that does not fit the new round
//!    ([`PoolCache::fits`]: ε change, grown length cap, relocated center,
//!    changed speed, truncated cache), or a panic in the warm path: the
//!    ordinary full per-center solve.
//!
//! Caching is only attempted under an unlimited budget and without fault
//! injection: a degraded or quarantined center must be re-solved cold
//! anyway, and budget tokens are wall-clock-dependent, which would poison
//! the bitwise clean check. In those configurations every call simply
//! performs a full solve. The one-shot [`crate::solver::solve`] and
//! [`crate::solver::solve_with_pool`] run one round of the same loop with
//! no cache and no capture.

use crate::context::GameContext;
use crate::degrade::{DegradationReport, LadderRung};
use crate::fgt::fgt_warm_bounded;
use crate::gta::gta;
use crate::iegt::iegt_warm_bounded;
use crate::mpta::mpta;
use crate::pfgt::pfgt_warm_bounded;
use crate::random::random_assignment;
use crate::solver::{
    install_exhaustion_hook, merge_outcomes, solve_center, Algorithm, CenterCapture, CenterOutcome,
    SolveConfig, SolveOutcome,
};
use crate::trace::ConvergenceTrace;
use crate::warm::WarmStart;
use fta_core::instance::{CenterView, DpAggregate};
use fta_core::{CancelToken, CenterId, ChurnSet, DeliveryPointId, Instance};
use fta_vdps::{delta_update, GenControl, PoolCache, StrategySpace, VdpsConfig, WorkerPool};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How the last [`Solver::resolve`] call distributed its centers across
/// the clean / warm / cold ladder, plus the warm-start replay tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Centers returned straight from the cache (bitwise-identical input).
    pub centers_clean: usize,
    /// Centers solved via delta update + equilibrium warm start.
    pub centers_warm: usize,
    /// Centers solved cold (no cache, delta fallback, or panic).
    pub centers_cold: usize,
    /// Cached strategies adopted across all warm centers.
    pub warm_adopted: usize,
    /// Cached strategies rejected (vanished or conflicting) across all
    /// warm centers.
    pub warm_rejected: usize,
}

/// Serializable seed of a primed [`Solver`] cache: for every captured
/// center, the equilibrium each worker settled on, expressed as
/// delivery-point strategy *masks* (stable across the dense pool-index
/// renumbering a regeneration performs).
///
/// Together with the solved [`Instance`] and the round's stable worker
/// keys, this is everything [`Solver::rehydrate`] needs to rebuild the
/// cache bit-for-bit: pools are regenerated (delta-updated pools are
/// proptest-pinned bitwise-identical to regeneration), while the
/// equilibria are *installed* rather than re-derived — iterative games
/// reach different equilibria from a cold multi-restart than from a warm
/// start, so re-solving would not reproduce the cached profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSeed {
    /// One entry per captured center.
    pub centers: Vec<CenterSeed>,
}

/// One captured center's equilibrium profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CenterSeed {
    /// Dense center index.
    pub center: u32,
    /// Per local worker (in `CenterView::workers` order): the selected
    /// strategy's delivery-point mask, or `None` for the null strategy.
    pub selections: Vec<Option<u128>>,
}

/// Everything remembered about one fully solved center between rounds.
#[derive(Clone)]
pub(crate) struct CenterCache {
    center: CenterId,
    capture: CenterCapture,
    /// Stable key per local worker (parallel to `capture.workers`).
    worker_keys: Vec<u64>,
    /// Bitwise worker identity: `(x bits, y bits, max_dp)` per local
    /// worker. Catches relocated or re-capacitated workers that keep
    /// their key.
    worker_bits: Vec<(u64, u64, u64)>,
    outcome: CenterOutcome,
}

impl CenterCache {
    fn build(
        instance: &Instance,
        keys: &[u64],
        capture: CenterCapture,
        outcome: CenterOutcome,
    ) -> Self {
        let worker_keys = capture.workers.iter().map(|&w| keys[w.index()]).collect();
        let worker_bits = capture
            .workers
            .iter()
            .map(|&w| {
                let worker = &instance.workers[w.index()];
                (
                    worker.location.x.to_bits(),
                    worker.location.y.to_bits(),
                    worker.max_dp as u64,
                )
            })
            .collect();
        Self {
            center: outcome.center,
            capture,
            worker_keys,
            worker_bits,
            outcome,
        }
    }
}

/// A stateful solver that caches per-center pools and equilibrium
/// profiles between rounds. See the [module docs](self). Cloning
/// snapshots the cache (cheap: cached routes are shared `Arc`s), so a
/// caller can branch "what-if" rounds off one primed state.
#[derive(Clone)]
pub struct Solver {
    config: SolveConfig,
    /// Cached centers, in center order.
    centers: Vec<CenterCache>,
    last: ResolveStats,
}

impl Solver {
    /// A solver with no cache yet; the first [`Self::resolve`] primes it.
    #[must_use]
    pub fn new(config: SolveConfig) -> Self {
        Self {
            config,
            centers: Vec::new(),
            last: ResolveStats::default(),
        }
    }

    /// Whether at least one center currently has a cache entry.
    #[must_use]
    pub fn is_primed(&self) -> bool {
        !self.centers.is_empty()
    }

    /// The clean/warm/cold distribution of the most recent call.
    #[must_use]
    pub fn last_stats(&self) -> ResolveStats {
        self.last
    }

    /// Drops every cached center, forcing the next call to solve cold.
    pub fn invalidate(&mut self) {
        self.centers.clear();
    }

    /// Exports the cached equilibria as a serializable [`CacheSeed`]
    /// (sorted by center), or `None` when the cache is unprimed. The
    /// durability layer journals this next to the solved instance and
    /// worker keys so a recovered process keeps its warm-path speedup.
    #[must_use]
    pub fn cache_seed(&self) -> Option<CacheSeed> {
        if self.centers.is_empty() {
            return None;
        }
        Some(CacheSeed {
            centers: self
                .centers
                .iter()
                .map(|c| CenterSeed {
                    center: c.center.index() as u32,
                    selections: c.capture.selections.clone(),
                })
                .collect(),
        })
    }

    /// Rebuilds the per-center caches from a journaled round: `instance`
    /// is the instance that round solved, `keys` its stable worker keys,
    /// and `seed` the equilibria it captured. Pools are regenerated via
    /// the same budgeted build as a cold solve — the build the live
    /// solver's warm path also uses whenever the delta updater declines,
    /// and bit-identical to the delta-updated pools it caches otherwise —
    /// and the seeded equilibria are installed on top, so the next
    /// `resolve` sees exactly the cache an uninterrupted process would
    /// hold.
    ///
    /// All-or-nothing: returns `false` — leaving the solver unprimed,
    /// which is always safe (the next round merely solves cold) — when
    /// any part of the seed does not fit the instance (a center it lacks,
    /// a worker count or strategy mask its pools do not have), or when
    /// this configuration would never have cached in the first place
    /// (bounded budget or panic injection).
    pub fn rehydrate(&mut self, instance: &Instance, keys: &[u64], seed: &CacheSeed) -> bool {
        self.centers.clear();
        if keys.len() != instance.workers.len()
            || !self.config.can_cache()
            || seed
                .centers
                .iter()
                .any(|c| c.center as usize >= instance.centers.len())
        {
            return false;
        }
        let aggregates = instance.dp_aggregates();
        let by_center: HashMap<u32, &CenterSeed> =
            seed.centers.iter().map(|c| (c.center, c)).collect();
        let mut caches = Vec::with_capacity(seed.centers.len());
        for view in instance.center_views() {
            let Some(center_seed) = by_center.get(&(view.center.index() as u32)) else {
                continue;
            };
            match rehydrate_center(instance, &aggregates, view, keys, center_seed, &self.config) {
                Some(cache) => caches.push(cache),
                None => return false,
            }
        }
        self.centers = caches;
        fta_obs::counter("resolve.rehydrated_centers", self.centers.len() as u64);
        self.is_primed()
    }

    /// Solves `instance` given what changed since the cached round.
    /// Centers whose inputs are bitwise unchanged return their cached
    /// outcome; churned centers delta-update or regenerate their pool
    /// and warm-start from the cached equilibrium; everything else
    /// (including every center of an unprimed cache) solves cold. The
    /// result is always a complete, valid solve of `instance` — the
    /// cache only changes how much work that takes. Worker keys of the
    /// wrong length fall back to identity keys and a cold round.
    pub fn resolve(&mut self, instance: &Instance, churn: &ChurnSet) -> SolveOutcome {
        self.resolve_on(instance, churn, &self.config.pool())
    }

    /// [`Self::resolve`] on a caller-provided pool.
    fn resolve_on(
        &mut self,
        instance: &Instance,
        churn: &ChurnSet,
        pool: &WorkerPool,
    ) -> SolveOutcome {
        let mut prev = std::mem::take(&mut self.centers);
        let identity: Vec<u64>;
        let keys: &[u64] = if churn.worker_keys.len() == instance.workers.len() {
            &churn.worker_keys
        } else {
            prev.clear();
            identity = (0..instance.workers.len() as u64).collect();
            &identity
        };
        let capture = self.config.can_cache().then_some(keys);
        let round = solve_round(instance, &self.config, pool, capture, prev);
        self.centers = round.caches;
        self.last = round.stats;
        round.outcome
    }
}

/// Rebuilds one center's cache from its seed, or `None` when the seed
/// does not fit the center.
fn rehydrate_center(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: CenterView,
    keys: &[u64],
    seed: &CenterSeed,
    config: &SolveConfig,
) -> Option<CenterCache> {
    let vdps_cfg = clamped_cfg(instance, &view, config);
    let control = GenControl {
        token: None,
        max_states: config.budget.max_states,
    };
    let center = view.center;
    let space = StrategySpace::build_budgeted(instance, aggregates, view, &vdps_cfg, control);
    // A truncated pool is never captured live; a seed claiming one means
    // instance and seed do not belong together.
    if space.gen_stats.truncations > 0 || seed.selections.len() != space.view.workers.len() {
        return None;
    }
    let idx_of_mask: HashMap<u128, u32> = space
        .pool
        .masks()
        .iter()
        .enumerate()
        .map(|(i, &mask)| (mask, i as u32))
        .collect();
    let mut ctx = GameContext::new(&space);
    for (local, sel) in seed.selections.iter().enumerate() {
        if let Some(mask) = sel {
            ctx.set_strategy(local, Some(*idx_of_mask.get(mask)?));
        }
    }
    let capture = CenterCapture {
        pool_cache: PoolCache::capture(
            instance,
            aggregates,
            &space.view,
            &vdps_cfg,
            &space.pool,
            &space.gen_stats,
        ),
        selections: seed.selections.clone(),
        workers: space.view.workers.clone(),
    };
    let outcome = CenterOutcome {
        center,
        assignment: ctx.to_assignment(),
        vdps_time: Duration::ZERO,
        assign_time: Duration::ZERO,
        gen_stats: space.gen_stats,
        trace: ConvergenceTrace::default(),
        report: DegradationReport::default(),
        rung: LadderRung::Full,
    };
    Some(CenterCache::build(instance, keys, capture, outcome))
}

/// What one round produced: the merged outcome, the caches it captured
/// (in center order) and its ladder tally.
pub(crate) struct Round {
    pub(crate) outcome: SolveOutcome,
    caches: Vec<CenterCache>,
    stats: ResolveStats,
}

/// One center's result within a round.
struct CenterResult {
    outcome: CenterOutcome,
    cache: Option<CenterCache>,
    /// `"clean"`, `"warm"` or `"cold"`.
    path: &'static str,
    warm: WarmStart,
}

/// The round loop every solve runs: one pool job per center, run
/// heaviest first on `pool`, each walking its center down the
/// clean/warm/cold ladder against `prev`, merged once in center order.
/// `capture` carries the stable worker keys the round's caches are
/// captured under; `None` captures nothing (and then `prev` must be
/// empty).
pub(crate) fn solve_round(
    instance: &Instance,
    config: &SolveConfig,
    pool: &WorkerPool,
    capture: Option<&[u64]>,
    prev: Vec<CenterCache>,
) -> Round {
    debug_assert!(capture.is_some() || prev.is_empty());
    let _solve_span = fta_obs::span("solver.solve");
    install_exhaustion_hook();
    // One cancellation token per solve; `None` when the budget is
    // unlimited so the hot paths skip even the atomic load.
    let token = (!config.budget.is_unlimited()).then(|| config.budget.token());
    let cancel = token.as_ref();
    // Computed once per instance, shared by every center job.
    let aggregates = instance.dp_aggregates();
    let mut prev: HashMap<CenterId, CenterCache> =
        prev.into_iter().map(|c| (c.center, c)).collect();

    // `map_prioritized` runs the jobs heaviest first and returns their
    // results in submission (center) order.
    let aggregates = &aggregates;
    let jobs: Vec<(u64, _)> = instance
        .center_views()
        .into_iter()
        .map(|view| {
            let cached = prev.remove(&view.center);
            let measured = cached
                .as_ref()
                .map(|c| (c.outcome.vdps_time + c.outcome.assign_time).as_nanos() as u64);
            let cost = estimate_center_cost(instance, &view, config, measured);
            let run =
                move || resolve_center(instance, aggregates, view, capture, cached, config, cancel);
            (cost, run)
        })
        .collect();
    let results: Vec<CenterResult> = pool.map_prioritized(jobs);

    let mut stats = ResolveStats::default();
    let mut outcomes = Vec::with_capacity(results.len());
    let mut caches = Vec::with_capacity(results.len());
    let mut paths = Vec::with_capacity(results.len());
    for result in results {
        match result.path {
            "clean" => stats.centers_clean += 1,
            "warm" => stats.centers_warm += 1,
            _ => stats.centers_cold += 1,
        }
        stats.warm_adopted += result.warm.adopted;
        stats.warm_rejected += result.warm.rejected;
        caches.extend(result.cache);
        outcomes.push(result.outcome);
        paths.push(result.path);
    }
    if fta_obs::enabled() {
        fta_obs::counter("solve.centers_clean", stats.centers_clean as u64);
        fta_obs::counter("solve.centers_warm", stats.centers_warm as u64);
        fta_obs::counter("solve.centers_cold", stats.centers_cold as u64);
        fta_obs::counter("br.warm_adopted", stats.warm_adopted as u64);
        fta_obs::counter("br.warm_rejected", stats.warm_rejected as u64);
    }
    let budget_cancelled = cancel.is_some_and(CancelToken::is_cancelled);
    let mut outcome = merge_outcomes(outcomes, budget_cancelled);
    for (summary, path) in outcome.centers.iter_mut().zip(paths) {
        summary.resolve_path = path;
    }
    Round {
        outcome,
        caches,
        stats,
    }
}

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
    let len_cap = (clamped_cfg(instance, view, config).max_len as u64).min(d);
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

/// The per-center VDPS config the solver actually generates under: the
/// configured length cap clamped to the center's largest worker `maxDP`
/// (mirrors the cold path in `solver::solve_center_attempt`).
fn clamped_cfg(instance: &Instance, view: &CenterView, config: &SolveConfig) -> VdpsConfig {
    let center_max_dp = view
        .workers
        .iter()
        .map(|&w| instance.workers[w.index()].max_dp)
        .max()
        .unwrap_or(0);
    VdpsConfig {
        max_len: config.vdps.max_len.min(center_max_dp),
        ..config.vdps
    }
}

/// Whether every input the cached solve depended on is bitwise unchanged,
/// so the cached outcome IS the outcome of solving `view` again.
fn center_is_clean(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    keys: &[u64],
    cache: &CenterCache,
    vdps_cfg: &VdpsConfig,
) -> bool {
    let pc = &cache.capture.pool_cache;
    if cache.outcome.rung != LadderRung::Full || pc.truncated {
        return false;
    }
    if view.dps != pc.dp_ids {
        return false;
    }
    let aggs_equal = view.dps.iter().zip(&pc.aggregates).all(|(dp, old)| {
        let a = &aggregates[dp.index()];
        a.task_count == old.task_count
            && a.total_reward.to_bits() == old.total_reward.to_bits()
            && a.earliest_expiry.to_bits() == old.earliest_expiry.to_bits()
    });
    if !aggs_equal {
        return false;
    }
    if view.workers.len() != cache.worker_bits.len() {
        return false;
    }
    let workers_equal = view.workers.iter().enumerate().all(|(local, &w)| {
        let worker = &instance.workers[w.index()];
        keys[w.index()] == cache.worker_keys[local]
            && worker.location.x.to_bits() == cache.worker_bits[local].0
            && worker.location.y.to_bits() == cache.worker_bits[local].1
            && worker.max_dp as u64 == cache.worker_bits[local].2
    });
    if !workers_equal {
        return false;
    }
    if vdps_cfg.max_len != pc.max_len
        || vdps_cfg.epsilon.map(f64::to_bits) != pc.epsilon.map(f64::to_bits)
    {
        return false;
    }
    let dc = instance.centers[view.center.index()].location;
    (dc.x.to_bits(), dc.y.to_bits()) == pc.center_bits && instance.speed.to_bits() == pc.speed_bits
}

/// One center of a round: clean short-circuit, then the warm path
/// (panic-isolated), then the cold fallback. With `capture` unset there
/// is no cache to consult and none is kept.
fn resolve_center(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: CenterView,
    capture: Option<&[u64]>,
    cached: Option<CenterCache>,
    config: &SolveConfig,
    cancel: Option<&CancelToken>,
) -> CenterResult {
    if let (Some(cache), Some(keys)) = (cached, capture) {
        let vdps_cfg = clamped_cfg(instance, &view, config);
        if center_is_clean(instance, aggregates, &view, keys, &cache, &vdps_cfg) {
            let mut outcome = cache.outcome.clone();
            // The cached result is returned verbatim, but no time was
            // spent this round.
            outcome.vdps_time = Duration::ZERO;
            outcome.assign_time = Duration::ZERO;
            return CenterResult {
                outcome,
                cache: Some(cache),
                path: "clean",
                warm: WarmStart::default(),
            };
        }
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            warm_center(
                instance,
                aggregates,
                view.clone(),
                keys,
                &cache,
                config,
                &vdps_cfg,
            )
        }));
        match attempt {
            Ok(Some((outcome, warm, new_cache))) => {
                return CenterResult {
                    outcome,
                    cache: Some(new_cache),
                    path: "warm",
                    warm,
                };
            }
            Ok(None) => {}
            Err(_) => {
                fta_obs::counter("resolve.panic_fallback", 1);
            }
        }
    }
    let (outcome, captured) = solve_center(
        instance,
        aggregates,
        view,
        config,
        cancel,
        capture.is_some(),
    );
    let cache = captured
        .zip(capture)
        .map(|(cap, keys)| CenterCache::build(instance, keys, cap, outcome.clone()));
    CenterResult {
        outcome,
        cache,
        path: "cold",
        warm: WarmStart::default(),
    }
}

/// Remaps the cached equilibrium onto the freshly built space: each
/// worker's old strategy mask is translated bit by bit through the old
/// delivery-point ids into the new bit order, then looked up in the new
/// pool (masks are unique per pool). Workers without a cached strategy,
/// workers new to the center, and strategies touching a vanished
/// delivery point map to `None`.
fn remap_profile(cache: &CenterCache, keys: &[u64], space: &StrategySpace) -> Vec<Option<u32>> {
    let old_by_key: HashMap<u64, u128> = cache
        .worker_keys
        .iter()
        .zip(&cache.capture.selections)
        .filter_map(|(&k, sel)| sel.map(|mask| (k, mask)))
        .collect();
    let new_bit: HashMap<DeliveryPointId, u32> = space
        .view
        .dps
        .iter()
        .enumerate()
        .map(|(i, &dp)| (dp, i as u32))
        .collect();
    let idx_of_mask: HashMap<u128, u32> = space
        .pool
        .masks()
        .iter()
        .enumerate()
        .map(|(i, &mask)| (mask, i as u32))
        .collect();
    let old_dp_ids = &cache.capture.pool_cache.dp_ids;
    let mut profile = Vec::with_capacity(space.view.workers.len());
    'workers: for &w in &space.view.workers {
        let Some(&old_mask) = old_by_key.get(&keys[w.index()]) else {
            profile.push(None);
            continue;
        };
        let mut new_mask: u128 = 0;
        let mut m = old_mask;
        while m != 0 {
            let bit = m.trailing_zeros() as usize;
            m &= m - 1;
            match new_bit.get(&old_dp_ids[bit]) {
                Some(&b) => new_mask |= 1u128 << b,
                None => {
                    profile.push(None);
                    continue 'workers;
                }
            }
        }
        profile.push(idx_of_mask.get(&new_mask).copied());
    }
    profile
}

/// The warm path for one center: delta-update the pool (or regenerate it
/// when the update would need rediscovery), rebuild the strategy space
/// around it, replay the remapped equilibrium, and run a single warm
/// best-response pass. Returns `None` when the cached pool does not fit
/// this round at all ([`PoolCache::fits`]), sending the center cold.
fn warm_center(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: CenterView,
    keys: &[u64],
    cache: &CenterCache,
    config: &SolveConfig,
    vdps_cfg: &VdpsConfig,
) -> Option<(CenterOutcome, WarmStart, CenterCache)> {
    let pool_cache = &cache.capture.pool_cache;
    if !pool_cache.fits(instance, &view, vdps_cfg) {
        fta_obs::counter("vdps.delta_fallback", 1);
        return None;
    }
    let center = view.center;
    let center_u32 = center.index() as u32;
    let _span = fta_obs::span_center("solver.center_warm", center_u32);
    let t0 = Instant::now();
    let space = match delta_update(instance, aggregates, &view, vdps_cfg, pool_cache) {
        Some((pool, dstats)) => {
            let gen_stats = dstats.as_gen_stats(pool.len());
            StrategySpace::from_pool_in(instance, view, pool, gen_stats, None)
        }
        None => {
            // The churn needs rediscovery: regenerating with the flat
            // engine is cheaper than any search seeded by the changed
            // points, and the warm start below still applies.
            fta_obs::counter("vdps.delta_regenerated", 1);
            StrategySpace::build_in(instance, aggregates, view, vdps_cfg)
        }
    };
    let vdps_time = t0.elapsed();

    let profile = remap_profile(cache, keys, &space);
    let algorithm = config.algorithm.salted(u64::from(center.0));
    let t1 = Instant::now();
    let assign_span = fta_obs::span_center("solver.assign", center_u32);
    let mut ctx = GameContext::new(&space);
    let (trace, warm) = match algorithm {
        Algorithm::Fgt(cfg) => fgt_warm_bounded(&mut ctx, &cfg, &profile, None),
        Algorithm::Pfgt(cfg) => pfgt_warm_bounded(&mut ctx, &cfg, &profile, None),
        Algorithm::Iegt(cfg) => iegt_warm_bounded(&mut ctx, &cfg, &profile, None),
        Algorithm::Gta => {
            gta(&mut ctx);
            (ConvergenceTrace::default(), WarmStart::default())
        }
        Algorithm::Mpta(cfg) => {
            mpta(&mut ctx, &cfg);
            (ConvergenceTrace::default(), WarmStart::default())
        }
        Algorithm::Random { seed } => {
            random_assignment(&mut ctx, seed);
            (ConvergenceTrace::default(), WarmStart::default())
        }
    };
    drop(assign_span);
    let assign_time = t1.elapsed();

    if fta_obs::enabled() {
        let algo_name = algorithm.name();
        for r in &trace.rounds {
            fta_obs::round_event(
                algo_name,
                center_u32,
                r.round.min(u32::MAX as usize) as u32,
                r.moves as u64,
                r.payoff_difference,
                r.average_payoff,
                r.potential,
            );
        }
    }

    let selections: Vec<Option<u128>> = (0..ctx.n_workers())
        .map(|l| ctx.selection(l).map(|i| space.pool.mask(i as usize)))
        .collect();
    let capture = CenterCapture {
        pool_cache: PoolCache::capture(
            instance,
            aggregates,
            &space.view,
            vdps_cfg,
            &space.pool,
            &space.gen_stats,
        ),
        selections,
        workers: space.view.workers.clone(),
    };
    let outcome = CenterOutcome {
        center,
        assignment: ctx.to_assignment(),
        vdps_time,
        assign_time,
        gen_stats: space.gen_stats,
        trace,
        report: DegradationReport::default(),
        rung: LadderRung::Full,
    };
    let new_cache = CenterCache::build(instance, keys, capture, outcome.clone());
    Some((outcome, warm, new_cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgt::FgtConfig;
    use fta_data::{generate_syn, SynConfig};

    fn instance(seed: u64) -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 3,
                n_workers: 24,
                n_tasks: 300,
                n_delivery_points: 45,
                extent: 3.0,
                ..SynConfig::bench_scale()
            },
            seed,
        )
    }

    fn identity_churn(instance: &Instance) -> ChurnSet {
        ChurnSet::empty(instance.workers.len())
    }

    fn keyed_churn(keys: &[u64]) -> ChurnSet {
        ChurnSet {
            worker_keys: keys.to_vec(),
            ..ChurnSet::empty(keys.len())
        }
    }

    /// Drops the last `1/frac` of the tasks: removal-only churn, which the
    /// delta updater applies.
    fn drop_tail(instance: &Instance, frac: usize) -> Instance {
        let mut churned = instance.clone();
        let n = churned.tasks.len();
        churned.tasks.truncate(n - n / frac);
        churned
    }

    /// One task at a brand-new delivery point next to every center, plus
    /// one loosened expiry: churn the delta updater declines, so every
    /// center regenerates its pool and still warm-starts.
    fn arrivals(instance: &Instance) -> Instance {
        use fta_core::entities::{DeliveryPoint, SpatialTask};
        use fta_core::geometry::Point;
        let mut churned = instance.clone();
        for c in &instance.centers {
            let dp = DeliveryPointId::from_index(churned.delivery_points.len());
            churned.delivery_points.push(DeliveryPoint {
                id: dp,
                location: Point::new(c.location.x + 0.05, c.location.y - 0.05),
                center: c.id,
            });
            churned.tasks.push(SpatialTask {
                id: fta_core::TaskId::from_index(churned.tasks.len()),
                delivery_point: dp,
                expiry: instance.tasks[0].expiry,
                reward: 2.0,
            });
        }
        churned.tasks[0].expiry += 1.0;
        churned
    }

    #[test]
    fn zero_churn_resolve_is_all_clean_and_bit_identical() {
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Random { seed: 5 },
        ] {
            let inst = instance(1);
            let mut solver = Solver::new(SolveConfig::new(algorithm));
            let first = solver.resolve(&inst, &identity_churn(&inst));
            assert!(solver.is_primed());
            let second = solver.resolve(&inst, &identity_churn(&inst));
            let stats = solver.last_stats();
            assert_eq!(
                stats.centers_clean,
                inst.centers.len(),
                "{}: not all centers clean",
                algorithm.name()
            );
            assert_eq!(stats.centers_warm, 0);
            assert_eq!(stats.centers_cold, 0);
            assert_eq!(first.assignment, second.assignment);
        }
    }

    #[test]
    fn unprimed_resolve_solves_cold_and_primes() {
        let inst = instance(2);
        let mut solver = Solver::new(SolveConfig::new(Algorithm::Gta));
        assert!(!solver.is_primed());
        let out = solver.resolve(&inst, &identity_churn(&inst));
        assert!(out.assignment.validate(&inst).is_ok());
        assert!(solver.is_primed());
        assert_eq!(solver.last_stats().centers_cold, inst.centers.len());
    }

    #[test]
    fn task_churn_takes_the_warm_path_and_matches_cold_for_gta() {
        // GTA is deterministic given the pool, and the warm pool — delta
        // updated after removals, regenerated after arrivals — is
        // bit-identical to a cold one, so warm GTA must equal a cold solve
        // of the churned instance exactly.
        let inst = instance(3);
        for churned in [drop_tail(&inst, 10), arrivals(&inst)] {
            let mut solver = Solver::new(SolveConfig::new(Algorithm::Gta));
            solver.resolve(&inst, &identity_churn(&inst));
            let warm = solver.resolve(&churned, &identity_churn(&churned));
            let stats = solver.last_stats();
            assert!(
                stats.centers_warm > 0,
                "no center took the warm path: {stats:?}"
            );
            assert_eq!(stats.centers_cold, 0, "unexpected cold centers: {stats:?}");

            let cold = crate::solver::solve(&churned, &SolveConfig::new(Algorithm::Gta));
            assert_eq!(warm.assignment, cold.assignment);
            assert!(warm.assignment.validate(&churned).is_ok());
        }
    }

    #[test]
    fn caches_that_do_not_fit_go_cold() {
        // A changed speed or a relocated center leaves no cached pool
        // reusable: those centers solve cold rather than regenerating and
        // warm-starting from the equilibrium of a different geometry.
        let inst = instance(11);
        let mut faster = drop_tail(&inst, 10);
        faster.speed *= 1.5;
        let mut moved = drop_tail(&inst, 10);
        moved.centers[0].location.x += 0.25;
        for (churned, cold) in [(faster, inst.centers.len()), (moved, 1)] {
            let mut solver = Solver::new(SolveConfig::new(Algorithm::Gta));
            solver.resolve(&inst, &identity_churn(&inst));
            solver.resolve(&churned, &identity_churn(&churned));
            let stats = solver.last_stats();
            assert_eq!(stats.centers_cold, cold, "{stats:?}");
            assert_eq!(
                stats.centers_clean + stats.centers_warm + stats.centers_cold,
                inst.centers.len()
            );
        }
    }

    #[test]
    fn fgt_warm_resolve_is_valid_and_mostly_adopts() {
        let inst = instance(4);
        let mut solver = Solver::new(SolveConfig::new(Algorithm::Fgt(FgtConfig::default())));
        solver.resolve(&inst, &identity_churn(&inst));

        let mut churned = inst.clone();
        let n = churned.tasks.len();
        churned.tasks.truncate(n - n / 20); // ~5% churn
        let warm = solver.resolve(&churned, &identity_churn(&churned));
        let stats = solver.last_stats();
        assert!(stats.centers_warm > 0, "no warm centers: {stats:?}");
        assert!(
            stats.warm_adopted >= stats.warm_rejected,
            "warm start rejected more than it adopted: {stats:?}"
        );
        assert!(warm.assignment.validate(&churned).is_ok());
        assert!(warm.trace.converged, "warm FGT did not converge");
    }

    #[test]
    fn resolve_repeats_stay_consistent_across_rounds() {
        // Three rounds of shrinking task sets: every round must produce a
        // valid assignment and keep the cache primed.
        let inst = instance(5);
        let mut solver = Solver::new(SolveConfig::new(Algorithm::Fgt(FgtConfig::default())));
        solver.resolve(&inst, &identity_churn(&inst));
        let mut current = inst;
        for round in 0..3 {
            let n = current.tasks.len();
            current.tasks.truncate(n - n / 15);
            let out = solver.resolve(&current, &identity_churn(&current));
            assert!(
                out.assignment.validate(&current).is_ok(),
                "round {round}: invalid assignment"
            );
            assert!(solver.is_primed(), "round {round}: cache lost");
        }
    }

    #[test]
    fn budgeted_solver_never_caches_and_always_solves_cold() {
        let inst = instance(6);
        let config =
            SolveConfig::new(Algorithm::Gta).with_budget(fta_core::SolveBudget::wall_ms(10_000));
        let mut solver = Solver::new(config);
        solver.resolve(&inst, &identity_churn(&inst));
        assert!(!solver.is_primed(), "budgeted solve must not cache");
        let out = solver.resolve(&inst, &identity_churn(&inst));
        assert!(out.assignment.validate(&inst).is_ok());
        assert_eq!(solver.last_stats().centers_cold, inst.centers.len());
    }

    #[test]
    fn invalidate_forces_the_next_round_cold() {
        let inst = instance(7);
        let mut solver = Solver::new(SolveConfig::new(Algorithm::Gta));
        solver.resolve(&inst, &identity_churn(&inst));
        solver.invalidate();
        assert!(!solver.is_primed());
        solver.resolve(&inst, &identity_churn(&inst));
        assert_eq!(solver.last_stats().centers_cold, inst.centers.len());
    }

    #[test]
    fn rehydrated_solver_matches_live_solver_bitwise() {
        // A solver rebuilt from (instance, keys, seed) must behave exactly
        // like the live solver it was seeded from: same clean-path verdicts
        // and the same warm-path equilibria on the next churned round.
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(crate::iegt::IegtConfig::default()),
        ] {
            let inst = instance(9);
            let keys: Vec<u64> = (100..100 + inst.workers.len() as u64).collect();
            let mut live = Solver::new(SolveConfig::new(algorithm));
            live.resolve(&inst, &keyed_churn(&keys));
            let seed = live.cache_seed().expect("live solver is primed");

            let mut restored = Solver::new(SolveConfig::new(algorithm));
            assert!(
                restored.rehydrate(&inst, &keys, &seed),
                "{}: rehydration failed",
                algorithm.name()
            );

            // Zero churn: the rehydrated cache must be judged clean.
            let churn = keyed_churn(&keys);
            let a = live.resolve(&inst, &churn);
            let b = restored.resolve(&inst, &churn);
            assert_eq!(
                restored.last_stats().centers_clean,
                inst.centers.len(),
                "{}: rehydrated cache not clean",
                algorithm.name()
            );
            assert_eq!(a.assignment, b.assignment, "{}", algorithm.name());

            // Churned rounds — removals (delta-updated pools), then
            // arrivals (regenerated pools): both must take the same warm
            // path to the same equilibrium, leaving bitwise-equal seeds
            // behind.
            let removed = drop_tail(&inst, 12);
            for churned in [removed.clone(), arrivals(&removed)] {
                let a = live.resolve(&churned, &churn);
                let b = restored.resolve(&churned, &churn);
                assert!(live.last_stats().centers_warm > 0, "{}", algorithm.name());
                assert_eq!(
                    live.last_stats(),
                    restored.last_stats(),
                    "{}: ladder paths diverged",
                    algorithm.name()
                );
                assert_eq!(a.assignment, b.assignment, "{}", algorithm.name());
                assert_eq!(
                    live.cache_seed(),
                    restored.cache_seed(),
                    "{}: post-round caches diverged",
                    algorithm.name()
                );
            }
        }
    }

    #[test]
    fn rehydrate_with_mismatched_seed_leaves_solver_unprimed() {
        let inst = instance(10);
        let keys: Vec<u64> = (0..inst.workers.len() as u64).collect();
        let mut live = Solver::new(SolveConfig::new(Algorithm::Gta));
        live.resolve(&inst, &keyed_churn(&keys));
        let mut seed = live.cache_seed().unwrap();
        // A mask no pool of this instance contains.
        seed.centers[0].selections[0] = Some(u128::MAX);
        let mut restored = Solver::new(SolveConfig::new(Algorithm::Gta));
        assert!(!restored.rehydrate(&inst, &keys, &seed));
        assert!(!restored.is_primed());
        // Unprimed is safe: the next round just solves cold.
        let out = restored.resolve(&inst, &ChurnSet::empty(inst.workers.len()));
        assert!(out.assignment.validate(&inst).is_ok());
    }

    #[test]
    fn rehydrate_refuses_a_seed_for_a_center_the_instance_lacks() {
        let inst = instance(12);
        let keys: Vec<u64> = (0..inst.workers.len() as u64).collect();
        let config = SolveConfig::new(Algorithm::Gta);
        let mut live = Solver::new(config);
        live.resolve(&inst, &keyed_churn(&keys));
        let mut seed = live.cache_seed().unwrap();
        seed.centers.push(CenterSeed {
            center: 999,
            selections: Vec::new(),
        });
        let mut restored = Solver::new(config);
        assert!(!restored.rehydrate(&inst, &keys, &seed));
        assert!(!restored.is_primed());
    }

    #[test]
    fn pool_width_does_not_change_incremental_results() {
        // Churned rounds on a four-thread pool — center jobs and warm and
        // cold generation alike fan out — must equal the sequential ones,
        // cache included.
        let inst = instance(13);
        let removed = drop_tail(&inst, 12);
        let rounds = [
            inst.clone(),
            inst.clone(),
            removed.clone(),
            arrivals(&removed),
        ];
        for algorithm in [
            Algorithm::Gta,
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(crate::iegt::IegtConfig::default()),
        ] {
            let sequential = SolveConfig::new(algorithm);
            let parallel = SolveConfig {
                parallel: true,
                ..sequential
            };
            let pool = WorkerPool::with_threads(4);
            let mut seq = Solver::new(sequential);
            let mut par = Solver::new(parallel);
            for (i, round) in rounds.iter().enumerate() {
                let churn = identity_churn(round);
                let a = seq.resolve(round, &churn);
                let b = par.resolve_on(round, &churn, &pool);
                let name = algorithm.name();
                assert_eq!(a.assignment, b.assignment, "{name} round {i}");
                assert_eq!(seq.last_stats(), par.last_stats(), "{name} round {i}");
                assert_eq!(seq.cache_seed(), par.cache_seed(), "{name} round {i}");
            }
            assert!(seq.last_stats().centers_warm > 0, "{}", algorithm.name());
        }
    }

    #[test]
    fn worker_key_mismatch_falls_back_to_cold() {
        let inst = instance(8);
        let mut solver = Solver::new(SolveConfig::new(Algorithm::Gta));
        solver.resolve(&inst, &identity_churn(&inst));
        let bad = ChurnSet {
            worker_keys: vec![0; 3], // wrong length
            ..ChurnSet::default()
        };
        let out = solver.resolve(&inst, &bad);
        assert!(out.assignment.validate(&inst).is_ok());
        assert_eq!(solver.last_stats().centers_cold, inst.centers.len());
    }

    #[test]
    fn cost_estimates_prefer_measured_nanos() {
        let inst = instance(2);
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
