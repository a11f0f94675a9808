//! FGT — the Fairness-aware Game-Theoretic approach (Algorithm 2).
//!
//! The FTA problem is formulated as an n-player strategic game whose
//! utility is the Inequity Aversion based Utility (Equation 5). The game is
//! an exact potential game with potential `Φ = Σ_i IAU_i` (Lemma 2), and
//! FGT runs the classical best-response mechanism: after a random
//! initialisation with single-delivery-point strategies, workers take
//! turns adopting the strategy (an available VDPS or `null`) that maximises
//! their IAU given everyone else's current choice, until a full round
//! passes with no change — a pure Nash equilibrium.
//!
//! Strategy switches require a *strict* utility improvement (beyond
//! [`FgtConfig::min_improvement`]); together with the round cap this
//! guarantees termination even in the degenerate tie cases the paper's
//! potential argument glosses over.
//!
//! FGT and PFGT play through one loop, [`play`], whose only fork is how a
//! turn finds its candidate ([`Search`], chosen from the IAU weights).
//! Near an equilibrium almost every turn changes nothing, and under sound
//! weights such a turn pays only for finding the worker's best open
//! strategy. The rival payoffs live in a history-independent
//! [`RivalSet`] (its reads depend on the stored multiset alone), so the
//! monotone search touches it only on candidate turns — where the best
//! open strategy differs from the current selection — and still reads the
//! same floats as the exhaustive search, which updates it on every turn.
//! The work counters ([`BestResponseStats`]) come from the passes that
//! run: `candidates_scanned` is the rows in the prefixes the reach test
//! let through, `early_exits` the turns on which it skipped a non-empty
//! prefix.

use crate::context::GameContext;
use crate::random::random_init;
use crate::stats::BestResponseStats;
use crate::trace::ConvergenceTrace;
use fta_core::iau::{IauParams, RivalSet};
use fta_core::CancelToken;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whether the monotone candidate search is sound for the given IAU
/// weights.
///
/// # Monotonicity proof
///
/// Fix the rivals' payoffs `r_1 ≤ … ≤ r_{n−1}` and view Equation 5 as a
/// function of the own payoff `p`:
///
/// ```text
/// U(p) = p − α/(n−1) · Σ_{r_j > p} (r_j − p) − β/(n−1) · Σ_{r_j < p} (p − r_j)
/// ```
///
/// `U` is continuous and piecewise linear in `p`, with kinks only at rival
/// payoffs. On any open interval between consecutive rivals let `k_above`
/// (`k_below`) be the number of rivals strictly above (below) `p`; then
///
/// ```text
/// dU/dp = 1 + α·k_above/(n−1) − β·k_below/(n−1).
/// ```
///
/// Since `k_below ≤ n−1` and `k_above ≥ 0`, `dU/dp ≥ 1 − β` whenever
/// `α ≥ 0`; for `β < 1` every linear piece therefore has strictly positive
/// slope and `U` is *strictly increasing* in `p`. The argmax of `U` over
/// the candidate set `{0} ∪ {available payoffs}` is then exactly the
/// maximum-payoff candidate, and the exhaustive evaluation's tie-break (first
/// strict maximum over null followed by candidates in ascending pool-index
/// order) is reproduced by the first strict payoff maximum among the
/// available candidates in ascending pool-index order, adopting null
/// unless its payoff strictly exceeds 0. The same argument
/// applies to the priority-aware IAU, which evaluates inequity on the
/// normalised payoffs `q = p/ρ` with `ρ > 0` (a strictly increasing map),
/// and trivially to IEGT's raw-payoff utilities.
///
/// The equivalence is exact in real arithmetic; in floating point it holds
/// unless two candidate utilities within one turn round to the *same* f64
/// despite distinct payoffs, which requires payoff gaps on the order of an
/// ulp of the inequity sums (property-tested never to occur on generated
/// instances).
#[must_use]
pub fn fastpath_sound(params: IauParams) -> bool {
    params.beta < 1.0 && params.alpha >= 0.0
}

/// Configuration of the FGT best-response run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FgtConfig {
    /// Inequity-aversion weights (the paper uses `α = β = 0.5`). They also
    /// choose each turn's candidate search: the monotone pass when
    /// [`fastpath_sound`] holds, the exhaustive IAU argmax otherwise.
    pub iau: IauParams,
    /// Cap on best-response rounds.
    pub max_rounds: usize,
    /// Seed of the random initialisation.
    pub seed: u64,
    /// Minimal utility gain required to switch strategies. Positive values
    /// also serve as the paper's proposed early-termination refinement.
    pub min_improvement: f64,
    /// Additional restarts from fresh random initialisations. The game can
    /// have many pure Nash equilibria of very different fairness; each
    /// restart converges to one, and the equilibrium best under the FTA
    /// objective (lexicographically minimal payoff difference, then maximal
    /// average payoff) is kept.
    pub restarts: usize,
    /// Capture the full payoff vector of every round in the trace
    /// ([`ConvergenceTrace::snapshots`]); off by default because it costs
    /// `O(n)` memory per round.
    pub snapshot_payoffs: bool,
}

impl Default for FgtConfig {
    fn default() -> Self {
        Self {
            iau: IauParams::default(),
            max_rounds: 200,
            seed: 0x4647_5421, // "FGT!"
            min_improvement: 1e-9,
            restarts: 2,
            snapshot_payoffs: false,
        }
    }
}

/// The game's exact potential `Φ(st) = Σ_i IAU_i` (Lemma 2), computed in
/// `O(n log n)` via the identity `Σ_i MP_i = Σ_i LP_i = Σ_{i<j} |P_i−P_j|`:
///
/// `Φ = Σ P_i − (α+β) · n · P_dif / 2`.
#[must_use]
pub fn iau_potential(payoffs: &[f64], params: IauParams) -> f64 {
    let n = payoffs.len();
    if n < 2 {
        return payoffs.iter().sum();
    }
    let total: f64 = payoffs.iter().sum();
    let p_dif = fta_core::fairness::payoff_difference(payoffs);
    total - (params.alpha + params.beta) * n as f64 * p_dif / 2.0
}

/// Runs FGT on a fresh context; returns the convergence trace of the kept
/// run. The final selection (a pure Nash equilibrium unless the round cap
/// was hit) is left in `ctx`. With `restarts > 0`, several equilibria are
/// computed from different random initialisations and the one best under
/// the FTA objective is kept.
pub fn fgt<'a>(ctx: &mut GameContext<'a>, config: &FgtConfig) -> ConvergenceTrace {
    fgt_bounded(ctx, config, None)
}

/// [`fgt`] under cooperative cancellation: the best-response loop checks
/// `cancel` once per round and between restarts, stops early when it
/// trips, and marks the trace [`ConvergenceTrace::cancelled`]. The
/// selection reached so far is kept (it is always a valid partial
/// assignment). `cancel = None` is bit-identical to [`fgt`].
pub fn fgt_bounded<'a>(
    ctx: &mut GameContext<'a>,
    config: &FgtConfig,
    cancel: Option<&CancelToken>,
) -> ConvergenceTrace {
    fgt_searching(ctx, config, Search::for_weights(config.iau), cancel)
}

/// [`fgt_bounded`] with the candidate search given rather than chosen from
/// the weights (the tests force either).
fn fgt_searching<'a>(
    ctx: &mut GameContext<'a>,
    config: &FgtConfig,
    search: Search,
    cancel: Option<&CancelToken>,
) -> ConvergenceTrace {
    let rivals = |payoffs: &[f64]| RivalSet::with_payoffs(payoffs, config.iau);
    best_of_restarts(
        ctx,
        config,
        cancel,
        fta_core::fairness::payoff_difference,
        |trial, seed| play(trial, config, search, Some(seed), cancel, rivals),
    )
}

/// Runs `once(trial, seed)` on a fresh context from `restarts + 1` seeds
/// and keeps the equilibrium best under the FTA objective: minimal
/// `p_dif` of the payoffs, then maximal average payoff (see
/// [`fgt_bounded`]).
pub(crate) fn best_of_restarts<'a>(
    ctx: &mut GameContext<'a>,
    config: &FgtConfig,
    cancel: Option<&CancelToken>,
    p_dif: impl Fn(&[f64]) -> f64,
    mut once: impl FnMut(&mut GameContext<'a>, u64) -> ConvergenceTrace,
) -> ConvergenceTrace {
    let mut total_stats = BestResponseStats::default();
    let mut best: Option<(GameContext<'a>, ConvergenceTrace, f64, f64)> = None;
    for attempt in 0..=config.restarts {
        let mut trial = GameContext::new(ctx.space());
        let trace = once(&mut trial, config.seed.wrapping_add(attempt as u64));
        let cancelled = trace.cancelled;
        total_stats.merge(&trace.stats);
        let diff = p_dif(trial.payoffs());
        let avg = fta_core::fairness::average_payoff(trial.payoffs());
        let improves = best.as_ref().is_none_or(|&(_, _, bd, ba)| {
            diff < bd - 1e-12 || ((diff - bd).abs() <= 1e-12 && avg > ba + 1e-12)
        });
        if improves {
            best = Some((trial, trace, diff, avg));
        }
        if cancelled {
            // No further restarts under an expired budget.
            break;
        }
    }
    let cut_short = cancel.is_some_and(CancelToken::is_cancelled);
    let (winner, mut trace, _, _) = best.expect("at least one attempt always runs");
    *ctx = winner;
    // The trace rounds describe the winning run, but the work counters
    // account for every restart performed — and cancellation is reported
    // even when the kept (earlier) run finished before the budget expired.
    trace.stats = total_stats;
    trace.cancelled = trace.cancelled || cut_short;
    trace
}

/// [`fgt_bounded`] warm-started from a cached strategy profile (see
/// [`crate::warm`]): the profile is replayed onto `ctx` (invalid entries
/// dropped) and a *single* best-response run continues from there — no
/// random initialisation and no restarts, since the whole point of the
/// warm start is to converge in the few rounds the churn actually
/// perturbed. The selection is left in `ctx`; the replay tally is
/// returned alongside the trace.
///
/// When `profile` is the equilibrium of an identical space, the run
/// performs zero switches and the outcome is bit-identical to that
/// equilibrium (property-tested).
pub fn fgt_warm_bounded(
    ctx: &mut GameContext<'_>,
    config: &FgtConfig,
    profile: &[Option<u32>],
    cancel: Option<&CancelToken>,
) -> (ConvergenceTrace, crate::warm::WarmStart) {
    let warm = crate::warm::warm_init(ctx, profile);
    let rivals = |payoffs: &[f64]| RivalSet::with_payoffs(payoffs, config.iau);
    let search = Search::for_weights(config.iau);
    let trace = play(ctx, config, search, None, cancel, rivals);
    (trace, warm)
}

/// How a best-response turn finds its candidate. Both searches feed the
/// same switch rule, and on weights where [`fastpath_sound`] holds they
/// find the same candidate (property-tested bit for bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Search {
    /// The highest-payoff open strategy, null unless its payoff strictly
    /// exceeds 0: one argmax pass over the worker's valid rows (one test
    /// per row length when nothing is open). A turn whose candidate is the
    /// current selection cannot switch and never touches the rival set.
    Monotone,
    /// The IAU argmax over null and every available strategy, evaluated
    /// against the rivals with the worker's own payoff removed.
    Exhaustive,
}

impl Search {
    /// The monotone search where it is sound, the exhaustive one otherwise
    /// (`β ≥ 1` or `α < 0`, where a worker may prefer a lower payoff).
    pub(crate) fn for_weights(iau: IauParams) -> Self {
        if fastpath_sound(iau) {
            Self::Monotone
        } else {
            Self::Exhaustive
        }
    }
}

/// The rival payoffs a best-response run keeps current: FGT keeps one
/// [`RivalSet`]; PFGT keeps its normalised-payoff set plus the raw set
/// that feeds the trace.
pub(crate) trait Rivals {
    /// Rival structures built per run (counted as `evaluator_builds`).
    const BUILDS: u64;
    /// Takes worker `local`'s payoff out of the utility set.
    fn remove(&mut self, local: usize, payoff: f64);
    /// Puts worker `local`'s payoff into the utility set.
    fn insert(&mut self, local: usize, payoff: f64);
    /// Worker `local`'s utility at `payoff` against the stored rivals.
    fn eval(&self, local: usize, payoff: f64) -> f64;
    /// Follows a worker's payoff change from `from` to `to` in any set
    /// beside the utility set; returns the updates made.
    fn moved(&mut self, _from: f64, _to: f64) -> u64 {
        0
    }
    /// The trace's round summary: `(P_dif, average payoff, potential)`.
    fn summary(&self) -> (f64, f64, f64);
}

impl Rivals for RivalSet {
    const BUILDS: u64 = 1;

    fn remove(&mut self, _: usize, payoff: f64) {
        RivalSet::remove(self, payoff);
    }

    fn insert(&mut self, _: usize, payoff: f64) {
        RivalSet::insert(self, payoff);
    }

    fn eval(&self, _: usize, payoff: f64) -> f64 {
        RivalSet::eval(self, payoff)
    }

    fn summary(&self) -> (f64, f64, f64) {
        (self.payoff_difference(), self.average(), self.potential())
    }
}

/// A trace that also keeps every round's payoffs when asked to.
pub(crate) fn new_trace(config: &FgtConfig) -> ConvergenceTrace {
    if config.snapshot_payoffs {
        ConvergenceTrace::with_snapshots()
    } else {
        ConvergenceTrace::default()
    }
}

/// One best-response run, FGT's and PFGT's alike. `init = Some(seed)`
/// randomly initialises `ctx` first (the cold path); `None` continues from
/// the selection it holds (the warm path). `rivals` builds the rival
/// structure from the starting payoffs; it is kept current with two
/// `O(log n)` point updates per turn that reaches the switch rule, and
/// keeps `P_dif`, the average and the potential current, so the per-round
/// trace entry is `O(1)`.
///
/// Each turn finds a candidate by `search`, then switches when the
/// candidate differs from the current selection and its utility beats the
/// current one by more than [`FgtConfig::min_improvement`].
/// `candidate_evaluations` counts the utilities that rule is defined over:
/// two on a monotone turn, two plus one per available strategy on an
/// exhaustive one.
pub(crate) fn play<R: Rivals>(
    ctx: &mut GameContext<'_>,
    config: &FgtConfig,
    search: Search,
    init: Option<u64>,
    cancel: Option<&CancelToken>,
    rivals: impl FnOnce(&[f64]) -> R,
) -> ConvergenceTrace {
    if let Some(seed) = init {
        let mut rng = StdRng::seed_from_u64(seed);
        random_init(ctx, &mut rng);
    }

    let mut trace = new_trace(config);
    let mut rivals = rivals(ctx.payoffs());
    trace.stats.evaluator_builds += R::BUILDS;
    trace.snapshot(ctx.payoffs());
    let (p_dif, average, potential) = rivals.summary();
    trace.record_summary(0, 0, p_dif, average, potential);

    let n = ctx.n_workers();
    for round in 1..=config.max_rounds {
        trace.stats.rounds += 1;
        if search == Search::Monotone {
            trace.stats.fastpath_rounds += 1;
        }
        let mut moves = 0;
        for local in 0..n {
            let own = ctx.payoff(local);
            let (choice, payoff) = match search {
                Search::Monotone => {
                    let (found, scan) = ctx.best_available(local);
                    trace.stats.candidates_scanned += scan.scanned;
                    if scan.skipped_prefix {
                        trace.stats.early_exits += 1;
                    }
                    trace.stats.candidate_evaluations += 2;
                    let best = match found {
                        Some((idx, payoff)) if payoff > 0.0 => (Some(idx), payoff),
                        _ => (None, 0.0),
                    };
                    // A worker already on its best open strategy cannot
                    // switch: the turn ends without touching the rivals.
                    if best.0 == ctx.selection(local) {
                        continue;
                    }
                    rivals.remove(local, own);
                    best
                }
                Search::Exhaustive => {
                    rivals.remove(local, own);
                    trace.stats.candidates_scanned += ctx.space().strategy_count(local) as u64;
                    trace.stats.candidate_evaluations += 2;
                    let mut best = (None, 0.0, rivals.eval(local, 0.0));
                    for (idx, payoff) in ctx.available_strategies(local) {
                        let u = rivals.eval(local, payoff);
                        trace.stats.candidate_evaluations += 1;
                        if u > best.2 {
                            best = (Some(idx), payoff, u);
                        }
                    }
                    (best.0, best.1)
                }
            };
            if choice != ctx.selection(local)
                && rivals.eval(local, payoff) > rivals.eval(local, own) + config.min_improvement
            {
                ctx.set_strategy(local, choice);
                moves += 1;
                trace.stats.switches += 1;
                if choice.is_none() {
                    trace.stats.null_adoptions += 1;
                }
            }
            let adopted = ctx.payoff(local);
            rivals.insert(local, adopted);
            trace.stats.evaluator_updates += 2;
            if adopted != own {
                trace.stats.evaluator_updates += rivals.moved(own, adopted);
            }
        }
        trace.snapshot(ctx.payoffs());
        let (p_dif, average, potential) = rivals.summary();
        trace.record_summary(round, moves, p_dif, average, potential);
        if moves == 0 {
            trace.converged = true;
            break;
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            trace.cancelled = true;
            break;
        }
    }
    trace
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fta_core::iau::IauEvaluator;
    use fta_core::Instance;
    use fta_data::{generate_syn, SynConfig};
    use fta_vdps::{StrategySpace, VdpsConfig};
    use proptest::prelude::*;

    /// The work counters' definition for one turn of a fast-path pass,
    /// recomputed from the worker's valid strategies: grouped by row
    /// length `L`, a group whose masks' union has fewer than `L` points
    /// outside the others' taken mask is skipped and every other group's
    /// rows are scanned. Returns `(scanned, skipped a non-empty group)`.
    pub(crate) fn reach_oracle(ctx: &GameContext<'_>, local: usize) -> (u64, bool) {
        let space = ctx.space();
        let others = ctx.taken_mask() & !ctx.own_mask(local);
        let mut groups: std::collections::BTreeMap<usize, (u64, u128)> = Default::default();
        for (idx, _) in space.strategies(local) {
            let group = groups.entry(space.pool.row_len(idx as usize)).or_default();
            group.0 += 1;
            group.1 |= space.pool.mask(idx as usize);
        }
        groups
            .iter()
            .fold((0, false), |(scanned, skipped), (&len, &(rows, union))| {
                if (union & !others).count_ones() as usize >= len {
                    (scanned + rows, skipped)
                } else {
                    (scanned, true)
                }
            })
    }

    /// The reference best response from the random initialisation of
    /// `seed`: a fresh sorted [`IauEvaluator`] over the `n−1` rivals for
    /// every worker in every round (`O(n² log n)` maintenance per round),
    /// evaluating every available candidate. With `count_reach` it counts
    /// what the monotone search's passes should: `candidates_scanned` and
    /// `early_exits` by [`reach_oracle`], and two `evaluator_updates` per
    /// turn whose best response differs from the current selection.
    fn rebuild(
        ctx: &mut GameContext<'_>,
        config: &FgtConfig,
        seed: u64,
        count_reach: bool,
    ) -> ConvergenceTrace {
        random_init(ctx, &mut StdRng::seed_from_u64(seed));

        let mut trace = new_trace(config);
        trace.record(
            0,
            0,
            ctx.payoffs(),
            iau_potential(ctx.payoffs(), config.iau),
        );

        let n = ctx.n_workers();
        for round in 1..=config.max_rounds {
            trace.stats.rounds += 1;
            let mut moves = 0;
            for local in 0..n {
                // Rivals' payoffs stay fixed while this worker deliberates.
                let others: Vec<f64> = (0..n)
                    .filter(|&j| j != local)
                    .map(|j| ctx.payoff(j))
                    .collect();
                let eval = IauEvaluator::new(&others, config.iau);
                trace.stats.evaluator_builds += 1;

                let current_utility = eval.eval(ctx.payoff(local));
                // Candidate set: null (payoff 0) plus every available VDPS.
                // The availability filter probes the worker's entire list.
                if count_reach {
                    let (scanned, skipped) = reach_oracle(ctx, local);
                    trace.stats.candidates_scanned += scanned;
                    trace.stats.early_exits += u64::from(skipped);
                } else {
                    trace.stats.candidates_scanned += ctx.space().strategy_count(local) as u64;
                }
                let mut best: Option<(Option<u32>, f64)> = Some((None, eval.eval(0.0)));
                trace.stats.candidate_evaluations += 2;
                for (idx, payoff) in ctx.available_strategies(local) {
                    let u = eval.eval(payoff);
                    trace.stats.candidate_evaluations += 1;
                    if best.as_ref().is_none_or(|&(_, bu)| u > bu) {
                        best = Some((Some(idx), u));
                    }
                }
                let (choice, utility) = best.expect("null is always a candidate");
                if count_reach && choice != ctx.selection(local) {
                    trace.stats.evaluator_updates += 2;
                }
                if utility > current_utility + config.min_improvement
                    && choice != ctx.selection(local)
                {
                    ctx.set_strategy(local, choice);
                    moves += 1;
                    trace.stats.switches += 1;
                    if choice.is_none() {
                        trace.stats.null_adoptions += 1;
                    }
                }
            }
            trace.record(
                round,
                moves,
                ctx.payoffs(),
                iau_potential(ctx.payoffs(), config.iau),
            );
            if moves == 0 {
                trace.converged = true;
                break;
            }
        }
        trace
    }

    /// Which best-response loop a comparison runs.
    #[derive(Debug, Clone, Copy)]
    enum Loop {
        /// The per-turn rebuild oracle, restarts included.
        Oracle,
        /// The same, counting with `count_reach`.
        ReachOracle,
        /// The production loop with the given candidate search.
        Searching(Search),
    }

    /// Plays FGT over `s` with `config` on the chosen loop.
    fn play_with(
        s: &StrategySpace,
        config: FgtConfig,
        with: Loop,
    ) -> (GameContext<'_>, ConvergenceTrace) {
        let mut ctx = GameContext::new(s);
        let trace = match with {
            Loop::Searching(search) => fgt_searching(&mut ctx, &config, search, None),
            oracle => {
                let count_reach = matches!(oracle, Loop::ReachOracle);
                best_of_restarts(
                    &mut ctx,
                    &config,
                    None,
                    fta_core::fairness::payoff_difference,
                    |trial, seed| rebuild(trial, &config, seed, count_reach),
                )
            }
        };
        (ctx, trace)
    }

    const EXHAUSTIVE: Loop = Loop::Searching(Search::Exhaustive);
    const MONOTONE: Loop = Loop::Searching(Search::Monotone);

    fn instance(seed: u64) -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 12,
                n_tasks: 120,
                n_delivery_points: 20,
                extent: 2.0,
                ..SynConfig::bench_scale()
            },
            seed,
        )
    }

    fn space(inst: &Instance) -> StrategySpace {
        let views = inst.center_views();
        StrategySpace::build(inst, &views[0], &VdpsConfig::unpruned(3))
    }

    /// A large, sparse space: `max_dp = 1` makes every strategy a
    /// singleton, so ~120 delivery points and 60 workers give thousands
    /// of slots with each point in only about one slot per worker.
    fn large_sparse_space() -> StrategySpace {
        let inst = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 60,
                n_tasks: 1_200,
                n_delivery_points: 120,
                max_dp: 1,
                extent: 2.0,
                ..SynConfig::bench_scale()
            },
            9,
        );
        let views = inst.center_views();
        StrategySpace::build(&inst, &views[0], &VdpsConfig::unpruned(1))
    }

    #[test]
    fn converges_to_a_nash_equilibrium() {
        let inst = instance(1);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let cfg = FgtConfig::default();
        let trace = fgt(&mut ctx, &cfg);
        assert!(trace.converged, "FGT did not converge");

        // Nash check: no worker can strictly improve unilaterally.
        let n = ctx.n_workers();
        for local in 0..n {
            let others: Vec<f64> = (0..n)
                .filter(|&j| j != local)
                .map(|j| ctx.payoff(j))
                .collect();
            let eval = IauEvaluator::new(&others, cfg.iau);
            let current = eval.eval(ctx.payoff(local));
            assert!(eval.eval(0.0) <= current + 1e-6, "null beats equilibrium");
            for (_, payoff) in ctx.available_strategies(local) {
                assert!(
                    eval.eval(payoff) <= current + 1e-6,
                    "worker {local} has a profitable deviation"
                );
            }
        }
    }

    #[test]
    fn produces_valid_assignment() {
        let inst = instance(2);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        fgt(&mut ctx, &FgtConfig::default());
        assert!(ctx.to_assignment().validate(&inst).is_ok());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = instance(3);
        let s = space(&inst);
        let run = |seed| {
            let mut ctx = GameContext::new(&s);
            let trace = fgt(
                &mut ctx,
                &FgtConfig {
                    seed,
                    ..FgtConfig::default()
                },
            );
            (ctx.to_assignment(), trace.len())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn trace_starts_at_round_zero_and_ends_quiet() {
        let inst = instance(4);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let trace = fgt(&mut ctx, &FgtConfig::default());
        assert_eq!(trace.rounds[0].round, 0);
        assert_eq!(trace.last().unwrap().moves, 0);
    }

    #[test]
    fn potential_identity_matches_direct_sum() {
        use fta_core::iau::iau;
        let payoffs = [0.7, 2.1, 1.3, 4.0, 0.0];
        let params = IauParams {
            alpha: 0.4,
            beta: 0.7,
        };
        let direct: f64 = (0..payoffs.len())
            .map(|i| {
                let others: Vec<f64> = payoffs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &p)| p)
                    .collect();
                iau(payoffs[i], &others, params)
            })
            .sum();
        let fast = iau_potential(&payoffs, params);
        assert!((direct - fast).abs() < 1e-9, "{direct} vs {fast}");
    }

    #[test]
    fn zero_rounds_returns_the_random_initialisation() {
        let inst = instance(5);
        let s = space(&inst);
        let mut ctx = GameContext::new(&s);
        let trace = fgt(
            &mut ctx,
            &FgtConfig {
                max_rounds: 0,
                restarts: 0,
                ..FgtConfig::default()
            },
        );
        assert_eq!(trace.len(), 1, "only the initialisation round is recorded");
        assert!(!trace.converged);
        // Initialisation assigns only single-dp strategies.
        for local in 0..ctx.n_workers() {
            if let Some(idx) = ctx.selection(local) {
                assert_eq!(s.pool.row_len(idx as usize), 1);
            }
        }
    }

    #[test]
    fn restarts_never_worsen_the_fta_objective() {
        for seed in 20..24 {
            let inst = instance(seed);
            let s = space(&inst);
            let ws = s.view.workers.clone();
            let diff_with = |restarts| {
                let mut ctx = GameContext::new(&s);
                fgt(
                    &mut ctx,
                    &FgtConfig {
                        restarts,
                        ..FgtConfig::default()
                    },
                );
                ctx.to_assignment().fairness(&inst, &ws).payoff_difference
            };
            // The restart set includes the single-run equilibrium, and the
            // selection keeps the min-diff one.
            assert!(diff_with(3) <= diff_with(0) + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn engines_compute_identical_equilibria() {
        // The exhaustive search over the one incrementally kept rival set
        // must reproduce the rebuild oracle's selections bit-identically
        // for fixed seeds, across several synthetic instances.
        for seed in [11, 12, 13, 14, 15] {
            let inst = instance(seed);
            let s = space(&inst);
            let run = |with| {
                let (ctx, trace) = play_with(&s, FgtConfig::default(), with);
                (ctx.to_assignment(), trace.len(), trace.converged)
            };
            let (a_asg, a_len, a_conv) = run(Loop::Oracle);
            let (b_asg, b_len, b_conv) = run(EXHAUSTIVE);
            assert_eq!(a_asg, b_asg, "seed {seed}: assignments diverge");
            assert_eq!(a_len, b_len, "seed {seed}: round counts diverge");
            assert_eq!(a_conv, b_conv, "seed {seed}: convergence diverges");
        }
    }

    #[test]
    fn engines_agree_on_search_work_but_not_maintenance() {
        let inst = instance(16);
        let s = space(&inst);
        let run = |with| play_with(&s, FgtConfig::default(), with).1.stats;
        let rebuild = run(Loop::Oracle);
        let exhaustive = run(EXHAUSTIVE);
        // Identical search: same rounds, evaluations, and switches.
        assert_eq!(rebuild.rounds, exhaustive.rounds);
        assert_eq!(
            rebuild.candidate_evaluations,
            exhaustive.candidate_evaluations
        );
        assert_eq!(rebuild.switches, exhaustive.switches);
        assert_eq!(rebuild.null_adoptions, exhaustive.null_adoptions);
        // Different maintenance: n builds per round vs one per restart.
        let restarts = FgtConfig::default().restarts as u64 + 1;
        assert_eq!(exhaustive.evaluator_builds, restarts);
        assert_eq!(
            rebuild.evaluator_builds,
            rebuild.rounds * s.n_workers() as u64
        );
        assert_eq!(rebuild.evaluator_updates, 0);
        assert!(exhaustive.evaluator_updates > 0);
    }

    #[test]
    fn fastpath_engine_matches_both_exhaustive_engines() {
        // Identical selections, traces, and payoffs across both searches
        // and the rebuild oracle for fixed seeds (β = 0.5 < 1), on small
        // dense spaces and one large sparse one.
        let mut spaces: Vec<(String, StrategySpace)> = [11, 12, 13, 14, 15]
            .into_iter()
            .map(|seed| (format!("seed {seed}"), space(&instance(seed))))
            .collect();
        spaces.push(("large sparse".to_owned(), large_sparse_space()));
        for (label, s) in &spaces {
            let run = |with| {
                let (ctx, trace) = play_with(s, FgtConfig::default(), with);
                let payoffs: Vec<u64> = ctx.payoffs().iter().map(|p| p.to_bits()).collect();
                (
                    ctx.to_assignment(),
                    trace.rounds,
                    trace.converged,
                    payoffs,
                    trace.stats,
                )
            };
            let (r_asg, r_rounds, r_conv, r_pay, _) = run(Loop::Oracle);
            let (i_asg, i_rounds, i_conv, i_pay, i_stats) = run(EXHAUSTIVE);
            let (f_asg, f_rounds, f_conv, f_pay, _) = run(MONOTONE);
            assert_eq!(r_asg, f_asg, "{label}: monotone vs rebuild diverge");
            assert_eq!(i_asg, f_asg, "{label}: monotone vs exhaustive diverge");
            assert_eq!(i_rounds, f_rounds, "{label}: round summaries diverge");
            assert_eq!(r_rounds.len(), f_rounds.len());
            assert_eq!((r_conv, i_conv), (f_conv, f_conv));
            assert_eq!(r_pay, f_pay, "{label}: payoffs not bit-identical");
            assert_eq!(i_pay, f_pay);
            assert!(i_stats.switches > 0, "{label}: nobody ever moved");
        }
        let sparse = &spaces.last().expect("the sparse fixture is pushed").1;
        assert!(
            sparse.total_slots() >= 4_096 && sparse.total_slots() <= 64 * sparse.view.dps.len(),
            "the sparse fixture lost its shape ({} slots over {} points)",
            sparse.total_slots(),
            sparse.view.dps.len()
        );
    }

    /// On production shapes — two centers of perfbench's `dense` (about
    /// 300 workers over 60 points each) and ten of `paper` (about 10
    /// workers over 60 points each), default restarts — the monotone search
    /// makes the same selections, with the same payoff bits, as the
    /// per-turn rebuild oracle.
    ///
    /// Why agreement here is enough for `β < 1`: for fixed rivals,
    /// `U(p) − U(o)` has the sign of `p − o` and a magnitude of at least
    /// `(1 − β)·|p − o|` (the slope bound in [`fastpath_sound`]'s proof),
    /// and at most `(1 + α)·|p − o|`. The oracle sums the inequity terms
    /// in another order (a sorted prefix sum, not a treap walk), which
    /// moves each utility by a few ulps. That can flip the switch rule
    /// `U(p) > U(o) + min_improvement` only when the true margin lies
    /// within those ulps of `min_improvement` = 1e-9, that is when
    /// `0 < p − o ≲ 1e-9 / (1 − β)` = 2·10⁻⁹ at the default weights. The
    /// monotone candidate never pays less than the current strategy,
    /// so every other turn decides the same way in both loops, and a
    /// payoff gap that small between two of a worker's strategies does
    /// not occur on these shapes.
    #[test]
    fn fastpath_matches_the_rebuild_oracle_on_production_shapes() {
        let shape = |n_centers, n_workers, n_tasks, n_delivery_points, seed| {
            generate_syn(
                &SynConfig {
                    n_centers,
                    n_workers,
                    n_tasks,
                    n_delivery_points,
                    ..SynConfig::bench_scale()
                },
                seed,
            )
        };
        let dense = shape(2, 600, 3_000, 120, 5);
        let paper = shape(10, 100, 1_000, 600, 3);
        let mut checked = 0;
        for inst in [&dense, &paper] {
            for view in inst.center_views() {
                let s = StrategySpace::build(inst, &view, &VdpsConfig::pruned(2.0, 3));
                let run = |with| {
                    let (ctx, trace) = play_with(&s, FgtConfig::default(), with);
                    let picks: Vec<(Option<u32>, u64)> = (0..ctx.n_workers())
                        .map(|l| (ctx.selection(l), ctx.payoff(l).to_bits()))
                        .collect();
                    (picks, trace.len(), trace.converged)
                };
                let label = format!("center {:?} of {} workers", view.center, s.n_workers());
                assert_eq!(run(MONOTONE), run(Loop::Oracle), "{label}");
                checked += 1;
            }
        }
        assert_eq!(checked, 12);
    }

    #[test]
    fn fastpath_scans_fewer_candidates_and_counts_rounds() {
        // The monotone search's counters, against the oracle that replays
        // the same game and recomputes each counter's definition per turn.
        // A pass reads fewer rows than the exhaustive scan only where the
        // reach test skips a prefix, which the starved fixture makes happen.
        let mut spaces: Vec<StrategySpace> = [16, 17, 18].map(|seed| space(&instance(seed))).into();
        spaces.push(large_sparse_space());
        // Supply-starved, like perfbench's `dense`: many workers find every
        // point of a row length taken, and the reach test skips it.
        let starved = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 30,
                n_tasks: 60,
                n_delivery_points: 8,
                extent: 2.0,
                ..SynConfig::bench_scale()
            },
            19,
        );
        spaces.push(space(&starved));
        for s in &spaces {
            let run = |with| play_with(s, FgtConfig::default(), with).1.stats;
            let exhaustive = run(EXHAUSTIVE);
            let fast = run(MONOTONE);
            let oracle = run(Loop::ReachOracle);
            assert_eq!(exhaustive.fastpath_rounds, 0);
            assert_eq!(exhaustive.early_exits, 0);
            assert_eq!(fast.fastpath_rounds, fast.rounds);
            assert_eq!(fast.rounds, exhaustive.rounds);
            assert_eq!(fast.switches, exhaustive.switches);
            assert_eq!(fast.rounds, oracle.rounds);
            assert_eq!(fast.candidates_scanned, oracle.candidates_scanned);
            assert_eq!(fast.early_exits, oracle.early_exits);
            // Two updates per candidate turn, two per turn exhaustively.
            assert_eq!(fast.evaluator_updates, oracle.evaluator_updates);
            assert_eq!(
                exhaustive.evaluator_updates,
                2 * exhaustive.rounds * s.n_workers() as u64
            );
            assert_eq!(
                exhaustive.candidates_scanned,
                exhaustive.rounds * s.total_slots() as u64
            );
            assert!(fast.evaluator_updates < exhaustive.evaluator_updates);
            // Exactly two IAU evaluations counted per worker turn on the
            // monotone search.
            assert_eq!(
                fast.candidate_evaluations,
                2 * fast.rounds * s.n_workers() as u64
            );
        }
        let starved = spaces.last().expect("the starved fixture is pushed");
        let run = |with| play_with(starved, FgtConfig::default(), with).1.stats;
        let (fast, exhaustive) = (run(MONOTONE), run(EXHAUSTIVE));
        assert!(
            fast.early_exits > 0,
            "the starved fixture never skipped a prefix"
        );
        assert!(fast.candidates_scanned < exhaustive.candidates_scanned);
    }

    #[test]
    fn unsound_iau_weights_fall_back_to_exhaustive_evaluation() {
        // β ≥ 1 breaks monotonicity (a worker can prefer a *lower* payoff
        // to reduce guilt), so FGT must choose the exhaustive search —
        // provably, via fastpath_rounds == 0 — and match it forced,
        // bit for bit, with its counters at their definition.
        assert!(!fastpath_sound(IauParams {
            alpha: 0.5,
            beta: 1.0
        }));
        assert!(!fastpath_sound(IauParams {
            alpha: -0.1,
            beta: 0.5
        }));
        assert!(fastpath_sound(IauParams {
            alpha: 0.0,
            beta: 0.999
        }));
        let inst = instance(18);
        let s = space(&inst);
        let guilty = IauParams {
            alpha: 0.5,
            beta: 1.3,
        };
        let config = FgtConfig {
            iau: guilty,
            ..FgtConfig::default()
        };
        assert_eq!(Search::for_weights(guilty), Search::Exhaustive);
        let (e_ctx, e_trace) = play_with(&s, config, EXHAUSTIVE);
        let mut ctx = GameContext::new(&s);
        let trace = fgt(&mut ctx, &config);
        let stats = trace.stats;
        assert_eq!(
            stats.fastpath_rounds, 0,
            "unsound weights took the fast path"
        );
        assert_eq!(ctx.to_assignment(), e_ctx.to_assignment());
        assert_eq!(trace.rounds, e_trace.rounds);
        assert_eq!(stats, e_trace.stats);
        assert_eq!(stats.early_exits, 0);
        assert_eq!(
            stats.candidates_scanned,
            stats.rounds * s.total_slots() as u64
        );
        assert_eq!(
            stats.evaluator_updates,
            2 * stats.rounds * s.n_workers() as u64
        );
    }

    #[test]
    fn payoff_snapshots_are_opt_in() {
        let inst = instance(17);
        let s = space(&inst);
        let lean = {
            let mut ctx = GameContext::new(&s);
            fgt(
                &mut ctx,
                &FgtConfig {
                    restarts: 0,
                    ..FgtConfig::default()
                },
            )
        };
        assert!(lean.snapshots.is_empty());
        let full = {
            let mut ctx = GameContext::new(&s);
            fgt(
                &mut ctx,
                &FgtConfig {
                    restarts: 0,
                    snapshot_payoffs: true,
                    ..FgtConfig::default()
                },
            )
        };
        assert_eq!(full.snapshots.len(), full.rounds.len());
        assert!(full
            .snapshots
            .iter()
            .all(|snap| snap.len() == s.n_workers()));
        // Same equilibrium either way.
        assert_eq!(lean.rounds, full.rounds);
    }

    #[test]
    fn warm_start_from_equilibrium_is_a_no_op_and_bit_identical() {
        for seed in [21, 22, 23] {
            let inst = instance(seed);
            let s = space(&inst);
            let mut cold = GameContext::new(&s);
            let cold_trace = fgt(&mut cold, &FgtConfig::default());
            assert!(cold_trace.converged);
            let profile = crate::warm::profile_of(&cold);

            let mut warm = GameContext::new(&s);
            let (trace, stats) = fgt_warm_bounded(&mut warm, &FgtConfig::default(), &profile, None);
            assert!(stats.is_complete(), "seed {seed}: replay rejected entries");
            assert!(trace.converged, "seed {seed}: warm run did not converge");
            assert_eq!(trace.stats.switches, 0, "seed {seed}: equilibrium moved");
            assert_eq!(warm.to_assignment(), cold.to_assignment());
            let cold_bits: Vec<u64> = cold.payoffs().iter().map(|p| p.to_bits()).collect();
            let warm_bits: Vec<u64> = warm.payoffs().iter().map(|p| p.to_bits()).collect();
            assert_eq!(cold_bits, warm_bits, "seed {seed}: payoffs diverge");
        }
    }

    #[test]
    fn warm_start_from_garbage_still_converges_validly() {
        let inst = instance(24);
        let s = space(&inst);
        // A profile full of invalid indices degenerates to a null start.
        let profile = vec![Some(u32::MAX); s.n_workers()];
        let mut ctx = GameContext::new(&s);
        let (trace, stats) = fgt_warm_bounded(&mut ctx, &FgtConfig::default(), &profile, None);
        assert_eq!(stats.adopted, 0);
        assert_eq!(stats.rejected, s.n_workers());
        assert!(trace.converged);
        assert!(ctx.to_assignment().validate(&inst).is_ok());
    }

    #[test]
    fn fgt_is_fairer_than_greedy_on_average() {
        // FGT's payoff difference should generally be no worse than GTA's
        // (the paper's Figures 4–9 show a clear gap). The old form of this
        // test summed six seeds and compared the totals, which a single
        // adversarial instance could tip over the 1.05 ratio whenever the
        // algorithms shifted by an ulp. Judge per seed over a wider pool
        // instead: FGT must match or beat GTA (within 5% slack) on a clear
        // majority of instances.
        let seeds = 100u64..110;
        let total = seeds.end - seeds.start;
        let mut wins = 0;
        for seed in seeds {
            let inst = instance(seed);
            let s = space(&inst);
            let ws: Vec<_> = s.view.workers.clone();

            let mut g = GameContext::new(&s);
            crate::gta::gta(&mut g);
            let gta_diff = g.to_assignment().fairness(&inst, &ws).payoff_difference;

            let mut f = GameContext::new(&s);
            fgt(&mut f, &FgtConfig::default());
            let fgt_diff = f.to_assignment().fairness(&inst, &ws).payoff_difference;

            if fgt_diff <= gta_diff * 1.05 + 1e-9 {
                wins += 1;
            }
        }
        assert!(
            wins * 3 >= total * 2,
            "FGT fairer than GTA on only {wins}/{total} seeds"
        );
    }

    #[test]
    fn incremental_engine_builds_at_least_5x_fewer_evaluators_per_round() {
        // At n = 1000 workers the production loop, which keeps one rival
        // set incrementally, must do at least 5× fewer
        // evaluator-construction operations per best-response round than
        // the rebuild oracle. Two rounds and no restarts keep the
        // debug-mode test fast; the per-round ratio is independent of the
        // round count.
        let inst = generate_syn(
            &SynConfig {
                n_centers: 1,
                n_workers: 1000,
                n_tasks: 60 * 20,
                n_delivery_points: 60,
                extent: 4.0,
                ..SynConfig::bench_scale()
            },
            3,
        );
        let views = inst.center_views();
        let s = StrategySpace::build(&inst, &views[0], &VdpsConfig::pruned(2.0, 3));
        let config = FgtConfig {
            max_rounds: 2,
            restarts: 0,
            ..FgtConfig::default()
        };
        let rebuild = play_with(&s, config, Loop::Oracle).1.stats;
        let incremental = play_with(&s, config, EXHAUSTIVE).1.stats;

        // Both evaluate the same candidates in the same order.
        assert_eq!(rebuild.rounds, incremental.rounds);
        assert_eq!(
            rebuild.candidate_evaluations,
            incremental.candidate_evaluations
        );
        assert!(rebuild.rounds > 0, "FGT did no best-response rounds");

        // Evaluator-construction ops per round: the oracle makes one O(n)
        // evaluator per worker turn (n per round); the production loop
        // amortises a single build across the whole run and otherwise only
        // performs O(log n) treap remove/insert pairs, which are
        // maintenance, not construction.
        let per_round = |builds: u64, rounds: u64| -> f64 { builds as f64 / rounds as f64 };
        let rebuild_builds = per_round(rebuild.evaluator_builds, rebuild.rounds);
        let incremental_builds = per_round(incremental.evaluator_builds, incremental.rounds);
        assert!(
            rebuild_builds >= 5.0 * incremental_builds,
            "expected >=5x fewer evaluator-construction ops per round: \
             rebuild {rebuild_builds}/round vs incremental {incremental_builds}/round"
        );
        assert_eq!(incremental.evaluator_builds, 1);
        assert_eq!(rebuild.evaluator_updates, 0);
        assert_eq!(rebuild.evaluator_builds, rebuild.rounds * 1000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// For any sound IAU weights the exhaustive search reproduces the
        /// rebuild oracle's selections, payoffs, move counts and
        /// convergence. The oracle recomputes round summaries from scratch
        /// while the loop maintains them, so the summary *floats* may
        /// differ by an ulp and are not compared.
        #[test]
        fn incremental_engine_matches_the_rebuild_oracle(
            seed in 1u64..500,
            n_workers in 2usize..12,
            n_dps in 4usize..16,
            max_dp in 1usize..4,
            alpha in 0.0f64..4.0,
            beta in 0.0f64..1.0,
        ) {
            let inst = generate_syn(
                &SynConfig {
                    n_centers: 1,
                    n_workers,
                    n_tasks: n_dps * 6,
                    n_delivery_points: n_dps,
                    max_dp,
                    extent: 3.0,
                    ..SynConfig::bench_scale()
                },
                seed,
            );
            let views = inst.center_views();
            let s = StrategySpace::build(&inst, &views[0], &VdpsConfig::unpruned(4));
            let config = FgtConfig {
                iau: IauParams { alpha, beta },
                ..FgtConfig::default()
            };
            let run = |with| {
                let (ctx, trace) = play_with(&s, config, with);
                let selections: Vec<Option<u32>> =
                    (0..ctx.n_workers()).map(|l| ctx.selection(l)).collect();
                let payoff_bits: Vec<u64> = ctx.payoffs().iter().map(|p| p.to_bits()).collect();
                let moves: Vec<usize> = trace.rounds.iter().map(|r| r.moves).collect();
                (selections, payoff_bits, moves, trace.converged)
            };
            prop_assert_eq!(run(Loop::Oracle), run(EXHAUSTIVE));
        }
    }

    proptest! {
        /// The monotone search's correctness contract: for any sound IAU
        /// weights (`α ≥ 0`, `β < 1`) it plays the exhaustive search's game
        /// *bit for bit* — same selections, payoff bits, per-round trace
        /// summaries (moves and the `P_dif`, average and potential bits)
        /// and convergence. It touches the rival set only on candidate
        /// turns, the exhaustive search on every turn; every `RivalSet`
        /// read depends on the stored multiset alone, so the summaries
        /// agree too. (Both are held to the rebuild oracle above.) Runs
        /// `PROPTEST_CASES` cases, 256 by default.
        #[test]
        fn fastpath_engine_is_bit_identical_for_sound_iau_weights(
            seed in 1u64..500,
            n_workers in 2usize..12,
            n_dps in 4usize..16,
            max_dp in 1usize..4,
            alpha in 0.0f64..4.0,
            beta in 0.0f64..1.0,
        ) {
            let inst = generate_syn(
                &SynConfig {
                    n_centers: 1,
                    n_workers,
                    n_tasks: n_dps * 6,
                    n_delivery_points: n_dps,
                    max_dp,
                    extent: 3.0,
                    ..SynConfig::bench_scale()
                },
                seed,
            );
            let views = inst.center_views();
            let s = StrategySpace::build(&inst, &views[0], &VdpsConfig::unpruned(4));
            let iau = IauParams { alpha, beta };
            prop_assert_eq!(Search::for_weights(iau), Search::Monotone);
            let config = FgtConfig { iau, ..FgtConfig::default() };
            let run = |with| {
                let (ctx, trace) = play_with(&s, config, with);
                let picks: Vec<(Option<u32>, u64)> = (0..ctx.n_workers())
                    .map(|l| (ctx.selection(l), ctx.payoff(l).to_bits()))
                    .collect();
                let summaries: Vec<(usize, u64, u64, u64)> = trace
                    .rounds
                    .iter()
                    .map(|r| {
                        (
                            r.moves,
                            r.payoff_difference.to_bits(),
                            r.average_payoff.to_bits(),
                            r.potential.to_bits(),
                        )
                    })
                    .collect();
                (picks, summaries, trace.converged)
            };
            prop_assert_eq!(run(EXHAUSTIVE), run(MONOTONE), "monotone search diverged");
        }
    }
}
