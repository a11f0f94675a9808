//! Whole-instance orchestration: VDPS generation + per-center assignment.
//!
//! Task assignment across distribution centers is independent, so a
//! round decomposes an [`Instance`] into [`CenterView`]s, builds each
//! center's [`StrategySpace`], runs the selected algorithm per center,
//! and merges the per-center assignments and convergence traces. This
//! module holds the per-center cold solve (`solve_center`, with its
//! degradation ladder and panic quarantine) and the merge
//! (`merge_outcomes`); the round loop that schedules centers onto the
//! pool is [`crate::resolve::Solver`]'s. [`solve`] and
//! [`solve_with_pool`] run that same loop once, with no cache.
//!
//! With `parallel = true` the per-center jobs run on one [`WorkerPool`]
//! bounded by `available_parallelism()` — never one OS thread per center —
//! so a thousand-center instance does not oversubscribe the machine. A
//! center's job, generation included, runs on one thread. Results are
//! merged in center order and per-center seeds are salted by center id,
//! so the outcome is deterministic regardless of thread count.

use crate::context::GameContext;
use crate::degrade::{DegradationEvent, DegradationReport, LadderRung};
use crate::fgt::{fgt_bounded, FgtConfig};
use crate::gta::gta;
use crate::iegt::{iegt_bounded, IegtConfig};
use crate::mpta::{mpta, MptaConfig};
use crate::pfgt::{pfgt_bounded, PfgtConfig};
use crate::random::random_assignment;
use crate::stats::BestResponseStats;
use crate::trace::ConvergenceTrace;
use fta_core::instance::{CenterView, DpAggregate};
use fta_core::{Assignment, CancelToken, CenterId, Instance, SolveBudget};
use fta_vdps::{GenControl, GenerationStats, StrategySpace, VdpsConfig, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The assignment algorithm to run per center.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Greedy Task Assignment (baseline, no fairness).
    Gta,
    /// Maximal (total) Payoff Task Assignment (baseline, no fairness).
    Mpta(MptaConfig),
    /// Fairness-aware Game-Theoretic approach (Algorithm 2).
    Fgt(FgtConfig),
    /// Priority-aware FGT (future-work extension; see [`mod@crate::pfgt`]).
    Pfgt(PfgtConfig),
    /// Improved Evolutionary Game-Theoretic approach (Algorithm 3).
    Iegt(IegtConfig),
    /// Uniformly random valid assignment (sanity baseline).
    Random {
        /// Seed of the random choices.
        seed: u64,
    },
}

impl Algorithm {
    /// Short display name matching the paper's legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Gta => "GTA",
            Self::Mpta(_) => "MPTA",
            Self::Fgt(_) => "FGT",
            Self::Pfgt(_) => "PFGT",
            Self::Iegt(_) => "IEGT",
            Self::Random { .. } => "RAND",
        }
    }

    /// Returns a copy with all internal seeds offset by `salt`, so each
    /// distribution center's stochastic steps are decorrelated while the
    /// whole run stays deterministic.
    #[must_use]
    pub(crate) fn salted(self, salt: u64) -> Self {
        let mix = |seed: u64| seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match self {
            Self::Gta => Self::Gta,
            Self::Mpta(c) => Self::Mpta(MptaConfig {
                seed: mix(c.seed),
                ..c
            }),
            Self::Fgt(c) => Self::Fgt(FgtConfig {
                seed: mix(c.seed),
                ..c
            }),
            Self::Pfgt(c) => Self::Pfgt(PfgtConfig {
                base: FgtConfig {
                    seed: mix(c.base.seed),
                    ..c.base
                },
                ..c
            }),
            Self::Iegt(c) => Self::Iegt(IegtConfig {
                seed: mix(c.seed),
                ..c
            }),
            Self::Random { seed } => Self::Random { seed: mix(seed) },
        }
    }

    /// Clamps every internal round cap to `cap` (the budget's
    /// [`SolveBudget::max_rounds`]); non-iterative variants are unchanged.
    #[must_use]
    fn with_round_cap(self, cap: usize) -> Self {
        match self {
            Self::Mpta(c) => Self::Mpta(MptaConfig {
                max_rounds: c.max_rounds.min(cap),
                ..c
            }),
            Self::Fgt(c) => Self::Fgt(FgtConfig {
                max_rounds: c.max_rounds.min(cap),
                ..c
            }),
            Self::Pfgt(c) => Self::Pfgt(PfgtConfig {
                base: FgtConfig {
                    max_rounds: c.base.max_rounds.min(cap),
                    ..c.base
                },
                ..c
            }),
            Self::Iegt(c) => Self::Iegt(IegtConfig {
                max_rounds: c.max_rounds.min(cap),
                ..c
            }),
            other => other,
        }
    }

    /// The round cap the algorithm will actually run under (`None` for
    /// the non-iterative baselines).
    #[must_use]
    fn round_cap(&self) -> Option<usize> {
        match self {
            Self::Mpta(c) => Some(c.max_rounds),
            Self::Fgt(c) => Some(c.max_rounds),
            Self::Pfgt(c) => Some(c.base.max_rounds),
            Self::Iegt(c) => Some(c.max_rounds),
            Self::Gta | Self::Random { .. } => None,
        }
    }
}

/// Deterministic chaos knob for tests and drills: makes the solve of one
/// center panic, exercising the quarantine/retry path without unsafe
/// tricks or real bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicInjection {
    /// Index of the center whose solve panics.
    pub center: u32,
    /// Panic again on the degraded retry, forcing the center to be
    /// skipped entirely.
    pub also_on_retry: bool,
}

/// Full solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveConfig {
    /// VDPS generation parameters (ε pruning, length cap).
    pub vdps: VdpsConfig,
    /// The assignment algorithm.
    pub algorithm: Algorithm,
    /// Run distribution centers on separate threads (one-shot and
    /// incremental solves alike).
    pub parallel: bool,
    /// Resource caps; [`SolveBudget::UNLIMITED`] (the default) makes the
    /// solve bit-identical to an unbudgeted build.
    pub budget: SolveBudget,
    /// Test-only fault injection; `None` (the default) in production.
    pub inject_panic: Option<PanicInjection>,
}

impl SolveConfig {
    /// Convenience constructor with default VDPS settings, sequential
    /// execution, and no budget or fault injection.
    #[must_use]
    pub fn new(algorithm: Algorithm) -> Self {
        Self {
            vdps: VdpsConfig::default(),
            algorithm,
            parallel: false,
            budget: SolveBudget::UNLIMITED,
            inject_panic: None,
        }
    }

    /// Returns a copy with the given budget.
    #[must_use]
    pub fn with_budget(self, budget: SolveBudget) -> Self {
        Self { budget, ..self }
    }

    /// Whether rounds under this configuration may be cached: only with
    /// an unlimited budget and no panic injection. A degraded or
    /// quarantined center must be re-solved cold anyway, and budget
    /// tokens are wall-clock-dependent, which would poison the bitwise
    /// clean check.
    pub(crate) fn can_cache(&self) -> bool {
        self.budget.is_unlimited() && self.inject_panic.is_none()
    }

    /// The pool a solve under this configuration runs on: bounded by
    /// `available_parallelism()` with `parallel`, inline otherwise.
    pub(crate) fn pool(&self) -> WorkerPool {
        if self.parallel {
            WorkerPool::new()
        } else {
            WorkerPool::sequential()
        }
    }
}

/// The result of solving one instance.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The merged assignment over all centers.
    pub assignment: Assignment,
    /// Total CPU time spent generating VDPSs (summed over centers).
    pub vdps_time: Duration,
    /// Total CPU time spent in the assignment algorithm proper.
    pub assign_time: Duration,
    /// Aggregated VDPS generation statistics.
    pub gen_stats: GenerationStats,
    /// Aggregated best-response work counters over all centers and
    /// restarts (all-zero for the non-iterative baselines).
    pub br_stats: BestResponseStats,
    /// Merged convergence trace (FGT/IEGT only; empty for the baselines).
    pub trace: ConvergenceTrace,
    /// Everything that went less than perfectly: budget-driven
    /// degradations and quarantined panics, in center order. Empty when
    /// the budget is unlimited and nothing panicked.
    pub degradation: DegradationReport,
    /// The degradation-ladder rung each center was solved at, in center
    /// order. All [`LadderRung::Full`] on a clean run.
    pub rungs: Vec<(CenterId, LadderRung)>,
    /// Per-center causal attribution for the solve ledger, in center
    /// order: rung, triggering budget axis, resolve path, and work
    /// counters.
    pub centers: Vec<CenterSolveSummary>,
}

/// Per-center causal attribution surfaced on [`SolveOutcome`] for the
/// solve ledger: which rung the center landed on, which budget axis
/// drove it there, how the incremental solver resolved it, and how much
/// work it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CenterSolveSummary {
    /// The distribution center.
    pub center: CenterId,
    /// Degradation-ladder rung the center was solved at.
    pub rung: LadderRung,
    /// The budget axis (or fault class) that drove the degradation;
    /// `None` at [`LadderRung::Full`]. When several events fired, the
    /// most severe wins (`panic` > `wall_ms` > `max_rounds` >
    /// `max_states`).
    pub budget_axis: Option<&'static str>,
    /// Resolve path taken: `"cold"` for a from-scratch solve,
    /// `"clean"`/`"warm"` when the incremental [`crate::resolve::Solver`]
    /// reused its cache.
    pub resolve_path: &'static str,
    /// Best-response rounds run for this center (all restarts).
    pub br_rounds: u64,
    /// Candidate strategies evaluated for this center.
    pub br_evaluations: u64,
    /// Strategy switches performed for this center.
    pub br_switches: u64,
    /// VDPSs in the center's final pool.
    pub vdps_count: u64,
    /// DP states materialised during generation.
    pub vdps_states: u64,
    /// Layer-boundary truncations during generation.
    pub vdps_truncations: u64,
    /// Nanoseconds spent generating the pool.
    pub vdps_nanos: u64,
    /// Nanoseconds spent in the assignment algorithm.
    pub assign_nanos: u64,
    /// Human-readable degradation events, in firing order.
    pub events: Vec<String>,
}

/// Most severe budget axis among a center's degradation events.
fn dominant_axis(events: &[DegradationEvent]) -> Option<&'static str> {
    let severity = |axis: &str| match axis {
        "panic" => 3,
        "wall_ms" => 2,
        "max_rounds" => 1,
        _ => 0,
    };
    events
        .iter()
        .map(DegradationEvent::budget_axis)
        .max_by_key(|a| severity(a))
}

impl SolveOutcome {
    /// Total wall CPU time (VDPS generation + assignment).
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.vdps_time + self.assign_time
    }

    /// Whether any center was solved below [`LadderRung::Full`] or any
    /// degradation event fired.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.degradation.is_empty() || self.rungs.iter().any(|&(_, r)| r.is_degraded())
    }
}

/// Per-center result, merged by [`merge_outcomes`].
#[derive(Clone)]
pub(crate) struct CenterOutcome {
    pub(crate) center: CenterId,
    pub(crate) assignment: Assignment,
    pub(crate) vdps_time: Duration,
    pub(crate) assign_time: Duration,
    pub(crate) gen_stats: GenerationStats,
    pub(crate) trace: ConvergenceTrace,
    pub(crate) report: DegradationReport,
    pub(crate) rung: LadderRung,
}

/// What a fully solved center hands an incremental
/// [`crate::resolve::Solver`]: the view and VDPS config its pool was
/// generated under, and the equilibrium profile (as delivery-point masks,
/// which survive the per-round renumbering of pool indices) for the warm
/// start. No pool is kept: a warm center regenerates its own.
pub(crate) struct CenterCapture {
    /// The solved view, its delivery points in local bit order.
    pub(crate) view: CenterView,
    /// The (clamped) config the pool was generated under.
    pub(crate) vdps_cfg: VdpsConfig,
    /// Selected strategy per local worker, as the strategy's dp mask.
    pub(crate) selections: Vec<Option<u128>>,
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fires the configured [`PanicInjection`] when it targets `center`.
fn maybe_inject(config: &SolveConfig, center: CenterId, retrying: bool) {
    if let Some(inj) = config.inject_panic {
        if inj.center == center.0 && (!retrying || inj.also_on_retry) {
            panic!(
                "injected center fault (center {}, retry {retrying})",
                inj.center
            );
        }
    }
}

/// Panic-isolating wrapper around [`solve_center_attempt`]: a panicking
/// center is quarantined (reported, retried once at
/// [`LadderRung::ImmediateSingleStop`]) instead of poisoning the whole
/// round; a second panic skips the center with an empty assignment.
pub(crate) fn solve_center(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: CenterView,
    config: &SolveConfig,
    cancel: Option<&CancelToken>,
    want_capture: bool,
) -> (CenterOutcome, Option<CenterCapture>) {
    let center = view.center;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        solve_center_attempt(
            instance,
            aggregates,
            view.clone(),
            config,
            cancel,
            false,
            want_capture,
        )
    }));
    let payload = match attempt {
        Ok(outcome) => return outcome,
        Err(payload) => payload,
    };
    fta_obs::counter("pool.panics_caught", 1);
    // The panic is the anomaly: snapshot the flight ring while the last
    // moments before it are still in the buffers.
    let _ = fta_obs::ring::anomaly_dump("panic-quarantined", Some(center.0));
    let mut report = DegradationReport::default();
    report.push(DegradationEvent::PanicQuarantined {
        center,
        message: panic_message(payload.as_ref()),
    });
    let retry = catch_unwind(AssertUnwindSafe(|| {
        solve_center_attempt(
            instance,
            aggregates,
            view,
            config,
            cancel,
            true,
            want_capture,
        )
    }));
    match retry {
        Ok((mut outcome, capture)) => {
            report.merge(std::mem::take(&mut outcome.report));
            outcome.report = report;
            (outcome, capture)
        }
        Err(payload) => {
            fta_obs::counter("pool.panics_caught", 1);
            let _ = fta_obs::ring::anomaly_dump("center-skipped", Some(center.0));
            report.push(DegradationEvent::CenterSkipped {
                center,
                message: panic_message(payload.as_ref()),
            });
            (
                CenterOutcome {
                    center,
                    assignment: Assignment::new(),
                    vdps_time: Duration::ZERO,
                    assign_time: Duration::ZERO,
                    gen_stats: GenerationStats::default(),
                    trace: ConvergenceTrace::default(),
                    report,
                    rung: LadderRung::Skipped,
                },
                None,
            )
        }
    }
}

/// One attempt at solving a center, descending the degradation ladder as
/// the budget demands. `retrying = true` (the post-panic path) forces the
/// bottom useful rung: single-delivery-point routes assigned greedily.
fn solve_center_attempt(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: CenterView,
    config: &SolveConfig,
    cancel: Option<&CancelToken>,
    retrying: bool,
    want_capture: bool,
) -> (CenterOutcome, Option<CenterCapture>) {
    let center = view.center;
    maybe_inject(config, center, retrying);

    let mut report = DegradationReport::default();
    let mut rung = LadderRung::Full;

    // Bottom rung pre-check: deadline already passed before generation
    // (or this is the post-panic retry) — fall straight to greedy
    // single-stop routes, the cheapest formulation that still serves
    // every worker one delivery point.
    let immediate = retrying || cancel.is_some_and(CancelToken::is_cancelled);
    if immediate {
        rung = LadderRung::ImmediateSingleStop;
        report.push(DegradationEvent::FellBackToImmediate { center });
    }

    // The generator caps subsets at `min(config cap, workers' max maxDP)`:
    // larger sets can never be assigned.
    let center_max_dp = view
        .workers
        .iter()
        .map(|&w| instance.workers[w.index()].max_dp)
        .max()
        .unwrap_or(0);
    let configured_len = if immediate { 1 } else { config.vdps.max_len };
    let vdps_cfg = VdpsConfig {
        max_len: configured_len.min(center_max_dp),
        ..config.vdps
    };

    let center_u32 = center.index() as u32;
    let _center_span = fta_obs::span_center("solver.center", center_u32);
    let t0 = Instant::now();
    let control = GenControl {
        token: cancel,
        max_states: config.budget.max_states,
    };
    let space = StrategySpace::build_budgeted(instance, aggregates, view, &vdps_cfg, control);
    let vdps_time = t0.elapsed();
    if space.gen_stats.truncations > 0 {
        rung = rung.max(LadderRung::DegradedVdps);
        report.push(DegradationEvent::VdpsTruncated { center });
    }

    let mut algorithm = config.algorithm.salted(u64::from(center.0));
    if let Some(cap) = config.budget.max_rounds {
        algorithm = algorithm.with_round_cap(cap);
    }
    if immediate {
        // Single-stop rung: one greedy pass, no equilibrium loop.
        algorithm = Algorithm::Gta;
    } else if cancel.is_some_and(CancelToken::is_cancelled)
        && matches!(
            algorithm,
            Algorithm::Fgt(_) | Algorithm::Pfgt(_) | Algorithm::Iegt(_)
        )
    {
        // The deadline passed during generation: there is no time left
        // for an equilibrium loop, but a greedy pass over the (possibly
        // truncated) pool is nearly free and strictly better than
        // returning nothing.
        algorithm = Algorithm::Gta;
        rung = rung.max(LadderRung::Gta);
        report.push(DegradationEvent::FellBackToGta { center });
    }

    let effective_cap = algorithm.round_cap();
    let t1 = Instant::now();
    let assign_span = fta_obs::span_center("solver.assign", center_u32);
    let mut ctx = GameContext::new(&space);
    let trace = match algorithm {
        Algorithm::Gta => {
            gta(&mut ctx);
            ConvergenceTrace::default()
        }
        Algorithm::Mpta(cfg) => {
            mpta(&mut ctx, &cfg);
            ConvergenceTrace::default()
        }
        Algorithm::Fgt(cfg) => fgt_bounded(&mut ctx, &cfg, cancel),
        Algorithm::Pfgt(cfg) => pfgt_bounded(&mut ctx, &cfg, cancel),
        Algorithm::Iegt(cfg) => iegt_bounded(&mut ctx, &cfg, cancel),
        Algorithm::Random { seed } => {
            random_assignment(&mut ctx, seed);
            ConvergenceTrace::default()
        }
    };
    drop(assign_span);
    let assign_time = t1.elapsed();

    // Budget-driven early exit from the equilibrium loop: either the
    // cancel token tripped mid-loop, or the budget's round cap bound the
    // run before convergence.
    let capped_by_budget = config.budget.max_rounds.is_some()
        && !trace.converged
        && effective_cap
            .zip(trace.last())
            .is_some_and(|(cap, last)| last.round >= cap);
    if trace.cancelled || capped_by_budget {
        report.push(DegradationEvent::RoundsCapped { center });
    }

    // Round events are replayed from the kept trace (the winning restart)
    // rather than emitted inside the best-response loops: the hot path
    // stays counter-free and the telemetry matches what the trace reports.
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

    // A capture is only useful when the center was solved at the full
    // rung from an untruncated pool: anything degraded must be re-solved
    // cold next round anyway.
    let capture = if want_capture && rung == LadderRung::Full && !trace.cancelled {
        let selections: Vec<Option<u128>> = (0..ctx.n_workers())
            .map(|l| ctx.selection(l).map(|i| space.pool.mask(i as usize)))
            .collect();
        Some(CenterCapture {
            view: space.view.clone(),
            vdps_cfg,
            selections,
        })
    } else {
        None
    };

    let outcome = CenterOutcome {
        center,
        assignment: ctx.to_assignment(),
        vdps_time,
        assign_time,
        gen_stats: space.gen_stats,
        trace,
        report,
        rung,
    };
    (outcome, capture)
}

/// Solves a whole instance with the configured algorithm.
///
/// Deterministic regardless of `config.parallel`:
/// per-center randomness is salted by the center id, and results are
/// merged in center order.
///
/// With `parallel = true` this runs on a [`WorkerPool`] bounded by
/// `available_parallelism()`; pass a pool explicitly via
/// [`solve_with_pool`] to control the thread count.
#[must_use]
pub fn solve(instance: &Instance, config: &SolveConfig) -> SolveOutcome {
    solve_with_pool(instance, config, &config.pool())
}

/// Routes fta-core budget exhaustion into a flight-recorder dump. The
/// observer fires on the first deadline latch of each token; the dump
/// itself is rate-limited process-wide by `fta_obs::ring`.
pub(crate) fn install_exhaustion_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        fta_core::set_exhaustion_observer(Box::new(|_axis| {
            let _ = fta_obs::ring::anomaly_dump("budget-exhausted", None);
        }));
    });
}

/// Like [`solve`], on a caller-provided [`WorkerPool`]: one round of the
/// [`crate::resolve::Solver`] loop with no cache and no capture.
///
/// The run's only parallelism is one `pool` job per center, so the number
/// of live OS threads never exceeds `pool.threads()` regardless of how
/// many centers the instance has. A sequential pool
/// ([`WorkerPool::sequential`]) runs everything inline on the caller's
/// thread. The result is identical for every pool size.
#[must_use]
pub fn solve_with_pool(
    instance: &Instance,
    config: &SolveConfig,
    pool: &WorkerPool,
) -> SolveOutcome {
    crate::resolve::solve_round(instance, config, pool, None, Vec::new()).outcome
}

/// Merges per-center outcomes (in the order given — center order) into one
/// [`SolveOutcome`] and emits the aggregated telemetry counters. Every
/// summary starts out `"cold"`; the round loop patches in the resolve
/// path.
pub(crate) fn merge_outcomes(outcomes: Vec<CenterOutcome>, budget_cancelled: bool) -> SolveOutcome {
    let mut assignment = Assignment::new();
    let mut vdps_time = Duration::ZERO;
    let mut assign_time = Duration::ZERO;
    let mut gen_stats = GenerationStats::default();
    let mut br_stats = BestResponseStats::default();
    let mut trace: Option<ConvergenceTrace> = None;
    let mut degradation = DegradationReport::default();
    let mut rungs = Vec::with_capacity(outcomes.len());
    let mut centers = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        assignment.merge(outcome.assignment);
        vdps_time += outcome.vdps_time;
        assign_time += outcome.assign_time;
        gen_stats.merge(&outcome.gen_stats);
        br_stats.merge(&outcome.trace.stats);
        centers.push(CenterSolveSummary {
            center: outcome.center,
            rung: outcome.rung,
            budget_axis: dominant_axis(&outcome.report.events),
            resolve_path: "cold",
            br_rounds: outcome.trace.stats.rounds,
            br_evaluations: outcome.trace.stats.candidate_evaluations,
            br_switches: outcome.trace.stats.switches,
            vdps_count: outcome.gen_stats.vdps_count as u64,
            vdps_states: outcome.gen_stats.states as u64,
            vdps_truncations: outcome.gen_stats.truncations as u64,
            vdps_nanos: outcome.vdps_time.as_nanos() as u64,
            assign_nanos: outcome.assign_time.as_nanos() as u64,
            events: outcome
                .report
                .events
                .iter()
                .map(|e| e.to_string())
                .collect(),
        });
        degradation.merge(outcome.report);
        rungs.push((outcome.center, outcome.rung));
        if !outcome.trace.is_empty() {
            match &mut trace {
                Some(t) => t.merge_parallel(&outcome.trace),
                None => trace = Some(outcome.trace),
            }
        }
    }
    // A rung below Full is itself an anomaly: snapshot the flight ring
    // (rate-limited, so a mass degradation yields a handful of dumps).
    if let Some(&(center, _)) = rungs.iter().find(|&&(_, r)| r.is_degraded()) {
        let _ = fta_obs::ring::anomaly_dump("degraded-rung", Some(center.0));
    }
    if fta_obs::enabled() {
        // Best-response work counters, aggregated over every center and
        // restart. `counter` drops zero deltas, so baselines emit nothing.
        fta_obs::counter("br.rounds", br_stats.rounds);
        fta_obs::counter("br.candidate_evaluations", br_stats.candidate_evaluations);
        fta_obs::counter("br.switches", br_stats.switches);
        fta_obs::counter("br.null_adoptions", br_stats.null_adoptions);
        fta_obs::counter("br.evaluator_builds", br_stats.evaluator_builds);
        fta_obs::counter("br.evaluator_updates", br_stats.evaluator_updates);
        fta_obs::counter("br.candidates_scanned", br_stats.candidates_scanned);
        fta_obs::counter("br.early_exits", br_stats.early_exits);
        fta_obs::counter("br.fastpath_rounds", br_stats.fastpath_rounds);
        // Degradation counters: centers solved below the full rung, and
        // whether the budget actually bound anywhere.
        let degraded = rungs.iter().filter(|&&(_, r)| r.is_degraded()).count();
        fta_obs::counter("solve.degraded", degraded as u64);
        let exhausted = degradation.budget_exhausted() || budget_cancelled;
        fta_obs::counter("budget.exhausted", u64::from(exhausted));
    }
    SolveOutcome {
        assignment,
        vdps_time,
        assign_time,
        gen_stats,
        br_stats,
        trace: trace.unwrap_or_default(),
        degradation,
        rungs,
        centers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fta_data::{generate_syn, SynConfig};

    fn multi_center_instance() -> Instance {
        generate_syn(
            &SynConfig {
                n_centers: 3,
                n_workers: 24,
                n_tasks: 300,
                n_delivery_points: 45,
                extent: 3.0,
                ..SynConfig::bench_scale()
            },
            77,
        )
    }

    fn all_algorithms() -> Vec<Algorithm> {
        vec![
            Algorithm::Gta,
            Algorithm::Mpta(MptaConfig::default()),
            Algorithm::Fgt(FgtConfig::default()),
            Algorithm::Iegt(IegtConfig::default()),
            Algorithm::Random { seed: 5 },
        ]
    }

    #[test]
    fn every_algorithm_produces_valid_assignments() {
        let inst = multi_center_instance();
        for algo in all_algorithms() {
            let outcome = solve(&inst, &SolveConfig::new(algo));
            assert!(
                outcome.assignment.validate(&inst).is_ok(),
                "{} produced an invalid assignment",
                algo.name()
            );
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let inst = multi_center_instance();
        for algo in all_algorithms() {
            let seq = solve(&inst, &SolveConfig::new(algo));
            let par = solve(
                &inst,
                &SolveConfig {
                    parallel: true,
                    ..SolveConfig::new(algo)
                },
            );
            assert_eq!(
                seq.assignment,
                par.assignment,
                "{} differs between sequential and parallel",
                algo.name()
            );
        }
    }

    #[test]
    fn solve_with_pool_is_thread_count_invariant() {
        // The container may expose a single core; `with_threads` still
        // spins up real workers, so this exercises pooled center jobs,
        // pooled DP layer expansion, and pooled validation.
        let inst = multi_center_instance();
        for algo in all_algorithms() {
            let config = SolveConfig::new(algo);
            let seq = solve_with_pool(&inst, &config, &WorkerPool::sequential());
            for threads in [2, 4, 7] {
                let pooled = solve_with_pool(&inst, &config, &WorkerPool::with_threads(threads));
                assert_eq!(
                    seq.assignment,
                    pooled.assignment,
                    "{} differs between 1 and {threads} threads",
                    algo.name()
                );
                assert_eq!(
                    seq.gen_stats.work_counters(),
                    pooled.gen_stats.work_counters(),
                    "{} generation work differs between 1 and {threads} threads",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn pooled_solve_reports_parallelism_counters() {
        // Each center generates on the thread that claimed its job, so a
        // pooled solve reports exactly the sequential solve's counters.
        let inst = multi_center_instance();
        let config = SolveConfig::new(Algorithm::Gta);
        let pooled = solve_with_pool(&inst, &config, &WorkerPool::with_threads(4));
        let sequential = solve_with_pool(&inst, &config, &WorkerPool::sequential());
        assert!(pooled.gen_stats.states > 0);
        assert_eq!(
            pooled.gen_stats.work_counters(),
            sequential.gen_stats.work_counters()
        );
    }

    #[test]
    fn game_algorithms_report_traces() {
        let inst = multi_center_instance();
        let fgt_out = solve(
            &inst,
            &SolveConfig::new(Algorithm::Fgt(FgtConfig::default())),
        );
        assert!(!fgt_out.trace.is_empty());
        assert!(fgt_out.trace.converged);

        let gta_out = solve(&inst, &SolveConfig::new(Algorithm::Gta));
        assert!(gta_out.trace.is_empty());
    }

    #[test]
    fn br_stats_surface_for_game_algorithms_only() {
        let inst = multi_center_instance();
        let fgt_out = solve(
            &inst,
            &SolveConfig::new(Algorithm::Fgt(FgtConfig::default())),
        );
        assert!(!fgt_out.br_stats.is_empty());
        assert!(fgt_out.br_stats.rounds > 0);
        assert!(fgt_out.br_stats.candidate_evaluations > 0);
        assert_eq!(fgt_out.br_stats, fgt_out.trace.stats);

        let iegt_out = solve(
            &inst,
            &SolveConfig::new(Algorithm::Iegt(IegtConfig::default())),
        );
        assert!(iegt_out.br_stats.rounds > 0);

        let gta_out = solve(&inst, &SolveConfig::new(Algorithm::Gta));
        assert!(gta_out.br_stats.is_empty());
    }

    #[test]
    fn gen_stats_are_aggregated_across_centers() {
        let inst = multi_center_instance();
        let outcome = solve(&inst, &SolveConfig::new(Algorithm::Gta));
        assert!(outcome.gen_stats.vdps_count > 0);
        assert!(outcome.gen_stats.states >= outcome.gen_stats.vdps_count);
        assert!(outcome.total_time() >= outcome.vdps_time);
    }

    #[test]
    fn algorithm_names_match_paper_legends() {
        assert_eq!(Algorithm::Gta.name(), "GTA");
        assert_eq!(Algorithm::Mpta(MptaConfig::default()).name(), "MPTA");
        assert_eq!(Algorithm::Fgt(FgtConfig::default()).name(), "FGT");
        assert_eq!(Algorithm::Iegt(IegtConfig::default()).name(), "IEGT");
    }

    #[test]
    fn taskless_instance_yields_empty_assignment() {
        let mut inst = multi_center_instance();
        inst.tasks.clear();
        for algo in all_algorithms() {
            let outcome = solve(&inst, &SolveConfig::new(algo));
            assert_eq!(
                outcome.assignment.assigned_workers(),
                0,
                "{} assigned workers with no tasks",
                algo.name()
            );
            assert_eq!(outcome.gen_stats.vdps_count, 0);
        }
    }

    #[test]
    fn workerless_center_is_skipped_gracefully() {
        let mut inst = multi_center_instance();
        // Move every worker to center 0; centers 1 and 2 keep their tasks
        // but have nobody to serve them.
        for w in &mut inst.workers {
            w.center = fta_core::CenterId(0);
        }
        let outcome = solve(&inst, &SolveConfig::new(Algorithm::Gta));
        assert!(outcome.assignment.validate(&inst).is_ok());
        for (_, route) in outcome.assignment.iter() {
            assert_eq!(route.center(), fta_core::CenterId(0));
        }
    }

    #[test]
    fn per_center_seeds_are_decorrelated() {
        // Two centers with identical relative geometry must not replay the
        // same random choices: the salted seeds differ per center. We can't
        // easily build identical centers, so assert the salting itself.
        let a = Algorithm::Fgt(FgtConfig::default()).salted(0);
        let b = Algorithm::Fgt(FgtConfig::default()).salted(1);
        match (a, b) {
            (Algorithm::Fgt(ca), Algorithm::Fgt(cb)) => assert_ne!(ca.seed, cb.seed),
            _ => unreachable!(),
        }
    }

    #[test]
    fn max_len_is_clamped_to_center_max_dp() {
        // maxDP = 2 workers: no VDPS of size 3 may be generated even though
        // the config asks for 3.
        let mut inst = multi_center_instance();
        for w in &mut inst.workers {
            w.max_dp = 2;
        }
        let outcome = solve(&inst, &SolveConfig::new(Algorithm::Gta));
        for (_, route) in outcome.assignment.iter() {
            assert!(route.len() <= 2);
        }
    }

    #[test]
    fn unbudgeted_solve_reports_no_degradation() {
        let inst = multi_center_instance();
        for algo in all_algorithms() {
            let outcome = solve(&inst, &SolveConfig::new(algo));
            assert!(!outcome.is_degraded(), "{} degraded", algo.name());
            assert!(outcome.degradation.is_empty());
            assert_eq!(outcome.rungs.len(), inst.centers.len());
            assert!(outcome.rungs.iter().all(|&(_, r)| r == LadderRung::Full));
            // An explicit unlimited budget is the same as no budget.
            let explicit = solve(
                &inst,
                &SolveConfig::new(algo).with_budget(SolveBudget::UNLIMITED),
            );
            assert_eq!(outcome.assignment, explicit.assignment);
        }
    }

    #[test]
    fn expired_deadline_degrades_to_immediate_single_stop() {
        // A 0 ms wall budget is cancelled before any center starts: every
        // center descends to greedy single-stop routes, yet the partial
        // assignment is still valid.
        let inst = multi_center_instance();
        let cfg = SolveConfig::new(Algorithm::Fgt(FgtConfig::default()))
            .with_budget(SolveBudget::wall_ms(0));
        let outcome = solve(&inst, &cfg);
        assert!(outcome.assignment.validate(&inst).is_ok());
        assert!(outcome.is_degraded());
        assert!(outcome
            .rungs
            .iter()
            .all(|&(_, r)| r == LadderRung::ImmediateSingleStop));
        assert_eq!(
            outcome
                .degradation
                .events
                .iter()
                .filter(|e| e.kind() == "fell_back_to_immediate")
                .count(),
            inst.centers.len()
        );
        // Single-stop rung: every assigned route has exactly one stop.
        for (_, route) in outcome.assignment.iter() {
            assert_eq!(route.len(), 1);
        }
    }

    #[test]
    fn state_cap_degrades_vdps_and_stays_deterministic() {
        // A tiny deterministic state cap truncates generation at a layer
        // boundary; the configured algorithm still runs and the result is
        // reproducible (no wall-clock in the loop).
        let inst = multi_center_instance();
        let cfg = SolveConfig::new(Algorithm::Fgt(FgtConfig::default())).with_budget(SolveBudget {
            max_states: Some(8),
            ..SolveBudget::UNLIMITED
        });
        let a = solve(&inst, &cfg);
        let b = solve(&inst, &cfg);
        assert_eq!(
            a.assignment, b.assignment,
            "state cap must be deterministic"
        );
        assert!(a.assignment.validate(&inst).is_ok());
        assert!(a
            .degradation
            .events
            .iter()
            .any(|e| e.kind() == "vdps_truncated"));
        assert!(a.rungs.iter().any(|&(_, r)| r == LadderRung::DegradedVdps));
        // Truncation caps pool size but the solve still serves workers.
        assert!(a.gen_stats.vdps_count > 0);
    }

    #[test]
    fn round_cap_budget_stops_the_equilibrium_loop() {
        let inst = multi_center_instance();
        let cfg =
            SolveConfig::new(Algorithm::Iegt(IegtConfig::default())).with_budget(SolveBudget {
                max_rounds: Some(1),
                ..SolveBudget::UNLIMITED
            });
        let outcome = solve(&inst, &cfg);
        assert!(outcome.assignment.validate(&inst).is_ok());
        // At most the initialisation round plus one evolution round.
        assert!(outcome.trace.len() <= 2, "rounds: {}", outcome.trace.len());
        // Determinism: the cap is not wall-clock driven.
        let again = solve(&inst, &cfg);
        assert_eq!(outcome.assignment, again.assignment);
    }

    #[test]
    fn injected_panic_quarantines_one_center_and_keeps_the_rest() {
        let inst = multi_center_instance();
        let clean = solve(
            &inst,
            &SolveConfig::new(Algorithm::Fgt(FgtConfig::default())),
        );
        let faulty = solve(
            &inst,
            &SolveConfig {
                inject_panic: Some(PanicInjection {
                    center: 1,
                    also_on_retry: false,
                }),
                ..SolveConfig::new(Algorithm::Fgt(FgtConfig::default()))
            },
        );
        assert!(faulty.assignment.validate(&inst).is_ok());
        // Healthy centers are bit-identical to the clean run.
        for (worker, route) in clean.assignment.iter() {
            if route.center() != CenterId(1) {
                assert_eq!(
                    faulty.assignment.route_of(worker),
                    Some(route),
                    "healthy-center route changed for {worker}"
                );
            }
        }
        // The poisoned center was retried at the bottom rung: single stops.
        for (_, route) in faulty.assignment.iter() {
            if route.center() == CenterId(1) {
                assert_eq!(route.len(), 1);
            }
        }
        assert_eq!(faulty.degradation.panics_caught(), 1);
        assert!(faulty
            .degradation
            .events
            .iter()
            .any(|e| e.kind() == "panic_quarantined" && e.center() == CenterId(1)));
        let rung_of = |c: u32| {
            faulty
                .rungs
                .iter()
                .find(|&&(id, _)| id == CenterId(c))
                .map(|&(_, r)| r)
                .expect("rung recorded")
        };
        assert_eq!(rung_of(0), LadderRung::Full);
        assert_eq!(rung_of(1), LadderRung::ImmediateSingleStop);
        assert_eq!(rung_of(2), LadderRung::Full);
    }

    #[test]
    fn double_panic_skips_the_center_without_killing_the_solve() {
        let inst = multi_center_instance();
        let outcome = solve(
            &inst,
            &SolveConfig {
                inject_panic: Some(PanicInjection {
                    center: 1,
                    also_on_retry: true,
                }),
                ..SolveConfig::new(Algorithm::Gta)
            },
        );
        assert!(outcome.assignment.validate(&inst).is_ok());
        // Nobody from the skipped center is assigned.
        for (_, route) in outcome.assignment.iter() {
            assert_ne!(route.center(), CenterId(1));
        }
        // But the healthy centers are served.
        assert!(outcome.assignment.assigned_workers() > 0);
        assert_eq!(outcome.degradation.panics_caught(), 2);
        assert!(outcome
            .degradation
            .events
            .iter()
            .any(|e| e.kind() == "center_skipped"));
        assert!(outcome
            .rungs
            .iter()
            .any(|&(id, r)| id == CenterId(1) && r == LadderRung::Skipped));
    }

    #[test]
    fn panic_isolation_works_under_a_threaded_pool_too() {
        let inst = multi_center_instance();
        let config = SolveConfig {
            inject_panic: Some(PanicInjection {
                center: 0,
                also_on_retry: false,
            }),
            ..SolveConfig::new(Algorithm::Gta)
        };
        let seq = solve_with_pool(&inst, &config, &WorkerPool::sequential());
        let par = solve_with_pool(&inst, &config, &WorkerPool::with_threads(4));
        assert_eq!(seq.assignment, par.assignment);
        assert_eq!(seq.degradation, par.degradation);
        assert_eq!(seq.rungs, par.rungs);
    }
}
