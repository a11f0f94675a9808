//! The discrete-event loop: periodic snapshot → solve → apply.

use crate::faults::FaultPlan;
use crate::metrics::{DayMetrics, WorkerLedger};
use crate::scenario::{ArrivingTask, Scenario};
use crate::state::{self, LoopState};
use fta_algorithms::{solve, Algorithm, LadderRung, SolveConfig, Solver};
use fta_core::entities::{SpatialTask, Worker};
use fta_core::geometry::Point;
use fta_core::ids::{CenterId, DeliveryPointId, TaskId, WorkerId};
use fta_core::route::Route;
use fta_core::{CenterChurn, ChurnSet, Instance, SolveBudget};
use fta_durable::{DurableError, FsyncPolicy, Journal};
use fta_obs::ledger::SolveRecord;
use fta_vdps::VdpsConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Plans single-stop routes for the [`DispatchPolicy::Immediate`] baseline:
/// per center, delivery points are served in earliest-deadline order, each
/// by the nearest idle worker whose initial leg still meets the deadline.
/// Returns `(original worker index, route)` pairs; `idle` maps the
/// snapshot's dense worker ids back to scenario indices.
fn plan_immediate(snapshot: &Instance, idle: &[usize]) -> Vec<(usize, Arc<Route>)> {
    let aggs = snapshot.dp_aggregates();
    let mut used = vec![false; snapshot.workers.len()];
    let mut planned = Vec::new();
    for view in snapshot.center_views() {
        let dc = snapshot.centers[view.center.index()].location;
        let mut dps = view.dps.clone();
        dps.sort_by(|a, b| {
            aggs[a.index()]
                .earliest_expiry
                .total_cmp(&aggs[b.index()].earliest_expiry)
        });
        for dp in dps {
            let route = Route::build(snapshot, &aggs, view.center, vec![dp])
                .expect("singleton routes over snapshot dps are well-formed");
            if !route.is_center_origin_valid() {
                continue;
            }
            // Nearest feasible unused worker of this center.
            let candidate = view
                .workers
                .iter()
                .filter(|w| !used[w.index()])
                .map(|&w| {
                    let to_dc = snapshot.travel_time(snapshot.workers[w.index()].location, dc);
                    (w, to_dc)
                })
                .filter(|&(_, to_dc)| route.is_valid_for_travel(to_dc))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            if let Some((w, _)) = candidate {
                used[w.index()] = true;
                planned.push((idle[w.index()], Arc::new(route)));
            }
        }
    }
    planned
}

/// How pending tasks are dispatched at each round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchPolicy {
    /// Snapshot everything and run an FTA assignment algorithm (the
    /// paper's batch model).
    Batch(Algorithm),
    /// Naive production dispatching: serve each pending delivery point by
    /// sending its nearest feasible idle courier on a single-stop route,
    /// first-come first-served. No routing, no fairness — the baseline a
    /// platform has *before* adopting the paper's approach.
    Immediate,
}

/// Durability settings: where and how aggressively the engine journals
/// its round-by-round state (see [`SimConfig::durable`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DurableConfig {
    /// Directory holding the commit log (`wal.fta`) and snapshots.
    pub dir: PathBuf,
    /// When appended frames are fsynced (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Every this many journaled rounds, the round is persisted as a
    /// full snapshot instead of a log frame, and the log is truncated.
    pub snapshot_every: u64,
    /// Crash drill: abort the whole process (as `kill -9` would) right
    /// after journaling this round. Test/CI hook for exercising recovery;
    /// `None` in production.
    pub crash_after_round: Option<u64>,
}

impl DurableConfig {
    /// Journaling into `dir` with the default policy: fsync every 8
    /// frames, snapshot every 16 rounds.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(8),
            snapshot_every: 16,
            crash_after_round: None,
        }
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Simulated horizon, hours.
    pub horizon: f64,
    /// Interval between assignment rounds, hours.
    pub assignment_period: f64,
    /// The dispatch policy run at each round.
    pub policy: DispatchPolicy,
    /// VDPS generation settings for each round (batch policies only).
    pub vdps: VdpsConfig,
    /// Solve distribution centers on separate threads (batch policies
    /// only).
    pub parallel: bool,
    /// Per-round solve budget (batch policies only). Rounds whose solve
    /// degrades down the ladder are counted in
    /// [`DayMetrics::degraded_rounds`]. Defaults to
    /// [`SolveBudget::UNLIMITED`], which leaves the solver untouched.
    pub budget: SolveBudget,
    /// Optional fault injection (see [`FaultPlan`]). `None` — the
    /// default — runs the pristine simulation, bit-identical to builds
    /// without the fault layer.
    pub faults: Option<FaultPlan>,
    /// Solve rounds incrementally (batch policies only): a persistent
    /// [`Solver`] keeps per-center VDPS pools and equilibrium profiles
    /// between rounds, delta-updates them against the computed
    /// [`ChurnSet`], and warm-starts the game from the previous round's
    /// equilibrium. For deterministic single-attempt algorithms (GTA,
    /// MPTA, Random) the incremental day is bit-identical to the cold day;
    /// the iterative games may converge to a different — equally valid —
    /// equilibrium because the warm path runs a single best-response pass
    /// instead of multi-restart search.
    pub incremental: bool,
    /// Optional durability: journal every solved round's full state (plus
    /// the incremental solver's cache seed) to a checksummed commit log
    /// with periodic snapshots, so a crashed day can be resumed with
    /// [`restore`] bit-for-bit. `None` — the default — journals nothing
    /// and is bit-identical to builds without the durability layer; when
    /// set, journaling only *observes* the day (same metrics either way).
    pub durable: Option<DurableConfig>,
}

impl SimConfig {
    /// An 8-hour day with a batch assignment round every 15 minutes.
    #[must_use]
    pub fn day(algorithm: Algorithm) -> Self {
        Self {
            horizon: 8.0,
            assignment_period: 0.25,
            policy: DispatchPolicy::Batch(algorithm),
            vdps: VdpsConfig::default(),
            parallel: false,
            budget: SolveBudget::UNLIMITED,
            faults: None,
            incremental: false,
            durable: None,
        }
    }

    /// Sets the per-round solve budget.
    #[must_use]
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables incremental round-over-round solving (see
    /// [`SimConfig::incremental`]).
    #[must_use]
    pub fn with_incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// Enables fault injection with the given plan.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables durability (see [`SimConfig::durable`]).
    #[must_use]
    pub fn with_durable(mut self, durable: DurableConfig) -> Self {
        self.durable = Some(durable);
        self
    }
}

/// Outcome of a run: the longitudinal metrics (see [`DayMetrics`]).
pub type SimReport = DayMetrics;

/// A pending (arrived, unassigned, unexpired) task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    /// Index of the task in [`Scenario::tasks`].
    pub(crate) task: u32,
    /// Instant at which the requester cancels this task, if the fault
    /// plan decided so at ingest.
    pub(crate) cancel_at: Option<f64>,
    /// Times this task has been requeued after a failed route.
    pub(crate) retries: u32,
    /// Retry backoff: the task is excluded from round snapshots until
    /// this instant.
    pub(crate) eligible_after: f64,
}

impl Pending {
    /// The scenario task this entry stands for.
    pub(crate) fn of<'a>(&self, scenario: &'a Scenario) -> &'a ArrivingTask {
        &scenario.tasks[self.task as usize]
    }
}

/// Builds the [`Pending`] entry for scenario task `index`, drawing the
/// cancellation fate from the fault RNG when a plan with `p_cancel > 0`
/// is active.
fn make_pending(
    scenario: &Scenario,
    index: usize,
    plan: Option<&FaultPlan>,
    rng: Option<&mut StdRng>,
) -> Pending {
    let task = &scenario.tasks[index];
    let cancel_at = match (plan, rng) {
        (Some(plan), Some(rng)) if plan.p_cancel > 0.0 => {
            if rng.gen_range(0.0..1.0) < plan.p_cancel {
                Some(if task.deadline > task.arrival {
                    rng.gen_range(task.arrival..task.deadline)
                } else {
                    task.arrival
                })
            } else {
                None
            }
        }
        _ => None,
    };
    Pending {
        task: u32::try_from(index).expect("scenario task indices fit in u32"),
        cancel_at,
        retries: 0,
        eligible_after: 0.0,
    }
}

/// The round's [`Instance`]: `workers` (scenario index, current location)
/// and the scenario tasks `tasks`, with expiries relative to `now`. The
/// live snapshot and recovery both build it here, so a journaled solver
/// seed rebuilds the solved instance bit for bit. Indices must be in
/// range.
pub(crate) fn round_instance(
    scenario: &Scenario,
    workers: impl Iterator<Item = (usize, Point)>,
    tasks: &[u32],
    now: f64,
) -> fta_core::Result<Instance> {
    let workers = workers
        .enumerate()
        .map(|(dense, (orig, location))| Worker {
            id: WorkerId::from_index(dense),
            location,
            max_dp: scenario.workers[orig].max_dp,
            center: scenario.workers[orig].center,
        })
        .collect();
    let tasks = tasks
        .iter()
        .enumerate()
        .map(|(dense, &i)| {
            let t = &scenario.tasks[i as usize];
            SpatialTask {
                id: TaskId::from_index(dense),
                delivery_point: t.delivery_point,
                expiry: t.deadline - now,
                reward: t.reward,
            }
        })
        .collect();
    Instance::new(
        scenario.centers.clone(),
        workers,
        scenario.delivery_points.clone(),
        tasks,
        scenario.config.speed,
    )
}

/// The shape of one solved round, remembered for churn detection: the
/// instant it was solved at, which scenario workers were idle per center,
/// and how many tasks each center's snapshot carried.
pub(crate) struct RoundShape {
    pub(crate) now: f64,
    pub(crate) center_workers: Vec<Vec<usize>>,
    pub(crate) center_tasks: Vec<u64>,
}

impl RoundShape {
    fn of(scenario: &Scenario, idle: &[usize], instance: &Instance, now: f64) -> Self {
        let n_centers = scenario.centers.len();
        let mut center_workers = vec![Vec::new(); n_centers];
        for &orig in idle {
            center_workers[scenario.workers[orig].center.index()].push(orig);
        }
        let mut center_tasks = vec![0u64; n_centers];
        for t in &instance.tasks {
            center_tasks[scenario.delivery_points[t.delivery_point.index()]
                .center
                .index()] += 1;
        }
        Self {
            now,
            center_workers,
            center_tasks,
        }
    }
}

/// Builds the [`ChurnSet`] handed to [`Solver::resolve`]: worker keys are
/// scenario indices (stable across the dense per-round renumbering), age
/// is the time since the last solved round, and the per-center
/// diagnostics compare idle sets exactly and task counts approximately
/// (count deltas — identity-accurate task diffing is the solver's job,
/// done bitwise on aggregates).
fn churn_between(prev: Option<&RoundShape>, cur: &RoundShape, idle: &[usize]) -> ChurnSet {
    let worker_keys = idle.iter().map(|&w| w as u64).collect();
    let Some(prev) = prev else {
        return ChurnSet {
            age: 0.0,
            worker_keys,
            per_center: Vec::new(),
        };
    };
    let per_center = cur
        .center_workers
        .iter()
        .zip(&prev.center_workers)
        .zip(cur.center_tasks.iter().zip(&prev.center_tasks))
        .map(|((cw, pw), (&ct, &pt))| CenterChurn {
            added_tasks: ct.saturating_sub(pt).min(u64::from(u32::MAX)) as u32,
            removed_tasks: pt.saturating_sub(ct).min(u64::from(u32::MAX)) as u32,
            arrived_workers: cw.iter().filter(|w| !pw.contains(w)).count() as u32,
            departed_workers: pw.iter().filter(|w| !cw.contains(w)).count() as u32,
        })
        .collect();
    ChurnSet {
        age: cur.now - prev.now,
        worker_keys,
        per_center,
    }
}

/// A log-normal multiplicative factor with median 1 (Box–Muller), or
/// exactly 1 when `sigma` is zero (no RNG draw in that case).
fn lognormal_factor(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (sigma * z).exp()
}

/// Applies one round's planned routes at `st.now`, subjecting each to
/// the fault plan: a no-show leaves the worker idle and fails every
/// stop; a dropout delivers a prefix of stops and fails the rest;
/// inflation stretches the executed travel time. Every eligible pending
/// task at a served delivery point is delivered (Definition 2: a route
/// serves the full task set of each dp); every one at a failed point is
/// requeued with a backoff or, once its retry budget is spent, abandoned.
///
/// Linear in pending tasks plus planned stops: eligible tasks are counted
/// per delivery point once, and delivered/failed membership is a flag
/// per point.
fn apply_routes(
    scenario: &Scenario,
    plan: Option<&FaultPlan>,
    st: &mut LoopState,
    planned: &[(usize, Arc<Route>)],
) {
    let _span = fta_obs::span("sim.apply");
    let now = st.now;
    let n_dps = scenario.delivery_points.len();
    let dp_of = |p: &Pending| p.of(scenario).delivery_point.index();
    let mut eligible_at = vec![0usize; n_dps];
    for p in st.pending.iter().filter(|p| p.eligible_after <= now) {
        eligible_at[dp_of(p)] += 1;
    }
    let mut delivered = vec![false; n_dps];
    let mut failed = vec![false; n_dps];
    let mut on_route = vec![false; n_dps];
    let mark = |flags: &mut [bool], dps: &[DeliveryPointId]| {
        for dp in dps {
            flags[dp.index()] = true;
        }
    };
    for (orig, route) in planned {
        let orig = *orig;
        let mut served: &[DeliveryPointId] = route.dps();
        if let (Some(plan), Some(rng)) = (plan, st.fault_rng.as_mut()) {
            if plan.p_no_show > 0.0 && rng.gen_range(0.0..1.0) < plan.p_no_show {
                st.worker_no_shows += 1;
                fta_obs::counter("sim.no_shows", 1);
                mark(&mut failed, route.dps());
                continue; // the worker never moves and stays idle
            }
            if plan.p_dropout > 0.0 && rng.gen_range(0.0..1.0) < plan.p_dropout {
                st.route_dropouts += 1;
                fta_obs::counter("sim.dropouts", 1);
                let stops = rng.gen_range(0..route.len());
                served = &route.dps()[..stops];
                mark(&mut failed, &route.dps()[stops..]);
            }
        }
        let dc = scenario.centers[route.center().index()].location;
        let to_dc = st.location[orig].travel_time(dc, scenario.config.speed);
        // Completed routes reuse the precomputed route time (the
        // pristine code path, bit-for-bit); truncated routes are
        // re-walked leg by leg up to the last stop served.
        let travel = if served.len() == route.len() {
            to_dc + route.travel_from_dc()
        } else {
            let mut t = to_dc;
            let mut at = dc;
            for dp in served {
                let next = scenario.delivery_points[dp.index()].location;
                t += at.travel_time(next, scenario.config.speed);
                at = next;
            }
            t
        };
        let travel = match (plan, st.fault_rng.as_mut()) {
            (Some(plan), Some(rng)) => travel * lognormal_factor(rng, plan.travel_sigma),
            _ => travel,
        };
        st.busy_until[orig] = now + travel;
        st.location[orig] = match served.last() {
            Some(dp) => scenario.delivery_points[dp.index()].location,
            // Dropped out before the first stop: stranded at the dc.
            None => dc,
        };

        let ledger = &mut st.ledgers[orig];
        ledger.earnings += if served.len() == route.len() {
            route.total_reward()
        } else {
            // A truncated route banks the rewards it delivered, summed in
            // pending order (the float summation order is part of the
            // bit-for-bit contract).
            mark(&mut on_route, served);
            let earned = st
                .pending
                .iter()
                .filter(|p| p.eligible_after <= now && on_route[dp_of(p)])
                .map(|p| p.of(scenario).reward)
                .sum();
            for dp in served {
                on_route[dp.index()] = false;
            }
            earned
        };
        ledger.busy_hours += travel;
        ledger.routes += 1;
        // A route's stops are distinct delivery points.
        ledger.tasks_delivered += served
            .iter()
            .map(|dp| eligible_at[dp.index()])
            .sum::<usize>();
        mark(&mut delivered, served);
    }
    // Delivery wins over failure at a point two routes shared.
    st.pending.retain_mut(|p| {
        if p.eligible_after > now {
            return true;
        }
        let dp = dp_of(p);
        if delivered[dp] {
            st.tasks_completed += 1;
            return false;
        }
        if failed[dp] {
            let plan = plan.expect("failed stops can only come from a fault plan");
            if p.retries >= plan.max_retries {
                st.tasks_abandoned += 1;
                fta_obs::counter("sim.abandoned", 1);
                return false;
            }
            p.retries += 1;
            p.eligible_after = now + plan.backoff;
            st.reassignments += 1;
            fta_obs::counter("sim.retries", 1);
        }
        true
    });
}

/// Runs the simulation.
///
/// Every `assignment_period` the engine ingests new arrivals, drops
/// expired tasks, snapshots the idle workers and pending tasks into an
/// [`Instance`] (task expiries become *remaining* times relative to the
/// round instant), solves it with the configured algorithm, and applies
/// the assignment: each assigned worker is busy until route completion,
/// reappears at its final delivery point, and banks the route's rewards.
///
/// ```
/// use fta_algorithms::Algorithm;
/// use fta_sim::{run, Scenario, ScenarioConfig, SimConfig};
///
/// let scenario = Scenario::generate(&ScenarioConfig::default(), 1.0, 42);
/// let metrics = run(&scenario, &SimConfig {
///     horizon: 1.0,
///     ..SimConfig::day(Algorithm::Gta)
/// });
/// assert_eq!(metrics.tasks_arrived, scenario.tasks.len());
/// assert!(metrics.completion_rate() <= 1.0);
/// ```
///
/// # Faults and budgets
///
/// With [`SimConfig::faults`] set, the engine layers a deterministic
/// adversary over the day (see [`FaultPlan`]): assigned routes may be
/// refused outright (*no-show*) or abandoned after a prefix of stops
/// (*dropout*), in which case the undelivered tasks are **requeued** with
/// a backoff window and a bounded retry count, after which they are
/// abandoned. Requesters may cancel tasks, and executed travel times may
/// be inflated log-normally (delaying the worker's return to the idle
/// pool). With [`SimConfig::budget`] set, every round's solve runs under
/// that budget and rounds that degrade are counted. Both default to off,
/// in which case this function behaves identically to the pristine
/// engine.
///
/// # Panics
///
/// Panics if the horizon or the assignment period is not positive, or if
/// the fault plan fails [`FaultPlan::validate`].
#[must_use]
pub fn run(scenario: &Scenario, config: &SimConfig) -> SimReport {
    run_inner(scenario, config, None)
}

/// Runs the simulation and appends one [`SolveRecord`] per batch
/// assignment round to `records` — the per-round solve ledger.
///
/// Each record carries the round number (1-based), the simulated instant
/// in hours, per-center causal attribution (rung, budget axis, resolve
/// path, work counters), and the fairness trajectory over *cumulative*
/// worker earnings at the end of the round, so "why did center 17 fall
/// to GTA in round 40" is answerable from the ledger file alone. The
/// [`DispatchPolicy::Immediate`] baseline runs no solver and therefore
/// writes no records.
///
/// The returned metrics are bit-identical to [`run`]: the ledger only
/// observes the day, it never influences it.
#[must_use]
pub fn run_with_ledger(
    scenario: &Scenario,
    config: &SimConfig,
    records: &mut Vec<SolveRecord>,
) -> SimReport {
    run_inner(scenario, config, Some(records))
}

impl LoopState {
    /// The loop state at the start of a pristine day.
    fn fresh(scenario: &Scenario, config: &SimConfig) -> Self {
        let n_workers = scenario.workers.len();
        Self {
            now: config.assignment_period,
            rounds: 0,
            next_arrival: 0,
            tasks_completed: 0,
            tasks_expired: 0,
            tasks_cancelled: 0,
            tasks_abandoned: 0,
            reassignments: 0,
            worker_no_shows: 0,
            route_dropouts: 0,
            degraded_rounds: 0,
            ledgers: vec![WorkerLedger::default(); n_workers],
            busy_until: vec![0.0_f64; n_workers],
            location: scenario.workers.iter().map(|w| w.location).collect(),
            pending: Vec::new(),
            fault_rng: config.faults.map(|p| StdRng::seed_from_u64(p.seed)),
            last_round: None,
        }
    }
}

/// Live journaling handle carried through the day. A mid-day append
/// failure (disk full, volume gone) must never take the day down: the
/// sink goes dead, counts the loss, and the rest of the day runs
/// unjournaled — the simulation result is unaffected by construction.
struct DurableSink {
    journal: Journal,
    crash_after_round: Option<u64>,
    dead: bool,
}

impl DurableSink {
    fn record(&mut self, round: u64, payload: &[u8]) {
        if !self.dead {
            if let Err(e) = self.journal.record(round, payload) {
                self.dead = true;
                fta_obs::counter("wal.dead", 1);
                fta_obs::ring::mark("wal-dead", None);
                eprintln!("fta-sim: journaling disabled after round {round}: {e}");
            }
        }
        if self.crash_after_round == Some(round) {
            // The crash drill models a power cut, not a clean shutdown —
            // but the frame under test must be on disk first, so the
            // drill syncs and then dies without unwinding.
            let _ = self.journal.sync();
            eprintln!("fta-sim: crash drill firing after round {round}");
            std::process::abort();
        }
    }
}

fn validate_config(config: &SimConfig) {
    assert!(
        config.horizon > 0.0 && config.assignment_period > 0.0,
        "horizon and assignment period must be positive"
    );
    if let Some(plan) = &config.faults {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
    }
}

/// The solver configuration of a batch round of `config`.
fn solve_config(config: &SimConfig, algorithm: Algorithm) -> SolveConfig {
    SolveConfig {
        vdps: config.vdps,
        parallel: config.parallel,
        budget: config.budget,
        ..SolveConfig::new(algorithm)
    }
}

fn run_inner(
    scenario: &Scenario,
    config: &SimConfig,
    ledger_sink: Option<&mut Vec<SolveRecord>>,
) -> SimReport {
    validate_config(config);
    let mut st = LoopState::fresh(scenario, config);
    let mut inc_solver: Option<Solver> = None;
    // A journal that cannot even be *created* is a configuration error
    // (unwritable directory), not a mid-day fault — fail loudly up front
    // rather than run a day the caller believes is durable.
    let mut durable = config.durable.as_ref().map(|d| {
        let fingerprint = state::fingerprint(scenario, config);
        let journal = Journal::create(&d.dir, fingerprint, d.fsync, d.snapshot_every)
            .unwrap_or_else(|e| panic!("cannot create durable journal in {:?}: {e}", d.dir));
        DurableSink {
            journal,
            crash_after_round: d.crash_after_round,
            dead: false,
        }
    });
    drive(
        scenario,
        config,
        &mut st,
        &mut inc_solver,
        ledger_sink,
        durable.as_mut(),
    )
}

/// The event loop itself, shared by fresh runs and recovered runs: drives
/// `st` from wherever it stands to the horizon and settles the metrics.
fn drive(
    scenario: &Scenario,
    config: &SimConfig,
    st: &mut LoopState,
    inc_solver: &mut Option<Solver>,
    mut ledger_sink: Option<&mut Vec<SolveRecord>>,
    mut durable: Option<&mut DurableSink>,
) -> SimReport {
    let n_workers = scenario.workers.len();
    let plan = config.faults;
    let mut skipped_centers = BTreeSet::<CenterId>::new();
    while st.now <= config.horizon + 1e-12 {
        let now = st.now;
        // Ingest arrivals up to this round.
        while st.next_arrival < scenario.tasks.len()
            && scenario.tasks[st.next_arrival].arrival <= now
        {
            let entry = make_pending(
                scenario,
                st.next_arrival,
                plan.as_ref(),
                st.fault_rng.as_mut(),
            );
            st.pending.push(entry);
            st.next_arrival += 1;
        }
        // Requester cancellations fire before the expiry sweep (a task
        // cancelled before its deadline counts as cancelled, not expired).
        st.pending.retain(|p| {
            if p.cancel_at.is_some_and(|c| c <= now) {
                st.tasks_cancelled += 1;
                fta_obs::counter("sim.cancelled", 1);
                false
            } else {
                true
            }
        });
        // Drop tasks that expired while waiting.
        st.pending.retain(|p| {
            if p.of(scenario).deadline <= now {
                st.tasks_expired += 1;
                false
            } else {
                true
            }
        });

        // Backlog peak is a property of every tick, not just the ticks
        // that run an assignment round, and it must include tasks hidden
        // by retry backoff — record it before any eligibility filtering.
        fta_obs::gauge_max("sim.pending_peak", st.pending.len() as u64);

        // Snapshot idle workers and backoff-eligible pending tasks.
        let idle: Vec<usize> = (0..n_workers)
            .filter(|&w| st.busy_until[w] <= now)
            .collect();
        let any_eligible = st.pending.iter().any(|p| p.eligible_after <= now);
        if !idle.is_empty() && any_eligible {
            st.rounds += 1;
            let _tick_span = fta_obs::span("sim.tick");
            fta_obs::counter("sim.rounds", 1);
            let (instance, snapshot_tasks) = {
                let _span = fta_obs::span("sim.snapshot");
                let tasks: Vec<u32> = st
                    .pending
                    .iter()
                    .filter(|p| p.eligible_after <= now)
                    .map(|p| p.task)
                    .collect();
                let workers = idle.iter().map(|&w| (w, st.location[w]));
                let instance = round_instance(scenario, workers, &tasks, now)
                    .expect("snapshots preserve all instance invariants");
                (instance, tasks)
            };

            // Plan routes: (original worker index, route) pairs. The
            // timer feeds the per-tick assignment latency histogram
            // (both dispatch policies, so they can be compared).
            // A batch round additionally stages its ledger record here;
            // the fairness block is filled in after the routes are
            // applied, when this round's earnings have been banked. A
            // durable round stages the same record so recovery can
            // re-materialise the ledger from the journal alone.
            let mut round_record: Option<SolveRecord> = None;
            let planned: Vec<(usize, Arc<Route>)> = {
                let _assign_timer = fta_obs::hist_timer("sim.assign_nanos");
                match config.policy {
                    DispatchPolicy::Batch(algorithm) => {
                        let solve_config = solve_config(config, algorithm);
                        let outcome = if config.incremental {
                            let churn = {
                                let _span = fta_obs::span("sim.churn");
                                let shape = RoundShape::of(scenario, &idle, &instance, now);
                                let churn = churn_between(st.last_round.as_ref(), &shape, &idle);
                                st.last_round = Some(shape);
                                churn
                            };
                            inc_solver
                                .get_or_insert_with(|| Solver::new(solve_config))
                                .resolve(&instance, &churn)
                        } else {
                            solve(&instance, &solve_config)
                        };
                        debug_assert!(outcome.assignment.validate(&instance).is_ok());
                        if outcome.is_degraded() {
                            st.degraded_rounds += 1;
                            fta_obs::counter("sim.degraded_rounds", 1);
                        }
                        skipped_centers.extend(
                            outcome
                                .rungs
                                .iter()
                                .filter(|&&(_, rung)| rung == LadderRung::Skipped)
                                .map(|&(center, _)| center),
                        );
                        if ledger_sink.is_some() || durable.is_some() {
                            round_record = Some(SolveRecord {
                                round: Some(st.rounds as u64),
                                sim_hours: Some(now),
                                algo: algorithm.name().to_string(),
                                engine: if config.incremental {
                                    "incremental".to_string()
                                } else {
                                    "batch".to_string()
                                },
                                degraded: outcome.is_degraded(),
                                budget_exhausted: outcome.degradation.budget_exhausted(),
                                centers: fta_algorithms::ledger::center_records(&outcome),
                                // Placeholder; replaced with the
                                // end-of-round cumulative distribution.
                                fairness: fta_algorithms::ledger::fairness_from_incomes(&[]),
                            });
                        }
                        outcome
                            .assignment
                            .iter_shared()
                            .map(|(w, route)| (idle[w.index()], route))
                            .collect()
                    }
                    DispatchPolicy::Immediate => plan_immediate(&instance, &idle),
                }
            };

            apply_routes(scenario, plan.as_ref(), st, &planned);
            let record = round_record.map(|mut record| {
                let _span = fta_obs::span("sim.fairness");
                let incomes: Vec<f64> = st.ledgers.iter().map(|l| l.earnings).collect();
                record.fairness = fta_algorithms::ledger::fairness_from_incomes(&incomes);
                record
            });
            // Journal the round *after* everything above settled: the
            // frame is a pure function of state the simulation computed
            // anyway, so durability observes the day without perturbing
            // it. Ticks between journaled rounds are deterministic given
            // this state (the fault-RNG stream is part of it), which is
            // why journaling only at solve rounds still recovers
            // bit-for-bit.
            if let Some(sink) = durable.as_deref_mut() {
                let payload = {
                    let _span = fta_obs::span("durable.encode");
                    let cache = inc_solver.as_ref().and_then(Solver::cache_seed);
                    let solver_seed = cache.as_ref().map(|cache| state::SeedRef {
                        idle: &idle,
                        instance: &instance,
                        tasks: &snapshot_tasks,
                        cache,
                    });
                    state::encode_frame(st.rounds as u64, st, solver_seed, record.as_ref())
                };
                sink.record(st.rounds as u64, &payload);
            }
            if let (Some(record), Some(records)) = (record, ledger_sink.as_deref_mut()) {
                records.push(record);
            }
        }
        st.now += config.assignment_period;
    }

    // Arrivals after the final assignment round were never snapshotted;
    // ingest them so the end-of-horizon accounting covers every task.
    while st.next_arrival < scenario.tasks.len() {
        let entry = make_pending(
            scenario,
            st.next_arrival,
            plan.as_ref(),
            st.fault_rng.as_mut(),
        );
        st.pending.push(entry);
        st.next_arrival += 1;
    }

    // Cancellation fires first, then anything past its deadline at the
    // horizon is lost; the rest pends.
    let mut tasks_pending = 0usize;
    for p in &st.pending {
        if p.cancel_at.is_some_and(|c| c <= config.horizon) {
            st.tasks_cancelled += 1;
        } else if p.of(scenario).deadline <= config.horizon {
            st.tasks_expired += 1;
        } else {
            tasks_pending += 1;
        }
    }

    DayMetrics {
        ledgers: std::mem::take(&mut st.ledgers),
        tasks_arrived: st.next_arrival,
        tasks_completed: st.tasks_completed,
        tasks_expired: st.tasks_expired,
        tasks_pending,
        tasks_cancelled: st.tasks_cancelled,
        tasks_abandoned: st.tasks_abandoned,
        reassignments: st.reassignments,
        worker_no_shows: st.worker_no_shows,
        route_dropouts: st.route_dropouts,
        degraded_rounds: st.degraded_rounds,
        skipped_centers: skipped_centers.into_iter().collect(),
        rounds: st.rounds,
        horizon: config.horizon,
    }
}

/// What [`restore`] reconstructed, alongside the finished day's metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// The journaled round the day resumed after (1-based).
    pub resumed_round: u64,
    /// Round of the snapshot that participated in recovery, if any.
    pub snapshot_round: Option<u64>,
    /// Clean log frames found after the snapshot.
    pub frames: usize,
    /// True when the log ended mid-frame (crash signature); the torn
    /// round is re-simulated, not lost.
    pub torn_tail: bool,
    /// True when the incremental solver's warm caches were re-hydrated
    /// from the journal (incremental batch runs only).
    pub cache_rehydrated: bool,
    /// Ledger records re-staged from the journal into the caller's sink.
    pub replayed_records: usize,
}

/// Resumes a crashed day from its durable directory and runs it to the
/// horizon. See [`restore_with_ledger`] for the semantics.
///
/// # Errors
///
/// Fails typed (never panics on bad bytes) when the directory holds no
/// recoverable state, belongs to a different scenario/config
/// (fingerprint mismatch), or is structurally corrupt.
///
/// # Panics
///
/// Panics if `config.durable` is `None`, the horizon or period is not
/// positive, or the fault plan fails validation — the same configuration
/// contract as [`run`].
pub fn restore(
    scenario: &Scenario,
    config: &SimConfig,
) -> Result<(SimReport, RecoveryInfo), DurableError> {
    restore_inner(scenario, config, None)
}

/// [`restore`], additionally re-staging the journaled per-round ledger
/// records into `records` before appending the resumed rounds — so the
/// recovered day's ledger is continuous from round 1 (minus any rounds
/// truncated by an earlier snapshot, which bound the log's history).
///
/// The resumed day is **bit-for-bit identical** to the uninterrupted run:
/// every journaled frame carries the complete loop state (including the
/// fault-RNG stream position and, on incremental runs, the solver's
/// cache seed), so there is no divergent replay path. The crash costs at
/// most the torn final round, which is re-simulated deterministically.
///
/// # Errors
///
/// See [`restore`].
pub fn restore_with_ledger(
    scenario: &Scenario,
    config: &SimConfig,
    records: &mut Vec<SolveRecord>,
) -> Result<(SimReport, RecoveryInfo), DurableError> {
    restore_inner(scenario, config, Some(records))
}

fn restore_inner(
    scenario: &Scenario,
    config: &SimConfig,
    mut ledger_sink: Option<&mut Vec<SolveRecord>>,
) -> Result<(SimReport, RecoveryInfo), DurableError> {
    validate_config(config);
    let d = config
        .durable
        .as_ref()
        .expect("restore requires SimConfig::durable");
    let fingerprint = state::fingerprint(scenario, config);
    // Decode every surviving recovery point and order by round: a crash
    // between a snapshot's rename and the log truncate leaves log frames
    // older than the snapshot (a snapshot round appends no frame), which
    // must not regress the resume point or duplicate replayed ledger
    // records.
    let (mut rec, mut decoded, frames_after_snapshot) = {
        let _span = fta_obs::span("durable.recover");
        let rec = fta_durable::recover(&d.dir, Some(fingerprint))?;
        let snapshot_round = rec.snapshot.as_ref().map(|s| s.round);
        let mut decoded: Vec<state::DecodedFrame> = Vec::new();
        if let Some(snap) = &rec.snapshot {
            decoded.push(state::decode_frame(&snap.payload)?);
        }
        let mut frames_after_snapshot = 0;
        for frame in &rec.frames {
            let frame = state::decode_frame(frame)?;
            frames_after_snapshot += usize::from(snapshot_round.is_none_or(|s| frame.round > s));
            decoded.push(frame);
        }
        decoded.sort_by_key(|f| f.round);
        decoded.dedup_by_key(|f| f.round);
        (rec, decoded, frames_after_snapshot)
    };
    if frames_after_snapshot == 0 && rec.snapshot.is_some() && !rec.frames.is_empty() {
        // Every log frame predates the snapshot: finish the interrupted
        // truncate, so the resumed journal starts an empty log.
        rec.frames.clear();
        rec.log_valid_len = fta_durable::log::WAL_HEADER_LEN;
    }

    let mut replayed_records = 0usize;
    if let Some(records) = ledger_sink.as_deref_mut() {
        for record in decoded.iter_mut().filter_map(|f| f.record.take()) {
            records.push(record);
            replayed_records += 1;
        }
    }

    let newest = decoded.pop().ok_or(DurableError::NoState)?;
    let solved_instance = newest.resolve(scenario)?;
    let state::DecodedFrame {
        round: resumed_round,
        state: mut st,
        solver: solver_seed,
        ..
    } = newest;

    // Re-hydrate the incremental solver's warm caches so the resumed
    // rounds take the same (17× faster, and for iterative games
    // differently-converged) warm path the uninterrupted day would have.
    let mut inc_solver: Option<Solver> = None;
    let mut cache_rehydrated = false;
    if config.incremental {
        if let (DispatchPolicy::Batch(algorithm), Some(seed), Some(instance)) =
            (config.policy, &solver_seed, &solved_instance)
        {
            let mut solver = Solver::new(solve_config(config, algorithm));
            cache_rehydrated = solver.rehydrate(instance, &seed.worker_keys, &seed.cache);
            if cache_rehydrated {
                inc_solver = Some(solver);
            }
        }
    }

    let info = RecoveryInfo {
        resumed_round,
        snapshot_round: rec.snapshot.as_ref().map(|s| s.round),
        frames: frames_after_snapshot,
        torn_tail: rec.torn_tail,
        cache_rehydrated,
        replayed_records,
    };

    // The journaled frame closes its round; the day resumes at the next
    // tick, with journaling continuing into the same directory (a torn
    // tail is overwritten in place).
    st.now += config.assignment_period;
    let journal = Journal::resume(&d.dir, fingerprint, d.fsync, d.snapshot_every, &rec)?;
    let mut durable = DurableSink {
        journal,
        crash_after_round: d.crash_after_round,
        dead: false,
    };
    let report = drive(
        scenario,
        config,
        &mut st,
        &mut inc_solver,
        ledger_sink,
        Some(&mut durable),
    );
    Ok((report, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use fta_algorithms::{FgtConfig, IegtConfig};

    fn small_scenario(seed: u64) -> Scenario {
        Scenario::generate(
            &ScenarioConfig {
                n_workers: 8,
                n_delivery_points: 20,
                extent: 3.0,
                arrival_rate: 60.0,
                ..ScenarioConfig::default()
            },
            2.0,
            seed,
        )
    }

    fn config(algorithm: Algorithm) -> SimConfig {
        SimConfig {
            horizon: 2.0,
            assignment_period: 0.25,
            vdps: VdpsConfig::pruned(1.5, 3),
            ..SimConfig::day(algorithm)
        }
    }

    #[test]
    fn task_accounting_is_conserved() {
        let scenario = small_scenario(1);
        let m = run(&scenario, &config(Algorithm::Gta));
        assert_eq!(m.tasks_arrived, scenario.tasks.len());
        let delivered: usize = m.ledgers.iter().map(|l| l.tasks_delivered).sum();
        assert_eq!(delivered, m.tasks_completed);
        assert_eq!(
            m.tasks_completed + m.tasks_expired + m.tasks_pending,
            m.tasks_arrived,
            "tasks must be completed, expired, or pending"
        );
    }

    #[test]
    fn some_tasks_are_completed_under_reasonable_load() {
        let m = run(&small_scenario(2), &config(Algorithm::Gta));
        assert!(m.tasks_completed > 0, "no tasks delivered at all");
        assert!(m.rounds > 0);
        assert!(m.completion_rate() > 0.0);
    }

    #[test]
    fn earnings_match_route_rewards() {
        let m = run(&small_scenario(3), &config(Algorithm::Gta));
        let total_earned: f64 = m.ledgers.iter().map(|l| l.earnings).sum();
        // Unit rewards: total earnings equal delivered task count.
        assert!((total_earned - m.tasks_completed as f64).abs() < 1e-9);
    }

    #[test]
    fn busy_workers_are_not_double_assigned() {
        // With a long period and slow workers, utilisation must stay ≤ 1
        // plus at most one overhanging route.
        let m = run(&small_scenario(4), &config(Algorithm::Gta));
        for (i, l) in m.ledgers.iter().enumerate() {
            assert!(
                l.busy_hours <= m.horizon + 3.0,
                "worker {i} busy {} h in a {} h day",
                l.busy_hours,
                m.horizon
            );
        }
    }

    #[test]
    fn period_longer_than_horizon_runs_no_rounds() {
        let scenario = small_scenario(7);
        let mut cfg = config(Algorithm::Gta);
        cfg.assignment_period = 10.0; // > 2 h horizon
        let m = run(&scenario, &cfg);
        assert_eq!(m.rounds, 0);
        assert_eq!(m.tasks_completed, 0);
        // Every task is either expired or pending at the horizon.
        assert_eq!(m.tasks_expired + m.tasks_pending, m.tasks_arrived);
    }

    #[test]
    fn deterministic_per_seed_and_config() {
        let scenario = small_scenario(5);
        let a = run(&scenario, &config(Algorithm::Gta));
        let b = run(&scenario, &config(Algorithm::Gta));
        assert_eq!(a, b);
    }

    #[test]
    fn immediate_dispatch_conserves_tasks_and_is_single_stop() {
        let scenario = small_scenario(6);
        let mut cfg = config(Algorithm::Gta);
        cfg.policy = DispatchPolicy::Immediate;
        let m = run(&scenario, &cfg);
        assert_eq!(
            m.tasks_completed + m.tasks_expired + m.tasks_pending,
            m.tasks_arrived
        );
        // Single-stop routes: each completed route delivers exactly the
        // pending tasks of one delivery point, so routes ≥ ... at least
        // every delivering worker has routes ≥ 1.
        for l in &m.ledgers {
            if l.tasks_delivered > 0 {
                assert!(l.routes > 0);
            }
        }
        assert!(
            m.tasks_completed > 0,
            "immediate dispatch delivered nothing"
        );
    }

    #[test]
    fn incremental_gta_day_is_bit_identical_to_cold() {
        // GTA is deterministic and single-attempt, and the delta-updated
        // pools are bit-identical to regeneration, so the incremental day
        // must reproduce the cold day exactly — round by round.
        let scenario = small_scenario(20);
        let cold = run(&scenario, &config(Algorithm::Gta));
        let warm = run(&scenario, &config(Algorithm::Gta).with_incremental());
        assert_eq!(cold, warm);
    }

    #[test]
    fn incremental_iterative_day_is_valid_and_deterministic() {
        let scenario = small_scenario(21);
        let cfg = config(Algorithm::Iegt(IegtConfig::default())).with_incremental();
        let a = run(&scenario, &cfg);
        let b = run(&scenario, &cfg);
        assert_eq!(a, b, "incremental runs must be reproducible");
        assert!(a.is_conserved(), "accounting broken: {a:?}");
        assert!(a.tasks_completed > 0, "incremental day delivered nothing");
    }

    #[test]
    fn incremental_with_budget_still_conserves() {
        // A budget disables caching inside the solver; the incremental
        // flag must degrade gracefully to per-round cold solves.
        use fta_core::SolveBudget;
        let scenario = small_scenario(22);
        let cfg = config(Algorithm::Gta)
            .with_budget(SolveBudget::wall_ms(0))
            .with_incremental();
        let m = run(&scenario, &cfg);
        assert!(m.is_conserved(), "accounting broken: {m:?}");
        assert_eq!(m.degraded_rounds, m.rounds);
    }

    #[test]
    fn churn_between_reports_arrivals_departures_and_age() {
        let prev = RoundShape {
            now: 1.0,
            center_workers: vec![vec![0, 1], vec![4]],
            center_tasks: vec![5, 2],
        };
        let cur = RoundShape {
            now: 1.25,
            center_workers: vec![vec![1, 2], vec![]],
            center_tasks: vec![3, 6],
        };
        let churn = churn_between(Some(&prev), &cur, &[1, 2]);
        assert!((churn.age - 0.25).abs() < 1e-12);
        assert_eq!(churn.worker_keys, vec![1, 2]);
        assert_eq!(churn.per_center[0].arrived_workers, 1); // worker 2
        assert_eq!(churn.per_center[0].departed_workers, 1); // worker 0
        assert_eq!(churn.per_center[0].removed_tasks, 2);
        assert_eq!(churn.per_center[1].added_tasks, 4);
        assert_eq!(churn.per_center[1].departed_workers, 1);
        // First round: no previous shape, empty diagnostics.
        let first = churn_between(None, &cur, &[1, 2]);
        assert_eq!(first.age, 0.0);
        assert!(first.per_center.is_empty());
    }

    #[test]
    fn ledgered_run_matches_plain_run_and_records_every_round() {
        let scenario = small_scenario(40);
        let cfg = config(Algorithm::Gta);
        let plain = run(&scenario, &cfg);
        let mut records = Vec::new();
        let ledgered = run_with_ledger(&scenario, &cfg, &mut records);
        assert_eq!(plain, ledgered, "the ledger must only observe the day");
        assert_eq!(records.len(), ledgered.rounds);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.round, Some(i as u64 + 1));
            assert!(r.sim_hours.is_some_and(|h| h > 0.0));
            assert_eq!(r.algo, "GTA");
            assert_eq!(r.engine, "batch");
            assert_eq!(r.fairness.incomes.len(), scenario.workers.len());
            assert!(!r.centers.is_empty());
        }
        // Cumulative incomes: the final record's distribution is the
        // day-end earnings vector.
        let last = records.last().expect("at least one round ran");
        let earnings: Vec<f64> = ledgered.ledgers.iter().map(|l| l.earnings).collect();
        assert_eq!(last.fairness.incomes, earnings);
        // The records survive the ledger container's serialization.
        let ledger = fta_obs::ledger::Ledger {
            label: "sim-test".to_string(),
            created_unix_ms: 0,
            records,
        };
        let parsed =
            fta_obs::ledger::parse(&fta_obs::ledger::to_jsonl(&ledger)).expect("ledger parses");
        assert_eq!(parsed.records.len(), ledgered.rounds);
    }

    #[test]
    fn faulted_budgeted_ledger_attributes_degradation() {
        use fta_core::SolveBudget;
        let scenario = small_scenario(41);
        let cfg = config(Algorithm::Gta)
            .with_budget(SolveBudget::wall_ms(0))
            .with_faults(FaultPlan::stress(9));
        let mut records = Vec::new();
        let m = run_with_ledger(&scenario, &cfg, &mut records);
        assert_eq!(records.len(), m.rounds);
        assert!(records.iter().all(|r| r.degraded && r.budget_exhausted));
        for r in &records {
            let degraded_center = r
                .centers
                .iter()
                .find(|c| c.rung != "full")
                .expect("0 ms budget degrades every round");
            assert_eq!(degraded_center.budget_axis.as_deref(), Some("wall_ms"));
        }
    }

    // ---- apply: the linear pass against the retired scan-based oracle ----

    /// The retired apply step: every route rescans the pending queue for
    /// its manifest, and the delivered/failed passes test membership with
    /// `Vec::contains`. Kept as the oracle [`apply_routes`] must match
    /// bit for bit.
    fn apply_routes_scan(
        scenario: &Scenario,
        plan: Option<&FaultPlan>,
        st: &mut LoopState,
        planned: &[(usize, Arc<Route>)],
    ) {
        let now = st.now;
        let mut delivered_dps: Vec<DeliveryPointId> = Vec::new();
        let mut failed_dps: Vec<DeliveryPointId> = Vec::new();
        for (orig, route) in planned {
            let orig = *orig;
            let mut served: &[DeliveryPointId] = route.dps();
            if let (Some(plan), Some(rng)) = (plan, st.fault_rng.as_mut()) {
                if plan.p_no_show > 0.0 && rng.gen_range(0.0..1.0) < plan.p_no_show {
                    st.worker_no_shows += 1;
                    failed_dps.extend_from_slice(route.dps());
                    continue;
                }
                if plan.p_dropout > 0.0 && rng.gen_range(0.0..1.0) < plan.p_dropout {
                    st.route_dropouts += 1;
                    let stops = rng.gen_range(0..route.len());
                    served = &route.dps()[..stops];
                    failed_dps.extend_from_slice(&route.dps()[stops..]);
                }
            }
            let dc = scenario.centers[route.center().index()].location;
            let to_dc = st.location[orig].travel_time(dc, scenario.config.speed);
            let travel = if served.len() == route.len() {
                to_dc + route.travel_from_dc()
            } else {
                let mut t = to_dc;
                let mut at = dc;
                for dp in served {
                    let next = scenario.delivery_points[dp.index()].location;
                    t += at.travel_time(next, scenario.config.speed);
                    at = next;
                }
                t
            };
            let travel = match (plan, st.fault_rng.as_mut()) {
                (Some(plan), Some(rng)) => travel * lognormal_factor(rng, plan.travel_sigma),
                _ => travel,
            };
            st.busy_until[orig] = now + travel;
            st.location[orig] = match served.last() {
                Some(dp) => scenario.delivery_points[dp.index()].location,
                None => dc,
            };
            let on_manifest = |p: &Pending| {
                p.eligible_after <= now && served.contains(&p.of(scenario).delivery_point)
            };
            let ledger = &mut st.ledgers[orig];
            ledger.earnings += if served.len() == route.len() {
                route.total_reward()
            } else {
                st.pending
                    .iter()
                    .filter(|p| on_manifest(p))
                    .map(|p| p.of(scenario).reward)
                    .sum()
            };
            ledger.busy_hours += travel;
            ledger.routes += 1;
            ledger.tasks_delivered += st.pending.iter().filter(|p| on_manifest(p)).count();
            delivered_dps.extend_from_slice(served);
        }
        if !delivered_dps.is_empty() {
            let before = st.pending.len();
            st.pending.retain(|p| {
                !(p.eligible_after <= now && delivered_dps.contains(&p.of(scenario).delivery_point))
            });
            st.tasks_completed += before - st.pending.len();
        }
        if !failed_dps.is_empty() {
            let plan = plan.expect("failed stops can only come from a fault plan");
            st.pending.retain_mut(|p| {
                if p.eligible_after <= now && failed_dps.contains(&p.of(scenario).delivery_point) {
                    if p.retries >= plan.max_retries {
                        st.tasks_abandoned += 1;
                        return false;
                    }
                    p.retries += 1;
                    p.eligible_after = now + plan.backoff;
                    st.reassignments += 1;
                }
                true
            });
        }
    }

    /// Planned routes: (scenario worker index, route).
    type Planned = Vec<(usize, Arc<Route>)>;

    /// A mid-day round drawn from `seed`: a two-center scenario, a random
    /// pending queue (some tasks in retry backoff), random single-center
    /// routes for distinct workers (occasionally sharing a delivery point
    /// across routes), and an optional fault plan. Deterministic per seed,
    /// so the oracle and the linear pass each get an identical copy.
    fn random_round(seed: u64) -> (Scenario, Option<FaultPlan>, LoopState, Planned) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = Scenario::generate(
            &ScenarioConfig {
                n_centers: 2,
                n_workers: 10,
                n_delivery_points: 16,
                extent: 3.0,
                arrival_rate: 80.0,
                max_dp: 4,
                ..ScenarioConfig::default()
            },
            2.0,
            seed,
        );
        let plan = rng.gen_bool(0.8).then(|| FaultPlan {
            seed,
            p_no_show: rng.gen_range(0.0..0.5),
            p_dropout: rng.gen_range(0.0..0.6),
            p_cancel: 0.0,
            travel_sigma: if rng.gen_bool(0.5) { 0.2 } else { 0.0 },
            max_retries: rng.gen_range(0..3),
            backoff: rng.gen_range(0.0..0.5),
        });
        let config = SimConfig {
            faults: plan,
            ..SimConfig::day(Algorithm::Gta)
        };
        let mut st = LoopState::fresh(&scenario, &config);
        st.now = rng.gen_range(0.5..1.5);
        let now = st.now;
        for (i, t) in scenario.tasks.iter().enumerate() {
            if t.arrival <= now && t.deadline > now && rng.gen_bool(0.8) {
                let mut p = make_pending(&scenario, i, None, None);
                p.retries = rng.gen_range(0..3);
                if rng.gen_bool(0.15) {
                    p.eligible_after = now + 0.1;
                }
                st.pending.push(p);
            }
        }
        for l in &mut st.ledgers {
            l.earnings = rng.gen_range(0.0..10.0);
        }
        let eligible: Vec<u32> = st
            .pending
            .iter()
            .filter(|p| p.eligible_after <= now)
            .map(|p| p.task)
            .collect();
        let workers = scenario.workers.iter().map(|w| (w.id.index(), w.location));
        let instance = round_instance(&scenario, workers, &eligible, now).unwrap();
        let aggs = instance.dp_aggregates();
        let mut taken = vec![false; scenario.delivery_points.len()];
        let mut planned = Vec::new();
        for worker in 0..scenario.workers.len() {
            if rng.gen_bool(0.3) {
                continue;
            }
            let center = scenario.workers[worker].center;
            let mut dps: Vec<DeliveryPointId> = scenario
                .delivery_points
                .iter()
                .filter(|dp| dp.center == center && (!taken[dp.id.index()] || rng.gen_bool(0.1)))
                .map(|dp| dp.id)
                .collect();
            // A random order, then a random prefix of up to four stops.
            for i in (1..dps.len()).rev() {
                dps.swap(i, rng.gen_range(0..=i));
            }
            dps.truncate(rng.gen_range(1..=4));
            if dps.is_empty() {
                continue;
            }
            for dp in &dps {
                taken[dp.index()] = true;
            }
            let route = Route::build(&instance, &aggs, center, dps).unwrap();
            planned.push((worker, Arc::new(route)));
        }
        (scenario, plan, st, planned)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        #[test]
        fn linear_apply_matches_scan_oracle_bit_for_bit(seed in 0u64..u64::MAX) {
            let (scenario, plan, mut fast, planned) = random_round(seed);
            let (_, _, mut slow, _) = random_round(seed);
            apply_routes(&scenario, plan.as_ref(), &mut fast, &planned);
            apply_routes_scan(&scenario, plan.as_ref(), &mut slow, &planned);
            // The encoded frame covers every field of the loop state,
            // floats as bit patterns and the fault-RNG stream position.
            proptest::prop_assert!(
                state::encode_frame(1, &fast, None, None) == state::encode_frame(1, &slow, None, None),
                "seed {seed}: linear apply diverged from the scan oracle"
            );
        }
    }

    #[test]
    fn apply_oracle_cases_reach_every_fault_path() {
        // The proptest above is only as strong as the paths its rounds
        // take: over a seed range, routes must be refused and dropped, and
        // failed tasks both requeued and abandoned.
        let (mut no_shows, mut dropouts, mut retries, mut abandoned, mut completed) =
            (0, 0, 0, 0, 0);
        for seed in 0..300u64 {
            let (scenario, plan, mut st, planned) = random_round(seed);
            apply_routes(&scenario, plan.as_ref(), &mut st, &planned);
            no_shows += st.worker_no_shows;
            dropouts += st.route_dropouts;
            retries += st.reassignments;
            abandoned += st.tasks_abandoned;
            completed += st.tasks_completed;
        }
        for (what, n) in [
            ("no-shows", no_shows),
            ("dropouts", dropouts),
            ("retries", retries),
            ("abandoned", abandoned),
            ("completed", completed),
        ] {
            assert!(n > 0, "no {what} across the oracle's rounds");
        }
    }

    #[test]
    fn fault_plan_is_deterministic_per_seed() {
        let scenario = small_scenario(11);
        let cfg = config(Algorithm::Gta).with_faults(FaultPlan::stress(77));
        let a = run(&scenario, &cfg);
        let b = run(&scenario, &cfg);
        assert_eq!(a, b, "same fault seed must reproduce the same day");
        let c = run(
            &scenario,
            &config(Algorithm::Gta).with_faults(FaultPlan::stress(78)),
        );
        assert_ne!(a, c, "different fault seeds should diverge");
    }

    #[test]
    fn zero_rate_fault_plan_changes_nothing() {
        let scenario = small_scenario(12);
        let pristine = run(&scenario, &config(Algorithm::Gta));
        let with_inert_plan = run(
            &scenario,
            &config(Algorithm::Gta).with_faults(FaultPlan::none(123)),
        );
        assert_eq!(pristine, with_inert_plan);
    }

    #[test]
    fn faults_conserve_task_accounting() {
        let scenario = small_scenario(13);
        let m = run(
            &scenario,
            &config(Algorithm::Gta).with_faults(FaultPlan::stress(5)),
        );
        assert!(m.is_conserved(), "accounting broken: {m:?}");
        assert!(
            m.worker_no_shows + m.route_dropouts > 0,
            "stress plan injected no route faults over a 2 h day"
        );
        assert!(
            m.reassignments + m.tasks_abandoned > 0,
            "route faults produced neither requeues nor abandonments"
        );
        let delivered: usize = m.ledgers.iter().map(|l| l.tasks_delivered).sum();
        assert_eq!(delivered, m.tasks_completed);
    }

    #[test]
    fn zero_retry_budget_abandons_on_first_failure() {
        let scenario = small_scenario(14);
        let plan = FaultPlan {
            p_no_show: 1.0, // every route fails before starting
            max_retries: 0, // and every failure abandons its tasks
            ..FaultPlan::none(3)
        };
        let m = run(&scenario, &config(Algorithm::Gta).with_faults(plan));
        assert_eq!(m.tasks_completed, 0, "no route ever starts");
        assert_eq!(m.reassignments, 0, "zero retry budget forbids requeues");
        assert!(m.tasks_abandoned > 0);
        assert!(m.worker_no_shows > 0);
        assert!(m.is_conserved());
        // No-show workers never move or accrue hours.
        for l in &m.ledgers {
            assert_eq!(l.tasks_delivered, 0);
            assert!(l.busy_hours == 0.0);
        }
    }

    #[test]
    fn retries_requeue_before_abandoning() {
        let scenario = small_scenario(15);
        let plan = FaultPlan {
            p_no_show: 1.0,
            max_retries: 2,
            backoff: 0.25,
            ..FaultPlan::none(3)
        };
        let m = run(&scenario, &config(Algorithm::Gta).with_faults(plan));
        assert_eq!(m.tasks_completed, 0);
        assert!(m.reassignments > 0, "with retries left, failures requeue");
        assert!(m.is_conserved());
    }

    #[test]
    fn cancellations_remove_tasks_before_dispatch() {
        let scenario = small_scenario(16);
        let plan = FaultPlan {
            p_cancel: 1.0, // every task is cancelled some time before its deadline
            ..FaultPlan::none(4)
        };
        let m = run(&scenario, &config(Algorithm::Gta).with_faults(plan));
        assert!(m.tasks_cancelled > 0);
        assert!(m.is_conserved());
    }

    #[test]
    fn budgeted_rounds_degrade_and_stay_deterministic() {
        use fta_core::SolveBudget;
        let scenario = small_scenario(17);
        let cfg =
            config(Algorithm::Iegt(IegtConfig::default())).with_budget(SolveBudget::wall_ms(0));
        let a = run(&scenario, &cfg);
        let b = run(&scenario, &cfg);
        assert_eq!(
            a, b,
            "an already-expired deadline degrades deterministically"
        );
        assert!(a.rounds > 0);
        assert_eq!(
            a.degraded_rounds, a.rounds,
            "every budgeted round should fall to the bottom rung"
        );
        assert!(a.is_conserved());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_fault_plan_is_rejected() {
        let scenario = small_scenario(18);
        let plan = FaultPlan {
            p_no_show: 2.0,
            ..FaultPlan::none(0)
        };
        let _ = run(&scenario, &config(Algorithm::Gta).with_faults(plan));
    }

    // ---- durability: journaling, crash recovery, bit-for-bit resume ----

    use std::fs;
    use std::path::{Path, PathBuf};

    fn durable_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fta-sim-durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// One journaled day with no snapshot truncation, so the wal holds
    /// every frame — the raw material for simulated crashes.
    fn journaled_config(algorithm: Algorithm, dir: &Path) -> SimConfig {
        config(algorithm).with_durable(DurableConfig {
            dir: dir.to_path_buf(),
            fsync: fta_durable::FsyncPolicy::Never,
            snapshot_every: u64::MAX,
            crash_after_round: None,
        })
    }

    /// Byte offset of the end of the first `frames` clean wal frames.
    fn wal_prefix_len(dir: &Path, frames: usize) -> u64 {
        let log = fta_durable::read_log(&dir.join(fta_durable::WAL_FILE)).unwrap();
        assert!(
            frames <= log.frames.len(),
            "day ran fewer rounds than asked"
        );
        let mut off = fta_durable::log::WAL_HEADER_LEN;
        for f in log.frames.iter().take(frames) {
            off += (fta_durable::log::FRAME_HEADER_LEN + f.len()) as u64;
        }
        off
    }

    /// Clones a journaled directory and truncates its wal to `len` bytes,
    /// reproducing the on-disk state a crash at that point leaves behind.
    fn crashed_copy(src: &Path, name: &str, len: u64) -> PathBuf {
        let dst = durable_dir(name);
        fs::create_dir_all(&dst).unwrap();
        for entry in fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
        fs::OpenOptions::new()
            .write(true)
            .open(dst.join(fta_durable::WAL_FILE))
            .unwrap()
            .set_len(len)
            .unwrap();
        dst
    }

    #[test]
    fn durable_run_is_bit_identical_to_plain_run() {
        // Journaling must only observe the day: every DayMetrics field and
        // every ledger record is unchanged by it, faults and all.
        let scenario = small_scenario(50);
        let cfg = config(Algorithm::Gta).with_faults(FaultPlan::stress(7));
        let mut plain_records = Vec::new();
        let plain = run_with_ledger(&scenario, &cfg, &mut plain_records);

        let dir = durable_dir("observe-only");
        let durable_cfg = journaled_config(Algorithm::Gta, &dir).with_faults(FaultPlan::stress(7));
        let mut durable_records = Vec::new();
        let journaled = run_with_ledger(&scenario, &durable_cfg, &mut durable_records);

        assert_eq!(plain, journaled, "journaling perturbed the day");
        assert_eq!(plain_records.len(), durable_records.len());
        for (a, b) in plain_records.iter().zip(&durable_records) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.fairness.incomes, b.fairness.incomes);
            assert_eq!(a.degraded, b.degraded);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_is_bit_identical_at_every_crash_round() {
        // Crash after each journaled round in turn; every recovery must
        // finish the day bit-for-bit equal to the uninterrupted run.
        let scenario = small_scenario(51);
        let dir = durable_dir("every-round");
        let cfg = journaled_config(Algorithm::Gta, &dir).with_faults(FaultPlan::stress(3));
        let uninterrupted = run(&scenario, &cfg);
        let rounds = fta_durable::read_log(&dir.join(fta_durable::WAL_FILE))
            .unwrap()
            .frames
            .len();
        assert!(rounds >= 3, "need a few rounds to make this meaningful");
        for k in 1..=rounds {
            let crash = crashed_copy(&dir, &format!("every-round-{k}"), wal_prefix_len(&dir, k));
            let mut cfg_k = cfg.clone();
            cfg_k.durable.as_mut().unwrap().dir.clone_from(&crash);
            let (recovered, info) = restore(&scenario, &cfg_k).expect("recovery succeeds");
            assert_eq!(
                recovered, uninterrupted,
                "crash after round {k} did not recover bit-for-bit"
            );
            assert_eq!(info.resumed_round, k as u64);
            assert!(!info.torn_tail);
            let _ = fs::remove_dir_all(&crash);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_with_torn_tail_resumes_from_previous_round() {
        // A frame torn mid-write (the crash signature) costs exactly that
        // round: recovery resumes from the previous frame and still ends
        // bit-identical, reporting the tear.
        let scenario = small_scenario(52);
        let dir = durable_dir("torn");
        let cfg = journaled_config(Algorithm::Gta, &dir);
        let uninterrupted = run(&scenario, &cfg);
        let clean = wal_prefix_len(&dir, 2);
        let torn = crashed_copy(&dir, "torn-crash", clean + 11); // partial 3rd frame
        let mut cfg_t = cfg.clone();
        cfg_t.durable.as_mut().unwrap().dir.clone_from(&torn);
        let (recovered, info) = restore(&scenario, &cfg_t).expect("torn tail recovers");
        assert_eq!(recovered, uninterrupted);
        assert!(info.torn_tail, "the tear must be reported");
        assert_eq!(info.resumed_round, 2);
        let _ = fs::remove_dir_all(&torn);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rehydrates_incremental_caches_bit_for_bit() {
        // The hard case: IEGT's warm path converges differently from cold
        // multi-restart, so recovery must re-install the journaled
        // equilibria rather than re-solve — otherwise the resumed day
        // diverges from the uninterrupted one.
        let scenario = small_scenario(53);
        let dir = durable_dir("inc-iegt");
        let cfg = journaled_config(Algorithm::Iegt(IegtConfig::default()), &dir).with_incremental();
        let uninterrupted = run(&scenario, &cfg);
        let rounds = fta_durable::read_log(&dir.join(fta_durable::WAL_FILE))
            .unwrap()
            .frames
            .len();
        assert!(rounds >= 3);
        let k = rounds / 2;
        let crash = crashed_copy(&dir, "inc-iegt-crash", wal_prefix_len(&dir, k));
        let mut cfg_k = cfg.clone();
        cfg_k.durable.as_mut().unwrap().dir.clone_from(&crash);
        let (recovered, info) = restore(&scenario, &cfg_k).expect("recovery succeeds");
        assert!(
            info.cache_rehydrated,
            "incremental recovery must re-hydrate the solver caches"
        );
        assert_eq!(
            recovered, uninterrupted,
            "re-hydrated warm path diverged from the live warm path"
        );
        let _ = fs::remove_dir_all(&crash);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `records` with every center's timings zeroed: a resumed round is
    /// solved again, so only its timings may differ from the live one's.
    fn without_nanos(records: &[SolveRecord]) -> Vec<SolveRecord> {
        let mut records = records.to_vec();
        for c in records.iter_mut().flat_map(|r| &mut r.centers) {
            c.vdps_nanos = 0;
            c.assign_nanos = 0;
        }
        records
    }

    #[test]
    fn restore_with_ledger_replays_journaled_records() {
        // The recovered ledger is continuous: journaled rounds are
        // replayed verbatim, resumed rounds are appended live.
        let scenario = small_scenario(54);
        let dir = durable_dir("ledger-replay");
        let cfg = journaled_config(Algorithm::Gta, &dir);
        let mut full_records = Vec::new();
        let uninterrupted = run_with_ledger(&scenario, &cfg, &mut full_records);
        let k = 2usize;
        let crash = crashed_copy(&dir, "ledger-replay-crash", wal_prefix_len(&dir, k));
        let mut cfg_k = cfg.clone();
        cfg_k.durable.as_mut().unwrap().dir.clone_from(&crash);
        let mut records = Vec::new();
        let (recovered, info) =
            restore_with_ledger(&scenario, &cfg_k, &mut records).expect("recovery succeeds");
        assert_eq!(recovered, uninterrupted);
        assert_eq!(info.replayed_records, k);
        assert_eq!(records.len(), full_records.len());
        // Replayed records are the journaled live records, nanos included;
        // their incomes are rebuilt from the journaled earnings.
        assert_eq!(records[..k], full_records[..k]);
        assert_eq!(
            without_nanos(&records[k..]),
            without_nanos(&full_records[k..])
        );
        let _ = fs::remove_dir_all(&crash);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_with_ledger_replays_snapshot_records() {
        // An incremental FGT day with a snapshot every 3 rounds: records
        // come back from the snapshot payload as well as from log frames.
        let scenario = small_scenario(59);
        let dir = durable_dir("ledger-replay-snap");
        let mut cfg =
            journaled_config(Algorithm::Fgt(FgtConfig::default()), &dir).with_incremental();
        cfg.durable.as_mut().unwrap().snapshot_every = 3;
        let mut full_records = Vec::new();
        let uninterrupted = run_with_ledger(&scenario, &cfg, &mut full_records);
        assert!(
            full_records.len() > 4,
            "need a snapshot mid-day and a log tail"
        );
        let live = |round: Option<u64>| {
            full_records
                .iter()
                .find(|r| r.round == round)
                .expect("every replayed round was recorded live")
        };

        // The finished journal: the newest snapshot plus the log frames
        // after it, all replayed.
        let mut records = Vec::new();
        let (recovered, info) =
            restore_with_ledger(&scenario, &cfg, &mut records).expect("recovery succeeds");
        assert_eq!(recovered, uninterrupted);
        let snapshot_round = info.snapshot_round.expect("the day cut a snapshot");
        assert!(info.frames > 0, "the log holds frames past the snapshot");
        assert_eq!(info.replayed_records, 1 + info.frames);
        assert_eq!(records[0].round, Some(snapshot_round));
        for record in &records {
            assert_eq!(record, live(record.round));
        }

        // A crash that left only the snapshot: its record is replayed and
        // the rest of the day is solved again.
        let crash = crashed_copy(
            &dir,
            "ledger-replay-snap-crash",
            fta_durable::log::WAL_HEADER_LEN,
        );
        let mut cfg_k = cfg.clone();
        cfg_k.durable.as_mut().unwrap().dir.clone_from(&crash);
        let mut records = Vec::new();
        let (recovered, info) =
            restore_with_ledger(&scenario, &cfg_k, &mut records).expect("recovery succeeds");
        assert_eq!(recovered, uninterrupted);
        assert!(info.cache_rehydrated);
        assert_eq!(
            (info.resumed_round, info.replayed_records),
            (snapshot_round, 1)
        );
        assert_eq!(&records[0], live(Some(snapshot_round)));
        let resumed = full_records.len() - snapshot_round as usize;
        assert_eq!(
            without_nanos(&records[1..]),
            without_nanos(&full_records[full_records.len() - resumed..])
        );
        let _ = fs::remove_dir_all(&crash);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_resumes_from_a_snapshot_whose_log_was_not_truncated() {
        // A crash between snapshot round 3's rename and the log truncate
        // leaves snapshot 3 beside a log holding rounds 1-2 and no frame
        // 3 (a snapshot round appends none). Recovery must resume from
        // the snapshot, not from the last log frame, and replay each
        // round's record once.
        let scenario = small_scenario(60);
        let snap_dir = durable_dir("pretruncate-snap");
        let mut cfg =
            journaled_config(Algorithm::Fgt(FgtConfig::default()), &snap_dir).with_incremental();
        cfg.durable.as_mut().unwrap().snapshot_every = 3;
        let mut full_records = Vec::new();
        let uninterrupted = run_with_ledger(&scenario, &cfg, &mut full_records);
        assert!(full_records.len() > 4, "need rounds past the snapshot");
        // The same day without snapshots supplies the pre-truncate log.
        let log_dir = durable_dir("pretruncate-log");
        let mut log_cfg = cfg.clone();
        log_cfg.durable.as_mut().unwrap().dir.clone_from(&log_dir);
        log_cfg.durable.as_mut().unwrap().snapshot_every = u64::MAX;
        let _ = run(&scenario, &log_cfg);
        let crash = crashed_copy(&log_dir, "pretruncate-crash", wal_prefix_len(&log_dir, 2));
        let snap = fta_durable::snapshot::snapshot_name(3);
        fs::copy(snap_dir.join(&snap), crash.join(&snap)).unwrap();

        let mut cfg_k = cfg.clone();
        cfg_k.durable.as_mut().unwrap().dir.clone_from(&crash);
        let mut records = Vec::new();
        let (recovered, info) =
            restore_with_ledger(&scenario, &cfg_k, &mut records).expect("recovery succeeds");
        assert_eq!(recovered, uninterrupted);
        assert_eq!(
            (info.resumed_round, info.snapshot_round, info.frames),
            (3, Some(3), 0)
        );
        assert!(info.cache_rehydrated);
        assert_eq!(info.replayed_records, 3);
        let rounds: Vec<Option<u64>> = records.iter().map(|r| r.round).collect();
        let live: Vec<Option<u64>> = full_records.iter().map(|r| r.round).collect();
        assert_eq!(rounds, live, "every round replayed or resumed exactly once");
        assert_eq!(without_nanos(&records), without_nanos(&full_records));
        // The resumed journal finished the interrupted truncate: it keeps
        // the uninterrupted day's snapshot cadence and ends with the same
        // log.
        let snapshots = |dir: &Path| {
            let mut names: Vec<String> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".ftas"))
                .collect();
            names.sort();
            names
        };
        assert_eq!(snapshots(&crash), snapshots(&snap_dir));
        let log_rounds = |dir: &Path| {
            fta_durable::read_log(&dir.join(fta_durable::WAL_FILE))
                .unwrap()
                .frames
                .iter()
                .map(|f| crate::frame_info(f).unwrap().round)
                .collect::<Vec<_>>()
        };
        assert_eq!(log_rounds(&crash), log_rounds(&snap_dir));
        for dir in [crash, snap_dir, log_dir] {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn restore_snapshot_cycle_survives_log_truncation() {
        // With a real snapshot cadence the log is truncated as the day
        // runs; recovery must stitch snapshot + log tail back together.
        let scenario = small_scenario(55);
        let dir = durable_dir("snap-cycle");
        let mut cfg = journaled_config(Algorithm::Gta, &dir);
        cfg.durable.as_mut().unwrap().snapshot_every = 3;
        let uninterrupted = run(&scenario, &cfg);
        let (recovered, info) = restore(&scenario, &cfg).expect("recovery succeeds");
        assert_eq!(recovered, uninterrupted);
        assert!(info.snapshot_round.is_some(), "a snapshot should exist");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Enough couriers and tasks that every tick of a 2 h day at 1/16 h
    /// periods has an idle courier and a pending task: 32 rounds.
    fn staffed_scenario() -> Scenario {
        Scenario::generate(
            &ScenarioConfig {
                n_workers: 64,
                n_delivery_points: 20,
                extent: 3.0,
                arrival_rate: 60.0,
                ..ScenarioConfig::default()
            },
            2.0,
            8,
        )
    }

    /// A 32-round incremental FGT day snapshotted every 4 rounds.
    fn snapshotted_day(dir: &Path) -> SimConfig {
        let mut cfg = SimConfig {
            assignment_period: 1.0 / 16.0,
            ..journaled_config(Algorithm::Fgt(FgtConfig::default()), dir)
        }
        .with_incremental();
        cfg.durable.as_mut().unwrap().snapshot_every = 4;
        cfg
    }

    fn snapshot_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("snap-") && n.ends_with(".ftas"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_day_keeps_the_newest_snapshot_and_one_fallback() {
        let scenario = staffed_scenario();
        let dir = durable_dir("snap-keep");
        let day = run(&scenario, &snapshotted_day(&dir));
        assert_eq!(day.rounds, 32);
        assert_eq!(
            snapshot_files(&dir),
            [
                fta_durable::snapshot::snapshot_name(28),
                fta_durable::snapshot::snapshot_name(32)
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_falls_back_past_a_corrupt_newest_snapshot() {
        let scenario = staffed_scenario();
        let dir = durable_dir("snap-fallback");
        let cfg = snapshotted_day(&dir);
        let uninterrupted = run(&scenario, &cfg);
        let newest = dir.join(fta_durable::snapshot::snapshot_name(32));
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, bytes).unwrap();

        let (recovered, info) = restore(&scenario, &cfg).expect("the fallback restores");
        assert_eq!((info.snapshot_round, info.resumed_round), (Some(28), 28));
        assert_eq!(recovered, uninterrupted);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_refuses_foreign_journal() {
        // A journal written under a different scenario must be refused,
        // not restored into a silently-wrong day.
        let scenario = small_scenario(56);
        let dir = durable_dir("foreign");
        let cfg = journaled_config(Algorithm::Gta, &dir);
        let _ = run(&scenario, &cfg);
        let other = small_scenario(57);
        assert!(matches!(
            restore(&other, &cfg),
            Err(fta_durable::DurableError::FingerprintMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_empty_or_missing_dir_is_no_state() {
        let scenario = small_scenario(58);
        let dir = durable_dir("nostate");
        let cfg = config(Algorithm::Gta).with_durable(DurableConfig::new(&dir));
        assert!(matches!(
            restore(&scenario, &cfg),
            Err(fta_durable::DurableError::NoState)
        ));
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            restore(&scenario, &cfg),
            Err(fta_durable::DurableError::NoState)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_games_beat_immediate_dispatch_on_day_fairness() {
        // The "before adopting the paper" baseline: across seeds, IEGT's
        // day-end earnings Gini should beat naive nearest-courier dispatch.
        let mut immed_gini = 0.0;
        let mut iegt_gini = 0.0;
        for seed in 0..4 {
            let scenario = small_scenario(30 + seed);
            let mut immed_cfg = config(Algorithm::Gta);
            immed_cfg.policy = DispatchPolicy::Immediate;
            immed_gini += run(&scenario, &immed_cfg).earnings_fairness().gini;
            iegt_gini += run(&scenario, &config(Algorithm::Iegt(IegtConfig::default())))
                .earnings_fairness()
                .gini;
        }
        assert!(
            iegt_gini <= immed_gini + 0.05,
            "IEGT day-Gini {iegt_gini} much worse than immediate dispatch {immed_gini}"
        );
    }

    #[test]
    fn fair_policy_spreads_earnings_more_evenly() {
        // Averaged over seeds, IEGT's daily-earnings Gini should not exceed
        // GTA's — the longitudinal version of the paper's claim.
        let mut gta_gini = 0.0;
        let mut iegt_gini = 0.0;
        for seed in 0..4 {
            let scenario = small_scenario(10 + seed);
            gta_gini += run(&scenario, &config(Algorithm::Gta))
                .earnings_fairness()
                .gini;
            iegt_gini += run(&scenario, &config(Algorithm::Iegt(IegtConfig::default())))
                .earnings_fairness()
                .gini;
        }
        assert!(
            iegt_gini <= gta_gini + 0.05,
            "IEGT day-Gini {iegt_gini} much worse than GTA {gta_gini}"
        );
    }
}
