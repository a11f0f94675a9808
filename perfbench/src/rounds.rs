//! The `paper` and `dense` workloads: cold assignment rounds over a fixed
//! set of generated snapshots, one caller, the next round starting when
//! the last one returns.

use crate::host::{self, HostClock};
use crate::report::{median, peak_rss_mb, percentile, Report};
use crate::round::{center_space, composed_round, play, salted, snapshot, RoundOutput};
use crate::trace::Tracer;
use fta_algorithms::{
    solve_with_pool, Algorithm, FgtConfig, GameContext, IegtConfig, LadderRung, MptaConfig,
    SolveConfig, SolveOutcome,
};
use fta_core::fairness::FairnessReport;
use fta_core::{Assignment, Instance, WorkerId};
use fta_data::{generate_syn, SynConfig};
use fta_vdps::{StrategySpace, VdpsConfig, WorkerPool};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Rounds a measured run holds at least, so that at least ten samples lie
/// beyond the 95th percentile.
const MIN_ROUNDS: usize = 200;
/// Snapshots the pooled-solve and composed-pipeline gates of an untraced
/// run, and the baselines of a traced run, cover (the first ones).
const SAMPLED_SNAPSHOTS: usize = 8;
/// Repetitions of the pooled-versus-sequential comparison.
const POOL_REPS: usize = 3;

/// One round-level workload: the snapshot shape and how many snapshots
/// are cycled. Round costs differ from snapshot to snapshot, so a run
/// cycles enough of them that their mix barely changes with the seed.
pub struct Shape {
    pub syn: SynConfig,
    pub snapshots: u64,
}

/// Table I's shape: 100 centers of about 10 workers each.
pub fn paper() -> Shape {
    Shape {
        syn: SynConfig {
            n_centers: 100,
            n_workers: 1_000,
            n_tasks: 10_000,
            n_delivery_points: 6_000,
            ..SynConfig::bench_scale()
        },
        snapshots: 32,
    }
}

/// Eight centers of about 300 workers each. A center's cost depends
/// strongly on its geometry, so a round sums eight of them.
pub fn dense() -> Shape {
    Shape {
        syn: SynConfig {
            n_centers: 8,
            n_workers: 2_400,
            n_tasks: 12_000,
            n_delivery_points: 480,
            ..SynConfig::bench_scale()
        },
        snapshots: 96,
    }
}

/// Seed of snapshot `k` of a run with seed `seed`; `fta generate syn
/// --seed <this>` rebuilds it.
fn snapshot_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k)
}

fn vdps() -> VdpsConfig {
    VdpsConfig::pruned(2.0, 3)
}

fn fgt_algorithm() -> Algorithm {
    Algorithm::Fgt(FgtConfig::default())
}

fn solve_config() -> SolveConfig {
    SolveConfig {
        vdps: vdps(),
        ..SolveConfig::new(fgt_algorithm())
    }
}

fn generate(shape: &Shape, seed: u64) -> Vec<Instance> {
    (0..shape.snapshots)
        .map(|k| generate_syn(&shape.syn, snapshot_seed(seed, k)))
        .collect()
}

/// Generates the snapshots and runs one warm-up round, `SETUP_REPS`
/// times; returns the last snapshots and the median set-up time, in
/// reference seconds (see `host`).
fn set_up(shape: &Shape, seed: u64) -> (Vec<Instance>, f64) {
    let config = solve_config();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut snapshots = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        snapshots = generate(shape, seed);
        black_box(solve_with_pool(
            &snapshots[0],
            &config,
            &WorkerPool::sequential(),
        ));
        times.push(host::setup_reference(t.elapsed().as_secs_f64()));
    }
    (snapshots, median(&times))
}

/// A snapshot's first solve, which every later round on it must repeat,
/// and what is measured on it once: quality and the layers' counters.
struct Reference {
    assignment: Assignment,
    fairness: FairnessReport,
    assigned_frac: f64,
    completion_rate: f64,
    counters: RoundOutput,
}

impl Reference {
    /// Quality over every worker of the snapshot (unassigned ones earn 0).
    fn new(instance: &Instance, assignment: Assignment, counters: RoundOutput) -> Self {
        let workers: Vec<WorkerId> = instance.workers.iter().map(|w| w.id).collect();
        Self {
            fairness: assignment.fairness(instance, &workers),
            assigned_frac: assignment.assigned_workers() as f64 / workers.len().max(1) as f64,
            completion_rate: assignment.total_reward() / instance.total_reward(),
            assignment,
            counters,
        }
    }
}

/// Mean of `f` over the references. Every run visits every snapshot, so
/// quality and counters repeat exactly for a seed.
fn mean_over(refs: &[Option<Reference>], f: impl Fn(&Reference) -> f64) -> f64 {
    let refs: Vec<&Reference> = refs.iter().flatten().collect();
    refs.iter().map(|r| f(r)).sum::<f64>() / refs.len().max(1) as f64
}

/// Checks one solver round: every center at the full rung, a valid
/// assignment, and the same assignment as the snapshot's first round.
fn check_round(
    report: &mut Report,
    instance: &Instance,
    outcome: SolveOutcome,
    reference: &mut Option<Reference>,
    counters: impl FnOnce() -> RoundOutput,
) {
    report.attempted += instance.centers.len() as u64;
    let valid = outcome.assignment.validate(instance).is_ok();
    report.failed += if valid {
        outcome
            .rungs
            .iter()
            .filter(|&&(_, rung)| rung != LadderRung::Full)
            .count() as u64
    } else {
        instance.centers.len() as u64
    };
    report.gate(valid, "a round fails Assignment::validate");
    match reference {
        Some(r) => report.gate(
            outcome.assignment == r.assignment,
            "a round differs from the first round on its snapshot",
        ),
        None => *reference = Some(Reference::new(instance, outcome.assignment, counters())),
    }
}

pub fn run(shape: &Shape, seed: u64, seconds: f64, traced: bool, spans_out: &Path) -> Report {
    let mut report = Report::new();
    let (snapshots, setup_s) = set_up(shape, seed);
    let mut refs: Vec<Option<Reference>> = snapshots.iter().map(|_| None).collect();
    if traced {
        run_traced(&snapshots, &mut refs, seconds, &mut report, spans_out);
        return report;
    }

    let config = solve_config();
    let pool = WorkerPool::sequential();
    let mut clock = HostClock::new();
    let mut measured_ms = Vec::new();
    let start = Instant::now();
    while measured_ms.len() < MIN_ROUNDS.max(snapshots.len())
        || start.elapsed().as_secs_f64() < seconds
    {
        let k = measured_ms.len() % snapshots.len();
        let t = Instant::now();
        let outcome = solve_with_pool(black_box(&snapshots[k]), &config, &pool);
        measured_ms.push(t.elapsed().as_secs_f64() * 1e3);
        clock.tick();
        check_round(
            &mut report,
            &snapshots[k],
            outcome,
            &mut refs[k],
            RoundOutput::default,
        );
    }
    let peak_rss = peak_rss_mb();

    // The equivalence gates, on the first snapshots: the composed
    // pipeline and the pooled solve both reproduce the sequential solve.
    let pooled = WorkerPool::new();
    let mut scratch = Tracer::new();
    for (instance, reference) in snapshots.iter().zip(&refs).take(SAMPLED_SNAPSHOTS) {
        let expected = &reference
            .as_ref()
            .expect("every snapshot was solved")
            .assignment;
        let composed = composed_round(instance, vdps(), fgt_algorithm(), &mut scratch, 0);
        report.gate(
            composed.failed_centers > 0 || composed.assignment == *expected,
            "the composed pipeline differs from solve_with_pool",
        );
        let par = solve_with_pool(instance, &config, &pooled);
        report.gate(
            par.assignment == *expected,
            "the pooled solve differs from the sequential solve",
        );
    }

    // Every round in reference milliseconds (see `host`); throughput from
    // each snapshot's median round, so that every snapshot weighs the same.
    let rounds = measured_ms.len();
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); snapshots.len()];
    for (i, &ms) in measured_ms.iter().enumerate() {
        latencies[i % snapshots.len()].push(clock.reference(i, ms));
    }
    let cycle_ms: f64 = latencies.iter().map(|l| median(l)).sum();
    let all: Vec<f64> = latencies.concat();
    report.set("setup_s", setup_s);
    report.set("rounds_per_s", snapshots.len() as f64 * 1e3 / cycle_ms);
    report.set("round_ms.p50", percentile(&all, 50.0));
    report.set("round_ms.p95", percentile(&all, 95.0));
    report.set("p_dif", mean_over(&refs, |r| r.fairness.payoff_difference));
    report.set(
        "avg_payoff",
        mean_over(&refs, |r| r.fairness.average_payoff),
    );
    report.set("assigned_frac", mean_over(&refs, |r| r.assigned_frac));
    report.set("completion_rate", mean_over(&refs, |r| r.completion_rate));
    report.set("peak_rss_mb", peak_rss);
    eprintln!(
        "{rounds} rounds over {} snapshots in {:.2} s",
        snapshots.len(),
        start.elapsed().as_secs_f64()
    );
    report
}

/// The traced run: each round, an untraced `solve_with_pool` and a traced
/// composed round on the same snapshot, which must agree; then the
/// baselines.
fn run_traced(
    snapshots: &[Instance],
    refs: &mut [Option<Reference>],
    seconds: f64,
    report: &mut Report,
    spans_out: &Path,
) {
    let config = solve_config();
    let pool = WorkerPool::sequential();
    let mut tracer = Tracer::new();
    let mut solve_ms = 0.0;
    let mut rounds = 0;
    let start = Instant::now();
    while rounds < snapshots.len() || start.elapsed().as_secs_f64() < seconds {
        let k = rounds % snapshots.len();
        let instance = &snapshots[k];
        let t = Instant::now();
        let outcome = solve_with_pool(black_box(instance), &config, &pool);
        solve_ms += t.elapsed().as_secs_f64() * 1e3;
        let composed = composed_round(
            instance,
            vdps(),
            fgt_algorithm(),
            &mut tracer,
            rounds as u64,
        );
        report.attempted += composed.centers;
        report.failed += composed.failed_centers;
        report.gate(
            composed.failed_centers > 0 || composed.assignment == outcome.assignment,
            "a traced round differs from solve_with_pool",
        );
        check_round(report, instance, outcome, &mut refs[k], || composed);
        rounds += 1;
    }
    let rounds = rounds as f64;
    let self_ms = tracer.self_ms_by_name();
    let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / rounds;
    let round_ms = tracer.total_ms("round") / rounds;
    let solve_ms = solve_ms / rounds;
    let generate_ms = layer("vdps.generate");
    let strategy_ms = layer("vdps.strategy");
    let fgt_ms = layer("algo.game");
    let composed_ms =
        layer("core.snapshot") + generate_ms + strategy_ms + fgt_ms + layer("algo.merge");

    let counter = |f: fn(&RoundOutput) -> u64| mean_over(refs, |r| f(&r.counters) as f64);
    let states = counter(|c| c.gen.states as u64);
    let extensions = counter(|c| c.gen.extensions_tried as u64);
    let sets = counter(|c| c.gen.vdps_count as u64);
    let slots = counter(|c| c.slots);
    let br_evals = counter(|c| c.br.candidate_evaluations);
    let br_switches = counter(|c| c.br.switches);

    report.set("core.snapshot_ms", layer("core.snapshot"));
    report.set("vdps.generate_ms", generate_ms);
    report.set("vdps.generate_share", generate_ms / round_ms);
    report.set("vdps.states", states);
    report.set("vdps.extensions", extensions);
    report.set("vdps.sets", sets);
    report.set("vdps.sets_per_state", sets / states);
    report.set("vdps.ns_per_extension", generate_ms * 1e6 / extensions);
    report.set("vdps.strategy_ms", strategy_ms);
    report.set("vdps.strategy_share", strategy_ms / round_ms);
    report.set("vdps.slots", slots);
    report.set("vdps.ns_per_slot", strategy_ms * 1e6 / slots);
    report.set("algo.fgt_ms", fgt_ms);
    report.set("algo.br_rounds", counter(|c| c.br.rounds));
    report.set("algo.br_evaluations", br_evals);
    report.set("algo.br_scanned", counter(|c| c.br.candidates_scanned));
    report.set("algo.br_switches", br_switches);
    report.set("algo.switches_per_eval", br_switches / br_evals);
    report.set("algo.merge_ms", layer("algo.merge"));
    report.set("algo.solve_ms", solve_ms);
    report.set("algo.unattributed_ms", solve_ms - composed_ms);
    report.set("algo.coverage", composed_ms / solve_ms);
    report.set("trace.overhead_pct", (round_ms / solve_ms - 1.0) * 100.0);

    let sampled = &snapshots[..SAMPLED_SNAPSHOTS.min(snapshots.len())];
    game_baselines(sampled, report);
    pool_baseline(sampled, refs, report);
    report.set("failed_frac", report.failed_frac());
    eprintln!("{rounds} traced rounds, {} spans", tracer.spans().len());
    if let Err(e) = tracer.write_jsonl(spans_out) {
        eprintln!("could not write spans to {}: {e}", spans_out.display());
    }
}

/// FGT, GTA, IEGT and MPTA over the same strategy spaces, each timed per
/// round from the benchmark's own clock.
fn game_baselines(snapshots: &[Instance], report: &mut Report) {
    let algorithms: [(&'static str, Algorithm); 4] = [
        ("algo.fgt_ms", fgt_algorithm()),
        ("algo.gta_ms", Algorithm::Gta),
        ("algo.iegt_ms", Algorithm::Iegt(IegtConfig::default())),
        ("algo.mpta_ms", Algorithm::Mpta(MptaConfig::default())),
    ];
    let mut total_ms = [0.0f64; 4];
    let mut scratch = Tracer::new();
    for instance in snapshots {
        let (views, aggregates) = snapshot(instance);
        let spaces: Vec<StrategySpace> = views
            .into_iter()
            .map(|view| center_space(instance, &aggregates, view, vdps(), &mut scratch, 0, None))
            .collect();
        for (i, &(_, algorithm)) in algorithms.iter().enumerate() {
            let t = Instant::now();
            for space in &spaces {
                let mut ctx = GameContext::new(space);
                black_box(play(&mut ctx, salted(algorithm, space.view.center.0)));
            }
            total_ms[i] += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    let n = snapshots.len() as f64;
    // FGT's own time on these snapshots is the base of both ratios; the
    // traced rounds already report `algo.fgt_ms` over every snapshot.
    for (&(name, _), ms) in algorithms.iter().zip(total_ms).skip(1) {
        report.set(name, ms / n);
    }
    report.set("algo.gta_over_fgt", total_ms[1] / total_ms[0]);
    report.set("algo.mpta_over_fgt", total_ms[3] / total_ms[0]);
}

/// Sequential against pooled `solve_with_pool` over the same snapshots,
/// interleaved; the pooled solves must reproduce the sequential ones.
/// Also the pooled solve's summed `vdps_time` against its wall time,
/// which exceeds 1 when per-center clocks overlap.
fn pool_baseline(snapshots: &[Instance], refs: &[Option<Reference>], report: &mut Report) {
    let config = solve_config();
    let sequential = WorkerPool::sequential();
    let pooled = WorkerPool::new();
    let mut seq_s = Vec::new();
    let mut par_s = Vec::new();
    let mut overcount = Vec::new();
    for _ in 0..POOL_REPS {
        let t = Instant::now();
        for instance in snapshots {
            black_box(solve_with_pool(instance, &config, &sequential));
        }
        seq_s.push(t.elapsed().as_secs_f64());
        let mut vdps_s = 0.0;
        let mut outcomes = Vec::with_capacity(snapshots.len());
        let t = Instant::now();
        for instance in snapshots {
            let outcome = solve_with_pool(instance, &config, &pooled);
            vdps_s += outcome.vdps_time.as_secs_f64();
            outcomes.push(outcome);
        }
        let wall = t.elapsed().as_secs_f64();
        par_s.push(wall);
        overcount.push(vdps_s / wall);
        for (outcome, reference) in outcomes.iter().zip(refs) {
            report.gate(
                reference
                    .as_ref()
                    .is_some_and(|r| r.assignment == outcome.assignment),
                "the pooled solve differs from the sequential solve",
            );
        }
    }
    report.set("vdps.pool_speedup", median(&seq_s) / median(&par_s));
    report.set("vdps.pool_time_overcount", median(&overcount));
}
