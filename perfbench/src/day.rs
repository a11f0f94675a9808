//! The `day` workload: whole simulated shifts solved incrementally, with
//! every round journaled, one day after another.

use crate::host::{self, HostClock};
use crate::report::{median, peak_rss_mb, percentile, Report};
use crate::trace::Tracer;
use fta_algorithms::{Algorithm, FgtConfig};
use fta_obs::ledger::SolveRecord;
use fta_sim::{
    restore, run_with_ledger, DayMetrics, DurableConfig, Scenario, ScenarioConfig, SimConfig,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Distinct scenarios cycled by one run.
const SCENARIOS: u64 = 24;
/// Length of the simulated shift, hours.
const HORIZON: f64 = 8.0;

fn scenario_config() -> ScenarioConfig {
    ScenarioConfig {
        n_centers: 8,
        n_workers: 400,
        n_delivery_points: 640,
        extent: 10.0,
        arrival_rate: 1000.0,
        ..ScenarioConfig::default()
    }
}

/// Seed of scenario `k` of a run with seed `seed`.
fn scenario_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(100).wrapping_add(k)
}

fn cold_config() -> SimConfig {
    SimConfig::day(Algorithm::Fgt(FgtConfig::default()))
}

fn plain_config() -> SimConfig {
    cold_config().with_incremental()
}

/// The measured day: incremental and journaled into `dir` (fsync every 8
/// rounds, snapshot every 16).
fn journaled_config(dir: &Path) -> SimConfig {
    plain_config().with_durable(DurableConfig::new(dir))
}

/// Fresh, empty journal directories, one per day, removed on drop.
struct Journals {
    root: PathBuf,
    next: u64,
}

impl Journals {
    fn new(work: &Path) -> Self {
        Self {
            root: work.join(format!("day-journals-{}", std::process::id())),
            next: 0,
        }
    }

    fn fresh(&mut self) -> PathBuf {
        let dir = self.root.join(self.next.to_string());
        self.next += 1;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the work directory is writable");
        dir
    }
}

impl Drop for Journals {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One measured day: the metrics, its ledger and its wall time.
fn journaled_day(scenario: &Scenario, dir: &Path) -> (DayMetrics, Vec<SolveRecord>, f64) {
    let config = journaled_config(dir);
    let mut records = Vec::new();
    let t = Instant::now();
    let metrics = run_with_ledger(black_box(scenario), &config, &mut records);
    (metrics, records, t.elapsed().as_secs_f64())
}

/// Center solves in a day's ledger, and those not at the full rung.
fn ledger_counts(records: &[SolveRecord]) -> (u64, u64) {
    let centers = records.iter().flat_map(|r| &r.centers);
    let attempted = centers.clone().count() as u64;
    let failed = centers.filter(|c| c.rung != "full").count() as u64;
    (attempted, failed)
}

/// A scenario's first day, which every later day on it must repeat.
struct Reference {
    metrics: DayMetrics,
    records: Vec<SolveRecord>,
}

/// Generates the scenarios and runs one warm-up day, `SETUP_REPS` times;
/// the set-up time is in reference seconds (see `host`).
fn set_up(seed: u64, journals: &mut Journals) -> (Vec<Scenario>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut scenarios = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        scenarios = (0..SCENARIOS)
            .map(|k| Scenario::generate(&scenario_config(), HORIZON, scenario_seed(seed, k)))
            .collect();
        black_box(journaled_day(&scenarios[0], &journals.fresh()));
        times.push(host::setup_reference(t.elapsed().as_secs_f64()));
    }
    (scenarios, median(&times))
}

/// Checks one journaled day: it conserves its tasks and repeats the
/// scenario's first day. Center solves below the full rung count as
/// failed.
fn check_day(
    report: &mut Report,
    metrics: DayMetrics,
    records: Vec<SolveRecord>,
    reference: &mut Option<Reference>,
) {
    let (attempted, failed) = ledger_counts(&records);
    report.attempted += attempted;
    report.failed += failed;
    report.gate(metrics.is_conserved(), "a day does not conserve its tasks");
    match reference {
        Some(r) => report.gate(
            metrics == r.metrics,
            "a day differs from the first day on its scenario",
        ),
        None => *reference = Some(Reference { metrics, records }),
    }
}

/// Checks that `restore` on a finished journal reproduces the day.
fn check_restore(report: &mut Report, scenario: &Scenario, dir: &Path, metrics: &DayMetrics) {
    let restored = restore(scenario, &journaled_config(dir));
    report.gate(
        matches!(&restored, Ok((m, _)) if m == metrics),
        "restore on a finished journal does not reproduce the day",
    );
}

/// Mean of `f` over the references. Every run visits every scenario, so
/// the result repeats exactly for a seed.
fn mean_over(refs: &[Option<Reference>], f: impl Fn(&Reference) -> f64) -> f64 {
    let refs: Vec<&Reference> = refs.iter().flatten().collect();
    refs.iter().map(|r| f(r)).sum::<f64>() / refs.len().max(1) as f64
}

/// Share of workers that got at least one route during the day.
fn assigned_frac(m: &DayMetrics) -> f64 {
    m.ledgers.iter().filter(|l| l.routes > 0).count() as f64 / m.ledgers.len().max(1) as f64
}

pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path, spans_out: &Path) -> Report {
    let mut report = Report::new();
    let mut journals = Journals::new(work);
    let (scenarios, setup_s) = set_up(seed, &mut journals);
    let mut refs: Vec<Option<Reference>> = scenarios.iter().map(|_| None).collect();
    if traced {
        run_traced(
            &scenarios,
            &mut refs,
            seconds,
            &mut journals,
            &mut report,
            spans_out,
        );
        return report;
    }

    let mut clock = HostClock::new();
    let mut measured_s = Vec::new();
    let mut day_rounds = Vec::new();
    let start = Instant::now();
    while measured_s.len() < scenarios.len() || start.elapsed().as_secs_f64() < seconds {
        let k = measured_s.len() % scenarios.len();
        let dir = journals.fresh();
        let (metrics, records, wall) = journaled_day(&scenarios[k], &dir);
        measured_s.push(wall);
        clock.tick();
        day_rounds.push(metrics.rounds.max(1) as f64);
        check_restore(&mut report, &scenarios[k], &dir, &metrics);
        check_day(&mut report, metrics, records, &mut refs[k]);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let peak_rss = peak_rss_mb();

    // Every day in reference seconds (see `host`); throughput from each
    // scenario's median day (see `rounds::run`).
    let days = measured_s.len();
    let mut day_s: Vec<Vec<f64>> = vec![Vec::new(); scenarios.len()];
    let mut round_ms = Vec::with_capacity(days);
    for (i, (&wall, &rounds)) in measured_s.iter().zip(&day_rounds).enumerate() {
        let s = clock.reference(i, wall);
        day_s[i % scenarios.len()].push(s);
        round_ms.push(s * 1e3 / rounds);
    }
    let cycle_s: f64 = day_s.iter().map(|d| median(d)).sum();
    let cycle_rounds: f64 = refs.iter().flatten().map(|r| r.metrics.rounds as f64).sum();
    report.set("setup_s", setup_s);
    report.set("rounds_per_s", cycle_rounds / cycle_s);
    report.set("round_ms.p50", percentile(&round_ms, 50.0));
    report.set("round_ms.p95", percentile(&round_ms, 95.0));
    report.set(
        "p_dif",
        mean_over(&refs, |r| r.metrics.earnings_fairness().payoff_difference),
    );
    report.set(
        "avg_payoff",
        mean_over(&refs, |r| r.metrics.earnings_fairness().average_payoff),
    );
    report.set(
        "assigned_frac",
        mean_over(&refs, |r| assigned_frac(&r.metrics)),
    );
    report.set(
        "completion_rate",
        mean_over(&refs, |r| r.metrics.completion_rate()),
    );
    report.set("peak_rss_mb", peak_rss);
    eprintln!(
        "{days} days over {} scenarios in {:.2} s",
        scenarios.len(),
        start.elapsed().as_secs_f64()
    );
    report
}

/// The traced run: per scenario, the journaled day, `restore` on its
/// finished journal, the same day without the journal, and the same day
/// solved cold, each in a root span of its own.
fn run_traced(
    scenarios: &[Scenario],
    refs: &mut [Option<Reference>],
    seconds: f64,
    journals: &mut Journals,
    report: &mut Report,
    spans_out: &Path,
) {
    let mut tracer = Tracer::new();
    let mut bytes = Vec::new();
    let mut cold_completion = vec![0.0; scenarios.len()];
    let mut days = 0;
    let start = Instant::now();
    while days < scenarios.len() || start.elapsed().as_secs_f64() < seconds {
        let k = days % scenarios.len();
        let (scenario, round) = (&scenarios[k], days as u64);
        let dir = journals.fresh();
        let config = journaled_config(&dir);
        let mut records = Vec::new();
        let metrics = tracer.span("sim.day", round, None, None, || {
            run_with_ledger(scenario, &config, &mut records)
        });
        bytes.push(dir_bytes(&dir) as f64);
        tracer.span("durable.recover", round, None, None, || {
            check_restore(report, scenario, &dir, &metrics);
        });
        check_day(report, metrics, records, &mut refs[k]);
        tracer.span("sim.plain_day", round, None, None, || {
            black_box(run_with_ledger(scenario, &plain_config(), &mut Vec::new()))
        });
        let cold = tracer.span("sim.cold_day", round, None, None, || {
            run_with_ledger(scenario, &cold_config(), &mut Vec::new())
        });
        cold_completion[k] = cold.completion_rate();
        let _ = std::fs::remove_dir_all(&dir);
        days += 1;
    }

    let per_day = |name: &str| tracer.total_ms(name) / days as f64;
    let day_ms = per_day("sim.day");
    let plain_ms = per_day("sim.plain_day");
    let cold_ms = per_day("sim.cold_day");
    // The solver's own per-center clocks: incremental days solve centers
    // one after another, so these do not overlap.
    let resolve_ms = mean_over(refs, |r| {
        r.records
            .iter()
            .flat_map(|rec| &rec.centers)
            .map(|c| (c.vdps_nanos + c.assign_nanos) as f64 / 1e6)
            .sum()
    });
    let path_count = |path: &'static str| {
        mean_over(refs, move |r| {
            r.records
                .iter()
                .flat_map(|rec| &rec.centers)
                .filter(|c| c.resolve == path)
                .count() as f64
        })
    };
    let overhead_ms = day_ms - plain_ms;
    report.set("sim.day_ms", day_ms);
    report.set("sim.engine_ms", day_ms - resolve_ms - overhead_ms);
    report.set("sim.cold_day_ms", cold_ms);
    report.set(
        "sim.cold_completion_rate",
        cold_completion.iter().sum::<f64>() / cold_completion.len() as f64,
    );
    report.set("algo.resolve_ms", resolve_ms);
    report.set("algo.centers_clean", path_count("clean"));
    report.set("algo.centers_warm", path_count("warm"));
    report.set("algo.centers_cold", path_count("cold"));
    report.set("algo.resolve_vs_cold", cold_ms / plain_ms);
    report.set("durable.overhead_ms", overhead_ms);
    report.set("durable.bytes", median(&bytes));
    report.set("durable.recover_ms", per_day("durable.recover"));
    report.set("failed_frac", report.failed_frac());
    eprintln!("{days} traced days, {} spans", tracer.spans().len());
    if let Err(e) = tracer.write_jsonl(spans_out) {
        eprintln!("could not write spans to {}: {e}", spans_out.display());
    }
}
