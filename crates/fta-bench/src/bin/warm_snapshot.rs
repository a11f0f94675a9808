//! Writes `BENCH_incremental.json`: a machine-readable snapshot of the
//! incremental re-solve path (dirty-center detection, VDPS regeneration
//! of churned centers, equilibrium warm starts) against per-round cold
//! solves, so the perf trajectory of `Solver::resolve` is tracked
//! in-repo.
//!
//! Each grid row replays a sequence of churned rounds in two modes.
//! Churn is delivery-shaped, matching the sim's semantics (a served
//! delivery point leaves with its *whole* task set, and deliveries
//! cluster by center because they are route completions): each round a
//! rotating tenth of the centers sees action, and within those centers
//! a rotating quarter of the delivery points is delivered — ~2.5% of
//! delivery points per round, well under the 5% churn envelope.
//!
//! * `drop` — deliveries only, deadlines do not move between rounds:
//!   untouched centers short-circuit clean (bitwise-identical input)
//!   and cost nothing, active centers regenerate and warm-start;
//! * `aged` — deliveries *plus* every surviving deadline shrinks by the
//!   round length (the adversarial shape): every center is touched
//!   every round and regenerates its pool, so only the equilibrium warm
//!   start can carry savings, and warm and cold run about even.
//!
//! Usage: `cargo run -p fta-bench --release --bin warm_snapshot -- [OUT]`
//! (default OUT: `BENCH_incremental.json`). Set `FTA_BENCH_QUICK=1` to
//! shrink the grid and repetition counts (CI smoke mode). In every mode
//! the binary *asserts* that the warm path never loses to the cold path
//! on any row, and that a zero-churn resolve is bit-identical to the
//! cached outcome — CI runs it in quick mode as a regression gate.

use fta_algorithms::{solve, Algorithm, FgtConfig, ResolveStats, SolveConfig, Solver};
use fta_bench::{best_secs, gates, hw_threads, obj};
use fta_core::Instance;
use fta_data::SynConfig;
use fta_vdps::VdpsConfig;
use serde_json::Value;
use std::hint::black_box;

struct Row {
    label: &'static str,
    n_centers: usize,
    n_workers: usize,
    n_dps: usize,
    seed: u64,
}

/// One delivery-shaped churn step: a rotating tenth of the centers sees
/// action this round, and within each active center a rotating quarter
/// of the delivery points is *delivered* — its whole task set leaves,
/// the way a completed route clears a delivery point in the sim. In
/// `aged` mode every surviving deadline additionally shrinks by `age`
/// and tasks that kills leave too.
fn churn_round(base: &Instance, round: usize, age: f64) -> Instance {
    let mut next = base.clone();
    next.tasks.retain(|t| {
        let dp = t.delivery_point.index();
        let center = base.delivery_points[dp].center.index();
        let active = center % 10 == round % 10;
        let delivered = active && (dp + round) % 4 == 0;
        !delivered && t.expiry > age
    });
    if age > 0.0 {
        for t in &mut next.tasks {
            t.expiry -= age;
        }
    }
    next
}

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_incremental.json".to_owned());
    let quick = gates::quick_mode();
    let reps = if quick { 2 } else { 4 };
    let n_rounds = if quick { 3 } else { 8 };
    let config = SolveConfig {
        vdps: VdpsConfig::pruned(2.0, 3),
        algorithm: Algorithm::Fgt(FgtConfig::default()),
        ..SolveConfig::new(Algorithm::Gta)
    };

    let rows = [
        Row {
            label: "small",
            n_centers: 20,
            n_workers: 200,
            n_dps: 1200,
            seed: 5,
        },
        Row {
            label: "paper",
            n_centers: 100,
            n_workers: 1000,
            n_dps: 6000,
            seed: 3,
        },
    ];

    let mut grid = Vec::new();
    for row in &rows {
        let base = fta_data::generate_syn(
            &SynConfig {
                n_centers: row.n_centers,
                n_workers: row.n_workers,
                n_tasks: row.n_dps * 20,
                n_delivery_points: row.n_dps,
                extent: 4.0,
                ..SynConfig::bench_scale()
            },
            row.seed,
        );
        // Prime one solver on round 0; every timed repetition branches a
        // clone off this state so warm reps all start from the same cache.
        let mut primed = Solver::new(config);
        // Synthetic rounds keep every worker, so identity keys are stable.
        let keys: Vec<u64> = (0..base.workers.len() as u64).collect();
        let round0 = primed.resolve(&base, &keys);

        // Zero-churn equivalence gate: a resolve of the identical
        // instance must be a pure cache hit, bit for bit.
        {
            let mut s = primed.clone();
            let again = s.resolve(&base, &keys);
            assert_eq!(
                again.assignment, round0.assignment,
                "{}: zero-churn resolve diverged from the cached outcome",
                row.label
            );
            assert_eq!(
                s.last_stats().centers_clean,
                base.centers.len(),
                "{}: zero-churn resolve left centers unclean",
                row.label
            );
        }

        for (mode, age) in [("drop", 0.0f64), ("aged", 0.05f64)] {
            // The round sequence is cumulative: each round churns the
            // previous one, like a live day.
            let mut rounds: Vec<Instance> = Vec::with_capacity(n_rounds);
            let mut cur = base.clone();
            for r in 1..=n_rounds {
                cur = churn_round(&cur, r, age);
                rounds.push(cur.clone());
            }

            let cold_s = best_secs(reps, || {
                for inst in &rounds {
                    black_box(solve(inst, &config));
                }
            });
            let warm_s = best_secs(reps, || {
                let mut s = primed.clone();
                for inst in &rounds {
                    black_box(s.resolve(inst, &keys));
                }
            });

            // One audited pass for the ladder statistics and a validity
            // check of every warm round.
            let mut audited = primed.clone();
            let mut stats = ResolveStats::default();
            for inst in &rounds {
                let outcome = audited.resolve(inst, &keys);
                assert!(
                    outcome.assignment.validate(inst).is_ok(),
                    "{}/{mode}: warm round produced an invalid assignment",
                    row.label
                );
                let s = audited.last_stats();
                stats.centers_clean += s.centers_clean;
                stats.centers_warm += s.centers_warm;
                stats.centers_cold += s.centers_cold;
                stats.warm_adopted += s.warm_adopted;
                stats.warm_rejected += s.warm_rejected;
            }

            let speedup = cold_s / warm_s;
            fta_obs::info!(
                "{}/{mode}: {} rounds — cold {:.1} ms, warm {:.1} ms ({:.2}x); \
                 centers clean/warm/cold = {}/{}/{}",
                row.label,
                n_rounds,
                cold_s * 1e3,
                warm_s * 1e3,
                speedup,
                stats.centers_clean,
                stats.centers_warm,
                stats.centers_cold,
            );

            // Regression gates (numbers shared with the schema tests via
            // `fta_bench::gates`). Delivery churn is where the incremental
            // path earns its keep: it must beat cold by a wide margin at
            // paper scale and never lose anywhere. Deep uniform aging
            // touches every center, which regenerates its pool as a cold
            // solve would, so warm and cold differ only by the warm
            // start's assignment savings — a thin margin that gets a
            // timer-noise allowance.
            let aged_band = gates::aged_noise_band(quick);
            if mode == "drop" {
                assert!(
                    warm_s <= cold_s,
                    "{}/{mode}: warm ({:.1} ms) slower than cold ({:.1} ms)",
                    row.label,
                    warm_s * 1e3,
                    cold_s * 1e3
                );
                if row.label == "paper" {
                    assert!(
                        speedup >= gates::WARM_PAPER_DROP_FLOOR,
                        "paper/drop: warm speedup {speedup:.2}x fell below the \
                         {}x floor",
                        gates::WARM_PAPER_DROP_FLOOR
                    );
                }
            } else {
                assert!(
                    warm_s <= cold_s * aged_band,
                    "{}/{mode}: warm ({:.1} ms) lost to cold ({:.1} ms) beyond noise",
                    row.label,
                    warm_s * 1e3,
                    cold_s * 1e3
                );
            }

            grid.push(obj(vec![
                ("label", Value::String(row.label.to_owned())),
                ("mode", Value::String(mode.to_owned())),
                ("n_workers", Value::UInt(row.n_workers as u64)),
                ("n_centers", Value::UInt(row.n_centers as u64)),
                ("n_dps", Value::UInt(row.n_dps as u64)),
                ("rounds", Value::UInt(n_rounds as u64)),
                ("cold_ms", Value::Float(cold_s * 1e3)),
                ("warm_ms", Value::Float(warm_s * 1e3)),
                ("speedup_warm_vs_cold", Value::Float(speedup)),
                (
                    "resolve_stats",
                    obj(vec![
                        ("centers_clean", Value::UInt(stats.centers_clean as u64)),
                        ("centers_warm", Value::UInt(stats.centers_warm as u64)),
                        ("centers_cold", Value::UInt(stats.centers_cold as u64)),
                        ("warm_adopted", Value::UInt(stats.warm_adopted as u64)),
                        ("warm_rejected", Value::UInt(stats.warm_rejected as u64)),
                    ]),
                ),
            ]));
        }
    }

    let snapshot = obj(vec![
        (
            "description",
            Value::String(
                "Incremental re-solve (dirty-center detection + VDPS \
                 regeneration of churned centers + equilibrium warm starts) \
                 vs per-round cold solves \
                 over sequences of delivery-shaped churn rounds (~2.5% of \
                 delivery points per round, clustered by center), FGT, \
                 best-of-N"
                    .to_owned(),
            ),
        ),
        ("algorithm", Value::String("fgt".to_owned())),
        ("reps", Value::UInt(reps as u64)),
        ("hw_threads", Value::UInt(hw_threads())),
        ("grid", Value::Array(grid)),
    ]);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&out, json + "\n")?;
    fta_obs::info!("wrote {out}");
    Ok(())
}
