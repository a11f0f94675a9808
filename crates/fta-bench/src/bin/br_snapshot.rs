//! Writes `BENCH_br.json`: a machine-readable snapshot of the
//! best-response engine comparison (incremental rival-set vs monotone
//! fast path) across an `engine × n × |ST|` grid,
//! so the perf trajectory of the equilibrium-loop fast path is tracked
//! in-repo. Strategy spaces are built once per row and every engine runs
//! FGT to convergence over the same spaces, so the timings isolate the
//! equilibrium loop from VDPS generation.
//!
//! Usage: `cargo run -p fta-bench --release --bin br_snapshot -- [OUT]`
//! (default OUT: `BENCH_br.json`). Set `FTA_BENCH_QUICK=1` to reduce the
//! repetition counts (CI smoke mode). In every mode the binary *asserts*
//! that the fast path is never slower than the incremental engine on any
//! row — CI runs it in quick mode as a regression gate.
//!
//! The rows keep the paper's worker-to-delivery-point ratio (Table I:
//! 2 000 workers / 5 000 DPs / 50 centers) rather than an over-subscribed
//! shape: when supply is starved, workers without any available strategy
//! must exhaust their lists under every engine and no scan policy helps.

use fta_algorithms::{fgt, BestResponseEngine, BestResponseStats, FgtConfig, GameContext};
use fta_bench::{best_secs, hw_threads, obj};
use fta_data::SynConfig;
use fta_vdps::{StrategySpace, VdpsConfig};
use serde_json::Value;

struct Row {
    label: &'static str,
    n_centers: usize,
    n_workers: usize,
    n_dps: usize,
    seed: u64,
}

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_br.json".to_owned());
    let quick = std::env::var_os("FTA_BENCH_QUICK").is_some();
    let reps = if quick { 2 } else { 5 };
    let vdps = VdpsConfig::pruned(2.0, 3);

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
        let instance = fta_data::generate_syn(
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
        let views = instance.center_views();
        let spaces: Vec<StrategySpace> = views
            .iter()
            .map(|view| StrategySpace::build(&instance, view, &vdps))
            .collect();
        let total_slots: usize = spaces.iter().map(StrategySpace::total_slots).sum();

        let run = |engine: BestResponseEngine| -> BestResponseStats {
            let cfg = FgtConfig {
                engine,
                ..FgtConfig::default()
            };
            let mut stats = BestResponseStats::default();
            for space in &spaces {
                let mut ctx = GameContext::new(space);
                stats.merge(&fgt(&mut ctx, &cfg).stats);
            }
            stats
        };

        let engines = [
            BestResponseEngine::Incremental,
            BestResponseEngine::FastPath,
        ];
        let mut secs = [0.0f64; 2];
        let mut stats = [BestResponseStats::default(); 2];
        for (i, &engine) in engines.iter().enumerate() {
            secs[i] = best_secs(reps, || run(engine));
            stats[i] = run(engine);
        }
        let [incremental_s, fastpath_s] = secs;
        let [incremental, fast] = stats;
        let speedup_incremental = incremental_s / fastpath_s;
        let scan_reduction =
            incremental.candidates_scanned as f64 / fast.candidates_scanned.max(1) as f64;

        fta_obs::info!(
            "{}: n={} |ST|={} — incremental {:.2} ms, \
             fastpath {:.2} ms ({:.2}x vs incremental, {:.1}x fewer scans)",
            row.label,
            row.n_workers,
            total_slots,
            incremental_s * 1e3,
            fastpath_s * 1e3,
            speedup_incremental,
            scan_reduction
        );

        // Regression gate: the fast path must never lose to the engine it
        // supersedes. Deterministic work counters put the margin far above
        // timer noise on every row of this grid.
        assert!(
            fastpath_s <= incremental_s,
            "{}: fastpath ({:.3} ms) slower than incremental ({:.3} ms)",
            row.label,
            fastpath_s * 1e3,
            incremental_s * 1e3
        );

        grid.push(obj(vec![
            ("label", Value::String(row.label.to_owned())),
            ("n_workers", Value::UInt(row.n_workers as u64)),
            ("n_centers", Value::UInt(row.n_centers as u64)),
            ("n_dps", Value::UInt(row.n_dps as u64)),
            ("total_slots", Value::UInt(total_slots as u64)),
            ("incremental_ms", Value::Float(incremental_s * 1e3)),
            ("fastpath_ms", Value::Float(fastpath_s * 1e3)),
            (
                "speedup_fastpath_vs_incremental",
                Value::Float(speedup_incremental),
            ),
            ("scan_reduction", Value::Float(scan_reduction)),
            (
                "fastpath_counters",
                obj(vec![
                    ("rounds", Value::UInt(fast.rounds)),
                    ("fastpath_rounds", Value::UInt(fast.fastpath_rounds)),
                    ("candidates_scanned", Value::UInt(fast.candidates_scanned)),
                    ("early_exits", Value::UInt(fast.early_exits)),
                    (
                        "candidate_evaluations",
                        Value::UInt(fast.candidate_evaluations),
                    ),
                ]),
            ),
            (
                "exhaustive_candidates_scanned",
                Value::UInt(incremental.candidates_scanned),
            ),
        ]));
    }

    let snapshot = obj(vec![
        (
            "description",
            Value::String(
                "FGT equilibrium-loop wall time by best-response engine \
                 (incremental rival-set vs monotone fast path) over prebuilt \
                 strategy spaces, best-of-N, default IAU weights (fast-path \
                 sound)"
                    .to_owned(),
            ),
        ),
        ("reps", Value::UInt(reps as u64)),
        ("hw_threads", Value::UInt(hw_threads())),
        ("grid", Value::Array(grid)),
    ]);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&out, json + "\n")?;
    fta_obs::info!("wrote {out}");
    Ok(())
}
