//! Writes `BENCH_br.json`: a machine-readable snapshot of FGT's
//! best-response loop at the default IAU weights (the monotone candidate
//! search) across an `n × |ST|` grid, so the perf trajectory of the
//! equilibrium loop is tracked in-repo. Strategy spaces are built once per
//! row and FGT runs to convergence over them, so the timings isolate the
//! equilibrium loop from VDPS generation.
//!
//! Each row records the loop's wall time and work counters, and the rows
//! the exhaustive search would have scanned in the same rounds (every
//! worker's whole valid list per turn: Σ over centers of
//! `rounds × total_slots`), whose ratio to the rows scanned is
//! `scan_reduction`.
//!
//! Usage: `cargo run -p fta-bench --release --bin br_snapshot -- [OUT]`
//! (default OUT: `BENCH_br.json`). Set `FTA_BENCH_QUICK=1` to reduce the
//! repetition counts (CI smoke mode).
//!
//! The `small` and `paper` rows keep the paper's worker-to-delivery-point
//! ratio (Table I: 2 000 workers / 5 000 DPs / 50 centers). The `dense`
//! row is perfbench's `dense` shape (8 centers, 2 400 workers, 480
//! delivery points): supply is starved, so most workers find every point
//! of their valid rows taken, and the reach test answers their best
//! response with one test per row length.

use fta_algorithms::{fgt, BestResponseStats, FgtConfig, GameContext};
use fta_bench::{best_secs, hw_threads, obj};
use fta_data::SynConfig;
use fta_vdps::{StrategySpace, VdpsConfig};
use serde_json::Value;

struct Row {
    label: &'static str,
    syn: SynConfig,
    seed: u64,
}

/// A Table I-ratio shape: 20 tasks per delivery point over 4 km.
fn paper_ratio(n_centers: usize, n_workers: usize, n_dps: usize) -> SynConfig {
    SynConfig {
        n_centers,
        n_workers,
        n_tasks: n_dps * 20,
        n_delivery_points: n_dps,
        extent: 4.0,
        ..SynConfig::bench_scale()
    }
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
            syn: paper_ratio(20, 200, 1200),
            seed: 5,
        },
        Row {
            label: "paper",
            syn: paper_ratio(100, 1000, 6000),
            seed: 3,
        },
        Row {
            label: "dense",
            syn: SynConfig {
                n_centers: 8,
                n_workers: 2_400,
                n_tasks: 12_000,
                n_delivery_points: 480,
                ..SynConfig::bench_scale()
            },
            seed: 5,
        },
    ];

    let mut grid = Vec::new();
    for row in &rows {
        let instance = fta_data::generate_syn(&row.syn, row.seed);
        let views = instance.center_views();
        let spaces: Vec<StrategySpace> = views
            .iter()
            .map(|view| StrategySpace::build(&instance, view, &vdps))
            .collect();
        let total_slots: usize = spaces.iter().map(StrategySpace::total_slots).sum();

        // Every center's counters: the exhaustive scan count is per center
        // (its rounds times its slots).
        let run = || -> Vec<BestResponseStats> {
            spaces
                .iter()
                .map(|space| {
                    let mut ctx = GameContext::new(space);
                    fgt(&mut ctx, &FgtConfig::default()).stats
                })
                .collect()
        };
        let fastpath_s = best_secs(reps, run);
        let per_center = run();
        let mut fast = BestResponseStats::default();
        per_center.iter().for_each(|s| fast.merge(s));
        let exhaustive_scanned: u64 = spaces
            .iter()
            .zip(&per_center)
            .map(|(space, s)| s.rounds * space.total_slots() as u64)
            .sum();
        let scan_reduction = exhaustive_scanned as f64 / fast.candidates_scanned.max(1) as f64;

        fta_obs::info!(
            "{}: n={} |ST|={} — fastpath {:.2} ms ({:.1}x fewer scans than exhaustive)",
            row.label,
            row.syn.n_workers,
            total_slots,
            fastpath_s * 1e3,
            scan_reduction
        );

        grid.push(obj(vec![
            ("label", Value::String(row.label.to_owned())),
            ("n_workers", Value::UInt(row.syn.n_workers as u64)),
            ("n_centers", Value::UInt(row.syn.n_centers as u64)),
            ("n_dps", Value::UInt(row.syn.n_delivery_points as u64)),
            ("total_slots", Value::UInt(total_slots as u64)),
            ("fastpath_ms", Value::Float(fastpath_s * 1e3)),
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
                Value::UInt(exhaustive_scanned),
            ),
        ]));
    }

    let snapshot = obj(vec![
        (
            "description",
            Value::String(
                "FGT equilibrium-loop wall time over prebuilt strategy \
                 spaces, best-of-N, default IAU weights (monotone candidate \
                 search); exhaustive_candidates_scanned is the exhaustive \
                 search's scan count for the same rounds, derived as \
                 rounds x total_slots per center"
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
