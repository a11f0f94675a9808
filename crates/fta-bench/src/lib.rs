//! # fta-bench — benchmark harness for the FTA reproduction
//!
//! * `src/bin/reproduce.rs` — the `reproduce` binary regenerating every
//!   table and figure of the paper (run `reproduce --help`);
//! * `benches/vdps.rs` — Criterion benchmarks of C-VDPS generation with and
//!   without ε pruning (the CPU-time panels of Figures 2–3);
//! * `benches/assignment.rs` — Criterion benchmarks of the four assignment
//!   algorithms across instance sizes (Figures 4–9 CPU panels);
//! * `benches/convergence.rs` — rounds-to-equilibrium benchmarks (Fig. 12);
//! * `benches/ablation.rs` — design-choice ablations: IEGT redraw policies,
//!   FGT restart counts, and IAU α/β weights;
//! * `benches/rivalset.rs` — rebuild-per-turn vs incremental rival-payoff
//!   engines in the FGT best-response loop at 50/200/1000 workers.
//!
//! This crate intentionally contains no library logic beyond small helpers
//! shared by the benches; everything measurable lives in `fta-experiments`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use fta_core::Instance;
use fta_data::{GMissionConfig, SynConfig};
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

pub mod gates;

/// Best-of-`reps` wall time of `f`, in seconds. Best-of (not mean-of)
/// because scheduling noise is strictly additive: the minimum is the
/// least contaminated estimate of the work itself.
pub fn best_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Wall times of `runs` alternatives over `passes` interleaved passes,
/// in seconds: `out[r][p]` is the time `run(r)` took in pass `p`. Every
/// pass runs each alternative once; odd passes run them in reverse
/// order, so no alternative always goes first. Interleaving spreads
/// drift in the machine's load over every alternative alike.
pub fn interleaved_secs(passes: usize, runs: usize, mut run: impl FnMut(usize)) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::with_capacity(passes); runs];
    for pass in 0..passes {
        for i in 0..runs {
            let r = if pass % 2 == 1 { runs - 1 - i } else { i };
            let t = Instant::now();
            run(r);
            out[r].push(t.elapsed().as_secs_f64());
        }
    }
    out
}

/// The median of `xs` (the mean of the middle two for an even count);
/// NaN when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Hardware threads of the machine a snapshot was recorded on, so a
/// reader can tell the timings' context apart.
#[must_use]
pub fn hw_threads() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// A `serde_json` object from `(key, value)` pairs, preserving insertion
/// order (the snapshot writers keep fields in a stable, diff-friendly
/// order).
#[must_use]
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A GM-scale instance used by several benches (Table I defaults).
#[must_use]
pub fn gm_default(seed: u64) -> Instance {
    fta_data::generate_gmission(&GMissionConfig::default(), seed)
}

/// A single-center SYN-like instance with the given worker/delivery-point
/// counts, used to sweep subproblem size in benches.
#[must_use]
pub fn syn_single_center(n_workers: usize, n_dps: usize, seed: u64) -> Instance {
    fta_data::generate_syn(
        &SynConfig {
            n_centers: 1,
            n_workers,
            n_tasks: n_dps * 20,
            n_delivery_points: n_dps,
            extent: 4.0,
            ..SynConfig::bench_scale()
        },
        seed,
    )
}
