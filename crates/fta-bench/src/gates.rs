//! Shared regression-gate knobs for the snapshot binaries and the schema
//! tests that re-check the committed snapshots.
//!
//! Every `BENCH_*.json` writer *asserts* its own floors before writing,
//! and `tests/bench_snapshots.rs` re-asserts the same floors against the
//! committed files — the two sides must agree on the numbers, so the
//! numbers live here exactly once. Quick mode (`FTA_BENCH_QUICK=1`, the
//! CI smoke configuration) shrinks grids and repetition counts until
//! best-of-reps estimates are dominated by machine noise; gates that
//! compare two timed paths therefore widen in quick mode, while the
//! committed full-mode snapshots carry the real perf evidence.

/// Whether quick (CI smoke) mode is active: shrunken grids, fewer
/// repetitions, widened noise-sensitive gates.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var_os("FTA_BENCH_QUICK").is_some()
}

/// Paper-scale floor on the incremental path under delivery churn: the
/// warm re-solve must beat per-round cold solves by at least this factor
/// (`BENCH_incremental.json`, `paper/drop` row).
pub const WARM_PAPER_DROP_FLOOR: f64 = 3.0;

/// Noise allowance for the `aged` churn mode, where uniform deadline
/// aging rebuilds every route payload and the warm path's structural win
/// is thin: warm must stay within this factor of cold. 30% in quick mode
/// — 2 reps over 3 rounds leave the best-of-reps estimate dominated by
/// machine noise (observed swing on one box: 0.87x–1.44x across
/// back-to-back quick runs) — and 10% in full mode.
#[must_use]
pub fn aged_noise_band(quick: bool) -> f64 {
    if quick {
        1.30
    } else {
        1.10
    }
}

/// Floor on the chunked-limb availability-scan kernels vs the scalar loops
/// they replaced (`BENCH_hotpath.json`, best of the `best_open` and
/// `sweep` rows): the kernels must clear this speedup in full mode. Quick
/// mode only smoke-checks that the chunked kernels are not a regression.
#[must_use]
pub fn hotpath_scan_floor(quick: bool) -> f64 {
    if quick {
        1.1
    } else {
        1.5
    }
}

/// Floor on the rewritten dedup table (limb-split keys, batched probes,
/// stored folds across rehash) vs the legacy scalar-probe layout. The
/// win is structural but modest — hashing and cache misses dominate — so
/// the gate is a no-regression band rather than a headline speedup.
/// Quick mode shrinks the fixture to ~1 ms of work, where best-of-reps
/// still swings ±20% run-to-run (observed 0.83x–1.16x on one build), so
/// the quick band widens to match; the full-mode snapshot carries the
/// real no-regression evidence.
#[must_use]
pub fn hotpath_dedup_floor(quick: bool) -> f64 {
    if quick {
        0.75
    } else {
        1.00
    }
}

/// Ceiling on a journaled day's wall time relative to the identical
/// un-journaled day at the recommended fsync cadence
/// (`BENCH_durable.json`, `every-8` row): the acceptance budget for the
/// durability layer is <=5% round overhead. Quick mode times a day of
/// only a few milliseconds, where best-of-reps swings far past the real
/// journaling cost and a single slow fsync on a shared CI disk can eat
/// the whole band — so quick mode only smoke-checks that journaling is
/// not a gross regression.
#[must_use]
pub fn durable_overhead_ceiling(quick: bool) -> f64 {
    if quick {
        1.40
    } else {
        1.05
    }
}

/// Floor on the sharded concurrent solve vs the flat sequential solve
/// (`BENCH_scale.json`): the headline scale-out win. Parallel speedup is
/// a property of the hardware as much as the code, so the floor is
/// *capability-conditioned*: it is asserted only on grid rows solved
/// with at least [`SCALE_FLOOR_MIN_THREADS`] pool threads and
/// [`SCALE_FLOOR_MIN_CENTERS`] centers (the snapshot records the thread
/// count it ran with). On narrower machines — including single-core CI
/// boxes, where a >1x concurrent speedup is physically impossible — the
/// sharded path is instead held to [`scale_noise_band`]: it must never
/// *lose* to the sequential path beyond timer noise at any swept size.
pub const SCALE_SPEEDUP_FLOOR: f64 = 3.0;

/// Minimum pool threads for [`SCALE_SPEEDUP_FLOOR`] to be asserted.
pub const SCALE_FLOOR_MIN_THREADS: usize = 4;

/// Minimum centers for [`SCALE_SPEEDUP_FLOOR`] to be asserted.
pub const SCALE_FLOOR_MIN_CENTERS: usize = 64;

/// No-loss band for the sharded solve at *every* swept size and thread
/// count: scheduling overhead (shard planning, cost estimation, the
/// prioritized submit) must stay within timer noise of the flat path.
/// Quick mode times rows of a few milliseconds where best-of-reps still
/// swings ±25%; full-mode rows are hundreds of milliseconds and the
/// band tightens accordingly.
#[must_use]
pub fn scale_noise_band(quick: bool) -> f64 {
    if quick {
        1.35
    } else {
        1.15
    }
}

/// Ceiling on the ε-adjacency build's share of the dp span in pruned
/// generation over a paper-shape snapshot (`BENCH_vdps.json`,
/// `generation_pruned`): `vdps.adjacency` must stay at most this
/// fraction of `vdps.dp`, which contains it. One pass over a center's
/// point pairs measures 0.09–0.11 on a 2-core x86-64 box; the cell grid
/// it replaced measured 0.37–0.41. The ratio compares two spans of the
/// same run, so quick mode needs no wider band.
pub const PRUNED_ADJACENCY_SHARE: f64 = 0.2;
