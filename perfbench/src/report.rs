//! The metric tables and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares;
//! `selfcheck.py` checks that the two agree.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_ms.p50", "ms"),
    ("round_ms.p95", "ms"),
    ("p_dif", "payoff"),
    ("avg_payoff", "payoff"),
    ("assigned_frac", "ratio"),
    ("completion_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). A layer a
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "ratio"),
    ("hw_threads", "count"),
    ("host.kernel_ms", "ms"),
    ("core.snapshot_ms", "ms"),
    ("vdps.generate_ms", "ms"),
    ("vdps.generate_share", "ratio"),
    ("vdps.states", "count"),
    ("vdps.extensions", "count"),
    ("vdps.sets", "count"),
    ("vdps.sets_per_state", "ratio"),
    ("vdps.ns_per_extension", "ns"),
    ("vdps.strategy_ms", "ms"),
    ("vdps.strategy_share", "ratio"),
    ("vdps.slots", "count"),
    ("vdps.ns_per_slot", "ns"),
    ("vdps.pool_speedup", "x"),
    ("vdps.pool_time_overcount", "x"),
    ("algo.fgt_ms", "ms"),
    ("algo.gta_ms", "ms"),
    ("algo.iegt_ms", "ms"),
    ("algo.mpta_ms", "ms"),
    ("algo.mpta_over_fgt", "x"),
    ("algo.gta_over_fgt", "x"),
    ("algo.br_rounds", "count"),
    ("algo.br_evaluations", "count"),
    ("algo.br_scanned", "count"),
    ("algo.br_switches", "count"),
    ("algo.switches_per_eval", "ratio"),
    ("algo.merge_ms", "ms"),
    ("algo.solve_ms", "ms"),
    ("algo.unattributed_ms", "ms"),
    ("algo.coverage", "ratio"),
    ("algo.resolve_ms", "ms"),
    ("algo.centers_clean", "count"),
    ("algo.centers_warm", "count"),
    ("algo.centers_cold", "count"),
    ("algo.resolve_vs_cold", "x"),
    ("sim.day_ms", "ms"),
    ("sim.engine_ms", "ms"),
    ("sim.cold_day_ms", "ms"),
    ("sim.cold_completion_rate", "ratio"),
    ("durable.overhead_ms", "ms"),
    ("durable.bytes", "bytes"),
    ("durable.recover_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The outcome of one run: gate verdicts, operation counts and metrics.
pub struct Report {
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Center solves attempted.
    pub attempted: u64,
    /// Center solves that failed: panicked, skipped, degraded, or part of
    /// a round that failed validation.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    /// Records a gate; a failed gate is reported on stderr and makes the
    /// run incorrect.
    pub fn gate(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("gate failed: {what}");
            self.correct = false;
        }
    }

    /// Sets a metric by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table: a typo must not slip through.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints the table's metrics by name and unit to stderr, then the
    /// result object as the last line of stdout.
    pub fn print(&self, table: &[(&'static str, &'static str)]) {
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let mut value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                eprintln!("{name} is not finite ({value}); reported as 0");
                value = 0.0;
            }
            eprintln!("{name:>26} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of `values` (mean of the two middle values for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
