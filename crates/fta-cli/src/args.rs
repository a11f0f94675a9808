//! Argument parsing for the `fta` binary (hand-rolled, dependency-free).

use fta_algorithms::{Algorithm, BestResponseEngine, FgtConfig, IegtConfig, MptaConfig};
use fta_durable::FsyncPolicy;
use std::path::PathBuf;

/// The usage banner.
pub const USAGE: &str = "\
usage: fta <COMMAND>

COMMANDS
  generate <syn|gm> [--seed S] [--workers N] [--tasks N] [--dps N]
           [--centers N] [--expiry H] [--max-dp N] --out FILE
      Generate a workload instance and write it as JSON.

  inspect <INSTANCE>
      Print an instance's cardinalities and per-center structure.

  solve <INSTANCE> [--algo gta|mpta|fgt|iegt|random] [--epsilon E]
        [--max-len N] [--br-engine auto|incremental|fastpath]
        [--parallel] [--out FILE] [--budget-ms MS] [--max-states N]
        [--max-rounds N] [--trace-out FILE] [--metrics-out FILE]
        [--ledger-out FILE] [--inject-panic CENTER]
      Run an assignment algorithm; print the summary, optionally write
      the assignment JSON. With --trace-out / --metrics-out a telemetry
      recorder captures the run and writes a JSONL span/round trace and
      a Prometheus text snapshot. --ledger-out writes the versioned
      solve ledger (per-center rung, budget axis, resolve path, work
      counters, fairness). --budget-ms / --max-states / --max-rounds
      bound the solve; on exhaustion the solver degrades gracefully
      (truncated VDPS, GTA fallback, single-stop routes) and reports
      the degradation events instead of overrunning. --inject-panic
      deliberately panics the given center's solve (forensics testing:
      the panic is quarantined and triggers a flight-recorder dump).
      Exits non-zero, naming them, when a center had to be skipped (its
      solve panicked twice) — a failure, unlike a budget degradation.

  simulate [--algo gta|mpta|fgt|iegt|random|immediate] [--seed S]
           [--hours H] [--period-min M] [--workers N] [--dps N]
           [--rate R] [--faults] [--fault-seed S] [--budget-ms MS]
           [--incremental] [--trace-out FILE] [--ledger-out FILE]
           [--durable-dir DIR] [--fsync always|never|N]
           [--snapshot-every N]
      Run the streaming platform simulator for a working day and print
      the longitudinal metrics. --faults enables the seeded
      fault-injection plan (worker no-shows, mid-route dropouts, task
      cancellations, travel-time inflation) with requeue-on-failure;
      --budget-ms runs every assignment round under a wall-clock budget;
      --incremental re-solves rounds against persistent per-center
      caches (delta VDPS updates + equilibrium warm starts) instead of
      solving each round from scratch; --ledger-out writes one solve
      ledger record per assignment round (causal attribution + fairness
      trajectory over cumulative earnings). --durable-dir journals every
      assignment round into DIR as a checksummed commit log + periodic
      snapshots (plus a meta.json describing the run) so `fta recover`
      can resume a crashed day bit-for-bit; --fsync sets the commit-log
      flush policy (always | never | flush every N frames, default 8);
      --snapshot-every sets the snapshot cadence in journaled rounds
      (default 16). Journaling observes the day, it never changes it.
      Exits non-zero after its report, naming them, when any round had
      to skip a center (its solve panicked twice); budget-degraded days
      still exit 0.

  recover <DIR> [--ledger-out FILE]
      Resume a crashed `simulate --durable-dir DIR` day from its
      journal and run it to the horizon; the recovered day is
      bit-for-bit identical to the uninterrupted run (each journaled
      frame carries the complete loop state, including the fault-RNG
      stream position and the incremental solver's caches). A torn
      final frame — the signature of a crash mid-append — costs exactly
      that round, which is re-simulated. --ledger-out re-materialises
      the journaled per-round ledger records and appends the resumed
      rounds, so the ledger is continuous.

  wal-dump <DIR|WAL>
      Decode a durable directory's commit log (and newest snapshot, when
      a directory is given): per-frame round, simulated instant, task
      counters, banked earnings, and payload flags. Torn tails and
      checksum failures are reported, never fatal.

  obs-dump <TRACE> [--chrome] [--by-center]
      Summarise a JSONL telemetry trace written by solve --trace-out
      (span totals, counters, round events); --chrome instead emits
      Chrome trace-event JSON for chrome://tracing / Perfetto;
      --by-center prints a per-center round/moves table.

  flight-dump <SNAPSHOT>
      Decode a flight-recorder snapshot (fta-flight-*.jsonl, written
      automatically when a center panics, a budget exhausts, or a solve
      degrades) and print its events grouped by thread.

  obs-diff <A> <B> [--tolerance PCT] [--ignore FIELD]
      Diff two solve ledgers or two Prometheus snapshots (auto-detected
      from the file contents): per-metric deltas, flagged when outside
      the relative tolerance band (default 0%). Exits non-zero when any
      delta is out of band. --ignore drops every metric whose dotted key
      has a FIELD segment before diffing (repeatable) — e.g.
      `--ignore nanos` excludes the wall-clock counters when pinning
      two runs that must agree on everything deterministic.

  schedule <INSTANCE> --center C --dps A,B,C
      Find the minimum-travel deadline-feasible visiting order of the
      given delivery points.

  compare <INSTANCE> [--epsilon E] [--max-len N] [--parallel]
      Run every assignment algorithm on the instance and print a
      fairness/payoff/CPU comparison table.

OPTIONS
  --br-engine auto|incremental|fastpath   Best-response engine of the
      equilibrium loops (fgt/iegt only; default: auto = fastpath, which
      self-falls-back to the incremental engine's exhaustive evaluation
      when the IAU weights make the monotone scan unsound, i.e. β ≥ 1).
      Both engines reach the same equilibrium.
  --parallel              Run on a worker pool bounded by the number of
      CPUs (one job per center, heaviest first; per-layer DP expansion
      and per-worker validation share the pool). The assignment is the
      sequential one.";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `fta generate`
    Generate {
        /// `syn` or `gm`.
        dataset: String,
        /// Generator seed.
        seed: u64,
        /// Cardinality overrides (`None` = dataset default).
        workers: Option<usize>,
        /// Number of tasks.
        tasks: Option<usize>,
        /// Number of delivery points.
        dps: Option<usize>,
        /// Number of distribution centers (SYN only).
        centers: Option<usize>,
        /// Expiry parameter, hours (SYN only).
        expiry: Option<f64>,
        /// Per-worker maxDP.
        max_dp: Option<usize>,
        /// Output path.
        out: PathBuf,
    },
    /// `fta inspect`
    Inspect {
        /// Instance path.
        instance: PathBuf,
    },
    /// `fta solve`
    Solve {
        /// Instance path.
        instance: PathBuf,
        /// Selected algorithm.
        algorithm: Algorithm,
        /// Display name of the algorithm.
        algorithm_name: String,
        /// ε pruning radius (`None` = unpruned).
        epsilon: Option<f64>,
        /// VDPS length cap.
        max_len: usize,
        /// Best-response engine of the equilibrium loops (`--br-engine`;
        /// `auto` resolves to the self-guarding fast path).
        br_engine: BestResponseEngine,
        /// Per-center threading.
        parallel: bool,
        /// Wall-clock budget for the whole solve, milliseconds.
        budget_ms: Option<u64>,
        /// Per-center cap on retained VDPS DP states.
        max_states: Option<usize>,
        /// Cap on best-response rounds per equilibrium loop.
        max_rounds: Option<usize>,
        /// Optional assignment output path.
        out: Option<PathBuf>,
        /// Optional JSONL telemetry trace output path.
        trace_out: Option<PathBuf>,
        /// Optional Prometheus text snapshot output path.
        metrics_out: Option<PathBuf>,
        /// Optional solve ledger output path (JSONL, schema `fta-ledger`).
        ledger_out: Option<PathBuf>,
        /// Deliberately panic the given center's solve (forensics
        /// testing; the panic is quarantined).
        inject_panic: Option<u32>,
    },
    /// `fta simulate`
    Simulate {
        /// Dispatch policy name (`immediate` or an algorithm name).
        policy: String,
        /// Scenario seed.
        seed: u64,
        /// Simulated horizon, hours.
        hours: f64,
        /// Assignment period, minutes.
        period_minutes: f64,
        /// Number of couriers.
        workers: usize,
        /// Number of delivery points.
        dps: usize,
        /// Task arrivals per hour.
        rate: f64,
        /// Enable the stress fault plan.
        faults: bool,
        /// Seed of the fault plan (defaults to the scenario seed).
        fault_seed: Option<u64>,
        /// Per-round wall-clock solve budget, milliseconds.
        budget_ms: Option<u64>,
        /// Solve rounds incrementally (persistent per-center caches,
        /// delta VDPS updates, equilibrium warm starts).
        incremental: bool,
        /// Optional JSONL telemetry trace output path.
        trace_out: Option<PathBuf>,
        /// Optional per-round solve ledger output path (JSONL, schema
        /// `fta-ledger`).
        ledger_out: Option<PathBuf>,
        /// Durable journaling directory (`None` = journaling off).
        durable_dir: Option<PathBuf>,
        /// Commit-log fsync policy (meaningful with `durable_dir`).
        fsync: FsyncPolicy,
        /// Snapshot cadence in journaled rounds (with `durable_dir`).
        snapshot_every: u64,
        /// Crash drill: abort the process right after journaling this
        /// round (undocumented CI hook; requires `durable_dir`).
        crash_after_round: Option<u64>,
    },
    /// `fta recover`
    Recover {
        /// Durable directory written by `simulate --durable-dir`.
        dir: PathBuf,
        /// Optional continuous ledger output (journaled + resumed rounds).
        ledger_out: Option<PathBuf>,
    },
    /// `fta wal-dump`
    WalDump {
        /// Durable directory, or a `wal.fta` commit-log file directly.
        path: PathBuf,
    },
    /// `fta obs-dump`
    ObsDump {
        /// Trace path (JSONL, schema `fta-obs-trace`).
        trace: PathBuf,
        /// Emit Chrome trace-event JSON instead of the summary.
        chrome: bool,
        /// Print a per-center round/moves table after the summary.
        by_center: bool,
    },
    /// `fta flight-dump`
    FlightDump {
        /// Flight snapshot path (JSONL, schema `fta-flight`).
        snapshot: PathBuf,
    },
    /// `fta obs-diff`
    ObsDiff {
        /// First file (ledger or Prometheus snapshot).
        a: PathBuf,
        /// Second file (same kind as the first).
        b: PathBuf,
        /// Relative tolerance band, percent.
        tolerance_pct: f64,
        /// Key segments to drop from both maps before diffing
        /// (`--ignore`, repeatable) — e.g. `nanos` for wall-clock
        /// counters that legitimately differ between identical runs.
        ignore: Vec<String>,
    },
    /// `fta schedule`
    Schedule {
        /// Instance path.
        instance: PathBuf,
        /// Center id.
        center: u32,
        /// Delivery point ids.
        dps: Vec<u32>,
    },
    /// `fta compare`
    Compare {
        /// Instance path.
        instance: PathBuf,
        /// ε pruning radius (`None` = unpruned).
        epsilon: Option<f64>,
        /// VDPS length cap.
        max_len: usize,
        /// Per-center threading.
        parallel: bool,
    },
}

/// Resolves an algorithm name.
#[must_use]
pub fn algorithm_by_name(name: &str) -> Option<Algorithm> {
    Some(match name {
        "gta" => Algorithm::Gta,
        "mpta" => Algorithm::Mpta(MptaConfig::default()),
        "fgt" => Algorithm::Fgt(FgtConfig::default()),
        "iegt" => Algorithm::Iegt(IegtConfig::default()),
        "random" => Algorithm::Random { seed: 1 },
        _ => return None,
    })
}

fn parse_br_engine(raw: &str) -> Result<BestResponseEngine, String> {
    Ok(match raw {
        // `auto` and `fastpath` are the same engine: FastPath guards its
        // own soundness and falls back to the exhaustive evaluation when
        // the IAU weights demand it, so there is nothing extra for the
        // CLI to decide.
        "auto" | "fastpath" => BestResponseEngine::FastPath,
        "incremental" => BestResponseEngine::Incremental,
        other => {
            return Err(format!(
                "unknown best-response engine `{other}`; expected auto | incremental | fastpath"
            ))
        }
    })
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message (possibly the usage banner) when the
/// arguments do not form a valid invocation.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let command = it.next().ok_or(USAGE)?;
    match command.as_str() {
        "generate" => {
            let dataset = it.next().ok_or("generate needs a dataset: syn | gm")?;
            if dataset != "syn" && dataset != "gm" {
                return Err(format!("unknown dataset `{dataset}`; expected syn | gm"));
            }
            let mut seed = 42u64;
            let (mut workers, mut tasks, mut dps, mut centers) = (None, None, None, None);
            let mut expiry = None;
            let mut max_dp = None;
            let mut out: Option<PathBuf> = None;
            while let Some(arg) = it.next() {
                let mut value = |flag: &str| -> Result<&String, String> {
                    it.next().ok_or_else(|| format!("{flag} needs a value"))
                };
                match arg.as_str() {
                    "--seed" => seed = parse_num(value("--seed")?, "--seed")?,
                    "--workers" => workers = Some(parse_num(value("--workers")?, "--workers")?),
                    "--tasks" => tasks = Some(parse_num(value("--tasks")?, "--tasks")?),
                    "--dps" => dps = Some(parse_num(value("--dps")?, "--dps")?),
                    "--centers" => centers = Some(parse_num(value("--centers")?, "--centers")?),
                    "--expiry" => expiry = Some(parse_num(value("--expiry")?, "--expiry")?),
                    "--max-dp" => max_dp = Some(parse_num(value("--max-dp")?, "--max-dp")?),
                    "--out" => out = Some(PathBuf::from(value("--out")?)),
                    other => return Err(format!("unknown generate flag `{other}`")),
                }
            }
            Ok(Command::Generate {
                dataset: dataset.clone(),
                seed,
                workers,
                tasks,
                dps,
                centers,
                expiry,
                max_dp,
                out: out.ok_or("generate requires --out FILE")?,
            })
        }
        "inspect" => {
            let instance = it.next().ok_or("inspect needs an instance path")?;
            if let Some(extra) = it.next() {
                return Err(format!("unexpected argument `{extra}`"));
            }
            Ok(Command::Inspect {
                instance: PathBuf::from(instance),
            })
        }
        "solve" => {
            let instance = it.next().ok_or("solve needs an instance path")?;
            let mut algorithm_name = "iegt".to_owned();
            let mut epsilon = Some(2.0);
            let mut max_len = 8usize;
            let mut br_engine = BestResponseEngine::default();
            let mut parallel = false;
            let mut budget_ms = None;
            let mut max_states = None;
            let mut max_rounds = None;
            let mut out = None;
            let mut trace_out = None;
            let mut metrics_out = None;
            let mut ledger_out = None;
            let mut inject_panic = None;
            while let Some(arg) = it.next() {
                let mut value = |flag: &str| -> Result<&String, String> {
                    it.next().ok_or_else(|| format!("{flag} needs a value"))
                };
                match arg.as_str() {
                    "--algo" => algorithm_name = value("--algo")?.clone(),
                    "--epsilon" => {
                        let raw = value("--epsilon")?;
                        epsilon = if raw == "none" {
                            None
                        } else {
                            Some(parse_num(raw, "--epsilon")?)
                        };
                    }
                    "--max-len" => max_len = parse_num(value("--max-len")?, "--max-len")?,
                    "--br-engine" => br_engine = parse_br_engine(value("--br-engine")?)?,
                    "--parallel" => parallel = true,
                    "--budget-ms" => {
                        budget_ms = Some(parse_num(value("--budget-ms")?, "--budget-ms")?);
                    }
                    "--max-states" => {
                        max_states = Some(parse_num(value("--max-states")?, "--max-states")?);
                    }
                    "--max-rounds" => {
                        max_rounds = Some(parse_num(value("--max-rounds")?, "--max-rounds")?);
                    }
                    "--out" => out = Some(PathBuf::from(value("--out")?)),
                    "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out")?)),
                    "--metrics-out" => metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
                    "--ledger-out" => ledger_out = Some(PathBuf::from(value("--ledger-out")?)),
                    "--inject-panic" => {
                        inject_panic = Some(parse_num(value("--inject-panic")?, "--inject-panic")?);
                    }
                    other => return Err(format!("unknown solve flag `{other}`")),
                }
            }
            let algorithm = algorithm_by_name(&algorithm_name)
                .ok_or_else(|| format!("unknown algorithm `{algorithm_name}`"))?;
            Ok(Command::Solve {
                instance: PathBuf::from(instance),
                algorithm,
                algorithm_name,
                epsilon,
                max_len,
                br_engine,
                parallel,
                budget_ms,
                max_states,
                max_rounds,
                out,
                trace_out,
                metrics_out,
                ledger_out,
                inject_panic,
            })
        }
        "simulate" => {
            let mut policy = "iegt".to_owned();
            let mut seed = 42u64;
            let mut hours = 2.0f64;
            let mut period_minutes = 15.0f64;
            let mut workers = 12usize;
            let mut dps = 24usize;
            let mut rate = 80.0f64;
            let mut faults = false;
            let mut fault_seed = None;
            let mut budget_ms = None;
            let mut incremental = false;
            let mut trace_out = None;
            let mut ledger_out = None;
            let mut durable_dir = None;
            let mut fsync = FsyncPolicy::EveryN(8);
            let mut fsync_set = false;
            let mut snapshot_every = 16u64;
            let mut snapshot_set = false;
            let mut crash_after_round = None;
            while let Some(arg) = it.next() {
                let mut value = |flag: &str| -> Result<&String, String> {
                    it.next().ok_or_else(|| format!("{flag} needs a value"))
                };
                match arg.as_str() {
                    "--algo" => policy = value("--algo")?.clone(),
                    "--seed" => seed = parse_num(value("--seed")?, "--seed")?,
                    "--hours" => hours = parse_num(value("--hours")?, "--hours")?,
                    "--period-min" => {
                        period_minutes = parse_num(value("--period-min")?, "--period-min")?;
                    }
                    "--workers" => workers = parse_num(value("--workers")?, "--workers")?,
                    "--dps" => dps = parse_num(value("--dps")?, "--dps")?,
                    "--rate" => rate = parse_num(value("--rate")?, "--rate")?,
                    "--faults" => faults = true,
                    "--fault-seed" => {
                        fault_seed = Some(parse_num(value("--fault-seed")?, "--fault-seed")?);
                    }
                    "--budget-ms" => {
                        budget_ms = Some(parse_num(value("--budget-ms")?, "--budget-ms")?);
                    }
                    "--incremental" => incremental = true,
                    "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out")?)),
                    "--ledger-out" => ledger_out = Some(PathBuf::from(value("--ledger-out")?)),
                    "--durable-dir" => {
                        durable_dir = Some(PathBuf::from(value("--durable-dir")?));
                    }
                    "--fsync" => {
                        let raw = value("--fsync")?;
                        fsync = FsyncPolicy::parse(raw).ok_or_else(|| {
                            format!("unknown fsync policy `{raw}`; expected always | never | N")
                        })?;
                        fsync_set = true;
                    }
                    "--snapshot-every" => {
                        snapshot_every = parse_num(value("--snapshot-every")?, "--snapshot-every")?;
                        snapshot_set = true;
                    }
                    "--crash-after-round" => {
                        crash_after_round = Some(parse_num(
                            value("--crash-after-round")?,
                            "--crash-after-round",
                        )?);
                    }
                    other => return Err(format!("unknown simulate flag `{other}`")),
                }
            }
            if durable_dir.is_none() && (fsync_set || snapshot_set || crash_after_round.is_some()) {
                return Err(
                    "--fsync / --snapshot-every / --crash-after-round require --durable-dir".into(),
                );
            }
            if snapshot_set && snapshot_every == 0 {
                return Err("--snapshot-every must be at least 1".into());
            }
            if policy != "immediate" && algorithm_by_name(&policy).is_none() {
                return Err(format!("unknown policy `{policy}`"));
            }
            if incremental && policy == "immediate" {
                return Err("--incremental requires a batch policy (not `immediate`)".into());
            }
            if hours <= 0.0 || period_minutes <= 0.0 {
                return Err("simulate needs positive --hours and --period-min".into());
            }
            Ok(Command::Simulate {
                policy,
                seed,
                hours,
                period_minutes,
                workers,
                dps,
                rate,
                faults,
                fault_seed,
                budget_ms,
                incremental,
                trace_out,
                ledger_out,
                durable_dir,
                fsync,
                snapshot_every,
                crash_after_round,
            })
        }
        "recover" => {
            let dir = it.next().ok_or("recover needs a durable directory")?;
            let mut ledger_out = None;
            while let Some(arg) = it.next() {
                let mut value = |flag: &str| -> Result<&String, String> {
                    it.next().ok_or_else(|| format!("{flag} needs a value"))
                };
                match arg.as_str() {
                    "--ledger-out" => ledger_out = Some(PathBuf::from(value("--ledger-out")?)),
                    other => return Err(format!("unknown recover flag `{other}`")),
                }
            }
            Ok(Command::Recover {
                dir: PathBuf::from(dir),
                ledger_out,
            })
        }
        "wal-dump" => {
            let path = it
                .next()
                .ok_or("wal-dump needs a durable directory or wal file")?;
            if let Some(extra) = it.next() {
                return Err(format!("unexpected argument `{extra}`"));
            }
            Ok(Command::WalDump {
                path: PathBuf::from(path),
            })
        }
        "obs-dump" => {
            let trace = it.next().ok_or("obs-dump needs a trace path")?;
            let mut chrome = false;
            let mut by_center = false;
            for arg in it {
                match arg.as_str() {
                    "--chrome" => chrome = true,
                    "--by-center" => by_center = true,
                    other => return Err(format!("unknown obs-dump flag `{other}`")),
                }
            }
            Ok(Command::ObsDump {
                trace: PathBuf::from(trace),
                chrome,
                by_center,
            })
        }
        "flight-dump" => {
            let snapshot = it.next().ok_or("flight-dump needs a snapshot path")?;
            if let Some(extra) = it.next() {
                return Err(format!("unexpected argument `{extra}`"));
            }
            Ok(Command::FlightDump {
                snapshot: PathBuf::from(snapshot),
            })
        }
        "obs-diff" => {
            let a = it.next().ok_or("obs-diff needs two files to compare")?;
            let b = it.next().ok_or("obs-diff needs two files to compare")?;
            let mut tolerance_pct = 0.0f64;
            let mut ignore = Vec::new();
            while let Some(arg) = it.next() {
                let mut value = |flag: &str| -> Result<&String, String> {
                    it.next().ok_or_else(|| format!("{flag} needs a value"))
                };
                match arg.as_str() {
                    "--tolerance" => {
                        tolerance_pct = parse_num(value("--tolerance")?, "--tolerance")?;
                    }
                    "--ignore" => ignore.push(value("--ignore")?.clone()),
                    other => return Err(format!("unknown obs-diff flag `{other}`")),
                }
            }
            if tolerance_pct.is_nan() || tolerance_pct < 0.0 {
                return Err("--tolerance must be a non-negative percentage".into());
            }
            Ok(Command::ObsDiff {
                a: PathBuf::from(a),
                b: PathBuf::from(b),
                tolerance_pct,
                ignore,
            })
        }
        "schedule" => {
            let instance = it.next().ok_or("schedule needs an instance path")?;
            let mut center = None;
            let mut dps: Vec<u32> = Vec::new();
            while let Some(arg) = it.next() {
                let mut value = |flag: &str| -> Result<&String, String> {
                    it.next().ok_or_else(|| format!("{flag} needs a value"))
                };
                match arg.as_str() {
                    "--center" => center = Some(parse_num(value("--center")?, "--center")?),
                    "--dps" => {
                        dps = value("--dps")?
                            .split(',')
                            .map(|v| parse_num(v.trim(), "--dps"))
                            .collect::<Result<_, _>>()?;
                    }
                    other => return Err(format!("unknown schedule flag `{other}`")),
                }
            }
            if dps.is_empty() {
                return Err("schedule requires --dps A,B,...".into());
            }
            Ok(Command::Schedule {
                instance: PathBuf::from(instance),
                center: center.ok_or("schedule requires --center C")?,
                dps,
            })
        }
        "compare" => {
            let instance = it.next().ok_or("compare needs an instance path")?;
            let mut epsilon = Some(2.0);
            let mut max_len = 8usize;
            let mut parallel = false;
            while let Some(arg) = it.next() {
                let mut value = |flag: &str| -> Result<&String, String> {
                    it.next().ok_or_else(|| format!("{flag} needs a value"))
                };
                match arg.as_str() {
                    "--epsilon" => {
                        let raw = value("--epsilon")?;
                        epsilon = if raw == "none" {
                            None
                        } else {
                            Some(parse_num(raw, "--epsilon")?)
                        };
                    }
                    "--max-len" => max_len = parse_num(value("--max-len")?, "--max-len")?,
                    "--parallel" => parallel = true,
                    other => return Err(format!("unknown compare flag `{other}`")),
                }
            }
            Ok(Command::Compare {
                instance: PathBuf::from(instance),
                epsilon,
                max_len,
                parallel,
            })
        }
        "--help" | "-h" | "help" => Err(USAGE.to_owned()),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_generate_with_overrides() {
        let cmd = parse(&argv(
            "generate syn --seed 9 --workers 50 --tasks 500 --out city.json",
        ))
        .unwrap();
        match cmd {
            Command::Generate {
                dataset,
                seed,
                workers,
                tasks,
                out,
                ..
            } => {
                assert_eq!(dataset, "syn");
                assert_eq!(seed, 9);
                assert_eq!(workers, Some(50));
                assert_eq!(tasks, Some(500));
                assert_eq!(out, PathBuf::from("city.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn generate_requires_out_and_known_dataset() {
        assert!(parse(&argv("generate syn")).is_err());
        assert!(parse(&argv("generate nope --out x.json")).is_err());
    }

    #[test]
    fn parses_solve_defaults() {
        let cmd = parse(&argv("solve city.json")).unwrap();
        match cmd {
            Command::Solve {
                algorithm_name,
                epsilon,
                max_len,
                parallel,
                out,
                ..
            } => {
                assert_eq!(algorithm_name, "iegt");
                assert_eq!(epsilon, Some(2.0));
                assert_eq!(max_len, 8);
                assert!(!parallel);
                assert!(out.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn solve_epsilon_none_disables_pruning() {
        let cmd = parse(&argv(
            "solve city.json --algo gta --epsilon none --parallel",
        ))
        .unwrap();
        match cmd {
            Command::Solve {
                epsilon, parallel, ..
            } => {
                assert_eq!(epsilon, None);
                assert!(parallel);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn solve_rejects_unknown_algorithm() {
        let err = parse(&argv("solve city.json --algo nope")).unwrap_err();
        assert!(err.contains("unknown algorithm"));
    }

    #[test]
    fn solve_rejects_the_retired_shards_flag() {
        // Rounds always run one pool job per center; the flag that
        // regrouped centers into shards is gone.
        let err = parse(&argv("solve city.json --shards 4")).unwrap_err();
        assert!(err.contains("unknown solve flag `--shards`"), "{err}");
    }

    #[test]
    fn solve_rejects_the_retired_shard_by_flag() {
        // The shard partitioner went with the shards themselves.
        for flags in [
            "solve city.json --shard-by geo",
            "solve city.json --shard-by nope",
        ] {
            let err = parse(&argv(flags)).unwrap_err();
            assert!(
                err.contains("unknown solve flag `--shard-by`"),
                "{flags}: {err}"
            );
        }
    }

    #[test]
    fn retired_engine_and_profile_flags_are_rejected() {
        for flags in [
            "solve city.json --engine flat",
            "solve city.json --hotpath-profile hp.json",
            "solve city.json --br-engine exhaustive",
            "compare city.json --engine hashmap",
        ] {
            assert!(parse(&argv(flags)).is_err(), "{flags} was accepted");
        }
    }

    #[test]
    fn br_engine_flag_selects_best_response_engine() {
        // Default is `auto` = the self-guarding fast path.
        match parse(&argv("solve city.json")).unwrap() {
            Command::Solve { br_engine, .. } => {
                assert_eq!(br_engine, BestResponseEngine::FastPath);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cases = [
            ("auto", BestResponseEngine::FastPath),
            ("fastpath", BestResponseEngine::FastPath),
            ("incremental", BestResponseEngine::Incremental),
        ];
        for (name, expected) in cases {
            match parse(&argv(&format!("solve city.json --br-engine {name}"))).unwrap() {
                Command::Solve { br_engine, .. } => assert_eq!(br_engine, expected, "{name}"),
                other => panic!("wrong command {other:?}"),
            }
        }
        let err = parse(&argv("solve city.json --br-engine turbo")).unwrap_err();
        assert!(err.contains("unknown best-response engine"));
    }

    #[test]
    fn solve_accepts_telemetry_outputs() {
        let cmd = parse(&argv(
            "solve city.json --algo gta --trace-out t.jsonl --metrics-out m.prom",
        ))
        .unwrap();
        match cmd {
            Command::Solve {
                trace_out,
                metrics_out,
                ..
            } => {
                assert_eq!(trace_out, Some(PathBuf::from("t.jsonl")));
                assert_eq!(metrics_out, Some(PathBuf::from("m.prom")));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Both default to off.
        match parse(&argv("solve city.json")).unwrap() {
            Command::Solve {
                trace_out,
                metrics_out,
                ..
            } => {
                assert!(trace_out.is_none());
                assert!(metrics_out.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_obs_dump() {
        assert_eq!(
            parse(&argv("obs-dump trace.jsonl")).unwrap(),
            Command::ObsDump {
                trace: PathBuf::from("trace.jsonl"),
                chrome: false,
                by_center: false,
            }
        );
        assert_eq!(
            parse(&argv("obs-dump trace.jsonl --chrome --by-center")).unwrap(),
            Command::ObsDump {
                trace: PathBuf::from("trace.jsonl"),
                chrome: true,
                by_center: true,
            }
        );
        assert!(parse(&argv("obs-dump")).is_err());
        assert!(parse(&argv("obs-dump t.jsonl --nope")).is_err());
    }

    #[test]
    fn parses_flight_dump() {
        assert_eq!(
            parse(&argv("flight-dump fta-flight-1-1.jsonl")).unwrap(),
            Command::FlightDump {
                snapshot: PathBuf::from("fta-flight-1-1.jsonl"),
            }
        );
        assert!(parse(&argv("flight-dump")).is_err());
        assert!(parse(&argv("flight-dump a.jsonl extra")).is_err());
    }

    #[test]
    fn parses_obs_diff_with_tolerance() {
        assert_eq!(
            parse(&argv("obs-diff a.jsonl b.jsonl")).unwrap(),
            Command::ObsDiff {
                a: PathBuf::from("a.jsonl"),
                b: PathBuf::from("b.jsonl"),
                tolerance_pct: 0.0,
                ignore: vec![],
            }
        );
        match parse(&argv("obs-diff a.prom b.prom --tolerance 2.5")).unwrap() {
            Command::ObsDiff { tolerance_pct, .. } => {
                assert!((tolerance_pct - 2.5).abs() < 1e-12);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("obs-diff a.jsonl")).is_err());
        assert!(parse(&argv("obs-diff a b --tolerance -1")).is_err());
        assert!(parse(&argv("obs-diff a b --nope")).is_err());
    }

    #[test]
    fn obs_diff_ignore_is_repeatable() {
        match parse(&argv(
            "obs-diff a.jsonl b.jsonl --ignore nanos --ignore rung",
        ))
        .unwrap()
        {
            Command::ObsDiff { ignore, .. } => {
                assert_eq!(ignore, vec!["nanos".to_owned(), "rung".to_owned()]);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("obs-diff a b --ignore")).is_err());
    }

    #[test]
    fn simulate_parses_durable_flags() {
        let cmd = parse(&argv(
            "simulate --algo gta --durable-dir /tmp/day --fsync always --snapshot-every 4 \
             --crash-after-round 3",
        ))
        .unwrap();
        match cmd {
            Command::Simulate {
                durable_dir,
                fsync,
                snapshot_every,
                crash_after_round,
                ..
            } => {
                assert_eq!(durable_dir, Some(PathBuf::from("/tmp/day")));
                assert_eq!(fsync, FsyncPolicy::Always);
                assert_eq!(snapshot_every, 4);
                assert_eq!(crash_after_round, Some(3));
            }
            other => panic!("wrong command {other:?}"),
        }
        // The numeric fsync spelling selects every-N.
        match parse(&argv("simulate --durable-dir d --fsync 32")).unwrap() {
            Command::Simulate { fsync, .. } => assert_eq!(fsync, FsyncPolicy::EveryN(32)),
            other => panic!("wrong command {other:?}"),
        }
        // Durable knobs without the directory are a configuration error…
        assert!(parse(&argv("simulate --fsync always")).is_err());
        assert!(parse(&argv("simulate --snapshot-every 8")).is_err());
        assert!(parse(&argv("simulate --durable-dir d --crash-after-round 1")).is_ok());
        // …and so are nonsense values.
        assert!(parse(&argv("simulate --durable-dir d --fsync sometimes")).is_err());
        assert!(parse(&argv("simulate --durable-dir d --snapshot-every 0")).is_err());
    }

    #[test]
    fn parses_recover_and_wal_dump() {
        assert_eq!(
            parse(&argv("recover /tmp/day")).unwrap(),
            Command::Recover {
                dir: PathBuf::from("/tmp/day"),
                ledger_out: None,
            }
        );
        match parse(&argv("recover /tmp/day --ledger-out l.jsonl")).unwrap() {
            Command::Recover { ledger_out, .. } => {
                assert_eq!(ledger_out, Some(PathBuf::from("l.jsonl")));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("recover")).is_err());
        assert!(parse(&argv("recover d --nope")).is_err());

        assert_eq!(
            parse(&argv("wal-dump /tmp/day")).unwrap(),
            Command::WalDump {
                path: PathBuf::from("/tmp/day"),
            }
        );
        assert!(parse(&argv("wal-dump")).is_err());
        assert!(parse(&argv("wal-dump a b")).is_err());
    }

    #[test]
    fn solve_accepts_ledger_out_and_inject_panic() {
        match parse(&argv(
            "solve city.json --algo gta --ledger-out l.jsonl --inject-panic 2",
        ))
        .unwrap()
        {
            Command::Solve {
                ledger_out,
                inject_panic,
                ..
            } => {
                assert_eq!(ledger_out, Some(PathBuf::from("l.jsonl")));
                assert_eq!(inject_panic, Some(2));
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("solve city.json")).unwrap() {
            Command::Solve {
                ledger_out,
                inject_panic,
                ..
            } => {
                assert!(ledger_out.is_none());
                assert!(inject_panic.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_schedule_dp_list() {
        let cmd = parse(&argv("schedule city.json --center 2 --dps 4,7,11")).unwrap();
        assert_eq!(
            cmd,
            Command::Schedule {
                instance: PathBuf::from("city.json"),
                center: 2,
                dps: vec![4, 7, 11],
            }
        );
    }

    #[test]
    fn schedule_requires_center_and_dps() {
        assert!(parse(&argv("schedule city.json --dps 1")).is_err());
        assert!(parse(&argv("schedule city.json --center 0")).is_err());
    }

    #[test]
    fn solve_parses_budget_flags() {
        let cmd = parse(&argv(
            "solve city.json --algo fgt --budget-ms 250 --max-states 5000 --max-rounds 20",
        ))
        .unwrap();
        match cmd {
            Command::Solve {
                budget_ms,
                max_states,
                max_rounds,
                ..
            } => {
                assert_eq!(budget_ms, Some(250));
                assert_eq!(max_states, Some(5000));
                assert_eq!(max_rounds, Some(20));
            }
            other => panic!("wrong command {other:?}"),
        }
        // All default to unlimited.
        match parse(&argv("solve city.json")).unwrap() {
            Command::Solve {
                budget_ms,
                max_states,
                max_rounds,
                ..
            } => {
                assert!(budget_ms.is_none());
                assert!(max_states.is_none());
                assert!(max_rounds.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_simulate_with_faults_and_budget() {
        let cmd = parse(&argv(
            "simulate --algo gta --seed 7 --hours 1.5 --period-min 10 --workers 9 \
             --dps 18 --rate 50 --faults --fault-seed 99 --budget-ms 5 --trace-out t.jsonl",
        ))
        .unwrap();
        match cmd {
            Command::Simulate {
                policy,
                seed,
                hours,
                period_minutes,
                workers,
                dps,
                rate,
                faults,
                fault_seed,
                budget_ms,
                incremental,
                trace_out,
                ledger_out,
                durable_dir,
                fsync,
                snapshot_every,
                crash_after_round,
            } => {
                assert_eq!(policy, "gta");
                assert!(!incremental);
                assert!(ledger_out.is_none());
                assert!(durable_dir.is_none());
                assert_eq!(fsync, FsyncPolicy::EveryN(8));
                assert_eq!(snapshot_every, 16);
                assert!(crash_after_round.is_none());
                assert_eq!(seed, 7);
                assert!((hours - 1.5).abs() < 1e-12);
                assert!((period_minutes - 10.0).abs() < 1e-12);
                assert_eq!(workers, 9);
                assert_eq!(dps, 18);
                assert!((rate - 50.0).abs() < 1e-12);
                assert!(faults);
                assert_eq!(fault_seed, Some(99));
                assert_eq!(budget_ms, Some(5));
                assert_eq!(trace_out, Some(PathBuf::from("t.jsonl")));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn simulate_defaults_and_rejections() {
        match parse(&argv("simulate")).unwrap() {
            Command::Simulate {
                policy,
                faults,
                fault_seed,
                budget_ms,
                ..
            } => {
                assert_eq!(policy, "iegt");
                assert!(!faults);
                assert!(fault_seed.is_none());
                assert!(budget_ms.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("simulate --algo immediate")).is_ok());
        assert!(parse(&argv("simulate --algo nope")).is_err());
        assert!(parse(&argv("simulate --hours 0")).is_err());
        match parse(&argv("simulate --algo fgt --incremental")).unwrap() {
            Command::Simulate { incremental, .. } => assert!(incremental),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("simulate --algo gta --ledger-out day.jsonl")).unwrap() {
            Command::Simulate { ledger_out, .. } => {
                assert_eq!(ledger_out, Some(PathBuf::from("day.jsonl")));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(
            parse(&argv("simulate --algo immediate --incremental")).is_err(),
            "--incremental must require a batch policy"
        );
    }

    #[test]
    fn help_and_unknown_commands_return_usage() {
        assert!(parse(&argv("--help")).unwrap_err().contains("usage: fta"));
        assert!(parse(&argv("frobnicate"))
            .unwrap_err()
            .contains("usage: fta"));
        assert!(parse(&[]).unwrap_err().contains("usage: fta"));
    }
}
