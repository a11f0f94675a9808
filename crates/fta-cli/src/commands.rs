//! Command execution for the `fta` binary.

use crate::args::Command;
use fta_algorithms::{solve, SolveConfig};
use fta_core::{CenterId, DeliveryPointId, SolveBudget, WorkerId};
use fta_data::io::{load_instance, save_assignment, save_instance};
use fta_data::{generate_gmission, generate_syn, GMissionConfig, SynConfig};
use fta_durable::FsyncPolicy;
use fta_vdps::{schedule_route, VdpsConfig};
use std::fmt::Write as _;

/// Milliseconds since the Unix epoch (ledger header timestamps).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The solve ledger's `engine` key: the candidate search the algorithm's
/// best-response turns take, `"exhaustive"` when its IAU weights make the
/// monotone scan unsound ([`fta_algorithms::fastpath_sound`]) and
/// `"fastpath"` otherwise (IEGT's raw-payoff utilities and the baselines
/// included).
fn br_search(algorithm: &fta_algorithms::Algorithm) -> &'static str {
    use fta_algorithms::{fastpath_sound, Algorithm};
    let sound = match algorithm {
        Algorithm::Fgt(cfg) => fastpath_sound(cfg.iau),
        Algorithm::Pfgt(cfg) => fastpath_sound(cfg.base.iau),
        _ => true,
    };
    if sound {
        "fastpath"
    } else {
        "exhaustive"
    }
}

/// Name of the run-description file `simulate --durable-dir` writes next
/// to the journal, so `fta recover <DIR>` is self-contained.
pub const META_FILE: &str = "meta.json";

/// The CLI-level simulation parameters — everything needed to rebuild
/// the exact [`fta_sim::Scenario`] and [`fta_sim::SimConfig`] of a
/// `simulate` invocation. Persisted as `meta.json` in durable
/// directories and read back by `recover`.
struct SimParams {
    policy: String,
    seed: u64,
    hours: f64,
    period_minutes: f64,
    workers: usize,
    dps: usize,
    rate: f64,
    faults: bool,
    fault_seed: Option<u64>,
    budget_ms: Option<u64>,
    incremental: bool,
}

impl SimParams {
    /// Builds the scenario and (non-durable) simulation config. Shared
    /// by `simulate` and `recover` so a recovered day is constructed
    /// through the exact same code path as the original one.
    fn build(&self) -> Result<(fta_sim::Scenario, fta_sim::SimConfig), String> {
        use fta_sim::{DispatchPolicy, FaultPlan, Scenario, ScenarioConfig, SimConfig};
        let scenario = Scenario::generate(
            &ScenarioConfig {
                n_workers: self.workers,
                n_delivery_points: self.dps,
                arrival_rate: self.rate,
                ..ScenarioConfig::default()
            },
            self.hours,
            self.seed,
        );
        let dispatch = if self.policy == "immediate" {
            DispatchPolicy::Immediate
        } else {
            let algorithm = crate::args::algorithm_by_name(&self.policy)
                .ok_or_else(|| format!("unknown policy `{}`", self.policy))?;
            DispatchPolicy::Batch(algorithm)
        };
        let mut config = SimConfig {
            horizon: self.hours,
            assignment_period: self.period_minutes / 60.0,
            policy: dispatch,
            vdps: VdpsConfig::pruned(2.0, 3),
            ..SimConfig::day(fta_algorithms::Algorithm::Gta)
        };
        if let Some(ms) = self.budget_ms {
            config.budget = SolveBudget::wall_ms(ms);
        }
        config.incremental = self.incremental;
        if self.faults {
            config.faults = Some(FaultPlan::stress(self.fault_seed.unwrap_or(self.seed)));
        }
        Ok((scenario, config))
    }

    /// Serialises the parameters (plus the journal knobs) as `meta.json`.
    fn meta_json(&self, fsync: FsyncPolicy, snapshot_every: u64) -> String {
        use serde_json::Value;
        let opt_u64 = |v: Option<u64>| v.map(Value::UInt).unwrap_or(Value::Null);
        let fsync = match fsync {
            FsyncPolicy::Always => "always".to_owned(),
            FsyncPolicy::Never => "never".to_owned(),
            FsyncPolicy::EveryN(n) => n.to_string(),
        };
        let fields = vec![
            ("schema", Value::String("fta-sim-meta".to_owned())),
            ("version", Value::UInt(1)),
            ("policy", Value::String(self.policy.clone())),
            ("seed", Value::UInt(self.seed)),
            ("hours", Value::Float(self.hours)),
            ("period_minutes", Value::Float(self.period_minutes)),
            ("workers", Value::UInt(self.workers as u64)),
            ("dps", Value::UInt(self.dps as u64)),
            ("rate", Value::Float(self.rate)),
            ("faults", Value::Bool(self.faults)),
            ("fault_seed", opt_u64(self.fault_seed)),
            ("budget_ms", opt_u64(self.budget_ms)),
            ("incremental", Value::Bool(self.incremental)),
            ("fsync", Value::String(fsync)),
            ("snapshot_every", Value::UInt(snapshot_every)),
        ];
        let value = Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
        serde_json::to_string(&value).expect("meta serialises") + "\n"
    }

    /// Reads `meta.json` back; also returns the journal knobs it recorded.
    fn from_meta(path: &std::path::Path) -> Result<(Self, FsyncPolicy, u64), String> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            format!(
                "{}: {e} (was this directory written by `fta simulate --durable-dir`?)",
                path.display()
            )
        })?;
        let v: serde_json::Value = serde_json::from_str(text.trim())
            .map_err(|e| format!("{}: not valid JSON: {e:?}", path.display()))?;
        if v["schema"] != "fta-sim-meta" {
            return Err(format!("{}: not an fta-sim-meta file", path.display()));
        }
        let version = v["version"].as_u64().unwrap_or(0);
        if version != 1 {
            return Err(format!(
                "{}: unsupported meta version {version} (expected 1)",
                path.display()
            ));
        }
        let num = |name: &str| {
            v[name]
                .as_f64()
                .ok_or_else(|| format!("{}: missing numeric field `{name}`", path.display()))
        };
        let int = |name: &str| {
            v[name]
                .as_u64()
                .ok_or_else(|| format!("{}: missing integer field `{name}`", path.display()))
        };
        let params = SimParams {
            policy: v["policy"]
                .as_str()
                .ok_or_else(|| format!("{}: missing field `policy`", path.display()))?
                .to_owned(),
            seed: int("seed")?,
            hours: num("hours")?,
            period_minutes: num("period_minutes")?,
            workers: int("workers")? as usize,
            dps: int("dps")? as usize,
            rate: num("rate")?,
            faults: v["faults"].as_bool().unwrap_or(false),
            fault_seed: v["fault_seed"].as_u64(),
            budget_ms: v["budget_ms"].as_u64(),
            incremental: v["incremental"].as_bool().unwrap_or(false),
        };
        let fsync_raw = v["fsync"].as_str().unwrap_or("8");
        let fsync = FsyncPolicy::parse(fsync_raw)
            .ok_or_else(|| format!("{}: bad fsync policy `{fsync_raw}`", path.display()))?;
        let snapshot_every = v["snapshot_every"].as_u64().unwrap_or(16).max(1);
        Ok((params, fsync, snapshot_every))
    }
}

/// Renders the longitudinal day summary printed by both `simulate` and
/// `recover` — identical bodies, so a recovered day's output can be
/// compared line-for-line against the uninterrupted one.
fn day_summary(
    params: &SimParams,
    config: &fta_sim::SimConfig,
    metrics: &fta_sim::DayMetrics,
) -> String {
    let mut text = format!(
        "simulated {:.1} h, {} rounds ({}{} every {:.0} min, {} couriers)\n",
        params.hours,
        metrics.rounds,
        params.policy,
        if params.incremental {
            ", incremental"
        } else {
            ""
        },
        params.period_minutes,
        params.workers,
    );
    let _ = writeln!(
        text,
        "tasks: {} arrived, {} completed ({:.1}%), {} expired, {} pending, {} cancelled, {} abandoned",
        metrics.tasks_arrived,
        metrics.tasks_completed,
        100.0 * metrics.completion_rate(),
        metrics.tasks_expired,
        metrics.tasks_pending,
        metrics.tasks_cancelled,
        metrics.tasks_abandoned,
    );
    if config.faults.is_some() {
        let _ = writeln!(
            text,
            "faults: {} no-shows, {} dropouts, {} requeues, {} tasks lost",
            metrics.worker_no_shows,
            metrics.route_dropouts,
            metrics.reassignments,
            metrics.tasks_lost_to_faults(),
        );
    }
    if !config.budget.is_unlimited() {
        let _ = writeln!(
            text,
            "degradation: {} of {} rounds degraded under the {} ms budget",
            metrics.degraded_rounds,
            metrics.rounds,
            config.budget.wall_ms.unwrap_or_default(),
        );
    }
    let fairness = metrics.earnings_fairness();
    let _ = writeln!(
        text,
        "earnings fairness: P_dif {:.4}, gini {:.4}, mean utilization {:.1}%",
        fairness.payoff_difference,
        fairness.gini,
        100.0 * metrics.mean_utilization(),
    );
    text
}

/// One `wal-dump` output row for a journaled payload.
fn frame_line(payload: &[u8]) -> String {
    match fta_sim::frame_info(payload) {
        Ok(info) => {
            let mut flags = String::new();
            if info.has_fault_rng {
                flags.push_str(" +rng");
            }
            if info.has_solver_cache {
                flags.push_str(" +cache");
            }
            if info.has_ledger_record {
                flags.push_str(" +ledger");
            }
            format!(
                "  round {:>5}  t {:>6.2} h  {:>4} pending  {:>5} done  {:>4} expired  {:>4} cancelled  earnings {:>10.2}{}\n",
                info.round,
                info.sim_hours,
                info.pending,
                info.tasks_completed,
                info.tasks_expired,
                info.tasks_cancelled,
                info.earnings_total,
                flags,
            )
        }
        Err(e) => format!("  <frame does not decode: {e}>\n"),
    }
}

/// Load a file for `obs-diff` as a flat metric map, auto-detecting the
/// format: a JSONL solve ledger (first line carries the `fta-ledger`
/// schema header) flattens through [`fta_obs::ledger::Ledger::flatten`];
/// anything else is treated as Prometheus text exposition.
fn load_metric_map(
    path: &std::path::Path,
) -> Result<std::collections::BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let first = text.lines().next().unwrap_or_default();
    if first.trim_start().starts_with('{') && first.contains("fta-ledger") {
        let ledger =
            fta_obs::ledger::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ledger.flatten())
    } else {
        fta_obs::ledger::flatten_prometheus(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Executes a parsed command, returning the text to print on stdout.
///
/// # Errors
///
/// Returns a human-readable error message (file problems, invalid
/// references, infeasible schedules).
pub fn execute(command: &Command) -> Result<String, String> {
    match command {
        Command::Generate {
            dataset,
            seed,
            workers,
            tasks,
            dps,
            centers,
            expiry,
            max_dp,
            out,
        } => {
            let instance = if dataset == "syn" {
                let mut cfg = SynConfig::bench_scale();
                if let Some(v) = workers {
                    cfg.n_workers = *v;
                }
                if let Some(v) = tasks {
                    cfg.n_tasks = *v;
                }
                if let Some(v) = dps {
                    cfg.n_delivery_points = *v;
                }
                if let Some(v) = centers {
                    cfg.n_centers = *v;
                }
                if let Some(v) = expiry {
                    cfg.expiry = *v;
                }
                if let Some(v) = max_dp {
                    cfg.max_dp = *v;
                }
                generate_syn(&cfg, *seed)
            } else {
                let mut cfg = GMissionConfig::default();
                if let Some(v) = workers {
                    cfg.n_workers = *v;
                }
                if let Some(v) = tasks {
                    cfg.n_tasks = *v;
                }
                if let Some(v) = dps {
                    cfg.n_delivery_points = *v;
                }
                if let Some(v) = expiry {
                    cfg.expiry_max = *v;
                }
                if let Some(v) = max_dp {
                    cfg.max_dp = *v;
                }
                generate_gmission(&cfg, *seed)
            };
            save_instance(out, &instance).map_err(|e| e.to_string())?;
            Ok(format!(
                "wrote {} ({} centers, {} workers, {} delivery points, {} tasks)\n",
                out.display(),
                instance.centers.len(),
                instance.workers.len(),
                instance.delivery_points.len(),
                instance.tasks.len(),
            ))
        }
        Command::Inspect { instance } => {
            let inst = load_instance(instance).map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{}: {} centers, {} workers, {} delivery points, {} tasks (total reward {:.1}), speed {} km/h",
                instance.display(),
                inst.centers.len(),
                inst.workers.len(),
                inst.delivery_points.len(),
                inst.tasks.len(),
                inst.total_reward(),
                inst.speed,
            );
            let aggs = inst.dp_aggregates();
            for view in inst.center_views() {
                let tasks: usize = view.dps.iter().map(|dp| aggs[dp.index()].task_count).sum();
                let _ = writeln!(
                    out,
                    "  {}: {} workers, {} task-bearing delivery points, {} tasks",
                    view.center,
                    view.workers.len(),
                    view.dps.len(),
                    tasks,
                );
            }
            Ok(out)
        }
        Command::Solve {
            instance,
            algorithm,
            algorithm_name,
            epsilon,
            max_len,
            parallel,
            budget_ms,
            max_states,
            max_rounds,
            out,
            trace_out,
            metrics_out,
            ledger_out,
            inject_panic,
        } => {
            use fta_algorithms::{LadderRung, PanicInjection};
            let inst = load_instance(instance).map_err(|e| e.to_string())?;
            let vdps = VdpsConfig {
                epsilon: *epsilon,
                max_len: *max_len,
            };
            let budget = SolveBudget {
                wall_ms: *budget_ms,
                max_states: *max_states,
                max_rounds: *max_rounds,
            };
            // Install the telemetry recorder only when a sink was asked
            // for; otherwise the emit paths stay single-atomic-load cheap.
            let recorder =
                (trace_out.is_some() || metrics_out.is_some()).then(fta_obs::Recorder::install);
            let solve_config = SolveConfig {
                vdps,
                parallel: *parallel,
                budget,
                inject_panic: inject_panic.map(|center| PanicInjection {
                    center,
                    also_on_retry: false,
                }),
                ..SolveConfig::new(*algorithm)
            };
            let outcome = solve(&inst, &solve_config);
            let snapshot = recorder.map(fta_obs::Recorder::finish);
            outcome
                .assignment
                .validate(&inst)
                .map_err(|e| format!("internal error: invalid assignment: {e}"))?;
            let workers: Vec<WorkerId> = inst.workers.iter().map(|w| w.id).collect();
            let label = format!("{algorithm_name} on {}", instance.display());
            let mut text = String::new();
            let report = fta_algorithms::SolveReport::new(&outcome)
                .label(&label)
                .to_string();
            // Header first, assignment summary, then the stats lines.
            let mut lines = report.splitn(2, '\n');
            text.push_str(lines.next().unwrap_or_default());
            text.push('\n');
            text.push_str(&outcome.assignment.summary(&inst, &workers));
            text.push_str(lines.next().unwrap_or_default());
            if let Some(path) = out {
                save_assignment(path, &outcome.assignment).map_err(|e| e.to_string())?;
                let _ = writeln!(text, "assignment written to {}", path.display());
            }
            if let Some(snapshot) = snapshot {
                if let Some(path) = trace_out {
                    fta_obs::trace::write_file(&snapshot, path).map_err(|e| e.to_string())?;
                    let _ = writeln!(
                        text,
                        "telemetry trace ({} spans, {} round events) written to {}",
                        snapshot.spans.len(),
                        snapshot.rounds.len(),
                        path.display()
                    );
                }
                if let Some(path) = metrics_out {
                    std::fs::write(path, snapshot.to_prometheus()).map_err(|e| e.to_string())?;
                    let _ = writeln!(text, "metrics snapshot written to {}", path.display());
                }
            }
            if let Some(path) = ledger_out {
                let ledger = fta_obs::ledger::Ledger {
                    label,
                    created_unix_ms: unix_ms(),
                    records: vec![fta_algorithms::ledger::solve_record(
                        &inst,
                        &outcome,
                        algorithm_name,
                        br_search(algorithm),
                    )],
                };
                fta_obs::ledger::write_file(&ledger, path).map_err(|e| e.to_string())?;
                let _ = writeln!(
                    text,
                    "solve ledger ({} centers) written to {}",
                    outcome.centers.len(),
                    path.display()
                );
            }
            // A skipped center contributes nothing: the solve failed there,
            // which a budget degradation never does.
            let skipped: Vec<String> = outcome
                .rungs
                .iter()
                .filter(|&&(_, rung)| rung == LadderRung::Skipped)
                .map(|(center, _)| center.to_string())
                .collect();
            if skipped.is_empty() {
                Ok(text)
            } else {
                Err(format!(
                    "{text}solve failed: {} center(s) skipped after repeated panics: {}",
                    skipped.len(),
                    skipped.join(", ")
                ))
            }
        }
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
            let params = SimParams {
                policy: policy.clone(),
                seed: *seed,
                hours: *hours,
                period_minutes: *period_minutes,
                workers: *workers,
                dps: *dps,
                rate: *rate,
                faults: *faults,
                fault_seed: *fault_seed,
                budget_ms: *budget_ms,
                incremental: *incremental,
            };
            let (scenario, mut config) = params.build()?;
            if let Some(dir) = durable_dir {
                // meta.json goes in first so even a day that crashes on
                // its very first journaled round is recoverable.
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let meta = dir.join(META_FILE);
                std::fs::write(&meta, params.meta_json(*fsync, *snapshot_every))
                    .map_err(|e| format!("{}: {e}", meta.display()))?;
                config.durable = Some(fta_sim::DurableConfig {
                    dir: dir.clone(),
                    fsync: *fsync,
                    snapshot_every: *snapshot_every,
                    crash_after_round: *crash_after_round,
                });
            }
            let recorder = trace_out.is_some().then(fta_obs::Recorder::install);
            let mut ledger_records = Vec::new();
            let metrics = if ledger_out.is_some() {
                fta_sim::run_with_ledger(&scenario, &config, &mut ledger_records)
            } else {
                fta_sim::run(&scenario, &config)
            };
            let snapshot = recorder.map(fta_obs::Recorder::finish);

            let mut text = day_summary(&params, &config, &metrics);
            if let Some(dir) = durable_dir {
                let _ = writeln!(
                    text,
                    "durable journal in {} (fsync {fsync}, snapshot every {snapshot_every} rounds)",
                    dir.display(),
                );
            }
            if let (Some(snapshot), Some(path)) = (snapshot, trace_out.as_ref()) {
                fta_obs::trace::write_file(&snapshot, path).map_err(|e| e.to_string())?;
                let _ = writeln!(
                    text,
                    "telemetry trace ({} spans, {} counters) written to {}",
                    snapshot.spans.len(),
                    snapshot.counters.len(),
                    path.display()
                );
            }
            if let Some(path) = ledger_out {
                let rounds = ledger_records.len();
                let ledger = fta_obs::ledger::Ledger {
                    label: format!("simulate {policy} seed {seed}"),
                    created_unix_ms: unix_ms(),
                    records: ledger_records,
                };
                fta_obs::ledger::write_file(&ledger, path).map_err(|e| e.to_string())?;
                let _ = writeln!(
                    text,
                    "solve ledger ({rounds} rounds) written to {}",
                    path.display()
                );
            }
            // As for `solve`: a skipped center is a failure, a budget
            // degradation is not.
            let skipped = &metrics.skipped_centers;
            if skipped.is_empty() {
                Ok(text)
            } else {
                let names: Vec<String> = skipped.iter().map(ToString::to_string).collect();
                Err(format!(
                    "{text}simulate failed: {} center(s) skipped after repeated panics: {}",
                    skipped.len(),
                    names.join(", ")
                ))
            }
        }
        Command::Recover { dir, ledger_out } => {
            let (params, fsync, snapshot_every) = SimParams::from_meta(&dir.join(META_FILE))?;
            let (scenario, mut config) = params.build()?;
            config.durable = Some(fta_sim::DurableConfig {
                dir: dir.clone(),
                fsync,
                snapshot_every,
                crash_after_round: None,
            });
            let mut ledger_records = Vec::new();
            let (metrics, info) = if ledger_out.is_some() {
                fta_sim::restore_with_ledger(&scenario, &config, &mut ledger_records)
            } else {
                fta_sim::restore(&scenario, &config)
            }
            .map_err(|e| format!("{}: {e}", dir.display()))?;
            let mut text = format!(
                "recovered {}: resumed after round {} ({}, {} log frame(s), torn tail: {})\n",
                dir.display(),
                info.resumed_round,
                info.snapshot_round
                    .map_or("no snapshot".to_owned(), |r| format!("snapshot round {r}")),
                info.frames,
                if info.torn_tail { "yes" } else { "no" },
            );
            if info.cache_rehydrated {
                text.push_str("incremental solver caches re-hydrated from the journal\n");
            }
            text.push_str(&day_summary(&params, &config, &metrics));
            if let Some(path) = ledger_out {
                let rounds = ledger_records.len();
                let ledger = fta_obs::ledger::Ledger {
                    label: format!("simulate {} seed {}", params.policy, params.seed),
                    created_unix_ms: unix_ms(),
                    records: ledger_records,
                };
                fta_obs::ledger::write_file(&ledger, path).map_err(|e| e.to_string())?;
                let _ = writeln!(
                    text,
                    "solve ledger ({rounds} rounds, {} replayed from the journal) written to {}",
                    info.replayed_records,
                    path.display()
                );
            }
            Ok(text)
        }
        Command::WalDump { path } => {
            let (dir, wal) = if path.is_dir() {
                (Some(path.as_path()), path.join(fta_durable::WAL_FILE))
            } else {
                (None, path.clone())
            };
            let log = fta_durable::read_log(&wal).map_err(|e| format!("{}: {e}", wal.display()))?;
            let mut text = format!(
                "{}: fta-wal v1, fingerprint {:#018x}, {} clean frame(s), {} valid bytes{}\n",
                wal.display(),
                log.fingerprint,
                log.frames.len(),
                log.valid_len,
                if log.torn_tail {
                    ", torn tail dropped"
                } else {
                    ""
                },
            );
            if let Some(dir) = dir {
                let (snapshot, skipped) = fta_durable::latest_valid_snapshot(dir)
                    .map_err(|e| format!("{}: {e}", dir.display()))?;
                if let Some(snap) = snapshot {
                    let _ = writeln!(
                        text,
                        "snapshot after round {} ({} payload bytes):",
                        snap.round,
                        snap.payload.len()
                    );
                    text.push_str(&frame_line(&snap.payload));
                }
                if let Some(err) = skipped {
                    let _ = writeln!(text, "  (newest snapshot skipped: {err})");
                }
            }
            for frame in &log.frames {
                text.push_str(&frame_line(frame));
            }
            Ok(text)
        }
        Command::ObsDump {
            trace,
            chrome,
            by_center,
        } => {
            let parsed = fta_obs::trace::parse_file(trace).map_err(|e| e.to_string())?;
            if *chrome {
                return Ok(fta_obs::trace::to_chrome_trace(&parsed) + "\n");
            }
            let mut text = format!(
                "{} v{} trace: {} spans, {} round events, epoch {} ms\n",
                fta_obs::trace::SCHEMA_NAME,
                parsed.version,
                parsed.spans.len(),
                parsed.rounds.len(),
                parsed.epoch_unix_ms,
            );
            // Span totals by name.
            let mut totals: std::collections::BTreeMap<&str, (u64, u64)> =
                std::collections::BTreeMap::new();
            for span in &parsed.spans {
                let entry = totals.entry(span.name.as_str()).or_default();
                entry.0 += 1;
                entry.1 += span.duration_nanos;
            }
            for (name, (count, nanos)) in totals {
                let _ = writeln!(
                    text,
                    "  span {name:<24} {count:>7} x  {:>10.3} ms total",
                    nanos as f64 / 1e6
                );
            }
            for (name, value) in &parsed.counters {
                let _ = writeln!(text, "  counter {name:<24} {value}");
            }
            for (name, value) in &parsed.gauges {
                let _ = writeln!(text, "  gauge {name:<26} {value} (max)");
            }
            for (name, hist) in &parsed.hists {
                let mean = if hist.count > 0 {
                    hist.sum as f64 / hist.count as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    text,
                    "  hist {name:<27} {} samples, mean {mean:.0} ns",
                    hist.count
                );
            }
            let mut algos: Vec<&str> = parsed.rounds.iter().map(|r| r.algo.as_str()).collect();
            algos.sort_unstable();
            algos.dedup();
            for algo in algos {
                let n = parsed.rounds_for(algo).count();
                let last = parsed.rounds_for(algo).last();
                let _ = writeln!(
                    text,
                    "  rounds {algo:<25} {n} events, final P_dif {:.4}",
                    last.map_or(f64::NAN, |r| r.payoff_difference)
                );
            }
            if *by_center {
                // Per-center convergence table: rounds run, strategy
                // moves, and the final payoff difference of each center's
                // equilibrium loop.
                let mut centers: std::collections::BTreeMap<u32, (usize, u64, f64)> =
                    std::collections::BTreeMap::new();
                for round in &parsed.rounds {
                    let entry = centers.entry(round.center).or_insert((0, 0, f64::NAN));
                    entry.0 += 1;
                    entry.1 += round.moves;
                    entry.2 = round.payoff_difference;
                }
                let _ = writeln!(
                    text,
                    "  {:<8} {:>7} {:>8} {:>12}",
                    "center", "rounds", "moves", "final P_dif"
                );
                for (center, (rounds, moves, p_dif)) in centers {
                    let _ = writeln!(text, "  dc{center:<6} {rounds:>7} {moves:>8} {p_dif:>12.4}");
                }
            }
            Ok(text)
        }
        Command::FlightDump { snapshot } => {
            let dump = fta_obs::ring::parse_file(snapshot)
                .map_err(|e| format!("{}: {e}", snapshot.display()))?;
            let mut text = format!(
                "{} v{} snapshot: reason `{}`{}, {} threads, {} events, {} dropped\n",
                fta_obs::ring::SCHEMA_NAME,
                dump.version,
                dump.reason,
                dump.center
                    .map(|c| format!(" (center dc{c})"))
                    .unwrap_or_default(),
                dump.threads,
                dump.events.len(),
                dump.dropped,
            );
            let mut last_thread = None;
            for event in &dump.events {
                if last_thread != Some(event.thread) {
                    let _ = writeln!(text, "  thread {}:", event.thread);
                    last_thread = Some(event.thread);
                }
                let _ = writeln!(
                    text,
                    "    #{:<6} +{:>12} ns  {:<8} {:<28} {}{}",
                    event.seq,
                    event.t_nanos,
                    event.kind.name(),
                    event.name,
                    event.value,
                    event.center.map(|c| format!("  dc{c}")).unwrap_or_default(),
                );
            }
            Ok(text)
        }
        Command::ObsDiff {
            a,
            b,
            tolerance_pct,
            ignore,
        } => {
            let mut map_a = load_metric_map(a)?;
            let mut map_b = load_metric_map(b)?;
            if !ignore.is_empty() {
                let ignored = |key: &str| ignore.iter().any(|f| key.split('.').any(|seg| seg == f));
                map_a.retain(|k, _| !ignored(k));
                map_b.retain(|k, _| !ignored(k));
            }
            let report = fta_obs::ledger::diff_maps(&map_a, &map_b, *tolerance_pct);
            let mut text = String::new();
            let out_of_band = report.out_of_band();
            for entry in report.changed() {
                let flag = if entry.within(*tolerance_pct) {
                    ""
                } else {
                    "  OUT OF BAND"
                };
                let _ = writeln!(
                    text,
                    "  {:<40} {:>14.4} -> {:>14.4}  ({:+.4}){flag}",
                    entry.key,
                    entry.a,
                    entry.b,
                    entry.delta(),
                );
            }
            let _ = writeln!(
                text,
                "{} metrics compared, {} changed, {} out of band (tolerance {}%{})",
                report.entries.len(),
                report.changed().len(),
                out_of_band.len(),
                tolerance_pct,
                if ignore.is_empty() {
                    String::new()
                } else {
                    format!(", ignoring: {}", ignore.join(", "))
                },
            );
            if out_of_band.is_empty() {
                Ok(text)
            } else {
                Err(text)
            }
        }
        Command::Compare {
            instance,
            epsilon,
            max_len,
            parallel,
        } => {
            use fta_algorithms::{Algorithm, FgtConfig, IegtConfig, MptaConfig};
            let inst = load_instance(instance).map_err(|e| e.to_string())?;
            let workers: Vec<WorkerId> = inst.workers.iter().map(|w| w.id).collect();
            let vdps = VdpsConfig {
                epsilon: *epsilon,
                max_len: *max_len,
            };
            let mut text = format!(
                "{:<6} {:>10} {:>11} {:>8} {:>10} {:>11}\n",
                "algo", "P_dif", "avg payoff", "jain", "assigned", "time (ms)"
            );
            for (label, algorithm) in [
                ("MPTA", Algorithm::Mpta(MptaConfig::default())),
                ("GTA", Algorithm::Gta),
                ("FGT", Algorithm::Fgt(FgtConfig::default())),
                ("IEGT", Algorithm::Iegt(IegtConfig::default())),
            ] {
                let outcome = solve(
                    &inst,
                    &SolveConfig {
                        vdps,
                        parallel: *parallel,
                        ..SolveConfig::new(algorithm)
                    },
                );
                let report = outcome.assignment.fairness(&inst, &workers);
                let _ = writeln!(
                    text,
                    "{label:<6} {:>10.4} {:>11.4} {:>8.4} {:>7}/{:<3} {:>10.1}",
                    report.payoff_difference,
                    report.average_payoff,
                    report.jain,
                    outcome.assignment.assigned_workers(),
                    workers.len(),
                    outcome.total_time().as_secs_f64() * 1e3,
                );
            }
            Ok(text)
        }
        Command::Schedule {
            instance,
            center,
            dps,
        } => {
            let inst = load_instance(instance).map_err(|e| e.to_string())?;
            let center = CenterId(*center);
            if center.index() >= inst.centers.len() {
                return Err(format!("{center} does not exist"));
            }
            let dp_ids: Vec<DeliveryPointId> = dps.iter().map(|&d| DeliveryPointId(d)).collect();
            for dp in &dp_ids {
                if dp.index() >= inst.delivery_points.len() {
                    return Err(format!("{dp} does not exist"));
                }
                if inst.delivery_points[dp.index()].center != center {
                    return Err(format!("{dp} belongs to another distribution center"));
                }
            }
            match schedule_route(&inst, center, &dp_ids) {
                Ok(Some(route)) => {
                    let stops: Vec<String> = route.dps().iter().map(ToString::to_string).collect();
                    Ok(format!(
                        "{} -> {} | travel from center {:.3} h, reward {:.2}, slack {:.3} h\n",
                        center,
                        stops.join(" -> "),
                        route.travel_from_dc(),
                        route.total_reward(),
                        route.slack(),
                    ))
                }
                Ok(None) => Err("no deadline-feasible visiting order exists for that set".into()),
                Err(e) => Err(format!("invalid delivery-point set: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fta-cli-test-{}-{name}", std::process::id()));
        p
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn generate_inspect_solve_schedule_pipeline() {
        let instance_path = temp("city.json");
        let plan_path = temp("plan.json");

        // generate
        let cmd = parse(&argv(&format!(
            "generate syn --seed 3 --centers 1 --workers 8 --tasks 80 --dps 12 --out {}",
            instance_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("8 workers"));

        // inspect
        let cmd = parse(&argv(&format!("inspect {}", instance_path.display()))).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("dc0"));
        assert!(out.contains("80 tasks"));

        // solve
        let cmd = parse(&argv(&format!(
            "solve {} --algo gta --out {}",
            instance_path.display(),
            plan_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("P_dif"));
        assert!(out.contains("assignment written"));
        assert!(plan_path.exists());

        // schedule: pick two delivery points from the written instance.
        let inst = fta_data::io::load_instance(&instance_path).unwrap();
        let views = inst.center_views();
        let dps = &views[0].dps;
        if dps.len() >= 2 {
            let cmd = parse(&argv(&format!(
                "schedule {} --center 0 --dps {},{}",
                instance_path.display(),
                dps[0].0,
                dps[1].0
            )))
            .unwrap();
            // Feasibility depends on deadlines; either a route or a clear error.
            match execute(&cmd) {
                Ok(out) => assert!(out.contains("->")),
                Err(e) => assert!(e.contains("deadline")),
            }
        }

        let _ = std::fs::remove_file(&instance_path);
        let _ = std::fs::remove_file(&plan_path);
    }

    #[test]
    fn solve_reports_best_response_work_for_game_algorithms() {
        let instance_path = temp("brwork.json");
        let cmd = parse(&argv(&format!(
            "generate syn --seed 21 --centers 1 --workers 6 --tasks 60 --dps 10 --out {}",
            instance_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();

        // FGT surfaces its equilibrium-loop counters…
        let cmd = parse(&argv(&format!(
            "solve {} --algo fgt",
            instance_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(
            out.contains("best-response work:"),
            "missing stats in:\n{out}"
        );
        assert!(out.contains("evaluator builds"));
        assert!(out.contains("fast-path rounds"));

        // …while the non-iterative baseline stays silent.
        let cmd = parse(&argv(&format!(
            "solve {} --algo gta",
            instance_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(!out.contains("best-response work:"));

        let _ = std::fs::remove_file(&instance_path);
    }

    #[test]
    fn solve_ledger_names_the_candidate_search_the_weights_choose() {
        let instance_path = temp("ledger-search-instance.json");
        let ledger_path = temp("ledger-search.jsonl");
        let cmd = parse(&argv(&format!(
            "generate syn --seed 27 --centers 1 --workers 6 --tasks 60 --dps 10 --out {}",
            instance_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();
        // The paper's weights (β = 0.5) make the monotone scan sound.
        let cmd = parse(&argv(&format!(
            "solve {} --algo fgt --ledger-out {}",
            instance_path.display(),
            ledger_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();
        let ledger = fta_obs::ledger::parse_file(&ledger_path).unwrap();
        assert_eq!(ledger.records[0].engine, "fastpath");

        use fta_algorithms::{Algorithm, FgtConfig, IegtConfig, PfgtConfig};
        let guilty = fta_core::iau::IauParams {
            alpha: 0.5,
            beta: 1.5,
        };
        let fgt = FgtConfig {
            iau: guilty,
            ..FgtConfig::default()
        };
        assert_eq!(br_search(&Algorithm::Fgt(fgt)), "exhaustive");
        let pfgt = PfgtConfig {
            base: fgt,
            ..PfgtConfig::default()
        };
        assert_eq!(br_search(&Algorithm::Pfgt(pfgt)), "exhaustive");
        assert_eq!(
            br_search(&Algorithm::Iegt(IegtConfig::default())),
            "fastpath"
        );
        assert_eq!(br_search(&Algorithm::Gta), "fastpath");

        let _ = std::fs::remove_file(&instance_path);
        let _ = std::fs::remove_file(&ledger_path);
    }

    #[test]
    fn solve_reports_the_same_generation_work_at_every_thread_count() {
        let instance_path = temp("genwork.json");
        let cmd = parse(&argv(&format!(
            "generate syn --seed 33 --centers 1 --workers 6 --tasks 60 --dps 10 --out {}",
            instance_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();

        let mut summaries = Vec::new();
        for flag in ["", " --parallel"] {
            let cmd = parse(&argv(&format!(
                "solve {} --algo gta{flag}",
                instance_path.display()
            )))
            .unwrap();
            let out = execute(&cmd).unwrap();
            assert!(
                out.contains("vdps generation: "),
                "missing generation stats in:\n{out}"
            );
            // The work-counter prefix of the stats line (everything before
            // the timings) must not depend on the thread count.
            let line = out
                .lines()
                .find(|l| l.starts_with("vdps generation"))
                .unwrap();
            let work = line
                .split_once(" sets from ")
                .map(|(_, rest)| rest.split_once(", dp ").unwrap().0.to_owned())
                .unwrap();
            summaries.push(work);
        }
        assert_eq!(summaries[0], summaries[1]);
        let _ = std::fs::remove_file(&instance_path);
    }

    /// End-to-end telemetry: `solve --trace-out --metrics-out` writes a
    /// parseable JSONL trace and a Prometheus snapshot, and `obs-dump` can
    /// summarise / Chrome-convert the trace.
    ///
    /// The observability recorder is process-global, so this must remain
    /// the only recorder-installing test in the `fta-cli` test binary.
    #[test]
    fn solve_writes_trace_and_metrics_and_obs_dump_reads_them() {
        let instance_path = temp("telemetry.json");
        let trace_path = temp("telemetry-trace.jsonl");
        let metrics_path = temp("telemetry-metrics.prom");
        let cmd = parse(&argv(&format!(
            "generate syn --seed 41 --centers 2 --workers 8 --tasks 80 --dps 12 --out {}",
            instance_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();

        let cmd = parse(&argv(&format!(
            "solve {} --algo iegt --trace-out {} --metrics-out {}",
            instance_path.display(),
            trace_path.display(),
            metrics_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(
            out.contains("telemetry trace ("),
            "missing trace line:\n{out}"
        );
        assert!(out.contains("metrics snapshot written to"));

        // The trace parses against the versioned schema and holds one
        // solver span per center plus IEGT round events.
        let parsed = fta_obs::trace::parse_file(&trace_path).unwrap();
        assert_eq!(parsed.version, fta_obs::trace::SCHEMA_VERSION);
        assert!(parsed.spans_named("solver.center").count() >= 2);
        assert!(parsed.spans_named("vdps.generate").next().is_some());
        assert!(parsed.rounds_for("IEGT").next().is_some());
        assert!(parsed.counters.contains_key("vdps.count"));
        assert!(parsed.counters.contains_key("br.rounds"));

        // The metrics file is well-formed Prometheus exposition text.
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        let families = fta_obs::trace::validate_prometheus(&prom).unwrap();
        assert!(families > 0, "expected at least one metric family");

        // obs-dump: human summary and Chrome conversion both work.
        let cmd = parse(&argv(&format!("obs-dump {}", trace_path.display()))).unwrap();
        let summary = execute(&cmd).unwrap();
        assert!(summary.contains("solver.center"));
        assert!(summary.contains("br.rounds"));
        let cmd = parse(&argv(&format!(
            "obs-dump {} --chrome",
            trace_path.display()
        )))
        .unwrap();
        let chrome = execute(&cmd).unwrap();
        assert!(chrome.trim_start().starts_with('{'));
        assert!(chrome.contains("traceEvents"));
        assert!(chrome.contains("\"ph\":\"X\""));

        let _ = std::fs::remove_file(&instance_path);
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn compare_prints_all_algorithms() {
        let instance_path = temp("compare.json");
        let cmd = parse(&argv(&format!(
            "generate syn --seed 11 --centers 1 --workers 6 --tasks 60 --dps 10 --out {}",
            instance_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();

        let cmd = parse(&argv(&format!("compare {}", instance_path.display()))).unwrap();
        let out = execute(&cmd).unwrap();
        for label in ["MPTA", "GTA", "FGT", "IEGT"] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
        assert!(out.contains("P_dif"));
        let _ = std::fs::remove_file(&instance_path);
    }

    #[test]
    fn solve_with_exhausted_budget_degrades_but_succeeds() {
        let instance_path = temp("budget.json");
        let cmd = parse(&argv(&format!(
            "generate syn --seed 13 --centers 2 --workers 8 --tasks 80 --dps 12 --out {}",
            instance_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();

        // A zero wall-clock budget forces every center onto the bottom
        // rung; the command still exits successfully with a valid plan.
        let cmd = parse(&argv(&format!(
            "solve {} --algo iegt --budget-ms 0",
            instance_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("degradation:"), "missing report in:\n{out}");
        assert!(out.contains("fell back to single-stop routes"));

        // Unbudgeted solves print no degradation line.
        let cmd = parse(&argv(&format!(
            "solve {} --algo iegt",
            instance_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(!out.contains("degradation:"));

        let _ = std::fs::remove_file(&instance_path);
    }

    #[test]
    fn solve_fails_when_a_center_is_skipped() {
        // 187 task-bearing delivery points on one center: past the u128
        // DP's 128-point limit, so the center panics on both attempts and
        // is skipped. That is a failed solve, not a degraded one.
        let instance_path = temp("skipped.json");
        let cmd = parse(&argv(&format!(
            "generate syn --seed 3 --centers 1 --workers 50 --tasks 600 --dps 200 --out {}",
            instance_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();

        let cmd = parse(&argv(&format!(
            "solve {} --algo gta",
            instance_path.display()
        )))
        .unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("skipped after repeated panic"), "{err}");
        assert!(
            err.contains("solve failed: 1 center(s) skipped after repeated panics: dc0"),
            "{err}"
        );

        let _ = std::fs::remove_file(&instance_path);
    }

    #[test]
    fn simulate_fails_when_a_center_is_skipped() {
        // 1 564 delivery points on dc0: the center panics on both attempts
        // in every round and is skipped, so nothing is ever completed.
        let cmd = parse(&argv(
            "simulate --algo gta --workers 100 --dps 2000 --rate 3000 --hours 1 --period-min 30",
        ))
        .unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("0 completed"), "{err}");
        assert!(
            err.contains("simulate failed: 1 center(s) skipped after repeated panics: dc0"),
            "{err}"
        );
    }

    #[test]
    fn simulate_reports_faults_and_degradation() {
        // No --trace-out here: the recorder is process-global and owned by
        // the telemetry test.
        let cmd = parse(&argv(
            "simulate --algo gta --seed 3 --hours 1 --period-min 15 --workers 6 \
             --dps 12 --rate 40 --faults --fault-seed 5 --budget-ms 0",
        ))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("tasks:"), "missing task line in:\n{out}");
        assert!(out.contains("faults:"), "missing fault line in:\n{out}");
        assert!(
            out.contains("rounds degraded under the 0 ms budget"),
            "missing degradation line in:\n{out}"
        );
        assert!(out.contains("earnings fairness:"));

        // Pristine runs print neither of the robustness lines.
        let cmd = parse(&argv(
            "simulate --algo gta --seed 3 --hours 1 --workers 6 --dps 12 --rate 40",
        ))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(!out.contains("faults:"));
        assert!(!out.contains("degraded under"));
    }

    #[test]
    fn obs_dump_rejects_schema_version_mismatch_with_clear_message() {
        let trace_path = temp("future-trace.jsonl");
        std::fs::write(
            &trace_path,
            "{\"schema\":\"fta-obs-trace\",\"version\":99,\"epoch_unix_ms\":0}\n",
        )
        .unwrap();
        let cmd = parse(&argv(&format!("obs-dump {}", trace_path.display()))).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(
            err.contains("unsupported") && err.contains("99"),
            "unclear version-mismatch message: {err}"
        );
        let _ = std::fs::remove_file(&trace_path);
    }

    #[test]
    fn flight_dump_decodes_a_snapshot() {
        let snapshot_path = temp("flight.jsonl");
        fta_obs::ring::mark("cli-test-mark", Some(7));
        fta_obs::ring::dump_to_file("cli-test", Some(7), &snapshot_path).unwrap();
        let cmd = parse(&argv(&format!("flight-dump {}", snapshot_path.display()))).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(
            out.contains("fta-flight v1 snapshot"),
            "header missing:\n{out}"
        );
        assert!(out.contains("reason `cli-test` (center dc7)"));
        assert!(out.contains("cli-test-mark"));
        assert!(out.contains("thread "));
        // A corrupt snapshot is a clear error, not a panic.
        std::fs::write(&snapshot_path, "not json\n").unwrap();
        let cmd = parse(&argv(&format!("flight-dump {}", snapshot_path.display()))).unwrap();
        assert!(execute(&cmd).is_err());
        let _ = std::fs::remove_file(&snapshot_path);
    }

    #[test]
    fn solve_ledger_out_attributes_injected_panic() {
        let instance_path = temp("ledger-instance.json");
        let ledger_path = temp("ledger-solve.jsonl");
        let cmd = parse(&argv(&format!(
            "generate syn --seed 51 --centers 2 --workers 8 --tasks 80 --dps 12 --out {}",
            instance_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();

        // The injected panic is quarantined: the command still succeeds
        // and the ledger pins the panic on the right center.
        let cmd = parse(&argv(&format!(
            "solve {} --algo gta --inject-panic 1 --ledger-out {}",
            instance_path.display(),
            ledger_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("solve ledger (2 centers) written to"));

        let ledger = fta_obs::ledger::parse_file(&ledger_path).unwrap();
        assert_eq!(ledger.records.len(), 1);
        let record = &ledger.records[0];
        assert!(record.degraded);
        let healthy = record.centers.iter().find(|c| c.center == 0).unwrap();
        assert_eq!(healthy.rung, "full");
        let panicked = record.centers.iter().find(|c| c.center == 1).unwrap();
        assert_ne!(panicked.rung, "full");
        assert_eq!(panicked.budget_axis.as_deref(), Some("panic"));
        assert!(panicked.events.iter().any(|e| e.contains("panic")));

        let _ = std::fs::remove_file(&instance_path);
        let _ = std::fs::remove_file(&ledger_path);
    }

    #[test]
    fn simulate_ledger_out_writes_one_record_per_round() {
        let ledger_path = temp("ledger-sim.jsonl");
        let cmd = parse(&argv(&format!(
            "simulate --algo gta --seed 9 --hours 1 --period-min 15 --workers 6 \
             --dps 12 --rate 40 --faults --budget-ms 0 --ledger-out {}",
            ledger_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(
            out.contains("solve ledger ("),
            "missing ledger line:\n{out}"
        );
        let ledger = fta_obs::ledger::parse_file(&ledger_path).unwrap();
        assert!(!ledger.records.is_empty());
        for record in &ledger.records {
            assert!(record.round.is_some());
            assert!(record.sim_hours.is_some());
            assert!(record.budget_exhausted, "0 ms budget must exhaust");
        }
        let _ = std::fs::remove_file(&ledger_path);
    }

    #[test]
    fn obs_diff_self_is_zero_and_tolerance_bands_deltas() {
        let a_path = temp("diff-a.jsonl");
        let b_path = temp("diff-b.jsonl");
        let instance_path = temp("diff-instance.json");
        let cmd = parse(&argv(&format!(
            "generate syn --seed 61 --centers 1 --workers 6 --tasks 60 --dps 10 --out {}",
            instance_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();
        let solve_to = |path: &PathBuf, algo: &str| {
            let cmd = parse(&argv(&format!(
                "solve {} --algo {algo} --ledger-out {}",
                instance_path.display(),
                path.display()
            )))
            .unwrap();
            execute(&cmd).unwrap();
        };
        solve_to(&a_path, "gta");

        // Self-diff: zero deltas, success.
        let cmd = parse(&argv(&format!(
            "obs-diff {} {}",
            a_path.display(),
            a_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(
            out.contains("0 changed, 0 out of band"),
            "not clean:\n{out}"
        );

        // Different algorithms: the work counters differ; zero tolerance
        // fails, a huge tolerance passes.
        solve_to(&b_path, "fgt");
        let cmd = parse(&argv(&format!(
            "obs-diff {} {}",
            a_path.display(),
            b_path.display()
        )))
        .unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("OUT OF BAND"), "no flagged deltas:\n{err}");
        let cmd = parse(&argv(&format!(
            "obs-diff {} {} --tolerance 1000000",
            a_path.display(),
            b_path.display()
        )))
        .unwrap();
        assert!(execute(&cmd).is_ok());

        let _ = std::fs::remove_file(&a_path);
        let _ = std::fs::remove_file(&b_path);
        let _ = std::fs::remove_file(&instance_path);
    }

    #[test]
    fn obs_dump_by_center_prints_the_table() {
        // Reuses the trace written by the telemetry test? No — that test
        // owns the recorder. Build a trace file by hand instead.
        let trace_path = temp("by-center.jsonl");
        let header = "{\"schema\":\"fta-obs-trace\",\"version\":1,\"epoch_unix_ms\":0}";
        let r1 = "{\"type\":\"round\",\"algo\":\"FGT\",\"center\":0,\"round\":1,\"moves\":3,\
                  \"payoff_difference\":0.5,\"average_payoff\":1.0,\"potential\":2.0,\"t_ms\":1}";
        let r2 = "{\"type\":\"round\",\"algo\":\"FGT\",\"center\":0,\"round\":2,\"moves\":1,\
                  \"payoff_difference\":0.25,\"average_payoff\":1.0,\"potential\":2.5,\"t_ms\":2}";
        let r3 = "{\"type\":\"round\",\"algo\":\"FGT\",\"center\":3,\"round\":1,\"moves\":2,\
                  \"payoff_difference\":0.125,\"average_payoff\":1.5,\"potential\":3.0,\"t_ms\":3}";
        std::fs::write(&trace_path, format!("{header}\n{r1}\n{r2}\n{r3}\n")).unwrap();
        let cmd = parse(&argv(&format!(
            "obs-dump {} --by-center",
            trace_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("center"), "missing table header:\n{out}");
        assert!(out.contains("dc0"), "missing center 0 row:\n{out}");
        assert!(out.contains("dc3"), "missing center 3 row:\n{out}");
        assert!(out.contains("0.2500"), "missing final P_dif:\n{out}");
        // Without the flag the table is absent.
        let cmd = parse(&argv(&format!("obs-dump {}", trace_path.display()))).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(!out.contains("final P_dif\n"));
        let _ = std::fs::remove_file(&trace_path);
    }

    #[test]
    fn simulate_durable_then_recover_is_bit_identical() {
        let dir = temp("durable-day");
        let _ = std::fs::remove_dir_all(&dir);

        // Journal a faulted day with an effectively-infinite snapshot
        // cadence so the whole day survives in the log.
        let simulate = format!(
            "simulate --algo gta --seed 4 --hours 1 --period-min 15 --workers 6 --dps 12 \
             --rate 40 --faults --durable-dir {} --fsync never --snapshot-every 100000",
            dir.display()
        );
        let cmd = parse(&argv(&simulate)).unwrap();
        let original = execute(&cmd).unwrap();
        assert!(
            original.contains("durable journal in"),
            "missing journal line:\n{original}"
        );
        assert!(dir.join(META_FILE).exists(), "meta.json must be written");
        let wal = dir.join(fta_durable::WAL_FILE);
        assert!(wal.exists(), "commit log must be written");

        // "Crash": tear the final frame mid-payload.
        let full = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(full - 5)
            .unwrap();

        // wal-dump reports the torn tail and decodes the clean frames.
        let cmd = parse(&argv(&format!("wal-dump {}", dir.display()))).unwrap();
        let dump = execute(&cmd).unwrap();
        assert!(dump.contains("torn tail dropped"), "no torn tail:\n{dump}");
        assert!(dump.contains("round "), "no frame rows:\n{dump}");
        assert!(
            dump.contains("+rng"),
            "faulted day journals its RNG:\n{dump}"
        );

        // recover finishes the day bit-for-bit: every summary line after
        // the recovery header must equal the uninterrupted output.
        let cmd = parse(&argv(&format!("recover {}", dir.display()))).unwrap();
        let recovered = execute(&cmd).unwrap();
        assert!(
            recovered.contains("torn tail: yes"),
            "missing torn-tail note:\n{recovered}"
        );
        let body = |out: &str| {
            out.lines()
                .filter(|l| {
                    l.starts_with("simulated")
                        || l.starts_with("tasks:")
                        || l.starts_with("faults:")
                        || l.starts_with("earnings fairness:")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(body(&recovered), body(&original), "recovered day diverged");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_ledger_matches_uninterrupted_ledger_modulo_nanos() {
        let dir = temp("durable-ledger");
        let a_path = temp("durable-ledger-a.jsonl");
        let b_path = temp("durable-ledger-b.jsonl");
        let _ = std::fs::remove_dir_all(&dir);

        let cmd = parse(&argv(&format!(
            "simulate --algo gta --seed 8 --hours 1 --period-min 15 --workers 6 --dps 12 \
             --rate 40 --faults --budget-ms 0 --ledger-out {} --durable-dir {} --fsync never",
            a_path.display(),
            dir.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();

        // Recover the (complete) day: the re-materialised ledger must
        // agree with the uninterrupted one on everything deterministic.
        let cmd = parse(&argv(&format!(
            "recover {} --ledger-out {}",
            dir.display(),
            b_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(
            out.contains("replayed from the journal"),
            "missing replay note:\n{out}"
        );

        let cmd = parse(&argv(&format!(
            "obs-diff {} {} --ignore nanos",
            a_path.display(),
            b_path.display()
        )))
        .unwrap();
        let diff = execute(&cmd).unwrap();
        assert!(
            diff.contains("0 out of band"),
            "recovered ledger diverged:\n{diff}"
        );
        assert!(diff.contains("ignoring: nanos"));

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&a_path);
        let _ = std::fs::remove_file(&b_path);
    }

    #[test]
    fn recover_without_meta_is_a_clear_error() {
        let dir = temp("no-meta");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cmd = parse(&argv(&format!("recover {}", dir.display()))).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(
            err.contains("meta.json") && err.contains("--durable-dir"),
            "unclear error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_instance_file_is_reported() {
        let cmd = parse(&argv("inspect /nonexistent/fta-instance.json")).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("i/o error"));
    }

    #[test]
    fn schedule_rejects_foreign_and_unknown_dps() {
        let instance_path = temp("two-centers.json");
        let cmd = parse(&argv(&format!(
            "generate syn --seed 5 --centers 2 --workers 6 --tasks 60 --dps 10 --out {}",
            instance_path.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();

        let inst = fta_data::io::load_instance(&instance_path).unwrap();
        // Find a dp belonging to center 1 and ask center 0 to schedule it.
        let foreign = inst
            .delivery_points
            .iter()
            .find(|dp| dp.center == fta_core::CenterId(1))
            .expect("two centers have dps");
        let cmd = parse(&argv(&format!(
            "schedule {} --center 0 --dps {}",
            instance_path.display(),
            foreign.id.0
        )))
        .unwrap();
        assert!(execute(&cmd)
            .unwrap_err()
            .contains("another distribution center"));

        let cmd = parse(&argv(&format!(
            "schedule {} --center 0 --dps 9999",
            instance_path.display()
        )))
        .unwrap();
        assert!(execute(&cmd).unwrap_err().contains("does not exist"));

        let _ = std::fs::remove_file(&instance_path);
    }
}
