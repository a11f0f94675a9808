//! End-to-end observability: a real solve recorded through the facade
//! crate produces per-center spans, per-round game events, and work
//! counters; the JSONL trace and Prometheus snapshot round-trip; and a
//! solve *without* a recorder emits nothing at all. A warm re-solve
//! counts which of its centers regenerated their pool.
//!
//! The `fta-obs` recorder is process-global, so every test in this
//! binary serialises on one mutex.

use fta::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn instance(n_centers: usize, seed: u64) -> Instance {
    generate_syn(
        &SynConfig {
            n_centers,
            n_workers: 6 * n_centers,
            n_tasks: 60 * n_centers,
            n_delivery_points: 10 * n_centers,
            extent: 2.0 * n_centers as f64,
            ..SynConfig::bench_scale()
        },
        seed,
    )
}

fn solve_recorded(inst: &Instance, algorithm: Algorithm, parallel: bool) -> fta::obs::Snapshot {
    let recorder = Recorder::install();
    let outcome = solve(
        inst,
        &SolveConfig {
            vdps: VdpsConfig::default(),
            algorithm,
            parallel,
            ..SolveConfig::new(Algorithm::Gta)
        },
    );
    assert!(outcome.assignment.validate(inst).is_ok());
    recorder.finish()
}

#[test]
fn recorded_solve_covers_all_layers() {
    let _guard = lock();
    let inst = instance(2, 7);
    let snapshot = solve_recorded(&inst, Algorithm::Iegt(IegtConfig::default()), false);

    // One solve span; one center + assignment + generation span per center.
    assert_eq!(snapshot.span_count("solver.solve"), 1);
    assert_eq!(snapshot.span_count("solver.center"), 2);
    assert_eq!(snapshot.span_count("solver.assign"), 2);
    assert_eq!(snapshot.span_count("vdps.generate"), 2);
    assert!(snapshot.span_count("vdps.dp") >= 2);
    assert!(snapshot.span_count("vdps.layer") >= 2, "per-DP-layer spans");
    // The ε-adjacency build is its own span inside each center's DP.
    assert_eq!(
        snapshot.span_count("vdps.adjacency"),
        snapshot.span_count("vdps.dp")
    );
    for adjacency in snapshot.spans.iter().filter(|s| s.name == "vdps.adjacency") {
        let parent = snapshot
            .spans
            .iter()
            .find(|s| Some(s.id) == adjacency.parent)
            .expect("the adjacency span has a parent");
        assert_eq!(parent.name, "vdps.dp");
        assert_eq!(parent.center, adjacency.center);
    }

    // Span attribution: every solver.center span names a distinct center.
    let mut centers: Vec<u32> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "solver.center")
        .map(|s| s.center.expect("center spans carry attribution"))
        .collect();
    centers.sort_unstable();
    assert_eq!(centers, vec![0, 1]);

    // The game loop reports at least one round per center, with
    // monotone round numbers within a center.
    assert!(!snapshot.rounds.is_empty(), "IEGT must emit round events");
    assert!(snapshot.rounds.iter().all(|r| r.algo == "IEGT"));
    for c in 0..2u32 {
        let rounds: Vec<u32> = snapshot
            .rounds
            .iter()
            .filter(|r| r.center == c)
            .map(|r| r.round)
            .collect();
        assert!(!rounds.is_empty(), "no rounds recorded for center {c}");
        assert!(rounds.windows(2).all(|w| w[0] < w[1]));
    }

    // Generation + best-response work counters are populated.
    for name in ["vdps.states", "vdps.count", "br.rounds", "br.switches"] {
        assert!(snapshot.counter(name) > 0, "counter {name} is zero");
    }
}

#[test]
fn trace_and_prometheus_round_trip() {
    let _guard = lock();
    let inst = instance(1, 11);
    let snapshot = solve_recorded(&inst, Algorithm::Fgt(FgtConfig::default()), false);

    let mut path = std::env::temp_dir();
    path.push(format!("fta-integration-obs-{}.jsonl", std::process::id()));
    fta::obs::trace::write_file(&snapshot, &path).unwrap();
    let parsed = fta::obs::trace::parse_file(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(parsed.version, fta::obs::trace::SCHEMA_VERSION);
    assert_eq!(parsed.epoch_unix_ms, snapshot.epoch_unix_ms);
    assert_eq!(parsed.spans.len(), snapshot.spans.len());
    assert_eq!(parsed.rounds.len(), snapshot.rounds.len());
    assert_eq!(parsed.rounds_for("FGT").count(), snapshot.rounds.len());
    for (name, value) in &snapshot.counters {
        assert_eq!(parsed.counters.get(*name), Some(value), "counter {name}");
    }

    // The Prometheus snapshot is well-formed and covers the three
    // instrumented subsystems.
    let prom = snapshot.to_prometheus();
    fta::obs::trace::validate_prometheus(&prom).unwrap();
    for needle in ["fta_vdps_states", "fta_br_rounds", "fta_span_solver_center"] {
        assert!(prom.contains(needle), "missing {needle} in:\n{prom}");
    }
}

#[test]
fn parallel_solve_loses_no_events() {
    let _guard = lock();
    let inst = instance(4, 3);
    let seq = solve_recorded(&inst, Algorithm::Gta, false);
    let par = solve_recorded(&inst, Algorithm::Gta, true);

    // Work counters that are thread-count invariant must agree between
    // the sequential and pooled runs — nothing lost in TLS buffers.
    for name in ["vdps.states", "vdps.extensions_tried", "vdps.count"] {
        assert_eq!(seq.counter(name), par.counter(name), "counter {name}");
    }
    assert_eq!(par.span_count("solver.center"), 4);
    assert_eq!(par.span_count("vdps.generate"), 4);
}

#[test]
fn budgeted_and_panicking_solve_emits_robustness_counters() {
    let _guard = lock();
    let inst = instance(3, 13);

    // Exhausted budget + a poisoned center that panics on both attempts:
    // the solve must still complete, and the robustness counters must land
    // in the snapshot and the Prometheus rendering.
    let recorder = Recorder::install();
    let outcome = solve(
        &inst,
        &SolveConfig {
            budget: SolveBudget::wall_ms(0),
            inject_panic: Some(PanicInjection {
                center: 1,
                also_on_retry: true,
            }),
            ..SolveConfig::new(Algorithm::Iegt(IegtConfig::default()))
        },
    );
    let snapshot = recorder.finish();

    assert!(outcome.assignment.validate(&inst).is_ok());
    assert!(outcome.is_degraded());
    assert_eq!(outcome.degradation.panics_caught(), 2);

    assert!(
        snapshot.counter("solve.degraded") >= 2,
        "at least the two healthy centers degrade under a 0 ms budget"
    );
    assert_eq!(snapshot.counter("budget.exhausted"), 1);
    assert_eq!(snapshot.counter("pool.panics_caught"), 2);

    let prom = snapshot.to_prometheus();
    fta::obs::trace::validate_prometheus(&prom).unwrap();
    for needle in [
        "fta_solve_degraded",
        "fta_budget_exhausted",
        "fta_pool_panics_caught",
    ] {
        assert!(prom.contains(needle), "missing {needle} in:\n{prom}");
    }

    // An unbudgeted, fault-free recorded solve emits none of them.
    let clean = solve_recorded(&inst, Algorithm::Iegt(IegtConfig::default()), false);
    assert_eq!(clean.counter("solve.degraded"), 0);
    assert_eq!(clean.counter("budget.exhausted"), 0);
    assert_eq!(clean.counter("pool.panics_caught"), 0);
}

#[test]
fn unrecorded_solve_emits_nothing() {
    let _guard = lock();
    let inst = instance(1, 5);
    assert!(!fta::obs::enabled());
    let outcome = solve(&inst, &SolveConfig::new(Algorithm::Gta));
    assert!(outcome.assignment.validate(&inst).is_ok());

    // A recorder installed *after* the solve sees none of its events.
    let recorder = Recorder::install();
    let snapshot = recorder.finish();
    assert!(snapshot.is_empty(), "stale events leaked: {snapshot:?}");
}

#[test]
fn warm_resolve_counts_regenerated_pools() {
    use fta::algorithms::Solver;
    use fta::core::ChurnSet;

    let _guard = lock();
    let inst = instance(3, 17);
    let resolve_recorded = |churned: &Instance| {
        let mut solver = Solver::new(SolveConfig::new(Algorithm::Gta));
        solver.solve(&inst);
        let recorder = Recorder::install();
        solver.resolve(churned, &ChurnSet::empty(churned.workers.len()));
        (solver.last_stats(), recorder.finish())
    };

    // Removal-only churn: every warm center is delta-updated.
    let mut removed = inst.clone();
    removed.tasks.truncate(inst.tasks.len() * 9 / 10);
    let (stats, snapshot) = resolve_recorded(&removed);
    assert!(stats.centers_warm > 0, "{stats:?}");
    assert_eq!(snapshot.counter("vdps.delta_regenerated"), 0);
    assert!(snapshot.counter("vdps.delta_reused") > 0);

    // A task at a new delivery point of every center: each warm center
    // regenerates its pool, once.
    let mut arrived = inst.clone();
    for c in &inst.centers {
        let dp = DeliveryPointId::from_index(arrived.delivery_points.len());
        arrived.delivery_points.push(DeliveryPoint {
            id: dp,
            location: Point::new(c.location.x + 0.05, c.location.y),
            center: c.id,
        });
        arrived.tasks.push(SpatialTask {
            id: TaskId::from_index(arrived.tasks.len()),
            delivery_point: dp,
            expiry: inst.tasks[0].expiry,
            reward: 1.0,
        });
    }
    let (stats, snapshot) = resolve_recorded(&arrived);
    assert_eq!(stats.centers_warm, inst.centers.len(), "{stats:?}");
    assert_eq!(
        snapshot.counter("vdps.delta_regenerated"),
        inst.centers.len() as u64
    );
    assert_eq!(snapshot.counter("vdps.delta_fallback"), 0);
}
