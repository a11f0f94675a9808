//! A pooled solve runs one job per center, and each center's spans and
//! clock measure that center alone: no center runs inside another
//! center's `solver.center` span, and the centers' summed VDPS time fits
//! inside the pool's threads × the solve's wall time.
//!
//! The recorder is process-global, so this file holds a single test.

use fta_algorithms::{solve_with_pool, Algorithm, FgtConfig, SolveConfig};
use fta_data::{generate_syn, SynConfig};
use fta_obs::SpanRecord;
use fta_vdps::{VdpsConfig, WorkerPool};
use std::collections::HashMap;

const THREADS: usize = 4;

#[test]
fn pooled_centers_time_only_themselves() {
    // Table I's shape cut to 64 centers of ~10 workers and ~60 points.
    let instance = generate_syn(
        &SynConfig {
            n_centers: 64,
            n_workers: 640,
            n_tasks: 6_400,
            n_delivery_points: 3_840,
            ..SynConfig::bench_scale()
        },
        5,
    );
    let config = SolveConfig {
        vdps: VdpsConfig::pruned(2.0, 3),
        ..SolveConfig::new(Algorithm::Fgt(FgtConfig::default()))
    };

    let recorder = fta_obs::Recorder::install();
    let outcome = solve_with_pool(&instance, &config, &WorkerPool::with_threads(THREADS));
    let snapshot = recorder.finish();

    let by_id: HashMap<u64, &SpanRecord> = snapshot.spans.iter().map(|s| (s.id, s)).collect();
    let centers: Vec<&SpanRecord> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "solver.center")
        .collect();
    assert_eq!(centers.len(), instance.centers.len());
    for span in &centers {
        let mut parent = span.parent;
        while let Some(id) = parent {
            let Some(ancestor) = by_id.get(&id) else {
                break;
            };
            assert_ne!(
                ancestor.name, "solver.center",
                "center {:?} ran inside center {:?}'s span",
                span.center, ancestor.center
            );
            parent = ancestor.parent;
        }
    }

    let solves: Vec<&SpanRecord> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "solver.solve")
        .collect();
    assert_eq!(solves.len(), 1, "one solve, one root span");
    let wall = solves[0].duration_nanos as u128;
    let summed = outcome.vdps_time.as_nanos();
    assert!(
        summed <= THREADS as u128 * wall,
        "centers' summed VDPS time {summed} ns exceeds {THREADS} threads x the solve's {wall} ns"
    );
}
