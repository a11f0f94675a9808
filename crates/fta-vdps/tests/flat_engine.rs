//! Paper-scale acceptance tests of the flat-frontier engine (ISSUE 2).
//!
//! A single distribution center with ~80 task-bearing delivery points —
//! the scale of the paper's SYN experiments — is generated
//! deterministically, and the flat engine must (a) reproduce pinned work
//! counters exactly, (b) produce pools bit-identical to the hash-map
//! oracle, and (c) be invariant under pooled parallel execution, down to
//! the strategy spaces built from the pooled pools.

use fta_core::route::Route;
use fta_core::Instance;
use fta_data::{generate_syn, SynConfig};
use fta_vdps::{generate_c_vdps_in, StrategySpace, VdpsConfig, VdpsPool, WorkerPool};

#[path = "support/hashmap_dp.rs"]
mod hashmap_dp;
use hashmap_dp::generate_c_vdps_hashmap;

/// One SYN center at the scale of the paper's experiments (80 delivery
/// points, every one task-bearing).
fn paper_scale_center(seed: u64) -> Instance {
    generate_syn(
        &SynConfig {
            n_centers: 1,
            n_workers: 24,
            n_tasks: 1_600,
            n_delivery_points: 80,
            extent: 4.0,
            ..SynConfig::bench_scale()
        },
        seed,
    )
}

fn assert_pools_bit_identical(a: &VdpsPool, b: &VdpsPool, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: pool sizes differ");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.mask, y.mask, "{what}: mask order differs");
        assert_eq!(
            x.stops, y.stops,
            "{what}: route differs on mask {:#b}",
            x.mask
        );
        assert_eq!(
            x.travel_from_dc.to_bits(),
            y.travel_from_dc.to_bits(),
            "{what}: travel time not bit-identical on mask {:#b}",
            x.mask
        );
    }
}

#[test]
fn paper_scale_counters_are_pinned_and_engine_independent() {
    let inst = paper_scale_center(2024);
    let aggs = inst.dp_aggregates();
    let views = inst.center_views();
    assert!(
        (60..=100).contains(&views[0].dps.len()),
        "expected a paper-scale center, got {} dps",
        views[0].dps.len()
    );

    for (config, pinned) in [
        // The paper's SYN defaults: ε = 2 km, maxDP = 3 (Table I).
        (VdpsConfig::pruned(2.0, 3), PINNED_PRUNED),
        // The unpruned `-W` variant.
        (VdpsConfig::unpruned(3), PINNED_UNPRUNED),
    ] {
        let (flat, flat_stats) = generate_c_vdps_in(&inst, &aggs, &views[0], &config, None);
        let (hashed, hashed_stats) = generate_c_vdps_hashmap(&inst, &aggs, &views[0], &config);
        assert_pools_bit_identical(&flat, &hashed, "flat vs hash-map oracle");
        assert_eq!(
            flat_stats.work_counters(),
            hashed_stats.work_counters(),
            "engine and oracle disagree on work counters (ε = {:?})",
            config.epsilon
        );
        assert_eq!(
            flat_stats.work_counters(),
            pinned,
            "work counters drifted from the pinned acceptance values \
             (ε = {:?}); a deliberate generator change must update them",
            config.epsilon
        );
    }
}

/// Pinned `(states, extensions_tried, pruned_by_distance,
/// pruned_by_deadline, vdps_count)` for `paper_scale_center(2024)` with
/// ε = 2 km, maxDP = 3.
const PINNED_PRUNED: (usize, usize, usize, usize, usize) = PINNED[0];
/// Same center, unpruned (`-W`).
const PINNED_UNPRUNED: (usize, usize, usize, usize, usize) = PINNED[1];
const PINNED: [(usize, usize, usize, usize, usize); 2] = [
    (84_704, 248_512, 118_310, 0, 34_809),
    (252_741, 499_360, 0, 5_825, 85_400),
];

#[test]
fn paper_scale_pools_are_thread_count_invariant() {
    let inst = paper_scale_center(7);
    let aggs = inst.dp_aggregates();
    let views = inst.center_views();
    let config = VdpsConfig::unpruned(3);

    let (seq, seq_stats) = generate_c_vdps_in(&inst, &aggs, &views[0], &config, None);
    assert!(!seq.is_empty());
    for threads in [2, 4, 8] {
        let pool = WorkerPool::with_threads(threads);
        let (par, par_stats) =
            pool.scope(|ts| generate_c_vdps_in(&inst, &aggs, &views[0], &config, Some(ts)));
        assert_pools_bit_identical(&seq, &par, &format!("sequential vs {threads} threads"));
        assert_eq!(seq_stats.work_counters(), par_stats.work_counters());
        // At this scale the frontier passes the chunking threshold, so the
        // pooled run must actually have split layers into multiple chunks.
        assert!(
            par_stats.chunks > seq_stats.chunks,
            "pooled run did not chunk ({} vs {})",
            par_stats.chunks,
            seq_stats.chunks
        );
    }
}

/// Every row of a paper-scale pool — sequential, pooled, and the hash-map
/// oracle's —
/// equals a full `Route::build` of its stops, bit for bit in every field.
#[test]
fn paper_scale_rows_equal_full_rebuilds() {
    let inst = paper_scale_center(31);
    let aggs = inst.dp_aggregates();
    let view = &inst.center_views()[0];
    let workers = WorkerPool::with_threads(2);
    for config in [VdpsConfig::pruned(2.0, 3), VdpsConfig::unpruned(3)] {
        let (seq, seq_stats) = generate_c_vdps_in(&inst, &aggs, view, &config, None);
        let (par, par_stats) =
            workers.scope(|ts| generate_c_vdps_in(&inst, &aggs, view, &config, Some(ts)));
        assert!(
            par_stats.chunks > seq_stats.chunks,
            "pooled run did not chunk"
        );
        let (hashed, _) = generate_c_vdps_hashmap(&inst, &aggs, view, &config);
        for pool in [&seq, &par, &hashed] {
            for r in 0..pool.len() {
                let row = pool.row(r);
                let built = Route::build(&inst, &aggs, view.center, row.stops.to_vec())
                    .expect("rows reference valid delivery points");
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(row.offsets), bits(built.arrival_offsets()));
                assert_eq!(row.total_reward.to_bits(), built.total_reward().to_bits());
                assert_eq!(row.slack.to_bits(), built.slack().to_bits());
                assert_eq!(
                    row.travel_from_dc.to_bits(),
                    built.travel_from_dc().to_bits()
                );
            }
        }
    }
}

#[test]
fn paper_scale_strategy_space_is_thread_count_invariant() {
    let inst = paper_scale_center(99);
    let aggs = inst.dp_aggregates();
    let views = inst.center_views();
    let config = VdpsConfig::unpruned(3);

    let seq = StrategySpace::build(&inst, &views[0], &config);
    for threads in [2, 4] {
        let pool = WorkerPool::with_threads(threads);
        let par = pool
            .scope(|ts| StrategySpace::build_in(&inst, &aggs, views[0].clone(), &config, Some(ts)));
        assert_eq!(seq.n_workers(), par.n_workers());
        assert_eq!(seq.pool.len(), par.pool.len());
        assert_eq!(seq.total_slots(), par.total_slots());
        for local in 0..seq.n_workers() {
            let bits = |s: &StrategySpace| -> Vec<(u32, u64)> {
                s.strategies(local).map(|(i, p)| (i, p.to_bits())).collect()
            };
            assert_eq!(
                bits(&seq),
                bits(&par),
                "{threads} threads: strategies differ"
            );
        }
    }
}
