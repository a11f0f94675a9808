//! Acceptance test for the monotone fast path at paper scale. (The
//! incremental engine's evaluator-construction counts against the
//! per-turn rebuild oracle are pinned by the unit tests of
//! `fta_algorithms::fgt`, next to that oracle.)

use fta_algorithms::{BestResponseEngine, FgtConfig};
use fta_vdps::VdpsConfig;

/// Acceptance test for the monotone fast path: at paper scale (`n = 1000`
/// workers) the descending first-available scan must probe at least 10×
/// fewer strategy slots than the exhaustive incremental engine, which
/// walks every worker's entire valid list each turn. (Wall-clock
/// confirmation lives in `src/bin/br_snapshot.rs`; this test pins the
/// deterministic counters.)
///
/// The fixture keeps the paper's worker-to-delivery-point ratio (Table I:
/// 2 000 workers, 5 000 DPs over 50 centers) rather than the deliberately
/// over-subscribed `syn_single_center` shape: when supply is starved,
/// workers with no available strategy must exhaust their lists under
/// *every* engine, and no scan policy can shorten that.
#[test]
fn fastpath_scans_at_least_10x_fewer_candidates_at_paper_scale() {
    use fta_algorithms::{fgt, BestResponseStats, GameContext};
    use fta_vdps::StrategySpace;

    let instance = fta_data::generate_syn(
        &fta_data::SynConfig {
            n_centers: 100,
            n_workers: 1000,
            n_tasks: 120_000,
            n_delivery_points: 6000,
            extent: 4.0,
            ..fta_data::SynConfig::bench_scale()
        },
        3,
    );
    // Build each center's strategy space once and run both engines over
    // the same spaces: the comparison is about the equilibrium loop, and
    // skipping a second VDPS generation pass keeps the test fast.
    let views = instance.center_views();
    let vdps = VdpsConfig::pruned(2.0, 3);
    let spaces: Vec<StrategySpace> = views
        .iter()
        .map(|view| StrategySpace::build(&instance, view, &vdps))
        .collect();
    let run = |engine: BestResponseEngine| {
        let cfg = FgtConfig {
            max_rounds: 2,
            restarts: 0,
            engine,
            ..FgtConfig::default()
        };
        let mut stats = BestResponseStats::default();
        let mut assignment = fta_core::Assignment::new();
        for space in &spaces {
            let mut ctx = GameContext::new(space);
            stats.merge(&fgt(&mut ctx, &cfg).stats);
            assignment.merge(ctx.to_assignment());
        }
        (assignment, stats)
    };

    let (inc_asg, inc) = run(BestResponseEngine::Incremental);
    let (fast_asg, fast) = run(BestResponseEngine::FastPath);

    // Same equilibrium path, counted differently.
    assert_eq!(inc_asg, fast_asg);
    assert_eq!(inc.rounds, fast.rounds);
    assert_eq!(inc.switches, fast.switches);
    assert!(fast.rounds > 0, "FGT did no best-response rounds");

    // The default IAU weights are fast-path sound, so every round of the
    // FastPath run went through the monotone loop and most scans stopped
    // before exhausting the descending list.
    assert_eq!(fast.fastpath_rounds, fast.rounds);
    assert_eq!(inc.fastpath_rounds, 0);
    assert!(fast.early_exits > 0, "no descending scan exited early");

    eprintln!(
        "candidates_scanned: exhaustive {} vs fastpath {} ({:.1}x)",
        inc.candidates_scanned,
        fast.candidates_scanned,
        inc.candidates_scanned as f64 / fast.candidates_scanned as f64
    );
    assert!(
        inc.candidates_scanned >= 10 * fast.candidates_scanned,
        "expected >=10x fewer strategy slots probed: \
         exhaustive {} vs fastpath {}",
        inc.candidates_scanned,
        fast.candidates_scanned
    );
}
