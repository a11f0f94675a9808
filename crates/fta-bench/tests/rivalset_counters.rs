//! The best-response work counters at paper scale, against their
//! definition. (The evaluator-construction counts against the per-turn
//! rebuild oracle are pinned by the unit tests of `fta_algorithms::fgt`,
//! next to that oracle.)

use fta_algorithms::random::random_init;
use fta_algorithms::{fgt, BestResponseStats, FgtConfig, GameContext};
use fta_core::iau::{IauEvaluator, IauParams};
use fta_vdps::{StrategySpace, VdpsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The counters' definition for one worker turn: the worker's valid
/// strategies grouped by row length `L`; a group whose masks' union has
/// fewer than `L` points outside the others' taken mask is skipped, every
/// other group's rows are scanned. Returns `(scanned, skipped a non-empty
/// group)`.
fn reach_definition(ctx: &GameContext<'_>, local: usize) -> (u64, bool) {
    let space = ctx.space();
    let others = ctx.taken_mask() & !ctx.own_mask(local);
    let mut groups: BTreeMap<usize, (u64, u128)> = BTreeMap::new();
    for (idx, _) in space.strategies(local) {
        let group = groups.entry(space.pool.row_len(idx as usize)).or_default();
        group.0 += 1;
        group.1 |= space.pool.mask(idx as usize);
    }
    groups
        .iter()
        .fold((0, false), |(scanned, skipped), (&len, &(rows, union))| {
            if (union & !others).count_ones() as usize >= len {
                (scanned + rows, skipped)
            } else {
                (scanned, true)
            }
        })
}

/// One cold FGT run (no restarts) replayed with exhaustive evaluation
/// against a fresh evaluator per turn, counting what the monotone
/// search's passes should: `candidates_scanned` and `early_exits` by
/// [`reach_definition`], two `evaluator_updates` per turn whose best
/// response differs from the current selection. Also returns the number
/// of turns.
fn replay(
    space: &StrategySpace,
    cfg: &FgtConfig,
) -> (fta_core::Assignment, BestResponseStats, u64) {
    let mut ctx = GameContext::new(space);
    random_init(&mut ctx, &mut StdRng::seed_from_u64(cfg.seed));
    let mut stats = BestResponseStats::default();
    let mut turns = 0;
    let n = ctx.n_workers();
    for _ in 0..cfg.max_rounds {
        stats.rounds += 1;
        let mut moves = 0;
        for local in 0..n {
            let others: Vec<f64> = (0..n)
                .filter(|&j| j != local)
                .map(|j| ctx.payoff(j))
                .collect();
            let eval = IauEvaluator::new(&others, cfg.iau);
            let (scanned, skipped) = reach_definition(&ctx, local);
            turns += 1;
            stats.candidates_scanned += scanned;
            stats.early_exits += u64::from(skipped);
            let current = eval.eval(ctx.payoff(local));
            let mut best = (None, eval.eval(0.0));
            for (idx, payoff) in ctx.available_strategies(local) {
                let u = eval.eval(payoff);
                if u > best.1 {
                    best = (Some(idx), u);
                }
            }
            if best.0 != ctx.selection(local) {
                stats.evaluator_updates += 2;
                if best.1 > current + cfg.min_improvement {
                    ctx.set_strategy(local, best.0);
                    moves += 1;
                    stats.switches += 1;
                }
            }
        }
        if moves == 0 {
            break;
        }
    }
    (ctx.to_assignment(), stats, turns)
}

/// At paper scale (`n = 1000` workers over 100 centers) the monotone
/// search's counters equal their definition on every turn of the same
/// game: the rows of the reach-tested prefixes its passes walked, the
/// turns whose reach test skipped a prefix, and two rival-set updates per
/// candidate turn. Under unsound weights (β = 1.5) the exhaustive search
/// walks every worker's whole valid list and updates the set twice on
/// every turn.
///
/// The fixture keeps the paper's worker-to-delivery-point ratio (Table I:
/// 2 000 workers, 5 000 DPs over 50 centers).
#[test]
fn fastpath_counters_match_their_definition_at_paper_scale() {
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
    // Build each center's strategy space once and run every loop over the
    // same spaces: the comparison is about the equilibrium loop.
    let views = instance.center_views();
    let vdps = VdpsConfig::pruned(2.0, 3);
    let spaces: Vec<StrategySpace> = views
        .iter()
        .map(|view| StrategySpace::build(&instance, view, &vdps))
        .collect();
    let config = |beta| FgtConfig {
        max_rounds: 2,
        restarts: 0,
        iau: IauParams { alpha: 0.5, beta },
        ..FgtConfig::default()
    };
    let sound = config(0.5);
    let guilty = config(1.5);
    assert!(fta_algorithms::fastpath_sound(sound.iau));
    assert!(!fta_algorithms::fastpath_sound(guilty.iau));
    // Every center's stats, and the assignment over all centers.
    let run = |cfg: &FgtConfig| {
        let mut per_center = Vec::new();
        let mut assignment = fta_core::Assignment::new();
        for space in &spaces {
            let mut ctx = GameContext::new(space);
            per_center.push(fgt(&mut ctx, cfg).stats);
            assignment.merge(ctx.to_assignment());
        }
        (assignment, per_center)
    };
    let total = |per_center: &[BestResponseStats]| {
        let mut stats = BestResponseStats::default();
        per_center.iter().for_each(|s| stats.merge(s));
        stats
    };
    let (fast_asg, fast_centers) = run(&sound);
    let fast = total(&fast_centers);
    let (_, ex_centers) = run(&guilty);
    let ex = total(&ex_centers);
    let mut oracle = BestResponseStats::default();
    let mut oracle_asg = fta_core::Assignment::new();
    let mut turns = 0;
    for space in &spaces {
        let replayed = replay(space, &sound);
        oracle_asg.merge(replayed.0);
        oracle.merge(&replayed.1);
        turns += replayed.2;
    }

    // The same game two ways.
    assert_eq!(oracle_asg, fast_asg);
    assert_eq!(oracle.rounds, fast.rounds);
    assert_eq!(oracle.switches, fast.switches);
    assert!(fast.rounds > 0, "FGT did no best-response rounds");
    assert_eq!(fast.fastpath_rounds, fast.rounds);

    eprintln!(
        "monotone: candidates_scanned {} (whole lists {}), early_exits {}, \
         evaluator_updates {} (every turn {}); exhaustive: candidates_scanned {}",
        fast.candidates_scanned,
        whole_lists(&spaces, &fast_centers),
        fast.early_exits,
        fast.evaluator_updates,
        2 * turns,
        ex.candidates_scanned,
    );
    assert_eq!(fast.candidates_scanned, oracle.candidates_scanned);
    assert_eq!(fast.early_exits, oracle.early_exits);
    assert_eq!(fast.evaluator_updates, oracle.evaluator_updates);
    assert!(fast.evaluator_updates < 2 * turns);
    // Exhaustive turns: the whole valid list, never a skipped prefix, a
    // remove and an insert on every turn, and no fast-path round.
    assert!(ex.rounds > 0, "the exhaustive run did no rounds");
    assert_eq!(ex.candidates_scanned, whole_lists(&spaces, &ex_centers));
    assert_eq!(ex.early_exits, 0);
    let ex_turns: u64 = spaces
        .iter()
        .zip(&ex_centers)
        .map(|(space, s)| s.rounds * space.n_workers() as u64)
        .sum();
    assert_eq!(ex.evaluator_updates, 2 * ex_turns);
    assert_eq!(ex.fastpath_rounds, 0);
}

/// Σ over centers of rounds × the center's valid slots: what scanning
/// every worker's whole valid list on every turn reads.
fn whole_lists(spaces: &[StrategySpace], per_center: &[BestResponseStats]) -> u64 {
    spaces
        .iter()
        .zip(per_center)
        .map(|(space, s)| s.rounds * space.total_slots() as u64)
        .sum()
}
