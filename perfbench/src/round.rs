//! One assignment round composed from the layers' public functions.
//!
//! `solve_with_pool` runs, per center and in center order: C-VDPS
//! generation, per-worker validation into a strategy space, the game, and
//! the merge. [`composed_round`] makes the same calls itself, so the
//! benchmark can put a span around each one. Every run checks that the
//! composed assignment equals the solver's bit for bit.

use crate::trace::Tracer;
use fta_algorithms::{
    fgt, gta, iegt, mpta, Algorithm, BestResponseStats, ConvergenceTrace, FgtConfig, GameContext,
    IegtConfig, MptaConfig,
};
use fta_core::instance::{CenterView, DpAggregate};
use fta_core::{Assignment, Instance};
use fta_vdps::{generate_c_vdps_in, GenerationStats, StrategySpace, VdpsConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The per-center seed salt `solve_with_pool` applies, so the composed
/// round draws the same random numbers as the solver.
const CENTER_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// `algorithm` with its seed salted for `center`, as the solver does it.
pub fn salted(algorithm: Algorithm, center: u32) -> Algorithm {
    let mix = |seed: u64| seed ^ u64::from(center).wrapping_mul(CENTER_SALT);
    match algorithm {
        Algorithm::Fgt(c) => Algorithm::Fgt(FgtConfig {
            seed: mix(c.seed),
            ..c
        }),
        Algorithm::Iegt(c) => Algorithm::Iegt(IegtConfig {
            seed: mix(c.seed),
            ..c
        }),
        Algorithm::Mpta(c) => Algorithm::Mpta(MptaConfig {
            seed: mix(c.seed),
            ..c
        }),
        other => other,
    }
}

/// Runs one of the four algorithms the benchmark times on `ctx`.
///
/// # Panics
///
/// Panics on PFGT and Random, which no workload runs.
pub fn play(ctx: &mut GameContext<'_>, algorithm: Algorithm) -> ConvergenceTrace {
    match algorithm {
        Algorithm::Fgt(c) => fgt(ctx, &c),
        Algorithm::Iegt(c) => iegt(ctx, &c),
        Algorithm::Mpta(c) => {
            mpta(ctx, &c);
            ConvergenceTrace::default()
        }
        Algorithm::Gta => {
            gta(ctx);
            ConvergenceTrace::default()
        }
        other => panic!("the benchmark does not run {}", other.name()),
    }
}

/// The VDPS config the solver uses for one center: the length cap is
/// clamped to the largest `maxDP` among the center's workers.
fn center_vdps_config(instance: &Instance, view: &CenterView, vdps: VdpsConfig) -> VdpsConfig {
    let max_dp = view
        .workers
        .iter()
        .map(|&w| instance.workers[w.index()].max_dp)
        .max()
        .unwrap_or(0);
    VdpsConfig {
        max_len: vdps.max_len.min(max_dp),
        ..vdps
    }
}

/// What one composed round produced, with the layers' exact work counters.
#[derive(Default)]
pub struct RoundOutput {
    pub assignment: Assignment,
    pub gen: GenerationStats,
    pub slots: u64,
    pub br: BestResponseStats,
    pub centers: u64,
    pub failed_centers: u64,
}

/// Snapshot layer: the per-center views and the per-delivery-point
/// aggregates every center shares.
pub fn snapshot(instance: &Instance) -> (Vec<CenterView>, Vec<DpAggregate>) {
    (instance.center_views(), instance.dp_aggregates())
}

/// Builds one center's strategy space from the layers' public functions,
/// with a span around generation and one around validation.
pub fn center_space(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: CenterView,
    vdps: VdpsConfig,
    tracer: &mut Tracer,
    round: u64,
    parent: Option<usize>,
) -> StrategySpace {
    let center = view.center.0;
    let cfg = center_vdps_config(instance, &view, vdps);
    let (pool, gen) = tracer.span("vdps.generate", round, parent, Some(center), || {
        generate_c_vdps_in(instance, aggregates, &view, &cfg, None)
    });
    tracer.span("vdps.strategy", round, parent, Some(center), || {
        StrategySpace::from_pool_in(instance, view, pool, gen, None)
    })
}

/// One traced round: snapshot, then per center generation, validation and
/// the game, then the merge. A center whose layers panic is counted in
/// [`RoundOutput::failed_centers`] and contributes nothing.
pub fn composed_round(
    instance: &Instance,
    vdps: VdpsConfig,
    algorithm: Algorithm,
    tracer: &mut Tracer,
    round: u64,
) -> RoundOutput {
    let root = tracer.open("round", round, None, None);
    let (views, aggregates) = tracer.span("core.snapshot", round, Some(root), None, || {
        snapshot(instance)
    });
    let mut out = RoundOutput::default();
    for view in views {
        let center = view.center.0;
        out.centers += 1;
        let first_span = tracer.spans().len();
        let assignment = &mut out.assignment;
        let solved = catch_unwind(AssertUnwindSafe(|| {
            let space = center_space(instance, &aggregates, view, vdps, tracer, round, Some(root));
            let (ctx, trace) = tracer.span("algo.game", round, Some(root), Some(center), || {
                let mut ctx = GameContext::new(&space);
                let trace = play(&mut ctx, salted(algorithm, center));
                (ctx, trace)
            });
            tracer.span("algo.merge", round, Some(root), Some(center), || {
                assignment.merge(ctx.to_assignment());
            });
            (space.gen_stats, space.total_slots() as u64, trace.stats)
        }));
        match solved {
            Ok((gen, slots, br)) => {
                out.gen.merge(&gen);
                out.slots += slots;
                out.br.merge(&br);
            }
            Err(_) => {
                tracer.close_open_from(first_span);
                out.failed_centers += 1;
            }
        }
    }
    tracer.close(root);
    out
}
