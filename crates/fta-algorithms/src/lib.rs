//! # fta-algorithms — task assignment algorithms for the FTA problem
//!
//! Implements every assignment algorithm evaluated in the paper
//! (Section VII-A) plus two validation baselines:
//!
//! * [`mod@gta`] — **GTA**, Greedy Task Assignment: repeatedly give the worker
//!   with the highest attainable payoff its best available VDPS;
//! * [`mod@mpta`] — **MPTA**, Maximal Payoff Task Assignment: maximises the
//!   *total* payoff (greedy seeding + payoff best-response hill climbing;
//!   the paper uses a tree-decomposition heuristic from external references
//!   — see `DESIGN.md` §3 for the substitution argument);
//! * [`mod@fgt`] — **FGT** (Algorithm 2), the fairness-aware classical game:
//!   sequential asynchronous best response on Inequity-Aversion based
//!   Utility until a pure Nash equilibrium;
//! * [`mod@iegt`] — **IEGT** (Algorithm 3), the improved evolutionary game:
//!   replicator-dynamics-driven strategy adaptation until an improved
//!   evolutionary equilibrium;
//! * [`random`] — random assignment (also the shared random initialisation
//!   of Algorithms 2 and 3, lines 6–16);
//! * [`exact`] — exponential-time exact solvers (minimum payoff difference
//!   and maximum total payoff), used to validate the heuristics on small
//!   instances and to exercise the NP-hardness boundary.
//!
//! All algorithms operate on a [`context::GameContext`] over a
//! per-center [`StrategySpace`](fta_vdps::StrategySpace); the [`solver`]
//! module solves one center and merges the centers' results, and
//! [`Solver`] runs the round loop over a whole
//! [`Instance`](fta_core::Instance): one (optionally threaded) job per
//! center, with per-center caches between rounds.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod context;
pub mod degrade;
pub mod exact;
pub mod fgt;
pub mod gta;
pub mod iegt;
pub mod ledger;
pub mod mpta;
pub mod pfgt;
pub mod random;
pub mod report;
pub mod resolve;
pub mod solver;
pub mod stats;
pub mod trace;
pub mod warm;

pub use context::GameContext;
pub use degrade::{DegradationEvent, DegradationReport, LadderRung};
pub use exact::{exact_search, ExactObjective};
pub use fgt::{fastpath_sound, fgt, fgt_bounded, fgt_warm_bounded, FgtConfig};
pub use fta_vdps::kernel::ScanWork;
pub use gta::gta;
pub use iegt::{iegt, iegt_bounded, iegt_warm_bounded, IegtConfig, RedrawPolicy};
pub use mpta::{mpta, MptaConfig};
pub use pfgt::{pfgt, pfgt_bounded, pfgt_warm_bounded, PfgtConfig, PrioritySpec};
pub use random::random_assignment;
pub use report::SolveReport;
pub use resolve::{estimate_center_cost, CacheSeed, CenterSeed, ResolveStats, Solver};
pub use solver::{
    solve, solve_with_pool, Algorithm, CenterSolveSummary, PanicInjection, SolveConfig,
    SolveOutcome,
};
pub use stats::BestResponseStats;
pub use trace::{ConvergenceTrace, RoundStats};
pub use warm::{profile_of, warm_init, WarmStart};
