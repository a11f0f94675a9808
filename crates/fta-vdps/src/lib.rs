//! # fta-vdps — Valid Delivery Point Set generation (Section IV)
//!
//! Implements the paper's Algorithm 1: a dynamic program over delivery-point
//! subsets that enumerates, per distribution center, every *center-origin*
//! Valid Delivery Point Set (C-VDPS) together with its minimum-travel-time
//! visiting sequence, plus the distance-constrained pruning strategy (`ε`)
//! and the validation step that turns C-VDPSs into each worker's strategy
//! space (one sort of the pool, then one prefix per worker and row length;
//! see [`strategy`]).
//!
//! ## Algorithm sketch
//!
//! States are `(Q, dp_j)` pairs — a subset `Q` of the center's delivery
//! points and the last visited point `dp_j` — holding the minimal arrival
//! time at `dp_j` over all deadline-feasible orderings of `Q` ending at
//! `dp_j` (Held–Karp with deadline feasibility). Subsets are `u128`
//! bitmasks over center-local delivery-point indices, and generation
//! proceeds level by level in subset size, exactly as the paper's Algorithm
//! 1 (lines 6–12). A subset is a C-VDPS iff *some* ordering delivers every
//! point before its earliest task expiry; the representative route is the
//! one with minimal total travel time, which the paper singles out because
//! it yields the highest worker payoff (Definition 7).
//!
//! Keeping the minimum arrival time per `(Q, dp_j)` is an exact dominance:
//! a later extension's feasibility and cost depend only on the arrival time
//! at the last point, so the earliest arrival dominates.
//!
//! ## Pruning
//!
//! * **Distance-constrained pruning** (the paper's ε strategy): an extension
//!   `dp_i → dp_j` is only considered when `d(dp_i, dp_j) ≤ ε`. Pass
//!   [`VdpsConfig::epsilon`] `= None` for the unpruned `-W` variants used in
//!   the paper's Figures 2–3.
//! * **Deadline pruning**: extensions that would arrive after `dp_j`'s
//!   earliest task expiry are cut immediately, so the frontier only holds
//!   feasible states.
//! * **Length cap**: subsets larger than the largest `maxDP` among the
//!   center's workers can never be assigned, so generation stops there.
//!
//! ## The engine
//!
//! Every generator entry point ([`generate_c_vdps`], [`generate_c_vdps_in`],
//! [`generate_c_vdps_budgeted`]) runs the flat-frontier engine of
//! `flat.rs`. It builds a fused ε-adjacency ([`adjacency::Adjacency`],
//! one pass over the center's point pairs: per point, its neighbours and
//! the travel time to each) plus per-point
//! expiry arrays, and keeps each DP layer as a *mask-bucketed flat
//! frontier*: states of one layer are grouped per subset mask (masks kept
//! sorted ascending) with a dense per-last-point slot array, so a state is
//! addressed by `(group, rank(mask, last))` with no hashing on the read
//! side. New masks are deduplicated through an open-addressed
//! `u128 → group` table with an inline multiply-shift hash. The per-mask
//! best route falls out of the layout during emission, and every slot
//! points at its predecessor's group, so the route backwalk is O(1) per
//! hop. Large layers are expanded in chunks on the shared
//! [`pool::WorkerPool`]; per-thread shard tables are merged by
//! deterministic mask-range partition, which keeps the result
//! bit-identical to a sequential run regardless of thread count or
//! chunking.
//!
//! The pool is ordered by subset size, then mask. The tests hold it
//! bit-identical, order included, to two oracles: the brute force of
//! [`naive`] on small centers and a per-layer hash-map DP (test-only
//! code) on larger ones. A pool is a [`VdpsPool`]: one set per row of flat
//! columns (mask, stops, arrival offsets, reward, slack, travel), so
//! generating it allocates per center, not per set.
//!
//! ## Worker pool
//!
//! [`pool::WorkerPool`] is a bounded, std-only work-stealing pool (no
//! external dependencies). One pool instance is shared across *all*
//! parallelism in a solve: per-center strategy-space jobs and intra-center
//! DP layer expansion all submit to the same scoped queue, so a run never
//! holds more OS threads than `available_parallelism()` no matter how many
//! centers an instance has.
//! Submitters help drain the queue while waiting (helping join), which
//! makes nested submission deadlock-free and keeps one giant center from
//! serializing the rest of a run.

#![warn(missing_docs)]
#![deny(unsafe_code)]

// Lets the test-only oracles under `tests/support/`, written against the
// public API, compile inside the unit tests too.
#[cfg(test)]
extern crate self as fta_vdps;
#[cfg(test)]
#[path = "../tests/support/hashmap_dp.rs"]
mod hashmap_oracle;

pub mod adjacency;
pub mod arena;
pub mod columns;
pub mod config;
pub mod dedup;
pub mod delta;
mod flat;
pub mod generator;
pub mod kernel;
pub mod naive;
pub mod pool;
pub mod schedule;
pub mod strategy;

pub use arena::ArenaStats;
pub use columns::{VdpsPool, VdpsRow};
pub use config::VdpsConfig;
pub use delta::{delta_update, DeltaStats, PoolCache};
pub use generator::{
    generate_c_vdps, generate_c_vdps_budgeted, generate_c_vdps_in, GenControl, GenerationStats,
};
pub use pool::{TaskScope, WorkerPool};
pub use schedule::schedule_route;
pub use strategy::{StrategySpace, WorkerRows};
