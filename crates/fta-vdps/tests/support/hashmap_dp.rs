//! Hash-map reference implementation of Algorithm 1, the test oracle for
//! the flat C-VDPS engine at sizes where the brute force of
//! `fta_vdps::naive` is infeasible.
//!
//! Each DP layer is a `HashMap<(mask, last), State>`; a second pass picks
//! each mask's minimum-travel ending and rebuilds its route with
//! [`Route::build`]. The pool (order included) and the work counters of
//! [`GenerationStats::work_counters`] must equal the production engine's.
//! Built from the crate's public items only, so the unit tests and the
//! integration tests share this one file.

use fta_core::instance::{CenterView, DpAggregate, Instance};
use fta_core::route::Route;
use fta_core::DeliveryPointId;
use fta_vdps::adjacency::Adjacency;
use fta_vdps::{GenerationStats, VdpsConfig, VdpsPool};
use std::collections::HashMap;

/// A DP state: minimal arrival at the last point, and its predecessor
/// (`u8::MAX` for the first stop).
#[derive(Debug, Clone, Copy)]
struct State {
    arrival: f64,
    parent: u8,
}

/// Generates all C-VDPSs of one center with per-layer hash maps.
///
/// # Panics
///
/// Panics if the center has more than 128 task-bearing delivery points.
pub fn generate_c_vdps_hashmap(
    instance: &Instance,
    aggregates: &[DpAggregate],
    view: &CenterView,
    config: &VdpsConfig,
) -> (VdpsPool, GenerationStats) {
    let n = view.dps.len();
    assert!(n <= 128, "the bitmask DP supports at most 128 points");
    let mut stats = GenerationStats::default();
    let mut pool = VdpsPool::new(view.center);
    if n == 0 || config.max_len == 0 {
        return (pool, stats);
    }
    let dc = instance.centers[view.center.index()].location;
    let speed = instance.speed;
    let locs: Vec<_> = view
        .dps
        .iter()
        .map(|dp| instance.delivery_points[dp.index()].location)
        .collect();
    let expiry: Vec<f64> = view
        .dps
        .iter()
        .map(|dp| aggregates[dp.index()].earliest_expiry)
        .collect();
    let adjacency = Adjacency::build(&locs, config.epsilon, speed);

    // Layer 1: singletons reachable before expiry.
    let mut layers: Vec<HashMap<(u128, u8), State>> = Vec::with_capacity(config.max_len);
    let mut first = HashMap::new();
    for (j, &loc) in locs.iter().enumerate() {
        let arrival = dc.travel_time(loc, speed);
        stats.extensions_tried += 1;
        if arrival <= expiry[j] {
            first.insert(
                (1u128 << j, j as u8),
                State {
                    arrival,
                    parent: u8::MAX,
                },
            );
        } else {
            stats.pruned_by_deadline += 1;
        }
    }
    layers.push(first);

    // Layers 2..=max_len. A point outside the mask but not adjacent to
    // the last one counts as distance-pruned (none when unpruned).
    for len in 2..=config.max_len.min(n) {
        let mut next: HashMap<(u128, u8), State> = HashMap::new();
        for (&(mask, last), state) in &layers[len - 2] {
            let last = last as usize;
            let free = n - mask.count_ones() as usize;
            let mut considered = 0usize;
            for (&j, &tt) in adjacency
                .neighbors(last)
                .iter()
                .zip(adjacency.travel_times(last))
            {
                let j = j as usize;
                if mask & (1u128 << j) != 0 {
                    continue;
                }
                considered += 1;
                let arrival = state.arrival + tt;
                if arrival > expiry[j] {
                    stats.pruned_by_deadline += 1;
                    continue;
                }
                let candidate = State {
                    arrival,
                    parent: last as u8,
                };
                next.entry((mask | (1u128 << j), j as u8))
                    .and_modify(|s| {
                        if candidate.arrival < s.arrival {
                            *s = candidate;
                        }
                    })
                    .or_insert(candidate);
            }
            stats.extensions_tried += free;
            stats.pruned_by_distance += free - considered;
        }
        if next.is_empty() {
            break;
        }
        layers.push(next);
    }
    stats.states = layers.iter().map(HashMap::len).sum();

    // Per mask, the minimum-travel ending; its route is rebuilt from the
    // parent pointers.
    let mut best_per_mask: HashMap<u128, (u8, f64)> = HashMap::new();
    for layer in &layers {
        for (&(mask, last), state) in layer {
            best_per_mask
                .entry(mask)
                .and_modify(|(l, a)| {
                    if state.arrival < *a {
                        *l = last;
                        *a = state.arrival;
                    }
                })
                .or_insert((last, state.arrival));
        }
    }
    let mut masks: Vec<u128> = best_per_mask.keys().copied().collect();
    masks.sort_by_key(|m| (m.count_ones(), *m));
    for mask in masks {
        let (mut last, _) = best_per_mask[&mask];
        let mut order_rev: Vec<u8> = Vec::with_capacity(mask.count_ones() as usize);
        let mut cur_mask = mask;
        loop {
            order_rev.push(last);
            let state = layers[cur_mask.count_ones() as usize - 1][&(cur_mask, last)];
            if state.parent == u8::MAX {
                break;
            }
            cur_mask &= !(1u128 << last);
            last = state.parent;
        }
        let dps: Vec<DeliveryPointId> = order_rev
            .into_iter()
            .rev()
            .map(|local| view.dps[local as usize])
            .collect();
        let route = Route::build(instance, aggregates, view.center, dps)
            .expect("DP states only reference valid delivery points");
        pool.push_route(mask, &route);
    }
    stats.vdps_count = pool.len();
    (pool, stats)
}
