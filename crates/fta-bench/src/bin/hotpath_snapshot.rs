//! Writes `BENCH_hotpath.json`: microkernel A/Bs of the chunked-limb
//! hot-path kernels against their scalar references, a calibration pass
//! that derives the conflict-index crossover knobs for the current
//! machine, and an end-to-end n=1000 solve comparing the full calibrated
//! profile against the legacy (pre-kernel) configuration.
//!
//! Sections:
//!
//! * **scan** — `first_open_chunked` vs `first_open_scalar` over a
//!   payoff-descending-shaped mask list under heavy contention (the
//!   first open slot sits hundreds of candidates deep, the case the
//!   chunked kernel exists for).
//! * **gather** — `first_zero_chunked` vs `first_zero_scalar` over the
//!   conflict-counter probe shape.
//! * **dedup** — the rewritten [`fta_vdps::dedup::DedupTable`]
//!   (limb-split keys, batched probes, folds stored across rehash) vs a
//!   local reimplementation of the PR-2 `ShardTable` layout (whole-`u128`
//!   keys, one branch per bucket, `fold_mask` recomputed for every
//!   re-insert of every rehash) on an expansion-shaped relax stream.
//! * **calibration** — measures full-miss scan cost, full-miss index
//!   probe cost, and per-posting-entry maintenance cost, then solves the
//!   crossover model of DESIGN.md §12 for
//!   `conflict_index_min_slots` / `conflict_index_max_slots_per_bit`.
//!   Degenerate measurements (the index never pays) keep the compiled-in
//!   defaults.
//! * **end_to_end** — a paper-scale FGT solve (100 centers, 1000
//!   workers, 6000 delivery points) with the calibrated profile vs the
//!   legacy profile (scalar kernels, rebuild emission, default
//!   crossovers).
//!
//! Usage: `cargo run -p fta-bench --release --bin hotpath_snapshot --
//! [OUT]` (default OUT: `BENCH_hotpath.json`). `FTA_BENCH_QUICK=1`
//! shrinks repetition counts and widens the noise-sensitive gates (CI
//! smoke mode). The binary asserts the `fta_bench::gates` floors before
//! writing, and `tests/bench_snapshots.rs` re-asserts them against the
//! committed file.

use fta_algorithms::{solve, Algorithm, FgtConfig, SolveConfig};
use fta_bench::{best_secs, gates, obj};
use fta_data::SynConfig;
use fta_vdps::dedup::{fold_mask, rank, DedupTable, Slot, EMPTY};
use fta_vdps::hotpath::{self, EmissionKernel, HotpathProfile, ScanKernel};
use fta_vdps::{kernel, GenControl, VdpsConfig};
use serde_json::Value;
use std::hint::black_box;

/// Deterministic xorshift stream for fixtures.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// A `u128` with roughly `bits` random bits set (sampling with
/// replacement, so occasionally fewer).
fn sparse_mask(next: &mut impl FnMut() -> u64, bits: usize) -> u128 {
    let mut m = 0u128;
    for _ in 0..bits {
        m |= 1u128 << (next() % 128);
    }
    m
}

// ---------------------------------------------------------------------
// Legacy dedup reference: the PR-2 ShardTable layout, kept here (not in
// the library) purely as the measurable "before" side of the A/B.
// ---------------------------------------------------------------------

fn bucket_of_fold(fold: u64, bits: u32) -> usize {
    (fold.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// Whole-`u128`-key open-addressed table with a scalar probe loop and a
/// rehash that recomputes `fold_mask` for every re-inserted group — the
/// exact shape `DedupTable` replaced. Same hash, same bucket order, same
/// slot layout, so the A/B isolates the probe/rehash rewrite.
struct LegacyTable {
    size: usize,
    bits: u32,
    keys: Vec<u128>,
    vals: Vec<u32>,
    masks: Vec<u128>,
    slots: Vec<Slot>,
}

impl LegacyTable {
    fn with_expected(expected: usize, size: usize) -> Self {
        let cap = (expected.max(8) * 2).next_power_of_two();
        Self {
            size,
            bits: cap.trailing_zeros(),
            keys: vec![0u128; cap],
            vals: vec![0u32; cap],
            masks: Vec::with_capacity(expected),
            slots: Vec::with_capacity(expected * size),
        }
    }

    fn grow(&mut self) {
        let cap = self.keys.len() * 2;
        self.bits = cap.trailing_zeros();
        self.keys.clear();
        self.keys.resize(cap, 0);
        self.vals.clear();
        self.vals.resize(cap, 0);
        for (g, &mask) in self.masks.iter().enumerate() {
            // The legacy sin under measurement: the fold is recomputed
            // for every group on every rehash.
            let mut idx = bucket_of_fold(fold_mask(mask), self.bits);
            while self.keys[idx] != 0 {
                idx = (idx + 1) & (cap - 1);
            }
            self.keys[idx] = mask;
            self.vals[idx] = g as u32;
        }
    }

    fn relax(&mut self, mask: u128, rank: usize, cand: Slot) {
        if (self.masks.len() + 1) * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let cap_mask = self.keys.len() - 1;
        let mut idx = bucket_of_fold(fold_mask(mask), self.bits);
        loop {
            let k = self.keys[idx];
            if k == mask {
                let slot = &mut self.slots[self.vals[idx] as usize * self.size + rank];
                if cand.beats(slot) {
                    *slot = cand;
                }
                return;
            }
            if k == 0 {
                let group = self.masks.len() as u32;
                self.keys[idx] = mask;
                self.vals[idx] = group;
                self.masks.push(mask);
                self.slots.resize(self.slots.len() + self.size, EMPTY);
                self.slots[group as usize * self.size + rank] = cand;
                return;
            }
            idx = (idx + 1) & cap_mask;
        }
    }

    fn into_sorted(self) -> (Vec<u128>, Vec<Slot>) {
        let mut order: Vec<u32> = (0..self.masks.len() as u32).collect();
        order.sort_unstable_by_key(|&g| self.masks[g as usize]);
        let mut masks = Vec::with_capacity(self.masks.len());
        let mut slots = Vec::with_capacity(self.slots.len());
        for &g in &order {
            let g = g as usize;
            masks.push(self.masks[g]);
            slots.extend_from_slice(&self.slots[g * self.size..(g + 1) * self.size]);
        }
        (masks, slots)
    }
}

// ---------------------------------------------------------------------
// Calibration model (DESIGN.md §12). Synthetic density: 8 bits per
// 128-bit mask, so a space of L slots has L/16 slots per DP bit on
// average, and one accepted switch touches 2 masks × 8 bits = 16
// posting lists. The index pays when its probe cost plus amortized
// maintenance undercuts the mask scan over the probes one switch earns.
// ---------------------------------------------------------------------

const PROBES_PER_SWITCH: f64 = 64.0;
const BITS_PER_SWITCH: f64 = 16.0;

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".to_owned());
    let quick = gates::quick_mode();
    let reps = if quick { 20 } else { 200 };

    // ------------------------------------------------------------------
    // Scan microkernel: deep first-open under contention.
    // ------------------------------------------------------------------
    // 1024 masks × 16 B = 16 KiB: L1-resident, so the A/B measures the
    // kernels' compute shape rather than L2 bandwidth (a strategy space
    // revisits the same hot prefix every best-response turn).
    let scan_len = 1024usize;
    let mut next = stream(17);
    let masks: Vec<u128> = (0..scan_len).map(|_| sparse_mask(&mut next, 8)).collect();
    // Heavy contention: ~110 of 128 DP bits taken, so nearly every
    // candidate conflicts and the scan runs deep — the shape the chunked
    // kernel exists for (late-round best-response under a full map).
    let takens: Vec<u128> = (0..64).map(|_| sparse_mask(&mut next, 256)).collect();
    let first_scalar_s = best_secs(reps, || {
        let mut acc = 0usize;
        for &t in &takens {
            acc += kernel::first_open_scalar(&masks, t).unwrap_or(scan_len);
        }
        acc
    });
    let first_chunked_s = best_secs(reps, || {
        let mut acc = 0usize;
        for &t in &takens {
            acc += kernel::first_open_chunked(&masks, t).unwrap_or(scan_len);
        }
        acc
    });
    let mean_depth: f64 = takens
        .iter()
        .map(|&t| kernel::first_open_scalar(&masks, t).unwrap_or(scan_len) as f64)
        .sum::<f64>()
        / takens.len() as f64;
    let first_speedup = first_scalar_s / first_chunked_s;
    fta_obs::info!(
        "scan/first_open: scalar {:.1} us, chunked {:.1} us ({first_speedup:.2}x), \
         mean hit depth {mean_depth:.0}",
        first_scalar_s * 1e6,
        first_chunked_s * 1e6,
    );

    // The second scan metric: the full `for_each_open` sweep behind
    // `better_available`, at a ~20% open rate with the production
    // callback shape — gather `(pool_idx, payoff)` and push into a
    // reused candidate buffer. At this density the scalar loop's
    // per-candidate branch is data-dependent; the chunked reduction
    // trades it for one branch per 8 lanes plus a popcount walk of the
    // open bitmap.
    let sweep_takens: Vec<u128> = (0..64).map(|_| sparse_mask(&mut next, 24)).collect();
    let open_rate: f64 = sweep_takens
        .iter()
        .map(|&t| masks.iter().filter(|&&m| m & t == 0).count() as f64 / scan_len as f64)
        .sum::<f64>()
        / sweep_takens.len() as f64;
    let pool_idx: Vec<u32> = (0..scan_len as u32).rev().collect();
    let payoffs: Vec<f64> = (0..scan_len).map(|p| 1.0 / (p + 1) as f64).collect();
    let mut cands: Vec<(u32, f64)> = Vec::with_capacity(scan_len);
    let sweep_scalar_s = best_secs(reps, || {
        let mut n = 0usize;
        for &t in &sweep_takens {
            cands.clear();
            kernel::for_each_open_scalar(&masks, scan_len, t, |p| {
                cands.push((pool_idx[p], payoffs[p]));
            });
            n += black_box(&cands).len();
        }
        n
    });
    let sweep_chunked_s = best_secs(reps, || {
        let mut n = 0usize;
        for &t in &sweep_takens {
            cands.clear();
            kernel::for_each_open_chunked(&masks, scan_len, t, |p| {
                cands.push((pool_idx[p], payoffs[p]));
            });
            n += black_box(&cands).len();
        }
        n
    });
    let sweep_speedup = sweep_scalar_s / sweep_chunked_s;
    fta_obs::info!(
        "scan/sweep: scalar {:.1} us, chunked {:.1} us ({sweep_speedup:.2}x), \
         open rate {:.0}%",
        sweep_scalar_s * 1e6,
        sweep_chunked_s * 1e6,
        open_rate * 100.0,
    );
    let scan_speedup = first_speedup.max(sweep_speedup);
    assert!(
        scan_speedup >= gates::hotpath_scan_floor(quick),
        "scan kernel speedup {scan_speedup:.2}x (best of first_open/sweep) below \
         the {:.2}x floor",
        gates::hotpath_scan_floor(quick)
    );

    // ------------------------------------------------------------------
    // Gather microkernel: conflict-counter probe.
    // ------------------------------------------------------------------
    let conflicts: Vec<u32> = (0..scan_len)
        .map(|_| u32::from(next() % 256 != 0) * 2)
        .collect();
    let slot_lists: Vec<Vec<u32>> = (0..32)
        .map(|_| {
            (0..scan_len)
                .map(|_| (next() % scan_len as u64) as u32)
                .collect()
        })
        .collect();
    let gather_scalar_s = best_secs(reps, || {
        let mut acc = 0usize;
        for slots in &slot_lists {
            acc += kernel::first_zero_scalar(slots, &conflicts).unwrap_or(scan_len);
        }
        acc
    });
    let gather_chunked_s = best_secs(reps, || {
        let mut acc = 0usize;
        for slots in &slot_lists {
            acc += kernel::first_zero_chunked(slots, &conflicts).unwrap_or(scan_len);
        }
        acc
    });
    let gather_speedup = gather_scalar_s / gather_chunked_s;
    fta_obs::info!(
        "gather: scalar {:.1} us, chunked {:.1} us ({gather_speedup:.2}x)",
        gather_scalar_s * 1e6,
        gather_chunked_s * 1e6,
    );

    // ------------------------------------------------------------------
    // Dedup table: expansion-shaped relax stream, forced rehashes.
    // ------------------------------------------------------------------
    let dedup_reps = if quick { 3 } else { 10 };
    let n_groups = if quick { 4_000 } else { 20_000 };
    let size = 8usize;
    let mut next = stream(23);
    let mut events: Vec<(u128, usize, Slot)> = Vec::with_capacity(n_groups * 4);
    for g in 0..n_groups {
        let mask = sparse_mask(&mut next, 8);
        for v in 0..4u64 {
            let j = {
                // A random *set* bit of the mask (the DP member ending
                // the route).
                let set: Vec<u32> = (0..128).filter(|&b| mask & (1u128 << b) != 0).collect();
                set[(next() % set.len() as u64) as usize] as usize
            };
            events.push((
                mask,
                rank(mask, j),
                Slot {
                    arrival: ((g as u64 * 7 + v * 13) % 1000) as f64,
                    parent: (v % 4) as u8,
                },
            ));
        }
    }
    let legacy_s = best_secs(dedup_reps, || {
        let mut t = LegacyTable::with_expected(64, size);
        for &(mask, r, cand) in &events {
            t.relax(mask, r, cand);
        }
        let (masks, slots) = t.into_sorted();
        black_box((masks.len(), slots.len()))
    });
    let table_s = best_secs(dedup_reps, || {
        let mut t = DedupTable::with_expected(64, size);
        for &(mask, r, cand) in &events {
            t.relax(mask, r, cand);
        }
        let (masks, slots) = t.into_sorted();
        black_box((masks.len(), slots.len()))
    });
    // Equivalence spot check: both layouts drain to the same pool.
    {
        let mut a = LegacyTable::with_expected(64, size);
        let mut b = DedupTable::with_expected(64, size);
        for &(mask, r, cand) in &events {
            a.relax(mask, r, cand);
            b.relax(mask, r, cand);
        }
        assert_eq!(a.into_sorted(), b.into_sorted(), "dedup layouts diverged");
    }
    fta_vdps::arena::clear();
    let dedup_speedup = legacy_s / table_s;
    fta_obs::info!(
        "dedup: legacy {:.2} ms, table {:.2} ms ({dedup_speedup:.2}x)",
        legacy_s * 1e3,
        table_s * 1e3,
    );
    assert!(
        dedup_speedup >= gates::hotpath_dedup_floor(quick),
        "dedup speedup {dedup_speedup:.2}x below the {:.2}x floor",
        gates::hotpath_dedup_floor(quick)
    );

    // ------------------------------------------------------------------
    // Crossover calibration.
    // ------------------------------------------------------------------
    let cal_reps = if quick { 10 } else { 50 };
    // Per-posting-entry maintenance cost: counter bump through an
    // inverted list, the unit the conflict index pays per touched bit.
    let m_e = {
        let mut counters = vec![0u32; 1 << 16];
        let mut next = stream(31);
        let posting: Vec<u32> = (0..4096).map(|_| (next() % (1 << 16)) as u32).collect();
        let walk_s = best_secs(cal_reps, || {
            for &s in &posting {
                counters[s as usize] = counters[s as usize].wrapping_add(1);
            }
            for &s in &posting {
                counters[s as usize] = counters[s as usize].wrapping_sub(1);
            }
            black_box(counters[0])
        });
        walk_s / (2.0 * posting.len() as f64)
    };
    let mut sweep = Vec::new();
    let mut min_slots_found: Option<usize> = None;
    let mut crossover_savings = 0.0f64;
    for shift in 10..=16u32 {
        let l = 1usize << shift;
        // Full-miss fixtures: every candidate conflicts / every counter
        // is non-zero, so both sides walk all L slots.
        let mut next = stream(u64::from(shift) * 97 + 5);
        let miss_masks: Vec<u128> = (0..l).map(|_| sparse_mask(&mut next, 8) | 1).collect();
        let taken = u128::MAX;
        let t_scan = best_secs(cal_reps, || {
            black_box(kernel::first_open_chunked(&miss_masks, taken))
        });
        let slots: Vec<u32> = (0..l as u32).collect();
        let busy = vec![1u32; l];
        let t_zero = best_secs(cal_reps, || {
            black_box(kernel::first_zero_chunked(&slots, &busy))
        });
        // Modeled per-probe index cost: probe + amortized maintenance of
        // one switch (16 posting lists of L/16 entries) over the probes
        // that switch earns.
        let maint = BITS_PER_SWITCH * (l as f64 / 16.0) * m_e;
        let t_index = t_zero + maint / PROBES_PER_SWITCH;
        if min_slots_found.is_none() && t_index < t_scan {
            min_slots_found = Some(l);
            crossover_savings = t_scan - t_zero;
        }
        sweep.push(obj(vec![
            ("slots", Value::UInt(l as u64)),
            ("scan_us", Value::Float(t_scan * 1e6)),
            ("index_probe_us", Value::Float(t_zero * 1e6)),
            ("index_total_us", Value::Float(t_index * 1e6)),
        ]));
    }
    let default_profile = HotpathProfile::default();
    let conflict_index_min_slots =
        min_slots_found.unwrap_or(default_profile.conflict_index_min_slots);
    let conflict_index_max_slots_per_bit = if min_slots_found.is_some() && m_e > 0.0 {
        let k_max = PROBES_PER_SWITCH * crossover_savings / (BITS_PER_SWITCH * m_e);
        (k_max as usize).clamp(16, 256)
    } else {
        default_profile.conflict_index_max_slots_per_bit
    };

    // ------------------------------------------------------------------
    // Emission kernel A/B on a synthetic single-center generation.
    // ------------------------------------------------------------------
    let emit_inst = fta_bench::syn_single_center(8, 20, 9);
    let emit_aggs = emit_inst.dp_aggregates();
    let emit_view = emit_inst.center_views().remove(0);
    let emit_cfg = VdpsConfig::unpruned(6);
    let time_emission = |kernel: EmissionKernel| {
        let profile = HotpathProfile {
            emission_kernel: kernel,
            ..HotpathProfile::default()
        };
        best_secs(if quick { 3 } else { 10 }, || {
            black_box(fta_vdps::flat::generate_c_vdps_flat_with_profile(
                &emit_inst,
                &emit_aggs,
                &emit_view,
                &emit_cfg,
                None,
                GenControl::NONE,
                &profile,
            ))
        })
    };
    let offsets_s = time_emission(EmissionKernel::Offsets);
    let rebuild_s = time_emission(EmissionKernel::Rebuild);
    fta_vdps::arena::clear();
    let emission_speedup = rebuild_s / offsets_s;
    fta_obs::info!(
        "emission: offsets {:.2} ms, rebuild {:.2} ms ({emission_speedup:.2}x)",
        offsets_s * 1e3,
        rebuild_s * 1e3,
    );

    let calibrated = HotpathProfile {
        scan_kernel: if scan_speedup >= 1.0 {
            ScanKernel::Chunked
        } else {
            ScanKernel::Scalar
        },
        emission_kernel: if offsets_s <= rebuild_s {
            EmissionKernel::Offsets
        } else {
            EmissionKernel::Rebuild
        },
        conflict_index_min_slots,
        conflict_index_max_slots_per_bit,
        ..default_profile
    };
    fta_obs::info!(
        "calibrated profile: min_slots {} (default {}), max_slots_per_bit {} (default {})",
        calibrated.conflict_index_min_slots,
        default_profile.conflict_index_min_slots,
        calibrated.conflict_index_max_slots_per_bit,
        default_profile.conflict_index_max_slots_per_bit,
    );

    // ------------------------------------------------------------------
    // End-to-end: paper-scale FGT solve, calibrated vs legacy profile.
    // ------------------------------------------------------------------
    let e2e_reps = if quick { 2 } else { 4 };
    let inst = fta_data::generate_syn(
        &SynConfig {
            n_centers: 100,
            n_workers: 1000,
            n_tasks: 6000 * 20,
            n_delivery_points: 6000,
            extent: 4.0,
            ..SynConfig::bench_scale()
        },
        3,
    );
    let config = SolveConfig {
        vdps: VdpsConfig::pruned(2.0, 3),
        algorithm: Algorithm::Fgt(FgtConfig::default()),
        ..SolveConfig::new(Algorithm::Gta)
    };
    let legacy_profile = HotpathProfile {
        scan_kernel: ScanKernel::Scalar,
        emission_kernel: EmissionKernel::Rebuild,
        ..HotpathProfile::default()
    };
    // The whole-solve A/B runs minutes; clock-speed drift over that span
    // dwarfs per-rep noise, so sequential best-of-N per profile is
    // useless (whichever profile measures first "wins"). Interleave
    // instead: one solve per profile per round, best-of per profile, so
    // drift hits every profile the same amount.
    let axes = [
        ("legacy", legacy_profile),
        (
            "scan_chunked",
            HotpathProfile {
                scan_kernel: ScanKernel::Chunked,
                ..legacy_profile
            },
        ),
        (
            "emission_offsets",
            HotpathProfile {
                emission_kernel: EmissionKernel::Offsets,
                ..legacy_profile
            },
        ),
        (
            "crossovers_calibrated",
            HotpathProfile {
                conflict_index_min_slots,
                conflict_index_max_slots_per_bit,
                ..legacy_profile
            },
        ),
        ("calibrated", calibrated),
    ];
    let mut best = [f64::INFINITY; 5];
    for _ in 0..e2e_reps {
        for (i, (_, profile)) in axes.iter().enumerate() {
            hotpath::install(profile);
            best[i] = best[i].min(best_secs(1, || black_box(solve(&inst, &config))));
        }
    }
    let legacy_solve_s = best[0];
    let calibrated_solve_s = best[4];
    let mut axis_ms = Vec::new();
    for (i, (label, _)) in axes.iter().enumerate().take(4).skip(1) {
        fta_obs::info!(
            "end-to-end axis {label}: {:.1} ms ({:.2}x vs legacy)",
            best[i] * 1e3,
            legacy_solve_s / best[i],
        );
        axis_ms.push(obj(vec![
            ("axis", Value::String((*label).to_owned())),
            ("solve_ms", Value::Float(best[i] * 1e3)),
            ("speedup_vs_legacy", Value::Float(legacy_solve_s / best[i])),
        ]));
    }
    hotpath::install(&legacy_profile);
    let legacy_outcome = solve(&inst, &config);
    hotpath::install(&calibrated);
    let calibrated_outcome = solve(&inst, &config);
    hotpath::reset();
    fta_vdps::arena::clear();
    // The profile only changes speed, never results.
    assert_eq!(
        legacy_outcome.assignment, calibrated_outcome.assignment,
        "profiles must be bit-identical in outcome"
    );
    let e2e_speedup = legacy_solve_s / calibrated_solve_s;
    fta_obs::info!(
        "end-to-end n=1000: legacy {:.1} ms, calibrated {:.1} ms ({e2e_speedup:.2}x)",
        legacy_solve_s * 1e3,
        calibrated_solve_s * 1e3,
    );
    assert!(
        e2e_speedup >= gates::hotpath_e2e_floor(quick),
        "end-to-end speedup {e2e_speedup:.2}x below the {:.2}x floor",
        gates::hotpath_e2e_floor(quick)
    );

    // ------------------------------------------------------------------
    // Snapshot.
    // ------------------------------------------------------------------
    let snapshot = obj(vec![
        (
            "description",
            Value::String(
                "Chunked-limb hot-path kernels vs scalar references \
                 (availability scan, conflict gather, dedup table), the \
                 conflict-index crossover calibration of DESIGN.md §12, \
                 and a paper-scale end-to-end FGT solve under the \
                 calibrated vs legacy profile, best-of-N"
                    .to_owned(),
            ),
        ),
        ("reps", Value::UInt(reps as u64)),
        (
            "microkernels",
            obj(vec![
                (
                    "scan",
                    obj(vec![
                        ("len", Value::UInt(scan_len as u64)),
                        (
                            "first_open",
                            obj(vec![
                                ("mean_hit_depth", Value::Float(mean_depth)),
                                ("scalar_us", Value::Float(first_scalar_s * 1e6)),
                                ("chunked_us", Value::Float(first_chunked_s * 1e6)),
                                ("speedup", Value::Float(first_speedup)),
                            ]),
                        ),
                        (
                            "sweep",
                            obj(vec![
                                ("open_rate", Value::Float(open_rate)),
                                ("scalar_us", Value::Float(sweep_scalar_s * 1e6)),
                                ("chunked_us", Value::Float(sweep_chunked_s * 1e6)),
                                ("speedup", Value::Float(scan_speedup)),
                            ]),
                        ),
                    ]),
                ),
                (
                    "gather",
                    obj(vec![
                        ("len", Value::UInt(scan_len as u64)),
                        ("scalar_us", Value::Float(gather_scalar_s * 1e6)),
                        ("chunked_us", Value::Float(gather_chunked_s * 1e6)),
                        ("speedup", Value::Float(gather_speedup)),
                    ]),
                ),
                (
                    "dedup",
                    obj(vec![
                        ("groups", Value::UInt(n_groups as u64)),
                        ("relaxations", Value::UInt(events.len() as u64)),
                        ("legacy_ms", Value::Float(legacy_s * 1e3)),
                        ("table_ms", Value::Float(table_s * 1e3)),
                        ("speedup", Value::Float(dedup_speedup)),
                    ]),
                ),
                (
                    "emission",
                    obj(vec![
                        ("offsets_ms", Value::Float(offsets_s * 1e3)),
                        ("rebuild_ms", Value::Float(rebuild_s * 1e3)),
                        ("speedup", Value::Float(emission_speedup)),
                    ]),
                ),
            ]),
        ),
        (
            "calibration",
            obj(vec![
                ("probes_per_switch", Value::Float(PROBES_PER_SWITCH)),
                ("bits_per_switch", Value::Float(BITS_PER_SWITCH)),
                ("maintenance_ns_per_entry", Value::Float(m_e * 1e9)),
                ("crossover_found", Value::Bool(min_slots_found.is_some())),
                ("sweep", Value::Array(sweep)),
            ]),
        ),
        (
            "end_to_end",
            obj(vec![
                ("n_centers", Value::UInt(100)),
                ("n_workers", Value::UInt(1000)),
                ("n_dps", Value::UInt(6000)),
                ("algorithm", Value::String("fgt".to_owned())),
                ("legacy_ms", Value::Float(legacy_solve_s * 1e3)),
                ("calibrated_ms", Value::Float(calibrated_solve_s * 1e3)),
                ("speedup", Value::Float(e2e_speedup)),
                ("axes", Value::Array(axis_ms)),
            ]),
        ),
        ("profile", hotpath::to_json(&calibrated)),
    ]);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&out, json + "\n")?;
    fta_obs::info!("wrote {out}");
    Ok(())
}
