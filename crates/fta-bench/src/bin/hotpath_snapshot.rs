//! Writes `BENCH_hotpath.json`: microkernel A/Bs of the hot-path kernels
//! against the plain loops and table layout they replaced.
//!
//! Sections:
//!
//! * **scan** — the chunked-limb availability kernels of
//!   [`fta_vdps::kernel`] against bench-local scalar loops (one branch per
//!   candidate), kept here purely as the measurable "before" side:
//!   `best_open`, the monotone best response's argmax over a worker's
//!   valid rows with payoffs computed on demand (the scalar loop divides
//!   every open row), and `sweep`, the `for_each_open` pass behind IEGT's
//!   strictly-better candidate set.
//! * **dedup** — the rewritten [`fta_vdps::dedup::DedupTable`]
//!   (limb-split keys, batched probes, folds stored across rehash) vs a
//!   local reimplementation of the PR-2 `ShardTable` layout (whole-`u128`
//!   keys, one branch per bucket, `fold_mask` recomputed for every
//!   re-insert of every rehash) on an expansion-shaped relax stream.
//!
//! Usage: `cargo run -p fta-bench --release --bin hotpath_snapshot --
//! [OUT]` (default OUT: `BENCH_hotpath.json`). `FTA_BENCH_QUICK=1`
//! shrinks repetition counts and widens the noise-sensitive gates (CI
//! smoke mode). The binary asserts the `fta_bench::gates` floors before
//! writing, and `tests/bench_snapshots.rs` re-asserts them against the
//! committed file.

use fta_bench::{best_secs, gates, hw_threads, obj};
use fta_vdps::dedup::{fold_mask, rank, DedupTable, Slot, EMPTY};
use fta_vdps::{kernel, WorkerRows};
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
// Scalar scan references: the one-branch-per-candidate loops the chunked
// kernels replaced, kept here (not in the library) as the "before" side.
// ---------------------------------------------------------------------

/// Highest payoff among the rows disjoint from `taken`, ties to the
/// lowest pool index, dividing every open row.
fn best_open_scalar(rows: &WorkerRows<'_>, taken: u128) -> Option<(usize, f64)> {
    let mut best = None;
    let mut best_p = f64::NEG_INFINITY;
    let mut best_idx = 0;
    for pos in rows.ranges().flatten() {
        if rows.masks[pos] & taken == 0 {
            let (p, idx) = (rows.payoff(pos), rows.pool_idx[pos]);
            if p > best_p || (p == best_p && idx < best_idx) {
                best = Some((pos, p));
                (best_p, best_idx) = (p, idx);
            }
        }
    }
    best
}

/// Calls `f(pos)` for every mask in `masks[..limit]` disjoint from `taken`.
fn for_each_open_scalar(masks: &[u128], limit: usize, taken: u128, mut f: impl FnMut(usize)) {
    for (pos, &m) in masks[..limit].iter().enumerate() {
        if m & taken == 0 {
            f(pos);
        }
    }
}

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".to_owned());
    let quick = gates::quick_mode();
    let reps = if quick { 20 } else { 200 };

    // ------------------------------------------------------------------
    // Scan microkernels.
    // ------------------------------------------------------------------
    // 1024 masks × 16 B = 16 KiB: L1-resident, so the A/B measures the
    // kernels' compute shape rather than L2 bandwidth (a strategy space
    // revisits the same hot prefix every best-response turn).
    let scan_len = 1024usize;
    let mut next = stream(17);
    let masks: Vec<u128> = (0..scan_len).map(|_| sparse_mask(&mut next, 8)).collect();
    let pool_idx: Vec<u32> = (0..scan_len as u32).rev().collect();
    let payoffs: Vec<f64> = (0..scan_len).map(|p| 1.0 / (p + 1) as f64).collect();
    // The same rows as a worker's valid set: rewards and travel times of
    // a few km, payoffs computed on demand.
    let unit = |next: &mut dyn FnMut() -> u64| (next() >> 11) as f64 / (1u64 << 53) as f64;
    let rewards: Vec<f64> = (0..scan_len).map(|_| 1.0 + 9.0 * unit(&mut next)).collect();
    let travels: Vec<f64> = (0..scan_len).map(|_| 0.5 + 2.5 * unit(&mut next)).collect();
    let rows = WorkerRows {
        pool_idx: &pool_idx,
        masks: &masks,
        rewards: &rewards,
        travels: &travels,
        starts: &[0],
        ends: &[scan_len as u32],
        to_dc: 0.7,
    };
    // ~24 of 128 DP bits taken: about a fifth of the slots stay open, so
    // the scalar loops' per-candidate branch is data-dependent.
    let takens: Vec<u128> = (0..64).map(|_| sparse_mask(&mut next, 24)).collect();
    let open_rate: f64 = takens
        .iter()
        .map(|&t| masks.iter().filter(|&&m| m & t == 0).count() as f64 / scan_len as f64)
        .sum::<f64>()
        / takens.len() as f64;

    // The monotone best response: argmax of payoff over the open rows.
    // Once a good open row is found, most later lanes are certainly
    // out-paid — the case where the chunked kernel drops a chunk with
    // one multiply per lane, before the availability test and without
    // dividing.
    for &t in &takens {
        assert_eq!(
            best_open_scalar(&rows, t).map(|(pos, p)| (pos, p.to_bits())),
            kernel::best_open(&rows, t).map(|(pos, p)| (pos, p.to_bits())),
            "best_open kernels diverged"
        );
    }
    let best_scalar_s = best_secs(reps, || {
        let mut acc = 0usize;
        for &t in &takens {
            acc += best_open_scalar(&rows, t).map_or(scan_len, |(pos, _)| pos);
        }
        acc
    });
    let best_chunked_s = best_secs(reps, || {
        let mut acc = 0usize;
        for &t in &takens {
            acc += kernel::best_open(&rows, t).map_or(scan_len, |(pos, _)| pos);
        }
        acc
    });
    let best_speedup = best_scalar_s / best_chunked_s;
    fta_obs::info!(
        "scan/best_open: scalar {:.1} us, chunked {:.1} us ({best_speedup:.2}x)",
        best_scalar_s * 1e6,
        best_chunked_s * 1e6,
    );

    // The full `for_each_open` sweep behind `better_available`, with the
    // production callback shape: gather `(pool_idx, payoff)` and push into
    // a reused candidate buffer. The chunked reduction trades the
    // per-candidate branch for one branch per 8 lanes plus a walk of the
    // open bitmap.
    let mut cands: Vec<(u32, f64)> = Vec::with_capacity(scan_len);
    let sweep_scalar_s = best_secs(reps, || {
        let mut n = 0usize;
        for &t in &takens {
            cands.clear();
            for_each_open_scalar(&masks, scan_len, t, |p| {
                cands.push((pool_idx[p], payoffs[p]));
            });
            n += black_box(&cands).len();
        }
        n
    });
    let sweep_chunked_s = best_secs(reps, || {
        let mut n = 0usize;
        for &t in &takens {
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
    let scan_speedup = best_speedup.max(sweep_speedup);
    assert!(
        scan_speedup >= gates::hotpath_scan_floor(quick),
        "scan kernel speedup {scan_speedup:.2}x (best of best_open/sweep) below \
         the {:.2}x floor",
        gates::hotpath_scan_floor(quick)
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
                    group: g as u32,
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
    // Snapshot.
    // ------------------------------------------------------------------
    let snapshot = obj(vec![
        (
            "description",
            Value::String(
                "Scan kernels (best-response argmax over on-demand payoffs, \
                 chunked-limb availability sweep) and the dedup table vs \
                 the scalar loops and table layout they replaced, best-of-N"
                    .to_owned(),
            ),
        ),
        ("reps", Value::UInt(reps as u64)),
        ("hw_threads", Value::UInt(hw_threads())),
        (
            "microkernels",
            obj(vec![
                (
                    "scan",
                    obj(vec![
                        ("len", Value::UInt(scan_len as u64)),
                        ("open_rate", Value::Float(open_rate)),
                        (
                            "best_open",
                            obj(vec![
                                ("scalar_us", Value::Float(best_scalar_s * 1e6)),
                                ("chunked_us", Value::Float(best_chunked_s * 1e6)),
                                ("speedup", Value::Float(best_speedup)),
                            ]),
                        ),
                        (
                            "sweep",
                            obj(vec![
                                ("scalar_us", Value::Float(sweep_scalar_s * 1e6)),
                                ("chunked_us", Value::Float(sweep_chunked_s * 1e6)),
                                ("speedup", Value::Float(sweep_speedup)),
                            ]),
                        ),
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
            ]),
        ),
    ]);
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&out, json + "\n")?;
    fta_obs::info!("wrote {out}");
    Ok(())
}
