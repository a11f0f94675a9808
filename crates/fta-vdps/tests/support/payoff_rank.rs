//! The payoff-order rank a first-hit scan over a worker's payoff-sorted
//! list assigns a row: the key the kernel tests use to check that
//! `kernel::best_open` picks the row such a scan would stop at. A plain
//! loop that divides every row, written against the public API.

use fta_vdps::WorkerRows;

/// Zero-based rank of the valid row with pool index `idx`, whose payoff
/// is `p`, in (payoff descending, pool index ascending) order over all of
/// `rows`' valid rows: the rows paying more, plus the equal-paying rows
/// at lower pool indices.
pub fn payoff_rank(rows: &WorkerRows<'_>, idx: u32, p: f64) -> usize {
    rows.ranges()
        .flatten()
        .filter(|&pos| {
            let (q, i) = (rows.payoff(pos), rows.pool_idx[pos]);
            i != idx && (q > p || (q == p && i < idx))
        })
        .count()
}
