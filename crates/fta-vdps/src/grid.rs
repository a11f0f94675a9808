//! The fused ε-adjacency of a center's delivery points.
//!
//! The dynamic program's inner loop asks, for a delivery point `dp_i`,
//! which other delivery points lie within travel distance ε (the paper's
//! distance-constrained pruning) and how long the hop to each takes.
//! [`Adjacency`] answers both from one CSR layout built in one pass: per
//! point, its neighbour indices ascending, and parallel to them the
//! travel time `d / speed` of each hop. Unpruned (`ε = None`) it is the
//! complete graph.
//!
//! Under pruning a uniform grid with cell side ε finds the candidate
//! pairs: a point's cell is `(floor(x/ε), floor(y/ε))` and its candidates
//! live in the 3×3 cell neighbourhood, so only the ε-neighbourhood's
//! distances are ever computed. The cells are a sorted key array searched
//! by binary search — no hash map and no per-point `Vec`. Rows are built
//! in point order, so each unordered pair's distance is computed once, by
//! its lower endpoint; the higher one copies the hop from the finished
//! row (`hypot` is symmetric bit for bit).
//!
//! Floating point can put two points at distance exactly ε two cells
//! apart: `floor` of a rounded quotient whose true value sits within a few
//! ulps of a cell border (e.g. a coordinate of `-5e-324` next to one at
//! `ε`). A point whose quotient lies that close to a border therefore also
//! scans the next cell beyond it, so no pair within ε is ever missed; the
//! exact `distance ≤ ε` test still decides every candidate.

use crate::arena;
use fta_core::geometry::Point;

/// How close (relative to the quotient's magnitude) a cell coordinate
/// must be to its cell border before the scan widens past the 3×3
/// neighbourhood. Two divisions and one subtraction each err by at most
/// half an ulp, about `(|q| + 3) · 2^-52` in quotient units; this is four
/// times that.
const BORDER_ULPS: f64 = 1.0 / (1u64 << 50) as f64;

/// Per-point neighbour lists with hop travel times, in CSR layout.
#[derive(Debug, Clone)]
pub struct Adjacency {
    /// Point `i`'s entries are `starts[i] as usize..starts[i + 1] as usize`.
    starts: Vec<u32>,
    /// Neighbour indices, ascending within each row.
    nbrs: Vec<u32>,
    /// Travel time `d(i, j) / speed`, parallel to `nbrs`.
    tt: Vec<f64>,
}

impl Adjacency {
    /// Builds the adjacency of `points` under radius `epsilon` (`None` =
    /// the complete graph) with hop travel times at `speed`. Every buffer
    /// comes from the calling thread's generation arena; hand them back
    /// with `Adjacency::recycle` (dropping them instead is harmless).
    ///
    /// # Panics
    ///
    /// Panics if there are more than 256 points (delivery-point indices
    /// are `u8`-sized in the DP) or `epsilon` is not positive and finite.
    #[must_use]
    pub fn build(points: &[Point], epsilon: Option<f64>, speed: f64) -> Self {
        let n = points.len();
        assert!(n <= 256, "Adjacency supports at most 256 points");
        if let Some(eps) = epsilon {
            assert!(
                eps.is_finite() && eps > 0.0,
                "epsilon must be positive and finite, got {eps}"
            );
        }
        let mut adj = arena::with(|a| Self {
            starts: a.indices.take(n + 1),
            nbrs: a.indices.take(n),
            tt: a.floats.take(n),
        });
        adj.starts.push(0);
        let grid = epsilon.map(|eps| Grid::new(points, eps));
        let mut candidates: Vec<u32> = arena::with(|a| a.indices.take(n));
        for (i, &p) in points.iter().enumerate() {
            candidates.clear();
            match &grid {
                Some(grid) => {
                    grid.candidates(p, &mut candidates);
                    candidates.sort_unstable();
                }
                None => candidates.extend(0..n as u32),
            }
            for &j in &candidates {
                let j = j as usize;
                if j < i {
                    // Row `j` is finished and holds the hop iff the pair
                    // is within ε: reuse its travel time.
                    if let Ok(at) = adj.neighbors(j).binary_search(&(i as u32)) {
                        let t = adj.travel_times(j)[at];
                        adj.nbrs.push(j as u32);
                        adj.tt.push(t);
                    }
                } else if j > i {
                    let d = p.distance(points[j]);
                    if epsilon.is_none_or(|eps| d <= eps) {
                        adj.nbrs.push(j as u32);
                        adj.tt.push(d / speed);
                    }
                }
            }
            adj.starts.push(adj.nbrs.len() as u32);
        }
        arena::with(|a| a.indices.put(candidates));
        if let Some(grid) = grid {
            grid.recycle();
        }
        adj
    }

    /// Returns every buffer to the calling thread's arena.
    pub(crate) fn recycle(self) {
        arena::with(|a| {
            a.indices.put(self.starts);
            a.indices.put(self.nbrs);
            a.floats.put(self.tt);
        });
    }

    /// The neighbours of point `i`, ascending.
    #[must_use]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.nbrs[self.range(i)]
    }

    /// Travel times to [`Adjacency::neighbors`]`(i)`, parallel to it.
    #[must_use]
    pub fn travel_times(&self, i: usize) -> &[f64] {
        &self.tt[self.range(i)]
    }

    /// Total number of directed neighbour pairs.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.nbrs.len()
    }

    fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i] as usize..self.starts[i + 1] as usize
    }
}

/// Points bucketed by `(floor(x/ε), floor(y/ε))` cell: `keys` sorted
/// ascending with the point indices in `order` parallel to it.
struct Grid {
    eps: f64,
    keys: Vec<u128>,
    order: Vec<u32>,
}

/// One cell coordinate plus the cells the scan covers around it.
fn cell_span(coord: f64, eps: f64) -> (i64, std::ops::RangeInclusive<i64>) {
    let q = coord / eps;
    let floor = q.floor();
    let cell = floor as i64;
    let frac = q - floor;
    let tol = (q.abs() + 4.0) * BORDER_ULPS;
    let lo = cell.saturating_sub(1 + i64::from(frac < tol));
    let hi = cell.saturating_add(1 + i64::from(frac > 1.0 - tol));
    (cell, lo..=hi)
}

fn cell_key(cx: i64, cy: i64) -> u128 {
    (u128::from(cx as u64) << 64) | u128::from(cy as u64)
}

impl Grid {
    fn new(points: &[Point], eps: f64) -> Self {
        let n = points.len();
        let (mut by_point, mut keys, mut order) =
            arena::with(|a| (a.masks.take(n), a.masks.take(n), a.indices.take(n)));
        by_point.extend(
            points
                .iter()
                .map(|p| cell_key(cell_span(p.x, eps).0, cell_span(p.y, eps).0)),
        );
        order.extend(0..n as u32);
        order.sort_unstable_by_key(|&i| (by_point[i as usize], i));
        keys.extend(order.iter().map(|&i| by_point[i as usize]));
        arena::with(|a| a.masks.put(by_point));
        Self { eps, keys, order }
    }

    /// Appends every point index bucketed in the cells around `p`
    /// (unsorted across cells).
    fn candidates(&self, p: Point, out: &mut Vec<u32>) {
        let (_, xs) = cell_span(p.x, self.eps);
        let (_, ys) = cell_span(p.y, self.eps);
        for cx in xs {
            for cy in ys.clone() {
                let key = cell_key(cx, cy);
                let at = self.keys.partition_point(|&k| k < key);
                let len = self.keys[at..].partition_point(|&k| k == key);
                out.extend_from_slice(&self.order[at..at + len]);
            }
        }
    }

    fn recycle(self) {
        arena::with(|a| {
            a.masks.put(self.keys);
            a.indices.put(self.order);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_neighbors(points: &[Point], epsilon: f64) -> Vec<Vec<u32>> {
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                points
                    .iter()
                    .enumerate()
                    .filter(|&(j, &q)| j != i && p.distance(q) <= epsilon)
                    .map(|(j, _)| j as u32)
                    .collect()
            })
            .collect()
    }

    fn scatter(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 0.61803;
                Point::new((a * 7.3) % 10.0, (a * 3.1) % 10.0)
            })
            .collect()
    }

    #[test]
    fn grid_matches_naive_pairwise_scan() {
        let points = scatter(60);
        for eps in [0.5, 1.0, 2.5, 9.0] {
            let adj = Adjacency::build(&points, Some(eps), 2.0);
            let naive = naive_neighbors(&points, eps);
            for (i, expected) in naive.iter().enumerate() {
                assert_eq!(
                    adj.neighbors(i),
                    expected.as_slice(),
                    "eps {eps}, point {i}"
                );
                for (&j, &t) in adj.neighbors(i).iter().zip(adj.travel_times(i)) {
                    let want = points[i].distance(points[j as usize]) / 2.0;
                    assert_eq!(t.to_bits(), want.to_bits(), "eps {eps}, hop {i}→{j}");
                }
            }
        }
    }

    #[test]
    fn unpruned_is_the_complete_graph() {
        let points = scatter(12);
        let adj = Adjacency::build(&points, None, 1.5);
        assert_eq!(adj.edge_count(), 12 * 11);
        for i in 0..points.len() {
            let all: Vec<u32> = (0..12u32).filter(|&j| j as usize != i).collect();
            assert_eq!(adj.neighbors(i), all.as_slice());
            for (&j, &t) in adj.neighbors(i).iter().zip(adj.travel_times(i)) {
                let want = points[i].distance(points[j as usize]) / 1.5;
                assert_eq!(t.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn neighborhood_is_symmetric() {
        let points = scatter(40);
        let adj = Adjacency::build(&points, Some(1.5), 1.0);
        for i in 0..points.len() {
            for &j in adj.neighbors(i) {
                assert!(
                    adj.neighbors(j as usize).contains(&(i as u32)),
                    "{i} sees {j} but not vice versa"
                );
            }
        }
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let points = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let adj = Adjacency::build(&points, Some(1.0), 1.0);
        assert_eq!(adj.neighbors(0), &[1]);
        let adj = Adjacency::build(&points, Some(0.999), 1.0);
        assert!(adj.neighbors(0).is_empty());
    }

    #[test]
    fn sub_ulp_border_pair_two_cells_apart_is_found() {
        // -5e-324 / ε floors to cell -1 and ε / ε to cell 1, yet the
        // rounded distance is exactly ε: a plain 3×3 scan misses it.
        for eps in [0.2, 0.7, 1.7] {
            let points = vec![Point::new(-5e-324, 0.0), Point::new(eps, 0.0)];
            assert!(points[0].distance(points[1]) <= eps);
            let adj = Adjacency::build(&points, Some(eps), 1.0);
            assert_eq!(adj.neighbors(0), &[1], "eps {eps}");
            assert_eq!(adj.neighbors(1), &[0], "eps {eps}");
        }
    }

    #[test]
    fn single_point_has_no_neighbors() {
        let adj = Adjacency::build(&[Point::new(3.0, 3.0)], Some(2.0), 1.0);
        assert!(adj.neighbors(0).is_empty());
        assert_eq!(adj.edge_count(), 0);
    }

    #[test]
    fn edge_count_counts_directed_pairs() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(10.0, 10.0),
        ];
        let adj = Adjacency::build(&points, Some(1.0), 1.0);
        assert_eq!(adj.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nonpositive_epsilon() {
        let _ = Adjacency::build(&[Point::new(0.0, 0.0)], Some(0.0), 1.0);
    }
}
