//! The fused ε-adjacency of a center's delivery points.
//!
//! The dynamic program's inner loop asks, for a delivery point `dp_i`,
//! which other delivery points lie within travel distance ε (the paper's
//! distance-constrained pruning) and how long the hop to each takes.
//! [`Adjacency`] answers both from one CSR layout: per point, its
//! neighbour indices ascending, and parallel to them the travel time
//! `d / speed` of each hop. Unpruned (`ε = None`) it is the complete
//! graph.
//!
//! A center holds at most 128 task-bearing points (the DP's mask width),
//! so the build is one pass over the upper triangle of point pairs: at
//! most 8 128 pair tests. A squared-distance cut drops a pair without its
//! `hypot` only when it is certainly farther than ε; the exact
//! `distance ≤ ε` test decides every pair that survives the cut, so the
//! cut never changes the result. Each kept pair's travel time is computed
//! once and written into both endpoints' rows (`hypot` is symmetric bit
//! for bit).

use crate::arena;
use fta_core::geometry::Point;

/// Relative slack of the squared-distance cut. `dx² + dy²` and `ε²` each
/// carry a few ulps of rounding and `hypot` one more; `2^-40` dwarfs all
/// of them, so every pair the cut drops would also fail `distance ≤ ε`.
const CUT_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

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
        let reach_sq = match epsilon {
            Some(eps) => {
                assert!(
                    eps.is_finite() && eps > 0.0,
                    "epsilon must be positive and finite, got {eps}"
                );
                // `MIN_POSITIVE` covers squares that underflow to
                // subnormals, where rounding error is absolute.
                eps * eps * (1.0 + CUT_MARGIN) + f64::MIN_POSITIVE
            }
            None => f64::INFINITY,
        };
        let mut adj = arena::with(|a| Self {
            starts: a.indices.take(n + 1),
            nbrs: a.indices.take(n),
            tt: a.floats.take(n),
        });
        // Stage the kept pairs `(i << 16) | j` (`i < j`, in `(i, j)`
        // order) and their travel times at the front of `nbrs`/`tt`, and
        // count each point's degree into `starts[i + 1]`. Staging in the
        // output buffers keeps the build to three arena buffers, so
        // steady-state generation stays allocation-free.
        adj.starts.resize(n + 1, 0);
        for (i, &p) in points.iter().enumerate() {
            for (j, &q) in points.iter().enumerate().skip(i + 1) {
                if p.distance_sq(q) > reach_sq {
                    continue;
                }
                let d = p.distance(q);
                if epsilon.is_none_or(|eps| d <= eps) {
                    adj.nbrs.push(((i as u32) << 16) | j as u32);
                    adj.tt.push(d / speed);
                    adj.starts[i + 1] += 1;
                    adj.starts[j + 1] += 1;
                }
            }
        }
        for i in 0..n {
            adj.starts[i + 1] += adj.starts[i];
        }
        // Move the staged pairs behind the rows' `2e` slots and scatter
        // each into both endpoints' rows, with `starts[i]` as row `i`'s
        // write cursor. Row `k` receives its lower neighbours (pairs
        // `(i, k)`) before its upper ones (pairs `(k, j)`), each in
        // ascending order, so every row comes out sorted.
        let e = adj.nbrs.len();
        adj.nbrs.resize(3 * e, 0);
        adj.nbrs.copy_within(..e, 2 * e);
        adj.tt.resize(3 * e, 0.0);
        adj.tt.copy_within(..e, 2 * e);
        for k in 2 * e..3 * e {
            let (pair, t) = (adj.nbrs[k], adj.tt[k]);
            let (i, j) = (pair >> 16, pair & 0xffff);
            for (row, nbr) in [(i, j), (j, i)] {
                let at = &mut adj.starts[row as usize];
                adj.nbrs[*at as usize] = nbr;
                adj.tt[*at as usize] = t;
                *at += 1;
            }
        }
        adj.nbrs.truncate(2 * e);
        adj.tt.truncate(2 * e);
        // Each cursor stopped at the start of the next row.
        adj.starts.copy_within(..n, 1);
        adj.starts[0] = 0;
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
    fn matches_naive_pairwise_scan() {
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
        // rounded distance is exactly ε: a `floor(p/ε)` cell grid
        // scanning 3×3 cells misses it.
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
