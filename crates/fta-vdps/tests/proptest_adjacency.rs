//! Oracle test of the fused ε-adjacency: for every point, the neighbour
//! list must equal a brute-force all-pairs `distance ≤ ε` scan (ascending,
//! self excluded) and every hop's travel time must equal
//! `distance / speed` bit for bit. Inputs are random scatters, lattices
//! whose spacing is exactly ε, and points placed on cell borders or a few
//! ulps either side of them — the inputs where a `floor(p/ε)` grid can
//! misplace a pair.

use fta_core::geometry::Point;
use fta_vdps::grid::Adjacency;
use proptest::prelude::*;

fn assert_matches_brute_force(points: &[Point], epsilon: Option<f64>, speed: f64) {
    let adjacency = Adjacency::build(points, epsilon, speed);
    let mut edges = 0usize;
    for (i, &p) in points.iter().enumerate() {
        let (want, want_tt): (Vec<u32>, Vec<u64>) = points
            .iter()
            .enumerate()
            .filter(|&(j, &q)| j != i && epsilon.is_none_or(|eps| p.distance(q) <= eps))
            .map(|(j, &q)| (j as u32, (p.distance(q) / speed).to_bits()))
            .unzip();
        assert_eq!(
            adjacency.neighbors(i),
            want.as_slice(),
            "point {i} of {points:?} under ε {epsilon:?}"
        );
        let got_tt: Vec<u64> = adjacency
            .travel_times(i)
            .iter()
            .map(|t| t.to_bits())
            .collect();
        assert_eq!(got_tt, want_tt, "travel times of point {i}");
        edges += want.len();
    }
    assert_eq!(adjacency.edge_count(), edges);
}

/// The next float above finite `x`.
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// `x` moved by `steps` ulps (negative = towards −∞).
fn nudge(mut x: f64, steps: i32) -> f64 {
    for _ in 0..steps.unsigned_abs() {
        x = if steps > 0 { next_up(x) } else { -next_up(-x) };
    }
    x
}

fn arb_epsilon() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.1),
        Just(0.2),
        Just(0.3),
        Just(0.7),
        Just(1.0),
        Just(1.7),
        Just(2.0),
        Just(1.0 / 3.0),
        0.01f64..6.0,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_scatters_match_brute_force(
        coords in prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 0..90),
        epsilon in prop::option::of(arb_epsilon()),
        speed in 0.25f64..4.0,
    ) {
        let points: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        assert_matches_brute_force(&points, epsilon, speed);
    }

    /// Points on a lattice of spacing exactly ε, around an origin that may
    /// sit on a cell border or a few ulps off it.
    #[test]
    fn epsilon_lattices_match_brute_force(
        epsilon in arb_epsilon(),
        (cols, rows) in (1usize..10, 1usize..10),
        (origin_x, origin_y) in (-4i32..4, -4i32..4),
        ulps in prop::collection::vec(-3i32..=3, 1..8),
        speed in 0.25f64..4.0,
    ) {
        let mut points = Vec::new();
        for c in 0..cols {
            for r in 0..rows {
                let k = points.len();
                let x = (origin_x + c as i32) as f64 * epsilon;
                let y = (origin_y + r as i32) as f64 * epsilon;
                points.push(Point::new(nudge(x, ulps[k % ulps.len()]), y));
            }
        }
        assert_matches_brute_force(&points, Some(epsilon), speed);
    }

    /// Points on or within a few ulps of cell borders, including the
    /// smallest subnormals either side of zero, next to points one ε away.
    #[test]
    fn cell_border_points_match_brute_force(
        epsilon in arb_epsilon(),
        picks in prop::collection::vec((-3i32..=3, -3i32..=3, -4i32..=4, 0usize..4), 1..40),
        speed in 0.25f64..4.0,
    ) {
        let tiny = [5e-324, -5e-324, 1e-300, -1e-300];
        let points: Vec<Point> = picks
            .iter()
            .map(|&(cell, other, ulps, which)| {
                let x = if cell == 0 && ulps == 0 {
                    tiny[which]
                } else {
                    nudge(f64::from(cell) * epsilon, ulps)
                };
                let y = nudge(f64::from(other) * epsilon, ulps.signum());
                Point::new(x, y)
            })
            .collect();
        assert_matches_brute_force(&points, Some(epsilon), speed);
    }
}

/// The pairs that defeat a plain 3×3 scan: `floor` puts them two cells
/// apart although their rounded distance is exactly ε.
#[test]
fn two_cell_gap_pairs_are_neighbours() {
    for epsilon in [0.2, 0.7, 1.1, 1.7] {
        let points = [Point::new(-5e-324, 0.0), Point::new(epsilon, 0.0)];
        assert_eq!((points[0].x / epsilon).floor(), -1.0);
        assert_eq!((points[1].x / epsilon).floor(), 1.0);
        assert_matches_brute_force(&points, Some(epsilon), 1.0);
        assert_eq!(
            Adjacency::build(&points, Some(epsilon), 1.0).edge_count(),
            2
        );
    }
}
