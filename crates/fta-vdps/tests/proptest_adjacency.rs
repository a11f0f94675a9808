//! Oracle test of the fused ε-adjacency: for every point, the neighbour
//! list must equal a brute-force all-pairs `distance ≤ ε` scan (ascending,
//! self excluded) and every hop's travel time must equal
//! `distance / speed` bit for bit. Inputs are random scatters, lattices
//! whose spacing is exactly ε, points on or a few ulps off multiples of
//! ε, ε set to a pair's own distance or the float either side of it (far
//! from the origin too, where `dx` itself rounds), duplicate points, and
//! full 128-point centers — the inputs where the squared-distance cut
//! could drop a pair the exact test keeps.

use fta_core::geometry::Point;
use fta_vdps::adjacency::Adjacency;
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
    /// sit on a multiple of ε or a few ulps off it.
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

    /// Points on or within a few ulps of multiples of ε, including the
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ε equal to one pair's computed distance, or the next float either
    /// side of it, with the scatter offset by up to 1e9 so that `dx`
    /// carries rounding of its own.
    #[test]
    fn epsilon_at_a_pair_distance_matches_brute_force(
        coords in prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 2..60),
        (offset_x, offset_y) in (arb_offset(), arb_offset()),
        (a, b) in (0usize..1 << 20, 0usize..1 << 20),
        ulps in -1i32..=1,
        speed in 0.25f64..4.0,
    ) {
        let points: Vec<Point> = coords
            .iter()
            .map(|&(x, y)| Point::new(x + offset_x, y + offset_y))
            .collect();
        let i = a % points.len();
        let j = (i + 1 + b % (points.len() - 1)) % points.len();
        let distance = points[i].distance(points[j]);
        if distance > 0.0 {
            assert_matches_brute_force(&points, Some(nudge(distance, ulps)), speed);
        }
    }

    /// Repeated points: every copy is a neighbour of every other at
    /// distance zero.
    #[test]
    fn duplicate_points_match_brute_force(
        coords in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 1..20),
        picks in prop::collection::vec(0usize..1 << 20, 1..60),
        epsilon in prop::option::of(arb_epsilon()),
        speed in 0.25f64..4.0,
    ) {
        let points: Vec<Point> = picks
            .iter()
            .map(|&pick| {
                let (x, y) = coords[pick % coords.len()];
                Point::new(x, y)
            })
            .collect();
        assert_matches_brute_force(&points, epsilon, speed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Centers at the DP's 128-point cap, pruned and unpruned.
    #[test]
    fn full_centers_match_brute_force(
        coords in prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 128..129),
        epsilon in arb_epsilon(),
        speed in 0.25f64..4.0,
    ) {
        let points: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        assert_matches_brute_force(&points, Some(epsilon), speed);
        assert_matches_brute_force(&points, None, speed);
    }
}

/// A coordinate offset: none, or 1e6–1e9 either way.
fn arb_offset() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 1e6f64..1e9, -1e9f64..-1e6]
}

/// Squares that underflow into subnormals round by an absolute amount:
/// here `dx²` and `dy²` each round up to the smallest subnormal, so their
/// sum exceeds the rounded `ε²` although the pair is within ε.
#[test]
fn subnormal_squares_keep_their_pair() {
    let (a, epsilon) = (1.58e-162, 2.258e-162);
    let points = [Point::new(0.0, 0.0), Point::new(a, a)];
    assert!(points[0].distance(points[1]) <= epsilon);
    assert!(points[0].distance_sq(points[1]) > epsilon * epsilon);
    assert_matches_brute_force(&points, Some(epsilon), 1.0);
    assert_eq!(
        Adjacency::build(&points, Some(epsilon), 1.0).edge_count(),
        2
    );
}

/// The pairs that defeat a `floor(p/ε)` cell grid scanning 3×3 cells:
/// `floor` puts them two cells apart although their rounded distance is
/// exactly ε.
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
