//! Property-based tests for the domain layer: fairness metrics, IAU, and
//! route construction invariants.

use fta_core::entities::{DeliveryPoint, DistributionCenter, SpatialTask, Worker};
use fta_core::fairness::{average_payoff, gini, jain_index, min_max_ratio, payoff_difference};
use fta_core::geometry::Point;
use fta_core::iau::{iau, IauEvaluator, IauParams, RivalSet};
use fta_core::ids::{CenterId, DeliveryPointId, TaskId, WorkerId};
use fta_core::instance::Instance;
use fta_core::priority::PriorityRivalSet;
use fta_core::route::Route;
use proptest::prelude::*;

fn payoff_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, 0..max_len)
}

fn naive_payoff_difference(payoffs: &[f64]) -> f64 {
    let n = payoffs.len();
    if n < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                sum += (payoffs[i] - payoffs[j]).abs();
            }
        }
    }
    sum / (n * (n - 1)) as f64
}

proptest! {
    #[test]
    fn payoff_difference_matches_naive(p in payoff_vec(40)) {
        let fast = payoff_difference(&p);
        let naive = naive_payoff_difference(&p);
        prop_assert!((fast - naive).abs() < 1e-8, "{fast} vs {naive}");
    }

    #[test]
    fn fairness_metrics_stay_in_range(p in payoff_vec(40)) {
        prop_assert!(payoff_difference(&p) >= 0.0);
        let g = gini(&p);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g}");
        let j = jain_index(&p);
        prop_assert!(j > 0.0 && j <= 1.0 + 1e-12, "jain {j}");
        let m = min_max_ratio(&p);
        prop_assert!((0.0..=1.0).contains(&m), "min/max {m}");
    }

    #[test]
    fn payoff_difference_is_translation_and_permutation_stable(
        p in payoff_vec(20),
        shift in 0.0f64..50.0,
        rot in 0usize..19,
    ) {
        let base = payoff_difference(&p);
        // Translation invariance (differences cancel shifts).
        let shifted: Vec<f64> = p.iter().map(|x| x + shift).collect();
        prop_assert!((payoff_difference(&shifted) - base).abs() < 1e-8);
        // Permutation invariance.
        if !p.is_empty() {
            let mut rotated = p.clone();
            rotated.rotate_left(rot % p.len());
            prop_assert!((payoff_difference(&rotated) - base).abs() < 1e-10);
        }
    }

    #[test]
    fn equalizing_transfer_reduces_unfairness(
        mut p in prop::collection::vec(0.0f64..100.0, 2..20),
        frac in 0.0f64..=0.5,
    ) {
        // A Pigou–Dalton transfer from the richest to the poorest worker
        // must not increase the payoff difference.
        let before = payoff_difference(&p);
        let (max_i, _) = p.iter().enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
        let (min_i, _) = p.iter().enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
        let transfer = (p[max_i] - p[min_i]) * frac / 2.0;
        p[max_i] -= transfer;
        p[min_i] += transfer;
        let after = payoff_difference(&p);
        prop_assert!(after <= before + 1e-9, "{before} -> {after}");
    }

    #[test]
    fn iau_evaluator_matches_direct_formula(
        others in prop::collection::vec(0.0f64..50.0, 0..30),
        own in 0.0f64..50.0,
        alpha in 0.0f64..2.0,
        beta in 0.0f64..2.0,
    ) {
        let params = IauParams { alpha, beta };
        let eval = IauEvaluator::new(&others, params);
        let direct = iau(own, &others, params);
        prop_assert!((eval.eval(own) - direct).abs() < 1e-8);
    }

    #[test]
    fn iau_is_bounded_by_raw_payoff(
        others in prop::collection::vec(0.0f64..50.0, 1..30),
        own in 0.0f64..50.0,
        alpha in 0.0f64..2.0,
        beta in 0.0f64..2.0,
    ) {
        // Both penalty terms are non-negative, so IAU ≤ payoff, with
        // equality iff everyone is equal.
        let params = IauParams { alpha, beta };
        prop_assert!(iau(own, &others, params) <= own + 1e-12);
    }

    #[test]
    fn rival_set_matches_direct_iau_under_arbitrary_updates(
        ops in prop::collection::vec((0.0f64..50.0, prop::bool::ANY, 0u16..u16::MAX), 1..50),
        own in 0.0f64..50.0,
        alpha in 0.0f64..2.0,
        beta in 0.0f64..2.0,
    ) {
        // Drive a RivalSet through an arbitrary insert/remove sequence and
        // shadow it with a plain vector: after EVERY operation the
        // incremental aggregates and the IAU of a probe payoff must match
        // the direct formulas.
        let params = IauParams { alpha, beta };
        let mut set = RivalSet::new(params);
        let mut shadow: Vec<f64> = Vec::new();
        for (v, remove, pick) in ops {
            if remove && !shadow.is_empty() {
                let victim = shadow.swap_remove(pick as usize % shadow.len());
                set.remove(victim);
            } else {
                set.insert(v);
                shadow.push(v);
            }
            prop_assert_eq!(set.len(), shadow.len());
            let total: f64 = shadow.iter().sum();
            prop_assert!((set.total() - total).abs() < 1e-8 * (1.0 + total.abs()));
            let mut s_direct = 0.0;
            for i in 0..shadow.len() {
                for j in (i + 1)..shadow.len() {
                    s_direct += (shadow[i] - shadow[j]).abs();
                }
            }
            prop_assert!(
                (set.pairwise_diff_sum() - s_direct).abs() < 1e-8 * (1.0 + s_direct),
                "S drifted: {} vs {}", set.pairwise_diff_sum(), s_direct
            );
            let direct = iau(own, &shadow, params);
            prop_assert!(
                (set.eval(own) - direct).abs() < 1e-8 * (1.0 + direct.abs()),
                "IAU mismatch: {} vs {}", set.eval(own), direct
            );
        }
    }

    #[test]
    fn average_payoff_between_min_and_max(p in prop::collection::vec(0.0f64..100.0, 1..30)) {
        let avg = average_payoff(&p);
        let min = p.iter().copied().fold(f64::INFINITY, f64::min);
        let max = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(avg >= min - 1e-12 && avg <= max + 1e-12);
    }
}

/// A random single-center instance on arbitrary points.
fn arb_instance() -> impl Strategy<Value = (Instance, Vec<DeliveryPointId>)> {
    let dp = (0.0f64..10.0, 0.0f64..10.0, 0.5f64..30.0);
    prop::collection::vec(dp, 1..6).prop_map(|dps| {
        let delivery_points: Vec<DeliveryPoint> = dps
            .iter()
            .enumerate()
            .map(|(i, &(x, y, _))| DeliveryPoint {
                id: DeliveryPointId::from_index(i),
                location: Point::new(x, y),
                center: CenterId(0),
            })
            .collect();
        let tasks: Vec<SpatialTask> = dps
            .iter()
            .enumerate()
            .map(|(i, &(_, _, e))| SpatialTask {
                id: TaskId::from_index(i),
                delivery_point: DeliveryPointId::from_index(i),
                expiry: e,
                reward: 1.0,
            })
            .collect();
        let order: Vec<DeliveryPointId> = delivery_points.iter().map(|d| d.id).collect();
        let instance = Instance::new(
            vec![DistributionCenter {
                id: CenterId(0),
                location: Point::new(5.0, 5.0),
            }],
            vec![Worker {
                id: WorkerId(0),
                location: Point::new(4.0, 5.0),
                max_dp: dps.len(),
                center: CenterId(0),
            }],
            delivery_points,
            tasks,
            1.0,
        )
        .expect("generated instances are valid");
        (instance, order)
    })
}

proptest! {
    #[test]
    fn route_offsets_are_strictly_increasing_along_distinct_points(
        (instance, order) in arb_instance()
    ) {
        let aggs = instance.dp_aggregates();
        let route = Route::build(&instance, &aggs, CenterId(0), order).unwrap();
        let offsets = route.arrival_offsets();
        for pair in offsets.windows(2) {
            prop_assert!(pair[1] >= pair[0] - 1e-12);
        }
        prop_assert!((route.travel_from_dc() - offsets.last().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn route_slack_certifies_worker_validity(
        (instance, order) in arb_instance(),
        to_dc in 0.0f64..20.0,
    ) {
        let aggs = instance.dp_aggregates();
        let route = Route::build(&instance, &aggs, CenterId(0), order).unwrap();
        // Validity via slack must agree with a direct deadline re-check
        // whenever we are not within floating-point reach of the boundary.
        if (route.slack() - to_dc).abs() > 1e-9 {
            let direct_valid = route
                .dps()
                .iter()
                .zip(route.arrival_offsets())
                .all(|(dp, &off)| to_dc + off <= aggs[dp.index()].earliest_expiry);
            prop_assert_eq!(route.is_valid_for_travel(to_dc), direct_valid);
        }
    }
}

/// One step of a rival-set script over a list of `(payoff, priority)`
/// items: insert or remove one copy of item `i`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(usize),
    Remove(usize),
}

/// A random op sequence that ends holding exactly `items[..keep]`: the
/// kept items and the churn items `items[keep..]` are inserted in a
/// shuffled order, each churn item is removed again some time after its
/// insert, and `remove(x); insert(x)` pairs of a present item are mixed in.
fn script(n_items: usize, keep: usize, seed: u64) -> Vec<Op> {
    let mut s = seed | 1;
    let mut next = move |bound: usize| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % bound as u64) as usize
    };
    let mut pending: Vec<Op> = (0..n_items).map(Op::Insert).collect();
    let mut present: Vec<usize> = Vec::new();
    let mut ops = Vec::new();
    while !pending.is_empty() {
        let op = pending.swap_remove(next(pending.len()));
        ops.push(op);
        match op {
            Op::Insert(i) => {
                present.push(i);
                if i >= keep {
                    pending.push(Op::Remove(i));
                }
            }
            Op::Remove(i) => {
                let at = present.iter().position(|&j| j == i).expect("inserted");
                present.swap_remove(at);
            }
        }
        if !present.is_empty() && next(3) == 0 {
            let i = present[next(present.len())];
            ops.extend([Op::Remove(i), Op::Insert(i)]);
        }
    }
    ops
}

/// Payoffs with many exact repeats, both zeros and awkward magnitudes.
fn arb_item() -> impl Strategy<Value = (f64, f64)> {
    let payoff = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(0.1),
        Just(1.0 / 3.0),
        Just(2.5),
        0.0f64..50.0,
        1e-12f64..1e-9,
    ];
    (
        payoff,
        prop_oneof![Just(1.0), Just(0.5), Just(3.0), 0.25f64..4.0],
    )
}

/// Every read of a `RivalSet`, as bits.
fn rival_reads(set: &RivalSet, probes: &[f64]) -> Vec<u64> {
    let mut reads = vec![
        set.len() as u64,
        set.total().to_bits(),
        set.average().to_bits(),
        set.payoff_difference().to_bits(),
        set.potential().to_bits(),
        set.pairwise_diff_sum().to_bits(),
    ];
    reads.extend(probes.iter().map(|&p| set.eval(p).to_bits()));
    reads
}

/// Every read of a `PriorityRivalSet`, as bits.
fn priority_reads(set: &PriorityRivalSet, probes: &[f64]) -> Vec<u64> {
    let mut reads = vec![
        set.len() as u64,
        set.average().to_bits(),
        set.payoff_difference().to_bits(),
        set.potential().to_bits(),
    ];
    reads.extend(probes.iter().map(|&p| set.eval(p, 1.5).to_bits()));
    reads
}

proptest! {
    /// Two op sequences that end at the same multiset leave both rival
    /// sets reading the same bits: every read is a function of the stored
    /// multiset alone, and `remove(x); insert(x)` changes nothing.
    #[test]
    fn rival_sets_are_history_independent(
        kept in prop::collection::vec(arb_item(), 0..40),
        churn in prop::collection::vec(arb_item(), 0..20),
        seeds in (0u64..u64::MAX, 0u64..u64::MAX),
        alpha in 0.0f64..2.0,
        beta in 0.0f64..2.0,
    ) {
        let params = IauParams { alpha, beta };
        let items: Vec<(f64, f64)> = kept.iter().chain(&churn).copied().collect();
        let mut probes = vec![-0.0, 0.0, 1.0, 25.0, 1e-10];
        probes.extend(items.iter().map(|&(p, _)| p));
        let play = |seed: u64| {
            let mut raw = RivalSet::new(params);
            let mut normalised = PriorityRivalSet::new(params);
            for op in script(items.len(), kept.len(), seed) {
                match op {
                    Op::Insert(i) => {
                        raw.insert(items[i].0);
                        normalised.insert(items[i].0, items[i].1);
                    }
                    Op::Remove(i) => {
                        raw.remove(items[i].0);
                        normalised.remove(items[i].0, items[i].1);
                    }
                }
            }
            (rival_reads(&raw, &probes), priority_reads(&normalised, &probes))
        };
        let (raw_a, normalised_a) = play(seeds.0);
        let (raw_b, normalised_b) = play(seeds.1);
        prop_assert_eq!(raw_a, raw_b, "RivalSet reads depend on history");
        prop_assert_eq!(normalised_a, normalised_b, "PriorityRivalSet reads depend on history");
    }

    /// The one-pass build reads the same bits as inserting the payoffs
    /// one by one in a random order (with `remove(x); insert(x)` pairs
    /// mixed in), on the same value domain (repeats and `-0.0` included).
    #[test]
    fn one_pass_builds_equal_one_by_one_inserts(
        items in prop::collection::vec(arb_item(), 0..60),
        seed in 0u64..u64::MAX,
        alpha in 0.0f64..2.0,
        beta in 0.0f64..2.0,
    ) {
        let params = IauParams { alpha, beta };
        let payoffs: Vec<f64> = items.iter().map(|&(p, _)| p).collect();
        let mut probes = vec![-0.0, 0.0, 1.0, 25.0, 1e-10];
        probes.extend(&payoffs);
        let mut inserted = RivalSet::new(params);
        for op in script(items.len(), items.len(), seed) {
            match op {
                Op::Insert(i) => inserted.insert(payoffs[i]),
                Op::Remove(i) => inserted.remove(payoffs[i]),
            }
        }
        prop_assert_eq!(
            rival_reads(&RivalSet::with_payoffs(&payoffs, params), &probes),
            rival_reads(&inserted, &probes)
        );
    }
}
