//! Inequity Aversion based Utility (IAU, Equations 5–7).
//!
//! IAU is the utility function of the classical (FGT) game: a worker's raw
//! payoff minus penalties for *disadvantageous* inequity (`MP`, others
//! earning more) and *advantageous* inequity (`LP`, the worker earning more
//! than others), following Fehr–Schmidt inequity aversion.

use serde::{Deserialize, Serialize};

/// Weights of the two inequity penalties.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IauParams {
    /// Weight `α` of the disadvantageous-inequity term `MP` (envy).
    pub alpha: f64,
    /// Weight `β` of the advantageous-inequity term `LP` (guilt).
    pub beta: f64,
}

impl Default for IauParams {
    /// The paper's experimental setting: `α = β = 0.5` (Section VII-A).
    fn default() -> Self {
        Self {
            alpha: 0.5,
            beta: 0.5,
        }
    }
}

/// Total disadvantageous inequity `MP(w_i)` (Equation 6): the summed payoff
/// surplus of every worker earning more than `own`.
#[must_use]
pub fn disadvantageous_inequity(own: f64, others: &[f64]) -> f64 {
    others.iter().filter(|&&p| p > own).map(|p| p - own).sum()
}

/// Total advantageous inequity `LP(w_i)` (Equation 7): the summed payoff
/// surplus of `own` over every worker earning less.
#[must_use]
pub fn advantageous_inequity(own: f64, others: &[f64]) -> f64 {
    others.iter().filter(|&&p| p < own).map(|p| own - p).sum()
}

/// `IAU(w_i, VDPS(w_i))` (Equation 5) given the worker's own payoff, the
/// payoffs of all *other* workers, and the penalty weights.
///
/// `others` must not include the worker's own payoff; `|W| - 1` in the
/// normalisation is `others.len()`. With no other workers the utility is
/// just the raw payoff.
///
/// ```
/// use fta_core::iau::{iau, IauParams};
///
/// // Equal payoffs carry no inequity penalty…
/// assert_eq!(iau(2.0, &[2.0, 2.0], IauParams::default()), 2.0);
/// // …while being ahead of the pack costs guilt (β) utility.
/// assert!(iau(4.0, &[1.0, 1.0], IauParams::default()) < 4.0);
/// ```
#[must_use]
pub fn iau(own: f64, others: &[f64], params: IauParams) -> f64 {
    if others.is_empty() {
        return own;
    }
    let n_minus_1 = others.len() as f64;
    own - params.alpha / n_minus_1 * disadvantageous_inequity(own, others)
        - params.beta / n_minus_1 * advantageous_inequity(own, others)
}

/// Incremental IAU evaluator for a fixed set of other workers' payoffs.
///
/// Best-response search evaluates `IAU(p)` for many candidate own-payoffs
/// `p` against the *same* rivals. Sorting the rivals once and prefix-summing
/// makes each evaluation `O(log n)` instead of `O(n)`; with hundreds of
/// candidate strategies per worker per round this is the hot path of FGT.
#[derive(Debug, Clone)]
pub struct IauEvaluator {
    sorted: Vec<f64>,
    prefix: Vec<f64>,
    params: IauParams,
}

impl IauEvaluator {
    /// Builds an evaluator over the payoffs of the other workers.
    #[must_use]
    pub fn new(others: &[f64], params: IauParams) -> Self {
        let mut sorted = others.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for &p in &sorted {
            acc += p;
            prefix.push(acc);
        }
        Self {
            sorted,
            prefix,
            params,
        }
    }

    /// Number of other workers.
    #[must_use]
    pub fn rivals(&self) -> usize {
        self.sorted.len()
    }

    /// Evaluates `IAU(own)` against the fixed rival payoffs.
    #[must_use]
    pub fn eval(&self, own: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return own;
        }
        // k = number of rivals with payoff strictly below `own`.
        let k = self.sorted.partition_point(|&p| p < own);
        let below_sum = self.prefix[k];
        let above_sum = self.prefix[n] - self.prefix[k];
        // Rivals equal to `own` contribute zero to both terms; treating the
        // `>= own` block as "above" is safe because (p - own) = 0 for ties.
        let mp = above_sum - (n - k) as f64 * own;
        let lp = k as f64 * own - below_sum;
        let n_minus_1 = n as f64;
        own - self.params.alpha / n_minus_1 * mp - self.params.beta / n_minus_1 * lp
    }
}

/// One node of the [`RivalSet`] order-statistic treap: a distinct payoff
/// value with its multiplicity, plus subtree aggregates.
#[derive(Debug, Clone)]
struct Node {
    /// The distinct payoff value this node stores (never `-0.0`).
    value: f64,
    /// How many copies of `value` the set holds.
    copies: i64,
    /// Treap heap priority (max-heap): `priority_of(value)`.
    priority: u64,
    /// Total copies in this subtree (including this node's).
    count: i64,
    /// Total payoff sum in this subtree (including this node's copies).
    sum: f64,
    /// `Σ_{i<j} |p_i − p_j|` over the copies in this subtree.
    pair_abs_sum: f64,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

/// The treap priority of a stored value: splitmix64's finaliser over the
/// value's bits, so the tree's shape depends only on which values it holds.
fn priority_of(value: f64) -> u64 {
    let mut z = value.to_bits().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `a` belongs above `b` in the heap order: the higher priority,
/// and on a hash tie the higher value (stored values are distinct).
fn outranks(a: &Node, b: &Node) -> bool {
    a.priority > b.priority || (a.priority == b.priority && a.value > b.value)
}

fn subtree_count(node: &Option<Box<Node>>) -> i64 {
    node.as_ref().map_or(0, |n| n.count)
}

fn subtree_sum(node: &Option<Box<Node>>) -> f64 {
    node.as_ref().map_or(0.0, |n| n.sum)
}

fn subtree_pairs(node: &Option<Box<Node>>) -> f64 {
    node.as_ref().map_or(0.0, |n| n.pair_abs_sum)
}

impl Node {
    fn leaf(value: f64) -> Box<Self> {
        Box::new(Self {
            value,
            copies: 1,
            priority: priority_of(value),
            count: 1,
            sum: value,
            pair_abs_sum: 0.0,
            left: None,
            right: None,
        })
    }

    /// Recomputes this node's subtree aggregates from its children: a pure
    /// function of the subtree's contents, since the shape is.
    ///
    /// With `a` copies summing to `s_a` on the left (all below `v`), `c`
    /// copies of `v` here and `b` summing to `s_b` on the right, the pairs
    /// that straddle this node add `(a + c)·d_r + (b + c)·d_l`, where
    /// `d_l = a·v − s_a` and `d_r = s_b − b·v` are non-negative deviation
    /// sums: the left–right pairs are `a·d_r + b·d_l`, the pairs with this
    /// node's copies `c·(d_l + d_r)`.
    fn pull(&mut self) {
        let (a, b) = (subtree_count(&self.left), subtree_count(&self.right));
        let (s_a, s_b) = (subtree_sum(&self.left), subtree_sum(&self.right));
        let (v, c) = (self.value, self.copies);
        self.count = c + a + b;
        self.sum = v * c as f64 + s_a + s_b;
        let d_l = a as f64 * v - s_a;
        let d_r = s_b - b as f64 * v;
        self.pair_abs_sum = subtree_pairs(&self.left)
            + subtree_pairs(&self.right)
            + (a + c) as f64 * d_r
            + (b + c) as f64 * d_l;
    }
}

/// Rotates `n`'s left child up; both touched nodes are re-aggregated.
fn rotate_right(mut n: Box<Node>) -> Box<Node> {
    let mut l = n.left.take().expect("rotate_right requires a left child");
    n.left = l.right.take();
    n.pull();
    l.right = Some(n);
    l.pull();
    l
}

/// Rotates `n`'s right child up; both touched nodes are re-aggregated.
fn rotate_left(mut n: Box<Node>) -> Box<Node> {
    let mut r = n.right.take().expect("rotate_left requires a right child");
    n.right = r.left.take();
    n.pull();
    r.left = Some(n);
    r.pull();
    r
}

/// Inserts one copy of `value` (treap insert, rebalancing by priority).
fn insert_node(node: Option<Box<Node>>, value: f64) -> Box<Node> {
    let Some(mut n) = node else {
        return Node::leaf(value);
    };
    if value == n.value {
        n.copies += 1;
        n.pull();
        n
    } else if value < n.value {
        n.left = Some(insert_node(n.left.take(), value));
        if n.left.as_deref().is_some_and(|l| outranks(l, &n)) {
            rotate_right(n)
        } else {
            n.pull();
            n
        }
    } else {
        n.right = Some(insert_node(n.right.take(), value));
        if n.right.as_deref().is_some_and(|r| outranks(r, &n)) {
            rotate_left(n)
        } else {
            n.pull();
            n
        }
    }
}

/// Deletes the root node of a subtree by rotating it down to a leaf,
/// preserving the heap order among the remaining nodes.
fn delete_root(mut n: Box<Node>) -> Option<Box<Node>> {
    match (n.left.take(), n.right.take()) {
        (None, r) => r,
        (l @ Some(_), None) => l,
        (Some(l), Some(r)) => {
            if outranks(&l, &r) {
                let mut new_root = l;
                n.left = new_root.right.take();
                n.right = Some(r);
                new_root.right = delete_root(n);
                new_root.pull();
                Some(new_root)
            } else {
                let mut new_root = r;
                n.right = new_root.left.take();
                n.left = Some(l);
                new_root.left = delete_root(n);
                new_root.pull();
                Some(new_root)
            }
        }
    }
}

/// Removes one copy of `value`; the boolean reports whether a copy existed.
fn remove_node(node: Option<Box<Node>>, value: f64) -> (Option<Box<Node>>, bool) {
    let Some(mut n) = node else {
        return (None, false);
    };
    if value < n.value {
        let (l, removed) = remove_node(n.left.take(), value);
        n.left = l;
        n.pull();
        (Some(n), removed)
    } else if value > n.value {
        let (r, removed) = remove_node(n.right.take(), value);
        n.right = r;
        n.pull();
        (Some(n), removed)
    } else if n.copies > 1 {
        n.copies -= 1;
        n.pull();
        (Some(n), true)
    } else {
        (delete_root(n), true)
    }
}

/// Incremental rival-payoff engine: IAU evaluation, payoff difference,
/// average, and potential over a *mutable* population of payoffs.
///
/// [`IauEvaluator`] fixes the rivals once, which forces best-response loops
/// to rebuild it for every worker in every round (`O(n² log n)` per round).
/// `RivalSet` instead keeps **all** `n` payoffs in an augmented
/// order-statistic treap keyed by payoff value, with per-subtree copy
/// counts, payoff sums and pairwise-difference sums, so a best-response
/// sweep becomes:
///
/// ```text
/// for each worker w:
///     set.remove(payoff(w));          // O(log n)
///     best = argmax over candidates of set.eval(candidate);  // O(log n) each
///     set.insert(best_payoff);        // O(log n)
/// ```
///
/// One structure survives the whole equilibrium loop — `n` point updates per
/// round instead of `n` full rebuilds, and no precomputed value universe:
/// the tree holds only the `n` payoffs currently in play, so construction is
/// `O(n log n)` regardless of how many candidate strategies exist. (An
/// earlier design compressed values into Fenwick trees over the full set of
/// admissible payoffs; with worker-dependent payoffs that universe grows as
/// `O(|W| · |pool|)` and its sort dwarfed the game itself.) The root's
/// aggregates make the fairness metric (Equation 2), the population
/// average, and the potential function `O(1)` reads at any time.
///
/// # History independence
///
/// Every read — [`RivalSet::eval`], [`RivalSet::total`],
/// [`RivalSet::average`], [`RivalSet::payoff_difference`],
/// [`RivalSet::potential`] and [`RivalSet::pairwise_diff_sum`] — is a pure
/// function of the stored multiset, bit for bit, whatever sequence of
/// inserts and removes built it. A node's treap priority is a fixed hash
/// of its value's bits (`-0.0` is stored as `+0.0`; a hash tie between
/// distinct values is broken by value), so the tree's shape is unique for
/// a given multiset, and every aggregate is recomputed from the node's
/// children rather than accumulated. In particular `remove(v); insert(v)`
/// is an exact no-op, so a best-response loop may skip that pair on a turn
/// where the worker cannot switch and still read the same floats as a loop
/// that makes it on every turn.
///
/// ```
/// use fta_core::iau::{iau, IauParams, RivalSet};
///
/// let params = IauParams::default();
/// let mut set = RivalSet::new(params);
/// for p in [1.0, 2.0, 4.0] {
///     set.insert(p);
/// }
/// let before = set.payoff_difference().to_bits();
/// // Evaluate worker 0's candidates against its rivals {2.0, 4.0}.
/// set.remove(1.0);
/// assert!((set.eval(1.0) - iau(1.0, &[2.0, 4.0], params)).abs() < 1e-12);
/// set.insert(1.0);
/// assert_eq!(set.len(), 3);
/// assert_eq!(set.payoff_difference().to_bits(), before);
/// ```
#[derive(Debug, Clone)]
pub struct RivalSet {
    /// Order-statistic treap over the stored payoffs.
    root: Option<Box<Node>>,
    params: IauParams,
}

impl RivalSet {
    /// Builds an empty engine.
    #[must_use]
    pub fn new(params: IauParams) -> Self {
        Self { root: None, params }
    }

    /// Convenience constructor: builds the engine and inserts every payoff
    /// in `payoffs`.
    #[must_use]
    pub fn with_payoffs(payoffs: &[f64], params: IauParams) -> Self {
        let mut set = Self::new(params);
        for &p in payoffs {
            set.insert(p);
        }
        set
    }

    /// The inequity-aversion weights this engine evaluates with.
    #[must_use]
    pub fn params(&self) -> IauParams {
        self.params
    }

    /// Number of payoffs currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        subtree_count(&self.root) as usize
    }

    /// Whether no payoffs are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Sum of all stored payoffs.
    #[must_use]
    pub fn total(&self) -> f64 {
        subtree_sum(&self.root)
    }

    /// Mean of the stored payoffs (`0.0` when empty).
    #[must_use]
    pub fn average(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.total() / self.len() as f64
        }
    }

    /// `Σ_{i<j} |p_i − p_j|` over the stored payoffs.
    #[must_use]
    pub fn pairwise_diff_sum(&self) -> f64 {
        subtree_pairs(&self.root)
    }

    /// Payoff difference (Equation 2): mean pairwise absolute difference,
    /// `2S / (n(n−1))`. Zero for fewer than two payoffs. Clamped at zero to
    /// absorb floating-point rounding in the subtree sums.
    #[must_use]
    pub fn payoff_difference(&self) -> f64 {
        let len = self.len();
        if len < 2 {
            return 0.0;
        }
        let n = len as f64;
        (2.0 * self.pairwise_diff_sum() / (n * (n - 1.0))).max(0.0)
    }

    /// The FGT potential `Φ = Σ P_i − (α+β) · n · P_dif / 2`, which
    /// simplifies to `total − (α+β) · S / (n−1)`. Equals `total` for fewer
    /// than two payoffs.
    #[must_use]
    pub fn potential(&self) -> f64 {
        let len = self.len();
        if len < 2 {
            return self.total();
        }
        let n_minus_1 = (len - 1) as f64;
        self.total() - (self.params.alpha + self.params.beta) * self.pairwise_diff_sum() / n_minus_1
    }

    /// (count, sum) of stored copies with value strictly below `v`.
    /// `O(log n)`.
    fn below(&self, v: f64) -> (i64, f64) {
        let mut count = 0;
        let mut sum = 0.0;
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            if v <= n.value {
                cur = n.left.as_deref();
            } else {
                count += subtree_count(&n.left) + n.copies;
                sum += subtree_sum(&n.left) + n.value * n.copies as f64;
                cur = n.right.as_deref();
            }
        }
        (count, sum)
    }

    /// Adds one copy of `v`. `O(log n)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn insert(&mut self, v: f64) {
        assert!(!v.is_nan(), "cannot insert NaN into a RivalSet");
        // `-0.0 + 0.0` is `+0.0`: one zero, one priority.
        self.root = Some(insert_node(self.root.take(), v + 0.0));
    }

    /// Removes one copy of `v`. `O(log n)`.
    ///
    /// # Panics
    ///
    /// Panics if no copy of `v` is stored.
    pub fn remove(&mut self, v: f64) {
        let (root, removed) = remove_node(self.root.take(), v);
        self.root = root;
        assert!(removed, "remove({v}): no copy is stored in the RivalSet");
    }

    /// Evaluates `IAU(own)` against the stored payoffs (Equation 5). The
    /// focal worker's payoff must have been [`RivalSet::remove`]d first so
    /// the contents are exactly its rivals. `O(log n)`.
    #[must_use]
    pub fn eval(&self, own: f64) -> f64 {
        if self.is_empty() {
            return own;
        }
        let (c_lt, s_lt) = self.below(own);
        let k = c_lt as f64;
        let n = self.len() as f64;
        // Ties contribute zero to both terms, so the `>= own` block is
        // safely treated as "above" (same convention as `IauEvaluator`).
        let mp = (self.total() - s_lt) - (n - k) * own;
        let lp = k * own - s_lt;
        own - self.params.alpha / n * mp - self.params.beta / n * lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalties_split_by_comparison() {
        let others = [1.0, 3.0, 5.0];
        assert_eq!(disadvantageous_inequity(2.0, &others), 1.0 + 3.0);
        assert_eq!(advantageous_inequity(2.0, &others), 1.0);
    }

    #[test]
    fn equal_payoffs_have_no_penalty() {
        let others = [2.0, 2.0, 2.0];
        let params = IauParams::default();
        assert_eq!(iau(2.0, &others, params), 2.0);
    }

    #[test]
    fn iau_is_penalised_from_both_sides() {
        let params = IauParams {
            alpha: 0.5,
            beta: 0.5,
        };
        // own=4, others=[1, 2]: LP = 3+2 = 5, MP = 0, n-1 = 2.
        let u = iau(4.0, &[1.0, 2.0], params);
        assert!((u - (4.0 - 0.25 * 5.0)).abs() < 1e-12);
        // own=1, others=[2, 4]: MP = 1+3 = 4.
        let u = iau(1.0, &[2.0, 4.0], params);
        assert!((u - (1.0 - 0.25 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn figure1_fair_joint_strategy_utility() {
        // Paper Section V-B: IAU(w1, {dp1, dp2}) = 2.42 when w1's payoff is
        // 2.55 and w2's is 2.29 with α = β = 0.5.
        let u = iau(2.55, &[2.29], IauParams::default());
        assert!((u - 2.42).abs() < 5e-3, "got {u}");
    }

    #[test]
    fn singleton_population_utility_is_payoff() {
        assert_eq!(iau(3.7, &[], IauParams::default()), 3.7);
    }

    #[test]
    fn evaluator_matches_direct_formula() {
        let others = [0.5, 2.0, 2.0, 3.75, 9.1];
        let params = IauParams {
            alpha: 0.8,
            beta: 0.3,
        };
        let eval = IauEvaluator::new(&others, params);
        for own in [0.0, 0.5, 1.0, 2.0, 3.0, 3.75, 5.0, 9.1, 12.0] {
            let direct = iau(own, &others, params);
            let fast = eval.eval(own);
            assert!(
                (direct - fast).abs() < 1e-10,
                "own={own}: {direct} vs {fast}"
            );
        }
    }

    #[test]
    fn evaluator_with_no_rivals() {
        let eval = IauEvaluator::new(&[], IauParams::default());
        assert_eq!(eval.rivals(), 0);
        assert_eq!(eval.eval(1.5), 1.5);
    }

    /// Brute-force mirror of the incremental S maintenance.
    fn direct_pair_abs_sum(values: &[f64]) -> f64 {
        let mut s = 0.0;
        for i in 0..values.len() {
            for j in (i + 1)..values.len() {
                s += (values[i] - values[j]).abs();
            }
        }
        s
    }

    #[test]
    fn rival_set_eval_matches_direct_iau() {
        let params = IauParams {
            alpha: 0.8,
            beta: 0.3,
        };
        let payoffs = [0.5, 2.0, 2.0, 3.75, 9.1];
        let mut set = RivalSet::with_payoffs(&payoffs, params);
        // Focal worker holds 2.0; its rivals are the other four payoffs.
        set.remove(2.0);
        let rivals = [0.5, 2.0, 3.75, 9.1];
        for own in [0.0, 0.5, 1.0, 2.0, 3.0, 3.75, 5.0, 9.1, 12.0] {
            let direct = iau(own, &rivals, params);
            let fast = set.eval(own);
            assert!(
                (direct - fast).abs() < 1e-10,
                "own={own}: {direct} vs {fast}"
            );
        }
    }

    #[test]
    fn rival_set_tracks_pairwise_diffs_through_updates() {
        let params = IauParams::default();
        let mut set = RivalSet::new(params);
        let mut shadow: Vec<f64> = Vec::new();
        let script: [(bool, f64); 9] = [
            (true, 1.0),
            (true, 4.0),
            (true, 4.0),
            (true, 0.0),
            (false, 4.0),
            (true, 7.0),
            (false, 1.0),
            (true, 2.5),
            (false, 0.0),
        ];
        for (add, v) in script {
            if add {
                set.insert(v);
                shadow.push(v);
            } else {
                set.remove(v);
                let pos = shadow.iter().position(|&p| p == v).unwrap();
                shadow.swap_remove(pos);
            }
            assert_eq!(set.len(), shadow.len());
            let want_total: f64 = shadow.iter().sum();
            assert!((set.total() - want_total).abs() < 1e-9);
            let want_s = direct_pair_abs_sum(&shadow);
            assert!(
                (set.pairwise_diff_sum() - want_s).abs() < 1e-9,
                "after {:?}: {} vs {}",
                (add, v),
                set.pairwise_diff_sum(),
                want_s
            );
        }
    }

    #[test]
    fn rival_set_summary_statistics() {
        let params = IauParams::default();
        let set = RivalSet::with_payoffs(&[1.0, 3.0, 5.0], params);
        assert_eq!(set.len(), 3);
        assert!((set.average() - 3.0).abs() < 1e-12);
        // S = |1−3| + |1−5| + |3−5| = 8; P_dif = 2·8 / (3·2) = 8/3.
        assert!((set.payoff_difference() - 8.0 / 3.0).abs() < 1e-12);
        // Φ = 9 − (0.5+0.5)·8/2 = 5.
        assert!((set.potential() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rival_set_degenerate_sizes() {
        let params = IauParams::default();
        let mut set = RivalSet::new(params);
        assert!(set.is_empty());
        assert_eq!(set.payoff_difference(), 0.0);
        assert_eq!(set.average(), 0.0);
        assert_eq!(set.eval(2.0), 2.0);
        set.insert(2.0);
        assert_eq!(set.payoff_difference(), 0.0);
        assert_eq!(set.potential(), 2.0);
    }

    #[test]
    #[should_panic(expected = "no copy is stored")]
    fn rival_set_rejects_removing_absent_values() {
        let mut set = RivalSet::with_payoffs(&[0.0, 1.0], IauParams::default());
        set.remove(0.75);
    }

    #[test]
    fn rival_set_survives_many_ordered_inserts() {
        // An ascending insertion order is the worst case for a naive BST;
        // the treap's hashed priorities must keep it balanced enough to
        // finish instantly and agree with the brute force.
        let params = IauParams::default();
        let mut set = RivalSet::new(params);
        let values: Vec<f64> = (0..2000).map(f64::from).collect();
        for &v in &values {
            set.insert(v);
        }
        assert_eq!(set.len(), 2000);
        // S = Σ_{i<j} (j − i) for 0..2000 = Σ_d d·(2000−d).
        let want: f64 = (1..2000).map(|d| (d * (2000 - d)) as f64).sum();
        assert!((set.pairwise_diff_sum() - want).abs() / want < 1e-12);
        set.remove(0.0);
        set.remove(1999.0);
        assert_eq!(set.len(), 1998);
    }

    #[test]
    fn higher_alpha_punishes_envy_more() {
        let others = [5.0];
        let low = iau(
            1.0,
            &others,
            IauParams {
                alpha: 0.1,
                beta: 0.5,
            },
        );
        let high = iau(
            1.0,
            &others,
            IauParams {
                alpha: 0.9,
                beta: 0.5,
            },
        );
        assert!(high < low);
    }
    #[test]
    fn nan_rival_payoff_does_not_panic() {
        // A NaN that leaks into a rival-payoff vector (e.g. from a
        // degenerate 0/0 payoff) must not crash the evaluator; total_cmp
        // sorts NaN to the top and the IAU value is simply NaN-poisoned.
        let ev = IauEvaluator::new(&[1.0, f64::NAN, 3.0], IauParams::default());
        assert_eq!(ev.rivals(), 3);
        let _ = ev.eval(2.0);
        let _ = iau(2.0, &[1.0, f64::NAN, 3.0], IauParams::default());
    }
}
