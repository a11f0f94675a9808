//! The column-stored C-VDPS pool of one distribution center.

use fta_core::ids::{CenterId, DeliveryPointId};
use fta_core::instance::DpAggregate;
use fta_core::route::Route;

/// One center's C-VDPS pool, stored as flat columns: one row per Valid
/// Delivery Point Set, holding the set (a bitmask over the center view's
/// local delivery-point indices) and the minimum-travel-time route that
/// certifies it — visiting order, center-origin arrival offsets, total
/// reward, slack, and travel time to the last stop.
///
/// A generation fills the columns in a handful of allocations, however
/// many sets it emits, and strategy spaces sort the mask, slack, reward and
/// travel columns once per pool to validate them for every worker. Only a
/// set that wins a worker
/// becomes a [`Route`] ([`VdpsPool::route`]). Every row's reward and
/// slack are folded in [`Route::build`]'s order, so a row is bit for bit
/// the route `build` would produce for its stops.
///
/// Rows are ordered by subset size, then by mask, for every producer.
#[derive(Debug, Clone, PartialEq)]
pub struct VdpsPool {
    center: CenterId,
    masks: Vec<u128>,
    /// Row `r`'s stops are `stops[starts[r] as usize..starts[r + 1] as usize]`.
    starts: Vec<u32>,
    stops: Vec<DeliveryPointId>,
    /// Center-origin arrival offsets, parallel to `stops`.
    offsets: Vec<f64>,
    rewards: Vec<f64>,
    slacks: Vec<f64>,
    /// Arrival offset of each row's last stop.
    travels: Vec<f64>,
}

/// A borrowed view of one [`VdpsPool`] row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VdpsRow<'a> {
    /// Bitmask over local delivery-point indices (`view.dps` order).
    pub mask: u128,
    /// The delivery points in visiting order.
    pub stops: &'a [DeliveryPointId],
    /// Arrival offsets `t'(dp_i)` from the distribution center.
    pub offsets: &'a [f64],
    /// Sum of the rewards of every task on the route.
    pub total_reward: f64,
    /// Largest worker→center travel time for which all deadlines hold.
    pub slack: f64,
    /// Travel time from the distribution center to the last stop.
    pub travel_from_dc: f64,
}

impl VdpsRow<'_> {
    /// Number of delivery points in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stops.len()
    }

    /// Whether the set is empty (never, for generated rows).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stops.is_empty()
    }
}

/// Reward and slack of a visiting order, folded left to right exactly as
/// [`Route::build`] folds them.
fn fold(stops: &[DeliveryPointId], offsets: &[f64], aggregates: &[DpAggregate]) -> (f64, f64) {
    let mut total_reward = 0.0;
    let mut slack = f64::INFINITY;
    for (dp, &offset) in stops.iter().zip(offsets) {
        let agg = &aggregates[dp.index()];
        total_reward += agg.total_reward;
        slack = slack.min(agg.earliest_expiry - offset);
    }
    (total_reward, slack)
}

impl VdpsPool {
    /// An empty pool of `center`.
    #[must_use]
    pub fn new(center: CenterId) -> Self {
        Self::with_capacity(center, 0, 0)
    }

    /// An empty pool with room for `rows` sets of `stops` stops in total.
    #[must_use]
    pub(crate) fn with_capacity(center: CenterId, rows: usize, stops: usize) -> Self {
        let mut starts = Vec::with_capacity(rows + 1);
        starts.push(0);
        Self {
            center,
            masks: Vec::with_capacity(rows),
            starts,
            stops: Vec::with_capacity(stops),
            offsets: Vec::with_capacity(stops),
            rewards: Vec::with_capacity(rows),
            slacks: Vec::with_capacity(rows),
            travels: Vec::with_capacity(rows),
        }
    }

    /// The distribution center every row starts from.
    #[must_use]
    pub fn center(&self) -> CenterId {
        self.center
    }

    /// Number of sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether the pool holds no set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Every row's mask.
    #[must_use]
    pub fn masks(&self) -> &[u128] {
        &self.masks
    }

    /// Row `r`'s mask.
    #[must_use]
    pub fn mask(&self, r: usize) -> u128 {
        self.masks[r]
    }

    /// Every row's slack.
    #[must_use]
    pub fn slacks(&self) -> &[f64] {
        &self.slacks
    }

    /// Every row's total reward.
    #[must_use]
    pub fn rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// Every row's travel time to its last stop.
    #[must_use]
    pub fn travels(&self) -> &[f64] {
        &self.travels
    }

    /// Row starts into the stop columns: row `r` spans
    /// `starts()[r]..starts()[r + 1]` (one more entry than rows).
    #[must_use]
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Number of stops of row `r`.
    #[must_use]
    pub fn row_len(&self, r: usize) -> usize {
        (self.starts[r + 1] - self.starts[r]) as usize
    }

    /// Row `r`'s stops in visiting order.
    #[must_use]
    pub fn stops(&self, r: usize) -> &[DeliveryPointId] {
        &self.stops[self.span(r)]
    }

    /// Row `r`'s center-origin arrival offsets.
    #[must_use]
    pub fn offsets(&self, r: usize) -> &[f64] {
        &self.offsets[self.span(r)]
    }

    /// A borrowed view of row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> VdpsRow<'_> {
        VdpsRow {
            mask: self.masks[r],
            stops: self.stops(r),
            offsets: self.offsets(r),
            total_reward: self.rewards[r],
            slack: self.slacks[r],
            travel_from_dc: self.travels[r],
        }
    }

    /// Every row, in pool order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = VdpsRow<'_>> + '_ {
        (0..self.len()).map(|r| self.row(r))
    }

    /// Row `r` as an owned [`Route`], bit-identical to [`Route::build`]
    /// over its stops.
    #[must_use]
    pub fn route(&self, r: usize) -> Route {
        Route::from_parts(
            self.center,
            self.stops(r).to_vec(),
            self.offsets(r).to_vec(),
            self.rewards[r],
            self.slacks[r],
        )
    }

    /// Appends `route` as a row for `mask` (the route's center must be the
    /// pool's).
    ///
    /// # Panics
    ///
    /// Panics unless `mask` holds one point per stop of `route`: the
    /// strategy layer's reach test counts a row's points by its length.
    pub fn push_route(&mut self, mask: u128, route: &Route) {
        debug_assert_eq!(route.center(), self.center, "route from another center");
        assert!(
            mask != 0 && mask.count_ones() as usize == route.len(),
            "every pool row visits a point, one per stop: {} stops, mask {mask:#x}",
            route.len()
        );
        self.stops.extend_from_slice(route.dps());
        self.offsets.extend_from_slice(route.arrival_offsets());
        self.close_row(mask, route.total_reward(), route.slack());
    }

    /// Appends a row of `len` stops for `mask`: `fill` writes the visiting
    /// order and arrival offsets, then reward and slack are folded over
    /// them against `aggregates`.
    pub(crate) fn push_row_with(
        &mut self,
        mask: u128,
        len: usize,
        aggregates: &[DpAggregate],
        fill: impl FnOnce(&mut [DeliveryPointId], &mut [f64]),
    ) {
        let at = self.stops.len();
        self.stops.resize(at + len, DeliveryPointId(0));
        self.offsets.resize(at + len, 0.0);
        fill(&mut self.stops[at..], &mut self.offsets[at..]);
        let (reward, slack) = fold(&self.stops[at..], &self.offsets[at..], aggregates);
        self.close_row(mask, reward, slack);
    }

    /// Appends a copy of `src`'s row `r` under `mask`. With `aggregates`
    /// the copy is *retimed*: its reward and slack are folded afresh over
    /// the kept stops and arrival offsets — bit-identical to
    /// [`Route::build`] as long as no stop moved.
    pub(crate) fn push_copy(
        &mut self,
        src: &VdpsPool,
        r: usize,
        mask: u128,
        aggregates: Option<&[DpAggregate]>,
    ) {
        let stops = src.stops(r);
        let offsets = src.offsets(r);
        self.stops.extend_from_slice(stops);
        self.offsets.extend_from_slice(offsets);
        let (reward, slack) = match aggregates {
            Some(aggregates) => fold(stops, offsets, aggregates),
            None => (src.rewards[r], src.slacks[r]),
        };
        self.close_row(mask, reward, slack);
    }

    fn close_row(&mut self, mask: u128, reward: f64, slack: f64) {
        let start = *self.starts.last().expect("starts holds the leading 0") as usize;
        debug_assert!(self.stops.len() > start, "a set visits at least one point");
        debug_assert_eq!(
            mask.count_ones() as usize,
            self.stops.len() - start,
            "a row's mask holds one point per stop"
        );
        self.masks.push(mask);
        self.starts.push(self.stops.len() as u32);
        self.rewards.push(reward);
        self.slacks.push(slack);
        self.travels.push(self.offsets[self.offsets.len() - 1]);
    }

    fn span(&self, r: usize) -> std::ops::Range<usize> {
        self.starts[r] as usize..self.starts[r + 1] as usize
    }
}
