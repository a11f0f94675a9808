//! Serialization of mid-day simulator state for the durability layer.
//!
//! Every journaled payload is a *self-contained* recovery point: the full
//! engine loop state (ledgers, worker positions, pending queue, fault-RNG
//! state), plus — when incremental solving is on — the seed
//! of the solver's warm caches, plus the round's ledger record, so
//! `fta recover` can rebuild the day's ledger. The same bytes go to a log
//! frame or, on a snapshot round, to the snapshot alone. Recovery
//! therefore never replays logic; it decodes the newest intact payload
//! by journaled round and resumes the deterministic event loop, which is
//! what makes the bit-for-bit pin against an uninterrupted run hold.
//!
//! Frames *reference* the scenario instead of copying it. The scenario
//! is fixed for the day and pinned by the journal's `fingerprint`, so a
//! pending task is journaled as its index into [`Scenario::tasks`] plus
//! the fields the day mutates (cancellation instant, retries, backoff).
//! The solver seed journals the solved [`Instance`] the same way: each
//! idle worker's scenario index and location when the round was solved,
//! and each solved task's scenario index. Centers, delivery points,
//! worker capacities, task rewards and the speed come back from the
//! scenario, and expiries are recomputed as `deadline - now` through the
//! same `round_instance` the live round used, so the rebuilt instance has
//! the same bits.
//!
//! The ledger record is binary too: every field of the [`SolveRecord`]
//! in the same wire primitives as the state, strings length-prefixed
//! UTF-8, except `fairness.incomes`. Those are the workers' cumulative
//! earnings at the end of the round, which the frame already holds as
//! `ledgers[i].earnings`, so decoding rebuilds them from the decoded
//! ledgers in worker order (bitwise the live values; encoding
//! `debug_assert!`s it).
//!
//! Decoding is two steps. `decode_frame` needs no scenario (it is what
//! `fta wal-dump` uses), and `DecodedFrame::resolve` checks every index
//! against the scenario and rebuilds the solved instance. Either step
//! fails typed, never panics, on any bytes: a payload of another version
//! is [`DurableError::BadVersion`] (no reader for an older version is
//! kept), and an index outside the scenario is [`DurableError::Corrupt`].
//!
//! Payload v6 is compact. Counts, indices, counters and length prefixes
//! are LEB128 varints (see [`fta_durable::wire`]), so the ledgers' route
//! and delivery counts take a byte or two instead of eight. A pending
//! entry is the zigzag delta of its task index from the previous entry's
//! plus one flags byte marking which of `cancel_at`, `retries` and
//! `eligible_after` differ from a fresh entry's; only those follow, so a
//! fault-free entry typically takes two bytes. Every `f64` stays its
//! IEEE-754 bit pattern and the fault-RNG state and selection masks stay
//! fixed-width: a decimal round-trip would break the bitwise clean-check
//! the incremental solver performs on restored caches, and the replayed
//! ledger's bit-for-bit equality with the live one.

use crate::engine::{round_instance, Pending, SimConfig};
use crate::metrics::WorkerLedger;
use crate::scenario::Scenario;
use fta_algorithms::{CacheSeed, CenterSeed};
use fta_core::geometry::Point;
use fta_core::Instance;
use fta_durable::wire::{Reader, Writer};
use fta_durable::DurableError;
use fta_obs::ledger::{CenterRecord, FairnessRecord, SolveRecord};
use rand::rngs::StdRng;

/// Version byte opening every frame payload.
pub const STATE_VERSION: u8 = 6;

/// The complete mutable state of the engine loop at a round boundary.
pub(crate) struct LoopState {
    pub(crate) now: f64,
    pub(crate) rounds: usize,
    pub(crate) next_arrival: usize,
    pub(crate) tasks_completed: usize,
    pub(crate) tasks_expired: usize,
    pub(crate) tasks_cancelled: usize,
    pub(crate) tasks_abandoned: usize,
    pub(crate) reassignments: usize,
    pub(crate) worker_no_shows: usize,
    pub(crate) route_dropouts: usize,
    pub(crate) degraded_rounds: usize,
    pub(crate) ledgers: Vec<WorkerLedger>,
    pub(crate) busy_until: Vec<f64>,
    pub(crate) location: Vec<Point>,
    pub(crate) pending: Vec<Pending>,
    pub(crate) fault_rng: Option<StdRng>,
}

/// Solver-cache seed journaled alongside the state on incremental runs,
/// with the solved instance held as references into the scenario.
pub(crate) struct SolverSeed {
    /// Scenario index of each idle worker, in the solved instance's
    /// worker order: the solver's stable worker keys.
    pub(crate) worker_keys: Vec<u64>,
    /// Each idle worker's location when the round was solved.
    pub(crate) locations: Vec<Point>,
    /// Scenario index of each solved task, in instance order.
    pub(crate) tasks: Vec<u32>,
    pub(crate) cache: CacheSeed,
}

/// The live round's solver seed, borrowed for encoding.
pub(crate) struct SeedRef<'a> {
    /// Scenario indices of the idle workers, in instance order.
    pub(crate) idle: &'a [usize],
    /// The solved instance (worker locations are read from it).
    pub(crate) instance: &'a Instance,
    /// Scenario indices of the solved tasks, in instance order.
    pub(crate) tasks: &'a [u32],
    pub(crate) cache: &'a CacheSeed,
}

/// A fully decoded frame payload.
pub(crate) struct DecodedFrame {
    pub(crate) round: u64,
    pub(crate) state: LoopState,
    pub(crate) solver: Option<SolverSeed>,
    /// The round's ledger record (batch rounds only), its incomes rebuilt
    /// from `state.ledgers`.
    pub(crate) record: Option<SolveRecord>,
}

fn encode_point(w: &mut Writer, p: &Point) {
    w.f64(p.x);
    w.f64(p.y);
}

fn decode_point(r: &mut Reader<'_>) -> Result<Point, DurableError> {
    Ok(Point {
        x: r.f64()?,
        y: r.f64()?,
    })
}

/// `Pending` flag: `cancel_at` is set (an `f64` follows).
const PENDING_CANCEL: u8 = 1;
/// `Pending` flag: `retries` is not 0 (a varint follows).
const PENDING_RETRIES: u8 = 2;
/// `Pending` flag: `eligible_after` is not the `+0.0` a fresh entry
/// starts with (an `f64` follows).
const PENDING_BACKOFF: u8 = 4;

/// Zigzag-maps a signed delta onto the unsigned varints: 0, -1, 1, -2, ...
/// become 0, 1, 2, 3, ...
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Encodes the pending queue: per entry the zigzag delta of its task index
/// from the previous entry's, then one flags byte marking which of the
/// mutable fields differ from a fresh entry's, then those fields.
/// Arrivals are ingested in index order, so deltas are small and a
/// fault-free entry is typically a one-byte delta plus a zero flags byte.
fn encode_pending(w: &mut Writer, pending: &[Pending]) {
    let mut prev = 0i64;
    w.seq(pending, |w, p| {
        w.var(zigzag(i64::from(p.task) - prev));
        prev = i64::from(p.task);
        let backoff = p.eligible_after.to_bits() != 0;
        let mut flags = 0;
        if p.cancel_at.is_some() {
            flags |= PENDING_CANCEL;
        }
        if p.retries != 0 {
            flags |= PENDING_RETRIES;
        }
        if backoff {
            flags |= PENDING_BACKOFF;
        }
        w.u8(flags);
        if let Some(c) = p.cancel_at {
            w.f64(c);
        }
        if p.retries != 0 {
            w.var(u64::from(p.retries));
        }
        if backoff {
            w.f64(p.eligible_after);
        }
    });
}

fn decode_pending(r: &mut Reader<'_>) -> Result<Vec<Pending>, DurableError> {
    let mut prev = 0i64;
    r.seq(|r| {
        let task = prev
            .checked_add(unzigzag(r.var()?))
            .and_then(|t| u32::try_from(t).ok())
            .ok_or(DurableError::Corrupt("pending task index out of range"))?;
        prev = i64::from(task);
        let flags = r.u8()?;
        if flags & !(PENDING_CANCEL | PENDING_RETRIES | PENDING_BACKOFF) != 0 {
            return Err(DurableError::Corrupt("bad pending flags"));
        }
        Ok(Pending {
            task,
            cancel_at: if flags & PENDING_CANCEL != 0 {
                Some(r.f64()?)
            } else {
                None
            },
            retries: if flags & PENDING_RETRIES != 0 {
                var_u32(r)?
            } else {
                0
            },
            eligible_after: if flags & PENDING_BACKOFF != 0 {
                r.f64()?
            } else {
                0.0
            },
        })
    })
}

/// Reads a varint that must fit a `u32`.
fn var_u32(r: &mut Reader<'_>) -> Result<u32, DurableError> {
    u32::try_from(r.var()?).map_err(|_| DurableError::Corrupt("varint exceeds u32"))
}

/// Reads a varint count or index.
fn var_usize(r: &mut Reader<'_>) -> Result<usize, DurableError> {
    usize::try_from(r.var()?).map_err(|_| DurableError::Corrupt("varint exceeds usize"))
}

fn encode_state(w: &mut Writer, st: &LoopState) {
    w.f64(st.now);
    for count in [
        st.rounds,
        st.next_arrival,
        st.tasks_completed,
        st.tasks_expired,
        st.tasks_cancelled,
        st.tasks_abandoned,
        st.reassignments,
        st.worker_no_shows,
        st.route_dropouts,
        st.degraded_rounds,
    ] {
        w.var(count as u64);
    }
    w.seq(&st.ledgers, |w, l| {
        w.f64(l.earnings);
        w.f64(l.busy_hours);
        w.var(l.routes as u64);
        w.var(l.tasks_delivered as u64);
    });
    w.seq(&st.busy_until, |w, &b| w.f64(b));
    w.seq(&st.location, encode_point);
    encode_pending(w, &st.pending);
    w.opt(&st.fault_rng, |w, rng| {
        for s in rng.state() {
            w.u64(s);
        }
    });
}

fn decode_state(r: &mut Reader<'_>) -> Result<LoopState, DurableError> {
    let now = r.f64()?;
    let rounds = var_usize(r)?;
    let next_arrival = var_usize(r)?;
    let tasks_completed = var_usize(r)?;
    let tasks_expired = var_usize(r)?;
    let tasks_cancelled = var_usize(r)?;
    let tasks_abandoned = var_usize(r)?;
    let reassignments = var_usize(r)?;
    let worker_no_shows = var_usize(r)?;
    let route_dropouts = var_usize(r)?;
    let degraded_rounds = var_usize(r)?;
    let ledgers = r.seq(|r| {
        Ok(WorkerLedger {
            earnings: r.f64()?,
            busy_hours: r.f64()?,
            routes: var_usize(r)?,
            tasks_delivered: var_usize(r)?,
        })
    })?;
    let busy_until = r.seq(Reader::f64)?;
    let location = r.seq(decode_point)?;
    let pending = decode_pending(r)?;
    let fault_rng = r
        .opt(|r| Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?]))?
        .map(StdRng::from_state);
    Ok(LoopState {
        now,
        rounds,
        next_arrival,
        tasks_completed,
        tasks_expired,
        tasks_cancelled,
        tasks_abandoned,
        reassignments,
        worker_no_shows,
        route_dropouts,
        degraded_rounds,
        ledgers,
        busy_until,
        location,
        pending,
        fault_rng,
    })
}

/// Encodes every field of `r` but `fairness.incomes`, which the frame's
/// ledgers already hold.
fn encode_record(w: &mut Writer, r: &SolveRecord) {
    w.opt(&r.round, |w, &n| w.var(n));
    w.opt(&r.sim_hours, |w, &h| w.f64(h));
    w.str(&r.algo);
    w.str(&r.engine);
    w.bool(r.degraded);
    w.bool(r.budget_exhausted);
    w.seq(&r.centers, |w, c| {
        w.var(c.center);
        w.str(&c.rung);
        w.opt(&c.budget_axis, |w, s| w.str(s));
        w.str(&c.resolve);
        for count in [
            c.br_rounds,
            c.br_evaluations,
            c.br_switches,
            c.vdps_count,
            c.vdps_states,
            c.vdps_truncations,
            c.vdps_nanos,
            c.assign_nanos,
        ] {
            w.var(count);
        }
        w.seq(&c.events, |w, e| w.str(e));
    });
    w.f64(r.fairness.payoff_difference);
    w.f64(r.fairness.average_payoff);
    w.f64(r.fairness.gini);
}

/// Decodes a record written by [`encode_record`]; its incomes are the
/// earnings of `ledgers`, in worker order.
fn decode_record(
    r: &mut Reader<'_>,
    ledgers: &[WorkerLedger],
) -> Result<SolveRecord, DurableError> {
    Ok(SolveRecord {
        round: r.opt(Reader::var)?,
        sim_hours: r.opt(Reader::f64)?,
        algo: r.str()?,
        engine: r.str()?,
        degraded: r.bool()?,
        budget_exhausted: r.bool()?,
        centers: r.seq(|r| {
            Ok(CenterRecord {
                center: r.var()?,
                rung: r.str()?,
                budget_axis: r.opt(Reader::str)?,
                resolve: r.str()?,
                br_rounds: r.var()?,
                br_evaluations: r.var()?,
                br_switches: r.var()?,
                vdps_count: r.var()?,
                vdps_states: r.var()?,
                vdps_truncations: r.var()?,
                vdps_nanos: r.var()?,
                assign_nanos: r.var()?,
                events: r.seq(Reader::str)?,
            })
        })?,
        fairness: FairnessRecord {
            payoff_difference: r.f64()?,
            average_payoff: r.f64()?,
            gini: r.f64()?,
            incomes: ledgers.iter().map(|l| l.earnings).collect(),
        },
    })
}

/// Encodes one round's self-contained frame payload. `record`'s incomes
/// must be the earnings of `st.ledgers` (they are not written; see the
/// module docs).
pub(crate) fn encode_frame(
    round: u64,
    st: &LoopState,
    solver: Option<SeedRef<'_>>,
    record: Option<&SolveRecord>,
) -> Vec<u8> {
    debug_assert!(
        record.is_none_or(|r| r.fairness.incomes.len() == st.ledgers.len()
            && r.fairness
                .incomes
                .iter()
                .zip(&st.ledgers)
                .all(|(i, l)| i.to_bits() == l.earnings.to_bits())),
        "a journaled record's incomes must be the frame's ledger earnings"
    );
    let mut w = Writer::new();
    w.u8(STATE_VERSION);
    w.var(round);
    encode_state(&mut w, st);
    match solver {
        None => w.u8(0),
        Some(seed) => {
            w.u8(1);
            w.seq(seed.idle, |w, &k| w.var(k as u64));
            w.seq(&seed.instance.workers, |w, wk| {
                encode_point(w, &wk.location)
            });
            w.seq(seed.tasks, |w, &t| w.var(u64::from(t)));
            w.seq(&seed.cache.centers, |w, c| {
                w.var(u64::from(c.center));
                w.seq(&c.selections, |w, sel| {
                    w.opt(sel, |w, &mask| w.u128(mask));
                });
            });
        }
    }
    w.opt(&record, |w, r| encode_record(w, r));
    w.into_bytes()
}

/// Decodes a frame payload produced by [`encode_frame`].
pub(crate) fn decode_frame(payload: &[u8]) -> Result<DecodedFrame, DurableError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != STATE_VERSION {
        return Err(DurableError::BadVersion {
            expected: u32::from(STATE_VERSION),
            found: u32::from(version),
        });
    }
    let round = r.var()?;
    let state = decode_state(&mut r)?;
    let solver = match r.u8()? {
        0 => None,
        1 => {
            let worker_keys = r.seq(Reader::var)?;
            let locations = r.seq(decode_point)?;
            let tasks = r.seq(var_u32)?;
            let centers = r.seq(|r| {
                let center = var_u32(r)?;
                let selections = r.seq(|r| r.opt(Reader::u128))?;
                Ok(CenterSeed { center, selections })
            })?;
            Some(SolverSeed {
                worker_keys,
                locations,
                tasks,
                cache: CacheSeed { centers },
            })
        }
        _ => return Err(DurableError::Corrupt("bad solver-seed discriminant")),
    };
    let record = r.opt(|r| decode_record(r, &state.ledgers))?;
    r.finish()?;
    Ok(DecodedFrame {
        round,
        state,
        solver,
        record,
    })
}

impl DecodedFrame {
    /// Checks the frame against the scenario it was journaled under and
    /// rebuilds the solved instance of its solver seed, if any. Every
    /// index into the scenario is bounds-checked first, so no bytes can
    /// make this panic.
    pub(crate) fn resolve(&self, scenario: &Scenario) -> Result<Option<Instance>, DurableError> {
        let st = &self.state;
        let n_workers = scenario.workers.len();
        let n_tasks = scenario.tasks.len();
        if st.ledgers.len() != n_workers
            || st.busy_until.len() != n_workers
            || st.location.len() != n_workers
            || st.next_arrival > n_tasks
            || st.pending.iter().any(|p| p.task as usize >= n_tasks)
        {
            return Err(DurableError::Corrupt(
                "journaled state does not match the scenario",
            ));
        }
        let Some(seed) = &self.solver else {
            return Ok(None);
        };
        if seed.locations.len() != seed.worker_keys.len()
            || seed.worker_keys.iter().any(|&k| k >= n_workers as u64)
            || seed.tasks.iter().any(|&t| t as usize >= n_tasks)
        {
            return Err(DurableError::Corrupt(
                "journaled solver seed does not match the scenario",
            ));
        }
        let workers = seed
            .worker_keys
            .iter()
            .zip(&seed.locations)
            .map(|(&k, &at)| (k as usize, at));
        round_instance(scenario, workers, &seed.tasks, st.now)
            .map(Some)
            .map_err(|_| DurableError::Corrupt("journaled instance violates invariants"))
    }
}

/// Human-readable summary of one journaled frame, decoded without the
/// scenario — what `fta wal-dump` prints per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameInfo {
    /// 1-based assignment round the frame captures the state after.
    pub round: u64,
    /// Simulated instant of that round, hours.
    pub sim_hours: f64,
    /// Cumulative completed tasks.
    pub tasks_completed: u64,
    /// Cumulative expired tasks.
    pub tasks_expired: u64,
    /// Cumulative cancelled tasks.
    pub tasks_cancelled: u64,
    /// Cumulative abandoned tasks.
    pub tasks_abandoned: u64,
    /// Tasks pending (unassigned) at the frame instant.
    pub pending: u64,
    /// Workers in the scenario.
    pub workers: u64,
    /// Sum of banked earnings across all worker ledgers.
    pub earnings_total: f64,
    /// Whether the frame carries a fault-RNG state (faulted run).
    pub has_fault_rng: bool,
    /// Whether the frame carries a solver-cache seed (incremental run).
    pub has_solver_cache: bool,
    /// Whether the frame carries the round's ledger record.
    pub has_ledger_record: bool,
}

/// Decodes the summary of one frame payload (see [`FrameInfo`]).
pub fn frame_info(payload: &[u8]) -> Result<FrameInfo, DurableError> {
    let f = decode_frame(payload)?;
    Ok(FrameInfo {
        round: f.round,
        sim_hours: f.state.now,
        tasks_completed: f.state.tasks_completed as u64,
        tasks_expired: f.state.tasks_expired as u64,
        tasks_cancelled: f.state.tasks_cancelled as u64,
        tasks_abandoned: f.state.tasks_abandoned as u64,
        pending: f.state.pending.len() as u64,
        workers: f.state.ledgers.len() as u64,
        earnings_total: f.state.ledgers.iter().map(|l| l.earnings).sum(),
        has_fault_rng: f.state.fault_rng.is_some(),
        has_solver_cache: f.solver.is_some(),
        has_ledger_record: f.record.is_some(),
    })
}

/// 64-bit FNV-1a over `data`.
fn fnv64(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fingerprint of (scenario, config): recovery refuses to restore a
/// journal written under a different world or policy, because the resumed
/// day would be silently plausible and silently wrong. The durable
/// settings themselves (directory, fsync policy, snapshot cadence, crash
/// drill) are deliberately excluded — recovering with a different fsync
/// policy is legitimate.
pub(crate) fn fingerprint(scenario: &Scenario, config: &SimConfig) -> u64 {
    // Byte strings keep the fixed-width `u64` length prefix they had
    // before the wire codec moved to varints, so the fingerprint did not
    // change with payloads v5 and v6: a journal from an older build is refused
    // as `BadVersion`, not as a foreign journal.
    let bytes = |w: &mut Writer, v: &[u8]| {
        w.u64(v.len() as u64);
        for &b in v {
            w.u8(b);
        }
    };
    let mut w = Writer::new();
    bytes(&mut w, b"fta-sim-state-v1");
    w.u64(scenario.centers.len() as u64);
    w.u64(scenario.delivery_points.len() as u64);
    w.u64(scenario.workers.len() as u64);
    w.u64(scenario.tasks.len() as u64);
    for c in &scenario.centers {
        encode_point(&mut w, &c.location);
    }
    for dp in &scenario.delivery_points {
        encode_point(&mut w, &dp.location);
        w.u32(dp.center.0);
    }
    for wk in &scenario.workers {
        encode_point(&mut w, &wk.location);
        w.u64(wk.max_dp as u64);
        w.u32(wk.center.0);
    }
    for t in &scenario.tasks {
        w.f64(t.arrival);
        w.u32(t.delivery_point.0);
        w.f64(t.deadline);
        w.f64(t.reward);
    }
    w.f64(scenario.config.speed);
    w.f64(config.horizon);
    w.f64(config.assignment_period);
    // Policy, VDPS, budget, and fault settings are folded in through their
    // (deterministic) Debug rendering; derive-generated and stable.
    bytes(&mut w, format!("{:?}", config.policy).as_bytes());
    bytes(&mut w, format!("{:?}", config.vdps).as_bytes());
    bytes(&mut w, format!("{:?}", config.budget).as_bytes());
    bytes(&mut w, format!("{:?}", config.faults).as_bytes());
    w.u8(u8::from(config.parallel));
    w.u8(u8::from(config.incremental));
    fnv64(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fta_algorithms::Algorithm;
    use rand::{Rng, SeedableRng};

    fn sample_state() -> LoopState {
        let mut rng = StdRng::seed_from_u64(3);
        rng.gen_range(0.0f64..1.0);
        LoopState {
            now: 1.25,
            rounds: 5,
            next_arrival: 17,
            tasks_completed: 9,
            tasks_expired: 2,
            tasks_cancelled: 1,
            tasks_abandoned: 0,
            reassignments: 3,
            worker_no_shows: 1,
            route_dropouts: 2,
            degraded_rounds: 0,
            ledgers: vec![
                WorkerLedger {
                    earnings: 4.5,
                    busy_hours: 1.75,
                    routes: 3,
                    tasks_delivered: 5,
                },
                WorkerLedger::default(),
            ],
            busy_until: vec![1.5, 0.25],
            location: vec![Point { x: 0.5, y: -1.0 }, Point { x: 2.0, y: 3.0 }],
            pending: vec![Pending {
                task: 4,
                cancel_at: Some(1.9),
                retries: 1,
                eligible_after: 1.5,
            }],
            fault_rng: Some(rng),
        }
    }

    /// A record of `st`'s round with every field set, its incomes the
    /// ledgers' earnings.
    fn sample_record(st: &LoopState) -> SolveRecord {
        SolveRecord {
            round: Some(5),
            sim_hours: Some(st.now),
            algo: "FGT".to_owned(),
            engine: "incremental".to_owned(),
            degraded: true,
            budget_exhausted: false,
            centers: vec![
                CenterRecord {
                    center: 0,
                    rung: "full".to_owned(),
                    budget_axis: None,
                    resolve: "warm".to_owned(),
                    br_rounds: 3,
                    br_evaluations: 40,
                    br_switches: 7,
                    vdps_count: 12,
                    vdps_states: 90,
                    vdps_truncations: 0,
                    vdps_nanos: 123_456,
                    assign_nanos: 78_901,
                    events: vec![],
                },
                CenterRecord {
                    center: 17,
                    rung: "gta-fallback".to_owned(),
                    budget_axis: Some("wall_ms".to_owned()),
                    resolve: "cold".to_owned(),
                    vdps_truncations: 2,
                    events: vec!["center 17: fell back to greedy — ünïcode".to_owned()],
                    ..CenterRecord::default()
                },
            ],
            fairness: FairnessRecord {
                payoff_difference: 0.375,
                average_payoff: 2.25,
                gini: 0.5,
                incomes: st.ledgers.iter().map(|l| l.earnings).collect(),
            },
        }
    }

    /// `a == b` with every float compared by its bits (NaN included).
    fn assert_records_bitwise_eq(a: &SolveRecord, b: &SolveRecord) {
        let bits = |r: &SolveRecord| {
            let f = &r.fairness;
            (
                r.sim_hours.map(f64::to_bits),
                [f.payoff_difference, f.average_payoff, f.gini].map(f64::to_bits),
                f.incomes.iter().map(|i| i.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(bits(a), bits(b));
        let strip = |r: &SolveRecord| SolveRecord {
            sim_hours: None,
            fairness: FairnessRecord::default(),
            ..r.clone()
        };
        assert_eq!(strip(a), strip(b));
    }

    #[test]
    fn record_round_trips_bit_for_bit() {
        let mut st = sample_state();
        st.ledgers[1].earnings = -0.0;
        let mut record = sample_record(&st);
        for (pdif, avg, gini) in [
            (0.375, 2.25, 0.5),
            (f64::NAN, -0.0, f64::from_bits(0x7FF8_0000_0000_0BAD)),
            (f64::INFINITY, f64::NEG_INFINITY, -f64::NAN),
        ] {
            record.fairness.payoff_difference = pdif;
            record.fairness.average_payoff = avg;
            record.fairness.gini = gini;
            let payload = encode_frame(5, &st, None, Some(&record));
            let decoded = decode_frame(&payload).unwrap().record.unwrap();
            assert_records_bitwise_eq(&decoded, &record);
            assert_eq!(decoded.fairness.incomes[1].to_bits(), (-0.0f64).to_bits());
        }
        // A frame without a record (an immediate-dispatch round) decodes
        // to none.
        let payload = encode_frame(5, &st, None, None);
        assert!(decode_frame(&payload).unwrap().record.is_none());
    }

    #[test]
    fn frame_round_trips_bitwise() {
        let st = sample_state();
        let record = sample_record(&st);
        let payload = encode_frame(5, &st, None, Some(&record));
        let decoded = decode_frame(&payload).unwrap();
        assert_eq!(decoded.round, 5);
        let d = &decoded.state;
        assert_eq!(d.now.to_bits(), st.now.to_bits());
        assert_eq!(d.rounds, st.rounds);
        assert_eq!(d.next_arrival, st.next_arrival);
        assert_eq!(d.ledgers, st.ledgers);
        assert_eq!(
            d.busy_until.iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
            st.busy_until
                .iter()
                .map(|b| b.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(d.pending.len(), 1);
        assert_eq!(d.pending[0].task, st.pending[0].task);
        assert_eq!(d.pending[0].cancel_at, st.pending[0].cancel_at);
        assert_eq!(decoded.record.as_ref(), Some(&record));
        // The restored RNG continues the exact same stream.
        let mut a = st.fault_rng.clone().unwrap();
        let mut b = d.fault_rng.clone().unwrap();
        for _ in 0..20 {
            assert_eq!(a.gen_range(0u64..u64::MAX), b.gen_range(0u64..u64::MAX));
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let st = sample_state();
        let mut payload = encode_frame(1, &st, None, Some(&sample_record(&st)));
        // 1 is the retired format that copied the scenario into frames, 2
        // the one that carried the ledger record as a JSON line, 3 the one
        // whose center records carried a shard option, 4 the fixed-width
        // one, and 5 the one that carried the last round's churn tally;
        // no reader for any of them is kept.
        for version in [1u8, 2, 3, 4, 5, 9] {
            payload[0] = version;
            assert!(matches!(
                decode_frame(&payload),
                Err(DurableError::BadVersion { expected: 6, found }) if found == u32::from(version)
            ));
        }
    }

    /// Bytes `pending` adds to `st`'s frame.
    fn pending_bytes(st: &mut LoopState, pending: Vec<Pending>) -> usize {
        st.pending.clear();
        let empty = encode_frame(1, st, None, None).len();
        st.pending = pending;
        encode_frame(1, st, None, None).len() - empty
    }

    #[test]
    fn a_fault_free_pending_entry_takes_at_most_three_bytes() {
        let mut st = sample_state();
        let fresh = |task| Pending {
            task,
            cancel_at: None,
            retries: 0,
            eligible_after: 0.0,
        };
        // A lone entry far from index 0 (a two-byte delta plus flags), and
        // a queue of arrivals in index order with gaps from expiries.
        assert!(pending_bytes(&mut st, vec![fresh(5_000)]) <= 3);
        let queue: Vec<Pending> = (0..100).map(|i| fresh(7_000 + 3 * i)).collect();
        assert!(pending_bytes(&mut st, queue) <= 3 * 100);
    }

    #[test]
    fn pending_fields_round_trip_in_any_order() {
        let mut st = sample_state();
        let entry = |task, cancel_at, retries, eligible_after| Pending {
            task,
            cancel_at,
            retries,
            eligible_after,
        };
        st.pending = vec![
            entry(u32::MAX, None, 0, 0.0),
            entry(0, Some(-0.0), u32::MAX, -0.0),
            entry(9, None, 2, f64::NAN),
            entry(3, Some(2.5), 0, 0.0),
            entry(3, None, 1, 0.75),
        ];
        let payload = encode_frame(1, &st, None, None);
        let decoded = decode_frame(&payload).unwrap().state.pending;
        let key = |p: &Pending| {
            (
                p.task,
                p.cancel_at.map(f64::to_bits),
                p.retries,
                p.eligible_after.to_bits(),
            )
        };
        assert_eq!(
            decoded.iter().map(key).collect::<Vec<_>>(),
            st.pending.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unknown_pending_flags_are_corrupt() {
        let mut st = sample_state();
        st.fault_rng = None;
        st.pending = vec![Pending {
            task: 0,
            cancel_at: None,
            retries: 0,
            eligible_after: 0.0,
        }];
        let mut payload = encode_frame(1, &st, None, None);
        // The frame ends [.., delta 0, flags 0, no rng, no seed, no
        // record].
        let flags = payload.len() - 4;
        assert_eq!(payload[flags - 1..], [0; 5]);
        payload[flags] = 0x08;
        assert!(matches!(
            decode_frame(&payload),
            Err(DurableError::Corrupt("bad pending flags"))
        ));
    }

    #[test]
    fn a_day_shaped_frame_fits_in_32_kb() {
        // Round 16 of the `day` benchmark's shape (8 centers, 400
        // couriers, 640 points, 1 000 tasks/h), solved incrementally so
        // the frame carries a solver seed. Fixed-width fields made it
        // ~58 kB.
        let scenario = Scenario::generate(
            &crate::scenario::ScenarioConfig {
                n_centers: 8,
                n_workers: 400,
                n_delivery_points: 640,
                extent: 10.0,
                arrival_rate: 1000.0,
                ..crate::scenario::ScenarioConfig::default()
            },
            8.0,
            5,
        );
        let dir = std::env::temp_dir().join(format!("fta-sim-state-day-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SimConfig {
            horizon: 4.0,
            ..SimConfig::day(Algorithm::Fgt(fta_algorithms::FgtConfig::default()))
        }
        .with_incremental()
        .with_durable(crate::DurableConfig {
            snapshot_every: u64::MAX,
            fsync: fta_durable::FsyncPolicy::Never,
            ..crate::DurableConfig::new(&dir)
        });
        let _ = crate::run(&scenario, &config);
        let log = fta_durable::read_log(&dir.join(fta_durable::WAL_FILE)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let frame = log
            .frames
            .iter()
            .find(|f| decode_frame(f).unwrap().round == 16)
            .expect("the day reaches round 16");
        assert!(decode_frame(frame).unwrap().solver.is_some());
        assert!(
            frame.len() <= 32_000,
            "round-16 frame is {} bytes",
            frame.len()
        );
    }

    #[test]
    fn truncated_payload_is_typed_not_panic() {
        let st = sample_state();
        let payload = encode_frame(1, &st, None, Some(&sample_record(&st)));
        for cut in [1usize, 8, 20, payload.len() - 1] {
            assert!(decode_frame(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn frame_info_summarises_without_scenario() {
        let st = sample_state();
        let payload = encode_frame(5, &st, None, Some(&sample_record(&st)));
        let info = frame_info(&payload).unwrap();
        assert_eq!(info.round, 5);
        assert_eq!(info.tasks_completed, 9);
        assert_eq!(info.pending, 1);
        assert_eq!(info.workers, 2);
        assert!((info.earnings_total - 4.5).abs() < 1e-12);
        assert!(info.has_fault_rng);
        assert!(!info.has_solver_cache);
        assert!(info.has_ledger_record);
    }

    /// The scenario and every clean frame of a journaled incremental,
    /// faulted FGT day: frames that carry a solver seed and a ledger
    /// record.
    fn seeded_frames() -> &'static (Scenario, Vec<Vec<u8>>) {
        static FRAMES: std::sync::OnceLock<(Scenario, Vec<Vec<u8>>)> = std::sync::OnceLock::new();
        FRAMES.get_or_init(|| {
            let scenario = Scenario::generate(
                &crate::scenario::ScenarioConfig {
                    n_centers: 2,
                    n_workers: 10,
                    n_delivery_points: 20,
                    extent: 3.0,
                    arrival_rate: 60.0,
                    ..crate::scenario::ScenarioConfig::default()
                },
                2.0,
                77,
            );
            let dir =
                std::env::temp_dir().join(format!("fta-sim-state-mutation-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let config = SimConfig {
                horizon: 2.0,
                vdps: fta_vdps::VdpsConfig::pruned(1.5, 3),
                ..SimConfig::day(Algorithm::Fgt(fta_algorithms::FgtConfig::default()))
            }
            .with_incremental()
            .with_faults(crate::FaultPlan::stress(5))
            .with_durable(crate::DurableConfig {
                snapshot_every: u64::MAX,
                ..crate::DurableConfig::new(&dir)
            });
            let _ = crate::run(&scenario, &config);
            let log = fta_durable::read_log(&dir.join(fta_durable::WAL_FILE)).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            // The mutation proptest below needs frames with every part:
            // a solver seed and a ledger record.
            for payload in &log.frames {
                let frame = decode_frame(payload).unwrap();
                assert!(frame.solver.is_some() && frame.record.is_some());
            }
            (scenario, log.frames)
        })
    }

    #[test]
    fn journaled_frames_resolve_to_the_solved_instance() {
        let (scenario, frames) = seeded_frames();
        assert!(frames.len() >= 3, "the day must journal a few rounds");
        for payload in frames {
            let frame = decode_frame(payload).unwrap();
            let seed = frame
                .solver
                .as_ref()
                .expect("incremental frames carry a seed");
            let instance = frame.resolve(scenario).unwrap().unwrap();
            assert_eq!(instance.workers.len(), seed.worker_keys.len());
            assert_eq!(instance.tasks.len(), seed.tasks.len());
            for (t, &i) in instance.tasks.iter().zip(&seed.tasks) {
                let src = &scenario.tasks[i as usize];
                assert_eq!(
                    t.expiry.to_bits(),
                    (src.deadline - frame.state.now).to_bits()
                );
                assert_eq!(t.delivery_point, src.delivery_point);
            }
        }
    }

    #[test]
    fn out_of_range_scenario_indices_are_corrupt() {
        let (scenario, frames) = seeded_frames();
        let frame = decode_frame(frames.last().unwrap()).unwrap();
        let n_tasks = scenario.tasks.len() as u32;
        let n_workers = scenario.workers.len() as u64;
        let corrupt = |mut f: DecodedFrame, edit: &dyn Fn(&mut DecodedFrame)| {
            edit(&mut f);
            matches!(f.resolve(scenario), Err(DurableError::Corrupt(_)))
        };
        let reencode = |f: &DecodedFrame| {
            let seed = f.solver.as_ref().unwrap();
            let idle: Vec<usize> = seed.worker_keys.iter().map(|&k| k as usize).collect();
            let instance = f.resolve(scenario).unwrap().unwrap();
            encode_frame(
                f.round,
                &f.state,
                Some(SeedRef {
                    idle: &idle,
                    instance: &instance,
                    tasks: &seed.tasks,
                    cache: &seed.cache,
                }),
                f.record.as_ref(),
            )
        };
        // The frame re-encodes to its own bytes: the codec loses nothing.
        assert_eq!(&reencode(&frame), frames.last().unwrap());
        let fresh = || decode_frame(frames.last().unwrap()).unwrap();
        assert!(!frame.state.pending.is_empty());
        assert!(corrupt(fresh(), &|f| f.state.pending[0].task = n_tasks));
        assert!(corrupt(fresh(), &|f| f.state.next_arrival = n_tasks as usize + 1));
        assert!(corrupt(fresh(), &|f| {
            f.state.ledgers.pop();
        }));
        assert!(corrupt(fresh(), &|f| {
            f.solver.as_mut().unwrap().worker_keys[0] = n_workers;
        }));
        assert!(corrupt(fresh(), &|f| {
            f.solver.as_mut().unwrap().tasks.push(n_tasks);
        }));
        assert!(corrupt(fresh(), &|f| {
            f.solver.as_mut().unwrap().locations.pop();
        }));
    }

    /// Decodes and resolves `payload`; any outcome but a panic is fine.
    fn decode_and_resolve(payload: &[u8], scenario: &Scenario) -> Result<(), DurableError> {
        decode_frame(payload)?.resolve(scenario).map(drop)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        #[test]
        fn mutated_frames_decode_or_fail_typed(
            pick in 0usize..1000,
            kind in 0u8..4,
            at in 0.0f64..1.0,
            span in 0.0f64..1.0,
            bits in 0u8..=255,
        ) {
            // Bit flips, truncation, and splices of another frame's bytes
            // into this one: decoding plus scenario resolution must return
            // (a frame or a typed error), never panic.
            let (scenario, frames) = seeded_frames();
            let base = &frames[pick % frames.len()];
            let other = &frames[(pick / 7) % frames.len()];
            let pos = ((base.len() as f64) * at) as usize;
            let len = ((base.len() - pos) as f64 * span * 0.1) as usize;
            let mutated: Vec<u8> = match kind {
                0 => {
                    let mut m = base.clone();
                    m[pos.min(base.len() - 1)] ^= bits | 1;
                    m
                }
                1 => base[..pos].to_vec(),
                2 => {
                    let from = ((other.len() as f64) * span) as usize;
                    let mut m = base[..pos].to_vec();
                    m.extend_from_slice(&other[from..]);
                    m
                }
                _ => {
                    let mut m = base[..pos].to_vec();
                    m.extend_from_slice(&base[pos..pos + len]);
                    m.extend_from_slice(&base[pos..]);
                    m
                }
            };
            let _ = decode_and_resolve(&mutated, scenario);
        }
    }

    #[test]
    fn fingerprint_separates_scenarios_and_configs() {
        let s1 = Scenario::generate(&crate::scenario::ScenarioConfig::default(), 1.0, 1);
        let s2 = Scenario::generate(&crate::scenario::ScenarioConfig::default(), 1.0, 2);
        let cfg = SimConfig::day(Algorithm::Gta);
        let f1 = fingerprint(&s1, &cfg);
        assert_eq!(f1, fingerprint(&s1, &cfg), "fingerprint must be stable");
        assert_ne!(f1, fingerprint(&s2, &cfg), "different scenario, same print");
        let mut other = cfg.clone();
        other.incremental = true;
        assert_ne!(f1, fingerprint(&s1, &other), "different config, same print");
    }
}
