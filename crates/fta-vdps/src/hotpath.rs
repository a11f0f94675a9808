//! The hot-path profile: machine-calibrated crossover knobs.
//!
//! PRs 2–6 hardcoded the constants that steer the per-round hot paths —
//! when a strategy space is big enough to earn a conflict index, how
//! sparse it must be, when flat-engine layer expansion goes parallel and
//! how finely it chunks. Those numbers were tuned on one machine; this
//! module turns them into a [`HotpathProfile`] that the `fta-bench`
//! `hotpath_snapshot` binary *measures* on the current machine and the
//! solver *loads* (CLI `--hotpath-profile`), with the historical
//! constants compiled in as the defaults so nothing changes for callers
//! that never load a profile.
//!
//! The profile also selects between kernel twins that are bit-identical
//! by construction and differ only in speed: the chunked limb scans of
//! [`crate::kernel`] versus their scalar references, and the flat
//! engine's offsets emission (the DP's arrivals written into the pool
//! row) versus a full [`fta_core::route::Route::build`] re-derivation. Keeping the slower
//! twin selectable is what lets the calibration binary measure both
//! sides honestly on every run.
//!
//! The installed profile lives in process-wide atomics, read *once* per
//! coarse operation (context construction, space assembly, generation
//! start) — never per probe — so the load is invisible on the paths it
//! steers. [`install`] is intended for process start-up (CLI, bench
//! binaries); unit tests that need a specific kernel use the explicit
//! per-call entry points instead of mutating the global.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// Which availability-scan kernel the equilibrium loops run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanKernel {
    /// Chunked `[u64; 2]` limb kernels ([`crate::kernel`]).
    #[default]
    Chunked,
    /// One-branch-per-candidate scalar loops (pre-kernel behaviour).
    Scalar,
}

/// How the flat engine fills a pool row's route fields at emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmissionKernel {
    /// Write the DP's arrival offsets collected during the backwalk
    /// (same float expressions in the same order as a rebuild — the
    /// bit-identical fast path).
    #[default]
    Offsets,
    /// Re-derive every leg with [`fta_core::route::Route::build`] and
    /// write its fields into the row (pre-kernel behaviour, kept as the
    /// measurable reference).
    Rebuild,
}

/// The calibrated hot-path knobs. `Default` is the committed fallback:
/// exactly the constants previous PRs hardcoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotpathProfile {
    /// Availability-scan kernel selection.
    pub scan_kernel: ScanKernel,
    /// Flat-engine route-emission kernel selection.
    pub emission_kernel: EmissionKernel,
    /// A strategy space builds a conflict index only when its total slot
    /// count reaches this floor (historically `4096`).
    pub conflict_index_min_slots: usize,
    /// ... and only when the index stays sparse: at most this many slots
    /// per delivery-point bit on average (historically `64`).
    pub conflict_index_max_slots_per_bit: usize,
    /// Flat-engine layers go parallel at this many mask groups
    /// (historically `64`).
    pub flat_par_min_groups: usize,
    /// Flat-engine expansion aims for this many chunks per pool thread
    /// (historically `4`).
    pub flat_chunks_per_thread: usize,
}

impl Default for HotpathProfile {
    fn default() -> Self {
        Self {
            scan_kernel: ScanKernel::Chunked,
            emission_kernel: EmissionKernel::Offsets,
            conflict_index_min_slots: crate::strategy::CONFLICT_INDEX_MIN_SLOTS,
            conflict_index_max_slots_per_bit: crate::strategy::CONFLICT_INDEX_MAX_SLOTS_PER_BIT,
            flat_par_min_groups: 64,
            flat_chunks_per_thread: 4,
        }
    }
}

// The installed profile, one atomic per knob. Defaults must mirror
// `HotpathProfile::default()`; `current()` is the only reader.
static SCAN_KERNEL: AtomicU8 = AtomicU8::new(0);
static EMISSION_KERNEL: AtomicU8 = AtomicU8::new(0);
static MIN_SLOTS: AtomicUsize = AtomicUsize::new(crate::strategy::CONFLICT_INDEX_MIN_SLOTS);
static MAX_SLOTS_PER_BIT: AtomicUsize =
    AtomicUsize::new(crate::strategy::CONFLICT_INDEX_MAX_SLOTS_PER_BIT);
static PAR_MIN_GROUPS: AtomicUsize = AtomicUsize::new(64);
static CHUNKS_PER_THREAD: AtomicUsize = AtomicUsize::new(4);

/// The currently installed profile (the compiled-in defaults unless
/// [`install`] ran).
#[must_use]
pub fn current() -> HotpathProfile {
    HotpathProfile {
        scan_kernel: if SCAN_KERNEL.load(Ordering::Relaxed) == 0 {
            ScanKernel::Chunked
        } else {
            ScanKernel::Scalar
        },
        emission_kernel: if EMISSION_KERNEL.load(Ordering::Relaxed) == 0 {
            EmissionKernel::Offsets
        } else {
            EmissionKernel::Rebuild
        },
        conflict_index_min_slots: MIN_SLOTS.load(Ordering::Relaxed),
        conflict_index_max_slots_per_bit: MAX_SLOTS_PER_BIT.load(Ordering::Relaxed),
        flat_par_min_groups: PAR_MIN_GROUPS.load(Ordering::Relaxed),
        flat_chunks_per_thread: CHUNKS_PER_THREAD.load(Ordering::Relaxed),
    }
}

/// Installs `profile` process-wide. Call at start-up, before solves run;
/// concurrent solves see each knob tear-free (they are independent
/// atomics) but may mix knobs from two profiles if raced.
pub fn install(profile: &HotpathProfile) {
    SCAN_KERNEL.store(
        u8::from(profile.scan_kernel == ScanKernel::Scalar),
        Ordering::Relaxed,
    );
    EMISSION_KERNEL.store(
        u8::from(profile.emission_kernel == EmissionKernel::Rebuild),
        Ordering::Relaxed,
    );
    MIN_SLOTS.store(profile.conflict_index_min_slots.max(1), Ordering::Relaxed);
    MAX_SLOTS_PER_BIT.store(
        profile.conflict_index_max_slots_per_bit.max(1),
        Ordering::Relaxed,
    );
    PAR_MIN_GROUPS.store(profile.flat_par_min_groups.max(1), Ordering::Relaxed);
    CHUNKS_PER_THREAD.store(
        profile.flat_chunks_per_thread.clamp(1, 64),
        Ordering::Relaxed,
    );
}

/// Reinstalls the compiled-in defaults.
pub fn reset() {
    install(&HotpathProfile::default());
}

/// Parses a profile from JSON. Accepts either a bare profile object or a
/// `BENCH_hotpath.json`-shaped snapshot carrying the profile under a
/// top-level `"profile"` key. Missing fields keep their defaults;
/// numeric fields are clamped to sane bands so a stale or foreign
/// snapshot can slow the solver down but never wedge it.
///
/// # Errors
///
/// Returns a description when the document is not valid JSON, is not an
/// object, or names an unknown kernel.
pub fn from_json_str(raw: &str) -> Result<HotpathProfile, String> {
    let doc: serde_json::Value =
        serde_json::from_str(raw).map_err(|e| format!("hotpath profile is not valid JSON: {e}"))?;
    let obj = if doc["profile"].as_object().is_some() {
        &doc["profile"]
    } else {
        &doc
    };
    if obj.as_object().is_none() {
        return Err("hotpath profile must be a JSON object".to_owned());
    }
    let mut p = HotpathProfile::default();
    if let Some(s) = obj["scan_kernel"].as_str() {
        p.scan_kernel = match s {
            "chunked" => ScanKernel::Chunked,
            "scalar" => ScanKernel::Scalar,
            other => return Err(format!("unknown scan_kernel {other:?}")),
        };
    }
    if let Some(s) = obj["emission_kernel"].as_str() {
        p.emission_kernel = match s {
            "offsets" => EmissionKernel::Offsets,
            "rebuild" => EmissionKernel::Rebuild,
            other => return Err(format!("unknown emission_kernel {other:?}")),
        };
    }
    let clamp = |v: &serde_json::Value, lo: u64, hi: u64, default: usize| -> usize {
        v.as_u64().map_or(default, |n| n.clamp(lo, hi) as usize)
    };
    p.conflict_index_min_slots = clamp(
        &obj["conflict_index_min_slots"],
        1 << 8,
        1 << 20,
        p.conflict_index_min_slots,
    );
    p.conflict_index_max_slots_per_bit = clamp(
        &obj["conflict_index_max_slots_per_bit"],
        4,
        1 << 12,
        p.conflict_index_max_slots_per_bit,
    );
    p.flat_par_min_groups = clamp(
        &obj["flat_par_min_groups"],
        8,
        1 << 16,
        p.flat_par_min_groups,
    );
    p.flat_chunks_per_thread = clamp(
        &obj["flat_chunks_per_thread"],
        1,
        64,
        p.flat_chunks_per_thread,
    );
    Ok(p)
}

/// The JSON object form of `profile`, as written into
/// `BENCH_hotpath.json` under `"profile"` and accepted back by
/// [`from_json_str`].
#[must_use]
pub fn to_json(profile: &HotpathProfile) -> serde_json::Value {
    let fields = vec![
        (
            "scan_kernel".to_owned(),
            serde_json::Value::String(
                match profile.scan_kernel {
                    ScanKernel::Chunked => "chunked",
                    ScanKernel::Scalar => "scalar",
                }
                .to_owned(),
            ),
        ),
        (
            "emission_kernel".to_owned(),
            serde_json::Value::String(
                match profile.emission_kernel {
                    EmissionKernel::Offsets => "offsets",
                    EmissionKernel::Rebuild => "rebuild",
                }
                .to_owned(),
            ),
        ),
        (
            "conflict_index_min_slots".to_owned(),
            serde_json::Value::UInt(profile.conflict_index_min_slots as u64),
        ),
        (
            "conflict_index_max_slots_per_bit".to_owned(),
            serde_json::Value::UInt(profile.conflict_index_max_slots_per_bit as u64),
        ),
        (
            "flat_par_min_groups".to_owned(),
            serde_json::Value::UInt(profile.flat_par_min_groups as u64),
        ),
        (
            "flat_chunks_per_thread".to_owned(),
            serde_json::Value::UInt(profile.flat_chunks_per_thread as u64),
        ),
    ];
    serde_json::Value::Object(fields.into_iter().collect())
}

/// Loads a profile from a JSON file (bare profile or snapshot form).
///
/// # Errors
///
/// Returns a description when the file cannot be read or parsed.
pub fn load(path: &std::path::Path) -> Result<HotpathProfile, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read hotpath profile {}: {e}", path.display()))?;
    from_json_str(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_mirrors_historical_constants() {
        let p = HotpathProfile::default();
        assert_eq!(p.conflict_index_min_slots, 1 << 12);
        assert_eq!(p.conflict_index_max_slots_per_bit, 64);
        assert_eq!(p.flat_par_min_groups, 64);
        assert_eq!(p.flat_chunks_per_thread, 4);
        assert_eq!(p.scan_kernel, ScanKernel::Chunked);
        assert_eq!(p.emission_kernel, EmissionKernel::Offsets);
    }

    #[test]
    fn json_roundtrip_preserves_every_knob() {
        let p = HotpathProfile {
            scan_kernel: ScanKernel::Scalar,
            emission_kernel: EmissionKernel::Rebuild,
            conflict_index_min_slots: 2048,
            conflict_index_max_slots_per_bit: 96,
            flat_par_min_groups: 128,
            flat_chunks_per_thread: 8,
        };
        let json = serde_json::to_string(&to_json(&p)).unwrap();
        assert_eq!(from_json_str(&json).unwrap(), p);
    }

    #[test]
    fn snapshot_wrapper_and_partial_objects_parse() {
        let wrapped = r#"{"description": "x", "profile": {"conflict_index_min_slots": 8192}}"#;
        let p = from_json_str(wrapped).unwrap();
        assert_eq!(p.conflict_index_min_slots, 8192);
        assert_eq!(
            p.conflict_index_max_slots_per_bit,
            HotpathProfile::default().conflict_index_max_slots_per_bit
        );
        assert_eq!(from_json_str("{}").unwrap(), HotpathProfile::default());
    }

    #[test]
    fn hostile_values_clamp_and_unknown_kernels_error() {
        let p =
            from_json_str(r#"{"conflict_index_min_slots": 1, "flat_chunks_per_thread": 10000}"#)
                .unwrap();
        assert_eq!(p.conflict_index_min_slots, 256);
        assert_eq!(p.flat_chunks_per_thread, 64);
        assert!(from_json_str(r#"{"scan_kernel": "simd512"}"#).is_err());
        assert!(from_json_str("[]").is_err());
        assert!(from_json_str("not json").is_err());
    }
}
