//! Configuration of the VDPS generator.

/// Which implementation of Algorithm 1 generates the C-VDPS pool.
///
/// Both engines produce bit-identical pools (same masks, same routes, same
/// ordering by subset size then mask) and identical pruning counters; they
/// differ only in speed. The flat engine is the default; the hash-map
/// engine is retained as a correctness oracle next to the brute-force
/// reference in [`crate::naive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VdpsEngine {
    /// Cache-friendly mask-bucketed flat-frontier engine with a fused
    /// ε-adjacency, open-addressed dedup tables, and
    /// optional intra-center parallelism on a bounded worker pool
    /// (see [`crate::flat`]).
    #[default]
    Flat,
    /// The original per-layer `HashMap<(mask, last), State>` dynamic
    /// program (see [`crate::generator::generate_c_vdps_hashmap`]).
    Hashmap,
}

impl VdpsEngine {
    /// Parses an engine name as used by the CLI (`flat` | `hashmap`).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "flat" => Some(Self::Flat),
            "hashmap" => Some(Self::Hashmap),
            _ => None,
        }
    }

    /// Short display name (`"flat"` | `"hashmap"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Flat => "flat",
            Self::Hashmap => "hashmap",
        }
    }
}

/// Tuning knobs of the C-VDPS dynamic program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VdpsConfig {
    /// Distance threshold `ε` (km) of the paper's distance-constrained
    /// pruning strategy: a delivery point `dp_j` is only appended after
    /// `dp_i` when `d(dp_i, dp_j) ≤ ε`. `None` disables pruning (the
    /// paper's `-W` algorithm variants).
    pub epsilon: Option<f64>,
    /// Maximum subset size to generate. Callers normally pass the largest
    /// `maxDP` among the center's workers — larger sets can never be
    /// assigned to anyone.
    pub max_len: usize,
    /// Which generator implementation to run (flat engine by default).
    pub engine: VdpsEngine,
}

impl VdpsConfig {
    /// A config with pruning radius `epsilon` (km) and length cap `max_len`.
    #[must_use]
    pub fn pruned(epsilon: f64, max_len: usize) -> Self {
        Self {
            epsilon: Some(epsilon),
            max_len,
            engine: VdpsEngine::default(),
        }
    }

    /// A config without distance pruning (the `-W` variants).
    #[must_use]
    pub fn unpruned(max_len: usize) -> Self {
        Self {
            epsilon: None,
            max_len,
            engine: VdpsEngine::default(),
        }
    }

    /// Returns a copy running on the given engine.
    #[must_use]
    pub fn with_engine(self, engine: VdpsEngine) -> Self {
        Self { engine, ..self }
    }

    /// Whether the extension `dp_i → dp_j` at distance `d` survives pruning.
    #[must_use]
    pub fn allows_hop(&self, d: f64) -> bool {
        match self.epsilon {
            Some(eps) => d <= eps,
            None => true,
        }
    }
}

impl Default for VdpsConfig {
    /// The paper's SYN defaults: `ε = 2 km`, `maxDP = 3` (Table I).
    fn default() -> Self {
        Self::pruned(2.0, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruned_config_limits_hops() {
        let cfg = VdpsConfig::pruned(1.5, 3);
        assert!(cfg.allows_hop(1.5));
        assert!(!cfg.allows_hop(1.5000001));
    }

    #[test]
    fn unpruned_config_allows_everything() {
        let cfg = VdpsConfig::unpruned(4);
        assert!(cfg.allows_hop(f64::MAX));
    }

    #[test]
    fn default_matches_table_one() {
        let cfg = VdpsConfig::default();
        assert_eq!(cfg.epsilon, Some(2.0));
        assert_eq!(cfg.max_len, 3);
        assert_eq!(cfg.engine, VdpsEngine::Flat);
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in [VdpsEngine::Flat, VdpsEngine::Hashmap] {
            assert_eq!(VdpsEngine::by_name(engine.name()), Some(engine));
        }
        assert_eq!(VdpsEngine::by_name("nope"), None);
        let cfg = VdpsConfig::default().with_engine(VdpsEngine::Hashmap);
        assert_eq!(cfg.engine, VdpsEngine::Hashmap);
        assert_eq!(cfg.epsilon, Some(2.0), "with_engine keeps other knobs");
    }
}
